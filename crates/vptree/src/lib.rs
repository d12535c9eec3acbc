//! # fastann-vptree
//!
//! Vantage-point trees (Yianilos, SODA 1993) — the space-partitioning
//! structure the paper uses to split a dataset across processes
//! (Section III-B).
//!
//! Two structures are provided:
//!
//! * [`VpTree`] — a classic *exact* metric k-NN tree with bucket leaves:
//!   every inner node stores a vantage point and the median distance µ; the
//!   ball of radius µ around the vantage point forms the left subspace.
//!   Search prunes a subtree whenever the query ball (radius = current k-th
//!   distance) cannot intersect it. Used as an exact reference and for the
//!   single-node engine.
//! * [`PartitionTree`] — the *skeleton* the distributed engine needs: inner
//!   nodes hold `(vantage vector, µ)` and leaves name data partitions. Its
//!   [`PartitionTree::route`] implements the paper's `F(q)` — the subset of
//!   partitions a query must visit — by descending into the containing
//!   child and also into the sibling whenever the query lies within a
//!   margin of the boundary.
//!
//! This crate is the one owner of VP partitioning. [`split_local`] is the
//! paper's median split (Algorithm 2) applied recursively to a row set; the
//! distributed construction in `fastann-core` runs it for each node's
//! local phase, and a live partition split runs its median step,
//! [`median_split`]. The skeleton's byte layout is written only in this
//! crate; [`write_inner`] lets the distributed construction join two
//! nodes' subtrees.
//!
//! Vantage points are chosen with the second-moment heuristic of the paper
//! (`SelectVantagePointSerial`): sample candidates, keep the one whose
//! distance distribution to a data sample has the largest spread about its
//! median.
//!
//! ```
//! use fastann_data::{synth, Distance};
//! use fastann_vptree::{split_local, PartitionTree, RouteConfig, VpTree, VpTreeConfig};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let data = synth::sift_like(2_000, 16, 1);
//!
//! // Exact k-NN.
//! let tree = VpTree::build(data.clone(), Distance::L2, VpTreeConfig::default());
//! let (hits, stats) = tree.knn(data.get(0), 5);
//! assert_eq!(hits[0].id, 0);
//! assert!(stats.ndist < 2_000, "search must prune");
//!
//! // Space partitioning + F(q) routing.
//! let all = (0..data.len() as u32).collect();
//! let mut rng = SmallRng::seed_from_u64(1);
//! let (bytes, parts) = split_local(&data, all, 8, 0, Distance::L2, &mut rng, &mut |_| {});
//! assert_eq!(parts.len(), 8);
//! let skel = PartitionTree::from_bytes(&bytes, Distance::L2).expect("a whole skeleton");
//! let (route, _) = skel.route(data.get(0), &RouteConfig::default());
//! assert!(!route.is_empty());
//! ```

#![forbid(unsafe_code)]

mod partition;
mod split;
mod tree;
mod vantage;

pub use partition::{write_inner, PartitionTree, RouteConfig};
pub use split::{choose_vantage, median_split, split_local, N_CANDIDATES, N_SCORE_SAMPLE};
pub use tree::{VpSearchStats, VpTree, VpTreeConfig};
pub use vantage::{select_vantage, spread_about_median};
