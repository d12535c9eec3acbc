//! # fastann-hnsw
//!
//! A from-scratch implementation of **Hierarchical Navigable Small World**
//! graphs (Malkov & Yashunin, TPAMI 2018) — the approximate k-NN index the
//! paper runs *inside every data partition* (Section III-A).
//!
//! The index is a stack of navigable-small-world layers. Every point lives
//! in layer 0; each point is independently promoted to higher layers with a
//! geometric probability (the skip-list construction), and search descends
//! greedily from the sparse top layer to the dense bottom layer, turning a
//! k-NN query into an `O(log n)` greedy graph walk.
//!
//! Implemented here:
//! * insertion with the *heuristic* neighbour selection of the HNSW paper's
//!   Algorithm 4 (`extend_candidates` / `keep_pruned` knobs included),
//! * `ef`-bounded best-first layer search with an epoch-based visited set,
//! * one insertion core — a read-only plan applied sequentially — driving
//!   both the sequential build (batches of one) and the multi-threaded
//!   bulk build (rayon-planned batches), the analogue of the
//!   OpenMP-parallel construction used in the paper,
//! * one search entry point, [`Hnsw::search`], whose [`SearchParams`]
//!   select exact or SQ8 quantized-first traversal,
//! * distance-evaluation accounting ([`SearchStats`]) — the quantity the
//!   virtual-time cluster simulation charges for compute.
//!
//! ```
//! use fastann_data::{synth, Distance};
//! use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch};
//!
//! let data = synth::sift_like(2_000, 32, 7);
//! let index = Hnsw::build(data.clone(), Distance::L2, HnswConfig::default());
//! let mut scratch = SearchScratch::default();
//! let (hits, stats) = index.search(data.get(0), &SearchParams::new(5, 64), &mut scratch);
//! assert_eq!(hits[0].id, 0); // a point's nearest neighbour is itself
//! assert!(stats.ndist > 0);
//! ```

#![forbid(unsafe_code)]

mod config;
mod graph;
mod index;
mod rerank;
mod scratch;
mod select;
mod serialize;

pub use config::HnswConfig;
pub use index::{Hnsw, SearchParams, SearchStats};
pub use scratch::SearchScratch;
pub use serialize::LoadError;
