//! Partition skeleton tree and query routing — the paper's `F(q)`.
//!
//! The distributed engine builds a VP tree whose leaves are whole data
//! partitions (one per processing core). The *skeleton* — vantage vectors
//! and µ radii of the inner nodes, partition ids at the leaves — is all the
//! master process keeps; it is assembled either by the distributed
//! construction (fastann-core) or locally by [`PartitionTree::build_local`].
//!
//! Routing a query returns the partitions whose subspace could contain its
//! nearest neighbours: the search descends into the child containing the
//! query and *also* into the sibling whenever the query is within a margin
//! of the µ boundary. The margin and the partition budget are the knobs
//! that trade recall against work, mirroring how the paper localises each
//! query to a subset of partitions.

use fastann_data::select::median;
use fastann_data::{Distance, VectorSet};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::vantage::select_vantage;

/// Deepest skeleton [`PartitionTree::from_bytes`] accepts. A build over
/// `P` cores is `log2(P)` deep and each split deepens one leaf by one, so
/// a real skeleton stays far below this; the bound keeps a crafted one
/// from exhausting the stack.
const MAX_SKELETON_DEPTH: usize = 1024;

#[derive(Clone, Debug)]
enum PNode {
    Inner {
        vp: Vec<f32>,
        mu: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        partition: u32,
    },
}

/// Routing parameters for [`PartitionTree::route`].
#[derive(Clone, Copy, Debug)]
pub struct RouteConfig {
    /// A sibling subtree is also visited when the query's boundary slack
    /// `|d(q, vp) - mu|` is at most `margin_frac * mu`.
    pub margin_frac: f32,
    /// Upper bound on the number of partitions returned (the nearest-
    /// boundary ones win). `usize::MAX` disables the cap.
    pub max_partitions: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            margin_frac: 0.15,
            max_partitions: 4,
        }
    }
}

/// The master-side partition skeleton: maps a query to the partitions that
/// must be searched.
#[derive(Clone, Debug)]
pub struct PartitionTree {
    nodes: Vec<PNode>,
    root: u32,
    dist: Distance,
}

impl PartitionTree {
    /// Builds the skeleton locally over `data`, splitting by median distance
    /// until `n_partitions` leaves exist, and returns the per-partition row
    /// ids alongside. This is the sequential reference implementation of
    /// the paper's construction (Algorithm 2 without the message passing);
    /// the distributed builder in `fastann-core` produces the same shape.
    ///
    /// `n_partitions` must be a power of two (the construction halves
    /// process groups, paper Section IV-A).
    pub fn build_local(
        data: &VectorSet,
        n_partitions: usize,
        dist: Distance,
        seed: u64,
    ) -> (PartitionTree, Vec<Vec<u32>>) {
        assert!(n_partitions >= 1, "need at least one partition");
        assert!(
            n_partitions.is_power_of_two(),
            "partition count must be a power of two"
        );
        assert!(
            data.len() >= n_partitions,
            "cannot split {} points into {} partitions",
            data.len(),
            n_partitions
        );
        assert!(dist.is_metric(), "partitioning requires a true metric");
        let mut nodes = Vec::new();
        let mut parts: Vec<Vec<u32>> = Vec::with_capacity(n_partitions);
        let mut rng = SmallRng::seed_from_u64(seed);
        let all: Vec<u32> = (0..data.len() as u32).collect();
        let root = split_rec(
            data,
            dist,
            all,
            n_partitions,
            &mut nodes,
            &mut parts,
            &mut rng,
        );
        let tree = PartitionTree { nodes, root, dist };
        tree.validate()
            .expect("local skeleton construction produced an invalid tree");
        (tree, parts)
    }

    /// Number of leaf partitions.
    pub fn n_partitions(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, PNode::Leaf { .. }))
            .count()
    }

    /// The metric the tree routes with.
    pub fn distance(&self) -> Distance {
        self.dist
    }

    /// Tree depth in edges.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[PNode], n: u32) -> usize {
            match &nodes[n as usize] {
                PNode::Leaf { .. } => 0,
                PNode::Inner { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// The paper's `F(q)`: partitions to search for query `q`, ordered by
    /// ascending boundary slack (the home partition first, slack 0), capped
    /// at `cfg.max_partitions`. Also returns the number of distance
    /// evaluations spent routing (charged to the master's virtual clock by
    /// the engine).
    ///
    /// The traversal is *bounded best-first*: a frontier ordered by the
    /// loosest boundary crossed so far, expanded until `max_partitions`
    /// leaves are found. This caps the routing work at roughly
    /// `max_partitions × depth` distance evaluations — the DFS alternative
    /// explores every in-margin branch and its cost explodes with tree
    /// depth, which would make the sequential master the bottleneck (the
    /// effect the paper fights with its optimisations).
    pub fn route(&self, q: &[f32], cfg: &RouteConfig) -> (Vec<u32>, u64) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Frontier(f32, u32); // (worst slack so far, node)
        impl Eq for Frontier {}
        impl Ord for Frontier {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }
        impl PartialOrd for Frontier {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let cap = cfg.max_partitions.max(1).min(self.nodes.len());
        let mut ndist = 0u64;
        let mut out: Vec<u32> = Vec::with_capacity(cap);
        let mut heap: BinaryHeap<Reverse<Frontier>> = BinaryHeap::new();
        heap.push(Reverse(Frontier(0.0, self.root)));
        while let Some(Reverse(Frontier(worst, mut node))) = heap.pop() {
            // descend to a leaf, deferring in-margin siblings to the frontier
            loop {
                match &self.nodes[node as usize] {
                    PNode::Leaf { partition } => {
                        out.push(*partition);
                        break;
                    }
                    PNode::Inner {
                        vp,
                        mu,
                        left,
                        right,
                    } => {
                        ndist += 1;
                        let d = self.dist.eval(q, vp);
                        let slack = (d - mu).abs();
                        let (near, far) = if d <= *mu {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        if slack <= cfg.margin_frac * mu {
                            heap.push(Reverse(Frontier(worst.max(slack), far)));
                        }
                        node = near;
                    }
                }
            }
            if out.len() >= cap {
                break;
            }
        }
        (out, ndist)
    }

    /// Dynamic LANNS-style leaf split: replaces the leaf naming `old_pid`
    /// with an inner node over two fresh leaves — `old_pid` keeps the
    /// within-`mu` half of its ball, `new_pid` receives the outside. The
    /// caller computes the vantage and radius deterministically from the
    /// partition's rows and re-homes the rows itself; the tree only learns
    /// the new routing boundary, exactly as if the skeleton had been built
    /// one level deeper here.
    ///
    /// # Panics
    /// Panics when `old_pid` has no leaf, `new_pid` already has one, or
    /// `mu` is not a positive finite radius.
    pub fn split_leaf(&mut self, old_pid: u32, vp: Vec<f32>, mu: f32, new_pid: u32) {
        assert!(
            mu.is_finite() && mu > 0.0,
            "split radius must be positive and finite, got {mu}"
        );
        assert!(
            !self
                .nodes
                .iter()
                .any(|n| matches!(n, PNode::Leaf { partition } if *partition == new_pid)),
            "partition {new_pid} already exists"
        );
        let leaf_idx = self
            .nodes
            .iter()
            .position(|n| matches!(n, PNode::Leaf { partition } if *partition == old_pid))
            .expect("split_leaf: no leaf carries the split partition id");
        let left = self.nodes.len() as u32;
        self.nodes.push(PNode::Leaf { partition: old_pid });
        let right = self.nodes.len() as u32;
        self.nodes.push(PNode::Leaf { partition: new_pid });
        self.nodes[leaf_idx] = PNode::Inner {
            vp,
            mu,
            left,
            right,
        };
        self.validate()
            .expect("leaf split produced an invalid tree");
    }

    /// Checks the node array forms a tree rooted at `self.root` covering
    /// every node exactly once (no cycles, no sharing, no orphans).
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.nodes.len()];
        fn rec(nodes: &[PNode], n: u32, seen: &mut [bool]) -> Result<(), String> {
            if seen[n as usize] {
                return Err(format!("node {n} reachable twice: not a tree"));
            }
            seen[n as usize] = true;
            if let PNode::Inner { left, right, .. } = &nodes[n as usize] {
                rec(nodes, *left, seen)?;
                rec(nodes, *right, seen)?;
            }
            Ok(())
        }
        rec(&self.nodes, self.root, &mut seen)?;
        if let Some(orphan) = seen.iter().position(|&s| !s) {
            return Err(format!("node {orphan} is not part of the tree"));
        }
        Ok(())
    }

    /// Serializes the skeleton to bytes (preorder; little endian): the
    /// format the distributed construction ships between ranks and that
    /// [`PartitionTree::from_bytes`] reads back.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn rec(nodes: &[PNode], n: u32, out: &mut Vec<u8>) {
            match &nodes[n as usize] {
                PNode::Leaf { partition } => {
                    out.extend_from_slice(&0u32.to_le_bytes());
                    out.extend_from_slice(&partition.to_le_bytes());
                }
                PNode::Inner {
                    vp,
                    mu,
                    left,
                    right,
                } => {
                    out.extend_from_slice(&1u32.to_le_bytes());
                    out.extend_from_slice(&mu.to_le_bytes());
                    out.extend_from_slice(&(vp.len() as u32).to_le_bytes());
                    for &x in vp {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                    rec(nodes, *left, out);
                    rec(nodes, *right, out);
                }
            }
        }
        let mut out = Vec::with_capacity(self.approx_bytes());
        rec(&self.nodes, self.root, &mut out);
        out
    }

    /// Deserializes a skeleton produced by [`PartitionTree::to_bytes`] —
    /// from an index file or from the distributed construction's wire
    /// message, which ships the same layout.
    ///
    /// # Errors
    /// A description of the first defect: truncation, an unknown node
    /// tag, a vantage length longer than the bytes left, vantage vectors
    /// of different lengths, nesting deeper than 1024 levels, leaf ids
    /// that are not `0..n_partitions`, or trailing bytes.
    pub fn from_bytes(bytes: &[u8], dist: Distance) -> Result<PartitionTree, String> {
        fn u32_of(rd: &mut &[u8]) -> Result<u32, String> {
            let (head, rest) = rd.split_first_chunk::<4>().ok_or("truncated skeleton")?;
            *rd = rest;
            Ok(u32::from_le_bytes(*head))
        }
        fn rec(rd: &mut &[u8], nodes: &mut Vec<PNode>, depth: usize) -> Result<u32, String> {
            if depth > MAX_SKELETON_DEPTH {
                return Err(format!("skeleton deeper than {MAX_SKELETON_DEPTH}"));
            }
            let node = match u32_of(rd)? {
                0 => PNode::Leaf {
                    partition: u32_of(rd)?,
                },
                1 => {
                    let mu = f32::from_bits(u32_of(rd)?);
                    let len = u32_of(rd)? as usize;
                    if len > rd.len() / 4 {
                        return Err(format!("vantage length {len} overruns the skeleton"));
                    }
                    let vp = (0..len)
                        .map(|_| u32_of(rd).map(f32::from_bits))
                        .collect::<Result<Vec<f32>, String>>()?;
                    let left = rec(rd, nodes, depth + 1)?;
                    let right = rec(rd, nodes, depth + 1)?;
                    PNode::Inner {
                        vp,
                        mu,
                        left,
                        right,
                    }
                }
                tag => return Err(format!("bad skeleton node tag {tag}")),
            };
            nodes.push(node);
            Ok((nodes.len() - 1) as u32)
        }
        let mut rd = bytes;
        let mut nodes = Vec::new();
        let root = rec(&mut rd, &mut nodes, 0)?;
        if !rd.is_empty() {
            return Err(format!("{} trailing bytes in skeleton", rd.len()));
        }
        let tree = PartitionTree { nodes, root, dist };
        if let Some(d) = tree.dim() {
            if let Some(e) = tree.vantage_lens().find(|&e| e != d) {
                return Err(format!("vantage lengths {d} and {e} differ"));
            }
        }
        let mut leaves: Vec<u32> = tree
            .nodes
            .iter()
            .filter_map(|n| match n {
                PNode::Leaf { partition } => Some(*partition),
                PNode::Inner { .. } => None,
            })
            .collect();
        leaves.sort_unstable();
        if leaves.iter().enumerate().any(|(i, &p)| p as usize != i) {
            return Err("leaf partition ids are not 0..n_partitions".into());
        }
        Ok(tree)
    }

    /// Length of the vantage vectors: the dimension of the vectors the
    /// tree routes. `None` for a tree of one leaf.
    pub fn dim(&self) -> Option<usize> {
        self.vantage_lens().next()
    }

    fn vantage_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().filter_map(|n| match n {
            PNode::Inner { vp, .. } => Some(vp.len()),
            PNode::Leaf { .. } => None,
        })
    }

    /// Serialized size estimate in bytes (vantage vectors dominate); used
    /// to model the cost of broadcasting the skeleton.
    pub fn approx_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                PNode::Inner { vp, .. } => 16 + vp.len() * 4,
                PNode::Leaf { .. } => 8,
            })
            .sum()
    }
}

/// Recursive median split of `ids` into `parts_left` partitions.
fn split_rec(
    data: &VectorSet,
    dist: Distance,
    ids: Vec<u32>,
    parts_left: usize,
    nodes: &mut Vec<PNode>,
    parts: &mut Vec<Vec<u32>>,
    rng: &mut SmallRng,
) -> u32 {
    if parts_left == 1 {
        let pid = parts.len() as u32;
        parts.push(ids);
        nodes.push(PNode::Leaf { partition: pid });
        return (nodes.len() - 1) as u32;
    }
    // vantage selection over a sample (paper: candidates of 100)
    let n_cand = 16.min(ids.len());
    let n_samp = 64.min(ids.len());
    let candidates: Vec<u32> = ids.choose_multiple(rng, n_cand).copied().collect();
    let sample: Vec<u32> = ids.choose_multiple(rng, n_samp).copied().collect();
    let (best, _) = select_vantage(data, &candidates, data, &sample, dist);
    let vp = data.get(candidates[best] as usize).to_vec();

    let dists: Vec<f32> = ids
        .iter()
        .map(|&i| dist.eval(&vp, data.get(i as usize)))
        .collect();
    let mu = median(&mut dists.clone());
    let mut left_ids = Vec::with_capacity(ids.len() / 2 + 1);
    let mut right_ids = Vec::with_capacity(ids.len() / 2 + 1);
    for (i, &id) in ids.iter().enumerate() {
        if dists[i] <= mu {
            left_ids.push(id);
        } else {
            right_ids.push(id);
        }
    }
    // Ties on mu can empty one side of a tiny split; rebalance minimally so
    // both subtrees receive points.
    while right_ids.len() < parts_left / 2 && !left_ids.is_empty() {
        right_ids.push(left_ids.pop().expect("non-empty"));
    }
    while left_ids.len() < parts_left / 2 && !right_ids.is_empty() {
        left_ids.push(right_ids.pop().expect("non-empty"));
    }

    let node_idx = nodes.len();
    nodes.push(PNode::Leaf {
        partition: u32::MAX,
    }); // placeholder
    let left = split_rec(data, dist, left_ids, parts_left / 2, nodes, parts, rng);
    let right = split_rec(data, dist, right_ids, parts_left / 2, nodes, parts, rng);
    nodes[node_idx] = PNode::Inner {
        vp,
        mu,
        left,
        right,
    };
    node_idx as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_data::synth;

    #[test]
    fn build_local_partitions_cover_dataset() {
        let data = synth::sift_like(1000, 8, 1);
        let (tree, parts) = PartitionTree::build_local(&data, 8, Distance::L2, 1);
        assert_eq!(tree.n_partitions(), 8);
        assert_eq!(parts.len(), 8);
        let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..1000u32).collect::<Vec<_>>(),
            "partitions must cover exactly"
        );
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let data = synth::sift_like(2048, 8, 2);
        let (_, parts) = PartitionTree::build_local(&data, 16, Distance::L2, 2);
        let min = parts
            .iter()
            .map(Vec::len)
            .min()
            .expect("at least one partition");
        let max = parts
            .iter()
            .map(Vec::len)
            .max()
            .expect("at least one partition");
        // median splits: each level halves within tie tolerance
        assert!(min * 3 >= max, "imbalance too high: {min} vs {max}");
    }

    #[test]
    fn route_returns_home_partition_first() {
        let data = synth::sift_like(500, 8, 3);
        let (tree, parts) = PartitionTree::build_local(&data, 8, Distance::L2, 3);
        // a data point's home partition must be the first routed partition
        for (pid, part) in parts.iter().enumerate() {
            let Some(&id) = part.first() else {
                continue;
            };
            let (route, nd) = tree.route(
                data.get(id as usize),
                &RouteConfig {
                    margin_frac: 0.0,
                    max_partitions: 1,
                },
            );
            assert_eq!(route.len(), 1);
            assert_eq!(route[0] as usize, pid, "point {id} routed away from home");
            assert!(nd > 0);
        }
    }

    #[test]
    fn wider_margin_routes_to_more_partitions() {
        let data = synth::sift_like(1000, 8, 4);
        let (tree, _) = PartitionTree::build_local(&data, 16, Distance::L2, 4);
        let q = data.get(0);
        let narrow = tree
            .route(
                q,
                &RouteConfig {
                    margin_frac: 0.0,
                    max_partitions: 100,
                },
            )
            .0;
        let wide = tree
            .route(
                q,
                &RouteConfig {
                    margin_frac: 0.5,
                    max_partitions: 100,
                },
            )
            .0;
        assert_eq!(narrow.len(), 1);
        assert!(wide.len() >= narrow.len());
    }

    #[test]
    fn max_partitions_caps_route() {
        let data = synth::sift_like(1000, 8, 5);
        let (tree, _) = PartitionTree::build_local(&data, 16, Distance::L2, 5);
        let (route, _) = tree.route(
            data.get(3),
            &RouteConfig {
                margin_frac: 1.0,
                max_partitions: 3,
            },
        );
        assert!(route.len() <= 3);
        assert!(!route.is_empty());
    }

    #[test]
    fn route_is_deduplicated_and_valid() {
        let data = synth::sift_like(600, 8, 6);
        let (tree, _) = PartitionTree::build_local(&data, 8, Distance::L2, 6);
        let (route, _) = tree.route(
            data.get(0),
            &RouteConfig {
                margin_frac: 0.8,
                max_partitions: 64,
            },
        );
        let mut sorted = route.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), route.len(), "no duplicate partitions");
        assert!(route.iter().all(|&p| p < 8));
    }

    /// Leaf 0 inside the ball of radius `mu` around `vp`, leaf 1 outside.
    fn two_leaves(vp: Vec<f32>, mu: f32) -> PartitionTree {
        let (left, right) = (0, 1);
        let nodes = vec![
            PNode::Leaf { partition: 0 },
            PNode::Leaf { partition: 1 },
            PNode::Inner {
                vp,
                mu,
                left,
                right,
            },
        ];
        let dist = Distance::L2;
        PartitionTree {
            nodes,
            root: 2,
            dist,
        }
    }

    fn one_leaf() -> PartitionTree {
        let nodes = vec![PNode::Leaf { partition: 0 }];
        let dist = Distance::L2;
        PartitionTree {
            nodes,
            root: 0,
            dist,
        }
    }

    #[test]
    fn two_leaf_tree_routes_by_ball() {
        let tree = two_leaves(vec![0.0, 0.0], 1.0);
        assert_eq!(tree.n_partitions(), 2);
        // query inside the ball routes to partition 0
        let (route, _) = tree.route(
            &[0.1, 0.1],
            &RouteConfig {
                margin_frac: 0.0,
                max_partitions: 8,
            },
        );
        assert_eq!(route, vec![0]);
        // query outside routes to partition 1
        let (route, _) = tree.route(
            &[5.0, 5.0],
            &RouteConfig {
                margin_frac: 0.0,
                max_partitions: 8,
            },
        );
        assert_eq!(route, vec![1]);
    }

    #[test]
    fn near_boundary_routes_to_both() {
        let tree = two_leaves(vec![0.0], 1.0);
        let (route, _) = tree.route(
            &[0.95],
            &RouteConfig {
                margin_frac: 0.2,
                max_partitions: 8,
            },
        );
        assert_eq!(route.len(), 2, "boundary query must visit both children");
        assert_eq!(route[0], 0, "home partition first");
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let data = synth::sift_like(100, 4, 7);
        let _ = PartitionTree::build_local(&data, 3, Distance::L2, 7);
    }

    #[test]
    fn depth_matches_partition_count() {
        let data = synth::sift_like(512, 8, 8);
        let (tree, _) = PartitionTree::build_local(&data, 16, Distance::L2, 8);
        assert_eq!(tree.depth(), 4, "16 partitions -> depth log2(16)");
    }

    #[test]
    fn best_first_route_prefers_tightest_boundaries() {
        // With a cap of 2 and a wide margin, the two returned partitions
        // must be the two with the smallest boundary slack among all
        // in-margin leaves (best-first, not DFS truncation).
        let data = synth::sift_like(800, 8, 10);
        let (tree, _) = PartitionTree::build_local(&data, 16, Distance::L2, 10);
        let q = data.get(11);
        let all = tree
            .route(
                q,
                &RouteConfig {
                    margin_frac: 0.6,
                    max_partitions: 1000,
                },
            )
            .0;
        let capped = tree
            .route(
                q,
                &RouteConfig {
                    margin_frac: 0.6,
                    max_partitions: 2,
                },
            )
            .0;
        assert_eq!(capped.len(), 2.min(all.len()));
        assert_eq!(
            &all[..capped.len()],
            &capped[..],
            "cap must take the best-ranked prefix"
        );
    }

    #[test]
    fn skeleton_round_trips_through_bytes() {
        let data = synth::sift_like(600, 8, 11);
        let (tree, _) = PartitionTree::build_local(&data, 16, Distance::L2, 11);
        let back = PartitionTree::from_bytes(&tree.to_bytes(), Distance::L2).expect("round trip");
        assert_eq!(back.n_partitions(), 16);
        let cfg = RouteConfig {
            margin_frac: 0.3,
            max_partitions: 6,
        };
        for qi in (0..600).step_by(97) {
            let q = data.get(qi);
            assert_eq!(tree.route(q, &cfg), back.route(q, &cfg), "query {qi}");
        }
    }

    #[test]
    fn malformed_skeleton_bytes_are_errors() {
        let words = |w: &[u32]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        // inner [1, mu, len 1, vp], leaf [0, 0], leaf [0, 1]
        let good = [1, 0, 1, 0, 0, 0, 0, 1];
        assert!(PartitionTree::from_bytes(&words(&good), Distance::L2).is_ok());
        for (bad, msg) in [
            (words(&good[..7]), "truncated"),
            (words(&[&good[..], &[0]].concat()), "trailing"),
            (words(&[1, 0, u32::MAX, 0, 0, 0, 1]), "overruns"),
            (words(&[7, 0, 1, 0, 0, 0, 0, 1]), "node tag 7"),
            (words(&[1, 0, 1, 0, 0, 1, 0, 1]), "not 0..n_partitions"),
            (
                words(&[1, 0, 1, 0, 1, 0, 2, 0, 0, 0, 0, 0, 1, 0, 2]),
                "vantage lengths",
            ),
            (words(&[1, 0, 0].repeat(1025)), "deeper than 1024"),
        ] {
            let err = PartitionTree::from_bytes(&bad, Distance::L2).expect_err(msg);
            assert!(err.contains(msg), "{err}");
        }
    }

    #[test]
    fn split_leaf_routes_both_halves() {
        let data = synth::sift_like(800, 8, 12);
        let (mut tree, parts) = PartitionTree::build_local(&data, 8, Distance::L2, 12);
        // split partition 3 around one of its own rows
        let rows = &parts[3];
        let vp = data.get(rows[0] as usize).to_vec();
        let mut ds: Vec<f32> = rows
            .iter()
            .map(|&id| Distance::L2.eval(&vp, data.get(id as usize)))
            .collect();
        ds.sort_by(f32::total_cmp);
        let mu = ds[ds.len() / 2].max(f32::MIN_POSITIVE);
        tree.split_leaf(3, vp.clone(), mu, 8);
        assert_eq!(tree.n_partitions(), 9);
        tree.validate().expect("split tree is valid");
        // a query at the vantage lands in the kept half, a far one in the new
        let cfg = RouteConfig {
            margin_frac: 0.0,
            max_partitions: 1,
        };
        assert_eq!(tree.route(&vp, &cfg).0, vec![3]);
        let routed: std::collections::BTreeSet<u32> = rows
            .iter()
            .map(|&id| tree.route(data.get(id as usize), &cfg).0[0])
            .collect();
        assert!(
            routed.contains(&8),
            "outside-the-ball rows must route to the new partition: {routed:?}"
        );
        // the split survives a serialization round trip
        let back = PartitionTree::from_bytes(&tree.to_bytes(), Distance::L2).expect("round trip");
        assert_eq!(back.n_partitions(), 9);
        for &id in rows.iter().take(16) {
            let q = data.get(id as usize);
            assert_eq!(tree.route(q, &cfg), back.route(q, &cfg));
        }
    }

    #[test]
    fn split_leaf_of_singleton_tree() {
        let mut tree = one_leaf();
        tree.split_leaf(0, vec![0.0, 0.0], 1.0, 1);
        assert_eq!(tree.n_partitions(), 2);
        let cfg = RouteConfig {
            margin_frac: 0.0,
            max_partitions: 4,
        };
        assert_eq!(tree.route(&[0.1, 0.0], &cfg).0, vec![0]);
        assert_eq!(tree.route(&[9.0, 0.0], &cfg).0, vec![1]);
    }

    #[test]
    #[should_panic]
    fn split_leaf_unknown_partition_panics() {
        let mut tree = one_leaf();
        tree.split_leaf(5, vec![0.0], 1.0, 1);
    }

    #[test]
    #[should_panic]
    fn split_leaf_duplicate_new_pid_panics() {
        let mut tree = two_leaves(vec![0.0], 1.0);
        tree.split_leaf(0, vec![0.0], 1.0, 1);
    }

    #[test]
    fn approx_bytes_reasonable() {
        let data = synth::sift_like(256, 8, 9);
        let (tree, _) = PartitionTree::build_local(&data, 8, Distance::L2, 9);
        // 7 inner nodes, dim 8 -> at least 7*(16+32) bytes
        assert!(tree.approx_bytes() >= 7 * 48);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fastann_data::synth;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn route_always_contains_home_partition(
            seed in 0u64..500,
            margin in 0.0f32..0.5,
            cap in 1usize..16,
        ) {
            let data = synth::sift_like(300, 6, seed);
            let (tree, _) = PartitionTree::build_local(&data, 8, Distance::L2, seed);
            for qi in (0..300).step_by(61) {
                let q = data.get(qi);
                let home = tree.route(q, &RouteConfig { margin_frac: 0.0, max_partitions: 1 }).0[0];
                let routed = tree.route(q, &RouteConfig { margin_frac: margin, max_partitions: cap }).0;
                prop_assert_eq!(routed[0], home, "home partition must rank first");
                prop_assert!(routed.len() <= cap);
                let mut dedup = routed.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), routed.len(), "no duplicates");
            }
        }

        #[test]
        fn wider_margin_is_superset_prefix_monotone(
            seed in 0u64..500,
        ) {
            let data = synth::sift_like(400, 6, seed);
            let (tree, _) = PartitionTree::build_local(&data, 8, Distance::L2, seed);
            let q = data.get(1);
            let narrow = tree.route(q, &RouteConfig { margin_frac: 0.1, max_partitions: 64 }).0;
            let wide = tree.route(q, &RouteConfig { margin_frac: 0.4, max_partitions: 64 }).0;
            for p in &narrow {
                prop_assert!(wide.contains(p), "wider margin must keep partition {}", p);
            }
        }
    }
}
