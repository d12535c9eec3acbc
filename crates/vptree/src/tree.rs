//! Exact vantage-point tree with bucket leaves.

use fastann_data::{Distance, Neighbor, TopK, VectorSet};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::vantage::select_vantage;

/// Vantage-point candidates sampled per node (the paper samples 100).
const CANDIDATE_SAMPLE: usize = 16;
/// Data points sampled to score each vantage-point candidate.
const SPREAD_SAMPLE: usize = 64;

/// Construction parameters for [`VpTree`].
#[derive(Clone, Copy, Debug)]
pub struct VpTreeConfig {
    /// Maximum points in a leaf bucket.
    pub bucket_size: usize,
    /// RNG seed; construction is deterministic given the seed.
    pub seed: u64,
}

impl Default for VpTreeConfig {
    fn default() -> Self {
        Self {
            bucket_size: 32,
            seed: 0,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Inner {
        /// Row id (into the original data) of the vantage point.
        vp: u32,
        /// Median distance: the left child holds points within `mu` of `vp`.
        mu: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        /// Range into the permuted `ids` array.
        start: u32,
        end: u32,
    },
}

/// Per-search accounting for the exact VP-tree search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VpSearchStats {
    /// Distance evaluations performed.
    pub ndist: u64,
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Leaves scanned.
    pub leaves_visited: u64,
}

/// An exact metric k-NN index: binary tree where each inner node splits
/// space by the median distance to a vantage point.
pub struct VpTree {
    dist: Distance,
    data: VectorSet,
    ids: Vec<u32>,
    nodes: Vec<Node>,
    root: u32,
    config: VpTreeConfig,
    build_ndist: u64,
}

impl VpTree {
    /// Builds a tree over `data` with the given metric.
    ///
    /// # Panics
    /// Panics if `data` is empty or the metric is not a true metric
    /// (pruning relies on the triangle inequality).
    pub fn build(data: VectorSet, dist: Distance, config: VpTreeConfig) -> Self {
        assert!(!data.is_empty(), "cannot build a VP tree over an empty set");
        assert!(
            dist.is_metric(),
            "VP-tree pruning requires a true metric, got {}",
            dist.name()
        );
        assert!(config.bucket_size >= 1, "bucket size must be at least 1");
        let mut ids: Vec<u32> = (0..data.len() as u32).collect();
        let mut nodes = Vec::new();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let n = ids.len();
        let mut build_ndist = 0u64;
        let root = build_rec(
            &data,
            dist,
            &config,
            &mut ids,
            0,
            n,
            &mut nodes,
            &mut rng,
            &mut build_ndist,
        );
        Self {
            dist,
            data,
            ids,
            nodes,
            root,
            config,
            build_ndist,
        }
    }

    /// Distance evaluations spent constructing the tree (vantage scoring
    /// plus the per-node distance pass), used for virtual-time charging.
    pub fn build_ndist(&self) -> u64 {
        self.build_ndist
    }

    /// Approximate resident bytes (vectors + nodes + permutation).
    pub fn approx_bytes(&self) -> usize {
        self.data.as_flat().len() * 4 + self.nodes.len() * 24 + self.ids.len() * 4
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// `true` if the tree indexes no points (never true post-build).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The metric the tree was built with.
    pub fn distance(&self) -> Distance {
        self.dist
    }

    /// The construction configuration.
    pub fn config(&self) -> &VpTreeConfig {
        &self.config
    }

    /// Tree depth (longest root-to-leaf path, in edges).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], n: u32) -> usize {
            match &nodes[n as usize] {
                Node::Leaf { .. } => 0,
                Node::Inner { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Validates the structural invariants of the tree:
    ///
    /// * `ids` is a permutation of `0..n` (every point indexed exactly
    ///   once);
    /// * the node ranges partition `ids` exactly — each position belongs to
    ///   exactly one leaf range or is the vantage-point slot of exactly one
    ///   inner node, and every stored node is part of the tree;
    /// * every leaf holds at most `bucket_size` points (the degenerate
    ///   empty right leaf produced by all-ties splits is allowed);
    /// * both children of an inner node are non-trivial where required:
    ///   the left subtree always holds at least one point;
    /// * metric invariants: every point in the left subtree of an inner
    ///   node is within `mu` of its vantage point, every point in the right
    ///   subtree is at distance `>= mu` (ties may go right because the
    ///   split clamps to keep both sides non-empty).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if self.ids.len() != n {
            return Err(format!("ids length {} != point count {n}", self.ids.len()));
        }
        let mut seen = vec![false; n];
        for &id in &self.ids {
            if (id as usize) >= n {
                return Err(format!("ids holds out-of-range row {id}"));
            }
            if seen[id as usize] {
                return Err(format!("row {id} appears twice in ids"));
            }
            seen[id as usize] = true;
        }
        let mut visited = vec![false; self.nodes.len()];
        self.validate_rec(self.root, 0, n, &mut visited)?;
        if let Some(orphan) = visited.iter().position(|&v| !v) {
            return Err(format!("node {orphan} is not part of the tree"));
        }
        Ok(())
    }

    /// Number of `ids` positions covered by the subtree at `node`
    /// (including inner-node vantage slots).
    fn subtree_span(&self, node: u32) -> usize {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => (*end - *start) as usize,
            Node::Inner { left, right, .. } => {
                1 + self.subtree_span(*left) + self.subtree_span(*right)
            }
        }
    }

    fn validate_rec(
        &self,
        node: u32,
        start: usize,
        end: usize,
        visited: &mut [bool],
    ) -> Result<(), String> {
        if (node as usize) >= self.nodes.len() {
            return Err(format!("node index {node} out of range"));
        }
        if visited[node as usize] {
            return Err(format!("node {node} reached twice (shared or cyclic)"));
        }
        visited[node as usize] = true;
        match &self.nodes[node as usize] {
            Node::Leaf { start: s, end: e } => {
                if (*s as usize, *e as usize) != (start, end) {
                    return Err(format!(
                        "leaf {node} covers [{s}, {e}) but its slot is [{start}, {end})"
                    ));
                }
                if end - start > self.config.bucket_size {
                    return Err(format!(
                        "leaf {node} holds {} points, bucket bound is {}",
                        end - start,
                        self.config.bucket_size
                    ));
                }
                Ok(())
            }
            Node::Inner {
                vp,
                mu,
                left,
                right,
            } => {
                if end <= start {
                    return Err(format!("inner node {node} covers empty range"));
                }
                if self.ids[end - 1] != *vp {
                    return Err(format!(
                        "inner node {node}: vantage point {vp} is not at its slot \
                         (ids[{}] = {})",
                        end - 1,
                        self.ids[end - 1]
                    ));
                }
                let left_len = self.subtree_span(*left);
                if left_len == 0 {
                    return Err(format!("inner node {node} has an empty left subtree"));
                }
                let split = start + left_len;
                if split > end - 1 {
                    return Err(format!(
                        "inner node {node}: children overflow its range \
                         (left spans {left_len} of {})",
                        end - 1 - start
                    ));
                }
                let vpv = self.data.get(*vp as usize);
                for &id in &self.ids[start..split] {
                    let d = self.dist.eval(vpv, self.data.get(id as usize));
                    if d > *mu {
                        return Err(format!(
                            "inner node {node}: left point {id} at distance {d} \
                             outside radius mu = {mu}"
                        ));
                    }
                }
                for &id in &self.ids[split..end - 1] {
                    let d = self.dist.eval(vpv, self.data.get(id as usize));
                    if d < *mu {
                        return Err(format!(
                            "inner node {node}: right point {id} at distance {d} \
                             inside radius mu = {mu}"
                        ));
                    }
                }
                self.validate_rec(*left, start, split, visited)?;
                self.validate_rec(*right, split, end - 1, visited)
            }
        }
    }

    /// Exact k-nearest-neighbour search.
    pub fn knn(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, VpSearchStats) {
        assert!(k > 0, "k must be positive");
        assert_eq!(q.len(), self.data.dim(), "query dimension mismatch");
        let mut top = TopK::new(k);
        let mut stats = VpSearchStats::default();
        self.search_rec(self.root, q, &mut top, &mut stats);
        (top.into_sorted(), stats)
    }

    fn search_rec(&self, node: u32, q: &[f32], top: &mut TopK, stats: &mut VpSearchStats) {
        stats.nodes_visited += 1;
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                stats.leaves_visited += 1;
                for &id in &self.ids[*start as usize..*end as usize] {
                    stats.ndist += 1;
                    top.push(Neighbor::new(
                        id,
                        self.dist.eval(q, self.data.get(id as usize)),
                    ));
                }
            }
            Node::Inner {
                vp,
                mu,
                left,
                right,
            } => {
                stats.ndist += 1;
                let d = self.dist.eval(q, self.data.get(*vp as usize));
                top.push(Neighbor::new(*vp, d));
                // Search the containing side first so the prune radius
                // tightens before the far side is considered.
                let (near, far) = if d < *mu {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search_rec(near, q, top, stats);
                // The far subspace can contain a neighbour only if the query
                // ball of radius tau crosses the mu boundary.
                let tau = top.prune_radius();
                if (d - *mu).abs() <= tau {
                    self.search_rec(far, q, top, stats);
                }
            }
        }
    }
}

impl std::fmt::Debug for VpTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VpTree")
            .field("len", &self.len())
            .field("depth", &self.depth())
            .field("bucket_size", &self.config.bucket_size)
            .finish()
    }
}

/// Recursive construction over `ids[start..end]`; returns the node index.
#[allow(clippy::too_many_arguments)]
fn build_rec(
    data: &VectorSet,
    dist: Distance,
    config: &VpTreeConfig,
    ids: &mut [u32],
    start: usize,
    end: usize,
    nodes: &mut Vec<Node>,
    rng: &mut SmallRng,
    build_ndist: &mut u64,
) -> u32 {
    let n = end - start;
    if n <= config.bucket_size {
        nodes.push(Node::Leaf {
            start: start as u32,
            end: end as u32,
        });
        return (nodes.len() - 1) as u32;
    }

    // --- vantage point selection (second-moment heuristic) ---
    let slice = &ids[start..end];
    let n_cand = CANDIDATE_SAMPLE.min(n).max(1);
    let n_sample = SPREAD_SAMPLE.min(n).max(1);
    let candidates: Vec<u32> = slice.choose_multiple(rng, n_cand).copied().collect();
    let sample: Vec<u32> = slice.choose_multiple(rng, n_sample).copied().collect();
    let (best, sel_ndist) = select_vantage(data, &candidates, data, &sample, dist);
    *build_ndist += sel_ndist;
    let vp = candidates[best];

    // Move vp out of the range (it lives at the inner node).
    let slice = &mut ids[start..end];
    let vp_pos = slice.iter().position(|&x| x == vp).expect("vp is in range");
    slice.swap(vp_pos, n - 1);
    let rest = n - 1;

    // --- median split by distance to vp ---
    let vpv = data.get(vp as usize).to_vec();
    *build_ndist += rest as u64;
    let mut dists: Vec<f32> = slice[..rest]
        .iter()
        .map(|&i| dist.eval(&vpv, data.get(i as usize)))
        .collect();
    let mut order: Vec<usize> = (0..rest).collect();
    order.sort_unstable_by(|&a, &b| dists[a].total_cmp(&dists[b]));
    let permuted: Vec<u32> = order.iter().map(|&o| slice[o]).collect();
    slice[..rest].copy_from_slice(&permuted);
    dists.sort_unstable_by(f32::total_cmp);
    let mid = (rest - 1) / 2;
    let mu = dists[mid];
    // left = indices with d <= mu. Because of ties, find the last position
    // with d <= mu to keep the split deterministic.
    let left_len = dists
        .partition_point(|&d| d <= mu)
        .max(1)
        .min(rest.saturating_sub(1))
        .max(1);

    let node_idx = nodes.len();
    nodes.push(Node::Leaf { start: 0, end: 0 }); // placeholder, patched below

    let left = build_rec(
        data,
        dist,
        config,
        ids,
        start,
        start + left_len,
        nodes,
        rng,
        build_ndist,
    );
    let right = if left_len < rest {
        build_rec(
            data,
            dist,
            config,
            ids,
            start + left_len,
            start + rest,
            nodes,
            rng,
            build_ndist,
        )
    } else {
        // all remaining points tied at mu: degenerate right side is an
        // empty leaf
        nodes.push(Node::Leaf {
            start: (start + rest) as u32,
            end: (start + rest) as u32,
        });
        (nodes.len() - 1) as u32
    };
    nodes[node_idx] = Node::Inner {
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
    use fastann_data::{ground_truth, synth};

    fn build_small(n: usize, dim: usize, seed: u64) -> (VectorSet, VpTree) {
        let data = synth::sift_like(n, dim, seed);
        let tree = VpTree::build(data.clone(), Distance::L2, VpTreeConfig::default());
        (data, tree)
    }

    #[test]
    fn knn_is_exact() {
        let (data, tree) = build_small(1000, 12, 1);
        let queries = synth::queries_near(&data, 25, 0.05, 2);
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        for (qi, truth) in gt.iter().enumerate() {
            let (res, _) = tree.knn(queries.get(qi), 10);
            assert_eq!(&res, truth, "query {qi} differs from brute force");
        }
    }

    #[test]
    fn knn_exact_under_l1() {
        let data = synth::sift_like(500, 8, 3);
        let tree = VpTree::build(data.clone(), Distance::L1, VpTreeConfig::default());
        let queries = synth::queries_near(&data, 10, 0.05, 4);
        let gt = ground_truth::brute_force(&data, &queries, 5, Distance::L1);
        for (qi, truth) in gt.iter().enumerate() {
            let (res, _) = tree.knn(queries.get(qi), 5);
            assert_eq!(&res, truth, "L1 query {qi}");
        }
    }

    #[test]
    fn pruning_actually_happens() {
        let (data, tree) = build_small(4000, 8, 5);
        let (_, stats) = tree.knn(data.get(0), 1);
        assert!(
            stats.ndist < 4000,
            "search should prune; evaluated {} of 4000",
            stats.ndist
        );
    }

    #[test]
    fn deeper_pruning_for_smaller_k() {
        let (data, tree) = build_small(4000, 8, 6);
        let (_, s1) = tree.knn(data.get(1), 1);
        let (_, s50) = tree.knn(data.get(1), 50);
        assert!(
            s1.ndist <= s50.ndist,
            "k=1 {} vs k=50 {}",
            s1.ndist,
            s50.ndist
        );
    }

    #[test]
    fn single_point_tree() {
        let mut data = VectorSet::new(2);
        data.push(&[3.0, 4.0]);
        let tree = VpTree::build(data, Distance::L2, VpTreeConfig::default());
        let (r, _) = tree.knn(&[0.0, 0.0], 5);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, 0);
        assert!((r[0].dist - 5.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_points_handled() {
        let mut data = VectorSet::new(2);
        for _ in 0..100 {
            data.push(&[1.0, 1.0]);
        }
        let tree = VpTree::build(
            data,
            Distance::L2,
            VpTreeConfig {
                bucket_size: 4,
                ..Default::default()
            },
        );
        let (r, _) = tree.knn(&[1.0, 1.0], 10);
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn bucket_size_one_works() {
        let data = synth::sift_like(64, 4, 7);
        let tree = VpTree::build(
            data.clone(),
            Distance::L2,
            VpTreeConfig {
                bucket_size: 1,
                ..Default::default()
            },
        );
        let gt = ground_truth::brute_force(&data, &data, 3, Distance::L2);
        for (i, expected) in gt.iter().enumerate().take(8) {
            let (res, _) = tree.knn(data.get(i), 3);
            assert_eq!(&res, expected);
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        let (_, tree) = build_small(4096, 8, 8);
        // ~4096/32 = 128 leaves -> ideal depth 7; allow slack for imbalance
        assert!(tree.depth() <= 20, "depth {} too large", tree.depth());
    }

    #[test]
    #[should_panic]
    fn empty_build_panics() {
        let _ = VpTree::build(VectorSet::new(3), Distance::L2, VpTreeConfig::default());
    }

    #[test]
    #[should_panic]
    fn non_metric_rejected() {
        let data = synth::sift_like(10, 4, 9);
        let _ = VpTree::build(data, Distance::Cosine, VpTreeConfig::default());
    }

    #[test]
    fn validator_accepts_built_trees() {
        let (_, tree) = build_small(1500, 8, 24);
        tree.validate().expect("default build is valid");
        let data = synth::sift_like(300, 6, 25);
        let small_buckets = VpTree::build(
            data,
            Distance::L2,
            VpTreeConfig {
                bucket_size: 1,
                ..Default::default()
            },
        );
        small_buckets
            .validate()
            .expect("bucket_size 1 build is valid");
        // all-ties data exercises the degenerate empty right leaf
        let mut ties = VectorSet::new(2);
        for _ in 0..50 {
            ties.push(&[2.0, 2.0]);
        }
        let tied = VpTree::build(
            ties,
            Distance::L2,
            VpTreeConfig {
                bucket_size: 4,
                ..Default::default()
            },
        );
        tied.validate().expect("all-ties build is valid");
    }

    #[test]
    fn validator_rejects_corrupted_mu() {
        let (_, mut tree) = build_small(600, 8, 26);
        let root = tree.root as usize;
        if let Node::Inner { mu, .. } = &mut tree.nodes[root] {
            *mu *= 0.25; // left subtree now sticks out of the ball
        } else {
            panic!("600-point tree must have an inner root");
        }
        let err = tree.validate().expect_err("mu corruption must be caught");
        assert!(err.contains("outside radius"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_duplicated_point() {
        let (_, mut tree) = build_small(400, 8, 27);
        tree.ids[0] = tree.ids[1];
        let err = tree.validate().expect_err("duplicate must be caught");
        assert!(err.contains("appears twice"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_corrupted_leaf_range() {
        let (_, mut tree) = build_small(500, 8, 28);
        let leaf = tree
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Leaf { start, end } if end > start))
            .expect("tree has a non-empty leaf");
        if let Node::Leaf { end, .. } = &mut tree.nodes[leaf] {
            *end -= 1; // a point now belongs to no leaf
        }
        // the shrunken span misaligns every later range, so the validator
        // may surface this as a slot mismatch or as a metric violation —
        // either way it must not pass
        let _ = tree
            .validate()
            .expect_err("range corruption must be caught");
    }

    #[test]
    fn stats_populate() {
        let (data, tree) = build_small(512, 8, 10);
        let (_, stats) = tree.knn(data.get(0), 5);
        assert!(stats.ndist > 0);
        assert!(stats.nodes_visited > 0);
        assert!(stats.leaves_visited > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fastann_data::ground_truth;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn vp_knn_always_matches_brute_force(
            seed in 0u64..1000,
            n in 10usize..300,
            k in 1usize..10,
            bucket in 1usize..40,
        ) {
            let data = fastann_data::synth::sift_like(n, 6, seed);
            let tree = VpTree::build(
                data.clone(),
                Distance::L2,
                VpTreeConfig { bucket_size: bucket, seed },
            );
            let q = fastann_data::synth::sift_like(3, 6, seed ^ 0xabc);
            for qi in 0..3 {
                let (res, _) = tree.knn(q.get(qi), k);
                let truth = ground_truth::brute_force_one(&data, q.get(qi), k, Distance::L2);
                prop_assert_eq!(&res, &truth);
            }
        }
    }
}
