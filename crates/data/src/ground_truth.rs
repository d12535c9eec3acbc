//! Exact ground truth by parallel brute force, and recall evaluation.
//!
//! The paper measures accuracy as *recall*: the fraction of true k-nearest
//! neighbours present in the approximate result (Section V-D). We compute
//! exact neighbours with a rayon-parallel brute-force scan — the host-side
//! equivalent of the ground-truth files shipped with the TEXMEX corpora.

use crate::metric::Distance;
use crate::topk::{Neighbor, TopK};
use crate::vector::VectorSet;

/// Exact k-NN for every query by brute force over `data`, parallelised over
/// queries. Results are sorted by ascending distance.
///
/// # Panics
/// Panics if `data` is empty, dimensions mismatch, or `k == 0`.
pub fn brute_force(
    data: &VectorSet,
    queries: &VectorSet,
    k: usize,
    dist: Distance,
) -> Vec<Vec<Neighbor>> {
    assert!(!data.is_empty(), "brute force over empty dataset");
    assert_eq!(data.dim(), queries.dim(), "dimension mismatch");
    rayon::par_map(
        queries.len(),
        || (),
        |(), qi| brute_force_one(data, queries.get(qi), k, dist),
    )
}

/// Exact k-NN of a single query.
pub fn brute_force_one(data: &VectorSet, query: &[f32], k: usize, dist: Distance) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    for (i, row) in data.iter().enumerate() {
        top.push(Neighbor::new(i as u32, dist.eval(query, row)));
    }
    top.into_sorted()
}

/// Recall statistics over a query batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recall {
    /// Mean recall@k over queries.
    pub mean: f64,
    /// Minimum per-query recall.
    pub min: f64,
    /// Number of queries evaluated.
    pub n_queries: usize,
}

/// Computes recall@k of `approx` against exact `truth`.
///
/// For each query, recall is `|approx ∩ truth| / k` where both lists are
/// truncated to `k` entries. Matching is by id; this is the definition in
/// the paper's Section V-D.
///
/// # Panics
/// Panics if the two batches have different lengths or are empty.
pub fn recall_at_k(approx: &[Vec<Neighbor>], truth: &[Vec<Neighbor>], k: usize) -> Recall {
    assert_eq!(approx.len(), truth.len(), "result batch size mismatch");
    assert!(!truth.is_empty(), "empty batch");
    let mut sum = 0f64;
    let mut min = f64::INFINITY;
    for (a, t) in approx.iter().zip(truth) {
        let truth_ids: Vec<u32> = t.iter().take(k).map(|n| n.id).collect();
        let hit = a
            .iter()
            .take(k)
            .filter(|n| truth_ids.contains(&n.id))
            .count();
        let denom = truth_ids.len().min(k).max(1);
        let r = hit as f64 / denom as f64;
        sum += r;
        if r < min {
            min = r;
        }
    }
    Recall {
        mean: sum / truth.len() as f64,
        min,
        n_queries: truth.len(),
    }
}

/// Recall computed against plain id lists (e.g. loaded from `.ivecs`
/// ground-truth files).
pub fn recall_against_ids(approx: &[Vec<Neighbor>], truth_ids: &[Vec<u32>], k: usize) -> Recall {
    assert_eq!(approx.len(), truth_ids.len(), "result batch size mismatch");
    assert!(!truth_ids.is_empty(), "empty batch");
    let mut sum = 0f64;
    let mut min = f64::INFINITY;
    for (a, t) in approx.iter().zip(truth_ids) {
        let t: Vec<u32> = t.iter().take(k).copied().collect();
        let hit = a.iter().take(k).filter(|n| t.contains(&n.id)).count();
        let r = hit as f64 / t.len().min(k).max(1) as f64;
        sum += r;
        if r < min {
            min = r;
        }
    }
    Recall {
        mean: sum / truth_ids.len() as f64,
        min,
        n_queries: truth_ids.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn brute_force_finds_self() {
        let data = synth::sift_like(100, 8, 1);
        let res = brute_force(&data, &data, 1, Distance::L2);
        for (i, r) in res.iter().enumerate() {
            assert_eq!(r[0].id, i as u32, "nearest neighbour of a point is itself");
            assert_eq!(r[0].dist, 0.0);
        }
    }

    #[test]
    fn results_sorted_ascending() {
        let data = synth::sift_like(200, 8, 2);
        let q = synth::sift_like(5, 8, 3);
        let res = brute_force(&data, &q, 10, Distance::L2);
        for r in &res {
            assert_eq!(r.len(), 10);
            for w in r.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn perfect_recall_is_one() {
        let data = synth::sift_like(100, 8, 4);
        let q = synth::sift_like(10, 8, 5);
        let gt = brute_force(&data, &q, 5, Distance::L2);
        let r = recall_at_k(&gt, &gt, 5);
        assert_eq!(r.mean, 1.0);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.n_queries, 10);
    }

    #[test]
    fn recall_counts_partial_overlap() {
        let truth = vec![vec![
            Neighbor::new(0, 0.0),
            Neighbor::new(1, 1.0),
            Neighbor::new(2, 2.0),
            Neighbor::new(3, 3.0),
        ]];
        let approx = vec![vec![
            Neighbor::new(0, 0.0),
            Neighbor::new(9, 0.5),
            Neighbor::new(2, 2.0),
            Neighbor::new(8, 9.0),
        ]];
        let r = recall_at_k(&approx, &truth, 4);
        assert!((r.mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recall_respects_k_truncation() {
        let truth = vec![vec![Neighbor::new(0, 0.0), Neighbor::new(1, 1.0)]];
        let approx = vec![vec![Neighbor::new(1, 1.0), Neighbor::new(0, 0.0)]];
        // k=1: approx top-1 is id 1, truth top-1 is id 0 -> recall 0
        let r = recall_at_k(&approx, &truth, 1);
        assert_eq!(r.mean, 0.0);
        // k=2: both present -> recall 1
        let r = recall_at_k(&approx, &truth, 2);
        assert_eq!(r.mean, 1.0);
    }

    #[test]
    fn recall_against_id_lists() {
        let approx = vec![vec![Neighbor::new(3, 0.1), Neighbor::new(5, 0.2)]];
        let truth = vec![vec![3u32, 7]];
        let r = recall_against_ids(&approx, &truth, 2);
        assert!((r.mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn brute_force_one_matches_batch() {
        let data = synth::deep_like(50, 12, 6);
        let q = synth::deep_like(3, 12, 7);
        let batch = brute_force(&data, &q, 4, Distance::L2);
        for (i, expected) in batch.iter().enumerate() {
            let one = brute_force_one(&data, q.get(i), 4, Distance::L2);
            assert_eq!(&one, expected);
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_whole_dataset() {
        let data = synth::sift_like(5, 8, 8);
        let q = synth::sift_like(2, 8, 9);
        let res = brute_force(&data, &q, 50, Distance::L2);
        for r in &res {
            assert_eq!(r.len(), 5, "k > n clamps to the dataset size");
            for w in r.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
            let mut ids: Vec<u32> = r.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "every point appears exactly once");
        }
        // recall of a k>n result against itself is still perfect
        let rec = recall_at_k(&res, &res, 50);
        assert_eq!(rec.mean, 1.0);
    }

    #[test]
    #[should_panic]
    fn brute_force_rejects_k_zero() {
        let data = synth::sift_like(10, 4, 10);
        let _ = brute_force(&data, &data, 0, Distance::L2);
    }

    #[test]
    fn recall_at_k_zero_is_zero_without_panicking() {
        let lists = vec![vec![Neighbor::new(0, 0.0)]];
        let r = recall_at_k(&lists, &lists, 0);
        assert_eq!(r.mean, 0.0, "k = 0 truncates both lists to nothing");
        assert_eq!(r.n_queries, 1);
        let r = recall_against_ids(&lists, &[vec![0u32]], 0);
        assert_eq!(r.mean, 0.0);
    }

    #[test]
    fn recall_with_empty_truth_list_is_zero() {
        // an empty per-query truth list (e.g. an empty partition's ground
        // truth) must not divide by zero
        let approx = vec![vec![Neighbor::new(1, 0.5)]];
        let truth: Vec<Vec<Neighbor>> = vec![vec![]];
        let r = recall_at_k(&approx, &truth, 3);
        assert_eq!(r.mean, 0.0);
        let r = recall_against_ids(&approx, &[vec![]], 3);
        assert_eq!(r.mean, 0.0);
    }

    #[test]
    fn duplicate_distances_match_by_id_not_distance() {
        // two points equidistant from the query: recall is defined over ids
        // (Section V-D), so returning the *other* tied point is a miss
        let truth = vec![vec![Neighbor::new(0, 1.0), Neighbor::new(1, 1.0)]];
        let wrong_tie = vec![vec![Neighbor::new(2, 1.0), Neighbor::new(0, 1.0)]];
        let r = recall_at_k(&wrong_tie, &truth, 2);
        assert!((r.mean - 0.5).abs() < 1e-12, "one of two tied ids matched");
        let r1 = recall_at_k(&wrong_tie, &truth, 1);
        assert_eq!(r1.mean, 0.0, "top-1 tie resolved to a different id");
    }

    #[test]
    fn brute_force_is_deterministic_under_duplicate_points() {
        // duplicated rows ⇒ duplicate distances; the id tie-break must make
        // the exact result reproducible
        let base = synth::sift_like(20, 6, 11);
        let mut data = crate::vector::VectorSet::new(6);
        for i in 0..20 {
            data.push(base.get(i));
            data.push(base.get(i)); // exact duplicate, different id
        }
        let q = synth::sift_like(4, 6, 12);
        let a = brute_force(&data, &q, 8, Distance::L2);
        let b = brute_force(&data, &q, 8, Distance::L2);
        assert_eq!(a, b);
        for r in &a {
            for w in r.windows(2) {
                assert!(
                    w[0].dist < w[1].dist || (w[0].dist == w[1].dist && w[0].id < w[1].id),
                    "ties must be ordered by id"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_batches_panic() {
        let a = vec![vec![Neighbor::new(0, 0.0)]];
        let t = vec![vec![Neighbor::new(0, 0.0)], vec![Neighbor::new(1, 0.0)]];
        let _ = recall_at_k(&a, &t, 1);
    }
}
