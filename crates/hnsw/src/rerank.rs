//! Full-precision re-ranking stage of the quantized-first search pipeline.
//!
//! Quantized traversal ranks candidates with the SQ8 asymmetric distance,
//! whose per-candidate error is bounded by the grid resolution but not
//! zero: the final ordering of a survivor pool must therefore be settled
//! at full precision. This module is the *only* place in the crate where
//! search-time exact distances are computed — the `quantized-traversal`
//! lint in `fastann-check` machine-enforces that `descend` /
//! `search_layer` never touch `squared_l2` or `Distance::eval`, and this
//! file carries the allowlist entry for the exact stage.

use fastann_data::kernels;
use fastann_data::{Distance, Neighbor, VectorSet};

/// Re-ranks `candidates` with the exact metric and returns the best `k`,
/// sorted ascending. Every exact evaluation is charged to `ndist` (the
/// same virtual-clock quantity the traversal charges), so quantized and
/// exact searches stay comparable in the engine's cost model.
///
/// The scores are written to `scores`, a buffer the caller keeps from one
/// search to the next, and sorted there; only the answer is allocated.
/// Candidates come from one beam, so their ids are distinct and the sort
/// keeps exactly the `k` a [`fastann_data::TopK`] would.
///
/// For [`Distance::L2`] the comparison runs in the squared domain and the
/// square root is applied only to the `k` survivors — monotonicity makes
/// the ordering identical, and it keeps the exact stage at one kernel
/// pass per candidate. Other metrics fall through to [`Distance::eval`]
/// (the exact-metric fallback).
pub(crate) fn rerank_exact(
    dist: Distance,
    data: &VectorSet,
    q: &[f32],
    candidates: &[Neighbor],
    k: usize,
    scores: &mut Vec<Neighbor>,
    ndist: &mut u64,
) -> Vec<Neighbor> {
    let squared = matches!(dist, Distance::L2 | Distance::SquaredL2);
    scores.clear();
    scores.extend(candidates.iter().map(|c| {
        *ndist += 1;
        let v = data.get(c.id as usize);
        let d = if squared {
            kernels::squared_l2(q, v)
        } else {
            dist.eval(q, v)
        };
        Neighbor::new(c.id, d)
    }));
    scores.sort_unstable();
    let best = &scores[..k.min(scores.len())];
    if dist == Distance::L2 {
        best.iter()
            .map(|n| Neighbor::new(n.id, n.dist.sqrt()))
            .collect()
    } else {
        best.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_data::synth;

    /// Re-ranks on a fresh score buffer; returns the answer and `ndist`.
    fn rerank(
        dist: Distance,
        data: &VectorSet,
        q: &[f32],
        cands: &[Neighbor],
        k: usize,
    ) -> (Vec<Neighbor>, u64) {
        let mut ndist = 0;
        let out = rerank_exact(dist, data, q, cands, k, &mut Vec::new(), &mut ndist);
        (out, ndist)
    }

    #[test]
    fn reranked_order_matches_exact_distances() {
        let data = synth::deep_like(100, 16, 3);
        let q = data.get(0).to_vec();
        // a shuffled candidate pool with deliberately wrong (quantized-ish)
        // distances: rerank must ignore them and re-score exactly
        let cands: Vec<Neighbor> = (0..40u32)
            .map(|i| Neighbor::new(i, (40 - i) as f32))
            .collect();
        let (out, ndist) = rerank(Distance::L2, &data, &q, &cands, 5);
        assert_eq!(ndist, 40);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].id, 0, "self should re-rank to the front");
        for w in out.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // distances are the exact metric, not the pool's fake scores
        let want = Distance::L2.eval(&q, data.get(out[1].id as usize));
        assert_eq!(out[1].dist.to_bits(), want.to_bits());
    }

    #[test]
    fn pool_smaller_than_requested_is_fine() {
        let data = synth::sift_like(10, 8, 4);
        let q = data.get(1).to_vec();
        let cands = [Neighbor::new(1, 0.5), Neighbor::new(2, 0.7)];
        let (out, ndist) = rerank(Distance::SquaredL2, &data, &q, &cands, 5);
        assert_eq!(out.len(), 2);
        assert_eq!(ndist, 2);
        assert_eq!(out[0].id, 1);
        assert_eq!(out[0].dist, 0.0);
    }

    #[test]
    fn non_l2_metrics_use_the_exact_fallback() {
        let data = synth::sift_like(20, 8, 5);
        let q = data.get(0).to_vec();
        let cands: Vec<Neighbor> = (0..20u32).map(|i| Neighbor::new(i, 0.0)).collect();
        let (out, ndist) = rerank(Distance::L1, &data, &q, &cands, 3);
        assert_eq!(ndist, 20);
        let want = Distance::L1.eval(&q, data.get(out[2].id as usize));
        assert_eq!(out[2].dist.to_bits(), want.to_bits());
    }
}
