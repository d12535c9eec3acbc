//! The benchmark's own statistics: medians and quartiles of repeated
//! samples, the tail-percentile rule for latency, the rate-ladder search
//! and recall against brute force.

use std::collections::HashSet;

use fastann_data::Neighbor;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile with the same interpolation as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads this program reports match the ones computed over its output.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn rel_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of `candidates` that still has at least
/// `min_beyond` samples above it among `n` samples, so a reported tail is
/// never a single outlier. `None` when even the lowest candidate is too
/// thin.
pub fn tail_percentile(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|p| (n as f64) * (1.0 - p / 100.0) >= min_beyond as f64 - 1e-9)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Highest rung of an ascending rate `ladder` that passes `ok`, assuming a
/// rung passes whenever a faster one does (latency and loss only grow with
/// the offered rate). Bisects, so a ladder of `L` rungs costs about
/// `log2 L` evaluations. Returns the passing rung index (if any) and every
/// `(rung, passed)` evaluation in the order made.
pub fn ladder_search(
    ladder: &[f64],
    mut ok: impl FnMut(f64) -> bool,
) -> (Option<usize>, Vec<(usize, bool)>) {
    let mut evals = Vec::new();
    // invariant: every rung below `lo` passes, every rung at or above `hi` fails
    let (mut lo, mut hi) = (0usize, ladder.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let pass = ok(ladder[mid]);
        evals.push((mid, pass));
        if pass {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo.checked_sub(1), evals)
}

/// A geometric rate ladder: `rungs` rates from `lo`, each `ratio` times
/// the last.
pub fn geometric_ladder(lo: f64, ratio: f64, rungs: usize) -> Vec<f64> {
    (0..rungs).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// Mean recall@k of `got` against `truth`, comparing ids after mapping each
/// answer id through `map` (answers that map to `None` count as misses).
pub fn recall_mapped(
    got: &[Vec<Neighbor>],
    truth: &[Vec<Neighbor>],
    k: usize,
    map: impl Fn(u32) -> Option<u32>,
) -> f64 {
    assert_eq!(got.len(), truth.len(), "one truth row per answer row");
    if got.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (g, t) in got.iter().zip(truth) {
        let want: HashSet<u32> = t.iter().take(k).map(|n| n.id).collect();
        let hits = g
            .iter()
            .take(k)
            .filter_map(|n| map(n.id))
            .filter(|id| want.contains(id))
            .count();
        total += hits as f64 / want.len().max(1) as f64;
    }
    total / got.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // two samples: [1.0 - 0.25, ...] clamps to the data's ends
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn rel_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ps = [50.0, 90.0, 99.0, 99.9];
        // 1000 samples: exactly 10 lie beyond p99
        assert_eq!(tail_percentile(1000, &ps, 10), Some(99.0));
        // 999 samples: p99 has only 9.99 beyond it, fall back to p90
        assert_eq!(tail_percentile(999, &ps, 10), Some(90.0));
        assert_eq!(tail_percentile(10_000, &ps, 10), Some(99.9));
        assert_eq!(tail_percentile(15, &ps, 10), None);
        assert_eq!(tail_percentile(20, &ps, 10), Some(50.0));
    }

    #[test]
    fn ladder_search_finds_the_last_passing_rung() {
        let ladder = geometric_ladder(1.0, 2.0, 10); // 1, 2, 4, ..., 512
        for limit in [0.5, 1.0, 3.0, 64.0, 512.0, 1e9] {
            let (best, evals) = ladder_search(&ladder, |r| r <= limit);
            let want = ladder.iter().rposition(|&r| r <= limit);
            assert_eq!(best, want, "limit {limit}");
            assert!(evals.len() <= 4, "bisection over 10 rungs: {evals:?}");
            // every evaluation agrees with the predicate
            assert!(evals.iter().all(|&(i, p)| p == (ladder[i] <= limit)));
        }
        assert_eq!(ladder_search(&[], |_| true).0, None);
    }

    #[test]
    fn recall_maps_ids() {
        let n = |id| Neighbor::new(id, 0.0);
        let truth = vec![vec![n(1), n(2)], vec![n(3), n(4)]];
        let got = vec![vec![n(11), n(12)], vec![n(13), n(99)]];
        let r = recall_mapped(&got, &truth, 2, |id| (id != 99).then_some(id - 10));
        assert!((r - 0.75).abs() < 1e-12);
    }
}
