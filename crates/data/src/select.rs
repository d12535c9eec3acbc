//! Order statistics: quickselect with median-of-medians pivoting.
//!
//! The distributed VP-tree construction (paper Algorithm 2, line 6) computes
//! the partition radius µ as the *median* of the distances from every point
//! to the vantage point, "using the median of medians algorithm". This module
//! provides the sequential building blocks:
//!
//! * [`select_nth`](crate::select::select_nth) — worst-case `O(n)` selection (quickselect with
//!   median-of-medians pivots),
//! * [`median`](crate::select::median) — lower median of a slice,
//! * [`weighted_median`](crate::select::weighted_median) — the primitive used to combine per-rank medians
//!   into a distributed median.

/// Returns the value of rank `n` (0-based) in `data`, i.e. the element that
/// would be at `data_sorted[n]`. Runs in worst-case linear time using
/// median-of-medians pivot selection. `data` is reordered in place.
///
/// # Panics
/// Panics if `data` is empty or `n >= data.len()`.
pub fn select_nth(data: &mut [f32], n: usize) -> f32 {
    assert!(!data.is_empty(), "select_nth on empty slice");
    assert!(
        n < data.len(),
        "rank {} out of bounds for length {}",
        n,
        data.len()
    );
    let mut lo = 0usize;
    let mut hi = data.len();
    let mut n = n;
    loop {
        if hi - lo == 1 {
            return data[lo];
        }
        let pivot = median_of_medians(&mut data[lo..hi]);
        let (lt, eq) = three_way_partition(&mut data[lo..hi], pivot);
        if n < lt {
            hi = lo + lt;
        } else if n < lt + eq {
            return pivot;
        } else {
            n -= lt + eq;
            lo += lt + eq;
        }
    }
}

/// Lower median of `data` (element of rank `(len-1)/2`). Reorders in place.
///
/// # Panics
/// Panics if `data` is empty.
pub fn median(data: &mut [f32]) -> f32 {
    let n = data.len();
    select_nth(data, (n - 1) / 2)
}

/// Median-of-medians pivot: groups of 5, median of each, recurse on the
/// medians. Guarantees the pivot is between the 30th and 70th percentile.
fn median_of_medians(data: &mut [f32]) -> f32 {
    let n = data.len();
    if n <= 5 {
        let mut buf: Vec<f32> = data.to_vec();
        buf.sort_unstable_by(f32::total_cmp);
        return buf[(n - 1) / 2];
    }
    let mut medians: Vec<f32> = data
        .chunks(5)
        .map(|c| {
            let mut g = [0f32; 5];
            let m = c.len();
            g[..m].copy_from_slice(c);
            let g = &mut g[..m];
            g.sort_unstable_by(f32::total_cmp);
            g[(m - 1) / 2]
        })
        .collect();
    let k = (medians.len() - 1) / 2;
    select_nth(&mut medians, k)
}

/// Dutch-flag partition around `pivot`; returns (count `< pivot`,
/// count `== pivot`).
fn three_way_partition(data: &mut [f32], pivot: f32) -> (usize, usize) {
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = data.len();
    while i < gt {
        match data[i].total_cmp(&pivot) {
            std::cmp::Ordering::Less => {
                data.swap(lt, i);
                lt += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                gt -= 1;
                data.swap(i, gt);
            }
            std::cmp::Ordering::Equal => i += 1,
        }
    }
    (lt, gt - lt)
}

/// Weighted median: the smallest value `v` in `pairs` such that the total
/// weight of values `<= v` is at least half the total weight.
///
/// This is how a distributed median is assembled from `(local_median,
/// local_count)` pairs reported by each rank — the approximation the paper's
/// construction relies on (each rank's subset is assumed representative).
///
/// # Panics
/// Panics if `pairs` is empty or total weight is zero.
pub fn weighted_median(pairs: &mut [(f32, u64)]) -> f32 {
    assert!(!pairs.is_empty(), "weighted_median on empty input");
    let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
    assert!(total > 0, "weighted_median with zero total weight");
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut acc = 0u64;
    for &(v, w) in pairs.iter() {
        acc += w;
        if acc * 2 >= total {
            return v;
        }
    }
    pairs.last().expect("non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_ref(mut v: Vec<f32>, n: usize) -> f32 {
        v.sort_unstable_by(f32::total_cmp);
        v[n]
    }

    #[test]
    fn select_matches_sort_small() {
        let base = vec![3.0f32, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for n in 0..base.len() {
            let mut d = base.clone();
            assert_eq!(
                select_nth(&mut d, n),
                sorted_ref(base.clone(), n),
                "rank {n}"
            );
        }
    }

    #[test]
    fn select_matches_sort_large_with_duplicates() {
        // deterministic pseudo-random with many duplicates
        let base: Vec<f32> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2654435761) % 97) as f32)
            .collect();
        for n in [0, 1, 499, 500, 998, 999] {
            let mut d = base.clone();
            assert_eq!(
                select_nth(&mut d, n),
                sorted_ref(base.clone(), n),
                "rank {n}"
            );
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        // lower median for even length
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn all_equal_input() {
        let mut d = vec![5.0f32; 64];
        assert_eq!(select_nth(&mut d, 0), 5.0);
        let mut d = vec![5.0f32; 64];
        assert_eq!(select_nth(&mut d, 63), 5.0);
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = select_nth(&mut [], 0);
    }

    #[test]
    #[should_panic]
    fn rank_out_of_bounds_panics() {
        let _ = select_nth(&mut [1.0, 2.0], 2);
    }

    #[test]
    fn weighted_median_basic() {
        // values 1 (w=1), 2 (w=1), 3 (w=2): half weight = 2 -> value 2
        let mut p = vec![(3.0, 2), (1.0, 1), (2.0, 1)];
        assert_eq!(weighted_median(&mut p), 2.0);
    }

    #[test]
    fn weighted_median_dominant_weight() {
        let mut p = vec![(10.0, 100), (1.0, 1), (2.0, 1)];
        assert_eq!(weighted_median(&mut p), 10.0);
    }

    #[test]
    fn weighted_median_single() {
        let mut p = vec![(42.0, 7)];
        assert_eq!(weighted_median(&mut p), 42.0);
    }

    #[test]
    fn weighted_median_equal_weights_matches_plain_median() {
        let vals = [5.0f32, 1.0, 9.0, 3.0, 7.0];
        let mut pairs: Vec<(f32, u64)> = vals.iter().map(|&v| (v, 1)).collect();
        let wm = weighted_median(&mut pairs);
        let mut v = vals.to_vec();
        assert_eq!(wm, median(&mut v));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn select_nth_agrees_with_sorting(v in proptest::collection::vec(-1e6f32..1e6, 1..200), idx in 0usize..200) {
            let n = idx % v.len();
            let mut sorted = v.clone();
            sorted.sort_unstable_by(f32::total_cmp);
            let mut work = v.clone();
            prop_assert_eq!(select_nth(&mut work, n), sorted[n]);
        }

        #[test]
        fn median_splits_half_half(v in proptest::collection::vec(-1e6f32..1e6, 1..200)) {
            let mut work = v.clone();
            let m = median(&mut work);
            let le = v.iter().filter(|&&x| x <= m).count();
            let ge = v.iter().filter(|&&x| x >= m).count();
            // at least half the elements on each side (with ties)
            prop_assert!(le * 2 >= v.len());
            prop_assert!(ge * 2 >= v.len().saturating_sub(1));
        }

        #[test]
        fn weighted_median_is_a_present_value(
            pairs in proptest::collection::vec((-1e6f32..1e6, 1u64..50), 1..50)
        ) {
            let mut work = pairs.clone();
            let m = weighted_median(&mut work);
            prop_assert!(pairs.iter().any(|&(v, _)| v == m));
            // weight on each side bounded by half
            let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
            let le: u64 = pairs.iter().filter(|&&(v, _)| v <= m).map(|&(_, w)| w).sum();
            prop_assert!(le * 2 >= total);
        }
    }
}
