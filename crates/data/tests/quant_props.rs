//! Property tests for the SQ8 quantizer (satellite of the quantized-first
//! traversal PR): round-trip error bounds, the analytic error bound of the
//! asymmetric distance, and degenerate-input robustness. Everything runs
//! on the vendored deterministic proptest, so failures reproduce exactly.

use fastann_data::kernels;
use fastann_data::quant::{Sq8, Sq8Query};
use fastann_data::VectorSet;
use proptest::prelude::*;

/// Builds a `VectorSet` of dimension `dim` from a flat value pool,
/// truncated to whole rows; pads to one row if the pool is too short so
/// `Sq8::encode`'s non-empty precondition always holds.
fn set_from_pool(dim: usize, pool: &[f32]) -> VectorSet {
    let mut data = VectorSet::new(dim);
    let rows = pool.len() / dim;
    if rows == 0 {
        let mut row = vec![0.0f32; dim];
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = pool.get(i).copied().unwrap_or(0.0);
        }
        data.push(&row);
        return data;
    }
    for r in 0..rows {
        data.push(&pool[r * dim..(r + 1) * dim]);
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step(
        dim in 1usize..9,
        pool in proptest::collection::vec(-100.0f32..100.0, 1..257),
    ) {
        let data = set_from_pool(dim, &pool);
        let sq = Sq8::encode(&data);
        for i in 0..data.len() {
            let orig = data.get(i);
            let dec = sq.decode(i);
            for d in 0..dim {
                // scale/2 per dimension, with rounding slack: the grid
                // cell containing x is at most step/2 away from it
                prop_assert!(
                    (orig[d] - dec[d]).abs() <= sq.step()[d] * 0.51,
                    "row {} dim {}: {} decoded to {} (step {})",
                    i, d, orig[d], dec[d], sq.step()[d]
                );
            }
        }
    }

    #[test]
    fn asym_distance_within_analytic_bound_of_exact(
        dim in 1usize..9,
        pool in proptest::collection::vec(-50.0f32..50.0, 8..257),
        qpool in proptest::collection::vec(-75.0f32..75.0, 8..16),
    ) {
        let data = set_from_pool(dim, &pool);
        let sq = Sq8::encode(&data);
        let q: Vec<f32> = (0..dim).map(|d| qpool[d % qpool.len()]).collect();
        let mut prep = Sq8Query::default();
        sq.prepare_query(&q, &mut prep);
        // worst-case decode displacement: ||x - decode(x)|| <= E with
        // E^2 = sum_d (step_d/2)^2 (each dim off by at most half a step)
        let e: f32 = sq
            .step()
            .iter()
            .map(|s| (s * 0.51) * (s * 0.51))
            .sum::<f32>()
            .sqrt();
        for i in 0..data.len() {
            let exact = kernels::squared_l2(&q, data.get(i));
            let asym = sq.asym_l2(&prep, i);
            // |dist(q,x) - dist(q,x̂)| <= E  =>  asym ∈ [(r-E)^2, (r+E)^2]
            let r = exact.sqrt();
            let hi = (r + e) * (r + e);
            let lo = (r - e).max(0.0).powi(2);
            let slack = 1e-3 * (1.0 + hi);
            prop_assert!(
                asym >= lo - slack && asym <= hi + slack,
                "row {}: asym {} outside [{}, {}] (exact {}, E {})",
                i, asym, lo, hi, exact, e
            );
        }
    }

    #[test]
    fn degenerate_inputs_stay_finite(
        dim in 1usize..7,
        value in -1000.0f32..1000.0,
        rows in 1usize..5,
    ) {
        // constant data: zero range in every dimension pins the step at
        // f32::MIN_POSITIVE -- nothing may panic or go non-finite
        let mut data = VectorSet::new(dim);
        let row = vec![value; dim];
        for _ in 0..rows {
            data.push(&row);
        }
        let sq = Sq8::encode(&data);
        prop_assert_eq!(sq.len(), rows);
        let dec = sq.decode(rows - 1);
        for (d, &x) in dec.iter().enumerate() {
            prop_assert!(x.is_finite());
            prop_assert!((x - value).abs() <= sq.step()[d] * 0.51 + value.abs() * 1e-6);
        }
        // on-grid query and an off-grid query both stay finite
        let mut prep = Sq8Query::default();
        sq.prepare_query(&row, &mut prep);
        let d0 = sq.asym_l2(&prep, 0);
        prop_assert!(d0.is_finite() && d0 >= 0.0);
        let off: Vec<f32> = row.iter().map(|v| v + 1.0).collect();
        sq.prepare_query(&off, &mut prep);
        prop_assert!(sq.asym_l2(&prep, 0).is_finite());
    }

    #[test]
    fn single_point_sets_encode_and_search(
        dim in 1usize..9,
        pool in proptest::collection::vec(-100.0f32..100.0, 1..9),
    ) {
        let mut data = VectorSet::new(dim);
        let row: Vec<f32> = (0..dim).map(|d| pool[d % pool.len()]).collect();
        data.push(&row);
        let sq = Sq8::encode(&data);
        let mut prep = Sq8Query::default();
        sq.prepare_query(&row, &mut prep);
        let d = sq.asym_l2(&prep, 0);
        prop_assert!(d.is_finite() && d >= 0.0);
        // the only point is its own nearest neighbour at ~zero distance
        let e: f32 = sq.step().iter().map(|s| s * s).sum::<f32>();
        prop_assert!(d <= e + 1e-3, "self-distance {} exceeds grid error {}", d, e);
    }

    #[test]
    fn encode_query_matches_stored_codes_on_training_rows(
        dim in 1usize..9,
        pool in proptest::collection::vec(-100.0f32..100.0, 8..129),
    ) {
        let data = set_from_pool(dim, &pool);
        let sq = Sq8::encode(&data);
        // the lossy cache key is the same grid the codes used: encoding a
        // training row must reproduce that row's stored codes
        for i in 0..data.len() {
            let key = sq.encode_query(data.get(i));
            prop_assert_eq!(&key[..], &sq.codes()[i * dim..(i + 1) * dim]);
        }
    }
}
