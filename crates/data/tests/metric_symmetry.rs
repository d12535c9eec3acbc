//! Every metric is symmetric bit for bit: `eval(a, b)` and `eval(b, a)`
//! return the same `f32`, not merely close ones. HNSW construction
//! relies on it: a link's distance to its owner, measured once from the
//! inserted point's side by the beam search, is reused from the owner's
//! side when the owner's list overflows.
//!
//! The dimensions cover every tail length of the `LANES`-wide chunk loop
//! (1 to 2·`LANES` + 1) and the 256-d and 257-d rows of the clustered
//! workloads. Inputs are arbitrary floats, so the sums round: equality
//! holds because each elementwise term is itself symmetric (`x - y` is
//! `-(y - x)` exactly, and `*` commutes) and both orders fold the terms
//! in the same lane order. The zero vector covers cosine's no-direction
//! branch.

use fastann_data::kernels::LANES;
use fastann_data::Distance;
use proptest::prelude::*;

const METRICS: [Distance; 6] = [
    Distance::L2,
    Distance::SquaredL2,
    Distance::L1,
    Distance::Chebyshev,
    Distance::Cosine,
    Distance::NegativeDot,
];

/// Widest dimension checked.
const MAX_DIM: usize = 257;

fn dims() -> impl Iterator<Item = usize> {
    (1..=2 * LANES + 1).chain([256, MAX_DIM])
}

fn assert_symmetric(a: &[f32], b: &[f32]) {
    for m in METRICS {
        let ab = m.eval(a, b);
        let ba = m.eval(b, a);
        assert_eq!(
            ab.to_bits(),
            ba.to_bits(),
            "{} at dim {}: {ab} against {ba}",
            m.name(),
            a.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_metric_is_bit_symmetric(
        pool in proptest::collection::vec(-100.0f32..100.0, 2 * MAX_DIM..2 * MAX_DIM + 1),
        scale in -20i32..20,
    ) {
        let s = 2f32.powi(scale);
        let pool: Vec<f32> = pool.iter().map(|x| x * s).collect();
        let (left, right) = pool.split_at(MAX_DIM);
        let zero = [0.0f32; MAX_DIM];
        for d in dims() {
            let (a, b) = (&left[..d], &right[..d]);
            assert_symmetric(a, b);
            assert_symmetric(a, &zero[..d]);
            assert_symmetric(&zero[..d], &zero[..d]);
        }
    }
}

#[test]
fn cosine_against_the_zero_vector_is_symmetric() {
    let a: Vec<f32> = (0..MAX_DIM).map(|i| i as f32 - 100.0).collect();
    let zero = [0.0f32; MAX_DIM];
    for d in dims() {
        let (a, z) = (&a[..d], &zero[..d]);
        assert_eq!(Distance::Cosine.eval(a, z), 1.0);
        assert_eq!(Distance::Cosine.eval(z, a), 1.0);
        assert_eq!(Distance::Cosine.eval(z, z), 1.0);
    }
}
