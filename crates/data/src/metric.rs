//! Distance metrics over dense `f32` vectors.
//!
//! The paper operates in general metric spaces (the VP tree is
//! metric-agnostic) and evaluates with the L2 norm. [`Distance`] is a small
//! enum dispatched with `match` — cheap, `Copy`, and trivially sendable
//! across the simulated cluster, unlike a boxed trait object.
//!
//! The inner loops live in [`crate::kernels`] — chunked 8-lane loops that
//! compile to packed SIMD in release builds, shared with the SQ8
//! asymmetric path in [`crate::quant`]; this is the portable
//! equivalent of the SIMD-optimised bucket scans in PANDA. This module
//! re-exports the f32 kernels under their historical names so existing
//! callers keep compiling.

pub use crate::kernels::{chebyshev, dot, l1, squared_l2};

/// A distance (or dissimilarity) function between two equal-length vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Distance {
    /// Euclidean distance (the paper's evaluation metric).
    L2,
    /// Squared Euclidean distance. Not a metric (triangle inequality fails)
    /// but order-equivalent to [`Distance::L2`]; useful for pure ranking.
    SquaredL2,
    /// Manhattan distance.
    L1,
    /// Chebyshev / L-infinity distance.
    Chebyshev,
    /// Cosine *distance*, `1 - cos(a, b)`. A dissimilarity, not a metric;
    /// accepted by the graph indexes but rejected by the metric trees.
    Cosine,
    /// Negative inner product, `-<a, b>`. Dissimilarity for MIPS workloads.
    NegativeDot,
}

impl Distance {
    /// Evaluates the distance between `a` and `b`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths — in release builds
    /// too. A mismatch is always a caller bug (a query of the wrong
    /// dimensionality), and silently scoring the common prefix returns an
    /// ordering over *different geometry* per metric, which is far harder
    /// to debug than the panic.
    #[inline]
    pub fn eval(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "distance between different dimensions");
        match self {
            Distance::L2 => squared_l2(a, b).sqrt(),
            Distance::SquaredL2 => squared_l2(a, b),
            Distance::L1 => l1(a, b),
            Distance::Chebyshev => chebyshev(a, b),
            Distance::Cosine => cosine(a, b),
            Distance::NegativeDot => -dot(a, b),
        }
    }

    /// `true` when the function satisfies the metric axioms (identity,
    /// symmetry, triangle inequality) required by VP- and KD-tree pruning.
    pub fn is_metric(self) -> bool {
        matches!(self, Distance::L2 | Distance::L1 | Distance::Chebyshev)
    }

    /// One-byte code the index file formats store for this metric: its
    /// position in the declaration order above, so that order is frozen.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The metric stored as `code`, or `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<Distance> {
        use Distance::*;
        [L2, SquaredL2, L1, Chebyshev, Cosine, NegativeDot]
            .get(usize::from(code))
            .copied()
    }

    /// Human-readable name, used in reports and benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Distance::L2 => "L2",
            Distance::SquaredL2 => "squared-L2",
            Distance::L1 => "L1",
            Distance::Chebyshev => "Linf",
            Distance::Cosine => "cosine",
            Distance::NegativeDot => "neg-dot",
        }
    }
}

/// Cosine distance, `1 - a·b / (|a||b|)`.
///
/// A zero vector has no direction, so its angle to anything is undefined;
/// we pin the distance to `1.0` (maximal indifference — the value an
/// orthogonal pair gets) rather than the `0.0` an earlier version
/// returned, which made the zero vector a spurious nearest neighbour of
/// *every* query. Zero-vs-zero is also `1.0` by the same rule.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let ab = dot(a, b);
    let aa = dot(a, a);
    let bb = dot(b, b);
    if aa == 0.0 || bb == 0.0 {
        return 1.0;
    }
    1.0 - ab / (aa.sqrt() * bb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f32; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
    const B: [f32; 5] = [5.0, 4.0, 3.0, 2.0, 1.0];

    #[test]
    fn l2_matches_manual() {
        // diffs: -4,-2,0,2,4 -> squares 16+4+0+4+16 = 40
        assert!((Distance::SquaredL2.eval(&A, &B) - 40.0).abs() < 1e-6);
        assert!((Distance::L2.eval(&A, &B) - 40.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn codes_round_trip() {
        for c in 0..6u8 {
            assert_eq!(Distance::from_code(c).map(Distance::code), Some(c));
        }
        assert_eq!(Distance::from_code(6), None);
    }

    #[test]
    fn l1_and_chebyshev() {
        assert!((Distance::L1.eval(&A, &B) - 12.0).abs() < 1e-6);
        assert!((Distance::Chebyshev.eval(&A, &B) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn dot_and_cosine() {
        // a·b = 5+8+9+8+5 = 35
        assert!((dot(&A, &B) - 35.0).abs() < 1e-6);
        assert!((Distance::NegativeDot.eval(&A, &B) + 35.0).abs() < 1e-6);
        // cosine of identical vectors is 0 distance
        assert!(Distance::Cosine.eval(&A, &A).abs() < 1e-6);
        // orthogonal vectors -> distance 1
        let x = [1.0, 0.0];
        let y = [0.0, 1.0];
        assert!((Distance::Cosine.eval(&x, &y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_maximally_distant() {
        // a zero vector has no direction: it must not come out as the
        // nearest neighbour of everything (the 0.0 an earlier version
        // returned); it sits at the orthogonal-pair distance instead
        let z = [0.0, 0.0];
        assert_eq!(Distance::Cosine.eval(&z, &A[..2]), 1.0);
        assert_eq!(Distance::Cosine.eval(&A[..2], &z), 1.0);
        assert_eq!(Distance::Cosine.eval(&z, &z), 1.0);
        // and a parallel non-zero pair is still strictly closer
        let w = [2.0, 4.0];
        assert!(Distance::Cosine.eval(&A[..2], &w) < Distance::Cosine.eval(&A[..2], &z));
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn squared_l2_rejects_dimension_mismatch() {
        // regression: this used to silently score the 2-long prefix in
        // release builds; the assert must fire in *every* profile
        let _ = squared_l2(&A[..2], &A);
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn dot_rejects_dimension_mismatch() {
        let _ = dot(&A, &A[..3]);
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn eval_rejects_dimension_mismatch_in_release() {
        // Distance::eval promotes the old debug_assert to a real assert
        let _ = Distance::L2.eval(&A[..4], &A);
    }

    #[test]
    fn identity_of_indiscernibles() {
        for d in [
            Distance::L2,
            Distance::SquaredL2,
            Distance::L1,
            Distance::Chebyshev,
        ] {
            assert_eq!(d.eval(&A, &A), 0.0, "{}", d.name());
        }
    }

    #[test]
    fn symmetry() {
        for d in [
            Distance::L2,
            Distance::L1,
            Distance::Chebyshev,
            Distance::Cosine,
        ] {
            assert!((d.eval(&A, &B) - d.eval(&B, &A)).abs() < 1e-6);
        }
    }

    #[test]
    fn metric_flags() {
        assert!(Distance::L2.is_metric());
        assert!(Distance::L1.is_metric());
        assert!(Distance::Chebyshev.is_metric());
        assert!(!Distance::SquaredL2.is_metric());
        assert!(!Distance::Cosine.is_metric());
        assert!(!Distance::NegativeDot.is_metric());
    }

    #[test]
    fn chunked_kernels_handle_remainder_lengths() {
        // length 7 exercises the remainder loop
        let a: Vec<f32> = (0..7).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..7).map(|i| (i * 2) as f32).collect();
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((squared_l2(&a, &b) - expect).abs() < 1e-5);
        let expect_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - expect_dot).abs() < 1e-4);
    }

    #[test]
    fn names_are_distinct() {
        let all = [
            Distance::L2,
            Distance::SquaredL2,
            Distance::L1,
            Distance::Chebyshev,
            Distance::Cosine,
            Distance::NegativeDot,
        ];
        let mut names: Vec<_> = all.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
