//! Synthetic dataset generators.
//!
//! Two families, mirroring the paper's Table I:
//!
//! * [`mdcgen`](crate::synth::mdcgen) — a from-scratch re-implementation of the MDCGen-style
//!   multidimensional cluster generator (Iglesias et al., J. Classification
//!   2019) that the paper used for SYN_1M and SYN_10M: `k` clusters with
//!   Gaussian or uniform intra-cluster distributions, outlier injection, and
//!   query sets drawn from a single cluster with a compactness factor.
//! * [`descriptors`](crate::synth::descriptors) — image-descriptor-shaped generators standing in for
//!   the real corpora: [`sift_like`](crate::synth::sift_like) (ANN_SIFT1B),
//!   [`deep_like`](crate::synth::deep_like) (DEEP1B)
//!   and [`gist_like`](crate::synth::gist_like) (ANN_GIST1M). The real files are billion-scale
//!   downloads; these preserve dimensionality, value range and cluster
//!   structure, which is what the partitioning and search behaviour depend
//!   on.
//!
//! All generators are deterministic given a seed.

/// Image-descriptor-shaped generators (SIFT / DEEP / GIST stand-ins).
pub mod descriptors;
/// MDCGen-style multidimensional cluster generator.
pub mod mdcgen;

pub use descriptors::{deep_like, gist_like, queries_near, sift_like};
pub use mdcgen::{MdcConfig, MdcDataset, Spread};

use rand::rngs::SmallRng;
use rand::Rng;

/// Draws one standard normal sample using the Box–Muller transform.
///
/// We deliberately avoid a `rand_distr` dependency: two lines of Box–Muller
/// keep the dependency set to the approved list.
#[inline]
pub(crate) fn normal(rng: &mut SmallRng) -> f32 {
    // Avoid ln(0); u1 in (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fills `out` with i.i.d. normal samples with the given mean and standard
/// deviation.
pub(crate) fn fill_normal(rng: &mut SmallRng, out: &mut [f32], mean: f32, std: f32) {
    for x in out.iter_mut() {
        *x = mean + std * normal(rng);
    }
}

/// Fills `out` with i.i.d. uniform samples in `[lo, hi)`.
pub(crate) fn fill_uniform(rng: &mut SmallRng, out: &mut [f32], lo: f32, hi: f32) {
    for x in out.iter_mut() {
        *x = rng.gen_range(lo..hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn normal_has_roughly_zero_mean_unit_var() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut buf = [0f32; 1000];
        fill_uniform(&mut rng, &mut buf, -2.0, 3.0);
        assert!(buf.iter().all(|&x| (-2.0..3.0).contains(&x)));
        // spread actually covers the range
        let min = buf.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = buf.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(min < -1.0 && max > 2.0);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = sift_like(100, 16, 5);
        let b = sift_like(100, 16, 5);
        assert_eq!(a, b);
        let c = sift_like(100, 16, 6);
        assert_ne!(a, c);
    }
}
