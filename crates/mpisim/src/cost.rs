//! Compute cost model: pricing distance evaluations in virtual nanoseconds.

/// Prices the dominant compute operation of the workload — one distance
/// evaluation between `dim`-dimensional vectors — in virtual nanoseconds.
///
/// The default is an analytic model (deterministic across hosts and runs):
/// roughly four lanes of fused multiply-subtract per cycle at 2.5 GHz, the
/// clock of the paper's Haswell cores, plus a fixed call overhead.
/// [`CostModel::calibrate`] measures the real kernel on the current host
/// instead, for users who want virtual times grounded in their machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed per-evaluation overhead (call, loop setup), ns.
    pub base_ns: f64,
    /// Per-dimension cost, ns.
    pub per_dim_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // ~0.1 ns/dim ≈ 4 f32 lanes/cycle @ 2.5 GHz with load pressure.
        Self {
            base_ns: 8.0,
            per_dim_ns: 0.1,
        }
    }
}

impl CostModel {
    /// Virtual cost of a single distance evaluation.
    #[inline]
    pub fn dist_ns(&self, dim: usize) -> f64 {
        self.base_ns + self.per_dim_ns * dim as f64
    }

    /// Virtual cost of `n` evaluations.
    #[inline]
    pub fn dists_ns(&self, n: u64, dim: usize) -> f64 {
        self.dist_ns(dim) * n as f64
    }

    /// Times [`fastann_data::kernels::squared_l2`], the kernel every exact
    /// probe runs, on this host and returns a model fitted to it.
    /// Non-deterministic across hosts by design; tests and the default
    /// experiment harness use [`CostModel::default`].
    pub fn calibrate(dim: usize) -> Self {
        use fastann_data::kernels::squared_l2;
        use std::hint::black_box;
        use std::time::Instant;
        let n = 4096usize;
        let a: Vec<f32> = (0..dim).map(|i| i as f32 * 0.37).collect();
        let b: Vec<f32> = (0..dim).map(|i| i as f32 * 0.11 + 1.0).collect();
        let start = Instant::now();
        let mut acc = 0f32;
        for _ in 0..n {
            acc += squared_l2(black_box(&a), black_box(&b));
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        black_box(acc);
        let per_eval = elapsed / n as f64;
        // Split measured cost into a small base and a per-dim slope.
        let base = 8.0f64.min(per_eval * 0.2);
        Self {
            base_ns: base,
            per_dim_ns: ((per_eval - base) / dim as f64).max(0.01),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_dim() {
        let m = CostModel::default();
        assert!(m.dist_ns(128) > m.dist_ns(16));
        assert_eq!(m.dists_ns(10, 128), 10.0 * m.dist_ns(128));
        assert_eq!(m.dists_ns(0, 128), 0.0);
    }

    #[test]
    fn default_in_plausible_range() {
        let m = CostModel::default();
        let c = m.dist_ns(128);
        assert!(
            c > 5.0 && c < 1000.0,
            "128-dim eval cost {c} ns implausible"
        );
    }

    #[test]
    fn calibrate_returns_positive_model() {
        let m = CostModel::calibrate(64);
        assert!(m.base_ns >= 0.0);
        assert!(m.per_dim_ns > 0.0);
    }
}
