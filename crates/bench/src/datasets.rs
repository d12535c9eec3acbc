//! Scaled stand-ins for the paper's Table I datasets.
//!
//! | Paper          | points | dim | queries | here (quick)    |
//! |----------------|--------|-----|---------|-----------------|
//! | ANN_SIFT1B     | 1e9    | 128 | 10 000  | 48 000 × 128, 400 |
//! | DEEP1B         | 1e9    | 96  | 10 000  | 48 000 × 96, 400  |
//! | ANN_GIST1M     | 1e6    | 960 | 1 000   | 8 000 × 960, 100  |
//! | SYN_1M         | 1e6    | 512 | 10 000  | 32 000 × 512, 300 |
//! | SYN_10M        | 1e7    | 256 | 10 000  | 64 000 × 256, 300 |
//!
//! The substitution rationale lives in DESIGN.md: dimensionality, value
//! range and cluster structure are preserved; raw point counts are not
//! (the host has 15 GB, the paper's machine had 176 TB aggregate).

use fastann_data::synth::{self, mdcgen};
use fastann_data::VectorSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Scale;

/// A benchmark workload: base vectors plus a query set.
pub struct Workload {
    /// Dataset name (paper nomenclature).
    pub name: &'static str,
    /// Base vectors.
    pub data: VectorSet,
    /// Query vectors.
    pub queries: VectorSet,
    /// Floor the exact-path recall@10 must clear under `perf --gate`;
    /// `0.0` disables the check. Set on the clustered workloads, where a
    /// descent regression (the pre-multi-entry collapse to ≈0.44) would
    /// otherwise pass the recall-*delta* gate unnoticed — both paths can
    /// degrade together.
    pub min_exact_recall: f64,
}

/// ANN_SIFT1B stand-in.
pub fn sift(scale: Scale) -> Workload {
    let n = 48_000 * scale.points_mult();
    let data = synth::sift_like(n, 128, 0x51f7);
    let queries = synth::queries_near(&data, 400, 0.02, 0x51f8);
    Workload {
        name: "ANN_SIFT1B",
        data,
        queries,
        min_exact_recall: 0.0,
    }
}

/// DEEP1B stand-in.
pub fn deep(scale: Scale) -> Workload {
    let n = 48_000 * scale.points_mult();
    let data = synth::deep_like(n, 96, 0xdee9);
    let queries = synth::queries_near(&data, 400, 0.02, 0xdeea);
    Workload {
        name: "DEEP1B",
        data,
        queries,
        min_exact_recall: 0.0,
    }
}

/// ANN_GIST1M stand-in.
pub fn gist(scale: Scale) -> Workload {
    let n = 8_000 * scale.points_mult();
    let data = synth::gist_like(n, 960, 0x915a);
    let queries = synth::queries_near(&data, 100, 0.01, 0x915b);
    Workload {
        name: "ANN_GIST1M",
        data,
        queries,
        min_exact_recall: 0.0,
    }
}

/// SYN_1M stand-in (MDCGen, 10 clusters, mixed spreads, 0.5% outliers,
/// queries from a single cluster with compactness 0.01 — the paper's
/// workload generation).
pub fn syn_1m(scale: Scale) -> Workload {
    let n = 32_000 * scale.points_mult();
    let ds = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: n,
        dim: 512,
        n_clusters: 10,
        n_outliers: n / 200,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: 0x517,
    });
    let queries = ds.queries_from_cluster(300, 3, 0.01, 0x518);
    Workload {
        name: "SYN_1M",
        data: ds.points,
        queries,
        // the committed full-scale record reads 0.625: the floor catches
        // a collapse, not a point of drift
        min_exact_recall: 0.60,
    }
}

/// SYN_10M stand-in.
pub fn syn_10m(scale: Scale) -> Workload {
    let n = 64_000 * scale.points_mult();
    let ds = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: n,
        dim: 256,
        n_clusters: 10,
        n_outliers: n / 200,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: 0x10a7,
    });
    let queries = ds.queries_from_cluster(300, 6, 0.01, 0x10a8);
    Workload {
        name: "SYN_10M",
        data: ds.points,
        queries,
        min_exact_recall: 0.0,
    }
}

/// The clustered-recall regression workload: the exact 32k×512 MDCGen
/// configuration on which single-seed greedy descent collapsed exact
/// recall@10 to ≈0.44 (crates/hnsw clustered_probe, DESIGN.md §13). Fixed
/// size — the point is reproducing that configuration, not scaling —
/// with an exact-recall floor the `perf --gate` leg enforces.
pub fn mdc_32k(_scale: Scale) -> Workload {
    let n = 32_000;
    let ds = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: n,
        dim: 512,
        n_clusters: 10,
        n_outliers: n / 200,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: 0x517,
    });
    let queries = ds.queries_from_cluster(100, 3, 0.01, 0x518);
    Workload {
        name: "MDC_32K",
        data: ds.points,
        queries,
        min_exact_recall: 0.90,
    }
}

/// The tiny uniform dataset the CI smoke invocation measures.
pub fn smoke(_scale: Scale) -> Workload {
    let data = synth::sift_like(3000, 32, 0xbe9c);
    let queries = synth::queries_near(&data, 60, 0.02, 0xbe9d);
    Workload {
        name: "SYN_SMOKE",
        data,
        queries,
        min_exact_recall: 0.0,
    }
}

/// A *skewed* SIFT-like query set for the load-balancing study (Figure 4):
/// 70% of queries concentrate around a handful of hot points (think "many
/// users querying trending images"), the rest are spread out. This is the
/// imbalance the replication optimisation exists to fix.
pub fn sift_skewed_queries(data: &VectorSet, n: usize, seed: u64) -> VectorSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dim = data.dim();
    let hot: Vec<usize> = (0..3).map(|_| rng.gen_range(0..data.len())).collect();
    let mut out = VectorSet::with_capacity(dim, n);
    let mut row = vec![0f32; dim];
    for i in 0..n {
        let base = if i % 10 < 7 {
            data.get(hot[i % hot.len()])
        } else {
            data.get(rng.gen_range(0..data.len()))
        };
        for (d, x) in row.iter_mut().enumerate() {
            *x = base[d] + 2.0 * (rng.gen::<f32>() - 0.5);
        }
        out.push(&row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        let w = sift(Scale::Quick);
        assert_eq!(w.data.dim(), 128);
        assert_eq!(w.data.len(), 48_000);
        assert_eq!(w.queries.len(), 400);
        let w = gist(Scale::Quick);
        assert_eq!(w.data.dim(), 960);
        let w = syn_1m(Scale::Quick);
        assert_eq!(w.data.dim(), 512);
        assert!(w.data.len() >= 32_000); // + outliers
    }

    #[test]
    fn skewed_queries_have_hot_spots() {
        let w = sift(Scale::Quick);
        let q = sift_skewed_queries(&w.data, 100, 1);
        assert_eq!(q.len(), 100);
        assert_eq!(q.dim(), 128);
    }
}
