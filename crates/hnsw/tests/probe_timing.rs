//! Probe throughput check, ignored by default. Run it against the
//! optimized codegen that ships:
//!
//! ```text
//! cargo test -p fastann-hnsw --release --test probe_timing -- --ignored --nocapture
//! ```
//!
//! It prints µs per probe and ns per distance evaluation (probe time over
//! the probe's `ndist`) of `Hnsw::search` at k 10 and ef 40, exact and
//! SQ8, on the three partition shapes the host benchmark's workloads
//! probe: 1250×32 (churn_rw) and 2500×32 (serve_zipf) at M 8 and
//! ef_construction 40, and 2000×256 clustered (batch_mdc) at the default
//! config. Each figure is the minimum over 15 timed passes over the same
//! queries, so a traversal change shows as a drop in µs per probe while
//! the work per probe (`ndist`, printed too) stays put.

use std::hint::black_box;
use std::time::Instant;

use fastann_data::synth::{self, mdcgen};
use fastann_data::{Distance, VectorSet};
use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch};

const QUERIES: usize = 200;
const REPS: usize = 15;

/// Minimum over [`REPS`] passes of µs per probe, and the mean `ndist` per
/// probe (identical on every pass).
fn probe_us(index: &Hnsw, queries: &VectorSet, params: &SearchParams) -> (f64, f64) {
    let mut scratch = SearchScratch::default();
    let mut best = f64::INFINITY;
    let mut ndist = 0u64;
    for _ in 0..REPS {
        ndist = 0;
        let t0 = Instant::now();
        for qi in 0..queries.len() {
            let (hits, stats) = index.search(queries.get(qi), params, &mut scratch);
            black_box(hits);
            ndist += stats.ndist;
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
    }
    (best, ndist as f64 / queries.len() as f64)
}

#[test]
#[ignore]
fn probe_us_per_shape() {
    let clustered = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: 1990,
        dim: 256,
        n_clusters: 10,
        n_outliers: 10,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: 0x3dc,
    })
    .points;
    let shapes = [
        (
            "1250x32",
            synth::sift_like(1250, 32, 7),
            HnswConfig::with_m(8).ef_construction(40),
        ),
        (
            "2500x32",
            synth::sift_like(2500, 32, 7),
            HnswConfig::with_m(8).ef_construction(40),
        ),
        ("2000x256", clustered, HnswConfig::default()),
    ];
    println!(
        "{:>9} {:>6} {:>9} {:>9} {:>8}  (min of {REPS}, k 10, ef 40)",
        "shape", "path", "us/probe", "ns/dist", "ndist"
    );
    for (name, data, config) in shapes {
        let queries = synth::queries_near(&data, QUERIES, 0.02, 11);
        let index = Hnsw::build(data, Distance::L2, config);
        let exact = SearchParams::new(10, 40);
        for (path, params) in [("exact", exact), ("sq8", exact.quantized(true))] {
            let (us, ndist) = probe_us(&index, &queries, &params);
            let ns_dist = us * 1e3 / ndist;
            println!("{name:>9} {path:>6} {us:>9.2} {ns_dist:>9.1} {ndist:>8.1}");
        }
    }
}
