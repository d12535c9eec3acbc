//! Construction throughput check, ignored by default. Run it against the
//! optimized codegen that ships:
//!
//! ```text
//! cargo test -p fastann-hnsw --release --test build_timing -- --ignored --nocapture
//! ```
//!
//! It prints ms per `Hnsw::build` and the build's distance evaluations,
//! split by phase of insertion ([`BuildCost`]): the beam searches, the
//! heuristic choosing each new node's links, and linking back (the
//! reselection of every list a new link overflows). The shapes are
//! `probe_timing`'s: the partitions the host benchmark's workloads build,
//! 1250×32 (churn_rw) and 2500×32 (serve_zipf) at M 8 and
//! ef_construction 40, and 2000×256 clustered (batch_mdc) at the default
//! config. Each time is the minimum over 5 builds. The evaluation counts
//! are deterministic, so a change that keeps the graph and only skips
//! work shows as a drop in ms and in the counts, with every blob in
//! `graph_golden` unchanged.

use std::hint::black_box;
use std::time::Instant;

use fastann_data::synth::{self, mdcgen};
use fastann_data::Distance;
use fastann_hnsw::{BuildCost, Hnsw, HnswConfig};

const REPS: usize = 5;

#[test]
#[ignore]
fn build_ms_per_shape() {
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
        "{:>9} {:>9} {:>11} {:>10} {:>10} {:>10}  (min of {REPS})",
        "shape", "ms/build", "build_ndist", "search", "select", "link_back"
    );
    for (name, data, config) in shapes {
        let mut best = f64::INFINITY;
        let mut cost = BuildCost::default();
        for _ in 0..REPS {
            let data = data.clone();
            let t0 = Instant::now();
            let index = black_box(Hnsw::build(data, Distance::L2, config));
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            cost = index.build_cost();
        }
        println!(
            "{name:>9} {best:>9.1} {:>11} {:>10} {:>10} {:>10}",
            cost.total(),
            cost.search,
            cost.select,
            cost.link
        );
    }
}
