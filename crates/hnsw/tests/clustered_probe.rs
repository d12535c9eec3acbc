//! Exact vs quantized search quality on clustered (MDCGen) data.
//!
//! The fast test below is the regression guard for the clustered-data
//! recall collapse fixed by the diversified multi-entry descent (DESIGN.md
//! §13): before the fix, single-seed greedy descent stranded whole query
//! clusters in the wrong basin (cluster-4 recall@10 was 0.15 on this exact
//! configuration) while the quantized path happened to survive. The large
//! `#[ignore]` probe reproduces the originally-reported 32k×512 collapse
//! configuration; run it with
//! `cargo test -p fastann-hnsw --release --test clustered_probe -- --ignored --nocapture`.

use fastann_data::synth::mdcgen;
use fastann_data::{ground_truth, Distance, Neighbor};
use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch};

fn run_exact_and_quantized(
    index: &Hnsw,
    queries: &fastann_data::VectorSet,
) -> (Vec<Vec<Neighbor>>, Vec<Vec<Neighbor>>, u64) {
    let mut scratch = SearchScratch::with_capacity(index.len());
    let mut ex = Vec::new();
    let mut qu = Vec::new();
    let mut entry_seeds = 0u64;
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let (hits, stats) = index.search(q, &SearchParams::new(10, 64), &mut scratch);
        entry_seeds += stats.entry_seeds;
        ex.push(hits);
        qu.push(
            index
                .search(q, &SearchParams::new(10, 64).quantized(3), &mut scratch)
                .0,
        );
    }
    (ex, qu, entry_seeds)
}

/// Fast clustered-recall regression: a scaled-down MDCGen workload whose
/// query cluster sat in the wrong descent basin before the multi-entry
/// fix. Seeds are fixed; the build takes well under a minute even in
/// debug profiles.
#[test]
fn clustered_exact_recall_regression() {
    let n = 8000;
    let ds = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: n,
        dim: 128,
        n_clusters: 10,
        n_outliers: n / 200,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: 0x517,
    });
    // cluster 4 is the basin the pre-fix descent could not reach (0.15)
    let queries = ds.queries_from_cluster(20, 4, 0.01, 0x51c);
    let data = ds.points;
    let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);

    let index = Hnsw::build(
        data.clone(),
        Distance::L2,
        HnswConfig::with_m(8).ef_construction(80).seed(7),
    );
    assert!(
        index.entry_set().len() > 1,
        "clustered build must select a diverse entry set"
    );
    let (ex, qu, entry_seeds) = run_exact_and_quantized(&index, &queries);
    assert!(
        entry_seeds > 0,
        "queries on clustered data should consume diverse entry seeds"
    );
    let rex = ground_truth::recall_at_k(&ex, &gt, 10).mean;
    let rqu = ground_truth::recall_at_k(&qu, &gt, 10).mean;
    assert!(
        rex >= 0.90,
        "exact recall@10 collapsed on clustered data: {rex:.3} (pre-fix: 0.15)"
    );
    assert!(
        rex >= rqu - 0.02,
        "exact recall {rex:.3} fell more than 0.02 below quantized {rqu:.3}"
    );
}

/// The original 32k×512 collapse reproduction (exact recall@10 was ≈0.44
/// pre-fix; must hold ≥ 0.90 now). Too slow for the default suite.
#[test]
#[ignore]
fn exact_vs_quantized_on_mdcgen() {
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
    let data = ds.points;
    let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);

    let index = Hnsw::build(
        data.clone(),
        Distance::L2,
        HnswConfig::with_m(16).ef_construction(100).seed(7),
    );
    let (ex, qu, _) = run_exact_and_quantized(&index, &queries);
    let rex = ground_truth::recall_at_k(&ex, &gt, 10).mean;
    let rqu = ground_truth::recall_at_k(&qu, &gt, 10).mean;
    println!("exact recall {rex:.3}, quantized recall {rqu:.3}");
    assert!(
        rex >= 0.90,
        "exact recall@10 on the 32k collapse config: {rex:.3} (pre-fix: 0.44)"
    );
    assert!(
        rex >= rqu - 0.02,
        "exact recall {rex:.3} fell more than 0.02 below quantized {rqu:.3}"
    );
}
