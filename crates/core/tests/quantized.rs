//! End-to-end quantized-first search through the engine: the
//! `SearchOptions::with_quantized` knob must reach every partition's
//! HNSW, recall must stay within 0.01 of the exact path, the obs
//! registry must carry the quantized/exact split, and the whole pipeline
//! must stay bit-identical across thread counts.

use fastann_core::{DistIndex, EngineConfig, QueryReport, SearchOptions, SearchRequest};
use fastann_data::{ground_truth, synth, Distance, VectorSet};
use fastann_hnsw::HnswConfig;
use fastann_obs::Metrics;

fn fixture() -> (VectorSet, VectorSet, DistIndex) {
    // unit-norm deep-like data: fine-grained values where quantization
    // error actually bites (SIFT-like byte data is nearly lossless)
    let data = synth::deep_like(3_000, 24, 41);
    let queries = synth::queries_near(&data, 30, 0.02, 42);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(60).seed(41))
        .with_seed(41);
    let index = DistIndex::build(&data, cfg);
    (data, queries, index)
}

fn run(index: &DistIndex, queries: &VectorSet, opts: SearchOptions) -> QueryReport {
    SearchRequest::new(index, queries).opts(opts).run()
}

#[test]
fn quantized_recall_within_a_point_of_exact_through_the_engine() {
    let (data, queries, index) = fixture();
    let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
    let exact = run(
        &index,
        &queries,
        SearchOptions::new(10).with_quantized(false),
    );
    let quant = run(&index, &queries, SearchOptions::new(10));
    let r_exact = ground_truth::recall_at_k(&exact.results, &gt, 10).mean;
    let r_quant = ground_truth::recall_at_k(&quant.results, &gt, 10).mean;
    assert!(r_exact > 0.8, "exact baseline collapsed: {r_exact}");
    assert!(
        r_quant >= r_exact - 0.01,
        "quantized recall {r_quant} dropped more than 0.01 below exact {r_exact}"
    );
}

#[test]
fn quantized_registry_split_adds_up() {
    let (_, queries, index) = fixture();
    let m_quant = Metrics::new();
    SearchRequest::new(&index, &queries)
        .opts(SearchOptions::new(10))
        .metrics(&m_quant)
        .run();
    let sq = m_quant.snapshot();
    let quant = sq.counter_total("fastann_dists_quant_total");
    let exact = sq.counter_total("fastann_dists_exact_total");
    assert!(quant > 0, "quantized traversal must be counted");
    assert!(exact > 0, "re-rank evaluations must be counted");
    assert!(
        quant > exact,
        "traversal ({quant}) should dominate re-rank ({exact})"
    );

    let m_exact = Metrics::new();
    SearchRequest::new(&index, &queries)
        .opts(SearchOptions::new(10).with_quantized(false))
        .metrics(&m_exact)
        .run();
    let se = m_exact.snapshot();
    assert_eq!(
        se.counter_total("fastann_dists_quant_total"),
        0,
        "exact runs must not count quantized evaluations"
    );
    assert!(se.counter_total("fastann_dists_exact_total") > 0);
}

#[test]
fn quantized_reports_are_thread_bit_identical() {
    let data = synth::deep_like(2_000, 16, 51);
    let queries = synth::queries_near(&data, 16, 0.02, 52);
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let cfg = EngineConfig::new(8, 2)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(51))
            .with_seed(51)
            .with_threads(threads);
        let index = DistIndex::build(&data, cfg);
        reports.push(run(&index, &queries, SearchOptions::new(5)));
    }
    assert_eq!(
        reports[0], reports[1],
        "quantized search must stay bit-identical across thread counts"
    );
}
