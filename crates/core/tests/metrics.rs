//! The obs determinism contract, end to end through the engine: a
//! seeded chaos run records the same [`fastann_obs::MetricsSnapshot`] —
//! and the same Prometheus rendering, byte for byte — at any
//! `EngineConfig::threads` setting, because every recorded value is
//! virtual-time or counted-work arithmetic and the registry folds are
//! order-invariant (DESIGN.md §10).

use fastann_core::{DistIndex, EngineConfig, RoutingPolicy, SearchOptions, SearchRequest};
use fastann_data::synth;
use fastann_hnsw::HnswConfig;
use fastann_mpisim::FaultPlan;
use fastann_obs::{Metrics, MetricsSnapshot};

fn chaos_snapshot(threads: usize) -> MetricsSnapshot {
    let data = synth::sift_like(2_500, 16, 77);
    let queries = synth::queries_near(&data, 20, 0.02, 78);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(77))
        .with_seed(77)
        .with_threads(threads);
    let index = DistIndex::build(&data, cfg);
    let opts = SearchOptions::new(5)
        .with_routing(RoutingPolicy::Static(2))
        .with_timeout_ns(5e5)
        .with_max_retries(2);
    let plan = FaultPlan::new(0xCAFE)
        .drop_msgs(None, None, None, 0.15)
        .delay_msgs(None, None, None, 0.20, 2e6);
    let metrics = Metrics::new();
    // two runs into one registry: accumulation must stay order-invariant
    for _ in 0..2 {
        SearchRequest::new(&index, &queries)
            .opts(opts)
            .chaos(&plan)
            .metrics(&metrics)
            .run();
    }
    metrics.snapshot()
}

#[test]
fn chaos_run_metrics_are_thread_bit_identical() {
    let base = chaos_snapshot(1);
    assert!(
        base.counter_total("fastann_engine_queries_total") > 0,
        "the run must actually record"
    );
    assert!(
        base.counter_total("fastann_chaos_retries_total")
            + base.counter_total("fastann_chaos_timeout_waits_total")
            > 0,
        "the fault plan must actually bite, or the test proves nothing"
    );
    for threads in [2usize, 4] {
        let other = chaos_snapshot(threads);
        assert_eq!(
            base, other,
            "MetricsSnapshot must be bit-identical at threads={threads}"
        );
        assert_eq!(
            base.to_prometheus(),
            other.to_prometheus(),
            "Prometheus rendering must be byte-identical at threads={threads}"
        );
        assert_eq!(
            base.to_json("  "),
            other.to_json("  "),
            "JSON rendering must be byte-identical at threads={threads}"
        );
    }
}

#[test]
fn fault_free_run_records_the_full_pipeline() {
    let data = synth::sift_like(2_000, 16, 55);
    let queries = synth::queries_near(&data, 16, 0.02, 56);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(55))
        .with_seed(55);
    let index = DistIndex::build(&data, cfg);
    let metrics = Metrics::new();
    let report = SearchRequest::new(&index, &queries)
        .opts(SearchOptions::new(5).with_one_sided(true))
        .metrics(&metrics)
        .run();
    let snap = metrics.snapshot();

    assert_eq!(
        snap.counter("fastann_engine_queries_total", &[]),
        Some(queries.len() as u64)
    );
    let probes: u64 = report.per_core_queries.iter().sum();
    assert_eq!(
        snap.counter("fastann_engine_probes_total", &[]),
        Some(probes)
    );
    let (fanout_n, fanout_sum) = snap
        .histogram("fastann_router_fanout", &[])
        .expect("router fan-out histogram present");
    assert_eq!(fanout_n, queries.len() as u64);
    assert_eq!(fanout_sum, probes as f64, "fan-out sum is the probe count");
    let (hops_n, _) = snap
        .histogram("fastann_hnsw_hops", &[])
        .expect("hnsw hop histogram present");
    assert_eq!(hops_n, probes, "one local search per probe");
    assert_eq!(
        snap.counter("fastann_master_merge_ops_total", &[("path", "one_sided")]),
        Some(queries.len() as u64)
    );
    assert_eq!(
        snap.counter("fastann_rma_deposits_total", &[]),
        Some(probes),
        "every probe deposits once into the RMA window"
    );
    assert!(
        snap.histogram("fastann_span_ns", &[("stage", "hnsw search")])
            .is_some(),
        "span histogram carries the stage vocabulary"
    );
    // fault-free path must not touch the chaos series
    assert_eq!(snap.counter_total("fastann_chaos_retries_total"), 0);
    assert_eq!(snap.counter_total("fastann_chaos_failovers_total"), 0);
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(FNV-1a of to_prometheus(), FNV-1a of to_json("  "))` of a metered
/// batch over an index split into 16 partitions, so partition labels
/// run past "9" and sort as strings ("10" before "2"), with and without
/// a chaos plan. The plan-free run leaves every `fastann_chaos_*` series
/// absent; the pinned bytes cover label order, series presence, gauge
/// values and the fixed-point histogram sums.
fn split_index_export_hashes(chaos: bool, threads: usize) -> (u64, u64) {
    use fastann_core::MutationRequest;
    let data = synth::sift_like(2_000, 16, 61);
    let queries = synth::queries_near(&data, 24, 0.02, 62);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(61))
        .with_seed(61)
        .with_threads(threads);
    let mut index = DistIndex::build(&data, cfg);
    MutationRequest::new(&mut index).split_above(200).run();
    assert!(
        index.n_partitions() >= 12,
        "the split must pass ten partitions"
    );
    let plan = FaultPlan::new(0xBEEF)
        .drop_msgs(None, None, None, 0.10)
        .delay_msgs(None, None, None, 0.20, 1e6);
    let metrics = Metrics::new();
    let mut req = SearchRequest::new(&index, &queries)
        .opts(
            SearchOptions::new(5)
                .with_routing(RoutingPolicy::Static(2))
                .with_timeout_ns(5e5)
                .with_max_retries(2),
        )
        .metrics(&metrics);
    if chaos {
        req = req.chaos(&plan);
    }
    req.run();
    let snap = metrics.snapshot();
    assert!(
        snap.histogram("fastann_worker_service_ns", &[("partition", "10")])
            .is_some(),
        "a partition id of two digits must be probed"
    );
    assert_eq!(
        snap.counter_total("fastann_chaos_retries_total") > 0
            || snap.counter_total("fastann_chaos_timeout_waits_total") > 0,
        chaos,
        "the chaos series appear exactly when the plan bites"
    );
    (
        fnv1a(snap.to_prometheus().as_bytes()),
        fnv1a(snap.to_json("  ").as_bytes()),
    )
}

#[test]
fn split_index_exports_match_goldens() {
    for threads in [1usize, 4] {
        assert_eq!(
            split_index_export_hashes(false, threads),
            (8182560622766262267, 1830835989957789420),
            "plan-free exports at threads={threads}"
        );
        assert_eq!(
            split_index_export_hashes(true, threads),
            (12461769505156933542, 8015466976220134447),
            "chaos exports at threads={threads}"
        );
    }
}
