//! Integration tests for adaptive replication and load-aware routing:
//! the skewed-trace determinism contract (bit-identical reports and
//! metrics at any thread count) and the hot-partition regression (a
//! deliberately hot partition gains a replica and its rejection count
//! drops versus static routing).

use fastann_core::{DistIndex, EngineConfig, RouteConfig, RoutingPolicy, SearchOptions};
use fastann_data::quant::Sq8;
use fastann_data::{synth, VectorSet};
use fastann_hnsw::HnswConfig;
use fastann_obs::Metrics;
use fastann_serve::{ControllerPolicy, Request, ServeConfig, ServeReport, ServeRuntime};

const DIM: usize = 16;
const K: usize = 10;
const SEED: u64 = 77;

fn corpus() -> VectorSet {
    synth::sift_like(2_000, DIM, SEED)
}

/// One core per node and fan-out 1, so replication spreads across
/// otherwise-idle nodes and every probe of the skewed trace lands on the
/// anchor's home partition — the hottest partition is unambiguous.
fn build_index(data: &VectorSet, threads: usize) -> DistIndex {
    DistIndex::build(
        data,
        EngineConfig::new(8, 1)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(SEED))
            .with_route(RouteConfig {
                margin_frac: 0.0,
                max_partitions: 1,
            })
            .with_seed(SEED)
            .with_threads(threads),
    )
}

/// A deliberately skewed trace: every request queries a jittered copy of
/// the same anchor row, at a rate that outruns a single core, so the
/// anchor's home partition is persistently hot.
fn skewed_trace(data: &VectorSet, n: usize) -> Vec<Request> {
    let anchor = data.get(17).to_vec();
    let mut reqs = Vec::with_capacity(n);
    for i in 0..n {
        let mut q = anchor.clone();
        // deterministic per-request jitter (distinct cache keys)
        for (j, x) in q.iter_mut().enumerate() {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(j as u64);
            *x += ((h % 1000) as f32 / 1000.0 - 0.5) * 0.05;
        }
        reqs.push(Request::new(i as u64, i as f64 * 4_000.0, q, K));
    }
    reqs
}

fn serve_cfg(routing: RoutingPolicy) -> ServeConfig {
    // a wide beam makes engine service time dominate the batch cycle, so
    // spreading the hot partition across replicas visibly drains the queue
    let mut cfg = ServeConfig::new(SearchOptions::new(K).with_ef(96).with_routing(routing))
        .with_batch(8, 50_000.0)
        .with_cache_capacity(0)
        .with_controller(
            ControllerPolicy::new()
                .with_window_ns(2e6)
                .with_shares(0.30, 0.05),
        );
    cfg.admission.partition_queue_depth = 8;
    cfg
}

fn run_leg(data: &VectorSet, threads: usize, routing: RoutingPolicy) -> (ServeReport, String) {
    let mut rt = ServeRuntime::new(
        build_index(data, threads),
        Sq8::encode(data),
        serve_cfg(routing),
    );
    let obs = Metrics::new();
    rt.set_metrics(&obs);
    let report = rt.serve_open(skewed_trace(data, 300)).report;
    (report, obs.snapshot().to_prometheus())
}

#[test]
fn skewed_trace_is_bit_identical_across_thread_counts() {
    let data = corpus();
    let adaptive = RoutingPolicy::PowerOfTwo { base: 1, max: 4 };
    let (r1, m1) = run_leg(&data, 1, adaptive);
    let (r2, m2) = run_leg(&data, 2, adaptive);
    let (r4, m4) = run_leg(&data, 4, adaptive);
    assert_eq!(r1, r2, "ServeReport must not depend on the thread count");
    assert_eq!(r1, r4, "ServeReport must not depend on the thread count");
    assert_eq!(r1.fingerprint(), r4.fingerprint(), "full float bits too");
    assert_eq!(
        m1, m2,
        "MetricsSnapshot must not depend on the thread count"
    );
    assert_eq!(
        m1, m4,
        "MetricsSnapshot must not depend on the thread count"
    );
    // the trace must be hot enough for the contract to mean something
    assert!(r1.replica_raises > 0, "the controller must have acted");
}

#[test]
fn hot_partition_gains_replica_and_its_rejections_drop() {
    let data = corpus();
    let hot = build_index(&data, 1).home_partition(data.get(17)) as usize;

    let (fixed, _) = run_leg(&data, 1, RoutingPolicy::Static(1));
    let (adaptive, _) = run_leg(&data, 1, RoutingPolicy::PowerOfTwo { base: 1, max: 4 });

    // the static leg overloads the hot partition's queue and sheds there
    assert!(
        fixed.rejected_hot_partition > 0,
        "the trace must stress the hot partition under static routing"
    );
    assert_eq!(
        fixed.per_partition_rejections.iter().sum::<u64>(),
        fixed.per_partition_rejections[hot],
        "all shedding lands on the hot partition"
    );

    // the controller notices and raises exactly that partition
    assert!(adaptive.replica_raises > 0, "the hot partition was raised");
    assert!(
        adaptive.final_replicas[hot] > 1,
        "the raised partition is the hot one: {:?}",
        adaptive.final_replicas
    );
    assert!(
        adaptive.routing_generation > 0,
        "raises bump the routing generation"
    );
    for (p, &r) in adaptive.final_replicas.iter().enumerate() {
        if p != hot {
            assert_eq!(
                r, 1,
                "cold partitions stay at base: {:?}",
                adaptive.final_replicas
            );
        }
    }

    // and the extra replicas drain the hot queue: fewer rejections
    assert!(
        adaptive.rejected_hot_partition < fixed.rejected_hot_partition,
        "adaptive hot rejections {} must drop below static {}",
        adaptive.rejected_hot_partition,
        fixed.rejected_hot_partition
    );
    assert!(
        adaptive.rejection_rate() < fixed.rejection_rate(),
        "adaptive rejection rate must improve"
    );
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// An adaptive run over 16 partitions whose hot partition has an id of
/// at least 10: the controller raises it, so the `partition` labels of
/// `fastann_replica_count` and `fastann_worker_service_ns` run past "9"
/// and sort as strings. Returns the FNV-1a of `to_prometheus()` and of
/// `to_json("  ")`, and the hot partition.
fn wide_adaptive_export_hashes(threads: usize) -> (u64, u64, usize) {
    let data = corpus();
    let index = DistIndex::build(
        &data,
        EngineConfig::new(16, 1)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(SEED))
            .with_route(RouteConfig {
                margin_frac: 0.0,
                max_partitions: 1,
            })
            .with_seed(SEED)
            .with_threads(threads),
    );
    let anchor = (0..data.len())
        .find(|&i| index.home_partition(data.get(i)) >= 10)
        .expect("some row lives in a partition numbered 10 or above");
    let hot = index.home_partition(data.get(anchor)) as usize;
    let trace: Vec<Request> = skewed_trace(&data, 300)
        .into_iter()
        .map(|r| {
            let mut q = data.get(anchor).to_vec();
            for (x, (a, b)) in q.iter_mut().zip(r.query.iter().zip(data.get(17))) {
                *x += a - b;
            }
            Request::new(r.id, r.arrival_ns, q, K)
        })
        .collect();
    let mut rt = ServeRuntime::new(
        index,
        Sq8::encode(&data),
        serve_cfg(RoutingPolicy::PowerOfTwo { base: 1, max: 4 }),
    );
    let obs = Metrics::new();
    rt.set_metrics(&obs);
    let report = rt.serve_open(trace).report;
    assert!(
        report.final_replicas[hot] > 1,
        "the controller must raise partition {hot}: {:?}",
        report.final_replicas
    );
    let snap = obs.snapshot();
    (
        fnv1a(snap.to_prometheus().as_bytes()),
        fnv1a(snap.to_json("  ").as_bytes()),
        hot,
    )
}

#[test]
fn wide_adaptive_exports_match_goldens() {
    for threads in [1usize, 4] {
        let (prom, json, hot) = wide_adaptive_export_hashes(threads);
        assert!(hot >= 10, "the hot partition must have two digits");
        assert_eq!(
            (prom, json),
            (1753904018472823923, 18204398996397964019),
            "exports at threads={threads}"
        );
    }
}
