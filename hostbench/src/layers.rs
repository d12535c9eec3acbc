//! The traced run's layer replays. Each function calls one crate's public
//! functions on the inputs the workload sent, inside spans, so the
//! per-layer self times come from the same tracer as the end-to-end spans.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use fastann_core::{
    DistIndex, LocalIndex, LocalIndexKind, SearchOptions, SearchRequest, TAG_QUERY, TAG_RESULT,
};
use fastann_data::quant::Sq8;
use fastann_data::{kernels, VectorSet};
use fastann_hnsw::SearchScratch;
use fastann_mpisim::{wire, Cluster, CostModel, SimConfig, Topology};
use fastann_obs::Metrics;

use crate::common::{timed, Record};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};

/// Routed probes replayed outside the engine.
struct Probes {
    /// Host ns per `(query, partition)` probe.
    probe_ns: Vec<f64>,
    /// Host ns per `Router::route` call.
    route_ns: Vec<f64>,
    ndist: u64,
    ndist_quant: u64,
    hops: u64,
    fanout: usize,
    queries: usize,
}

impl Probes {
    fn total_probe_ns(&self) -> f64 {
        self.probe_ns.iter().sum()
    }
}

/// Routes every query through `Router::route`, then searches each routed
/// partition with `LocalIndex::search_detailed_opts` — the calls a worker
/// makes for the engine, one span each. Probes run partition by partition,
/// as the engine's workers serve them, so the replay keeps their locality.
fn replay_probes(
    ix: &DistIndex,
    queries: &VectorSet,
    opts: &SearchOptions,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Probes {
    let mut out = Probes {
        probe_ns: Vec::new(),
        route_ns: Vec::new(),
        ndist: 0,
        ndist_quant: 0,
        hops: 0,
        fanout: 0,
        queries: queries.len(),
    };
    let mut routed: Vec<(u32, usize)> = Vec::new();
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let ((parts, secs), _) = tr.span("core.route", parent, qi as u64, |_, _| {
            timed(|| ix.router.route(q, &ix.config.route).0)
        });
        out.route_ns.push(secs * 1e9);
        out.fanout += parts.len();
        routed.extend(parts.into_iter().map(|p| (p, qi)));
    }
    routed.sort_unstable();
    let mut scratch = SearchScratch::default();
    for (p, qi) in routed {
        let q = queries.get(qi);
        let ((stats, secs), _) = tr.span("hnsw.probe", parent, qi as u64, |_, _| {
            timed(|| {
                let (r, s) =
                    ix.partitions[p as usize]
                        .index
                        .search_detailed_opts(q, opts, &mut scratch);
                black_box(r);
                s
            })
        });
        out.probe_ns.push(secs * 1e9);
        out.ndist += stats.ndist;
        out.ndist_quant += stats.ndist_quant;
        out.hops += stats.hops;
    }
    out
}

/// ns per call of `kernels::squared_l2` and `kernels::sq8_dot` at the
/// data's dimension, over rows of `data`.
fn kernel_ns(data: &VectorSet, tr: &mut Tracer) -> (f64, f64) {
    let rows = data.len().min(512);
    let sample = data.gather(&(0..rows as u32).collect::<Vec<_>>());
    let sq = Sq8::encode(&sample);
    let dim = data.dim();
    let w: Vec<f32> = sq.step().to_vec();
    let reps = (4_000_000 / dim.max(1)).max(10_000);
    let (l2, _) = tr.span("data.squared_l2", None, 0, |_, _| {
        median_of(5, || {
            let t0 = Instant::now();
            let mut acc = 0f32;
            for i in 0..reps {
                acc += kernels::squared_l2(sample.get(i % rows), sample.get((i * 7 + 1) % rows));
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
    });
    let (sq8, _) = tr.span("data.sq8_dot", None, 0, |_, _| {
        median_of(5, || {
            let t0 = Instant::now();
            let mut acc = 0f32;
            for i in 0..reps {
                let codes = &sq.codes()[(i % rows) * dim..(i % rows + 1) * dim];
                acc += kernels::sq8_dot(black_box(&w), codes);
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
    });
    (l2, sq8)
}

/// Median of `n` calls of `f`.
fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..n).map(|_| f()).collect();
    median(&v)
}

/// Host µs of an empty `Cluster::run` over `ranks` ranks (median).
fn spawn_us(ranks: usize, tr: &mut Tracer) -> f64 {
    let cluster = Cluster::new(SimConfig::new(ranks).topology(Topology::one_rank_per_node()));
    let mut v = Vec::with_capacity(40);
    for i in 0..40 {
        let (((), secs), _) = tr.span("mpisim.cluster_run", None, i, |_, _| {
            timed(|| {
                cluster.run(|_| ());
            })
        });
        v.push(secs * 1e6);
    }
    median(&v)
}

/// Host µs of a `send_bytes`/`recv` round trip between two ranks: a
/// query-sized message out and a result-sized message back (median).
fn roundtrip_us(dim: usize, k: usize) -> f64 {
    let query = encode_query(&vec![0.5f32; dim]);
    let result = encode_result(k);
    let cluster = Cluster::new(SimConfig::new(2).topology(Topology::one_rank_per_node()));
    let out = cluster.run(|rank| {
        let n = 400;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            if rank.rank() == 0 {
                let t0 = Instant::now();
                rank.send_bytes(1, TAG_QUERY, query.clone());
                let _ = rank.recv(Some(1), Some(TAG_RESULT));
                v.push(t0.elapsed().as_secs_f64() * 1e6);
            } else {
                let _ = rank.recv(Some(0), Some(TAG_QUERY));
                rank.send_bytes(0, TAG_RESULT, result.clone());
            }
        }
        v
    });
    median(&out[0])
}

fn encode_query(q: &[f32]) -> bytes::Bytes {
    let mut b = BytesMut::with_capacity(8 + q.len() * 4);
    wire::put_u32(&mut b, 7);
    wire::put_u32(&mut b, 3);
    wire::put_f32_slice(&mut b, q);
    b.freeze()
}

fn encode_result(k: usize) -> bytes::Bytes {
    let pairs: Vec<(u32, f32)> = (0..k as u32).map(|i| (i, i as f32 * 0.5)).collect();
    let mut b = BytesMut::new();
    wire::put_u32(&mut b, 7);
    wire::put_neighbors(&mut b, &pairs);
    b.freeze()
}

/// Host µs to encode and decode one query message and one result message
/// with `wire::put_*`/`get_*` (mean over many).
fn wire_us(dim: usize, k: usize) -> f64 {
    let q = vec![0.25f32; dim];
    let n = 20_000;
    let t0 = Instant::now();
    for _ in 0..n {
        let mut qb = encode_query(black_box(&q));
        let _ = black_box((wire::get_u32(&mut qb), wire::get_u32(&mut qb)));
        black_box(wire::get_f32_vec(&mut qb));
        let mut rb = encode_result(black_box(k));
        black_box(wire::get_u32(&mut rb));
        black_box(wire::get_neighbors(&mut rb));
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// `LocalIndex::build` over partition 0's rows (seconds), then
/// `repair_tombstones` after tombstoning every 20th row (ms).
fn build_and_repair(ix: &DistIndex, tr: &mut Tracer) -> (f64, f64) {
    let rows = ix.partitions[0]
        .index
        .as_hnsw()
        .expect("HNSW partitions")
        .vectors()
        .clone();
    let n = rows.len();
    let ((mut local, build_s), _) = tr.span("hnsw.build", None, 0, |_, _| {
        timed(|| {
            LocalIndex::build(
                LocalIndexKind::Hnsw,
                rows,
                ix.config.metric,
                ix.config.hnsw,
                ix.config.seed,
            )
        })
    });
    for id in (0..n as u32).step_by(20) {
        local.remove(id);
    }
    let ((_, repair_s), _) = tr.span("hnsw.repair_tombstones", None, 0, |_, _| {
        timed(|| local.repair_tombstones())
    });
    (build_s, repair_s * 1e3)
}

/// Process CPU time in ns (user + system, all threads).
#[cfg(target_os = "linux")]
fn cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Process CPU time is read only on Linux.
#[cfg(not(target_os = "linux"))]
fn cpu_ns() -> Option<u64> {
    None
}

/// Everything the traced run replays against one engine batch.
pub struct EngineLayers<'a> {
    pub ix: &'a DistIndex,
    /// The batch the workload sent to `SearchRequest::run`.
    pub batch: &'a VectorSet,
    pub opts: SearchOptions,
    /// `QueryReport::total_ndist` of that batch, when the workload has it.
    pub engine_ndist: Option<u64>,
}

/// Runs every engine-side replay and records the `data`, `hnsw`, `core`,
/// `mpisim` and `obs` layer metrics.
pub fn record_engine_layers(
    el: &EngineLayers<'_>,
    data: &VectorSet,
    rec: &mut Record,
    tr: &mut Tracer,
) {
    let ix = el.ix;
    let dim = ix.dim();
    let k = el.opts.k;

    let (l2_ns, sq8_ns) = kernel_ns(data, tr);
    rec.put("data.l2_ns", l2_ns, "ns");
    rec.put("data.sq8_ns", sq8_ns, "ns");

    let c0 = cpu_ns();
    let (q, _) = tr.span("replay.sq8_probes", None, 0, |tr, me| {
        replay_probes(ix, el.batch, &el.opts, tr, me)
    });
    // the replay is single-threaded, so the process CPU it burns is the
    // CPU self time of its route and probe spans
    let replay_cpu = c0.zip(cpu_ns()).map(|(a, b)| (b - a) as f64);
    let exact_opts = el.opts.with_quantized(false);
    let (x, _) = tr.span("replay.exact_probes", None, 0, |tr, me| {
        replay_probes(ix, el.batch, &exact_opts, tr, me)
    });
    let probes = q.probe_ns.len().max(1) as f64;
    rec.put("hnsw.probe_us", median(&q.probe_ns) / 1e3, "us");
    rec.put(
        "hnsw.probe_p99_us",
        percentile(&q.probe_ns, 99.0) / 1e3,
        "us",
    );
    rec.put("hnsw.probes", probes, "count");
    rec.put("hnsw.ndist_per_probe", q.ndist as f64 / probes, "count");
    rec.put("hnsw.hops_per_probe", q.hops as f64 / probes, "count");
    rec.put(
        "hnsw.ns_per_dist",
        q.total_probe_ns() / q.ndist.max(1) as f64,
        "ns",
    );
    let kernel = (q.ndist - q.ndist_quant) as f64 * l2_ns + q.ndist_quant as f64 * sq8_ns;
    rec.put(
        "hnsw.kernel_share",
        kernel / q.total_probe_ns().max(1.0),
        "frac",
    );
    rec.put(
        "hnsw.kernel_share_exact",
        x.ndist as f64 * l2_ns / x.total_probe_ns().max(1.0),
        "frac",
    );
    rec.put("hnsw.exact_probe_us", median(&x.probe_ns) / 1e3, "us");
    rec.put(
        "hnsw.sq8_speedup",
        x.total_probe_ns() / q.total_probe_ns().max(1.0),
        "x",
    );
    rec.put("hnsw.replay_ndist", q.ndist as f64, "count");
    if let Some(engine) = el.engine_ndist {
        rec.put("hnsw.engine_ndist", engine as f64, "count");
        rec.check(
            format!(
                "replayed ndist {} equals QueryReport::total_ndist {engine}",
                q.ndist
            ),
            q.ndist == engine,
        );
    }

    // cost model: measured host ns per probe against the virtual-time price
    let model = ix.config.cost;
    let calibrated = CostModel::calibrate(dim);
    let ratio =
        |p: &Probes, m: &CostModel| p.total_probe_ns() / (m.dist_ns(dim) * p.ndist.max(1) as f64);
    rec.put("hnsw.model_dist_ns", model.dist_ns(dim), "ns");
    rec.put("hnsw.calibrated_dist_ns", calibrated.dist_ns(dim), "ns");
    rec.put("hnsw.cost_model_ratio", ratio(&q, &model), "x");
    rec.put("hnsw.cost_model_ratio_exact", ratio(&x, &model), "x");
    rec.put("hnsw.calibrated_ratio", ratio(&q, &calibrated), "x");
    rec.put("hnsw.calibrated_ratio_exact", ratio(&x, &calibrated), "x");

    let (build_s, repair_ms) = build_and_repair(ix, tr);
    rec.put("hnsw.build_s", build_s, "s");
    rec.put("hnsw.repair_ms", repair_ms, "ms");
    rec.put(
        "hnsw.build_ndist",
        ix.build_stats.hnsw_ndist as f64,
        "count",
    );
    rec.put(
        "core.build_vptree_virtual_ms",
        ix.build_stats.vptree_ns / 1e6,
        "ms",
    );
    rec.put(
        "core.shuffle_bytes",
        ix.build_stats.shuffle_bytes as f64,
        "bytes",
    );

    rec.put("core.route_us", median(&q.route_ns) / 1e3, "us");
    rec.put(
        "core.fanout",
        q.fanout as f64 / q.queries.max(1) as f64,
        "count",
    );

    let ranks = ix.config.n_nodes() + 1;
    let spawn = spawn_us(ranks, tr);
    let rt = roundtrip_us(dim, k);
    let wire = wire_us(dim, k);
    rec.put("mpisim.spawn_us", spawn, "us");
    rec.put("mpisim.roundtrip_us", rt, "us");
    rec.put("mpisim.wire_us", wire, "us");

    // the batch with and without a metrics registry, alternating; the
    // registry also counts the engine's messages
    let m = Metrics::new();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let mut cpu = Vec::new();
    for i in 0..5u64 {
        let c0 = cpu_ns();
        let (_, t) = timed(|| SearchRequest::new(ix, el.batch).opts(el.opts).run());
        if let (Some(a), Some(b)) = (c0, cpu_ns()) {
            cpu.push((b - a) as f64);
        }
        without.push(t);
        let probe_metrics = if i == 0 { m.clone() } else { Metrics::new() };
        let ((_, t), _) = tr.span("core.search_request_metered", None, i, |_, _| {
            timed(|| {
                SearchRequest::new(ix, el.batch)
                    .opts(el.opts)
                    .metrics(&probe_metrics)
                    .run()
            })
        });
        with.push(t);
    }
    let base = median(&without);
    rec.put("obs.base_run_ms", base * 1e3, "ms");
    rec.put("obs.overhead_frac", median(&with) / base - 1.0, "frac");
    let snap = m.snapshot();
    let queries = el.batch.len() as f64;
    let msgs = snap.counter_total("fastann_engine_probes_total")
        + snap.counter_total("fastann_rma_deposits_total")
        + snap
            .counter("fastann_master_merge_ops_total", &[("path", "two_sided")])
            .unwrap_or(0)
        + 2 * ix.config.n_nodes() as u64;
    rec.put("mpisim.msgs_per_query", msgs as f64 / queries, "count");

    // CPU of the real batch against the replayed CPU self times of its
    // parts: routes and probes (measured), wire coding per probe and one
    // cluster spawn. What remains is messaging, scheduling and the merge.
    if let (false, Some(replay_cpu)) = (cpu.is_empty(), replay_cpu) {
        let run_cpu = median(&cpu);
        let attributed = replay_cpu + q.probe_ns.len() as f64 * wire * 1e3 + spawn * 1e3;
        rec.put("core.run_cpu_ms", run_cpu / 1e6, "ms");
        rec.put(
            "core.unattributed_frac",
            (run_cpu - attributed) / run_cpu,
            "frac",
        );
    }
}
