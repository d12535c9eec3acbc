//! `serveload` — the load generator for the online serving runtime.
//! Emits one `BENCH_serve_<dataset>.json` per dataset with an open-loop
//! (seeded Poisson arrivals, two tenants, mixed deadlines) and a
//! closed-loop (fixed client population) leg, both driven entirely in
//! virtual time through [`fastann_serve::ServeRuntime`]. The `zipf`
//! dataset instead runs the same Zipf-skewed open-loop stream twice —
//! static round-robin routing versus the adaptive replication
//! controller — and reports both legs side by side.
//!
//! ```text
//! serveload [--smoke] [--seed N] [--out DIR] [--metrics] [--only NAME] [--gate]
//!   --smoke    tiny synthetic dataset only (the CI smoke invocation)
//!   --seed     workload seed (default 42); same seed => byte-identical JSON
//!   --out      directory for the BENCH_serve_*.json files (default: .)
//!   --metrics  attach a fastann-obs registry to the runtime, embed its
//!              JSON snapshot in the BENCH file and write the Prometheus
//!              rendering next to it as METRICS_serve_<dataset>.prom
//!   --only     substring filter on dataset names (SMOKE / synthetic / zipf)
//!   --gate     fail unless the zipf leg's adaptive routing beats static
//!              routing on rejection rate and p99 latency
//! ```
//!
//! Every quantity in the report is virtual, so the file is a
//! reproducible artifact, not a host measurement: rerunning with the
//! same seed — at any thread count, on any machine — must produce the
//! same bytes, and `ci.sh` enforces exactly that with `cmp`.

use std::fmt::Write as _;

use fastann_core::{DistIndex, EngineConfig, Mutation, RoutingPolicy, SearchOptions};
use fastann_data::quant::Sq8;
use fastann_data::{synth, VectorSet};
use fastann_hnsw::HnswConfig;
use fastann_obs::{Metrics, MetricsSnapshot};
use fastann_serve::{
    AdmissionPolicy, ClosedLoopSpec, ClosedRequest, ControllerPolicy, Request, ServeConfig,
    ServeReport, ServeRuntime,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Args {
    smoke: bool,
    seed: u64,
    out: String,
    metrics: bool,
    only: Option<String>,
    gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        seed: 42,
        out: ".".to_string(),
        metrics: false,
        only: None,
        gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                args.seed = v.parse().expect("--seed must be a number");
            }
            "--out" => args.out = it.next().expect("--out needs a directory"),
            "--metrics" => args.metrics = true,
            "--only" => args.only = Some(it.next().expect("--only needs a dataset name")),
            "--gate" => args.gate = true,
            other => {
                eprintln!(
                    "unknown argument {other:?} (try --smoke / --seed / --out / --metrics / --only / --gate)"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

struct Workload {
    name: &'static str,
    points: usize,
    dim: usize,
    open_requests: usize,
    open_rate_qps: f64,
    closed_clients: usize,
    closed_requests: usize,
}

const SMOKE: Workload = Workload {
    name: "SMOKE",
    points: 2_000,
    dim: 16,
    open_requests: 120,
    open_rate_qps: 20_000.0,
    closed_clients: 6,
    closed_requests: 60,
};

const SYNTHETIC: Workload = Workload {
    name: "synthetic",
    points: 20_000,
    dim: 32,
    open_requests: 2_000,
    open_rate_qps: 40_000.0,
    closed_clients: 16,
    closed_requests: 800,
};

const K: usize = 10;

/// Open-loop arrivals: a seeded Poisson process (exponential
/// inter-arrival gaps) over a pool of near-corpus queries, with ~25% of
/// the stream re-submitting an earlier query (cache food), two tenants,
/// and a 20 ms deadline on every fourth request.
fn open_workload(data: &VectorSet, w: &Workload, seed: u64) -> Vec<Request> {
    let pool = synth::queries_near(data, w.open_requests / 2 + 1, 0.02, seed ^ 0x9e37);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / w.open_rate_qps;
    let mut at = 0.0f64;
    let mut reqs = Vec::with_capacity(w.open_requests);
    for i in 0..w.open_requests {
        let u: f64 = rng.gen();
        at += -((1.0 - u).max(1e-12_f64)).ln() * mean_gap_ns;
        let reuse = rng.gen_bool(0.25) && i > 0;
        let qi = if reuse {
            rng.gen_range(0..(i / 2 + 1).min(pool.len()))
        } else {
            i % pool.len()
        };
        let mut r = Request::new(i as u64, at, pool.get(qi).to_vec(), K).tenant((i % 2) as u32);
        if i % 4 == 0 {
            r = r.deadline_ns(at + 2e7);
        }
        reqs.push(r);
    }
    reqs
}

fn emit(
    name: &str,
    out_dir: &str,
    open: &ServeReport,
    closed: &ServeReport,
    seed: u64,
    snap: Option<&MetricsSnapshot>,
) {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"dataset\": \"serve_{name}\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"k\": {K},");
    let _ = writeln!(s, "  \"open_loop\":");
    s.push_str(&open.to_json("  "));
    s.push_str(",\n");
    let _ = writeln!(s, "  \"closed_loop\":");
    s.push_str(&closed.to_json("  "));
    if let Some(snap) = snap {
        s.push_str(",\n");
        let _ = writeln!(s, "  \"metrics\":");
        s.push_str(&snap.to_json("  "));
    }
    s.push('\n');
    s.push_str("}\n");
    let path = format!("{out_dir}/BENCH_serve_{name}.json");
    std::fs::write(&path, s).expect("write BENCH_serve json");
    if let Some(snap) = snap {
        let prom = format!("{out_dir}/METRICS_serve_{name}.prom");
        std::fs::write(&prom, snap.to_prometheus()).expect("write METRICS_serve prom");
        println!("{prom}: {} series", snap.len());
    }
    println!(
        "{path}: open {:.0} qps (p99 {:.0} us, {:.1}% rejected, cache {:.0}% hit), \
         closed {:.0} qps over {} clients",
        open.throughput_qps,
        open.p99_ns / 1e3,
        open.rejection_rate() * 100.0,
        open.cache.hit_rate() * 100.0,
        closed.throughput_qps,
        closed.requests,
    );
}

fn run(w: &Workload, seed: u64, out_dir: &str, metrics: bool) {
    eprintln!(
        "serveload: {} ({} x {}, {} open + {} closed requests) ...",
        w.name, w.points, w.dim, w.open_requests, w.closed_requests
    );
    let data = synth::sift_like(w.points, w.dim, seed);
    let build = |s: u64| {
        DistIndex::build(
            &data,
            EngineConfig::new(8, 2)
                .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(s))
                .with_seed(s)
                .with_threads(rayon::current_num_threads()),
        )
    };

    // open loop: Poisson arrivals against guarded admission
    let cfg = ServeConfig::new(SearchOptions::new(K))
        .with_batch(16, 150_000.0)
        .with_cache_capacity(256)
        .with_admission(AdmissionPolicy {
            tenant_rate_qps: w.open_rate_qps,
            tenant_burst: 32.0,
            max_queue_depth: 128,
            partition_queue_depth: usize::MAX,
        });
    let mut rt = ServeRuntime::new(build(seed), Sq8::encode(&data), cfg);
    // One registry spans both legs: the snapshot folds the serving-layer
    // series and the engine-side ones (router, HNSW, workers, merge) from
    // every dispatched batch, and is bit-identical at any thread count.
    let obs = metrics.then(Metrics::new);
    if let Some(m) = &obs {
        rt.set_metrics(m);
    }
    let open = rt.serve_open(open_workload(&data, w, seed)).report;

    // protocol sanity: the run must conserve requests and make progress
    assert_eq!(
        open.requests,
        open.completed
            + open.rejected_overloaded
            + open.rejected_deadline
            + open.rejected_hot_partition,
        "{}: open-loop outcomes must cover every request",
        w.name
    );
    assert!(
        open.throughput_qps > 0.0,
        "{}: open-loop throughput must be nonzero",
        w.name
    );

    // live-mutation leg: a deterministic churn slice (deletes + upserts)
    // through the runtime, so the metrics snapshot carries the mutation
    // series and the cache-epoch invalidation path runs end to end
    let dead: Vec<u32> = (0..w.points as u32).step_by(97).take(8).collect();
    let mut churn: Vec<Mutation> = dead
        .iter()
        .map(|&g| Mutation::Delete { global_id: g })
        .collect();
    let fresh_rows = synth::sift_like(4, w.dim, seed ^ 0x777);
    churn.extend(fresh_rows.iter().map(|v| Mutation::Upsert {
        global_id: None,
        vector: v.to_vec(),
    }));
    let mutated = rt.apply_mutations(churn);
    assert!(
        mutated
            .outcomes
            .iter()
            .all(fastann_core::MutationOutcome::effective),
        "{}: every churn mutation must apply",
        w.name
    );
    let probe = rt.serve_open(
        dead.iter()
            .enumerate()
            .map(|(i, &g)| Request::new(i as u64, 0.0, data.get(g as usize).to_vec(), K))
            .collect(),
    );
    for c in probe
        .outcomes
        .iter()
        .filter_map(fastann_serve::Outcome::completion)
    {
        assert!(
            c.results.iter().all(|n| !dead.contains(&n.id)),
            "{}: deleted id surfaced after churn",
            w.name
        );
    }

    // closed loop: a fixed client population, fresh runtime (and a
    // rebuilt index installed first, to exercise the epoch path)
    rt.install_index(build(seed ^ 0x5bd1));
    let pool = synth::queries_near(&data, w.closed_requests / 4 + 1, 0.02, seed ^ 0x51ed);
    let closed = rt
        .serve_closed(
            ClosedLoopSpec {
                clients: w.closed_clients,
                total_requests: w.closed_requests,
            },
            |id, client| ClosedRequest {
                query: pool.get(id as usize % pool.len()).to_vec(),
                k: K,
                tenant: (client % 2) as u32,
                deadline_rel_ns: f64::INFINITY,
            },
        )
        .report;
    assert_eq!(
        closed.requests, w.closed_requests as u64,
        "{}: closed loop must issue exactly the configured total",
        w.name
    );
    assert_eq!(
        closed.requests,
        closed.completed
            + closed.rejected_overloaded
            + closed.rejected_deadline
            + closed.rejected_hot_partition,
        "{}: closed-loop outcomes must cover every request",
        w.name
    );
    assert!(
        closed.throughput_qps > 0.0,
        "{}: closed-loop throughput must be nonzero",
        w.name
    );

    let snap = obs.as_ref().map(Metrics::snapshot);
    emit(w.name, out_dir, &open, &closed, seed, snap.as_ref());
}

// --- the Zipf-skewed adaptive-vs-static leg ---------------------------

const ZIPF_POINTS: usize = 4_000;
const ZIPF_DIM: usize = 16;
const ZIPF_REQUESTS: usize = 800;
const ZIPF_RATE_QPS: f64 = 250_000.0;
/// Zipf exponent over partition ranks: rank 1 draws roughly 45% of the
/// stream on an 8-partition index.
const ZIPF_EXPONENT: f64 = 1.3;

/// A Zipf-skewed open-loop stream: each partition gets one representative
/// corpus row, partition ranks are a seeded shuffle, and every request
/// queries (a jittered copy of) the representative drawn from the Zipf
/// distribution over ranks — so one partition is persistently hot while
/// the tail stays nearly idle.
fn zipf_requests(data: &VectorSet, index: &DistIndex, seed: u64) -> Vec<Request> {
    let p = index.n_partitions();
    let mut reps: Vec<Option<usize>> = vec![None; p];
    for i in 0..data.len() {
        let h = index.home_partition(data.get(i)) as usize;
        if reps[h].is_none() {
            reps[h] = Some(i);
            if reps.iter().all(Option::is_some) {
                break;
            }
        }
    }
    let reps: Vec<usize> = reps.into_iter().map(|r| r.unwrap_or(0)).collect();

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x217f);
    let mut order: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    let mut cdf = Vec::with_capacity(p);
    let mut acc = 0.0f64;
    for rank in 0..p {
        acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
        cdf.push(acc);
    }
    let total = acc;

    let mean_gap_ns = 1e9 / ZIPF_RATE_QPS;
    let mut at = 0.0f64;
    let mut reqs = Vec::with_capacity(ZIPF_REQUESTS);
    for i in 0..ZIPF_REQUESTS {
        let u: f64 = rng.gen::<f64>() * total;
        let rank = cdf.partition_point(|&c| c < u).min(p - 1);
        let mut q = data.get(reps[order[rank]]).to_vec();
        for x in q.iter_mut() {
            *x += (rng.gen::<f32>() - 0.5) * 0.05;
        }
        let gap: f64 = rng.gen();
        at += -((1.0 - gap).max(1e-12_f64)).ln() * mean_gap_ns;
        reqs.push(Request::new(i as u64, at, q, K));
    }
    reqs
}

/// Runs the identical Zipf stream under static round-robin routing and
/// under the adaptive replication controller, and emits both reports
/// (plus the adaptive leg's metrics) as `BENCH_serve_zipf.json`. With
/// `gate`, the adaptive leg must beat the static one on rejection rate
/// and p99 latency, and must actually have raised a replica.
fn run_zipf(seed: u64, out_dir: &str, metrics: bool, gate: bool) {
    eprintln!(
        "serveload: zipf ({ZIPF_POINTS} x {ZIPF_DIM}, {ZIPF_REQUESTS} open requests, s = {ZIPF_EXPONENT}) ..."
    );
    let data = synth::sift_like(ZIPF_POINTS, ZIPF_DIM, seed);
    // one core per node, so extra replicas of a hot partition land on
    // otherwise-idle nodes instead of sharing the hot one
    let build = || {
        // tight routing (fan-out <= 2) keeps the Zipf skew visible at the
        // partition level — the default 4-way fan-out would smear the hot
        // stream across half the cluster
        DistIndex::build(
            &data,
            EngineConfig::new(8, 1)
                .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(seed))
                .with_route(fastann_vptree::RouteConfig {
                    margin_frac: 0.05,
                    max_partitions: 2,
                })
                .with_seed(seed)
                .with_threads(rayon::current_num_threads()),
        )
    };
    let reqs = zipf_requests(&data, &build(), seed);

    let leg = |routing: RoutingPolicy, obs: Option<&Metrics>| -> ServeReport {
        let cfg = ServeConfig::new(SearchOptions::new(K).with_routing(routing))
            .with_batch(16, 50_000.0)
            .with_cache_capacity(0)
            .with_admission(AdmissionPolicy {
                tenant_rate_qps: f64::INFINITY,
                tenant_burst: 64.0,
                max_queue_depth: 256,
                partition_queue_depth: 8,
            })
            // fan-out 2 dilutes the per-partition share (a hot query also
            // probes its runner-up partition), so the hot threshold sits
            // below the default 35%
            .with_controller(
                ControllerPolicy::new()
                    .with_window_ns(2e6)
                    .with_shares(0.22, 0.05),
            );
        let mut rt = ServeRuntime::new(build(), Sq8::encode(&data), cfg);
        if let Some(m) = obs {
            rt.set_metrics(m);
        }
        let report = rt.serve_open(reqs.clone()).report;
        assert_eq!(
            report.requests,
            report.completed
                + report.rejected_overloaded
                + report.rejected_deadline
                + report.rejected_hot_partition,
            "zipf: outcomes must cover every request"
        );
        assert!(report.throughput_qps > 0.0, "zipf: nonzero throughput");
        report
    };

    let fixed = leg(RoutingPolicy::Static(1), None);
    let obs = metrics.then(Metrics::new);
    let adaptive = leg(RoutingPolicy::PowerOfTwo { base: 1, max: 4 }, obs.as_ref());

    println!(
        "zipf: static  {:.1}% rejected (hot {}), p99 {:.0} us",
        fixed.rejection_rate() * 100.0,
        fixed.rejected_hot_partition,
        fixed.p99_ns / 1e3,
    );
    println!(
        "zipf: adaptive {:.1}% rejected (hot {}), p99 {:.0} us, \
         {} raises / {} decays, final replicas {:?}",
        adaptive.rejection_rate() * 100.0,
        adaptive.rejected_hot_partition,
        adaptive.p99_ns / 1e3,
        adaptive.replica_raises,
        adaptive.replica_decays,
        adaptive.final_replicas,
    );
    if gate {
        assert!(
            fixed.rejected_hot_partition > 0,
            "zipf gate: the static leg must actually stress the hot partition"
        );
        assert!(
            adaptive.replica_raises > 0,
            "zipf gate: the controller must raise at least one replica"
        );
        assert!(
            adaptive.rejection_rate() < fixed.rejection_rate(),
            "zipf gate: adaptive rejection rate {:.4} must beat static {:.4}",
            adaptive.rejection_rate(),
            fixed.rejection_rate()
        );
        assert!(
            adaptive.p99_ns < fixed.p99_ns,
            "zipf gate: adaptive p99 {:.0} ns must beat static {:.0} ns",
            adaptive.p99_ns,
            fixed.p99_ns
        );
    }

    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"dataset\": \"serve_zipf\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"k\": {K},");
    let _ = writeln!(s, "  \"zipf_exponent\": {ZIPF_EXPONENT},");
    let _ = writeln!(s, "  \"static\":");
    s.push_str(&fixed.to_json("  "));
    s.push_str(",\n");
    let _ = writeln!(s, "  \"adaptive\":");
    s.push_str(&adaptive.to_json("  "));
    let snap = obs.as_ref().map(Metrics::snapshot);
    if let Some(snap) = &snap {
        s.push_str(",\n");
        let _ = writeln!(s, "  \"metrics\":");
        s.push_str(&snap.to_json("  "));
    }
    s.push('\n');
    s.push_str("}\n");
    let path = format!("{out_dir}/BENCH_serve_zipf.json");
    std::fs::write(&path, s).expect("write BENCH_serve_zipf json");
    println!("{path}: written");
    if let Some(snap) = &snap {
        let prom = format!("{out_dir}/METRICS_serve_zipf.prom");
        std::fs::write(&prom, snap.to_prometheus()).expect("write METRICS_serve_zipf prom");
        println!("{prom}: {} series", snap.len());
    }
}

fn main() {
    let args = parse_args();
    let std_name = if args.smoke { "SMOKE" } else { "synthetic" };
    let std_selected = args.only.as_deref().is_none_or(|o| std_name.contains(o));
    let zipf_selected = args
        .only
        .as_deref()
        .map_or(!args.smoke, |o| "zipf".contains(o));
    if !std_selected && !zipf_selected {
        eprintln!(
            "serveload: --only {:?} matches no dataset (SMOKE / synthetic / zipf)",
            args.only.unwrap_or_default()
        );
        std::process::exit(2);
    }
    if std_selected {
        run(
            if args.smoke { &SMOKE } else { &SYNTHETIC },
            args.seed,
            &args.out,
            args.metrics,
        );
    }
    if zipf_selected {
        run_zipf(args.seed, &args.out, args.metrics, args.gate);
    }
}
