//! `hostbench` — host-time benchmark of the fastann engine.
//!
//! ```text
//! hostbench --workload NAME --seed N --seconds S --trace 0|1
//!   --workload  batch_mdc | serve_zipf | churn_rw
//!   --seed      workload seed: the same seed gives the same inputs
//!   --seconds   length of the measured window
//!   --trace     0: end-to-end metrics; 1: per-layer metrics from a
//!               traced run (spans written to hostbench/traces/)
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Everything else goes to
//! standard error. METRICS.md maps each metric to its layer.

mod batch;
mod churn;
mod common;
mod layers;
mod serve;
mod stats;
mod trace;

use common::{pool_width, Args, Record};
use trace::Tracer;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("index_mb", "MiB"),
    ("recall_at_10", "frac"),
    ("search_qps", "q/s"),
    ("host_us_per_req", "us"),
    ("virtual_query_ms", "ms"),
    ("p50_virtual_us", "us"),
    ("p99_virtual_us", "us"),
    ("max_rate_qps", "q/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload does not use reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.threads", "count"),
    ("bench.host_cores", "count"),
    ("bench.latency_samples", "count"),
    ("data.l2_ns", "ns"),
    ("data.sq8_ns", "ns"),
    ("hnsw.probes", "count"),
    ("hnsw.probe_us", "us"),
    ("hnsw.probe_p99_us", "us"),
    ("hnsw.ndist_per_probe", "count"),
    ("hnsw.hops_per_probe", "count"),
    ("hnsw.ns_per_dist", "ns"),
    ("hnsw.kernel_share", "frac"),
    ("hnsw.kernel_share_exact", "frac"),
    ("hnsw.exact_probe_us", "us"),
    ("hnsw.sq8_speedup", "x"),
    ("hnsw.replay_ndist", "count"),
    ("hnsw.engine_ndist", "count"),
    ("hnsw.model_dist_ns", "ns"),
    ("hnsw.calibrated_dist_ns", "ns"),
    ("hnsw.cost_model_ratio", "x"),
    ("hnsw.cost_model_ratio_exact", "x"),
    ("hnsw.calibrated_ratio", "x"),
    ("hnsw.calibrated_ratio_exact", "x"),
    ("hnsw.build_s", "s"),
    ("hnsw.build_ndist", "count"),
    ("hnsw.repair_ms", "ms"),
    ("core.route_us", "us"),
    ("core.fanout", "count"),
    ("core.dispatch_us", "us"),
    ("core.run_cpu_ms", "ms"),
    ("core.unattributed_frac", "frac"),
    ("core.write_us", "us"),
    ("core.compact_s", "s"),
    ("core.insert_us", "us"),
    ("core.delete_us", "us"),
    ("core.maintenance_ndist_per_write", "count"),
    ("core.build_vptree_virtual_ms", "ms"),
    ("core.shuffle_bytes", "bytes"),
    ("mpisim.spawn_us", "us"),
    ("mpisim.roundtrip_us", "us"),
    ("mpisim.wire_us", "us"),
    ("mpisim.msgs_per_query", "count"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.cache_lookup_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.rejected_overloaded", "count"),
    ("serve.rejected_deadline", "count"),
    ("serve.rejected_hot_partition", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.replica_raises", "count"),
    ("obs.base_run_ms", "ms"),
    ("obs.overhead_frac", "frac"),
    ("trace.search_qps", "q/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

type Workload = fn(&Args, usize, &mut Record, &mut Tracer);

fn workload(name: &str) -> Option<Workload> {
    match name {
        "batch_mdc" => Some(batch::run),
        "serve_zipf" => Some(serve::run),
        "churn_rw" => Some(churn::run),
        _ => None,
    }
}

fn run_once(w: Workload, args: &Args, threads: usize, traced: bool) -> (Record, Tracer) {
    let mut rec = Record::default();
    let mut tr = Tracer::new(traced);
    rayon::with_num_threads(threads, || w(args, threads, &mut rec, &mut tr));
    (rec, tr)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "hostbench: unknown workload {:?} (batch_mdc, serve_zipf, churn_rw)",
            args.workload
        );
        std::process::exit(2);
    };
    let threads = pool_width();
    eprintln!(
        "hostbench: {} seed {} for {} s, pool width {threads}, trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );

    let (rec, names) = if args.trace {
        // the untraced pass first, then the traced one: the difference in
        // read throughput is the tracing overhead
        let (plain, _) = run_once(w, &args, threads, false);
        let (mut rec, tr) = run_once(w, &args, threads, true);
        let untraced = plain.get("search_qps").unwrap_or(0.0);
        let traced = rec.get("search_qps").unwrap_or(0.0);
        rec.put("trace.search_qps", traced, "q/s");
        rec.put(
            "trace.overhead_frac",
            untraced / traced.max(1e-9) - 1.0,
            "frac",
        );
        rec.put("trace.spans", tr.spans().len() as f64, "count");
        rec.put("bench.threads", threads as f64, "count");
        rec.put(
            "bench.host_cores",
            std::thread::available_parallelism().map_or(1, usize::from) as f64,
            "count",
        );
        for (name, ok) in plain.checks() {
            if !ok {
                rec.check(format!("untraced pass: {name}"), false);
            }
        }
        write_spans(&args, &tr);
        for (name, self_ns) in tr.self_time_by_name() {
            eprintln!("hostbench: self time {name:<32} {:>12.3} ms", self_ns / 1e6);
        }
        (rec, PER_LAYER)
    } else {
        (run_once(w, &args, threads, false).0, END_TO_END)
    };

    for (name, v, unit) in rec.metrics() {
        eprintln!("hostbench: {name:<36} {v:>16.6} {unit}");
    }
    for (name, ok) in rec.checks() {
        eprintln!(
            "hostbench: check {} {name}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    let missing: Vec<&str> = names
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| rec.get(n).is_none())
        .collect();
    if !missing.is_empty() {
        eprintln!("hostbench: not measured on this workload (reported as 0): {missing:?}");
    }
    println!("{}", rec.to_json(names));
    if !rec.correct() {
        std::process::exit(1);
    }
}

/// Writes the spans as JSON lines under `hostbench/traces/`.
fn write_spans(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new("hostbench/traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
        Ok(()) => eprintln!(
            "hostbench: {} spans -> {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("hostbench: could not write {}: {e}", path.display()),
    }
}
