//! `batch_mdc`: one offline batch of queries drawn from a single MDCGen
//! cluster (the paper's query generation), run by `SearchRequest::run`
//! with default options against a 16-core / 4-node index over clustered
//! 256-dimensional data.

use std::time::Instant;

use fastann_core::{DistIndex, EngineConfig, SearchOptions, SearchRequest};
use fastann_data::synth::mdcgen;
use fastann_data::{ground_truth, Distance, VectorSet};

use crate::common::{
    index_mb, put_latency, put_maintenance, share, timed, write_and_compact, Args, Record, Singles,
};
use crate::layers::{record_engine_layers, EngineLayers};
use crate::stats::recall_mapped;
use crate::trace::Tracer;

/// The corpus and the index are fixed; `--seed` draws the query batch and
/// the writes.
const DATA_SEED: u64 = 0x10a7;
/// The MDCGen cluster the queries are drawn from.
const QUERY_CLUSTER: usize = 6;
const POINTS: usize = 32_000;
const DIM: usize = 256;
const QUERIES: usize = 1_000;
const K: usize = 10;
/// Builds per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Deletes (and as many inserts) in each write-and-compact leg, all from
/// one partition, so compaction rebuilds that one.
const WRITES: usize = 512;
const RECALL_FLOOR: f64 = 0.90;
/// One-query requests for the per-request latency and host cost.
const SINGLES: usize = 1_000;
/// Queries compared at one thread and at the pool width.
const THREAD_SAMPLE: usize = 100;

pub fn run(args: &Args, threads: usize, rec: &mut Record, tr: &mut Tracer) {
    let ds = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: POINTS,
        dim: DIM,
        n_clusters: 10,
        n_outliers: POINTS / 200,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: DATA_SEED,
    });
    let queries = ds.queries_from_cluster(QUERIES, QUERY_CLUSTER, 0.01, args.seed);
    let data = ds.points;
    let cfg = EngineConfig::new(16, 4)
        .with_seed(DATA_SEED)
        .with_threads(threads);
    let opts = SearchOptions::new(K);

    // set-up: the distributed build, several times; the first index serves
    // the reads, the others go straight to the write-and-compact leg
    let mut setup = Vec::with_capacity(SETUPS);
    let mut legs = Vec::new();
    let mut index: Option<DistIndex> = None;
    for i in 0..SETUPS {
        let ((ix, secs), _) = tr.span("core.dist_index_build", None, i as u64, |_, _| {
            timed(|| DistIndex::build(&data, cfg.clone()))
        });
        setup.push(secs);
        match &index {
            None => index = Some(ix),
            Some(first) => {
                rec.check(
                    format!("build {i} reproduces the first build's stats"),
                    ix.build_stats == first.build_stats,
                );
                let mut ix = ix;
                legs.push(write_and_compact(&mut ix, WRITES, 1, args.seed, rec, tr));
            }
        }
    }
    let mut ix = index.expect("at least one build");
    rec.put_median("setup_s", &setup, "s");
    rec.put("index_mb", index_mb(&ix), "MiB");

    let truth = rayon::with_num_threads(threads, || {
        ground_truth::brute_force(&data, &queries, K, Distance::L2)
    });

    // the measured window: the same batch, again and again
    let first = SearchRequest::new(&ix, &queries).opts(opts).run();
    let mut secs = Vec::new();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while secs.len() < 5 || Instant::now() < t_end {
        let ((report, s), _) = tr.span("core.search_request", None, secs.len() as u64, |_, _| {
            timed(|| SearchRequest::new(&ix, &queries).opts(opts).run())
        });
        secs.push(s);
        rec.attempted += QUERIES as u64;
        rec.failed += report.degraded_count() as u64;
        if report != first {
            rec.check(
                format!("batch repeat {} answers like the first", secs.len()),
                false,
            );
        }
    }
    let qps: Vec<f64> = secs.iter().map(|s| QUERIES as f64 / s).collect();
    let per_query: Vec<f64> = secs.iter().map(|s| s * 1e6 / QUERIES as f64).collect();
    rec.put_median("search_qps", &qps, "q/s");
    rec.put_median("host_us_per_req", &per_query, "us");
    rec.put("virtual_query_ms", first.total_ns / 1e6, "ms");
    rec.put("max_rate_qps", first.throughput_qps(), "q/s");
    let recall = recall_mapped(&first.results, &truth, K, Some);
    rec.put("recall_at_10", recall, "frac");
    rec.check(
        format!("recall@10 {recall:.4} >= {RECALL_FLOOR}"),
        recall >= RECALL_FLOOR,
    );
    rec.check("no degraded query", !first.any_degraded());

    // one query per request: virtual latency (and, traced, host cost)
    let singles = Singles::run(&ix, &queries, opts, SINGLES, tr, None);
    put_latency(rec, &singles.virtual_us);

    // bit-identical answers at one thread and at the pool width
    let sample = VectorSet::from_rows(
        &(0..THREAD_SAMPLE)
            .map(|i| queries.get(i))
            .collect::<Vec<_>>(),
    );
    let at_width = SearchRequest::new(&ix, &sample).opts(opts).run();
    let one = share(&ix, 1);
    let at_one = SearchRequest::new(&one, &sample).opts(opts).run();
    drop(one);
    rec.check(
        format!("answers at 1 and {threads} threads are bit-identical"),
        at_one == at_width,
    );

    if tr.enabled() {
        rec.put_median("core.dispatch_us", &singles.host_us, "us");
        record_engine_layers(
            &EngineLayers {
                ix: &ix,
                batch: &queries,
                opts,
                engine_ndist: Some(first.total_ndist),
            },
            &data,
            rec,
            tr,
        );
    }

    legs.push(write_and_compact(&mut ix, WRITES, 1, args.seed, rec, tr));
    put_maintenance(rec, &legs);
}
