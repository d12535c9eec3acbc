//! `serve_zipf`: open-loop Poisson arrivals in virtual time through
//! `ServeRuntime::serve_open` on low-dimensional data. Query popularity is
//! Zipf-skewed, so repeats hit the result cache and one partition runs hot;
//! routing is adaptive (power of two choices), with two tenants and a
//! deadline on every fourth request. The stream is served at a headline
//! rate, and a rate ladder finds the highest rate that meets the latency
//! limit.

use std::time::Instant;

use fastann_core::{DistIndex, EngineConfig, RouteConfig, RoutingPolicy, SearchOptions};
use fastann_data::quant::Sq8;
use fastann_data::{ground_truth, synth, Distance, VectorSet};
use fastann_hnsw::HnswConfig;
use fastann_obs::Metrics;
use fastann_serve::{
    AdmissionPolicy, ControllerPolicy, Outcome, Request, ServeConfig, ServeReport, ServeRun,
    ServeRuntime,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    index_mb, put_latency, put_maintenance, share, timed, write_and_compact, Args, Record, Singles,
};
use crate::layers::{record_engine_layers, EngineLayers};
use crate::stats::{geometric_ladder, ladder_search, recall_mapped};
use crate::trace::Tracer;

/// The corpus and the index are fixed; `--seed` draws the request stream
/// and the writes.
const DATA_SEED: u64 = 0x5e7e;
const POINTS: usize = 20_000;
const DIM: usize = 32;
const K: usize = 10;
const REQUESTS: usize = 4_000;
/// The rate at which the end-to-end figures are taken (requests per
/// virtual second).
const HEADLINE_QPS: f64 = 40_000.0;
/// The latency limit on p99 that a ladder rate must meet (virtual µs).
const P99_LIMIT_US: f64 = 100.0;
/// The share of offered requests a ladder rate may fail (rejected or
/// answered after their deadline).
const MAX_FAILED_FRAC: f64 = 0.01;
/// Distinct queries per partition in the popularity pool.
const POOL_PER_PARTITION: usize = 512;
const PARTITION_ZIPF: f64 = 1.3;
const QUERY_ZIPF: f64 = 1.0;
/// Result-cache entries: small enough that the popular head of the stream
/// hits and the tail misses.
const CACHE_ENTRIES: usize = 32;
const SETUPS: usize = 5;
/// Deletes (and as many inserts) in each write-and-compact leg, drawn from
/// every partition, so compaction rebuilds them all.
const WRITES: usize = 512;
const RECALL_FLOOR: f64 = 0.85;

/// The request stream before it is given a rate: each request's pool
/// query and its exponential gap at rate 1.
struct Stream {
    pool: VectorSet,
    picks: Vec<usize>,
    unit_gaps: Vec<f64>,
}

impl Stream {
    fn new(data: &VectorSet, ix: &DistIndex, seed: u64) -> Stream {
        let p = ix.n_partitions();
        let candidates = synth::queries_near(data, 2 * p * POOL_PER_PARTITION, 0.02, seed ^ 0x9e37);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); p];
        for i in 0..candidates.len() {
            let h = ix.home_partition(candidates.get(i)) as usize;
            if buckets[h].len() < POOL_PER_PARTITION {
                buckets[h].push(i);
            }
        }
        let mut pool = VectorSet::new(data.dim());
        let mut ranges = Vec::new();
        for b in &buckets {
            let start = pool.len();
            for &i in b {
                pool.push(candidates.get(i));
            }
            if pool.len() > start {
                ranges.push(start..pool.len());
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x217f);
        for i in (1..ranges.len()).rev() {
            ranges.swap(i, rng.gen_range(0..i + 1));
        }
        let part_cdf = zipf_cdf(ranges.len(), PARTITION_ZIPF);
        let mut picks = Vec::with_capacity(REQUESTS);
        let mut unit_gaps = Vec::with_capacity(REQUESTS);
        for _ in 0..REQUESTS {
            let r = &ranges[draw(&part_cdf, &mut rng)];
            let q_cdf = zipf_cdf(r.len(), QUERY_ZIPF);
            picks.push(r.start + draw(&q_cdf, &mut rng));
            let u: f64 = rng.gen();
            unit_gaps.push(-(1.0 - u).max(1e-12).ln());
        }
        Stream {
            pool,
            picks,
            unit_gaps,
        }
    }

    /// The stream at `rate` requests per virtual second: two tenants, a
    /// 20 ms deadline on every fourth request.
    fn at(&self, rate: f64, n: usize) -> Vec<Request> {
        let mut at = 0.0;
        (0..n.min(self.picks.len()))
            .map(|i| {
                at += self.unit_gaps[i] * 1e9 / rate;
                let q = self.pool.get(self.picks[i]).to_vec();
                let r = Request::new(i as u64, at, q, K).tenant((i % 2) as u32);
                if i % 4 == 0 {
                    r.deadline_ns(at + 2e7)
                } else {
                    r
                }
            })
            .collect()
    }
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            acc
        })
        .collect()
}

fn draw(cdf: &[f64], rng: &mut SmallRng) -> usize {
    let u = rng.gen::<f64>() * cdf.last().copied().unwrap_or(0.0);
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn serve_config() -> ServeConfig {
    ServeConfig::new(
        SearchOptions::new(K).with_routing(RoutingPolicy::PowerOfTwo { base: 1, max: 4 }),
    )
    .with_batch(16, 50_000.0)
    .with_cache_capacity(CACHE_ENTRIES)
    .with_admission(AdmissionPolicy {
        tenant_rate_qps: f64::INFINITY,
        tenant_burst: 64.0,
        max_queue_depth: 256,
        partition_queue_depth: 32,
    })
    .with_controller(
        ControllerPolicy::new()
            .with_window_ns(2e6)
            .with_shares(0.22, 0.05),
    )
}

/// Requests that failed: refused, or answered after their deadline.
fn failed(r: &ServeReport) -> u64 {
    r.rejected_overloaded + r.rejected_deadline + r.rejected_hot_partition + r.deadline_misses
}

fn conserved(r: &ServeReport) -> bool {
    r.requests
        == r.completed + r.rejected_overloaded + r.rejected_deadline + r.rejected_hot_partition
}

fn latencies_us(run: &ServeRun) -> Vec<f64> {
    run.outcomes
        .iter()
        .filter_map(Outcome::completion)
        .map(|c| c.latency_ns() / 1e3)
        .collect()
}

pub fn run(args: &Args, threads: usize, rec: &mut Record, tr: &mut Tracer) {
    let data = synth::sift_like(POINTS, DIM, DATA_SEED);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40))
        .with_route(RouteConfig {
            margin_frac: 0.05,
            max_partitions: 2,
        })
        .with_seed(DATA_SEED)
        .with_threads(threads);
    let serve_cfg = serve_config();

    // set-up: build the index and stand a serving runtime up over it
    let mut setup = Vec::with_capacity(SETUPS);
    let mut extra: Vec<DistIndex> = Vec::new();
    let mut codec: Option<Sq8> = None;
    let mut index: Option<DistIndex> = None;
    for i in 0..SETUPS {
        let ((ix, secs), _) = tr.span("serve.setup", None, i as u64, |tr, me| {
            timed(|| {
                let (ix, _) = tr.span("core.dist_index_build", me, i as u64, |_, _| {
                    DistIndex::build(&data, cfg.clone())
                });
                let c = Sq8::encode(&data);
                let rt = ServeRuntime::new(share(&ix, threads), c.clone(), serve_cfg.clone());
                drop(rt);
                codec = Some(c);
                ix
            })
        });
        setup.push(secs);
        match &index {
            None => index = Some(ix),
            Some(_) => extra.push(ix),
        }
    }
    let mut ix = index.expect("at least one build");
    let codec = codec.expect("at least one codec");
    rec.put_median("setup_s", &setup, "s");
    rec.put("index_mb", index_mb(&ix), "MiB");

    let stream = Stream::new(&data, &ix, args.seed);
    let truth = rayon::with_num_threads(threads, || {
        ground_truth::brute_force(&data, &stream.pool, K, Distance::L2)
    });
    let serve_at = |ix: &DistIndex, th: usize, reqs: Vec<Request>, obs: Option<&Metrics>| {
        let mut rt = ServeRuntime::new(share(ix, th), codec.clone(), serve_cfg.clone());
        if let Some(m) = obs {
            rt.set_metrics(m);
        }
        timed(|| rt.serve_open(reqs))
    };

    // the measured window: the stream at the headline rate, again and again
    let headline = stream.at(HEADLINE_QPS, REQUESTS);
    let (first, _) = serve_at(&ix, threads, headline.clone(), None);
    let mut secs = Vec::new();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while secs.len() < 5 || Instant::now() < t_end {
        let reqs = headline.clone();
        let ((run, s), _) = tr.span("serve.serve_open", None, secs.len() as u64, |_, _| {
            serve_at(&ix, threads, reqs, None)
        });
        secs.push(s);
        rec.attempted += run.report.requests;
        rec.failed += failed(&run.report) + run.report.degraded;
        if !conserved(&run.report) {
            rec.check(
                "serve conserves requests (completed + rejected = offered)",
                false,
            );
        }
        if run.outcomes != first.outcomes {
            rec.check(
                format!("serve repeat {} answers like the first", secs.len()),
                false,
            );
        }
    }
    let r = &first.report;
    rec.check(
        format!("headline run conserves {} requests", r.requests),
        conserved(r) && r.requests == REQUESTS as u64,
    );
    let per_req: Vec<f64> = secs.iter().map(|s| s * 1e6 / REQUESTS as f64).collect();
    let qps: Vec<f64> = secs.iter().map(|s| r.completed as f64 / s).collect();
    rec.put_median("host_us_per_req", &per_req, "us");
    rec.put_median("search_qps", &qps, "q/s");
    rec.put(
        "virtual_query_ms",
        r.engine_busy_ns / r.batches.max(1) as f64 / 1e6,
        "ms",
    );
    put_latency(rec, &latencies_us(&first));

    // recall over the distinct queries served, so popular queries do not
    // weigh more than rare ones
    let mut seen = vec![false; stream.pool.len()];
    let (answers, truth_rows): (Vec<_>, Vec<_>) = first
        .outcomes
        .iter()
        .filter_map(Outcome::completion)
        .filter(|c| !std::mem::replace(&mut seen[stream.picks[c.id as usize]], true))
        .map(|c| {
            (
                c.results.clone(),
                truth[stream.picks[c.id as usize]].clone(),
            )
        })
        .unzip();
    let recall = recall_mapped(&answers, &truth_rows, K, Some);
    rec.put("recall_at_10", recall, "frac");
    rec.check(
        format!("served recall@10 {recall:.4} >= {RECALL_FLOOR}"),
        recall >= RECALL_FLOOR,
    );

    // the rate ladder: highest rate whose p99 and failures stay in bounds
    let ladder = geometric_ladder(10_000.0, 2f64.powf(0.125), 81);
    let mut rungs: Vec<(f64, ServeReport)> = Vec::new();
    let (best, _) = ladder_search(&ladder, |rate| {
        let ((run, _), _) = tr.span("serve.ladder_rung", None, rate as u64, |_, _| {
            serve_at(&ix, threads, stream.at(rate, REQUESTS), None)
        });
        let rep = run.report;
        let ok = conserved(&rep)
            && rep.p99_ns / 1e3 <= P99_LIMIT_US
            && failed(&rep) as f64 <= MAX_FAILED_FRAC * rep.requests as f64;
        eprintln!(
            "hostbench: ladder {rate:>10.0} q/s: p99 {:.1} us, {} failed, {}",
            rep.p99_ns / 1e3,
            failed(&rep),
            if ok {
                "meets the limit"
            } else {
                "over the limit"
            }
        );
        rungs.push((rate, rep));
        ok
    });
    rec.check(
        "every ladder rung conserves requests",
        rungs.iter().all(|(_, r)| conserved(r)),
    );
    let max_rate = best.map_or(0.0, |i| ladder[i]);
    rec.check(
        format!("the ladder finds a rate that meets the limit ({max_rate})"),
        max_rate > 0.0,
    );
    rec.put("max_rate_qps", max_rate, "q/s");

    // bit-identical answers at one thread and at the pool width
    let sample = stream.at(HEADLINE_QPS, 500);
    let (at_one, _) = serve_at(&ix, 1, sample.clone(), None);
    let (at_width, _) = serve_at(&ix, threads, sample, None);
    rec.check(
        format!("served answers at 1 and {threads} threads are bit-identical"),
        at_one.outcomes == at_width.outcomes,
    );

    if tr.enabled() {
        record_serve_layers(
            &ix,
            &stream,
            &first,
            &rungs,
            &data,
            rec,
            tr,
            |ix, reqs, m| serve_at(ix, threads, reqs, Some(m)).0,
        );
    }

    // write-and-compact on every built index, then a cache-invalidation
    // check through the serving runtime itself
    let mut legs = Vec::new();
    for mut e in extra {
        legs.push(write_and_compact(
            &mut e,
            WRITES,
            usize::MAX,
            args.seed,
            rec,
            tr,
        ));
    }
    legs.push(write_and_compact(
        &mut ix,
        WRITES,
        usize::MAX,
        args.seed,
        rec,
        tr,
    ));
    put_maintenance(rec, &legs);
    check_cache_invalidation(ix, codec, serve_cfg, &stream, rec);
}

/// Warms the result cache, deletes ids the cached answers hold through
/// `ServeRuntime::apply_mutations`, serves the same requests again and
/// checks that no deleted id is served.
fn check_cache_invalidation(
    ix: DistIndex,
    codec: Sq8,
    cfg: ServeConfig,
    stream: &Stream,
    rec: &mut Record,
) {
    let mut rt = ServeRuntime::new(ix, codec, cfg);
    let reqs = stream.at(HEADLINE_QPS, 1_000);
    let warm = rt.serve_open(reqs.clone());
    let mut deleted: Vec<u32> = warm
        .outcomes
        .iter()
        .filter_map(Outcome::completion)
        .filter_map(|c| c.results.first().map(|n| n.id))
        .collect();
    deleted.sort_unstable();
    deleted.dedup();
    deleted.truncate(16);
    let report = rt.apply_mutations(
        deleted
            .iter()
            .map(|&g| fastann_core::Mutation::Delete { global_id: g })
            .collect(),
    );
    rec.attempted += deleted.len() as u64;
    rec.check(
        "cache-invalidation deletes apply",
        report.outcomes.iter().all(|o| o.effective()),
    );
    let again = rt.serve_open(reqs);
    let hits = again.report.cache.hits;
    let leaked = again
        .outcomes
        .iter()
        .filter_map(Outcome::completion)
        .flat_map(|c| c.results.iter())
        .filter(|n| deleted.binary_search(&n.id).is_ok())
        .count();
    rec.check(
        format!("no deleted id served after a delete ({leaked} found, {hits} cache hits)"),
        leaked == 0,
    );
}

#[allow(clippy::too_many_arguments)]
fn record_serve_layers(
    ix: &DistIndex,
    stream: &Stream,
    first: &ServeRun,
    rungs: &[(f64, ServeReport)],
    data: &VectorSet,
    rec: &mut Record,
    tr: &mut Tracer,
    serve_metered: impl Fn(&DistIndex, Vec<Request>, &Metrics) -> ServeRun,
) {
    let r = &first.report;
    rec.put("serve.cache_hit_rate", r.cache.hit_rate(), "frac");
    rec.put("serve.batches", r.batches as f64, "count");
    rec.put("serve.mean_batch", r.mean_batch, "count");
    rec.put("serve.replica_raises", r.replica_raises as f64, "count");
    let sum = |f: fn(&ServeReport) -> u64| rungs.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
    rec.put(
        "serve.rejected_overloaded",
        sum(|r| r.rejected_overloaded),
        "count",
    );
    rec.put(
        "serve.rejected_deadline",
        sum(|r| r.rejected_deadline),
        "count",
    );
    rec.put(
        "serve.rejected_hot_partition",
        sum(|r| r.rejected_hot_partition),
        "count",
    );
    rec.put("serve.deadline_misses", sum(|r| r.deadline_misses), "count");

    // the cache on its own: lookup (and insert on a miss) for the stream
    let mut cache = fastann_serve::ResultCache::new(Sq8::encode(data), CACHE_ENTRIES);
    let mut ns = Vec::with_capacity(stream.picks.len());
    for (i, &p) in stream.picks.iter().enumerate() {
        let q = stream.pool.get(p);
        let ((_, s), _) = tr.span("serve.cache_lookup", None, i as u64, |_, _| {
            timed(|| {
                if cache.lookup(q, K, Distance::L2).is_none() {
                    cache.insert(q, K, Distance::L2, Vec::new());
                }
            })
        });
        ns.push(s * 1e9);
    }
    let us: Vec<f64> = ns.iter().map(|n| n / 1e3).collect();
    rec.put_median("serve.cache_lookup_us", &us, "us");

    // the requests the runtime sent to the engine (cache misses): replayed
    // probe by probe, their ndist must match the registry's HNSW histogram
    let m = Metrics::new();
    let metered = serve_metered(ix, stream.at(HEADLINE_QPS, REQUESTS), &m);
    let mut dispatched = VectorSet::new(ix.dim());
    for c in metered.outcomes.iter().filter_map(Outcome::completion) {
        if !c.cache_hit {
            dispatched.push(stream.pool.get(stream.picks[c.id as usize]));
        }
    }
    let engine_ndist = m
        .snapshot()
        .histogram("fastann_hnsw_ndist", &[])
        .map(|(_, sum)| sum as u64);
    // engine-side layers on those dispatched queries
    let opts = SearchOptions::new(K);
    let singles = Singles::run(ix, &stream.pool, opts, 200, tr, None);
    rec.put_median("core.dispatch_us", &singles.host_us, "us");
    record_engine_layers(
        &EngineLayers {
            ix,
            batch: &dispatched,
            opts,
            engine_ndist,
        },
        data,
        rec,
        tr,
    );
}
