//! `churn_rw`: rounds of read batches beside delete and insert batches
//! (about 90/5/5) that delete a fifth of the corpus, then one threshold
//! compaction pass. Writes run `add` and tombstone repair, reads run on a
//! tombstoned graph, and compaction rebuilds partitions.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use fastann_core::{
    DistIndex, EngineConfig, Mutation, MutationRequest, SearchOptions, SearchRequest,
};
use fastann_data::{ground_truth, synth, Distance, VectorSet};
use fastann_hnsw::HnswConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{index_mb, mutate, put_latency, share, timed, Args, Record, Singles};
use crate::layers::{record_engine_layers, EngineLayers};
use crate::stats::recall_mapped;
use crate::trace::Tracer;

/// The corpus and the index are fixed; `--seed` draws the reads, the
/// victims and the inserted rows.
const DATA_SEED: u64 = 0xc4a2;
const POINTS: usize = 10_000;
const DIM: usize = 32;
const K: usize = 10;
const ROUNDS: usize = 10;
/// Deletes (and as many inserts) per round: a fifth of the corpus over
/// all rounds.
const WRITES_PER_ROUND: usize = POINTS / 5 / ROUNDS;
/// Reads per round: nine for every delete-insert pair, so 90/5/5.
const READS_PER_ROUND: usize = 9 * 2 * WRITES_PER_ROUND;
/// Episodes per run at least: each gives one `setup_s` and one
/// `compact_s` sample.
const MIN_EPISODES: usize = 5;
const RECALL_FLOOR: f64 = 0.90;
const RECALL_QUERIES: usize = 1_000;
const THREAD_SAMPLE: usize = 100;

/// FNV-1a over `bytes`, folded into `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Per-batch figures gathered across episodes.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    write_us: Vec<f64>,
    delete_us: Vec<f64>,
    insert_us: Vec<f64>,
    read_qps: Vec<f64>,
    read_us: Vec<f64>,
    read_virtual_ns: Vec<f64>,
    compact_s: Vec<f64>,
    write_ndist: u64,
    writes: u64,
}

pub fn run(args: &Args, threads: usize, rec: &mut Record, tr: &mut Tracer) {
    let data = synth::sift_like(POINTS, DIM, DATA_SEED);
    let read_pool = synth::queries_near(&data, 512, 0.02, args.seed ^ 0x9e37);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40))
        .with_seed(DATA_SEED)
        .with_threads(threads);
    let mut s = Samples::default();
    let mut fingerprints = Vec::new();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while fingerprints.len() < MIN_EPISODES || Instant::now() < t_end {
        let first = fingerprints.is_empty();
        let (fp, _) = tr.span("churn.episode", None, fingerprints.len() as u64, |tr, _| {
            episode(
                args, &data, &read_pool, &cfg, threads, first, &mut s, rec, tr,
            )
        });
        fingerprints.push(fp);
    }
    rec.check(
        format!("all {} episodes answer alike", fingerprints.len()),
        fingerprints.iter().all(|f| *f == fingerprints[0]),
    );
    rec.put_median("setup_s", &s.setup_s, "s");
    rec.put_median("search_qps", &s.read_qps, "q/s");
    rec.put_median("host_us_per_req", &s.read_us, "us");
    let virt = s.read_virtual_ns.iter().sum::<f64>() / s.read_virtual_ns.len() as f64;
    rec.put("virtual_query_ms", virt / 1e6, "ms");
    rec.put("max_rate_qps", READS_PER_ROUND as f64 / (virt / 1e9), "q/s");
    rec.put_median("core.write_us", &s.write_us, "us");
    rec.put_median("core.compact_s", &s.compact_s, "s");
    rec.put_median("core.delete_us", &s.delete_us, "us");
    rec.put_median("core.insert_us", &s.insert_us, "us");
    rec.put(
        "core.maintenance_ndist_per_write",
        s.write_ndist as f64 / s.writes.max(1) as f64,
        "count",
    );
}

/// One build, all churn rounds, and the compaction pass. Returns a
/// fingerprint of every write outcome and every answer. The first episode
/// also takes the deterministic metrics and runs the output checks.
#[allow(clippy::too_many_arguments)]
fn episode(
    args: &Args,
    data: &VectorSet,
    read_pool: &VectorSet,
    cfg: &EngineConfig,
    threads: usize,
    first: bool,
    s: &mut Samples,
    rec: &mut Record,
    tr: &mut Tracer,
) -> u64 {
    let ((mut ix, secs), _) = tr.span("core.dist_index_build", None, 0, |_, _| {
        timed(|| DistIndex::build(data, cfg.clone()))
    });
    s.setup_s.push(secs);
    let opts = SearchOptions::new(K);

    let mut alive: Vec<(u32, Vec<f32>)> = (0..POINTS)
        .map(|i| (i as u32, data.get(i).to_vec()))
        .collect();
    let mut minted = POINTS as u32;
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0xC0FF);
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..ROUNDS {
        let mut deletes = Vec::with_capacity(WRITES_PER_ROUND);
        for _ in 0..WRITES_PER_ROUND {
            let victim = rng.gen_range(0..alive.len());
            deletes.push(Mutation::Delete {
                global_id: alive.swap_remove(victim).0,
            });
        }
        let mut inserts = Vec::with_capacity(WRITES_PER_ROUND);
        for _ in 0..WRITES_PER_ROUND {
            let v = synth::sift_like(1, DIM, args.seed ^ (u64::from(minted) << 5))
                .get(0)
                .to_vec();
            inserts.push(Mutation::Upsert {
                global_id: None,
                vector: v.clone(),
            });
            alive.push((minted, v));
            minted += 1;
        }
        let (del, del_s) = mutate(&mut ix, deletes, "core.mutation_delete", rec, tr);
        let (ins, ins_s) = mutate(&mut ix, inserts, "core.mutation_insert", rec, tr);
        let w = WRITES_PER_ROUND as f64;
        s.delete_us.push(del_s * 1e6 / w);
        s.insert_us.push(ins_s * 1e6 / w);
        s.write_us.push((del_s + ins_s) * 1e6 / (2.0 * w));
        s.write_ndist += del.ndist + ins.ndist;
        s.writes += 2 * WRITES_PER_ROUND as u64;
        for o in del.outcomes.iter().chain(&ins.outcomes) {
            fnv1a(&mut fp, format!("{o:?}").as_bytes());
        }

        let mut reads = VectorSet::with_capacity(DIM, READS_PER_ROUND);
        for _ in 0..READS_PER_ROUND {
            reads.push(read_pool.get(rng.gen_range(0..read_pool.len())));
        }
        let ((report, secs), _) = tr.span("core.search_request", None, round as u64, |_, _| {
            timed(|| SearchRequest::new(&ix, &reads).opts(opts).run())
        });
        s.read_qps.push(READS_PER_ROUND as f64 / secs);
        s.read_us.push(secs * 1e6 / READS_PER_ROUND as f64);
        s.read_virtual_ns.push(report.total_ns);
        rec.attempted += READS_PER_ROUND as u64;
        rec.failed += report.degraded_count() as u64;
        let live: HashSet<u32> = alive.iter().map(|(g, _)| *g).collect();
        let leaked = report
            .results
            .iter()
            .flatten()
            .filter(|n| !live.contains(&n.id))
            .count();
        if leaked > 0 {
            rec.check(
                format!("round {round}: {leaked} deleted ids answered"),
                false,
            );
        }
        for n in report.results.iter().flatten() {
            fnv1a(&mut fp, &n.id.to_le_bytes());
            fnv1a(&mut fp, &n.dist.to_bits().to_le_bytes());
        }
    }

    let mut surv = VectorSet::with_capacity(DIM, alive.len());
    for (_, v) in &alive {
        surv.push(v);
    }
    let queries = synth::queries_near(&surv, RECALL_QUERIES, 0.05, args.seed ^ 0x77);
    if first {
        survivor_checks(&ix, &surv, &alive, &queries, threads, rec, tr);
    }

    let ((compaction, secs), _) = tr.span("core.compaction", None, 0, |_, _| {
        timed(|| MutationRequest::new(&mut ix).compact_threshold(0.05).run())
    });
    s.compact_s.push(secs);
    for c in &compaction.compactions {
        fnv1a(&mut fp, format!("{c:?}").as_bytes());
    }
    if first {
        rec.check(
            "the churn trips the compaction threshold",
            !compaction.compactions.is_empty(),
        );
        let after = SearchRequest::new(&ix, &queries).opts(opts).run();
        let live: HashSet<u32> = alive.iter().map(|(g, _)| *g).collect();
        let leaked = after
            .results
            .iter()
            .flatten()
            .filter(|n| !live.contains(&n.id))
            .count();
        rec.check(
            format!("no deleted id answered after compaction ({leaked})"),
            leaked == 0,
        );
    }
    fp
}

/// Recall against the surviving rows, the one-query latency sample, the
/// index size and the thread check, all before compaction.
fn survivor_checks(
    ix: &DistIndex,
    surv: &VectorSet,
    alive: &[(u32, Vec<f32>)],
    queries: &VectorSet,
    threads: usize,
    rec: &mut Record,
    tr: &mut Tracer,
) {
    let opts = SearchOptions::new(K);
    let pos: HashMap<u32, u32> = alive
        .iter()
        .enumerate()
        .map(|(p, (g, _))| (*g, p as u32))
        .collect();
    let truth = rayon::with_num_threads(threads, || {
        ground_truth::brute_force(surv, queries, K, Distance::L2)
    });
    let report = SearchRequest::new(ix, queries).opts(opts).run();
    let recall = recall_mapped(&report.results, &truth, K, |g| pos.get(&g).copied());
    rec.put("recall_at_10", recall, "frac");
    rec.check(
        format!("survivor recall@10 {recall:.4} >= {RECALL_FLOOR}"),
        recall >= RECALL_FLOOR,
    );
    rec.put("index_mb", index_mb(ix), "MiB");

    let singles = Singles::run(ix, queries, opts, RECALL_QUERIES, tr, None);
    put_latency(rec, &singles.virtual_us);

    let sample = VectorSet::from_rows(
        &(0..THREAD_SAMPLE)
            .map(|i| queries.get(i))
            .collect::<Vec<_>>(),
    );
    let at_width = SearchRequest::new(ix, &sample).opts(opts).run();
    let one = share(ix, 1);
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
                ix,
                batch: queries,
                opts,
                engine_ndist: Some(report.total_ndist),
            },
            surv,
            rec,
            tr,
        );
    }
}
