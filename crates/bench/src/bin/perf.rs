//! `perf` — emits a `BENCH_<dataset>.json` wall-clock trajectory per
//! dataset: HNSW build throughput, batched-search QPS and recall, each at
//! 1 thread and at `--threads N`, plus the measured speedups.
//!
//! ```text
//! perf [--smoke] [--threads N] [--out DIR] [--gate] [--only NAME] [--churn]
//!   --smoke     tiny synthetic dataset only (the CI smoke invocation)
//!   --threads   pool width for the parallel legs (default: host cores)
//!   --out       directory for the BENCH_*.json files (default: .)
//!   --gate      fail unless quantized recall@k stays within 0.01 of the
//!               exact path on the same graph (the CI recall-delta gate)
//!   --only      substring filter on dataset names (skip the others)
//!   --churn     run the live-mutation leg instead: a 90/5/5
//!               read/insert/delete stream against the distributed engine
//!               that deletes 20% of the corpus, then compacts. Emits
//!               BENCH_churn_SMOKE.json with only virtual/deterministic
//!               fields (plus an FNV fingerprint of every outcome), so CI
//!               can `cmp` the file across FASTANN_THREADS settings; with
//!               --gate, survivor recall@10 must stay ≥ 0.90
//!               pre-compaction and within 0.02 of a from-scratch rebuild
//!               post-compaction
//! ```
//!
//! Each record also carries a `quantized` section: the SQ8-traversal +
//! exact-re-rank pipeline timed against the exact path on the same graph,
//! with its recall and the recall delta. Quantized search at 1 and at N
//! threads is asserted bit-identical unconditionally, like the exact pool.
//!
//! Because the quantized traversal typically *over*-delivers recall at the
//! exact path's `ef` (the re-rank stage repairs quantization error and the
//! pool is wider than k), the fixed-`ef` QPS comparison understates it. The
//! `quantized.matched` block is the standard equal-recall comparison: sweep
//! the quantized `ef` down a fixed ladder and report the cheapest setting
//! whose recall still lands within the gate tolerance of the exact path's
//! recall — both systems delivering the same quality, each at its own
//! operating point.
//!
//! Numbers are honest wall-clock measurements on *this* host: the emitted
//! `host_cores` field records how many cores were actually available, and
//! on a single-core machine the speedup legs will sit near 1.0 no matter
//! how wide the pool is. The parallel legs still exercise the full
//! threaded code paths (batch-parallel construction, pooled search), and
//! the JSON asserts their results match the sequential legs bit-for-bit.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use fastann_bench::{datasets, Scale};
use fastann_core::{
    DistIndex, EngineConfig, Mutation, MutationRequest, SearchOptions, SearchRequest,
};
use fastann_data::{ground_truth, synth, Distance, VectorSet};
use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const K: usize = 10;
const EF: usize = 64;
const RERANK_FACTOR: usize = 3;
/// The CI gate: quantized recall@K may trail exact recall@K on the same
/// graph by at most this much.
const MAX_RECALL_DELTA: f64 = 0.01;
/// The `ef` ladder swept for the equal-recall operating point, smallest
/// first. `EF` itself is the last rung so the sweep always has the fixed
/// comparison's setting as a fallback.
const EF_LADDER: [usize; 7] = [10, 12, 16, 24, 32, 48, EF];

struct Args {
    smoke: bool,
    threads: usize,
    out: String,
    gate: bool,
    only: Option<String>,
    churn: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        out: ".".to_string(),
        gate: false,
        only: None,
        churn: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                let v = it.next().expect("--threads needs a value");
                args.threads = v.parse().expect("--threads must be a number");
            }
            "--out" => args.out = it.next().expect("--out needs a directory"),
            "--gate" => args.gate = true,
            "--only" => args.only = Some(it.next().expect("--only needs a dataset name")),
            "--churn" => args.churn = true,
            other => {
                eprintln!(
                    "unknown argument {other:?} (try --smoke / --threads / --out / --gate / --only / --churn)"
                );
                std::process::exit(2);
            }
        }
    }
    args.threads = args.threads.max(1);
    args
}

/// One dataset's measured trajectory.
struct Record {
    dataset: String,
    points: usize,
    dim: usize,
    n_queries: usize,
    threads: usize,
    host_cores: usize,
    build_seq_s: f64,
    build_par_s: f64,
    build_speedup: f64,
    build_points_per_s: f64,
    qps_1t: f64,
    qps_nt: f64,
    search_speedup: f64,
    recall: f64,
    recall_seq: f64,
    pool_is_deterministic: bool,
    q_qps_1t: f64,
    q_qps_nt: f64,
    q_speedup_vs_exact: f64,
    q_recall: f64,
    q_recall_delta: f64,
    q_is_deterministic: bool,
    q_matched_ef: usize,
    q_matched_qps_1t: f64,
    q_matched_recall: f64,
    q_matched_speedup: f64,
}

impl Record {
    /// Hand-rolled JSON (the workspace deliberately has no serde).
    fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"dataset\": \"{}\",", self.dataset);
        let _ = writeln!(s, "  \"points\": {},", self.points);
        let _ = writeln!(s, "  \"dim\": {},", self.dim);
        let _ = writeln!(s, "  \"queries\": {},", self.n_queries);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(s, "  \"build\": {{");
        let _ = writeln!(s, "    \"seq_s\": {:.6},", self.build_seq_s);
        let _ = writeln!(s, "    \"par_s\": {:.6},", self.build_par_s);
        let _ = writeln!(s, "    \"speedup\": {:.3},", self.build_speedup);
        let _ = writeln!(s, "    \"points_per_s\": {:.1}", self.build_points_per_s);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"search\": {{");
        let _ = writeln!(s, "    \"k\": {K},");
        let _ = writeln!(s, "    \"ef\": {EF},");
        let _ = writeln!(s, "    \"qps_1t\": {:.1},", self.qps_1t);
        let _ = writeln!(s, "    \"qps_nt\": {:.1},", self.qps_nt);
        let _ = writeln!(s, "    \"speedup\": {:.3},", self.search_speedup);
        let _ = writeln!(s, "    \"recall_at_k\": {:.4},", self.recall);
        let _ = writeln!(s, "    \"recall_at_k_seq_build\": {:.4}", self.recall_seq);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"quantized\": {{");
        let _ = writeln!(s, "    \"rerank_factor\": {RERANK_FACTOR},");
        let _ = writeln!(s, "    \"qps_1t\": {:.1},", self.q_qps_1t);
        let _ = writeln!(s, "    \"qps_nt\": {:.1},", self.q_qps_nt);
        let _ = writeln!(
            s,
            "    \"speedup_vs_exact\": {:.3},",
            self.q_speedup_vs_exact
        );
        let _ = writeln!(s, "    \"recall_at_k\": {:.4},", self.q_recall);
        let _ = writeln!(s, "    \"recall_delta\": {:.4},", self.q_recall_delta);
        let _ = writeln!(s, "    \"matched\": {{");
        let _ = writeln!(s, "      \"ef\": {},", self.q_matched_ef);
        let _ = writeln!(s, "      \"qps_1t\": {:.1},", self.q_matched_qps_1t);
        let _ = writeln!(s, "      \"recall_at_k\": {:.4},", self.q_matched_recall);
        let _ = writeln!(
            s,
            "      \"speedup_vs_exact\": {:.3}",
            self.q_matched_speedup
        );
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(
            s,
            "  \"pool_is_deterministic\": {}",
            self.pool_is_deterministic
        );
        s.push_str("}\n");
        s
    }
}

fn measure(name: &str, data: &VectorSet, queries: &VectorSet, threads: usize) -> Record {
    let hnsw_cfg = HnswConfig::with_m(16).ef_construction(100).seed(7);

    // -- build: sequential reference, then the batch-parallel path --
    let t0 = Instant::now();
    let seq = Hnsw::build(data.clone(), Distance::L2, hnsw_cfg);
    let build_seq_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let par = rayon::with_num_threads(threads, || {
        Hnsw::build_parallel(data.clone(), Distance::L2, hnsw_cfg)
    });
    let build_par_s = t0.elapsed().as_secs_f64();

    // -- batched search via the pool, 1 thread vs N threads --
    let qvecs: Vec<Vec<f32>> = queries.iter().map(<[f32]>::to_vec).collect();
    let search_all = |threads: usize| {
        let t0 = Instant::now();
        let out = rayon::with_num_threads(threads, || {
            use rayon::prelude::*;
            qvecs
                .par_iter()
                .map_init(
                    || SearchScratch::with_capacity(par.len()),
                    |scratch, q| par.search(q, &SearchParams::new(K, EF), scratch).0,
                )
                .collect::<Vec<_>>()
        });
        (out, t0.elapsed().as_secs_f64())
    };
    let _warmup = search_all(1); // untimed: page in graph + vectors
    let (res_1t, wall_1t) = search_all(1);
    let (res_nt, wall_nt) = search_all(threads);

    // -- the same graph again, SQ8 traversal + exact re-rank --
    let search_all_q = |threads: usize, ef: usize| {
        let t0 = Instant::now();
        let out = rayon::with_num_threads(threads, || {
            use rayon::prelude::*;
            qvecs
                .par_iter()
                .map_init(
                    || SearchScratch::with_capacity(par.len()),
                    |scratch, q| {
                        par.search(
                            q,
                            &SearchParams::new(K, ef).quantized(RERANK_FACTOR),
                            scratch,
                        )
                        .0
                    },
                )
                .collect::<Vec<_>>()
        });
        (out, t0.elapsed().as_secs_f64())
    };
    let _warmup = search_all_q(1, EF); // untimed: page in codes + norms
    let (qres_1t, qwall_1t) = search_all_q(1, EF);
    let (qres_nt, qwall_nt) = search_all_q(threads, EF);

    // -- recall against brute force, for both graphs: the batch-parallel
    // build produces a *different* (equally valid) graph than the
    // sequential build, so quality parity is the meaningful comparison --
    let gt = ground_truth::brute_force(data, queries, K, Distance::L2);
    let recall = ground_truth::recall_at_k(&res_nt, &gt, K).mean;
    let q_recall = ground_truth::recall_at_k(&qres_nt, &gt, K).mean;
    let mut scratch = SearchScratch::with_capacity(seq.len());
    let seq_res: Vec<_> = qvecs
        .iter()
        .map(|q| seq.search(q, &SearchParams::new(K, EF), &mut scratch).0)
        .collect();
    let recall_seq = ground_truth::recall_at_k(&seq_res, &gt, K).mean;

    // -- equal-recall operating point: walk the ef ladder from the
    // cheapest rung up and stop at the first whose quantized recall lands
    // within the gate tolerance of the exact path's recall at EF --
    let mut matched = None;
    for ef in EF_LADDER {
        let (r, wall) = search_all_q(1, ef);
        let rec = ground_truth::recall_at_k(&r, &gt, K).mean;
        let qps = qvecs.len() as f64 / wall.max(1e-9);
        if rec >= recall - MAX_RECALL_DELTA || ef == EF {
            matched = Some((ef, qps, rec));
            break;
        }
    }
    let (q_matched_ef, q_matched_qps_1t, q_matched_recall) =
        matched.expect("EF_LADDER ends with EF, so the sweep always lands");

    // determinism spot-check: the pool is order-preserving, so the same
    // graph searched at 1 and at N threads must answer bit-identically
    let matches = res_1t == res_nt;

    Record {
        dataset: name.to_string(),
        points: data.len(),
        dim: data.dim(),
        n_queries: queries.len(),
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        build_seq_s,
        build_par_s,
        build_speedup: build_seq_s / build_par_s.max(1e-9),
        build_points_per_s: data.len() as f64 / build_par_s.max(1e-9),
        qps_1t: qvecs.len() as f64 / wall_1t.max(1e-9),
        qps_nt: qvecs.len() as f64 / wall_nt.max(1e-9),
        search_speedup: wall_1t / wall_nt.max(1e-9),
        recall,
        recall_seq,
        pool_is_deterministic: matches,
        q_qps_1t: qvecs.len() as f64 / qwall_1t.max(1e-9),
        q_qps_nt: qvecs.len() as f64 / qwall_nt.max(1e-9),
        q_speedup_vs_exact: wall_1t / qwall_1t.max(1e-9),
        q_recall,
        q_recall_delta: recall - q_recall,
        q_is_deterministic: qres_1t == qres_nt,
        q_matched_ef,
        q_matched_qps_1t,
        q_matched_recall,
        q_matched_speedup: q_matched_qps_1t * wall_1t / qvecs.len() as f64,
    }
}

// ---------------------------------------------------------------------------
// the churn leg: live mutation under a mixed read/insert/delete stream
// ---------------------------------------------------------------------------

/// Corpus size for the churn leg (smoke scale: CI runs it on every push).
const CHURN_POINTS: usize = 2_500;
const CHURN_DIM: usize = 16;
/// Rounds of churn; each round is 90/5/5 read/insert/delete over
/// [`CHURN_OPS_PER_ROUND`] operations.
const CHURN_ROUNDS: usize = 10;
const CHURN_OPS_PER_ROUND: usize = 1_000;
/// Across the whole run the deletes remove 20% of the original corpus
/// size: ROUNDS * OPS * 5% = 500 = 0.2 * CHURN_POINTS.
const CHURN_READS_PER_ROUND: usize = CHURN_OPS_PER_ROUND * 90 / 100;
const CHURN_WRITES_PER_ROUND: usize = CHURN_OPS_PER_ROUND * 5 / 100;
/// The `--gate` floor: survivor recall@K on the mutated (tombstoned,
/// not-yet-compacted) index.
const CHURN_RECALL_FLOOR: f64 = 0.90;
/// The `--gate` parity bound: post-compaction survivor recall@K may trail
/// a from-scratch rebuild of the surviving set by at most this much.
const CHURN_MAX_REBUILD_DELTA: f64 = 0.02;
const CHURN_SEED: u64 = 42;

/// Fold `bytes` into a running FNV-1a hash. The churn report carries this
/// fingerprint of every mutation outcome and every served neighbor, so a
/// byte-level `cmp` of two BENCH files is a full-trajectory determinism
/// check, not just a summary comparison.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Mean recall@K of the engine's answers over `queries`, scored against a
/// brute-force scan of the surviving rows. `gid_to_pos` maps the engine's
/// global ids onto positions in `surv` (identity for a fresh rebuild).
fn churn_recall(
    index: &DistIndex,
    surv: &VectorSet,
    queries: &VectorSet,
    gid_to_pos: &HashMap<u32, u32>,
) -> f64 {
    let report = SearchRequest::new(index, queries)
        .opts(SearchOptions::new(K))
        .run();
    let mut total = 0.0;
    for (qi, got) in report.results.iter().enumerate() {
        let truth = ground_truth::brute_force_one(surv, queries.get(qi), K, Distance::L2);
        let hits = got
            .iter()
            .filter_map(|n| gid_to_pos.get(&n.id))
            .filter(|p| truth.iter().any(|t| t.id == **p))
            .count();
        total += hits as f64 / truth.len() as f64;
    }
    total / report.results.len() as f64
}

/// The churn leg: build the distributed index, drive [`CHURN_ROUNDS`]
/// rounds of a 90/5/5 read/insert/delete stream (deleting 20% of the
/// original corpus in total), then force a compaction pass and compare
/// survivor recall against a from-scratch rebuild of the surviving set.
/// Everything emitted is virtual or derived from deterministic results, so
/// the JSON is byte-identical at any `--threads` / `FASTANN_THREADS`
/// setting and `ci.sh` enforces that with `cmp`.
fn run_churn(args: &Args) {
    let seed = CHURN_SEED;
    eprintln!(
        "perf: churn_SMOKE ({CHURN_POINTS} x {CHURN_DIM}, {CHURN_ROUNDS} rounds of \
         {CHURN_READS_PER_ROUND}r/{CHURN_WRITES_PER_ROUND}i/{CHURN_WRITES_PER_ROUND}d, \
         {} threads) ...",
        args.threads
    );
    let data = synth::sift_like(CHURN_POINTS, CHURN_DIM, seed);
    let cfg = EngineConfig::new(4, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(seed))
        .with_seed(seed)
        .with_threads(args.threads);
    let mut index = DistIndex::build(&data, cfg.clone());

    // gid → vector mirror of what should survive, plus the op stream rng
    let mut alive: Vec<(u32, Vec<f32>)> = (0..CHURN_POINTS)
        .map(|i| (i as u32, data.get(i).to_vec()))
        .collect();
    let mut minted = CHURN_POINTS as u32;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF);
    let read_pool = synth::queries_near(&data, 256, 0.02, seed ^ 0x9e37);

    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let (mut reads, mut inserts, mut deletes) = (0u64, 0u64, 0u64);
    let (mut maintenance_ns, mut ndist) = (0.0f64, 0u64);
    for _round in 0..CHURN_ROUNDS {
        // 5/5 writes: deletes drawn from the live set, inserts minted fresh
        let mut batch = Vec::with_capacity(2 * CHURN_WRITES_PER_ROUND);
        for _ in 0..CHURN_WRITES_PER_ROUND {
            let victim = rng.gen_range(0..alive.len());
            batch.push(Mutation::Delete {
                global_id: alive[victim].0,
            });
            alive.swap_remove(victim);
            deletes += 1;
        }
        for _ in 0..CHURN_WRITES_PER_ROUND {
            let v = synth::sift_like(1, CHURN_DIM, seed ^ (u64::from(minted) << 5))
                .get(0)
                .to_vec();
            batch.push(Mutation::Upsert {
                global_id: None,
                vector: v.clone(),
            });
            alive.push((minted, v));
            minted += 1;
            inserts += 1;
        }
        // compaction is deferred to the explicit pass below (threshold > 1
        // can never trip), so the whole churn phase measures the tombstoned
        // graph the way a serving replica between compactions would
        let report = MutationRequest::new(&mut index)
            .mutations(batch)
            .compact_threshold(2.0)
            .run();
        assert!(
            report
                .outcomes
                .iter()
                .all(fastann_core::MutationOutcome::effective),
            "churn_SMOKE: every churn mutation must apply"
        );
        maintenance_ns += report.maintenance_ns;
        ndist += report.ndist;
        for o in &report.outcomes {
            fnv1a(&mut fingerprint, format!("{o:?}").as_bytes());
        }

        // 90 reads: batched through the engine, answers folded into the
        // fingerprint and checked against the live mirror
        let live: std::collections::HashSet<u32> = alive.iter().map(|(g, _)| *g).collect();
        let mut queries = VectorSet::new(CHURN_DIM);
        for _ in 0..CHURN_READS_PER_ROUND {
            queries.push(read_pool.get(rng.gen_range(0..read_pool.len())));
            reads += 1;
        }
        let answers = SearchRequest::new(&index, &queries)
            .opts(SearchOptions::new(K))
            .run();
        for result in &answers.results {
            for n in result {
                assert!(
                    live.contains(&n.id),
                    "churn_SMOKE: deleted id {} surfaced in a read",
                    n.id
                );
                fnv1a(&mut fingerprint, &n.id.to_le_bytes());
                fnv1a(&mut fingerprint, &n.dist.to_bits().to_le_bytes());
            }
        }
    }
    assert_eq!(
        deletes as usize,
        CHURN_POINTS / 5,
        "churn deletes 20% of the corpus"
    );

    // survivor ground truth: recall before compaction, after compaction,
    // and on a from-scratch rebuild of exactly the surviving rows
    let mut surv = VectorSet::new(CHURN_DIM);
    for (_, v) in &alive {
        surv.push(v);
    }
    let gid_to_pos: HashMap<u32, u32> = alive
        .iter()
        .enumerate()
        .map(|(p, (g, _))| (*g, p as u32))
        .collect();
    let queries = synth::queries_near(&surv, 100, 0.05, seed ^ 0x77);
    let recall_pre = churn_recall(&index, &surv, &queries, &gid_to_pos);

    let compaction = MutationRequest::new(&mut index)
        .compact_threshold(0.05)
        .run();
    assert!(
        !compaction.compactions.is_empty(),
        "churn_SMOKE: the 20% tombstone load must trip the 0.05 compaction threshold"
    );
    maintenance_ns += compaction.maintenance_ns;
    ndist += compaction.ndist;
    for c in &compaction.compactions {
        fnv1a(&mut fingerprint, format!("{c:?}").as_bytes());
    }
    let recall_post = churn_recall(&index, &surv, &queries, &gid_to_pos);

    let fresh = DistIndex::build(&surv, cfg);
    let identity: HashMap<u32, u32> = (0..surv.len() as u32).map(|g| (g, g)).collect();
    let recall_fresh = churn_recall(&fresh, &surv, &queries, &identity);

    if args.gate {
        assert!(
            recall_pre >= CHURN_RECALL_FLOOR,
            "churn_SMOKE: pre-compaction survivor recall@{K} {recall_pre:.4} \
             below the floor {CHURN_RECALL_FLOOR:.2}"
        );
        assert!(
            recall_post >= recall_fresh - CHURN_MAX_REBUILD_DELTA,
            "churn_SMOKE: post-compaction recall@{K} {recall_post:.4} trails the \
             fresh rebuild {recall_fresh:.4} by more than {CHURN_MAX_REBUILD_DELTA}"
        );
    }

    // Hand-rolled JSON, deterministic fields only (no wall-clock, no
    // thread count): `cmp` across FASTANN_THREADS settings must pass.
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"dataset\": \"churn_SMOKE\",");
    let _ = writeln!(s, "  \"points\": {CHURN_POINTS},");
    let _ = writeln!(s, "  \"dim\": {CHURN_DIM},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"rounds\": {CHURN_ROUNDS},");
    let _ = writeln!(s, "  \"ops\": {{");
    let _ = writeln!(s, "    \"reads\": {reads},");
    let _ = writeln!(s, "    \"inserts\": {inserts},");
    let _ = writeln!(s, "    \"deletes\": {deletes}");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"survivors\": {},", surv.len());
    let _ = writeln!(s, "  \"epoch\": {},", index.mutation_epoch);
    let _ = writeln!(
        s,
        "  \"compacted_partitions\": {},",
        compaction.compactions.len()
    );
    let _ = writeln!(
        s,
        "  \"compaction_dropped\": {},",
        compaction
            .compactions
            .iter()
            .map(|c| c.dropped as u64)
            .sum::<u64>()
    );
    let _ = writeln!(s, "  \"maintenance_ns\": {maintenance_ns:.1},");
    let _ = writeln!(s, "  \"maintenance_dists\": {ndist},");
    let _ = writeln!(s, "  \"recall_at_k_pre_compaction\": {recall_pre:.4},");
    let _ = writeln!(s, "  \"recall_at_k_post_compaction\": {recall_post:.4},");
    let _ = writeln!(s, "  \"recall_at_k_fresh_rebuild\": {recall_fresh:.4},");
    let _ = writeln!(s, "  \"fingerprint\": \"{fingerprint:016x}\"");
    s.push_str("}\n");
    let path = format!("{}/BENCH_churn_SMOKE.json", args.out);
    std::fs::write(&path, s).expect("write BENCH churn json");
    println!(
        "{path}: {reads}r/{inserts}i/{deletes}d over {CHURN_ROUNDS} rounds, \
         recall@{K} pre {recall_pre:.3} / post {recall_post:.3} / fresh {recall_fresh:.3}, \
         {} partitions compacted, fingerprint {fingerprint:016x}",
        compaction.compactions.len()
    );
}

fn main() {
    let args = parse_args();
    if args.churn {
        run_churn(&args);
        return;
    }
    let scale = Scale::from_env();
    // (name, constructor) pairs: workloads are built lazily, after the
    // `--only` filter, so a filtered invocation (the CI MDC_32K leg) does
    // not pay for generating the datasets it skips
    type WorkloadCtor = fn(Scale) -> datasets::Workload;
    let menu: Vec<(&str, WorkloadCtor)> = if args.smoke {
        vec![("SYN_SMOKE", datasets::smoke)]
    } else {
        vec![
            ("SYN_1M", datasets::syn_1m),
            ("SYN_10M", datasets::syn_10m),
            ("MDC_32K", datasets::mdc_32k),
        ]
    };

    for (name, build) in menu {
        if let Some(only) = &args.only {
            if !name.contains(only.as_str()) {
                eprintln!("perf: skipping {name} (--only {only})");
                continue;
            }
        }
        let w = build(scale);
        eprintln!(
            "perf: {} ({} x {}, {} queries, {} threads) ...",
            w.name,
            w.data.len(),
            w.data.dim(),
            w.queries.len(),
            args.threads
        );
        let rec = measure(w.name, &w.data, &w.queries, args.threads);
        assert!(
            rec.pool_is_deterministic,
            "{}: pooled search diverged between 1 and {} threads",
            w.name, args.threads
        );
        assert!(
            rec.q_is_deterministic,
            "{}: quantized search diverged between 1 and {} threads",
            w.name, args.threads
        );
        if args.gate {
            assert!(
                rec.q_recall_delta <= MAX_RECALL_DELTA,
                "{}: quantized recall@{K} {:.4} trails exact {:.4} by {:.4} (> {MAX_RECALL_DELTA})",
                w.name,
                rec.q_recall,
                rec.recall,
                rec.q_recall_delta
            );
            // absolute floor, not just parity: on the clustered workloads a
            // descent regression drops exact and quantized recall together,
            // which the delta gate alone would wave through
            assert!(
                rec.recall >= w.min_exact_recall,
                "{}: exact recall@{K} {:.4} below the workload floor {:.2}",
                w.name,
                rec.recall,
                w.min_exact_recall
            );
        }
        let path = format!("{}/BENCH_{}.json", args.out, w.name);
        std::fs::write(&path, rec.to_json()).expect("write BENCH json");
        println!(
            "{path}: build {:.2}x ({:.0} pts/s), search {:.2}x ({:.0} qps), recall@{K} {:.3}, \
             quantized {:.2}x vs exact ({:.0} qps, recall {:.3}), \
             matched-recall {:.2}x at ef={} ({:.0} qps, recall {:.3}) \
             [host has {} core(s)]",
            rec.build_speedup,
            rec.build_points_per_s,
            rec.search_speedup,
            rec.qps_nt,
            rec.recall,
            rec.q_speedup_vs_exact,
            rec.q_qps_nt,
            rec.q_recall,
            rec.q_matched_speedup,
            rec.q_matched_ef,
            rec.q_matched_qps_1t,
            rec.q_matched_recall,
            rec.host_cores
        );
    }
}
