//! Pieces every workload shares: arguments, the result record, index
//! helpers, the write-and-compact leg and one-query requests.

use std::sync::Arc;
use std::time::Instant;

use fastann_core::{
    DistIndex, Mutation, MutationReport, MutationRequest, SearchOptions, SearchRequest,
};
use fastann_data::VectorSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, percentile, rel_spread, tail_percentile};
use crate::trace::{SpanId, Tracer};

/// Command-line arguments: `--workload NAME --seed N --seconds S --trace 0|1`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses the process arguments; `Err` carries a usage message.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args;
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => out.workload = value()?,
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !(out.seconds > 0.0 && out.seconds <= 600.0) {
            return Err("--seconds must lie in (0, 600]".into());
        }
        Ok(out)
    }
}

/// Pool width: the engine's real threads and the benchmark's own parallel
/// helpers (ground truth). At most two, and never more than the host has.
pub fn pool_width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// What one run reports: metrics by name, the attempted/failed counts and
/// the named output checks.
#[derive(Default)]
pub struct Record {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
}

impl Record {
    /// Records metric `name` in `unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    /// Records the median of `samples` as metric `name`, and logs the
    /// sample count and the in-run spread (IQR over median).
    pub fn put_median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        eprintln!(
            "hostbench: {name}: {} samples in [{lo:.6}, {hi:.6}], in-run spread {:.4}",
            samples.len(),
            rel_spread(samples)
        );
        self.put(name, median(samples), unit);
    }

    /// Looks a recorded metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|m| m.1)
    }

    /// Records an output check; a failing check counts one failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("hostbench: CHECK FAILED: {name}");
            self.failed += 1;
            self.attempted += 1;
        }
        self.checks.push((name, ok));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The named checks, in order.
    pub fn checks(&self) -> &[(String, bool)] {
        &self.checks
    }

    /// The recorded metrics, in order.
    pub fn metrics(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names`, in that order, each with its unit.
    pub fn to_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Seconds `f` takes on the host clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A second handle on `ix` that shares its partitions and router but runs
/// its searches with `threads` real threads. Mutation needs the original
/// handle to be the only one, so drop these first.
pub fn share(ix: &DistIndex, threads: usize) -> DistIndex {
    DistIndex {
        config: ix.config.clone().with_threads(threads),
        partitions: Arc::clone(&ix.partitions),
        router: Arc::clone(&ix.router),
        build_stats: ix.build_stats.clone(),
        mutation_epoch: ix.mutation_epoch,
        mutation_log: ix.mutation_log.clone(),
    }
}

/// Resident index size in MiB: every partition plus the router.
pub fn index_mb(ix: &DistIndex) -> f64 {
    let bytes: usize = ix
        .partitions
        .iter()
        .map(|p| p.approx_bytes())
        .sum::<usize>()
        + ix.router.approx_bytes();
    bytes as f64 / (1024.0 * 1024.0)
}

/// Host time and virtual latency of queries sent one at a time, each as
/// its own one-query `SearchRequest`.
pub struct Singles {
    /// Host µs per request, one sample per query.
    pub host_us: Vec<f64>,
    /// Virtual latency (`QueryReport::total_ns`) in µs, one per query.
    pub virtual_us: Vec<f64>,
}

impl Singles {
    /// Runs the first `n` of `queries` one by one against `ix`.
    pub fn run(
        ix: &DistIndex,
        queries: &VectorSet,
        opts: SearchOptions,
        n: usize,
        tr: &mut Tracer,
        parent: Option<SpanId>,
    ) -> Singles {
        let mut host_us = Vec::with_capacity(n);
        let mut virtual_us = Vec::with_capacity(n);
        for qi in 0..n.min(queries.len()) {
            let one = VectorSet::from_rows(&[queries.get(qi)]);
            let ((report, secs), _) =
                tr.span("core.search_request_one", parent, qi as u64, |_, _| {
                    timed(|| SearchRequest::new(ix, &one).opts(opts).run())
                });
            host_us.push(secs * 1e6);
            virtual_us.push(report.total_ns / 1e3);
        }
        Singles {
            host_us,
            virtual_us,
        }
    }
}

/// Records `p50_virtual_us` and `p99_virtual_us` from latency samples (µs),
/// checking that the tail keeps at least ten samples beyond p99.
pub fn put_latency(rec: &mut Record, lat_us: &[f64]) {
    let tail = tail_percentile(lat_us.len(), &[50.0, 90.0, 99.0], 10);
    rec.check(
        format!("p99 keeps >= 10 of {} samples beyond it", lat_us.len()),
        tail == Some(99.0),
    );
    if lat_us.is_empty() {
        return;
    }
    rec.put("p50_virtual_us", percentile(lat_us, 50.0), "us");
    rec.put("p99_virtual_us", percentile(lat_us, 99.0), "us");
    rec.put("bench.latency_samples", lat_us.len() as f64, "count");
}

/// Write rounds in one write-and-compact leg. Many short rounds give a
/// median that ignores the scheduler stalls a few of them hit.
const WRITE_ROUNDS: usize = 64;
/// Compaction passes in one leg, each after an equal share of the rounds.
const COMPACTIONS: usize = 2;

/// Per-round write costs of one write-and-compact leg and its compactions.
#[derive(Default)]
pub struct Maintenance {
    pub delete_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub compact_s: Vec<f64>,
    pub ndist: u64,
    pub writes: usize,
}

/// The write-and-compact leg of the batch and serve workloads: `w` deletes
/// of rows drawn (seeded) from the first `parts` partitions and `w` inserts
/// (jittered copies of the deleted rows) in many rounds, each kind of each
/// round one timed `MutationRequest`. After each share of the rounds: a
/// check that no deleted id is answered, then one compaction pass, timed,
/// which rebuilds those partitions, and the check again.
pub fn write_and_compact(
    ix: &mut DistIndex,
    w: usize,
    parts: usize,
    seed: u64,
    rec: &mut Record,
    tr: &mut Tracer,
) -> Maintenance {
    let mut rows: Vec<(usize, u32)> = Vec::new();
    for (pid, p) in ix.partitions.iter().enumerate().take(parts) {
        rows.extend((0..p.global_ids.len() as u32).map(|l| (pid, l)));
    }
    let w = w.min(rows.len() / 2);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xde1e);
    for i in 0..w {
        let j = rng.gen_range(i..rows.len());
        rows.swap(i, j);
    }
    rows.truncate(w);
    let victims: Vec<u32> = rows
        .iter()
        .map(|&(pid, l)| ix.partitions[pid].global_ids[l as usize])
        .collect();
    let mut probes = VectorSet::with_capacity(ix.dim(), w);
    for &(pid, l) in &rows {
        let hnsw = ix.partitions[pid].index.as_hnsw().expect("HNSW partitions");
        probes.push(hnsw.vectors().get(l as usize));
    }

    let mut m = Maintenance::default();
    let per_round = w.div_ceil(WRITE_ROUNDS).max(1);
    let per_pass = w.div_ceil(COMPACTIONS).div_ceil(per_round) * per_round;
    let mut done = 0;
    for pass in victims.chunks(per_pass.max(1)) {
        for chunk in pass.chunks(per_round) {
            let deletes = chunk
                .iter()
                .map(|&g| Mutation::Delete { global_id: g })
                .collect();
            let inserts = (0..chunk.len())
                .map(|i| {
                    let jitter = 1e-3 * ((i % 7) as f32 - 3.0);
                    Mutation::Upsert {
                        global_id: None,
                        vector: probes.get(done + i).iter().map(|x| x + jitter).collect(),
                    }
                })
                .collect();
            let (del, del_s) = mutate(ix, deletes, "core.mutation_delete", rec, tr);
            let (ins, ins_s) = mutate(ix, inserts, "core.mutation_insert", rec, tr);
            m.delete_us.push(del_s * 1e6 / chunk.len() as f64);
            m.insert_us.push(ins_s * 1e6 / chunk.len() as f64);
            m.ndist += del.ndist + ins.ndist;
            m.writes += 2 * chunk.len();
            done += chunk.len();
        }
        let deleted = &victims[..done];
        let asked = probes.gather(&(0..done as u32).collect::<Vec<_>>());
        check_no_deleted(ix, &asked, deleted, rec, "after deletes");
        let ((compaction, compact_s), _) = tr.span("core.compaction", None, 0, |_, _| {
            timed(|| MutationRequest::new(ix).compact_threshold(0.01).run())
        });
        rec.check(
            "compaction rebuilds a partition",
            !compaction.compactions.is_empty(),
        );
        check_no_deleted(ix, &asked, deleted, rec, "after compaction");
        m.compact_s.push(compact_s);
    }
    m
}

/// Applies `batch` as one `MutationRequest` with compaction off, counting
/// every mutation as attempted and every ineffective one as failed.
pub fn mutate(
    ix: &mut DistIndex,
    batch: Vec<Mutation>,
    span: &'static str,
    rec: &mut Record,
    tr: &mut Tracer,
) -> (MutationReport, f64) {
    let n = batch.len();
    let ((report, secs), _) = tr.span(span, None, 0, |_, _| {
        timed(|| {
            MutationRequest::new(ix)
                .mutations(batch)
                .compact_threshold(2.0)
                .run()
        })
    });
    let applied = report.outcomes.iter().filter(|o| o.effective()).count();
    rec.attempted += n as u64;
    rec.failed += (n - applied) as u64;
    if applied != n {
        rec.check(format!("{} of {n} writes applied", applied), false);
    }
    (report, secs)
}

/// Queries `ix` with the deleted rows' own vectors and checks that none of
/// the deleted ids comes back.
fn check_no_deleted(
    ix: &DistIndex,
    probes: &VectorSet,
    deleted: &[u32],
    rec: &mut Record,
    when: &str,
) {
    let report = SearchRequest::new(ix, probes)
        .opts(SearchOptions::new(10))
        .run();
    let leaked = report
        .results
        .iter()
        .flatten()
        .filter(|n| deleted.contains(&n.id))
        .count();
    rec.check(
        format!("no deleted id answered {when} ({leaked} found)"),
        leaked == 0,
    );
}

/// Medians of the write rounds and compactions of every leg.
pub fn put_maintenance(rec: &mut Record, legs: &[Maintenance]) {
    let rounds =
        |f: fn(&Maintenance) -> &[f64]| legs.iter().flat_map(f).copied().collect::<Vec<_>>();
    let del = rounds(|m| &m.delete_us);
    let ins = rounds(|m| &m.insert_us);
    let write: Vec<f64> = del.iter().zip(&ins).map(|(d, i)| (d + i) / 2.0).collect();
    rec.put_median("core.write_us", &write, "us");
    rec.put_median("core.compact_s", &rounds(|m| &m.compact_s), "s");
    rec.put_median("core.delete_us", &del, "us");
    rec.put_median("core.insert_us", &ins, "us");
    let ndist: u64 = legs.iter().map(|m| m.ndist).sum();
    let writes: usize = legs.iter().map(|m| m.writes).sum();
    rec.put(
        "core.maintenance_ndist_per_write",
        ndist as f64 / writes.max(1) as f64,
        "count",
    );
}
