//! Schedule-perturbation race detector.
//!
//! The simulator folds message arrivals into virtual time in the order
//! receives complete, so a protocol whose *observable results* depend on
//! the OS thread schedule is racy even though every individual run looks
//! plausible (the PR 1 wildcard-receive bug class). The detector makes
//! that class mechanically checkable: run the same workload under K
//! seed-perturbed scheduler interleavings ([`fastann_mpisim::SchedPerturb`]
//! — wildcard-match reordering, receive-boundary stalls, vthread
//! tie-break shuffles; all virtual-time neutral) and diff the event
//! streams. Seed 0 is the identity schedule and serves as the baseline;
//! any fault-free divergence is a race, minimized to the first diverging
//! index with both interleavings' event windows around it.

use fastann_core::{
    DistIndex, EngineConfig, QueryReport, SearchOptions, SearchRequest, SearchSession,
};
use fastann_data::{synth, VectorSet};

/// How many events around the first divergence each window keeps.
const WINDOW: usize = 4;

/// One schedule divergence: the workload observed different events under
/// a perturbed interleaving than under the identity schedule.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The perturbation seed that exposed the race.
    pub seed: u64,
    /// Position of the diverging schedule in the exploration order
    /// (0-based): rerunning with the same base seed and `k >
    /// schedule_index` replays this exact interleaving.
    pub schedule_index: usize,
    /// Index of the first diverging event (may equal the shorter run's
    /// length when one interleaving produced extra events).
    pub index: usize,
    /// Baseline events around `index` (up to four before it).
    pub baseline_window: Vec<String>,
    /// Perturbed events around `index`.
    pub perturbed_window: Vec<String>,
}

/// Outcome of exploring K perturbed interleavings of one workload.
#[derive(Debug)]
pub struct RaceReport {
    /// How many perturbed runs were executed (the baseline is extra).
    pub runs: usize,
    /// The base seed the perturbation seeds were derived from; together
    /// with a divergence's `schedule_index` it pins the exact
    /// reproducing invocation.
    pub base_seed: u64,
    /// Event count of the identity-schedule baseline.
    pub baseline_len: usize,
    /// All divergences found, one per diverging seed.
    pub divergences: Vec<Divergence>,
}

impl RaceReport {
    /// `true` when every perturbed interleaving reproduced the baseline.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Multi-line human rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.divergences {
            out.push_str(&format!(
                "divergence under seed {:#x} at event {}:\n",
                d.seed, d.index
            ));
            out.push_str("  baseline:\n");
            for e in &d.baseline_window {
                out.push_str(&format!("    {e}\n"));
            }
            out.push_str("  perturbed:\n");
            for e in &d.perturbed_window {
                out.push_str(&format!("    {e}\n"));
            }
            // the exact reproducing invocation: the derived seed is a
            // pure function of (base seed, schedule index), so a run
            // with k just past the index replays this interleaving
            out.push_str(&format!(
                "  reproduce: cargo run -p fastann-check -- race --k {} --seed {:#x}  (schedule index {}, derived seed {:#x})\n",
                d.schedule_index + 1,
                self.base_seed,
                d.schedule_index,
                d.seed
            ));
        }
        out.push_str(&format!(
            "race: {} perturbed runs against a {}-event baseline, {} divergences\n",
            self.runs,
            self.baseline_len,
            self.divergences.len()
        ));
        out
    }
}

/// Runs `workload` once with seed 0 (the identity schedule) and then
/// under `k` seeds derived from `base_seed`, diffing each perturbed
/// event stream against the baseline.
///
/// The workload maps a scheduler-perturbation seed to the ordered list
/// of observable events; it must be a pure function of that seed for a
/// correct (race-free) protocol.
pub fn explore<F>(k: usize, base_seed: u64, workload: F) -> RaceReport
where
    F: Fn(u64) -> Vec<String>,
{
    let baseline = workload(0);
    let mut divergences = Vec::new();
    for i in 0..k {
        let seed = derive_seed(base_seed, i as u64);
        let run = workload(seed);
        if let Some(index) = first_divergence(&baseline, &run) {
            divergences.push(Divergence {
                seed,
                schedule_index: i,
                index,
                baseline_window: window(&baseline, index),
                perturbed_window: window(&run, index),
            });
        }
    }
    RaceReport {
        runs: k,
        base_seed,
        baseline_len: baseline.len(),
        divergences,
    }
}

/// Derives the i-th nonzero perturbation seed from `base_seed`
/// (splitmix64; seed 0 is reserved for the identity schedule).
fn derive_seed(base_seed: u64, i: u64) -> u64 {
    let mut z = base_seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        z = 1;
    }
    z
}

fn first_divergence(a: &[String], b: &[String]) -> Option<usize> {
    let shared = a.len().min(b.len());
    for i in 0..shared {
        if a[i] != b[i] {
            return Some(i);
        }
    }
    (a.len() != b.len()).then_some(shared)
}

fn window(events: &[String], index: usize) -> Vec<String> {
    let hi = events.len().min(index + 1);
    let lo = hi.saturating_sub(WINDOW + 1);
    events[lo..hi].to_vec()
}

/// Flattens a [`QueryReport`] into an ordered event stream for diffing.
///
/// Per-query results encode distances through their bit patterns so the
/// comparison is exact, followed by the report-level aggregates — any
/// schedule sensitivity in results, routing, placement or timing shows
/// up as a divergence.
pub fn report_events(rep: &QueryReport) -> Vec<String> {
    let mut ev = Vec::with_capacity(rep.results.len() + 4);
    for (qi, res) in rep.results.iter().enumerate() {
        let body: Vec<String> = res
            .iter()
            .map(|n| format!("{}:{:08x}", n.id, n.dist.to_bits()))
            .collect();
        ev.push(format!(
            "q{qi} [{}] degraded={}",
            body.join(","),
            rep.degraded.get(qi).copied().unwrap_or(false)
        ));
    }
    ev.push(format!(
        "timing total={:016x} route={:016x} wait={:016x}",
        rep.total_ns.to_bits(),
        rep.master_route_ns.to_bits(),
        rep.master_wait_ns.to_bits()
    ));
    ev.push(format!("per_core={:?}", rep.per_core_queries));
    ev.push(format!(
        "ndist={} result_bytes={} fanout={:016x}",
        rep.total_ndist,
        rep.result_bytes,
        rep.mean_fanout.to_bits()
    ));
    ev
}

/// The small engine both workloads search: index and query batch.
fn small_engine() -> (DistIndex, VectorSet) {
    let data = synth::sift_like(900, 12, 42);
    let queries = synth::queries_near(&data, 10, 0.02, 43);
    let index = DistIndex::build(&data, EngineConfig::new(8, 2).with_seed(42));
    (index, queries)
}

/// Builds a small engine once and returns a seed → events workload over
/// it: a fault-free `SearchRequest` batch under `sched_seed`, flattened
/// with [`report_events`]. Used by the CLI `race` subcommand and the
/// K=8 CI smoke.
pub fn engine_workload() -> impl Fn(u64) -> Vec<String> {
    let (index, queries) = small_engine();
    move |seed| {
        let opts = SearchOptions::new(8).with_sched_seed(seed);
        report_events(&SearchRequest::new(&index, &queries).opts(opts).run())
    }
}

/// Like [`engine_workload`], over a stream: four batches with different
/// `k` and `ef` run back to back through one [`SearchSession`] under
/// `sched_seed`, every report's events concatenated. State
/// that leaks from one epoch of the long-lived cluster into the next, and
/// depends on the schedule, shows as a divergence.
pub fn stream_workload() -> impl Fn(u64) -> Vec<String> {
    let (index, queries) = small_engine();
    move |seed| {
        let batches = [(8, 64), (3, 16), (10, 128), (5, 40)].map(|(k, ef)| {
            let opts = SearchOptions::new(k).with_ef(ef).with_sched_seed(seed);
            SearchRequest::new(&index, &queries).opts(opts)
        });
        SearchSession::open(&index, None, seed, |s| {
            batches
                .iter()
                .flat_map(|&b| report_events(&s.run(b)))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_nonzero_and_spread() {
        let seeds: Vec<u64> = (0..16).map(|i| derive_seed(0, i)).collect();
        assert!(seeds.iter().all(|&s| s != 0));
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "derived seeds must not collide");
    }

    #[test]
    fn explore_flags_first_divergence_with_windows() {
        // a "workload" that shifts one event under any nonzero seed
        let workload = |seed: u64| {
            (0..10)
                .map(|i| {
                    if seed != 0 && i == 6 {
                        "evt-6'".to_string()
                    } else {
                        format!("evt-{i}")
                    }
                })
                .collect::<Vec<_>>()
        };
        let report = explore(3, 99, workload);
        assert_eq!(report.runs, 3);
        assert_eq!(report.base_seed, 99);
        assert_eq!(report.baseline_len, 10);
        assert_eq!(report.divergences.len(), 3);
        let d = &report.divergences[0];
        assert_eq!(d.index, 6);
        assert_eq!(d.schedule_index, 0);
        assert_eq!(report.divergences[2].schedule_index, 2);
        assert_eq!(d.baseline_window.last().map(String::as_str), Some("evt-6"));
        assert_eq!(
            d.perturbed_window.last().map(String::as_str),
            Some("evt-6'")
        );
        assert!(d.baseline_window.len() <= WINDOW + 1);
    }

    #[test]
    fn explore_handles_length_divergence() {
        let workload = |seed: u64| {
            let n = if seed == 0 { 5 } else { 3 };
            (0..n).map(|i| format!("evt-{i}")).collect::<Vec<_>>()
        };
        let report = explore(1, 7, workload);
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].index, 3);
    }

    #[test]
    fn explore_is_clean_on_seed_independent_workloads() {
        let workload = |_seed: u64| vec!["a".to_string(), "b".to_string()];
        assert!(explore(4, 1, workload).is_clean());
    }

    #[test]
    fn render_prints_the_exact_reproducing_invocation() {
        // diverge only under the third derived schedule (index 2), so
        // the repro line must name --k 3 and that schedule's seed
        let trigger = derive_seed(0x5EED, 2);
        let workload = move |seed: u64| {
            if seed == trigger {
                vec!["evt-0'".to_string()]
            } else {
                vec!["evt-0".to_string()]
            }
        };
        let report = explore(8, 0x5EED, workload);
        assert_eq!(report.divergences.len(), 1);
        let rendered = report.render();
        assert!(
            rendered.contains("reproduce: cargo run -p fastann-check -- race --k 3 --seed 0x5eed"),
            "{rendered}"
        );
        assert!(
            rendered.contains(&format!("derived seed {trigger:#x}")),
            "{rendered}"
        );
    }
}
