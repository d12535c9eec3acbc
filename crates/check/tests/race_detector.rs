//! End-to-end tests of the schedule-perturbation race detector.
//!
//! The positive case reconstructs the PR 1 bug class: a master that
//! drains worker replies with a wildcard-source receive observes them in
//! whatever order the OS scheduler (here: the seeded perturbation)
//! happens to deliver, so its event stream diverges across interleavings.
//! The fixed protocol — per-source, tag-exact drains in rank order — is
//! schedule-neutral by construction, and the detector must report it
//! clean under the same seeds.

use std::time::Duration;

use bytes::Bytes;
use fastann_check::race;
use fastann_mpisim::{Cluster, SchedPerturb, SimConfig};

const N_SENDERS: usize = 4;
const MSGS_PER_SENDER: usize = 2;
const TAG_DATA: u64 = 1;

/// Runs the mini master/sender protocol under one perturbation seed and
/// returns the master's receive log. `wildcard` selects the racy
/// (wildcard-source) or fixed (per-source drain) receive strategy.
fn mini_protocol(seed: u64, wildcard: bool) -> Vec<String> {
    let cfg = SimConfig::new(N_SENDERS + 1).sched(SchedPerturb::seeded(seed));
    let cluster = Cluster::new(cfg);
    let outs: Vec<Vec<String>> = cluster.run(|rank| {
        let me = rank.rank();
        if me == 0 {
            // Let every sender's traffic arrive before the first match, so
            // the perturbed wildcard matcher has the full choice of heads
            // (real-time sleep; virtual clocks are unaffected).
            std::thread::sleep(Duration::from_millis(120));
            let mut events = Vec::new();
            if wildcard {
                for _ in 0..N_SENDERS * MSGS_PER_SENDER {
                    let m = rank.recv(None, None);
                    events.push(format!("src={} payload={:?}", m.src, &m.payload[..]));
                }
            } else {
                for src in 1..=N_SENDERS {
                    for _ in 0..MSGS_PER_SENDER {
                        let m = rank.recv(Some(src), Some(TAG_DATA));
                        events.push(format!("src={} payload={:?}", m.src, &m.payload[..]));
                    }
                }
            }
            events
        } else {
            // Stagger senders in real time so the baseline arrival order
            // is stable across runs.
            std::thread::sleep(Duration::from_millis(15 * me as u64));
            for j in 0..MSGS_PER_SENDER {
                let payload = Bytes::from(vec![me as u8, j as u8]);
                rank.send_bytes(0, TAG_DATA, payload);
            }
            Vec::new()
        }
    });
    outs.into_iter().flatten().collect()
}

#[test]
fn wildcard_master_diverges_under_perturbation() {
    // PR 1 regression: the wildcard-receive merge loop is a race and the
    // detector must catch it within a K=8 exploration.
    let report = race::explore(8, 0x1234, |seed| mini_protocol(seed, true));
    assert!(
        !report.is_clean(),
        "wildcard-source drain must diverge under perturbed schedules"
    );
    let d = &report.divergences[0];
    assert!(d.seed != 0, "divergence records the perturbation seed");
    assert!(
        !d.baseline_window.is_empty() && !d.perturbed_window.is_empty(),
        "divergence carries both interleavings' event windows"
    );
    assert_ne!(
        d.baseline_window.last(),
        d.perturbed_window.last(),
        "the windows end at the first diverging event"
    );
}

#[test]
fn per_source_drain_is_schedule_neutral() {
    let report = race::explore(8, 0x1234, |seed| mini_protocol(seed, false));
    assert!(
        report.is_clean(),
        "per-source drain diverged: {}",
        report.render()
    );
    assert_eq!(report.baseline_len, N_SENDERS * MSGS_PER_SENDER);
}

#[test]
fn engine_fault_free_k8_is_clean() {
    // The production fault-free path must be schedule-neutral: K=8
    // perturbed interleavings of the same batch, identical reports.
    let workload = race::engine_workload();
    let report = race::explore(8, 0x5EED, workload);
    assert!(
        report.is_clean(),
        "fault-free search_batch diverged: {}",
        report.render()
    );
}

#[test]
fn engine_stream_k8_is_clean() {
    // A stream of batches on one long-lived cluster must be as
    // schedule-neutral as a lone batch: no epoch inherits state that
    // depends on how the previous one was scheduled.
    let report = race::explore(8, 0x5EED, race::stream_workload());
    assert!(
        report.is_clean(),
        "batch stream diverged: {}",
        report.render()
    );
    assert_eq!(
        report.baseline_len,
        4 * 13,
        "four reports of ten queries plus three aggregate events each"
    );
}
