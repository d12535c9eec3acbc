//! The engine's worker nodes run as handlers on the caller's thread: a
//! session starts no OS thread per batch, and a flush too short to pay
//! for a spawn searches inline. This file holds one test so that no other
//! test's threads land in its count.

use fastann_core::{DistIndex, EngineConfig, SearchRequest, SearchSession};
use fastann_data::{synth, VectorSet};
use fastann_hnsw::HnswConfig;

/// Number of threads the process started while `f` ran. std numbers its
/// threads from one process-wide counter, so the ids of two probe threads
/// bracket every thread started between them.
fn threads_started<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let probe = || {
        let id = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("probe thread");
        let digits: String = format!("{id:?}")
            .chars()
            .filter(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().expect("a ThreadId prints its number")
    };
    let before = probe();
    let out = f();
    (out, probe() - before - 1)
}

#[test]
fn sessions_start_threads_only_for_flushes_that_pay_for_them() {
    let data = synth::sift_like(3000, 16, 5);
    // 4 nodes of 2 cores, each node searching on 2 real threads
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(5))
        .with_seed(5)
        .with_threads(2);
    let index = DistIndex::build(&data, cfg);
    let pair = synth::queries_near(&data, 2, 0.02, 6);
    let many = synth::queries_near(&data, 400, 0.02, 7);
    let run = |queries: &VectorSet| {
        SearchSession::open(&index, None, 0, |s| {
            (0..4)
                .map(|_| s.run(SearchRequest::new(&index, queries)))
                .collect::<Vec<_>>()
        })
    };
    // two queries probe at most 4 partitions per node: every flush runs
    // inline, and no epoch starts a thread
    let (reports, started) = threads_started(|| run(&pair));
    assert_eq!(started, 0, "short batches started threads");
    assert!(reports.iter().all(|r| r.results.len() == 2));
    assert!(reports.windows(2).all(|w| w[0].results == w[1].results));
    // 400 queries give every node enough probes to split its flush
    let (_, started) = threads_started(|| run(&many));
    assert!(started > 0, "long flushes ran on one thread");
}
