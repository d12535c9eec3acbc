//! The engine's worker nodes run as handlers on the caller's thread, and a
//! session's probes run on its one probe pool: a one-shot batch too small
//! to pay for a spawn starts no thread, and a session starts at most
//! `threads − 1` threads over its whole life. This file holds one test so
//! that no other test's threads land in its count.

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
fn sessions_start_their_pool_once_and_only_when_a_batch_pays_for_it() {
    let data = synth::sift_like(3000, 16, 5);
    let threads = 3;
    // 4 nodes of 2 cores, on a probe pool of 3 real threads
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(5))
        .with_seed(5)
        .with_threads(threads);
    let index = DistIndex::build(&data, cfg);

    // one query probes at most 4 partitions, below the 4 probes per
    // thread a spawn needs: the batch runs on the caller alone
    let one = synth::queries_near(&data, 1, 0.02, 6);
    let (report, started) = threads_started(|| SearchRequest::new(&index, &one).run());
    let probes: u64 = report.per_core_queries.iter().sum();
    assert!(probes < 4 * threads as u64, "{probes} probes");
    assert_eq!(started, 0, "a short one-shot batch started threads");

    // a stream of batches large enough to split starts the helpers once
    let many = synth::queries_near(&data, 400, 0.02, 7);
    let run = |queries: &VectorSet| {
        SearchSession::open(&index, None, 0, |s| {
            (0..6)
                .map(|_| s.run(SearchRequest::new(&index, queries)))
                .collect::<Vec<_>>()
        })
    };
    let (reports, started) = threads_started(|| run(&many));
    assert_eq!(
        started,
        threads as u64 - 1,
        "a session starts its helpers once"
    );
    assert!(reports.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(reports[0], SearchRequest::new(&index, &many).run());
}
