//! The backlog-peak gauge ([`fastann_obs::Shard::gauge_backlog`]) against
//! the quadratic scan it replaces: for every item, in acceptance order,
//! one plus the earlier-accepted items still unfinished at its arrival.

use fastann_obs::schema::WORKER_QUEUE_DEPTH;
use fastann_obs::{Metrics, ValueSnapshot};
use proptest::prelude::*;

/// The definition, scanned pairwise.
fn quadratic_peak(items: &[(f64, f64)]) -> usize {
    let mut peak = 0;
    for (i, &(arrival, _)) in items.iter().enumerate() {
        let depth = 1 + items[..i].iter().filter(|&&(_, d)| d > arrival).count();
        peak = peak.max(depth);
    }
    peak
}

fn swept_peak(items: &[(f64, f64)]) -> f64 {
    let m = Metrics::new();
    m.with(|s| s.gauge_backlog(WORKER_QUEUE_DEPTH, items.iter().copied()));
    match m.snapshot().get("fastann_worker_queue_depth", &[]) {
        Some(ValueSnapshot::Gauge(v)) => *v,
        other => panic!("the gauge must be recorded, got {other:?}"),
    }
}

proptest! {
    /// Virtual times from a small range, so arrivals and completions tie
    /// with each other and across items; acceptance order is arbitrary,
    /// as it is on a node whose messages arrive jittered or delayed.
    #[test]
    fn sweep_matches_the_quadratic_scan(
        pairs in collection::vec((0u32..12, 0u32..6), 0..80),
    ) {
        let items: Vec<(f64, f64)> = pairs
            .iter()
            .map(|&(a, d)| (f64::from(a) * 0.5, f64::from(a + d) * 0.5))
            .collect();
        prop_assert_eq!(swept_peak(&items), quadratic_peak(&items) as f64);
    }
}

#[test]
fn acceptance_order_not_arrival_order_sets_the_count() {
    // the second item was accepted later but arrived earlier: the first
    // counts as backlog at its arrival
    assert_eq!(swept_peak(&[(5.0, 10.0), (3.0, 4.0)]), 2.0);
    assert_eq!(swept_peak(&[(3.0, 4.0), (5.0, 10.0)]), 1.0);
    // a completion at an arrival's instant has left the queue
    assert_eq!(swept_peak(&[(0.0, 2.0), (2.0, 3.0)]), 1.0);
    assert_eq!(swept_peak(&[]), 0.0);
}
