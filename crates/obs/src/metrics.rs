//! The order-invariant metrics registry.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::snapshot::{MetricEntry, MetricsSnapshot, ValueSnapshot};
use crate::stage::Stage;

/// Fixed-point scale for histogram sums: each observation contributes
/// `round(value * 1024)` to a `u64` accumulator, so accumulation is pure
/// integer addition and immune to floating-point ordering.
pub(crate) const SUM_SCALE: f64 = 1024.0;

/// Bucket-bound presets. Bounds are `&'static` so every observation of a
/// series provably uses the same layout; the final `+Inf` bucket is
/// implicit.
pub mod buckets {
    /// Small cardinalities: fan-outs, batch sizes, hop counts, retries.
    pub const COUNT: &[f64] = &[
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    ];
    /// Per-query work units: distance evaluations, heap pushes.
    pub const WORK: &[f64] = &[
        16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    ];
    /// Virtual-time durations in nanoseconds, decade-spaced from 1 µs
    /// to 1 s.
    pub const NS: &[f64] = &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];
}

/// One series' accumulated state.
enum Slot {
    /// Monotone `u64` counter.
    Counter(u64),
    /// Max-gauge: the largest value observed.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Hist),
}

struct Hist {
    bounds: &'static [f64],
    /// One count per bound, plus the trailing `+Inf` bucket
    /// (non-cumulative; the exporters cumulate).
    counts: Vec<u64>,
    count: u64,
    /// Sum in fixed point (see [`SUM_SCALE`]).
    sum_fp: u64,
}

impl Hist {
    fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum_fp: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_fp += (v.max(0.0) * SUM_SCALE).round() as u64;
    }
}

/// Series key: metric name plus sorted label pairs. Label *names* are
/// static (they are part of the schema); label *values* are data.
type Key = (&'static str, Vec<(&'static str, String)>);

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
    let mut l: Vec<(&'static str, String)> =
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    l.sort_unstable();
    (name, l)
}

/// A shared, thread-safe metrics registry. Cloning is cheap (an `Arc`
/// bump) and every clone records into the same store, so the engine's
/// per-rank threads can all hold one handle. All mutations are
/// order-invariant folds — see the crate docs for the determinism
/// contract.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<BTreeMap<Key, Slot>>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter series `name{labels}`.
    ///
    /// # Panics
    /// Panics if the series was already registered as a different type.
    pub fn inc(&self, name: &'static str, labels: &[(&'static str, &str)], n: u64) {
        let mut g = self.inner.lock();
        let slot = g.entry(key(name, labels)).or_insert(Slot::Counter(0));
        assert!(
            matches!(slot, Slot::Counter(_)),
            "metric {name} is not a counter"
        );
        if let Slot::Counter(c) = slot {
            *c += n;
        }
    }

    /// Folds `v` into the max-gauge series `name{labels}` (the gauge
    /// reports the largest value observed, which is the only gauge
    /// semantic that merges order-invariantly).
    ///
    /// # Panics
    /// Panics if the series was already registered as a different type,
    /// or if `v` is not finite (NaN would poison the max fold, and an
    /// infinite gauge cannot round-trip through the JSON exporter).
    pub fn gauge_max(&self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        assert!(v.is_finite(), "metric {name}: gauge value must be finite");
        let mut g = self.inner.lock();
        let slot = g
            .entry(key(name, labels))
            .or_insert(Slot::Gauge(f64::NEG_INFINITY));
        assert!(
            matches!(slot, Slot::Gauge(_)),
            "metric {name} is not a gauge"
        );
        if let Slot::Gauge(cur) = slot {
            *cur = cur.max(v);
        }
    }

    /// Records `v` into the histogram series `name{labels}` with the
    /// given bucket `bounds` (use a [`buckets`] preset; bounds must be
    /// ascending and identical for every observation of a series).
    ///
    /// # Panics
    /// Panics if the series was already registered as a different type
    /// or with different bounds, or if `v` is NaN.
    pub fn observe(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        v: f64,
        bounds: &'static [f64],
    ) {
        assert!(!v.is_nan(), "metric {name}: observation must not be NaN");
        let mut g = self.inner.lock();
        let slot = g
            .entry(key(name, labels))
            .or_insert_with(|| Slot::Histogram(Hist::new(bounds)));
        assert!(
            matches!(slot, Slot::Histogram(_)),
            "metric {name} is not a histogram"
        );
        if let Slot::Histogram(h) = slot {
            assert!(
                h.bounds == bounds,
                "metric {name}: bucket bounds must match the first registration"
            );
            h.observe(v);
        }
    }

    /// Records a query-path span: folds the duration `end_ns - start_ns`
    /// into the `fastann_span_ns{stage=...}` histogram. This is the
    /// metrics half of the unified span layer; callers that also hold a
    /// `fastann_mpisim::Trace` record the same [`Stage::label`] there.
    pub fn span(&self, stage: Stage, start_ns: f64, end_ns: f64) {
        self.observe(
            "fastann_span_ns",
            &[("stage", stage.label())],
            (end_ns - start_ns).max(0.0),
            buckets::NS,
        );
    }

    /// Folds every series of `other` into `self`. Merging is
    /// order-invariant: any permutation of shards produces the same
    /// registry state.
    ///
    /// # Panics
    /// Panics if a series exists in both registries with conflicting
    /// types or bucket bounds.
    pub fn merge_from(&self, other: &Metrics) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let theirs = other.inner.lock();
        let mut ours = self.inner.lock();
        for ((name, labels), slot) in theirs.iter() {
            let entry = ours.entry((name, labels.clone()));
            match slot {
                Slot::Counter(n) => {
                    let dst = entry.or_insert(Slot::Counter(0));
                    assert!(
                        matches!(dst, Slot::Counter(_)),
                        "metric {name}: merge type mismatch"
                    );
                    if let Slot::Counter(c) = dst {
                        *c += n;
                    }
                }
                Slot::Gauge(v) => {
                    let dst = entry.or_insert(Slot::Gauge(f64::NEG_INFINITY));
                    assert!(
                        matches!(dst, Slot::Gauge(_)),
                        "metric {name}: merge type mismatch"
                    );
                    if let Slot::Gauge(cur) = dst {
                        *cur = cur.max(*v);
                    }
                }
                Slot::Histogram(h) => {
                    let dst = entry.or_insert_with(|| Slot::Histogram(Hist::new(h.bounds)));
                    assert!(
                        matches!(dst, Slot::Histogram(_)),
                        "metric {name}: merge type mismatch"
                    );
                    if let Slot::Histogram(d) = dst {
                        assert!(d.bounds == h.bounds, "metric {name}: merge bounds mismatch");
                        for (a, b) in d.counts.iter_mut().zip(&h.counts) {
                            *a += b;
                        }
                        d.count += h.count;
                        d.sum_fp += h.sum_fp;
                    }
                }
            }
        }
    }

    /// `(count, sum)` of the histogram series `name{labels}`, read in
    /// place: the same pair [`MetricsSnapshot::histogram`] returns, without
    /// snapshotting the registry. `None` when the series is absent or not
    /// a histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Option<(u64, f64)> {
        match self.inner.lock().get(&key(name, labels)) {
            Some(Slot::Histogram(h)) => Some((h.count, h.sum_fp as f64 / SUM_SCALE)),
            _ => None,
        }
    }

    /// An immutable, sorted snapshot of every series. Two registries
    /// that accumulated the same observations — in any order, from any
    /// number of threads — snapshot identically (`==` compares exact
    /// bits).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock();
        let entries = g
            .iter()
            .map(|((name, labels), slot)| MetricEntry {
                name: (*name).to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
                value: match slot {
                    Slot::Counter(n) => ValueSnapshot::Counter(*n),
                    Slot::Gauge(v) => ValueSnapshot::Gauge(*v),
                    Slot::Histogram(h) => ValueSnapshot::Histogram {
                        bounds: h.bounds.to_vec(),
                        counts: h.counts.clone(),
                        count: h.count,
                        sum: h.sum_fp as f64 / SUM_SCALE,
                    },
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_reads_in_place_what_the_snapshot_reads() {
        let m = Metrics::new();
        m.observe("h", &[("p", "1")], 2.5, buckets::COUNT);
        m.observe("h", &[("p", "1")], 0.126, buckets::COUNT);
        m.inc("c", &[], 1);
        let s = m.snapshot();
        assert_eq!(
            m.histogram("h", &[("p", "1")]),
            s.histogram("h", &[("p", "1")])
        );
        assert_eq!(m.histogram("h", &[("p", "1")]).map(|(n, _)| n), Some(2));
        assert_eq!(m.histogram("h", &[("p", "2")]), None);
        assert_eq!(m.histogram("c", &[]), None, "a counter is not a histogram");
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.inc("fastann_test_total", &[], 2);
        m.inc("fastann_test_total", &[], 3);
        let s = m.snapshot();
        assert_eq!(s.counter("fastann_test_total", &[]), Some(5));
    }

    #[test]
    fn labels_split_series_and_sort_canonically() {
        let m = Metrics::new();
        m.inc("c", &[("b", "2"), ("a", "1")], 1);
        m.inc("c", &[("a", "1"), ("b", "2")], 1);
        m.inc("c", &[("a", "9")], 7);
        let s = m.snapshot();
        assert_eq!(s.counter("c", &[("a", "1"), ("b", "2")]), Some(2));
        assert_eq!(s.counter("c", &[("a", "9")]), Some(7));
    }

    #[test]
    fn gauge_keeps_the_max() {
        let m = Metrics::new();
        m.gauge_max("g", &[], 3.0);
        m.gauge_max("g", &[], 7.5);
        m.gauge_max("g", &[], 1.0);
        let s = m.snapshot();
        let v = s.get("g", &[]).expect("gauge exists");
        assert!(matches!(v, ValueSnapshot::Gauge(x) if *x == 7.5));
    }

    #[test]
    fn histogram_buckets_and_fixed_point_sum() {
        let m = Metrics::new();
        for v in [0.5, 1.0, 3.0, 1e9] {
            m.observe("h", &[], v, buckets::COUNT);
        }
        let s = m.snapshot();
        let (count, sum) = s.histogram("h", &[]).expect("histogram exists");
        assert_eq!(count, 4);
        assert_eq!(sum, 0.5f64 + 1.0 + 3.0 + 1e9, "exact in fixed point");
        let v = s.get("h", &[]).expect("histogram exists");
        if let ValueSnapshot::Histogram { counts, .. } = v {
            assert_eq!(counts[0], 2, "0.5 and 1.0 land in le=1");
            assert_eq!(counts[2], 1, "3.0 lands in le=4");
            assert_eq!(*counts.last().expect("has +Inf bucket"), 1);
        }
    }

    #[test]
    fn span_folds_into_the_stage_histogram() {
        let m = Metrics::new();
        m.span(Stage::Route, 100.0, 2_600.0);
        let s = m.snapshot();
        let labels = [("stage", "route+dispatch")];
        let (count, sum) = s
            .histogram("fastann_span_ns", &labels)
            .expect("span histogram exists");
        assert_eq!(count, 1);
        assert_eq!(sum, 2_500.0);
    }

    #[test]
    fn merge_is_a_disjoint_and_overlapping_union() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.inc("c", &[], 1);
        b.inc("c", &[], 2);
        b.gauge_max("g", &[], 4.0);
        a.observe("h", &[], 2.0, buckets::COUNT);
        b.observe("h", &[], 5.0, buckets::COUNT);
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.counter("c", &[]), Some(3));
        assert_eq!(s.histogram("h", &[]), Some((2, 7.0)));
        assert!(matches!(
            s.get("g", &[]),
            Some(ValueSnapshot::Gauge(x)) if *x == 4.0
        ));
    }

    #[test]
    fn merge_with_self_is_a_noop() {
        let m = Metrics::new();
        m.inc("c", &[], 3);
        let m2 = m.clone();
        m.merge_from(&m2);
        assert_eq!(m.snapshot().counter("c", &[]), Some(3));
    }

    #[test]
    #[should_panic]
    fn type_confusion_is_rejected() {
        let m = Metrics::new();
        m.inc("x", &[], 1);
        m.gauge_max("x", &[], 1.0);
    }
}
