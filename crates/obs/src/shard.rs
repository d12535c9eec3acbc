//! The series store: dense integer slots per family, folded in place.
//!
//! A [`Shard`] holds one [`Family`] per declared series family, in
//! schema order, followed by the ad hoc families the string API
//! created. A family's series are dense slots indexed by label index, so
//! recording through a handle is an index and an integer fold — no key,
//! no string, no allocation once the slot exists. The registry's store
//! and a batch's local accumulator are both `Shard`s.

use crate::metrics::SUM_SCALE;
use crate::schema::{Counter, Gauge, Histogram, Kind, Labels, SCHEMA, SPAN_NS};
use crate::snapshot::{MetricEntry, MetricsSnapshot, ValueSnapshot};
use crate::stage::Stage;

/// One series' scalar state. `hits` counts the folds (a series is
/// exported once it is non-zero); `total` is a counter's value or a
/// histogram's fixed-point sum; `max` is a gauge's value.
#[derive(Clone, Copy)]
struct Slot {
    hits: u64,
    total: u64,
    max: f64,
}

/// An unrecorded slot. Gauges start at −∞.
const EMPTY: Slot = Slot {
    hits: 0,
    total: 0,
    max: f64::NEG_INFINITY,
};

/// Label pairs sorted by name, as the exporters order them.
type Key = Vec<(&'static str, String)>;

pub(crate) struct Family {
    name: &'static str,
    kind: Kind,
    labels: Labels,
    slots: Vec<Slot>,
    /// Histogram bucket counts, [`Kind::stride`] per slot
    /// (non-cumulative; the exporters cumulate).
    buckets: Vec<u64>,
    /// [`Labels::AdHoc`] only: each slot's label pairs.
    keys: Vec<Key>,
}

impl Family {
    fn new(name: &'static str, kind: Kind, labels: Labels) -> Self {
        Family {
            name,
            kind,
            labels,
            slots: Vec::new(),
            buckets: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Slot `i` and its buckets, created on first use.
    #[inline]
    fn slot(&mut self, i: usize) -> (&mut Slot, &mut [u64]) {
        let stride = self.kind.stride();
        if i >= self.slots.len() {
            self.grow(i);
        }
        (
            &mut self.slots[i],
            &mut self.buckets[i * stride..(i + 1) * stride],
        )
    }

    /// Creates the slots up to `i`.
    #[cold]
    fn grow(&mut self, i: usize) {
        self.slots.resize(i + 1, EMPTY);
        self.buckets.resize((i + 1) * self.kind.stride(), 0);
    }

    #[inline]
    pub(crate) fn inc(&mut self, i: usize, n: u64) {
        let (s, _) = self.slot(i);
        s.hits += 1;
        s.total += n;
    }

    #[inline]
    pub(crate) fn gauge_max(&mut self, i: usize, v: f64) {
        let (s, _) = self.slot(i);
        s.hits += 1;
        s.max = s.max.max(v);
    }

    #[inline]
    pub(crate) fn observe(&mut self, i: usize, v: f64) {
        let bounds = self.kind.bounds();
        // the first bound at or above `v`, counted without a branch per
        // bound (the bounds ascend)
        let b = bounds.iter().filter(|&&b| v > b).count();
        let (s, counts) = self.slot(i);
        counts[b] += 1;
        s.hits += 1;
        s.total += (v.max(0.0) * SUM_SCALE).round() as u64;
    }

    /// `(count, sum)` of histogram slot `i`, if recorded.
    fn histogram(&self, i: usize) -> Option<(u64, f64)> {
        let s = self.slots.get(i)?;
        (s.hits > 0).then(|| (s.hits, s.total as f64 / SUM_SCALE))
    }

    /// Folds `other`'s slot `j` into slot `i`.
    fn merge_slot(&mut self, i: usize, other: &Family, j: usize) {
        let stride = self.kind.stride();
        let o = other.slots[j];
        let (s, counts) = self.slot(i);
        s.hits += o.hits;
        s.total += o.total;
        s.max = s.max.max(o.max);
        for (a, b) in counts.iter_mut().zip(&other.buckets[j * stride..]) {
            *a += b;
        }
    }

    /// The slot the label pairs `labels` name, or `None` when they do not
    /// fit the family. An ad hoc family gains a slot for a new key when
    /// `create` is set.
    fn find(&mut self, labels: &[(&'static str, &str)], create: bool) -> Option<usize> {
        match (self.labels, labels) {
            (Labels::None, []) => Some(0),
            (Labels::Enum(n, values), [(k, v)]) if *k == n => values.iter().position(|x| x == v),
            (Labels::Index(n), [(k, v)]) if *k == n => v
                .parse::<u32>()
                .ok()
                .filter(|i| i.to_string() == *v)
                .map(|i| i as usize),
            (Labels::AdHoc, _) => {
                let mut key: Key = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
                key.sort_unstable();
                self.key_slot(key, create)
            }
            _ => None,
        }
    }

    fn key_slot(&mut self, key: Key, create: bool) -> Option<usize> {
        match self.keys.iter().position(|k| *k == key) {
            Some(i) => Some(i),
            None if create => {
                self.keys.push(key);
                Some(self.keys.len() - 1)
            }
            None => None,
        }
    }

    /// Slot `i`'s label pairs.
    fn labels_of(&self, i: usize) -> Vec<(String, String)> {
        match self.labels {
            Labels::None => Vec::new(),
            Labels::Enum(n, values) => vec![(n.to_string(), values[i].to_string())],
            Labels::Index(n) => vec![(n.to_string(), i.to_string())],
            Labels::AdHoc => self.keys[i]
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }
}

/// A store of series: the registry's own, or a batch-local accumulator
/// from [`crate::Metrics::shard`] that records without a lock and is
/// folded into the registry with [`crate::Metrics::merge_shard`].
pub struct Shard {
    families: Vec<Family>,
    /// [`Shard::gauge_backlog`]'s scratch: `(time key, position)` of the
    /// arrivals and of the completions, and a Fenwick tree.
    arrivals: Vec<(u64, u32)>,
    dones: Vec<(u64, u32)>,
    tree: Vec<u32>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            families: SCHEMA
                .iter()
                .map(|d| Family::new(d.name, d.kind, d.labels))
                .collect(),
            arrivals: Vec::new(),
            dones: Vec::new(),
            tree: Vec::new(),
        }
    }
}

impl Shard {
    /// Adds `n` to a counter.
    #[inline]
    pub fn inc(&mut self, c: Counter, n: u64) {
        self.families[c.family as usize].inc(c.cell as usize, n);
    }

    /// Folds `v` into a max-gauge.
    ///
    /// # Panics
    /// Panics if `v` is not finite.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: f64) {
        assert!(v.is_finite(), "gauge value must be finite");
        self.families[g.family as usize].gauge_max(g.cell as usize, v);
    }

    /// Records `v` into a histogram.
    ///
    /// # Panics
    /// Panics if `v` is NaN.
    #[inline]
    pub fn observe(&mut self, h: Histogram, v: f64) {
        assert!(!v.is_nan(), "observation must not be NaN");
        self.families[h.family as usize].observe(h.cell as usize, v);
    }

    /// Records a query-path span of `end_ns - start_ns` into
    /// `fastann_span_ns{stage}`.
    #[inline]
    pub fn span(&mut self, stage: Stage, start_ns: f64, end_ns: f64) {
        self.observe(SPAN_NS.at(stage as usize), (end_ns - start_ns).max(0.0));
    }

    /// `(count, sum)` of a histogram, or `None` while it is unrecorded.
    pub fn histogram(&self, h: Histogram) -> Option<(u64, f64)> {
        self.families[h.family as usize].histogram(h.cell as usize)
    }

    /// Folds into `g` the peak backlog of a queue whose items, in the
    /// order they were accepted, arrived and finished at the `(arrival,
    /// done)` pairs of `items`: the largest count, over the items, of the
    /// item itself plus the items accepted before it and unfinished when
    /// it arrived.
    ///
    /// One sorted sweep: arrivals and completions are each sorted by time
    /// (a node's arrivals usually are already, which the sort detects),
    /// and walking the arrivals in time order, after first taking in every
    /// completion at or before the arrival's instant, a Fenwick tree over
    /// acceptance positions counts the earlier-accepted items that have
    /// not completed. Acceptance order need not be arrival order, so the
    /// count is by position, not by time alone.
    pub fn gauge_backlog(&mut self, g: Gauge, items: impl Iterator<Item = (f64, f64)>) {
        let (arrivals, dones) = (&mut self.arrivals, &mut self.dones);
        arrivals.clear();
        dones.clear();
        for (i, (arrival, done)) in items.enumerate() {
            arrivals.push((order_key(arrival), i as u32));
            dones.push((order_key(done), i as u32));
        }
        arrivals.sort_unstable_by_key(|e| e.0);
        dones.sort_unstable_by_key(|e| e.0);
        let n = arrivals.len();
        self.tree.clear();
        self.tree.resize(n + 1, 0);
        let (mut peak, mut next) = (0usize, 0usize);
        for &(at, i) in arrivals.iter() {
            while next < n && dones[next].0 <= at {
                let mut j = dones[next].1 as usize + 1;
                while j <= n {
                    self.tree[j] += 1;
                    j += j & j.wrapping_neg();
                }
                next += 1;
            }
            let i = i as usize;
            let (mut done_before, mut j) = (0, i);
            while j > 0 {
                done_before += self.tree[j] as usize;
                j &= j - 1;
            }
            peak = peak.max(1 + i - done_before);
        }
        self.gauge_max(g, peak as f64);
    }

    /// The family named `name`, created ad hoc (with `kind`) when no
    /// declared or earlier family has the name.
    ///
    /// # Panics
    /// Panics if the family exists with another type or other bucket
    /// bounds.
    fn family(&mut self, name: &'static str, kind: Kind) -> &mut Family {
        let f = match self.families.iter().position(|f| f.name == name) {
            Some(f) => f,
            None => {
                self.families.push(Family::new(name, kind, Labels::AdHoc));
                self.families.len() - 1
            }
        };
        assert!(
            self.families[f].kind == kind,
            "metric {name}: type and bucket bounds must match the first registration"
        );
        &mut self.families[f]
    }

    /// Family `name`'s slot for `labels`, created on first use.
    ///
    /// # Panics
    /// Panics on a type or bounds mismatch, or when `labels` do not fit a
    /// declared family's label.
    pub(crate) fn resolve(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        kind: Kind,
    ) -> (&mut Family, usize) {
        let f = self.family(name, kind);
        let i = f.find(labels, true);
        assert!(
            i.is_some(),
            "metric {name}: labels {labels:?} do not fit its schema"
        );
        (f, i.unwrap_or(0))
    }

    /// `(count, sum)` of histogram `name{labels}`; `None` when it is
    /// absent or not a histogram.
    pub(crate) fn histogram_named(
        &mut self,
        name: &str,
        labels: &[(&'static str, &str)],
    ) -> Option<(u64, f64)> {
        let f = self.families.iter_mut().find(|f| f.name == name)?;
        if !matches!(f.kind, Kind::Histogram(_)) {
            return None;
        }
        let i = f.find(labels, false)?;
        f.histogram(i)
    }

    /// Folds every recorded series of `other` into `self`: declared
    /// families by position, ad hoc ones by name and key.
    ///
    /// # Panics
    /// Panics if an ad hoc family exists in both with conflicting types
    /// or bucket bounds.
    pub(crate) fn merge(&mut self, other: &Shard) {
        for (fi, o) in other.families.iter().enumerate() {
            if o.slots.iter().all(|s| s.hits == 0) {
                continue;
            }
            let dst = if fi < SCHEMA.len() {
                &mut self.families[fi]
            } else {
                self.family(o.name, o.kind)
            };
            for (j, s) in o.slots.iter().enumerate() {
                if s.hits == 0 {
                    continue;
                }
                let i = match o.labels {
                    Labels::AdHoc => dst.key_slot(o.keys[j].clone(), true).expect("created"),
                    _ => j,
                };
                dst.merge_slot(i, o, j);
            }
        }
    }

    /// Forgets every series but keeps the allocations, so a reused
    /// accumulator records without allocating.
    pub(crate) fn clear(&mut self) {
        self.families.truncate(SCHEMA.len());
        for f in &mut self.families {
            f.slots.clear();
            f.buckets.clear();
        }
    }

    /// Every recorded series, sorted by name and then by label pairs as
    /// strings (so partition `"10"` sorts before `"2"`).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<MetricEntry> = Vec::new();
        for f in &self.families {
            let stride = f.kind.stride();
            for (i, s) in f.slots.iter().enumerate().filter(|(_, s)| s.hits > 0) {
                let value = match f.kind {
                    Kind::Counter => ValueSnapshot::Counter(s.total),
                    Kind::Gauge => ValueSnapshot::Gauge(s.max),
                    Kind::Histogram(bounds) => ValueSnapshot::Histogram {
                        bounds: bounds.to_vec(),
                        counts: f.buckets[i * stride..(i + 1) * stride].to_vec(),
                        count: s.hits,
                        sum: s.total as f64 / SUM_SCALE,
                    },
                };
                entries.push(MetricEntry {
                    name: f.name.to_string(),
                    labels: f.labels_of(i),
                    value,
                });
            }
        }
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { entries }
    }
}

/// `x`'s bits mapped so that unsigned order is [`f64::total_cmp`] order.
fn order_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}
