//! The adaptive replication controller: metrics-driven raises and decays
//! of per-partition replica counts.
//!
//! The controller closes the loop the engine's [`fastann_core::ReplicaMap`]
//! opens: it watches the `fastann_worker_service_ns{partition}` histogram
//! the engine already records, folds the per-partition service-time deltas
//! into a sliding *virtual-time* window, and when one partition's share of
//! the window exceeds the hot threshold it raises that partition's replica
//! count (bounded by the routing policy's `max` and by per-node memory
//! accounting via [`fastann_core::DistIndex::node_memory_bytes_for`]).
//! Partitions whose share falls below the cold threshold decay back toward
//! the policy base. Every input is virtual-time or counted-work arithmetic
//! read from the deterministic [`Metrics`] registry — never wall clock —
//! so runs replay bit-identically at any `FASTANN_THREADS` setting.
//!
//! Raises and decays bump the map's generation (the epoch idiom): each
//! dispatched batch takes a snapshot of the map, so in-flight dispatch
//! stays consistent while later batches observe the new layout.

use std::collections::VecDeque;

use fastann_core::{DistIndex, ReplicaMap, RoutingPolicy};
use fastann_obs::schema::WORKER_SERVICE_NS;
use fastann_obs::Metrics;

/// Tuning knobs of the [`ReplicaController`].
///
/// `#[non_exhaustive]`: construct with [`ControllerPolicy::new`] (or
/// `default()`) and refine with the `with_*` setters.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct ControllerPolicy {
    /// Sliding window length (virtual ns) over which per-partition
    /// service-time shares are computed.
    pub window_ns: f64,
    /// A partition whose share of the window's total service time exceeds
    /// this is *hot*: the controller raises its replica count (one step
    /// per observation).
    pub hot_share: f64,
    /// A raised partition whose share falls below this is *cold*: the
    /// controller decays it one step back toward the policy base.
    pub cold_share: f64,
    /// Per-node memory budget (bytes) a raise may not push any node past,
    /// checked with [`DistIndex::node_memory_bytes_for`];
    /// `usize::MAX` disables the bound.
    pub node_memory_budget_bytes: usize,
}

impl Default for ControllerPolicy {
    /// 5 ms window, hot above a 35 % share, cold below 5 %, no memory
    /// bound.
    fn default() -> Self {
        Self::new()
    }
}

impl ControllerPolicy {
    /// The default knobs (see [`ControllerPolicy::default`]).
    pub fn new() -> Self {
        Self {
            window_ns: 5e6,
            hot_share: 0.35,
            cold_share: 0.05,
            node_memory_budget_bytes: usize::MAX,
        }
    }

    /// Sets the sliding-window length (builder style).
    pub fn with_window_ns(mut self, window_ns: f64) -> Self {
        assert!(window_ns > 0.0, "window must be positive");
        self.window_ns = window_ns;
        self
    }

    /// Sets the hot/cold share thresholds (builder style).
    pub fn with_shares(mut self, hot: f64, cold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hot) && (0.0..=1.0).contains(&cold) && cold < hot,
            "need 0 <= cold < hot <= 1"
        );
        self.hot_share = hot;
        self.cold_share = cold;
        self
    }

    /// Sets the per-node memory budget in bytes (builder style).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.node_memory_budget_bytes = bytes;
        self
    }
}

/// What one [`ReplicaController::observe`] call changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerAction {
    /// Partition whose replica count was raised by one, if any.
    pub raised: Option<usize>,
    /// Partition whose replica count was decayed by one, if any.
    pub decayed: Option<usize>,
}

/// The sliding-window replica controller. Owns the live [`ReplicaMap`];
/// the serving runtime snapshots it per dispatched batch and calls
/// [`ReplicaController::observe`] after each batch completes.
#[derive(Clone, Debug)]
pub struct ReplicaController {
    policy: ControllerPolicy,
    base: usize,
    max: usize,
    map: ReplicaMap,
    /// `(observed_at_ns, per-partition service-ns delta)` entries, oldest
    /// first; entries older than `window_ns` are dropped on observe.
    window: VecDeque<(f64, Vec<f64>)>,
    /// Last cumulative `fastann_worker_service_ns{partition}` sums, for
    /// delta computation.
    last_service: Vec<f64>,
    /// Delta vectors of entries that left the window, for reuse.
    spare: Vec<Vec<f64>>,
    /// Per-partition sums over the window, recomputed per observation.
    totals: Vec<f64>,
    raises: u64,
    decays: u64,
}

impl ReplicaController {
    /// A controller for `n_partitions` partitions under the (adaptive)
    /// `routing` policy.
    ///
    /// # Panics
    /// Panics when `routing` is not adaptive ([`RoutingPolicy::is_adaptive`]).
    pub fn new(n_partitions: usize, routing: RoutingPolicy, policy: ControllerPolicy) -> Self {
        assert!(
            routing.is_adaptive(),
            "a replica controller needs an adaptive routing policy"
        );
        let base = routing.base_replicas();
        Self {
            policy,
            base,
            max: routing.max_replicas(),
            map: ReplicaMap::uniform(n_partitions, base),
            window: VecDeque::new(),
            last_service: vec![0.0; n_partitions],
            spare: Vec::new(),
            totals: Vec::new(),
            raises: 0,
            decays: 0,
        }
    }

    /// The live replica map (snapshot with `.clone()` before dispatch).
    pub fn map(&self) -> &ReplicaMap {
        &self.map
    }

    /// Total raises so far.
    pub fn raises(&self) -> u64 {
        self.raises
    }

    /// Total decays so far.
    pub fn decays(&self) -> u64 {
        self.decays
    }

    /// Grows the map (and delta baselines) to cover `n_partitions` —
    /// dynamic splits create partitions mid-run; new ones start at base.
    pub fn ensure_cover(&mut self, n_partitions: usize) {
        self.map.ensure_len(n_partitions, self.base);
        if self.last_service.len() < n_partitions {
            self.last_service.resize(n_partitions, 0.0);
        }
    }

    /// Folds one batch's metrics into the sliding window and applies at
    /// most one raise and one decay. `now_ns` is the batch's virtual
    /// completion time; `metrics` is the registry *after* the batch
    /// (cumulative sums — the controller takes deltas internally).
    pub fn observe(
        &mut self,
        now_ns: f64,
        metrics: &Metrics,
        index: &DistIndex,
    ) -> ControllerAction {
        self.ensure_cover(index.n_partitions());
        let n = self.last_service.len();

        // per-partition service-time deltas since the previous
        // observation, read under one lock into a recycled window entry
        let mut delta = self.spare.pop().unwrap_or_default();
        delta.clear();
        let last = &mut self.last_service;
        metrics.with(|s| {
            for (p, last) in last.iter_mut().enumerate() {
                let sum = s
                    .histogram(WORKER_SERVICE_NS.at(p))
                    .map_or(0.0, |(_, sum)| sum);
                // counter-reset semantics: a sum below the baseline means
                // the registry was swapped — treat the whole new sum as
                // the delta
                delta.push(if sum >= *last { sum - *last } else { sum });
                *last = sum;
            }
        });
        self.window.push_back((now_ns, delta));
        while let Some((at, _)) = self.window.front() {
            if *at < now_ns - self.policy.window_ns {
                let (_, d) = self.window.pop_front().expect("front exists");
                self.spare.push(d);
            } else {
                break;
            }
        }

        // shares over the window
        let totals = &mut self.totals;
        totals.clear();
        totals.resize(n, 0.0);
        for (_, d) in &self.window {
            for (t, v) in totals.iter_mut().zip(d.iter()) {
                *t += v;
            }
        }
        let totals = &self.totals;
        let total_all: f64 = totals.iter().sum();
        let mut action = ControllerAction::default();
        if total_all <= 0.0 {
            return action;
        }

        // raise the hottest eligible partition (ties: lowest id)
        let hottest = (0..n).max_by(|&a, &b| totals[a].total_cmp(&totals[b]));
        if let Some(h) = hottest {
            let share = totals[h] / total_all;
            if share > self.policy.hot_share && self.map.count(h) < self.max {
                let fits = self.raise_fits(index, h);
                if fits && self.map.set_count(h, self.map.count(h) + 1) {
                    self.raises += 1;
                    action.raised = Some(h);
                }
            }
        }

        // decay the coldest raised partition (ties: lowest id), never the
        // one just raised
        let coldest = (0..n)
            .filter(|&p| self.map.count(p) > self.base && action.raised != Some(p))
            .min_by(|&a, &b| totals[a].total_cmp(&totals[b]));
        if let Some(c) = coldest {
            let share = totals[c] / total_all;
            if share < self.policy.cold_share && self.map.set_count(c, self.map.count(c) - 1) {
                self.decays += 1;
                action.decayed = Some(c);
            }
        }
        action
    }

    /// `true` when every node stays within the memory budget once
    /// partition `h` gains a replica.
    fn raise_fits(&self, index: &DistIndex, h: usize) -> bool {
        if self.policy.node_memory_budget_bytes == usize::MAX {
            return true;
        }
        let mut cand = self.map.counts().to_vec();
        cand[h] += 1;
        index
            .node_memory_bytes_for(&cand)
            .iter()
            .all(|&b| b <= self.policy.node_memory_budget_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_core::EngineConfig;
    use fastann_data::synth;

    fn po2(base: usize, max: usize) -> RoutingPolicy {
        RoutingPolicy::PowerOfTwo { base, max }
    }

    fn small_index() -> DistIndex {
        let data = synth::sift_like(600, 8, 3);
        DistIndex::build(&data, EngineConfig::new(4, 2).with_seed(3))
    }

    fn record(m: &Metrics, part: usize, ns: f64) {
        m.with(|s| s.observe(WORKER_SERVICE_NS.at(part), ns));
    }

    #[test]
    #[should_panic]
    fn static_policy_rejected() {
        let _ = ReplicaController::new(4, RoutingPolicy::Static(2), ControllerPolicy::new());
    }

    #[test]
    fn hot_partition_is_raised_then_decays_when_cold() {
        let index = small_index();
        let m = Metrics::new();
        let mut c = ReplicaController::new(4, po2(1, 3), ControllerPolicy::new());
        // partition 2 takes 90% of the service time
        record(&m, 2, 9_000.0);
        record(&m, 0, 1_000.0);
        let act = c.observe(1e6, &m, &index);
        assert_eq!(act.raised, Some(2));
        assert_eq!(c.map().count(2), 2);
        assert_eq!(c.map().generation(), 1);
        assert_eq!(c.raises(), 1);

        // traffic moves entirely to partition 0; after the window slides
        // past the hot samples, partition 2 decays
        record(&m, 0, 50_000.0);
        let act = c.observe(1e6 + 2.0 * c.policy.window_ns, &m, &index);
        assert_eq!(act.decayed, Some(2));
        assert_eq!(c.map().count(2), 1);
        assert_eq!(c.decays(), 1);
    }

    #[test]
    fn raise_is_capped_at_policy_max() {
        let index = small_index();
        let m = Metrics::new();
        let mut c = ReplicaController::new(4, po2(1, 2), ControllerPolicy::new());
        record(&m, 1, 10_000.0);
        let a1 = c.observe(1e5, &m, &index);
        assert_eq!(a1.raised, Some(1));
        record(&m, 1, 10_000.0);
        let a2 = c.observe(2e5, &m, &index);
        assert_eq!(a2.raised, None, "already at max=2");
        assert_eq!(c.map().count(1), 2);
    }

    #[test]
    fn memory_budget_blocks_a_raise() {
        // one core per node: a raise spills the partition's shard onto a
        // fresh node, so the budget has something to veto
        let data = synth::sift_like(600, 8, 3);
        let index = DistIndex::build(&data, EngineConfig::new(4, 1).with_seed(3));
        let bytes_now = index.node_memory_bytes(1).into_iter().max().unwrap_or(0);
        let m = Metrics::new();
        // budget exactly at the r=1 footprint: any raise would exceed it
        let mut c = ReplicaController::new(
            4,
            po2(1, 3),
            ControllerPolicy::new().with_memory_budget(bytes_now),
        );
        record(&m, 0, 10_000.0);
        let act = c.observe(1e5, &m, &index);
        assert_eq!(act.raised, None, "budget must veto the raise");
        assert_eq!(c.map().count(0), 1);
        assert_eq!(c.map().generation(), 0);
    }

    #[test]
    fn observe_without_traffic_is_inert() {
        let index = small_index();
        let m = Metrics::new();
        let mut c = ReplicaController::new(4, po2(1, 3), ControllerPolicy::new());
        let act = c.observe(1e5, &m, &index);
        assert_eq!(act, ControllerAction::default());
        assert_eq!(c.map().generation(), 0);
    }

    #[test]
    fn ensure_cover_grows_for_splits() {
        let mut c = ReplicaController::new(2, po2(1, 3), ControllerPolicy::new());
        c.ensure_cover(5);
        assert_eq!(c.map().len(), 5);
        assert_eq!(c.map().count(4), 1);
    }
}
