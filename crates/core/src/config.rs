//! Engine configuration.

use fastann_data::Distance;
use fastann_hnsw::HnswConfig;
use fastann_mpisim::{CostModel, NetModel};
use fastann_vptree::RouteConfig;

use crate::local::LocalIndexKind;
use crate::routing::RoutingPolicy;

/// Static configuration of a distributed index: cluster shape, metric,
/// HNSW parameters and query-routing policy.
///
/// `#[non_exhaustive]`: construct with [`EngineConfig::new`] (or
/// `default()`) and refine with the `with_*` setters — new knobs may be
/// added without breaking callers.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Total processing cores `P` = number of data partitions (power of
    /// two, the paper's Section IV mapping "one partition per core").
    pub n_cores: usize,
    /// Cores per compute node (`T` OpenMP threads per worker process). The
    /// paper's Cray XC40 nodes have 24; `n_cores` must be divisible by it.
    pub cores_per_node: usize,
    /// Metric (the paper evaluates with L2).
    pub metric: Distance,
    /// Per-partition HNSW construction parameters (used when
    /// `local_index` is [`LocalIndexKind::Hnsw`]).
    pub hnsw: HnswConfig,
    /// Which index structure serves each partition (paper Section VI:
    /// "any algorithm can be used for local indexing … instead of HNSW").
    pub local_index: LocalIndexKind,
    /// Query-routing policy (`F(q)` margin and partition budget).
    pub route: RouteConfig,
    /// Simulated interconnect.
    pub net: NetModel,
    /// Compute pricing for the virtual clocks.
    pub cost: CostModel,
    /// RNG seed for construction.
    pub seed: u64,
    /// Real OS threads for local work — the wall-clock analogue of the
    /// paper's OpenMP threads (the *virtual* `cores_per_node` clock model
    /// is unaffected). `1` (the default) keeps every code path
    /// sequential; larger values parallelise per-partition index
    /// construction and, on each search session's probe pool, the probes
    /// of every batch. All reported results and virtual-time numbers are
    /// bit-identical across `threads` settings; only wall-clock speed
    /// changes.
    pub threads: usize,
}

impl Default for EngineConfig {
    /// A small default cluster: 8 cores grouped 2 to a node.
    fn default() -> Self {
        Self::new(8, 2)
    }
}

impl EngineConfig {
    /// Configuration for `n_cores` total cores grouped `cores_per_node` to
    /// a node, with paper-default parameters elsewhere.
    ///
    /// # Panics
    /// Panics unless `n_cores` is a power of two divisible by
    /// `cores_per_node`.
    pub fn new(n_cores: usize, cores_per_node: usize) -> Self {
        assert!(
            n_cores.is_power_of_two(),
            "core count must be a power of two"
        );
        assert!(
            cores_per_node >= 1 && n_cores.is_multiple_of(cores_per_node),
            "cores ({n_cores}) must divide evenly into nodes of {cores_per_node}"
        );
        Self {
            n_cores,
            cores_per_node,
            metric: Distance::L2,
            hnsw: HnswConfig::default(),
            local_index: LocalIndexKind::Hnsw,
            route: RouteConfig::default(),
            net: NetModel::default(),
            cost: CostModel::default(),
            seed: 0,
            threads: 1,
        }
    }

    /// Number of worker compute nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_cores / self.cores_per_node
    }

    /// Sets the HNSW parameters (builder style).
    pub fn with_hnsw(mut self, hnsw: HnswConfig) -> Self {
        self.hnsw = hnsw;
        self
    }

    /// Sets the per-partition index kind (builder style).
    pub fn with_local_index(mut self, kind: LocalIndexKind) -> Self {
        self.local_index = kind;
        self
    }

    /// Sets the routing policy (builder style).
    pub fn with_route(mut self, route: RouteConfig) -> Self {
        self.route = route;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the real OS thread count for local work (builder style).
    /// Clamped up to 1; see [`EngineConfig::threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Per-batch search options — the paper's optimisation knobs.
///
/// `#[non_exhaustive]`: construct with [`SearchOptions::new`] (or
/// `default()`) and refine with the `with_*` setters — new knobs may be
/// added without breaking callers.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SearchOptions {
    /// Neighbours per query (the paper uses k = 10 throughout).
    pub k: usize,
    /// HNSW beam width for the local searches.
    pub ef: usize,
    /// Use MPI one-sided result aggregation (Section IV-C1). When `false`,
    /// workers return results with two-sided messages the master must
    /// receive one by one. A non-vacuous fault plan forces two-sided
    /// collection: a retried probe's answer must be attributable.
    pub one_sided: bool,
    /// Replication and dispatch policy (Section IV-C2, generalised): how
    /// many replicas each partition's workgroup holds and how probes pick a
    /// workgroup slot. [`RoutingPolicy::Static`]`(r)` is the paper's
    /// Algorithm 5 (round-robin over `r` consecutive cores; `Static(1)`
    /// disables replication — the baseline);
    /// [`RoutingPolicy::PowerOfTwo`] adds load-aware slot choice and lets
    /// an adaptive controller raise hot partitions per batch through
    /// [`crate::SearchRequest::replicas`].
    pub routing: RoutingPolicy,
    /// Used only under a fault plan ([`crate::SearchRequest::chaos`]): virtual
    /// time after dispatch before an unanswered partition probe is declared
    /// timed out and eligible for retry.
    pub timeout_ns: f64,
    /// Used only under a fault plan: retry rounds per timed-out probe. Each
    /// retry targets the next replica in the partition's workgroup, so with
    /// `replication > 1` a retry is a failover to a different core. `0`
    /// disables retries (a lost probe degrades the query immediately).
    pub max_retries: usize,
    /// Seed for the schedule-perturbation race detector
    /// ([`fastann_mpisim::SchedPerturb`]): `0` (the default) runs the
    /// deterministic baseline schedule; any other value perturbs wildcard
    /// message matching, injects real-time stalls at receive boundaries and
    /// shuffles virtual-thread tie-breaks. A correct batch returns an
    /// identical [`crate::QueryReport`] for every seed — `fastann-check
    /// race` sweeps seeds and reports any divergence as a race.
    pub sched_seed: u64,
    /// Traverse each local HNSW with the SQ8 asymmetric distance and
    /// re-rank the first `RERANK_FACTOR * k` survivors at full precision
    /// ([`fastann_hnsw::RERANK_FACTOR`]; the default). Partitions without a trained
    /// quantizer (non-L2 metrics, stale grids) fall back to exact
    /// automatically; set `false` to force exact traversal everywhere.
    pub quantized: bool,
}

impl Default for SearchOptions {
    /// The paper's `k = 10` with default knobs everywhere else.
    fn default() -> Self {
        Self::new(10)
    }
}

impl SearchOptions {
    /// Paper defaults: `ef = 4k`, one-sided on, no replication; fault
    /// tolerance tuned for the simulator's default cost model (10 ms
    /// virtual timeout, 2 retries).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            ef: (4 * k).max(32),
            one_sided: true,
            routing: RoutingPolicy::Static(1),
            timeout_ns: 1e7,
            max_retries: 2,
            sched_seed: 0,
            quantized: true,
        }
    }

    /// Enables or disables quantized-first traversal (builder style).
    pub fn with_quantized(mut self, on: bool) -> Self {
        self.quantized = on;
        self
    }

    /// Sets the routing/replication policy (builder style). Panics on an
    /// incoherent shape (zero replicas, `max < base`).
    pub fn with_routing(mut self, policy: RoutingPolicy) -> Self {
        policy.validate();
        self.routing = policy;
        self
    }

    /// Sets one-sided aggregation on or off (builder style).
    pub fn with_one_sided(mut self, on: bool) -> Self {
        self.one_sided = on;
        self
    }

    /// Sets the HNSW beam width (builder style).
    pub fn with_ef(mut self, ef: usize) -> Self {
        assert!(ef >= 1, "ef must be positive");
        self.ef = ef;
        self
    }

    /// Sets the fault-tolerant request timeout (builder style).
    pub fn with_timeout_ns(mut self, ns: f64) -> Self {
        assert!(ns > 0.0, "timeout must be positive");
        self.timeout_ns = ns;
        self
    }

    /// Sets the retry budget under a fault plan (builder style).
    pub fn with_max_retries(mut self, n: usize) -> Self {
        self.max_retries = n;
        self
    }

    /// Deadline propagation for online serving: clamps the per-probe
    /// timeout so it never exceeds `headroom_ns` (the tightest
    /// virtual-time budget any request in the batch has left at dispatch).
    /// A probe that cannot answer before the strictest deadline is then
    /// declared lost *within* that deadline, giving retries and failovers
    /// a chance to produce an answer the caller can still use.
    ///
    /// Non-finite or non-positive headroom (no deadline pressure, or a
    /// deadline already blown) leaves the timeout unchanged; the floor of
    /// 1 ns keeps the clamped value a valid timeout.
    pub fn cap_timeout_ns(mut self, headroom_ns: f64) -> Self {
        if headroom_ns.is_finite() && headroom_ns > 0.0 {
            self.timeout_ns = self.timeout_ns.min(headroom_ns.max(1.0));
        }
        self
    }

    /// Sets the schedule-perturbation seed (builder style); `0` disables.
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_derived_from_cores() {
        let c = EngineConfig::new(32, 8);
        assert_eq!(c.n_nodes(), 4);
        let c = EngineConfig::new(16, 1);
        assert_eq!(c.n_nodes(), 16);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_cores_rejected() {
        let _ = EngineConfig::new(24, 8);
    }

    #[test]
    #[should_panic]
    fn indivisible_node_size_rejected() {
        let _ = EngineConfig::new(16, 3);
    }

    #[test]
    fn threads_defaults_to_sequential_and_clamps() {
        let c = EngineConfig::new(8, 4);
        assert_eq!(c.threads, 1, "default must stay sequential");
        assert_eq!(c.with_threads(0).threads, 1, "0 clamps to 1");
        let c = EngineConfig::new(8, 4).with_threads(6);
        assert_eq!(c.threads, 6);
    }

    #[test]
    fn search_options_builders() {
        let o = SearchOptions::new(10)
            .with_routing(RoutingPolicy::Static(3))
            .with_one_sided(false)
            .with_ef(99);
        assert_eq!(o.k, 10);
        assert_eq!(o.routing, RoutingPolicy::Static(3));
        assert_eq!(o.routing.base_replicas(), 3);
        assert!(!o.one_sided);
        assert_eq!(o.ef, 99);
    }

    #[test]
    fn adaptive_routing_shape_is_kept() {
        let o = SearchOptions::new(10).with_routing(RoutingPolicy::PowerOfTwo { base: 1, max: 4 });
        assert!(o.routing.is_adaptive());
        assert_eq!(o.routing.base_replicas(), 1);
        assert_eq!(o.routing.max_replicas(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_replication_rejected() {
        let _ = SearchOptions::new(10).with_routing(RoutingPolicy::Static(0));
    }

    #[test]
    fn cap_timeout_clamps_only_under_deadline_pressure() {
        let o = SearchOptions::new(10); // default timeout 1e7 ns
        assert_eq!(
            o.cap_timeout_ns(5e6).timeout_ns,
            5e6,
            "tight deadline clamps"
        );
        assert_eq!(
            o.cap_timeout_ns(5e9).timeout_ns,
            1e7,
            "loose deadline is a no-op"
        );
        assert_eq!(
            o.cap_timeout_ns(f64::INFINITY).timeout_ns,
            1e7,
            "no deadline"
        );
        assert_eq!(
            o.cap_timeout_ns(-3.0).timeout_ns,
            1e7,
            "blown deadline ignored"
        );
        assert_eq!(
            o.cap_timeout_ns(1e-9).timeout_ns,
            1.0,
            "floor keeps it valid"
        );
    }
}
