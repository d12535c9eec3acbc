//! The unified batch-query entry point.
//!
//! [`SearchRequest`] replaced the historical `search_batch*` free
//! functions (now removed) with one builder, so every combination of
//! fault plan, execution trace, metrics registry and replica snapshot
//! runs through a single instrumented dispatch path:
//!
//! ```
//! use fastann_core::{DistIndex, EngineConfig, SearchRequest, SearchOptions};
//! use fastann_data::synth;
//! use fastann_obs::Metrics;
//!
//! let data = synth::sift_like(600, 8, 1);
//! let index = DistIndex::build(&data, EngineConfig::new(4, 2));
//! let queries = synth::queries_near(&data, 4, 0.02, 2);
//! let metrics = Metrics::new();
//! let report = SearchRequest::new(&index, &queries)
//!     .opts(SearchOptions::new(5))
//!     .metrics(&metrics)
//!     .run();
//! assert_eq!(report.results.len(), 4);
//! assert!(metrics.snapshot().counter("fastann_engine_queries_total", &[]) == Some(4));
//! ```
//!
//! A stream of batches runs on one simulated cluster: a [`SearchSession`]
//! spawns the worker ranks once and runs every batch as an epoch that
//! starts from a fresh cluster's state, so each batch reports exactly what
//! [`SearchRequest::run`] reports for it.
//!
//! ```
//! use fastann_core::{DistIndex, EngineConfig, SearchOptions, SearchRequest, SearchSession};
//! use fastann_data::synth;
//!
//! let data = synth::sift_like(600, 8, 1);
//! let index = DistIndex::build(&data, EngineConfig::new(4, 2));
//! let queries = synth::queries_near(&data, 4, 0.02, 2);
//! let batches = [5, 8].map(|k| SearchRequest::new(&index, &queries).opts(SearchOptions::new(k)));
//! let reports: Vec<_> = SearchSession::open(&index, None, 0, |s| {
//!     batches.iter().map(|&b| s.run(b)).collect()
//! });
//! assert_eq!(reports[1], batches[1].run());
//! ```

use fastann_data::VectorSet;
use fastann_mpisim::{FaultPlan, Trace};
use fastann_obs::Metrics;

use crate::build::DistIndex;
use crate::config::SearchOptions;
use crate::engine::{self, EngineCluster};
use crate::routing::ReplicaMap;
use crate::stats::QueryReport;

/// A batch search being assembled: index and queries are mandatory,
/// everything else is optional and defaults off. [`SearchRequest::run`]
/// executes on the simulated cluster and returns the merged
/// [`QueryReport`].
///
/// Every batch runs through one engine loop. With no fault plan (or a
/// vacuous one) nothing is injected; under a non-vacuous plan the same
/// loop adds timeouts, retries and replica failover, and collects
/// results two-sided. Attaching a [`Trace`] records Gantt spans;
/// attaching a [`Metrics`] registry records the full instrumented query
/// path (router fan-out, per-stage spans, local-search work, worker
/// service times, merge ops, chaos recovery counters) — snapshots are
/// bit-identical across thread counts and schedules.
#[derive(Clone, Copy)]
pub struct SearchRequest<'a> {
    index: &'a DistIndex,
    queries: &'a VectorSet,
    opts: SearchOptions,
    replicas: Option<&'a ReplicaMap>,
    plan: Option<&'a FaultPlan>,
    trace: Option<&'a Trace>,
    metrics: Option<&'a Metrics>,
}

impl<'a> SearchRequest<'a> {
    /// A request for `queries` against `index` with default
    /// [`SearchOptions`] and nothing attached.
    pub fn new(index: &'a DistIndex, queries: &'a VectorSet) -> Self {
        Self {
            index,
            queries,
            opts: SearchOptions::default(),
            replicas: None,
            plan: None,
            trace: None,
            metrics: None,
        }
    }

    /// Sets the search options (k, ef, transport, routing policy, fault
    /// knobs).
    pub fn opts(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Dispatches this batch with an explicit per-partition replica
    /// snapshot — the adaptive controller's [`ReplicaMap`] view. The map
    /// must cover every partition, and every count must fit within the
    /// routing policy's `max`. Absent, every partition holds the policy's
    /// base replica count.
    pub fn replicas(mut self, map: &'a ReplicaMap) -> Self {
        self.replicas = Some(map);
        self
    }

    /// Runs under the given seeded fault plan. A vacuous plan
    /// ([`FaultPlan::is_vacuous`]) injects nothing and reports exactly
    /// what no plan does, costs included.
    pub fn chaos(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Records a virtual-time execution trace: per-query compute spans on
    /// the worker rows, dispatch/collect/recovery phases on the master
    /// row. Render with [`Trace::render`].
    pub fn trace(mut self, trace: &'a Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Records metrics into `metrics` (counters, gauges, histograms —
    /// see the `fastann-obs` crate). The registry is shared by the
    /// simulated ranks' real threads; its snapshot is bit-identical
    /// across `FASTANN_THREADS` / [`crate::EngineConfig::threads`]
    /// settings for the same seeded run.
    pub fn metrics(mut self, metrics: &'a Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Executes the batch on the simulated cluster: a one-batch
    /// [`SearchSession`].
    ///
    /// # Panics
    /// Panics on dimension mismatch or empty query set.
    pub fn run(self) -> QueryReport {
        SearchSession::open(self.index, self.plan, self.opts.sched_seed, |s| s.run(self))
    }
}

/// One simulated cluster serving a stream of [`SearchRequest`] batches
/// over one index — the paper's long-lived master and workers
/// (Algorithms 3–4).
///
/// The worker nodes run as message handlers on the caller's thread. Every
/// batch runs as one epoch that starts from exactly the state a fresh
/// cluster has, so [`SearchSession::run`] reports, bit for bit, what
/// [`SearchRequest::run`] reports for the same request. The fault plan and
/// the schedule seed configure the cluster and are fixed for the session.
pub struct SearchSession<'a> {
    pub(crate) index: &'a DistIndex,
    /// The session's non-vacuous fault plan.
    pub(crate) plan: Option<&'a FaultPlan>,
    pub(crate) sched_seed: u64,
    pub(crate) cluster: EngineCluster<'a>,
}

impl<'a> SearchSession<'a> {
    /// Opens a session over `index` under `plan` (`None` and a vacuous
    /// plan are the same) and schedule seed `sched_seed`, hands it to
    /// `body`, and shuts the cluster down when `body` returns.
    pub fn open<T>(
        index: &'a DistIndex,
        plan: Option<&'a FaultPlan>,
        sched_seed: u64,
        body: impl FnOnce(&mut SearchSession<'a>) -> T,
    ) -> T {
        engine::open(index, plan, sched_seed, body)
    }

    /// Runs one batch as the session's next epoch.
    ///
    /// # Panics
    /// Panics when the request names another index, fault plan or
    /// schedule seed than the session — a session never re-spawns its
    /// cluster — and on dimension mismatch or empty query set.
    pub fn run(&mut self, req: SearchRequest<'_>) -> QueryReport {
        assert!(
            std::ptr::eq(req.index, self.index),
            "a search session serves only the index it was opened on"
        );
        assert!(
            req.plan.filter(|p| !p.is_vacuous()) == self.plan,
            "a batch's fault plan must be its session's"
        );
        assert_eq!(
            req.opts.sched_seed, self.sched_seed,
            "a batch's schedule seed must be its session's"
        );
        engine::dispatch(
            self,
            req.queries,
            &req.opts,
            req.replicas.map(|m| m.counts()),
            req.trace,
            req.metrics,
        )
    }
}
