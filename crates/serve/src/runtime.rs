//! The serving event loop: arrivals → admission → cache → micro-batches →
//! engine dispatch, all in virtual time.
//!
//! The runtime is a discrete-event simulation over the
//! [`fastann_mpisim::EventQueue`]: `Arrival` events carry requests,
//! `BatchTimer` events bound how long a forming batch may wait. Engine
//! batches are serialized on one simulated cluster — a batch triggered
//! while the previous one is still running dispatches when the engine
//! frees up — so queueing delay is real and admission control has
//! something to protect. The cluster is one [`SearchSession`] per run,
//! and every batch is an epoch of it, run on the runtime's own thread.
//! Every quantity is virtual (`f64` ns), every container is iterated in a
//! deterministic order, and the engine itself honours the PR-3
//! thread-determinism contract, so a run replays bit-identically from the
//! same inputs at any `threads` setting.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

use fastann_core::{
    DistIndex, Mutation, MutationReport, MutationRequest, SearchRequest, SearchSession,
};
use fastann_data::quant::Sq8;
use fastann_data::VectorSet;
use fastann_mpisim::{EventQueue, VClock};
use fastann_obs::schema::{
    REPLICA_COUNT, REPLICA_DECAYS, REPLICA_RAISES, ROUTING_GENERATION, SERVE_ADMITTED,
    SERVE_BATCHES, SERVE_BATCH_OCCUPANCY, SERVE_CACHE, SERVE_DEADLINE_MISSES,
    SERVE_PARTITION_REJECTED, SERVE_QUEUE_DEPTH, SERVE_REJECTED, SERVE_REQUESTS,
};
use fastann_obs::{Metrics, Shard, Stage};

use crate::admission::TokenBucket;
use crate::cache::ResultCache;
use crate::config::{ServeConfig, CACHE_HIT_NS, RETRY_BACKOFF_NS, SERVICE_ESTIMATE_NS};
use crate::controller::ReplicaController;
use crate::report::{percentile, ServeReport};
use crate::request::{Completion, Outcome, Rejection, Request};

/// Everything one serving run produced: the aggregate [`ServeReport`] and
/// the per-request [`Outcome`]s in decision order (rejections at arrival,
/// completions at batch dispatch).
pub struct ServeRun {
    /// Aggregate statistics.
    pub report: ServeReport,
    /// Per-request terminal states.
    pub outcomes: Vec<Outcome>,
}

impl ServeRun {
    /// The completion for request `id`, if it completed.
    pub fn completion_of(&self, id: u64) -> Option<&Completion> {
        self.outcomes
            .iter()
            .filter_map(Outcome::completion)
            .find(|c| c.id == id)
    }
}

/// What a closed-loop client submits next (the runtime assigns id,
/// arrival time and absolute deadline).
pub struct ClosedRequest {
    /// The query vector.
    pub query: Vec<f32>,
    /// Neighbours requested.
    pub k: usize,
    /// Tenant to bill.
    pub tenant: u32,
    /// Deadline relative to the arrival instant (`f64::INFINITY` = none).
    pub deadline_rel_ns: f64,
}

/// Closed-loop workload shape: `clients` concurrent clients, each issuing
/// its next request the moment its previous one terminates (completions
/// re-issue immediately; rejections back off by
/// [`RETRY_BACKOFF_NS`]), until `total_requests` have been
/// issued overall.
pub struct ClosedLoopSpec {
    /// Concurrent clients (all start at virtual time 0).
    pub clients: usize,
    /// Total requests to issue across all clients.
    pub total_requests: usize,
}

/// The online serving runtime. Owns the engine index, the result cache
/// and the policy configuration; [`ServeRuntime::serve_open`] /
/// [`ServeRuntime::serve_closed`] execute one workload each and can be
/// called repeatedly (the cache — and its epoch — persist across runs,
/// which is what makes [`ServeRuntime::install_index`] meaningful).
pub struct ServeRuntime {
    index: DistIndex,
    cfg: ServeConfig,
    cache: ResultCache,
    service_est_ns: f64,
    metrics: Option<Metrics>,
    controller: Option<ReplicaController>,
}

impl ServeRuntime {
    /// A runtime serving `index`, with cache keys quantized through
    /// `codec` (train it on a sample of the corpus) and behaviour set by
    /// `cfg`.
    ///
    /// # Panics
    /// Panics when the codec dimensionality does not match the index.
    pub fn new(index: DistIndex, codec: Sq8, cfg: ServeConfig) -> Self {
        assert_eq!(
            codec.dim(),
            index.dim(),
            "cache codec dimensionality must match the index"
        );
        let cache = ResultCache::new(codec, cfg.cache_capacity);
        // an adaptive routing policy needs the controller and a metrics
        // registry to feed it (callers may still swap in their own
        // registry with `set_metrics`)
        let controller = cfg.search.routing.is_adaptive().then(|| {
            ReplicaController::new(index.n_partitions(), cfg.search.routing, cfg.controller)
        });
        let metrics = controller.is_some().then(Metrics::new);
        Self {
            index,
            cfg,
            cache,
            service_est_ns: SERVICE_ESTIMATE_NS,
            metrics,
            controller,
        }
    }

    /// Attaches a metrics registry: every run from now on records the
    /// serving pipeline (admission verdicts, cache hits and misses,
    /// micro-batch occupancy, queue depth) and threads the same registry
    /// into each dispatched engine batch, so router, HNSW, worker and
    /// chaos series land alongside the serving ones. The handle is an
    /// `Arc` clone — snapshot the original at any point.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.metrics = Some(metrics.clone());
    }

    /// Replaces the served index (a rebuild going live) and bumps the
    /// result-cache epoch, so no request served from now on can observe a
    /// hit computed against the old index.
    ///
    /// # Panics
    /// Panics when the new index changes dimensionality.
    pub fn install_index(&mut self, index: DistIndex) {
        assert_eq!(
            index.dim(),
            self.index.dim(),
            "a rebuilt index must keep the dimensionality"
        );
        // a rebuild may change the partition topology: the controller's
        // hotness window no longer describes the new layout, so it starts
        // over at the policy base
        if self.controller.is_some() {
            self.controller = Some(ReplicaController::new(
                index.n_partitions(),
                self.cfg.search.routing,
                self.cfg.controller,
            ));
        }
        self.index = index;
        self.cache.bump_epoch();
    }

    /// Result-cache counter snapshot.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Applies a batch of live mutations to the served index through the
    /// engine's [`MutationRequest`] builder (upserts, deletes, then
    /// background compaction above `compact_threshold`). When the batch
    /// changed the index, the result-cache epoch is bumped so no request
    /// served afterwards can observe a hit computed against pre-mutation
    /// state; an ineffective batch leaves the cache warm.
    ///
    /// The attached metrics registry (see [`ServeRuntime::set_metrics`])
    /// records `fastann_mutations_total{kind}`, `fastann_tombstone_ratio`
    /// and `fastann_compactions_total` alongside the serving series.
    pub fn apply_mutations(&mut self, batch: Vec<Mutation>) -> MutationReport {
        let mut req = MutationRequest::new(&mut self.index).mutations(batch);
        if let Some(m) = &self.metrics {
            req = req.metrics(m);
        }
        let report = req.run();
        if report.changed() {
            self.cache.bump_epoch();
        }
        report
    }

    /// Engine-level mutation epoch of the served index (what the result
    /// cache is keyed against).
    pub fn index_epoch(&self) -> u64 {
        self.index.mutation_epoch
    }

    /// Serves an open-loop workload: `requests` arrive at their own
    /// `arrival_ns` regardless of how the system keeps up (the load
    /// generator's Poisson mode). Requests need not be pre-sorted.
    pub fn serve_open(&mut self, requests: Vec<Request>) -> ServeRun {
        let mut sim = Sim::new(self);
        for r in requests {
            sim.validate(&r);
            let at = r.arrival_ns;
            sim.events.push(at, Ev::Arrival(r));
        }
        sim.run(None);
        sim.finish()
    }

    /// Serves a closed-loop workload: `spec.clients` clients each keep one
    /// request outstanding, drawing the next submission from `gen(id,
    /// client)`, until `spec.total_requests` have been issued.
    pub fn serve_closed(
        &mut self,
        spec: ClosedLoopSpec,
        mut gen: impl FnMut(u64, usize) -> ClosedRequest,
    ) -> ServeRun {
        assert!(spec.clients >= 1, "need at least one client");
        let mut sim = Sim::new(self);
        let mut driver = ClosedDriver {
            issued: 0,
            total: spec.total_requests,
            client_of: HashMap::new(),
        };
        let first_wave = spec.clients.min(spec.total_requests);
        for client in 0..first_wave {
            let req = driver.issue(&mut gen, client, 0.0);
            sim.validate(&req);
            sim.events.push(0.0, Ev::Arrival(req));
        }
        sim.run(Some((&mut driver, &mut gen)));
        sim.finish()
    }
}

/// Borrowed closed-loop state: the driver plus the caller's generator.
type DriverRef<'d, 'g> = (
    &'d mut ClosedDriver,
    &'g mut dyn FnMut(u64, usize) -> ClosedRequest,
);

struct ClosedDriver {
    issued: u64,
    total: usize,
    client_of: HashMap<u64, usize>,
}

impl ClosedDriver {
    fn issue(
        &mut self,
        gen: &mut impl FnMut(u64, usize) -> ClosedRequest,
        client: usize,
        at_ns: f64,
    ) -> Request {
        let id = self.issued;
        self.issued += 1;
        self.client_of.insert(id, client);
        let c = gen(id, client);
        Request {
            id,
            tenant: c.tenant,
            arrival_ns: at_ns,
            query: c.query,
            k: c.k,
            deadline_ns: at_ns + c.deadline_rel_ns,
        }
    }

    fn exhausted(&self) -> bool {
        self.issued as usize >= self.total
    }
}

enum Ev {
    Arrival(Request),
    BatchTimer(u64),
}

/// `f64` virtual timestamps with a total order, for the in-flight heap.
#[derive(PartialEq)]
struct OrdNs(f64);
impl Eq for OrdNs {}
impl Ord for OrdNs {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for OrdNs {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One run's mutable simulation state, borrowing the runtime: the index
/// and the configuration shared (the index also serves the run's
/// [`SearchSession`]), the cache, controller and service estimate
/// exclusively.
struct Sim<'a> {
    index: &'a DistIndex,
    cfg: &'a ServeConfig,
    metrics: Option<&'a Metrics>,
    cache: &'a mut ResultCache,
    controller: Option<&'a mut ReplicaController>,
    service_est_ns: &'a mut f64,
    clock: VClock,
    events: EventQueue<Ev>,
    forming: Vec<Request>,
    /// Home partition of each request in `forming` (parallel vector).
    forming_homes: Vec<u32>,
    forming_batch_id: u64,
    engine_free_ns: f64,
    /// `(completion time, home partition)` of dispatched-but-unfinished
    /// requests; retired lazily at each arrival.
    inflight: BinaryHeap<Reverse<(OrdNs, u32)>>,
    /// Outstanding admitted requests per home partition (forming plus
    /// in-flight) — what the per-partition admission bound inspects.
    part_outstanding: Vec<usize>,
    buckets: HashMap<u32, TokenBucket>,
    outcomes: Vec<Outcome>,
    // report aggregates
    requests: u64,
    rejected_overloaded: u64,
    rejected_deadline: u64,
    rejected_hot: u64,
    deadline_misses: u64,
    degraded: u64,
    batches: u64,
    dispatched: u64,
    engine_busy_ns: f64,
    retries: u64,
    failovers: u64,
    per_partition_probes: Vec<u64>,
    per_partition_rejections: Vec<u64>,
}

impl<'a> Sim<'a> {
    fn new(rt: &'a mut ServeRuntime) -> Self {
        let ServeRuntime {
            index,
            cfg,
            cache,
            service_est_ns,
            metrics,
            controller,
        } = rt;
        let parts = index.n_partitions();
        Self {
            index,
            cfg,
            metrics: metrics.as_ref(),
            cache,
            controller: controller.as_mut(),
            service_est_ns,
            clock: VClock::new(),
            events: EventQueue::new(),
            forming: Vec::new(),
            forming_homes: Vec::new(),
            forming_batch_id: 0,
            engine_free_ns: 0.0,
            inflight: BinaryHeap::new(),
            part_outstanding: vec![0; parts],
            buckets: HashMap::new(),
            outcomes: Vec::new(),
            requests: 0,
            rejected_overloaded: 0,
            rejected_deadline: 0,
            rejected_hot: 0,
            deadline_misses: 0,
            degraded: 0,
            batches: 0,
            dispatched: 0,
            engine_busy_ns: 0.0,
            retries: 0,
            failovers: 0,
            per_partition_probes: vec![0; parts],
            per_partition_rejections: vec![0; parts],
        }
    }

    fn validate(&self, r: &Request) {
        assert_eq!(
            r.query.len(),
            self.index.dim(),
            "request {} dimension mismatch",
            r.id
        );
        assert!(r.k >= 1, "request {} asks for zero neighbours", r.id);
    }

    /// Drains the event queue on one simulated cluster, opened for the
    /// whole stream. With a closed-loop driver, every outcome schedules
    /// the owning client's next request.
    fn run(&mut self, driver: Option<DriverRef<'_, '_>>) {
        let (index, cfg) = (self.index, self.cfg);
        SearchSession::open(index, cfg.fault.as_ref(), cfg.search.sched_seed, |engine| {
            self.drain(engine, driver)
        });
        debug_assert!(self.forming.is_empty(), "timer must have flushed the tail");
    }

    fn drain(&mut self, engine: &mut SearchSession<'_>, mut driver: Option<DriverRef<'_, '_>>) {
        while let Some((at, ev)) = self.events.pop() {
            self.clock.advance_to(at);
            let first_new = self.outcomes.len();
            match ev {
                Ev::Arrival(req) => self.on_arrival(engine, req),
                Ev::BatchTimer(batch_id) => {
                    if batch_id == self.forming_batch_id && !self.forming.is_empty() {
                        self.flush(engine);
                    }
                }
            }
            if let Some((drv, gen)) = driver.as_mut() {
                for i in first_new..self.outcomes.len() {
                    if drv.exhausted() {
                        break;
                    }
                    let (finished_id, next_at) = match &self.outcomes[i] {
                        Outcome::Completed(c) => (c.id, c.done_ns),
                        Outcome::Rejected { id, at_ns, .. } => (*id, at_ns + RETRY_BACKOFF_NS),
                    };
                    let Some(&client) = drv.client_of.get(&finished_id) else {
                        continue;
                    };
                    let req = drv.issue(gen, client, next_at);
                    self.validate(&req);
                    self.events.push(next_at, Ev::Arrival(req));
                }
            }
        }
    }

    /// Runs `f` on the attached registry's store, if one is attached.
    fn record(&self, f: impl FnOnce(&mut Shard)) {
        if let Some(m) = self.metrics {
            m.with(f);
        }
    }

    fn on_arrival(&mut self, engine: &mut SearchSession<'_>, req: Request) {
        let now = self.clock.now();
        self.requests += 1;

        // retire dispatched work that finished before this instant, so the
        // queue-depth bounds see the true number outstanding
        while let Some(Reverse((OrdNs(done), home))) = self.inflight.peek() {
            if *done <= now {
                if let Some(c) = self.part_outstanding.get_mut(*home as usize) {
                    *c = c.saturating_sub(1);
                }
                self.inflight.pop();
            } else {
                break;
            }
        }
        let depth = self.forming.len() + self.inflight.len();
        self.record(|s| {
            s.inc(SERVE_REQUESTS, 1);
            s.gauge_max(SERVE_QUEUE_DEPTH, depth as f64);
        });

        // 1. per-tenant token bucket
        let adm = self.cfg.admission;
        let bucket = self
            .buckets
            .entry(req.tenant)
            .or_insert_with(|| TokenBucket::new(adm.tenant_rate_qps, adm.tenant_burst));
        if !bucket.try_take(now) {
            self.reject(&req, now, Rejection::Overloaded);
            return;
        }

        // 2. result cache — a hit answers without queue or engine, which
        // is exactly why it sits before the depth bound: cached traffic
        // must stay cheap when the system sheds load
        let metric = self.index.config.metric;
        let cached = self.cache.lookup(&req.query, req.k, metric);
        let outcome = if cached.is_some() { "hit" } else { "miss" };
        self.record(|s| s.inc(SERVE_CACHE.label(outcome), 1));
        if let Some(results) = cached {
            let done = now + CACHE_HIT_NS;
            let missed = req.deadline_ns.is_finite() && done > req.deadline_ns;
            self.record(|s| {
                s.span(Stage::CacheLookup, now, done);
                if missed {
                    s.inc(SERVE_DEADLINE_MISSES, 1);
                }
            });
            if missed {
                self.deadline_misses += 1;
            }
            self.outcomes.push(Outcome::Completed(Completion {
                id: req.id,
                tenant: req.tenant,
                arrival_ns: req.arrival_ns,
                done_ns: done,
                cache_hit: true,
                degraded: false,
                results,
            }));
            return;
        }

        // 3. global queue-depth bound over outstanding admitted requests
        let depth = self.forming.len() + self.inflight.len();
        if depth >= adm.max_queue_depth {
            self.reject(&req, now, Rejection::Overloaded);
            return;
        }

        // 3b. per-partition queue-depth bound: overload concentrated on
        // one hot partition sheds on that partition's own queue instead
        // of stalling every tenant globally. The home lookup is a
        // fan-out-1 router probe in virtual-time-free admission code —
        // deterministic, and uncharged like the other admission checks.
        let home = self.index.home_partition(&req.query);
        if self
            .part_outstanding
            .get(home as usize)
            .is_some_and(|&c| c >= adm.partition_queue_depth)
        {
            self.reject(&req, now, Rejection::HotPartition(home));
            return;
        }

        // 4. deadline feasibility: would this request — batched at worst
        // after the full batching wait, behind the engine's backlog —
        // still answer in time? The service estimate is an EMA of
        // observed batch times, so the check adapts as load changes.
        if req.deadline_ns.is_finite() {
            let est_start = (now + self.cfg.batch.max_wait_ns).max(self.engine_free_ns);
            if est_start + *self.service_est_ns > req.deadline_ns {
                self.reject(&req, now, Rejection::DeadlineUnmeetable);
                return;
            }
        }

        // admitted: join the forming batch
        self.record(|s| {
            s.inc(SERVE_ADMITTED, 1);
            s.span(Stage::Admission, req.arrival_ns, now);
        });
        if self.forming.is_empty() {
            self.events.push(
                now + self.cfg.batch.max_wait_ns,
                Ev::BatchTimer(self.forming_batch_id),
            );
        }
        if let Some(c) = self.part_outstanding.get_mut(home as usize) {
            *c += 1;
        }
        self.forming.push(req);
        self.forming_homes.push(home);
        if self.forming.len() >= self.cfg.batch.max_batch {
            self.flush(engine);
        }
    }

    fn reject(&mut self, req: &Request, now: f64, reason: Rejection) {
        let label = match reason {
            Rejection::Overloaded => {
                self.rejected_overloaded += 1;
                "overloaded"
            }
            Rejection::DeadlineUnmeetable => {
                self.rejected_deadline += 1;
                "deadline"
            }
            Rejection::HotPartition(p) => {
                self.rejected_hot += 1;
                if let Some(c) = self.per_partition_rejections.get_mut(p as usize) {
                    *c += 1;
                }
                "hot_partition"
            }
        };
        self.record(|s| {
            s.inc(SERVE_REJECTED.label(label), 1);
            if let Rejection::HotPartition(p) = reason {
                s.inc(SERVE_PARTITION_REJECTED.at(p as usize), 1);
            }
        });
        self.outcomes.push(Outcome::Rejected {
            id: req.id,
            tenant: req.tenant,
            at_ns: now,
            reason,
        });
    }

    /// Dispatches the forming batch through the engine, as the next epoch
    /// of the run's cluster.
    fn flush(&mut self, engine: &mut SearchSession<'_>) {
        let batch = std::mem::take(&mut self.forming);
        let homes = std::mem::take(&mut self.forming_homes);
        self.forming_batch_id += 1;
        let trigger = self.clock.now();
        // one simulated cluster: a batch waits for the previous one
        let dispatch = trigger.max(self.engine_free_ns);

        let mut queries = VectorSet::new(self.index.dim());
        for r in &batch {
            queries.push(&r.query);
        }
        let kmax = batch.iter().map(|r| r.k).max().unwrap_or(1);
        let mut opts = self.cfg.search;
        opts.k = kmax;
        opts.ef = opts.ef.max(kmax);
        // deadline propagation: the tightest headroom in the batch caps
        // the per-probe timeout of the fault-tolerant path
        let headroom = batch
            .iter()
            .map(|r| r.deadline_ns - dispatch)
            .fold(f64::INFINITY, f64::min);
        let opts = opts.cap_timeout_ns(headroom);

        // adaptive routing: snapshot the controller's replica map for
        // this batch — generation bumps after this instant do not affect
        // a batch already dispatched (the epoch idiom)
        let n_parts = self.index.n_partitions();
        let replica_snap = self.controller.as_mut().map(|ctl| {
            ctl.ensure_cover(n_parts);
            ctl.map().clone()
        });

        let mut engine_req = SearchRequest::new(self.index, &queries).opts(opts);
        if let Some(plan) = self.cfg.fault.as_ref() {
            engine_req = engine_req.chaos(plan);
        }
        if let Some(map) = replica_snap.as_ref() {
            engine_req = engine_req.replicas(map);
        }
        if let Some(m) = self.metrics {
            engine_req = engine_req.metrics(m);
        }
        let report = engine.run(engine_req);
        let done = dispatch + report.total_ns;
        self.record(|s| {
            s.inc(SERVE_BATCHES, 1);
            s.observe(SERVE_BATCH_OCCUPANCY, batch.len() as f64);
            s.span(Stage::BatchFlush, dispatch, done);
        });
        self.engine_free_ns = done;
        self.engine_busy_ns += report.total_ns;
        self.batches += 1;
        self.dispatched += batch.len() as u64;
        self.retries += report.retries;
        self.failovers += report.failovers;
        for (part, &n) in report.per_partition_probes.iter().enumerate() {
            if let Some(p) = self.per_partition_probes.get_mut(part) {
                *p += n;
            }
        }
        // adapt the feasibility estimate (deterministic EMA, α = 1/2)
        *self.service_est_ns = 0.5 * *self.service_est_ns + 0.5 * report.total_ns;

        // feed the batch's service-time metrics to the replica controller
        // at the batch's virtual completion instant
        if let (Some(ctl), Some(m)) = (self.controller.as_mut(), self.metrics) {
            let act = ctl.observe(done, m, self.index);
            m.with(|s| {
                if act.raised.is_some() {
                    s.inc(REPLICA_RAISES, 1);
                }
                if act.decayed.is_some() {
                    s.inc(REPLICA_DECAYS, 1);
                }
                for (p, &r) in ctl.map().counts().iter().enumerate() {
                    s.gauge_max(REPLICA_COUNT.at(p), r as f64);
                }
                s.gauge_max(ROUTING_GENERATION, ctl.map().generation() as f64);
            });
        }

        let metric = self.index.config.metric;
        for (i, (req, home)) in batch.into_iter().zip(homes).enumerate() {
            let mut results = report.results[i].clone();
            results.truncate(req.k);
            let was_degraded = report.degraded[i];
            if was_degraded {
                self.degraded += 1;
            } else {
                // degraded (partial) answers are never cached: a fault is
                // transient, a cache entry is not
                self.cache
                    .insert(&req.query, req.k, metric, results.clone());
            }
            if req.deadline_ns.is_finite() && done > req.deadline_ns {
                self.deadline_misses += 1;
                self.record(|s| s.inc(SERVE_DEADLINE_MISSES, 1));
            }
            self.inflight.push(Reverse((OrdNs(done), home)));
            self.outcomes.push(Outcome::Completed(Completion {
                id: req.id,
                tenant: req.tenant,
                arrival_ns: req.arrival_ns,
                done_ns: done,
                cache_hit: false,
                degraded: was_degraded,
                results,
            }));
        }
    }

    fn finish(self) -> ServeRun {
        let mut latencies: Vec<f64> = Vec::new();
        let mut completed = 0u64;
        let mut makespan: f64 = 0.0;
        let mut lat_sum = 0.0;
        for o in &self.outcomes {
            match o {
                Outcome::Completed(c) => {
                    completed += 1;
                    let l = c.latency_ns();
                    latencies.push(l);
                    lat_sum += l;
                    makespan = makespan.max(c.done_ns);
                }
                Outcome::Rejected { at_ns, .. } => makespan = makespan.max(*at_ns),
            }
        }
        latencies.sort_unstable_by(f64::total_cmp);
        let (raises, decays, finals, generation) = match self.controller.as_deref() {
            Some(c) => (
                c.raises(),
                c.decays(),
                c.map().counts().to_vec(),
                c.map().generation(),
            ),
            None => (0, 0, Vec::new(), 0),
        };
        let report = ServeReport {
            requests: self.requests,
            completed,
            rejected_overloaded: self.rejected_overloaded,
            rejected_deadline: self.rejected_deadline,
            rejected_hot_partition: self.rejected_hot,
            deadline_misses: self.deadline_misses,
            degraded: self.degraded,
            batches: self.batches,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.dispatched as f64 / self.batches as f64
            },
            cache: self.cache.stats(),
            p50_ns: percentile(&latencies, 0.50),
            p95_ns: percentile(&latencies, 0.95),
            p99_ns: percentile(&latencies, 0.99),
            max_ns: latencies.last().copied().unwrap_or(0.0),
            mean_ns: if latencies.is_empty() {
                0.0
            } else {
                lat_sum / latencies.len() as f64
            },
            makespan_ns: makespan,
            throughput_qps: if makespan > 0.0 {
                completed as f64 / (makespan / 1e9)
            } else {
                0.0
            },
            engine_busy_ns: self.engine_busy_ns,
            retries: self.retries,
            failovers: self.failovers,
            per_partition_probes: self.per_partition_probes,
            per_partition_rejections: self.per_partition_rejections,
            replica_raises: raises,
            replica_decays: decays,
            final_replicas: finals,
            routing_generation: generation,
        };
        ServeRun {
            report,
            outcomes: self.outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionPolicy;
    use fastann_core::{EngineConfig, SearchOptions};
    use fastann_data::synth;
    use fastann_hnsw::HnswConfig;

    fn small_runtime(cache_entries: usize) -> (fastann_data::VectorSet, ServeRuntime) {
        let data = synth::sift_like(1_500, 12, 7);
        let index = DistIndex::build(
            &data,
            EngineConfig::new(4, 2)
                .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(7))
                .with_seed(7),
        );
        let codec = Sq8::encode(&data);
        let cfg = ServeConfig::new(SearchOptions::new(5)).with_cache_capacity(cache_entries);
        (data, ServeRuntime::new(index, codec, cfg))
    }

    fn open_requests(data: &fastann_data::VectorSet, n: usize, gap_ns: f64) -> Vec<Request> {
        let queries = synth::queries_near(data, n, 0.02, 99);
        (0..n)
            .map(|i| Request::new(i as u64, i as f64 * gap_ns, queries.get(i).to_vec(), 5))
            .collect()
    }

    #[test]
    fn size_bound_flushes_full_batches() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.batch.max_batch = 8;
        rt.cfg.batch.max_wait_ns = 1e12; // timer effectively off
        let run = rt.serve_open(open_requests(&data, 24, 10.0));
        assert_eq!(run.report.batches, 3, "24 requests / max_batch 8");
        assert_eq!(run.report.mean_batch, 8.0);
        assert_eq!(run.report.completed, 24);
    }

    #[test]
    fn wait_bound_flushes_sparse_arrivals() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.batch.max_batch = 64;
        rt.cfg.batch.max_wait_ns = 1_000.0;
        // arrivals 1 ms apart: each must flush alone when its timer fires
        let run = rt.serve_open(open_requests(&data, 5, 1e6));
        assert_eq!(run.report.batches, 5, "each request rode its own timer");
        assert_eq!(run.report.mean_batch, 1.0);
        // latency includes the batching wait
        for c in run.outcomes.iter().filter_map(Outcome::completion) {
            assert!(c.latency_ns() >= 1_000.0, "paid the batch wait");
        }
    }

    #[test]
    fn stale_timer_does_not_reflush() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.batch.max_batch = 2;
        rt.cfg.batch.max_wait_ns = 50_000.0;
        // two quick arrivals flush by size before their timer fires; the
        // stale timer must not dispatch an empty or duplicate batch
        let run = rt.serve_open(open_requests(&data, 2, 10.0));
        assert_eq!(run.report.batches, 1);
        assert_eq!(run.report.completed, 2);
    }

    #[test]
    fn token_bucket_rejects_burst_over_rate() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.admission = AdmissionPolicy {
            tenant_rate_qps: 1_000.0,
            tenant_burst: 4.0,
            max_queue_depth: usize::MAX,
            partition_queue_depth: usize::MAX,
        };
        // 20 requests in one instant: burst admits 4, the rest shed
        let run = rt.serve_open(open_requests(&data, 20, 0.0));
        assert_eq!(run.report.requests, 20);
        assert_eq!(run.report.completed, 4);
        assert_eq!(run.report.rejected_overloaded, 16);
        for o in &run.outcomes {
            if let Outcome::Rejected { reason, .. } = o {
                assert_eq!(*reason, Rejection::Overloaded);
            }
        }
    }

    #[test]
    fn per_tenant_buckets_are_independent() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.admission = AdmissionPolicy {
            tenant_rate_qps: 1_000.0,
            tenant_burst: 2.0,
            max_queue_depth: usize::MAX,
            partition_queue_depth: usize::MAX,
        };
        let mut reqs = open_requests(&data, 8, 0.0);
        for (i, r) in reqs.iter_mut().enumerate() {
            r.tenant = (i % 2) as u32;
        }
        let run = rt.serve_open(reqs);
        assert_eq!(
            run.report.completed, 4,
            "each tenant's burst of 2 admits independently"
        );
    }

    #[test]
    fn unmeetable_deadline_is_typed() {
        let (data, mut rt) = small_runtime(0);
        let mut reqs = open_requests(&data, 4, 1e9);
        // 1 ns after arrival: no batch can make that
        for r in reqs.iter_mut() {
            r.deadline_ns = r.arrival_ns + 1.0;
        }
        let run = rt.serve_open(reqs);
        assert_eq!(run.report.rejected_deadline, 4);
        assert_eq!(run.report.completed, 0);
    }

    #[test]
    fn closed_loop_issues_exactly_total() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.batch.max_batch = 4;
        rt.cfg.batch.max_wait_ns = 5_000.0;
        let queries = synth::queries_near(&data, 32, 0.02, 5);
        let run = rt.serve_closed(
            ClosedLoopSpec {
                clients: 8,
                total_requests: 32,
            },
            |id, _client| ClosedRequest {
                query: queries.get(id as usize % 32).to_vec(),
                k: 5,
                tenant: 0,
                deadline_rel_ns: f64::INFINITY,
            },
        );
        assert_eq!(run.report.requests, 32);
        assert_eq!(run.report.completed, 32);
        assert!(run.report.batches >= 32 / 4);
        assert!(run.report.throughput_qps > 0.0);
    }

    #[test]
    fn delete_invalidates_cache_and_filters_results() {
        // regression: query → delete → same query must neither serve the
        // stale cached answer nor surface the deleted id
        let (data, mut rt) = small_runtime(64);
        let victim = 42u32;
        let q = data.get(victim as usize).to_vec();
        let ask = |id: u64| vec![Request::new(id, 0.0, q.clone(), 5)];

        let run = rt.serve_open(ask(0));
        let first = run.completion_of(0).expect("first query completes");
        assert!(!first.cache_hit);
        assert_eq!(first.results[0].id, victim, "own row answers pre-delete");

        // warm-cache sanity: an identical repeat is served from the cache
        let run = rt.serve_open(ask(1));
        assert!(run.completion_of(1).unwrap().cache_hit);

        let report = rt.apply_mutations(vec![Mutation::Delete { global_id: victim }]);
        assert!(report.changed());
        assert_eq!(rt.index_epoch(), 1);

        let run = rt.serve_open(ask(2));
        let after = run.completion_of(2).expect("post-delete query completes");
        assert!(
            !after.cache_hit,
            "stale epoch must not be served from the cache"
        );
        assert!(
            after.results.iter().all(|n| n.id != victim),
            "deleted id surfaced: {:?}",
            after.results
        );
    }

    #[test]
    fn ineffective_mutation_batch_keeps_cache_warm() {
        let (data, mut rt) = small_runtime(64);
        let q = data.get(7).to_vec();
        let ask = |id: u64| vec![Request::new(id, 0.0, q.clone(), 5)];
        rt.serve_open(ask(0));

        // deleting a nonexistent id changes nothing — no epoch bump
        let report = rt.apply_mutations(vec![Mutation::Delete { global_id: 9999 }]);
        assert!(!report.changed());
        assert_eq!(rt.index_epoch(), 0);

        let run = rt.serve_open(ask(1));
        assert!(
            run.completion_of(1).unwrap().cache_hit,
            "a no-op batch must not cold the cache"
        );
    }

    #[test]
    fn upsert_is_servable_after_cache_bump() {
        let (_, mut rt) = small_runtime(64);
        let v = synth::sift_like(1, 12, 4321).get(0).to_vec();
        let report = rt.apply_mutations(vec![Mutation::Upsert {
            global_id: None,
            vector: v.clone(),
        }]);
        let fastann_core::MutationOutcome::Inserted { global_id, .. } = report.outcomes[0] else {
            panic!("expected an insert, got {:?}", report.outcomes[0]);
        };
        let run = rt.serve_open(vec![Request::new(0, 0.0, v, 3)]);
        let c = run.completion_of(0).unwrap();
        assert_eq!(c.results[0].id, global_id, "new row answers its own query");
        assert_eq!(c.results[0].dist, 0.0);
    }

    #[test]
    fn outcomes_cover_every_request_exactly_once() {
        let (data, mut rt) = small_runtime(16);
        rt.cfg.admission.max_queue_depth = 8;
        let run = rt.serve_open(open_requests(&data, 40, 100.0));
        let mut ids: Vec<u64> = run.outcomes.iter().map(Outcome::id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>(), "conservation of requests");
        assert_eq!(
            run.report.requests,
            run.report.completed
                + run.report.rejected_overloaded
                + run.report.rejected_deadline
                + run.report.rejected_hot_partition
        );
    }

    #[test]
    fn partition_depth_bound_sheds_on_the_hot_queue() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.admission.partition_queue_depth = 2;
        rt.cfg.batch.max_batch = 64;
        rt.cfg.batch.max_wait_ns = 1e12; // hold everything in one forming batch
                                         // every request asks the same query → same home partition
        let q = data.get(3).to_vec();
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request::new(i, i as f64, q.clone(), 5))
            .collect();
        let home = rt.index.home_partition(&q);
        let run = rt.serve_open(reqs);
        assert_eq!(run.report.rejected_hot_partition, 4, "depth 2 admits 2");
        assert_eq!(
            run.report.per_partition_rejections[home as usize], 4,
            "rejections land on the hot partition"
        );
        for o in &run.outcomes {
            if let Outcome::Rejected { reason, .. } = o {
                assert_eq!(*reason, Rejection::HotPartition(home));
            }
        }
        // conservation still holds with the new rejection class
        assert_eq!(
            run.report.requests,
            run.report.completed
                + run.report.rejected_overloaded
                + run.report.rejected_deadline
                + run.report.rejected_hot_partition
        );
    }

    #[test]
    fn cold_partitions_stay_admitted_while_hot_one_sheds() {
        let (data, mut rt) = small_runtime(0);
        rt.cfg.admission.partition_queue_depth = 1;
        rt.cfg.batch.max_batch = 64;
        rt.cfg.batch.max_wait_ns = 1e12;
        // two distinct rows: if they home differently, both first
        // arrivals admit even though each partition's bound is 1
        let qa = data.get(0).to_vec();
        let qb = data.get(900).to_vec();
        let ha = rt.index.home_partition(&qa);
        let hb = rt.index.home_partition(&qb);
        let reqs = vec![
            Request::new(0, 0.0, qa.clone(), 5),
            Request::new(1, 1.0, qb.clone(), 5),
            Request::new(2, 2.0, qa, 5),
            Request::new(3, 3.0, qb, 5),
        ];
        let run = rt.serve_open(reqs);
        let expect_rejected = if ha == hb { 3 } else { 2 };
        assert_eq!(run.report.rejected_hot_partition, expect_rejected);
    }
}
