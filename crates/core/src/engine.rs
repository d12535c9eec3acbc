//! Master–worker batch search — paper Section IV-B/C, Algorithms 3–5.
//!
//! Rank 0 is the master: it routes every query through the VP-tree skeleton
//! (`F(q)`), dispatches `(query, partition)` work items to worker nodes,
//! and merges results. Worker nodes model one MPI process per compute node
//! with `T` OpenMP threads: incoming queries are assigned to the
//! earliest-free virtual thread ([`VThreadPool`]) and answered with a local
//! HNSW search whose *measured* distance-evaluation count is charged to the
//! virtual clock.
//!
//! Two result paths (the paper's Section IV-C1 optimisation):
//! * **two-sided** — workers `Isend` results; the master receives and
//!   merges each one, paying a per-message receive overhead (the
//!   scalability bottleneck the paper observed);
//! * **one-sided** — workers deposit results into the master's RMA window
//!   with `Get_accumulate`; the master's CPU is untouched until a final
//!   synchronisation.
//!
//! Load balancing by replication (Section IV-C2, Algorithm 5): partition
//! `i`'s workgroup is cores `{i, i+1, …, i+r_i−1 mod P}`. The slot chosen
//! within the workgroup follows [`crate::RoutingPolicy`]: round-robin (the
//! paper's dispatch) or power-of-two-choices over the deterministic
//! per-core dispatched-probe count, with per-partition replica counts
//! supplied by an adaptive controller through
//! [`SearchRequest::replicas`].
//!
//! One master and one worker loop serve every [`FaultPlan`], vacuous or
//! not. The master dispatches every probe and flushes every node (round
//! 0), drains the nodes in rank order, and — under faults — re-dispatches
//! timed-out probes in later rounds. Only three choices, fixed per batch in
//! `Batch`, depend on the plan (DESIGN.md §6).
//!
//! Every batch is one epoch of a [`SearchSession`], and every epoch starts
//! the ranks from a fresh cluster's state, so a batch reports the same
//! numbers whether it runs alone ([`crate::SearchRequest::run`]) or
//! anywhere in a stream. The master runs on the caller's thread, and each
//! worker node is a [`Handler`] that the master's blocking receives run on
//! the same thread: no OS thread is spawned, woken or joined per batch or
//! per message.
//!
//! Real parallelism lives in the session's probe pool, the host analogue
//! of the paper's one OpenMP team per process for the whole job. Before
//! its epoch, [`dispatch`] routes the batch once and searches every
//! `(query, partition)` probe in one call of the pool: the caller and
//! `EngineConfig::threads − 1` helper threads, which start at the
//! session's first batch of [`SPAWN_PROBES_PER_THREAD`] probes per thread
//! and wait between batches. The epoch then replays that work
//! in virtual time: the master dispatches the stored routes and charges
//! their routing cost, and each node's flush replays its probes' stored
//! answers in arrival order. A search reads only the immutable index and
//! its own `(query, partition)`, so its answer and work counts do not
//! depend on where, when or how often it runs — and a retry under faults
//! re-dispatches a probe that is already answered.
//!
//! Master and workers share the batch, so a data-plane message names its
//! probe, an index into the batch's routes, and declares to
//! [`Rank::send_sized`] the length Algorithms 3–4 would send; the master
//! merges a result from the stored answer.

use std::sync::Arc;

use bytes::Bytes;
use fastann_data::{Neighbor, TopK, VectorSet};
use fastann_hnsw::{SearchScratch, SearchStats};
use fastann_mpisim::{
    Cluster, Comm, FaultPlan, Handler, HandlerSession, Msg, Rank, SchedPerturb, SimConfig,
    SpanKind, Topology, Trace, VThreadPool, Want, Window,
};
use fastann_obs::schema::{
    CHAOS_DEGRADED, CHAOS_FAILOVERS, CHAOS_RETRIES, CHAOS_TIMEOUT_WAITS, DISTS_EXACT, DISTS_QUANT,
    ENGINE_PROBES, ENGINE_QUERIES, HNSW_EF_CHURN, HNSW_ENTRY_SEEDS, HNSW_HEAP_PUSHES, HNSW_HOPS,
    HNSW_NDIST, MERGE_OPS, RERANK_POOL, RESULT_BYTES, RMA_DEPOSITS, ROUTER_FANOUT,
    ROUTING_DECISIONS, WORKER_BATCH_SIZE, WORKER_QUEUE_DEPTH, WORKER_SERVICE_NS,
};
use fastann_obs::{Metrics, Shard, Stage};

use crate::build::DistIndex;
use crate::config::SearchOptions;
use crate::request::SearchSession;
use crate::router::ReplicaDispatcher;
use crate::stats::QueryReport;
use crate::tags;

/// Master → worker: one `(query, partition)` work item. The payload names
/// the probe; the length priced is its ids and query vector. Public so
/// fault plans (chaos tests) can target the engine's data-plane traffic by
/// tag.
pub const TAG_QUERY: u64 = 201;
/// Worker → master: one answered probe (two-sided result path). The
/// payload names the probe; the length priced is its query id and
/// neighbour list, plus the partition id under faults.
pub const TAG_RESULT: u64 = 202;
/// Master → worker: batch over, shut down. Sent only under faults (without
/// them the round-0 [`TAG_FLUSH`] is the shutdown). Protected.
pub const TAG_END: u64 = 203;
/// Master → worker: serve every query queued before this marker, then
/// acknowledge (unless a fault-free two-sided node, which just returns its
/// owed results). Protected.
pub const TAG_FLUSH: u64 = 205;
/// Worker → master: the answer to [`TAG_FLUSH`] — every result and
/// one-sided deposit of the round is posted. Protected.
pub const TAG_FLUSH_ACK: u64 = 206;

/// Virtual cost (ns) of merging one returned neighbour at the master.
pub(crate) const MERGE_NS_PER_NEIGHBOR: f64 = 4.0;

/// Everything the master and the workers share about one batch: the job
/// of one session epoch.
pub(crate) struct Batch<'a> {
    index: &'a DistIndex,
    opts: SearchOptions,
    routes: Arc<Routes>,
    /// One answer per probe of `routes`.
    answers: Vec<Answer>,
    /// Per-partition replica counts ([`effective_replicas`]).
    counts: Vec<usize>,
    trace: Option<Trace>,
    // The only choices of the engine loop that depend on the fault plan:
    /// A non-vacuous plan is installed: results carry their partition id
    /// and are de-duplicated by `(query, partition)`, timed-out probes are
    /// re-dispatched, and the batch ends with [`TAG_END`].
    faults: bool,
    /// Results are deposited into the master's RMA window (fault-free only;
    /// a fault plan forces two-sided collection).
    one_sided: bool,
}

impl Batch<'_> {
    /// Probe `p`'s answer, translated to global ids.
    fn global_answer(&self, p: usize) -> impl Iterator<Item = Neighbor> + '_ {
        let ids = &self.index.partitions[self.routes.probes[p].1 as usize].global_ids;
        self.answers[p]
            .0
            .iter()
            .map(move |n| Neighbor::new(ids[n.id as usize], n.dist))
    }

    /// Priced bytes of probe `p`'s result or one-sided deposit: query id
    /// and the length-prefixed `(global id, distance)` list, plus the
    /// partition id under faults.
    fn result_len(&self, p: usize) -> usize {
        8 + 8 * self.answers[p].0.len() + if self.faults { 4 } else { 0 }
    }

    /// `true` when a node's drain ends at its [`TAG_FLUSH_ACK`]; a
    /// fault-free two-sided node is drained at its owed result count
    /// instead.
    fn acked(&self) -> bool {
        self.faults || self.one_sided
    }

    /// The unified span layer: one call records a query-path phase into
    /// the Gantt [`Trace`] (when attached) and into the
    /// `fastann_span_ns{stage}` histogram of the batch's metrics
    /// accumulator (when given), under the same [`Stage::label`].
    fn span(
        &self,
        obs: Option<&mut Shard>,
        rank: usize,
        start: f64,
        end: f64,
        kind: SpanKind,
        stage: Stage,
    ) {
        if let Some(t) = &self.trace {
            t.record(rank, start, end, kind, stage.label());
        }
        if let Some(s) = obs {
            s.span(stage, start, end);
        }
    }
}

/// The simulated cluster of a [`SearchSession`]: rank 0 is the master,
/// ranks `1..=n_nodes` the worker nodes, run as handlers on its thread.
pub(crate) type EngineCluster<'a> = HandlerSession<Batch<'a>, Worker>;

/// One probe's answer: the partition-local neighbours and the search's
/// work counts.
type Answer = (Vec<Neighbor>, SearchStats);

/// The probe pool of a [`SearchSession`].
pub(crate) type ProbePool<'p> = rayon::Pool<'p, Routes, SearchScratch, Answer>;

/// Probes per thread of the first batch that starts a session's helper
/// threads. Starting and joining a helper costs about 30–50 µs on a
/// 2-vCPU x86 host, one to two 32-d probes, and a batch of `n` probes over
/// `t` threads saves about `n (1 − 1/t)` probes of wall time: a one-shot
/// batch pays for its helpers from about 4 probes per thread. Once
/// started, the helpers serve every later batch of two or more probes.
const SPAWN_PROBES_PER_THREAD: usize = 4;

/// A batch's routes, computed once before its epoch: what the probe pool
/// searches and the epoch replays. It owns a copy of the queries, because
/// the pool's helpers outlive the batch's borrows.
pub(crate) struct Routes {
    queries: VectorSet,
    opts: SearchOptions,
    /// `(query, partition)` per probe, partition-major: the probes into
    /// one partition search back to back, while its graph is in cache.
    probes: Vec<(u32, u32)>,
    /// Indices into `probes`, by query, in route order.
    by_query: Vec<usize>,
    /// Query `q`'s probes are `by_query[first[q]..first[q + 1]]`.
    first: Vec<usize>,
    /// Router distance evaluations per query.
    route_ndist: Vec<u64>,
}

impl Routes {
    fn new(index: &DistIndex, queries: &VectorSet, opts: &SearchOptions) -> Routes {
        let mut routed = Vec::new();
        let mut first = Vec::with_capacity(queries.len() + 1);
        let mut route_ndist = Vec::with_capacity(queries.len());
        for qi in 0..queries.len() {
            let (parts, ndist) = index.router.route(queries.get(qi), &index.config.route);
            first.push(routed.len());
            routed.extend(parts.into_iter().map(|d| (qi as u32, d)));
            route_ndist.push(ndist);
        }
        first.push(routed.len());
        // stable: by query within each partition
        let mut order: Vec<usize> = (0..routed.len()).collect();
        order.sort_by_key(|&r| routed[r].1);
        let mut by_query = vec![0; routed.len()];
        for (p, &r) in order.iter().enumerate() {
            by_query[r] = p;
        }
        Routes {
            queries: queries.clone(),
            opts: *opts,
            probes: order.into_iter().map(|r| routed[r]).collect(),
            by_query,
            first,
            route_ndist,
        }
    }

    /// Query `qi`'s probes, in route order.
    fn of(&self, qi: usize) -> &[usize] {
        &self.by_query[self.first[qi]..self.first[qi + 1]]
    }

    /// Runs probe `i`'s local search.
    fn search(&self, index: &DistIndex, scratch: &mut SearchScratch, i: usize) -> Answer {
        let (qid, part) = self.probes[i];
        index.partitions[part as usize].index.search_detailed_opts(
            self.queries.get(qid as usize),
            &self.opts,
            scratch,
        )
    }
}

/// Opens the session behind [`SearchSession::open`]. `plan: None` and a
/// vacuous plan are the same input, costs included.
pub(crate) fn open<'a, T>(
    index: &'a DistIndex,
    plan: Option<&'a FaultPlan>,
    sched_seed: u64,
    body: impl FnOnce(&mut SearchSession<'_>) -> T,
) -> T {
    let plan = plan.filter(|p| !p.is_vacuous());
    let mut sim = SimConfig::new(index.config.n_nodes() + 1)
        .topology(Topology::one_rank_per_node())
        .net(index.config.net)
        .cost(index.config.cost)
        .sched(SchedPerturb::seeded(sched_seed));
    if let Some(p) = plan {
        // the control plane (flush handshake + shutdown) is the
        // failure-detection oracle; the central tag registry says which
        // tags that is
        sim = sim.fault(p.clone().protect(&tags::protected_values("engine")));
    }
    let threads = index.config.threads;
    rayon::Pool::scope(
        threads,
        SPAWN_PROBES_PER_THREAD * threads,
        SearchScratch::default,
        |scratch, routes: &Routes, i| routes.search(index, scratch, i),
        |pool| {
            body(&mut SearchSession {
                index,
                plan,
                sched_seed,
                cluster: Cluster::new(sim).handler_session(),
                pool,
            })
        },
    )
}

/// Single dispatch point behind [`crate::SearchRequest`]: routes the
/// batch, searches its probes in one call of the session's pool, and
/// replays them as one epoch of `session` (which has checked that the
/// batch is its own: same index, fault plan and schedule seed).
///
/// `replicas` is an optional per-partition replica-count snapshot (the
/// adaptive controller's [`crate::ReplicaMap`] view); absent, every
/// partition holds the policy's base replica count.
pub(crate) fn dispatch(
    session: &mut SearchSession<'_>,
    queries: &VectorSet,
    opts: &SearchOptions,
    replicas: Option<&[usize]>,
    trace: Option<&Trace>,
    obs: Option<&Metrics>,
) -> QueryReport {
    let index = session.index;
    let counts = effective_replicas(index, opts, replicas);
    assert!(!queries.is_empty(), "empty query batch");
    assert_eq!(queries.dim(), index.dim(), "query dimension mismatch");
    let faults = session.plan.is_some();
    let routes = Arc::new(Routes::new(index, queries, opts));
    let answers = session.pool.map(Arc::clone(&routes), routes.probes.len());
    let batch = Batch {
        index,
        opts: *opts,
        routes,
        answers,
        counts,
        trace: trace.cloned(),
        faults,
        one_sided: opts.one_sided && !faults,
    };
    // the batch's series fold into a local accumulator, without a lock,
    // and merge into the registry once, after the epoch
    let mut shard = obs.map(Metrics::shard);
    let epoch = session
        .cluster
        .epoch(batch, |rank, b| master(rank, b, shard.as_mut()));
    if let (Some(m), Some(mut s)) = (obs, shard) {
        for w in &epoch.workers {
            record_worker_batch(&mut s, &epoch.job, &w.served);
        }
        m.merge_shard(s);
    }
    // Even under injected faults the protocol must account for every
    // message: fault-plan drops are ledgered, so anything left over in a
    // mailbox at the end of the batch is a protocol bug.
    if cfg!(debug_assertions) {
        epoch.conservation.assert_clean();
    }

    let mut report = epoch.root;
    report.node_busy_ns = epoch.workers.iter().map(|w| w.busy_ns).collect();
    report.node_comm_cpu_ns = epoch.workers.iter().map(|w| w.comm_cpu_ns).collect();
    report.total_ndist = epoch.workers.iter().map(|w| w.ndist).sum();
    report
}

/// Resolves the per-partition replica counts a batch dispatches with:
/// the caller-provided snapshot when present, else the policy's uniform
/// base. Validates shape and bounds once, for both master and workers.
fn effective_replicas(
    index: &DistIndex,
    opts: &SearchOptions,
    replicas: Option<&[usize]>,
) -> Vec<usize> {
    opts.routing.validate();
    let p_cores = index.config.n_cores;
    assert!(
        opts.routing.max_replicas() <= p_cores,
        "replication factor exceeds core count"
    );
    match replicas {
        Some(c) => {
            assert_eq!(
                c.len(),
                index.n_partitions(),
                "replica map must cover every partition"
            );
            assert!(
                c.iter()
                    .all(|&r| r >= 1 && r <= opts.routing.max_replicas().max(1)),
                "replica counts must be within 1..=policy max"
            );
            c.to_vec()
        }
        None => vec![opts.routing.base_replicas(); index.n_partitions().max(p_cores)],
    }
}

/// A worker node's accounting for one batch.
pub(crate) struct WorkerOut {
    busy_ns: f64,
    comm_cpu_ns: f64,
    ndist: u64,
    /// `(probe, arrival, completion)` per answered probe, in the order
    /// served: what a metered batch folds into its registry.
    served: Vec<(usize, f64, f64)>,
}

/// The payload of a data-plane message: its probe's index in the batch's
/// [`Routes`].
fn probe_payload(p: usize) -> Bytes {
    Bytes::from(p.to_le_bytes().to_vec())
}

/// The probe a [`TAG_QUERY`] or [`TAG_RESULT`] message names.
fn probe_of(msg: &Msg) -> usize {
    usize::from_le_bytes(msg.payload[..].try_into().expect("one probe index"))
}

/// One dispatched probe awaiting its answer (tracked only under faults).
struct Probe {
    /// Its index in the batch's [`Routes`].
    probe: usize,
    /// Workgroup slot of the first dispatch (failovers derive from it).
    slot: usize,
    /// Retries so far; attempt `a` targets workgroup slot `(slot + a) % r`.
    attempt: usize,
    /// Virtual time at which this probe counts as timed out.
    deadline: f64,
}

/// Sends [`TAG_FLUSH`] to every node: the start of a drain round.
fn flush_all(rank: &mut Rank, n_nodes: usize) {
    for j in 0..n_nodes {
        rank.send_bytes(1 + j, TAG_FLUSH, Bytes::new());
    }
}

fn master(rank: &mut Rank, b: &Batch, mut obs: Option<&mut Shard>) -> QueryReport {
    let (index, opts) = (b.index, &b.opts);
    let world = rank.world();
    let p_cores = index.config.n_cores;
    let t_cores = index.config.cores_per_node;
    let n_nodes = index.config.n_nodes();
    let nq = b.routes.queries.len();
    let k = opts.k;
    // priced bytes of a TAG_QUERY: query and partition ids, and the
    // length-prefixed query vector
    let query_len = 12 + 4 * index.dim();

    // One-sided path: expose a window of per-query result slots. The
    // barrier gives every rank the same clock origin on both paths.
    let window = b
        .one_sided
        .then(|| Window::create(rank, &world, 0, nq, |_| TopK::new(k)));
    world.barrier(rank);

    let start_ns = rank.now();
    let route_cost_per_dist = index.config.cost.dist_ns(index.dim());

    // Algorithm 5 state: per-workgroup slot choice under the configured
    // routing policy (round-robin or power-of-two-choices).
    let mut dispatcher = ReplicaDispatcher::with_policy(p_cores, opts.routing, &b.counts);
    let mut per_core_queries = vec![0u64; p_cores];
    let mut per_partition_probes = vec![0u64; index.n_partitions()];
    let mut tops: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
    let mut route_ns = 0f64;
    let mut fanout_total = 0u64;
    let mut owed = vec![0u64; n_nodes];
    let mut outstanding: Vec<Probe> = Vec::new();

    for qi in 0..nq {
        let probes = b.routes.of(qi);
        let c = b.routes.route_ndist[qi] as f64 * route_cost_per_dist;
        rank.charge(c);
        route_ns += c;
        fanout_total += probes.len() as u64;
        if let Some(s) = obs.as_mut() {
            s.observe(ROUTER_FANOUT, probes.len() as f64);
        }
        for &p in probes {
            let d = b.routes.probes[p].1;
            // workgroup W_d = {d, d+1, …, d+r-1 mod P}; the slot within it
            // follows the routing policy
            let (core, slot) = dispatcher.next(d, qi as u64);
            per_core_queries[core] += 1;
            per_partition_probes[d as usize] += 1;
            let node = core / t_cores;
            rank.send_sized(1 + node, TAG_QUERY, probe_payload(p), query_len, None);
            owed[node] += 1;
            if b.faults {
                outstanding.push(Probe {
                    probe: p,
                    slot,
                    attempt: 0,
                    deadline: rank.now() + opts.timeout_ns,
                });
            }
        }
    }
    // Round 0's flush; without faults it is also the shutdown.
    flush_all(rank, n_nodes);
    if let Some(s) = obs.as_mut() {
        s.inc(ENGINE_QUERIES, nq as u64);
        s.inc(ENGINE_PROBES, fanout_total);
        s.inc(ROUTING_DECISIONS.label(opts.routing.label()), fanout_total);
    }
    b.span(
        obs.as_deref_mut(),
        0,
        start_ns,
        rank.now(),
        SpanKind::Compute,
        Stage::Route,
    );

    // Probes whose answer is merged — under faults a second answer for the
    // same probe (duplicate fault, retry racing its original) is discarded
    // instead of double-merged.
    let mut merged = vec![false; b.answers.len()];
    let mut result_bytes = 0u64;
    let mut merge_ops = 0u64;
    let mut retries = 0u64;
    let mut failovers = 0u64;
    let mut timeout_waits = 0u64;
    let mut round = 0usize;
    let mut drain_start = rank.now();

    loop {
        // Drain each node's mailbox subsequence *in rank order*. Per-source
        // message order is the sender's program order — deterministic — so
        // folding arrival times into the master clock in this fixed order
        // keeps the whole run independent of OS thread scheduling (a
        // wildcard-source receive would not).
        for (j, &owed_j) in owed.iter().enumerate() {
            let mut left = owed_j;
            while b.acked() || left > 0 {
                let msg = rank.recv(Some(1 + j), None);
                match msg.tag {
                    TAG_FLUSH_ACK => break,
                    TAG_RESULT => {
                        left = left.saturating_sub(1);
                        let p = probe_of(&msg);
                        result_bytes += b.result_len(p) as u64;
                        if !std::mem::replace(&mut merged[p], true) {
                            merge_ops += 1;
                            rank.charge(b.answers[p].0.len() as f64 * MERGE_NS_PER_NEIGHBOR);
                            let top = &mut tops[b.routes.probes[p].0 as usize];
                            for n in b.global_answer(p) {
                                top.push(n);
                            }
                        }
                    }
                    t => panic!("master: unexpected tag {t} from node {j}"),
                }
            }
        }
        if let Some(win) = &window {
            // every ack says that node's deposits are posted: synchronise
            // with them, then read-merge one slot per query
            win.owner_sync(rank);
            for (qi, top) in tops.iter_mut().enumerate() {
                win.read(qi, |t| top.merge(t));
                rank.charge(k as f64 * 1.0);
            }
            result_bytes = fanout_total * (k as u64) * 8;
            merge_ops = nq as u64;
        }
        b.span(
            obs.as_deref_mut(),
            0,
            drain_start,
            rank.now(),
            SpanKind::Wait,
            Stage::Collect,
        );

        outstanding.retain(|p| !merged[p.probe]);
        if outstanding.is_empty() || round == opts.max_retries {
            break;
        }
        round += 1;

        // Anything still outstanding has been flushed past on its node: it
        // was lost (or its owner crashed). Honour the timeout contract —
        // a probe may only be re-dispatched once its deadline has passed.
        let max_deadline = outstanding.iter().fold(f64::MIN, |m, p| m.max(p.deadline));
        if max_deadline > rank.now() {
            let t0 = rank.now();
            rank.wait_until(max_deadline);
            timeout_waits += 1;
            b.span(
                obs.as_deref_mut(),
                0,
                t0,
                rank.now(),
                SpanKind::Recovery,
                Stage::Timeout,
            );
        }
        for p in outstanding.iter_mut() {
            let part = b.routes.probes[p.probe].1;
            let prev_core = dispatcher.failover(part, p.slot, p.attempt);
            p.attempt += 1;
            let core = dispatcher.failover(part, p.slot, p.attempt);
            retries += 1;
            if core != prev_core {
                failovers += 1;
            }
            per_core_queries[core] += 1;
            per_partition_probes[part as usize] += 1;
            let t0 = rank.now();
            let payload = probe_payload(p.probe);
            rank.send_sized(1 + core / t_cores, TAG_QUERY, payload, query_len, None);
            p.deadline = rank.now() + opts.timeout_ns;
            let stage = if core != prev_core {
                Stage::Failover
            } else {
                Stage::Retry
            };
            b.span(
                obs.as_deref_mut(),
                0,
                t0,
                rank.now(),
                SpanKind::Recovery,
                stage,
            );
        }
        drain_start = rank.now();
        flush_all(rank, n_nodes);
    }
    if b.faults {
        for j in 0..n_nodes {
            rank.send_bytes(1 + j, TAG_END, Bytes::new());
        }
    }

    // Degraded accounting: whatever survived the retry budget unanswered.
    let mut missing_partitions = vec![0u32; nq];
    for p in &outstanding {
        missing_partitions[b.routes.probes[p.probe].0 as usize] += 1;
    }
    let degraded: Vec<bool> = missing_partitions.iter().map(|&m| m > 0).collect();

    if let Some(s) = obs {
        let path = if b.one_sided {
            "one_sided"
        } else {
            "two_sided"
        };
        s.inc(MERGE_OPS.label(path), merge_ops);
        s.inc(RESULT_BYTES, result_bytes);
        // the chaos series exist only for batches that ran under faults
        if b.faults {
            s.inc(CHAOS_RETRIES, retries);
            s.inc(CHAOS_FAILOVERS, failovers);
            s.inc(CHAOS_TIMEOUT_WAITS, timeout_waits);
            s.inc(
                CHAOS_DEGRADED,
                degraded.iter().filter(|&&d| d).count() as u64,
            );
        }
    }

    let stats = rank.stats();
    QueryReport {
        results: tops.into_iter().map(TopK::into_sorted).collect(),
        total_ns: rank.now() - start_ns,
        master_route_ns: route_ns,
        master_comm_cpu_ns: stats.send_cpu_ns + stats.recv_cpu_ns + stats.rma_cpu_ns,
        master_wait_ns: stats.wait_ns,
        per_core_queries,
        per_partition_probes,
        mean_fanout: fanout_total as f64 / nq as f64,
        node_busy_ns: Vec::new(),     // filled by the caller
        node_comm_cpu_ns: Vec::new(), // filled by the caller
        total_ndist: 0,               // filled by the caller
        result_bytes,
        degraded,
        missing_partitions,
        retries,
        failovers,
    }
}

/// One data-plane query a worker has accepted but not yet answered.
struct PendingQuery {
    /// Its probe in the batch's [`Routes`].
    probe: usize,
    arrival: f64,
}

/// Where a worker node is in its program.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waits for the master's RMA window key (one-sided batches).
    Window,
    /// Waits for the end of the start barrier.
    Barrier,
    /// Algorithm 4's loop: waits for the master's next message.
    Serve,
    /// The batch is over.
    Done,
}

/// A worker node — one MPI process of Algorithm 4 — as a message
/// handler: its program from one receive to the next.
pub(crate) struct Worker {
    world: Comm,
    phase: Phase,
    /// The receive the node waits on.
    want: Want,
    window: Option<Window<TopK>>,
    serveable: Vec<bool>,
    pool: VThreadPool,
    queued: Vec<PendingQuery>,
    /// [`WorkerOut::served`].
    served: Vec<(usize, f64, f64)>,
    ndist: u64,
}

impl Worker {
    /// Answers every queued query from the batch's stored answers: the
    /// virtual-time accounting and the posting run in arrival order, with
    /// each probe's measured ndist. Which thread searched a probe, and
    /// when, never reaches a virtual time.
    fn serve(&mut self, rank: &mut Rank, b: &Batch) {
        let index = b.index;
        for item in self.queued.drain(..) {
            let p = item.probe;
            let qid = b.routes.probes[p].0;
            let ndist = b.answers[p].1.ndist;
            self.ndist += ndist;
            let cost = index.config.cost.dists_ns(ndist, index.dim());
            let done_at = self.pool.assign(item.arrival, cost);
            self.served.push((p, item.arrival, done_at));
            let start = done_at - cost;
            b.span(
                None,
                rank.rank(),
                start,
                done_at,
                SpanKind::Compute,
                Stage::LocalSearch,
            );
            let len = b.result_len(p);
            match &self.window {
                Some(win) => {
                    win.accumulate_at(rank, qid as usize, len, done_at, |t| {
                        for n in b.global_answer(p) {
                            t.push(n);
                        }
                    });
                }
                None => rank.send_sized(0, TAG_RESULT, probe_payload(p), len, Some(done_at)),
            }
        }
    }

    /// Algorithm 4's QUERY / FLUSH / END dispatch.
    fn on_master_msg(&mut self, rank: &mut Rank, b: &Batch, msg: Msg) {
        let node = rank.rank() - 1;
        match msg.tag {
            TAG_QUERY => {
                if rank.is_crashed() {
                    // fail-stop data plane: the query is swallowed; the
                    // master's timeout + failover machinery recovers it
                    return;
                }
                // the probe was searched before the epoch: its answer is
                // stored in the batch
                let probe = probe_of(&msg);
                let part = b.routes.probes[probe].1;
                assert!(
                    self.serveable[part as usize],
                    "node {node} asked to serve partition {part} it does not hold"
                );
                self.queued.push(PendingQuery {
                    probe,
                    arrival: msg.arrival,
                });
            }
            TAG_FLUSH => {
                self.serve(rank, b);
                if b.acked() {
                    // every result and deposit is posted by the pool
                    // makespan; under faults the ack is control plane,
                    // answered even by a crashed rank, and cannot leave
                    // before the node has read the flush
                    let mut at = self.pool.makespan();
                    if b.faults {
                        at = at.max(rank.now());
                    }
                    rank.send_bytes_at(0, TAG_FLUSH_ACK, Bytes::new(), at);
                }
                if !b.faults {
                    // without faults round 0's flush is the shutdown
                    self.phase = Phase::Done;
                }
            }
            TAG_END => self.phase = Phase::Done,
            t => panic!("worker node {node}: unexpected tag {t}"),
        }
    }
}

impl<'a> Handler<Batch<'a>> for Worker {
    type Out = WorkerOut;

    fn start(rank: &mut Rank, b: &Batch<'a>) -> Self {
        let node = rank.rank() - 1;
        let mut pool = VThreadPool::new(b.index.config.cores_per_node, 0.0);
        pool.set_perturb(rank.sched_perturb());
        let world = rank.world();
        // the start barrier gives every rank the master's clock origin; a
        // one-sided batch first joins the master's window, whose slots
        // the collective transports
        let (phase, want) = if b.one_sided {
            (Phase::Window, Window::<TopK>::join(rank, &world, 0))
        } else {
            (Phase::Barrier, world.barrier_enter(rank))
        };
        Worker {
            world,
            phase,
            want,
            window: None,
            // master and workers share `counts`, so the mask covers every
            // dispatch target
            serveable: b.index.partitions_on(node, &b.counts),
            pool,
            queued: Vec::new(),
            served: Vec::new(),
            ndist: 0,
        }
    }

    fn waits_on(&self) -> Option<Want> {
        (self.phase != Phase::Done).then_some(self.want)
    }

    fn on_msg(&mut self, rank: &mut Rank, b: &Batch<'a>, msg: Msg) {
        match self.phase {
            Phase::Window => {
                self.window = Some(Window::joined(rank, &self.world, 0, &msg));
                self.want = self.world.barrier_enter(rank);
                self.phase = Phase::Barrier;
            }
            Phase::Barrier => {
                self.phase = Phase::Serve;
                self.want = Want {
                    src: Some(0),
                    tag: None,
                };
            }
            Phase::Serve => self.on_master_msg(rank, b, msg),
            Phase::Done => unreachable!("a finished node receives nothing"),
        }
    }

    fn finish(self, rank: &mut Rank, _: &Batch<'a>) -> WorkerOut {
        let stats = rank.stats();
        WorkerOut {
            busy_ns: self.pool.busy(),
            comm_cpu_ns: stats.send_cpu_ns + stats.recv_cpu_ns + stats.rma_cpu_ns,
            ndist: self.ndist,
            served: self.served,
        }
    }
}

/// Folds a worker node's batch into the accumulator: per answered
/// probe its local-search work, virtual service time and span, and per
/// node the probes served and the peak backlog of its virtual threads.
/// `served` holds `(probe, arrival, completion)` in the order served —
/// virtual times and counted work, so the fold is identical across real
/// thread counts.
fn record_worker_batch(s: &mut Shard, b: &Batch, served: &[(usize, f64, f64)]) {
    let (cost, dim) = (&b.index.config.cost, b.index.dim());
    // the counters are sums: added up here, folded once per node
    let (mut quant, mut exact, mut seeds) = (0, 0, 0);
    for &(p, _, done) in served {
        let stats = &b.answers[p].1;
        let service_ns = cost.dists_ns(stats.ndist, dim);
        s.span(Stage::LocalSearch, done - service_ns, done);
        s.observe(HNSW_NDIST, stats.ndist as f64);
        // quantized vs exact split of the distance work, plus the re-rank
        // pool sizes — the counters the recall-delta gate and dashboards
        // read
        quant += stats.ndist_quant;
        exact += stats.ndist - stats.ndist_quant;
        if stats.rerank > 0 {
            s.observe(RERANK_POOL, stats.rerank as f64);
        }
        s.observe(HNSW_HOPS, stats.hops as f64);
        // diverse entry-set consumption: how many multi-basin seeds the
        // query actually injected into its descent (DESIGN.md §13)
        seeds += stats.entry_seeds;
        s.observe(HNSW_HEAP_PUSHES, stats.heap_pushes as f64);
        s.observe(HNSW_EF_CHURN, stats.ef_churn as f64);
        let part = b.routes.probes[p].1 as usize;
        s.observe(WORKER_SERVICE_NS.at(part), service_ns);
    }
    if !served.is_empty() {
        s.inc(DISTS_QUANT, quant);
        s.inc(DISTS_EXACT, exact);
        s.inc(HNSW_ENTRY_SEEDS, seeds);
        if b.one_sided {
            s.inc(RMA_DEPOSITS, served.len() as u64);
        }
    }
    s.observe(WORKER_BATCH_SIZE, served.len() as f64);
    s.gauge_backlog(
        WORKER_QUEUE_DEPTH,
        served.iter().map(|&(_, arrival, done)| (arrival, done)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::request::SearchRequest;
    use crate::routing::RoutingPolicy;
    use fastann_data::{ground_truth, synth, Distance};
    use fastann_hnsw::HnswConfig;
    use fastann_vptree::RouteConfig;

    /// Engine tests drive the builder path through one local helper.
    fn search_batch(index: &DistIndex, queries: &VectorSet, opts: &SearchOptions) -> QueryReport {
        SearchRequest::new(index, queries).opts(*opts).run()
    }

    fn build_small(
        n: usize,
        dim: usize,
        cores: usize,
        per_node: usize,
        seed: u64,
    ) -> (VectorSet, DistIndex) {
        let data = synth::sift_like(n, dim, seed);
        let cfg = EngineConfig::new(cores, per_node)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(seed))
            .with_seed(seed);
        let index = DistIndex::build(&data, cfg);
        (data, index)
    }

    #[test]
    fn results_have_k_sorted_unique_neighbors() {
        let (data, index) = build_small(3000, 16, 8, 2, 1);
        let queries = synth::queries_near(&data, 20, 0.02, 2);
        let report = search_batch(&index, &queries, &SearchOptions::new(10));
        assert_eq!(report.results.len(), 20);
        for r in &report.results {
            assert_eq!(r.len(), 10);
            for w in r.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
            let mut ids: Vec<u32> = r.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 10, "duplicate global ids in result");
            assert!(ids.iter().all(|&id| (id as usize) < data.len()));
        }
    }

    #[test]
    fn recall_is_high_with_generous_routing() {
        let (data, index) = build_small(4000, 16, 8, 2, 3);
        let queries = synth::queries_near(&data, 30, 0.02, 4);
        let mut opts = SearchOptions::new(10);
        opts.ef = 128;
        let report = search_batch(&index, &queries, &opts);
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        let rec = ground_truth::recall_at_k(&report.results, &gt, 10);
        assert!(rec.mean > 0.7, "recall too low: {}", rec.mean);
    }

    #[test]
    fn one_sided_matches_two_sided_results() {
        let (data, index) = build_small(2000, 16, 8, 2, 5);
        let queries = synth::queries_near(&data, 15, 0.02, 6);
        let one = search_batch(
            &index,
            &queries,
            &SearchOptions::new(10).with_one_sided(true),
        );
        let two = search_batch(
            &index,
            &queries,
            &SearchOptions::new(10).with_one_sided(false),
        );
        assert_eq!(
            one.results, two.results,
            "result content must not depend on transport"
        );
    }

    #[test]
    fn one_sided_reduces_master_comm_cpu() {
        let (data, index) = build_small(2000, 16, 16, 2, 7);
        let queries = synth::queries_near(&data, 200, 0.05, 8);
        let one = search_batch(
            &index,
            &queries,
            &SearchOptions::new(10).with_one_sided(true),
        );
        let two = search_batch(
            &index,
            &queries,
            &SearchOptions::new(10).with_one_sided(false),
        );
        assert!(
            one.master_comm_cpu_ns < two.master_comm_cpu_ns,
            "one-sided should cut master comm CPU: {} vs {}",
            one.master_comm_cpu_ns,
            two.master_comm_cpu_ns
        );
    }

    #[test]
    fn replication_spreads_queries() {
        let (data, mut index) = build_small(2000, 16, 8, 2, 9);
        // route every query to exactly its home partition so the workgroup
        // round-robin is the only load-spreading mechanism under test
        index.config.route = RouteConfig {
            margin_frac: 0.0,
            max_partitions: 1,
        };
        // skewed workload: all queries near one point -> same home partition
        let mut queries = VectorSet::new(16);
        let base = data.get(0).to_vec();
        for i in 0..60 {
            let mut q = base.clone();
            q[0] += (i % 5) as f32 * 0.01;
            queries.push(&q);
        }
        let r1 = search_batch(
            &index,
            &queries,
            &SearchOptions::new(10).with_routing(RoutingPolicy::Static(1)),
        );
        let r3 = search_batch(
            &index,
            &queries,
            &SearchOptions::new(10).with_routing(RoutingPolicy::Static(3)),
        );
        assert_eq!(r1.results.len(), r3.results.len());
        let d1 = r1.query_distribution();
        let d3 = r3.query_distribution();
        assert!(
            d3.max < d1.max,
            "replication must shrink the busiest core: {} vs {}",
            d1.max,
            d3.max
        );
    }

    #[test]
    fn per_core_counts_match_fanout() {
        let (data, index) = build_small(2000, 16, 8, 2, 11);
        let queries = synth::queries_near(&data, 25, 0.05, 12);
        let report = search_batch(&index, &queries, &SearchOptions::new(10));
        let dispatched: u64 = report.per_core_queries.iter().sum();
        assert_eq!(dispatched as f64, report.mean_fanout * 25.0);
    }

    #[test]
    fn accounting_is_populated() {
        let (data, index) = build_small(2000, 16, 8, 4, 13);
        let queries = synth::queries_near(&data, 20, 0.05, 14);
        let report = search_batch(&index, &queries, &SearchOptions::new(10));
        assert!(report.total_ns > 0.0);
        assert!(report.master_route_ns > 0.0);
        assert!(report.mean_fanout >= 1.0);
        assert_eq!(report.node_busy_ns.len(), 2);
        assert!(report.total_ndist > 0);
        assert!(report.throughput_qps() > 0.0);
        let (c, m, i) = report.breakdown();
        assert!((c + m + i - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_cores_cut_query_time() {
        // the strong-scaling effect of Fig. 3 at miniature scale
        let data = synth::sift_like(6000, 16, 15);
        let queries = synth::queries_near(&data, 60, 0.05, 16);
        let time_for = |cores: usize| {
            let cfg = EngineConfig::new(cores, 2)
                .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(15))
                .with_seed(15);
            let index = DistIndex::build(&data, cfg);
            search_batch(&index, &queries, &SearchOptions::new(10)).total_ns
        };
        let slow = time_for(4);
        let fast = time_for(16);
        assert!(
            fast < slow,
            "16 cores ({fast:.0} ns) should beat 4 cores ({slow:.0} ns)"
        );
    }

    #[test]
    fn route_cap_bounds_fanout() {
        let (data, index) = build_small(2000, 16, 8, 2, 17);
        let queries = synth::queries_near(&data, 10, 0.05, 18);
        let report = search_batch(&index, &queries, &SearchOptions::new(5));
        assert!(report.mean_fanout <= index.config.route.max_partitions as f64);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let (_, index) = build_small(500, 8, 4, 2, 19);
        let queries = synth::sift_like(3, 16, 20);
        let _ = search_batch(&index, &queries, &SearchOptions::new(5));
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn dimension_mismatch_mid_stream_panics() {
        // the assert fires between two epochs, while the workers wait for
        // the next one: the session must close, not hang
        let (data, index) = build_small(500, 8, 4, 2, 19);
        let good = synth::queries_near(&data, 3, 0.02, 20);
        let bad = synth::sift_like(3, 16, 20);
        SearchSession::open(&index, None, 0, |s| {
            s.run(SearchRequest::new(&index, &good));
            s.run(SearchRequest::new(&index, &bad))
        });
    }

    #[test]
    #[should_panic(expected = "fault plan must be its session's")]
    fn session_rejects_a_batch_under_another_fault_plan() {
        let (data, index) = build_small(500, 8, 4, 2, 27);
        let queries = synth::queries_near(&data, 3, 0.02, 28);
        let plan = FaultPlan::new(1).crash(1, 0.0);
        SearchSession::open(&index, None, 0, |s| {
            s.run(SearchRequest::new(&index, &queries).chaos(&plan))
        });
    }

    #[test]
    #[should_panic(expected = "schedule seed must be its session's")]
    fn session_rejects_a_batch_under_another_schedule_seed() {
        let (data, index) = build_small(500, 8, 4, 2, 27);
        let queries = synth::queries_near(&data, 3, 0.02, 28);
        let opts = SearchOptions::new(5).with_sched_seed(3);
        SearchSession::open(&index, None, 0, |s| {
            s.run(SearchRequest::new(&index, &queries).opts(opts))
        });
    }

    #[test]
    fn streamed_batches_report_what_lone_batches_report() {
        // consecutive batches of one stream differ in k, transport and
        // replication; each must report exactly what it reports alone
        let (data, index) = build_small(2000, 16, 8, 2, 29);
        let queries = synth::queries_near(&data, 12, 0.02, 30);
        let requests = [
            SearchOptions::new(10),
            SearchOptions::new(3).with_one_sided(false),
            SearchOptions::new(7).with_routing(RoutingPolicy::Static(2)),
        ]
        .map(|o| SearchRequest::new(&index, &queries).opts(o));
        let streamed: Vec<QueryReport> = SearchSession::open(&index, None, 0, |s| {
            requests.iter().map(|&r| s.run(r)).collect()
        });
        let alone: Vec<QueryReport> = requests.iter().map(|r| r.run()).collect();
        assert_eq!(streamed, alone);
    }

    #[test]
    fn perturbed_schedule_is_result_neutral() {
        // the race-detector contract: a correct protocol returns an
        // identical report under every schedule perturbation seed
        let (data, index) = build_small(2000, 16, 8, 2, 23);
        let queries = synth::queries_near(&data, 15, 0.02, 24);
        for one_sided in [true, false] {
            let base = search_batch(
                &index,
                &queries,
                &SearchOptions::new(10).with_one_sided(one_sided),
            );
            for seed in [1u64, 7, 0xDEAD_BEEF] {
                let opts = SearchOptions::new(10)
                    .with_one_sided(one_sided)
                    .with_sched_seed(seed);
                let perturbed = search_batch(&index, &queries, &opts);
                assert_eq!(
                    base, perturbed,
                    "seed {seed} diverged (one_sided={one_sided})"
                );
            }
        }
    }

    #[test]
    fn threaded_engine_report_is_bit_identical() {
        // the determinism contract of `EngineConfig::threads`: real
        // thread-parallelism may only change wall-clock speed, never any
        // reported number — graphs, results, virtual times, counters
        let data = synth::sift_like(2000, 16, 25);
        let queries = synth::queries_near(&data, 15, 0.02, 26);
        let build_with = |threads: usize| {
            let cfg = EngineConfig::new(8, 2)
                .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(25))
                .with_seed(25)
                .with_threads(threads);
            DistIndex::build(&data, cfg)
        };
        let base_index = build_with(1);
        let par_index = build_with(4);
        assert_eq!(
            base_index.build_stats, par_index.build_stats,
            "threaded build must not change BuildStats"
        );
        for one_sided in [true, false] {
            let opts = SearchOptions::new(10).with_one_sided(one_sided);
            let base = search_batch(&base_index, &queries, &opts);
            let fast = search_batch(&par_index, &queries, &opts);
            assert_eq!(
                base, fast,
                "threads=4 report diverged (one_sided={one_sided})"
            );
        }
    }

    #[test]
    fn wider_margin_improves_recall() {
        let data = synth::sift_like(3000, 16, 21);
        let queries = synth::queries_near(&data, 30, 0.02, 22);
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        let recall_for = |margin: f32, cap: usize| {
            let cfg = EngineConfig::new(8, 2)
                .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(21))
                .with_route(RouteConfig {
                    margin_frac: margin,
                    max_partitions: cap,
                })
                .with_seed(21);
            let index = DistIndex::build(&data, cfg);
            let mut o = SearchOptions::new(10);
            o.ef = 128;
            let r = search_batch(&index, &queries, &o);
            ground_truth::recall_at_k(&r.results, &gt, 10).mean
        };
        let narrow = recall_for(0.0, 1);
        let wide = recall_for(0.3, 8);
        assert!(
            wide >= narrow,
            "wider routing must not hurt recall: narrow {narrow} wide {wide}"
        );
    }
}
