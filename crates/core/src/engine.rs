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
//! per message. Real parallelism lives inside a node's flush, which splits
//! its probes over `EngineConfig::threads` threads once it holds enough of
//! them to pay for the spawn (`MIN_PROBES_PER_THREAD`).

use std::collections::HashSet;

use bytes::{Bytes, BytesMut};
use fastann_data::{Neighbor, TopK, VectorSet};
use fastann_hnsw::{SearchScratch, SearchStats};
use fastann_mpisim::{
    wire, Cluster, Comm, FaultPlan, Handler, HandlerSession, Msg, Rank, SchedPerturb, SimConfig,
    SpanKind, Topology, Trace, VThreadPool, Want, Window,
};
use fastann_obs::{buckets, Metrics, Stage};
use rayon::prelude::*;

use crate::build::DistIndex;
use crate::config::SearchOptions;
use crate::request::SearchSession;
use crate::router::ReplicaDispatcher;
use crate::stats::QueryReport;
use crate::tags;

/// Master → worker: one `(query, partition)` work item. Public so fault
/// plans (chaos tests) can target the engine's data-plane traffic by tag.
pub const TAG_QUERY: u64 = 201;
/// Worker → master: one answered probe (two-sided result path).
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
    /// Per-partition replica counts ([`effective_replicas`]).
    counts: Vec<usize>,
    trace: Option<Trace>,
    obs: Option<Metrics>,
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
    /// `true` when a node's drain ends at its [`TAG_FLUSH_ACK`]; a
    /// fault-free two-sided node is drained at its owed result count
    /// instead.
    fn acked(&self) -> bool {
        self.faults || self.one_sided
    }

    /// The unified span layer: one call records a query-path phase into
    /// the Gantt [`Trace`] (when attached) and into the
    /// `fastann_span_ns{stage}` histogram of the [`Metrics`] registry
    /// (when attached), under the same [`Stage::label`].
    fn span(&self, rank: usize, start: f64, end: f64, kind: SpanKind, stage: Stage) {
        if let Some(t) = &self.trace {
            t.record(rank, start, end, kind, stage.label());
        }
        if let Some(m) = &self.obs {
            m.span(stage, start, end);
        }
    }
}

/// The simulated cluster of a [`SearchSession`]: rank 0 is the master,
/// ranks `1..=n_nodes` the worker nodes, run as handlers on its thread.
pub(crate) type EngineCluster<'a> = HandlerSession<Batch<'a>, Worker>;

/// Opens the session behind [`SearchSession::open`]. `plan: None` and a
/// vacuous plan are the same input, costs included.
pub(crate) fn open<'a, T>(
    index: &'a DistIndex,
    plan: Option<&'a FaultPlan>,
    sched_seed: u64,
    body: impl FnOnce(&mut SearchSession<'a>) -> T,
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
    body(&mut SearchSession {
        index,
        plan,
        sched_seed,
        cluster: Cluster::new(sim).handler_session(),
    })
}

/// Single dispatch point behind [`crate::SearchRequest`]: runs one batch
/// as one epoch of `session` (which has checked that the batch is its
/// own: same index, fault plan and schedule seed).
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
    let batch = Batch {
        index,
        opts: *opts,
        counts,
        trace: trace.cloned(),
        obs: obs.cloned(),
        faults,
        one_sided: opts.one_sided && !faults,
    };
    let epoch = session
        .cluster
        .epoch(batch, |rank, b| master(rank, b, queries));
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
}

/// Encodes a work item: query id, target partition, query vector.
fn encode_query(qid: u32, partition: u32, q: &[f32]) -> Bytes {
    let mut b = BytesMut::with_capacity(12 + q.len() * 4);
    wire::put_u32(&mut b, qid);
    wire::put_u32(&mut b, partition);
    wire::put_f32_slice(&mut b, q);
    b.freeze()
}

/// One dispatched `(query, partition)` probe awaiting its answer (tracked
/// only under faults).
struct Probe {
    qid: u32,
    part: u32,
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

fn master(rank: &mut Rank, b: &Batch, queries: &VectorSet) -> QueryReport {
    let (index, opts) = (b.index, &b.opts);
    let world = rank.world();
    let p_cores = index.config.n_cores;
    let t_cores = index.config.cores_per_node;
    let n_nodes = index.config.n_nodes();
    let nq = queries.len();
    let k = opts.k;

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
        let q = queries.get(qi);
        let (parts, ndist) = index.router.route(q, &index.config.route);
        let c = ndist as f64 * route_cost_per_dist;
        rank.charge(c);
        route_ns += c;
        fanout_total += parts.len() as u64;
        if let Some(m) = &b.obs {
            m.observe(
                "fastann_router_fanout",
                &[],
                parts.len() as f64,
                buckets::COUNT,
            );
        }
        for d in parts {
            // workgroup W_d = {d, d+1, …, d+r-1 mod P}; the slot within it
            // follows the routing policy
            let (core, slot) = dispatcher.next(d, qi as u64);
            per_core_queries[core] += 1;
            per_partition_probes[d as usize] += 1;
            let node = core / t_cores;
            rank.send_bytes(1 + node, TAG_QUERY, encode_query(qi as u32, d, q));
            owed[node] += 1;
            if b.faults {
                outstanding.push(Probe {
                    qid: qi as u32,
                    part: d,
                    slot,
                    attempt: 0,
                    deadline: rank.now() + opts.timeout_ns,
                });
            }
        }
    }
    // Round 0's flush; without faults it is also the shutdown.
    flush_all(rank, n_nodes);
    if let Some(m) = &b.obs {
        m.inc("fastann_engine_queries_total", &[], nq as u64);
        m.inc("fastann_engine_probes_total", &[], fanout_total);
        m.inc(
            "fastann_routing_decisions_total",
            &[("policy", opts.routing.label())],
            fanout_total,
        );
    }
    b.span(0, start_ns, rank.now(), SpanKind::Compute, Stage::Route);

    // Answers already merged under faults, keyed (query, partition) — a
    // second answer for the same probe (duplicate fault, retry racing its
    // original) is discarded instead of double-merged.
    let mut fulfilled: HashSet<(u32, u32)> = HashSet::new();
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
                        let mut payload = msg.payload;
                        result_bytes += payload.len() as u64;
                        let qid = wire::get_u32(&mut payload);
                        // under faults the partition id follows the query id
                        let fresh =
                            !b.faults || fulfilled.insert((qid, wire::get_u32(&mut payload)));
                        let pairs = wire::get_neighbors(&mut payload);
                        if fresh {
                            merge_ops += 1;
                            rank.charge(pairs.len() as f64 * MERGE_NS_PER_NEIGHBOR);
                            for (id, d) in pairs {
                                tops[qid as usize].push(Neighbor::new(id, d));
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
        b.span(0, drain_start, rank.now(), SpanKind::Wait, Stage::Collect);

        outstanding.retain(|p| !fulfilled.contains(&(p.qid, p.part)));
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
            b.span(0, t0, rank.now(), SpanKind::Recovery, Stage::Timeout);
        }
        for p in outstanding.iter_mut() {
            let prev_core = dispatcher.failover(p.part, p.slot, p.attempt);
            p.attempt += 1;
            let core = dispatcher.failover(p.part, p.slot, p.attempt);
            retries += 1;
            if core != prev_core {
                failovers += 1;
            }
            per_core_queries[core] += 1;
            per_partition_probes[p.part as usize] += 1;
            let t0 = rank.now();
            rank.send_bytes(
                1 + core / t_cores,
                TAG_QUERY,
                encode_query(p.qid, p.part, queries.get(p.qid as usize)),
            );
            p.deadline = rank.now() + opts.timeout_ns;
            let stage = if core != prev_core {
                Stage::Failover
            } else {
                Stage::Retry
            };
            b.span(0, t0, rank.now(), SpanKind::Recovery, stage);
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
        missing_partitions[p.qid as usize] += 1;
    }
    let degraded: Vec<bool> = missing_partitions.iter().map(|&m| m > 0).collect();

    if let Some(m) = &b.obs {
        let path = if b.one_sided {
            "one_sided"
        } else {
            "two_sided"
        };
        m.inc(
            "fastann_master_merge_ops_total",
            &[("path", path)],
            merge_ops,
        );
        m.inc("fastann_engine_result_bytes_total", &[], result_bytes);
        // the chaos series exist only for batches that ran under faults
        if b.faults {
            m.inc("fastann_chaos_retries_total", &[], retries);
            m.inc("fastann_chaos_failovers_total", &[], failovers);
            m.inc("fastann_chaos_timeout_waits_total", &[], timeout_waits);
            m.inc(
                "fastann_chaos_degraded_total",
                &[],
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

/// One decoded data-plane query a worker has accepted but not yet answered.
struct PendingQuery {
    qid: u32,
    part: usize,
    q: Vec<f32>,
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

/// Fewest queued probes per real thread in a flush. Spawning and joining
/// a flush's two threads costs 57–97 µs on a 2-vCPU x86 host, and one
/// probe costs about 23 µs at 32-d and 53 µs at 256-d. Splitting `n`
/// probes over two threads saves about `n / 2` probes of wall time, so
/// the split pays from about 6 probes at 32-d and 3 at 256-d. At 4 per
/// thread a flush splits from 8 probes; shorter ones run inline on the
/// caller.
const MIN_PROBES_PER_THREAD: usize = 4;

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
    /// One `(arrival, completion)` pair per answered probe.
    served: Vec<(f64, f64)>,
    ndist: u64,
}

impl Worker {
    /// Answers every queued query. The searches fan out over
    /// `index.config.threads` real threads (per-thread scratch, at least
    /// [`MIN_PROBES_PER_THREAD`] probes each); then the virtual-time
    /// accounting and the posting replay in arrival order. Searches read
    /// an immutable index, so results and per-query ndist are
    /// schedule-independent, and every `pool.assign` and post happens in
    /// arrival order with the same operands — so when this runs (on
    /// receipt or at a flush) and on how many threads never changes a
    /// virtual time.
    fn serve(&mut self, rank: &mut Rank, b: &Batch) {
        let (index, opts) = (b.index, &b.opts);
        let answers: Vec<(Vec<Neighbor>, SearchStats)> =
            rayon::with_num_threads(index.config.threads, || {
                self.queued
                    .par_iter()
                    .with_min_len(MIN_PROBES_PER_THREAD)
                    .map_init(SearchScratch::default, |scratch, item| {
                        index.partitions[item.part]
                            .index
                            .search_detailed_opts(&item.q, opts, scratch)
                    })
                    .collect()
            });
        for (item, (local, stats)) in self.queued.drain(..).zip(answers) {
            self.ndist += stats.ndist;
            let partition = &index.partitions[item.part];
            let cost = index.config.cost.dists_ns(stats.ndist, index.dim());
            let done_at = self.pool.assign(item.arrival, cost);
            self.served.push((item.arrival, done_at));
            b.span(
                rank.rank(),
                done_at - cost,
                done_at,
                SpanKind::Compute,
                Stage::LocalSearch,
            );
            if let Some(m) = &b.obs {
                record_local_search(m, item.part, &stats, cost);
            }
            // translate to global ids
            let pairs: Vec<(u32, f32)> = local
                .iter()
                .map(|n| (partition.global_ids[n.id as usize], n.dist))
                .collect();
            match &self.window {
                Some(win) => {
                    win.accumulate_at(rank, item.qid as usize, pairs.len() * 8 + 8, done_at, |t| {
                        for &(id, d) in &pairs {
                            t.push(Neighbor::new(id, d));
                        }
                    });
                    if let Some(m) = &b.obs {
                        m.inc("fastann_rma_deposits_total", &[], 1);
                    }
                }
                None => {
                    let mut buf = BytesMut::new();
                    wire::put_u32(&mut buf, item.qid);
                    if b.faults {
                        // the master de-duplicates by (query, partition)
                        wire::put_u32(&mut buf, item.part as u32);
                    }
                    wire::put_neighbors(&mut buf, &pairs);
                    rank.send_bytes_at(0, TAG_RESULT, buf.freeze(), done_at);
                }
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
                let mut payload = msg.payload;
                let qid = wire::get_u32(&mut payload);
                let part = wire::get_u32(&mut payload) as usize;
                assert!(
                    self.serveable[part],
                    "node {node} asked to serve partition {part} it does not hold"
                );
                self.queued.push(PendingQuery {
                    qid,
                    part,
                    q: wire::get_f32_vec(&mut payload),
                    arrival: msg.arrival,
                });
                // a sequential node searches on receipt, so its virtual
                // work overlaps the master's dispatch; a threaded one
                // batches until the flush
                if b.index.config.threads == 1 {
                    self.serve(rank, b);
                }
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
            serveable: serveable_partitions(b.index, node, &b.counts),
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

    fn finish(self, rank: &mut Rank, b: &Batch<'a>) -> WorkerOut {
        if let Some(m) = &b.obs {
            record_worker_batch(m, &self.served);
        }
        let stats = rank.stats();
        WorkerOut {
            busy_ns: self.pool.busy(),
            comm_cpu_ns: stats.send_cpu_ns + stats.recv_cpu_ns + stats.rma_cpu_ns,
            ndist: self.ndist,
        }
    }
}

/// Folds one answered probe's local-search accounting into the registry:
/// the HNSW work histograms and the per-partition virtual service time.
fn record_local_search(m: &Metrics, part: usize, stats: &SearchStats, cost_ns: f64) {
    m.observe("fastann_hnsw_ndist", &[], stats.ndist as f64, buckets::WORK);
    // quantized vs exact split of the distance work, plus the re-rank pool
    // sizes — the counters the recall-delta gate and dashboards read
    m.inc("fastann_dists_quant_total", &[], stats.ndist_quant);
    m.inc(
        "fastann_dists_exact_total",
        &[],
        stats.ndist - stats.ndist_quant,
    );
    if stats.rerank > 0 {
        m.observe(
            "fastann_rerank_pool",
            &[],
            stats.rerank as f64,
            buckets::COUNT,
        );
    }
    m.observe("fastann_hnsw_hops", &[], stats.hops as f64, buckets::COUNT);
    // diverse entry-set consumption: how many multi-basin seeds the query
    // actually injected into its descent (DESIGN.md §13)
    m.inc("fastann_hnsw_entry_seeds_total", &[], stats.entry_seeds);
    m.observe(
        "fastann_hnsw_heap_pushes",
        &[],
        stats.heap_pushes as f64,
        buckets::WORK,
    );
    m.observe(
        "fastann_hnsw_ef_churn",
        &[],
        stats.ef_churn as f64,
        buckets::WORK,
    );
    let part = part.to_string();
    m.observe(
        "fastann_worker_service_ns",
        &[("partition", &part)],
        cost_ns,
        buckets::NS,
    );
}

/// Folds a worker's whole-batch accounting into the registry: how many
/// probes it received and the peak backlog of its virtual thread pool.
/// `served` holds one `(arrival, completion)` pair per answered probe —
/// virtual times, so the fold is identical across real thread counts.
fn record_worker_batch(m: &Metrics, served: &[(f64, f64)]) {
    m.observe(
        "fastann_worker_batch_size",
        &[],
        served.len() as f64,
        buckets::COUNT,
    );
    let mut depth_max = 0usize;
    for (i, &(arrival, _)) in served.iter().enumerate() {
        // probes accepted earlier and still unfinished when this one arrives
        let depth = 1 + served[..i].iter().filter(|&&(_, d)| d > arrival).count();
        depth_max = depth_max.max(depth);
    }
    m.gauge_max("fastann_worker_queue_depth", &[], depth_max as f64);
}

/// Per-partition serveability mask for `node`: partition `p` is replicated
/// on cores `(p + i) mod P` for `i < counts[p]`, and split-created
/// partitions (id ≥ P) wrap onto the existing cores the same way the
/// dispatcher does. `counts` comes from [`effective_replicas`] — identical
/// on master and workers, so the mask always covers the dispatch targets.
fn serveable_partitions(index: &DistIndex, node: usize, counts: &[usize]) -> Vec<bool> {
    let p_cores = index.config.n_cores;
    let t_cores = index.config.cores_per_node;
    (0..index.n_partitions())
        .map(|p| {
            let r = counts.get(p).copied().unwrap_or(1).min(p_cores);
            (0..r).any(|i| (p + i) % p_cores / t_cores == node)
        })
        .collect()
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
