//! Per-rank execution context: virtual clock, point-to-point messaging,
//! compute charging, and accounting.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

use bytes::Bytes;

use crate::cluster::{lock, Shared};
use crate::comm::Comm;
use crate::fault::Fate;
use crate::vthreads::SchedPerturb;

/// A message delivered to a rank's mailbox.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Global rank of the sender.
    pub src: usize,
    /// User tag (bit 63 is reserved for collectives).
    pub tag: u64,
    /// Payload bytes.
    pub payload: Bytes,
    /// Sender virtual time at which the send was posted (ns).
    pub sent_at: f64,
    /// Virtual time at which the message reaches the receiver (ns).
    pub arrival: f64,
}

/// A receive a rank waits on: the `src`/`tag` arguments of
/// [`Rank::recv`] (`None` is the wildcard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Want {
    /// Sender to match, or any.
    pub src: Option<usize>,
    /// Tag to match, or any user tag.
    pub tag: Option<u64>,
}

/// Runs the handler ranks of a [`crate::HandlerSession`] on behalf of a
/// rank 0 that would otherwise block.
pub(crate) trait Pump: Send {
    /// Runs one ready handler; `false` when none is ready.
    fn run_ready(&mut self) -> bool;
}

/// One rank's mailbox.
#[derive(Default)]
pub(crate) struct Mailbox {
    pub(crate) queue: Mutex<VecDeque<Msg>>,
    pub(crate) cv: Condvar,
}

/// Accounting for one rank's virtual activity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Modelled compute time charged (ns).
    pub compute_ns: f64,
    /// Time spent blocked on message arrivals (receiver clock advanced to
    /// meet arrivals), ns.
    pub wait_ns: f64,
    /// CPU overhead of posting sends, ns.
    pub send_cpu_ns: f64,
    /// CPU overhead of completing receives, ns.
    pub recv_cpu_ns: f64,
    /// CPU overhead of origin-side RMA operations, ns.
    pub rma_cpu_ns: f64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// One-sided operations issued.
    pub rma_ops: u64,
    /// Sends suppressed by fault injection (dropped rules or a crashed
    /// sender). Counted within `msgs_sent`.
    pub msgs_dropped: u64,
    /// Sends duplicated by fault injection.
    pub msgs_duplicated: u64,
    /// Virtual time lost to injected stalls, ns.
    pub stall_ns: f64,
}

impl RankStats {
    /// Total accounted virtual time (compute + communication overheads +
    /// waits).
    pub fn total_ns(&self) -> f64 {
        self.compute_ns + self.wait_ns + self.send_cpu_ns + self.recv_cpu_ns + self.rma_cpu_ns
    }
}

/// The execution context handed to each simulated rank.
///
/// The lifetime is that of rank 0's borrow of the handler ranks in a
/// [`crate::HandlerSession`] epoch; code that takes `&mut Rank` never
/// names it.
pub struct Rank<'p> {
    pub(crate) rank: usize,
    pub(crate) shared: Arc<Shared>,
    pub(crate) clock: f64,
    pub(crate) stats: RankStats,
    /// Crash point from the fault plan, cached for cheap checks.
    crash_at: Option<f64>,
    /// Pending one-shot stall `(at_ns, dur_ns)`; taken when it fires.
    stall: Option<(f64, f64)>,
    /// Rank 0 of a handler session: what runs the handlers when a receive
    /// finds no matching mail.
    pump: Option<&'p mut dyn Pump>,
}

impl<'p> Rank<'p> {
    pub(crate) fn new(rank: usize, shared: Arc<Shared>) -> Self {
        let mut r = Self {
            rank,
            shared,
            clock: 0.0,
            stats: RankStats::default(),
            crash_at: None,
            stall: None,
            pump: None,
        };
        r.reset();
        r
    }

    /// Rank 0 of a handler-session epoch: its blocking receives run the
    /// handler ranks through `pump`.
    pub(crate) fn with_pump(rank: usize, shared: Arc<Shared>, pump: &'p mut dyn Pump) -> Self {
        Self {
            pump: Some(pump),
            ..Self::new(rank, shared)
        }
    }
}

impl Rank<'_> {
    /// Returns this rank to the state [`Rank::new`] gives it: the start of
    /// a session epoch.
    pub(crate) fn reset(&mut self) {
        let fault = &self.shared.cfg.fault;
        self.crash_at = fault.crashed_at(self.rank);
        self.stall = fault.stall_of(self.rank);
        self.clock = 0.0;
        self.stats = RankStats::default();
    }

    /// This rank's global id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.cfg.n_ranks
    }

    /// Current virtual time (ns since cluster start).
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Accounting so far.
    pub fn stats(&self) -> RankStats {
        self.stats
    }

    /// The communicator spanning all ranks.
    pub fn world(&self) -> Comm {
        Comm::world(self.size())
    }

    /// The cluster's schedule perturbation (identity unless a race-detector
    /// run installed one via [`crate::SimConfig`]). Simulated code models
    /// its own intra-node scheduling choices — e.g. a worker's
    /// [`crate::VThreadPool`] — off this value so the race detector can
    /// shake those too.
    #[inline]
    pub fn sched_perturb(&self) -> SchedPerturb {
        self.shared.cfg.sched
    }

    /// `true` once this rank's virtual clock has reached the crash point
    /// of the cluster's [`crate::FaultPlan`] (always `false` without one).
    /// Simulated code polls this to stop doing work; the send layer
    /// additionally suppresses everything a crashed rank posts.
    #[inline]
    pub fn is_crashed(&self) -> bool {
        self.crash_at.is_some_and(|t| self.clock >= t)
    }

    /// Advances the clock to `t_ns` (no-op when already past), recording
    /// the gap as communication wait — virtual-time timeouts are built on
    /// this.
    pub fn wait_until(&mut self, t_ns: f64) {
        if t_ns > self.clock {
            self.stats.wait_ns += t_ns - self.clock;
            self.clock = t_ns;
        }
        self.apply_stall();
    }

    /// Fires the plan's one-shot stall once the clock crosses its
    /// threshold.
    #[inline]
    fn apply_stall(&mut self) {
        if let Some((at, dur)) = self.stall {
            if self.clock >= at {
                self.stall = None;
                self.clock += dur;
                self.stats.stall_ns += dur;
            }
        }
    }

    /// Charges `ns` of modelled compute time.
    #[inline]
    pub fn charge(&mut self, ns: f64) {
        debug_assert!(ns >= 0.0, "negative compute charge");
        self.clock += ns;
        self.stats.compute_ns += ns;
        self.apply_stall();
    }

    /// Charges `n` distance evaluations between `dim`-dimensional vectors,
    /// priced by the cluster's [`crate::CostModel`].
    #[inline]
    pub fn charge_dists(&mut self, n: u64, dim: usize) {
        self.charge(self.shared.cfg.cost.dists_ns(n, dim));
    }

    /// Posts a non-blocking send (models `MPI_Isend` with a buffered
    /// payload): the sender pays only the posting overhead; the message
    /// arrives at `now + α + bytes·β`.
    pub fn send_bytes(&mut self, dst: usize, tag: u64, payload: Bytes) {
        assert!(dst < self.size(), "send to unknown rank {dst}");
        let cfg = &self.shared.cfg;
        let bytes = payload.len();
        self.clock += cfg.net.send_overhead_ns;
        self.stats.send_cpu_ns += cfg.net.send_overhead_ns;
        let seq = self.stats.msgs_sent;
        let arrival = self.clock
            + cfg
                .net
                .xfer_jittered_ns(&cfg.topology, self.rank, dst, bytes, seq);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        let sent_at = self.clock;
        self.deliver(dst, tag, payload, sent_at, arrival, seq);
    }

    /// Posts a send on behalf of a *virtual worker thread* that finishes at
    /// virtual time `not_before` (see [`crate::VThreadPool`]): the message
    /// leaves at `max(not_before, 0)` regardless of this rank's progress
    /// clock, modelling a compute thread that posts its own result. The
    /// rank's clock is not advanced; the posting overhead is attributed to
    /// the virtual thread (added to the departure time).
    pub fn send_bytes_at(&mut self, dst: usize, tag: u64, payload: Bytes, not_before: f64) {
        assert!(dst < self.size(), "send to unknown rank {dst}");
        let cfg = &self.shared.cfg;
        let bytes = payload.len();
        let depart = not_before.max(0.0) + cfg.net.send_overhead_ns;
        let seq = self.stats.msgs_sent;
        let arrival = depart
            + cfg
                .net
                .xfer_jittered_ns(&cfg.topology, self.rank, dst, bytes, seq);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        self.stats.send_cpu_ns += cfg.net.send_overhead_ns;
        self.deliver(dst, tag, payload, depart, arrival, seq);
    }

    /// Enqueues a posted message, applying the cluster's fault plan: a
    /// vacuous plan takes the plain path; otherwise the message may be
    /// suppressed (crashed sender), dropped, delayed, or duplicated — all
    /// decided by a deterministic hash, never by wall-clock state.
    fn deliver(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Bytes,
        sent_at: f64,
        arrival: f64,
        seq: u64,
    ) {
        let fault = &self.shared.cfg.fault;
        let ledger = &self.shared.ledger;
        ledger.sent.fetch_add(1, Ordering::Relaxed);
        let mut arrival = arrival;
        let mut copies = 1usize;
        if !fault.is_vacuous() {
            if fault.send_suppressed(self.rank, sent_at, tag) {
                self.stats.msgs_dropped += 1;
                ledger.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match fault.fate(self.rank, dst, tag, seq) {
                Fate::Deliver => {}
                Fate::Drop => {
                    self.stats.msgs_dropped += 1;
                    ledger.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Fate::Delay(extra) => arrival += extra,
                Fate::Duplicate => {
                    copies = 2;
                    self.stats.msgs_duplicated += 1;
                    ledger.duplicated.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        ledger.delivered.fetch_add(copies as u64, Ordering::Relaxed);
        let mb = &self.shared.mailboxes[dst];
        {
            let mut q = lock(&mb.queue);
            for _ in 0..copies {
                q.push_back(Msg {
                    src: self.rank,
                    tag,
                    payload: payload.clone(),
                    sent_at,
                    arrival,
                });
            }
        }
        // no thread of a handler session ever waits on a mailbox
        if !self.shared.handlers {
            mb.cv.notify_all();
        }
    }

    /// Blocking receive of the first message matching `src`/`tag`
    /// (`None` = wildcard). The receiver's clock advances to the message's
    /// arrival when it arrives "in the future"; the gap is recorded as
    /// communication wait.
    ///
    /// On rank 0 of a [`crate::HandlerSession`] a receive that finds no
    /// matching mail runs the ready handler ranks until the mail is there.
    ///
    /// # Panics
    /// Panics after the cluster's watchdog timeout — a deadlocked simulated
    /// program fails loudly instead of hanging the host — and at once when
    /// another rank of the session has panicked. In a handler session a
    /// deadlock panics at once: no handler is ready to send the mail.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<u64>) -> Msg {
        self.maybe_stall_realtime();
        let msg = self.wait_message(src, tag);
        self.complete_recv(msg)
    }

    /// Non-blocking probe-and-receive (models an `MPI_Test` loop that found
    /// a message): returns the first matching queued message, if any.
    pub fn try_recv(&mut self, src: Option<usize>, tag: Option<u64>) -> Option<Msg> {
        self.maybe_stall_realtime();
        self.take(Want { src, tag })
    }

    /// Receives the first queued message `want` matches, if any: a
    /// [`Rank::try_recv`] without the race detector's stall.
    pub(crate) fn take(&mut self, want: Want) -> Option<Msg> {
        let salt = self.match_salt();
        let perturb = self.shared.cfg.sched;
        let msg = {
            let mut q = lock(&self.shared.mailboxes[self.rank].queue);
            take_match(&mut q, want.src, want.tag, &perturb, salt)
        }?;
        Some(self.complete_recv(msg))
    }

    /// Arrival time of the first queued message `want` matches, if any.
    pub(crate) fn peek_arrival(&self, want: Want) -> Option<f64> {
        let q = lock(&self.shared.mailboxes[self.rank].queue);
        q.iter()
            .find(|m| matches(m, want.src, want.tag))
            .map(|m| m.arrival)
    }

    /// Race-detector hook: an OS-level sleep biased by the perturbation
    /// seed. Changes which messages are physically enqueued when the
    /// mailbox is next inspected; virtual clocks never see it. A handler
    /// session runs on one thread, so there is nothing to reshuffle.
    #[inline]
    fn maybe_stall_realtime(&self) {
        if self.shared.handlers {
            return;
        }
        let perturb = self.shared.cfg.sched;
        if let Some(us) = perturb.stall_micros(self.match_salt() ^ (self.rank as u64) << 32) {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// Salt for the perturbed-matching hash: distinct per rank and per
    /// completed receive, so reruns with one seed are still deterministic
    /// with respect to the rank's own progress.
    #[inline]
    fn match_salt(&self) -> u64 {
        (self.rank as u64) << 32 ^ self.stats.msgs_recv
    }

    fn complete_recv(&mut self, msg: Msg) -> Msg {
        let cfg = &self.shared.cfg;
        if msg.arrival > self.clock {
            self.stats.wait_ns += msg.arrival - self.clock;
            self.clock = msg.arrival;
        }
        self.clock += cfg.net.recv_overhead_ns;
        self.stats.recv_cpu_ns += cfg.net.recv_overhead_ns;
        self.stats.msgs_recv += 1;
        self.shared.ledger.received.fetch_add(1, Ordering::Relaxed);
        self.apply_stall();
        msg
    }

    fn wait_message(&mut self, src: Option<usize>, tag: Option<u64>) -> Msg {
        let perturb = self.shared.cfg.sched;
        let salt = self.match_salt();
        let mb = &self.shared.mailboxes[self.rank];
        let mut q = lock(&mb.queue);
        loop {
            if let Some(m) = take_match(&mut q, src, tag, &perturb, salt) {
                return m;
            }
            if self.shared.is_poisoned() {
                panic!(
                    "rank {} gave up waiting for src={:?} tag={:?}: another simulated rank panicked",
                    self.rank, src, tag
                );
            }
            if let Some(pump) = self.pump.as_deref_mut() {
                // handlers send to this mailbox: release it while they run
                drop(q);
                let ran = pump.run_ready();
                q = lock(&mb.queue);
                if ran || self.shared.is_poisoned() {
                    continue;
                }
                panic!(
                    "rank {} waits for src={:?} tag={:?} and no handler rank is ready \
                     (queued: {} unmatched messages) — simulated program deadlock",
                    self.rank,
                    src,
                    tag,
                    q.len()
                );
            }
            assert!(
                !self.shared.handlers,
                "handler rank {} cannot block in recv: name the receive in Handler::waits_on",
                self.rank
            );
            let timeout = self.shared.cfg.recv_timeout;
            let (guard, wait) = mb
                .cv
                .wait_timeout(q, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = guard;
            if wait.timed_out() {
                panic!(
                    "rank {} timed out after {:?} waiting for src={:?} tag={:?} \
                     (queued: {} unmatched messages) — simulated program deadlock",
                    self.rank,
                    timeout,
                    src,
                    tag,
                    q.len()
                );
            }
        }
    }

    /// Registers a shared object and returns its key (used by RMA windows
    /// to hand `Arc`s across rank threads).
    pub(crate) fn registry_put(&self, value: Box<dyn std::any::Any + Send + Sync>) -> u64 {
        self.shared.registry_put(value)
    }

    pub(crate) fn registry_get(&self, key: u64) -> Arc<dyn std::any::Any + Send + Sync> {
        self.shared.registry_get(key)
    }
}

/// Bit 63 marks collective-internal traffic. A wildcard-tag receive never
/// matches it — mirroring MPI, where collectives use a separate matching
/// context and cannot be intercepted by `MPI_Recv(ANY_TAG)`.
pub(crate) const COLL_FLAG: u64 = 1 << 63;

/// `true` when a `recv(src, tag)` may match `m`.
fn matches(m: &Msg, src: Option<usize>, tag: Option<u64>) -> bool {
    src.is_none_or(|s| m.src == s) && tag.map_or(m.tag & COLL_FLAG == 0, |t| m.tag == t)
}

/// Removes and returns the queued message a `recv(src, tag)` matches.
///
/// Baseline semantics: the first matching message in arrival order. Under
/// an active [`SchedPerturb`] a *wildcard-source* receive instead picks a
/// seeded-random candidate among the per-sender heads — the first matching
/// message of each distinct sender. Per-sender order is never violated
/// (MPI's non-overtaking guarantee), but the cross-sender choice models the
/// legal `MPI_ANY_SOURCE` nondeterminism a real cluster exhibits. Programs
/// whose observable state depends on that choice are racy; the race
/// detector exists to find exactly them.
fn take_match(
    q: &mut VecDeque<Msg>,
    src: Option<usize>,
    tag: Option<u64>,
    perturb: &SchedPerturb,
    salt: u64,
) -> Option<Msg> {
    let matches = |m: &Msg| matches(m, src, tag);
    if src.is_none() && perturb.is_active() {
        // candidate set: first matching message per distinct sender
        let mut heads: Vec<usize> = Vec::new();
        let mut seen_srcs: Vec<usize> = Vec::new();
        for (pos, m) in q.iter().enumerate() {
            if matches(m) && !seen_srcs.contains(&m.src) {
                seen_srcs.push(m.src);
                heads.push(pos);
            }
        }
        if heads.is_empty() {
            return None;
        }
        return q.remove(heads[perturb.pick(salt, heads.len())]);
    }
    let pos = q.iter().position(matches)?;
    q.remove(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, SimConfig};

    #[test]
    fn send_recv_advances_clocks() {
        let out = Cluster::new(SimConfig::new(2)).run(|rank| {
            if rank.rank() == 0 {
                rank.charge(1000.0);
                rank.send_bytes(1, 7, Bytes::from_static(b"hello"));
                rank.now()
            } else {
                let m = rank.recv(Some(0), Some(7));
                assert_eq!(&m.payload[..], b"hello");
                assert!(
                    m.arrival > 1000.0,
                    "arrival {} must include compute+net",
                    m.arrival
                );
                assert!(rank.now() >= m.arrival);
                rank.now()
            }
        });
        assert!(out[1] > out[0], "receiver finishes after sender posted");
    }

    #[test]
    fn wildcard_recv_matches_any() {
        let out = Cluster::new(SimConfig::new(3)).run(|rank| match rank.rank() {
            0 => {
                rank.send_bytes(2, 1, Bytes::from_static(b"a"));
                0
            }
            1 => {
                rank.send_bytes(2, 2, Bytes::from_static(b"b"));
                0
            }
            _ => {
                let m1 = rank.recv(None, None);
                let m2 = rank.recv(None, None);
                let mut srcs = [m1.src, m2.src];
                srcs.sort_unstable();
                assert_eq!(srcs, [0, 1]);
                (m1.payload.len() + m2.payload.len()) as i32
            }
        });
        assert_eq!(out[2], 2);
    }

    #[test]
    fn tag_filtering_defers_other_tags() {
        Cluster::new(SimConfig::new(2)).run(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 5, Bytes::from_static(b"five"));
                rank.send_bytes(1, 6, Bytes::from_static(b"six"));
            } else {
                // ask for tag 6 first even though 5 arrives first
                let m6 = rank.recv(Some(0), Some(6));
                assert_eq!(&m6.payload[..], b"six");
                let m5 = rank.recv(Some(0), Some(5));
                assert_eq!(&m5.payload[..], b"five");
            }
        });
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        Cluster::new(SimConfig::new(2)).run(|rank| {
            if rank.rank() == 1 {
                // nothing sent yet with tag 9 from rank 0 — simulate one
                // failed probe, then a successful blocking receive
                let probe = rank.try_recv(Some(0), Some(9));
                let _ = probe; // may be None or Some depending on scheduling
            } else {
                rank.send_bytes(1, 9, Bytes::new());
            }
        });
    }

    #[test]
    fn charge_dists_uses_cost_model() {
        let cfg = SimConfig::new(1);
        let per = cfg.cost.dist_ns(128);
        let out = Cluster::new(cfg).run(|rank| {
            rank.charge_dists(100, 128);
            rank.now()
        });
        assert!((out[0] - 100.0 * per).abs() < 1e-6);
    }

    #[test]
    fn stats_track_messages() {
        let out = Cluster::new(SimConfig::new(2)).run(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 1, Bytes::from_static(b"xyz"));
                rank.stats()
            } else {
                let _ = rank.recv(None, None);
                rank.stats()
            }
        });
        assert_eq!(out[0].msgs_sent, 1);
        assert_eq!(out[0].bytes_sent, 3);
        assert_eq!(out[1].msgs_recv, 1);
        assert!(out[1].wait_ns >= 0.0);
    }

    #[test]
    fn wildcard_recv_never_steals_collective_traffic() {
        // Regression test: a rank still in its point-to-point serve loop
        // must not intercept collective-internal messages (e.g. another
        // rank's gather contribution) with a wildcard receive — the bug
        // class that deadlocked the multiple-owner engine.
        use crate::comm::ReduceOp;
        Cluster::new(SimConfig::new(3)).run(|rank| {
            let world = rank.world();
            if rank.rank() == 0 {
                // ranks 1 and 2 enter the allreduce immediately; their
                // contributions land in rank 0's mailbox while it is still
                // doing wildcard point-to-point receives.
                let m = rank.recv(None, None); // must match ONLY the user msg
                assert_eq!(m.tag, 42, "wildcard matched a collective message");
            }
            if rank.rank() == 1 {
                rank.send_bytes(0, 42, Bytes::from_static(b"user"));
            }
            let s = world.allreduce_f64(rank, 1.0, ReduceOp::Sum);
            assert_eq!(s, 3.0);
        });
    }

    #[test]
    fn explicit_tag_recv_matches_collective_flagged_messages() {
        // Collectives themselves must still find their traffic (exact-tag
        // matching bypasses the wildcard guard) — exercised implicitly by
        // every collective test, asserted directly here via a barrier after
        // queued user messages.
        Cluster::new(SimConfig::new(2)).run(|rank| {
            let world = rank.world();
            if rank.rank() == 0 {
                rank.send_bytes(1, 7, Bytes::new());
            }
            world.barrier(rank); // must complete despite the queued user msg
            if rank.rank() == 1 {
                let m = rank.recv(Some(0), Some(7));
                assert_eq!(m.tag, 7);
            }
        });
    }

    #[test]
    #[should_panic]
    fn send_to_unknown_rank_panics() {
        Cluster::new(SimConfig::new(1)).run(|rank| {
            rank.send_bytes(5, 0, Bytes::new());
        });
    }
}
