//! Cluster construction and rank orchestration.
//!
//! A cluster runs a program in one of two forms:
//!
//! * [`Cluster::run`] is one SPMD launch: every rank is a blocking
//!   program, rank 0 on the caller's thread and ranks `1..n` on threads of
//!   their own. This is the form of the SPMD programs (the distributed
//!   build, the KD-tree baseline, the multiple-owner engine);
//! * a [`HandlerSession`] is one simulated cluster kept alive across many
//!   epochs, the way the paper's MPI job outlives the query batches it
//!   serves. Rank 0 is a blocking program on the caller's thread and ranks
//!   `1..n` are message [`Handler`]s on the same thread: whenever rank 0
//!   would block on an empty mailbox it runs the ready handlers itself. No
//!   thread is spawned, woken or joined.
//!
//! In both forms:
//!
//! 1. [`Cluster::run`] or [`Cluster::handler_session`] builds the shared
//!    state (mailboxes, ledger, window registry) from the [`SimConfig`],
//!    which stays fixed for the run or the session.
//! 2. Every rank starts a run, and every epoch, from what a fresh cluster
//!    gives it: clock 0, zeroed [`crate::RankStats`] — `msgs_sent` is the
//!    sequence number behind network jitter and fault fates, `msgs_recv`
//!    salts perturbed matching — and the fault plan's crash point and
//!    one-shot stall armed.
//! 3. Once all ranks have returned, the ledger is closed into the run's or
//!    the epoch's [`Conservation`] and zeroed, leftover mail is reported
//!    as leaked and drained, and the window registry is cleared. An epoch
//!    therefore reports exactly what [`Cluster::run_checked`] reports for
//!    the same program.
//!
//! A panic on any rank poisons the cluster: every blocked receive gives up
//! at once, and the caller re-raises the panicking rank's own payload.
//!
//! Every rank makes the same [`Rank`] calls in either form, in the same
//! per-rank order, so clocks, [`crate::RankStats`], the ledger, fault
//! fates and message counts do not depend on the form. A handler runs when
//! its awaited message is queued; among several ready handlers the one
//! whose message arrives first in virtual time runs first, then the lower
//! rank, and a rank's own mail is matched in delivery order. An active
//! [`SchedPerturb`] instead picks among the ready handlers that share the
//! earliest arrival time.

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::net::{NetModel, Topology};
use crate::rank::{Mailbox, Msg, Pump, Rank, Want};
use crate::vthreads::SchedPerturb;

/// Locks `m`, ignoring poison: a panic under a simulator lock is a rank
/// panic, and the cluster's own poisoning already reports it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stack size per rank thread. Simulated programs keep their data in
/// shared structures, so a modest stack suffices even for thousands of
/// ranks.
const RANK_STACK_BYTES: usize = 1 << 20;

/// Configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of simulated MPI ranks.
    pub n_ranks: usize,
    /// Rank → compute-node mapping (drives intra- vs inter-node costs).
    pub topology: Topology,
    /// α–β network model.
    pub net: NetModel,
    /// Compute cost model for [`Rank::charge_dists`].
    pub cost: CostModel,
    /// Seeded fault-injection schedule ([`FaultPlan::none`] by default —
    /// a vacuous plan adds one boolean check to the send path and nothing
    /// else).
    pub fault: FaultPlan,
    /// Seeded schedule perturbation for the race detector
    /// ([`SchedPerturb::none`] by default — the identity schedule).
    pub sched: SchedPerturb,
}

impl SimConfig {
    /// Default configuration for `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks > 0, "cluster needs at least one rank");
        Self {
            n_ranks,
            topology: Topology::default(),
            net: NetModel::default(),
            cost: CostModel::default(),
            fault: FaultPlan::none(),
            sched: SchedPerturb::none(),
        }
    }

    /// Sets the topology (builder style).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the network model (builder style).
    pub fn net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Sets the compute cost model (builder style).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the fault-injection plan (builder style).
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the schedule perturbation (builder style).
    pub fn sched(mut self, sched: SchedPerturb) -> Self {
        self.sched = sched;
        self
    }
}

/// Per-copy accounting of the shared mailbox plane: counts logical sends,
/// fault outcomes and completed receives. Closed out into a
/// [`Conservation`] report by [`Cluster::run_checked`].
#[derive(Default)]
pub(crate) struct Ledger {
    pub(crate) sent: AtomicU64,
    pub(crate) delivered: AtomicU64,
    pub(crate) dropped: AtomicU64,
    pub(crate) duplicated: AtomicU64,
    pub(crate) received: AtomicU64,
}

/// A message still sitting in a mailbox when its cluster shut down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeakedMsg {
    /// Sender rank.
    pub src: usize,
    /// Receiver rank whose mailbox held the message.
    pub dst: usize,
    /// Message tag (bit 63 marks collective-internal traffic).
    pub tag: u64,
}

/// Message-conservation report from [`Cluster::run_checked`]: at shutdown
/// every posted send must have been received, explicitly dropped by the
/// [`FaultPlan`], or be reported here as leaked with its `(src, dst, tag)`
/// triple.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Conservation {
    /// Logical sends posted ([`crate::Rank::send_sized`] calls, which
    /// `send_bytes` and `send_bytes_at` make).
    pub sent: u64,
    /// Message copies enqueued into mailboxes (`sent + duplicated −
    /// dropped`).
    pub delivered: u64,
    /// Sends suppressed or dropped by the fault plan.
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Receives completed by simulated code.
    pub received: u64,
    /// Copies never received: one entry per message left in a mailbox.
    pub leaked: Vec<LeakedMsg>,
}

impl Conservation {
    /// `true` when every delivered copy was received and the per-copy
    /// arithmetic closes. Fault-plan drops are accounted, not leaks — a
    /// lossy run can still be clean.
    pub fn is_clean(&self) -> bool {
        self.leaked.is_empty()
            && self.delivered == self.sent + self.duplicated - self.dropped
            && self.received == self.delivered
    }

    /// Panics with the full report (leak triples included) unless
    /// [`Conservation::is_clean`].
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "message conservation violated: {self:?}");
    }
}

/// A rank panic's payload, tagged with the rank that raised it.
type RankPanic = (usize, Box<dyn Any + Send>);

/// State shared by all ranks of one run or session.
pub(crate) struct Shared {
    pub(crate) cfg: SimConfig,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) ledger: Ledger,
    /// A [`HandlerSession`]: every rank runs on the caller's thread, so no
    /// thread ever waits on a mailbox.
    pub(crate) handlers: bool,
    registry: Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    next_key: AtomicU64,
    /// Set once a rank's program panics: blocked receives give up instead
    /// of waiting on a peer that never answers.
    poisoned: AtomicBool,
    /// The first panic of the run — the one the caller re-raises.
    panic: Mutex<Option<RankPanic>>,
}

impl Shared {
    fn new(cfg: SimConfig, handlers: bool) -> Self {
        Self {
            mailboxes: (0..cfg.n_ranks).map(|_| Mailbox::default()).collect(),
            cfg,
            ledger: Ledger::default(),
            handlers,
            registry: Mutex::new(HashMap::new()),
            next_key: AtomicU64::new(1),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    pub(crate) fn registry_put(&self, value: Box<dyn Any + Send + Sync>) -> u64 {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        lock(&self.registry).insert(key, Arc::from(value));
        key
    }

    pub(crate) fn registry_get(&self, key: u64) -> Arc<dyn Any + Send + Sync> {
        lock(&self.registry)
            .get(&key)
            .cloned()
            .unwrap_or_else(|| panic!("registry key {key} not found"))
    }

    /// `true` once a rank of this run has panicked.
    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Records `rank`'s panic (the first one wins) and wakes every
    /// blocked receive. Each mailbox lock is taken before its notify, so a
    /// receiver that saw the flag clear is already waiting when woken.
    pub(crate) fn poison(&self, rank: usize, payload: Box<dyn Any + Send>) {
        lock(&self.panic).get_or_insert((rank, payload));
        // pairs with the Acquire load in `is_poisoned`: a rank that sees
        // the flag also sees the recorded panic
        self.poisoned.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            drop(lock(&mb.queue));
            mb.cv.notify_all();
        }
    }

    /// Re-raises the run's first panic.
    fn raise(&self) -> ! {
        let (rank, payload) = lock(&self.panic)
            .take()
            .expect("a poisoned run holds its panic");
        eprintln!("simulated rank {rank} panicked");
        panic::resume_unwind(payload)
    }

    /// Ends an epoch once every rank has returned: closes the ledger into
    /// a [`Conservation`] and zeroes it, drains leftover mail as leaked,
    /// and clears the window registry.
    fn close_epoch(&self) -> Conservation {
        let mut leaked = Vec::new();
        for (dst, mb) in self.mailboxes.iter().enumerate() {
            leaked.extend(lock(&mb.queue).drain(..).map(|m| LeakedMsg {
                src: m.src,
                dst,
                tag: m.tag,
            }));
        }
        lock(&self.registry).clear();
        self.next_key.store(1, Ordering::Relaxed);
        let take = |n: &AtomicU64| n.swap(0, Ordering::Relaxed);
        let l = &self.ledger;
        Conservation {
            sent: take(&l.sent),
            delivered: take(&l.delivered),
            dropped: take(&l.dropped),
            duplicated: take(&l.duplicated),
            received: take(&l.received),
            leaked,
        }
    }
}

/// What one [`HandlerSession::epoch`] produced.
pub struct Epoch<J, R, W> {
    /// The job, handed back to the caller.
    pub job: J,
    /// Rank 0's result.
    pub root: R,
    /// The result of ranks `1..n`, in rank order.
    pub workers: Vec<W>,
    /// The epoch's message ledger (see [`Cluster::run_checked`]).
    pub conservation: Conservation,
}

/// A rank program in handler form, run by a [`HandlerSession`]: instead of
/// blocking in [`Rank::recv`], it names the receive it waits on and is
/// handed the matching message once one is queued.
pub trait Handler<J>: Send + Sized {
    /// What the rank reports at the end of an epoch.
    type Out;

    /// Runs the rank's program from the start of an epoch up to its first
    /// receive.
    fn start(rank: &mut Rank, job: &J) -> Self;

    /// The receive the program waits on, or `None` once it has ended for
    /// the epoch.
    fn waits_on(&self) -> Option<Want>;

    /// Runs the program from the receive of `msg` — the match of
    /// [`Handler::waits_on`], already completed on `rank` — up to its next
    /// receive.
    fn on_msg(&mut self, rank: &mut Rank, job: &J, msg: Msg);

    /// The rank's result, once its program has ended.
    fn finish(self, rank: &mut Rank, job: &J) -> Self::Out;
}

/// A live simulated cluster whose ranks `1..n` are [`Handler`]s run on the
/// caller's thread by rank 0's blocking receives. Opened by
/// [`Cluster::handler_session`]; every [`HandlerSession::epoch`] starts
/// from the state a freshly spawned cluster has.
pub struct HandlerSession<J, H> {
    shared: Arc<Shared>,
    /// Ranks `1..n`, in rank order.
    ranks: Vec<Rank<'static>>,
    _handlers: PhantomData<fn(&J) -> H>,
}

impl<J: Sync, H: Handler<J>> HandlerSession<J, H> {
    /// Runs one epoch: rank 0 runs `root` on the calling thread, and each
    /// rank `1..n` runs a fresh `H` on `job` whenever `root` waits for
    /// mail it does not have. After `root` returns, the ready handlers run
    /// until none is left.
    ///
    /// Every rank starts the epoch as [`Cluster::run`] would start it:
    /// clock 0, zeroed [`crate::RankStats`] (so message sequence numbers,
    /// network jitter, fault fates and perturbed matching replay), and the
    /// [`FaultPlan`]'s crash point and one-shot stall re-armed. The
    /// returned [`Conservation`] covers this epoch alone, and leftover mail
    /// and RMA windows do not reach the next epoch.
    ///
    /// # Panics
    /// Re-raises the first panic of any rank, with that rank's payload.
    /// Panics when a handler still waits at the end of the epoch, or when
    /// rank 0 waits and no handler is ready: the simulated program
    /// deadlocked.
    pub fn epoch<R>(
        &mut self,
        job: J,
        root: impl FnOnce(&mut Rank, &J) -> R,
    ) -> Epoch<J, R, H::Out> {
        let mut ready = Ready::<J, H> {
            job: &job,
            ranks: &mut self.ranks,
            handlers: Vec::new(),
            arrivals: Vec::new(),
            runs: 0,
        };
        ready.start();
        let mut out = None;
        if !self.shared.is_poisoned() {
            let mut rank0 = Rank::with_pump(0, Arc::clone(&self.shared), &mut ready);
            match panic::catch_unwind(AssertUnwindSafe(|| root(&mut rank0, &job))) {
                Ok(r) => out = Some(r),
                Err(payload) => self.shared.poison(0, payload),
            }
        }
        while ready.run_ready() {}
        if self.shared.is_poisoned() {
            self.shared.raise();
        }
        let workers = ready.finish();
        Epoch {
            job,
            root: out.expect("an epoch that was not poisoned ran its root"),
            workers,
            conservation: self.shared.close_epoch(),
        }
    }
}

/// The handler ranks of one [`HandlerSession`] epoch.
struct Ready<'e, J, H> {
    job: &'e J,
    ranks: &'e mut [Rank<'static>],
    handlers: Vec<H>,
    /// Per handler, the arrival time of its awaited message, if queued.
    arrivals: Vec<Option<f64>>,
    /// Handlers run so far: salts the perturbed pick.
    runs: u64,
}

impl<J: Sync, H: Handler<J>> Ready<'_, J, H> {
    /// Resets every rank and runs each program to its first receive, in
    /// rank order.
    fn start(&mut self) {
        for rank in self.ranks.iter_mut() {
            rank.reset();
        }
        for rank in self.ranks.iter_mut() {
            match panic::catch_unwind(AssertUnwindSafe(|| H::start(rank, self.job))) {
                Ok(h) => self.handlers.push(h),
                Err(payload) => return rank.shared.poison(rank.rank, payload),
            }
        }
    }

    /// Collects every handler's result once all programs have ended.
    fn finish(self) -> Vec<H::Out> {
        let job = self.job;
        self.handlers
            .into_iter()
            .zip(self.ranks.iter_mut())
            .map(|(h, rank)| {
                if let Some(w) = h.waits_on() {
                    panic!(
                        "rank {} still waits for src={:?} tag={:?} at the end of the epoch \
                         — simulated program deadlock",
                        rank.rank, w.src, w.tag
                    );
                }
                h.finish(rank, job)
            })
            .collect()
    }
}

impl<J: Sync, H: Handler<J>> Pump for Ready<'_, J, H> {
    fn run_ready(&mut self) -> bool {
        let Some(first) = self.ranks.first() else {
            return false;
        };
        if first.shared.is_poisoned() {
            return false;
        }
        let perturb = first.shared.cfg.sched;
        self.arrivals.clear();
        let (mut earliest, mut tied) = (f64::INFINITY, 0usize);
        for (h, rank) in self.handlers.iter().zip(self.ranks.iter()) {
            let at = h.waits_on().and_then(|w| rank.peek_arrival(w));
            if let Some(t) = at {
                if t < earliest {
                    (earliest, tied) = (t, 0);
                }
                if t == earliest {
                    tied += 1;
                }
            }
            self.arrivals.push(at);
        }
        if tied == 0 {
            return false;
        }
        let pick = perturb.pick(self.runs, tied);
        self.runs += 1;
        let i = self
            .arrivals
            .iter()
            .enumerate()
            .filter(|(_, &at)| at == Some(earliest))
            .nth(pick)
            .map(|(i, _)| i)
            .expect("the pick is one of the tied handlers");
        let (h, rank) = (&mut self.handlers[i], &mut self.ranks[i]);
        let want = h.waits_on().expect("a ready handler waits");
        let msg = rank.take(want).expect("a ready handler's mail is queued");
        let job = self.job;
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| h.on_msg(rank, job, msg))) {
            rank.shared.poison(rank.rank, payload);
        }
        true
    }
}

/// A simulated cluster: runs an SPMD closure on every rank, rank 0 on the
/// calling thread and each other rank on a thread of its own.
pub struct Cluster {
    cfg: SimConfig,
}

impl Cluster {
    /// Creates a cluster with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// The configuration this cluster runs with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs `f` on every rank and returns the per-rank results in rank
    /// order. A panic in any rank is re-raised with that rank's payload.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        self.run_checked(f).0
    }

    /// Like [`Cluster::run`], additionally closing out the message ledger:
    /// the returned [`Conservation`] report accounts for every posted send
    /// (received, dropped by the fault plan, or leaked — still sitting in a
    /// mailbox at shutdown, named by `(src, dst, tag)`).
    ///
    /// A leak is not automatically an error — a program that shuts down with
    /// sends in flight (or a crashed receiver's backlog) legitimately leaves
    /// mail behind. Fault-free protocol paths should assert
    /// [`Conservation::is_clean`].
    ///
    /// Rank 0 runs on the calling thread and sees its thread-local state (a
    /// rayon thread-count override, say); ranks `1..n` start without it, so
    /// a program that reads such state pins it on every rank itself.
    pub fn run_checked<R, F>(&self, f: F) -> (Vec<R>, Conservation)
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        let shared = Arc::new(Shared::new(self.cfg.clone(), false));
        let run = |r: usize| {
            let mut rank = Rank::new(r, Arc::clone(&shared));
            panic::catch_unwind(AssertUnwindSafe(|| f(&mut rank)))
                .map_err(|payload| shared.poison(r, payload))
                .ok()
        };
        let out: Vec<Option<R>> = std::thread::scope(|scope| {
            let run = &run;
            let ranks: Vec<_> = (1..self.cfg.n_ranks)
                .map(|r| {
                    std::thread::Builder::new()
                        .name(format!("simrank-{r}"))
                        .stack_size(RANK_STACK_BYTES)
                        .spawn_scoped(scope, move || run(r))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            let mut out = vec![run(0)];
            out.extend(
                ranks
                    .into_iter()
                    .map(|h| h.join().expect("a rank's panic is caught")),
            );
            out
        });
        if shared.is_poisoned() {
            shared.raise();
        }
        let out = out
            .into_iter()
            .map(|r| r.expect("a run that was not poisoned has every result"))
            .collect();
        (out, shared.close_epoch())
    }

    /// Opens a session whose ranks `1..n` are [`Handler`]s of type `H`,
    /// run on the caller's thread (see [`HandlerSession::epoch`]). The
    /// [`SimConfig`] is fixed for the session.
    pub fn handler_session<J: Sync, H: Handler<J>>(&self) -> HandlerSession<J, H> {
        let shared = Arc::new(Shared::new(self.cfg.clone(), true));
        HandlerSession {
            ranks: (1..self.cfg.n_ranks)
                .map(|r| Rank::new(r, Arc::clone(&shared)))
                .collect(),
            shared,
            _handlers: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::RankStats;
    use bytes::Bytes;

    fn panic_text(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>")
    }

    #[test]
    fn worker_panic_wakes_the_blocked_root_and_keeps_its_payload() {
        let out = panic::catch_unwind(|| {
            Cluster::new(SimConfig::new(3)).run(|rank| {
                if rank.rank() == 0 {
                    // rank 1 never sends: only the poisoned cluster wakes
                    // this receive before the watchdog
                    let _ = rank.recv(Some(1), None);
                }
                if rank.rank() == 1 {
                    panic!("rank 1 failed on purpose");
                }
            })
        });
        let payload = out.expect_err("the worker's panic reaches the caller");
        assert_eq!(panic_text(&*payload), "rank 1 failed on purpose");
    }

    #[test]
    fn root_panic_releases_workers_blocked_on_it() {
        let out = panic::catch_unwind(|| {
            Cluster::new(SimConfig::new(4)).run(|rank| {
                if rank.rank() == 0 {
                    panic!("rank 0 failed on purpose");
                }
                let _ = rank.recv(Some(0), None);
            })
        });
        let payload = out.expect_err("rank 0's panic reaches the caller");
        assert_eq!(panic_text(&*payload), "rank 0 failed on purpose");
    }

    const DATA: u64 = 1;
    const END: u64 = 2;
    const GO: u64 = 3;
    const LOST: u64 = 4;

    /// Rank 0 releases every worker, then drains each worker's stream in
    /// rank order up to its end marker; each worker sends twelve data
    /// messages of growing size between compute charges. With `leak`,
    /// rank 0 finally sends rank 1 a message nobody receives.
    fn chatter(rank: &mut Rank, leak: bool) -> (f64, RankStats) {
        let n = rank.size();
        if rank.rank() == 0 {
            for j in 1..n {
                rank.charge(500.0);
                rank.send_bytes(j, GO, Bytes::from_static(b"go"));
            }
            for j in 1..n {
                while rank.recv(Some(j), None).tag != END {
                    rank.charge(100.0);
                }
            }
            if leak {
                rank.send_bytes(1, LOST, Bytes::from_static(b"lost"));
            }
        } else {
            let _ = rank.recv(Some(0), Some(GO));
            stream(rank);
        }
        (rank.now(), rank.stats())
    }

    /// A worker's part of [`chatter`] after its GO.
    fn stream(rank: &mut Rank) {
        for i in 0..12 {
            rank.charge(1_000.0 * (1 + i % 3) as f64);
            rank.send_bytes(0, DATA, Bytes::from(vec![0u8; 16 * (i + 1)]));
        }
        rank.send_bytes(0, END, Bytes::new());
    }

    /// [`chatter`]'s worker as a handler.
    struct Chatter {
        waiting: bool,
    }

    impl Handler<bool> for Chatter {
        type Out = (f64, RankStats);

        fn start(_: &mut Rank, _: &bool) -> Self {
            Chatter { waiting: true }
        }

        fn waits_on(&self) -> Option<Want> {
            self.waiting.then_some(Want {
                src: Some(0),
                tag: Some(GO),
            })
        }

        fn on_msg(&mut self, rank: &mut Rank, _: &bool, _: Msg) {
            self.waiting = false;
            stream(rank);
        }

        fn finish(self, rank: &mut Rank, _: &bool) -> (f64, RankStats) {
            (rank.now(), rank.stats())
        }
    }

    /// Every fault kind on the data tag, a crash, a one-shot stall,
    /// network jitter and an active schedule perturbation.
    fn chaos_config() -> SimConfig {
        let plan = FaultPlan::new(17)
            .drop_msgs(None, None, Some(DATA), 0.2)
            .delay_msgs(None, None, Some(DATA), 0.2, 5e4)
            .duplicate_msgs(None, None, Some(DATA), 0.2)
            .crash(3, 8e3)
            .stall(1, 2e3, 7e4)
            .protect(&[END, GO]);
        let net = NetModel {
            jitter_frac: 0.3,
            ..NetModel::default()
        };
        SimConfig::new(4)
            .net(net)
            .fault(plan)
            .sched(SchedPerturb::seeded(0xABCD))
    }

    #[test]
    fn validator_handler_epochs_replay_the_threaded_cluster() {
        let cfg = chaos_config();
        let threaded = |leak| Cluster::new(cfg.clone()).run_checked(|rank| chatter(rank, leak));
        let (clean, clean_cons) = threaded(false);
        assert!(clean_cons.dropped > 0, "drops fired");
        assert!(clean_cons.duplicated > 0, "duplicates fired");
        assert!(clean[1].1.stall_ns > 0.0, "the stall fired");
        assert!(clean[3].1.msgs_dropped > 0, "the crash suppressed sends");
        clean_cons.assert_clean();
        let (leaky, leaky_cons) = threaded(true);
        let lost = LeakedMsg {
            src: 0,
            dst: 1,
            tag: LOST,
        };
        assert_eq!(leaky_cons.leaked, vec![lost]);
        let caller = std::thread::current().id();
        let mut s = Cluster::new(cfg).handler_session::<bool, Chatter>();
        for (k, leak) in [false, true, false, true].into_iter().enumerate() {
            let e = s.epoch(leak, |rank, &leak| {
                assert_eq!(std::thread::current().id(), caller);
                chatter(rank, leak)
            });
            let (want, want_cons) = if leak {
                (&leaky, &leaky_cons)
            } else {
                (&clean, &clean_cons)
            };
            let mut ranks = vec![e.root];
            ranks.extend(e.workers);
            assert_eq!(&ranks, want, "epoch {k}: clocks or RankStats moved");
            assert_eq!(&e.conservation, want_cons, "epoch {k}: ledger moved");
        }
    }

    #[test]
    fn mail_left_in_a_handler_mailbox_is_leaked() {
        let mut s = Cluster::new(SimConfig::new(3)).handler_session::<bool, Chatter>();
        let e = s.epoch(true, |rank, &leak| chatter(rank, leak));
        let lost = LeakedMsg {
            src: 0,
            dst: 1,
            tag: LOST,
        };
        assert_eq!(e.conservation.leaked, vec![lost]);
        let e = s.epoch(false, |rank, &leak| chatter(rank, leak));
        e.conservation.assert_clean();
    }

    /// Panics on receipt of its first message at rank 1; ends at once on
    /// every other rank.
    struct Faulty;

    impl Handler<()> for Faulty {
        type Out = ();

        fn start(_: &mut Rank, _: &()) -> Self {
            Faulty
        }

        fn waits_on(&self) -> Option<Want> {
            Some(Want {
                src: Some(0),
                tag: None,
            })
        }

        fn on_msg(&mut self, rank: &mut Rank, _: &(), _: Msg) {
            panic!("handler {} failed on purpose", rank.rank());
        }

        fn finish(self, _: &mut Rank, _: &()) {}
    }

    #[test]
    fn handler_panic_reaches_the_caller_with_its_payload() {
        let out = panic::catch_unwind(|| {
            let mut s = Cluster::new(SimConfig::new(3)).handler_session::<(), Faulty>();
            s.epoch((), |rank, _| {
                rank.send_bytes(2, GO, Bytes::new());
                // rank 1 never sends: only its handler's panic ends this
                let _ = rank.recv(Some(1), None);
            });
        });
        let payload = out.expect_err("the handler's panic reaches the caller");
        assert_eq!(panic_text(&*payload), "handler 2 failed on purpose");
    }

    /// Ends its program at the start of every epoch.
    struct Idle;

    impl Handler<()> for Idle {
        type Out = ();

        fn start(_: &mut Rank, _: &()) -> Self {
            Idle
        }

        fn waits_on(&self) -> Option<Want> {
            None
        }

        fn on_msg(&mut self, _: &mut Rank, _: &(), _: Msg) {
            unreachable!("an idle handler waits on nothing")
        }

        fn finish(self, _: &mut Rank, _: &()) {}
    }

    #[test]
    fn a_root_waiting_on_mail_no_handler_can_send_panics_at_once() {
        let started = std::time::Instant::now();
        let out = panic::catch_unwind(|| {
            let mut s = Cluster::new(SimConfig::new(3)).handler_session::<(), Idle>();
            s.epoch((), |rank, _| {
                let _ = rank.recv(Some(1), Some(DATA));
            });
        });
        let payload = out.expect_err("the deadlock panics");
        assert!(
            panic_text(&*payload).contains("no handler rank is ready"),
            "{}",
            panic_text(&*payload)
        );
        // well inside the 120 s watchdog
        assert!(started.elapsed() < std::time::Duration::from_secs(60));
    }

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = Cluster::new(SimConfig::new(8)).run(|rank| rank.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn many_ranks_spawn_fine() {
        let out = Cluster::new(SimConfig::new(512)).run(|rank| rank.rank());
        assert_eq!(out.len(), 512);
        assert_eq!(out[511], 511);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        Cluster::new(SimConfig::new(4)).run(|rank| {
            if rank.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn clocks_start_at_zero() {
        let out = Cluster::new(SimConfig::new(3)).run(|rank| rank.now());
        assert!(out.iter().all(|&t| t == 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = SimConfig::new(0);
    }

    #[test]
    fn validator_conservation_clean_run_balances() {
        let (_, cons) = Cluster::new(SimConfig::new(3)).run_checked(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 7, bytes::Bytes::from_static(b"a"));
                rank.send_bytes(2, 8, bytes::Bytes::from_static(b"bb"));
            } else {
                let _ = rank.recv(Some(0), None);
            }
        });
        assert_eq!(cons.sent, 2);
        assert_eq!(cons.received, 2);
        assert_eq!(cons.dropped, 0);
        assert!(cons.leaked.is_empty());
        cons.assert_clean();
    }

    #[test]
    fn validator_conservation_reports_leak_triple() {
        // deliberately corrupted protocol: rank 1 never receives its mail
        let (_, cons) = Cluster::new(SimConfig::new(2)).run_checked(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 42, bytes::Bytes::from_static(b"lost"));
            }
        });
        assert!(!cons.is_clean());
        assert_eq!(
            cons.leaked,
            vec![LeakedMsg {
                src: 0,
                dst: 1,
                tag: 42
            }]
        );
    }

    #[test]
    #[should_panic(expected = "message conservation violated")]
    fn validator_conservation_assert_clean_panics_on_leak() {
        let (_, cons) = Cluster::new(SimConfig::new(2)).run_checked(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 9, bytes::Bytes::new());
            }
        });
        cons.assert_clean();
    }

    #[test]
    fn validator_conservation_accounts_fault_drops_as_clean() {
        use crate::fault::FaultPlan;
        // every data message dropped; receiver uses try_recv so it cannot
        // hang — drops are accounted, the run is still conservation-clean
        let plan = FaultPlan::new(1).drop_msgs(None, None, None, 1.0);
        let (_, cons) = Cluster::new(SimConfig::new(2).fault(plan)).run_checked(|rank| {
            if rank.rank() == 0 {
                for _ in 0..5 {
                    rank.send_bytes(1, 3, bytes::Bytes::from_static(b"x"));
                }
            } else {
                let _ = rank.try_recv(Some(0), Some(3));
            }
        });
        assert_eq!(cons.sent, 5);
        assert_eq!(cons.dropped, 5);
        assert_eq!(cons.delivered, 0);
        cons.assert_clean();
    }
}
