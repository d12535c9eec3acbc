//! Cluster construction, sessions and rank-thread orchestration.
//!
//! A [`Session`] is one simulated cluster kept alive across many runs of
//! a program, the way the paper's MPI job outlives the query batches it
//! serves:
//!
//! 1. [`Cluster::session`] builds the shared state (mailboxes, ledger,
//!    window registry) from the [`SimConfig`], which stays fixed for the
//!    session, and hands a [`Session`] to the caller's body.
//! 2. The first [`Session::epoch`] publishes its job and then spawns one
//!    thread per rank `1..n`; they find the job waiting, so a one-epoch
//!    session has no start rendezvous. Later epochs wake the same
//!    threads. Rank 0 always runs on the caller's thread.
//! 3. At the start of every epoch each rank is reset to what a fresh
//!    cluster gives it: clock 0, zeroed [`crate::RankStats`] —
//!    `msgs_sent` is the sequence number behind network jitter and fault
//!    fates, `msgs_recv` salts perturbed matching — and the fault plan's
//!    crash point and one-shot stall re-armed.
//! 4. At the end of every epoch, once all ranks have returned, the ledger
//!    is closed into that epoch's [`Conservation`] and zeroed, leftover
//!    mail is reported as leaked and drained, and the window registry is
//!    cleared. An epoch therefore reports exactly what
//!    [`Cluster::run_checked`] — itself a one-epoch session — reports for
//!    the same program.
//! 5. When the body returns (or unwinds), the session closes and the rank
//!    threads are joined.
//!
//! A panic on any rank poisons the session: every blocked receive and
//! the epoch rendezvous give up at once, and the caller re-raises the
//! panicking rank's own payload.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::net::{NetModel, Topology};
use crate::rank::{Mailbox, Rank};
use crate::vthreads::SchedPerturb;

/// Stack size per rank thread. Simulated programs keep their data in
/// shared structures, so a modest stack suffices even for thousands of
/// ranks.
const RANK_STACK_BYTES: usize = 1 << 20;

/// Configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of simulated MPI ranks (each is an OS thread).
    pub n_ranks: usize,
    /// Rank → compute-node mapping (drives intra- vs inter-node costs).
    pub topology: Topology,
    /// α–β network model.
    pub net: NetModel,
    /// Compute cost model for [`Rank::charge_dists`].
    pub cost: CostModel,
    /// Watchdog: a blocking receive that waits longer than this (real time)
    /// panics, turning simulated deadlocks into test failures.
    pub recv_timeout: Duration,
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
            recv_timeout: Duration::from_secs(120),
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
    /// Logical sends posted (`send_bytes` / `send_bytes_at` calls).
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

/// State shared by all rank threads of one session.
pub(crate) struct Shared {
    pub(crate) cfg: SimConfig,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) ledger: Ledger,
    registry: Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    next_key: AtomicU64,
    /// Set once a rank's program panics: blocked receives and the epoch
    /// rendezvous give up instead of waiting on a peer that never answers.
    poisoned: AtomicBool,
    /// The first panic of the session — the one the caller re-raises.
    panic: Mutex<Option<RankPanic>>,
}

impl Shared {
    fn new(cfg: SimConfig) -> Self {
        Self {
            mailboxes: (0..cfg.n_ranks).map(|_| Mailbox::default()).collect(),
            cfg,
            ledger: Ledger::default(),
            registry: Mutex::new(HashMap::new()),
            next_key: AtomicU64::new(1),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    pub(crate) fn registry_put(&self, value: Box<dyn Any + Send + Sync>) -> u64 {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        self.registry.lock().insert(key, Arc::from(value));
        key
    }

    pub(crate) fn registry_get(&self, key: u64) -> Arc<dyn Any + Send + Sync> {
        self.registry
            .lock()
            .get(&key)
            .cloned()
            .unwrap_or_else(|| panic!("registry key {key} not found"))
    }

    /// `true` once a rank of this session has panicked.
    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Records `rank`'s panic (the first one wins) and wakes every
    /// blocked receive. Each mailbox lock is taken before its notify, so a
    /// receiver that saw the flag clear is already waiting when woken.
    fn poison(&self, rank: usize, payload: Box<dyn Any + Send>) {
        self.panic.lock().get_or_insert((rank, payload));
        // pairs with the Acquire load in `is_poisoned`: a rank that sees
        // the flag also sees the recorded panic
        self.poisoned.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            drop(mb.queue.lock());
            mb.cv.notify_all();
        }
    }

    /// Ends an epoch once every rank has returned: closes the ledger into
    /// a [`Conservation`] and zeroes it, drains leftover mail as leaked,
    /// and clears the window registry.
    fn close_epoch(&self) -> Conservation {
        let mut leaked = Vec::new();
        for (dst, mb) in self.mailboxes.iter().enumerate() {
            leaked.extend(mb.queue.lock().drain(..).map(|m| LeakedMsg {
                src: m.src,
                dst,
                tag: m.tag,
            }));
        }
        self.registry.lock().clear();
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

/// The epoch rendezvous between the caller (rank 0) and ranks 1..n.
/// Waiters test their condition under `state`; every change to it is
/// made under `state` and notified after the lock is released, so a
/// woken thread does not block again on the notifier's lock.
struct Control<J, W> {
    state: Mutex<EpochState<J, W>>,
    /// Wakes the workers: an epoch was published or the session ended.
    start: Condvar,
    /// Wakes the caller: the last worker finished the epoch.
    done: Condvar,
}

struct EpochState<J, W> {
    /// Number of the latest published epoch (0 before the first).
    epoch: u64,
    job: Option<Arc<J>>,
    /// Rank `r`'s result of the current epoch sits at `r - 1`.
    results: Vec<Option<W>>,
    finished: usize,
    closed: bool,
}

impl<J, W> Control<J, W> {
    /// Poisons the session on `rank`'s panic and wakes both rendezvous
    /// sides.
    fn poison(&self, shared: &Shared, rank: usize, payload: Box<dyn Any + Send>) {
        shared.poison(rank, payload);
        drop(self.state.lock());
        self.start.notify_all();
        self.done.notify_all();
    }
}

/// One rank's loop: wait for an epoch, reset, run `program`, report.
fn worker_loop<J, W>(
    mut rank: Rank,
    ctl: &Control<J, W>,
    program: &(dyn Fn(&mut Rank, &J) -> W + Sync),
) {
    let r = rank.rank();
    let mut seen = 0;
    loop {
        let job = {
            let mut st = ctl.state.lock();
            while st.epoch == seen && !st.closed && !rank.shared.is_poisoned() {
                ctl.start.wait(&mut st);
            }
            if st.closed || rank.shared.is_poisoned() {
                return;
            }
            seen = st.epoch;
            Arc::clone(st.job.as_ref().expect("a published epoch carries its job"))
        };
        rank.reset();
        match panic::catch_unwind(AssertUnwindSafe(|| program(&mut rank, &job))) {
            Ok(out) => {
                let last = {
                    let mut st = ctl.state.lock();
                    st.results[r - 1] = Some(out);
                    st.finished += 1;
                    st.finished == st.results.len()
                };
                if last {
                    ctl.done.notify_one();
                }
            }
            Err(payload) => {
                ctl.poison(&rank.shared, r, payload);
                return;
            }
        }
    }
}

/// What one [`Session::epoch`] produced.
pub struct Epoch<R, W> {
    /// Rank 0's result.
    pub root: R,
    /// The result of ranks `1..n`, in rank order.
    pub workers: Vec<W>,
    /// The epoch's message ledger (see [`Cluster::run_checked`]).
    pub conservation: Conservation,
}

/// A live simulated cluster: ranks `1..n` run on their own threads for
/// the whole session, rank 0 runs on the caller's. Opened by
/// [`Cluster::session`]; every [`Session::epoch`] starts from the state a
/// freshly spawned cluster has.
pub struct Session<'s, J, W> {
    shared: Arc<Shared>,
    ctl: Arc<Control<J, W>>,
    root: Rank,
    /// Spawns ranks `1..n`; taken by the first epoch, whose job the ranks
    /// find already published.
    spawn: Option<Box<dyn FnOnce() + 's>>,
}

impl<J, W> Session<'_, J, W> {
    /// Runs one epoch: ranks `1..n` run the session's worker program on
    /// `job` while rank 0 runs `root` on the calling thread.
    ///
    /// Every rank starts the epoch as [`Cluster::run`] would start it:
    /// clock 0, zeroed [`crate::RankStats`] (so message sequence numbers,
    /// network jitter, fault fates and perturbed matching replay), and the
    /// [`FaultPlan`]'s crash point and one-shot stall re-armed. The epoch
    /// ends once every rank has returned; the returned [`Conservation`]
    /// covers this epoch alone, and leftover mail and RMA windows do not
    /// reach the next one.
    ///
    /// # Panics
    /// Re-raises the first panic of any rank, with that rank's payload.
    pub fn epoch<R>(&mut self, job: J, root: impl FnOnce(&mut Rank, &J) -> R) -> Epoch<R, W> {
        let job = Arc::new(job);
        {
            let mut st = self.ctl.state.lock();
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
            st.finished = 0;
        }
        self.ctl.start.notify_all();
        if let Some(spawn) = self.spawn.take() {
            spawn();
        }
        self.root.reset();
        let root = match panic::catch_unwind(AssertUnwindSafe(|| root(&mut self.root, &job))) {
            Ok(r) => r,
            Err(payload) => {
                self.ctl.poison(&self.shared, 0, payload);
                self.raise()
            }
        };
        let workers = {
            let mut st = self.ctl.state.lock();
            while st.finished < st.results.len() && !self.shared.is_poisoned() {
                self.ctl.done.wait(&mut st);
            }
            if self.shared.is_poisoned() {
                drop(st);
                self.raise();
            }
            st.job = None;
            st.results
                .iter_mut()
                .map(|r| r.take().expect("every rank reported"))
                .collect()
        };
        Epoch {
            root,
            workers,
            conservation: self.shared.close_epoch(),
        }
    }

    /// Re-raises the session's first panic.
    fn raise(&self) -> ! {
        let (rank, payload) = self
            .shared
            .panic
            .lock()
            .take()
            .expect("a poisoned session holds its panic");
        eprintln!("simulated rank {rank} panicked");
        panic::resume_unwind(payload)
    }
}

impl<J, W> Drop for Session<'_, J, W> {
    /// Ends the session — also when the caller unwinds between epochs —
    /// so the ranks' threads exit and the scope can join them.
    fn drop(&mut self) {
        self.ctl.state.lock().closed = true;
        self.ctl.start.notify_all();
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
    /// This is a session of one epoch.
    pub fn run_checked<R, F>(&self, f: F) -> (Vec<R>, Conservation)
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        self.session(
            |rank, _: &()| f(rank),
            |mut s| {
                let e = s.epoch((), |rank, _| f(rank));
                let mut out = Vec::with_capacity(e.workers.len() + 1);
                out.push(e.root);
                out.extend(e.workers);
                (out, e.conservation)
            },
        )
    }

    /// Opens a session and hands it to `body`: ranks `1..n` are spawned
    /// once (at the first epoch) and run `worker` on every epoch's job
    /// until `body` returns; rank 0 runs on the calling thread, inside
    /// [`Session::epoch`]. The [`SimConfig`] is fixed for the session.
    ///
    /// Rank 0 sees the calling thread's thread-local state (a rayon
    /// thread-count override, say) and spawned ranks start without it; a
    /// program that reads such state pins it on every rank itself.
    ///
    /// A rank that panics poisons the session: blocked receives on every
    /// rank give up at once, and the caller re-raises the first panic's
    /// payload.
    pub fn session<J, W, T>(
        &self,
        worker: impl Fn(&mut Rank, &J) -> W + Sync,
        body: impl for<'s> FnOnce(Session<'s, J, W>) -> T,
    ) -> T
    where
        J: Send + Sync,
        W: Send,
    {
        let n = self.cfg.n_ranks;
        let shared = Arc::new(Shared::new(self.cfg.clone()));
        let ctl = Arc::new(Control {
            state: Mutex::new(EpochState {
                epoch: 0,
                job: None,
                results: (1..n).map(|_| None).collect(),
                finished: 0,
                closed: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        std::thread::scope(|scope| {
            let worker: &(dyn Fn(&mut Rank, &J) -> W + Sync) = &worker;
            let spawn = {
                let (shared, ctl) = (Arc::clone(&shared), Arc::clone(&ctl));
                move || {
                    for r in 1..n {
                        let rank = Rank::new(r, Arc::clone(&shared));
                        let ctl = Arc::clone(&ctl);
                        std::thread::Builder::new()
                            .name(format!("simrank-{r}"))
                            .stack_size(RANK_STACK_BYTES)
                            .spawn_scoped(scope, move || worker_loop(rank, &ctl, worker))
                            .expect("failed to spawn rank thread");
                    }
                }
            };
            body(Session {
                root: Rank::new(0, Arc::clone(&shared)),
                shared,
                ctl,
                spawn: Some(Box::new(spawn)),
            })
        })
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

    /// A 600 s watchdog: a test that relies on it instead of on poisoning
    /// hangs visibly.
    fn patient(n_ranks: usize) -> SimConfig {
        let mut cfg = SimConfig::new(n_ranks);
        cfg.recv_timeout = Duration::from_secs(600);
        cfg
    }

    #[test]
    fn worker_panic_wakes_the_blocked_root_and_keeps_its_payload() {
        let out = panic::catch_unwind(|| {
            Cluster::new(patient(3)).run(|rank| {
                if rank.rank() == 0 {
                    // rank 1 never sends: only the poisoned session wakes
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
            Cluster::new(patient(4)).run(|rank| {
                if rank.rank() == 0 {
                    panic!("rank 0 failed on purpose");
                }
                let _ = rank.recv(Some(0), None);
            })
        });
        let payload = out.expect_err("rank 0's panic reaches the caller");
        assert_eq!(panic_text(&*payload), "rank 0 failed on purpose");
    }

    #[test]
    fn caller_panic_between_epochs_closes_the_session() {
        let out = panic::catch_unwind(|| {
            let _: () = Cluster::new(patient(3)).session(
                |rank, _: &()| rank.rank(),
                |mut s| {
                    let e = s.epoch((), |rank, _| rank.rank());
                    assert_eq!(e.workers, vec![1, 2]);
                    // the workers now wait for the next epoch
                    panic::panic_any("caller failed between epochs")
                },
            );
        });
        let payload = out.expect_err("the caller's panic propagates");
        assert_eq!(panic_text(&*payload), "caller failed between epochs");
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
            for i in 0..12 {
                rank.charge(1_000.0 * (1 + i % 3) as f64);
                rank.send_bytes(0, DATA, Bytes::from(vec![0u8; 16 * (i + 1)]));
            }
            rank.send_bytes(0, END, Bytes::new());
        }
        (rank.now(), rank.stats())
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
    fn validator_every_epoch_replays_a_fresh_cluster() {
        let cfg = chaos_config();
        let fresh = |leak| Cluster::new(cfg.clone()).run_checked(|rank| chatter(rank, leak));
        let (clean, clean_cons) = fresh(false);
        assert!(clean_cons.dropped > 0, "drops fired");
        assert!(clean_cons.duplicated > 0, "duplicates fired");
        assert!(clean[1].1.stall_ns > 0.0, "the stall fired");
        assert!(clean[3].1.msgs_dropped > 0, "the crash suppressed sends");
        clean_cons.assert_clean();
        let (leaky, leaky_cons) = fresh(true);
        let lost = LeakedMsg {
            src: 0,
            dst: 1,
            tag: LOST,
        };
        assert_eq!(leaky_cons.leaked, vec![lost]);
        Cluster::new(cfg).session(
            |rank, &leak: &bool| chatter(rank, leak),
            |mut s| {
                // a leaking epoch reports its own leak; the next one must
                // be clean again
                for (k, leak) in [false, true, false, false, true, false]
                    .into_iter()
                    .enumerate()
                {
                    let e = s.epoch(leak, |rank, &leak| chatter(rank, leak));
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
            },
        );
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
