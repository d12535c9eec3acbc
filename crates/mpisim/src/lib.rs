//! # fastann-mpisim
//!
//! A **virtual-time message-passing cluster simulator**: the substrate that
//! stands in for the paper's Cray XC40 + Cray MPICH (substitution rationale
//! in the repository's DESIGN.md — this repo reproduces cluster-scale
//! behaviour on a single-core host).
//!
//! Each simulated MPI rank has its own **virtual clock** (nanoseconds,
//! `f64`). Clocks advance two ways:
//!
//! * **compute** — code charges modelled work explicitly, e.g.
//!   [`Rank::charge_dists`] charges `n` distance evaluations priced by the
//!   [`CostModel`]; this makes strong-scaling curves deterministic and
//!   independent of host load (essential on a 1-core machine);
//! * **communication** — messages carry timestamps through an α–β network
//!   model ([`NetModel`]): a message sent at sender-time `t` with `b` bytes
//!   arrives at `t + α(src,dst) + b·β`; a receive completes at
//!   `max(receiver clock, arrival)`, and the gap is recorded as
//!   communication wait time. `b` is the length the send declares
//!   ([`Rank::send_sized`]), which need not be the payload's.
//!
//! On top of the point-to-point layer sit MPI-style **collectives**
//! (barrier, broadcast, gather, all-gather, reductions, `Alltoallv`) over
//! sub-communicators ([`Comm`]), and **one-sided RMA windows**
//! ([`Window`]) with `MPI_Get_accumulate`-style atomic read-modify-write
//! at the origin's cost only — the primitive behind the paper's
//! "MPI one-sided communication" optimisation (Section IV-C1).
//!
//! ```
//! use fastann_mpisim::{Cluster, ReduceOp, SimConfig};
//!
//! let results = Cluster::new(SimConfig::new(4)).run(|rank| {
//!     let comm = rank.world();
//!     comm.allreduce_f64(rank, rank.rank() as f64, ReduceOp::Sum)
//! });
//! assert!(results.iter().all(|&s| s == 6.0));
//! ```
//!
//! [`Cluster::run`] is one SPMD launch, the form of the paper's VP-tree
//! build and `Alltoallv` shuffle: every rank is a blocking program, rank 0
//! on the caller's thread and ranks `1..n` on OS threads of their own, and
//! the run ends when all of them have returned. A [`HandlerSession`]
//! ([`Cluster::handler_session`]) is the long-lived form, the way the
//! paper's query engine is one MPI job serving a stream of batches: ranks
//! `1..n` are [`Handler`]s — programs cut at their receives, which rank 0
//! runs on its own thread whenever it would block, earliest virtual arrival
//! first — and no thread is spawned. Every [`HandlerSession::epoch`] starts
//! each rank from exactly what a fresh cluster gives it: clock 0, zeroed
//! [`RankStats`] (the message sequence numbers behind network jitter, fault
//! fates and perturbed matching restart), and the fault plan's crash point
//! and one-shot stall re-armed. Every epoch ends with its own
//! [`Conservation`] ledger, its leftover mail reported as leaked and
//! drained, and its RMA windows released. Both forms make the same
//! [`Rank`] calls in the same per-rank order, so every clock, statistic and
//! ledger entry is the same.

#![forbid(unsafe_code)]

mod cluster;
mod comm;
mod cost;
mod fault;
mod net;
mod rank;
mod rma;
mod trace;
mod vclock;
mod vthreads;
/// Little-endian wire encoding helpers shared by every protocol.
pub mod wire;

pub use cluster::{Cluster, Conservation, Epoch, Handler, HandlerSession, LeakedMsg, SimConfig};
pub use comm::{Comm, ReduceOp};
pub use cost::CostModel;
pub use fault::{Fate, FaultAction, FaultPlan};
pub use net::{NetModel, Topology};
pub use rank::{Msg, Rank, RankStats, Want};
pub use rma::Window;
pub use trace::{Span, SpanKind, Trace};
pub use vclock::{EventQueue, VClock};
pub use vthreads::{SchedPerturb, VThreadPool};
