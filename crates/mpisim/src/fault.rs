//! Seeded fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] describes which messages misbehave (drop / delay /
//! duplicate, scoped by source, destination and tag) and which ranks fail
//! (crash at a virtual-time point, or stall once for a fixed duration).
//! The plan is **pure data + a seed**: every per-message decision is a
//! deterministic hash of `(seed, src, dst, tag, seq, rule)`, where `seq`
//! is the sender's message counter. Two runs of the same simulated program
//! under the same plan therefore inject *exactly* the same faults at the
//! same virtual times — chaos tests are reproducible bit-for-bit, and a
//! failing seed is a complete bug report.
//!
//! Scope of injection:
//!
//! * **Collective traffic is never faulted.** Collectives (tag bit 63 set)
//!   are the simulator's coordination substrate; faulting them would
//!   deadlock the harness rather than the program under test.
//! * **Protected tags are never faulted** ([`FaultPlan::protect`]). A
//!   fault-tolerant protocol registers its control-plane tags (completion
//!   markers, flush/ack) so faults hit the data plane only. This models a
//!   perfect failure detector — the standard oracle assumed by recovery
//!   protocols (cf. ULFM's failure notification in real MPI).
//! * **Crashes are fail-stop for the data plane**: every unprotected send
//!   posted by a crashed rank is suppressed. The rank's thread keeps
//!   running (virtual time must stay coordinated), but
//!   [`crate::Rank::is_crashed`] lets simulated code stop doing work, and
//!   nothing it "sends" is observable by peers.
//!
//! The default plan ([`FaultPlan::none`]) is vacuous: the send path checks
//! one boolean and takes the exact pre-fault code path, so fault support
//! costs nothing when unused.

use crate::rank::COLL_FLAG;

/// What a matching fault rule does to a message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// The message is never delivered.
    Drop,
    /// Delivery is delayed by this many virtual nanoseconds.
    Delay(f64),
    /// The message is delivered twice (same arrival time).
    Duplicate,
}

/// One message-fault rule: scope (wildcards via `None`) + probability +
/// action. First matching rule wins.
#[derive(Clone, Debug, PartialEq)]
struct FaultRule {
    src: Option<usize>,
    dst: Option<usize>,
    tag: Option<u64>,
    prob: f64,
    action: FaultAction,
}

impl FaultRule {
    fn matches(&self, src: usize, dst: usize, tag: u64) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.tag.is_none_or(|t| t == tag)
    }
}

/// The fate the plan assigns to one posted message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fate {
    /// Delivered normally.
    Deliver,
    /// Silently lost.
    Drop,
    /// Delivered `extra` virtual ns late.
    Delay(f64),
    /// Delivered twice.
    Duplicate,
}

/// A deterministic, seeded schedule of message and rank faults.
///
/// Build with [`FaultPlan::new`] + the builder methods; pass to
/// [`crate::SimConfig::fault`]. [`FaultPlan::none`] (also `Default`)
/// injects nothing and costs nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    crashes: Vec<(usize, f64)>,
    stalls: Vec<(usize, f64, f64)>,
    protected: Vec<u64>,
}

impl FaultPlan {
    /// The vacuous plan: no faults, zero overhead.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan whose per-message coin flips derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Drops messages matching `(src, dst, tag)` (wildcards via `None`)
    /// with probability `prob` (builder style).
    pub fn drop_msgs(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag: Option<u64>,
        prob: f64,
    ) -> Self {
        self.push_rule(src, dst, tag, prob, FaultAction::Drop);
        self
    }

    /// Delays matching messages by `extra_ns` with probability `prob`
    /// (builder style).
    pub fn delay_msgs(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag: Option<u64>,
        prob: f64,
        extra_ns: f64,
    ) -> Self {
        assert!(extra_ns >= 0.0, "negative delay");
        self.push_rule(src, dst, tag, prob, FaultAction::Delay(extra_ns));
        self
    }

    /// Duplicates matching messages with probability `prob` (builder
    /// style).
    pub fn duplicate_msgs(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag: Option<u64>,
        prob: f64,
    ) -> Self {
        self.push_rule(src, dst, tag, prob, FaultAction::Duplicate);
        self
    }

    fn push_rule(
        &mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag: Option<u64>,
        prob: f64,
        action: FaultAction,
    ) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "probability out of range: {prob}"
        );
        self.rules.push(FaultRule {
            src,
            dst,
            tag,
            prob,
            action,
        });
    }

    /// Fail-stops `rank`'s data plane from virtual time `at_ns` on
    /// (builder style): unprotected sends posted at or after `at_ns` are
    /// suppressed and [`crate::Rank::is_crashed`] turns true.
    pub fn crash(mut self, rank: usize, at_ns: f64) -> Self {
        assert!(at_ns >= 0.0, "crash time before simulation start");
        self.crashes.push((rank, at_ns));
        self
    }

    /// Stalls `rank` once: the first time its clock reaches `at_ns` it
    /// jumps forward by `dur_ns` (builder style) — a GC pause / OS jitter
    /// stand-in.
    pub fn stall(mut self, rank: usize, at_ns: f64, dur_ns: f64) -> Self {
        assert!(at_ns >= 0.0 && dur_ns >= 0.0, "negative stall parameters");
        self.stalls.push((rank, at_ns, dur_ns));
        self
    }

    /// Marks `tags` as control-plane traffic exempt from all injection,
    /// including crash suppression (builder style).
    pub fn protect(mut self, tags: &[u64]) -> Self {
        self.protected.extend_from_slice(tags);
        self
    }

    /// `true` when the plan injects nothing (the fast-path check in the
    /// send layer).
    #[inline]
    pub fn is_vacuous(&self) -> bool {
        self.rules.is_empty() && self.crashes.is_empty() && self.stalls.is_empty()
    }

    /// Virtual crash time of `rank`, if the plan crashes it.
    pub fn crashed_at(&self, rank: usize) -> Option<f64> {
        self.crashes
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, t)| t)
            .min_by(f64::total_cmp)
    }

    /// One-shot stall of `rank`, if any: `(at_ns, dur_ns)`.
    pub fn stall_of(&self, rank: usize) -> Option<(f64, f64)> {
        self.stalls
            .iter()
            .find(|&&(r, _, _)| r == rank)
            .map(|&(_, at, dur)| (at, dur))
    }

    fn is_exempt(&self, tag: u64) -> bool {
        tag & COLL_FLAG != 0 || self.protected.contains(&tag)
    }

    /// `true` when a send posted by `src` at virtual time `at_ns` with
    /// `tag` must be suppressed because `src` has crashed.
    pub fn send_suppressed(&self, src: usize, at_ns: f64, tag: u64) -> bool {
        if self.is_exempt(tag) {
            return false;
        }
        self.crashed_at(src).is_some_and(|t| at_ns >= t)
    }

    /// The fate of message number `seq` from `src` to `dst` with `tag` —
    /// a pure function of the plan, so replays are exact.
    pub fn fate(&self, src: usize, dst: usize, tag: u64, seq: u64) -> Fate {
        if self.is_exempt(tag) {
            return Fate::Deliver;
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.matches(src, dst, tag) && self.roll(src, dst, tag, seq, i) < rule.prob {
                return match rule.action {
                    FaultAction::Drop => Fate::Drop,
                    FaultAction::Delay(ns) => Fate::Delay(ns),
                    FaultAction::Duplicate => Fate::Duplicate,
                };
            }
        }
        Fate::Deliver
    }

    /// Deterministic uniform draw in `[0, 1)` for one (message, rule)
    /// pair.
    fn roll(&self, src: usize, dst: usize, tag: u64, seq: u64, rule: usize) -> f64 {
        let mut z = self.seed;
        for v in [src as u64, dst as u64, tag, seq, rule as u64] {
            z = (z ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
        }
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, SimConfig};
    use crate::comm::ReduceOp;
    use bytes::Bytes;

    #[test]
    fn vacuous_plan_is_vacuous() {
        assert!(FaultPlan::none().is_vacuous());
        assert!(FaultPlan::new(7).is_vacuous());
        assert!(!FaultPlan::new(7)
            .drop_msgs(None, None, None, 0.5)
            .is_vacuous());
        assert!(!FaultPlan::new(7).crash(0, 0.0).is_vacuous());
        assert!(!FaultPlan::new(7).stall(0, 0.0, 1.0).is_vacuous());
    }

    #[test]
    fn fate_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1).drop_msgs(None, None, None, 0.5);
        let b = FaultPlan::new(1).drop_msgs(None, None, None, 0.5);
        let c = FaultPlan::new(2).drop_msgs(None, None, None, 0.5);
        let mut diverged = false;
        for seq in 0..256 {
            assert_eq!(a.fate(0, 1, 9, seq), b.fate(0, 1, 9, seq));
            diverged |= a.fate(0, 1, 9, seq) != c.fate(0, 1, 9, seq);
        }
        assert!(diverged, "different seeds should produce different fates");
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let p = FaultPlan::new(42).drop_msgs(None, None, None, 0.3);
        let dropped = (0..10_000)
            .filter(|&seq| p.fate(0, 1, 5, seq) == Fate::Drop)
            .count();
        assert!(
            (2_500..3_500).contains(&dropped),
            "30% drop rule dropped {dropped}/10000"
        );
    }

    #[test]
    fn rule_scoping_matches_src_dst_tag() {
        let p = FaultPlan::new(3).drop_msgs(Some(1), Some(2), Some(7), 1.0);
        assert_eq!(p.fate(1, 2, 7, 0), Fate::Drop);
        assert_eq!(p.fate(0, 2, 7, 0), Fate::Deliver);
        assert_eq!(p.fate(1, 3, 7, 0), Fate::Deliver);
        assert_eq!(p.fate(1, 2, 8, 0), Fate::Deliver);
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = FaultPlan::new(4)
            .drop_msgs(None, None, Some(1), 1.0)
            .delay_msgs(None, None, None, 1.0, 50.0);
        assert_eq!(p.fate(0, 1, 1, 0), Fate::Drop);
        assert_eq!(p.fate(0, 1, 2, 0), Fate::Delay(50.0));
    }

    #[test]
    fn protected_and_collective_tags_are_exempt() {
        let p = FaultPlan::new(5)
            .drop_msgs(None, None, None, 1.0)
            .protect(&[204]);
        assert_eq!(p.fate(0, 1, 204, 0), Fate::Deliver, "protected tag");
        assert_eq!(
            p.fate(0, 1, COLL_FLAG | 3, 0),
            Fate::Deliver,
            "collective tag"
        );
        assert_eq!(p.fate(0, 1, 5, 0), Fate::Drop, "plain tag still faulted");
    }

    #[test]
    fn crash_suppresses_unprotected_sends_only() {
        let p = FaultPlan::new(5).crash(3, 100.0).protect(&[77]);
        assert!(!p.send_suppressed(3, 99.9, 1));
        assert!(p.send_suppressed(3, 100.0, 1));
        assert!(
            !p.send_suppressed(3, 100.0, 77),
            "protected tag survives crash"
        );
        assert!(!p.send_suppressed(2, 100.0, 1), "other ranks unaffected");
        assert_eq!(p.crashed_at(3), Some(100.0));
        assert_eq!(p.crashed_at(2), None);
    }

    #[test]
    fn collectives_complete_under_total_message_loss() {
        // Even a drop-everything plan must not touch collective traffic:
        // the allreduce still completes and computes the right value.
        let plan = FaultPlan::new(6).drop_msgs(None, None, None, 1.0);
        let sums = Cluster::new(SimConfig::new(4).fault(plan)).run(|rank| {
            rank.world()
                .allreduce_f64(rank, rank.rank() as f64, ReduceOp::Sum)
        });
        assert!(sums.iter().all(|&s| s == 6.0));
    }

    #[test]
    fn dropped_p2p_message_never_arrives() {
        let plan = FaultPlan::new(7).drop_msgs(Some(0), Some(1), Some(9), 1.0);
        Cluster::new(SimConfig::new(2).fault(plan)).run(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 9, Bytes::from_static(b"lost"));
                rank.send_bytes(1, 10, Bytes::from_static(b"kept"));
            } else {
                let m = rank.recv(Some(0), None);
                assert_eq!(m.tag, 10, "dropped message must not be delivered");
            }
        });
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let plan = FaultPlan::new(8).duplicate_msgs(Some(0), Some(1), Some(3), 1.0);
        Cluster::new(SimConfig::new(2).fault(plan)).run(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, 3, Bytes::from_static(b"x"));
            } else {
                let a = rank.recv(Some(0), Some(3));
                let b = rank.recv(Some(0), Some(3));
                assert_eq!(&a.payload[..], b"x");
                assert_eq!(&b.payload[..], b"x");
            }
        });
    }

    #[test]
    fn delayed_message_arrives_late() {
        let base = Cluster::new(SimConfig::new(2)).run(pingpong);
        let plan = FaultPlan::new(9).delay_msgs(Some(0), Some(1), None, 1.0, 5_000.0);
        let delayed = Cluster::new(SimConfig::new(2).fault(plan)).run(pingpong);
        assert!(
            (delayed[1] - base[1] - 5_000.0).abs() < 1e-6,
            "receiver clock should shift by exactly the injected delay: {} vs {}",
            delayed[1],
            base[1]
        );

        fn pingpong(rank: &mut crate::Rank) -> f64 {
            if rank.rank() == 0 {
                rank.send_bytes(1, 1, Bytes::from_static(b"m"));
                0.0
            } else {
                let _ = rank.recv(Some(0), Some(1));
                rank.now()
            }
        }
    }

    #[test]
    fn crashed_rank_flag_and_send_suppression() {
        let plan = FaultPlan::new(10).crash(0, 500.0);
        Cluster::new(SimConfig::new(2).fault(plan)).run(|rank| {
            if rank.rank() == 0 {
                assert!(!rank.is_crashed());
                rank.send_bytes(1, 1, Bytes::from_static(b"pre"));
                rank.charge(1_000.0);
                assert!(rank.is_crashed());
                rank.send_bytes(1, 2, Bytes::from_static(b"post")); // suppressed
                assert_eq!(rank.stats().msgs_dropped, 1);
            } else {
                let m = rank.recv(Some(0), None);
                assert_eq!(m.tag, 1);
                assert!(rank.try_recv(Some(0), None).is_none());
            }
        });
    }

    #[test]
    fn stall_fires_once_at_threshold() {
        let plan = FaultPlan::new(11).stall(0, 1_000.0, 9_000.0);
        let out = Cluster::new(SimConfig::new(1).fault(plan)).run(|rank| {
            rank.charge(500.0);
            assert_eq!(rank.now(), 500.0, "stall must not fire early");
            rank.charge(600.0); // crosses 1000 -> +9000
            let after_first = rank.now();
            rank.charge(100.0); // must not fire again
            (after_first, rank.now(), rank.stats().stall_ns)
        });
        assert_eq!(out[0].0, 10_100.0);
        assert_eq!(out[0].1, 10_200.0);
        assert_eq!(out[0].2, 9_000.0);
    }

    #[test]
    fn vacuous_plan_changes_nothing() {
        let run = |cfg: SimConfig| {
            Cluster::new(cfg).run(|rank| {
                if rank.rank() == 0 {
                    rank.charge(123.0);
                    rank.send_bytes(1, 1, Bytes::from_static(b"abc"));
                    rank.now()
                } else {
                    let _ = rank.recv(Some(0), Some(1));
                    rank.now()
                }
            })
        };
        let base = run(SimConfig::new(2));
        let with_none = run(SimConfig::new(2).fault(FaultPlan::none()));
        assert_eq!(base, with_none);
    }

    #[test]
    #[should_panic]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::new(0).drop_msgs(None, None, None, 1.5);
    }
}
