//! Sub-communicators and MPI-style collectives.
//!
//! A [`Comm`] names an ordered group of global ranks. Collectives are
//! implemented over the point-to-point layer so their virtual-time costs
//! emerge from the network model: broadcast uses a binomial tree
//! (`O(log P)` rounds), gather is rooted and linear (the root pays a
//! receive overhead per member — exactly the master-side bottleneck the
//! paper's one-sided optimisation removes), and `alltoallv` exchanges
//! `P-1` point-to-point messages per member as in the paper's data shuffle.
//!
//! **SPMD discipline:** every member of a communicator must call the same
//! collectives in the same order (the usual MPI contract). Tags used by
//! collectives have bit 63 set; user point-to-point tags must stay below
//! `1 << 63`.
//!
//! **Handler-side forms.** A [`crate::Handler`] rank cannot block, so the
//! collectives it takes part in come split at their receive:
//! [`Comm::barrier_enter`], and [`Comm::bcast_enter`] with
//! [`Comm::bcast_relay`]. Each half posts exactly the sends of the
//! blocking form, in the same order, and the blocking forms are built
//! from them.
//!
//! **Fault injection:** collective traffic is exempt from the cluster's
//! [`crate::FaultPlan`] — the bit-63 flag doubles as the exemption marker
//! in [`crate::FaultPlan::fate`]. Collectives are the simulator's
//! coordination substrate; a faulted barrier would deadlock the harness
//! rather than exercise the program under test (see `fault.rs` for the
//! fault model's scope).

use std::cell::Cell;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::rank::{Msg, Rank, Want};
use crate::wire;

/// Reduction operator for the numeric collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of all contributions.
    Sum,
    /// Maximum contribution.
    Max,
    /// Minimum contribution.
    Min,
}

impl ReduceOp {
    fn fold_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    fn fold_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

use crate::rank::COLL_FLAG;

const OP_BCAST: u8 = 1;
const OP_GATHER: u8 = 2;
const OP_ALLTOALLV: u8 = 3;
const OP_BARRIER_UP: u8 = 4;
const OP_BARRIER_DOWN: u8 = 5;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 31)
}

/// An ordered group of global ranks supporting collective operations.
///
/// Cheap to clone; each rank holds its own copy (the collective sequence
/// number advances locally but identically on every member, keeping tags
/// aligned).
#[derive(Clone, Debug)]
pub struct Comm {
    id: u64,
    group: Arc<Vec<usize>>,
    seq: Cell<u64>,
}

impl Comm {
    /// The communicator spanning ranks `0..size`.
    pub fn world(size: usize) -> Self {
        Self {
            id: 0,
            group: Arc::new((0..size).collect()),
            seq: Cell::new(0),
        }
    }

    /// A communicator over an explicit list of global ranks (must be the
    /// same list, in the same order, on every member).
    pub fn from_ranks(ranks: Vec<usize>) -> Self {
        assert!(!ranks.is_empty(), "empty communicator");
        let mut id = 0x636f_6d6d; // "comm"
        for &r in &ranks {
            id = mix(id, r as u64);
        }
        Self {
            id,
            group: Arc::new(ranks),
            seq: Cell::new(0),
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Global ranks of the members, in index order.
    pub fn ranks(&self) -> &[usize] {
        &self.group
    }

    /// Member index of the calling rank.
    ///
    /// # Panics
    /// Panics if the rank is not a member.
    pub fn my_index(&self, rank: &Rank) -> usize {
        self.group
            .iter()
            .position(|&r| r == rank.rank())
            .unwrap_or_else(|| panic!("rank {} is not in this communicator", rank.rank()))
    }

    /// `true` when the calling rank belongs to the group.
    pub fn contains(&self, rank: &Rank) -> bool {
        self.group.contains(&rank.rank())
    }

    /// Derives the sub-communicator over member indices `lo..hi`. Every
    /// member of the parent must call `subset` at the same program point
    /// (it advances the parent's collective sequence); members outside
    /// `lo..hi` may drop the returned communicator.
    pub fn subset(&self, lo: usize, hi: usize) -> Comm {
        assert!(lo < hi && hi <= self.size(), "bad subset bounds {lo}..{hi}");
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let id = mix(mix(self.id, seq), ((lo as u64) << 32) | hi as u64);
        Comm {
            id,
            group: Arc::new(self.group[lo..hi].to_vec()),
            seq: Cell::new(0),
        }
    }

    fn next_tag(&self, op: u8) -> u64 {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        COLL_FLAG | ((self.id & 0xFF_FFFF) << 36) | ((seq & 0xFFF_FFFF) << 8) | op as u64
    }

    /// Barrier: gather-to-0 then broadcast. All members leave with clocks at
    /// least the latest member's arrival time.
    pub fn barrier(&self, rank: &mut Rank) {
        if self.my_index(rank) == 0 {
            let up = self.next_tag(OP_BARRIER_UP);
            let down = self.next_tag(OP_BARRIER_DOWN);
            for i in 1..self.size() {
                let _ = rank.recv(Some(self.group[i]), Some(up));
            }
            for i in 1..self.size() {
                rank.send_bytes(self.group[i], down, Bytes::new());
            }
        } else {
            let w = self.barrier_enter(rank);
            let _ = rank.recv(w.src, w.tag);
        }
    }

    /// Handler form of [`Comm::barrier`] for a member other than index 0:
    /// posts its arrival and returns the receive that ends the barrier.
    pub fn barrier_enter(&self, rank: &mut Rank) -> Want {
        assert_ne!(self.my_index(rank), 0, "member 0 runs the blocking barrier");
        let up = self.next_tag(OP_BARRIER_UP);
        let down = self.next_tag(OP_BARRIER_DOWN);
        rank.send_bytes(self.group[0], up, Bytes::new());
        Want {
            src: Some(self.group[0]),
            tag: Some(down),
        }
    }

    /// Binomial-tree broadcast from member index `root`. The root passes
    /// `Some(data)`; everyone returns the payload.
    pub fn bcast(&self, rank: &mut Rank, root: usize, data: Option<Bytes>) -> Bytes {
        assert!(root < self.size(), "bcast root out of range");
        if self.my_index(rank) != root {
            let w = self.bcast_enter(rank, root);
            let msg = rank.recv(w.src, w.tag);
            self.bcast_relay(rank, root, &msg);
            return msg.payload;
        }
        let tag = self.next_tag(OP_BCAST);
        let payload = data.expect("bcast root must supply data");
        self.bcast_down(rank, root, 0, tag, &payload);
        payload
    }

    /// Handler form of [`Comm::bcast`] for a member other than `root`:
    /// returns the receive of the payload from this member's tree parent.
    /// Hand the message to [`Comm::bcast_relay`].
    pub fn bcast_enter(&self, rank: &Rank, root: usize) -> Want {
        assert!(root < self.size(), "bcast root out of range");
        let tag = self.next_tag(OP_BCAST);
        let size = self.size();
        let rel = (self.my_index(rank) + size - root) % size;
        assert_ne!(rel, 0, "the bcast root runs the blocking bcast");
        let parent = rel - (1 << rel.trailing_zeros());
        Want {
            src: Some(self.group[(parent + root) % size]),
            tag: Some(tag),
        }
    }

    /// Second half of [`Comm::bcast_enter`]: forwards the received payload
    /// down this member's subtree.
    pub fn bcast_relay(&self, rank: &mut Rank, root: usize, msg: &Msg) {
        let size = self.size();
        let rel = (self.my_index(rank) + size - root) % size;
        self.bcast_down(rank, root, rel, msg.tag, &msg.payload);
    }

    /// Sends `payload` to the binomial-tree children of relative index
    /// `rel`, the largest subtree first.
    fn bcast_down(&self, rank: &mut Rank, root: usize, rel: usize, tag: u64, payload: &Bytes) {
        let size = self.size();
        // a member's children sit below its lowest set bit; the root's
        // span the whole tree
        let mut m = if rel == 0 {
            size.next_power_of_two()
        } else {
            1 << rel.trailing_zeros()
        } >> 1;
        while m > 0 {
            if rel + m < size {
                let dst = self.group[(rel + m + root) % size];
                rank.send_bytes(dst, tag, payload.clone());
            }
            m >>= 1;
        }
    }

    /// Rooted gather: member `root` returns all contributions indexed by
    /// member; others return `None`.
    pub fn gather(&self, rank: &mut Rank, root: usize, data: Bytes) -> Option<Vec<Bytes>> {
        assert!(root < self.size(), "gather root out of range");
        let tag = self.next_tag(OP_GATHER);
        let me = self.my_index(rank);
        if me == root {
            let mut out: Vec<Bytes> = vec![Bytes::new(); self.size()];
            out[me] = data;
            for (i, slot) in out.iter_mut().enumerate() {
                if i == root {
                    continue;
                }
                *slot = rank.recv(Some(self.group[i]), Some(tag)).payload;
            }
            Some(out)
        } else {
            rank.send_bytes(self.group[root], tag, data);
            None
        }
    }

    /// All-gather: every member returns every contribution (gather to 0,
    /// concatenate with length prefixes, broadcast, split).
    pub fn all_gather(&self, rank: &mut Rank, data: Bytes) -> Vec<Bytes> {
        let gathered = self.gather(rank, 0, data);
        let packed = if self.my_index(rank) == 0 {
            let parts = gathered.expect("root has gather result");
            let mut buf = BytesMut::new();
            wire::put_u32(&mut buf, parts.len() as u32);
            for p in &parts {
                wire::put_bytes(&mut buf, p);
            }
            Some(buf.freeze())
        } else {
            None
        };
        let packed = self.bcast(rank, 0, packed);
        let mut cur = packed;
        let n = wire::get_u32(&mut cur) as usize;
        (0..n).map(|_| wire::get_bytes(&mut cur)).collect()
    }

    /// Rooted reduction of one `f64` per member.
    pub fn reduce_f64(&self, rank: &mut Rank, root: usize, v: f64, op: ReduceOp) -> Option<f64> {
        let mut buf = BytesMut::with_capacity(8);
        wire::put_f64(&mut buf, v);
        let parts = self.gather(rank, root, buf.freeze())?;
        let mut acc = None;
        for mut p in parts {
            let x = wire::get_f64(&mut p);
            acc = Some(match acc {
                None => x,
                Some(a) => op.fold_f64(a, x),
            });
        }
        acc
    }

    /// All-reduce of one `f64` per member.
    pub fn allreduce_f64(&self, rank: &mut Rank, v: f64, op: ReduceOp) -> f64 {
        let r = self.reduce_f64(rank, 0, v, op);
        let packed = r.map(|x| {
            let mut b = BytesMut::with_capacity(8);
            wire::put_f64(&mut b, x);
            b.freeze()
        });
        let mut out = self.bcast(rank, 0, packed);
        wire::get_f64(&mut out)
    }

    /// All-reduce of one `u64` per member.
    pub fn allreduce_u64(&self, rank: &mut Rank, v: u64, op: ReduceOp) -> u64 {
        let mut buf = BytesMut::with_capacity(8);
        wire::put_u64(&mut buf, v);
        let parts = self.gather(rank, 0, buf.freeze());
        let packed = parts.map(|ps| {
            let mut acc: Option<u64> = None;
            for mut p in ps {
                let x = wire::get_u64(&mut p);
                acc = Some(match acc {
                    None => x,
                    Some(a) => op.fold_u64(a, x),
                });
            }
            let mut b = BytesMut::with_capacity(8);
            wire::put_u64(&mut b, acc.expect("non-empty communicator"));
            b.freeze()
        });
        let mut out = self.bcast(rank, 0, packed);
        wire::get_u64(&mut out)
    }

    /// Personalised all-to-all (`MPI_Alltoallv`): `data[j]` is delivered to
    /// member `j`; returns what every member sent to the caller. This is
    /// the primitive the paper's distributed VP-tree construction uses to
    /// shuffle points between process halves.
    pub fn alltoallv(&self, rank: &mut Rank, data: Vec<Bytes>) -> Vec<Bytes> {
        assert_eq!(
            data.len(),
            self.size(),
            "alltoallv needs one buffer per member"
        );
        let tag = self.next_tag(OP_ALLTOALLV);
        let me = self.my_index(rank);
        let mut out: Vec<Bytes> = vec![Bytes::new(); self.size()];
        for (j, payload) in data.into_iter().enumerate() {
            if j == me {
                out[j] = payload;
            } else {
                rank.send_bytes(self.group[j], tag, payload);
            }
        }
        for (j, slot) in out.iter_mut().enumerate() {
            if j != me {
                *slot = rank.recv(Some(self.group[j]), Some(tag)).payload;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, SimConfig};

    #[test]
    fn bcast_delivers_to_all() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let out = Cluster::new(SimConfig::new(n)).run(|rank| {
                let comm = rank.world();
                let data = if rank.rank() == 0 {
                    Some(Bytes::from_static(b"payload"))
                } else {
                    None
                };
                let got = comm.bcast(rank, 0, data);
                got.to_vec()
            });
            for (i, v) in out.iter().enumerate() {
                assert_eq!(v.as_slice(), b"payload", "n={n} rank {i}");
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = Cluster::new(SimConfig::new(6)).run(|rank| {
            let comm = rank.world();
            let data = if comm.my_index(rank) == 4 {
                Some(Bytes::from_static(b"r4"))
            } else {
                None
            };
            comm.bcast(rank, 4, data).to_vec()
        });
        assert!(out.iter().all(|v| v.as_slice() == b"r4"));
    }

    #[test]
    fn gather_collects_in_member_order() {
        let out = Cluster::new(SimConfig::new(5)).run(|rank| {
            let comm = rank.world();
            let mine = Bytes::from(vec![rank.rank() as u8]);
            comm.gather(rank, 2, mine)
        });
        for (i, o) in out.iter().enumerate() {
            if i == 2 {
                let parts = o.as_ref().expect("root gets data");
                let vals: Vec<u8> = parts.iter().map(|b| b[0]).collect();
                assert_eq!(vals, vec![0, 1, 2, 3, 4]);
            } else {
                assert!(o.is_none());
            }
        }
    }

    #[test]
    fn all_gather_everyone_sees_everything() {
        let out = Cluster::new(SimConfig::new(4)).run(|rank| {
            let comm = rank.world();
            let mine = Bytes::from(vec![rank.rank() as u8 + 10]);
            let all = comm.all_gather(rank, mine);
            all.iter().map(|b| b[0]).collect::<Vec<u8>>()
        });
        for o in out {
            assert_eq!(o, vec![10, 11, 12, 13]);
        }
    }

    #[test]
    fn reductions() {
        let out = Cluster::new(SimConfig::new(4)).run(|rank| {
            let comm = rank.world();
            let s = comm.allreduce_f64(rank, rank.rank() as f64, ReduceOp::Sum);
            let mx = comm.allreduce_f64(rank, rank.rank() as f64, ReduceOp::Max);
            let mn = comm.allreduce_u64(rank, rank.rank() as u64 + 5, ReduceOp::Min);
            (s, mx, mn)
        });
        for (s, mx, mn) in out {
            assert_eq!(s, 6.0);
            assert_eq!(mx, 3.0);
            assert_eq!(mn, 5);
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let out = Cluster::new(SimConfig::new(3)).run(|rank| {
            let comm = rank.world();
            let me = rank.rank() as u8;
            // member i sends [i, j] to member j
            let data: Vec<Bytes> = (0..3u8).map(|j| Bytes::from(vec![me, j])).collect();
            let recv = comm.alltoallv(rank, data);
            recv.iter().map(|b| (b[0], b[1])).collect::<Vec<_>>()
        });
        for (j, row) in out.iter().enumerate() {
            for (i, &(src, dst)) in row.iter().enumerate() {
                assert_eq!(src as usize, i, "payload source");
                assert_eq!(dst as usize, j, "payload destination");
            }
        }
    }

    #[test]
    fn barrier_synchronises_clocks() {
        let out = Cluster::new(SimConfig::new(4)).run(|rank| {
            let comm = rank.world();
            if rank.rank() == 3 {
                rank.charge(1_000_000.0); // slow rank
            }
            comm.barrier(rank);
            rank.now()
        });
        for &t in &out {
            assert!(
                t >= 1_000_000.0,
                "clock {t} not synchronised past slowest rank"
            );
        }
    }

    #[test]
    fn subset_halves_work_independently() {
        let out = Cluster::new(SimConfig::new(8)).run(|rank| {
            let world = rank.world();
            let me = world.my_index(rank);
            let half = if me < 4 {
                world.subset(0, 4)
            } else {
                world.subset(4, 8)
            };
            // NB: both halves call subset once; the two calls above are the
            // same program point per SPMD member.

            half.allreduce_u64(rank, rank.rank() as u64, ReduceOp::Sum)
        });
        assert_eq!(out[0], 1 + 2 + 3);
        assert_eq!(out[7], 4 + 5 + 6 + 7);
    }

    #[test]
    fn recursive_halving_to_singletons() {
        let out = Cluster::new(SimConfig::new(8)).run(|rank| {
            let mut comm = rank.world();
            let mut depth = 0;
            while comm.size() > 1 {
                let me = comm.my_index(rank);
                let mid = comm.size() / 2;
                comm = if me < mid {
                    comm.subset(0, mid)
                } else {
                    comm.subset(mid, comm.size())
                };
                depth += 1;
            }
            depth
        });
        assert!(out.iter().all(|&d| d == 3));
    }

    #[test]
    fn single_member_collectives_are_noop() {
        let out = Cluster::new(SimConfig::new(1)).run(|rank| {
            let comm = rank.world();
            comm.barrier(rank);
            let b = comm.bcast(rank, 0, Some(Bytes::from_static(b"x")));
            let g = comm
                .gather(rank, 0, Bytes::from_static(b"y"))
                .expect("root rank receives the gather");
            let s = comm.allreduce_f64(rank, 2.5, ReduceOp::Sum);
            (b.to_vec(), g.len(), s)
        });
        assert_eq!(out[0].0, b"x".to_vec());
        assert_eq!(out[0].1, 1);
        assert_eq!(out[0].2, 2.5);
    }

    #[test]
    #[should_panic]
    fn nonmember_index_panics() {
        Cluster::new(SimConfig::new(4)).run(|rank| {
            let world = rank.world();
            let sub = world.subset(0, 2);
            // ranks 2,3 are not members; asking for their index must panic
            // (members 0,1 succeed, so the panic provably comes from 2,3)
            let _ = sub.my_index(rank);
        });
    }
}
