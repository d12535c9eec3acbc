//! One-sided communication: RMA windows with `Get_accumulate` semantics.
//!
//! Models the paper's Section IV-C1: the master exposes a window of result
//! slots (`MPI_Win_create`), workers open a shared-mode passive epoch
//! (`MPI_Win_lock(MPI_LOCK_SHARED)`) and deposit local k-NN results with
//! atomic read-modify-write operations (`MPI_Get_accumulate`). The defining
//! property — and the reason the optimisation removes the master-side
//! bottleneck — is that **only the origin pays CPU time**; the target's
//! clock is untouched. The target later synchronises to the latest slot
//! arrival time before reading ([`Window::owner_sync`]).

use std::sync::{Arc, Mutex};

use crate::cluster::lock;
use crate::comm::Comm;
use crate::rank::{Msg, Rank, Want};

struct Slot<T> {
    value: T,
    last_arrival: f64,
}

type Slots<T> = Arc<Vec<Mutex<Slot<T>>>>;

/// A window of `T` slots owned by one rank, writable by every member of the
/// creating communicator via atomic accumulate operations.
pub struct Window<T> {
    owner: usize,
    slots: Slots<T>,
}

impl<T> Clone for Window<T> {
    fn clone(&self) -> Self {
        Self {
            owner: self.owner,
            slots: Arc::clone(&self.slots),
        }
    }
}

impl<T: Send + Sync + 'static> Window<T> {
    /// Collective creation over `comm` (every member must call). The member
    /// with index `owner_idx` allocates `n_slots` slots initialised with
    /// `init(slot_index)`; everyone receives a handle.
    pub fn create(
        rank: &mut Rank,
        comm: &Comm,
        owner_idx: usize,
        n_slots: usize,
        init: impl Fn(usize) -> T,
    ) -> Window<T> {
        if comm.my_index(rank) != owner_idx {
            let w = Self::join(rank, comm, owner_idx);
            let msg = rank.recv(w.src, w.tag);
            return Self::joined(rank, comm, owner_idx, &msg);
        }
        let slots: Slots<T> = Arc::new(
            (0..n_slots)
                .map(|i| {
                    Mutex::new(Slot {
                        value: init(i),
                        last_arrival: 0.0,
                    })
                })
                .collect(),
        );
        let key = rank.registry_put(Box::new(Slots::clone(&slots)));
        let mut b = bytes::BytesMut::with_capacity(8);
        crate::wire::put_u64(&mut b, key);
        comm.bcast(rank, owner_idx, Some(b.freeze()));
        Window {
            owner: rank.rank(),
            slots,
        }
    }

    /// Handler form of [`Window::create`] for a member other than the
    /// owner: returns the receive of the owner's window key. Hand the
    /// message to [`Window::joined`].
    pub fn join(rank: &Rank, comm: &Comm, owner_idx: usize) -> Want {
        comm.bcast_enter(rank, owner_idx)
    }

    /// Second half of [`Window::join`]: relays the key down the broadcast
    /// tree and returns the handle.
    pub fn joined(rank: &mut Rank, comm: &Comm, owner_idx: usize, msg: &Msg) -> Window<T> {
        comm.bcast_relay(rank, owner_idx, msg);
        let mut key = msg.payload.clone();
        let any = rank.registry_get(crate::wire::get_u64(&mut key));
        let slots = any
            .downcast::<Slots<T>>()
            .unwrap_or_else(|_| panic!("window registry type mismatch"));
        Window {
            owner: comm.ranks()[owner_idx],
            slots: Slots::clone(&slots),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the window has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Global rank owning the memory.
    pub fn owner(&self) -> usize {
        self.owner
    }

    /// Origin-side atomic read-modify-write of `slot` (models
    /// `MPI_Get_accumulate` under a shared lock). `payload_bytes` sizes the
    /// transfer for the network model. Only the **origin's** clock advances;
    /// the data is considered applied at the target at
    /// `origin_now + α + bytes·β`.
    pub fn accumulate(
        &self,
        rank: &mut Rank,
        slot: usize,
        payload_bytes: usize,
        f: impl FnOnce(&mut T),
    ) {
        let (rma_overhead, xfer) = {
            let cfg = &rank.shared.cfg;
            (
                cfg.net.rma_overhead_ns,
                cfg.net
                    .xfer_ns(&cfg.topology, rank.rank(), self.owner, payload_bytes),
            )
        };
        rank.clock += rma_overhead;
        rank.stats.rma_cpu_ns += rma_overhead;
        rank.stats.rma_ops += 1;
        let arrival = rank.clock + xfer;
        let mut guard = lock(&self.slots[slot]);
        f(&mut guard.value);
        if arrival > guard.last_arrival {
            guard.last_arrival = arrival;
        }
    }

    /// Like [`Window::accumulate`], but issued by a *virtual worker thread*
    /// at virtual time `at_time` (e.g. a [`crate::VThreadPool`] completion):
    /// the rank's progress clock is untouched and the update lands at the
    /// target at `at_time + rma_overhead + α + bytes·β`.
    pub fn accumulate_at(
        &self,
        rank: &mut Rank,
        slot: usize,
        payload_bytes: usize,
        at_time: f64,
        f: impl FnOnce(&mut T),
    ) {
        let (rma_overhead, xfer) = {
            let cfg = &rank.shared.cfg;
            (
                cfg.net.rma_overhead_ns,
                cfg.net
                    .xfer_ns(&cfg.topology, rank.rank(), self.owner, payload_bytes),
            )
        };
        rank.stats.rma_cpu_ns += rma_overhead;
        rank.stats.rma_ops += 1;
        let arrival = at_time.max(0.0) + rma_overhead + xfer;
        let mut guard = lock(&self.slots[slot]);
        f(&mut guard.value);
        if arrival > guard.last_arrival {
            guard.last_arrival = arrival;
        }
    }

    /// Owner-side read of one slot (no synchronisation — pair with
    /// [`Window::owner_sync`] after remote writers are known to be done).
    pub fn read<R>(&self, slot: usize, f: impl FnOnce(&T) -> R) -> R {
        let guard = lock(&self.slots[slot]);
        f(&guard.value)
    }

    /// Latest modelled arrival time over all slots.
    pub fn max_arrival(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| lock(s).last_arrival)
            .fold(0.0, f64::max)
    }

    /// Advances the owner's clock past every deposited update — the moment
    /// all one-sided traffic has landed. Call once remote writers have
    /// signalled completion (e.g. via point-to-point "done" messages).
    pub fn owner_sync(&self, rank: &mut Rank) {
        assert_eq!(rank.rank(), self.owner, "owner_sync called by non-owner");
        let t = self.max_arrival();
        if t > rank.clock {
            rank.stats.wait_ns += t - rank.clock;
            rank.clock = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, SimConfig};
    use crate::ReduceOp;

    #[test]
    fn accumulate_merges_from_all_workers() {
        let out = Cluster::new(SimConfig::new(5)).run(|rank| {
            let comm = rank.world();
            let win: Window<Vec<u32>> = Window::create(rank, &comm, 0, 3, |_| Vec::new());
            if rank.rank() != 0 {
                let r = rank.rank() as u32;
                win.accumulate(rank, (r as usize - 1) % 3, 8, |v| v.push(r));
                // signal done
                rank.send_bytes(0, 99, bytes::Bytes::new());
                0
            } else {
                for _ in 0..4 {
                    let _ = rank.recv(None, Some(99));
                }
                win.owner_sync(rank);
                let mut total = 0u32;
                for s in 0..3 {
                    total += win.read(s, |v| v.iter().sum::<u32>());
                }
                total
            }
        });
        assert_eq!(out[0], 1 + 2 + 3 + 4);
    }

    #[test]
    fn target_cpu_not_charged_by_rma() {
        let out = Cluster::new(SimConfig::new(2)).run(|rank| {
            let comm = rank.world();
            let win: Window<u64> = Window::create(rank, &comm, 0, 1, |_| 0);
            if rank.rank() == 1 {
                for _ in 0..100 {
                    win.accumulate(rank, 0, 8, |v| *v += 1);
                }
                rank.send_bytes(0, 1, bytes::Bytes::new());
                rank.stats().rma_ops
            } else {
                let before = rank.stats().recv_cpu_ns;
                let _ = rank.recv(None, Some(1));
                let after = rank.stats().recv_cpu_ns;
                win.owner_sync(rank);
                assert_eq!(win.read(0, |v| *v), 100);
                // the master paid for exactly ONE two-sided receive (the
                // done signal), not for the 100 RMA deposits
                let paid = after - before;
                assert!(paid <= 251.0, "master paid {paid} ns of recv CPU");
                0
            }
        });
        assert_eq!(out[1], 100);
    }

    #[test]
    fn owner_sync_advances_clock_to_arrivals() {
        let out = Cluster::new(SimConfig::new(2)).run(|rank| {
            let comm = rank.world();
            let win: Window<u64> = Window::create(rank, &comm, 0, 1, |_| 0);
            if rank.rank() == 1 {
                rank.charge(5_000_000.0); // origin is far in virtual future
                win.accumulate(rank, 0, 8, |v| *v = 42);
                rank.send_bytes(0, 1, bytes::Bytes::new());
                0.0
            } else {
                let _ = rank.recv(None, Some(1));
                win.owner_sync(rank);
                rank.now()
            }
        });
        assert!(
            out[0] > 5_000_000.0,
            "owner clock {} must pass the deposit time",
            out[0]
        );
    }

    #[test]
    fn window_usable_alongside_collectives() {
        let out = Cluster::new(SimConfig::new(3)).run(|rank| {
            let comm = rank.world();
            let win: Window<f64> = Window::create(rank, &comm, 0, 1, |_| 0.0);
            win.accumulate(rank, 0, 8, |v| *v += 1.0);
            comm.barrier(rank);
            let total = comm.allreduce_f64(rank, 0.0, ReduceOp::Sum);
            if rank.rank() == 0 {
                win.owner_sync(rank);
                win.read(0, |v| *v) + total
            } else {
                total
            }
        });
        assert_eq!(out[0], 3.0);
    }

    #[test]
    #[should_panic]
    fn non_owner_sync_panics() {
        Cluster::new(SimConfig::new(2)).run(|rank| {
            let comm = rank.world();
            let win: Window<u64> = Window::create(rank, &comm, 0, 1, |_| 0);
            if rank.rank() == 1 {
                win.owner_sync(rank);
            }
        });
    }
}
