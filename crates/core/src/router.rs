//! Query routers: how the master maps a query to partitions.
//!
//! Two implementations:
//!
//! * [`Router::VpTree`] — the paper's hierarchical VP-tree skeleton:
//!   `O(max_partitions × depth)` distance evaluations per query and
//!   balanced partitions by construction (median splits).
//! * [`Router::FlatPivot`] — the flat randomized pivot scheme of the
//!   paper's reference [16] (Zhou et al., CBD 2013): every point belongs to
//!   its closest pivot; routing scores the query against *all* P pivots and
//!   picks the closest few. Simple, but routing is `O(P)` per query and
//!   closest-pivot assignment produces "significant load imbalance across
//!   processes" (the paper's words) — both effects reproduced by the
//!   `repro baseline-pivot` experiment.

use fastann_data::{Distance, TopK, VectorSet};
use fastann_vptree::{PartitionTree, RouteConfig};

use crate::routing::{splitmix64, RoutingPolicy};

/// Maps queries to the partitions that must be searched.
pub enum Router {
    /// Hierarchical VP-tree skeleton (the paper's design).
    VpTree(PartitionTree),
    /// Flat pivot table (the \[16\] baseline).
    FlatPivot {
        /// One pivot vector per partition.
        pivots: VectorSet,
        /// Metric used for pivot assignment.
        metric: Distance,
    },
}

impl Router {
    /// Partitions to search for `q`, most promising first, plus the number
    /// of distance evaluations spent routing.
    pub fn route(&self, q: &[f32], cfg: &RouteConfig) -> (Vec<u32>, u64) {
        match self {
            Router::VpTree(tree) => tree.route(q, cfg),
            Router::FlatPivot { pivots, metric } => {
                // score ALL pivots — the O(P) master cost of flat schemes
                let cap = cfg.max_partitions.max(1).min(pivots.len());
                let mut top = TopK::new(cap);
                for (i, p) in pivots.iter().enumerate() {
                    top.push(fastann_data::Neighbor::new(i as u32, metric.eval(q, p)));
                }
                let ids = top.into_sorted().into_iter().map(|n| n.id).collect();
                (ids, pivots.len() as u64)
            }
        }
    }

    /// Number of partitions this router addresses.
    pub fn n_partitions(&self) -> usize {
        match self {
            Router::VpTree(tree) => tree.n_partitions(),
            Router::FlatPivot { pivots, .. } => pivots.len(),
        }
    }

    /// Bytes the master keeps resident for routing.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Router::VpTree(tree) => tree.approx_bytes(),
            Router::FlatPivot { pivots, .. } => pivots.as_flat().len() * 4,
        }
    }
}

/// Algorithm 5's workgroup rule, the one placement of every partition:
/// the core at `slot` (taken mod `r`) of `{part, …, part+r−1 mod P}`.
pub(crate) fn workgroup_core(p_cores: usize, counts: &[usize], part: usize, slot: usize) -> usize {
    (part + slot % workgroup_size(p_cores, counts, part)) % p_cores
}

/// The replica count `r` of partition `part`: `counts[part]`, at most
/// `p_cores`, and 1 past the table (a partition a split created).
pub(crate) fn workgroup_size(p_cores: usize, counts: &[usize], part: usize) -> usize {
    counts.get(part).copied().unwrap_or(1).min(p_cores)
}

/// Algorithm-5 replica dispatch, generalised to per-partition replica
/// counts: partition `d` with `r_d` replicas has workgroup cores
/// `{d, d+1, …, d+r_d−1 mod P}`.
///
/// Slot choice within the workgroup follows the [`RoutingPolicy`]:
/// round-robin ([`RoutingPolicy::Static`], the paper's dispatch) or
/// power-of-two-choices over the per-core dispatched-probe count
/// ([`RoutingPolicy::PowerOfTwo`]) — the count is the master's
/// deterministic virtual-time queue-depth estimate, since the fault-free
/// master dispatches the whole batch before collecting anything.
///
/// The same workgroup doubles as the failover chain of the fault-tolerant
/// path: attempt `a` of a probe first dispatched at workgroup slot `s`
/// targets slot `(s + a) mod r_d`, so with `r_d > 1` a timed-out probe
/// lands on a *different* replica, while `r_d = 1` retries the (only)
/// owner — which recovers lost messages but not a dead core.
pub struct ReplicaDispatcher {
    p_cores: usize,
    /// Per-partition replica counts (indexed by partition id; a
    /// split-created partition past the table has 1, see
    /// [`workgroup_core`]).
    counts: Vec<usize>,
    adaptive: bool,
    next_slot: Vec<usize>,
    /// Probes dispatched to each core so far — the deterministic queue
    /// depth the power-of-two choice compares.
    core_load: Vec<u64>,
}

impl ReplicaDispatcher {
    /// Dispatcher over `p_cores` cores with per-partition replica
    /// `counts` (one entry per partition) and the slot choice of `policy`.
    ///
    /// # Panics
    /// Panics when any count falls outside `1..=p_cores`.
    pub fn with_policy(p_cores: usize, policy: RoutingPolicy, counts: &[usize]) -> Self {
        policy.validate();
        assert!(
            counts.iter().all(|&r| r >= 1 && r <= p_cores),
            "replica counts must be within 1..=p_cores"
        );
        Self {
            p_cores,
            counts: counts.to_vec(),
            adaptive: policy.is_adaptive(),
            next_slot: vec![0; counts.len().max(p_cores)],
            core_load: vec![0; p_cores],
        }
    }

    /// Replica count of `part`'s workgroup.
    pub fn replicas(&self, part: u32) -> usize {
        workgroup_size(self.p_cores, &self.counts, part as usize)
    }

    /// The core at workgroup `slot` (taken mod `r_part`) of `part`'s
    /// workgroup.
    pub fn member(&self, part: u32, slot: usize) -> usize {
        workgroup_core(self.p_cores, &self.counts, part as usize, slot)
    }

    /// Grows the round-robin table on demand: partitions created by a
    /// dynamic split carry ids ≥ the initial table size.
    fn ensure_part(&mut self, part: u32) {
        if part as usize >= self.next_slot.len() {
            self.next_slot.resize(part as usize + 1, 0);
        }
    }

    /// Picks the core for a fresh probe of `part` by round-robin and
    /// advances the pointer. Returns `(core, slot)`; keep `slot` to derive
    /// failover targets for this probe.
    pub fn next_primary(&mut self, part: u32) -> (usize, usize) {
        self.ensure_part(part);
        let slot = self.next_slot[part as usize];
        self.next_slot[part as usize] = (slot + 1) % self.replicas(part);
        let core = self.member(part, slot);
        self.core_load[core] += 1;
        (core, slot)
    }

    /// Power-of-two-choices dispatch: hashes `(qid, part)` to two distinct
    /// workgroup slots and takes the one whose core has fewer probes
    /// dispatched so far (ties keep the first hash) — deterministic
    /// load-aware placement with no coordination state beyond the
    /// dispatched-probe counters.
    pub fn next_po2(&mut self, part: u32, qid: u64) -> (usize, usize) {
        self.ensure_part(part);
        let r = self.replicas(part);
        if r == 1 {
            let core = self.member(part, 0);
            self.core_load[core] += 1;
            return (core, 0);
        }
        let h = splitmix64((qid << 32) ^ u64::from(part));
        let s1 = (h % r as u64) as usize;
        let mut s2 = ((h >> 32) % r as u64) as usize;
        if s2 == s1 {
            s2 = (s1 + 1) % r;
        }
        let (c1, c2) = (self.member(part, s1), self.member(part, s2));
        let (core, slot) = if self.core_load[c2] < self.core_load[c1] {
            (c2, s2)
        } else {
            (c1, s1)
        };
        self.core_load[core] += 1;
        (core, slot)
    }

    /// Policy dispatch: [`ReplicaDispatcher::next_po2`] when constructed
    /// with an adaptive policy, [`ReplicaDispatcher::next_primary`]
    /// otherwise.
    pub fn next(&mut self, part: u32, qid: u64) -> (usize, usize) {
        if self.adaptive {
            self.next_po2(part, qid)
        } else {
            self.next_primary(part)
        }
    }

    /// The core serving retry `attempt` (1-based) of a probe first sent at
    /// `slot`.
    pub fn failover(&self, part: u32, slot: usize, attempt: usize) -> usize {
        self.member(part, slot + attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_data::synth;

    fn pivot_router() -> Router {
        let pivots = synth::sift_like(8, 4, 1);
        Router::FlatPivot {
            pivots,
            metric: Distance::L2,
        }
    }

    #[test]
    fn flat_pivot_routes_to_closest_pivot_first() {
        let r = pivot_router();
        let Router::FlatPivot { pivots, .. } = &r else {
            unreachable!()
        };
        let q = pivots.get(5).to_vec();
        let (route, ndist) = r.route(
            &q,
            &RouteConfig {
                margin_frac: 0.0,
                max_partitions: 3,
            },
        );
        assert_eq!(route[0], 5, "closest pivot must come first");
        assert_eq!(route.len(), 3);
        assert_eq!(ndist, 8, "flat routing scores every pivot");
    }

    #[test]
    fn flat_pivot_cap_respected() {
        let r = pivot_router();
        let q = vec![0.0; 4];
        let (route, _) = r.route(
            &q,
            &RouteConfig {
                margin_frac: 0.5,
                max_partitions: 100,
            },
        );
        assert_eq!(route.len(), 8, "cap clamps to pivot count");
        let mut dedup = route.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
    }

    #[test]
    fn n_partitions_and_bytes() {
        let r = pivot_router();
        assert_eq!(r.n_partitions(), 8);
        assert_eq!(r.approx_bytes(), 8 * 4 * 4);
    }

    /// Two-leaf skeleton with a single boundary at `mu`, vantage point at
    /// the origin.
    fn boundary_tree(mu: f32) -> Router {
        // preorder: inner [1, mu, 2, vp], leaf [0, 0], leaf [0, 1]
        let words = [1, mu.to_bits(), 2, 0, 0, 0, 0, 0, 1u32];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let tree = fastann_vptree::PartitionTree::from_bytes(&bytes, Distance::L2);
        Router::VpTree(tree.expect("a well-formed two-leaf skeleton"))
    }

    #[test]
    fn query_exactly_at_radius_mu_visits_both_sides() {
        // d(q, vp) == mu is the knife edge: the point belongs to the near
        // (inside) half, but its slack is exactly zero, so the sibling is
        // within *any* margin — even margin_frac = 0 must route both sides
        let r = boundary_tree(2.0);
        let q = [2.0, 0.0];
        let (route, ndist) = r.route(
            &q,
            &RouteConfig {
                margin_frac: 0.0,
                max_partitions: 8,
            },
        );
        assert_eq!(route, vec![0, 1], "home partition first, sibling second");
        assert_eq!(ndist, 1, "one boundary comparison");

        // … while a query strictly inside with zero margin stays one-sided
        let (route, _) = r.route(
            &[1.0, 0.0],
            &RouteConfig {
                margin_frac: 0.0,
                max_partitions: 8,
            },
        );
        assert_eq!(route, vec![0], "interior query does not cross");

        // and the partition cap still applies at the knife edge
        let (route, _) = r.route(
            &q,
            &RouteConfig {
                margin_frac: 0.0,
                max_partitions: 1,
            },
        );
        assert_eq!(route, vec![0], "nprobe = 1 keeps only the home partition");
    }

    #[test]
    fn nprobe_larger_than_partition_count_clamps() {
        use rand::SeedableRng;
        let data = synth::sift_like(256, 6, 5);
        let all = (0..256).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let (skel, parts) =
            fastann_vptree::split_local(&data, all, 4, 0, Distance::L2, &mut rng, &mut |_| {});
        assert_eq!(parts.len(), 4);
        let tree = PartitionTree::from_bytes(&skel, Distance::L2);
        let r = Router::VpTree(tree.expect("a whole skeleton"));
        // margin wide enough to admit every sibling, nprobe far above P
        let (route, _) = r.route(
            data.get(17),
            &RouteConfig {
                margin_frac: 1e6,
                max_partitions: 100,
            },
        );
        assert_eq!(route.len(), 4, "cannot probe more partitions than exist");
        let mut dedup = route.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "each partition appears exactly once");

        // nprobe = 0 is clamped up to 1 rather than returning nothing: a
        // query must always have at least its home partition searched
        let (route, _) = r.route(
            data.get(17),
            &RouteConfig {
                margin_frac: 0.0,
                max_partitions: 0,
            },
        );
        assert_eq!(route.len(), 1, "zero nprobe clamps to the home partition");
    }

    #[test]
    fn empty_partition_still_routes() {
        // the skeleton is data-independent: a leaf whose partition ended up
        // with zero vectors (possible under adversarial splits) must still
        // be routable — the engine answers it with zero candidates rather
        // than the router pretending it does not exist
        let r = boundary_tree(1.0);
        let (route, _) = r.route(
            &[5.0, 0.0], // far outside: routes to the (empty) far leaf
            &RouteConfig {
                margin_frac: 0.1,
                max_partitions: 1,
            },
        );
        assert_eq!(route, vec![1], "empty partition id is still returned");
    }

    #[test]
    fn dispatcher_round_robins_within_workgroup() {
        let mut d = ReplicaDispatcher::with_policy(8, RoutingPolicy::Static(3), &[3; 8]);
        // partition 6's workgroup is {6, 7, 0}
        assert_eq!(d.next_primary(6), (6, 0));
        assert_eq!(d.next_primary(6), (7, 1));
        assert_eq!(d.next_primary(6), (0, 2));
        assert_eq!(d.next_primary(6), (6, 0), "pointer wraps");
        // other partitions have independent pointers
        assert_eq!(d.next_primary(2), (2, 0));
    }

    #[test]
    fn dispatcher_failover_cycles_replicas() {
        let d = ReplicaDispatcher::with_policy(8, RoutingPolicy::Static(2), &[2; 8]);
        let (core, slot) = (5, 1); // probe of partition 4 sent to slot 1
        assert_eq!(d.member(4, slot), core);
        assert_eq!(
            d.failover(4, slot, 1),
            4,
            "first retry moves to the other replica"
        );
        assert_eq!(d.failover(4, slot, 2), 5, "second retry wraps back");
    }

    #[test]
    fn dispatcher_without_replication_is_identity() {
        let mut d = ReplicaDispatcher::with_policy(4, RoutingPolicy::Static(1), &[1; 4]);
        for part in 0..4u32 {
            assert_eq!(d.next_primary(part), (part as usize, 0));
            assert_eq!(d.next_primary(part), (part as usize, 0));
            assert_eq!(
                d.failover(part, 0, 3),
                part as usize,
                "r=1 retries the owner"
            );
        }
    }

    #[test]
    #[should_panic(expected = "replica counts must be within 1..=p_cores")]
    fn dispatcher_rejects_oversized_replication() {
        let _ = ReplicaDispatcher::with_policy(4, RoutingPolicy::Static(5), &[5; 4]);
    }

    #[test]
    fn per_partition_counts_shape_workgroups() {
        // partition 1 raised to 3 replicas, everything else at 1
        let mut counts = vec![1usize; 8];
        counts[1] = 3;
        let mut d = ReplicaDispatcher::with_policy(8, RoutingPolicy::Static(1), &counts);
        assert_eq!(d.replicas(1), 3);
        assert_eq!(d.replicas(0), 1);
        // partition 1's workgroup is {1, 2, 3}; partition 0 stays pinned
        assert_eq!(d.next_primary(1), (1, 0));
        assert_eq!(d.next_primary(1), (2, 1));
        assert_eq!(d.next_primary(1), (3, 2));
        assert_eq!(d.next_primary(1), (1, 0), "pointer wraps at r_1 = 3");
        assert_eq!(d.next_primary(0), (0, 0));
        assert_eq!(d.next_primary(0), (0, 0));
        // failover chain also honours the per-partition count
        assert_eq!(d.failover(1, 0, 1), 2);
        assert_eq!(d.failover(1, 2, 1), 1, "wraps at r_1");
        assert_eq!(d.failover(0, 0, 5), 0, "r=1 retries the owner");
    }

    #[test]
    fn po2_is_deterministic_and_stays_in_workgroup() {
        let counts = vec![4usize; 8];
        let policy = RoutingPolicy::PowerOfTwo { base: 4, max: 4 };
        let mut a = ReplicaDispatcher::with_policy(8, policy, &counts);
        let mut b = ReplicaDispatcher::with_policy(8, policy, &counts);
        for qid in 0..64u64 {
            let part = (qid % 8) as u32;
            let (core, slot) = a.next(part, qid);
            assert_eq!(
                (core, slot),
                b.next(part, qid),
                "same (qid, part) stream must dispatch identically"
            );
            assert!(slot < 4, "slot within the workgroup");
            assert_eq!(core, a.member(part, slot));
        }
    }

    #[test]
    fn po2_balances_a_hot_partition() {
        // every probe targets partition 0 with 4 replicas: po2 must spread
        // far better than "all on one core", and not worse than 2x the
        // round-robin optimum
        let mut counts = vec![1usize; 8];
        counts[0] = 4;
        let policy = RoutingPolicy::PowerOfTwo { base: 1, max: 4 };
        let mut d = ReplicaDispatcher::with_policy(8, policy, &counts);
        let mut per_core = [0u32; 8];
        for qid in 0..400u64 {
            let (core, _) = d.next(0, qid);
            assert!(core < 4, "workgroup of partition 0 is {{0,1,2,3}}");
            per_core[core] += 1;
        }
        let max = per_core.iter().max().copied().unwrap_or(0);
        assert!(
            max <= 200,
            "po2 must spread the hot partition: per-core {per_core:?}"
        );
        assert!(per_core[..4].iter().all(|&c| c > 0), "every replica used");
    }

    #[test]
    fn split_partition_grows_tables_on_demand() {
        let mut d = ReplicaDispatcher::with_policy(
            4,
            RoutingPolicy::PowerOfTwo { base: 1, max: 2 },
            &[2, 1, 1, 1],
        );
        // a split-created partition id beyond the table wraps onto cores
        let (core, slot) = d.next(9, 0);
        assert_eq!(d.replicas(9), 1, "split partitions default to 1 replica");
        assert_eq!(core, 9 % 4);
        assert_eq!(slot, 0);
    }
}
