//! Routing policies and per-partition replica maps — the first-class API
//! behind adaptive replication and load-aware dispatch.
//!
//! The paper's Algorithm 5 fixes one replication factor `r` at dispatch
//! time and rotates round-robin inside each workgroup. That is
//! [`RoutingPolicy::Static`], the compatibility default. The adaptive
//! alternative, [`RoutingPolicy::PowerOfTwo`], lets a controller raise the
//! replica count of individual hot partitions (a [`ReplicaMap`]) and picks
//! between two hashed workgroup slots by *deterministic virtual-time queue
//! depth* — the number of probes the master has already dispatched to each
//! core this batch. The fault-free master dispatches the whole batch
//! before collecting anything, so the dispatched-probe count per core *is*
//! the core's virtual-time queue depth at dispatch: a pure function of the
//! batch content, never of wall clock or thread scheduling, which is what
//! keeps reports bit-identical across `FASTANN_THREADS`.

/// How the master places partition probes onto replica workgroups.
///
/// The policy carries the replication shape: `base` replicas for every
/// partition, and (for the adaptive policy) a `max` the serve-layer
/// controller may raise individual hot partitions to via a
/// [`ReplicaMap`]. Workgroup membership is unchanged from Algorithm 5 —
/// partition `d` with `r` replicas lives on cores `{d, …, d+r−1 mod P}` —
/// only the *choice within* the workgroup differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Algorithm 5 as published: every partition has exactly `r` replicas
    /// and probes rotate round-robin within the workgroup. `Static(1)`
    /// is the no-replication baseline.
    Static(usize),
    /// Power-of-two-choices over deterministic virtual-time queue depth:
    /// each probe hashes `(query, partition)` to two distinct workgroup
    /// slots and takes the one whose core has fewer probes dispatched so
    /// far this batch (ties keep the first hash). Partitions start at
    /// `base` replicas; an adaptive controller may raise any partition up
    /// to `max` through a [`ReplicaMap`].
    PowerOfTwo {
        /// Replicas every partition starts with (`≥ 1`).
        base: usize,
        /// Upper bound a controller may raise a hot partition to
        /// (`≥ base`).
        max: usize,
    },
}

impl Default for RoutingPolicy {
    /// The paper baseline: no replication, round-robin dispatch.
    fn default() -> Self {
        RoutingPolicy::Static(1)
    }
}

impl RoutingPolicy {
    /// Replicas every partition holds before any adaptive raise.
    pub fn base_replicas(&self) -> usize {
        match *self {
            RoutingPolicy::Static(r) => r,
            RoutingPolicy::PowerOfTwo { base, .. } => base,
        }
    }

    /// Largest replica count any partition may reach under this policy.
    pub fn max_replicas(&self) -> usize {
        match *self {
            RoutingPolicy::Static(r) => r,
            RoutingPolicy::PowerOfTwo { max, .. } => max,
        }
    }

    /// `true` for policies whose replica counts a controller may change at
    /// run time (everything except [`RoutingPolicy::Static`]).
    pub fn is_adaptive(&self) -> bool {
        matches!(self, RoutingPolicy::PowerOfTwo { .. })
    }

    /// Metrics label of this policy (`fastann_routing_decisions_total`).
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::Static(_) => "static",
            RoutingPolicy::PowerOfTwo { .. } => "po2",
        }
    }

    /// Panics unless the shape is coherent (`base ≥ 1`, `max ≥ base`).
    pub(crate) fn validate(&self) {
        match *self {
            RoutingPolicy::Static(r) => {
                assert!(r >= 1, "replication factor must be at least 1");
            }
            RoutingPolicy::PowerOfTwo { base, max } => {
                assert!(base >= 1, "base replica count must be at least 1");
                assert!(max >= base, "max replicas ({max}) must cover base ({base})");
            }
        }
    }
}

/// Per-partition replica counts plus a generation number.
///
/// The serve-layer controller owns one of these and hands the engine a
/// snapshot per dispatched batch ([`crate::SearchRequest::replicas`]); the
/// generation bumps on every raise/decay, so in-flight dispatch keeps the
/// map it was dispatched with while later batches observe the new one —
/// the epoch idiom the result cache already uses for index installs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaMap {
    counts: Vec<usize>,
    generation: u64,
}

impl ReplicaMap {
    /// A map of `n_partitions` partitions at `r` replicas each
    /// (generation 0).
    pub fn uniform(n_partitions: usize, r: usize) -> Self {
        assert!(r >= 1, "replica count must be at least 1");
        Self {
            counts: vec![r; n_partitions],
            generation: 0,
        }
    }

    /// Number of partitions the map covers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when the map covers no partitions.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Replica count of `part`; partitions beyond the map (e.g. created by
    /// a split after the snapshot) default to 1.
    pub fn count(&self, part: usize) -> usize {
        self.counts.get(part).copied().unwrap_or(1)
    }

    /// Sets `part`'s replica count, bumping the generation when the value
    /// actually changes. Returns `true` on a change.
    pub fn set_count(&mut self, part: usize, r: usize) -> bool {
        assert!(r >= 1, "replica count must be at least 1");
        assert!(part < self.counts.len(), "partition {part} out of range");
        if self.counts[part] == r {
            return false;
        }
        self.counts[part] = r;
        self.generation += 1;
        true
    }

    /// Epoch-style generation: bumps on every effective
    /// [`ReplicaMap::set_count`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The raw per-partition counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Grows the map to `n_partitions` entries (new partitions — dynamic
    /// splits — start at `base`); never shrinks, never bumps the
    /// generation for pure growth.
    pub fn ensure_len(&mut self, n_partitions: usize, base: usize) {
        assert!(base >= 1, "replica count must be at least 1");
        if self.counts.len() < n_partitions {
            self.counts.resize(n_partitions, base);
        }
    }
}

/// SplitMix64 — the slot hash of the power-of-two-choices dispatch. A
/// fixed, seedless mix so the two candidate slots of a probe are a pure
/// function of `(query id, partition)`.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_shape_accessors() {
        let s = RoutingPolicy::Static(3);
        assert_eq!(s.base_replicas(), 3);
        assert_eq!(s.max_replicas(), 3);
        assert!(!s.is_adaptive());
        assert_eq!(s.label(), "static");
        let p = RoutingPolicy::PowerOfTwo { base: 1, max: 4 };
        assert_eq!(p.base_replicas(), 1);
        assert_eq!(p.max_replicas(), 4);
        assert!(p.is_adaptive());
        assert_eq!(p.label(), "po2");
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::Static(1));
    }

    #[test]
    #[should_panic]
    fn inverted_po2_shape_rejected() {
        RoutingPolicy::PowerOfTwo { base: 3, max: 2 }.validate();
    }

    #[test]
    #[should_panic]
    fn zero_static_rejected() {
        RoutingPolicy::Static(0).validate();
    }

    #[test]
    fn replica_map_generation_bumps_only_on_change() {
        let mut m = ReplicaMap::uniform(4, 1);
        assert_eq!(m.generation(), 0);
        assert_eq!(m.count(2), 1);
        assert!(m.set_count(2, 3));
        assert_eq!(m.generation(), 1);
        assert_eq!(m.count(2), 3);
        assert!(!m.set_count(2, 3), "no-op set must not bump");
        assert_eq!(m.generation(), 1);
        assert!(m.set_count(2, 1));
        assert_eq!(m.generation(), 2);
    }

    #[test]
    fn replica_map_growth_defaults_and_out_of_range_reads() {
        let mut m = ReplicaMap::uniform(2, 2);
        assert_eq!(m.count(7), 1, "unknown partitions default to 1 replica");
        m.ensure_len(4, 2);
        assert_eq!(m.len(), 4);
        assert_eq!(m.count(3), 2);
        assert_eq!(m.generation(), 0, "growth is not a routing change");
        m.ensure_len(2, 2);
        assert_eq!(m.len(), 4, "never shrinks");
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
