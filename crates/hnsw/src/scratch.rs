//! Reusable per-thread search scratch space.
//!
//! Besides the visited set and the counters, a scratch carries the
//! layer search's [`Beam`]: one sorted, `ef`-bounded pool that plays both
//! of HNSW Algorithm 2's sets. Its entries are the result set `W`; the
//! unexpanded ones, together with a short spill list, are the candidate
//! set `C`. Every search on one thread — probes, descent beams and
//! construction searches alike — reuses the same buffers.

use fastann_data::Neighbor;

/// Everything one search needs besides the index: the epoch-based visited
/// set, the layer search's beam and the per-search counters.
///
/// Reusing one `SearchScratch` across searches makes a layer's setup
/// allocation-free. `mark` compares against the current epoch, so
/// forgetting every visited mark is a single counter bump. The beam is
/// reset at the start of each layer search and keeps its capacity from
/// one layer, probe or construction search to the next.
#[derive(Debug, Default)]
pub struct SearchScratch {
    visited: Vec<u32>,
    epoch: u32,
    /// The layer search's result and candidate sets.
    pub(crate) beam: Beam,
    /// Distance evaluations performed by the search currently using this
    /// scratch. Read via [`SearchScratch::ndist`].
    pub(crate) ndist: u64,
    /// Subset of `ndist` evaluated in the quantized (SQ8 asymmetric)
    /// domain; `ndist - ndist_quant` is the exact-evaluation count.
    pub(crate) ndist_quant: u64,
    /// Candidates admitted to the beam by the current search (seeds
    /// included).
    pub(crate) heap_pushes: u64,
    /// Admissions to a full beam by the current search, each evicting the
    /// then-worst entry.
    pub(crate) ef_churn: u64,
}

/// The beam of one `ef`-bounded best-first layer search (HNSW
/// Algorithm 2), bit-identical to the textbook pair of heaps.
///
/// `pool` holds the best `ef` entries found so far in `(dist, id)` order,
/// each flagged once expanded: it is the result set `W`. The candidate
/// set `C` is every unexpanded pool entry plus `spill`: seeds a full pool
/// turned away and unexpanded entries pushed off its end. A spilled
/// entry was never better than the pool's worst at the time, and the
/// worst only improves, so every spilled entry sorts after every pool
/// entry. `C`'s nearest member is therefore the pool's first unexpanded
/// entry while one is left, and the least spilled entry after that.
/// Algorithm 2 stops once `C`'s nearest is strictly farther than `W`'s
/// worst, so a spilled entry is expanded only when it ties the worst
/// distance.
#[derive(Debug, Default)]
pub(crate) struct Beam {
    ef: usize,
    /// Up to `ef` entries ascending by `(dist, id)`, with expanded flags.
    pool: Vec<(Neighbor, bool)>,
    /// Every pool entry before `next` is expanded.
    next: usize,
    /// Unexpanded candidates outside the pool, nearest last.
    spill: Vec<Neighbor>,
}

impl Beam {
    /// Empties the beam for a search of width `ef`.
    pub(crate) fn reset(&mut self, ef: usize) {
        self.ef = ef;
        self.pool.clear();
        self.next = 0;
        self.spill.clear();
    }

    /// `true` when the pool holds `ef` entries.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.pool.len() >= self.ef
    }

    /// The worst pool entry.
    #[inline]
    fn worst(&self) -> Option<Neighbor> {
        self.pool.last().map(|e| e.0)
    }

    /// Adds a seed. It enters the pool while there is room or when it
    /// sorts before the worst entry; otherwise it waits in the spill list.
    /// Call [`Beam::seeded`] after the last seed.
    pub(crate) fn seed(&mut self, n: Neighbor) {
        if !self.is_full() || self.worst().is_some_and(|w| n < w) {
            self.insert(n);
        } else {
            self.spill.push(n);
        }
    }

    /// Ends seeding: orders the spill list nearest last. Every later spill
    /// sorts before all earlier ones, so the order holds from here on.
    pub(crate) fn seeded(&mut self) {
        self.spill.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Offers a neighbour found by an expansion. It enters while there is
    /// room or when its distance is strictly below the worst entry's.
    /// Returns whether it entered.
    #[inline]
    pub(crate) fn admit(&mut self, n: Neighbor) -> bool {
        if self.is_full() && !self.worst().is_some_and(|w| n.dist < w.dist) {
            return false;
        }
        self.insert(n);
        true
    }

    /// Inserts `n` in order, first evicting the worst entry when full.
    #[inline]
    fn insert(&mut self, n: Neighbor) {
        if self.is_full() {
            if let Some((old, false)) = self.pool.pop() {
                self.spill.push(old);
            }
        }
        let at = self.pool.partition_point(|e| e.0 < n);
        self.pool.insert(at, (n, false));
        self.next = self.next.min(at);
    }

    /// The next candidate to expand, marked expanded, or `None` once the
    /// nearest candidate is strictly farther than the worst entry or no
    /// candidate is left.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Neighbor> {
        while let Some(e) = self.pool.get_mut(self.next) {
            self.next += 1;
            if !e.1 {
                e.1 = true;
                return Some(e.0);
            }
        }
        let c = self.spill.pop()?;
        if self.worst().is_some_and(|w| c.dist > w.dist) {
            return None;
        }
        Some(c)
    }

    /// Replaces `out` with the pool's entries, ascending.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<Neighbor>) {
        out.clear();
        out.extend(self.pool.drain(..).map(|e| e.0));
    }
}

impl SearchScratch {
    /// Creates scratch sized for an `n`-point index (it grows on demand).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            visited: vec![0; n],
            ..Self::default()
        }
    }

    /// Starts a new search: bumps the epoch and clears the per-search
    /// counters.
    pub(crate) fn begin(&mut self, n: usize) {
        self.new_epoch(n);
        self.ndist = 0;
        self.ndist_quant = 0;
        self.heap_pushes = 0;
        self.ef_churn = 0;
    }

    /// Forgets all visited marks without touching the distance counter.
    /// Each layer of a multi-layer search gets a fresh epoch while the
    /// search-wide `ndist` keeps accumulating.
    pub(crate) fn new_epoch(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // epoch wrapped: hard reset to avoid stale marks
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
    }

    /// Marks `id` visited; returns `true` if it was not visited before.
    #[inline]
    pub(crate) fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.visited[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Distance evaluations in the search that last used this scratch.
    pub fn ndist(&self) -> u64 {
        self.ndist
    }

    /// Quantized-domain distance evaluations in the search that last used
    /// this scratch (a subset of [`SearchScratch::ndist`]).
    pub fn ndist_quant(&self) -> u64 {
        self.ndist_quant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_once_per_epoch() {
        let mut s = SearchScratch::with_capacity(4);
        s.begin(4);
        assert!(s.mark(2));
        assert!(!s.mark(2));
        assert!(s.mark(0));
        s.begin(4);
        assert!(s.mark(2), "new epoch forgets old marks");
    }

    #[test]
    fn grows_on_demand() {
        let mut s = SearchScratch::with_capacity(1);
        s.begin(10);
        assert!(s.mark(9));
    }

    #[test]
    fn epoch_wrap_resets() {
        let mut s = SearchScratch::with_capacity(2);
        s.epoch = u32::MAX;
        s.begin(2);
        assert_eq!(s.epoch, 1);
        assert!(s.mark(0));
    }

    fn n(id: u32, dist: f32) -> Neighbor {
        Neighbor::new(id, dist)
    }

    #[test]
    fn beam_expands_nearest_unexpanded_first() {
        let mut b = Beam::default();
        b.reset(3);
        b.seed(n(0, 5.0));
        b.seeded();
        assert_eq!(b.pop(), Some(n(0, 5.0)));
        assert!(b.admit(n(1, 3.0)));
        assert!(b.admit(n(2, 4.0)));
        assert_eq!(b.pop(), Some(n(1, 3.0)));
        // a nearer entry lands before the cursor and is expanded next
        assert!(b.admit(n(3, 1.0)));
        assert_eq!(b.pop(), Some(n(3, 1.0)));
        assert_eq!(b.pop(), Some(n(2, 4.0)));
        assert_eq!(b.pop(), None);
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert_eq!(out, vec![n(3, 1.0), n(1, 3.0), n(2, 4.0)]);
    }

    #[test]
    fn full_beam_admits_only_strictly_nearer() {
        let mut b = Beam::default();
        b.reset(2);
        b.seed(n(0, 1.0));
        b.seed(n(1, 2.0));
        b.seeded();
        assert!(b.is_full());
        assert!(!b.admit(n(2, 2.0)), "a tie with the worst stays out");
        assert!(b.admit(n(3, 1.5)));
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert_eq!(out, vec![n(0, 1.0), n(3, 1.5)]);
    }

    #[test]
    fn spilled_candidates_expand_only_on_a_tie_with_the_worst() {
        let mut b = Beam::default();
        b.reset(1);
        b.seed(n(5, 2.0));
        b.seed(n(4, 1.0)); // evicts the unexpanded seed 5
        b.seed(n(6, 1.0)); // ties the worst but sorts after it: spilled
        b.seeded();
        assert_eq!(b.pop(), Some(n(4, 1.0)));
        assert_eq!(b.pop(), Some(n(6, 1.0)), "a tie is still expanded");
        assert_eq!(b.pop(), None, "seed 5 is strictly worse: stop");
    }

    #[test]
    fn begin_clears_ndist() {
        let mut s = SearchScratch::with_capacity(2);
        s.ndist = 55;
        s.begin(2);
        assert_eq!(s.ndist(), 0);
    }
}
