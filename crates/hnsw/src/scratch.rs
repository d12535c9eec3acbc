//! Reusable per-thread search scratch space.
//!
//! Besides the visited set and the counters, a scratch carries the
//! layer search's [`Beam`]: one sorted, `ef`-bounded pool that plays both
//! of HNSW Algorithm 2's sets. Its entries are the result set `W`; the
//! unexpanded ones, together with a short spill list, are the candidate
//! set `C`. Every search on one thread — probes, descent beams and
//! construction searches alike — reuses the same buffers, so a probe on
//! warm scratch allocates only its answer.
//!
//! The beam stores each entry as one `u64` [`key`]: the distance's
//! `total_cmp` order bits in the high half and `id << 1 | expanded` in
//! the low half, so integer order is [`Neighbor`]'s order and keeping
//! the pool sorted is word compares and moves. Its admission and stop
//! tests stay float comparisons on the decoded distance, as in the
//! textbook heaps: −0.0 and +0.0 tie there, and NaN never passes, while
//! the key order is total and would decide both differently.

use fastann_data::quant::Sq8Query;
use fastann_data::Neighbor;

use crate::select::Selection;

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
    /// The layer search's buffer for the not-yet-visited neighbours of
    /// the node it expands.
    pub(crate) fresh: Vec<u32>,
    /// The query of an SQ8 search, prepared for the asymmetric distance.
    pub(crate) query: Sq8Query,
    /// A search's descent seeds, then its layer-0 beam's survivors (an
    /// insert's beam, layer by layer).
    pub(crate) seeds: Vec<Neighbor>,
    /// An insert's or overflow's neighbour selection.
    pub(crate) select: Selection,
    /// The links an insert or repair has just chosen, while it links
    /// them back (which reuses `select`).
    pub(crate) links: Vec<Neighbor>,
    /// The exact scores of a quantized search's re-rank pool.
    pub(crate) rerank: Vec<Neighbor>,
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
///
/// Entries are packed [`key`]s, so keeping the pool sorted is integer
/// compares and word moves. The admission and stop tests still compare
/// the decoded distances as floats, which is what the heaps did: float
/// `<` calls −0.0 and +0.0 equal and is false against NaN, where the key
/// order is total.
#[derive(Debug, Default)]
pub(crate) struct Beam {
    ef: usize,
    /// Up to `ef` keys, ascending.
    pool: Vec<u64>,
    /// Every pool entry before `next` is expanded.
    next: usize,
    /// Keys of unexpanded candidates outside the pool, nearest last.
    spill: Vec<u64>,
}

/// Packs `n`, unexpanded, into one `u64` whose integer order is
/// [`Neighbor`]'s order (`f32::total_cmp` on the distance, then the id).
/// The high half is the distance's bits mapped so that unsigned order is
/// `total_cmp` order: a negative float has every bit flipped, any other
/// float only its sign bit. The low half is `id << 1 | expanded`, so ids
/// must fit in 31 bits; the flag orders nothing, because one search
/// holds an id at most once.
///
/// # Panics
/// Panics if `n.id` is `2³¹` or more.
#[inline]
fn key(n: Neighbor) -> u64 {
    assert!(n.id < ID_LIMIT, "beam ids must fit in 31 bits");
    u64::from(total_order_bits(n.dist)) << 32 | u64::from(n.id) << 1
}

/// `d`'s bits mapped so that unsigned order is `f32::total_cmp` order: a
/// negative float has every bit flipped, any other float only its sign
/// bit.
#[inline]
pub(crate) fn total_order_bits(d: f32) -> u32 {
    let b = d.to_bits();
    b ^ (((b as i32 >> 31) as u32) | SIGN)
}

/// The neighbour packed in `k`, bit for bit.
#[inline]
fn unkey(k: u64) -> Neighbor {
    let ord = (k >> 32) as u32;
    let b = ord ^ (!(ord as i32 >> 31) as u32 | SIGN);
    Neighbor::new((k as u32) >> 1, f32::from_bits(b))
}

/// The expanded flag of a key.
const EXPANDED: u64 = 1;

/// An `f32`'s sign bit.
const SIGN: u32 = 1 << 31;

/// Ids a beam can hold: the key keeps 31 bits of id.
const ID_LIMIT: u32 = 1 << 31;

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

    /// The worst pool entry's distance.
    #[inline]
    fn worst_dist(&self) -> Option<f32> {
        self.pool.last().map(|&k| unkey(k).dist)
    }

    /// Adds a seed. It enters the pool while there is room or when it
    /// sorts before the worst entry; otherwise it waits in the spill list.
    /// Call [`Beam::seeded`] after the last seed.
    pub(crate) fn seed(&mut self, n: Neighbor) {
        let k = key(n);
        if !self.is_full() || self.pool.last().is_some_and(|&w| k < w) {
            self.insert(k);
        } else {
            self.spill.push(k);
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
        if self.is_full() && !self.worst_dist().is_some_and(|w| n.dist < w) {
            return false;
        }
        self.insert(key(n));
        true
    }

    /// Inserts key `k` in order, first evicting the worst entry when full:
    /// shifts the larger keys up one slot from the end.
    #[inline]
    fn insert(&mut self, k: u64) {
        if self.is_full() {
            if let Some(old) = self.pool.pop() {
                if old & EXPANDED == 0 {
                    self.spill.push(old);
                }
            }
        }
        self.pool.push(k);
        let pool = &mut self.pool[..];
        let mut at = pool.len() - 1;
        while at > 0 && pool[at - 1] > k {
            pool[at] = pool[at - 1];
            at -= 1;
        }
        pool[at] = k;
        self.next = self.next.min(at);
    }

    /// The next candidate to expand, marked expanded, or `None` once the
    /// nearest candidate is strictly farther than the worst entry or no
    /// candidate is left.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Neighbor> {
        while let Some(k) = self.pool.get_mut(self.next) {
            self.next += 1;
            if *k & EXPANDED == 0 {
                *k |= EXPANDED;
                return Some(unkey(*k));
            }
        }
        let c = unkey(self.spill.pop()?);
        if self.worst_dist().is_some_and(|w| c.dist > w) {
            return None;
        }
        Some(c)
    }

    /// Replaces `out` with the pool's entries, ascending.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<Neighbor>) {
        out.clear();
        out.extend(self.pool.drain(..).map(unkey));
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
    /// The store is unconditional, so the caller can count fresh ids
    /// without a branch.
    #[inline]
    pub(crate) fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.visited[id as usize];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }

    /// Marks every id of `links` visited and writes the ones not visited
    /// before to the front of `out`, in list order. Returns how many.
    #[inline]
    pub(crate) fn mark_fresh(&mut self, links: &[u32], out: &mut Vec<u32>) -> usize {
        if out.len() < links.len() {
            out.resize(links.len(), 0);
        }
        let mut n = 0;
        for &id in links {
            out[n] = id;
            n += usize::from(self.mark(id));
        }
        n
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
    fn mark_fresh_keeps_the_unvisited_in_list_order() {
        let mut s = SearchScratch::with_capacity(8);
        s.begin(8);
        assert!(s.mark(3));
        let mut out = vec![9; 2];
        let n = s.mark_fresh(&[5, 3, 1, 5, 7], &mut out);
        assert_eq!(&out[..n], &[5, 1, 7], "3 was visited, 5 repeats");
        assert_eq!(s.mark_fresh(&[1, 7], &mut out), 0);
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
    fn key_order_is_neighbor_order() {
        let dists = [
            f32::NEG_INFINITY,
            -1.5,
            -f32::from_bits(1), // the negative subnormal nearest zero
            -0.0,
            0.0,
            f32::from_bits(1), // the least positive subnormal
            f32::MIN_POSITIVE,
            2.0,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut all = Vec::new();
        for (i, &d) in dists.iter().enumerate() {
            // equal distances under two ids, the lower id second
            all.push(n(2 * i as u32 + 7, d));
            all.push(n(i as u32, d));
        }
        all.push(n(ID_LIMIT - 1, 2.0));
        for &a in &all {
            let back = unkey(key(a));
            assert_eq!((back.id, back.dist.to_bits()), (a.id, a.dist.to_bits()));
            for &b in &all {
                assert_eq!(key(a).cmp(&key(b)), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn full_beam_keeps_float_ties_between_signed_zeros() {
        let mut b = Beam::default();
        b.reset(1);
        b.seed(n(3, 0.0));
        b.seeded();
        // -0.0 sorts before +0.0 in key order, but float `<` calls them
        // equal, so the admission is refused as the heaps refused it
        assert!(!b.admit(n(4, -0.0)));
        assert!(!b.admit(n(5, f32::NAN)));
        assert_eq!(b.pop(), Some(n(3, 0.0)));
        assert_eq!(b.pop(), None);
    }

    #[test]
    #[should_panic(expected = "31 bits")]
    fn beam_refuses_an_id_beyond_31_bits() {
        let mut b = Beam::default();
        b.reset(2);
        b.seed(n(ID_LIMIT, 1.0));
    }

    #[test]
    #[should_panic(expected = "31 bits")]
    fn beam_refuses_an_admission_beyond_31_bits() {
        let mut b = Beam::default();
        b.reset(2);
        b.admit(n(u32::MAX, 1.0));
    }

    #[test]
    fn begin_clears_ndist() {
        let mut s = SearchScratch::with_capacity(2);
        s.ndist = 55;
        s.begin(2);
        assert_eq!(s.ndist(), 0);
    }
}
