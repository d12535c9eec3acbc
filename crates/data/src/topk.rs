//! Streaming top-k selection of nearest neighbours.
//!
//! [`TopK`] is a bounded max-heap keyed on distance: it retains the `k`
//! smallest-distance [`Neighbor`]s seen so far and exposes the current worst
//! (k-th) distance for search pruning. The tree and brute-force searches
//! funnel candidates through it, and it is the unit the distributed engine
//! merges across partitions. The HNSW layer beam keeps its own sorted
//! pool in the same order (see [`TopK::push`]).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One search result: a dataset row id and its distance to the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Row id in the dataset the search ran over.
    pub id: u32,
    /// Distance from the query to that row.
    pub dist: f32,
}

impl Neighbor {
    /// Convenience constructor.
    #[inline]
    pub fn new(id: u32, dist: f32) -> Self {
        Self { id, dist }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Total order by distance (via `f32::total_cmp`), ties broken by id so
    /// that merged results are deterministic across partition orderings.
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded max-heap retaining the `k` nearest neighbours seen so far.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates an empty collector for the `k` nearest neighbours.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The configured `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbours currently held (`<= k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no neighbour has been offered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` once `k` neighbours are held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Offers a candidate; keeps it only if it improves the current top-k.
    /// Returns `true` when the candidate was retained.
    ///
    /// Offering an exact duplicate (same id, same distance bits) of a
    /// neighbour already held is a no-op. Distributed merges can see the
    /// same `(id, dist)` more than once — replicated probes, retried probes
    /// after a timeout, overlapping partial results — and without the
    /// duplicate check the merged top-k would depend on probe arrival
    /// order: a duplicate arriving early eats a slot (or evicts a distinct
    /// worse candidate) that a distinct candidate arriving late can no
    /// longer claim.
    ///
    /// The distributed merge relies on the check. The HNSW layer beam and
    /// the exact re-rank of quantized survivors do not use `TopK`: the
    /// visited set admits each id once, so the beam keeps its own sorted
    /// pool with the same replace-the-worst rule and no scan, and the
    /// re-rank sorts its distinct-id pool and keeps the first `k`.
    #[inline]
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.k {
            if self.contains_exact(n) {
                return false;
            }
            self.heap.push(n);
            true
        } else if n < *self.heap.peek().expect("non-empty full heap") {
            if self.contains_exact(n) {
                return false;
            }
            // Strictly better than the current worst: replace it.
            *self.heap.peek_mut().expect("non-empty full heap") = n;
            true
        } else {
            false
        }
    }

    /// `true` when an exact copy of `n` is already held. O(k) scan, taken
    /// only on the would-retain paths of [`TopK::push`]; k is small.
    #[inline]
    fn contains_exact(&self, n: Neighbor) -> bool {
        self.heap
            .iter()
            .any(|m| m.id == n.id && m.dist.to_bits() == n.dist.to_bits())
    }

    /// Current worst retained distance — the pruning radius. `f32::INFINITY`
    /// until the collector is full, so that searches never prune while fewer
    /// than `k` candidates have been found.
    #[inline]
    pub fn prune_radius(&self) -> f32 {
        if self.is_full() {
            self.heap.peek().map_or(f32::INFINITY, |n| n.dist)
        } else {
            f32::INFINITY
        }
    }

    /// The worst distance currently held (regardless of fullness); `None`
    /// when empty.
    #[inline]
    pub fn worst(&self) -> Option<Neighbor> {
        self.heap.peek().copied()
    }

    /// Merges another collector into this one (used when combining local
    /// partition results into a global answer).
    pub fn merge(&mut self, other: &TopK) {
        for &n in other.heap.iter() {
            self.push(n);
        }
    }

    /// Consumes the collector, returning neighbours sorted by ascending
    /// distance (ties by id).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Returns a sorted copy without consuming the collector.
    pub fn to_sorted(&self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0u32, 5.0f32), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            t.push(Neighbor::new(id, d));
        }
        let out = t.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(out[0].dist, 1.0);
    }

    #[test]
    fn push_reports_retention() {
        let mut t = TopK::new(2);
        assert!(t.push(Neighbor::new(0, 10.0)));
        assert!(t.push(Neighbor::new(1, 5.0)));
        assert!(!t.push(Neighbor::new(2, 20.0)));
        assert!(t.push(Neighbor::new(3, 1.0)));
    }

    #[test]
    fn prune_radius_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.prune_radius(), f32::INFINITY);
        t.push(Neighbor::new(0, 1.0));
        assert_eq!(t.prune_radius(), f32::INFINITY);
        t.push(Neighbor::new(1, 2.0));
        assert_eq!(t.prune_radius(), 2.0);
        t.push(Neighbor::new(2, 0.5));
        assert_eq!(t.prune_radius(), 1.0);
    }

    #[test]
    fn merge_equals_bulk_insert() {
        let items: Vec<Neighbor> = (0..20)
            .map(|i| Neighbor::new(i, ((i * 7) % 13) as f32))
            .collect();
        let mut a = TopK::new(5);
        let mut b = TopK::new(5);
        for n in &items[..10] {
            a.push(*n);
        }
        for n in &items[10..] {
            b.push(*n);
        }
        let mut merged = TopK::new(5);
        merged.merge(&a);
        merged.merge(&b);

        let mut direct = TopK::new(5);
        for n in &items {
            direct.push(*n);
        }
        assert_eq!(merged.into_sorted(), direct.into_sorted());
    }

    #[test]
    fn tie_break_by_id_is_deterministic() {
        let mut t = TopK::new(2);
        t.push(Neighbor::new(7, 1.0));
        t.push(Neighbor::new(3, 1.0));
        t.push(Neighbor::new(5, 1.0));
        let out = t.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn handles_fewer_than_k() {
        let mut t = TopK::new(10);
        t.push(Neighbor::new(1, 2.0));
        t.push(Neighbor::new(0, 1.0));
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 0);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn merge_slice_and_to_sorted() {
        let mut t = TopK::new(2);
        for n in [
            Neighbor::new(0, 3.0),
            Neighbor::new(1, 1.0),
            Neighbor::new(2, 2.0),
        ] {
            t.push(n);
        }
        assert_eq!(
            t.to_sorted().iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // to_sorted does not consume
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn k_larger_than_candidate_count_returns_all() {
        let mut t = TopK::new(100);
        for i in 0..7u32 {
            t.push(Neighbor::new(i, i as f32));
        }
        assert!(!t.is_full());
        assert_eq!(
            t.prune_radius(),
            f32::INFINITY,
            "never prune below k results"
        );
        let out = t.into_sorted();
        assert_eq!(out.len(), 7, "k > n yields every candidate, not k");
        for w in out.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn duplicate_distances_select_lowest_ids() {
        // every candidate at the same distance: the id tie-break must pick a
        // unique, deterministic subset (the k smallest ids)
        let mut t = TopK::new(3);
        for id in [9u32, 2, 7, 4, 1, 8] {
            t.push(Neighbor::new(id, 5.0));
        }
        let out = t.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 2, 4]);
        // an exact duplicate of a retained entry must be rejected, not
        // double-counted
        let mut t = TopK::new(2);
        assert!(t.push(Neighbor::new(3, 1.0)));
        assert!(t.push(Neighbor::new(4, 2.0)));
        assert!(
            !t.push(Neighbor::new(4, 2.0)),
            "identical candidate is not 'better'"
        );
        assert_eq!(t.into_sorted().len(), 2);
    }

    #[test]
    fn empty_partition_merges_are_noops() {
        // the engine merges per-partition results; an empty partition (or a
        // degraded probe that never answered) contributes an empty collector
        let mut full = TopK::new(3);
        for n in [Neighbor::new(0, 1.0), Neighbor::new(1, 2.0)] {
            full.push(n);
        }
        let before = full.to_sorted();

        let empty = TopK::new(3);
        full.merge(&empty);
        assert_eq!(full.to_sorted(), before, "merging nothing changes nothing");

        let mut target = TopK::new(3);
        target.merge(&full);
        assert_eq!(
            target.to_sorted(),
            before,
            "merge into empty copies content"
        );

        let mut both = TopK::new(3);
        both.merge(&TopK::new(3));
        assert!(both.is_empty());
        assert_eq!(both.into_sorted(), vec![]);
    }

    #[test]
    fn merge_order_is_irrelevant_even_with_ties() {
        let a_items = [
            Neighbor::new(1, 1.0),
            Neighbor::new(3, 1.0),
            Neighbor::new(5, 2.0),
        ];
        let b_items = [
            Neighbor::new(2, 1.0),
            Neighbor::new(4, 2.0),
            Neighbor::new(6, 1.0),
        ];
        let mut a = TopK::new(4);
        let mut b = TopK::new(4);
        for (&x, &y) in a_items.iter().zip(&b_items) {
            a.push(x);
            b.push(y);
        }

        let mut ab = TopK::new(4);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = TopK::new(4);
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.into_sorted(), ba.into_sorted());
    }

    #[test]
    fn exact_duplicates_never_double_count() {
        // below capacity: the duplicate must not consume a slot …
        let mut t = TopK::new(3);
        assert!(t.push(Neighbor::new(1, 1.0)));
        assert!(!t.push(Neighbor::new(1, 1.0)), "duplicate while not full");
        assert!(t.push(Neighbor::new(2, 2.0)));
        assert!(t.push(Neighbor::new(3, 3.0)));
        assert_eq!(
            t.to_sorted().iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "slot freed by the rejected duplicate goes to a distinct candidate"
        );

        // … at capacity: a duplicate of a *better* entry must not evict the
        // distinct current worst (the pre-fix behaviour that made merges
        // depend on probe arrival order)
        let mut t = TopK::new(2);
        t.push(Neighbor::new(1, 1.0));
        t.push(Neighbor::new(9, 5.0));
        assert!(
            !t.push(Neighbor::new(1, 1.0)),
            "duplicate of a better entry"
        );
        assert_eq!(
            t.into_sorted().iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![1, 9],
            "the distinct worst entry survives"
        );

        // same id at a *different* distance is a distinct candidate
        let mut t = TopK::new(3);
        t.push(Neighbor::new(1, 2.0));
        assert!(t.push(Neighbor::new(1, 1.0)), "same id, better distance");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn neighbor_total_order_handles_nan() {
        // total_cmp places NaN after all finite values, so a NaN candidate
        // never displaces a real one.
        let mut t = TopK::new(1);
        t.push(Neighbor::new(0, 1.0));
        t.push(Neighbor::new(1, f32::NAN));
        assert_eq!(t.into_sorted()[0].id, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference semantics of a distributed merge: the distinct candidates
    /// (duplicates collapsed), sorted by (distance, id), first k.
    fn reference(cands: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut distinct: Vec<Neighbor> = Vec::new();
        for &c in cands {
            if !distinct
                .iter()
                .any(|d| d.id == c.id && d.dist.to_bits() == c.dist.to_bits())
            {
                distinct.push(c);
            }
        }
        distinct.sort_unstable();
        distinct.truncate(k);
        distinct
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn merge_is_invariant_under_arrival_order_and_sharding(
            k in 1usize..8,
            // small id/distance alphabets force heavy ties and duplicates —
            // exactly the regime where arrival order used to leak through
            ids in proptest::collection::vec(0u32..12, 1..40),
            rot in 0usize..40,
            cut in 0usize..40,
        ) {
            let cands: Vec<Neighbor> = ids
                .iter()
                .map(|&id| Neighbor::new(id, ((id * 7) % 3) as f32))
                .collect();
            let want = reference(&cands, k);

            // any rotation of the arrival order …
            let mut rotated = cands.clone();
            rotated.rotate_left(rot % cands.len());
            let mut direct = TopK::new(k);
            for &n in &rotated {
                direct.push(n);
            }
            prop_assert_eq!(&direct.into_sorted(), &want);

            // … and any 2-way sharding, merged in either order, agree
            let cut = cut % (cands.len() + 1);
            let (left, right) = cands.split_at(cut);
            let mut a = TopK::new(k);
            for &n in left {
                a.push(n);
            }
            let mut b = TopK::new(k);
            for &n in right {
                b.push(n);
            }
            let mut ab = TopK::new(k);
            ab.merge(&a);
            ab.merge(&b);
            let mut ba = TopK::new(k);
            ba.merge(&b);
            ba.merge(&a);
            prop_assert_eq!(&ab.into_sorted(), &want);
            prop_assert_eq!(&ba.into_sorted(), &want);
        }
    }
}
