//! Reusable per-thread search scratch space.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fastann_data::Neighbor;

/// Everything one search needs besides the index: the epoch-based visited
/// set, the beam's two heaps and the per-search counters.
///
/// Reusing one `SearchScratch` across searches makes a layer's setup
/// allocation-free. `mark` compares against the current epoch, so
/// forgetting every visited mark is a single counter bump. The candidate
/// min-heap and the result max-heap are cleared at the start of each
/// layer search and keep their capacity from one layer, probe or
/// construction search to the next.
#[derive(Debug, Default)]
pub struct SearchScratch {
    visited: Vec<u32>,
    epoch: u32,
    /// The beam's frontier: unexpanded candidates, nearest on top.
    pub(crate) candidates: BinaryHeap<Reverse<Neighbor>>,
    /// The beam's result set: the best `ef` found so far, worst on top.
    pub(crate) results: BinaryHeap<Neighbor>,
    /// Distance evaluations performed by the search currently using this
    /// scratch. Read via [`SearchScratch::ndist`].
    pub(crate) ndist: u64,
    /// Subset of `ndist` evaluated in the quantized (SQ8 asymmetric)
    /// domain; `ndist - ndist_quant` is the exact-evaluation count.
    pub(crate) ndist_quant: u64,
    /// Beam pushes performed by the current search (layer 0).
    pub(crate) heap_pushes: u64,
    /// Beam-full evictions performed by the current search (layer 0).
    pub(crate) ef_churn: u64,
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

    #[test]
    fn begin_clears_ndist() {
        let mut s = SearchScratch::with_capacity(2);
        s.ndist = 55;
        s.begin(2);
        assert_eq!(s.ndist(), 0);
    }
}
