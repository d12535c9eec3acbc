//! Link storage for the layered HNSW graph.
//!
//! Layer 0, where every node lives and every search spends its beam, is
//! one fixed-stride slab: node `u`'s links fill the first `degree[u]` of
//! the `m_max0` slots starting at `u * m_max0`. Expanding a node is one
//! bounds-checked slice of that slab, with no pointer to chase. The slab
//! reserves `4 * m_max0` bytes per node plus a 4-byte degree and needs no
//! per-node allocation.
//!
//! Upper layers hold only the ≈1/M of nodes promoted above layer 0, so
//! they stay per-node vectors: `upper[u][l - 1]` holds node `u`'s links
//! at layer `l`, and a level-0 node carries one empty, unallocated list.
//!
//! While [`crate::Hnsw::build`] runs, the graph also keeps a transient
//! layer-0 [`Memo`] aligned with the link slots, so an overflowing list is
//! reselected from facts it already holds. Search, serialization and the
//! memory accounting never see it.
//!
//! Nothing here is shared mutably across threads: a graph is built by
//! one thread and only read concurrently, so plain vectors suffice.

use fastann_data::Neighbor;

use crate::select::{BitRows, PairBits, Selection};

/// The whole graph's adjacency, for nodes `0..n`.
#[derive(Debug)]
pub(crate) struct Graph {
    /// Slot count per node in `base`: the layer-0 degree bound.
    m_max0: usize,
    /// Layer-0 links, `m_max0` slots per node.
    base: Vec<u32>,
    /// Layer-0 degree per node: how many of its slots are links.
    degree: Vec<u32>,
    /// `upper[u][l - 1]` holds node `u`'s links at layer `l`, for
    /// `1 <= l <= level(u)`.
    upper: Vec<Vec<Vec<u32>>>,
    /// The build-time facts about every layer-0 list; `None` outside
    /// [`crate::Hnsw::build`].
    memo: Option<Memo>,
}

/// Facts about each node's layer-0 links: the node's distance to each
/// link, and the outcome of every neighbour-heuristic pair check decided
/// among its links with the node as owner.
///
/// Each fact is a pure function of the owner and one or two of its links'
/// stored points, so it stays true for as long as those links do. A link
/// keeps one memo slot for as long as it stays in the list, whatever
/// order reselections give the list; pair facts are indexed by memo
/// slot, so a reselection never renumbers them. A node has one memo slot
/// more than it has link slots: an overflow's newcomer takes the spare.
/// Every layer-0 list mutation keeps the memo aligned: an appended link
/// takes a free slot and records its distance, and a removed or dropped
/// link frees its slot, whose row and column of facts are cleared. A free
/// slot's row and column are always clear.
#[derive(Debug)]
struct Memo {
    /// Memo slots per node: `m_max0 + 1`.
    width: usize,
    /// `slot[u * m_max0 + i]` is the memo slot of node `u`'s link `i`.
    slot: Vec<u32>,
    /// `dist[u * width + s]` is node `u`'s distance to the link in memo
    /// slot `s`.
    dist: Vec<f32>,
    /// Occupied memo slots, one `width`-bit row per node.
    used: BitRows,
    /// Row `u * width + s` holds the pair checks of the link in memo slot
    /// `s` against `u`'s other links.
    pairs: PairBits,
}

impl Memo {
    /// The first row of node `u`'s facts.
    fn first(&self, u: u32) -> usize {
        u as usize * self.width
    }

    /// A free memo slot of node `u`.
    fn free_slot(&self, u: u32) -> usize {
        self.used
            .first_clear(u as usize)
            .expect("a node has a memo slot to spare")
    }

    /// Frees memo slot `s` of node `u`: clears its row and its column.
    fn free(&mut self, u: u32, s: usize) {
        let first = self.first(u);
        self.used.clear(u as usize, s);
        self.pairs.clear_rows(first + s, 1);
        self.pairs.clear_column(first, self.width, s);
    }
}

/// Pre-sizes one node's upper-layer lists for a draw of `level`:
/// capacity `m` at each layer above 0.
fn upper_with_level(level: usize, m: usize) -> Vec<Vec<u32>> {
    (0..level).map(|_| Vec::with_capacity(m)).collect()
}

impl Graph {
    /// Pre-allocates adjacency for `levels[i]`-level nodes.
    pub fn for_levels(levels: &[u8], m: usize, m_max0: usize) -> Self {
        Self {
            m_max0,
            base: vec![0; levels.len() * m_max0],
            degree: vec![0; levels.len()],
            upper: levels
                .iter()
                .map(|&l| upper_with_level(l as usize, m))
                .collect(),
            memo: None,
        }
    }

    /// Starts keeping the layer-0 memo. Every layer-0 list must be empty.
    pub fn keep_memo(&mut self) {
        assert!(
            self.degree.iter().all(|&d| d == 0),
            "the memo starts on an unlinked graph"
        );
        let n = self.degree.len();
        let width = self.m_max0 + 1;
        let (mut used, mut pairs) = (BitRows::default(), PairBits::default());
        used.reset(n, width);
        pairs.reset(n * width, width);
        self.memo = Some(Memo {
            width,
            slot: vec![0; n * self.m_max0],
            dist: vec![0.0; n * width],
            used,
            pairs,
        });
    }

    /// Drops the layer-0 memo.
    pub fn drop_memo(&mut self) {
        self.memo = None;
    }

    /// `true` while the memo is kept and `layer` is layer 0.
    pub fn memo_covers(&self, layer: usize) -> bool {
        layer == 0 && self.memo.is_some()
    }

    /// Bytes the layer-0 memo holds, `0` when none is kept.
    #[cfg(test)]
    pub fn memo_bytes(&self) -> usize {
        self.memo.as_ref().map_or(0, |m| {
            4 * (m.slot.len() + m.dist.len()) + m.used.bytes() + m.pairs.bytes()
        })
    }

    /// Checks the memo against a recomputation over `data` with `dist`:
    /// each link holds its own memo slot, marked used, with its distance
    /// bit for bit; each decided pair lies between two used slots, is
    /// filed under the farther link, and holds the right outcome; free
    /// slots have no facts. `Ok` when no memo is kept.
    #[cfg(test)]
    pub fn check_memo(
        &self,
        data: &fastann_data::VectorSet,
        dist: fastann_data::Distance,
    ) -> Result<(), String> {
        let Some(memo) = &self.memo else {
            return Ok(());
        };
        for u in 0..self.degree.len() as u32 {
            let (first, links) = (memo.first(u), self.neighbors(u, 0));
            let slots = &memo.slot[u as usize * self.m_max0..][..links.len()];
            let mut link_in = vec![None; memo.width];
            for (i, (&l, &s)) in links.iter().zip(slots).enumerate() {
                let s = s as usize;
                if link_in[s].replace(i).is_some() || !memo.used.get(u as usize, s) {
                    return Err(format!(
                        "node {u}: memo slot {s} is not its link {i}'s alone"
                    ));
                }
                let d = dist.eval(data.get(u as usize), data.get(l as usize));
                if d.to_bits() != memo.dist[first + s].to_bits() {
                    return Err(format!("node {u}: stale distance to link {i}"));
                }
            }
            let at = |s: usize| {
                let i = link_in[s].expect("a linked slot");
                Neighbor::new(links[i], memo.dist[first + s])
            };
            for a in 0..memo.width {
                if link_in[a].is_none() && memo.used.get(u as usize, a) {
                    return Err(format!("node {u}: memo slot {a} is used by no link"));
                }
                for b in 0..memo.width {
                    let Some(shadowed) = memo.pairs.get(first + a, b) else {
                        continue;
                    };
                    if link_in[a].is_none() || link_in[b].is_none() {
                        return Err(format!("node {u}: pair ({a}, {b}) in a free slot"));
                    }
                    let (far, near) = (at(a), at(b));
                    if far <= near {
                        return Err(format!("node {u}: pair ({a}, {b}) filed under the nearer"));
                    }
                    let d = dist.eval(data.get(far.id as usize), data.get(near.id as usize));
                    if (d < far.dist) != shadowed {
                        return Err(format!("node {u}: stale outcome of pair ({a}, {b})"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads node `u`'s layer-0 links, with their memo distances, and the
    /// newcomer `to`, in a spare memo slot, into `sel` as candidates, and
    /// lends `sel` the memo's decided pair checks of `u`.
    ///
    /// # Panics
    /// Panics when no memo is kept.
    pub fn load_memo(
        &mut self,
        u: u32,
        to: Neighbor,
        sel: &mut Selection,
    ) -> (&mut PairBits, usize) {
        let memo = self.memo.as_mut().expect("the memo is kept");
        let first = memo.first(u);
        let links = &self.base[u as usize * self.m_max0..][..self.degree[u as usize] as usize];
        let slots = &memo.slot[u as usize * self.m_max0..];
        for (&l, &s) in links.iter().zip(slots) {
            sel.push_in(Neighbor::new(l, memo.dist[first + s as usize]), s);
        }
        let spare = memo.free_slot(u);
        memo.dist[first + spare] = to.dist;
        sel.push_in(to, spare as u32);
        sel.lent_by(u);
        (&mut memo.pairs, first)
    }

    /// Node `u`'s layer-0 slots (links and free space).
    #[inline]
    fn slots(&self, u: u32) -> std::ops::Range<usize> {
        let start = u as usize * self.m_max0;
        start..start + self.m_max0
    }

    /// Node `u`'s neighbour list at `layer` (empty above its level).
    #[inline]
    pub fn neighbors(&self, u: u32, layer: usize) -> &[u32] {
        if layer == 0 {
            let start = u as usize * self.m_max0;
            &self.base[start..start + self.degree[u as usize] as usize]
        } else {
            self.upper[u as usize]
                .get(layer - 1)
                .map_or(&[], Vec::as_slice)
        }
    }

    /// Number of layer lists node `u` stores (`level + 1` when valid).
    pub fn layer_count(&self, u: u32) -> usize {
        1 + self.upper[u as usize].len()
    }

    /// Replaces node `u`'s neighbour list at `layer`.
    ///
    /// # Panics
    /// Panics if a layer-0 list exceeds `m_max0` links, or is written while
    /// the memo is kept (a memo needs the links' distances: see
    /// [`Graph::set_chosen`]).
    #[inline]
    pub fn set_neighbors(&mut self, u: u32, layer: usize, links: Vec<u32>) {
        if layer == 0 {
            assert!(self.memo.is_none(), "layer-0 list written past the memo");
            assert!(
                links.len() <= self.m_max0,
                "layer-0 list of {} links exceeds m_max0 = {}",
                links.len(),
                self.m_max0
            );
            let slots = self.slots(u);
            self.base[slots][..links.len()].copy_from_slice(&links);
            self.degree[u as usize] = links.len() as u32;
        } else {
            self.upper[u as usize][layer - 1] = links;
        }
    }

    /// Replaces node `u`'s neighbour list at `layer` with the candidates
    /// `sel` kept, in selection order. On layer 0, while the memo is kept,
    /// a selection over `u`'s memo ([`Graph::load_memo`]) keeps the kept
    /// links' memo slots and frees the dropped ones'; any other must be
    /// `u`'s first list, whose links take memo slots in list order with
    /// their distances and no pair checks decided.
    ///
    /// # Panics
    /// Panics if a layer-0 list exceeds `m_max0` links, or when a
    /// selection over another node's memo, or a fresh one over a node
    /// that still has links, is written while the memo is kept.
    pub fn set_chosen(&mut self, u: u32, layer: usize, sel: &Selection) {
        if layer > 0 {
            let links = &mut self.upper[u as usize][layer - 1];
            links.clear();
            links.extend(sel.chosen().map(|n| n.id));
            return;
        }
        assert!(
            sel.len() <= self.m_max0,
            "layer-0 list of {} links exceeds m_max0 = {}",
            sel.len(),
            self.m_max0
        );
        let first = u as usize * self.m_max0;
        let was = std::mem::replace(&mut self.degree[u as usize], sel.len() as u32);
        for (slot, n) in self.base[first..].iter_mut().zip(sel.chosen()) {
            *slot = n.id;
        }
        let Some(memo) = &mut self.memo else {
            return;
        };
        let row0 = memo.first(u);
        match sel.lender() {
            Some(owner) => {
                assert_eq!(owner, u, "a selection over another node's memo");
                for (k, (_, row)) in sel.chosen_in().enumerate() {
                    memo.slot[first + k] = row;
                    memo.used.set(u as usize, row as usize);
                }
                for (_, row) in sel.dropped_in() {
                    memo.free(u, row as usize);
                }
            }
            None => {
                assert_eq!(was, 0, "a fresh selection replaces a memo-kept list");
                for (k, n) in sel.chosen().enumerate() {
                    memo.slot[first + k] = k as u32;
                    memo.dist[row0 + k] = n.dist;
                    memo.used.set(u as usize, k);
                }
            }
        }
    }

    /// Empties node `u`'s neighbour list at `layer`, freeing its memo
    /// slots.
    pub fn clear_neighbors(&mut self, u: u32, layer: usize) {
        if layer > 0 {
            self.upper[u as usize][layer - 1].clear();
            return;
        }
        self.degree[u as usize] = 0;
        if let Some(memo) = &mut self.memo {
            let first = memo.first(u);
            memo.used.clear_rows(u as usize, 1);
            memo.pairs.clear_rows(first, memo.width);
        }
    }

    /// Appends `v` to node `u`'s neighbour list at `layer`, in place; `d`
    /// is their distance, which the layer-0 memo records.
    ///
    /// # Panics
    /// Panics if a layer-0 list is already `m_max0` links long.
    #[inline]
    pub fn push_neighbor(&mut self, u: u32, layer: usize, v: u32, d: f32) {
        if layer == 0 {
            let degree = self.degree[u as usize] as usize;
            assert!(degree < self.m_max0, "layer-0 list of node {u} is full");
            let at = u as usize * self.m_max0 + degree;
            self.base[at] = v;
            self.degree[u as usize] += 1;
            if let Some(memo) = &mut self.memo {
                let s = memo.free_slot(u);
                memo.used.set(u as usize, s);
                memo.slot[at] = s as u32;
                let first = memo.first(u);
                memo.dist[first + s] = d;
            }
        } else {
            self.upper[u as usize][layer - 1].push(v);
        }
    }

    /// Removes `v` from node `u`'s neighbour list at `layer` (no-op when
    /// absent), keeping the order of the rest, and frees its memo slot.
    /// Used by symmetric pruning: dropping `u -> v` must drop `v -> u`
    /// too, or the graph drifts away from link symmetry.
    #[inline]
    pub fn remove_neighbor(&mut self, u: u32, layer: usize, v: u32) {
        if layer == 0 {
            let first = u as usize * self.m_max0;
            let degree = self.degree[u as usize] as usize;
            let links = &mut self.base[first..first + degree];
            let Some(p) = links.iter().position(|&x| x == v) else {
                return;
            };
            links.copy_within(p + 1.., p);
            self.degree[u as usize] -= 1;
            if let Some(memo) = &mut self.memo {
                let slots = &mut memo.slot[first..first + degree];
                let s = slots[p] as usize;
                slots.copy_within(p + 1.., p);
                memo.free(u, s);
            }
        } else if let Some(links) = self.upper[u as usize].get_mut(layer - 1) {
            links.retain(|&x| x != v);
        }
    }

    /// Appends storage for one new node participating up to `level`.
    ///
    /// # Panics
    /// Panics while the memo is kept.
    pub fn push_node(&mut self, level: usize, m: usize) {
        assert!(self.memo.is_none(), "node appended past the memo");
        self.base.resize(self.base.len() + self.m_max0, 0);
        self.degree.push(0);
        self.upper.push(upper_with_level(level, m));
    }

    /// Total number of directed edges (for memory accounting / tests).
    pub fn edge_count(&self) -> usize {
        let base: usize = self.degree.iter().map(|&d| d as usize).sum();
        let upper: usize = self
            .upper
            .iter()
            .map(|n| n.iter().map(Vec::len).sum::<usize>())
            .sum();
        base + upper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_levels_allocates_layers() {
        let g = Graph::for_levels(&[0, 2, 1], 4, 8);
        assert_eq!(g.degree.len(), 3);
        assert_eq!(g.base.len(), 3 * 8);
        assert_eq!(g.layer_count(0), 1);
        assert_eq!(g.layer_count(1), 3);
        assert_eq!(g.layer_count(2), 2);
    }

    #[test]
    fn set_and_get_neighbors() {
        let mut g = Graph::for_levels(&[1, 1], 4, 8);
        g.set_neighbors(0, 1, vec![1]);
        assert_eq!(g.neighbors(0, 1), &[1]);
        assert!(g.neighbors(0, 0).is_empty());
        // out-of-range layer yields empty, not panic
        assert!(g.neighbors(0, 5).is_empty());
    }

    #[test]
    fn layer0_lists_are_independent() {
        let mut g = Graph::for_levels(&[0, 0, 0], 2, 4);
        g.set_neighbors(1, 0, vec![0, 2, 3, 4]);
        g.set_neighbors(0, 0, vec![9]);
        g.set_neighbors(2, 0, vec![5, 6]);
        assert_eq!(g.neighbors(0, 0), &[9]);
        assert_eq!(g.neighbors(1, 0), &[0, 2, 3, 4]);
        assert_eq!(g.neighbors(2, 0), &[5, 6]);
        g.set_neighbors(1, 0, vec![7]);
        assert_eq!(g.neighbors(1, 0), &[7], "a shorter list replaces a longer");
    }

    #[test]
    #[should_panic(expected = "exceeds m_max0")]
    fn layer0_overflow_panics() {
        let mut g = Graph::for_levels(&[0], 2, 4);
        g.set_neighbors(0, 0, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn edge_count_sums_layers() {
        let mut g = Graph::for_levels(&[1, 0], 4, 8);
        g.set_neighbors(0, 0, vec![1]);
        g.set_neighbors(0, 1, vec![1]);
        g.set_neighbors(1, 0, vec![0]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_neighbor_keeps_order() {
        let mut g = Graph::for_levels(&[1], 2, 4);
        g.set_neighbors(0, 0, vec![7, 8, 9]);
        g.remove_neighbor(0, 0, 8);
        assert_eq!(g.neighbors(0, 0), &[7, 9]);
        g.remove_neighbor(0, 0, 5);
        assert_eq!(g.neighbors(0, 0), &[7, 9], "absent link is a no-op");
        g.set_neighbors(0, 1, vec![3, 4]);
        g.remove_neighbor(0, 1, 3);
        assert_eq!(g.neighbors(0, 1), &[4]);
    }

    #[test]
    fn push_neighbor_appends_in_place() {
        let mut g = Graph::for_levels(&[1, 0], 2, 4);
        g.set_neighbors(0, 0, vec![7]);
        g.push_neighbor(0, 0, 8, 0.0);
        g.push_neighbor(1, 0, 3, 0.0);
        g.push_neighbor(0, 1, 5, 0.0);
        assert_eq!(g.neighbors(0, 0), &[7, 8]);
        assert_eq!(g.neighbors(1, 0), &[3]);
        assert_eq!(g.neighbors(0, 1), &[5]);
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn push_neighbor_into_a_full_layer0_list_panics() {
        let mut g = Graph::for_levels(&[0], 2, 2);
        g.set_neighbors(0, 0, vec![1, 2]);
        g.push_neighbor(0, 0, 3, 0.0);
    }

    #[test]
    fn push_node_extends_the_slab() {
        let mut g = Graph::for_levels(&[0], 2, 4);
        g.set_neighbors(0, 0, vec![1]);
        g.push_node(1, 2);
        g.set_neighbors(1, 0, vec![0]);
        assert_eq!(g.neighbors(0, 0), &[1]);
        assert_eq!(g.neighbors(1, 0), &[0]);
        assert_eq!(g.layer_count(1), 2);
    }
}
