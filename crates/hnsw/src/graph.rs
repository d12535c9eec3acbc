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
//! Nothing here is shared mutably across threads: a graph is built by
//! one thread and only read concurrently, so plain vectors suffice.

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
        }
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
    /// Panics if a layer-0 list exceeds `m_max0` links.
    #[inline]
    pub fn set_neighbors(&mut self, u: u32, layer: usize, links: Vec<u32>) {
        if layer == 0 {
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

    /// Appends `v` to node `u`'s neighbour list at `layer`, in place.
    ///
    /// # Panics
    /// Panics if a layer-0 list is already `m_max0` links long.
    #[inline]
    pub fn push_neighbor(&mut self, u: u32, layer: usize, v: u32) {
        if layer == 0 {
            let degree = self.degree[u as usize] as usize;
            assert!(degree < self.m_max0, "layer-0 list of node {u} is full");
            self.base[u as usize * self.m_max0 + degree] = v;
            self.degree[u as usize] += 1;
        } else {
            self.upper[u as usize][layer - 1].push(v);
        }
    }

    /// Removes `v` from node `u`'s neighbour list at `layer` (no-op when
    /// absent), keeping the order of the rest. Used by symmetric pruning:
    /// dropping `u -> v` must drop `v -> u` too, or the graph drifts away
    /// from link symmetry.
    #[inline]
    pub fn remove_neighbor(&mut self, u: u32, layer: usize, v: u32) {
        if layer == 0 {
            let slots = self.slots(u);
            let degree = &mut self.degree[u as usize];
            let links = &mut self.base[slots][..*degree as usize];
            let mut kept = 0;
            for i in 0..links.len() {
                if links[i] != v {
                    links[kept] = links[i];
                    kept += 1;
                }
            }
            *degree = kept as u32;
        } else if let Some(links) = self.upper[u as usize].get_mut(layer - 1) {
            links.retain(|&x| x != v);
        }
    }

    /// Appends storage for one new node participating up to `level`.
    pub fn push_node(&mut self, level: usize, m: usize) {
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
        g.push_neighbor(0, 0, 8);
        g.push_neighbor(1, 0, 3);
        g.push_neighbor(0, 1, 5);
        assert_eq!(g.neighbors(0, 0), &[7, 8]);
        assert_eq!(g.neighbors(1, 0), &[3]);
        assert_eq!(g.neighbors(0, 1), &[5]);
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn push_neighbor_into_a_full_layer0_list_panics() {
        let mut g = Graph::for_levels(&[0], 2, 2);
        g.set_neighbors(0, 0, vec![1, 2]);
        g.push_neighbor(0, 0, 3);
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
