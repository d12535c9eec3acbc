//! Link storage for the layered HNSW graph.
//!
//! Adjacency is stored per node as one `Vec<u32>` per layer the node
//! participates in. Nothing here is shared mutably across threads: the
//! batch-parallel build plans insertions concurrently against a `&Graph`
//! and applies their links sequentially through `&mut Graph`, so plain
//! vectors suffice.

/// The whole graph's adjacency: `nodes[id][l]` holds node `id`'s
/// neighbours at layer `l`, for `l <= level(id)`.
#[derive(Debug, Default)]
pub(crate) struct Graph {
    nodes: Vec<Vec<Vec<u32>>>,
}

/// Pre-sizes one node's adjacency for a draw of `level`: capacity `m_max0`
/// at layer 0 and `m` at each upper layer.
fn node_with_level(level: usize, m: usize, m_max0: usize) -> Vec<Vec<u32>> {
    let mut layers = Vec::with_capacity(level + 1);
    layers.push(Vec::with_capacity(m_max0));
    for _ in 1..=level {
        layers.push(Vec::with_capacity(m));
    }
    layers
}

impl Graph {
    /// Pre-allocates adjacency for `levels[i]`-level nodes.
    pub fn for_levels(levels: &[u8], m: usize, m_max0: usize) -> Self {
        let nodes = levels
            .iter()
            .map(|&l| node_with_level(l as usize, m, m_max0))
            .collect();
        Self { nodes }
    }

    /// Node `u`'s neighbour list at `layer` (empty above its level).
    #[inline]
    pub fn neighbors(&self, u: u32, layer: usize) -> &[u32] {
        self.nodes[u as usize].get(layer).map_or(&[], Vec::as_slice)
    }

    /// Number of layer lists node `u` stores (`level + 1` when valid).
    pub fn layer_count(&self, u: u32) -> usize {
        self.nodes[u as usize].len()
    }

    /// Replaces node `u`'s neighbour list at `layer`.
    #[inline]
    pub fn set_neighbors(&mut self, u: u32, layer: usize, links: Vec<u32>) {
        self.nodes[u as usize][layer] = links;
    }

    /// Removes `v` from node `u`'s neighbour list at `layer` (no-op when
    /// absent). Used by symmetric pruning: dropping `u -> v` must drop
    /// `v -> u` too, or the graph drifts away from link symmetry.
    #[inline]
    pub fn remove_neighbor(&mut self, u: u32, layer: usize, v: u32) {
        if let Some(links) = self.nodes[u as usize].get_mut(layer) {
            links.retain(|&x| x != v);
        }
    }

    /// Appends storage for one new node participating up to `level`.
    pub fn push_node(&mut self, level: usize, m: usize, m_max0: usize) {
        self.nodes.push(node_with_level(level, m, m_max0));
    }

    /// Total number of directed edges (for memory accounting / tests).
    pub fn edge_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_levels_allocates_layers() {
        let g = Graph::for_levels(&[0, 2, 1], 4, 8);
        assert_eq!(g.nodes.len(), 3);
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
    fn edge_count_sums_layers() {
        let mut g = Graph::for_levels(&[1, 0], 4, 8);
        g.set_neighbors(0, 0, vec![1]);
        g.set_neighbors(0, 1, vec![1]);
        g.set_neighbors(1, 0, vec![0]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_neighbor_keeps_order() {
        let mut g = Graph::for_levels(&[0], 2, 4);
        g.set_neighbors(0, 0, vec![7, 8, 9]);
        g.remove_neighbor(0, 0, 8);
        assert_eq!(g.neighbors(0, 0), &[7, 9]);
    }
}
