//! HNSW construction parameters.

/// Construction parameters of an [`crate::Hnsw`] index.
///
/// `m` is the parameter the paper sweeps in its Figure 6 (recall vs query
/// time for M ∈ {8, 16, 32, 64}, default 16): the number of bidirectional
/// links created for a newly inserted node per layer. Higher `m` yields a
/// denser graph — better recall, more memory, slower search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HnswConfig {
    /// Number of established connections per inserted node per layer
    /// (the paper's `M`, default 16).
    pub m: usize,
    /// Beam width during construction (`efConstruction`).
    pub ef_construction: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

/// Width of the multi-entry beam carried across the upper layers during
/// descent, at construction and search alike (DESIGN.md §13). The config
/// record keeps a slot pinned to this value.
pub(crate) const ENTRY_BEAM: usize = 4;

impl HnswConfig {
    /// Config with a given `M` and the paper-recommended derived values.
    pub fn with_m(m: usize) -> Self {
        assert!(m >= 2, "M must be at least 2");
        Self {
            m,
            ef_construction: 200,
            seed: 0,
        }
    }

    /// Maximum connections a layer-0 node may hold: `2 * m`, the HNSW
    /// paper's recommendation.
    #[inline]
    pub fn m_max0(&self) -> usize {
        2 * self.m
    }

    /// Level-assignment multiplier `1 / ln(m)`, the HNSW paper's
    /// recommendation.
    pub fn level_mult(&self) -> f64 {
        1.0 / (self.m as f64).ln()
    }

    /// Sets the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets `efConstruction` (builder style).
    pub fn ef_construction(mut self, ef: usize) -> Self {
        assert!(ef >= 1, "efConstruction must be at least 1");
        self.ef_construction = ef;
        self
    }

    /// Maximum links for a node at `layer`.
    #[inline]
    pub fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m_max0()
        } else {
            self.m
        }
    }
}

impl Default for HnswConfig {
    /// The paper's defaults: `M = 16`, `m_max0 = 32`, `efConstruction = 200`.
    fn default() -> Self {
        Self::with_m(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = HnswConfig::default();
        assert_eq!(c.m, 16);
        assert_eq!(c.m_max0(), 32);
        assert_eq!(c.ef_construction, 200);
        assert!((c.level_mult() - 1.0 / 16f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn with_m_derives_bounds() {
        let c = HnswConfig::with_m(8);
        assert_eq!(c.m_max0(), 16);
        assert_eq!(c.max_links(0), 16);
        assert_eq!(c.max_links(1), 8);
        assert_eq!(c.max_links(5), 8);
    }

    #[test]
    fn builders_chain() {
        let c = HnswConfig::with_m(4).seed(9).ef_construction(50);
        assert_eq!(c.seed, 9);
        assert_eq!(c.ef_construction, 50);
    }

    #[test]
    #[should_panic]
    fn tiny_m_rejected() {
        let _ = HnswConfig::with_m(1);
    }
}
