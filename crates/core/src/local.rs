//! Pluggable per-partition indexes.
//!
//! The paper's Section VI: "Our approach is extensible in that any algorithm
//! can be used for local indexing and searching instead of HNSW." This
//! module is that extension point: a partition can be served by
//!
//! * [`LocalIndexKind::Hnsw`] — the paper's choice (approximate, fast in
//!   high dimension),
//! * [`LocalIndexKind::VpExact`] — an exact vantage-point tree, making the
//!   whole distributed engine exact *within the routed partitions*,
//! * [`LocalIndexKind::BruteForce`] — exhaustive scan, the calibration
//!   baseline.
//!
//! All variants report their distance-evaluation counts so the virtual-time
//! accounting stays uniform.

use fastann_data::{ground_truth, Distance, Neighbor, VectorSet};
use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch, SearchStats};
use fastann_vptree::{VpTree, VpTreeConfig};

/// Which index structure serves a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalIndexKind {
    /// HNSW graph (approximate) — the paper's system.
    Hnsw,
    /// Exact VP tree.
    VpExact,
    /// Exhaustive scan.
    BruteForce,
}

/// A built per-partition index.
// one LocalIndex per partition, always behind Arc<Partition> — the variant
// size spread has no aggregate cost worth boxing the hot Hnsw variant for
#[allow(clippy::large_enum_variant)]
pub enum LocalIndex {
    /// HNSW graph.
    Hnsw(Hnsw),
    /// Exact VP tree.
    VpTree(VpTree),
    /// Plain vectors, scanned exhaustively.
    Brute { data: VectorSet, metric: Distance },
}

impl LocalIndex {
    /// Builds the index of the requested kind over `rows`.
    pub fn build(
        kind: LocalIndexKind,
        rows: VectorSet,
        metric: Distance,
        hnsw: HnswConfig,
        seed: u64,
    ) -> LocalIndex {
        match kind {
            LocalIndexKind::Hnsw => {
                let mut cfg = hnsw;
                cfg.seed = seed;
                LocalIndex::Hnsw(Hnsw::build(rows, metric, cfg))
            }
            LocalIndexKind::VpExact => LocalIndex::VpTree(VpTree::build(
                rows,
                metric,
                VpTreeConfig {
                    seed,
                    ..VpTreeConfig::default()
                },
            )),
            LocalIndexKind::BruteForce => LocalIndex::Brute { data: rows, metric },
        }
    }

    /// k-NN over the partition with the per-request knobs from
    /// [`crate::SearchOptions`] threaded through; returns local row ids
    /// and the per-search accounting the engine charges to virtual time.
    /// `opts.k`/`opts.ef` bound the answer, `opts.quantized` routes an
    /// HNSW partition to its SQ8 traversal + exact re-rank pipeline
    /// (`opts.rerank_factor` wide, falling back to exact when the
    /// partition has no trained quantizer), and `opts.entry_beam`
    /// overrides the descent beam width (`0` inherits the index config).
    /// Tree and brute-force kinds are always exact and single-entry —
    /// they are the ground-truth baselines, so quantizing them would
    /// defeat their purpose — and report only `ndist` (a tree walk has no
    /// beam, so `hops`, `heap_pushes` and `ef_churn` stay zero).
    pub fn search_detailed_opts(
        &self,
        q: &[f32],
        opts: &crate::SearchOptions,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, SearchStats) {
        let k = opts.k;
        match self {
            LocalIndex::Hnsw(h) => {
                let params = SearchParams {
                    k,
                    ef: opts.ef,
                    entry_beam: opts.entry_beam,
                    quantized: opts.quantized.then_some(opts.rerank_factor),
                };
                h.search(q, &params, scratch)
            }
            LocalIndex::VpTree(t) => {
                let (r, s) = t.knn(q, k);
                (
                    r,
                    SearchStats {
                        ndist: s.ndist,
                        ..Default::default()
                    },
                )
            }
            LocalIndex::Brute { data, metric } => {
                let r = ground_truth::brute_force_one(data, q, k, *metric);
                (
                    r,
                    SearchStats {
                        ndist: data.len() as u64,
                        ..Default::default()
                    },
                )
            }
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        match self {
            LocalIndex::Hnsw(h) => h.len(),
            LocalIndex::VpTree(t) => t.len(),
            LocalIndex::Brute { data, .. } => data.len(),
        }
    }

    /// `true` when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            LocalIndex::Hnsw(h) => h.dim(),
            LocalIndex::VpTree(t) => t.dim(),
            LocalIndex::Brute { data, .. } => data.dim(),
        }
    }

    /// Distance evaluations spent during construction.
    pub fn build_ndist(&self) -> u64 {
        match self {
            LocalIndex::Hnsw(h) => h.build_ndist(),
            LocalIndex::VpTree(t) => t.build_ndist(),
            LocalIndex::Brute { .. } => 0,
        }
    }

    /// Approximate resident bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            LocalIndex::Hnsw(h) => h.approx_bytes(),
            LocalIndex::VpTree(t) => t.approx_bytes(),
            LocalIndex::Brute { data, .. } => data.as_flat().len() * 4,
        }
    }

    /// `true` when every reported neighbour is exact.
    pub fn is_exact(&self) -> bool {
        !matches!(self, LocalIndex::Hnsw(_))
    }

    /// `true` when the partition supports live mutation (HNSW only — the
    /// tree and brute-force kinds are frozen ground-truth baselines).
    pub fn supports_mutation(&self) -> bool {
        matches!(self, LocalIndex::Hnsw(_))
    }

    /// The underlying HNSW graph, when this partition is served by one.
    pub fn as_hnsw(&self) -> Option<&Hnsw> {
        match self {
            LocalIndex::Hnsw(h) => Some(h),
            _ => None,
        }
    }

    /// Appends a vector through the incremental HNSW insertion path and
    /// returns its local row id. `None` when the kind is immutable.
    pub fn insert(&mut self, v: &[f32]) -> Option<u32> {
        match self {
            LocalIndex::Hnsw(h) => Some(h.add(v)),
            _ => None,
        }
    }

    /// Tombstones local row `local_id`. Returns `Some(changed)` for an
    /// HNSW partition (`false` when the row was already tombstoned),
    /// `None` when the kind is immutable.
    pub fn remove(&mut self, local_id: u32) -> Option<bool> {
        match self {
            LocalIndex::Hnsw(h) => Some(h.remove(local_id)),
            _ => None,
        }
    }

    /// `true` when local row `id` is live (always `true` for immutable
    /// kinds, which cannot hold tombstones).
    pub fn is_live(&self, id: u32) -> bool {
        match self {
            LocalIndex::Hnsw(h) => h.is_live(id),
            _ => true,
        }
    }

    /// Rows that are not tombstoned (== [`LocalIndex::len`] for immutable
    /// kinds).
    pub fn live_len(&self) -> usize {
        match self {
            LocalIndex::Hnsw(h) => h.live_len(),
            other => other.len(),
        }
    }

    /// Tombstoned fraction of the partition (`0.0` for immutable kinds).
    pub fn tombstone_ratio(&self) -> f64 {
        match self {
            LocalIndex::Hnsw(h) => h.tombstone_ratio(),
            _ => 0.0,
        }
    }

    /// Partition-local mutation epoch (`0` forever for immutable kinds).
    pub fn mutation_epoch(&self) -> u64 {
        match self {
            LocalIndex::Hnsw(h) => h.mutation_epoch(),
            _ => 0,
        }
    }

    /// Detaches accumulated tombstones from the HNSW graph (see
    /// [`Hnsw::repair_tombstones`]); returns how many were detached (`0`
    /// for immutable kinds).
    pub fn repair_tombstones(&mut self) -> usize {
        match self {
            LocalIndex::Hnsw(h) => h.repair_tombstones(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_data::synth;

    fn rows() -> VectorSet {
        synth::sift_like(500, 12, 55)
    }

    /// Exact-path options for `k` neighbours at beam width `ef`.
    fn exact(k: usize, ef: usize) -> crate::SearchOptions {
        crate::SearchOptions::new(k)
            .with_ef(ef)
            .with_quantized(false)
    }

    #[test]
    fn all_kinds_build_and_search() {
        let mut scratch = SearchScratch::default();
        for kind in [
            LocalIndexKind::Hnsw,
            LocalIndexKind::VpExact,
            LocalIndexKind::BruteForce,
        ] {
            let idx = LocalIndex::build(kind, rows(), Distance::L2, HnswConfig::with_m(8), 1);
            assert_eq!(idx.len(), 500);
            assert_eq!(idx.dim(), 12);
            let (r, stats) = idx.search_detailed_opts(rows().get(3), &exact(5, 32), &mut scratch);
            assert_eq!(r[0].id, 3, "{kind:?} should find the point itself");
            assert!(stats.ndist > 0, "{kind:?} must report work");
            assert!(idx.approx_bytes() > 0);
        }
    }

    #[test]
    fn exact_kinds_agree_with_brute_force() {
        let data = rows();
        let mut scratch = SearchScratch::default();
        let vp = LocalIndex::build(
            LocalIndexKind::VpExact,
            data.clone(),
            Distance::L2,
            HnswConfig::default(),
            2,
        );
        let brute = LocalIndex::build(
            LocalIndexKind::BruteForce,
            data.clone(),
            Distance::L2,
            HnswConfig::default(),
            2,
        );
        let q = synth::queries_near(&data, 10, 0.05, 3);
        for qi in 0..10 {
            let (a, _) = vp.search_detailed_opts(q.get(qi), &exact(7, 7), &mut scratch);
            let (b, _) = brute.search_detailed_opts(q.get(qi), &exact(7, 7), &mut scratch);
            assert_eq!(a, b, "exact kinds must agree on query {qi}");
        }
    }

    #[test]
    fn exactness_flags() {
        let h = LocalIndex::build(
            LocalIndexKind::Hnsw,
            rows(),
            Distance::L2,
            HnswConfig::with_m(8),
            4,
        );
        let v = LocalIndex::build(
            LocalIndexKind::VpExact,
            rows(),
            Distance::L2,
            HnswConfig::with_m(8),
            4,
        );
        assert!(!h.is_exact());
        assert!(v.is_exact());
        assert!(h.build_ndist() > 0);
        assert!(v.build_ndist() > 0);
    }
}
