//! The HNSW index: construction and search.

use fastann_data::quant::{Sq8, Sq8Query};
use fastann_data::{Distance, Neighbor, VectorSet};

use crate::config::{HnswConfig, ENTRY_BEAM};
use crate::graph::Graph;
use crate::rerank::rerank_exact;
use crate::scratch::SearchScratch;

/// Per-search accounting. `ndist` is the number the distributed engine
/// charges to a worker's virtual clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distance evaluations performed (quantized and exact combined).
    pub ndist: u64,
    /// Subset of `ndist` evaluated in the quantized (SQ8 asymmetric)
    /// domain; zero on the exact path.
    pub ndist_quant: u64,
    /// Candidates re-ranked at full precision after a quantized
    /// traversal; zero on the exact path.
    pub rerank: u64,
    /// Upper layers the descent stepped through on its way to layer 0.
    pub hops: u64,
    /// Candidates admitted to the beams (entry seeds and descent layers
    /// included). The name dates from the beam's two-heap form and stays
    /// because the `fastann_hnsw_heap_pushes` metric carries it.
    pub heap_pushes: u64,
    /// Beam churn: admissions that landed while a beam was already full,
    /// each evicting the then-worst candidate. High churn relative to
    /// `ef` means the layer-0 beam kept improving late — a signal that a
    /// larger `ef` would still buy recall.
    pub ef_churn: u64,
    /// Diverse entry-set members injected into this query's descent beyond
    /// the primary entry point — how much of the multi-basin seeding
    /// ([`Hnsw::entry_set`]) the query actually consumed. Zero when the
    /// index has at most one entry (or on the tree/brute-force kinds).
    pub entry_seeds: u64,
}

/// Distance evaluations spent constructing an index, by phase of
/// insertion. [`Hnsw::build_ndist`] is their sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildCost {
    /// The beam searches that gather each new node's candidates.
    pub search: u64,
    /// The neighbour heuristic choosing each new node's links.
    pub select: u64,
    /// Linking back: the reselections of the lists a new link overflows.
    pub link: u64,
}

impl BuildCost {
    /// All evaluations, every phase together.
    pub fn total(&self) -> u64 {
        self.search + self.select + self.link
    }
}

/// Per-call parameters of [`Hnsw::search`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchParams {
    /// Neighbours to return; must be positive.
    pub k: usize,
    /// Layer-0 beam width, clamped up to `k`.
    pub ef: usize,
    /// `true` traverses in the SQ8 domain and re-ranks the first
    /// [`RERANK_FACTOR`]` * k` beam survivors exactly; `false` traverses
    /// with the exact metric.
    pub quantized: bool,
}

impl SearchParams {
    /// Exact search for `k` neighbours with layer-0 beam width `ef`.
    pub fn new(k: usize, ef: usize) -> Self {
        Self {
            k,
            ef,
            quantized: false,
        }
    }

    /// Selects quantized-first (`true`) or exact (`false`) search
    /// (builder style).
    pub fn quantized(mut self, on: bool) -> Self {
        self.quantized = on;
        self
    }
}

/// Re-rank pool multiplier of quantized-first search: the first
/// `RERANK_FACTOR * k` quantized beam survivors are re-scored with the
/// exact metric. `3` recovers exact-level recall on the synthetic
/// workloads at a small exact-eval cost.
pub const RERANK_FACTOR: usize = 3;

/// A query lowered into one of the two distance domains a traversal can
/// run in. Traversal code ([`Hnsw::descend`], [`Hnsw::search_layer`])
/// only ever sees this enum — the `quantized-traversal` lint forbids it
/// from touching `squared_l2` / `Distance::eval` directly, so the choice
/// of domain is confined to [`Hnsw::d`] and [`Hnsw::search`].
enum QueryDist<'a> {
    /// Full-precision traversal with the index metric.
    Exact(&'a [f32]),
    /// SQ8 asymmetric traversal (squared-L2 domain) against `sq`'s grid.
    Quant { sq: &'a Sq8, prep: &'a Sq8Query },
}

/// A Hierarchical Navigable Small World approximate k-NN index over an owned
/// [`VectorSet`].
pub struct Hnsw {
    config: HnswConfig,
    dist: Distance,
    data: VectorSet,
    levels: Vec<u8>,
    graph: Graph,
    /// SQ8 quantizer trained on this partition's vectors at build time;
    /// `None` for empty indexes, unsupported metrics, or after a dynamic
    /// [`Hnsw::add`] of a point outside the trained grid, until
    /// [`Hnsw::train_quantizer`] refreshes the grid (in-grid adds append
    /// their code incrementally and keep quantized search on).
    quant: Option<Sq8>,
    /// `(entry node, top level)`; `None` for an empty index.
    entry: Option<(u32, u8)>,
    /// Diverse entry set: up to 16 spread-out nodes that
    /// participate above layer 0, selected farthest-first (k-center) from
    /// the entry point. A pure function of the stored vectors, the level
    /// assignment and the entry point — see [`Hnsw::select_entry_set`].
    /// The first member is always the entry point itself; empty only for
    /// an empty index.
    entry_set: Vec<u32>,
    /// Distance evaluations spent during construction (the quantity the
    /// distributed engine charges to a builder's virtual clock).
    build_cost: BuildCost,
    /// `tombstones[id]` marks a removed point: it stays in `data` and stays
    /// traversable as a graph waypoint until [`Hnsw::repair_tombstones`]
    /// detaches it, but it is filtered from every search result. All-`false`
    /// for a freshly built index.
    tombstones: Vec<bool>,
    /// Number of non-tombstoned points (`len() - #tombstones`).
    live: usize,
    /// Monotone counter bumped by every successful mutation ([`Hnsw::add`],
    /// [`Hnsw::remove`], [`Hnsw::repair_tombstones`]) — the cache-
    /// invalidation signal the serving layer keys result freshness on.
    mutation_epoch: u64,
}

/// Maximum layer index; levels are geometric so 30 is unreachable in
/// practice (p < 16^-30) but bounds the `u8` storage.
const MAX_LEVEL: u8 = 30;

/// Maximum diverse entry-set size. Sixteen spread-out seeds cover every
/// mode of the clustered workloads (10 clusters plus outliers) while the
/// per-query overhead stays at most sixteen extra distance evaluations.
pub(crate) const ENTRY_SET_CAP: usize = 16;

/// Deterministic per-node level assignment: `floor(-ln(U) * mult)` with `U`
/// derived from a splitmix64 hash of `(seed, id)`, so levels do not depend
/// on insertion order or thread interleaving.
fn assign_level(seed: u64, id: u32, mult: f64) -> u8 {
    let mut x = seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if x == 0 {
        // the finalizer maps 0 to 0, the smallest `U`: node 0 of a seed-0
        // build would take level 17 at M = 8
        x = 0x6a09_e667_f3bc_c908;
    }
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let u = ((x >> 11) as f64 + 1.0) / ((1u64 << 53) as f64 + 1.0); // in (0,1]
    let lvl = (-u.ln() * mult).floor();
    (lvl as u64).min(MAX_LEVEL as u64) as u8
}

impl Hnsw {
    /// Builds the index over `data`: the highest-level node seeds the
    /// graph and every other node is inserted in turn, each planned
    /// against the graph all earlier nodes left (deterministic given the
    /// config seed).
    pub fn build(data: VectorSet, dist: Distance, config: HnswConfig) -> Self {
        let mut index = Self::empty_for(data, dist, config);
        let mut scratch = SearchScratch::with_capacity(index.len());
        // The memo carries each layer-0 list's distances and decided
        // heuristic checks from one overflow to the next; the graph it
        // yields is the one recomputing them would.
        index.graph.keep_memo();
        for id in index.insertion_order() {
            index.insert(id, &mut scratch);
        }
        // Insertion can orphan a node: a later neighbour's overflow prune
        // may drop every reverse edge of an already-settled node (observed
        // on clustered data, where redundant same-cluster nodes lose all
        // their edges to better-placed peers).
        index.repair_layer0(&mut scratch);
        index.graph.drop_memo();
        index.refresh_entry_set();
        #[cfg(debug_assertions)]
        if let Err(e) = index.validate() {
            panic!("build produced an invalid graph: {e}");
        }
        // Quantizer training is pure per-dimension arithmetic over the
        // already-stored vectors: no distance evaluations, so
        // `build_ndist` is unaffected.
        index.train_quantizer();
        index
    }

    /// Repairs base-layer connectivity deterministically: unlink each
    /// orphan and re-insert it, until the base layer is connected (or the
    /// round budget runs out — the validator then reports any residue).
    fn repair_layer0(&mut self, scratch: &mut SearchScratch) {
        const MAX_REPAIR_ROUNDS: usize = 10;
        for _ in 0..MAX_REPAIR_ROUNDS {
            let orphans = self.layer0_orphans();
            if orphans.is_empty() {
                break;
            }
            for u in orphans {
                self.unlink(u);
                self.insert(u, scratch);
            }
        }
    }

    /// Layer-0 BFS from the entry point and every entry-set member;
    /// `seen[id]` is `true` for each reachable node. All-`false` for an
    /// empty index.
    fn layer0_reachable(&self) -> Vec<bool> {
        let n = self.len();
        let mut seen = vec![false; n];
        let Some((ep, _)) = self.entry else {
            return seen;
        };
        let mut queue = std::collections::VecDeque::new();
        for &e in std::iter::once(&ep).chain(&self.entry_set) {
            if !seen[e as usize] {
                seen[e as usize] = true;
                queue.push_back(e);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &nb in self.graph.neighbors(u, 0) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    queue.push_back(nb);
                }
            }
        }
        seen
    }

    /// Live ids unreachable from every entry (the entry point plus the
    /// diverse entry set) on layer 0, ascending. Empty for an empty index.
    /// During construction the entry set is not selected yet, so this
    /// degenerates to single-entry reachability — the stronger invariant
    /// the repair loop restores. Tombstoned nodes are never orphans: a
    /// repair pass detaches them on purpose.
    fn layer0_orphans(&self) -> Vec<u32> {
        let seen = self.layer0_reachable();
        if self.is_empty() {
            return Vec::new();
        }
        (0..self.len() as u32)
            .filter(|&id| !seen[id as usize] && !self.tombstones[id as usize])
            .collect()
    }

    /// Symmetrically detaches node `u` from the graph (every `u -> v` and
    /// its reverse edge), leaving its layer lists empty so it can be
    /// re-inserted.
    fn unlink(&mut self, u: u32) {
        for layer in 0..=(self.levels[u as usize] as usize) {
            for nb in self.graph.neighbors(u, layer).to_vec() {
                self.graph.remove_neighbor(nb, layer, u);
            }
            self.graph.clear_neighbors(u, layer);
        }
    }

    fn empty_for(data: VectorSet, dist: Distance, config: HnswConfig) -> Self {
        let n = data.len();
        let mult = config.level_mult();
        let levels: Vec<u8> = (0..n as u32)
            .map(|id| assign_level(config.seed, id, mult))
            .collect();
        let graph = Graph::for_levels(&levels, config.m, config.m_max0());
        Self {
            config,
            dist,
            data,
            levels,
            graph,
            quant: None,
            entry: None,
            entry_set: Vec::new(),
            build_cost: BuildCost::default(),
            tombstones: vec![false; n],
            live: n,
            mutation_epoch: 0,
        }
    }

    /// Deterministic diverse entry set: farthest-first (k-center) selection
    /// over the nodes that participate above layer 0, seeded from the entry
    /// point, capped at [`ENTRY_SET_CAP`]. Ties on equal spread go to the
    /// smaller id; zero-spread candidates (exact duplicates of an already
    /// chosen seed) are never added. A pure function of the stored vectors,
    /// the level assignment and the entry point.
    ///
    /// Selection distances run through `Distance::eval` directly (not the
    /// traversal's `QueryDist` dispatch): this is build-time geometry over
    /// stored points, like neighbour selection, not query traversal. Its
    /// `O(cap · n / 16)` evaluations are excluded from `build_ndist`, which
    /// counts graph construction only.
    fn select_entry_set(&self) -> Vec<u32> {
        let Some((ep, _)) = self.entry else {
            return Vec::new();
        };
        let mut cands: Vec<u32> = (0..self.len() as u32)
            .filter(|&id| {
                self.levels[id as usize] >= 1 && id != ep && !self.tombstones[id as usize]
            })
            .collect();
        let mut min_d: Vec<f32> = cands
            .iter()
            .map(|&c| {
                self.dist
                    .eval(self.data.get(ep as usize), self.data.get(c as usize))
            })
            .collect();
        let mut chosen = vec![ep];
        while chosen.len() < ENTRY_SET_CAP && !cands.is_empty() {
            let mut best = 0usize;
            for i in 1..cands.len() {
                if min_d[i] > min_d[best] || (min_d[i] == min_d[best] && cands[i] < cands[best]) {
                    best = i;
                }
            }
            if min_d[best] <= 0.0 {
                break; // only duplicates of chosen seeds remain
            }
            let c = cands.swap_remove(best);
            min_d.swap_remove(best);
            for (i, &other) in cands.iter().enumerate() {
                let d = self
                    .dist
                    .eval(self.data.get(c as usize), self.data.get(other as usize));
                if d < min_d[i] {
                    min_d[i] = d;
                }
            }
            chosen.push(c);
        }
        chosen
    }

    /// Recomputes the diverse entry set from the current graph state. Build
    /// paths call this after base-layer repair; mutations call it when they
    /// can change the selection.
    fn refresh_entry_set(&mut self) {
        self.entry_set = self.select_entry_set();
    }

    /// The diverse entry set: up to 16 spread-out
    /// upper-layer nodes (entry point first) that seed every search's
    /// layer-0 beam from multiple basins.
    pub fn entry_set(&self) -> &[u32] {
        &self.entry_set
    }

    /// `true` while point `id` has not been tombstoned by [`Hnsw::remove`].
    pub fn is_live(&self, id: u32) -> bool {
        !self.tombstones[id as usize]
    }

    /// Number of live (non-tombstoned) points.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Fraction of stored points that are tombstoned (`0.0` for an empty
    /// index) — the quantity compaction thresholds gate on.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.len() - self.live) as f64 / self.len() as f64
        }
    }

    /// Monotone mutation counter: bumped by every [`Hnsw::add`],
    /// [`Hnsw::remove`] and effective [`Hnsw::repair_tombstones`], so equal
    /// epochs imply an identical live set. Serialized with the index.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// The tombstone map, for serialization.
    pub(crate) fn tombstone_map(&self) -> &[bool] {
        &self.tombstones
    }

    /// Tombstones point `id`: the point disappears from all future search
    /// results immediately, but its node stays in the graph as a traversal
    /// waypoint until [`Hnsw::repair_tombstones`] re-points the in-edges and
    /// detaches it — the lazy half of LANNS-style delete handling. Returns
    /// `false` (and leaves the epoch untouched) when `id` was already
    /// tombstoned.
    ///
    /// If `id` is the entry point, the entry is re-elected deterministically
    /// to the smallest-id live node of maximal level, so descents keep
    /// starting from a live anchor. When the last live point is removed the
    /// entry is left in place and searches return empty.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn remove(&mut self, id: u32) -> bool {
        assert!((id as usize) < self.len(), "remove of out-of-range id {id}");
        if self.tombstones[id as usize] {
            return false;
        }
        self.tombstones[id as usize] = true;
        self.live -= 1;
        self.mutation_epoch += 1;
        let was_entry = self.entry.is_some_and(|(ep, _)| ep == id);
        if was_entry {
            self.reelect_entry();
        }
        // Upper-layer membership (or entry re-election) can change the
        // k-center selection; pure layer-0 removals cannot.
        if was_entry || self.levels[id as usize] >= 1 {
            self.refresh_entry_set();
        }
        true
    }

    /// Re-points the entry to the smallest-id live node of maximal level.
    /// Keeps the current (tombstoned) entry when no live node exists, so a
    /// fully-tombstoned index stays structurally intact.
    fn reelect_entry(&mut self) {
        let mut best: Option<(u32, u8)> = None;
        for id in 0..self.len() as u32 {
            if self.tombstones[id as usize] {
                continue;
            }
            let lvl = self.levels[id as usize];
            if best.is_none_or(|(_, b)| lvl > b) {
                best = Some((id, lvl));
            }
        }
        if best.is_some() {
            self.entry = best;
        }
    }

    /// Eager half of delete handling: re-points every live in-edge of every
    /// tombstoned node toward surviving neighbours (per-layer reselection
    /// over the union of the old neighbourhood and the tombstone's live
    /// neighbours), then detaches the tombstoned nodes entirely and
    /// re-inserts any live node the detachment orphaned. Tombstones stay
    /// marked — their rows still occupy storage until a compaction rebuild —
    /// but after repair they are pure dead weight: unreachable, zero-degree,
    /// and cost nothing per query.
    ///
    /// Runs strictly sequentially in ascending id order, so the outcome is a
    /// pure function of the pre-repair graph — bit-identical across thread
    /// counts. Returns the number of nodes detached (`0` leaves the epoch
    /// untouched).
    pub fn repair_tombstones(&mut self) -> usize {
        // Only tombstones that still carry edges need work; earlier repairs
        // left the rest already detached.
        let attached: Vec<u32> = (0..self.len() as u32)
            .filter(|&t| {
                self.tombstones[t as usize]
                    && (0..=(self.levels[t as usize] as usize))
                        .any(|l| !self.graph.neighbors(t, l).is_empty())
            })
            .collect();
        if attached.is_empty() {
            return 0;
        }
        let mut scratch = SearchScratch::with_capacity(self.len());
        for &t in &attached {
            for layer in 0..=(self.levels[t as usize] as usize) {
                let mut t_nbrs = self.graph.neighbors(t, layer).to_vec();
                t_nbrs.sort_unstable();
                for &u in &t_nbrs {
                    if self.tombstones[u as usize] {
                        continue;
                    }
                    self.repoint_through(u, t, &t_nbrs, layer, &mut scratch);
                }
            }
            self.unlink(t);
        }
        // Detaching waypoints can disconnect live nodes; restore live
        // reachability with the same unlink + re-insert loop the builds use.
        self.repair_layer0(&mut scratch);
        self.reelect_entry();
        self.refresh_entry_set();
        self.mutation_epoch += 1;
        attached.len()
    }

    /// Reselects live node `u`'s neighbourhood at `layer` over its current
    /// neighbours plus tombstoned node `t`'s live neighbours (`t_nbrs`), so
    /// the edge `u -> t` is replaced by edges "through" `t` to its
    /// survivors. Mirrors the insert-path link protocol: dropped edges lose
    /// their reverse too, added edges gain one via [`Hnsw::link_back`].
    fn repoint_through(
        &mut self,
        u: u32,
        t: u32,
        t_nbrs: &[u32],
        layer: usize,
        scratch: &mut SearchScratch,
    ) {
        let old = self.graph.neighbors(u, layer).to_vec();
        let mut cand_ids: Vec<u32> = old
            .iter()
            .chain(t_nbrs)
            .copied()
            .filter(|&c| c != u && c != t && !self.tombstones[c as usize])
            .collect();
        cand_ids.sort_unstable();
        cand_ids.dedup();
        let uv = self.data.get(u as usize);
        let sel = &mut scratch.select;
        sel.begin();
        for &c in &cand_ids {
            scratch.ndist += 1;
            sel.push(Neighbor::new(
                c,
                self.dist.eval(uv, self.data.get(c as usize)),
            ));
        }
        let max = self.config.max_links(layer);
        sel.select(&self.data, self.dist, max, None, &mut scratch.ndist);
        for &l in &old {
            if l != t && !scratch.select.keeps(l) {
                self.graph.remove_neighbor(l, layer, u);
            }
        }
        self.graph.set_chosen(u, layer, &scratch.select);
        let mut links = std::mem::take(&mut scratch.links);
        links.clear();
        links.extend(scratch.select.chosen());
        for n in &links {
            if !old.contains(&n.id) {
                self.link_back(n.id, u, n.dist, layer, scratch);
            }
        }
        scratch.links = links;
    }

    /// (Re)trains the SQ8 quantizer on the current vectors, enabling
    /// quantized-first search. A no-op for empty indexes and for metrics
    /// the asymmetric distance cannot rank for (only L2 / squared-L2 are
    /// order-compatible with the squared-domain traversal).
    ///
    /// Build paths call this automatically; after dynamic [`Hnsw::add`]s
    /// (which invalidate the grid) call it again to restore quantized
    /// search.
    pub fn train_quantizer(&mut self) {
        self.quant =
            if self.data.is_empty() || !matches!(self.dist, Distance::L2 | Distance::SquaredL2) {
                None
            } else {
                Some(Sq8::encode(&self.data))
            };
    }

    /// The trained quantizer, if quantized search is currently available.
    pub fn quantizer(&self) -> Option<&Sq8> {
        self.quant.as_ref()
    }

    /// Total distance evaluations spent constructing the index.
    pub fn build_ndist(&self) -> u64 {
        self.build_cost.total()
    }

    /// [`Hnsw::build_ndist`] split by phase of insertion.
    pub fn build_cost(&self) -> BuildCost {
        self.build_cost
    }

    /// Current `(entry node, top level)` pair, for serialization.
    pub(crate) fn entry_snapshot(&self) -> Option<(u32, u8)> {
        self.entry
    }

    /// Node `id`'s neighbour list at `layer`, for serialization.
    pub(crate) fn links_of(&self, id: u32, layer: usize) -> &[u32] {
        self.graph.neighbors(id, layer)
    }

    /// Reassembles an index from deserialized parts. Callers must supply a
    /// structurally valid graph (the deserializer validates link ranges).
    /// Validator fixtures pass an empty `entry_set` for single-entry
    /// reachability, or an explicit one to exercise multi-entry
    /// reachability.
    #[allow(clippy::too_many_arguments)] // mirrors the serialized field list
    pub(crate) fn from_parts(
        config: HnswConfig,
        dist: Distance,
        data: VectorSet,
        levels: Vec<u8>,
        links: Vec<Vec<Vec<u32>>>,
        entry: Option<(u32, u8)>,
        entry_set: Vec<u32>,
        quant: Option<Sq8>,
    ) -> Self {
        assert_eq!(levels.len(), data.len());
        assert_eq!(links.len(), data.len());
        assert!(
            entry_set.iter().all(|&e| (e as usize) < data.len()),
            "entry-set member out of range"
        );
        if let Some(q) = &quant {
            assert_eq!(q.len(), data.len(), "quantizer row count mismatch");
            assert_eq!(q.dim(), data.dim(), "quantizer dimension mismatch");
        }
        let mut graph = Graph::for_levels(&levels, config.m, config.m_max0());
        for (id, per_layer) in links.into_iter().enumerate() {
            for (layer, l) in per_layer.into_iter().enumerate() {
                graph.set_neighbors(id as u32, layer, l);
            }
        }
        let n = levels.len();
        Self {
            config,
            dist,
            data,
            levels,
            graph,
            quant,
            entry,
            entry_set,
            build_cost: BuildCost::default(),
            tombstones: vec![false; n],
            live: n,
            mutation_epoch: 0,
        }
    }

    /// Attaches deserialized mutation state: the tombstone map and the
    /// epoch counter ([`Hnsw::from_parts`] installs all-live at epoch 0).
    pub(crate) fn with_mutation_state(mut self, tombstones: Vec<bool>, epoch: u64) -> Self {
        assert_eq!(
            tombstones.len(),
            self.len(),
            "tombstone map length mismatch"
        );
        self.live = tombstones.iter().filter(|&&t| !t).count();
        self.tombstones = tombstones;
        self.mutation_epoch = epoch;
        self
    }

    /// Highest-level node first, then natural order — gives every build
    /// a stable entry point.
    fn insertion_order(&self) -> Vec<u32> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let top = (0..n).max_by_key(|&i| self.levels[i]).expect("non-empty") as u32;
        let mut order = Vec::with_capacity(n);
        order.push(top);
        order.extend((0..n as u32).filter(|&i| i != top));
        order
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the index holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// The metric this index was built with.
    pub fn distance(&self) -> Distance {
        self.dist
    }

    /// The construction configuration.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Borrow the indexed vectors.
    pub fn vectors(&self) -> &VectorSet {
        &self.data
    }

    /// Level of node `id` (for diagnostics and tests).
    pub fn level(&self, id: u32) -> u8 {
        self.levels[id as usize]
    }

    /// Top layer currently populated; `None` when empty.
    pub fn top_level(&self) -> Option<u8> {
        self.entry.map(|(_, l)| l)
    }

    /// Total directed edges in the graph (memory/diagnostics).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Approximate resident bytes of the index (vectors + links), used for
    /// the replication-factor memory accounting in the distributed engine.
    pub fn approx_bytes(&self) -> usize {
        self.data.as_flat().len() * 4 + self.edge_count() * 4 + self.levels.len()
    }

    /// The single distance hook every traversal goes through: evaluates
    /// the query against stored point `id` in whichever domain the query
    /// was lowered to, and charges the scratch counters. Quantized
    /// evaluations count toward both `ndist` (the virtual-clock quantity)
    /// and `ndist_quant` (the observability split).
    #[inline]
    fn d(&self, q: &QueryDist<'_>, id: u32, scratch: &mut SearchScratch) -> f32 {
        scratch.ndist += 1;
        match q {
            QueryDist::Exact(q) => self.dist.eval(q, self.data.get(id as usize)),
            QueryDist::Quant { sq, prep } => {
                scratch.ndist_quant += 1;
                sq.asym_l2(prep, id as usize)
            }
        }
    }

    /// Deterministically widens a beam bound to compensate for tombstoned
    /// beam slots: `ef · n / live`, rounded up (saturating integer
    /// arithmetic, so the widening is bit-identical everywhere), then
    /// clamped to `n`: a beam of `n` already holds every node, so the
    /// clamp changes no answer. Callers guard `live == 0` before
    /// searching.
    fn inflate_ef(&self, ef: usize) -> usize {
        let n = self.len();
        let ef = if self.live == n || self.live == 0 {
            ef
        } else {
            ef.saturating_mul(n).div_ceil(self.live)
        };
        ef.min(n)
    }

    /// Inserts node `id` (its vector is already in `self.data`): beam
    /// descent, then per layer a beam search, neighbour selection and the
    /// links, then promotion to entry point when the node tops the graph.
    /// Linking at one layer touches only that layer's lists, so each
    /// layer's links are written as soon as they are selected and the next
    /// layer's search sees the graph a whole plan-then-link pass would.
    /// Construction always runs exact: link structure must not inherit
    /// quantization error. Into an empty graph the node simply becomes the
    /// entry point. The descent seeds, the selection and the chosen links
    /// live in `scratch`, so an insert allocates nothing once it is warm.
    fn insert(&mut self, id: u32, scratch: &mut SearchScratch) {
        let level = self.levels[id as usize];
        scratch.begin(self.len());
        let Some((ep, top)) = self.entry else {
            self.entry = Some((id, level));
            return;
        };
        let mut eps = std::mem::take(&mut scratch.seeds);
        let mut links = std::mem::take(&mut scratch.links);
        let qd = QueryDist::Exact(self.data.get(id as usize));
        eps.clear();
        eps.push(Neighbor::new(ep, self.d(&qd, ep, scratch)));
        // Beam descent through layers above the node's level.
        // Construction descends from the single current entry (seeding
        // not-yet-inserted entry-set nodes would link them prematurely),
        // but still carries `ENTRY_BEAM` candidates across layers so
        // clustered inserts do not get stranded in one basin.
        for lc in ((level as usize + 1)..=(top as usize)).rev() {
            self.search_layer(&qd, &mut eps, ENTRY_BEAM, lc, scratch);
        }
        let mut cost = BuildCost::default();
        for lc in (0..=(level.min(top) as usize)).rev() {
            let qd = QueryDist::Exact(self.data.get(id as usize));
            self.search_layer(&qd, &mut eps, self.config.ef_construction, lc, scratch);
            cost.search += scratch.ndist - cost.total();
            // Tombstoned nodes may carry the beam as waypoints, but a new
            // node never links to one: their edges vanish at repair, which
            // would orphan the newcomer.
            let sel = &mut scratch.select;
            sel.begin();
            for &n in eps.iter().filter(|n| !self.tombstones[n.id as usize]) {
                sel.push(n);
            }
            sel.select(
                &self.data,
                self.dist,
                self.config.m,
                None,
                &mut scratch.ndist,
            );
            cost.select += scratch.ndist - cost.total();
            self.graph.set_chosen(id, lc, &scratch.select);
            links.clear();
            links.extend(scratch.select.chosen());
            for n in &links {
                self.link_back(n.id, id, n.dist, lc, scratch);
            }
            cost.link += scratch.ndist - cost.total();
        }
        scratch.seeds = eps;
        scratch.links = links;
        if level > top {
            self.entry = Some((id, level));
        }
        self.build_cost.search += cost.search;
        self.build_cost.select += cost.select;
        self.build_cost.link += cost.link;
    }

    /// Adds edge `from -> to` at `layer`, `d` apart, shrinking `from`'s
    /// neighbourhood with the selection heuristic if it overflows. The
    /// caller measured `d` from `to`'s side; every metric is symmetric bit
    /// for bit, so it is the distance `from` would measure.
    ///
    /// An overflow reselects over `from`'s links and `to`. On layer 0
    /// during [`Hnsw::build`] the graph's memo supplies `from`'s distance
    /// to each link and every pair check decided in earlier overflows, so
    /// only the checks involving `to`, and those an earlier selection
    /// never reached, are evaluated. Elsewhere the distances are measured
    /// afresh.
    ///
    /// Pruning is *symmetric*: every edge the reselection drops from
    /// `from`'s list also drops its reverse edge. Without that, overflow
    /// pruning leaves `l -> from` dangling whenever it discards
    /// `from -> l` — the asymmetry the graph validator
    /// ([`Hnsw::validate`]) was written to catch.
    fn link_back(&mut self, from: u32, to: u32, d: f32, layer: usize, scratch: &mut SearchScratch) {
        let max = self.config.max_links(layer);
        let links = self.graph.neighbors(from, layer);
        if links.contains(&to) {
            return;
        }
        if links.len() < max {
            self.graph.push_neighbor(from, layer, to, d);
            return;
        }
        let sel = &mut scratch.select;
        sel.begin();
        if self.graph.memo_covers(layer) {
            let lent = self.graph.load_memo(from, Neighbor::new(to, d), sel);
            sel.select(&self.data, self.dist, max, Some(lent), &mut scratch.ndist);
        } else {
            let fv = self.data.get(from as usize);
            for &l in links {
                scratch.ndist += 1;
                sel.push(Neighbor::new(
                    l,
                    self.dist.eval(fv, self.data.get(l as usize)),
                ));
            }
            sel.push(Neighbor::new(to, d));
            sel.select(&self.data, self.dist, max, None, &mut scratch.ndist);
        }
        for c in scratch.select.dropped() {
            self.graph.remove_neighbor(c, layer, from);
        }
        self.graph.set_chosen(from, layer, &scratch.select);
    }

    /// Multi-entry beam descent — the upper-layer half of a search. Starts
    /// from the entry point, folds each diverse entry-set member into the
    /// beam at the topmost layer it participates in, and carries the best
    /// `ENTRY_BEAM` candidates across layers. Every entry-set member
    /// participates at layer 0, so any member the descent never consumed
    /// is injected into the returned seed list — the layer-0 beam starts
    /// from every basin the entry set covers, which is what rescues recall
    /// on multi-modal data (DESIGN.md §13).
    ///
    /// Overwrites `eps` with the layer-0 seeds and returns `(descent hops,
    /// entry seeds consumed)`; the seeds are empty only for an empty index.
    fn descend(
        &self,
        q: &QueryDist<'_>,
        eps: &mut Vec<Neighbor>,
        scratch: &mut SearchScratch,
    ) -> (u64, u64) {
        eps.clear();
        let Some((ep, top)) = self.entry else {
            return (0, 0);
        };
        eps.push(Neighbor::new(ep, self.d(q, ep, scratch)));
        let mut seeded = 0u64; // bitmask over entry_set indices
        let mut entry_seeds = 0u64;
        let mut hops = 0u64;
        let mut fold_in = |lc: usize, eps: &mut Vec<Neighbor>, scratch: &mut SearchScratch| {
            for (i, &e) in self.entry_set.iter().enumerate() {
                if seeded & (1 << i) == 0 && (self.levels[e as usize] as usize) >= lc {
                    seeded |= 1 << i;
                    if !eps.iter().any(|n| n.id == e) {
                        let d = self.d(q, e, scratch);
                        eps.push(Neighbor::new(e, d));
                        entry_seeds += 1;
                    }
                }
            }
        };
        for lc in (1..=(top as usize)).rev() {
            fold_in(lc, eps, scratch);
            self.search_layer(q, eps, ENTRY_BEAM, lc, scratch);
            hops += 1;
        }
        fold_in(0, eps, scratch);
        (hops, entry_seeds)
    }

    /// `ef`-bounded best-first search on one layer (HNSW Algorithm 2),
    /// seeded from `eps`, which it overwrites with up to `ef` nearest
    /// candidates sorted ascending.
    ///
    /// The beam ([`crate::scratch::Beam`]) is one sorted pool on
    /// `(dist, id)`: a candidate enters while fewer than `ef` are held,
    /// and afterwards only by replacing a strictly worse worst. The
    /// visited epoch admits each id once, so unlike `TopK::push` no
    /// duplicate check is needed. The beam lives in `scratch`, so it does
    /// not allocate once the scratch has served the largest `ef` it will
    /// see.
    fn search_layer(
        &self,
        q: &QueryDist<'_>,
        eps: &mut Vec<Neighbor>,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
    ) {
        scratch.new_epoch(self.len());
        let mut beam = std::mem::take(&mut scratch.beam);
        beam.reset(ef);
        for &ep in eps.iter() {
            if scratch.mark(ep.id) {
                beam.seed(ep);
                scratch.heap_pushes += 1;
            }
        }
        beam.seeded();
        let mut fresh = std::mem::take(&mut scratch.fresh);
        while let Some(c) = beam.pop() {
            let n = scratch.mark_fresh(self.graph.neighbors(c.id, layer), &mut fresh);
            for &nb in &fresh[..n] {
                let d = self.d(q, nb, scratch);
                let full = beam.is_full();
                if beam.admit(Neighbor::new(nb, d)) {
                    scratch.heap_pushes += 1;
                    scratch.ef_churn += u64::from(full);
                }
            }
        }
        beam.drain_into(eps);
        scratch.beam = beam;
        scratch.fresh = fresh;
    }

    /// Appends one vector to the index and links it into the graph —
    /// dynamic insertion for indexes that keep growing after the bulk
    /// build. Returns the new point's id.
    ///
    /// The level is drawn from the same deterministic per-id hash as the
    /// bulk build, so an index grown by `add` is distributed identically to
    /// one built at full size.
    ///
    /// # Panics
    /// Panics if `v.len() != dim()` (for a non-empty index).
    pub fn add(&mut self, v: &[f32]) -> u32 {
        if !self.data.is_empty() {
            assert_eq!(v.len(), self.dim(), "inserted vector has wrong dimension");
        }
        let id = self.data.len() as u32;
        let level = assign_level(self.config.seed, id, self.config.level_mult());
        self.data.push(v);
        self.levels.push(level);
        self.tombstones.push(false);
        self.live += 1;
        self.graph.push_node(level as usize, self.config.m);
        let mut scratch = SearchScratch::with_capacity(self.len());
        self.insert(id, &mut scratch);
        // A new upper-layer node can change the k-center selection; pure
        // layer-0 nodes cannot (they are never candidates), so skip the
        // O(cap · n) rescan for the ~94% of adds that stay on layer 0.
        if level >= 1 || self.entry_set.is_empty() {
            self.refresh_entry_set();
        }
        // Incremental quantizer refresh: when the trained grid already
        // covers the new point, append its code and norm to the codebook
        // and quantized search stays on. A point outside the training box
        // would clamp — silently wrong ranks — so the grid is dropped
        // instead and searches fall back to exact until the caller
        // retrains.
        match &mut self.quant {
            Some(sq) if Self::in_grid(sq, v) => sq.push(v),
            _ => self.quant = None,
        }
        self.mutation_epoch += 1;
        id
    }

    /// `true` when `v` lies inside the per-dimension box `sq` was trained
    /// on, i.e. encoding it loses no more than the grid's native rounding.
    fn in_grid(sq: &Sq8, v: &[f32]) -> bool {
        v.iter().enumerate().all(|(d, &x)| {
            let lo = sq.lo()[d];
            x >= lo && x <= lo + 255.0 * sq.step()[d]
        })
    }

    /// Validates the structural invariants of the layered graph:
    ///
    /// * the entry point's stored level matches its node level and is the
    ///   maximum over all nodes;
    /// * every node has exactly `level + 1` layer lists;
    /// * per-layer degrees respect [`HnswConfig::max_links`];
    /// * links are in range, non-self, duplicate-free, and only target
    ///   nodes that participate in the layer;
    /// * links are symmetric (`u -> v` implies `v -> u`);
    /// * the diverse entry set, when present, is in range, duplicate-free,
    ///   starts with the entry point, holds at most 16 members, and every
    ///   other member participates above layer 0;
    /// * the tombstone map covers every row, agrees with the live counter,
    ///   and — while any live node remains — neither the entry point nor an
    ///   entry-set member is tombstoned;
    /// * every **live** node is reachable on layer 0 from at least one
    ///   entry (the entry point or an entry-set member); tombstoned nodes
    ///   may be reachable (pre-repair waypoints) or isolated (post-repair)
    ///   but must never be the only path to a live node.
    ///
    /// Every construction path — [`Hnsw::build`] and [`Hnsw::add`] — must
    /// satisfy all of these ([`Hnsw::build`] checks automatically in debug
    /// profiles).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        let (ep, top) = match (n, self.entry) {
            (0, None) => return Ok(()),
            (0, Some(_)) => return Err("empty index has an entry point".into()),
            (_, None) => return Err("non-empty index has no entry point".into()),
            (_, Some(e)) => e,
        };
        if (ep as usize) >= n {
            return Err(format!("entry point {ep} out of range (n = {n})"));
        }
        if self.levels[ep as usize] != top {
            return Err(format!(
                "entry point {ep} stored at level {top} but its node level is {}",
                self.levels[ep as usize]
            ));
        }
        // Mutation-state consistency: the tombstone map tracks every row and
        // the live counter matches it.
        if self.tombstones.len() != n {
            return Err(format!(
                "tombstone map covers {} of {n} nodes",
                self.tombstones.len()
            ));
        }
        let live = self.tombstones.iter().filter(|&&t| !t).count();
        if live != self.live {
            return Err(format!(
                "live counter {} disagrees with tombstone map ({live} live)",
                self.live
            ));
        }
        if live > 0 && self.tombstones[ep as usize] {
            return Err(format!(
                "entry point {ep} is tombstoned while {live} live nodes remain"
            ));
        }
        // The entry level must be the maximum over live nodes: removals
        // re-elect the entry among survivors, so a higher-levelled tombstone
        // is legal but a higher-levelled live node means the entry is stale.
        // A fully-tombstoned index keeps whatever entry history left (every
        // search short-circuits to empty), so the check is vacuous there.
        if live > 0 {
            let max_level = self
                .levels
                .iter()
                .zip(&self.tombstones)
                .filter(|&(_, &t)| !t)
                .map(|(&l, _)| l)
                .max()
                .unwrap_or(0);
            if top != max_level {
                return Err(format!(
                    "entry-point level {top} is not the graph maximum {max_level}"
                ));
            }
        }
        for id in 0..n as u32 {
            let level = self.levels[id as usize] as usize;
            let stored = self.graph.layer_count(id);
            if stored != level + 1 {
                return Err(format!(
                    "node {id} at level {level} stores {stored} layer lists"
                ));
            }
            for layer in 0..=level {
                let ns = self.graph.neighbors(id, layer);
                if ns.len() > self.config.max_links(layer) {
                    return Err(format!(
                        "node {id} layer {layer} degree {} exceeds bound {}",
                        ns.len(),
                        self.config.max_links(layer)
                    ));
                }
                let mut sorted = ns.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != ns.len() {
                    return Err(format!("node {id} layer {layer} has duplicate links"));
                }
                for &nb in ns {
                    if nb == id {
                        return Err(format!("node {id} links to itself at layer {layer}"));
                    }
                    if (nb as usize) >= n {
                        return Err(format!(
                            "node {id} layer {layer} links to out-of-range {nb}"
                        ));
                    }
                    if (self.levels[nb as usize] as usize) < layer {
                        return Err(format!(
                            "node {id} layer {layer} links to {nb}, which only \
                             participates up to layer {}",
                            self.levels[nb as usize]
                        ));
                    }
                    if !self.graph.neighbors(nb, layer).contains(&id) {
                        return Err(format!(
                            "asymmetric link: {id} -> {nb} at layer {layer} has no reverse edge"
                        ));
                    }
                }
            }
        }
        // Diverse entry-set invariants (an empty set is legal: construction
        // validates before the set is selected, and validator fixtures may
        // omit it).
        if !self.entry_set.is_empty() {
            if self.entry_set.len() > ENTRY_SET_CAP {
                return Err(format!(
                    "entry set holds {} members, cap is {ENTRY_SET_CAP}",
                    self.entry_set.len()
                ));
            }
            if self.entry_set[0] != ep {
                return Err(format!(
                    "entry set starts with {} instead of the entry point {ep}",
                    self.entry_set[0]
                ));
            }
            let mut sorted = self.entry_set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != self.entry_set.len() {
                return Err("entry set has duplicate members".into());
            }
            for &e in &self.entry_set {
                if (e as usize) >= n {
                    return Err(format!("entry-set member {e} out of range (n = {n})"));
                }
                if e != ep && self.levels[e as usize] < 1 {
                    return Err(format!(
                        "entry-set member {e} does not participate above layer 0"
                    ));
                }
                if live > 0 && self.tombstones[e as usize] {
                    return Err(format!("entry-set member {e} is tombstoned"));
                }
            }
        }
        // Layer-0 reachability of every LIVE node from the entries (the
        // entry point plus every entry-set member — searches seed the
        // layer-0 beam from all of them, so a point is searchable iff some
        // entry reaches it). Tombstoned nodes may remain reachable as
        // waypoints before a repair pass and become isolated after one;
        // both states are legal — what must never happen is a live node
        // only reachable through edges a repair already removed.
        let seen = self.layer0_reachable();
        let unreachable = (0..n)
            .filter(|&id| !seen[id] && !self.tombstones[id])
            .count();
        if unreachable != 0 {
            return Err(format!(
                "{unreachable} of {live} live nodes unreachable from the {} entries on layer 0",
                1 + self.entry_set.len()
            ));
        }
        Ok(())
    }

    /// k-NN search: multi-entry descent to layer 0, an `ef`-wide layer-0
    /// beam (widened while tombstones occupy beam
    /// slots), and the best `k` live survivors.
    ///
    /// With `params.quantized` set this is the quantized-first pipeline
    /// (the AQR-HNSW recipe): the traversal runs with the SQ8 asymmetric
    /// distance in the squared-L2 domain over one byte per dimension, and
    /// the first [`RERANK_FACTOR`]` * k` beam survivors are re-ranked with
    /// the exact metric. An index with no trained quantizer (empty, non-L2
    /// metric, or a stale grid after [`Hnsw::add`]) answers quantized
    /// requests on the exact path, so callers always get correct results.
    ///
    /// Determinism: exact and quantized distances are bit-identical across
    /// thread counts (same chunked kernels, same reduction order), and the
    /// result depends only on the index, the query and `params`.
    ///
    /// # Panics
    /// Panics if `k == 0` or the query dimension does not match the
    /// index.
    pub fn search(
        &self,
        q: &[f32],
        params: &SearchParams,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, SearchStats) {
        let k = params.k;
        assert!(k > 0, "k must be positive");
        assert_eq!(q.len(), self.data.dim(), "query dimension mismatch");
        scratch.begin(self.len());
        if self.live == 0 || self.entry.is_none() {
            return (Vec::new(), SearchStats::default());
        }
        // The prepared query and the beam's seeds live in the scratch, so
        // a probe allocates only its answer.
        let mut prep = std::mem::take(&mut scratch.query);
        let mut w = std::mem::take(&mut scratch.seeds);
        let quant = self.quant.as_ref().filter(|_| params.quantized);
        let qd = match quant {
            Some(sq) => {
                sq.prepare_query(q, &mut prep);
                QueryDist::Quant { sq, prep: &prep }
            }
            None => QueryDist::Exact(q),
        };
        let ef = self.inflate_ef(params.ef.max(k));
        let (hops, entry_seeds) = self.descend(&qd, &mut w, scratch);
        self.search_layer(&qd, &mut w, ef, 0, scratch);
        if self.live < self.len() {
            w.retain(|n| !self.tombstones[n.id as usize]);
        }
        let (out, pool) = if quant.is_some() {
            let pool = RERANK_FACTOR.saturating_mul(k).min(w.len());
            let out = rerank_exact(
                self.dist,
                &self.data,
                q,
                &w[..pool],
                k,
                &mut scratch.rerank,
                &mut scratch.ndist,
            );
            (out, pool as u64)
        } else {
            (w[..k.min(w.len())].to_vec(), 0)
        };
        scratch.query = prep;
        scratch.seeds = w;
        (
            out,
            SearchStats {
                ndist: scratch.ndist(),
                ndist_quant: scratch.ndist_quant(),
                rerank: pool,
                hops,
                heap_pushes: scratch.heap_pushes,
                ef_churn: scratch.ef_churn,
                entry_seeds,
            },
        )
    }
}

impl std::fmt::Debug for Hnsw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hnsw")
            .field("len", &self.len())
            .field("dim", &self.dim())
            .field("m", &self.config.m)
            .field("top_level", &self.top_level())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_data::{ground_truth, synth};

    fn small_index(n: usize, dim: usize, seed: u64) -> (VectorSet, Hnsw) {
        let data = synth::sift_like(n, dim, seed);
        let idx = Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(8).seed(seed));
        (data, idx)
    }

    /// Exact search on fresh scratch.
    fn exact(idx: &Hnsw, q: &[f32], k: usize, ef: usize) -> (Vec<Neighbor>, SearchStats) {
        idx.search(q, &SearchParams::new(k, ef), &mut SearchScratch::default())
    }

    /// Quantized-first search on fresh scratch.
    fn quantized(idx: &Hnsw, q: &[f32], k: usize, ef: usize) -> (Vec<Neighbor>, SearchStats) {
        let params = SearchParams::new(k, ef).quantized(true);
        idx.search(q, &params, &mut SearchScratch::default())
    }

    #[test]
    fn seed_zero_build_keeps_a_low_top_level() {
        // node 0 of a seed-0 build hashes to 0; it must not take the
        // highest level the hash can give
        let data = synth::sift_like(2000, 8, 3);
        let idx = Hnsw::build(data, Distance::L2, HnswConfig::default());
        let top = idx.top_level().expect("a non-empty index has an entry");
        assert!(top <= 6, "top level {top}");
    }

    #[test]
    fn empty_index_searches_empty() {
        let idx = Hnsw::build(VectorSet::new(4), Distance::L2, HnswConfig::default());
        let (r, s) = exact(&idx, &[0.0; 4], 3, 10);
        assert!(r.is_empty());
        assert_eq!(s.ndist, 0);
        let (rq, sq) = quantized(&idx, &[0.0; 4], 3, 10);
        assert!(rq.is_empty());
        assert_eq!(sq.ndist, 0);
    }

    #[test]
    fn quantized_search_finds_self_with_exact_distance() {
        let (data, idx) = small_index(400, 16, 51);
        let q = data.get(11);
        let (hits, stats) = quantized(&idx, q, 5, 64);
        assert_eq!(hits[0].id, 11);
        // the re-rank stage scores survivors with the exact metric, so the
        // self-distance is exactly zero despite the quantized traversal
        assert_eq!(hits[0].dist, 0.0);
        assert!(stats.ndist_quant > 0, "traversal should run quantized");
        assert_eq!(stats.rerank, 15, "pool = RERANK_FACTOR * k");
        assert!(
            stats.ndist > stats.ndist_quant,
            "re-rank adds exact evaluations on top"
        );
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn quantized_recall_within_a_point_of_exact() {
        // fine-grained unit-norm data is where quantization error bites;
        // the re-rank pool must recover recall to within 0.01 of exact
        let data = synth::deep_like(2500, 32, 91);
        let queries = synth::queries_near(&data, 50, 0.02, 92);
        let idx = Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(16).seed(91));
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        let mut scratch = SearchScratch::with_capacity(idx.len());
        let exact: Vec<_> = (0..queries.len())
            .map(|i| {
                idx.search(queries.get(i), &SearchParams::new(10, 64), &mut scratch)
                    .0
            })
            .collect();
        let quant: Vec<_> = (0..queries.len())
            .map(|i| {
                idx.search(
                    queries.get(i),
                    &SearchParams::new(10, 64).quantized(true),
                    &mut scratch,
                )
                .0
            })
            .collect();
        let r_exact = ground_truth::recall_at_k(&exact, &gt, 10).mean;
        let r_quant = ground_truth::recall_at_k(&quant, &gt, 10).mean;
        assert!(
            r_quant >= r_exact - 0.01,
            "quantized recall {r_quant} dropped more than 0.01 below exact {r_exact}"
        );
    }

    #[test]
    fn quantized_search_spends_fewer_exact_evaluations() {
        let (data, idx) = small_index(1500, 32, 61);
        let q = data.get(7);
        let (_, se) = exact(&idx, q, 10, 64);
        let (_, sq) = quantized(&idx, q, 10, 64);
        let exact_evals = sq.ndist - sq.ndist_quant;
        assert_eq!(
            exact_evals, sq.rerank,
            "the only exact evaluations are the re-rank pool"
        );
        assert!(
            exact_evals < se.ndist / 2,
            "quantized path should do far fewer exact evals ({exact_evals} vs {})",
            se.ndist
        );
    }

    #[test]
    fn quantized_search_is_deterministic_across_calls() {
        let (data, idx) = small_index(800, 16, 71);
        let mut s1 = SearchScratch::with_capacity(idx.len());
        let mut s2 = SearchScratch::with_capacity(idx.len());
        for i in (0..800).step_by(97) {
            let q = data.get(i);
            let (a, sa) = idx.search(q, &SearchParams::new(5, 48).quantized(true), &mut s1);
            let (b, sb) = idx.search(q, &SearchParams::new(5, 48).quantized(true), &mut s2);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
            assert_eq!(sa, sb, "stats identical too");
        }
    }

    #[test]
    fn add_invalidates_quantizer_and_retrain_restores_it() {
        let (_, idx) = small_index(200, 8, 41);
        assert!(idx.quantizer().is_some());
        let mut idx = idx;
        idx.add(&[500.0; 8]); // outside the trained box
        assert!(idx.quantizer().is_none(), "add must invalidate the grid");
        // fallback still answers exactly
        let (hits, stats) = quantized(&idx, &[500.0; 8], 1, 16);
        assert_eq!(hits[0].id, 200);
        assert_eq!(stats.ndist_quant, 0, "stale grid must not be used");
        idx.train_quantizer();
        assert!(idx.quantizer().is_some());
        let (hits, stats) = quantized(&idx, &[500.0; 8], 1, 16);
        assert_eq!(hits[0].id, 200);
        assert!(stats.ndist_quant > 0, "retrained grid re-enables quantized");
    }

    #[test]
    fn cosine_index_has_no_quantizer_and_falls_back() {
        let data = synth::deep_like(300, 8, 23);
        let idx = Hnsw::build(
            data.clone(),
            Distance::Cosine,
            HnswConfig::with_m(8).seed(23),
        );
        assert!(idx.quantizer().is_none(), "cosine cannot rank in sq-L2");
        let (a, stats) = quantized(&idx, data.get(5), 3, 32);
        let (b, _) = exact(&idx, data.get(5), 3, 32);
        assert_eq!(a, b, "fallback must equal the exact path");
        assert_eq!(stats.ndist_quant, 0);
    }

    #[test]
    fn single_point_index() {
        let mut data = VectorSet::new(2);
        data.push(&[1.0, 2.0]);
        let idx = Hnsw::build(data, Distance::L2, HnswConfig::default());
        let (r, _) = exact(&idx, &[1.0, 2.0], 3, 10);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, 0);
        assert_eq!(r[0].dist, 0.0);
    }

    #[test]
    fn finds_self_as_nearest() {
        let (data, idx) = small_index(500, 16, 3);
        for i in (0..500).step_by(37) {
            let (r, _) = exact(&idx, data.get(i), 1, 32);
            assert_eq!(r[0].id, i as u32, "point {i} should find itself");
        }
    }

    #[test]
    fn results_sorted_and_unique() {
        let (data, idx) = small_index(800, 16, 4);
        let (r, _) = exact(&idx, data.get(5), 10, 64);
        assert_eq!(r.len(), 10);
        for w in r.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<u32> = r.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn high_recall_on_small_set() {
        let data = synth::sift_like(2000, 16, 5);
        let queries = synth::queries_near(&data, 50, 0.02, 6);
        let idx = Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(16).seed(5));
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        let approx: Vec<_> = (0..queries.len())
            .map(|i| exact(&idx, queries.get(i), 10, 128).0)
            .collect();
        let rec = ground_truth::recall_at_k(&approx, &gt, 10);
        assert!(rec.mean > 0.9, "recall too low: {}", rec.mean);
    }

    #[test]
    fn higher_ef_never_lowers_mean_recall_much() {
        let data = synth::deep_like(1500, 24, 8);
        let queries = synth::queries_near(&data, 30, 0.02, 9);
        let idx = Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(8).seed(8));
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        let recall_for = |ef: usize| {
            let approx: Vec<_> = (0..queries.len())
                .map(|i| exact(&idx, queries.get(i), 10, ef).0)
                .collect();
            ground_truth::recall_at_k(&approx, &gt, 10).mean
        };
        let lo = recall_for(16);
        let hi = recall_for(256);
        assert!(hi >= lo - 0.02, "ef=256 recall {hi} worse than ef=16 {lo}");
        assert!(hi > 0.85, "recall at ef=256 too low: {hi}");
    }

    #[test]
    fn ndist_grows_with_ef() {
        let (data, idx) = small_index(2000, 16, 10);
        let (_, s_small) = exact(&idx, data.get(0), 10, 16);
        let (_, s_large) = exact(&idx, data.get(0), 10, 256);
        assert!(
            s_large.ndist > s_small.ndist,
            "ef=256 ({}) should cost more than ef=16 ({})",
            s_large.ndist,
            s_small.ndist
        );
    }

    #[test]
    fn link_degrees_respect_bounds() {
        let (_, idx) = small_index(1000, 8, 11);
        for id in 0..1000u32 {
            for layer in 0..=idx.level(id) as usize {
                let ns = idx.graph.neighbors(id, layer);
                assert!(
                    ns.len() <= idx.config.max_links(layer),
                    "node {id} layer {layer} degree {} > bound",
                    ns.len()
                );
            }
        }
    }

    #[test]
    fn level_distribution_is_geometric() {
        let n = 20_000;
        let mult = 1.0 / 16f64.ln();
        let levels: Vec<u8> = (0..n as u32).map(|i| assign_level(42, i, mult)).collect();
        let l0 = levels.iter().filter(|&&l| l == 0).count() as f64 / n as f64;
        // P(level = 0) = 1 - 1/16 = 0.9375
        assert!((l0 - 0.9375).abs() < 0.01, "layer-0 fraction {l0}");
        let l1 = levels.iter().filter(|&&l| l == 1).count() as f64 / n as f64;
        assert!((l1 - 0.0586).abs() < 0.01, "layer-1 fraction {l1}");
    }

    #[test]
    fn graph_is_connected_at_layer0() {
        // BFS from entry must reach every node: the graph search can only
        // return reachable points.
        let (_, idx) = small_index(600, 8, 14);
        let (entry, _) = idx.entry.expect("non-empty");
        let n = idx.len();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[entry as usize] = true;
        queue.push_back(entry);
        while let Some(u) = queue.pop_front() {
            for &nb in idx.graph.neighbors(u, 0) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    queue.push_back(nb);
                }
            }
        }
        let reached = seen.iter().filter(|&&s| s).count();
        assert!(
            reached as f64 >= n as f64 * 0.99,
            "only {reached}/{n} nodes reachable from entry"
        );
    }

    #[test]
    fn k_larger_than_index_returns_all() {
        let (_, idx) = small_index(5, 8, 15);
        let (r, _) = exact(&idx, idx.vectors().get(0), 20, 64);
        assert_eq!(r.len(), 5);
    }

    #[test]
    #[should_panic]
    fn wrong_dim_query_panics() {
        let (_, idx) = small_index(10, 8, 16);
        let _ = exact(&idx, &[0.0; 4], 1, 8);
    }

    #[test]
    fn approx_bytes_counts_vectors_and_edges() {
        let (_, idx) = small_index(100, 8, 17);
        let b = idx.approx_bytes();
        assert!(b >= 100 * 8 * 4, "must at least count vector storage");
    }

    #[test]
    fn deterministic_sequential_build() {
        let data = synth::sift_like(400, 8, 18);
        let cfg = HnswConfig::with_m(8).seed(18);
        let a = Hnsw::build(data.clone(), Distance::L2, cfg);
        let b = Hnsw::build(data.clone(), Distance::L2, cfg);
        let qa = exact(&a, data.get(3), 5, 32).0;
        let qb = exact(&b, data.get(3), 5, 32).0;
        assert_eq!(qa, qb);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn add_grows_index_incrementally() {
        let data = synth::sift_like(600, 12, 30);
        let mut idx = Hnsw::build(
            data.split_even(2)[0].clone(),
            Distance::L2,
            HnswConfig::with_m(8).seed(30),
        );
        assert_eq!(idx.len(), 300);
        let second = data.split_even(2)[1].clone();
        for row in second.iter() {
            idx.add(row);
        }
        assert_eq!(idx.len(), 600);
        // newly added points are findable
        for i in (300..600).step_by(51) {
            let (r, _) = exact(&idx, data.get(i), 1, 48);
            assert_eq!(r[0].dist, 0.0, "added point {i} not found");
        }
        // recall comparable to a bulk-built index over the same data
        let bulk = Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(8).seed(30));
        let queries = synth::queries_near(&data, 20, 0.03, 31);
        let gt = ground_truth::brute_force(&data, &queries, 5, Distance::L2);
        let rec = |ix: &Hnsw| {
            let res: Vec<_> = (0..queries.len())
                .map(|i| exact(ix, queries.get(i), 5, 64).0)
                .collect();
            ground_truth::recall_at_k(&res, &gt, 5).mean
        };
        let (grown, built) = (rec(&idx), rec(&bulk));
        assert!(
            grown > built - 0.15,
            "grown index recall {grown} far below bulk {built}"
        );
    }

    #[test]
    fn add_into_empty_index() {
        let mut idx = Hnsw::build(VectorSet::new(3), Distance::L2, HnswConfig::with_m(4));
        let id = idx.add(&[1.0, 2.0, 3.0]);
        assert_eq!(id, 0);
        idx.add(&[1.1, 2.0, 3.0]);
        let (r, _) = exact(&idx, &[1.0, 2.0, 3.0], 2, 8);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].id, 0);
    }

    #[test]
    #[should_panic]
    fn add_wrong_dim_panics() {
        let data = synth::sift_like(10, 4, 32);
        let mut idx = Hnsw::build(data, Distance::L2, HnswConfig::with_m(4));
        idx.add(&[0.0; 5]);
    }

    /// Inserts `data` into two graphs, one keeping the memo and one
    /// measuring every distance afresh, then unlinks and re-inserts every
    /// `churn`-th node in both, as the repair does. Checks the memo
    /// against a recomputation after every `every`-th step.
    fn twin_builds(data: VectorSet, config: HnswConfig, every: usize, churn: usize) -> [Hnsw; 2] {
        let mut twins = [
            Hnsw::empty_for(data.clone(), Distance::L2, config),
            Hnsw::empty_for(data, Distance::L2, config),
        ];
        twins[0].graph.keep_memo();
        let mut scratch = SearchScratch::default();
        let order = twins[0].insertion_order();
        let rejoin = order.iter().step_by(churn).copied();
        let steps: Vec<(u32, bool)> = order
            .iter()
            .map(|&id| (id, false))
            .chain(rejoin.map(|id| (id, true)))
            .collect();
        for (i, &(id, again)) in steps.iter().enumerate() {
            for index in &mut twins {
                if again {
                    index.unlink(id);
                }
                index.insert(id, &mut scratch);
            }
            if i % every == 0 || i + 1 == steps.len() {
                twins[0]
                    .graph
                    .check_memo(&twins[0].data, Distance::L2)
                    .unwrap();
            }
        }
        twins
    }

    #[test]
    fn memo_stays_true_through_overflows_and_reinserts() {
        let data = synth::sift_like(500, 6, 91);
        let config = HnswConfig::with_m(4).ef_construction(32).seed(5);
        let [memo, fresh] = twin_builds(data, config, 7, 9);
        assert_eq!(memo.to_bytes(), fresh.to_bytes());
        assert!(memo.build_ndist() < fresh.build_ndist());
    }

    #[test]
    fn memo_rows_span_two_words_at_m_33() {
        // m_max0 = 66: an overflow reselects 67 candidates, and memo
        // slots 64 to 66 live in the second word of every row.
        let data = synth::sift_like(900, 4, 92);
        let config = HnswConfig::with_m(33).ef_construction(40).seed(6);
        let [memo, fresh] = twin_builds(data, config, 150, 7);
        assert_eq!(memo.to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn memo_bytes_per_node() {
        // link slots, distances, used bits and two bit matrices of
        // m_max0 + 1 memo slots
        for (m, bytes) in [(16, 128 + 132 + 8 + 528), (64, 512 + 516 + 24 + 6192)] {
            let mut g = Graph::for_levels(&[0, 0], m, 2 * m);
            assert_eq!(g.memo_bytes(), 0);
            g.keep_memo();
            assert_eq!(g.memo_bytes(), 2 * bytes, "M = {m}");
        }
    }

    fn tiny_points(n: usize) -> VectorSet {
        let mut data = VectorSet::new(2);
        for i in 0..n {
            data.push(&[i as f32, (i * i) as f32 * 0.1]);
        }
        data
    }

    #[test]
    fn validator_accepts_sequential_and_grown_index() {
        let (_, idx) = small_index(700, 8, 33);
        idx.validate().expect("sequential build is valid");
        let mut idx = idx;
        for i in 0..40 {
            idx.add(&[i as f32; 8]);
        }
        idx.validate().expect("grown index is valid");
    }

    #[test]
    fn validator_accepts_empty_index() {
        let idx = Hnsw::build(VectorSet::new(4), Distance::L2, HnswConfig::default());
        idx.validate().expect("empty index is valid");
    }

    #[test]
    fn validator_rejects_asymmetric_link() {
        let idx = Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            tiny_points(2),
            vec![0, 0],
            vec![vec![vec![1]], vec![vec![]]],
            Some((0, 0)),
            Vec::new(),
            None,
        );
        let err = idx.validate().expect_err("asymmetry must be caught");
        assert!(err.contains("asymmetric"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_degree_overflow() {
        // m = 2 -> layer-1 bound is 2; give node 0 three layer-1 links
        // (the layer-0 slab cannot even hold more than m_max0 = 4)
        let links = vec![
            vec![vec![1, 2, 3], vec![1, 2, 3]],
            vec![vec![0], vec![0]],
            vec![vec![0], vec![0]],
            vec![vec![0], vec![0]],
        ];
        let idx = Hnsw::from_parts(
            HnswConfig::with_m(2),
            Distance::L2,
            tiny_points(4),
            vec![1; 4],
            links,
            Some((0, 1)),
            Vec::new(),
            None,
        );
        let err = idx.validate().expect_err("degree overflow must be caught");
        assert!(err.contains("exceeds bound"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_unreachable_node() {
        let idx = Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            tiny_points(3),
            vec![0, 0, 0],
            vec![vec![vec![1]], vec![vec![0]], vec![vec![]]],
            Some((0, 0)),
            Vec::new(),
            None,
        );
        let err = idx.validate().expect_err("island must be caught");
        assert!(err.contains("unreachable"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_stale_entry_level() {
        // node 1 sits at level 1 but the entry point claims level 0 is top
        let idx = Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            tiny_points(2),
            vec![0, 1],
            vec![vec![vec![1]], vec![vec![0], vec![]]],
            Some((0, 0)),
            Vec::new(),
            None,
        );
        let err = idx.validate().expect_err("stale entry must be caught");
        assert!(
            err.contains("not the graph maximum"),
            "unexpected error: {err}"
        );
    }

    /// A layer-0-only 1-D index over `xs` with the given layer-0 links,
    /// entry point 0 and entry set `entry_set`.
    fn line_graph(xs: &[f32], links: Vec<Vec<u32>>, entry_set: Vec<u32>) -> Hnsw {
        let mut data = VectorSet::new(1);
        for &x in xs {
            data.push(&[x]);
        }
        Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            data,
            vec![0; xs.len()],
            links.into_iter().map(|l| vec![l]).collect(),
            Some((0, 0)),
            entry_set,
            None,
        )
    }

    #[test]
    fn beam_expands_a_spilled_candidate_that_ties_the_worst() {
        // Algorithm 2 stops only when the nearest unexpanded candidate is
        // strictly farther than the worst kept one. A candidate that fell
        // out of a full beam at exactly the worst distance must still be
        // expanded: here it is the only way to reach node 4 (or node 2).
        let q = [0.0];
        // Evicted while unexpanded: ef = 2 holds nodes 1 and 2 (both at
        // distance 2), node 3 pushes node 2 out, and node 2 ties node 1.
        let evicted = line_graph(
            &[5.0, -2.0, 2.0, 1.0, 0.5, -6.0],
            vec![
                vec![1, 2, 3],
                vec![0, 5],
                vec![0, 4],
                vec![0],
                vec![2],
                vec![1],
            ],
            Vec::new(),
        );
        let (hits, stats) =
            evicted.search(&q, &SearchParams::new(1, 2), &mut SearchScratch::default());
        assert_eq!(hits, vec![Neighbor::new(4, 0.5)]);
        assert_eq!((stats.ndist, stats.heap_pushes, stats.ef_churn), (6, 5, 3));
        // Rejected as a seed: the entry (node 0) and the entry-set member
        // (node 1) tie at distance 2, so an ef = 1 beam keeps node 0 and
        // turns node 1 away, yet node 1 leads to node 2.
        let rejected = line_graph(
            &[-2.0, 2.0, 0.5, -3.0],
            vec![vec![3], vec![2], vec![1], vec![0]],
            vec![1],
        );
        let (hits, stats) =
            rejected.search(&q, &SearchParams::new(1, 1), &mut SearchScratch::default());
        assert_eq!(hits, vec![Neighbor::new(2, 0.5)]);
        assert_eq!((stats.ndist, stats.heap_pushes, stats.ef_churn), (4, 3, 1));
    }

    #[test]
    fn duplicate_points_return_lowest_ids_deterministically() {
        // Nine identical vectors (within the m_max0 = 8 cap, so overflow
        // pruning never fires): every pairwise and query distance ties, so
        // the canonical (distance, id) order must surface ids 0..5.
        let mut data = VectorSet::new(4);
        for _ in 0..9 {
            data.push(&[3.0, 1.0, 4.0, 1.5]);
        }
        let idx = Hnsw::build(data, Distance::L2, HnswConfig::with_m(4).seed(2));
        idx.validate().expect("duplicate-point build is valid");
        let (r, _) = exact(&idx, &[3.0, 1.0, 4.0, 1.5], 5, 32);
        let ids: Vec<u32> = r.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(r.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn entry_set_is_diverse_and_deterministic() {
        // two well-separated blobs: the entry set must cover both
        let mut data = VectorSet::new(2);
        for i in 0..300 {
            let off = if i % 2 == 0 { 0.0 } else { 1000.0 };
            data.push(&[off + (i as f32) * 0.01, off]);
        }
        let cfg = HnswConfig::with_m(8).seed(5);
        let a = Hnsw::build(data.clone(), Distance::L2, cfg);
        let b = Hnsw::build(data.clone(), Distance::L2, cfg);
        assert_eq!(a.entry_set(), b.entry_set(), "selection is deterministic");
        assert!(a.entry_set().len() > 1);
        assert_eq!(
            a.entry_set()[0],
            a.entry_snapshot().expect("non-empty").0,
            "entry point leads the set"
        );
        let far = |id: u32| data.get(id as usize)[1] > 500.0;
        let near_ep = far(a.entry_set()[0]);
        assert!(
            a.entry_set().iter().any(|&e| far(e) != near_ep),
            "entry set must reach the opposite blob: {:?}",
            a.entry_set()
        );
        // every non-entry member participates above layer 0
        for &e in &a.entry_set()[1..] {
            assert!(a.level(e) >= 1, "member {e} is a pure layer-0 node");
        }
    }

    #[test]
    fn validator_accepts_multi_entry_reachability() {
        // Two layer-0 components; the second is reachable only through an
        // entry-set member. With the member supplied the graph is legal;
        // without it node 2/3 are unsearchable and must be rejected.
        let mut data = VectorSet::new(1);
        for v in [[0.0f32], [0.1], [100.0], [100.1]] {
            data.push(&v);
        }
        let levels = vec![1, 0, 1, 0];
        let links = vec![
            vec![vec![1], vec![2]],
            vec![vec![0]],
            vec![vec![3], vec![0]],
            vec![vec![2]],
        ];
        let with_set = Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            data.clone(),
            levels.clone(),
            links.clone(),
            Some((0, 1)),
            vec![0, 2],
            None,
        );
        with_set
            .validate()
            .expect("second component is reachable via entry-set member 2");
        let without_set = Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            data,
            levels,
            links,
            Some((0, 1)),
            Vec::new(),
            None,
        );
        let err = without_set
            .validate()
            .expect_err("single-entry reachability must fail");
        assert!(err.contains("unreachable"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_malformed_entry_sets() {
        let build = |entry_set: Vec<u32>| {
            Hnsw::from_parts(
                HnswConfig::with_m(4),
                Distance::L2,
                tiny_points(3),
                vec![1, 0, 0],
                vec![vec![vec![1, 2], vec![]], vec![vec![0, 2]], vec![vec![0, 1]]],
                Some((0, 1)),
                entry_set,
                None,
            )
        };
        let err = build(vec![1])
            .validate()
            .expect_err("must start with entry");
        assert!(err.contains("instead of the entry point"), "{err}");
        let err = build(vec![0, 0]).validate().expect_err("dup member");
        assert!(err.contains("duplicate members"), "{err}");
        let err = build(vec![0, 2]).validate().expect_err("layer-0 member");
        assert!(err.contains("participate above layer 0"), "{err}");
        build(vec![0]).validate().expect("entry-only set is legal");
    }

    #[test]
    fn entry_seeds_reported_only_when_consumed() {
        let (data, idx) = small_index(900, 12, 45);
        assert!(idx.entry_set().len() > 1);
        let mut scratch = SearchScratch::with_capacity(idx.len());
        let (_, stats) = idx.search(data.get(3), &SearchParams::new(5, 32), &mut scratch);
        assert!(
            stats.entry_seeds > 0,
            "multi-member entry set should inject seeds"
        );
        assert!(stats.entry_seeds <= (idx.entry_set().len() - 1) as u64);
    }

    #[test]
    fn works_with_cosine_distance() {
        let data = synth::deep_like(500, 16, 19);
        let idx = Hnsw::build(
            data.clone(),
            Distance::Cosine,
            HnswConfig::with_m(8).seed(19),
        );
        let (r, _) = exact(&idx, data.get(7), 3, 32);
        assert_eq!(r[0].id, 7);
    }

    #[test]
    fn remove_filters_results_immediately() {
        let (data, idx) = small_index(800, 12, 90);
        let mut idx = idx;
        let removed: Vec<u32> = (0..800).step_by(5).map(|i| i as u32).collect();
        for &id in &removed {
            assert!(idx.remove(id), "first removal of {id} succeeds");
            assert!(!idx.remove(id), "second removal of {id} is a no-op");
        }
        assert_eq!(idx.live_len(), 800 - removed.len());
        assert!((idx.tombstone_ratio() - 0.2).abs() < 1e-9);
        let mut scratch = SearchScratch::with_capacity(idx.len());
        for i in (0..800).step_by(31) {
            let (r, _) = idx.search(data.get(i), &SearchParams::new(10, 64), &mut scratch);
            assert!(
                r.iter().all(|h| idx.is_live(h.id)),
                "query {i} surfaced a tombstoned id"
            );
            let (rq, _) = idx.search(
                data.get(i),
                &SearchParams::new(10, 64).quantized(true),
                &mut scratch,
            );
            assert!(
                rq.iter().all(|h| idx.is_live(h.id)),
                "quantized query {i} surfaced a tombstoned id"
            );
            if idx.is_live(i as u32) {
                assert_eq!(r[0].id, i as u32, "live point {i} must still find itself");
            }
        }
    }

    #[test]
    fn unbounded_ef_on_a_tombstoned_index_answers_like_ef_len() {
        // widening `ef` for tombstones must not overflow: any `ef` at or
        // above the index size already lets the beam hold every node
        let (data, mut idx) = small_index(300, 8, 5);
        for id in (0..300).step_by(3) {
            idx.remove(id);
        }
        let mut scratch = SearchScratch::default();
        for qi in [1, 50, 200] {
            let q = data.get(qi);
            let unbounded = idx.search(q, &SearchParams::new(10, usize::MAX), &mut scratch);
            let at_len = idx.search(q, &SearchParams::new(10, idx.len()), &mut scratch);
            assert_eq!(unbounded, at_len);
        }
    }

    #[test]
    fn remove_of_entry_point_reelects_live_entry() {
        let (_, idx) = small_index(500, 8, 91);
        let mut idx = idx;
        let (ep, _) = idx.entry_snapshot().expect("non-empty");
        assert!(idx.remove(ep));
        let (new_ep, _) = idx.entry_snapshot().expect("still has an entry");
        assert_ne!(new_ep, ep);
        assert!(idx.is_live(new_ep), "re-elected entry must be live");
        idx.validate()
            .expect("entry re-election keeps the graph valid");
        assert_eq!(idx.entry_set()[0], new_ep, "entry set follows the entry");
    }

    #[test]
    fn remove_all_points_yields_empty_results() {
        let (data, idx) = small_index(60, 8, 92);
        let mut idx = idx;
        for id in 0..60 {
            idx.remove(id);
        }
        assert_eq!(idx.live_len(), 0);
        assert_eq!(idx.tombstone_ratio(), 1.0);
        idx.validate().expect("fully tombstoned index is valid");
        assert!(exact(&idx, data.get(0), 5, 32).0.is_empty());
        assert!(quantized(&idx, data.get(0), 5, 32).0.is_empty());
    }

    #[test]
    fn mutation_epoch_bumps_on_every_effective_mutation() {
        let (_, idx) = small_index(100, 8, 93);
        let mut idx = idx;
        assert_eq!(idx.mutation_epoch(), 0, "fresh build starts at epoch 0");
        idx.remove(7);
        assert_eq!(idx.mutation_epoch(), 1);
        idx.remove(7); // no-op
        assert_eq!(idx.mutation_epoch(), 1);
        idx.add(&[0.25; 8]);
        assert_eq!(idx.mutation_epoch(), 2);
        assert!(idx.repair_tombstones() > 0);
        assert_eq!(idx.mutation_epoch(), 3);
        assert_eq!(idx.repair_tombstones(), 0, "nothing left to detach");
        assert_eq!(idx.mutation_epoch(), 3, "no-op repair leaves the epoch");
    }

    #[test]
    fn add_in_grid_keeps_quantizer_incrementally() {
        let (data, idx) = small_index(300, 8, 94);
        let mut idx = idx;
        assert!(idx.quantizer().is_some());
        // a copy of a stored row is inside the trained box by construction
        let v = data.get(42).to_vec();
        let id = idx.add(&v);
        let sq = idx
            .quantizer()
            .expect("in-grid add keeps quantized search on");
        assert_eq!(sq.len(), idx.len(), "codebook grew with the index");
        // the appended rows equal a rebuild from the same codes, bit for bit
        let grown = [data.get(7).to_vec(), data.get(200).to_vec()];
        for g in &grown {
            idx.add(g);
        }
        let sq = idx.quantizer().expect("in-grid adds keep it");
        let rebuilt = Sq8::from_parts(
            sq.dim(),
            sq.lo().to_vec(),
            sq.step().to_vec(),
            sq.codes().to_vec(),
        );
        assert_eq!(sq.len(), 303);
        let tail: Vec<u8> = grown.iter().flat_map(|g| sq.encode_query(g)).collect();
        assert_eq!(&sq.codes()[301 * 8..], &tail[..]);
        assert_eq!(sq.codes(), rebuilt.codes());
        let bits = |s: &Sq8| s.norms().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sq), bits(&rebuilt));
        let (hits, stats) = quantized(&idx, &v, 2, 32);
        assert!(stats.ndist_quant > 0, "traversal stays quantized");
        assert!(
            hits.iter().any(|h| h.id == id || h.id == 42),
            "appended point (or its duplicate) must be findable"
        );
    }

    #[test]
    fn repair_tombstones_detaches_dead_nodes_and_keeps_recall() {
        let data = synth::sift_like(1200, 12, 95);
        let mut idx = Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(8).seed(95));
        let removed: Vec<u32> = (0..1200).step_by(5).map(|i| i as u32).collect();
        for &id in &removed {
            idx.remove(id);
        }
        idx.validate()
            .expect("pre-repair tombstoned graph is valid");
        let survivor_recall = |idx: &Hnsw| {
            let queries = synth::queries_near(&data, 30, 0.02, 96);
            let mut scratch = SearchScratch::with_capacity(idx.len());
            let mut total = 0.0;
            for qi in 0..queries.len() {
                let q = queries.get(qi);
                // survivor ground truth: top-10 live ids by exact distance
                let mut gt: Vec<Neighbor> = (0..1200u32)
                    .filter(|&id| idx.is_live(id))
                    .map(|id| Neighbor::new(id, Distance::L2.eval(q, data.get(id as usize))))
                    .collect();
                gt.sort_unstable();
                let gt: Vec<u32> = gt.iter().take(10).map(|n| n.id).collect();
                let (r, _) = idx.search(q, &SearchParams::new(10, 96), &mut scratch);
                total += r.iter().filter(|h| gt.contains(&h.id)).count() as f64 / 10.0;
            }
            total / queries.len() as f64
        };
        let pre = survivor_recall(&idx);
        assert!(pre >= 0.90, "pre-repair survivor recall too low: {pre}");
        let detached = idx.repair_tombstones();
        assert_eq!(detached, removed.len(), "every tombstone gets detached");
        idx.validate().expect("post-repair graph is valid");
        for &t in &removed {
            for layer in 0..=idx.level(t) as usize {
                assert!(
                    idx.links_of(t, layer).is_empty(),
                    "tombstone {t} still carries edges at layer {layer}"
                );
            }
        }
        let post = survivor_recall(&idx);
        assert!(post >= 0.90, "post-repair survivor recall too low: {post}");
    }

    #[test]
    fn validator_accepts_tombstones_pre_and_post_repair() {
        let (_, idx) = small_index(400, 8, 97);
        let mut idx = idx;
        for id in (0..400).step_by(7) {
            idx.remove(id);
        }
        idx.validate()
            .expect("lazy tombstones uphold every invariant");
        idx.repair_tombstones();
        idx.validate().expect("repaired graph upholds them too");
    }

    #[test]
    fn validator_rejects_tombstoned_entry_point() {
        let idx = Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            tiny_points(3),
            vec![0, 0, 0],
            vec![vec![vec![1, 2]], vec![vec![0, 2]], vec![vec![0, 1]]],
            Some((0, 0)),
            Vec::new(),
            None,
        )
        .with_mutation_state(vec![true, false, false], 1);
        let err = idx.validate().expect_err("dead entry must be caught");
        assert!(err.contains("entry point 0 is tombstoned"), "{err}");
    }

    #[test]
    fn validator_rejects_live_orphan_but_tolerates_dead_one() {
        // node 2 is an island. Tombstoned it is legal post-repair residue;
        // live it is an unsearchable point and must be rejected.
        let fixture = |tombs: Vec<bool>| {
            Hnsw::from_parts(
                HnswConfig::with_m(4),
                Distance::L2,
                tiny_points(3),
                vec![0, 0, 0],
                vec![vec![vec![1]], vec![vec![0]], vec![vec![]]],
                Some((0, 0)),
                Vec::new(),
                None,
            )
            .with_mutation_state(tombs, 1)
        };
        fixture(vec![false, false, true])
            .validate()
            .expect("detached tombstone is legal");
        let err = fixture(vec![false, true, false])
            .validate()
            .expect_err("live island must be caught");
        assert!(err.contains("unreachable"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_tombstoned_entry_set_member() {
        let idx = Hnsw::from_parts(
            HnswConfig::with_m(4),
            Distance::L2,
            tiny_points(3),
            vec![1, 1, 0],
            vec![
                vec![vec![1, 2], vec![1]],
                vec![vec![0, 2], vec![0]],
                vec![vec![0, 1]],
            ],
            Some((0, 1)),
            vec![0, 1],
            None,
        )
        .with_mutation_state(vec![false, true, false], 1);
        let err = idx.validate().expect_err("dead member must be caught");
        assert!(err.contains("entry-set member 1 is tombstoned"), "{err}");
    }

    #[test]
    fn tombstoned_waypoints_still_route_searches() {
        // Two clusters bridged only through a node that gets tombstoned:
        // pre-repair the dead node keeps routing queries across the bridge.
        let (data, idx) = small_index(600, 12, 98);
        let mut idx = idx;
        let (ep, _) = idx.entry_snapshot().expect("non-empty");
        // tombstone the entry's entire layer-0 neighbourhood: every descent
        // now must pass through dead waypoints to leave the entry's basin
        let hood = idx.links_of(ep, 0).to_vec();
        for &id in &hood {
            idx.remove(id);
        }
        idx.validate().expect("tombstoned neighbourhood is valid");
        let mut scratch = SearchScratch::with_capacity(idx.len());
        for i in (0..600).step_by(43) {
            if !idx.is_live(i as u32) {
                continue;
            }
            let (r, _) = idx.search(data.get(i), &SearchParams::new(1, 64), &mut scratch);
            assert_eq!(r[0].id, i as u32, "point {i} lost behind dead waypoints");
        }
    }
}
