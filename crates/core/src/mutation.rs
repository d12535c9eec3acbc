//! Live index mutation: upserts, deletes, background compaction and
//! dynamic partition splits over a built [`DistIndex`].
//!
//! The paper's engine is build-once; its target regime — web-scale
//! serving — is not. This module adds the LANNS-style maintenance loop on
//! top of the frozen build path:
//!
//! * **Upsert** — the vector is routed by the existing VP skeleton to its
//!   home partition (`max_partitions = 1`, no margin) and appended through
//!   the incremental HNSW insertion path ([`fastann_hnsw::Hnsw::add`]),
//!   which also refreshes the SQ8 codes and the k-center entry set.
//!   Re-upserting an existing global id tombstones the old row first, so
//!   the id moves to wherever its new vector routes.
//! * **Delete** — a tombstone on the owning partition's local row: the
//!   node stays traversable as a graph waypoint but is filtered from every
//!   result ([`fastann_hnsw::Hnsw::remove`]).
//! * **Compaction** — after the batch applies, any partition whose
//!   tombstone ratio exceeds [`MutationRequest::compact_threshold`] is
//!   rebuilt from its surviving rows with the same per-partition seed
//!   derivation the original build used, and charged to virtual time
//!   through the engine's cost model.
//! * **Split** — any partition whose live row count exceeds
//!   [`MutationRequest::split_above`] is split at a deterministically
//!   selected vantage point and median radius; the VP skeleton grows a new
//!   leaf ([`fastann_vptree::PartitionTree::split_leaf`]) and the new
//!   partition id wraps onto the existing cores for dispatch.
//!
//! Every step is sequential over `&mut DistIndex`, so outcomes are
//! bit-identical across `FASTANN_THREADS` by construction; the proptests
//! at the bottom pin that and the rebuild-equivalence contract.
//!
//! A successful batch (one that changed anything) bumps
//! [`DistIndex::mutation_epoch`] exactly once and appends to
//! [`DistIndex::mutation_log`]; `fastann-serve` keys its result cache on
//! that epoch. Neither the engine epoch nor the log is persisted by the
//! `FANNDIST` snapshot format — per-partition tombstones and epochs ride
//! the HNSW v4 blobs instead, and a loaded index starts again at epoch 0.
//! A split index snapshots every partition and keeps mutating after a
//! reload exactly as the original would.

use fastann_data::VectorSet;
use fastann_obs::Metrics;
use fastann_vptree::{median_split, RouteConfig, N_CANDIDATES, N_SCORE_SAMPLE};

use crate::build::{DistIndex, Partition};
use crate::router::Router;

/// One requested change to the index.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Insert `vector`, or replace the vector stored under `global_id`
    /// when one is given and present (the replacement re-routes: the id
    /// lands wherever the *new* vector belongs).
    Upsert {
        /// Existing id to replace, or `None` to mint a fresh id.
        global_id: Option<u32>,
        /// The vector (must match the index dimensionality).
        vector: Vec<f32>,
    },
    /// Tombstone the row holding `global_id`.
    Delete {
        /// The id to remove.
        global_id: u32,
    },
}

impl Mutation {
    /// Metric label for this mutation kind (`"upsert"` / `"delete"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Mutation::Upsert { .. } => "upsert",
            Mutation::Delete { .. } => "delete",
        }
    }
}

/// What happened to one [`Mutation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOutcome {
    /// A fresh row was inserted into partition `part` under `global_id`.
    Inserted {
        /// Id the row is addressable by.
        global_id: u32,
        /// Home partition the router chose.
        part: u32,
    },
    /// `global_id` existed: its old row was tombstoned in `prev_part` and
    /// the new vector inserted into `part`.
    Replaced {
        /// The re-used id.
        global_id: u32,
        /// Partition the old row was tombstoned in.
        prev_part: u32,
        /// Partition the new vector routed to.
        part: u32,
    },
    /// `global_id` was live in partition `part` and is now tombstoned.
    Deleted {
        /// The removed id.
        global_id: u32,
        /// Partition that owned the row.
        part: u32,
    },
    /// `global_id` was not live anywhere; nothing changed.
    NotFound {
        /// The missing id.
        global_id: u32,
    },
}

impl MutationOutcome {
    /// `true` when the outcome changed the index.
    pub fn effective(&self) -> bool {
        !matches!(self, MutationOutcome::NotFound { .. })
    }
}

/// One applied-mutation record: the engine epoch the batch committed at
/// plus the outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// [`DistIndex::mutation_epoch`] after the owning batch committed.
    pub epoch: u64,
    /// What the mutation did.
    pub outcome: MutationOutcome,
}

/// Append-only record of every effective mutation applied to a
/// [`DistIndex`], in application order. In-memory only — rebuild it by
/// replaying your own write stream if you persist and reload.
#[derive(Clone, Debug, Default)]
pub struct MutationLog {
    entries: Vec<LogEntry>,
}

impl MutationLog {
    /// All entries, oldest first.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of recorded mutations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries committed strictly after `epoch` — what a cache or replica
    /// that saw `epoch` still has to catch up on.
    pub fn since(&self, epoch: u64) -> &[LogEntry] {
        let start = self.entries.partition_point(|e| e.epoch <= epoch);
        &self.entries[start..]
    }

    pub(crate) fn push(&mut self, entry: LogEntry) {
        self.entries.push(entry);
    }
}

/// One partition rebuild performed by the compaction pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactionEvent {
    /// Rebuilt partition.
    pub part: u32,
    /// Tombstoned rows physically dropped by the rebuild.
    pub dropped: usize,
    /// Distance evaluations the rebuild spent.
    pub ndist: u64,
}

/// One dynamic partition split performed after the batch applied.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitEvent {
    /// Partition that was split (keeps the within-radius half).
    pub part: u32,
    /// Newly created partition (the outside half).
    pub new_part: u32,
    /// Rows that moved to `new_part`.
    pub moved: usize,
}

/// Everything one mutation batch did. All fields are deterministic
/// functions of the index state and the batch — bit-identical across
/// `FASTANN_THREADS`.
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// Engine epoch after the batch (unchanged when nothing was
    /// effective).
    pub epoch: u64,
    /// Per-mutation outcome, in batch order.
    pub outcomes: Vec<MutationOutcome>,
    /// Partitions rebuilt by the compaction pass, ascending by id.
    pub compactions: Vec<CompactionEvent>,
    /// Partition splits, ascending by parent id.
    pub splits: Vec<SplitEvent>,
    /// Largest tombstone ratio over all partitions *after* maintenance.
    pub max_tombstone_ratio: f64,
    /// Virtual nanoseconds charged for routing + maintenance rebuilds.
    pub maintenance_ns: f64,
    /// Distance evaluations spent (routing + rebuilds).
    pub ndist: u64,
}

impl MutationReport {
    /// `true` when the batch changed the index (and therefore bumped the
    /// engine epoch).
    pub fn changed(&self) -> bool {
        self.outcomes.iter().any(MutationOutcome::effective)
            || !self.compactions.is_empty()
            || !self.splits.is_empty()
    }
}

/// Builder for applying a batch of mutations — the write-side sibling of
/// [`crate::SearchRequest`].
///
/// ```no_run
/// use fastann_core::{DistIndex, EngineConfig, Mutation, MutationRequest};
/// use fastann_data::synth;
///
/// let data = synth::sift_like(20_000, 64, 1);
/// let mut index = DistIndex::build(&data, EngineConfig::new(16, 4));
/// let report = MutationRequest::new(&mut index)
///     .mutations(vec![
///         Mutation::Upsert { global_id: None, vector: data.get(0).to_vec() },
///         Mutation::Delete { global_id: 7 },
///     ])
///     .compact_threshold(0.3)
///     .run();
/// assert!(report.changed());
/// ```
pub struct MutationRequest<'a> {
    index: &'a mut DistIndex,
    batch: Vec<Mutation>,
    compact_threshold: f64,
    split_above: usize,
    metrics: Option<Metrics>,
}

impl<'a> MutationRequest<'a> {
    /// A mutation batch against `index`. The index must hold HNSW
    /// partitions ([`crate::LocalIndexKind::Hnsw`]); the exact tree and
    /// brute-force kinds are frozen baselines.
    pub fn new(index: &'a mut DistIndex) -> Self {
        Self {
            index,
            batch: Vec::new(),
            compact_threshold: 0.3,
            split_above: usize::MAX,
            metrics: None,
        }
    }

    /// Sets the mutations to apply, in order (builder style).
    pub fn mutations(mut self, batch: Vec<Mutation>) -> Self {
        self.batch = batch;
        self
    }

    /// Appends one mutation (builder style).
    pub fn mutation(mut self, m: Mutation) -> Self {
        self.batch.push(m);
        self
    }

    /// Tombstone ratio above which a partition is compacted (rebuilt from
    /// its live rows) after the batch applies. Default `0.3`; `> 1.0`
    /// disables compaction.
    pub fn compact_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0, "compaction threshold must be positive");
        self.compact_threshold = threshold;
        self
    }

    /// Live row count above which a partition is split into two
    /// (LANNS-style dynamic sharding). Default `usize::MAX` (off).
    /// Splitting requires the VP-tree router; the flat-pivot baseline
    /// never splits.
    pub fn split_above(mut self, bound: usize) -> Self {
        assert!(bound >= 2, "split bound must be at least 2");
        self.split_above = bound;
        self
    }

    /// Attaches a metrics registry: the run records
    /// `fastann_mutations_total{kind}`, the `fastann_tombstone_ratio`
    /// max-gauge and `fastann_compactions_total` /
    /// `fastann_splits_total`.
    pub fn metrics(mut self, metrics: &Metrics) -> Self {
        self.metrics = Some(metrics.clone());
        self
    }

    /// Applies the batch, then compaction, then splits. Sequential and
    /// deterministic: the same index state and batch produce bit-identical
    /// reports at every `FASTANN_THREADS`.
    ///
    /// # Panics
    /// Panics when a vector's dimensionality mismatches the index, when a
    /// partition kind is immutable, or when the index handle is shared
    /// (e.g. a live [`crate::SearchRequest`] still holds the partitions).
    pub fn run(self) -> MutationReport {
        let MutationRequest {
            index,
            batch,
            compact_threshold,
            split_above,
            metrics,
        } = self;
        let dim = index.dim();
        let metric = index.config.metric;
        let route_cost = index.config.cost.dist_ns(dim);

        let mut outcomes = Vec::with_capacity(batch.len());
        let mut maintenance_ns = 0.0f64;
        let mut ndist_total = 0u64;

        {
            let parts = writable(&mut index.partitions);
            let mut next_gid = parts
                .iter()
                .flat_map(|p| p.global_ids.iter().copied())
                .max()
                .map_or(0, |g| g + 1);

            for m in &batch {
                if let Some(obs) = &metrics {
                    obs.inc("fastann_mutations_total", &[("kind", m.kind())], 1);
                }
                let outcome = match m {
                    Mutation::Delete { global_id } => match find_live(parts, *global_id) {
                        Some((pid, local)) => {
                            let changed = parts[pid]
                                .index
                                .remove(local)
                                .expect("delete requires an HNSW partition");
                            debug_assert!(changed, "find_live returned a live row");
                            MutationOutcome::Deleted {
                                global_id: *global_id,
                                part: parts[pid].id,
                            }
                        }
                        None => MutationOutcome::NotFound {
                            global_id: *global_id,
                        },
                    },
                    Mutation::Upsert { global_id, vector } => {
                        assert_eq!(vector.len(), dim, "upsert dimensionality mismatch");
                        let prev = global_id.and_then(|g| find_live(parts, g));
                        if let Some((pid, local)) = prev {
                            parts[pid]
                                .index
                                .remove(local)
                                .expect("upsert requires an HNSW partition");
                        }
                        let gid = match global_id {
                            Some(g) => {
                                next_gid = next_gid.max(g + 1);
                                *g
                            }
                            None => {
                                let g = next_gid;
                                next_gid += 1;
                                g
                            }
                        };
                        let (route, route_ndist) = index.router.route(
                            vector,
                            &RouteConfig {
                                margin_frac: 0.0,
                                max_partitions: 1,
                            },
                        );
                        ndist_total += route_ndist;
                        maintenance_ns += route_ndist as f64 * route_cost;
                        let home = route[0] as usize;
                        parts[home]
                            .index
                            .insert(vector)
                            .expect("upsert requires an HNSW partition");
                        parts[home].global_ids.push(gid);
                        match prev {
                            Some((pid, _)) => MutationOutcome::Replaced {
                                global_id: gid,
                                prev_part: parts[pid].id,
                                part: parts[home].id,
                            },
                            None => MutationOutcome::Inserted {
                                global_id: gid,
                                part: parts[home].id,
                            },
                        }
                    }
                };
                outcomes.push(outcome);
            }
        }

        // --- background compaction (deterministic virtual-time pass) ---
        let compactions = compact(
            index,
            compact_threshold,
            &mut maintenance_ns,
            &mut ndist_total,
        );
        if let Some(obs) = &metrics {
            obs.inc("fastann_compactions_total", &[], compactions.len() as u64);
        }

        // --- dynamic partition splits ---
        let splits = split(
            index,
            split_above,
            metric,
            &mut maintenance_ns,
            &mut ndist_total,
        );
        if let Some(obs) = &metrics {
            obs.inc("fastann_splits_total", &[], splits.len() as u64);
        }

        let max_tombstone_ratio = index
            .partitions
            .iter()
            .map(|p| p.index.tombstone_ratio())
            .fold(0.0f64, f64::max);
        if let Some(obs) = &metrics {
            obs.gauge_max("fastann_tombstone_ratio", &[], max_tombstone_ratio);
        }

        let changed = outcomes.iter().any(MutationOutcome::effective)
            || !compactions.is_empty()
            || !splits.is_empty();
        if changed {
            index.mutation_epoch += 1;
            index.build_stats.partition_sizes = index
                .partitions
                .iter()
                .map(|p| p.global_ids.len())
                .collect();
            let epoch = index.mutation_epoch;
            for o in outcomes.iter().filter(|o| o.effective()) {
                index.mutation_log.push(LogEntry { epoch, outcome: *o });
            }
        }

        MutationReport {
            epoch: index.mutation_epoch,
            outcomes,
            compactions,
            splits,
            max_tombstone_ratio,
            maintenance_ns,
            ndist: ndist_total,
        }
    }
}

/// Mutable access to the shared partition vector.
///
/// # Panics
/// Panics when another handle still shares the `Arc`.
fn writable(parts: &mut std::sync::Arc<Vec<Partition>>) -> &mut Vec<Partition> {
    std::sync::Arc::get_mut(parts)
        .expect("mutation requires exclusive ownership of the index (drop shared handles first)")
}

/// Locates the live row holding `gid`: `(partition slot, local row id)`.
/// Scans partitions in slot order — each live global id exists at most
/// once by construction.
fn find_live(parts: &[Partition], gid: u32) -> Option<(usize, u32)> {
    for (pid, p) in parts.iter().enumerate() {
        for (local, &g) in p.global_ids.iter().enumerate() {
            if g == gid && p.index.is_live(local as u32) {
                return Some((pid, local as u32));
            }
        }
    }
    None
}

/// The surviving rows of a partition: `(vectors, global ids)`.
fn live_rows(p: &Partition, dim: usize) -> (VectorSet, Vec<u32>) {
    let h = p
        .index
        .as_hnsw()
        .expect("maintenance requires HNSW partitions");
    let mut rows = VectorSet::with_capacity(dim, h.live_len());
    let mut gids = Vec::with_capacity(h.live_len());
    for local in 0..h.len() {
        if h.is_live(local as u32) {
            rows.push(h.vectors().get(local));
            gids.push(p.global_ids[local]);
        }
    }
    (rows, gids)
}

/// Rebuilds every partition whose tombstone ratio exceeds `threshold`
/// from its surviving rows, charging the rebuild to virtual time through
/// the engine cost model. Ascending partition order keeps the pass
/// deterministic.
fn compact(
    index: &mut DistIndex,
    threshold: f64,
    maintenance_ns: &mut f64,
    ndist_total: &mut u64,
) -> Vec<CompactionEvent> {
    let dim = index.dim();
    let cfg = &index.config;
    let parts = writable(&mut index.partitions);
    let mut events = Vec::new();
    for p in parts.iter_mut() {
        if p.index.tombstone_ratio() <= threshold {
            continue;
        }
        let dropped = p.index.len() - p.index.live_len();
        let (rows, gids) = live_rows(p, dim);
        // Partition::build seeds as the original build did, so a
        // compaction is exactly the "fresh rebuild of the surviving set"
        // the equivalence contract compares against.
        *p = Partition::build(cfg, p.id, gids, rows);
        let ndist = p.index.build_ndist();
        *ndist_total += ndist;
        *maintenance_ns += cfg.cost.dists_ns(ndist, dim);
        events.push(CompactionEvent {
            part: p.id,
            dropped,
            ndist,
        });
    }
    events
}

/// Deterministic vantage selection for a split: stride-sampled candidates
/// scored by spread-about-median over a stride-sampled row set (the
/// build-time heuristic, minus the RNG).
fn split_vantage(rows: &VectorSet, metric: fastann_data::Distance) -> (Vec<f32>, u64) {
    let n = rows.len();
    let stride_pick = |count: usize| -> Vec<u32> {
        let take = count.min(n);
        (0..take).map(|i| (i * n / take) as u32).collect()
    };
    let candidates = stride_pick(N_CANDIDATES);
    let sample = stride_pick(N_SCORE_SAMPLE);
    let (best, ndist) = fastann_vptree::select_vantage(rows, &candidates, rows, &sample, metric);
    (rows.get(candidates[best] as usize).to_vec(), ndist)
}

/// Splits every partition whose live row count exceeds `bound` at a
/// deterministic vantage point and median radius, growing the VP skeleton
/// by one leaf per split. No-op under the flat-pivot router (its
/// closest-pivot assignment has no ball to split).
fn split(
    index: &mut DistIndex,
    bound: usize,
    metric: fastann_data::Distance,
    maintenance_ns: &mut f64,
    ndist_total: &mut u64,
) -> Vec<SplitEvent> {
    if bound == usize::MAX || !matches!(*index.router, Router::VpTree(_)) {
        return Vec::new();
    }
    let dim = index.dim();
    let cost = index.config.cost;
    let mut events = Vec::new();
    // Snapshot the partition count: a freshly created half is at most half
    // the parent, so one pass suffices for any bound ≥ 2.
    let snapshot = index.partitions.len();
    for slot in 0..snapshot {
        if index.partitions[slot].index.live_len() <= bound {
            continue;
        }
        let (rows, gids) = live_rows(&index.partitions[slot], dim);
        let (vp, vant_ndist) = split_vantage(&rows, metric);
        let all: Vec<u32> = (0..rows.len() as u32).collect();
        // `d <= mu` is the router's near-side test: assignment must agree
        // with it or future upserts land on the wrong half
        let (mu, inside, outside) = median_split(&rows, &all, &vp, metric);
        *ndist_total += vant_ndist + all.len() as u64;
        *maintenance_ns += cost.dists_ns(vant_ndist + all.len() as u64, dim);
        if inside.is_empty() || outside.is_empty() {
            continue; // degenerate radius (duplicate-heavy data): unsplittable
        }
        let old_pid = index.partitions[slot].id;
        let new_pid = index.partitions.len() as u32;
        let half = |pid: u32, pos: &[u32]| {
            let ids = pos.iter().map(|&p| gids[p as usize]).collect();
            Partition::build(&index.config, pid, ids, rows.gather(pos))
        };
        let (left, right) = (half(old_pid, &inside), half(new_pid, &outside));
        let build_ndist = left.index.build_ndist() + right.index.build_ndist();
        *ndist_total += build_ndist;
        *maintenance_ns += cost.dists_ns(build_ndist, dim);
        let moved = outside.len();
        // split() only runs for VP-tree routers (checked by the caller), so
        // the non-VpTree arm is simply never entered
        if let Router::VpTree(tree) = std::sync::Arc::get_mut(&mut index.router)
            .expect("split requires exclusive ownership of the router")
        {
            tree.split_leaf(old_pid, vp, mu, new_pid);
        }
        let parts = writable(&mut index.partitions);
        parts[slot] = left;
        parts.push(right);
        events.push(SplitEvent {
            part: old_pid,
            new_part: new_pid,
            moved,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, SearchOptions};
    use crate::request::SearchRequest;
    use fastann_data::{synth, Neighbor};
    use fastann_hnsw::HnswConfig;

    fn engine_cfg(seed: u64, threads: usize) -> EngineConfig {
        EngineConfig::new(4, 2)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(seed))
            .with_seed(seed)
            .with_threads(threads)
    }

    fn small_index(n: usize, seed: u64, threads: usize) -> (VectorSet, DistIndex) {
        let data = synth::sift_like(n, 12, seed);
        let index = DistIndex::build(&data, engine_cfg(seed, threads));
        (data, index)
    }

    fn engine_knn(index: &DistIndex, q: &[f32], k: usize) -> Vec<Neighbor> {
        let mut queries = VectorSet::new(index.dim());
        queries.push(q);
        let report = SearchRequest::new(index, &queries)
            .opts(SearchOptions::new(k))
            .run();
        report.results[0].clone()
    }

    #[test]
    fn upsert_inserts_and_is_immediately_searchable() {
        let (_, mut index) = small_index(600, 5, 1);
        let v = synth::sift_like(1, 12, 999).get(0).to_vec();
        let report = MutationRequest::new(&mut index)
            .mutation(Mutation::Upsert {
                global_id: None,
                vector: v.clone(),
            })
            .run();
        assert_eq!(report.outcomes.len(), 1);
        let MutationOutcome::Inserted { global_id, .. } = report.outcomes[0] else {
            panic!("expected Inserted, got {:?}", report.outcomes[0]);
        };
        assert_eq!(global_id, 600, "fresh ids continue past the build");
        assert_eq!(report.epoch, 1);
        assert_eq!(index.mutation_epoch, 1);
        assert_eq!(index.mutation_log.len(), 1);
        let hits = engine_knn(&index, &v, 1);
        assert_eq!(hits[0].id, 600, "the new row answers its own query");
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn delete_filters_id_from_engine_results() {
        let (data, mut index) = small_index(600, 6, 1);
        let victim = 123u32;
        assert_eq!(
            engine_knn(&index, data.get(victim as usize), 1)[0].id,
            victim
        );
        let report = MutationRequest::new(&mut index)
            .mutation(Mutation::Delete { global_id: victim })
            .run();
        assert!(matches!(
            report.outcomes[0],
            MutationOutcome::Deleted { global_id: 123, .. }
        ));
        let hits = engine_knn(&index, data.get(victim as usize), 10);
        assert!(
            hits.iter().all(|n| n.id != victim),
            "deleted id must never appear"
        );
        // a second delete of the same id is a no-op and keeps the epoch
        let epoch = index.mutation_epoch;
        let report = MutationRequest::new(&mut index)
            .mutation(Mutation::Delete { global_id: victim })
            .run();
        assert!(matches!(
            report.outcomes[0],
            MutationOutcome::NotFound { global_id: 123 }
        ));
        assert!(!report.changed());
        assert_eq!(index.mutation_epoch, epoch, "ineffective batch: no bump");
    }

    #[test]
    fn upsert_existing_id_replaces_and_reroutes() {
        let (data, mut index) = small_index(600, 7, 1);
        let new_v = synth::sift_like(1, 12, 4242).get(0).to_vec();
        let report = MutationRequest::new(&mut index)
            .mutation(Mutation::Upsert {
                global_id: Some(9),
                vector: new_v.clone(),
            })
            .run();
        let MutationOutcome::Replaced { global_id, .. } = report.outcomes[0] else {
            panic!("expected Replaced, got {:?}", report.outcomes[0]);
        };
        assert_eq!(global_id, 9);
        let hits = engine_knn(&index, &new_v, 1);
        assert_eq!(hits[0].id, 9, "the id answers at its new location");
        assert_eq!(hits[0].dist, 0.0);
        let near_old = engine_knn(&index, data.get(9), 10);
        assert!(
            near_old.iter().all(|n| n.id != 9 || n.dist > 0.0),
            "the old row is gone"
        );
    }

    #[test]
    fn compaction_rebuilds_partitions_over_threshold() {
        let (data, mut index) = small_index(600, 8, 1);
        let deletes: Vec<Mutation> = (0..240)
            .map(|g| Mutation::Delete { global_id: g })
            .collect();
        let report = MutationRequest::new(&mut index)
            .mutations(deletes)
            .compact_threshold(0.25)
            .run();
        assert!(
            !report.compactions.is_empty(),
            "40% deletion must push some partition over a 25% threshold"
        );
        for ev in &report.compactions {
            assert!(ev.dropped > 0);
            assert!(ev.ndist > 0, "rebuild work is accounted");
        }
        assert!(report.maintenance_ns > 0.0);
        assert!(
            report.max_tombstone_ratio <= 0.25,
            "post-maintenance ratio {} exceeds the threshold",
            report.max_tombstone_ratio
        );
        // survivors still answer exactly; deleted ids never reappear
        for g in [300u32, 420, 599] {
            let hits = engine_knn(&index, data.get(g as usize), 10);
            assert_eq!(hits[0].id, g);
            assert!(hits.iter().all(|n| n.id >= 240));
        }
        let total: usize = index.partitions.iter().map(|p| p.global_ids.len()).sum();
        assert_eq!(
            index.build_stats.partition_sizes.iter().sum::<usize>(),
            total,
            "partition_sizes tracks maintenance"
        );
    }

    #[test]
    fn split_grows_router_and_keeps_engine_search_exact() {
        let (data, mut index) = small_index(1200, 9, 1);
        let report = MutationRequest::new(&mut index).split_above(200).run();
        assert!(!report.splits.is_empty(), "300-row partitions must split");
        assert_eq!(index.n_partitions(), index.router.n_partitions());
        assert!(index.n_partitions() > 4);
        for ev in &report.splits {
            assert!(ev.moved > 0);
            assert!(ev.new_part >= 4, "new ids extend past the core count");
        }
        // conservation: every global id still lives in exactly one partition
        let mut all: Vec<u32> = index
            .partitions
            .iter()
            .flat_map(|p| p.global_ids.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1200).collect::<Vec<u32>>());
        // dispatch across the grown partition set stays exact for
        // in-dataset queries (exercises the id-wrapping dispatcher path)
        for g in (0..1200u32).step_by(97) {
            let hits = engine_knn(&index, data.get(g as usize), 1);
            assert_eq!(hits[0].id, g, "row {g} lost after split");
        }
        // the epoch moved, so serve caches invalidate
        assert_eq!(index.mutation_epoch, 1);
    }

    #[test]
    fn split_partitions_count_toward_node_memory() {
        // partitions a split creates carry ids past the core count; they
        // live on a node like any other, at one replica
        let (_, mut index) = small_index(1200, 9, 1);
        MutationRequest::new(&mut index).split_above(200).run();
        assert!(index.n_partitions() > index.config.n_cores);
        let resident: usize = index.node_memory_bytes(1).iter().sum();
        let stored: usize = index.partitions.iter().map(|p| p.approx_bytes()).sum();
        assert_eq!(resident, stored);
    }

    #[test]
    fn flat_pivot_router_never_splits() {
        let data = synth::sift_like(600, 12, 11);
        let mut index = DistIndex::build_flat_pivot(&data, engine_cfg(11, 1));
        let report = MutationRequest::new(&mut index).split_above(10).run();
        assert!(report.splits.is_empty());
        assert_eq!(index.n_partitions(), 4);
    }

    #[test]
    fn empty_batch_changes_nothing() {
        let (_, mut index) = small_index(600, 12, 1);
        let report = MutationRequest::new(&mut index).run();
        assert!(!report.changed());
        assert_eq!(report.epoch, 0);
        assert!(report.outcomes.is_empty());
        assert!(index.mutation_log.is_empty());
        assert_eq!(report.max_tombstone_ratio, 0.0);
    }

    #[test]
    fn mutation_log_since_filters_by_epoch() {
        let (_, mut index) = small_index(600, 13, 1);
        for victim in [1u32, 2, 3] {
            MutationRequest::new(&mut index)
                .mutation(Mutation::Delete { global_id: victim })
                .run();
        }
        assert_eq!(index.mutation_log.len(), 3);
        assert_eq!(index.mutation_log.since(0).len(), 3);
        assert_eq!(index.mutation_log.since(2).len(), 1);
        assert_eq!(index.mutation_log.since(3).len(), 0);
    }

    #[test]
    fn metrics_record_mutation_series() {
        let (_, mut index) = small_index(600, 14, 1);
        let metrics = Metrics::new();
        let batch = vec![
            Mutation::Upsert {
                global_id: None,
                vector: synth::sift_like(1, 12, 77).get(0).to_vec(),
            },
            Mutation::Delete { global_id: 5 },
            Mutation::Delete { global_id: 6 },
        ];
        MutationRequest::new(&mut index)
            .mutations(batch)
            .metrics(&metrics)
            .run();
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("fastann_mutations_total", &[("kind", "upsert")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("fastann_mutations_total", &[("kind", "delete")]),
            Some(2)
        );
        assert_eq!(snap.counter("fastann_compactions_total", &[]), Some(0));
        assert!(snap.get("fastann_tombstone_ratio", &[]).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::{EngineConfig, SearchOptions};
    use crate::request::SearchRequest;
    use fastann_data::{ground_truth, synth, Distance, Neighbor};
    use fastann_hnsw::HnswConfig;
    use proptest::prelude::*;

    fn engine_cfg(seed: u64, threads: usize) -> EngineConfig {
        EngineConfig::new(4, 2)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(seed))
            .with_seed(seed)
            .with_threads(threads)
    }

    fn engine_knn(index: &DistIndex, q: &[f32], k: usize) -> Vec<Neighbor> {
        let mut queries = VectorSet::new(index.dim());
        queries.push(q);
        SearchRequest::new(index, &queries)
            .opts(SearchOptions::new(k))
            .run()
            .results[0]
            .clone()
    }

    /// Overlap between `got` and the true top-`k` id set, as a fraction.
    fn recall_of(got: &[u32], truth: &[u32]) -> f64 {
        let hits = got.iter().filter(|g| truth.contains(g)).count();
        hits as f64 / truth.len() as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn interleaved_mutations_are_thread_invariant_and_rebuild_equivalent(
            seed in 0u64..500,
            ops in proptest::collection::vec((0u8..3, 0u32..10_000), 5..30),
        ) {
            let n0 = 400usize;
            let dim = 8usize;
            let data = synth::sift_like(n0, dim, seed);
            let mut idx1 = DistIndex::build(&data, engine_cfg(seed, 1));
            let mut idx4 = DistIndex::build(&data, engine_cfg(seed, 4));
            // gid → vector mirror of what should survive
            let mut alive: Vec<(u32, Vec<f32>)> = (0..n0)
                .map(|i| (i as u32, data.get(i).to_vec()))
                .collect();
            let mut minted = n0 as u32;

            for (kind, val) in &ops {
                match kind {
                    0 => {
                        let v = synth::sift_like(1, dim, seed ^ (*val as u64) << 3)
                            .get(0)
                            .to_vec();
                        let m = Mutation::Upsert { global_id: None, vector: v.clone() };
                        let r1 = MutationRequest::new(&mut idx1).mutation(m.clone()).run();
                        let r4 = MutationRequest::new(&mut idx4).mutation(m).run();
                        prop_assert_eq!(&r1.outcomes, &r4.outcomes);
                        prop_assert_eq!(
                            r1.outcomes[0],
                            MutationOutcome::Inserted {
                                global_id: minted,
                                part: match r1.outcomes[0] {
                                    MutationOutcome::Inserted { part, .. } => part,
                                    _ => u32::MAX,
                                }
                            }
                        );
                        alive.push((minted, v));
                        minted += 1;
                    }
                    1 => {
                        let gid = *val % minted;
                        let m = Mutation::Delete { global_id: gid };
                        let r1 = MutationRequest::new(&mut idx1).mutation(m.clone()).run();
                        let r4 = MutationRequest::new(&mut idx4).mutation(m).run();
                        prop_assert_eq!(&r1.outcomes, &r4.outcomes);
                        let present = alive.iter().any(|(g, _)| *g == gid);
                        prop_assert_eq!(r1.outcomes[0].effective(), present);
                        alive.retain(|(g, _)| *g != gid);
                    }
                    _ => {
                        let q = synth::sift_like(1, dim, seed ^ (*val as u64) << 7)
                            .get(0)
                            .to_vec();
                        let h1 = engine_knn(&idx1, &q, 10);
                        let h4 = engine_knn(&idx4, &q, 10);
                        prop_assert_eq!(&h1, &h4, "query diverged across thread counts");
                        for hit in &h1 {
                            prop_assert!(
                                alive.iter().any(|(g, _)| *g == hit.id),
                                "dead id {} surfaced", hit.id
                            );
                        }
                    }
                }
                prop_assert_eq!(idx1.mutation_epoch, idx4.mutation_epoch);
            }

            // --- equivalence with a from-scratch rebuild of the survivors ---
            let mut surv = VectorSet::new(dim);
            for (_, v) in &alive {
                surv.push(v);
            }
            if surv.len() < 8 {
                return; // below the DistIndex::build floor
            }
            let fresh = DistIndex::build(&surv, engine_cfg(seed, 1));
            let queries = synth::queries_near(&surv, 15, 0.05, seed ^ 0x77);
            let (mut rec_mut, mut rec_fresh) = (0.0, 0.0);
            for qi in 0..queries.len() {
                let q = queries.get(qi);
                let truth: Vec<u32> = ground_truth::brute_force_one(&surv, q, 10, Distance::L2)
                    .iter()
                    .map(|n| n.id)
                    .collect();
                let got_mut: Vec<u32> = engine_knn(&idx1, q, 10)
                    .iter()
                    .filter_map(|n| alive.iter().position(|(g, _)| *g == n.id))
                    .map(|p| p as u32)
                    .collect();
                let got_fresh: Vec<u32> =
                    engine_knn(&fresh, q, 10).iter().map(|n| n.id).collect();
                rec_mut += recall_of(&got_mut, &truth);
                rec_fresh += recall_of(&got_fresh, &truth);
            }
            rec_mut /= queries.len() as f64;
            rec_fresh /= queries.len() as f64;
            prop_assert!(
                (rec_mut - rec_fresh).abs() <= 0.02 || rec_mut >= rec_fresh,
                "mutated recall {rec_mut:.3} not within 0.02 of rebuild {rec_fresh:.3}"
            );
        }
    }
}
