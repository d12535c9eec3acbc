//! The fixed schema: every `fastann_*` series the workspace records,
//! declared once with its type, bucket preset and label, and resolved at
//! compile time to a typed handle ([`Counter`], [`Gauge`] or
//! [`Histogram`]). A handle can only reach the fold of its own type, so a
//! type mismatch cannot be written down.
//!
//! A series has at most one label. An enum label (`stage`, `policy`,
//! `path`, `outcome`, `reason`, `kind`) indexes a small fixed value list;
//! the `partition` label is the partition id itself, an index into a
//! dense vector. The exporters render both back to the label strings.

use crate::metrics::buckets;
use crate::stage::STAGE_LABELS;

/// A series family's type; a histogram carries its bucket bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram(&'static [f64]),
}

impl Kind {
    /// A histogram's bucket bounds; empty for the other types.
    pub(crate) fn bounds(self) -> &'static [f64] {
        match self {
            Kind::Histogram(b) => b,
            _ => &[],
        }
    }

    /// Bucket counts per series: one per bound plus `+Inf`, or none.
    pub(crate) fn stride(self) -> usize {
        match self {
            Kind::Histogram(b) => b.len() + 1,
            _ => 0,
        }
    }
}

/// How a family's series are told apart.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Labels {
    /// One series, no label.
    None,
    /// One series per value of a fixed list; the index is the position.
    Enum(&'static str, &'static [&'static str]),
    /// One series per non-negative integer; the index is the integer.
    Index(&'static str),
    /// Not declared: any label set, as recorded through the string API.
    AdHoc,
}

/// One declared family.
pub(crate) struct Def {
    pub(crate) name: &'static str,
    pub(crate) kind: Kind,
    pub(crate) labels: Labels,
}

const STAGE: Labels = Labels::Enum("stage", &STAGE_LABELS);
const POLICY: Labels = Labels::Enum("policy", &["static", "po2"]);
const PATH: Labels = Labels::Enum("path", &["one_sided", "two_sided"]);
const OUTCOME: Labels = Labels::Enum("outcome", &["hit", "miss"]);
const REASON: Labels = Labels::Enum("reason", &["overloaded", "deadline", "hot_partition"]);
const KIND: Labels = Labels::Enum("kind", &["upsert", "delete"]);
const PARTITION: Labels = Labels::Index("partition");

/// A handle to one declared counter series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    pub(crate) family: u16,
    pub(crate) cell: u32,
}

/// A handle to one declared max-gauge series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauge {
    pub(crate) family: u16,
    pub(crate) cell: u32,
}

/// A handle to one declared histogram series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub(crate) family: u16,
    pub(crate) cell: u32,
}

macro_rules! label_lookups {
    ($($ty:ident),*) => {$(
        impl $ty {
            /// The series of this family for label index `i`: a
            /// partition id, or the position in an enum label's values.
            ///
            /// # Panics
            /// Panics when the family has no label, or `i` is past the
            /// end of its enum values.
            pub fn at(self, i: usize) -> Self {
                let def = &SCHEMA[self.family as usize];
                let bound = match def.labels {
                    Labels::Enum(_, values) => values.len(),
                    Labels::Index(_) => u32::MAX as usize,
                    _ => 0,
                };
                assert!(i < bound, "no series {i} in {}", def.name);
                Self { family: self.family, cell: i as u32 }
            }

            /// The series of this family whose enum label reads `value`.
            ///
            /// # Panics
            /// Panics when the family's label is not an enum holding
            /// `value`.
            pub fn label(self, value: &str) -> Self {
                let i = match SCHEMA[self.family as usize].labels {
                    Labels::Enum(_, values) => values.iter().position(|v| *v == value),
                    _ => None,
                };
                assert!(i.is_some(), "no label value {value:?}");
                self.at(i.unwrap_or(0))
            }
        }
    )*};
}

label_lookups!(Counter, Gauge, Histogram);

macro_rules! kind {
    (Counter) => {
        Kind::Counter
    };
    (Gauge) => {
        Kind::Gauge
    };
    (Histogram, $b:ident) => {
        Kind::Histogram(buckets::$b)
    };
}

macro_rules! schema {
    ($($(#[$doc:meta])* $id:ident: $ty:ident $(($b:ident))? = $name:literal $(, $label:ident)?;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Id { $($id),* }

        /// Every declared family; a handle's `family` indexes it.
        pub(crate) const SCHEMA: &[Def] = &[$(Def {
            name: $name,
            kind: kind!($ty $(, $b)?),
            labels: { #[allow(unused_variables)] let l = Labels::None; $(let l = $label;)? l },
        }),*];

        $($(#[$doc])* pub const $id: $ty = $ty { family: Id::$id as u16, cell: 0 };)*
    };
}

schema! {
    /// Virtual duration of one query-path stage (`fastann_span_ns{stage}`).
    SPAN_NS: Histogram(NS) = "fastann_span_ns", STAGE;
    /// Probes per routed query.
    ROUTER_FANOUT: Histogram(COUNT) = "fastann_router_fanout";
    /// Queries dispatched by the engine.
    ENGINE_QUERIES: Counter = "fastann_engine_queries_total";
    /// Probes dispatched by the engine.
    ENGINE_PROBES: Counter = "fastann_engine_probes_total";
    /// Probes dispatched under each routing policy.
    ROUTING_DECISIONS: Counter = "fastann_routing_decisions_total", POLICY;
    /// Results merged by the master, by result path.
    MERGE_OPS: Counter = "fastann_master_merge_ops_total", PATH;
    /// Priced bytes of every result message or deposit.
    RESULT_BYTES: Counter = "fastann_engine_result_bytes_total";
    /// Chaos path: probes re-sent after a timeout.
    CHAOS_RETRIES: Counter = "fastann_chaos_retries_total";
    /// Chaos path: re-sends that moved to another replica.
    CHAOS_FAILOVERS: Counter = "fastann_chaos_failovers_total";
    /// Chaos path: master waits for a timeout deadline.
    CHAOS_TIMEOUT_WAITS: Counter = "fastann_chaos_timeout_waits_total";
    /// Chaos path: queries answered without every partition.
    CHAOS_DEGRADED: Counter = "fastann_chaos_degraded_total";
    /// One-sided results deposited into the master's window.
    RMA_DEPOSITS: Counter = "fastann_rma_deposits_total";
    /// Distance evaluations per local search.
    HNSW_NDIST: Histogram(WORK) = "fastann_hnsw_ndist";
    /// Quantized distance evaluations.
    DISTS_QUANT: Counter = "fastann_dists_quant_total";
    /// Exact distance evaluations.
    DISTS_EXACT: Counter = "fastann_dists_exact_total";
    /// Re-rank pool size of a quantized local search.
    RERANK_POOL: Histogram(COUNT) = "fastann_rerank_pool";
    /// Graph hops per local search.
    HNSW_HOPS: Histogram(COUNT) = "fastann_hnsw_hops";
    /// Multi-basin entry seeds a local search injected.
    HNSW_ENTRY_SEEDS: Counter = "fastann_hnsw_entry_seeds_total";
    /// Beam heap pushes per local search.
    HNSW_HEAP_PUSHES: Histogram(WORK) = "fastann_hnsw_heap_pushes";
    /// Beam result-set replacements per local search.
    HNSW_EF_CHURN: Histogram(WORK) = "fastann_hnsw_ef_churn";
    /// Virtual service time of one probe, by partition.
    WORKER_SERVICE_NS: Histogram(NS) = "fastann_worker_service_ns", PARTITION;
    /// Probes a worker node served in one batch.
    WORKER_BATCH_SIZE: Histogram(COUNT) = "fastann_worker_batch_size";
    /// Peak backlog of a worker node's virtual threads.
    WORKER_QUEUE_DEPTH: Gauge = "fastann_worker_queue_depth";
    /// Applied mutations, by kind.
    MUTATIONS: Counter = "fastann_mutations_total", KIND;
    /// Partition compactions.
    COMPACTIONS: Counter = "fastann_compactions_total";
    /// Partition splits.
    SPLITS: Counter = "fastann_splits_total";
    /// Largest tombstone ratio over the partitions.
    TOMBSTONE_RATIO: Gauge = "fastann_tombstone_ratio";
    /// Requests that reached the serving runtime.
    SERVE_REQUESTS: Counter = "fastann_serve_requests_total";
    /// Outstanding requests at an arrival.
    SERVE_QUEUE_DEPTH: Gauge = "fastann_serve_queue_depth";
    /// Result-cache lookups, by outcome.
    SERVE_CACHE: Counter = "fastann_serve_cache_total", OUTCOME;
    /// Requests answered after their deadline.
    SERVE_DEADLINE_MISSES: Counter = "fastann_serve_deadline_misses_total";
    /// Requests admitted into a batch.
    SERVE_ADMITTED: Counter = "fastann_serve_admitted_total";
    /// Requests rejected, by reason.
    SERVE_REJECTED: Counter = "fastann_serve_rejected_total", REASON;
    /// Hot-partition rejections, by partition.
    SERVE_PARTITION_REJECTED: Counter = "fastann_serve_partition_rejected_total", PARTITION;
    /// Micro-batches dispatched through the engine.
    SERVE_BATCHES: Counter = "fastann_serve_batches_total";
    /// Requests per dispatched micro-batch.
    SERVE_BATCH_OCCUPANCY: Histogram(COUNT) = "fastann_serve_batch_occupancy";
    /// Replica raises by the adaptive controller.
    REPLICA_RAISES: Counter = "fastann_replica_raises_total";
    /// Replica decays by the adaptive controller.
    REPLICA_DECAYS: Counter = "fastann_replica_decays_total";
    /// Replica count, by partition.
    REPLICA_COUNT: Gauge = "fastann_replica_count", PARTITION;
    /// Generation of the live replica map.
    ROUTING_GENERATION: Gauge = "fastann_routing_generation";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique() {
        let mut names: Vec<&str> = SCHEMA.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCHEMA.len());
    }

    #[test]
    fn enum_labels_resolve_to_their_positions() {
        assert_eq!(SERVE_CACHE.label("miss"), SERVE_CACHE.at(1));
        assert_eq!(SPAN_NS.label("hnsw search"), SPAN_NS.at(2));
    }

    #[test]
    #[should_panic]
    fn an_enum_index_past_its_values_is_rejected() {
        let _ = MERGE_OPS.at(2);
    }
}
