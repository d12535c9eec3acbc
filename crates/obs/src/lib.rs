//! `fastann-obs` — deterministic observability for the fastann workspace.
//!
//! The crate provides one [`Metrics`] registry holding counters, gauges
//! and fixed-bucket histograms, a [`MetricsSnapshot`] export (Prometheus
//! text format and JSON), and the [`Stage`] vocabulary that names every
//! instrumented segment of the query path — the same labels the
//! `fastann_mpisim` Gantt trace renders.
//!
//! # Fixed schema
//!
//! Every `fastann_*` series is declared once in [`schema`], with its type,
//! bucket preset and label, and resolves at compile time to a typed
//! handle. A series' slots are dense integers: an enum label indexes a
//! fixed value list and the `partition` label is the partition id, so a
//! fold through a handle does no string work and no allocation once the
//! slot exists. Hot paths record into a [`Shard`] — a local accumulator,
//! no lock — and fold it into the registry once per batch with
//! [`Metrics::merge_shard`]. The string API ([`Metrics::inc`],
//! [`Metrics::observe`], …) resolves names into the same store and serves
//! ad hoc series.
//!
//! # Determinism contract
//!
//! Snapshots are **bit-identical across `FASTANN_THREADS` settings** and
//! across schedule perturbations, the same contract the engine's
//! `QueryReport` and the serving runtime's `ServeReport` already honour.
//! That holds because every mutation of the registry is an
//! order-invariant fold:
//!
//! * counters add `u64`s (addition is associative and commutative);
//! * gauges keep the `f64` **maximum** seen (max is associative and
//!   commutative, and the observed values themselves are deterministic
//!   virtual-time quantities);
//! * histograms bump `u64` bucket counts against bounds fixed at compile
//!   time, and accumulate their sum in **fixed-point** (each observation
//!   is scaled by 1024 and rounded to a `u64` *before* accumulation), so
//!   no floating-point addition order can leak into the total.
//!
//! Worker threads may therefore record into one shared handle (it is
//! `Clone + Send + Sync`) in any interleaving, or into per-thread shards
//! later combined with [`Metrics::merge_from`] or
//! [`Metrics::merge_shard`] — the snapshot is the same either way, in any
//! merge order.

#![forbid(unsafe_code)]

mod metrics;
/// The declared series and their typed handles.
pub mod schema;
mod shard;
mod snapshot;
mod stage;

pub use metrics::{buckets, Metrics};
pub use schema::{Counter, Gauge, Histogram};
pub use shard::Shard;
pub use snapshot::{MetricEntry, MetricsSnapshot, ValueSnapshot};
pub use stage::Stage;
