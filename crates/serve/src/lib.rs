//! fastann-serve — the online serving runtime.
//!
//! The other crates answer "how fast can one batch of queries run?";
//! this crate answers "what happens when queries arrive one at a time,
//! from many tenants, with deadlines, against a system that is sometimes
//! busy?". It layers three serving mechanisms over the distributed
//! engine ([`fastann_core::SearchRequest`]) without touching the engine's
//! wire protocol:
//!
//! * **Micro-batching** ([`BatchPolicy`]) — arrivals coalesce into one
//!   engine batch until a size or wait bound trips, trading a bounded
//!   per-request wait for batch throughput.
//! * **Admission control** ([`AdmissionPolicy`]) — per-tenant token
//!   buckets ([`TokenBucket`]), a global queue-depth bound, and a
//!   per-partition queue-depth bound (overload on one hot partition
//!   sheds on that partition's queue) refuse load with typed
//!   [`Rejection`]s, and a deadline-feasibility check refuses requests
//!   that could not be answered in time anyway. Deadlines of admitted
//!   requests propagate into the engine's per-probe timeout.
//! * **Adaptive replication** ([`ReplicaController`]) — under an
//!   adaptive [`fastann_core::RoutingPolicy`], a controller watches the
//!   engine's per-partition service-time metrics over a sliding
//!   virtual-time window and raises or decays partition replica counts
//!   ([`fastann_core::ReplicaMap`]) between batches, bounded by the
//!   policy maximum and per-node memory accounting.
//! * **Result caching** ([`ResultCache`]) — an LRU keyed by quantized
//!   query bytes serves exact repeats without the engine, with epoch
//!   invalidation so an index rebuild never leaks stale answers.
//!
//! Everything runs in the simulator's virtual time
//! ([`fastann_mpisim::VClock`] / [`fastann_mpisim::EventQueue`]): a run
//! is a discrete-event simulation whose [`ServeReport`] is bit-identical
//! for the same seed and configuration at any
//! [`fastann_core::EngineConfig::threads`] setting.

#![forbid(unsafe_code)]

mod admission;
mod cache;
mod config;
mod controller;
mod report;
mod request;
mod runtime;

pub use admission::TokenBucket;
pub use cache::{CacheStats, ResultCache};
pub use config::{
    AdmissionPolicy, BatchPolicy, ServeConfig, CACHE_HIT_NS, RETRY_BACKOFF_NS, SERVICE_ESTIMATE_NS,
};
pub use controller::{ControllerAction, ControllerPolicy, ReplicaController};
pub use report::ServeReport;
pub use request::{Completion, Outcome, Rejection, Request};
pub use runtime::{ClosedLoopSpec, ClosedRequest, ServeRun, ServeRuntime};
