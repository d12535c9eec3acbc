//! # fastann-core
//!
//! The paper's system: **distributed approximate k-NN search** that
//! partitions the dataset with a vantage-point tree across processing
//! cores, indexes each partition with HNSW, and answers query batches with
//! a master–worker protocol over the simulated MPI cluster.
//!
//! The pieces, mapped to the paper's sections:
//!
//! * [`DistIndex::build`] — Section IV-A, Algorithms 1–2: distributed
//!   VP-tree construction (distributed vantage-point selection, distributed
//!   median, `Alltoallv` shuffles), hybrid with a node-local phase that
//!   splits a node's data into one partition per core, then per-partition
//!   HNSW construction.
//! * [`SearchRequest`] — Section IV-B, Algorithms 3–4: the master routes
//!   each query to the partitions `F(q)` chosen by the VP-tree skeleton;
//!   worker nodes answer with multi-threaded local HNSW searches (modelled
//!   by per-node virtual thread pools). One builder and one master/worker
//!   loop cover the fault-free, traced, fault-tolerant and metered
//!   variants.
//! * [`SearchOptions::one_sided`] — Section IV-C1: workers deposit results
//!   straight into the master's memory window (`MPI_Get_accumulate`
//!   semantics) instead of two-sided replies.
//! * [`SearchOptions::routing`] — Section IV-C2, Algorithm 5, generalised
//!   behind [`RoutingPolicy`]: partitions are replicated across workgroups
//!   of `r` cores with queries dispatched round-robin
//!   ([`RoutingPolicy::Static`], the paper's scheme) or by
//!   power-of-two-choices over deterministic virtual-time queue depth
//!   ([`RoutingPolicy::PowerOfTwo`]), with per-partition replica counts
//!   ([`ReplicaMap`]) raised and decayed by the `fastann-serve` adaptive
//!   controller.
//! * [`search_batch_multi_owner`] — the multiple-owner variant discussed in
//!   Section IV: every node owns a hash-slice of the queries and routes
//!   them itself against a replicated skeleton.
//! * [`SearchRequest::chaos`] — the same master–worker protocol hardened
//!   against a seeded [`fastann_mpisim::FaultPlan`]: virtual-time request
//!   timeouts, bounded retry with failover across the Algorithm-5 replica
//!   workgroups, and a degraded mode that returns partial top-k (flagged
//!   per query in [`QueryReport::degraded`]) instead of hanging.
//!
//! ```no_run
//! use fastann_core::{DistIndex, EngineConfig, SearchOptions, SearchRequest};
//! use fastann_data::synth;
//!
//! let data = synth::sift_like(20_000, 64, 1);
//! let queries = synth::queries_near(&data, 100, 0.02, 2);
//! let index = DistIndex::build(&data, EngineConfig::new(16, 4));
//! let report = SearchRequest::new(&index, &queries)
//!     .opts(SearchOptions::new(10))
//!     .run();
//! println!("10-NN for 100 queries in {:.2} virtual ms", report.total_ns / 1e6);
//! ```

#![forbid(unsafe_code)]

mod build;
mod config;
mod engine;
mod local;
mod mutation;
mod owner;
mod persist;
mod request;
mod router;
mod routing;
mod stats;
/// Central registry of every wire tag the workspace's protocols use.
pub mod tags;
mod tune;

pub use build::{DistIndex, Partition};
pub use config::{EngineConfig, SearchOptions};
pub use engine::{TAG_END, TAG_FLUSH, TAG_FLUSH_ACK, TAG_QUERY, TAG_RESULT};
pub use fastann_vptree::RouteConfig;
pub use local::{LocalIndex, LocalIndexKind};
pub use mutation::{
    CompactionEvent, LogEntry, Mutation, MutationLog, MutationOutcome, MutationReport,
    MutationRequest, SplitEvent,
};
pub use owner::search_batch_multi_owner;
pub use persist::PersistError;
pub use request::{SearchRequest, SearchSession};
pub use router::Router;
pub use routing::{ReplicaMap, RoutingPolicy};
pub use stats::{BuildStats, Distribution, QueryReport};
pub use tune::{tune_routing, TuneOutcome};
