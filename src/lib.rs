//! # fastann — facade crate
//!
//! Re-exports the workspace crates that together reproduce
//! *"Fast Scalable Approximate Nearest Neighbor Search for High-dimensional
//! Data"* (Bashyam & Vadhiyar, IEEE CLUSTER 2020).
//!
//! See the individual crates for details:
//! * [`data`] — vectors, metrics, generators, ground truth
//! * [`hnsw`] — the HNSW approximate k-NN index
//! * [`vptree`] — vantage-point trees (exact search + space partitioning)
//! * [`kdtree`] — PANDA-style KD-tree exact baseline
//! * [`mpisim`] — the virtual-time message-passing cluster simulator
//! * [`core`] — the distributed VP-tree + HNSW engine
//! * [`serve`] — the online serving runtime (micro-batching, admission
//!   control, result cache) layered over the engine
//! * [`obs`] — deterministic metrics (counters, gauges, histograms) with
//!   Prometheus and JSON exporters, bit-identical across thread counts

#![forbid(unsafe_code)]

/// Compiles (and, unless marked `no_run`, runs) every Rust block in
/// README.md as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use fastann_core as core;
pub use fastann_data as data;
pub use fastann_hnsw as hnsw;
pub use fastann_kdtree as kdtree;
pub use fastann_mpisim as mpisim;
pub use fastann_obs as obs;
pub use fastann_serve as serve;
pub use fastann_vptree as vptree;
