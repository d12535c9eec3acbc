//! # fastann-data
//!
//! Foundation crate for the `fastann` workspace: dense vector storage,
//! distance metrics for general metric spaces, streaming top-k selection,
//! order statistics (quickselect / median-of-medians), `fvecs`/`bvecs`/`ivecs`
//! file IO, synthetic dataset generators (including an MDCGen-style
//! multidimensional cluster generator), and exact brute-force ground truth
//! with recall evaluation.
//!
//! Everything downstream — the HNSW index, the VP tree, the KD-tree baseline
//! and the distributed engine — builds on the types defined here.
//!
//! ## Quick tour
//!
//! ```
//! use fastann_data::{VectorSet, Distance, ground_truth, synth};
//!
//! // 1k SIFT-like 32-dimensional vectors plus 10 queries.
//! let data = synth::sift_like(1_000, 32, 42);
//! let queries = synth::sift_like(10, 32, 43);
//!
//! // Exact 5-NN by brute force.
//! let gt = ground_truth::brute_force(&data, &queries, 5, Distance::L2);
//! assert_eq!(gt.len(), 10);
//! assert_eq!(gt[0].len(), 5);
//! ```

#![forbid(unsafe_code)]

/// Exact brute-force neighbours and recall evaluation.
pub mod ground_truth;
/// `fvecs` / `bvecs` / `ivecs` dataset file IO.
pub mod io;
/// Chunked distance inner loops that compile to packed SIMD.
pub mod kernels;
/// Distance metrics over dense `f32` vectors.
pub mod metric;
/// SQ8 scalar quantization with asymmetric distance.
pub mod quant;
/// Order statistics: quickselect and median-of-medians.
pub mod select;
/// Per-dimension dataset statistics.
pub mod stats;
/// Synthetic dataset generators (MDCGen-style and descriptor-shaped).
pub mod synth;
/// Streaming top-k selection and the `Neighbor` type.
pub mod topk;
/// Dense row-major vector storage.
pub mod vector;

pub use ground_truth::{recall_at_k, Recall};
pub use metric::Distance;
pub use stats::{dataset_stats, DatasetStats};
pub use topk::{Neighbor, TopK};
pub use vector::VectorSet;
