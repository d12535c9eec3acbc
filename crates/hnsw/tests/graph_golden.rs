//! Bit-identity goldens for HNSW construction, mutation and search.
//!
//! Each corpus is built sequentially and batch-parallel (at one and at
//! four threads), grown by 100 `add`s, tombstoned at every 7th id and
//! repaired. Every state is fingerprinted with FNV-1a over the serialized
//! blob plus `build_ndist`, and 50 queries are fingerprinted over their
//! result ids, distance bits and every `SearchStats` field, exact and SQ8,
//! at `entry_beam` 0 (the index default) and 1 (single-seed greedy
//! descent). The constants pin today's graphs and answers: a refactor of
//! the build or search core must leave every one of them unchanged.

use fastann_data::synth::{self, mdcgen};
use fastann_data::{Distance, VectorSet};
use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Serialized blob plus construction cost.
fn graph_hash(index: &Hnsw) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&index.to_bytes());
    h.u64(index.build_ndist());
    h.0
}

/// Every query, exact and SQ8, at `entry_beam` 0 and 1.
fn search_hash(index: &Hnsw, queries: &VectorSet) -> u64 {
    let mut h = Fnv::new();
    let mut scratch = SearchScratch::default();
    for qi in 0..queries.len() {
        for quantized in [None, Some(3)] {
            for entry_beam in [0, 1] {
                let params = SearchParams {
                    k: 10,
                    ef: 48,
                    entry_beam,
                    quantized,
                };
                let (hits, s) = index.search(queries.get(qi), &params, &mut scratch);
                h.u64(hits.len() as u64);
                for n in &hits {
                    h.u64(u64::from(n.id));
                    h.u64(u64::from(n.dist.to_bits()));
                }
                for x in [
                    s.ndist,
                    s.ndist_quant,
                    s.rerank,
                    s.hops,
                    s.heap_pushes,
                    s.ef_churn,
                    s.entry_seeds,
                ] {
                    h.u64(x);
                }
            }
        }
    }
    h.0
}

/// Fingerprints of one corpus, in the order [`fingerprints`] takes them.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    build: u64,
    build_parallel: u64,
    search: u64,
    search_tombstoned: u64,
    mutated: u64,
    search_repaired: u64,
}

fn fingerprints(data: VectorSet, queries: &VectorSet, seed: u64) -> Golden {
    let cfg = HnswConfig::with_m(8).ef_construction(64).seed(seed);
    let par = |threads| {
        rayon::with_num_threads(threads, || {
            Hnsw::build_parallel(data.clone(), Distance::L2, cfg)
        })
    };
    let build_parallel = graph_hash(&par(1));
    assert_eq!(
        graph_hash(&par(4)),
        build_parallel,
        "parallel build depends on the thread count"
    );

    let adds = synth::queries_near(&data, 100, 0.02, seed ^ 0xadd);
    let mut index = Hnsw::build(data, Distance::L2, cfg);
    let build = graph_hash(&index);
    let search = search_hash(&index, queries);
    for i in 0..adds.len() {
        index.add(adds.get(i));
    }
    for id in (0..index.len() as u32).step_by(7) {
        index.remove(id);
    }
    let search_tombstoned = search_hash(&index, queries);
    index.repair_tombstones();
    index.validate().expect("repaired graph is valid");
    Golden {
        build,
        build_parallel,
        search,
        search_tombstoned,
        mutated: graph_hash(&index),
        search_repaired: search_hash(&index, queries),
    }
}

#[test]
fn sift_like_golden() {
    let data = synth::sift_like(1500, 24, 11);
    let queries = synth::queries_near(&data, 50, 0.02, 12);
    let got = fingerprints(data, &queries, 11);
    assert_eq!(
        got,
        Golden {
            build: 0x07c9_53ae_f2cb_9bd9,
            build_parallel: 0x27cd_5316_fe96_8ee6,
            search: 0x33c5_6bfa_59dc_f06c,
            search_tombstoned: 0x29bc_1081_05fc_525d,
            mutated: 0xb8bb_f789_8156_485b,
            search_repaired: 0x7570_0f4c_bed7_ff45,
        }
    );
}

#[test]
fn deep_like_golden() {
    let data = synth::deep_like(1500, 32, 21);
    let queries = synth::queries_near(&data, 50, 0.02, 22);
    let got = fingerprints(data, &queries, 21);
    assert_eq!(
        got,
        Golden {
            build: 0x7976_dd10_f1fd_9415,
            build_parallel: 0x1465_fe3d_e6da_4f5d,
            search: 0x6375_62f5_e22f_94cd,
            search_tombstoned: 0xd97b_0ed2_6444_a9f5,
            mutated: 0xa9bf_979f_42f8_adc2,
            search_repaired: 0xeb4b_7346_4e01_fe1d,
        }
    );
}

#[test]
fn mdcgen_golden() {
    let ds = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: 1500,
        dim: 48,
        n_clusters: 10,
        n_outliers: 8,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: 31,
    });
    let queries = ds.queries_all_clusters(50, 0.01, 32);
    let got = fingerprints(ds.points, &queries, 31);
    assert_eq!(
        got,
        Golden {
            build: 0x4b5d_305b_dfa6_7371,
            build_parallel: 0x09cb_c6e1_abba_7eba,
            search: 0xbb0e_979d_7ee0_8aaf,
            search_tombstoned: 0x4584_6869_1de8_c57d,
            mutated: 0xdd56_d9e2_6fbb_70d5,
            search_repaired: 0xfe59_c951_e7e1_8e25,
        }
    );
}
