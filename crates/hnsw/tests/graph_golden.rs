//! Bit-identity goldens for HNSW construction, mutation and search.
//!
//! Each corpus is built with `Hnsw::build`, grown by 100 `add`s,
//! tombstoned at every 7th id and repaired. Every state is fingerprinted
//! with FNV-1a over the serialized blob, its `build_ndist` is pinned
//! beside it (a cheaper construction may lower the count without moving
//! a byte of the graph), and 50 queries
//! are fingerprinted over their result ids, distance bits and every
//! `SearchStats` field, exact and SQ8 (one multi-entry beam descent; there
//! is no other). A second sweep fingerprints the live, tombstoned and
//! repaired states over k ∈ {1, 10} and `ef` ∈ {k, 48, 200}: `ef = 1` and
//! `ef = 10` sit below the number of layer-0 seeds (the descent beam plus
//! the unconsumed entry-set members), so the beam's replace-the-worst rule
//! runs on the seeds before any expansion. The constants pin today's
//! graphs and answers: a refactor of the build or search core must leave
//! every one of them unchanged.
//!
//! All corpora but one build at M = 8 (`m_max0` = 16). The M = 32 corpus
//! (`m_max0` = 64) reselects overflowing lists of 65 candidates, more than
//! one 64-bit word of slots.
//!
//! The lattice corpus has small-integer coordinates, so squared distances
//! tie exactly and often: it pins the beam's `(dist, id)` tie-breaks and
//! the strict `dist` comparisons of its admission and stopping rules.

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

/// The serialized blob.
fn graph_hash(index: &Hnsw) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&index.to_bytes());
    h.0
}

/// Every query under every parameter set, query-major.
fn hash_searches(index: &Hnsw, queries: &VectorSet, params: &[SearchParams]) -> u64 {
    let mut h = Fnv::new();
    let mut scratch = SearchScratch::default();
    for qi in 0..queries.len() {
        for p in params {
            let (hits, s) = index.search(queries.get(qi), p, &mut scratch);
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
    h.0
}

/// `k`, exact and SQ8.
fn params_at(k: usize, ef: usize) -> Vec<SearchParams> {
    let exact = SearchParams::new(k, ef);
    vec![exact, exact.quantized(true)]
}

/// Every query at k = 10, ef = 48.
fn search_hash(index: &Hnsw, queries: &VectorSet) -> u64 {
    hash_searches(index, queries, &params_at(10, 48))
}

/// Every query at k ∈ {1, 10} and ef ∈ {k, 48, 200}.
fn sweep_hash(index: &Hnsw, queries: &VectorSet) -> u64 {
    let mut params = Vec::new();
    for k in [1, 10] {
        for ef in [k, 48, 200] {
            params.extend(params_at(k, ef));
        }
    }
    hash_searches(index, queries, &params)
}

/// Fingerprints of one corpus, in the order [`fingerprints`] takes them.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    build: u64,
    build_ndist: u64,
    search: u64,
    search_tombstoned: u64,
    mutated: u64,
    mutated_ndist: u64,
    search_repaired: u64,
}

/// Parameter-sweep fingerprints of the live, tombstoned and repaired
/// states.
#[derive(Debug, PartialEq, Eq)]
struct Sweep {
    live: u64,
    tombstoned: u64,
    repaired: u64,
}

fn fingerprints(data: VectorSet, queries: &VectorSet, seed: u64, m: usize) -> (Golden, Sweep) {
    let cfg = HnswConfig::with_m(m).ef_construction(64).seed(seed);
    let adds = synth::queries_near(&data, 100, 0.02, seed ^ 0xadd);
    let mut index = Hnsw::build(data, Distance::L2, cfg);
    let build = graph_hash(&index);
    let build_ndist = index.build_ndist();
    // ef = 1 must sit below the layer-0 seed count for the sweep to run
    // the replace-the-worst rule on the seeds.
    assert!(index.entry_set().len() > 1, "entry set too small to seed");
    let search = search_hash(&index, queries);
    let sweep_live = sweep_hash(&index, queries);
    for i in 0..adds.len() {
        index.add(adds.get(i));
    }
    for id in (0..index.len() as u32).step_by(7) {
        index.remove(id);
    }
    let search_tombstoned = search_hash(&index, queries);
    let sweep_tombstoned = sweep_hash(&index, queries);
    index.repair_tombstones();
    index.validate().expect("repaired graph is valid");
    let golden = Golden {
        build,
        build_ndist,
        search,
        search_tombstoned,
        mutated: graph_hash(&index),
        mutated_ndist: index.build_ndist(),
        search_repaired: search_hash(&index, queries),
    };
    let sweep = Sweep {
        live: sweep_live,
        tombstoned: sweep_tombstoned,
        repaired: sweep_hash(&index, queries),
    };
    (golden, sweep)
}

#[test]
fn sift_like_golden() {
    let data = synth::sift_like(1500, 24, 11);
    let queries = synth::queries_near(&data, 50, 0.02, 12);
    let (got, sweep) = fingerprints(data, &queries, 11, 8);
    assert_eq!(
        got,
        Golden {
            build: 0x9dab_66a6_3c74_bb22,
            build_ndist: 641_258,
            search: 0xd5ea_f91b_8189_4c11,
            search_tombstoned: 0xfef5_1fbe_0bca_021d,
            mutated: 0xc797_a8d8_3d50_994c,
            mutated_ndist: 695_973,
            search_repaired: 0xb92f_d81f_562d_3909,
        }
    );
    assert_eq!(
        sweep,
        Sweep {
            live: 0x9bb3_d388_bec7_8d45,
            tombstoned: 0x757c_50ee_869b_b881,
            repaired: 0xbcbb_040e_3fa8_89a9,
        }
    );
}

#[test]
fn deep_like_golden() {
    let data = synth::deep_like(1500, 32, 21);
    let queries = synth::queries_near(&data, 50, 0.02, 22);
    let (got, sweep) = fingerprints(data, &queries, 21, 8);
    assert_eq!(
        got,
        Golden {
            build: 0x7e8a_0f91_ba30_e682,
            build_ndist: 588_690,
            search: 0xc6fa_9b3d_08c3_90e4,
            search_tombstoned: 0x41b8_e52a_d11f_78f9,
            mutated: 0x0f8b_50e2_8200_145b,
            mutated_ndist: 639_398,
            search_repaired: 0xb64b_a699_0ca6_8779,
        }
    );
    assert_eq!(
        sweep,
        Sweep {
            live: 0x9df0_c0f9_e334_266b,
            tombstoned: 0x875a_683d_6049_a215,
            repaired: 0x52bc_1a83_29f8_5a25,
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
    let (got, sweep) = fingerprints(ds.points, &queries, 31, 8);
    assert_eq!(
        got,
        Golden {
            build: 0xeb45_d761_81e2_18e2,
            build_ndist: 441_991,
            search: 0x31e6_a5db_42c2_45d6,
            search_tombstoned: 0x039e_e77e_211f_42c1,
            mutated: 0x2d33_67ed_edd0_a37a,
            mutated_ndist: 498_496,
            search_repaired: 0x5c9c_7d49_a980_68d1,
        }
    );
    assert_eq!(
        sweep,
        Sweep {
            live: 0xe6ae_623a_b18c_d903,
            tombstoned: 0xed9c_8fd3_7c90_0c49,
            repaired: 0x6519_3a39_3dd5_8715,
        }
    );
}

#[test]
fn m32_golden() {
    let ds = mdcgen::generate(&mdcgen::MdcConfig {
        n_points: 1500,
        dim: 32,
        n_clusters: 6,
        n_outliers: 4,
        compactness: 0.05,
        spread: mdcgen::Spread::Mixed,
        seed: 51,
    });
    let queries = ds.queries_all_clusters(50, 0.01, 52);
    let (got, sweep) = fingerprints(ds.points, &queries, 51, 32);
    assert_eq!(
        got,
        Golden {
            build: 0xd360_bacb_d793_69a4,
            build_ndist: 699_416,
            search: 0xff76_5e2c_e382_62c4,
            search_tombstoned: 0x2099_9193_d126_92cd,
            mutated: 0xa5a5_2277_0865_5c9b,
            mutated_ndist: 1_188_652,
            search_repaired: 0x1dfe_842b_c10c_1519,
        }
    );
    assert_eq!(
        sweep,
        Sweep {
            live: 0x9821_b10f_8c15_fd73,
            tombstoned: 0x2ffa_b03f_a1e1_9d41,
            repaired: 0x5c8e_c232_c05e_53dd,
        }
    );
}

/// `n` points with coordinates in `0..=3`, drawn from a SplitMix64 stream.
fn lattice(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let flat = (0..n * dim).map(|_| (next() % 4) as f32).collect();
    VectorSet::from_flat(dim, flat)
}

#[test]
fn lattice_golden() {
    let data = lattice(1500, 12, 41);
    let queries = lattice(50, 12, 42);
    let (got, sweep) = fingerprints(data, &queries, 41, 8);
    assert_eq!(
        got,
        Golden {
            build: 0x9ef1_4807_d274_bf97,
            build_ndist: 723_727,
            search: 0xa361_01ea_5fab_216d,
            search_tombstoned: 0x4802_18db_9e50_3a25,
            mutated: 0x79d5_71cb_71fe_8d23,
            mutated_ndist: 799_244,
            search_repaired: 0x1e18_17be_b407_292d,
        }
    );
    assert_eq!(
        sweep,
        Sweep {
            live: 0x384d_eded_53af_3d60,
            tombstoned: 0xb0b2_18fe_59f6_9bc9,
            repaired: 0xefdc_d1f1_f55e_b5f1,
        }
    );
}
