//! Bit-identity goldens for the partitioning paths.
//!
//! Each case records one FNV-1a fingerprint over what partitioning
//! decides: the VP skeleton bytes (`PartitionTree::to_bytes`), every
//! partition's global ids and index size and build distance count, and
//! the [`BuildStats`] (floats as bits). The grid covers the distributed
//! build at 1, 2 and 4 cores per node, a single-node build over
//! duplicate-heavy rows (the local splitter's tie guard), an exact-tree
//! partition kind, the flat-pivot baseline, and one mutation batch whose
//! deletes trigger compaction and whose size bound triggers splits (its
//! report is fingerprinted too). Every case runs at one and at four
//! engine threads, which must fingerprint identically. A refactor of the
//! splitter, the skeleton writer or the partition builder must leave
//! every constant unchanged.

use fastann_core::{
    BuildStats, DistIndex, EngineConfig, LocalIndexKind, Mutation, MutationReport, MutationRequest,
    Router,
};
use fastann_data::{synth, VectorSet};
use fastann_hnsw::HnswConfig;

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

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

fn cfg(n_cores: usize, per_node: usize, seed: u64, threads: usize) -> EngineConfig {
    EngineConfig::new(n_cores, per_node)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40))
        .with_seed(seed)
        .with_threads(threads)
}

fn hash_stats(h: &mut Fnv, s: &BuildStats) {
    h.f64(s.total_ns);
    h.f64(s.vptree_ns);
    h.f64(s.hnsw_ns);
    h.u64(s.shuffle_bytes);
    h.u64(s.hnsw_ndist);
    h.u64(s.partition_sizes.len() as u64);
    for &n in &s.partition_sizes {
        h.u64(n as u64);
    }
}

/// Router, partitions and build statistics of `index`.
fn hash_index(index: &DistIndex) -> u64 {
    let mut h = Fnv::new();
    match &*index.router {
        Router::VpTree(tree) => {
            h.u64(0);
            let skel = tree.to_bytes();
            h.u64(skel.len() as u64);
            h.bytes(&skel);
        }
        Router::FlatPivot { pivots, .. } => {
            h.u64(1);
            h.u64(pivots.len() as u64);
            for &x in pivots.as_flat() {
                h.u64(u64::from(x.to_bits()));
            }
        }
    }
    h.u64(index.partitions.len() as u64);
    for p in index.partitions.iter() {
        h.u64(u64::from(p.id));
        h.u64(p.global_ids.len() as u64);
        for &g in &p.global_ids {
            h.u64(u64::from(g));
        }
        h.u64(p.index.len() as u64);
        h.u64(p.index.live_len() as u64);
        h.u64(p.index.build_ndist());
    }
    hash_stats(&mut h, &index.build_stats);
    h.0
}

fn hash_report(r: &MutationReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.epoch);
    for o in &r.outcomes {
        h.bytes(format!("{o:?}").as_bytes());
    }
    for c in &r.compactions {
        h.u64(u64::from(c.part));
        h.u64(c.dropped as u64);
        h.u64(c.ndist);
    }
    for s in &r.splits {
        h.u64(u64::from(s.part));
        h.u64(u64::from(s.new_part));
        h.u64(s.moved as u64);
    }
    h.f64(r.max_tombstone_ratio);
    h.f64(r.maintenance_ns);
    h.u64(r.ndist);
    h.0
}

/// `n` rows of dimension `dim`, three quarters of them one point. The
/// duplicate case indexes its partitions by brute force: an HNSW graph
/// over hundreds of identical rows fails its own validator.
fn duplicate_heavy(n: usize, dim: usize, seed: u64) -> VectorSet {
    let base = synth::sift_like(n, dim, seed);
    let mut out = VectorSet::with_capacity(dim, n);
    for i in 0..n {
        out.push(base.get(if i % 4 == 0 { i } else { 0 }));
    }
    out
}

/// Runs `case` at one and at four threads and asserts both fingerprint
/// identically; returns the fingerprint.
fn at_both_thread_counts(case: impl Fn(usize) -> u64) -> u64 {
    let one = case(1);
    assert_eq!(one, case(4), "threads = 4 must fingerprint as threads = 1");
    one
}

fn vp_build(per_node: usize, kind: LocalIndexKind) -> u64 {
    let data = synth::sift_like(1600, 16, 21);
    at_both_thread_counts(|threads| {
        let c = cfg(8, per_node, 21, threads).with_local_index(kind);
        hash_index(&DistIndex::build(&data, c))
    })
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: fingerprint {got:#018x} differs from the golden {want:#018x}"
    );
}

#[test]
fn distributed_build_one_core_per_node() {
    check(
        "per-node-1",
        vp_build(1, LocalIndexKind::Hnsw),
        0x0c34_6eb3_8501_6ba4,
    );
}

#[test]
fn distributed_build_two_cores_per_node() {
    check(
        "per-node-2",
        vp_build(2, LocalIndexKind::Hnsw),
        0x601c_0582_c480_df33,
    );
}

#[test]
fn distributed_build_four_cores_per_node() {
    check(
        "per-node-4",
        vp_build(4, LocalIndexKind::Hnsw),
        0xfb39_4868_6c5c_5e84,
    );
}

#[test]
fn exact_tree_partitions() {
    check(
        "vp-exact",
        vp_build(2, LocalIndexKind::VpExact),
        0x0b2b_54dd_214c_200e,
    );
}

#[test]
fn single_node_build_over_duplicate_rows() {
    let data = duplicate_heavy(400, 8, 23);
    let got = at_both_thread_counts(|threads| {
        let c = cfg(8, 8, 23, threads).with_local_index(LocalIndexKind::BruteForce);
        hash_index(&DistIndex::build(&data, c))
    });
    check("duplicates", got, 0xf27b_57e2_b940_d813);
}

#[test]
fn flat_pivot_build() {
    let data = synth::sift_like(1600, 16, 22);
    let got = at_both_thread_counts(|threads| {
        hash_index(&DistIndex::build_flat_pivot(&data, cfg(8, 2, 22, threads)))
    });
    check("flat-pivot", got, 0xad66_98c6_1034_f373);
}

#[test]
fn mutation_with_compaction_and_splits() {
    let data = synth::sift_like(1200, 12, 24);
    let fresh = synth::sift_like(20, 12, 25);
    let got = at_both_thread_counts(|threads| {
        let mut index = DistIndex::build(&data, cfg(4, 2, 24, threads));
        let mut batch: Vec<Mutation> = (0..1200u32)
            .step_by(3)
            .map(|global_id| Mutation::Delete { global_id })
            .collect();
        batch.extend(fresh.iter().map(|v| Mutation::Upsert {
            global_id: None,
            vector: v.to_vec(),
        }));
        let report = MutationRequest::new(&mut index)
            .mutations(batch)
            .compact_threshold(0.25)
            .split_above(180)
            .run();
        assert!(!report.compactions.is_empty(), "the deletes must compact");
        assert!(!report.splits.is_empty(), "the bound must split");
        let mut h = Fnv::new();
        h.u64(hash_report(&report));
        h.u64(hash_index(&index));
        h.0
    });
    check("mutation", got, 0x954b_d78c_233b_ca41);
}
