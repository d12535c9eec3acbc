//! Index-level benchmarks: HNSW vs VP tree vs KD tree construction and
//! search, including the dimensionality sweep behind the paper's core
//! claim (KD pruning collapses as dimension grows; HNSW does not).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fastann_data::{synth, Distance};
use fastann_hnsw::{Hnsw, HnswConfig, SearchParams, SearchScratch};
use fastann_kdtree::{KdTree, KdTreeConfig};
use fastann_vptree::{VpTree, VpTreeConfig};

const N: usize = 8_000;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_8k_x_32d");
    group.sample_size(10);
    let data = synth::sift_like(N, 32, 1);
    group.bench_function("hnsw_m16", |b| {
        b.iter(|| Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(16)))
    });
    group.bench_function("vptree", |b| {
        b.iter(|| VpTree::build(data.clone(), Distance::L2, VpTreeConfig::default()))
    });
    group.bench_function("kdtree", |b| {
        b.iter(|| KdTree::build(data.clone(), KdTreeConfig::default()))
    });
    group.finish();
}

fn bench_search_by_dim(c: &mut Criterion) {
    // The Table III effect in micro form: exact tree search cost explodes
    // with dimension while the graph search stays flat.
    let mut group = c.benchmark_group("knn10_by_dim");
    group.sample_size(20);
    for dim in [8usize, 32, 128] {
        let data = synth::deep_like(N, dim, 2);
        let queries = synth::queries_near(&data, 64, 0.02, 3);
        let hnsw = Hnsw::build(data.clone(), Distance::L2, HnswConfig::with_m(16));
        let kd = KdTree::build(data.clone(), KdTreeConfig::default());
        let vp = VpTree::build(data.clone(), Distance::L2, VpTreeConfig::default());
        group.bench_with_input(BenchmarkId::new("hnsw_ef64", dim), &dim, |b, _| {
            let mut i = 0;
            let mut scratch = SearchScratch::default();
            b.iter(|| {
                let q = queries.get(i % queries.len());
                i += 1;
                hnsw.search(black_box(q), &SearchParams::new(10, 64), &mut scratch)
            })
        });
        group.bench_with_input(BenchmarkId::new("kdtree_exact", dim), &dim, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = queries.get(i % queries.len());
                i += 1;
                kd.knn(black_box(q), 10)
            })
        });
        group.bench_with_input(BenchmarkId::new("vptree_exact", dim), &dim, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = queries.get(i % queries.len());
                i += 1;
                vp.knn(black_box(q), 10)
            })
        });
    }
    group.finish();
}

fn bench_hnsw_ef_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hnsw_ef_sweep_128d");
    let data = synth::sift_like(N, 128, 4);
    let queries = synth::queries_near(&data, 64, 0.02, 5);
    let hnsw = Hnsw::build(data, Distance::L2, HnswConfig::with_m(16));
    for ef in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(ef), &ef, |b, &ef| {
            let mut i = 0;
            let mut scratch = SearchScratch::default();
            b.iter(|| {
                let q = queries.get(i % queries.len());
                i += 1;
                hnsw.search(black_box(q), &SearchParams::new(10, ef), &mut scratch)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_search_by_dim,
    bench_hnsw_ef_sweep
);
criterion_main!(benches);
