//! Routing-policy parity: an explicit uniform [`ReplicaMap`] snapshot must
//! match the implicit policy-base dispatch with byte-identical
//! [`fastann_core::QueryReport`]s, virtual times included, and load-aware
//! routing may move probes between replicas but never change results.

use fastann_core::{
    DistIndex, EngineConfig, ReplicaMap, RoutingPolicy, SearchOptions, SearchRequest,
};
use fastann_data::{synth, VectorSet};
use fastann_hnsw::HnswConfig;

fn fixture() -> (VectorSet, DistIndex) {
    let data = synth::sift_like(2_500, 16, 31);
    let queries = synth::queries_near(&data, 20, 0.02, 32);
    let cfg = EngineConfig::new(8, 2)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(31))
        .with_seed(31);
    let index = DistIndex::build(&data, cfg);
    (queries, index)
}

#[test]
fn uniform_replica_map_matches_policy_base() {
    let (queries, index) = fixture();
    for r in [1usize, 3] {
        let opts = SearchOptions::new(10).with_routing(RoutingPolicy::Static(r));
        let implicit = SearchRequest::new(&index, &queries).opts(opts).run();
        let map = ReplicaMap::uniform(index.n_partitions(), r);
        let explicit = SearchRequest::new(&index, &queries)
            .opts(opts)
            .replicas(&map)
            .run();
        assert_eq!(
            implicit, explicit,
            "uniform ReplicaMap({r}) diverged from policy base"
        );
    }
}

#[test]
fn po2_routing_preserves_results() {
    // load-aware slot choice may move probes between replicas, never
    // change what a query returns
    let (queries, index) = fixture();
    let rr = SearchRequest::new(&index, &queries)
        .opts(SearchOptions::new(10).with_routing(RoutingPolicy::Static(3)))
        .run();
    let po2 = SearchRequest::new(&index, &queries)
        .opts(SearchOptions::new(10).with_routing(RoutingPolicy::PowerOfTwo { base: 3, max: 3 }))
        .run();
    assert_eq!(rr.results, po2.results, "routing policy changed results");
    assert_eq!(
        rr.per_partition_probes, po2.per_partition_probes,
        "per-partition probe counts are placement-invariant"
    );
}
