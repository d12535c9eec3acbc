//! Multiple-owner strategy — the variant discussed in the paper's
//! Section IV: instead of one master, the VP-tree skeleton is replicated on
//! every node and each query is *owned* by the node selected by a hash
//! (`qid mod N`). Owners route their own queries, target nodes answer, and
//! results are merged at the owners, then gathered.
//!
//! The paper found this "a small improvement … over an optimized
//! master-worker strategy but this improvement deteriorated as core count
//! increased", because the decentralised dispatch cannot do replication-
//! based load balancing. The `repro ablation-owner` experiment reproduces
//! that comparison.

use bytes::BytesMut;
use fastann_data::{Neighbor, TopK, VectorSet};
use fastann_hnsw::SearchScratch;
use fastann_mpisim::{
    wire, Cluster, Rank, ReduceOp, SchedPerturb, SimConfig, Topology, VThreadPool,
};

use crate::build::DistIndex;
use crate::config::SearchOptions;
use crate::engine::MERGE_NS_PER_NEIGHBOR;
use crate::router::workgroup_core;
use crate::stats::QueryReport;

const TAG_QUERY: u64 = 301;
const TAG_RESULT: u64 = 302;
const TAG_COUNT: u64 = 303;

/// Runs a batch with the multiple-owner strategy (no master rank, no
/// replication, two-sided result returns to the owners).
///
/// # Panics
/// Panics on dimension mismatch or empty query set.
pub fn search_batch_multi_owner(
    index: &DistIndex,
    queries: &VectorSet,
    opts: &SearchOptions,
) -> QueryReport {
    assert!(!queries.is_empty(), "empty query batch");
    assert_eq!(queries.dim(), index.dim(), "query dimension mismatch");
    let n_nodes = index.config.n_nodes();
    let sim = SimConfig::new(n_nodes)
        .topology(Topology::one_rank_per_node())
        .net(index.config.net)
        .cost(index.config.cost)
        .sched(SchedPerturb::seeded(opts.sched_seed));
    let cluster = Cluster::new(sim);

    let (outs, conservation) = cluster.run_checked(|rank| node_main(rank, index, queries, opts));
    if cfg!(debug_assertions) {
        conservation.assert_clean();
    }

    // Node 0 gathered the merged results.
    let mut results: Vec<Vec<Neighbor>> = Vec::new();
    let mut per_core = vec![0u64; index.config.n_cores];
    let mut per_part = vec![0u64; index.n_partitions()];
    let mut node_busy = vec![0f64; n_nodes];
    let mut node_comm = vec![0f64; n_nodes];
    let mut total_ndist = 0u64;
    let mut total_ns = 0f64;
    let mut route_ns = 0f64;
    let mut fanout = 0u64;
    let mut result_bytes = 0u64;
    let mut wait0 = 0f64;
    let mut comm0 = 0f64;
    for out in outs {
        if let Some(r) = out.results {
            results = r;
        }
        for (c, n) in out.per_core_queries.iter().enumerate() {
            per_core[c] += n;
        }
        for (p, n) in out.per_partition_probes.iter().enumerate() {
            per_part[p] += n;
        }
        node_busy[out.node] = out.busy_ns;
        node_comm[out.node] = out.comm_cpu_ns;
        total_ndist += out.ndist;
        total_ns = total_ns.max(out.end_ns);
        route_ns += out.route_ns;
        fanout += out.fanout;
        result_bytes += out.result_bytes;
        if out.node == 0 {
            wait0 = out.wait_ns;
            comm0 = out.comm_cpu_ns;
        }
    }
    QueryReport {
        results,
        total_ns,
        master_route_ns: route_ns,
        master_comm_cpu_ns: comm0,
        master_wait_ns: wait0,
        per_core_queries: per_core,
        per_partition_probes: per_part,
        mean_fanout: fanout as f64 / queries.len() as f64,
        node_busy_ns: node_busy,
        node_comm_cpu_ns: node_comm,
        total_ndist,
        result_bytes,
        degraded: vec![false; queries.len()],
        missing_partitions: vec![0; queries.len()],
        retries: 0,
        failovers: 0,
    }
}

struct NodeOut {
    node: usize,
    results: Option<Vec<Vec<Neighbor>>>,
    per_core_queries: Vec<u64>,
    per_partition_probes: Vec<u64>,
    busy_ns: f64,
    comm_cpu_ns: f64,
    wait_ns: f64,
    ndist: u64,
    end_ns: f64,
    route_ns: f64,
    fanout: u64,
    result_bytes: u64,
}

fn node_main(
    rank: &mut Rank,
    index: &DistIndex,
    queries: &VectorSet,
    opts: &SearchOptions,
) -> NodeOut {
    let world = rank.world();
    let me = rank.rank();
    let n_nodes = world.size();
    let t_cores = index.config.cores_per_node;
    let p_cores = index.config.n_cores;
    let k = opts.k;
    let dim = index.dim();
    let nq = queries.len();
    let route_cost = index.config.cost.dist_ns(dim);

    let owned: Vec<usize> = (0..nq).filter(|qi| qi % n_nodes == me).collect();
    let mut tops: std::collections::HashMap<usize, TopK> =
        owned.iter().map(|&qi| (qi, TopK::new(k))).collect();
    let mut per_core_queries = vec![0u64; p_cores];
    let mut per_partition_probes = vec![0u64; index.n_partitions()];
    let mut route_ns = 0f64;
    let mut fanout = 0u64;
    let mut pool = VThreadPool::new(t_cores, 0.0);
    pool.set_perturb(rank.sched_perturb());
    let mut scratch = SearchScratch::default();
    let mut ndist_total = 0u64;
    let mut sent_to = vec![0u64; n_nodes];
    let mut result_bytes = 0u64;

    // Local query processing shared by the dispatch and serve paths.
    let process = |rank: &mut Rank,
                   pool: &mut VThreadPool,
                   scratch: &mut SearchScratch,
                   ndist_total: &mut u64,
                   qid: usize,
                   part: usize,
                   q: &[f32],
                   ready: f64|
     -> (Vec<(u32, f32)>, f64) {
        let partition = &index.partitions[part];
        let (local, sstats) = partition.index.search_detailed_opts(q, opts, scratch);
        let ndist = sstats.ndist;
        *ndist_total += ndist;
        let cost = index.config.cost.dists_ns(ndist, dim);
        let done_at = pool.assign(ready, cost);
        let pairs: Vec<(u32, f32)> = local
            .iter()
            .map(|n| (partition.global_ids[n.id as usize], n.dist))
            .collect();
        let _ = qid;
        let _ = rank;
        (pairs, done_at)
    };

    // --- dispatch my owned queries ---
    for &qi in &owned {
        let q = queries.get(qi);
        let (parts, ndist) = index.router.route(q, &index.config.route);
        let c = ndist as f64 * route_cost;
        rank.charge(c);
        route_ns += c;
        fanout += parts.len() as u64;
        for d in parts {
            // no replication in this strategy: every workgroup is the
            // partition's one home core
            let core = workgroup_core(p_cores, &[], d as usize, 0);
            per_core_queries[core] += 1;
            per_partition_probes[d as usize] += 1;
            let target = core / t_cores;
            if target == me {
                // local work: no message, process straight away
                let (pairs, _done) = process(
                    rank,
                    &mut pool,
                    &mut scratch,
                    &mut ndist_total,
                    qi,
                    d as usize,
                    q,
                    rank.now(),
                );
                rank.charge(pairs.len() as f64 * MERGE_NS_PER_NEIGHBOR);
                let top = tops.get_mut(&qi).expect("owned query");
                for (id, dist) in pairs {
                    top.push(Neighbor::new(id, dist));
                }
            } else {
                let mut b = BytesMut::new();
                wire::put_u32(&mut b, qi as u32);
                wire::put_u32(&mut b, d);
                wire::put_f32_slice(&mut b, q);
                rank.send_bytes(target, TAG_QUERY, b.freeze());
                sent_to[target] += 1;
            }
        }
    }
    // tell every other node how much work to expect from me
    for (j, &count) in sent_to.iter().enumerate() {
        if j != me {
            let mut b = BytesMut::with_capacity(8);
            wire::put_u64(&mut b, count);
            rank.send_bytes(j, TAG_COUNT, b.freeze());
        }
    }

    // --- serve + merge, three deterministic phases ---
    //
    // An earlier version of this loop was a single `rank.recv(None, None)`
    // wildcard dispatch — the exact PR 1 bug class: folding arrivals into
    // the virtual clock in whatever order the OS scheduler enqueued them
    // made the report's timing fields differ from run to run (the
    // schedule-perturbation race detector flags it in one sweep). Draining
    // per source in rank order with exact tags is schedule-independent.
    //
    // Deadlock-free by construction: every node posts *all* its dispatch
    // sends (queries, then counts) before its first receive, sends are
    // non-blocking, and each phase only consumes messages already posted —
    // counts and queries during dispatch, results during phase B.

    // Phase A: how many queries does each peer owe me?
    let mut expected_from = vec![0u64; n_nodes];
    for (j, slot) in expected_from.iter_mut().enumerate() {
        if j != me {
            let msg = rank.recv(Some(j), Some(TAG_COUNT));
            let mut p = msg.payload;
            *slot = wire::get_u64(&mut p);
        }
    }

    // Phase B: serve every peer's queries, in rank order.
    for (j, &owed) in expected_from.iter().enumerate() {
        for _ in 0..owed {
            let msg = rank.recv(Some(j), Some(TAG_QUERY));
            let arrival = msg.arrival;
            let mut p = msg.payload;
            let qid = wire::get_u32(&mut p) as usize;
            let part = wire::get_u32(&mut p) as usize;
            let q = wire::get_f32_vec(&mut p);
            let (pairs, done_at) = process(
                rank,
                &mut pool,
                &mut scratch,
                &mut ndist_total,
                qid,
                part,
                &q,
                arrival,
            );
            let owner = qid % n_nodes;
            let mut b = BytesMut::new();
            wire::put_u32(&mut b, qid as u32);
            wire::put_neighbors(&mut b, &pairs);
            rank.send_bytes_at(owner, TAG_RESULT, b.freeze(), done_at);
        }
    }

    // Phase C: merge the answers to my own queries, in rank order.
    for (j, &sent) in sent_to.iter().enumerate() {
        for _ in 0..sent {
            let msg = rank.recv(Some(j), Some(TAG_RESULT));
            let mut p = msg.payload;
            result_bytes += p.len() as u64;
            let qid = wire::get_u32(&mut p) as usize;
            let pairs = wire::get_neighbors(&mut p);
            rank.charge(pairs.len() as f64 * MERGE_NS_PER_NEIGHBOR);
            let top = tops.get_mut(&qid).expect("result for unowned query");
            for (id, d) in pairs {
                top.push(Neighbor::new(id, d));
            }
        }
    }

    // --- gather owned results at node 0 ---
    let mut b = BytesMut::new();
    wire::put_u32(&mut b, owned.len() as u32);
    for &qi in &owned {
        wire::put_u32(&mut b, qi as u32);
        let pairs: Vec<(u32, f32)> = tops[&qi]
            .to_sorted()
            .iter()
            .map(|n| (n.id, n.dist))
            .collect();
        wire::put_neighbors(&mut b, &pairs);
    }
    let gathered = world.gather(rank, 0, b.freeze());
    let results = gathered.map(|parts| {
        let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
        for mut part in parts {
            let n = wire::get_u32(&mut part) as usize;
            for _ in 0..n {
                let qi = wire::get_u32(&mut part) as usize;
                out[qi] = wire::get_neighbors(&mut part)
                    .into_iter()
                    .map(|(id, d)| Neighbor::new(id, d))
                    .collect();
            }
        }
        out
    });

    let end_ns = world.allreduce_f64(rank, rank.now().max(pool.makespan()), ReduceOp::Max);
    let stats = rank.stats();
    NodeOut {
        node: me,
        results,
        per_core_queries,
        per_partition_probes,
        busy_ns: pool.busy(),
        comm_cpu_ns: stats.send_cpu_ns + stats.recv_cpu_ns + stats.rma_cpu_ns,
        wait_ns: stats.wait_ns,
        ndist: ndist_total,
        end_ns,
        route_ns,
        fanout,
        result_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::request::SearchRequest;
    use fastann_data::{ground_truth, synth, Distance};
    use fastann_hnsw::HnswConfig;

    fn build_small(n: usize, cores: usize, per_node: usize, seed: u64) -> (VectorSet, DistIndex) {
        let data = synth::sift_like(n, 16, seed);
        let cfg = EngineConfig::new(cores, per_node)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(seed))
            .with_seed(seed);
        let index = DistIndex::build(&data, cfg);
        (data, index)
    }

    #[test]
    fn multi_owner_matches_master_worker_results() {
        let (data, index) = build_small(2000, 8, 2, 31);
        let queries = synth::queries_near(&data, 17, 0.02, 32);
        let mw = SearchRequest::new(&index, &queries)
            .opts(SearchOptions::new(10))
            .run();
        let mo = search_batch_multi_owner(&index, &queries, &SearchOptions::new(10));
        assert_eq!(mw.results, mo.results, "strategies must agree on content");
    }

    #[test]
    fn multi_owner_recall_reasonable() {
        let (data, index) = build_small(3000, 8, 2, 33);
        let queries = synth::queries_near(&data, 20, 0.02, 34);
        let mut o = SearchOptions::new(10);
        o.ef = 128;
        let r = search_batch_multi_owner(&index, &queries, &o);
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        let rec = ground_truth::recall_at_k(&r.results, &gt, 10);
        assert!(rec.mean > 0.6, "recall {}", rec.mean);
    }

    #[test]
    fn every_query_gets_results() {
        let (data, index) = build_small(1500, 4, 2, 35);
        let queries = synth::queries_near(&data, 23, 0.05, 36);
        let r = search_batch_multi_owner(&index, &queries, &SearchOptions::new(5));
        assert_eq!(r.results.len(), 23);
        assert!(r.results.iter().all(|v| !v.is_empty()));
    }

    #[test]
    fn accounting_populated() {
        let (data, index) = build_small(1500, 8, 4, 37);
        let queries = synth::queries_near(&data, 12, 0.05, 38);
        let r = search_batch_multi_owner(&index, &queries, &SearchOptions::new(5));
        assert!(r.total_ns > 0.0);
        assert!(r.mean_fanout >= 1.0);
        assert!(r.total_ndist > 0);
        let dispatched: u64 = r.per_core_queries.iter().sum();
        assert_eq!(dispatched as f64, r.mean_fanout * 12.0);
    }

    #[test]
    fn perturbed_schedule_is_result_neutral() {
        // regression for the wildcard-receive race this loop used to have:
        // the per-source three-phase drain must make the whole report —
        // virtual times included — independent of the perturbation seed
        let (data, index) = build_small(1500, 8, 2, 41);
        let queries = synth::queries_near(&data, 13, 0.03, 42);
        let base = search_batch_multi_owner(&index, &queries, &SearchOptions::new(5));
        for seed in [1u64, 9, 0xFEED] {
            let r = search_batch_multi_owner(
                &index,
                &queries,
                &SearchOptions::new(5).with_sched_seed(seed),
            );
            assert_eq!(base, r, "seed {seed} diverged");
        }
    }

    #[test]
    fn single_node_multi_owner() {
        let (data, index) = build_small(800, 4, 4, 39);
        let queries = synth::queries_near(&data, 9, 0.05, 40);
        let r = search_batch_multi_owner(&index, &queries, &SearchOptions::new(5));
        assert_eq!(r.results.len(), 9);
    }
}
