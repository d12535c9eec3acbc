//! Distributed KD-tree engine over `fastann-mpisim` — the PANDA-style
//! baseline of the paper's Table III.
//!
//! **Construction** (mirrors the paper's description of \[1\]): worker ranks
//! start with equal slices of the dataset; the group recursively halves —
//! agree on the widest dimension (all-gather of per-rank bounds), agree on
//! the coordinate median (weighted median of per-rank medians), shuffle
//! rows with `Alltoallv` so the left half of the ranks holds the left
//! half-space, and recurse. Each worker ends up with one partition and
//! builds a local [`KdTree`]; the split skeleton is assembled bottom-up and
//! shipped to the master.
//!
//! **Search** is exact and two-phase:
//! 1. the master routes each query to its *home* partition, which returns
//!    its local k-NN and thereby a k-th-distance radius;
//! 2. the master fans the query out to every other partition whose cell
//!    intersects that ball (the fan-out explodes with dimension — the
//!    paper's core argument against KD trees for high-dimensional data),
//!    seeds those searches with the current candidates, and merges.

use bytes::{Bytes, BytesMut};
use fastann_data::{Neighbor, TopK, VectorSet};
use fastann_mpisim::{wire, Cluster, Comm, Rank, SimConfig};

use crate::local::{KdTree, KdTreeConfig};
use crate::skeleton::KdSkeletonBuilder;

/// Seed neighbours are tagged with this bit so their (global) ids cannot
/// collide with local-tree row ids inside a worker's `TopK`.
const SEED_BIT: u32 = 1 << 31;

const TAG_P1: u64 = 1;
const TAG_P2: u64 = 2;
const TAG_R1: u64 = 3;
const TAG_R2: u64 = 4;
const TAG_END: u64 = 5;
const TAG_SKEL: u64 = 6;
const TAG_SUBTREE: u64 = 7;

/// Virtual cost of one scalar comparison/scan step (ns) during tree walks.
const SCAN_NS: f64 = 0.3;

/// Configuration of a distributed KD run.
#[derive(Clone, Debug)]
pub struct DistKdConfig {
    /// Worker ranks = partitions (power of two). Total simulated cores is
    /// `n_partitions + 1` (one master).
    pub n_partitions: usize,
    /// Neighbours per query.
    pub k: usize,
    /// Leaf bucket size of the local trees.
    pub bucket_size: usize,
    /// Simulated-cluster parameters (network, cost model, topology).
    pub sim: SimConfig,
}

impl DistKdConfig {
    /// Defaults for `n_partitions` workers.
    pub fn new(n_partitions: usize) -> Self {
        assert!(
            n_partitions.is_power_of_two(),
            "partitions must be a power of two"
        );
        Self {
            n_partitions,
            k: 10,
            bucket_size: 32,
            sim: SimConfig::new(n_partitions + 1),
        }
    }
}

/// Outcome of a distributed KD run.
#[derive(Clone, Debug)]
pub struct DistKdReport {
    /// Exact k-NN per query (global row ids).
    pub results: Vec<Vec<Neighbor>>,
    /// Virtual time of the construction phase (ns).
    pub build_ns: f64,
    /// Virtual time of the query phase (ns): master start → all results
    /// merged.
    pub query_ns: f64,
    /// Mean number of partitions searched per query (home + fan-out).
    pub mean_fanout: f64,
    /// Queries processed per worker rank.
    pub per_worker_queries: Vec<u64>,
    /// Sum of distance evaluations across workers.
    pub total_ndist: u64,
}

/// Runs construction + batch search on a simulated cluster and reports
/// results with virtual-time accounting.
///
/// # Panics
/// Panics on configuration errors (non-power-of-two partitions, empty
/// data/queries, dimension mismatch).
pub fn run(data: &VectorSet, queries: &VectorSet, cfg: &DistKdConfig) -> DistKdReport {
    assert!(
        !data.is_empty() && !queries.is_empty(),
        "need data and queries"
    );
    assert_eq!(data.dim(), queries.dim(), "dimension mismatch");
    assert!(
        data.len() >= cfg.n_partitions * 2,
        "too few points ({}) for {} partitions",
        data.len(),
        cfg.n_partitions
    );
    let mut sim = cfg.sim.clone();
    sim.n_ranks = cfg.n_partitions + 1;
    let cluster = Cluster::new(sim);
    let nq = queries.len();
    let k = cfg.k;
    let dim = data.dim();

    // Host-side handles shared read-only into the rank threads.
    let data_ref = data;
    let queries_ref = queries;
    let cfg_ref = cfg;

    let outcomes = cluster.run(move |rank| worker_or_master(rank, data_ref, queries_ref, cfg_ref));

    // Rank 0 carries the merged report.
    let mut results = Vec::new();
    let mut build_ns = 0.0;
    let mut query_ns = 0.0;
    let mut mean_fanout = 0.0;
    let mut per_worker_queries = vec![0u64; cfg.n_partitions];
    let mut total_ndist = 0u64;
    for o in outcomes {
        match o {
            Outcome::Master {
                results: r,
                build_ns: b,
                query_ns: q,
                mean_fanout: f,
            } => {
                results = r;
                build_ns = b;
                query_ns = q;
                mean_fanout = f;
            }
            Outcome::Worker {
                idx,
                queries,
                ndist,
                build_end_ns,
            } => {
                per_worker_queries[idx] = queries;
                total_ndist += ndist;
                build_ns = build_ns.max(build_end_ns);
            }
        }
    }
    assert_eq!(results.len(), nq);
    for r in &results {
        debug_assert!(r.len() <= k);
    }
    let _ = dim;
    DistKdReport {
        results,
        build_ns,
        query_ns,
        mean_fanout,
        per_worker_queries,
        total_ndist,
    }
}

enum Outcome {
    Master {
        results: Vec<Vec<Neighbor>>,
        build_ns: f64,
        query_ns: f64,
        mean_fanout: f64,
    },
    Worker {
        idx: usize,
        queries: u64,
        ndist: u64,
        build_end_ns: f64,
    },
}

fn worker_or_master(
    rank: &mut Rank,
    data: &VectorSet,
    queries: &VectorSet,
    cfg: &DistKdConfig,
) -> Outcome {
    let world = rank.world();
    let workers = world.subset(1, world.size());
    if rank.rank() == 0 {
        master(rank, queries, cfg)
    } else {
        worker(rank, &workers, data, cfg)
    }
}

// ---------------------------------------------------------------------
// construction
// ---------------------------------------------------------------------

/// Serialized subtree: preorder, leaf = [0, partition], inner =
/// [1, dim, split, left.., right..].
fn encode_subtree_leaf(partition: u32) -> BytesMut {
    let mut b = BytesMut::new();
    wire::put_u32(&mut b, 0);
    wire::put_u32(&mut b, partition);
    b
}

fn encode_subtree_inner(dim: u32, split: f32, left: &[u8], right: &[u8]) -> BytesMut {
    let mut b = BytesMut::new();
    wire::put_u32(&mut b, 1);
    wire::put_u32(&mut b, dim);
    wire::put_f32(&mut b, split);
    b.extend_from_slice(left);
    b.extend_from_slice(right);
    b
}

fn decode_subtree(buf: &mut Bytes, b: &mut KdSkeletonBuilder) -> u32 {
    let tag = wire::get_u32(buf);
    if tag == 0 {
        let p = wire::get_u32(buf);
        b.leaf(p)
    } else {
        let dim = wire::get_u32(buf);
        let split = wire::get_f32(buf);
        let left = decode_subtree(buf, b);
        let right = decode_subtree(buf, b);
        b.inner(dim, split, left, right)
    }
}

/// Rows on the wire: (global id, vector) pairs.
fn encode_rows(buf: &mut BytesMut, ids: &[u32], rows: &VectorSet, take: &[usize]) {
    wire::put_u32(buf, take.len() as u32);
    for &i in take {
        wire::put_u32(buf, ids[i]);
        for &x in rows.get(i) {
            wire::put_f32(buf, x);
        }
    }
}

fn decode_rows(buf: &mut Bytes, dim: usize, ids: &mut Vec<u32>, rows: &mut VectorSet) {
    let n = wire::get_u32(buf) as usize;
    let mut tmp = vec![0f32; dim];
    for _ in 0..n {
        ids.push(wire::get_u32(buf));
        for x in tmp.iter_mut() {
            *x = wire::get_f32(buf);
        }
        rows.push(&tmp);
    }
}

/// Distributed construction on the worker group. Returns this worker's
/// final partition (global ids + rows) and, on worker 0, the serialized
/// skeleton.
fn build_distributed(
    rank: &mut Rank,
    workers: &Comm,
    mut ids: Vec<u32>,
    mut rows: VectorSet,
) -> (Vec<u32>, VectorSet, Option<Bytes>) {
    let dim = rows.dim();
    let mut comm = workers.clone();
    // Stack of (dim, split, right_subtree_src_member) decisions made while
    // descending; used to assemble the skeleton bottom-up.
    let mut path: Vec<(u32, f32, usize)> = Vec::new();

    while comm.size() > 1 {
        let me = comm.my_index(rank);
        let size = comm.size();

        // 1. agree on the widest dimension: all-gather per-rank bounds
        rank.charge(rows.len() as f64 * dim as f64 * SCAN_NS);
        let (lo, hi) = rows
            .bounds()
            .unwrap_or((vec![f32::MAX; dim], vec![f32::MIN; dim]));
        let mut b = BytesMut::new();
        wire::put_f32_slice(&mut b, &lo);
        wire::put_f32_slice(&mut b, &hi);
        let all = comm.all_gather(rank, b.freeze());
        let mut glo = vec![f32::INFINITY; dim];
        let mut ghi = vec![f32::NEG_INFINITY; dim];
        for mut part in all {
            let l = wire::get_f32_vec(&mut part);
            let h = wire::get_f32_vec(&mut part);
            for d in 0..dim {
                glo[d] = glo[d].min(l[d]);
                ghi[d] = ghi[d].max(h[d]);
            }
        }
        let sdim = (0..dim)
            .max_by(|&a, &c| (ghi[a] - glo[a]).total_cmp(&(ghi[c] - glo[c])))
            .expect("dim > 0") as u32;

        // 2. agree on the split: weighted median of per-rank medians
        let mut coords: Vec<f32> = rows.iter().map(|r| r[sdim as usize]).collect();
        rank.charge(coords.len() as f64 * SCAN_NS * 4.0); // quickselect work
        let local_med = if coords.is_empty() {
            f32::NAN
        } else {
            fastann_data::select::median(&mut coords)
        };
        let mut b = BytesMut::new();
        wire::put_f32(&mut b, local_med);
        wire::put_u64(&mut b, rows.len() as u64);
        let pairs = comm.all_gather(rank, b.freeze());
        let mut wm: Vec<(f32, u64)> = pairs
            .into_iter()
            .map(|mut p| (wire::get_f32(&mut p), wire::get_u64(&mut p)))
            .filter(|&(m, w)| w > 0 && m.is_finite())
            .collect();
        let split = fastann_data::select::weighted_median(&mut wm);

        // 3. shuffle: left rows spread over members [0, half), right rows
        // over [half, size)
        let half = size / 2;
        rank.charge(rows.len() as f64 * SCAN_NS);
        let mut left_rows: Vec<usize> = Vec::new();
        let mut right_rows: Vec<usize> = Vec::new();
        for i in 0..rows.len() {
            if rows.get(i)[sdim as usize] <= split {
                left_rows.push(i);
            } else {
                right_rows.push(i);
            }
        }
        let mut payloads: Vec<Bytes> = Vec::with_capacity(size);
        for j in 0..size {
            let (pool, nparts, base) = if j < half {
                (&left_rows, half, 0usize)
            } else {
                (&right_rows, size - half, half)
            };
            // round-robin slice of the pool for member j
            let jd = j - base;
            let take: Vec<usize> = pool.iter().copied().skip(jd).step_by(nparts).collect();
            let mut b = BytesMut::new();
            encode_rows(&mut b, &ids, &rows, &take);
            payloads.push(b.freeze());
        }
        let received = comm.alltoallv(rank, payloads);
        let mut new_ids = Vec::new();
        let mut new_rows = VectorSet::new(dim);
        for mut part in received {
            decode_rows(&mut part, dim, &mut new_ids, &mut new_rows);
        }
        ids = new_ids;
        rows = new_rows;

        // 4. record the decision and recurse into my half
        path.push((sdim, split, half));
        comm = if me < half {
            comm.subset(0, half)
        } else {
            comm.subset(half, size)
        };
    }

    // Each worker now owns exactly one partition: its index in the worker
    // group. Assemble the skeleton bottom-up along the recorded path.
    let my_part = workers.my_index(rank) as u32;
    let mut subtree: BytesMut = encode_subtree_leaf(my_part);
    // Walk the path from deepest to shallowest. At each level, the right
    // subgroup's root sends its subtree to the left subgroup's root (which
    // is the level's root); group roots are identified by member index
    // within the *level's* group.
    // Reconstruct group bounds: replay the descent.
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(path.len() + 1);
    {
        let mut lo = 0usize;
        let mut hi = workers.size();
        bounds.push((lo, hi));
        let me = workers.my_index(rank);
        for &(_, _, half) in &path {
            let mid = lo + half;
            if me < mid {
                hi = mid;
            } else {
                lo = mid;
            }
            bounds.push((lo, hi));
        }
    }
    let me = workers.my_index(rank);
    for level in (0..path.len()).rev() {
        let (lo, hi) = bounds[level];
        let (dim, split, half) = path[level];
        let mid = lo + half;
        let _ = hi;
        if me == mid {
            // right root: ship subtree to the level root (member lo)
            rank.send_bytes(workers.ranks()[lo], TAG_SUBTREE, subtree.clone().freeze());
        }
        if me == lo {
            let right = rank
                .recv(Some(workers.ranks()[mid]), Some(TAG_SUBTREE))
                .payload;
            subtree = encode_subtree_inner(dim, split, &subtree, &right);
        }
        if me != lo {
            // non-roots carry no subtree upward
            if me == mid {
                subtree = encode_subtree_leaf(0); // placeholder, unused
            }
        }
    }

    let skel = if me == 0 {
        Some(subtree.freeze())
    } else {
        None
    };
    (ids, rows, skel)
}

// ---------------------------------------------------------------------
// master
// ---------------------------------------------------------------------

fn master(rank: &mut Rank, queries: &VectorSet, cfg: &DistKdConfig) -> Outcome {
    let nworkers = cfg.n_partitions;
    let k = cfg.k;

    // Receive the skeleton from worker 0 (rank 1).
    let mut skel_bytes = rank.recv(Some(1), Some(TAG_SKEL)).payload;
    let mut builder = KdSkeletonBuilder::new();
    let root = decode_subtree(&mut skel_bytes, &mut builder);
    let skel = builder.finish(root);
    let build_ns = rank.now();

    let query_start = rank.now();
    let nq = queries.len();
    let mut tops: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
    let mut pending = vec![0u32; nq];
    let mut homes = vec![0u32; nq];
    let mut fanout_total = 0u64;

    // Phase 1: route every query to its home partition.
    let mut p1_sent: Vec<Vec<u32>> = vec![Vec::new(); nworkers];
    for qi in 0..nq {
        let q = queries.get(qi);
        let (home, cmps) = skel.home_partition(q);
        rank.charge(cmps as f64 * SCAN_NS * 4.0);
        homes[qi] = home;
        let mut b = BytesMut::new();
        wire::put_u32(&mut b, qi as u32);
        wire::put_f32_slice(&mut b, q);
        rank.send_bytes(1 + home as usize, TAG_P1, b.freeze());
        p1_sent[home as usize].push(qi as u32);
        pending[qi] = 1;
        fanout_total += 1;
    }

    // Drain phase-1 replies per worker, in rank order. Workers answer in
    // arrival order and per-pair delivery is FIFO, so the master knows
    // exactly which reply comes next — an earlier version used a wildcard
    // `recv(None, None)` merge loop here, which folded arrivals into the
    // master clock in OS-scheduler order (the PR 1 bug class). A query's
    // phase-2 fan-out only depends on its *own* phase-1 reply, so the
    // per-source drain returns identical results.
    for (w, sent) in p1_sent.iter().enumerate() {
        for &expect_qi in sent {
            let msg = rank.recv(Some(1 + w), Some(TAG_R1));
            let mut payload = msg.payload;
            let qi = wire::get_u32(&mut payload) as usize;
            debug_assert_eq!(
                qi as u32, expect_qi,
                "phase-1 replies arrive in dispatch order"
            );
            let neigh = wire::get_neighbors(&mut payload);
            rank.charge(neigh.len() as f64 * SCAN_NS * 2.0);
            for (id, d) in neigh {
                tops[qi].push(Neighbor::new(id, d));
            }
            pending[qi] -= 1;
        }
    }

    // Phase 2: fan each query out to every other partition its query ball
    // overlaps, then drain the replies per worker in rank order.
    let mut p2_sent = vec![0u32; nworkers];
    for qi in 0..nq {
        let q = queries.get(qi);
        let radius = tops[qi].prune_radius();
        let radius = if radius.is_finite() { radius } else { f32::MAX };
        let fan = skel.partitions_in_ball(q, radius);
        rank.charge(fan.len() as f64 * SCAN_NS * 8.0);
        let seed: Vec<(u32, f32)> = tops[qi]
            .to_sorted()
            .iter()
            .map(|n| (n.id, n.dist))
            .collect();
        for p in fan {
            if p == homes[qi] {
                continue;
            }
            let mut b = BytesMut::new();
            wire::put_u32(&mut b, qi as u32);
            wire::put_f32_slice(&mut b, q);
            wire::put_neighbors(&mut b, &seed);
            rank.send_bytes(1 + p as usize, TAG_P2, b.freeze());
            p2_sent[p as usize] += 1;
            pending[qi] += 1;
            fanout_total += 1;
        }
    }
    for (w, &sent) in p2_sent.iter().enumerate() {
        for _ in 0..sent {
            let msg = rank.recv(Some(1 + w), Some(TAG_R2));
            let mut payload = msg.payload;
            let qi = wire::get_u32(&mut payload) as usize;
            let neigh = wire::get_neighbors(&mut payload);
            rank.charge(neigh.len() as f64 * SCAN_NS * 2.0);
            for (id, d) in neigh {
                tops[qi].push(Neighbor::new(id, d));
            }
            pending[qi] -= 1;
        }
    }
    debug_assert!(pending.iter().all(|&p| p == 0), "every query must settle");

    for w in 0..nworkers {
        rank.send_bytes(1 + w, TAG_END, Bytes::new());
    }
    let query_ns = rank.now() - query_start;

    Outcome::Master {
        results: tops.into_iter().map(TopK::into_sorted).collect(),
        build_ns,
        query_ns,
        mean_fanout: fanout_total as f64 / nq as f64,
    }
}

// ---------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------

fn worker(rank: &mut Rank, workers: &Comm, data: &VectorSet, cfg: &DistKdConfig) -> Outcome {
    let widx = workers.my_index(rank);
    let nworkers = workers.size();
    let dim = data.dim();

    // Initial equi-partition: contiguous slices, as in the paper's setup.
    let n = data.len();
    let base = n / nworkers;
    let extra = n % nworkers;
    let my_start: usize = (0..widx).map(|i| base + usize::from(i < extra)).sum();
    let my_len = base + usize::from(widx < extra);
    let ids: Vec<u32> = (my_start as u32..(my_start + my_len) as u32).collect();
    let mut rows = VectorSet::with_capacity(dim, my_len);
    for &id in &ids {
        rows.push(data.get(id as usize));
    }

    let (ids, rows, skel) = build_distributed(rank, workers, ids, rows);

    // Local index construction: charged as n·log(n/bucket)·dim scans.
    let levels = ((rows.len().max(2) as f64) / cfg.bucket_size as f64)
        .log2()
        .max(1.0);
    rank.charge(rows.len() as f64 * levels * dim as f64 * SCAN_NS);
    let tree = if rows.is_empty() {
        None
    } else {
        Some(KdTree::build(
            rows,
            KdTreeConfig {
                bucket_size: cfg.bucket_size,
            },
        ))
    };

    if let Some(skel) = skel {
        rank.send_bytes(0, TAG_SKEL, skel);
    }
    let build_end_ns = rank.now();

    let mut nq = 0u64;
    let mut ndist = 0u64;
    loop {
        let msg = rank.recv(Some(0), None);
        match msg.tag {
            TAG_END => break,
            TAG_P1 | TAG_P2 => {
                let mut payload = msg.payload;
                let qi = wire::get_u32(&mut payload);
                let q = wire::get_f32_vec(&mut payload);
                let seed: Vec<Neighbor> = if msg.tag == TAG_P2 {
                    wire::get_neighbors(&mut payload)
                        .into_iter()
                        .map(|(id, d)| Neighbor::new(id | SEED_BIT, d))
                        .collect()
                } else {
                    Vec::new()
                };
                let (res, stats) = match &tree {
                    Some(t) => {
                        let (mut r, s) = t.knn_with_seed(&q, cfg.k, &seed);
                        // strip seed entries (they are already at the master)
                        r.retain(|nb| nb.id & SEED_BIT == 0);
                        (r, s)
                    }
                    None => (Vec::new(), Default::default()),
                };
                rank.charge_dists(stats.ndist, dim);
                ndist += stats.ndist;
                nq += 1;
                // translate local ids -> global ids
                let pairs: Vec<(u32, f32)> = res
                    .iter()
                    .map(|nb| (ids[nb.id as usize], nb.dist))
                    .collect();
                let mut b = BytesMut::new();
                wire::put_u32(&mut b, qi);
                wire::put_neighbors(&mut b, &pairs);
                let rtag = if msg.tag == TAG_P1 { TAG_R1 } else { TAG_R2 };
                rank.send_bytes(0, rtag, b.freeze());
            }
            t => panic!("worker {widx}: unexpected tag {t}"),
        }
    }

    Outcome::Worker {
        idx: widx,
        queries: nq,
        ndist,
        build_end_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_data::{ground_truth, synth, Distance};

    #[test]
    fn distributed_results_are_exact() {
        let data = synth::sift_like(600, 8, 1);
        let queries = synth::queries_near(&data, 12, 0.05, 2);
        let cfg = DistKdConfig::new(4);
        let report = run(&data, &queries, &cfg);
        let gt = ground_truth::brute_force(&data, &queries, cfg.k, Distance::L2);
        for (qi, truth) in gt.iter().enumerate() {
            assert_eq!(
                report.results[qi], *truth,
                "query {qi}: distributed KD must be exact"
            );
        }
    }

    #[test]
    fn seed_ids_do_not_leak_into_results() {
        // seeds are foreign global ids; workers must return only their own
        // rows, yet merged results stay exact (previous test) — here we
        // check id validity
        let data = synth::sift_like(400, 6, 3);
        let queries = synth::queries_near(&data, 8, 0.05, 4);
        let report = run(&data, &queries, &DistKdConfig::new(4));
        for r in &report.results {
            for n in r {
                assert!((n.id as usize) < data.len());
            }
        }
    }

    #[test]
    fn report_accounting_sane() {
        let data = synth::sift_like(500, 8, 5);
        let queries = synth::queries_near(&data, 10, 0.05, 6);
        let report = run(&data, &queries, &DistKdConfig::new(4));
        assert!(report.build_ns > 0.0);
        assert!(report.query_ns > 0.0);
        assert!(report.mean_fanout >= 1.0);
        assert!(report.total_ndist > 0);
        let total_q: u64 = report.per_worker_queries.iter().sum();
        assert!(total_q as f64 >= report.mean_fanout * queries.len() as f64 - 1e-9);
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let data = synth::sift_like(100, 4, 7);
        let queries = synth::queries_near(&data, 5, 0.05, 8);
        let report = run(&data, &queries, &DistKdConfig::new(1));
        let gt = ground_truth::brute_force(&data, &queries, 10, Distance::L2);
        for (qi, truth) in gt.iter().enumerate() {
            assert_eq!(report.results[qi], *truth);
        }
        assert_eq!(report.mean_fanout, 1.0);
    }

    #[test]
    fn fanout_larger_in_high_dim() {
        let lo = {
            let data = synth::deep_like(800, 4, 9);
            let q = synth::queries_near(&data, 10, 0.02, 10);
            run(&data, &q, &DistKdConfig::new(8)).mean_fanout
        };
        let hi = {
            let data = synth::deep_like(800, 48, 9);
            let q = synth::queries_near(&data, 10, 0.02, 10);
            run(&data, &q, &DistKdConfig::new(8)).mean_fanout
        };
        assert!(hi > lo, "fan-out should grow with dimension: {lo} vs {hi}");
    }
}
