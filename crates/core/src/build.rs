//! Distributed index construction — paper Section IV-A, Algorithms 1–2.
//!
//! All worker nodes cooperatively build the VP tree: the whole group agrees
//! on a vantage point (per-rank candidates scored locally, refined by the
//! group master), computes the median radius µ as a weighted median of
//! per-rank medians (the distributed median-of-medians step), shuffles rows
//! with `Alltoallv` so the left half of the ranks holds the in-ball points,
//! and recurses until every *node* owns its share; a node-local phase then
//! continues the same splitting down to one partition per *core* (the
//! hybrid MPI-OpenMP structure of the paper). Finally each partition is
//! indexed with HNSW, one virtual core per partition.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use fastann_data::select::{median, weighted_median};
use fastann_data::VectorSet;
use fastann_mpisim::{wire, Cluster, Rank, ReduceOp, SimConfig, Topology, VThreadPool};
use fastann_vptree::{select_vantage, PartitionTreeBuilder};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rayon::prelude::*;

use crate::config::EngineConfig;
use crate::local::LocalIndex;
use crate::router::Router;
use crate::stats::BuildStats;

const TAG_SUBTREE: u64 = 101;

/// Vantage-point candidates sampled per rank (paper Algorithm 1 samples
/// 100 elements; we cap by the local row count).
const N_CANDIDATES: usize = 16;
/// Local rows sampled to score each candidate.
const N_SCORE_SAMPLE: usize = 256;

/// One data partition: the rows' global ids and the local index over them.
pub struct Partition {
    /// Partition id (== owning core index).
    pub id: u32,
    /// Global dataset row id of each local row.
    pub global_ids: Vec<u32>,
    /// Local search index (HNSW in the paper's configuration).
    pub index: LocalIndex,
}

impl Partition {
    /// Resident bytes (vectors + graph), for replication memory accounting.
    pub fn approx_bytes(&self) -> usize {
        self.index.approx_bytes() + self.global_ids.len() * 4
    }
}

/// A built distributed index: every partition's HNSW plus the master-side
/// VP-tree skeleton. Partitions are stored once and shared (`Arc`) into the
/// simulated worker nodes; replication is a dispatch/memory-accounting
/// concern, not a data-copy concern, on this substrate.
pub struct DistIndex {
    /// Engine configuration the index was built with.
    pub config: EngineConfig,
    /// All partitions, indexed by partition id.
    pub partitions: Arc<Vec<Partition>>,
    /// Master-side query router (VP-tree skeleton in the paper's design).
    pub router: Arc<Router>,
    /// Construction accounting.
    pub build_stats: BuildStats,
    /// Engine-level mutation epoch: bumped once per effective mutation
    /// batch (see [`crate::MutationRequest`]); result caches key on it.
    pub mutation_epoch: u64,
    /// Append-only record of applied mutations (in-memory only).
    pub mutation_log: crate::mutation::MutationLog,
}

impl DistIndex {
    /// Builds the distributed index over `data` on a simulated cluster of
    /// `config.n_nodes()` worker nodes.
    ///
    /// # Panics
    /// Panics if `data` has fewer than `2 × n_cores` points or the metric
    /// is not a true metric.
    pub fn build(data: &VectorSet, config: EngineConfig) -> DistIndex {
        assert!(
            config.metric.is_metric(),
            "VP partitioning requires a true metric"
        );
        assert!(
            data.len() >= config.n_cores * 2,
            "need at least {} points for {} partitions",
            config.n_cores * 2,
            config.n_cores
        );
        let n_nodes = config.n_nodes();
        let sim = SimConfig::new(n_nodes)
            .topology(Topology::one_rank_per_node())
            .net(config.net)
            .cost(config.cost);
        let cluster = Cluster::new(sim);
        let cfg_ref = &config;
        let outs = cluster.run(move |rank| build_node(rank, data, cfg_ref));

        // Assemble host-side index from per-node outputs.
        let mut partitions: Vec<Option<Partition>> = Vec::with_capacity(config.n_cores);
        partitions.resize_with(config.n_cores, || None);
        let mut skeleton: Option<Bytes> = None;
        let mut vptree_ns = 0f64;
        let mut total_ns = 0f64;
        let mut hnsw_ndist = 0u64;
        let mut shuffle_bytes = 0u64;
        for out in outs {
            for p in out.partitions {
                let slot = p.id as usize;
                assert!(partitions[slot].is_none(), "duplicate partition {slot}");
                partitions[slot] = Some(p);
            }
            if let Some(s) = out.skeleton {
                skeleton = Some(s);
            }
            vptree_ns = vptree_ns.max(out.vptree_end_ns);
            total_ns = total_ns.max(out.hnsw_end_ns);
            hnsw_ndist += out.hnsw_ndist;
            shuffle_bytes += out.shuffle_bytes;
        }
        let partitions: Vec<Partition> = partitions
            .into_iter()
            .map(|p| p.expect("missing partition"))
            .collect();
        let mut skel = skeleton.expect("node 0 produced the skeleton");
        let mut builder = PartitionTreeBuilder::new();
        let root = decode_vp_subtree(&mut skel, &mut builder);
        let tree = builder.finish(root, config.metric);
        assert_eq!(
            tree.n_partitions(),
            config.n_cores,
            "skeleton / partition mismatch"
        );

        let build_stats = BuildStats {
            total_ns,
            vptree_ns,
            hnsw_ns: total_ns - vptree_ns,
            shuffle_bytes,
            hnsw_ndist,
            partition_sizes: partitions.iter().map(|p| p.global_ids.len()).collect(),
        };
        DistIndex {
            config,
            partitions: Arc::new(partitions),
            router: Arc::new(Router::VpTree(tree)),
            build_stats,
            mutation_epoch: 0,
            mutation_log: crate::mutation::MutationLog::default(),
        }
    }

    /// Builds a **flat-pivot** index — the baseline partitioning of the
    /// paper's reference \[16\]: `n_cores` pivots sampled from the data,
    /// every point assigned to its closest pivot. Partition sizes are as
    /// imbalanced as the data's cluster structure makes them, and routing
    /// costs `O(P)` per query; compare with [`DistIndex::build`] via
    /// `repro baseline-pivot`.
    ///
    /// (Built host-side: the flat scheme's construction is a trivial
    /// scatter and is not part of any timed comparison.)
    pub fn build_flat_pivot(data: &VectorSet, config: EngineConfig) -> DistIndex {
        use rand::seq::SliceRandom;
        assert!(
            data.len() >= config.n_cores * 2,
            "need at least {} points for {} partitions",
            config.n_cores * 2,
            config.n_cores
        );
        let p = config.n_cores;
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xf1a7);
        let all: Vec<u32> = (0..data.len() as u32).collect();
        let pivot_ids: Vec<u32> = all.choose_multiple(&mut rng, p).copied().collect();
        let mut pivots = VectorSet::with_capacity(data.dim(), p);
        for &id in &pivot_ids {
            pivots.push(data.get(id as usize));
        }
        // closest-pivot assignment
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (i, row) in data.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (j, pv) in pivots.iter().enumerate() {
                let d = config.metric.eval(row, pv);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            members[best].push(i as u32);
        }
        let mut partitions = Vec::with_capacity(p);
        for (pid, gids) in members.into_iter().enumerate() {
            let rows = data.gather(&gids);
            let index = LocalIndex::build(
                config.local_index,
                rows,
                config.metric,
                config.hnsw,
                config.seed ^ ((pid as u64) << 8),
            );
            partitions.push(Partition {
                id: pid as u32,
                global_ids: gids,
                index,
            });
        }
        let build_stats = BuildStats {
            partition_sizes: partitions.iter().map(|q| q.global_ids.len()).collect(),
            ..BuildStats::default()
        };
        let metric = config.metric;
        DistIndex {
            config,
            partitions: Arc::new(partitions),
            router: Arc::new(Router::FlatPivot { pivots, metric }),
            build_stats,
            mutation_epoch: 0,
            mutation_log: crate::mutation::MutationLog::default(),
        }
    }

    /// Number of partitions (== cores).
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.partitions[0].index.dim()
    }

    /// The single *home* partition of `q`: a margin-0, fan-out-1 route
    /// through the skeleton. This is the partition whose queue a
    /// per-partition admission controller bills the request against —
    /// cheap (one skeleton descent), deterministic, and independent of
    /// the wider fan-out the dispatched search may use.
    pub fn home_partition(&self, q: &[f32]) -> u32 {
        let cfg = fastann_vptree::RouteConfig {
            margin_frac: 0.0,
            max_partitions: 1,
        };
        let (parts, _ndist) = self.router.route(q, &cfg);
        parts.first().copied().unwrap_or(0)
    }

    /// Bytes resident on each node for a uniform replication factor `r`
    /// (paper Section IV-C2's memory cost): a node holds every partition
    /// whose workgroup includes one of its cores.
    pub fn node_memory_bytes(&self, replication: usize) -> Vec<usize> {
        self.node_memory_bytes_for(&vec![replication; self.config.n_cores])
    }

    /// Bytes resident on each node under *per-partition* replica counts —
    /// the memory bound the serve-layer adaptive replication controller
    /// checks before raising a hot partition. `counts[part]` replicas of
    /// partition `part` live on cores `part..part+counts[part]-1 (mod P)`.
    pub fn node_memory_bytes_for(&self, counts: &[usize]) -> Vec<usize> {
        let t = self.config.cores_per_node;
        let p = self.config.n_cores;
        let mut per_node = vec![0usize; self.config.n_nodes()];
        for (part, &r) in counts.iter().enumerate().take(self.partitions.len()) {
            // partition `part` lives on cores part..part+r-1 (mod P)
            let mut nodes_hit = std::collections::HashSet::new();
            for j in 0..r.min(p) {
                nodes_hit.insert(((part + j) % p) / t);
            }
            // det:fold — each node occurs once; += into disjoint slots commutes
            for n in nodes_hit {
                per_node[n] += self.partitions[part].approx_bytes();
            }
        }
        per_node
    }
}

struct NodeBuildOut {
    partitions: Vec<Partition>,
    skeleton: Option<Bytes>,
    vptree_end_ns: f64,
    hnsw_end_ns: f64,
    hnsw_ndist: u64,
    shuffle_bytes: u64,
}

/// Encoded VP subtree: leaf = [0, pid]; inner = [1, mu, vp…, left…, right…].
fn encode_leaf(pid: u32) -> BytesMut {
    let mut b = BytesMut::new();
    wire::put_u32(&mut b, 0);
    wire::put_u32(&mut b, pid);
    b
}

fn encode_inner(mu: f32, vp: &[f32], left: &[u8], right: &[u8]) -> BytesMut {
    let mut b = BytesMut::new();
    wire::put_u32(&mut b, 1);
    wire::put_f32(&mut b, mu);
    wire::put_f32_slice(&mut b, vp);
    b.extend_from_slice(left);
    b.extend_from_slice(right);
    b
}

fn decode_vp_subtree(buf: &mut Bytes, b: &mut PartitionTreeBuilder) -> u32 {
    let tag = wire::get_u32(buf);
    if tag == 0 {
        let pid = wire::get_u32(buf);
        b.leaf(pid)
    } else {
        let mu = wire::get_f32(buf);
        let vp = wire::get_f32_vec(buf);
        let left = decode_vp_subtree(buf, b);
        let right = decode_vp_subtree(buf, b);
        b.inner(vp, mu, left, right)
    }
}

fn encode_rows(ids: &[u32], rows: &VectorSet, take: &[usize]) -> Bytes {
    let mut b = BytesMut::new();
    wire::put_u32(&mut b, take.len() as u32);
    for &i in take {
        wire::put_u32(&mut b, ids[i]);
        for &x in rows.get(i) {
            wire::put_f32(&mut b, x);
        }
    }
    b.freeze()
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

/// Per-node construction: distributed halving, local splitting, HNSW.
fn build_node(rank: &mut Rank, data: &VectorSet, cfg: &EngineConfig) -> NodeBuildOut {
    let dim = data.dim();
    let t_cores = cfg.cores_per_node;
    let n_nodes = cfg.n_nodes();
    let world = rank.world();
    let node_idx = rank.rank();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (0xb11d ^ node_idx as u64));

    // Initial equi-partition, contiguous slices (paper Section IV).
    let n = data.len();
    let base = n / n_nodes;
    let extra = n % n_nodes;
    let my_start: usize = (0..node_idx).map(|i| base + usize::from(i < extra)).sum();
    let my_len = base + usize::from(node_idx < extra);
    let mut ids: Vec<u32> = (my_start as u32..(my_start + my_len) as u32).collect();
    let mut rows = VectorSet::with_capacity(dim, my_len);
    for &id in &ids {
        rows.push(data.get(id as usize));
    }

    let mut comm = world.clone();
    let mut path: Vec<(Vec<f32>, f32, usize)> = Vec::new(); // (vp, mu, half)
    let bytes_before = rank.stats().bytes_sent;

    while comm.size() > 1 {
        let me = comm.my_index(rank);
        let size = comm.size();
        let half = size / 2;

        // --- Algorithm 1: distributed vantage point selection ---
        let vp = {
            // local candidate: best of N_CANDIDATES sampled rows, scored
            // against a local sample
            let local_best: Option<Vec<f32>> = if rows.is_empty() {
                None
            } else {
                let all: Vec<u32> = (0..rows.len() as u32).collect();
                let cands: Vec<u32> = all
                    .choose_multiple(&mut rng, N_CANDIDATES.min(rows.len()))
                    .copied()
                    .collect();
                let sample: Vec<u32> = all
                    .choose_multiple(&mut rng, N_SCORE_SAMPLE.min(rows.len()))
                    .copied()
                    .collect();
                let (best, ndist) = select_vantage(&rows, &cands, &rows, &sample, cfg.metric);
                rank.charge_dists(ndist, dim);
                Some(rows.get(cands[best] as usize).to_vec())
            };
            // gather candidates to the group master
            let mut b = BytesMut::new();
            match &local_best {
                Some(v) => wire::put_f32_slice(&mut b, v),
                None => wire::put_f32_slice(&mut b, &[]),
            }
            let gathered = comm.gather(rank, 0, b.freeze());
            // master refines: scores the received candidates against its
            // own local sample and broadcasts the winner
            let winner = if me == 0 {
                let mut cand_set = VectorSet::new(dim);
                for mut part in gathered.expect("root gathers") {
                    let v = wire::get_f32_vec(&mut part);
                    if v.len() == dim {
                        cand_set.push(&v);
                    }
                }
                assert!(!cand_set.is_empty(), "no vantage candidates survived");
                let cand_ids: Vec<u32> = (0..cand_set.len() as u32).collect();
                let score_set = if rows.is_empty() { &cand_set } else { &rows };
                let all: Vec<u32> = (0..score_set.len() as u32).collect();
                let sample: Vec<u32> = all
                    .choose_multiple(&mut rng, N_SCORE_SAMPLE.min(score_set.len()))
                    .copied()
                    .collect();
                let (best, ndist) =
                    select_vantage(&cand_set, &cand_ids, score_set, &sample, cfg.metric);
                rank.charge_dists(ndist, dim);
                let mut b = BytesMut::new();
                wire::put_f32_slice(&mut b, cand_set.get(best));
                Some(b.freeze())
            } else {
                None
            };
            let mut w = comm.bcast(rank, 0, winner);
            wire::get_f32_vec(&mut w)
        };

        // --- Algorithm 2 line 6: distributed median radius ---
        rank.charge_dists(rows.len() as u64, dim);
        let dists: Vec<f32> = rows.iter().map(|r| cfg.metric.eval(&vp, r)).collect();
        let local_med = if dists.is_empty() {
            f32::NAN
        } else {
            median(&mut dists.clone())
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
        let mu = weighted_median(&mut wm);

        // --- shuffle: in-ball rows to the left half, rest to the right ---
        let mut left_rows: Vec<usize> = Vec::new();
        let mut right_rows: Vec<usize> = Vec::new();
        for (i, &d) in dists.iter().enumerate() {
            if d <= mu {
                left_rows.push(i);
            } else {
                right_rows.push(i);
            }
        }
        let mut payloads: Vec<Bytes> = Vec::with_capacity(size);
        for j in 0..size {
            let (pool, nparts, basej) = if j < half {
                (&left_rows, half, 0usize)
            } else {
                (&right_rows, size - half, half)
            };
            let jd = j - basej;
            let take: Vec<usize> = pool.iter().copied().skip(jd).step_by(nparts).collect();
            payloads.push(encode_rows(&ids, &rows, &take));
        }
        let received = comm.alltoallv(rank, payloads);
        let mut new_ids = Vec::new();
        let mut new_rows = VectorSet::new(dim);
        for mut part in received {
            decode_rows(&mut part, dim, &mut new_ids, &mut new_rows);
        }
        ids = new_ids;
        rows = new_rows;

        path.push((vp, mu, half));
        comm = if me < half {
            comm.subset(0, half)
        } else {
            comm.subset(half, size)
        };
    }

    // --- node-local phase: split into one partition per core ---
    let first_pid = (node_idx * t_cores) as u32;
    let (local_subtree, local_parts) =
        split_local(rank, cfg, &mut rng, ids, rows, t_cores, first_pid);

    // --- skeleton assembly, bottom-up along the recorded path ---
    let mut subtree = local_subtree;
    let me = world.my_index(rank);
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(path.len() + 1);
    {
        let mut lo = 0usize;
        let mut hi = world.size();
        bounds.push((lo, hi));
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
    for level in (0..path.len()).rev() {
        let (lo, _hi) = bounds[level];
        let (ref vp, mu, half) = path[level];
        let mid = lo + half;
        if me == mid {
            rank.send_bytes(world.ranks()[lo], TAG_SUBTREE, subtree.clone().freeze());
        }
        if me == lo {
            let right = rank
                .recv(Some(world.ranks()[mid]), Some(TAG_SUBTREE))
                .payload;
            subtree = encode_inner(mu, vp, &subtree, &right);
        }
    }
    let skeleton = if me == 0 {
        Some(subtree.freeze())
    } else {
        None
    };
    let shuffle_bytes = rank.stats().bytes_sent - bytes_before;

    world.barrier(rank);
    let vptree_end_ns = world.allreduce_f64(rank, rank.now(), ReduceOp::Max);

    // --- local index per partition: T virtual cores build T partitions ---
    // With `cfg.threads > 1` the per-partition builds run concurrently on
    // the real thread pool. Each build is an independently seeded
    // *sequential* construction and the pool preserves partition order, so
    // the graphs, distance counts and (sequentially replayed) virtual-time
    // charges are bit-identical to the `threads = 1` path.
    let built: Vec<(u32, Vec<u32>, LocalIndex)> = rayon::with_num_threads(cfg.threads, || {
        local_parts
            .into_par_iter()
            .map(|(pid, gids, prows)| {
                let index = LocalIndex::build(
                    cfg.local_index,
                    prows,
                    cfg.metric,
                    cfg.hnsw,
                    cfg.seed ^ ((pid as u64) << 8),
                );
                (pid, gids, index)
            })
            .collect()
    });
    let mut pool = VThreadPool::new(t_cores, vptree_end_ns);
    let mut partitions = Vec::with_capacity(built.len());
    let mut hnsw_ndist = 0u64;
    for (pid, gids, index) in built {
        let nd = index.build_ndist();
        hnsw_ndist += nd;
        pool.assign(vptree_end_ns, cfg.cost.dists_ns(nd, dim));
        partitions.push(Partition {
            id: pid,
            global_ids: gids,
            index,
        });
    }
    let hnsw_end_local = pool.makespan().max(vptree_end_ns);
    let hnsw_end_ns = world.allreduce_f64(rank, hnsw_end_local, ReduceOp::Max);

    NodeBuildOut {
        partitions,
        skeleton,
        vptree_end_ns,
        hnsw_end_ns,
        hnsw_ndist,
        shuffle_bytes,
    }
}

/// Node-local recursive VP splitting into `parts` leaves (a power of two).
/// Returns the serialized subtree and the partitions
/// `(pid, global ids, rows)` in leaf order.
fn split_local(
    rank: &mut Rank,
    cfg: &EngineConfig,
    rng: &mut SmallRng,
    ids: Vec<u32>,
    rows: VectorSet,
    parts: usize,
    first_pid: u32,
) -> (BytesMut, Vec<(u32, Vec<u32>, VectorSet)>) {
    if parts == 1 {
        return (encode_leaf(first_pid), vec![(first_pid, ids, rows)]);
    }
    let dim = rows.dim();
    assert!(
        rows.len() >= 2,
        "cannot split {} rows into {} local partitions",
        rows.len(),
        parts
    );
    // vantage selection on local rows
    let all: Vec<u32> = (0..rows.len() as u32).collect();
    let cands: Vec<u32> = all
        .choose_multiple(rng, N_CANDIDATES.min(rows.len()))
        .copied()
        .collect();
    let sample: Vec<u32> = all
        .choose_multiple(rng, N_SCORE_SAMPLE.min(rows.len()))
        .copied()
        .collect();
    let (best, ndist) = select_vantage(&rows, &cands, &rows, &sample, cfg.metric);
    rank.charge_dists(ndist, dim);
    let vp = rows.get(cands[best] as usize).to_vec();

    rank.charge_dists(rows.len() as u64, dim);
    let dists: Vec<f32> = rows.iter().map(|r| cfg.metric.eval(&vp, r)).collect();
    let mu = median(&mut dists.clone());

    let mut li = Vec::new();
    let mut lr = VectorSet::new(dim);
    let mut ri = Vec::new();
    let mut rr = VectorSet::new(dim);
    for (i, &d) in dists.iter().enumerate() {
        if d <= mu {
            li.push(ids[i]);
            lr.push(rows.get(i));
        } else {
            ri.push(ids[i]);
            rr.push(rows.get(i));
        }
    }
    // tie guard: both sides must be splittable further
    while ri.len() < parts / 2 && !li.is_empty() {
        let id = li.pop().expect("non-empty");
        let row = lr.get(lr.len() - 1).to_vec();
        let mut nlr = VectorSet::new(dim);
        for i in 0..lr.len() - 1 {
            nlr.push(lr.get(i));
        }
        lr = nlr;
        ri.push(id);
        rr.push(&row);
    }
    while li.len() < parts / 2 && !ri.is_empty() {
        let id = ri.pop().expect("non-empty");
        let row = rr.get(rr.len() - 1).to_vec();
        let mut nrr = VectorSet::new(dim);
        for i in 0..rr.len() - 1 {
            nrr.push(rr.get(i));
        }
        rr = nrr;
        li.push(id);
        lr.push(&row);
    }

    let (lsub, mut lparts) = split_local(rank, cfg, rng, li, lr, parts / 2, first_pid);
    let (rsub, rparts) = split_local(
        rank,
        cfg,
        rng,
        ri,
        rr,
        parts / 2,
        first_pid + (parts / 2) as u32,
    );
    lparts.extend(rparts);
    (encode_inner(mu, &vp, &lsub, &rsub), lparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastann_data::synth;
    use fastann_vptree::RouteConfig;

    fn small_cfg(cores: usize, per_node: usize) -> EngineConfig {
        let mut c = EngineConfig::new(cores, per_node);
        c.hnsw = fastann_hnsw::HnswConfig::with_m(8).ef_construction(40);
        c
    }

    #[test]
    fn build_covers_all_points_once() {
        let data = synth::sift_like(2000, 16, 1);
        let index = DistIndex::build(&data, small_cfg(8, 2));
        assert_eq!(index.n_partitions(), 8);
        let mut all: Vec<u32> = index
            .partitions
            .iter()
            .flat_map(|p| p.global_ids.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..2000u32).collect::<Vec<_>>(),
            "every point in exactly one partition"
        );
    }

    #[test]
    fn partitions_roughly_balanced() {
        let data = synth::sift_like(4096, 16, 2);
        let index = DistIndex::build(&data, small_cfg(16, 4));
        let sizes = &index.build_stats.partition_sizes;
        let min = *sizes.iter().min().expect("at least one partition");
        let max = *sizes.iter().max().expect("at least one partition");
        assert!(min > 0);
        assert!(max <= min * 4, "partition imbalance too high: {min}..{max}");
    }

    #[test]
    fn skeleton_routes_points_to_owning_partition() {
        let data = synth::sift_like(2000, 16, 3);
        let index = DistIndex::build(&data, small_cfg(8, 2));
        // route each partition's first point with zero margin: it must land
        // in its own partition (the skeleton reflects the actual splits)
        let mut hits = 0;
        let mut total = 0;
        for p in index.partitions.iter() {
            let Some(&gid) = p.global_ids.first() else {
                continue;
            };
            let (route, _) = index.router.route(
                data.get(gid as usize),
                &RouteConfig {
                    margin_frac: 0.0,
                    max_partitions: 1,
                },
            );
            total += 1;
            if route[0] == p.id {
                hits += 1;
            }
        }
        // weighted-median approximation can misplace boundary points, but
        // the bulk must route home
        assert!(
            hits * 4 >= total * 3,
            "only {hits}/{total} partition exemplars route home"
        );
    }

    #[test]
    fn build_stats_populated() {
        let data = synth::sift_like(1500, 16, 4);
        let index = DistIndex::build(&data, small_cfg(4, 2));
        let s = &index.build_stats;
        assert!(s.total_ns > 0.0);
        assert!(s.vptree_ns > 0.0);
        assert!(s.hnsw_ns >= 0.0);
        assert!(s.total_ns >= s.vptree_ns);
        assert!(
            s.shuffle_bytes > 0,
            "distributed construction must move data"
        );
        assert!(s.hnsw_ndist > 0);
        assert_eq!(s.partition_sizes.len(), 4);
    }

    #[test]
    fn single_node_build_works() {
        // n_nodes == 1: no message passing at all, purely local splitting
        let data = synth::sift_like(800, 8, 5);
        let index = DistIndex::build(&data, small_cfg(4, 4));
        assert_eq!(index.n_partitions(), 4);
        assert_eq!(index.build_stats.shuffle_bytes, 0);
    }

    #[test]
    fn one_core_per_node_build_works() {
        let data = synth::sift_like(800, 8, 6);
        let index = DistIndex::build(&data, small_cfg(8, 1));
        assert_eq!(index.n_partitions(), 8);
    }

    #[test]
    fn replication_memory_grows() {
        let data = synth::sift_like(1000, 8, 7);
        let index = DistIndex::build(&data, small_cfg(8, 2));
        let m1: usize = index.node_memory_bytes(1).iter().sum();
        let m3: usize = index.node_memory_bytes(3).iter().sum();
        assert!(m3 > m1, "replication must cost memory: {m1} vs {m3}");
        // r=1 stores each partition exactly once
        let direct: usize = index.partitions.iter().map(|p| p.approx_bytes()).sum();
        assert_eq!(m1, direct);
    }

    #[test]
    fn flat_pivot_covers_dataset() {
        let data = synth::sift_like(2000, 16, 9);
        let index = DistIndex::build_flat_pivot(&data, small_cfg(8, 2));
        assert_eq!(index.n_partitions(), 8);
        let mut all: Vec<u32> = index
            .partitions
            .iter()
            .flat_map(|p| p.global_ids.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..2000u32).collect::<Vec<_>>());
    }

    #[test]
    fn flat_pivot_is_searchable_and_more_imbalanced() {
        use crate::config::SearchOptions;
        use crate::request::SearchRequest;
        let data = synth::sift_like(3000, 16, 10);
        let queries = synth::queries_near(&data, 20, 0.02, 11);
        let vp = DistIndex::build(&data, small_cfg(8, 2));
        let flat = DistIndex::build_flat_pivot(&data, small_cfg(8, 2));
        let r = SearchRequest::new(&flat, &queries)
            .opts(SearchOptions::new(10))
            .run();
        assert_eq!(r.results.len(), 20);
        assert!(r.results.iter().all(|v| !v.is_empty()));
        // closest-pivot assignment on clustered data is lumpier than
        // median splits (the complaint the paper raises against [16])
        let imb = |sizes: &[usize]| {
            let max = *sizes.iter().max().expect("at least one partition") as f64;
            let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
            max / mean
        };
        assert!(
            imb(&flat.build_stats.partition_sizes) > imb(&vp.build_stats.partition_sizes),
            "flat pivots should be more imbalanced: {:?} vs {:?}",
            flat.build_stats.partition_sizes,
            vp.build_stats.partition_sizes
        );
    }

    #[test]
    fn flat_pivot_routing_costs_p_evals() {
        let data = synth::sift_like(1000, 8, 12);
        let index = DistIndex::build_flat_pivot(&data, small_cfg(16, 2));
        let (_, ndist) = index.router.route(
            data.get(0),
            &fastann_vptree::RouteConfig {
                margin_frac: 0.2,
                max_partitions: 4,
            },
        );
        assert_eq!(ndist, 16, "flat routing must score every pivot");
    }

    #[test]
    #[should_panic]
    fn too_few_points_rejected() {
        let data = synth::sift_like(10, 8, 8);
        let _ = DistIndex::build(&data, small_cfg(16, 4));
    }
}
