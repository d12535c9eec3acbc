//! One function per table/figure of the paper.
//!
//! Each experiment returns structured rows (so tests can assert on shapes)
//! and has a `render_*` companion producing the printable table. The
//! `repro` binary glues them to a CLI.

use fastann_core::{
    search_batch_multi_owner, DistIndex, Distribution, EngineConfig, RoutingPolicy, SearchOptions,
    SearchRequest,
};
use fastann_data::{ground_truth, Distance};
use fastann_hnsw::HnswConfig;
use fastann_kdtree::dist as kd;
use fastann_vptree::RouteConfig;

use crate::datasets::{self, Workload};
use crate::fmt;
use crate::Scale;

/// k used throughout the evaluation (paper Section V: k = 10, L2).
pub const K: usize = 10;

/// HNSW beam width for local searches in the experiments.
const EF: usize = 64;

/// Threads (cores) per compute node; the paper's nodes have 24, we use 8 so
/// small core counts still form multiple nodes.
fn pick_t(cores: usize) -> usize {
    8usize.min(cores)
}

/// Experiment engine configuration for a workload at a core count.
fn engine_cfg(cores: usize, seed: u64) -> EngineConfig {
    // F(q)'s partition budget grows with the core count: partitions shrink
    // as P grows, so a fixed budget would silently cut the searched volume
    // (and recall) at scale.
    let cap = (cores / 16).max(4);
    EngineConfig::new(cores, pick_t(cores))
        .with_hnsw(HnswConfig::with_m(16).ef_construction(60).seed(seed))
        .with_route(RouteConfig {
            margin_frac: 0.2,
            max_partitions: cap,
        })
        .with_seed(seed)
}

fn search_opts() -> SearchOptions {
    SearchOptions::new(K).with_ef(EF)
}

/// Exposed for the `repro debug` subcommand.
pub fn debug_cfg(cores: usize) -> EngineConfig {
    engine_cfg(cores, 0xdb9)
}

/// Exposed for the `repro debug` subcommand.
pub fn debug_opts() -> SearchOptions {
    search_opts()
}

// ---------------------------------------------------------------------
// Table I — datasets
// ---------------------------------------------------------------------

/// Renders the dataset table: the paper's corpora and the scaled stand-ins
/// actually generated (see DESIGN.md for the substitution rationale).
pub fn table1(scale: Scale) -> String {
    let rows: Vec<(Workload, &str, &str, &str)> = vec![
        (datasets::sift(scale), "1 billion", "128", "10000"),
        (datasets::deep(scale), "1 billion", "96", "10000"),
        (datasets::gist(scale), "1 million", "960", "1000"),
        (datasets::syn_1m(scale), "1 million", "512", "10000"),
        (datasets::syn_10m(scale), "10 million", "256", "10000"),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(w, pn, pd, pq)| {
            vec![
                w.name.to_string(),
                pn.to_string(),
                pd.to_string(),
                pq.to_string(),
                format!("{}", w.data.len()),
                format!("{}", w.data.dim()),
                format!("{}", w.queries.len()),
            ]
        })
        .collect();
    fmt::table(
        &[
            "dataset",
            "paper points",
            "paper dim",
            "paper queries",
            "our points",
            "our dim",
            "our queries",
        ],
        &body,
    )
}

// ---------------------------------------------------------------------
// Figure 3 — strong scaling
// ---------------------------------------------------------------------

/// One measured point of a strong-scaling curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Total processing cores.
    pub cores: usize,
    /// Virtual total query time (ns).
    pub total_ns: f64,
    /// Speedup relative to the smallest core count in the series.
    pub speedup: f64,
    /// Mean recall@k against exact ground truth.
    pub recall: f64,
}

/// A scaling curve for one dataset.
#[derive(Clone, Debug)]
pub struct ScalingSeries {
    /// Dataset name.
    pub dataset: &'static str,
    /// Measured points, ascending core count.
    pub points: Vec<ScalingPoint>,
}

fn run_scaling(w: &Workload, grid: &[usize], seed: u64) -> ScalingSeries {
    let gt = ground_truth::brute_force(&w.data, &w.queries, K, Distance::L2);
    let mut points = Vec::with_capacity(grid.len());
    let mut base = None;
    for &cores in grid {
        let index = DistIndex::build(&w.data, engine_cfg(cores, seed));
        let report = SearchRequest::new(&index, &w.queries)
            .opts(search_opts())
            .run();
        let recall = ground_truth::recall_at_k(&report.results, &gt, K).mean;
        let b = *base.get_or_insert(report.total_ns);
        points.push(ScalingPoint {
            cores,
            total_ns: report.total_ns,
            speedup: b / report.total_ns,
            recall,
        });
    }
    ScalingSeries {
        dataset: w.name,
        points,
    }
}

/// Figure 3(a): strong scaling on the synthetic MDCGen datasets.
pub fn fig3a(scale: Scale) -> Vec<ScalingSeries> {
    let m = scale.cores_mult();
    let grid: Vec<usize> = [4, 8, 16, 32].iter().map(|c| c * m).collect();
    vec![
        run_scaling(&datasets::syn_1m(scale), &grid, 0xa1),
        run_scaling(&datasets::syn_10m(scale), &grid, 0xa2),
    ]
}

/// Figure 3(b): strong scaling on the billion-point-style datasets.
pub fn fig3b(scale: Scale) -> Vec<ScalingSeries> {
    let m = scale.cores_mult();
    let grid: Vec<usize> = [8, 16, 32, 64].iter().map(|c| c * m).collect();
    vec![
        run_scaling(&datasets::sift(scale), &grid, 0xb1),
        run_scaling(&datasets::deep(scale), &grid, 0xb2),
    ]
}

/// Renders scaling series as a table.
pub fn render_scaling(title: &str, series: &[ScalingSeries]) -> String {
    let mut out = format!("## {title}\n\n");
    for s in series {
        out.push_str(&format!("### {}\n", s.dataset));
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|p| {
                vec![
                    p.cores.to_string(),
                    fmt::ns(p.total_ns),
                    format!("{:.2}x", p.speedup),
                    format!("{:.3}", p.recall),
                ]
            })
            .collect();
        out.push_str(&fmt::table(
            &["cores", "query time", "speedup", "recall@10"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Table II — construction times
// ---------------------------------------------------------------------

/// One construction measurement.
#[derive(Clone, Copy, Debug)]
pub struct BuildRow {
    /// Total processing cores.
    pub cores: usize,
    /// Total virtual construction time (ns).
    pub total_ns: f64,
    /// HNSW-construction share of it (ns).
    pub hnsw_ns: f64,
}

/// Table II: VP-tree + HNSW construction times on the SIFT stand-in.
pub fn table2(scale: Scale) -> Vec<BuildRow> {
    let w = datasets::sift(scale);
    let m = scale.cores_mult();
    [8, 16, 32, 64]
        .iter()
        .map(|c| {
            let cores = c * m;
            let index = DistIndex::build(&w.data, engine_cfg(cores, 0xc0));
            BuildRow {
                cores,
                total_ns: index.build_stats.total_ns,
                hnsw_ns: index.build_stats.hnsw_ns,
            }
        })
        .collect()
}

/// Renders Table II.
pub fn render_table2(rows: &[BuildRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.cores.to_string(), fmt::ns(r.total_ns), fmt::ns(r.hnsw_ns)])
        .collect();
    fmt::table(&["cores", "total construction", "HNSW construction"], &body)
}

// ---------------------------------------------------------------------
// Figure 4 — replication / load balancing
// ---------------------------------------------------------------------

/// One replication-factor measurement.
#[derive(Clone, Debug)]
pub struct ReplicationRow {
    /// Replication factor `r`.
    pub r: usize,
    /// Total virtual query time (ns).
    pub total_ns: f64,
    /// Improvement over r = 1, percent.
    pub improvement_pct: f64,
    /// Distribution of per-core query counts (Fig. 4(b)).
    pub dist: Distribution,
    /// Maximum bytes resident on any node at this replication factor.
    pub max_node_bytes: usize,
}

/// Figure 4: effect of the replication factor on a skewed query batch.
/// Returns the rows and the per-core count for optimal balance (the red
/// dotted line of Fig. 4(b)).
pub fn fig4(scale: Scale) -> (Vec<ReplicationRow>, f64) {
    let w = datasets::sift(scale);
    let queries = datasets::sift_skewed_queries(&w.data, 400, 0xd0);
    let cores = 32 * scale.cores_mult();
    // Two cores per node here: workgroups of r <= 5 then span node
    // boundaries, the regime where replication moves work between nodes
    // (at the paper's 8192-core scale even consecutive-core workgroups
    // cross nodes regularly).
    let cfg = EngineConfig::new(cores, 2)
        .with_hnsw(HnswConfig::with_m(16).ef_construction(60).seed(0xd1))
        .with_route(RouteConfig {
            margin_frac: 0.2,
            max_partitions: 4,
        })
        .with_seed(0xd1);
    let index = DistIndex::build(&w.data, cfg);
    let mut rows = Vec::new();
    let mut base = None;
    let mut optimal = 0.0;
    for r in 1..=5 {
        let report = SearchRequest::new(&index, &queries)
            .opts(search_opts().with_routing(RoutingPolicy::Static(r)))
            .run();
        let b = *base.get_or_insert(report.total_ns);
        let dispatched: u64 = report.per_core_queries.iter().sum();
        optimal = dispatched as f64 / cores as f64;
        rows.push(ReplicationRow {
            r,
            total_ns: report.total_ns,
            improvement_pct: (b - report.total_ns) / b * 100.0,
            dist: report.query_distribution(),
            max_node_bytes: index.node_memory_bytes(r).into_iter().max().unwrap_or(0),
        });
    }
    (rows, optimal)
}

/// Renders Figure 4 as two tables (times and distributions).
pub fn render_fig4(rows: &[ReplicationRow], optimal: f64) -> String {
    let times: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.r.to_string(),
                fmt::ns(r.total_ns),
                format!("{:+.1}%", r.improvement_pct),
                format!("{:.1} MiB", r.max_node_bytes as f64 / (1 << 20) as f64),
            ]
        })
        .collect();
    let dists: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.r.to_string(),
                r.dist.min.to_string(),
                r.dist.q1.to_string(),
                r.dist.median.to_string(),
                r.dist.q3.to_string(),
                r.dist.max.to_string(),
                format!("{:.2}", r.dist.imbalance()),
            ]
        })
        .collect();
    format!(
        "### (a) total query time vs replication factor\n{}\n### (b) queries per core (optimal balance = {:.1}/core)\n{}",
        fmt::table(&["r", "query time", "vs r=1", "max node memory"], &times),
        optimal,
        fmt::table(&["r", "min", "q1", "median", "q3", "max", "max/mean"], &dists),
    )
}

// ---------------------------------------------------------------------
// Table III — comparison with the KD-tree baseline
// ---------------------------------------------------------------------

/// One dataset's head-to-head row.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Total cores for both systems.
    pub cores: usize,
    /// Our total virtual query time (ns).
    pub ours_ns: f64,
    /// Distributed-KD total virtual query time (ns).
    pub kd_ns: f64,
    /// `kd_ns / ours_ns`.
    pub speedup: f64,
    /// Our mean recall@k (KD is exact by construction).
    pub recall: f64,
    /// Mean partitions visited per query by the KD baseline.
    pub kd_fanout: f64,
}

fn compare_one(w: &Workload, cores: usize, seed: u64) -> CompareRow {
    let gt = ground_truth::brute_force(&w.data, &w.queries, K, Distance::L2);
    let index = DistIndex::build(&w.data, engine_cfg(cores, seed));
    let ours = SearchRequest::new(&index, &w.queries)
        .opts(search_opts())
        .run();
    let recall = ground_truth::recall_at_k(&ours.results, &gt, K).mean;

    let kd_cfg = kd::DistKdConfig::new(cores);
    let kd_report = kd::run(&w.data, &w.queries, &kd_cfg);
    CompareRow {
        dataset: w.name,
        cores,
        ours_ns: ours.total_ns,
        kd_ns: kd_report.query_ns,
        speedup: kd_report.query_ns / ours.total_ns,
        recall,
        kd_fanout: kd_report.mean_fanout,
    }
}

/// Table III: our method vs the distributed KD tree.
pub fn table3(scale: Scale) -> Vec<CompareRow> {
    let m = scale.cores_mult();
    vec![
        compare_one(&datasets::sift(scale), 32 * m, 0xe1),
        compare_one(&datasets::deep(scale), 32 * m, 0xe2),
        compare_one(&datasets::gist(scale), 16 * m, 0xe3),
    ]
}

/// Renders Table III.
pub fn render_table3(rows: &[CompareRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} ({} cores)", r.dataset, r.cores),
                format!("{} ({:.1}X faster)", fmt::ns(r.ours_ns), r.speedup),
                fmt::ns(r.kd_ns),
                format!("{:.2}", r.recall),
                format!("{:.1}", r.kd_fanout),
            ]
        })
        .collect();
    fmt::table(
        &[
            "dataset",
            "our method",
            "KD-tree [PANDA]",
            "our recall",
            "KD fan-out",
        ],
        &body,
    )
}

// ---------------------------------------------------------------------
// Figure 5 — search time breakdown
// ---------------------------------------------------------------------

/// Compute/communication/idle shares at one core count.
#[derive(Clone, Copy, Debug)]
pub struct BreakdownRow {
    /// Total processing cores.
    pub cores: usize,
    /// Fraction of aggregate core-time spent computing.
    pub compute: f64,
    /// Fraction spent on communication CPU + waits.
    pub comm: f64,
    /// Idle fraction.
    pub idle: f64,
}

/// Figure 5: search-time breakdown on the SIFT stand-in across core counts.
pub fn fig5(scale: Scale) -> Vec<BreakdownRow> {
    let w = datasets::sift(scale);
    let m = scale.cores_mult();
    [8, 16, 32, 64]
        .iter()
        .map(|c| {
            let cores = c * m;
            let index = DistIndex::build(&w.data, engine_cfg(cores, 0xf0));
            let report = SearchRequest::new(&index, &w.queries)
                .opts(search_opts())
                .run();
            let (compute, comm, idle) = report.breakdown();
            BreakdownRow {
                cores,
                compute,
                comm,
                idle,
            }
        })
        .collect()
}

/// Renders Figure 5.
pub fn render_fig5(rows: &[BreakdownRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                format!("{:.1}%", r.compute * 100.0),
                format!("{:.1}%", r.comm * 100.0),
                format!("{:.1}%", r.idle * 100.0),
            ]
        })
        .collect();
    fmt::table(
        &["cores", "computation", "communication", "idle/other"],
        &body,
    )
}

// ---------------------------------------------------------------------
// Figure 6 — recall vs query time (M sweep)
// ---------------------------------------------------------------------

/// One M-sweep measurement.
#[derive(Clone, Copy, Debug)]
pub struct RecallRow {
    /// HNSW `M` parameter.
    pub m: usize,
    /// Total virtual query time (ns).
    pub total_ns: f64,
    /// Mean recall@k.
    pub recall: f64,
    /// Index memory (all partitions, bytes).
    pub index_bytes: usize,
}

/// Figure 6: recall vs total query time for M ∈ {8, 16, 32, 64}.
pub fn fig6(scale: Scale) -> Vec<RecallRow> {
    let w = datasets::sift(scale);
    let gt = ground_truth::brute_force(&w.data, &w.queries, K, Distance::L2);
    // Few cores -> large partitions, and a tight beam (ef = 16): recall is
    // then limited by the local graph quality, i.e. by M — the regime the
    // paper's Figure 6 sweeps (its partitions hold ~1M points each).
    let cores = 8 * scale.cores_mult();
    [8usize, 16, 32, 64]
        .iter()
        .map(|&m| {
            let cfg = EngineConfig::new(cores, pick_t(cores))
                .with_hnsw(HnswConfig::with_m(m).ef_construction(60).seed(0x6f))
                .with_route(RouteConfig {
                    margin_frac: 0.3,
                    max_partitions: 6,
                })
                .with_seed(0x6f);
            let index = DistIndex::build(&w.data, cfg);
            let report = SearchRequest::new(&index, &w.queries)
                .opts(search_opts().with_ef(16))
                .run();
            RecallRow {
                m,
                total_ns: report.total_ns,
                recall: ground_truth::recall_at_k(&report.results, &gt, K).mean,
                index_bytes: index.partitions.iter().map(|p| p.approx_bytes()).sum(),
            }
        })
        .collect()
}

/// Renders Figure 6.
pub fn render_fig6(rows: &[RecallRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                fmt::ns(r.total_ns),
                format!("{:.3}", r.recall),
                format!("{:.1} MiB", r.index_bytes as f64 / (1 << 20) as f64),
            ]
        })
        .collect();
    fmt::table(&["M", "query time", "recall@10", "index memory"], &body)
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Master–worker vs multiple-owner at one core count.
#[derive(Clone, Copy, Debug)]
pub struct OwnerRow {
    /// Total processing cores.
    pub cores: usize,
    /// Master–worker total time (ns).
    pub master_worker_ns: f64,
    /// Multiple-owner total time (ns).
    pub multi_owner_ns: f64,
}

/// Ablation: the Section IV owner-strategy comparison. The paper compared
/// the multiple-owner variant against its *optimized* master–worker (i.e.
/// with replication-based load balancing) on real query sets, finding a
/// small multi-owner win at low core counts that "deteriorated as core
/// count increased" because the decentralised dispatch cannot replicate
/// partitions. We therefore run a skewed workload and give master–worker
/// its replication (r = 3).
pub fn ablation_owner(scale: Scale) -> Vec<OwnerRow> {
    let w = datasets::sift(scale);
    let queries = datasets::sift_skewed_queries(&w.data, 400, 0x0aa);
    let m = scale.cores_mult();
    [8, 32, 64]
        .iter()
        .map(|c| {
            let cores = c * m;
            // small nodes so replication can move work across nodes
            let cfg = EngineConfig::new(cores, 2.min(cores))
                .with_hnsw(HnswConfig::with_m(16).ef_construction(60).seed(0x0a))
                .with_route(RouteConfig {
                    margin_frac: 0.2,
                    max_partitions: 4,
                })
                .with_seed(0x0a);
            let index = DistIndex::build(&w.data, cfg);
            let mw = SearchRequest::new(&index, &queries)
                .opts(search_opts().with_routing(RoutingPolicy::Static(3.min(cores))))
                .run();
            let mo = search_batch_multi_owner(&index, &queries, &search_opts());
            OwnerRow {
                cores,
                master_worker_ns: mw.total_ns,
                multi_owner_ns: mo.total_ns,
            }
        })
        .collect()
}

/// Renders the owner ablation.
pub fn render_owner(rows: &[OwnerRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                fmt::ns(r.master_worker_ns),
                fmt::ns(r.multi_owner_ns),
                format!("{:.2}x", r.master_worker_ns / r.multi_owner_ns),
            ]
        })
        .collect();
    fmt::table(
        &[
            "cores",
            "master-worker",
            "multiple-owner",
            "owner/mw speedup",
        ],
        &body,
    )
}

/// One-sided vs two-sided result aggregation at one core count.
#[derive(Clone, Copy, Debug)]
pub struct OneSidedRow {
    /// Total processing cores.
    pub cores: usize,
    /// One-sided total time (ns).
    pub one_sided_ns: f64,
    /// Two-sided total time (ns).
    pub two_sided_ns: f64,
    /// Master receive/merge CPU, one-sided (ns).
    pub master_cpu_one: f64,
    /// Master receive/merge CPU, two-sided (ns).
    pub master_cpu_two: f64,
}

/// Ablation: the Section IV-C1 one-sided communication optimisation.
pub fn ablation_onesided(scale: Scale) -> Vec<OneSidedRow> {
    let w = datasets::sift(scale);
    let m = scale.cores_mult();
    [8, 32, 64]
        .iter()
        .map(|c| {
            let cores = c * m;
            let index = DistIndex::build(&w.data, engine_cfg(cores, 0x0b));
            let one = SearchRequest::new(&index, &w.queries)
                .opts(search_opts().with_one_sided(true))
                .run();
            let two = SearchRequest::new(&index, &w.queries)
                .opts(search_opts().with_one_sided(false))
                .run();
            OneSidedRow {
                cores,
                one_sided_ns: one.total_ns,
                two_sided_ns: two.total_ns,
                master_cpu_one: one.master_comm_cpu_ns,
                master_cpu_two: two.master_comm_cpu_ns,
            }
        })
        .collect()
}

/// The Section V-F comparison: an SQ8-compressed exhaustive index vs the
/// uncompressed distributed index at increasing effort — compression puts
/// a ceiling on recall; the paper's system reaches ~1.0 by raising M/ef.
#[derive(Clone, Copy, Debug)]
pub struct CompressionRow {
    /// System description.
    pub system: &'static str,
    /// Effort knob value (ef for HNSW; the SQ rows ignore it).
    pub effort: usize,
    /// Mean recall@k.
    pub recall: f64,
    /// Index bytes.
    pub bytes: usize,
}

/// Ablation: recall ceiling of a compressed index (paper Section V-F).
pub fn ablation_compression(scale: Scale) -> Vec<CompressionRow> {
    use fastann_data::quant::Sq8;
    // dense unit-norm data (DEEP-style) where quantization error matters
    let w = datasets::deep(scale);
    let gt = ground_truth::brute_force(&w.data, &w.queries, K, Distance::L2);
    let mut rows = Vec::new();

    let sq = Sq8::encode(&w.data);
    let approx: Vec<_> = (0..w.queries.len())
        .map(|i| sq.knn(w.queries.get(i), K, Distance::L2))
        .collect();
    let sq_recall = ground_truth::recall_at_k(&approx, &gt, K).mean;
    rows.push(CompressionRow {
        system: "SQ8 exhaustive (compressed)",
        effort: 0,
        recall: sq_recall,
        bytes: sq.code_bytes(),
    });

    let cores = 16 * scale.cores_mult();
    let cfg = engine_cfg(cores, 0x59f).with_route(RouteConfig {
        margin_frac: 0.35,
        max_partitions: 8,
    });
    let index = DistIndex::build(&w.data, cfg);
    let idx_bytes: usize = index.partitions.iter().map(|p| p.approx_bytes()).sum();
    for ef in [16usize, 64, 256] {
        let report = SearchRequest::new(&index, &w.queries)
            .opts(search_opts().with_ef(ef))
            .run();
        rows.push(CompressionRow {
            system: "ours (uncompressed)",
            effort: ef,
            recall: ground_truth::recall_at_k(&report.results, &gt, K).mean,
            bytes: idx_bytes,
        });
    }
    rows
}

/// Renders the compression ablation.
pub fn render_compression(rows: &[CompressionRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.system.to_string(),
                if r.effort == 0 {
                    "-".into()
                } else {
                    format!("ef={}", r.effort)
                },
                format!("{:.3}", r.recall),
                format!("{:.1} MiB", r.bytes as f64 / (1 << 20) as f64),
            ]
        })
        .collect();
    fmt::table(&["system", "effort", "recall@10", "index size"], &body)
}

/// VP-tree partitioning vs flat-pivot partitioning at one core count —
/// the comparison against the paper's reference \[16\] (Zhou et al.), which
/// the paper reports an 8X improvement over.
#[derive(Clone, Copy, Debug)]
pub struct PivotRow {
    /// Partitioning scheme name.
    pub scheme: &'static str,
    /// Total virtual query time (ns).
    pub total_ns: f64,
    /// Mean recall@k.
    pub recall: f64,
    /// Master routing compute (ns) — flat schemes pay O(P) per query.
    pub route_ns: f64,
    /// Partition-size imbalance (max/mean).
    pub size_imbalance: f64,
}

/// Baseline: hierarchical VP-tree partitioning vs flat randomized pivots.
pub fn baseline_pivot(scale: Scale) -> Vec<PivotRow> {
    let w = datasets::sift(scale);
    let gt = ground_truth::brute_force(&w.data, &w.queries, K, Distance::L2);
    let cores = 32 * scale.cores_mult();
    let mut rows = Vec::new();
    for (scheme, flat) in [("vp-tree (ours)", false), ("flat pivots [16]", true)] {
        let cfg = engine_cfg(cores, 0x9f01);
        let index = if flat {
            DistIndex::build_flat_pivot(&w.data, cfg)
        } else {
            DistIndex::build(&w.data, cfg)
        };
        let report = SearchRequest::new(&index, &w.queries)
            .opts(search_opts())
            .run();
        let sizes = &index.build_stats.partition_sizes;
        let max = *sizes.iter().max().unwrap_or(&1) as f64;
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
        rows.push(PivotRow {
            scheme,
            total_ns: report.total_ns,
            recall: ground_truth::recall_at_k(&report.results, &gt, K).mean,
            route_ns: report.master_route_ns,
            size_imbalance: max / mean,
        });
    }
    rows
}

/// Renders the pivot baseline.
pub fn render_pivot(rows: &[PivotRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.to_string(),
                fmt::ns(r.total_ns),
                format!("{:.3}", r.recall),
                fmt::ns(r.route_ns),
                format!("{:.2}", r.size_imbalance),
            ]
        })
        .collect();
    fmt::table(
        &[
            "partitioning",
            "query time",
            "recall@10",
            "master routing",
            "size max/mean",
        ],
        &body,
    )
}

/// HNSW vs exact local indexes at one core count (Section VI's
/// extensibility claim, and the motivation for using HNSW locally).
#[derive(Clone, Copy, Debug)]
pub struct LocalKindRow {
    /// Local index kind name.
    pub kind: &'static str,
    /// Total virtual query time (ns).
    pub total_ns: f64,
    /// Mean recall@k.
    pub recall: f64,
    /// Total distance evaluations across workers.
    pub ndist: u64,
}

/// Ablation: swap the per-partition index (HNSW vs exact VP tree vs brute
/// force) with identical partitioning and routing.
pub fn ablation_local(scale: Scale) -> Vec<LocalKindRow> {
    use fastann_core::LocalIndexKind;
    let w = datasets::sift(scale);
    let gt = ground_truth::brute_force(&w.data, &w.queries, K, Distance::L2);
    let cores = 32 * scale.cores_mult();
    [
        ("hnsw", LocalIndexKind::Hnsw),
        ("vp-exact", LocalIndexKind::VpExact),
        ("brute", LocalIndexKind::BruteForce),
    ]
    .iter()
    .map(|&(name, kind)| {
        let cfg = engine_cfg(cores, 0x10c).with_local_index(kind);
        let index = DistIndex::build(&w.data, cfg);
        let report = SearchRequest::new(&index, &w.queries)
            .opts(search_opts())
            .run();
        LocalKindRow {
            kind: name,
            total_ns: report.total_ns,
            recall: ground_truth::recall_at_k(&report.results, &gt, K).mean,
            ndist: report.total_ndist,
        }
    })
    .collect()
}

/// Renders the local-index ablation.
pub fn render_local(rows: &[LocalKindRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kind.to_string(),
                fmt::ns(r.total_ns),
                format!("{:.3}", r.recall),
                r.ndist.to_string(),
            ]
        })
        .collect();
    fmt::table(
        &["local index", "query time", "recall@10", "distance evals"],
        &body,
    )
}

/// Renders the one-sided ablation.
pub fn render_onesided(rows: &[OneSidedRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                fmt::ns(r.one_sided_ns),
                fmt::ns(r.two_sided_ns),
                fmt::ns(r.master_cpu_one),
                fmt::ns(r.master_cpu_two),
            ]
        })
        .collect();
    fmt::table(
        &[
            "cores",
            "one-sided total",
            "two-sided total",
            "master comm CPU (1s)",
            "master comm CPU (2s)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    // Shape smoke-tests on miniature workloads; the real runs happen in the
    // `repro` binary. These use the quick-scale datasets directly but with
    // the smallest grids to keep debug-mode CI time sane.
    use super::*;

    #[test]
    fn scaling_runner_produces_monotone_cores() {
        let w = Workload {
            name: "tiny",
            data: fastann_data::synth::sift_like(2000, 16, 1),
            queries: fastann_data::synth::queries_near(
                &fastann_data::synth::sift_like(2000, 16, 1),
                20,
                0.02,
                2,
            ),
            min_exact_recall: 0.0,
        };
        let s = run_scaling(&w, &[4, 8], 9);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].speedup, 1.0);
        assert!(s.points[1].cores > s.points[0].cores);
        assert!(s.points.iter().all(|p| p.recall > 0.3));
    }

    #[test]
    fn renderers_do_not_panic() {
        let rows = vec![BuildRow {
            cores: 8,
            total_ns: 1e9,
            hnsw_ns: 5e8,
        }];
        assert!(render_table2(&rows).contains("8"));
        let rows = vec![BreakdownRow {
            cores: 8,
            compute: 0.7,
            comm: 0.1,
            idle: 0.2,
        }];
        assert!(render_fig5(&rows).contains("70.0%"));
        let rows = vec![RecallRow {
            m: 16,
            total_ns: 1e6,
            recall: 0.9,
            index_bytes: 1 << 20,
        }];
        assert!(render_fig6(&rows).contains("0.900"));
    }

    #[test]
    fn table1_lists_all_datasets() {
        let t = table1(Scale::Quick);
        for name in ["ANN_SIFT1B", "DEEP1B", "ANN_GIST1M", "SYN_1M", "SYN_10M"] {
            assert!(t.contains(name), "missing {name}");
        }
    }
}
