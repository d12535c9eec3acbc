//! Run reports: construction and query-phase accounting.

use fastann_data::Neighbor;

/// Construction-phase accounting (paper Table II's columns).
///
/// `PartialEq` compares every field — the threading determinism tests
/// assert that a `threads > 1` build produces *identical* stats.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BuildStats {
    /// Total virtual construction time: VP-tree phase + HNSW phase (ns).
    pub total_ns: f64,
    /// Virtual time of the distributed VP-tree phase, including shuffles
    /// and skeleton assembly (ns).
    pub vptree_ns: f64,
    /// Virtual time of the per-partition HNSW construction phase — the max
    /// over nodes of their thread-pool makespan (ns).
    pub hnsw_ns: f64,
    /// Total bytes moved by the `Alltoallv` shuffles.
    pub shuffle_bytes: u64,
    /// Total distance evaluations spent building the HNSW indexes.
    pub hnsw_ndist: u64,
    /// Points per partition (diagnoses partitioning balance).
    pub partition_sizes: Vec<usize>,
}

/// Five-number-ish summary of a per-core distribution (used for the
/// replication study, paper Figure 4(b)).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Distribution {
    /// Smallest value.
    pub min: u64,
    /// Lower quartile.
    pub q1: u64,
    /// Median.
    pub median: u64,
    /// Upper quartile.
    pub q3: u64,
    /// Largest value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Distribution {
    /// Summarises `values` (need not be sorted; empty input yields zeros).
    pub fn of(values: &[u64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut v = values.to_vec();
        v.sort_unstable();
        let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
        Self {
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: *v.last().expect("non-empty"),
            mean: v.iter().sum::<u64>() as f64 / v.len() as f64,
        }
    }

    /// Max/mean ratio — 1.0 is perfect balance.
    ///
    /// A `mean` of zero can only arise from an all-zero (or empty)
    /// distribution, because the summarised values are unsigned; every
    /// core then carries the same load, so the ratio is *defined* as 1.0
    /// (perfect balance) rather than left to a 0/0. In particular an idle
    /// cluster and a uniformly loaded cluster report the same imbalance.
    pub fn imbalance(&self) -> f64 {
        if self.mean == 0.0 {
            1.0
        } else {
            self.max as f64 / self.mean
        }
    }
}

/// Query-phase report (drives Figures 3, 4, 5 and Tables III).
///
/// `PartialEq` compares every field — chaos tests assert that two runs
/// under the same fault seed produce *identical* reports.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReport {
    /// k-NN per query, global dataset row ids, ascending distance.
    pub results: Vec<Vec<Neighbor>>,
    /// Total virtual query time: master dispatch start → all results
    /// merged (ns). This is the paper's "total query time".
    pub total_ns: f64,
    /// Master time spent routing queries through the VP skeleton (ns).
    pub master_route_ns: f64,
    /// Master CPU spent on sends/receives/RMA (ns).
    pub master_comm_cpu_ns: f64,
    /// Master time blocked waiting for worker traffic (ns).
    pub master_wait_ns: f64,
    /// Queries dispatched to each processing core (paper Fig. 4(b)).
    pub per_core_queries: Vec<u64>,
    /// Probes dispatched per *partition* (retries included) — the hotness
    /// signal the serve-layer replication controller reads. Unlike
    /// `per_core_queries`, this is invariant under replica placement.
    pub per_partition_probes: Vec<u64>,
    /// Mean partitions searched per query (`|F(q)|`).
    pub mean_fanout: f64,
    /// Per-node virtual busy time of the search thread pools (ns).
    pub node_busy_ns: Vec<f64>,
    /// Per-node communication CPU (send/recv/RMA overheads), ns.
    pub node_comm_cpu_ns: Vec<f64>,
    /// Total distance evaluations across all local searches.
    pub total_ndist: u64,
    /// Total result bytes deposited/returned to the master.
    pub result_bytes: u64,
    /// Per-query degraded flag: `true` when at least one routed partition
    /// never answered (within the retry budget) and the result is a
    /// partial top-k. Always all-`false` without a (non-vacuous) fault
    /// plan.
    pub degraded: Vec<bool>,
    /// Per-query count of routed partitions that never answered.
    pub missing_partitions: Vec<u32>,
    /// Partition probes re-dispatched after a virtual-time timeout
    /// (under a fault plan only).
    pub retries: u64,
    /// Retries that failed over to a *different* replica core (a subset of
    /// `retries`; zero when `replication == 1`).
    pub failovers: u64,
}

impl QueryReport {
    /// Queries per second of virtual time (the paper's throughput metric).
    pub fn throughput_qps(&self) -> f64 {
        if self.total_ns <= 0.0 {
            0.0
        } else {
            self.results.len() as f64 / (self.total_ns / 1e9)
        }
    }

    /// Distribution of queries over cores (Fig. 4(b)).
    pub fn query_distribution(&self) -> Distribution {
        Distribution::of(&self.per_core_queries)
    }

    /// `true` when any query returned a partial (degraded) result.
    pub fn any_degraded(&self) -> bool {
        self.degraded.iter().any(|&d| d)
    }

    /// Number of degraded queries.
    pub fn degraded_count(&self) -> usize {
        self.degraded.iter().filter(|&&d| d).count()
    }

    /// Fraction of the run's aggregate core-time spent computing, vs
    /// communication CPU, vs idle — the paper's Figure 5 breakdown. The
    /// denominator is `(P cores + 1 master) × total time`.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let span = self.total_ns.max(1.0);
        let n_cores = self.per_core_queries.len().max(1) as f64;
        let capacity = span * n_cores + span; // worker cores + master
        let compute: f64 = self.node_busy_ns.iter().sum::<f64>() + self.master_route_ns;
        let comm: f64 = self.node_comm_cpu_ns.iter().sum::<f64>()
            + self.master_comm_cpu_ns
            + self.master_wait_ns;
        let compute_frac = (compute / capacity).min(1.0);
        let comm_frac = (comm / capacity).min(1.0 - compute_frac);
        let idle = (1.0 - compute_frac - comm_frac).max(0.0);
        (compute_frac, comm_frac, idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_of_constant_is_tight() {
        let d = Distribution::of(&[5, 5, 5, 5]);
        assert_eq!(d.min, 5);
        assert_eq!(d.max, 5);
        assert_eq!(d.median, 5);
        assert_eq!(d.mean, 5.0);
        assert_eq!(d.imbalance(), 1.0);
    }

    #[test]
    fn distribution_quartiles_ordered() {
        let vals: Vec<u64> = (0..101).collect();
        let d = Distribution::of(&vals);
        assert_eq!(d.min, 0);
        assert_eq!(d.median, 50);
        assert_eq!(d.max, 100);
        assert!(d.q1 <= d.median && d.median <= d.q3);
    }

    #[test]
    fn distribution_empty_is_zero() {
        let d = Distribution::of(&[]);
        assert_eq!(d, Distribution::default());
    }

    #[test]
    fn imbalance_detects_skew() {
        let balanced = Distribution::of(&[10, 10, 10, 10]);
        let skewed = Distribution::of(&[0, 0, 0, 40]);
        assert!(skewed.imbalance() > balanced.imbalance());
    }

    #[test]
    fn imbalance_of_zero_mean_is_perfect_balance() {
        // all-zero and empty distributions are uniform by definition;
        // the documented convention pins them to exactly 1.0, the same
        // value a uniformly busy cluster reports
        assert_eq!(Distribution::of(&[0, 0, 0]).imbalance(), 1.0);
        assert_eq!(Distribution::of(&[]).imbalance(), 1.0);
        assert_eq!(Distribution::of(&[7, 7]).imbalance(), 1.0);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let r = QueryReport {
            results: vec![vec![]; 10],
            total_ns: 1000.0,
            master_route_ns: 100.0,
            master_comm_cpu_ns: 50.0,
            master_wait_ns: 200.0,
            per_core_queries: vec![5, 5],
            per_partition_probes: vec![5, 5],
            mean_fanout: 1.0,
            node_busy_ns: vec![800.0, 400.0],
            node_comm_cpu_ns: vec![50.0, 20.0],
            total_ndist: 100,
            result_bytes: 10,
            degraded: vec![false; 10],
            missing_partitions: vec![0; 10],
            retries: 0,
            failovers: 0,
        };
        let (c, m, i) = r.breakdown();
        assert!((c + m + i - 1.0).abs() < 1e-9);
        assert!(c > 0.0 && m > 0.0 && i >= 0.0);
    }

    #[test]
    fn throughput_computed() {
        let r = QueryReport {
            results: vec![vec![]; 100],
            total_ns: 1e9, // one virtual second
            master_route_ns: 0.0,
            master_comm_cpu_ns: 0.0,
            master_wait_ns: 0.0,
            per_core_queries: vec![],
            per_partition_probes: vec![],
            mean_fanout: 1.0,
            node_busy_ns: vec![],
            node_comm_cpu_ns: vec![],
            total_ndist: 0,
            result_bytes: 0,
            degraded: vec![false; 100],
            missing_partitions: vec![0; 100],
            retries: 0,
            failovers: 0,
        };
        assert_eq!(r.throughput_qps(), 100.0);
        assert!(!r.any_degraded());
        assert_eq!(r.degraded_count(), 0);
    }
}
