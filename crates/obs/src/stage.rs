//! The unified stage vocabulary: one name per instrumented segment of
//! the query path, shared by the metrics registry and the
//! `fastann_mpisim` trace so a Gantt span and a histogram series always
//! agree on what a stage is called.

/// A named segment of the query path. [`Stage::label`] is the canonical
/// string: the engine passes it to `Trace::record` and the metrics layer
/// uses it as the `stage` label of the `fastann_span_ns` histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Master-side VP-tree routing and query dispatch.
    Route,
    /// Master-side wait for worker results (two-sided drain or one-sided
    /// window poll; also each chaos-path drain round).
    Collect,
    /// Worker-side local index search for one partition probe.
    LocalSearch,
    /// Chaos path: a probe declared lost after its timeout expired.
    Timeout,
    /// Chaos path: a timed-out probe re-sent to the same owner core.
    Retry,
    /// Chaos path: a timed-out probe re-sent to the next replica.
    Failover,
    /// Serving runtime: admission-control decision for one arrival.
    Admission,
    /// Serving runtime: result-cache lookup for one arrival.
    CacheLookup,
    /// Serving runtime: a micro-batch dispatched through the engine.
    BatchFlush,
}

/// [`Stage::label`] of every stage, in declaration order: the values of
/// the `stage` label.
pub(crate) const STAGE_LABELS: [&str; 9] = [
    "route+dispatch",
    "collect results",
    "hnsw search",
    "timeout",
    "retry",
    "failover",
    "admission",
    "cache lookup",
    "batch flush",
];

impl Stage {
    /// The canonical label, used both as a trace span label and as the
    /// `stage` label value on span metrics.
    pub fn label(self) -> &'static str {
        STAGE_LABELS[self as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            Stage::Route,
            Stage::Collect,
            Stage::LocalSearch,
            Stage::Timeout,
            Stage::Retry,
            Stage::Failover,
            Stage::Admission,
            Stage::CacheLookup,
            Stage::BatchFlush,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len(), "stage labels must not collide");
    }
}
