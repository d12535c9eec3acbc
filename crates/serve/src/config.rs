//! Serving-runtime configuration: batching, admission, cache and
//! dispatch policies.

use fastann_core::SearchOptions;
use fastann_mpisim::FaultPlan;

use crate::controller::ControllerPolicy;

/// Micro-batcher policy: requests coalesce into one engine batch until
/// either bound trips.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Flush as soon as this many requests have coalesced.
    pub max_batch: usize,
    /// Flush this long (virtual ns) after the oldest request in the
    /// forming batch arrived, even if the batch is not full — the latency
    /// bound a single stray request pays for batching.
    pub max_wait_ns: f64,
}

impl Default for BatchPolicy {
    /// 32 requests or 200 µs, whichever comes first.
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait_ns: 200_000.0,
        }
    }
}

/// Admission-control policy: per-tenant rate limits plus a global bound on
/// outstanding work.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Sustained per-tenant rate (queries per virtual second);
    /// `f64::INFINITY` disables rate limiting.
    pub tenant_rate_qps: f64,
    /// Per-tenant burst allowance (token-bucket capacity).
    pub tenant_burst: f64,
    /// Upper bound on outstanding admitted requests (forming batch plus
    /// dispatched-but-unfinished); `usize::MAX` disables the bound.
    pub max_queue_depth: usize,
    /// Upper bound on outstanding admitted requests whose *home partition*
    /// is the same — overload on one hot partition sheds on that
    /// partition's queue instead of globally; `usize::MAX` disables the
    /// bound.
    pub partition_queue_depth: usize,
}

impl Default for AdmissionPolicy {
    /// Everything open: no rate limit, no depth bound. Serving deployments
    /// tighten these; the defaults keep unit workloads unthrottled.
    fn default() -> Self {
        Self {
            tenant_rate_qps: f64::INFINITY,
            tenant_burst: 64.0,
            max_queue_depth: usize::MAX,
            partition_queue_depth: usize::MAX,
        }
    }
}

/// Virtual latency of a cache-served answer (key encode + probe +
/// copy-out; no engine dispatch).
pub const CACHE_HIT_NS: f64 = 2_000.0;

/// Initial estimate of one batch's engine service time, used for
/// deadline-feasibility checks before the first batch completes; the
/// runtime then tracks an exponential moving average of observed service
/// times.
pub const SERVICE_ESTIMATE_NS: f64 = 2e6;

/// Closed-loop clients back off this long (virtual ns) after a rejection
/// before issuing their next request.
pub const RETRY_BACKOFF_NS: f64 = 200_000.0;

/// Full configuration of a [`crate::ServeRuntime`].
///
/// `#[non_exhaustive]`: construct with [`ServeConfig::new`] (or
/// `default()`) and refine with the `with_*` setters — new knobs may be
/// added without breaking callers.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Micro-batcher bounds.
    pub batch: BatchPolicy,
    /// Admission-control bounds.
    pub admission: AdmissionPolicy,
    /// Result-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
    /// Engine search options each dispatched batch uses. `k` and `ef` are
    /// raised per batch to cover the largest `k` in the batch; the
    /// per-probe `timeout_ns` is clamped to the tightest deadline headroom
    /// ([`SearchOptions::cap_timeout_ns`]).
    pub search: SearchOptions,
    /// Optional fault plan every batch dispatches under: a non-vacuous
    /// plan adds the engine's timeouts, retries and replica failover.
    pub fault: Option<FaultPlan>,
    /// Knobs of the adaptive replication controller; only consulted when
    /// [`ServeConfig::search`] carries an adaptive
    /// [`fastann_core::RoutingPolicy`].
    pub controller: ControllerPolicy,
}

impl Default for ServeConfig {
    /// Default serving stack over default [`SearchOptions`] (`k = 10`).
    fn default() -> Self {
        Self::new(SearchOptions::default())
    }
}

impl ServeConfig {
    /// Defaults around the given engine search options: 32/200 µs
    /// batching, open admission, a 1024-entry cache, no faults.
    pub fn new(search: SearchOptions) -> Self {
        Self {
            batch: BatchPolicy::default(),
            admission: AdmissionPolicy::default(),
            cache_capacity: 1024,
            search,
            fault: None,
            controller: ControllerPolicy::default(),
        }
    }

    /// Sets the micro-batcher policy (builder style).
    pub fn with_batch(mut self, max_batch: usize, max_wait_ns: f64) -> Self {
        assert!(max_batch >= 1, "batch size must be positive");
        assert!(max_wait_ns >= 0.0, "batch wait must be non-negative");
        self.batch = BatchPolicy {
            max_batch,
            max_wait_ns,
        };
        self
    }

    /// Sets the admission policy (builder style).
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        assert!(policy.tenant_rate_qps > 0.0, "tenant rate must be positive");
        assert!(policy.tenant_burst >= 1.0, "burst must allow one request");
        self.admission = policy;
        self
    }

    /// Sets the result-cache capacity; `0` disables (builder style).
    pub fn with_cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Sets the fault plan for dispatched batches (builder style).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the adaptive replication controller's knobs (builder style).
    pub fn with_controller(mut self, policy: ControllerPolicy) -> Self {
        self.controller = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_open() {
        let c = ServeConfig::new(SearchOptions::new(10));
        assert_eq!(c.batch.max_batch, 32);
        assert!(c.admission.tenant_rate_qps.is_infinite());
        assert_eq!(c.admission.max_queue_depth, usize::MAX);
        assert!(c.fault.is_none());
        assert!(c.cache_capacity > 0);
    }

    #[test]
    #[should_panic]
    fn zero_batch_rejected() {
        let _ = ServeConfig::new(SearchOptions::new(10)).with_batch(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_burst_rejected() {
        let _ = ServeConfig::new(SearchOptions::new(10)).with_admission(AdmissionPolicy {
            tenant_rate_qps: 100.0,
            tenant_burst: 0.0,
            max_queue_depth: 8,
            partition_queue_depth: usize::MAX,
        });
    }
}
