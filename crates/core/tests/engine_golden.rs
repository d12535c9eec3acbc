//! Bit-identity goldens for the master–worker query engine.
//!
//! Every case runs one 25-query batch through [`SearchRequest`] with a
//! [`Trace`] and a [`Metrics`] registry attached and records three FNV-1a
//! fingerprints:
//!
//! 1. the `Debug` rendering of the [`QueryReport`];
//! 2. the Prometheus rendering without its `fastann_span_ns` lines;
//! 3. the sorted trace spans plus the full Prometheus rendering.
//!
//! The grid covers two node layouts (8 cores at 1 and 2 cores per node),
//! one-sided and two-sided collection, and three routing shapes; every
//! case runs at one and at four engine threads, which must fingerprint
//! identically. Cases are folded into one fingerprint triple per fault
//! plan. The constants pin today's reports, metrics and spans: a refactor
//! of the engine loop must leave every one of them unchanged.
//!
//! The same grid also runs through [`SearchSession`]s, three times back
//! to back per session, and every repetition must fold to the same
//! constants: a batch reports the same whether it runs alone or after
//! others on a long-lived cluster.

use fastann_core::{
    DistIndex, EngineConfig, QueryReport, ReplicaMap, RoutingPolicy, SearchOptions, SearchRequest,
    SearchSession, TAG_QUERY, TAG_RESULT,
};
use fastann_data::{synth, VectorSet};
use fastann_hnsw::HnswConfig;
use fastann_mpisim::{FaultPlan, SpanKind, Trace};
use fastann_obs::Metrics;

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
}

/// Report, non-span metrics, spans-plus-metrics.
type Triple = [u64; 3];

/// The fault plans of the grid; `None` is the fault-free baseline.
fn plans() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("fault-free", None),
        (
            "mixed",
            Some(
                FaultPlan::new(0xC0FFEE)
                    .drop_msgs(None, None, Some(TAG_RESULT), 0.25)
                    .drop_msgs(Some(0), None, Some(TAG_QUERY), 0.10)
                    .delay_msgs(None, None, None, 0.20, 2e6)
                    .duplicate_msgs(None, None, Some(TAG_RESULT), 0.15)
                    .stall(2, 1e5, 3e6),
            ),
        ),
        ("crash-at-start", Some(FaultPlan::new(7).crash(3, 0.0))),
        ("crash-mid-batch", Some(FaultPlan::new(11).crash(1, 2e4))),
        (
            "drop-results",
            Some(FaultPlan::new(99).drop_msgs(Some(2), Some(0), Some(TAG_RESULT), 0.5)),
        ),
        (
            "delay-results",
            Some(FaultPlan::new(5).delay_msgs(None, Some(0), Some(TAG_RESULT), 1.0, 8e6)),
        ),
        (
            "never-fires",
            Some(FaultPlan::new(3).drop_msgs(None, None, Some(9999), 1.0)),
        ),
    ]
}

/// Pinned fingerprints, one triple per plan in [`plans`] order.
const GOLDEN: [(&str, Triple); 7] = [
    (
        "fault-free",
        [0x39c54514a95cbb37, 0x000573842a3c7c44, 0x84915eac86203c56],
    ),
    (
        "mixed",
        [0x7f357c326848775d, 0x859b4309f8baa129, 0xc959c5c8ff90f945],
    ),
    (
        "crash-at-start",
        [0xa2848374305b0ba5, 0x1524c129714102d1, 0x85e0836950dd7609],
    ),
    (
        "crash-mid-batch",
        [0x6594ae0c43deaa09, 0x89e12fbb8331ce79, 0x81169cd375397215],
    ),
    (
        "drop-results",
        [0x290465adb0b8c905, 0x49b94c3c8c6ea221, 0xb127ac506b5c78e9],
    ),
    (
        "delay-results",
        [0x36a21c049b29b931, 0x443ab7975a2dfb85, 0xd26acaa15c0dc3f5],
    ),
    (
        "never-fires",
        [0x05c35e778141894d, 0x443ab7975a2dfb85, 0x74ac6abc7bcceb01],
    ),
];

fn build(data: &VectorSet, cores_per_node: usize, threads: usize) -> DistIndex {
    let cfg = EngineConfig::new(8, cores_per_node)
        .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(41))
        .with_seed(41)
        .with_threads(threads);
    DistIndex::build(data, cfg)
}

/// Spans in a scheduling-independent order.
fn span_bytes(t: &Trace) -> Vec<u8> {
    let kind_ord = |k: SpanKind| match k {
        SpanKind::Compute => 0u8,
        SpanKind::Wait => 1,
        SpanKind::Comm => 2,
        SpanKind::Recovery => 3,
    };
    let mut v: Vec<_> = t
        .spans()
        .iter()
        .map(|s| {
            (
                s.rank,
                s.start.to_bits(),
                s.end.to_bits(),
                kind_ord(s.kind),
                s.label,
            )
        })
        .collect();
    v.sort_unstable();
    format!("{v:?}").into_bytes()
}

/// Runs one case alone and fingerprints it.
fn run_case(
    index: &DistIndex,
    queries: &VectorSet,
    opts: SearchOptions,
    replicas: Option<&ReplicaMap>,
    plan: Option<&FaultPlan>,
) -> (QueryReport, Triple) {
    run_case_with(
        |r: SearchRequest<'_>| r.run(),
        index,
        queries,
        opts,
        replicas,
        plan,
    )
}

/// Runs one case through `run` (alone, or as a session's next batch) and
/// fingerprints it.
fn run_case_with(
    run: impl FnOnce(SearchRequest<'_>) -> QueryReport,
    index: &DistIndex,
    queries: &VectorSet,
    opts: SearchOptions,
    replicas: Option<&ReplicaMap>,
    plan: Option<&FaultPlan>,
) -> (QueryReport, Triple) {
    let trace = Trace::new();
    let metrics = Metrics::new();
    let mut req = SearchRequest::new(index, queries)
        .opts(opts)
        .trace(&trace)
        .metrics(&metrics);
    if let Some(p) = plan {
        req = req.chaos(p);
    }
    if let Some(map) = replicas {
        req = req.replicas(map);
    }
    let report = run(req);
    let prom = metrics.snapshot().to_prometheus();
    let non_span: String = prom
        .lines()
        .filter(|l| !l.contains("fastann_span_ns"))
        .map(|l| format!("{l}\n"))
        .collect();
    let hash = |parts: &[&[u8]]| {
        let mut h = Fnv::new();
        for p in parts {
            h.u64(p.len() as u64);
            h.bytes(p);
        }
        h.0
    };
    let triple = [
        hash(&[format!("{report:?}").as_bytes()]),
        hash(&[non_span.as_bytes()]),
        hash(&[&span_bytes(&trace), prom.as_bytes()]),
    ];
    (report, triple)
}

#[test]
fn engine_fingerprints_match_goldens() {
    let data = synth::sift_like(3000, 16, 41);
    let queries = synth::queries_near(&data, 25, 0.02, 42);
    let plans = plans();
    let mut folded: Vec<[Fnv; 3]> = plans
        .iter()
        .map(|_| [Fnv::new(), Fnv::new(), Fnv::new()])
        .collect();
    for cores_per_node in [1, 2] {
        let indexes = [
            build(&data, cores_per_node, 1),
            build(&data, cores_per_node, 4),
        ];
        let mut hot = ReplicaMap::uniform(indexes[0].n_partitions(), 1);
        hot.set_count(0, 3);
        let routings = [
            (RoutingPolicy::Static(1), None),
            (RoutingPolicy::Static(2), None),
            (RoutingPolicy::PowerOfTwo { base: 1, max: 3 }, Some(&hot)),
        ];
        for one_sided in [true, false] {
            for &(routing, replicas) in &routings {
                let opts = SearchOptions::new(10)
                    .with_one_sided(one_sided)
                    .with_routing(routing);
                for (pi, (name, plan)) in plans.iter().enumerate() {
                    let mut triples = Vec::new();
                    for index in &indexes {
                        let (report, triple) =
                            run_case(index, &queries, opts, replicas, plan.as_ref());
                        if plan.is_none() {
                            let (vacuous, same) =
                                run_case(index, &queries, opts, replicas, Some(&FaultPlan::none()));
                            assert_eq!(report, vacuous, "FaultPlan::none() changed the report");
                            assert_eq!(triple, same, "FaultPlan::none() changed a fingerprint");
                        }
                        triples.push(triple);
                    }
                    assert_eq!(
                        triples[0], triples[1],
                        "{name}: threads 1 and 4 disagree (cores_per_node={cores_per_node}, \
                         one_sided={one_sided}, routing={routing:?})"
                    );
                    for (h, x) in folded[pi].iter_mut().zip(triples[0]) {
                        h.u64(x);
                    }
                }
            }
        }
    }
    let got: Vec<(&str, Triple)> = plans
        .iter()
        .zip(&folded)
        .map(|((name, _), h)| (*name, [h[0].0, h[1].0, h[2].0]))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, [a, b, c])| format!("    (\"{name}\", [{a:#018x}, {b:#018x}, {c:#018x}]),\n"))
        .collect();
    assert_eq!(
        got,
        GOLDEN.to_vec(),
        "engine fingerprints moved (report, non-span metrics, spans+metrics); now:\n{table}"
    );
}

/// Repetitions of the grid per session.
const REPS: usize = 3;

/// Runs every case `REPS` times back to back through one session over
/// `index` and fingerprints each batch: `[rep][case]`.
fn session_sweep(
    index: &DistIndex,
    queries: &VectorSet,
    cases: &[(SearchOptions, Option<&ReplicaMap>)],
    plan: Option<&FaultPlan>,
) -> Vec<Vec<Triple>> {
    SearchSession::open(index, plan, 0, |s| {
        (0..REPS)
            .map(|_| {
                cases
                    .iter()
                    .map(|&(opts, replicas)| {
                        let run = |r: SearchRequest<'_>| s.run(r);
                        run_case_with(run, index, queries, opts, replicas, plan).1
                    })
                    .collect()
            })
            .collect()
    })
}

#[test]
fn session_repetitions_match_goldens() {
    let data = synth::sift_like(3000, 16, 41);
    let queries = synth::queries_near(&data, 25, 0.02, 42);
    let plans = plans();
    // folded[rep][plan]
    let mut folded: Vec<Vec<[Fnv; 3]>> = (0..REPS)
        .map(|_| {
            plans
                .iter()
                .map(|_| [Fnv::new(), Fnv::new(), Fnv::new()])
                .collect()
        })
        .collect();
    for cores_per_node in [1, 2] {
        let indexes = [
            build(&data, cores_per_node, 1),
            build(&data, cores_per_node, 4),
        ];
        let mut hot = ReplicaMap::uniform(indexes[0].n_partitions(), 1);
        hot.set_count(0, 3);
        let mut cases = Vec::new();
        for one_sided in [true, false] {
            for (routing, replicas) in [
                (RoutingPolicy::Static(1), None),
                (RoutingPolicy::Static(2), None),
                (RoutingPolicy::PowerOfTwo { base: 1, max: 3 }, Some(&hot)),
            ] {
                let opts = SearchOptions::new(10)
                    .with_one_sided(one_sided)
                    .with_routing(routing);
                cases.push((opts, replicas));
            }
        }
        for (pi, (name, plan)) in plans.iter().enumerate() {
            // triples[threads][rep][case]
            let triples: Vec<Vec<Vec<Triple>>> = indexes
                .iter()
                .map(|index| session_sweep(index, &queries, &cases, plan.as_ref()))
                .collect();
            assert_eq!(
                triples[0], triples[1],
                "{name}: threads 1 and 4 disagree in a session (cores_per_node={cores_per_node})"
            );
            for (rep, cases) in triples[0].iter().enumerate() {
                for triple in cases {
                    for (h, &x) in folded[rep][pi].iter_mut().zip(triple) {
                        h.u64(x);
                    }
                }
            }
        }
    }
    for (rep, folded) in folded.iter().enumerate() {
        let got: Vec<(&str, Triple)> = plans
            .iter()
            .zip(folded)
            .map(|((name, _), h)| (*name, [h[0].0, h[1].0, h[2].0]))
            .collect();
        assert_eq!(
            got,
            GOLDEN.to_vec(),
            "repetition {rep} of a session moved the engine fingerprints"
        );
    }
}
