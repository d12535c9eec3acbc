#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the workspace root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --locked --workspace -D warnings (Cargo.lock must match the manifests)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace -q (real thread pool, FASTANN_THREADS=4)"
# Same workspace suite with the vendored rayon pool defaulting to 4 real
# threads: the determinism contract says every reported number must stay
# bit-identical, so the whole suite must stay green.
FASTANN_THREADS=4 cargo test --workspace -q

echo "==> cargo test --release (kernel, graph and engine goldens on optimized codegen)"
# Debug builds do not vectorize the distance kernels' chunk loops, so
# only a release build checks that the code that ships keeps the frozen
# float-add order (kernel_golden) and the graph and engine goldens.
# mpisim and kdtree run the simulator's rank spawn, poison and join path
# on the same optimized build, and vptree runs the splitter the build
# ships. rayon runs the pool's atomics and condvar hand-offs on the
# codegen that ships. obs and serve run the metrics determinism, backlog
# and adaptive-serving goldens on it too.
cargo test --release -q -p fastann-data -p fastann-hnsw -p fastann-core -p fastann-mpisim -p fastann-kdtree -p fastann-vptree -p rayon -p fastann-obs -p fastann-serve

echo "==> cargo test --release (same goldens, FASTANN_THREADS=4)"
# SearchScratch keeps the beam's key pool, the descent seeds and the
# re-rank buffer from one probe to the next on one pool thread; a state
# leak between probes would show only where the threads' probe sequences
# differ, and only on the optimized build that ships.
FASTANN_THREADS=4 cargo test --release -q -p fastann-data -p fastann-hnsw -p fastann-core -p fastann-mpisim -p fastann-kdtree -p fastann-vptree -p rayon -p fastann-obs -p fastann-serve

echo "==> fastann-check lint (findings archived to target/lint_findings.json)"
cargo run -q -p fastann-check -- lint --json target/lint_findings.json
test -s target/lint_findings.json

echo "==> invariant validators are exercised"
for crate in hnsw vptree mpisim; do
    if ! grep -rq "fn validator_" "crates/$crate/src"; then
        echo "no validator_* test exercises crates/$crate" >&2
        exit 1
    fi
done

echo "==> schedule-perturbation race smoke (K=8)"
cargo run -q -p fastann-check -- race --k 8

echo "==> BENCH_*.json perf smoke + quantized recall-delta gate (bit-identity)"
# --gate fails the run if quantized recall@10 trails the exact path by
# more than 0.01 on the same graph; both invocations also assert that
# exact and quantized search answer bit-identically at 1 and at N
# threads. perf reads no clock, so the two records must match byte for
# byte, and the diff pins the committed record. Regenerate after an
# intentional change with:
#   ./target/release/perf --smoke --threads 1 --out crates/bench/golden
cargo build -q --release -p fastann-bench
rm -rf target/perf_a target/perf_b
mkdir -p target/perf_a target/perf_b
FASTANN_THREADS=1 ./target/release/perf --smoke --threads 1 --gate --out target/perf_a
FASTANN_THREADS=4 ./target/release/perf --smoke --threads 4 --gate --out target/perf_b
cmp target/perf_a/BENCH_SYN_SMOKE.json target/perf_b/BENCH_SYN_SMOKE.json
test -s target/perf_a/BENCH_SYN_SMOKE.json
diff -u crates/bench/golden/BENCH_SYN_SMOKE.json target/perf_a/BENCH_SYN_SMOKE.json

echo "==> MDC_32K clustered recall gate (exact-recall floor, bit-identity, golden)"
# The clustered workload where single-seed greedy descent used to collapse
# exact recall@10 to ~0.44 (ROADMAP item 1, DESIGN.md §13). --gate enforces
# the workload's absolute exact-recall floor (0.90) on top of the recall
# delta, and the perf harness asserts the clustered search results are
# bit-identical at 1 and at N threads on both legs. The cmp pins the
# record across FASTANN_THREADS, and the diff pins the committed file.
# Regenerate after an intentional change with:
#   ./target/release/perf --only MDC_32K --threads 1 --out .
rm -rf target/mdc_a target/mdc_b
mkdir -p target/mdc_a target/mdc_b
FASTANN_THREADS=1 ./target/release/perf --only MDC_32K --threads 1 --gate --out target/mdc_a
FASTANN_THREADS=4 ./target/release/perf --only MDC_32K --threads 4 --gate --out target/mdc_b
cmp target/mdc_a/BENCH_MDC_32K.json target/mdc_b/BENCH_MDC_32K.json
diff -u BENCH_MDC_32K.json target/mdc_a/BENCH_MDC_32K.json

echo "==> churn leg (live mutation: 90/5/5 read/insert/delete, recall gates)"
# Deletes 20% of the corpus through MutationRequest while serving reads,
# then compacts. --gate enforces survivor recall@10 >= 0.90 on the
# tombstoned index and within 0.02 of a from-scratch rebuild after
# compaction; the leg itself asserts no deleted id is ever served. The
# emitted JSON holds only virtual/deterministic fields plus an FNV
# fingerprint of every outcome and neighbor, so the cmp below is a
# full-trajectory bit-identity check across FASTANN_THREADS settings,
# and the diff pins the committed record. Regenerate after an intentional
# change with:
#   ./target/release/perf --churn --threads 1 --out crates/bench/golden
rm -rf target/churn_a target/churn_b
mkdir -p target/churn_a target/churn_b
FASTANN_THREADS=1 ./target/release/perf --churn --threads 1 --gate --out target/churn_a
FASTANN_THREADS=4 ./target/release/perf --churn --threads 4 --gate --out target/churn_b
cmp target/churn_a/BENCH_churn_SMOKE.json target/churn_b/BENCH_churn_SMOKE.json
test -s target/churn_a/BENCH_churn_SMOKE.json
diff -u crates/bench/golden/BENCH_churn_SMOKE.json target/churn_a/BENCH_churn_SMOKE.json

echo "==> serve + obs smoke (seed-stable report, golden metrics)"
# The load generator asserts nonzero throughput and request conservation
# internally; CI additionally pins the determinism contract: two runs
# with the same seed — at different thread counts — must emit
# byte-identical reports (embedded FNV fingerprints and the obs
# MetricsSnapshot included), and the Prometheus rendering must match the
# committed golden exactly; the report is pinned the same way.
# Regenerate both goldens with:
#   ./target/release/serveload --smoke --metrics --out crates/bench/golden
rm -rf target/serve_a target/serve_b
mkdir -p target/serve_a target/serve_b
./target/release/serveload --smoke --metrics --out target/serve_a
FASTANN_THREADS=4 ./target/release/serveload --smoke --metrics --out target/serve_b
cmp target/serve_a/BENCH_serve_SMOKE.json target/serve_b/BENCH_serve_SMOKE.json
cmp target/serve_a/METRICS_serve_SMOKE.prom target/serve_b/METRICS_serve_SMOKE.prom
diff -u crates/bench/golden/BENCH_serve_SMOKE.json target/serve_a/BENCH_serve_SMOKE.json
diff -u crates/bench/golden/METRICS_serve_SMOKE.prom target/serve_a/METRICS_serve_SMOKE.prom

echo "==> zipf skewed serveload (adaptive replication gate, bit-identity)"
# The Zipf-skewed open-loop trace runs twice per invocation: once under
# static round-robin replication and once under the adaptive controller.
# --gate asserts the static leg actually sheds on the hot partition, that
# the controller raises at least one replica, and that the adaptive leg
# beats static on both rejection rate and p99 latency. The cmp pins the
# determinism contract (reports and metrics bit-identical across
# FASTANN_THREADS), and the diffs pin the committed artifacts.
# Regenerate after an intentional change with:
#   ./target/release/serveload --only zipf --gate --metrics --out .
#   mv METRICS_serve_zipf.prom crates/bench/golden/
rm -rf target/zipf_a target/zipf_b
mkdir -p target/zipf_a target/zipf_b
FASTANN_THREADS=1 ./target/release/serveload --only zipf --gate --metrics --out target/zipf_a
FASTANN_THREADS=4 ./target/release/serveload --only zipf --gate --metrics --out target/zipf_b
cmp target/zipf_a/BENCH_serve_zipf.json target/zipf_b/BENCH_serve_zipf.json
cmp target/zipf_a/METRICS_serve_zipf.prom target/zipf_b/METRICS_serve_zipf.prom
diff -u BENCH_serve_zipf.json target/zipf_a/BENCH_serve_zipf.json
diff -u crates/bench/golden/METRICS_serve_zipf.prom target/zipf_a/METRICS_serve_zipf.prom

echo "CI green."
