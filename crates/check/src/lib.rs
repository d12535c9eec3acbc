//! # fastann-check — workspace correctness tooling
//!
//! Three subsystems keep the workspace honest:
//!
//! * [`lint`] — a token-stream source analysis over `crates/*/src` and
//!   `src/`: a dependency-free lexer ([`lexer`]) feeds a shared
//!   per-file context ([`engine`]) on which twelve rules run
//!   ([`rules`]) — eight structural rules (no bare `unwrap`, no
//!   panicking macros in library code, no wildcard/untagged receives
//!   outside the simulator, registered wire tags, doc comments on
//!   public items, no direct thread spawning, no new `search_batch*`
//!   entry points, `QueryDist`-only HNSW traversal) plus the
//!   `determinism` family that statically rejects nondeterminism
//!   sources (hash-order traversal, wall clocks, thread identity,
//!   par-side accumulation) in the crates under the bit-identity
//!   contract. Justified exceptions live in
//!   `crates/check/allowlist.txt`, optionally pinned to a line; stale
//!   entries fail the lint.
//! * [`race`] — a schedule-perturbation race detector: run the same
//!   workload under K seed-perturbed scheduler interleavings
//!   ([`fastann_mpisim::SchedPerturb`]) and diff the observable events.
//!   Any fault-free divergence is a race, minimized to the first
//!   diverging span with both interleavings' event windows and the
//!   exact reproducing invocation.
//! * the runtime invariant validators themselves live next to the data
//!   structures they check (`Hnsw::validate`, `VpTree::validate`, the
//!   simulator's message-conservation ledger); this crate's CI entry
//!   points make sure they are exercised.
//!
//! The `fastann-check` binary exposes `lint` (with `--json` archiving)
//! and `race` subcommands for `ci.sh`.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod lint;
pub mod race;
pub mod rules;
