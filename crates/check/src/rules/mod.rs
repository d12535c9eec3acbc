//! The rule set of the token-stream lint engine.
//!
//! Every rule is a function from a [`FileCtx`](crate::engine::FileCtx)
//! to a list of findings; [`run_all`] fans one file out to all of them.
//! The eight structural rules live in [`panics`], [`wire`], [`docs`]
//! and [`api`]; the determinism family lives in [`determinism`].

pub mod api;
pub mod determinism;
pub mod docs;
pub mod panics;
pub mod wire;

use crate::engine::FileCtx;
use crate::lint::Violation;

/// Every rule identifier the engine can emit, structural then
/// determinism.
pub const ALL_RULES: [&str; 12] = [
    crate::lint::RULE_UNWRAP,
    crate::lint::RULE_PANIC,
    crate::lint::RULE_RECV,
    crate::lint::RULE_TAG,
    crate::lint::RULE_DOC,
    crate::lint::RULE_SPAWN,
    crate::lint::RULE_SEARCH_BATCH,
    crate::lint::RULE_QUANT,
    crate::lint::RULE_DET_MAP_ITER,
    crate::lint::RULE_DET_WALL_CLOCK,
    crate::lint::RULE_DET_THREAD_ID,
    crate::lint::RULE_DET_FLOAT_ACCUM,
];

/// Runs every rule over one file's context.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    panics::check(ctx, out);
    wire::check(ctx, out);
    docs::check(ctx, out);
    api::check(ctx, out);
    determinism::check(ctx, out);
}
