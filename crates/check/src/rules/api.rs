//! `search-batch-variant` and `quantized-traversal`: the API-surface
//! rules.
//!
//! The five legacy `search_batch*` entry points were deleted in favour
//! of the `SearchRequest` builder; no public function of the family may
//! appear again (the multiple-owner algorithm keeps its allowlisted
//! name). In `crates/hnsw/src`, traversal code (the upper-layer
//! `descend` and the beam's `search_layer`) must dispatch every distance
//! through `QueryDist`, and the raw exact kernel may not be called
//! anywhere in the crate — the re-rank stage is the one sanctioned
//! consumer and carries the allowlist entry.

use crate::engine::FileCtx;
use crate::lint::{Violation, RULE_QUANT, RULE_SEARCH_BATCH};

/// HNSW traversal functions whose bodies are under `QueryDist`-only
/// dispatch.
const TRAVERSAL_FNS: [&str; 2] = ["descend", "search_layer"];

/// Runs both rules over one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let is_hnsw = ctx.rel.starts_with("crates/hnsw/src");
    for ci in 0..ctx.n() {
        if ctx.in_test(ci) {
            continue;
        }
        // any pub fn search_batch*
        if ctx.is_ident(ci, "pub")
            && ctx.is_ident(ci + 1, "fn")
            && ctx
                .ident(ci + 2)
                .is_some_and(|n| n.starts_with("search_batch"))
        {
            ctx.flag(out, ci, RULE_SEARCH_BATCH);
        }
        if !is_hnsw {
            continue;
        }
        // the raw exact kernel is off-limits crate-wide
        if ctx.is_ident(ci, "squared_l2") && ctx.is_punct(ci + 1, "(") {
            ctx.flag(out, ci, RULE_QUANT);
        }
        // inside a traversal fn body, no direct metric .eval( calls
        if ctx.is_ident(ci, "fn") && TRAVERSAL_FNS.iter().any(|f| ctx.is_ident(ci + 1, f)) {
            let mut open = ci + 2;
            while open < ctx.n() && !ctx.is_punct(open, "{") {
                open += 1;
            }
            let close = ctx.match_delim(open);
            for cj in open..close {
                if ctx.is_punct(cj, ".")
                    && ctx.is_ident(cj + 1, "eval")
                    && ctx.is_punct(cj + 2, "(")
                {
                    ctx.flag(out, cj + 1, RULE_QUANT);
                }
            }
        }
    }
}
