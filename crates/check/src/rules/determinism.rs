//! The `determinism` rule family: static rejection of nondeterminism
//! *sources* in the crates under the bit-identity contract.
//!
//! Every number the workspace reports must be bit-identical across
//! `FASTANN_THREADS`; the dynamic gates (golden diffs, threads=1/4
//! reruns) catch drift after the fact, these rules reject the cause at
//! lint time. Four classes:
//!
//! * `det-map-iter` — iteration over a `HashMap`/`HashSet` (its order
//!   is seeded per-process). Lookups, inserts and `len()` are fine; any
//!   order-exposing traversal (`iter`, `keys`, `values`, `drain`,
//!   `retain`, `for … in map`) needs a `det:sort` / `det:fold`
//!   annotation asserting the consumed result is order-insensitive
//!   (sorted afterwards, or folded commutatively into disjoint slots),
//!   or a line-granular allowlist entry.
//! * `det-wall-clock` — `Instant::now` / `SystemTime::now`. All
//!   reported timing is *virtual*; wall-clock belongs in `crates/bench`.
//! * `det-thread-id` — `thread::current()` / `available_parallelism`.
//!   Thread identity must never feed a reported value; diagnostic uses
//!   are allowlisted per line.
//! * `det-float-accum` — accumulation inside a parallel statement
//!   (`rayon::par_map` or a `par_iter`-family head; `+=` on a captured
//!   value, or a par-side `sum` / `fold` / `reduce` / `product`). Float
//!   addition does not commute; the sanctioned idiom is the
//!   order-preserving map: `rayon::par_map(n, init, work)` returns the
//!   results in item order, then a sequential fold.
//!
//! Scope detection is token-level type tracking, not inference: a name
//! counts as a hash collection when its declaration (`let`, field, or
//! parameter) mentions `HashMap`/`HashSet`. Indirections (e.g. a map
//! behind `Mutex::lock()`) are out of reach of the lint and remain the
//! dynamic gates' job.

use std::collections::BTreeSet;

use crate::engine::FileCtx;
use crate::lint::{
    Violation, RULE_DET_FLOAT_ACCUM, RULE_DET_MAP_ITER, RULE_DET_THREAD_ID, RULE_DET_WALL_CLOCK,
};

/// Crates under the determinism contract (all reported numbers must be
/// bit-identical across thread counts). `bench` measures the real host
/// and `check` is the tooling itself; both stay outside.
pub const CONTRACT_CRATES: [&str; 8] = [
    "crates/core/",
    "crates/hnsw/",
    "crates/vptree/",
    "crates/kdtree/",
    "crates/data/",
    "crates/obs/",
    "crates/serve/",
    "crates/mpisim/",
];

/// Order-exposing methods on hash collections.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Heads of the parallel family: the vendored pool's one-shot
/// `par_map` and upstream rayon's `par_iter` heads. A statement
/// containing one is a parallel-reduction site.
const PAR_HEADS: [&str; 6] = [
    "par_map",
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_bridge",
];

/// Par-side adapters that reduce in traversal order.
const REDUCERS: [&str; 4] = ["sum", "product", "fold", "reduce"];

/// Compound assignments that accumulate.
const ACCUM_OPS: [&str; 4] = ["+=", "-=", "*=", "/="];

/// Runs the family over one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !CONTRACT_CRATES.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    let hash_names = collect_hash_names(ctx);
    let mut flagged_lines: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    let mut par_end = 0usize; // end of the current par statement span
    for ci in 0..ctx.n() {
        if ctx.in_test(ci) {
            continue;
        }
        // --- det-map-iter -------------------------------------------------
        // name.iter() / name.keys() / … on a known hash collection
        if let Some(name) = ctx.ident(ci) {
            if hash_names.contains(name)
                && ctx.is_punct(ci + 1, ".")
                && ctx.is_punct(ci + 3, "(")
                && ITER_METHODS.iter().any(|m| ctx.is_ident(ci + 2, m))
                && !ctx.det_annotated(ctx.line(ci))
                && flagged_lines.insert((ctx.line(ci), RULE_DET_MAP_ITER))
            {
                ctx.flag(out, ci, RULE_DET_MAP_ITER);
            }
        }
        // for … in [&][mut] [self.]name { — direct traversal
        if ctx.is_ident(ci, "in") {
            let mut cj = ci + 1;
            while ctx.is_punct(cj, "&") || ctx.is_punct(cj, "&&") || ctx.is_ident(cj, "mut") {
                cj += 1;
            }
            if ctx.is_ident(cj, "self") && ctx.is_punct(cj + 1, ".") {
                cj += 2;
            }
            if let Some(name) = ctx.ident(cj) {
                if hash_names.contains(name)
                    && ctx.is_punct(cj + 1, "{")
                    && !ctx.det_annotated(ctx.line(cj))
                    && flagged_lines.insert((ctx.line(cj), RULE_DET_MAP_ITER))
                {
                    ctx.flag(out, cj, RULE_DET_MAP_ITER);
                }
            }
        }
        // --- det-wall-clock -----------------------------------------------
        if (ctx.is_ident(ci, "Instant") || ctx.is_ident(ci, "SystemTime"))
            && ctx.is_punct(ci + 1, "::")
            && ctx.is_ident(ci + 2, "now")
        {
            ctx.flag(out, ci, RULE_DET_WALL_CLOCK);
        }
        // --- det-thread-id ------------------------------------------------
        if ctx.is_ident(ci, "thread")
            && ctx.is_punct(ci + 1, "::")
            && ctx.is_ident(ci + 2, "current")
            && ctx.is_punct(ci + 3, "(")
        {
            ctx.flag(out, ci, RULE_DET_THREAD_ID);
        }
        if ctx.is_ident(ci, "available_parallelism") {
            ctx.flag(out, ci, RULE_DET_THREAD_ID);
        }
        // --- det-float-accum ----------------------------------------------
        if ci >= par_end && PAR_HEADS.iter().any(|h| ctx.is_ident(ci, h)) {
            par_end = par_statement_end(ctx, ci);
            for cj in ci..par_end {
                let accum_op = ctx
                    .t(cj)
                    .is_some_and(|t| ACCUM_OPS.contains(&t.text.as_str()));
                let par_reduce = ctx.is_punct(cj, ".")
                    && REDUCERS.iter().any(|r| ctx.is_ident(cj + 1, r))
                    && (ctx.is_punct(cj + 2, "(") || ctx.is_punct(cj + 2, "::"));
                if (accum_op || par_reduce)
                    && !ctx.det_annotated(ctx.line(cj))
                    && flagged_lines.insert((ctx.line(cj), RULE_DET_FLOAT_ACCUM))
                {
                    ctx.flag(out, cj, RULE_DET_FLOAT_ACCUM);
                }
            }
        }
    }
}

/// Names declared with a `HashMap`/`HashSet` type in this file: `let`
/// bindings (annotated or initialized from `Hash{Map,Set}::…`), struct
/// fields, and typed parameters.
fn collect_hash_names(ctx: &FileCtx<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ci in 0..ctx.n() {
        // NAME : <type span mentioning HashMap/HashSet>
        if let Some(name) = ctx.ident(ci) {
            if ctx.is_punct(ci + 1, ":") && type_span_mentions_hash(ctx, ci + 2) {
                names.insert(name.to_string());
                continue;
            }
        }
        // let [mut] NAME = … Hash{Map,Set} :: …
        if ctx.is_ident(ci, "let") {
            let mut cj = ci + 1;
            if ctx.is_ident(cj, "mut") {
                cj += 1;
            }
            if let Some(name) = ctx.ident(cj) {
                if ctx.is_punct(cj + 1, "=") && init_span_mentions_hash(ctx, cj + 2) {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Scans a type span starting at `ci` (after the `:`), stopping at a
/// top-level `, ; = ) { }`; `true` when it mentions a hash type.
fn type_span_mentions_hash(ctx: &FileCtx<'_>, ci: usize) -> bool {
    let mut depth = 0i64;
    for cj in ci..ctx.n().min(ci + 64) {
        match ctx.t(cj).map(|t| t.text.as_str()) {
            Some("<") | Some("(") | Some("[") => depth += 1,
            Some(">") | Some(")") | Some("]") => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            Some(",") | Some(";") | Some("=") | Some("{") | Some("}") if depth == 0 => {
                return false
            }
            _ => {}
        }
        if ctx.is_ident(cj, "HashMap") || ctx.is_ident(cj, "HashSet") {
            return true;
        }
    }
    false
}

/// Scans an initializer span starting at `ci` (after the `=`) up to the
/// statement-ending `;`; `true` when it constructs a hash type.
fn init_span_mentions_hash(ctx: &FileCtx<'_>, ci: usize) -> bool {
    let mut depth = 0i64;
    for cj in ci..ctx.n() {
        match ctx.t(cj).map(|t| t.text.as_str()) {
            Some("(") | Some("[") | Some("{") => depth += 1,
            Some(")") | Some("]") | Some("}") => {
                if depth < 1 {
                    return false;
                }
                depth -= 1;
            }
            Some(";") if depth == 0 => return false,
            _ => {}
        }
        if (ctx.is_ident(cj, "HashMap") || ctx.is_ident(cj, "HashSet"))
            && ctx.is_punct(cj + 1, "::")
        {
            return true;
        }
    }
    false
}

/// End (exclusive code-index) of the statement containing the par head
/// at `ci`: the top-level `;`, or the point where the enclosing group
/// closes.
fn par_statement_end(ctx: &FileCtx<'_>, ci: usize) -> usize {
    let mut depth = 0i64;
    for cj in ci..ctx.n() {
        match ctx.t(cj).map(|t| t.text.as_str()) {
            Some("(") | Some("[") | Some("{") => depth += 1,
            Some(")") | Some("]") | Some("}") => {
                depth -= 1;
                if depth < 0 {
                    return cj;
                }
            }
            Some(";") if depth == 0 => return cj,
            _ => {}
        }
    }
    ctx.n()
}
