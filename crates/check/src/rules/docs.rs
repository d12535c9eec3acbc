//! `missing-doc`: every `pub` item of the registered crates carries a
//! doc comment.
//!
//! Registered: core, mpisim, serve, obs, data, hnsw, and (since the
//! token engine) vptree and kdtree. `pub(crate)` and `pub use` are
//! exempt; attributes between the doc and the item are skipped by
//! walking the real token stream, so wrapped multi-line attributes
//! cannot hide a doc comment the way they could from the line lint.

use crate::engine::FileCtx;
use crate::lint::{Violation, RULE_DOC};

/// Crate source prefixes whose public items must be documented.
pub const DOC_CRATES: [&str; 8] = [
    "crates/core/src",
    "crates/mpisim/src",
    "crates/serve/src",
    "crates/obs/src",
    "crates/data/src",
    "crates/hnsw/src",
    "crates/vptree/src",
    "crates/kdtree/src",
];

/// Item-head keywords that demand a doc comment after `pub`.
const HEADS: [&str; 10] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union", "async",
];

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if !DOC_CRATES.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    for ci in 0..ctx.n() {
        if ctx.in_test(ci) || !ctx.is_ident(ci, "pub") || !ctx.starts_line(ci) {
            continue;
        }
        // pub(crate) / pub(super) are exempt, pub use is not an item head
        if ctx.is_punct(ci + 1, "(") {
            continue;
        }
        let is_head = match ctx.ident(ci + 1) {
            Some("async") => ctx.is_ident(ci + 2, "fn"),
            Some(h) => HEADS.contains(&h),
            None => false,
        };
        if !is_head {
            continue;
        }
        let documented = ctx.walk_back_attrs(ci);
        if !documented {
            let line = ctx.line(ci);
            ctx.flag_msg(
                out,
                ci,
                RULE_DOC,
                format!(
                    "undocumented public item: {}",
                    first_words(ctx.snippet(line), 6)
                ),
            );
        }
    }
}

fn first_words(t: &str, n: usize) -> String {
    t.split_whitespace().take(n).collect::<Vec<_>>().join(" ")
}
