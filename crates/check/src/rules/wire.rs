//! `wildcard-recv` and `tag-registry`: the message-passing discipline
//! rules.
//!
//! Outside the simulator, every receive must be source- and tag-exact
//! (`None` in either position is the PR 1 wildcard-receive bug class),
//! every `TAG_*` constant must agree with the registry in
//! `crates/core/src/tags.rs`, and every sent tag must be symbolic.

use crate::engine::FileCtx;
use crate::lint::{Violation, RULE_RECV, RULE_TAG};

/// Runs both rules over one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    if ctx.rel.starts_with("crates/mpisim/") {
        return;
    }
    let is_tags_file = ctx.rel == "crates/core/src/tags.rs";
    for ci in 0..ctx.n() {
        if ctx.in_test(ci) {
            continue;
        }
        // .recv( / .try_recv( with a None argument
        if ctx.is_punct(ci, ".")
            && (ctx.is_ident(ci + 1, "recv") || ctx.is_ident(ci + 1, "try_recv"))
            && ctx.is_punct(ci + 2, "(")
        {
            let close = ctx.match_delim(ci + 2);
            if (ci + 3..close).any(|cj| ctx.is_ident(cj, "None")) {
                ctx.flag(out, ci + 1, RULE_RECV);
            }
        }
        if is_tags_file {
            continue;
        }
        // const TAG_* declarations must match the registry
        if ctx.is_ident(ci, "const") {
            if let Some(name) = ctx.ident(ci + 1).filter(|n| n.starts_with("TAG_")) {
                let name = name.to_string();
                // const NAME : ty = <int> ;
                let mut cj = ci + 2;
                while cj < ctx.n() && !ctx.is_punct(cj, "=") && !ctx.is_punct(cj, ";") {
                    cj += 1;
                }
                let value = ctx
                    .t(cj + 1)
                    .filter(|t| t.kind == crate::lexer::TokKind::Num)
                    .and_then(|t| t.text.replace('_', "").parse::<u64>().ok());
                if let Some(value) = value {
                    let registered = ctx.tag_table.iter().any(|(n, v)| *n == name && *v == value);
                    if !registered {
                        ctx.flag_msg(
                            out,
                            ci + 1,
                            RULE_TAG,
                            format!(
                                "{name} = {value} is not registered in core/src/tags.rs TAG_TABLE"
                            ),
                        );
                    }
                }
            }
        }
        // sent tags must be symbolic: second argument of every send
        // entry point mentions TAG_ or *tag*
        if ctx.is_punct(ci, ".")
            && ["send_bytes", "send_bytes_at", "send_sized"]
                .iter()
                .any(|m| ctx.is_ident(ci + 1, m))
            && ctx.is_punct(ci + 2, "(")
        {
            let close = ctx.match_delim(ci + 2);
            let args = ctx.split_args(ci + 3, close);
            let tag_ok = args.get(1).is_some_and(|&(lo, hi)| {
                (lo..hi).any(|cj| {
                    ctx.ident(cj)
                        .is_some_and(|id| id.contains("TAG_") || id.to_lowercase().contains("tag"))
                })
            });
            if !tag_ok {
                ctx.flag_msg(
                    out,
                    ci + 1,
                    RULE_TAG,
                    format!(
                        "tag argument is not a TAG_* identifier: {}",
                        ctx.snippet(ctx.line(ci + 1))
                    ),
                );
            }
        }
    }
}
