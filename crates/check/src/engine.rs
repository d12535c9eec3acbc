//! Token-stream analysis engine: the shared context every rule runs on.
//!
//! [`FileCtx`] wraps one lexed file with the structure the rules need:
//! a *code view* (comments filtered out, indexable without worrying
//! about interleaved docs), `#[cfg(test)] mod` scope tracking so test
//! code stays out of scope, delimiter matching, and the line set
//! sanctioned by `det:sort` / `det:fold` annotations for the
//! determinism rule family.

use std::collections::BTreeSet;

use crate::lexer::{Tok, TokKind};
use crate::lint::Violation;

/// Per-file context shared by all rules.
pub struct FileCtx<'a> {
    /// Path relative to the workspace root, forward slashes.
    pub rel: &'a str,
    /// The full token stream, comments included.
    pub toks: &'a [Tok],
    /// Registered `(name, value)` wire tags.
    pub tag_table: &'a [(String, u64)],
    /// Indices into `toks` of non-comment tokens (the code view).
    code: Vec<usize>,
    /// Per code-index: is this token inside a `#[cfg(test)] mod`?
    in_test: Vec<bool>,
    /// Lines carrying a `det:sort` / `det:fold` annotation comment.
    det_ok: BTreeSet<usize>,
    /// Trimmed source lines for violation snippets (1-based access).
    lines: Vec<&'a str>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context for one file from its lexed token stream.
    pub fn new(
        rel: &'a str,
        src: &'a str,
        toks: &'a [Tok],
        tag_table: &'a [(String, u64)],
    ) -> Self {
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut det_ok = BTreeSet::new();
        for t in toks {
            if t.kind == TokKind::LineComment
                && (t.text.contains("det:sort") || t.text.contains("det:fold"))
            {
                det_ok.insert(t.line);
            }
        }
        let mut ctx = FileCtx {
            rel,
            toks,
            tag_table,
            in_test: vec![false; code.len()],
            code,
            det_ok,
            lines: src.lines().collect(),
        };
        ctx.mark_test_scopes();
        ctx
    }

    /// Number of code (non-comment) tokens.
    pub fn n(&self) -> usize {
        self.code.len()
    }

    /// Code token at code-index `ci`, if in range.
    pub fn t(&self, ci: usize) -> Option<&Tok> {
        self.code.get(ci).map(|&i| &self.toks[i])
    }

    /// Identifier text at `ci`, if that token is an identifier.
    pub fn ident(&self, ci: usize) -> Option<&str> {
        match self.t(ci) {
            Some(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// `true` when the token at `ci` is the identifier `name`.
    pub fn is_ident(&self, ci: usize, name: &str) -> bool {
        self.ident(ci) == Some(name)
    }

    /// `true` when the token at `ci` is the punct `p`.
    pub fn is_punct(&self, ci: usize, p: &str) -> bool {
        matches!(self.t(ci), Some(t) if t.kind == TokKind::Punct && t.text == p)
    }

    /// Line of the code token at `ci` (the file's last line if out of
    /// range, so rules can flag truncated patterns safely).
    pub fn line(&self, ci: usize) -> usize {
        self.t(ci)
            .map_or_else(|| self.lines.len().max(1), |t| t.line)
    }

    /// `true` when the code token at `ci` is inside `#[cfg(test)] mod`.
    pub fn in_test(&self, ci: usize) -> bool {
        self.in_test.get(ci).copied().unwrap_or(false)
    }

    /// `true` when `line` (or the line above it) carries a `det:sort` /
    /// `det:fold` order-insensitivity annotation.
    pub fn det_annotated(&self, line: usize) -> bool {
        self.det_ok.contains(&line) || (line > 1 && self.det_ok.contains(&(line - 1)))
    }

    /// Trimmed source text of 1-based `line` (empty if out of range).
    pub fn snippet(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map_or("", |l| l.trim())
    }

    /// Pushes a violation anchored at the line of code token `ci`.
    pub fn flag(&self, out: &mut Vec<Violation>, ci: usize, rule: &'static str) {
        let line = self.line(ci);
        out.push(Violation {
            file: self.rel.to_string(),
            line,
            rule,
            text: self.snippet(line).to_string(),
        });
    }

    /// Pushes a violation with an explicit description instead of the
    /// source snippet.
    pub fn flag_msg(&self, out: &mut Vec<Violation>, ci: usize, rule: &'static str, msg: String) {
        out.push(Violation {
            file: self.rel.to_string(),
            line: self.line(ci),
            rule,
            text: msg,
        });
    }

    /// Code-index of the delimiter matching the opener at `open_ci`
    /// (`(`/`)`, `[`/`]` or `{`/`}` depending on the opener's text).
    /// Returns `n()` when unbalanced, which ends every scan safely.
    pub fn match_delim(&self, open_ci: usize) -> usize {
        let (open, close) = match self.t(open_ci).map(|t| t.text.as_str()) {
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            Some("{") => ("{", "}"),
            _ => return self.n(),
        };
        let mut depth = 0i64;
        for ci in open_ci..self.n() {
            if self.is_punct(ci, open) {
                depth += 1;
            } else if self.is_punct(ci, close) {
                depth -= 1;
                if depth == 0 {
                    return ci;
                }
            }
        }
        self.n()
    }

    /// Splits the argument span `(lo, hi)` (exclusive of both
    /// delimiters) at top-level commas; returns code-index ranges.
    pub fn split_args(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let mut ranges = Vec::new();
        let mut depth = 0i64;
        let mut start = lo;
        for ci in lo..hi {
            match self.t(ci).map(|t| t.text.as_str()) {
                Some("(") | Some("[") | Some("{") => depth += 1,
                Some(")") | Some("]") | Some("}") => depth -= 1,
                Some(",") if depth == 0 => {
                    ranges.push((start, ci));
                    start = ci + 1;
                }
                _ => {}
            }
        }
        if start < hi {
            ranges.push((start, hi));
        }
        ranges
    }

    /// Walks backwards from code-index `ci` over attribute groups and
    /// doc comments. Returns `true` when a `///` or `/** */` doc comment
    /// was crossed.
    pub fn walk_back_attrs(&self, ci: usize) -> bool {
        let mut documented = false;
        // work on the FULL stream so doc comments are visible
        let mut fi = match self.code.get(ci) {
            Some(&i) => i,
            None => return false,
        };
        loop {
            if fi == 0 {
                return documented;
            }
            fi -= 1;
            let t = &self.toks[fi];
            match t.kind {
                TokKind::LineComment => {
                    if t.text.starts_with("///") {
                        documented = true;
                    } else if t.text.starts_with("//!") {
                        return documented; // inner docs belong to the module
                    }
                    // plain comments between docs/attrs and the item are
                    // transparent
                }
                TokKind::BlockComment => {
                    if t.text.starts_with("/**") {
                        documented = true;
                    }
                }
                TokKind::Punct if t.text == "]" => {
                    // scan back to the matching '[' then require '#'
                    let close_ci = self.code.binary_search(&fi).unwrap_or(self.n());
                    let mut depth = 0i64;
                    let mut open_ci = None;
                    for cj in (0..=close_ci).rev() {
                        if self.is_punct(cj, "]") {
                            depth += 1;
                        } else if self.is_punct(cj, "[") {
                            depth -= 1;
                            if depth == 0 {
                                open_ci = Some(cj);
                                break;
                            }
                        }
                    }
                    let Some(open_ci) = open_ci else {
                        return documented;
                    };
                    let mut head = open_ci;
                    if head > 0 && self.is_punct(head - 1, "!") {
                        head -= 1;
                    }
                    if head > 0 && self.is_punct(head - 1, "#") {
                        fi = self.code[head - 1];
                    } else {
                        return documented;
                    }
                }
                _ => return documented,
            }
        }
    }

    /// `true` when code token `ci` is the first token on its line
    /// (nothing — not even a comment — precedes it there).
    pub fn starts_line(&self, ci: usize) -> bool {
        let Some(&fi) = self.code.get(ci) else {
            return false;
        };
        fi == 0 || self.toks[fi - 1].line < self.toks[fi].line
    }

    /// Marks `#[cfg(test)] mod … { … }` interiors in `in_test`: only
    /// test *modules* are skipped; a `#[cfg(test)]` on a bare fn stays
    /// in scope.
    fn mark_test_scopes(&mut self) {
        let mut ci = 0usize;
        let mut pending = false;
        while ci < self.n() {
            if self.is_punct(ci, "#") {
                let mut open = ci + 1;
                if self.is_punct(open, "!") {
                    open += 1;
                }
                if self.is_punct(open, "[") {
                    let close = self.match_delim(open);
                    let is_cfg_test = self.is_ident(open + 1, "cfg")
                        && self.is_punct(open + 2, "(")
                        && self.is_ident(open + 3, "test")
                        && self.is_punct(open + 4, ")");
                    if is_cfg_test {
                        pending = true;
                    }
                    ci = close + 1;
                    continue;
                }
            }
            if pending {
                let mut head = ci;
                if self.is_ident(head, "pub") {
                    head += 1;
                    if self.is_punct(head, "(") {
                        head = self.match_delim(head) + 1;
                    }
                }
                if self.is_ident(head, "mod") {
                    // find the block opener before any ';'
                    let mut k = head + 1;
                    while k < self.n() && !self.is_punct(k, "{") && !self.is_punct(k, ";") {
                        k += 1;
                    }
                    if self.is_punct(k, "{") {
                        let close = self.match_delim(k);
                        for m in ci..=close.min(self.n().saturating_sub(1)) {
                            self.in_test[m] = true;
                        }
                        pending = false;
                        ci = close + 1;
                        continue;
                    }
                }
                pending = false;
            }
            ci += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_over(src: &str) -> (Vec<Tok>, Vec<&str>) {
        (lex(src), vec![])
    }

    #[test]
    fn test_scope_covers_cfg_test_mods_only() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn hidden() {}
}
#[cfg(test)]
fn also_live_by_convention() {}
";
        let (toks, _) = ctx_over(src);
        let table = vec![];
        let ctx = FileCtx::new("crates/core/src/x.rs", src, &toks, &table);
        let live: Vec<usize> = (0..ctx.n())
            .filter(|&ci| ctx.is_ident(ci, "fn") && !ctx.in_test(ci))
            .collect();
        assert_eq!(live.len(), 2, "the mod body fn is scoped out");
        let hidden = (0..ctx.n()).find(|&ci| ctx.is_ident(ci, "hidden"));
        assert!(hidden.is_some_and(|ci| ctx.in_test(ci)));
    }

    #[test]
    fn delimiter_matching_and_arg_splitting() {
        let src = "f(a, g(b, c), [d, e]);";
        let (toks, _) = ctx_over(src);
        let table = vec![];
        let ctx = FileCtx::new("x.rs", src, &toks, &table);
        let open = (0..ctx.n())
            .find(|&ci| ctx.is_punct(ci, "("))
            .expect("open paren");
        let close = ctx.match_delim(open);
        assert!(ctx.is_punct(close, ")"));
        let args = ctx.split_args(open + 1, close);
        assert_eq!(args.len(), 3, "{args:?}");
    }

    #[test]
    fn det_annotations_cover_their_line_and_the_next() {
        let src = "// det:fold — commutative\nfor x in set {}\nfor y in set {}\n";
        let (toks, _) = ctx_over(src);
        let table = vec![];
        let ctx = FileCtx::new("x.rs", src, &toks, &table);
        assert!(ctx.det_annotated(1));
        assert!(ctx.det_annotated(2));
        assert!(!ctx.det_annotated(3));
    }

    #[test]
    fn walk_back_sees_docs_through_attributes() {
        let src = "/// Documented.\n#[derive(Clone)]\n#[repr(C)]\npub struct S;\n";
        let (toks, _) = ctx_over(src);
        let table = vec![];
        let ctx = FileCtx::new("x.rs", src, &toks, &table);
        let pub_ci = (0..ctx.n())
            .find(|&ci| ctx.is_ident(ci, "pub"))
            .expect("pub token");
        assert!(ctx.walk_back_attrs(pub_ci));
    }
}
