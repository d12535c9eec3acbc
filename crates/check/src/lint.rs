//! Workspace source lint on the token-stream analysis engine.
//!
//! Twelve rules, run over a lexed token stream ([`crate::lexer`]) with
//! shared per-file structure ([`crate::engine`]) — strings, char
//! literals, raw strings, nested block comments and `#[cfg(test)]`
//! scopes are handled by construction, so needles inside
//! literals/comments and multi-line signatures are matched correctly.
//!
//! | rule              | meaning                                                        |
//! |-------------------|----------------------------------------------------------------|
//! | `no-unwrap`       | no bare `unwrap` in non-test library code (`expect` is fine)   |
//! | `no-panic`        | no panicking macro in non-test library code (simulator exempt) |
//! | `wildcard-recv`   | no wildcard-source / untagged receive outside the simulator    |
//! | `tag-registry`    | every `TAG_*` constant and every sent tag is registered        |
//! | `missing-doc`     | every `pub` item of the registered crates has a doc comment    |
//! | `no-thread-spawn` | no direct thread spawning outside the simulator — go through the rayon pool |
//! | `search-batch-variant` | no `pub fn search_batch*` entry points — one `SearchRequest` builder |
//! | `quantized-traversal` | HNSW traversal code goes through `QueryDist` dispatch — no direct exact-distance kernels in `crates/hnsw/src` outside the re-rank stage |
//! | `det-map-iter`    | no order-exposing `HashMap`/`HashSet` traversal in contract crates without a `det:sort`/`det:fold` annotation |
//! | `det-wall-clock`  | no `Instant::now`/`SystemTime::now` outside `crates/bench` — reported time is virtual |
//! | `det-thread-id`   | no `thread::current()`/`available_parallelism` in contract crates — thread identity must not feed reported values |
//! | `det-float-accum` | no accumulation inside `rayon::par_map` or `par_iter`-family statements — map in item order, then fold sequentially |
//!
//! Test modules (`#[cfg(test)] mod …`), `tests/` and `benches/`
//! directories, and `vendor/` stand-ins are out of scope. Justified
//! violations are suppressed by `crates/check/allowlist.txt`, one
//! `path[:line] rule reason…` triple per line — `path:line` pins the
//! entry to a single line (required practice for the determinism
//! family). An entry that suppresses nothing is *stale* and fails the
//! lint, so the allowlist can only shrink as code is fixed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::engine::FileCtx;
use crate::lexer;
use crate::rules;

/// Rule identifier: bare `unwrap` in non-test library code.
pub const RULE_UNWRAP: &str = "no-unwrap";
/// Rule identifier: panicking macro in non-test library code.
pub const RULE_PANIC: &str = "no-panic";
/// Rule identifier: wildcard/untagged receive outside the simulator.
pub const RULE_RECV: &str = "wildcard-recv";
/// Rule identifier: unregistered wire tag or non-symbolic send tag.
pub const RULE_TAG: &str = "tag-registry";
/// Rule identifier: undocumented public item.
pub const RULE_DOC: &str = "missing-doc";
/// Rule identifier: direct thread spawning outside the simulator.
pub const RULE_SPAWN: &str = "no-thread-spawn";
/// Rule identifier: a `search_batch*` public entry point.
pub const RULE_SEARCH_BATCH: &str = "search-batch-variant";
/// Rule identifier: direct exact-distance evaluation in HNSW traversal
/// code. Traversal must dispatch through `QueryDist` so the quantized
/// and exact domains stay confined to `Hnsw::d` and the search entry
/// points; the only sanctioned search-time exact-distance consumer is
/// the re-rank stage (allowlisted).
pub const RULE_QUANT: &str = "quantized-traversal";
/// Rule identifier: order-exposing hash-collection traversal in a
/// contract crate without a sort-or-fold annotation.
pub const RULE_DET_MAP_ITER: &str = "det-map-iter";
/// Rule identifier: wall-clock source in a contract crate.
pub const RULE_DET_WALL_CLOCK: &str = "det-wall-clock";
/// Rule identifier: thread-identity leak in a contract crate.
pub const RULE_DET_THREAD_ID: &str = "det-thread-id";
/// Rule identifier: accumulation inside a `rayon::par_map` or
/// `par_iter`-family statement, bypassing the order-preserving map.
pub const RULE_DET_FLOAT_ACCUM: &str = "det-float-accum";

/// One lint finding, anchored to a file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// One of the `RULE_*` identifiers.
    pub rule: &'static str,
    /// The offending source line (trimmed) or a description.
    pub text: String,
}

/// One `path[:line] rule reason…` allowlist entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// File the entry applies to, relative to the workspace root.
    pub path: String,
    /// Line the entry is pinned to; `None` covers the whole file.
    pub line: Option<usize>,
    /// Rule identifier it suppresses.
    pub rule: String,
    /// Human justification (free text).
    pub reason: String,
}

impl AllowEntry {
    /// `true` when this entry covers the violation.
    fn covers(&self, v: &Violation) -> bool {
        self.path == v.file && self.rule == v.rule && self.line.is_none_or(|l| l == v.line)
    }

    /// Rendering used in reports: `path[:line] rule`.
    fn label(&self) -> String {
        match self.line {
            Some(l) => format!("{}:{} {}", self.path, l, self.rule),
            None => format!("{} {}", self.path, self.rule),
        }
    }
}

/// A finding suppressed by an allowlist entry (kept for the JSON
/// archive, so post-mortems can see what the allowlist is carrying).
#[derive(Clone, Debug)]
pub struct Suppressed {
    /// The suppressed finding.
    pub violation: Violation,
    /// The allowlist entry's justification.
    pub reason: String,
}

/// Outcome of a lint pass over the workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings not covered by the allowlist. Non-empty fails CI.
    pub violations: Vec<Violation>,
    /// Findings suppressed by an allowlist entry.
    pub suppressed: usize,
    /// Suppressed findings with their justifications.
    pub suppressed_details: Vec<Suppressed>,
    /// Allowlist entries that suppressed nothing. Stale entries fail
    /// the lint: the allowlist can only shrink as code is fixed.
    pub unused_allowlist: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when no violation survived the allowlist and no allowlist
    /// entry is stale.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_allowlist.is_empty()
    }

    /// Multi-line human rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("{}:{}: [{}] {}\n", v.file, v.line, v.rule, v.text));
        }
        for e in &self.unused_allowlist {
            out.push_str(&format!(
                "stale allowlist entry (suppresses nothing — delete it): {e}\n"
            ));
        }
        out.push_str(&format!(
            "lint: {} files scanned, {} violations, {} suppressed by allowlist, {} stale allowlist entries\n",
            self.files_scanned,
            self.violations.len(),
            self.suppressed,
            self.unused_allowlist.len()
        ));
        out
    }

    /// Machine-readable rendering: one JSON object with every finding
    /// (surviving and suppressed), for `target/` archiving and
    /// post-mortem diffing.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"violations\": [\n");
        let vs: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"snippet\": {}}}",
                    json_str(v.rule),
                    json_str(&v.file),
                    v.line,
                    json_str(&v.text)
                )
            })
            .collect();
        out.push_str(&vs.join(",\n"));
        if !vs.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n  \"suppressed\": [\n");
        let ss: Vec<String> = self
            .suppressed_details
            .iter()
            .map(|s| {
                format!(
                    "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"snippet\": {}, \"reason\": {}}}",
                    json_str(s.violation.rule),
                    json_str(&s.violation.file),
                    s.violation.line,
                    json_str(&s.violation.text),
                    json_str(&s.reason)
                )
            })
            .collect();
        out.push_str(&ss.join(",\n"));
        if !ss.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n  \"stale_allowlist\": [");
        let st: Vec<String> = self.unused_allowlist.iter().map(|e| json_str(e)).collect();
        out.push_str(&st.join(", "));
        out.push_str("]\n}\n");
        out
    }
}

/// JSON string literal with the required escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs every rule over the workspace rooted at `root`.
///
/// Scans `crates/*/src/**/*.rs` and `src/**/*.rs`, skipping `tests/`,
/// `benches/`, `vendor/` and `target/`. The tag registry is parsed
/// textually from `crates/core/src/tags.rs`; the allowlist from
/// `crates/check/allowlist.txt` (both optional — missing files simply
/// disable the corresponding mechanism).
pub fn run(root: &Path) -> io::Result<LintReport> {
    let files = workspace_files(root)?;
    let tag_table = parse_tag_table(&root.join("crates/core/src/tags.rs"))?;
    let allowlist = parse_allowlist(&root.join("crates/check/allowlist.txt"))?;

    let mut all = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        let content = fs::read_to_string(path)?;
        all.extend(lint_source(&rel, &content, &tag_table));
    }

    let mut used = vec![false; allowlist.len()];
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for v in all {
        match allowlist.iter().position(|e| e.covers(&v)) {
            Some(i) => {
                used[i] = true;
                report.suppressed += 1;
                report.suppressed_details.push(Suppressed {
                    violation: v,
                    reason: allowlist[i].reason.clone(),
                });
            }
            None => report.violations.push(v),
        }
    }
    for (e, used) in allowlist.iter().zip(used) {
        if !used {
            report.unused_allowlist.push(e.label());
        }
    }
    Ok(report)
}

/// Lints one file's source with the token engine; returns raw findings
/// (no allowlist applied). This is the entry point the fixture corpus
/// tests drive directly.
pub fn lint_source(rel: &str, content: &str, tag_table: &[(String, u64)]) -> Vec<Violation> {
    let toks = lexer::lex(content);
    let ctx = FileCtx::new(rel, content, &toks, tag_table);
    let mut out = Vec::new();
    rules::run_all(&ctx, &mut out);
    out
}

/// The `.rs` files the lint scans, sorted: `crates/*/src/**` and
/// `src/**`, skipping `tests/`, `benches/`, `vendor/`, `target/`.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "vendor" | "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative rendering of `path`, forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Parses `(name, value)` pairs out of the tag-table source. Relies on
/// the "one field per line" convention documented on `TAG_TABLE`.
pub fn parse_tag_table(path: &Path) -> io::Result<Vec<(String, u64)>> {
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let content = fs::read_to_string(path)?;
    let mut pairs = Vec::new();
    let mut cur_name: Option<String> = None;
    for line in content.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("name: \"") {
            if let Some(end) = rest.find('"') {
                cur_name = Some(rest[..end].to_string());
            }
        } else if let Some(rest) = t.strip_prefix("value: ") {
            let num = rest.trim_end_matches(',').trim();
            if let (Some(name), Ok(value)) = (cur_name.take(), num.parse::<u64>()) {
                pairs.push((name, value));
            }
        }
    }
    Ok(pairs)
}

/// Parses the allowlist: one `path[:line] rule reason…` entry per line;
/// `#` comments and blank lines are skipped.
pub fn parse_allowlist(path: &Path) -> io::Result<Vec<AllowEntry>> {
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let content = fs::read_to_string(path)?;
    let mut entries = Vec::new();
    for line in content.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.splitn(3, char::is_whitespace);
        if let (Some(path_spec), Some(rule)) = (parts.next(), parts.next()) {
            // `path:line` pins the entry to one line; `.rs` paths always
            // end with a suffix, so a trailing `:<digits>` is unambiguous
            let (path, line) = match path_spec.rsplit_once(':') {
                Some((p, l)) if l.chars().all(|c| c.is_ascii_digit()) && !l.is_empty() => {
                    (p, l.parse::<usize>().ok())
                }
                _ => (path_spec, None),
            };
            entries.push(AllowEntry {
                path: path.to_string(),
                line,
                rule: rule.to_string(),
                reason: parts.next().unwrap_or("").trim().to_string(),
            });
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, src: &str) -> Vec<Violation> {
        let table = vec![("TAG_GOOD".to_string(), 7u64)];
        lint_source(rel, src, &table)
    }

    #[test]
    fn flags_unwrap_outside_tests() {
        let src = "fn f() {\n    let x = g().unwrap();\n}\n";
        let v = lint_str("crates/data/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNWRAP);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn ignores_test_modules_comments_and_strings() {
        let src = "\
// a comment mentioning x.unwrap() and rank.recv(None, None)
fn g() -> String {
    let s = \"docs may say panic!(never) or a.unwrap() safely\";
    s.to_string()
}
#[cfg(test)]
mod tests {
    fn f() {
        let x = g().unwrap();
        panic!(\"in tests this is fine\");
    }
}
";
        assert!(lint_str("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn flags_panics_except_in_mpisim() {
        let src = "fn f() {\n    panic!(\"boom\");\n    unreachable!();\n}\n";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == RULE_PANIC));
        assert!(lint_str("crates/mpisim/src/x.rs", src).is_empty());
    }

    #[test]
    fn flags_wildcard_and_untagged_receives() {
        let src = "fn f(rank: &mut Rank) {\n    let a = rank.recv(None, Some(3));\n    let b = rank.recv(Some(1), None);\n    let c = rank.recv(Some(1), Some(3));\n    let d = rank.try_recv(None, None);\n}\n";
        let v = lint_str("crates/kdtree/src/x.rs", src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == RULE_RECV));
    }

    #[test]
    fn recv_rule_sees_across_wrapped_lines() {
        // the engine matches the whole argument span, not one line
        let src = "fn f(rank: &mut Rank) {\n    let a = rank.recv(\n        None,\n        Some(3),\n    );\n}\n";
        let v = lint_str("crates/kdtree/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_RECV);
    }

    #[test]
    fn flags_direct_thread_spawns_except_in_mpisim() {
        let src = "fn f() {\n    let h = std::thread::spawn(|| {});\n    let b = std::thread::Builder::new();\n    scope.spawn_scoped(s, || {});\n}\n";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == RULE_SPAWN));
        // the simulator's rank scheduler is the legitimate spawner
        assert!(lint_str("crates/mpisim/src/x.rs", src).is_empty());
        // pool-mediated parallelism does not trip the rule
        let good = "fn f() {\n    rayon::with_num_threads(4, || rayon::par_map(n, || (), g));\n}\n";
        assert!(lint_str("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn flags_unregistered_tag_constants() {
        let good = "const TAG_GOOD: u64 = 7;\n";
        assert!(lint_str("crates/kdtree/src/x.rs", good).is_empty());
        let wrong_value = "const TAG_GOOD: u64 = 8;\n";
        assert_eq!(
            lint_str("crates/kdtree/src/x.rs", wrong_value)[0].rule,
            RULE_TAG
        );
        let unknown = "pub const TAG_ROGUE: u64 = 9;\n";
        assert_eq!(
            lint_str("crates/kdtree/src/x.rs", unknown)[0].rule,
            RULE_TAG
        );
    }

    #[test]
    fn flags_non_symbolic_send_tags() {
        let bad = "fn f(r: &mut Rank) {\n    r.send_bytes(0, 42, payload);\n    r.send_sized(0, 43, payload, 8, None);\n}\n";
        let v = lint_str("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == RULE_TAG));
        assert_eq!(v[1].line, 3, "send_sized is a send entry point");
        let good = "fn f(r: &mut Rank) {\n    r.send_bytes(0, TAG_GOOD, payload);\n    r.send_bytes(0, rtag, payload);\n    r.send_sized(0, TAG_GOOD, payload, 8, Some(t));\n}\n";
        assert!(lint_str("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn flags_undocumented_pub_items_in_registered_crates_only() {
        let src = "pub fn naked() {}\n\n/// Documented.\npub fn clothed() {}\n\npub use other::thing;\npub(crate) fn internal() {}\n";
        // vptree and kdtree joined the registry with the token engine
        for dir in [
            "crates/core/src",
            "crates/mpisim/src",
            "crates/serve/src",
            "crates/obs/src",
            "crates/data/src",
            "crates/hnsw/src",
            "crates/vptree/src",
            "crates/kdtree/src",
        ] {
            let v = lint_str(&format!("{dir}/x.rs"), src);
            assert_eq!(v.len(), 1, "{dir}: {v:?}");
            assert_eq!(v[0].rule, RULE_DOC);
            assert_eq!(v[0].line, 1);
        }
        // other crates are not under the doc rule
        assert!(lint_str("crates/check/src/x.rs", src).is_empty());
    }

    #[test]
    fn doc_rule_handles_multiline_attributes() {
        // wrapped attribute between the doc and the item
        let src = "/// Documented.\n#[deprecated(\n    note = \"old\",\n)]\npub fn old_one() {}\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn flags_every_search_batch_variant_including_deprecated_shims() {
        let fresh =
            "/// Documented, but still a new variant.\npub fn search_batch_faster(q: &Q) -> R {}\n";
        let v = lint_str("crates/core/src/x.rs", fresh);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_SEARCH_BATCH);
        // a deprecation attribute does not exempt a shim
        let shim = "/// Old entry point.\n#[deprecated(note = \"use the builder\")]\npub fn search_batch(q: &Q) -> R {}\n";
        let v = lint_str("crates/core/src/x.rs", shim);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_SEARCH_BATCH);
        // mentions in comments are fine
        let bench = "// docs may mention pub fn search_batch\n";
        assert!(lint_str("crates/bench/src/x.rs", bench).is_empty());
    }

    #[test]
    fn flags_exact_kernels_in_hnsw_but_not_elsewhere() {
        let src = "fn f(a: &[f32], b: &[f32]) -> f32 {\n    kernels::squared_l2(a, b)\n}\n";
        let v = lint_str("crates/hnsw/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_QUANT);
        assert_eq!(v[0].line, 2);
        // the same call is fine outside the HNSW crate and in comments
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
        let doc = "// re-ranking uses squared_l2(..)\n";
        assert!(lint_str("crates/hnsw/src/x.rs", doc).is_empty());
    }

    #[test]
    fn flags_metric_eval_inside_traversal_spans_only() {
        let src = "impl Hnsw {\n    fn search_layer(\n        &self,\n        q: &QueryDist<'_>,\n    ) -> Vec<Neighbor> {\n        let d = self.dist.eval(q, v);\n        d\n    }\n\n    fn link_back(&self) {\n        let d = self.dist.eval(a, b);\n    }\n}\n";
        let v = lint_str("crates/hnsw/src/x.rs", src);
        assert_eq!(v.len(), 1, "construction-time evals stay legal: {v:?}");
        assert_eq!(v[0].rule, RULE_QUANT);
        assert_eq!(v[0].line, 6);
        // traversal fns that stick to QueryDist dispatch are clean
        let good = "impl Hnsw {\n    fn search_layer(&self, q: &QueryDist<'_>) -> Vec<Neighbor> {\n        let d = self.d(q, id, scratch);\n        d\n    }\n}\n";
        assert!(lint_str("crates/hnsw/src/x.rs", good).is_empty());
    }

    #[test]
    fn doc_rule_sees_through_attributes() {
        let src = "/// Documented.\n#[derive(Clone)]\n#[repr(C)]\npub struct S;\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn det_map_iter_flags_unannotated_hash_traversal() {
        let src = "\
fn f() {
    let mut seen = std::collections::HashSet::new();
    seen.insert(1);
    for s in seen {
        use_it(s);
    }
}
";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_MAP_ITER);
        assert_eq!(v[0].line, 4);
        // the same traversal with a det:fold annotation is sanctioned
        let annotated = src.replace(
            "for s in seen {",
            "// det:fold — commutative: each element lands in its own slot\n    for s in seen {",
        );
        assert!(lint_str("crates/core/src/x.rs", &annotated).is_empty());
        // contract scope: the check crate itself is exempt
        assert!(lint_str("crates/check/src/x.rs", src).is_empty());
    }

    #[test]
    fn det_map_iter_flags_methods_and_fields() {
        let src = "\
struct S {
    map: HashMap<u64, usize>,
}
impl S {
    fn g(&self) -> Vec<u64> {
        self.map.keys().copied().collect()
    }
}
";
        let v = lint_str("crates/serve/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_MAP_ITER);
        // lookups and size probes stay clean
        let good = "\
struct S {
    map: HashMap<u64, usize>,
}
impl S {
    fn g(&self) -> usize {
        self.map.get(&1).copied().unwrap_or(0) + self.map.len()
    }
}
";
        assert!(lint_str("crates/serve/src/x.rs", good).is_empty());
    }

    #[test]
    fn det_wall_clock_flags_contract_crates_only() {
        let src = "fn f() -> u128 {\n    let t0 = std::time::Instant::now();\n    t0.elapsed().as_nanos()\n}\n";
        let v = lint_str("crates/obs/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_WALL_CLOCK);
        assert_eq!(v[0].line, 2);
        // the bench crate measures the real host by design
        assert!(lint_str("crates/bench/src/bin/perf.rs", src).is_empty());
    }

    #[test]
    fn det_thread_id_flags_identity_leaks() {
        let src = "fn f() -> usize {\n    std::thread::available_parallelism().map_or(1, usize::from)\n}\n";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_THREAD_ID);
        let src2 = "fn g() {\n    let id = std::thread::current().id();\n}\n";
        let v2 = lint_str("crates/core/src/x.rs", src2);
        assert_eq!(v2.len(), 1, "{v2:?}");
        assert_eq!(v2[0].rule, RULE_DET_THREAD_ID);
    }

    #[test]
    fn det_float_accum_flags_par_side_reduction() {
        let src = "\
fn f(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    xs.par_iter().for_each(|x| {
        acc += x;
    });
    acc
}
";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_FLOAT_ACCUM);
        // the chunked idiom — par map/collect, sequential fold — is clean
        let good = "\
fn f(xs: &[f32]) -> f32 {
    let parts: Vec<f32> = xs.par_iter().map(|x| x * 2.0).collect();
    let mut acc = 0.0f32;
    for p in parts {
        acc += p;
    }
    acc
}
";
        assert!(lint_str("crates/core/src/x.rs", good).is_empty());
        // par-side sum() bypasses the idiom even without a captured var
        let sum = "fn f(xs: &[f32]) -> f32 {\n    xs.par_iter().sum::<f32>()\n}\n";
        let v = lint_str("crates/core/src/x.rs", sum);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_FLOAT_ACCUM);
    }

    #[test]
    fn det_float_accum_covers_the_vendored_par_map() {
        let src = "\
fn f(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    rayon::par_map(xs.len(), || (), |(), i| {
        acc += xs[i];
    });
    acc
}
";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_FLOAT_ACCUM);
        assert_eq!(v[0].line, 4, "{v:?}");
        // results in item order, then a sequential fold, is clean
        let good = "\
fn f(xs: &[f32]) -> f32 {
    let parts: Vec<f32> = rayon::par_map(xs.len(), || (), |(), i| xs[i] * 2.0);
    parts.iter().fold(0.0, |a, b| a + b)
}
";
        assert!(lint_str("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn allowlist_supports_file_and_line_granularity() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("fastann-check-lint-{}", std::process::id()));
        let src_dir = dir.join("crates/x/src");
        fs::create_dir_all(&src_dir).expect("temp tree is creatable");
        fs::create_dir_all(dir.join("crates/check")).expect("temp tree is creatable");
        let mut f = fs::File::create(src_dir.join("lib.rs")).expect("temp file is creatable");
        writeln!(f, "fn f() {{\n    g().unwrap();\n    h().unwrap();\n}}").expect("write succeeds");
        // file-granular entry covers both findings
        fs::write(
            dir.join("crates/check/allowlist.txt"),
            "crates/x/src/lib.rs no-unwrap temp fixture\n",
        )
        .expect("allowlist is writable");
        let report = run(&dir).expect("lint runs");
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.suppressed, 2);
        // line-granular entry covers exactly its line
        fs::write(
            dir.join("crates/check/allowlist.txt"),
            "crates/x/src/lib.rs:2 no-unwrap only the first one\n",
        )
        .expect("allowlist is writable");
        let report = run(&dir).expect("lint runs");
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].line, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_allowlist_entries_fail_the_lint() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("fastann-check-stale-{}", std::process::id()));
        let src_dir = dir.join("crates/x/src");
        fs::create_dir_all(&src_dir).expect("temp tree is creatable");
        fs::create_dir_all(dir.join("crates/check")).expect("temp tree is creatable");
        let mut f = fs::File::create(src_dir.join("lib.rs")).expect("temp file is creatable");
        writeln!(f, "fn f() {{}}").expect("write succeeds");
        fs::write(
            dir.join("crates/check/allowlist.txt"),
            "crates/x/src/lib.rs no-panic stale entry\n",
        )
        .expect("allowlist is writable");
        let report = run(&dir).expect("lint runs");
        assert!(!report.is_clean(), "a stale entry must fail the lint");
        assert!(report.violations.is_empty());
        assert_eq!(
            report.unused_allowlist,
            vec!["crates/x/src/lib.rs no-panic".to_string()]
        );
        assert!(report.render().contains("stale allowlist entry"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_rendering_escapes_and_lists_findings() {
        let report = LintReport {
            violations: vec![Violation {
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: RULE_UNWRAP,
                text: "g(\"quote\\\").unwrap();".to_string(),
            }],
            suppressed: 1,
            suppressed_details: vec![Suppressed {
                violation: Violation {
                    file: "crates/y/src/lib.rs".to_string(),
                    line: 9,
                    rule: RULE_PANIC,
                    text: "panic!(\"boom\")".to_string(),
                },
                reason: "fatal by design".to_string(),
            }],
            unused_allowlist: vec![],
            files_scanned: 2,
        };
        let json = report.render_json();
        assert!(json.contains("\"files_scanned\": 2"), "{json}");
        assert!(json.contains("\\\"quote\\\\\\\""), "{json}");
        assert!(json.contains("\"reason\": \"fatal by design\""), "{json}");
        assert!(json.contains("\"stale_allowlist\": []"), "{json}");
    }
}
