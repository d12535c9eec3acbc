//! Fixture corpus: one positive (must fire) and one negative (must stay
//! silent) source file per rule, driven through [`lint::lint_source`].
//! A positive fixture marks every line its rule must flag with a trailing
//! `//~ fires`, and the rule must flag those lines and no others, so a
//! finding that lands elsewhere in the file does not count.
//!
//! The negatives double as blind-spot regressions for the token engine:
//! needles inside string literals and comments, `#[cfg(test)]` modules,
//! annotated hash traversals, block docs behind multi-line attributes.
//! A fixture is linted *as if* it lived at the rel path in [`CASES`], so
//! crate-scoped rules (doc crates, contract crates, hnsw) see the right
//! scope without the fixture living there.

use std::fs;
use std::path::Path;

use fastann_check::lint;
use fastann_check::rules::ALL_RULES;

/// (rule, fixture dir under `tests/fixtures/`, rel path linted as).
const CASES: [(&str, &str, &str); 12] = [
    ("no-unwrap", "no-unwrap", "crates/core/src/fixture.rs"),
    ("no-panic", "no-panic", "crates/core/src/fixture.rs"),
    (
        "no-thread-spawn",
        "no-thread-spawn",
        "crates/core/src/fixture.rs",
    ),
    (
        "wildcard-recv",
        "wildcard-recv",
        "crates/kdtree/src/fixture.rs",
    ),
    (
        "tag-registry",
        "tag-registry",
        "crates/kdtree/src/fixture.rs",
    ),
    ("missing-doc", "missing-doc", "crates/core/src/fixture.rs"),
    (
        "search-batch-variant",
        "search-batch-variant",
        "crates/core/src/fixture.rs",
    ),
    (
        "quantized-traversal",
        "quantized-traversal",
        "crates/hnsw/src/fixture.rs",
    ),
    ("det-map-iter", "det-map-iter", "crates/core/src/fixture.rs"),
    (
        "det-wall-clock",
        "det-wall-clock",
        "crates/obs/src/fixture.rs",
    ),
    (
        "det-thread-id",
        "det-thread-id",
        "crates/serve/src/fixture.rs",
    ),
    (
        "det-float-accum",
        "det-float-accum",
        "crates/core/src/fixture.rs",
    ),
];

/// The fixture's source text.
fn read_fixture(dir: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(format!("{which}.rs"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn lint_fixture(dir: &str, which: &str, rel: &str) -> Vec<lint::Violation> {
    let tags = vec![("TAG_GOOD".to_string(), 7u64)];
    lint::lint_source(rel, &read_fixture(dir, which), &tags)
}

/// The 1-based lines a positive fixture declares must fire: each ends in
/// a `//~ fires` marker.
fn declared_lines(content: &str) -> Vec<usize> {
    content
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_end().ends_with("//~ fires"))
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn every_rule_fires_on_its_positive_fixture() {
    for (rule, dir, rel) in CASES {
        let want = declared_lines(&read_fixture(dir, "positive"));
        assert!(!want.is_empty(), "{dir}/positive.rs declares no line");
        let found = lint_fixture(dir, "positive", rel);
        let mut got: Vec<usize> = found
            .iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect();
        got.sort_unstable();
        assert_eq!(
            got, want,
            "{dir}/positive.rs: [{rule}] finding lines differ from the declared ones; findings: {found:?}"
        );
    }
}

#[test]
fn every_rule_stays_silent_on_its_negative_fixture() {
    for (rule, dir, rel) in CASES {
        let found = lint_fixture(dir, "negative", rel);
        let hits: Vec<_> = found.iter().filter(|v| v.rule == rule).collect();
        assert!(
            hits.is_empty(),
            "{dir}/negative.rs: expected no [{rule}] findings, got: {hits:?}"
        );
    }
}

#[test]
fn corpus_covers_every_rule() {
    for rule in ALL_RULES {
        assert!(
            CASES.iter().any(|(r, _, _)| *r == rule),
            "no fixture case for rule [{rule}]"
        );
    }
}
