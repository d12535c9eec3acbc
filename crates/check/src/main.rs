//! `fastann-check` CLI — the CI entry points of the correctness tooling.
//!
//! ```text
//! fastann-check lint [--root PATH] [--json FILE]  # workspace source lint
//! fastann-check race [--k N] [--seed S]           # race smoke: one batch, then a stream
//! ```
//!
//! `--json` additionally writes the full report (violations, suppressed
//! findings with reasons, stale allowlist entries) as machine-readable
//! JSON, which CI archives under `target/` for post-mortem diffing.
//!
//! Both subcommands exit non-zero on findings, so `ci.sh` can gate on
//! them directly.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fastann_check::{lint, race};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("race") => run_race(&args[1..]),
        _ => {
            eprintln!(
                "usage: fastann-check lint [--root PATH] [--json FILE]\n       fastann-check race [--k N] [--seed S]"
            );
            ExitCode::from(2)
        }
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let root = match flag_value(args, "--root") {
        Some(p) => PathBuf::from(p),
        // the binary lives in crates/check; the workspace root is two up
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    match lint::run(&root) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(json_path) = flag_value(args, "--json") {
                let path = std::path::Path::new(json_path);
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        if let Err(e) = std::fs::create_dir_all(parent) {
                            eprintln!(
                                "fastann-check lint: cannot create {}: {e}",
                                parent.display()
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if let Err(e) = std::fs::write(path, report.render_json()) {
                    eprintln!("fastann-check lint: cannot write {json_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if report.files_scanned == 0 {
                // a bad --root (or wrong cwd) must not green-light CI
                eprintln!(
                    "fastann-check lint: no source files under {}",
                    root.display()
                );
                return ExitCode::FAILURE;
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fastann-check lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_race(args: &[String]) -> ExitCode {
    let k = flag_value(args, "--k")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8);
    let seed = flag_value(args, "--seed")
        .and_then(parse_u64)
        .unwrap_or(0x5EED);
    let engine = race::explore(k, seed, race::engine_workload());
    let stream = race::explore(k, seed, race::stream_workload());
    let mut clean = true;
    for (name, report) in [("one batch", engine), ("batch stream", stream)] {
        println!("workload: {name}");
        print!("{}", report.render());
        clean &= report.is_clean();
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}
