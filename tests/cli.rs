//! End-to-end test of the `fastann` command-line binary: build → search →
//! ground truth → eval, all through the TEXMEX file formats.

use std::process::Command;

fn fastann() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastann"))
}

fn write_fvecs(path: &std::path::Path, data: &fastann::data::VectorSet) {
    fastann::data::io::write_fvecs(path, data).expect("write fvecs");
}

#[test]
fn cli_full_pipeline() {
    let dir = std::env::temp_dir().join(format!("fastann_cli_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.fvecs");
    let queries = dir.join("q.fvecs");
    let idx = dir.join("x.idx");
    let approx = dir.join("approx.ivecs");
    let truth = dir.join("truth.ivecs");

    let data = fastann::data::synth::sift_like(2_000, 12, 501);
    write_fvecs(&base, &data);
    write_fvecs(
        &queries,
        &fastann::data::synth::queries_near(&data, 30, 0.02, 502),
    );

    let ok = |mut c: Command| {
        let out = c.output().expect("spawn fastann CLI");
        assert!(
            out.status.success(),
            "command failed: {}\n{}",
            String::from_utf8_lossy(&out.stderr),
            String::from_utf8_lossy(&out.stdout)
        );
        out
    };

    let mut c = fastann();
    c.args(["build", base.to_str().unwrap(), idx.to_str().unwrap()])
        .args(["--cores", "8", "--per-node", "2", "--m", "8", "--efc", "40"]);
    ok(c);
    assert!(idx.exists(), "index file written");

    let mut c = fastann();
    c.args([
        "search",
        idx.to_str().unwrap(),
        queries.to_str().unwrap(),
        approx.to_str().unwrap(),
    ])
    .args(["--k", "5", "--ef", "64"]);
    ok(c);

    let mut c = fastann();
    c.args([
        "gt",
        base.to_str().unwrap(),
        queries.to_str().unwrap(),
        truth.to_str().unwrap(),
    ])
    .args(["--k", "5"]);
    ok(c);

    let mut c = fastann();
    c.args([
        "eval",
        approx.to_str().unwrap(),
        truth.to_str().unwrap(),
        "--k",
        "5",
    ]);
    let out = ok(c);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let recall: f64 = stdout
        .split("mean ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("cannot parse recall from: {stdout}"));
    assert!(recall > 0.5, "CLI pipeline recall too low: {recall}");

    // stats smoke test
    let mut c = fastann();
    c.args(["stats", base.to_str().unwrap(), "--sample", "50"]);
    let out = ok(c);
    assert!(String::from_utf8_lossy(&out.stdout).contains("intrinsic dim"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_unknown_command() {
    let out = fastann().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn cli_usage_on_no_args() {
    let out = fastann().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn cli_rejects_query_dimension_mismatch() {
    let dir = std::env::temp_dir().join(format!("fastann_cli_dim_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.fvecs");
    let queries = dir.join("q8.fvecs");
    let idx = dir.join("x.idx");
    let out_path = dir.join("out.ivecs");
    write_fvecs(&base, &fastann::data::synth::sift_like(500, 16, 503));
    write_fvecs(&queries, &fastann::data::synth::sift_like(5, 8, 504));

    let built = fastann()
        .args(["build", base.to_str().unwrap(), idx.to_str().unwrap()])
        .args(["--cores", "4", "--per-node", "2"])
        .output()
        .expect("spawn");
    assert!(built.status.success(), "build failed");

    // search against the 16-d index and exact k-NN against the 16-d base
    // both refuse the 8-d queries with a message and exit 1, not a panic
    for (cmd, first, against) in [("search", &idx, "index"), ("gt", &base, "base")] {
        let out = fastann()
            .args([
                cmd,
                first.to_str().unwrap(),
                queries.to_str().unwrap(),
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{cmd} exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "fastann: query dimension 8 does not match {against} dimension 16"
            )),
            "{cmd} stderr: {stderr}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
