//! End-to-end tests of the `report` benchmark-baseline binary: the
//! baseline file format and the regression gate's exit code only exist
//! at the process boundary.

use std::path::PathBuf;
use std::process::{Command, Output};

use mdl_obs::json::{self, Json};

struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!(
            "mdl-bench-report-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_report"));
    cmd.args(args)
        .env_remove("MDL_BENCH_JSONL")
        .env_remove("MDL_FAILPOINTS")
        .env_remove("MDL_BENCH_REV");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("report binary runs")
}

#[test]
fn baseline_emits_versioned_metrics_and_gate_flags_injected_slowdown() {
    let baseline = TempFile::new("baseline");
    let out = run(
        &[
            "--smoke",
            "--reps",
            "1",
            "--rev",
            "testrev",
            "--out",
            baseline.0.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The baseline file: one meta line plus one bench_metric per line,
    // all valid JSON, with wall-time and peak-memory fields.
    let text = std::fs::read_to_string(&baseline.0).expect("baseline written");
    let mut names = Vec::new();
    let mut meta_rev = None;
    for line in text.lines() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("bad line ({e}): {line}"));
        match doc.get("type").and_then(Json::as_str) {
            Some("bench_meta") => {
                meta_rev = doc.get("rev").and_then(Json::as_str).map(str::to_owned);
            }
            Some("bench_metric") => {
                assert!(doc.get("wall_ns").and_then(Json::as_u64).is_some());
                assert!(doc.get("peak_bytes").and_then(Json::as_u64).is_some());
                names.push(
                    doc.get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .to_owned(),
                );
            }
            other => panic!("unexpected record type {other:?}: {line}"),
        }
    }
    assert_eq!(meta_rev.as_deref(), Some("testrev"));
    for expected in [
        "build.tandem",
        "lump.ordinary",
        "compile.kernel",
        "kernel.walk.product",
        "kernel.compiled.product",
        "solve.stationary.lumped",
        "sweep.naive",
        "sweep.cold",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "metric {expected} present"
        );
    }
    // The counting allocator is installed in this binary, so pipeline
    // stages must report real allocation peaks.
    let doc = json::parse(
        text.lines()
            .find(|l| l.contains("build.tandem"))
            .expect("build metric line"),
    )
    .unwrap();
    assert!(
        doc.get("peak_bytes").and_then(Json::as_u64).unwrap_or(0) > 0,
        "build.tandem reports a nonzero peak"
    );

    // Gate sanity: a re-run with an absurdly loose threshold passes …
    let out2 = TempFile::new("out2");
    let pass = run(
        &[
            "--smoke",
            "--reps",
            "1",
            "--check",
            baseline.0.to_str().unwrap(),
            "--max-wall-regress",
            "100000",
            "--max-mem-regress",
            "100000",
            "--out",
            out2.0.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(pass.status.code(), Some(0), "loose gate passes: {pass:?}");

    // … and an injected per-rep sleep makes the default gate fail: the
    // acceptance check that the regression harness actually bites.
    let out3 = TempFile::new("out3");
    let fail = run(
        &[
            "--smoke",
            "--reps",
            "1",
            "--check",
            baseline.0.to_str().unwrap(),
            "--out",
            out3.0.to_str().unwrap(),
        ],
        &[("MDL_FAILPOINTS", "bench.rep=sleep:400ms")],
    );
    assert_eq!(
        fail.status.code(),
        Some(1),
        "injected slowdown flagged: {fail:?}"
    );
    let stderr = String::from_utf8_lossy(&fail.stderr);
    assert!(stderr.contains("regression"), "{stderr}");
}

#[test]
fn a_mistyped_flag_is_an_error_not_a_skipped_gate() {
    let out = run(&["--smoke", "--chek", "BENCH_seed.json"], &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --chek"), "{stderr}");
}
