//! Acceptance tests for the staged pipeline cache and checkpoint/resume
//! flow, driven through the compiled binary: an interrupted stationary
//! solve resumed from its snapshot must match the uninterrupted answer,
//! and a second run against a warm cache must hit every stage.

use std::path::PathBuf;
use std::process::{Command, Output};

fn model_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../models")
        .join("worker_pool.mdl")
}

/// A fresh per-test scratch path (cleared if a previous run left it).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdl-cache-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary with the host's `MDL_CACHE` scrubbed so only the
/// test's own flags decide where artifacts go.
fn run_with(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mdlump-cli"));
    cmd.args(args).env_remove("MDL_CACHE");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

/// Extracts the lumped measure value from a solve's stdout.
fn measure_value(out: &Output) -> f64 {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("measure (Stationary):"))
        .unwrap_or_else(|| panic!("no measure line in {stdout:?}"));
    line.rsplit(':')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("unparsable measure in {line:?}: {e}"))
}

/// Reads a counter value out of a JSONL metrics report, `None` when the
/// counter never fired in that process.
fn counter(jsonl: &str, name: &str) -> Option<u64> {
    let tag = format!("\"name\":\"{name}\"");
    jsonl
        .lines()
        .find(|l| l.contains("\"type\":\"counter\"") && l.contains(&tag))
        .map(|l| {
            l.rsplit("\"value\":")
                .next()
                .unwrap()
                .trim_end_matches('}')
                .parse()
                .unwrap_or_else(|e| panic!("unparsable counter in {l:?}: {e}"))
        })
}

#[test]
fn interrupted_solve_resumes_to_the_uninterrupted_answer() {
    let model = model_path();
    let model = model.to_str().unwrap();
    let cache = scratch("resume");
    let cache_str = cache.to_str().unwrap();

    // The reference answer: no cache, no interruption.
    let baseline = run_with(&["solve", model], &[]);
    assert_eq!(baseline.status.code(), Some(0), "{baseline:?}");
    let expected = measure_value(&baseline);

    // Interrupt mid-solve: the failpoint stretches every stationary
    // iteration by 20ms, so by the solver's iteration-33 budget check
    // at least 640ms have passed and the 400ms deadline has long
    // expired (the un-delayed build/lump/compile stages finish well
    // inside it). `--checkpoint-every 1` snapshots each iteration plus
    // a forced one on the way out.
    let interrupted = run_with(
        &[
            "solve",
            model,
            "--cache-dir",
            cache_str,
            "--checkpoint-every",
            "1",
            "--deadline",
            "400ms",
        ],
        &[("MDL_FAILPOINTS", "solver.iterate=sleep:20ms")],
    );
    assert_eq!(interrupted.status.code(), Some(2), "{interrupted:?}");
    let stderr = String::from_utf8_lossy(&interrupted.stderr);
    assert!(stderr.contains("interrupted"), "{stderr}");

    // Resume from the snapshot (no failpoint this time) and land on the
    // same answer as the never-interrupted run.
    let resumed = run_with(&["solve", model, "--cache-dir", cache_str, "--resume"], &[]);
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resuming from checkpoint ("), "{stdout}");
    let got = measure_value(&resumed);
    assert!(
        (got - expected).abs() <= 1e-10,
        "resumed {got} vs uninterrupted {expected}"
    );

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn warm_cache_run_hits_every_stage() {
    let model = model_path();
    let model = model.to_str().unwrap();
    // The ordinary lump's kernel and solve stages, and the exact lump's
    // own measure stage.
    for (tag, extra) in [("ordinary", &[][..]), ("exact", &["--exact"][..])] {
        let cache = scratch(&format!("warm-{tag}"));
        let cache_str = cache.to_str().unwrap();
        let cold_metrics = scratch(&format!("warm-{tag}-metrics-cold"));
        let warm_metrics = scratch(&format!("warm-{tag}-metrics-warm"));

        let solve = |metrics_out: &PathBuf| {
            let mut args = vec![
                "solve",
                model,
                "--cache-dir",
                cache_str,
                "--metrics",
                "json",
                "--metrics-out",
                metrics_out.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            run_with(&args, &[])
        };

        let cold = solve(&cold_metrics);
        assert_eq!(cold.status.code(), Some(0), "{cold:?}");
        let cold_report = std::fs::read_to_string(&cold_metrics).expect("cold metrics written");
        // The cold run populates the cache and reports the model's footprint.
        assert!(
            counter(&cold_report, "store.write_bytes").unwrap_or(0) > 0,
            "{cold_report}"
        );
        assert!(
            counter(&cold_report, "md.memory_bytes").unwrap_or(0) > 0,
            "{cold_report}"
        );
        assert!(
            counter(&cold_report, "mdd.memory_bytes").unwrap_or(0) > 0,
            "{cold_report}"
        );

        let warm = solve(&warm_metrics);
        assert_eq!(warm.status.code(), Some(0), "{warm:?}");
        assert_eq!(
            warm.stdout, cold.stdout,
            "{tag}: warm output must be identical"
        );
        let warm_report = std::fs::read_to_string(&warm_metrics).expect("warm metrics written");
        // Every stage — build, lump, compile, solve, measures — comes out
        // of the cache: nothing misses, nothing is rewritten.
        assert!(
            counter(&warm_report, "store.hit").unwrap_or(0) >= 5,
            "{warm_report}"
        );
        assert_eq!(
            counter(&warm_report, "store.miss").unwrap_or(0),
            0,
            "{warm_report}"
        );
        assert_eq!(
            counter(&warm_report, "store.write_bytes").unwrap_or(0),
            0,
            "{warm_report}"
        );

        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_file(&cold_metrics);
        let _ = std::fs::remove_file(&warm_metrics);
    }
}
