//! End-to-end tests of the `mdlump-cli` binary: exit codes and output
//! routing only exist at the process boundary, so they are checked by
//! actually running the compiled binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn model(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../models")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdlump-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn expired_deadline_exits_with_distinct_code_and_message() {
    let path = model("worker_pool.mdl");
    let out = run(&["solve", path.to_str().unwrap(), "--deadline", "0ms"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interrupted"), "{stderr}");
}

#[test]
fn fallback_with_report_solves_and_prints_attempts() {
    let path = model("worker_pool.mdl");
    let out = run(&["solve", path.to_str().unwrap(), "--fallback", "--report"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("solve attempts:"), "{stdout}");
    assert!(stdout.contains("cross-check"), "{stdout}");
}

/// A temp path that cleans up after itself, so parallel test runs and
/// repeated invocations never collide or leak.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!(
            "mdl-cli-bin-{tag}-{}-{:?}",
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

#[test]
fn interrupted_run_still_writes_complete_metrics() {
    // The JSONL metrics stream must be flushed on *every* exit path:
    // a run that blew its deadline (exit code 2) is exactly the run
    // whose telemetry someone will want to read.
    let path = model("worker_pool.mdl");
    let out_file = TempFile::new("metrics");
    let out = run(&[
        "solve",
        path.to_str().unwrap(),
        "--deadline",
        "0ms",
        "--metrics",
        "json",
        "--metrics-out",
        out_file.0.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let metrics = std::fs::read_to_string(&out_file.0).expect("metrics file written");
    assert!(!metrics.trim().is_empty(), "metrics file has content");
    let mut kinds = std::collections::HashSet::new();
    for line in metrics.lines() {
        let parsed = mdl_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("metrics line is valid JSON ({e}): {line}"));
        if let Some(t) = parsed.get("type").and_then(mdl_obs::json::Json::as_str) {
            kinds.insert(t.to_owned());
        }
    }
    // The final report (counters and/or histograms) made it out, not
    // just the live span stream.
    assert!(
        kinds.contains("counter") || kinds.contains("histogram"),
        "final report flushed on the interrupted path: {kinds:?}"
    );
}

/// A generated model with one component large enough (>= 64 states) to
/// cross the lump key phase's parallel threshold, so worker threads
/// show up in the trace.
fn large_model(states: usize) -> String {
    let mut m = String::new();
    m.push_str(&format!("component big {states}\n"));
    m.push_str("component aux 2\n");
    for i in 0..states - 1 {
        m.push_str(&format!(
            "event up{i} rate 1.0\nfactor big {i} {} 1.0\n",
            i + 1
        ));
    }
    m.push_str(&format!(
        "event reset rate 2.0\nfactor big {} 0 1.0\n",
        states - 1
    ));
    m.push_str("event flip rate 0.5\nfactor aux 0 1 1.0\n");
    m.push_str("event flop rate 0.5\nfactor aux 1 0 1.0\n");
    m.push_str("reward sum\ndefault big 0.0\nvalue big 0 1.0\ndefault aux 0.0\n");
    m
}

#[test]
fn profile_out_writes_chrome_trace_with_nested_stages_and_workers() {
    let model_file = TempFile::new("model");
    std::fs::write(&model_file.0, large_model(80)).unwrap();
    let trace_file = TempFile::new("trace");
    // A transient measure keeps the kernel-product count bounded (the
    // stationary power iteration on this slowly-mixing model would
    // flood the trace ring with leaf spans).
    let out = run(&[
        "solve",
        model_file.0.to_str().unwrap(),
        "--transient",
        "0.5",
        "--threads",
        "2",
        "--profile-out",
        trace_file.0.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = std::fs::read_to_string(&trace_file.0).expect("trace file written");
    let doc = mdl_obs::json::parse(&json).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(mdl_obs::json::Json::as_array)
        .expect("traceEvents array");

    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(mdl_obs::json::Json::as_str) == Some("X"))
        .collect();
    let name_of = |e: &&mdl_obs::json::Json| {
        e.get("name")
            .and_then(mdl_obs::json::Json::as_str)
            .unwrap_or("")
            .to_owned()
    };
    let names: std::collections::HashSet<String> = complete.iter().map(&name_of).collect();
    for stage in [
        "pipeline.build",
        "pipeline.lump",
        "pipeline.compile",
        "pipeline.solve",
        "pipeline.measure",
    ] {
        assert!(names.contains(stage), "trace has {stage}: {names:?}");
    }

    // Spans nest: every non-root parent id resolves to a recorded event.
    let ids: std::collections::HashSet<u64> = complete
        .iter()
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("id"))
                .and_then(mdl_obs::json::Json::as_u64)
        })
        .collect();
    let mut nested = 0;
    for e in &complete {
        let parent = e
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(mdl_obs::json::Json::as_u64)
            .expect("args.parent present");
        if parent != 0 {
            nested += 1;
            assert!(ids.contains(&parent), "parent {parent} recorded");
        }
    }
    assert!(nested > 0, "trace contains nested spans");

    // Worker threads are attributed to their parent stage: pool.worker
    // events live on non-main tids and point at a recorded parent span.
    let workers: Vec<_> = complete
        .iter()
        .filter(|e| name_of(e) == "pool.worker")
        .collect();
    assert!(
        !workers.is_empty(),
        "parallel phases put workers in the trace"
    );
    for w in &workers {
        let tid = w.get("tid").and_then(mdl_obs::json::Json::as_u64).unwrap();
        assert_ne!(tid, 1, "pool.worker runs off the main thread");
        let parent = w
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(mdl_obs::json::Json::as_u64)
            .unwrap();
        assert!(
            ids.contains(&parent),
            "worker attributes to a recorded span"
        );
    }

    // Thread-name metadata lets trace viewers label the rows.
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(mdl_obs::json::Json::as_str) == Some("M")
                && e.get("name").and_then(mdl_obs::json::Json::as_str) == Some("thread_name")
        }),
        "thread_name metadata present"
    );
}

#[test]
fn ordinary_failures_exit_one() {
    let path = model("worker_pool.mdl");
    let out = run(&["solve", path.to_str().unwrap(), "--deadline"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--deadline needs a value"), "{stderr}");

    let out = run(&["frobnicate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // A mistyped flag is an error, not a run with the default setting.
    for flags in [&["--bound"][..], &["--tolerence", "2"]] {
        let out = run(&[&["solve", path.to_str().unwrap()][..], flags].concat());
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = format!("unknown flag {}", flags[0]);
        assert!(stderr.contains(&expected), "{stderr}");
    }
}
