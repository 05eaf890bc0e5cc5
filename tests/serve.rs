//! Acceptance suite for the `mdl-serve` daemon: concurrent clients
//! against a failpoint-injected in-process server.
//!
//! The contract under test is the trichotomy: every request terminates
//! in exactly one of a correct result (`"ok"`), an honest structured
//! error (`"error"`), or a shed-with-retry (`"shed"`) — never a hang,
//! never a corrupt cache. Success responses are additionally checked
//! bit-for-bit against a direct library solve of the same model, so
//! the daemon can never drift from the one-shot pipeline.
//!
//! Failpoints and the shutdown signal are process-global, so every
//! test serializes on `mdl_obs::testing::guard()`.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use mdl_cli::commands::{certified_bounds, Measure};
use mdl_core::{
    model_source_key, KernelKind, KernelOptions, LumpKind, LumpRequest, Pipeline, SolveOutcome,
    SolveRequest, Staged,
};
use mdl_ctmc::{SolverOptions, TransientOptions};
use mdl_linalg::Tolerance;
use mdl_obs::json::{self, Json, JsonObject};
use mdl_obs::Budget;
use mdl_serve::client::{Client, SolveLine};
use mdl_serve::server::{Server, ServerConfig, MAX_REQUEST_LINE};
use mdl_serve::EXAMPLE_MODEL;

/// A per-test scratch cache directory (no tempdir crate; the daemon's
/// drain sweep and the debris assertions need a real path).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdl-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(cfg: ServerConfig) -> Server {
    mdl_obs::set_enabled(true);
    Server::start(cfg).expect("server starts")
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(&server.local_addr().to_string()).expect("connect");
    // No request in this suite should take anywhere near this long;
    // the bound turns a hang into a loud test failure.
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

/// Parses a response line and asserts the status trichotomy plus the
/// per-status structural invariants. Returns the parsed JSON.
fn assert_trichotomy(line: &str) -> Json {
    let parsed = json::parse(line).unwrap_or_else(|e| panic!("bad response JSON {line:?}: {e}"));
    let status = parsed
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("response without status: {line}"));
    match status {
        "ok" => {}
        "error" => {
            let kind = parsed
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("error without kind: {line}"));
            assert!(
                ["bad-request", "interrupted", "failed", "internal"].contains(&kind),
                "unknown error kind {kind:?}"
            );
            let detail = parsed.get("detail").and_then(Json::as_str).unwrap_or("");
            assert!(!detail.is_empty(), "error without detail: {line}");
        }
        "shed" => {
            let reason = parsed
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("shed without reason: {line}"));
            assert!(
                ["queue-full", "tenant-cap", "draining"].contains(&reason),
                "unknown shed reason {reason:?}"
            );
            assert!(
                parsed
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .is_some(),
                "shed without retry_after_ms: {line}"
            );
        }
        other => panic!("status {other:?} violates the trichotomy: {line}"),
    }
    parsed
}

/// The one-shot library solve the daemon must match bit-for-bit: the
/// same staged pipeline (build → lump → compile → solve → expected
/// reward, or the exact lump's own measures) with the same solver
/// options the server uses.
fn library_measure(kind: LumpKind, measure: Measure) -> f64 {
    let parsed = mdl_cli::parse_model(EXAMPLE_MODEL).unwrap();
    let pipeline = Pipeline::new(model_source_key(EXAMPLE_MODEL));
    let built = pipeline.build(|| Ok(parsed.build()?)).unwrap();
    let lumped = pipeline.lump(&built, &LumpRequest::new(kind)).unwrap();
    let sopts = SolverOptions {
        tolerance: 1e-12,
        ..SolverOptions::default()
    };
    if kind == LumpKind::Exact {
        let measures = lumped.value.exact_measures().unwrap();
        let topts = TransientOptions::default();
        return match measure {
            Measure::Stationary => measures.expected_stationary_reward(&sopts),
            Measure::Transient(t) => measures.expected_transient_reward(t, &topts),
            Measure::Accumulated(t) => measures.expected_accumulated_reward(t, &topts),
        }
        .unwrap();
    }
    let lumped_mrp = Staged {
        value: lumped.value.mrp.clone(),
        key: lumped.key,
        cached: lumped.cached,
    };
    let request = match measure {
        Measure::Stationary => SolveRequest::stationary(),
        Measure::Transient(t) => SolveRequest::transient(t),
        Measure::Accumulated(t) => SolveRequest::accumulated_reward(t),
    }
    .solver_options(sopts)
    .transient_options(TransientOptions::default())
    .kernel(KernelKind::Compiled)
    .threads(1)
    .fallback(true);
    let (outcome, _report) = pipeline.solve(&lumped_mrp, &request);
    match outcome.unwrap().value {
        SolveOutcome::Distribution(sol) => sol
            .try_expected_reward(&lumped_mrp.value.reward_vector())
            .unwrap(),
        SolveOutcome::Value(v) => v,
    }
}

#[test]
fn ping_stats_and_protocol_shutdown_round_trip() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let server = start(ServerConfig::default());
    let mut c = connect(&server);

    let pong = assert_trichotomy(&c.request(r#"{"cmd":"ping"}"#).unwrap());
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    let stats = assert_trichotomy(&c.request(r#"{"cmd":"stats"}"#).unwrap());
    let body = stats.get("stats").expect("stats body");
    assert!(body.get("queue_depth").and_then(Json::as_u64).is_some());
    assert_eq!(body.get("draining").and_then(Json::as_bool), Some(false));

    // Protocol shutdown shares the SIGTERM path: drain acknowledged,
    // then the daemon stops cleanly.
    let bye = assert_trichotomy(&c.request(r#"{"cmd":"shutdown"}"#).unwrap());
    assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
    server.join();
    mdl_serve::signal::reset();
}

#[test]
fn stats_count_model_parses_and_report_latency_in_microseconds() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let dir = temp_dir("stats");
    let server = start(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut c = connect(&server);
    let stats = |c: &mut Client| {
        let reply = assert_trichotomy(&c.request(r#"{"cmd":"stats"}"#).unwrap());
        reply.get("stats").expect("stats body").clone()
    };
    let field = |body: &Json, key: &str| {
        body.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats has no {key}: {body:?}"))
    };

    let before = stats(&mut c);
    let line = SolveLine::new(EXAMPLE_MODEL).build();
    for _ in 0..2 {
        let reply = assert_trichotomy(&c.request(&line).unwrap());
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    }
    let after = stats(&mut c);
    // The repeat was a store hit on the build stage: one parse, not two.
    assert_eq!(
        field(&after, "serve_model_parsed") - field(&before, "serve_model_parsed"),
        1
    );
    assert_eq!(
        field(&after, "serve_kernel_evicted"),
        field(&before, "serve_kernel_evicted")
    );
    // Sub-millisecond requests still show: latency is in microseconds.
    assert!(field(&after, "latency_p50_us") > 0);
    assert!(after.get("latency_p50_ms").is_none());
    drop(c);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn successful_solves_match_the_library_bit_for_bit() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let server = start(ServerConfig::default());
    let mut c = connect(&server);

    for (kind, lump) in [(LumpKind::Ordinary, "ordinary"), (LumpKind::Exact, "exact")] {
        for (measure, line) in [
            (
                Measure::Stationary,
                SolveLine::new(EXAMPLE_MODEL)
                    .lump(lump)
                    .measure("stationary")
                    .build(),
            ),
            (
                Measure::Transient(0.5),
                SolveLine::new(EXAMPLE_MODEL)
                    .lump(lump)
                    .measure("transient")
                    .t(0.5)
                    .build(),
            ),
            (
                Measure::Accumulated(1.5),
                SolveLine::new(EXAMPLE_MODEL)
                    .lump(lump)
                    .measure("accumulated")
                    .t(1.5)
                    .build(),
            ),
        ] {
            let reply = assert_trichotomy(&c.request(&line).unwrap());
            assert_eq!(
                reply.get("status").and_then(Json::as_str),
                Some("ok"),
                "solve failed: {reply:?}"
            );
            let wire = reply.get("measure").and_then(Json::as_f64).unwrap();
            let reference = library_measure(kind, measure);
            assert_eq!(
                wire.to_bits(),
                reference.to_bits(),
                "daemon {wire} != library {reference} for {kind:?} {measure:?}"
            );
            assert_eq!(reply.get("original_states").and_then(Json::as_u64), Some(8));
            let lumped = reply.get("lumped_states").and_then(Json::as_u64).unwrap();
            assert!(
                (1..=8).contains(&lumped),
                "lumped_states out of range: {lumped}"
            );
        }
    }
    server.drain();
    server.join();
}

#[test]
fn bounds_replies_match_certified_bounds_bit_for_bit() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let server = start(ServerConfig::default());
    let mut c = connect(&server);

    // A near-symmetric model at two decimals (a real envelope) and the
    // exactly lumpable example (the degenerate interval).
    let near = include_str!("../models/mixed_speed_pool.mdl");
    for (model, measure, tolerance) in [
        (near, Measure::Stationary, Tolerance::Decimals(2)),
        (near, Measure::Transient(0.5), Tolerance::Decimals(2)),
        (EXAMPLE_MODEL, Measure::Stationary, Tolerance::default()),
    ] {
        let mut line = JsonObject::new();
        line.str("cmd", "solve")
            .str("model", model)
            .bool("bounds", true);
        if let Measure::Transient(t) = measure {
            line.str("measure", "transient").f64("t", t);
        }
        if let Tolerance::Decimals(d) = tolerance {
            line.u64("tolerance", u64::from(d));
        }
        let reply = assert_trichotomy(&c.request(&line.close()).unwrap());
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("ok"),
            "bounds solve failed: {reply:?}"
        );
        let field = |key: &str| reply.get(key).and_then(Json::as_f64).unwrap().to_bits();

        let mrp = mdl_cli::parse_model(model).unwrap().build().unwrap();
        let kernel = KernelOptions {
            kind: KernelKind::Compiled,
            threads: 1,
        };
        let cb = certified_bounds(&mrp, measure, tolerance, &kernel, &Budget::unlimited()).unwrap();
        assert_eq!(field("measure_lo"), cb.bounds.lo.to_bits(), "{measure:?}");
        assert_eq!(field("measure_hi"), cb.bounds.hi.to_bits(), "{measure:?}");
        assert_eq!(
            field("measure"),
            (0.5 * (cb.bounds.lo + cb.bounds.hi)).to_bits(),
            "{measure:?}"
        );
    }
    server.drain();
    server.join();
}

#[test]
fn deadline_expiry_is_an_honest_interrupted_error() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    // Each solver iteration stalls long enough that a short deadline
    // expires mid-solve; the cooperative budget check turns that into
    // a structured `interrupted` error, never a hang.
    mdl_obs::failpoint::set("solver.iterate", "sleep:100ms").unwrap();
    let server = start(ServerConfig::default());
    let mut c = connect(&server);

    let line = SolveLine::new(EXAMPLE_MODEL).deadline_ms(30).build();
    let reply = assert_trichotomy(&c.request(&line).unwrap());
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("interrupted"),
        "want interrupted, got {reply:?}"
    );

    mdl_obs::failpoint::clear();
    // The same request without the deadline pressure succeeds — the
    // daemon recovered fully.
    let ok = assert_trichotomy(&c.request(&SolveLine::new(EXAMPLE_MODEL).build()).unwrap());
    assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
    server.drain();
    server.join();
}

#[test]
fn mid_solve_faults_are_structured_errors_and_the_daemon_survives() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let server = start(ServerConfig::default());
    let mut c = connect(&server);

    // A NaN injected into every solver iteration defeats the whole
    // fallback ladder: the response is an honest `failed`, with the
    // per-attempt ladder log showing what was tried.
    mdl_obs::failpoint::set("solver.iterate", "nan").unwrap();
    let reply = assert_trichotomy(&c.request(&SolveLine::new(EXAMPLE_MODEL).build()).unwrap());
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("failed"));
    mdl_obs::failpoint::clear();

    // A panic inside the worker is caught, reported as `internal`, and
    // the worker keeps serving.
    mdl_obs::failpoint::set("serve.request", "panic@1").unwrap();
    let reply = assert_trichotomy(&c.request(&SolveLine::new(EXAMPLE_MODEL).build()).unwrap());
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("internal"));
    assert!(reply
        .get("detail")
        .and_then(Json::as_str)
        .unwrap()
        .contains("panicked"));

    // Same connection, same worker pool: next request is fine.
    let ok = assert_trichotomy(&c.request(&SolveLine::new(EXAMPLE_MODEL).build()).unwrap());
    assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
    mdl_obs::failpoint::clear();
    server.drain();
    server.join();
}

#[test]
fn overload_sheds_honestly_with_retry_hints() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    // One worker, held busy 300ms per request: with a queue of one and
    // a tenant cap of two, most of a 6-way burst must be shed.
    mdl_obs::failpoint::set("serve.request", "sleep:300ms").unwrap();
    let server = start(ServerConfig {
        workers: 1,
        queue_limit: 1,
        tenant_cap: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let clients: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let line = SolveLine::new(EXAMPLE_MODEL)
                    .tenant(&format!("burst-{}", i % 2))
                    .build();
                c.request(&line).unwrap()
            })
        })
        .collect();
    let replies: Vec<String> = clients.into_iter().map(|t| t.join().unwrap()).collect();
    mdl_obs::failpoint::clear();

    let mut statuses = HashSet::new();
    let mut sheds = 0;
    for line in &replies {
        let parsed = assert_trichotomy(line);
        let status = parsed.get("status").and_then(Json::as_str).unwrap();
        statuses.insert(status.to_string());
        if status == "shed" {
            sheds += 1;
            // The hint is a usable back-off, not garbage.
            let hint = parsed.get("retry_after_ms").and_then(Json::as_u64).unwrap();
            assert!(hint <= 30_000, "retry hint {hint}ms exceeds the clamp");
        } else {
            assert_eq!(status, "ok", "unexpected status in {line}");
        }
    }
    assert!(sheds >= 1, "a 6-way burst against queue=1 must shed");
    assert!(
        statuses.contains("ok"),
        "admitted requests must still succeed: {replies:?}"
    );
    server.drain();
    server.join();
}

#[test]
fn client_disconnect_cancels_the_inflight_solve() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    // Stretch each solve so the disconnect lands mid-flight.
    mdl_obs::failpoint::set("solver.iterate", "sleep:50ms").unwrap();
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let before = mdl_obs::counter("serve.client_gone").get();

    // Fire a long solve and vanish without reading the response.
    {
        let mut doomed = connect(&server);
        doomed
            .send(&SolveLine::new(EXAMPLE_MODEL).deadline_ms(60_000).build())
            .unwrap();
        std::thread::sleep(Duration::from_millis(150));
    } // dropped: connection closed mid-solve

    // The lone worker must notice the disconnect, cancel the orphaned
    // solve, and serve the next client promptly.
    mdl_obs::failpoint::clear();
    let mut c = connect(&server);
    let reply = assert_trichotomy(&c.request(&SolveLine::new(EXAMPLE_MODEL).build()).unwrap());
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));

    // The cancellation was observed and counted.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while mdl_obs::counter("serve.client_gone").get() == before
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        mdl_obs::counter("serve.client_gone").get() > before,
        "client disconnect was never detected"
    );
    server.drain();
    server.join();
}

#[test]
fn concurrent_chaos_clients_terminate_in_the_trichotomy_without_corrupting_the_cache() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    // Periodic injected faults plus jitter, a shared on-disk cache, and
    // more clients than workers: the closest this suite gets to the
    // production failure soup.
    mdl_obs::failpoint::set("serve.request", "sleep:10ms").unwrap();
    mdl_obs::failpoint::set("solver.iterate", "nan@7").unwrap();
    mdl_obs::failpoint::set("store.write", "err@3").unwrap();
    let dir = temp_dir("chaos");
    let server = start(ServerConfig {
        workers: 2,
        queue_limit: 4,
        tenant_cap: 4,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut c = Client::connect(&addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(60))).unwrap();
                for round in 0..3 {
                    let line = SolveLine::new(EXAMPLE_MODEL)
                        .tenant(&format!("chaos-{}", i % 3))
                        .deadline_ms(10_000)
                        .build();
                    got.push((i, round, c.request(&line).unwrap()));
                }
                got
            })
        })
        .collect();
    let mut oks = 0;
    for t in clients {
        for (i, round, line) in t.join().unwrap() {
            let parsed = assert_trichotomy(&line);
            if parsed.get("status").and_then(Json::as_str) == Some("ok") {
                oks += 1;
                // Under chaos a success may come off a lower ladder rung
                // (different method, same converged answer): correct to
                // solver tolerance, not necessarily the same bits.
                let wire = parsed.get("measure").and_then(Json::as_f64).unwrap();
                let reference = library_measure(LumpKind::Ordinary, Measure::Stationary);
                assert!(
                    (wire - reference).abs() <= 1e-6 * reference.abs().max(1.0),
                    "client {i} round {round} got a wrong answer: {wire} vs {reference}"
                );
            }
        }
    }
    assert!(oks >= 1, "chaos must not defeat every request");
    mdl_obs::failpoint::clear();

    // No hidden corruption: the store never served an invalid artifact.
    let mut c = connect(&server);
    let stats = assert_trichotomy(&c.request(r#"{"cmd":"stats"}"#).unwrap());
    let invalid = stats
        .get("stats")
        .and_then(|b| b.get("store_invalid"))
        .and_then(Json::as_u64);
    assert_eq!(invalid, Some(0), "store served a corrupt artifact");
    drop(c);
    server.drain();
    server.join();

    // Drain swept every writer sidecar — `.lock`/`.tmp.` and the image
    // kinds' `.maplock`/`.new.` — so only artifacts remain.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".lock")
                && !name.contains(".tmp.")
                && !name.ends_with(".maplock")
                && !name.contains(".new."),
            "drain left debris behind: {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_solves_report_warm_and_resume_survives_a_drain() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let dir = temp_dir("warm");

    // First daemon: populate the cache, then drain.
    let server = start(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut c = connect(&server);
    let cold = assert_trichotomy(&c.request(&SolveLine::new(EXAMPLE_MODEL).build()).unwrap());
    assert_eq!(cold.get("status").and_then(Json::as_str), Some("ok"));
    drop(c);
    server.drain();
    server.join();

    // Second daemon over the same cache: every stage restores, the
    // response says so, and the measure is still bit-identical.
    let server = start(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut c = connect(&server);
    let warm = assert_trichotomy(&c.request(&SolveLine::new(EXAMPLE_MODEL).build()).unwrap());
    assert_eq!(warm.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(warm.get("warm").and_then(Json::as_bool), Some(true));
    assert_eq!(
        warm.get("measure")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        cold.get("measure")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
    );
    drop(c);
    server.drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A raw connection for request lines that [`Client`] cannot send:
/// bytes that are not UTF-8, or more of them than the daemon reads.
fn raw_connection(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Json {
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("reply line");
    assert!(n > 0, "the daemon closed the connection without a reply");
    assert_trichotomy(reply.trim_end())
}

#[test]
fn a_request_line_that_is_not_utf8_is_a_bad_request() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let server = start(ServerConfig::default());
    let (mut stream, mut reader) = raw_connection(&server);
    stream
        .write_all(b"{\"cmd\":\"solve\",\"model\":\"\xff\xfe\"}\n{\"cmd\":\"ping\"}\n")
        .unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("bad-request")
    );
    // The connection stays open for the next request.
    let pong = read_reply(&mut reader);
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    drop((stream, reader));
    server.drain();
    server.join();
}

#[test]
fn an_over_long_request_line_is_refused_and_its_connection_closed() {
    let _guard = mdl_obs::testing::guard();
    mdl_obs::failpoint::clear();
    let server = start(ServerConfig::default());
    let (mut stream, mut reader) = raw_connection(&server);
    // One byte past the cap, with no newline in sight.
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("bad-request")
    );
    let detail = reply.get("detail").and_then(Json::as_str).unwrap();
    assert!(
        detail.contains(&MAX_REQUEST_LINE.to_string()),
        "the detail names the cap: {detail}"
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "then the daemon hangs up"
    );
    drop((stream, reader));

    // Other connections are served as before.
    let mut c = connect(&server);
    let pong = assert_trichotomy(&c.request(r#"{"cmd":"ping"}"#).unwrap());
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    drop(c);
    server.drain();
    server.join();
}
