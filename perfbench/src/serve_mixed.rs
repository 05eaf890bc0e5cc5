//! `serve_mixed`: the `mdl-serve` binary with its defaults (2 workers,
//! 1 thread per solve) and a fresh `--cache-dir`, driven over TCP by one
//! process in a closed loop on 2 connections — the shipped client
//! blocks on each reply, and 2 connections (one per core) keep the
//! numbers about the daemon rather than the scheduler.
//!
//! The seeded stream mixes ~75% repeats of a hot set (stationary and
//! transient), ~20% novel rate variants (cold lump, compile, solve,
//! persist) and ~5% certified-bounds requests, over generated pool
//! models of 2–45 KB of text. Protocol parsing, admission and store
//! reads dominate; model build is negligible. Request size and hot-set
//! share are the input properties the daemon's cost depends on. One
//! request is the unit of work.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mdl_cli::commands::{certified_bounds, Measure};
use mdl_core::{
    model_source_key, KernelKind, KernelOptions, LumpKind, LumpRequest, Pipeline, SolveRequest,
    Staged,
};
use mdl_ctmc::{SolverOptions, TransientOptions};
use mdl_linalg::Tolerance;
use mdl_obs::json::{self, Json};
use mdl_obs::Budget;
use mdl_serve::client::Client;

use crate::check::{self, Expected, Reply};
use crate::common::{self, Config};
use crate::gen::{self, Class, ServeInputs, ServeRequest};
use crate::report::{size_class, Outcome, SIZE_CLASSES};
use crate::stats::{mean, median, tail};

/// Closed-loop connections (one per core of the reference machine).
const CONNECTIONS: usize = 2;

/// Stream slots generated per measured second: more than the daemon
/// can answer (about 185 a second on the reference machine), so the
/// loop ends on time, not on input.
const REQUESTS_PER_SECOND: usize = 250;

/// A running daemon.
struct Daemon {
    child: Child,
    addr: String,
    // Held open so the daemon's stdout never turns into a broken pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(bin: &Path, cache: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("mdl-serve: listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("mdl-serve did not start (first line {line:?})"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn request(&self, line: &str) -> Result<String, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        c.request(line).map_err(|e| e.to_string())
    }

    /// Drains the daemon through the protocol and waits for it to exit;
    /// kills it if it has not exited within 60 s.
    fn stop(mut self) -> Result<(), String> {
        let asked = self.request(r#"{"cmd":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                Ok(Some(status)) => return Err(format!("mdl-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("mdl-serve did not drain within 60 s".into());
                }
            }
        }
    }
}

/// A daemon left running by an early return or a panic is killed and
/// reaped, so the benchmark never leaves a process behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemon binary, built next to this one.
fn daemon_bin() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("mdl-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found (build the perfbench package)",
            bin.display()
        ))
    }
}

/// Set-up: inputs, a fresh daemon, and one pass over the hot set so
/// its artifacts are in the store before timing starts.
fn setup(cfg: &Config, rep: usize) -> Result<(ServeInputs, Daemon), String> {
    let len = REQUESTS_PER_SECOND * cfg.seconds.as_secs().max(1) as usize;
    let inputs = gen::serve_inputs(cfg.seed, len);
    let cache = cfg.work_dir.join(format!("serve-cache-{rep}"));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).map_err(|e| e.to_string())?;
    let daemon = Daemon::start(&daemon_bin()?, &cache)?;
    for r in &inputs.requests[..inputs.hot] {
        let warmed = daemon
            .request(&r.line)
            .and_then(|l| Reply::parse(&l))
            .and_then(|reply| match reply.status.as_str() {
                "ok" => Ok(()),
                other => Err(format!("hot-set warm-up answered {other}")),
            });
        if let Err(e) = warmed {
            let _ = daemon.stop();
            return Err(e);
        }
    }
    Ok((inputs, daemon))
}

/// One request as sent and answered.
struct Sent {
    request: usize,
    rtt_s: f64,
    reply: Result<Reply, String>,
}

/// The closed loop: `CONNECTIONS` clients take the next stream slot
/// as soon as their previous reply arrives, until the seconds are up.
fn closed_loop(daemon: &Daemon, inputs: &ServeInputs, cfg: &Config) -> (Vec<Sent>, f64) {
    let next = AtomicUsize::new(0);
    let sent = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut client = Client::connect(&daemon.addr);
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= inputs.stream.len() || t0.elapsed() >= cfg.seconds {
                        break;
                    }
                    let request = inputs.stream[slot];
                    let t = Instant::now();
                    let reply = match &mut client {
                        Ok(c) => c
                            .request(&inputs.requests[request].line)
                            .map_err(|e| e.to_string()),
                        Err(e) => Err(format!("connect: {e}")),
                    };
                    mine.push((slot, request, t.elapsed().as_secs_f64(), reply));
                }
                sent.lock()
                    .expect("no client thread panics holding the lock")
                    .extend(mine);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut raw = sent.into_inner().expect("client threads joined");
    raw.sort_by_key(|r| r.0);
    let sent = raw
        .into_iter()
        .map(|(_, request, rtt_s, line)| Sent {
            request,
            rtt_s,
            reply: line.and_then(|l| Reply::parse(&l)),
        })
        .collect();
    (sent, wall)
}

/// The library's answer to a request: the daemon's staged solve
/// without a store, or `certified_bounds` for bounds requests.
fn library(r: &ServeRequest) -> Result<Expected, String> {
    let parsed = mdl_cli::parse_model(&r.model).map_err(|e| e.to_string())?;
    let pipeline = Pipeline::new(model_source_key(&r.model));
    let built = pipeline
        .build(|| parsed.build().map_err(common::build_error))
        .map_err(|e| e.to_string())?;
    if r.bounds {
        let kernel = KernelOptions {
            kind: KernelKind::Compiled,
            threads: 1,
        };
        let cb = certified_bounds(
            &built.value,
            r.measure,
            Tolerance::Decimals(gen::BOUNDS_TOLERANCE),
            &kernel,
            &Budget::unlimited(),
        )
        .map_err(|e| e.to_string())?;
        return Ok(Expected::Bounds(cb.bounds.lo, cb.bounds.hi));
    }
    let lumped = pipeline
        .lump(&built, &LumpRequest::new(LumpKind::Ordinary))
        .map_err(|e| e.to_string())?;
    let lumped_mrp = Staged {
        value: lumped.value.mrp.clone(),
        key: lumped.key,
        cached: lumped.cached,
    };
    let request = match r.measure {
        Measure::Stationary => SolveRequest::stationary(),
        Measure::Transient(t) => SolveRequest::transient(t),
        Measure::Accumulated(t) => SolveRequest::accumulated_reward(t),
    }
    .solver_options(SolverOptions {
        tolerance: 1e-12,
        ..SolverOptions::default()
    })
    .transient_options(TransientOptions::default())
    .kernel(KernelKind::Compiled)
    .threads(1)
    .fallback(true);
    let (outcome, _) = pipeline.solve(&lumped_mrp, &request);
    let staged = outcome.map_err(|e| e.to_string())?;
    common::expected_reward(&lumped_mrp.value, &staged.value).map(Expected::Scalar)
}

/// A counter of a `stats` reply (`{"status":"ok","stats":{...}}`).
fn stats_counter(stats: &Json, key: &str) -> Option<u64> {
    stats.get("stats")?.get(key)?.as_u64()
}

/// Median time of `reps` calls of `f`, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Runs the workload.
pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for rep in 0..common::SETUP_REPS {
        if let Some((_, daemon)) = last.take() {
            Daemon::stop(daemon)?;
        }
        let t = Instant::now();
        last = Some(setup(cfg, rep)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (inputs, daemon) = last.expect("SETUP_REPS > 0");

    let (sent, wall) = closed_loop(&daemon, &inputs, cfg);
    let peak = common::peak_rss_mb(Some(daemon.pid()));
    let stats = daemon
        .request(r#"{"cmd":"stats"}"#)
        .and_then(|l| json::parse(&l).map_err(|e| e.to_string()));
    let stopped = daemon.stop();
    let (peak, stats) = (peak?, stats?);
    stopped?;

    // Checks, outside the loop: every ok reply against the library's
    // answer for the same request, computed once per distinct request.
    let mut expected: HashMap<usize, Result<Expected, String>> = HashMap::new();
    for s in &sent {
        let check = s.reply.clone().and_then(|reply| {
            let want = expected
                .entry(s.request)
                .or_insert_with(|| library(&inputs.requests[s.request]));
            check::serve_reply(&reply, want.clone()?)
        });
        out.record(check);
    }
    let invalid =
        stats_counter(&stats, "store_invalid").ok_or("stats reply has no store_invalid")?;
    if invalid != 0 {
        out.fail(format!("daemon counted {invalid} invalid store artifacts"));
    }
    if sent.is_empty() {
        return Err("no request was sent".into());
    }

    // A request that failed counts as missing every latency limit.
    let ok = |s: &&Sent| s.reply.as_ref().is_ok_and(|r| r.status == "ok");
    let rtt_ms = |s: &Sent| if ok(&s) { 1e3 * s.rtt_s } else { f64::INFINITY };
    let all: Vec<f64> = sent.iter().map(rtt_ms).collect();
    let oks: Vec<&Sent> = sent.iter().filter(ok).collect();
    let replies: Vec<&Reply> = oks.iter().map(|s| s.reply.as_ref().expect("ok")).collect();
    let lumped: Vec<f64> = replies
        .iter()
        .filter_map(|r| r.lumped_states)
        .map(|n| n as f64)
        .collect();
    let n = sent.len();
    out.named
        .named("serve_rps", oks.len() as f64 / wall, "req/s", oks.len());
    out.named.named("serve_p50_ms", median(&all), "ms", n);
    let (p99, note) = match tail(&all) {
        Some((p, v)) => (v, format!("p{p} (highest with >=10 samples beyond)")),
        None => (f64::NAN, "too few samples for a tail".to_string()),
    };
    out.named.insert("serve_p99_ms", p99, "ms", n, &note);
    out.named
        .named("lumped_states", mean(&lumped), "states", lumped.len());

    let m = &mut out.metrics;
    if !cfg.trace {
        m.set("setup_s", median(&setup_s), setup_s.len());
        m.set("peak_rss_mb", peak, 1);
        m.set("lumped_states", mean(&lumped), lumped.len());
        m.set("op_p50_ms", median(&all), n);
        m.set("ops_per_s", oks.len() as f64 / wall, oks.len());
        return Ok(());
    }

    // Traced run: client round trip split into server time (the reply's
    // elapsed_ms) and wire time (the rest: socket, request parse,
    // admission, queueing), per class.
    for class in Class::ALL {
        let of_class: Vec<&&Sent> = oks
            .iter()
            .filter(|s| inputs.requests[s.request].class == class)
            .collect();
        let server: Vec<f64> = of_class
            .iter()
            .map(|s| s.reply.as_ref().expect("ok").elapsed_ms.unwrap_or(0) as f64)
            .collect();
        let wire: Vec<f64> = of_class
            .iter()
            .zip(&server)
            .map(|(s, srv)| (1e3 * s.rtt_s - srv).max(0.0))
            .collect();
        for (part, xs) in [("wire_ms", &wire), ("server_ms", &server)] {
            let label = class.label();
            m.set(
                format!("serve.{part}.{label}.p50"),
                if xs.is_empty() { 0.0 } else { median(xs) },
                xs.len(),
            );
            let (value, note) = match tail(xs) {
                Some((p, v)) => (v, format!("p{p}")),
                None => (0.0, "too few samples".to_string()),
            };
            m.insert(
                format!("serve.{part}.{label}.tail"),
                value,
                "",
                xs.len(),
                &note,
            );
        }
    }
    m.set(
        "serve.shed",
        stats_counter(&stats, "serve_shed").unwrap_or(0) as f64,
        1,
    );
    m.set(
        "serve.error",
        stats_counter(&stats, "serve_error").unwrap_or(0) as f64,
        1,
    );
    m.set("store.invalid", invalid as f64, 1);
    let scalar: Vec<&&Reply> = replies.iter().filter(|r| r.bounds.is_none()).collect();
    m.set(
        "store.hit_ratio",
        scalar.iter().filter(|r| r.warm).count() as f64 / scalar.len().max(1) as f64,
        scalar.len(),
    );
    m.set("layer_coverage_pct", 100.0, n);

    // The request and model parsers, timed on this run's texts by size.
    for class in SIZE_CLASSES {
        let texts: Vec<&ServeRequest> = inputs
            .requests
            .iter()
            .filter(|r| size_class(r.line.len()) == class)
            .take(3)
            .collect();
        let request_us: Vec<f64> = texts
            .iter()
            .map(|r| {
                time_us(5, || {
                    drop(std::hint::black_box(mdl_serve::protocol::parse_request(
                        &r.line,
                    )))
                })
            })
            .collect();
        let model_us: Vec<f64> = texts
            .iter()
            .map(|r| {
                time_us(5, || {
                    drop(std::hint::black_box(mdl_cli::parse_model(&r.model)))
                })
            })
            .collect();
        m.set(
            format!("serve.parse_request_us.{class}"),
            if texts.is_empty() {
                0.0
            } else {
                median(&request_us)
            },
            texts.len(),
        );
        m.set(
            format!("cli.parse_model_us.{class}"),
            if texts.is_empty() {
                0.0
            } else {
                median(&model_us)
            },
            texts.len(),
        );
    }

    // Tracing here is client-side bookkeeping only; even slots are the
    // traced half, odd slots the untraced reference.
    let half = |parity: usize| -> Vec<f64> {
        sent.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, s)| rtt_ms(s))
            .collect()
    };
    m.set(
        "trace_overhead_pct",
        common::overhead_pct(median(&half(0)), median(&half(1))),
        n,
    );
    Ok(())
}
