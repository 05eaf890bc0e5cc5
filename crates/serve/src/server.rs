//! The daemon: TCP accept loop, connection handlers, worker pool and
//! graceful drain.
//!
//! Thread anatomy (all std):
//!
//! * **acceptor** — nonblocking `TcpListener`, polls the shutdown flag
//!   between accepts; one handler thread per connection.
//! * **handlers** — read request lines (with a short read timeout so
//!   drain and disconnects are noticed promptly), run admission
//!   control, and wait for the worker's response while watching the
//!   socket for client disconnect (which cancels the in-flight solve's
//!   budget token).
//! * **workers** — pull jobs from the [`Admission`] queue, execute them
//!   with per-request `catch_unwind` isolation ([`crate::worker::run_job`]),
//!   send the response back through the job's channel.
//!
//! Drain (SIGTERM or the `shutdown` command): the acceptor stops, the
//! admission gate sheds new work, queued and in-flight jobs run to
//! completion (their deadlines still bound them; interrupted solves
//! leave resumable checkpoints), handlers notice the drain flag and
//! close, workers exit on the empty queue, and [`Server::join`] sweeps
//! stale cache debris and flushes metrics before returning.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdl_obs::json::JsonObject;
use mdl_obs::CancelToken;
use mdl_store::Store;

use crate::admission::{Admission, AdmissionConfig, Job, Next};
use crate::protocol::{parse_request, ErrorKind, Request, Response};
use crate::worker::{run_job, Shared};

/// Poll period for the accept loop, handler reads and worker waits —
/// the latency bound on noticing drain or disconnect.
const POLL: Duration = Duration::from_millis(25);

/// The longest request line a connection may send, in bytes, its
/// newline included. A longer line is refused with `bad-request` and
/// the connection closed, so one client cannot grow a handler's buffer
/// without bound. Far above any real model text.
pub const MAX_REQUEST_LINE: usize = 8 << 20;

/// Server configuration (see `mdl-serve --help` for the flag mapping).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7117` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads executing solves.
    pub workers: usize,
    /// Bounded queue length (admission control).
    pub queue_limit: usize,
    /// Per-tenant in-flight cap.
    pub tenant_cap: usize,
    /// Threads each individual solve may use.
    pub solve_threads: usize,
    /// Deadline applied to requests that name none.
    pub default_deadline: Option<Duration>,
    /// Clamp on requested deadlines.
    pub max_deadline: Option<Duration>,
    /// Artifact-store directory; `None` serves without persistence.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_limit: 32,
            tenant_cap: 8,
            solve_threads: 1,
            default_deadline: Some(Duration::from_secs(30)),
            max_deadline: Some(Duration::from_secs(300)),
            cache_dir: None,
        }
    }
}

/// A running daemon. Dropping without [`join`](Server::join) leaves the
/// threads detached; tests and `main` should always join.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    admission: Arc<Admission>,
    shutdown: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
    store: Option<Store>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns the
    /// running server.
    ///
    /// # Errors
    ///
    /// Bind/store-open failures as `std::io::Error`.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let store = match &cfg.cache_dir {
            Some(dir) => Some(
                Store::open(dir).map_err(|e| std::io::Error::other(format!("cache dir: {e}")))?,
            ),
            None => None,
        };
        // Clear debris a previous crashed process may have left; our
        // own writers' fresh locks are never this old.
        if let Some(s) = &store {
            let _ = s.sweep_debris(false);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let admission = Arc::new(Admission::new(AdmissionConfig {
            queue_limit: cfg.queue_limit,
            tenant_cap: cfg.tenant_cap,
            workers: cfg.workers,
        }));
        let shared = Arc::new(Shared::new(
            store.clone(),
            cfg.solve_threads,
            cfg.default_deadline,
            cfg.max_deadline,
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicUsize::new(0));

        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let admission = admission.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&admission, &shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let admission = admission.clone();
            let shutdown = shutdown.clone();
            let connections = connections.clone();
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(listener, &admission, &shutdown, &connections))
                .expect("spawn acceptor")
        };

        Ok(Server {
            addr,
            admission,
            shutdown,
            connections,
            store,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether drain has been initiated.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates graceful drain: stop accepting, shed new admissions,
    /// let queued and in-flight work finish. Idempotent.
    pub fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.admission.drain();
    }

    /// Drains (if not already draining) and waits for every thread to
    /// finish, then sweeps cache debris and flushes metrics. Returns
    /// when the daemon is fully stopped.
    pub fn join(self) {
        self.drain();
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        // Handlers exit on drain/EOF within a poll period; give
        // stragglers a bounded grace window.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
        if let Some(store) = &self.store {
            // Force: all our writers have exited, so any remaining
            // lock/tmp file is debris by construction.
            let _ = store.sweep_debris(true);
        }
        mdl_obs::flush();
    }
}

fn worker_loop(admission: &Admission, shared: &Shared) {
    loop {
        match admission.next(POLL) {
            Next::Job(job) => {
                let t0 = Instant::now();
                let response = run_job(shared, &job);
                admission.record_service(t0.elapsed());
                // A gone handler (client vanished mid-queue) is fine.
                let _ = job.respond.send(response);
                admission.finish(&job.params.tenant);
            }
            Next::Idle => continue,
            Next::Drained => break,
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    admission: &Arc<Admission>,
    shutdown: &Arc<AtomicBool>,
    connections: &Arc<AtomicUsize>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                mdl_obs::counter("serve.connections").inc();
                connections.fetch_add(1, Ordering::SeqCst);
                let admission = admission.clone();
                let shutdown = shutdown.clone();
                let conn_count = connections.clone();
                let spawned =
                    std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, &admission, &shutdown);
                            conn_count.fetch_sub(1, Ordering::SeqCst);
                        });
                if spawned.is_err() {
                    connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Serves one connection: request lines in, response lines out, in
/// lockstep. Returns on EOF, I/O error, drain, or a request line longer
/// than [`MAX_REQUEST_LINE`].
fn handle_connection(
    stream: TcpStream,
    admission: &Arc<Admission>,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Read one line, at most one byte past the cap, tolerating read
        // timeouts (partial data stays in `line` across iterations of
        // the inner loop).
        let eof = loop {
            let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
            match (&mut reader).take(room).read_until(b'\n', &mut line) {
                Ok(0) => break true,
                Ok(_) => break false,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst) && line.is_empty() {
                        // Draining and idle: close the connection.
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        };
        if eof {
            return Ok(());
        }
        let over_long = line.len() > MAX_REQUEST_LINE;
        let request = if over_long {
            Err(format!("request line longer than {MAX_REQUEST_LINE} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse_request(text.trim()),
                Err(e) => Err(format!("request line is not UTF-8: {e}")),
            }
        };
        let response = match request {
            Err(detail) => Response::Error {
                kind: ErrorKind::BadRequest,
                detail,
            },
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => Response::Stats(stats_body(admission)),
            Ok(Request::Shutdown) => {
                // Same path as SIGTERM: flag first (stops the acceptor),
                // then drain the admission gate.
                crate::signal::trigger();
                shutdown.store(true, Ordering::SeqCst);
                admission.drain();
                Response::Draining
            }
            Ok(Request::Solve(params)) => solve_on_connection(params, admission, reader.get_ref())?,
        };
        writer.write_all(response.render().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        // The rest of an over-long line is never read, so the stream
        // cannot be resynchronized: hang up after answering.
        if over_long || matches!(response, Response::Draining) {
            return Ok(());
        }
    }
}

/// Admits and awaits one solve, cancelling it if the client vanishes.
fn solve_on_connection(
    params: crate::protocol::SolveParams,
    admission: &Arc<Admission>,
    stream: &TcpStream,
) -> std::io::Result<Response> {
    let cancel = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let job = Job {
        params,
        cancel: cancel.clone(),
        respond: tx,
        enqueued: Instant::now(),
    };
    if let Err(shed) = admission.try_admit(job) {
        return Ok(shed.1);
    }
    loop {
        match rx.recv_timeout(POLL) {
            Ok(response) => return Ok(response),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if client_gone(stream) {
                    // Cancel the in-flight solve; keep waiting for the
                    // worker's (now interrupted) response so tenant
                    // accounting stays exact, then drop it.
                    cancel.cancel();
                    mdl_obs::counter("serve.client_gone").inc();
                    let _ = rx.recv_timeout(Duration::from_secs(600));
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "client disconnected mid-solve",
                    ));
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Worker dropped the channel without responding — can
                // only happen if its thread died outside catch_unwind.
                return Ok(Response::Error {
                    kind: ErrorKind::Internal,
                    detail: "worker abandoned the request".into(),
                });
            }
        }
    }
}

/// Whether the peer has closed: a zero-byte peek means EOF. WouldBlock
/// (no data, still open) and other transient errors mean "alive".
fn client_gone(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    matches!(stream.peek(&mut probe), Ok(0))
}

/// The `stats` response body: queue/occupancy gauges, the serve
/// counters, and the quantiles of the request latency histogram in
/// microseconds from the obs registry.
fn stats_body(admission: &Admission) -> String {
    let mut obj = JsonObject::new();
    obj.u64("queue_depth", admission.depth() as u64)
        .bool("draining", admission.draining())
        .u64("queue_limit", admission.config().queue_limit as u64)
        .u64("tenant_cap", admission.config().tenant_cap as u64);
    let report = mdl_obs::snapshot();
    for name in [
        "serve.requests",
        "serve.ok",
        "serve.error",
        "serve.interrupted",
        "serve.shed",
        "serve.panic_caught",
        "serve.lock_poisoned",
        "serve.client_gone",
        "serve.kernel_evicted",
        "serve.model_parsed",
        "store.invalid",
    ] {
        let value = report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value);
        obj.u64(&name.replace('.', "_"), value);
    }
    if let Some(h) = report
        .histograms
        .iter()
        .find(|h| h.name == "serve.latency_us")
    {
        obj.u64("latency_p50_us", h.p50)
            .u64("latency_p90_us", h.p90)
            .u64("latency_p99_us", h.p99);
    }
    obj.close()
}
