//! Request execution: the staged pipeline run by every worker thread,
//! wrapped in per-request fault isolation.
//!
//! A worker owns nothing; everything warm is in [`Shared`] — the
//! on-disk artifact store (crash-safe, advisory-locked) plus an
//! in-memory cache of compiled kernels keyed by lump-stage content key,
//! so repeated requests for the same model share one compile. The
//! kernel cache holds at most `KERNEL_CACHE_CAPACITY` kernels and evicts
//! the least recently used, so the daemon's memory does not grow with
//! the number of distinct models it has served.
//!
//! The model text is parsed only when the build stage misses: the stage
//! is keyed by the hash of the text, so a store hit needs no parse.
//!
//! Isolation: [`run_job`] wraps the whole solve in `catch_unwind`, so a
//! panicking request (bug, or the `serve.request=panic` failpoint)
//! becomes a structured `internal` error instead of a dead worker; the
//! kernel cache is locked through [`crate::recover`], so a panic while
//! holding it poisons nothing permanently.
//!
//! Failpoints consulted here: `serve.request` (`err` → injected
//! internal error, `sleep:DUR` → deadline pressure, `panic` → the
//! catch_unwind path).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mdl_cli::commands::Measure;
use mdl_cli::error::CliError;
use mdl_core::{
    model_source_key, LumpKind, LumpRequest, Pipeline, SolveOutcome, SolveRequest, Staged,
};
use mdl_ctmc::{RunReport, SolverOptions, TransientOptions};
use mdl_md::CompiledMdMatrix;
use mdl_obs::{Budget, CancelToken};
use mdl_store::Store;

use crate::admission::Job;
use crate::protocol::{attempt_rows, ErrorKind, OkBody, Response, SolveParams};
use crate::recover;

/// How often checkpoint sinks snapshot long solves (iterations).
const CHECKPOINT_EVERY: usize = 256;

/// Compiled kernels held in memory at most. Past it the least recently
/// used kernel is dropped (counted on `serve.kernel_evicted`); a later
/// request for its model maps the kernel image back from the store, or
/// recompiles without one.
const KERNEL_CACHE_CAPACITY: usize = 64;

/// State shared by every worker: the artifact store and the in-memory
/// kernel cache. Cheap to share behind one `Arc`.
#[derive(Debug)]
pub struct Shared {
    /// The on-disk artifact store; `None` runs every stage in memory.
    pub store: Option<Store>,
    /// Threads each solve's kernel may use. Kept low by default — the
    /// server's parallelism axis is concurrent requests, not one solve.
    pub solve_threads: usize,
    /// Default deadline applied when a request names none.
    pub default_deadline: Option<Duration>,
    /// Upper bound any requested deadline is clamped to.
    pub max_deadline: Option<Duration>,
    /// Compiled kernels by lump-stage key: requests for the same model
    /// and lumping share one compiled product without touching disk.
    kernels: Mutex<KernelCache>,
}

/// The in-memory kernel cache: at most [`KERNEL_CACHE_CAPACITY`]
/// kernels by lump-stage key, least recently used first.
#[derive(Debug, Default)]
struct KernelCache {
    entries: Vec<(u64, Arc<CompiledMdMatrix>)>,
}

impl KernelCache {
    /// The kernel under `key`, which becomes the most recently used.
    fn get(&mut self, key: u64) -> Option<Arc<CompiledMdMatrix>> {
        let at = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(at);
        let kernel = entry.1.clone();
        self.entries.push(entry);
        Some(kernel)
    }

    /// Holds `kernel` under `key` as the most recently used, evicting
    /// the least recently used kernel when the cache is full.
    fn insert(&mut self, key: u64, kernel: Arc<CompiledMdMatrix>) {
        self.entries.retain(|(k, _)| *k != key);
        if self.entries.len() == KERNEL_CACHE_CAPACITY {
            self.entries.remove(0);
            mdl_obs::counter("serve.kernel_evicted").inc();
        }
        self.entries.push((key, kernel));
    }
}

impl Shared {
    /// Shared state over `store` with the given solve limits.
    pub fn new(
        store: Option<Store>,
        solve_threads: usize,
        default_deadline: Option<Duration>,
        max_deadline: Option<Duration>,
    ) -> Self {
        Shared {
            store,
            solve_threads: solve_threads.max(1),
            default_deadline,
            max_deadline,
            kernels: Mutex::new(KernelCache::default()),
        }
    }

    /// The effective deadline for a request asking for `requested_ms`.
    pub fn effective_deadline(&self, requested_ms: Option<u64>) -> Option<Duration> {
        let requested = requested_ms.map(Duration::from_millis);
        let wanted = requested.or(self.default_deadline);
        match (wanted, self.max_deadline) {
            (Some(w), Some(max)) => Some(w.min(max)),
            (Some(w), None) => Some(w),
            (None, max) => max,
        }
    }

    /// Number of kernels currently held warm in memory.
    pub fn warm_kernels(&self) -> usize {
        recover(&self.kernels).entries.len()
    }
}

/// Executes one admitted job with full fault isolation and returns the
/// response to send. Never panics; never blocks past the request's
/// budget (modulo the cooperative check granularity of the phases).
pub fn run_job(shared: &Shared, job: &Job) -> Response {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        execute(shared, &job.params, &job.cancel, t0)
    }));
    let response = match result {
        Ok(response) => response,
        Err(payload) => {
            mdl_obs::counter("serve.panic_caught").inc();
            Response::Error {
                kind: ErrorKind::Internal,
                detail: format!("worker panicked: {}", panic_message(&payload)),
            }
        }
    };
    let elapsed = t0.elapsed();
    mdl_obs::counter("serve.requests").inc();
    mdl_obs::histogram("serve.latency_us").record(elapsed.as_micros() as u64);
    match &response {
        Response::Ok(_) => mdl_obs::counter("serve.ok").inc(),
        Response::Error { kind, .. } => {
            mdl_obs::counter("serve.error").inc();
            if *kind == ErrorKind::Interrupted {
                mdl_obs::counter("serve.interrupted").inc();
            }
        }
        _ => {}
    }
    response
}

/// Best-effort rendering of a panic payload.
fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classifies a CLI-layer error into the wire error kinds.
fn error_response(e: CliError) -> Response {
    match e {
        CliError::Interrupted(detail) => Response::Error {
            kind: ErrorKind::Interrupted,
            detail,
        },
        CliError::Failed(detail) => Response::Error {
            kind: ErrorKind::Failed,
            detail,
        },
    }
}

/// The staged solve itself: build (parsing the model on a miss) →
/// lump → compile → solve → measure, mirroring the one-shot CLI's
/// orchestration so results are bit-identical with it for the same model
/// and measure.
fn execute(shared: &Shared, params: &SolveParams, cancel: &CancelToken, t0: Instant) -> Response {
    if let Some(injection) = mdl_obs::failpoint::hit("serve.request") {
        let _ = injection;
        return Response::Error {
            kind: ErrorKind::Internal,
            detail: "injected request failure (failpoint serve.request)".into(),
        };
    }
    // The deadline budget; the client-disconnect token is layered on
    // via the request builders' `cancelled_by` so every phase (lump,
    // compile, solve) observes both.
    let deadline_budget = match shared.effective_deadline(params.deadline_ms) {
        Some(d) => Budget::unlimited().deadline_in(d),
        None => Budget::unlimited(),
    };
    let budget = deadline_budget.cancelled_by(cancel);

    let model_key = model_source_key(&params.model);
    let pipeline = match &shared.store {
        Some(store) => Pipeline::with_store(model_key, store.clone()),
        None => Pipeline::new(model_key),
    };

    // The build stage is keyed by the hash of the model text, so only a
    // miss parses it. A parse failure leaves the closure as the
    // bad-request detail; a failed build is never stored.
    let mut bad_model = None;
    let built = match pipeline.build(|| {
        mdl_obs::counter("serve.model_parsed").inc();
        let parsed = mdl_cli::parse_model(&params.model).map_err(|e| {
            let detail = format!("model: {e}");
            bad_model = Some(detail.clone());
            mdl_core::CoreError::Build { detail }
        })?;
        parsed.build().map_err(|e| match e {
            mdl_models::ModelError::Core(c) => c,
            other => mdl_core::CoreError::Build {
                detail: other.to_string(),
            },
        })
    }) {
        Ok(b) => b,
        Err(e) => {
            return match bad_model {
                Some(detail) => Response::Error {
                    kind: ErrorKind::BadRequest,
                    detail,
                },
                None => error_response(e.into()),
            }
        }
    };

    // A bounds request takes its own path: a tolerance lump that records
    // the rate envelope, then certified lower/upper sweeps. The lump and
    // kernel are envelope-specific, so the warm caches do not apply.
    if params.bounds {
        let kernel_opts = mdl_core::KernelOptions {
            kind: mdl_core::KernelKind::Compiled,
            threads: shared.solve_threads,
        };
        return match mdl_cli::commands::certified_bounds(
            &built.value,
            params.measure,
            params.tolerance,
            &kernel_opts,
            &budget,
        ) {
            Ok(cb) => Response::Ok(OkBody {
                measure: 0.5 * (cb.bounds.lo + cb.bounds.hi),
                bounds: Some((cb.bounds.lo, cb.bounds.hi)),
                original_states: built.value.num_states() as u64,
                lumped_states: cb.lump.stats.lumped_states,
                warm: false,
                elapsed_ms: t0.elapsed().as_millis() as u64,
                attempts: attempt_rows(&cb.report),
            }),
            Err(e) => error_response(e),
        };
    }
    let lump_request = LumpRequest::new(params.kind)
        .tolerance(params.tolerance)
        .threads(shared.solve_threads)
        .budget(budget.clone())
        .cancelled_by(cancel);
    let lumped = match pipeline.lump(&built, &lump_request) {
        Ok(l) => l,
        Err(e) => return error_response(e.into()),
    };

    let (value, warm, report) = if params.kind == LumpKind::Exact {
        match solve_exact(&pipeline, &lumped, params.measure, &budget) {
            Ok((v, warm)) => (
                v,
                built.cached && lumped.cached && warm,
                RunReport::default(),
            ),
            Err(e) => return error_response(e),
        }
    } else {
        let lumped_mrp = Staged {
            value: lumped.value.mrp.clone(),
            key: lumped.key,
            cached: lumped.cached,
        };
        match solve_lumped(shared, &pipeline, &lumped_mrp, params, &budget, cancel) {
            Ok((v, warm, report)) => (v, built.cached && lumped.cached && warm, report),
            Err(e) => return error_response(e),
        }
    };

    Response::Ok(OkBody {
        measure: value,
        bounds: None,
        original_states: built.value.num_states() as u64,
        lumped_states: lumped.value.stats.lumped_states,
        warm,
        elapsed_ms: t0.elapsed().as_millis() as u64,
        attempts: attempt_rows(&report),
    })
}

fn solver_options(budget: &Budget) -> SolverOptions {
    SolverOptions {
        tolerance: 1e-12,
        budget: budget.clone(),
        ..SolverOptions::default()
    }
}

fn transient_options(budget: &Budget) -> TransientOptions {
    TransientOptions {
        budget: budget.clone(),
        ..TransientOptions::default()
    }
}

/// The exact-lump path: measures come from the lump's embedded
/// exit-rate measures; no kernel, no ladder.
fn solve_exact(
    pipeline: &Pipeline,
    lumped: &Staged<mdl_core::LumpResult>,
    measure: Measure,
    budget: &Budget,
) -> Result<(f64, bool), CliError> {
    let label = format!("exact:{measure:?}");
    let staged = pipeline.measure(lumped.key, &label, || {
        let measures = lumped
            .value
            .exact_measures()
            .expect("exact lump has exit rates");
        let sopts = solver_options(budget);
        let topts = transient_options(budget);
        let value = match measure {
            Measure::Stationary => measures.expected_stationary_reward(&sopts)?,
            Measure::Transient(t) => measures.expected_transient_reward(t, &topts)?,
            Measure::Accumulated(t) => measures.expected_accumulated_reward(t, &topts)?,
        };
        Ok(vec![value])
    })?;
    let value = staged
        .value
        .first()
        .copied()
        .ok_or_else(|| CliError::Failed("cached measure artifact is empty".into()))?;
    Ok((value, staged.cached))
}

/// The ordinary-lump path: compile (or reuse) the kernel, solve through
/// the ladder, checkpoint long solves into the store and resume from a
/// prior interrupted run's snapshot.
fn solve_lumped(
    shared: &Shared,
    pipeline: &Pipeline,
    lumped_mrp: &Staged<mdl_core::MdMrp>,
    params: &SolveParams,
    budget: &Budget,
    cancel: &CancelToken,
) -> Result<(f64, bool, RunReport), CliError> {
    let kernel_opts = mdl_core::KernelOptions {
        kind: mdl_core::KernelKind::Compiled,
        threads: shared.solve_threads,
    };
    let mut sopts = solver_options(budget);
    let mut topts = transient_options(budget);
    let base = request_for(params.measure, &sopts, &topts, &kernel_opts).fallback(params.fallback);
    let solve_key = pipeline.solve_key(lumped_mrp.key, &base);

    // Long solves snapshot into the store so a drain or deadline leaves
    // resumable progress; a finished solve clears its snapshot.
    if pipeline.store().is_some() {
        match params.measure {
            Measure::Stationary => {
                sopts.checkpoint = pipeline.stationary_checkpoint_sink(solve_key, CHECKPOINT_EVERY);
            }
            Measure::Transient(_) => {
                topts.checkpoint = pipeline.transient_checkpoint_sink(solve_key, CHECKPOINT_EVERY);
            }
            Measure::Accumulated(_) => {}
        }
        if let Some(ck) = pipeline.load_checkpoint(solve_key) {
            mdl_obs::counter("serve.resumed").inc();
            match params.measure {
                Measure::Stationary => sopts.warm_start = Some(ck.iterate),
                Measure::Transient(_) => topts.resume_from = mdl_core::transient_resume(&ck),
                Measure::Accumulated(_) => {}
            }
        }
    }

    // Kernel: in-memory cache first (shared across requests), then the
    // store (a mapped kernel image — concurrent workers share one
    // mmap(2) region through the daemon store's mapping cache), then
    // a fresh compile. A compile failure under the fallback ladder is
    // survivable — the walk/flat-CSR rungs need no kernel.
    let cached_kernel = recover(&shared.kernels).get(lumped_mrp.key);
    let (prebuilt, kernel_warm) = match cached_kernel {
        Some(k) => {
            mdl_obs::counter("serve.kernel_memory_hit").inc();
            (Some(k), true)
        }
        None => match pipeline.compile(lumped_mrp, shared.solve_threads, budget) {
            Ok(staged) => {
                recover(&shared.kernels).insert(lumped_mrp.key, staged.value.clone());
                (Some(staged.value), staged.cached)
            }
            Err(_) if params.fallback => {
                mdl_obs::counter("pipeline.compile.failed").inc();
                (None, false)
            }
            Err(e) => return Err(e.into()),
        },
    };

    let mut request = request_for(params.measure, &sopts, &topts, &kernel_opts)
        .fallback(params.fallback)
        .cancelled_by(cancel);
    if let Some(k) = prebuilt {
        request = request.prebuilt_kernel(k);
    }
    let (outcome, run_report) = pipeline.solve(lumped_mrp, &request);
    let staged = outcome.map_err(CliError::from)?;
    let value = expected_reward(&lumped_mrp.value, staged.value)?;
    if pipeline.store().is_some() {
        pipeline.clear_checkpoint(solve_key)?;
    }
    Ok((value, kernel_warm && staged.cached, run_report))
}

fn request_for(
    measure: Measure,
    sopts: &SolverOptions,
    topts: &TransientOptions,
    kernel: &mdl_core::KernelOptions,
) -> SolveRequest {
    let request = match measure {
        Measure::Stationary => SolveRequest::stationary(),
        Measure::Transient(t) => SolveRequest::transient(t),
        Measure::Accumulated(t) => SolveRequest::accumulated_reward(t),
    };
    request
        .solver_options(sopts.clone())
        .transient_options(topts.clone())
        .kernel(kernel.kind)
        .threads(kernel.threads)
}

fn expected_reward(mrp: &mdl_core::MdMrp, outcome: SolveOutcome) -> Result<f64, CliError> {
    match outcome {
        SolveOutcome::Distribution(sol) => Ok(sol.try_expected_reward(&mrp.reward_vector())?),
        SolveOutcome::Value(v) => Ok(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ShedReason;
    use std::sync::mpsc;

    pub(crate) const MODEL: &str = crate::EXAMPLE_MODEL;

    fn shared() -> Shared {
        Shared::new(None, 1, None, None)
    }

    fn solve_params(model: &str) -> SolveParams {
        SolveParams {
            model: model.to_string(),
            kind: LumpKind::Ordinary,
            measure: Measure::Stationary,
            deadline_ms: None,
            tenant: "test".into(),
            fallback: true,
            bounds: false,
            tolerance: mdl_linalg::Tolerance::default(),
        }
    }

    fn job_for(params: SolveParams) -> (Job, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                params,
                cancel: CancelToken::new(),
                respond: tx,
                enqueued: Instant::now(),
            },
            rx,
        )
    }

    #[test]
    fn solve_job_returns_ok_with_ladder_log() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        let (job, _rx) = job_for(solve_params(MODEL));
        let shared = shared();
        match run_job(&shared, &job) {
            Response::Ok(body) => {
                assert!(body.measure.is_finite());
                assert!(body.lumped_states > 0);
                assert!(body.lumped_states <= body.original_states);
                assert!(!body.attempts.is_empty(), "ladder log rides along");
                assert_eq!(body.attempts.last().unwrap().outcome, "converged");
            }
            other => panic!("expected ok, got {other:?}"),
        }
        // Warm kernel is retained for the next request of this model.
        assert_eq!(shared.warm_kernels(), 1);
    }

    #[test]
    fn bounds_job_returns_an_enclosing_interval() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        let mut params = solve_params(MODEL);
        params.bounds = true;
        let (job, _rx) = job_for(params);
        let shared = shared();
        match run_job(&shared, &job) {
            Response::Ok(body) => {
                let (lo, hi) = body.bounds.expect("bounds solve returns an interval");
                assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
                assert!(lo <= body.measure && body.measure <= hi);
                assert!(!body.attempts.is_empty(), "sweep log rides along");
            }
            other => panic!("expected ok, got {other:?}"),
        }
        // The scalar solve of the same model agrees with the enclosure
        // up to its own iteration tolerance.
        let (job, _rx) = job_for(solve_params(MODEL));
        match run_job(&shared, &job) {
            Response::Ok(body) => assert!(body.bounds.is_none()),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    /// A scratch store directory, removed when dropped.
    struct TempStore(std::path::PathBuf);

    impl TempStore {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("mdl-serve-worker-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempStore(dir)
        }

        fn shared(&self) -> Shared {
            Shared::new(Some(Store::open(&self.0).unwrap()), 1, None, None)
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The example model with its toggle rate nudged: a distinct model
    /// text, hence a distinct build key and kernel, for every `i`.
    fn variant(i: usize) -> String {
        MODEL.replace(
            "event toggle rate 0.2",
            &format!("event toggle rate {}", 0.2 + i as f64 / 1024.0),
        )
    }

    fn solve_ok(shared: &Shared, model: &str) -> OkBody {
        let (job, _rx) = job_for(solve_params(model));
        match run_job(shared, &job) {
            Response::Ok(body) => body,
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn malformed_model_is_a_bad_request_error() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::set_enabled(true);
        mdl_obs::failpoint::clear();
        let bad = "component only-half";
        let expected = format!("model: {}", mdl_cli::parse_model(bad).unwrap_err());
        let parsed = mdl_obs::counter("serve.model_parsed");
        let temp = TempStore::new("malformed");
        // Without and with a store, first and second request: the same
        // detail each time, and a parse each time, since a failed build
        // is never stored for a later request to hit.
        for shared in [shared(), temp.shared()] {
            for _ in 0..2 {
                let before = parsed.get();
                let (job, _rx) = job_for(solve_params(bad));
                match run_job(&shared, &job) {
                    Response::Error { kind, detail } => {
                        assert_eq!(kind, ErrorKind::BadRequest);
                        assert_eq!(detail, expected);
                    }
                    other => panic!("expected error, got {other:?}"),
                }
                assert_eq!(parsed.get() - before, 1);
            }
        }
    }

    #[test]
    fn store_hits_skip_the_model_parse() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::set_enabled(true);
        mdl_obs::failpoint::clear();
        let temp = TempStore::new("deferred-parse");
        let shared = temp.shared();
        let parsed = mdl_obs::counter("serve.model_parsed");

        let before = parsed.get();
        let cold = solve_ok(&shared, MODEL);
        assert_eq!(parsed.get() - before, 1);
        assert!(!cold.warm);

        let before = parsed.get();
        let warm = solve_ok(&shared, MODEL);
        assert_eq!(parsed.get() - before, 0, "a store hit parses no model text");
        assert!(warm.warm);
        assert_eq!(warm.measure.to_bits(), cold.measure.to_bits());
    }

    #[test]
    fn kernel_cache_evicts_the_least_recently_used_past_its_capacity() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::set_enabled(true);
        mdl_obs::failpoint::clear();
        let shared = shared();
        let evicted = mdl_obs::counter("serve.kernel_evicted");
        let memory_hits = mdl_obs::counter("serve.kernel_memory_hit");
        let before = evicted.get();
        let first: Vec<f64> = (0..KERNEL_CACHE_CAPACITY + 3)
            .map(|i| solve_ok(&shared, &variant(i)).measure)
            .collect();
        assert_eq!(shared.warm_kernels(), KERNEL_CACHE_CAPACITY);
        assert_eq!(evicted.get() - before, 3);

        // The oldest model lost its kernel: it is recompiled, and answers
        // bit-identically.
        let hits = memory_hits.get();
        let again = solve_ok(&shared, &variant(0));
        assert_eq!(
            memory_hits.get(),
            hits,
            "an evicted kernel is no memory hit"
        );
        assert_eq!(again.measure.to_bits(), first[0].to_bits());
        assert_eq!(shared.warm_kernels(), KERNEL_CACHE_CAPACITY);
    }

    #[test]
    fn a_memory_hit_refreshes_the_kernels_recency() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::set_enabled(true);
        mdl_obs::failpoint::clear();
        let shared = shared();
        let memory_hits = mdl_obs::counter("serve.kernel_memory_hit");
        for i in 0..KERNEL_CACHE_CAPACITY {
            solve_ok(&shared, &variant(i));
        }
        // Model 0 is asked again between newer ones, so model 1 is the
        // least recently used when the next new model arrives.
        let hits = memory_hits.get();
        solve_ok(&shared, &variant(0));
        solve_ok(&shared, &variant(KERNEL_CACHE_CAPACITY));
        solve_ok(&shared, &variant(0));
        assert_eq!(memory_hits.get() - hits, 2, "model 0 kept its kernel");
        let hits = memory_hits.get();
        solve_ok(&shared, &variant(1));
        assert_eq!(memory_hits.get(), hits, "model 1 was evicted");
    }

    #[test]
    fn an_evicted_kernel_is_restored_from_its_store_image() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::set_enabled(true);
        mdl_obs::failpoint::clear();
        let temp = TempStore::new("evicted");
        let shared = temp.shared();
        let memory_hits = mdl_obs::counter("serve.kernel_memory_hit");
        let cold = solve_ok(&shared, &variant(0));
        for i in 1..=KERNEL_CACHE_CAPACITY {
            solve_ok(&shared, &variant(i));
        }
        let hits = memory_hits.get();
        let warm = solve_ok(&shared, &variant(0));
        assert_eq!(memory_hits.get(), hits, "model 0 was evicted from memory");
        assert!(
            warm.warm,
            "every stage, the kernel too, came from the store"
        );
        assert_eq!(warm.measure.to_bits(), cold.measure.to_bits());
    }

    #[test]
    fn worker_panic_is_caught_as_internal_error() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::set_enabled(true);
        mdl_obs::failpoint::clear();
        mdl_obs::failpoint::set("serve.request", "panic").unwrap();
        let (job, _rx) = job_for(solve_params(MODEL));
        let before = mdl_obs::counter("serve.panic_caught").get();
        match run_job(&shared(), &job) {
            Response::Error { kind, detail } => {
                assert_eq!(kind, ErrorKind::Internal);
                assert!(detail.contains("panicked"), "detail: {detail}");
            }
            other => panic!("expected internal error, got {other:?}"),
        }
        mdl_obs::failpoint::clear();
        assert!(mdl_obs::counter("serve.panic_caught").get() > before);
        // The worker is still usable after the panic.
        let (job, _rx) = job_for(solve_params(MODEL));
        assert!(matches!(run_job(&shared(), &job), Response::Ok(_)));
    }

    #[test]
    fn injected_failure_is_an_honest_internal_error() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        mdl_obs::failpoint::set("serve.request", "err").unwrap();
        let (job, _rx) = job_for(solve_params(MODEL));
        match run_job(&shared(), &job) {
            Response::Error { kind, detail } => {
                assert_eq!(kind, ErrorKind::Internal);
                assert!(detail.contains("failpoint"));
            }
            other => panic!("expected error, got {other:?}"),
        }
        mdl_obs::failpoint::clear();
    }

    #[test]
    fn expired_deadline_interrupts_with_distinct_kind() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        let mut params = solve_params(MODEL);
        params.deadline_ms = Some(0);
        let (job, _rx) = job_for(params);
        match run_job(&shared(), &job) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Interrupted),
            other => panic!("expected interrupted, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_interrupts_the_solve() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        let (mut job, _rx) = job_for(solve_params(MODEL));
        job.cancel.cancel();
        match run_job(&shared(), &job) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Interrupted),
            other => panic!("expected interrupted, got {other:?}"),
        }
    }

    #[test]
    fn deadline_clamping_honors_default_and_max() {
        let s = Shared::new(
            None,
            1,
            Some(Duration::from_millis(100)),
            Some(Duration::from_millis(500)),
        );
        assert_eq!(s.effective_deadline(None), Some(Duration::from_millis(100)));
        assert_eq!(
            s.effective_deadline(Some(200)),
            Some(Duration::from_millis(200))
        );
        assert_eq!(
            s.effective_deadline(Some(10_000)),
            Some(Duration::from_millis(500))
        );
        let unbounded = Shared::new(None, 1, None, None);
        assert_eq!(unbounded.effective_deadline(None), None);
    }

    #[test]
    fn shed_reason_labels_are_wire_stable() {
        assert_eq!(ShedReason::QueueFull.label(), "queue-full");
        assert_eq!(ShedReason::TenantCap.label(), "tenant-cap");
        assert_eq!(ShedReason::Draining.label(), "draining");
    }
}
