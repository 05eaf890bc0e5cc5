//! `mdlump-cli` — parse a model file, lump its matrix diagram, solve for
//! measures.
//!
//! ```text
//! mdlump-cli info     <model-file>
//! mdlump-cli lump     <model-file> [--exact] [--iterate] [--tolerance exact|N]
//!                     [--threads N] [--deadline DUR]
//! mdlump-cli solve    <model-file> [--exact] [--transient T | --accumulated T]
//!                     [--bounds] [--tolerance exact|N]
//!                     [--kernel walk|compiled] [--threads N]
//!                     [--deadline DUR] [--fallback] [--report]
//!                     [--cache-dir DIR] [--checkpoint-every N] [--resume]
//! mdlump-cli sweep    <model-file> --set name=lo:hi:count [--set ...]
//!                     [--sweep-out FILE] [--kernel walk|compiled]
//!                     [--threads N] [--deadline DUR] [--fallback]
//!                     [--cache-dir DIR]
//! mdlump-cli simulate <model-file> [--horizon T] [--reps N] [--seed S]
//!                     [--deadline DUR]
//! ```
//!
//! All subcommands also take `--metrics pretty|json` (span events plus a
//! final counter/timing report), `--trace` (additionally stream span-start
//! and point events), `--metrics-out FILE` (write the stream to `FILE`
//! instead of stderr, keeping stdout for the command's own output),
//! `--profile` (an aggregated self-profile tree on stderr at exit) and
//! `--profile-out FILE` (a Chrome trace-event JSON timeline for
//! Perfetto / `chrome://tracing`).
//!
//! The metrics report, the profile tree and the trace file are written on
//! every exit path — a run that fails or blows its `--deadline` still
//! leaves complete telemetry behind, which is exactly when it is needed.
//!
//! Exit codes: `0` success, `1` failure, `2` a `--deadline` (or other
//! budget limit) interrupted the run.

use std::process::ExitCode;
use std::sync::Arc;

use mdl_cli::commands::{self, Measure};
use mdl_cli::error::CliError;
use mdl_cli::executor::Query;
use mdl_cli::flags::{self, MetricsFormat, ObsFlags, ProfileFlags};
use mdl_cli::parse_model;
use mdl_core::LumpKind;
use mdl_obs::{JsonlSubscriber, PrettySubscriber};

/// The counting allocator wrapper: free (one relaxed load per
/// allocation) until `--profile`/`--profile-out` switch tracking on, at
/// which point every pipeline stage reports bytes allocated and the
/// heap high-water mark alongside wall time.
#[global_allocator]
static ALLOC: mdl_obs::CountingAllocator = mdl_obs::CountingAllocator;

fn usage() -> String {
    "usage:\n  mdlump-cli info     <model-file>\n  mdlump-cli lump     <model-file> [--exact] [--iterate] [--tolerance exact|N]\n                      [--threads N] [--deadline DUR] [--cache-dir DIR]\n  mdlump-cli solve    <model-file> [--exact] [--transient T | --accumulated T]\n                      [--bounds] [--tolerance exact|N]\n                      [--kernel walk|compiled] [--threads N]\n                      [--deadline DUR] [--fallback] [--report]\n                      [--cache-dir DIR] [--checkpoint-every N] [--resume]\n  mdlump-cli sweep    <model-file> --set name=lo:hi:count [--set ...]\n                      [--sweep-out FILE] [--kernel walk|compiled]\n                      [--threads N] [--deadline DUR] [--fallback]\n                      [--cache-dir DIR]\n  mdlump-cli simulate <model-file> [--horizon T] [--reps N] [--seed S]\n                      [--deadline DUR]\n\nparameter sweep:\n  --set name=lo:hi:count  sweep the named event's rate over an inclusive\n                          linspace (count >= 2 points), or name=value for\n                          a single point; repeat --set to sweep the\n                          Cartesian product of several axes; the\n                          structure compiles once, unchanged levels\n                          reuse their partition across points, and each\n                          stationary solve warm-starts from its nearest\n                          solved neighbor\n  --sweep-out FILE        write one JSON object per point to FILE\n                          (params, measure, lumped states, level reuse,\n                          warm start, iterations, timings)\n\nartifact cache (lump, solve and sweep):\n  --cache-dir DIR         content-addressed cache of every pipeline\n                          stage (build, lump, kernel compile, solve,\n                          measures): artifacts persist under keys\n                          derived from the model text and the\n                          result-relevant options, so a repeated run is\n                          pure cache hits (the MDL_CACHE environment\n                          variable supplies a default directory)\n  --checkpoint-every N    with a cache: snapshot long stationary /\n                          transient solves every N iterations so an\n                          interrupted run can continue\n  --resume                with a cache: continue an interrupted solve\n                          from its checkpoint (cleared on success)\n\nsolve kernel:\n  --kernel walk|compiled  iterate the recursive MD walk, or compile the\n                          MD\u{d7}MDD pair once into a flat kernel (default;\n                          bit-identical products, typically much faster)\n  --threads N             worker threads (at least 1) for compiled\n                          products and for the lump refinement's\n                          formal-sum key phase; the result is\n                          bit-identical for any count (omit the flag for\n                          one worker per hardware thread)\n\nlumping (lump and solve):\n  --tolerance exact|N     compare rates bit-for-bit (exact) or rounded\n                          to N decimal digits when grouping states\n                          (default 9, which absorbs only floating-point\n                          noise); looser tolerances lump near-symmetric\n                          models, trading exactness for reduction --\n                          pair with --bounds to certify the trade\n\ncertified bounds (solve):\n  --bounds                enclose the measure in a certified interval\n                          [lo, hi]: tolerance lumping records, per lumped\n                          transition, the hull of the member rates its\n                          coefficient stands in for, and lower/upper\n                          sweeps over that interval-weighted kernel\n                          (outward-rounded arithmetic throughout) bound\n                          every chain in the envelope -- including the\n                          unlumped one; an exactly lumpable model yields\n                          the degenerate interval [x, x] of the scalar\n                          solve (stationary and --transient measures)\n\nresilience:\n  --deadline DUR          wall-clock budget for the run (e.g. 250ms, 1.5s;\n                          bare numbers are seconds); an expired deadline\n                          exits with code 2 and an `interrupted` message\n  --fallback              solve through the resilient fallback ladder:\n                          jacobi/compiled -> power/compiled -> power/walk\n                          -> power/flat-csr (solve only; the ladder\n                          covers stationary and transient measures)\n  --report                with --fallback, append the per-attempt log to\n                          the output\n\nobservability (any subcommand):\n  --trace                 stream span/point events as they happen\n  --metrics pretty|json   emit spans and a final counter/timing report\n  --metrics-out FILE      write the stream to FILE instead of stderr\n  --profile               print an aggregated self-profile to stderr at\n                          exit: the span tree with call counts,\n                          inclusive/exclusive wall time and allocation\n                          deltas per stage (JSON with --metrics json)\n  --profile-out FILE      write the run's timeline as Chrome\n                          trace-event JSON to FILE; load it in Perfetto\n                          or chrome://tracing to see pipeline stages\n                          and worker threads on a zoomable time axis\n\nexit codes: 0 success, 1 failure, 2 deadline/budget interrupted\n\nsee the mdl-cli crate docs for the model file format"
        .to_string()
}

/// The configured metrics emitter: the subscriber receiving live events,
/// kept so the final report can be written to the same destination.
enum Emitter {
    Pretty(Arc<PrettySubscriber>),
    Json(Arc<JsonlSubscriber>),
}

impl Emitter {
    fn write_line(&self, line: &str) {
        match self {
            Emitter::Pretty(s) => s.write_line(line),
            Emitter::Json(s) => s.write_line(line),
        }
    }
}

/// Enables observability per `cfg` and attaches the requested emitter.
fn setup_obs(cfg: &ObsFlags) -> Result<Option<Emitter>, String> {
    if !cfg.active() {
        return Ok(None);
    }
    mdl_obs::set_enabled(true);
    if cfg.trace {
        mdl_obs::set_tracing(true);
    }
    let emitter = match (cfg.format(), cfg.out.as_deref()) {
        (MetricsFormat::Pretty, None) => Emitter::Pretty(Arc::new(PrettySubscriber::stderr())),
        (MetricsFormat::Pretty, Some(path)) => Emitter::Pretty(Arc::new(
            PrettySubscriber::to_file(path)
                .map_err(|e| format!("--metrics-out: cannot open {path}: {e}"))?,
        )),
        (MetricsFormat::Json, None) => Emitter::Json(Arc::new(JsonlSubscriber::stderr())),
        (MetricsFormat::Json, Some(path)) => Emitter::Json(Arc::new(
            JsonlSubscriber::to_file(path)
                .map_err(|e| format!("--metrics-out: cannot open {path}: {e}"))?,
        )),
    };
    match &emitter {
        Emitter::Pretty(s) => mdl_obs::add_subscriber(s.clone()),
        Emitter::Json(s) => mdl_obs::add_subscriber(s.clone()),
    }
    Ok(Some(emitter))
}

/// Writes the end-of-run counter/timing report to the emitter's
/// destination, in its format.
fn emit_report(emitter: &Emitter) {
    let report = mdl_obs::snapshot();
    if report.is_empty() {
        return;
    }
    let rendered = match emitter {
        Emitter::Pretty(_) => report.render_pretty(),
        Emitter::Json(_) => report.render_jsonl(),
    };
    for line in rendered.lines() {
        emitter.write_line(line);
    }
}

/// Everything configured before the command body runs, kept so the
/// teardown in [`main`] can write the final report and profile outputs
/// no matter how the command exits.
struct Session {
    emitter: Option<Emitter>,
    profile: ProfileFlags,
    json: bool,
}

/// Parses the observability/profiling flags and switches the requested
/// instrumentation on. Runs before the command body so that even a
/// run that fails while parsing its own flags tears down cleanly.
fn setup(flag_args: &[String]) -> Result<Session, String> {
    let obs_flags = flags::parse_obs_flags(flag_args)?;
    let profile = flags::parse_profile_flags(flag_args)?;
    let emitter = setup_obs(&obs_flags)?;
    if profile.active() {
        mdl_obs::set_profiling(true);
        mdl_obs::set_mem_tracking(true);
    }
    Ok(Session {
        emitter,
        profile,
        json: obs_flags.format() == MetricsFormat::Json,
    })
}

/// Writes the profile outputs (`--profile-out` trace file, `--profile`
/// tree on stderr). Called on every exit path.
fn write_profile_outputs(session: &Session) -> Result<(), String> {
    if !session.profile.active() {
        return Ok(());
    }
    let trace = mdl_obs::take_trace();
    if let Some(path) = &session.profile.out {
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| format!("--profile-out: cannot write {path}: {e}"))?;
    }
    if session.profile.profile {
        let tree = trace.profile();
        let rendered = if session.json {
            tree.to_json()
        } else {
            tree.render_pretty()
        };
        eprintln!("{}", rendered.trim_end());
        if mdl_obs::mem_tracking() {
            let m = mdl_obs::mem_stats();
            if session.json {
                eprintln!(
                    "{{\"type\":\"mem\",\"allocated_bytes\":{},\"alloc_calls\":{},\"peak_bytes\":{}}}",
                    m.allocated_bytes, m.alloc_calls, m.peak_bytes
                );
            } else {
                eprintln!(
                    "heap: {} allocated over {} calls, peak {}",
                    mdl_obs::fmt_bytes(m.allocated_bytes),
                    m.alloc_calls,
                    mdl_obs::fmt_bytes(m.peak_bytes)
                );
            }
        }
    }
    Ok(())
}

/// The staged pipeline for this invocation: keyed by the raw model text,
/// persistent when a cache directory is configured.
fn pipeline_for(pf: &flags::PipelineFlags, input: &str) -> Result<mdl_core::Pipeline, CliError> {
    let key = mdl_core::model_source_key(input);
    Ok(match &pf.cache_dir {
        None => mdl_core::Pipeline::new(key),
        Some(dir) => mdl_core::Pipeline::with_store(
            key,
            mdl_store::Store::open(dir)
                .map_err(|e| format!("cache directory {}: {e}", dir.display()))?,
        ),
    })
}

fn run(args: &[String]) -> Result<String, CliError> {
    let (command, file) = match args {
        [c, f, ..] => (c.as_str(), f.as_str()),
        _ => return Err(CliError::Failed(usage())),
    };
    let flag_args = &args[2..];
    let kind = if flag_args.iter().any(|f| f == "--exact") {
        LumpKind::Exact
    } else {
        LumpKind::Ordinary
    };

    let pipeline_flags = flags::parse_pipeline_flags(
        flag_args,
        std::env::var(flags::CACHE_ENV_VAR).ok().as_deref(),
    )?;

    let input = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let parsed = parse_model(&input).map_err(|e| e.to_string())?;

    match command {
        "info" => commands::info(&parsed),
        "lump" => {
            let iterate = flag_args.iter().any(|f| f == "--iterate");
            let deadline = flags::flag_duration(flag_args, "--deadline")?;
            let threads = flags::flag_threads(flag_args)?.unwrap_or(0);
            let tolerance = flags::flag_tolerance(flag_args)?.unwrap_or_default();
            let pipeline = pipeline_for(&pipeline_flags, &input)?;
            commands::lump(
                &parsed, kind, tolerance, iterate, deadline, threads, &pipeline,
            )
        }
        "solve" => {
            let transient = flags::flag_f64_nonneg(flag_args, "--transient")?;
            let accumulated = flags::flag_f64_nonneg(flag_args, "--accumulated")?;
            let measure = match (transient, accumulated) {
                (Some(_), Some(_)) => {
                    return Err(CliError::Failed(
                        "choose one of --transient and --accumulated".into(),
                    ))
                }
                (Some(t), None) => Measure::Transient(t),
                (None, Some(t)) => Measure::Accumulated(t),
                (None, None) => Measure::Stationary,
            };
            let kernel = flags::parse_kernel_flags(flag_args)?;
            let resilience = flags::parse_resilience_flags(flag_args)?;
            let pipeline = pipeline_for(&pipeline_flags, &input)?;
            let query = Query {
                measure,
                kind,
                tolerance: flags::flag_tolerance(flag_args)?.unwrap_or_default(),
                bounds: flag_args.iter().any(|f| f == "--bounds"),
                fallback: resilience.fallback,
                kernel,
                budget: resilience.budget(),
                checkpoint_every: pipeline_flags.checkpoint_every.map(|n| n as usize),
                resume: pipeline_flags.resume,
            };
            commands::solve(&parsed, &pipeline, &query, resilience.report, 200_000)
        }
        "sweep" => {
            if kind == LumpKind::Exact {
                return Err(CliError::Failed(
                    "sweep solves the ordinary-lumped chain; --exact is not supported".into(),
                ));
            }
            let axes = flags::parse_sweep_axes(flag_args)?;
            let kernel = flags::parse_kernel_flags(flag_args)?;
            let resilience = flags::parse_resilience_flags(flag_args)?;
            let sweep_out = flags::value_of(flag_args, "--sweep-out")?;
            let pipeline = pipeline_for(&pipeline_flags, &input)?;
            commands::sweep(&parsed, &axes, &kernel, &resilience, &pipeline, sweep_out)
        }
        "simulate" => {
            let horizon = flags::flag_f64_positive(flag_args, "--horizon")?.unwrap_or(100.0);
            let reps = flags::flag_count(flag_args, "--reps")?.unwrap_or(50) as usize;
            let seed = flags::flag_u64(flag_args, "--seed")?.unwrap_or(0x5EED);
            let deadline = flags::flag_duration(flag_args, "--deadline")?;
            commands::simulate(&parsed, horizon, reps, seed, deadline)
        }
        other => Err(CliError::Failed(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

/// Writes the command output to stdout. A closed pipe (`mdlump-cli … |
/// head`) is the consumer's normal way to stop reading, not a failure,
/// so `BrokenPipe` exits cleanly instead of panicking like `print!`
/// would.
fn write_stdout(out: &str) -> ExitCode {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write output: {e}");
            ExitCode::from(mdl_cli::error::EXIT_FAILURE)
        }
    }
}

/// Turns the command outcome into an exit code, printing output to stdout
/// and errors to stderr, and flushing any observability emitters before
/// the process exits — buffered trace/metrics lines must not be lost on
/// the error path. Budget interruptions get their own exit code so
/// scripts can tell "ran out of time" apart from "failed".
fn finish(result: Result<String, CliError>) -> ExitCode {
    let code = match result {
        Ok(out) => write_stdout(&out),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    };
    mdl_obs::flush();
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_args: &[String] = if args.len() >= 2 { &args[2..] } else { &[] };
    let session = match setup(flag_args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(mdl_cli::error::EXIT_FAILURE);
        }
    };
    let result = run(&args);
    let ok = result.is_ok();
    // Teardown runs on every exit path: a failed or interrupted run
    // still gets its final counter report, profile tree and trace file
    // — the telemetry of a run that blew its deadline is precisely the
    // evidence of where the budget went.
    if let Some(emitter) = &session.emitter {
        emit_report(emitter);
    }
    let profile_outcome = write_profile_outputs(&session);
    let code = finish(result);
    match profile_outcome {
        Ok(()) => code,
        Err(e) => {
            eprintln!("{e}");
            // A lost trace file fails an otherwise-successful run, but
            // never masks the command's own failure/interrupted code.
            if ok {
                ExitCode::from(mdl_cli::error::EXIT_FAILURE)
            } else {
                code
            }
        }
    }
}
