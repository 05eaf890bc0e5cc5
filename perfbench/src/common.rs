//! Helpers shared by the workloads.

use std::time::{Duration, Instant};

use mdl_core::{CoreError, MdMrp, SolveOutcome};
use mdl_ctmc::RunReport;

/// Run settings common to every workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory inside the checkout (stores, daemon caches).
    pub work_dir: std::path::PathBuf,
}

/// Threads per lump, compile and solve in the library workload: the
/// serial kernel path, as every solve of the daemon runs. At one thread
/// per core (the CLI default; 2 on the reference host) every product
/// above 1,024 states spawns its threads anew, and on a shared two-core
/// host that made runs swing by up to 3×: 33–56% spreads of `op_p50_ms`
/// across ten seeds, beyond any bound the benchmark may set.
pub const THREADS: usize = 1;

/// Set-up repetitions per run for set-ups that take about a second
/// (reachability, daemon start); `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` `reps` times and returns the last result with the
/// per-repetition wall times in seconds.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Whether operation `i` of a run is traced: in a traced run every
/// other operation, so the untraced ones in between give the
/// same-run reference for `trace_overhead_pct`.
pub fn traced_op(cfg: &Config, i: usize) -> bool {
    cfg.trace && i.is_multiple_of(2)
}

/// Whether the measurement loop should start operation `i`: until the
/// run's seconds are used, and at least twice in a traced run (one
/// traced and one untraced operation).
pub fn keep_going(cfg: &Config, started: Instant, i: usize) -> bool {
    let min_ops = if cfg.trace { 2 } else { 1 };
    i < min_ops || started.elapsed() < cfg.seconds
}

/// Total nanoseconds recorded so far by the span histogram `name`.
pub fn span_ns(name: &'static str) -> u64 {
    mdl_obs::histogram(name).sum()
}

/// Current value of the `mdl_obs` counter `name`.
pub fn counter(name: &'static str) -> u64 {
    mdl_obs::counter(name).get()
}

/// Peak resident set (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// The expected reward of a solve outcome on `mrp`.
pub fn expected_reward(mrp: &MdMrp, outcome: &SolveOutcome) -> Result<f64, String> {
    match outcome {
        SolveOutcome::Distribution(sol) => sol
            .try_expected_reward(&mrp.reward_vector())
            .map_err(|e| e.to_string()),
        SolveOutcome::Value(v) => Ok(*v),
    }
}

/// Model-layer errors as the pipeline's build error.
pub fn build_error(e: mdl_models::ModelError) -> CoreError {
    match e {
        mdl_models::ModelError::Core(c) => c,
        other => CoreError::Build {
            detail: other.to_string(),
        },
    }
}

/// Solver time and iterations summed over a ladder report's attempts.
pub fn attempts_time(report: &RunReport) -> (f64, u64) {
    report.attempts.iter().fold((0.0, 0), |(t, n), a| {
        (t + a.elapsed.as_secs_f64(), n + a.iterations as u64)
    })
}

/// `100 · (traced / untraced − 1)`: how much slower traced operations
/// ran than the untraced ones of the same run.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    100.0 * (traced / untraced - 1.0)
}
