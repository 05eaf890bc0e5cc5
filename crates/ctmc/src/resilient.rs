//! Fallback-ladder solving: try an ordered list of solver
//! configurations, record every attempt, and degrade gracefully.
//!
//! The north-star deployment answers measure queries under a deadline:
//! a solve must terminate within budget and fall back to a
//! slower-but-safer method rather than hang or return garbage. The
//! ladder retries on the three *recoverable* failure shapes —
//! [`NotConverged`](CtmcError::NotConverged) (slow),
//! [`Diverged`](CtmcError::Diverged) (garbage caught by the guards) and
//! [`Interrupted`](CtmcError::Interrupted) (budget) — and aborts on
//! anything structural (absorbing states, shape mismatches), which no
//! amount of retrying fixes.
//!
//! Every attempt lands in a [`RunReport`] whether or not the ladder
//! ultimately succeeds, so operators can see exactly which rungs ran,
//! why they failed and what the winning configuration cost.

use std::time::Instant;

use crate::solver::{Solution, SolverOptions, StationaryMethod};
use crate::CtmcError;

/// How one ladder attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The solver converged; the returned solution came from this rung.
    Converged,
    /// The solver ran out of iterations or stagnated.
    NotConverged,
    /// The iterate went non-finite.
    Diverged,
    /// A budget limit interrupted the attempt.
    Interrupted,
    /// A structural error (not retryable); the ladder stopped here.
    Failed,
}

impl AttemptOutcome {
    /// Lower-case label used in reports and obs events.
    pub fn label(self) -> &'static str {
        match self {
            AttemptOutcome::Converged => "converged",
            AttemptOutcome::NotConverged => "not-converged",
            AttemptOutcome::Diverged => "diverged",
            AttemptOutcome::Interrupted => "interrupted",
            AttemptOutcome::Failed => "failed",
        }
    }
}

impl std::fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded ladder attempt.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Solver method label (`power`, `jacobi`, …).
    pub method: &'static str,
    /// Kernel label for MD solves (`compiled`, `walk`, `flat-csr`),
    /// `None` for flat solves.
    pub kernel: Option<&'static str>,
    /// Iterations the attempt performed before finishing or failing.
    pub iterations: usize,
    /// Residual when the attempt ended (NaN when none was computed).
    pub residual: f64,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// The rendered error for non-converged attempts.
    pub error: Option<String>,
    /// Wall-clock time of the attempt.
    pub elapsed: std::time::Duration,
}

impl AttemptRecord {
    fn render(&self, index: usize) -> String {
        let config = match self.kernel {
            Some(k) => format!("{}/{}", self.method, k),
            None => self.method.to_string(),
        };
        let mut line = format!(
            "  {}. {:<18} {:<13} iters={:<8} residual={:<10.3e} elapsed={:?}",
            index + 1,
            config,
            self.outcome.label(),
            self.iterations,
            self.residual,
            self.elapsed,
        );
        if let Some(e) = &self.error {
            line.push_str(&format!("\n     {e}"));
        }
        line
    }
}

/// Every attempt a resilient solve made, in order.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The attempts, in execution order. Non-empty after any resilient
    /// solve.
    pub attempts: Vec<AttemptRecord>,
}

impl RunReport {
    /// Whether the final attempt converged (i.e. the solve succeeded).
    pub fn converged(&self) -> bool {
        matches!(
            self.attempts.last(),
            Some(a) if a.outcome == AttemptOutcome::Converged
        )
    }

    /// Number of fallbacks taken (attempts beyond the first).
    pub fn fallbacks(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Renders the report for humans, one attempt per line.
    pub fn render(&self) -> String {
        let mut out = String::from("solve attempts:\n");
        for (i, a) in self.attempts.iter().enumerate() {
            out.push_str(&a.render(i));
            out.push('\n');
        }
        out
    }
}

/// Classifies errors for ladder control flow. Implemented for
/// [`CtmcError`] here and for `mdl-core`'s error type there, so the same
/// [`solve_ladder`] driver serves flat and matrix-diagram solves.
pub trait ResilientError: std::fmt::Display {
    /// The attempt outcome this error represents.
    fn outcome(&self) -> AttemptOutcome;

    /// Whether the next rung should be tried. Structural errors are
    /// final; slow/garbage/budget errors are worth a retry.
    fn retryable(&self) -> bool {
        matches!(
            self.outcome(),
            AttemptOutcome::NotConverged | AttemptOutcome::Diverged | AttemptOutcome::Interrupted
        )
    }

    /// `(iterations, residual)` the failing attempt reached, if the
    /// error carries them.
    fn progress(&self) -> Option<(usize, f64)> {
        None
    }
}

impl ResilientError for CtmcError {
    fn outcome(&self) -> AttemptOutcome {
        match self {
            CtmcError::NotConverged { .. } => AttemptOutcome::NotConverged,
            CtmcError::Diverged { .. } => AttemptOutcome::Diverged,
            CtmcError::Interrupted { .. } => AttemptOutcome::Interrupted,
            _ => AttemptOutcome::Failed,
        }
    }

    fn progress(&self) -> Option<(usize, f64)> {
        match self {
            CtmcError::NotConverged {
                iterations,
                residual,
            } => Some((*iterations, *residual)),
            CtmcError::Diverged {
                iteration,
                residual,
            } => Some((*iteration, *residual)),
            CtmcError::Interrupted { progress, .. } => {
                Some((progress.iterations, progress.residual))
            }
            _ => None,
        }
    }
}

/// Ladder of stationary methods for a flat
/// [`Mrp`](crate::Mrp) solve, tried in order by
/// [`Mrp::solve_resilient`](crate::Mrp::solve_resilient).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOptions {
    /// Methods to attempt, in order. Must be non-empty.
    pub ladder: Vec<StationaryMethod>,
    /// Base solver options; the `method` field is overridden per rung.
    pub options: SolverOptions,
}

impl Default for ResilientOptions {
    /// Jacobi first (usually fewer iterations), power as the fallback
    /// (guaranteed convergence on finite irreducible chains).
    fn default() -> Self {
        ResilientOptions {
            ladder: vec![StationaryMethod::Jacobi, StationaryMethod::Power],
            options: SolverOptions::default(),
        }
    }
}

/// The label of a stationary method, as used in reports and events.
pub fn method_label(method: StationaryMethod) -> &'static str {
    match method {
        StationaryMethod::Power => "power",
        StationaryMethod::Jacobi => "jacobi",
    }
}

/// What a converged ladder attempt records about itself: the iterations
/// it took and the residual it reached.
pub trait Converged {
    /// `(iterations, residual)` of the converged attempt.
    fn progress(&self) -> (usize, f64);
}

impl Converged for Solution {
    fn progress(&self) -> (usize, f64) {
        (self.stats.iterations, self.stats.residual)
    }
}

/// A scalar measure (an accumulated reward) carries no iteration
/// record: its attempts report 0 iterations and a NaN residual.
impl Converged for f64 {
    fn progress(&self) -> (usize, f64) {
        (0, f64::NAN)
    }
}

/// Drives a fallback ladder: runs `attempt` on each rung in order until
/// one succeeds or a non-retryable error appears, recording every
/// attempt (and emitting `solve.attempt`/`solve.fallback` obs events,
/// counting fallbacks in `solve.fallbacks`). Returns the first success
/// or the *last* error, together with the full report.
///
/// # Panics
///
/// Panics if `rungs` is empty.
pub fn solve_ladder<A, T: Converged, E: ResilientError>(
    rungs: &[A],
    label: impl Fn(&A) -> (&'static str, Option<&'static str>),
    mut attempt: impl FnMut(&A) -> std::result::Result<T, E>,
) -> (std::result::Result<T, E>, RunReport) {
    assert!(
        !rungs.is_empty(),
        "the fallback ladder needs at least one rung"
    );
    let mut report = RunReport::default();
    let mut last_err: Option<E> = None;
    for (i, rung) in rungs.iter().enumerate() {
        let (method, kernel) = label(rung);
        if i > 0 {
            mdl_obs::counter("solve.fallbacks").inc();
            mdl_obs::point("solve.fallback", || {
                vec![
                    ("method", mdl_obs::Value::from(method)),
                    ("kernel", mdl_obs::Value::from(kernel.unwrap_or("-"))),
                    ("attempt", mdl_obs::Value::from(i + 1)),
                ]
            });
        }
        let t0 = Instant::now();
        let result = attempt(rung);
        let elapsed = t0.elapsed();
        let record = match &result {
            Ok(value) => {
                let (iterations, residual) = value.progress();
                AttemptRecord {
                    method,
                    kernel,
                    iterations,
                    residual,
                    outcome: AttemptOutcome::Converged,
                    error: None,
                    elapsed,
                }
            }
            Err(e) => {
                let (iterations, residual) = e.progress().unwrap_or((0, f64::NAN));
                AttemptRecord {
                    method,
                    kernel,
                    iterations,
                    residual,
                    outcome: e.outcome(),
                    error: Some(e.to_string()),
                    elapsed,
                }
            }
        };
        mdl_obs::point("solve.attempt", || {
            vec![
                ("method", mdl_obs::Value::from(method)),
                ("kernel", mdl_obs::Value::from(kernel.unwrap_or("-"))),
                ("outcome", mdl_obs::Value::from(record.outcome.label())),
                ("iterations", mdl_obs::Value::from(record.iterations)),
            ]
        });
        report.attempts.push(record);
        match result {
            Ok(value) => return (Ok(value), report),
            Err(e) => {
                let stop = !e.retryable();
                last_err = Some(e);
                if stop {
                    break;
                }
            }
        }
    }
    (
        Err(last_err.expect("ladder ran at least one attempt")),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveStats;

    fn sol(iterations: usize) -> Solution {
        Solution {
            probabilities: vec![1.0],
            stats: SolveStats {
                iterations,
                residual: 0.0,
                elapsed: std::time::Duration::ZERO,
            },
        }
    }

    #[test]
    fn first_success_short_circuits() {
        let rungs = [StationaryMethod::Jacobi, StationaryMethod::Power];
        let (result, report) = solve_ladder(
            &rungs,
            |m| (method_label(*m), None),
            |_| Ok::<_, CtmcError>(sol(5)),
        );
        assert!(result.is_ok());
        assert_eq!(report.attempts.len(), 1);
        assert!(report.converged());
        assert_eq!(report.fallbacks(), 0);
    }

    #[test]
    fn retryable_errors_walk_the_ladder() {
        let rungs = [StationaryMethod::Jacobi, StationaryMethod::Power];
        let mut calls = 0;
        let (result, report) = solve_ladder(
            &rungs,
            |m| (method_label(*m), None),
            |_| {
                calls += 1;
                if calls == 1 {
                    Err(CtmcError::Diverged {
                        iteration: 100,
                        residual: f64::NAN,
                    })
                } else {
                    Ok(sol(42))
                }
            },
        );
        assert!(result.is_ok());
        assert_eq!(report.attempts.len(), 2);
        assert_eq!(report.attempts[0].outcome, AttemptOutcome::Diverged);
        assert_eq!(report.attempts[0].iterations, 100);
        assert_eq!(report.attempts[1].outcome, AttemptOutcome::Converged);
        assert_eq!(report.attempts[1].iterations, 42);
        assert!(report.converged());
        assert_eq!(report.fallbacks(), 1);
    }

    #[test]
    fn structural_errors_stop_the_ladder() {
        let rungs = [StationaryMethod::Jacobi, StationaryMethod::Power];
        let mut calls = 0;
        let (result, report) = solve_ladder(
            &rungs,
            |m| (method_label(*m), None),
            |_| {
                calls += 1;
                Err::<Solution, _>(CtmcError::AbsorbingState { state: 3 })
            },
        );
        assert!(matches!(
            result,
            Err(CtmcError::AbsorbingState { state: 3 })
        ));
        assert_eq!(calls, 1, "no retry on structural errors");
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].outcome, AttemptOutcome::Failed);
        assert!(!report.converged());
    }

    #[test]
    fn exhausted_ladder_returns_last_error() {
        let rungs = [StationaryMethod::Jacobi, StationaryMethod::Power];
        let (result, report) = solve_ladder(
            &rungs,
            |m| (method_label(*m), None),
            |m| {
                Err::<Solution, _>(CtmcError::NotConverged {
                    iterations: match m {
                        StationaryMethod::Jacobi => 10,
                        StationaryMethod::Power => 20,
                    },
                    residual: 0.5,
                })
            },
        );
        assert!(matches!(
            result,
            Err(CtmcError::NotConverged { iterations: 20, .. })
        ));
        assert_eq!(report.attempts.len(), 2);
        assert!(!report.converged());
    }

    #[test]
    fn report_renders_every_attempt() {
        let rungs = [StationaryMethod::Jacobi, StationaryMethod::Power];
        let mut calls = 0;
        let (_, report) = solve_ladder(
            &rungs,
            |m| (method_label(*m), Some("compiled")),
            |_| {
                calls += 1;
                if calls == 1 {
                    Err(CtmcError::Diverged {
                        iteration: 7,
                        residual: f64::NAN,
                    })
                } else {
                    Ok(sol(3))
                }
            },
        );
        let text = report.render();
        assert!(text.contains("jacobi/compiled"), "{text}");
        assert!(text.contains("diverged"), "{text}");
        assert!(text.contains("converged"), "{text}");
        assert!(text.contains("iteration 7"), "{text}"); // the error line
    }
}
