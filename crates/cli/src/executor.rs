//! The request executor: one [`answer`] for a [`Query`], called by both
//! front ends. `mdlump-cli solve` formats the [`Answer`] as text and
//! `mdl-serve` renders it as a reply line, so the two run the same
//! stages with the same options and cannot drift apart.
//!
//! A query starts from the build stage's output and takes one of three
//! paths:
//!
//! * **bounds** — a tolerance lump that records its rate envelope, then
//!   certified lower/upper sweeps ([`certified_bounds`]);
//! * **exact lumping** — the lump stage, then the quotient's exit-rate
//!   measures, cached as a measure stage under the lump's key;
//! * **ordinary lumping** — the lump stage, the kernel (from the
//!   caller's `compile`), then the solve stage through the optional
//!   fallback ladder, with checkpoint/resume riding on the store.

use std::sync::Arc;

use mdl_core::{
    CoreError, KernelKind, KernelOptions, LumpKind, LumpRequest, LumpResult, LumpStats, MdMrp,
    Measure, Pipeline, SolveOutcome, SolveRequest, Staged,
};
use mdl_ctmc::{BoundsOptions, RunReport, SolverOptions, TransientOptions};
use mdl_linalg::{Interval, Tolerance};
use mdl_md::CompiledMdMatrix;
use mdl_obs::Budget;

use crate::error::CliError;

/// One solve request, from either front end: the `solve` flags of
/// `mdlump-cli`, or the fields of a daemon `solve` request plus the
/// daemon's own policy.
#[derive(Debug, Clone)]
pub struct Query {
    /// The measure to compute.
    pub measure: Measure,
    /// The lumping before the solve. Bounds always lump ordinarily; the
    /// front ends reject exact lumping with bounds.
    pub kind: LumpKind,
    /// The lumping comparison tolerance (`--tolerance exact|N`): how
    /// close rates must be to be grouped. The default, nine decimal
    /// digits, absorbs only floating-point noise; looser settings lump
    /// near-symmetric models and `bounds` certifies the consequences.
    pub tolerance: Tolerance,
    /// Enclose the measure in a certified interval instead of solving
    /// for a scalar.
    pub bounds: bool,
    /// Solve through the resilient `(method, kernel)` fallback ladder.
    pub fallback: bool,
    /// The solve kernel and the threads of every stage.
    pub kernel: KernelOptions,
    /// The budget every stage runs under: deadline and cancellation.
    pub budget: Budget,
    /// `Some(n)`: snapshot long solves into the pipeline's store every
    /// `n` iterations (stationary) or uniformization steps (transient).
    pub checkpoint_every: Option<usize>,
    /// Resume from the snapshot of a previous interrupted run, when one
    /// exists under the solve's key. A finished solve clears it.
    pub resume: bool,
}

/// What [`answer`] computed.
#[derive(Debug)]
pub struct Answer {
    /// Statistics of the lump the measure was taken on: the lump
    /// stage's, or the bounds path's own tolerance lump.
    pub lump: LumpStats,
    /// The measure; for a bounds query the midpoint of `bounds`.
    pub measure: f64,
    /// The certified enclosure of a bounds query.
    pub bounds: Option<Interval>,
    /// Bounds only: every transition lumped exactly, so the enclosure
    /// is the degenerate `[x, x]` of the scalar solve.
    pub degenerate: bool,
    /// Whether the solve reached its tolerance: always `true` for a
    /// scalar; unconverged bounds are still certified, just looser.
    pub converged: bool,
    /// The attempt log of the solve or the bounds sweeps; empty for
    /// exact lumping, which has no ladder.
    pub report: RunReport,
    /// Iterations in of the checkpoint a resumed solve continued from.
    pub resumed_from: Option<u64>,
    /// Whether every stage came from the store (or the caller's kernel
    /// memory). Always `false` for bounds, which keep no artifacts.
    pub warm: bool,
}

/// Answers `query` on the built model: lump, then the measure by the
/// query's path. `compile` supplies the kernel of an ordinary lump —
/// [`Pipeline::compile`], or a caller's cache in front of it — and is
/// not called when no compiled product can run.
///
/// # Errors
///
/// Lumping, compile and solver failures as [`CliError`]s; an expired
/// or cancelled budget surfaces as [`CliError::Interrupted`].
pub fn answer(
    pipeline: &Pipeline,
    built: &Staged<MdMrp>,
    query: &Query,
    compile: impl FnOnce(
        &Pipeline,
        &Staged<MdMrp>,
        usize,
        &Budget,
    ) -> mdl_core::Result<Staged<Arc<CompiledMdMatrix>>>,
) -> Result<Answer, CliError> {
    if query.bounds {
        let cb = certified_bounds(
            &built.value,
            query.measure,
            query.tolerance,
            &query.kernel,
            &query.budget,
        )?;
        return Ok(Answer {
            lump: cb.lump.stats,
            measure: 0.5 * (cb.bounds.lo + cb.bounds.hi),
            bounds: Some(cb.bounds),
            degenerate: cb.degenerate,
            converged: cb.converged,
            report: cb.report,
            resumed_from: None,
            warm: false,
        });
    }
    let lump_request = LumpRequest::new(query.kind)
        .tolerance(query.tolerance)
        .threads(query.kernel.threads)
        .budget(query.budget.clone());
    let lumped = pipeline.lump(built, &lump_request)?;
    let (measure, report, resumed_from, warm) = if query.kind == LumpKind::Exact {
        let (value, cached) = solve_exact(pipeline, &lumped, query.measure, &query.budget)?;
        (value, RunReport::default(), None, cached)
    } else {
        solve_lumped(pipeline, &lumped, query, compile)?
    };
    Ok(Answer {
        lump: lumped.value.stats,
        measure,
        bounds: None,
        degenerate: false,
        converged: true,
        report,
        resumed_from,
        warm: built.cached && lumped.cached && warm,
    })
}

/// The stationary-solver options every solve shares.
pub(crate) fn solver_options(budget: &Budget) -> SolverOptions {
    SolverOptions {
        tolerance: 1e-12,
        budget: budget.clone(),
        ..SolverOptions::default()
    }
}

/// The uniformization options every solve shares.
pub(crate) fn transient_options(budget: &Budget) -> TransientOptions {
    TransientOptions {
        budget: budget.clone(),
        ..TransientOptions::default()
    }
}

/// The [`SolveRequest`] for `measure` with the shared options applied
/// (fallback still off — callers enable it when asked to).
pub(crate) fn request_for(
    measure: Measure,
    kernel: &KernelOptions,
    budget: &Budget,
) -> SolveRequest {
    SolveRequest::new(measure)
        .solver_options(solver_options(budget))
        .transient_options(transient_options(budget))
        .kernel(kernel.kind)
        .threads(kernel.threads)
}

/// The expected reward a solve outcome denotes: the scalar itself, or
/// the distribution dotted with `mrp`'s reward vector.
pub(crate) fn expected_reward(mrp: &MdMrp, outcome: SolveOutcome) -> Result<f64, CliError> {
    match outcome {
        SolveOutcome::Distribution(sol) => Ok(sol.try_expected_reward(&mrp.reward_vector())?),
        SolveOutcome::Value(v) => Ok(v),
    }
}

/// The single scalar a measure stage stored. Defensive rather than
/// indexed: a damaged cache must never panic.
pub(crate) fn scalar(values: &[f64]) -> Result<f64, CliError> {
    values
        .first()
        .copied()
        .ok_or_else(|| CliError::Failed("cached measure artifact is empty".into()))
}

/// Solves the measure on an exact lump through its embedded exit-rate
/// measures (the exact path has no kernel or fallback ladder), cached as
/// a measure stage under the lump's key. Returns the value and whether
/// it came from the store.
fn solve_exact(
    pipeline: &Pipeline,
    lumped: &Staged<LumpResult>,
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
    Ok((scalar(&staged.value)?, staged.cached))
}

/// Solves the measure on an ordinary lump: checkpoint sinks and resume
/// per the query, the kernel whenever a compiled product may run, then
/// the solve stage. Returns the expected reward, the attempt log, the
/// iterations a resumed solve started from, and whether the kernel and
/// solve came from the store.
fn solve_lumped(
    pipeline: &Pipeline,
    lumped: &Staged<LumpResult>,
    query: &Query,
    compile: impl FnOnce(
        &Pipeline,
        &Staged<MdMrp>,
        usize,
        &Budget,
    ) -> mdl_core::Result<Staged<Arc<CompiledMdMatrix>>>,
) -> Result<(f64, RunReport, Option<u64>, bool), CliError> {
    // The lumped MRP re-staged under the lump key: the input to the
    // kernel-compile and solve stages.
    let lumped_mrp = Staged {
        value: lumped.value.mrp.clone(),
        key: lumped.key,
        cached: lumped.cached,
    };
    let budget = &query.budget;
    // The solve key ignores checkpoint sinks, warm starts and prebuilt
    // kernels, so it can be derived before they are wired.
    let base = request_for(query.measure, &query.kernel, budget).fallback(query.fallback);
    let solve_key = pipeline.solve_key(lumped_mrp.key, &base);
    let mut sopts = solver_options(budget);
    let mut topts = transient_options(budget);
    if let Some(every) = query.checkpoint_every {
        match query.measure {
            Measure::Stationary => {
                sopts.checkpoint = pipeline.stationary_checkpoint_sink(solve_key, every);
            }
            Measure::Transient(_) => {
                topts.checkpoint = pipeline.transient_checkpoint_sink(solve_key, every);
            }
            // The accumulated-reward scalar has no snapshot form.
            Measure::Accumulated(_) => {}
        }
    }
    let mut resumed_from = None;
    if query.resume {
        if let Some(ck) = pipeline.load_checkpoint(solve_key) {
            resumed_from = Some(ck.iterations);
            match query.measure {
                Measure::Stationary => sopts.warm_start = Some(ck.iterate),
                Measure::Transient(_) => topts.resume_from = mdl_core::transient_resume(&ck),
                Measure::Accumulated(_) => {}
            }
        }
    }

    // A compile failure under the fallback ladder is not fatal — the
    // walk and flat-CSR rungs need no kernel.
    let wants_kernel = query.kernel.kind == KernelKind::Compiled || query.fallback;
    let (prebuilt, kernel_warm) = if wants_kernel {
        match compile(pipeline, &lumped_mrp, query.kernel.threads, budget) {
            Ok(staged) => (Some(staged.value), staged.cached),
            Err(_) if query.fallback => {
                mdl_obs::counter("pipeline.compile.failed").inc();
                (None, false)
            }
            Err(e) => return Err(e.into()),
        }
    } else {
        (None, true)
    };
    let mut request = base.solver_options(sopts).transient_options(topts);
    if let Some(k) = prebuilt {
        request = request.prebuilt_kernel(k);
    }
    let (outcome, report) = pipeline.solve(&lumped_mrp, &request);
    let staged = outcome?;
    let value = expected_reward(&lumped_mrp.value, staged.value)?;
    // The solve finished: its checkpoint (if any) must not be replayed
    // by a later resume.
    if query.checkpoint_every.is_some() || query.resume {
        pipeline.clear_checkpoint(solve_key)?;
    }
    Ok((value, report, resumed_from, kernel_warm && staged.cached))
}

/// The raw outcome of a certified-bounds computation, before any
/// formatting: what `solve --bounds` prints and what tests assert on
/// (the formatted interval loses the low-order bits the degenerate-path
/// bit-identity guarantee is about).
#[derive(Debug)]
pub struct CertifiedBounds {
    /// The tolerance lump whose quotient the sweeps ran on, carrying the
    /// rate envelope and `stats.max_rate_deviation`.
    pub lump: LumpResult,
    /// `true` when every transition lumped exactly: the envelope is
    /// empty, the credal box collapses to the single scalar chain, and
    /// `bounds` is the degenerate interval `[x, x]` of the scalar solve.
    pub degenerate: bool,
    /// The certified enclosure of the measure.
    pub bounds: Interval,
    /// Whether the sweeps reached their tolerance (always `true` on the
    /// degenerate path). Unconverged bounds are still certified, just
    /// looser than requested.
    pub converged: bool,
    /// The per-sweep attempt log.
    pub report: RunReport,
}

/// Computes a certified enclosure `[lo, hi]` of the measure under
/// tolerance lumping. The lump records a rate envelope — per lumped
/// transition, the hull of the member rates each stored coefficient
/// stands in for — and the enclosure is computed by lower/upper power
/// sweeps over the interval-weighted compiled kernel (outward-rounded
/// arithmetic end to end), so every CTMC whose rates lie inside the
/// envelope, including the unlumped chain, has its measure inside the
/// returned interval. When every transition lumped exactly the
/// enclosure degenerates to the scalar solve itself — `[x, x]`,
/// bit-identical to the plain solve path at any thread count.
///
/// # Errors
///
/// Accumulated rewards are rejected (the certified sweeps cover
/// stationary and transient measures); lumping and solver failures
/// propagate as [`CliError`]s; an expired budget surfaces as
/// [`CliError::Interrupted`].
pub fn certified_bounds(
    mrp: &MdMrp,
    measure: Measure,
    tolerance: Tolerance,
    kernel: &KernelOptions,
    budget: &Budget,
) -> Result<CertifiedBounds, CliError> {
    let time_point = match measure {
        Measure::Stationary => None,
        Measure::Transient(t) => Some(t),
        Measure::Accumulated(_) => {
            return Err(CliError::Failed(
                "--bounds supports the stationary and --transient measures \
                 (accumulated rewards have no certified sweep)"
                    .into(),
            ))
        }
    };
    // Envelopes are not persisted (the lump cache stores only the
    // quotient), so the bounds path lumps directly: a single pass with
    // quasi-reduction off — the configuration whose `(level, node)`
    // keying the envelope certifies.
    let lump = LumpRequest::new(LumpKind::Ordinary)
        .tolerance(tolerance)
        .threads(kernel.threads)
        .budget(budget.clone())
        .run(mrp)?;
    // A `--tolerance exact` run compares rates bitwise and records no
    // envelope: every merge was exact, so the bounds legitimately
    // degenerate. A missing envelope under any other tolerance is a bug.
    let empty_envelope = mdl_core::RateEnvelope::default();
    let envelope = match (&lump.envelope, tolerance) {
        (Some(env), _) => env,
        (None, Tolerance::Exact) => &empty_envelope,
        (None, _) => {
            return Err(CliError::Failed(
                "lump carried no rate envelope (internal error)".into(),
            ))
        }
    };

    if envelope.is_empty() {
        let (outcome, report) = request_for(measure, kernel, budget).run(&lump.mrp);
        let value = expected_reward(&lump.mrp, outcome?)?;
        return Ok(CertifiedBounds {
            degenerate: true,
            bounds: Interval::point(value),
            converged: true,
            report,
            lump,
        });
    }
    let ikernel = CompiledMdMatrix::<Interval>::compile_weighted(
        lump.mrp.matrix(),
        kernel.threads,
        budget,
        &|site| envelope.widen(site),
    )
    .map_err(|e| CliError::from(CoreError::Md(e)))?;
    let f = lump.mrp.reward_vector();
    let options = BoundsOptions {
        budget: budget.clone(),
        ..BoundsOptions::default()
    };
    let solution = match time_point {
        None => mdl_ctmc::stationary_bounds(&ikernel, &f, &options)?,
        Some(t) => {
            mdl_ctmc::transient_bounds(&ikernel, &lump.mrp.initial_vector(), &f, t, &options)?
        }
    };
    Ok(CertifiedBounds {
        degenerate: false,
        bounds: solution.bounds,
        converged: solution.stats.converged,
        report: solution.report,
        lump,
    })
}
