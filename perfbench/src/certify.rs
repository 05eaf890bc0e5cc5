//! The certification stage of a `tandem_solve` job:
//! `mdl_cli::commands::certified_bounds` computes the stationary
//! enclosure of a seeded jittered copy of the tandem model at J=2.
//!
//! Every factor entry is moved by about 1e-7 relative, and the lumping
//! tolerance absorbs the jitter, so the lump stays at 3,930 states with
//! a non-empty rate envelope: this is where the interval kernel and
//! `mdl_ctmc::stationary_bounds` do real work (the bounds requests of
//! `serve_mixed` lump to about a dozen states). Reachability is shared
//! with the rest of the job. Transient bounds are left out: at the
//! default `transient_error` their Euler step count hits its 10M cap.

use std::time::Instant;

use mdl_cli::commands::{certified_bounds, Measure};
use mdl_core::{DecomposableVector, KernelKind, KernelOptions, MdMrp, SolveRequest};
use mdl_ctmc::SolverOptions;
use mdl_linalg::Tolerance;
use mdl_mdd::Mdd;
use mdl_models::ComposedModel;
use mdl_obs::Budget;

use crate::check;
use crate::common;

/// Lumping tolerance in decimal digits: rate sums of the paper's
/// constants have at most three decimals, so five digits absorb a 1e-7
/// relative jitter without splitting any class.
const TOLERANCE: u32 = 5;

/// What one certification measured.
pub struct Cert {
    pub lo: f64,
    pub hi: f64,
    /// The certification's own lumped chain, for the check.
    pub lumped: MdMrp,
    pub lumped_states: u64,
    pub degenerate: bool,
    /// MD build of the jittered model.
    pub build_s: f64,
    /// The `certified_bounds` call.
    pub cert_s: f64,
    /// `LumpRequest::run` and `md.compile` time inside the call (traced
    /// only).
    pub lump_s: f64,
    pub compile_s: f64,
    /// Interval sweep time and iterations over both sweeps.
    pub bounds_s: f64,
    pub bounds_iterations: u64,
    pub attempts: usize,
}

/// Builds `model` on `reach` and certifies its stationary `reward`.
pub fn run(
    model: &ComposedModel,
    reward: &DecomposableVector,
    reach: &Mdd,
) -> Result<Cert, String> {
    let t = Instant::now();
    let mrp = model
        .build_md_mrp_with_reach(reward.clone(), reach.clone())
        .map_err(|e| format!("build: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    let (lump0, compile0) = (common::span_ns("lump.run"), common::span_ns("md.compile"));
    let t = Instant::now();
    let cb = certified_bounds(
        &mrp,
        Measure::Stationary,
        Tolerance::Decimals(TOLERANCE),
        &KernelOptions {
            kind: KernelKind::Compiled,
            threads: common::THREADS,
        },
        &Budget::unlimited(),
    )
    .map_err(|e| format!("certified_bounds: {e}"))?;
    let cert_s = t.elapsed().as_secs_f64();
    let (bounds_s, bounds_iterations) = common::attempts_time(&cb.report);
    Ok(Cert {
        lo: cb.bounds.lo,
        hi: cb.bounds.hi,
        lumped_states: cb.lump.stats.lumped_states,
        lumped: cb.lump.mrp,
        degenerate: cb.degenerate,
        build_s,
        cert_s,
        lump_s: (common::span_ns("lump.run") - lump0) as f64 * 1e-9,
        compile_s: (common::span_ns("md.compile") - compile0) as f64 * 1e-9,
        bounds_s,
        bounds_iterations,
        attempts: cb.report.attempts.len(),
    })
}

/// Checks a certification: a genuine finite enclosure of the f64
/// measure of its own lumped chain. The unlumped solve's own iteration
/// error is as large as the interval, so it is no strict reference.
pub fn check(cert: &Cert) -> Result<(), String> {
    if cert.degenerate {
        return Err(
            "lump recorded no rate envelope: the jitter did not reach the bounds path".into(),
        );
    }
    let (outcome, _) = SolveRequest::stationary()
        .solver_options(SolverOptions {
            tolerance: 1e-12,
            ..SolverOptions::default()
        })
        .kernel(KernelKind::Compiled)
        .threads(common::THREADS)
        .run(&cert.lumped);
    let x = common::expected_reward(&cert.lumped, &outcome.map_err(|e| e.to_string())?)?;
    check::encloses(cert.lo, cert.hi, x)
}
