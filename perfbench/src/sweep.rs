//! The sweep stage of a `tandem_solve` job: `Pipeline::sweep` over the
//! `hyper_service` grid of [`gen::sweep_grid`] on the job's rate
//! variant, with the `mdlump-cli sweep` defaults (warm starts on,
//! compiled kernel) on one thread. Reachability is shared with the rest
//! of the job, so a point costs an MD rebuild, a root-level re-lump and
//! a warm-started f64 solve: no reachability work.

use std::cell::Cell;
use std::time::Instant;

use mdl_core::{
    model_source_key, sweep_grid, KernelKind, LumpKind, LumpRequest, Pipeline, SolveRequest,
    SweepRequest,
};
use mdl_ctmc::SolverOptions;
use mdl_mdd::Mdd;
use mdl_models::tandem::{TandemModel, TandemReward};

use crate::check;
use crate::common;
use crate::gen;

/// Sampled points must match an independent cold solve this closely.
const AGREEMENT: f64 = 1e-9;

fn solver_options() -> SolverOptions {
    SolverOptions {
        tolerance: 1e-12,
        ..SolverOptions::default()
    }
}

fn request() -> SweepRequest {
    SweepRequest::new(
        LumpRequest::new(LumpKind::Ordinary).threads(common::THREADS),
        SolveRequest::stationary()
            .solver_options(solver_options())
            .kernel(KernelKind::Compiled)
            .threads(common::THREADS)
            .fallback(false),
    )
    .compile_kernel(true)
    .threads(common::THREADS)
}

fn build(
    model: &TandemModel,
    reach: &Mdd,
    hyper_service: f64,
) -> mdl_core::Result<mdl_core::MdMrp> {
    let mut composed = model.composed().clone();
    composed
        .set_event_rate("hyper_service", hyper_service)
        .map_err(common::build_error)?;
    let reward = model
        .reward(TandemReward::Availability)
        .map_err(common::build_error)?;
    composed
        .build_md_mrp_with_reach(reward, reach.clone())
        .map_err(common::build_error)
}

/// What one sweep measured. The sweep outcome itself is dropped inside
/// [`run`], so a long run does not hold every point's lumped chain.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The availability at each grid point, in grid order.
    pub measures: Vec<f64>,
    /// Lumped chain size at each grid point.
    pub lumped_states: Vec<u64>,
    pub wall: f64,
    /// Builder time summed over the points.
    pub build_s: f64,
    /// `LumpRequest::run` and `md.compile` time summed over the sweep
    /// (traced only).
    pub relump_s: f64,
    pub compile_s: f64,
    /// Solver time and iterations summed over the points' attempts.
    pub solve_s: f64,
    pub iterations: u64,
    pub attempts: usize,
    pub levels_reused: usize,
    pub levels_relumped: usize,
}

/// Sweeps `model` over the grid, sharing `reach`.
pub fn run(model: &TandemModel, reach: &Mdd) -> Result<Sweep, String> {
    let points = sweep_grid(&[("hyper_service".to_string(), gen::sweep_grid())]);
    let key = model_source_key(&format!("tandem sweep {:?}", model.config()));
    let build_s = Cell::new(0.0);
    let (lump0, compile0) = (common::span_ns("lump.run"), common::span_ns("md.compile"));
    let t0 = Instant::now();
    let outcome = Pipeline::new(key).sweep(&points, &request(), |point| {
        let t = Instant::now();
        let mrp = build(model, reach, point.params[0].1);
        build_s.set(build_s.get() + t.elapsed().as_secs_f64());
        mrp
    });
    let wall = t0.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| format!("sweep: {e}"))?;
    let measures = outcome
        .points
        .iter()
        .map(|p| common::expected_reward(&p.lump.mrp, &p.outcome))
        .collect::<Result<Vec<_>, _>>()?;
    let (solve_s, iterations) = outcome
        .points
        .iter()
        .map(|p| common::attempts_time(&p.report))
        .fold((0.0, 0), |(t, n), (dt, dn)| (t + dt, n + dn));
    Ok(Sweep {
        measures,
        lumped_states: outcome
            .points
            .iter()
            .map(|p| p.lump.stats.lumped_states)
            .collect(),
        wall,
        build_s: build_s.get(),
        relump_s: (common::span_ns("lump.run") - lump0) as f64 * 1e-9,
        compile_s: (common::span_ns("md.compile") - compile0) as f64 * 1e-9,
        solve_s,
        iterations,
        attempts: outcome.points.iter().map(|p| p.report.attempts.len()).sum(),
        levels_reused: outcome.levels_reused,
        levels_relumped: outcome.levels_relumped,
    })
}

/// Checks the sweep's measures: every one is an availability, and the
/// grid points `sampled` agree within [`AGREEMENT`] with an independent
/// solve of the same point.
pub fn check(
    sweep: &Sweep,
    model: &TandemModel,
    reach: &Mdd,
    sampled: &[usize],
) -> Result<(), String> {
    let grid = gen::sweep_grid();
    for (p, &m) in sweep.measures.iter().enumerate() {
        if !(0.0..=1.0).contains(&m) {
            return Err(format!("sweep point {p}: availability {m} outside [0, 1]"));
        }
        if sampled.contains(&p) {
            let r = independent(model, reach, grid[p])?;
            check::close(
                &format!("sweep point {p} vs independent solve"),
                m,
                r,
                AGREEMENT,
            )?;
        }
    }
    Ok(())
}

/// An independent solve of one grid point: fresh build, full lump, cold
/// stationary solve, no warm start and no sweep machinery.
fn independent(model: &TandemModel, reach: &Mdd, hyper_service: f64) -> Result<f64, String> {
    let mrp = build(model, reach, hyper_service).map_err(|e| e.to_string())?;
    let lumped = LumpRequest::new(LumpKind::Ordinary)
        .threads(common::THREADS)
        .run(&mrp)
        .map_err(|e| e.to_string())?;
    let (outcome, _) = SolveRequest::stationary()
        .solver_options(solver_options())
        .kernel(KernelKind::Compiled)
        .threads(common::THREADS)
        .run(&lumped.mrp);
    common::expected_reward(&lumped.mrp, &outcome.map_err(|e| e.to_string())?)
}
