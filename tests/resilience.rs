//! End-to-end resilience: deterministic fault injection and deadlines
//! driving the fallback ladder on the paper's tandem model.

use std::time::Duration;

use mdlump::core::{KernelRung, LumpKind, LumpRequest, MdResilientOptions, SolveRequest};
use mdlump::ctmc::{AttemptOutcome, SolverOptions, StationaryMethod};
use mdlump::linalg::vec_ops;
use mdlump::models::tandem::{TandemConfig, TandemModel};
use mdlump::obs::Budget;

fn tandem_mrp() -> mdlump::core::MdMrp {
    let model = TandemModel::new(TandemConfig {
        jobs: 1,
        ..TandemConfig::default()
    });
    let mrp = model.build_md_mrp().expect("tandem model builds");
    LumpRequest::new(LumpKind::Ordinary)
        .run(&mrp)
        .expect("tandem model lumps")
        .mrp
}

#[test]
fn faulted_jacobi_falls_back_to_power_and_matches_unfaulted_run() {
    let _g = mdlump::obs::testing::guard();
    mdlump::obs::failpoint::clear();
    let mrp = tandem_mrp();
    let options = MdResilientOptions {
        options: SolverOptions {
            tolerance: 1e-13,
            ..SolverOptions::default()
        },
        ..MdResilientOptions::default()
    };

    // Unfaulted reference: the first rung (Jacobi on the compiled
    // kernel) converges.
    let (reference, clean_report) = mrp.solve_resilient(&options);
    let reference = reference.expect("clean solve converges");
    assert_eq!(clean_report.attempts.len(), 1);

    // Poison the first Jacobi iterate: the divergence guard catches the
    // NaN, the ladder falls back to power, and the answer matches the
    // unfaulted run.
    mdlump::obs::failpoint::set("solver.iterate", "nan@1").unwrap();
    let (result, report) = mrp.solve_resilient(&options);
    mdlump::obs::failpoint::clear();

    let sol = result.expect("fallback run converges");
    assert_eq!(report.attempts.len(), 2, "{}", report.render());
    assert_eq!(report.attempts[0].method, "jacobi");
    assert_eq!(report.attempts[0].outcome, AttemptOutcome::Diverged);
    assert_eq!(report.attempts[1].method, "power");
    assert_eq!(report.attempts[1].outcome, AttemptOutcome::Converged);
    assert!(report.converged());
    assert!(
        vec_ops::max_abs_diff(&sol.probabilities, &reference.probabilities) < 1e-10,
        "fallback answer drifted from the unfaulted run"
    );
}

#[test]
fn expired_deadline_interrupts_every_rung() {
    let _g = mdlump::obs::testing::guard();
    let mrp = tandem_mrp();
    let options = MdResilientOptions {
        ladder: vec![
            (StationaryMethod::Jacobi, KernelRung::Compiled),
            (StationaryMethod::Power, KernelRung::Walk),
            (StationaryMethod::Power, KernelRung::FlatCsr),
        ],
        options: SolverOptions {
            budget: Budget::unlimited().deadline_in(Duration::ZERO),
            ..SolverOptions::default()
        },
        ..MdResilientOptions::default()
    };
    let (result, report) = mrp.solve_resilient(&options);
    assert!(result.is_err());
    assert!(!report.converged());
    assert_eq!(report.attempts.len(), 3, "{}", report.render());
    for attempt in &report.attempts {
        assert_eq!(attempt.outcome, AttemptOutcome::Interrupted, "{attempt:?}");
    }
}

/// Accumulated rewards run through the same fallback ladder as the other
/// measures, so their fallbacks are counted in `solve.fallbacks` too,
/// and their scalar answer is recorded with 0 iterations and a NaN
/// residual.
#[test]
fn accumulated_reward_fallbacks_are_counted() {
    let _g = mdlump::obs::testing::guard();
    let mrp = tandem_mrp();
    mdlump::obs::set_enabled(true);
    let fallbacks = mdlump::obs::counter("solve.fallbacks");
    let before = fallbacks.get();
    // A zero node cap interrupts the compiled rung's compile; the walk
    // rung has no compile step and answers.
    let (result, report) = SolveRequest::accumulated_reward(2.0)
        .budget(Budget::unlimited().node_cap(0))
        .rungs(vec![KernelRung::Compiled, KernelRung::Walk])
        .run(&mrp);
    let counted = fallbacks.get() - before;
    mdlump::obs::set_enabled(false);
    assert!(result.is_ok(), "{}", report.render());
    assert_eq!(report.attempts[0].outcome, AttemptOutcome::Interrupted);
    assert_eq!(report.attempts[1].kernel, Some("walk"));
    assert_eq!(report.attempts[1].iterations, 0);
    assert!(report.attempts[1].residual.is_nan());
    assert_eq!(counted, 1);
}
