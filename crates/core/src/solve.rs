//! Unified solve requests for symbolic MRPs.
//!
//! [`MdMrp`] grew one entry point per (measure, kernel, resilience)
//! combination — `stationary_with`, `transient_with`,
//! `expected_accumulated_reward_with`, `solve_resilient`,
//! `transient_resilient`. [`SolveRequest`] folds them into one builder:
//! pick a [`Measure`], adjust options, optionally enable the
//! fallback ladder, and [`run`](SolveRequest::run). Every run — direct
//! or resilient — returns the same `(result, RunReport)` shape, so
//! callers render attempts uniformly.

use std::sync::Arc;

use mdl_ctmc::{
    method_label, RunReport, Solution, SolverOptions, StationaryMethod, TransientOptions,
};
use mdl_md::CompiledMdMatrix;
use mdl_obs::Budget;
use mdl_store::Fnv1a;

use crate::mrp::{KernelKind, KernelOptions, MdMrp};
use crate::resilient::{KernelRung, MdResilientOptions};
use crate::Result;

/// What a [`SolveRequest`] computes, and which expected reward a solve
/// reports. The `Debug` form (`Stationary`, `Transient(1.5)`, …) is
/// part of measure-stage store labels and of `mdlump-cli` output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// The stationary distribution: the steady-state expected reward.
    Stationary,
    /// The transient distribution at time `t`: the expected reward at
    /// `t`.
    Transient(f64),
    /// The expected reward accumulated over `[0, t]`
    /// (`E[∫₀ᵗ r(X_u) du]`) — a scalar, so the outcome is a
    /// [`SolveOutcome::Value`].
    Accumulated(f64),
}

/// What a [`SolveRequest`] run produced.
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// A probability distribution (stationary or transient targets).
    Distribution(Solution),
    /// A scalar (the accumulated-reward target).
    Value(f64),
}

impl SolveOutcome {
    /// The distribution, if this outcome is one.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            SolveOutcome::Distribution(sol) => Some(sol),
            SolveOutcome::Value(_) => None,
        }
    }

    /// Consumes the outcome into its distribution, if it is one.
    pub fn into_solution(self) -> Option<Solution> {
        match self {
            SolveOutcome::Distribution(sol) => Some(sol),
            SolveOutcome::Value(_) => None,
        }
    }

    /// The scalar, if this outcome is one.
    pub fn value(&self) -> Option<f64> {
        match self {
            SolveOutcome::Distribution(_) => None,
            SolveOutcome::Value(v) => Some(*v),
        }
    }
}

/// Builder unifying every way to solve an [`MdMrp`].
///
/// A plain request solves directly with the configured kernel; with
/// [`fallback`](Self::fallback) enabled it degrades through a
/// `(method, kernel)` ladder instead ([`MdResilientOptions`] semantics).
/// Both paths return a [`RunReport`] recording every attempt.
///
/// ```no_run
/// use mdl_core::SolveRequest;
///
/// # fn demo(mrp: &mdl_core::MdMrp) {
/// let (result, report) = SolveRequest::stationary()
///     .threads(4)
///     .fallback(true)
///     .run(mrp);
/// println!("{}", report.render());
/// let solution = result.unwrap().into_solution().unwrap();
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SolveRequest {
    target: Measure,
    solver: SolverOptions,
    transient: TransientOptions,
    kernel: KernelOptions,
    fallback: bool,
    ladder: Option<Vec<(StationaryMethod, KernelRung)>>,
    rungs: Option<Vec<KernelRung>>,
    prebuilt: Option<Arc<CompiledMdMatrix>>,
}

impl SolveRequest {
    /// A direct (no-fallback) request for `target` with default options.
    pub fn new(target: Measure) -> Self {
        SolveRequest {
            target,
            solver: SolverOptions::default(),
            transient: TransientOptions::default(),
            kernel: KernelOptions::default(),
            fallback: false,
            ladder: None,
            rungs: None,
            prebuilt: None,
        }
    }

    /// Shorthand for [`Measure::Stationary`].
    pub fn stationary() -> Self {
        Self::new(Measure::Stationary)
    }

    /// Shorthand for [`Measure::Transient`] at time `t`.
    pub fn transient(t: f64) -> Self {
        Self::new(Measure::Transient(t))
    }

    /// Shorthand for [`Measure::Accumulated`] over `[0, t]`.
    pub fn accumulated_reward(t: f64) -> Self {
        Self::new(Measure::Accumulated(t))
    }

    /// Replaces the stationary-solver options.
    #[must_use]
    pub fn solver_options(mut self, options: SolverOptions) -> Self {
        self.solver = options;
        self
    }

    /// Replaces the transient (uniformization) options.
    #[must_use]
    pub fn transient_options(mut self, options: TransientOptions) -> Self {
        self.transient = options;
        self
    }

    /// Sets the stationary iteration method (ignored by transient
    /// targets, whose method is always uniformization).
    #[must_use]
    pub fn method(mut self, method: StationaryMethod) -> Self {
        self.solver.method = method;
        self
    }

    /// Sets the matrix–vector kernel for direct solves (and the first
    /// rung's kernel when no explicit ladder is given).
    #[must_use]
    pub fn kernel(mut self, kind: KernelKind) -> Self {
        self.kernel.kind = kind;
        self
    }

    /// Worker threads for compiled-kernel products (`0` = one per
    /// hardware thread).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.kernel.threads = threads;
        self
    }

    /// Runs everything — compile steps included — under `budget` (applied
    /// to both the stationary and transient option blocks).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.solver.budget = budget.clone();
        self.transient.budget = budget;
        self
    }

    /// Seeds the stationary iteration from `start` (ignored by transient
    /// targets). A warm start changes where the iteration begins, never
    /// the fixed point it converges to, so it is excluded from the cache
    /// key; the solver validates, L1-normalizes and otherwise does not
    /// trust the vector, and the divergence/stagnation guards fall back
    /// to a cold restart through the usual ladder on a bad seed.
    #[must_use]
    pub fn warm_start(mut self, start: Option<Vec<f64>>) -> Self {
        self.solver.warm_start = start;
        self
    }

    /// Enables the fallback ladder: on retryable failures the solve
    /// degrades through `(method, kernel)` rungs instead of stopping.
    #[must_use]
    pub fn fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }

    /// Overrides the stationary fallback ladder (implies
    /// [`fallback`](Self::fallback)).
    #[must_use]
    pub fn ladder(mut self, ladder: Vec<(StationaryMethod, KernelRung)>) -> Self {
        self.ladder = Some(ladder);
        self.fallback = true;
        self
    }

    /// Overrides the kernel rungs for transient / accumulated fallback
    /// (implies [`fallback`](Self::fallback)).
    #[must_use]
    pub fn rungs(mut self, rungs: Vec<KernelRung>) -> Self {
        self.rungs = Some(rungs);
        self.fallback = true;
        self
    }

    /// Supplies a pre-built compiled kernel (e.g. deserialized from the
    /// pipeline's artifact store): compiled rungs use it directly instead
    /// of compiling. The kernel must belong to the MRP the request is run
    /// against (the pipeline guarantees this by deriving both from the
    /// same stage key). Does not enter the cache key — the products are
    /// bit-identical either way.
    #[must_use]
    pub fn prebuilt_kernel(mut self, kernel: Arc<CompiledMdMatrix>) -> Self {
        self.prebuilt = Some(kernel);
        self
    }

    /// What this request computes.
    pub fn target(&self) -> Measure {
        self.target
    }

    /// Feeds every **result-relevant** field into a cache-key hash.
    ///
    /// Included: the target (and its time point), the stationary method
    /// and its convergence parameters, the uniformization parameters, the
    /// kernel kind, and the fallback ladder/rungs. Excluded — because the
    /// result is bit-identical regardless (DESIGN.md §12) or they only
    /// change *where* the iteration starts, not which fixed point it
    /// reaches: thread counts, budgets, warm starts, checkpoint sinks,
    /// resume snapshots, and any pre-built kernel.
    pub fn write_cache_key(&self, h: &mut Fnv1a) {
        match self.target {
            Measure::Stationary => h.write_u64(0),
            Measure::Transient(t) => {
                h.write_u64(1);
                h.write_f64(t);
            }
            Measure::Accumulated(t) => {
                h.write_u64(2);
                h.write_f64(t);
            }
        }
        h.write_str(method_label(self.solver.method));
        h.write_f64(self.solver.tolerance);
        h.write_usize(self.solver.max_iterations);
        h.write_usize(self.solver.check_every);
        h.write_f64(self.solver.jacobi_damping);
        h.write_usize(self.solver.stagnation_window);
        h.write_f64(self.transient.epsilon);
        h.write_usize(self.transient.max_steps);
        h.write_f64(self.transient.steady_state_epsilon);
        h.write_str(self.direct_rung().label());
        h.write_u64(self.fallback as u64);
        match &self.ladder {
            None => h.write_u64(0),
            Some(ladder) => {
                h.write_usize(1 + ladder.len());
                for (m, k) in ladder {
                    h.write_str(method_label(*m));
                    h.write_str(k.label());
                }
            }
        }
        match &self.rungs {
            None => h.write_u64(0),
            Some(rungs) => {
                h.write_usize(1 + rungs.len());
                for k in rungs {
                    h.write_str(k.label());
                }
            }
        }
    }

    fn direct_rung(&self) -> KernelRung {
        match self.kernel.kind {
            KernelKind::Walk => KernelRung::Walk,
            KernelKind::Compiled => KernelRung::Compiled,
        }
    }

    fn kernel_rungs(&self) -> Vec<KernelRung> {
        if !self.fallback {
            return vec![self.direct_rung()];
        }
        self.rungs
            .clone()
            .unwrap_or_else(|| vec![KernelRung::Compiled, KernelRung::Walk, KernelRung::FlatCsr])
    }

    /// Executes the request. The [`RunReport`] records every attempt —
    /// exactly one for a direct solve that succeeds, more when the
    /// fallback ladder degrades.
    pub fn run(&self, mrp: &MdMrp) -> (Result<SolveOutcome>, RunReport) {
        match self.target {
            Measure::Stationary => {
                let ladder = if self.fallback {
                    self.ladder
                        .clone()
                        .unwrap_or_else(|| MdResilientOptions::default().ladder)
                } else {
                    vec![(self.solver.method, self.direct_rung())]
                };
                let options = MdResilientOptions {
                    ladder,
                    options: self.solver.clone(),
                    threads: self.kernel.threads,
                };
                let (result, report) =
                    mrp.solve_resilient_with_kernel(&options, self.prebuilt.clone());
                (result.map(SolveOutcome::Distribution), report)
            }
            Measure::Transient(t) => {
                let (result, report) = mrp.transient_resilient_with_kernel(
                    t,
                    &self.transient,
                    &self.kernel_rungs(),
                    self.kernel.threads,
                    self.prebuilt.clone(),
                );
                (result.map(SolveOutcome::Distribution), report)
            }
            Measure::Accumulated(t) => {
                let (result, report) = mrp.accumulated_resilient_with_kernel(
                    t,
                    &self.transient,
                    &self.kernel_rungs(),
                    self.kernel.threads,
                    self.prebuilt.clone(),
                );
                (result.map(SolveOutcome::Value), report)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{Combiner, DecomposableVector};
    use mdl_ctmc::AttemptOutcome;
    use mdl_md::{KroneckerExpr, MdMatrix, SparseFactor};
    use mdl_mdd::Mdd;

    fn cycle(size: usize, rate: f64) -> SparseFactor {
        let mut f = SparseFactor::new(size);
        for s in 0..size {
            f.push(s, (s + 1) % size, rate);
        }
        f
    }

    fn sample_mrp() -> MdMrp {
        let mut expr = KroneckerExpr::new(vec![2, 2]);
        expr.add_term(1.0, vec![Some(cycle(2, 1.0)), None]);
        expr.add_term(2.0, vec![None, Some(cycle(2, 1.0))]);
        let m = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 2]).unwrap()).unwrap();
        let reward =
            DecomposableVector::new(vec![vec![0.0, 1.0], vec![1.0, 1.0]], Combiner::Product)
                .unwrap();
        let initial = DecomposableVector::point_mass(&[2, 2], &[0, 0]).unwrap();
        MdMrp::new(m, reward, initial).unwrap()
    }

    #[test]
    fn direct_stationary_matches_legacy_entry_point() {
        let mrp = sample_mrp();
        let legacy = mrp
            .stationary_with(&SolverOptions::default(), &KernelOptions::default())
            .unwrap();
        let (result, report) = SolveRequest::stationary().run(&mrp);
        let sol = result.unwrap().into_solution().unwrap();
        assert_eq!(sol.probabilities, legacy.probabilities);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].kernel, Some("compiled"));
        assert!(report.converged());
    }

    #[test]
    fn direct_walk_kernel_is_honored() {
        let mrp = sample_mrp();
        let (result, report) = SolveRequest::stationary()
            .kernel(KernelKind::Walk)
            .run(&mrp);
        assert!(result.is_ok());
        assert_eq!(report.attempts[0].kernel, Some("walk"));
    }

    #[test]
    fn transient_request_matches_legacy_entry_point() {
        let mrp = sample_mrp();
        let legacy = mrp.transient(0.7, &TransientOptions::default()).unwrap();
        let (result, report) = SolveRequest::transient(0.7).fallback(true).run(&mrp);
        let sol = result.unwrap().into_solution().unwrap();
        assert_eq!(sol.probabilities, legacy.probabilities);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].method, "uniformization");
    }

    #[test]
    fn accumulated_request_matches_legacy_and_reports() {
        let mrp = sample_mrp();
        let legacy = mrp
            .expected_accumulated_reward(0.9, &TransientOptions::default())
            .unwrap();
        let (result, report) = SolveRequest::accumulated_reward(0.9).run(&mrp);
        let value = result.unwrap().value().unwrap();
        assert_eq!(value, legacy);
        assert_eq!(report.attempts.len(), 1);
        assert!(report.converged());
    }

    #[test]
    fn interrupted_compile_falls_back_when_enabled() {
        // Node cap 0 interrupts the compile; with fallback the walk rung
        // (no compile step) still answers, without it the error surfaces.
        let mrp = sample_mrp();
        let budget = Budget::unlimited().node_cap(0);

        let (direct, direct_report) = SolveRequest::stationary().budget(budget.clone()).run(&mrp);
        assert!(direct.is_err());
        assert_eq!(direct_report.attempts.len(), 1);

        let (result, report) = SolveRequest::stationary()
            .budget(budget.clone())
            .ladder(vec![
                (StationaryMethod::Power, KernelRung::Compiled),
                (StationaryMethod::Power, KernelRung::Walk),
            ])
            .run(&mrp);
        assert!(result.is_ok(), "{report:?}");
        assert_eq!(report.attempts[0].outcome, AttemptOutcome::Interrupted);
        assert_eq!(report.attempts[1].kernel, Some("walk"));

        let (acc, acc_report) = SolveRequest::accumulated_reward(0.5)
            .budget(budget)
            .rungs(vec![KernelRung::Compiled, KernelRung::Walk])
            .run(&mrp);
        assert!(acc.is_ok(), "{acc_report:?}");
        assert_eq!(acc_report.attempts.len(), 2);
        assert_eq!(acc_report.attempts[0].outcome, AttemptOutcome::Interrupted);
        assert!(acc_report.converged());
    }

    #[test]
    fn solutions_identical_across_thread_counts() {
        let mrp = sample_mrp();
        let (reference, _) = SolveRequest::stationary().run(&mrp);
        let reference = reference.unwrap().into_solution().unwrap();
        for threads in [2usize, 4] {
            let (result, _) = SolveRequest::stationary().threads(threads).run(&mrp);
            let sol = result.unwrap().into_solution().unwrap();
            assert_eq!(sol.probabilities, reference.probabilities);
        }
    }
}
