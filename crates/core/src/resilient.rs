//! Resilient solving for symbolic MRPs: a fallback ladder over
//! `(method, kernel)` pairs.
//!
//! The flat ladder in `mdl-ctmc` varies only the iteration method; for a
//! matrix-diagram solve the *kernel* is a second failure axis — the
//! compiled program can blow the compile budget on a huge diagram, in
//! which case the recursive walk (no compile step) or the flat CSR
//! materialization (most battle-tested, most memory) still get an
//! answer. The default ladder degrades along both axes:
//! Jacobi/compiled → power/compiled → power/walk → power/flat-CSR.
//!
//! The compiled kernel and the flattened matrix are each built at most
//! once and shared across rungs, so falling back does not redo the
//! expensive preparation that already succeeded.

use std::sync::Arc;

use mdl_ctmc::{
    method_label, solve_ladder, AttemptOutcome, ResilientError, RunReport, Solution, SolverOptions,
    StationaryMethod, TransientOptions,
};
use mdl_linalg::CsrMatrix;
use mdl_md::CompiledMdMatrix;

use crate::mrp::{solve_stationary, MdMrp};
use crate::{CoreError, Result};

/// Which kernel a resilient rung iterates over — the kernel axis of the
/// fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelRung {
    /// Compiled flat block/arena program (fastest; the compile itself
    /// runs under the solve budget and can be interrupted).
    Compiled,
    /// Recursive MD×MDD walk — no compile step, serial, always
    /// available.
    Walk,
    /// Materialize the diagram as an explicit sparse CSR matrix. Highest
    /// memory, but the least machinery between the model and the solver.
    FlatCsr,
}

impl KernelRung {
    /// Lower-case label used in reports and obs events.
    pub fn label(self) -> &'static str {
        match self {
            KernelRung::Compiled => "compiled",
            KernelRung::Walk => "walk",
            KernelRung::FlatCsr => "flat-csr",
        }
    }
}

/// Ladder of `(method, kernel)` rungs for
/// [`MdMrp::solve_resilient`].
#[derive(Debug, Clone, PartialEq)]
pub struct MdResilientOptions {
    /// Rungs to attempt, in order. Must be non-empty.
    pub ladder: Vec<(StationaryMethod, KernelRung)>,
    /// Base solver options; the `method` field is overridden per rung.
    pub options: SolverOptions,
    /// Worker threads for compiled-kernel products (`0` = one per
    /// hardware thread).
    pub threads: usize,
}

impl Default for MdResilientOptions {
    /// Degrades along both axes: Jacobi first on the compiled kernel,
    /// then power (guaranteed convergence), then the same method on ever
    /// simpler kernels.
    fn default() -> Self {
        MdResilientOptions {
            ladder: vec![
                (StationaryMethod::Jacobi, KernelRung::Compiled),
                (StationaryMethod::Power, KernelRung::Compiled),
                (StationaryMethod::Power, KernelRung::Walk),
                (StationaryMethod::Power, KernelRung::FlatCsr),
            ],
            options: SolverOptions::default(),
            threads: 1,
        }
    }
}

impl ResilientError for CoreError {
    fn outcome(&self) -> AttemptOutcome {
        match self {
            CoreError::Ctmc(e) => e.outcome(),
            CoreError::Md(mdl_md::MdError::Interrupted { .. }) => AttemptOutcome::Interrupted,
            CoreError::Interrupted { .. } => AttemptOutcome::Interrupted,
            _ => AttemptOutcome::Failed,
        }
    }

    fn progress(&self) -> Option<(usize, f64)> {
        match self {
            CoreError::Ctmc(e) => e.progress(),
            _ => None,
        }
    }
}

/// Kernels shared across ladder rungs: each expensive preparation runs
/// at most once even when several rungs use it. The compiled slot can be
/// pre-seeded with a kernel deserialized from the artifact store, in
/// which case no rung ever pays the compile.
#[derive(Default)]
pub(crate) struct KernelCache {
    compiled: Option<Arc<CompiledMdMatrix>>,
    flat: Option<CsrMatrix>,
}

impl KernelCache {
    pub(crate) fn seeded(prebuilt: Option<Arc<CompiledMdMatrix>>) -> Self {
        KernelCache {
            compiled: prebuilt,
            flat: None,
        }
    }

    fn compiled(
        &mut self,
        mrp: &MdMrp,
        threads: usize,
        budget: &mdl_obs::Budget,
    ) -> Result<&CompiledMdMatrix> {
        if self.compiled.is_none() {
            self.compiled = Some(Arc::new(CompiledMdMatrix::compile_budgeted(
                mrp.matrix(),
                threads,
                budget,
            )?));
        }
        Ok(self.compiled.as_deref().expect("just compiled"))
    }

    fn flat(&mut self, mrp: &MdMrp) -> &CsrMatrix {
        self.flat.get_or_insert_with(|| mrp.matrix().flatten())
    }
}

impl MdMrp {
    /// Computes the stationary distribution through a `(method, kernel)`
    /// fallback ladder: each rung is attempted in order until one
    /// converges; not-converged / diverged / interrupted errors fall
    /// through to the next rung, structural errors stop immediately.
    /// The compiled kernel (and the flattened matrix) are built at most
    /// once and reused across rungs.
    ///
    /// The [`RunReport`] records every attempt in both outcomes; on
    /// failure the error is the *last* attempt's.
    ///
    /// # Panics
    ///
    /// Panics if `options.ladder` is empty.
    pub fn solve_resilient(&self, options: &MdResilientOptions) -> (Result<Solution>, RunReport) {
        self.solve_resilient_with_kernel(options, None)
    }

    /// [`Self::solve_resilient`] with a pre-built compiled kernel (e.g.
    /// deserialized from the pipeline's artifact store): compiled rungs
    /// use it directly instead of compiling.
    pub fn solve_resilient_with_kernel(
        &self,
        options: &MdResilientOptions,
        prebuilt: Option<Arc<CompiledMdMatrix>>,
    ) -> (Result<Solution>, RunReport) {
        let mut cache = KernelCache::seeded(prebuilt);
        solve_ladder(
            &options.ladder,
            |(m, k)| (method_label(*m), Some(k.label())),
            |(m, k)| {
                let opts = SolverOptions {
                    method: *m,
                    ..options.options.clone()
                };
                match k {
                    KernelRung::Compiled => {
                        let kernel = cache.compiled(self, options.threads, &opts.budget)?;
                        solve_stationary(kernel, &opts)
                    }
                    KernelRung::Walk => solve_stationary(self.matrix(), &opts),
                    KernelRung::FlatCsr => solve_stationary(cache.flat(self), &opts),
                }
            },
        )
    }

    /// Computes the transient distribution at `t` through a kernel
    /// fallback ladder (the method is always uniformization, so only the
    /// kernel axis degrades). Semantics as for
    /// [`solve_resilient`](Self::solve_resilient).
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty.
    pub fn transient_resilient(
        &self,
        t: f64,
        options: &TransientOptions,
        rungs: &[KernelRung],
        threads: usize,
    ) -> (Result<Solution>, RunReport) {
        self.transient_resilient_with_kernel(t, options, rungs, threads, None)
    }

    /// [`Self::transient_resilient`] with a pre-built compiled kernel;
    /// semantics as for
    /// [`solve_resilient_with_kernel`](Self::solve_resilient_with_kernel).
    pub fn transient_resilient_with_kernel(
        &self,
        t: f64,
        options: &TransientOptions,
        rungs: &[KernelRung],
        threads: usize,
        prebuilt: Option<Arc<CompiledMdMatrix>>,
    ) -> (Result<Solution>, RunReport) {
        let initial = self.initial_vector();
        let mut cache = KernelCache::seeded(prebuilt);
        solve_ladder(
            rungs,
            |k| ("uniformization", Some(k.label())),
            |k| {
                let sol = match k {
                    KernelRung::Compiled => {
                        let kernel = cache.compiled(self, threads, &options.budget)?;
                        mdl_ctmc::transient_uniformization(kernel, &initial, t, options)
                    }
                    KernelRung::Walk => {
                        mdl_ctmc::transient_uniformization(self.matrix(), &initial, t, options)
                    }
                    KernelRung::FlatCsr => {
                        mdl_ctmc::transient_uniformization(cache.flat(self), &initial, t, options)
                    }
                };
                sol.map_err(CoreError::from)
            },
        )
    }

    /// The expected reward accumulated over `[0, t]` through a kernel
    /// fallback ladder; semantics as for
    /// [`transient_resilient_with_kernel`](Self::transient_resilient_with_kernel).
    pub(crate) fn accumulated_resilient_with_kernel(
        &self,
        t: f64,
        options: &TransientOptions,
        rungs: &[KernelRung],
        threads: usize,
        prebuilt: Option<Arc<CompiledMdMatrix>>,
    ) -> (Result<f64>, RunReport) {
        let initial = self.initial_vector();
        let reward = self.reward_vector();
        let mut cache = KernelCache::seeded(prebuilt);
        solve_ladder(
            rungs,
            |k| ("uniformization", Some(k.label())),
            |k| {
                let value = match k {
                    KernelRung::Compiled => {
                        let kernel = cache.compiled(self, threads, &options.budget)?;
                        mdl_ctmc::accumulated_reward(kernel, &initial, &reward, t, options)
                    }
                    KernelRung::Walk => {
                        mdl_ctmc::accumulated_reward(self.matrix(), &initial, &reward, t, options)
                    }
                    KernelRung::FlatCsr => mdl_ctmc::accumulated_reward(
                        cache.flat(self),
                        &initial,
                        &reward,
                        t,
                        options,
                    ),
                };
                value.map_err(CoreError::from)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{Combiner, DecomposableVector};
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
    fn default_ladder_converges_on_first_rung() {
        let mrp = sample_mrp();
        let (result, report) = mrp.solve_resilient(&MdResilientOptions::default());
        let sol = result.unwrap();
        assert_eq!(report.attempts.len(), 1);
        assert!(report.converged());
        assert_eq!(report.attempts[0].method, "jacobi");
        assert_eq!(report.attempts[0].kernel, Some("compiled"));
        let direct = mrp.stationary(&SolverOptions::default()).unwrap();
        assert!(
            mdl_linalg::vec_ops::max_abs_diff(&sol.probabilities, &direct.probabilities) < 1e-10
        );
    }

    #[test]
    fn every_kernel_rung_agrees() {
        let mrp = sample_mrp();
        let reference = mrp.stationary(&SolverOptions::default()).unwrap();
        for kernel in [KernelRung::Compiled, KernelRung::Walk, KernelRung::FlatCsr] {
            let opts = MdResilientOptions {
                ladder: vec![(StationaryMethod::Power, kernel)],
                ..Default::default()
            };
            let (result, report) = mrp.solve_resilient(&opts);
            let sol = result.unwrap();
            assert_eq!(report.attempts[0].kernel, Some(kernel.label()));
            assert!(
                mdl_linalg::vec_ops::max_abs_diff(&sol.probabilities, &reference.probabilities)
                    < 1e-9,
                "kernel {:?}",
                kernel
            );
        }
    }

    #[test]
    fn interrupted_compile_falls_back_to_walk() {
        // A zero node cap interrupts the compiled rung's compile (node
        // caps are enforced only by the MD compile, so the solver rungs
        // are untouched); the walk rung has no compile step and answers.
        let mrp = sample_mrp();
        let opts = MdResilientOptions {
            ladder: vec![
                (StationaryMethod::Power, KernelRung::Compiled),
                (StationaryMethod::Power, KernelRung::Walk),
            ],
            options: SolverOptions {
                budget: mdl_obs::Budget::unlimited().node_cap(0),
                ..SolverOptions::default()
            },
            threads: 1,
        };
        let (result, report) = mrp.solve_resilient(&opts);
        assert!(result.is_ok(), "{report:?}");
        assert_eq!(report.attempts.len(), 2);
        assert_eq!(
            report.attempts[0].outcome,
            mdl_ctmc::AttemptOutcome::Interrupted
        );
        assert_eq!(report.attempts[1].kernel, Some("walk"));
        assert!(report.converged());
    }

    #[test]
    fn transient_kernel_ladder_agrees_with_direct() {
        let mrp = sample_mrp();
        let direct = mrp.transient(0.7, &TransientOptions::default()).unwrap();
        let (result, report) = mrp.transient_resilient(
            0.7,
            &TransientOptions::default(),
            &[KernelRung::Compiled, KernelRung::Walk],
            1,
        );
        let sol = result.unwrap();
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].method, "uniformization");
        assert_eq!(sol.probabilities, direct.probabilities);
    }

    #[test]
    fn seeded_kernel_is_used_and_bit_identical() {
        // With a pre-built kernel seeded, the compiled rung answers even
        // under a zero node cap (which would interrupt any fresh compile),
        // and the solution matches the unseeded run bit for bit.
        let mrp = sample_mrp();
        let (plain, _) = mrp.solve_resilient(&MdResilientOptions::default());
        let plain = plain.unwrap();

        let prebuilt = Arc::new(mrp.compile_matrix(1));
        let opts = MdResilientOptions {
            ladder: vec![(StationaryMethod::Jacobi, KernelRung::Compiled)],
            options: SolverOptions {
                budget: mdl_obs::Budget::unlimited().node_cap(0),
                ..SolverOptions::default()
            },
            threads: 1,
        };
        let (seeded, report) = mrp.solve_resilient_with_kernel(&opts, Some(prebuilt.clone()));
        let seeded = seeded.unwrap();
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(seeded.probabilities, plain.probabilities);

        let (direct, _) = mrp.transient_resilient(
            0.7,
            &TransientOptions::default(),
            &[KernelRung::Compiled],
            1,
        );
        let (tseeded, _) = mrp.transient_resilient_with_kernel(
            0.7,
            &TransientOptions {
                budget: mdl_obs::Budget::unlimited().node_cap(0),
                ..TransientOptions::default()
            },
            &[KernelRung::Compiled],
            1,
            Some(prebuilt),
        );
        assert_eq!(
            tseeded.unwrap().probabilities,
            direct.unwrap().probabilities
        );
    }

    #[test]
    fn core_error_classification() {
        use mdl_ctmc::ResilientError as _;
        let slow = CoreError::Ctmc(mdl_ctmc::CtmcError::NotConverged {
            iterations: 7,
            residual: 0.5,
        });
        assert_eq!(slow.outcome(), AttemptOutcome::NotConverged);
        assert!(slow.retryable());
        assert_eq!(slow.progress(), Some((7, 0.5)));

        let md = CoreError::Md(mdl_md::MdError::Interrupted {
            phase: "md.compile",
            nodes: 3,
            reason: mdl_obs::BudgetExceeded::Cancelled,
        });
        assert_eq!(md.outcome(), AttemptOutcome::Interrupted);
        assert!(md.retryable());

        let structural = CoreError::NotProductForm { what: "initial" };
        assert_eq!(structural.outcome(), AttemptOutcome::Failed);
        assert!(!structural.retryable());
    }
}
