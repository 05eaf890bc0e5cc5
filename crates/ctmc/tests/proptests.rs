//! Property-based tests for the CTMC solvers on random ergodic chains.

use proptest::prelude::*;

use mdl_ctmc::{
    accumulated_reward, stationary_gauss_seidel, stationary_jacobi, stationary_power,
    transient_uniformization, AttemptOutcome, CtmcError, Mrp, ResilientOptions, SolverOptions,
    TransientOptions,
};
use mdl_linalg::{vec_ops, CooMatrix, CsrMatrix, RateMatrix};

/// A random chain made ergodic by overlaying a ring (every state can reach
/// every other), with dyadic rates so sums are exact.
fn ergodic_chain(n: usize) -> impl Strategy<Value = CsrMatrix> {
    let extra = prop::collection::vec(
        (0..n, 0..n, prop::sample::select(vec![0.25, 0.5, 1.0, 2.0])),
        0..3 * n,
    );
    extra.prop_map(move |entries| {
        let mut coo = CooMatrix::new(n, n);
        for s in 0..n {
            coo.push(s, (s + 1) % n, 0.5);
        }
        for (r, c, v) in entries {
            if r != c {
                coo.push(r, c, v);
            }
        }
        coo.to_csr()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The stationary solvers agree on random ergodic chains.
    #[test]
    fn stationary_solvers_agree(r in ergodic_chain(8)) {
        let _g = mdl_obs::testing::guard();
        let opts = SolverOptions { tolerance: 1e-12, ..SolverOptions::default() };
        let p = stationary_power(&r, &opts).unwrap().probabilities;
        let j = stationary_jacobi(&r, &opts).unwrap().probabilities;
        let g = stationary_gauss_seidel(&r, &opts).unwrap().probabilities;
        prop_assert!(vec_ops::max_abs_diff(&p, &j) < 1e-8);
        prop_assert!(vec_ops::max_abs_diff(&p, &g) < 1e-8);
    }

    /// The stationary vector actually satisfies π Q = 0.
    #[test]
    fn stationary_vector_is_a_fixed_point(r in ergodic_chain(7)) {
        let _g = mdl_obs::testing::guard();
        let opts = SolverOptions { tolerance: 1e-13, ..SolverOptions::default() };
        let pi = stationary_power(&r, &opts).unwrap().probabilities;
        let d = r.row_sums_vec();
        let mut flow = vec![0.0; 7];
        r.acc_vec_mat(&pi, &mut flow); // (πR)(j)
        for s in 0..7 {
            flow[s] -= pi[s] * d[s]; // (πQ)(j)
        }
        prop_assert!(vec_ops::max_abs(&flow) < 1e-9, "residual {flow:?}");
    }

    /// Transient distributions stay distributions and converge to the
    /// stationary one.
    #[test]
    fn transient_is_stochastic_and_converges(r in ergodic_chain(6)) {
        let _g = mdl_obs::testing::guard();
        let topts = TransientOptions::default();
        for &t in &[0.1, 1.0, 10.0] {
            let sol = transient_uniformization(&r, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], t, &topts)
                .unwrap();
            let sum: f64 = sol.probabilities.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-10);
            prop_assert!(sol.probabilities.iter().all(|&p| p >= -1e-15));
        }
        let late = transient_uniformization(&r, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 500.0, &topts)
            .unwrap();
        let stat = stationary_power(&r, &SolverOptions::default()).unwrap();
        prop_assert!(
            vec_ops::max_abs_diff(&late.probabilities, &stat.probabilities) < 1e-6
        );
    }

    /// Chapman–Kolmogorov: evolving for s then t equals evolving for s+t.
    #[test]
    fn transient_semigroup_property(r in ergodic_chain(5), s in 0.1f64..2.0, t in 0.1f64..2.0) {
        let _g = mdl_obs::testing::guard();
        let topts = TransientOptions::default();
        let initial = [0.2, 0.2, 0.2, 0.2, 0.2];
        let direct =
            transient_uniformization(&r, &initial, s + t, &topts).unwrap().probabilities;
        let first = transient_uniformization(&r, &initial, s, &topts).unwrap().probabilities;
        let second = transient_uniformization(&r, &first, t, &topts).unwrap().probabilities;
        prop_assert!(vec_ops::max_abs_diff(&direct, &second) < 1e-8);
    }

    /// Accumulated reward is additive over adjacent intervals... which for
    /// time-homogeneous chains means: acc(0, s+t) = acc(0, s) + acc over
    /// [s, s+t] started from π(s).
    #[test]
    fn accumulated_reward_is_interval_additive(r in ergodic_chain(5), s in 0.1f64..2.0, t in 0.1f64..2.0) {
        let _g = mdl_obs::testing::guard();
        let topts = TransientOptions::default();
        let initial = [1.0, 0.0, 0.0, 0.0, 0.0];
        let reward = [1.0, 0.0, 2.0, 0.0, 0.5];
        let whole = accumulated_reward(&r, &initial, &reward, s + t, &topts).unwrap();
        let first = accumulated_reward(&r, &initial, &reward, s, &topts).unwrap();
        let at_s = transient_uniformization(&r, &initial, s, &topts).unwrap().probabilities;
        let rest = accumulated_reward(&r, &at_s, &reward, t, &topts).unwrap();
        prop_assert!((whole - (first + rest)).abs() < 1e-7, "{whole} vs {first} + {rest}");
    }

    /// Accumulated reward is monotone in `t` for non-negative rewards and
    /// bounded by `t · max r`.
    #[test]
    fn accumulated_reward_bounds(r in ergodic_chain(6), t in 0.1f64..5.0) {
        let _g = mdl_obs::testing::guard();
        let topts = TransientOptions::default();
        let initial = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let reward = [0.0, 1.0, 2.0, 0.0, 1.0, 3.0];
        let a = accumulated_reward(&r, &initial, &reward, t, &topts).unwrap();
        let b = accumulated_reward(&r, &initial, &reward, t * 1.5, &topts).unwrap();
        prop_assert!(a >= -1e-12);
        prop_assert!(b >= a - 1e-10);
        prop_assert!(a <= t * 3.0 + 1e-9);
    }

    /// `solve_resilient` never hands back a non-finite probability
    /// vector, and the run report is consistent with the returned result:
    /// converged report iff `Ok`, with the last attempt carrying the
    /// converged outcome. (Guarded: the solvers consult the process-global
    /// failpoint registry.)
    #[test]
    fn resilient_solve_is_finite_and_report_consistent(r in ergodic_chain(7)) {
        let _g = mdl_obs::testing::guard();
        let n = r.nrows();
        let mrp = Mrp::new(r, vec![1.0; n], vec![1.0 / n as f64; n]).unwrap();
        let (result, report) = mrp.solve_resilient(&ResilientOptions::default());
        prop_assert!(!report.attempts.is_empty());
        match result {
            Ok(sol) => {
                prop_assert!(sol.probabilities.iter().all(|p| p.is_finite() && *p >= 0.0));
                let sum: f64 = sol.probabilities.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
                prop_assert!(report.converged());
                prop_assert_eq!(
                    report.attempts.last().unwrap().outcome,
                    AttemptOutcome::Converged
                );
            }
            Err(_) => {
                prop_assert!(!report.converged());
                prop_assert!(report
                    .attempts
                    .iter()
                    .all(|a| a.outcome != AttemptOutcome::Converged));
            }
        }
    }

    /// A NaN injected into the iterate at hit `k` is caught by the
    /// divergence guard as `Diverged` at exactly iteration `k`, for any
    /// `k`, on any chain.
    #[test]
    fn injected_nan_is_diverged_at_exact_iteration(r in ergodic_chain(8), k in 2usize..=6) {
        let _g = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        mdl_obs::failpoint::set("solver.iterate", &format!("nan@{k}")).unwrap();
        let err = stationary_power(
            &r,
            &SolverOptions { tolerance: 1e-15, ..SolverOptions::default() },
        )
        .unwrap_err();
        mdl_obs::failpoint::clear();
        prop_assert!(
            matches!(err, CtmcError::Diverged { iteration, .. } if iteration == k),
            "got {err:?}, wanted Diverged at {k}"
        );
    }

    /// A divergence injected into the first ladder rung makes
    /// `solve_resilient` fall back and still converge, recording both
    /// attempts.
    #[test]
    fn resilient_ladder_recovers_from_injected_divergence(r in ergodic_chain(6)) {
        let _g = mdl_obs::testing::guard();
        let n = r.nrows();
        let reference = stationary_power(&r, &SolverOptions::default()).unwrap();
        let mrp = Mrp::new(r, vec![1.0; n], vec![1.0 / n as f64; n]).unwrap();
        mdl_obs::failpoint::clear();
        mdl_obs::failpoint::set("solver.iterate", "nan@1").unwrap();
        let (result, report) = mrp.solve_resilient(&ResilientOptions::default());
        mdl_obs::failpoint::clear();
        let sol = result.unwrap();
        prop_assert_eq!(report.attempts.len(), 2);
        prop_assert_eq!(report.attempts[0].outcome, AttemptOutcome::Diverged);
        prop_assert!(report.converged());
        prop_assert!(
            vec_ops::max_abs_diff(&sol.probabilities, &reference.probabilities) < 1e-7
        );
    }
}
