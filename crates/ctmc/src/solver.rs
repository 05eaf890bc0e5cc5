use mdl_linalg::{vec_ops, CsrMatrix, RateMatrix};

use crate::{CtmcError, Result};

/// Which stationary iteration [`Mrp::stationary`](crate::Mrp::stationary)
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StationaryMethod {
    /// Power iteration on the uniformized chain `P = I + Q/Λ`.
    /// Robust (guaranteed convergence for finite irreducible chains) and
    /// needs only `y += x·R`, so it runs over matrix diagrams unchanged.
    #[default]
    Power,
    /// Jacobi-style iteration `π ← (π·R) D⁻¹` with `D = rs(R)`.
    /// Often converges in fewer iterations than power; also runs over
    /// matrix diagrams.
    Jacobi,
}

/// The [`CheckpointSink`] callback: `(iterations_completed, residual,
/// iterate)`.
pub type StationarySinkFn = dyn Fn(usize, f64, &[f64]) + Send + Sync;

/// Periodic snapshot hook for long stationary solves.
///
/// The sink receives `(iterations, residual, iterate)` every
/// [`every`](CheckpointSink::every) iterations, and once more with the
/// partial iterate when the compute budget interrupts the solve — so an
/// interrupted run always leaves a fresh snapshot, however large the
/// period. The iterate is normalized (`Σ = 1`) and can warm-start a later
/// run via [`SolverOptions::warm_start`]; power and Jacobi converge to
/// the same fixed point from any positive start, so a resumed solve
/// agrees with an uninterrupted one to within the solver tolerance.
#[derive(Clone)]
pub struct CheckpointSink {
    /// Snapshot period in iterations (values `< 1` are treated as `1`).
    pub every: usize,
    /// The callback: `(iterations_completed, residual, iterate)`.
    pub sink: std::sync::Arc<StationarySinkFn>,
}

impl std::fmt::Debug for CheckpointSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSink")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

impl PartialEq for CheckpointSink {
    fn eq(&self, other: &Self) -> bool {
        self.every == other.every && std::sync::Arc::ptr_eq(&self.sink, &other.sink)
    }
}

/// Options shared by the stationary solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Iteration method.
    pub method: StationaryMethod,
    /// Convergence threshold on the ∞-norm of successive iterates.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Report a convergence check (the `solve.check` observability point
    /// event) every this many iterations. The iterate-difference solvers
    /// (power, Jacobi, Gauss–Seidel) fuse the residual into the
    /// normalization pass and therefore test convergence **every**
    /// iteration at no extra traversal cost — `stats.iterations` is always
    /// the true iteration count. Only [`stationary_sor`], whose equation
    /// residual `‖πQ‖∞` costs an extra sparse product, restricts its
    /// convergence checks to multiples of this value. Values `< 1` are
    /// treated as `1`.
    pub check_every: usize,
    /// Damping factor `ω ∈ (0, 1]` for the Jacobi iteration:
    /// `π ← (1−ω)·π + ω·(π·R)D⁻¹`. Damping (`ω < 1`) breaks the
    /// period-2 oscillation Jacobi exhibits on bipartite transition
    /// structures (e.g. birth–death chains) without moving the fixed point.
    pub jacobi_damping: f64,
    /// Compute budget (wall-clock deadline, cancellation). Checked
    /// amortized from the iteration loop; on failure the solver returns
    /// [`CtmcError::Interrupted`] carrying the partial iterate. The
    /// default is unlimited.
    pub budget: mdl_obs::Budget,
    /// Stagnation window: if the residual fails to improve by at least
    /// 0.1% (relative, vs the best seen) for this many consecutive
    /// iterations — or shows a sustained period-2 oscillation — the
    /// Jacobi solver tightens its damping (halving `ω`, up to three
    /// times) and the other solvers give up early with
    /// [`CtmcError::NotConverged`] instead of burning the rest of the
    /// iteration budget. `0` disables the guard.
    pub stagnation_window: usize,
    /// Initial iterate. `None` starts from the uniform distribution;
    /// `Some(v)` starts from `v` (validated: right length, finite,
    /// non-negative, positive sum) after L1 normalization. Used to resume
    /// an interrupted solve from a [`CheckpointSink`] snapshot. The warm
    /// start does not enter any cache key: it changes where the iteration
    /// starts, not which fixed point it converges to.
    pub warm_start: Option<Vec<f64>>,
    /// Periodic snapshot hook; `None` disables checkpointing.
    pub checkpoint: Option<CheckpointSink>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            method: StationaryMethod::Power,
            tolerance: 1e-10,
            max_iterations: 200_000,
            check_every: 1,
            jacobi_damping: 0.75,
            budget: mdl_obs::Budget::unlimited(),
            stagnation_window: 1000,
            warm_start: None,
            checkpoint: None,
        }
    }
}

/// The starting iterate: a validated, L1-normalized warm start if one was
/// supplied, the uniform distribution otherwise.
fn initial_iterate(n: usize, options: &SolverOptions) -> Result<Vec<f64>> {
    let Some(start) = &options.warm_start else {
        return Ok(vec![1.0 / n as f64; n]);
    };
    if start.len() != n {
        return Err(CtmcError::LengthMismatch {
            what: "warm start",
            got: start.len(),
            expected: n,
        });
    }
    let mut pi = start.clone();
    let mut sum = 0.0;
    for (s, &v) in pi.iter().enumerate() {
        if !v.is_finite() || v < 0.0 {
            return Err(CtmcError::InvalidValue {
                what: "warm start",
                index: s,
                value: v,
            });
        }
        sum += v;
    }
    if sum <= 0.0 || !sum.is_finite() {
        return Err(CtmcError::InvalidValue {
            what: "warm start sum",
            index: 0,
            value: sum,
        });
    }
    for v in pi.iter_mut() {
        *v /= sum;
    }
    Ok(pi)
}

/// Feeds one periodic snapshot to the checkpoint sink (if configured and
/// due at this iteration). `force` bypasses the period — used on budget
/// interrupts so the final snapshot is never stale.
#[inline]
fn maybe_checkpoint(options: &SolverOptions, it: usize, residual: f64, pi: &[f64], force: bool) {
    if let Some(ck) = &options.checkpoint {
        if force || (it > 0 && it % ck.every.max(1) == 0) {
            (ck.sink)(it, residual, pi);
            mdl_obs::counter("solve.checkpoint").inc();
        }
    }
}

/// How many consecutive period-2 observations the stagnation guard
/// requires before flagging an oscillation.
const OSCILLATION_RUN: usize = 64;

/// The relative improvement the stagnation guard demands within each
/// window (0.1% better than the best residual seen so far).
const STAGNATION_IMPROVEMENT: f64 = 1e-3;

/// How often the Jacobi solver may halve its damping in response to
/// detected stagnation before giving up.
const MAX_DAMPING_TIGHTENINGS: u32 = 3;

/// Detects two failure shapes in a residual sequence: *stagnation* (no
/// relative improvement over the best seen for a whole window) and
/// *period-2 oscillation* (`r_t ≈ r_{t−2}` with no improvement, the
/// signature of an iterate bouncing between two points — on bipartite
/// structures the residual is then locked constant or alternating).
///
/// Both bars are far below any genuinely converging iteration: geometric
/// convergence improves the best residual every few iterations, and its
/// residual ratio over two steps stays well clear of the `1e-9` equality
/// tolerance used for the oscillation test.
struct StagnationGuard {
    window: usize,
    best: f64,
    since_best: usize,
    prev: f64,
    prev2: f64,
    osc_run: usize,
}

impl StagnationGuard {
    fn new(window: usize) -> Self {
        StagnationGuard {
            window,
            best: f64::INFINITY,
            since_best: 0,
            prev: f64::NAN,
            prev2: f64::NAN,
            osc_run: 0,
        }
    }

    fn reset(&mut self) {
        *self = StagnationGuard::new(self.window);
    }

    /// Feeds one residual; returns `true` when the sequence has
    /// stagnated or oscillates.
    fn observe(&mut self, residual: f64) -> bool {
        if self.window == 0 {
            return false;
        }
        let improving = residual < self.best * (1.0 - STAGNATION_IMPROVEMENT);
        if improving {
            self.best = residual;
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
        let near = |a: f64, b: f64| (a - b).abs() <= 1e-9 * f64::max(a.abs(), b.abs());
        let oscillating = !improving && self.prev2.is_finite() && near(residual, self.prev2);
        self.osc_run = if oscillating { self.osc_run + 1 } else { 0 };
        self.prev2 = self.prev;
        self.prev = residual;
        self.since_best >= self.window || self.osc_run >= OSCILLATION_RUN
    }
}

/// The `solver.iterate` failpoint: `nan` poisons the freshly computed
/// iterate (caught by the divergence guard in the same iteration), `err`
/// aborts immediately as an injected divergence.
#[inline]
fn inject_iterate(next: &mut [f64], iteration: usize) -> Result<()> {
    match mdl_obs::failpoint::hit("solver.iterate") {
        None => Ok(()),
        Some(mdl_obs::failpoint::Injection::Nan) => {
            if let Some(x) = next.first_mut() {
                *x = f64::NAN;
            }
            Ok(())
        }
        Some(mdl_obs::failpoint::Injection::Err) => Err(CtmcError::Diverged {
            iteration,
            residual: f64::NAN,
        }),
    }
}

/// Work counters and final residual of a solver run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final ∞-norm difference between successive iterates.
    pub residual: f64,
    /// Wall-clock time of the solve.
    pub elapsed: std::time::Duration,
}

/// A probability vector together with the work it took to compute it.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The probability distribution over states.
    pub probabilities: Vec<f64>,
    /// Solver work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// Expected instantaneous reward `Σ_s π(s)·r(s)`.
    ///
    /// # Errors
    ///
    /// [`CtmcError::LengthMismatch`] if `reward` has a different length
    /// than the solution vector.
    pub fn try_expected_reward(&self, reward: &[f64]) -> Result<f64> {
        if reward.len() != self.probabilities.len() {
            return Err(CtmcError::LengthMismatch {
                what: "reward vector",
                got: reward.len(),
                expected: self.probabilities.len(),
            });
        }
        Ok(vec_ops::dot(&self.probabilities, reward))
    }

    /// Expected instantaneous reward `Σ_s π(s)·r(s)`.
    ///
    /// # Panics
    ///
    /// Panics if `reward` has a different length than the solution vector.
    #[deprecated(note = "use try_expected_reward, which reports a LengthMismatch \
                         instead of panicking on a bad reward vector")]
    pub fn expected_reward(&self, reward: &[f64]) -> f64 {
        vec_ops::dot(&self.probabilities, reward)
    }
}

/// Per-solve observability: a span named after the method (timing feeds
/// [`SolveStats::elapsed`], so stats stay correct with obs disabled), a
/// `solve.check` point event per convergence check (visible under
/// tracing), and the shared `solve.iterations` counter.
struct SolveObs {
    span: mdl_obs::Span,
    method: &'static str,
}

impl SolveObs {
    fn new(span_name: &'static str, method: &'static str, n: usize) -> Self {
        SolveObs {
            span: mdl_obs::span(span_name).with("n", n),
            method,
        }
    }

    /// Reports one convergence check (cheap no-op unless tracing is on).
    fn check(&self, iteration: usize, residual: f64) {
        mdl_obs::point("solve.check", || {
            vec![
                ("method", mdl_obs::Value::from(self.method)),
                ("iteration", mdl_obs::Value::from(iteration)),
                ("residual", mdl_obs::Value::from(residual)),
            ]
        });
    }

    /// Closes the span and builds the run's [`SolveStats`].
    fn done(mut self, iterations: usize, residual: f64, converged: bool) -> SolveStats {
        mdl_obs::counter("solve.iterations").add(iterations as u64);
        self.span.record("iterations", iterations);
        self.span.record("residual", residual);
        self.span.record("converged", converged);
        SolveStats {
            iterations,
            residual,
            elapsed: self.span.finish(),
        }
    }
}

fn exit_rates<M: RateMatrix>(rates: &M) -> Result<Vec<f64>> {
    let d = rates.row_sums();
    for (s, &v) in d.iter().enumerate() {
        if v <= 0.0 {
            return Err(CtmcError::AbsorbingState { state: s });
        }
        if !v.is_finite() {
            return Err(CtmcError::InvalidValue {
                what: "exit rates",
                index: s,
                value: v,
            });
        }
    }
    Ok(d)
}

/// Stationary distribution by power iteration on the uniformized DTMC
/// `P = I + Q/Λ` with `Λ = 1.02 · max_s R(s, S)`.
///
/// Needs only the `y += x·R` product, so it runs over any [`RateMatrix`]
/// including matrix diagrams.
///
/// # Errors
///
/// [`CtmcError::AbsorbingState`] for states without outgoing rate;
/// [`CtmcError::NotConverged`] when the iteration budget is exhausted.
pub fn stationary_power<M: RateMatrix>(rates: &M, options: &SolverOptions) -> Result<Solution> {
    let d = exit_rates(rates)?;
    stationary_power_with_exit_rates(rates, &d, options)
}

/// [`stationary_power`] with an explicitly supplied diagonal: the generator
/// is taken to be `Q = R − diag(exit)` instead of `R − rs(R)`.
///
/// This is required by **exact** lumping, whose Theorem-2 quotient matrix
/// `R̂(ĩ, j̃) = R(C_i, j)` does *not* carry the original exit rates in its
/// row sums — they are supplied separately (they are constant per class by
/// the exact lumpability conditions). The computed fixed point is the
/// normalized dominant left eigenvector of `I + Q/Λ`; for a proper
/// generator this is the stationary distribution, and for an exact-lumped
/// quotient it is the per-state solution vector `ν̂` (see
/// `mdl-core::exact`).
///
/// # Errors
///
/// As for [`stationary_power`], plus a length check on `exit`.
pub fn stationary_power_with_exit_rates<M: RateMatrix>(
    rates: &M,
    exit: &[f64],
    options: &SolverOptions,
) -> Result<Solution> {
    let n = rates.num_states();
    if exit.len() != n {
        return Err(CtmcError::LengthMismatch {
            what: "exit rates",
            got: exit.len(),
            expected: n,
        });
    }
    let obs = SolveObs::new("solve.power", "power", n);
    let d = exit;
    let lambda = 1.02 * d.iter().cloned().fold(0.0, f64::max);
    let check_every = options.check_every.max(1);

    let mut ticker = options.budget.ticker(32);
    let mut guard = StagnationGuard::new(options.stagnation_window);
    let mut pi = initial_iterate(n, options)?;
    let mut next = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for it in 1..=options.max_iterations {
        if let Err(reason) = ticker.tick() {
            let _ = obs.done(it - 1, residual, false);
            maybe_checkpoint(options, it - 1, residual, &pi, true);
            return Err(CtmcError::interrupted(
                "solve.power",
                it - 1,
                residual,
                pi,
                reason,
            ));
        }
        // next = pi + (pi·R − pi∘d) / Λ  =  pi·P
        vec_ops::fill(&mut next, 0.0);
        rates.acc_vec_mat(&pi, &mut next);
        for s in 0..n {
            next[s] = pi[s] + (next[s] - pi[s] * d[s]) / lambda;
        }
        inject_iterate(&mut next, it)?;
        // Fused normalize + residual: convergence is tested every
        // iteration, so the reported count is the true one. The L1 sum
        // doubles as the divergence sentinel (f64::max can mask a NaN
        // lane in the residual; the sum cannot stay finite).
        let (diff, sum) = vec_ops::normalize_l1_max_diff_guarded(&mut next, &pi);
        residual = diff;
        if !sum.is_finite() {
            let _ = obs.done(it, residual, false);
            return Err(CtmcError::Diverged {
                iteration: it,
                residual,
            });
        }
        std::mem::swap(&mut pi, &mut next);
        if residual < options.tolerance {
            obs.check(it, residual);
            return Ok(Solution {
                probabilities: pi,
                stats: obs.done(it, residual, true),
            });
        }
        maybe_checkpoint(options, it, residual, &pi, false);
        if guard.observe(residual) {
            let _ = obs.done(it, residual, false);
            return Err(CtmcError::NotConverged {
                iterations: it,
                residual,
            });
        }
        if it % check_every == 0 {
            obs.check(it, residual);
        }
    }
    let _ = obs.done(options.max_iterations, residual, false);
    Err(CtmcError::NotConverged {
        iterations: options.max_iterations,
        residual,
    })
}

/// Stationary distribution by the Jacobi-style iteration
/// `π ← (π·R) D⁻¹` with `D = diag(rs(R))`.
///
/// The fixed point satisfies `π R = π D`, i.e. `π Q = 0`. Like the power
/// method it needs only `y += x·R` and runs over matrix diagrams.
///
/// # Errors
///
/// Same as [`stationary_power`].
pub fn stationary_jacobi<M: RateMatrix>(rates: &M, options: &SolverOptions) -> Result<Solution> {
    let n = rates.num_states();
    let d = exit_rates(rates)?;
    let obs = SolveObs::new("solve.jacobi", "jacobi", n);

    let mut omega = options.jacobi_damping;
    assert!(
        omega > 0.0 && omega <= 1.0,
        "jacobi_damping must be in (0, 1]"
    );
    let check_every = options.check_every.max(1);
    let mut ticker = options.budget.ticker(32);
    let mut guard = StagnationGuard::new(options.stagnation_window);
    let mut tightenings = 0u32;
    let mut pi = initial_iterate(n, options)?;
    let mut next = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for it in 1..=options.max_iterations {
        if let Err(reason) = ticker.tick() {
            let _ = obs.done(it - 1, residual, false);
            maybe_checkpoint(options, it - 1, residual, &pi, true);
            return Err(CtmcError::interrupted(
                "solve.jacobi",
                it - 1,
                residual,
                pi,
                reason,
            ));
        }
        vec_ops::fill(&mut next, 0.0);
        rates.acc_vec_mat(&pi, &mut next);
        for s in 0..n {
            next[s] = (1.0 - omega) * pi[s] + omega * next[s] / d[s];
        }
        inject_iterate(&mut next, it)?;
        let (diff, sum) = vec_ops::normalize_l1_max_diff_guarded(&mut next, &pi);
        residual = diff;
        if !sum.is_finite() {
            let _ = obs.done(it, residual, false);
            return Err(CtmcError::Diverged {
                iteration: it,
                residual,
            });
        }
        std::mem::swap(&mut pi, &mut next);
        if residual < options.tolerance {
            obs.check(it, residual);
            return Ok(Solution {
                probabilities: pi,
                stats: obs.done(it, residual, true),
            });
        }
        maybe_checkpoint(options, it, residual, &pi, false);
        if guard.observe(residual) {
            // Stagnation or oscillation: tighten the damping before
            // giving up — a smaller ω breaks period-2 cycling without
            // moving the fixed point.
            if tightenings < MAX_DAMPING_TIGHTENINGS {
                tightenings += 1;
                omega *= 0.5;
                guard.reset();
                mdl_obs::counter("solve.guard.tighten").inc();
                mdl_obs::point("solve.guard", || {
                    vec![
                        ("method", mdl_obs::Value::from("jacobi")),
                        ("iteration", mdl_obs::Value::from(it)),
                        ("omega", mdl_obs::Value::from(omega)),
                        ("residual", mdl_obs::Value::from(residual)),
                    ]
                });
                continue;
            }
            let _ = obs.done(it, residual, false);
            return Err(CtmcError::NotConverged {
                iterations: it,
                residual,
            });
        }
        if it % check_every == 0 {
            obs.check(it, residual);
        }
    }
    let _ = obs.done(options.max_iterations, residual, false);
    Err(CtmcError::NotConverged {
        iterations: options.max_iterations,
        residual,
    })
}

/// Stationary distribution by Gauss–Seidel sweeps, for flat CSR matrices.
///
/// Solves `π Q = 0` columnwise, using updated values within a sweep:
/// `π(j) ← Σ_{i≠j} π(i)·R(i,j) / R(j, S)`. Requires column access, hence
/// the flat-matrix restriction (this is the classical reference solver the
/// matrix-diagram solvers are validated against).
///
/// # Errors
///
/// Same as [`stationary_power`].
pub fn stationary_gauss_seidel(rates: &CsrMatrix, options: &SolverOptions) -> Result<Solution> {
    let n = rates.num_states();
    let d = exit_rates(rates)?;
    let obs = SolveObs::new("solve.gauss_seidel", "gauss_seidel", n);
    let columns = rates.transpose(); // row r of `columns` = column r of `rates`
    let check_every = options.check_every.max(1);

    let mut ticker = options.budget.ticker(32);
    let mut guard = StagnationGuard::new(options.stagnation_window);
    let mut pi = initial_iterate(n, options)?;
    let mut prev = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for it in 1..=options.max_iterations {
        if let Err(reason) = ticker.tick() {
            let _ = obs.done(it - 1, residual, false);
            maybe_checkpoint(options, it - 1, residual, &pi, true);
            return Err(CtmcError::interrupted(
                "solve.gauss_seidel",
                it - 1,
                residual,
                pi,
                reason,
            ));
        }
        prev.copy_from_slice(&pi);
        for j in 0..n {
            let mut acc = 0.0;
            for (i, v) in columns.row(j) {
                if i != j {
                    acc += pi[i] * v;
                }
            }
            // Self-loops in R cancel between R and rs(R) in Q; the diagonal
            // divisor is the *exit* rate net of the self-loop.
            let self_loop = rates.get(j, j);
            let denom = d[j] - self_loop;
            if denom <= 0.0 {
                return Err(CtmcError::AbsorbingState { state: j });
            }
            pi[j] = acc / denom;
        }
        inject_iterate(&mut pi, it)?;
        let (diff, sum) = vec_ops::normalize_l1_max_diff_guarded(&mut pi, &prev);
        residual = diff;
        if !sum.is_finite() {
            let _ = obs.done(it, residual, false);
            return Err(CtmcError::Diverged {
                iteration: it,
                residual,
            });
        }
        if residual < options.tolerance {
            obs.check(it, residual);
            return Ok(Solution {
                probabilities: pi,
                stats: obs.done(it, residual, true),
            });
        }
        maybe_checkpoint(options, it, residual, &pi, false);
        if guard.observe(residual) {
            let _ = obs.done(it, residual, false);
            return Err(CtmcError::NotConverged {
                iterations: it,
                residual,
            });
        }
        if it % check_every == 0 {
            obs.check(it, residual);
        }
    }
    let _ = obs.done(options.max_iterations, residual, false);
    Err(CtmcError::NotConverged {
        iterations: options.max_iterations,
        residual,
    })
}

/// Stationary distribution by successive over-relaxation (SOR): a
/// Gauss–Seidel sweep blended with the previous iterate by the relaxation
/// factor `omega` (`omega = 1` is exactly Gauss–Seidel; `1 < omega < 2`
/// typically accelerates convergence on diffusive chains). Flat CSR only.
///
/// Over-relaxed sweeps can oscillate slowly on strongly cyclic chains,
/// fooling an iterate-difference stopping rule; SOR therefore converges on
/// the **true equation residual** `‖π Q‖∞ < tolerance` (one extra sparse
/// pass per check).
///
/// # Errors
///
/// As for [`stationary_gauss_seidel`].
///
/// # Panics
///
/// Panics unless `0 < omega < 2`.
pub fn stationary_sor(rates: &CsrMatrix, omega: f64, options: &SolverOptions) -> Result<Solution> {
    assert!(omega > 0.0 && omega < 2.0, "SOR requires 0 < omega < 2");
    let n = rates.num_states();
    let d = exit_rates(rates)?;
    let obs = SolveObs::new("solve.sor", "sor", n);
    let columns = rates.transpose();
    let check_every = options.check_every.max(1);

    let mut ticker = options.budget.ticker(32);
    let mut guard = StagnationGuard::new(options.stagnation_window);
    let mut pi = initial_iterate(n, options)?;
    let mut flow = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for it in 1..=options.max_iterations {
        if let Err(reason) = ticker.tick() {
            let _ = obs.done(it - 1, residual, false);
            maybe_checkpoint(options, it - 1, residual, &pi, true);
            return Err(CtmcError::interrupted(
                "solve.sor",
                it - 1,
                residual,
                pi,
                reason,
            ));
        }
        for j in 0..n {
            let mut acc = 0.0;
            for (i, v) in columns.row(j) {
                if i != j {
                    acc += pi[i] * v;
                }
            }
            let self_loop = rates.get(j, j);
            let denom = d[j] - self_loop;
            if denom <= 0.0 {
                return Err(CtmcError::AbsorbingState { state: j });
            }
            let gs = acc / denom;
            pi[j] = (1.0 - omega) * pi[j] + omega * gs;
        }
        inject_iterate(&mut pi, it)?;
        let sum = vec_ops::normalize_l1(&mut pi);
        if !sum.is_finite() {
            let _ = obs.done(it, residual, false);
            return Err(CtmcError::Diverged {
                iteration: it,
                residual: f64::NAN,
            });
        }
        if it % check_every == 0 {
            // ‖π Q‖∞ = max_j |(π R)(j) − π(j)·d(j)|.
            vec_ops::fill(&mut flow, 0.0);
            rates.acc_vec_mat(&pi, &mut flow);
            for j in 0..n {
                flow[j] -= pi[j] * d[j];
            }
            residual = vec_ops::max_abs(&flow);
            obs.check(it, residual);
            if residual < options.tolerance {
                return Ok(Solution {
                    probabilities: pi,
                    stats: obs.done(it, residual, true),
                });
            }
            maybe_checkpoint(options, it, residual, &pi, false);
            // The guard sees one sample per *check*, so its window counts
            // checks here — still a fixed multiple of real iterations.
            if guard.observe(residual) {
                let _ = obs.done(it, residual, false);
                return Err(CtmcError::NotConverged {
                    iterations: it,
                    residual,
                });
            }
        }
    }
    let _ = obs.done(options.max_iterations, residual, false);
    Err(CtmcError::NotConverged {
        iterations: options.max_iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_linalg::CooMatrix;

    fn birth_death(up: f64, down: f64, n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for s in 0..n - 1 {
            coo.push(s, s + 1, up);
            coo.push(s + 1, s, down);
        }
        coo.to_csr()
    }

    fn analytic_birth_death(up: f64, down: f64, n: usize) -> Vec<f64> {
        let rho = up / down;
        let mut pi: Vec<f64> = (0..n).map(|k| rho.powi(k as i32)).collect();
        let sum: f64 = pi.iter().sum();
        for p in pi.iter_mut() {
            *p /= sum;
        }
        pi
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert!(
            vec_ops::max_abs_diff(a, b) < tol,
            "vectors differ: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn power_matches_analytic() {
        let r = birth_death(2.0, 3.0, 5);
        let sol = stationary_power(&r, &SolverOptions::default()).unwrap();
        assert_close(&sol.probabilities, &analytic_birth_death(2.0, 3.0, 5), 1e-7);
    }

    #[test]
    fn jacobi_matches_analytic() {
        let r = birth_death(1.0, 2.0, 6);
        let opts = SolverOptions {
            method: StationaryMethod::Jacobi,
            ..Default::default()
        };
        let sol = stationary_jacobi(&r, &opts).unwrap();
        assert_close(&sol.probabilities, &analytic_birth_death(1.0, 2.0, 6), 1e-7);
    }

    #[test]
    fn gauss_seidel_matches_analytic() {
        let r = birth_death(2.5, 1.5, 4);
        let sol = stationary_gauss_seidel(&r, &SolverOptions::default()).unwrap();
        assert_close(&sol.probabilities, &analytic_birth_death(2.5, 1.5, 4), 1e-7);
    }

    #[test]
    fn methods_agree_on_random_chain() {
        // Fully-connected 4-state chain with assorted rates.
        let mut coo = CooMatrix::new(4, 4);
        let rates = [
            (0, 1, 1.0),
            (0, 2, 0.5),
            (1, 3, 2.0),
            (2, 0, 0.3),
            (2, 3, 0.7),
            (3, 0, 1.1),
            (1, 0, 0.2),
        ];
        for (i, j, v) in rates {
            coo.push(i, j, v);
        }
        let r = coo.to_csr();
        let p = stationary_power(&r, &SolverOptions::default())
            .unwrap()
            .probabilities;
        let j = stationary_jacobi(&r, &SolverOptions::default())
            .unwrap()
            .probabilities;
        let g = stationary_gauss_seidel(&r, &SolverOptions::default())
            .unwrap()
            .probabilities;
        assert_close(&p, &j, 1e-7);
        assert_close(&p, &g, 1e-7);
    }

    #[test]
    fn sor_matches_analytic_and_beats_gs_on_iterations() {
        let r = birth_death(1.0, 2.0, 30);
        let expected = analytic_birth_death(1.0, 2.0, 30);
        let opts = SolverOptions {
            tolerance: 1e-12,
            ..Default::default()
        };
        let gs = stationary_gauss_seidel(&r, &opts).unwrap();
        let sor = stationary_sor(&r, 1.5, &opts).unwrap();
        assert_close(&sor.probabilities, &expected, 1e-9);
        assert!(
            sor.stats.iterations <= gs.stats.iterations,
            "SOR {} vs GS {}",
            sor.stats.iterations,
            gs.stats.iterations
        );
    }

    #[test]
    fn sor_with_omega_one_is_gauss_seidel() {
        let r = birth_death(2.0, 3.0, 6);
        // Same sweeps (the stopping criteria differ: SOR checks ‖πQ‖∞),
        // same fixed point.
        let a = stationary_sor(&r, 1.0, &SolverOptions::default()).unwrap();
        let b = stationary_gauss_seidel(&r, &SolverOptions::default()).unwrap();
        assert_close(&a.probabilities, &b.probabilities, 1e-9);
    }

    #[test]
    #[should_panic(expected = "omega")]
    fn sor_rejects_bad_relaxation() {
        let r = birth_death(1.0, 1.0, 3);
        let _ = stationary_sor(&r, 2.5, &SolverOptions::default());
    }

    #[test]
    fn absorbing_state_detected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0); // state 1 has no exit
        let err = stationary_power(&coo.to_csr(), &SolverOptions::default()).unwrap_err();
        assert!(matches!(err, CtmcError::AbsorbingState { state: 1 }));
    }

    #[test]
    fn iteration_budget_respected() {
        let r = birth_death(1.0, 4.0, 50);
        let opts = SolverOptions {
            max_iterations: 2,
            ..Default::default()
        };
        let err = stationary_power(&r, &opts).unwrap_err();
        assert!(matches!(err, CtmcError::NotConverged { iterations: 2, .. }));
    }

    #[test]
    fn self_loops_do_not_change_stationary() {
        // Adding self-loops to R changes rs(R) and R equally; Q and π are
        // unchanged.
        let base = birth_death(2.0, 3.0, 4);
        let mut with_loops = base.to_coo();
        for s in 0..4 {
            with_loops.push(s, s, 5.0);
        }
        let with_loops = with_loops.to_csr();
        let a = stationary_power(&base, &SolverOptions::default())
            .unwrap()
            .probabilities;
        let b = stationary_power(&with_loops, &SolverOptions::default())
            .unwrap()
            .probabilities;
        assert_close(&a, &b, 1e-7);
        let g = stationary_gauss_seidel(&with_loops, &SolverOptions::default())
            .unwrap()
            .probabilities;
        assert_close(&a, &g, 1e-7);
    }

    #[test]
    fn solution_expected_reward() {
        let sol = Solution {
            probabilities: vec![0.25, 0.75],
            stats: SolveStats {
                iterations: 1,
                residual: 0.0,
                elapsed: std::time::Duration::ZERO,
            },
        };
        assert_eq!(sol.try_expected_reward(&[4.0, 0.0]).unwrap(), 1.0);
        // The deprecated panicking path stays behaviorally identical.
        #[allow(deprecated)]
        let legacy = sol.expected_reward(&[4.0, 0.0]);
        assert_eq!(legacy, 1.0);
        assert!(matches!(
            sol.try_expected_reward(&[1.0]),
            Err(CtmcError::LengthMismatch {
                what: "reward vector",
                got: 1,
                expected: 2,
            })
        ));
    }

    #[test]
    fn check_every_gt_one_reports_true_iteration_count() {
        // The iterate-difference solvers fuse the residual into the
        // normalization pass, so check_every must not change when
        // convergence is detected: the reported iteration count equals the
        // every-iteration baseline exactly, not the next multiple of 7.
        let r = birth_death(2.0, 3.0, 6);
        let expected = analytic_birth_death(2.0, 3.0, 6);
        type Solver = fn(&CsrMatrix, &SolverOptions) -> Result<Solution>;
        let solvers: [(&str, Solver); 3] = [
            ("power", stationary_power::<CsrMatrix>),
            ("jacobi", stationary_jacobi::<CsrMatrix>),
            ("gauss_seidel", stationary_gauss_seidel),
        ];
        for (name, solve) in solvers {
            let base = SolverOptions {
                tolerance: 1e-10,
                ..Default::default()
            };
            let dense = solve(&r, &base).unwrap();
            let sparse = solve(
                &r,
                &SolverOptions {
                    check_every: 7,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(
                sparse.stats.iterations, dense.stats.iterations,
                "{name}: check_every must not inflate the iteration count"
            );
            assert!(
                dense.stats.iterations % 7 != 0,
                "{name}: baseline accidentally lands on a multiple of 7, \
                 weakening the test"
            );
            assert!(
                sparse.stats.residual < 1e-10,
                "{name}: residual {} is the converged one",
                sparse.stats.residual
            );
            assert_eq!(sparse.probabilities, dense.probabilities, "{name}");
            assert_close(&sparse.probabilities, &expected, 1e-7);
        }
    }

    #[test]
    fn sor_check_every_still_checks_on_multiples() {
        // SOR's equation residual ‖πQ‖∞ costs an extra sparse product, so
        // it keeps the throttled check: convergence is detected on the
        // first multiple of check_every at or after the baseline count.
        let r = birth_death(2.0, 3.0, 6);
        let base = SolverOptions {
            tolerance: 1e-10,
            ..Default::default()
        };
        let dense = stationary_sor(&r, 1.2, &base).unwrap();
        let sparse = stationary_sor(
            &r,
            1.2,
            &SolverOptions {
                check_every: 7,
                ..base
            },
        )
        .unwrap();
        assert_eq!(sparse.stats.iterations % 7, 0);
        assert!(sparse.stats.iterations >= dense.stats.iterations);
        assert!(sparse.stats.iterations < dense.stats.iterations + 7);
        assert!(sparse.stats.residual < 1e-10);
    }

    #[test]
    fn check_every_zero_is_treated_as_one() {
        let r = birth_death(2.0, 3.0, 6);
        let opts = SolverOptions {
            check_every: 0,
            ..Default::default()
        };
        let baseline = stationary_power(&r, &SolverOptions::default()).unwrap();
        let sol = stationary_power(&r, &opts).unwrap();
        assert_eq!(sol.stats.iterations, baseline.stats.iterations);
        let sor = stationary_sor(&r, 1.2, &opts).unwrap();
        assert!(sor.stats.residual < opts.tolerance);
    }

    #[test]
    fn jacobi_damping_converges_on_birth_death() {
        // The undamped (ω = 1) Jacobi iteration follows the embedded jump
        // chain, which is periodic on a birth–death chain; damping mixes
        // in the previous iterate and restores convergence. Any ω ∈ (0, 1)
        // must reach the analytic fixed point.
        let r = birth_death(1.5, 2.5, 8);
        let expected = analytic_birth_death(1.5, 2.5, 8);
        for omega in [0.3, 0.6, 0.9] {
            let opts = SolverOptions {
                jacobi_damping: omega,
                tolerance: 1e-12,
                ..Default::default()
            };
            let sol = stationary_jacobi(&r, &opts).unwrap();
            assert_close(&sol.probabilities, &expected, 1e-8);
            assert!(sol.stats.residual < 1e-12, "omega={omega}");
        }
    }

    #[test]
    fn expired_deadline_interrupts_with_partial_iterate() {
        let r = birth_death(1.0, 2.0, 8);
        let opts = SolverOptions {
            budget: mdl_obs::Budget::unlimited().deadline_in(std::time::Duration::ZERO),
            ..Default::default()
        };
        let err = stationary_power(&r, &opts).unwrap_err();
        match err {
            CtmcError::Interrupted { phase, progress } => {
                assert_eq!(phase, "solve.power");
                assert_eq!(progress.iterations, 0);
                assert_eq!(progress.partial.len(), 8);
                assert!(matches!(
                    progress.reason,
                    mdl_obs::BudgetExceeded::Deadline { .. }
                ));
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // The other solvers honor the same budget.
        let jac = stationary_jacobi(&r, &opts).unwrap_err();
        assert!(matches!(
            jac,
            CtmcError::Interrupted {
                phase: "solve.jacobi",
                ..
            }
        ));
        let gs = stationary_gauss_seidel(&r, &opts).unwrap_err();
        assert!(matches!(
            gs,
            CtmcError::Interrupted {
                phase: "solve.gauss_seidel",
                ..
            }
        ));
        let sor = stationary_sor(&r, 1.2, &opts).unwrap_err();
        assert!(matches!(
            sor,
            CtmcError::Interrupted {
                phase: "solve.sor",
                ..
            }
        ));
    }

    #[test]
    fn cancellation_interrupts_mid_solve() {
        let token = mdl_obs::CancelToken::new();
        token.cancel();
        let r = birth_death(2.0, 3.0, 5);
        let opts = SolverOptions {
            budget: mdl_obs::Budget::unlimited().cancelled_by(&token),
            ..Default::default()
        };
        let err = stationary_power(&r, &opts).unwrap_err();
        assert!(matches!(
            err,
            CtmcError::Interrupted { progress, .. }
                if progress.reason == mdl_obs::BudgetExceeded::Cancelled
        ));
    }

    #[test]
    fn injected_nan_is_caught_as_diverged_at_exact_iteration() {
        let _g = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        mdl_obs::failpoint::set("solver.iterate", "nan@5").unwrap();
        let r = birth_death(2.0, 3.0, 12);
        let err = stationary_power(
            &r,
            &SolverOptions {
                tolerance: 1e-15,
                ..Default::default()
            },
        )
        .unwrap_err();
        mdl_obs::failpoint::clear();
        assert!(
            matches!(err, CtmcError::Diverged { iteration: 5, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn injected_err_aborts_immediately() {
        let _g = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        mdl_obs::failpoint::set("solver.iterate", "err@2").unwrap();
        let r = birth_death(2.0, 3.0, 6);
        let err = stationary_jacobi(
            &r,
            &SolverOptions {
                tolerance: 1e-15,
                ..Default::default()
            },
        )
        .unwrap_err();
        mdl_obs::failpoint::clear();
        assert!(matches!(err, CtmcError::Diverged { iteration: 2, .. }));
    }

    #[test]
    fn undamped_jacobi_auto_tightens_and_converges() {
        // ω = 1 Jacobi follows the embedded jump chain, which is periodic
        // on a birth–death chain: the residual locks constant. Instead of
        // burning 200k iterations into NotConverged (the old behavior),
        // the oscillation guard now halves ω and the iteration converges.
        let r = birth_death(1.5, 2.5, 8);
        let expected = analytic_birth_death(1.5, 2.5, 8);
        let sol = stationary_jacobi(
            &r,
            &SolverOptions {
                jacobi_damping: 1.0,
                tolerance: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        assert_close(&sol.probabilities, &expected, 1e-8);
        assert!(
            sol.stats.iterations < 5_000,
            "guard should rescue ω=1 quickly, took {}",
            sol.stats.iterations
        );
    }

    #[test]
    fn stagnation_guard_disabled_with_zero_window() {
        // With the guard off, ω = 1 Jacobi oscillates to the iteration cap.
        let r = birth_death(1.5, 2.5, 8);
        let err = stationary_jacobi(
            &r,
            &SolverOptions {
                jacobi_damping: 1.0,
                stagnation_window: 0,
                max_iterations: 500,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CtmcError::NotConverged {
                iterations: 500,
                ..
            }
        ));
    }

    #[test]
    fn stagnation_guard_stops_hopeless_power_iteration_early() {
        // An unreachable tolerance: the residual bottoms out at rounding
        // noise, and the guard ends the run well before max_iterations.
        let r = birth_death(2.0, 3.0, 6);
        let err = stationary_power(
            &r,
            &SolverOptions {
                tolerance: 0.0,
                stagnation_window: 200,
                ..Default::default()
            },
        )
        .unwrap_err();
        match err {
            CtmcError::NotConverged { iterations, .. } => {
                assert!(iterations < 200_000, "early stop, got {iterations}")
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn solver_emits_span_and_check_events() {
        use mdl_obs::{EventKind, Value};
        let _g = mdl_obs::testing::guard();
        mdl_obs::reset();
        mdl_obs::set_tracing(true);
        let sub = std::sync::Arc::new(mdl_obs::MemorySubscriber::new());
        mdl_obs::add_subscriber(sub.clone());

        // 13 states: unique in this module, so the span below is ours even
        // if a concurrently running test also solves with obs enabled.
        let r = birth_death(2.0, 3.0, 13);
        let sol = stationary_power(
            &r,
            &SolverOptions {
                check_every: 3,
                ..Default::default()
            },
        )
        .unwrap();

        mdl_obs::clear_subscribers();
        mdl_obs::set_enabled(false);
        let events = sub.take();
        let span = events
            .iter()
            .find(|e| {
                e.kind == EventKind::SpanEnd
                    && e.name == "solve.power"
                    && e.fields.contains(&("n", Value::U64(13)))
            })
            .expect("solve.power span emitted");
        assert!(span.nanos.is_some(), "span carries a duration");
        assert!(span
            .fields
            .contains(&("iterations", Value::U64(sol.stats.iterations as u64))));
        assert!(span.fields.contains(&("converged", Value::Bool(true))));
        // The last residual check was emitted as a point event.
        assert!(events.iter().any(|e| {
            e.kind == EventKind::Point
                && e.name == "solve.check"
                && e.fields
                    .contains(&("iteration", Value::U64(sol.stats.iterations as u64)))
        }));
    }

    #[test]
    fn warm_start_near_fixed_point_converges_fast() {
        let r = birth_death(1.0, 2.0, 20);
        let cold = stationary_power(&r, &SolverOptions::default()).unwrap();
        let warm = stationary_power(
            &r,
            &SolverOptions {
                warm_start: Some(cold.probabilities.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            warm.stats.iterations < cold.stats.iterations / 2,
            "warm {} vs cold {}",
            warm.stats.iterations,
            cold.stats.iterations
        );
        assert_close(&warm.probabilities, &cold.probabilities, 1e-9);
    }

    #[test]
    fn warm_start_is_normalized_not_trusted() {
        // An unnormalized warm start must be scaled to a distribution, so
        // the fixed point reached is identical to the cold solve's.
        let r = birth_death(2.0, 3.0, 5);
        let cold = stationary_power(&r, &SolverOptions::default()).unwrap();
        let scaled: Vec<f64> = cold.probabilities.iter().map(|p| 7.0 * p).collect();
        let warm = stationary_power(
            &r,
            &SolverOptions {
                warm_start: Some(scaled),
                ..Default::default()
            },
        )
        .unwrap();
        assert_close(&warm.probabilities, &cold.probabilities, 1e-9);
    }

    #[test]
    fn warm_start_validation_errors() {
        let r = birth_death(1.0, 1.0, 4);
        let short = SolverOptions {
            warm_start: Some(vec![1.0; 3]),
            ..Default::default()
        };
        assert!(matches!(
            stationary_power(&r, &short),
            Err(CtmcError::LengthMismatch {
                what: "warm start",
                got: 3,
                expected: 4,
            })
        ));
        let negative = SolverOptions {
            warm_start: Some(vec![0.5, -0.1, 0.3, 0.3]),
            ..Default::default()
        };
        assert!(matches!(
            stationary_jacobi(&r, &negative),
            Err(CtmcError::InvalidValue {
                what: "warm start",
                index: 1,
                ..
            })
        ));
        let zero = SolverOptions {
            warm_start: Some(vec![0.0; 4]),
            ..Default::default()
        };
        assert!(matches!(
            stationary_gauss_seidel(&r, &zero),
            Err(CtmcError::InvalidValue {
                what: "warm start sum",
                ..
            })
        ));
    }

    #[test]
    fn checkpoint_sink_fires_periodically_and_resumes_identically() {
        use std::sync::{Arc, Mutex};
        let r = birth_death(1.0, 2.0, 30);
        let opts = SolverOptions {
            tolerance: 1e-12,
            ..Default::default()
        };
        let uninterrupted = stationary_power(&r, &opts).unwrap();

        let snaps = Arc::new(Mutex::new(Vec::<(usize, f64, Vec<f64>)>::new()));
        let sink_snaps = snaps.clone();
        let with_sink = SolverOptions {
            checkpoint: Some(CheckpointSink {
                every: 10,
                sink: std::sync::Arc::new(move |it, res, pi| {
                    sink_snaps.lock().unwrap().push((it, res, pi.to_vec()));
                }),
            }),
            ..opts.clone()
        };
        let sol = stationary_power(&r, &with_sink).unwrap();
        assert_eq!(sol.probabilities, uninterrupted.probabilities);
        let snaps = snaps.lock().unwrap();
        assert!(!snaps.is_empty(), "sink never fired");
        for (it, _, pi) in snaps.iter() {
            assert_eq!(it % 10, 0);
            assert!(
                (vec_ops::sum(pi) - 1.0).abs() < 1e-12,
                "snapshot normalized"
            );
        }

        // Resuming from a mid-run snapshot reaches the same fixed point.
        let (mid_it, _, mid_pi) = snaps[snaps.len() / 2].clone();
        let resumed = stationary_power(
            &r,
            &SolverOptions {
                warm_start: Some(mid_pi),
                ..opts
            },
        )
        .unwrap();
        assert_close(&resumed.probabilities, &uninterrupted.probabilities, 1e-10);
        assert!(
            mid_it + resumed.stats.iterations
                <= uninterrupted.stats.iterations + uninterrupted.stats.iterations / 4 + 2,
            "resume must not redo substantially more work: {} after {} vs {}",
            resumed.stats.iterations,
            mid_it,
            uninterrupted.stats.iterations
        );
    }

    #[test]
    fn interrupt_flushes_a_final_checkpoint() {
        use std::sync::{Arc, Mutex};
        let r = birth_death(1.0, 2.0, 8);
        let snaps = Arc::new(Mutex::new(Vec::<(usize, Vec<f64>)>::new()));
        let sink_snaps = snaps.clone();
        let opts = SolverOptions {
            budget: mdl_obs::Budget::unlimited().deadline_in(std::time::Duration::ZERO),
            checkpoint: Some(CheckpointSink {
                // Far larger than the run: only the forced interrupt flush
                // can fire.
                every: 1_000_000,
                sink: std::sync::Arc::new(move |it, _res, pi| {
                    sink_snaps.lock().unwrap().push((it, pi.to_vec()));
                }),
            }),
            ..Default::default()
        };
        let err = stationary_power(&r, &opts).unwrap_err();
        let snaps = snaps.lock().unwrap();
        assert_eq!(snaps.len(), 1, "exactly the forced flush");
        let CtmcError::Interrupted { progress, .. } = err else {
            panic!("expected Interrupted");
        };
        assert_eq!(snaps[0].0, progress.iterations);
        assert_eq!(snaps[0].1, progress.partial);
    }
}
