//! Continuous-time Markov chains (CTMCs), Markov reward processes (MRPs)
//! and the iterative numerical solvers used throughout `mdlump`.
//!
//! A CTMC is specified by its state-transition rate matrix `R` (generator
//! `Q = R − rs(R)`); augmenting it with a rate-reward vector `r` and an
//! initial distribution `π_ini` yields an [`Mrp`] — the 4-tuple
//! `(S, Q, r, π_ini)` of Definition 1 of the paper.
//!
//! Everything is generic over [`RateMatrix`], so the same solvers run over a
//! flat [`CsrMatrix`](mdl_linalg::CsrMatrix) and over the symbolic
//! matrix-diagram representation from `mdl-md`. This matters for the paper's
//! headline benefit: after compositional lumping the *iteration vectors*
//! (the space bottleneck of symbolic CTMC solution) shrink by the lumping
//! factor, and each iteration gets proportionally cheaper.
//!
//! # Example
//!
//! ```
//! use mdl_linalg::CooMatrix;
//! use mdl_ctmc::{Mrp, SolverOptions};
//!
//! // Two-state birth–death chain: 0 -> 1 at rate 2, 1 -> 0 at rate 1.
//! let mut r = CooMatrix::new(2, 2);
//! r.push(0, 1, 2.0);
//! r.push(1, 0, 1.0);
//! let mrp = Mrp::new(r.to_csr(), vec![0.0, 1.0], vec![1.0, 0.0])?;
//!
//! let sol = mrp.stationary(&SolverOptions::default())?;
//! // π = (1/3, 2/3); expected reward = probability of state 1.
//! assert!((sol.try_expected_reward(mrp.reward())? - 2.0 / 3.0).abs() < 1e-8);
//! # Ok::<(), mdl_ctmc::CtmcError>(())
//! ```
//!
//! Solves can be bounded and made fail-safe: [`SolverOptions`] carries a
//! [`Budget`](mdl_obs::Budget) (deadline/cancellation, reported as
//! [`CtmcError::Interrupted`] with the partial iterate), non-finite
//! iterates surface immediately as [`CtmcError::Diverged`], and
//! [`Mrp::solve_resilient`] retries across a ladder of methods while
//! recording every attempt in a [`RunReport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accumulated;
mod bounds;
mod error;
mod mrp;
mod parallel;
mod resilient;
mod solver;
mod transient;

pub use accumulated::{accumulated_reward, accumulated_reward_with_exit_rates};
pub use bounds::{stationary_bounds, transient_bounds, BoundsOptions, BoundsSolution, BoundsStats};
pub use error::{CtmcError, InterruptedProgress};
pub use mdl_linalg::IntervalRateMatrix;
pub use mdl_linalg::RateMatrix;
pub use mrp::Mrp;
pub use parallel::ParCsr;
pub use resilient::{
    method_label, solve_ladder, AttemptOutcome, AttemptRecord, Converged, ResilientError,
    ResilientOptions, RunReport,
};
pub use solver::{
    stationary_gauss_seidel, stationary_jacobi, stationary_power, stationary_power_with_exit_rates,
    CheckpointSink, Solution, SolveStats, SolverOptions, StationaryMethod,
};
pub use transient::{
    transient_uniformization, transient_uniformization_with_exit_rates, TransientOptions,
    TransientProgress, TransientSink,
};

/// Convenience alias for fallible CTMC operations.
pub type Result<T> = std::result::Result<T, CtmcError>;
