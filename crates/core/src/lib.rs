//! Compositional lumping of CTMCs represented as matrix diagrams — the
//! algorithm of *Derisavi, Kemper & Sanders, “Lumping Matrix Diagram
//! Representations of Markov Models”, DSN 2005*.
//!
//! Given a Markov reward process whose state-transition rate matrix is a
//! matrix diagram ([`MdMrp`]), a [`LumpRequest`] run computes, **per level
//! of the MD**, the coarsest partition of the level's local state space
//! satisfying the paper's *local* lumpability conditions (Definition 3):
//!
//! * **ordinary** (`≈_lo`): equal level-reward `f_i` values and, in every
//!   node of the level, equal class-summed formal sums
//!   `Σ_{s′∈C} Σ_k r_k(s, s′) · R_k` (compared as sets of
//!   `(coefficient, child node)` pairs — Section 4's key function, which
//!   never expands child matrices);
//! * **exact** (`≈_le`): dual conditions on columns, plus equal per-child
//!   local row sums and equal level-initial-probability `f_{π,i}` values.
//!
//! Theorems 3 and 4 of the paper guarantee the induced global equivalence
//! (equality at all other levels) is an ordinary/exact lumping of the whole
//! CTMC. Each node is then replaced by its quotient (Theorem 2 applied
//! levelwise) and the reachable-state MDD is quotiented alongside, so the
//! result is again a symbolic [`MdMrp`] — with iteration vectors smaller by
//! the overall reduction factor.
//!
//! One refinement beyond the paper's presentation (which assumes the MD
//! acts on the full product space): because vectors here are indexed by a
//! reachability MDD, the initial partitions additionally require equivalent
//! local states to be **structurally interchangeable in the MDD** (identical
//! children in every MDD node of the level). See `DESIGN.md` §4.2.
//!
//! # Example
//!
//! ```
//! use mdl_core::{Combiner, DecomposableVector, LumpKind, LumpRequest, MdMrp};
//! use mdl_md::{KroneckerExpr, MdMatrix, SparseFactor};
//! use mdl_mdd::Mdd;
//!
//! // Two levels: a 2-state cycle × a 3-state component whose states 1 and
//! // 2 are symmetric (same exchange rates with state 0 and each other).
//! let mut w = SparseFactor::new(3);
//! w.push(0, 1, 1.0); w.push(0, 2, 1.0);
//! w.push(1, 0, 2.0); w.push(2, 0, 2.0);
//! w.push(1, 2, 0.5); w.push(2, 1, 0.5);
//! let mut cyc = SparseFactor::new(2);
//! cyc.push(0, 1, 3.0); cyc.push(1, 0, 3.0);
//! let mut expr = KroneckerExpr::new(vec![2, 3]);
//! expr.add_term(1.0, vec![Some(cyc), None]);
//! expr.add_term(1.0, vec![None, Some(w)]);
//!
//! let matrix = MdMatrix::new(expr.to_md()?, Mdd::full(vec![2, 3])?)?;
//! // A reward that observes the cycle position keeps level 1 unlumped.
//! let reward = DecomposableVector::new(
//!     vec![vec![0.0, 1.0], vec![1.0, 1.0, 1.0]],
//!     Combiner::Product,
//! )?;
//! let initial = DecomposableVector::uniform(&[2, 3], 6)?;
//! let mrp = MdMrp::new(matrix, reward, initial)?;
//!
//! let result = LumpRequest::new(LumpKind::Ordinary).run(&mrp)?;
//! // States 1 and 2 of level 2 merge: 2 × 3 = 6 states become 2 × 2 = 4.
//! assert_eq!(result.mrp.num_states(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
mod decomp;
mod error;
pub mod exact;
mod local;
mod lump;
mod mrp;
mod pipeline;
mod resilient;
mod solve;
mod splitter;
mod sweep;
pub mod verify;

pub use decomp::{Combiner, DecomposableVector};
pub use error::CoreError;
pub use local::{comp_lumping_level, comp_lumping_level_per_node, comp_lumping_level_pooled};
pub use lump::{
    LevelLumpStats, LumpKind, LumpOptions, LumpRequest, LumpResult, LumpStats, RateEnvelope,
};
pub use mrp::{KernelKind, KernelOptions, MdMrp};
pub use pipeline::{model_source_key, transient_resume, Pipeline, Staged};
pub use resilient::{KernelRung, MdResilientOptions};
pub use solve::{Measure, SolveOutcome, SolveRequest};
pub use sweep::{sweep_grid, SweepOutcome, SweepPoint, SweepPointResult, SweepRequest};

/// Convenience alias for fallible operations of this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
