//! End-to-end determinism and interruption contracts of the parallel
//! lumping engine (DESIGN.md §12).
//!
//! The engine owes two guarantees for any worker count:
//!
//! 1. **Bit-identity** — the per-level partitions, the lumped MD and the
//!    exact exit rates are *bitwise* equal to the serial run (block
//!    workers own contiguous output index ranges and walk contributions
//!    in serial iteration order, so no floating-point sum is reordered);
//! 2. **Interruptibility** — a `Budget` is honored at block granularity
//!    inside the formal-sum key phase, surfacing as
//!    `CoreError::Interrupted { phase: "lump.keys", .. }`.
//!
//! Both are checked on random planted-symmetry models large enough
//! (≥ 64 local states per level) to take the parallel path.

use std::time::Duration;

use proptest::prelude::*;

use mdlump::core::{verify, CoreError, DecomposableVector, LumpKind, LumpRequest, MdMrp};
use mdlump::linalg::Tolerance;
use mdlump::md::MdMatrix;
use mdlump::mdd::Mdd;
use mdlump::models::random::{planted_model, LevelSpec};
use mdlump::models::tandem::{TandemConfig, TandemModel, TandemReward};
use mdlump::obs::Budget;

/// Builds an `MdMrp` over the full product space of a planted model.
fn build_mrp(expr: &mdlump::md::KroneckerExpr) -> MdMrp {
    let sizes = expr.sizes().to_vec();
    let md = expr.to_md().expect("md builds");
    let reach = Mdd::full(sizes.clone()).expect("full mdd");
    let matrix = MdMatrix::new(md, reach).expect("level pairing");
    let reward = DecomposableVector::constant(&sizes, 1.0).expect("reward");
    let count: usize = sizes.iter().product();
    let initial = DecomposableVector::uniform(&sizes, count as u64).expect("initial");
    MdMrp::new(matrix, reward, initial).expect("mrp")
}

/// A two-level planted model whose first level is wide enough (80 local
/// states) to cross the engine's parallel threshold.
fn wide_planted(seed: u64, kind: LumpKind) -> MdMrp {
    let pm = planted_model(
        seed,
        &[LevelSpec::uniform(16, 5), LevelSpec::uniform(3, 2)],
        kind,
        2,
        1,
    );
    build_mrp(&pm.expr)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Partitions, the lumped MD and exit rates are bitwise identical
    /// across 1/2/4 workers on random planted-symmetry models.
    #[test]
    fn parallel_lump_bit_identical_across_thread_counts(seed in 0u64..512) {
        for kind in [LumpKind::Ordinary, LumpKind::Exact] {
            let mrp = wide_planted(seed, kind);
            let serial = LumpRequest::new(kind).run(&mrp).unwrap();
            for threads in [2usize, 4] {
                let par = LumpRequest::new(kind).threads(threads).run(&mrp).unwrap();
                prop_assert_eq!(&par.partitions, &serial.partitions,
                    "partitions differ: seed {}, {:?}, {} threads", seed, kind, threads);
                prop_assert_eq!(
                    par.mrp.matrix().flatten().max_abs_diff(&serial.mrp.matrix().flatten()),
                    0.0,
                    "lumped MD not bitwise equal: seed {}, {:?}, {} threads", seed, kind, threads
                );
                prop_assert_eq!(&par.exact_exit_rates, &serial.exact_exit_rates);
            }
        }
    }
}

/// The parallel result is not just self-consistent — it still satisfies
/// the lumpability conditions the serial verifier checks.
#[test]
fn parallel_lump_verifies_against_original_model() {
    let mrp = wide_planted(7, LumpKind::Ordinary);
    let result = LumpRequest::new(LumpKind::Ordinary)
        .threads(4)
        .run(&mrp)
        .unwrap();
    verify::verify_ordinary(&mrp, &result, Tolerance::default()).unwrap();
}

/// A deadline that expires *inside* the key phase (forced by a `sleep`
/// failpoint at the `lump.keys` site) interrupts the parallel run with
/// the documented phase label.
#[test]
fn deadline_interrupts_parallel_key_phase() {
    let _guard = mdlump::obs::testing::guard();
    mdlump::obs::failpoint::set("lump.keys", "sleep:100ms").unwrap();
    let mrp = wide_planted(11, LumpKind::Ordinary);
    let err = LumpRequest::new(LumpKind::Ordinary)
        .threads(2)
        .budget(Budget::unlimited().deadline_in(Duration::from_millis(50)))
        .run(&mrp)
        .unwrap_err();
    mdlump::obs::failpoint::clear();
    match err {
        CoreError::Interrupted { phase, .. } => assert_eq!(phase, "lump.keys"),
        other => panic!("expected keys-phase interruption, got {other:?}"),
    }
}

/// An injected fault at the `lump.keys` failpoint surfaces through the
/// same interruption channel (only consulted under a limited budget, so
/// the unconfigured path stays guaranteed error-free).
#[test]
fn injected_fault_surfaces_as_keys_interruption() {
    let _guard = mdlump::obs::testing::guard();
    mdlump::obs::failpoint::set("lump.keys", "err").unwrap();
    let mrp = wide_planted(13, LumpKind::Ordinary);
    let err = LumpRequest::new(LumpKind::Ordinary)
        .threads(2)
        .budget(Budget::unlimited().deadline_in(Duration::from_secs(3600)))
        .run(&mrp)
        .unwrap_err();
    mdlump::obs::failpoint::clear();
    match err {
        CoreError::Interrupted { phase, .. } => assert_eq!(phase, "lump.keys"),
        other => panic!("expected injected keys fault, got {other:?}"),
    }

    // With the failpoint cleared the same request succeeds.
    let result = LumpRequest::new(LumpKind::Ordinary)
        .threads(2)
        .budget(Budget::unlimited().deadline_in(Duration::from_secs(3600)))
        .run(&mrp)
        .unwrap();
    assert!(result.stats.lumped_states > 0);
}

/// The key phase reports its time through the `lump.keys.serial` and
/// `lump.keys.parallel` span histograms at every worker count, and the
/// parallel engine is the one that runs them once there are workers:
/// without these spans the phase's cost is invisible to `--metrics`.
#[test]
fn keys_phase_spans_are_recorded_at_every_thread_count() {
    let _guard = mdlump::obs::testing::guard();
    let mrp = TandemModel::new(TandemConfig {
        jobs: 1,
        ..TandemConfig::default()
    })
    .build_md_mrp_with_reward(TandemReward::Availability)
    .unwrap();
    let spans = |report: &mdlump::obs::Report, name: &str| {
        report
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.count)
    };
    let mut lumped = Vec::new();
    for threads in [1usize, 2, 4] {
        mdlump::obs::reset();
        mdlump::obs::set_enabled(true);
        let result = LumpRequest::new(LumpKind::Ordinary)
            .threads(threads)
            .run(&mrp)
            .unwrap();
        let report = mdlump::obs::snapshot();
        mdlump::obs::set_enabled(false);
        let serial = spans(&report, "lump.keys.serial");
        let parallel = spans(&report, "lump.keys.parallel");
        assert!(serial + parallel > 0, "{threads} threads: no keys spans");
        if threads > 1 {
            assert!(parallel > 0, "{threads} threads: no parallel keys spans");
        }
        lumped.push(result.stats.lumped_states);
    }
    assert_eq!(lumped, [505, 505, 505]);
}
