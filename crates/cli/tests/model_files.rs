//! The sample model files shipped in `models/` must keep parsing and
//! producing the behaviour their comments document.

use std::path::PathBuf;

use mdl_cli::commands::{self, Measure};
use mdl_cli::executor::Query;
use mdl_cli::parse_model;
use mdl_core::{KernelOptions, LumpKind, LumpRequest, Pipeline};
use mdl_linalg::Tolerance;
use mdl_obs::Budget;

fn load(name: &str) -> mdl_cli::ParsedModel {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../models")
        .join(name);
    let input = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_model(&input).expect("shipped model parses")
}

#[test]
fn worker_pool_lumps_as_documented() {
    let parsed = load("worker_pool.mdl");
    let mrp = parsed.build().expect("builds");
    assert_eq!(mrp.num_states(), 16);
    let result = LumpRequest::new(LumpKind::Ordinary)
        .run(&mrp)
        .expect("lumps");
    // The 2^3 worker bitmask collapses to 4 busy-counts: 16 -> 8.
    assert_eq!(result.stats.lumped_states, 8);
    assert_eq!(result.partitions[1].num_classes(), 4);
}

#[test]
fn worker_pool_measures_cross_check() {
    let parsed = load("worker_pool.mdl");
    let query = Query {
        measure: Measure::Stationary,
        kind: LumpKind::Ordinary,
        tolerance: Tolerance::default(),
        bounds: false,
        fallback: false,
        kernel: KernelOptions::default(),
        budget: Budget::unlimited(),
        checkpoint_every: None,
        resume: false,
    };
    let out = commands::solve(&parsed, &Pipeline::new(0), &query, false, 1_000).expect("solves");
    assert!(out.contains("cross-check"), "{out}");
}

#[test]
fn ring_collapses_fully_under_exact_lumping() {
    // Exact lumpability conditions columns and the initial distribution —
    // not the reward — so the rotation-invariant ring collapses to a
    // single class with the uniform `initial` section, and the
    // {0,3}-indicator reward is recovered through r̂ = r(C)/|C|.
    let parsed = load("ring.mdl");
    let mrp = parsed.build().expect("builds");
    assert_eq!(mrp.num_states(), 18);
    let result = LumpRequest::new(LumpKind::Exact).run(&mrp).expect("lumps");
    assert_eq!(result.partitions[1].num_classes(), 1);
    assert_eq!(result.stats.lumped_states, 3);

    // Transient measures on the 3-state quotient match the 18-state chain.
    use mdl_ctmc::TransientOptions;
    let measures = result.exact_measures().expect("exact lump");
    for t in [0.25, 1.0, 4.0] {
        let full = mrp
            .expected_transient_reward(t, &TransientOptions::default())
            .expect("full transient");
        let lumped = measures
            .expected_transient_reward(t, &TransientOptions::default())
            .expect("lumped transient");
        assert!((full - lumped).abs() < 1e-9, "t={t}: {full} vs {lumped}");
    }
}

#[test]
fn ring_ordinary_lumping_respects_the_reward() {
    // Ordinary lumping DOES condition on the reward: the {0,3} indicator
    // breaks the rotation group down to the half-turn, leaving the
    // positions in indicator-compatible classes only.
    let parsed = load("ring.mdl");
    let mrp = parsed.build().expect("builds");
    let ordinary = LumpRequest::new(LumpKind::Ordinary)
        .run(&mrp)
        .expect("lumps");
    let p = &ordinary.partitions[1];
    assert!(p.num_classes() > 1, "reward must block the full collapse");
    for c in 0..p.num_classes() {
        let members = p.members(c);
        let indicator = |s: usize| usize::from(s == 0 || s == 3);
        assert!(
            members
                .iter()
                .all(|&s| indicator(s) == indicator(members[0])),
            "class {members:?} mixes reward values"
        );
    }
}
