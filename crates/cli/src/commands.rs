//! Implementations of the `info`, `lump`, `solve`, `sweep` and
//! `simulate` subcommands; `main` only parses arguments and prints.
//! `solve` runs the shared request executor ([`crate::executor`]) and
//! formats its [`Answer`](crate::executor::Answer).

use std::fmt::Write as _;
use std::time::Duration;

use mdl_core::{
    KernelKind, KernelOptions, LumpKind, LumpRequest, LumpResult, MdMrp, Pipeline, SolveOutcome,
    SolveRequest, Staged,
};
use mdl_ctmc::SolverOptions;
use mdl_linalg::Tolerance;
use mdl_obs::Budget;

use crate::error::CliError;
use crate::executor::{answer, expected_reward, request_for, scalar, solver_options, Query};
use crate::flags::ResilienceFlags;
use crate::parser::ParsedModel;

pub use crate::executor::{certified_bounds, CertifiedBounds};
pub use mdl_core::Measure;

/// The wall-clock budget for a command: a deadline when one was given on
/// the command line, unlimited otherwise.
fn budget_for(deadline: Option<Duration>) -> Budget {
    match deadline {
        Some(d) => Budget::unlimited().deadline_in(d),
        None => Budget::unlimited(),
    }
}

/// Runs the pipeline's build stage for the parsed model, carrying
/// model-layer failures through as [`mdl_core::CoreError::Build`]
/// (whose `Display` is the original message, so CLI output is
/// unchanged).
fn build_stage(pipeline: &Pipeline, parsed: &ParsedModel) -> Result<Staged<MdMrp>, CliError> {
    Ok(pipeline.build(|| Ok(parsed.build()?))?)
}

/// `info`: structural description of the model and its symbolic
/// representation.
///
/// # Errors
///
/// Propagates build errors as [`CliError`]s.
pub fn info(parsed: &ParsedModel) -> Result<String, CliError> {
    let mut out = String::new();
    let sizes = parsed.model.sizes();
    writeln!(out, "components ({} levels):", sizes.len())?;
    for (name, size) in parsed.component_names.iter().zip(&sizes) {
        writeln!(out, "  {name:<20} {size} local states")?;
    }
    writeln!(out, "events: {}", parsed.model.events().len())?;
    for e in parsed.model.events() {
        let touched: Vec<&str> = e
            .factors
            .iter()
            .zip(&parsed.component_names)
            .filter_map(|(f, n)| f.as_ref().map(|_| n.as_str()))
            .collect();
        writeln!(
            out,
            "  {:<20} rate {:<8} touches {}",
            e.name,
            e.rate,
            touched.join(", ")
        )?;
    }
    let mrp = parsed.build().map_err(|e| e.to_string())?;
    let product: u64 = sizes.iter().map(|&s| s as u64).product();
    writeln!(out, "state space:")?;
    writeln!(out, "  potential (product): {product}")?;
    writeln!(out, "  reachable:           {}", mrp.num_states())?;
    writeln!(
        out,
        "  MD nodes per level:  {:?}",
        mrp.matrix().md().nodes_per_level()
    )?;
    writeln!(
        out,
        "  symbolic memory:     {} bytes",
        mrp.matrix().memory_bytes()
    )?;
    Ok(out)
}

fn run_lump(
    mrp: &MdMrp,
    kind: LumpKind,
    iterate: bool,
    budget: &Budget,
    threads: usize,
) -> Result<LumpResult, CliError> {
    LumpRequest::new(kind)
        .threads(threads)
        .budget(budget.clone())
        .iterate(iterate)
        .run(mrp)
        .map_err(CliError::from)
}

/// `lump`: run compositional lumping and report the reduction. Both
/// stages (build, lump) go through `pipeline`, so with a cache directory
/// a repeated lump is two artifact loads.
///
/// # Errors
///
/// Propagates build and lumping errors as [`CliError`]s; a `deadline`
/// that expires mid-lump surfaces as [`CliError::Interrupted`].
pub fn lump(
    parsed: &ParsedModel,
    kind: LumpKind,
    tolerance: Tolerance,
    iterate: bool,
    deadline: Option<Duration>,
    threads: usize,
    pipeline: &Pipeline,
) -> Result<String, CliError> {
    let built = build_stage(pipeline, parsed)?;
    let request = LumpRequest::new(kind)
        .tolerance(tolerance)
        .threads(threads)
        .budget(budget_for(deadline))
        .iterate(iterate);
    let result = &pipeline
        .lump(&built, &request)
        .map_err(CliError::from)?
        .value;
    let rounds = result.stats.rounds;
    let mut out = String::new();
    writeln!(
        out,
        "{:?} lumping: {} -> {} states (x{:.2}) in {:?} ({} round{})",
        kind,
        result.stats.original_states,
        result.stats.lumped_states,
        result.stats.reduction_factor(),
        result.stats.elapsed,
        rounds,
        if rounds == 1 { "" } else { "s" },
    )?;
    for (l, stats) in result.stats.per_level.iter().enumerate() {
        writeln!(
            out,
            "  level {} ({}): {} -> {} local states",
            l + 1,
            parsed.component_names[l],
            stats.original_size,
            stats.lumped_size
        )?;
    }
    writeln!(
        out,
        "  symbolic memory: {} -> {} bytes",
        result.stats.memory_before, result.stats.memory_after
    )?;
    Ok(out)
}

/// Cross-checks the lumped measure against the unlumped chain, cached as
/// a measure stage under the build key so a warm run skips the (much
/// larger) unlumped solve too.
fn cross_check(pipeline: &Pipeline, built: &Staged<MdMrp>, query: &Query) -> Result<f64, CliError> {
    let label = format!("cross-check:{:?}", query.measure);
    let staged = pipeline.measure(built.key, &label, || {
        let (outcome, _) =
            request_for(query.measure, &query.kernel, &query.budget).run(&built.value);
        let value = match outcome? {
            SolveOutcome::Distribution(sol) => {
                sol.try_expected_reward(&built.value.reward_vector())?
            }
            SolveOutcome::Value(v) => v,
        };
        Ok(vec![value])
    })?;
    scalar(&staged.value)
}

/// `solve`: build the model, answer `query` through the shared
/// executor — lump, then a scalar solve of the lumped chain or a
/// certified enclosure `[lo, hi]` of its measure under tolerance
/// lumping (see [`certified_bounds`]) — and report the measure, with a
/// cross-check against the unlumped chain when it has at most
/// `cross_check_limit` states. With a cache directory every stage
/// persists its artifacts and a repeated solve is pure cache hits.
///
/// `report` appends the attempt log: the fallback ladder's, or the
/// bounds sweeps'.
///
/// # Errors
///
/// Bounds with exact lumping are rejected before anything runs;
/// build, lumping and solver failures propagate as [`CliError`]s; an
/// expired `--deadline` surfaces as [`CliError::Interrupted`].
pub fn solve(
    parsed: &ParsedModel,
    pipeline: &Pipeline,
    query: &Query,
    report: bool,
    cross_check_limit: usize,
) -> Result<String, CliError> {
    if query.bounds && query.kind == LumpKind::Exact {
        return Err(CliError::Failed(
            "--bounds encloses measures of the ordinary-lumped chain; --exact is not supported"
                .into(),
        ));
    }
    let built = build_stage(pipeline, parsed)?;
    let a = answer(pipeline, &built, query, Pipeline::compile)?;
    let measure = query.measure;
    let mut out = String::new();
    writeln!(
        out,
        "lumped {} -> {} states; {}",
        a.lump.original_states,
        a.lump.lumped_states,
        if query.bounds {
            "computing certified bounds on the lumped chain"
        } else {
            "solving the lumped chain"
        }
    )?;
    if let Some(iterations) = a.resumed_from {
        writeln!(out, "resuming from checkpoint ({iterations} iterations in)")?;
    }
    let deviation = a.lump.max_rate_deviation;
    match a.bounds {
        None => {
            writeln!(out, "measure ({measure:?}): {:.10}", a.measure)?;
            if report {
                writeln!(
                    out,
                    "max rate deviation absorbed by lumping: {deviation:.3e}"
                )?;
                if query.fallback && query.kind == LumpKind::Ordinary {
                    out.push_str(&a.report.render());
                } else {
                    writeln!(
                        out,
                        "no fallback ladder for this configuration; solved directly"
                    )?;
                }
            }
        }
        Some(bounds) => {
            writeln!(
                out,
                "max rate deviation absorbed by lumping: {deviation:.3e}"
            )?;
            if a.degenerate {
                writeln!(
                    out,
                    "every transition lumped exactly; bounds degenerate to the scalar solve"
                )?;
            }
            if !a.converged {
                writeln!(
                    out,
                    "sweeps stopped before the tolerance (bounds are certified but loose)"
                )?;
            }
            writeln!(
                out,
                "measure ({measure:?}): [{:.10}, {:.10}]  width {:.3e}",
                bounds.lo,
                bounds.hi,
                bounds.hi - bounds.lo
            )?;
            if report {
                out.push_str(&a.report.render());
            }
        }
    }

    if built.value.num_states() <= cross_check_limit {
        let full_value = cross_check(pipeline, &built, query)?;
        match a.bounds {
            Some(bounds) if !a.degenerate => {
                let enclosed = bounds.lo <= full_value && full_value <= bounds.hi;
                writeln!(
                    out,
                    "cross-check (unlumped chain): {full_value:.10}  enclosed: {}",
                    if enclosed { "yes" } else { "NO" }
                )?;
            }
            // A scalar, or a zero-width interval whose midpoint is the
            // scalar solve: the unlumped solve differs from it by its
            // own iteration tolerance, so report the discrepancy rather
            // than a strict-enclosure verdict.
            _ => writeln!(
                out,
                "cross-check (unlumped chain): {full_value:.10}  |Δ| = {:.3e}",
                (full_value - a.measure).abs()
            )?,
        }
    }
    Ok(out)
}

/// One JSONL row of the `--sweep-out` stream: the point's parameters,
/// its measure, and its reuse/warm-start provenance.
fn sweep_jsonl_row(r: &mdl_core::SweepPointResult, measure: f64) -> String {
    let mut params = String::from("{");
    for (i, (name, value)) in r.params.iter().enumerate() {
        if i > 0 {
            params.push(',');
        }
        params.push('"');
        mdl_obs::json::escape_into(&mut params, name);
        params.push_str("\":");
        mdl_obs::json::write_f64(&mut params, *value);
    }
    params.push('}');
    let mut row = mdl_obs::json::JsonObject::new();
    row.u64("point", r.index as u64)
        .raw("params", &params)
        .f64("measure", measure)
        .u64("lumped_states", r.lump.stats.lumped_states)
        .f64("max_rate_deviation", r.lump.stats.max_rate_deviation)
        .u64("levels_reused", r.levels_reused as u64)
        .u64("levels_relumped", r.levels_relumped as u64)
        .bool("warm_started", r.warm_started)
        .u64(
            "iterations",
            r.outcome
                .solution()
                .map(|s| s.stats.iterations as u64)
                .unwrap_or(0),
        )
        .bool("lump_cached", r.lump_cached)
        .bool("solve_cached", r.solve_cached)
        .f64("elapsed_ms", r.elapsed.as_secs_f64() * 1e3);
    row.close()
}

/// `sweep`: solve the stationary measure across a parameter grid,
/// compiling the model structure once. Reachability is computed a single
/// time (rates are positive, so the reach set is rate-invariant), levels
/// whose local matrices a point left unchanged reuse their partition
/// from earlier points, and each solve warm-starts from the nearest
/// already-solved neighbor. With a cache directory every per-point
/// artifact persists, so a repeated sweep is pure cache hits.
///
/// `axes` come from `--set name=lo:hi:count` flags (Cartesian product);
/// axis names must name events of the model. `sweep_out` streams one
/// JSON object per point to the given file.
///
/// # Errors
///
/// Propagates build, lumping and solver errors as [`CliError`]s; an
/// unknown event name and an unwritable `--sweep-out` file are explicit
/// failures; an expired `--deadline` surfaces as
/// [`CliError::Interrupted`].
pub fn sweep(
    parsed: &ParsedModel,
    axes: &[(String, Vec<f64>)],
    kernel: &KernelOptions,
    resilience: &ResilienceFlags,
    pipeline: &Pipeline,
    sweep_out: Option<&str>,
) -> Result<String, CliError> {
    if axes.is_empty() {
        return Err(CliError::Failed(
            "sweep needs at least one --set axis (e.g. --set mu=0.5:2.0:16)".into(),
        ));
    }
    for (name, _) in axes {
        if !parsed.model.events().iter().any(|e| &e.name == name) {
            let known: Vec<&str> = parsed
                .model
                .events()
                .iter()
                .map(|e| e.name.as_str())
                .collect();
            return Err(CliError::Failed(format!(
                "--set {name}: no event named {name:?} (events: {})",
                known.join(", ")
            )));
        }
    }

    let budget = resilience.budget();
    // Reachability once: every grid point shares it.
    let reach = parsed
        .model
        .reachable()
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let points = mdl_core::sweep_grid(axes);
    let request = mdl_core::SweepRequest::new(
        LumpRequest::new(LumpKind::Ordinary)
            .threads(kernel.threads)
            .budget(budget.clone()),
        SolveRequest::stationary()
            .solver_options(solver_options(&budget))
            .kernel(kernel.kind)
            .threads(kernel.threads)
            .fallback(resilience.fallback),
    )
    .compile_kernel(kernel.kind == KernelKind::Compiled || resilience.fallback)
    .threads(kernel.threads)
    .budget(budget);

    let outcome = pipeline
        .sweep(&points, &request, |point| {
            let mut model = parsed.model.clone();
            for (name, value) in &point.params {
                model.set_event_rate(name, *value)?;
            }
            Ok(model.build_md_mrp_with_reach(parsed.reward.clone(), reach.clone())?)
        })
        .map_err(CliError::from)?;

    let mut out = String::new();
    let axis_names: Vec<&str> = axes.iter().map(|(n, _)| n.as_str()).collect();
    writeln!(
        out,
        "sweep: {} points over {} (reachability computed once)",
        points.len(),
        axis_names.join(" x ")
    )?;
    let mut rows = String::new();
    let mut warm_points = 0usize;
    for r in &outcome.points {
        let measure = expected_reward(&r.lump.mrp, r.outcome.clone())?;
        let params: Vec<String> = r
            .params
            .iter()
            .map(|(n, v)| format!("{n}={v:.6}"))
            .collect();
        writeln!(
            out,
            "  point {:<4} {}  measure {:.10}  lumped {:>6} states  reuse {}/{}{}{}",
            r.index,
            params.join(" "),
            measure,
            r.lump.stats.lumped_states,
            r.levels_reused,
            r.levels_reused + r.levels_relumped,
            if r.warm_started { "  warm" } else { "" },
            if r.lump_cached && r.solve_cached {
                "  cached"
            } else {
                ""
            },
        )?;
        if r.warm_started {
            warm_points += 1;
        }
        if sweep_out.is_some() {
            rows.push_str(&sweep_jsonl_row(r, measure));
            rows.push('\n');
        }
    }
    writeln!(
        out,
        "total: {} points in {:?}; levels reused {}, re-lumped {}; {} warm-started",
        outcome.points.len(),
        outcome.elapsed,
        outcome.levels_reused,
        outcome.levels_relumped,
        warm_points,
    )?;
    if let Some(path) = sweep_out {
        std::fs::write(path, rows)
            .map_err(|e| CliError::Failed(format!("--sweep-out: cannot write {path}: {e}")))?;
        writeln!(out, "per-point JSONL written to {path}")?;
    }
    Ok(out)
}

/// `simulate`: Monte Carlo estimate of the stationary (or accumulated)
/// reward, cross-checked against the lumped numerical solution — the
/// simulator shares only the model semantics with the symbolic stack, so
/// agreement validates the whole pipeline.
///
/// # Errors
///
/// Propagates build, lumping and solver errors as [`CliError`]s; a
/// `deadline` bounds the numerical cross-check (the simulation itself
/// runs a fixed number of replications).
pub fn simulate(
    parsed: &ParsedModel,
    horizon: f64,
    replications: usize,
    seed: u64,
    deadline: Option<Duration>,
) -> Result<String, CliError> {
    use mdl_models::sim::SimOptions;
    let options = SimOptions { seed, replications };
    let budget = budget_for(deadline);
    let mut out = String::new();

    let est = parsed
        .model
        .simulate_stationary_reward(&parsed.reward, horizon, &options);
    writeln!(
        out,
        "simulated long-run reward: {:.6} ± {:.6} ({} batches of length {horizon})",
        est.mean, est.std_error, est.replications
    )?;

    let mrp = parsed.build().map_err(|e| e.to_string())?;
    let result = run_lump(&mrp, LumpKind::Ordinary, false, &budget, 0)?;
    let numerical = result.mrp.expected_stationary_reward(&SolverOptions {
        budget,
        ..SolverOptions::default()
    })?;
    writeln!(
        out,
        "numerical (lumped {} -> {} states): {numerical:.10}",
        result.stats.original_states, result.stats.lumped_states
    )?;
    writeln!(
        out,
        "|simulated − numerical| = {:.3e} ({:.1} standard errors)",
        (est.mean - numerical).abs(),
        (est.mean - numerical).abs() / est.std_error.max(1e-300)
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_model;
    use mdl_core::model_source_key;

    /// The ephemeral pipeline tests solve `MODEL` through.
    fn pipeline() -> Pipeline {
        Pipeline::new(model_source_key(MODEL))
    }

    /// A scalar query for `measure` with every other option at its
    /// default.
    fn query(measure: Measure) -> Query {
        Query {
            measure,
            kind: LumpKind::Ordinary,
            tolerance: Tolerance::default(),
            bounds: false,
            fallback: false,
            kernel: KernelOptions::default(),
            budget: Budget::unlimited(),
            checkpoint_every: None,
            resume: false,
        }
    }

    /// A per-test cache directory under the system temp dir, cleaned
    /// before use so every run starts cold.
    fn cache_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mdl-cli-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const MODEL: &str = "
component ctrl 2 initial 0
component workers 8

event toggle rate 0.2
  factor ctrl 0 1 1.0
  factor ctrl 1 0 1.0

event start rate 2.0
  factor ctrl 0 0 1.0
  factor workers 0 1 1.0
  factor workers 0 2 1.0
  factor workers 0 4 1.0
  factor workers 1 3 1.0
  factor workers 1 5 1.0
  factor workers 2 3 1.0
  factor workers 2 6 1.0
  factor workers 4 5 1.0
  factor workers 4 6 1.0
  factor workers 3 7 1.0
  factor workers 5 7 1.0
  factor workers 6 7 1.0

event finish rate 1.0
  factor workers 1 0 1.0
  factor workers 2 0 1.0
  factor workers 4 0 1.0
  factor workers 3 1 1.0
  factor workers 3 2 1.0
  factor workers 5 1 1.0
  factor workers 5 4 1.0
  factor workers 6 2 1.0
  factor workers 6 4 1.0
  factor workers 7 3 1.0
  factor workers 7 5 1.0
  factor workers 7 6 1.0

reward sum
  value workers 1 1.0
  value workers 2 1.0
  value workers 4 1.0
  value workers 3 2.0
  value workers 5 2.0
  value workers 6 2.0
  value workers 7 3.0
";

    /// `MODEL` with one `finish` factor nudged by one part in a
    /// thousand: no longer exactly lumpable, but tolerance-lumpable at
    /// two decimal digits — the configuration `--bounds` exists for.
    const NEAR_MODEL: &str = "
component ctrl 2 initial 0
component workers 8

event toggle rate 0.2
  factor ctrl 0 1 1.0
  factor ctrl 1 0 1.0

event start rate 2.0
  factor ctrl 0 0 1.0
  factor workers 0 1 1.0
  factor workers 0 2 1.0
  factor workers 0 4 1.0
  factor workers 1 3 1.0
  factor workers 1 5 1.0
  factor workers 2 3 1.0
  factor workers 2 6 1.0
  factor workers 4 5 1.0
  factor workers 4 6 1.0
  factor workers 3 7 1.0
  factor workers 5 7 1.0
  factor workers 6 7 1.0

event finish rate 1.0
  factor workers 1 0 1.001
  factor workers 2 0 1.0
  factor workers 4 0 1.0
  factor workers 3 1 1.0
  factor workers 3 2 1.0
  factor workers 5 1 1.0
  factor workers 5 4 1.0
  factor workers 6 2 1.0
  factor workers 6 4 1.0
  factor workers 7 3 1.0
  factor workers 7 5 1.0
  factor workers 7 6 1.0

reward sum
  value workers 1 1.0
  value workers 2 1.0
  value workers 4 1.0
  value workers 3 2.0
  value workers 5 2.0
  value workers 6 2.0
  value workers 7 3.0
";

    /// The `MODEL` structure with every event rate substituted: the
    /// worker bits keep identical rates by construction, so every draw
    /// is exactly lumpable.
    fn symmetric_model(toggle: f64, start: f64, finish: f64) -> String {
        MODEL
            .replace("rate 0.2", &format!("rate {toggle}"))
            .replace("rate 2.0", &format!("rate {start}"))
            .replace("rate 1.0", &format!("rate {finish}"))
    }

    #[test]
    fn info_reports_structure() {
        let parsed = parse_model(MODEL).unwrap();
        let out = info(&parsed).unwrap();
        assert!(out.contains("ctrl"));
        assert!(out.contains("reachable"));
    }

    #[test]
    fn lump_finds_worker_bit_symmetry() {
        let parsed = parse_model(MODEL).unwrap();
        let out = lump(
            &parsed,
            LumpKind::Ordinary,
            Tolerance::default(),
            false,
            None,
            0,
            &pipeline(),
        )
        .unwrap();
        // The 8 worker bitmask states lump to 4 counts: 2×8 -> 2×4.
        assert!(out.contains("16 -> 8 states"), "{out}");
    }

    #[test]
    fn solve_reports_measure_and_cross_check() {
        let parsed = parse_model(MODEL).unwrap();
        let out = solve(
            &parsed,
            &pipeline(),
            &query(Measure::Stationary),
            false,
            1_000,
        )
        .unwrap();
        assert!(out.contains("cross-check"), "{out}");
        assert!(out.contains("measure"), "{out}");
        // |Δ| printed in scientific notation and tiny.
        assert!(out.contains("e-"), "{out}");
    }

    #[test]
    fn solve_output_identical_across_kernels() {
        let parsed = parse_model(MODEL).unwrap();
        let with_kernel = |kind, threads| {
            let query = Query {
                kernel: KernelOptions { kind, threads },
                ..query(Measure::Stationary)
            };
            solve(&parsed, &pipeline(), &query, false, 1_000).unwrap()
        };
        let walk = with_kernel(KernelKind::Walk, 1);
        for threads in [1usize, 4] {
            let compiled = with_kernel(KernelKind::Compiled, threads);
            assert_eq!(walk, compiled, "kernel products are bit-identical");
        }
    }

    #[test]
    fn solve_with_fallback_matches_direct_and_reports_attempts() {
        let parsed = parse_model(MODEL).unwrap();
        let direct = solve(
            &parsed,
            &pipeline(),
            &query(Measure::Stationary),
            false,
            1_000,
        )
        .unwrap();
        let fallback = |measure| Query {
            fallback: true,
            ..query(measure)
        };
        let resilient = solve(
            &parsed,
            &pipeline(),
            &fallback(Measure::Stationary),
            true,
            1_000,
        )
        .unwrap();
        assert!(resilient.contains("solve attempts:"), "{resilient}");
        assert!(resilient.contains("jacobi"), "{resilient}");
        // Same measure line in both outputs.
        let measure_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("measure"))
                .map(String::from)
        };
        assert_eq!(measure_line(&direct), measure_line(&resilient));

        // The accumulated measure rides the kernel-rung ladder too and
        // reports its (synthesized) attempt log.
        let accumulated = solve(
            &parsed,
            &pipeline(),
            &fallback(Measure::Accumulated(1.0)),
            true,
            0,
        )
        .unwrap();
        assert!(accumulated.contains("solve attempts:"), "{accumulated}");
        assert!(accumulated.contains("uniformization"), "{accumulated}");
    }

    #[test]
    fn expired_deadline_interrupts_with_distinct_error() {
        let parsed = parse_model(MODEL).unwrap();
        let expired = Query {
            budget: Budget::unlimited().deadline_in(Duration::ZERO),
            ..query(Measure::Stationary)
        };
        let err = solve(&parsed, &pipeline(), &expired, false, 1_000).unwrap_err();
        assert!(matches!(err, CliError::Interrupted(_)), "{err:?}");
        assert_eq!(err.exit_code(), crate::error::EXIT_INTERRUPTED);
        assert!(err.to_string().contains("interrupted"), "{err}");

        let err = lump(
            &parsed,
            LumpKind::Ordinary,
            Tolerance::default(),
            true,
            Some(Duration::ZERO),
            1,
            &pipeline(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Interrupted(_)), "{err:?}");
    }

    #[test]
    fn warm_cache_solve_output_is_identical_and_all_stages_hit() {
        let _g = mdl_obs::testing::guard();
        let dir = cache_dir("warm-solve");
        let store = mdl_store::Store::open(&dir).unwrap();
        let parsed = parse_model(MODEL).unwrap();
        let run = || {
            let pipeline = Pipeline::with_store(model_source_key(MODEL), store.clone());
            solve(
                &parsed,
                &pipeline,
                &query(Measure::Stationary),
                false,
                1_000,
            )
            .unwrap()
        };
        let cold = run();

        mdl_obs::reset();
        mdl_obs::set_enabled(true);
        let warm = run();
        assert_eq!(cold, warm, "warm output must be byte-identical");
        let report = mdl_obs::snapshot();
        let count = |name: &str| {
            report
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        // Build, lump, compile, solve and the two measures (lumped value
        // is the solve stage; cross-check is a measure stage) all hit.
        assert!(count("store.hit") >= 5, "{report:?}");
        assert_eq!(count("store.miss"), 0, "{report:?}");
        assert_eq!(count("store.write_bytes"), 0, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_solve_writes_and_clears_its_snapshot() {
        let _g = mdl_obs::testing::guard();
        mdl_obs::set_enabled(true);
        let dir = cache_dir("checkpoint");
        let store = mdl_store::Store::open(&dir).unwrap();
        let parsed = parse_model(MODEL).unwrap();
        let pipeline = Pipeline::with_store(model_source_key(MODEL), store.clone());
        let checkpointed = Query {
            checkpoint_every: Some(1),
            resume: true,
            ..query(Measure::Stationary)
        };
        let out = solve(&parsed, &pipeline, &checkpointed, false, 0).unwrap();
        assert!(out.contains("measure"), "{out}");
        // Snapshots were written during the run…
        let report = mdl_obs::snapshot();
        let written = report
            .counters
            .iter()
            .find(|c| c.name == "checkpoint.written")
            .map(|c| c.value)
            .unwrap_or(0);
        assert!(written >= 1, "{report:?}");
        // …and cleared on success, so nothing is left to resume.
        let base = SolveRequest::stationary().solver_options(solver_options(&Budget::unlimited()));
        // Rebuild the solve key the same way solve() does.
        let built = build_stage(&pipeline, &parsed).unwrap();
        let lumped = pipeline
            .lump(&built, &LumpRequest::new(LumpKind::Ordinary))
            .unwrap();
        let solve_key = pipeline.solve_key(lumped.key, &base);
        assert!(pipeline.load_checkpoint(solve_key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_measures_match_independent_solves() {
        let parsed = parse_model(MODEL).unwrap();
        let axes = vec![("finish".to_string(), vec![0.5, 1.0, 2.0])];
        let out = sweep(
            &parsed,
            &axes,
            &KernelOptions::default(),
            &ResilienceFlags::default(),
            &pipeline(),
            None,
        )
        .unwrap();
        assert!(out.contains("3 points"), "{out}");
        // The ctrl level never changes; finish touches only workers. So
        // points 1 and 2 reuse the ctrl partition.
        assert!(out.contains("reuse 1/2"), "{out}");
        assert!(out.contains("warm"), "{out}");
        // The finish=1.0 point is the base model: its measure must equal
        // the plain solve's measure line.
        let direct = solve(&parsed, &pipeline(), &query(Measure::Stationary), false, 0).unwrap();
        let direct_measure = direct
            .lines()
            .find(|l| l.starts_with("measure"))
            .and_then(|l| l.split(": ").nth(1))
            .unwrap()
            .trim()
            .to_string();
        let base_point = out
            .lines()
            .find(|l| l.contains("finish=1.000000"))
            .unwrap_or_else(|| panic!("no base point line in {out}"));
        // Warm starts shift low-order bits, so compare to solver
        // tolerance rather than textually.
        let sweep_measure: f64 = base_point
            .split("measure ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let direct_measure: f64 = direct_measure.parse().unwrap();
        assert!(
            (sweep_measure - direct_measure).abs() < 1e-9,
            "{sweep_measure} vs {direct_measure}"
        );
    }

    #[test]
    fn sweep_writes_jsonl_and_rejects_unknown_events() {
        let parsed = parse_model(MODEL).unwrap();
        let err = sweep(
            &parsed,
            &[("nope".to_string(), vec![1.0])],
            &KernelOptions::default(),
            &ResilienceFlags::default(),
            &pipeline(),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no event named"), "{err}");
        assert!(err.to_string().contains("toggle"), "{err}");
        let err = sweep(
            &parsed,
            &[],
            &KernelOptions::default(),
            &ResilienceFlags::default(),
            &pipeline(),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--set"), "{err}");

        let path = std::env::temp_dir().join(format!("mdl-sweep-out-{}.jsonl", std::process::id()));
        let out = sweep(
            &parsed,
            &[("toggle".to_string(), vec![0.1, 0.2])],
            &KernelOptions::default(),
            &ResilienceFlags::default(),
            &pipeline(),
            Some(path.to_str().unwrap()),
        )
        .unwrap();
        assert!(out.contains("JSONL written"), "{out}");
        let rows = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = rows.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let row = mdl_obs::json::parse(line).unwrap();
            assert_eq!(row.get("point").unwrap().as_u64(), Some(i as u64));
            assert!(row.get("measure").unwrap().as_f64().is_some());
            assert!(row.get("params").unwrap().get("toggle").is_some());
            assert!(row.get("levels_reused").unwrap().as_u64().is_some());
        }
    }

    #[test]
    fn simulate_agrees_with_numerical() {
        let parsed = parse_model(MODEL).unwrap();
        let out = simulate(&parsed, 50.0, 30, 99, None).unwrap();
        assert!(out.contains("simulated long-run reward"), "{out}");
        assert!(out.contains("numerical"), "{out}");
        // The report itself contains the discrepancy in standard errors;
        // parse it back out and require statistical agreement.
        let se_line = out.lines().find(|l| l.contains("standard errors")).unwrap();
        let inside = se_line.split('(').nth(1).unwrap();
        let ses: f64 = inside.split_whitespace().next().unwrap().parse().unwrap();
        assert!(
            ses < 6.0,
            "simulation {ses} standard errors away:
{out}"
        );
    }

    #[test]
    fn bounds_reject_exact_and_accumulated() {
        let parsed = parse_model(MODEL).unwrap();
        let bounds = |kind, measure| Query {
            kind,
            bounds: true,
            ..query(measure)
        };
        let exact = bounds(LumpKind::Exact, Measure::Stationary);
        let err = solve(&parsed, &pipeline(), &exact, false, 0).unwrap_err();
        assert!(err.to_string().contains("--exact"), "{err}");
        let accumulated = bounds(LumpKind::Ordinary, Measure::Accumulated(1.0));
        let err = solve(&parsed, &pipeline(), &accumulated, false, 0).unwrap_err();
        assert!(err.to_string().contains("certified sweep"), "{err}");
    }

    #[test]
    fn bounds_enclose_unlumped_measures_on_a_tolerance_lump() {
        let parsed = parse_model(NEAR_MODEL).unwrap();
        let mrp = parsed.build().unwrap();
        let kernel = KernelOptions::default();
        let budget = Budget::unlimited();
        for measure in [Measure::Stationary, Measure::Transient(0.8)] {
            let cb =
                certified_bounds(&mrp, measure, Tolerance::Decimals(2), &kernel, &budget).unwrap();
            assert!(!cb.degenerate, "perturbed rates must leave an envelope");
            assert!(
                cb.lump.stats.lumped_states < cb.lump.stats.original_states,
                "the near-symmetric model must still lump at 2 decimals"
            );
            assert!(cb.lump.stats.max_rate_deviation > 0.0);
            assert!(
                cb.bounds.hi > cb.bounds.lo,
                "an inexact lump must widen the enclosure"
            );
            // The certified interval encloses the *unlumped* chain's
            // measure — the acceptance property of the whole feature.
            let (outcome, _) = request_for(measure, &kernel, &budget).run(&mrp);
            let full = expected_reward(&mrp, outcome.unwrap()).unwrap();
            assert!(
                cb.bounds.lo <= full && full <= cb.bounds.hi,
                "{measure:?}: unlumped {full} outside [{}, {}]",
                cb.bounds.lo,
                cb.bounds.hi
            );
        }
    }

    #[test]
    fn solve_bounds_reports_enclosure_of_the_unlumped_chain() {
        let parsed = parse_model(NEAR_MODEL).unwrap();
        let near = Query {
            tolerance: Tolerance::Decimals(2),
            bounds: true,
            ..query(Measure::Stationary)
        };
        let pipeline = Pipeline::new(model_source_key(NEAR_MODEL));
        let out = solve(&parsed, &pipeline, &near, true, 1_000).unwrap();
        assert!(out.contains("16 -> 8 states"), "{out}");
        assert!(out.contains("max rate deviation"), "{out}");
        assert!(out.contains("enclosed: yes"), "{out}");
        assert!(out.contains("width"), "{out}");
        assert!(
            out.contains("bounds-lower") && out.contains("bounds-upper"),
            "{out}"
        );
        assert!(!out.contains("degenerate"), "{out}");
    }

    #[test]
    fn solve_bounds_degenerates_on_the_exactly_lumpable_model() {
        let parsed = parse_model(MODEL).unwrap();
        let bounds = Query {
            bounds: true,
            ..query(Measure::Stationary)
        };
        let out = solve(&parsed, &pipeline(), &bounds, false, 1_000).unwrap();
        assert!(out.contains("degenerate"), "{out}");
        assert!(out.contains("width 0.0"), "{out}");
        // The degenerate cross-check reports the scalar discrepancy
        // (solver-tolerance sized), not a strict-enclosure verdict.
        assert!(out.contains("|Δ|"), "{out}");
        assert!(!out.contains("enclosed"), "{out}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 6, ..Default::default() })]
        /// The 0-ulp acceptance property: on an exactly lumpable model,
        /// `--bounds` returns a zero-width interval whose midpoint is
        /// bit-identical to the scalar solve, at every thread count.
        #[test]
        fn exact_lump_bounds_are_zero_width_and_bit_identical(
            toggle in 0.05f64..4.0,
            start in 0.05f64..4.0,
            finish in 0.05f64..4.0,
        ) {
            let text = symmetric_model(toggle, start, finish);
            let parsed = parse_model(&text).unwrap();
            let mrp = parsed.build().unwrap();
            let budget = Budget::unlimited();
            // The scalar reference: the plain solve path on the quotient.
            let lump = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
            let reference = KernelOptions { kind: KernelKind::Compiled, threads: 1 };
            let (outcome, _) = request_for(Measure::Stationary, &reference, &budget).run(&lump.mrp);
            let scalar = expected_reward(&lump.mrp, outcome.unwrap()).unwrap();
            for threads in [1usize, 2, 4] {
                let kernel = KernelOptions { kind: KernelKind::Compiled, threads };
                let cb = certified_bounds(
                    &mrp, Measure::Stationary, Tolerance::default(), &kernel, &budget,
                ).unwrap();
                proptest::prop_assert!(cb.degenerate, "symmetric draw must lump exactly");
                proptest::prop_assert_eq!(cb.bounds.lo.to_bits(), cb.bounds.hi.to_bits());
                proptest::prop_assert_eq!(
                    cb.bounds.lo.to_bits(),
                    scalar.to_bits(),
                    "threads {}: {} vs {}",
                    threads,
                    cb.bounds.lo,
                    scalar
                );
            }
        }
    }

    #[test]
    fn solve_transient_and_accumulated() {
        let parsed = parse_model(MODEL).unwrap();
        for m in [Measure::Transient(1.5), Measure::Accumulated(3.0)] {
            let out = solve(&parsed, &pipeline(), &query(m), false, 1_000).unwrap();
            assert!(out.contains("measure"), "{out}");
        }
    }
}
