//! Batch parameter-sweep engine: one compiled/lumped structure amortized
//! across many rate variants of the same model.
//!
//! The paper's economics are *compile once, solve many*: the lumped
//! matrix diagram is a reusable artifact. A capacity-planning sweep
//! ("the same queueing network at 32 service rates") stresses exactly
//! that claim — naively, every point pays the full
//! build → lump → compile → solve cost. [`Pipeline::sweep`] amortizes
//! three of those four stages:
//!
//! * **Reachability and structure are built once by the caller.** The
//!   builder closure receives each [`SweepPoint`] and typically re-rates
//!   a shared model skeleton (reachability is rate-invariant — rates
//!   must be positive — so the reach MDD is computed once and shared).
//! * **Only changed levels re-lump.** Each level's partition depends
//!   only on that level's local inputs (its MD nodes' formal sums with
//!   child ids as formal symbols, the MDD compatibility structure, and
//!   the level's reward/initial values — see `run_single`'s phase-1
//!   independence argument). The sweep hashes those inputs into a
//!   per-level **content key**; a point that changed one level's rates
//!   reuses every other level's partition verbatim (as a seed, see
//!   [`LumpRequest::seed_partitions`]) and refines only the changed
//!   level. Reuse is counted on `sweep.level.reuse` /
//!   `sweep.level.relump`.
//! * **Each point's solve warm-starts from its nearest solved
//!   neighbor** (Euclidean distance in parameter space, stationary
//!   targets only). Warm starts move the iteration's starting point,
//!   never its fixed point, and the solver's divergence/stagnation
//!   guards make a cold restart the fallback — but they *do* change the
//!   low-order bits of the converged vector, so sweeps that must be
//!   bit-identical to independent solves run with
//!   [`SweepRequest::warm_start`] off (level reuse alone is bit-exact
//!   by the seeding contract).
//!
//! Every per-point stage rides the normal [`Pipeline`] machinery, so an
//! attached store caches each point's artifacts content-addressed (a
//! re-run of the same grid is all hits), and partitions learned by one
//! process seed the next via the same per-level content keys.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mdl_ctmc::RunReport;
use mdl_md::ChildId;
use mdl_obs::Budget;
use mdl_partition::Partition;
use mdl_store::Fnv1a;

use crate::lump::{LumpRequest, LumpResult};
use crate::mrp::MdMrp;
use crate::pipeline::{stage_key, Pipeline, Staged};
use crate::solve::{Measure, SolveOutcome, SolveRequest};
use crate::Result;

/// One parameter assignment of a sweep: a point index plus `(name,
/// value)` pairs, in a fixed axis order shared by every point of the
/// grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the sweep (solve order; also the warm-start
    /// tie-break).
    pub index: usize,
    /// The parameter assignment, e.g. `[("mu", 1.25)]`.
    pub params: Vec<(String, f64)>,
}

/// Expands axes into their full Cartesian product, first axis slowest-
/// varying. `[("a", [1, 2]), ("b", [10, 20])]` yields points
/// `a=1,b=10`, `a=1,b=20`, `a=2,b=10`, `a=2,b=20` with indices 0..4.
pub fn sweep_grid(axes: &[(String, Vec<f64>)]) -> Vec<SweepPoint> {
    if axes.is_empty() {
        return Vec::new();
    }
    let mut assignments: Vec<Vec<(String, f64)>> = vec![Vec::new()];
    for (name, values) in axes {
        let mut next = Vec::with_capacity(assignments.len() * values.len());
        for prefix in &assignments {
            for &v in values {
                let mut p = prefix.clone();
                p.push((name.clone(), v));
                next.push(p);
            }
        }
        assignments = next;
    }
    assignments
        .into_iter()
        .enumerate()
        .map(|(index, params)| SweepPoint { index, params })
        .collect()
}

/// Builder for a [`Pipeline::sweep`] run: the per-point lump and solve
/// requests plus the sweep-level switches.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    lump: LumpRequest,
    solve: SolveRequest,
    warm_start: bool,
    compile_kernel: bool,
    threads: usize,
    budget: Budget,
}

impl SweepRequest {
    /// A sweep applying `lump` then `solve` to every point, with
    /// warm-start chaining and kernel compilation on, serial, under an
    /// unlimited budget.
    pub fn new(lump: LumpRequest, solve: SolveRequest) -> Self {
        SweepRequest {
            lump,
            solve,
            warm_start: true,
            compile_kernel: true,
            threads: 1,
            budget: Budget::unlimited(),
        }
    }

    /// Toggles warm-start chaining (default on). Turn it **off** when
    /// per-point results must be bit-identical to independent cold
    /// solves: a warm start converges to the same fixed point but not
    /// the same bits.
    #[must_use]
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Toggles per-point kernel compilation (default on): the lumped
    /// kernel is compiled through the pipeline's compile stage (cached
    /// content-addressed, so points whose lumped content repeats reuse
    /// it) and handed to the solve as a prebuilt kernel.
    #[must_use]
    pub fn compile_kernel(mut self, on: bool) -> Self {
        self.compile_kernel = on;
        self
    }

    /// Worker threads for kernel compilation/products (`0` = one per
    /// hardware thread). Results are bit-identical for any value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Budget for the sweep loop itself (checked before every point)
    /// and the per-point compile stage. The lump and solve requests
    /// carry their own budgets.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The per-point lump request.
    pub fn lump_request(&self) -> &LumpRequest {
        &self.lump
    }

    /// The per-point solve request.
    pub fn solve_request(&self) -> &SolveRequest {
        &self.solve
    }
}

/// One sweep point's outcome and provenance.
#[derive(Debug, Clone)]
pub struct SweepPointResult {
    /// The point's position in the sweep.
    pub index: usize,
    /// The point's parameter assignment.
    pub params: Vec<(String, f64)>,
    /// The point's lump result (quotient MRP, partitions, stats).
    pub lump: LumpResult,
    /// Whether the whole lump stage was a store hit.
    pub lump_cached: bool,
    /// Levels whose partition was reused (seeded or whole-stage hit).
    pub levels_reused: usize,
    /// Levels refined from scratch for this point.
    pub levels_relumped: usize,
    /// Whether the solve was seeded from a neighbor's solution.
    pub warm_started: bool,
    /// The solve outcome (distribution or scalar).
    pub outcome: SolveOutcome,
    /// Whether the solve stage was a store hit.
    pub solve_cached: bool,
    /// The solve's attempt report.
    pub report: RunReport,
    /// Wall-clock time of this point (build + lump + compile + solve).
    pub elapsed: Duration,
}

/// A completed sweep: per-point results plus whole-run reuse totals.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One result per input point, in input order.
    pub points: Vec<SweepPointResult>,
    /// Total levels reused across all points.
    pub levels_reused: usize,
    /// Total levels re-lumped across all points.
    pub levels_relumped: usize,
    /// Total wall-clock time of the sweep.
    pub elapsed: Duration,
}

impl Pipeline {
    /// **Stage: sweep.** Runs `build → lump → compile → solve` for every
    /// point, reusing unchanged levels' partitions (per-level content
    /// keys → [`LumpRequest::seed_partitions`]), caching every per-point
    /// artifact under point-specific keys when a store is attached, and
    /// warm-starting each stationary solve from the nearest already-
    /// solved neighbor (unless [`SweepRequest::warm_start`] is off).
    ///
    /// `build` maps a point to its MRP — typically by re-rating a shared
    /// model skeleton and reusing a precomputed reachability MDD (rates
    /// must stay positive for the reach set to be rate-invariant).
    ///
    /// # Errors
    ///
    /// The first point failure aborts the sweep: builder errors, store
    /// write failures, interruptions
    /// ([`CoreError::Interrupted`](crate::CoreError::Interrupted) with
    /// phase `"sweep.point"` when this stage's own budget expires), and
    /// solve errors (after the solve request's own ladder is
    /// exhausted).
    pub fn sweep(
        &self,
        points: &[SweepPoint],
        request: &SweepRequest,
        build: impl Fn(&SweepPoint) -> Result<MdMrp>,
    ) -> Result<SweepOutcome> {
        let t0 = Instant::now();
        // Partitions learned this run, by per-level content key. The
        // store (when attached) extends this map across processes.
        let mut seen: HashMap<u64, Partition> = HashMap::new();
        // (parameter values, stationary solution) of solved points.
        let mut solved: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        let mut results = Vec::with_capacity(points.len());
        let mut levels_reused = 0usize;
        let mut levels_relumped = 0usize;
        for point in points {
            if let Err(reason) = request.budget.check() {
                return Err(crate::CoreError::Interrupted {
                    phase: "sweep.point",
                    reason,
                });
            }
            let point_t0 = Instant::now();
            let mut span = mdl_obs::span("sweep.point").with("point", point.index);

            let built = self.build_under(point_key(self.model_key(), point), || build(point))?;
            let keys = level_keys(&built.value, &request.lump);
            let seeds: Vec<Option<Partition>> = keys
                .iter()
                .map(|k| seen.get(k).cloned().or_else(|| self.fetch::<Partition>(*k)))
                .collect();
            let seeded = seeds.iter().filter(|s| s.is_some()).count();
            let lumped = self.lump(&built, &request.lump.clone().seed_partitions(seeds))?;
            let (reused, relumped) = if lumped.cached {
                (keys.len(), 0)
            } else {
                (seeded, keys.len() - seeded)
            };
            mdl_obs::counter("sweep.level.reuse").add(reused as u64);
            mdl_obs::counter("sweep.level.relump").add(relumped as u64);
            levels_reused += reused;
            levels_relumped += relumped;
            for (k, p) in keys.iter().zip(&lumped.value.partitions) {
                if !seen.contains_key(k) {
                    self.persist(*k, p)?;
                    seen.insert(*k, p.clone());
                }
            }

            let lumped_mrp = Staged {
                value: lumped.value.mrp.clone(),
                key: lumped.key,
                cached: lumped.cached,
            };
            let mut solve = request.solve.clone();
            if request.compile_kernel {
                let kernel = self.compile(&lumped_mrp, request.threads, &request.budget)?;
                solve = solve.prebuilt_kernel(kernel.value.clone());
            }

            let values: Vec<f64> = point.params.iter().map(|(_, v)| *v).collect();
            let n = lumped_mrp.value.num_states();
            let mut warm_started = false;
            if request.warm_start && matches!(request.solve.target(), Measure::Stationary) {
                // Nearest solved neighbor whose lumped chain has the same
                // size; earlier points win ties (deterministic order).
                let mut best: Option<(f64, usize)> = None;
                for (i, (pv, sol)) in solved.iter().enumerate() {
                    if sol.len() != n {
                        continue;
                    }
                    let d: f64 = pv.iter().zip(&values).map(|(a, b)| (a - b) * (a - b)).sum();
                    let better = match best {
                        None => true,
                        Some((bd, _)) => d < bd,
                    };
                    if better {
                        best = Some((d, i));
                    }
                }
                if let Some((_, i)) = best {
                    solve = solve.warm_start(Some(solved[i].1.clone()));
                    warm_started = true;
                }
            }

            let (result, report) = self.solve(&lumped_mrp, &solve);
            let outcome = result?;
            if matches!(request.solve.target(), Measure::Stationary) {
                if let Some(sol) = outcome.value.solution() {
                    solved.push((values, sol.probabilities.clone()));
                }
            }

            span.record("reused", reused);
            span.record("relumped", relumped);
            span.record("warm", warm_started as usize);
            span.finish();
            results.push(SweepPointResult {
                index: point.index,
                params: point.params.clone(),
                lump: lumped.value,
                lump_cached: lumped.cached,
                levels_reused: reused,
                levels_relumped: relumped,
                warm_started,
                outcome: outcome.value,
                solve_cached: outcome.cached,
                report,
                elapsed: point_t0.elapsed(),
            });
        }
        Ok(SweepOutcome {
            points: results,
            levels_reused,
            levels_relumped,
            elapsed: t0.elapsed(),
        })
    }
}

/// The build-stage key of one sweep point: the model key plus the full
/// parameter assignment (names and exact value bits). Point indices are
/// deliberately excluded — reordering a grid must not invalidate its
/// artifacts.
fn point_key(model_key: u64, point: &SweepPoint) -> u64 {
    stage_key("sweep.point", model_key, |h| {
        h.write_usize(point.params.len());
        for (name, value) in &point.params {
            h.write_str(name);
            h.write_f64(*value);
        }
    })
}

/// Per-level partition content keys: everything the level's partition
/// computation reads, and nothing else.
///
/// A level's partition is a function of (see `run_single` phase 1):
/// the lump request's result-relevant options, the level's local size,
/// the reachability MDD (compatibility partition), the level's reward
/// and initial values, and the level's MD nodes — their entries' exact
/// positions and formal sums, with child node **indices** as formal
/// symbols (the refinement never expands children, so coefficient
/// changes at other levels leave this level's key — and partition —
/// unchanged). Two MRPs agreeing on all of that for a level compute
/// bit-identical partitions there, which is precisely the seeding
/// contract of [`LumpRequest::seed_partitions`].
fn level_keys(mrp: &MdMrp, request: &LumpRequest) -> Vec<u64> {
    let md = mrp.matrix().md();
    let mut base = Fnv1a::new();
    base.write_str("sweep.part");
    request.write_cache_key(&mut base);
    // The child tables identify the set; offsets and counts derive
    // from them.
    let reach = mrp.matrix().reach();
    for level in 0..reach.num_levels() {
        base.write_usize(reach.sizes()[level]);
        for &child in reach.raw_level_children(level) {
            base.write_u64(child.into());
        }
    }
    (0..md.num_levels())
        .map(|level| {
            let mut h = base.clone();
            h.write_usize(level);
            h.write_usize(md.sizes()[level]);
            for &v in mrp.reward().level_values(level) {
                h.write_f64(v);
            }
            for &v in mrp.initial().level_values(level) {
                h.write_f64(v);
            }
            let nodes = md.level_nodes(level);
            h.write_usize(nodes.len());
            for node in nodes {
                h.write_usize(node.entries().len());
                for e in node.entries() {
                    h.write_u64(e.row as u64);
                    h.write_u64(e.col as u64);
                    h.write_usize(e.terms.len());
                    for t in &e.terms {
                        h.write_f64(t.coef);
                        match t.child {
                            ChildId::Terminal => h.write_u64(u64::MAX),
                            ChildId::Node(n) => h.write_u64(n as u64),
                        }
                    }
                }
            }
            h.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{Combiner, DecomposableVector};
    use crate::lump::LumpKind;
    use crate::pipeline::model_source_key;
    use mdl_md::{KroneckerExpr, MdMatrix, SparseFactor};
    use mdl_mdd::Mdd;
    use mdl_store::Store;

    fn cycle(size: usize, rate: f64) -> SparseFactor {
        let mut f = SparseFactor::new(size);
        for s in 0..size {
            f.push(s, (s + 1) % size, rate);
        }
        f
    }

    /// The lumpable 2×3 model, with the level-1 cycle rate as the swept
    /// parameter. Level 2's symmetry (states 1 and 2) is rate-invariant.
    fn build_mrp(cycle_rate: f64) -> Result<MdMrp> {
        let mut w = SparseFactor::new(3);
        w.push(0, 1, 1.0);
        w.push(0, 2, 1.0);
        w.push(1, 0, 2.0);
        w.push(2, 0, 2.0);
        w.push(1, 2, 0.5);
        w.push(2, 1, 0.5);
        let mut expr = KroneckerExpr::new(vec![2, 3]);
        expr.add_term(1.0, vec![Some(cycle(2, cycle_rate)), None]);
        expr.add_term(1.0, vec![None, Some(w)]);
        let matrix = MdMatrix::new(expr.to_md()?, Mdd::full(vec![2, 3]).unwrap())?;
        let reward =
            DecomposableVector::new(vec![vec![0.0, 1.0], vec![1.0, 1.0, 1.0]], Combiner::Product)?;
        let initial = DecomposableVector::point_mass(&[2, 3], &[0, 0])?;
        MdMrp::new(matrix, reward, initial)
    }

    fn rate_of(point: &SweepPoint) -> f64 {
        point.params[0].1
    }

    fn grid(rates: &[f64]) -> Vec<SweepPoint> {
        sweep_grid(&[("rate".to_string(), rates.to_vec())])
    }

    fn request() -> SweepRequest {
        SweepRequest::new(
            LumpRequest::new(LumpKind::Ordinary),
            SolveRequest::stationary(),
        )
    }

    #[test]
    fn grid_expands_cartesian_product_in_order() {
        let points = sweep_grid(&[
            ("a".to_string(), vec![1.0, 2.0]),
            ("b".to_string(), vec![10.0, 20.0, 30.0]),
        ]);
        assert_eq!(points.len(), 6);
        assert_eq!(
            points[0].params,
            vec![("a".into(), 1.0), ("b".into(), 10.0)]
        );
        assert_eq!(
            points[1].params,
            vec![("a".into(), 1.0), ("b".into(), 20.0)]
        );
        assert_eq!(
            points[3].params,
            vec![("a".into(), 2.0), ("b".into(), 10.0)]
        );
        assert_eq!(points[5].index, 5);
        assert!(sweep_grid(&[]).is_empty());
    }

    #[test]
    fn sweep_reuses_unchanged_levels_and_matches_naive() {
        let _guard = mdl_obs::testing::guard();
        let p = Pipeline::new(model_source_key("sweep-model"));
        let points = grid(&[2.0, 3.0, 4.0]);
        // Bit-identity check runs warm starts off: reuse alone is
        // bit-exact, warm starts change low-order bits.
        let outcome = p
            .sweep(&points, &request().warm_start(false), |pt| {
                build_mrp(rate_of(pt))
            })
            .unwrap();
        assert_eq!(outcome.points.len(), 3);
        // Level 2 is rate-invariant across the sweep: reused from point 2
        // on. Level 1's rate changes every point: always re-lumped.
        assert_eq!(outcome.points[0].levels_reused, 0);
        assert_eq!(outcome.points[0].levels_relumped, 2);
        for r in &outcome.points[1..] {
            assert_eq!(r.levels_reused, 1, "level 2 partition reused");
            assert_eq!(r.levels_relumped, 1, "level 1 re-lumped");
        }
        assert_eq!(outcome.levels_reused, 2);
        assert_eq!(outcome.levels_relumped, 4);

        // Every point bit-identical to an independent full run.
        for (pt, r) in points.iter().zip(&outcome.points) {
            let mrp = build_mrp(rate_of(pt)).unwrap();
            let naive = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
            assert_eq!(r.lump.partitions, naive.partitions);
            assert_eq!(
                r.lump
                    .mrp
                    .matrix()
                    .flatten()
                    .max_abs_diff(&naive.mrp.matrix().flatten()),
                0.0
            );
            let (cold, _) = SolveRequest::stationary().run(&naive.mrp);
            let cold = cold.unwrap().into_solution().unwrap();
            assert_eq!(
                r.outcome.solution().unwrap().probabilities,
                cold.probabilities,
                "cold sweep solve bit-identical to naive"
            );
            assert!(!r.warm_started);
        }
    }

    #[test]
    fn warm_start_chains_from_nearest_neighbor() {
        let _guard = mdl_obs::testing::guard();
        let p = Pipeline::new(model_source_key("sweep-warm"));
        let points = grid(&[2.0, 2.1, 2.2]);
        let outcome = p
            .sweep(&points, &request(), |pt| build_mrp(rate_of(pt)))
            .unwrap();
        assert!(!outcome.points[0].warm_started, "first point is cold");
        assert!(outcome.points[1].warm_started);
        assert!(outcome.points[2].warm_started);
        // Warm-started solves still land on the same fixed point.
        for (pt, r) in points.iter().zip(&outcome.points) {
            let mrp = build_mrp(rate_of(pt)).unwrap();
            let naive = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
            let (cold, _) = SolveRequest::stationary().run(&naive.mrp);
            let cold = cold.unwrap().into_solution().unwrap();
            let warm = r.outcome.solution().unwrap();
            for (a, b) in warm.probabilities.iter().zip(&cold.probabilities) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn store_backed_sweep_reuses_across_runs() {
        let _guard = mdl_obs::testing::guard();
        let dir = std::env::temp_dir().join(format!("mdl-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let points = grid(&[2.0, 3.0]);

        let p = Pipeline::with_store(model_source_key("sweep-store"), store.clone());
        let cold = p
            .sweep(&points, &request().warm_start(false), |pt| {
                build_mrp(rate_of(pt))
            })
            .unwrap();
        assert!(!cold.points[0].lump_cached);

        // A fresh process over the same store: every stage hits, and the
        // level-reuse accounting reports full reuse.
        let q = Pipeline::with_store(model_source_key("sweep-store"), store);
        let warm = q
            .sweep(&points, &request().warm_start(false), |_| {
                panic!("warm sweep must not rebuild")
            })
            .unwrap();
        for (c, w) in cold.points.iter().zip(&warm.points) {
            assert!(w.lump_cached);
            assert!(w.solve_cached);
            assert_eq!(w.levels_relumped, 0);
            assert_eq!(
                w.outcome.solution().unwrap().probabilities,
                c.outcome.solution().unwrap().probabilities
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_budget_interrupts_the_sweep() {
        let p = Pipeline::new(model_source_key("sweep-deadline"));
        let err = p
            .sweep(
                &grid(&[2.0, 3.0]),
                &request().budget(Budget::unlimited().deadline_in(Duration::ZERO)),
                |pt| build_mrp(rate_of(pt)),
            )
            .unwrap_err();
        match err {
            crate::CoreError::Interrupted { phase, .. } => assert_eq!(phase, "sweep.point"),
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn level_keys_isolate_the_changed_level() {
        let a = build_mrp(2.0).unwrap();
        let b = build_mrp(3.0).unwrap();
        let req = LumpRequest::new(LumpKind::Ordinary);
        let ka = level_keys(&a, &req);
        let kb = level_keys(&b, &req);
        assert_eq!(ka.len(), 2);
        assert_ne!(ka[0], kb[0], "changed level gets a new key");
        assert_eq!(ka[1], kb[1], "unchanged level keeps its key");
        // Different request options change every key.
        let exact = level_keys(&a, &LumpRequest::new(LumpKind::Exact));
        assert_ne!(ka[0], exact[0]);
        assert_ne!(ka[1], exact[1]);
    }
}
