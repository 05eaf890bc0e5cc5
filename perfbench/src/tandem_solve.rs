//! `tandem_solve`: the paper's Table 1 pipeline end to end, followed by
//! the sweep and certified-bounds paths on the same model.
//!
//! A job is the unit of work. It takes one seeded rate variant of the
//! tandem model at J=2 (355,200 → 3,930 states), its own empty store,
//! and one seeded jittered copy of the model, and runs five stages:
//!
//! 1. a cold stationary solve (tolerance 1e-12): the stages
//!    `mdlump-cli solve --cache-dir` runs, reachability included;
//! 2. the identical solve again on the filled store;
//! 3. a transient solve at t=100, which restores the kernel and computes
//!    uniformization;
//! 4. `Pipeline::sweep` over the `hyper_service` grid (`sweep.rs`);
//! 5. `certified_bounds` on the jittered copy (`certify.rs`).
//!
//! Stages 4 and 5 share the reachability set computed in set-up, as
//! `mdlump-cli sweep` shares one across its points.

use std::time::Instant;

use mdl_core::{
    model_source_key, DecomposableVector, KernelKind, LumpKind, LumpRequest, Pipeline,
    SolveRequest, Staged,
};
use mdl_ctmc::{SolverOptions, TransientOptions};
use mdl_mdd::Mdd;
use mdl_models::tandem::{TandemModel, TandemRates, TandemReward};
use mdl_models::ComposedModel;
use mdl_obs::Budget;
use mdl_store::Store;

use crate::certify::{self, Cert};
use crate::check;
use crate::common::{self, Config};
use crate::gen;
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::sweep::{self, Sweep};

/// Transient horizon of the third solve.
const T: f64 = 100.0;

/// One stage-timed pass through the pipeline.
#[derive(Debug, Default, Clone)]
struct Pass {
    wall: f64,
    value: f64,
    lumped_states: u64,
    original_states: u64,
    reach_s: f64,
    reach_states: u64,
    build_s: f64,
    /// `LumpRequest::run` time inside the lump stage (traced only).
    lump_s: f64,
    /// `md.compile` time inside the compile stage (traced only).
    compile_s: f64,
    solve_s: f64,
    iterations: u64,
    attempts: u64,
    /// Stage wall time not spent in the computations above: artifact
    /// encode/write on a miss, read/decode/map on a hit.
    store_s: f64,
}

/// Runs build → lump → compile → solve on `pipeline` for `target`, as
/// the CLI's `solve` does, timing each stage from outside.
fn pass(pipeline: &Pipeline, model: &TandemModel, target: SolveRequest) -> Result<Pass, String> {
    let mut p = Pass::default();
    let t0 = Instant::now();

    let (lump0, compile0) = (common::span_ns("lump.run"), common::span_ns("md.compile"));
    let t = Instant::now();
    let built = pipeline
        .build(|| {
            let composed = model.composed();
            let t = Instant::now();
            let reach = composed.reachable().map_err(common::build_error)?;
            p.reach_s = t.elapsed().as_secs_f64();
            p.reach_states = reach.count();
            let reward = model
                .reward(TandemReward::Availability)
                .map_err(common::build_error)?;
            let t = Instant::now();
            let mrp = composed
                .build_md_mrp_with_reach(reward, reach)
                .map_err(common::build_error)?;
            p.build_s = t.elapsed().as_secs_f64();
            Ok(mrp)
        })
        .map_err(|e| format!("build: {e}"))?;
    let build_wall = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let lumped = pipeline
        .lump(
            &built,
            &LumpRequest::new(LumpKind::Ordinary).threads(common::THREADS),
        )
        .map_err(|e| format!("lump: {e}"))?;
    let lump_wall = t.elapsed().as_secs_f64();
    p.lump_s = (common::span_ns("lump.run") - lump0) as f64 * 1e-9;

    let lumped_mrp = Staged {
        value: lumped.value.mrp.clone(),
        key: lumped.key,
        cached: lumped.cached,
    };
    let t = Instant::now();
    let kernel = pipeline
        .compile(&lumped_mrp, common::THREADS, &Budget::unlimited())
        .map_err(|e| format!("compile: {e}"))?;
    let compile_wall = t.elapsed().as_secs_f64();
    p.compile_s = (common::span_ns("md.compile") - compile0) as f64 * 1e-9;

    let request = target
        .solver_options(SolverOptions {
            tolerance: 1e-12,
            ..SolverOptions::default()
        })
        .transient_options(TransientOptions::default())
        .kernel(KernelKind::Compiled)
        .threads(common::THREADS)
        .fallback(false)
        .prebuilt_kernel(kernel.value);
    let t = Instant::now();
    let (outcome, report) = pipeline.solve(&lumped_mrp, &request);
    let solve_wall = t.elapsed().as_secs_f64();
    let staged = outcome.map_err(|e| format!("solve: {e}"))?;
    p.value = common::expected_reward(&lumped_mrp.value, &staged.value)?;
    p.wall = t0.elapsed().as_secs_f64();

    // A cached solve replays the stored report: its attempts took no
    // time in this pass.
    if !staged.cached {
        let (s, n) = common::attempts_time(&report);
        p.solve_s = s;
        p.iterations = n;
        p.attempts = report.attempts.len() as u64;
    }
    p.lumped_states = lumped.value.stats.lumped_states;
    p.original_states = lumped.value.stats.original_states;
    p.store_s = (build_wall - p.reach_s - p.build_s)
        + (lump_wall - p.lump_s)
        + (compile_wall - p.compile_s)
        + (solve_wall - p.solve_s);
    Ok(p)
}

/// One job's five stages.
struct Job {
    cold: Pass,
    warm: Pass,
    transient: Pass,
    sweep: Sweep,
    cert: Cert,
    wall: f64,
    traced: bool,
    write_bytes: u64,
    hits: u64,
    misses: u64,
    invalid: u64,
}

impl Job {
    /// Time in the named layers, summed over the stages (traced jobs).
    fn layer_s(&self) -> f64 {
        let passes: f64 = [&self.cold, &self.warm, &self.transient]
            .iter()
            .map(|p| p.reach_s + p.build_s + p.lump_s + p.compile_s + p.solve_s + p.store_s)
            .sum();
        let s = &self.sweep;
        let c = &self.cert;
        passes
            + (s.build_s + s.relump_s + s.compile_s + s.solve_s)
            + (c.build_s + c.lump_s + c.compile_s + c.bounds_s)
    }
}

/// The `mdl_obs` store counters a job reads (traced jobs only count).
const STORE_COUNTERS: [&str; 4] = [
    "store.write_bytes",
    "store.hit",
    "store.miss",
    "store.invalid",
];

/// Everything a run's jobs read: the shared reachability set and reward
/// of the tandem structure, and the seeded per-job models.
struct Inputs {
    reach: Mdd,
    reward: DecomposableVector,
    variants: Vec<TandemModel>,
    jittered: Vec<ComposedModel>,
}

impl Inputs {
    fn generate(seed: u64, jobs: usize) -> Result<Inputs, String> {
        let base = TandemModel::new(gen::tandem_config(TandemRates::default()));
        let reach = base.composed().reachable().map_err(|e| e.to_string())?;
        let reward = base
            .reward(TandemReward::Availability)
            .map_err(|e| e.to_string())?;
        Ok(Inputs {
            reach,
            reward,
            variants: gen::solve_variants(seed, jobs)
                .into_iter()
                .map(|rates| TandemModel::new(gen::tandem_config(rates)))
                .collect(),
            jittered: gen::jittered_variants(base.composed(), seed, jobs),
        })
    }

    fn variant(&self, job: usize) -> &TandemModel {
        &self.variants[job % self.variants.len()]
    }
}

fn job(cfg: &Config, index: usize, inputs: &Inputs, traced: bool) -> Result<Job, String> {
    let model = inputs.variant(index);
    let dir = cfg.work_dir.join(format!("solve-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|e| format!("store: {e}"))?;
    let key = model_source_key(&format!("tandem {:?}", model.config()));
    let run = |target| pass(&Pipeline::with_store(key, store.clone()), model, target);
    let before = STORE_COUNTERS.map(common::counter);

    mdl_obs::set_enabled(traced);
    let t0 = Instant::now();
    let stages = run(SolveRequest::stationary()).and_then(|cold| {
        let warm = run(SolveRequest::stationary())?;
        let transient = run(SolveRequest::transient(T))?;
        let sweep = sweep::run(model, &inputs.reach)?;
        let jittered = &inputs.jittered[index % inputs.jittered.len()];
        let cert = certify::run(jittered, &inputs.reward, &inputs.reach)?;
        Ok((cold, warm, transient, sweep, cert))
    });
    let wall = t0.elapsed().as_secs_f64();
    mdl_obs::set_enabled(false);

    let after = STORE_COUNTERS.map(common::counter);
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, warm, transient, sweep, cert) = stages?;
    Ok(Job {
        cold,
        warm,
        transient,
        sweep,
        cert,
        wall,
        traced,
        write_bytes: after[0] - before[0],
        hits: after[1] - before[1],
        misses: after[2] - before[2],
        invalid: after[3] - before[3],
    })
}

/// The store-less reference: the same stages on a `Pipeline` without
/// a store.
fn reference(model: &TandemModel) -> Result<f64, String> {
    let key = model_source_key(&format!("tandem {:?}", model.config()));
    pass(&Pipeline::new(key), model, SolveRequest::stationary()).map(|p| p.value)
}

/// Checks job `i`'s answers. Jobs `reference_jobs` also match a
/// store-less solve, and job 0 checks two seeded sweep points against
/// independent solves.
fn check_job(
    j: &Job,
    i: usize,
    inputs: &Inputs,
    reference_jobs: &[usize],
    sweep_checked: &[usize],
) -> Result<(), String> {
    let model = inputs.variant(i);
    check::same_bits("warm vs cold measure", j.warm.value, j.cold.value)?;
    if !(0.0..=1.0).contains(&j.transient.value) {
        return Err(format!(
            "transient availability {} outside [0, 1]",
            j.transient.value
        ));
    }
    if reference_jobs.contains(&i) {
        check::same_bits(
            "cold vs store-less measure",
            j.cold.value,
            reference(model)?,
        )?;
    }
    let sampled = if i == 0 { sweep_checked } else { &[] };
    sweep::check(&j.sweep, model, &inputs.reach, sampled)?;
    certify::check(&j.cert)
}

/// Runs the workload.
pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    // Set-up: the shared reachability set plus the seeded per-job
    // inputs, repeated so `setup_s` is a median.
    let jobs_max = 2 + cfg.seconds.as_secs() as usize;
    let (inputs, setup) =
        common::repeat_setup(common::SETUP_REPS, || Inputs::generate(cfg.seed, jobs_max))?;

    let started = Instant::now();
    let mut jobs = Vec::new();
    while common::keep_going(cfg, started, jobs.len()) {
        let i = jobs.len();
        jobs.push(job(cfg, i, &inputs, common::traced_op(cfg, i)));
    }
    let loop_wall = started.elapsed().as_secs_f64();
    let peak = common::peak_rss_mb(None)?;

    // Checks, outside the measured loop.
    let reference_jobs = [0, jobs.len() - 1];
    let sweep_checked = gen::sweep_check_points(cfg.seed);
    for (i, j) in jobs.iter().enumerate() {
        let check = j
            .as_ref()
            .map_err(|e| e.clone())
            .and_then(|j| check_job(j, i, &inputs, &reference_jobs, &sweep_checked));
        out.record(check);
    }
    let ok: Vec<&Job> = jobs.iter().filter_map(|j| j.as_ref().ok()).collect();
    if ok.is_empty() {
        return Err("no job succeeded".into());
    }

    let col = |f: &dyn Fn(&Job) -> f64, traced: Option<bool>| -> Vec<f64> {
        ok.iter()
            .filter(|j| traced.is_none_or(|t| j.traced == t))
            .map(|j| f(j))
            .collect()
    };
    let n = ok.len();
    let points: usize = ok.iter().map(|j| j.sweep.measures.len()).sum();
    let lumped: Vec<f64> = ok
        .iter()
        .flat_map(|j| {
            let sizes = [j.cold.lumped_states, j.cert.lumped_states];
            sizes
                .into_iter()
                .chain(j.sweep.lumped_states.iter().copied())
        })
        .map(|s| s as f64)
        .collect();
    let named = &mut out.named;
    named.named("solve_cold_s", median(&col(&|j| j.cold.wall, None)), "s", n);
    named.named("solve_warm_s", median(&col(&|j| j.warm.wall, None)), "s", n);
    named.named(
        "transient_s",
        median(&col(&|j| j.transient.wall, None)),
        "s",
        n,
    );
    named.named(
        "sweep_points_per_s",
        points as f64 / col(&|j| j.sweep.wall, None).iter().sum::<f64>(),
        "points/s",
        points,
    );
    named.named(
        "sweep_point_s",
        median(&col(
            &|j| j.sweep.wall / j.sweep.measures.len() as f64,
            None,
        )),
        "s",
        n,
    );
    named.named("bounds_s", median(&col(&|j| j.cert.cert_s, None)), "s", n);
    named.named(
        "bound_width",
        median(&col(
            &|j| (j.cert.hi - j.cert.lo) / (0.5 * (j.cert.lo + j.cert.hi)),
            None,
        )),
        "relative",
        n,
    );
    named.named("lumped_states", mean(&lumped), "states", lumped.len());

    let m = &mut out.metrics;
    if !cfg.trace {
        m.set("setup_s", median(&setup), setup.len());
        m.set("peak_rss_mb", peak, 1);
        m.set("lumped_states", mean(&lumped), lumped.len());
        m.set("op_p50_ms", 1e3 * median(&col(&|j| j.wall, None)), n);
        m.set("ops_per_s", n as f64 / loop_wall, n);
        return Ok(());
    }

    // Per-layer metrics: medians per traced job of the time each layer
    // took over all the job's stages.
    let t = col(&|j| j.wall, Some(true));
    let nt = t.len();
    let per = |f: &dyn Fn(&Job) -> f64| median(&col(f, Some(true)));
    m.set("models.reach_s", per(&|j| j.cold.reach_s), nt);
    m.set("mdd.reach_states", ok[0].cold.reach_states as f64, nt);
    m.set(
        "md.build_s",
        per(&|j| j.cold.build_s + j.sweep.build_s + j.cert.build_s),
        nt,
    );
    m.set(
        "md.compile_s",
        per(&|j| j.cold.compile_s + j.sweep.compile_s),
        nt,
    );
    m.set("md.compile_interval_s", per(&|j| j.cert.compile_s), nt);
    m.set("core.lump_s", per(&|j| j.cold.lump_s), nt);
    m.set("core.lump_tol_s", per(&|j| j.cert.lump_s), nt);
    m.set(
        "core.reduction",
        ok[0].cold.original_states as f64 / ok[0].cold.lumped_states as f64,
        nt,
    );
    m.set("core.sweep.relump_s", per(&|j| j.sweep.relump_s), nt);
    m.set(
        "core.sweep.levels_reused_ratio",
        per(&|j| {
            let s = &j.sweep;
            s.levels_reused as f64 / (s.levels_reused + s.levels_relumped).max(1) as f64
        }),
        nt,
    );
    // f64 stationary solves: the cold pass and every sweep point.
    let f64_solve = |j: &Job| {
        (
            j.cold.solve_s + j.sweep.solve_s,
            j.cold.iterations + j.sweep.iterations,
        )
    };
    m.set("ctmc.solve_s", per(&|j| f64_solve(j).0), nt);
    m.set("ctmc.iterations", per(&|j| f64_solve(j).1 as f64), nt);
    m.set(
        "ctmc.iter_us",
        per(&|j| {
            let (s, it) = f64_solve(j);
            1e6 * s / it.max(1) as f64
        }),
        nt,
    );
    m.set("ctmc.transient_s", per(&|j| j.transient.solve_s), nt);
    m.set(
        "ctmc.transient_steps",
        per(&|j| j.transient.iterations as f64),
        nt,
    );
    m.set(
        "ctmc.attempts",
        per(&|j| {
            (j.cold.attempts + j.transient.attempts) as f64
                + (j.sweep.attempts + j.cert.attempts) as f64
        }),
        nt,
    );
    m.set("ctmc.bounds_s", per(&|j| j.cert.bounds_s), nt);
    m.set(
        "ctmc.bounds_iterations",
        per(&|j| j.cert.bounds_iterations as f64),
        nt,
    );
    m.set(
        "ctmc.bounds_iter_us",
        per(&|j| 1e6 * j.cert.bounds_s / j.cert.bounds_iterations.max(1) as f64),
        nt,
    );
    m.set("store.persist_s", per(&|j| j.cold.store_s), nt);
    m.set(
        "store.restore_s",
        per(&|j| j.warm.wall + j.transient.store_s),
        nt,
    );
    m.set("store.write_bytes", per(&|j| j.write_bytes as f64), nt);
    let (hits, misses): (u64, u64) = ok
        .iter()
        .filter(|j| j.traced)
        .fold((0, 0), |(h, m), j| (h + j.hits, m + j.misses));
    m.set(
        "store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        nt,
    );
    m.set(
        "store.invalid",
        ok.iter().map(|j| j.invalid).sum::<u64>() as f64,
        nt,
    );
    // Every named layer time of a job, against the job's wall time.
    let layers: f64 = col(&Job::layer_s, Some(true)).iter().sum();
    m.set(
        "layer_coverage_pct",
        100.0 * layers / t.iter().sum::<f64>(),
        nt,
    );
    let untraced = col(&|j| j.wall, Some(false));
    m.set(
        "trace_overhead_pct",
        common::overhead_pct(median(&t), median(&untraced)),
        n,
    );
    Ok(())
}
