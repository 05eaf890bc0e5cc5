//! Benchmark baseline report and regression gate.
//!
//! Runs the pipeline's representative measurements — tandem model build,
//! compositional lumping, kernel compilation, walk vs. compiled
//! matrix–vector products, the stationary solve, a parameter sweep
//! against naive repeated solves, warm kernel opens, and the
//! observability no-op overheads — with the counting allocator
//! installed, and emits a versioned baseline: one JSONL file of
//! per-metric wall-time medians, spreads and peak-memory high-water
//! marks over `--reps` repetitions.
//!
//! ```text
//! report [--smoke] [--jobs J] [--reps N] [--rev REV] [--out FILE]
//!        [--check BASELINE.json]
//!        [--max-wall-regress PCT] [--max-mem-regress PCT]
//! ```
//!
//! * Without `--check`: measure and write `BENCH_<rev>.json` (`--rev`
//!   defaults to `MDL_BENCH_REV` or `dev`).
//! * With `--check BASELINE.json`: additionally compare the fresh
//!   measurements against the baseline and **exit nonzero** if any
//!   metric's wall time regressed more than `--max-wall-regress` percent
//!   (default 75) or its peak memory more than `--max-mem-regress`
//!   percent (default 50). Thresholds are deliberately loose by default:
//!   the gate is for catching "it got twice as slow", not µs jitter.
//!   The gate also enforces two timing invariants of the fresh run: the
//!   mapped warm open is at least 10x faster than the decode path, and
//!   the cold sweep at least 1.5x faster than the naive one.
//! * `--smoke`: small model (`J = 1`), few reps — the CI configuration.
//! * `--jobs J`: tandem size (default 1 for `--smoke`, else 2; `--jobs 3`
//!   produces the per-stage breakdown table recorded in EXPERIMENTS.md).
//!   The stationary solve runs on the **lumped** quotient — solving the
//!   small chain is the paper's point, and it keeps `J = 3` tractable.
//!
//! The rep loop consults the `bench.rep` failpoint, so the gate itself
//! is testable: `MDL_FAILPOINTS=bench.rep=sleep:80ms` injects a uniform
//! slowdown that a `--check` run against a clean baseline must flag.

use std::time::Instant;

use mdl_bench::{duration_ns, emit_jsonl};
use mdl_core::{
    model_source_key, sweep_grid, DecomposableVector, LumpKind, LumpRequest, Pipeline,
    SolveOutcome, SolveRequest, SweepOutcome, SweepRequest,
};
use mdl_ctmc::{stationary_power, SolverOptions};
use mdl_linalg::RateMatrix;
use mdl_md::CompiledMdMatrix;
use mdl_models::tandem::{TandemConfig, TandemModel, TandemReward};
use mdl_models::ComposedModel;
use mdl_obs::json::{self, Json, JsonObject};
use mdl_store::{KernelImage, Store};

/// Allocation tracking needs the counting wrapper installed as the
/// global allocator; it stays dormant (one relaxed load per call) until
/// `set_mem_tracking(true)`.
#[global_allocator]
static ALLOC: mdl_obs::CountingAllocator = mdl_obs::CountingAllocator;

struct Config {
    smoke: bool,
    jobs: usize,
    reps: usize,
    rev: String,
    out: Option<String>,
    check: Option<String>,
    max_wall_regress: f64,
    max_mem_regress: f64,
}

/// Every flag `report` accepts; any other `--` token is an error, so a
/// mistyped `--check` cannot silently skip the gate.
const FLAGS: &[&str] = &[
    "--smoke",
    "--jobs",
    "--reps",
    "--rev",
    "--out",
    "--check",
    "--max-wall-regress",
    "--max-mem-regress",
];

fn value_of(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("{flag} needs a value")),
        },
    }
}

fn config() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = match value_of(&args, "--reps")? {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--reps: not a positive count: {v}"))?,
        None => {
            if smoke {
                3
            } else {
                5
            }
        }
    };
    let jobs = match value_of(&args, "--jobs")? {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| format!("--jobs: not a positive count: {v}"))?,
        None => {
            if smoke {
                1
            } else {
                2
            }
        }
    };
    let rev = match value_of(&args, "--rev")? {
        Some(v) => v,
        None => std::env::var("MDL_BENCH_REV").unwrap_or_else(|_| "dev".into()),
    };
    let pct = |flag: &str, default: f64| -> Result<f64, String> {
        match value_of(&args, flag)? {
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|p| p.is_finite() && *p >= 0.0)
                .ok_or_else(|| format!("{flag}: not a percentage: {v}")),
            None => Ok(default),
        }
    };
    Ok(Config {
        smoke,
        jobs,
        reps,
        rev,
        out: value_of(&args, "--out")?,
        check: value_of(&args, "--check")?,
        max_wall_regress: pct("--max-wall-regress", 75.0)?,
        max_mem_regress: pct("--max-mem-regress", 50.0)?,
    })
}

/// One measured metric: medians over the rep samples.
struct Metric {
    name: &'static str,
    wall_ns: u64,
    /// `(max − min) / median` wall time, percent — run-to-run noise.
    wall_spread_pct: f64,
    peak_bytes: u64,
    alloc_bytes: u64,
}

impl Metric {
    fn to_json(&self, reps: usize) -> String {
        let mut obj = JsonObject::new();
        obj.str("type", "bench_metric")
            .str("name", self.name)
            .u64("wall_ns", self.wall_ns)
            .f64("wall_spread_pct", self.wall_spread_pct)
            .u64("peak_bytes", self.peak_bytes)
            .u64("alloc_bytes", self.alloc_bytes)
            .u64("reps", reps as u64);
        obj.close()
    }
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Runs `f` `reps` times, measuring wall time and (when tracking is on)
/// the allocation delta and peak high-water mark of each rep; reports
/// per-sample medians. The `bench.rep` failpoint sits *inside* the
/// timed region so injected sleeps show up as wall-time regressions.
fn measure<T>(name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> Metric {
    let mut wall = Vec::with_capacity(reps);
    let mut peak = Vec::with_capacity(reps);
    let mut alloc = Vec::with_capacity(reps);
    for _ in 0..reps {
        mdl_obs::reset_mem_peak();
        let before = mdl_obs::mem_stats();
        let t0 = Instant::now();
        let _ = mdl_obs::failpoint::hit("bench.rep");
        let out = f();
        let elapsed = t0.elapsed();
        std::hint::black_box(&out);
        let after = mdl_obs::mem_stats();
        drop(out);
        wall.push(duration_ns(elapsed));
        peak.push(after.peak_bytes.saturating_sub(before.current_bytes));
        alloc.push(after.allocated_bytes.saturating_sub(before.allocated_bytes));
    }
    let med = median(&mut wall);
    let spread = if med > 0 {
        (wall[wall.len() - 1] - wall[0]) as f64 / med as f64 * 100.0
    } else {
        0.0
    };
    Metric {
        name,
        wall_ns: med,
        wall_spread_pct: spread,
        peak_bytes: median(&mut peak),
        alloc_bytes: median(&mut alloc),
    }
}

/// Per-product sweep over `m` (the kernel benches' access pattern).
fn products<M: RateMatrix>(m: &M, sweeps: usize) -> Vec<f64> {
    let n = m.num_states();
    let x: Vec<f64> = (0..n).map(|i| 0.5 + 0.25 * (i % 11) as f64).collect();
    let mut y = vec![0.0; n];
    for _ in 0..sweeps {
        y.iter_mut().for_each(|v| *v = 0.0);
        m.acc_vec_mat(&x, &mut y);
    }
    y
}

/// The swept event and grid of the `sweep.*` rows: the tandem
/// hypercube's service rate over five points of `[0.5, 2.0]`.
const SWEEP_EVENT: &str = "hyper_service";
const SWEEP_RATES: [f64; 5] = [0.5, 0.875, 1.25, 1.625, 2.0];

fn rerated(base: &ComposedModel, rate: f64) -> ComposedModel {
    let mut model = base.clone();
    model
        .set_event_rate(SWEEP_EVENT, rate)
        .expect("the tandem model has the swept event");
    model
}

/// The naive sweep: every point rebuilt in full — reachability,
/// lumping, kernel, solve — as independent CLI runs would.
fn naive_sweep(base: &ComposedModel, reward: &DecomposableVector) -> Vec<SolveOutcome> {
    SWEEP_RATES
        .iter()
        .map(|&rate| {
            let mrp = rerated(base, rate)
                .build_md_mrp(reward.clone())
                .expect("tandem model builds");
            let lumped = LumpRequest::new(LumpKind::Ordinary)
                .run(&mrp)
                .expect("tandem model lumps");
            SolveRequest::stationary()
                .run(&lumped.mrp)
                .0
                .expect("lumped tandem solves")
        })
        .collect()
}

/// The same grid through `Pipeline::sweep`: reachability once, re-lumps
/// of only the levels a rate change touches, cold solves.
fn cold_sweep(base: &ComposedModel, reward: &DecomposableVector) -> SweepOutcome {
    let reach = base.reachable().expect("tandem model explores");
    let points = sweep_grid(&[(SWEEP_EVENT.to_string(), SWEEP_RATES.to_vec())]);
    let request = SweepRequest::new(
        LumpRequest::new(LumpKind::Ordinary),
        SolveRequest::stationary(),
    )
    .warm_start(false);
    Pipeline::new(model_source_key("report:sweep"))
        .sweep(&points, &request, |pt| {
            Ok(rerated(base, pt.params[0].1)
                .build_md_mrp_with_reach(reward.clone(), reach.clone())?)
        })
        .expect("tandem sweep succeeds")
}

fn run_measurements(cfg: &Config) -> Vec<Metric> {
    let jobs = cfg.jobs;
    let sweeps = if cfg.smoke || jobs >= 3 { 3 } else { 10 };
    let reps = cfg.reps;
    eprintln!("measuring tandem J={jobs}, {reps} reps …");

    let mut metrics = Vec::new();
    let build = |jobs| {
        TandemModel::new(TandemConfig {
            jobs,
            ..TandemConfig::default()
        })
        .build_md_mrp_with_reward(TandemReward::Availability)
        .expect("tandem model builds")
    };
    metrics.push(measure("build.tandem", reps, || build(jobs)));

    let mrp = build(jobs);
    metrics.push(measure("lump.ordinary", reps, || {
        LumpRequest::new(LumpKind::Ordinary)
            .run(&mrp)
            .expect("tandem model lumps")
    }));
    let matrix = mrp.matrix();
    metrics.push(measure("compile.kernel", reps, || {
        CompiledMdMatrix::compile(matrix)
    }));
    let compiled = CompiledMdMatrix::compile(matrix);
    metrics.push(measure("kernel.walk.product", reps, || {
        products(matrix, sweeps)
    }));
    metrics.push(measure("kernel.compiled.product", reps, || {
        products(&compiled, sweeps)
    }));
    // The stationary solve runs on the lumped quotient: solving the
    // small chain is what lumping buys (and the unlumped J = 3 chain,
    // at 2.17M states, would drown the rest of the report).
    let lumped = LumpRequest::new(LumpKind::Ordinary)
        .run(&mrp)
        .expect("tandem model lumps");
    let lumped_compiled = CompiledMdMatrix::compile(lumped.mrp.matrix());
    metrics.push(measure("solve.stationary.lumped", reps, || {
        stationary_power(&lumped_compiled, &SolverOptions::default()).expect("lumped tandem solves")
    }));

    // Sweep economics, always at J = 1: the naive rebuild of five
    // points at J = 2 alone would outlast the rest of the report.
    let sweep_model = TandemModel::new(TandemConfig {
        jobs: 1,
        ..TandemConfig::default()
    });
    let sweep_reward = sweep_model
        .reward(TandemReward::Availability)
        .expect("reward builds");
    let sweep_base = sweep_model.composed();
    metrics.push(measure("sweep.naive", reps, || {
        naive_sweep(sweep_base, &sweep_reward)
    }));
    metrics.push(measure("sweep.cold", reps, || {
        cold_sweep(sweep_base, &sweep_reward)
    }));

    // Warm-open cost: re-opening the persisted kernel for a new run.
    // `warm_open.decode` is the copy path (read, checksum, copy every
    // slab); `warm_open.map` is the mmap(2) path (first open validates
    // and enters the store's mapping cache, every open after that
    // borrows the shared region). Both rows open the same `.mdlm` file.
    let warm_dir = std::env::temp_dir().join(format!("mdl-bench-warmopen-{}", std::process::id()));
    std::fs::remove_dir_all(&warm_dir).ok();
    let warm_store = Store::open(&warm_dir).expect("warm-open store opens");
    const WARM_KEY: u64 = 0xbead;
    warm_store
        .save(WARM_KEY, &KernelImage(compiled.to_parts()))
        .expect("kernel image saves");
    const OPENS: usize = 8;
    // One cold map up front: entering the mapping cache (the only FNV
    // pass the file will ever get) is not the warm path being measured.
    if cfg!(unix) {
        let _: Option<KernelImage> = warm_store.map(WARM_KEY).expect("cold map succeeds");
    }
    metrics.push(measure("warm_open.decode", reps, || {
        for _ in 0..OPENS {
            let img: KernelImage = warm_store
                .load(WARM_KEY)
                .expect("decode open succeeds")
                .expect("kernel image present");
            std::hint::black_box(&img);
        }
    }));
    if cfg!(unix) {
        metrics.push(measure("warm_open.map", reps, || {
            for _ in 0..OPENS {
                let img: KernelImage = warm_store
                    .map(WARM_KEY)
                    .expect("mapped open succeeds")
                    .expect("kernel image present");
                std::hint::black_box(&img);
            }
        }));
    }
    std::fs::remove_dir_all(&warm_dir).ok();

    // Observability no-op overheads: the disabled fast paths the whole
    // codebase leans on. Totals over 1M operations.
    const OPS: u64 = 1_000_000;
    let c = mdl_obs::counter("bench.noop.counter");
    metrics.push(measure("obs.noop.counter.1m", reps, || {
        for _ in 0..OPS {
            std::hint::black_box(&c).inc();
        }
    }));
    metrics.push(measure("obs.noop.failpoint.1m", reps, || {
        for _ in 0..OPS {
            std::hint::black_box(mdl_obs::failpoint::hit("bench.noop.fp"));
        }
    }));
    metrics
}

/// One baseline record parsed back out of a `BENCH_*.json` file.
struct BaselineMetric {
    wall_ns: u64,
    peak_bytes: u64,
}

fn load_baseline(path: &str) -> Result<Vec<(String, BaselineMetric)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc =
            json::parse(line).map_err(|e| format!("{path}:{}: invalid JSON: {e}", lineno + 1))?;
        if doc.get("type").and_then(Json::as_str) != Some("bench_metric") {
            continue;
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: bench_metric without name", lineno + 1))?;
        let wall_ns = doc.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
        let peak_bytes = doc.get("peak_bytes").and_then(Json::as_u64).unwrap_or(0);
        out.push((
            name.to_owned(),
            BaselineMetric {
                wall_ns,
                peak_bytes,
            },
        ));
    }
    if out.is_empty() {
        return Err(format!("{path}: no bench_metric records"));
    }
    Ok(out)
}

/// Compares fresh metrics against a baseline; returns the failures.
fn check(cfg: &Config, current: &[Metric], baseline_path: &str) -> Result<Vec<String>, String> {
    let baseline = load_baseline(baseline_path)?;
    let mut failures = Vec::new();
    println!();
    println!(
        "regression gate vs {baseline_path} (wall > +{:.0}%, peak mem > +{:.0}%):",
        cfg.max_wall_regress, cfg.max_mem_regress
    );
    for (name, base) in &baseline {
        let Some(cur) = current.iter().find(|m| m.name == name) else {
            println!("  {name:<28} missing from this run — skipped");
            continue;
        };
        let wall_pct = if base.wall_ns > 0 {
            (cur.wall_ns as f64 - base.wall_ns as f64) / base.wall_ns as f64 * 100.0
        } else {
            0.0
        };
        let mem_pct = if base.peak_bytes > 0 {
            (cur.peak_bytes as f64 - base.peak_bytes as f64) / base.peak_bytes as f64 * 100.0
        } else {
            0.0
        };
        let wall_bad = wall_pct > cfg.max_wall_regress;
        // Zero-peak baselines (tracking wasn't installed, or the metric
        // allocates nothing) can't gate memory.
        let mem_bad = base.peak_bytes > 0 && mem_pct > cfg.max_mem_regress;
        let verdict = if wall_bad || mem_bad { "FAIL" } else { "ok" };
        println!(
            "  {name:<28} wall {:>+8.1}%  peak {:>+8.1}%  {verdict}",
            wall_pct, mem_pct
        );
        if wall_bad {
            failures.push(format!(
                "{name}: wall time {} -> {} (+{wall_pct:.1}% > {:.0}%)",
                mdl_obs::fmt_nanos(base.wall_ns),
                mdl_obs::fmt_nanos(cur.wall_ns),
                cfg.max_wall_regress
            ));
        }
        if mem_bad {
            failures.push(format!(
                "{name}: peak memory {} -> {} (+{mem_pct:.1}% > {:.0}%)",
                mdl_obs::fmt_bytes(base.peak_bytes),
                mdl_obs::fmt_bytes(cur.peak_bytes),
                cfg.max_mem_regress
            ));
        }
    }
    Ok(failures)
}

/// The timing invariants of one run, printed always and enforced
/// whenever the gate runs: the mapped warm open beats the decode path
/// by at least 10x (the arena-image artifacts exist for this), and the
/// cold sweep beats naive repeated solves by at least 1.5x (the sweep
/// engine exists for this). Returns the violations.
fn invariants(metrics: &[Metric]) -> Vec<String> {
    let wall = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.wall_ns);
    let mut failures = Vec::new();
    if let (Some(decode), Some(map)) = (wall("warm_open.decode"), wall("warm_open.map")) {
        let ratio = decode as f64 / map.max(1) as f64;
        println!("warm_open: map {ratio:.1}x faster than decode");
        if ratio < 10.0 {
            failures.push(format!(
                "warm_open: map only {ratio:.1}x faster than decode (< 10x)"
            ));
        }
    }
    if let (Some(naive), Some(cold)) = (wall("sweep.naive"), wall("sweep.cold")) {
        // A margin, not a bare `cold < naive`: a sweep engine that
        // degrades to the naive path would pass that half the time.
        let ratio = naive as f64 / cold.max(1) as f64;
        println!("sweep: cold {ratio:.1}x faster than naive");
        if ratio < 1.5 {
            failures.push(format!(
                "sweep: cold only {ratio:.1}x faster than naive (< 1.5x)"
            ));
        }
    }
    failures
}

fn main() {
    let cfg = match config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let tracking = mdl_obs::set_mem_tracking(true);
    if !tracking {
        eprintln!("warning: counting allocator not installed; memory columns will be zero");
    }

    let metrics = run_measurements(&cfg);

    let mut lines = Vec::with_capacity(metrics.len() + 1);
    let mut meta = JsonObject::new();
    meta.str("type", "bench_meta")
        .str("rev", &cfg.rev)
        .u64("jobs", cfg.jobs as u64)
        .u64("reps", cfg.reps as u64)
        .bool("smoke", cfg.smoke)
        .bool("mem_tracking", tracking);
    lines.push(meta.close());
    println!(
        "{:<28} {:>12} {:>9} {:>12} {:>12}",
        "metric", "wall(med)", "spread", "peak mem", "alloc"
    );
    for m in &metrics {
        println!(
            "{:<28} {:>12} {:>8.1}% {:>12} {:>12}",
            m.name,
            mdl_obs::fmt_nanos(m.wall_ns),
            m.wall_spread_pct,
            mdl_obs::fmt_bytes(m.peak_bytes),
            mdl_obs::fmt_bytes(m.alloc_bytes),
        );
        lines.push(m.to_json(cfg.reps));
    }

    let out_path = cfg
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", cfg.rev));
    let mut file_content = String::new();
    for line in &lines {
        file_content.push_str(line);
        file_content.push('\n');
    }
    if let Err(e) = std::fs::write(&out_path, &file_content) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nbaseline written to {out_path}");
    emit_jsonl(&lines);

    let invariant_failures = invariants(&metrics);
    if let Some(baseline) = &cfg.check {
        let gate = check(&cfg, &metrics, baseline).map(|mut failures| {
            failures.extend(invariant_failures);
            failures
        });
        match gate {
            Ok(failures) if failures.is_empty() => {
                println!("gate OK: no regressions vs {baseline}");
            }
            Ok(failures) => {
                eprintln!("\nFAIL: {} regression(s) vs {baseline}:", failures.len());
                for f in &failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}
