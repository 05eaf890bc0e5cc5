//! Shared experiment harness for regenerating the paper's evaluation.
//!
//! The paper's evaluation is Table 1 plus quantitative claims in the
//! Section 5 prose; every binary in this crate regenerates one of them
//! (see `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results):
//!
//! * `table1` — the full Table 1 (sizes, node counts, reductions, times,
//!   memory) for `J ∈ {1, 2, 3}`;
//! * `optimality` — the Section 5 check that state-level lumping finds no
//!   further reduction on the compositionally lumped chain;
//! * `solution_cost` — solution-vector size, per-iteration time and
//!   measure agreement, lumped vs. unlumped;
//! * `ablation_key` — formal-sum vs. expanded-matrix key function
//!   (Section 4's rejected alternative);
//! * `scaling` — growth beyond the paper's `J ≤ 3` column.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use mdl_core::{LumpKind, LumpRequest, LumpResult, MdMrp};
use mdl_models::tandem::{TandemConfig, TandemModel, TandemReward};
use mdl_obs::json::JsonObject;

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct TandemRow {
    /// Number of jobs `J`.
    pub jobs: usize,
    /// Overall reachable states (unlumped).
    pub overall: u64,
    /// Per-level local state-space sizes `S₁, S₂, S₃`.
    pub level_sizes: Vec<usize>,
    /// MD nodes per level `N₁, N₂, N₃`.
    pub nodes_per_level: Vec<usize>,
    /// Overall lumped states.
    pub lumped_overall: u64,
    /// Per-level lumped sizes `Ŝ₁, Ŝ₂, Ŝ₃`.
    pub lumped_level_sizes: Vec<usize>,
    /// Overall reduction factor.
    pub reduction_overall: f64,
    /// Per-level reduction factors.
    pub reduction_per_level: Vec<f64>,
    /// State-space generation time (model build + MD + reachability).
    pub generation: Duration,
    /// Compositional lumping time.
    pub lumping: Duration,
    /// Unlumped symbolic memory (MD + MDD), bytes.
    pub memory_unlumped: usize,
    /// Lumped symbolic memory (MD + MDD), bytes.
    pub memory_lumped: usize,
}

/// Builds the tandem model for `jobs` and runs the full Table-1 pipeline.
///
/// # Panics
///
/// Panics if the model fails to build or lump (should not happen for the
/// supported configurations).
pub fn tandem_row(jobs: usize, reward: TandemReward) -> (TandemRow, MdMrp, LumpResult) {
    let t0 = Instant::now();
    let model = TandemModel::new(TandemConfig {
        jobs,
        ..TandemConfig::default()
    });
    let mrp = model
        .build_md_mrp_with_reward(reward)
        .expect("tandem model builds");
    let generation = t0.elapsed();

    let t1 = Instant::now();
    let result = LumpRequest::new(LumpKind::Ordinary)
        .run(&mrp)
        .expect("tandem model lumps");
    let lumping = t1.elapsed();

    let row = TandemRow {
        jobs,
        overall: mrp.matrix().reach().count(),
        level_sizes: model.level_sizes(),
        nodes_per_level: mrp.matrix().md().nodes_per_level(),
        lumped_overall: result.stats.lumped_states,
        lumped_level_sizes: result
            .stats
            .per_level
            .iter()
            .map(|l| l.lumped_size)
            .collect(),
        reduction_overall: result.stats.reduction_factor(),
        reduction_per_level: result
            .stats
            .per_level
            .iter()
            .map(|l| l.original_size as f64 / l.lumped_size as f64)
            .collect(),
        generation,
        lumping,
        memory_unlumped: result.stats.memory_before,
        memory_lumped: result.stats.memory_after,
    };
    (row, mrp, result)
}

impl TandemRow {
    /// Encodes the row as one line of JSON (the `BENCH_*.json` record
    /// format; see EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.str("type", "table1")
            .u64("jobs", self.jobs as u64)
            .u64("overall", self.overall)
            .raw("level_sizes", &json_usize_array(&self.level_sizes))
            .raw("nodes_per_level", &json_usize_array(&self.nodes_per_level))
            .u64("lumped_overall", self.lumped_overall)
            .raw(
                "lumped_level_sizes",
                &json_usize_array(&self.lumped_level_sizes),
            )
            .f64("reduction_overall", self.reduction_overall)
            .raw(
                "reduction_per_level",
                &json_f64_array(&self.reduction_per_level),
            )
            .u64("generation_ns", duration_ns(self.generation))
            .u64("lumping_ns", duration_ns(self.lumping))
            .u64("memory_unlumped", self.memory_unlumped as u64)
            .u64("memory_lumped", self.memory_lumped as u64);
        obj.close()
    }
}

/// Saturating nanosecond count of a duration.
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Renders a `usize` slice as a JSON array.
pub fn json_usize_array(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Renders an `f64` slice as a JSON array (non-finite entries become
/// `null`, matching `mdl_obs::json`).
pub fn json_f64_array(xs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        mdl_obs::json::write_f64(&mut out, *x);
    }
    out.push(']');
    out
}

/// Emits machine-readable rows alongside the human tables: one JSON
/// object per line to stdout, and appended to the file named by the
/// `MDL_BENCH_JSONL` environment variable when it is set (so sweeps can
/// accumulate a `BENCH_*.json` trajectory across invocations).
pub fn emit_jsonl(lines: &[String]) {
    if lines.is_empty() {
        return;
    }
    println!();
    println!("machine-readable (JSONL):");
    for line in lines {
        println!("{line}");
    }
    if let Ok(path) = std::env::var("MDL_BENCH_JSONL") {
        if path.is_empty() {
            return;
        }
        use std::io::Write as _;
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            Ok(mut f) => {
                for line in lines {
                    let _ = writeln!(f, "{line}");
                }
            }
            Err(e) => eprintln!("warning: cannot append bench JSONL to {path}: {e}"),
        }
    }
}

/// Formats a byte count the way the paper's Table 1 does (KB).
pub fn kb(bytes: usize) -> String {
    format!("{:.1} KB", bytes as f64 / 1024.0)
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3} s", d.as_secs_f64())
}

/// Prints the regenerated Table 1 next to the paper's reported values.
pub fn print_table1(rows: &[TandemRow]) {
    println!("Table 1 — MD representation of the tandem system's CTMC (reproduction)");
    println!("(paper values in brackets; see EXPERIMENTS.md for the shape discussion)");
    println!();
    println!("Unlumped state-space sizes and MD nodes:");
    println!(
        "{:>3} {:>12} {:>6} {:>8} {:>8}   {:>10}",
        "J", "overall", "S1", "S2", "S3", "N1/N2/N3"
    );
    let paper_top = [
        (1, 22_100u64, 2, 650, 160, "1/3/3"),
        (2, 197_600, 3, 3_575, 700, "1/5/4"),
        (3, 1_236_300, 4, 14_300, 2_220, "1/7/5"),
    ];
    for row in rows {
        let nodes = row
            .nodes_per_level
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "{:>3} {:>12} {:>6} {:>8} {:>8}   {:>10}",
            row.jobs,
            row.overall,
            row.level_sizes[0],
            row.level_sizes[1],
            row.level_sizes[2],
            nodes
        );
        if let Some(p) = paper_top.iter().find(|p| p.0 == row.jobs) {
            println!(
                "    [paper: overall={} S1={} S2={} S3={} N={}]",
                p.1, p.2, p.3, p.4, p.5
            );
        }
    }
    println!();
    println!("Lumped sizes and reductions:");
    println!(
        "{:>3} {:>12} {:>6} {:>8} {:>8}   {:>9} {:>7} {:>7}",
        "J", "lumped", "Ŝ1", "Ŝ2", "Ŝ3", "overall×", "l2×", "l3×"
    );
    let paper_mid = [
        (1, 395u64, 2, 30, 40, 55.9, 21.7, 4.0),
        (2, 4_075, 3, 178, 175, 48.4, 20.4, 4.0),
        (3, 28_090, 4, 803, 555, 44.0, 17.8, 4.0),
    ];
    for row in rows {
        println!(
            "{:>3} {:>12} {:>6} {:>8} {:>8}   {:>9.1} {:>7.1} {:>7.1}",
            row.jobs,
            row.lumped_overall,
            row.lumped_level_sizes[0],
            row.lumped_level_sizes[1],
            row.lumped_level_sizes[2],
            row.reduction_overall,
            row.reduction_per_level[1],
            row.reduction_per_level[2],
        );
        if let Some(p) = paper_mid.iter().find(|p| p.0 == row.jobs) {
            println!(
                "    [paper: lumped={} Ŝ1={} Ŝ2={} Ŝ3={} overall×{} l2×{} l3×{}]",
                p.1, p.2, p.3, p.4, p.5, p.6, p.7
            );
        }
    }
    println!();
    println!("Times and symbolic memory:");
    println!(
        "{:>3} {:>12} {:>12} {:>12} {:>12}",
        "J", "gen time", "MD space", "lump time", "lumped space"
    );
    let paper_bottom = [
        (1, "0.05 s", "53.9 KB", "0.04 s", "4.7 KB"),
        (2, "0.80 s", "421.0 KB", "0.26 s", "36.0 KB"),
        (3, "12.10 s", "2230.0 KB", "1.80 s", "201.0 KB"),
    ];
    for row in rows {
        println!(
            "{:>3} {:>12} {:>12} {:>12} {:>12}",
            row.jobs,
            secs(row.generation),
            kb(row.memory_unlumped),
            secs(row.lumping),
            kb(row.memory_lumped),
        );
        if let Some(p) = paper_bottom.iter().find(|p| p.0 == row.jobs) {
            println!(
                "    [paper: gen={} md={} lump={} lumped={}]",
                p.1, p.2, p.3, p.4
            );
        }
    }
}

/// Parses the `J` list from argv (defaults to `1 2 3`).
pub fn jobs_from_args() -> Vec<usize> {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    if args.is_empty() {
        vec![1, 2, 3]
    } else {
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the sizes of the regenerated Table 1 (EXPERIMENTS.md) at
    /// J = 1 and J = 2: overall and per-level state counts and MD nodes
    /// per level, unlumped, then lumped.
    #[test]
    fn tandem_row_smoke() {
        let table = [
            (1, 40_256, [3, 333, 512], [1, 6, 4], 505, [3, 45, 35]),
            (
                2,
                355_200,
                [6, 1_665, 2_112],
                [1, 6, 4],
                3_930,
                [6, 207, 135],
            ),
        ];
        for (jobs, overall, levels, nodes, lumped, lumped_levels) in table {
            let (row, mrp, result) = tandem_row(jobs, TandemReward::Availability);
            assert_eq!(row.jobs, jobs);
            assert_eq!(row.overall, mrp.matrix().reach().count());
            assert_eq!(row.lumped_overall, result.stats.lumped_states);
            assert_eq!(row.overall, overall, "J = {jobs}");
            assert_eq!(row.level_sizes, levels, "J = {jobs}");
            assert_eq!(row.nodes_per_level, nodes, "J = {jobs}");
            assert_eq!(row.lumped_overall, lumped, "J = {jobs}");
            assert_eq!(row.lumped_level_sizes, lumped_levels, "J = {jobs}");
            assert!(row.reduction_overall > 1.0);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(2048), "2.0 KB");
        assert!(secs(Duration::from_millis(1500)).starts_with("1.500"));
        assert_eq!(json_usize_array(&[1, 2, 3]), "[1,2,3]");
        assert_eq!(json_f64_array(&[0.5, f64::NAN]), "[0.5,null]");
        assert_eq!(duration_ns(Duration::from_micros(2)), 2_000);
    }

    #[test]
    fn tandem_row_json_is_one_line_with_all_fields() {
        let (row, _, _) = tandem_row(1, TandemReward::Availability);
        let json = row.to_json();
        assert!(!json.contains('\n'));
        for key in [
            "\"type\":\"table1\"",
            "\"jobs\":1",
            "\"level_sizes\":[",
            "\"generation_ns\":",
            "\"memory_lumped\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
