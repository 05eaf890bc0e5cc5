//! Seeded end-to-end and per-layer benchmark of the mdlump stack.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `tandem_solve` and `serve_mixed` (see `README.md` for why
//! each exists). An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) switches the program's own instrumentation on for
//! every other operation and reports the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Scratch files (stores, daemon caches) live under `.perfbench_work/`
//! in the current directory and are removed before exit.

mod certify;
mod check;
mod common;
mod gen;
mod report;
mod rng;
mod serve_mixed;
mod stats;
mod sweep;
mod tandem_solve;

use std::process::ExitCode;
use std::time::Duration;

use common::Config;
use report::Outcome;

const WORKLOADS: [&str; 2] = ["tandem_solve", "serve_mixed"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let work_dir = std::path::PathBuf::from(".perfbench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let cfg = Config {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let catalog: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut outcome = Outcome::default();
    if args.trace {
        // Layers a workload does not exercise read 0.
        for (name, _) in &catalog {
            outcome.metrics.set(name.clone(), 0.0, 0);
        }
    }
    let result = match args.workload.as_str() {
        "tandem_solve" => tandem_solve::run(&cfg, &mut outcome),
        "serve_mixed" => serve_mixed::run(&cfg, &mut outcome),
        _ => unreachable!("validated in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    result?;
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome
        .named
        .named("fail_frac", fail_frac, "ratio", outcome.attempted);
    report::render(&args.workload, &outcome, &catalog)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = parse_args(&args(
            "--workload tandem_solve --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tandem_solve", 7, 10, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload serve_mixed --seed x --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload serve_mixed --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload serve_mixed --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve_mixed --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = mdl_obs::json::parse(&text).unwrap();
        let declared: Vec<&str> = spec
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(declared, WORKLOADS);
    }
}
