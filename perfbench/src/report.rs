//! The metric catalog and the result line.
//!
//! Every workload reports every metric of the catalog: the end-to-end
//! set on untraced runs, the per-layer set on traced runs. A layer that
//! does no work in a workload reports 0 for it.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics: name, unit. Each workload defines its unit of
/// work ("op"); see `README.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("lumped_states", "states"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Size classes of request and model texts.
pub const SIZE_CLASSES: [&str; 3] = ["2-8kb", "8-20kb", "20-48kb"];

/// The size class of a text of `bytes` bytes.
pub fn size_class(bytes: usize) -> &'static str {
    match bytes {
        0..=8_191 => SIZE_CLASSES[0],
        8_192..=20_479 => SIZE_CLASSES[1],
        _ => SIZE_CLASSES[2],
    }
}

/// Per-layer metrics: name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 27] = [
        ("models.reach_s", "s"),
        ("mdd.reach_states", "states"),
        ("md.build_s", "s"),
        ("md.compile_s", "s"),
        ("md.compile_interval_s", "s"),
        ("core.lump_s", "s"),
        ("core.lump_tol_s", "s"),
        ("core.reduction", "ratio"),
        ("core.sweep.relump_s", "s"),
        ("core.sweep.levels_reused_ratio", "ratio"),
        ("ctmc.solve_s", "s"),
        ("ctmc.iterations", "count"),
        ("ctmc.iter_us", "us"),
        ("ctmc.transient_s", "s"),
        ("ctmc.transient_steps", "count"),
        ("ctmc.attempts", "count"),
        ("ctmc.bounds_s", "s"),
        ("ctmc.bounds_iterations", "count"),
        ("ctmc.bounds_iter_us", "us"),
        ("store.persist_s", "s"),
        ("store.restore_s", "s"),
        ("store.write_bytes", "bytes"),
        ("store.hit_ratio", "ratio"),
        ("store.invalid", "count"),
        ("serve.shed", "count"),
        ("serve.error", "count"),
        ("layer_coverage_pct", "%"),
    ];
    let mut out: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for class in SIZE_CLASSES {
        out.push((format!("cli.parse_model_us.{class}"), "us"));
        out.push((format!("serve.parse_request_us.{class}"), "us"));
    }
    for class in ["hot", "novel", "bounds"] {
        for part in ["wire_ms", "server_ms"] {
            for stat in ["p50", "tail"] {
                out.push((format!("serve.{part}.{class}.{stat}"), "ms"));
            }
        }
    }
    out.push(("trace_overhead_pct".to_string(), "%"));
    out
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Unit of a workload-named metric (catalog metrics take theirs from
    /// the catalog).
    pub unit: &'static str,
    /// Samples it summarizes (1 for a single measurement or a count).
    pub samples: usize,
    /// Optional qualifier printed in the human-readable report, such as
    /// which percentile a tail is.
    pub note: String,
}

/// Metrics measured by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Value>);

impl Metrics {
    /// Records the catalog metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.insert(name, value, "", samples, "");
    }

    /// Records the workload-named metric `name` in `unit`.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.insert(name, value, unit, samples, "");
    }

    /// Records `name` with a qualifier for the human-readable report.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.0.insert(
            name.into(),
            Value {
                value,
                unit,
                samples,
                note: note.to_string(),
            },
        );
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that errored, were shed, or failed their check.
    pub failed: usize,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Catalog metrics (end-to-end or per-layer, by run mode).
    pub metrics: Metrics,
    /// Workload-named metrics printed in the human-readable report only.
    pub named: Metrics,
}

impl Outcome {
    /// Counts one attempted operation and its check result.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.fail(reason);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }
}

/// Formats a finite number with all its digits (shortest round trip).
fn number(x: f64) -> String {
    assert!(x.is_finite(), "metric values must be finite, got {x}");
    format!("{x:?}")
}

/// The human-readable report lines followed by the result line, for the
/// catalog `catalog`. Errors name any catalog metric the run failed to
/// measure.
pub fn render(
    workload: &str,
    outcome: &Outcome,
    catalog: &[(String, &str)],
) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {workload}: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for reason in &outcome.failures {
        let _ = writeln!(out, "  failure: {reason}");
    }
    for (name, v) in &outcome.named.0 {
        let _ = writeln!(
            out,
            "  {name:<34} {:>14} {:<6} (n={}){}",
            shown(v.value),
            v.unit,
            v.samples,
            suffix(&v.note)
        );
    }
    let mut metrics = String::new();
    for (name, unit) in catalog {
        let v = outcome
            .metrics
            .0
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", v.value));
        }
        let _ = writeln!(
            out,
            "  {name:<34} {:>14} {unit:<6} (n={}){}",
            shown(v.value),
            v.samples,
            suffix(&v.note)
        );
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v.value)
        );
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(out)
}

/// A value for the human-readable report: fixed point unless it is
/// very small or very large.
fn shown(x: f64) -> String {
    if x == 0.0 || (1e-3..1e9).contains(&x.abs()) {
        format!("{x:.6}")
    } else {
        format!("{x:.6e}")
    }
}

fn suffix(note: &str) -> String {
    if note.is_empty() {
        String::new()
    } else {
        format!("  {note}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_last_line_and_parses() {
        let mut o = Outcome::default();
        o.record(Ok(()));
        o.record(Err("bad".into()));
        let catalog: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        for (n, _) in &catalog {
            o.metrics.set(n.clone(), 1.25, 3);
        }
        let text = render("w", &o, &catalog).unwrap();
        let last = text.lines().last().unwrap();
        let v = mdl_obs::json::parse(last).unwrap();
        assert_eq!(v.get("correct").and_then(|j| j.as_bool()), Some(false));
        assert_eq!(v.get("attempted").and_then(|j| j.as_u64()), Some(2));
        assert_eq!(v.get("failed").and_then(|j| j.as_u64()), Some(1));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(|j| j.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|j| j.as_str()), Some("s"));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let catalog = vec![("a".to_string(), "s"), ("b".to_string(), "s")];
        let mut o = Outcome::default();
        o.metrics.set("a", 1.0, 1);
        assert!(render("w", &o, &catalog).is_err());
        o.metrics.set("b", f64::NAN, 1);
        assert!(render("w", &o, &catalog).is_err());
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = mdl_obs::json::parse(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |c: &[(String, &str)]| -> Vec<(String, String)> {
            c.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
        };
        let e2e: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(declared("end_to_end"), owned(&e2e));
        assert_eq!(declared("per_layer"), owned(&per_layer()));
    }

    #[test]
    fn catalog_names_fit_the_naming_rules() {
        let layers = per_layer();
        let mut names: Vec<String> = layers.iter().map(|(n, _)| n.clone()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "names are unique");
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(layers.len() <= 128);
    }
}
