//! Small, testable parsers for `mdlump-cli` flags: valued flags with
//! explicit missing/invalid-value errors, and the observability options
//! (`--trace`, `--metrics`, `--metrics-out`) shared by all subcommands.

/// Every flag `mdlump-cli` accepts, across its subcommands.
pub const CLI_FLAGS: &[&str] = &[
    "--exact",
    "--iterate",
    "--tolerance",
    "--threads",
    "--deadline",
    "--transient",
    "--accumulated",
    "--bounds",
    "--kernel",
    "--fallback",
    "--report",
    "--cache-dir",
    "--checkpoint-every",
    "--resume",
    "--set",
    "--sweep-out",
    "--horizon",
    "--reps",
    "--seed",
    "--trace",
    "--metrics",
    "--metrics-out",
    "--profile",
    "--profile-out",
];

/// Every flag `mdl-serve` accepts.
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--queue",
    "--tenant-cap",
    "--solve-threads",
    "--default-deadline",
    "--max-deadline",
    "--cache-dir",
    "--metrics",
    "--help",
];

/// Rejects the first `--`-prefixed token in `flags` that `known` does
/// not list. No flag value starts with `--` (see [`value_of`]), so every
/// such token is a flag, and a mistyped one must fail rather than leave
/// its setting at the default.
///
/// # Errors
///
/// "unknown flag `<token>`" for the first flag not in `known`.
pub fn check_known_flags(flags: &[String], known: &[&str]) -> Result<(), String> {
    match flags
        .iter()
        .find(|f| f.starts_with("--") && !known.contains(&f.as_str()))
    {
        Some(unknown) => Err(format!("unknown flag {unknown}")),
        None => Ok(()),
    }
}

/// Format of the metrics report and streamed events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Aligned human-readable text.
    Pretty,
    /// One JSON object per line.
    Json,
}

/// Parsed observability options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsFlags {
    /// `--trace`: stream span-start and point events too.
    pub trace: bool,
    /// `--metrics pretty|json`: emit span events and a final counter and
    /// timing report in this format.
    pub metrics: Option<MetricsFormat>,
    /// `--metrics-out FILE`: write the metrics/trace stream to `FILE`
    /// instead of stderr.
    pub out: Option<String>,
}

impl ObsFlags {
    /// `true` when any observability output was requested.
    pub fn active(&self) -> bool {
        self.trace || self.metrics.is_some()
    }

    /// The effective format: explicit `--metrics`, or pretty when only
    /// `--trace` was given.
    pub fn format(&self) -> MetricsFormat {
        self.metrics.unwrap_or(MetricsFormat::Pretty)
    }
}

/// Extracts `--trace`, `--metrics` and `--metrics-out` from `flags`.
///
/// # Errors
///
/// A message naming the flag for a missing value or an unknown format.
pub fn parse_obs_flags(flags: &[String]) -> Result<ObsFlags, String> {
    let metrics = match value_of(flags, "--metrics")? {
        None => None,
        Some("pretty") => Some(MetricsFormat::Pretty),
        Some("json") => Some(MetricsFormat::Json),
        Some(other) => {
            return Err(format!(
                "--metrics: expected `pretty` or `json`, got {other:?}"
            ))
        }
    };
    let out = value_of(flags, "--metrics-out")?.map(String::from);
    let trace = flags.iter().any(|f| f == "--trace");
    Ok(ObsFlags {
        trace,
        metrics,
        out,
    })
}

/// Extracts `--kernel walk|compiled` and `--threads N` from `flags`.
///
/// Defaults: the compiled kernel with `threads = 0` (one worker per
/// available hardware thread), so callers never hardcode worker counts.
///
/// # Errors
///
/// A message naming the flag for a missing value or an unknown kernel.
pub fn parse_kernel_flags(flags: &[String]) -> Result<mdl_core::KernelOptions, String> {
    use mdl_core::{KernelKind, KernelOptions};
    let kind = match value_of(flags, "--kernel")? {
        None | Some("compiled") => KernelKind::Compiled,
        Some("walk") => KernelKind::Walk,
        Some(other) => {
            return Err(format!(
                "--kernel: expected `walk` or `compiled`, got {other:?}"
            ))
        }
    };
    let threads = flag_threads(flags)?.unwrap_or(0);
    Ok(KernelOptions { kind, threads })
}

/// Parses `--threads N`, requiring `N >= 1`: an explicit `--threads 0`
/// is rejected rather than silently meaning "auto" (omit the flag for
/// one worker per hardware thread).
///
/// # Errors
///
/// Explicit messages for a missing, non-integer or zero value.
pub fn flag_threads(flags: &[String]) -> Result<Option<usize>, String> {
    match flag_u64(flags, "--threads")? {
        Some(0) => Err(
            "--threads: must be at least 1 (omit the flag for one worker per hardware thread)"
                .into(),
        ),
        other => Ok(other.map(|n| n as usize)),
    }
}

/// Parses the value of `flag` as a count that must be at least 1
/// (`--reps 0` would silently do nothing — reject it instead).
///
/// # Errors
///
/// Explicit messages for a missing, non-integer or zero value.
pub fn flag_count(flags: &[String], flag: &str) -> Result<Option<u64>, String> {
    match flag_u64(flags, flag)? {
        Some(0) => Err(format!("{flag}: must be at least 1, got 0")),
        other => Ok(other),
    }
}

/// Parses the value of `flag` as a non-negative finite `f64` — time
/// points like `--transient T` and `--accumulated T` have no meaning
/// before 0.
///
/// # Errors
///
/// Explicit messages for a missing, non-numeric, non-finite or negative
/// value.
pub fn flag_f64_nonneg(flags: &[String], flag: &str) -> Result<Option<f64>, String> {
    match flag_f64(flags, flag)? {
        Some(x) if x < 0.0 => Err(format!("{flag}: must be non-negative, got {x}")),
        other => Ok(other),
    }
}

/// Parses the value of `flag` as a strictly positive finite `f64` — a
/// `--horizon 0` simulation observes nothing.
///
/// # Errors
///
/// Explicit messages for a missing, non-numeric, non-finite, zero or
/// negative value.
pub fn flag_f64_positive(flags: &[String], flag: &str) -> Result<Option<f64>, String> {
    match flag_f64(flags, flag)? {
        Some(x) if x <= 0.0 => Err(format!("{flag}: must be positive, got {x}")),
        other => Ok(other),
    }
}

/// The value following `flag`, if present. A missing value — end of the
/// argument list, or another `--flag` where the value should be — is an
/// explicit error rather than silent misparsing.
///
/// # Errors
///
/// "`<flag>` needs a value" when the flag is present without one.
pub fn value_of<'a>(flags: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match flags.iter().position(|f| f == flag) {
        None => Ok(None),
        Some(i) => match flags.get(i + 1).map(String::as_str) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("{flag} needs a value")),
        },
    }
}

/// The one checked-parse path every valued flag goes through: looks up
/// `flag`'s value (missing values are explicit errors via [`value_of`])
/// and runs it through `parse`, prefixing any parse failure with the
/// flag name so the user always learns *which* flag was malformed.
///
/// # Errors
///
/// "`<flag>` needs a value" for a present flag without a value, and
/// "`<flag>`: `<why>`" when `parse` rejects the value.
pub fn flag_parsed<T>(
    flags: &[String],
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match value_of(flags, flag)? {
        None => Ok(None),
        Some(v) => parse(v).map(Some).map_err(|why| format!("{flag}: {why}")),
    }
}

/// Parses the value of `flag` as a finite `f64`.
///
/// # Errors
///
/// Explicit messages for a missing value, a non-numeric value, and a
/// non-finite value.
pub fn flag_f64(flags: &[String], flag: &str) -> Result<Option<f64>, String> {
    flag_parsed(flags, flag, |v| {
        let x: f64 = v
            .parse()
            .map_err(|_| format!("invalid value {v:?} (expected a number)"))?;
        if !x.is_finite() {
            return Err(format!("value must be finite, got {v:?}"));
        }
        Ok(x)
    })
}

/// Parsed profiling options (any subcommand).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileFlags {
    /// `--profile`: collect a timeline and render the aggregated span
    /// tree (inclusive/exclusive time, call counts, alloc deltas) to
    /// stderr at exit.
    pub profile: bool,
    /// `--profile-out FILE`: write the timeline as Chrome trace-event
    /// JSON to `FILE` (loadable in Perfetto / `chrome://tracing`).
    pub out: Option<String>,
}

impl ProfileFlags {
    /// `true` when any profiling output was requested.
    pub fn active(&self) -> bool {
        self.profile || self.out.is_some()
    }
}

/// Extracts `--profile` and `--profile-out` from `flags`.
///
/// # Errors
///
/// "`--profile-out` needs a value" when the flag is present without one.
pub fn parse_profile_flags(flags: &[String]) -> Result<ProfileFlags, String> {
    Ok(ProfileFlags {
        profile: flags.iter().any(|f| f == "--profile"),
        out: value_of(flags, "--profile-out")?.map(String::from),
    })
}

/// Parsed resilience options shared by the long-running subcommands.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceFlags {
    /// `--deadline DUR`: wall-clock budget for the whole run.
    pub deadline: Option<std::time::Duration>,
    /// `--fallback`: solve through the resilient `(method, kernel)`
    /// fallback ladder instead of a single configuration.
    pub fallback: bool,
    /// `--report`: append the per-attempt run report to the output.
    pub report: bool,
}

impl ResilienceFlags {
    /// The compute budget these flags describe: a deadline when
    /// `--deadline` was given, unlimited otherwise.
    pub fn budget(&self) -> mdl_obs::Budget {
        match self.deadline {
            Some(d) => mdl_obs::Budget::unlimited().deadline_in(d),
            None => mdl_obs::Budget::unlimited(),
        }
    }
}

/// Extracts `--deadline DUR`, `--fallback` and `--report` from `flags`.
///
/// # Errors
///
/// A message naming the flag for a missing or malformed value, and for
/// `--report` without `--fallback` or `--bounds` (there is no attempt
/// log to report).
pub fn parse_resilience_flags(flags: &[String]) -> Result<ResilienceFlags, String> {
    let deadline = flag_duration(flags, "--deadline")?;
    let fallback = flags.iter().any(|f| f == "--fallback");
    let report = flags.iter().any(|f| f == "--report");
    // Bounds runs carry a per-sweep attempt log of their own, so
    // `--report` is meaningful there without the fallback ladder.
    if report && !fallback && !flags.iter().any(|f| f == "--bounds") {
        return Err("--report needs --fallback or --bounds (it renders the attempt log)".into());
    }
    Ok(ResilienceFlags {
        deadline,
        fallback,
        report,
    })
}

/// Parses the value of `flag` as a duration: a non-negative number with
/// an optional `us`, `ms` or `s` suffix (bare numbers are seconds), e.g.
/// `--deadline 250ms` or `--deadline 1.5`.
///
/// # Errors
///
/// Explicit messages for a missing value, an unknown unit, and a
/// negative or non-finite amount.
pub fn flag_duration(flags: &[String], flag: &str) -> Result<Option<std::time::Duration>, String> {
    flag_parsed(flags, flag, |v| {
        let (number, scale) = if let Some(n) = v.strip_suffix("us") {
            (n, 1e-6)
        } else if let Some(n) = v.strip_suffix("ms") {
            (n, 1e-3)
        } else if let Some(n) = v.strip_suffix('s') {
            (n, 1.0)
        } else {
            (v, 1.0)
        };
        let x: f64 = number.parse().map_err(|_| {
            format!("invalid duration {v:?} (expected e.g. `250ms`, `1.5s` or seconds)")
        })?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!(
                "duration must be finite and non-negative, got {v:?}"
            ));
        }
        Ok(std::time::Duration::from_secs_f64(x * scale))
    })
}

/// Parses `--tolerance exact|N` into the lumping comparison tolerance:
/// `exact` compares rates bit-for-bit, an integer `N` compares them
/// rounded to `N` decimal digits. Absent means the library default (9
/// digits). Looser tolerances lump more aggressively; `--bounds`
/// certifies exactly what the absorbed deviations can do to the measure.
///
/// # Errors
///
/// Explicit messages for a missing value and anything that is neither
/// `exact` nor a small non-negative integer.
pub fn flag_tolerance(flags: &[String]) -> Result<Option<mdl_linalg::Tolerance>, String> {
    flag_parsed(flags, "--tolerance", |v| match v {
        "exact" => Ok(mdl_linalg::Tolerance::Exact),
        _ => v
            .parse::<u32>()
            .map(mdl_linalg::Tolerance::Decimals)
            .map_err(|_| format!("expected `exact` or a number of decimal digits, got {v:?}")),
    })
}

/// Parses the value of `flag` as a `u64` (also used for counts, which
/// must be whole — `--reps 2.7` is rejected rather than truncated).
///
/// # Errors
///
/// Explicit messages for a missing or non-integer value.
pub fn flag_u64(flags: &[String], flag: &str) -> Result<Option<u64>, String> {
    flag_parsed(flags, flag, |v| {
        v.parse()
            .map_err(|_| format!("invalid value {v:?} (expected a non-negative integer)"))
    })
}

/// Parsed artifact-cache and checkpoint/resume options for the staged
/// pipeline. All default to off: caching only activates when a cache
/// directory is configured, by flag or environment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineFlags {
    /// The artifact cache directory: `--cache-dir DIR`, falling back to
    /// the `MDL_CACHE` environment variable. `None` disables caching.
    pub cache_dir: Option<std::path::PathBuf>,
    /// `--checkpoint-every N`: snapshot long solves into the cache every
    /// `N` iterations (stationary) or uniformization steps (transient).
    pub checkpoint_every: Option<u64>,
    /// `--resume`: continue an interrupted solve from its snapshot.
    pub resume: bool,
}

/// The environment variable naming a default cache directory when
/// `--cache-dir` is not given.
pub const CACHE_ENV_VAR: &str = "MDL_CACHE";

/// Extracts `--cache-dir DIR`, `--checkpoint-every N` and `--resume`
/// from `flags`. `env_cache` is the value of [`CACHE_ENV_VAR`] (passed
/// in, not read here, so tests stay hermetic); an explicit `--cache-dir`
/// wins over it, and an empty value reads as unset.
///
/// # Errors
///
/// A message naming the flag for a missing or malformed value, and for
/// `--checkpoint-every` / `--resume` without a cache directory — both
/// store their snapshots there, so without one they silently would do
/// nothing.
pub fn parse_pipeline_flags(
    flags: &[String],
    env_cache: Option<&str>,
) -> Result<PipelineFlags, String> {
    let explicit = flag_parsed(flags, "--cache-dir", |v| Ok(std::path::PathBuf::from(v)))?;
    let cache_dir = explicit.or_else(|| {
        env_cache
            .filter(|v| !v.trim().is_empty())
            .map(std::path::PathBuf::from)
    });
    let checkpoint_every = flag_count(flags, "--checkpoint-every")?;
    let resume = flags.iter().any(|f| f == "--resume");
    if cache_dir.is_none() {
        if checkpoint_every.is_some() {
            return Err(format!(
                "--checkpoint-every needs a cache directory (--cache-dir DIR or {CACHE_ENV_VAR}) to write snapshots into"
            ));
        }
        if resume {
            return Err(format!(
                "--resume needs a cache directory (--cache-dir DIR or {CACHE_ENV_VAR}) to read snapshots from"
            ));
        }
    }
    Ok(PipelineFlags {
        cache_dir,
        checkpoint_every,
        resume,
    })
}

/// Extracts every `--set name=lo:hi:count` / `--set name=value` axis
/// from `flags`, in order. Each grid spec is an **inclusive** linspace
/// (`mu=0.5:2.0:16` is 16 points from 0.5 to 2.0, both ends included);
/// multiple `--set` flags sweep their Cartesian product. Values must be
/// positive and finite — they re-rate events, and positive rates are
/// what keeps reachability sweep-invariant.
///
/// # Errors
///
/// Explicit messages for a missing value, a malformed spec, a
/// non-positive or non-finite number, and a grid count below 2.
pub fn parse_sweep_axes(flags: &[String]) -> Result<Vec<(String, Vec<f64>)>, String> {
    let mut axes = Vec::new();
    let mut i = 0;
    while i < flags.len() {
        if flags[i] == "--set" {
            let spec = match flags.get(i + 1).map(String::as_str) {
                Some(v) if !v.starts_with("--") => v,
                _ => return Err("--set needs a value (e.g. --set mu=0.5:2.0:16)".into()),
            };
            axes.push(parse_sweep_axis(spec).map_err(|why| format!("--set: {why}"))?);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(axes)
}

fn parse_sweep_axis(spec: &str) -> Result<(String, Vec<f64>), String> {
    let (name, range) = spec
        .split_once('=')
        .ok_or_else(|| format!("expected name=lo:hi:count or name=value, got {spec:?}"))?;
    if name.is_empty() {
        return Err(format!("missing event name in {spec:?}"));
    }
    let rate = |s: &str| -> Result<f64, String> {
        let x: f64 = s
            .parse()
            .map_err(|_| format!("invalid number {s:?} in {spec:?}"))?;
        if !(x.is_finite() && x > 0.0) {
            return Err(format!(
                "rates must be positive and finite, got {s:?} in {spec:?}"
            ));
        }
        Ok(x)
    };
    let parts: Vec<&str> = range.split(':').collect();
    let values = match parts.as_slice() {
        [v] => vec![rate(v)?],
        [lo, hi, count] => {
            let lo = rate(lo)?;
            let hi = rate(hi)?;
            let count: usize = count
                .parse()
                .map_err(|_| format!("invalid count {count:?} in {spec:?}"))?;
            if count < 2 {
                return Err(format!(
                    "count must be at least 2 in {spec:?} (use {name}=value for a single point)"
                ));
            }
            // Inclusive linspace; interior points are convex combinations
            // of two positive endpoints, so positivity is preserved.
            (0..count)
                .map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64)
                .collect()
        }
        _ => {
            return Err(format!(
                "expected name=lo:hi:count or name=value, got {spec:?}"
            ))
        }
    };
    Ok((name.to_string(), values))
}

/// Parsed `mdl-serve` daemon options. Defaults are production-shaped:
/// loopback bind, small worker pool, bounded queue, per-tenant caps and
/// a default per-request deadline — an unconfigured daemon is already
/// overload-safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFlags {
    /// `--addr HOST:PORT`: bind address (port `0` picks a free port).
    pub addr: String,
    /// `--workers N`: solver worker threads.
    pub workers: usize,
    /// `--queue N`: bounded admission queue length.
    pub queue_limit: usize,
    /// `--tenant-cap N`: per-tenant in-flight (queued + executing) cap.
    pub tenant_cap: usize,
    /// `--solve-threads N`: threads each individual solve may use.
    pub solve_threads: usize,
    /// `--default-deadline DUR`: deadline for requests that name none.
    pub default_deadline: Option<std::time::Duration>,
    /// `--max-deadline DUR`: clamp on client-requested deadlines.
    pub max_deadline: Option<std::time::Duration>,
    /// `--cache-dir DIR` (or [`CACHE_ENV_VAR`]): shared artifact store.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServeFlags {
    fn default() -> Self {
        ServeFlags {
            addr: "127.0.0.1:7117".into(),
            workers: 2,
            queue_limit: 32,
            tenant_cap: 8,
            solve_threads: 1,
            default_deadline: Some(std::time::Duration::from_secs(30)),
            max_deadline: Some(std::time::Duration::from_secs(300)),
            cache_dir: None,
        }
    }
}

/// Extracts the `mdl-serve` flags. `env_cache` is the value of
/// [`CACHE_ENV_VAR`] (passed in for hermetic tests); an explicit
/// `--cache-dir` wins over it. `--default-deadline 0` / `--max-deadline
/// 0` disable the respective bound (an explicitly unlimited server).
///
/// # Errors
///
/// A message naming the flag for any unknown flag, and for any missing,
/// malformed or zero-valued count (`--workers 0` cannot serve anything).
pub fn parse_serve_flags(flags: &[String], env_cache: Option<&str>) -> Result<ServeFlags, String> {
    check_known_flags(flags, SERVE_FLAGS)?;
    let defaults = ServeFlags::default();
    let positive = |flag: &'static str| -> Result<Option<usize>, String> {
        match flag_count(flags, flag)? {
            Some(0) => Err(format!("{flag} must be at least 1")),
            Some(n) => Ok(Some(n as usize)),
            None => Ok(None),
        }
    };
    let deadline = |flag: &'static str,
                    default: Option<std::time::Duration>|
     -> Result<Option<std::time::Duration>, String> {
        Ok(match flag_duration(flags, flag)? {
            Some(d) if d.is_zero() => None,
            Some(d) => Some(d),
            None => default,
        })
    };
    let explicit_cache = flag_parsed(flags, "--cache-dir", |v| Ok(std::path::PathBuf::from(v)))?;
    Ok(ServeFlags {
        addr: value_of(flags, "--addr")?
            .map(String::from)
            .unwrap_or(defaults.addr),
        workers: positive("--workers")?.unwrap_or(defaults.workers),
        queue_limit: positive("--queue")?.unwrap_or(defaults.queue_limit),
        tenant_cap: positive("--tenant-cap")?.unwrap_or(defaults.tenant_cap),
        solve_threads: positive("--solve-threads")?.unwrap_or(defaults.solve_threads),
        default_deadline: deadline("--default-deadline", defaults.default_deadline)?,
        max_deadline: deadline("--max-deadline", defaults.max_deadline)?,
        cache_dir: explicit_cache.or_else(|| {
            env_cache
                .filter(|v| !v.trim().is_empty())
                .map(std::path::PathBuf::from)
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flags_parse_to_none() {
        let flags = args(&["--exact"]);
        assert_eq!(flag_f64(&flags, "--transient").unwrap(), None);
        assert_eq!(flag_u64(&flags, "--reps").unwrap(), None);
        assert_eq!(parse_obs_flags(&flags).unwrap(), ObsFlags::default());
        let pf = parse_profile_flags(&flags).unwrap();
        assert_eq!(pf, ProfileFlags::default());
        assert!(!pf.active());
    }

    #[test]
    fn profile_flags_parse() {
        let pf = parse_profile_flags(&args(&["--profile"])).unwrap();
        assert!(pf.profile && pf.out.is_none() && pf.active());
        let pf = parse_profile_flags(&args(&["--profile-out", "trace.json"])).unwrap();
        assert!(!pf.profile);
        assert_eq!(pf.out.as_deref(), Some("trace.json"));
        assert!(pf.active(), "--profile-out alone enables profiling");
        let e = parse_profile_flags(&args(&["--profile-out", "--exact"])).unwrap_err();
        assert!(e.contains("--profile-out needs a value"), "{e}");
    }

    #[test]
    fn valued_flags_parse() {
        let flags = args(&["--transient", "2.5", "--reps", "40", "--seed", "7"]);
        assert_eq!(flag_f64(&flags, "--transient").unwrap(), Some(2.5));
        assert_eq!(flag_u64(&flags, "--reps").unwrap(), Some(40));
        assert_eq!(flag_u64(&flags, "--seed").unwrap(), Some(7));
    }

    #[test]
    fn missing_value_is_explicit_error() {
        // At the end of the argument list…
        let e = flag_f64(&args(&["--transient"]), "--transient").unwrap_err();
        assert!(e.contains("--transient needs a value"), "{e}");
        // …and when another flag sits where the value should be.
        let e = flag_f64(&args(&["--horizon", "--exact"]), "--horizon").unwrap_err();
        assert!(e.contains("--horizon needs a value"), "{e}");
        let e = flag_u64(&args(&["--reps", "--seed", "3"]), "--reps").unwrap_err();
        assert!(e.contains("--reps needs a value"), "{e}");
    }

    #[test]
    fn invalid_value_is_explicit_error() {
        let e = flag_f64(&args(&["--accumulated", "soon"]), "--accumulated").unwrap_err();
        assert!(e.contains("--accumulated") && e.contains("soon"), "{e}");
        let e = flag_f64(&args(&["--transient", "inf"]), "--transient").unwrap_err();
        assert!(e.contains("finite"), "{e}");
        let e = flag_u64(&args(&["--reps", "2.7"]), "--reps").unwrap_err();
        assert!(e.contains("integer"), "{e}");
        let e = flag_u64(&args(&["--seed", "-1"]), "--seed").unwrap_err();
        assert!(e.contains("--seed"), "{e}");
    }

    #[test]
    fn negative_values_parse_but_time_points_reject_them() {
        // `-1` is a value, not a flag: only `--`-prefixed tokens are. The
        // generic parser accepts it; the time-point wrapper rejects it
        // with an explicit message.
        let flags = args(&["--transient", "-1"]);
        assert_eq!(flag_f64(&flags, "--transient").unwrap(), Some(-1.0));
        let e = flag_f64_nonneg(&flags, "--transient").unwrap_err();
        assert!(e.contains("non-negative"), "{e}");
    }

    #[test]
    fn zero_threads_is_explicit_error() {
        let e = parse_kernel_flags(&args(&["--threads", "0"])).unwrap_err();
        assert!(e.contains("--threads") && e.contains("at least 1"), "{e}");
        let e = flag_threads(&args(&["--threads", "0"])).unwrap_err();
        assert!(e.contains("hardware thread"), "{e}");
        // Absent stays "auto"; explicit positive counts pass through.
        assert_eq!(flag_threads(&args(&[])).unwrap(), None);
        assert_eq!(flag_threads(&args(&["--threads", "4"])).unwrap(), Some(4));
    }

    #[test]
    fn zero_reps_is_explicit_error() {
        let e = flag_count(&args(&["--reps", "0"]), "--reps").unwrap_err();
        assert!(e.contains("--reps") && e.contains("at least 1"), "{e}");
        assert_eq!(
            flag_count(&args(&["--reps", "30"]), "--reps").unwrap(),
            Some(30)
        );
        assert_eq!(flag_count(&args(&[]), "--reps").unwrap(), None);
    }

    #[test]
    fn nonpositive_horizon_is_explicit_error() {
        let e = flag_f64_positive(&args(&["--horizon", "0"]), "--horizon").unwrap_err();
        assert!(e.contains("--horizon") && e.contains("positive"), "{e}");
        let e = flag_f64_positive(&args(&["--horizon", "-2.5"]), "--horizon").unwrap_err();
        assert!(e.contains("positive"), "{e}");
        assert_eq!(
            flag_f64_positive(&args(&["--horizon", "50"]), "--horizon").unwrap(),
            Some(50.0)
        );
    }

    #[test]
    fn negative_time_points_are_explicit_errors() {
        for flag in ["--transient", "--accumulated"] {
            let e = flag_f64_nonneg(&args(&[flag, "-0.5"]), flag).unwrap_err();
            assert!(e.contains(flag) && e.contains("non-negative"), "{e}");
            // Zero is a legal time point (the initial distribution).
            assert_eq!(
                flag_f64_nonneg(&args(&[flag, "0"]), flag).unwrap(),
                Some(0.0)
            );
        }
        // A zero deadline stays legal: it means "interrupt immediately",
        // which the resilience tests rely on.
        assert_eq!(
            flag_duration(&args(&["--deadline", "0"]), "--deadline").unwrap(),
            Some(std::time::Duration::ZERO)
        );
    }

    #[test]
    fn kernel_flags_parse() {
        use mdl_core::{KernelKind, KernelOptions};
        assert_eq!(
            parse_kernel_flags(&args(&[])).unwrap(),
            KernelOptions {
                kind: KernelKind::Compiled,
                threads: 0
            }
        );
        let f = parse_kernel_flags(&args(&["--kernel", "walk", "--threads", "4"])).unwrap();
        assert_eq!(f.kind, KernelKind::Walk);
        assert_eq!(f.threads, 4);
        let f = parse_kernel_flags(&args(&["--kernel", "compiled"])).unwrap();
        assert_eq!(f.kind, KernelKind::Compiled);
        let e = parse_kernel_flags(&args(&["--kernel", "magic"])).unwrap_err();
        assert!(e.contains("walk") && e.contains("compiled"), "{e}");
        let e = parse_kernel_flags(&args(&["--threads"])).unwrap_err();
        assert!(e.contains("--threads needs a value"), "{e}");
    }

    #[test]
    fn durations_parse_with_units() {
        use std::time::Duration;
        let d = |list: &[&str]| flag_duration(&args(list), "--deadline").unwrap();
        assert_eq!(d(&[]), None);
        assert_eq!(
            d(&["--deadline", "250ms"]),
            Some(Duration::from_millis(250))
        );
        assert_eq!(d(&["--deadline", "2s"]), Some(Duration::from_secs(2)));
        assert_eq!(d(&["--deadline", "40us"]), Some(Duration::from_micros(40)));
        // Bare numbers are seconds, fractions allowed.
        assert_eq!(d(&["--deadline", "1.5"]), Some(Duration::from_millis(1500)));
        assert_eq!(d(&["--deadline", "0ms"]), Some(Duration::ZERO));
    }

    #[test]
    fn bad_durations_are_explicit_errors() {
        let e = |list: &[&str]| flag_duration(&args(list), "--deadline").unwrap_err();
        assert!(e(&["--deadline"]).contains("needs a value"));
        assert!(e(&["--deadline", "soonish"]).contains("invalid duration"));
        assert!(e(&["--deadline", "5m"]).contains("invalid duration"));
        assert!(e(&["--deadline", "-3ms"]).contains("non-negative"));
        assert!(e(&["--deadline", "infs"]).contains("non-negative"));
    }

    #[test]
    fn tolerance_flag_parses() {
        use mdl_linalg::Tolerance;
        assert_eq!(flag_tolerance(&args(&[])).unwrap(), None);
        assert_eq!(
            flag_tolerance(&args(&["--tolerance", "exact"])).unwrap(),
            Some(Tolerance::Exact)
        );
        assert_eq!(
            flag_tolerance(&args(&["--tolerance", "2"])).unwrap(),
            Some(Tolerance::Decimals(2))
        );
        assert_eq!(
            flag_tolerance(&args(&["--tolerance", "9"])).unwrap(),
            Some(Tolerance::default())
        );
        let e = flag_tolerance(&args(&["--tolerance", "tight"])).unwrap_err();
        assert!(e.contains("--tolerance") && e.contains("exact"), "{e}");
        let e = flag_tolerance(&args(&["--tolerance", "-1"])).unwrap_err();
        assert!(e.contains("decimal digits"), "{e}");
        let e = flag_tolerance(&args(&["--tolerance"])).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }

    #[test]
    fn resilience_flags_parse() {
        assert_eq!(
            parse_resilience_flags(&args(&[])).unwrap(),
            ResilienceFlags::default()
        );
        let f =
            parse_resilience_flags(&args(&["--fallback", "--report", "--deadline", "2s"])).unwrap();
        assert!(f.fallback && f.report);
        assert_eq!(f.deadline, Some(std::time::Duration::from_secs(2)));
        assert!(!f.budget().is_unlimited());
        assert!(ResilienceFlags::default().budget().is_unlimited());
        let e = parse_resilience_flags(&args(&["--report"])).unwrap_err();
        assert!(e.contains("--fallback"), "{e}");
    }

    #[test]
    fn obs_flags_parse_formats() {
        let f = parse_obs_flags(&args(&["--metrics", "json"])).unwrap();
        assert_eq!(f.metrics, Some(MetricsFormat::Json));
        assert!(!f.trace);
        assert!(f.active());
        let f = parse_obs_flags(&args(&["--metrics", "pretty", "--trace"])).unwrap();
        assert_eq!(f.format(), MetricsFormat::Pretty);
        assert!(f.trace);
    }

    #[test]
    fn obs_flags_errors() {
        let e = parse_obs_flags(&args(&["--metrics", "xml"])).unwrap_err();
        assert!(e.contains("pretty") && e.contains("json"), "{e}");
        let e = parse_obs_flags(&args(&["--metrics"])).unwrap_err();
        assert!(e.contains("--metrics needs a value"), "{e}");
        let e = parse_obs_flags(&args(&["--metrics-out", "--trace"])).unwrap_err();
        assert!(e.contains("--metrics-out needs a value"), "{e}");
    }

    #[test]
    fn flag_parsed_reports_the_flag_and_the_reason() {
        // The generic path: absent flag is None, value flows through…
        let ok = flag_parsed(&args(&["--cache-dir", "/tmp/c"]), "--cache-dir", |v| {
            Ok(v.len())
        })
        .unwrap();
        assert_eq!(ok, Some(6));
        assert_eq!(
            flag_parsed(&args(&[]), "--cache-dir", |v| Ok(v.len())).unwrap(),
            None
        );
        // …missing values error before parse runs…
        let e = flag_parsed(&args(&["--cache-dir"]), "--cache-dir", |v| Ok(v.len())).unwrap_err();
        assert!(e.contains("--cache-dir needs a value"), "{e}");
        // …and parse rejections come back prefixed with the flag.
        let e = flag_parsed(&args(&["--level", "loud"]), "--level", |_| {
            Err::<usize, _>("unknown level".into())
        })
        .unwrap_err();
        assert_eq!(e, "--level: unknown level");
    }

    #[test]
    fn pipeline_flags_parse_and_env_fallback() {
        use std::path::PathBuf;
        assert_eq!(
            parse_pipeline_flags(&args(&[]), None).unwrap(),
            PipelineFlags::default()
        );
        // The flag wins over the environment; the environment fills in
        // when the flag is absent; empty environment values read as unset.
        let f = parse_pipeline_flags(&args(&["--cache-dir", "/tmp/a"]), Some("/tmp/b")).unwrap();
        assert_eq!(f.cache_dir, Some(PathBuf::from("/tmp/a")));
        let f = parse_pipeline_flags(&args(&[]), Some("/tmp/b")).unwrap();
        assert_eq!(f.cache_dir, Some(PathBuf::from("/tmp/b")));
        assert_eq!(
            parse_pipeline_flags(&args(&[]), Some("  "))
                .unwrap()
                .cache_dir,
            None
        );

        let f = parse_pipeline_flags(
            &args(&[
                "--cache-dir",
                "/tmp/a",
                "--checkpoint-every",
                "500",
                "--resume",
            ]),
            None,
        )
        .unwrap();
        assert_eq!(f.checkpoint_every, Some(500));
        assert!(f.resume);
    }

    #[test]
    fn pipeline_flags_errors_are_explicit() {
        let e = parse_pipeline_flags(&args(&["--cache-dir"]), None).unwrap_err();
        assert!(e.contains("--cache-dir needs a value"), "{e}");
        let e = parse_pipeline_flags(
            &args(&["--cache-dir", "/c", "--checkpoint-every", "0"]),
            None,
        )
        .unwrap_err();
        assert!(
            e.contains("--checkpoint-every") && e.contains("at least 1"),
            "{e}"
        );
        let e = parse_pipeline_flags(
            &args(&["--cache-dir", "/c", "--checkpoint-every", "9.5"]),
            None,
        )
        .unwrap_err();
        assert!(e.contains("integer"), "{e}");
        // Checkpointing and resuming are meaningless without a store.
        let e = parse_pipeline_flags(&args(&["--checkpoint-every", "100"]), None).unwrap_err();
        assert!(e.contains("cache directory"), "{e}");
        let e = parse_pipeline_flags(&args(&["--resume"]), None).unwrap_err();
        assert!(
            e.contains("cache directory") && e.contains("--resume"),
            "{e}"
        );
        // An environment-provided cache satisfies the requirement.
        assert!(parse_pipeline_flags(&args(&["--resume"]), Some("/tmp/c")).is_ok());
    }

    #[test]
    fn sweep_axes_parse_grids_and_single_values() {
        assert!(parse_sweep_axes(&args(&[])).unwrap().is_empty());
        let axes = parse_sweep_axes(&args(&["--set", "mu=0.5:2.0:16"])).unwrap();
        assert_eq!(axes.len(), 1);
        assert_eq!(axes[0].0, "mu");
        assert_eq!(axes[0].1.len(), 16);
        assert_eq!(axes[0].1[0], 0.5);
        assert_eq!(axes[0].1[15], 2.0, "linspace is inclusive of both ends");
        assert_eq!(axes[0].1[1], 0.5 + 1.5 / 15.0);
        // Multiple axes keep command-line order; single values allowed.
        let axes = parse_sweep_axes(&args(&["--set", "mu=1:2:3", "--set", "lambda=4.5"])).unwrap();
        assert_eq!(axes[0].1, vec![1.0, 1.5, 2.0]);
        assert_eq!(axes[1], ("lambda".to_string(), vec![4.5]));
        // Descending grids work.
        let axes = parse_sweep_axes(&args(&["--set", "mu=2:1:2"])).unwrap();
        assert_eq!(axes[0].1, vec![2.0, 1.0]);
    }

    #[test]
    fn sweep_axis_errors_are_explicit() {
        let e = |list: &[&str]| parse_sweep_axes(&args(list)).unwrap_err();
        assert!(e(&["--set"]).contains("--set needs a value"));
        assert!(e(&["--set", "--trace"]).contains("--set needs a value"));
        assert!(e(&["--set", "mu"]).contains("name=lo:hi:count"));
        assert!(e(&["--set", "=1:2:3"]).contains("missing event name"));
        assert!(e(&["--set", "mu=1:2"]).contains("name=lo:hi:count"));
        assert!(e(&["--set", "mu=1:2:3:4"]).contains("name=lo:hi:count"));
        assert!(e(&["--set", "mu=a:2:3"]).contains("invalid number"));
        assert!(e(&["--set", "mu=0:2:3"]).contains("positive"));
        assert!(e(&["--set", "mu=1:inf:3"]).contains("positive"));
        assert!(e(&["--set", "mu=1:2:1"]).contains("at least 2"));
        assert!(e(&["--set", "mu=1:2:x"]).contains("invalid count"));
    }

    #[test]
    fn metrics_out_and_trace_default_format() {
        let f = parse_obs_flags(&args(&["--trace", "--metrics-out", "/tmp/x.jsonl"])).unwrap();
        assert_eq!(f.out.as_deref(), Some("/tmp/x.jsonl"));
        assert_eq!(f.format(), MetricsFormat::Pretty);
        assert!(f.active());
    }

    #[test]
    fn serve_flags_default_to_a_bounded_loopback_daemon() {
        let f = parse_serve_flags(&[], None).unwrap();
        assert_eq!(f, ServeFlags::default());
        assert!(f.addr.starts_with("127.0.0.1"));
        assert!(f.queue_limit > 0 && f.tenant_cap > 0);
        assert!(f.default_deadline.is_some() && f.max_deadline.is_some());
    }

    #[test]
    fn serve_flags_parse_every_knob() {
        let f = parse_serve_flags(
            &args(&[
                "--addr",
                "0.0.0.0:9000",
                "--workers",
                "8",
                "--queue",
                "64",
                "--tenant-cap",
                "4",
                "--solve-threads",
                "2",
                "--default-deadline",
                "5s",
                "--max-deadline",
                "60s",
                "--cache-dir",
                "/tmp/mdl-cache",
                "--metrics",
            ]),
            None,
        )
        .unwrap();
        assert_eq!(f.addr, "0.0.0.0:9000");
        assert_eq!(f.workers, 8);
        assert_eq!(f.queue_limit, 64);
        assert_eq!(f.tenant_cap, 4);
        assert_eq!(f.solve_threads, 2);
        assert_eq!(f.default_deadline, Some(std::time::Duration::from_secs(5)));
        assert_eq!(f.max_deadline, Some(std::time::Duration::from_secs(60)));
        assert_eq!(
            f.cache_dir,
            Some(std::path::PathBuf::from("/tmp/mdl-cache"))
        );
    }

    #[test]
    fn serve_flags_zero_deadline_means_unlimited() {
        let f = parse_serve_flags(
            &args(&["--default-deadline", "0", "--max-deadline", "0"]),
            None,
        )
        .unwrap();
        assert_eq!(f.default_deadline, None);
        assert_eq!(f.max_deadline, None);
    }

    #[test]
    fn serve_flags_env_cache_fallback_and_explicit_override() {
        let f = parse_serve_flags(&[], Some("/env/cache")).unwrap();
        assert_eq!(f.cache_dir, Some(std::path::PathBuf::from("/env/cache")));
        let f =
            parse_serve_flags(&args(&["--cache-dir", "/flag/cache"]), Some("/env/cache")).unwrap();
        assert_eq!(f.cache_dir, Some(std::path::PathBuf::from("/flag/cache")));
        assert_eq!(parse_serve_flags(&[], Some("  ")).unwrap().cache_dir, None);
    }

    #[test]
    fn serve_flag_errors_are_explicit() {
        let e = |list: &[&str]| parse_serve_flags(&args(list), None).unwrap_err();
        assert!(e(&["--workers", "0"]).contains("--workers"));
        assert!(e(&["--queue"]).contains("--queue needs a value"));
        assert!(e(&["--tenant-cap", "many"]).contains("--tenant-cap"));
        assert!(e(&["--default-deadline", "soon"]).contains("--default-deadline"));
        assert_eq!(e(&["--worker", "8"]), "unknown flag --worker");
    }
}
