//! Seeded input generation. The program under test only ever sees what
//! these functions return, and one seed always yields byte-identical
//! inputs (see the determinism tests below).
//!
//! Three input families:
//!
//! * tandem rate variants (`tandem_solve` solves and sweeps): every
//!   rate of the paper's tandem model scaled by an independent factor,
//!   so each job solves a different chain of the same structure;
//! * jittered tandem factors (`tandem_solve` certifications): every
//!   factor entry moved by about 1e-7 relative, so the chain is only
//!   tolerance-lumpable and the certified bounds do real work;
//! * `.mdl` pool models and the request stream built from them
//!   (`serve_mixed`): a controller plus `k` workers encoded as one
//!   `2^k`-state bitmask level, rendered as model text of 2–45 KB.

use mdl_cli::commands::Measure;
use mdl_md::SparseFactor;
use mdl_models::tandem::{TandemConfig, TandemRates};
use mdl_models::ComposedModel;
use mdl_obs::json::JsonObject;

use crate::rng::Rng;

/// Jobs `J` of every tandem workload: 355,200 states lumping to 3,930.
pub const TANDEM_JOBS: usize = 2;

/// Relative spread of a tandem rate variant around the paper's rates.
const RATE_SPREAD: f64 = 0.1;

/// Relative jitter applied to each factor entry of a certification input.
pub const JITTER: f64 = 1e-7;

/// The `hyper_service` grid every sweep runs: 8 points over
/// `[0.5, 2.0]`, in solve order.
pub fn sweep_grid() -> Vec<f64> {
    (0..8).map(|i| 0.5 + 1.5 * i as f64 / 7.0).collect()
}

/// Input-family stream ids (see [`Rng::new`]).
mod stream {
    pub const SOLVE: u64 = 1;
    pub const JITTER: u64 = 3;
    pub const SERVE: u64 = 4;
    pub const SWEEP_CHECK: u64 = 5;
}

/// The tandem model at [`TANDEM_JOBS`] with the given rates.
pub fn tandem_config(rates: TandemRates) -> TandemConfig {
    TandemConfig {
        jobs: TANDEM_JOBS,
        rates,
        ..TandemConfig::default()
    }
}

fn tandem_rates(rng: &mut Rng) -> TandemRates {
    let d = TandemRates::default();
    let mut f = |x: f64| x * rng.range(1.0 - RATE_SPREAD, 1.0 + RATE_SPREAD);
    TandemRates {
        msmq_walk: f(d.msmq_walk),
        msmq_service: f(d.msmq_service),
        msmq_dispatch: f(d.msmq_dispatch),
        hyper_dispatch: f(d.hyper_dispatch),
        hyper_service: f(d.hyper_service),
        failure: f(d.failure),
        repair: f(d.repair),
        balance: f(d.balance),
        transfer: f(d.transfer),
        dispatch_bias: f(d.dispatch_bias),
    }
}

/// `n` rate variants for `tandem_solve` jobs.
pub fn solve_variants(seed: u64, n: usize) -> Vec<TandemRates> {
    let mut rng = Rng::new(seed, stream::SOLVE);
    (0..n).map(|_| tandem_rates(&mut rng)).collect()
}

/// The two grid points of the first job's sweep that `tandem_solve` checks
/// against independent solves.
pub fn sweep_check_points(seed: u64) -> [usize; 2] {
    let mut rng = Rng::new(seed, stream::SWEEP_CHECK);
    let n = sweep_grid().len();
    [rng.below(n), rng.below(n)]
}

/// `n` copies of `base` with every factor entry scaled by an independent
/// `1 + JITTER·u`, `u ∈ [-1, 1)`. Zero entries stay zero, so the
/// reachable set (and a shared reachability MDD) is unchanged.
pub fn jittered_variants(base: &ComposedModel, seed: u64, n: usize) -> Vec<ComposedModel> {
    let mut rng = Rng::new(seed, stream::JITTER);
    (0..n).map(|_| jitter(base, &mut rng)).collect()
}

fn jitter(base: &ComposedModel, rng: &mut Rng) -> ComposedModel {
    let mut m = ComposedModel::new();
    for c in base.components() {
        m.add_component(c.name.clone(), c.states, c.initial);
    }
    for e in base.events() {
        let factors = e
            .factors
            .iter()
            .map(|f| {
                f.as_ref().map(|f| {
                    let mut out = SparseFactor::new(f.size());
                    for (r, c, v) in f.iter() {
                        out.push(
                            r as usize,
                            c as usize,
                            v * (1.0 + JITTER * rng.range(-1.0, 1.0)),
                        );
                    }
                    out
                })
            })
            .collect();
        m.add_event(e.name.clone(), e.rate, factors)
            .expect("a jittered copy of a valid event is valid");
    }
    m
}

/// One generated worker-pool model.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Workers; the worker level has `2^k` states.
    pub k: u32,
    /// Controller power-mode toggle rate.
    pub toggle: f64,
    /// Per-idle-worker start rate in high-power mode.
    pub high: f64,
    /// Per-idle-worker start rate in low-power mode.
    pub low: f64,
    /// Per-busy-worker completion rate.
    pub finish: f64,
    /// Worker 0 completes with weight 1.0001: the pool is then only
    /// tolerance-lumpable (the `bounds` requests' models).
    pub mixed_speed: bool,
    /// Distinguishes otherwise equal variants in the header comment.
    pub tag: String,
}

impl PoolSpec {
    fn draw(rng: &mut Rng, k: u32, mixed_speed: bool, tag: String) -> Self {
        PoolSpec {
            k,
            toggle: round4(rng.range(0.1, 0.3)),
            high: round4(rng.range(1.5, 2.5)),
            low: round4(rng.range(0.3, 0.7)),
            finish: round4(rng.range(0.8, 1.2)),
            mixed_speed,
            tag,
        }
    }

    /// The model in the `mdlump-cli` text format, commented like the
    /// hand-written models under `models/`.
    pub fn text(&self) -> String {
        use std::fmt::Write;
        let n = 1u32 << self.k;
        let mut s = String::new();
        let w = &mut s;
        // Writing into a String cannot fail.
        let _ = writeln!(
            w,
            "# Worker pool {} — {} workers as one {n}-state bitmask level\n\
             # (bit i set ⇔ worker i busy); controller: high ↔ low power.\n",
            self.tag, self.k
        );
        let _ = writeln!(
            w,
            "component ctrl 2 initial 0\ncomponent workers {n} initial 0\n"
        );
        let _ = writeln!(
            w,
            "# Power toggle, rate λ = {}.\nevent toggle rate {}\n  factor ctrl 0 1 1.0\n  factor ctrl 1 0 1.0\n",
            self.toggle, self.toggle
        );
        for (name, ctrl, rate) in [("start_high", 0, self.high), ("start_low", 1, self.low)] {
            let _ = writeln!(
                w,
                "# Job starts in power mode {ctrl}, rate λ = {rate} per idle worker.\n\
                 event {name} rate {rate}\n  factor ctrl {ctrl} {ctrl} 1.0"
            );
            for from in 0..n {
                for bit in 0..self.k {
                    let to = from | (1 << bit);
                    if to != from {
                        let _ = writeln!(w, "  factor workers {from} {to} 1.0");
                    }
                }
            }
            let _ = writeln!(w);
        }
        let _ = writeln!(
            w,
            "# Job completions, rate μ = {} per busy worker.\nevent finish rate {}",
            self.finish, self.finish
        );
        for from in 0..n {
            for bit in 0..self.k {
                let to = from & !(1 << bit);
                if to != from {
                    let weight = if self.mixed_speed && bit == 0 {
                        "1.0001"
                    } else {
                        "1.0"
                    };
                    let _ = writeln!(w, "  factor workers {from} {to} {weight}");
                }
            }
        }
        let _ = writeln!(w, "\n# Reward: busy workers.\nreward sum");
        for state in 1..n {
            let _ = writeln!(w, "  value workers {state} {}.0", state.count_ones());
        }
        s
    }
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Request classes of `serve_mixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A repeat of the hot set: every stage is already in the store.
    Hot,
    /// A first-seen rate variant: cold lump, compile, solve, persist.
    Novel,
    /// A certified-bounds request on a mixed-speed pool.
    Bounds,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::Hot, Class::Novel, Class::Bounds];

    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Novel => "novel",
            Class::Bounds => "bounds",
        }
    }
}

/// The lumping tolerance (decimal digits) of `bounds` requests: absorbs
/// the mixed-speed pools' 1e-4 completion-weight spread.
pub const BOUNDS_TOLERANCE: u32 = 2;

/// Time horizon of transient requests.
pub const SERVE_T: f64 = 5.0;

/// One distinct request of the stream.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Its class.
    pub class: Class,
    /// The model text sent.
    pub model: String,
    /// The measure asked for.
    pub measure: Measure,
    /// Whether it asks for certified bounds.
    pub bounds: bool,
    /// The protocol line (no trailing newline).
    pub line: String,
}

impl ServeRequest {
    fn new(class: Class, spec: &PoolSpec, measure: Measure) -> Self {
        let model = spec.text();
        let bounds = class == Class::Bounds;
        let mut obj = JsonObject::new();
        obj.str("cmd", "solve").str("model", &model);
        match measure {
            Measure::Stationary => {
                obj.str("measure", "stationary");
            }
            Measure::Transient(t) => {
                obj.str("measure", "transient").f64("t", t);
            }
            Measure::Accumulated(_) => unreachable!("the stream asks for no accumulated measures"),
        }
        if bounds {
            obj.bool("bounds", true)
                .u64("tolerance", u64::from(BOUNDS_TOLERANCE));
        }
        ServeRequest {
            class,
            model,
            measure,
            bounds,
            line: obj.close(),
        }
    }
}

/// The `serve_mixed` inputs: distinct requests plus the order they are
/// sent in.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Distinct requests; the hot set comes first.
    pub requests: Vec<ServeRequest>,
    /// Number of hot-set requests at the front of `requests`.
    pub hot: usize,
    /// Indices into `requests`, in send order.
    pub stream: Vec<usize>,
}

/// Each block of 20 stream slots holds 15 hot, 4 novel and 1 bounds
/// request, shuffled, so every prefix of the stream has the mix.
const BLOCK: [(Class, usize); 3] = [(Class::Hot, 15), (Class::Novel, 4), (Class::Bounds, 1)];

/// Worker counts cycled through by every class: texts of 2–45 KB. Half
/// the traffic is 18 KB (k = 6), so the median request sits well inside
/// one size class instead of on the edge between two.
const POOL_SIZES: [u32; 6] = [4, 5, 6, 6, 6, 7];

/// The request stream for `seed`, at least `len` requests long.
pub fn serve_inputs(seed: u64, len: usize) -> ServeInputs {
    let mut rng = Rng::new(seed, stream::SERVE);
    let mut requests = Vec::new();
    // Hot set: two rate variants per pool-size slot, each asked for
    // both stationary and transient measures.
    for (i, &k) in POOL_SIZES
        .iter()
        .cycle()
        .take(2 * POOL_SIZES.len())
        .enumerate()
    {
        let spec = PoolSpec::draw(&mut rng, k, false, format!("hot-{i}"));
        for measure in [Measure::Stationary, Measure::Transient(SERVE_T)] {
            requests.push(ServeRequest::new(Class::Hot, &spec, measure));
        }
    }
    let hot = requests.len();
    // Bounds: one mixed-speed pool per size slot, recomputed on every
    // ask.
    let bounds_base = requests.len();
    for &k in &POOL_SIZES {
        let spec = PoolSpec::draw(&mut rng, k, true, format!("mixed-{}", requests.len()));
        requests.push(ServeRequest::new(Class::Bounds, &spec, Measure::Stationary));
    }

    let mut stream = Vec::with_capacity(len + 20);
    let (mut novel, mut bounds) = (0usize, 0usize);
    while stream.len() < len {
        let mut block: Vec<Class> = BLOCK
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        rng.shuffle(&mut block);
        for class in block {
            let idx = match class {
                Class::Hot => rng.below(hot),
                Class::Bounds => {
                    bounds += 1;
                    bounds_base + (bounds - 1) % POOL_SIZES.len()
                }
                Class::Novel => {
                    let k = POOL_SIZES[novel % POOL_SIZES.len()];
                    let measure = if (novel / POOL_SIZES.len()).is_multiple_of(2) {
                        Measure::Stationary
                    } else {
                        Measure::Transient(SERVE_T)
                    };
                    let spec = PoolSpec::draw(&mut rng, k, false, format!("novel-{novel}"));
                    novel += 1;
                    requests.push(ServeRequest::new(Class::Novel, &spec, measure));
                    requests.len() - 1
                }
            };
            stream.push(idx);
        }
    }
    ServeInputs {
        requests,
        hot,
        stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_models::tandem::TandemModel;

    #[test]
    fn tandem_inputs_repeat_per_seed() {
        assert_eq!(solve_variants(5, 4), solve_variants(5, 4));
        assert_ne!(solve_variants(5, 4), solve_variants(6, 4));
        assert_eq!(sweep_check_points(5), sweep_check_points(5));
        assert!(sweep_check_points(5)
            .iter()
            .all(|&p| p < sweep_grid().len()));
        for r in solve_variants(9, 16) {
            assert!(r.hyper_service > 0.0 && r.dispatch_bias < 1.0);
        }
    }

    #[test]
    fn jitter_repeats_per_seed_and_keeps_structure() {
        let base = TandemModel::new(tandem_config(TandemRates::default()));
        let base = base.composed();
        let entries = |m: &ComposedModel| -> Vec<(u32, u32, u64)> {
            m.events()
                .iter()
                .flat_map(|e| e.factors.iter().flatten())
                .flat_map(|f| {
                    f.iter()
                        .map(|(r, c, v)| (r, c, v.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let a = jittered_variants(base, 3, 2);
        let b = jittered_variants(base, 3, 2);
        assert_eq!(entries(&a[0]), entries(&b[0]));
        assert_eq!(entries(&a[1]), entries(&b[1]));
        assert_ne!(entries(&a[0]), entries(&a[1]));
        // Same positions as the base, values within the jitter.
        let (orig, jit) = (entries(base), entries(&a[0]));
        assert_eq!(orig.len(), jit.len());
        for (o, j) in orig.iter().zip(&jit) {
            assert_eq!((o.0, o.1), (j.0, j.1));
            let (o, j) = (f64::from_bits(o.2), f64::from_bits(j.2));
            assert!((j - o).abs() <= JITTER * o.abs() * 1.000_001, "{o} -> {j}");
        }
    }

    #[test]
    fn serve_stream_repeats_byte_for_byte_per_seed() {
        let a = serve_inputs(11, 200);
        let b = serve_inputs(11, 200);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.line, y.line);
        }
        let c = serve_inputs(12, 200);
        assert_ne!(a.requests[0].line, c.requests[0].line);
    }

    #[test]
    fn serve_stream_has_the_declared_mix_and_sizes() {
        let inputs = serve_inputs(1, 400);
        assert_eq!(inputs.stream.len(), 400);
        let count = |class| {
            inputs
                .stream
                .iter()
                .filter(|&&i| inputs.requests[i].class == class)
                .count()
        };
        assert_eq!(count(Class::Hot), 300);
        assert_eq!(count(Class::Novel), 80);
        assert_eq!(count(Class::Bounds), 20);
        // Every novel request is sent once; hot requests repeat.
        let novel: Vec<usize> = inputs
            .stream
            .iter()
            .copied()
            .filter(|&i| inputs.requests[i].class == Class::Novel)
            .collect();
        let mut distinct = novel.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(novel.len(), distinct.len());
        let sizes: Vec<usize> = inputs.requests.iter().map(|r| r.line.len()).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(*lo >= 2_000 && *hi <= 48_000, "text sizes {lo}..{hi}");
    }

    #[test]
    fn pool_models_parse_and_lump_as_designed() {
        let mut rng = Rng::new(0, 0);
        for mixed in [false, true] {
            let spec = PoolSpec::draw(&mut rng, 4, mixed, "t".into());
            let parsed = mdl_cli::parse_model(&spec.text()).expect("generated text parses");
            let mrp = parsed.build().expect("generated model builds");
            assert_eq!(mrp.num_states(), 32);
        }
    }
}
