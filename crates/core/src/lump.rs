use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use mdl_linalg::weight::{add_down, add_up, next_down, next_up};
use mdl_linalg::{Interval, Tolerance};
use mdl_md::{ChildId, MdMatrix, MdNode, TermSite};
use mdl_obs::{Budget, ThreadPool};
use mdl_partition::{Partition, RefinementStats};

use crate::decomp::LumpMode;
use crate::local::{comp_lumping_level_per_node, comp_lumping_level_pooled};
use crate::mrp::MdMrp;
use crate::Result;

/// Which lumpability notion drives the algorithm (Definition 2/3 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LumpKind {
    /// Ordinary lumpability: rows into classes agree; preserves all
    /// reward measures based on `r`.
    Ordinary,
    /// Exact lumpability: columns from classes and exit rates agree;
    /// preserves transient measures for class-uniform initial
    /// distributions.
    Exact,
}

/// Options for [`LumpRequest`].
#[derive(Debug, Clone, Copy)]
pub struct LumpOptions {
    /// How rate coefficients are compared (see [`Tolerance`]).
    pub tolerance: Tolerance,
    /// Run a quasi-reduction pass after lumping, merging level nodes that
    /// became equal. The paper's algorithm does not (its node counts are
    /// unchanged by construction); this is the extension measured by the
    /// ablation experiments.
    pub quasi_reduce: bool,
    /// Use the literal per-node fixed point of Fig. 3a instead of the
    /// combined-key refinement (both compute the same partition; the
    /// combined form is faster).
    pub per_node_fixed_point: bool,
    /// Canonicalize the MD (Miner-style scale normalization,
    /// [`Md::canonicalize`](mdl_md::Md::canonicalize)) before computing
    /// partitions: nodes that are scalar multiples of each other merge,
    /// which can only make the formal-sum keys — and therefore the
    /// partitions — coarser. Extension; the paper discusses canonical MDs
    /// as the subclass where node identity captures matrix identity.
    pub canonicalize: bool,
    /// Worker threads for the lumping engine: the per-level initial
    /// partitions are computed concurrently and the formal-sum key phase
    /// fans out block-parallel. `0` means one worker per hardware thread;
    /// the default is `1` (serial). The computed partitions — and the
    /// lumped MD — are bit-identical for every thread count (DESIGN.md
    /// §12).
    pub threads: usize,
}

impl Default for LumpOptions {
    fn default() -> Self {
        LumpOptions {
            tolerance: Tolerance::default(),
            quasi_reduce: false,
            per_node_fixed_point: false,
            canonicalize: false,
            threads: 1,
        }
    }
}

/// Per-level work and outcome counters.
#[derive(Debug, Clone)]
pub struct LevelLumpStats {
    /// The level (0-based).
    pub level: usize,
    /// Local state-space size before lumping (`|S_i|`).
    pub original_size: usize,
    /// Number of classes after lumping (`|Ŝ_i|`).
    pub lumped_size: usize,
    /// Refinement work counters.
    pub refinement: RefinementStats,
    /// Wall-clock time spent computing this level's partition.
    pub elapsed: Duration,
}

/// Whole-run statistics of a compositional lump.
#[derive(Debug, Clone)]
pub struct LumpStats {
    /// Per-level breakdown.
    pub per_level: Vec<LevelLumpStats>,
    /// Reachable states before lumping.
    pub original_states: u64,
    /// Reachable states after lumping.
    pub lumped_states: u64,
    /// Symbolic representation memory (MD + MDD) before, in bytes.
    pub memory_before: usize,
    /// Symbolic representation memory (MD + MDD) after, in bytes.
    pub memory_after: usize,
    /// Nodes merged by the optional quasi-reduction post-pass.
    pub nodes_merged: usize,
    /// Lumping rounds executed: `1` for a single pass; for an iterated
    /// lump ([`LumpRequest::iterate`]) the number of passes until the
    /// fixed point (the final, unproductive pass included).
    pub rounds: usize,
    /// The largest per-lumped-transition rate deviation absorbed by a
    /// tolerance lump: the maximum distance from a lumped term's stored
    /// coefficient to the farthest member aggregate it stands in for.
    /// Exactly `0.0` for [`Tolerance::Exact`] runs and for exactly
    /// lumpable models (every member aggregate equals the
    /// representative's).
    pub max_rate_deviation: f64,
    /// Total wall-clock time of the lump.
    pub elapsed: Duration,
}

impl LumpStats {
    /// Overall state-space reduction factor.
    pub fn reduction_factor(&self) -> f64 {
        if self.lumped_states == 0 {
            return 1.0;
        }
        self.original_states as f64 / self.lumped_states as f64
    }
}

/// Result of a compositional lump: the lumped symbolic MRP, the per-level
/// partitions that produced it, and work statistics.
#[derive(Debug, Clone)]
pub struct LumpResult {
    /// The lumped MRP (matrix diagram + MDD + lumped vectors).
    pub mrp: MdMrp,
    /// One partition per level (classes = lumped local states, in order).
    pub partitions: Vec<Partition>,
    /// Work statistics.
    pub stats: LumpStats,
    /// For **exact** lumps: the exit rate `R(s, S)` of each lumped state's
    /// representative (constant per class by Theorem 1b). Needed because
    /// the exact quotient's diagonal is not recoverable from its row sums;
    /// see [`crate::exact`].
    pub exact_exit_rates: Option<Vec<f64>>,
    /// Per-lumped-term rate envelopes recorded by a tolerance lump
    /// ([`Tolerance::Decimals`]): the certified `[min, max]` of the member
    /// aggregates each lumped coefficient stands in for. `None` for
    /// [`Tolerance::Exact`] runs, and after a quasi-reduction that merged
    /// nodes or an iterated run (both invalidate the `(level, node)`
    /// keying — run single-pass with `quasi_reduce` off for bounds).
    pub envelope: Option<RateEnvelope>,
}

/// Certified rate envelopes of a tolerance lump, keyed by lumped-term
/// coordinates: `(level, node index, row class, column class, child)` —
/// exactly a [`TermSite`], because
/// [`Md::replace_level`](mdl_md::Md::replace_level) preserves per-level
/// node count and order, so the lumped diagram's node indices match the
/// original's.
///
/// For each recorded term, the interval encloses every member aggregate
/// the lumped coefficient stands in for (accumulated with directed
/// rounding and widened one ulp outward), **and** the stored coefficient
/// itself. Terms that lump exactly are not recorded: looking them up
/// yields the degenerate point interval, so an exactly lumpable model
/// produces an empty envelope.
#[derive(Debug, Clone, Default)]
pub struct RateEnvelope {
    map: HashMap<(u32, u32, u32, u32, ChildId), Interval>,
    max_deviation: f64,
}

impl RateEnvelope {
    /// The certified rate interval of one compiled term: the recorded
    /// envelope, or the degenerate point interval of the stored
    /// coefficient when the term lumped exactly. This is the weight
    /// source for
    /// [`CompiledMdMatrix::compile_weighted`](mdl_md::CompiledMdMatrix)
    /// on the bounds path.
    pub fn widen(&self, site: &TermSite) -> Interval {
        self.map
            .get(&(site.level, site.node, site.row, site.col, site.child))
            .copied()
            .unwrap_or_else(|| Interval::point(site.coef))
    }

    /// Number of inexactly lumped terms recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when every term lumped exactly (zero-width everywhere).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The largest distance from a stored coefficient to its envelope's
    /// farther end — the headline "rate deviation absorbed" figure
    /// surfaced in [`LumpStats::max_rate_deviation`].
    pub fn max_deviation(&self) -> f64 {
        self.max_deviation
    }

    /// Records one inexactly lumped term: hull of the member aggregates
    /// `[lo, hi]` and the stored coefficient, widened one ulp outward.
    /// Exact terms (`lo == hi == stored`) are skipped.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        level: u32,
        node: u32,
        row: u32,
        col: u32,
        child: ChildId,
        lo: f64,
        hi: f64,
        stored: f64,
    ) {
        if lo == hi && lo == stored {
            return;
        }
        let lo = next_down(lo.min(stored));
        let hi = next_up(hi.max(stored));
        self.max_deviation = self.max_deviation.max(stored - lo).max(hi - stored);
        self.map
            .insert((level, node, row, col, child), Interval { lo, hi });
    }
}

impl LumpResult {
    /// Number of original states aggregated by each lumped state (the
    /// global class sizes `|C|`, in lumped-MDD index order).
    ///
    /// Because the partitions are MDD-compatible, the reachable set is a
    /// union of full class products, so each size is the product of the
    /// per-level class sizes.
    pub fn class_sizes(&self) -> Vec<u64> {
        let reach = self.mrp.matrix().reach();
        let mut sizes = vec![0u64; reach.count() as usize];
        reach.for_each_tuple(|class_tuple, idx| {
            let size: u64 = class_tuple
                .iter()
                .enumerate()
                .map(|(l, &c)| self.partitions[l].members(c as usize).len() as u64)
                .product();
            sizes[idx as usize] = size;
        });
        sizes
    }

    /// Measure computation for an exactly lumped chain, or `None` for an
    /// ordinary lump (whose [`MdMrp`] methods are directly correct).
    pub fn exact_measures(&self) -> Option<crate::exact::ExactMeasures<'_>> {
        self.exact_exit_rates
            .as_deref()
            .map(|exit| crate::exact::ExactMeasures::new(self, exit))
    }
}

/// Builder for a compositional lump — the paper's `CompositionalLump`
/// (Fig. 3b) plus this workspace's extensions (iteration, budgets,
/// parallelism), unified behind one entry point.
///
/// For each level the run computes the initial partition (reward /
/// initial-probability and structural conditions), refines it to the
/// coarsest partition satisfying the local lumpability conditions of
/// Definition 3, then replaces every node of the level by its Theorem-2
/// quotient and quotients the reachable-state MDD. Theorems 3/4
/// guarantee the result represents an (ordinarily/exactly) lumped CTMC.
///
/// ```no_run
/// use mdl_core::{LumpKind, LumpRequest};
///
/// # fn demo(mrp: &mdl_core::MdMrp) -> mdl_core::Result<()> {
/// let result = LumpRequest::new(LumpKind::Ordinary)
///     .iterate(true)
///     .threads(4)
///     .budget(mdl_obs::Budget::unlimited().deadline_in(std::time::Duration::from_secs(30)))
///     .run(mrp)?;
/// println!("{} -> {} states", result.stats.original_states, result.stats.lumped_states);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LumpRequest {
    kind: LumpKind,
    options: LumpOptions,
    budget: Budget,
    iterate: bool,
    seeds: Vec<Option<Partition>>,
}

impl LumpRequest {
    /// A request for a single lumping pass of the given kind with default
    /// options, serial, under an unlimited budget.
    pub fn new(kind: LumpKind) -> Self {
        LumpRequest {
            kind,
            options: LumpOptions::default(),
            budget: Budget::unlimited(),
            iterate: false,
            seeds: Vec::new(),
        }
    }

    /// Replaces the whole option block at once.
    #[must_use]
    pub fn options(mut self, options: LumpOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the rate-comparison [`Tolerance`].
    #[must_use]
    pub fn tolerance(mut self, tolerance: Tolerance) -> Self {
        self.options.tolerance = tolerance;
        self
    }

    /// Enables the quasi-reduction post-pass (see
    /// [`LumpOptions::quasi_reduce`]).
    #[must_use]
    pub fn quasi_reduce(mut self, on: bool) -> Self {
        self.options.quasi_reduce = on;
        self
    }

    /// Uses the literal per-node fixed point of Fig. 3a (see
    /// [`LumpOptions::per_node_fixed_point`]).
    #[must_use]
    pub fn per_node_fixed_point(mut self, on: bool) -> Self {
        self.options.per_node_fixed_point = on;
        self
    }

    /// Canonicalizes the MD before lumping (see
    /// [`LumpOptions::canonicalize`]).
    #[must_use]
    pub fn canonicalize(mut self, on: bool) -> Self {
        self.options.canonicalize = on;
        self
    }

    /// Worker threads for the run (see [`LumpOptions::threads`]): `0`
    /// means one per hardware thread, `1` (the default) is serial. Any
    /// value yields bit-identical partitions and lumped MD.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Runs under `budget`: the deadline/cancellation is checked before
    /// each level's refinement (phase `"lump.level"`) and at block
    /// granularity inside the parallel key computations (phase
    /// `"lump.keys"`).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Iterates lumping rounds (with quasi-reduction between rounds)
    /// until a fixed point instead of the paper's single pass. The number
    /// of rounds lands in [`LumpStats::rounds`].
    #[must_use]
    pub fn iterate(mut self, on: bool) -> Self {
        self.iterate = on;
        self
    }

    /// Seeds per-level partitions: a level with `Some(partition)` skips
    /// its initial-partition and refinement work entirely and uses the
    /// seed as its computed partition (an iterated run applies seeds to
    /// the first round only; [`canonicalize`](Self::canonicalize) ignores
    /// them — canonicalization merges nodes *across* levels, so a seed
    /// computed against the pre-canonical diagram is not trustworthy).
    ///
    /// Seeds are a pure acceleration and are **excluded** from the cache
    /// key: the caller asserts each seed is bit-identical to the
    /// partition a fresh run would compute for that level. The sweep
    /// engine upholds this by keying seeds on the full per-level lumping
    /// input (node entries, compatibility structure, per-level reward /
    /// initial values and the request options — see
    /// `Pipeline::sweep`); handing over anything else silently produces
    /// a wrong quotient.
    ///
    /// Seeds whose state count does not match the level's size are
    /// ignored (that level is refined normally), as are entries beyond
    /// the diagram's level count.
    #[must_use]
    pub fn seed_partitions(mut self, seeds: Vec<Option<Partition>>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Executes the request.
    ///
    /// # Errors
    ///
    /// Propagates structural errors (on well-formed inputs produced by
    /// this workspace's builders, lumping cannot fail), plus
    /// [`CoreError`](crate::CoreError)`::Interrupted` when the budget
    /// expires or a failpoint injects a failure.
    pub fn run(&self, mrp: &MdMrp) -> Result<LumpResult> {
        let seeds: &[Option<Partition>] = if self.options.canonicalize {
            &[]
        } else {
            &self.seeds
        };
        if self.iterate {
            run_iterated(mrp, self.kind, &self.options, &self.budget, seeds)
        } else {
            run_single(mrp, self.kind, &self.options, &self.budget, seeds)
        }
    }

    /// Feeds every **result-relevant** field into a cache-key hash: the
    /// lump kind, the comparison tolerance, the quasi-reduce /
    /// per-node-fixed-point / canonicalize switches and the iterate flag.
    /// Thread counts and budgets are excluded — the computed partitions
    /// and the lumped MD are bit-identical for every thread count
    /// (DESIGN.md §12), and a budget changes whether the run finishes,
    /// never what it produces.
    pub fn write_cache_key(&self, h: &mut mdl_store::Fnv1a) {
        h.write_u64(match self.kind {
            LumpKind::Ordinary => 0,
            LumpKind::Exact => 1,
        });
        match self.options.tolerance {
            Tolerance::Exact => h.write_u64(0),
            Tolerance::Decimals(d) => {
                h.write_u64(1);
                h.write_u64(d as u64);
            }
        }
        h.write_u64(self.options.quasi_reduce as u64);
        h.write_u64(self.options.per_node_fixed_point as u64);
        h.write_u64(self.options.canonicalize as u64);
        h.write_u64(self.iterate as u64);
    }
}

impl Default for LumpKind {
    /// Ordinary lumpability — the kind that preserves all reward
    /// measures.
    fn default() -> Self {
        LumpKind::Ordinary
    }
}

/// One lumping pass (Fig. 3b) with explicit options and budget. A level
/// with a (size-matching) entry in `seeds` skips its initial-partition
/// and refinement work and adopts the seed verbatim; see
/// [`LumpRequest::seed_partitions`] for the contract.
fn run_single(
    mrp: &MdMrp,
    kind: LumpKind,
    options: &LumpOptions,
    budget: &Budget,
    seeds: &[Option<Partition>],
) -> Result<LumpResult> {
    if options.canonicalize {
        // Rebuild the MD in canonical form (same sizes, same represented
        // matrix, scale-multiples merged) and lump that: the computed
        // partitions are over the same local state spaces, so everything
        // downstream — verification included — still applies to the
        // original chain.
        let (canonical, _) = mrp.matrix().md().canonicalize();
        let matrix = MdMatrix::new(canonical, mrp.matrix().reach().clone())?;
        let canonical_mrp = MdMrp::new(matrix, mrp.reward().clone(), mrp.initial().clone())?;
        let inner = LumpOptions {
            canonicalize: false,
            ..*options
        };
        return run_single(&canonical_mrp, kind, &inner, budget, &[]);
    }
    let run_span = mdl_obs::span("lump.run").with(
        "kind",
        match kind {
            LumpKind::Ordinary => "ordinary",
            LumpKind::Exact => "exact",
        },
    );
    let md = mrp.matrix().md();
    let reach = mrp.matrix().reach();
    let num_levels = md.num_levels();
    let splitters_counter = mdl_obs::counter("lump.refine.splitters");
    let splits_counter = mdl_obs::counter("lump.refine.splits");
    let keys_counter = mdl_obs::counter("lump.refine.keys");

    // Phase 1: per-level partitions. Each level's conditions involve only
    // that level's nodes, so the levels are independent: the initial
    // partitions are computed concurrently up front, then each level is
    // refined in turn (the formal-sum key computations inside one level's
    // refinement fan out over the same pool).
    let pool = ThreadPool::new(options.threads);
    if let Err(reason) = budget.check() {
        return Err(crate::CoreError::Interrupted {
            phase: "lump.level",
            reason,
        });
    }
    // A valid seed replaces the level's whole partition computation;
    // mis-sized seeds are ignored rather than rejected (the level is
    // simply refined from scratch).
    let seed_for = |level: usize| -> Option<&Partition> {
        seeds
            .get(level)
            .and_then(|s| s.as_ref())
            .filter(|s| s.num_states() == md.sizes()[level])
    };
    let initials = pool.run(num_levels, |level| {
        if seed_for(level).is_some() {
            None
        } else {
            Some(initial_partition(mrp, level, kind, options.tolerance))
        }
    });
    let mut partitions = Vec::with_capacity(num_levels);
    let mut per_level = Vec::with_capacity(num_levels);
    for (level, p_ini) in initials.into_iter().enumerate() {
        if let Err(reason) = budget.check() {
            return Err(crate::CoreError::Interrupted {
                phase: "lump.level",
                reason,
            });
        }
        if mdl_obs::failpoint::hit("lump.level").is_some() {
            return Err(crate::CoreError::Interrupted {
                phase: "lump.level",
                reason: mdl_obs::BudgetExceeded::Injected,
            });
        }
        let size = md.sizes()[level];
        let mut level_span = mdl_obs::span("lump.level")
            .with("level", level)
            .with("original_size", size);
        if let Some(seed) = seed_for(level) {
            let partition = seed.clone();
            mdl_obs::counter("lump.level.seeded").inc();
            level_span.record("lumped_size", partition.num_classes());
            level_span.record("seeded", 1usize);
            per_level.push(LevelLumpStats {
                level,
                original_size: size,
                lumped_size: partition.num_classes(),
                refinement: RefinementStats {
                    splitters_processed: 0,
                    classes_split: 0,
                    keys_emitted: 0,
                },
                elapsed: level_span.finish(),
            });
            partitions.push(partition);
            continue;
        }
        let p_ini = p_ini.expect("unseeded level has an initial partition");
        let level_nodes = md.level_nodes(level);
        let (partition, refinement) = if options.per_node_fixed_point {
            comp_lumping_level_per_node(&level_nodes, p_ini, kind, options.tolerance)
        } else {
            comp_lumping_level_pooled(&level_nodes, p_ini, kind, options.tolerance, pool, budget)
                .map_err(|reason| crate::CoreError::Interrupted {
                    phase: "lump.keys",
                    reason,
                })?
        };
        splitters_counter.add(refinement.splitters_processed as u64);
        splits_counter.add(refinement.classes_split as u64);
        keys_counter.add(refinement.keys_emitted as u64);
        level_span.record("lumped_size", partition.num_classes());
        level_span.record("splitters", refinement.splitters_processed);
        level_span.record("splits", refinement.classes_split);
        level_span.record("keys", refinement.keys_emitted);
        per_level.push(LevelLumpStats {
            level,
            original_size: size,
            lumped_size: partition.num_classes(),
            refinement,
            elapsed: level_span.finish(),
        });
        partitions.push(partition);
    }

    // Phase 2: quotient every node (Fig. 3b lines 4-6) and the MDD. A
    // tolerance run additionally records the certified rate envelope of
    // every inexactly lumped term (the basis of `--bounds` solves and the
    // `max_rate_deviation` statistic).
    let quotient_span = mdl_obs::span("lump.quotient");
    let mut envelope = if options.tolerance == Tolerance::Exact {
        None
    } else {
        Some(RateEnvelope::default())
    };
    let mut lumped_md = md.clone();
    for (level, partition) in partitions.iter().enumerate() {
        let nodes: Vec<MdNode> = md
            .level_nodes(level)
            .iter()
            .enumerate()
            .map(|(ni, n)| match (&mut envelope, kind) {
                (None, LumpKind::Ordinary) => lump_node_ordinary(n, partition),
                (None, LumpKind::Exact) => lump_node_exact(n, partition),
                (Some(env), LumpKind::Ordinary) => {
                    lump_node_ordinary_enveloped(n, partition, level as u32, ni as u32, env)
                }
                (Some(env), LumpKind::Exact) => {
                    lump_node_exact_enveloped(n, partition, level as u32, ni as u32, env)
                }
            })
            .collect();
        lumped_md.replace_level(level, partition.num_classes(), nodes)?;
    }
    let max_rate_deviation = envelope.as_ref().map_or(0.0, RateEnvelope::max_deviation);
    let (lumped_md, nodes_merged) = if options.quasi_reduce {
        lumped_md.quasi_reduce()
    } else {
        (lumped_md, 0)
    };
    if nodes_merged > 0 {
        // Quasi-reduction changed per-level node indices; the envelope's
        // (level, node) keys no longer address the reduced diagram.
        envelope = None;
    }
    let lumped_reach = reach.quotient(&partitions)?;
    quotient_span.finish();

    // Phase 3: lumped rewards and initial probabilities (Fig. 3b line 7):
    // r̂(C) = r(C)/|C| (per-level means), π̂(C) = π(C) (per-level sums).
    let reward = mrp.reward().lump(&partitions, LumpMode::Mean, "reward")?;
    let initial = mrp
        .initial()
        .lump(&partitions, LumpMode::Sum, "initial distribution")?;

    let matrix = MdMatrix::new(lumped_md, lumped_reach)?;
    let memory_before = mrp.matrix().memory_bytes();
    let memory_after = matrix.memory_bytes();
    let original_states = reach.count();
    let lumped_states = matrix.reach().count();

    // For exact lumping, record the representatives' exit rates: the
    // quotient's correct diagonal is not recoverable from its row sums
    // (see crate::exact).
    let exact_exit_rates = match kind {
        LumpKind::Ordinary => None,
        LumpKind::Exact => Some(representative_exit_rates(mrp, &partitions, matrix.reach())),
    };

    let lumped = MdMrp::new(matrix, reward, initial)?;

    let mut run_span = run_span;
    run_span.record("original_states", original_states);
    run_span.record("lumped_states", lumped_states);
    let elapsed = run_span.finish();

    Ok(LumpResult {
        mrp: lumped,
        partitions,
        exact_exit_rates,
        envelope,
        stats: LumpStats {
            per_level,
            original_states,
            lumped_states,
            memory_before,
            memory_after,
            nodes_merged,
            rounds: 1,
            max_rate_deviation,
            elapsed,
        },
    })
}

/// Exit rate `R(s, S)` of each lumped state's representative, measured on
/// the original chain (constant per class by Theorem 1b's conditions).
fn representative_exit_rates(
    original: &MdMrp,
    partitions: &[Partition],
    lumped_reach: &mdl_mdd::Mdd,
) -> Vec<f64> {
    let reach = original.matrix().reach();
    let original_exit = mdl_linalg::RateMatrix::row_sums(original.matrix());
    let mut exit = vec![0.0; lumped_reach.count() as usize];
    let mut rep_tuple = vec![0u32; partitions.len()];
    lumped_reach.for_each_tuple(|class_tuple, idx| {
        for (l, &c) in class_tuple.iter().enumerate() {
            rep_tuple[l] = partitions[l].representative(c as usize) as u32;
        }
        let oi = reach
            .index_of(&rep_tuple)
            .expect("representative tuple reachable (MDD-compatible classes)");
        exit[idx as usize] = original_exit[oi as usize];
    });
    exit
}

/// Iterated compositional lumping (extension): alternates single passes
/// (with the quasi-reduction post-pass) until a fixed point.
///
/// The paper's single pass keeps node identity fixed, so two nodes whose
/// quotients coincide stay distinct — and parents referencing them keep
/// distinct formal-sum keys. Quasi-reducing merges such nodes, which can
/// unlock strictly coarser partitions in the next round (see the
/// `iteration_can_beat_single_pass` test for a witness). Each round only
/// ever merges states, so the loop terminates in at most
/// `Σ log|S_i|`-ish rounds; in practice 1–2. The round count lands in
/// [`LumpStats::rounds`].
fn run_iterated(
    mrp: &MdMrp,
    kind: LumpKind,
    options: &LumpOptions,
    budget: &Budget,
    seeds: &[Option<Partition>],
) -> Result<LumpResult> {
    let opts = LumpOptions {
        quasi_reduce: true,
        ..*options
    };
    // Seeds describe partitions of the *original* chain, so they apply to
    // the first round only; later rounds run over already-lumped state
    // spaces the seeds know nothing about.
    let mut result = run_single(mrp, kind, &opts, budget, seeds)?;
    let mut rounds = 1;
    loop {
        let again = run_single(&result.mrp, kind, &opts, budget, &[])?;
        rounds += 1;
        let progressed = again.stats.lumped_states < result.stats.original_states
            && again.stats.lumped_states < result.stats.lumped_states;
        if !progressed {
            // Keep the first result's provenance (partitions relative to
            // the *original* chain) when the extra round found nothing.
            result.stats.rounds = rounds;
            return Ok(result);
        }
        // Compose the partitions: class of original state s at level l is
        // the second round's class of the first round's class.
        let composed: Vec<Partition> = result
            .partitions
            .iter()
            .zip(&again.partitions)
            .map(|(first, second)| {
                Partition::from_key_fn(first.num_states(), |s| second.class_of(first.class_of(s)))
            })
            .collect();
        // Exit rates for exact lumps must be measured on the *original*
        // chain; the intermediate quotient's row sums are not exit rates.
        let exact_exit_rates = match kind {
            LumpKind::Ordinary => None,
            LumpKind::Exact => Some(representative_exit_rates(
                mrp,
                &composed,
                again.mrp.matrix().reach(),
            )),
        };
        result = LumpResult {
            mrp: again.mrp,
            partitions: composed,
            exact_exit_rates,
            // Round envelopes do not compose (the second round's keys
            // address the intermediate quotient); bounds runs are
            // single-pass by construction.
            envelope: None,
            stats: LumpStats {
                per_level: again.stats.per_level.clone(),
                original_states: result.stats.original_states,
                lumped_states: again.stats.lumped_states,
                memory_before: result.stats.memory_before,
                memory_after: again.stats.memory_after,
                nodes_merged: result.stats.nodes_merged + again.stats.nodes_merged,
                rounds,
                max_rate_deviation: result
                    .stats
                    .max_rate_deviation
                    .max(again.stats.max_rate_deviation),
                elapsed: result.stats.elapsed + again.stats.elapsed,
            },
        };
    }
}

/// The initial partition `P_i^ini` of Fig. 3b line 2, intersected with the
/// structural MDD-compatibility partition (DESIGN.md §4.2):
///
/// * ordinary: `f_i(s) = f_i(s′)`;
/// * exact: `f_{π,i}(s) = f_{π,i}(s′)` and
///   `r_{n_i,n_{i+1}}(s, S_i) = r_{n_i,n_{i+1}}(s′, S_i)` for every node
///   and child.
fn initial_partition(mrp: &MdMrp, level: usize, kind: LumpKind, tolerance: Tolerance) -> Partition {
    let md = mrp.matrix().md();
    let size = md.sizes()[level];
    let compat = mrp.matrix().reach().compatibility_partition(level);
    match kind {
        LumpKind::Ordinary => {
            let f = mrp.reward().level_values(level);
            compat.intersect(&Partition::from_key_fn(size, |s| tolerance.key(f[s])))
        }
        LumpKind::Exact => {
            let f = mrp.initial().level_values(level);
            let by_initial = Partition::from_key_fn(size, |s| tolerance.key(f[s]));
            // Per-(node, child) local row sums r_{n_i, n_{i+1}}(s, S_i).
            let zero = tolerance.key(0.0);
            let mut sums: Vec<BTreeMap<(u32, mdl_md::ChildId), f64>> = vec![BTreeMap::new(); size];
            for (ni, node) in md.level_nodes(level).iter().enumerate() {
                for e in node.entries() {
                    let row = &mut sums[e.row as usize];
                    for t in &e.terms {
                        *row.entry((ni as u32, t.child)).or_insert(0.0) += t.coef;
                    }
                }
            }
            let by_row_sums = Partition::from_key_fn(size, |s| {
                sums[s]
                    .iter()
                    .map(|(&k, &v)| (k, tolerance.key(v)))
                    .filter(|&(_, kv)| kv != zero)
                    .collect::<Vec<_>>()
            });
            compat.intersect(&by_initial).intersect(&by_row_sums)
        }
    }
}

/// Theorem-2 quotient of one node for an ordinary lumping:
/// entry `(C, C′) = Σ_{s′∈C′} formal-sum(rep(C), s′)`.
fn lump_node_ordinary(node: &MdNode, partition: &Partition) -> MdNode {
    let mut raw = Vec::with_capacity(node.num_entries());
    for (ci, members) in partition.iter() {
        let rep = members[0] as u32;
        for e in node.row(rep) {
            raw.push((
                ci as u32,
                partition.class_of(e.col as usize) as u32,
                e.terms.clone(),
            ));
        }
    }
    MdNode::new(raw)
}

/// Directed-rounded hull of per-member (ordinary) or per-column (exact)
/// aggregates, per lumped term `(row class, col class, child)`: `lo` is a
/// lower bound on the smallest aggregate, `hi` an upper bound on the
/// largest, `seen` how many members/columns contributed (those without
/// the key aggregate to exactly zero, folded in afterwards).
type Hull = BTreeMap<(u32, u32, ChildId), (f64, f64, usize)>;

/// Folds one aggregate into the hull.
fn hull_add(hull: &mut Hull, key: (u32, u32, ChildId), lo: f64, hi: f64) {
    let h = hull
        .entry(key)
        .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0));
    h.0 = h.0.min(lo);
    h.1 = h.1.max(hi);
    h.2 += 1;
}

/// Finishes the hull and assembles the enveloped node for the **exact**
/// orientation: columns missing a key contribute an exact zero
/// aggregate (folded in against the **column** class's size).
fn finish_enveloped_node(
    raw: Vec<(u32, u32, Vec<mdl_md::Term>)>,
    mut hull: Hull,
    col_class_size: impl Fn(u32) -> usize,
    level: u32,
    node_idx: u32,
    env: &mut RateEnvelope,
) -> MdNode {
    for (&(_, cj, _), h) in hull.iter_mut() {
        if h.2 < col_class_size(cj) {
            h.0 = h.0.min(0.0);
            h.1 = h.1.max(0.0);
        }
    }
    finish_enveloped_node_prefolded(raw, hull, level, node_idx, env)
}

/// [`lump_node_ordinary`] plus envelope recording: for every lumped term
/// the hull over the class members `s ∈ C` of the member aggregates
/// `a_s = Σ_{s′∈C′} coef(s, s′, child)` (each accumulated with directed
/// rounding). Same quotient — the stored coefficients still come from the
/// representative's row — except for the explicit zero-rate anchor terms
/// described at [`finish_enveloped_node`].
fn lump_node_ordinary_enveloped(
    node: &MdNode,
    partition: &Partition,
    level: u32,
    node_idx: u32,
    env: &mut RateEnvelope,
) -> MdNode {
    let mut raw = Vec::with_capacity(node.num_entries());
    let mut hull = Hull::new();
    for (ci, members) in partition.iter() {
        let rep = members[0] as u32;
        for e in node.row(rep) {
            raw.push((
                ci as u32,
                partition.class_of(e.col as usize) as u32,
                e.terms.clone(),
            ));
        }
        for &s in members {
            // This member's aggregate per (col class, child), bracketed.
            let mut agg: BTreeMap<(u32, ChildId), (f64, f64)> = BTreeMap::new();
            for e in node.row(s as u32) {
                let cj = partition.class_of(e.col as usize) as u32;
                for t in &e.terms {
                    let slot = agg.entry((cj, t.child)).or_insert((0.0, 0.0));
                    slot.0 = add_down(slot.0, t.coef);
                    slot.1 = add_up(slot.1, t.coef);
                }
            }
            for ((cj, child), (lo, hi)) in agg {
                hull_add(&mut hull, (ci as u32, cj, child), lo, hi);
            }
        }
    }
    let sizes: Vec<usize> = partition.iter().map(|(_, m)| m.len()).collect();
    // Ordinary: the hull varies over *members of the row class*.
    let hull = hull; // freeze
    let row_class_sizes = move |key_row: u32| sizes[key_row as usize];
    finish_enveloped_node_by_row(raw, hull, row_class_sizes, level, node_idx, env)
}

/// Ordinary-orientation wrapper: the `seen` count in the hull is against
/// the **row** class's member count.
fn finish_enveloped_node_by_row(
    raw: Vec<(u32, u32, Vec<mdl_md::Term>)>,
    mut hull: Hull,
    row_class_size: impl Fn(u32) -> usize,
    level: u32,
    node_idx: u32,
    env: &mut RateEnvelope,
) -> MdNode {
    for (&(ci, _, _), h) in hull.iter_mut() {
        if h.2 < row_class_size(ci) {
            h.0 = h.0.min(0.0);
            h.1 = h.1.max(0.0);
        }
    }
    finish_enveloped_node_prefolded(raw, hull, level, node_idx, env)
}

/// Core of [`finish_enveloped_node`] once zero-aggregates are folded in.
fn finish_enveloped_node_prefolded(
    mut raw: Vec<(u32, u32, Vec<mdl_md::Term>)>,
    hull: Hull,
    level: u32,
    node_idx: u32,
    env: &mut RateEnvelope,
) -> MdNode {
    let lumped = MdNode::new(raw.clone());
    let mut stored_keys: std::collections::HashSet<(u32, u32, ChildId)> =
        std::collections::HashSet::new();
    for e in lumped.entries() {
        for t in &e.terms {
            stored_keys.insert((e.row, e.col, t.child));
        }
    }
    let mut synthesized = false;
    for (&(ci, cj, child), &(lo, hi, _)) in &hull {
        if !stored_keys.contains(&(ci, cj, child)) && (lo < 0.0 || hi > 0.0) {
            raw.push((ci, cj, vec![mdl_md::Term::new(0.0, child)]));
            synthesized = true;
        }
    }
    let lumped = if synthesized {
        MdNode::new_keeping_zeros(raw)
    } else {
        lumped
    };
    for e in lumped.entries() {
        for t in &e.terms {
            if let Some(&(lo, hi, _)) = hull.get(&(e.row, e.col, t.child)) {
                env.record(level, node_idx, e.row, e.col, t.child, lo, hi, t.coef);
            }
        }
    }
    lumped
}

/// [`lump_node_exact`] plus envelope recording: for every lumped term the
/// hull over the columns `s′ ∈ C′` of the column aggregates
/// `b_{s′} = Σ_{s∈C} coef(s, s′, child)`.
fn lump_node_exact_enveloped(
    node: &MdNode,
    partition: &Partition,
    level: u32,
    node_idx: u32,
    env: &mut RateEnvelope,
) -> MdNode {
    let mut rep_class = vec![u32::MAX; partition.num_states()];
    for (cj, members) in partition.iter() {
        rep_class[members[0]] = cj as u32;
    }
    let mut raw = Vec::with_capacity(node.num_entries());
    // Per-column aggregates, bracketed: (row class, column, child).
    let mut agg: BTreeMap<(u32, u32, ChildId), (f64, f64)> = BTreeMap::new();
    for e in node.entries() {
        let ci = partition.class_of(e.row as usize) as u32;
        let cj = rep_class[e.col as usize];
        if cj != u32::MAX {
            raw.push((ci, cj, e.terms.clone()));
        }
        for t in &e.terms {
            let slot = agg.entry((ci, e.col, t.child)).or_insert((0.0, 0.0));
            slot.0 = add_down(slot.0, t.coef);
            slot.1 = add_up(slot.1, t.coef);
        }
    }
    let mut hull = Hull::new();
    for (&(ci, col, child), &(lo, hi)) in &agg {
        let cj = partition.class_of(col as usize) as u32;
        hull_add(&mut hull, (ci, cj, child), lo, hi);
    }
    let sizes: Vec<usize> = partition.iter().map(|(_, m)| m.len()).collect();
    // Exact: the hull varies over *columns of the column class*.
    finish_enveloped_node(
        raw,
        hull,
        move |cj| sizes[cj as usize],
        level,
        node_idx,
        env,
    )
}

/// Theorem-2 quotient of one node for an exact lumping:
/// entry `(C, C′) = Σ_{s∈C} formal-sum(s, rep(C′))`.
fn lump_node_exact(node: &MdNode, partition: &Partition) -> MdNode {
    // Mark representative columns with their class.
    let mut rep_class = vec![u32::MAX; partition.num_states()];
    for (cj, members) in partition.iter() {
        rep_class[members[0]] = cj as u32;
    }
    let mut raw = Vec::with_capacity(node.num_entries());
    for e in node.entries() {
        let cj = rep_class[e.col as usize];
        if cj != u32::MAX {
            raw.push((
                partition.class_of(e.row as usize) as u32,
                cj,
                e.terms.clone(),
            ));
        }
    }
    MdNode::new(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{Combiner, DecomposableVector};
    use mdl_md::{ChildId, KroneckerExpr, SparseFactor, Term};
    use mdl_mdd::Mdd;

    fn cycle(size: usize, rate: f64) -> SparseFactor {
        let mut f = SparseFactor::new(size);
        for s in 0..size {
            f.push(s, (s + 1) % size, rate);
        }
        f
    }

    /// 2-level model: level 1 a 2-cycle (distinguished by the reward);
    /// level 2 has states 1, 2 symmetric against state 0, with extra 1↔2
    /// exchange so that 0 cannot join their class (its aggregate row into
    /// {1,2} differs).
    fn symmetric_mrp() -> MdMrp {
        let mut w = SparseFactor::new(3);
        w.push(0, 1, 1.0);
        w.push(0, 2, 1.0);
        w.push(1, 0, 2.0);
        w.push(2, 0, 2.0);
        w.push(1, 2, 0.5);
        w.push(2, 1, 0.5);
        let mut expr = KroneckerExpr::new(vec![2, 3]);
        expr.add_term(1.0, vec![Some(cycle(2, 3.0)), None]);
        expr.add_term(1.0, vec![None, Some(w)]);
        let matrix = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 3]).unwrap()).unwrap();
        let reward =
            DecomposableVector::new(vec![vec![0.0, 1.0], vec![1.0, 1.0, 1.0]], Combiner::Product)
                .unwrap();
        let initial = DecomposableVector::point_mass(&[2, 3], &[0, 0]).unwrap();
        MdMrp::new(matrix, reward, initial).unwrap()
    }

    #[test]
    fn ordinary_lump_merges_symmetric_level() {
        let mrp = symmetric_mrp();
        let result = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        assert_eq!(result.stats.original_states, 6);
        assert_eq!(result.stats.lumped_states, 4);
        assert_eq!(result.partitions[1].num_classes(), 2);
        assert!(result.partitions[1].same_class(1, 2));
        assert_eq!(result.partitions[0].num_classes(), 2); // level 1 unchanged
    }

    #[test]
    fn lumped_md_flat_matches_quotient_of_flat() {
        let mrp = symmetric_mrp();
        let result = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();

        // Quotient the flat matrix by the induced global partition and
        // compare with the lumped MD's flat matrix.
        let full = mrp.matrix().flatten();
        let lumped_flat = result.mrp.matrix().flatten();
        let reach = mrp.matrix().reach();
        let lumped_reach = result.mrp.matrix().reach();

        reach.for_each_tuple(|tuple, idx| {
            let class_tuple: Vec<u32> = tuple
                .iter()
                .enumerate()
                .map(|(l, &s)| result.partitions[l].class_of(s as usize) as u32)
                .collect();
            let li = lumped_reach
                .index_of(&class_tuple)
                .expect("class state reachable");
            // Row sums into each lumped class must match the lumped row.
            for lj in 0..lumped_reach.count() {
                let mut sum = 0.0;
                reach.for_each_tuple(|t2, idx2| {
                    let c2: Vec<u32> = t2
                        .iter()
                        .enumerate()
                        .map(|(l, &s)| result.partitions[l].class_of(s as usize) as u32)
                        .collect();
                    if lumped_reach.index_of(&c2) == Some(lj) {
                        sum += full.get(idx as usize, idx2 as usize);
                    }
                });
                let got = lumped_flat.get(li as usize, lj as usize);
                assert!(
                    (sum - got).abs() < 1e-12,
                    "R(s, C) = {sum} but lumped R̂ = {got}"
                );
            }
        });
    }

    #[test]
    fn stationary_measure_preserved() {
        use mdl_ctmc::SolverOptions;
        let mrp = symmetric_mrp();
        let result = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        let full = mrp
            .expected_stationary_reward(&SolverOptions::default())
            .unwrap();
        let lumped = result
            .mrp
            .expected_stationary_reward(&SolverOptions::default())
            .unwrap();
        assert!((full - lumped).abs() < 1e-8, "{full} vs {lumped}");
    }

    #[test]
    fn exact_lump_preserves_transient_for_uniform_initial() {
        use mdl_ctmc::TransientOptions;
        // Uniform initial distribution is class-uniform for any partition.
        let mut w = SparseFactor::new(3);
        w.push(0, 1, 1.0);
        w.push(0, 2, 1.0);
        w.push(1, 0, 2.0);
        w.push(2, 0, 2.0);
        // States 1 and 2 have equal columns and equal exit rates: exactly
        // lumpable into {1,2}.
        let mut expr = KroneckerExpr::new(vec![2, 3]);
        expr.add_term(1.0, vec![Some(cycle(2, 3.0)), None]);
        expr.add_term(1.0, vec![None, Some(w)]);
        let matrix = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 3]).unwrap()).unwrap();
        let reward = DecomposableVector::constant(&[2, 3], 1.0).unwrap();
        let initial = DecomposableVector::uniform(&[2, 3], 6).unwrap();
        let mrp = MdMrp::new(matrix, reward, initial).unwrap();

        let result = LumpRequest::new(LumpKind::Exact).run(&mrp).unwrap();
        assert!(result.stats.lumped_states < result.stats.original_states);
        let measures = result
            .exact_measures()
            .expect("exact lump carries exit rates");

        // Transient distribution aggregated over classes must match the
        // exact-lumped computation (which evolves the per-state vector ν̂
        // with the representatives' exit rates — see crate::exact).
        let t = 0.8;
        let full = mrp.transient(t, &TransientOptions::default()).unwrap();
        let lumped_agg = measures
            .transient_aggregated(t, &TransientOptions::default())
            .unwrap();
        let reach = mrp.matrix().reach();
        let lumped_reach = result.mrp.matrix().reach();
        let mut agg = vec![0.0; lumped_agg.len()];
        reach.for_each_tuple(|tuple, idx| {
            let class_tuple: Vec<u32> = tuple
                .iter()
                .enumerate()
                .map(|(l, &s)| result.partitions[l].class_of(s as usize) as u32)
                .collect();
            let li = lumped_reach.index_of(&class_tuple).unwrap();
            agg[li as usize] += full.probabilities[idx as usize];
        });
        for (a, b) in agg.iter().zip(&lumped_agg) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }

        // Stationary aggregation must match as well.
        use mdl_ctmc::SolverOptions;
        let full_stat = mrp.stationary(&SolverOptions::default()).unwrap();
        let lumped_stat = measures
            .stationary_aggregated(&SolverOptions::default())
            .unwrap();
        let mut agg_stat = vec![0.0; lumped_stat.len()];
        reach.for_each_tuple(|tuple, idx| {
            let class_tuple: Vec<u32> = tuple
                .iter()
                .enumerate()
                .map(|(l, &s)| result.partitions[l].class_of(s as usize) as u32)
                .collect();
            let li = lumped_reach.index_of(&class_tuple).unwrap();
            agg_stat[li as usize] += full_stat.probabilities[idx as usize];
        });
        for (a, b) in agg_stat.iter().zip(&lumped_stat) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn reward_differences_block_merging() {
        let mut w = SparseFactor::new(3);
        w.push(0, 1, 1.0);
        w.push(0, 2, 1.0);
        w.push(1, 0, 2.0);
        w.push(2, 0, 2.0);
        let mut expr = KroneckerExpr::new(vec![2, 3]);
        expr.add_term(1.0, vec![Some(cycle(2, 3.0)), None]);
        expr.add_term(1.0, vec![None, Some(w)]);
        let matrix = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 3]).unwrap()).unwrap();
        // Reward distinguishes both level-1 states and all level-2 states.
        let reward =
            DecomposableVector::new(vec![vec![1.0, 2.0], vec![1.0, 3.0, 9.0]], Combiner::Product)
                .unwrap();
        let initial = DecomposableVector::point_mass(&[2, 3], &[0, 0]).unwrap();
        let mrp = MdMrp::new(matrix, reward, initial).unwrap();
        let result = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        assert_eq!(result.stats.lumped_states, 6, "reward must block the merge");
    }

    #[test]
    fn per_node_option_gives_same_result() {
        let mrp = symmetric_mrp();
        let a = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        let b = LumpRequest::new(LumpKind::Ordinary)
            .per_node_fixed_point(true)
            .run(&mrp)
            .unwrap();
        assert_eq!(a.partitions, b.partitions);
    }

    #[test]
    fn node_counts_do_not_grow() {
        let mrp = symmetric_mrp();
        let result = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        let before = mrp.matrix().md().nodes_per_level();
        let after = result.mrp.matrix().md().nodes_per_level();
        assert_eq!(before, after, "plain lumping preserves node counts");
    }

    #[test]
    fn quasi_reduce_never_increases_nodes() {
        let mrp = symmetric_mrp();
        let plain = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        let reduced = LumpRequest::new(LumpKind::Ordinary)
            .quasi_reduce(true)
            .run(&mrp)
            .unwrap();
        assert!(reduced.mrp.matrix().md().num_nodes() <= plain.mrp.matrix().md().num_nodes());
        // Same represented matrix either way.
        assert_eq!(
            plain
                .mrp
                .matrix()
                .flatten()
                .max_abs_diff(&reduced.mrp.matrix().flatten()),
            0.0
        );
    }

    /// Builds a 2-level MD whose two level-1 nodes `A ≠ B` have equal
    /// quotients under the level-1 lumping — the witness that
    /// quasi-reduction between rounds can unlock further lumping.
    fn two_round_mrp() -> MdMrp {
        use mdl_md::MdBuilder;
        let mut b = MdBuilder::new(vec![2, 3]).unwrap();
        let id3 = b.intern_identity(1, ChildId::Terminal).unwrap();
        let a = b
            .intern_node(
                1,
                vec![
                    (0, 1, vec![Term::new(1.0, ChildId::Terminal)]),
                    (0, 2, vec![Term::new(1.0, ChildId::Terminal)]),
                    (1, 0, vec![Term::new(4.0, ChildId::Terminal)]),
                    (2, 0, vec![Term::new(4.0, ChildId::Terminal)]),
                ],
            )
            .unwrap();
        let bb = b
            .intern_node(
                1,
                vec![
                    (0, 1, vec![Term::new(0.5, ChildId::Terminal)]),
                    (0, 2, vec![Term::new(1.5, ChildId::Terminal)]),
                    (1, 0, vec![Term::new(4.0, ChildId::Terminal)]),
                    (2, 0, vec![Term::new(4.0, ChildId::Terminal)]),
                ],
            )
            .unwrap();
        assert_ne!(a, bb);
        let root = b
            .intern_node(
                0,
                vec![
                    (0, 0, vec![Term::new(1.0, ChildId::Node(a))]),
                    (1, 1, vec![Term::new(1.0, ChildId::Node(bb))]),
                    (0, 1, vec![Term::new(3.0, ChildId::Node(id3))]),
                    (1, 0, vec![Term::new(3.0, ChildId::Node(id3))]),
                ],
            )
            .unwrap();
        let md = b.finish(root).unwrap();
        let matrix = MdMatrix::new(md, Mdd::full(vec![2, 3]).unwrap()).unwrap();
        let reward = DecomposableVector::constant(&[2, 3], 1.0).unwrap();
        let initial = DecomposableVector::uniform(&[2, 3], 6).unwrap();
        MdMrp::new(matrix, reward, initial).unwrap()
    }

    #[test]
    fn iteration_can_beat_single_pass() {
        let mrp = two_round_mrp();
        let single = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        // Single pass: level 0 cannot merge (distinct children A, B).
        assert_eq!(single.stats.lumped_states, 4);

        let iterated = LumpRequest::new(LumpKind::Ordinary)
            .iterate(true)
            .run(&mrp)
            .unwrap();
        assert!(iterated.stats.rounds >= 2);
        // After quasi-reduction merges lump(A) = lump(B), level 0 lumps too.
        assert_eq!(iterated.stats.lumped_states, 2);
        assert_eq!(iterated.stats.original_states, 6);
        // The composed partitions still verify against the original chain.
        crate::verify::verify_ordinary(&mrp, &iterated, mdl_linalg::Tolerance::default()).unwrap();
    }

    #[test]
    fn iteration_is_noop_when_single_pass_suffices() {
        let mrp = symmetric_mrp();
        let single = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        let iterated = LumpRequest::new(LumpKind::Ordinary)
            .iterate(true)
            .run(&mrp)
            .unwrap();
        assert_eq!(iterated.stats.rounds, 2); // one productive round + one fixpoint check
        assert_eq!(single.stats.lumped_states, iterated.stats.lumped_states);
    }

    #[test]
    fn iterated_exact_lump_keeps_correct_exit_rates() {
        use mdl_ctmc::TransientOptions;
        let mrp = two_round_mrp();
        let iterated = LumpRequest::new(LumpKind::Exact)
            .iterate(true)
            .run(&mrp)
            .unwrap();
        crate::verify::verify_exact(&mrp, &iterated, mdl_linalg::Tolerance::default()).unwrap();
        let measures = iterated
            .exact_measures()
            .expect("exact exit rates recorded");
        // Aggregated transient must match the full chain.
        let t = 0.6;
        let full = mrp.transient(t, &TransientOptions::default()).unwrap();
        let agg_lumped = measures
            .transient_aggregated(t, &TransientOptions::default())
            .unwrap();
        let reach = mrp.matrix().reach();
        let lumped_reach = iterated.mrp.matrix().reach();
        let mut agg = vec![0.0; agg_lumped.len()];
        reach.for_each_tuple(|tuple, idx| {
            let class_tuple: Vec<u32> = tuple
                .iter()
                .enumerate()
                .map(|(l, &s)| iterated.partitions[l].class_of(s as usize) as u32)
                .collect();
            let li = lumped_reach.index_of(&class_tuple).unwrap();
            agg[li as usize] += full.probabilities[idx as usize];
        });
        for (x, y) in agg.iter().zip(&agg_lumped) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn canonicalization_improves_partitions() {
        use mdl_md::MdBuilder;
        // Bottom nodes `small` and `big = 3·small`; root rows reach the
        // same flat block (6·small) through different (node, coefficient)
        // pairs, so the plain formal-sum key separates them while the
        // canonical one does not.
        let mut b = MdBuilder::new(vec![2, 2]).unwrap();
        let small = b
            .intern_node(
                1,
                vec![
                    (0, 1, vec![Term::new(1.0, ChildId::Terminal)]),
                    (1, 0, vec![Term::new(2.0, ChildId::Terminal)]),
                ],
            )
            .unwrap();
        let big = b
            .intern_node(
                1,
                vec![
                    (0, 1, vec![Term::new(3.0, ChildId::Terminal)]),
                    (1, 0, vec![Term::new(6.0, ChildId::Terminal)]),
                ],
            )
            .unwrap();
        let root = b
            .intern_node(
                0,
                vec![
                    (0, 0, vec![Term::new(6.0, ChildId::Node(small))]),
                    (1, 1, vec![Term::new(2.0, ChildId::Node(big))]),
                ],
            )
            .unwrap();
        let md = b.finish(root).unwrap();
        let matrix = MdMatrix::new(md, Mdd::full(vec![2, 2]).unwrap()).unwrap();
        let reward = DecomposableVector::constant(&[2, 2], 1.0).unwrap();
        let initial = DecomposableVector::uniform(&[2, 2], 4).unwrap();
        let mrp = MdMrp::new(matrix, reward, initial).unwrap();

        let plain = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        assert!(!plain.partitions[0].same_class(0, 1));

        let canon = LumpRequest::new(LumpKind::Ordinary)
            .canonicalize(true)
            .run(&mrp)
            .unwrap();
        assert!(canon.partitions[0].same_class(0, 1));
        assert!(canon.stats.lumped_states < plain.stats.lumped_states);
        // Still a genuine lumping of the original chain.
        crate::verify::verify_ordinary(&mrp, &canon, mdl_linalg::Tolerance::default()).unwrap();
    }

    #[test]
    fn lump_node_ordinary_sums_columns() {
        // Node over 3 states: 0 -> 1 (1.0), 0 -> 2 (2.0); lump {1,2}.
        let node = MdNode::new(vec![
            (0, 1, vec![Term::new(1.0, ChildId::Terminal)]),
            (0, 2, vec![Term::new(2.0, ChildId::Terminal)]),
        ]);
        let p = Partition::from_classes(vec![vec![0], vec![1, 2]]);
        let lumped = lump_node_ordinary(&node, &p);
        assert_eq!(lumped.num_entries(), 1);
        assert_eq!(lumped.entries()[0].terms[0].coef, 3.0);
        assert_eq!((lumped.entries()[0].row, lumped.entries()[0].col), (0, 1));
    }

    #[test]
    fn lump_node_exact_sums_rows() {
        let node = MdNode::new(vec![
            (1, 0, vec![Term::new(1.0, ChildId::Terminal)]),
            (2, 0, vec![Term::new(2.0, ChildId::Terminal)]),
        ]);
        let p = Partition::from_classes(vec![vec![0], vec![1, 2]]);
        let lumped = lump_node_exact(&node, &p);
        assert_eq!(lumped.num_entries(), 1);
        assert_eq!(lumped.entries()[0].terms[0].coef, 3.0);
        assert_eq!((lumped.entries()[0].row, lumped.entries()[0].col), (1, 0));
    }

    #[test]
    fn lumping_emits_obs_spans_and_counters() {
        use mdl_obs::{EventKind, Value};
        let _g = mdl_obs::testing::guard();
        mdl_obs::reset();
        mdl_obs::set_enabled(true);
        let sub = std::sync::Arc::new(mdl_obs::MemorySubscriber::new());
        mdl_obs::add_subscriber(sub.clone());

        let mrp = symmetric_mrp();
        let result = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();

        mdl_obs::clear_subscribers();
        let report = mdl_obs::snapshot();
        mdl_obs::set_enabled(false);

        // One lump.level span per MD level, each with a duration and the
        // sizes that also land in the public LumpStats.
        let events = sub.take();
        for (level, stats) in result.stats.per_level.iter().enumerate() {
            let span = events
                .iter()
                .find(|e| {
                    e.kind == EventKind::SpanEnd
                        && e.name == "lump.level"
                        && e.fields.contains(&("level", Value::from(level)))
                })
                .expect("one lump.level span per level");
            assert!(span.nanos.is_some(), "level span carries a duration");
            assert!(span
                .fields
                .contains(&("original_size", Value::from(stats.original_size))));
            assert!(span
                .fields
                .contains(&("lumped_size", Value::from(stats.lumped_size))));
        }
        let run = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd && e.name == "lump.run")
            .expect("lump.run span");
        assert!(run
            .fields
            .contains(&("lumped_states", Value::from(result.stats.lumped_states))));

        // Refinement work feeds the registry counters.
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert!(counter("lump.refine.splitters") > 0);
        assert!(counter("lump.refine.keys") > 0);
    }

    #[test]
    fn threaded_lump_is_bit_identical_to_serial() {
        for mrp in [symmetric_mrp(), two_round_mrp()] {
            for kind in [LumpKind::Ordinary, LumpKind::Exact] {
                let serial = LumpRequest::new(kind).iterate(true).run(&mrp).unwrap();
                for threads in [2usize, 4, 0] {
                    let par = LumpRequest::new(kind)
                        .iterate(true)
                        .threads(threads)
                        .run(&mrp)
                        .unwrap();
                    assert_eq!(par.partitions, serial.partitions, "threads = {threads}");
                    assert_eq!(
                        par.mrp
                            .matrix()
                            .flatten()
                            .max_abs_diff(&serial.mrp.matrix().flatten()),
                        0.0,
                        "lumped MD bitwise equal at threads = {threads}"
                    );
                    assert_eq!(par.exact_exit_rates, serial.exact_exit_rates);
                }
            }
        }
    }

    #[test]
    fn seeded_lump_is_bit_identical_and_skips_refinement() {
        for kind in [LumpKind::Ordinary, LumpKind::Exact] {
            let mrp = symmetric_mrp();
            let fresh = LumpRequest::new(kind).run(&mrp).unwrap();
            let seeds: Vec<Option<Partition>> =
                fresh.partitions.iter().cloned().map(Some).collect();
            let seeded = LumpRequest::new(kind)
                .seed_partitions(seeds)
                .run(&mrp)
                .unwrap();
            assert_eq!(seeded.partitions, fresh.partitions);
            assert_eq!(seeded.exact_exit_rates, fresh.exact_exit_rates);
            assert_eq!(
                seeded
                    .mrp
                    .matrix()
                    .flatten()
                    .max_abs_diff(&fresh.mrp.matrix().flatten()),
                0.0,
                "seeded lumped MD bitwise equal"
            );
            for l in &seeded.stats.per_level {
                assert_eq!(l.refinement.splitters_processed, 0, "no refinement work");
                assert_eq!(l.refinement.keys_emitted, 0);
            }
        }
    }

    #[test]
    fn partial_and_mis_sized_seeds_fall_back_to_refinement() {
        let mrp = symmetric_mrp();
        let fresh = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        // Seed only level 1; level 0 (None) and a mis-sized level-1 seed
        // must refine normally and still land on the same partitions.
        let seeded = LumpRequest::new(LumpKind::Ordinary)
            .seed_partitions(vec![None, Some(fresh.partitions[1].clone())])
            .run(&mrp)
            .unwrap();
        assert_eq!(seeded.partitions, fresh.partitions);
        let mis_sized = LumpRequest::new(LumpKind::Ordinary)
            .seed_partitions(vec![
                Some(Partition::from_key_fn(7, |s| s)), // wrong size: ignored
                None,
            ])
            .run(&mrp)
            .unwrap();
        assert_eq!(mis_sized.partitions, fresh.partitions);
        assert!(
            mis_sized.stats.per_level[0].refinement.splitters_processed > 0,
            "ignored seed means the level was refined"
        );
    }

    #[test]
    fn canonicalize_ignores_seeds() {
        let mrp = symmetric_mrp();
        let canon = LumpRequest::new(LumpKind::Ordinary)
            .canonicalize(true)
            .run(&mrp)
            .unwrap();
        // A deliberately wrong (but size-matching) seed must not leak into
        // a canonicalizing run.
        let wrong = Partition::from_key_fn(mrp.matrix().md().sizes()[1], |s| s);
        let seeded = LumpRequest::new(LumpKind::Ordinary)
            .canonicalize(true)
            .seed_partitions(vec![None, Some(wrong)])
            .run(&mrp)
            .unwrap();
        assert_eq!(seeded.partitions, canon.partitions);
    }

    /// [`symmetric_mrp`] with the level-2 exchange rates perturbed at the
    /// third decimal: states 1 and 2 lump only under
    /// `Tolerance::Decimals(2)` (or coarser), not under the default
    /// nine-decimal comparison.
    fn near_symmetric_mrp() -> MdMrp {
        let mut w = SparseFactor::new(3);
        w.push(0, 1, 1.0);
        w.push(0, 2, 1.001);
        w.push(1, 0, 2.0);
        w.push(2, 0, 2.001);
        w.push(1, 2, 0.5);
        w.push(2, 1, 0.501);
        let mut expr = KroneckerExpr::new(vec![2, 3]);
        expr.add_term(1.0, vec![Some(cycle(2, 3.0)), None]);
        expr.add_term(1.0, vec![None, Some(w)]);
        let matrix = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 3]).unwrap()).unwrap();
        let reward =
            DecomposableVector::new(vec![vec![0.0, 1.0], vec![1.0, 1.0, 1.0]], Combiner::Product)
                .unwrap();
        let initial = DecomposableVector::point_mass(&[2, 3], &[0, 0]).unwrap();
        MdMrp::new(matrix, reward, initial).unwrap()
    }

    #[test]
    fn tolerance_lump_records_rate_envelope() {
        let mrp = near_symmetric_mrp();

        // At the default nine decimals the perturbed states stay split,
        // and nothing is absorbed: the envelope exists but is empty.
        let tight = LumpRequest::new(LumpKind::Ordinary).run(&mrp).unwrap();
        assert_eq!(tight.stats.lumped_states, 6);
        let env = tight.envelope.as_ref().expect("tolerance run");
        assert!(env.is_empty(), "nothing lumped, nothing absorbed");
        assert_eq!(tight.stats.max_rate_deviation, 0.0);

        // At two decimals states 1 and 2 merge; the envelope must record
        // the member rates each lumped coefficient stands in for.
        let tol = LumpRequest::new(LumpKind::Ordinary)
            .tolerance(Tolerance::Decimals(2))
            .run(&mrp)
            .unwrap();
        assert_eq!(tol.stats.lumped_states, 4);
        let env = tol.envelope.as_ref().expect("tolerance run");
        assert!(!env.is_empty());
        assert!(tol.stats.max_rate_deviation > 0.0);
        assert!(
            tol.stats.max_rate_deviation <= 0.002,
            "perturbation is at the third decimal: {}",
            tol.stats.max_rate_deviation
        );
        assert_eq!(tol.stats.max_rate_deviation, env.max_deviation());
        // The lumped "exchange back to 0" coefficient is the
        // representative's 2.0, standing in for member rates 2.0 and
        // 2.001 — its recorded interval must cover both. (Scan node
        // indices: the level-1 node order depends on the Kronecker
        // translation.)
        let covered = (0..8).any(|node| {
            let site = TermSite {
                level: 1,
                node,
                row: 1,
                col: 0,
                child: ChildId::Terminal,
                coef: 2.0,
            };
            let w = env.widen(&site);
            w.lo <= 2.0 && w.hi >= 2.001
        });
        assert!(covered, "envelope covers both member aggregates");
    }

    #[test]
    fn exact_kind_tolerance_lump_records_envelope_too() {
        let mrp = near_symmetric_mrp();
        let tol = LumpRequest::new(LumpKind::Exact)
            .tolerance(Tolerance::Decimals(2))
            .run(&mrp)
            .unwrap();
        assert!(tol.stats.lumped_states < tol.stats.original_states);
        let env = tol.envelope.as_ref().expect("tolerance run");
        assert!(!env.is_empty());
        assert!(tol.stats.max_rate_deviation > 0.0);
        assert_eq!(tol.stats.max_rate_deviation, env.max_deviation());
    }

    #[test]
    fn exactly_lumpable_tolerance_run_has_empty_envelope() {
        // The genuinely symmetric model lumps under a tolerance run, but
        // every member aggregate equals its representative's bit for bit,
        // so no envelope entry is recorded and the absorbed deviation is
        // exactly zero — the property that lets the bounds path return
        // degenerate [x, x] intervals for exactly lumpable models.
        let mrp = symmetric_mrp();
        for kind in [LumpKind::Ordinary, LumpKind::Exact] {
            let result = LumpRequest::new(kind)
                .tolerance(Tolerance::Decimals(2))
                .run(&mrp)
                .unwrap();
            assert!(result.stats.lumped_states < result.stats.original_states);
            let env = result.envelope.as_ref().expect("tolerance run");
            assert!(env.is_empty(), "{kind:?}: {} entries", env.len());
            assert_eq!(result.stats.max_rate_deviation, 0.0);
        }
    }

    #[test]
    fn exact_tolerance_runs_carry_no_envelope() {
        let mrp = symmetric_mrp();
        let result = LumpRequest::new(LumpKind::Ordinary)
            .tolerance(Tolerance::Exact)
            .run(&mrp)
            .unwrap();
        assert!(result.envelope.is_none());
        assert_eq!(result.stats.max_rate_deviation, 0.0);
    }

    #[test]
    fn enveloped_quotient_is_bit_identical_to_plain_quotient() {
        // The envelope recording must not change the lumped diagram
        // itself (beyond explicit zero-rate anchors, which the flat
        // matrix cannot see).
        for mrp in [symmetric_mrp(), near_symmetric_mrp()] {
            for kind in [LumpKind::Ordinary, LumpKind::Exact] {
                let tol = LumpRequest::new(kind)
                    .tolerance(Tolerance::Decimals(2))
                    .run(&mrp)
                    .unwrap();
                let exact = LumpRequest::new(kind)
                    .tolerance(Tolerance::Exact)
                    .seed_partitions(tol.partitions.iter().cloned().map(Some).collect())
                    .run(&mrp)
                    .unwrap();
                assert_eq!(
                    tol.mrp
                        .matrix()
                        .flatten()
                        .max_abs_diff(&exact.mrp.matrix().flatten()),
                    0.0,
                    "{kind:?}: enveloped quotient bitwise equal"
                );
            }
        }
    }

    #[test]
    fn expired_deadline_interrupts_lumping() {
        let mrp = symmetric_mrp();
        let err = LumpRequest::new(LumpKind::Ordinary)
            .budget(Budget::unlimited().deadline_in(Duration::ZERO))
            .run(&mrp)
            .unwrap_err();
        match err {
            crate::CoreError::Interrupted { phase, .. } => {
                assert!(phase.starts_with("lump."), "{phase}")
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }
}
