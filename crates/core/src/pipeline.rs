//! The staged pipeline engine: explicit stages with content-addressed,
//! on-disk caching of every intermediate artifact.
//!
//! The paper's central economic argument is that the lumped matrix
//! diagram is a *reusable* artifact — lumping is paid once, then many
//! measures are answered against the small quotient. [`Pipeline`] makes
//! the reuse literal across *processes*: each stage of a solve
//!
//! ```text
//! model text ──build──▶ MdMrp ──lump──▶ lumped MdMrp ──compile──▶ kernel
//!                                            │                      │
//!                                            └────────solve─────────┘──▶ measures
//! ```
//!
//! derives a 64-bit cache key from the FNV-1a hash of its *inputs* (the
//! upstream stage's key plus every result-relevant request field — see
//! [`LumpRequest::write_cache_key`] and [`SolveRequest::write_cache_key`])
//! and, when a [`Store`] is attached, persists its outputs under that key
//! and short-circuits when they are already present. Invalidation is
//! structural: change the model text or any relevant option and the keys
//! change, so stale artifacts are simply never addressed. Keys
//! deliberately **exclude** thread counts, budgets, warm starts and
//! checkpoint plumbing — results are bit-identical across thread counts
//! (DESIGN.md §12), and budgets/warm starts change whether and where an
//! iteration runs, never the fixed point it converges to.
//!
//! Unreadable or corrupt cached artifacts are counted on the
//! `store.invalid` counter and treated as misses (the cache self-heals by
//! recomputing and overwriting); failures to *write* artifacts are real
//! errors ([`CoreError::Store`](crate::CoreError::Store)) — the caller
//! asked for caching and silently not caching would hide it.
//!
//! Every stage emits a `pipeline.stage` span with a `stage` label and a
//! `cache` field (`"hit"` / `"miss"`), so a JSONL obs stream shows
//! exactly which stages were skipped. The symbolic representation sizes
//! land on `md.memory_bytes` / `mdd.memory_bytes` (and `lump.*`
//! equivalents after lumping).
//!
//! Checkpoint/resume for long solves rides on the same store: sinks from
//! [`Pipeline::stationary_checkpoint_sink`] /
//! [`Pipeline::transient_checkpoint_sink`] snapshot the iterate under the
//! solve's key, and [`Pipeline::load_checkpoint`] +
//! [`transient_resume`] turn a snapshot back into solver options.

use std::sync::Arc;

use mdl_ctmc::{CheckpointSink, RunReport, Solution, TransientProgress, TransientSink};
use mdl_md::{CompiledMdMatrix, MdMatrix};
use mdl_obs::Budget;
use mdl_partition::{Partition, RefinementStats};
use mdl_store::{
    Artifact, ByteReader, ByteWriter, Checkpoint, Codec, Fnv1a, KernelImage, MappedArtifact,
    MdImage, MddImage, Store, StoreError,
};

use crate::decomp::{Combiner, DecomposableVector};
use crate::lump::{LevelLumpStats, LumpRequest, LumpResult, LumpStats};
use crate::mrp::MdMrp;
use crate::solve::{SolveOutcome, SolveRequest, SolveTarget};
use crate::Result;

/// Cache key of a model description: the hash of its raw source text.
/// Any textual change — even whitespace — yields a different key and
/// therefore a fresh pipeline; semantic equality of models is
/// deliberately not attempted.
pub fn model_source_key(source: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("model");
    h.write_str(source);
    h.finish()
}

/// A stage output: the value, the content key it is addressed by, and
/// whether it came from the cache.
#[derive(Debug, Clone)]
pub struct Staged<T> {
    /// The stage's output value.
    pub value: T,
    /// The 64-bit content key the value is (or would be) stored under.
    pub key: u64,
    /// `true` when the value was loaded from the store instead of
    /// computed.
    pub cached: bool,
}

/// The staged solve pipeline. Without a store it is a thin orchestrator
/// (every stage computes); with one ([`Pipeline::with_store`]) each stage
/// persists its artifacts and reuses them on the next run.
#[derive(Debug, Clone)]
pub struct Pipeline {
    model_key: u64,
    store: Option<Store>,
}

impl Pipeline {
    /// A pipeline without persistence: stages always compute.
    pub fn new(model_key: u64) -> Self {
        Pipeline {
            model_key,
            store: None,
        }
    }

    /// A pipeline persisting every stage artifact in `store`.
    pub fn with_store(model_key: u64, store: Store) -> Self {
        Pipeline {
            model_key,
            store: Some(store),
        }
    }

    /// The model key all stage keys derive from.
    pub fn model_key(&self) -> u64 {
        self.model_key
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Loads an artifact, treating corrupt/unreadable files as misses
    /// (counted on `store.invalid`) so a damaged cache heals by
    /// recomputation instead of wedging the run.
    pub(crate) fn fetch<A: Artifact>(&self, key: u64) -> Option<A> {
        self.open_with(|store| store.load(key))
    }

    /// [`fetch`](Self::fetch) for arena images: one [`Store::map`] call,
    /// zero-copy where mapping is supported and copy-decoding elsewhere.
    fn fetch_image<A: MappedArtifact>(&self, key: u64) -> Option<A> {
        self.open_with(|store| store.map(key))
    }

    /// Runs one store read; a failed read counts on `store.invalid` and
    /// reads as a miss.
    fn open_with<A>(
        &self,
        open: impl FnOnce(&Store) -> std::result::Result<Option<A>, StoreError>,
    ) -> Option<A> {
        match open(self.store.as_ref()?) {
            Ok(found) => found,
            Err(_) => {
                mdl_obs::counter("store.invalid").inc();
                None
            }
        }
    }

    /// Saves an artifact if a store is attached. Write failures are real
    /// errors — the user asked for caching.
    pub(crate) fn persist<A: Artifact>(&self, key: u64, artifact: &A) -> Result<()> {
        if let Some(store) = &self.store {
            store.save(key, artifact)?;
        }
        Ok(())
    }

    /// **Stage: build.** Produces the symbolic MRP for the model, either
    /// from four cached artifacts (MD and reachability MDD images, reward
    /// and initial vectors) or by running `builder` and persisting its
    /// parts.
    ///
    /// Vectors with a [`Combiner::Custom`] cannot be serialized, so an
    /// MRP containing one is returned uncached (and un-persisted) rather
    /// than rejected.
    ///
    /// # Errors
    ///
    /// Whatever `builder` raises, plus [`CoreError::Store`](crate::CoreError::Store)
    /// on persist failure.
    pub fn build(&self, builder: impl FnOnce() -> Result<MdMrp>) -> Result<Staged<MdMrp>> {
        self.build_under(stage_key("build", self.model_key, |_| {}), builder)
    }

    /// [`build`](Self::build) with an explicit stage key — the sweep
    /// stage derives one key per sweep point (the model key plus the
    /// point's parameter assignment) and stages each point's MRP under
    /// it.
    pub(crate) fn build_under(
        &self,
        key: u64,
        builder: impl FnOnce() -> Result<MdMrp>,
    ) -> Result<Staged<MdMrp>> {
        let mut span = mdl_obs::span("pipeline.stage").with("stage", "build");
        span.trace_label("pipeline.build");
        if let Some(mrp) = self.fetch_mrp(key) {
            record_memory(&mrp, "md.memory_bytes", "mdd.memory_bytes");
            span.record("cache", "hit");
            span.finish();
            return Ok(Staged {
                value: mrp,
                key,
                cached: true,
            });
        }
        let mrp = builder()?;
        self.persist_mrp(key, &mrp)?;
        record_memory(&mrp, "md.memory_bytes", "mdd.memory_bytes");
        span.record("cache", "miss");
        span.finish();
        Ok(Staged {
            value: mrp,
            key,
            cached: false,
        })
    }

    /// **Stage: lump.** Runs (or restores) a compositional lump of the
    /// input MRP. The key hashes the input's key and every
    /// result-relevant request field ([`LumpRequest::write_cache_key`]);
    /// the cached form is the lumped MRP's four artifacts plus the
    /// per-level partitions and a [`LumpStats`] record.
    ///
    /// # Errors
    ///
    /// As for [`LumpRequest::run`], plus store write failures.
    pub fn lump(&self, input: &Staged<MdMrp>, request: &LumpRequest) -> Result<Staged<LumpResult>> {
        let key = stage_key("lump", input.key, |h| request.write_cache_key(h));
        let mut span = mdl_obs::span("pipeline.stage").with("stage", "lump");
        span.trace_label("pipeline.lump");
        if let Some(result) = self.fetch_lump(key) {
            record_memory(&result.mrp, "lump.md.memory_bytes", "lump.mdd.memory_bytes");
            span.record("cache", "hit");
            span.finish();
            return Ok(Staged {
                value: result,
                key,
                cached: true,
            });
        }
        let result = request.run(&input.value)?;
        self.persist_mrp(key, &result.mrp)?;
        for (level, partition) in result.partitions.iter().enumerate() {
            self.persist(sub_key(key, &format!("part{level}")), partition)?;
        }
        self.persist(
            key,
            &LumpMeta {
                stats: result.stats.clone(),
                exact_exit_rates: result.exact_exit_rates.clone(),
            },
        )?;
        record_memory(&result.mrp, "lump.md.memory_bytes", "lump.mdd.memory_bytes");
        span.record("cache", "miss");
        span.finish();
        Ok(Staged {
            value: result,
            key,
            cached: false,
        })
    }

    /// **Stage: compile.** Compiles (or restores) the multiply kernel for
    /// the input MRP's matrix. Thread count is *not* part of the key:
    /// the persisted [`mdl_md::CompiledParts`] are thread-independent and
    /// the per-thread plans are rebuilt on load.
    ///
    /// A compute persists the parts once, as a [`KernelImage`]. Restore
    /// opens that image through [`Store::map`]: its slabs are borrowed
    /// zero-copy from a `mmap(2)` region shared by every clone of the
    /// store (and through the page cache by other processes), and are
    /// copy-decoded only where mapping is unsupported.
    ///
    /// # Errors
    ///
    /// Compile interruption (budget), plus store write failures.
    pub fn compile(
        &self,
        input: &Staged<MdMrp>,
        threads: usize,
        budget: &Budget,
    ) -> Result<Staged<Arc<CompiledMdMatrix>>> {
        let key = stage_key("kernel", input.key, |_| {});
        let mut span = mdl_obs::span("pipeline.stage").with("stage", "compile");
        span.trace_label("pipeline.compile");
        if let Some(image) = self.fetch_image::<KernelImage>(key) {
            let source = if image.0.is_mapped() { "map" } else { "decode" };
            match CompiledMdMatrix::from_parts(image.into_inner(), threads) {
                Ok(kernel) => {
                    span.record("cache", "hit");
                    span.record("source", source);
                    span.finish();
                    return Ok(Staged {
                        value: Arc::new(kernel),
                        key,
                        cached: true,
                    });
                }
                // Parts that parse but fail structural validation: a
                // stale or damaged artifact. Recompile over it.
                Err(_) => mdl_obs::counter("store.invalid").inc(),
            }
        }
        let compiled = CompiledMdMatrix::compile_budgeted(input.value.matrix(), threads, budget)?;
        self.persist(key, &KernelImage(compiled.to_parts()))?;
        span.record("cache", "miss");
        span.finish();
        Ok(Staged {
            value: Arc::new(compiled),
            key,
            cached: false,
        })
    }

    /// The cache key a [`SolveRequest`] run against the MRP under
    /// `input_key` is stored under — also the key its checkpoints use.
    pub fn solve_key(&self, input_key: u64, request: &SolveRequest) -> u64 {
        stage_key("solve", input_key, |h| request.write_cache_key(h))
    }

    /// **Stage: solve.** Executes (or restores) a solve. A cache hit
    /// returns the stored outcome *and* the stored [`RunReport`] of the
    /// run that produced it; both must be present, else the stage
    /// recomputes. Only successful outcomes are cached — failures are
    /// re-attempted on the next run.
    pub fn solve(
        &self,
        input: &Staged<MdMrp>,
        request: &SolveRequest,
    ) -> (Result<Staged<SolveOutcome>>, RunReport) {
        let key = self.solve_key(input.key, request);
        let mut span = mdl_obs::span("pipeline.stage").with("stage", "solve");
        span.trace_label("pipeline.solve");
        if let Some((outcome, report)) = self.fetch_solve(key, request.target()) {
            span.record("cache", "hit");
            span.finish();
            return (
                Ok(Staged {
                    value: outcome,
                    key,
                    cached: true,
                }),
                report,
            );
        }
        let (result, report) = request.run(&input.value);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                span.record("cache", "miss");
                span.finish();
                return (Err(e), report);
            }
        };
        let saved = (|| {
            match &outcome {
                SolveOutcome::Distribution(sol) => self.persist(key, sol)?,
                SolveOutcome::Value(v) => self.persist(key, &vec![*v])?,
            }
            self.persist(key, &report)
        })();
        span.record("cache", "miss");
        span.finish();
        if let Err(e) = saved {
            return (Err(e), report);
        }
        (
            Ok(Staged {
                value: outcome,
                key,
                cached: false,
            }),
            report,
        )
    }

    /// **Stage: measure.** Caches an arbitrary derived vector (an
    /// expected-reward scalar, a cross-check distribution, …) under the
    /// input key and a distinguishing label.
    ///
    /// # Errors
    ///
    /// Whatever `compute` raises, plus store write failures.
    pub fn measure(
        &self,
        input_key: u64,
        label: &str,
        compute: impl FnOnce() -> Result<Vec<f64>>,
    ) -> Result<Staged<Vec<f64>>> {
        let key = stage_key("measure", input_key, |h| h.write_str(label));
        let mut span = mdl_obs::span("pipeline.stage").with("stage", "measure");
        span.trace_label("pipeline.measure");
        if let Some(value) = self.fetch::<Vec<f64>>(key) {
            span.record("cache", "hit");
            span.finish();
            return Ok(Staged {
                value,
                key,
                cached: true,
            });
        }
        let value = compute()?;
        self.persist(key, &value)?;
        span.record("cache", "miss");
        span.finish();
        Ok(Staged {
            value,
            key,
            cached: false,
        })
    }

    /// A sink snapshotting a stationary solve's iterate every `every`
    /// iterations (and on interruption) under the solve's key. `None`
    /// without a store. Snapshot write failures are swallowed — a
    /// checkpoint must never kill the solve it protects.
    pub fn stationary_checkpoint_sink(
        &self,
        solve_key: u64,
        every: usize,
    ) -> Option<CheckpointSink> {
        let store = self.store.clone()?;
        Some(CheckpointSink {
            every,
            sink: Arc::new(move |iterations, residual, iterate| {
                let ck = Checkpoint {
                    phase: "solve.stationary".into(),
                    iterations: iterations as u64,
                    residual,
                    iterate: iterate.to_vec(),
                    aux: Vec::new(),
                    scalars: Vec::new(),
                };
                if store.save(solve_key, &ck).is_ok() {
                    mdl_obs::counter("checkpoint.written").inc();
                }
            }),
        })
    }

    /// A sink snapshotting a transient solve's full progress every
    /// `every` uniformization steps (and on interruption) under the
    /// solve's key. `None` without a store.
    pub fn transient_checkpoint_sink(&self, solve_key: u64, every: usize) -> Option<TransientSink> {
        let store = self.store.clone()?;
        Some(TransientSink {
            every,
            sink: Arc::new(move |p: &TransientProgress| {
                let ck = Checkpoint {
                    phase: "solve.transient".into(),
                    iterations: p.steps as u64,
                    residual: 1.0 - p.accumulated,
                    iterate: p.v.clone(),
                    aux: p.result.clone(),
                    scalars: vec![p.ln_weight, p.accumulated],
                };
                if store.save(solve_key, &ck).is_ok() {
                    mdl_obs::counter("checkpoint.written").inc();
                }
            }),
        })
    }

    /// The checkpoint stored under a solve key, if any (corrupt
    /// checkpoints count on `store.invalid` and read as absent).
    pub fn load_checkpoint(&self, solve_key: u64) -> Option<Checkpoint> {
        self.fetch(solve_key)
    }

    /// Removes the checkpoint under a solve key — called after the solve
    /// completes, so `--resume` never replays a finished run's snapshot.
    ///
    /// # Errors
    ///
    /// Store removal failure (missing checkpoints are fine).
    pub fn clear_checkpoint(&self, solve_key: u64) -> Result<()> {
        if let Some(store) = &self.store {
            store.remove::<Checkpoint>(solve_key)?;
        }
        Ok(())
    }

    /// Restores an MRP from its four artifacts under `key`, or `None` on
    /// any miss. Artifacts that load individually but fail joint
    /// validation (e.g. a vector whose shape no longer matches the MD)
    /// count as invalid and miss.
    fn fetch_mrp(&self, key: u64) -> Option<MdMrp> {
        let md = self.fetch_image::<MdImage>(key)?.into_inner();
        let reach = self.fetch_image::<MddImage>(key)?.into_inner();
        let reward = self.fetch::<DecomposableVector>(sub_key(key, "reward"))?;
        let initial = self.fetch::<DecomposableVector>(sub_key(key, "initial"))?;
        let assembled = MdMatrix::new(md, reach)
            .map_err(crate::CoreError::from)
            .and_then(|matrix| MdMrp::new(matrix, reward, initial));
        match assembled {
            Ok(mrp) => Some(mrp),
            Err(_) => {
                mdl_obs::counter("store.invalid").inc();
                None
            }
        }
    }

    /// Persists an MRP as its four artifacts under `key`. MRPs holding a
    /// [`Combiner::Custom`] vector are silently skipped (the closure is
    /// not serializable), leaving the stage permanently un-cached.
    fn persist_mrp(&self, key: u64, mrp: &MdMrp) -> Result<()> {
        let serializable = |v: &DecomposableVector| !matches!(v.combiner(), Combiner::Custom(_));
        if !serializable(mrp.reward()) || !serializable(mrp.initial()) {
            return Ok(());
        }
        self.persist(key, &MdImage(mrp.matrix().md().clone()))?;
        self.persist(key, &MddImage(mrp.matrix().reach().clone()))?;
        self.persist(sub_key(key, "reward"), mrp.reward())?;
        self.persist(sub_key(key, "initial"), mrp.initial())?;
        Ok(())
    }

    /// Restores a full [`LumpResult`] under `key`, or `None` on any miss.
    fn fetch_lump(&self, key: u64) -> Option<LumpResult> {
        let meta = self.fetch::<LumpMeta>(key)?;
        let mrp = self.fetch_mrp(key)?;
        let mut partitions = Vec::with_capacity(meta.stats.per_level.len());
        for level in 0..meta.stats.per_level.len() {
            partitions.push(self.fetch::<Partition>(sub_key(key, &format!("part{level}")))?);
        }
        Some(LumpResult {
            mrp,
            partitions,
            stats: meta.stats,
            exact_exit_rates: meta.exact_exit_rates,
            // Envelopes are not persisted: bounds runs re-lump (compile
            // is cheap next to the sweeps they gate).
            envelope: None,
        })
    }

    /// Restores a solve outcome and its report under `key`, or `None` on
    /// any miss.
    fn fetch_solve(&self, key: u64, target: SolveTarget) -> Option<(SolveOutcome, RunReport)> {
        let outcome = match target {
            SolveTarget::AccumulatedReward(_) => {
                let v = self.fetch::<Vec<f64>>(key)?;
                if v.len() != 1 {
                    mdl_obs::counter("store.invalid").inc();
                    return None;
                }
                SolveOutcome::Value(v[0])
            }
            SolveTarget::Stationary | SolveTarget::Transient(_) => {
                SolveOutcome::Distribution(self.fetch::<Solution>(key)?)
            }
        };
        let report = self.fetch::<RunReport>(key)?;
        Some((outcome, report))
    }
}

/// Turns a transient checkpoint back into the solver's resume state, or
/// `None` when the checkpoint is not a transient one (wrong scalar
/// arity). Resumed runs are bit-identical to uninterrupted ones.
pub fn transient_resume(ck: &Checkpoint) -> Option<TransientProgress> {
    if ck.scalars.len() != 2 {
        return None;
    }
    Some(TransientProgress {
        steps: ck.iterations as usize,
        ln_weight: ck.scalars[0],
        accumulated: ck.scalars[1],
        v: ck.iterate.clone(),
        result: ck.aux.clone(),
    })
}

/// Derives a stage's key from its name, the upstream stage's key, and
/// the stage-specific request fields.
pub(crate) fn stage_key(stage: &str, upstream: u64, extra: impl FnOnce(&mut Fnv1a)) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(stage);
    h.write_u64(upstream);
    extra(&mut h);
    h.finish()
}

/// A named sub-artifact of a stage (stages store several artifacts of
/// the same type — e.g. the reward and initial vectors — which would
/// otherwise collide on one filename).
pub(crate) fn sub_key(key: u64, name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(key);
    h.write_str(name);
    h.finish()
}

fn record_memory(mrp: &MdMrp, md_counter: &'static str, mdd_counter: &'static str) {
    mdl_obs::counter(md_counter).add(mrp.matrix().md().memory_bytes() as u64);
    mdl_obs::counter(mdd_counter).add(mrp.matrix().reach().memory_bytes() as u64);
}

impl Codec for DecomposableVector {
    const KIND: u16 = 100;
    const NAME: &'static str = "decvec";

    fn encode(&self, w: &mut ByteWriter) {
        // Custom combiners write an unknown tag on purpose: the closure
        // is not serializable, and a file that cannot round-trip must
        // not decode as something else. The pipeline never saves one.
        w.u8(match self.combiner() {
            Combiner::Sum => 0,
            Combiner::Product => 1,
            Combiner::Custom(_) => u8::MAX,
        });
        w.usize(self.num_levels());
        for level in 0..self.num_levels() {
            w.f64_slice(self.level_values(level));
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> std::result::Result<Self, StoreError> {
        let combiner = match r.u8()? {
            0 => Combiner::Sum,
            1 => Combiner::Product,
            t => return Err(StoreError::corrupted(format!("unknown combiner tag {t}"))),
        };
        let num_levels = r.seq_len(8)?;
        let mut levels = Vec::with_capacity(num_levels);
        for _ in 0..num_levels {
            levels.push(r.f64_vec()?);
        }
        DecomposableVector::new(levels, combiner).map_err(|e| StoreError::corrupted(e.to_string()))
    }
}

/// The lump stage's statistics + exit-rate artifact: everything in a
/// [`LumpResult`] that is not the MRP or the partitions.
#[derive(Debug, Clone)]
struct LumpMeta {
    stats: LumpStats,
    exact_exit_rates: Option<Vec<f64>>,
}

impl Codec for LumpMeta {
    const KIND: u16 = 101;
    const NAME: &'static str = "lumpmeta";

    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.stats.per_level.len());
        for l in &self.stats.per_level {
            w.usize(l.level);
            w.usize(l.original_size);
            w.usize(l.lumped_size);
            w.usize(l.refinement.splitters_processed);
            w.usize(l.refinement.classes_split);
            w.usize(l.refinement.keys_emitted);
            w.u64(duration_nanos(l.elapsed));
        }
        w.u64(self.stats.original_states);
        w.u64(self.stats.lumped_states);
        w.usize(self.stats.memory_before);
        w.usize(self.stats.memory_after);
        w.usize(self.stats.nodes_merged);
        w.usize(self.stats.rounds);
        w.f64(self.stats.max_rate_deviation);
        w.u64(duration_nanos(self.stats.elapsed));
        match &self.exact_exit_rates {
            None => w.u8(0),
            Some(rates) => {
                w.u8(1);
                w.f64_slice(rates);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> std::result::Result<Self, StoreError> {
        let levels = r.seq_len(8 * 6 + 8)?;
        let mut per_level = Vec::with_capacity(levels);
        for _ in 0..levels {
            per_level.push(LevelLumpStats {
                level: r.usize()?,
                original_size: r.usize()?,
                lumped_size: r.usize()?,
                refinement: RefinementStats {
                    splitters_processed: r.usize()?,
                    classes_split: r.usize()?,
                    keys_emitted: r.usize()?,
                },
                elapsed: std::time::Duration::from_nanos(r.u64()?),
            });
        }
        let stats = LumpStats {
            per_level,
            original_states: r.u64()?,
            lumped_states: r.u64()?,
            memory_before: r.usize()?,
            memory_after: r.usize()?,
            nodes_merged: r.usize()?,
            rounds: r.usize()?,
            max_rate_deviation: r.f64()?,
            elapsed: std::time::Duration::from_nanos(r.u64()?),
        };
        let exact_exit_rates = match r.u8()? {
            0 => None,
            1 => Some(r.f64_vec()?),
            t => return Err(StoreError::corrupted(format!("unknown option tag {t}"))),
        };
        Ok(LumpMeta {
            stats,
            exact_exit_rates,
        })
    }
}

fn duration_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lump::LumpKind;
    use mdl_linalg::{RateMatrix, Tolerance};
    use mdl_md::{KroneckerExpr, SparseFactor};
    use mdl_mdd::Mdd;

    fn cycle(size: usize, rate: f64) -> SparseFactor {
        let mut f = SparseFactor::new(size);
        for s in 0..size {
            f.push(s, (s + 1) % size, rate);
        }
        f
    }

    /// The lumpable 2×3 model from the lump tests.
    fn build_mrp() -> Result<MdMrp> {
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
        let matrix = MdMatrix::new(expr.to_md()?, Mdd::full(vec![2, 3]).unwrap())?;
        let reward =
            DecomposableVector::new(vec![vec![0.0, 1.0], vec![1.0, 1.0, 1.0]], Combiner::Product)?;
        let initial = DecomposableVector::point_mass(&[2, 3], &[0, 0])?;
        MdMrp::new(matrix, reward, initial)
    }

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("mdl-pipeline-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn storeless_pipeline_always_computes() {
        let p = Pipeline::new(model_source_key("m"));
        let a = p.build(build_mrp).unwrap();
        assert!(!a.cached);
        let b = p.build(build_mrp).unwrap();
        assert!(!b.cached);
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn full_pipeline_round_trips_bit_exactly_through_the_store() {
        let store = temp_store("full");
        let p = Pipeline::with_store(model_source_key("model text"), store.clone());

        // Cold run: every stage computes.
        let built = p.build(build_mrp).unwrap();
        assert!(!built.cached);
        let request = LumpRequest::new(LumpKind::Ordinary);
        let lumped = p.lump(&built, &request).unwrap();
        assert!(!lumped.cached);
        let kernel = p.compile(&built, 1, &Budget::unlimited()).unwrap();
        assert!(!kernel.cached);
        let solve_req = SolveRequest::stationary();
        let (cold, cold_report) = p.solve(&built, &solve_req);
        let cold = cold.unwrap();
        assert!(!cold.cached);
        assert_eq!(cold_report.attempts.len(), 1);

        // Warm run (fresh Pipeline over the same store): every stage hits
        // and every value is bit-identical.
        let q = Pipeline::with_store(model_source_key("model text"), store);
        let rebuilt = q.build(|| panic!("must not rebuild")).unwrap();
        assert!(rebuilt.cached);
        assert_eq!(
            rebuilt
                .value
                .matrix()
                .flatten()
                .max_abs_diff(&built.value.matrix().flatten()),
            0.0
        );
        assert_eq!(rebuilt.value.initial_vector(), built.value.initial_vector());
        assert_eq!(rebuilt.value.reward_vector(), built.value.reward_vector());

        let relumped = q.lump(&rebuilt, &request).unwrap();
        assert!(relumped.cached);
        assert_eq!(relumped.value.partitions, lumped.value.partitions);
        assert_eq!(
            relumped.value.stats.lumped_states,
            lumped.value.stats.lumped_states
        );
        assert_eq!(relumped.value.stats.per_level.len(), 2);
        assert_eq!(
            relumped
                .value
                .mrp
                .matrix()
                .flatten()
                .max_abs_diff(&lumped.value.mrp.matrix().flatten()),
            0.0
        );

        let rekernel = q.compile(&rebuilt, 2, &Budget::unlimited()).unwrap();
        assert!(rekernel.cached);
        assert_eq!(rekernel.value.num_states(), kernel.value.num_states());

        let (warm, warm_report) = q.solve(&rebuilt, &solve_req);
        let warm = warm.unwrap();
        assert!(warm.cached);
        let cold_sol = cold.value.solution().unwrap();
        let warm_sol = warm.value.solution().unwrap();
        assert_eq!(warm_sol.probabilities, cold_sol.probabilities);
        assert_eq!(warm_report.attempts.len(), cold_report.attempts.len());

        let _ = std::fs::remove_dir_all(q.store().unwrap().root());
    }

    /// A 2 × 4 model whose level-1 states 1 and 2 lump only at two
    /// decimals: state 2 alone has a 0.001 move to state 3, so the lumped
    /// node keeps an explicit zero-rate anchor term for that move.
    fn anchored_mrp() -> Result<MdMrp> {
        let mut w = SparseFactor::new(4);
        w.push(0, 1, 1.0);
        w.push(0, 2, 1.0);
        w.push(1, 0, 2.0);
        w.push(2, 0, 2.0);
        w.push(2, 3, 0.001);
        w.push(3, 0, 1.0);
        let mut expr = KroneckerExpr::new(vec![2, 4]);
        expr.add_term(1.0, vec![Some(cycle(2, 3.0)), None]);
        expr.add_term(1.0, vec![None, Some(w)]);
        let matrix = MdMatrix::new(expr.to_md()?, Mdd::full(vec![2, 4]).unwrap())?;
        let reward =
            DecomposableVector::new(vec![vec![0.0, 1.0], vec![1.0; 4]], Combiner::Product)?;
        let initial = DecomposableVector::point_mass(&[2, 4], &[0, 0])?;
        MdMrp::new(matrix, reward, initial)
    }

    #[test]
    fn tolerance_lump_survives_the_store_round_trip_bit_identically() {
        let store = temp_store("tolerance");
        let request = LumpRequest::new(LumpKind::Ordinary).tolerance(Tolerance::Decimals(2));
        let p = Pipeline::with_store(model_source_key("anchored"), store.clone());
        let built = p.build(anchored_mrp).unwrap();
        let cold = p.lump(&built, &request).unwrap();
        assert!(!cold.cached);
        let cold_md = cold.value.mrp.matrix().md();
        let zero_terms = (0..cold_md.num_levels())
            .flat_map(|l| cold_md.level_nodes(l))
            .flat_map(|node| node.entries().to_vec())
            .flat_map(|entry| entry.terms)
            .filter(|t| t.coef == 0.0)
            .count();
        assert!(zero_terms > 0, "the lumped MD keeps a zero-rate anchor");

        let q = Pipeline::with_store(model_source_key("anchored"), store.clone());
        let rebuilt = q.build(|| panic!("must not rebuild")).unwrap();
        let warm = q.lump(&rebuilt, &request).unwrap();
        assert!(warm.cached);
        // Equal images mean bit-identical level slabs.
        let image = |md: &mdl_md::Md| MdImage(md.clone()).to_bytes();
        assert_eq!(image(warm.value.mrp.matrix().md()), image(cold_md));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn diagrams_and_kernels_persist_only_as_images() {
        let store = temp_store("images");
        let p = Pipeline::with_store(model_source_key("images"), store.clone());
        let built = p.build(build_mrp).unwrap();
        p.lump(&built, &LumpRequest::new(LumpKind::Ordinary))
            .unwrap();
        p.compile(&built, 1, &Budget::unlimited()).unwrap();
        let names = || -> Vec<String> {
            std::fs::read_dir(store.root())
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        };
        let cold = names();
        let count = |prefix: &str| cold.iter().filter(|n| n.starts_with(prefix)).count();
        // The built and the lumped MRP each write one MD and one MDD
        // image; the compile writes its kernel once.
        assert_eq!(count("mdimg-"), 2, "{cold:?}");
        assert_eq!(count("mddimg-"), 2, "{cold:?}");
        assert_eq!(count("kernelimg-"), 1, "{cold:?}");
        for name in &cold {
            let is_image = ["mdimg-", "mddimg-", "kernelimg-"]
                .iter()
                .any(|p| name.starts_with(p));
            assert_eq!(is_image, name.ends_with(".mdlm"), "{name}");
        }

        let q = Pipeline::with_store(model_source_key("images"), store.clone());
        let rebuilt = q.build(|| panic!("must not rebuild")).unwrap();
        let kernel = q.compile(&rebuilt, 1, &Budget::unlimited()).unwrap();
        assert!(rebuilt.cached && kernel.cached);
        if cfg!(unix) {
            assert!(rebuilt.value.matrix().md().is_mapped());
            assert!(rebuilt.value.matrix().reach().is_mapped());
            assert!(kernel.value.is_mapped());
        }
        assert_eq!(names().len(), cold.len(), "a warm run writes nothing");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn different_requests_get_different_keys() {
        let p = Pipeline::new(model_source_key("m"));
        let built = p.build(build_mrp).unwrap();
        let ordinary = stage_key("lump", built.key, |h| {
            LumpRequest::new(LumpKind::Ordinary).write_cache_key(h)
        });
        let exact = stage_key("lump", built.key, |h| {
            LumpRequest::new(LumpKind::Exact).write_cache_key(h)
        });
        assert_ne!(ordinary, exact);

        let stationary = p.solve_key(built.key, &SolveRequest::stationary());
        let transient = p.solve_key(built.key, &SolveRequest::transient(0.5));
        let transient2 = p.solve_key(built.key, &SolveRequest::transient(0.75));
        assert_ne!(stationary, transient);
        assert_ne!(transient, transient2);
        // Threads are excluded: same key, results are bit-identical.
        assert_eq!(
            p.solve_key(built.key, &SolveRequest::stationary().threads(4)),
            stationary
        );
        // Different models diverge from the very first stage.
        let other = Pipeline::new(model_source_key("m2"));
        let other_built_key = stage_key("build", other.model_key(), |_| {});
        assert_ne!(other_built_key, built.key);
    }

    #[test]
    fn corrupt_artifact_is_a_miss_and_heals() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::reset();
        mdl_obs::set_enabled(true);
        let store = temp_store("heal");
        let p = Pipeline::with_store(model_source_key("m"), store.clone());
        let built = p.build(build_mrp).unwrap();

        // Flip a payload byte of the MD artifact.
        let path = store.path_for::<MdImage>(built.key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let healed = p.build(build_mrp).unwrap();
        assert!(!healed.cached, "corrupt artifact must not hit");
        let report = mdl_obs::snapshot();
        let invalid = report
            .counters
            .iter()
            .find(|c| c.name == "store.invalid")
            .map_or(0, |c| c.value);
        assert_eq!(invalid, 1);
        mdl_obs::set_enabled(false);
        mdl_obs::reset();

        // The rewrite healed the cache: a third run hits again.
        let again = p.build(|| panic!("healed cache must hit")).unwrap();
        assert!(again.cached);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn custom_combiner_mrp_is_never_persisted() {
        let store = temp_store("custom");
        let p = Pipeline::with_store(model_source_key("m"), store.clone());
        let build_custom = || {
            let base = build_mrp()?;
            let (matrix, _, initial) = base.into_parts();
            let reward = DecomposableVector::new(
                vec![vec![0.0, 1.0], vec![1.0, 1.0, 1.0]],
                Combiner::Custom(Arc::new(|v: &[f64]| v.iter().product())),
            )?;
            MdMrp::new(matrix, reward, initial)
        };
        let a = p.build(build_custom).unwrap();
        assert!(!a.cached);
        assert!(
            !store.contains::<MdImage>(a.key),
            "custom vectors must not persist"
        );
        let b = p.build(build_custom).unwrap();
        assert!(!b.cached, "nothing persisted, so nothing hits");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn solve_failures_are_not_cached() {
        let store = temp_store("fail");
        let p = Pipeline::with_store(model_source_key("m"), store.clone());
        let built = p.build(build_mrp).unwrap();
        // Node cap 0 interrupts the compile inside the solve.
        let req = SolveRequest::stationary().budget(Budget::unlimited().node_cap(0));
        let (r1, _) = p.solve(&built, &req);
        assert!(r1.is_err());
        let (r2, _) = p.solve(&built, &req);
        assert!(r2.is_err(), "failure must not have been cached");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn measure_stage_caches_by_label() {
        let store = temp_store("measure");
        let p = Pipeline::with_store(model_source_key("m"), store.clone());
        let a = p.measure(1, "reward", || Ok(vec![1.5])).unwrap();
        assert!(!a.cached);
        let b = p.measure(1, "reward", || panic!("cached")).unwrap();
        assert!(b.cached);
        assert_eq!(b.value, vec![1.5]);
        let c = p.measure(1, "cross-check", || Ok(vec![2.5])).unwrap();
        assert!(!c.cached, "different label, different key");
        let d = p.measure(2, "reward", || Ok(vec![3.5])).unwrap();
        assert!(!d.cached, "different input key, different key");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn checkpoint_sinks_round_trip_and_clear() {
        let store = temp_store("ckpt");
        let p = Pipeline::with_store(model_source_key("m"), store.clone());
        let key = 0xabcd;

        let sink = p.stationary_checkpoint_sink(key, 10).unwrap();
        (sink.sink)(42, 1e-3, &[0.25, 0.75]);
        let ck = p.load_checkpoint(key).unwrap();
        assert_eq!(ck.phase, "solve.stationary");
        assert_eq!(ck.iterations, 42);
        assert_eq!(ck.iterate, vec![0.25, 0.75]);
        assert!(transient_resume(&ck).is_none(), "stationary checkpoint");

        let tsink = p.transient_checkpoint_sink(key, 5).unwrap();
        (tsink.sink)(&TransientProgress {
            steps: 7,
            ln_weight: -0.5,
            accumulated: 0.9,
            v: vec![0.5, 0.5],
            result: vec![0.4, 0.5],
        });
        let ck = p.load_checkpoint(key).unwrap();
        assert_eq!(ck.phase, "solve.transient");
        let progress = transient_resume(&ck).unwrap();
        assert_eq!(progress.steps, 7);
        assert_eq!(progress.ln_weight, -0.5);
        assert_eq!(progress.accumulated, 0.9);
        assert_eq!(progress.v, vec![0.5, 0.5]);
        assert_eq!(progress.result, vec![0.4, 0.5]);

        p.clear_checkpoint(key).unwrap();
        assert!(p.load_checkpoint(key).is_none());
        // Clearing a missing checkpoint (or on a storeless pipeline) is fine.
        p.clear_checkpoint(key).unwrap();
        Pipeline::new(1).clear_checkpoint(key).unwrap();
        assert!(Pipeline::new(1)
            .stationary_checkpoint_sink(key, 1)
            .is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn lump_meta_artifact_round_trips() {
        let meta = LumpMeta {
            stats: LumpStats {
                per_level: vec![LevelLumpStats {
                    level: 0,
                    original_size: 6,
                    lumped_size: 2,
                    refinement: RefinementStats {
                        splitters_processed: 3,
                        classes_split: 1,
                        keys_emitted: 12,
                    },
                    elapsed: std::time::Duration::from_micros(17),
                }],
                original_states: 6,
                lumped_states: 2,
                memory_before: 1000,
                memory_after: 300,
                nodes_merged: 1,
                rounds: 2,
                max_rate_deviation: 0.25,
                elapsed: std::time::Duration::from_millis(3),
            },
            exact_exit_rates: Some(vec![1.5, 2.5]),
        };
        let back = LumpMeta::from_bytes(&meta.to_bytes()).unwrap();
        assert_eq!(back.stats.per_level.len(), 1);
        assert_eq!(back.stats.per_level[0].refinement.keys_emitted, 12);
        assert_eq!(back.stats.lumped_states, 2);
        assert_eq!(back.stats.rounds, 2);
        assert_eq!(back.exact_exit_rates, Some(vec![1.5, 2.5]));
    }

    #[test]
    fn decomposable_vector_artifact_rejects_custom_and_bad_tags() {
        let v = DecomposableVector::new(vec![vec![1.0, 2.0]], Combiner::Sum).unwrap();
        let back = DecomposableVector::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back.level_values(0), v.level_values(0));
        assert!(matches!(back.combiner(), Combiner::Sum));

        let custom = DecomposableVector::new(
            vec![vec![1.0]],
            Combiner::Custom(Arc::new(|v: &[f64]| v[0])),
        )
        .unwrap();
        assert!(DecomposableVector::from_bytes(&custom.to_bytes()).is_err());
    }
}
