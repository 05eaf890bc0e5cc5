//! Compile-once, execute-many kernel for [`MdMatrix`] products.
//!
//! Every iteration of a symbolic solve is a `y += x·R` product over the
//! MD×MDD pair, and the recursive walk in [`MdMatrix::for_each_entry`]
//! re-derives the same structure on every call: offsets are recomputed,
//! shared sub-diagrams are re-descended once per incoming path, and the
//! traversal order is pointer-chasing rather than streaming. This module
//! walks the pair **once** and lowers it to a flat program:
//!
//! * each distinct `(MdNodeId, row MddNodeId, col MddNodeId)` triple is
//!   compiled exactly once (hash-consing happens at compile time only);
//! * bottom-level triples become **leaf runs** — contiguous
//!   `(row, col, coef)` triples in shared arenas, with offsets relative to
//!   the enclosing block;
//! * the levels above are linearized into a flat list of **blocks**
//!   `(row_base, col_base, scale, leaf)` in exactly the order the
//!   recursive walk would visit them.
//!
//! Executing a product is then two nested loops over contiguous arrays —
//! no recursion, no hashing, no offset arithmetic beyond one add per
//! index — and the shared leaf runs stay hot in cache across blocks.
//!
//! # Determinism
//!
//! The serial product applies blocks in walk order, so every output entry
//! accumulates its contributions in the same order as
//! [`MdMatrix::acc_mat_vec`] / [`MdMatrix::acc_vec_mat`] — products are
//! **bit-identical** to the recursive walk. The threaded product keeps
//! this guarantee: the MDD offset labelling makes the row (resp. column)
//! intervals of two blocks either disjoint or identical, so blocks can be
//! partitioned into contiguous, disjoint output ranges; each output entry
//! is owned by exactly one thread, which applies its blocks in walk order
//! (the same discipline as `ParCsr::gather` in `mdl-ctmc`).

use std::collections::HashMap;
use std::time::Duration;

use mdl_arena::{ImageView, ImageWriter, Slab, SlabSource};
use mdl_linalg::weight::{add_down, add_up, mul_down, mul_up, sub_down, sub_up};
use mdl_linalg::{Interval, IntervalRateMatrix, RateMatrix, Weight};
use mdl_mdd::MddNodeId;

use crate::apply::MdMatrix;
use crate::md::{ChildId, MdNodeId};
use crate::MdError;

/// Products over fewer states than this run serially even when the kernel
/// was compiled for several threads (same threshold as `ParCsr`).
const PAR_MIN_STATES: usize = 1024;

/// Growable structure-of-arrays block list used during linearization,
/// frozen into the [`CompiledParts`] slabs once compilation finishes. A
/// "block" is one linearized top-level invocation: apply leaf run
/// `leafs[b]`, offset by `(row_bases[b], col_bases[b])` and scaled by
/// `scales[b]` (the product of the formal-sum coefficients along the path,
/// accumulated in walk order).
struct BlockList<W> {
    row_bases: Vec<u64>,
    col_bases: Vec<u64>,
    scales: Vec<W>,
    leafs: Vec<u32>,
}

impl<W> Default for BlockList<W> {
    fn default() -> Self {
        BlockList {
            row_bases: Vec::new(),
            col_bases: Vec::new(),
            scales: Vec::new(),
            leafs: Vec::new(),
        }
    }
}

impl<W> BlockList<W> {
    fn push(&mut self, row_base: u64, col_base: u64, scale: W, leaf: u32) {
        self.row_bases.push(row_base);
        self.col_bases.push(col_base);
        self.scales.push(scale);
        self.leafs.push(leaf);
    }

    fn len(&self) -> usize {
        self.leafs.len()
    }
}

/// A deterministic schedule for one product orientation: block indices in
/// walk order grouped into per-thread runs over disjoint output ranges.
#[derive(Debug, Clone)]
struct Plan {
    /// Block indices, stably sorted by the orientation's output base —
    /// walk order is preserved among blocks sharing an output interval.
    order: Vec<u32>,
    /// `order[splits[k]..splits[k + 1]]` is thread `k`'s run.
    splits: Vec<usize>,
    /// Thread `k` owns output indices `bounds[k]..bounds[k + 1]`.
    bounds: Vec<u64>,
}

/// Size and sharing statistics of a compiled kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Linearized top-level block invocations.
    pub blocks: usize,
    /// Distinct bottom-level `(MD node, row MDD node, col MDD node)`
    /// triples, i.e. compiled leaf programs.
    pub leaf_programs: usize,
    /// Total `(row, col, coef)` triples stored across all leaf arenas
    /// (after sharing).
    pub leaf_entries: usize,
    /// Total matrix entries one product touches: `Σ_blocks |leaf run|`.
    /// Equals the number of `(r, c, v)` visits of
    /// [`MdMatrix::for_each_entry`].
    pub flat_entries: u64,
    /// Triples reached during compilation, counted once per incoming path.
    pub triples_visited: u64,
    /// Distinct triples compiled (the rest were sub-program cache hits).
    pub triples_compiled: u64,
    /// Wall-clock compilation time.
    pub compile_time: Duration,
}

/// The serializable content of a [`CompiledMdMatrix`]: everything the
/// products read, minus the per-thread schedules (rebuilt for the loading
/// machine's thread count) and wall-clock stats. Produced by
/// [`CompiledMdMatrix::to_parts`], consumed by
/// [`CompiledMdMatrix::from_parts`]. Generic over the kernel's
/// [`Weight`]: `CompiledParts` (the `f64` default) is the historical
/// scalar kernel, `CompiledParts<Interval>` the certified-bounds one.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledParts<W: Weight = f64> {
    /// Number of reachable states the kernel addresses.
    pub num_states: u64,
    /// Block output row bases, in walk order.
    pub block_row_bases: Slab<u64>,
    /// Block output column bases, parallel to `block_row_bases`.
    pub block_col_bases: Slab<u64>,
    /// Block scales (path coefficient products).
    pub block_scales: Slab<W>,
    /// Block leaf-program references.
    pub block_leafs: Slab<u32>,
    /// Leaf arena bounds: program `p` is entries `bounds[p]..bounds[p+1]`.
    pub leaf_bounds: Slab<u32>,
    /// Leaf-relative row offsets, parallel to `leaf_cols`/`leaf_coefs`.
    pub leaf_rows: Slab<u32>,
    /// Leaf-relative column offsets.
    pub leaf_cols: Slab<u32>,
    /// Leaf coefficients.
    pub leaf_coefs: Slab<W>,
    /// [`CompileStats::triples_visited`] of the original compilation.
    pub triples_visited: u64,
    /// [`CompileStats::triples_compiled`] of the original compilation.
    pub triples_compiled: u64,
}

/// Kernel image section holding `[num_states, triples_visited,
/// triples_compiled]` as `u64`.
const TAG_KERNEL_META: u32 = 1;
/// First array section; the eight kernel arrays occupy tags `16..=23` in
/// [`CompiledParts`] field order.
const TAG_KERNEL_ARRAYS: u32 = 16;

impl<W: Weight> CompiledParts<W> {
    /// Number of linearized blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_leafs.len()
    }

    /// `true` when any array borrows from a mapped artifact.
    pub fn is_mapped(&self) -> bool {
        self.block_row_bases.is_mapped()
            || self.block_col_bases.is_mapped()
            || self.block_scales.is_mapped()
            || self.block_leafs.is_mapped()
            || self.leaf_bounds.is_mapped()
            || self.leaf_rows.is_mapped()
            || self.leaf_cols.is_mapped()
            || self.leaf_coefs.is_mapped()
    }
}

impl CompiledParts {
    /// Serializes the kernel into arena image sections: tag 1 holds
    /// `[num_states, triples_visited, triples_compiled]`; tags `16..=23`
    /// hold the eight arrays in declaration order.
    pub fn write_image(&self, w: &mut ImageWriter) {
        w.put_u64(
            TAG_KERNEL_META,
            &[self.num_states, self.triples_visited, self.triples_compiled],
        );
        w.put_u64(TAG_KERNEL_ARRAYS, &self.block_row_bases);
        w.put_u64(TAG_KERNEL_ARRAYS + 1, &self.block_col_bases);
        w.put_f64(TAG_KERNEL_ARRAYS + 2, &self.block_scales);
        w.put_u32(TAG_KERNEL_ARRAYS + 3, &self.block_leafs);
        w.put_u32(TAG_KERNEL_ARRAYS + 4, &self.leaf_bounds);
        w.put_u32(TAG_KERNEL_ARRAYS + 5, &self.leaf_rows);
        w.put_u32(TAG_KERNEL_ARRAYS + 6, &self.leaf_cols);
        w.put_f64(TAG_KERNEL_ARRAYS + 7, &self.leaf_coefs);
    }

    /// Rebuilds kernel parts from sections written by
    /// [`CompiledParts::write_image`]. With [`SlabSource::Mapped`] the
    /// arrays borrow the mapped region zero-copy. Only section-level
    /// structure is checked here; the full cross-array validation runs in
    /// [`CompiledMdMatrix::from_parts`], which every consumer goes
    /// through.
    ///
    /// # Errors
    ///
    /// [`MdError::Image`] on missing or mistyped sections, or a malformed
    /// meta section.
    pub fn read_image(view: &ImageView<'_>, source: SlabSource<'_>) -> Result<Self, MdError> {
        let img = |e: mdl_arena::ArenaError| MdError::Image(e.to_string());
        let meta = view.vec_u64(TAG_KERNEL_META).map_err(img)?;
        let [num_states, triples_visited, triples_compiled] = meta[..] else {
            return Err(MdError::Image(format!(
                "kernel meta section has {} fields, expected 3",
                meta.len()
            )));
        };
        Ok(CompiledParts {
            num_states,
            block_row_bases: view.slab_u64(TAG_KERNEL_ARRAYS, source).map_err(img)?,
            block_col_bases: view.slab_u64(TAG_KERNEL_ARRAYS + 1, source).map_err(img)?,
            block_scales: view.slab_f64(TAG_KERNEL_ARRAYS + 2, source).map_err(img)?,
            block_leafs: view.slab_u32(TAG_KERNEL_ARRAYS + 3, source).map_err(img)?,
            leaf_bounds: view.slab_u32(TAG_KERNEL_ARRAYS + 4, source).map_err(img)?,
            leaf_rows: view.slab_u32(TAG_KERNEL_ARRAYS + 5, source).map_err(img)?,
            leaf_cols: view.slab_u32(TAG_KERNEL_ARRAYS + 6, source).map_err(img)?,
            leaf_coefs: view.slab_f64(TAG_KERNEL_ARRAYS + 7, source).map_err(img)?,
            triples_visited,
            triples_compiled,
        })
    }
}

impl CompileStats {
    /// Sharing factor exploited by compilation: visited / compiled triples
    /// (`1.0` means no sharing; higher is better).
    pub fn dedup_ratio(&self) -> f64 {
        if self.triples_compiled == 0 {
            1.0
        } else {
            self.triples_visited as f64 / self.triples_compiled as f64
        }
    }
}

/// The position of one MD term during compilation, handed to a weight
/// source so it can replace the stored `f64` coefficient: the node's
/// level and per-level index, the entry's local `(row, col)` and the
/// term's child. For the scalar kernel the source returns `coef`
/// verbatim; for an interval kernel a rate-envelope sidecar (keyed by
/// exactly these coordinates — `Md::replace_level` preserves per-level
/// node order, so lumped node indices match the envelope's) widens
/// inexactly lumped terms.
#[derive(Debug, Clone, Copy)]
pub struct TermSite {
    /// MD level of the node owning the term (0 = root level).
    pub level: u32,
    /// Node index within the level.
    pub node: u32,
    /// Entry row (local state / class index).
    pub row: u32,
    /// Entry column.
    pub col: u32,
    /// The term's child reference ([`ChildId::Terminal`] at the last
    /// level).
    pub child: ChildId,
    /// The stored coefficient.
    pub coef: f64,
}

/// Per-level memoized sub-programs built during compilation and discarded
/// after linearization.
struct Compiler<'a, W: Weight> {
    m: &'a MdMatrix,
    /// Maps a term's coordinates to its kernel weight.
    weigh: &'a dyn Fn(&TermSite) -> W,
    /// `memo[level]` maps `(md index, row mdd index, col mdd index)` to the
    /// sub-program (upper levels) or leaf program (last level) id.
    memo: Vec<HashMap<(u32, u32, u32), u32>>,
    /// Upper-level programs: lists of relative invocations.
    segments: Vec<Vec<Segment<W>>>,
    /// Leaf arena bounds: leaf `p` is `leaf_*[bounds[p]..bounds[p + 1]]`.
    leaf_bounds: Vec<u32>,
    leaf_rows: Vec<u32>,
    leaf_cols: Vec<u32>,
    leaf_coefs: Vec<W>,
    visited: u64,
    compiled: u64,
    /// Amortized budget checks, run against `visited` so node caps bound
    /// the traversal even when no deadline is set.
    ticker: mdl_obs::Ticker<'a>,
}

/// One invocation of a next-level program, relative to the caller's
/// offsets.
#[derive(Debug, Clone, Copy)]
struct SegmentCall<W> {
    d_row: u64,
    d_col: u64,
    coef: W,
    child: u32,
}

type Segment<W> = Vec<SegmentCall<W>>;

impl<'a, W: Weight> Compiler<'a, W> {
    fn new(
        m: &'a MdMatrix,
        budget: &'a mdl_obs::Budget,
        weigh: &'a dyn Fn(&TermSite) -> W,
    ) -> Self {
        let levels = m.md().num_levels();
        Compiler {
            m,
            weigh,
            memo: vec![HashMap::new(); levels],
            segments: vec![Vec::new(); levels.saturating_sub(1)],
            leaf_bounds: vec![0],
            leaf_rows: Vec::new(),
            leaf_cols: Vec::new(),
            leaf_coefs: Vec::new(),
            visited: 0,
            compiled: 0,
            ticker: budget.ticker(64),
        }
    }

    /// Compiles the triple once, returning its program id (leaf id at the
    /// last level, segment id above).
    fn compile_triple(
        &mut self,
        md_node: MdNodeId,
        row_n: MddNodeId,
        col_n: MddNodeId,
    ) -> Result<u32, MdError> {
        self.ticker
            .tick_nodes(self.visited)
            .map_err(|reason| MdError::Interrupted {
                phase: "md.compile",
                nodes: self.visited,
                reason,
            })?;
        self.visited += 1;
        let level = md_node.level as usize;
        let key = (md_node.index, row_n.index, col_n.index);
        if let Some(&id) = self.memo[level].get(&key) {
            return Ok(id);
        }
        self.compiled += 1;
        let reach = self.m.reach();
        let last = level == self.m.md().num_levels() - 1;
        let id = if last {
            for entry in self.m.md().node_ref(md_node).entries() {
                let (s, s2) = (entry.row() as usize, entry.col() as usize);
                if !reach.is_present(row_n, s) || !reach.is_present(col_n, s2) {
                    continue;
                }
                let ro = reach.offset(row_n, s);
                let co = reach.offset(col_n, s2);
                for t in entry.terms() {
                    debug_assert_eq!(t.child, ChildId::Terminal);
                    self.leaf_rows.push(ro as u32);
                    self.leaf_cols.push(co as u32);
                    self.leaf_coefs.push((self.weigh)(&TermSite {
                        level: md_node.level,
                        node: md_node.index,
                        row: entry.row(),
                        col: entry.col(),
                        child: t.child,
                        coef: t.coef,
                    }));
                }
            }
            let end = u32::try_from(self.leaf_rows.len()).expect("leaf arena fits in u32");
            self.leaf_bounds.push(end);
            (self.leaf_bounds.len() - 2) as u32
        } else {
            // Reserve the segment id before recursing so ids stay dense.
            let seg_id = self.segments[level].len() as u32;
            self.segments[level].push(Vec::new());
            let mut calls = Vec::new();
            for entry in self.m.md().node_ref(md_node).entries() {
                let (s, s2) = (entry.row() as usize, entry.col() as usize);
                if !reach.is_present(row_n, s) || !reach.is_present(col_n, s2) {
                    continue;
                }
                let d_row = reach.offset(row_n, s);
                let d_col = reach.offset(col_n, s2);
                let rc = reach.child(row_n, s).expect("present child");
                let cc = reach.child(col_n, s2).expect("present child");
                for t in entry.terms() {
                    let ChildId::Node(n) = t.child else {
                        unreachable!("terminal above last level")
                    };
                    let child = self.compile_triple(
                        MdNodeId {
                            level: md_node.level + 1,
                            index: n,
                        },
                        rc,
                        cc,
                    )?;
                    calls.push(SegmentCall {
                        d_row,
                        d_col,
                        coef: (self.weigh)(&TermSite {
                            level: md_node.level,
                            node: md_node.index,
                            row: entry.row(),
                            col: entry.col(),
                            child: t.child,
                            coef: t.coef,
                        }),
                        child,
                    });
                }
            }
            self.segments[level][seg_id as usize] = calls;
            seg_id
        };
        self.memo[level].insert(key, id);
        Ok(id)
    }

    /// Expands the root program into the flat block list, accumulating
    /// offsets and scales in walk order.
    fn linearize(&self, root: u32, blocks: &mut BlockList<W>) {
        let levels = self.m.md().num_levels();
        if levels == 1 {
            blocks.push(0, 0, W::one(), root);
            return;
        }
        self.expand(0, root, 0, 0, W::one(), blocks);
    }

    fn expand(
        &self,
        level: usize,
        segment: u32,
        row_base: u64,
        col_base: u64,
        scale: W,
        blocks: &mut BlockList<W>,
    ) {
        let last_segment_level = level == self.m.md().num_levels() - 2;
        for call in &self.segments[level][segment as usize] {
            let ro = row_base + call.d_row;
            let co = col_base + call.d_col;
            let sc = scale.mul(call.coef);
            if last_segment_level {
                blocks.push(ro, co, sc, call.child);
            } else {
                self.expand(level + 1, call.child, ro, co, sc, blocks);
            }
        }
    }
}

/// A compiled [`MdMatrix`]: the same matrix over the same reachable state
/// space, with products that run over flat arrays instead of re-walking
/// the diagrams, optionally on several threads.
///
/// Products are bit-identical to the recursive walk in either form; see
/// the [module docs](self) for the determinism argument.
///
/// # Example
///
/// ```
/// use mdl_md::{CompiledMdMatrix, KroneckerExpr, MdMatrix, SparseFactor};
/// use mdl_mdd::Mdd;
/// use mdl_linalg::RateMatrix;
///
/// let mut w = SparseFactor::new(2);
/// w.push(0, 1, 1.0);
/// let mut expr = KroneckerExpr::new(vec![2, 2]);
/// expr.add_term(2.0, vec![Some(w), None]);
/// let m = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 2]).unwrap()).unwrap();
///
/// let compiled = CompiledMdMatrix::compile(&m);
/// let x = vec![1.0; 4];
/// let (mut y_walk, mut y_comp) = (vec![0.0; 4], vec![0.0; 4]);
/// m.acc_mat_vec(&x, &mut y_walk);
/// compiled.acc_mat_vec(&x, &mut y_comp);
/// assert_eq!(y_walk, y_comp); // bit-identical
/// ```
#[derive(Debug, Clone)]
pub struct CompiledMdMatrix<W: Weight = f64> {
    num_states: usize,
    threads: usize,
    /// The block and leaf arrays the products read — either owned or
    /// borrowed zero-copy from a mapped store artifact.
    parts: CompiledParts<W>,
    row_plan: Plan,
    col_plan: Plan,
    stats: CompileStats,
}

/// Number of worker threads to use when the caller does not care:
/// [`std::thread::available_parallelism`], or `1` when it is unavailable.
///
/// Re-exported from [`mdl_obs::default_threads`] so every layer of the
/// stack (compiled kernels, `ParCsr`, the lumping engine's
/// [`ThreadPool`](mdl_obs::ThreadPool)) resolves "auto" identically.
pub fn default_threads() -> usize {
    mdl_obs::default_threads()
}

impl CompiledMdMatrix {
    /// Compiles a serial kernel (`threads == 1`).
    pub fn compile(m: &MdMatrix) -> Self {
        Self::compile_with_threads(m, 1)
    }

    /// Compiles a kernel whose products use `threads` workers
    /// (`0` means [`default_threads`]). Small matrices
    /// (< 1024 states) and `threads == 1` never spawn.
    pub fn compile_with_threads(m: &MdMatrix, threads: usize) -> Self {
        Self::compile_inner(m, threads, &mdl_obs::Budget::unlimited())
            .expect("unlimited budget cannot interrupt compilation")
    }

    /// [`compile_with_threads`](Self::compile_with_threads) under a
    /// compute [`Budget`](mdl_obs::Budget): the triple traversal checks
    /// the deadline, cancellation token and node cap amortized (every 64
    /// visited triples), and the `md.compile` failpoint is consulted at
    /// entry for deterministic fault injection.
    ///
    /// # Errors
    ///
    /// [`MdError::Interrupted`] when a budget limit is hit or a failpoint
    /// injects a failure; the `nodes` field reports how far the traversal
    /// got.
    pub fn compile_budgeted(
        m: &MdMatrix,
        threads: usize,
        budget: &mdl_obs::Budget,
    ) -> Result<Self, MdError> {
        if mdl_obs::failpoint::hit("md.compile").is_some() {
            return Err(MdError::Interrupted {
                phase: "md.compile",
                nodes: 0,
                reason: mdl_obs::BudgetExceeded::Injected,
            });
        }
        Self::compile_inner(m, threads, budget)
    }

    fn compile_inner(
        m: &MdMatrix,
        threads: usize,
        budget: &mdl_obs::Budget,
    ) -> Result<Self, MdError> {
        // The scalar weight source: every term keeps its stored
        // coefficient, so this compiles to exactly the pre-generic kernel.
        CompiledMdMatrix::compile_weighted(m, threads, budget, &|site: &TermSite| site.coef)
    }
}

impl<W: Weight> CompiledMdMatrix<W> {
    /// Compiles a kernel whose term weights come from `weigh` instead of
    /// the stored `f64` coefficients — the generic entry point behind
    /// [`CompiledMdMatrix::compile`] (where `weigh` is the identity) and
    /// the interval kernels of the certified-bounds path (where `weigh`
    /// consults a rate-envelope sidecar and widens inexactly lumped
    /// terms).
    ///
    /// # Errors
    ///
    /// [`MdError::Interrupted`] when the budget expires or the
    /// `md.compile` failpoint fires (checked by the budgeted wrappers).
    pub fn compile_weighted(
        m: &MdMatrix,
        threads: usize,
        budget: &mdl_obs::Budget,
        weigh: &dyn Fn(&TermSite) -> W,
    ) -> Result<Self, MdError> {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let mut span = mdl_obs::span("md.compile").with("threads", threads);
        let t0 = std::time::Instant::now();

        let mut compiler = Compiler::new(m, budget, weigh);
        let mut blocks = BlockList::<W>::default();
        if !m.reach().is_empty() {
            let root_mdd = m.reach().root();
            let root = compiler.compile_triple(m.md().root(), root_mdd, root_mdd)?;
            // The amortized ticker can undershoot a node cap on small
            // diagrams; settle the cap exactly once traversal is done.
            budget
                .check_nodes(compiler.visited)
                .map_err(|reason| MdError::Interrupted {
                    phase: "md.compile",
                    nodes: compiler.visited,
                    reason,
                })?;
            compiler.linearize(root, &mut blocks);
        }

        let flat_entries: u64 = blocks
            .leafs
            .iter()
            .map(|&leaf| {
                (compiler.leaf_bounds[leaf as usize + 1] - compiler.leaf_bounds[leaf as usize])
                    as u64
            })
            .sum();
        let stats = CompileStats {
            blocks: blocks.len(),
            leaf_programs: compiler.leaf_bounds.len() - 1,
            leaf_entries: compiler.leaf_rows.len(),
            flat_entries,
            triples_visited: compiler.visited,
            triples_compiled: compiler.compiled,
            compile_time: Duration::ZERO, // patched below, after the plans
        };

        let n = m.num_states();
        let parts = CompiledParts {
            num_states: n as u64,
            block_row_bases: blocks.row_bases.into(),
            block_col_bases: blocks.col_bases.into(),
            block_scales: blocks.scales.into(),
            block_leafs: blocks.leafs.into(),
            leaf_bounds: compiler.leaf_bounds.into(),
            leaf_rows: compiler.leaf_rows.into(),
            leaf_cols: compiler.leaf_cols.into(),
            leaf_coefs: compiler.leaf_coefs.into(),
            triples_visited: compiler.visited,
            triples_compiled: compiler.compiled,
        };
        let row_plan = build_plan(&parts, threads, n as u64, true);
        let col_plan = build_plan(&parts, threads, n as u64, false);

        let mut out = CompiledMdMatrix {
            num_states: n,
            threads,
            parts,
            row_plan,
            col_plan,
            stats,
        };
        out.stats.compile_time = t0.elapsed();

        mdl_obs::counter("md.compile.blocks").add(out.stats.blocks as u64);
        mdl_obs::counter("md.compile.leaf_entries").add(out.stats.leaf_entries as u64);
        mdl_obs::counter("md.compile.triples_visited").add(out.stats.triples_visited);
        mdl_obs::counter("md.compile.triples_compiled").add(out.stats.triples_compiled);
        span.record("blocks", out.stats.blocks);
        span.record("leaf_entries", out.stats.leaf_entries);
        span.record("flat_entries", out.stats.flat_entries);
        span.record("dedup_ratio", out.stats.dedup_ratio());
        span.finish();
        Ok(out)
    }

    /// Decomposes the kernel into its serializable content — block arrays
    /// and leaf arenas. The per-thread schedules and wall-clock stats are
    /// derived data and are rebuilt by [`Self::from_parts`]. Cloning a
    /// mapped kernel's parts is cheap (the slabs share the mapping).
    pub fn to_parts(&self) -> CompiledParts<W> {
        self.parts.clone()
    }

    /// Rebuilds a kernel from [`Self::to_parts`] output, validating every
    /// array and reference, then recomputing the per-thread schedules for
    /// `threads` workers (`0` means [`default_threads`]). The rebuilt
    /// kernel's products are bit-identical to the original's; its
    /// `compile_time` stat is zero (nothing was compiled).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural
    /// defect: malformed leaf bounds, misaligned arenas, a non-finite
    /// coefficient, or a block referencing a missing leaf program or an
    /// out-of-range output position.
    pub fn from_parts(parts: CompiledParts<W>, threads: usize) -> Result<Self, String> {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let n = parts.num_states;
        if n > usize::MAX as u64 {
            return Err(format!("num_states {n} exceeds the address space"));
        }
        let num_blocks = parts.block_leafs.len();
        if parts.block_row_bases.len() != num_blocks
            || parts.block_col_bases.len() != num_blocks
            || parts.block_scales.len() != num_blocks
        {
            return Err(format!(
                "block arrays misaligned: {} row bases, {} col bases, {} scales, {num_blocks} leafs",
                parts.block_row_bases.len(),
                parts.block_col_bases.len(),
                parts.block_scales.len()
            ));
        }
        let bounds = &parts.leaf_bounds;
        if bounds.first() != Some(&0) {
            return Err("leaf_bounds must start at 0".into());
        }
        if let Some(w) = bounds.windows(2).find(|w| w[0] > w[1]) {
            return Err(format!(
                "leaf_bounds is not monotonic ({} > {})",
                w[0], w[1]
            ));
        }
        let entries = parts.leaf_rows.len();
        if *bounds.last().unwrap() as usize != entries {
            return Err(format!(
                "leaf_bounds ends at {} but there are {entries} leaf entries",
                bounds.last().unwrap()
            ));
        }
        if parts.leaf_cols.len() != entries || parts.leaf_coefs.len() != entries {
            return Err(format!(
                "leaf arenas misaligned: {} rows, {} cols, {} coefs",
                entries,
                parts.leaf_cols.len(),
                parts.leaf_coefs.len()
            ));
        }
        if let Some((i, &v)) = parts
            .leaf_coefs
            .iter()
            .enumerate()
            .find(|&(_, &v)| !v.is_finite())
        {
            return Err(format!("non-finite leaf coefficient {v:?} at entry {i}"));
        }
        let leaf_programs = bounds.len() - 1;
        // Per-leaf-program output extents, to bound block offsets.
        let mut max_row = vec![0u32; leaf_programs];
        let mut max_col = vec![0u32; leaf_programs];
        for p in 0..leaf_programs {
            for i in bounds[p] as usize..bounds[p + 1] as usize {
                max_row[p] = max_row[p].max(parts.leaf_rows[i]);
                max_col[p] = max_col[p].max(parts.leaf_cols[i]);
            }
        }
        let mut flat_entries = 0u64;
        for i in 0..num_blocks {
            let leaf = parts.block_leafs[i] as usize;
            if leaf >= leaf_programs {
                return Err(format!(
                    "block {i} references leaf program {leaf} of {leaf_programs}"
                ));
            }
            let scale = parts.block_scales[i];
            if !scale.is_finite() {
                return Err(format!("block {i} has non-finite scale {scale:?}"));
            }
            let (row_base, col_base) = (parts.block_row_bases[i], parts.block_col_bases[i]);
            let nonempty = bounds[leaf] < bounds[leaf + 1];
            if nonempty {
                let r = row_base.checked_add(max_row[leaf] as u64);
                let c = col_base.checked_add(max_col[leaf] as u64);
                match (r, c) {
                    (Some(r), Some(c)) if r < n && c < n => {}
                    _ => return Err(format!("block {i} writes outside the {n}-state space")),
                }
            } else if row_base >= n || col_base >= n {
                return Err(format!("block {i} writes outside the {n}-state space"));
            }
            flat_entries += (bounds[leaf + 1] - bounds[leaf]) as u64;
        }
        let row_plan = build_plan(&parts, threads, n, true);
        let col_plan = build_plan(&parts, threads, n, false);
        let stats = CompileStats {
            blocks: num_blocks,
            leaf_programs,
            leaf_entries: entries,
            flat_entries,
            triples_visited: parts.triples_visited,
            triples_compiled: parts.triples_compiled,
            compile_time: Duration::ZERO,
        };
        Ok(CompiledMdMatrix {
            num_states: n as usize,
            threads,
            parts,
            row_plan,
            col_plan,
            stats,
        })
    }

    /// Compilation statistics (sizes, sharing, time).
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Number of worker threads products use (before the small-matrix
    /// serial fallback).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Size of the compiled program in bytes (blocks, arenas and
    /// schedules), the same whether its slabs are owned or mapped.
    pub fn memory_bytes(&self) -> usize {
        let p = &self.parts;
        p.block_row_bases.byte_len()
            + p.block_col_bases.byte_len()
            + p.block_scales.byte_len()
            + p.block_leafs.byte_len()
            + p.leaf_bounds.byte_len()
            + p.leaf_rows.byte_len()
            + p.leaf_cols.byte_len()
            + p.leaf_coefs.byte_len()
            + (self.row_plan.order.len() + self.col_plan.order.len()) * 4
    }

    /// `true` when the kernel's arrays borrow from a mapped store
    /// artifact instead of owning copies.
    pub fn is_mapped(&self) -> bool {
        self.parts.is_mapped()
    }

    /// Applies block `b` in the `y[row] += v·x[col]` orientation.
    #[inline]
    fn apply_block_by_row(&self, b: usize, x: &[W], y: &mut [W], y_offset: u64) {
        let p = &self.parts;
        let leaf = p.block_leafs[b] as usize;
        let lo = p.leaf_bounds[leaf] as usize;
        let hi = p.leaf_bounds[leaf + 1] as usize;
        let scale = p.block_scales[b];
        let base = p.block_row_bases[b] - y_offset;
        let col_base = p.block_col_bases[b];
        for i in lo..hi {
            let v = scale.mul(p.leaf_coefs[i]);
            let yi = (base + p.leaf_rows[i] as u64) as usize;
            y[yi] = y[yi].add(v.mul(x[(col_base + p.leaf_cols[i] as u64) as usize]));
        }
    }

    /// Applies block `b` in the `y[col] += v·x[row]` orientation.
    #[inline]
    fn apply_block_by_col(&self, b: usize, x: &[W], y: &mut [W], y_offset: u64) {
        let p = &self.parts;
        let leaf = p.block_leafs[b] as usize;
        let lo = p.leaf_bounds[leaf] as usize;
        let hi = p.leaf_bounds[leaf + 1] as usize;
        let scale = p.block_scales[b];
        let base = p.block_col_bases[b] - y_offset;
        let row_base = p.block_row_bases[b];
        for i in lo..hi {
            let v = scale.mul(p.leaf_coefs[i]);
            let yi = (base + p.leaf_cols[i] as u64) as usize;
            y[yi] = y[yi].add(v.mul(x[(row_base + p.leaf_rows[i] as u64) as usize]));
        }
    }

    /// Applies one block to `B` stacked right-hand sides at once: the leaf
    /// run is traversed a single time and each `(row, col, coef)` entry is
    /// applied to every RHS before moving on — the entry (and the indices
    /// derived from it) stays in registers across the B-way inner loop, so
    /// the shared arenas are read once per block instead of once per RHS.
    #[inline]
    fn apply_block_multi(
        &self,
        b: usize,
        xs: &[&[W]],
        ys: &mut [&mut [W]],
        y_offset: u64,
        by_row: bool,
    ) {
        let p = &self.parts;
        let leaf = p.block_leafs[b] as usize;
        let lo = p.leaf_bounds[leaf] as usize;
        let hi = p.leaf_bounds[leaf + 1] as usize;
        let scale = p.block_scales[b];
        let (out_base, in_base) = if by_row {
            (p.block_row_bases[b] - y_offset, p.block_col_bases[b])
        } else {
            (p.block_col_bases[b] - y_offset, p.block_row_bases[b])
        };
        for i in lo..hi {
            let v = scale.mul(p.leaf_coefs[i]);
            let (o, c) = if by_row {
                (p.leaf_rows[i], p.leaf_cols[i])
            } else {
                (p.leaf_cols[i], p.leaf_rows[i])
            };
            let yi = (out_base + o as u64) as usize;
            let xi = (in_base + c as u64) as usize;
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                y[yi] = y[yi].add(v.mul(x[xi]));
            }
        }
    }

    /// Blocked multi-RHS product: accumulates `B = xs.len()` products into
    /// `ys` in one pass over the block list and the shared leaf arenas
    /// (`ys[b] += xs[b]·R` when `by_row`, `ys[b] += R·xs[b]` otherwise —
    /// matching [`acc_mat_vec`](RateMatrix::acc_mat_vec) /
    /// [`acc_vec_mat`](RateMatrix::acc_vec_mat) respectively).
    ///
    /// Each RHS accumulates its contributions in exactly the order the
    /// single-vector product would, so every `ys[b]` is **bit-identical**
    /// to an independent [`RateMatrix::acc_mat_vec`] /
    /// [`RateMatrix::acc_vec_mat`] call on `xs[b]` — at any thread count
    /// (the threaded path reuses the same per-orientation [`Plan`], with
    /// every thread owning the same disjoint output range across all B
    /// outputs).
    ///
    /// # Panics
    ///
    /// When `xs.len() != ys.len()` or any vector's length differs from
    /// [`num_states`](RateMatrix::num_states).
    pub fn product_multi(&self, xs: &[&[W]], ys: &mut [Vec<W>], by_row: bool) {
        assert_eq!(xs.len(), ys.len(), "one output per right-hand side");
        for x in xs {
            assert_eq!(x.len(), self.num_states);
        }
        for y in ys.iter() {
            assert_eq!(y.len(), self.num_states);
        }
        if xs.is_empty() {
            return;
        }
        let mut span = mdl_obs::span("md.kernel.product_multi").with("n", self.num_states);
        span.record("rhs", xs.len());
        span.record("threads", self.threads);
        let mut outs: Vec<&mut [W]> = ys.iter_mut().map(|y| y.as_mut_slice()).collect();
        if self.threads == 1 || self.num_states < PAR_MIN_STATES {
            for b in 0..self.parts.num_blocks() {
                self.apply_block_multi(b, xs, &mut outs, 0, by_row);
            }
            span.finish();
            return;
        }
        let plan = if by_row {
            &self.row_plan
        } else {
            &self.col_plan
        };
        std::thread::scope(|scope| {
            let mut rests = outs;
            let mut offset = 0u64;
            for k in 0..self.threads {
                let end = plan.bounds[k + 1];
                let mut chunks = Vec::with_capacity(rests.len());
                let mut tails = Vec::with_capacity(rests.len());
                for rest in rests {
                    let (chunk, tail) = rest.split_at_mut((end - offset) as usize);
                    chunks.push(chunk);
                    tails.push(tail);
                }
                rests = tails;
                let run = &plan.order[plan.splits[k]..plan.splits[k + 1]];
                let y_offset = offset;
                scope.spawn(move || {
                    let mut chunks = chunks;
                    for &idx in run {
                        self.apply_block_multi(idx as usize, xs, &mut chunks, y_offset, by_row);
                    }
                });
                offset = end;
            }
        });
        span.finish();
    }

    /// Shared gather driver: serial in walk order, or threaded over the
    /// orientation's plan (each thread owns a disjoint output range and
    /// applies its blocks in walk order — bit-identical either way).
    fn gather(&self, x: &[W], y: &mut [W], by_row: bool) {
        assert_eq!(x.len(), self.num_states);
        assert_eq!(y.len(), self.num_states);
        let mut span = mdl_obs::span("md.kernel.product").with("n", self.num_states);
        span.record("threads", self.threads);
        if self.threads == 1 || self.num_states < PAR_MIN_STATES {
            for b in 0..self.parts.num_blocks() {
                if by_row {
                    self.apply_block_by_row(b, x, y, 0);
                } else {
                    self.apply_block_by_col(b, x, y, 0);
                }
            }
            span.finish();
            return;
        }
        let plan = if by_row {
            &self.row_plan
        } else {
            &self.col_plan
        };
        std::thread::scope(|scope| {
            let mut rest = y;
            let mut offset = 0u64;
            for k in 0..self.threads {
                let end = plan.bounds[k + 1];
                let (chunk, tail) = rest.split_at_mut((end - offset) as usize);
                let run = &plan.order[plan.splits[k]..plan.splits[k + 1]];
                let y_offset = offset;
                scope.spawn(move || {
                    for &idx in run {
                        if by_row {
                            self.apply_block_by_row(idx as usize, x, chunk, y_offset);
                        } else {
                            self.apply_block_by_col(idx as usize, x, chunk, y_offset);
                        }
                    }
                });
                rest = tail;
                offset = end;
            }
        });
        span.finish();
    }
}

/// Builds a deterministic `threads`-way schedule: block indices stably
/// sorted by the orientation's output base, split at base-change
/// boundaries into weight-balanced runs over disjoint output ranges.
fn build_plan<W: Weight>(parts: &CompiledParts<W>, threads: usize, n: u64, by_row: bool) -> Plan {
    let bases: &[u64] = if by_row {
        &parts.block_row_bases
    } else {
        &parts.block_col_bases
    };
    let bounds_arr = &parts.leaf_bounds;
    let weight = |i: usize| {
        let leaf = parts.block_leafs[i] as usize;
        (bounds_arr[leaf + 1] - bounds_arr[leaf]) as u64
    };
    let num_blocks = parts.num_blocks();
    let mut order: Vec<u32> = (0..num_blocks as u32).collect();
    order.sort_by_key(|&i| bases[i as usize]); // stable: walk order within a base
    let total: u64 = (0..num_blocks).map(weight).sum();
    let mut splits = vec![0usize];
    let mut bounds = vec![0u64];
    let mut acc = 0u64;
    let mut cursor = 0usize;
    for k in 1..threads {
        let target = total * k as u64 / threads as u64;
        while cursor < order.len() && acc < target {
            acc += weight(order[cursor] as usize);
            cursor += 1;
        }
        // Never split a group of blocks sharing an output interval.
        while cursor > 0
            && cursor < order.len()
            && bases[order[cursor] as usize] == bases[order[cursor - 1] as usize]
        {
            acc += weight(order[cursor] as usize);
            cursor += 1;
        }
        splits.push(cursor);
        bounds.push(if cursor < order.len() {
            bases[order[cursor] as usize]
        } else {
            n
        });
    }
    splits.push(order.len());
    bounds.push(n);
    Plan {
        order,
        splits,
        bounds,
    }
}

impl RateMatrix for CompiledMdMatrix {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn acc_mat_vec(&self, x: &[f64], y: &mut [f64]) {
        self.gather(x, y, true);
    }

    fn acc_vec_mat(&self, x: &[f64], y: &mut [f64]) {
        self.gather(x, y, false);
    }
}

impl CompiledMdMatrix<Interval> {
    /// Applies block `b` of the lower (`upper == false`) or upper
    /// transition operator to the gamble `f`, rounding every step toward
    /// the bound. Per entry the rate interval is `scale · coef` (outward);
    /// the operator picks the endpoint that minimizes (resp. maximizes)
    /// `q · (f(col) − f(row))`. The endpoint test runs on the *rounded*
    /// difference, which stays sound for nonnegative rate intervals: when
    /// the rounded difference straddles zero against the true one, the
    /// selected product is still on the bound's side of zero.
    ///
    /// Self-loop entries contribute `±q·ulp` instead of an exact zero —
    /// one ulp of slack on the bound's side, sound by construction.
    #[inline]
    fn apply_block_bound(&self, b: usize, f: &[f64], out: &mut [f64], y_offset: u64, upper: bool) {
        let p = &self.parts;
        let leaf = p.block_leafs[b] as usize;
        let lo = p.leaf_bounds[leaf] as usize;
        let hi = p.leaf_bounds[leaf + 1] as usize;
        let scale = p.block_scales[b];
        let row_base = p.block_row_bases[b];
        let col_base = p.block_col_bases[b];
        let base = row_base - y_offset;
        for i in lo..hi {
            let rate = scale.mul(p.leaf_coefs[i]);
            let r = (row_base + p.leaf_rows[i] as u64) as usize;
            let c = (col_base + p.leaf_cols[i] as u64) as usize;
            let yi = (base + p.leaf_rows[i] as u64) as usize;
            if upper {
                let g = sub_up(f[c], f[r]);
                let q = if g >= 0.0 { rate.hi } else { rate.lo };
                out[yi] = add_up(out[yi], mul_up(q, g));
            } else {
                let g = sub_down(f[c], f[r]);
                let q = if g >= 0.0 { rate.lo } else { rate.hi };
                out[yi] = add_down(out[yi], mul_down(q, g));
            }
        }
    }
}

impl IntervalRateMatrix for CompiledMdMatrix<Interval> {
    fn num_states(&self) -> usize {
        self.num_states
    }

    /// Deterministic at every thread count: the threaded path reuses the
    /// row-oriented [`Plan`], so each output entry is owned by exactly one
    /// thread and accumulates its contributions in walk order — the same
    /// sequence of directed-rounded adds as the serial sweep.
    fn acc_bound_operator(&self, f: &[f64], out: &mut [f64], upper: bool) {
        assert_eq!(f.len(), self.num_states);
        assert_eq!(out.len(), self.num_states);
        let mut span = mdl_obs::span("md.kernel.bound_operator").with("n", self.num_states);
        span.record("threads", self.threads);
        if self.threads == 1 || self.num_states < PAR_MIN_STATES {
            for b in 0..self.parts.num_blocks() {
                self.apply_block_bound(b, f, out, 0, upper);
            }
            span.finish();
            return;
        }
        let plan = &self.row_plan;
        std::thread::scope(|scope| {
            let mut rest = out;
            let mut offset = 0u64;
            for k in 0..self.threads {
                let end = plan.bounds[k + 1];
                let (chunk, tail) = rest.split_at_mut((end - offset) as usize);
                let run = &plan.order[plan.splits[k]..plan.splits[k + 1]];
                let y_offset = offset;
                scope.spawn(move || {
                    for &idx in run {
                        self.apply_block_bound(idx as usize, f, chunk, y_offset, upper);
                    }
                });
                rest = tail;
                offset = end;
            }
        });
        span.finish();
    }

    fn max_exit_rate_hi(&self) -> f64 {
        let p = &self.parts;
        let mut exit = vec![0.0f64; self.num_states];
        for b in 0..p.num_blocks() {
            let leaf = p.block_leafs[b] as usize;
            let scale = p.block_scales[b];
            let row_base = p.block_row_bases[b];
            let col_base = p.block_col_bases[b];
            for i in p.leaf_bounds[leaf] as usize..p.leaf_bounds[leaf + 1] as usize {
                let r = (row_base + p.leaf_rows[i] as u64) as usize;
                let c = (col_base + p.leaf_cols[i] as u64) as usize;
                if r == c {
                    continue;
                }
                let rate = scale.mul(p.leaf_coefs[i]);
                // Clamp at zero so a (malformed) negative contribution can
                // only over-estimate the exit rate, never shrink it.
                exit[r] = add_up(exit[r], rate.hi.max(0.0));
            }
        }
        exit.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kronecker::{KroneckerExpr, SparseFactor};
    use mdl_linalg::vec_ops;
    use mdl_mdd::Mdd;

    fn cycle(size: usize, rate: f64) -> SparseFactor {
        let mut f = SparseFactor::new(size);
        for s in 0..size {
            f.push(s, (s + 1) % size, rate);
        }
        f
    }

    fn three_level_expr() -> KroneckerExpr {
        let mut expr = KroneckerExpr::new(vec![2, 3, 2]);
        expr.add_term(2.0, vec![Some(cycle(2, 1.0)), None, None]);
        expr.add_term(1.5, vec![None, Some(cycle(3, 1.0)), Some(cycle(2, 0.5))]);
        expr.add_term(0.7, vec![None, None, Some(cycle(2, 2.0))]);
        expr
    }

    fn full_matrix() -> MdMatrix {
        let expr = three_level_expr();
        MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 3, 2]).unwrap()).unwrap()
    }

    fn probe(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.1 + 0.37 * (i % 13) as f64).collect()
    }

    #[test]
    fn products_bit_identical_to_walk() {
        let m = full_matrix();
        let c = CompiledMdMatrix::compile(&m);
        let n = m.num_states();
        let x = probe(n);
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        m.acc_mat_vec(&x, &mut a);
        c.acc_mat_vec(&x, &mut b);
        assert_eq!(a, b, "mat·vec bit-identical");
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        m.acc_vec_mat(&x, &mut a);
        c.acc_vec_mat(&x, &mut b);
        assert_eq!(a, b, "vec·mat bit-identical");
    }

    #[test]
    fn products_match_flat_matrix() {
        let m = full_matrix();
        let c = CompiledMdMatrix::compile(&m);
        let flat = m.flatten();
        let n = m.num_states();
        let x = probe(n);
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        flat.acc_mat_vec(&x, &mut a);
        c.acc_mat_vec(&x, &mut b);
        assert!(vec_ops::max_abs_diff(&a, &b) < 1e-12);
    }

    #[test]
    fn restricted_reachability_compiles() {
        let expr = three_level_expr();
        let tuples: Vec<Vec<u32>> = (0..12u32)
            .filter(|i| i % 3 != 1)
            .map(|i| vec![i / 6, (i / 2) % 3, i % 2])
            .collect();
        let reach = Mdd::from_tuples(vec![2, 3, 2], tuples).unwrap();
        let m = MdMatrix::new(expr.to_md().unwrap(), reach).unwrap();
        let c = CompiledMdMatrix::compile(&m);
        let n = m.num_states();
        let x = probe(n);
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        m.acc_vec_mat(&x, &mut a);
        c.acc_vec_mat(&x, &mut b);
        assert_eq!(a, b);
        assert_eq!(c.stats().flat_entries, m.count_entries());
    }

    #[test]
    fn threaded_products_bit_identical() {
        // 2 × 3 × 2 is far below the parallel threshold, so force the
        // threaded path indirectly by checking plan-partitioned execution
        // on a model large enough to cross it.
        let mut expr = KroneckerExpr::new(vec![16, 16, 8]);
        expr.add_term(1.0, vec![Some(cycle(16, 1.0)), None, None]);
        expr.add_term(2.0, vec![None, Some(cycle(16, 1.5)), Some(cycle(8, 0.5))]);
        expr.add_term(0.3, vec![None, None, Some(cycle(8, 2.0))]);
        let m = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![16, 16, 8]).unwrap()).unwrap();
        assert!(m.num_states() >= PAR_MIN_STATES);
        let serial = CompiledMdMatrix::compile(&m);
        let n = m.num_states();
        let x = probe(n);
        let mut y_walk = vec![0.0; n];
        m.acc_mat_vec(&x, &mut y_walk);
        let mut z_walk = vec![0.0; n];
        m.acc_vec_mat(&x, &mut z_walk);
        for threads in [1, 2, 3, 4, 7] {
            let c = CompiledMdMatrix::compile_with_threads(&m, threads);
            let mut y = vec![0.0; n];
            c.acc_mat_vec(&x, &mut y);
            assert_eq!(y_walk, y, "mat·vec, {threads} threads");
            let mut z = vec![0.0; n];
            c.acc_vec_mat(&x, &mut z);
            assert_eq!(z_walk, z, "vec·mat, {threads} threads");
            let mut y_ser = vec![0.0; n];
            serial.acc_mat_vec(&x, &mut y_ser);
            assert_eq!(y, y_ser, "threaded equals serial");
        }
    }

    fn probe_b(n: usize, b: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.2 + 0.29 * ((i + 3 * b) % 11) as f64)
            .collect()
    }

    #[test]
    fn product_multi_bit_identical_to_independent_products() {
        // Small model (serial path) and a model crossing PAR_MIN_STATES
        // (threaded path), both orientations, B ∈ {1, 2, 3, 8}.
        let small = full_matrix();
        let mut expr = KroneckerExpr::new(vec![16, 16, 8]);
        expr.add_term(1.0, vec![Some(cycle(16, 1.0)), None, None]);
        expr.add_term(2.0, vec![None, Some(cycle(16, 1.5)), Some(cycle(8, 0.5))]);
        expr.add_term(0.3, vec![None, None, Some(cycle(8, 2.0))]);
        let large =
            MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![16, 16, 8]).unwrap()).unwrap();
        assert!(large.num_states() >= PAR_MIN_STATES);
        for m in [&small, &large] {
            let n = m.num_states();
            for threads in [1usize, 2, 4] {
                let c = CompiledMdMatrix::compile_with_threads(m, threads);
                for b_count in [1usize, 2, 3, 8] {
                    let inputs: Vec<Vec<f64>> = (0..b_count).map(|b| probe_b(n, b)).collect();
                    let xs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
                    for by_row in [true, false] {
                        let mut multi = vec![vec![0.0; n]; b_count];
                        c.product_multi(&xs, &mut multi, by_row);
                        for (b, x) in xs.iter().enumerate() {
                            let mut single = vec![0.0; n];
                            if by_row {
                                c.acc_mat_vec(x, &mut single);
                            } else {
                                c.acc_vec_mat(x, &mut single);
                            }
                            assert_eq!(
                                multi[b], single,
                                "B={b_count} rhs={b} threads={threads} by_row={by_row}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn product_multi_accumulates_and_handles_empty() {
        let m = full_matrix();
        let c = CompiledMdMatrix::compile(&m);
        let n = m.num_states();
        c.product_multi(&[], &mut [], true);
        // Accumulation: a non-zero initial output is added to, not reset.
        let x = probe(n);
        let mut y = vec![1.0; n];
        let mut expect = vec![1.0; n];
        c.acc_mat_vec(&x, &mut expect);
        let mut multi = vec![std::mem::take(&mut y)];
        c.product_multi(&[&x], &mut multi, true);
        assert_eq!(multi[0], expect);
    }

    #[test]
    #[should_panic(expected = "one output per right-hand side")]
    fn product_multi_rejects_mismatched_arity() {
        let m = full_matrix();
        let c = CompiledMdMatrix::compile(&m);
        let x = probe(m.num_states());
        c.product_multi(&[&x], &mut [], true);
    }

    #[test]
    fn empty_reachability_compiles_to_nothing() {
        let expr = three_level_expr();
        let empty = Mdd::from_tuples(vec![2, 3, 2], vec![]).unwrap();
        let m = MdMatrix::new(expr.to_md().unwrap(), empty).unwrap();
        let c = CompiledMdMatrix::compile(&m);
        assert_eq!(c.num_states(), 0);
        assert_eq!(c.stats().blocks, 0);
        assert_eq!(c.stats().flat_entries, 0);
    }

    #[test]
    fn single_level_md_compiles() {
        let mut expr = KroneckerExpr::new(vec![4]);
        expr.add_term(1.0, vec![Some(cycle(4, 2.0))]);
        let m = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![4]).unwrap()).unwrap();
        let c = CompiledMdMatrix::compile(&m);
        assert_eq!(c.stats().blocks, 1);
        let x = probe(4);
        let (mut a, mut b) = (vec![0.0; 4], vec![0.0; 4]);
        m.acc_mat_vec(&x, &mut a);
        c.acc_mat_vec(&x, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn sharing_deduplicates_subprograms() {
        // A full cross-product MDD has one node per level, and the second
        // term's bottom factor is referenced from every level-1 entry: the
        // bottom triples are shared across all incoming paths.
        let m = full_matrix();
        let c = CompiledMdMatrix::compile(&m);
        let s = c.stats();
        assert!(s.triples_visited >= s.triples_compiled);
        assert!(s.dedup_ratio() >= 1.0);
        assert!(s.leaf_entries as u64 <= s.flat_entries);
        assert_eq!(s.flat_entries, m.count_entries());
        assert!(c.memory_bytes() > 0);
    }

    #[test]
    fn row_sums_match_walk() {
        let m = full_matrix();
        let c = CompiledMdMatrix::compile(&m);
        assert_eq!(RateMatrix::row_sums(&m), RateMatrix::row_sums(&c));
        assert_eq!(RateMatrix::col_sums(&m), RateMatrix::col_sums(&c));
    }

    #[test]
    fn zero_threads_means_auto() {
        let m = full_matrix();
        let c = CompiledMdMatrix::compile_with_threads(&m, 0);
        assert_eq!(c.threads(), default_threads());
        assert!(c.threads() >= 1);
    }

    #[test]
    fn unlimited_budget_compiles_identically() {
        let _guard = mdl_obs::testing::guard();
        let m = full_matrix();
        let plain = CompiledMdMatrix::compile(&m);
        let budgeted =
            CompiledMdMatrix::compile_budgeted(&m, 1, &mdl_obs::Budget::unlimited()).unwrap();
        let mut a = plain.stats().clone();
        let mut b = budgeted.stats().clone();
        a.compile_time = Duration::ZERO;
        b.compile_time = Duration::ZERO;
        assert_eq!(a, b);
        let n = m.num_states();
        let x = probe(n);
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        plain.acc_mat_vec(&x, &mut a);
        budgeted.acc_mat_vec(&x, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn expired_deadline_interrupts_compilation() {
        let _guard = mdl_obs::testing::guard();
        let m = full_matrix();
        let budget = mdl_obs::Budget::unlimited().deadline_in(Duration::ZERO);
        let err = CompiledMdMatrix::compile_budgeted(&m, 1, &budget).unwrap_err();
        assert!(matches!(
            err,
            MdError::Interrupted {
                phase: "md.compile",
                reason: mdl_obs::BudgetExceeded::Deadline { .. },
                ..
            }
        ));
    }

    #[test]
    fn node_cap_interrupts_compilation() {
        let _guard = mdl_obs::testing::guard();
        // A model large enough that the traversal crosses the amortized
        // check period (64) several times.
        let mut expr = KroneckerExpr::new(vec![16, 16, 8]);
        expr.add_term(1.0, vec![Some(cycle(16, 1.0)), None, None]);
        expr.add_term(2.0, vec![None, Some(cycle(16, 1.5)), Some(cycle(8, 0.5))]);
        let m = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![16, 16, 8]).unwrap()).unwrap();
        let full = CompiledMdMatrix::compile(&m);
        assert!(full.stats().triples_visited > 64);
        let budget = mdl_obs::Budget::unlimited().node_cap(1);
        let err = CompiledMdMatrix::compile_budgeted(&m, 1, &budget).unwrap_err();
        let MdError::Interrupted {
            phase,
            nodes,
            reason: mdl_obs::BudgetExceeded::NodeCap { cap, .. },
        } = err
        else {
            panic!("expected node-cap interruption, got {err:?}");
        };
        assert_eq!(phase, "md.compile");
        assert_eq!(cap, 1);
        assert!(nodes <= full.stats().triples_visited);
    }

    #[test]
    fn cancellation_interrupts_compilation() {
        let _guard = mdl_obs::testing::guard();
        let m = full_matrix();
        let token = mdl_obs::CancelToken::new();
        token.cancel();
        let budget = mdl_obs::Budget::unlimited().cancelled_by(&token);
        let err = CompiledMdMatrix::compile_budgeted(&m, 1, &budget).unwrap_err();
        assert!(matches!(
            err,
            MdError::Interrupted {
                reason: mdl_obs::BudgetExceeded::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn kernel_image_round_trip_is_bit_identical() {
        let m = full_matrix();
        let c = CompiledMdMatrix::compile(&m);
        let parts = c.to_parts();
        let mut w = ImageWriter::new();
        parts.write_image(&mut w);
        let payload = w.finish();
        let view = ImageView::parse(&payload).expect("image parses");
        let back = CompiledParts::read_image(&view, SlabSource::Copy).expect("image reads");
        assert_eq!(back, parts);
        let rebuilt = CompiledMdMatrix::from_parts(back, 1).expect("parts validate");
        let n = m.num_states();
        let x = probe(n);
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        c.acc_mat_vec(&x, &mut a);
        rebuilt.acc_mat_vec(&x, &mut b);
        assert_eq!(a, b, "mat·vec bit-identical after image round trip");
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        c.acc_vec_mat(&x, &mut a);
        rebuilt.acc_vec_mat(&x, &mut b);
        assert_eq!(a, b, "vec·mat bit-identical after image round trip");
    }

    #[test]
    fn kernel_image_rejects_truncated_sections() {
        let c = CompiledMdMatrix::compile(&full_matrix());
        let parts = c.to_parts();
        let mut w = ImageWriter::new();
        parts.write_image(&mut w);
        let payload = w.finish();
        // Dropping the trailing bytes must fail cleanly, not panic.
        for cut in [1usize, 8, 16] {
            let trimmed = &payload[..payload.len().saturating_sub(cut)];
            let bad = match ImageView::parse(trimmed) {
                Err(_) => continue,
                Ok(view) => CompiledParts::<f64>::read_image(&view, SlabSource::Copy),
            };
            assert!(bad.is_err(), "truncation by {cut} bytes not detected");
        }
    }

    /// Compiles the point-interval kernel: every term keeps its stored
    /// coefficient as a degenerate `[coef, coef]` interval.
    fn compile_point_interval(m: &MdMatrix, threads: usize) -> CompiledMdMatrix<Interval> {
        CompiledMdMatrix::compile_weighted(m, threads, &mdl_obs::Budget::unlimited(), &|site| {
            Interval::point(site.coef)
        })
        .unwrap()
    }

    /// The exact scalar operator `(Qf)(s) = Σ_c q(s,c)·(f(c) − f(s))`
    /// computed from the scalar kernel: `R·f − f ∘ row_sums`.
    fn exact_operator(m: &MdMatrix, f: &[f64]) -> Vec<f64> {
        let c = CompiledMdMatrix::compile(m);
        let mut qf = vec![0.0; f.len()];
        c.acc_mat_vec(f, &mut qf);
        let sums = RateMatrix::row_sums(&c);
        for (s, v) in qf.iter_mut().enumerate() {
            *v -= f[s] * sums[s];
        }
        qf
    }

    #[test]
    fn point_interval_bound_operators_bracket_exact_operator() {
        let m = full_matrix();
        let n = m.num_states();
        let f = probe(n);
        let exact = exact_operator(&m, &f);
        let ci = compile_point_interval(&m, 1);
        let (mut lower, mut upper) = (vec![0.0; n], vec![0.0; n]);
        ci.acc_bound_operator(&f, &mut lower, false);
        ci.acc_bound_operator(&f, &mut upper, true);
        for s in 0..n {
            assert!(
                lower[s] <= exact[s] && exact[s] <= upper[s],
                "state {s}: [{}, {}] must enclose {}",
                lower[s],
                upper[s],
                exact[s]
            );
            // Point intervals: slack is rounding only, a few ulps.
            assert!(upper[s] - lower[s] < 1e-12, "width {}", upper[s] - lower[s]);
        }
    }

    #[test]
    fn widened_intervals_widen_the_bounds() {
        let m = full_matrix();
        let n = m.num_states();
        let f = probe(n);
        let point = compile_point_interval(&m, 1);
        let delta = 0.05;
        let wide = CompiledMdMatrix::<Interval>::compile_weighted(
            &m,
            1,
            &mdl_obs::Budget::unlimited(),
            &|site| Interval {
                lo: (site.coef - delta).max(0.0),
                hi: site.coef + delta,
            },
        )
        .unwrap();
        let (mut lo_p, mut hi_p) = (vec![0.0; n], vec![0.0; n]);
        point.acc_bound_operator(&f, &mut lo_p, false);
        point.acc_bound_operator(&f, &mut hi_p, true);
        let (mut lo_w, mut hi_w) = (vec![0.0; n], vec![0.0; n]);
        wide.acc_bound_operator(&f, &mut lo_w, false);
        wide.acc_bound_operator(&f, &mut hi_w, true);
        for s in 0..n {
            assert!(lo_w[s] <= lo_p[s], "state {s} lower must not tighten");
            assert!(hi_w[s] >= hi_p[s], "state {s} upper must not tighten");
        }
        assert!(
            (0..n).any(|s| hi_w[s] - lo_w[s] > hi_p[s] - lo_p[s] + 1e-6),
            "widened rates must widen some bound"
        );
    }

    #[test]
    fn bound_operator_bit_identical_across_thread_counts() {
        let mut expr = KroneckerExpr::new(vec![16, 16, 8]);
        expr.add_term(1.0, vec![Some(cycle(16, 1.0)), None, None]);
        expr.add_term(2.0, vec![None, Some(cycle(16, 1.5)), Some(cycle(8, 0.5))]);
        expr.add_term(0.3, vec![None, None, Some(cycle(8, 2.0))]);
        let m = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![16, 16, 8]).unwrap()).unwrap();
        assert!(m.num_states() >= PAR_MIN_STATES);
        let n = m.num_states();
        let f = probe(n);
        let serial = compile_point_interval(&m, 1);
        let (mut lo_ref, mut hi_ref) = (vec![0.0; n], vec![0.0; n]);
        serial.acc_bound_operator(&f, &mut lo_ref, false);
        serial.acc_bound_operator(&f, &mut hi_ref, true);
        for threads in [2usize, 4, 7] {
            let c = compile_point_interval(&m, threads);
            let (mut lo, mut hi) = (vec![0.0; n], vec![0.0; n]);
            c.acc_bound_operator(&f, &mut lo, false);
            c.acc_bound_operator(&f, &mut hi, true);
            assert_eq!(lo_ref, lo, "lower sweep, {threads} threads");
            assert_eq!(hi_ref, hi, "upper sweep, {threads} threads");
        }
    }

    #[test]
    fn max_exit_rate_hi_dominates_scalar_row_sums() {
        let m = full_matrix();
        let ci = compile_point_interval(&m, 1);
        let c = CompiledMdMatrix::compile(&m);
        let scalar_max = RateMatrix::row_sums(&c).into_iter().fold(0.0, f64::max);
        let hi = ci.max_exit_rate_hi();
        assert!(hi >= scalar_max, "{hi} must dominate {scalar_max}");
        assert!(hi < scalar_max + 1e-9, "only rounding slack above");
    }

    #[test]
    fn interval_kernel_parts_round_trip() {
        let m = full_matrix();
        let ci = compile_point_interval(&m, 1);
        let rebuilt = CompiledMdMatrix::from_parts(ci.to_parts(), 1).expect("parts validate");
        let n = m.num_states();
        let f = probe(n);
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        ci.acc_bound_operator(&f, &mut a, false);
        rebuilt.acc_bound_operator(&f, &mut b, false);
        assert_eq!(a, b, "lower sweep bit-identical after round trip");
    }

    #[test]
    fn failpoint_injects_compile_interruption() {
        let _guard = mdl_obs::testing::guard();
        mdl_obs::failpoint::clear();
        mdl_obs::failpoint::set("md.compile", "err").unwrap();
        let m = full_matrix();
        let err =
            CompiledMdMatrix::compile_budgeted(&m, 1, &mdl_obs::Budget::unlimited()).unwrap_err();
        // The infallible path ignores failpoints entirely.
        let c = CompiledMdMatrix::compile(&m);
        mdl_obs::failpoint::clear();
        assert!(matches!(
            err,
            MdError::Interrupted {
                phase: "md.compile",
                reason: mdl_obs::BudgetExceeded::Injected,
                ..
            }
        ));
        assert!(c.stats().blocks > 0);
    }
}
