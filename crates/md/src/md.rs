use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use mdl_arena::{ImageView, ImageWriter, Slab, SlabSource};

use crate::{MdError, Result};

/// Sentinel in the `term_children` slab: the term references the unit
/// terminal (valid at the last level only).
const TERMINAL_CHILD: u32 = u32::MAX;

/// Image section holding the level sizes (`u64` elements).
const TAG_SIZES: u32 = 0;
/// First per-level section tag; level `l` owns tags
/// `LEVEL_TAG_BASE + 8l ..= LEVEL_TAG_BASE + 8l + 5`.
const LEVEL_TAG_BASE: u32 = 16;

fn level_tag(level: usize) -> u32 {
    LEVEL_TAG_BASE + (level as u32) * 8
}

/// Reference from a formal-sum term to the node one level below, or to the
/// implicit 1×1 unit terminal at the bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChildId {
    /// A node at the next level, by index.
    Node(u32),
    /// The unit terminal (only valid below the last level).
    Terminal,
}

/// One term `r · R_child` of a formal sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// The real coefficient `r`.
    pub coef: f64,
    /// The referenced node (or the unit terminal).
    pub child: ChildId,
}

impl Term {
    /// Creates a term.
    pub fn new(coef: f64, child: ChildId) -> Self {
        Term { coef, child }
    }
}

/// One stored matrix entry of a node: position `(row, col)` and its formal
/// sum (canonical: sorted by child, duplicate children merged, zero
/// coefficients dropped, never empty).
#[derive(Debug, Clone, PartialEq)]
pub struct MdEntry {
    /// Row index within the level's local state space.
    pub row: u32,
    /// Column index within the level's local state space.
    pub col: u32,
    /// The formal sum `Σ_k r_k · R_k`.
    pub terms: Vec<Term>,
}

/// A matrix-diagram node in its owned, materialized form: a sparse matrix
/// over the level's local state space whose entries are formal sums of
/// references to next-level nodes.
///
/// Inside an [`Md`] nodes are stored flattened into per-level slabs and
/// accessed through [`MdNodeRef`] handles; `MdNode` is the construction
/// and restructuring currency ([`MdBuilder`](crate::MdBuilder),
/// [`Md::replace_level`], [`Md::level_nodes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MdNode {
    entries: Vec<MdEntry>, // sorted by (row, col)
}

impl MdNode {
    /// Creates a node from raw `(row, col, terms)` triples, canonicalizing:
    /// entries sorted by position, duplicate positions merged, formal sums
    /// sorted by child with duplicate children's coefficients summed, zero
    /// coefficients and empty entries dropped.
    ///
    /// Standalone nodes built this way are **not validated** against any
    /// MD's shape; validation happens when the node enters an MD (via
    /// [`MdBuilder::intern_node`](crate::MdBuilder::intern_node) or
    /// [`Md::replace_level`]).
    pub fn new(raw: Vec<(u32, u32, Vec<Term>)>) -> MdNode {
        Self::from_raw(raw)
    }

    /// Like [`MdNode::new`], but **retains zero-coefficient terms** after
    /// merging (the canonical form drops exact zeros — they are no-ops
    /// for every product). The certified-bounds quotient needs explicit
    /// zeros as anchors for rate envelopes around transitions the class
    /// representative lacks: a `0.0`-rate term the interval kernel widens
    /// to `[0, ε]`. Scalar products over such a node are numerically
    /// unchanged (a zero coefficient contributes an exact `+0.0`).
    pub fn new_keeping_zeros(raw: Vec<(u32, u32, Vec<Term>)>) -> MdNode {
        Self::from_raw_impl(raw, true)
    }

    pub(crate) fn from_raw(raw: Vec<(u32, u32, Vec<Term>)>) -> MdNode {
        Self::from_raw_impl(raw, false)
    }

    fn from_raw_impl(mut raw: Vec<(u32, u32, Vec<Term>)>, keep_zeros: bool) -> MdNode {
        raw.sort_by_key(|&(r, c, _)| (r, c));
        let mut entries: Vec<MdEntry> = Vec::with_capacity(raw.len());
        for (row, col, terms) in raw {
            if let Some(last) = entries.last_mut() {
                if last.row == row && last.col == col {
                    last.terms.extend(terms);
                    continue;
                }
            }
            entries.push(MdEntry { row, col, terms });
        }
        for e in entries.iter_mut() {
            canonicalize_terms_impl(&mut e.terms, keep_zeros);
        }
        entries.retain(|e| !e.terms.is_empty());
        MdNode { entries }
    }

    /// Reassembles a node from entries already in canonical form (sorted
    /// by position, unique positions, canonical non-empty sums) — the
    /// inverse of [`MdNodeRef::to_node`], used when materializing slab
    /// rows.
    pub(crate) fn from_canonical_entries(entries: Vec<MdEntry>) -> MdNode {
        debug_assert!(entries
            .windows(2)
            .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)));
        MdNode { entries }
    }

    /// All stored entries, sorted by `(row, col)`.
    pub fn entries(&self) -> &[MdEntry] {
        &self.entries
    }

    /// The stored entries of one row (empty slice if none).
    pub fn row(&self, row: u32) -> &[MdEntry] {
        let start = self.entries.partition_point(|e| e.row < row);
        let end = self.entries.partition_point(|e| e.row <= row);
        &self.entries[start..end]
    }

    /// Number of stored entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Total number of formal-sum terms across all entries.
    pub fn num_terms(&self) -> usize {
        self.entries.iter().map(|e| e.terms.len()).sum()
    }

    /// Hashable canonical key for quasi-reduction (hash-consing).
    pub(crate) fn key(&self) -> NodeKey {
        self.entries
            .iter()
            .map(|e| {
                (
                    e.row,
                    e.col,
                    e.terms
                        .iter()
                        .map(|t| (t.child, t.coef.to_bits()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<MdEntry>()
            + self
                .entries
                .iter()
                .map(|e| e.terms.len() * std::mem::size_of::<Term>())
                .sum::<usize>()
    }
}

pub(crate) type NodeKey = Vec<(u32, u32, Vec<(ChildId, u64)>)>;

/// Sorts by child, merges duplicate children, drops zero coefficients.
pub(crate) fn canonicalize_terms(terms: &mut Vec<Term>) {
    canonicalize_terms_impl(terms, false);
}

fn canonicalize_terms_impl(terms: &mut Vec<Term>, keep_zeros: bool) {
    terms.sort_by_key(|t| t.child);
    let mut out: Vec<Term> = Vec::with_capacity(terms.len());
    for t in terms.drain(..) {
        if let Some(last) = out.last_mut() {
            if last.child == t.child {
                last.coef += t.coef;
                continue;
            }
        }
        out.push(t);
    }
    if !keep_zeros {
        out.retain(|t| t.coef != 0.0);
    }
    *terms = out;
}

/// Identifies a node of an [`Md`]: level (0-based) and index within the
/// level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MdNodeId {
    /// 0-based level (the paper's level `i` is `i − 1` here).
    pub level: u32,
    /// Index within the level.
    pub index: u32,
}

/// One level of an [`Md`] as six parallel slabs (CSR-of-CSR layout): node
/// `i`'s entries are `entry_bounds[i]..entry_bounds[i+1]`, entry `e`'s
/// position is `(entry_rows[e], entry_cols[e])` and its formal sum the
/// terms `term_bounds[e]..term_bounds[e+1]` of `term_coefs` /
/// `term_children` (with [`TERMINAL_CHILD`] marking the unit terminal).
/// Slabs are either owned or zero-copy views into a mapped artifact (see
/// `mdl-arena`).
#[derive(Debug, Clone)]
pub(crate) struct MdLevel {
    /// `num_nodes + 1` monotone entry offsets.
    pub(crate) entry_bounds: Slab<u32>,
    /// Entry row indices, one per stored entry.
    pub(crate) entry_rows: Slab<u32>,
    /// Entry column indices, parallel to `entry_rows`.
    pub(crate) entry_cols: Slab<u32>,
    /// `num_entries + 1` monotone term offsets.
    pub(crate) term_bounds: Slab<u32>,
    /// Term coefficients, one per formal-sum term.
    pub(crate) term_coefs: Slab<f64>,
    /// Term child references, parallel to `term_coefs`.
    pub(crate) term_children: Slab<u32>,
}

impl MdLevel {
    pub(crate) fn num_nodes(&self) -> usize {
        self.entry_bounds.len().saturating_sub(1)
    }

    fn entry_range(&self, node: usize) -> Range<usize> {
        self.entry_bounds[node] as usize..self.entry_bounds[node + 1] as usize
    }

    fn term_range(&self, entry: usize) -> Range<usize> {
        self.term_bounds[entry] as usize..self.term_bounds[entry + 1] as usize
    }

    /// Flattens materialized nodes into the slab layout; `nodes` must be
    /// canonical (the invariant every [`MdNode`] constructor maintains).
    pub(crate) fn from_nodes(nodes: &[MdNode]) -> MdLevel {
        let num_entries: usize = nodes.iter().map(MdNode::num_entries).sum();
        let mut entry_bounds = Vec::with_capacity(nodes.len() + 1);
        let mut entry_rows = Vec::with_capacity(num_entries);
        let mut entry_cols = Vec::with_capacity(num_entries);
        let mut term_bounds = Vec::with_capacity(num_entries + 1);
        let mut term_coefs = Vec::new();
        let mut term_children = Vec::new();
        entry_bounds.push(0u32);
        term_bounds.push(0u32);
        for node in nodes {
            for e in node.entries() {
                entry_rows.push(e.row);
                entry_cols.push(e.col);
                for t in &e.terms {
                    term_coefs.push(t.coef);
                    term_children.push(match t.child {
                        ChildId::Node(n) => {
                            debug_assert_ne!(n, TERMINAL_CHILD);
                            n
                        }
                        ChildId::Terminal => TERMINAL_CHILD,
                    });
                }
                term_bounds.push(u32::try_from(term_coefs.len()).expect("term arena fits in u32"));
            }
            entry_bounds.push(u32::try_from(entry_rows.len()).expect("entry arena fits in u32"));
        }
        MdLevel {
            entry_bounds: entry_bounds.into(),
            entry_rows: entry_rows.into(),
            entry_cols: entry_cols.into(),
            term_bounds: term_bounds.into(),
            term_coefs: term_coefs.into(),
            term_children: term_children.into(),
        }
    }

    fn byte_len(&self) -> usize {
        self.entry_bounds.byte_len()
            + self.entry_rows.byte_len()
            + self.entry_cols.byte_len()
            + self.term_bounds.byte_len()
            + self.term_coefs.byte_len()
            + self.term_children.byte_len()
    }

    fn is_mapped(&self) -> bool {
        self.entry_bounds.is_mapped()
            || self.entry_rows.is_mapped()
            || self.entry_cols.is_mapped()
            || self.term_bounds.is_mapped()
            || self.term_coefs.is_mapped()
            || self.term_children.is_mapped()
    }
}

/// A borrowed handle to one stored entry of a node — position plus an
/// iterator over its formal sum, reading the level slabs in place.
#[derive(Clone, Copy)]
pub struct MdEntryRef<'a> {
    level: &'a MdLevel,
    idx: usize,
}

impl<'a> MdEntryRef<'a> {
    /// Row index within the level's local state space.
    pub fn row(&self) -> u32 {
        self.level.entry_rows[self.idx]
    }

    /// Column index within the level's local state space.
    pub fn col(&self) -> u32 {
        self.level.entry_cols[self.idx]
    }

    /// Number of formal-sum terms.
    pub fn num_terms(&self) -> usize {
        self.level.term_range(self.idx).len()
    }

    /// The formal sum `Σ_k r_k · R_k`, term by term in canonical (child)
    /// order.
    pub fn terms(&self) -> impl ExactSizeIterator<Item = Term> + 'a {
        let level = self.level;
        self.level.term_range(self.idx).map(move |k| Term {
            coef: level.term_coefs[k],
            child: match level.term_children[k] {
                TERMINAL_CHILD => ChildId::Terminal,
                n => ChildId::Node(n),
            },
        })
    }

    /// Materializes the entry.
    pub fn to_entry(&self) -> MdEntry {
        MdEntry {
            row: self.row(),
            col: self.col(),
            terms: self.terms().collect(),
        }
    }
}

impl fmt::Debug for MdEntryRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MdEntryRef")
            .field("row", &self.row())
            .field("col", &self.col())
            .field("num_terms", &self.num_terms())
            .finish()
    }
}

/// A borrowed handle to one node of an [`Md`] — the index-based
/// replacement for handing out `&MdNode` references into per-node heap
/// structures. Obtained from [`Md::node_ref`]; all per-node queries
/// (entries, rows, formal sums) read the level slabs without copying.
#[derive(Clone, Copy)]
pub struct MdNodeRef<'a> {
    level: &'a MdLevel,
    id: MdNodeId,
}

impl<'a> MdNodeRef<'a> {
    /// The node's identity.
    pub fn id(&self) -> MdNodeId {
        self.id
    }

    /// Number of stored entries.
    pub fn num_entries(&self) -> usize {
        self.level.entry_range(self.id.index as usize).len()
    }

    /// Total number of formal-sum terms across all entries.
    pub fn num_terms(&self) -> usize {
        let r = self.level.entry_range(self.id.index as usize);
        (self.level.term_bounds[r.end] - self.level.term_bounds[r.start]) as usize
    }

    /// All stored entries, sorted by `(row, col)`.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = MdEntryRef<'a>> + 'a {
        let level = self.level;
        self.level
            .entry_range(self.id.index as usize)
            .map(move |idx| MdEntryRef { level, idx })
    }

    /// The stored entries of one row (empty if none).
    pub fn row(&self, row: u32) -> impl ExactSizeIterator<Item = MdEntryRef<'a>> + 'a {
        let level = self.level;
        let r = self.level.entry_range(self.id.index as usize);
        let rows = &self.level.entry_rows[r.clone()];
        let start = r.start + rows.partition_point(|&x| x < row);
        let end = r.start + rows.partition_point(|&x| x <= row);
        (start..end).map(move |idx| MdEntryRef { level, idx })
    }

    /// Materializes the node (owned entries).
    pub fn to_node(&self) -> MdNode {
        MdNode::from_canonical_entries(self.entries().map(|e| e.to_entry()).collect())
    }
}

impl fmt::Debug for MdNodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MdNodeRef")
            .field("id", &self.id)
            .field("num_entries", &self.num_entries())
            .finish()
    }
}

/// An ordered, quasi-reduced matrix diagram (Section 3 of the paper).
///
/// Nodes live in per-level slabs (`mdl-arena`): each level is a CSR-of-CSR
/// flattening — entry bounds/rows/cols plus term bounds/coefs/children —
/// addressed by node index through [`MdNodeRef`] handles. A deserialized
/// MD can borrow those arrays zero-copy from a mapped store artifact; the
/// API is identical either way.
///
/// Immutable except through the lumping-specific
/// [`Md::replace_level`], which is how the compositional lumping algorithm
/// substitutes each node with its lumped version (the paper's Fig. 3b,
/// line 6). Construct with [`MdBuilder`](crate::MdBuilder) or
/// [`KroneckerExpr::to_md`](crate::KroneckerExpr::to_md).
#[derive(Debug, Clone)]
pub struct Md {
    pub(crate) sizes: Vec<usize>,
    pub(crate) levels: Vec<MdLevel>,
}

impl Md {
    /// Flattens validated per-level node lists into the slab layout —
    /// the trusted constructor behind every MD-producing operation.
    pub(crate) fn pack(sizes: Vec<usize>, levels: Vec<Vec<MdNode>>) -> Md {
        debug_assert_eq!(sizes.len(), levels.len());
        let levels = levels
            .iter()
            .map(|nodes| MdLevel::from_nodes(nodes))
            .collect();
        Md { sizes, levels }
    }

    /// Number of levels `L`.
    pub fn num_levels(&self) -> usize {
        self.sizes.len()
    }

    /// Local state-space sizes `|S₁|, …, |S_L|`.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The root node id (level 0, index 0).
    pub fn root(&self) -> MdNodeId {
        MdNodeId { level: 0, index: 0 }
    }

    /// A borrowed handle to the node `id`; panics if out of range.
    pub fn node_ref(&self, id: MdNodeId) -> MdNodeRef<'_> {
        let level = &self.levels[id.level as usize];
        assert!(
            (id.index as usize) < level.num_nodes(),
            "node index {} out of range at level {}",
            id.index,
            id.level
        );
        MdNodeRef { level, id }
    }

    /// Borrowed handles to every node of one level, in index order — the
    /// zero-copy counterpart of [`Md::level_nodes`] for read-only walks.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_node_refs(&self, level: usize) -> impl ExactSizeIterator<Item = MdNodeRef<'_>> {
        let lv = &self.levels[level];
        (0..lv.num_nodes()).map(move |i| MdNodeRef {
            level: lv,
            id: MdNodeId {
                level: level as u32,
                index: i as u32,
            },
        })
    }

    /// Materializes the nodes of one level (owned copies). This is the
    /// restructuring path — passes that rebuild whole levels
    /// (lumping, canonicalization) work on materialized nodes and re-enter
    /// them through [`Md::replace_level`] or the builder. For read access
    /// prefer the zero-copy [`Md::node_ref`].
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_nodes(&self, level: usize) -> Vec<MdNode> {
        let lv = &self.levels[level];
        (0..lv.num_nodes())
            .map(|i| {
                MdNodeRef {
                    level: lv,
                    id: MdNodeId {
                        level: level as u32,
                        index: i as u32,
                    },
                }
                .to_node()
            })
            .collect()
    }

    /// Number of nodes at one level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn num_nodes_at(&self, level: usize) -> usize {
        self.levels[level].num_nodes()
    }

    /// Number of nodes on each level (the paper's `|N_i|`, Table 1).
    pub fn nodes_per_level(&self) -> Vec<usize> {
        self.levels.iter().map(MdLevel::num_nodes).collect()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().map(MdLevel::num_nodes).sum()
    }

    /// Approximate memory footprint in bytes (the paper's "MD space"
    /// column of Table 1): the size of the level slabs, the same whether
    /// they are owned or borrowed from a mapped artifact.
    pub fn memory_bytes(&self) -> usize {
        self.levels.iter().map(MdLevel::byte_len).sum()
    }

    /// `true` when any level borrows its slabs from a mapped artifact.
    pub fn is_mapped(&self) -> bool {
        self.levels.iter().any(MdLevel::is_mapped)
    }

    /// Replaces **all** nodes of a level and the level's local state-space
    /// size — the lumping step of the paper's Fig. 3b (line 6): each node
    /// is replaced by its (possibly smaller) lumped version; node count and
    /// child references are unchanged.
    ///
    /// # Errors
    ///
    /// * [`MdError::NoSuchLevel`] for a bad level;
    /// * [`MdError::InvalidShape`] if the node count changes or
    ///   `new_size == 0`;
    /// * [`MdError::IndexOutOfBounds`] if an entry exceeds `new_size`;
    /// * [`MdError::BadChild`] if a child reference is invalid for the
    ///   level.
    pub fn replace_level(
        &mut self,
        level: usize,
        new_size: usize,
        nodes: Vec<MdNode>,
    ) -> Result<()> {
        if level >= self.num_levels() {
            return Err(MdError::NoSuchLevel {
                level,
                num_levels: self.num_levels(),
            });
        }
        if new_size == 0 || nodes.len() != self.levels[level].num_nodes() {
            return Err(MdError::InvalidShape);
        }
        let last = level == self.num_levels() - 1;
        let next_count = if last {
            0
        } else {
            self.levels[level + 1].num_nodes()
        };
        for node in &nodes {
            validate_node(node, level, new_size, last, next_count)?;
        }
        self.sizes[level] = new_size;
        self.levels[level] = MdLevel::from_nodes(&nodes);
        Ok(())
    }

    /// The transpose `Rᵀ` of the represented matrix, as an MD: every
    /// node's entries have row and column swapped (levels, children and
    /// coefficients are unchanged, since
    /// `(A ⊗ B)ᵀ = Aᵀ ⊗ Bᵀ` extends entrywise to formal sums).
    ///
    /// Useful for the exact/ordinary duality: exact lumpability of `R` is
    /// ordinary lumpability of `Rᵀ` (plus the exit-rate and initial-
    /// distribution conditions).
    pub fn transpose(&self) -> Md {
        let levels = (0..self.num_levels())
            .map(|l| {
                (0..self.levels[l].num_nodes())
                    .map(|i| {
                        let n = MdNodeRef {
                            level: &self.levels[l],
                            id: MdNodeId {
                                level: l as u32,
                                index: i as u32,
                            },
                        };
                        MdNode::from_raw(
                            n.entries()
                                .map(|e| (e.col(), e.row(), e.terms().collect()))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        Md::pack(self.sizes.clone(), levels)
    }

    /// Re-runs quasi-reduction bottom-up: merges nodes on a level that have
    /// become equal (for example after lumping made previously distinct
    /// nodes coincide), remapping parent references.
    ///
    /// Returns the reduced MD and the number of nodes removed. The paper's
    /// algorithm deliberately does *not* do this (its lumping step keeps
    /// the node count fixed); it is exposed as the post-pass measured by
    /// the ablation experiments.
    pub fn quasi_reduce(&self) -> (Md, usize) {
        let mut new_levels: Vec<Vec<MdNode>> = vec![Vec::new(); self.num_levels()];
        let mut removed = 0usize;
        // remap[level][old index] = new index
        let mut remap: Vec<Vec<u32>> = Vec::with_capacity(self.num_levels());
        for level in (0..self.num_levels()).rev() {
            let mut unique: HashMap<NodeKey, u32> = HashMap::new();
            let old_count = self.levels[level].num_nodes();
            let mut level_map = vec![0u32; old_count];
            let child_map = if level + 1 < self.num_levels() {
                Some(&remap[self.num_levels() - 2 - level])
            } else {
                None
            };
            for (i, slot) in level_map.iter_mut().enumerate() {
                let node = MdNodeRef {
                    level: &self.levels[level],
                    id: MdNodeId {
                        level: level as u32,
                        index: i as u32,
                    },
                };
                // Rewrite children through the lower level's remapping.
                let rewritten: Vec<(u32, u32, Vec<Term>)> = node
                    .entries()
                    .map(|e| {
                        let terms = e
                            .terms()
                            .map(|t| {
                                let child = match (t.child, child_map) {
                                    (ChildId::Node(n), Some(map)) => ChildId::Node(map[n as usize]),
                                    (c, _) => c,
                                };
                                Term {
                                    coef: t.coef,
                                    child,
                                }
                            })
                            .collect();
                        (e.row(), e.col(), terms)
                    })
                    .collect();
                let canon = MdNode::from_raw(rewritten);
                let key = canon.key();
                let new_index = *unique.entry(key).or_insert_with(|| {
                    new_levels[level].push(canon);
                    (new_levels[level].len() - 1) as u32
                });
                *slot = new_index;
            }
            removed += old_count - new_levels[level].len();
            remap.push(level_map);
        }
        (Md::pack(self.sizes.clone(), new_levels), removed)
    }

    /// Serializes the MD into arena image sections: tag [`TAG_SIZES`]
    /// holds the level sizes; level `l` owns tags `16 + 8l` (entry bounds,
    /// `u32`), `+1` (entry rows, `u32`), `+2` (entry cols, `u32`), `+3`
    /// (term bounds, `u32`), `+4` (term coefficients, `f64`) and `+5`
    /// (term children, `u32`).
    pub fn write_image(&self, w: &mut ImageWriter) {
        let sizes: Vec<u64> = self.sizes.iter().map(|&s| s as u64).collect();
        w.put_u64(TAG_SIZES, &sizes);
        for (l, level) in self.levels.iter().enumerate() {
            let base = level_tag(l);
            w.put_u32(base, &level.entry_bounds);
            w.put_u32(base + 1, &level.entry_rows);
            w.put_u32(base + 2, &level.entry_cols);
            w.put_u32(base + 3, &level.term_bounds);
            w.put_f64(base + 4, &level.term_coefs);
            w.put_u32(base + 5, &level.term_children);
        }
    }

    /// Rebuilds an MD from arena image sections written by
    /// [`Md::write_image`]. With [`SlabSource::Mapped`] the level slabs
    /// borrow the mapped region zero-copy (falling back to copies on
    /// non-little-endian or misaligned layouts).
    ///
    /// Everything is re-validated by a linear scan, so a corrupt image is
    /// an error here rather than a panic far from the cause: bounds
    /// monotonicity, entry positions, child references, finite
    /// coefficients, and the canonical order — entries strictly by
    /// `(row, col)` within a node, terms strictly by child within an
    /// entry, no empty formal sum. Zero coefficients are accepted:
    /// tolerance lumps keep them as rate-envelope anchors
    /// ([`MdNode::new_keeping_zeros`]).
    ///
    /// # Errors
    ///
    /// [`MdError::Image`] on missing/mistyped sections or inconsistent
    /// content; [`MdError::InvalidShape`] for malformed level sizes.
    pub fn read_image(view: &ImageView<'_>, source: SlabSource<'_>) -> Result<Md> {
        let img = |e: mdl_arena::ArenaError| MdError::Image(e.to_string());
        let sizes_u64 = view.vec_u64(TAG_SIZES).map_err(img)?;
        if sizes_u64.is_empty() || sizes_u64.iter().any(|&s| s == 0 || s > u32::MAX as u64) {
            return Err(MdError::InvalidShape);
        }
        let sizes: Vec<usize> = sizes_u64.iter().map(|&s| s as usize).collect();
        let num_levels = sizes.len();
        let mut levels = Vec::with_capacity(num_levels);
        for l in 0..num_levels {
            let base = level_tag(l);
            let level = MdLevel {
                entry_bounds: view.slab_u32(base, source).map_err(img)?,
                entry_rows: view.slab_u32(base + 1, source).map_err(img)?,
                entry_cols: view.slab_u32(base + 2, source).map_err(img)?,
                term_bounds: view.slab_u32(base + 3, source).map_err(img)?,
                term_coefs: view.slab_f64(base + 4, source).map_err(img)?,
                term_children: view.slab_u32(base + 5, source).map_err(img)?,
            };
            validate_level_bounds(l, &level)?;
            levels.push(level);
        }
        if levels[0].num_nodes() == 0 {
            return Err(MdError::InvalidShape);
        }
        for l in 0..num_levels {
            let next_count = levels.get(l + 1).map(MdLevel::num_nodes);
            validate_level_content(l, &levels[l], sizes[l], next_count)?;
        }
        Ok(Md { sizes, levels })
    }
}

/// Checks one decoded level's internal slab consistency: bounds lengths,
/// monotonicity, and agreement between the entry and term layers.
fn validate_level_bounds(l: usize, lv: &MdLevel) -> Result<()> {
    let err = |detail: String| Err(MdError::Image(format!("level {l}: {detail}")));
    if lv.entry_bounds.first() != Some(&0) {
        return err("entry bounds must start at 0".into());
    }
    if lv.entry_bounds.windows(2).any(|w| w[0] > w[1]) {
        return err("entry bounds not monotone".into());
    }
    let entries = lv.entry_rows.len();
    if *lv.entry_bounds.last().unwrap() as usize != entries || lv.entry_cols.len() != entries {
        return err(format!(
            "entry arenas misaligned ({} bounds end, {} rows, {} cols)",
            lv.entry_bounds.last().unwrap(),
            entries,
            lv.entry_cols.len()
        ));
    }
    if lv.term_bounds.len() != entries + 1 {
        return err(format!(
            "{} term bounds for {entries} entries",
            lv.term_bounds.len()
        ));
    }
    if lv.term_bounds.first() != Some(&0) || lv.term_bounds.windows(2).any(|w| w[0] > w[1]) {
        return err("term bounds not monotone from 0".into());
    }
    let terms = lv.term_coefs.len();
    if *lv.term_bounds.last().unwrap() as usize != terms || lv.term_children.len() != terms {
        return err(format!(
            "term arenas misaligned ({} bounds end, {} coefs, {} children)",
            lv.term_bounds.last().unwrap(),
            terms,
            lv.term_children.len()
        ));
    }
    Ok(())
}

/// Checks one decoded level's content against the canonical form every
/// [`MdNode`] constructor maintains. `next_count` is the node count of
/// the level below, `None` at the last level (whose terms must all
/// reference the terminal).
fn validate_level_content(
    l: usize,
    lv: &MdLevel,
    size: usize,
    next_count: Option<usize>,
) -> Result<()> {
    let err = |detail: String| Err(MdError::Image(format!("level {l}: {detail}")));
    for node in 0..lv.num_nodes() {
        let mut prev_pos = None;
        for e in lv.entry_range(node) {
            let pos = (lv.entry_rows[e], lv.entry_cols[e]);
            if pos.0 as usize >= size || pos.1 as usize >= size {
                return err(format!(
                    "entry {e} position {pos:?} exceeds local space of size {size}"
                ));
            }
            if prev_pos.is_some_and(|prev| prev >= pos) {
                return err(format!(
                    "node {node}: entry {e} at {pos:?} breaks the (row, col) order"
                ));
            }
            prev_pos = Some(pos);
            if lv.term_range(e).is_empty() {
                return err(format!("entry {e} has an empty formal sum"));
            }
            let mut prev_child = None;
            for k in lv.term_range(e) {
                let (coef, child) = (lv.term_coefs[k], lv.term_children[k]);
                let valid = match next_count {
                    None => child == TERMINAL_CHILD,
                    Some(n) => child != TERMINAL_CHILD && (child as usize) < n,
                };
                if !valid {
                    return err(format!("term {k} has invalid child reference {child}"));
                }
                if !coef.is_finite() {
                    return err(format!("term {k} has non-finite coefficient {coef}"));
                }
                if prev_child.is_some_and(|prev| prev >= child) {
                    return err(format!(
                        "entry {e}: term {k} child {child} breaks the child order"
                    ));
                }
                prev_child = Some(child);
            }
        }
    }
    Ok(())
}

pub(crate) fn validate_node(
    node: &MdNode,
    level: usize,
    size: usize,
    last: bool,
    next_count: usize,
) -> Result<()> {
    for e in node.entries() {
        if e.row as usize >= size {
            return Err(MdError::IndexOutOfBounds {
                level,
                index: e.row,
                size,
            });
        }
        if e.col as usize >= size {
            return Err(MdError::IndexOutOfBounds {
                level,
                index: e.col,
                size,
            });
        }
        for t in &e.terms {
            if !t.coef.is_finite() {
                return Err(MdError::InvalidCoefficient { value: t.coef });
            }
            match t.child {
                ChildId::Terminal if !last => {
                    return Err(MdError::BadChild {
                        level,
                        child: "Terminal".into(),
                    })
                }
                ChildId::Node(_) if last => {
                    return Err(MdError::BadChild {
                        level,
                        child: format!("{:?}", t.child),
                    })
                }
                ChildId::Node(n) if (n as usize) >= next_count || n == TERMINAL_CHILD => {
                    return Err(MdError::BadChild {
                        level,
                        child: format!("Node({n})"),
                    })
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MdBuilder;

    #[test]
    fn canonicalize_merges_and_drops() {
        let mut terms = vec![
            Term::new(1.0, ChildId::Node(2)),
            Term::new(2.0, ChildId::Node(1)),
            Term::new(3.0, ChildId::Node(2)),
            Term::new(0.0, ChildId::Node(5)),
            Term::new(1.0, ChildId::Node(7)),
            Term::new(-1.0, ChildId::Node(7)),
        ];
        canonicalize_terms(&mut terms);
        assert_eq!(
            terms,
            vec![
                Term::new(2.0, ChildId::Node(1)),
                Term::new(4.0, ChildId::Node(2))
            ]
        );
    }

    #[test]
    fn node_row_access() {
        let node = MdNode::from_raw(vec![
            (1, 0, vec![Term::new(1.0, ChildId::Terminal)]),
            (0, 1, vec![Term::new(2.0, ChildId::Terminal)]),
            (1, 2, vec![Term::new(3.0, ChildId::Terminal)]),
        ]);
        assert_eq!(node.num_entries(), 3);
        assert_eq!(node.row(0).len(), 1);
        assert_eq!(node.row(1).len(), 2);
        assert!(node.row(2).is_empty());
        assert_eq!(node.row(1)[1].col, 2);
    }

    #[test]
    fn from_raw_merges_duplicate_positions() {
        let node = MdNode::from_raw(vec![
            (0, 0, vec![Term::new(1.0, ChildId::Terminal)]),
            (0, 0, vec![Term::new(2.0, ChildId::Terminal)]),
        ]);
        assert_eq!(node.num_entries(), 1);
        assert_eq!(
            node.entries()[0].terms,
            vec![Term::new(3.0, ChildId::Terminal)]
        );
    }

    #[test]
    fn empty_sums_dropped() {
        let node = MdNode::from_raw(vec![(0, 0, vec![Term::new(0.0, ChildId::Terminal)])]);
        assert_eq!(node.num_entries(), 0);
    }

    #[test]
    fn keys_equal_iff_content_equal() {
        let a = MdNode::from_raw(vec![(0, 1, vec![Term::new(1.5, ChildId::Node(0))])]);
        let b = MdNode::from_raw(vec![(0, 1, vec![Term::new(1.5, ChildId::Node(0))])]);
        let c = MdNode::from_raw(vec![(0, 1, vec![Term::new(2.5, ChildId::Node(0))])]);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    fn two_level_md() -> Md {
        let mut b = MdBuilder::new(vec![2, 3]).unwrap();
        let bottom = b
            .intern_node(
                1,
                vec![
                    (0, 1, vec![Term::new(1.0, ChildId::Terminal)]),
                    (2, 0, vec![Term::new(0.5, ChildId::Terminal)]),
                ],
            )
            .unwrap();
        let ident = b.intern_identity(1, ChildId::Terminal).unwrap();
        let root = b
            .intern_node(
                0,
                vec![
                    (0, 1, vec![Term::new(2.0, ChildId::Node(bottom))]),
                    (
                        1,
                        0,
                        vec![
                            Term::new(3.0, ChildId::Node(bottom)),
                            Term::new(1.0, ChildId::Node(ident)),
                        ],
                    ),
                ],
            )
            .unwrap();
        b.finish(root).unwrap()
    }

    #[test]
    fn node_ref_matches_materialized_nodes() {
        let md = two_level_md();
        for l in 0..md.num_levels() {
            let nodes = md.level_nodes(l);
            assert_eq!(nodes.len(), md.num_nodes_at(l));
            for (i, node) in nodes.iter().enumerate() {
                let r = md.node_ref(MdNodeId {
                    level: l as u32,
                    index: i as u32,
                });
                assert_eq!(&r.to_node(), node);
                assert_eq!(r.num_entries(), node.num_entries());
                assert_eq!(r.num_terms(), node.num_terms());
                for (er, e) in r.entries().zip(node.entries()) {
                    assert_eq!(er.row(), e.row);
                    assert_eq!(er.col(), e.col);
                    assert_eq!(er.terms().collect::<Vec<_>>(), e.terms);
                }
                for row in 0..3u32 {
                    assert_eq!(
                        r.row(row).map(|e| e.to_entry()).collect::<Vec<_>>(),
                        node.row(row).to_vec()
                    );
                }
            }
        }
    }

    #[test]
    fn image_round_trip_preserves_everything() {
        let md = two_level_md();
        let mut w = ImageWriter::new();
        md.write_image(&mut w);
        let payload = w.finish();
        let view = ImageView::parse(&payload).unwrap();
        let back = Md::read_image(&view, SlabSource::Copy).unwrap();
        // An untampered re-emit is the same image, so the rejections
        // below are down to their edits alone.
        let reemitted = read_tampered(&md, |_, _| {}).unwrap();
        assert_eq!(back.sizes(), md.sizes());
        assert_eq!(back.nodes_per_level(), md.nodes_per_level());
        for l in 0..md.num_levels() {
            assert_eq!(back.level_nodes(l), md.level_nodes(l));
            assert_eq!(reemitted.level_nodes(l), md.level_nodes(l));
        }
    }

    /// The six slab arrays of one MD level, as plain vectors.
    struct LevelArrays {
        entry_bounds: Vec<u32>,
        entry_rows: Vec<u32>,
        entry_cols: Vec<u32>,
        term_bounds: Vec<u32>,
        term_coefs: Vec<f64>,
        term_children: Vec<u32>,
    }

    /// Re-emits the image of `md` with `edit` applied to each level's
    /// arrays, and reads it back.
    fn read_tampered(md: &Md, edit: impl Fn(usize, &mut LevelArrays)) -> Result<Md> {
        let mut w = ImageWriter::new();
        let sizes: Vec<u64> = md.sizes().iter().map(|&s| s as u64).collect();
        w.put_u64(TAG_SIZES, &sizes);
        for (l, level) in md.levels.iter().enumerate() {
            let mut a = LevelArrays {
                entry_bounds: level.entry_bounds.to_vec(),
                entry_rows: level.entry_rows.to_vec(),
                entry_cols: level.entry_cols.to_vec(),
                term_bounds: level.term_bounds.to_vec(),
                term_coefs: level.term_coefs.to_vec(),
                term_children: level.term_children.to_vec(),
            };
            edit(l, &mut a);
            let base = level_tag(l);
            w.put_u32(base, &a.entry_bounds);
            w.put_u32(base + 1, &a.entry_rows);
            w.put_u32(base + 2, &a.entry_cols);
            w.put_u32(base + 3, &a.term_bounds);
            w.put_f64(base + 4, &a.term_coefs);
            w.put_u32(base + 5, &a.term_children);
        }
        let payload = w.finish();
        Md::read_image(&ImageView::parse(&payload).unwrap(), SlabSource::Copy)
    }

    fn assert_image_error(result: Result<Md>, what: &str) {
        match result {
            Err(MdError::Image(_)) => {}
            Err(other) => panic!("{what}: expected an image error, got {other:?}"),
            Ok(_) => panic!("{what}: tampered image was accepted"),
        }
    }

    #[test]
    fn image_with_corrupt_child_is_rejected() {
        let md = two_level_md();
        // The root level's first term points past the bottom level.
        let bad = read_tampered(&md, |l, a| {
            if l == 0 {
                a.term_children[0] = 97;
            }
        });
        assert_image_error(bad, "dangling child");
    }

    #[test]
    fn image_with_broken_bounds_is_rejected() {
        let md = two_level_md();
        let bad = read_tampered(&md, |l, a| {
            if l == 1 {
                *a.entry_bounds.last_mut().unwrap() += 7; // past the entry arena
            }
        });
        assert_image_error(bad, "entry bounds overrun");
    }

    #[test]
    fn image_with_non_finite_coefficient_is_rejected() {
        let md = two_level_md();
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = read_tampered(&md, |l, a| {
                if l == 1 {
                    a.term_coefs[0] = value;
                }
            });
            assert_image_error(bad, &format!("coefficient {value}"));
        }
    }

    #[test]
    fn image_with_zero_coefficient_is_accepted() {
        // Tolerance lumps store explicit zero-rate anchor terms; the image
        // path must keep them, bit for bit.
        let md = two_level_md();
        let back = read_tampered(&md, |l, a| {
            if l == 1 {
                a.term_coefs[0] = 0.0;
            }
        })
        .unwrap();
        assert_eq!(back.levels[1].term_coefs[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(
            back.levels[1].term_coefs.len(),
            md.levels[1].term_coefs.len()
        );
    }

    #[test]
    fn image_with_unordered_entries_is_rejected() {
        let md = two_level_md();
        // Swap the bottom node's entries (0, 1) and (2, 0).
        let bad = read_tampered(&md, |l, a| {
            if l == 1 {
                a.entry_rows.swap(0, 1);
                a.entry_cols.swap(0, 1);
            }
        });
        assert_image_error(bad, "entries out of (row, col) order");
        // A repeated position is no better than a swapped one.
        let bad = read_tampered(&md, |l, a| {
            if l == 1 {
                a.entry_rows[1] = a.entry_rows[0];
                a.entry_cols[1] = a.entry_cols[0];
            }
        });
        assert_image_error(bad, "duplicate entry position");
    }

    #[test]
    fn image_with_unordered_terms_is_rejected() {
        let md = two_level_md();
        // The root's second entry sums two children in ascending order.
        let bad = read_tampered(&md, |l, a| {
            if l == 0 {
                a.term_children.swap(1, 2);
            }
        });
        assert_image_error(bad, "terms out of child order");
        let bad = read_tampered(&md, |l, a| {
            if l == 0 {
                a.term_children[2] = a.term_children[1];
            }
        });
        assert_image_error(bad, "duplicate child in a formal sum");
    }

    #[test]
    fn image_with_empty_formal_sum_is_rejected() {
        let md = two_level_md();
        let bad = read_tampered(&md, |l, a| {
            if l == 1 {
                // Drop the first entry's only term.
                for b in a.term_bounds.iter_mut().skip(1) {
                    *b -= 1;
                }
                a.term_coefs.remove(0);
                a.term_children.remove(0);
            }
        });
        assert_image_error(bad, "empty formal sum");
    }

    #[test]
    fn memory_accounting_positive_and_unmapped() {
        let md = two_level_md();
        assert!(md.memory_bytes() > 0);
        assert!(!md.is_mapped());
    }
}
