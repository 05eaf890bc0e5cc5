use std::fmt;

use mdl_arena::{ImageView, ImageWriter, Slab, SlabSource};

/// Sentinel: no child at this local state (the tuple set contains nothing
/// below this edge).
pub(crate) const NO_CHILD: u32 = u32::MAX;
/// Sentinel used at the last level: the edge terminates in the accepting
/// terminal (the tuple is in the set).
pub(crate) const TERMINAL: u32 = u32::MAX - 1;

/// Image section holding the level sizes (`u64` elements).
const TAG_SIZES: u32 = 0;
/// First per-level section tag; level `l` owns tags
/// `LEVEL_TAG_BASE + 4l ..= LEVEL_TAG_BASE + 4l + 2`.
const LEVEL_TAG_BASE: u32 = 16;

fn level_tag(level: usize) -> u32 {
    LEVEL_TAG_BASE + (level as u32) * 4
}

/// Identifies a node of an [`Mdd`]: its level (0-based, `0` is the root
/// level) and its index within that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MddNodeId {
    /// 0-based level (paper levels are 1-based: paper level `i` is `i − 1`
    /// here).
    pub level: u32,
    /// Index of the node within its level.
    pub index: u32,
}

/// One level of an [`Mdd`] as three parallel slabs: node `i`'s child slots
/// occupy `children[i*size .. (i+1)*size]`, its offset labelling the same
/// range of `offsets`, and its tuple count `counts[i]`. Slabs are either
/// owned or zero-copy views into a mapped artifact (see `mdl-arena`).
#[derive(Debug, Clone)]
pub(crate) struct MddLevel {
    /// Slots per node (= the level's local state-space size).
    pub(crate) size: usize,
    /// Child slots, `size` per node: `NO_CHILD`, `TERMINAL` (last level
    /// only) or a next-level node index.
    pub(crate) children: Slab<u32>,
    /// `offsets[i*size + s]` = tuples below node `i` through local states
    /// `< s` — the indexing-function labelling.
    pub(crate) offsets: Slab<u64>,
    /// `counts[i]` = tuples encoded below node `i`.
    pub(crate) counts: Slab<u64>,
}

impl MddLevel {
    pub(crate) fn num_nodes(&self) -> usize {
        self.counts.len()
    }

    pub(crate) fn children_of(&self, node: usize) -> &[u32] {
        &self.children[node * self.size..(node + 1) * self.size]
    }

    pub(crate) fn offsets_of(&self, node: usize) -> &[u64] {
        &self.offsets[node * self.size..(node + 1) * self.size]
    }
}

/// Recomputes the count and offset labelling of `levels` bottom-up from
/// the children tables alone, returning the total tuple count.
pub(crate) fn relabel(levels: &mut [MddLevel]) -> u64 {
    let num_levels = levels.len();
    for l in (0..num_levels).rev() {
        let (upper, lower) = levels.split_at_mut(l + 1);
        let level = &mut upper[l];
        let lower_counts: Option<&[u64]> = lower.first().map(|lv| &lv.counts[..]);
        let n = level.children.len() / level.size;
        let mut offsets = Vec::with_capacity(level.children.len());
        let mut counts = Vec::with_capacity(n);
        for node in 0..n {
            let mut acc = 0u64;
            for s in 0..level.size {
                offsets.push(acc);
                let c = level.children[node * level.size + s];
                if c == TERMINAL {
                    acc += 1;
                } else if c != NO_CHILD {
                    acc += lower_counts.expect("inner level has a lower level")[c as usize];
                }
            }
            counts.push(acc);
        }
        level.offsets = offsets.into();
        level.counts = counts.into();
    }
    levels[0].counts.first().copied().unwrap_or(0)
}

/// Errors from MDD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MddError {
    /// A tuple component was outside its level's local state space.
    ValueOutOfRange {
        /// Level of the offending component (0-based).
        level: usize,
        /// The component value.
        value: u32,
        /// The size of the level's local state space.
        size: usize,
    },
    /// A tuple had the wrong number of components.
    WrongArity {
        /// Number of components supplied.
        got: usize,
        /// Number of levels of the MDD.
        expected: usize,
    },
    /// `sizes` was empty or contained a zero.
    InvalidShape,
    /// A raw child slot held an invalid reference (see
    /// [`Mdd::read_image`]).
    InvalidChild {
        /// Level of the offending node (0-based).
        level: usize,
        /// Index of the node within its level.
        node: usize,
        /// Local-state slot within the node.
        slot: usize,
    },
    /// An arena image could not be decoded into an MDD.
    Image(String),
}

impl fmt::Display for MddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MddError::ValueOutOfRange { level, value, size } => {
                write!(
                    f,
                    "component {value} at level {level} exceeds local space of size {size}"
                )
            }
            MddError::WrongArity { got, expected } => {
                write!(f, "tuple has {got} components, expected {expected}")
            }
            MddError::InvalidShape => write!(f, "sizes must be non-empty and positive"),
            MddError::InvalidChild { level, node, slot } => {
                write!(
                    f,
                    "node {node} at level {level} has an invalid child reference in slot {slot}"
                )
            }
            MddError::Image(detail) => write!(f, "malformed MDD image: {detail}"),
        }
    }
}

impl std::error::Error for MddError {}

/// A borrowed handle to one node of an [`Mdd`] — the index-based
/// replacement for handing out references into per-node heap structures.
/// Obtained from [`Mdd::node_ref`]; all per-node queries (children,
/// counts, offsets) go through it without copying.
#[derive(Clone, Copy)]
pub struct MddNodeRef<'a> {
    level: &'a MddLevel,
    id: MddNodeId,
}

impl<'a> MddNodeRef<'a> {
    /// The node's identity.
    pub fn id(&self) -> MddNodeId {
        self.id
    }

    /// The raw child slots (one per local state): [`Mdd::RAW_NO_CHILD`],
    /// [`Mdd::RAW_TERMINAL`] (last level only) or a next-level node index.
    pub fn children(&self) -> &'a [u32] {
        self.level.children_of(self.id.index as usize)
    }

    /// The offset labelling: `offsets()[s]` = tuples below this node
    /// through local states `< s`.
    pub fn offsets(&self) -> &'a [u64] {
        self.level.offsets_of(self.id.index as usize)
    }

    /// Number of tuples encoded below this node.
    pub fn count(&self) -> u64 {
        self.level.counts[self.id.index as usize]
    }

    /// `true` when the node has an outgoing edge at `local`.
    pub fn is_present(&self, local: usize) -> bool {
        self.children()[local] != NO_CHILD
    }
}

impl fmt::Debug for MddNodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MddNodeRef")
            .field("id", &self.id)
            .field("count", &self.count())
            .finish()
    }
}

/// A quasi-reduced, hash-consed multi-valued decision diagram over
/// `S₁ × … × S_L`, with the offset labelling needed to index vectors over
/// the encoded set.
///
/// Nodes live in per-level slabs (`mdl-arena`): each level is three
/// parallel arrays — child slots, offsets, counts — addressed by node
/// index. A deserialized MDD can borrow those arrays zero-copy from a
/// mapped store artifact; the API is identical either way.
///
/// Immutable after construction; see the [crate-level docs](crate) and
/// [`Mdd::from_tuples`].
#[derive(Debug, Clone)]
pub struct Mdd {
    pub(crate) sizes: Vec<usize>,
    pub(crate) levels: Vec<MddLevel>,
    pub(crate) total: u64,
}

impl Mdd {
    /// Number of levels `L`.
    pub fn num_levels(&self) -> usize {
        self.sizes.len()
    }

    /// Local state-space sizes `|S₁|, …, |S_L|`.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The root node (level 0, index 0).
    pub fn root(&self) -> MddNodeId {
        MddNodeId { level: 0, index: 0 }
    }

    /// Total number of tuples encoded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when the encoded set is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of nodes on each level.
    pub fn nodes_per_level(&self) -> Vec<usize> {
        self.levels.iter().map(MddLevel::num_nodes).collect()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().map(MddLevel::num_nodes).sum()
    }

    /// A borrowed handle to the node `id`; panics if out of range.
    pub fn node_ref(&self, id: MddNodeId) -> MddNodeRef<'_> {
        let level = &self.levels[id.level as usize];
        assert!(
            (id.index as usize) < level.num_nodes(),
            "node index {} out of range at level {}",
            id.index,
            id.level
        );
        MddNodeRef { level, id }
    }

    /// The flat child table of one level: node `i`'s slots occupy
    /// `[i * sizes[level], (i + 1) * sizes[level])`. Zero-copy — this is
    /// the slab itself, possibly a view into a mapped artifact.
    pub fn raw_level_children(&self, level: usize) -> &[u32] {
        &self.levels[level].children
    }

    /// Sentinel in level child tables: the slot has no child.
    pub const RAW_NO_CHILD: u32 = NO_CHILD;
    /// Sentinel in level child tables: the slot reaches the accepting
    /// terminal (valid at the last level only).
    pub const RAW_TERMINAL: u32 = TERMINAL;

    /// Raw child slot — `pub(crate)` workhorse of the set operations and
    /// quotienting.
    pub(crate) fn raw_child(&self, level: usize, node: u32, slot: usize) -> u32 {
        let lv = &self.levels[level];
        lv.children[node as usize * lv.size + slot]
    }

    /// The child of `node` at local state `local`: `None` if absent, the
    /// next-level node otherwise. At the last level a present child is
    /// reported as `None`ʼs complement via [`Mdd::is_present`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `local` are out of range, or if `node` is on the
    /// last level (use [`Mdd::is_present`]).
    pub fn child(&self, node: MddNodeId, local: usize) -> Option<MddNodeId> {
        assert!(
            (node.level as usize) < self.num_levels() - 1,
            "last level has no child nodes"
        );
        assert!(local < self.sizes[node.level as usize], "local state");
        let c = self.raw_child(node.level as usize, node.index, local);
        (c != NO_CHILD).then_some(MddNodeId {
            level: node.level + 1,
            index: c,
        })
    }

    /// `true` when `node` has an outgoing edge at `local` (on the last
    /// level this means the tuple ending here is in the set).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn is_present(&self, node: MddNodeId, local: usize) -> bool {
        assert!(local < self.sizes[node.level as usize], "local state");
        self.raw_child(node.level as usize, node.index, local) != NO_CHILD
    }

    /// Number of tuples below `node`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn count_below(&self, node: MddNodeId) -> u64 {
        self.levels[node.level as usize].counts[node.index as usize]
    }

    /// Offset labelling: number of tuples below `node` reached through
    /// local states `< local`. `index_of` is the sum of these along the
    /// accepting path.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn offset(&self, node: MddNodeId, local: usize) -> u64 {
        let lv = &self.levels[node.level as usize];
        assert!(local < lv.size, "local state");
        lv.offsets[node.index as usize * lv.size + local]
    }

    /// Membership test.
    ///
    /// # Errors
    ///
    /// Returns [`MddError::WrongArity`] or [`MddError::ValueOutOfRange`]
    /// for malformed tuples.
    pub fn try_contains(&self, tuple: &[u32]) -> Result<bool, MddError> {
        if tuple.len() != self.num_levels() {
            return Err(MddError::WrongArity {
                got: tuple.len(),
                expected: self.num_levels(),
            });
        }
        for (l, (&v, &size)) in tuple.iter().zip(&self.sizes).enumerate() {
            if v as usize >= size {
                return Err(MddError::ValueOutOfRange {
                    level: l,
                    value: v,
                    size,
                });
            }
        }
        let mut idx = 0u32;
        for (l, &v) in tuple.iter().enumerate() {
            let c = self.raw_child(l, idx, v as usize);
            if c == NO_CHILD {
                return Ok(false);
            }
            idx = c;
        }
        Ok(true)
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics on malformed tuples; see [`Mdd::try_contains`].
    pub fn contains(&self, tuple: &[u32]) -> bool {
        self.try_contains(tuple).expect("well-formed tuple")
    }

    /// The lexicographic rank of `tuple` within the encoded set, or `None`
    /// if the tuple is not in the set.
    ///
    /// # Panics
    ///
    /// Panics on malformed tuples.
    pub fn index_of(&self, tuple: &[u32]) -> Option<u64> {
        assert_eq!(tuple.len(), self.num_levels(), "tuple arity");
        let mut idx = 0u32;
        let mut offset = 0u64;
        for (l, &v) in tuple.iter().enumerate() {
            let lv = &self.levels[l];
            let flat = idx as usize * lv.size + v as usize;
            let c = lv.children[flat];
            if c == NO_CHILD {
                return None;
            }
            offset += lv.offsets[flat];
            idx = c;
        }
        Some(offset)
    }

    /// The tuple with lexicographic rank `index` (inverse of
    /// [`Mdd::index_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= count()`.
    pub fn tuple_at(&self, mut index: u64) -> Vec<u32> {
        assert!(
            index < self.total,
            "index {index} out of range ({} tuples)",
            self.total
        );
        let mut tuple = Vec::with_capacity(self.num_levels());
        let mut idx = 0u32;
        for l in 0..self.num_levels() {
            let lv = &self.levels[l];
            let base = idx as usize * lv.size;
            // Find the local state whose child interval contains `index`.
            let mut chosen = None;
            for s in 0..self.sizes[l] {
                let c = lv.children[base + s];
                if c == NO_CHILD {
                    continue;
                }
                let below = if c == TERMINAL {
                    1
                } else {
                    self.levels[l + 1].counts[c as usize]
                };
                if index < lv.offsets[base + s] + below {
                    index -= lv.offsets[base + s];
                    chosen = Some((s as u32, c));
                    break;
                }
            }
            let (s, c) = chosen.expect("index within counted range");
            tuple.push(s);
            idx = if c == TERMINAL { 0 } else { c };
        }
        tuple
    }

    /// Visits every tuple in lexicographic order, passing `(tuple, rank)`.
    pub fn for_each_tuple<F: FnMut(&[u32], u64)>(&self, mut f: F) {
        let mut scratch = vec![0u32; self.num_levels()];
        let mut rank = 0u64;
        self.walk(0, 0, &mut scratch, &mut rank, &mut f);
    }

    fn walk<F: FnMut(&[u32], u64)>(
        &self,
        level: usize,
        node: u32,
        scratch: &mut Vec<u32>,
        rank: &mut u64,
        f: &mut F,
    ) {
        let last = level == self.num_levels() - 1;
        let lv = &self.levels[level];
        let base = node as usize * lv.size;
        for s in 0..self.sizes[level] {
            let c = lv.children[base + s];
            if c == NO_CHILD {
                continue;
            }
            scratch[level] = s as u32;
            if last {
                f(scratch, *rank);
                *rank += 1;
            } else {
                self.walk(level + 1, c, scratch, rank, f);
            }
        }
    }

    /// Collects all tuples (small sets / tests only).
    pub fn tuples(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::with_capacity(self.total as usize);
        self.for_each_tuple(|t, _| out.push(t.to_vec()));
        out
    }

    /// Approximate memory footprint in bytes: the size of the level
    /// slabs, the same whether they are owned or borrowed from a mapped
    /// artifact.
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.children.byte_len() + l.offsets.byte_len() + l.counts.byte_len())
            .sum()
    }

    /// `true` when any level borrows its slabs from a mapped artifact.
    pub fn is_mapped(&self) -> bool {
        self.levels.iter().any(|l| l.children.is_mapped())
    }

    /// Serializes the MDD into arena image sections: tag
    /// [`TAG_SIZES`] holds the level sizes, level `l` owns tags
    /// `16 + 4l` (children, `u32`), `16 + 4l + 1` (offsets, `u64`) and
    /// `16 + 4l + 2` (counts, `u64`).
    pub fn write_image(&self, w: &mut ImageWriter) {
        let sizes: Vec<u64> = self.sizes.iter().map(|&s| s as u64).collect();
        w.put_u64(TAG_SIZES, &sizes);
        for (l, level) in self.levels.iter().enumerate() {
            let base = level_tag(l);
            w.put_u32(base, &level.children);
            w.put_u64(base + 1, &level.offsets);
            w.put_u64(base + 2, &level.counts);
        }
    }

    /// Rebuilds an MDD from arena image sections written by
    /// [`Mdd::write_image`]. With [`SlabSource::Mapped`] the level slabs
    /// borrow the mapped region zero-copy (falling back to copies on
    /// non-little-endian or misaligned layouts).
    ///
    /// Everything is re-validated by a linear scan, so a corrupt image is
    /// an error here rather than a panic far from the cause: every child
    /// reference, and the count/offset labelling, which must equal the
    /// one recomputed from the children bottom-up.
    ///
    /// # Errors
    ///
    /// * [`MddError::Image`] on missing/mistyped sections, inconsistent
    ///   section lengths, or a labelling that disagrees with the children;
    /// * [`MddError::InvalidShape`] if the sizes are empty or zero, or the
    ///   root level does not hold exactly one node;
    /// * [`MddError::InvalidChild`] for a slot holding the terminal above
    ///   the last level or an out-of-range node index.
    pub fn read_image(view: &ImageView<'_>, source: SlabSource<'_>) -> Result<Mdd, MddError> {
        let img = |e: mdl_arena::ArenaError| MddError::Image(e.to_string());
        let sizes_u64 = view.vec_u64(TAG_SIZES).map_err(img)?;
        if sizes_u64.is_empty() || sizes_u64.iter().any(|&s| s == 0 || s > u32::MAX as u64) {
            return Err(MddError::InvalidShape);
        }
        let sizes: Vec<usize> = sizes_u64.iter().map(|&s| s as usize).collect();
        let num_levels = sizes.len();
        let mut levels = Vec::with_capacity(num_levels);
        for (l, &size) in sizes.iter().enumerate() {
            let base = level_tag(l);
            let children = view.slab_u32(base, source).map_err(img)?;
            let offsets = view.slab_u64(base + 1, source).map_err(img)?;
            let counts = view.slab_u64(base + 2, source).map_err(img)?;
            if children.len() % size != 0
                || offsets.len() != children.len()
                || counts.len() != children.len() / size
            {
                return Err(MddError::Image(format!(
                    "level {l}: slab lengths inconsistent ({} children, {} offsets, {} counts, size {size})",
                    children.len(),
                    offsets.len(),
                    counts.len()
                )));
            }
            if l == 0 && counts.len() != 1 {
                return Err(MddError::InvalidShape);
            }
            levels.push(MddLevel {
                size,
                children,
                offsets,
                counts,
            });
        }
        for level in 0..num_levels {
            let last = level == num_levels - 1;
            let size = sizes[level];
            let next_count = if last {
                0
            } else {
                levels[level + 1].num_nodes()
            };
            for (flat, &c) in levels[level].children.iter().enumerate() {
                let ok = c == NO_CHILD
                    || (last && c == TERMINAL)
                    || (!last && c != TERMINAL && (c as usize) < next_count);
                if !ok {
                    return Err(MddError::InvalidChild {
                        level,
                        node: flat / size,
                        slot: flat % size,
                    });
                }
            }
        }
        check_labels(&levels)?;
        let total = levels[0].counts[0];
        Ok(Mdd {
            sizes,
            levels,
            total,
        })
    }
}

/// Checks that the count/offset labelling of `levels` equals the one
/// [`relabel`] would compute from the children tables, bottom-up.
/// Child references must already be validated.
fn check_labels(levels: &[MddLevel]) -> Result<(), MddError> {
    for (l, lv) in levels.iter().enumerate().rev() {
        let lower_counts = levels.get(l + 1).map(|lower| &lower.counts[..]);
        for node in 0..lv.num_nodes() {
            let (children, offsets) = (lv.children_of(node), lv.offsets_of(node));
            let mut acc = 0u64;
            for (s, (&c, &offset)) in children.iter().zip(offsets).enumerate() {
                if offset != acc {
                    return Err(MddError::Image(format!(
                        "level {l}: node {node} offset {s} is {offset}, the children give {acc}"
                    )));
                }
                let below = match c {
                    NO_CHILD => 0,
                    TERMINAL => 1,
                    c => lower_counts.map_or(0, |counts| counts[c as usize]),
                };
                acc = acc.checked_add(below).ok_or_else(|| {
                    MddError::Image(format!("level {l}: node {node} count overflows u64"))
                })?;
            }
            if lv.counts[node] != acc {
                return Err(MddError::Image(format!(
                    "level {l}: node {node} count is {}, the children give {acc}",
                    lv.counts[node]
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross_product() -> Mdd {
        Mdd::from_tuples(
            vec![2, 2, 2],
            (0..8)
                .map(|i| vec![(i >> 2) & 1, (i >> 1) & 1, i & 1])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn full_product_is_one_node_per_level() {
        let m = cross_product();
        assert_eq!(m.count(), 8);
        assert_eq!(m.nodes_per_level(), vec![1, 1, 1]);
    }

    #[test]
    fn index_of_is_lexicographic_rank() {
        let m = cross_product();
        for i in 0..8u64 {
            let t = vec![((i >> 2) & 1) as u32, ((i >> 1) & 1) as u32, (i & 1) as u32];
            assert_eq!(m.index_of(&t), Some(i));
            assert_eq!(m.tuple_at(i), t);
        }
    }

    #[test]
    fn sparse_set_indexing_skips_absent() {
        let m = Mdd::from_tuples(vec![3, 3], vec![vec![0, 1], vec![2, 0], vec![2, 2]]).unwrap();
        assert_eq!(m.count(), 3);
        assert_eq!(m.index_of(&[0, 1]), Some(0));
        assert_eq!(m.index_of(&[2, 0]), Some(1));
        assert_eq!(m.index_of(&[2, 2]), Some(2));
        assert_eq!(m.index_of(&[1, 1]), None);
        assert_eq!(m.tuple_at(1), vec![2, 0]);
    }

    #[test]
    fn for_each_tuple_visits_in_order() {
        let m = Mdd::from_tuples(vec![2, 2], vec![vec![1, 0], vec![0, 1]]).unwrap();
        let mut seen = Vec::new();
        m.for_each_tuple(|t, r| seen.push((t.to_vec(), r)));
        assert_eq!(seen, vec![(vec![0, 1], 0), (vec![1, 0], 1)]);
    }

    #[test]
    fn empty_set_supported() {
        let m = Mdd::from_tuples(vec![2, 2], vec![]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
        assert!(!m.contains(&[0, 0]));
        assert_eq!(m.index_of(&[1, 1]), None);
    }

    #[test]
    fn malformed_tuples_error() {
        let m = Mdd::from_tuples(vec![2, 2], vec![vec![0, 0]]).unwrap();
        assert!(matches!(
            m.try_contains(&[0]),
            Err(MddError::WrongArity { .. })
        ));
        assert!(matches!(
            m.try_contains(&[0, 5]),
            Err(MddError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn sharing_collapses_identical_suffix_sets() {
        // Rows 0 and 1 admit the same column set {0, 2}: one shared node.
        let m = Mdd::from_tuples(
            vec![3, 3],
            vec![vec![0, 0], vec![0, 2], vec![1, 0], vec![1, 2], vec![2, 1]],
        )
        .unwrap();
        assert_eq!(m.nodes_per_level(), vec![1, 2]);
    }

    #[test]
    fn memory_accounting_positive() {
        assert!(cross_product().memory_bytes() > 0);
    }

    #[test]
    fn duplicates_collapse() {
        let m = Mdd::from_tuples(vec![2, 2], vec![vec![0, 0], vec![0, 0]]).unwrap();
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn node_ref_exposes_slab_rows() {
        let m = Mdd::from_tuples(vec![3, 3], vec![vec![0, 1], vec![2, 0], vec![2, 2]]).unwrap();
        let root = m.node_ref(m.root());
        assert_eq!(root.id(), m.root());
        assert_eq!(root.count(), 3);
        assert_eq!(root.children().len(), 3);
        assert!(root.is_present(0) && !root.is_present(1) && root.is_present(2));
        assert_eq!(root.offsets(), &[0, 1, 1]);
    }

    #[test]
    fn image_round_trip_preserves_everything() {
        let m = Mdd::from_tuples(
            vec![3, 2, 4],
            (0..24u32)
                .filter(|i| i % 3 != 1)
                .map(|i| vec![i % 3, (i / 4) % 2, i % 4])
                .collect(),
        )
        .unwrap();
        let mut w = ImageWriter::new();
        m.write_image(&mut w);
        let payload = w.finish();
        let view = ImageView::parse(&payload).unwrap();
        let back = Mdd::read_image(&view, SlabSource::Copy).unwrap();
        assert_eq!(back.sizes(), m.sizes());
        assert_eq!(back.count(), m.count());
        assert_eq!(back.tuples(), m.tuples());
        // An untampered re-emit is the same image, so the rejections
        // below are down to their edits alone.
        assert_eq!(
            read_tampered(&m, |_, _, _, _| {}).unwrap().tuples(),
            m.tuples()
        );
        for l in 0..m.num_levels() {
            assert_eq!(back.raw_level_children(l), m.raw_level_children(l));
            assert_eq!(&back.levels[l].offsets[..], &m.levels[l].offsets[..]);
            assert_eq!(&back.levels[l].counts[..], &m.levels[l].counts[..]);
        }
    }

    /// Re-emits the image of `m` with `edit` applied to each level's
    /// `(children, offsets, counts)` arrays, and reads it back.
    fn read_tampered(
        m: &Mdd,
        edit: impl Fn(usize, &mut Vec<u32>, &mut Vec<u64>, &mut Vec<u64>),
    ) -> Result<Mdd, MddError> {
        let mut w = ImageWriter::new();
        let sizes: Vec<u64> = m.sizes().iter().map(|&s| s as u64).collect();
        w.put_u64(TAG_SIZES, &sizes);
        for (l, level) in m.levels.iter().enumerate() {
            let mut children = level.children.to_vec();
            let mut offsets = level.offsets.to_vec();
            let mut counts = level.counts.to_vec();
            edit(l, &mut children, &mut offsets, &mut counts);
            let base = level_tag(l);
            w.put_u32(base, &children);
            w.put_u64(base + 1, &offsets);
            w.put_u64(base + 2, &counts);
        }
        let payload = w.finish();
        Mdd::read_image(&ImageView::parse(&payload).unwrap(), SlabSource::Copy)
    }

    /// The full 2 × 2 product: one node per level, root offsets `[0, 2]`.
    fn full_2x2() -> Mdd {
        Mdd::from_tuples(
            vec![2, 2],
            vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]],
        )
        .unwrap()
    }

    #[test]
    fn image_with_corrupt_child_is_rejected() {
        let m = Mdd::from_tuples(vec![2, 2], vec![vec![0, 0], vec![1, 1]]).unwrap();
        let bad = read_tampered(&m, |l, children, _, _| {
            if l == 0 {
                children[0] = 7; // points past level 1's nodes
            }
        });
        assert!(
            matches!(
                bad,
                Err(MddError::InvalidChild {
                    level: 0,
                    node: 0,
                    slot: 0
                })
            ),
            "{bad:?}"
        );
    }

    #[test]
    fn image_with_wrong_offsets_is_rejected() {
        // Root offsets [0, 3] instead of [0, 2] would rank a tuple past the
        // end of the set (and send `tuple_at` off the counted range).
        let m = full_2x2();
        let bad = read_tampered(&m, |l, _, offsets, _| {
            if l == 0 {
                assert_eq!(offsets, &[0, 2]);
                offsets[1] = 3;
            }
        });
        assert!(matches!(bad, Err(MddError::Image(_))), "{bad:?}");
    }

    #[test]
    fn image_with_wrong_counts_is_rejected() {
        let m = full_2x2();
        for level in 0..2 {
            let bad = read_tampered(&m, |l, _, _, counts| {
                if l == level {
                    counts[0] += 1;
                }
            });
            assert!(
                matches!(bad, Err(MddError::Image(_))),
                "level {level}: {bad:?}"
            );
        }
    }
}
