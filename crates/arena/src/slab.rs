//! [`Slab<T>`]: owned-or-mapped contiguous typed storage.

use std::ops::Deref;
use std::sync::Arc;

use crate::Mapping;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
    impl Sealed for super::Interval {}
}

/// A closed interval `[lo, hi]` of doubles — the 16-byte plain-old-data
/// element type behind interval-weighted slabs. The arena crate only
/// defines the storage layout (two consecutive `f64`s); the
/// outward-rounded arithmetic lives in `mdl-linalg`'s `Weight`
/// machinery.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// The degenerate point interval `[v, v]`.
    pub fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Whether the interval is a single point (`lo == hi` bitwise-safe
    /// comparison is unnecessary: equal values suffice for width zero).
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl Pod for Interval {
    const WIDTH: usize = 16;

    fn write_le(values: &[Self], out: &mut Vec<u8>) {
        out.reserve(values.len() * 16);
        for v in values {
            out.extend_from_slice(&v.lo.to_le_bytes());
            out.extend_from_slice(&v.hi.to_le_bytes());
        }
    }

    fn read_le(bytes: &[u8]) -> Vec<Self> {
        debug_assert_eq!(bytes.len() % 16, 0);
        bytes
            .chunks_exact(16)
            .map(|c| Interval {
                lo: f64::from_le_bytes(c[..8].try_into().expect("exact chunk")),
                hi: f64::from_le_bytes(c[8..].try_into().expect("exact chunk")),
            })
            .collect()
    }
}

/// Plain-old-data element types a [`Slab`] can hold: fixed-width numeric
/// types whose little-endian byte image is their storage format. Sealed —
/// exactly `u32`, `u64`, `f64` and [`Interval`].
pub trait Pod: sealed::Sealed + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Element width in bytes.
    const WIDTH: usize;

    /// Appends the slice's little-endian byte image to `out`.
    fn write_le(values: &[Self], out: &mut Vec<u8>);

    /// Decodes a little-endian byte image (length a multiple of
    /// [`Pod::WIDTH`]) into owned values.
    fn read_le(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! impl_pod {
    ($t:ty, $w:expr) => {
        impl Pod for $t {
            const WIDTH: usize = $w;

            fn write_le(values: &[Self], out: &mut Vec<u8>) {
                if cfg!(target_endian = "little") {
                    // One memcpy: the native image is the wire image.
                    out.reserve(values.len() * $w);
                    for v in values {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                } else {
                    for v in values {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }

            fn read_le(bytes: &[u8]) -> Vec<Self> {
                debug_assert_eq!(bytes.len() % $w, 0);
                bytes
                    .chunks_exact($w)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("exact chunk")))
                    .collect()
            }
        }
    };
}

impl_pod!(u32, 4);
impl_pod!(u64, 8);
impl_pod!(f64, 8);

/// Contiguous typed storage that is either owned or a zero-copy view
/// into a shared read-only [`Mapping`]. Derefs to `&[T]` either way, so
/// consumers index it exactly like a `Vec<T>`.
pub struct Slab<T: Pod>(Repr<T>);

enum Repr<T: Pod> {
    Owned(Vec<T>),
    Mapped {
        /// Keeps the region alive for as long as the view exists.
        region: Arc<Mapping>,
        ptr: *const T,
        len: usize,
    },
}

// SAFETY: the mapped variant points into an immutable `MAP_SHARED`
// read-only region owned (shared) via the Arc; see `Mapping`'s
// `Send`/`Sync` justification.
unsafe impl<T: Pod> Send for Slab<T> {}
unsafe impl<T: Pod> Sync for Slab<T> {}

impl<T: Pod> Slab<T> {
    /// An empty owned slab.
    pub fn new() -> Self {
        Slab(Repr::Owned(Vec::new()))
    }

    /// Wraps a byte range of `region` as a typed view **without
    /// copying**.
    ///
    /// `bytes` must be a subslice of `region.bytes()` (checked), with a
    /// length that is a multiple of the element width (checked) and a
    /// properly aligned start (checked). Only meaningful on little-endian
    /// targets — callers gate on endianness and fall back to
    /// [`Slab::from`] + [`Pod::read_le`] otherwise.
    ///
    /// Returns `None` when any check fails; this is a fallback signal,
    /// not an error.
    pub fn from_mapped(region: &Arc<Mapping>, bytes: &[u8]) -> Option<Self> {
        if !cfg!(target_endian = "little") {
            return None;
        }
        let region_range = region.bytes().as_ptr_range();
        let range = bytes.as_ptr_range();
        let contained = range.start >= region_range.start && range.end <= region_range.end;
        if !contained || bytes.len() % T::WIDTH != 0 {
            return None;
        }
        let ptr = bytes.as_ptr();
        if (ptr as usize) % std::mem::align_of::<T>() != 0 {
            return None;
        }
        Some(Slab(Repr::Mapped {
            region: Arc::clone(region),
            ptr: ptr.cast::<T>(),
            len: bytes.len() / T::WIDTH,
        }))
    }

    /// Whether the slab borrows a mapping (as opposed to owning a `Vec`).
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, Repr::Mapped { .. })
    }

    /// The contents as an owned `Vec`, copying only if mapped.
    pub fn into_vec(self) -> Vec<T> {
        match self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped { .. } => self.as_slice().to_vec(),
        }
    }

    /// The contents as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Owned(v) => v.as_slice(),
            Repr::Mapped { ptr, len, .. } => {
                // SAFETY: constructed only by `from_mapped`, which checked
                // containment, alignment and width; the region is alive
                // via the Arc.
                #[allow(unsafe_code)]
                unsafe {
                    std::slice::from_raw_parts(*ptr, *len)
                }
            }
        }
    }

    /// Size of the contents in bytes (length × element width), the same
    /// whether the slab is owned or mapped.
    pub fn byte_len(&self) -> usize {
        self.len() * T::WIDTH
    }
}

impl<T: Pod> Deref for Slab<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Slab<T> {
    fn from(v: Vec<T>) -> Self {
        Slab(Repr::Owned(v))
    }
}

impl<T: Pod> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T: Pod> Clone for Slab<T> {
    fn clone(&self) -> Self {
        match &self.0 {
            Repr::Owned(v) => Slab(Repr::Owned(v.clone())),
            Repr::Mapped { region, ptr, len } => Slab(Repr::Mapped {
                region: Arc::clone(region),
                ptr: *ptr,
                len: *len,
            }),
        }
    }
}

impl<T: Pod> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("mapped", &self.is_mapped())
            .field("len", &self.len())
            .finish()
    }
}

impl<T: Pod> PartialEq for Slab<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_slab_behaves_like_a_vec() {
        let s: Slab<u32> = vec![1, 2, 3].into();
        assert_eq!(&s[..], &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_mapped());
        assert_eq!(s.byte_len(), 12);
        let t = s.clone();
        assert_eq!(s, t);
        assert_eq!(t.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn interval_pod_round_trips_le_and_maps() {
        assert_eq!(std::mem::size_of::<Interval>(), 16);
        assert_eq!(std::mem::align_of::<Interval>(), 8);
        let vals = [
            Interval { lo: 1.5, hi: 2.5 },
            Interval::point(-0.0),
            Interval {
                lo: f64::MIN_POSITIVE,
                hi: f64::MAX,
            },
        ];
        let mut bytes = Vec::new();
        Interval::write_le(&vals, &mut bytes);
        assert_eq!(bytes.len(), 48);
        let back = Interval::read_le(&bytes);
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.lo.to_bits(), b.lo.to_bits());
            assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        }
        assert!(Interval::point(3.0).is_point());
        assert_eq!(Interval { lo: 1.0, hi: 4.0 }.width(), 3.0);
    }

    #[test]
    fn pod_round_trips_le() {
        let vals = [1.5f64, -0.0, f64::MIN_POSITIVE];
        let mut bytes = Vec::new();
        f64::write_le(&vals, &mut bytes);
        assert_eq!(bytes.len(), 24);
        let back = f64::read_le(&bytes);
        assert_eq!(back.len(), 3);
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[cfg(unix)]
    #[test]
    fn mapped_slab_views_file_bytes() {
        let path = std::env::temp_dir().join(format!("mdl-arena-slab-{}", std::process::id()));
        let mut bytes = Vec::new();
        u64::write_le(&[7, 8, 9], &mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let region = Arc::new(Mapping::open(&path).unwrap());
        let slab = Slab::<u64>::from_mapped(&region, region.bytes()).unwrap();
        assert!(slab.is_mapped());
        assert_eq!(&slab[..], &[7, 8, 9]);
        assert_eq!(slab.byte_len(), 24);
        // A clone shares the region; dropping the original keeps it valid.
        let keep = slab.clone();
        drop(slab);
        drop(region);
        assert_eq!(&keep[..], &[7, 8, 9]);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn from_mapped_rejects_foreign_and_misaligned_slices() {
        let path = std::env::temp_dir().join(format!("mdl-arena-slab2-{}", std::process::id()));
        std::fs::write(&path, vec![0u8; 32]).unwrap();
        let region = Arc::new(Mapping::open(&path).unwrap());
        let foreign = vec![0u8; 16];
        assert!(Slab::<u32>::from_mapped(&region, &foreign).is_none());
        // Length not a multiple of the width.
        assert!(Slab::<u64>::from_mapped(&region, &region.bytes()[..12]).is_none());
        // Misaligned start (mappings are page-aligned, +1 is odd).
        assert!(Slab::<u32>::from_mapped(&region, &region.bytes()[1..17]).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
