//! The fixed-endian section format carried inside arena artifacts.
//!
//! An image is a flat byte payload laid out as:
//!
//! ```text
//! u64  section_count                     (little-endian, like all of it)
//! per section: u64 tag_and_elem          (tag in low 32 bits, elem in high 32)
//!              u64 count                 (element count, not bytes)
//!              u64 offset                (byte offset of the body, 8-aligned)
//! ... 8-aligned section bodies ...
//! ```
//!
//! Bodies are the little-endian element images back to back; because every
//! body starts 8-aligned and elements are 4 or 8 bytes wide, a
//! little-endian reader whose payload itself sits at an 8-aligned address
//! (the store guarantees this) can borrow each body in place as a typed
//! slice. Everything else copy-decodes.

use std::sync::Arc;

use crate::slab::{Pod, Slab};
use crate::{ArenaError, Mapping};

/// Element kind of a section, as recorded in the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionElem {
    /// 4-byte unsigned integers.
    U32,
    /// 8-byte unsigned integers.
    U64,
    /// 8-byte IEEE-754 doubles.
    F64,
}

impl SectionElem {
    fn code(self) -> u32 {
        match self {
            SectionElem::U32 => 0,
            SectionElem::U64 => 1,
            SectionElem::F64 => 2,
        }
    }

    fn from_code(code: u32) -> Option<SectionElem> {
        match code {
            0 => Some(SectionElem::U32),
            1 => Some(SectionElem::U64),
            2 => Some(SectionElem::F64),
            _ => None,
        }
    }

    fn width(self) -> usize {
        match self {
            SectionElem::U32 => 4,
            SectionElem::U64 | SectionElem::F64 => 8,
        }
    }
}

/// How to materialize a section when reading an image.
#[derive(Clone, Copy)]
pub enum SlabSource<'a> {
    /// Copy the section bytes into an owned slab.
    Copy,
    /// Borrow the section in place from the given mapping when possible
    /// (little-endian target, aligned, contained); silently falls back to
    /// copying otherwise.
    Mapped(&'a Arc<Mapping>),
}

/// Accumulates typed sections and assembles the image payload.
#[derive(Default)]
pub struct ImageWriter {
    sections: Vec<(u32, SectionElem, u64, Vec<u8>)>,
}

impl ImageWriter {
    /// An empty writer.
    pub fn new() -> ImageWriter {
        ImageWriter::default()
    }

    /// Appends a `u32` section under `tag`.
    pub fn put_u32(&mut self, tag: u32, values: &[u32]) {
        self.put(tag, SectionElem::U32, values);
    }

    /// Appends a `u64` section under `tag`.
    pub fn put_u64(&mut self, tag: u32, values: &[u64]) {
        self.put(tag, SectionElem::U64, values);
    }

    /// Appends an `f64` section under `tag`.
    pub fn put_f64(&mut self, tag: u32, values: &[f64]) {
        self.put(tag, SectionElem::F64, values);
    }

    fn put<T: Pod>(&mut self, tag: u32, elem: SectionElem, values: &[T]) {
        debug_assert!(
            !self.sections.iter().any(|(t, ..)| *t == tag),
            "duplicate section tag {tag}"
        );
        let mut bytes = Vec::with_capacity(values.len() * T::WIDTH);
        T::write_le(values, &mut bytes);
        self.sections.push((tag, elem, values.len() as u64, bytes));
    }

    /// Assembles the payload: directory first, then 8-aligned bodies.
    pub fn finish(self) -> Vec<u8> {
        let dir_len = 8 + self.sections.len() * 24;
        let mut out = Vec::with_capacity(dir_len);
        out.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        let mut offset = dir_len;
        for (tag, elem, count, bytes) in &self.sections {
            offset = (offset + 7) & !7;
            let tag_elem = u64::from(*tag) | (u64::from(elem.code()) << 32);
            out.extend_from_slice(&tag_elem.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            offset += bytes.len();
        }
        for (.., bytes) in &self.sections {
            while out.len() % 8 != 0 {
                out.push(0);
            }
            out.extend_from_slice(bytes);
        }
        out
    }
}

struct Section {
    tag: u32,
    elem: SectionElem,
    start: usize,
    len_bytes: usize,
}

/// A parsed, bounds-checked view over an image payload.
///
/// Borrows the payload bytes; section accessors produce [`Slab`]s that
/// either copy out of the payload or (when the payload lives inside a
/// [`Mapping`] and the caller passes [`SlabSource::Mapped`]) borrow it in
/// place.
pub struct ImageView<'a> {
    payload: &'a [u8],
    sections: Vec<Section>,
}

impl<'a> ImageView<'a> {
    /// Parses and validates the section directory of `payload`.
    ///
    /// # Errors
    ///
    /// [`ArenaError::Layout`] when the directory is truncated, a section
    /// overruns the payload, overlaps the directory, is misaligned, or
    /// declares an unknown element kind.
    pub fn parse(payload: &'a [u8]) -> Result<ImageView<'a>, ArenaError> {
        let err = |detail: String| ArenaError::Layout(detail);
        if payload.len() < 8 {
            return Err(err("payload shorter than the section count".into()));
        }
        let count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let count = usize::try_from(count).map_err(|_| err("section count overflow".into()))?;
        let dir_len = 8usize
            .checked_add(
                count
                    .checked_mul(24)
                    .ok_or_else(|| err("directory overflow".into()))?,
            )
            .ok_or_else(|| err("directory overflow".into()))?;
        if payload.len() < dir_len {
            return Err(err(format!(
                "directory of {count} sections needs {dir_len} bytes, payload has {}",
                payload.len()
            )));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let base = 8 + i * 24;
            let word = |j: usize| {
                u64::from_le_bytes(
                    payload[base + 8 * j..base + 8 * (j + 1)]
                        .try_into()
                        .expect("8 bytes"),
                )
            };
            let tag_elem = word(0);
            let tag = tag_elem as u32;
            let elem = SectionElem::from_code((tag_elem >> 32) as u32).ok_or_else(|| {
                err(format!(
                    "section {tag}: unknown element code {}",
                    tag_elem >> 32
                ))
            })?;
            let n = usize::try_from(word(1))
                .map_err(|_| err(format!("section {tag}: count overflow")))?;
            let start = usize::try_from(word(2))
                .map_err(|_| err(format!("section {tag}: offset overflow")))?;
            let len_bytes = n
                .checked_mul(elem.width())
                .ok_or_else(|| err(format!("section {tag}: byte length overflow")))?;
            let end = start
                .checked_add(len_bytes)
                .ok_or_else(|| err(format!("section {tag}: extent overflow")))?;
            if start < dir_len {
                return Err(err(format!("section {tag}: body overlaps the directory")));
            }
            if start % 8 != 0 {
                return Err(err(format!("section {tag}: body not 8-aligned")));
            }
            if end > payload.len() {
                return Err(err(format!(
                    "section {tag}: extends to byte {end}, payload has {}",
                    payload.len()
                )));
            }
            if sections.iter().any(|s: &Section| s.tag == tag) {
                return Err(err(format!("duplicate section tag {tag}")));
            }
            sections.push(Section {
                tag,
                elem,
                start,
                len_bytes,
            });
        }
        Ok(ImageView { payload, sections })
    }

    /// Whether a section with `tag` exists.
    pub fn has(&self, tag: u32) -> bool {
        self.sections.iter().any(|s| s.tag == tag)
    }

    fn section(&self, tag: u32, expected: SectionElem) -> Result<&[u8], ArenaError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.tag == tag)
            .ok_or(ArenaError::MissingSection(tag))?;
        if s.elem != expected {
            return Err(ArenaError::WrongElem {
                tag,
                found: s.elem,
                expected,
            });
        }
        Ok(&self.payload[s.start..s.start + s.len_bytes])
    }

    fn slab<T: Pod>(
        &self,
        tag: u32,
        elem: SectionElem,
        source: SlabSource<'_>,
    ) -> Result<Slab<T>, ArenaError> {
        let bytes = self.section(tag, elem)?;
        if let SlabSource::Mapped(region) = source {
            if let Some(slab) = Slab::from_mapped(region, bytes) {
                return Ok(slab);
            }
        }
        Ok(Slab::from(T::read_le(bytes)))
    }

    /// Materializes a `u32` section as a slab.
    ///
    /// # Errors
    ///
    /// [`ArenaError::MissingSection`] / [`ArenaError::WrongElem`].
    pub fn slab_u32(&self, tag: u32, source: SlabSource<'_>) -> Result<Slab<u32>, ArenaError> {
        self.slab(tag, SectionElem::U32, source)
    }

    /// Materializes a `u64` section as a slab.
    ///
    /// # Errors
    ///
    /// [`ArenaError::MissingSection`] / [`ArenaError::WrongElem`].
    pub fn slab_u64(&self, tag: u32, source: SlabSource<'_>) -> Result<Slab<u64>, ArenaError> {
        self.slab(tag, SectionElem::U64, source)
    }

    /// Materializes an `f64` section as a slab.
    ///
    /// # Errors
    ///
    /// [`ArenaError::MissingSection`] / [`ArenaError::WrongElem`].
    pub fn slab_f64(&self, tag: u32, source: SlabSource<'_>) -> Result<Slab<f64>, ArenaError> {
        self.slab(tag, SectionElem::F64, source)
    }

    /// Copies out a small `u64` section as a plain `Vec` (meta sections).
    ///
    /// # Errors
    ///
    /// [`ArenaError::MissingSection`] / [`ArenaError::WrongElem`].
    pub fn vec_u64(&self, tag: u32) -> Result<Vec<u64>, ArenaError> {
        Ok(u64::read_le(self.section(tag, SectionElem::U64)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_sections() {
        let mut w = ImageWriter::new();
        w.put_u64(0, &[3, 1, 4]);
        w.put_u32(16, &[10, 20, 30, 40, 50]);
        w.put_f64(17, &[0.5, -2.25]);
        let payload = w.finish();

        let view = ImageView::parse(&payload).unwrap();
        assert!(view.has(0) && view.has(16) && view.has(17));
        assert!(!view.has(99));
        assert_eq!(view.vec_u64(0).unwrap(), vec![3, 1, 4]);
        assert_eq!(
            &view.slab_u32(16, SlabSource::Copy).unwrap()[..],
            &[10, 20, 30, 40, 50]
        );
        assert_eq!(
            &view.slab_f64(17, SlabSource::Copy).unwrap()[..],
            &[0.5, -2.25]
        );
    }

    #[test]
    fn empty_image_and_empty_sections_parse() {
        let payload = ImageWriter::new().finish();
        let view = ImageView::parse(&payload).unwrap();
        assert!(!view.has(0));

        let mut w = ImageWriter::new();
        w.put_u32(1, &[]);
        w.put_f64(2, &[]);
        let payload = w.finish();
        let view = ImageView::parse(&payload).unwrap();
        assert!(view.slab_u32(1, SlabSource::Copy).unwrap().is_empty());
        assert!(view.slab_f64(2, SlabSource::Copy).unwrap().is_empty());
    }

    #[test]
    fn wrong_elem_and_missing_section_error() {
        let mut w = ImageWriter::new();
        w.put_u32(5, &[1]);
        let payload = w.finish();
        let view = ImageView::parse(&payload).unwrap();
        assert!(matches!(
            view.slab_f64(5, SlabSource::Copy),
            Err(ArenaError::WrongElem { tag: 5, .. })
        ));
        assert!(matches!(
            view.slab_u32(6, SlabSource::Copy),
            Err(ArenaError::MissingSection(6))
        ));
    }

    #[test]
    fn rejects_malformed_directories() {
        // Too short for the count word.
        assert!(ImageView::parse(&[0u8; 4]).is_err());
        // Claims one section but has no directory entry.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes());
        assert!(ImageView::parse(&p).is_err());
        // Valid image, then truncate a body byte.
        let mut w = ImageWriter::new();
        w.put_u64(0, &[1, 2]);
        let payload = w.finish();
        assert!(ImageView::parse(&payload[..payload.len() - 1]).is_err());
        // Corrupt the element code.
        let mut bad = payload.clone();
        bad[8 + 4] = 0x7f;
        assert!(ImageView::parse(&bad).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn mapped_source_borrows_in_place() {
        use std::sync::Arc;

        let mut w = ImageWriter::new();
        w.put_u32(1, &[11, 22, 33]);
        w.put_f64(2, &[1.0, 2.0, 3.0, 4.0]);
        let payload = w.finish();
        let path = std::env::temp_dir().join(format!("mdl-arena-image-{}", std::process::id()));
        std::fs::write(&path, &payload).unwrap();
        let region = Arc::new(Mapping::open(&path).unwrap());
        let view = ImageView::parse(region.bytes()).unwrap();
        let s1 = view.slab_u32(1, SlabSource::Mapped(&region)).unwrap();
        let s2 = view.slab_f64(2, SlabSource::Mapped(&region)).unwrap();
        assert!(s1.is_mapped() && s2.is_mapped());
        assert_eq!(&s1[..], &[11, 22, 33]);
        assert_eq!(&s2[..], &[1.0, 2.0, 3.0, 4.0]);
        drop(view);
        drop(region);
        // Slabs keep the mapping alive on their own.
        assert_eq!(&s1[..], &[11, 22, 33]);
        let _ = std::fs::remove_file(&path);
    }
}
