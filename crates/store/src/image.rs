//! Arena-image artifact kinds: containers whose payload **is** an
//! [`mdl_arena`] section image.
//!
//! These kinds are the only on-disk form of MDDs, matrix diagrams and
//! compiled kernels. The payload bytes are the exact slab layout the
//! in-memory types use ([`Mdd`], [`Md`], [`CompiledParts`]), so a reader
//! can either
//!
//! * **borrow in place** — [`crate::Store::map`] `mmap(2)`s the file,
//!   frame-checks it once, and hands each section to
//!   [`MappedArtifact::from_image`] with [`SlabSource::Mapped`], so the
//!   slabs are zero-copy views into the shared read-only region and
//!   concurrent workers (threads *or processes*) share one physical
//!   mapping — or
//! * **copy-decode** — [`Codec::decode`] parses the section directory
//!   and copies each section into an owned slab. `Store::map` falls back
//!   to this where mapping is unsupported; [`crate::Store::load`] always
//!   takes it.
//!
//! Both paths run the same structural validation, produce values that
//! compare equal, and compile/solve bit-identically; the mapped path
//! just skips the allocation and copy. Image artifacts use the `mdlm`
//! file extension (see [`Codec::EXTENSION`]) so their writer sidecars
//! get mapping-aware names.

use mdl_arena::{ImageView, ImageWriter, SlabSource};
use mdl_md::{CompiledParts, Md};
use mdl_mdd::Mdd;

use crate::artifact::Codec;
use crate::bytes::{ByteReader, ByteWriter};
use crate::StoreError;

/// An artifact whose payload is an arena image, reconstructible from a
/// parsed [`ImageView`] with either slab source. This is the bound
/// [`crate::Store::map`] requires: it is what makes zero-copy opens
/// possible.
pub trait MappedArtifact: Codec {
    /// Rebuilds the artifact from a parsed image, borrowing slabs from
    /// the backing mapping when `source` is [`SlabSource::Mapped`] (and
    /// silently copying when a section cannot be borrowed).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupted`] when the image is structurally invalid.
    fn from_image(view: &ImageView<'_>, source: SlabSource<'_>) -> Result<Self, StoreError>;
}

fn corrupt(e: impl std::fmt::Display) -> StoreError {
    StoreError::corrupted(e.to_string())
}

macro_rules! image_artifact {
    ($(#[$doc:meta])* $wrapper:ident($inner:ty), kind: $kind:expr, name: $name:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $wrapper(pub $inner);

        impl Codec for $wrapper {
            const KIND: u16 = $kind;
            const NAME: &'static str = $name;
            const EXTENSION: &'static str = "mdlm";

            fn encode(&self, w: &mut ByteWriter) {
                let mut iw = ImageWriter::new();
                self.0.write_image(&mut iw);
                w.bytes(&iw.finish());
            }

            fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
                let n = r.remaining();
                let bytes = r.bytes(n)?;
                let view = ImageView::parse(bytes).map_err(corrupt)?;
                Self::from_image(&view, SlabSource::Copy)
            }
        }

        impl MappedArtifact for $wrapper {
            fn from_image(
                view: &ImageView<'_>,
                source: SlabSource<'_>,
            ) -> Result<Self, StoreError> {
                <$inner>::read_image(view, source)
                    .map($wrapper)
                    .map_err(corrupt)
            }
        }

        impl From<$inner> for $wrapper {
            fn from(inner: $inner) -> Self {
                $wrapper(inner)
            }
        }

        impl $wrapper {
            /// Unwraps the inner value.
            pub fn into_inner(self) -> $inner {
                self.0
            }
        }
    };
}

image_artifact!(
    /// An MDD stored as its arena image (kind 10, `mddimg-*.mdlm`).
    MddImage(Mdd),
    kind: 10,
    name: "mddimg"
);

image_artifact!(
    /// A matrix diagram stored as its arena image (kind 11,
    /// `mdimg-*.mdlm`).
    MdImage(Md),
    kind: 11,
    name: "mdimg"
);

image_artifact!(
    /// Compiled-kernel parts stored as their arena image (kind 12,
    /// `kernelimg-*.mdlm`). The mapped open path hands the slabs to
    /// `CompiledMdMatrix::from_parts` untouched, so the expensive apply
    /// arrays are never copied — only the (small) execution plans are
    /// rebuilt per open.
    KernelImage(CompiledParts),
    kind: 12,
    name: "kernelimg"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;

    fn sample_mdd() -> Mdd {
        Mdd::from_tuples(
            vec![2, 3],
            vec![vec![0, 0], vec![0, 2], vec![1, 1], vec![1, 2]],
        )
        .unwrap()
    }

    #[test]
    fn mdd_image_round_trips_through_container() {
        let img = MddImage(sample_mdd());
        let bytes = img.to_bytes();
        let back = MddImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.0.sizes(), img.0.sizes());
        for level in 0..img.0.num_levels() {
            assert_eq!(
                back.0.raw_level_children(level),
                img.0.raw_level_children(level)
            );
        }
        assert!(!back.0.is_mapped(), "copy decode owns its slabs");
    }

    #[test]
    fn image_kinds_do_not_cross_decode() {
        let img = MddImage(sample_mdd());
        let bytes = img.to_bytes();
        assert!(matches!(
            MdImage::from_bytes(&bytes),
            Err(StoreError::WrongKind {
                found: 10,
                expected: 11
            })
        ));
    }

    #[test]
    fn corrupt_image_payload_is_rejected() {
        let img = MddImage(sample_mdd());
        let mut bytes = img.to_bytes();
        // Flip a payload byte and fix nothing: checksum catches it.
        bytes[20] ^= 0xff;
        assert!(MddImage::from_bytes(&bytes).is_err());
    }
}
