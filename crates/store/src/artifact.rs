//! The container format and the [`Artifact`] trait.
//!
//! Every serialized artifact is one self-describing container:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MDLS"
//! 4       2     format version (little-endian u16)
//! 6       2     artifact kind tag (little-endian u16)
//! 8       8     payload length in bytes (little-endian u64)
//! 16      n     payload (artifact-specific, little-endian throughout)
//! 16+n    8     FNV-1a 64-bit hash of the payload (little-endian u64)
//! ```
//!
//! All integers are little-endian and `f64`s travel as IEEE-754 bit
//! patterns, so files written on any machine decode bit-exactly on any
//! other. Decoding validates magic, version, kind, length and checksum
//! before touching the payload, and the payload decoder itself is
//! bounds-checked — malformed input of any shape yields a
//! [`StoreError`], never a panic.

use crate::bytes::{ByteReader, ByteWriter};
use crate::hash::Fnv1a;
use crate::StoreError;

/// The four magic bytes every artifact starts with.
pub const MAGIC: [u8; 4] = *b"MDLS";

/// Current format version. Bump on any payload layout change; decoders
/// reject anything newer than what they were built against.
pub const FORMAT_VERSION: u16 = 1;

pub(crate) const HEADER_LEN: usize = 4 + 2 + 2 + 8;
pub(crate) const TRAILER_LEN: usize = 8;

/// The payload codec of one artifact kind: how its bytes are written,
/// read back, and checked for structural sanity. Implement this — and
/// only this — per kind; the container logic (header, checksum, frame
/// validation) lives on [`Artifact`], which every `Codec` gets for free
/// through a blanket impl.
pub trait Codec: Sized {
    /// Kind tag distinguishing this artifact in the container header.
    /// Tags below 100 are reserved for this crate's impls; downstream
    /// crates (e.g. `mdl-core` pipeline artifacts) use 100 and up.
    const KIND: u16;

    /// Short lower-case name, used in store filenames and messages.
    const NAME: &'static str;

    /// File extension of stored containers of this kind. `"mdls"` for
    /// ordinary decode-on-load artifacts; arena-image kinds use
    /// `"mdlm"`, which the store treats as *mappable* — their sidecar
    /// lock/temp files get distinct names (`.maplock`, `.new.<pid>.<n>`)
    /// so debris sweeping and mapping-safety rules can tell them apart.
    const EXTENSION: &'static str = "mdls";

    /// Writes the payload (everything but the container frame).
    fn encode(&self, w: &mut ByteWriter);

    /// Reads the payload. Implementations must validate what they read
    /// (the container only guarantees the bytes are the ones written).
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError>;
}

/// The container layer over a [`Codec`]: serialization into and out of
/// the versioned, checksummed frame documented in the [module
/// docs](self). Blanket-implemented for every `Codec`; do not implement
/// directly.
pub trait Artifact: Codec {
    /// Serializes into a complete container.
    fn to_bytes(&self) -> Vec<u8> {
        let mut pw = ByteWriter::new();
        self.encode(&mut pw);
        let payload = pw.into_bytes();
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u16(FORMAT_VERSION);
        w.u16(Self::KIND);
        w.usize(payload.len());
        w.bytes(&payload);
        w.u64(Fnv1a::hash_bytes(&payload));
        w.into_bytes()
    }

    /// The FNV-1a hash of this artifact's payload — its content address.
    fn content_hash(&self) -> u64 {
        let mut pw = ByteWriter::new();
        self.encode(&mut pw);
        Fnv1a::hash_bytes(&pw.into_bytes())
    }

    /// Deserializes a complete container, validating frame and payload.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]; see the [module docs](self) for the checks.
    fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(validate_frame(bytes, Self::KIND)?);
        let artifact = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(artifact)
    }
}

impl<T: Codec> Artifact for T {}

/// Validates the container frame of `bytes` without decoding the
/// payload: magic, version, kind, length accounting and the FNV-1a
/// payload checksum. Returns the payload slice on success.
///
/// Both read paths start here: [`Artifact::from_bytes`] decodes the
/// payload it returns, and [`crate::Store::map`] frame-checks a mapped
/// file once per file version, then borrows its payload in place.
///
/// # Errors
///
/// The same frame-level [`StoreError`]s as [`Artifact::from_bytes`].
pub fn validate_frame(bytes: &[u8], kind: u16) -> Result<&[u8], StoreError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16()?;
    if version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // Version 0 never existed; rejecting it means *every* single-byte
    // corruption of the frame is detectable (a flipped version byte
    // cannot masquerade as an older, laxer format).
    if version == 0 {
        return Err(StoreError::corrupted("format version 0 is invalid"));
    }
    let found = r.u16()?;
    if found != kind {
        return Err(StoreError::WrongKind {
            found,
            expected: kind,
        });
    }
    let payload_len = r.usize()?;
    let available = r.remaining();
    match available.checked_sub(TRAILER_LEN) {
        Some(have) if have == payload_len => {}
        Some(have) if have > payload_len => {
            return Err(StoreError::corrupted(
                "container longer than header + payload + checksum",
            ))
        }
        _ => {
            return Err(StoreError::Truncated {
                needed: payload_len.saturating_add(TRAILER_LEN),
                available,
            })
        }
    }
    let payload = r.bytes(payload_len)?;
    let stored = r.u64()?;
    if Fnv1a::hash_bytes(payload) != stored {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Sanity: the fixed frame overhead of every container, in bytes.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + TRAILER_LEN;
