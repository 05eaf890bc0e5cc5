//! `mdl-store` — versioned, checksummed binary serialization and an
//! on-disk content-addressed artifact store for the mdlump pipeline.
//!
//! The paper this repository reproduces (Derisavi, Kemper & Sanders,
//! DSN 2005) argues that the lumped matrix diagram is a *reusable
//! artifact*: compositional lumping is paid once, then many MRP measures
//! are answered against the small quotient. This crate makes that reuse
//! literal. Every intermediate the pipeline produces — reachable-set
//! MDDs, matrix diagrams, compiled kernels, partitions, dense vectors,
//! solver solutions, run reports, solver checkpoints — has a canonical
//! binary encoding ([`Artifact`]) inside a self-describing container
//! (magic `MDLS`, format version, kind tag, payload length, FNV-1a
//! payload hash; see [`artifact`]), and the [`Store`] persists them in a
//! directory keyed by 64-bit content hashes. MDDs, matrix diagrams and
//! compiled kernels persist only as arena images ([`image`]), which
//! [`Store::map`] opens zero-copy.
//!
//! Design rules:
//!
//! * **Zero dependencies** beyond the workspace's own leaf crates — the
//!   build environment is offline, and a storage format should not churn
//!   with serde versions anyway.
//! * **Fixed endianness** (little) and `f64`s as IEEE-754 bit patterns:
//!   encode∘decode is bit-exact identity, on any machine.
//! * **Never panic on input**: truncated, corrupted, or future-versioned
//!   bytes decode to a structured [`StoreError`]. Payload decoders feed
//!   each type's validating constructor, so a file that *parses* but
//!   describes an impossible structure is rejected too.
//! * **Content-addressed**: callers derive keys by hashing stage inputs
//!   with [`Fnv1a`]; the store never guesses at freshness — a key either
//!   exists or it does not, and invalidation is simply a different key.
//!
//! ```
//! use mdl_store::{Artifact, Store};
//!
//! let dir = std::env::temp_dir().join(format!("mdl-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir)?;
//! let pi: Vec<f64> = vec![0.25, 0.75];
//! store.save(0xfeed, &pi)?;
//! assert_eq!(store.load::<Vec<f64>>(0xfeed)?, Some(pi));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), mdl_store::StoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod bytes;
mod codecs;
mod disk;
mod error;
mod hash;
pub mod image;

pub use artifact::{validate_frame, Artifact, Codec, FORMAT_VERSION, FRAME_OVERHEAD, MAGIC};
pub use bytes::{ByteReader, ByteWriter};
pub use codecs::Checkpoint;
pub use disk::Store;
pub use error::StoreError;
pub use hash::Fnv1a;
pub use image::{KernelImage, MappedArtifact, MdImage, MddImage};
