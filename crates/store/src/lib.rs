//! `hcl-store`: the compressed on-disk index container (`HCLSTOR1`) and
//! zero-copy memory-mapped serving for highway cover labellings.
//!
//! The in-memory pipeline builds an index once and keeps it resident; this
//! crate makes one serving *generation* a single immutable file:
//!
//! * [`pack`] / [`save_packed`] serialise a labelling plus its sparsified
//!   view into a versioned, checksummed container (`docs/FORMAT.md`) whose
//!   labels are the in-memory layout itself — one rank byte and one
//!   distance byte per entry, half the label bytes of the plain
//!   `HCLIDX01` serialisation;
//! * [`IndexView`] memory-maps that file and implements
//!   [`hcl_core::LabelStorage`] + [`hcl_core::SparseNeighbors`] directly
//!   over the mapped bytes, so the Lemma 5.1 merge and the bounded
//!   bidirectional search run with **no deserialisation** — the label
//!   lanes and the `u32` sections (the degree-ordered search view
//!   included, stored as the packer built it) are served as slices over
//!   the mapping, so open is map + validate;
//! * [`PackedOracle`] is [`hcl_core::Oracle`] over an [`IndexView`]: the
//!   same query front door, written once, that serves the in-memory
//!   [`hcl_core::SharedOracle`], so the server can swap a generation by
//!   *remapping* a file instead of rebuilding arrays.
//!
//! All loader failures are typed [`StoreError`]s — a truncated, bit-flipped
//! or version-skewed file is an `Err`, never a panic.

pub mod checksum;
pub mod format;
pub mod sys;

mod deploy;
mod view;

pub use deploy::write_packed_deployment;
pub use format::{is_packed_path, pack, plain_index_bytes, save_packed, PACKED_EXTENSION};
pub use sys::Mmap;
pub use view::IndexView;

/// The distance oracle over a packed index file: [`hcl_core::Oracle`]
/// over a validated [`IndexView`]. `PackedOracle::open(path)` maps and
/// validates the file, [`Oracle::from_view`](hcl_core::Oracle::from_view)
/// wraps a view already open, and [`Oracle::view`](hcl_core::Oracle::view)
/// hands it back.
pub type PackedOracle = hcl_core::Oracle<IndexView>;

/// Errors opening, validating, or writing a packed index.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem or mapping operation failed.
    Io(std::io::Error),
    /// The file does not start with the `HCLSTOR1` magic.
    BadMagic,
    /// The container version is not the one this build reads — newer, or
    /// a retired v1 or v2 (re-run `hcl pack`; a `.hclx` is derived state).
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
    },
    /// The file ends before the structure it declares.
    Truncated {
        /// Bytes the declared structure requires.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Structural or checksum validation failed — the file is damaged or
    /// was not produced by a correct writer.
    Corrupt(String),
    /// The inputs to `pack` cannot be represented in the format.
    Invalid(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a packed index (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "packed index version {found} unsupported (this build reads {})",
                    format::VERSION
                )
            }
            StoreError::Truncated { needed, actual } => {
                write!(f, "packed index truncated: needs {needed} bytes, file has {actual}")
            }
            StoreError::Corrupt(why) => write!(f, "packed index corrupt: {why}"),
            StoreError::Invalid(why) => write!(f, "cannot pack index: {why}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
