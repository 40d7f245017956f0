//! Store-level errors.

use fuzzy_core::{ModelError, ObjectId};
use std::fmt;
use std::io;

/// Errors raised by object stores.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// File structure violated (bad magic, truncated section, checksum
    /// mismatch, ...).
    Corrupt {
        /// Human-readable description of the corruption.
        reason: String,
    },
    /// The file was written for a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The file stores objects of a different dimensionality.
    DimensionMismatch {
        /// Dimensionality found in the file.
        found: u16,
        /// Dimensionality requested by the caller.
        expected: u16,
    },
    /// No object with this id exists.
    UnknownObject(ObjectId),
    /// A stored record decoded into an invalid fuzzy object.
    Model(ModelError),
    /// An object with this id was already written.
    DuplicateObject(ObjectId),
    /// An encoded node does not fit in one page of a paged file.
    PageOverflow {
        /// Bytes the node needs.
        needed: u64,
        /// Configured page size.
        page_size: u32,
    },
    /// A paged tree was asked for nodes of fewer than two entries: a level
    /// of one-entry nodes never packs into a root.
    FanoutTooSmall {
        /// The node capacity asked for.
        max_entries: usize,
    },
    /// A file operation (a sidecar save or reload, a compaction) was asked
    /// of an index held as an in-memory image, which has no file.
    NoFile,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Corrupt { reason } => write!(f, "corrupt store: {reason}"),
            Self::VersionMismatch { found, expected } => {
                write!(f, "format version {found}, expected {expected}")
            }
            Self::DimensionMismatch { found, expected } => {
                write!(f, "stored dimensionality {found}, expected {expected}")
            }
            Self::UnknownObject(id) => write!(f, "unknown object {id}"),
            Self::Model(e) => write!(f, "invalid stored object: {e}"),
            Self::DuplicateObject(id) => write!(f, "duplicate object {id}"),
            Self::PageOverflow { needed, page_size } => {
                write!(f, "node needs {needed} bytes but pages hold {page_size}")
            }
            Self::FanoutTooSmall { max_entries } => {
                write!(f, "node capacity {max_entries} is below the minimum of 2")
            }
            Self::NoFile => write!(f, "an in-memory index has no file to read or write"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}
