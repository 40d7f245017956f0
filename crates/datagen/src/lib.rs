//! Dataset generators reproducing Section 6.1 of the paper.
//!
//! * [`synthetic`] — the paper's synthetic workload: each object is a
//!   circle of radius 0.5 containing 1 000 uniformly distributed points
//!   whose membership values follow a 2-d Gaussian (σ = 0.5) centred at the
//!   circle centre, normalized into `(0, 1]`; object centres are uniform in
//!   a 100 × 100 space.
//! * [`cell`] — a stand-in for the paper's real dataset (horizontal-cell
//!   microscopy masks from probabilistic segmentation, which are not
//!   publicly available): star-convex blobs with a fuzzy rim, 8-bit
//!   quantized memberships and spatially clustered placement. See
//!   DESIGN.md §4 for why this substitution preserves the evaluation's
//!   behaviour.
//!
//! All generators are deterministic given their seed.

#![warn(missing_docs)]

pub mod cell;
pub mod synthetic;

pub use cell::CellConfig;
pub use synthetic::SyntheticConfig;

use fuzzy_core::FuzzyObject;
use fuzzy_store::{FileStore, FileStoreWriter, StoreError};
use std::path::Path;

/// Stream a generated dataset into a file-backed store.
pub fn write_dataset<I, const D: usize>(
    path: impl AsRef<Path>,
    objects: I,
) -> Result<FileStore<D>, StoreError>
where
    I: IntoIterator<Item = FuzzyObject<D>>,
{
    let mut w = FileStoreWriter::create(path)?;
    for obj in objects {
        w.append(&obj)?;
    }
    w.finish()
}
