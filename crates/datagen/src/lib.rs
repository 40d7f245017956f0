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

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use fuzzy_store::{FileStore, FileStoreWriter, StoreError};
use std::path::Path;

/// A generated object with its memberships divided by the largest, then
/// clamped to 1 (the division can round a quotient past it): the paper's
/// "normalize the probability values across 0 to 1" step (§6.1), which
/// also gives every object a non-empty kernel.
fn normalized(id: ObjectId, points: Vec<Point<2>>, mut memberships: Vec<f64>) -> FuzzyObject<2> {
    let max = memberships.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max > 0.0 && max.is_finite() {
        for mu in &mut memberships {
            *mu /= max;
        }
        for mu in &mut memberships {
            if *mu > 1.0 {
                *mu = 1.0;
            }
        }
    }
    FuzzyObject::new(id, points, memberships).expect("generator produces valid objects")
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_gives_a_unit_kernel() {
        let points = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 0.0), Point::xy(0.0, 1.0)];
        let obj = normalized(ObjectId(1), points, vec![0.8, 0.4, 0.2]);
        assert_eq!(obj.memberships()[0], 1.0);
        assert!((obj.memberships()[1] - 0.5).abs() < 1e-12);
        assert_eq!(obj.kernel_mbr().area(), 0.0);
    }
}
