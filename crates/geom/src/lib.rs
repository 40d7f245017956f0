//! Computational-geometry substrate for the `fuzzy-knn` workspace.
//!
//! This crate is dimension-generic (`const D: usize`) and completely
//! independent of the fuzzy-object model: it provides the raw geometric
//! machinery that the paper's algorithms are built on.
//!
//! * [`Point`] and [`Mbr`] with the `MinDist` (Eq. 1) and `MaxDist` (Eq. 3)
//!   metrics used as α-distance bounds throughout the paper.
//! * [`hull`] — the *upper convex hull* (UCH) needed by Definition 6, by
//!   Andrew's monotone chain.
//! * [`conservative`] — the *optimal conservative approximation* of a
//!   boundary function (Definition 6): a line `y = m·x + t` that stays above
//!   every sample while minimising the summed squared error, found by the
//!   Achtert-style anchor bisection over the UCH.
//! * [`kdtree`] — an implicit, bulk-loaded kd-tree (the tree *is* one
//!   median-ordered flat slice; subtree = subrange) whose nodes are
//!   annotated with the maximum membership value of their subtree,
//!   answering one level-filtered, capped nearest-distance search over
//!   dim-major coordinate columns — the search the α-distance
//!   `d_α(A,B) = min_{a∈A_α, b∈B_α} ‖a−b‖` chains, one per point of the
//!   side that is not indexed.
//! * [`kernel`] — the columnar min-reduction distance kernel (unrolled
//!   multi-accumulator) and its sequential reference, bitwise-identical.

#![warn(missing_docs)]

pub mod conservative;
pub mod hull;
pub mod kdtree;
pub mod kernel;
pub mod mbr;
pub mod point;

pub use conservative::{fit_conservative_line, fit_conservative_line_exact, ConservativeLine};
pub use hull::upper_hull_2d;
pub use kdtree::{KdTree, LevelFilter};
pub use mbr::Mbr;
pub use point::Point;

/// Workspace-wide absolute tolerance used when comparing floating-point
/// geometric quantities (distances, memberships).
pub const EPS: f64 = 1e-9;

/// Compare two `f64` with the workspace tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * (1.0 + a.abs().max(b.abs()))
}
