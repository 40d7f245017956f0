//! Fixed-dimension Euclidean points.
#![allow(clippy::needless_range_loop)] // index loops over [f64; D] pairs read clearer

use std::fmt;
use std::ops::{Index, IndexMut};

/// A point in `D`-dimensional Euclidean space.
///
/// The paper works in 2-d (pixel masks) but every definition is stated for
/// `R^d`; we keep the dimension as a const generic so the whole stack (MBRs,
/// kd-trees, R-tree, query processing) is dimension-agnostic.
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const D: usize> {
    coords: [f64; D],
}

impl<const D: usize> Point<D> {
    /// Create a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    #[inline]
    pub const fn origin() -> Self {
        Self { coords: [0.0; D] }
    }

    /// Coordinate array.
    #[inline]
    pub const fn coords(&self) -> &[f64; D] {
        &self.coords
    }

    /// Number of dimensions (the const generic, exposed for generic code).
    #[inline]
    pub const fn dims(&self) -> usize {
        D
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this in comparisons: it avoids the `sqrt` and preserves order.
    #[inline]
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.coords[i] - other.coords[i];
            acc += d * d;
        }
        acc
    }

    /// Euclidean distance `‖a − b‖` to `other`.
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared distance from this point to an axis-aligned box given by
    /// per-dimension `lo`/`hi` bounds (zero if the point is inside).
    #[inline]
    pub fn dist_sq_to_box(&self, lo: &[f64; D], hi: &[f64; D]) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let c = self.coords[i];
            let d = if c < lo[i] {
                lo[i] - c
            } else if c > hi[i] {
                c - hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Component-wise addition.
    #[inline]
    pub fn add(&self, other: &Self) -> Self {
        let mut coords = self.coords;
        for i in 0..D {
            coords[i] += other.coords[i];
        }
        Self { coords }
    }

    /// Component-wise subtraction (`self − other`).
    #[inline]
    pub fn sub(&self, other: &Self) -> Self {
        let mut coords = self.coords;
        for i in 0..D {
            coords[i] -= other.coords[i];
        }
        Self { coords }
    }

    /// Scale every coordinate by `s`.
    #[inline]
    pub fn scale(&self, s: f64) -> Self {
        let mut coords = self.coords;
        for c in &mut coords {
            *c *= s;
        }
        Self { coords }
    }

    /// True when every coordinate is finite (no NaN / infinity).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }

    /// Lexicographic total ordering (ties broken dimension by dimension);
    /// used to make geometric algorithms deterministic.
    pub fn lex_cmp(&self, other: &Self) -> std::cmp::Ordering {
        for i in 0..D {
            match self.coords[i].total_cmp(&other.coords[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl Point<2> {
    /// Convenience constructor for the common 2-d case.
    #[inline]
    pub const fn xy(x: f64, y: f64) -> Self {
        Self::new([x, y])
    }

    /// X coordinate.
    #[inline]
    pub const fn x(&self) -> f64 {
        self.coords[0]
    }

    /// Y coordinate.
    #[inline]
    pub const fn y(&self) -> f64 {
        self.coords[1]
    }

    /// Cross product of `(b − a) × (c − a)`; positive for a counter-clockwise
    /// turn, negative for clockwise, zero for collinear points.
    #[inline]
    pub fn cross(a: &Self, b: &Self, c: &Self) -> f64 {
        (b.x() - a.x()) * (c.y() - a.y()) - (b.y() - a.y()) * (c.x() - a.x())
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::origin()
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    #[inline]
    fn from(coords: [f64; D]) -> Self {
        Self { coords }
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl<const D: usize> fmt::Display for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_hand_computation() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point::new([1.0, -2.0, 0.5]);
        let b = Point::new([-4.0, 7.0, 2.5]);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn dist_to_box_inside_is_zero() {
        let p = Point::xy(0.5, 0.5);
        assert_eq!(p.dist_sq_to_box(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn dist_to_box_outside_corner() {
        let p = Point::xy(2.0, 2.0);
        let d2 = p.dist_sq_to_box(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((d2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dist_to_box_outside_face() {
        let p = Point::xy(0.5, 3.0);
        let d2 = p.dist_sq_to_box(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((d2 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cross_sign_encodes_turn_direction() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(1.0, 0.0);
        let ccw = Point::xy(1.0, 1.0);
        let cw = Point::xy(1.0, -1.0);
        assert!(Point::cross(&a, &b, &ccw) > 0.0);
        assert!(Point::cross(&a, &b, &cw) < 0.0);
        assert_eq!(Point::cross(&a, &b, &Point::xy(2.0, 0.0)), 0.0);
    }

    #[test]
    fn vector_ops() {
        let a = Point::xy(1.0, 2.0);
        let b = Point::xy(3.0, 5.0);
        assert_eq!(b.sub(&a), Point::xy(2.0, 3.0));
        assert_eq!(a.add(&b), Point::xy(4.0, 7.0));
        assert_eq!(a.scale(2.0), Point::xy(2.0, 4.0));
    }

    #[test]
    fn lex_cmp_orders_by_first_differing_dim() {
        let a = Point::xy(1.0, 9.0);
        let b = Point::xy(2.0, 0.0);
        assert_eq!(a.lex_cmp(&b), std::cmp::Ordering::Less);
        let c = Point::xy(1.0, 10.0);
        assert_eq!(a.lex_cmp(&c), std::cmp::Ordering::Less);
        assert_eq!(a.lex_cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn three_dimensional_points_work() {
        let a = Point::new([1.0, 2.0, 3.0]);
        let b = Point::new([1.0, 2.0, 7.0]);
        assert_eq!(a.dist(&b), 4.0);
        assert_eq!(a.dims(), 3);
    }
}
