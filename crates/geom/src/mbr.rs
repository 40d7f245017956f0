//! Minimum bounding rectangles and the MinDist / MaxDist metrics.
#![allow(clippy::needless_range_loop)] // paired per-dimension loops read clearer
//!
//! `MinDist` is Equation (1) of the paper and `MaxDist` Equation (3); they
//! lower- respectively upper-bound the α-distance between any two point sets
//! enclosed by the rectangles.

use crate::point::Point;
use std::fmt;

/// An axis-aligned minimum bounding rectangle (hyper-rectangle) in `D`
/// dimensions, stored as per-dimension lower and upper bounds
/// `(M^{1−}, M^{1+}, …, M^{d−}, M^{d+})` in the paper's notation.
#[derive(Clone, Copy, PartialEq)]
pub struct Mbr<const D: usize> {
    lo: [f64; D],
    hi: [f64; D],
}

impl<const D: usize> Mbr<D> {
    /// Construct from explicit bounds. Panics in debug builds if any
    /// `lo[i] > hi[i]` — an inverted rectangle is always a logic error.
    #[inline]
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        debug_assert!((0..D).all(|i| lo[i] <= hi[i]), "inverted MBR: {lo:?} > {hi:?}");
        Self { lo, hi }
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    fn from_point(p: &Point<D>) -> Self {
        Self { lo: *p.coords(), hi: *p.coords() }
    }

    /// Tightest rectangle enclosing all `points`; `None` when empty.
    pub fn from_points<'a, I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Point<D>>,
    {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut mbr = Self::from_point(first);
        for p in it {
            mbr.expand_point(p);
        }
        Some(mbr)
    }

    /// An "empty" rectangle that acts as the identity of [`Mbr::union`];
    /// useful as a fold seed. Never returned by queries.
    #[inline]
    pub fn empty() -> Self {
        Self { lo: [f64::INFINITY; D], hi: [f64::NEG_INFINITY; D] }
    }

    /// True for the [`Mbr::empty`] sentinel.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.lo[i] > self.hi[i])
    }

    /// Lower bound of dimension `i` (`M^{i−}`).
    #[inline]
    pub fn lo(&self, i: usize) -> f64 {
        self.lo[i]
    }

    /// Upper bound of dimension `i` (`M^{i+}`).
    #[inline]
    pub fn hi(&self, i: usize) -> f64 {
        self.hi[i]
    }

    /// All lower bounds.
    #[inline]
    pub fn lo_coords(&self) -> &[f64; D] {
        &self.lo
    }

    /// All upper bounds.
    #[inline]
    pub fn hi_coords(&self) -> &[f64; D] {
        &self.hi
    }

    /// Grow (in place) to cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: &Point<D>) {
        for i in 0..D {
            let c = p.coords()[i];
            if c < self.lo[i] {
                self.lo[i] = c;
            }
            if c > self.hi[i] {
                self.hi[i] = c;
            }
        }
    }

    /// Grow (in place) to cover `other`.
    #[inline]
    pub fn expand_mbr(&mut self, other: &Self) {
        for i in 0..D {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// Smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        out.expand_mbr(other);
        out
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = self.lo[i].max(other.lo[i]);
            hi[i] = self.hi[i].min(other.hi[i]);
            if lo[i] > hi[i] {
                return None;
            }
        }
        Some(Self { lo, hi })
    }

    /// True when `other` lies entirely inside `self` (boundaries allowed).
    #[inline]
    pub fn contains_mbr(&self, other: &Self) -> bool {
        (0..D).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// Geometric center.
    #[inline]
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = 0.5 * (self.lo[i] + self.hi[i]);
        }
        Point::new(c)
    }

    /// Side length along dimension `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        (self.hi[i] - self.lo[i]).max(0.0)
    }

    /// `D`-dimensional volume (area in 2-d).
    #[inline]
    pub fn area(&self) -> f64 {
        (0..D).map(|i| self.extent(i)).product()
    }

    /// Squared `MinDist` (Eq. 1): the squared smallest distance between any
    /// point of `self` and any point of `other`. Zero when they intersect.
    #[inline]
    pub fn min_dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            // l_i of Eq. (1): the gap between the projections, if any.
            let l = if self.lo[i] > other.hi[i] {
                self.lo[i] - other.hi[i]
            } else if other.lo[i] > self.hi[i] {
                other.lo[i] - self.hi[i]
            } else {
                0.0
            };
            acc += l * l;
        }
        acc
    }

    /// Squared `MaxDist` (Eq. 3): the squared largest distance between any
    /// point of `self` and any point of `other`.
    #[inline]
    pub fn max_dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let l = (self.hi[i] - other.lo[i]).abs().max((self.lo[i] - other.hi[i]).abs());
            acc += l * l;
        }
        acc
    }

    /// `MinDist` from a single point (zero when inside).
    #[inline]
    pub fn min_dist_point(&self, p: &Point<D>) -> f64 {
        p.dist_sq_to_box(&self.lo, &self.hi).sqrt()
    }

    /// Rectangle grown by `pad` on every side (negative `pad` shrinks but is
    /// clamped so the rectangle never inverts).
    pub fn inflate(&self, pad: f64) -> Self {
        let mut lo = self.lo;
        let mut hi = self.hi;
        for i in 0..D {
            let c = 0.5 * (lo[i] + hi[i]);
            lo[i] = (lo[i] - pad).min(c);
            hi[i] = (hi[i] + pad).max(c);
        }
        Self { lo, hi }
    }
}

impl<const D: usize> fmt::Debug for Mbr<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mbr[")?;
        for i in 0..D {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{}..{}", self.lo[i], self.hi[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Mbr<2> {
        Mbr::new([0.0, 0.0], [1.0, 1.0])
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [Point::xy(1.0, 5.0), Point::xy(-2.0, 3.0), Point::xy(0.0, 7.0)];
        let m = Mbr::from_points(pts.iter()).unwrap();
        assert_eq!(m.lo(0), -2.0);
        assert_eq!(m.hi(0), 1.0);
        assert_eq!(m.lo(1), 3.0);
        assert_eq!(m.hi(1), 7.0);
    }

    #[test]
    fn from_points_empty_is_none() {
        let m: Option<Mbr<2>> = Mbr::from_points(std::iter::empty());
        assert!(m.is_none());
    }

    #[test]
    fn empty_is_union_identity() {
        let m = unit();
        assert_eq!(Mbr::empty().union(&m), m);
        assert!(Mbr::<2>::empty().is_empty());
        assert!(!m.is_empty());
    }

    #[test]
    fn min_dist_disjoint_boxes() {
        let a = unit();
        let b = Mbr::new([4.0, 5.0], [6.0, 7.0]);
        // Gap is 3 in x, 4 in y -> distance 5.
        assert_eq!(a.min_dist_sq(&b), 25.0);
        assert_eq!(b.min_dist_sq(&a), 25.0);
    }

    #[test]
    fn min_dist_overlapping_is_zero() {
        let a = unit();
        let b = Mbr::new([0.5, 0.5], [2.0, 2.0]);
        assert_eq!(a.min_dist_sq(&b), 0.0);
    }

    #[test]
    fn min_dist_axis_gap_only() {
        let a = unit();
        let b = Mbr::new([3.0, 0.0], [4.0, 1.0]);
        assert_eq!(a.min_dist_sq(&b), 4.0);
    }

    #[test]
    fn max_dist_corners() {
        let a = unit();
        let b = Mbr::new([2.0, 0.0], [3.0, 1.0]);
        // Farthest corner pair: (0,0)-(3,1) or (0,1)-(3,0): 9 + 1.
        assert_eq!(a.max_dist_sq(&b), 10.0);
    }

    #[test]
    fn max_dist_of_box_with_itself() {
        let a = unit();
        // Diagonal of the unit square.
        assert_eq!(a.max_dist_sq(&a), 2.0);
    }

    #[test]
    fn point_distances() {
        let a = unit();
        let inside = Point::xy(0.5, 0.5);
        assert_eq!(a.min_dist_point(&inside), 0.0);
        let out = Point::xy(2.0, 1.0);
        assert_eq!(a.min_dist_point(&out), 1.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = unit();
        let b = Mbr::new([0.25, 0.25], [0.75, 0.75]);
        assert!(a.contains_mbr(&b));
        assert!(!b.contains_mbr(&a));
        assert_eq!(a.intersection(&b).unwrap(), b);
        let c = Mbr::new([5.0, 5.0], [6.0, 6.0]);
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn area_intersection_and_enlargement() {
        let a = unit();
        assert_eq!(a.area(), 1.0);
        let b = Mbr::new([0.5, 0.0], [1.5, 1.0]);
        assert_eq!(a.intersection(&b).unwrap().area(), 0.5);
        // Union is [0,1.5]x[0,1] = 1.5, so enlarging `a` to cover `b` adds 0.5.
        assert_eq!(a.union(&b).area() - a.area(), 0.5);
    }

    #[test]
    fn inflate_grows_every_side() {
        let a = unit().inflate(0.5);
        assert_eq!(a.lo(0), -0.5);
        assert_eq!(a.hi(1), 1.5);
        // Shrinking past the center clamps instead of inverting.
        let tiny = unit().inflate(-10.0);
        assert!(!tiny.is_empty());
        assert!(tiny.extent(0) <= 1.0);
    }

    #[test]
    fn min_max_dist_bound_actual_point_distances() {
        // Deterministic grid check: for all pairs of sample points inside two
        // boxes, MinDist² <= ||a-b||² <= MaxDist².
        let a = Mbr::new([0.0, 0.0], [2.0, 1.0]);
        let b = Mbr::new([3.0, -1.0], [5.0, 0.5]);
        let samples = |m: &Mbr<2>| {
            let mut v = Vec::new();
            for i in 0..=4 {
                for j in 0..=4 {
                    v.push(Point::xy(
                        m.lo(0) + m.extent(0) * i as f64 / 4.0,
                        m.lo(1) + m.extent(1) * j as f64 / 4.0,
                    ));
                }
            }
            v
        };
        let (mn, mx) = (a.min_dist_sq(&b), a.max_dist_sq(&b));
        for p in samples(&a) {
            for q in samples(&b) {
                let d = p.dist_sq(&q);
                assert!(d >= mn - 1e-12, "{d} < MinDist {mn}");
                assert!(d <= mx + 1e-12, "{d} > MaxDist {mx}");
            }
        }
    }
}
