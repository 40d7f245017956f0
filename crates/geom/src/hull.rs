//! The *upper convex hull* Definition 6 builds on (Andrew's monotone
//! chain, ref. \[3\] of the paper).

use crate::point::Point;

/// Upper convex hull (UCH) of a point cloud, left to right.
///
/// This is the structure Definition 6 builds the optimal conservative line
/// on: the returned chain starts at the leftmost point, ends at the
/// rightmost, and consecutive segments turn right (slopes are monotonically
/// non-increasing). Every input point lies on or below the chain.
///
/// Points sharing an x coordinate are collapsed to the one with the largest
/// y (only the topmost can be on the upper hull).
pub fn upper_hull_2d(points: &[Point<2>]) -> Vec<Point<2>> {
    if points.is_empty() {
        return Vec::new();
    }
    let mut pts: Vec<Point<2>> = points.to_vec();
    // Sort by x asc then y desc so the first of each x-group is the topmost.
    pts.sort_by(|a, b| a.x().total_cmp(&b.x()).then_with(|| b.y().total_cmp(&a.y())));
    pts.dedup_by(|next, kept| next.x() == kept.x());

    let mut hull: Vec<Point<2>> = Vec::with_capacity(pts.len());
    for p in &pts {
        // Keep only right turns (cross < 0); pop collinear too, so the chain
        // is minimal.
        while hull.len() >= 2
            && Point::cross(&hull[hull.len() - 2], &hull[hull.len() - 1], p) >= 0.0
        {
            hull.pop();
        }
        hull.push(*p);
    }
    hull
}

/// Evaluate the upper hull chain at abscissa `x` by linear interpolation;
/// outside the chain's x-range the nearest endpoint's y is returned.
pub fn upper_hull_eval(hull: &[Point<2>], x: f64) -> f64 {
    assert!(!hull.is_empty(), "cannot evaluate an empty hull");
    if x <= hull[0].x() {
        return hull[0].y();
    }
    if x >= hull[hull.len() - 1].x() {
        return hull[hull.len() - 1].y();
    }
    // Binary search for the segment containing x.
    let mut lo = 0;
    let mut hi = hull.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if hull[mid].x() <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (a, b) = (hull[lo], hull[hi]);
    if b.x() == a.x() {
        return a.y().max(b.y());
    }
    let t = (x - a.x()) / (b.x() - a.x());
    a.y() + t * (b.y() - a.y())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point<2> {
        Point::xy(x, y)
    }

    #[test]
    fn upper_hull_of_decreasing_staircase() {
        // A boundary-function-like decreasing curve.
        let pts = vec![p(0.0, 5.0), p(0.2, 4.0), p(0.5, 3.5), p(0.8, 1.0), p(1.0, 0.0)];
        let hull = upper_hull_2d(&pts);
        // Chain must start/end at extremes.
        assert_eq!(hull.first().unwrap().x(), 0.0);
        assert_eq!(hull.last().unwrap().x(), 1.0);
        // Slopes non-increasing (right turns).
        for w in hull.windows(3) {
            assert!(Point::cross(&w[0], &w[1], &w[2]) < 0.0);
        }
        // Every input point on or below the chain.
        for q in &pts {
            assert!(upper_hull_eval(&hull, q.x()) >= q.y() - 1e-12);
        }
    }

    #[test]
    fn upper_hull_collapses_duplicate_x() {
        let pts = vec![p(0.0, 1.0), p(0.0, 3.0), p(1.0, 0.0)];
        let hull = upper_hull_2d(&pts);
        assert_eq!(hull, vec![p(0.0, 3.0), p(1.0, 0.0)]);
    }

    #[test]
    fn upper_hull_dominates_all_points_random() {
        // Pseudo-random but deterministic point cloud.
        let mut pts = Vec::new();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            pts.push(p(next(), next()));
        }
        let hull = upper_hull_2d(&pts);
        for q in &pts {
            assert!(upper_hull_eval(&hull, q.x()) >= q.y() - 1e-9, "point {q:?} above hull");
        }
    }

    #[test]
    fn eval_outside_range_clamps() {
        let hull = vec![p(0.2, 2.0), p(0.8, 1.0)];
        assert_eq!(upper_hull_eval(&hull, 0.0), 2.0);
        assert_eq!(upper_hull_eval(&hull, 1.0), 1.0);
        assert!((upper_hull_eval(&hull, 0.5) - 1.5).abs() < 1e-12);
    }
}
