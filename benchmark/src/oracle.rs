//! A brute-force reference that shares no code with the program: plain
//! all-pairs α-distance over raw rows, with rectangle arithmetic of its own
//! to stop the scan early.
//!
//! The exact k nearest objects at threshold α are found by visiting every
//! object in ascending order of the distance between its support rectangle
//! and the query's (a lower bound on the α-distance at any α, since every
//! α-cut lies inside the support) and stopping once that bound exceeds the
//! k-th best exact distance found. Nothing the index or the kernels compute
//! is trusted.

use crate::sut::{Answer, RawQuery, Row, Store};

type Rows = [([f64; 2], f64)];

/// Squared α-distance: the closest pair among the points whose membership
/// reaches `alpha` on both sides. `None` when either cut is empty.
pub fn alpha_distance_sq(a: &Rows, b: &Rows, alpha: f64) -> Option<f64> {
    let mut best: Option<f64> = None;
    for (p, _) in a.iter().filter(|(_, mu)| *mu >= alpha) {
        for (r, _) in b.iter().filter(|(_, nu)| *nu >= alpha) {
            let (dx, dy) = (p[0] - r[0], p[1] - r[1]);
            let d = dx * dx + dy * dy;
            if best.is_none_or(|m| d < m) {
                best = Some(d);
            }
        }
    }
    best
}

fn bounding_box(rows: &Rows) -> ([f64; 2], [f64; 2]) {
    let mut lo = [f64::INFINITY; 2];
    let mut hi = [f64::NEG_INFINITY; 2];
    for (p, _) in rows {
        for d in 0..2 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (lo, hi)
}

fn box_gap_sq(a: &([f64; 2], [f64; 2]), b: &([f64; 2], [f64; 2])) -> f64 {
    (0..2)
        .map(|d| {
            let gap = (a.0[d] - b.1[d]).max(b.0[d] - a.1[d]).max(0.0);
            gap * gap
        })
        .sum()
}

/// Objects ordered by the rectangle lower bound to one query: built once
/// per query, scanned once per threshold.
pub struct Scan<'a> {
    store: &'a Store,
    query: &'a RawQuery,
    /// `(lower bound², id)`, ascending.
    order: Vec<(f64, u64)>,
}

impl<'a> Scan<'a> {
    pub fn new(store: &'a Store, boxes: &[(u64, [f64; 2], [f64; 2])], query: &'a RawQuery) -> Self {
        let qbox = bounding_box(&query.rows);
        let mut order: Vec<(f64, u64)> =
            boxes.iter().map(|(id, lo, hi)| (box_gap_sq(&(*lo, *hi), &qbox), *id)).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Self { store, query, order }
    }

    /// The exact `k` nearest among objects `< limit`, as `(distance, id)`
    /// ascending; `is_live` hides deleted objects.
    pub fn knn(
        &self,
        k: usize,
        alpha: f64,
        is_live: impl Fn(u64) -> bool,
    ) -> Result<Vec<(f64, u64)>, String> {
        let mut best: Vec<(f64, u64)> = Vec::with_capacity(k + 1);
        for &(bound_sq, id) in &self.order {
            if best.len() == k && bound_sq > best[k - 1].0 {
                break;
            }
            if !is_live(id) {
                continue;
            }
            let rows = self.store.rows(id)?;
            if let Some(d_sq) = alpha_distance_sq(&rows, &self.query.rows, alpha) {
                best.push((d_sq, id));
                best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                best.truncate(k);
            }
        }
        Ok(best.into_iter().map(|(d_sq, id)| (d_sq.sqrt(), id)).collect())
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Check one AKNN answer: the same id set as the reference, and every
/// reported distance (or bound interval) consistent with the exact one.
pub fn check_aknn(answer: &Answer, reference: &[(f64, u64)]) -> Result<(), String> {
    let mut got: Vec<u64> = answer.rows.iter().map(Row::id).collect();
    let mut want: Vec<u64> = reference.iter().map(|(_, id)| *id).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("neighbour ids {got:?}, brute force says {want:?}"));
    }
    for row in &answer.rows {
        let Row::Neighbor { id, lo, hi } = row else {
            return Err("AKNN answer holds a ranged row".into());
        };
        let exact = reference.iter().find(|(_, rid)| rid == id).expect("id sets match").0;
        let inside = (*lo <= exact || close(*lo, exact)) && (exact <= *hi || close(*hi, exact));
        if !inside {
            return Err(format!("object {id}: reported [{lo}, {hi}], brute force says {exact}"));
        }
    }
    Ok(())
}

/// Check one RKNN answer at one threshold: the objects whose reported
/// range contains `alpha` must be exactly the reference's k nearest there.
pub fn check_rknn_at(answer: &Answer, alpha: f64, reference: &[(f64, u64)]) -> Result<(), String> {
    let mut got = Vec::new();
    for row in &answer.rows {
        let Row::Ranged { id, intervals } = row else {
            return Err("RKNN answer holds a neighbour row".into());
        };
        let inside = intervals.iter().any(|&(lo, lo_closed, hi, hi_closed)| {
            (alpha > lo || (lo_closed && alpha == lo)) && (alpha < hi || (hi_closed && alpha == hi))
        });
        if inside {
            got.push(*id);
        }
    }
    let mut want: Vec<u64> = reference.iter().map(|(_, id)| *id).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("at α = {alpha}: ranges select {got:?}, brute force says {want:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_distance_uses_only_points_inside_both_cuts() {
        let a = [([0.0, 0.0], 1.0), ([5.0, 0.0], 0.4)];
        let b = [([9.0, 0.0], 1.0), ([6.0, 0.0], 0.3)];
        assert_eq!(alpha_distance_sq(&a, &b, 0.3), Some(1.0));
        assert_eq!(alpha_distance_sq(&a, &b, 0.4), Some(16.0));
        assert_eq!(alpha_distance_sq(&a, &b, 0.5), Some(81.0));
        assert_eq!(alpha_distance_sq(&a[1..], &b, 0.5), None);
    }

    #[test]
    fn box_gap_is_zero_on_overlap_and_euclidean_across_corners() {
        let a = ([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(box_gap_sq(&a, &([0.5, 0.5], [2.0, 2.0])), 0.0);
        assert_eq!(box_gap_sq(&a, &([4.0, 5.0], [6.0, 6.0])), 9.0 + 16.0);
        assert_eq!(box_gap_sq(&([4.0, 5.0], [6.0, 6.0]), &a), 9.0 + 16.0);
    }
}
