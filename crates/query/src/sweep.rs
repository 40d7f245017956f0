//! Exact interval sweep over distance profiles.
//!
//! Given the α-distance profiles of a set of objects against the query,
//! the kNN set is piecewise constant between critical levels; sweeping the
//! elementary intervals of `[αs, αe]` yields the *exact* RKNN answer.
//! Applied to *all* objects this is Naive RKNN, the oracle the other
//! algorithms are tested against. RSS and RSS-ICR do not call it: their
//! refinement steps through critical levels in `crate::rknn`, and its unit
//! tests hold that loop to this sweep.

use crate::interval::{Interval, IntervalSet};
use crate::result::RknnItem;
use fuzzy_core::{DistanceProfile, ObjectId, Threshold};
use std::collections::HashMap;

/// A candidate with its precomputed profile.
pub struct ProfiledCandidate<'a> {
    /// Object id.
    pub id: ObjectId,
    /// Its α-distance profile against the query object.
    pub profile: &'a DistanceProfile,
}

/// Exact sweep: returns each of `candidates` that is among the `k` nearest
/// somewhere in `[alpha_start, alpha_end]`, with its qualifying range, in
/// ascending id order. Ranking is by (distance, id) among `candidates`
/// alone, so the caller passes a superset of every possible member: an
/// object left out is treated as farther than all of them at every level.
pub fn exact_sweep(
    candidates: &[ProfiledCandidate<'_>],
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
) -> Vec<RknnItem> {
    // Elementary interval boundaries: every critical level inside the
    // range, plus the range end.
    let mut events: Vec<f64> = candidates
        .iter()
        .flat_map(|c| c.profile.critical_set())
        .filter(|&l| l >= alpha_start && l < alpha_end)
        .collect();
    events.push(alpha_end);
    events.sort_by(f64::total_cmp);
    events.dedup();

    let mut acc: HashMap<ObjectId, IntervalSet> = HashMap::new();
    let mut t = Threshold::at(alpha_start);
    let mut scratch: Vec<(f64, ObjectId)> = Vec::with_capacity(candidates.len());

    for &event in &events {
        scratch.clear();
        for c in candidates {
            if let Some(d) = c.profile.value_at(t) {
                scratch.push((d, c.id));
            }
        }
        scratch.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let iv = Interval::new(t.value, !t.strict, event, true);
        for &(_, id) in scratch.iter().take(k) {
            acc.entry(id).or_default().push(iv);
        }
        t = Threshold::above(event);
    }

    let mut items: Vec<RknnItem> =
        acc.into_iter().map(|(id, range)| RknnItem { id, range }).collect();
    items.sort_by_key(|i| i.id);
    items
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fuzzy_core::{FuzzyObject, ObjectId};
    use fuzzy_geom::Point;

    /// Build the Figure 3 scenario: four objects with hand-crafted
    /// staircase distances to a point query.
    ///
    /// Distances to Q (at x=0): A constant 1; B is 2 below α=0.45 then 4
    /// above; C is 3 below 0.55 then jumps to 3.5; D constant 5.
    pub(crate) fn fig3() -> (Vec<FuzzyObject<2>>, FuzzyObject<2>) {
        let q = FuzzyObject::new(ObjectId(100), vec![Point::xy(0.0, 0.0)], vec![1.0]).unwrap();
        // Object with a near point at membership `m` and a kernel farther
        // away: d_α = near for α ≤ m, far for α > m.
        let mk = |id: u64, near: f64, far: f64, m: f64| {
            FuzzyObject::new(
                ObjectId(id),
                vec![Point::xy(far, 0.0), Point::xy(near, 0.0)],
                vec![1.0, m],
            )
            .unwrap()
        };
        let a = mk(1, 1.0, 1.0, 0.9); // constant 1
        let b = mk(2, 2.0, 4.0, 0.45);
        let c = mk(3, 3.0, 3.5, 0.55);
        let d = mk(4, 5.0, 5.0, 0.9); // constant 5
        (vec![a, b, c, d], q)
    }

    #[test]
    fn figure3_style_2nn_ranges() {
        let (objs, q) = fig3();
        let profiles: Vec<DistanceProfile> =
            objs.iter().map(|o| DistanceProfile::compute(o, &q)).collect();
        let cands: Vec<ProfiledCandidate<'_>> = objs
            .iter()
            .zip(&profiles)
            .map(|(o, p)| ProfiledCandidate { id: o.id(), profile: p })
            .collect();
        let items = exact_sweep(&cands, 2, 0.3, 0.6);
        // A qualifies everywhere; B on [0.3, 0.45]; C on (0.45, 0.6].
        assert_eq!(items.len(), 3);
        let a = &items[0];
        assert_eq!(a.id, ObjectId(1));
        assert!(a.range.approx_eq(&IntervalSet::from_interval(Interval::closed(0.3, 0.6)), 1e-12));
        let b = &items[1];
        assert_eq!(b.id, ObjectId(2));
        assert!(b.range.approx_eq(&IntervalSet::from_interval(Interval::closed(0.3, 0.45)), 1e-12));
        let c = &items[2];
        assert_eq!(c.id, ObjectId(3));
        assert!(c
            .range
            .approx_eq(&IntervalSet::from_interval(Interval::left_open(0.45, 0.6)), 1e-12));
    }

    #[test]
    fn k_larger_than_candidates_returns_everything() {
        let (objs, q) = fig3();
        let profiles: Vec<DistanceProfile> =
            objs.iter().map(|o| DistanceProfile::compute(o, &q)).collect();
        let cands: Vec<ProfiledCandidate<'_>> = objs
            .iter()
            .zip(&profiles)
            .map(|(o, p)| ProfiledCandidate { id: o.id(), profile: p })
            .collect();
        let items = exact_sweep(&cands, 10, 0.2, 0.9);
        assert_eq!(items.len(), 4);
        for item in &items {
            assert!(item
                .range
                .approx_eq(&IntervalSet::from_interval(Interval::closed(0.2, 0.9)), 1e-12));
        }
    }

    #[test]
    fn degenerate_range_single_point() {
        let (objs, q) = fig3();
        let profiles: Vec<DistanceProfile> =
            objs.iter().map(|o| DistanceProfile::compute(o, &q)).collect();
        let cands: Vec<ProfiledCandidate<'_>> = objs
            .iter()
            .zip(&profiles)
            .map(|(o, p)| ProfiledCandidate { id: o.id(), profile: p })
            .collect();
        // [0.5, 0.5]: 2NN at exactly 0.5 = {A, C} (B jumped to 4 at >0.45).
        let items = exact_sweep(&cands, 2, 0.5, 0.5);
        let ids: Vec<ObjectId> = items.iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![ObjectId(1), ObjectId(3)]);
        for item in &items {
            assert_eq!(item.range.intervals(), &[Interval::closed(0.5, 0.5)]);
        }
    }
}
