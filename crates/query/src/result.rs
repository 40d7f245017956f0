//! Query result types.

use crate::interval::IntervalSet;
use crate::stats::QueryStats;
use fuzzy_core::ObjectId;
use std::fmt;

/// Knowledge about a neighbour's α-distance.
///
/// The lazy-probe optimization (§3.3) can *confirm* an object belongs to
/// the top-k without ever retrieving it — in that case only a bound
/// interval is known. Result sets are order-insensitive per Definition 4,
/// so this is faithful to the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DistBound {
    /// The object was probed; the distance is exact.
    Exact(f64),
    /// Confirmed via bounds without probing.
    Bounded {
        /// Lower bound `d⁻_α`.
        lo: f64,
        /// Upper bound `d⁺_α`.
        hi: f64,
    },
}

impl DistBound {
    /// The lower end of the knowledge interval.
    pub fn lo(&self) -> f64 {
        match *self {
            DistBound::Exact(d) => d,
            DistBound::Bounded { lo, .. } => lo,
        }
    }

    /// The upper end of the knowledge interval.
    pub fn hi(&self) -> f64 {
        match *self {
            DistBound::Exact(d) => d,
            DistBound::Bounded { hi, .. } => hi,
        }
    }
}

/// One AKNN neighbour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The object.
    pub id: ObjectId,
    /// What is known about its α-distance.
    pub dist: DistBound,
}

impl fmt::Display for Neighbor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dist {
            DistBound::Exact(d) => write!(f, "{} @ {d:.6}", self.id),
            DistBound::Bounded { lo, hi } => write!(f, "{} @ [{lo:.6}, {hi:.6}]", self.id),
        }
    }
}

/// Result of an AKNN query.
#[derive(Clone, Debug)]
pub struct AknnResult {
    /// The k nearest objects (confirmation order; ties broken by id).
    pub neighbors: Vec<Neighbor>,
    /// Execution costs.
    pub stats: QueryStats,
}

impl AknnResult {
    /// Ids of the neighbours.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.neighbors.iter().map(|n| n.id).collect()
    }
}

/// One RKNN answer item: an object and its qualifying range `I_A`.
#[derive(Clone, Debug, PartialEq)]
pub struct RknnItem {
    /// The object.
    pub id: ObjectId,
    /// The sub-ranges of the query range on which the object belongs to
    /// the kNN set.
    pub range: IntervalSet,
}

impl fmt::Display for RknnItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.id, self.range)
    }
}

/// Result of an RKNN query.
#[derive(Clone, Debug)]
pub struct RknnResult {
    /// Answer items, sorted by object id (deterministic for comparison).
    pub items: Vec<RknnItem>,
    /// Execution costs.
    pub stats: QueryStats,
}

impl RknnResult {
    /// Look up the qualifying range of an object.
    pub fn range_of(&self, id: ObjectId) -> Option<&IntervalSet> {
        self.items.iter().find(|i| i.id == id).map(|i| &i.range)
    }

    /// Compare answer sets up to endpoint tolerance (test helper).
    pub fn approx_eq(&self, other: &RknnResult, tol: f64) -> bool {
        self.items.len() == other.items.len()
            && self
                .items
                .iter()
                .zip(&other.items)
                .all(|(a, b)| a.id == b.id && a.range.approx_eq(&b.range, tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    #[test]
    fn dist_bound_accessors() {
        assert_eq!(DistBound::Exact(2.0).lo(), 2.0);
        assert_eq!(DistBound::Exact(2.0).hi(), 2.0);
        let b = DistBound::Bounded { lo: 1.0, hi: 3.0 };
        assert_eq!(b.lo(), 1.0);
        assert_eq!(b.hi(), 3.0);
    }

    #[test]
    fn display_forms() {
        let n = Neighbor { id: ObjectId(3), dist: DistBound::Exact(1.25) };
        assert_eq!(n.to_string(), "#3 @ 1.250000");
        let item = RknnItem {
            id: ObjectId(7),
            range: IntervalSet::from_interval(Interval::closed(0.3, 0.6)),
        };
        assert_eq!(item.to_string(), "⟨#7, [0.3, 0.6]⟩");
    }

    #[test]
    fn range_lookup() {
        let r = RknnResult {
            items: vec![RknnItem {
                id: ObjectId(1),
                range: IntervalSet::from_interval(Interval::closed(0.2, 0.4)),
            }],
            stats: QueryStats::default(),
        };
        assert!(r.range_of(ObjectId(1)).is_some());
        assert!(r.range_of(ObjectId(2)).is_none());
    }
}
