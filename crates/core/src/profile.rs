//! The α-distance profile: the full step function `α ↦ d_α(A, Q)` and the
//! critical probability set `Ω_Q(A)` (Definition 7).
//!
//! Because cuts only change composition at distinct membership values, the
//! α-distance is a left-continuous staircase, constant on intervals
//! `(ℓ_{j-1}, ℓ_j]` whose right endpoints are exactly the critical
//! probabilities — "the end points of the horizontal line segments on the
//! curve of d_α(A,Q)" (Figure 8). The RKNN algorithms (Section 4) consume
//! this structure directly.
//!
//! Computation avoids the naive `O(|A|·|Q|)` pair enumeration with a
//! **bounded** descending sweep. A merge walk over the two
//! membership-descending layouts visits the distinct levels from 1 down to
//! the minimum; each point "activates" exactly once and looks for a point
//! of the opposite object at its level or above that lies *strictly
//! closer than the running minimum* — `d_ℓ` is that minimum when level `ℓ`
//! is done. The running minimum bounds all of the work:
//!
//! * it seeds every nearest-neighbour search
//!   ([`fuzzy_geom::KdTree::nn_sq_within`]), so a search that cannot
//!   improve it prunes at the root;
//! * a point farther than it from the bounding box of the opposite side's
//!   activated points is skipped without a search;
//! * the query side `Q` (resident for a whole RKNN query) is searched
//!   through its kd-tree, but the candidate side `A` — typically decoded
//!   for this one profile — is scanned as a contiguous prefix of its
//!   membership layout unless it already carries a tree.
//!
//! Everything runs on squared distances with one `sqrt` per emitted step.
//! The result is bit-identical to taking the minimum of per-pair `sqrt`s:
//! every path evaluates the same squared pair distances (the kd-tree, the
//! lane kernel and [`fuzzy_geom::Point::dist_sq`] agree bitwise), a pruned
//! or skipped pair is never below the bound that pruned it, and `sqrt` is
//! correctly rounded and monotone, so `sqrt(min d²) = min sqrt(d²)`.

use crate::object::FuzzyObject;
use crate::threshold::Threshold;
use fuzzy_geom::{LevelFilter, Mbr};

/// One step of the staircase: `d_α = dist` for `α ∈ (prev_level, level]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Right endpoint of the constancy interval — a critical probability.
    pub level: f64,
    /// The α-distance on the interval.
    pub dist: f64,
}

/// The α-distance profile between a fixed pair of objects.
///
/// Segments are ascending in `level` and strictly increasing in `dist`;
/// the final segment always has `level == 1.0` (kernels are non-empty, so
/// `d_α` is defined on all of `(0, 1]`).
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceProfile {
    segments: Vec<Segment>,
}

impl DistanceProfile {
    /// Compute the profile with the bounded descending sweep (module docs).
    pub fn compute<const D: usize>(a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> Self {
        let (pa, pq) = (a.by_membership(), q.by_membership());
        let (ma, mq) = (pa.memberships(), pq.memberships());
        // The sweep walks points, not columns: the one reader of the
        // prefixes' array-of-points form (gathered here on first use).
        let (pts_a, pts_q) = (pa.points(), pq.points());
        // Q is the reusable side: its tree is built once per query. A is
        // usually probed for this one profile, so its tree is used only
        // when it already exists; otherwise Q's points scan A's prefix.
        let tree_q = q.kd_tree();
        let tree_a = a.kd_tree_ready().then(|| a.kd_tree());

        let (mut ca, mut cq) = (0usize, 0usize);
        let (mut box_a, mut box_q) = (Mbr::<D>::empty(), Mbr::<D>::empty());
        let mut best_sq = f64::INFINITY;
        let mut raw: Vec<Segment> = Vec::new();

        while ca < ma.len() || cq < mq.len() {
            // Merge walk: the next level is the larger head of the two
            // descending arrays (memberships are > 0, so an exhausted
            // side never wins).
            let head = |m: &[f64], c: usize| m.get(c).copied().unwrap_or(0.0);
            let level = head(ma, ca).max(head(mq, cq));
            let filter = LevelFilter::at_least(level);
            // Activate both sides through this level before searching:
            // the filter already admits the other side's points of this
            // level, so each box must cover them.
            let (a0, q0) = (ca, cq);
            while ca < ma.len() && ma[ca] >= level {
                box_a.expand_point(&pts_a[ca]);
                ca += 1;
            }
            while cq < mq.len() && mq[cq] >= level {
                box_q.expand_point(&pts_q[cq]);
                cq += 1;
            }
            let before = best_sq;
            for p in &pts_a[a0..ca] {
                if p.dist_sq_to_box(box_q.lo_coords(), box_q.hi_coords()) >= best_sq {
                    continue;
                }
                if let Some((_, d2)) = tree_q.nn_sq_within(p, filter, best_sq) {
                    best_sq = d2;
                }
            }
            for p in &pts_q[q0..cq] {
                if p.dist_sq_to_box(box_a.lo_coords(), box_a.hi_coords()) >= best_sq {
                    continue;
                }
                let d2 = match tree_a {
                    Some(tree) => tree.nn_sq_within(p, filter, best_sq).map_or(best_sq, |r| r.1),
                    None => pa.min_dist_sq_to_prefix(p, ca),
                };
                if d2 < best_sq {
                    best_sq = d2;
                }
            }
            // One step per change of the minimum (two squares may still
            // round to one `sqrt`; `from_raw_descending` merges those).
            if best_sq < before {
                raw.push(Segment { level, dist: best_sq.sqrt() });
            }
        }
        debug_assert!(!raw.is_empty(), "kernels are non-empty");
        Self::from_raw_descending(raw)
    }

    /// Reference implementation: enumerate every pair, build the Pareto
    /// frontier of `(min(µ_a, µ_q), dist)`. `O(|A|·|Q|)` — tests only.
    pub fn compute_brute<const D: usize>(a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> Self {
        Self::from_pairs(
            a.iter().flat_map(|(p, mu)| q.iter().map(move |(r, nu)| (mu.min(nu), p.dist(r)))),
        )
    }

    /// Build a profile from raw `(level, dist)` pairs — one per candidate
    /// point pair, with `level = min(µ_a, µ_q)` and `dist` measured under
    /// whatever metric produced them. This is the metric-generic profile
    /// constructor: [`crate::metric::Metric::distance_profile`] defaults to
    /// feeding it the full pair enumeration.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let pairs: Vec<(f64, f64)> = pairs.into_iter().collect();
        // Distinct levels descending.
        let mut levels: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
        levels.sort_by(|x, y| y.total_cmp(x));
        levels.dedup();
        let mut raw = Vec::with_capacity(levels.len());
        for &level in &levels {
            let best = pairs
                .iter()
                .filter(|&&(l, _)| l >= level)
                .map(|&(_, d)| d)
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() {
                raw.push(Segment { level, dist: best });
            }
        }
        Self::from_raw_descending(raw)
    }

    /// Compress a descending `(level, running-min)` trace into ascending
    /// segments with strictly increasing distances, keeping for each
    /// distance the *largest* level at which it holds (the critical value).
    fn from_raw_descending(mut raw: Vec<Segment>) -> Self {
        raw.reverse(); // ascending by level, dist non-decreasing
        let mut segments: Vec<Segment> = Vec::with_capacity(raw.len());
        for s in raw {
            match segments.last_mut() {
                Some(last) if s.dist <= last.dist => {
                    // Same distance persists to a higher level: extend.
                    last.level = s.level;
                }
                _ => segments.push(s),
            }
        }
        Self { segments }
    }

    /// The staircase segments, ascending.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The critical probability set `Ω_Q(A)` (Definition 7), ascending.
    /// Always ends with `1.0`.
    pub fn critical_set(&self) -> impl Iterator<Item = f64> + '_ {
        self.segments.iter().map(|s| s.level)
    }

    /// `d_α(A, Q)` at the given threshold; `None` only for strict
    /// thresholds at or above the top level.
    pub fn value_at(&self, t: Threshold) -> Option<f64> {
        self.segment_covering(t).map(|s| s.dist)
    }

    /// The smallest critical probability whose segment covers `t`; this is
    /// `β_A = min{α' ∈ Ω_Q(A) | α' ≥ α}` of Algorithm 3 (for inclusive
    /// thresholds) and its strict analogue for the `α* + ε` steps.
    pub fn next_critical(&self, t: Threshold) -> Option<f64> {
        self.segment_covering(t).map(|s| s.level)
    }

    /// The largest critical probability β with `d_β(A,Q) < bound`, i.e. how
    /// far the object provably stays within distance `bound` (Lemma 4 /
    /// Algorithm 5 line 8). `None` when even the first segment is ≥ bound.
    pub fn max_level_with_dist_below(&self, bound: f64) -> Option<f64> {
        let below = self.segments.partition_point(|s| s.dist < bound);
        below.checked_sub(1).map(|i| self.segments[i].level)
    }

    /// The segment whose interval `(prev, level]` contains the threshold.
    fn segment_covering(&self, t: Threshold) -> Option<&Segment> {
        let idx = self.segments.partition_point(|s| {
            if t.strict {
                s.level <= t.value
            } else {
                s.level < t.value
            }
        });
        self.segments.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::alpha_distance_brute;
    use crate::object::ObjectId;
    use fuzzy_geom::Point;

    fn blob(seed: u64, n: usize, cx: f64, cy: f64, quant: f64) -> FuzzyObject<2> {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = vec![Point::xy(cx, cy)];
        let mut mus = vec![1.0];
        for _ in 1..n {
            let r = rnd() * 1.5;
            let th = rnd() * std::f64::consts::TAU;
            pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
            let mu = ((1.0 - r / 1.6) * quant).round().max(1.0) / quant;
            mus.push(mu.clamp(1.0 / quant, 1.0));
        }
        FuzzyObject::new(ObjectId(seed), pts, mus).unwrap()
    }

    #[test]
    fn sweep_matches_brute_profile() {
        for seed in 1..8u64 {
            let a = blob(seed, 60, 0.0, 0.0, 10.0);
            let q = blob(seed + 50, 70, 2.5, 0.5, 10.0);
            let fast = DistanceProfile::compute(&a, &q);
            let slow = DistanceProfile::compute_brute(&a, &q);
            assert_eq!(fast.segments().len(), slow.segments().len(), "seed {seed}");
            for (f, s) in fast.segments().iter().zip(slow.segments()) {
                assert_eq!(f.level.to_bits(), s.level.to_bits(), "seed {seed}");
                assert_eq!(f.dist.to_bits(), s.dist.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn profile_values_match_pointwise_distance() {
        let a = blob(3, 50, 0.0, 0.0, 8.0);
        let q = blob(4, 50, 3.0, 1.0, 8.0);
        let prof = DistanceProfile::compute(&a, &q);
        for v in [0.05, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0] {
            for strict in [false, true] {
                let t = Threshold { value: v, strict };
                let via_profile = prof.value_at(t);
                let direct = alpha_distance_brute(&a, &q, t);
                match (via_profile, direct) {
                    (None, None) => {}
                    (Some(p), Some(d)) => {
                        assert!((p - d).abs() < 1e-12, "t {t}: {p} vs {d}")
                    }
                    other => panic!("t {t}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn staircase_is_strictly_increasing_and_ends_at_one() {
        let a = blob(5, 80, 0.0, 0.0, 12.0);
        let q = blob(6, 80, 2.0, 2.0, 12.0);
        let prof = DistanceProfile::compute(&a, &q);
        let segs = prof.segments();
        assert_eq!(segs.last().unwrap().level, 1.0);
        for w in segs.windows(2) {
            assert!(w[0].level < w[1].level);
            assert!(w[0].dist < w[1].dist);
        }
    }

    #[test]
    fn hand_computed_staircase() {
        // A: kernel at x=0, one point µ=.4 at x=2.
        let a = FuzzyObject::new(
            ObjectId(1),
            vec![Point::xy(0.0, 0.0), Point::xy(2.0, 0.0)],
            vec![1.0, 0.4],
        )
        .unwrap();
        // Q: kernel at x=10, one point µ=.6 at x=7.
        let q = FuzzyObject::new(
            ObjectId(2),
            vec![Point::xy(10.0, 0.0), Point::xy(7.0, 0.0)],
            vec![1.0, 0.6],
        )
        .unwrap();
        // d_α: α ≤ .4 → |2-7| = 5; .4 < α ≤ .6 → |0-7| = 7; .6 < α → 10.
        let prof = DistanceProfile::compute(&a, &q);
        assert_eq!(
            prof.segments(),
            &[
                Segment { level: 0.4, dist: 5.0 },
                Segment { level: 0.6, dist: 7.0 },
                Segment { level: 1.0, dist: 10.0 },
            ]
        );
        // Critical set.
        let omega: Vec<f64> = prof.critical_set().collect();
        assert_eq!(omega, vec![0.4, 0.6, 1.0]);
        // Threshold lookups, inclusive and strict.
        assert_eq!(prof.value_at(Threshold::at(0.4)), Some(5.0));
        assert_eq!(prof.value_at(Threshold::above(0.4)), Some(7.0));
        assert_eq!(prof.value_at(Threshold::at(1.0)), Some(10.0));
        assert_eq!(prof.value_at(Threshold::above(1.0)), None);
        // next_critical: β_A of Algorithm 3.
        assert_eq!(prof.next_critical(Threshold::at(0.3)), Some(0.4));
        assert_eq!(prof.next_critical(Threshold::above(0.4)), Some(0.6));
        assert_eq!(prof.next_critical(Threshold::at(0.95)), Some(1.0));
        // ICR helper: how far does d stay under 7.5?
        assert_eq!(prof.max_level_with_dist_below(7.5), Some(0.6));
        assert_eq!(prof.max_level_with_dist_below(5.0), None);
        assert_eq!(prof.max_level_with_dist_below(100.0), Some(1.0));
    }

    #[test]
    fn value_below_first_level_is_support_distance() {
        let a = blob(9, 40, 0.0, 0.0, 5.0);
        let q = blob(10, 40, 4.0, 0.0, 5.0);
        let prof = DistanceProfile::compute(&a, &q);
        let support_d = alpha_distance_brute(&a, &q, Threshold::support()).unwrap();
        assert_eq!(prof.value_at(Threshold::above(0.0)), Some(support_d));
        assert_eq!(prof.value_at(Threshold::at(1e-9)), Some(support_d));
    }
}
