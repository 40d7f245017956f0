//! The α-distance profile: the step function `α ↦ d_α(A, Q)` and the
//! critical probability set `Ω_Q(A)` (Definition 7).
//!
//! Because cuts only change composition at distinct membership values, the
//! α-distance is a left-continuous staircase, constant on intervals
//! `(ℓ_{j-1}, ℓ_j]` whose right endpoints are exactly the critical
//! probabilities — "the end points of the horizontal line segments on the
//! curve of d_α(A,Q)" (Figure 8). The RKNN algorithms (Section 4) consume
//! this structure directly.
//!
//! # The window
//!
//! An RKNN over `[αs, αe]` reads a candidate's staircase only on that
//! range, so the one sweep here — [`DistanceProfile::compute_window`] — is
//! given the range `[lo, hi]` and touches only what can matter inside it;
//! [`DistanceProfile::compute`] is the widest window, `[0, 1]`.
//!
//! **Contract.** Without limits (below), the result holds the full
//! profile's segments whose level
//! lies in `[lo, hi)` bit for bit, then one last segment `(1.0, d_hi)`, and
//! nothing below `lo`. The last segment says "from the previous level up,
//! the distance is `d_hi`"; where above `hi` the full staircase next steps
//! up is never learned, and no reader of a window needs it — every consumer
//! clamps levels to the window's end. For a threshold **in the window** —
//! `Threshold::at(v)` with `lo ≤ v ≤ hi`, `Threshold::above(v)` with
//! `lo ≤ v < hi` — [`DistanceProfile::value_at`],
//! `next_critical(t).min(hi)` and `max_level_with_dist_below(b).min(hi)`
//! (for an answer at or above `lo`) equal the full profile's. Outside the
//! window all three are unspecified.
//!
//! **Two limits.** A reader that provably looks at only part of a
//! staircase can say so, and the sweep then stops computing the rest. Each
//! limit is exact where it makes a promise; what it says about the other
//! levels is only a bound, which the full profile meets too — so a metric
//! may ignore both (the trait's default window does).
//!
//! * A **cap** `c²`: every level whose squared distance lies below `c²`
//!   reads its exact value; every other level reads at least `√c²`, and
//!   the sweep reads exactly `√c²` there. Pointwise the window is
//!   `min(d_α, √c²)`: `sqrt` is monotone, so `d² < c²` gives `d ≤ √c²`.
//! * A **floor** `f²`: walking down from `hi`, the window is exact down to
//!   and including the first level whose distance is below `√f²`, and that
//!   value covers every lower level (the sweep stops there). Below that
//!   level every reading is below `√f²` and no smaller than the true one.
//!
//! With both, the floor applies to the capped staircase. A reader must
//! compare only in ways these promises decide (`fuzzy_query::rknn`, "How
//! much of a window RSS computes", gives the one reader and its argument).
//!
//! **The sweep.** `d_hi` comes first: from the caller when it already holds
//! the squared distance (RSS step 1 evaluated exactly this, see
//! `fuzzy_query::rknn`), otherwise from one call of the α-distance kernel
//! at `hi`, seeded with the cap when there is one (no pair strictly below
//! `c²` at `hi` reads `c²`). A top the caller hands in is capped as
//! `min(top², c²)`. An unknown top is *evaluated* under the cap and never
//! replaced by it: the sweep below searches only from points under `hi`,
//! so a pair at `hi` or above below the cap is found by this call or not
//! at all. Below `hi` the staircase can only fall, and only through a pair
//! strictly closer than the start `min(d²_hi, c²)` — which bounds the rest
//! of the work before it starts:
//!
//! * only points with `lo ≤ µ` are looked at (a prefix of each side's
//!   membership-descending columns);
//! * of those, only the **survivors**: points strictly closer than `d_hi`
//!   to the bounding box of the other side's cut at `lo`. A pair is never
//!   closer than its point-to-box distance and the running minimum starts
//!   at `d_hi`, so no other point can ever be half of an improving pair.
//!   Survivors are kept as compacted columns, still membership-descending;
//! * a merge walk over the two survivor lists visits the distinct levels
//!   below `hi` in descending order. Each survivor "activates" once and
//!   looks for a point of the opposite side at its level or above that lies
//!   *strictly closer than the running minimum*: a candidate-side point
//!   through a seeded search of the query's kd-tree
//!   ([`fuzzy_geom::KdTree::min_dist_sq_within`] — a search that cannot improve
//!   the bound prunes at the root), a query-side point through a lane
//!   min-reduction over the candidate's activated survivors. Either is
//!   skipped when the point is not closer than the running minimum to the
//!   box of the opposite side's activated survivors. `d_ℓ` is the running
//!   minimum when level `ℓ` is done, and the walk ends at the first level
//!   whose `d_ℓ` is below the floor.
//!
//! The query side `Q` is resident for a whole RKNN query, so it is the side
//! searched through a kd-tree (built on the first search that needs it);
//! the candidate side `A` — typically decoded for this one profile — is
//! never indexed here.
//!
//! Everything runs on squared distances with one `sqrt` per emitted step.
//! The result is bit-identical to taking the minimum of per-pair `sqrt`s:
//! every path evaluates the same squared pair distances (the kd-tree, the
//! lane kernel and [`fuzzy_geom::Point::dist_sq`] agree bitwise), a pruned
//! or skipped pair is never below the bound that pruned it, and `sqrt` is
//! correctly rounded and monotone, so `sqrt(min d²) = min sqrt(d²)`.

use crate::distance::alpha_distance_sq_bounded;
use crate::object::{FuzzyObject, MembershipPrefix};
use crate::threshold::Threshold;
use fuzzy_geom::{LevelFilter, Mbr, Point};

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
/// `d_α` is defined on all of `(0, 1]`). A profile computed for a window
/// answers for thresholds inside that window only (module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceProfile {
    segments: Vec<Segment>,
}

/// One side of a windowed sweep: the points of an object's cut at the
/// window's lower end that can still be half of an improving pair, in
/// membership order, as compacted coordinate columns.
struct Survivors<const D: usize> {
    mus: Vec<f64>,
    cols: [Vec<f64>; D],
}

impl<const D: usize> Survivors<D> {
    /// Of the prefix `0..n`, the points strictly closer than `bound_sq` to
    /// the box `(lo, hi)`: one pass, every slot written and the cursor
    /// advanced by the test's outcome.
    fn of(
        prefix: &MembershipPrefix<D>,
        n: usize,
        (lo, hi): &([f64; D], [f64; D]),
        bound_sq: f64,
    ) -> Self {
        let mut mus = vec![0.0; n];
        let mut cols: [Vec<f64>; D] = std::array::from_fn(|_| vec![0.0; n]);
        let mut kept = 0;
        for (j, &mu) in prefix.memberships()[..n].iter().enumerate() {
            let p = prefix.point(j);
            mus[kept] = mu;
            for (col, &c) in cols.iter_mut().zip(p.coords()) {
                col[kept] = c;
            }
            kept += usize::from(p.dist_sq_to_box(lo, hi) < bound_sq);
        }
        mus.truncate(kept);
        cols.iter_mut().for_each(|col| col.truncate(kept));
        Self { mus, cols }
    }

    fn point(&self, j: usize) -> Point<D> {
        Point::new(std::array::from_fn(|d| self.cols[d][j]))
    }

    /// Activate every survivor from `*cursor` on whose membership reaches
    /// `level`: the cursor moves past them and `bounds` grows to cover them.
    fn activate(&self, cursor: &mut usize, bounds: &mut Mbr<D>, level: f64) {
        while *cursor < self.mus.len() && self.mus[*cursor] >= level {
            bounds.expand_point(&self.point(*cursor));
            *cursor += 1;
        }
    }

    /// Smallest squared distance from `p` to the first `n` survivors.
    fn min_dist_sq_to_prefix(&self, p: &Point<D>, n: usize) -> f64 {
        let cols: [&[f64]; D] = std::array::from_fn(|d| &self.cols[d][..n]);
        fuzzy_geom::kernel::min_dist_sq_cols(&cols, p.coords())
    }
}

impl DistanceProfile {
    /// The profile on all of `(0, 1]`: the widest window.
    pub fn compute<const D: usize>(a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> Self {
        Self::compute_window(a, q, 0.0, 1.0, None)
    }

    /// The profile on the window `[lo, hi]` (module docs: the contract, the
    /// sweep and why it is exact). `top_sq` is the squared α-distance at
    /// `hi` when the caller already holds it — the kernel's own bits, which
    /// a debug build checks — and `None` to have it computed here. `a` is
    /// the candidate, `q` the query whose kd-tree the sweep searches.
    ///
    /// # Panics
    /// Unless `0 ≤ lo ≤ hi ≤ 1`.
    pub fn compute_window<const D: usize>(
        a: &FuzzyObject<D>,
        q: &FuzzyObject<D>,
        lo: f64,
        hi: f64,
        top_sq: Option<f64>,
    ) -> Self {
        Self::compute_window_limited(a, q, lo, hi, top_sq, None, None)
    }

    /// [`DistanceProfile::compute_window`] under the limits of the module
    /// docs: a cap `cap_sq` (levels with no pair below it read its `sqrt`)
    /// and a floor `floor_sq` (the sweep stops on the first level whose
    /// distance is below its `sqrt`). `None` sets no limit.
    ///
    /// # Panics
    /// Unless `0 ≤ lo ≤ hi ≤ 1`.
    pub fn compute_window_limited<const D: usize>(
        a: &FuzzyObject<D>,
        q: &FuzzyObject<D>,
        lo: f64,
        hi: f64,
        top_sq: Option<f64>,
        cap_sq: Option<f64>,
        floor_sq: Option<f64>,
    ) -> Self {
        let (cut_lo, cut_hi) = (Threshold::at(lo), Threshold::at(hi));
        assert!(lo <= hi, "window [{lo}, {hi}] is inverted");
        // The kernel at `hi` seeded with `seed_sq`: `None` when no pair of
        // the two cuts lies strictly below it.
        let kernel_top = |seed_sq| alpha_distance_sq_bounded(a, q, cut_hi, seed_sq);
        debug_assert!(top_sq
            .map_or(true, |t| Some(t.to_bits()) == kernel_top(f64::INFINITY).map(f64::to_bits)));
        let cap_sq = cap_sq.unwrap_or(f64::INFINITY);
        let top_sq = match top_sq {
            Some(t) => t.min(cap_sq),
            // Kernels are non-empty, so unseeded this is never `None`.
            None => kernel_top(cap_sq).unwrap_or(cap_sq),
        };
        let floor = floor_sq.map_or(0.0, f64::sqrt);
        let mut raw = vec![Segment { level: 1.0, dist: top_sq.sqrt() }];
        if raw[0].dist < floor {
            return Self::from_raw_descending(raw);
        }

        let (pa, pq) = (a.by_membership(), q.by_membership());
        let (na, nq) = (pa.prefix_len(cut_lo), pq.prefix_len(cut_lo));
        let sa = Survivors::of(pa, na, &pq.prefix_bounds(nq), top_sq);
        let sq = Survivors::of(pq, nq, &pa.prefix_bounds(na), top_sq);

        // Everything at `hi` or above is behind `top_sq` already: activated
        // as search targets, never searched from.
        let (mut ca, mut cq) = (0usize, 0usize);
        let (mut box_a, mut box_q) = (Mbr::<D>::empty(), Mbr::<D>::empty());
        sa.activate(&mut ca, &mut box_a, hi);
        sq.activate(&mut cq, &mut box_q, hi);
        let mut best_sq = top_sq;

        while ca < sa.mus.len() || cq < sq.mus.len() {
            // Merge walk: the next level is the larger head of the two
            // descending arrays (memberships are > 0, so an exhausted
            // side never wins).
            let head = |m: &[f64], c: usize| m.get(c).copied().unwrap_or(0.0);
            let level = head(&sa.mus, ca).max(head(&sq.mus, cq));
            let filter = LevelFilter::at_least(level);
            // Activate both sides through this level before searching:
            // the filter already admits the other side's points of this
            // level, so each box must cover them.
            let (a0, q0) = (ca, cq);
            sa.activate(&mut ca, &mut box_a, level);
            sq.activate(&mut cq, &mut box_q, level);
            let before = best_sq;
            for j in a0..ca {
                let p = sa.point(j);
                if p.dist_sq_to_box(box_q.lo_coords(), box_q.hi_coords()) >= best_sq {
                    continue;
                }
                if let Some(d2) = q.kd_tree().min_dist_sq_within(&p, filter, best_sq) {
                    best_sq = d2;
                }
            }
            for j in q0..cq {
                let p = sq.point(j);
                if p.dist_sq_to_box(box_a.lo_coords(), box_a.hi_coords()) >= best_sq {
                    continue;
                }
                let d2 = sa.min_dist_sq_to_prefix(&p, ca);
                if d2 < best_sq {
                    best_sq = d2;
                }
            }
            // One step per change of the minimum (two squares may still
            // round to one `sqrt`; `from_raw_descending` merges those).
            if best_sq < before {
                let dist = best_sq.sqrt();
                raw.push(Segment { level, dist });
                // Below the floor: this value covers every lower level.
                if dist < floor {
                    break;
                }
            }
        }
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
    /// feeding it the full pair enumeration. One sort by level, then a
    /// running minimum down the levels: `O(P log P)` in the pair count.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut pairs: Vec<(f64, f64)> = pairs.into_iter().collect();
        pairs.sort_unstable_by(|x, y| y.0.total_cmp(&x.0));
        // Walking down the levels, a step belongs to the level at which
        // the minimum first falls to it; a further fall inside a run of
        // equal levels replaces that run's step.
        let mut best = f64::INFINITY;
        let mut raw: Vec<Segment> = Vec::new();
        for (level, dist) in pairs {
            if dist < best {
                best = dist;
                match raw.last_mut() {
                    Some(last) if last.level == level => last.dist = dist,
                    _ => raw.push(Segment { level, dist }),
                }
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
