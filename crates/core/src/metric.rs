//! The pluggable metric seam.
//!
//! Every pruning bound in the engine — `d⁻`/`d⁺` over α-cuts, the Eq. 2
//! approximations, the lazy-probe τ discipline — needs only the metric
//! axioms, not Euclidean geometry. One check does not: the probe gate, which
//! rules a read out by the L2 gap between the query's cut points and the
//! entry's support MBR — before an AKNN probe, and in RSS's range scan. It
//! is Euclidean, and it sits outside this seam (the engine has been
//! Euclidean throughout since `L2` became the one implementation). [`Metric`] captures exactly what the
//! query layer consumes through the seam:
//!
//! * **point evaluation** — [`Metric::dist`] / [`Metric::dist_sq`]; the
//!   whole engine works in squared distances, so implementations must keep
//!   `dist_sq = dist²` monotone-consistent;
//! * **box bounds** — [`Metric::min_box_dist_sq`] /
//!   [`Metric::max_box_dist_sq`] turn the coordinate rectangles the index
//!   already stores into sound distance bounds. The defaults (`0`, `+∞`)
//!   are always sound and simply disable rectangle pruning; `L2` overrides
//!   them with the exact `MinDist`/`MaxDist` of Eqs. 1 and 3;
//! * **α-distance** — [`Metric::alpha_distance_sq_bounded`] evaluates
//!   Definition 3 under the metric, honoring the kernel's seed contract.
//!   The default is the membership-filtered pair scan; `L2` routes to the
//!   adaptive columnar/kd kernel in [`crate::distance`], which is why the
//!   generic engine stays byte-identical to the specialized one under `L2`;
//! * **distance profiles** — [`Metric::distance_profile`] builds the full
//!   staircase `α ↦ d_α`, and [`Metric::distance_profile_window`] the part
//!   of it an RKNN over `[αs, αe]` reads. The window hook is *provided*: it
//!   defaults to the full profile, which is a valid answer for every
//!   window, so a metric (or an adapter around one) that implements only
//!   `distance_profile` stays correct and merely does the full work. `L2`
//!   overrides it with the windowed sweep of [`crate::profile`], which also
//!   honours the window's two optional limits, a cap and a floor.
//!
//! One implementation ships here: [`L2`], the paper's Euclidean setting,
//! every hook delegating to the existing specialized code. The trait stays
//! a seam so a wrapper can observe the engine's calls (fkbench's timed
//! metric and the query suites' recording metric wrap `L2` through it).

use crate::object::FuzzyObject;
use crate::profile::DistanceProfile;
use crate::threshold::Threshold;
use fuzzy_geom::{Mbr, Point};

/// A metric on `D`-dimensional points, plus the derived hooks the query
/// engine prunes with. Implementations must satisfy the metric axioms
/// (non-negativity, identity of indiscernibles on their point domain,
/// symmetry, triangle inequality) — the `metric_laws` proptest harness in
/// `crates/core/tests` checks sampled instances of all four.
pub trait Metric<const D: usize>: Sync {
    /// Short stable name (`"l2"`) used in bench reports and index
    /// headers.
    fn name(&self) -> &'static str;

    /// The distance `d(a, b)`.
    fn dist(&self, a: &Point<D>, b: &Point<D>) -> f64;

    /// The squared distance. Must equal `dist(a, b)²` up to the rounding
    /// of that product; the engine only ever *compares* squared values
    /// against each other, so any monotone-consistent squaring works.
    #[inline]
    fn dist_sq(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        let d = self.dist(a, b);
        d * d
    }

    /// Sound squared lower bound on `d(a, b)` over all `a ∈ box_a`,
    /// `b ∈ box_b`. The default `0.0` never prunes and is sound for every
    /// metric; override when the metric can score coordinate rectangles
    /// (L2 uses `MinDist`, Eq. 1).
    #[inline]
    fn min_box_dist_sq(&self, _box_a: &Mbr<D>, _box_b: &Mbr<D>) -> f64 {
        0.0
    }

    /// Sound squared upper bound on `min_{a ∈ box_a} d(a, b)` style
    /// confinement queries: an upper bound on the distance between the
    /// *closest* pair once both point sets are known non-empty inside the
    /// boxes. The default `+∞` never confirms anything early; L2 uses
    /// `MaxDist` (Eq. 3).
    #[inline]
    fn max_box_dist_sq(&self, _box_a: &Mbr<D>, _box_b: &Mbr<D>) -> f64 {
        f64::INFINITY
    }

    /// The squared α-distance `d_α(a, b)²` (Definition 3) under this
    /// metric, pruned by a **squared** seed: `None` when either cut is
    /// empty under `t` or no qualifying pair lies strictly closer than
    /// `upper_bound_sq` (the kernel's documented seed contract). The
    /// default is the membership-filtered pair scan; metrics with faster
    /// exact evaluators override it (L2 routes to the adaptive kernel).
    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<D>,
        b: &FuzzyObject<D>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        generic_alpha_distance_sq_bounded(self, a, b, t, upper_bound_sq)
    }

    /// The full α-distance staircase `α ↦ d_α(a, q)` under this metric
    /// (Definition 7; what the RKNN refinement loops consume). The default
    /// enumerates every pair; L2 overrides with the sweep of [`crate::profile`].
    fn distance_profile(&self, a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> DistanceProfile {
        DistanceProfile::from_pairs(
            a.iter().flat_map(|(p, mu)| q.iter().map(move |(r, nu)| (mu.min(nu), self.dist(p, r)))),
        )
    }

    /// The staircase on the window `[lo, hi]`, under the contract of
    /// [`DistanceProfile::compute_window_limited`]: exact for every
    /// threshold in the window, unspecified outside it, and under a cap
    /// `cap_sq` or a floor `floor_sq` exact only where that limit promises
    /// it ([`crate::profile`], "Two limits"). `top_sq` is the squared
    /// α-distance at `hi` when the caller already holds it (as returned by
    /// [`Metric::alpha_distance_sq_bounded`] for the same pair), `None`
    /// otherwise. The default ignores the window and both limits and
    /// returns [`Metric::distance_profile`], which meets every contract.
    #[allow(clippy::too_many_arguments)]
    fn distance_profile_window(
        &self,
        a: &FuzzyObject<D>,
        q: &FuzzyObject<D>,
        _lo: f64,
        _hi: f64,
        _top_sq: Option<f64>,
        _cap_sq: Option<f64>,
        _floor_sq: Option<f64>,
    ) -> DistanceProfile {
        self.distance_profile(a, q)
    }
}

/// Reference α-distance evaluator for any metric: the membership-filtered
/// all-pairs scan in squared space, honoring the strict-`<` seed contract
/// of [`crate::distance::alpha_distance_sq_bounded`]. Public so tests can
/// oracle-check specialized overrides against it.
pub fn generic_alpha_distance_sq_bounded<M: Metric<D> + ?Sized, const D: usize>(
    metric: &M,
    a: &FuzzyObject<D>,
    b: &FuzzyObject<D>,
    t: Threshold,
    upper_bound_sq: f64,
) -> Option<f64> {
    let mut best = upper_bound_sq;
    let mut found = false;
    for (p, mu) in a.iter() {
        if !t.accepts(mu) {
            continue;
        }
        for (r, nu) in b.iter() {
            if !t.accepts(nu) {
                continue;
            }
            let d_sq = metric.dist_sq(p, r);
            if d_sq < best {
                best = d_sq;
                found = true;
            }
        }
    }
    found.then_some(best)
}

/// The Euclidean metric — the paper's setting and the engine's fast path.
/// Every hook delegates to the pre-existing specialized code (exact
/// `MinDist`/`MaxDist` box bounds, the adaptive columnar/kd α-distance
/// kernel, the windowed profile sweep), so query answers and per-query
/// counters through the metric seam are byte-identical to the direct calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L2;

impl<const D: usize> Metric<D> for L2 {
    #[inline]
    fn name(&self) -> &'static str {
        "l2"
    }

    #[inline]
    fn dist(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        a.dist(b)
    }

    #[inline]
    fn dist_sq(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        a.dist_sq(b)
    }

    #[inline]
    fn min_box_dist_sq(&self, box_a: &Mbr<D>, box_b: &Mbr<D>) -> f64 {
        box_a.min_dist_sq(box_b)
    }

    #[inline]
    fn max_box_dist_sq(&self, box_a: &Mbr<D>, box_b: &Mbr<D>) -> f64 {
        box_a.max_dist_sq(box_b)
    }

    #[inline]
    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<D>,
        b: &FuzzyObject<D>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        crate::distance::alpha_distance_sq_bounded(a, b, t, upper_bound_sq)
    }

    #[inline]
    fn distance_profile(&self, a: &FuzzyObject<D>, q: &FuzzyObject<D>) -> DistanceProfile {
        DistanceProfile::compute(a, q)
    }

    #[inline]
    fn distance_profile_window(
        &self,
        a: &FuzzyObject<D>,
        q: &FuzzyObject<D>,
        lo: f64,
        hi: f64,
        top_sq: Option<f64>,
        cap_sq: Option<f64>,
        floor_sq: Option<f64>,
    ) -> DistanceProfile {
        DistanceProfile::compute_window_limited(a, q, lo, hi, top_sq, cap_sq, floor_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::alpha_distance_sq_bounded;
    use crate::object::ObjectId;

    fn blob(seed: u64, n: usize, cx: f64, cy: f64) -> FuzzyObject<2> {
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
            let r = rnd();
            let th = rnd() * std::f64::consts::TAU;
            pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
            mus.push(((1.0 - r) * 0.9 + 0.05).clamp(0.01, 1.0));
        }
        FuzzyObject::new(ObjectId(seed), pts, mus).unwrap()
    }

    /// A deliberately hook-poor Euclidean metric: `dist`/`dist_sq` only,
    /// so the default box bounds, pair-scan α-distance and pair-enumeration
    /// profile all run as written. `dist_sq` matches the kernel's squared
    /// arithmetic (summed squares, not `dist²`) — bitwise agreement between
    /// generic and specialized paths requires consistent squaring, which is
    /// exactly what the `dist_sq` contract documents.
    struct BareL2;
    impl Metric<2> for BareL2 {
        fn name(&self) -> &'static str {
            "bare-l2"
        }
        fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
            a.dist(b)
        }
        fn dist_sq(&self, a: &Point<2>, b: &Point<2>) -> f64 {
            a.dist_sq(b)
        }
    }

    #[test]
    fn l2_hooks_delegate_bitwise() {
        let a = blob(3, 60, 0.0, 0.0);
        let b = blob(4, 70, 2.0, 1.0);
        let m = L2;
        let pa = *a.point(0);
        let pb = *b.point(0);
        assert_eq!(Metric::<2>::dist(&m, &pa, &pb).to_bits(), pa.dist(&pb).to_bits());
        assert_eq!(Metric::<2>::dist_sq(&m, &pa, &pb).to_bits(), pa.dist_sq(&pb).to_bits());
        let ma = a.support_mbr();
        let mb = b.support_mbr();
        assert_eq!(m.min_box_dist_sq(&ma, &mb).to_bits(), ma.min_dist_sq(&mb).to_bits());
        assert_eq!(m.max_box_dist_sq(&ma, &mb).to_bits(), ma.max_dist_sq(&mb).to_bits());
        for v in [0.2, 0.5, 1.0] {
            let t = Threshold::at(v);
            let via_metric = m.alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
            let direct = alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
            assert_eq!(via_metric.map(f64::to_bits), direct.map(f64::to_bits));
        }
    }

    #[test]
    fn generic_defaults_match_l2_kernel_bitwise() {
        // The hook-free metric must agree with the adaptive kernel on the
        // same Euclidean geometry: same answers, same seed contract.
        for seed in 1..6u64 {
            let a = blob(seed, 50, 0.0, 0.0);
            let b = blob(seed + 40, 55, 1.5, -0.5);
            for v in [0.1, 0.5, 0.9, 1.0] {
                let t = Threshold::at(v);
                let generic = BareL2.alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
                let kernel = alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
                assert_eq!(
                    generic.map(f64::to_bits),
                    kernel.map(f64::to_bits),
                    "seed {seed} α {v}"
                );
                if let Some(d_sq) = kernel {
                    // Seed contract: strictly-above preserves, at prunes.
                    assert_eq!(
                        BareL2.alpha_distance_sq_bounded(&a, &b, t, d_sq * (1.0 + 1e-9)),
                        Some(d_sq)
                    );
                    assert_eq!(BareL2.alpha_distance_sq_bounded(&a, &b, t, d_sq), None);
                }
            }
        }
        // Profiles agree too (within float tolerance of the two orders).
        let a = blob(9, 40, 0.0, 0.0);
        let q = blob(10, 40, 2.0, 0.0);
        let generic = BareL2.distance_profile(&a, &q);
        let sweep = Metric::<2>::distance_profile(&L2, &a, &q);
        assert_eq!(generic.segments().len(), sweep.segments().len());
        for (g, s) in generic.segments().iter().zip(sweep.segments()) {
            assert!((g.level - s.level).abs() < 1e-12);
            assert!((g.dist - s.dist).abs() < 1e-12);
        }
    }
}
