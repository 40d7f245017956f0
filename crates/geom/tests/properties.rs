//! Property-based tests for the geometry substrate.

use fuzzy_geom::{
    fit_conservative_line, fit_conservative_line_exact, upper_hull_2d, KdTree, LevelFilter, Mbr,
    Point,
};
use proptest::prelude::*;

fn arb_point2() -> impl Strategy<Value = Point<2>> {
    (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::xy(x, y))
}

fn arb_mbr2() -> impl Strategy<Value = Mbr<2>> {
    (arb_point2(), arb_point2()).prop_map(|(a, b)| {
        let lo = [a.x().min(b.x()), a.y().min(b.y())];
        let hi = [a.x().max(b.x()), a.y().max(b.y())];
        Mbr::new(lo, hi)
    })
}

fn arb_mu() -> impl Strategy<Value = f64> {
    // Memberships in (0, 1]; avoid subnormals.
    (0.001..=1.0f64).prop_map(|m| (m * 1000.0).round() / 1000.0)
}

fn arb_cloud(max: usize) -> impl Strategy<Value = (Vec<Point<2>>, Vec<f64>)> {
    prop::collection::vec((arb_point2(), arb_mu()), 1..max).prop_map(|v| {
        let (pts, mut mus): (Vec<_>, Vec<f64>) = v.into_iter().unzip();
        mus[0] = 1.0; // non-empty kernel, like fuzzy objects
        (pts, mus)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MinDist/MaxDist bound the distance between arbitrary contained points.
    #[test]
    fn min_max_dist_bracket_contained_points(
        a in arb_mbr2(),
        b in arb_mbr2(),
        fx in 0.0..=1.0f64, fy in 0.0..=1.0f64,
        gx in 0.0..=1.0f64, gy in 0.0..=1.0f64,
    ) {
        let p = Point::xy(
            a.lo(0) + fx * a.extent(0),
            a.lo(1) + fy * a.extent(1),
        );
        let q = Point::xy(
            b.lo(0) + gx * b.extent(0),
            b.lo(1) + gy * b.extent(1),
        );
        let d_sq = p.dist_sq(&q);
        prop_assert!(a.min_dist_sq(&b) <= d_sq * (1.0 + 1e-9) + 1e-9);
        prop_assert!(d_sq <= a.max_dist_sq(&b) * (1.0 + 1e-9) + 1e-9);
    }

    /// Union is commutative, contains both operands, and is monotone in area.
    #[test]
    fn union_laws(a in arb_mbr2(), b in arb_mbr2()) {
        let u = a.union(&b);
        prop_assert_eq!(u, b.union(&a));
        prop_assert!(u.contains_mbr(&a));
        prop_assert!(u.contains_mbr(&b));
        prop_assert!(u.area() >= a.area().max(b.area()) - 1e-9);
    }

    /// MinDist is symmetric and zero iff the boxes intersect.
    #[test]
    fn min_dist_symmetric_and_zero_on_overlap(a in arb_mbr2(), b in arb_mbr2()) {
        prop_assert_eq!(a.min_dist_sq(&b), b.min_dist_sq(&a));
        let overlap = (0..2).all(|i| a.lo(i).max(b.lo(i)) <= a.hi(i).min(b.hi(i)));
        if overlap {
            prop_assert_eq!(a.min_dist_sq(&b), 0.0);
        } else {
            prop_assert!(a.min_dist_sq(&b) > 0.0);
        }
    }

    /// Upper hull dominates every input point.
    #[test]
    fn upper_hull_dominates(pts in prop::collection::vec(arb_point2(), 1..60)) {
        let hull = upper_hull_2d(&pts);
        prop_assert!(!hull.is_empty());
        for p in &pts {
            let y = fuzzy_geom::hull::upper_hull_eval(&hull, p.x());
            prop_assert!(y >= p.y() - 1e-9 * (1.0 + p.y().abs()));
        }
    }

    /// The fitted line is conservative and no tighter than the exact oracle.
    #[test]
    fn conservative_line_laws(
        raw in prop::collection::vec((0.0..=1.0f64, 0.0..=10.0f64), 2..40)
    ) {
        let samples: Vec<(f64, f64)> = raw;
        let fast = fit_conservative_line(&samples);
        let exact = fit_conservative_line_exact(&samples);
        prop_assert!(fast.is_conservative(&samples, 1e-9), "fast not conservative");
        prop_assert!(exact.is_conservative(&samples, 1e-9), "exact not conservative");
        // Oracle is optimal.
        prop_assert!(exact.sse(&samples) <= fast.sse(&samples) + 1e-6);
    }

    /// Filtered kd NN agrees with brute force.
    #[test]
    fn kd_nn_matches_brute(
        (pts, mus) in arb_cloud(80),
        q in arb_point2(),
        lvl in 0.0..=1.0f64,
        strict in any::<bool>(),
    ) {
        let tree = KdTree::build(&pts, &mus);
        let f = LevelFilter { min: lvl, strict };
        let got = tree.min_dist_sq_within(&q, f, f64::INFINITY).map(f64::sqrt);
        let want = pts.iter().zip(&mus)
            .filter(|(_, &mu)| f.accepts(mu))
            .map(|(p, _)| p.dist(&q))
            .min_by(f64::total_cmp);
        match (got, want) {
            (None, None) => {}
            (Some(g), Some(w)) => prop_assert!((g - w).abs() < 1e-9),
            other => prop_assert!(false, "mismatch {:?}", other),
        }
    }

    /// The MinDist of the filtered sets' MBRs lower-bounds the exact
    /// distance between the filtered sets (the index-level pruning bound
    /// used as the α-distance lower bound, Eq. 1).
    #[test]
    fn mbr_min_dist_lower_bounds_cut_distance(
        (pa, ma) in arb_cloud(40),
        (pb, mb) in arb_cloud(40),
        lvl in 0.0..=1.0f64,
    ) {
        let f = LevelFilter::at_least(lvl);
        let filtered = |pts: &[Point<2>], mus: &[f64]| -> Vec<Point<2>> {
            pts.iter().zip(mus).filter(|(_, &mu)| f.accepts(mu)).map(|(p, _)| *p).collect()
        };
        let (fa, fb) = (filtered(&pa, &ma), filtered(&pb, &mb));
        let mbr_a = Mbr::from_points(fa.iter()).expect("kernel keeps the cut non-empty");
        let mbr_b = Mbr::from_points(fb.iter()).expect("kernel keeps the cut non-empty");
        let exact_sq = fa
            .iter()
            .flat_map(|p| fb.iter().map(move |q| p.dist_sq(q)))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(mbr_a.min_dist_sq(&mbr_b) <= exact_sq * (1.0 + 1e-9) + 1e-9);
        // And MaxDist brackets it from above.
        prop_assert!(exact_sq <= mbr_a.max_dist_sq(&mbr_b) * (1.0 + 1e-9) + 1e-9);
        // The MBRs really are minimal: every filtered point is contained.
        for p in &fa {
            prop_assert!(mbr_a.contains_mbr(&Mbr::from_points([p]).unwrap()));
        }
        for p in &fb {
            prop_assert!(mbr_b.contains_mbr(&Mbr::from_points([p]).unwrap()));
        }
    }
}
