//! Property-based tests for the fuzzy object model.

use fuzzy_core::boundary::BoundaryFunctions;
use fuzzy_core::distance::{alpha_distance, alpha_distance_brute};
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, ObjectSummary, Threshold};
use fuzzy_geom::{LevelFilter, Point};
use fuzzy_store::format::{decode_object, encode_object};
use proptest::prelude::*;

/// Arbitrary fuzzy object: quantized memberships, guaranteed kernel.
fn arb_object(id: u64, max_pts: usize) -> impl Strategy<Value = FuzzyObject<2>> {
    prop::collection::vec(((-50.0..50.0f64), (-50.0..50.0f64), (1u32..=20)), 1..max_pts).prop_map(
        move |raw| {
            let mut pts: Vec<Point<2>> = Vec::with_capacity(raw.len());
            let mut mus: Vec<f64> = Vec::with_capacity(raw.len());
            for (x, y, q) in raw {
                pts.push(Point::xy(x, y));
                mus.push(q as f64 / 20.0);
            }
            mus[0] = 1.0;
            FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
        },
    )
}

/// Objects on a half-unit lattice with four membership levels: tied
/// memberships, duplicate points, tied pair distances and both signs of
/// zero (`min`/`max` folds are order-sensitive there) — everything that
/// could tell a decoded object from the one that was encoded.
fn arb_lattice_object(id: u64, max_pts: usize) -> impl Strategy<Value = FuzzyObject<2>> {
    let coord = || {
        (-4i32..=4, any::<bool>())
            .prop_map(|(c, neg)| if c == 0 && neg { -0.0 } else { c as f64 * 0.5 })
    };
    prop::collection::vec((coord(), coord(), 1u32..=4), 1..max_pts).prop_map(move |raw| {
        let pts = raw.iter().map(|&(x, y, _)| Point::xy(x, y)).collect();
        let mut mus: Vec<f64> = raw.iter().map(|&(_, _, q)| q as f64 / 4.0).collect();
        let kernel = raw.len() / 2; // not always the first point
        mus[kernel] = 1.0;
        FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
    })
}

/// Every observable of `b` equals `a`'s bit for bit.
fn assert_observably_equal(a: &FuzzyObject<2>, b: &FuzzyObject<2>) {
    let bits = |o: &FuzzyObject<2>| -> Vec<[u64; 3]> {
        o.iter().map(|(p, mu)| [p.x().to_bits(), p.y().to_bits(), mu.to_bits()]).collect()
    };
    let mbr_bits = |m: fuzzy_geom::Mbr<2>| [m.lo(0), m.lo(1), m.hi(0), m.hi(1)].map(f64::to_bits);
    assert_eq!((a.id(), a.len()), (b.id(), b.len()));
    assert_eq!(bits(a), bits(b), "iter()");
    assert_eq!(a.points().len(), b.points().len());
    for i in 0..a.len() {
        assert_eq!(a.point(i).x().to_bits(), b.points()[i].x().to_bits());
        assert_eq!(a.point(i).y().to_bits(), b.points()[i].y().to_bits());
        assert_eq!(a.membership(i).to_bits(), b.memberships()[i].to_bits());
    }
    assert_eq!(mbr_bits(a.support_mbr()), mbr_bits(b.support_mbr()));
    assert_eq!(mbr_bits(a.kernel_mbr()), mbr_bits(b.kernel_mbr()));
    assert_eq!(a.rep_point().coords().map(f64::to_bits), b.rep_point().coords().map(f64::to_bits));
    assert_eq!(a.distinct_levels(), b.distinct_levels());
    for value in [0.0, 0.25, 0.5, 0.75, 1.0] {
        for strict in [false, true] {
            let t = Threshold { value, strict };
            assert_eq!(a.cut_len(t), b.cut_len(t), "cut_len at {t}");
            assert_eq!(cut_indices(a, t), cut_indices(b, t), "cut indices at {t}");
            assert_eq!(a.cut_mbr(t).map(mbr_bits), b.cut_mbr(t).map(mbr_bits), "cut_mbr at {t}");
            for seed in [1, 99] {
                let sample = |o: &FuzzyObject<2>| {
                    let mut idx = Vec::new();
                    o.sample_cut_indices_into(t, 3, seed, &mut idx);
                    idx
                };
                assert_eq!(sample(a), sample(b));
            }
            let f = LevelFilter { min: value, strict };
            for q in [Point::xy(0.25, -0.25), Point::xy(-2.0, 2.0), Point::xy(0.0, 0.0)] {
                let nn = |o: &FuzzyObject<2>| {
                    o.kd_tree().min_dist_sq_within(&q, f, f64::INFINITY).map(f64::sqrt)
                };
                assert_eq!(nn(a).map(f64::to_bits), nn(b).map(f64::to_bits));
            }
        }
    }
    let (pa, pb) = (a.by_membership(), b.by_membership());
    assert_eq!(pa.source_indices(), pb.source_indices());
    assert_eq!(pa.memberships(), pb.memberships());
    for d in 0..2 {
        assert_eq!(pa.coord_column(d), pb.coord_column(d));
    }
}

/// The indices of `o`'s cut at `t`, ascending: a sample of the whole cut.
fn cut_indices(o: &FuzzyObject<2>, t: Threshold) -> Vec<usize> {
    let mut idx = Vec::new();
    o.sample_cut_indices_into(t, usize::MAX, 0, &mut idx);
    idx
}

/// True when `a`'s cut contains `b`'s for every object: a lower value, or
/// the same value with `a` inclusive or both alike (`µ ≥ v ⊇ µ > v`).
fn looser_or_equal(a: Threshold, b: Threshold) -> bool {
    (a.value, a.strict) <= (b.value, b.strict)
}

fn arb_threshold() -> impl Strategy<Value = Threshold> {
    ((0u32..=20), any::<bool>())
        .prop_map(|(v, strict)| Threshold { value: v as f64 / 20.0, strict })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// α-cuts shrink as thresholds tighten (Definition 2).
    #[test]
    fn cuts_are_nested(obj in arb_object(1, 60), t1 in arb_threshold(), t2 in arb_threshold()) {
        let (loose, tight) = if looser_or_equal(t1, t2) { (t1, t2) } else { (t2, t1) };
        let tight_cut = cut_indices(&obj, tight);
        let loose_cut = cut_indices(&obj, loose);
        prop_assert!(tight_cut.iter().all(|i| loose_cut.contains(i)));
        prop_assert!(obj.cut_len(loose) >= obj.cut_len(tight));
    }

    /// Exact cut MBRs nest, and the summary's approximation sandwiches them.
    #[test]
    fn summary_approx_sandwich(obj in arb_object(2, 60), t in arb_threshold()) {
        let s = ObjectSummary::from_object(&obj);
        let approx = s.approx_cut_mbr(t);
        prop_assert!(s.support_mbr.contains_mbr(&approx));
        prop_assert!(approx.contains_mbr(&s.kernel_mbr));
        if let Some(exact) = obj.cut_mbr(t) {
            let near = |c: &[f64; 2]| approx.min_dist_point(&Point::new(*c)) <= 1e-9;
            prop_assert!(near(exact.lo_coords()) && near(exact.hi_coords()),
                "approx {:?} misses exact {:?} at {}", approx, exact, t);
        }
    }

    /// α-distance is symmetric, non-negative, monotone in α, and the two
    /// evaluators agree (Definition 3 + Section 2.1).
    #[test]
    fn alpha_distance_laws(
        a in arb_object(3, 40),
        b in arb_object(4, 40),
        t in arb_threshold(),
    ) {
        let d_fast = alpha_distance(&a, &b, t);
        let d_slow = alpha_distance_brute(&a, &b, t);
        match (d_fast, d_slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                prop_assert!((f - s).abs() < 1e-9);
                prop_assert!(f >= 0.0);
                // Symmetry.
                let back = alpha_distance(&b, &a, t).unwrap();
                prop_assert!((f - back).abs() < 1e-9);
            }
            other => prop_assert!(false, "evaluator disagreement: {:?}", other),
        }
        // Monotonicity against the support-level distance.
        if let Some(d) = d_fast {
            let d0 = alpha_distance(&a, &b, Threshold::support()).unwrap();
            prop_assert!(d0 <= d + 1e-9);
        }
    }

    /// The squared-distance kernel returns **bitwise-equal** distances to
    /// the per-pair `sqrt` oracle, whatever strategy the adaptive kernel
    /// picks (dense prefix scan, single-tree): `sqrt` is correctly rounded
    /// and monotone, so `min over sqrt(d²)` and `sqrt(min over d²)` are the
    /// same float. Objects up to 120 points straddle the dense budget
    /// across thresholds; a pre-built kd-tree on either side changes
    /// nothing (the probed side's is never read).
    #[test]
    fn squared_kernel_bitwise_equals_brute(
        a in arb_object(20, 120),
        b in arb_object(21, 120),
        t in arb_threshold(),
        pre_a in any::<bool>(),
        pre_b in any::<bool>(),
    ) {
        if pre_a { a.kd_tree(); }
        if pre_b { b.kd_tree(); }
        let fast = alpha_distance(&a, &b, t);
        let slow = alpha_distance_brute(&a, &b, t);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => prop_assert_eq!(
                f.to_bits(), s.to_bits(),
                "kernel {} != oracle {} at {} (kd pre-built: {}/{})", f, s, t, pre_a, pre_b
            ),
            other => prop_assert!(false, "evaluator disagreement: {:?}", other),
        }
    }

    /// The membership-descending prefix layout selects exactly the α-cut:
    /// `prefix_len` equals the scan count, memberships descend, the prefix
    /// point multiset equals the filtered original points, and everything
    /// past the prefix fails the threshold.
    #[test]
    fn prefix_layout_is_the_alpha_cut(obj in arb_object(22, 80), t in arb_threshold()) {
        let p = obj.by_membership();
        let n = p.prefix_len(t);
        prop_assert_eq!(n, obj.cut_len(t));
        for w in p.memberships().windows(2) {
            prop_assert!(w[0] >= w[1], "memberships must descend");
        }
        for (i, &mu) in p.memberships().iter().enumerate() {
            prop_assert_eq!(t.accepts(mu), i < n, "prefix boundary wrong at {}", i);
        }
        // Same point multiset as the filter over the original layout
        // (compare via sorted total order).
        let mut want: Vec<_> = obj
            .iter()
            .filter(|&(_, mu)| t.accepts(mu))
            .map(|(pt, _)| *pt)
            .collect();
        let mut got: Vec<_> =
            (0..n).map(|j| Point::xy(p.coord_column(0)[j], p.coord_column(1)[j])).collect();
        want.sort_by(|x, y| x.lex_cmp(y));
        got.sort_by(|x, y| x.lex_cmp(y));
        prop_assert_eq!(got, want);
        // Slot by slot, the columns hold the source point the permutation
        // names, with its membership.
        for (j, &i) in p.source_indices().iter().enumerate() {
            let (pt, mu) = (obj.point(i as usize), obj.membership(i as usize));
            prop_assert_eq!(p.memberships()[j].to_bits(), mu.to_bits());
            for d in 0..2 {
                prop_assert_eq!(p.coord_column(d)[j].to_bits(), pt.coords()[d].to_bits());
            }
        }
    }

    /// A decoded object holds its record's columns and derives construction
    /// order lazily; one built by `new` does the reverse. Nothing observable
    /// may tell them apart — whichever view is touched first, and when two
    /// threads race the first touch.
    #[test]
    fn decoded_object_is_observably_the_encoded_one(a in arb_lattice_object(30, 41)) {
        let record = encode_object(&a);
        let decode = || decode_object::<2>(&record).unwrap();

        let prefix_first = decode();
        prop_assert!(prefix_first.prefix_ready());
        let _ = prefix_first.by_membership().coord_column(0);
        assert_observably_equal(&a, &prefix_first);

        let points_first = decode();
        let _ = points_first.points();
        assert_observably_equal(&a, &points_first);

        let raced = decode();
        let barrier = std::sync::Barrier::new(2);
        let (order, tree) = std::thread::scope(|s| {
            let order = s.spawn(|| {
                barrier.wait();
                raced.points().as_ptr() as usize
            });
            let tree = s.spawn(|| {
                barrier.wait();
                raced.kd_tree() as *const _ as usize
            });
            (order.join().unwrap(), tree.join().unwrap())
        });
        // Both threads settled on the one cached copy of each view.
        prop_assert_eq!(order, raced.points().as_ptr() as usize);
        prop_assert_eq!(tree, raced.kd_tree() as *const _ as usize);
        assert_observably_equal(&a, &raced);

        // And the reverse derivation: a fresh `new` object whose prefix is
        // touched before anything else re-encodes to the same bytes.
        let rebuilt =
            FuzzyObject::new(a.id(), raced.points().to_vec(), raced.memberships().to_vec()).unwrap();
        prop_assert_eq!(encode_object(&rebuilt), record);
    }

    /// Bound-seeded evaluation: a seed strictly above the true distance
    /// preserves the exact answer bitwise; a seed at or below it prunes
    /// everything (the documented `None`-on-seed contract).
    #[test]
    fn seeded_evaluation_is_exact_or_none(
        a in arb_object(23, 60),
        b in arb_object(24, 60),
        t in arb_threshold(),
        slack in 1e-9..1.0f64,
    ) {
        use fuzzy_core::distance::alpha_distance_sq_bounded;
        if let Some(exact) = alpha_distance_brute(&a, &b, t) {
            let bounded = |bound: f64| alpha_distance_sq_bounded(&a, &b, t, bound * bound);
            let above = bounded(exact * (1.0 + slack) + f64::MIN_POSITIVE);
            prop_assert_eq!(above.map(|d_sq| d_sq.sqrt().to_bits()), Some(exact.to_bits()));
            prop_assert_eq!(bounded(exact * (1.0 - slack.min(0.5))), None);
        }
    }

    /// The sweep profile equals the brute-force Pareto profile, and lookups
    /// into it match direct evaluation at arbitrary thresholds.
    #[test]
    fn profile_is_faithful(
        a in arb_object(5, 30),
        q in arb_object(6, 30),
        t in arb_threshold(),
    ) {
        let fast = DistanceProfile::compute(&a, &q);
        let slow = DistanceProfile::compute_brute(&a, &q);
        prop_assert_eq!(fast.segments().len(), slow.segments().len());
        for (f, s) in fast.segments().iter().zip(slow.segments()) {
            prop_assert!((f.level - s.level).abs() < 1e-12);
            prop_assert!((f.dist - s.dist).abs() < 1e-12);
        }
        let via = fast.value_at(t);
        let direct = alpha_distance_brute(&a, &q, t);
        match (via, direct) {
            (None, None) => {}
            (Some(p), Some(d)) => prop_assert!((p - d).abs() < 1e-9),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// Critical probabilities really are change points: the distance just
    /// above a critical value differs from the value at it; and within a
    /// segment the distance is constant (Definition 7 / Lemma 2).
    #[test]
    fn critical_set_marks_changes(a in arb_object(7, 30), q in arb_object(8, 30)) {
        let prof = DistanceProfile::compute(&a, &q);
        let omega: Vec<f64> = prof.critical_set().collect();
        prop_assert_eq!(*omega.last().unwrap(), 1.0);
        for (i, &crit) in omega.iter().enumerate() {
            let at = prof.value_at(Threshold::at(crit)).unwrap();
            if crit < 1.0 {
                let after = prof.value_at(Threshold::above(crit)).unwrap();
                prop_assert!(after > at, "no change above critical {}", crit);
            }
            if i > 0 {
                // Constant within the segment: value just above the previous
                // critical equals the value at this critical.
                let inside = prof.value_at(Threshold::above(omega[i - 1])).unwrap();
                prop_assert!((inside - at).abs() < 1e-12);
            }
        }
    }

    /// α-distance is monotone non-decreasing in α (Section 2.1): tightening
    /// the threshold shrinks both cuts, so the closest pair can only move
    /// apart. The foundation of RKNN's qualifying-range reasoning.
    #[test]
    fn alpha_distance_monotone_in_alpha(
        a in arb_object(10, 40),
        b in arb_object(11, 40),
        t1 in arb_threshold(),
        t2 in arb_threshold(),
    ) {
        let (loose, tight) = if looser_or_equal(t1, t2) { (t1, t2) } else { (t2, t1) };
        match (alpha_distance(&a, &b, loose), alpha_distance(&a, &b, tight)) {
            (Some(dl), Some(dt)) => prop_assert!(
                dl <= dt + 1e-9,
                "d at loose {loose} is {dl} > d at tight {tight} is {dt}"
            ),
            // A non-empty tight cut implies a non-empty loose cut.
            (None, Some(_)) => prop_assert!(false, "cut vanished at the looser threshold"),
            _ => {}
        }
    }

    /// Boundary functions are non-negative, non-increasing and vanish at 1.
    #[test]
    fn boundary_function_shape(obj in arb_object(9, 60)) {
        let bf = BoundaryFunctions::compute(&obj);
        for dim in 0..2 {
            let ups = bf.upper_samples(dim);
            let los = bf.lower_samples(dim);
            prop_assert_eq!(ups.last().unwrap().1, 0.0);
            prop_assert_eq!(los.last().unwrap().1, 0.0);
            for w in ups.windows(2) {
                prop_assert!(w[0].1 >= w[1].1 - 1e-12);
                prop_assert!(w[0].0 < w[1].0);
            }
            for w in los.windows(2) {
                prop_assert!(w[0].1 >= w[1].1 - 1e-12);
            }
        }
    }
}

/// `n` points of the unit disc around `(cx, 0)` on three membership rings
/// (0.8 / 0.5 / 0.3 outwards), the kernel point first and just off the
/// centre, followed by `decoys` points of membership 0.1 on `decoy_at`.
fn ringed_disc(
    seed: u64,
    n: usize,
    cx: f64,
    decoys: usize,
    decoy_at: Point<2>,
) -> (Vec<Point<2>>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = vec![Point::xy(cx + 0.03 * rnd(), 0.03 * rnd())];
    let mut mus = vec![1.0];
    for _ in 1..n {
        let (r, th) = (rnd(), rnd() * std::f64::consts::TAU);
        pts.push(Point::xy(cx + r * th.cos(), r * th.sin()));
        mus.push(if r < 0.4 {
            0.8
        } else if r < 0.8 {
            0.5
        } else {
            0.3
        });
    }
    pts.extend(std::iter::repeat(decoy_at).take(decoys));
    mus.extend(std::iter::repeat(0.1).take(decoys));
    (pts, mus)
}

/// The kernel's tree strategy on the shape the engine runs — a probed
/// object straight from the record codec against a resident query — across
/// probed sizes around the gap pass's block boundaries and the four ways two
/// discs can lie: bitwise the brute oracle under inclusive and strict cuts
/// and under seeds ∞ / the next float up / at the answer; the probed side
/// is never indexed, the query's tree is built and the query never sorted;
/// and points below the cut (a decoy on the query's kernel point) change
/// nothing.
#[test]
fn blocked_chain_matches_brute_across_sizes_and_relations() {
    use fuzzy_core::distance::alpha_distance_sq_bounded;
    let relations = [("separated", 3.0), ("touching", 2.0), ("half", 1.0), ("concentric", 0.0)];
    for n in [1usize, 63, 64, 65, 127, 128, 129, 1000] {
        // Large enough that every cut product clears the dense budget
        // (65 536 pairs): the kernel must build and search the query's tree.
        let (qp, qm) = ringed_disc(n as u64 + 500, 2 * 65_536 / n + 64, 0.0, 0, Point::origin());
        let q_kernel = qp[0];
        let cold = FuzzyObject::new(ObjectId(2), qp, qm).unwrap();
        let resident = cold.clone();
        resident.kd_tree();
        for (relation, dx) in relations {
            let build = |decoys| {
                let (p, m) = ringed_disc(n as u64, n, dx, decoys, q_kernel);
                FuzzyObject::new(ObjectId(1), p, m).unwrap()
            };
            let plain = build(0);
            let probed = decode_object::<2>(&encode_object(&plain)).unwrap();
            let decoyed = decode_object::<2>(&encode_object(&build(40))).unwrap();
            for t in [Threshold::at(0.3), Threshold::above(0.3)] {
                let tag = format!("n {n} {relation} {t}");
                let want = alpha_distance_brute(&plain, &cold, t).expect("both cuts hold a kernel");
                assert!(want > 0.0, "{tag}: the seeds below need a positive answer");
                let fresh = cold.clone();
                for (a, q) in [(&probed, &resident), (&decoyed, &resident), (&decoyed, &fresh)] {
                    let got = alpha_distance_sq_bounded(a, q, t, f64::INFINITY).expect(&tag);
                    assert_eq!(got.sqrt().to_bits(), want.to_bits(), "{tag}");
                    let above = f64::from_bits(got.to_bits() + 1);
                    assert_eq!(alpha_distance_sq_bounded(a, q, t, above), Some(got), "{tag}");
                    assert_eq!(alpha_distance_sq_bounded(a, q, t, got), None, "{tag}");
                    assert!(!a.kd_tree_ready(), "{tag}: the probed side is never indexed");
                    assert!(
                        q.kd_tree_ready() && !q.prefix_ready(),
                        "{tag}: tree built, q unsorted"
                    );
                }
            }
        }
    }

    // Two relations for the occupancy bitmap in front of the descent. One
    // it is made for: two 1 000-point discs sharing a centre, seeded 5 %
    // above the answer — nearly every probed point sits inside the query's
    // box, in a gap between its points. One it must not break: a probed
    // side whose every point lies outside the query's box by less than a
    // cell of the bitmap's grid (the smallest `w` with `w² ≥ 128·n` cells a
    // side), where the gap pass rejects nothing and the block around each
    // point hangs over the grid's edge.
    let (qp, qm) = ringed_disc(77, 1000, 0.0, 0, Point::origin());
    let cold = FuzzyObject::new(ObjectId(2), qp, qm).unwrap();
    let resident = cold.clone();
    let (lo, hi) = (*resident.kd_tree().mbr().lo_coords(), *resident.kd_tree().mbr().hi_coords());
    let w = (1..).find(|w| w * w >= 128 * 1000).unwrap() as f64;
    let (cx, cy) = ((hi[0] - lo[0]) / w, (hi[1] - lo[1]) / w);
    let mut rim = Vec::new();
    for i in 0..50 {
        let s = i as f64 / 49.0;
        let (x, y) = (lo[0] + s * (hi[0] - lo[0]), lo[1] + s * (hi[1] - lo[1]));
        rim.extend([
            Point::xy(x, lo[1] - 0.5 * cy),
            Point::xy(x, hi[1] + 0.9 * cy),
            Point::xy(lo[0] - 0.9 * cx, y),
            Point::xy(hi[0] + 0.5 * cx, y),
        ]);
    }
    let rim_mus = (0..rim.len()).map(|i| if i == 0 { 1.0 } else { 0.5 }).collect();
    let (cp, cm) = ringed_disc(78, 1000, 0.0, 0, Point::origin());
    for (relation, points, mus) in [("concentric 1000", cp, cm), ("rim", rim, rim_mus)] {
        let plain = FuzzyObject::new(ObjectId(1), points, mus).unwrap();
        let probed = decode_object::<2>(&encode_object(&plain)).unwrap();
        for t in [Threshold::at(0.3), Threshold::above(0.3)] {
            let tag = format!("{relation} {t}");
            let want = alpha_distance_brute(&plain, &cold, t).expect("both cuts hold a kernel");
            assert!(want > 0.0, "{tag}: the seeds below need a positive answer");
            let got = alpha_distance_sq_bounded(&probed, &resident, t, f64::INFINITY).expect(&tag);
            assert_eq!(got.sqrt().to_bits(), want.to_bits(), "{tag}");
            for seed in [got * 1.05 * 1.05, f64::from_bits(got.to_bits() + 1)] {
                assert_eq!(
                    alpha_distance_sq_bounded(&probed, &resident, t, seed),
                    Some(got),
                    "{tag}"
                );
            }
            assert_eq!(alpha_distance_sq_bounded(&probed, &resident, t, got), None, "{tag}");
            assert!(!probed.kd_tree_ready(), "{tag}: the probed side is never indexed");
        }
    }
}
