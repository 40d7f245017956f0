//! Differential suite for the bounded distance-profile sweep.
//!
//! `DistanceProfile::compute` must return the same **bits** as the
//! all-pairs Pareto frontier (`compute_brute`) and as the unseeded sweep it
//! replaced (one full `nn_filtered` per activated point, kept here as
//! [`unseeded_sweep`]) — on every geometric relation between the two
//! objects, on continuous and quantised memberships, and whichever path the
//! candidate side takes: dense prefix scan (no kd-tree yet) or seeded tree
//! search (tree pre-built).

use fuzzy_core::profile::Segment;
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId};
use fuzzy_geom::{LevelFilter, Point};

/// Deterministic xorshift in `[0, 1)`.
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A disc of `n` points around `(cx, cy)`; membership falls with the
/// distance from the centre, rounded to `1/quant` steps when `quant > 0`.
fn disc(seed: u64, n: usize, cx: f64, cy: f64, radius: f64, quant: f64) -> FuzzyObject<2> {
    let mut rnd = rng(seed);
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..n {
        let (r, th) = (rnd(), rnd() * std::f64::consts::TAU);
        pts.push(Point::xy(cx + radius * r * th.cos(), cy + radius * r * th.sin()));
        let mu = (1.0 - r).clamp(1e-3, 1.0);
        mus.push(if quant > 0.0 { ((mu * quant).ceil() / quant).min(1.0) } else { mu });
    }
    FuzzyObject::new(ObjectId(seed), pts, mus).unwrap()
}

/// The same object without any cached structure.
fn fresh(o: &FuzzyObject<2>) -> FuzzyObject<2> {
    FuzzyObject::new(o.id(), o.points().to_vec(), o.memberships().to_vec()).unwrap()
}

/// The sweep this PR replaced, verbatim in behaviour: distinct levels
/// collected and sorted, one unseeded `nn_filtered` (a `sqrt` each) per
/// activated point, one raw step per level.
fn unseeded_sweep(a: &FuzzyObject<2>, q: &FuzzyObject<2>) -> Vec<Segment> {
    let mut levels: Vec<f64> = a.memberships().iter().chain(q.memberships()).copied().collect();
    levels.sort_by(|x, y| y.total_cmp(x));
    levels.dedup();
    let (pa, pq) = (a.by_membership(), q.by_membership());
    let (tree_a, tree_q) = (a.kd_tree(), q.kd_tree());
    let (mut ca, mut cq) = (0, 0);
    let mut best = f64::INFINITY;
    let mut steps: Vec<Segment> = Vec::new(); // descending in level
    for &level in &levels {
        let filter = LevelFilter::at_least(level);
        while ca < pa.points().len() && pa.memberships()[ca] >= level {
            if let Some((_, d)) = tree_q.nn_filtered(&pa.points()[ca], filter) {
                best = best.min(d);
            }
            ca += 1;
        }
        while cq < pq.points().len() && pq.memberships()[cq] >= level {
            if let Some((_, d)) = tree_a.nn_filtered(&pq.points()[cq], filter) {
                best = best.min(d);
            }
            cq += 1;
        }
        // Keep, per distance, the largest level at which it holds.
        if steps.last().map_or(true, |s| best < s.dist) {
            steps.push(Segment { level, dist: best });
        }
    }
    steps.reverse();
    steps
}

fn bits(segs: &[Segment]) -> Vec<(u64, u64)> {
    segs.iter().map(|s| (s.level.to_bits(), s.dist.to_bits())).collect()
}

/// Every evaluation order of one pair: dense path, tree path, both
/// argument orders (the profile is symmetric), against both references.
fn check_pair(name: &str, a: &FuzzyObject<2>, q: &FuzzyObject<2>) {
    let want = bits(DistanceProfile::compute_brute(a, q).segments());
    assert_eq!(bits(&unseeded_sweep(&fresh(a), &fresh(q))), want, "{name}: replaced sweep");
    for (x, y) in [(a, q), (q, a)] {
        let (cand, query) = (fresh(x), fresh(y));
        let dense = DistanceProfile::compute(&cand, &query);
        assert!(!cand.kd_tree_ready(), "{name}: the sweep built a candidate tree");
        assert!(query.kd_tree_ready());
        assert_eq!(bits(dense.segments()), want, "{name}: dense candidate path");

        cand.kd_tree();
        let treed = DistanceProfile::compute(&cand, &query);
        assert_eq!(bits(treed.segments()), want, "{name}: pre-built candidate tree");
        assert_eq!(dense.segments(), treed.segments(), "{name}");
    }
}

#[test]
fn geometric_relations_continuous_and_quantised() {
    // (name, centre and radius of the second disc; the first is the unit
    // disc of radius 2 at the origin).
    let relations = [
        ("disjoint", 9.0, 1.0, 2.0),
        ("far", 400.0, -250.0, 2.0),
        ("touching", 4.0, 0.0, 2.0),
        ("overlapping", 1.5, 0.5, 2.0),
        ("nested", 0.25, -0.25, 0.5),
        ("concentric", 0.0, 0.0, 1.0),
    ];
    for quant in [0.0, 4.0, 10.0, 64.0] {
        for (i, &(name, cx, cy, radius)) in relations.iter().enumerate() {
            for seed in 1..=4u64 {
                let a = disc(seed, 90, 0.0, 0.0, 2.0, quant);
                let q = disc(100 * (i as u64 + 1) + seed, 70, cx, cy, radius, quant);
                check_pair(&format!("{name} quant {quant} seed {seed}"), &a, &q);
            }
        }
    }
}

#[test]
fn sizes_around_the_leaf_and_lane_widths() {
    // 1-point objects, sub-leaf, exactly one kd leaf (16), and sizes that
    // leave every remainder of the 4-wide lane kernel.
    let sizes = [1usize, 2, 3, 5, 15, 16, 17, 33, 130];
    for (i, &na) in sizes.iter().enumerate() {
        for (j, &nq) in sizes.iter().enumerate() {
            let a = disc(7 + i as u64, na, 0.0, 0.0, 1.0, 8.0);
            let q = disc(70 + j as u64, nq, 1.2, 0.3, 1.0, 0.0);
            check_pair(&format!("{na} x {nq}"), &a, &q);
        }
    }
}

#[test]
fn duplicate_points_and_shared_locations() {
    // Each location appears several times with different memberships, and
    // the two objects share locations (distance 0 at low levels).
    let mut rnd = rng(99);
    let sites: Vec<Point<2>> = (0..12).map(|_| Point::xy(rnd() * 3.0, rnd() * 3.0)).collect();
    let build = |id: u64, offset: usize, step: usize| {
        let mut pts = vec![sites[offset]];
        let mut mus = vec![1.0];
        for i in 0..40 {
            pts.push(sites[(offset + i * step) % sites.len()]);
            mus.push(((i % 7) + 1) as f64 / 8.0);
        }
        FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
    };
    let (a, q) = (build(1, 0, 5), build(2, 3, 7));
    check_pair("duplicates", &a, &q);
    assert_eq!(DistanceProfile::compute(&a, &q).segments()[0].dist, 0.0);
    // All points identical on one side.
    let dot = FuzzyObject::new(ObjectId(3), vec![Point::xy(1.0, 1.0); 20], {
        let mut m = vec![0.5; 20];
        m[0] = 1.0;
        m
    })
    .unwrap();
    check_pair("dot", &dot, &a);
    check_pair("self", &a, &a);
}

#[test]
fn three_dimensions_take_the_same_paths() {
    let mut rnd = rng(5);
    let mut cloud = |id: u64, n: usize, shift: f64| {
        let mut pts = vec![Point::new([shift, 0.0, 0.0])];
        let mut mus = vec![1.0];
        for _ in 1..n {
            pts.push(Point::new([shift + rnd(), rnd(), rnd()]));
            mus.push((rnd() * 6.0).ceil().max(1.0) / 6.0);
        }
        FuzzyObject::<3>::new(ObjectId(id), pts, mus).unwrap()
    };
    for shift in [0.2, 1.0, 5.0] {
        let (a, q) = (cloud(1, 60, 0.0), cloud(2, 45, shift));
        let want = DistanceProfile::compute_brute(&a, &q);
        let dense = DistanceProfile::compute(&a, &q);
        assert!(!a.kd_tree_ready());
        a.kd_tree();
        let treed = DistanceProfile::compute(&a, &q);
        for got in [&dense, &treed] {
            assert_eq!(got.segments().len(), want.segments().len(), "shift {shift}");
            for (g, w) in got.segments().iter().zip(want.segments()) {
                assert_eq!(g.level.to_bits(), w.level.to_bits(), "shift {shift}");
                assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "shift {shift}");
            }
        }
    }
}
