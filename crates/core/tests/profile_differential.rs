//! Differential suite for the windowed distance-profile sweep.
//!
//! `DistanceProfile::compute` — the widest window — must return the same
//! **bits** as the all-pairs Pareto frontier (`compute_brute`) and as the
//! unseeded sweep it replaced (one full kd search per activated point,
//! kept here as [`unseeded_sweep`]) — on every geometric relation between
//! the two objects, on continuous and quantised memberships, and whether or
//! not the candidate side happens to carry a kd-tree (the sweep never
//! builds one there and answers the same either way).
//!
//! `DistanceProfile::compute_window` must, for every window `[lo, hi]`,
//! answer every threshold in the window exactly like the brute profile,
//! hold exactly its segments with `lo ≤ level < hi` plus `(1.0, d_hi)`, do
//! so with the top distance computed or handed in, and never depend on a
//! point whose membership lies below `lo` ([`check_window`]).

use fuzzy_core::distance::alpha_distance_sq_bounded;
use fuzzy_core::profile::Segment;
use fuzzy_core::{DistanceProfile, FuzzyObject, MembershipPrefix, ObjectId, Threshold};
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

/// Slot `j` of a prefix's columns as a point.
fn slot(p: &MembershipPrefix<2>, j: usize) -> Point<2> {
    Point::xy(p.coord_column(0)[j], p.coord_column(1)[j])
}

/// The sweep the bounded one replaced, verbatim in behaviour: distinct
/// levels collected and sorted, one unseeded kd search (a `sqrt` each) per
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
        while ca < a.len() && pa.memberships()[ca] >= level {
            if let Some(d) =
                tree_q.min_dist_sq_within(&slot(pa, ca), filter, f64::INFINITY).map(f64::sqrt)
            {
                best = best.min(d);
            }
            ca += 1;
        }
        while cq < q.len() && pq.memberships()[cq] >= level {
            if let Some(d) =
                tree_a.min_dist_sq_within(&slot(pq, cq), filter, f64::INFINITY).map(f64::sqrt)
            {
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

/// Both argument orders of one pair (the profile is symmetric), the
/// candidate with and without a kd-tree of its own, against both
/// references. The sweep never builds the candidate's tree.
fn check_pair(name: &str, a: &FuzzyObject<2>, q: &FuzzyObject<2>) {
    let want = bits(DistanceProfile::compute_brute(a, q).segments());
    assert_eq!(bits(&unseeded_sweep(&fresh(a), &fresh(q))), want, "{name}: replaced sweep");
    for (x, y) in [(a, q), (q, a)] {
        let (cand, query) = (fresh(x), fresh(y));
        let bare = DistanceProfile::compute(&cand, &query);
        assert!(!cand.kd_tree_ready(), "{name}: the sweep built a candidate tree");
        assert_eq!(bits(bare.segments()), want, "{name}: candidate without a tree");

        cand.kd_tree();
        let treed = DistanceProfile::compute(&cand, &query);
        assert_eq!(bits(treed.segments()), want, "{name}: candidate with a tree");
    }
}

/// `a` with every point below membership `lo` moved onto `site`.
fn decoy_below(a: &FuzzyObject<2>, lo: f64, site: Point<2>) -> FuzzyObject<2> {
    let pts = a.iter().map(|(p, mu)| if mu < lo { site } else { *p }).collect();
    FuzzyObject::new(a.id(), pts, a.memberships().to_vec()).unwrap()
}

/// Everything a window promises (module docs of `fuzzy_core::profile`),
/// held against the brute profile of the same pair: with the top distance
/// computed and handed in, with and without a kd-tree on the candidate.
fn check_window(
    name: &str,
    a: &FuzzyObject<2>,
    q: &FuzzyObject<2>,
    brute: &DistanceProfile,
    (lo, hi): (f64, f64),
) {
    let name = format!("{name} window [{lo}, {hi}]");
    let inside: Vec<Segment> =
        brute.segments().iter().copied().filter(|s| lo <= s.level && s.level < hi).collect();
    let d_hi = brute.value_at(Threshold::at(hi)).unwrap();
    let top_sq = alpha_distance_sq_bounded(&fresh(a), &fresh(q), Threshold::at(hi), f64::INFINITY);
    assert_eq!(top_sq.unwrap().sqrt().to_bits(), d_hi.to_bits(), "{name}: kernel top");

    // Thresholds in the window: its ends, its midpoint and every critical
    // level inside, inclusive and strict (strict at `hi` selects the levels
    // above the window). Bounds: every distance the staircase takes inside,
    // and the next float up (the test is a strict `<`).
    let mut values = vec![lo, hi, 0.5 * (lo + hi)];
    values.extend(brute.critical_set().filter(|&l| lo <= l && l <= hi));
    let thresholds: Vec<Threshold> = values
        .iter()
        .flat_map(|&value| [false, true].map(|strict| Threshold { value, strict }))
        .filter(|t| !(t.strict && t.value >= hi))
        .collect();
    let mut bounds = vec![0.0, f64::INFINITY];
    for t in &thresholds {
        let d = brute.value_at(*t).unwrap();
        bounds.extend([d, f64::from_bits(d.to_bits() + 1)]);
    }

    // A candidate that differs only below `lo` — there, every point sits on
    // the query's first kernel point, at distance 0 — must give the same
    // window: no point below `lo` takes part.
    let decoy = decoy_below(a, lo, q.rep_point());
    let clamp = |l: Option<f64>| l.map(|l| l.min(hi).to_bits());
    for (cand_src, which) in [(a, "as is"), (&decoy, "decoy")] {
        for known in [None, top_sq] {
            for treed in [false, true] {
                let name = format!("{name} candidate {which} top {known:?} treed {treed}");
                let (cand, query) = (fresh(cand_src), fresh(q));
                if treed {
                    cand.kd_tree();
                }
                let win = DistanceProfile::compute_window(&cand, &query, lo, hi, known);
                assert_eq!(cand.kd_tree_ready(), treed, "{name}: candidate tree");
                let (last, below) = win.segments().split_last().unwrap();
                assert_eq!(bits(below), bits(&inside), "{name}: segments inside");
                assert_eq!(bits(&[*last]), bits(&[Segment { level: 1.0, dist: d_hi }]), "{name}");
                for &t in &thresholds {
                    assert_eq!(
                        win.value_at(t).map(f64::to_bits),
                        brute.value_at(t).map(f64::to_bits),
                        "{name}: value at {t}"
                    );
                    assert_eq!(
                        clamp(win.next_critical(t)),
                        clamp(brute.next_critical(t)),
                        "{name}: next critical at {t}"
                    );
                }
                for &b in &bounds {
                    assert_eq!(
                        clamp(win.max_level_with_dist_below(b)),
                        clamp(brute.max_level_with_dist_below(b).filter(|&l| l >= lo)),
                        "{name}: max level below {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn geometric_relations_continuous_and_quantised() {
    for quant in [0.0, 4.0, 10.0, 64.0] {
        for (i, &(name, cx, cy, radius)) in RELATIONS.iter().enumerate() {
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

/// The six relations of a second disc to the disc of radius 2 at the
/// origin: `(name, centre x, centre y, radius)`.
const RELATIONS: [(&str, f64, f64, f64); 6] = [
    ("disjoint", 9.0, 1.0, 2.0),
    ("far", 400.0, -250.0, 2.0),
    ("touching", 4.0, 0.0, 2.0),
    ("overlapping", 1.5, 0.5, 2.0),
    ("nested", 0.25, -0.25, 0.5),
    ("concentric", 0.0, 0.0, 1.0),
];

/// One membership shape of the window suite: 6 relations × 17 seeds = 102
/// pairs of 20- to 320-point discs (408 over the four shapes below),
/// argument order alternating with the seed; each pair under the fixed
/// windows (the whole range, the paper's default, one open at either end, a
/// point, the kernel alone) and two windows whose ends are membership
/// levels the pair holds.
fn windows_match_the_brute_profile(quant: f64) {
    let sizes = [20usize, 47, 90, 160, 320];
    for (i, &(name, cx, cy, radius)) in RELATIONS.iter().enumerate() {
        for seed in 1..=17u64 {
            let (na, nq) = (sizes[seed as usize % 5], sizes[(seed as usize / 2 + i) % 5]);
            let a = disc(seed, na, 0.0, 0.0, 2.0, quant);
            let q = disc(100 * (i as u64 + 1) + seed, nq, cx, cy, radius, quant);
            let (a, q) = if seed % 2 == 0 { (q, a) } else { (a, q) };
            let brute = DistanceProfile::compute_brute(&a, &q);
            let mut levels: Vec<f64> = a.distinct_levels();
            levels.extend(q.distinct_levels());
            levels.sort_by(f64::total_cmp);
            let held = |eighth: usize| levels[levels.len() * eighth / 8];
            let windows = [
                (0.0, 1.0),
                (0.3, 0.7),
                (0.0, 0.45),
                (0.55, 1.0),
                (0.5, 0.5),
                (1.0, 1.0),
                (held(2), held(6)),
                (held(5), held(5)),
            ];
            for window in windows {
                check_window(&format!("{name} quant {quant} seed {seed}"), &a, &q, &brute, window);
            }
        }
    }
}

#[test]
fn windows_continuous_levels() {
    windows_match_the_brute_profile(0.0);
}

#[test]
fn windows_4_levels() {
    windows_match_the_brute_profile(4.0);
}

#[test]
fn windows_10_levels() {
    windows_match_the_brute_profile(10.0);
}

#[test]
fn windows_64_levels() {
    windows_match_the_brute_profile(64.0);
}

/// Euclidean distance with no hook overridden: profiles come from the
/// provided `Metric::distance_profile`, i.e. `DistanceProfile::from_pairs`
/// over the full enumeration.
struct BareL2;

impl fuzzy_core::Metric<2> for BareL2 {
    fn name(&self) -> &'static str {
        "bare-l2"
    }
    fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        a.dist(b)
    }
}

#[test]
fn default_profile_hook_handles_a_level_per_pair() {
    // Continuous memberships: nearly every one of the 360 000 pairs has a
    // level of its own, which `from_pairs` used to pay a full pass for.
    use fuzzy_core::Metric;
    let a = disc(61, 600, 0.0, 0.0, 2.0, 0.0);
    let q = disc(62, 600, 1.5, 0.5, 2.0, 0.0);
    let by_pairs = BareL2.distance_profile(&a, &q);
    assert!(by_pairs.segments().len() > 20);
    assert_eq!(bits(by_pairs.segments()), bits(DistanceProfile::compute(&a, &q).segments()));
    // The provided window hook is the full profile.
    let windowed = BareL2.distance_profile_window(&a, &q, 0.3, 0.7, None);
    assert_eq!(bits(windowed.segments()), bits(by_pairs.segments()));
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
        let bare = DistanceProfile::compute(&a, &q);
        assert!(!a.kd_tree_ready());
        a.kd_tree();
        let treed = DistanceProfile::compute(&a, &q);
        for got in [&bare, &treed] {
            assert_eq!(got.segments().len(), want.segments().len(), "shift {shift}");
            for (g, w) in got.segments().iter().zip(want.segments()) {
                assert_eq!(g.level.to_bits(), w.level.to_bits(), "shift {shift}");
                assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "shift {shift}");
            }
        }
    }
}
