//! The kernel-equivalence differential suite: the flat implicit
//! [`KdTree`]'s point search, `min_dist_sq_within`, must return
//! **bit-identical** distances to the arena tree ([`ArenaKdTree`], kept in
//! `tests/arena/`) and to a brute-force oracle, and its box search,
//! `any_within_box_sq`, the brute scan's verdict, across point counts
//! straddling every leaf-size boundary, α levels, strictness,
//! dimensionalities, and adversarial inputs (NaN coordinates, degenerate
//! membership distributions, duplicated points).
//!
//! The contract being locked down:
//!
//! * the search returns the smallest squared distance **strictly** below
//!   the cap, and `None` exactly when no accepted point lies below it — at
//!   any cap, the caps and query points that straddle every threshold of
//!   the tree's occupancy bitmap (the O(1) "no" in front of the descent)
//!   included — regardless of tree shape or traversal order;
//! * the box search answers true exactly when some accepted point's
//!   squared gap to the box is strictly below the cap — at caps of 0, the
//!   smallest normal, +∞ and NaN too, and for boxes degenerate to a point
//!   or a segment;
//! * points with NaN coordinates never win and never poison an answer
//!   (their candidate distance is NaN, which every evaluator ignores the
//!   same way).

mod arena;

use arena::ArenaKdTree;
use fuzzy_geom::{KdTree, LevelFilter, Point};
use proptest::prelude::*;

/// splitmix64 — deterministic, dependency-free.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Membership distribution shapes the sweep exercises.
#[derive(Clone, Copy, Debug)]
enum MuShape {
    /// Continuous values in (0, 1].
    Continuous,
    /// Every µ drawn from {0.2, 0.5, 0.8, 1.0} — heavy ties in the leaf
    /// sort, prefix boundaries landing between equal values.
    Quantized,
    /// All memberships exactly 1.0 — the fully degenerate case where the
    /// leaf order is decided by index tie-breaks alone.
    AllOnes,
}

/// A D-dimensional cloud; `nan_every` > 0 poisons one coordinate of every
/// `nan_every`-th point, `dup_every` > 0 duplicates every `dup_every`-th
/// point exactly (forcing zero-distance ties).
fn cloud<const D: usize>(
    seed: u64,
    n: usize,
    shape: MuShape,
    nan_every: usize,
    dup_every: usize,
) -> (Vec<Point<D>>, Vec<f64>) {
    let mut rng = Mix(seed);
    let mut pts: Vec<Point<D>> = Vec::with_capacity(n);
    let mut mus = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = [0.0; D];
        for x in c.iter_mut() {
            *x = rng.f64() * 20.0 - 10.0;
        }
        if dup_every > 0 && i % dup_every == 0 && i > 0 {
            c = *pts[i / 2].coords();
        }
        if nan_every > 0 && i % nan_every == nan_every - 1 {
            c[i % D] = f64::NAN;
        }
        pts.push(Point::new(c));
        let mu = match shape {
            MuShape::Continuous => (rng.f64() * 0.999 + 0.001).min(1.0),
            MuShape::Quantized => [0.2, 0.5, 0.8, 1.0][(rng.next() % 4) as usize],
            MuShape::AllOnes => 1.0,
        };
        mus.push(mu);
    }
    // Like fuzzy objects: guarantee a kernel point.
    mus[0] = 1.0;
    (pts, mus)
}

/// Brute-force oracle with the search's contract: the smallest squared
/// distance to an accepted point strictly below `cap_sq`, NaN distances
/// ignored.
fn brute_min<const D: usize>(
    pts: &[Point<D>],
    mus: &[f64],
    q: &Point<D>,
    f: LevelFilter,
    cap_sq: f64,
) -> Option<f64> {
    let mut best = cap_sq;
    for (p, &mu) in pts.iter().zip(mus) {
        // NaN fails the comparison, exactly like the kernels.
        let d2 = p.dist_sq(q);
        if f.accepts(mu) && d2 < best {
            best = d2;
        }
    }
    (best < cap_sq).then_some(best)
}

/// Run the full three-way comparison for one cloud and one filter, over a
/// battery of query points (random, on-point, far away).
fn check_cloud<const D: usize>(pts: &[Point<D>], mus: &[f64], f: LevelFilter, tag: &str) {
    let flat = KdTree::build(pts, mus);
    let arena = ArenaKdTree::build(pts, mus);
    let mut rng = Mix(0xD1FF ^ pts.len() as u64);
    let mut queries: Vec<Point<D>> = (0..6)
        .map(|_| {
            let mut c = [0.0; D];
            for x in c.iter_mut() {
                *x = rng.f64() * 24.0 - 12.0;
            }
            Point::new(c)
        })
        .collect();
    // On-point queries force zero distances; with duplicated points
    // several points tie at exactly 0.
    for i in [0, pts.len() / 2, pts.len() - 1] {
        if pts[i].is_finite() {
            queries.push(pts[i]);
        }
    }

    for q in &queries {
        // Every cap that can tell two searches apart: unbounded, the next
        // float above the answer, just above it, the answer itself
        // (exclusive: `None`) and half of it. `Some` carries the oracle's
        // bits, `None` falls exactly where it says so.
        let caps = match brute_min(pts, mus, q, f, f64::INFINITY) {
            Some(d2) => vec![
                f64::INFINITY,
                f64::from_bits(d2.to_bits() + 1),
                d2 * (1.0 + 1e-12) + f64::MIN_POSITIVE,
                d2,
                d2 * 0.5,
            ],
            None => vec![f64::INFINITY],
        };
        for cap in caps {
            let want = brute_min(pts, mus, q, f, cap).map(f64::to_bits);
            let got_flat = flat.min_dist_sq_within(q, f, cap).map(f64::to_bits);
            let got_arena = arena.min_dist_sq_within(q, f, cap).map(f64::to_bits);
            assert_eq!(got_flat, want, "{tag}: flat vs brute, cap {cap}");
            assert_eq!(got_arena, want, "{tag}: arena vs brute, cap {cap}");
        }
    }
}

/// Point counts chosen to straddle the implicit leaf size (16): below,
/// exactly at, one past, a multiple, one past a multiple, and large
/// enough for several levels of recursion.
const SIZES: [usize; 8] = [1, 2, 15, 16, 17, 64, 65, 257];

const FILTERS: [LevelFilter; 6] = [
    LevelFilter { min: 0.0, strict: false },
    LevelFilter { min: 0.0, strict: true },
    LevelFilter { min: 0.2, strict: false },
    LevelFilter { min: 0.5, strict: true },
    LevelFilter { min: 0.8, strict: false },
    LevelFilter { min: 1.0, strict: false },
];

#[test]
fn flat_arena_and_brute_agree_2d() {
    for (si, &n) in SIZES.iter().enumerate() {
        for shape in [MuShape::Continuous, MuShape::Quantized, MuShape::AllOnes] {
            let (pts, mus) = cloud::<2>(91 + si as u64, n, shape, 0, 0);
            for f in FILTERS {
                check_cloud(&pts, &mus, f, &format!("2d n={n} {shape:?} f={f:?}"));
            }
        }
    }
}

#[test]
fn flat_arena_and_brute_agree_3d() {
    for (si, &n) in SIZES.iter().enumerate() {
        let (pts, mus) = cloud::<3>(177 + si as u64, n, MuShape::Quantized, 0, 0);
        for f in FILTERS {
            check_cloud(&pts, &mus, f, &format!("3d n={n} f={f:?}"));
        }
    }
}

#[test]
fn duplicated_points_tie_break_canonically() {
    // Every other point is a duplicate: the search at a duplicated site
    // meets several points at exactly zero, and all three evaluators
    // answer with the same zero.
    for &n in &[16usize, 48, 130] {
        let (pts, mus) = cloud::<2>(7_000 + n as u64, n, MuShape::Quantized, 0, 2);
        for f in FILTERS {
            check_cloud(&pts, &mus, f, &format!("dup n={n} f={f:?}"));
        }
    }
}

#[test]
fn nan_coordinates_never_win_or_poison() {
    for &n in &[8usize, 17, 64, 129] {
        for nan_every in [2usize, 3, 5] {
            let (pts, mus) = cloud::<2>(31 * n as u64, n, MuShape::Continuous, nan_every, 0);
            for f in [LevelFilter::at_least(0.0), LevelFilter::at_least(0.5)] {
                check_cloud(&pts, &mus, f, &format!("nan n={n} every={nan_every} f={f:?}"));
            }
        }
    }
}

#[test]
fn all_nan_cloud_returns_none() {
    // Every candidate distance is NaN → every evaluator reports None, not
    // a NaN answer.
    let pts: Vec<Point<2>> = (0..20).map(|i| Point::xy(f64::NAN, i as f64)).collect();
    let mus: Vec<f64> = vec![1.0; 20];
    let flat = KdTree::build(&pts, &mus);
    let arena = ArenaKdTree::build(&pts, &mus);
    let q = Point::xy(0.0, 0.0);
    let f = LevelFilter::at_least(0.0);
    assert_eq!(flat.min_dist_sq_within(&q, f, f64::INFINITY), None);
    assert_eq!(arena.min_dist_sq_within(&q, f, f64::INFINITY), None);
}

#[test]
fn distance_only_search_ignores_ties_and_empty_filters() {
    // A filter no membership passes: `None` from both trees, at any cap,
    // at every size around the leaf boundaries.
    for (si, &n) in SIZES.iter().enumerate() {
        let (pts, mus) = cloud::<2>(400 + si as u64, n, MuShape::Quantized, 0, 0);
        let flat = KdTree::build(&pts, &mus);
        let arena = ArenaKdTree::build(&pts, &mus);
        for cap in [f64::INFINITY, 1.0] {
            assert_eq!(flat.min_dist_sq_within(&pts[0], LevelFilter::above(1.0), cap), None);
            assert_eq!(arena.min_dist_sq_within(&pts[0], LevelFilter::above(1.0), cap), None);
        }
    }
    // Equal-distance ties: a ring of 40 points at distance exactly 5 from
    // the query, spread over several leaves, plus far points: the distance
    // is the ring's whichever member is met first.
    let ring = [(3.0, 4.0), (4.0, 3.0), (-3.0, 4.0), (-4.0, 3.0), (0.0, 5.0)];
    let mut pts: Vec<Point<2>> = (0..30).map(|i| Point::xy(40.0 + i as f64, -30.0)).collect();
    for i in 0..40 {
        let (x, y) = ring[i % ring.len()];
        pts.push(Point::xy(if i % 2 == 0 { x } else { -x }, if i % 3 == 0 { y } else { -y }));
    }
    let mus: Vec<f64> = (0..pts.len()).map(|i| if i % 4 == 0 { 1.0 } else { 0.5 }).collect();
    let flat = KdTree::build(&pts, &mus);
    let arena = ArenaKdTree::build(&pts, &mus);
    let q = Point::origin();
    for f in [LevelFilter::at_least(0.5), LevelFilter::at_least(1.0)] {
        assert_eq!(flat.min_dist_sq_within(&q, f, f64::INFINITY), Some(25.0));
        assert_eq!(arena.min_dist_sq_within(&q, f, f64::INFINITY), Some(25.0));
        assert_eq!(brute_min(&pts, &mus, &q, f, f64::INFINITY), Some(25.0));
        assert_eq!(flat.min_dist_sq_within(&q, f, 25.0), None, "the cap is exclusive");
    }
}

/// Brute-force oracle of the box search: does an accepted point have a
/// squared gap to `[lo, hi]` strictly below `cap_sq`?
fn brute_any_within_box<const D: usize>(
    pts: &[Point<D>],
    mus: &[f64],
    (lo, hi): (&[f64; D], &[f64; D]),
    f: LevelFilter,
    cap_sq: f64,
) -> bool {
    pts.iter().zip(mus).any(|(p, &mu)| f.accepts(mu) && p.dist_sq_to_box(lo, hi) < cap_sq)
}

/// The box search against the brute scan for one cloud, under all six
/// filters: degenerate boxes (a point of the cloud, a point off it, a
/// segment), boxes around the cloud and around a few of its points, boxes
/// with a point exactly on a face, and boxes far away; at caps of 0, the
/// smallest normal, the smallest gap itself and the next float either
/// side, half of it, finite values, +∞ and NaN.
fn check_box_search<const D: usize>(pts: &[Point<D>], mus: &[f64], tag: &str) {
    let tree = KdTree::build(pts, mus);
    let (lo, hi) = (*tree.mbr().lo_coords(), *tree.mbr().hi_coords());
    let mut rng = Mix(0xB0C5 ^ pts.len() as u64);
    let at = |p: &Point<D>, dx: f64| -> [f64; D] { std::array::from_fn(|d| p.coords()[d] + dx) };
    let mut boxes: Vec<([f64; D], [f64; D])> = vec![(lo, hi)];
    for i in [0, pts.len() / 2, pts.len() - 1] {
        let p = &pts[i];
        boxes.push((*p.coords(), *p.coords()));
        boxes.push((at(p, 0.25), at(p, 0.25)));
        boxes.push((at(p, -0.5), at(p, 0.5)));
        // `p` on the low face of the first dimension, the box reaching away.
        let mut face_hi = at(p, 1.0);
        face_hi[0] = p.coords()[0] + 3.0;
        boxes.push((*p.coords(), face_hi));
        // `p` on the high face, the box below it in every dimension.
        boxes.push((at(p, -2.0), *p.coords()));
        // A segment through `p`'s first coordinate.
        let mut seg_lo = at(p, -1.0);
        let mut seg_hi = at(p, 1.0);
        seg_lo[0] = p.coords()[0];
        seg_hi[0] = p.coords()[0];
        boxes.push((seg_lo, seg_hi));
    }
    for _ in 0..4 {
        let a: [f64; D] = std::array::from_fn(|_| rng.f64() * 30.0 - 15.0);
        let b: [f64; D] = std::array::from_fn(|d| a[d] + rng.f64() * 4.0);
        boxes.push((a, b));
    }
    boxes.push(([40.0; D], [41.0; D]));
    boxes.push(([-1e6; D], [-1e6; D]));

    for f in FILTERS {
        for &(blo, bhi) in &boxes {
            let gap = pts
                .iter()
                .zip(mus)
                .filter(|&(_, &mu)| f.accepts(mu))
                .map(|(p, _)| p.dist_sq_to_box(&blo, &bhi))
                .fold(f64::INFINITY, f64::min);
            let mut caps = vec![0.0, f64::MIN_POSITIVE, 1.0, 50.0, f64::INFINITY, f64::NAN];
            if gap.is_finite() {
                caps.extend([gap, f64::from_bits(gap.to_bits() + 1), gap * 0.5]);
                if gap > 0.0 {
                    caps.push(f64::from_bits(gap.to_bits() - 1));
                }
            }
            for cap in caps {
                let want = brute_any_within_box(pts, mus, (&blo, &bhi), f, cap);
                let got = tree.any_within_box_sq(&blo, &bhi, f, cap);
                assert_eq!(got, want, "{tag}: f={f:?} box={blo:?}..{bhi:?} cap={cap:e}");
            }
        }
    }
}

#[test]
fn box_search_matches_brute_scan() {
    for n in [1usize, 16, 17, 1000] {
        let seed = 800 + n as u64;
        for shape in [MuShape::Continuous, MuShape::Quantized, MuShape::AllOnes] {
            let (pts, mus) = cloud::<2>(seed, n, shape, 0, 0);
            check_box_search(&pts, &mus, &format!("2d n={n} {shape:?}"));
        }
        let (pts, mus) = cloud::<3>(seed, n, MuShape::Quantized, 0, 0);
        check_box_search(&pts, &mus, &format!("3d n={n}"));
        let (pts, mus) = cloud::<2>(seed, n, MuShape::Quantized, 0, 2);
        check_box_search(&pts, &mus, &format!("dup n={n}"));
    }
    // Every point equal: one degenerate node box, the box search's
    // zero-extent case on the tree's side.
    let mus: Vec<f64> = (0..40).map(|i| if i % 3 == 0 { 1.0 } else { 0.4 }).collect();
    check_box_search(&vec![Point::xy(4.25, -1.5); 40], &mus, "all-equal");
}

/// The occupancy bitmap against the arena and the oracle, for one cloud under all six
/// filters. The grid is recomputed here from its documented geometry —
/// `w` the smallest integer with `w^D ≥ 128·n` (at most 2 048), cell side
/// `c_d = extent_d / w`, a dimension gridded when the three reach squares
/// `(m·c_d·(1 − 1e-9))²` are normal numbers, `c_min` the smallest gridded
/// side — so the query points sit in, on and around its cells and the caps
/// straddle each reach threshold by one float either way.
fn check_occupancy<const D: usize>(pts: &[Point<D>], mus: &[f64], tag: &str) {
    let flat = KdTree::build(pts, mus);
    let arena = ArenaKdTree::build(pts, mus);
    let (lo, hi) = (*flat.mbr().lo_coords(), *flat.mbr().hi_coords());
    let want_cells = 128 * pts.len() as u128;
    let w = (1..2048usize).find(|&w| (w as u128).pow(D as u32) >= want_cells).unwrap_or(2048);
    let reach_sq = |c: f64, m: usize| {
        let r = m as f64 * c * (1.0 - 1e-9);
        r * r
    };
    let gridded = |c: f64| (1..=3).all(|m| reach_sq(c, m).is_normal());
    let side: [f64; D] = std::array::from_fn(|d| (hi[d] - lo[d]).max(0.0) / w as f64);
    let c_min = side.iter().copied().filter(|&c| gridded(c)).fold(f64::INFINITY, f64::min);

    // Where a dimension has no grid (or no finite box) step by 1 from 0.
    let step: [f64; D] = std::array::from_fn(|d| if gridded(side[d]) { side[d] } else { 1.0 });
    let low: [f64; D] = std::array::from_fn(|d| if lo[d].is_finite() { lo[d] } else { 0.0 });
    let high: [f64; D] = std::array::from_fn(|d| if hi[d].is_finite() { hi[d] } else { 0.0 });
    let from_low = |k: f64| Point::new(std::array::from_fn(|d| low[d] + k * step[d]));
    let from_high = |k: f64| Point::new(std::array::from_fn(|d| high[d] + k * step[d]));
    let mut rng = Mix(0x0CC ^ pts.len() as u64);
    let mut queries: Vec<Point<D>> = Vec::new();
    for _ in 0..4 {
        // Inside the box.
        queries.push(Point::new(std::array::from_fn(|d| low[d] + rng.f64() * (high[d] - low[d]))));
    }
    // Both corners, cell boundaries, half a cell outside, outside by one,
    // two and three cells exactly, and far away.
    for k in [0.0, 1.0, (w / 2) as f64, (w - 1) as f64, -0.5, -1.0, -2.0, -3.0, -1000.0] {
        queries.push(from_low(k));
    }
    for k in [0.0, -1.0, 0.5, 1.0, 2.0, 3.0, 1e6] {
        queries.push(from_high(k));
    }
    // Some of the cloud's own points, and points a fraction of a cell off.
    for i in [0, pts.len() / 2, pts.len() - 1] {
        if pts[i].is_finite() {
            queries.push(pts[i]);
            queries.push(Point::new(std::array::from_fn(|d| pts[i].coords()[d] + 0.3 * step[d])));
        }
    }

    let mut caps = vec![f64::INFINITY, f64::NAN];
    if c_min.is_finite() {
        for m in 1..=3 {
            let at = reach_sq(c_min, m);
            caps.extend([f64::from_bits(at.to_bits() - 1), at, f64::from_bits(at.to_bits() + 1)]);
        }
    }
    for f in FILTERS {
        for q in &queries {
            let mut caps = caps.clone();
            if let Some(d2) = brute_min(pts, mus, q, f, f64::INFINITY) {
                caps.extend([d2, f64::from_bits(d2.to_bits() + 1)]);
            }
            for cap in caps {
                let got = flat.min_dist_sq_within(q, f, cap).map(f64::to_bits);
                let want = brute_min(pts, mus, q, f, cap).map(f64::to_bits);
                assert_eq!(got, want, "{tag}: f={f:?} q={q:?} cap={cap:e} (c_min {c_min:e})");
                let got = arena.min_dist_sq_within(q, f, cap).map(f64::to_bits);
                assert_eq!(got, want, "{tag}: arena f={f:?} q={q:?} cap={cap:e}");
            }
        }
    }
}

#[test]
fn occupancy_bitmap_never_changes_a_capped_search() {
    for (si, &n) in SIZES.iter().enumerate() {
        let seed = 600 + si as u64;
        let (pts, mus) = cloud::<2>(seed, n, MuShape::Continuous, 0, 0);
        check_occupancy(&pts, &mus, &format!("2d n={n}"));
        let (pts, mus) = cloud::<3>(seed, n, MuShape::Quantized, 0, 0);
        check_occupancy(&pts, &mus, &format!("3d n={n}"));
        let (pts, mus) = cloud::<1>(seed, n, MuShape::Quantized, 0, 0);
        check_occupancy(&pts, &mus, &format!("1d n={n}"));
        let (pts, mus) = cloud::<2>(seed, n, MuShape::Quantized, 0, 2);
        check_occupancy(&pts, &mus, &format!("dup n={n}"));
        for nan_every in [2usize, 5] {
            let (pts, mus) = cloud::<2>(seed, n, MuShape::Continuous, nan_every, 0);
            check_occupancy(&pts, &mus, &format!("nan n={n} every={nan_every}"));
        }

        // One extent zero, every extent zero, every distance NaN.
        let (flat_pts, mus) = cloud::<2>(seed, n, MuShape::Quantized, 0, 0);
        let collinear: Vec<Point<2>> =
            flat_pts.iter().map(|p| Point::xy(p.coords()[0], -3.5)).collect();
        check_occupancy(&collinear, &mus, &format!("collinear n={n}"));
        check_occupancy(&vec![Point::xy(4.25, -1.5); n], &mus, &format!("all-equal n={n}"));
        let all_nan: Vec<Point<2>> = (0..n).map(|i| Point::xy(f64::NAN, i as f64)).collect();
        check_occupancy(&all_nan, &mus, &format!("all-nan n={n}"));
    }
}

// ---- randomized layer on top of the deterministic sweeps ----

fn arb_cloud2(max: usize) -> impl Strategy<Value = (Vec<Point<2>>, Vec<f64>)> {
    prop::collection::vec(((-50.0..50.0f64, -50.0..50.0f64), 0.001..=1.0f64), 1..max).prop_map(
        |v| {
            let (coords, mut mus): (Vec<(f64, f64)>, Vec<f64>) = v.into_iter().unzip();
            mus[0] = 1.0;
            (coords.into_iter().map(|(x, y)| Point::xy(x, y)).collect(), mus)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random clouds and caps: the flat tree, the arena reference and the
    /// brute oracle return the identical distance bits, or all `None`.
    #[test]
    fn random_clouds_agree_bitwise(
        (pts, mus) in arb_cloud2(120),
        qx in -60.0..60.0f64,
        qy in -60.0..60.0f64,
        lvl in 0.0..=1.0f64,
        strict in any::<bool>(),
        cap in 0.0..500.0f64,
    ) {
        // A fifth of the cases search unbounded.
        let cap = if cap < 400.0 { cap } else { f64::INFINITY };
        let q = Point::xy(qx, qy);
        let f = LevelFilter { min: lvl, strict };
        let flat = KdTree::build(&pts, &mus);
        let arena = ArenaKdTree::build(&pts, &mus);
        let want = brute_min(&pts, &mus, &q, f, cap).map(f64::to_bits);
        prop_assert_eq!(want, flat.min_dist_sq_within(&q, f, cap).map(f64::to_bits));
        prop_assert_eq!(want, arena.min_dist_sq_within(&q, f, cap).map(f64::to_bits));
    }

    /// Random clouds, boxes and caps: the box search is the brute scan's
    /// verdict.
    #[test]
    fn random_box_searches_agree(
        (pts, mus) in arb_cloud2(120),
        (bx, by) in (-60.0..60.0f64, -60.0..60.0f64),
        (w, h) in (0.0..20.0f64, 0.0..20.0f64),
        lvl in 0.0..=1.0f64,
        strict in any::<bool>(),
        cap in 0.0..500.0f64,
    ) {
        let cap = if cap < 400.0 { cap } else { f64::INFINITY };
        let (lo, hi) = ([bx, by], [bx + w, by + h]);
        let f = LevelFilter { min: lvl, strict };
        let tree = KdTree::build(&pts, &mus);
        let want = brute_any_within_box(&pts, &mus, (&lo, &hi), f, cap);
        prop_assert_eq!(want, tree.any_within_box_sq(&lo, &hi, f, cap));
    }
}

// ---------------------------------------------------------------------
// The metric seam under L2: the generic membership-filtered pair fold
// (`fuzzy_core::metric::generic_alpha_distance_sq_bounded`, what any
// non-L2 metric evaluates by default) must agree **bitwise** with the
// adaptive L2 kernel (`Metric::alpha_distance_sq_bounded` on `L2`, which
// routes to the kd machinery under test above) — same `Some` values to
// the last bit, same `None` domination decisions, across the same
// adversarial cloud shapes the kernel suite sweeps. This is the
// refactor's core claim made falsifiable at the geometry layer: the seam
// changed how distances are *organized*, never what they *are*.
mod metric_seam {
    use super::{cloud, Mix, MuShape};
    use fuzzy_core::metric::{generic_alpha_distance_sq_bounded, Metric, L2};
    use fuzzy_core::{FuzzyObject, ObjectId, Threshold};

    fn object(seed: u64, n: usize, shape: MuShape, id: u64) -> FuzzyObject<2> {
        let (pts, mus) = cloud::<2>(seed, n, shape, 0, 3);
        FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
    }

    #[test]
    fn generic_fold_matches_l2_kernel_bitwise() {
        let shapes = [MuShape::Continuous, MuShape::Quantized, MuShape::AllOnes];
        for (si, &shape) in shapes.iter().enumerate() {
            for n in [1usize, 2, 7, 33, 80] {
                let a = object(1000 + si as u64 * 7 + n as u64, n, shape, 1);
                let b = object(2000 + si as u64 * 13 + n as u64, n.max(3), shape, 2);
                for alpha in [0.1, 0.2, 0.5, 0.8, 1.0] {
                    for strict in [false, true] {
                        let t = Threshold { value: alpha, strict };
                        let kernel = L2.alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY);
                        let fold = generic_alpha_distance_sq_bounded(&L2, &a, &b, t, f64::INFINITY);
                        assert_eq!(
                            kernel.map(f64::to_bits),
                            fold.map(f64::to_bits),
                            "kernel vs generic fold diverged: shape {shape:?} n {n} t {t}"
                        );
                        // The seed contract must agree as well: a seed
                        // strictly above the exact value keeps it, the
                        // exact value itself forces `None` from both (the
                        // strict-< contract).
                        if let Some(d_sq) = kernel {
                            let above = d_sq * (1.0 + 1e-9) + 1e-300;
                            assert_eq!(
                                L2.alpha_distance_sq_bounded(&a, &b, t, above).map(f64::to_bits),
                                Some(d_sq.to_bits()),
                                "kernel lost its value under a seed above it"
                            );
                            assert_eq!(
                                generic_alpha_distance_sq_bounded(&L2, &a, &b, t, above)
                                    .map(f64::to_bits),
                                Some(d_sq.to_bits()),
                                "generic fold lost its value under a seed above it"
                            );
                            assert_eq!(
                                L2.alpha_distance_sq_bounded(&a, &b, t, d_sq),
                                None,
                                "kernel failed its own seed contract"
                            );
                            assert_eq!(
                                generic_alpha_distance_sq_bounded(&L2, &a, &b, t, d_sq),
                                None,
                                "generic fold failed the seed contract"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn generic_fold_matches_kernel_under_random_seeds() {
        let mut rng = Mix(0xD1FF);
        for round in 0..60u64 {
            let a = object(round * 3 + 1, 24, MuShape::Quantized, 1);
            let b = object(round * 3 + 2, 24, MuShape::Quantized, 2);
            let t =
                Threshold { value: [0.2, 0.5, 0.8][(round % 3) as usize], strict: round % 2 == 0 };
            let seed_sq = rng.f64() * 900.0;
            let kernel = L2.alpha_distance_sq_bounded(&a, &b, t, seed_sq);
            let fold = generic_alpha_distance_sq_bounded(&L2, &a, &b, t, seed_sq);
            assert_eq!(
                kernel.map(f64::to_bits),
                fold.map(f64::to_bits),
                "seeded divergence at round {round} seed² {seed_sq}"
            );
        }
    }
}
