//! The kd-tree's build, checked node by node through [`KdTree::layout`]
//! and the implicit layout's rules (a node `i` over slots `[start, end)`
//! has children `2i + 1` and `2i + 2` over `[start, mid)` and `[mid, end)`,
//! `mid = start + (end − start) / 2`, down to leaves of at most 16 slots):
//! over uniform, duplicated, degenerate-extent and NaN clouds in one to
//! three dimensions, at 1, 16, 17 and 1 000 points, every node box is exact
//! over its range's coordinates in a dimension where none is NaN, and NaN —
//! which never prunes — in one where some is; every `max_µ` is exact; every
//! leaf is µ-descending, ties by source index; every point has exactly one
//! slot. The searches' answers are held to brute force by `differential.rs`;
//! this suite holds the layout they prune on, and the one search that
//! layout decides on NaN points: the box search.

use fuzzy_geom::{KdTree, LevelFilter, Point};
use std::collections::HashMap;

/// Points a leaf holds at most.
const LEAF_SIZE: usize = 16;

/// `n` points with every (point, µ) pair distinct, so a slot names its
/// source: uniform with µ on four levels (`shape` 0; µ is distinct in the
/// others), every other point a duplicate (1), dimension 0 one value (2),
/// or one coordinate of every third point NaN (3).
fn shaped_cloud<const D: usize>(shape: usize, n: usize) -> (Vec<Point<D>>, Vec<f64>) {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ (shape * 10_000 + n) as u64;
    let mut next = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    };
    let mut pts: Vec<Point<D>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut c: [f64; D] = std::array::from_fn(|_| next());
        match shape {
            1 if i % 2 == 1 => c = *pts[i / 2].coords(),
            2 => c[0] = 3.0,
            3 if i % 3 == 2 => c[i % D] = f64::NAN,
            _ => {}
        }
        pts.push(Point::new(c));
    }
    let tied = shape == 0;
    let mus = (0..n)
        .map(|i| if tied { (1 + i * 7 % 4) as f64 / 4.0 } else { (i + 1) as f64 / n as f64 })
        .collect();
    (pts, mus)
}

fn check_structure<const D: usize>(pts: &[Point<D>], mus: &[f64], tag: &str) {
    let tree = KdTree::build(pts, mus);
    let [bounds, max_mus, cols, slot_mus] = tree.layout();
    let n = tree.len();
    let key = |coords: [f64; D], mu: f64| -> Vec<u64> {
        coords.iter().chain([&mu]).map(|c| c.to_bits()).collect()
    };
    let source: HashMap<Vec<u64>, usize> =
        pts.iter().zip(mus).enumerate().map(|(i, (p, &mu))| (key(*p.coords(), mu), i)).collect();
    assert_eq!(source.len(), n, "{tag}: distinct pairs");
    let src = |j: usize| source[&key(std::array::from_fn(|d| cols[d * n + j]), slot_mus[j])];
    let (mut seen, mut stack) = (vec![false; n], vec![(0, 0..n)]);
    while let Some((id, range)) = stack.pop() {
        for d in 0..D {
            let col = &cols[d * n + range.start..d * n + range.end];
            let (lo, hi) = (bounds[2 * D * id + d], bounds[2 * D * id + D + d]);
            if col.iter().any(|c| c.is_nan()) {
                assert!(lo.is_nan() && hi.is_nan(), "{tag}: node {range:?} dim {d}");
            } else {
                let min = col.iter().copied().fold(f64::INFINITY, f64::min);
                let max = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!((lo, hi), (min, max), "{tag}: node {range:?} dim {d}");
            }
        }
        let exact = slot_mus[range.clone()].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max_mus[id], exact, "{tag}: node {range:?}");
        if range.len() > LEAF_SIZE {
            let mid = range.start + range.len() / 2;
            stack.extend([(2 * id + 1, range.start..mid), (2 * id + 2, mid..range.end)]);
            continue;
        }
        for j in range.clone() {
            assert!(!std::mem::replace(&mut seen[src(j)], true), "{tag}: slot {j} again");
            if j > range.start {
                let order = slot_mus[j - 1].total_cmp(&slot_mus[j]).then(src(j).cmp(&src(j - 1)));
                assert!(order.is_gt(), "{tag}: slots {} and {j} out of order", j - 1);
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "{tag}: every point has a slot");
}

#[test]
fn every_node_box_and_leaf_order_is_exact() {
    for n in [1, 16, 17, 1000] {
        for shape in 0..4 {
            let tag = |d: usize| format!("D = {d}, n = {n}, shape {shape}");
            let (pts, mus) = shaped_cloud::<1>(shape, n);
            check_structure(&pts, &mus, &tag(1));
            let (pts, mus) = shaped_cloud::<2>(shape, n);
            check_structure(&pts, &mus, &tag(2));
            let (pts, mus) = shaped_cloud::<3>(shape, n);
            check_structure(&pts, &mus, &tag(3));
        }
    }
}

/// A NaN bound is what makes the box search exact on a point with a NaN
/// coordinate: `Point::dist_sq_to_box` counts that dimension as no gap, so
/// a node box that left the point out in it would prune a point the brute
/// scan accepts. (A box taken from its range's first point, as the build
/// once did, left out every NaN after the first.)
#[test]
fn box_search_over_nan_clouds_is_the_brute_scan() {
    for n in [17, 40, 100, 1000] {
        let (pts, mus) = shaped_cloud::<2>(3, n);
        let tree = KdTree::build(&pts, &mus);
        let mut corner = 0.0;
        for _ in 0..200 {
            corner = (corner * 7.3 + 1.1) % 20.0;
            let lo = [corner - 10.0, 10.0 - corner];
            let hi = [lo[0] + 0.5, lo[1] + 0.5];
            for cap in [0.01, 0.1, 1.0, 10.0] {
                let f = LevelFilter::support();
                let want = pts
                    .iter()
                    .zip(&mus)
                    .any(|(p, &mu)| f.accepts(mu) && p.dist_sq_to_box(&lo, &hi) < cap);
                let got = tree.any_within_box_sq(&lo, &hi, f, cap);
                assert_eq!(got, want, "n = {n}, box {lo:?}..{hi:?}, cap {cap}");
            }
        }
    }
}
