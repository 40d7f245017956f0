//! Lane-vs-scalar equivalence: the lane kernel `min_dist_sq_cols` and its
//! sequential reference `min_dist_sq_cols_scalar` are both public precisely
//! so this suite can run them side by side and assert **bitwise-equal**
//! min-reductions.
//!
//! The bitwise argument (see `fuzzy_geom::kernel` docs): candidates are
//! `+0.0`/positive/`+∞`/NaN — never `-0.0` — so `f64::min` is an exact
//! selection and any lane assignment or fold order returns the same bits.
//! These tests pin that argument against regressions: remainder rows
//! (`n % 8 ≠ 0`), single points, empty columns, NaN rows, duplicate
//! minima, and the kd-tree's leaf scans, which run the lane kernel.

use fuzzy_geom::kernel::{min_dist_sq_cols, min_dist_sq_cols_scalar, LANES};
use fuzzy_geom::{KdTree, LevelFilter, Point};

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

fn columns<const D: usize>(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Mix(seed);
    (0..D).map(|_| (0..n).map(|_| rng.f64() * 2000.0 - 1000.0).collect()).collect()
}

fn as_refs<const D: usize>(cols: &[Vec<f64>]) -> [&[f64]; D] {
    std::array::from_fn(|d| cols[d].as_slice())
}

/// Every length from empty through several full lane blocks, covering
/// each possible remainder `n % LANES` more than once.
#[test]
fn forced_paths_match_bitwise_across_all_remainders() {
    for n in 0..(4 * LANES + 3) {
        for seed in [1u64, 99, 12345] {
            let cols = columns::<2>(seed ^ n as u64, n);
            let refs = as_refs::<2>(&cols);
            for qi in 0..5 {
                let q = [qi as f64 * 137.0 - 300.0, 250.0 - qi as f64 * 91.0];
                let scalar = min_dist_sq_cols_scalar(&refs, &q);
                let lanes = min_dist_sq_cols(&refs, &q);
                assert_eq!(
                    scalar.to_bits(),
                    lanes.to_bits(),
                    "n={n} seed={seed} q#{qi}: scalar {scalar} vs lanes {lanes}"
                );
            }
        }
    }
}

#[test]
fn forced_paths_match_in_3d() {
    for n in [1usize, LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
        let cols = columns::<3>(777 + n as u64, n);
        let refs = as_refs::<3>(&cols);
        let q = [1.5, -2.5, 0.25];
        assert_eq!(
            min_dist_sq_cols_scalar(&refs, &q).to_bits(),
            min_dist_sq_cols(&refs, &q).to_bits(),
            "3-D n={n}"
        );
    }
}

#[test]
fn single_point_and_empty_edge_cases() {
    let empty: [&[f64]; 2] = [&[], &[]];
    let q = [0.0, 0.0];
    assert_eq!(min_dist_sq_cols_scalar(&empty, &q), f64::INFINITY);
    assert_eq!(min_dist_sq_cols(&empty, &q), f64::INFINITY);

    let one: [&[f64]; 2] = [&[3.0], &[4.0]];
    let s = min_dist_sq_cols_scalar(&one, &q);
    let l = min_dist_sq_cols(&one, &q);
    assert_eq!(s.to_bits(), l.to_bits());
    assert_eq!(s, 25.0);
}

#[test]
fn nan_rows_are_ignored_identically() {
    // A NaN in any coordinate poisons that candidate only; both paths
    // must skip it and agree bitwise, wherever the NaN lands relative to
    // lane boundaries.
    let n = 2 * LANES + 3;
    for nan_at in 0..n {
        let mut cols = columns::<2>(4242, n);
        cols[nan_at % 2][nan_at] = f64::NAN;
        let refs = as_refs::<2>(&cols);
        let q = [0.0, 0.0];
        let s = min_dist_sq_cols_scalar(&refs, &q);
        let l = min_dist_sq_cols(&refs, &q);
        assert_eq!(s.to_bits(), l.to_bits(), "nan at row {nan_at}");
        assert!(s.is_finite(), "one NaN row must not poison the reduction");
    }
}

/// End-to-end: a tree search (whose leaf scans are the lane kernel) agrees
/// bitwise with a manual reduction over the whole cloud through both
/// kernels — the lanes are invisible at the search's surface.
#[test]
fn tree_leaf_scans_agree_with_forced_kernels() {
    let mut rng = Mix(90210);
    let n = 200;
    let pts: Vec<Point<2>> =
        (0..n).map(|_| Point::xy(rng.f64() * 50.0, rng.f64() * 50.0)).collect();
    let mut mus: Vec<f64> = (0..n).map(|_| (rng.f64() * 0.99 + 0.01).min(1.0)).collect();
    mus[0] = 1.0;
    let tree = KdTree::build(&pts, &mus);
    let f = LevelFilter::at_least(0.0);
    for _ in 0..20 {
        let q = Point::xy(rng.f64() * 60.0 - 5.0, rng.f64() * 60.0 - 5.0);
        let d2 = tree.min_dist_sq_within(&q, f, f64::INFINITY).unwrap();
        // Oracle reduction over the whole cloud through both kernels.
        let xs: Vec<f64> = pts.iter().map(|p| p.x()).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y()).collect();
        let cols: [&[f64]; 2] = [&xs, &ys];
        let s = min_dist_sq_cols_scalar(&cols, q.coords());
        let l = min_dist_sq_cols(&cols, q.coords());
        assert_eq!(s.to_bits(), l.to_bits());
        assert_eq!(d2.to_bits(), s.to_bits(), "tree NN distance differs from kernel reduction");
        assert!(pts.iter().any(|p| p.dist_sq(&q).to_bits() == d2.to_bits()), "a point at {d2}");
    }
}
