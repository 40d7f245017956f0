//! `abl-dist`: α-distance evaluation cost — the quadratic brute force, the
//! adaptive kernel on a pair whose query side already carries its kd-tree,
//! and the shape the query engine runs: a store-probed object against the
//! resident query.
//!
//! * `alpha_distance/brute` — the all-pairs oracle.
//! * `alpha_distance/auto_{dense,single_tree}` — [`alpha_distance`] with
//!   the second (query) object's tree pre-built, labelled with the strategy
//!   the kernel picks for the pair (the dense scan below its pair budget,
//!   the single-tree search above it).
//! * `probed_vs_query/{separated,touching,half,concentric}` — the probed
//!   side arrives from `from_columnar` (columns only, no tree), the query's
//!   tree is pre-built, 1 000 points a side with r = σ = 0.5 as on fkbench's
//!   `paper` dataset: the single-tree strategy. `seed_inf` is an unseeded
//!   call, `seed_1.05x` one seeded 5 % above the answer — the engine's d⁺
//!   seeds are that tight.
//! * `kd_build/{100,1000}` — [`KdTree::build`] over one such object (a
//!   `paper`-shaped query), the occupancy bitmap's fill included: what a
//!   query pays once, at its first tree-strategy kernel call.
//! * `kd_search/{miss_small_cap,hit}` — one [`KdTree::min_dist_sq_within`]
//!   from an interior point of the 1 000-point tree: with the cap at a
//!   quarter of a bitmap cell's area, where no point lies within it (the
//!   search the chain makes 97 % of the time), and unbounded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fuzzy_core::distance::{alpha_distance, alpha_distance_brute, alpha_distance_sq_bounded};
use fuzzy_core::{FuzzyObject, Threshold};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_geom::{KdTree, LevelFilter, Point};

/// The first two objects of a `paper`-shaped generator with `n` points each.
fn pair(n: usize, space: f64, seed: u64) -> (FuzzyObject<2>, FuzzyObject<2>) {
    let cfg = SyntheticConfig {
        num_objects: 2,
        points_per_object: n,
        space,
        seed,
        ..SyntheticConfig::default()
    };
    let mut objs = cfg.generate();
    (objs.next().expect("two objects"), objs.next().expect("two objects"))
}

/// Build `b`'s kd-tree and name what [`alpha_distance`] then runs at `t`.
/// Only the dense scan leaves a tree-less query side without its tree, so
/// one call on a still cold copy tells the strategies apart.
fn warm_and_name(a: &FuzzyObject<2>, b: &FuzzyObject<2>, t: Threshold) -> &'static str {
    let cold_b = b.clone();
    assert!(!cold_b.kd_tree_ready(), "name the pair before warming it");
    let _ = alpha_distance(a, &cold_b, t);
    let _ = b.kd_tree();
    if cold_b.kd_tree_ready() {
        "auto_single_tree"
    } else {
        "auto_dense"
    }
}

fn bench_alpha_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("alpha_distance");
    for n in [100usize, 400, 1000] {
        let (a, b) = pair(n, 100.0, 9);
        let t = Threshold::at(0.5);
        let auto = warm_and_name(&a, &b, t);
        group.bench_with_input(BenchmarkId::new("brute", n), &n, |bench, _| {
            bench.iter(|| alpha_distance_brute(&a, &b, t))
        });
        group.bench_with_input(BenchmarkId::new(auto, n), &n, |bench, _| {
            bench.iter(|| alpha_distance(&a, &b, t))
        });
    }
    group.finish();
}

fn bench_threshold_sensitivity(c: &mut Criterion) {
    let (a, b) = pair(1000, 100.0, 11);
    let mut group = c.benchmark_group("alpha_distance_vs_alpha");
    for alpha in [0.1, 0.5, 0.9] {
        // Cloned per level: the name is taken from a cold query.
        let b = b.clone();
        let auto = warm_and_name(&a, &b, Threshold::at(alpha));
        group.bench_with_input(BenchmarkId::new(auto, alpha), &alpha, |bench, &al| {
            bench.iter(|| alpha_distance(&a, &b, Threshold::at(al)))
        });
    }
    group.finish();
}

/// `a` moved by `dx` along x, as a record decode would produce it: the
/// prefix layout filled, no construction order, no kd-tree.
fn probed_at(a: &FuzzyObject<2>, dx: f64) -> FuzzyObject<2> {
    let pa = a.by_membership();
    let xs = pa.coord_column(0).iter().map(|x| x + dx);
    let cols = xs.chain(pa.coord_column(1).iter().copied()).collect();
    FuzzyObject::from_columnar(
        a.id(),
        pa.source_indices().to_vec(),
        pa.memberships().to_vec(),
        cols,
    )
    .expect("a valid object's own layout, translated")
}

fn bench_probed_vs_query(c: &mut Criterion) {
    // `space: 0` centres both objects on the origin; the probed one is then
    // moved by a multiple of the radius (0.5).
    let (a, q) = pair(1000, 0.0, 13);
    let _ = q.kd_tree();
    let t = Threshold::at(0.5);
    let mut group = c.benchmark_group("probed_vs_query");
    for (relation, dx) in
        [("separated", 2.0), ("touching", 1.0), ("half", 0.5), ("concentric", 0.0)]
    {
        let probed = probed_at(&a, dx);
        let answer = alpha_distance_sq_bounded(&probed, &q, t, f64::INFINITY).expect("full cuts");
        assert!(!probed.kd_tree_ready(), "the probed side is never indexed");
        for (seed_name, seed_sq) in
            [("seed_inf", f64::INFINITY), ("seed_1.05x", answer * 1.05 * 1.05)]
        {
            group.bench_with_input(BenchmarkId::new(relation, seed_name), &seed_sq, |bench, &s| {
                bench.iter(|| alpha_distance_sq_bounded(&probed, &q, t, s))
            });
        }
    }
    group.finish();
}

fn bench_kd_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("kd_build");
    for n in [100usize, 1000] {
        let (_, q) = pair(n, 0.0, 13);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| KdTree::build(q.points(), q.memberships()))
        });
    }
    group.finish();

    let (_, q) = pair(1000, 0.0, 13);
    let tree = q.kd_tree();
    let (lo, hi) = (tree.mbr().lo_coords(), tree.mbr().hi_coords());
    // A quarter of a cell of the bitmap's documented grid: the smallest `w`
    // with `w² ≥ 128·n` cells a side.
    let w = (1..).find(|w| w * w >= 128 * tree.len()).expect("some square is large enough");
    let small_cap = (hi[0] - lo[0]) * (hi[1] - lo[1]) / (w * w) as f64 / 4.0;
    // The first point up the box's diagonal with nothing within that cap —
    // chosen by the answer, so it is the same point whatever answers it.
    let f = LevelFilter::support();
    let p = (1..64)
        .map(|i| i as f64 / 64.0)
        .map(|s| Point::xy(lo[0] + s * (hi[0] - lo[0]), lo[1] + s * (hi[1] - lo[1])))
        .find(|p| tree.min_dist_sq_within(p, f, small_cap).is_none())
        .expect("a 1 000-point blob leaves a gap on its diagonal");
    let mut group = c.benchmark_group("kd_search");
    for (name, cap) in [("miss_small_cap", small_cap), ("hit", f64::INFINITY)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cap, |bench, &cap| {
            bench.iter(|| tree.min_dist_sq_within(&p, f, cap))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_alpha_distance,
    bench_threshold_sensitivity,
    bench_probed_vs_query,
    bench_kd_tree
);
criterion_main!(benches);
