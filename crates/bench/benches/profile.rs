//! Distance-profile construction: the windowed sweep vs the brute Pareto
//! frontier (the RKNN refinement workhorse).
//!
//! Three pair shapes — two cells placed at random in the 100×100 space (far
//! apart: nothing survives the box test), two cells whose centres lie
//! within 0.6 of each other (`_overlap`: the minimum keeps falling, so the
//! sweep does real work), and at 1 000 points a `_paper` pair: two
//! `SyntheticConfig` objects of radius and σ 0.5 a neighbour's distance
//! apart, the shape fkbench's `rknn-range` profiles — and these rows:
//!
//! * `sweep` — the full profile, both kd-trees pre-built;
//! * `sweep_cold_candidate` — the full profile of a store-probed
//!   candidate: the object arrives from `from_columnar` (prefix layout
//!   filled, no kd-tree) and is profiled once against a warm query;
//! * `window_0.3_0.7` — the same cold candidate on the window an RKNN over
//!   [0.3, 0.7] asks for: what RSS pays for a candidate step 2 found;
//! * `window_0.3_0.7_known_top` — that window with the distance at 0.7
//!   handed in: what RSS pays for a step-1 neighbour;
//! * `window_0.3_0.7_capped` — the cold window capped at the mean of the
//!   squared distances at 0.3 and 0.7: what RSS pays for an outsider, whose
//!   staircase it reads only below the radius `r`;
//! * `window_0.3_0.7_known_top_floored` — the neighbour's window floored at
//!   that mean: what RSS-ICR pays for an unsettled neighbour, whose
//!   staircase it reads only down to the nearest outsider's `d_0.3`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fuzzy_core::distance::alpha_distance_sq_bounded;
use fuzzy_core::{DistanceProfile, FuzzyObject, Threshold};
use fuzzy_datagen::{CellConfig, SyntheticConfig};

/// A fresh copy of `a` as a record decode would produce it.
fn decoded(a: &FuzzyObject<2>) -> FuzzyObject<2> {
    let pa = a.by_membership();
    let cols = [pa.coord_column(0), pa.coord_column(1)].concat();
    FuzzyObject::from_columnar(
        a.id(),
        pa.source_indices().to_vec(),
        pa.memberships().to_vec(),
        cols,
    )
    .expect("a valid object's own layout")
}

/// The first two objects of a generator.
fn first_two(mut objs: impl Iterator<Item = FuzzyObject<2>>) -> (FuzzyObject<2>, FuzzyObject<2>) {
    (objs.next().expect("two objects"), objs.next().expect("two objects"))
}

/// The benched pairs as `(suffix, points, (a, q))`.
fn pairs() -> Vec<(&'static str, usize, (FuzzyObject<2>, FuzzyObject<2>))> {
    let mut pairs = Vec::new();
    for n in [100usize, 400, 1000] {
        for (suffix, space) in [("", 100.0), ("_overlap", 0.6)] {
            let cfg = CellConfig {
                num_objects: 2,
                points_per_object: n,
                clusters: 0,
                space,
                seed: 5,
                ..CellConfig::default()
            };
            pairs.push((suffix, n, first_two(cfg.generate())));
        }
    }
    // fkbench's `paper` dataset holds 2 objects per unit area, so the 16
    // nearest of a query lie within ~1.6 of it: two objects in a 1.5 square.
    let paper =
        SyntheticConfig { num_objects: 2, space: 1.5, seed: 5, ..SyntheticConfig::default() };
    pairs.push(("_paper", paper.points_per_object, first_two(paper.generate())));
    pairs
}

fn bench_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_profile");
    for (suffix, n, (a, q)) in &pairs() {
        let _ = (a.kd_tree(), q.kd_tree());
        group.bench_with_input(BenchmarkId::new(format!("sweep{suffix}"), n), n, |b, _| {
            b.iter(|| DistanceProfile::compute(a, q))
        });
        let (lo, hi) = (0.3, 0.7);
        let square_at = |v| alpha_distance_sq_bounded(a, q, Threshold::at(v), f64::INFINITY);
        let top_sq = square_at(hi);
        let mid_sq = square_at(lo).zip(top_sq).map(|(l, t)| 0.5 * (l + t));
        #[allow(clippy::type_complexity)]
        let rows: [(&str, f64, f64, Option<f64>, Option<f64>, Option<f64>); 5] = [
            ("sweep_cold_candidate", 0.0, 1.0, None, None, None),
            ("window_0.3_0.7", lo, hi, None, None, None),
            ("window_0.3_0.7_known_top", lo, hi, top_sq, None, None),
            ("window_0.3_0.7_capped", lo, hi, None, mid_sq, None),
            ("window_0.3_0.7_known_top_floored", lo, hi, top_sq, None, mid_sq),
        ];
        for (row, lo, hi, top_sq, cap_sq, floor_sq) in rows {
            group.bench_with_input(BenchmarkId::new(format!("{row}{suffix}"), n), n, |b, _| {
                b.iter_batched(
                    || decoded(a),
                    |a| {
                        DistanceProfile::compute_window_limited(
                            &a, q, lo, hi, top_sq, cap_sq, floor_sq,
                        )
                    },
                    BatchSize::SmallInput,
                )
            });
        }
        if *suffix != "_overlap" {
            group.bench_with_input(BenchmarkId::new(format!("brute{suffix}"), n), n, |b, _| {
                b.iter(|| DistanceProfile::compute_brute(a, q))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
