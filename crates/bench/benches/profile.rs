//! Distance-profile construction: the bounded descending sweep vs the brute
//! Pareto frontier (the RKNN refinement workhorse).
//!
//! Two pair shapes per size — two cells placed at random in the 100×100
//! space (far apart: the box skip and the seeds prune almost everything)
//! and two cells whose centres lie within 0.6 of each other (`_overlap`:
//! the minimum keeps falling, so the sweep does real work) — and two
//! candidate states:
//!
//! * `sweep` — both kd-trees pre-built;
//! * `sweep_cold_candidate` — what RSS pays per store-probed candidate:
//!   the object arrives from `from_columnar` (prefix layout filled, no
//!   kd-tree) and is profiled once against a warm query.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fuzzy_core::{DistanceProfile, FuzzyObject};
use fuzzy_datagen::CellConfig;

/// A fresh copy of `a` as a v3 record decode would produce it.
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

fn bench_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_profile");
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
            let objs: Vec<_> = cfg.generate().collect();
            let (a, q) = (&objs[0], &objs[1]);
            let _ = (a.kd_tree(), q.kd_tree());
            group.bench_with_input(BenchmarkId::new(format!("sweep{suffix}"), n), &n, |b, _| {
                b.iter(|| DistanceProfile::compute(a, q))
            });
            let cold = BenchmarkId::new(format!("sweep_cold_candidate{suffix}"), n);
            group.bench_with_input(cold, &n, |b, _| {
                b.iter_batched(
                    || decoded(a),
                    |a| DistanceProfile::compute(&a, q),
                    BatchSize::SmallInput,
                )
            });
            if n <= 400 && suffix.is_empty() {
                group.bench_with_input(BenchmarkId::new("brute", n), &n, |b, _| {
                    b.iter(|| DistanceProfile::compute_brute(a, q))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
