//! R-tree costs: STR bulk load and range search over fuzzy summaries.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fuzzy_core::ObjectSummary;
use fuzzy_datagen::SyntheticConfig;
use fuzzy_geom::Point;
use fuzzy_index::{range_search, RTree, RTreeConfig};

fn summaries(n: usize) -> Vec<ObjectSummary<2>> {
    let cfg = SyntheticConfig {
        num_objects: n,
        points_per_object: 40,
        seed: 77,
        ..SyntheticConfig::default()
    };
    cfg.generate().map(|o| ObjectSummary::from_object(&o)).collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_build");
    group.sample_size(10);
    for n in [1_000usize, 10_000] {
        let entries = summaries(n);
        group.bench_with_input(BenchmarkId::new("str_bulk", n), &entries, |b, e| {
            b.iter_batched(
                || e.clone(),
                |e| RTree::bulk_load(e, RTreeConfig::default()),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let entries = summaries(10_000);
    let tree = RTree::bulk_load(entries, RTreeConfig::default());
    let q = Point::xy(50.0, 50.0);
    let mut group = c.benchmark_group("rtree_query");
    for radius in [1.0, 5.0, 20.0] {
        group.bench_with_input(BenchmarkId::new("range", radius as u64), &radius, |b, &r| {
            b.iter(|| {
                range_search(
                    &tree,
                    r,
                    |mbr| mbr.min_dist_point(&q),
                    |e: &ObjectSummary<2>| e.support_mbr.min_dist_point(&q),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
