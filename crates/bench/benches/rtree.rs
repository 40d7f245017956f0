//! R-tree costs: STR bulk load and range search over fuzzy summaries.
//!
//! * `rtree_build/str_bulk/{1000,10000}` — [`RTree::bulk_load`], the
//!   in-memory arena.
//! * `rtree_build/bulk_write/50000` — [`PagedRTree::bulk_write`] of 50 000
//!   `scale`-shaped summaries (32 points, r = 0.1) at the default fan-out
//!   and 16 KiB pages: packing, page encoding and the file write, then the
//!   open. What fkbench's set-up pays per index it builds.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fuzzy_core::ObjectSummary;
use fuzzy_datagen::SyntheticConfig;
use fuzzy_geom::Point;
use fuzzy_index::{range_scan, PagedRTree, RTree, RTreeConfig, DEFAULT_PAGE_SIZE};

fn summaries(n: usize) -> Vec<ObjectSummary<2>> {
    shaped_summaries(n, 40, 0.5)
}

fn shaped_summaries(n: usize, points: usize, radius: f64) -> Vec<ObjectSummary<2>> {
    let cfg = SyntheticConfig {
        num_objects: n,
        points_per_object: points,
        radius,
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
    let entries = shaped_summaries(50_000, 32, 0.1);
    let path = std::env::temp_dir().join(format!("fz-rtree-bench-{}.fzpt", std::process::id()));
    group.bench_with_input(BenchmarkId::new("bulk_write", 50_000), &entries, |b, e| {
        b.iter_batched(
            || e.clone(),
            |e| {
                PagedRTree::bulk_write(e, RTreeConfig::default(), &path, DEFAULT_PAGE_SIZE).unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    std::fs::remove_file(&path).ok();
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
                let mut hits = 0;
                range_scan(
                    &tree,
                    r,
                    |mbr| mbr.min_dist_point(&q),
                    |leaf| {
                        hits +=
                            leaf.iter().filter(|e| e.support_mbr.min_dist_point(&q) <= r).count();
                    },
                )
                .map(|_| hits)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
