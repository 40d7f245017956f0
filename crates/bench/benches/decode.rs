//! What a store probe and a page miss pay to turn bytes into a checked
//! object or node, on in-memory bytes (no `pread`).
//!
//! * `decode_object/{32,1000}` — [`decode_object`] of one `.fzkn` v4
//!   record of fkbench's `scale` (32 points, r = 0.1) and `paper` (1 000
//!   points, r = 0.5) shapes: the lane digest, collection and every layout
//!   check. 32 is `aknn-scale`'s and `serve-mixed`'s probe, 1 000
//!   `aknn-heavy`'s.
//! * `fnv1a/record_1000`, `fnv1a_lanes/record_1000` — a checksum alone over
//!   the 1 000-point record: the one-lane chain v3 sealed records with, and
//!   the four lanes v4 does, the dependency chain a decode cannot finish
//!   before.
//! * `leaf_page/full` — one read of a full leaf of a `scale` index (16 KiB
//!   page size, the fullest leaves STR packs: 56 of 64 entries, an
//!   8 752-byte page) through [`PagedRTree`] with a one-page pool: two
//!   such leaves alternate, so every read is a miss (the page comes from
//!   the OS page cache).
//! * `leaf_pass/full` — what the best-first search does with such a leaf
//!   once it is read, at α = 0.5: the column pass writing every entry's
//!   Eq. 2 box, id and representative into the arena
//!   ([`fuzzy_query::append_slots`]), then each entry's `d⁻` against a
//!   query's cut box. The page stays pinned, so no read is timed.
//! * `store_open/50000` — [`FileStore::open`] of a 50 000-object `scale`
//!   store (32 points, r = 0.1): header and trailer checks, every summary
//!   decoded and checked, the id table built. The file comes from the OS
//!   page cache.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{FuzzyObject, ObjectSummary, Threshold};
use fuzzy_datagen::{write_dataset, SyntheticConfig};
use fuzzy_index::{NodeAccess, NodeView, PagedRTree, RTreeConfig};
use fuzzy_query::append_slots;
use fuzzy_store::format::{decode_object, encode_object, fnv1a, fnv1a_lanes};
use fuzzy_store::{FileStore, ObjectStore};

fn objects(n: usize, points: usize, radius: f64) -> Vec<FuzzyObject<2>> {
    let cfg = SyntheticConfig {
        num_objects: n,
        points_per_object: points,
        radius,
        seed: 7,
        ..SyntheticConfig::default()
    };
    cfg.generate().collect()
}

fn bench_records(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_object");
    for (points, radius) in [(32usize, 0.1), (1000, 0.5)] {
        let record = encode_object(&objects(1, points, radius)[0]);
        group.bench_with_input(BenchmarkId::from_parameter(points), &record, |b, record| {
            b.iter(|| decode_object::<2>(black_box(record)).expect("a valid record"))
        });
    }
    group.finish();

    let record = encode_object(&objects(1, 1000, 0.5)[0]);
    let payload = &record[..record.len() - 8];
    let mut group = c.benchmark_group("fnv1a");
    group.bench_function("record_1000", |b| b.iter(|| fnv1a(black_box(payload))));
    group.finish();
    let mut group = c.benchmark_group("fnv1a_lanes");
    group.bench_function("record_1000", |b| b.iter(|| fnv1a_lanes(black_box(payload))));
    group.finish();
}

fn bench_leaf_page(c: &mut Criterion) {
    let summaries: Vec<ObjectSummary<2>> =
        objects(2_000, 32, 0.1).iter().map(ObjectSummary::from_object).collect();
    let path = std::env::temp_dir().join(format!("fz-decode-bench-{}.fzpt", std::process::id()));
    drop(PagedRTree::bulk_write(summaries, RTreeConfig::default(), &path, 16 * 1024).unwrap());
    let tree: PagedRTree<2> = PagedRTree::open_with_cache(&path, 1).unwrap();
    // Every leaf with its entry count, depth first from the root.
    let (mut leaves, mut stack) = (Vec::new(), vec![tree.root_id()]);
    while let Some(id) = stack.pop() {
        match tree.read_node(id).unwrap().view() {
            NodeView::Nodes(children) => stack.extend(children.iter().map(|c| c.id)),
            NodeView::Entries(e) => leaves.push((e.len(), id)),
        }
    }
    let fullest = leaves.iter().map(|l| l.0).max().expect("a tree has leaves");
    let full: Vec<_> = leaves.iter().filter(|l| l.0 == fullest).map(|l| l.1).take(2).collect();
    assert_eq!(full.len(), 2, "two leaves of the fullest size");
    println!("leaf_page: {fullest} of {} entries", RTreeConfig::default().max_entries);
    let mut turn = 0;
    let mut group = c.benchmark_group("leaf_page");
    group.bench_function("full", |b| {
        b.iter(|| {
            turn ^= 1;
            let node = tree.read_node(full[turn]).unwrap();
            assert!(node.disk_read, "a one-page pool misses on every alternation");
            black_box(node.view());
        })
    });
    group.finish();

    let t = Threshold::at(0.5);
    let q_cut = objects(1, 32, 0.1)[0].cut_mbr(t).expect("a non-empty cut");
    let read = tree.read_node(full[0]).unwrap();
    let NodeView::Entries(leaf) = read.view() else { unreachable!("a leaf") };
    let mut slots = Vec::with_capacity(leaf.slots());
    let mut group = c.benchmark_group("leaf_pass");
    group.bench_function("full", |b| {
        b.iter(|| {
            slots.clear();
            let base = append_slots(&leaf, Some(t), &mut slots);
            for (j, slot) in slots[base..].iter().enumerate() {
                if leaf.is_live(j) {
                    black_box(L2.min_box_dist_sq(&slot.bound_mbr(), &q_cut));
                }
            }
        })
    });
    group.finish();
    drop(read);
    std::fs::remove_file(&path).unwrap();
}

fn bench_store_open(c: &mut Criterion) {
    let path = std::env::temp_dir().join(format!("fz-open-bench-{}.fzkn", std::process::id()));
    drop(write_dataset(&path, objects(50_000, 32, 0.1)).unwrap());
    let mut group = c.benchmark_group("store_open");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(50_000), |b| {
        b.iter(|| FileStore::<2>::open(&path).unwrap().len())
    });
    group.finish();
    std::fs::remove_file(&path).unwrap();
}

criterion_group!(benches, bench_records, bench_leaf_page, bench_store_open);
criterion_main!(benches);
