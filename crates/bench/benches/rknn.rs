//! One RSS-ICR range query end to end (`QueryEngine::rknn_with_scratch`,
//! k = 10, [0.3, 0.7], LB-LP-UB) over a `MemStore` of paper-shaped objects
//! (`SyntheticConfig`, 1 000 points, r = σ = 0.5) at three densities, which
//! decide how many of a query's candidates its settle step (see
//! `fuzzy_query::rknn`) keeps away from a distance profile:
//!
//! * `separated` — 0.5 objects per unit area: neighbours lie several object
//!   radii apart, `d_α` moves little against that spacing, most neighbours
//!   settle and most outsiders are dropped;
//! * `crowded` — 8 per unit area: supports overlap, an outsider's `d_αs`
//!   falls below many neighbours' `d_αe`, few settle;
//! * `tied` — the crowded set plus twelve copies of the query object under
//!   other ids, so `r = d_k(αe) = 0`: the tie guard's path, nothing is
//!   dropped or settled and every candidate is profiled.
//!
//! A row is eight queries: one each from eight query objects (`tied`: the
//! copied object eight times).

use criterion::{criterion_group, criterion_main, Criterion};
use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryScratch, RknnAlgorithm};
use fuzzy_store::{MemStore, ObjectStore};

const OBJECTS: usize = 400;
const QUERIES: usize = 8;

fn objects(per_unit_area: f64) -> Vec<FuzzyObject<2>> {
    let space = (OBJECTS as f64 / per_unit_area).sqrt();
    let cfg =
        SyntheticConfig { num_objects: OBJECTS, space, seed: 5, ..SyntheticConfig::default() };
    cfg.generate().collect()
}

fn bench_rknn(c: &mut Criterion) {
    let mut tied = objects(8.0);
    for copy in 0..12 {
        let q = &tied[0];
        let id = ObjectId((OBJECTS + copy) as u64);
        tied.push(FuzzyObject::new(id, q.points().to_vec(), q.memberships().to_vec()).unwrap());
    }
    let mut group = c.benchmark_group("rknn_rss_icr");
    // `tied` queries with the one object that has twelve copies.
    let rows = [
        ("separated", objects(0.5), QUERIES),
        ("crowded", objects(8.0), QUERIES),
        ("tied", tied, 1),
    ];
    for (row, objects, distinct) in rows {
        let queries: Vec<FuzzyObject<2>> = objects[..distinct].to_vec();
        let store = MemStore::from_objects(objects).unwrap();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        let engine = QueryEngine::new(&tree, &store);
        let cfg = AknnConfig::lb_lp_ub();
        let mut scratch = QueryScratch::new();
        group.bench_function(row, |b| {
            b.iter(|| {
                for q in queries.iter().cycle().take(QUERIES) {
                    engine
                        .rknn_with_scratch(
                            q,
                            10,
                            0.3,
                            0.7,
                            RknnAlgorithm::RssIcr,
                            &cfg,
                            &mut scratch,
                        )
                        .unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rknn);
criterion_main!(benches);
