//! End-to-end pipeline: generate → write to disk → reopen → index → query,
//! exercising every crate through the public umbrella API.

use fuzzy_knn::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fuzzy-knn-pipeline-{}-{name}", std::process::id()))
}

#[test]
fn synthetic_disk_pipeline() {
    let path = tmp("synthetic");
    let gen = SyntheticConfig {
        num_objects: 300,
        points_per_object: 120,
        seed: 99,
        ..SyntheticConfig::default()
    };
    // Write, drop, reopen: queries must work against the reopened file.
    {
        let store = fuzzy_knn::datagen::write_dataset(&path, gen.generate()).unwrap();
        assert_eq!(store.len(), 300);
    }
    let store: FileStore<2> = FileStore::open(&path).unwrap();
    assert_eq!(store.len(), 300);

    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    assert_eq!(tree.len(), 300);
    let engine = QueryEngine::new(&tree, &store);
    let q = gen.query_object(5);

    let res = engine.aknn(&q, 10, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
    assert_eq!(res.neighbors.len(), 10);
    assert!(res.stats.object_accesses > 0);
    assert!(res.stats.object_accesses <= 300);

    // The same query against a MemStore of the same data gives the same
    // neighbour set (disk layer is transparent).
    let mem = MemStore::from_objects(gen.generate()).unwrap();
    let tree2 = RTree::bulk_load(mem.summaries().to_vec(), RTreeConfig::default());
    let engine2 = QueryEngine::new(&tree2, &mem);
    let res2 = engine2.aknn(&q, 10, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
    let mut a = res.ids();
    let mut b = res2.ids();
    a.sort();
    b.sort();
    assert_eq!(a, b);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cell_disk_pipeline_rknn() {
    let path = tmp("cell");
    let gen = CellConfig {
        num_objects: 150,
        points_per_object: 100,
        clusters: 4,
        seed: 123,
        ..CellConfig::default()
    };
    let store = fuzzy_knn::datagen::write_dataset(&path, gen.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let q = gen.query_object(11);

    let reference =
        engine.rknn(&q, 5, 0.3, 0.7, RknnAlgorithm::Naive, &AknnConfig::lb_lp_ub()).unwrap();
    for algo in RknnAlgorithm::paper_variants() {
        let res = engine.rknn(&q, 5, 0.3, 0.7, algo, &AknnConfig::lb_lp_ub()).unwrap();
        assert!(
            res.approx_eq(&reference, 1e-9),
            "{} disagrees with naive on disk-backed cells",
            algo.name()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn stats_are_coherent_across_layers() {
    let gen = SyntheticConfig {
        num_objects: 400,
        points_per_object: 60,
        seed: 63,
        ..SyntheticConfig::default()
    };
    let store = MemStore::from_objects(gen.generate()).unwrap();
    let path = tmp("stats.fzpt");
    let tree =
        PagedRTree::bulk_write(store.summaries().to_vec(), RTreeConfig::default(), &path, 16384)
            .unwrap();
    let engine = QueryEngine::new(&tree, &store);
    let q = gen.query_object(8);

    store.reset_stats();
    let pool_before = tree.cache_stats();
    let res = engine.aknn(&q, 15, 0.5, &AknnConfig::lb()).unwrap();
    let pool = tree.cache_stats();
    // The per-query stats must equal the store and buffer-pool deltas:
    // every node access is one pool lookup, a hit or a miss.
    assert_eq!(res.stats.object_accesses, store.stats().object_reads);
    assert!(res.stats.node_accesses > 0);
    assert_eq!(
        res.stats.node_accesses,
        (pool.hits + pool.misses) - (pool_before.hits + pool_before.misses)
    );
    assert_eq!(res.stats.node_disk_reads, pool.misses - pool_before.misses);
    // Without lazy probe, every access implies a distance evaluation.
    assert_eq!(res.stats.object_accesses, res.stats.distance_evals);
    std::fs::remove_file(&path).unwrap();
}
