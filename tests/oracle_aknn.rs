//! Brute-force oracle for AKNN over the paper's §6.1 synthetic workload:
//! an exhaustive α-distance scan of the whole dataset must agree with
//! `QueryEngine::aknn` for every pruning configuration, k and α.
//!
//! Complements `crates/query/tests/correctness.rs` (which uses ad-hoc blob
//! data) by exercising the actual generator the experiments run on, with
//! continuous Gaussian memberships rather than quantized levels.

use fuzzy_knn::core::distance::alpha_distance_brute;
use fuzzy_knn::prelude::*;

fn small_synthetic() -> SyntheticConfig {
    SyntheticConfig {
        num_objects: 60,
        points_per_object: 60,
        seed: 0xA11CE,
        ..SyntheticConfig::default()
    }
}

/// All exact α-distances, ascending, computed without index or engine.
fn oracle(store: &MemStore<2>, q: &FuzzyObject2, t: Threshold) -> Vec<(f64, ObjectId)> {
    let mut all: Vec<(f64, ObjectId)> = store
        .summaries()
        .iter()
        .map(|s| {
            let obj = store.probe(s.id).unwrap();
            (alpha_distance_brute(&obj, q, t).unwrap(), s.id)
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all
}

#[test]
fn aknn_matches_exhaustive_scan_on_synthetic_data() {
    let gen = small_synthetic();
    let store = MemStore::from_objects(gen.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
    let engine = QueryEngine::new(&tree, &store);

    for query_seed in [1u64, 2] {
        let q = gen.query_object(query_seed);
        for alpha in [0.2, 0.5, 0.8, 1.0] {
            let t = Threshold::at(alpha);
            let exact = oracle(&store, &q, t);
            for k in [1usize, 3, 10] {
                let kth = exact[k - 1].0;
                for cfg in AknnConfig::paper_variants() {
                    let res = engine.aknn(&q, k, alpha, &cfg).unwrap();
                    let label =
                        format!("query {query_seed} α {alpha} k {k} {}", cfg.variant_name());
                    assert_eq!(res.neighbors.len(), k, "{label}: wrong result size");
                    // The returned distance multiset must equal the oracle's
                    // top-k (ties tolerated up to fp noise), and every id
                    // must genuinely sit within the k-th oracle distance.
                    let mut got: Vec<f64> = res
                        .neighbors
                        .iter()
                        .map(|n| {
                            let obj = store.probe(n.id).unwrap();
                            alpha_distance_brute(&obj, &q, t).unwrap()
                        })
                        .collect();
                    got.sort_by(f64::total_cmp);
                    for (g, (w, _)) in got.iter().zip(&exact) {
                        assert!((g - w).abs() <= 1e-9, "{label}: got {g}, oracle {w}");
                    }
                    for n in &res.neighbors {
                        let obj = store.probe(n.id).unwrap();
                        let d = alpha_distance_brute(&obj, &q, t).unwrap();
                        assert!(d <= kth + 1e-9, "{label}: {} beyond k-th", n.id);
                        assert!(
                            n.dist.lo() <= d + 1e-9 && d <= n.dist.hi() + 1e-9,
                            "{label}: bounds [{}, {}] miss exact {d}",
                            n.dist.lo(),
                            n.dist.hi()
                        );
                    }
                    let mut ids = res.ids();
                    ids.sort();
                    ids.dedup();
                    assert_eq!(ids.len(), k, "{label}: duplicate neighbors");
                }
            }
        }
    }
}

#[test]
fn pruned_variants_return_identical_neighbor_sets() {
    // With continuous memberships distance ties have measure zero, so all
    // four configurations must return exactly the same id set, not merely
    // equal distances.
    let gen = small_synthetic();
    let store = MemStore::from_objects(gen.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let q = gen.query_object(9);
    for alpha in [0.3, 0.7] {
        for k in [2usize, 8] {
            let mut reference: Option<Vec<ObjectId>> = None;
            for cfg in AknnConfig::paper_variants() {
                let mut ids = engine.aknn(&q, k, alpha, &cfg).unwrap().ids();
                ids.sort();
                match &reference {
                    None => reference = Some(ids),
                    Some(want) => assert_eq!(
                        &ids,
                        want,
                        "α {alpha} k {k}: {} disagrees with basic",
                        cfg.variant_name()
                    ),
                }
            }
        }
    }
}

#[test]
fn file_store_round_trip_preserves_aknn_results() {
    // The same query through a FileStore must see exactly the MemStore
    // results — oracle coverage for the on-disk format as a side effect.
    let gen = small_synthetic();
    let objects: Vec<FuzzyObject2> = gen.generate().collect();
    let mem = MemStore::from_objects(objects.clone()).unwrap();

    let dir = std::env::temp_dir().join(format!("fuzzy-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("synthetic.fzkn");
    let mut writer = FileStoreWriter::create(&path).unwrap();
    for obj in &objects {
        writer.append(obj).unwrap();
    }
    writer.finish().unwrap();
    let file = FileStore::open(&path).unwrap();

    let q = gen.query_object(3);
    for (alpha, k) in [(0.4, 5usize), (0.9, 2)] {
        let mem_tree = RTree::bulk_load(mem.summaries().to_vec(), RTreeConfig::default());
        let file_tree = RTree::bulk_load(file.summaries().to_vec(), RTreeConfig::default());
        let from_mem =
            QueryEngine::new(&mem_tree, &mem).aknn(&q, k, alpha, &AknnConfig::lb_lp_ub()).unwrap();
        let from_file = QueryEngine::new(&file_tree, &file)
            .aknn(&q, k, alpha, &AknnConfig::lb_lp_ub())
            .unwrap();
        let (mut a, mut b) = (from_mem.ids(), from_file.ids());
        a.sort();
        b.sort();
        assert_eq!(a, b, "α {alpha} k {k}: file store diverges from memory store");
    }
    std::fs::remove_dir_all(&dir).ok();
}
