//! Metric-search correctness and determinism.
//!
//! Three pins:
//! 1. **Graph oracle** — M-tree AKNN under [`GraphMetric`] returns exactly
//!    what the brute-force graph-distance scan returns (bitwise distances,
//!    same ids, same order) for every query/k/threshold in the matrix.
//! 2. **L2 cross-engine** — M-tree AKNN under [`L2`] returns bitwise the
//!    same neighbour *distances* as the committed exact rectangle engine
//!    (`aknn_exact`), and bitwise the same `(id, distance)` answer as the
//!    brute scan under L2. Different index, different bounds, same metric
//!    ⇒ same nearest neighbours. (Ids are compared through the brute
//!    oracle rather than the rectangle engine because the two engines
//!    break exact-distance ties differently — vertex-resident objects
//!    make 0-distance ties common — and tie order between *different
//!    candidates at the same distance* is not part of the contract.)
//! 3. **Determinism** — building the M-tree twice and searching twice
//!    fingerprints identically, and a save/load round trip answers
//!    bitwise-identically to the in-memory build.

use fuzzy_core::metric::{GraphMetric, Metric, L2};
use fuzzy_core::{FuzzyObject, Threshold};
use fuzzy_datagen::RoadConfig;
use fuzzy_index::mtree::{MTree, MTreeConfig};
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{metric_aknn, metric_aknn_brute, AknnConfig, QueryEngine};
use fuzzy_store::{MemStore, ObjectStore};
use std::sync::Arc;

fn road_fixture() -> (RoadConfig, Arc<fuzzy_core::RoadNetwork<2>>, MemStore<2>) {
    let cfg = RoadConfig {
        vertices: 150,
        extra_edges: 80,
        objects: 120,
        points_per_object: 10,
        span: 100.0,
        seed: 77,
    };
    let net = Arc::new(cfg.network());
    let store = MemStore::from_objects(cfg.objects(&net)).unwrap();
    (cfg, net, store)
}

/// IEEE-754-level fingerprint of an answer list.
fn fingerprint(res: &fuzzy_query::AknnResult) -> Vec<(u64, u64)> {
    res.neighbors.iter().map(|n| (n.id.0, n.dist.hi().to_bits())).collect()
}

#[test]
fn graph_mtree_matches_brute_oracle() {
    let (cfg, net, store) = road_fixture();
    let metric = GraphMetric::new(net.clone());
    let objects: Vec<FuzzyObject<2>> =
        store.ids().iter().map(|&id| store.probe(id).unwrap().as_ref().clone()).collect();
    let tree = MTree::build(&metric, &objects, MTreeConfig::default());
    assert!(tree.validate(&metric).is_ok());
    for query_seed in [1u64, 2, 5, 11] {
        let q = cfg.query_object(&net, query_seed);
        for k in [1usize, 4, 10] {
            for alpha in [0.3, 0.5, 1.0] {
                let t = Threshold::at(alpha);
                let via_tree = metric_aknn(&metric, &tree, &store, &q, k, t, None).unwrap();
                let via_scan = metric_aknn_brute(&metric, &store, &store.ids(), &q, k, t).unwrap();
                assert_eq!(
                    fingerprint(&via_tree),
                    fingerprint(&via_scan),
                    "graph M-tree diverged from oracle at seed {query_seed} k {k} α {alpha}"
                );
            }
        }
    }
}

#[test]
fn l2_mtree_matches_exact_rectangle_engine() {
    let (cfg, net, store) = road_fixture();
    let objects: Vec<FuzzyObject<2>> =
        store.ids().iter().map(|&id| store.probe(id).unwrap().as_ref().clone()).collect();
    let mtree = MTree::build(&L2, &objects, MTreeConfig::default());
    let rtree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&rtree, &store);
    for query_seed in [1u64, 3, 9] {
        let q = cfg.query_object(&net, query_seed);
        for k in [1usize, 5, 12] {
            for alpha in [0.4, 1.0] {
                let t = Threshold::at(alpha);
                let via_mtree = metric_aknn(&L2, &mtree, &store, &q, k, t, None).unwrap();
                let via_brute = metric_aknn_brute(&L2, &store, &store.ids(), &q, k, t).unwrap();
                let via_exact = engine.aknn_exact(&q, k, alpha, &AknnConfig::lb_lp_ub()).unwrap();
                assert_eq!(
                    fingerprint(&via_mtree),
                    fingerprint(&via_brute),
                    "L2 M-tree diverged from L2 brute scan at seed {query_seed} k {k} α {alpha}"
                );
                let dist_bits = |r: &fuzzy_query::AknnResult| -> Vec<u64> {
                    r.neighbors.iter().map(|n| n.dist.hi().to_bits()).collect()
                };
                assert_eq!(
                    dist_bits(&via_mtree),
                    dist_bits(&via_exact),
                    "L2 M-tree distances diverged from the exact rectangle engine \
                     at seed {query_seed} k {k} α {alpha}"
                );
            }
        }
    }
}

#[test]
fn mtree_build_and_search_are_deterministic() {
    let (cfg, net, store) = road_fixture();
    let metric = GraphMetric::new(net.clone());
    let objects: Vec<FuzzyObject<2>> =
        store.ids().iter().map(|&id| store.probe(id).unwrap().as_ref().clone()).collect();
    let t1 = MTree::build(&metric, &objects, MTreeConfig::default());
    let t2 = MTree::build(&metric, &objects, MTreeConfig::default());
    let q = cfg.query_object(&net, 4);
    let t = Threshold::at(0.5);
    let r1 = metric_aknn(&metric, &t1, &store, &q, 8, t, None).unwrap();
    let r2 = metric_aknn(&metric, &t2, &store, &q, 8, t, None).unwrap();
    assert_eq!(fingerprint(&r1), fingerprint(&r2));
    assert_eq!(r1.stats.node_accesses, r2.stats.node_accesses);
    assert_eq!(r1.stats.object_accesses, r2.stats.object_accesses);
    assert_eq!(r1.stats.distance_evals, r2.stats.distance_evals);

    // Save/load round trip answers identically, with identical costs.
    let dir = std::env::temp_dir().join("metric_search_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("road.fzmt");
    t1.save(&path).unwrap();
    let loaded = MTree::<2>::load(&path, &metric).unwrap();
    let r3 = metric_aknn(&metric, &loaded, &store, &q, 8, t, None).unwrap();
    assert_eq!(fingerprint(&r1), fingerprint(&r3));
    assert_eq!(r1.stats.node_accesses, r3.stats.node_accesses);
    std::fs::remove_file(&path).ok();

    // Opening under the wrong metric is a typed error, not a wrong answer.
    assert!(MTree::<2>::load(dir.join("missing.fzmt"), &metric).is_err());
    t1.save(&path).unwrap();
    assert!(MTree::<2>::load(&path, &L2).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn graph_distance_dominates_straight_line() {
    // Sanity for the workload itself: shortest-path distance can never be
    // shorter than L2 between the same snapped points (edge weights are
    // the L2 lengths of their segments), so the two metrics rank objects
    // differently in exactly the expected direction.
    let (_, net, _) = road_fixture();
    let metric = GraphMetric::new(net.clone());
    let coords = net.coords();
    for i in (0..coords.len()).step_by(13) {
        for j in (0..coords.len()).step_by(17) {
            let g = metric.dist(&coords[i], &coords[j]);
            let l = coords[i].dist(&coords[j]);
            assert!(
                g >= l * (1.0 - 1e-9),
                "graph distance {g} undercuts straight line {l} between {i} and {j}"
            );
        }
    }
}
