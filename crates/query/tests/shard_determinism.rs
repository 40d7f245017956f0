//! Cross-shard determinism: a scatter-gather forest with a shared τ
//! bound must answer **byte-identically** to the single-tree engine —
//! at every shard count (1/2/4/8), at every thread count (1/2/8), on
//! the in-memory and the disk-resident backend, and while a concurrent
//! compaction folds delta sidecars under pinned snapshots. Distances
//! are compared at the IEEE-754 bit level; "close enough" is a failure.

use std::sync::Arc;

use fuzzy_core::distance::alpha_distance_brute;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::shard::compact_shards;
use fuzzy_index::{RTree, RTreeConfig, ShardAssign, ShardedIndex, StrCenterAssign};
use fuzzy_query::{
    alpha_distance_join, execute_one, sharded_alpha_distance_join, AknnConfig, BatchExecutor,
    BatchOutcome, BatchRequest, BatchResponse, DistBound, Forest, Neighbor, QueryEngine,
    QueryScratch, RknnAlgorithm, RknnItem, SearchBackend, Versioned,
};
use fuzzy_store::{FileStoreWriter, MemStore, ObjectStore};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A deterministic pseudo-random fuzzy object (xorshift, no external RNG).
fn blob(id: u64, cx: f64, cy: f64) -> FuzzyObject<2> {
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..20 {
        let r = rnd();
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

fn objects(n: u64) -> impl Iterator<Item = FuzzyObject<2>> {
    (0..n).map(|i| blob(i, (i % 12) as f64 * 3.0, (i / 12) as f64 * 3.0))
}

/// A mixed AKNN/RKNN workload over every paper variant, including an
/// invalid slot — error positions must be stable across all cells too.
fn workload<S: ObjectStore<2>>(store: &S, n: u64) -> Vec<BatchRequest<2>> {
    let mut requests = Vec::new();
    for i in 0..n {
        let q = store.probe(ObjectId(i)).unwrap().as_ref().clone();
        match i % 6 {
            0 => requests.push(BatchRequest::aknn(q, 5, 0.5, AknnConfig::lb_lp_ub())),
            1 => requests.push(BatchRequest::aknn(q, 3, 0.8, AknnConfig::basic())),
            2 => requests.push(BatchRequest::aknn(q, 8, 0.3, AknnConfig::lb())),
            3 => requests.push(BatchRequest::rknn(
                q,
                3,
                (0.3, 0.7),
                RknnAlgorithm::RssIcr,
                AknnConfig::lb_lp_ub(),
            )),
            4 => requests.push(BatchRequest::rknn(
                q,
                2,
                (0.2, 0.9),
                RknnAlgorithm::Rss,
                AknnConfig::lb_lp(),
            )),
            // Deliberately invalid: α out of range.
            _ => requests.push(BatchRequest::aknn(q, 4, 1.5, AknnConfig::lb_lp_ub())),
        }
    }
    requests
}

/// One AKNN answer line: ids plus the raw IEEE-754 bits of every
/// distance (or bound endpoints).
fn aknn_line(neighbors: &[Neighbor]) -> String {
    let mut out = String::new();
    for n in neighbors {
        let bits = match n.dist {
            DistBound::Exact(d) => format!("={:016x}", d.to_bits()),
            DistBound::Bounded { lo, hi } => {
                format!("[{:016x},{:016x}]", lo.to_bits(), hi.to_bits())
            }
        };
        out.push_str(&format!("{}{bits} ", n.id));
    }
    out.push('\n');
    out
}

/// One RKNN answer line: ids plus the bits of every interval endpoint.
fn rknn_line(items: &[RknnItem]) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&format!("{} ", item.id));
        for iv in item.range.intervals() {
            out.push_str(&format!(
                "({}{:016x},{:016x}{}) ",
                if iv.lo_closed { "[" } else { "(" },
                iv.lo.to_bits(),
                iv.hi.to_bits(),
                if iv.hi_closed { "]" } else { ")" },
            ));
        }
    }
    out.push('\n');
    out
}

/// Canonical byte representation of the answers. Equal fingerprints ⟺
/// byte-identical result sets.
fn fingerprint(outcome: &BatchOutcome) -> String {
    let mut out = String::new();
    for (i, res) in outcome.responses.iter().enumerate() {
        out.push_str(&format!("[{i}] "));
        match res {
            Err(e) => out.push_str(&format!("err {e}\n")),
            Ok(BatchResponse::Aknn(r)) => out.push_str(&aknn_line(&r.neighbors)),
            Ok(BatchResponse::Rknn(r)) => out.push_str(&rknn_line(&r.items)),
        }
    }
    out
}

/// The answers the forest must reproduce, computed per request on the
/// single-tree engine. AKNN slots go through [`QueryEngine::aknn_exact`]
/// — scatter-gather resolves every answer, so its canonical form is the
/// exact-distance (dist, id) order, not the lazy engine's
/// confirmation-order `Bounded` results.
fn single_tree_fingerprint<A, S>(tree: &A, store: &S, requests: &[BatchRequest<2>]) -> String
where
    A: fuzzy_index::NodeAccess<2>,
    S: ObjectStore<2>,
{
    let engine = QueryEngine::new(tree, store);
    let mut out = String::new();
    for (i, req) in requests.iter().enumerate() {
        out.push_str(&format!("[{i}] "));
        match req {
            BatchRequest::Aknn { query, k, alpha, cfg } => {
                match engine.aknn_exact(query, *k, *alpha, cfg) {
                    Ok(r) => out.push_str(&aknn_line(&r.neighbors)),
                    Err(e) => out.push_str(&format!("err {e}\n")),
                }
            }
            BatchRequest::Rknn { query, k, alpha_start, alpha_end, algo, cfg } => {
                match engine.rknn(query, *k, *alpha_start, *alpha_end, *algo, cfg) {
                    Ok(r) => out.push_str(&rknn_line(&r.items)),
                    Err(e) => out.push_str(&format!("err {e}\n")),
                }
            }
        }
    }
    out
}

/// Partition a summary set into `shards` in-memory trees with the same
/// STR strategy the on-disk builder uses.
fn mem_forest(store: &MemStore<2>, shards: usize) -> Vec<RTree<2>> {
    let summaries = store.summaries().to_vec();
    let assign = ShardAssign::<2>::assign(&StrCenterAssign, &summaries, shards);
    let mut parts: Vec<Vec<_>> = vec![Vec::new(); shards];
    for (s, shard) in summaries.into_iter().zip(&assign) {
        parts[*shard as usize].push(s);
    }
    parts
        .into_iter()
        .map(|p| RTree::bulk_load(p, RTreeConfig { max_entries: 8, min_fill: 0.4 }))
        .collect()
}

/// The core matrix: shard counts × thread counts on the mem backend,
/// every cell byte-identical to the single-tree exact answers.
#[test]
fn forest_matches_single_tree_across_shard_and_thread_counts() {
    const N: u64 = 60;
    let store = MemStore::from_objects(objects(N)).unwrap();
    let tree =
        RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8, min_fill: 0.4 });
    let requests = workload(&store, N);
    let reference = single_tree_fingerprint(&tree, &store, &requests);
    assert!(reference.contains("err "), "workload must exercise error slots");
    assert!(reference.contains('='), "workload must exercise success slots");

    for shards in SHARD_COUNTS {
        let forest = mem_forest(&store, shards);
        assert_eq!(forest.len(), shards);
        for threads in THREAD_COUNTS {
            let outcome = BatchExecutor::new(threads).run(&Forest::new(&forest), &store, &requests);
            assert_eq!(
                fingerprint(&outcome),
                reference,
                "S={shards} T={threads} diverged from the single-tree answers"
            );
        }
    }
}

/// The disk-resident forest (`ShardedIndex` → paged overlay shards) must
/// agree with the in-memory single tree, byte for byte, after a real
/// build/open round trip through the `.fzsm` manifest.
#[test]
fn paged_forest_matches_single_tree() {
    const N: u64 = 48;
    let base = std::env::temp_dir();
    let pid = std::process::id();
    let store_path = base.join(format!("fuzzy-shard-det-{pid}.fzkn"));
    let mut writer = FileStoreWriter::<2>::create(&store_path).unwrap();
    for obj in objects(N) {
        writer.append(&obj).unwrap();
    }
    let store = writer.finish().unwrap();

    // Reference over the same FileStore so only the index layout varies.
    let config = RTreeConfig { max_entries: 8, min_fill: 0.4 };
    let tree = RTree::bulk_load(store.summaries().to_vec(), config);
    let requests = workload(&store, N);
    let reference = single_tree_fingerprint(&tree, &store, &requests);

    for shards in [1usize, 4] {
        let manifest = base.join(format!("fuzzy-shard-det-{pid}-s{shards}.fzsm"));
        ShardedIndex::<2>::build(
            store.summaries().to_vec(),
            shards,
            &StrCenterAssign,
            config,
            &manifest,
            4096,
        )
        .unwrap();
        let (meta, overlays) = ShardedIndex::<2>::open_overlays(&manifest, 4).unwrap();
        assert_eq!(meta.shards.len(), shards);
        for threads in THREAD_COUNTS {
            let outcome =
                BatchExecutor::new(threads).run(&Forest::new(&overlays), &store, &requests);
            assert_eq!(
                fingerprint(&outcome),
                reference,
                "paged S={shards} T={threads} diverged from the in-memory single tree"
            );
        }
        for i in 0..shards {
            std::fs::remove_file(fuzzy_index::shard::resolve_shard_path(
                &manifest,
                &meta.shards[i].path,
            ))
            .ok();
        }
        std::fs::remove_file(&manifest).ok();
    }
    std::fs::remove_file(&store_path).ok();
}

/// Sharded AKNN against the two independent oracles: the single-tree
/// exact reference (bit-identical distances) and a linear scan with
/// brute-force α-distances (the k-th distance bounds every answer).
#[test]
fn sharded_aknn_matches_exact_reference_and_linear_scan() {
    const N: u64 = 70;
    let store = MemStore::from_objects(objects(N)).unwrap();
    let tree =
        RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8, min_fill: 0.4 });
    let engine = QueryEngine::new(&tree, &store);
    let forest = mem_forest(&store, 4);
    let forest = Forest::new(&forest);
    let sharded = QueryEngine::new(&forest, &store);
    let mut scratch = QueryScratch::new();

    for qid in [0u64, 13, 37, 59] {
        let q = store.probe(ObjectId(qid)).unwrap().as_ref().clone();
        for alpha in [0.2, 0.6, 0.9] {
            let t = Threshold::at(alpha);
            // Linear-scan oracle: every exact α-distance, ascending.
            let mut oracle: Vec<(f64, ObjectId)> = store
                .summaries()
                .iter()
                .map(|s| {
                    let obj = store.probe(s.id).unwrap();
                    (alpha_distance_brute(&obj, &q, t).unwrap(), s.id)
                })
                .collect();
            oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

            for k in [1usize, 5, 12] {
                let exact = engine.aknn_exact(&q, k, alpha, &AknnConfig::lb_lp_ub()).unwrap();
                let forest_res = sharded
                    .aknn_with_scratch(&q, k, alpha, &AknnConfig::lb_lp_ub(), &mut scratch)
                    .unwrap();
                assert_eq!(forest_res.neighbors.len(), k);
                for (a, b) in exact.neighbors.iter().zip(&forest_res.neighbors) {
                    assert_eq!(a.id, b.id, "q {qid} α {alpha} k {k}");
                    let (DistBound::Exact(da), DistBound::Exact(db)) = (a.dist, b.dist) else {
                        panic!("exact reference and sharded answers must carry exact distances");
                    };
                    assert_eq!(
                        da.to_bits(),
                        db.to_bits(),
                        "q {qid} α {alpha} k {k}: sharded distance differs in the bits"
                    );
                }
                // Every sharded answer within the oracle's k-th distance.
                let kth = oracle[k - 1].0;
                for n in &forest_res.neighbors {
                    let DistBound::Exact(d) = n.dist else { unreachable!() };
                    assert!(
                        d <= kth * (1.0 + 1e-9) || d.to_bits() == kth.to_bits(),
                        "q {qid} α {alpha} k {k}: {} at {d} beyond oracle k-th {kth}",
                        n.id
                    );
                }
            }
        }
    }
}

/// One `QueryScratch` carried tree → forest (S = 4) → tree → forest
/// (S = 2) must leave no trace: every stop returns the answers and the
/// logical counters of a run on a fresh scratch. This is what lets one
/// long-lived worker scratch serve whatever layout a SWAP installs.
#[test]
fn one_scratch_reused_across_tree_and_forest_matches_fresh_scratch() {
    const N: u64 = 60;
    let store = MemStore::from_objects(objects(N)).unwrap();
    let tree =
        RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8, min_fill: 0.4 });
    let (s4, s2) = (mem_forest(&store, 4), mem_forest(&store, 2));
    let (f4, f2) = (Forest::new(&s4), Forest::new(&s2));
    let requests = workload(&store, N);

    // Answer bytes plus every counter except the wall clock.
    fn trace(res: Result<BatchResponse, fuzzy_query::QueryError>) -> String {
        match res {
            Err(e) => format!("err {e}\n"),
            Ok(r) => {
                let s = *r.stats();
                let counts = [
                    s.object_accesses,
                    s.node_accesses,
                    s.node_disk_reads,
                    s.distance_evals,
                    s.profile_computations,
                    s.bound_evals,
                    s.aknn_calls,
                    s.candidates,
                ];
                let line = match &r {
                    BatchResponse::Aknn(r) => aknn_line(&r.neighbors),
                    BatchResponse::Rknn(r) => rknn_line(&r.items),
                };
                format!("{counts:?} {line}")
            }
        }
    }

    // One request on the carried scratch and on a fresh one.
    fn reused_vs_fresh<I: SearchBackend<2>>(
        index: &I,
        store: &MemStore<2>,
        req: &BatchRequest<2>,
        reused: &mut QueryScratch<2>,
    ) -> (String, String) {
        let engine = QueryEngine::new(index, store);
        (
            trace(execute_one(&engine, req, reused)),
            trace(execute_one(&engine, req, &mut QueryScratch::new())),
        )
    }

    let mut reused = QueryScratch::new();
    for (i, req) in requests.iter().enumerate() {
        let stops = [
            ("tree", reused_vs_fresh(&tree, &store, req, &mut reused)),
            ("forest S=4", reused_vs_fresh(&f4, &store, req, &mut reused)),
            ("tree again", reused_vs_fresh(&tree, &store, req, &mut reused)),
            ("forest S=2", reused_vs_fresh(&f2, &store, req, &mut reused)),
        ];
        for (stop, (got, want)) in stops {
            assert_eq!(got, want, "request {i}, {stop}: reused scratch diverged");
        }
    }
}

/// The ε-join over two forests must concatenate to exactly the
/// single-tree join — shards partition each side, so pair sets are
/// disjoint and the canonical sort makes the merge order-independent.
#[test]
fn sharded_join_matches_single_tree_join() {
    let left_store = MemStore::from_objects(objects(40)).unwrap();
    let right_store = MemStore::from_objects(
        (0..40).map(|i| blob(i + 1000, (i % 9) as f64 * 3.5, (i / 9) as f64 * 3.5)),
    )
    .unwrap();
    let lt = RTree::bulk_load(left_store.summaries().to_vec(), RTreeConfig::default());
    let rt = RTree::bulk_load(right_store.summaries().to_vec(), RTreeConfig::default());
    let t = Threshold::at(0.5);
    let cfg = AknnConfig::lb_lp_ub();

    for radius in [1.5, 4.0] {
        let reference =
            alpha_distance_join(&lt, &left_store, &rt, &right_store, t, radius, &cfg).unwrap();
        for (ls, rs) in [(1usize, 2usize), (2, 4), (4, 8)] {
            let lf = mem_forest(&left_store, ls);
            let rf = mem_forest(&right_store, rs);
            let forest =
                sharded_alpha_distance_join(&lf, &left_store, &rf, &right_store, t, radius, &cfg)
                    .unwrap();
            assert_eq!(
                forest.pairs, reference.pairs,
                "join over {ls}×{rs} shards diverged at radius {radius}"
            );
        }
    }
}

/// The compact-while-querying race: readers pinned to a pre-compaction
/// snapshot of a `Versioned` shard vector keep answering byte-identically
/// while `compact_shards` folds dirty delta sidecars shard-parallel
/// underneath them — and the post-compaction snapshot answers identically
/// too.
#[test]
fn compaction_under_pinned_snapshots_is_byte_identical() {
    const N: u64 = 48;
    const INDEXED: u64 = 42;
    let base = std::env::temp_dir();
    let pid = std::process::id();
    let store_path = base.join(format!("fuzzy-shard-compact-{pid}.fzkn"));
    let mut writer = FileStoreWriter::<2>::create(&store_path).unwrap();
    for obj in objects(N) {
        writer.append(&obj).unwrap();
    }
    let store = Arc::new(writer.finish().unwrap());

    // Index only a prefix so the tail can arrive as dynamic inserts.
    let manifest = base.join(format!("fuzzy-shard-compact-{pid}.fzsm"));
    ShardedIndex::<2>::build(
        store.summaries()[..INDEXED as usize].to_vec(),
        4,
        &StrCenterAssign,
        RTreeConfig { max_entries: 8, min_fill: 0.4 },
        &manifest,
        4096,
    )
    .unwrap();
    let (meta, overlays) = ShardedIndex::<2>::open_overlays(&manifest, 8).unwrap();
    let dynamic = Versioned::new(overlays);

    // Dirty several shards: insert the tail (routed by the manifest's
    // build-time regions), delete a few indexed ids (every shard is
    // consulted — routing is only a placement heuristic).
    for s in &store.summaries()[INDEXED as usize..] {
        assert!(dynamic.write(|shards| shards[meta.route(&s.support_mbr)].insert(*s)));
    }
    for id in [3u64, 17, 29] {
        assert!(dynamic.write(|shards| shards.iter_mut().any(|shard| shard.delete(ObjectId(id)))));
    }

    let requests = workload(store.as_ref(), N);
    let snapshots = dynamic.snapshot();
    let baseline = {
        let outcome =
            BatchExecutor::sequential().run(&Forest::new(&snapshots), store.as_ref(), &requests);
        fingerprint(&outcome)
    };

    // Readers hammer the pinned snapshots while the main thread compacts.
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let snapshots = Forest::new(&snapshots);
                let requests = &requests;
                let store = store.as_ref();
                let baseline = baseline.as_str();
                scope.spawn(move || {
                    for round in 0..4 {
                        let outcome = BatchExecutor::new(2).run(&snapshots, store, requests);
                        assert_eq!(
                            fingerprint(&outcome),
                            baseline,
                            "pinned snapshot diverged mid-compaction (round {round})"
                        );
                    }
                })
            })
            .collect();

        let flags = dynamic.write(|shards| compact_shards(shards, Some(4096)));
        assert!(flags.iter().all(|f| f.is_ok()), "compaction failed: {flags:?}");
        assert!(
            flags.iter().any(|f| matches!(f, Ok(true))),
            "at least one shard was dirty and must have compacted"
        );

        for r in readers {
            r.join().unwrap();
        }
    });

    // Fresh snapshots over the folded bases: same answers, clean overlays.
    let fresh = dynamic.snapshot();
    assert!(fresh.iter().all(|s| s.is_clean()), "compaction must leave overlays clean");
    let after = BatchExecutor::sequential().run(&Forest::new(&fresh), store.as_ref(), &requests);
    assert_eq!(fingerprint(&after), baseline, "post-compaction answers diverged");

    for i in 0..fresh.len() {
        let p = fuzzy_index::shard::resolve_shard_path(&manifest, &meta.shards[i].path);
        std::fs::remove_file(fuzzy_index::delta_path_for(&p)).ok();
        std::fs::remove_file(&p).ok();
    }
    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&store_path).ok();
}

/// The metric seam under `Metric = L2`: every explicit `*_in(&L2, ..)`
/// root must fingerprint **bit-identically** against its committed plain
/// counterpart — single-tree AKNN (lazy and exact), RKNN on every
/// algorithm, and the forest at every shard count. The plain methods are
/// documented as exact aliases of the `*_in(&L2, ..)` roots; this pins
/// the alias claim at the IEEE-754 level so a drive-by edit to the
/// generic path cannot silently fork the two.
#[test]
fn metric_generic_l2_paths_match_committed_engine() {
    use fuzzy_core::metric::L2;

    const N: u64 = 60;
    let store = MemStore::from_objects(objects(N)).unwrap();
    let tree =
        RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8, min_fill: 0.4 });
    let engine = QueryEngine::new(&tree, &store);
    let cfg = AknnConfig::lb_lp_ub();
    let mut scratch = QueryScratch::new();

    let queries: Vec<FuzzyObject<2>> = [3u64, 17, 41]
        .iter()
        .map(|&id| store.probe(ObjectId(id)).unwrap().as_ref().clone())
        .collect();

    for q in &queries {
        for (k, alpha) in [(1usize, 0.3), (5, 0.5), (10, 0.8)] {
            let plain = engine.aknn(q, k, alpha, &cfg).unwrap();
            let t = Threshold::at(alpha);
            let seamed = engine.aknn_at_with_scratch_in(&L2, q, k, t, &cfg, &mut scratch).unwrap();
            assert_eq!(aknn_line(&plain.neighbors), aknn_line(&seamed.neighbors));
            assert_eq!(plain.stats.object_accesses, seamed.stats.object_accesses);
            assert_eq!(plain.stats.node_accesses, seamed.stats.node_accesses);
            assert_eq!(plain.stats.distance_evals, seamed.stats.distance_evals);

            let plain = engine.aknn_exact(q, k, alpha, &cfg).unwrap();
            let seamed =
                engine.aknn_exact_with_scratch_in(&L2, q, k, alpha, &cfg, &mut scratch).unwrap();
            assert_eq!(aknn_line(&plain.neighbors), aknn_line(&seamed.neighbors));
            assert_eq!(plain.stats.object_accesses, seamed.stats.object_accesses);
        }
        for algo in
            [RknnAlgorithm::Naive, RknnAlgorithm::Basic, RknnAlgorithm::Rss, RknnAlgorithm::RssIcr]
        {
            let plain = engine.rknn(q, 4, 0.3, 0.7, algo, &cfg).unwrap();
            let seamed =
                engine.rknn_with_scratch_in(&L2, q, 4, 0.3, 0.7, algo, &cfg, &mut scratch).unwrap();
            assert_eq!(rknn_line(&plain.items), rknn_line(&seamed.items), "{}", algo.name());
            assert_eq!(plain.stats.object_accesses, seamed.stats.object_accesses);
            assert_eq!(plain.stats.candidates, seamed.stats.candidates);
        }
    }

    for shards in SHARD_COUNTS {
        let forest = mem_forest(&store, shards);
        let forest = Forest::new(&forest);
        let sharded = QueryEngine::new(&forest, &store);
        for q in &queries {
            let plain = sharded.aknn(q, 5, 0.5, &cfg).unwrap();
            let t = Threshold::at(0.5);
            let seamed = sharded.aknn_at_with_scratch_in(&L2, q, 5, t, &cfg, &mut scratch).unwrap();
            assert_eq!(
                aknn_line(&plain.neighbors),
                aknn_line(&seamed.neighbors),
                "S={shards}: forest aknn under &L2 diverged"
            );
            assert_eq!(plain.stats.object_accesses, seamed.stats.object_accesses);
        }
    }
}
