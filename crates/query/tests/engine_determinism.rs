//! One engine, whatever it runs over: a `QueryScratch` carried from an
//! in-memory image to a file to an overlay leaves no trace, a pinned epoch
//! snapshot keeps answering **byte-identically** while the index file is
//! compacted under it, the explicit-metric roots under `&L2` are exact
//! aliases of the plain methods, and an RKNN's windowed profiles do not
//! care whether a candidate's record is read from a file or from an image.
//! Distances are compared at the IEEE-754 bit level; "close enough" is a
//! failure.

use std::sync::Arc;

use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::{NodeAccess, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryScratch, RknnAlgorithm, Versioned};
use fuzzy_store::{FileStore, FileStoreWriter, MemStore, ObjectStore};

mod common;
use common::{
    aknn_line, counts, fingerprint, rknn_line, run_on_threads, Answer, KernelCall, RecordingL2,
    Request, Settle, Window,
};

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
fn workload<S: ObjectStore<2>>(store: &S, n: u64) -> Vec<Request> {
    let mut requests = Vec::new();
    for i in 0..n {
        let q = store.probe(ObjectId(i)).unwrap().as_ref().clone();
        match i % 6 {
            0 => requests.push(Request::aknn(q, 5, 0.5, AknnConfig::lb_lp_ub())),
            1 => requests.push(Request::aknn(q, 3, 0.8, AknnConfig::basic())),
            2 => requests.push(Request::aknn(q, 8, 0.3, AknnConfig::lb())),
            3 => requests.push(Request::rknn(
                q,
                3,
                (0.3, 0.7),
                RknnAlgorithm::RssIcr,
                AknnConfig::lb_lp_ub(),
            )),
            4 => requests.push(Request::rknn(
                q,
                2,
                (0.2, 0.9),
                RknnAlgorithm::Rss,
                AknnConfig::lb_lp(),
            )),
            // Deliberately invalid: α out of range.
            _ => requests.push(Request::aknn(q, 4, 1.5, AknnConfig::lb_lp_ub())),
        }
    }
    requests
}

/// The dataset as a `.fzkn` file under a per-test name.
fn file_store(tag: &str, n: u64) -> (std::path::PathBuf, FileStore<2>) {
    let path =
        std::env::temp_dir().join(format!("fuzzy-engine-det-{}-{tag}.fzkn", std::process::id()));
    let mut writer = FileStoreWriter::<2>::create(&path).unwrap();
    for obj in objects(n) {
        writer.append(&obj).unwrap();
    }
    (path, writer.finish().unwrap())
}

/// One `QueryScratch` carried image → file → overlay (pending inserts and
/// tombstones) → image again must leave no trace: every stop returns the
/// answers and the logical counters of a run on a fresh scratch. This is
/// what lets one long-lived worker scratch serve whatever index a SWAP
/// installs.
#[test]
fn one_scratch_reused_across_backends_matches_fresh_scratch() {
    const N: u64 = 60;
    const INDEXED: u64 = 54;
    let (store_path, store) = file_store("scratch", N);
    let config = RTreeConfig { max_entries: 8 };
    let tree = RTree::bulk_load(store.summaries().to_vec(), config);
    let index_path = store_path.with_extension("fzpt");
    let paged = PagedRTree::bulk_write(store.summaries().to_vec(), config, &index_path, 4096)
        .expect("write paged index");
    // The overlay holds the same live set by another route: a base over a
    // prefix, the tail as pending inserts, two ids deleted and re-inserted.
    let overlay_path = store_path.with_extension("overlay.fzpt");
    let base = PagedRTree::bulk_write(
        store.summaries()[..INDEXED as usize].to_vec(),
        config,
        &overlay_path,
        4096,
    )
    .expect("write overlay base");
    let mut overlay = OverlayRTree::new(Arc::new(base)).unwrap();
    for s in &store.summaries()[INDEXED as usize..] {
        assert!(overlay.insert(*s));
    }
    for id in [5usize, 31] {
        assert!(overlay.delete(ObjectId(id as u64)));
        assert!(overlay.insert(store.summaries()[id]));
    }
    let requests = workload(&store, N);

    // Answer bytes plus every counter except the wall clock.
    fn trace(res: Result<Answer, fuzzy_query::QueryError>) -> String {
        match res {
            Err(e) => format!("err {e}\n"),
            Ok(r) => {
                let s = *r.stats();
                let counts = (counts(&s), s.node_disk_reads);
                let line = match &r {
                    Answer::Aknn(r) => aknn_line(&r.neighbors),
                    Answer::Rknn(r) => rknn_line(&r.items),
                };
                format!("{counts:?} {line}")
            }
        }
    }

    // One request on the carried scratch and on a fresh one, each from a
    // cold buffer pool so `node_disk_reads` is comparable too.
    fn reused_vs_fresh<I: NodeAccess<2>>(
        index: &I,
        pool: Option<&PagedRTree<2>>,
        store: &FileStore<2>,
        req: &Request,
        reused: &mut QueryScratch<2>,
    ) -> (String, String) {
        let engine = QueryEngine::new(index, store);
        let cold = |scratch: &mut QueryScratch<2>| {
            if let Some(pool) = pool {
                pool.clear_cache();
            }
            trace(req.run(&engine, scratch))
        };
        (cold(reused), cold(&mut QueryScratch::new()))
    }

    let mut reused = QueryScratch::new();
    for (i, req) in requests.iter().enumerate() {
        let stops = [
            ("image", reused_vs_fresh(&tree, None, &store, req, &mut reused)),
            ("file", reused_vs_fresh(&paged, Some(&paged), &store, req, &mut reused)),
            ("overlay", reused_vs_fresh(&overlay, Some(overlay.base()), &store, req, &mut reused)),
            ("image again", reused_vs_fresh(&tree, None, &store, req, &mut reused)),
        ];
        for (stop, (got, want)) in stops {
            assert_eq!(got, want, "request {i}, {stop}: reused scratch diverged");
        }
    }

    for p in [&store_path, &index_path, &overlay_path] {
        std::fs::remove_file(p).ok();
    }
}

/// The compact-while-querying race: readers pinned to a pre-compaction
/// snapshot of a `Versioned` overlay keep answering byte-identically while
/// the writer folds the delta sidecar into a rewritten index file
/// underneath them — the snapshot's open handle still reads the replaced
/// file — and the post-compaction snapshot answers identically too.
#[test]
fn compaction_under_a_pinned_snapshot_is_byte_identical() {
    const N: u64 = 48;
    const INDEXED: u64 = 42;
    let (store_path, store) = file_store("compact", N);

    // Index only a prefix so the tail can arrive as dynamic inserts.
    let index_path = store_path.with_extension("fzpt");
    let base = PagedRTree::bulk_write(
        store.summaries()[..INDEXED as usize].to_vec(),
        RTreeConfig { max_entries: 8 },
        &index_path,
        4096,
    )
    .unwrap();
    let dynamic = Versioned::new(OverlayRTree::new(Arc::new(base)).unwrap());
    for s in &store.summaries()[INDEXED as usize..] {
        assert!(dynamic.write(|overlay| overlay.insert(*s)));
    }
    for id in [3u64, 17, 29] {
        assert!(dynamic.write(|overlay| overlay.delete(ObjectId(id))));
    }
    dynamic.snapshot().save_delta().unwrap();

    let requests = workload(&store, N);
    let pinned = dynamic.snapshot();
    let baseline = fingerprint(&run_on_threads(&pinned, &store, &requests, 1));

    // Readers hammer the pinned snapshot while the main thread compacts.
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (pinned, requests, store, baseline) =
                    (&pinned, &requests, &store, baseline.as_str());
                scope.spawn(move || {
                    for round in 0..4 {
                        let outcome = run_on_threads(pinned, store, requests, 2);
                        assert_eq!(
                            fingerprint(&outcome),
                            baseline,
                            "pinned snapshot diverged mid-compaction (round {round})"
                        );
                    }
                })
            })
            .collect();

        dynamic
            .write(|overlay| -> Result<(), fuzzy_store::StoreError> {
                let folded = overlay.clone().compact(4096)?;
                *overlay = OverlayRTree::new(Arc::new(folded))?;
                Ok(())
            })
            .expect("compaction failed");

        for r in readers {
            r.join().unwrap();
        }
    });

    // A fresh snapshot over the folded base: same answers, clean overlay,
    // no sidecar left.
    let fresh = dynamic.snapshot();
    assert!(fresh.is_clean(), "compaction must leave the overlay clean");
    assert!(!fuzzy_index::delta_path_for(&index_path).exists());
    let after = run_on_threads(&fresh, &store, &requests, 1);
    assert_eq!(fingerprint(&after), baseline, "post-compaction answers diverged");

    std::fs::remove_file(&index_path).ok();
    std::fs::remove_file(&store_path).ok();
}

/// The metric seam under `Metric = L2`: every explicit `*_in(&L2, ..)`
/// root must fingerprint **bit-identically** against its committed plain
/// counterpart — AKNN (lazy and exact) and RKNN on every algorithm. The
/// plain methods are
/// documented as exact aliases of the `*_in(&L2, ..)` roots; this pins
/// the alias claim at the IEEE-754 level so a drive-by edit to the
/// generic path cannot silently fork the two.
#[test]
fn metric_generic_l2_paths_match_committed_engine() {
    use fuzzy_core::metric::L2;

    const N: u64 = 60;
    let store = MemStore::from_objects(objects(N)).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
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
}

/// One 4-NN range query under the recording metric: the answer's bits, then
/// every kernel call and every window the metric saw, in call order.
fn recorded_rknn<I: NodeAccess<2>, S: ObjectStore<2>>(
    engine: &QueryEngine<'_, I, S, 2>,
    metric: &RecordingL2,
    q: &FuzzyObject<2>,
    (lo, hi): (f64, f64),
    algo: RknnAlgorithm,
) -> (String, Vec<KernelCall>, Vec<Window>) {
    metric.take();
    let cfg = AknnConfig::lb_lp_ub();
    let res = engine
        .rknn_with_scratch_in(metric, q, 4, lo, hi, algo, &cfg, &mut QueryScratch::new())
        .unwrap();
    let (kernel, windows) = metric.take();
    (rknn_line(&res.items), kernel, windows)
}

/// RKNN over objects as they come off a file (`FileStore` + `PagedRTree`
/// opened from disk) and off an in-memory image of the same data
/// (`MemStore` + `RTree`): every candidate is a freshly decoded record,
/// columns only, and the windowed profile sweep never indexes it, so
/// answers — to the bit — and logical counters must agree,
/// on continuous and on 256-level memberships, for the benchmark's range,
/// a single probability, a range ending at the kernel level and one whose
/// ends are stored membership levels. Nor does RSS's settle step: both
/// sides put the same questions to the metric in the same order — every
/// kernel call's candidate, threshold, seed and answer, every window's
/// candidate and top, to the bit — so the same outsiders are dropped and the
/// same neighbours settled.
#[test]
fn rknn_windows_do_not_depend_on_where_candidates_live() {
    use fuzzy_datagen::{CellConfig, SyntheticConfig};

    let synthetic = SyntheticConfig {
        num_objects: 90,
        points_per_object: 50,
        space: 7.0,
        seed: 33,
        ..SyntheticConfig::default()
    };
    let cell = CellConfig {
        num_objects: 90,
        points_per_object: 50,
        clusters: 0,
        space: 7.0,
        seed: 33,
        ..CellConfig::default()
    };
    let datasets: [(&str, Vec<FuzzyObject<2>>); 2] =
        [("synthetic", synthetic.generate().collect()), ("cell", cell.generate().collect())];
    let config = RTreeConfig { max_entries: 8 };
    let cfg = AknnConfig::lb_lp_ub();

    for (tag, objects) in datasets {
        let path = std::env::temp_dir()
            .join(format!("fuzzy-engine-det-{}-window-{tag}.fzkn", std::process::id()));
        let mut writer = FileStoreWriter::<2>::create(&path).unwrap();
        for obj in &objects {
            writer.append(obj).unwrap();
        }
        let on_file = writer.finish().unwrap();
        let index_path = path.with_extension("fzpt");
        let paged = PagedRTree::bulk_write(on_file.summaries().to_vec(), config, &index_path, 4096)
            .expect("write paged index");

        let queries: Vec<FuzzyObject<2>> = objects[..2].to_vec();
        let image = MemStore::from_objects(objects).unwrap();
        let tree = RTree::bulk_load(image.summaries().to_vec(), config);

        let from_file = QueryEngine::new(&paged, &on_file);
        let from_memory = QueryEngine::new(&tree, &image);
        let metric = RecordingL2::default();
        let (mut dropped, mut settled) = (0, 0);
        for q in &queries {
            let levels = q.distinct_levels();
            let stored = (levels[levels.len() / 4], levels[3 * levels.len() / 4]);
            for (lo, hi) in [(0.3, 0.7), (0.45, 0.45), (0.55, 1.0), stored] {
                for algo in [
                    RknnAlgorithm::Naive,
                    RknnAlgorithm::Basic,
                    RknnAlgorithm::Rss,
                    RknnAlgorithm::RssIcr,
                ] {
                    let a = from_file.rknn(q, 4, lo, hi, algo, &cfg).unwrap();
                    let b = from_memory.rknn(q, 4, lo, hi, algo, &cfg).unwrap();
                    let what = format!("{tag} {} [{lo}, {hi}] query {}", algo.name(), q.id());
                    assert_eq!(rknn_line(&a.items), rknn_line(&b.items), "{what}");
                    assert_eq!(counts(&a.stats), counts(&b.stats), "{what}");

                    if !matches!(algo, RknnAlgorithm::Rss | RknnAlgorithm::RssIcr) {
                        continue;
                    }
                    let on_file = recorded_rknn(&from_file, &metric, q, (lo, hi), algo);
                    let in_memory = recorded_rknn(&from_memory, &metric, q, (lo, hi), algo);
                    assert_eq!(on_file.0, rknn_line(&a.items), "{what}");
                    assert_eq!(on_file, in_memory, "{what}: what the metric was asked");
                    if lo < hi {
                        let step1 = from_memory.aknn_exact(q, 4, hi, &cfg).unwrap().ids();
                        let settle = Settle::of(&on_file.1, &on_file.2, lo, &step1);
                        dropped += settle.dropped.len();
                        settled += settle.settled.len();
                    }
                }
            }
        }
        assert!(dropped > 0 && settled > 0, "{tag}: the settle step never acted");
        for p in [&path, &index_path] {
            std::fs::remove_file(p).ok();
        }
    }
}
