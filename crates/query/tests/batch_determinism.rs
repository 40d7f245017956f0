//! Workload determinism: the same workload must produce byte-identical
//! answers whether it runs on 1, 2 or 8 threads (one `QueryScratch` each),
//! and whether the index is the in-memory `RTree` or the disk-resident
//! `PagedRTree`. The summed *logical* cost accounting of a concurrent run
//! must equal the sequential run exactly (the disk/cache split of a
//! shared buffer pool legitimately depends on interleaving and is checked
//! separately).

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use fuzzy_index::{NodeAccess, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryScratch, RknnAlgorithm};
use fuzzy_store::{FileStoreWriter, MemStore, ObjectStore};

mod common;
use common::{counts, fingerprint, run_on_threads, total_stats, Request};

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

/// A mixed workload touching every query type, several variants and both
/// valid and invalid parameters (error slots must be stable too).
fn workload<S: ObjectStore<2>>(store: &S, n: u64) -> Vec<Request> {
    let mut requests = Vec::new();
    for i in 0..n {
        let q = store.probe(ObjectId(i)).unwrap().as_ref().clone();
        match i % 5 {
            0 => requests.push(Request::aknn(q, 5, 0.5, AknnConfig::lb_lp_ub())),
            1 => requests.push(Request::aknn(q, 3, 0.8, AknnConfig::basic())),
            2 => requests.push(Request::rknn(
                q,
                3,
                (0.3, 0.7),
                RknnAlgorithm::RssIcr,
                AknnConfig::lb_lp_ub(),
            )),
            3 => requests.push(Request::rknn(
                q,
                2,
                (0.2, 0.9),
                RknnAlgorithm::Rss,
                AknnConfig::lb_lp(),
            )),
            // Deliberately invalid: α out of range; the error must land in
            // this exact slot on every run.
            _ => requests.push(Request::aknn(q, 4, 1.5, AknnConfig::lb_lp_ub())),
        }
    }
    requests
}

fn assert_deterministic<A, S>(tree: &A, store: &S, n: u64) -> String
where
    A: NodeAccess<2> + Sync,
    S: ObjectStore<2> + Sync,
{
    let requests = workload(store, n);
    let sequential = run_on_threads(tree, store, &requests, 1);
    let seq_print = fingerprint(&sequential);
    let seq_counts = counts(&total_stats(&sequential));
    assert!(sequential.iter().any(Result::is_err), "workload must exercise error slots");

    for threads in [2usize, 8] {
        let concurrent = run_on_threads(tree, store, &requests, threads);
        assert_eq!(concurrent.len(), requests.len());
        assert_eq!(
            fingerprint(&concurrent),
            seq_print,
            "{threads}-thread run diverged from sequential"
        );
        let total = total_stats(&concurrent);
        assert_eq!(
            counts(&total),
            seq_counts,
            "{threads}-thread stats sum diverged from sequential"
        );
        // The disk/cache split may vary with interleaving but can never
        // exceed the logical access count.
        assert!(total.node_disk_reads <= total.node_accesses);
    }
    seq_print
}

#[test]
fn mem_store_batch_is_deterministic_across_thread_counts() {
    let store = MemStore::from_objects(objects(60)).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    assert_deterministic(&tree, &store, 60);
}

#[test]
fn file_store_batch_is_deterministic_across_thread_counts() {
    let path =
        std::env::temp_dir().join(format!("fuzzy-batch-determinism-{}.fzkn", std::process::id()));
    let mut writer = FileStoreWriter::<2>::create(&path).unwrap();
    for obj in objects(45) {
        writer.append(&obj).unwrap();
    }
    let store = writer.finish().unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    assert_deterministic(&tree, &store, 45);
    std::fs::remove_file(&path).ok();
}

/// The fully disk-resident configuration — `PagedRTree` over `FileStore` —
/// must answer byte-identically to the fully in-memory one, at every
/// thread count. This is the ISSUE 3 acceptance bar: same workload, four
/// backend/thread combinations, one fingerprint.
#[test]
fn paged_tree_matches_in_memory_backends_across_thread_counts() {
    let base = std::env::temp_dir();
    let store_path = base.join(format!("fuzzy-paged-determinism-{}.fzkn", std::process::id()));
    let index_path = base.join(format!("fuzzy-paged-determinism-{}.fzpt", std::process::id()));
    let mut writer = FileStoreWriter::<2>::create(&store_path).unwrap();
    for obj in objects(45) {
        writer.append(&obj).unwrap();
    }
    let store = writer.finish().unwrap();
    let config = RTreeConfig { max_entries: 8 };

    // In-memory reference: MemStore + RTree.
    let mem_store = MemStore::from_objects(objects(45)).unwrap();
    let mem_tree = RTree::bulk_load(mem_store.summaries().to_vec(), config);
    let mem_print = assert_deterministic(&mem_tree, &mem_store, 45);

    // Disk-resident: PagedRTree (buffer pool of 4 pages, so eviction is
    // actually exercised) + FileStore.
    let paged =
        PagedRTree::bulk_write(store.summaries().to_vec(), config, &index_path, 4096).unwrap();
    let paged: PagedRTree<2> = {
        drop(paged); // reopen in a fresh handle, tiny cache
        PagedRTree::open_with_cache(&index_path, 4).unwrap()
    };
    let paged_print = assert_deterministic(&paged, &store, 45);
    assert_eq!(paged_print, mem_print, "disk-resident answers diverged from in-memory");

    // The paged run performed real I/O: a cold sequential pass must report
    // disk reads, and they must never exceed the logical accesses.
    paged.clear_cache();
    let requests = workload(&store, 45);
    let total = total_stats(&run_on_threads(&paged, &store, &requests, 1));
    assert!(total.node_disk_reads > 0, "cold buffer pool must read pages");
    assert!(total.node_disk_reads <= total.node_accesses);

    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&index_path).ok();
}

#[test]
fn batch_stats_match_individual_queries() {
    // A shared scratch and a thread pool are bookkeeping only: each
    // answer's stats must equal the stats of the same query run alone on a
    // fresh scratch (modulo wall-clock).
    let store = MemStore::from_objects(objects(30)).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let requests = workload(&store, 30);
    let answers = run_on_threads(&tree, &store, &requests, 4);

    for (req, res) in requests.iter().zip(&answers) {
        let solo = req.run(&engine, &mut QueryScratch::new()).map(|a| *a.stats());
        match (solo, res) {
            (Ok(solo), Ok(shared)) => assert_eq!(counts(&solo), counts(shared.stats())),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("solo/shared disagree on success: {a:?} vs {b:?}"),
        }
    }
}
