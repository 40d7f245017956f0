//! Dynamic-update determinism: after an interleaved insert/delete/update
//! workload, the write backend — the `PagedRTree` + delta overlay — and
//! the index file `compact` rewrote from it must answer AKNN/RKNN queries
//! **byte-identically** to a freshly bulk-loaded tree over the same live
//! set, and to linear-scan oracles; at 1, 2 and 8 query threads. This
//! is the test the CI `mutation-determinism` job runs.
//!
//! Comparison configs avoid the lazy-probe buffer on *cross-shape*
//! checks: which neighbours get confirmed via bounds (vs probed exact)
//! legitimately depends on traversal order, hence on tree shape. The
//! `LB-LP-UB` variant is still pinned across thread counts per backend,
//! where the shape is fixed.

use fuzzy_core::distance::alpha_distance;
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, ObjectSummary, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::{delta_path_for, NodeAccess, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::sweep::{exact_sweep, ProfiledCandidate};
use fuzzy_query::{
    AknnConfig, DistBound, PruneCounts, QueryEngine, QueryScratch, RknnAlgorithm, Versioned,
};
use fuzzy_store::{FileStoreWriter, ObjectStore};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

mod common;
use common::{fingerprint, run_on_threads, RecordingL2, Request, Settle};

/// Deterministic pseudo-random fuzzy object (tie-free geometry).
fn blob(id: u64) -> FuzzyObject<2> {
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (cx, cy) = ((id % 11) as f64 * 4.0 + rnd(), (id / 11) as f64 * 4.0 + rnd());
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..16 {
        let r = rnd() * 1.5;
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r / 1.5) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

const TOTAL: u64 = 90;
const SEEDED: u64 = 60; // objects indexed before the mutation script runs

/// One deterministic interleaved mutation script: inserts of unindexed
/// store objects, deletes and updates of live ones.
enum Op {
    Insert(u64),
    Delete(u64),
    Update(u64),
}

fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut live: BTreeSet<u64> = (0..SEEDED).collect();
    let mut pending: Vec<u64> = (SEEDED..TOTAL).collect();
    let mut state = 0xDEADBEEFu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..70 {
        match rnd() % 4 {
            0 | 1 if !pending.is_empty() => {
                let id = pending.remove(rnd() as usize % pending.len());
                live.insert(id);
                ops.push(Op::Insert(id));
            }
            2 => {
                let victim = *live.iter().nth(rnd() as usize % live.len()).unwrap();
                live.remove(&victim);
                pending.push(victim);
                ops.push(Op::Delete(victim));
            }
            _ => {
                let id = *live.iter().nth(rnd() as usize % live.len()).unwrap();
                ops.push(Op::Update(id));
            }
        }
    }
    ops
}

/// Replay the script over the overlay; returns the live id set.
fn apply(index: &mut OverlayRTree<2>, summaries: &[ObjectSummary<2>]) -> BTreeSet<u64> {
    let mut live: BTreeSet<u64> = (0..SEEDED).collect();
    for op in script() {
        match op {
            Op::Insert(id) => {
                assert!(index.insert(summaries[id as usize]), "insert {id}");
                live.insert(id);
            }
            Op::Delete(id) => {
                assert!(index.delete(ObjectId(id)), "delete {id}");
                live.remove(&id);
            }
            Op::Update(id) => {
                assert!(index.update(summaries[id as usize]), "update {id}");
            }
        }
        assert_eq!(NodeAccess::len(index), live.len());
    }
    live
}

/// Mixed workload over shape-independent configurations (no lazy probe;
/// every AKNN answer carries exact distances in ascending order).
fn workload<S: ObjectStore<2>>(store: &S, live: &BTreeSet<u64>) -> Vec<Request> {
    let mut requests = Vec::new();
    for (i, &id) in live.iter().step_by(4).enumerate() {
        let q = store.probe(ObjectId(id)).unwrap().as_ref().clone();
        match i % 4 {
            0 => requests.push(Request::aknn(q, 5, 0.5, AknnConfig::basic())),
            1 => requests.push(Request::aknn(q, 8, 0.7, AknnConfig::lb())),
            2 => requests.push(Request::rknn(
                q,
                3,
                (0.3, 0.7),
                RknnAlgorithm::RssIcr,
                AknnConfig::lb_lp_ub(),
            )),
            _ => requests.push(Request::rknn(
                q,
                2,
                (0.2, 0.9),
                RknnAlgorithm::Rss,
                AknnConfig::lb_lp(),
            )),
        }
    }
    requests
}

/// Run the workload at 1/2/8 threads; all runs must agree; returns the
/// shared fingerprint.
fn threaded_fingerprint<A, S>(tree: &A, store: &S, live: &BTreeSet<u64>) -> String
where
    A: NodeAccess<2> + Sync,
    S: ObjectStore<2> + Sync,
{
    let requests = workload(store, live);
    let sequential = run_on_threads(tree, store, &requests, 1);
    assert!(sequential.iter().all(Result::is_ok));
    let print = fingerprint(&sequential);
    for threads in [2usize, 8] {
        let concurrent = run_on_threads(tree, store, &requests, threads);
        assert_eq!(fingerprint(&concurrent), print, "{threads}-thread run diverged");
    }
    print
}

/// AKNN linear-scan oracle: exact α-distances over the live set.
fn assert_aknn_matches_oracle<A, S>(
    engine: &QueryEngine<'_, A, S, 2>,
    live: &BTreeSet<u64>,
    q: &FuzzyObject<2>,
    k: usize,
    alpha: f64,
) where
    A: NodeAccess<2>,
    S: ObjectStore<2>,
{
    let res = engine.aknn(q, k, alpha, &AknnConfig::basic()).unwrap();
    let t = Threshold::at(alpha);
    let mut want: Vec<(f64, u64)> = live
        .iter()
        .map(|&id| {
            let obj = engine.store().probe(ObjectId(id)).unwrap();
            (alpha_distance(&obj, q, t).unwrap(), id)
        })
        .collect();
    want.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(res.neighbors.len(), k.min(live.len()));
    for (rank, n) in res.neighbors.iter().enumerate() {
        assert_eq!(n.id.0, want[rank].1, "rank {rank}");
        match n.dist {
            DistBound::Exact(d) => assert_eq!(d.to_bits(), want[rank].0.to_bits(), "rank {rank}"),
            DistBound::Bounded { .. } => panic!("basic config always probes exact distances"),
        }
    }
}

/// RKNN linear-scan oracle: exact sweep over profiles of the live set.
fn assert_rknn_matches_oracle<A, S>(
    engine: &QueryEngine<'_, A, S, 2>,
    live: &BTreeSet<u64>,
    q: &FuzzyObject<2>,
    k: usize,
    range: (f64, f64),
) where
    A: NodeAccess<2>,
    S: ObjectStore<2>,
{
    let res = engine.rknn(q, k, range.0, range.1, RknnAlgorithm::RssIcr, &AknnConfig::lb_lp_ub());
    let res = res.unwrap();
    let profiles: Vec<(ObjectId, DistanceProfile)> = live
        .iter()
        .map(|&id| {
            let obj = engine.store().probe(ObjectId(id)).unwrap();
            (ObjectId(id), DistanceProfile::compute(&obj, q))
        })
        .collect();
    let cands: Vec<ProfiledCandidate<'_>> =
        profiles.iter().map(|(id, p)| ProfiledCandidate { id: *id, profile: p }).collect();
    let mut want = exact_sweep(&cands, k, range.0, range.1);
    want.sort_by_key(|item| item.id);
    let mut got = res.items;
    got.sort_by_key(|item| item.id);
    assert_eq!(got.len(), want.len(), "RKNN answer cardinality");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.id, w.id);
        assert!(g.range.approx_eq(&w.range, 1e-9), "{}: {} vs oracle {}", g.id, g.range, w.range);
    }
}

/// What one RSS / RSS-ICR query settled, dropped and profiled, with its
/// answer and the counters that do not depend on the tree's shape
/// (`object_accesses`, `distance_evals`, `profile_computations`,
/// `aknn_calls`, `candidates` and the prune counts; node and bound counts
/// follow the shape) and
/// every id that reached the metric, as a neighbour, an outsider or a window.
fn rss_settle_of<A, S>(
    engine: &QueryEngine<'_, A, S, 2>,
    q: &FuzzyObject<2>,
    algo: RknnAlgorithm,
) -> (Vec<String>, [u64; 10], Settle, BTreeSet<u64>)
where
    A: NodeAccess<2>,
    S: ObjectStore<2>,
{
    let (k, lo, hi) = (3, 0.3, 0.7);
    let cfg = AknnConfig::lb(); // no lazy probe: step 1 reads the same objects on any shape
    let metric = RecordingL2::default();
    let res = engine
        .rknn_with_scratch_in(&metric, q, k, lo, hi, algo, &cfg, &mut QueryScratch::new())
        .unwrap();
    let (kernel, windows) = metric.take();
    let step1 = engine.aknn_exact(q, k, hi, &cfg).unwrap().ids();
    let st = res.stats;
    let PruneCounts { probe_gate, scan_gate, outsiders_dropped, outsiders_kept, settled } =
        st.prunes;
    (
        res.items.iter().map(|item| item.to_string()).collect(),
        [
            st.object_accesses,
            st.distance_evals,
            st.profile_computations,
            st.aknn_calls,
            st.candidates,
            probe_gate,
            scan_gate,
            outsiders_dropped,
            outsiders_kept,
            settled,
        ],
        Settle::of(&kernel, &windows, lo, &step1),
        kernel.iter().map(|c| c.0 .0).chain(windows.iter().map(|w| w.0 .0)).collect(),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fz-mutdet-{}-{name}", std::process::id()))
}

#[test]
fn interleaved_mutations_converge_across_backends_and_threads() {
    // Shared object store with every object (indexed or not).
    let store_path = tmp("converge-store.fzkn");
    let index_path = tmp("converge-index.fzpt");
    let mut writer = FileStoreWriter::<2>::create(&store_path).unwrap();
    for id in 0..TOTAL {
        writer.append(&blob(id)).unwrap();
    }
    let store = writer.finish().unwrap();
    let summaries = store.summaries().to_vec();
    let config = RTreeConfig { max_entries: 8 };
    let seeded: Vec<ObjectSummary<2>> = summaries[..SEEDED as usize].to_vec();

    // The paged base file + delta overlay runs the script.
    let base = Arc::new(PagedRTree::bulk_write(seeded, config, &index_path, 4096).unwrap());
    let mut overlay = OverlayRTree::new(base.clone()).unwrap();
    let live = apply(&mut overlay, &summaries);

    // Reference: a freshly bulk-loaded tree over the same live set.
    let fresh_summaries: Vec<ObjectSummary<2>> =
        summaries.iter().filter(|s| live.contains(&s.id.0)).copied().collect();
    let fresh = RTree::bulk_load(fresh_summaries.clone(), config);

    let overlay_engine = QueryEngine::new(&overlay, &store);

    // 1/2/8-thread fingerprints, identical on the overlay and the fresh tree.
    let overlay_print = threaded_fingerprint(&overlay, &store, &live);
    let fresh_print = threaded_fingerprint(&fresh, &store, &live);
    assert_eq!(overlay_print, fresh_print, "paged overlay diverged from fresh bulk load");

    // Linear-scan oracles on both.
    let fresh_engine = QueryEngine::new(&fresh, &store);
    for &qid in live.iter().take(6) {
        let q = store.probe(ObjectId(qid)).unwrap().as_ref().clone();
        assert_aknn_matches_oracle(&overlay_engine, &live, &q, 7, 0.5);
        assert_aknn_matches_oracle(&fresh_engine, &live, &q, 7, 0.5);
        assert_rknn_matches_oracle(&overlay_engine, &live, &q, 3, (0.3, 0.7));
        assert_rknn_matches_oracle(&fresh_engine, &live, &q, 3, (0.3, 0.7));
    }

    // RSS settles its candidates the same way wherever they are indexed:
    // the overlay — inserts pending in its delta, deletes as tombstones
    // over the base file — drops, keeps and settles the ids the fresh bulk
    // load does, and no tombstoned object reaches the metric — though the
    // base file alone would hand some over.
    let base_engine = QueryEngine::new(&base, &store);
    let (mut dropped, mut settled, mut tombstoned) = (0, 0, 0);
    for &qid in live.iter().step_by(5) {
        let q = store.probe(ObjectId(qid)).unwrap().as_ref().clone();
        for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
            let want = rss_settle_of(&fresh_engine, &q, algo);
            assert_eq!(rss_settle_of(&overlay_engine, &q, algo), want, "overlay, query {qid}");
            assert!(want.3.is_subset(&live), "query {qid}: a deleted object was evaluated");
            dropped += want.2.dropped.len();
            settled += want.2.settled.len();
            tombstoned += rss_settle_of(&base_engine, &q, algo).3.difference(&live).count();
        }
    }
    assert!(dropped > 0 && settled > 0, "the settle step never acted");
    assert!(tombstoned > 0, "no deleted object lies within any query's radius");

    // Compact: rewrite the index file through the bulk loader — the bytes
    // of the in-memory bulk load of the overlay's live set, page size for
    // page size; answers must not move.
    overlay.save_delta().unwrap();
    assert!(delta_path_for(&index_path).exists());
    let image = RTree::bulk_load(overlay.live_summaries().unwrap(), config);
    let compacted = overlay.compact(image.page_size()).unwrap();
    assert!(!delta_path_for(&index_path).exists(), "compact clears the sidecar");
    assert_eq!(image.image(), Some(&std::fs::read(&index_path).unwrap()[..]));
    assert_eq!(NodeAccess::len(&compacted), live.len());
    let compacted_print = threaded_fingerprint(&compacted, &store, &live);
    assert_eq!(compacted_print, fresh_print, "compacted index diverged");

    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&index_path).ok();
}

/// In-flight queries pinned to an epoch snapshot of the overlay must be
/// unaffected by writer commits — including whole workloads running while
/// the writer churns.
#[test]
fn pinned_snapshots_survive_concurrent_writes() {
    let store_path = tmp("pinned-store.fzkn");
    let index_path = tmp("pinned-index.fzpt");
    let mut writer = FileStoreWriter::<2>::create(&store_path).unwrap();
    for id in 0..TOTAL {
        writer.append(&blob(id)).unwrap();
    }
    let store = writer.finish().unwrap();
    let seeded: Vec<ObjectSummary<2>> = store.summaries()[..SEEDED as usize].to_vec();
    let live: BTreeSet<u64> = (0..SEEDED).collect();
    let base = PagedRTree::bulk_write(seeded, RTreeConfig { max_entries: 8 }, &index_path, 4096);
    let index = Versioned::new(OverlayRTree::new(Arc::new(base.unwrap())).unwrap());

    let pinned = index.snapshot();
    let requests = workload(&store, &live);
    let before = fingerprint(&run_on_threads(&pinned, &store, &requests, 1));

    std::thread::scope(|scope| {
        let index = &index;
        let summaries: Vec<ObjectSummary<2>> = store.summaries().to_vec();
        scope.spawn(move || {
            // One commit (one published epoch) per mutation.
            for op in script() {
                match op {
                    Op::Insert(id) => assert!(index.write(|t| t.insert(summaries[id as usize]))),
                    Op::Delete(id) => assert!(index.write(|t| t.delete(ObjectId(id)))),
                    Op::Update(id) => assert!(index.write(|t| t.update(summaries[id as usize]))),
                }
            }
        });
        // Readers on the pinned snapshot, racing the writer.
        for threads in [1usize, 2, 8] {
            let outcome = run_on_threads(&pinned, &store, &requests, threads);
            assert_eq!(
                fingerprint(&outcome),
                before,
                "pinned snapshot changed under a concurrent writer ({threads} threads)"
            );
        }
    });

    assert_eq!(index.epoch(), script().len() as u64, "one epoch per commit");
    // A fresh reader sees the post-script live set, and compacting it
    // writes the bytes of the in-memory bulk load of that set.
    let latest = index.snapshot();
    let mut after = OverlayRTree::new(Arc::new(PagedRTree::open(&index_path).unwrap())).unwrap();
    let want = apply(&mut after, store.summaries());
    let ids: BTreeSet<u64> = latest.live_summaries().unwrap().iter().map(|s| s.id.0).collect();
    assert_eq!(ids, want);
    let image = RTree::bulk_load(latest.live_summaries().unwrap(), RTreeConfig { max_entries: 8 });
    OverlayRTree::clone(&latest).compact(image.page_size()).unwrap();
    assert_eq!(image.image(), Some(&std::fs::read(&index_path).unwrap()[..]));
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&index_path).ok();
}
