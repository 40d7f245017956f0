//! Property test: randomized interleaved insert/delete/update workloads.
//!
//! For every generated workload, the write backend (`PagedRTree` + delta
//! overlay) must (a) track the live set's size after *each* mutation and
//! agree with it at the end, and (b) answer AKNN and RKNN queries exactly
//! like linear-scan oracles over the live set — as must a tree freshly
//! bulk-loaded from the overlay's live summaries, which also keeps every
//! `validate.rs` structural invariant.

use fuzzy_core::distance::alpha_distance;
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, ObjectSummary, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::{NodeAccess, OverlayRTree, PagedRTree, RTree, RTreeConfig};
use fuzzy_query::sweep::{exact_sweep, ProfiledCandidate};
use fuzzy_query::{AknnConfig, DistBound, QueryEngine, RknnAlgorithm};
use fuzzy_store::{MemStore, ObjectStore};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TOTAL: u64 = 50;
const SEEDED: u64 = 28;

fn blob(id: u64, salt: u64) -> FuzzyObject<2> {
    let mut state = (id ^ salt.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (cx, cy) = ((id % 8) as f64 * 3.0 + rnd(), (id / 8) as f64 * 3.0 + rnd());
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..10 {
        let r = rnd();
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

fn aknn_oracle<S: ObjectStore<2>>(
    store: &S,
    live: &BTreeSet<u64>,
    q: &FuzzyObject<2>,
    alpha: f64,
) -> Vec<(u64, u64)> {
    let t = Threshold::at(alpha);
    let mut all: Vec<(u64, u64)> = live
        .iter()
        .map(|&id| {
            let obj = store.probe(ObjectId(id)).unwrap();
            (alpha_distance(&obj, q, t).unwrap().to_bits(), id)
        })
        .collect();
    all.sort_by(|a, b| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)).then(a.1.cmp(&b.1)));
    all
}

fn check_backend<A: NodeAccess<2>, S: ObjectStore<2>>(
    label: &str,
    engine: &QueryEngine<'_, A, S, 2>,
    live: &BTreeSet<u64>,
    q: &FuzzyObject<2>,
    k: usize,
    alpha: f64,
    range: (f64, f64),
) {
    // AKNN vs linear scan (basic config: every distance exact).
    let res = engine.aknn(q, k, alpha, &AknnConfig::basic()).unwrap();
    let want = aknn_oracle(engine.store(), live, q, alpha);
    assert_eq!(res.neighbors.len(), k.min(live.len()), "{label}: cardinality");
    for (rank, n) in res.neighbors.iter().enumerate() {
        assert_eq!(n.id.0, want[rank].1, "{label}: rank {rank} id");
        match n.dist {
            DistBound::Exact(d) => {
                assert_eq!(d.to_bits(), want[rank].0, "{label}: rank {rank} distance")
            }
            DistBound::Bounded { .. } => panic!("{label}: basic config must probe exactly"),
        }
    }

    // RKNN vs the exact profile sweep over the live set.
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
    assert_eq!(got.len(), want.len(), "{label}: RKNN cardinality");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.id, w.id, "{label}");
        assert!(
            g.range.approx_eq(&w.range, 1e-9),
            "{label}: {} got {} want {}",
            g.id,
            g.range,
            w.range
        );
    }
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    // Each case builds stores, an index file and replays a workload on
    // two backends — keep the count moderate (PROPTEST_CASES overrides).
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn randomized_interleaved_mutations_stay_correct(
        salt in any::<u64>(),
        op_seed in any::<u64>(),
        n_ops in 24usize..72,
        k in 1usize..9,
        alpha in 0.15..0.95f64,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let index_path = std::env::temp_dir()
            .join(format!("fz-mutprops-interleaved-{}-{case}.fzpt", std::process::id()));

        let store = MemStore::from_objects((0..TOTAL).map(|i| blob(i, salt))).unwrap();
        let summaries = store.summaries().to_vec();
        let seeded: Vec<ObjectSummary<2>> = summaries[..SEEDED as usize].to_vec();
        let config = RTreeConfig { max_entries: 8 };

        let base = Arc::new(PagedRTree::bulk_write(seeded, config, &index_path, 4096).unwrap());
        let mut overlay = OverlayRTree::new(base).unwrap();

        let mut live: BTreeSet<u64> = (0..SEEDED).collect();
        let mut pending: Vec<u64> = (SEEDED..TOTAL).collect();
        let mut state = op_seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..n_ops {
            match rnd() % 4 {
                0 | 1 if !pending.is_empty() => {
                    let id = pending.remove(rnd() as usize % pending.len());
                    prop_assert!(overlay.insert(summaries[id as usize]));
                    live.insert(id);
                }
                2 if !live.is_empty() => {
                    let victim = *live.iter().nth(rnd() as usize % live.len()).unwrap();
                    prop_assert!(overlay.delete(ObjectId(victim)));
                    live.remove(&victim);
                    pending.push(victim);
                }
                _ if !live.is_empty() => {
                    let id = *live.iter().nth(rnd() as usize % live.len()).unwrap();
                    prop_assert!(overlay.update(summaries[id as usize]));
                }
                _ => {}
            }
            // (a) the overlay's size follows every mutation.
            prop_assert_eq!(NodeAccess::len(&overlay), live.len());
        }

        // (a) the overlay exposes exactly the live set, and compacting it
        // writes the bytes of the in-memory bulk load of that set.
        let live_summaries = overlay.live_summaries().unwrap();
        let mut ov_ids: Vec<u64> = live_summaries.iter().map(|e| e.id.0).collect();
        ov_ids.sort_unstable();
        let want_ids: Vec<u64> = live.iter().copied().collect();
        prop_assert_eq!(&ov_ids, &want_ids);
        let fresh = RTree::bulk_load(live_summaries, config);
        overlay.clone().compact(fresh.page_size()).unwrap();
        prop_assert_eq!(fresh.image(), Some(&std::fs::read(&index_path).unwrap()[..]));

        // (b) query answers match linear-scan oracles on both.
        if !live.is_empty() {
            let ov_engine = QueryEngine::new(&overlay, &store);
            let fresh_engine = QueryEngine::new(&fresh, &store);
            for _ in 0..3 {
                let qid = want_ids[(rnd() as usize) % want_ids.len()];
                let q = store.probe(ObjectId(qid)).unwrap().as_ref().clone();
                let range = (alpha * 0.6, (alpha * 0.6 + 0.3).min(1.0));
                check_backend("overlay", &ov_engine, &live, &q, k, alpha, range);
                check_backend("fresh bulk load", &fresh_engine, &live, &q, k, alpha, range);
            }
        }

        std::fs::remove_file(&index_path).ok();
    }
}
