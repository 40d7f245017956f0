//! Recall-measurement harness for the approximate AKNN path.
//!
//! Three properties pin the dial semantics, for any seeded workload:
//!
//! 1. **Exact dial ⇒ recall 1.0**: at `RecallDial::Exact` the VP-tree path
//!    answers bit-identically to the exact engine — ids *and* IEEE-754
//!    distance bits.
//! 2. **Slack widens the pool**: a larger ε never shrinks the candidate
//!    pool, and the pool always holds at least `k` candidates.
//! 3. **Every returned `(dist, id)` pair is bit-identical to an
//!    exact-oracle pair**: the dial moves recall, never the reported
//!    distance of any returned object.

use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::{RTree, RTreeConfig, RecallDial, VpTree};
use fuzzy_query::{aknn_brute, approx_aknn, recall_at_k, AknnConfig, DistBound, QueryEngine};
use fuzzy_store::{MemStore, ObjectStore};
use proptest::prelude::*;

/// A deterministic pseudo-random fuzzy object (xorshift, no external RNG).
fn blob(id: u64, salt: u64) -> FuzzyObject<2> {
    let mut state = (id ^ salt.rotate_left(23)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (cx, cy) = ((id % 9) as f64 * 3.0 + rnd(), (id / 9) as f64 * 3.0 + rnd());
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..12 {
        let r = rnd();
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

fn store_of(n: u64, salt: u64) -> MemStore<2> {
    MemStore::from_objects((0..n).map(|i| blob(i, salt))).unwrap()
}

/// Render an answer as ids plus raw distance bits — byte-identity proof.
fn fingerprint(result: &fuzzy_query::AknnResult) -> String {
    result
        .neighbors
        .iter()
        .map(|n| match n.dist {
            DistBound::Exact(d) => format!("{}={:016x}", n.id.0, d.to_bits()),
            _ => format!("{}=?", n.id.0),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn vptree(store: &MemStore<2>) -> VpTree<2> {
    VpTree::build(&L2, store.summaries())
}

#[test]
fn exact_dial_matches_exact_engine_bitwise() {
    for salt in [0_u64, 7, 1234] {
        let store = store_of(70, salt);
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
        let engine = QueryEngine::new(&tree, &store);
        let vp = vptree(&store);
        for qid in [0_u64, 13, 42, 69] {
            let q = store.probe(ObjectId(qid)).unwrap();
            for (k, alpha) in [(1, 0.5), (5, 0.5), (10, 0.3), (7, 0.8)] {
                let exact = engine.aknn_exact(&q, k, alpha, &AknnConfig::lb_lp_ub()).unwrap();
                let t = Threshold::at(alpha);
                let via_vp = approx_aknn(&L2, &vp, &store, &q, k, t, RecallDial::Exact).unwrap();
                assert_eq!(fingerprint(&via_vp), fingerprint(&exact), "vptree exact dial");
                assert_eq!(recall_at_k(&via_vp, &exact), 1.0);
            }
        }
    }
}

#[test]
fn returned_pairs_are_bitwise_oracle_pairs() {
    let salt = 31_u64;
    let n = 75_u64;
    let store = store_of(n, salt);
    let ids: Vec<ObjectId> = store.summaries().iter().map(|s| s.id).collect();
    let vp = vptree(&store);
    for qid in [3_u64, 40, 74] {
        let q = store.probe(ObjectId(qid)).unwrap();
        let t = Threshold::at(0.5);
        // Full oracle ranking: every object's exact pair.
        let oracle = aknn_brute(&L2, &store, &ids, &q, n as usize, t).unwrap();
        for dial in [RecallDial::Budget(1.0), RecallDial::Budget(4.0), RecallDial::Exact] {
            let result = approx_aknn(&L2, &vp, &store, &q, 10, t, dial).unwrap();
            for nb in &result.neighbors {
                let DistBound::Exact(d) = nb.dist else { panic!("approx must be exact") };
                let found = oracle.neighbors.iter().find(|o| o.id == nb.id).unwrap();
                let DistBound::Exact(od) = found.dist else { unreachable!() };
                assert_eq!(
                    d.to_bits(),
                    od.to_bits(),
                    "returned pair for {} must be bit-identical to the oracle",
                    nb.id
                );
            }
        }
    }
}

#[test]
fn vptree_slack_widens_the_pool() {
    let store = store_of(120, 5);
    let vp = vptree(&store);
    let q = store.probe(ObjectId(60)).unwrap().rep_point();
    let mut sizes = Vec::new();
    for eps in [0.0, 0.5, 2.0] {
        let mut pool = Vec::new();
        vp.candidates(&L2, &q, 10, RecallDial::Budget(eps), &mut pool);
        assert!(pool.len() >= 10, "slack pool must hold at least k candidates");
        sizes.push(pool.len());
    }
    assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "ε must widen the pool: {sizes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The dial properties under arbitrary seeded workloads.
    #[test]
    fn dial_properties_hold_for_any_seeded_workload(
        salt in any::<u64>(),
        n in 12u64..60,
        k in 1usize..8,
    ) {
        let store = store_of(n, salt);
        let tree = RTree::bulk_load(
            store.summaries().to_vec(),
            RTreeConfig { max_entries: 8 },
        );
        let engine = QueryEngine::new(&tree, &store);
        let ids: Vec<ObjectId> = store.summaries().iter().map(|s| s.id).collect();
        let vp = vptree(&store);
        let t = Threshold::at(0.5);
        let q = store.probe(ObjectId(salt % n)).unwrap();
        let exact = engine.aknn_exact(&q, k, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
        let oracle = aknn_brute(&L2, &store, &ids, &q, n as usize, t).unwrap();

        // (1) exact dial ⇒ bitwise-exact answer, recall 1.0.
        let vp_exact = approx_aknn(&L2, &vp, &store, &q, k, t, RecallDial::Exact).unwrap();
        prop_assert_eq!(fingerprint(&vp_exact), fingerprint(&exact));
        prop_assert_eq!(recall_at_k(&vp_exact, &exact), 1.0);

        // (2) slack never shrinks the pool, which holds at least k.
        let mut last = k.min(n as usize);
        for eps in [0.0, 1.0, 3.0] {
            let mut pool = Vec::new();
            vp.candidates(&L2, &q.rep_point(), k, RecallDial::Budget(eps), &mut pool);
            prop_assert!(pool.len() >= last, "pool shrank to {} at ε = {}", pool.len(), eps);
            last = pool.len();
        }

        // (3) every returned pair is a bitwise oracle pair.
        let result = approx_aknn(&L2, &vp, &store, &q, k, t, RecallDial::Budget(1.0)).unwrap();
        for nb in &result.neighbors {
            let DistBound::Exact(d) = nb.dist else { panic!("approx must be exact") };
            let found = oracle.neighbors.iter().find(|o| o.id == nb.id).unwrap();
            let DistBound::Exact(od) = found.dist else { unreachable!() };
            prop_assert_eq!(d.to_bits(), od.to_bits());
        }
    }
}
