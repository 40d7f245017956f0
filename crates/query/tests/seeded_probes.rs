//! Property test: bound-seeded probes change no answers.
//!
//! The AKNN engine seeds every exact α-distance evaluation with the
//! entry's own upper bound and the running k-th best upper bound τ
//! (`AknnConfig::seeded_probes`, on by default). Seeding prunes work, not
//! candidates it cannot prove dominated — so on every paper variant
//! (Basic/LB/LB-LP/LB-LP-UB) the seeded and unseeded searches must return
//! the same neighbour id set, and wherever both report an exact distance
//! for the same object the values must agree bitwise. Both runs are also
//! checked against a linear-scan oracle's k-th distance.
//!
//! Every search runs twice more over a `FileStore` of the same objects:
//! there each probed object is its record's decoded columns rather than a
//! constructed object, and neighbours, distances and logical counters
//! must not be able to tell.
//!
//! The exact tail — `aknn_exact` probing each neighbour the search
//! confirmed by its bounds alone, with the probe RSS makes of such a
//! neighbour when it needs one — seeds that probe with the neighbour's own
//! upper bound, and is held to the same bar.

use fuzzy_core::distance::alpha_distance_brute;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, AknnResult, DistBound, QueryEngine, QueryScratch, QueryStats};
use fuzzy_store::{FileStore, FileStoreWriter, MemStore, ObjectStore};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::{KernelCall, RecordingL2};

fn blob(id: u64, salt: u64, cx: f64, cy: f64) -> FuzzyObject<2> {
    let mut state = (id ^ salt.rotate_left(21)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..24 {
        let r = rnd();
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        // Continuous memberships: distance ties have measure zero, so the
        // seeded/unseeded id sets must match exactly.
        mus.push(((1.0 - r) * 0.9 + 0.05).clamp(0.01, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

fn dataset(n: u64, salt: u64) -> MemStore<2> {
    let mut state = salt | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    MemStore::from_objects((0..n).map(|i| blob(i, salt, rnd() * 25.0, rnd() * 25.0))).unwrap()
}

/// The same objects, in summary order, behind a `.fzkn` file.
fn on_disk(store: &MemStore<2>, salt: u64) -> (std::path::PathBuf, FileStore<2>) {
    let path =
        std::env::temp_dir().join(format!("fz-seeded-probes-{}-{salt:x}.fzkn", std::process::id()));
    let mut w = FileStoreWriter::<2>::create(&path).unwrap();
    for s in store.summaries() {
        w.append(&store.probe(s.id).unwrap()).unwrap();
    }
    (path, w.finish().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn seeded_search_agrees_with_unseeded_on_all_variants(
        salt in any::<u64>(),
        k in 1usize..12,
        alpha_step in 1u32..=10,
        query_seed in 0u64..50,
    ) {
        let alpha = alpha_step as f64 / 10.0;
        let store = dataset(60, salt);
        let tree = RTree::bulk_load(
            store.summaries().to_vec(),
            RTreeConfig { max_entries: 8 },
        );
        let engine = QueryEngine::new(&tree, &store);
        let (path, file_store) = on_disk(&store, salt);
        let file_engine = QueryEngine::new(&tree, &file_store);
        let q = blob(1_000_000 + query_seed, salt, 12.0, 12.0);

        // Oracle k-th distance for the containment check.
        let t = Threshold::at(alpha);
        let mut oracle: Vec<f64> = store
            .summaries()
            .iter()
            .map(|s| alpha_distance_brute(&store.probe(s.id).unwrap(), &q, t).unwrap())
            .collect();
        oracle.sort_by(f64::total_cmp);
        let kth = oracle[k - 1];

        for base in AknnConfig::paper_variants() {
            prop_assert!(base.seeded_probes, "seeding must be the default");
            let seeded = engine.aknn(&q, k, alpha, &base).unwrap();
            let unseeded = engine.aknn(&q, k, alpha, &base.unseeded()).unwrap();

            // Decoded probes answer exactly like constructed ones.
            for (cfg, mem) in [(base, &seeded), (base.unseeded(), &unseeded)] {
                let file = file_engine.aknn(&q, k, alpha, &cfg).unwrap();
                prop_assert_eq!(&file.neighbors, &mem.neighbors, "{}", base.variant_name());
                let logical = |s: &QueryStats| QueryStats { wall: Default::default(), ..*s };
                prop_assert_eq!(logical(&file.stats), logical(&mem.stats));
            }

            let mut ids_s = seeded.ids();
            let mut ids_u = unseeded.ids();
            ids_s.sort();
            ids_u.sort();
            prop_assert_eq!(
                &ids_s, &ids_u,
                "id sets diverge under seeding ({} k={} α={})", base.variant_name(), k, alpha
            );

            // Exact distances agree bitwise where both probes happened.
            let exact = |r: &fuzzy_query::AknnResult| -> HashMap<ObjectId, u64> {
                r.neighbors
                    .iter()
                    .filter_map(|n| match n.dist {
                        DistBound::Exact(d) => Some((n.id, d.to_bits())),
                        DistBound::Bounded { .. } => None,
                    })
                    .collect()
            };
            let (es, eu) = (exact(&seeded), exact(&unseeded));
            for (id, bits) in &es {
                if let Some(other) = eu.get(id) {
                    prop_assert_eq!(bits, other, "exact distance diverges for {}", id);
                }
            }

            // Every returned neighbour genuinely sits within the oracle's
            // k-th distance (same soundness bar for both modes).
            for r in [&seeded, &unseeded] {
                for n in &r.neighbors {
                    let d = alpha_distance_brute(&store.probe(n.id).unwrap(), &q, t).unwrap();
                    prop_assert!(d <= kth + 1e-9, "{} beyond oracle k-th", n.id);
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// `aknn_exact` under a recording metric: the answer and the kernel calls
/// it made, in call order.
fn exact_logged<S: ObjectStore<2>>(
    engine: &QueryEngine<'_, RTree<2>, S, 2>,
    q: &FuzzyObject<2>,
    (k, alpha): (usize, f64),
    cfg: &AknnConfig,
) -> (AknnResult, Vec<KernelCall>) {
    let metric = RecordingL2::default();
    let res = engine
        .aknn_exact_with_scratch_in(&metric, q, k, alpha, cfg, &mut QueryScratch::new())
        .unwrap();
    (res, metric.take().0)
}

/// The exact tail seeds each bound-confirmed neighbour's probe with its own
/// upper bound, and that moves nothing: under `lb_lp_ub()` the neighbours,
/// in order, and the squared distances the kernel returned for them are
/// `.unseeded()`'s bit for bit, and over a `FileStore` every answer and
/// logical counter is the `MemStore`'s.
#[test]
fn exact_tail_seeded_by_own_bound_agrees_with_unseeded() {
    let cfg = AknnConfig::lb_lp_ub();
    let logical = |s: &QueryStats| QueryStats { wall: Default::default(), ..*s };
    let mut tail_probes = 0;
    for salt in [3u64, 17, 29, 41] {
        let store = dataset(60, salt);
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
        let engine = QueryEngine::new(&tree, &store);
        let (path, file_store) = on_disk(&store, salt);
        let file_engine = QueryEngine::new(&tree, &file_store);
        for (query_seed, k, alpha) in [(1u64, 3usize, 0.3), (2, 6, 0.5), (3, 10, 0.8), (4, 11, 0.1)]
        {
            let q = blob(1_000_000 + query_seed, salt, 12.0, 12.0);
            let what = format!("salt {salt} k {k} α {alpha}");
            let (seeded, seeded_log) = exact_logged(&engine, &q, (k, alpha), &cfg);
            let (unseeded, unseeded_log) = exact_logged(&engine, &q, (k, alpha), &cfg.unseeded());
            assert_eq!(seeded.ids(), unseeded.ids(), "{what}: neighbours or their order moved");

            // The squared distance the kernel last returned for an id.
            let d_sq = |log: &[KernelCall], id| {
                log.iter().rev().find_map(|c| (c.0 == id).then_some(c.3).flatten()).unwrap()
            };
            for n in &seeded.neighbors {
                let bits = d_sq(&seeded_log, n.id).to_bits();
                assert_eq!(bits, d_sq(&unseeded_log, n.id).to_bits(), "{what}: {}", n.id);
                assert_eq!(n.dist, DistBound::Exact(f64::from_bits(bits).sqrt()), "{what}");
            }

            // Who the search confirms by its bounds alone is who the tail
            // probes: seeded, its first kernel call carries the
            // neighbour's own bound; unseeded, no seed at all.
            for (log, cfg) in [(&seeded_log, cfg), (&unseeded_log, cfg.unseeded())] {
                for n in engine.aknn(&q, k, alpha, &cfg).unwrap().neighbors {
                    let DistBound::Bounded { hi, .. } = n.dist else { continue };
                    tail_probes += 1;
                    let seed_sq = log.iter().find(|c| c.0 == n.id).unwrap().2;
                    if cfg.seeded_probes {
                        assert!(seed_sq.is_finite() && seed_sq >= hi * hi, "{what}: {}", n.id);
                    } else {
                        assert_eq!(seed_sq, f64::INFINITY, "{what}: {}", n.id);
                    }
                }
            }

            for (cfg, mem) in [(cfg, &seeded), (cfg.unseeded(), &unseeded)] {
                let file = file_engine.aknn_exact(&q, k, alpha, &cfg).unwrap();
                assert_eq!(file.neighbors, mem.neighbors, "{what}");
                assert_eq!(logical(&file.stats), logical(&mem.stats), "{what}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
    assert!(tail_probes > 0, "no neighbour was confirmed by its bounds: pick other queries");
}
