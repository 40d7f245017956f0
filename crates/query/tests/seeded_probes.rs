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
//!
//! The probe gate — a τ-seeded probe skipped, unread, when no point of the
//! query's cut lies strictly within the seed of the entry's support MBR —
//! only ever skips a probe that would have come back dominated: on data
//! with partial cuts, duplicated objects and the query itself stored twice,
//! every variant at inclusive and strict thresholds answers the oracle's
//! distances, and each read the eager variants skip is one their unseeded
//! run made and is no nearer than the k-th distance. RSS's step 1 is the
//! same search and gates the same probes; an object it gated is read at
//! most once by RSS after it, or never. Its compare is strict, like the
//! kernel's.

use fuzzy_core::distance::{alpha_distance_brute, alpha_distance_sq_bounded};
use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_geom::Point;
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{
    AknnConfig, AknnResult, DistBound, QueryEngine, QueryScratch, QueryStats, RknnAlgorithm,
};
use fuzzy_store::{FileStore, FileStoreWriter, IoStatsSnapshot, MemStore, ObjectStore, StoreError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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

/// A store that logs the id of every probe, in probe order.
struct ProbeLog {
    inner: MemStore<2>,
    ids: Mutex<Vec<ObjectId>>,
}

impl ProbeLog {
    /// The ids probed since the last call, in probe order.
    fn take(&self) -> Vec<ObjectId> {
        std::mem::take(&mut *self.ids.lock().unwrap())
    }
}

impl ObjectStore<2> for ProbeLog {
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<2>>, StoreError> {
        self.ids.lock().unwrap().push(id);
        self.inner.probe(id)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn summaries(&self) -> &[fuzzy_core::ObjectSummary<2>] {
        self.inner.summaries()
    }
    fn stats(&self) -> IoStatsSnapshot {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// `o`'s points and memberships under another id, holding only the views a
/// freshly built object holds.
fn copy_as(o: &FuzzyObject<2>, id: u64) -> FuzzyObject<2> {
    FuzzyObject::new(ObjectId(id), o.points().to_vec(), o.memberships().to_vec()).unwrap()
}

/// The probe gate's world: partial cuts (σ 0.2 on radius 0.5, so every
/// α-cut above the support drops part of each object), every fifth object
/// stored twice, and the query itself stored twice — d = 0 ties.
fn gate_world(salt: u64) -> (ProbeLog, RTree<2>, FuzzyObject<2>) {
    let cfg = SyntheticConfig {
        num_objects: 90,
        points_per_object: 30,
        radius: 0.5,
        sigma: 0.2,
        space: 7.0,
        quantize_levels: None,
        seed: salt,
    };
    let q = cfg.query_object(1);
    let mut objects: Vec<FuzzyObject<2>> = cfg.generate().collect();
    let twins: Vec<FuzzyObject<2>> =
        objects.iter().step_by(5).map(|o| copy_as(o, 1_000 + o.id().0)).collect();
    objects.extend(twins);
    objects.extend([copy_as(&q, 2_000), copy_as(&q, 2_001)]);
    let inner = MemStore::from_objects(objects).unwrap();
    let tree = RTree::bulk_load(inner.summaries().to_vec(), RTreeConfig { max_entries: 8 });
    (ProbeLog { inner, ids: Mutex::new(Vec::new()) }, tree, q)
}

/// What the probe-gate checks saw, over the cases they ran.
#[derive(Debug, Default, PartialEq)]
struct GateSeen {
    /// The gate skipped a lazy-probe eviction's read.
    lazy_eviction: bool,
    /// It skipped an eager read under LB (the Eq. 2 bound box).
    eager_lb: bool,
    /// It skipped an eager read under Basic, whose bound box is the support
    /// MBR the gate tests.
    eager_basic: bool,
    /// The unseeded run read an id the gate skipped: no gate without τ.
    read_unseeded: bool,
    /// RSS's step 1 gated a probe: the gate runs under `reuse`.
    gated_under_reuse: bool,
    /// RSS read an object its step 1 gated, once, as a range candidate.
    read_after_step1: bool,
    /// RSS never read an object its step 1 gated: its range scan gated it,
    /// or its box was beyond the radius.
    never_read: bool,
    /// It skipped a read at a strict threshold.
    strict: bool,
    /// The oracle's k-th distance was tied.
    tie_at_k: bool,
}

impl GateSeen {
    fn all() -> Self {
        GateSeen {
            lazy_eviction: true,
            eager_lb: true,
            eager_basic: true,
            read_unseeded: true,
            gated_under_reuse: true,
            read_after_step1: true,
            never_read: true,
            strict: true,
            tie_at_k: true,
        }
    }

    fn merge(&mut self, o: GateSeen) {
        self.lazy_eviction |= o.lazy_eviction;
        self.eager_lb |= o.eager_lb;
        self.eager_basic |= o.eager_basic;
        self.read_unseeded |= o.read_unseeded;
        self.gated_under_reuse |= o.gated_under_reuse;
        self.read_after_step1 |= o.read_after_step1;
        self.never_read |= o.never_read;
        self.strict |= o.strict;
        self.tie_at_k |= o.tie_at_k;
    }
}

/// One case of the probe gate: every variant at `t`, seeded (gated) against
/// unseeded and against the brute oracle. For the eager variants (Basic, LB:
/// every popped entry read) the unseeded run reads a superset up to the
/// order of equal heap keys, which its extra heap items may reorder; an id
/// it read and the gated run did not is one the gate skipped or a tie at the
/// k-th key. Every such id is absent from the answer, its oracle squared
/// distance no smaller than the k-th, and it was never read. At an inclusive
/// threshold RSS over `[t/2, t]` runs the same search as its step 1, under
/// `reuse`: its kernel calls at `t`, less those that make a bound-confirmed
/// neighbour exact, are the gated run's reads in order, its step-1 gate
/// count is the gated run's, and it reads no object twice — so an object
/// its step 1 gated is read once after step 1, as a range candidate, or
/// never.
fn check_gate(salt: u64, k: usize, t: Threshold) -> GateSeen {
    let (store, tree, q) = gate_world(salt);
    let engine = QueryEngine::new(&tree, &store);
    let d_sq = |id: ObjectId| {
        alpha_distance_sq_bounded(&store.inner.probe(id).unwrap(), &q, t, f64::INFINITY).unwrap()
    };
    let mut oracle: Vec<f64> = store.summaries().iter().map(|s| d_sq(s.id)).collect();
    oracle.sort_by(f64::total_cmp);
    let kth_sq = oracle[k - 1];
    let mut seen = GateSeen { tie_at_k: oracle[k] == kth_sq, ..GateSeen::default() };
    let logical = |s: &QueryStats| QueryStats { wall: Default::default(), ..*s };

    for cfg in AknnConfig::paper_variants() {
        let what = format!("salt {salt} k {k} {t} {}", cfg.variant_name());
        let run = |q: &FuzzyObject<2>, cfg: &AknnConfig| {
            store.take();
            let res = engine
                .aknn_at_with_scratch_in(&L2, q, k, t, cfg, &mut QueryScratch::new())
                .unwrap();
            (res, store.take())
        };
        // The gate tests the query's cut in whichever view it holds: the
        // points it was built from, its prefix columns, its kd-tree.
        let (seeded, read) = run(&copy_as(&q, q.id().0), &cfg);
        let views: [fn(&FuzzyObject<2>); 2] = [
            |o| {
                o.by_membership();
            },
            |o| {
                o.kd_tree();
            },
        ];
        for view in views {
            let q_view = copy_as(&q, q.id().0);
            view(&q_view);
            let (again, read_again) = run(&q_view, &cfg);
            assert_eq!(again.neighbors, seeded.neighbors, "{what}");
            assert_eq!(logical(&again.stats), logical(&seeded.stats), "{what}");
            assert_eq!(read_again, read, "{what}");
        }
        let (unseeded, read_unseeded) = run(&q, &cfg.unseeded());

        // The answers: the oracle's k smallest distances, bit for bit, seeded
        // and unseeded alike — which of several objects tied at the k-th
        // distance is returned is the only freedom either run has.
        let ids = seeded.ids();
        let within = |r: &AknnResult| {
            let mut ids: Vec<ObjectId> =
                r.ids().into_iter().filter(|&id| d_sq(id) < kth_sq).collect();
            ids.sort();
            ids
        };
        assert_eq!(within(&seeded), within(&unseeded), "{what}: neighbours short of a tie");
        for r in [&seeded, &unseeded] {
            let mut got: Vec<f64> = r.neighbors.iter().map(|n| d_sq(n.id)).collect();
            got.sort_by(f64::total_cmp);
            let bits = |d: &[f64]| -> Vec<u64> { d.iter().map(|d| d.to_bits()).collect() };
            assert_eq!(bits(&got), bits(&oracle[..k]), "{what}: against the oracle");
            for n in &r.neighbors {
                let want = d_sq(n.id);
                match n.dist {
                    DistBound::Exact(d) => assert_eq!(d.to_bits(), want.sqrt().to_bits(), "{what}"),
                    DistBound::Bounded { lo, hi } => {
                        assert!(lo <= want.sqrt() && want.sqrt() <= hi, "{what}: {}", n.id)
                    }
                }
            }
        }
        if !t.strict {
            let exact = |cfg: &AknnConfig| engine.aknn_exact(&q, k, t.value, cfg).unwrap();
            let (gated, ungated) = (exact(&cfg), exact(&cfg.unseeded()));
            let bits = |r: &AknnResult| -> Vec<u64> {
                r.neighbors.iter().map(|n| n.dist.hi().to_bits()).collect()
            };
            let want: Vec<u64> = oracle[..k].iter().map(|d| d.sqrt().to_bits()).collect();
            assert_eq!(bits(&gated), want, "{what}: exact AKNN against the oracle");
            assert_eq!(bits(&ungated), want, "{what}: unseeded exact AKNN against the oracle");
        }

        let assert_skipped = |gated: &[ObjectId], what: &str| {
            for id in gated {
                assert!(!ids.contains(id), "{what}: gated {id} is in the answer");
                assert!(d_sq(*id) >= kth_sq, "{what}: gated {id} below the k-th distance");
                assert!(!read.contains(id), "{what}: gated {id} was read");
            }
        };
        // Ids the eager variants' gate skipped (or tied at the k-th key).
        let mut gated = Vec::new();
        if !cfg.lazy_probe {
            gated = read_unseeded.iter().copied().filter(|id| !read.contains(id)).collect();
            assert_skipped(&gated, &format!("{what} (unseeded)"));
            seen.read_unseeded |= !gated.is_empty();
        }
        if !t.strict {
            let metric = RecordingL2::default();
            let alpha = t.value;
            store.take();
            let rss = engine
                .rknn_with_scratch_in(
                    &metric,
                    &q,
                    k,
                    alpha / 2.0,
                    alpha,
                    RknnAlgorithm::Rss,
                    &cfg,
                    &mut QueryScratch::new(),
                )
                .unwrap();
            let rss_read = store.take();
            let bounded: Vec<ObjectId> = seeded
                .neighbors
                .iter()
                .filter(|n| matches!(n.dist, DistBound::Bounded { .. }))
                .map(|n| n.id)
                .collect();
            let step1: Vec<ObjectId> = metric
                .take()
                .0
                .into_iter()
                .filter(|c| c.1 == t && !bounded.contains(&c.0))
                .map(|c| c.0)
                .collect();
            assert_eq!(step1, read, "{what}: RSS's step 1 read other objects");
            assert!(rss_read.starts_with(&read), "{what}: RSS read before its step 1");
            let (gates, rss_gates) = (seeded.stats.prunes.probe_gate, rss.stats.prunes.probe_gate);
            assert_eq!(rss_gates, gates, "{what}: RSS's step 1 gated other probes");
            let mut distinct = rss_read.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), rss_read.len(), "{what}: RSS read an object twice");
            seen.gated_under_reuse |= rss_gates > 0;
            for id in &gated {
                match rss_read.contains(id) {
                    true => seen.read_after_step1 = true,
                    false => seen.never_read = true,
                }
            }
        }
        let fired = seeded.stats.prunes.probe_gate > 0;
        match cfg.variant_name() {
            "Basic" => seen.eager_basic |= fired,
            "LB" => seen.eager_lb |= fired,
            _ => seen.lazy_eviction |= fired,
        }
        seen.strict |= fired && t.strict;
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The probe gate only ever skips a probe that would have come back
    /// dominated, and changes no answer.
    #[test]
    fn probe_gate_skips_only_dominated_probes(
        salt in any::<u64>(),
        k_at in 0usize..3,
        alpha_step in 1u32..=9,
        strict in any::<bool>(),
    ) {
        let t = Threshold { value: alpha_step as f64 / 10.0, strict };
        check_gate(salt, [1, 5, 10][k_at], t);
    }
}

/// [`check_gate`] on fixed cases, each path of the gate taken at least once.
#[test]
fn probe_gate_paths_are_all_taken() {
    let mut seen = GateSeen::default();
    for salt in [5u64, 23, 61] {
        for k in [1usize, 5, 10] {
            for (alpha, strict) in [(0.3, false), (0.5, true), (0.7, false)] {
                seen.merge(check_gate(salt, k, Threshold { value: alpha, strict }));
            }
        }
    }
    assert_eq!(seen, GateSeen::all(), "a path of the probe gate was never taken");
}

/// The gate's compare is strict, as the kernel's is: an entry whose support
/// MBR lies at exactly the τ seed from the query's cut is skipped, because
/// no pair can lie strictly within the seed. Basic, k = 1, the query's cut
/// `{(0, 0), (10, 10)}`: `near` at `(10, −0.5)` is read first and its
/// squared distance 100.25 becomes τ; `edge`, a point at `(x, 0)` whose
/// squared distance to `(10, 10)` rounds to exactly the seed, is popped next
/// (its box is nearer the cut's MBR than `near`'s distance) and never read —
/// in each of the views the gate reads the query's cut from.
#[test]
fn probe_gate_skips_an_entry_exactly_at_the_tau_seed() {
    // τ as the engine inflates it before seeding a probe.
    let tau_eff = 100.25 * (1.0 + 1e-12) + f64::MIN_POSITIVE;
    let gap_sq = |x: f64| (x - 10.0) * (x - 10.0) + 100.0;
    let start = 10.0 + (tau_eff - 100.0).sqrt();
    let x = (0..1 << 14)
        .flat_map(|i: u64| [start.to_bits() + i, start.to_bits() - i])
        .map(f64::from_bits)
        .find(|&x| gap_sq(x) == tau_eff)
        .expect("some x puts (x, 0) at exactly the seed from (10, 10)");

    let point =
        |id, x, y| FuzzyObject::new(ObjectId(id), vec![Point::xy(x, y)], vec![1.0]).unwrap();
    let (near, edge) = (point(1, 10.0, -0.5), point(2, x, 0.0));
    let q = FuzzyObject::new(
        ObjectId(9),
        vec![Point::xy(0.0, 0.0), Point::xy(10.0, 10.0)],
        vec![1.0, 1.0],
    )
    .unwrap();
    let t = Threshold::at(0.5);
    assert_eq!(alpha_distance_sq_bounded(&edge, &q, t, f64::INFINITY), Some(tau_eff));
    assert_eq!(alpha_distance_sq_bounded(&edge, &q, t, tau_eff), None, "edge is dominated");

    let inner = MemStore::from_objects([near, edge]).unwrap();
    let tree = RTree::bulk_load(inner.summaries().to_vec(), RTreeConfig { max_entries: 8 });
    let store = ProbeLog { inner, ids: Mutex::new(Vec::new()) };
    let engine = QueryEngine::new(&tree, &store);
    let views: [fn(&FuzzyObject<2>); 3] = [
        |_| {},
        |o| {
            o.by_membership();
        },
        |o| {
            o.kd_tree();
        },
    ];
    for view in views {
        let q_view = copy_as(&q, 9);
        view(&q_view);
        let res = engine
            .aknn_at_with_scratch_in(
                &L2,
                &q_view,
                1,
                t,
                &AknnConfig::basic(),
                &mut QueryScratch::new(),
            )
            .unwrap();
        assert_eq!(res.ids(), [ObjectId(1)]);
        assert_eq!(store.take(), [ObjectId(1)], "edge was read");
        assert_eq!((res.stats.object_accesses, res.stats.distance_evals), (1, 1));
    }
}
