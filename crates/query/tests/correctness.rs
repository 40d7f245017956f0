//! Cross-algorithm correctness: every AKNN variant must agree with a
//! linear-scan oracle, and every RKNN algorithm must agree with the naive
//! (probe-everything) reference, across random datasets, ks, thresholds
//! and ranges.

use fuzzy_core::distance::{alpha_distance_brute, alpha_distance_sq_bounded};
use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, Threshold};
use fuzzy_datagen::{CellConfig, SyntheticConfig};
use fuzzy_geom::{Mbr, Point};
use fuzzy_index::{range_scan, RTree, RTreeConfig};
use fuzzy_query::{
    aknn_brute, AknnConfig, AknnResult, DistBound, PruneCounts, QueryEngine, QueryError,
    QueryScratch, QueryStats, RknnAlgorithm, RknnResult,
};
use fuzzy_store::{IoStatsSnapshot, MemStore, ObjectStore, StoreError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::{settle_calls, KernelCall, RecordingL2, Settle, Window};

struct Rng(u64);
impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A blob object: kernel at the centre, quantized membership decaying with
/// radius. Quantization (20 levels) makes critical-probability structure
/// non-trivial without creating distance ties.
fn blob(id: u64, cx: f64, cy: f64, radius: f64, n: usize, rng: &mut Rng) -> FuzzyObject<2> {
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..n {
        let r = rng.next_f64() * radius;
        let theta = rng.next_f64() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * theta.cos(), cy + r * theta.sin()));
        let mu = (((1.0 - r / (radius * 1.1)) * 20.0).round() / 20.0).clamp(0.05, 1.0);
        mus.push(mu);
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

fn dataset(seed: u64, count: usize, pts_per_obj: usize) -> (MemStore<2>, FuzzyObject<2>) {
    let mut rng = Rng(seed | 1);
    let mut objects = Vec::with_capacity(count);
    for i in 0..count {
        let cx = rng.next_f64() * 40.0;
        let cy = rng.next_f64() * 40.0;
        objects.push(blob(i as u64, cx, cy, 1.0, pts_per_obj, &mut rng));
    }
    let q = blob(u64::MAX, 20.0, 20.0, 1.0, pts_per_obj, &mut rng);
    (MemStore::from_objects(objects).unwrap(), q)
}

/// Linear-scan oracle: exact α-distances of every object, ascending.
fn oracle_distances(store: &MemStore<2>, q: &FuzzyObject<2>, t: Threshold) -> Vec<(f64, ObjectId)> {
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
fn aknn_variants_match_linear_scan() {
    for seed in [3u64, 17, 91] {
        let (store, q) = dataset(seed, 120, 30);
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
        let engine = QueryEngine::new(&tree, &store);
        for alpha in [0.1, 0.5, 0.9] {
            let t = Threshold::at(alpha);
            let oracle = oracle_distances(&store, &q, t);
            store.reset_stats();
            for k in [1usize, 7, 25] {
                let kth = oracle[k - 1].0;
                for cfg in AknnConfig::paper_variants() {
                    let res = engine.aknn(&q, k, alpha, &cfg).unwrap();
                    assert_eq!(
                        res.neighbors.len(),
                        k,
                        "seed {seed} α {alpha} k {k} {}",
                        cfg.variant_name()
                    );
                    // Every returned object must truly be within the k-th
                    // oracle distance (ties allowed), and its reported
                    // bounds must bracket the true distance.
                    for n in &res.neighbors {
                        let obj = store.probe(n.id).unwrap();
                        let d = alpha_distance_brute(&obj, &q, t).unwrap();
                        assert!(
                            d <= kth + 1e-9,
                            "seed {seed} α {alpha} k {k} {}: {} has d {d} > kth {kth}",
                            cfg.variant_name(),
                            n.id
                        );
                        assert!(
                            n.dist.lo() <= d + 1e-9 && d <= n.dist.hi() + 1e-9,
                            "bounds [{}, {}] do not bracket {d}",
                            n.dist.lo(),
                            n.dist.hi()
                        );
                    }
                    // No duplicates.
                    let mut ids = res.ids();
                    ids.sort();
                    ids.dedup();
                    assert_eq!(ids.len(), k);
                }
            }
        }
    }
}

#[test]
fn optimized_variants_access_fewer_or_equal_objects() {
    let (store, q) = dataset(77, 300, 40);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 16 });
    let engine = QueryEngine::new(&tree, &store);
    let mut accesses = Vec::new();
    for cfg in AknnConfig::paper_variants() {
        store.reset_stats();
        let res = engine.aknn(&q, 10, 0.7, &cfg).unwrap();
        accesses.push((cfg.variant_name(), res.stats.object_accesses));
    }
    // LB must not access more than Basic; the full stack must be the best
    // or tied. (Strict orderings are workload-dependent; the invariant the
    // paper relies on is monotone improvement.)
    let basic = accesses[0].1;
    let lb = accesses[1].1;
    let full = accesses[3].1;
    assert!(lb <= basic, "{accesses:?}");
    assert!(full <= lb, "{accesses:?}");
}

#[test]
fn aknn_at_strict_threshold_matches_oracle() {
    let (store, q) = dataset(5, 80, 25);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    // Strict threshold right at a quantization level exercises the α+ε cut.
    let t = Threshold::above(0.5);
    let oracle = oracle_distances(&store, &q, t);
    let res = engine
        .aknn_at_with_scratch_in(&L2, &q, 5, t, &AknnConfig::lb_lp_ub(), &mut QueryScratch::new())
        .unwrap();
    let kth = oracle[4].0;
    for n in &res.neighbors {
        let obj = store.probe(n.id).unwrap();
        let d = alpha_distance_brute(&obj, &q, t).unwrap();
        assert!(d <= kth + 1e-9);
    }
}

#[test]
fn rknn_algorithms_agree_with_naive() {
    for seed in [11u64, 23] {
        let (store, q) = dataset(seed, 60, 20);
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
        let engine = QueryEngine::new(&tree, &store);
        for (k, lo, hi) in [(3usize, 0.3, 0.6), (5, 0.1, 0.9), (2, 0.5, 0.5), (4, 0.7, 1.0)] {
            let reference =
                engine.rknn(&q, k, lo, hi, RknnAlgorithm::Naive, &AknnConfig::lb_lp_ub()).unwrap();
            for algo in RknnAlgorithm::paper_variants() {
                for cfg in [AknnConfig::basic(), AknnConfig::lb_lp_ub()] {
                    let res = engine.rknn(&q, k, lo, hi, algo, &cfg).unwrap();
                    assert!(
                        res.approx_eq(&reference, 1e-9),
                        "seed {seed} k {k} [{lo},{hi}] {} ({}):\n got {}\n want {}",
                        algo.name(),
                        cfg.variant_name(),
                        res.items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join("; "),
                        reference
                            .items
                            .iter()
                            .map(|i| i.to_string())
                            .collect::<Vec<_>>()
                            .join("; "),
                    );
                }
            }
        }
    }
}

#[test]
fn rknn_rss_accesses_far_fewer_objects_than_basic() {
    let (store, q) = dataset(31, 400, 25);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 16 });
    let engine = QueryEngine::new(&tree, &store);
    let cfg = AknnConfig::lb_lp_ub();
    let basic = engine.rknn(&q, 10, 0.4, 0.6, RknnAlgorithm::Basic, &cfg).unwrap();
    let rss = engine.rknn(&q, 10, 0.4, 0.6, RknnAlgorithm::Rss, &cfg).unwrap();
    let icr = engine.rknn(&q, 10, 0.4, 0.6, RknnAlgorithm::RssIcr, &cfg).unwrap();
    assert!(basic.approx_eq(&rss, 1e-9));
    assert!(
        rss.stats.object_accesses < basic.stats.object_accesses,
        "rss {} vs basic {}",
        rss.stats.object_accesses,
        basic.stats.object_accesses
    );
    // RSS and RSS-ICR probe the same candidate set.
    assert_eq!(rss.stats.object_accesses, icr.stats.object_accesses);
    // ICR must not check more refinement steps than RSS.
    assert!(icr.stats.profile_computations <= rss.stats.profile_computations);
}

#[test]
fn rknn_ranges_partition_correctly_at_every_alpha() {
    // At every probability in the range, exactly k objects must qualify
    // (no ties in this dataset), and membership must match a direct AKNN.
    let (store, q) = dataset(47, 50, 20);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let k = 4;
    let res = engine.rknn(&q, k, 0.2, 0.8, RknnAlgorithm::RssIcr, &AknnConfig::lb_lp_ub()).unwrap();
    for alpha in [0.2, 0.25, 0.33, 0.41, 0.5, 0.62, 0.75, 0.8] {
        let qualifying: Vec<ObjectId> =
            res.items.iter().filter(|i| i.range.contains(alpha)).map(|i| i.id).collect();
        assert_eq!(qualifying.len(), k, "α = {alpha}");
        let t = Threshold::at(alpha);
        let oracle = oracle_distances(&store, &q, t);
        let kth = oracle[k - 1].0;
        for id in qualifying {
            let obj = store.probe(id).unwrap();
            let d = alpha_distance_brute(&obj, &q, t).unwrap();
            assert!(d <= kth + 1e-9, "α {alpha}: {id} not truly in {k}NN");
        }
    }
}

#[test]
fn invalid_parameters_are_rejected() {
    let (store, q) = dataset(1, 10, 10);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let cfg = AknnConfig::lb_lp_ub();
    assert!(engine.aknn(&q, 0, 0.5, &cfg).is_err());
    assert!(engine.aknn(&q, 3, 0.0, &cfg).is_err());
    assert!(engine.aknn(&q, 3, 1.5, &cfg).is_err());
    assert!(engine.rknn(&q, 3, 0.6, 0.4, RknnAlgorithm::Rss, &cfg).is_err());
    assert!(engine.rknn(&q, 3, -0.1, 0.4, RknnAlgorithm::Rss, &cfg).is_err());
}

#[test]
fn k_exceeding_dataset_returns_all_objects() {
    let (store, q) = dataset(9, 12, 15);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let res = engine.aknn(&q, 50, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
    assert_eq!(res.neighbors.len(), 12);
    let rknn =
        engine.rknn(&q, 50, 0.3, 0.7, RknnAlgorithm::RssIcr, &AknnConfig::lb_lp_ub()).unwrap();
    assert_eq!(rknn.items.len(), 12);
}

/// A store that logs every probe and when it started, to count what one
/// query reads; each probe takes `delay` first.
struct CountingStore {
    inner: MemStore<2>,
    delay: Duration,
    probed: Mutex<Vec<(ObjectId, Instant)>>,
}

impl CountingStore {
    fn new(inner: MemStore<2>, delay: Duration) -> Self {
        Self { inner, delay, probed: Mutex::new(Vec::new()) }
    }

    /// The probes since the last call, in probe order.
    fn take(&self) -> Vec<(ObjectId, Instant)> {
        std::mem::take(&mut *self.probed.lock().unwrap())
    }

    /// The ids probed since the last call, in probe order.
    fn take_ids(&self) -> Vec<ObjectId> {
        self.take().into_iter().map(|(id, _)| id).collect()
    }
}

impl ObjectStore<2> for CountingStore {
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<2>>, StoreError> {
        self.probed.lock().unwrap().push((id, Instant::now()));
        std::thread::sleep(self.delay);
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

/// What RSS did with step 1's bound-confirmed neighbours, recomputed from
/// the lazy step-1 answer at `hi` (`M` is the largest exact distance in it).
#[derive(Debug, Default)]
struct BoundConfirmed {
    /// `hi ≤ M` and `hi < l_min`: settled on the bound, never read.
    never_read: Vec<ObjectId>,
    /// `hi > M`: read before `r` is taken.
    above_m: Vec<ObjectId>,
    /// `hi ≤ M` but not below `l_min`: read for the settle test.
    unsettled: Vec<ObjectId>,
}

/// What the settle step may do, recomputed from unseeded kernel calls and
/// held against what the recording metric saw: exactly one kernel call at
/// `(αs, r_sq)` per outsider and none per step-1 neighbour, `None` exactly
/// for the outsiders not strictly within `r_sq`; one window per unsettled
/// neighbour (its top the kernel's bits at `αe`) and per kept outsider (top
/// the kernel's bits at `αe` when step 1 evaluated it exactly, so that RSS
/// took it from step 1, and `None` otherwise), none for a settled or a
/// dropped id, and none at all when every neighbour settles; no kernel call
/// at all for a never-read bound-confirmed neighbour, whose oracle `d_αe` is
/// strictly below `l_min`, and exactly one, seeded with its own bound, for
/// every other; `distance_evals` and `profile_computations` count those
/// calls — `distance_evals` is RSS's own step-1 calls (the log's calls at
/// `hi`) plus one per outsider. `step1` is the exact AKNN at `hi`, `lazy`
/// the search RSS runs; both gate probes as RSS's step 1 does, so RSS's
/// step 1 makes exactly the calls `step1` made, less the never-read
/// neighbours'.
fn assert_settle_accounting(
    store: &MemStore<2>,
    q: &FuzzyObject<2>,
    (k, lo, hi): (usize, f64, f64),
    (step1, lazy): (&AknnResult, &AknnResult),
    res: &RknnResult,
    (kernel, windows): &(Vec<KernelCall>, Vec<Window>),
    what: &str,
) -> (Settle, BoundConfirmed) {
    let exact_sq = |id: ObjectId, alpha: f64| {
        let obj = store.probe(id).unwrap();
        alpha_distance_sq_bounded(&obj, q, Threshold::at(alpha), f64::INFINITY).unwrap()
    };
    let neighbors = step1.ids();
    assert_eq!(neighbors.len(), k, "{what}");
    let sorted = |mut ids: Vec<ObjectId>| {
        ids.sort_unstable();
        ids
    };
    assert_eq!(sorted(lazy.ids()), sorted(neighbors.clone()), "{what}: other neighbours");
    let r = step1.neighbors.iter().map(|n| n.dist.hi()).fold(0.0, f64::max);
    let r_sq = r * r * (1.0 + 4.0 * f64::EPSILON);
    let settle = Settle::of(kernel, windows, lo, &neighbors);
    // Step 1 runs at `hi`: the ids its kernel returned a distance for.
    let step1_exact: Vec<ObjectId> =
        kernel.iter().filter(|c| c.1 == Threshold::at(hi) && c.3.is_some()).map(|c| c.0).collect();

    let mut distinct = settle.outsiders.clone();
    distinct.dedup();
    assert_eq!(distinct, settle.outsiders, "{what}: an outsider was asked twice");
    assert_eq!(settle.outsiders.len() as u64, res.stats.candidates - k as u64, "{what}");
    let mut l_min = f64::INFINITY;
    for call in settle_calls(kernel, lo) {
        let &(id, _, seed_sq, got) = call;
        assert!(!neighbors.contains(&id), "{what}: neighbour {id} was asked again");
        assert_eq!(seed_sq.to_bits(), r_sq.to_bits(), "{what}: {id} was not seeded with r_sq");
        let d_sq = exact_sq(id, lo);
        let want = (d_sq < r_sq).then_some(d_sq);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{what}: {id}");
        if want.is_some() {
            l_min = l_min.min(d_sq.sqrt());
        }
    }

    let can_settle = r_sq.sqrt() > r;
    let exact = lazy.neighbors.iter().filter(|n| matches!(n.dist, DistBound::Exact(_)));
    let m = exact.map(|n| n.dist.hi()).fold(0.0, f64::max);
    let mut bound = BoundConfirmed::default();
    for n in &lazy.neighbors {
        let DistBound::Bounded { hi: b, .. } = n.dist else { continue };
        let calls: Vec<&KernelCall> = kernel.iter().filter(|c| c.0 == n.id).collect();
        if b <= m && can_settle && b < l_min {
            let d = alpha_distance_brute(&store.probe(n.id).unwrap(), q, Threshold::at(hi));
            assert!(d.unwrap() < l_min, "{what}: {} settled unread at {d:?} ≥ {l_min}", n.id);
            assert!(calls.is_empty(), "{what}: never-read {} was evaluated", n.id);
            bound.never_read.push(n.id);
        } else {
            assert_eq!(calls.len(), 1, "{what}: {} read once, evaluated once", n.id);
            assert_eq!(calls[0].1, Threshold::at(hi), "{what}: {}", n.id);
            assert!(calls[0].2.is_finite() && calls[0].2 >= b * b, "{what}: {} own bound", n.id);
            if b > m { &mut bound.above_m } else { &mut bound.unsettled }.push(n.id);
        }
    }

    let mut want: Vec<(ObjectId, Option<u64>)> = neighbors
        .iter()
        .map(|&id| (id, exact_sq(id, hi)))
        .filter(|&(_, top_sq)| top_sq.sqrt() >= l_min)
        .map(|(id, top_sq)| (id, Some(top_sq.to_bits())))
        .collect();
    if !want.is_empty() {
        let kept = settle.outsiders.iter().filter(|id| !settle.dropped.contains(id));
        want.extend(
            kept.map(|&id| (id, step1_exact.contains(&id).then(|| exact_sq(id, hi).to_bits()))),
        );
    }
    want.sort_unstable();
    let mut got: Vec<(ObjectId, Option<u64>)> = windows
        .iter()
        .map(|&(id, w_lo, w_hi, top_sq)| {
            assert_eq!((w_lo, w_hi), (lo, hi), "{what}: {id}");
            (id, top_sq.map(f64::to_bits))
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, want, "{what}: who got a window, and with which top");

    assert_eq!(res.stats.profile_computations, windows.len() as u64, "{what}");
    assert!(res.stats.profile_computations <= res.stats.candidates, "{what}");
    let own_step1_calls = kernel.iter().filter(|c| c.1 == Threshold::at(hi)).count() as u64;
    assert_eq!(res.stats.distance_evals, own_step1_calls + settle.outsiders.len() as u64, "{what}");
    assert_eq!(
        own_step1_calls + bound.never_read.len() as u64,
        step1.stats.distance_evals,
        "{what}: RSS's step 1 made other kernel calls than the exact AKNN"
    );
    (settle, bound)
}

/// RSS / RSS-ICR read each object at most once per query, and a step-1
/// neighbour only when `r`, its settlement or its window needs it: every
/// object step 1's AKNN decoded — the neighbours it returns and the probes
/// it rejects alike — is reused; a neighbour it confirmed by its bounds is
/// read only when its bound exceeds the largest exact distance `M` or cannot
/// settle it; and only the range candidates it never decoded are probed,
/// each exactly once whether it is then dropped, kept or never profiled
/// because every neighbour settled.
#[test]
fn rss_probes_no_object_twice() {
    // Seen at least once: an outsider dropped, neighbours settled beside
    // profiled ones, every neighbour settled (no window at all), an
    // outsider step 1 had probed and rejected, one whose window opened
    // from the distance step 1's kernel returned for it, a bound-confirmed
    // neighbour never read, one read because its bound exceeded `M`, and
    // one read because its bound could not settle it.
    let mut seen = [false; 8];
    for seed in [20u64, 31, 77] {
        let (inner, q) = dataset(seed, 300, 25);
        let store = CountingStore::new(inner, Duration::ZERO);
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
        let engine = QueryEngine::new(&tree, &store);
        let cfg = AknnConfig::lb_lp_ub();
        let metric = RecordingL2::default();
        let mut scratch = QueryScratch::new();
        let k = 6usize;
        for (lo, hi) in [(0.3, 0.7), (0.2, 0.5), (0.6, 0.9)] {
            let naive = engine.rknn(&q, k, lo, hi, RknnAlgorithm::Naive, &cfg).unwrap();
            let step1 = engine.aknn_exact(&q, k, hi, &cfg).unwrap();
            let lazy = engine.aknn(&q, k, hi, &cfg).unwrap();

            for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
                store.take();
                metric.take();
                let res = engine
                    .rknn_with_scratch_in(&metric, &q, k, lo, hi, algo, &cfg, &mut scratch)
                    .unwrap();
                let mut probed = store.take_ids();
                let log = metric.take();
                let what = format!("seed {seed} k {k} [{lo}, {hi}] {}", algo.name());

                let reads = probed.len() as u64;
                probed.sort_unstable();
                probed.dedup();
                assert_eq!(probed.len() as u64, reads, "{what}: an object was probed twice");
                assert_eq!(res.stats.object_accesses, reads, "{what}");

                let (settle, bound) = assert_settle_accounting(
                    &store.inner,
                    &q,
                    (k, lo, hi),
                    (&step1, &lazy),
                    &res,
                    &log,
                    &what,
                );
                // What RSS's own step 1 read — each read is one kernel call
                // at `hi`, and a probe its gate skips is neither — and of
                // that, what it decoded and did not return.
                let mut step1_read: Vec<ObjectId> =
                    log.0.iter().filter(|c| c.1 == Threshold::at(hi)).map(|c| c.0).collect();
                step1_read.sort_unstable();
                step1_read.dedup();
                let returned = step1.ids();
                let rejected: Vec<ObjectId> =
                    step1_read.iter().copied().filter(|id| !returned.contains(id)).collect();
                for id in &settle.outsiders {
                    assert!(probed.binary_search(id).is_ok(), "{what}: {id} was never read");
                }
                for id in bound.above_m.iter().chain(&bound.unsettled) {
                    assert!(probed.binary_search(id).is_ok(), "{what}: {id} was never read");
                }
                for id in &bound.never_read {
                    assert!(probed.binary_search(id).is_err(), "{what}: {id} was read");
                }
                // Every step-1 neighbour lies within r of q, so the range scan
                // returns it and, once decoded, it is reused; so is every
                // outsider step 1 probed and rejected. A neighbour settled on
                // its bound is never read at all, by step 1 or after it.
                let in_hand = step1.neighbors.len() as u64;
                let reused = settle.outsiders.iter().filter(|id| rejected.contains(id)).count();
                let never_read = bound.never_read.len() as u64;
                for id in &bound.never_read {
                    assert!(step1_read.binary_search(id).is_err(), "{what}: {id} was read");
                }
                assert_eq!(
                    res.stats.object_accesses,
                    step1_read.len() as u64 + res.stats.candidates - in_hand - reused as u64,
                    "{what}"
                );
                assert_eq!(
                    step1_read.len() as u64 + never_read,
                    step1.stats.object_accesses,
                    "{what}: RSS's step 1 read other objects than the exact AKNN"
                );
                seen[0] |= !settle.dropped.is_empty();
                seen[1] |= !settle.settled.is_empty() && !settle.profiled.is_empty();
                seen[2] |= settle.profiled.is_empty() && !settle.dropped.is_empty();
                seen[3] |= reused > 0;
                seen[4] |= log.1.iter().any(|w| w.3.is_some() && settle.outsiders.contains(&w.0));
                seen[5] |= never_read > 0;
                seen[6] |= !bound.above_m.is_empty();
                seen[7] |= !bound.unsettled.is_empty();
                assert_eq!(rknn_bits(&res), rknn_bits(&naive), "{what}");
            }
        }
    }
    assert_eq!(seen, [true; 8], "a path of the settle step was never taken: pick other queries");
}

/// An overdue query stops probing: with each probe taking 3 ms and the
/// deadline 1 ms away, no probe of the lazy AKNN (its evictions included),
/// of the exact AKNN (the reads that make its bound-confirmed neighbours
/// exact included) or of RSS starts more than 1 ms past the deadline, and
/// each query returns `DeadlineExceeded` rather than an answer.
#[test]
fn an_overdue_query_starts_no_probe() {
    let (inner, q) = dataset(20, 300, 25);
    let tree = RTree::bulk_load(inner.summaries().to_vec(), RTreeConfig::default());
    let store = CountingStore::new(inner, Duration::from_millis(3));
    let engine = QueryEngine::new(&tree, &store);
    let (k, alpha) = (10, 0.5);
    let overdue = |what: &str, run: &dyn Fn(&AknnConfig) -> Result<(), QueryError>| {
        store.take();
        let deadline = Instant::now() + Duration::from_millis(1);
        let got = run(&AknnConfig::lb_lp_ub().with_deadline(Some(deadline)));
        let starts = store.take();
        let late = starts.iter().filter(|p| p.1 > deadline + Duration::from_millis(1)).count();
        assert_eq!(late, 0, "{what}: {late} of {} probes started past the deadline", starts.len());
        assert!(matches!(got, Err(QueryError::DeadlineExceeded)), "{what}: {got:?}");
    };
    overdue("lazy AKNN", &|cfg| engine.aknn(&q, k, alpha, cfg).map(drop));
    overdue("exact AKNN", &|cfg| engine.aknn_exact(&q, k, alpha, cfg).map(drop));
    let rss = RknnAlgorithm::Rss;
    overdue("RSS", &|cfg| engine.rknn(&q, k, 0.3, alpha, rss, cfg).map(drop));
}

/// An RKNN answer down to the bits of every interval endpoint.
fn rknn_bits(res: &RknnResult) -> String {
    let mut out = String::new();
    for item in &res.items {
        out.push_str(&format!("{}:", item.id));
        for iv in item.range.intervals() {
            let (open, close) =
                (["(", "["][iv.lo_closed as usize], [")", "]"][iv.hi_closed as usize]);
            out.push_str(&format!(
                " {open}{:016x},{:016x}{close}",
                iv.lo.to_bits(),
                iv.hi.to_bits()
            ));
        }
        out.push('\n');
    }
    out
}

/// The logical counters of a query (everything but the wall clock and the
/// pool-dependent disk reads).
fn counters(s: &QueryStats) -> [u64; 7] {
    [
        s.object_accesses,
        s.node_accesses,
        s.distance_evals,
        s.profile_computations,
        s.bound_evals,
        s.aknn_calls,
        s.candidates,
    ]
}

/// The ranges the windowed algorithms are held to: the benchmark's, a
/// single probability, one ending at the kernel level, and one whose ends
/// are membership levels the query object stores.
fn window_ranges(q: &FuzzyObject<2>) -> [(f64, f64); 4] {
    let levels = q.distinct_levels();
    [(0.3, 0.7), (0.5, 0.5), (0.6, 1.0), (levels[levels.len() / 3], levels[2 * levels.len() / 3])]
}

/// The two columns of [`counters`] RSS's settle step moves: it adds one
/// bounded kernel call per outsider to `distance_evals` and takes the
/// settled neighbours' and dropped outsiders' windows — or all of them — off
/// `profile_computations`.
const SETTLE_COLUMNS: [usize; 2] = [2, 3];

/// The column of [`counters`] RSS's reuse of step 1's rejected probes
/// moves: `object_accesses`, and only down. Every other counter is the
/// parent's.
const READS_COLUMN: usize = 0;

/// The columns of [`counters`] that RSS's unread bound-confirmed neighbours
/// move: each such neighbour is one probe and one kernel call fewer, so
/// `object_accesses` and `distance_evals` fall together, by the same amount.
const UNREAD_COLUMNS: [usize; 2] = [READS_COLUMN, 2];

/// The column of [`counters`] the AKNN probe gate adds to: one
/// `bound_evals` per gate test.
const GATE_COLUMN: usize = 4;

/// The columns of [`counters`] RSS's scan gate and its step-1 probe gate
/// move down: `object_accesses`, `distance_evals` and `candidates`.
const SCAN_GATE_COLUMNS: [usize; 3] = [READS_COLUMN, 2, 6];

/// `before_unread` against the rows the commit before the settle step
/// produced (`before_settle`): for RSS and RSS-ICR, equal outside
/// [`SETTLE_COLUMNS`] and [`READS_COLUMN`], no lower in `distance_evals`
/// (settle calls only add evaluations) and no higher in the latter; equal
/// everywhere for every other algorithm. Then `reference` against
/// `before_unread`: for RSS and RSS-ICR, equal outside [`UNREAD_COLUMNS`],
/// no higher in either and lower by the same amount in both; equal
/// everywhere for every other algorithm. Then `rows` against `reference`,
/// the rows of the commit before the probe gate: for Basic, equal outside
/// [`UNREAD_COLUMNS`] and [`GATE_COLUMN`], lower by the same amount `s` in
/// both of the former (each gated probe is one read and one kernel call
/// fewer) and higher by `g ≥ s` in the latter (each gate test is one bound
/// evaluation, and only some of them skip a read); equal everywhere for RSS
/// and RSS-ICR, whose step 1 did not gate then. Last, `rows` against
/// `before_scan_gate`, the rows of the commit before RSS's range scan gated
/// and its step 1 ran the probe gate: for RSS and RSS-ICR, no higher in
/// [`SCAN_GATE_COLUMNS`], no lower in [`GATE_COLUMN`] and equal elsewhere;
/// equal everywhere for Basic.
fn assert_only_settle_columns_moved(
    what: &str,
    algos: &[RknnAlgorithm],
    [before_settle, before_unread, reference, before_scan_gate, rows]: [&[[u64; 7]]; 5],
) {
    assert_eq!(before_unread.len(), before_settle.len());
    for (i, (row, old)) in before_unread.iter().zip(before_settle).enumerate() {
        let algo = algos[i % algos.len()];
        let rss = matches!(algo, RknnAlgorithm::Rss | RknnAlgorithm::RssIcr);
        for col in 0..7 {
            if !(rss && (SETTLE_COLUMNS.contains(&col) || col == READS_COLUMN)) {
                assert_eq!(row[col], old[col], "{what} reference row {i} column {col}");
            }
        }
        if rss {
            assert!(
                row[2] >= old[2],
                "{what} reference row {i}: settle calls only add evaluations"
            );
            assert!(
                row[READS_COLUMN] <= old[READS_COLUMN],
                "{what} reference row {i}: reuse only saves reads"
            );
        }
    }
    assert_eq!(reference.len(), before_unread.len());
    for (i, (row, old)) in reference.iter().zip(before_unread).enumerate() {
        let algo = algos[i % algos.len()];
        let rss = matches!(algo, RknnAlgorithm::Rss | RknnAlgorithm::RssIcr);
        for col in 0..7 {
            if !(rss && UNREAD_COLUMNS.contains(&col)) {
                assert_eq!(row[col], old[col], "{what} reference row {i} column {col}");
            }
        }
        if rss {
            assert!(row[3] <= row[6], "{what} reference row {i}: more profiles than candidates");
            let [reads, evals] = UNREAD_COLUMNS.map(|col| {
                assert!(row[col] <= old[col], "{what} reference row {i} column {col}");
                old[col] - row[col]
            });
            assert_eq!(reads, evals, "{what} reference row {i}: a read saved without its call");
        }
    }
    assert_eq!(before_scan_gate.len(), reference.len());
    for (i, (row, old)) in before_scan_gate.iter().zip(reference).enumerate() {
        let algo = algos[i % algos.len()];
        let basic = algo == RknnAlgorithm::Basic;
        for col in 0..7 {
            if !(basic && (UNREAD_COLUMNS.contains(&col) || col == GATE_COLUMN)) {
                assert_eq!(row[col], old[col], "{what} row {i} ({}) column {col}", algo.name());
            }
        }
        if basic {
            let [reads, evals] = UNREAD_COLUMNS.map(|col| {
                assert!(row[col] <= old[col], "{what} row {i} column {col}: the gate only saves");
                old[col] - row[col]
            });
            assert_eq!(reads, evals, "{what} row {i}: a read gated without its kernel call");
            let gate_tests = row[GATE_COLUMN].checked_sub(old[GATE_COLUMN]);
            assert!(
                gate_tests >= Some(reads),
                "{what} row {i}: {reads} reads gated, {gate_tests:?} tests"
            );
        }
    }
    assert_eq!(rows.len(), before_scan_gate.len());
    for (i, (row, old)) in rows.iter().zip(before_scan_gate).enumerate() {
        let algo = algos[i % algos.len()];
        let rss = matches!(algo, RknnAlgorithm::Rss | RknnAlgorithm::RssIcr);
        for col in 0..7 {
            let name = algo.name();
            if rss && SCAN_GATE_COLUMNS.contains(&col) {
                assert!(row[col] <= old[col], "{what} row {i} ({name}) column {col}: only falls");
            } else if rss && col == GATE_COLUMN {
                assert!(row[col] >= old[col], "{what} row {i} ({name}) column {col}: only rises");
            } else {
                assert_eq!(row[col], old[col], "{what} row {i} ({name}) column {col}");
            }
        }
    }
}

/// One tier of [`windowed_algorithms_equal_naive`]'s counter rows: the
/// four ranges × the three paper variants.
type Rows = [[u64; 7]; 12];

/// Basic, RSS and RSS-ICR on `[lo, hi]` windows against Naive on full
/// profiles — item for item, interval bit for interval bit — and their
/// logical counters, summed over the queries per (range, algorithm),
/// against the `pinned` rows; those against the rows of the commit before
/// RSS's range scan charged a `bound_evals` per live entry its box test
/// scores (`before_box_count`: RSS and RSS-ICR rise there by exactly the
/// entries [`box_rejected`] counts plus their `scan_gate` prunes, every
/// other cell is equal); those against the rows of the commit before
/// RSS's scan gate, those against the `reference` rows of the commit before
/// the AKNN probe gate, those against the rows of the commit before RSS left
/// bound-confirmed neighbours unread, and those against the rows of the
/// commit before the settle step, by the rules of
/// [`assert_only_settle_columns_moved`]. The prune counts, summed alike,
/// account for the moves: every candidate RSS lost is one `scan_gate`, and
/// every candidate left that step 1 did not return is one settle verdict.
fn windowed_algorithms_equal_naive(what: &str, objects: Vec<FuzzyObject<2>>, tiers: [&Rows; 6]) {
    let [before_settle, before_unread, reference, before_scan_gate, before_box_count, pinned] =
        tiers;
    let queries: Vec<FuzzyObject<2>> = objects[..3].to_vec();
    let store = MemStore::from_objects(objects).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
    let engine = QueryEngine::new(&tree, &store);
    let cfg = AknnConfig::lb_lp_ub();
    let mut rows = Vec::new();
    let mut prunes = Vec::new();
    let mut rejected = Vec::new();
    for r in 0..4 {
        for algo in RknnAlgorithm::paper_variants() {
            let mut sum = [0u64; 7];
            let mut pruned = PruneCounts::default();
            let mut box_rejects = 0;
            for q in &queries {
                let (lo, hi) = window_ranges(q)[r];
                box_rejects += box_rejected(&tree, &store, q, 5, lo, hi);
                let naive = engine.rknn(q, 5, lo, hi, RknnAlgorithm::Naive, &cfg).unwrap();
                let got = engine.rknn(q, 5, lo, hi, algo, &cfg).unwrap();
                assert_eq!(
                    rknn_bits(&got),
                    rknn_bits(&naive),
                    "{what} {} on [{lo}, {hi}], query {}",
                    algo.name(),
                    q.id()
                );
                for (total, c) in sum.iter_mut().zip(counters(&got.stats)) {
                    *total += c;
                }
                pruned += got.stats.prunes;
            }
            rows.push(sum);
            prunes.push(pruned);
            rejected.push(box_rejects);
        }
    }
    assert_eq!(rows, pinned, "{what}: counters moved");
    let algos = RknnAlgorithm::paper_variants();
    let tiers: [&[[u64; 7]]; 5] =
        [before_settle, before_unread, reference, before_scan_gate, before_box_count];
    assert_only_settle_columns_moved(what, &algos, tiers);
    let neighbours = 5 * queries.len() as u64;
    for (i, ((row, old), pruned)) in rows.iter().zip(before_scan_gate).zip(&prunes).enumerate() {
        let PruneCounts { scan_gate, outsiders_dropped, outsiders_kept, settled, .. } = *pruned;
        let mut want = before_box_count[i];
        if algos[i % algos.len()] == RknnAlgorithm::Basic {
            assert_eq!([scan_gate, outsiders_dropped, outsiders_kept, settled], [0; 4], "{what}");
            assert_eq!(*row, want, "{what} row {i}: Basic's counters moved");
            continue;
        }
        want[GATE_COLUMN] += rejected[i] + scan_gate;
        assert_eq!(*row, want, "{what} row {i}: not one bound per live entry scored");
        assert_eq!(old[6] - row[6], scan_gate, "{what} row {i}: a lost candidate not scan-gated");
        let verdicts = outsiders_dropped + outsiders_kept;
        assert_eq!(verdicts, row[6] - neighbours, "{what} row {i}: an outsider not asked");
        assert!(settled <= neighbours, "{what} row {i}");
    }
}

/// The live entries RSS's range scan scores for `q` on `[lo, hi]` and its
/// box test rejects: every live entry of the leaves the scan reaches
/// within step 1's radius, less the summaries whose Eq. 2 box at `lo` lies
/// within it (Lemma 3's keep, gated or not). The radius is the brute-force
/// `k`-th distance at `hi`, inflated as RSS inflates it.
fn box_rejected(
    tree: &RTree<2>,
    store: &MemStore<2>,
    q: &FuzzyObject<2>,
    k: usize,
    lo: f64,
    hi: f64,
) -> u64 {
    let step1 = aknn_brute(&L2, store, &store.ids(), q, k, Threshold::at(hi)).unwrap();
    let r = match step1.neighbors.len() < k {
        true => f64::INFINITY,
        false => step1.neighbors.iter().map(|n| n.dist.hi()).fold(0.0, f64::max),
    };
    let r_sq = if r.is_finite() { r * r * (1.0 + 4.0 * f64::EPSILON) } else { f64::INFINITY };
    let t_start = Threshold::at(lo);
    let q_cut = q.cut_mbr(t_start).unwrap();
    let mut scored = 0;
    range_scan(
        tree,
        r_sq,
        |mbr| mbr.min_dist_sq(&q_cut),
        |leaf| {
            scored += (0..leaf.slots()).filter(|&j| leaf.is_live(j)).count();
        },
    )
    .unwrap();
    let within = store.summaries().iter();
    let kept = within.filter(|s| s.approx_cut_mbr(t_start).min_dist_sq(&q_cut) <= r_sq).count();
    (scored - kept) as u64
}

#[test]
fn windowed_rknn_equals_naive_on_continuous_memberships() {
    let data = SyntheticConfig {
        num_objects: 150,
        points_per_object: 60,
        space: 9.0,
        seed: 21,
        ..SyntheticConfig::default()
    };
    // Per range, in `paper_variants` order: Basic, RSS, RSS-ICR.
    let before_settle = [
        [76, 68, 76, 16, 343, 12, 0],
        [25, 33, 18, 22, 100, 3, 22],
        [25, 33, 18, 22, 100, 3, 22],
        [22, 18, 22, 15, 96, 3, 0],
        [28, 36, 22, 21, 117, 3, 21],
        [28, 36, 22, 21, 117, 3, 21],
        [703, 724, 703, 16, 3665, 119, 0],
        [52, 41, 17, 50, 141, 3, 50],
        [52, 41, 17, 50, 141, 3, 50],
        [198, 204, 198, 16, 1038, 33, 0],
        [28, 36, 18, 25, 117, 3, 25],
        [28, 36, 18, 25, 117, 3, 25],
    ];
    let before_unread = [
        [76, 68, 76, 16, 343, 12, 0],
        [23, 33, 25, 3, 100, 3, 22],
        [23, 33, 25, 3, 100, 3, 22],
        [22, 18, 22, 15, 96, 3, 0],
        [22, 36, 28, 0, 117, 3, 21],
        [22, 36, 28, 0, 117, 3, 21],
        [703, 724, 703, 16, 3665, 119, 0],
        [50, 41, 52, 39, 141, 3, 50],
        [50, 41, 52, 39, 141, 3, 50],
        [198, 204, 198, 16, 1038, 33, 0],
        [25, 36, 28, 5, 117, 3, 25],
        [25, 36, 28, 5, 117, 3, 25],
    ];
    let reference = [
        [76, 68, 76, 16, 343, 12, 0],
        [20, 33, 22, 3, 100, 3, 22],
        [20, 33, 22, 3, 100, 3, 22],
        [22, 18, 22, 15, 96, 3, 0],
        [21, 36, 27, 0, 117, 3, 21],
        [21, 36, 27, 0, 117, 3, 21],
        [703, 724, 703, 16, 3665, 119, 0],
        [47, 41, 49, 39, 141, 3, 50],
        [47, 41, 49, 39, 141, 3, 50],
        [198, 204, 198, 16, 1038, 33, 0],
        [19, 36, 22, 5, 117, 3, 25],
        [19, 36, 22, 5, 117, 3, 25],
    ];
    let before_scan_gate = [
        [67, 68, 67, 16, 362, 12, 0],
        [20, 33, 22, 3, 100, 3, 22],
        [20, 33, 22, 3, 100, 3, 22],
        [20, 18, 20, 15, 104, 3, 0],
        [21, 36, 27, 0, 117, 3, 21],
        [21, 36, 27, 0, 117, 3, 21],
        [686, 724, 686, 16, 3798, 119, 0],
        [47, 41, 49, 39, 141, 3, 50],
        [47, 41, 49, 39, 141, 3, 50],
        [189, 204, 189, 16, 1080, 33, 0],
        [19, 36, 22, 5, 117, 3, 25],
        [19, 36, 22, 5, 117, 3, 25],
    ];
    let before_box_count = [
        [67, 68, 67, 16, 362, 12, 0],
        [16, 33, 17, 3, 123, 3, 19],
        [16, 33, 17, 3, 123, 3, 19],
        [20, 18, 20, 15, 104, 3, 0],
        [19, 36, 23, 0, 144, 3, 19],
        [19, 36, 23, 0, 144, 3, 19],
        [686, 724, 686, 16, 3798, 119, 0],
        [45, 41, 47, 39, 191, 3, 48],
        [45, 41, 47, 39, 191, 3, 48],
        [189, 204, 189, 16, 1080, 33, 0],
        [19, 36, 22, 5, 146, 3, 25],
        [19, 36, 22, 5, 146, 3, 25],
    ];
    let pinned = [
        [67, 68, 67, 16, 362, 12, 0],
        [16, 33, 17, 3, 178, 3, 19],
        [16, 33, 17, 3, 178, 3, 19],
        [20, 18, 20, 15, 104, 3, 0],
        [19, 36, 23, 0, 199, 3, 19],
        [19, 36, 23, 0, 199, 3, 19],
        [686, 724, 686, 16, 3798, 119, 0],
        [45, 41, 47, 39, 247, 3, 48],
        [45, 41, 47, 39, 247, 3, 48],
        [189, 204, 189, 16, 1080, 33, 0],
        [19, 36, 22, 5, 195, 3, 25],
        [19, 36, 22, 5, 195, 3, 25],
    ];
    let rows =
        [&before_settle, &before_unread, &reference, &before_scan_gate, &before_box_count, &pinned];
    windowed_algorithms_equal_naive("synthetic", data.generate().collect(), rows);
}

#[test]
fn windowed_rknn_equals_naive_on_256_level_memberships() {
    let data = CellConfig {
        num_objects: 150,
        points_per_object: 60,
        clusters: 0,
        space: 9.0,
        seed: 21,
        ..CellConfig::default()
    };
    let before_settle = [
        [293, 291, 293, 18, 1612, 45, 0],
        [39, 40, 18, 36, 142, 3, 36],
        [39, 40, 18, 36, 142, 3, 36],
        [18, 20, 18, 15, 106, 3, 0],
        [19, 35, 18, 16, 122, 3, 16],
        [19, 35, 18, 16, 122, 3, 16],
        [505, 539, 505, 18, 2919, 77, 0],
        [50, 51, 20, 45, 168, 3, 45],
        [50, 51, 20, 45, 168, 3, 45],
        [235, 218, 235, 17, 1197, 34, 0],
        [39, 41, 18, 36, 142, 3, 36],
        [39, 41, 18, 36, 142, 3, 36],
    ];
    let before_unread = [
        [293, 291, 293, 18, 1612, 45, 0],
        [36, 40, 39, 14, 142, 3, 36],
        [36, 40, 39, 14, 142, 3, 36],
        [18, 20, 18, 15, 106, 3, 0],
        [18, 35, 19, 0, 122, 3, 16],
        [18, 35, 19, 0, 122, 3, 16],
        [505, 539, 505, 18, 2919, 77, 0],
        [45, 51, 50, 26, 168, 3, 45],
        [45, 51, 50, 26, 168, 3, 45],
        [235, 218, 235, 17, 1197, 34, 0],
        [36, 41, 39, 13, 142, 3, 36],
        [36, 41, 39, 13, 142, 3, 36],
    ];
    let reference = [
        [293, 291, 293, 18, 1612, 45, 0],
        [29, 40, 32, 14, 142, 3, 36],
        [29, 40, 32, 14, 142, 3, 36],
        [18, 20, 18, 15, 106, 3, 0],
        [12, 35, 13, 0, 122, 3, 16],
        [12, 35, 13, 0, 122, 3, 16],
        [505, 539, 505, 18, 2919, 77, 0],
        [39, 51, 44, 26, 168, 3, 45],
        [39, 51, 44, 26, 168, 3, 45],
        [235, 218, 235, 17, 1197, 34, 0],
        [29, 41, 32, 13, 142, 3, 36],
        [29, 41, 32, 13, 142, 3, 36],
    ];
    let before_scan_gate = [
        [290, 291, 290, 18, 1689, 45, 0],
        [29, 40, 32, 14, 142, 3, 36],
        [29, 40, 32, 14, 142, 3, 36],
        [17, 20, 17, 15, 109, 3, 0],
        [12, 35, 13, 0, 122, 3, 16],
        [12, 35, 13, 0, 122, 3, 16],
        [505, 539, 505, 18, 3044, 77, 0],
        [39, 51, 44, 26, 168, 3, 45],
        [39, 51, 44, 26, 168, 3, 45],
        [229, 218, 229, 17, 1271, 34, 0],
        [29, 41, 32, 13, 142, 3, 36],
        [29, 41, 32, 13, 142, 3, 36],
    ];
    let before_box_count = [
        [290, 291, 290, 18, 1689, 45, 0],
        [27, 40, 30, 14, 179, 3, 34],
        [27, 40, 30, 14, 179, 3, 34],
        [17, 20, 17, 15, 109, 3, 0],
        [11, 35, 12, 0, 141, 3, 16],
        [11, 35, 12, 0, 141, 3, 16],
        [505, 539, 505, 18, 3044, 77, 0],
        [39, 51, 44, 26, 217, 3, 45],
        [39, 51, 44, 26, 217, 3, 45],
        [229, 218, 229, 17, 1271, 34, 0],
        [23, 41, 26, 13, 175, 3, 30],
        [23, 41, 26, 13, 175, 3, 30],
    ];
    let pinned = [
        [290, 291, 290, 18, 1689, 45, 0],
        [27, 40, 30, 14, 233, 3, 34],
        [27, 40, 30, 14, 233, 3, 34],
        [17, 20, 17, 15, 109, 3, 0],
        [11, 35, 12, 0, 185, 3, 16],
        [11, 35, 12, 0, 185, 3, 16],
        [505, 539, 505, 18, 3044, 77, 0],
        [39, 51, 44, 26, 297, 3, 45],
        [39, 51, 44, 26, 297, 3, 45],
        [229, 218, 229, 17, 1271, 34, 0],
        [23, 41, 26, 13, 240, 3, 30],
        [23, 41, 26, 13, 240, 3, 30],
    ];
    let rows =
        [&before_settle, &before_unread, &reference, &before_scan_gate, &before_box_count, &pinned];
    windowed_algorithms_equal_naive("cell", data.generate().collect(), rows);
}

/// `L2` with every hook but the window one, the shape of a wrapper that
/// times or counts the engine's calls: its windowed profiles come from the
/// provided default, which returns the full profile.
struct FullProfileL2;

impl Metric<2> for FullProfileL2 {
    fn name(&self) -> &'static str {
        "full-profile-l2"
    }
    fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        L2.dist(a, b)
    }
    fn dist_sq(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        L2.dist_sq(a, b)
    }
    fn min_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        L2.min_box_dist_sq(a, b)
    }
    fn max_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        L2.max_box_dist_sq(a, b)
    }
    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<2>,
        b: &FuzzyObject<2>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        L2.alpha_distance_sq_bounded(a, b, t, upper_bound_sq)
    }
    fn distance_profile(&self, a: &FuzzyObject<2>, q: &FuzzyObject<2>) -> DistanceProfile {
        L2.distance_profile(a, q)
    }
}

/// A metric that implements no window hook gets full profiles through the
/// provided default, and RKNN under it answers and costs exactly what it
/// does under `L2`'s windowed sweep: every algorithm (Naive first, then
/// the paper's three), on every window range, item for item, interval bit
/// for interval bit, counter for counter.
#[test]
fn rknn_under_a_metric_without_a_window_hook_is_unchanged() {
    let (store, q) = dataset(23, 200, 20);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
    let engine = QueryEngine::new(&tree, &store);
    let aknn = AknnConfig::lb_lp_ub();
    let mut scratch = QueryScratch::new();
    for (lo, hi) in window_ranges(&q) {
        for algo in [RknnAlgorithm::Naive].into_iter().chain(RknnAlgorithm::paper_variants()) {
            let windowed =
                engine.rknn_with_scratch_in(&L2, &q, 4, lo, hi, algo, &aknn, &mut scratch).unwrap();
            let full = engine
                .rknn_with_scratch_in(&FullProfileL2, &q, 4, lo, hi, algo, &aknn, &mut scratch)
                .unwrap();
            let what = format!("{} on [{lo}, {hi}]", algo.name());
            assert!(!windowed.items.is_empty(), "{what}: empty answer");
            assert_eq!(rknn_bits(&full), rknn_bits(&windowed), "{what}: answer moved");
            assert_eq!(counters(&full.stats), counters(&windowed.stats), "{what}: counters moved");
        }
    }
}

/// Who hands the window its top: RSS passes step 1's exact squared distance
/// for each neighbour it still has to profile — also for one the lazy-probe
/// search confirmed by its bounds alone and only RSS itself read — and
/// for each kept outsider step 1 evaluated exactly, and nothing for the
/// other outsiders it kept; a settled neighbour and a dropped outsider get
/// no window; Basic passes nothing at all; Naive never asks for a window.
#[test]
fn rknn_rss_hands_step_one_distances_to_the_window() {
    let (store, q) = dataset(31, 300, 25);
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
    let engine = QueryEngine::new(&tree, &store);
    let cfg = AknnConfig::lb_lp_ub();
    let (k, lo, hi) = (6usize, 0.3, 0.7);
    let metric = RecordingL2::default();
    let mut scratch = QueryScratch::new();
    let mut run = |algo| {
        metric.take();
        let res =
            engine.rknn_with_scratch_in(&metric, &q, k, lo, hi, algo, &cfg, &mut scratch).unwrap();
        (res, metric.take())
    };

    let (naive, (kernel, windows)) = run(RknnAlgorithm::Naive);
    assert!(kernel.is_empty() && windows.is_empty(), "Naive profiles the full range");

    // Step 1 as RSS runs it: whoever comes back `Bounded` was never probed
    // by the search itself.
    let lazy = engine.aknn(&q, k, hi, &cfg).unwrap();
    let unprobed: Vec<ObjectId> = lazy
        .neighbors
        .iter()
        .filter(|n| matches!(n.dist, DistBound::Bounded { .. }))
        .map(|n| n.id)
        .collect();
    let step1 = engine.aknn_exact(&q, k, hi, &cfg).unwrap();

    for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
        let (res, log) = run(algo);
        let what = algo.name();
        assert_eq!(rknn_bits(&res), rknn_bits(&naive), "{what}");
        let (settle, _) =
            assert_settle_accounting(&store, &q, (k, lo, hi), (&step1, &lazy), &res, &log, what);
        assert!(
            unprobed.iter().any(|id| settle.profiled.contains(id)),
            "{what}: no bound-confirmed neighbour was left to profile: pick another dataset"
        );
        assert!(!settle.settled.is_empty() && !settle.dropped.is_empty(), "{what}: {settle:?}");
    }

    let (basic, (_, windows)) = run(RknnAlgorithm::Basic);
    assert_eq!(rknn_bits(&basic), rknn_bits(&naive));
    assert!(!windows.is_empty() && windows.iter().all(|w| (w.1, w.2, w.3) == (lo, hi, None)));
}

/// An object on the x axis whose distance to a query at the origin is
/// `near` up to probability `m` and `far` above it (`near == far`: constant).
fn stepped(id: u64, near: f64, far: f64, m: f64) -> FuzzyObject<2> {
    FuzzyObject::new(ObjectId(id), vec![Point::xy(far, 0.0), Point::xy(near, 0.0)], vec![1.0, m])
        .unwrap()
}

/// The query of the settle rule's edge cases: one point at the origin.
fn origin() -> FuzzyObject<2> {
    FuzzyObject::new(ObjectId(u64::MAX), vec![Point::xy(0.0, 0.0)], vec![1.0]).unwrap()
}

/// The settle rule's edge cases around [`origin`]: a tag, the objects and
/// the ks to run.
fn edge_fixtures() -> [(&'static str, Vec<FuzzyObject<2>>, Vec<usize>); 4] {
    // k = 3 over [0.3, 0.7]; step 1 returns {1, 4, 5} with r = 3.
    let ties = |scale: f64| -> Vec<FuzzyObject<2>> {
        let at = |id, near: f64, far: f64, m| stepped(id, near * scale, far * scale, m);
        vec![
            at(1, 1.0, 1.0, 1.0), // always in: the one neighbour that may settle
            // An outsider whose d_αs equals r, and the neighbours' d_αe,
            // exactly, with the smaller id: it takes 5's slot up to 0.5.
            at(2, 3.0, 6.0, 0.5),
            // One object under three ids: 4 beats the k-th neighbour's
            // tie-break, 5 is the k-th neighbour, 6 loses to it everywhere.
            at(4, 3.0, 3.0, 1.0),
            at(5, 3.0, 3.0, 1.0),
            at(6, 3.0, 3.0, 1.0),
            // The same tie from the other side of the id order: never in.
            at(7, 3.0, 6.0, 0.5),
            // Within r only below αs: a candidate by its support box, beyond
            // r on the whole window, so the settle step drops it.
            at(8, 2.0, 5.0, 0.1),
            // d_αs strictly inside r: kept, and it holds 4 and 5 unsettled.
            at(9, 2.5, 7.0, 0.4),
            at(10, 40.0, 40.0, 1.0), // never a candidate
        ]
    };
    // r = 0: four objects touch the query at every level, and 1 touches it
    // up to 0.5 only — an outsider at α_e that owns a slot below. Dropping
    // at r = 0 would lose it (no pair is strictly closer than 0).
    let dense = vec![
        stepped(1, 0.0, 2.0, 0.5),
        stepped(3, 0.0, 0.0, 1.0),
        stepped(4, 0.0, 0.0, 1.0),
        stepped(5, 0.0, 0.0, 1.0),
        stepped(6, 0.0, 0.0, 1.0),
        stepped(7, 0.0, 1.0, 0.6),
    ];
    [
        ("ties", ties(1.0), vec![1, 2, 3, 4]),
        // The same at 1e-160: squared distances are subnormal, the radius'
        // inflation is lost and the guard must see that.
        ("ties, subnormal squares", ties(1e-160), vec![1, 2, 3, 4]),
        ("dense, r = 0", dense, vec![1, 2, 3, 4]),
        // k = n: r is finite and everything settles; k > n: r = ∞.
        ("k >= n", ties(1.0), vec![9, 10, 50]),
    ]
}

/// The windows the edge cases run on.
const EDGE_WINDOWS: [(f64, f64); 4] = [(0.3, 0.7), (0.5, 0.7), (0.3, 0.5), (0.05, 1.0)];

/// Where the settle rule is at its edge, RSS and RSS-ICR still answer what
/// Naive answers, interval bit for interval bit, under both lower bounds.
/// Every distance here is exact in `f64`, so every tie is a tie of bits.
#[test]
fn rknn_settle_rule_at_its_edges_equals_naive() {
    let origin = origin();
    for (tag, objects, ks) in edge_fixtures() {
        let store = MemStore::from_objects(objects).unwrap();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 4 });
        let engine = QueryEngine::new(&tree, &store);
        for k in ks {
            for (lo, hi) in EDGE_WINDOWS {
                for cfg in [AknnConfig::basic(), AknnConfig::lb_lp_ub()] {
                    let naive =
                        engine.rknn(&origin, k, lo, hi, RknnAlgorithm::Naive, &cfg).unwrap();
                    for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
                        let got = engine.rknn(&origin, k, lo, hi, algo, &cfg).unwrap();
                        assert_eq!(
                            rknn_bits(&got),
                            rknn_bits(&naive),
                            "{tag}: k {k} [{lo}, {hi}] {} ({})",
                            algo.name(),
                            cfg.variant_name()
                        );
                    }
                }
            }
        }
    }
}

/// The tie guard holds for the scan gate too: at `r = 0`, at `r = ∞` and
/// when `r²` is subnormal no entry is gated, and the candidates are every
/// live entry whose bound box at `αs` lies within `r_sq` of the query's cut
/// box — the box test's set, as before the gate.
#[test]
fn rknn_scan_gate_gates_nothing_under_the_tie_guard() {
    let origin = origin();
    let mut seen = [false; 3];
    for (tag, objects, ks) in edge_fixtures() {
        let store = MemStore::from_objects(objects).unwrap();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 4 });
        let engine = QueryEngine::new(&tree, &store);
        for k in ks {
            for (lo, hi) in EDGE_WINDOWS {
                let at_hi = oracle_distances(&store, &origin, Threshold::at(hi));
                let r = at_hi.get(k - 1).map_or(f64::INFINITY, |&(d, _)| d);
                let r_sq = r * r * (1.0 + 4.0 * f64::EPSILON);
                if r_sq.sqrt() > r {
                    continue;
                }
                seen[0] |= r == 0.0;
                seen[1] |= r == f64::INFINITY;
                seen[2] |= r > 0.0 && r.is_finite();
                let t = Threshold::at(lo);
                let q_cut = origin.cut_mbr(t).unwrap();
                for cfg in [AknnConfig::basic(), AknnConfig::lb_lp_ub()] {
                    let boxed = store
                        .summaries()
                        .iter()
                        .map(|s| match cfg.improved_lower_bound {
                            true => s.approx_cut_mbr(t),
                            false => s.support_mbr,
                        })
                        .filter(|b| L2.min_box_dist_sq(b, &q_cut) <= r_sq)
                        .count() as u64;
                    for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
                        let got = engine.rknn(&origin, k, lo, hi, algo, &cfg).unwrap();
                        let what = format!("{tag}: k {k} [{lo}, {hi}] {}", algo.name());
                        assert_eq!(got.stats.prunes.scan_gate, 0, "{what}");
                        assert_eq!(got.stats.candidates, boxed, "{what}");
                    }
                }
            }
        }
    }
    assert_eq!(seen, [true; 3], "r = 0, r = ∞ and a subnormal r² each seen");
}

/// The scan gate's box-corner case: the object `corner` at `(9, 1)` lies
/// inside the box of the query's cut `{(0, 0), (10, 10)}` — its box lower
/// bound is 0 — but about 9.06 from both cut points, while the two
/// neighbours lie at 1 (`r = 1`). A low-membership query point at
/// `(9, 1.5)` is in the query's support, 0.5 from `corner`, and in no cut at
/// or above 0.1. Over `[0.3, 0.7]` RSS and RSS-ICR never read `corner` —
/// step 1 gates its probe and the range scan gates its entry — and answer
/// Naive's answer; over `[0.05, 0.7]` the point is in the `αs` cut, so
/// `corner` is a candidate, read once, and a member up to 0.1. In memory
/// and from an index file alike.
#[test]
fn rknn_scan_gate_skips_a_box_corner_object_unread() {
    let crisp =
        |id, x, y| FuzzyObject::new(ObjectId(id), vec![Point::xy(x, y)], vec![1.0]).unwrap();
    let corner = ObjectId(3);
    let objects = vec![crisp(1, 0.0, -1.0), crisp(2, 10.0, 11.0), crisp(3, 9.0, 1.0)];
    let q = FuzzyObject::new(
        ObjectId(9),
        vec![Point::xy(0.0, 0.0), Point::xy(10.0, 10.0), Point::xy(9.0, 1.5)],
        vec![1.0, 1.0, 0.1],
    )
    .unwrap();
    let store = CountingStore::new(MemStore::from_objects(objects).unwrap(), Duration::ZERO);
    let config = RTreeConfig { max_entries: 4 };
    let tree = RTree::bulk_load(store.summaries().to_vec(), config);
    let path = std::env::temp_dir().join(format!("fz-scan-gate-{}.fzpt", std::process::id()));
    let paged =
        fuzzy_index::PagedRTree::bulk_write(store.summaries().to_vec(), config, &path, 4096)
            .unwrap();
    let cfg = AknnConfig::lb_lp_ub();
    let in_memory = |lo, hi, algo| QueryEngine::new(&tree, &store).rknn(&q, 2, lo, hi, algo, &cfg);
    let from_file = |lo, hi, algo| QueryEngine::new(&paged, &store).rknn(&q, 2, lo, hi, algo, &cfg);
    let naive = |lo, hi| in_memory(lo, hi, RknnAlgorithm::Naive).unwrap();
    let (gated, kept) = (naive(0.3, 0.7), naive(0.05, 0.7));
    assert!(!gated.items.iter().any(|i| i.id == corner));
    assert!(kept.items.iter().any(|i| i.id == corner), "corner is a member below 0.1");
    store.take();
    let run = |paged: bool, lo, hi, algo| {
        let res = if paged { from_file(lo, hi, algo) } else { in_memory(lo, hi, algo) };
        res.unwrap()
    };
    for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
        for paged in [false, true] {
            let what = format!("{} (paged: {paged})", algo.name());
            let res = run(paged, 0.3, 0.7, algo);
            let read = store.take_ids();
            assert_eq!(rknn_bits(&res), rknn_bits(&gated), "{what}");
            assert!(!read.contains(&corner), "{what}: corner was read: {read:?}");
            assert_eq!(res.stats.object_accesses, read.len() as u64, "{what}");
            assert_eq!(res.stats.candidates, 2, "{what}");
            assert_eq!((res.stats.prunes.probe_gate, res.stats.prunes.scan_gate), (1, 1), "{what}");

            let res = run(paged, 0.05, 0.7, algo);
            let read = store.take_ids();
            assert_eq!(rknn_bits(&res), rknn_bits(&kept), "{what}");
            assert_eq!(read.iter().filter(|&&id| id == corner).count(), 1, "{what}: {read:?}");
            assert_eq!((res.stats.candidates, res.stats.prunes.scan_gate), (3, 0), "{what}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}
