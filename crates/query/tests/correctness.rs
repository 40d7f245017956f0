//! Cross-algorithm correctness: every AKNN variant must agree with a
//! linear-scan oracle, and every RKNN algorithm must agree with the naive
//! (probe-everything) reference, across random datasets, ks, thresholds
//! and ranges.

use fuzzy_core::distance::alpha_distance_brute;
use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{AknnConfig, QueryEngine, QueryScratch, RknnAlgorithm};
use fuzzy_store::{IoStatsSnapshot, MemStore, ObjectStore, StoreError};
use std::sync::{Arc, Mutex};

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
        let tree = RTree::bulk_load(
            store.summaries().to_vec(),
            RTreeConfig { max_entries: 8, min_fill: 0.4 },
        );
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
    let tree = RTree::bulk_load(
        store.summaries().to_vec(),
        RTreeConfig { max_entries: 16, min_fill: 0.4 },
    );
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
        let tree = RTree::bulk_load(
            store.summaries().to_vec(),
            RTreeConfig { max_entries: 8, min_fill: 0.4 },
        );
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
    let tree = RTree::bulk_load(
        store.summaries().to_vec(),
        RTreeConfig { max_entries: 16, min_fill: 0.4 },
    );
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

/// A store that logs every probe, to count what one query reads.
struct CountingStore {
    inner: MemStore<2>,
    probed: Mutex<Vec<ObjectId>>,
}

impl ObjectStore<2> for CountingStore {
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<2>>, StoreError> {
        self.probed.lock().unwrap().push(id);
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

/// RSS / RSS-ICR read each object at most once per query: step 1's
/// neighbours are profiled from the objects its AKNN already decoded, so
/// only the remaining range candidates are probed.
#[test]
fn rss_probes_no_object_twice() {
    for seed in [31u64, 77] {
        let (inner, q) = dataset(seed, 300, 25);
        let store = CountingStore { inner, probed: Mutex::new(Vec::new()) };
        let tree = RTree::bulk_load(
            store.summaries().to_vec(),
            RTreeConfig { max_entries: 8, min_fill: 0.4 },
        );
        let engine = QueryEngine::new(&tree, &store);
        let cfg = AknnConfig::lb_lp_ub();
        let (k, lo, hi) = (6usize, 0.3, 0.7);
        let naive = engine.rknn(&q, k, lo, hi, RknnAlgorithm::Naive, &cfg).unwrap();
        let step1 = engine.aknn_exact(&q, k, hi, &cfg).unwrap();

        for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
            store.probed.lock().unwrap().clear();
            let res = engine.rknn(&q, k, lo, hi, algo, &cfg).unwrap();
            let mut probed = std::mem::take(&mut *store.probed.lock().unwrap());
            let what = algo.name();

            let reads = probed.len() as u64;
            probed.sort_unstable();
            probed.dedup();
            assert_eq!(probed.len() as u64, reads, "{what}: an object was probed twice");
            assert_eq!(res.stats.object_accesses, reads, "{what}");

            // Every step-1 neighbour lies within r of q, so the range scan
            // returns it and its decoded object is reused.
            let in_hand = step1.neighbors.len() as u64;
            assert_eq!(in_hand, k as u64);
            assert!(res.stats.candidates > in_hand, "{what}: candidate set too small to tell");
            assert_eq!(
                res.stats.object_accesses,
                step1.stats.object_accesses + res.stats.candidates - in_hand,
                "{what}"
            );
            assert_eq!(res.stats.profile_computations, res.stats.candidates, "{what}");
            assert!(res.approx_eq(&naive, 1e-9), "{what}");
        }
    }
}
