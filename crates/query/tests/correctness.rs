//! Cross-algorithm correctness: every AKNN variant must agree with a
//! linear-scan oracle, and every RKNN algorithm must agree with the naive
//! (probe-everything) reference, across random datasets, ks, thresholds
//! and ranges.

use fuzzy_core::distance::{alpha_distance_brute, alpha_distance_sq_bounded};
use fuzzy_core::metric::{GraphMetric, Metric, L2};
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, Threshold};
use fuzzy_datagen::{CellConfig, RoadConfig, SyntheticConfig};
use fuzzy_geom::{Mbr, Point};
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{
    AknnConfig, DistBound, QueryEngine, QueryScratch, QueryStats, RknnAlgorithm, RknnResult,
};
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

/// Basic, RSS and RSS-ICR on `[lo, hi]` windows against Naive on full
/// profiles — item for item, interval bit for interval bit — with every
/// candidate carrying a kd-tree of its own (a `MemStore` hands out the
/// objects it holds), and their logical counters, summed over the queries
/// per (range, algorithm), against the rows the commit before the window
/// produced with this same code.
fn windowed_algorithms_equal_naive(
    what: &str,
    objects: Vec<FuzzyObject<2>>,
    parent_counters: &[[u64; 7]; 12],
) {
    let queries: Vec<FuzzyObject<2>> = objects[..3].to_vec();
    let store = MemStore::from_objects(objects).unwrap();
    for s in store.summaries() {
        store.probe(s.id).unwrap().kd_tree();
    }
    let tree =
        RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8, min_fill: 0.4 });
    let engine = QueryEngine::new(&tree, &store);
    let cfg = AknnConfig::lb_lp_ub();
    let mut rows = Vec::new();
    for r in 0..4 {
        for algo in RknnAlgorithm::paper_variants() {
            let mut sum = [0u64; 7];
            for q in &queries {
                let (lo, hi) = window_ranges(q)[r];
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
            }
            rows.push(sum);
        }
    }
    assert_eq!(rows, parent_counters, "{what}: counters moved");
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
    let parent = [
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
    windowed_algorithms_equal_naive("synthetic", data.generate().collect(), &parent);
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
    let parent = [
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
    windowed_algorithms_equal_naive("cell", data.generate().collect(), &parent);
}

/// A metric that implements no window hook gets full profiles through the
/// provided default: RKNN under `GraphMetric` answers what it answered, and
/// costs what it cost, before the window existed (Naive first, then the
/// paper's three).
const PARENT_GRAPH_ROWS: [(u64, [u64; 7]); 4] = [
    (16206437762532795564, [60, 0, 0, 60, 0, 0, 60]),
    (2424780676033586269, [124, 3, 124, 9, 304, 3, 0]),
    (16206437762532795564, [116, 2, 60, 60, 180, 1, 60]),
    (16206437762532795564, [116, 2, 60, 60, 180, 1, 60]),
];

#[test]
fn rknn_under_a_metric_without_a_window_hook_is_unchanged() {
    let cfg = RoadConfig {
        vertices: 120,
        extra_edges: 60,
        objects: 60,
        points_per_object: 8,
        span: 50.0,
        seed: 9,
    };
    let net = Arc::new(cfg.network());
    let store = MemStore::from_objects(cfg.objects(&net)).unwrap();
    let metric = GraphMetric::new(net.clone());
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let aknn = AknnConfig::lb_lp_ub();
    let mut scratch = QueryScratch::new();
    let q = cfg.query_object(&net, 3);
    let mut run = |algo| {
        engine.rknn_with_scratch_in(&metric, &q, 4, 0.3, 0.7, algo, &aknn, &mut scratch).unwrap()
    };
    // Vertex-resident objects tie at distance 0 all the time and the
    // algorithms break ties differently, so each is held to its own answer
    // (a digest of its bits) and counters, not to Naive's.
    let rows: Vec<(u64, [u64; 7])> = [RknnAlgorithm::Naive]
        .into_iter()
        .chain(RknnAlgorithm::paper_variants())
        .map(|algo| {
            let res = run(algo);
            let digest = rknn_bits(&res).bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            });
            (digest, counters(&res.stats))
        })
        .collect();
    assert_eq!(rows, PARENT_GRAPH_ROWS, "answers or counters moved");
}

/// `L2`, logging what each windowed profile was handed.
struct RecordingL2 {
    windows: Mutex<Vec<Window>>,
}

/// One `distance_profile_window` call: candidate, `[lo, hi]`, `top_sq`.
type Window = (ObjectId, f64, f64, Option<f64>);

impl Metric<2> for RecordingL2 {
    fn name(&self) -> &'static str {
        "recording-l2"
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
    fn distance_profile_window(
        &self,
        a: &FuzzyObject<2>,
        q: &FuzzyObject<2>,
        lo: f64,
        hi: f64,
        top_sq: Option<f64>,
    ) -> DistanceProfile {
        self.windows.lock().unwrap().push((a.id(), lo, hi, top_sq));
        L2.distance_profile_window(a, q, lo, hi, top_sq)
    }
}

/// Who hands the window its top: RSS passes step 1's exact squared distance
/// for each of its `k` neighbours — also for one the lazy-probe search
/// confirmed by its bounds alone and only the exact tail probed — and
/// nothing for the candidates step 2 adds; Basic passes nothing at all;
/// Naive never asks for a window.
#[test]
fn rknn_rss_hands_step_one_distances_to_the_window() {
    let (store, q) = dataset(31, 300, 25);
    let tree =
        RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8, min_fill: 0.4 });
    let engine = QueryEngine::new(&tree, &store);
    let cfg = AknnConfig::lb_lp_ub();
    let (k, lo, hi) = (6usize, 0.3, 0.7);
    let metric = RecordingL2 { windows: Mutex::new(Vec::new()) };
    let mut scratch = QueryScratch::new();
    let mut run = |algo| {
        metric.windows.lock().unwrap().clear();
        let res =
            engine.rknn_with_scratch_in(&metric, &q, k, lo, hi, algo, &cfg, &mut scratch).unwrap();
        (res, std::mem::take(&mut *metric.windows.lock().unwrap()))
    };

    let (naive, windows) = run(RknnAlgorithm::Naive);
    assert!(windows.is_empty(), "Naive profiles the full range");

    // Step 1 as RSS runs it, without the exact tail: whoever comes back
    // `Bounded` was never probed by the search itself.
    let lazy = engine.aknn(&q, k, hi, &cfg).unwrap();
    let unprobed: Vec<ObjectId> = lazy
        .neighbors
        .iter()
        .filter(|n| matches!(n.dist, DistBound::Bounded { .. }))
        .map(|n| n.id)
        .collect();
    assert!(!unprobed.is_empty(), "no neighbour was confirmed by bounds: pick another dataset");

    for algo in [RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
        let (res, windows) = run(algo);
        assert_eq!(rknn_bits(&res), rknn_bits(&naive), "{}", algo.name());
        assert_eq!(windows.len() as u64, res.stats.candidates);
        for &(id, w_lo, w_hi, top_sq) in &windows {
            assert_eq!((w_lo, w_hi), (lo, hi));
            let step_one = lazy.neighbors.iter().any(|n| n.id == id);
            let exact = alpha_distance_sq_bounded(
                &store.probe(id).unwrap(),
                &q,
                Threshold::at(hi),
                f64::INFINITY,
            );
            let want = if step_one { exact } else { None };
            assert_eq!(top_sq.map(f64::to_bits), want.map(f64::to_bits), "{} {id}", algo.name());
        }
        for id in &unprobed {
            assert!(windows.iter().any(|w| w.0 == *id), "{id} is a candidate");
        }
    }

    let (basic, windows) = run(RknnAlgorithm::Basic);
    assert_eq!(rknn_bits(&basic), rknn_bits(&naive));
    assert!(!windows.is_empty() && windows.iter().all(|w| (w.1, w.2, w.3) == (lo, hi, None)));
}
