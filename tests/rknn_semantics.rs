//! RKNN result semantics against a brute-force oracle (Definition 5):
//! every reported item must genuinely be a k-nearest neighbour at the
//! probabilities inside each of its qualifying sub-ranges — and nowhere
//! outside them — on the §6.1 synthetic workload.

use fuzzy_knn::core::distance::alpha_distance_brute;
use fuzzy_knn::prelude::*;
use fuzzy_knn::query::Interval;

fn small_synthetic() -> SyntheticConfig {
    SyntheticConfig {
        num_objects: 50,
        points_per_object: 50,
        seed: 0xBEE5,
        ..SyntheticConfig::default()
    }
}

/// The k-th smallest exact α-distance over the whole dataset.
fn kth_distance(store: &MemStore<2>, q: &FuzzyObject2, t: Threshold, k: usize) -> f64 {
    let mut all: Vec<f64> = store
        .summaries()
        .iter()
        .map(|s| alpha_distance_brute(&store.probe(s.id).unwrap(), q, t).unwrap())
        .collect();
    all.sort_by(f64::total_cmp);
    all[k - 1]
}

/// Probability samples inside one qualifying interval: both endpoints
/// (nudged inward when the endpoint is open) and the midpoint.
fn samples_inside(iv: &Interval) -> Vec<f64> {
    let nudge = 1e-7 * (iv.hi - iv.lo).max(1e-3);
    let lo = if iv.lo_closed { iv.lo } else { iv.lo + nudge };
    let hi = if iv.hi_closed { iv.hi } else { iv.hi - nudge };
    if lo > hi {
        return vec![(iv.lo + iv.hi) / 2.0];
    }
    vec![lo, (lo + hi) / 2.0, hi]
}

#[test]
fn every_item_is_a_knn_inside_each_reported_subrange() {
    let gen = small_synthetic();
    let store = MemStore::from_objects(gen.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8 });
    let engine = QueryEngine::new(&tree, &store);

    for (k, lo, hi) in [(3usize, 0.25, 0.65), (6, 0.1, 0.95), (1, 0.5, 0.5)] {
        let q = gen.query_object(k as u64);
        for algo in RknnAlgorithm::paper_variants() {
            let res = engine.rknn(&q, k, lo, hi, algo, &AknnConfig::lb_lp_ub()).unwrap();
            assert!(!res.items.is_empty(), "k {k} [{lo},{hi}] {}: empty result", algo.name());
            for item in &res.items {
                assert!(
                    !item.range.is_empty(),
                    "{}: item {} with empty range",
                    algo.name(),
                    item.id
                );
                let obj = store.probe(item.id).unwrap();
                for iv in item.range.intervals() {
                    // Qualifying ranges must stay inside the query range.
                    assert!(
                        iv.lo >= lo - 1e-9 && iv.hi <= hi + 1e-9,
                        "k {k} {}: range [{}, {}] of {} leaves [{lo}, {hi}]",
                        algo.name(),
                        iv.lo,
                        iv.hi,
                        item.id
                    );
                    for alpha in samples_inside(iv) {
                        let t = Threshold::at(alpha);
                        let d = alpha_distance_brute(&obj, &q, t).unwrap();
                        let kth = kth_distance(&store, &q, t, k);
                        assert!(
                            d <= kth + 1e-9,
                            "k {k} {}: {} claims kNN at α {alpha} but d {d} > k-th {kth}",
                            algo.name(),
                            item.id
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn items_do_not_qualify_outside_their_ranges() {
    // Converse direction: at a grid of probabilities across the query
    // range, the items whose range covers α must be exactly the brute-force
    // kNN set (continuous memberships make distance ties measure-zero).
    let gen = small_synthetic();
    let store = MemStore::from_objects(gen.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let q = gen.query_object(11);
    let (k, lo, hi) = (4usize, 0.2, 0.8);
    let res = engine.rknn(&q, k, lo, hi, RknnAlgorithm::RssIcr, &AknnConfig::lb_lp_ub()).unwrap();

    for step in 0..=12 {
        let alpha = lo + (hi - lo) * step as f64 / 12.0;
        let t = Threshold::at(alpha);
        let mut claimed: Vec<ObjectId> =
            res.items.iter().filter(|i| i.range.contains(alpha)).map(|i| i.id).collect();
        claimed.sort();

        let mut all: Vec<(f64, ObjectId)> = store
            .summaries()
            .iter()
            .map(|s| (alpha_distance_brute(&store.probe(s.id).unwrap(), &q, t).unwrap(), s.id))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut want: Vec<ObjectId> = all[..k].iter().map(|&(_, id)| id).collect();
        want.sort();

        assert_eq!(claimed, want, "α {alpha}: claimed kNN set diverges from oracle");
    }
}

#[test]
fn union_of_ranges_covers_the_query_range() {
    // Definition 5: at every α in [αs, αe] there are exactly k nearest
    // neighbours, so the union of all qualifying ranges must cover the
    // whole query range with total measure k · (αe − αs).
    let gen = small_synthetic();
    let store = MemStore::from_objects(gen.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let engine = QueryEngine::new(&tree, &store);
    let q = gen.query_object(5);
    let (k, lo, hi) = (3usize, 0.3, 0.9);
    let res = engine.rknn(&q, k, lo, hi, RknnAlgorithm::Rss, &AknnConfig::lb_lp_ub()).unwrap();

    let mut union = IntervalSet::empty();
    let mut total = 0.0;
    for item in &res.items {
        union = union.union(&item.range);
        total += item.range.measure();
    }
    assert!(union.contains(lo) && union.contains(hi));
    assert!((union.measure() - (hi - lo)).abs() < 1e-9, "union measure {}", union.measure());
    assert!(
        (total - k as f64 * (hi - lo)).abs() < 1e-9,
        "total qualifying measure {total} ≠ k·|range| {}",
        k as f64 * (hi - lo)
    );
}
