//! An overlay hides its tombstoned base entries behind a per-read live
//! mask over the pooled leaf page. The reference here is what a filtered
//! copy shows: the same overlay read through a wrapper that re-encodes
//! every masked leaf from its live summaries, in slot order, as a fresh
//! unmasked page. Masked and copied, every range search, AKNN answer
//! (every variant, lazy and exact) and RKNN answer must agree, with every
//! `QueryStats` counter and every bound the metric was asked for — a
//! hidden entry costs no bound evaluation and is never pushed.
//!
//! The tombstones cover the edges of the mask: a leaf with every entry
//! deleted, deletes in the first and the last slot of a leaf, and an id
//! deleted and inserted again elsewhere.

use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary, Threshold};
use fuzzy_geom::{Mbr, Point};
use fuzzy_index::{
    range_scan, DecodedNode, LeafPage, NodeAccess, NodeId, NodeRead, NodeView, OverlayRTree,
    PagedRTree, RTree, RTreeConfig,
};
use fuzzy_query::{AknnConfig, QueryEngine, QueryScratch, QueryStats, RknnAlgorithm};
use fuzzy_store::{MemStore, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fuzzy object of 12 points around `(cx, cy)`, membership falling
/// outwards; per-id jitter keeps distances tie-free.
fn blob(id: u64, cx: f64, cy: f64) -> FuzzyObject<2> {
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = vec![Point::xy(cx + rnd() * 0.1, cy + rnd() * 0.1)];
    let mut mus = vec![1.0];
    for _ in 1..12 {
        let (r, th) = (rnd() * 1.2, rnd() * std::f64::consts::TAU);
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r / 1.2) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

/// The overlay read as a filtered copy: a masked leaf becomes a new page
/// of its live entries.
struct FilteredCopy<'a>(&'a OverlayRTree<2>);

impl NodeAccess<2> for FilteredCopy<'_> {
    fn root_id(&self) -> NodeId {
        self.0.root_id()
    }

    fn root_mbr(&self) -> Mbr<2> {
        self.0.root_mbr()
    }

    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, 2>, StoreError> {
        let read = self.0.read_node(id)?;
        let live = match read.view() {
            NodeView::Entries(leaf) if leaf.len() < leaf.slots() => {
                leaf.iter().collect::<Vec<ObjectSummary<2>>>()
            }
            _ => return Ok(read),
        };
        let page = Arc::new(DecodedNode::Leaf(LeafPage::encode(&live)));
        Ok(NodeRead::from_page(page, read.disk_read))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn height(&self) -> usize {
        self.0.height()
    }
}

/// `L2`, counting the bound hooks a search calls.
#[derive(Default)]
struct CountingL2 {
    boxes: AtomicU64,
    points: AtomicU64,
}

impl CountingL2 {
    fn take(&self) -> (u64, u64) {
        (self.boxes.swap(0, Ordering::Relaxed), self.points.swap(0, Ordering::Relaxed))
    }
}

impl Metric<2> for CountingL2 {
    fn name(&self) -> &'static str {
        "counting-l2"
    }
    fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        self.points.fetch_add(1, Ordering::Relaxed);
        L2.dist(a, b)
    }
    fn dist_sq(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        self.points.fetch_add(1, Ordering::Relaxed);
        L2.dist_sq(a, b)
    }
    fn min_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        self.boxes.fetch_add(1, Ordering::Relaxed);
        L2.min_box_dist_sq(a, b)
    }
    fn max_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        self.boxes.fetch_add(1, Ordering::Relaxed);
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
}

/// Every counter but the wall time.
fn counters(s: &QueryStats) -> Vec<u64> {
    s.counters().map(|(_, value)| value).collect()
}

/// Every leaf of `base`, depth first from the root, with its ids in slot
/// order.
fn leaves(base: &PagedRTree<2>) -> Vec<(NodeId, Vec<u64>)> {
    let (mut out, mut stack) = (Vec::new(), vec![base.root_id()]);
    while let Some(id) = stack.pop() {
        match base.read_node(id).unwrap().view() {
            NodeView::Nodes(children) => stack.extend(children.iter().map(|c| c.id)),
            NodeView::Entries(leaf) => out.push((id, leaf.ids().map(|id| id.0).collect())),
        }
    }
    out
}

/// What every query kind returns over `index`, one line per query:
/// answer, counters and the bound calls the metric saw. The base's pool is
/// cleared before each query, so disk reads compare too.
fn outcomes<A: NodeAccess<2>>(index: &A, base: &PagedRTree<2>, store: &MemStore<2>) -> Vec<String> {
    let metric = CountingL2::default();
    let engine = QueryEngine::new(index, store);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let queries = [blob(9001, 3.0, 3.0), blob(9002, 10.5, 7.5), blob(9003, -4.0, 20.0)];
    for (qi, q) in queries.iter().enumerate() {
        let q_cut = q.cut_mbr(Threshold::at(0.5)).unwrap();
        for radius in [0.0, 2.0, 6.0, 100.0] {
            base.clear_cache();
            let mut hits: Vec<(u64, u64)> = Vec::new();
            let cost = range_scan(
                index,
                radius,
                |m| m.min_dist_sq(&q_cut),
                |leaf| {
                    for e in leaf.iter() {
                        let score = e.support_mbr.min_dist_sq(&q_cut);
                        if score <= radius {
                            hits.push((e.id.0, score.to_bits()));
                        }
                    }
                },
            )
            .unwrap();
            out.push(format!("query {qi} range {radius}: {hits:?} {cost:?}"));
        }
        for cfg in AknnConfig::paper_variants() {
            let name = cfg.variant_name();
            for (k, alpha) in [(1, 0.5), (5, 0.3), (12, 0.8), (40, 1.0)] {
                base.clear_cache();
                let t = Threshold::at(alpha);
                let lazy = engine.aknn_at_with_scratch_in(&metric, q, k, t, &cfg, &mut scratch);
                let lazy = lazy.unwrap();
                let bounds = metric.take();
                base.clear_cache();
                let exact =
                    engine.aknn_exact_with_scratch_in(&metric, q, k, alpha, &cfg, &mut scratch);
                let exact = exact.unwrap();
                for (form, r, bounds) in [("lazy", lazy, bounds), ("exact", exact, metric.take())] {
                    let answer: Vec<_> = r.neighbors.iter().map(|n| (n.id.0, n.dist)).collect();
                    let stats = counters(&r.stats);
                    out.push(format!(
                        "query {qi} {name} {form} k {k} α {alpha}: {answer:?} {stats:?} {bounds:?}"
                    ));
                }
            }
        }
        for algo in [RknnAlgorithm::Basic, RknnAlgorithm::Rss, RknnAlgorithm::RssIcr] {
            base.clear_cache();
            let cfg = AknnConfig::default();
            let r = engine.rknn_with_scratch_in(&metric, q, 4, 0.3, 0.7, algo, &cfg, &mut scratch);
            let r = r.unwrap();
            let (items, stats, bounds) = (&r.items, counters(&r.stats), metric.take());
            out.push(format!("query {qi} {}: {items:?} {stats:?} {bounds:?}", algo.name()));
        }
    }
    out
}

#[test]
fn an_overlay_mask_answers_as_the_filtered_copy_did() {
    // 200 objects on a 20 × 10 grid, 8 to a leaf.
    let centre = |id: u64| ((id % 20) as f64 * 1.5, (id / 20) as f64 * 1.5);
    let objects: Vec<FuzzyObject<2>> = (0..200)
        .map(|id| {
            let (x, y) = centre(id);
            blob(id, x, y)
        })
        .collect();
    let summaries: Vec<ObjectSummary<2>> = objects.iter().map(ObjectSummary::from_object).collect();
    let cfg = RTreeConfig { max_entries: 8 };
    let path = std::env::temp_dir().join(format!("fz-overlay-mask-{}.fzpt", std::process::id()));
    let file = PagedRTree::bulk_write(summaries.clone(), cfg, &path, 4096).unwrap();
    let image = RTree::bulk_load(summaries, cfg);

    for (base, what) in [(file, "file"), (image, "image")] {
        let base = Arc::new(base);
        let mut overlay = OverlayRTree::new(Arc::clone(&base)).unwrap();
        let mut stored = objects.clone();
        // Every entry of one leaf; the first and the last slot of two others.
        let leaves = leaves(&base);
        let ((emptied, whole), (ends, three), (_, seven)) =
            (leaves[0].clone(), leaves[3].clone(), leaves[7].clone());
        let edges = [three[0], three[three.len() - 1], seven[0], seven[seven.len() - 1]];
        for &id in whole.iter().chain(&edges) {
            assert!(overlay.delete(ObjectId(id)), "{what}: delete {id}");
        }
        // Deleted, then inserted again far from where the base holds it;
        // and one deleted id of the emptied leaf inserted back in place.
        let moved = blob(edges[2], 25.0, 12.0);
        assert!(overlay.insert(ObjectSummary::from_object(&moved)));
        stored[edges[2] as usize] = moved;
        let back = whole[whole.len() / 2];
        assert!(overlay.insert(ObjectSummary::from_object(&objects[back as usize])));
        // A fresh object beside the rest.
        let fresh = blob(500, 9.0, 4.5);
        assert!(overlay.insert(ObjectSummary::from_object(&fresh)));
        stored.push(fresh);

        // The mask hides exactly the tombstoned slots of a read.
        let read = overlay.read_node(emptied).unwrap();
        let NodeView::Entries(leaf) = read.view() else { panic!("a leaf") };
        assert_eq!((leaf.len(), leaf.slots()), (0, whole.len()), "{what}: a leaf all hidden");
        assert!(leaf.iter().next().is_none() && leaf.is_empty());
        let read = overlay.read_node(ends).unwrap();
        let NodeView::Entries(leaf) = read.view() else { panic!("a leaf") };
        let shown: Vec<u64> = leaf.iter().map(|e| e.id.0).collect();
        assert_eq!(shown, three[1..three.len() - 1], "{what}: a leaf loses its ends");
        assert!(!leaf.is_live(0) && !leaf.is_live(leaf.slots() - 1) && leaf.is_live(1));
        drop(read);

        let store = MemStore::from_objects(stored).unwrap();
        let masked = outcomes(&overlay, &base, &store);
        let copied = outcomes(&FilteredCopy(&overlay), &base, &store);
        assert_eq!(masked.len(), copied.len());
        for (m, c) in masked.iter().zip(&copied) {
            assert_eq!(m, c, "{what}: masked vs copied");
        }
    }
    std::fs::remove_file(&path).unwrap();
}
