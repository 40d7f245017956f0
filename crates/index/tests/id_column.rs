//! The sorted id column of an index file against the leaves it lists: for
//! random inputs (n from 0 to 2 000, node capacities 2–64, D = 2 and 3),
//! every file that `PagedRTree::bulk_write`, `OverlayRTree::compact` and
//! `RTree::bulk_load` write holds exactly its leaves' ids, ascending. An
//! overlay opens from that column without reading a node page — the pool
//! has no miss until the first query — and so does a compacted file.

use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::{ConservativeLine, Mbr, Point};
use fuzzy_index::{
    leaf_entry_len, range_scan, NodeAccess, NodeView, OverlayRTree, PagedRTree, RTree, RTreeConfig,
};
use std::path::Path;

/// xorshift64: the inputs are random, and the same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `n` summaries of unit boxes at random grid cells, ids scattered over
/// the `u64` range (distinct: an odd multiplier is a bijection) and in no
/// order, starting at `first`.
fn summaries<const D: usize>(rng: &mut Rng, first: u64, n: usize) -> Vec<ObjectSummary<D>> {
    (0..n as u64)
        .map(|i| {
            let lo: [f64; D] = std::array::from_fn(|_| rng.below(50) as f64);
            let hi: [f64; D] = std::array::from_fn(|d| lo[d] + 1.0);
            ObjectSummary {
                id: ObjectId((first + i).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                support_mbr: Mbr::new(lo, hi),
                kernel_mbr: Mbr::new(lo, lo),
                upper_lines: [ConservativeLine::ZERO; D],
                lower_lines: [ConservativeLine::ZERO; D],
                rep: Point::new(lo),
                point_count: 1,
            }
        })
        .collect()
}

/// The ids the leaves of `tree` hold, ascending.
fn leaf_ids<const D: usize>(tree: &impl NodeAccess<D>) -> Vec<u64> {
    let (mut ids, mut stack) = (Vec::new(), vec![tree.root_id()]);
    while let Some(id) = stack.pop() {
        match tree.read_node(id).unwrap().view() {
            NodeView::Nodes(children) => stack.extend(children.iter().map(|c| c.id)),
            NodeView::Entries(entries) => ids.extend(entries.iter().map(|e| e.id.0)),
        }
    }
    ids.sort_unstable();
    ids
}

/// The id column of `tree` is its leaves' ids, and those are `want`.
fn column_lists<const D: usize>(tree: &PagedRTree<D>, want: &[u64], what: &str) {
    assert_eq!(&tree.stored_ids().unwrap()[..], want, "{what}: the id column");
    assert_eq!(leaf_ids(tree), want, "{what}: the leaves");
}

fn sorted_ids<const D: usize>(entries: &[ObjectSummary<D>]) -> Vec<u64> {
    let mut ids: Vec<u64> = entries.iter().map(|e| e.id.0).collect();
    ids.sort_unstable();
    ids
}

/// Open `path` as an overlay: no pool miss until a query runs.
fn open_cold<const D: usize>(path: &Path, what: &str) -> OverlayRTree<D> {
    let overlay = OverlayRTree::<D>::open_with_cache(path, 8).unwrap();
    assert_eq!(overlay.base().cache_stats().misses, 0, "{what}: opening read a node page");
    let mut everywhere = 0;
    range_scan(&overlay, f64::INFINITY, |_| 0.0, |leaf| everywhere += leaf.len()).unwrap();
    assert_eq!(everywhere, NodeAccess::len(&overlay), "{what}");
    assert!(overlay.base().cache_stats().misses > 0, "{what}: the query reads pages");
    overlay
}

fn id_column_matches_the_leaves<const D: usize>(seed: u64) {
    let path = std::env::temp_dir().join(format!("fz-id-column-{D}-{}.fzpt", std::process::id()));
    let mut rng = Rng(seed);
    for round in 0..20 {
        let n = match round {
            0 => 0,
            1 => 1,
            _ => rng.below(2_001) as usize,
        };
        let cap = 2 + rng.below(63) as usize;
        let what = format!("D {D}, n {n}, cap {cap}");
        let config = RTreeConfig { max_entries: cap };
        let page_size = (16 + cap * leaf_entry_len(D)).max(256) as u32;
        let entries = summaries::<D>(&mut rng, 0, n);
        let ids = sorted_ids(&entries);

        let image = RTree::bulk_load(entries.clone(), config);
        column_lists(&image, &ids, &format!("{what}, bulk_load"));
        let written = PagedRTree::bulk_write(entries.clone(), config, &path, page_size).unwrap();
        column_lists(&written, &ids, &format!("{what}, bulk_write"));
        drop(written);

        // Delete a fifth, insert a few new ids, and compact.
        let mut overlay = open_cold::<D>(&path, &what);
        for e in entries.iter().step_by(5) {
            assert!(overlay.delete(e.id));
        }
        for e in summaries::<D>(&mut rng, n as u64, n / 7 + 1) {
            assert!(overlay.insert(e));
        }
        let live = sorted_ids(&overlay.live_summaries().unwrap());
        let compacted = overlay.compact(page_size).unwrap();
        column_lists(&compacted, &live, &format!("{what}, compact"));
        drop(compacted);
        assert!(open_cold::<D>(&path, &format!("{what}, compacted")).is_clean());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn id_column_matches_the_leaves_in_2d() {
    id_column_matches_the_leaves::<2>(0x0001_dc01);
}

#[test]
fn id_column_matches_the_leaves_in_3d() {
    id_column_matches_the_leaves::<3>(0x0003_dc01);
}
