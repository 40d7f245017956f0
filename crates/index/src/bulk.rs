//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs entries into fully filled leaves by recursively slicing the
//! space into slabs along each dimension, then builds the upper levels by
//! re-packing node rectangles the same way. It yields near-optimal space
//! utilisation and is how the experiment datasets are indexed.
//!
//! The packing sorts keys, not summaries: every slab sorts `(centre key,
//! slot, entry)` triples, the stable sort by centre that STR asks for. It
//! numbers nodes as pages are numbered — leaves in group order, then each
//! upper level, the root last. The index writer encodes pages straight
//! from it, to a file ([`crate::PagedRTree::bulk_write`]) or to an
//! in-memory image ([`RTree::bulk_load`]).

use crate::access::ChildRef;
use crate::node::{NodeId, RTree, RTreeConfig};
use crate::paged::image_page_size;
use fuzzy_core::ObjectSummary;
use fuzzy_geom::Mbr;
use std::ops::Range;

impl<const D: usize> RTree<D> {
    /// Build an in-memory tree containing `entries` using STR packing: the
    /// index file [`crate::PagedRTree::bulk_write`] would write, at the
    /// smallest page size (a multiple of 8, at least 256 bytes) that fits
    /// the largest node, written into an image and opened from it.
    ///
    /// # Panics
    ///
    /// When `config.max_entries` is below 2: a level of one-entry nodes
    /// would never shrink to a root.
    ///
    /// ```
    /// use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
    /// use fuzzy_geom::Point;
    /// use fuzzy_index::{NodeAccess, RTree, RTreeConfig};
    ///
    /// // Summaries of 100 small fuzzy objects on a 10×10 grid.
    /// let summaries: Vec<ObjectSummary<2>> = (0..100)
    ///     .map(|i| {
    ///         let (x, y) = ((i % 10) as f64, (i / 10) as f64);
    ///         let obj = FuzzyObject::new(
    ///             ObjectId(i),
    ///             vec![Point::xy(x, y), Point::xy(x + 0.4, y + 0.4)],
    ///             vec![1.0, 0.5],
    ///         )
    ///         .unwrap();
    ///         ObjectSummary::from_object(&obj)
    ///     })
    ///     .collect();
    ///
    /// let tree = RTree::bulk_load(summaries, RTreeConfig { max_entries: 16 });
    /// assert_eq!(tree.len(), 100);
    /// assert!(tree.height() >= 2); // 100 entries cannot fit one 16-entry leaf
    /// assert!(!tree.read_node(tree.root_id()).unwrap().disk_read); // an image
    /// ```
    pub fn bulk_load(entries: Vec<ObjectSummary<D>>, config: RTreeConfig) -> Self {
        assert!(
            config.max_entries >= 2,
            "STR packing needs a node capacity of at least 2, got {}",
            config.max_entries
        );
        let page_size = image_page_size::<D>(config.max_entries);
        let mut image = Vec::new();
        Self::write(&entries, config, || Ok(&mut image), page_size).expect("a node fits its page");
        drop(entries);
        Self::from_image(image).expect("a written image opens")
    }
}

/// The shape of an STR-packed tree. Node ids are leaves first, in group
/// order, then each upper level; the root is last. An empty input packs
/// into one empty leaf.
#[derive(Clone, Debug)]
pub(crate) struct StrPacking<const D: usize> {
    /// Where each leaf's run of the packed order ends.
    leaf_ends: Vec<usize>,
    /// The children of internal node `leaf count + i`, in entry order.
    pub(crate) internal: Vec<Vec<ChildRef<D>>>,
    /// Every node's MBR, by node id.
    pub(crate) mbrs: Vec<Mbr<D>>,
    /// Levels in the tree: 1 when the root is a leaf.
    pub(crate) height: usize,
}

impl<const D: usize> StrPacking<D> {
    /// Pack `entries` into nodes of at most `cap` (≥ 2) entries each: the
    /// entry indices in leaf order, and the tree's shape.
    pub(crate) fn new(entries: &[ObjectSummary<D>], cap: usize) -> (Vec<u32>, Self) {
        debug_assert!(cap >= 2, "a level of one-entry nodes never shrinks");
        let (order, mut leaf_ends) = str_groups(entries.iter().map(|s| &s.support_mbr), cap);
        if leaf_ends.is_empty() {
            leaf_ends.push(0);
        }
        let mut shape = Self { leaf_ends, internal: Vec::new(), mbrs: Vec::new(), height: 1 };
        shape.mbrs = shape
            .leaves()
            .map(|leaf| union(order[leaf].iter().map(|&i| &entries[i as usize].support_mbr)))
            .collect();

        // Pack upper levels until a single root remains.
        let mut level: Vec<ChildRef<D>> = (shape.mbrs.iter().enumerate())
            .map(|(i, &mbr)| ChildRef { id: NodeId(i as u32), mbr })
            .collect();
        while level.len() > 1 {
            let (grouped, ends) = str_groups(level.iter().map(|c| &c.mbr), cap);
            let mut start = 0;
            level = ends
                .into_iter()
                .map(|end| {
                    let children: Vec<ChildRef<D>> =
                        grouped[start..end].iter().map(|&i| level[i as usize]).collect();
                    start = end;
                    let id = NodeId(shape.mbrs.len() as u32);
                    let parent = ChildRef { id, mbr: union(children.iter().map(|c| &c.mbr)) };
                    shape.mbrs.push(parent.mbr);
                    shape.internal.push(children);
                    parent
                })
                .collect();
            shape.height += 1;
        }
        (order, shape)
    }

    /// Each leaf's run of the packed order, in node-id order.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.leaf_ends.len()).map(|leaf| self.leaf(leaf))
    }

    /// Leaf `leaf`'s run of the packed order.
    pub(crate) fn leaf(&self, leaf: usize) -> Range<usize> {
        leaf.checked_sub(1).map_or(0, |before| self.leaf_ends[before])..self.leaf_ends[leaf]
    }

    /// Node `id`'s MBR.
    pub(crate) fn mbr(&self, id: NodeId) -> &Mbr<D> {
        &self.mbrs[id.0 as usize]
    }

    /// The root: the last node.
    pub(crate) fn root(&self) -> NodeId {
        NodeId(self.mbrs.len() as u32 - 1)
    }
}

/// The union of `rects`, folded in order from the empty rectangle.
fn union<'a, const D: usize>(rects: impl Iterator<Item = &'a Mbr<D>>) -> Mbr<D> {
    rects.fold(Mbr::empty(), |acc, m| acc.union(m))
}

/// STR-tile the items `rects` yields into groups of at most `cap` by their
/// centres: the item indices in group order, and where each group ends.
/// A centre coordinate becomes a key whose unsigned order is
/// [`f64::total_cmp`]'s: a set sign bit flips every bit (larger magnitudes
/// sort lower), a clear one is set (lifting the rest above).
fn str_groups<'a, const D: usize>(
    rects: impl Iterator<Item = &'a Mbr<D>>,
    cap: usize,
) -> (Vec<u32>, Vec<usize>) {
    let keys: Vec<[u64; D]> = rects
        .map(|mbr| {
            let centre = mbr.center();
            std::array::from_fn(|dim| {
                let bits = centre[dim].to_bits();
                bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
            })
        })
        .collect();
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    let mut ends = Vec::with_capacity(keys.len() / cap + 1);
    str_tile(&keys, &mut order, 0, 0, cap, &mut Vec::new(), &mut ends);
    (order, ends)
}

/// Recursive STR tiling of `order`, the run of the packed order from
/// `start`: sort by the centre's `dim` coordinate, split into
/// `ceil(P^(1/(D-dim)))` slabs (`P` = number of final groups), recurse on
/// the next dimension; the last dimension chunks sequentially. Each
/// group's end is pushed to `ends`, left to right.
fn str_tile<const D: usize>(
    keys: &[[u64; D]],
    order: &mut [u32],
    start: usize,
    dim: usize,
    cap: usize,
    slab: &mut Vec<(u64, u32, u32)>,
    ends: &mut Vec<usize>,
) {
    let n = order.len();
    if n <= cap {
        if n > 0 {
            ends.push(start + n);
        }
        return;
    }
    // A stable sort by key: equal keys keep their current slot.
    slab.clear();
    slab.extend(order.iter().enumerate().map(|(slot, &i)| (keys[i as usize][dim], slot as u32, i)));
    slab.sort_unstable();
    for (item, &(_, _, i)) in order.iter_mut().zip(slab.iter()) {
        *item = i;
    }
    if dim + 1 == D {
        ends.extend(even_partition(n, n.div_ceil(cap)).into_iter().map(|(_, end)| start + end));
        return;
    }
    let groups = n.div_ceil(cap);
    let dims_left = D - dim;
    let slabs = (groups as f64).powf(1.0 / dims_left as f64).ceil() as usize;
    for (from, to) in even_partition(n, slabs.max(1)) {
        str_tile(keys, &mut order[from..to], start + from, dim + 1, cap, slab, ends);
    }
}

/// Split `0..n` into `parts` contiguous ranges whose sizes differ by at most
/// one. Even sizing (rather than `chunks(cap)`) keeps every STR group above
/// the R-tree minimum fill — a remainder chunk of 1 would violate it.
fn even_partition(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{NodeAccess, NodeView};
    use fuzzy_core::{FuzzyObject, ObjectId};
    use fuzzy_geom::Point;

    fn grid_summaries(n: usize) -> Vec<ObjectSummary<2>> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64;
                let y = (i / 100) as f64;
                let obj = FuzzyObject::new(
                    ObjectId(i as u64),
                    vec![Point::xy(x, y), Point::xy(x + 0.5, y + 0.5)],
                    vec![1.0, 0.5],
                )
                .unwrap();
                ObjectSummary::from_object(&obj)
            })
            .collect()
    }

    /// Every entry of `tree` in leaf order, after checking the shape an STR
    /// packing promises: each page is reached from the root exactly once,
    /// every leaf sits at depth `height`, no node holds more than `cap`
    /// entries and only the root may be empty, and the rectangle a parent
    /// stores for a child is the tight union of what the child holds.
    fn checked_entries(tree: &RTree<2>, cap: usize) -> Vec<ObjectSummary<2>> {
        let mut seen = vec![false; tree.page_count()];
        let mut out = Vec::new();
        let mut stack = vec![(tree.root_id(), tree.root_mbr(), 1)];
        while let Some((id, mbr, depth)) = stack.pop() {
            assert!(!std::mem::replace(&mut seen[id.index() as usize], true), "{id:?} twice");
            let read = tree.read_node(id).unwrap();
            let (held, union) = match read.view() {
                NodeView::Entries(entries) => {
                    assert_eq!(depth, tree.height(), "leaf {id:?} off the leaf level");
                    out.extend(entries.iter());
                    let boxes: Vec<Mbr<2>> = entries.iter().map(|e| e.support_mbr).collect();
                    (entries.len(), union(boxes.iter()))
                }
                NodeView::Nodes(kids) => {
                    stack.extend(kids.iter().map(|k| (k.id, k.mbr, depth + 1)));
                    (kids.len(), union(kids.iter().map(|k| &k.mbr)))
                }
            };
            assert!(held <= cap && (held > 0 || depth == 1), "{id:?} holds {held}");
            assert_eq!(union, mbr, "{id:?}: loose or wrong rectangle");
        }
        assert!(seen.iter().all(|&s| s), "a page no parent reaches");
        assert_eq!(out.len(), tree.len());
        out
    }

    #[test]
    fn bulk_load_preserves_all_entries() {
        let summaries = grid_summaries(1000);
        let tree = RTree::bulk_load(summaries, RTreeConfig { max_entries: 16 });
        assert_eq!(tree.len(), 1000);
        let mut ids: Vec<u64> = checked_entries(&tree, 16).iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in [0usize, 1, 2, 15, 16, 17] {
            let tree = RTree::bulk_load(grid_summaries(n), RTreeConfig { max_entries: 16 });
            assert_eq!(tree.len(), n);
            assert_eq!(checked_entries(&tree, 16).len(), n);
            if n <= 16 {
                assert_eq!(tree.height(), 1, "n={n} should fit in the root leaf");
            }
        }
    }

    #[test]
    fn bulk_load_heights_are_logarithmic() {
        let tree = RTree::bulk_load(grid_summaries(5000), RTreeConfig { max_entries: 10 });
        // ceil(log_10(500 leaves)) + 1 ≈ 4; allow some slack but not a chain.
        assert!(tree.height() <= 5, "height {} too tall", tree.height());
        checked_entries(&tree, 10);
    }

    #[test]
    #[should_panic(expected = "node capacity of at least 2")]
    fn bulk_load_refuses_a_fan_out_below_two() {
        RTree::bulk_load(grid_summaries(50), RTreeConfig { max_entries: 1 });
    }

    #[test]
    fn leaves_are_spatially_coherent() {
        // STR should produce far smaller total leaf area than random
        // grouping; check against a generous bound.
        let summaries = grid_summaries(2000);
        let tree = RTree::bulk_load(summaries, RTreeConfig { max_entries: 20 });
        let leaf_count = tree.leaf_count().unwrap();
        assert_eq!(leaf_count, 100, "2000 entries in full 20-entry leaves");
        let total_area: f64 = (0..leaf_count as u32)
            .map(|i| match tree.read_node(NodeId(i)).unwrap().view() {
                NodeView::Entries(entries) => {
                    entries.iter().fold(Mbr::empty(), |acc, e| acc.union(&e.support_mbr)).area()
                }
                NodeView::Nodes(_) => panic!("page {i} is below the leaf count"),
            })
            .sum();
        // 2000 unit-ish objects in a 100x20 region -> per-leaf area should
        // be bounded by a small multiple of (region area / leaf count).
        let region_area = 100.0 * 20.0;
        assert!(
            total_area < 4.0 * region_area,
            "leaves too loose: total {total_area}, {leaf_count} leaves"
        );
    }
}
