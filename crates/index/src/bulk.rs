//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs entries into fully filled leaves by recursively slicing the
//! space into slabs along each dimension, then builds the upper levels by
//! re-packing node rectangles the same way. It yields near-optimal space
//! utilisation and is how the experiment datasets are indexed.

use crate::node::{Node, NodeId, RTree, RTreeConfig};
use fuzzy_core::ObjectSummary;
use fuzzy_geom::{Mbr, Point};

impl<const D: usize> RTree<D> {
    /// Build a tree containing `entries` using STR packing.
    ///
    /// ```
    /// use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
    /// use fuzzy_geom::Point;
    /// use fuzzy_index::{RTree, RTreeConfig};
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
    /// tree.validate().unwrap();
    /// ```
    pub fn bulk_load(mut entries: Vec<ObjectSummary<D>>, config: RTreeConfig) -> Self {
        let mut tree = RTree::new(config);
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len();
        tree.nodes.clear();

        // Pack leaves.
        let cap = config.max_entries;
        let mut leaves: Vec<NodeId> = Vec::with_capacity(entries.len() / cap + 1);
        let mut groups: Vec<Vec<ObjectSummary<D>>> = Vec::new();
        str_tile(&mut entries, 0, cap, &mut |group| groups.push(group.to_vec()));
        for group in groups {
            let mbr = group.iter().fold(Mbr::empty(), |acc, s| acc.union(&s.support_mbr));
            let id = tree.alloc(Node::Leaf { mbr, entries: group });
            leaves.push(id);
        }

        // Pack upper levels until a single root remains.
        let mut level = leaves;
        let mut height = 1;
        while level.len() > 1 {
            #[derive(Clone)]
            struct Item<const D: usize> {
                id: NodeId,
                mbr: Mbr<D>,
            }
            let mut items: Vec<Item<D>> =
                level.iter().map(|&id| Item { id, mbr: *tree.node_mbr(id) }).collect();
            let mut parent_groups: Vec<Vec<Item<D>>> = Vec::new();
            str_tile_by(&mut items, 0, cap, &|it: &Item<D>| it.mbr.center(), &mut |group| {
                parent_groups.push(group.to_vec())
            });
            let mut parents = Vec::with_capacity(parent_groups.len());
            for group in parent_groups {
                let mbr = group.iter().fold(Mbr::empty(), |acc, it| acc.union(&it.mbr));
                let children = group.iter().map(|it| it.id).collect();
                parents.push(tree.alloc(Node::Internal { mbr, children }));
            }
            level = parents;
            height += 1;
        }
        tree.root = level[0];
        tree.height = height;
        tree
    }
}

/// Tile object summaries (center of the support MBR is the sort key).
fn str_tile<const D: usize>(
    items: &mut [ObjectSummary<D>],
    dim: usize,
    cap: usize,
    emit: &mut impl FnMut(&[ObjectSummary<D>]),
) {
    str_tile_by(items, dim, cap, &|s: &ObjectSummary<D>| s.support_mbr.center(), emit)
}

/// Generic recursive STR tiling: sort by the center's `dim` coordinate,
/// split into `ceil(P^(1/(D-dim)))` slabs (`P` = number of final groups),
/// recurse on the next dimension; the last dimension chunks sequentially.
fn str_tile_by<T: Clone, const D: usize>(
    items: &mut [T],
    dim: usize,
    cap: usize,
    center: &impl Fn(&T) -> Point<D>,
    emit: &mut impl FnMut(&[T]),
) {
    let n = items.len();
    if n <= cap {
        if n > 0 {
            emit(items);
        }
        return;
    }
    if dim + 1 == D {
        items.sort_by(|a, b| center(a)[dim].total_cmp(&center(b)[dim]));
        for (start, end) in even_partition(n, n.div_ceil(cap)) {
            emit(&items[start..end]);
        }
        return;
    }
    items.sort_by(|a, b| center(a)[dim].total_cmp(&center(b)[dim]));
    let groups = n.div_ceil(cap);
    let dims_left = D - dim;
    let slabs = (groups as f64).powf(1.0 / dims_left as f64).ceil() as usize;
    for (start, end) in even_partition(n, slabs.max(1)) {
        str_tile_by(&mut items[start..end], dim + 1, cap, center, emit);
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
    use fuzzy_core::{FuzzyObject, ObjectId};

    pub(crate) fn grid_summaries(n: usize) -> Vec<ObjectSummary<2>> {
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

    #[test]
    fn bulk_load_preserves_all_entries() {
        let summaries = grid_summaries(1000);
        let tree = RTree::bulk_load(summaries, RTreeConfig { max_entries: 16 });
        assert_eq!(tree.len(), 1000);
        let mut ids: Vec<u64> = tree.iter_entries().map(|s| s.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1000u64).collect::<Vec<_>>());
        tree.validate().unwrap();
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in [0usize, 1, 2, 15, 16, 17] {
            let tree = RTree::bulk_load(grid_summaries(n), RTreeConfig { max_entries: 16 });
            assert_eq!(tree.len(), n);
            tree.validate().unwrap();
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
        tree.validate().unwrap();
    }

    #[test]
    fn leaves_are_spatially_coherent() {
        // STR should produce far smaller total leaf area than random
        // grouping; check against a generous bound.
        let summaries = grid_summaries(2000);
        let tree = RTree::bulk_load(summaries, RTreeConfig { max_entries: 20 });
        let mut total_area = 0.0;
        let mut leaf_count = 0;
        for n in &tree.nodes {
            if let Node::Leaf { mbr, entries } = n {
                if !entries.is_empty() {
                    total_area += mbr.area();
                    leaf_count += 1;
                }
            }
        }
        // 2000 unit-ish objects in a 100x20 region -> per-leaf area should
        // be bounded by a small multiple of (region area / leaf count).
        let region_area = 100.0 * 20.0;
        assert!(
            total_area < 4.0 * region_area,
            "leaves too loose: total {total_area}, {leaf_count} leaves"
        );
    }
}
