//! What a range search over the tree returns.
//!
//! The traversal itself is implemented once, generically over any
//! [`crate::NodeAccess`] tree, as [`crate::range_search`] — the RKNN
//! processors in `fuzzy-query` call it, so it runs unmodified against a
//! [`crate::PagedRTree`] read from a file or from an in-memory image, and
//! against an overlay over one.

use fuzzy_core::ObjectSummary;

/// A matched entry together with the score that admitted it.
#[derive(Clone, Debug)]
pub struct EntryHit<const D: usize> {
    /// The stored summary.
    pub entry: ObjectSummary<D>,
    /// The score assigned by the query (distance/lower bound).
    pub score: f64,
}

/// Result of a range search.
#[derive(Clone, Debug, Default)]
pub struct RangeResult<const D: usize> {
    /// Matching entries with their scores, unordered.
    pub hits: Vec<EntryHit<D>>,
    /// Nodes expanded while answering.
    pub node_accesses: u64,
    /// Node reads that touched the backing medium: the buffer-pool misses
    /// of a tree read from a file (always 0 for an in-memory image).
    pub node_disk_reads: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access;
    use crate::node::{RTree, RTreeConfig};
    use fuzzy_core::{FuzzyObject, ObjectId};
    use fuzzy_geom::Point;

    fn summaries(n: usize) -> Vec<ObjectSummary<2>> {
        (0..n)
            .map(|i| {
                let x = (i % 50) as f64 * 2.0;
                let y = (i / 50) as f64 * 2.0;
                let obj = FuzzyObject::new(
                    ObjectId(i as u64),
                    vec![Point::xy(x, y), Point::xy(x + 0.4, y + 0.4)],
                    vec![1.0, 0.6],
                )
                .unwrap();
                ObjectSummary::from_object(&obj)
            })
            .collect()
    }

    #[test]
    fn range_search_matches_linear_scan() {
        let entries = summaries(800);
        let tree = RTree::bulk_load(entries.clone(), RTreeConfig { max_entries: 16 });
        let q = Point::xy(50.0, 10.0);
        for radius in [0.0, 3.0, 10.0, 1000.0] {
            let res = access::range_search(
                &tree,
                radius,
                |mbr| mbr.min_dist_point(&q),
                |e: &ObjectSummary<2>| e.support_mbr.min_dist_point(&q),
            )
            .unwrap();
            let want =
                entries.iter().filter(|e| e.support_mbr.min_dist_point(&q) <= radius).count();
            assert_eq!(res.hits.len(), want, "radius {radius}");
            // An image never touches a backing medium.
            assert_eq!(res.node_disk_reads, 0);
        }
        // An unbounded radius prunes nothing: every node is expanded once.
        let all = access::range_search(&tree, f64::INFINITY, |_| 0.0, |_| 0.0).unwrap();
        assert_eq!(all.node_accesses, tree.page_count() as u64);
        assert_eq!(all.hits.len(), entries.len());
    }

    #[test]
    fn empty_tree_queries() {
        let tree: RTree<2> = RTree::bulk_load(Vec::new(), RTreeConfig::default());
        let q = Point::xy(0.0, 0.0);
        let res = access::range_search(
            &tree,
            10.0,
            |m| m.min_dist_point(&q),
            |e: &ObjectSummary<2>| e.support_mbr.min_dist_point(&q),
        )
        .unwrap();
        assert!(res.hits.is_empty());
    }
}
