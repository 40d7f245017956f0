//! Node ids, the tree configuration, and [`RTree`]: the in-memory tree,
//! which is a [`PagedRTree`] over an image.

use crate::paged::PagedRTree;

/// Index of a node in a tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw node index — the page number. An STR-packed tree numbers its
    /// pages leaves first, in group order, then each upper level, the root
    /// last.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Maximum entries/children per node (`C_max` in the paper's §5).
    pub max_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self { max_entries: 64 }
    }
}

/// The in-memory R-tree: [`RTree::bulk_load`] writes the index file's
/// bytes into an image and opens a [`PagedRTree`] over it, so a tree in
/// memory is read by the one reader every index file is read by.
pub type RTree<const D: usize> = PagedRTree<D>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{NodeAccess, NodeView};

    #[test]
    fn empty_tree_shape() {
        let t: RTree<2> = RTree::bulk_load(Vec::new(), RTreeConfig::default());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        let root = t.read_node(t.root_id()).unwrap();
        assert!(matches!(root.view(), NodeView::Entries(e) if e.is_empty()));
    }
}
