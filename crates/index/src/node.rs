//! The core `RTree` type: an STR packing and its entries.

use crate::access::NodeView;
use crate::bulk::StrPacking;
use fuzzy_core::ObjectSummary;
use fuzzy_geom::Mbr;

/// Index of a node in a tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw node index — the node number of an [`RTree`] and the page
    /// number of a [`crate::PagedRTree`]. Both number an STR-packed tree
    /// the same way: leaves in group order, then each upper level, the
    /// root last.
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

/// The R-tree proper: the STR packing [`RTree::bulk_load`] computes and
/// the entries gathered into its leaf order, so a leaf is a run of one
/// entry array. A built tree is never edited, only replaced
/// (`fuzzy_query::Versioned` publishes a fresh tree as a new epoch). All
/// read paths are `&self` and thread-safe.
#[derive(Clone, Debug)]
pub struct RTree<const D: usize> {
    /// Every entry, in leaf order.
    pub(crate) entries: Vec<ObjectSummary<D>>,
    pub(crate) shape: StrPacking<D>,
    pub(crate) config: RTreeConfig,
}

impl<const D: usize> RTree<D> {
    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.shape.height
    }

    /// The configuration in force.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Root node id.
    pub fn root_id(&self) -> NodeId {
        self.shape.root()
    }

    /// MBR of a node (free — reading a parent's child pointers already
    /// loaded these, matching the paper's I/O model where an index node
    /// stores its children's rectangles).
    pub fn node_mbr(&self, id: NodeId) -> &Mbr<D> {
        self.shape.mbr(id)
    }

    /// Expand a node, returning what is beneath it. The query charges the
    /// node access ([`crate::NodeAccess::read_node`] is the public path).
    pub(crate) fn expand(&self, id: NodeId) -> NodeView<'_, D> {
        let id = id.0 as usize;
        match id.checked_sub(self.shape.leaf_count()) {
            None => NodeView::Entries(&self.entries[self.shape.leaf(id)]),
            Some(internal) => NodeView::Nodes(&self.shape.internal[internal]),
        }
    }

    /// Number of nodes (internal + leaf) — also the page count of a
    /// [`crate::PagedRTree`] written from the same entries, which holds
    /// one page per node in the same numbering.
    pub fn node_count(&self) -> usize {
        self.shape.mbrs.len()
    }

    /// Number of leaf nodes (diagnostics and the §5 cost model's `C_avg`).
    pub fn leaf_count(&self) -> usize {
        self.shape.leaf_count()
    }

    /// Average leaf fill `C_avg = C_max · U_avg` used by Equation 7/8.
    pub fn avg_leaf_fill(&self) -> f64 {
        let leaves = self.leaf_count();
        if leaves == 0 {
            0.0
        } else {
            self.len() as f64 / leaves as f64
        }
    }

    /// Iterate over all stored summaries (test/diagnostic use; does not
    /// count node accesses).
    pub fn iter_entries(&self) -> impl Iterator<Item = &ObjectSummary<D>> + '_ {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_shape() {
        let t: RTree<2> = RTree::bulk_load(Vec::new(), RTreeConfig::default());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(matches!(t.expand(t.root_id()), NodeView::Entries(e) if e.is_empty()));
    }
}
