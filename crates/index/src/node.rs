//! Arena-based node storage and the core `RTree` type.

use fuzzy_core::ObjectSummary;
use fuzzy_geom::Mbr;

/// Index of a node in the tree arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw arena index — equal to the page number in a paged index file,
    /// since serialization writes nodes in arena order.
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

#[derive(Clone, Debug)]
pub(crate) enum Node<const D: usize> {
    Internal { mbr: Mbr<D>, children: Vec<NodeId> },
    Leaf { mbr: Mbr<D>, entries: Vec<ObjectSummary<D>> },
}

impl<const D: usize> Node<D> {
    pub(crate) fn mbr(&self) -> &Mbr<D> {
        match self {
            Node::Internal { mbr, .. } | Node::Leaf { mbr, .. } => mbr,
        }
    }
}

/// What lies beneath a node: either child nodes or object summaries.
#[derive(Debug)]
pub(crate) enum Children<'a, const D: usize> {
    /// Internal node: child node ids (pair each with its MBR via
    /// [`RTree::node_mbr`]).
    Nodes(&'a [NodeId]),
    /// Leaf node: the object summaries it stores.
    Entries(&'a [ObjectSummary<D>]),
}

/// The R-tree proper. Nodes live in an arena filled once by
/// [`RTree::bulk_load`]; a built tree is never edited, only replaced
/// (`fuzzy_query::Versioned` publishes a fresh tree as a new epoch). All
/// read paths are `&self` and thread-safe.
#[derive(Clone, Debug)]
pub struct RTree<const D: usize> {
    pub(crate) nodes: Vec<Node<D>>,
    pub(crate) root: NodeId,
    pub(crate) height: usize,
    pub(crate) len: usize,
    pub(crate) config: RTreeConfig,
}

impl<const D: usize> RTree<D> {
    /// An empty tree (a single empty leaf as root).
    pub fn new(config: RTreeConfig) -> Self {
        let root = Node::Leaf { mbr: Mbr::empty(), entries: Vec::new() };
        Self { nodes: vec![root], root: NodeId(0), height: 1, len: 0, config }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The configuration in force.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Root node id.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// MBR of a node (free — reading a parent's child pointers already
    /// loaded these, matching the paper's I/O model where an index node
    /// stores its children's rectangles).
    pub fn node_mbr(&self, id: NodeId) -> &Mbr<D> {
        self.nodes[id.0 as usize].mbr()
    }

    /// Expand a node, returning what is beneath it. The query charges the
    /// node access ([`crate::NodeAccess::read_node`] is the public path).
    pub(crate) fn expand(&self, id: NodeId) -> Children<'_, D> {
        match &self.nodes[id.0 as usize] {
            Node::Internal { children, .. } => Children::Nodes(children),
            Node::Leaf { entries, .. } => Children::Entries(entries),
        }
    }

    /// Number of nodes (internal + leaf) — also the page count of a
    /// [`crate::PagedRTree`] serialization of this tree, which writes one
    /// page per node in arena order.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes (diagnostics and the §5 cost model's `C_avg`).
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Average leaf fill `C_avg = C_max · U_avg` used by Equation 7/8.
    pub fn avg_leaf_fill(&self) -> f64 {
        let leaves = self.leaf_count();
        if leaves == 0 {
            0.0
        } else {
            self.len as f64 / leaves as f64
        }
    }

    /// Iterate over all stored summaries (test/diagnostic use; does not
    /// count node accesses).
    pub fn iter_entries(&self) -> impl Iterator<Item = &ObjectSummary<D>> + '_ {
        self.nodes.iter().flat_map(|n| match n {
            Node::Leaf { entries, .. } => entries.as_slice().iter(),
            Node::Internal { .. } => [].iter(),
        })
    }

    pub(crate) fn alloc(&mut self, node: Node<D>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_shape() {
        let t: RTree<2> = RTree::new(RTreeConfig::default());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(matches!(t.expand(t.root_id()), Children::Entries(e) if e.is_empty()));
    }
}
