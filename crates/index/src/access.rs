//! The [`NodeAccess`] abstraction: one navigation interface over the
//! R-tree ([`crate::PagedRTree`], from a file or an in-memory image) and
//! the write overlay over it ([`crate::OverlayRTree`]).
//!
//! The paper's cost model (§6) charges queries by *node accesses* because
//! the index is assumed to live on secondary storage. `NodeAccess` makes
//! that assumption explicit: a single `read_node` primitive hands back a
//! node's children — child rectangles for internal nodes, the leaf page's
//! summary columns ([`LeafView`]) for leaves — together with the read's
//! provenance (backing medium vs buffer pool), so query processors can
//! charge exact per-query I/O whatever the tree is read from. A leaf is
//! cached as its page's bytes ([`LeafPage`]) and read in place: a read
//! copies no entry. The query crate (`fuzzy-query`) is generic over this
//! trait; the determinism suites prove an image, a file and an overlay
//! return byte-identical answers.
//!
//! ```
//! use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
//! use fuzzy_geom::Point;
//! use fuzzy_index::{range_scan, NodeAccess, RTree, RTreeConfig};
//!
//! // A generic "which supports come within `r`" helper that works on *any*
//! // index.
//! fn ids_within<A: NodeAccess<2>>(index: &A, q: Point<2>, r: f64) -> Vec<ObjectId> {
//!     let mut ids = Vec::new();
//!     range_scan(index, r, |mbr| mbr.min_dist_point(&q), |leaf| {
//!         let near = leaf.iter().filter(|e| e.support_mbr.min_dist_point(&q) <= r);
//!         ids.extend(near.map(|e| e.id));
//!     })
//!     .unwrap();
//!     ids.sort();
//!     ids
//! }
//!
//! let summaries: Vec<ObjectSummary<2>> = (0..32)
//!     .map(|i| {
//!         let obj = FuzzyObject::new(
//!             ObjectId(i),
//!             vec![Point::xy(i as f64, 0.0), Point::xy(i as f64 + 0.2, 0.2)],
//!             vec![1.0, 0.5],
//!         )
//!         .unwrap();
//!         ObjectSummary::from_object(&obj)
//!     })
//!     .collect();
//! let tree = RTree::bulk_load(summaries, RTreeConfig::default());
//! assert_eq!(ids_within(&tree, Point::xy(10.1, 0.0), 0.05), vec![ObjectId(10)]);
//! ```

use crate::leaf::{LeafPage, LeafView};
use crate::node::NodeId;
use fuzzy_core::ObjectId;
use fuzzy_geom::Mbr;
use fuzzy_store::StoreError;
use std::cmp::Ordering;
use std::marker::PhantomData;
use std::sync::Arc;

/// A child pointer as stored inside its parent node: the paper's I/O model
/// keeps every child's rectangle *in the parent page*, so scoring a child
/// never costs a node access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildRef<const D: usize> {
    /// The child node.
    pub id: NodeId,
    /// The child's minimum bounding rectangle.
    pub mbr: Mbr<D>,
}

/// What a node holds, borrowed from the page it was read into.
#[derive(Clone, Copy, Debug)]
pub enum NodeView<'a, const D: usize> {
    /// Internal node: child pointers with their rectangles.
    Nodes(&'a [ChildRef<D>]),
    /// Leaf node: the summary columns of its page.
    Entries(LeafView<'a, D>),
}

/// A node as the tree's buffer pool caches it.
#[derive(Debug)]
pub enum DecodedNode<const D: usize> {
    /// Internal node payload, decoded.
    Internal(Vec<ChildRef<D>>),
    /// Leaf node: its page's bytes, checked, not decoded.
    Leaf(LeafPage<D>),
}

impl<const D: usize> DecodedNode<D> {
    /// Borrow the node contents.
    pub fn view(&self) -> NodeView<'_, D> {
        match self {
            Self::Internal(children) => NodeView::Nodes(children),
            Self::Leaf(page) => NodeView::Entries(page.view()),
        }
    }
}

/// One node read: the children plus the read's provenance. Holding the
/// guard keeps the underlying page resident; drop it when done. The
/// lifetime ties a read to the tree it came from.
#[derive(Debug)]
pub struct NodeRead<'t, const D: usize> {
    /// A buffer-pool page; the `Arc` keeps it alive while borrowed.
    page: Arc<DecodedNode<D>>,
    /// The leaf slots this read shows (bit `j` for slot `j`); `None` shows
    /// all of them. An overlay hides its deleted entries here, per read,
    /// and leaves the cached page as it is.
    live: Option<Box<[u64]>>,
    /// True when serving this node touched the backing medium; false for
    /// buffer-pool hits and for every read of an in-memory image. This is
    /// the node-level analogue of `fuzzy_store::TracedProbe::disk_read`.
    pub disk_read: bool,
    /// True for an overlay's virtual root, which is no node of the tree
    /// (the base root and the delta leaves hang off it): a traversal
    /// charges it no node access, so a quiescent overlay counts what its
    /// base counts.
    pub virtual_root: bool,
    tree: PhantomData<&'t ()>,
}

impl<const D: usize> NodeRead<'_, D> {
    /// A read served by a buffer pool.
    pub fn from_page(page: Arc<DecodedNode<D>>, disk_read: bool) -> Self {
        Self { page, live: None, disk_read, virtual_root: false, tree: PhantomData }
    }

    /// This read with every leaf entry whose id is `dead` hidden. A read
    /// of an internal node, or of a leaf no dead id is in, is returned
    /// as it is.
    pub(crate) fn hiding(mut self, dead: impl Fn(ObjectId) -> bool) -> Self {
        if let NodeView::Entries(leaf) = self.page.view() {
            if leaf.ids().any(&dead) {
                let mut live = vec![0u64; leaf.slots().div_ceil(64)];
                for (j, id) in leaf.ids().enumerate() {
                    live[j / 64] |= u64::from(!dead(id)) << (j % 64);
                }
                self.live = Some(live.into_boxed_slice());
            }
        }
        self
    }

    /// Borrow the node contents.
    pub fn view(&self) -> NodeView<'_, D> {
        match self.page.view() {
            NodeView::Entries(leaf) => NodeView::Entries(leaf.masked(self.live.as_deref())),
            nodes => nodes,
        }
    }
}

/// Uniform navigation over an R-tree, independent of where its pages live.
///
/// Implementors: [`crate::PagedRTree`] (one page per node of an index file
/// or of an in-memory image, behind an LRU buffer pool) and
/// [`crate::OverlayRTree`] (one with pending inserts and deletes). Query
/// processors that only use this trait — all of `fuzzy-query` — run
/// unmodified against any of them.
pub trait NodeAccess<const D: usize> {
    /// Root node id.
    fn root_id(&self) -> NodeId;

    /// Root rectangle (available without a node access: parents store
    /// child rectangles, and the root's is kept in the tree header).
    fn root_mbr(&self) -> Mbr<D>;

    /// Read one node. This is **the** node access of the paper's cost
    /// model: every call counts one logical access, and the returned
    /// [`NodeRead::disk_read`] flag reports whether it reached the
    /// backing medium.
    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, D>, StoreError>;

    /// Number of indexed objects.
    fn len(&self) -> usize;

    /// True when no objects are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height (1 = the root is a leaf).
    fn height(&self) -> usize;
}

/// Shared-ownership delegation: an epoch snapshot is an `Arc<Tree>`, and
/// query code generic over `A: NodeAccess<D>` should accept the `Arc`
/// directly.
impl<A: NodeAccess<D> + ?Sized, const D: usize> NodeAccess<D> for Arc<A> {
    fn root_id(&self) -> NodeId {
        (**self).root_id()
    }

    fn root_mbr(&self) -> Mbr<D> {
        (**self).root_mbr()
    }

    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, D>, StoreError> {
        (**self).read_node(id)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn height(&self) -> usize {
        (**self).height()
    }
}

/// Max-heap adapter turning [`std::collections::BinaryHeap`] into a min-heap on `f64` keys
/// (ordered by `total_cmp`, reversed). Shared by every best-first
/// traversal in the workspace — the AKNN engine in `fuzzy-query` among
/// them — so tie-breaking and NaN policy cannot silently diverge between
/// them.
pub struct MinKey<T> {
    /// The ordering key (smaller pops first).
    pub key: f64,
    /// The carried payload.
    pub item: T,
}

impl<T> PartialEq for MinKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for MinKey<T> {}
impl<T> PartialOrd for MinKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MinKey<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.total_cmp(&self.key) // reversed: BinaryHeap is a max-heap
    }
}

/// Range search over any [`NodeAccess`] tree: every leaf whose rectangle's
/// `node_key` is within `radius` is handed to `leaf`, subtrees whose
/// `node_key` exceeds it are pruned, and the caller scores the leaf's
/// columns. With `node_key = MinDist` this is the search of Algorithm 4
/// (RSS candidate collection). Returns the node accesses and the disk
/// reads among them; a virtual root ([`NodeRead::virtual_root`]) is no
/// access.
pub fn range_scan<A: NodeAccess<D> + ?Sized, const D: usize>(
    tree: &A,
    radius: f64,
    node_key: impl Fn(&Mbr<D>) -> f64,
    mut leaf: impl FnMut(LeafView<'_, D>),
) -> Result<(u64, u64), StoreError> {
    let (mut accesses, mut disk_reads) = (0, 0);
    let mut stack = vec![(tree.root_id(), tree.root_mbr())];
    while let Some((id, mbr)) = stack.pop() {
        if node_key(&mbr) > radius {
            continue;
        }
        let read = tree.read_node(id)?;
        accesses += u64::from(!read.virtual_root);
        disk_reads += read.disk_read as u64;
        match read.view() {
            NodeView::Nodes(kids) => stack.extend(kids.iter().map(|c| (c.id, c.mbr))),
            NodeView::Entries(entries) => leaf(entries),
        }
    }
    Ok((accesses, disk_reads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{RTree, RTreeConfig};
    use fuzzy_core::{FuzzyObject, ObjectSummary};
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

    /// How many entries' supports come within `radius` of `q`, and the
    /// scan's disk reads.
    fn within<A: NodeAccess<2>>(tree: &A, q: Point<2>, radius: f64) -> (usize, u64) {
        let mut hits = 0;
        let (_, disk_reads) = range_scan(
            tree,
            radius,
            |mbr| mbr.min_dist_point(&q),
            |leaf| {
                hits += leaf.iter().filter(|e| e.support_mbr.min_dist_point(&q) <= radius).count();
            },
        )
        .unwrap();
        (hits, disk_reads)
    }

    #[test]
    fn range_scan_matches_linear_scan() {
        let entries = summaries(800);
        let tree = RTree::bulk_load(entries.clone(), RTreeConfig { max_entries: 16 });
        let q = Point::xy(50.0, 10.0);
        for radius in [0.0, 3.0, 10.0, 1000.0] {
            let (hits, disk_reads) = within(&tree, q, radius);
            let want =
                entries.iter().filter(|e| e.support_mbr.min_dist_point(&q) <= radius).count();
            assert_eq!(hits, want, "radius {radius}");
            // An image never touches a backing medium.
            assert_eq!(disk_reads, 0);
        }
        // An unbounded radius prunes nothing: every node is expanded once.
        let mut all = 0;
        let (accesses, _) =
            range_scan(&tree, f64::INFINITY, |_| 0.0, |leaf| all += leaf.len()).unwrap();
        assert_eq!(accesses, tree.page_count() as u64);
        assert_eq!(all, entries.len());
    }

    #[test]
    fn empty_tree_queries() {
        let tree: RTree<2> = RTree::bulk_load(Vec::new(), RTreeConfig::default());
        assert_eq!(within(&tree, Point::xy(0.0, 0.0), 10.0).0, 0);
    }
}
