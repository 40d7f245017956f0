//! The R-tree over fuzzy object summaries, read from an index file or an
//! in-memory image of one.
//!
//! The paper (Section 3.1) indexes fuzzy objects by the MBR of their
//! support; leaf entries additionally carry the kernel MBR, the optimal
//! conservative lines and the representative point (Sections 3.2/3.4), all
//! bundled in [`fuzzy_core::ObjectSummary`]. Objects themselves stay in
//! the object store. The index is one structure behind one navigation
//! interface:
//!
//! * [`PagedRTree`] — the tree serialized one node per page into a
//!   single index file, read back through an LRU buffer pool, so node
//!   accesses are real positioned reads with a measured disk/cache split
//!   (the paper's §6 cost model made literal). Its bytes come from the
//!   file or from an in-memory image of it; [`RTree`] names the in-memory
//!   form, built by [`RTree::bulk_load`].
//! * [`LeafPage`] / [`LeafView`] — a leaf as its page: the pool caches
//!   the checked bytes of the columnar summary block, and a read borrows
//!   its columns ([`LeafField`]) instead of rebuilt summaries;
//! * [`NodeAccess`] — the navigation trait; the query processor in
//!   `fuzzy-query` is generic over it and returns byte-identical answers
//!   whatever the pages are read from;
//! * [`VpTree`] — the approximate candidate generator over per-object
//!   expected centers, built in memory from the summaries, dialed by
//!   [`RecallDial`] and always resolved through the exact probe loop.
//!
//! We could not reuse an off-the-shelf R-tree because the evaluation needs
//! (a) fuzzy summaries as leaf payloads and (b) node-access accounting —
//! both of which this implementation provides:
//!
//! * [`RTree::bulk_load`] / [`PagedRTree::bulk_write`] — Sort-Tile-Recursive
//!   packing, the one way a tree gets its shape, encoded page by page into
//!   an image or a file. A built tree is never edited, only replaced.
//! * [`OverlayRTree`] — the write story: an in-memory delta overlay
//!   (inserted/tombstoned summaries consulted by every `NodeAccess` read)
//!   over a [`PagedRTree`], persisted as a sidecar delta log and folded
//!   back into the file by [`OverlayRTree::compact`] through a fresh bulk
//!   load.
//! * [`NodeAccess::read_node`] — the navigation primitive used by the
//!   query processor's best-first search; the query charges one node
//!   access per call.
//! * [`range_scan`] — the generic range query, parameterised by node
//!   scoring, with each reached leaf's columns handed to the caller: the
//!   RSS candidate collection (Algorithm 4).

#![warn(missing_docs)]

pub mod access;
pub mod bulk;
pub mod leaf;
pub mod node;
pub mod overlay;
pub mod paged;
pub mod vptree;

pub use access::{range_scan, ChildRef, DecodedNode, MinKey, NodeAccess, NodeRead, NodeView};
pub use leaf::{leaf_entry_len, LeafField, LeafPage, LeafView};
pub use node::{NodeId, RTree, RTreeConfig};
pub use overlay::{delta_path_for, OverlayRTree};
pub use paged::{
    paged_header_len, PagedRTree, DEFAULT_CACHE_PAGES, DEFAULT_PAGE_SIZE, PAGED_VERSION,
};
pub use vptree::{RecallDial, VpTree, FOF_NEIGHBORS};
