//! R-tree indexes over fuzzy object summaries, in-memory and on-disk.
//!
//! The paper (Section 3.1) indexes fuzzy objects by the MBR of their
//! support; leaf entries additionally carry the kernel MBR, the optimal
//! conservative lines and the representative point (Sections 3.2/3.4), all
//! bundled in [`fuzzy_core::ObjectSummary`]. Objects themselves stay in
//! the object store; the index comes in two backends behind one
//! navigation interface:
//!
//! * [`RTree`] — the arena-based in-memory tree (fast, bounded by RAM,
//!   node accesses are counted but simulated);
//! * [`PagedRTree`] — the same tree serialized into fixed-size pages of a
//!   single index file, read back through an LRU buffer pool, so node
//!   accesses are real positioned reads with a measured disk/cache split
//!   (the paper's §6 cost model made literal);
//! * [`NodeAccess`] — the trait both implement; the query processor in
//!   `fuzzy-query` is generic over it and returns byte-identical answers
//!   on either backend;
//! * [`VpTree`] — the approximate candidate generator over per-object
//!   expected centers, dialed by [`RecallDial`] and always resolved through
//!   the exact probe loop.
//!
//! We could not reuse an off-the-shelf R-tree because the evaluation needs
//! (a) fuzzy summaries as leaf payloads and (b) node-access accounting —
//! both of which this implementation provides:
//!
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive packing (the default way
//!   datasets are indexed in the experiments); [`PagedRTree::bulk_write`]
//!   reuses it to build index files.
//! * [`RTree::insert`] / [`RTree::delete`] / [`RTree::update`] — R*-style
//!   incremental maintenance: ChooseSubtree + topological split on the way
//!   in, condense-and-reinsert with MBR tightening on the way out.
//! * [`OverlayRTree`] — the write story for the immutable index file: an
//!   in-memory delta overlay (inserted/tombstoned summaries consulted by
//!   every `NodeAccess` read) over a [`PagedRTree`], persisted as a
//!   sidecar delta log and folded back into the file by
//!   [`OverlayRTree::compact`].
//! * [`MutableIndex`] — the mutation trait both dynamic backends
//!   implement; `fuzzy_query`'s epoch engine is generic over it.
//! * [`RTree::expand`] / [`NodeAccess::read_node`] — the navigation
//!   primitives used by the query processor's best-first search; every
//!   call counts one node access.
//! * [`range_search`] — the backend-generic range query, parameterised by
//!   arbitrary node/entry scoring: the RSS candidate collection
//!   (Algorithm 4).
//! * [`RTree::validate`] — structural invariant checker used by tests.

#![warn(missing_docs)]

pub mod access;
pub mod approx;
pub mod bulk;
pub mod delete;
pub mod insert;
pub mod mutate;
pub mod node;
pub mod overlay;
pub mod paged;
pub mod query;
pub mod validate;
pub mod vptree;

pub use access::{range_search, ChildRef, DecodedNode, MinKey, NodeAccess, NodeRead, NodeView};
pub use approx::{RecallDial, FOF_BUILD_CAP};
pub use mutate::MutableIndex;
pub use node::{Children, NodeId, RTree, RTreeConfig};
pub use overlay::{delta_path_for, OverlayRTree};
pub use paged::{
    leaf_entry_len, paged_header_len, PagedRTree, DEFAULT_CACHE_PAGES, DEFAULT_PAGE_SIZE,
    PAGED_VERSION,
};
pub use query::{EntryHit, RangeResult};
pub use validate::ValidationError;
pub use vptree::{VpTree, VpTreeConfig, VPTREE_MAGIC, VPTREE_VERSION};

use std::sync::atomic::{AtomicU64, Ordering};

/// Node-access counters (one per tree).
#[derive(Debug, Default)]
pub struct IndexStats {
    node_accesses: AtomicU64,
}

impl IndexStats {
    pub(crate) fn record_node_access(&self) {
        self.node_accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of node expansions since the last reset.
    pub fn node_accesses(&self) -> u64 {
        self.node_accesses.load(Ordering::Relaxed)
    }

    /// Zero the counters.
    pub fn reset(&self) {
        self.node_accesses.store(0, Ordering::Relaxed);
    }
}
