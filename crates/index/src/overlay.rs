//! A write overlay over the immutable paged index file: `OverlayRTree`.
//!
//! [`crate::PagedRTree`] is a read-only structure — its `.fzpt` file is
//! immutable until compaction (every page is checksummed and node ids are
//! page numbers, so in-place surgery would invalidate the layout).
//! `OverlayRTree` gives that file a write story:
//!
//! * **Inserts** accumulate in memory and are exposed to every
//!   [`NodeAccess`] read as *delta leaves* hanging off a virtual root
//!   (ids from the top of the `u32` range, so they can never collide with
//!   base page numbers).
//! * **Deletes** tombstone base ids. A leaf read hides its tombstoned
//!   entries behind a per-read live mask ([`crate::LeafView`]): the pooled
//!   page is shared as it is, never copied or filtered, and a leaf no
//!   tombstone hits passes through unmasked. Base node MBRs may become
//!   loose — harmless for correctness, since traversals only use them as
//!   lower bounds — until compaction re-tightens everything.
//! * **Persistence**: the pending state round-trips through a checksummed
//!   sidecar delta log ([`fuzzy_store::DeltaLog`], `<index>.fzdl`), so a
//!   fresh process opening the same index file sees the same live set.
//! * **[`OverlayRTree::compact`]** folds base + overlay into a freshly
//!   STR-bulk-loaded index file (published over the original through
//!   `fuzzy_store::write_atomic`) and then clears the sidecar.
//! * An overlay over an in-memory image ([`crate::RTree::bulk_load`]) has
//!   no file: its edits live only in memory, and the sidecar and
//!   compaction calls are refused with [`StoreError::NoFile`] before they
//!   touch the file system.
//!
//! Opening reads the base's header, page table and sorted id column
//! ([`PagedRTree::stored_ids`]) — no node page: the pool stays cold until
//! the first query. Which ids the base stores is a binary search in that
//! column, shared by every clone; which ids are pending inserts is a hash
//! set beside them, so replaying or extending a delta of `m` inserts costs
//! O(m), not O(m²).
//!
//! The query stack is generic over `NodeAccess`, so AKNN/RKNN/batch
//! run unmodified over an overlay; `fuzzy_query::Versioned` makes the
//! mutation path safe to share with concurrent readers.

use crate::access::{ChildRef, DecodedNode, NodeAccess, NodeRead, NodeView};
use crate::leaf::LeafPage;
use crate::node::{NodeId, RTreeConfig};
use crate::paged::PagedRTree;
use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::Mbr;
use fuzzy_store::overlay::DeltaLog;
use fuzzy_store::{write_atomic, StoreError};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Virtual node id of the overlay's root.
const VIRTUAL_ROOT: NodeId = NodeId(u32::MAX);
/// Delta leaf `i` lives at `DELTA_TOP - i`.
const DELTA_TOP: u32 = u32::MAX - 1;

/// Sidecar path of an index file's delta log: the index path with `.fzdl`
/// appended (`data.fzpt` → `data.fzpt.fzdl`).
pub fn delta_path_for(index: impl AsRef<Path>) -> PathBuf {
    let mut os = index.as_ref().as_os_str().to_owned();
    os.push(".fzdl");
    PathBuf::from(os)
}

fn corrupt(reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt { reason: reason.into() }
}

/// Hashes an object id with one multiply, its high half folded into the
/// low: a served leaf read looks every entry up in the tombstone set while
/// deletes are pending, and SipHash cost more than the rest of the read.
/// The ids are the index's own, not keys an adversary picks per lookup.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(self.0 ^ u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A set of object ids under [`IdHasher`].
type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// A dynamic view over an immutable [`PagedRTree`]: base pages plus an
/// in-memory delta of inserted summaries and tombstoned ids.
///
/// Reads (`&self`, via [`NodeAccess`]) are thread-safe exactly like the
/// base tree's; mutation takes `&mut self`. Clones share the base file
/// handle and the base's id column (`Arc`s) but copy the delta — which is
/// what `fuzzy_query`'s epoch publisher relies on to hand frozen snapshots
/// to readers.
#[derive(Clone, Debug)]
pub struct OverlayRTree<const D: usize> {
    base: Arc<PagedRTree<D>>,
    /// Every object id stored in the base file, ascending: its id column,
    /// read once at open; immutable for the file's lifetime, so clones
    /// share it.
    base_ids: Arc<[u64]>,
    /// Summaries inserted since the last compaction, insertion order.
    inserted: Vec<ObjectSummary<D>>,
    /// The ids of `inserted`.
    inserted_ids: IdSet,
    /// Base ids deleted since the last compaction.
    tombstones: IdSet,
    /// Inserted summaries chunked into ready-made delta leaf nodes, each
    /// encoded as the leaf page an index would store.
    delta_leaves: Vec<Arc<DecodedNode<D>>>,
    /// Virtual root: base root + delta leaves as children.
    root_node: Arc<DecodedNode<D>>,
    root_mbr: Mbr<D>,
    live_len: usize,
}

impl<const D: usize> OverlayRTree<D> {
    /// Wrap an open base tree with an empty delta.
    pub fn new(base: Arc<PagedRTree<D>>) -> Result<Self, StoreError> {
        Self::with_delta(base, DeltaLog::default())
    }

    /// Open an index file together with its sidecar delta log (a missing
    /// sidecar is the empty delta).
    pub fn open(index_path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_cache(&index_path, crate::paged::DEFAULT_CACHE_PAGES)
    }

    /// [`OverlayRTree::open`] with an explicit buffer-pool capacity.
    pub fn open_with_cache(
        index_path: impl AsRef<Path>,
        cache_pages: usize,
    ) -> Result<Self, StoreError> {
        let base = Arc::new(PagedRTree::open_with_cache(&index_path, cache_pages)?);
        let delta = DeltaLog::load(delta_path_for(&index_path))?;
        Self::with_delta(base, delta)
    }

    /// Wrap an open base tree, replaying a delta log. Reads the base's id
    /// column, and no node page. Rejects logs that are inconsistent with
    /// the base (tombstones for unknown ids, inserts colliding with live
    /// ids).
    pub(crate) fn with_delta(
        base: Arc<PagedRTree<D>>,
        delta: DeltaLog<D>,
    ) -> Result<Self, StoreError> {
        let base_ids = base.stored_ids()?;
        Self::replay(base, base_ids, delta)
    }

    /// This overlay's base under the sidecar as it is on disk *now*: the
    /// open file, its warm buffer pool and its id column are shared, the
    /// delta log is loaded afresh and held to [`OverlayRTree::open`]'s
    /// checks. What re-publishing an unchanged index file costs — the
    /// caller establishes "unchanged" ([`PagedRTree::is_file_at`]).
    pub fn reload_delta(&self) -> Result<Self, StoreError> {
        let delta = DeltaLog::load(delta_path_for(self.base_file()?))?;
        Self::replay(Arc::clone(&self.base), Arc::clone(&self.base_ids), delta)
    }

    /// Replay `delta` over a base whose stored ids are `base_ids`.
    fn replay(
        base: Arc<PagedRTree<D>>,
        base_ids: Arc<[u64]>,
        delta: DeltaLog<D>,
    ) -> Result<Self, StoreError> {
        let mut out = Self {
            base,
            base_ids,
            inserted: Vec::new(),
            inserted_ids: IdSet::default(),
            tombstones: IdSet::default(),
            delta_leaves: Vec::new(),
            root_node: Arc::new(DecodedNode::Internal(Vec::new())),
            root_mbr: Mbr::empty(),
            live_len: 0,
        };
        for &id in &delta.tombstones {
            if !out.in_base(id) {
                return Err(corrupt(format!(
                    "delta log tombstones id {id} which the index file does not store"
                )));
            }
            if !out.tombstones.insert(id) {
                return Err(corrupt(format!("delta log tombstones id {id} twice")));
            }
        }
        for s in &delta.inserted {
            if out.contains_id(s.id) {
                return Err(corrupt(format!(
                    "delta log inserts id {} which is already live",
                    s.id.0
                )));
            }
            out.inserted_ids.insert(s.id.0);
            out.inserted.push(*s);
        }
        out.live_len = out.base.len() - out.tombstones.len() + out.inserted.len();
        out.rebuild_virtual();
        Ok(out)
    }

    /// Rechunk every inserted summary into delta leaves and rebuild the
    /// virtual root from scratch. Needed when existing chunks changed
    /// shape (a delete from `inserted` shifts everything after it); the
    /// common append path uses [`Self::append_virtual`] instead.
    fn rebuild_virtual(&mut self) {
        let cap = self.chunk_cap();
        self.delta_leaves.clear();
        let mut children = Vec::with_capacity(1 + self.inserted.len() / cap);
        children.push(ChildRef {
            id: NodeAccess::root_id(self.base.as_ref()),
            mbr: self.base.root_mbr(),
        });
        let mut mbr = self.base.root_mbr();
        for (i, chunk) in self.inserted.chunks(cap).enumerate() {
            let chunk_mbr = chunk.iter().fold(Mbr::empty(), |acc, e| acc.union(&e.support_mbr));
            children.push(ChildRef { id: self.delta_leaf_id(i), mbr: chunk_mbr });
            mbr = mbr.union(&chunk_mbr);
            self.delta_leaves.push(Arc::new(DecodedNode::Leaf(LeafPage::encode(chunk))));
        }
        self.root_node = Arc::new(DecodedNode::Internal(children));
        self.root_mbr = mbr;
    }

    /// Incrementally account for the just-appended last element of
    /// `inserted`: only the final delta chunk is re-materialized, so a
    /// batch of `m` inserts costs O(m) total instead of the O(m²) a full
    /// rechunk per append would.
    fn append_virtual(&mut self) {
        let cap = self.chunk_cap();
        let entry = *self.inserted.last().expect("append_virtual after a push");
        let last_chunk = self.inserted.chunks(cap).next_back().expect("non-empty");
        let chunk_index = (self.inserted.len() - 1) / cap;
        let chunk_mbr = last_chunk.iter().fold(Mbr::empty(), |acc, e| acc.union(&e.support_mbr));
        let leaf = Arc::new(DecodedNode::Leaf(LeafPage::encode(last_chunk)));
        let child = ChildRef { id: self.delta_leaf_id(chunk_index), mbr: chunk_mbr };
        let mut children = match self.root_node.as_ref() {
            DecodedNode::Internal(children) => children.clone(),
            DecodedNode::Leaf(_) => unreachable!("virtual root is always internal"),
        };
        if chunk_index < self.delta_leaves.len() {
            self.delta_leaves[chunk_index] = leaf;
            children[1 + chunk_index] = child; // children[0] is the base root
        } else {
            self.delta_leaves.push(leaf);
            children.push(child);
        }
        self.root_node = Arc::new(DecodedNode::Internal(children));
        self.root_mbr = self.root_mbr.union(&entry.support_mbr);
    }

    fn chunk_cap(&self) -> usize {
        self.base.config().max_entries.max(1)
    }

    fn delta_leaf_id(&self, chunk_index: usize) -> NodeId {
        let id = NodeId(DELTA_TOP - chunk_index as u32);
        assert!((id.0 as usize) > self.base.page_count(), "delta leaves collide with base pages");
        id
    }

    /// Does the base file store `id`?
    fn in_base(&self, id: u64) -> bool {
        self.base_ids.binary_search(&id).is_ok()
    }

    /// Is `id` in the live set (base minus tombstones, plus inserts)?
    fn contains_id(&self, id: ObjectId) -> bool {
        self.inserted_ids.contains(&id.0)
            || (self.in_base(id.0) && !self.tombstones.contains(&id.0))
    }

    /// Insert a summary unless its id is already live. Returns `true`
    /// when inserted.
    pub fn insert(&mut self, entry: ObjectSummary<D>) -> bool {
        if self.contains_id(entry.id) {
            return false;
        }
        // A tombstoned base id being re-inserted keeps its tombstone: the
        // stale base copy must stay hidden behind the new summary.
        self.inserted_ids.insert(entry.id.0);
        self.inserted.push(entry);
        self.live_len += 1;
        self.append_virtual();
        true
    }

    /// Delete the entry with `id` from the live set. Returns `true` when
    /// it existed.
    pub fn delete(&mut self, id: ObjectId) -> bool {
        if self.inserted_ids.remove(&id.0) {
            // Removal shifts every later pending insert: rechunk.
            let pos = self.inserted.iter().position(|e| e.id == id).expect("a pending insert");
            self.inserted.remove(pos);
            self.live_len -= 1;
            self.rebuild_virtual();
            true
        } else if self.in_base(id.0) && self.tombstones.insert(id.0) {
            // Tombstones only mask base leaf reads; the delta leaves and
            // the (conservative) root MBR are untouched.
            self.live_len -= 1;
            true
        } else {
            false
        }
    }

    /// Replace the summary of `entry.id` (delete + insert). Returns
    /// `true` when an existing entry was replaced.
    pub fn update(&mut self, entry: ObjectSummary<D>) -> bool {
        let existed = self.delete(entry.id);
        let inserted = self.insert(entry);
        debug_assert!(inserted);
        existed
    }

    /// The current pending state as a delta log (tombstones ascending).
    pub fn delta(&self) -> DeltaLog<D> {
        let mut tombstones: Vec<u64> = self.tombstones.iter().copied().collect();
        tombstones.sort_unstable();
        DeltaLog { inserted: self.inserted.clone(), tombstones }
    }

    /// True when no mutations are pending (reads pass straight through to
    /// base pages).
    pub fn is_clean(&self) -> bool {
        self.inserted.is_empty() && self.tombstones.is_empty()
    }

    /// Number of pending inserts.
    pub fn pending_inserts(&self) -> usize {
        self.inserted.len()
    }

    /// Number of pending tombstones.
    pub fn pending_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// The wrapped base tree.
    pub fn base(&self) -> &PagedRTree<D> {
        &self.base
    }

    /// The base's index file: what the sidecar sits beside and compaction
    /// rewrites. [`StoreError::NoFile`] for an image base.
    fn base_file(&self) -> Result<&Path, StoreError> {
        match self.base.image() {
            Some(_) => Err(StoreError::NoFile),
            None => Ok(self.base.path()),
        }
    }

    /// Persist the pending state to the base file's sidecar
    /// (`<index>.fzdl`). An empty delta removes the sidecar instead, so a
    /// clean index has no stray companion file.
    pub fn save_delta(&self) -> Result<(), StoreError> {
        let path = delta_path_for(self.base_file()?);
        let delta = self.delta();
        if delta.is_empty() {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            return Ok(());
        }
        delta.save(path)
    }

    /// The live object set: base summaries in leaf-page order with
    /// tombstones filtered out, then the pending inserts in insertion
    /// order. This is the input order compaction feeds the bulk loader.
    pub fn live_summaries(&self) -> Result<Vec<ObjectSummary<D>>, StoreError> {
        let mut out = Vec::with_capacity(self.live_len);
        for page in 0..self.base.page_count() {
            let read = self.base.read_node(NodeId(page as u32))?;
            if let NodeView::Entries(entries) = read.view() {
                out.extend(entries.iter().filter(|e| !self.tombstones.contains(&e.id.0)));
            }
        }
        out.extend(self.inserted.iter().copied());
        debug_assert_eq!(out.len(), self.live_len);
        Ok(out)
    }

    /// Fold base + overlay into a freshly bulk-loaded index file and
    /// reopen it: the live set is STR-packed and written as
    /// [`PagedRTree::bulk_write`] writes it, byte for byte, and
    /// published over the index path with [`write_atomic`] — temp file,
    /// sync, rename, directory sync — and only then is the sidecar delta
    /// log removed. Consumes the overlay; the returned tree reads the
    /// rewritten file.
    ///
    /// A failure or crash before the rename leaves the old index and its
    /// sidecar untouched. The sidecar describes the *old* base, so one
    /// window remains: after the rename and before the sidecar is gone
    /// (a crash there, or a failed directory sync) the new index sits
    /// beside a stale sidecar, which [`OverlayRTree::open`] refuses
    /// with a typed error rather than replaying it — never a wrong
    /// answer; deleting the sidecar by hand yields the compacted state.
    pub fn compact(self, page_size: u32) -> Result<PagedRTree<D>, StoreError> {
        let path = self.base_file()?.to_path_buf();
        let live = self.live_summaries()?;
        let config = self.base.config();
        write_atomic(&path, |file| PagedRTree::write(&live, config, || Ok(file), page_size))?;
        match std::fs::remove_file(delta_path_for(&path)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        drop(self.base); // release the old file handle before reopening
        PagedRTree::open(&path)
    }

    /// The base tree's configuration (delta leaves chunk at its
    /// `max_entries`).
    pub fn config(&self) -> RTreeConfig {
        self.base.config()
    }
}

impl<const D: usize> NodeAccess<D> for OverlayRTree<D> {
    fn root_id(&self) -> NodeId {
        VIRTUAL_ROOT
    }

    fn root_mbr(&self) -> Mbr<D> {
        self.root_mbr
    }

    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, D>, StoreError> {
        if id == VIRTUAL_ROOT {
            return Ok(NodeRead::from_page(Arc::clone(&self.root_node), false));
        }
        if id.0 > DELTA_TOP - self.delta_leaves.len() as u32 && id.0 <= DELTA_TOP {
            let chunk = (DELTA_TOP - id.0) as usize;
            return Ok(NodeRead::from_page(Arc::clone(&self.delta_leaves[chunk]), false));
        }
        let read = self.base.read_node(id)?;
        // A leaf read hides its tombstoned entries behind a live mask; the
        // pooled page is not touched, and untouched leaves pass through.
        if self.tombstones.is_empty() {
            return Ok(read);
        }
        Ok(read.hiding(|id| self.tombstones.contains(&id.0)))
    }

    fn len(&self) -> usize {
        self.live_len
    }

    /// Base height plus the virtual root level. Overlay "leaves" are not
    /// all at one depth (delta leaves hang directly off the virtual
    /// root); best-first traversals do not care.
    fn height(&self) -> usize {
        NodeAccess::height(self.base.as_ref()) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{access, RTree, DEFAULT_PAGE_SIZE};
    use fuzzy_core::FuzzyObject;
    use fuzzy_geom::Point;

    fn summary(id: u64, x: f64, y: f64) -> ObjectSummary<2> {
        let obj = FuzzyObject::new(
            ObjectId(id),
            vec![Point::xy(x, y), Point::xy(x + 0.5, y + 0.5)],
            vec![1.0, 0.5],
        )
        .unwrap();
        ObjectSummary::from_object(&obj)
    }

    /// Grid with per-id jitter: overlay and freshly bulk-loaded trees have
    /// different shapes, so exact distance ties would legitimately resolve
    /// differently; tie-free geometry keeps answer comparisons exact.
    fn grid(n: u64) -> Vec<ObjectSummary<2>> {
        (0..n)
            .map(|i| {
                let x = (i % 20) as f64 * 1.5 + i as f64 * 1.1e-3;
                let y = (i / 20) as f64 * 1.5 + i as f64 * 0.7e-3;
                summary(i, x, y)
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fz-overlay-{}-{name}.fzpt", std::process::id()))
    }

    /// Ids of the entries whose support comes within `radius` of `q`,
    /// ascending.
    fn ids_within<A: NodeAccess<2>>(tree: &A, q: Point<2>, radius: f64) -> Vec<u64> {
        let mut ids = Vec::new();
        access::range_scan(
            tree,
            radius,
            |m| m.min_dist_point(&q),
            |leaf| {
                let near = leaf.iter().filter(|e| e.support_mbr.min_dist_point(&q) <= radius);
                ids.extend(near.map(|e| e.id.0));
            },
        )
        .unwrap();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn overlay_tracks_the_live_set() {
        let path = tmp("live");
        let cfg = RTreeConfig { max_entries: 8 };
        let base = Arc::new(PagedRTree::bulk_write(grid(150), cfg, &path, 4096).unwrap());
        let mut ov = OverlayRTree::new(Arc::clone(&base)).unwrap();
        assert_eq!(NodeAccess::len(&ov), 150);
        assert!(ov.is_clean());

        assert!(ov.delete(ObjectId(10)));
        assert!(!ov.delete(ObjectId(10)), "double delete");
        assert!(ov.insert(summary(500, 3.0, 3.0)));
        assert!(!ov.insert(summary(500, 3.0, 3.0)), "duplicate insert");
        assert!(!ov.insert(summary(12, 0.0, 0.0)), "id 12 still live in base");
        assert_eq!(NodeAccess::len(&ov), 150);
        assert!(ov.contains_id(ObjectId(500)));
        assert!(!ov.contains_id(ObjectId(10)));

        // Re-inserting a tombstoned base id shadows the stale base copy.
        assert!(ov.insert(summary(10, 99.0, 99.0)));
        let live = ov.live_summaries().unwrap();
        let copies: Vec<&ObjectSummary<2>> = live.iter().filter(|e| e.id.0 == 10).collect();
        assert_eq!(copies.len(), 1);
        assert!(copies[0].support_mbr.lo(0) >= 99.0, "new summary wins");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn searches_match_a_fresh_tree_over_the_same_live_set() {
        let path = tmp("search");
        let cfg = RTreeConfig { max_entries: 8 };
        let base = Arc::new(PagedRTree::bulk_write(grid(200), cfg, &path, 4096).unwrap());
        let mut ov = OverlayRTree::new(base).unwrap();
        for id in (0..200).step_by(3) {
            assert!(ov.delete(ObjectId(id)));
        }
        for i in 0..40u64 {
            let (x, y) = ((i % 7) as f64 * 2.0 + i as f64 * 1.3e-3, 30.0 + i as f64);
            assert!(ov.insert(summary(1000 + i, x, y)));
        }
        let fresh = RTree::bulk_load(ov.live_summaries().unwrap(), cfg);
        for q in [Point::xy(0.0, 0.0), Point::xy(14.0, 36.0), Point::xy(100.0, -5.0)] {
            for radius in [0.0, 1.0, 4.0, 50.0] {
                let want = ids_within(&fresh, q, radius);
                assert_eq!(ids_within(&ov, q, radius), want, "q={q:?} radius={radius}");
            }
        }
        // Compacting at the image's page size writes the image's bytes.
        ov.compact(fresh.page_size()).unwrap();
        assert_eq!(fresh.image(), Some(&std::fs::read(&path).unwrap()[..]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delta_roundtrip_and_compact() {
        let path = tmp("compact");
        let cfg = RTreeConfig { max_entries: 8 };
        {
            let base = Arc::new(PagedRTree::bulk_write(grid(120), cfg, &path, 4096).unwrap());
            let mut ov = OverlayRTree::new(base).unwrap();
            for id in [5u64, 50, 119] {
                assert!(ov.delete(ObjectId(id)));
            }
            for i in 0..10u64 {
                assert!(ov.insert(summary(2000 + i, i as f64, -4.0)));
            }
            ov.save_delta().unwrap();
        }
        // A fresh open sees the sidecar.
        let ov: OverlayRTree<2> = OverlayRTree::open(&path).unwrap();
        assert_eq!(NodeAccess::len(&ov), 127);
        assert_eq!(ov.pending_inserts(), 10);
        assert_eq!(ov.pending_tombstones(), 3);
        let want = {
            let mut ids: Vec<u64> = ov.live_summaries().unwrap().iter().map(|e| e.id.0).collect();
            ids.sort_unstable();
            ids
        };
        // Compaction folds the delta into the file and removes the sidecar.
        let compacted = ov.compact(4096).unwrap();
        assert_eq!(NodeAccess::len(&compacted), 127);
        assert!(!delta_path_for(&path).exists());
        let reopened: OverlayRTree<2> = OverlayRTree::open(&path).unwrap();
        assert!(reopened.is_clean());
        let mut got: Vec<u64> = reopened.live_summaries().unwrap().iter().map(|e| e.id.0).collect();
        got.sort_unstable();
        assert_eq!(got, want);
        std::fs::remove_file(&path).unwrap();
    }

    /// A compaction interrupted at any boundary of its `write_atomic` —
    /// temp creation, each page write, the file sync, the rename — reopens
    /// as exactly the old state: old base, sidecar intact, same pending
    /// counts, same live set. Uninterrupted it reopens as the new state. A
    /// fault at the directory sync is the one documented window: the new
    /// base is in place, the sidecar that described the old base is still
    /// there and is refused with a typed error, and removing it yields
    /// the new state.
    #[test]
    fn a_fault_at_every_boundary_of_a_compaction_leaves_the_old_or_the_new_state() {
        use fuzzy_store::atomic::WRITE_ATOMIC_FAIL_AT;
        let path = tmp("compact-faults");
        let cfg = RTreeConfig { max_entries: 8 };
        let live_ids = |ov: &OverlayRTree<2>| {
            let mut ids: Vec<u64> = ov.live_summaries().unwrap().iter().map(|e| e.id.0).collect();
            ids.sort_unstable();
            ids
        };

        // What reopening found after a fault at each boundary, in order.
        let mut reopened_as = Vec::new();
        let mut want: Option<Vec<u64>> = None;
        loop {
            // The old state, from scratch: a base of 120, 3 tombstones and
            // 10 inserts in the sidecar.
            let base = Arc::new(PagedRTree::bulk_write(grid(120), cfg, &path, 4096).unwrap());
            let mut ov = OverlayRTree::new(base).unwrap();
            for id in [5u64, 50, 119] {
                assert!(ov.delete(ObjectId(id)));
            }
            for i in 0..10u64 {
                assert!(ov.insert(summary(2000 + i, i as f64, -4.0)));
            }
            ov.save_delta().unwrap();
            let want = want.get_or_insert_with(|| live_ids(&ov));
            let old_pages = ov.base().page_count();
            drop(ov);

            let boundary = reopened_as.len();
            let ov: OverlayRTree<2> = OverlayRTree::open(&path).unwrap();
            WRITE_ATOMIC_FAIL_AT.with(|f| f.set(Some(boundary)));
            let result = ov.compact(4096);
            let fired = WRITE_ATOMIC_FAIL_AT.with(|f| f.replace(None)).is_none();
            if !fired {
                result.expect("no boundary left to fail");
                let reopened: OverlayRTree<2> = OverlayRTree::open(&path).unwrap();
                assert!(reopened.is_clean() && !delta_path_for(&path).exists());
                assert_eq!(&live_ids(&reopened), want);
                break;
            }
            assert!(matches!(result, Err(StoreError::Io(_))), "boundary {boundary}");
            assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
            match OverlayRTree::<2>::open(&path) {
                Ok(reopened) => {
                    assert_eq!(
                        (reopened.pending_inserts(), reopened.pending_tombstones()),
                        (10, 3),
                        "boundary {boundary}: neither old nor new"
                    );
                    assert_eq!(reopened.base().page_count(), old_pages, "boundary {boundary}");
                    assert_eq!(&live_ids(&reopened), want, "boundary {boundary}");
                    reopened_as.push("old");
                }
                Err(StoreError::Corrupt { .. }) => {
                    std::fs::remove_file(delta_path_for(&path)).unwrap();
                    let reopened: OverlayRTree<2> = OverlayRTree::open(&path).unwrap();
                    assert!(reopened.is_clean());
                    assert_eq!(&live_ids(&reopened), want, "boundary {boundary}");
                    reopened_as.push("new beside a stale sidecar");
                }
                Err(e) => panic!("boundary {boundary}: reopen failed with {e}"),
            }
        }
        // create + one write per BufWriter flush + sync + rename: old; the
        // directory sync: new beside the stale sidecar.
        assert!(reopened_as.len() >= 8, "only {} boundaries crossed", reopened_as.len());
        let (dir_sync, before_rename) = reopened_as.split_last().unwrap();
        assert!(before_rename.iter().all(|&state| state == "old"), "{reopened_as:?}");
        assert_eq!(*dir_sync, "new beside a stale sidecar");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incremental_virtual_maintenance_matches_full_rebuild() {
        // insert() maintains the delta leaves incrementally (only the
        // tail chunk is re-materialized) and tombstones skip the rebuild
        // entirely; the result must be indistinguishable from an overlay
        // rebuilt from scratch off the same delta log.
        let path = tmp("incremental");
        let cfg = RTreeConfig { max_entries: 8 };
        let base = Arc::new(PagedRTree::bulk_write(grid(100), cfg, &path, 4096).unwrap());
        let mut ov = OverlayRTree::new(Arc::clone(&base)).unwrap();
        let mut state = 0xABCDu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..60u64 {
            match rnd() % 3 {
                0 => {
                    ov.delete(ObjectId(rnd() % 100));
                }
                1 => {
                    ov.delete(ObjectId(1000 + rnd() % 60));
                }
                _ => {
                    ov.insert(summary(1000 + i, (i % 9) as f64, 50.0 + i as f64 * 0.1));
                }
            }
        }
        let rebuilt = OverlayRTree::with_delta(Arc::clone(&base), ov.delta()).unwrap();
        assert_eq!(NodeAccess::len(&ov), NodeAccess::len(&rebuilt));
        assert_eq!(ov.root_mbr(), rebuilt.root_mbr());
        assert_eq!(ov.delta_leaves.len(), rebuilt.delta_leaves.len());
        for (a, b) in ov.delta_leaves.iter().zip(&rebuilt.delta_leaves) {
            match (a.as_ref(), b.as_ref()) {
                (DecodedNode::Leaf(x), DecodedNode::Leaf(y)) => {
                    assert!(x.view().ids().eq(y.view().ids()));
                }
                _ => panic!("delta chunks must be leaves"),
            }
        }
        for q in [Point::xy(3.0, 52.0), Point::xy(20.0, 10.0)] {
            assert_eq!(ids_within(&ov, q, 3.0), ids_within(&rebuilt, q, 3.0), "q={q:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn inconsistent_delta_logs_are_rejected() {
        let path = tmp("reject");
        let cfg = RTreeConfig { max_entries: 8 };
        let base = Arc::new(PagedRTree::bulk_write(grid(30), cfg, &path, 4096).unwrap());
        // Tombstone for an id the file does not store.
        let bad = DeltaLog::<2> { inserted: vec![], tombstones: vec![999] };
        assert!(matches!(
            OverlayRTree::with_delta(Arc::clone(&base), bad).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        // Insert colliding with a live base id.
        let bad = DeltaLog::<2> { inserted: vec![summary(3, 0.0, 0.0)], tombstones: vec![] };
        assert!(matches!(
            OverlayRTree::with_delta(Arc::clone(&base), bad).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// Replay keeps the pending ids in a set beside the inserts: it still
    /// refuses an id inserted twice and an insert of a live base id, while
    /// a tombstoned base id may be inserted again — also at thousands of
    /// pending inserts, where a linear scan per insert was quadratic.
    #[test]
    fn replay_refuses_a_duplicated_insert_and_a_live_base_id() {
        let base = Arc::new(RTree::bulk_load(grid(30), RTreeConfig { max_entries: 8 }));
        let many: Vec<ObjectSummary<2>> =
            (0..5_000).map(|i| summary(1_000 + i, (i % 70) as f64, (i / 70) as f64)).collect();
        let refused = |inserted: Vec<ObjectSummary<2>>, tombstones: Vec<u64>, id: u64| {
            let delta = DeltaLog::<2> { inserted, tombstones };
            let err = OverlayRTree::with_delta(Arc::clone(&base), delta).unwrap_err();
            let want = format!("delta log inserts id {id} which is already live");
            assert!(err.to_string().contains(&want), "{err}");
        };
        // The same pending id twice: adjacent, and far apart.
        refused(vec![summary(100, 0.0, 0.0), summary(100, 1.0, 1.0)], vec![], 100);
        let mut twice = many.clone();
        twice.push(many[17]);
        refused(twice, vec![], many[17].id.0);
        // A base id that no tombstone hides, alone and behind the others.
        refused(vec![summary(3, 0.0, 0.0)], vec![], 3);
        let mut live = many.clone();
        live.push(summary(29, 0.0, 0.0));
        refused(live, vec![4], 29);
        // A tombstoned base id inserted again, once, is accepted; twice is not.
        let mut back = many.clone();
        back.push(summary(4, 50.0, 50.0));
        let delta = DeltaLog::<2> { inserted: back.clone(), tombstones: vec![4] };
        let ov = OverlayRTree::with_delta(Arc::clone(&base), delta).unwrap();
        assert_eq!((ov.pending_inserts(), NodeAccess::len(&ov)), (5_001, 30 + 5_000));
        assert!(ov.contains_id(ObjectId(4)) && ov.contains_id(ObjectId(5_999)));
        back.push(summary(4, 60.0, 60.0));
        refused(back, vec![4], 4);
    }

    /// A clone (what every publish makes) and a sidecar reload share the
    /// open base and its id column; the reload sees the sidecar as saved and
    /// holds it to the same checks as a fresh open.
    #[test]
    fn clones_and_sidecar_reloads_share_the_base_and_its_ids() {
        let path = tmp("reload");
        let cfg = RTreeConfig { max_entries: 8 };
        let base = Arc::new(PagedRTree::bulk_write(grid(60), cfg, &path, 4096).unwrap());
        let served = OverlayRTree::new(base).unwrap();
        let published = served.clone();
        assert!(Arc::ptr_eq(&served.base, &published.base));
        assert!(Arc::ptr_eq(&served.base_ids, &published.base_ids));

        let mut writer: OverlayRTree<2> = OverlayRTree::open(&path).unwrap();
        assert!(writer.delete(ObjectId(9)) && writer.insert(summary(700, 1.0, 1.0)));
        writer.save_delta().unwrap();
        let reloaded = served.reload_delta().unwrap();
        assert!(Arc::ptr_eq(&served.base, &reloaded.base));
        assert!(Arc::ptr_eq(&served.base_ids, &reloaded.base_ids));
        assert!(!reloaded.contains_id(ObjectId(9)) && reloaded.contains_id(ObjectId(700)));
        assert_eq!(NodeAccess::len(&reloaded), 60);
        assert!(served.is_clean() && served.contains_id(ObjectId(9)), "the source is untouched");
        let q = Point::xy(1.0, 1.0);
        assert_eq!(ids_within(&reloaded, q, 2.0), ids_within(&writer, q, 2.0));

        let stale = DeltaLog::<2> { inserted: vec![], tombstones: vec![999] };
        stale.save(delta_path_for(&path)).unwrap();
        assert!(matches!(served.reload_delta().unwrap_err(), StoreError::Corrupt { .. }));

        std::fs::remove_file(delta_path_for(&path)).unwrap();
        assert!(served.reload_delta().unwrap().is_clean(), "no sidecar is the empty delta");
        std::fs::remove_file(&path).unwrap();
    }

    /// An image base has no file: the overlay edits in memory and answers,
    /// but saving or reloading a sidecar and compacting are typed errors
    /// that create nothing — not even `.fzdl` in the working directory,
    /// where the sidecar of an empty path would go.
    #[test]
    fn an_image_base_refuses_file_operations_and_creates_nothing() {
        let base = Arc::new(RTree::bulk_load(grid(40), RTreeConfig { max_entries: 8 }));
        let mut ov = OverlayRTree::new(base).unwrap();
        assert!(ov.delete(ObjectId(3)) && ov.insert(summary(900, 0.25, 0.25)));
        assert_eq!(ids_within(&ov, Point::xy(0.0, 0.0), 1.0), vec![0, 900]);
        let stray = delta_path_for(ov.base().path());
        assert_eq!(stray, Path::new(".fzdl"));
        assert!(matches!(ov.save_delta(), Err(StoreError::NoFile)));
        assert!(matches!(ov.reload_delta(), Err(StoreError::NoFile)));
        assert!(matches!(ov.clone().compact(DEFAULT_PAGE_SIZE), Err(StoreError::NoFile)));
        assert!(!stray.exists() && !Path::new(".tmp").exists());
        assert_eq!(NodeAccess::len(&ov), 40, "the overlay is untouched");
    }

    #[test]
    fn empty_base_supports_pure_insert_workloads() {
        let path = tmp("emptybase");
        let base = Arc::new(
            PagedRTree::bulk_write(Vec::new(), RTreeConfig::default(), &path, 16 * 1024).unwrap(),
        );
        let mut ov = OverlayRTree::new(base).unwrap();
        assert!(NodeAccess::is_empty(&ov));
        for i in 0..100u64 {
            assert!(ov.insert(summary(i, (i % 10) as f64, (i / 10) as f64)));
        }
        assert_eq!(NodeAccess::len(&ov), 100);
        assert_eq!(ids_within(&ov, Point::xy(0.0, 0.0), 0.25), vec![0]);
        std::fs::remove_file(&path).unwrap();
    }
}
