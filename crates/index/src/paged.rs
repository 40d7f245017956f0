//! The R-tree: `PagedRTree`, one reader over two byte sources.
//!
//! A tree is a single index file of checksummed pages — one node per page,
//! each exactly as long as its node — read back through an LRU buffer pool
//! ([`fuzzy_store::PageCache`]), so node accesses are real positioned
//! reads and the per-query disk/cache split is measured, not simulated.
//! The bytes come from a [`ByteSource`]: the file itself
//! ([`PagedRTree::open`]), or an image of it in memory
//! ([`PagedRTree::bulk_load`], [`PagedRTree::from_image`]) — an in-memory
//! tree is exactly the file's bytes, behind the same header, trailer and
//! page-table checks, the same page loader and the same pool. An image's
//! pool holds every page, so each is loaded once, and its reads report
//! no disk read.
//!
//! The byte-level layout (normative spec: `docs/FORMAT.md`):
//!
//! ```text
//! [ header     ] magic "FZPT" | version | dims | page size | tree shape
//!                | root MBR | checksum
//! [ node pages ] page i = node i: kind u8, count u32, payload
//!                (internal: child id + child MBR per entry; leaf: a
//!                **columnar summary block** — ids, point counts, then one
//!                contiguous f64 column per summary field), checksum
//! [ id column  ] count + every stored object id, ascending + checksum
//! [ page table ] count + (byte offset, length) per page + checksum
//! [ trailer    ] page-table offset | id-column offset | page count | magic
//! ```
//!
//! Every checksum is the four-lane [`fnv1a_lanes`]. A page miss reads
//! exactly the page's bytes and checks them, the checksum's verdict
//! first. An internal node is decoded while the checksum lanes fold it. A
//! leaf is not decoded at all: its page's bytes are kept as they were
//! read ([`LeafPage`]), once one pass per column has checked its
//! rectangles. The node is cached, and every subsequent probe borrows it
//! straight from the cached page (`Arc`-guarded [`NodeRead`]) — a leaf
//! as its summary columns ([`crate::LeafView`]), with no per-read and no
//! per-miss rebuilding of summaries. The id column is read only when
//! asked for ([`PagedRTree::stored_ids`], what an overlay does at open).
//!
//! Writing computes the STR packing (`crates/index/src/bulk.rs`) and
//! encodes each node's page straight from it, into one reused page buffer
//! — no in-memory tree and no copy of the entries — to a file
//! ([`PagedRTree::bulk_write`]) or to an image ([`PagedRTree::bulk_load`]).
//! Page numbers are that packing's node ids (leaves in group order, then
//! each upper level, the root last).

use crate::access::{ChildRef, DecodedNode, NodeAccess, NodeRead};
use crate::bulk::StrPacking;
use crate::leaf::{encode_leaf_entries, leaf_entry_len, LeafPage};
use crate::node::{NodeId, RTreeConfig};
use fuzzy_core::ObjectSummary;
use fuzzy_geom::Mbr;
use fuzzy_store::format::{fnv1a_lanes, ChecksumWalk, Decoder, Encoder, LANES};
use fuzzy_store::pagecache::{PageCache, PageCacheStats};
use fuzzy_store::{ByteSource, StoreError};
use std::fs::{File, Metadata};
use std::io::{BufWriter, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Index-file magic ("FuZzy Paged Tree").
pub const PAGED_MAGIC: [u8; 4] = *b"FZPT";
/// Index-file format version understood by this build. Version 3 switched
/// leaf pages to a columnar block layout ([`crate::leaf`]). Version
/// 4 stores each page unpadded, exactly its node's bytes, under the
/// four-lane checksum [`fnv1a_lanes`], with each page's length in the
/// page table, and adds the sorted id column an overlay opens from.
pub const PAGED_VERSION: u16 = 4;
/// Trailer length in bytes: page-table offset, id-column offset, page
/// count, reserved, magic.
pub const PAGED_TRAILER_LEN: usize = 8 + 8 + 8 + 4 + 4;
/// Per-page overhead: kind byte, 3 reserved bytes, entry count, checksum.
pub const PAGE_OVERHEAD: usize = 8 + 8;
/// Default page size: the largest node a page may hold (a 64-entry 2-D
/// leaf fits with room to spare).
pub const DEFAULT_PAGE_SIZE: u32 = 16 * 1024;
/// Smallest accepted page size.
pub const MIN_PAGE_SIZE: u32 = 256;
/// Default buffer-pool capacity in pages.
pub const DEFAULT_CACHE_PAGES: usize = 1024;
/// Largest nodes the writer buffers before each write to the file.
const WRITE_RUN_PAGES: usize = 4;

/// The header's reserved 8 bytes at offset 48, written as this `f64` and
/// never read: older builds stored a split fill fraction there, always 0.4
/// by default, so files keep their bytes.
const RESERVED_FILL: f64 = 0.4;

/// Fixed-size part of the header, before the root MBR.
const HEADER_FIXED_LEN: usize = 4 + 2 + 2 + 4 + 4 + 8 + 8 + 8 + 8 + 8;

/// Total header length for dimensionality `d` (fixed fields, `2·d` f64
/// root-MBR bounds, checksum).
pub const fn paged_header_len(d: usize) -> usize {
    HEADER_FIXED_LEN + 16 * d + 8
}

fn corrupt(reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt { reason: reason.into() }
}

/// Which file, and which state of it: device, inode, length, and the
/// modification and status-change times in nanoseconds. A rename-replace
/// changes the inode; any write or truncation changes the times.
type FileStamp = (u64, u64, u64, i128, i128);

fn file_stamp(meta: &Metadata) -> FileStamp {
    let nanos = |secs: i64, nsec: i64| secs as i128 * 1_000_000_000 + nsec as i128;
    (
        meta.dev(),
        meta.ino(),
        meta.len(),
        nanos(meta.mtime(), meta.mtime_nsec()),
        nanos(meta.ctime(), meta.ctime_nsec()),
    )
}

/// Per-entry cost of an internal node: child page number (u64) and the
/// child's MBR.
const fn internal_entry_len(d: usize) -> usize {
    8 + 16 * d
}

/// Largest payload any node of this tree can need, in bytes.
fn max_node_payload<const D: usize>(max_entries: usize) -> usize {
    max_entries * internal_entry_len(D).max(leaf_entry_len(D))
}

/// The page size of an in-memory image: the smallest multiple of 8, at
/// least [`MIN_PAGE_SIZE`], that fits the largest node `max_entries`
/// allows.
pub(crate) fn image_page_size<const D: usize>(max_entries: usize) -> u32 {
    let needed = (max_node_payload::<D>(max_entries) + PAGE_OVERHEAD).next_multiple_of(8);
    u32::try_from(needed).expect("a node fits a u32-sized page").max(MIN_PAGE_SIZE)
}

/// Seal `bytes` with its [`fnv1a_lanes`] checksum.
fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a_lanes(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Split a sealed section into its body and whether its checksum holds.
fn unseal(bytes: &[u8]) -> (&[u8], bool) {
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    (body, Decoder::new(sum).u64() == Ok(fnv1a_lanes(body)))
}

/// Finish the node whose payload fills `page[8..used]` — kind byte, entry
/// count, checksum — and write its `used + 8` bytes to `out`; returns the
/// page's length.
fn write_page(
    out: &mut impl Write,
    page: &mut [u8],
    kind: u8,
    count: usize,
    used: usize,
) -> std::io::Result<u64> {
    page[..4].copy_from_slice(&[kind, 0, 0, 0]);
    page[4..8].copy_from_slice(&(count as u32).to_le_bytes());
    let sum = fnv1a_lanes(&page[..used]);
    page[used..used + 8].copy_from_slice(&sum.to_le_bytes());
    out.write_all(&page[..used + 8])?;
    Ok((used + 8) as u64)
}

/// Encode an MBR as `D × (lo, hi)` f64 pairs.
fn encode_mbr<const D: usize>(e: &mut Encoder, mbr: &Mbr<D>) {
    for i in 0..D {
        e.f64(mbr.lo(i));
        e.f64(mbr.hi(i));
    }
}

/// Decode an MBR; the all-inverted sentinel decodes as [`Mbr::empty`]
/// (only the root of an empty tree legitimately stores it).
fn decode_mbr<const D: usize>(d: &mut Decoder<'_>) -> Result<Mbr<D>, StoreError> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for i in 0..D {
        lo[i] = d.f64()?;
        hi[i] = d.f64()?;
    }
    if (0..D).all(|i| lo[i] <= hi[i]) {
        Ok(Mbr::new(lo, hi))
    } else if (0..D).all(|i| lo[i] == f64::INFINITY && hi[i] == f64::NEG_INFINITY) {
        Ok(Mbr::empty())
    } else {
        Err(corrupt("inverted MBR in node page"))
    }
}

/// What [`PagedRTree::load_page`]'s decode found in a page.
enum Page<const D: usize> {
    /// An internal node's children.
    Internal(Vec<ChildRef<D>>),
    /// A leaf of this many entries.
    Leaf(usize),
}

/// The R-tree, read from an index file or an in-memory image of one. All
/// read paths are `&self` and thread-safe: pages are fetched with
/// positioned reads and shared through the buffer pool, exactly like
/// [`fuzzy_store::FileStore`] probes objects. A built tree is never
/// edited, only replaced (compaction writes a new file; an overlay holds
/// pending changes beside it).
///
/// ```
/// use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
/// use fuzzy_geom::Point;
/// use fuzzy_index::{NodeAccess, PagedRTree, RTreeConfig};
///
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
/// let path = std::env::temp_dir().join(format!("fzpt-doc-{}.fzpt", std::process::id()));
/// // Build with STR packing and persist; returns the opened tree.
/// let cfg = RTreeConfig { max_entries: 16 };
/// let tree = PagedRTree::bulk_write(summaries, cfg, &path, 4096).unwrap();
/// assert_eq!(tree.len(), 100);
/// assert!(tree.height() >= 2);
///
/// // Every node read goes through the buffer pool and reports provenance.
/// let root = tree.read_node(tree.root_id()).unwrap();
/// assert!(root.disk_read); // cold pool: first read hits the file
/// assert!(!tree.read_node(tree.root_id()).unwrap().disk_read); // now cached
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct PagedRTree<const D: usize> {
    source: ByteSource,
    /// The index file; empty for an image.
    path: PathBuf,
    /// The file's [`FileStamp`] when it was opened, before any read; `None`
    /// for an image.
    opened_as: Option<FileStamp>,
    page_size: u32,
    /// Each page's byte offset and length, by page number.
    pages: Vec<(u64, u32)>,
    /// Byte offset of the id column.
    ids_at: u64,
    root: NodeId,
    root_mbr: Mbr<D>,
    height: usize,
    len: usize,
    config: RTreeConfig,
    cache: PageCache<DecodedNode<D>>,
}

impl<const D: usize> PagedRTree<D> {
    /// STR-pack `entries`, write the tree to `path` and open it.
    /// `config.max_entries` must be at least 2
    /// ([`StoreError::FanoutTooSmall`] otherwise) and `page_size` must fit
    /// the largest node it implies and be at least [`MIN_PAGE_SIZE`]
    /// ([`StoreError::PageOverflow`] otherwise); a refused write creates
    /// nothing.
    pub fn bulk_write(
        entries: Vec<ObjectSummary<D>>,
        config: RTreeConfig,
        path: impl AsRef<Path>,
        page_size: u32,
    ) -> Result<Self, StoreError> {
        Self::write(&entries, config, || File::create(path.as_ref()), page_size)?;
        drop(entries);
        Self::open(path)
    }

    /// STR-pack `entries` and write the tree into whatever `open` yields
    /// (compaction hands it the temp file of `fuzzy_store::write_atomic`,
    /// [`PagedRTree::bulk_load`] a `Vec`):
    /// the header, then every node's page in node-id order, encoded from
    /// the packing through one reused page buffer, then the id column and
    /// the page table. `open` runs only once the configuration is known to
    /// fit, so a refused write creates nothing.
    pub(crate) fn write<W: Write>(
        entries: &[ObjectSummary<D>],
        config: RTreeConfig,
        open: impl FnOnce() -> std::io::Result<W>,
        page_size: u32,
    ) -> Result<(), StoreError> {
        if config.max_entries < 2 {
            return Err(StoreError::FanoutTooSmall { max_entries: config.max_entries });
        }
        // A page holds the largest node the fan-out allows, and is never
        // smaller than the format's minimum.
        let needed = (max_node_payload::<D>(config.max_entries) + PAGE_OVERHEAD)
            .max(MIN_PAGE_SIZE as usize) as u64;
        if needed > page_size as u64 {
            return Err(StoreError::PageOverflow { needed, page_size });
        }
        let (order, packing) = StrPacking::new(entries, config.max_entries);
        let mut out = BufWriter::with_capacity(WRITE_RUN_PAGES * needed as usize, open()?);

        // Header.
        let root = packing.root();
        let mut header = Encoder::with_capacity(paged_header_len(D));
        header.bytes(&PAGED_MAGIC);
        header.u16(PAGED_VERSION);
        header.u16(D as u16);
        header.u32(page_size);
        header.u32(config.max_entries as u32);
        header.u64(packing.mbrs.len() as u64);
        header.u64(root.0 as u64);
        header.u64(packing.height as u64);
        header.u64(entries.len() as u64);
        header.f64(RESERVED_FILL);
        encode_mbr(&mut header, packing.mbr(root));
        let header = seal(header.into_bytes());
        debug_assert_eq!(header.len(), paged_header_len(D));
        out.write_all(&header)?;

        // Node pages, node id == page number: the leaves, then each upper
        // level, back to back. The size check above makes every node fit
        // the buffer. A leaf's entries are gathered before they are
        // encoded: the copies are independent loads, so their cache misses
        // overlap.
        let mut page = vec![0u8; needed as usize];
        let mut lens = Vec::with_capacity(packing.mbrs.len());
        let mut gathered = Vec::with_capacity(config.max_entries);
        for leaf in packing.leaves() {
            gathered.clear();
            gathered.extend(order[leaf].iter().map(|&i| entries[i as usize]));
            let used = 8 + gathered.len() * leaf_entry_len(D);
            encode_leaf_entries(&mut page[8..used], &gathered);
            lens.push(write_page(&mut out, &mut page, 0, gathered.len(), used)?);
        }
        for children in &packing.internal {
            let mut used = 8;
            for child in children {
                let bounds =
                    (0..D).flat_map(|i| [child.mbr.lo(i).to_bits(), child.mbr.hi(i).to_bits()]);
                for word in std::iter::once(child.id.0 as u64).chain(bounds) {
                    page[used..used + 8].copy_from_slice(&word.to_le_bytes());
                    used += 8;
                }
            }
            lens.push(write_page(&mut out, &mut page, 1, children.len(), used)?);
        }

        // Id column: every stored id, ascending.
        let mut ids: Vec<u64> = entries.iter().map(|e| e.id.0).collect();
        ids.sort_unstable();
        let mut column = Encoder::with_capacity(16 + 8 * ids.len());
        column.u64(ids.len() as u64);
        for id in ids {
            column.u64(id);
        }
        let column = seal(column.into_bytes());
        out.write_all(&column)?;

        // Page table + trailer.
        let pages = lens.len() as u64;
        let mut table = Encoder::with_capacity(16 + 16 * lens.len());
        table.u64(pages);
        let mut at = paged_header_len(D) as u64;
        for len in lens {
            table.u64(at);
            table.u64(len);
            at += len;
        }
        let table = seal(table.into_bytes());
        let (ids_at, table_at) = (at, at + column.len() as u64);
        let mut trailer = Encoder::with_capacity(PAGED_TRAILER_LEN);
        trailer.u64(table_at);
        trailer.u64(ids_at);
        trailer.u64(pages);
        trailer.u32(0); // reserved
        trailer.bytes(&PAGED_MAGIC);
        out.write_all(&table)?;
        out.write_all(trailer.as_bytes())?;
        out.flush()?;
        Ok(())
    }

    /// Open an index file with the default buffer-pool capacity
    /// ([`DEFAULT_CACHE_PAGES`]).
    ///
    /// ```no_run
    /// use fuzzy_index::{NodeAccess, PagedRTree};
    ///
    /// let tree: PagedRTree<2> = PagedRTree::open("dataset.fzpt").unwrap();
    /// println!("{} objects, height {}", tree.len(), tree.height());
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_cache(path, DEFAULT_CACHE_PAGES)
    }

    /// Open an index file with an explicit buffer-pool capacity in pages
    /// (minimum 1 — capacity 1 still answers every query, it just reads
    /// every node from disk).
    pub fn open_with_cache(path: impl AsRef<Path>, cache_pages: usize) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let opened_as = Some(file_stamp(&file.metadata()?));
        Self::read(ByteSource::File(file), path, opened_as, cache_pages)
    }

    /// Open the index whose file's bytes are `image`, held in memory, with
    /// [`PagedRTree::open`]'s checks. The pool holds every page, so each
    /// is loaded and checked once; reads report no disk read.
    pub fn from_image(image: impl Into<Arc<[u8]>>) -> Result<Self, StoreError> {
        let mut tree = Self::read(ByteSource::Image(image.into()), PathBuf::new(), None, 1)?;
        tree.cache = PageCache::new(tree.page_count());
        Ok(tree)
    }

    /// Check the header, trailer and page table of `source` and open it
    /// behind a pool of `cache_pages` pages. Neither a node page nor the
    /// id column is read.
    fn read(
        source: ByteSource,
        path: PathBuf,
        opened_as: Option<FileStamp>,
        cache_pages: usize,
    ) -> Result<Self, StoreError> {
        let total = source.len()?;
        let header_len = paged_header_len(D);
        if total < (header_len + PAGED_TRAILER_LEN) as u64 {
            return Err(corrupt("file shorter than header + trailer"));
        }

        // Header.
        let mut head = vec![0u8; header_len];
        source.read_exact_at(&mut head, 0)?;
        if head[..4] != PAGED_MAGIC {
            return Err(corrupt("bad magic in index header"));
        }
        let (payload, sealed) = unseal(&head);
        let mut d = Decoder::new(&payload[4..]);
        let version = d.u16()?;
        if version != PAGED_VERSION {
            return Err(StoreError::VersionMismatch { found: version, expected: PAGED_VERSION });
        }
        let dims = d.u16()?;
        if dims as usize != D {
            return Err(StoreError::DimensionMismatch { found: dims, expected: D as u16 });
        }
        if !sealed {
            return Err(corrupt("index header checksum mismatch"));
        }
        let page_size = d.u32()?;
        let max_entries = d.u32()? as usize;
        let page_count = d.u64()?;
        let root_page = d.u64()?;
        let height = d.u64()? as usize;
        let len = d.u64()?;
        d.f64()?; // reserved (RESERVED_FILL), not read
        let root_mbr = decode_mbr::<D>(&mut d)?;
        if page_size < MIN_PAGE_SIZE || page_count == 0 || page_count > u32::MAX as u64 {
            return Err(corrupt(format!(
                "implausible geometry: page size {page_size}, {page_count} pages"
            )));
        }
        // The root is written last.
        if root_page != page_count - 1 || height == 0 || max_entries < 2 {
            return Err(corrupt(format!(
                "implausible tree shape: root page {root_page} of {page_count}, height {height}, \
                 node capacity {max_entries}"
            )));
        }

        // Trailer: the page table ends where the trailer starts, and the id
        // column, one id per indexed object, ends where the table starts.
        // Checked arithmetic: a bit-rotted offset or count near u64::MAX
        // must surface as Corrupt, not as a debug-build overflow panic.
        let mut tail = [0u8; PAGED_TRAILER_LEN];
        source.read_exact_at(&mut tail, total - PAGED_TRAILER_LEN as u64)?;
        if tail[PAGED_TRAILER_LEN - 4..] != PAGED_MAGIC {
            return Err(corrupt("bad magic in index trailer"));
        }
        let mut t = Decoder::new(&tail);
        let (table_at, ids_at, trailer_count) = (t.u64()?, t.u64()?, t.u64()?);
        if trailer_count != page_count {
            return Err(corrupt(format!(
                "trailer says {trailer_count} pages, header says {page_count}"
            )));
        }
        let table_len = 16 + 16 * page_count;
        let table_end = table_at.checked_add(table_len + PAGED_TRAILER_LEN as u64);
        if table_end != Some(total) {
            return Err(corrupt("page table offset inconsistent with file size"));
        }
        let ids_end = len.checked_mul(8).and_then(|ids| ids.checked_add(16)?.checked_add(ids_at));
        if ids_at < header_len as u64 || ids_end != Some(table_at) {
            return Err(corrupt(format!(
                "id column at {ids_at} inconsistent with {len} objects and the page table at \
                 {table_at}"
            )));
        }

        // Page table: pages ascend without overlapping, each at least a
        // node's fixed part and at most a page, between header and id column.
        let mut table = vec![0u8; table_len as usize];
        source.read_exact_at(&mut table, table_at)?;
        let (payload, sealed) = unseal(&table);
        if !sealed {
            return Err(corrupt("page table checksum mismatch"));
        }
        let mut pt = Decoder::new(payload);
        let count = pt.u64()?;
        if count != page_count {
            return Err(corrupt(format!("page table lists {count} pages, expected {page_count}")));
        }
        let mut pages = Vec::with_capacity(page_count as usize);
        let mut free_from = header_len as u64;
        for i in 0..page_count {
            let (at, page_len) = (pt.u64()?, pt.u64()?);
            let end = at.checked_add(page_len).filter(|&end| at >= free_from && end <= ids_at);
            let Some(end) = end else {
                return Err(corrupt(format!(
                    "page {i} ({page_len} bytes at {at}) overlaps the page before it or leaves \
                     the page region"
                )));
            };
            if !(PAGE_OVERHEAD as u64..=page_size as u64).contains(&page_len) {
                return Err(corrupt(format!(
                    "page {i} is {page_len} bytes, not a node of at most {page_size}"
                )));
            }
            pages.push((at, page_len as u32));
            free_from = end;
        }

        Ok(Self {
            source,
            path,
            opened_as,
            page_size,
            pages,
            ids_at,
            root: NodeId(root_page as u32),
            root_mbr,
            height,
            len: len as usize,
            config: RTreeConfig { max_entries },
            cache: PageCache::new(cache_pages),
        })
    }

    /// Read one page from disk (bypasses the buffer pool): its bytes and
    /// no more. The checksum's verdict comes first: a mismatch outranks
    /// every error the page's fields show. An internal page is decoded
    /// while the checksum lanes fold it — each child decoded folds its
    /// share of the page's words, the rest after the last — so the decode
    /// runs in the checksum's shadow. A leaf page is kept as its bytes,
    /// once its rectangles pass the column checks of [`LeafPage`].
    fn load_page(&self, id: NodeId) -> Result<DecodedNode<D>, StoreError> {
        let (at, len) = self.pages[id.0 as usize];
        let mut buf = vec![0u8; len as usize];
        self.source.read_exact_at(&mut buf, at)?;
        let (payload, sum_bytes) = buf.split_at(len as usize - 8);
        let stored = Decoder::new(sum_bytes).u64()?;
        let mut walk = ChecksumWalk::lanes(payload);
        let node = self.decode_page(id, payload, &mut walk);
        if walk.finish() != stored {
            return Err(corrupt(format!("page {} checksum mismatch", id.0)));
        }
        match node? {
            Page::Internal(children) => Ok(DecodedNode::Internal(children)),
            Page::Leaf(count) => LeafPage::checked(buf, count).map(DecodedNode::Leaf),
        }
    }

    /// The node in a page's `payload`, decoded while `walk` folds it (an
    /// internal node), or its entry count (a leaf, read in place). The
    /// payload must be exactly the kind byte, count and `count` entries.
    fn decode_page(
        &self,
        id: NodeId,
        payload: &[u8],
        walk: &mut ChecksumWalk<'_, LANES>,
    ) -> Result<Page<D>, StoreError> {
        let mut d = Decoder::new(payload);
        let kind = d.bytes(4)?[0];
        let count = d.u32()? as usize;
        if count > self.config.max_entries {
            return Err(corrupt(format!(
                "page {} declares {count} entries, node capacity is {}",
                id.0, self.config.max_entries
            )));
        }
        let entry_len = match kind {
            0 => leaf_entry_len(D),
            1 => internal_entry_len(D),
            other => return Err(corrupt(format!("page {} has unknown node kind {other}", id.0))),
        };
        let need = PAGE_OVERHEAD + count * entry_len;
        if payload.len() + 8 != need {
            return Err(corrupt(format!(
                "page {} holds {} bytes, its {count} entries need {need}",
                id.0,
                payload.len() + 8
            )));
        }
        if kind == 0 {
            return Ok(Page::Leaf(count));
        }
        let words = payload.len() / 8 / count.max(1);
        let mut children = Vec::with_capacity(count);
        for _ in 0..count {
            walk.fold(words);
            let child = d.u64()?;
            if child >= self.pages.len() as u64 {
                return Err(corrupt(format!(
                    "page {} references child page {child} of {}",
                    id.0,
                    self.pages.len()
                )));
            }
            let mbr = decode_mbr::<D>(&mut d)?;
            children.push(ChildRef { id: NodeId(child as u32), mbr });
        }
        Ok(Page::Internal(children))
    }

    /// The id of every object the tree stores, ascending: the file's id
    /// column, read (not through the pool) and checked — checksum, count
    /// equal to [`NodeAccess::len`], strictly ascending — on each call.
    pub fn stored_ids(&self) -> Result<Arc<[u64]>, StoreError> {
        let mut column = vec![0u8; 16 + 8 * self.len];
        self.source.read_exact_at(&mut column, self.ids_at)?;
        let (body, sealed) = unseal(&column);
        if !sealed {
            return Err(corrupt("id column checksum mismatch"));
        }
        let mut d = Decoder::new(body);
        let count = d.u64()?;
        if count != self.len as u64 {
            return Err(corrupt(format!("id column lists {count} ids, header says {}", self.len)));
        }
        let mut ids = Vec::with_capacity(self.len);
        for _ in 0..count {
            ids.push(d.u64()?);
        }
        if let Some(pair) = ids.windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(corrupt(format!(
                "id column is not strictly ascending: {} then {}",
                pair[0], pair[1]
            )));
        }
        Ok(ids.into())
    }

    /// Path of the backing index file; empty for an image.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The index bytes of an in-memory tree; `None` for a file.
    pub fn image(&self) -> Option<&[u8]> {
        match &self.source {
            ByteSource::Image(bytes) => Some(bytes),
            ByteSource::File(_) => None,
        }
    }

    /// Does `path` still name the very file this tree opened, unmodified
    /// since — same device and inode, and the length and modification /
    /// status-change times recorded at open? Replacing the index by rename
    /// (`fuzzy_store::write_atomic`, what compaction does) changes the
    /// inode; rewriting it in place ([`PagedRTree::bulk_write`] truncates
    /// and keeps the inode) changes the times, and sometimes the length.
    /// Both answer `false`, as does a path that cannot be read. The times
    /// have the file system's granularity: a same-length rewrite finished
    /// within one timestamp tick of this file's last write is not told
    /// apart. An image is no file, and is at no path.
    pub fn is_file_at(&self, path: impl AsRef<Path>) -> bool {
        let named = |stamp| std::fs::metadata(path).is_ok_and(|meta| file_stamp(&meta) == stamp);
        self.opened_as.is_some_and(named)
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Number of node pages in the file.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of leaf pages (diagnostics and the §5 cost model's `C_avg`).
    /// Leaves are numbered first, so this is the first internal page,
    /// found by binary search over page kinds in `log2(pages)` node reads.
    pub fn leaf_count(&self) -> Result<usize, StoreError> {
        // Pages below `lo` are leaves, pages from `hi` on are not.
        let (mut lo, mut hi) = (0, self.page_count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.read_node(NodeId(mid as u32))?.view() {
                crate::NodeView::Entries(_) => lo = mid + 1,
                crate::NodeView::Nodes(_) => hi = mid,
            }
        }
        Ok(lo)
    }

    /// The tree configuration recorded at write time.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Buffer-pool hit/miss/eviction counters.
    pub fn cache_stats(&self) -> PageCacheStats {
        self.cache.stats()
    }

    /// Drop every resident page, forcing subsequent reads cold.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

impl<const D: usize> NodeAccess<D> for PagedRTree<D> {
    fn root_id(&self) -> NodeId {
        self.root
    }

    fn root_mbr(&self) -> Mbr<D> {
        self.root_mbr
    }

    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, D>, StoreError> {
        if id.0 as usize >= self.pages.len() {
            return Err(corrupt(format!(
                "node {} out of range ({} pages)",
                id.0,
                self.pages.len()
            )));
        }
        let page = self.cache.get_or_load(id.0 as u64, || self.load_page(id))?;
        let from_file = matches!(self.source, ByteSource::File(_));
        Ok(NodeRead::from_page(page.value, page.disk_read && from_file))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn height(&self) -> usize {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{access, RTree};
    use fuzzy_core::{FuzzyObject, ObjectId};
    use fuzzy_geom::Point;

    fn grid_summaries(n: usize) -> Vec<ObjectSummary<2>> {
        (0..n)
            .map(|i| {
                let x = (i % 40) as f64 * 1.5;
                let y = (i / 40) as f64 * 1.5;
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

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fzpt-test-{}-{name}.fzpt", std::process::id()))
    }

    /// Every entry whose support comes within `radius` of `q`, as sorted
    /// `(id, score bits)`.
    fn hits_within<A: NodeAccess<2>>(tree: &A, q: Point<2>, radius: f64) -> Vec<(u64, u64)> {
        let mut hits = Vec::new();
        access::range_scan(
            tree,
            radius,
            |m| m.min_dist_point(&q),
            |leaf| {
                for e in leaf.iter() {
                    let score = e.support_mbr.min_dist_point(&q);
                    if score <= radius {
                        hits.push((e.id.0, score.to_bits()));
                    }
                }
            },
        )
        .unwrap();
        hits.sort_unstable();
        hits
    }

    /// The node accesses and disk reads of the scan behind `hits_within`.
    fn scan_cost<A: NodeAccess<2>>(tree: &A, q: Point<2>, radius: f64) -> (u64, u64) {
        access::range_scan(tree, radius, |m| m.min_dist_point(&q), |_| {}).unwrap()
    }

    #[test]
    fn leaf_block_roundtrips_at_every_fill() {
        // Odd counts leave the f64 columns on a 4-byte boundary (the point
        // counts before them are u32); 0 and a full 64-entry leaf are the
        // ends of what a page holds.
        let all = grid_summaries(64);
        for count in [0usize, 1, 63, 64] {
            // The page the writer stores: header, block, checksum.
            let block = count * leaf_entry_len(2);
            let mut page = vec![0u8; PAGE_OVERHEAD + block];
            encode_leaf_entries(&mut page[8..8 + block], &all[..count]);
            let encoded = LeafPage::<2>::encode(&all[..count]);
            let checked = LeafPage::<2>::checked(page.clone(), count).unwrap();
            for leaf in [encoded.view(), checked.view()] {
                assert_eq!((leaf.slots(), leaf.len()), (count, count));
                let ids: Vec<u64> = leaf.ids().map(|id| id.0).collect();
                assert_eq!(ids, (0..count as u64).collect::<Vec<_>>());
                let back: Vec<ObjectSummary<2>> = leaf.iter().collect();
                assert_eq!(back.len(), count);
                for (b, a) in back.iter().zip(&all) {
                    assert_eq!((b.id, b.point_count), (a.id, a.point_count));
                    assert_eq!(
                        (b.support_mbr, b.kernel_mbr, b.rep),
                        (a.support_mbr, a.kernel_mbr, a.rep)
                    );
                    assert_eq!((b.upper_lines, b.lower_lines), (a.upper_lines, a.lower_lines));
                }
            }
            // An inverted box in the last slot's last column pair fails the
            // load's column checks.
            if count > 0 {
                let cell = |column: usize| 8 + 12 * count + 8 * (column * count + count - 1);
                let (lo, hi) = (cell(6), cell(7)); // kernel lo / hi of dimension 1
                let above =
                    (f64::from_le_bytes(page[hi..hi + 8].try_into().unwrap()) + 1.0).to_le_bytes();
                page[lo..lo + 8].copy_from_slice(&above);
                let err = LeafPage::<2>::checked(page, count).unwrap_err();
                assert!(err.to_string().contains("inverted MBR in leaf"), "{err}");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_shape_and_entries() {
        let path = tmp("roundtrip");
        let cfg = RTreeConfig { max_entries: 16 };
        let mem = RTree::bulk_load(grid_summaries(500), cfg);
        let paged = PagedRTree::bulk_write(grid_summaries(500), cfg, &path, 4096).unwrap();
        assert_eq!(NodeAccess::len(&paged), 500);
        assert_eq!(NodeAccess::height(&paged), mem.height());
        assert_eq!(paged.page_count(), mem.page_count());
        assert_eq!(NodeAccess::root_id(&paged), mem.root_id());
        assert_eq!(paged.root_mbr(), mem.root_mbr());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generic_searches_agree_across_backends() {
        let path = tmp("agree");
        let cfg = RTreeConfig { max_entries: 8 };
        let mem = RTree::bulk_load(grid_summaries(300), cfg);
        let paged = PagedRTree::bulk_write(grid_summaries(300), cfg, &path, 4096).unwrap();
        let q = Point::xy(17.0, 4.0);
        for radius in [0.0, 5.0, 100.0] {
            assert_eq!(hits_within(&mem, q, radius), hits_within(&paged, q, radius), "{radius}");
            let (a, b) = (scan_cost(&mem, q, radius), scan_cost(&paged, q, radius));
            assert_eq!(a.0, b.0, "same logical I/O");
            assert_eq!(a.1, 0, "an image never reads disk");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffer_pool_accounting_cold_then_warm() {
        let path = tmp("coldwarm");
        let cfg = RTreeConfig { max_entries: 8 };
        let paged = PagedRTree::bulk_write(grid_summaries(300), cfg, &path, 4096).unwrap();
        let q = Point::xy(3.0, 3.0);
        // (node accesses, disk reads)
        let search = || scan_cost(&paged, q, 8.0);
        let cold = search();
        assert!(cold.1 > 0, "cold pool must read pages");
        assert_eq!(cold.1, cold.0, "everything cold");
        let warm = search();
        assert_eq!(warm.0, cold.0);
        assert_eq!(warm.1, 0, "warm pool serves everything");
        paged.clear_cache();
        let recold = search();
        assert_eq!(recold.1, cold.1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn capacity_one_pool_answers_correctly() {
        let path = tmp("cap1");
        let cfg = RTreeConfig { max_entries: 8 };
        drop(PagedRTree::bulk_write(grid_summaries(300), cfg, &path, 4096).unwrap());
        let paged: PagedRTree<2> = PagedRTree::open_with_cache(&path, 1).unwrap();
        let q = Point::xy(11.0, 7.0);
        let hits = hits_within(&paged, q, 6.0);
        assert!(hits.len() > 10, "{} hits", hits.len());
        // Oracle: same query on the in-memory tree.
        let mem = RTree::bulk_load(grid_summaries(300), cfg);
        assert_eq!(hits, hits_within(&mem, q, 6.0));
        let stats = paged.cache_stats();
        assert!(stats.evictions > 0, "capacity 1 must evict");
        assert!(stats.misses > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_tree_roundtrips() {
        let path = tmp("empty");
        let paged =
            PagedRTree::bulk_write(Vec::new(), RTreeConfig::default(), &path, 16 * 1024).unwrap();
        assert!(NodeAccess::is_empty(&paged));
        assert_eq!(NodeAccess::height(&paged), 1);
        assert!(paged.root_mbr().is_empty());
        assert!(hits_within(&paged, Point::xy(0.0, 0.0), 1e9).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn page_overflow_is_a_typed_error() {
        let path = tmp("overflow");
        // A node that outgrows its page, and pages below the minimum even
        // for the smallest nodes: one typed error, before the file exists.
        for (max_entries, page_size) in [(64, 4096), (2, 0), (2, 100), (2, MIN_PAGE_SIZE - 1)] {
            let cfg = RTreeConfig { max_entries };
            let err =
                PagedRTree::bulk_write(grid_summaries(100), cfg, &path, page_size).unwrap_err();
            assert!(
                matches!(err, StoreError::PageOverflow { page_size: p, .. } if p == page_size),
                "{err}"
            );
            assert!(!path.exists(), "a refused write creates nothing");
        }
        // A 1-D node of two entries fits in 200 bytes; the minimum still
        // holds, and names itself as the bytes a page needs.
        let cfg = RTreeConfig { max_entries: 2 };
        let err = PagedRTree::<1>::bulk_write(Vec::new(), cfg, &path, 200).unwrap_err();
        let needed = MIN_PAGE_SIZE as u64;
        assert!(matches!(err, StoreError::PageOverflow { needed: n, .. } if n == needed), "{err}");
        assert!(!path.exists(), "a refused write creates nothing");
        // A fan-out below 2 is refused the same way, before the file exists.
        for max_entries in [0, 1] {
            let cfg = RTreeConfig { max_entries };
            let err = PagedRTree::bulk_write(grid_summaries(50), cfg, &path, 4096).unwrap_err();
            assert!(
                matches!(err, StoreError::FanoutTooSmall { max_entries: m } if m == max_entries)
            );
            assert!(!path.exists(), "a refused write creates nothing");
        }
    }

    /// Open `bytes` from a file at `path` and as an image: the two sources
    /// must agree, a tree each or the same typed error.
    fn open_both<const E: usize>(
        path: &Path,
        bytes: &[u8],
    ) -> Result<[PagedRTree<E>; 2], StoreError> {
        std::fs::write(path, bytes).unwrap();
        match (PagedRTree::<E>::open(path), PagedRTree::<E>::from_image(bytes.to_vec())) {
            (Ok(file), Ok(image)) => Ok([file, image]),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "file and image disagree");
                assert_eq!(std::mem::discriminant(&a), std::mem::discriminant(&b));
                Err(a)
            }
            (a, b) => panic!("file and image disagree: {:?} vs {:?}", a.err(), b.err()),
        }
    }

    /// `(offset, field)` words of `bytes`' trailer and the page table it
    /// locates: table offset, id-column offset, then each page's offset
    /// and length.
    fn layout(bytes: &[u8]) -> (usize, usize, Vec<(u64, u64)>) {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let tail = bytes.len() - PAGED_TRAILER_LEN;
        let (table_at, ids_at) = (word(tail) as usize, word(tail + 8) as usize);
        let pages = (0..word(table_at) as usize)
            .map(|i| (word(table_at + 8 + 16 * i), word(table_at + 16 + 16 * i)))
            .collect();
        (table_at, ids_at, pages)
    }

    /// Re-seal the section `bytes[from..to]` ends with.
    fn reseal(bytes: &mut [u8], from: usize, to: usize) {
        let sum = fnv1a_lanes(&bytes[from..to - 8]);
        bytes[to - 8..to].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn corruption_is_detected_not_panicking() {
        // Bad magic, truncations and bit flips: the root `hostile_bytes` harness.
        let path = tmp("corrupt");
        let cfg = RTreeConfig { max_entries: 8 };
        PagedRTree::bulk_write(grid_summaries(200), cfg, &path, 4096).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let open = |bytes: &[u8]| open_both::<2>(&path, bytes);
        let (table_at, ids_at, pages) = layout(&pristine);
        let table_end = pristine.len() - PAGED_TRAILER_LEN;

        // Version mismatch — a v3 header, sealed as v3 sealed it, and any
        // other — and a fan-out below 2 (header re-sealed so the field's own
        // check is what fires).
        let restamped = |at: usize, field: &[u8], sum: fn(&[u8]) -> u64| {
            let mut bytes = pristine.clone();
            bytes[at..at + field.len()].copy_from_slice(field);
            let sum = sum(&bytes[..paged_header_len(2) - 8]);
            bytes[paged_header_len(2) - 8..paged_header_len(2)].copy_from_slice(&sum.to_le_bytes());
            open(&bytes).expect_err("a refused header")
        };
        assert!(matches!(
            restamped(4, &3u16.to_le_bytes(), fuzzy_store::format::fnv1a),
            StoreError::VersionMismatch { found: 3, expected: 4 }
        ));
        assert!(matches!(
            restamped(4, &[0xFE], fnv1a_lanes),
            StoreError::VersionMismatch { found: 0xFE, expected: PAGED_VERSION }
        ));
        for max_entries in [0u32, 1] {
            let err = restamped(12, &max_entries.to_le_bytes(), fnv1a_lanes);
            assert!(err.to_string().contains("node capacity"), "{err}");
        }

        // Wrong dimensionality.
        assert!(matches!(
            open_both::<3>(&path, &pristine).err(),
            // The 3-D header is longer, so either check may fire first.
            Some(StoreError::DimensionMismatch { .. } | StoreError::Corrupt { .. })
        ));

        // Trailer offsets bit-rotted to near u64::MAX, or pointing one
        // word off: Corrupt, not an arithmetic-overflow panic.
        for (field, value) in [(0, u64::MAX - 0xFF), (8, u64::MAX - 3), (8, ids_at as u64 + 8)] {
            let mut bytes = pristine.clone();
            bytes[table_end + field..table_end + field + 8].copy_from_slice(&value.to_le_bytes());
            assert!(matches!(open(&bytes).err(), Some(StoreError::Corrupt { .. })), "{value}");
        }

        // Overlapping and descending pages (every page's offset and length
        // set to 0, len − 1, len, 2⁶⁴ − 4 and 2⁶⁴ − 1 is the hostile-bytes
        // harness's field matrix). The table is re-sealed, so the bounds are
        // what must refuse it.
        let with_table = |table: Vec<(u64, u64)>| {
            let mut bytes = pristine.clone();
            for (i, (at, len)) in table.into_iter().enumerate() {
                let entry = table_at + 8 + 16 * i;
                bytes[entry..entry + 8].copy_from_slice(&at.to_le_bytes());
                bytes[entry + 8..entry + 16].copy_from_slice(&len.to_le_bytes());
            }
            reseal(&mut bytes, table_at, table_end);
            bytes
        };
        let (mut overlapping, mut descending) = (pages.clone(), pages.clone());
        overlapping[1].0 = pages[0].0 + 8;
        descending.swap(0, 1);
        for table in [overlapping, descending] {
            let err = open(&with_table(table)).expect_err("pages out of order");
            assert!(err.to_string().contains("overlaps"), "{err}");
        }

        // A page whose length disagrees with its entry count: the count
        // forged and the page re-sealed, so only the length rule sees it.
        let leaf = pages[0];
        let root = pages[pages.len() - 1];
        for (id, (at, len)) in [(0, leaf), (pages.len() - 1, root)] {
            let mut bytes = pristine.clone();
            let (at, end) = (at as usize, (at + len) as usize);
            let count = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
            bytes[at + 4..at + 8].copy_from_slice(&(count - 1).to_le_bytes());
            reseal(&mut bytes, at, end);
            let [file, image] = open(&bytes).unwrap();
            let err = file.read_node(NodeId(id as u32)).unwrap_err();
            assert!(err.to_string().contains("entries need"), "{err}");
            assert_eq!(
                image.read_node(NodeId(id as u32)).unwrap_err().to_string(),
                err.to_string()
            );
        }

        // The id column: opening reads none of it, so each damage surfaces
        // from `stored_ids`, the same from file and image.
        let id_at = |k: usize| ids_at + 8 + 8 * k;
        let column = |edit: &dyn Fn(&mut [u8]), sealed: bool| {
            let mut bytes = pristine.clone();
            edit(&mut bytes);
            if sealed {
                reseal(&mut bytes, ids_at, table_at);
            }
            let [file, image] = open(&bytes).unwrap();
            let err = file.stored_ids().unwrap_err();
            assert_eq!(image.stored_ids().unwrap_err().to_string(), err.to_string());
            err.to_string()
        };
        let swap = |b: &mut [u8]| {
            let (first, second) = (b[id_at(0)..id_at(1)].to_vec(), b[id_at(1)..id_at(2)].to_vec());
            b[id_at(0)..id_at(1)].copy_from_slice(&second);
            b[id_at(1)..id_at(2)].copy_from_slice(&first);
        };
        let duplicate = |b: &mut [u8]| b.copy_within(id_at(0)..id_at(1), id_at(1));
        let recount = |b: &mut [u8]| b[ids_at..ids_at + 8].copy_from_slice(&199u64.to_le_bytes());
        let flip = |b: &mut [u8]| b[id_at(7)] ^= 0x04;
        assert!(column(&swap, true).contains("ascending"));
        assert!(column(&duplicate, true).contains("ascending"));
        assert!(column(&recount, true).contains("lists 199 ids"));
        assert!(column(&flip, false).contains("checksum"));
        // Truncated by one id, every later offset moved to match: the
        // column no longer fits the header's object count.
        let mut bytes = pristine.clone();
        bytes.drain(id_at(199)..id_at(200));
        let tail = bytes.len() - PAGED_TRAILER_LEN;
        bytes[tail..tail + 8].copy_from_slice(&(table_at as u64 - 8).to_le_bytes());
        let err = open(&bytes).expect_err("a short id column");
        assert!(err.to_string().contains("id column"), "{err}");
        let [file, _] = open(&pristine).unwrap();
        assert_eq!(file.stored_ids().unwrap().len(), 200);

        std::fs::remove_file(&path).unwrap();
    }
}
