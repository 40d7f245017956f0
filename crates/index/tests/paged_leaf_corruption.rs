//! The corruption matrix for the v4 paged R-tree file — unpadded
//! **columnar leaf pages**, internal pages and the sorted id column: an
//! index file damaged in any way — truncated at every byte boundary, any
//! single bit flipped, a stale format version — must either surface as a
//! typed [`StoreError`] or (for bytes no validator covers, e.g. reserved
//! trailer padding) leave every decoded node and the id column identical
//! to the pristine file. Never a panic, never silently different summaries
//! or ids. Every damaged file is also opened as an in-memory image of the
//! same bytes, which must decode to the same nodes or fail with the same
//! error.
//!
//! The page read (an internal page decoded while the checksum lanes fold
//! it, a leaf page kept as its bytes once its columns pass the `lo ≤ hi`
//! checks) is also held to a plain reading of the format kept below as
//! the oracle — a whole-page `fnv1a_lanes`, the entry count against the
//! node capacity and the page's length, then the leaf or internal decode
//! through a byte reader: every flipped bit of a leaf and of an internal
//! page (checksum stale and re-stamped) and every forged checksum-valid
//! page decodes to the same node, or fails with the same error and
//! message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use fuzzy_geom::Point;
use fuzzy_index::{
    leaf_entry_len, paged_header_len, NodeAccess, NodeId, NodeView, PagedRTree, RTreeConfig,
    PAGED_VERSION,
};
use fuzzy_store::format::fnv1a;
use fuzzy_store::StoreError;
use std::ops::Range;

fn summaries(n: u64) -> Vec<ObjectSummary<2>> {
    (0..n)
        .map(|i| {
            let (x, y) = ((i % 5) as f64 * 2.0, (i / 5) as f64 * 2.0);
            let obj = FuzzyObject::new(
                ObjectId(i),
                vec![Point::xy(x, y), Point::xy(x + 0.5, y + 0.25), Point::xy(x - 0.25, y)],
                vec![1.0, 0.6, 0.3],
            )
            .unwrap();
            ObjectSummary::from_object(&obj)
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fzpt-v3-corrupt-{}-{name}.fzpt", std::process::id()))
}

/// Small page size keeps the whole-file bit-flip sweep tractable while
/// still yielding a multi-level tree (3-entry leaves).
const PAGE: u32 = 512;
const CFG: RTreeConfig = RTreeConfig { max_entries: 3 };

fn build_fixture(name: &str) -> (PathBuf, Vec<u8>) {
    let path = tmp(name);
    PagedRTree::bulk_write(summaries(12), CFG, &path, PAGE).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Write `bytes` to `path`, open them as that file and as an in-memory
/// image, and decode every **reachable** page of each (breadth-first from
/// the root) and the id column: a digest of all node contents (ids, entry
/// ids, MBR bits) and stored ids — the "did anything silently change"
/// oracle — on which the two sources must agree, digest for digest or
/// error for error.
fn full_scan(path: &PathBuf, bytes: &[u8]) -> Result<Vec<u64>, StoreError> {
    std::fs::write(path, bytes).unwrap();
    let file = PagedRTree::<2>::open(path).and_then(|tree| scan(&tree));
    let image = PagedRTree::<2>::from_image(bytes.to_vec()).and_then(|tree| scan(&tree));
    let show = |r: &Result<Vec<u64>, StoreError>| r.as_ref().map_err(|e| e.to_string()).cloned();
    assert_eq!(show(&file), show(&image), "file and image disagree");
    file
}

/// The digest of every page of `tree` reachable from its root, then of
/// its id column.
fn scan(tree: &PagedRTree<2>) -> Result<Vec<u64>, StoreError> {
    let mut digest = Vec::new();
    let mut queue = vec![tree.root_id()];
    while let Some(id) = queue.pop() {
        let node = tree.read_node(id)?;
        digest.push(id.index() as u64);
        match node.view() {
            NodeView::Nodes(children) => {
                for c in children {
                    digest.push(c.id.index() as u64);
                    for d in 0..2 {
                        digest.push(c.mbr.lo(d).to_bits());
                        digest.push(c.mbr.hi(d).to_bits());
                    }
                    queue.push(c.id);
                }
            }
            NodeView::Entries(entries) => {
                for e in entries.iter() {
                    digest.push(e.id.0);
                    digest.push(e.point_count as u64);
                    for d in 0..2 {
                        digest.push(e.support_mbr.lo(d).to_bits());
                        digest.push(e.support_mbr.hi(d).to_bits());
                        digest.push(e.kernel_mbr.lo(d).to_bits());
                        digest.push(e.kernel_mbr.hi(d).to_bits());
                        digest.push(e.upper_lines[d].m.to_bits());
                        digest.push(e.upper_lines[d].t.to_bits());
                        digest.push(e.lower_lines[d].m.to_bits());
                        digest.push(e.lower_lines[d].t.to_bits());
                        digest.push(e.rep[d].to_bits());
                    }
                }
            }
        }
    }
    digest.extend(tree.stored_ids()?.iter());
    Ok(digest)
}

/// Each page's byte range in `file`, from its trailer and page table.
fn spans(file: &[u8]) -> Vec<Range<usize>> {
    let word = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    let table = word(file.len() - 32);
    let page =
        |i: usize| word(table + 8 + 16 * i)..word(table + 8 + 16 * i) + word(table + 16 + 16 * i);
    (0..word(table)).map(page).collect()
}

#[test]
fn truncation_at_every_byte_boundary_is_a_typed_error() {
    let (path, bytes) = build_fixture("trunc");
    assert!(full_scan(&path, &bytes).is_ok(), "fixture must scan clean");
    for len in 0..bytes.len() {
        let out = catch_unwind(AssertUnwindSafe(|| full_scan(&path, &bytes[..len])));
        match out {
            Err(_) => panic!("scan panicked at truncation {len}"),
            Ok(Ok(_)) => panic!("scan accepted truncation to {len} bytes"),
            Ok(Err(e)) => assert!(!e.to_string().is_empty()),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn every_single_bit_flip_errors_or_changes_nothing() {
    let (path, bytes) = build_fixture("flip");
    let pristine = full_scan(&path, &bytes).unwrap();
    let mut undetected = 0usize;
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            let out = catch_unwind(AssertUnwindSafe(|| full_scan(&path, &evil)));
            match out {
                Err(_) => panic!("scan panicked on bit {bit} of byte {byte}"),
                Ok(Err(_)) => {}
                Ok(Ok(scan)) => {
                    // The only acceptable decode is one indistinguishable
                    // from the pristine file (reserved/padding bytes no
                    // validator covers).
                    assert_eq!(
                        scan, pristine,
                        "bit {bit} of byte {byte} silently changed decoded contents"
                    );
                    undetected += 1;
                }
            }
        }
    }
    // Sanity: the checksums cover essentially the whole file — only a
    // handful of reserved bytes may escape detection.
    assert!(undetected <= 8 * 8, "{undetected} flipped bits decoded clean");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn stale_version_pages_are_version_mismatch() {
    let (path, bytes) = build_fixture("stale");

    // Rewrite the header version to v3 and re-seal the header as v3 did
    // (the `fnv1a` chain), so the version check is what fires: a v3 file
    // must not be parsed with v4 page-table and id-column expectations.
    let mut evil = bytes.clone();
    let stale = PAGED_VERSION - 1;
    evil[4..6].copy_from_slice(&stale.to_le_bytes());
    let hlen = paged_header_len(2);
    let sum = fnv1a(&evil[..hlen - 8]);
    evil[hlen - 8..hlen].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &evil).unwrap();
    let image = PagedRTree::<2>::from_image(evil);
    for refused in [PagedRTree::<2>::open(&path), image] {
        match refused.unwrap_err() {
            StoreError::VersionMismatch { found, expected } => {
                assert_eq!(found, stale);
                assert_eq!(expected, PAGED_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Hostile values in the fields v4 added — each page's offset and length
/// in the page table, page order, a page length its entry count disagrees
/// with, the id column's count, order and bytes — are typed errors from
/// file and image alike. Checksums are re-sealed wherever the field's own
/// check should be what fires.
#[test]
fn hostile_page_table_and_id_column_fields_are_typed_errors() {
    let (path, bytes) = build_fixture("hostile");
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let put = |b: &mut [u8], at: usize, v: u64| b[at..at + 8].copy_from_slice(&v.to_le_bytes());
    let reseal = |b: &mut [u8], section: Range<usize>| {
        let sum = oracle_lanes(&b[section.start..section.end - 8]);
        put(b, section.end - 8, sum);
    };
    let tail = bytes.len() - 32;
    let (table_at, ids_at) = (word(&bytes, tail) as usize, word(&bytes, tail + 8) as usize);
    let pages = spans(&bytes);
    let refused =
        |evil: &[u8], what: &str| match catch_unwind(AssertUnwindSafe(|| full_scan(&path, evil))) {
            Err(_) => panic!("{what}: scan panicked"),
            Ok(Ok(_)) => panic!("{what}: scan accepted"),
            Ok(Err(e)) => assert!(matches!(e, StoreError::Corrupt { .. }), "{what}: {e}"),
        };
    let with_entry = |page: usize, field: usize, v: u64| {
        let mut evil = bytes.clone();
        put(&mut evil, table_at + 8 + 16 * page + 8 * field, v);
        reseal(&mut evil, table_at..tail);
        evil
    };

    let n = bytes.len() as u64;
    for (page, span) in pages.iter().enumerate() {
        for v in [0, n - 1, n, u64::MAX - 3, u64::MAX] {
            refused(&with_entry(page, 0, v), &format!("page {page} at {v}"));
            refused(&with_entry(page, 1, v), &format!("page {page} of {v} bytes"));
        }
        // One word shorter, re-sealed there: the count no longer fits.
        let (start, len) = (span.start, span.len());
        let mut evil = with_entry(page, 1, len as u64 - 8);
        reseal(&mut evil, start..start + len - 8);
        refused(&evil, &format!("page {page} one word short"));
    }
    for page in 1..pages.len() {
        let overlapping = with_entry(page, 0, pages[page - 1].end as u64 - 8);
        refused(&overlapping, &format!("page {page} overlapping its predecessor"));
        let mut descending = bytes.clone();
        for (k, from) in [(page - 1, page), (page, page - 1)] {
            let entry = table_at + 8 + 16 * k;
            put(&mut descending, entry, pages[from].start as u64);
            put(&mut descending, entry + 8, pages[from].len() as u64);
        }
        reseal(&mut descending, table_at..tail);
        refused(&descending, &format!("pages {} and {page} swapped", page - 1));
    }

    let id = |k: usize| ids_at + 8 + 8 * k;
    let count = word(&bytes, ids_at) as usize;
    let column = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut evil = bytes.clone();
        edit(&mut evil);
        reseal(&mut evil, ids_at..table_at);
        evil
    };
    let swapped = column(&|b| {
        let (a, z) = (word(b, id(0)), word(b, id(1)));
        put(b, id(0), z);
        put(b, id(1), a);
    });
    refused(&swapped, "ids unsorted");
    refused(
        &column(&|b| b.copy_within(id(count - 2)..id(count - 1), id(count - 1))),
        "an id twice",
    );
    refused(&column(&|b| put(b, ids_at, count as u64 + 1)), "one id too many counted");
    let mut flipped = bytes.clone();
    flipped[id(count / 2)] ^= 0x01;
    refused(&flipped, "an id bit flipped");
    let mut truncated = bytes.clone();
    truncated.drain(id(count - 1)..id(count));
    put(&mut truncated, tail - 8, table_at as u64 - 8);
    refused(&truncated, "the column one id short");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn damaged_leaf_page_fails_only_that_read() {
    let (path, bytes) = build_fixture("leafonly");
    let tree_clean = PagedRTree::<2>::open(&path).unwrap();
    // Find a leaf id by walking down from the root.
    let mut leaf = tree_clean.root_id();
    loop {
        let node = tree_clean.read_node(leaf).unwrap();
        match node.view() {
            NodeView::Nodes(children) => {
                let next = children[0].id;
                drop(node);
                leaf = next;
            }
            NodeView::Entries(e) => {
                assert!(!e.is_empty(), "fixture has non-empty leaves");
                break;
            }
        }
    }
    let root = tree_clean.root_id();
    assert_ne!(leaf.index(), root.index(), "fixture must be multi-level");
    drop(tree_clean);

    // Flip a byte in the middle of that page's columnar block.
    let mut evil = bytes.clone();
    let page = spans(&bytes)[leaf.index() as usize].clone();
    evil[(page.start + page.end) / 2] ^= 0x10;
    std::fs::write(&path, &evil).unwrap();

    for tree in [PagedRTree::<2>::open(&path).unwrap(), PagedRTree::from_image(evil).unwrap()] {
        let err = tree.read_node(leaf).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // Other pages still read fine through the same handle and cache.
        assert!(tree.read_node(root).is_ok());
    }
    std::fs::remove_file(&path).unwrap();
}

/// `fnv1a_lanes` as `docs/FORMAT.md` defines it: word `i` into lane
/// `i mod 4`, lane `k` seeded with the length-mixed seed XOR `k`, the
/// lanes folded in order into a chain from that seed.
fn oracle_lanes(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let seed = 0xcbf29ce484222325 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut lanes = [seed, seed ^ 1, seed ^ 2, seed ^ 3];
    for (i, word) in bytes.chunks(8).enumerate() {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        lanes[i % 4] = (lanes[i % 4] ^ u64::from_le_bytes(w)).wrapping_mul(PRIME);
    }
    lanes.iter().fold(seed, |h, &lane| (h ^ lane).wrapping_mul(PRIME))
}

fn corrupt(reason: String) -> StoreError {
    StoreError::Corrupt { reason }
}

/// A bounds-checked byte reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.buf.len() {
            return Err(corrupt(format!(
                "unexpected end of data: need {} bytes at offset {}, have {}",
                n,
                self.pos,
                self.buf.len()
            )));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// The page decode as the format reads, as the node digest `full_scan`
/// builds.
fn oracle_page(
    page: &[u8],
    id: u32,
    pages: u64,
    max_entries: usize,
) -> Result<Vec<u64>, StoreError> {
    let (payload, sum_bytes) = page.split_at(page.len() - 8);
    if u64::from_le_bytes(sum_bytes.try_into().unwrap()) != oracle_lanes(payload) {
        return Err(corrupt(format!("page {id} checksum mismatch")));
    }
    let mut d = Reader { buf: payload, pos: 0 };
    let kind = d.take(4)?[0];
    let count = u32::from_le_bytes(d.take(4)?.try_into().unwrap()) as usize;
    if count > max_entries {
        return Err(corrupt(format!(
            "page {id} declares {count} entries, node capacity is {max_entries}"
        )));
    }
    let entry_len = match kind {
        0 => leaf_entry_len(2),
        1 => 40,
        other => return Err(corrupt(format!("page {id} has unknown node kind {other}"))),
    };
    if page.len() != 16 + count * entry_len {
        return Err(corrupt(format!(
            "page {id} holds {} bytes, its {count} entries need {}",
            page.len(),
            16 + count * entry_len
        )));
    }
    let mut digest = Vec::new();
    match kind {
        1 => {
            for _ in 0..count {
                let child = d.u64()?;
                if child >= pages {
                    return Err(corrupt(format!(
                        "page {id} references child page {child} of {pages}"
                    )));
                }
                let mut lo_hi = [0.0f64; 4];
                for v in &mut lo_hi {
                    *v = f64::from_bits(d.u64()?);
                }
                let ([lo0, hi0, lo1, hi1], inf) = (lo_hi, f64::INFINITY);
                let valid = lo0 <= hi0 && lo1 <= hi1;
                let empty = lo0 == inf && lo1 == inf && hi0 == -inf && hi1 == -inf;
                if !valid && !empty {
                    return Err(corrupt("inverted MBR in node page".into()));
                }
                digest.push(child);
                digest.extend([lo0, hi0, lo1, hi1].map(f64::to_bits));
            }
        }
        0 => {
            let block = d.take(count * leaf_entry_len(2))?;
            let (ids, rest) = block.split_at(8 * count);
            let (counts, cells) = rest.split_at(4 * count);
            let cell = |c: usize, j: usize| {
                let at = (c * count + j) * 8;
                f64::from_le_bytes(cells[at..at + 8].try_into().unwrap())
            };
            for j in 0..count {
                // support lo/hi and kernel lo/hi, interleaved per dimension.
                for first in [0, 4] {
                    if !(0..2).all(|dim| cell(first + 2 * dim, j) <= cell(first + 2 * dim + 1, j)) {
                        return Err(corrupt("inverted MBR in leaf summary block".into()));
                    }
                }
                digest.push(u64::from_le_bytes(ids[8 * j..8 * j + 8].try_into().unwrap()));
                digest
                    .push(u32::from_le_bytes(counts[4 * j..4 * j + 4].try_into().unwrap()) as u64);
                for dim in 0..2 {
                    for c in [0, 1, 4, 5, 8, 9, 12, 13] {
                        digest.push(cell(c + 2 * dim, j).to_bits());
                    }
                    digest.push(cell(16 + dim, j).to_bits());
                }
            }
        }
        _ => unreachable!("the kind was checked"),
    }
    Ok(digest)
}

/// What one node read gives, in the oracle's digest order.
fn node_digest(tree: &PagedRTree<2>, id: NodeId) -> Result<Vec<u64>, StoreError> {
    let node = tree.read_node(id)?;
    let mut digest = Vec::new();
    match node.view() {
        NodeView::Nodes(children) => {
            for c in children {
                digest.push(c.id.index() as u64);
                for d in 0..2 {
                    digest.extend([c.mbr.lo(d).to_bits(), c.mbr.hi(d).to_bits()]);
                }
            }
        }
        NodeView::Entries(entries) => {
            for e in entries.iter() {
                digest.extend([e.id.0, e.point_count as u64]);
                for d in 0..2 {
                    digest.extend([
                        e.support_mbr.lo(d).to_bits(),
                        e.support_mbr.hi(d).to_bits(),
                        e.kernel_mbr.lo(d).to_bits(),
                        e.kernel_mbr.hi(d).to_bits(),
                        e.upper_lines[d].m.to_bits(),
                        e.upper_lines[d].t.to_bits(),
                        e.lower_lines[d].m.to_bits(),
                        e.lower_lines[d].t.to_bits(),
                        e.rep[d].to_bits(),
                    ]);
                }
            }
        }
    }
    Ok(digest)
}

/// Every page of the fixture by page number, and the first leaf and
/// internal page.
fn pages_of(path: &PathBuf) -> (Vec<NodeId>, NodeId, NodeId) {
    let tree = PagedRTree::<2>::open(path).unwrap();
    let (mut all, mut queue) = (Vec::new(), vec![tree.root_id()]);
    let (mut leaf, mut internal) = (None, None);
    while let Some(id) = queue.pop() {
        all.push(id);
        match tree.read_node(id).unwrap().view() {
            NodeView::Nodes(children) => {
                internal.get_or_insert(id);
                queue.extend(children.iter().map(|c| c.id));
            }
            NodeView::Entries(_) => {
                leaf.get_or_insert(id);
            }
        }
    }
    all.sort_by_key(|id| id.index());
    assert_eq!(all.len(), tree.page_count(), "every page is reachable");
    (all, leaf.unwrap(), internal.unwrap())
}

/// Write `file`, open it — as that file and as an in-memory image — and
/// read page `id`; the oracle reads the same page's bytes. All must agree.
fn page_matches_oracle(path: &PathBuf, file: &[u8], id: NodeId, what: &dyn Fn() -> String) {
    std::fs::write(path, file).unwrap();
    let on_disk = PagedRTree::<2>::open(path).expect("only the page was touched");
    let image = PagedRTree::<2>::from_image(file.to_vec()).expect("only the page was touched");
    let page = &file[spans(file)[id.index() as usize].clone()];
    let cap = on_disk.config().max_entries;
    let want = oracle_page(page, id.index(), on_disk.page_count() as u64, cap);
    let show = |r: Result<Vec<u64>, StoreError>| r.map_err(|e| format!("{e:?}"));
    let want = show(want);
    for tree in [on_disk, image] {
        let got = catch_unwind(AssertUnwindSafe(|| node_digest(&tree, id)))
            .unwrap_or_else(|_| panic!("read panicked on {}", what()));
        assert_eq!(show(got), want, "{}", what());
    }
}

/// Re-stamp page `id`'s checksum in `file`.
fn seal_page(file: &mut [u8], id: NodeId) {
    let page = spans(file)[id.index() as usize].clone();
    let end = page.end - 8;
    let sum = oracle_lanes(&file[page.start..end]);
    file[end..page.end].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn flipped_page_bits_decode_as_the_oracle_does() {
    let (path, bytes) = build_fixture("diffflip");
    let (_, leaf, internal) = pages_of(&path);
    for (kind, id) in [("leaf", leaf), ("internal", internal)] {
        let Range { start: at, end } = spans(&bytes)[id.index() as usize].clone();
        for byte in at..end - 8 {
            // Every bit in release (CI); one a byte in tier-1's debug build.
            let bits = if cfg!(debug_assertions) { byte % 8..byte % 8 + 1 } else { 0..8 };
            for bit in bits {
                let mut evil = bytes.clone();
                evil[byte] ^= 1 << bit;
                let what = || format!("{kind} page, bit {bit} of byte {}", byte - at);
                page_matches_oracle(&path, &evil, id, &|| format!("{}, stale", what()));
                seal_page(&mut evil, id);
                page_matches_oracle(&path, &evil, id, &|| format!("{}, re-stamped", what()));
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn forged_pages_decode_as_the_oracle_does() {
    let (path, bytes) = build_fixture("diffforge");
    let (all, leaf, internal) = pages_of(&path);
    let page_at = |id: NodeId| spans(&bytes)[id.index() as usize].clone();
    let forged = |id: NodeId, edit: &dyn Fn(&mut [u8])| {
        let mut file = bytes.clone();
        edit(&mut file[page_at(id)]);
        seal_page(&mut file, id);
        file
    };
    let put =
        |page: &mut [u8], at: usize, v: u64| page[at..at + 8].copy_from_slice(&v.to_le_bytes());
    let count = |page: &[u8]| u32::from_le_bytes(page[4..8].try_into().unwrap()) as usize;
    let pages = all.len() as u64;

    // Header fields every page shares.
    for (what, kind, n) in [
        ("count above capacity", None, 4u32),
        ("count u32::MAX", None, u32::MAX),
        ("kind 2", Some(2u8), 1),
        ("kind 255", Some(255), 1),
        ("empty leaf", Some(0), 0),
    ] {
        for &id in &all {
            let file = forged(id, &|p| {
                if let Some(k) = kind {
                    p[0] = k;
                }
                p[4..8].copy_from_slice(&n.to_le_bytes());
            });
            page_matches_oracle(&path, &file, id, &|| format!("page {}: {what}", id.index()));
        }
    }

    // Leaf cells: column `c` of entry `j` sits at 8 + 12·count + 8·(c·count + j).
    let n = count(&bytes[page_at(leaf)]);
    let cell = |c: usize, j: usize| 8 + 12 * n + 8 * (c * n + j);
    for j in [0, n - 1] {
        for (what, c, v) in [
            ("support lo x above its hi", 0, 1e9f64),
            ("support hi y below its lo", 3, -1e9),
            ("kernel lo y NaN", 6, f64::NAN),
            ("kernel hi x -inf", 5, f64::NEG_INFINITY),
            ("an infinite line slope", 8, f64::INFINITY),
            ("a NaN rep", 17, f64::NAN),
        ] {
            let file = forged(leaf, &|p| put(p, cell(c, j), v.to_bits()));
            page_matches_oracle(&path, &file, leaf, &|| format!("leaf entry {j}: {what}"));
        }
    }

    // Internal entries: child u64, then lo/hi per dimension.
    let m = count(&bytes[page_at(internal)]);
    for j in [0, m - 1] {
        let entry = 8 + 40 * j;
        let edits: [(&str, usize, u64); 6] = [
            ("child = page count", 0, pages),
            ("child = u64::MAX", 0, u64::MAX),
            ("lo x above hi x", 8, 1e9f64.to_bits()),
            ("hi y NaN", 32, f64::NAN.to_bits()),
            ("lo x +inf", 8, f64::INFINITY.to_bits()),
            ("hi x -inf", 16, f64::NEG_INFINITY.to_bits()),
        ];
        for (what, off, v) in edits {
            let file = forged(internal, &|p| put(p, entry + off, v));
            page_matches_oracle(&path, &file, internal, &|| format!("internal {j}: {what}"));
        }
        // The empty-box sentinel decodes; half of it is inverted.
        let file = forged(internal, &|p| {
            for d in 0..2 {
                put(p, entry + 8 + 16 * d, f64::INFINITY.to_bits());
                put(p, entry + 16 + 16 * d, f64::NEG_INFINITY.to_bits());
            }
        });
        page_matches_oracle(&path, &file, internal, &|| format!("internal {j}: sentinel"));
    }

    // A header that allows more entries than the page holds: the count
    // passes the capacity check and disagrees with the page's length.
    let mut roomy = bytes.clone();
    roomy[12..16].copy_from_slice(&40u32.to_le_bytes());
    let hlen = paged_header_len(2);
    let sum = oracle_lanes(&roomy[..hlen - 8]);
    roomy[hlen - 8..hlen].copy_from_slice(&sum.to_le_bytes());
    for (id, counts) in [(leaf, [4u32, 40]), (internal, [13, 40])] {
        for c in counts {
            let mut file = roomy.clone();
            let at = page_at(id).start;
            file[at + 4..at + 8].copy_from_slice(&c.to_le_bytes());
            seal_page(&mut file, id);
            page_matches_oracle(&path, &file, id, &|| format!("page {} counts {c}", id.index()));
        }
    }
    std::fs::remove_file(&path).unwrap();
}
