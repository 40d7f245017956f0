//! One hostile-bytes harness for every byte format the engine reads: the
//! object store (`.fzkn`, as a whole file and as one object record inside
//! one), the paged R-tree (`.fzpt`), the overlay sidecar (`.fzdl`) and
//! FZQP frames. Each [`Kind`] supplies
//! fixtures, a decode to a digest (two ways: a file kind opened as a file
//! and as an in-memory image, a record at two alignments, a frame through
//! `decode_frame` and through `read_frame` over a cursor — the two must
//! agree), its length and offset
//! fields, a `reseal` that re-stamps every checksum, and a flip policy. On
//! every kind the harness runs four steps, one `#[test]` each:
//!
//! * **truncations** — every prefix, as it is and re-sealed, is an error
//!   (for a frame, `Truncated`);
//! * **bit flips** — every bit of every byte, flipped, is an error, or (for
//!   a byte no validator covers) decodes to the pristine digest;
//! * **fields** — every length and offset field set to 0, len − 1, len,
//!   max − 3 and max (len the input's length, max the field's largest
//!   value), with the checksums re-sealed, is an error, so it is the
//!   field's own check that fires and not the checksum;
//! * **mutations** — [`MUTATIONS`] seeded, structure-aware mutants (field
//!   pokes, bit flips, splices, then a re-seal) never panic, and the two
//!   ways to decode each agree. Without the re-seal the checksum would
//!   refuse every mutant, so the step also requires that most mutants get
//!   past every checksum.
//!
//! Every decode runs under `catch_unwind`: a panic is a failure that names
//! the kind, step and mutant. The cases particular to one format (forged
//! record layouts, the plain-reading page oracle, stale versions, unknown
//! tags, round trips) stay in that format's own suite.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use fuzzy_geom::Point;
use fuzzy_index::paged::PAGED_TRAILER_LEN;
use fuzzy_index::{NodeAccess, NodeView, PagedRTree, RTreeConfig};
use fuzzy_query::{DistBound, Interval, IntervalSet, Neighbor, RknnAlgorithm, RknnItem};
use fuzzy_server::protocol::{decode_frame, read_frame, HEADER_LEN};
use fuzzy_server::{ErrorCode, QuerySource, Request, Response, WireStats, WireVariant};
use fuzzy_store::format::{
    decode_object, encode_object, fnv1a, fnv1a_lanes, summary_len, TRAILER_LEN,
};
use fuzzy_store::{DeltaLog, FileStore, FileStoreWriter, ObjectStore};

/// Mutants per kind in the mutational step.
const MUTATIONS: usize = 2_000;

/// What one decode gave: a digest of everything decoded, or the error.
type Outcome = Result<Vec<u64>, String>;

/// How a flipped bit must land.
#[derive(Clone, Copy, Debug)]
enum Flip {
    /// A checksum or a check covers the byte: every flip is an error.
    Reject,
    /// No validator covers the byte: an error, or the pristine digest.
    RejectOrSame,
}

/// A little-endian length or offset field: its offset and width in bytes.
#[derive(Clone, Copy, Debug)]
struct Field {
    at: usize,
    width: usize,
}

impl Field {
    fn u32(at: usize) -> Self {
        Self { at, width: 4 }
    }

    fn u64(at: usize) -> Self {
        Self { at, width: 8 }
    }

    fn get(&self, bytes: &[u8]) -> u64 {
        let mut word = [0u8; 8];
        word[..self.width].copy_from_slice(&bytes[self.at..self.at + self.width]);
        u64::from_le_bytes(word)
    }

    fn set(&self, bytes: &mut [u8], value: u64) {
        if let Some(cell) = bytes.get_mut(self.at..self.at + self.width) {
            cell.copy_from_slice(&value.to_le_bytes()[..self.width]);
        }
    }

    fn max(&self) -> u64 {
        u64::MAX >> (64 - 8 * self.width)
    }
}

/// One byte format under the harness.
struct Kind {
    name: &'static str,
    /// Valid inputs, each of which decodes.
    fixtures: fn() -> Vec<Vec<u8>>,
    /// Decode both ways; a file kind writes the bytes to the path first.
    decode: fn(&Path, &[u8]) -> [Outcome; 2],
    /// The length and offset fields of a fixture.
    fields: fn(&[u8]) -> Vec<Field>,
    /// Re-stamp every checksum the (possibly damaged) bytes locate.
    reseal: fn(&mut [u8]),
    /// How a flip of byte `i` of a fixture must land.
    flip: fn(&[u8], usize) -> Flip,
    /// What every truncation error says first.
    truncation_error: &'static str,
    /// What every field-step error says first.
    field_error: &'static str,
}

impl Kind {
    fn path(&self, step: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fz-hostile-{}-{}-{step}", std::process::id(), self.name))
    }

    /// Decode `bytes` both ways under `catch_unwind`; the two must agree.
    fn run(&self, path: &Path, bytes: &[u8], what: &dyn Fn() -> String) -> Outcome {
        let [a, b] = catch_unwind(AssertUnwindSafe(|| (self.decode)(path, bytes)))
            .unwrap_or_else(|_| panic!("{}: decode panicked on {}", self.name, what()));
        assert_eq!(a, b, "{}: the two decodes disagree on {}", self.name, what());
        a
    }

    fn resealed(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        (self.reseal)(&mut bytes);
        bytes
    }

    fn truncations(&self) {
        let path = self.path("truncations");
        for fixture in (self.fixtures)() {
            assert!(self.run(&path, &fixture, &|| "the fixture".into()).is_ok());
            for len in 0..fixture.len() {
                let cut = fixture[..len].to_vec();
                for (bytes, how) in [(cut.clone(), "as cut"), (self.resealed(cut), "re-sealed")] {
                    let what =
                        || format!("a truncation to {len} of {} bytes, {how}", fixture.len());
                    match self.run(&path, &bytes, &what) {
                        Ok(_) => panic!("{}: {} decodes", self.name, what()),
                        Err(e) => assert!(
                            e.starts_with(self.truncation_error),
                            "{}: {}: {e}",
                            self.name,
                            what()
                        ),
                    }
                }
            }
        }
    }

    fn bit_flips(&self) {
        let path = self.path("flips");
        for fixture in (self.fixtures)() {
            let pristine = self.run(&path, &fixture, &|| "the fixture".into()).unwrap();
            for byte in 0..fixture.len() {
                let policy = (self.flip)(&fixture, byte);
                for bit in 0..8 {
                    let mut evil = fixture.clone();
                    evil[byte] ^= 1 << bit;
                    let what = || format!("bit {bit} of byte {byte} of {} flipped", fixture.len());
                    match (self.run(&path, &evil, &what), policy) {
                        (Err(_), _) => {}
                        (Ok(got), Flip::RejectOrSame) if got == pristine => {}
                        (Ok(_), _) => panic!("{}: {} decodes ({policy:?})", self.name, what()),
                    }
                }
            }
        }
    }

    fn fields(&self) {
        let path = self.path("fields");
        for fixture in (self.fixtures)() {
            let len = fixture.len() as u64;
            for field in (self.fields)(&fixture) {
                for value in [0, len - 1, len, field.max() - 3, field.max()] {
                    if field.get(&fixture) == value {
                        continue;
                    }
                    let mut evil = fixture.clone();
                    field.set(&mut evil, value);
                    let evil = self.resealed(evil);
                    let what = || format!("{field:?} of {len} bytes set to {value}, re-sealed");
                    match self.run(&path, &evil, &what) {
                        Ok(_) => panic!("{}: {} decodes", self.name, what()),
                        Err(e) => {
                            assert!(
                                e.starts_with(self.field_error),
                                "{}: {}: {e}",
                                self.name,
                                what()
                            )
                        }
                    }
                }
            }
        }
    }

    fn mutations(&self, seed: u64) {
        let path = self.path("mutations");
        let fixtures = (self.fixtures)();
        let mut rng = Mix(seed);
        let mut past_checksums = 0;
        for i in 0..MUTATIONS {
            let fixture = &fixtures[rng.below(fixtures.len())];
            let fields = (self.fields)(fixture);
            let mut evil = fixture.clone();
            for _ in 0..1 + rng.below(3) {
                match rng.below(4) {
                    0 if !fields.is_empty() => {
                        let field = fields[rng.below(fields.len())];
                        let (len, old) = (evil.len() as u64, field.get(fixture));
                        let value = match rng.below(6) {
                            0 => rng.next() & field.max(),
                            1 => old.wrapping_add(1 + rng.below(16) as u64) & field.max(),
                            2 => old.wrapping_sub(1 + rng.below(16) as u64) & field.max(),
                            3 => len.wrapping_add(rng.below(3) as u64).wrapping_sub(1),
                            _ => field.max() - rng.below(4) as u64,
                        };
                        field.set(&mut evil, value);
                    }
                    1 if !evil.is_empty() => {
                        let at = rng.below(evil.len());
                        evil[at] ^= 1 << rng.below(8);
                    }
                    _ => {
                        // Splice a run of some fixture's bytes over, into or
                        // out of this one.
                        let donor = &fixtures[rng.below(fixtures.len())];
                        let from = rng.below(donor.len());
                        let run = &donor[from..(from + 1 + rng.below(32)).min(donor.len())];
                        let at = rng.below(evil.len() + 1);
                        match rng.below(3) {
                            0 => {
                                let end = (at + run.len()).min(evil.len());
                                evil[at..end].copy_from_slice(&run[..end - at]);
                            }
                            1 => drop(evil.splice(at..at, run.iter().copied())),
                            _ => drop(evil.drain(at..(at + run.len()).min(evil.len()))),
                        }
                    }
                }
            }
            let evil = self.resealed(evil);
            let what = || format!("mutant {i} of seed {seed}");
            if !matches!(self.run(&path, &evil, &what), Err(e) if e.contains("checksum")) {
                past_checksums += 1;
            }
        }
        assert!(
            past_checksums * 2 > MUTATIONS,
            "{}: only {past_checksums} of {MUTATIONS} mutants got past the checksums",
            self.name
        );
    }
}

/// splitmix64: a seeded stream of words.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The word at `at`, if the bytes hold it.
fn word(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at.checked_add(8)?)?.try_into().ok()?))
}

/// Re-stamp the checksum `sum` of `bytes[from..to - 8]` into the last
/// word of `bytes[from..to]`, if the range is in the bytes.
fn stamp(bytes: &mut [u8], from: usize, to: usize, sum: fn(&[u8]) -> u64) {
    if from.checked_add(8).is_some_and(|start| start <= to) && to <= bytes.len() {
        let sum = sum(&bytes[from..to - 8]);
        bytes[to - 8..to].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Re-stamp the `fnv1a` in the last word over every byte before it.
fn reseal_whole(bytes: &mut [u8]) {
    let len = bytes.len();
    stamp(bytes, 0, len, fnv1a);
}

/// A temp path no other call gets: the four steps of a kind are concurrent
/// tests, and each builds its own fixtures.
fn fixture_path(kind: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fz-hostile-{}-{kind}-fixture-{n}", std::process::id()))
}

/// Write `bytes` to `path`, open the file with `open`, then remove it.
/// Each decode writes a new file, never a truncating rewrite of the last
/// one: ext4 starts writeback of a file truncated and rewritten
/// (`auto_da_alloc`), and the next rewrite waits for it, which made every
/// file step wait on the disk rather than the CPU.
fn from_file<T>(path: &Path, bytes: &[u8], open: impl FnOnce(&Path) -> T) -> T {
    std::fs::write(path, bytes).unwrap();
    let opened = open(path);
    std::fs::remove_file(path).unwrap();
    opened
}

fn show<T>(result: Result<T, impl std::fmt::Display>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

fn summary_digest(digest: &mut Vec<u64>, s: &ObjectSummary<2>) {
    digest.extend([s.id.0, s.point_count as u64]);
    for d in 0..2 {
        digest.extend(
            [
                s.support_mbr.lo(d),
                s.support_mbr.hi(d),
                s.kernel_mbr.lo(d),
                s.kernel_mbr.hi(d),
                s.upper_lines[d].m,
                s.upper_lines[d].t,
                s.lower_lines[d].m,
                s.lower_lines[d].t,
                s.rep[d],
            ]
            .map(f64::to_bits),
        );
    }
}

fn object_digest(digest: &mut Vec<u64>, obj: &FuzzyObject<2>) {
    digest.push(obj.id().0);
    for (p, mu) in obj.points().iter().zip(obj.memberships()) {
        digest.extend([p[0].to_bits(), p[1].to_bits(), mu.to_bits()]);
    }
}

fn object(id: u64, x: f64, y: f64) -> FuzzyObject<2> {
    let pts = vec![Point::xy(x, y), Point::xy(x + 0.5, y + 0.25), Point::xy(x - 0.25, y)];
    FuzzyObject::new(ObjectId(id), pts, vec![1.0, 0.6, 0.3]).unwrap()
}

fn grid(n: u64) -> Vec<ObjectSummary<2>> {
    let at = |i: u64| ((i % 5) as f64 * 2.0, (i / 5) as f64 * 2.0);
    (0..n).map(|i| ObjectSummary::from_object(&object(i, at(i).0, at(i).1))).collect()
}

// ---------------------------------------------------------------------
// `.fzkn`: header (its last word the seal) | records | summaries | index |
// trailer. Each record carries an `fnv1a_lanes` digest, and the seal is
// the `fnv1a_lanes` digest of the summary and index sections.

fn fzkn_fixtures() -> Vec<Vec<u8>> {
    let path = fixture_path("fzkn");
    let mut writer = FileStoreWriter::<2>::create(&path).unwrap();
    for id in [42u64, 43] {
        writer.append(&object(id, id as f64, -(id as f64))).unwrap();
    }
    drop(writer.finish().unwrap());
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    vec![bytes]
}

fn fzkn_decode(path: &Path, bytes: &[u8]) -> [Outcome; 2] {
    let digest = |store: FileStore<2>| {
        let mut digest = Vec::new();
        for s in store.summaries() {
            summary_digest(&mut digest, s);
            object_digest(&mut digest, &*store.probe(s.id)?);
        }
        Ok(digest)
    };
    let file = from_file(path, bytes, |path| FileStore::<2>::open(path).and_then(digest));
    [show(file), show(FileStore::<2>::from_image(bytes.to_vec()).and_then(digest))]
}

/// The summary and index sections' offsets, from the trailer, and the
/// trailer's.
fn fzkn_layout(bytes: &[u8]) -> Option<(usize, usize, usize)> {
    let trailer = bytes.len().checked_sub(TRAILER_LEN)?;
    let (summaries, index) = (word(bytes, trailer)? as usize, word(bytes, trailer + 8)? as usize);
    Some((summaries, index, trailer))
}

fn fzkn_field_list(bytes: &[u8]) -> Vec<Field> {
    let (summaries, index, trailer) = fzkn_layout(bytes).unwrap();
    let mut fields = vec![Field::u64(summaries), Field::u64(index)];
    fields.extend((0..3).map(|k| Field::u64(trailer + 8 * k)));
    let count = word(bytes, index).unwrap() as usize;
    // Each index entry's id, offset and length.
    fields.extend((0..3 * count).map(|k| Field::u64(index + 8 + 8 * k)));
    fields
}

fn fzkn_reseal(bytes: &mut [u8]) {
    let Some((summaries, index, trailer)) = fzkn_layout(bytes) else { return };
    let count = word(bytes, index).unwrap_or(0) as usize;
    for k in 0..count.min(trailer.saturating_sub(index) / 24) {
        let (Some(off), Some(len)) =
            (word(bytes, index + 8 + 24 * k + 8), word(bytes, index + 24 * k + 24))
        else {
            return;
        };
        if let (Ok(off), Ok(end)) = (usize::try_from(off), usize::try_from(off.saturating_add(len)))
        {
            stamp(bytes, off, end, fnv1a_lanes);
        }
    }
    if summaries <= trailer && bytes.len() >= 16 {
        let seal = fnv1a_lanes(&bytes[summaries..trailer]);
        bytes[8..16].copy_from_slice(&seal.to_le_bytes());
    }
}

const FZKN: Kind = Kind {
    name: "fzkn",
    fixtures: fzkn_fixtures,
    decode: fzkn_decode,
    fields: fzkn_field_list,
    reseal: fzkn_reseal,
    flip: |_, _| Flip::Reject,
    truncation_error: "",
    field_error: "corrupt store:",
};

// ---------------------------------------------------------------------
// A `.fzkn` record: id | point count | flags | permutation | memberships |
// coordinate columns | `fnv1a_lanes` over all of it, decoded as a probe decodes
// it. (The `.fzkn` kind reaches records through the store's index.)

fn record_object() -> FuzzyObject<2> {
    let pts = vec![
        Point::xy(1.5, -2.25),
        Point::xy(0.0, 0.125),
        Point::xy(-3.5, 7.0),
        Point::xy(2.0, 2.0),
        Point::xy(-1.0, -1.0),
    ];
    FuzzyObject::new(ObjectId(42), pts, vec![1.0, 0.5, 0.5, 0.25, 0.125]).unwrap()
}

fn record_decode(_: &Path, record: &[u8]) -> [Outcome; 2] {
    let digest = |bytes: &[u8]| {
        let mut digest = Vec::new();
        decode_object::<2>(bytes).map(|obj| object_digest(&mut digest, &obj)).map(|_| digest)
    };
    // The same bytes one byte off their buffer's alignment: a decode must
    // not depend on where the record sits.
    let mut shifted = vec![0u8; record.len() + 1];
    shifted[1..].copy_from_slice(record);
    [show(digest(record)), show(digest(&shifted[1..]))]
}

const RECORD: Kind = Kind {
    name: "record",
    fixtures: || vec![encode_object(&record_object())],
    decode: record_decode,
    // The point count.
    fields: |_| vec![Field::u32(8)],
    reseal: |bytes| {
        let len = bytes.len();
        stamp(bytes, 0, len, fnv1a_lanes)
    },
    flip: |_, _| Flip::Reject,
    truncation_error: "",
    field_error: "corrupt store:",
};

// ---------------------------------------------------------------------
// `.fzpt`: header | pages | id column | page table | trailer, every
// section sealed with `fnv1a_lanes` except the trailer.

/// Header offsets of the page count, the root page and the object count.
const FZPT_HEADER_FIELDS: [usize; 3] = [16, 24, 40];

fn fzpt_fixtures() -> Vec<Vec<u8>> {
    let path = fixture_path("fzpt");
    // Small pages and 2-entry nodes: a three-level tree in 1.4 KiB.
    PagedRTree::bulk_write(grid(5), RTreeConfig { max_entries: 2 }, &path, 512).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    vec![bytes]
}

/// Every page reachable from the root (each at most once), then the id
/// column.
fn fzpt_scan(tree: PagedRTree<2>) -> Result<Vec<u64>, fuzzy_store::StoreError> {
    let (mut digest, mut queue) = (Vec::new(), vec![tree.root_id()]);
    let mut seen = vec![false; tree.page_count()];
    while let Some(id) = queue.pop() {
        if std::mem::replace(&mut seen[id.index() as usize], true) {
            return Err(fuzzy_store::StoreError::Corrupt { reason: "a page twice".into() });
        }
        let node = tree.read_node(id)?;
        digest.push(id.index() as u64);
        match node.view() {
            NodeView::Nodes(children) => {
                for c in children {
                    digest.push(c.id.index() as u64);
                    digest
                        .extend((0..2).flat_map(|d| [c.mbr.lo(d), c.mbr.hi(d)]).map(f64::to_bits));
                    queue.push(c.id);
                }
            }
            NodeView::Entries(entries) => {
                entries.iter().for_each(|e| summary_digest(&mut digest, &e))
            }
        }
    }
    digest.extend(tree.stored_ids()?.iter());
    Ok(digest)
}

fn fzpt_decode(path: &Path, bytes: &[u8]) -> [Outcome; 2] {
    let file = from_file(path, bytes, |path| PagedRTree::<2>::open(path).and_then(fzpt_scan));
    [show(file), show(PagedRTree::<2>::from_image(bytes.to_vec()).and_then(fzpt_scan))]
}

/// A byte range `(start, end)`.
type Span = (usize, usize);

/// The page table's and id column's offsets, and each page's span.
fn fzpt_layout(bytes: &[u8]) -> Option<(usize, usize, Vec<Span>)> {
    let tail = bytes.len().checked_sub(PAGED_TRAILER_LEN)?;
    let (table, ids) = (word(bytes, tail)? as usize, word(bytes, tail + 8)? as usize);
    let count = (word(bytes, table)? as usize).min(bytes.len() / 16);
    let pages = (0..count)
        .map_while(|i| Some((word(bytes, table + 8 + 16 * i)?, word(bytes, table + 16 + 16 * i)?)))
        .map_while(|(at, len)| {
            Some((usize::try_from(at).ok()?, usize::try_from(at.checked_add(len)?).ok()?))
        })
        .collect();
    Some((table, ids, pages))
}

fn fzpt_field_list(bytes: &[u8]) -> Vec<Field> {
    let (table, ids, pages) = fzpt_layout(bytes).unwrap();
    let tail = bytes.len() - PAGED_TRAILER_LEN;
    let mut fields: Vec<Field> = FZPT_HEADER_FIELDS.into_iter().map(Field::u64).collect();
    fields.extend([tail, tail + 8, tail + 16, table, ids].map(Field::u64));
    for (i, &(at, _)) in pages.iter().enumerate() {
        fields.extend([Field::u64(table + 8 + 16 * i), Field::u64(table + 16 + 16 * i)]);
        // The page's entry count.
        fields.push(Field::u32(at + 4));
    }
    fields
}

fn fzpt_reseal(bytes: &mut [u8]) {
    let header = fuzzy_index::paged_header_len(2);
    stamp(bytes, 0, header, fnv1a_lanes);
    let Some((table, ids, pages)) = fzpt_layout(bytes) else { return };
    for (at, end) in pages {
        stamp(bytes, at, end, fnv1a_lanes);
    }
    stamp(bytes, ids, table, fnv1a_lanes);
    let tail = bytes.len().saturating_sub(PAGED_TRAILER_LEN);
    stamp(bytes, table, tail, fnv1a_lanes);
}

fn fzpt_flip(bytes: &[u8], i: usize) -> Flip {
    // The trailer's reserved word is read by nothing.
    let reserved = bytes.len() - 8..bytes.len() - 4;
    if reserved.contains(&i) {
        Flip::RejectOrSame
    } else {
        Flip::Reject
    }
}

const FZPT: Kind = Kind {
    name: "fzpt",
    fixtures: fzpt_fixtures,
    decode: fzpt_decode,
    fields: fzpt_field_list,
    reseal: fzpt_reseal,
    flip: fzpt_flip,
    truncation_error: "",
    field_error: "corrupt store:",
};

// ---------------------------------------------------------------------
// `.fzdl`: header (two counts) | inserted summaries | tombstones | one
// `fnv1a` over everything before it.

fn fzdl_fixtures() -> Vec<Vec<u8>> {
    let inserted = grid(3)[1..].to_vec();
    vec![
        DeltaLog::<2> { inserted, tombstones: vec![3, 9, 12] }.to_bytes(),
        DeltaLog::<2>::default().to_bytes(),
    ]
}

fn fzdl_decode(path: &Path, bytes: &[u8]) -> [Outcome; 2] {
    let digest = |log: DeltaLog<2>| {
        let mut digest = log.tombstones;
        log.inserted.iter().for_each(|s| summary_digest(&mut digest, s));
        digest
    };
    let file = from_file(path, bytes, |path| DeltaLog::load(path).map(digest));
    [show(file), show(DeltaLog::from_bytes(bytes).map(digest))]
}

const FZDL: Kind = Kind {
    name: "fzdl",
    fixtures: fzdl_fixtures,
    decode: fzdl_decode,
    fields: |_| vec![Field::u64(8), Field::u64(16)],
    reseal: reseal_whole,
    flip: |_, _| Flip::Reject,
    truncation_error: "",
    field_error: "corrupt store:",
};

// ---------------------------------------------------------------------
// FZQP frames: header (payload length at 16) | payload | `fnv1a` over both.

fn frame_fixtures() -> Vec<Vec<u8>> {
    let stats = WireStats { object_accesses: 7, wall_nanos: 1234, ..WireStats::default() };
    let mut range = IntervalSet::empty();
    range.push(Interval::new(0.2, true, 0.4, false));
    range.push(Interval::new(0.6, false, 0.8, true));
    let requests = [
        Request::Aknn {
            query: QuerySource::Inline {
                id: ObjectId(42),
                rows: vec![([1.0, 2.0], 0.5), ([3.0, -4.0], 0.25)],
            },
            k: 10,
            alpha: 0.5,
            variant: WireVariant::LbLpUb,
            deadline_ms: 250,
        },
        Request::Rknn {
            query: QuerySource::Stored(ObjectId(3)),
            k: 2,
            alpha_start: 0.2,
            alpha_end: 0.8,
            algo: RknnAlgorithm::RssIcr,
            variant: WireVariant::Lb,
            deadline_ms: 0,
        },
        Request::Swap { index_path: "idx.fzpt".into() },
        Request::Info,
    ];
    let responses = [
        Response::Aknn {
            neighbors: vec![
                Neighbor { id: ObjectId(1), dist: DistBound::Exact(1.5) },
                Neighbor { id: ObjectId(2), dist: DistBound::Bounded { lo: 1.5, hi: 2.5 } },
            ],
            stats,
        },
        Response::Rknn { items: vec![RknnItem { id: ObjectId(5), range }], stats },
        Response::Error { code: ErrorCode::SwapFailed, message: "no such file".into() },
        Response::Busy,
    ];
    let frames = requests.iter().map(|r| r.encode(7));
    frames.chain(responses.iter().map(|r| r.encode(7))).collect()
}

fn frame_decode(_: &Path, bytes: &[u8]) -> [Outcome; 2] {
    let payload = |frame_type: u8, request_id: u64, payload: &[u8]| {
        let decoded = if frame_type < 0x80 {
            show(Request::decode(frame_type, payload)).map(|r| format!("{r:?}"))
        } else {
            show(Response::decode(frame_type, payload)).map(|r| format!("{r:?}"))
        }?;
        Ok([frame_type as u64, request_id]
            .into_iter()
            .chain(decoded.bytes().map(u64::from))
            .collect())
    };
    let trailing = |used: usize| format!("{} bytes after the frame", bytes.len() - used);
    let whole = show(decode_frame(bytes)).and_then(|(frame, used)| match used == bytes.len() {
        true => payload(frame.frame_type, frame.request_id, &frame.payload),
        false => Err(trailing(used)),
    });
    let mut cursor = Cursor::new(bytes);
    let streamed = match show(read_frame(&mut cursor)) {
        Ok(Some(frame)) if cursor.position() as usize == bytes.len() => {
            payload(frame.frame_type, frame.request_id, &frame.payload)
        }
        Ok(Some(_)) => Err(trailing(cursor.position() as usize)),
        // A clean close before any byte is a truncated frame; after one,
        // it would disagree with `decode_frame`.
        Ok(None) if bytes.is_empty() => Err(fuzzy_server::WireError::Truncated.to_string()),
        Ok(None) => Err(format!("a clean close after {} bytes", bytes.len())),
        Err(e) => Err(e),
    };
    [whole, streamed]
}

fn frame_field_list(bytes: &[u8]) -> Vec<Field> {
    // The payload length, then the payload's counts and string lengths.
    let p = HEADER_LEN;
    let inner = match bytes[6] {
        // An inline query's row count sits after its tag and id.
        0x01 | 0x02 if bytes[p] == 1 => vec![Field::u32(p + 9)],
        0x05 | 0x81 => vec![Field::u32(p)],
        0x82 => vec![Field::u32(p), Field::u32(p + 12)],
        0xE0 => vec![Field::u32(p + 2)],
        _ => vec![],
    };
    std::iter::once(Field::u32(16)).chain(inner).collect()
}

fn frame_reseal(bytes: &mut [u8]) {
    if let Some(len) = bytes.get(16..20) {
        let end = HEADER_LEN + u32::from_le_bytes(len.try_into().unwrap()) as usize + 8;
        stamp(bytes, 0, end, fnv1a);
    }
}

const FRAMES: Kind = Kind {
    name: "fzqp",
    fixtures: frame_fixtures,
    decode: frame_decode,
    fields: frame_field_list,
    reseal: frame_reseal,
    flip: |_, _| Flip::Reject,
    truncation_error: "frame truncated",
    field_error: "",
};

#[test]
fn fzkn_truncations() {
    FZKN.truncations();
}

#[test]
fn fzkn_bit_flips() {
    FZKN.bit_flips();
}

#[test]
fn fzkn_fields() {
    FZKN.fields();
}

#[test]
fn fzkn_mutations() {
    FZKN.mutations(0xF2C7);
}

/// A summary bit that keeps every invariant a summary is checked by — a
/// bit of its point count or reserved flags, the last mantissa bit of a
/// line coefficient — opened in v3 as a different summary. The v4 seal
/// refuses it at open, as a file and as an image, with a typed `Corrupt`.
#[test]
fn fzkn_summary_flips_the_invariants_allow_fail_the_seal() {
    let fixture = fzkn_fixtures().remove(0);
    let (summaries, _, _) = fzkn_layout(&fixture).unwrap();
    let path = fixture_path("fzkn-seal");
    // Point count, flags, then the eight line cells after the two boxes.
    let cells = [8, 12].into_iter().chain((0..8).map(|k| 16 + 8 * (8 + k)));
    for second in [0, summary_len(2)] {
        for cell in cells.clone() {
            let at = summaries + 8 + second + cell;
            let mut evil = fixture.clone();
            evil[at] ^= 1;
            let what = || format!("bit 0 of byte {at}");
            match FZKN.run(&path, &evil, &what) {
                Err(e) => assert!(
                    e.starts_with("corrupt store: summary and index checksum mismatch"),
                    "{}: {e}",
                    what()
                ),
                Ok(_) => panic!("{} opens", what()),
            }
        }
    }
}

#[test]
fn record_truncations() {
    RECORD.truncations();
}

#[test]
fn record_bit_flips() {
    RECORD.bit_flips();
}

#[test]
fn record_fields() {
    RECORD.fields();
}

#[test]
fn record_mutations() {
    RECORD.mutations(0x5EC);
}

#[test]
fn fzpt_truncations() {
    FZPT.truncations();
}

#[test]
fn fzpt_bit_flips() {
    FZPT.bit_flips();
}

#[test]
fn fzpt_fields() {
    FZPT.fields();
}

#[test]
fn fzpt_mutations() {
    FZPT.mutations(0xF2B7);
}

#[test]
fn fzdl_truncations() {
    FZDL.truncations();
}

#[test]
fn fzdl_bit_flips() {
    FZDL.bit_flips();
}

#[test]
fn fzdl_fields() {
    FZDL.fields();
}

#[test]
fn fzdl_mutations() {
    FZDL.mutations(0xFD1);
}

#[test]
fn frame_truncations() {
    FRAMES.truncations();
}

#[test]
fn frame_bit_flips() {
    FRAMES.bit_flips();
}

#[test]
fn frame_fields() {
    FRAMES.fields();
}

#[test]
fn frame_mutations() {
    FRAMES.mutations(0xF2F);
}
