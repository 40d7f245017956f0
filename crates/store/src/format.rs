//! On-disk binary format (hand-rolled, little-endian, versioned).
//!
//! Normative byte-level spec — including the paged R-tree index format
//! that reuses this module's encoder/decoder — in `docs/FORMAT.md`.
//!
//! ```text
//! [ header   ] magic "FZKN" | version u16 | dims u16 | reserved u64
//! [ records  ] one per object: id u64 | n u32 | flags u32
//!              | perm n×u32 | µ n×f64 (descending) | cols D×n×f64 | fnv u64
//! [ summaries] count u64, then one fixed-size summary per object
//! [ index    ] count u64, then per object: id u64 | offset u64 | len u64
//! [ trailer  ] summary_off u64 | index_off u64 | count u64 | magic "FZKN"
//! ```
//!
//! Every record carries an FNV-1a checksum so a truncated or bit-flipped
//! file is detected at probe time rather than silently decoded. A probe
//! reads its record in one [`ChecksumWalk`]: each word is folded into the
//! checksum, converted and handed to the layout checks in the same step.

use crate::error::StoreError;
use fuzzy_core::{ColumnarChecker, FuzzyObject, ObjectId, ObjectSummary};
use fuzzy_geom::ConservativeLine;

/// File magic.
pub const MAGIC: [u8; 4] = *b"FZKN";
/// Format version understood by this build. Version 2 switched every
/// checksum from bytewise FNV-1a to the word-at-a-time variant below —
/// record decoding sits on the query hot path, and the byte-serial
/// multiply chain of classic FNV cost more than the rest of the decode
/// combined. Version 3 turned object records **columnar**: points are
/// stored membership-descending as dimension-major coordinate columns
/// plus the permutation that restores construction order, so a decoded
/// object's [`MembershipPrefix`](fuzzy_core::MembershipPrefix) — the
/// layout every hot distance kernel scans — *is* the record's three
/// sections, converted to native words and nothing else.
pub const VERSION: u16 = 3;
/// Header length in bytes.
pub const HEADER_LEN: usize = 4 + 2 + 2 + 8;
/// Trailer length in bytes.
pub const TRAILER_LEN: usize = 8 + 8 + 8 + 4;

/// 64-bit FNV-1a over **8-byte little-endian words** (spec in
/// `docs/FORMAT.md`): the state is seeded with the FNV offset basis mixed
/// with the input length, then each word — the trailing partial word
/// zero-padded — is folded with the classic `xor`-then-multiply step.
/// One multiply per 8 bytes instead of one per byte gives ~8× the
/// throughput with the same error-detection envelope for our fixed-layout
/// records (length is part of the state, so zero padding cannot alias).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    ChecksumWalk::new(bytes).finish()
}

/// The state [`fnv1a`] starts from for an input of `len` bytes.
#[inline]
fn fnv_seed(len: usize) -> u64 {
    0xcbf29ce484222325 ^ (len as u64).wrapping_mul(FNV_PRIME)
}

/// One word of [`fnv1a`]: the classic `xor`-then-multiply step.
#[inline]
fn fnv_step(h: u64, word: &[u8]) -> u64 {
    (h ^ u64::from_le_bytes(word.try_into().expect("an 8-byte word"))).wrapping_mul(FNV_PRIME)
}

const FNV_PRIME: u64 = 0x100000001b3;

/// Independent chains of [`fnv1a_lanes`], the checksum of every `.fzpt`
/// v4 page, header, table and id column.
pub const LANES: usize = 4;

/// The four-lane word FNV-1a (spec and test vector in `docs/FORMAT.md`):
/// word `i` of the input (the trailing partial word zero-padded) folds
/// into lane `i mod 4` with [`fnv1a`]'s step, lane `k` seeded with
/// [`fnv1a`]'s length-mixed seed XOR `k`; at the end the four lanes are
/// folded in lane order, as four words, into a chain from that same seed.
/// The four multiply chains are independent, so a long input costs about
/// a quarter of [`fnv1a`]'s latency, and a change to any one word still
/// changes its lane and so the digest.
pub fn fnv1a_lanes(bytes: &[u8]) -> u64 {
    ChecksumWalk::lanes(bytes).finish()
}

/// [`fnv1a`] (`LANES = 1`, the default) or [`fnv1a_lanes`]
/// (`LANES = 4`) taken a piece at a time by a decoder, so the decode runs
/// in the checksum's shadow.
///
/// A checksum chain is a strict dependency chain (a multiply per word),
/// which leaves most of the core idle; a decoder that converts and checks
/// values while the chain folds gets that work done in the chain's shadow
/// instead of in passes after it. The walk folds the input's words in
/// order, in one of two ways:
///
/// * **folding ahead** ([`ChecksumWalk::fold`]) while the caller parses the
///   same bytes itself, a share of the words per entry parsed (a `.fzpt`
///   page read, in lane mode: [`ChecksumWalk::lanes`]);
/// * **reading through the walk** (this module's `u64`, `u32s` and `f64s`,
///   what [`decode_object`] does; chain mode only): the walk reads front
///   to back, and every read folds the words that end inside it — after an
///   odd count of `u32`s the walk sits 4 bytes into a word, which the next
///   read folds. A section yields the values that are there, at most the
///   `n` asked for, and the walk moves past all of them: take every value
///   of a section before reading on.
///
/// The two do not mix: a read after folding ahead folds its words again.
///
/// [`ChecksumWalk::finish`] folds whatever was not folded yet, so its
/// digest is always that of the whole input: a decoder may stop at its
/// first error and still report the checksum verdict first.
#[derive(Debug)]
pub struct ChecksumWalk<'a, const LANES: usize = 1> {
    bytes: &'a [u8],
    /// Lane `k` holds the fold of words `k`, `k + LANES`, ….
    h: [u64; LANES],
    /// Bytes read through the walk.
    read: usize,
    /// Bytes folded: a multiple of `8 · LANES` while folding ahead, of 8
    /// while reading through; every whole word before it.
    folded: usize,
}

impl<'a> ChecksumWalk<'a, LANES> {
    /// Start the [`fnv1a_lanes`] lanes over `bytes`.
    #[inline]
    pub fn lanes(bytes: &'a [u8]) -> Self {
        Self::seeded(bytes)
    }
}

impl<'a, const L: usize> ChecksumWalk<'a, L> {
    #[inline]
    fn seeded(bytes: &'a [u8]) -> Self {
        let seed = fnv_seed(bytes.len());
        Self { bytes, h: std::array::from_fn(|k| seed ^ k as u64), read: 0, folded: 0 }
    }

    /// Fold about `words` more whole words, ahead of any read: whole runs
    /// of one word per lane, rounded up, never past the input's last whole
    /// run.
    #[inline]
    pub fn fold(&mut self, words: usize) {
        let run = 8 * L;
        let whole = self.bytes.len() - self.bytes.len() % run;
        let end = self.folded.saturating_add(words.div_ceil(L).saturating_mul(run)).min(whole);
        if end <= self.folded {
            return;
        }
        for run in self.bytes[self.folded..end].chunks_exact(run) {
            for (k, h) in self.h.iter_mut().enumerate() {
                *h = fnv_step(*h, &run[8 * k..8 * k + 8]);
            }
        }
        self.folded = end;
    }

    /// Fold every word not folded yet and return the digest.
    #[inline]
    pub fn finish(mut self) -> u64 {
        self.fold(usize::MAX);
        let first = self.folded / 8;
        for (i, word) in self.bytes[self.folded..].chunks(8).enumerate() {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            let lane = &mut self.h[(first + i) % L];
            *lane = fnv_step(*lane, &padded);
        }
        if L == 1 {
            return self.h[0];
        }
        let seed = fnv_seed(self.bytes.len());
        self.h.iter().fold(seed, |h, lane| (h ^ lane).wrapping_mul(FNV_PRIME))
    }
}

impl<'a> ChecksumWalk<'a, 1> {
    /// Start the [`fnv1a`] chain over `bytes` (the state is seeded with its
    /// length).
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::seeded(bytes)
    }

    /// The next little-endian `u64`, or the [`Decoder`]'s error for it.
    #[inline]
    fn u64(&mut self) -> Result<u64, DecodeError> {
        let (at, word) = (self.read, self.read & !7);
        if at + 8 > self.bytes.len() {
            return Err(DecodeError::EndOfData { need: 8, at, have: self.bytes.len() });
        }
        self.h[0] = fnv_step(self.h[0], &self.bytes[word..word + 8]);
        (self.read, self.folded) = (at + 8, word + 8);
        Ok(u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8 bytes are there")))
    }

    /// The next `n` little-endian `u32`s.
    #[inline]
    fn u32s<'w>(&'w mut self, n: usize) -> impl Iterator<Item = u32> + 'w
    where
        'a: 'w,
    {
        let (bytes, at): (&'w [u8], usize) = (self.bytes, self.read);
        let n = n.min((bytes.len() - at) / 4);
        self.read += 4 * n;
        self.folded = self.read & !7;
        let h = &mut self.h[0];
        bytes[at..at + 4 * n].chunks_exact(4).enumerate().map(move |(k, value)| {
            let end = at + 4 * k + 4;
            if end % 8 == 0 {
                *h = fnv_step(*h, &bytes[end - 8..end]);
            }
            u32::from_le_bytes(value.try_into().expect("a chunks_exact(4) item"))
        })
    }

    /// The next `n` little-endian `f64`s.
    #[inline]
    fn f64s<'w>(&'w mut self, n: usize) -> impl Iterator<Item = f64> + 'w
    where
        'a: 'w,
    {
        let (bytes, at): (&'w [u8], usize) = (self.bytes, self.read);
        let n = n.min((bytes.len() - at) / 8);
        self.read += 8 * n;
        self.folded = self.read & !7;
        // Value `k` ends inside word `k` from the one the read starts in.
        let words = bytes[at & !7..(at & !7) + 8 * n].chunks_exact(8);
        let h = &mut self.h[0];
        bytes[at..at + 8 * n].chunks_exact(8).zip(words).map(move |(value, word)| {
            *h = fnv_step(*h, word);
            f64::from_le_bytes(value.try_into().expect("a chunks_exact(8) item"))
        })
    }
}

/// Why a [`Decoder`] read failed: the one error of the codec every file
/// and frame reader shares. `From` turns it into a [`StoreError`] (its
/// `Display` text is the `Corrupt` reason) and, in `fuzzy-server`, into a
/// wire error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A read of `need` bytes at offset `at` runs past the `have` bytes of
    /// the input (or past `usize::MAX`).
    EndOfData {
        /// Bytes the read asked for.
        need: usize,
        /// Offset of the read.
        at: usize,
        /// Length of the input.
        have: usize,
    },
    /// A count read from the input needs more bytes than remain.
    Count {
        /// The count read.
        count: u64,
        /// Bytes left after it.
        left: usize,
    },
    /// Bytes remain after the last field.
    Trailing {
        /// How many.
        left: usize,
    },
    /// A string field is not UTF-8.
    NotUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EndOfData { need, at, have } => {
                write!(f, "unexpected end of data: need {need} bytes at offset {at}, have {have}")
            }
            Self::Count { count, left } => write!(f, "count {count} exceeds the {left} bytes left"),
            Self::Trailing { left } => write!(f, "{left} trailing bytes after the last field"),
            Self::NotUtf8 => write!(f, "string is not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        Self::Corrupt { reason: e.to_string() }
    }
}

/// Little-endian byte writer over a growable buffer: [`Decoder`]'s pair.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self { buf: Vec::with_capacity(n) }
    }

    /// Append a u8.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a u16.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a string: its byte length as a u32, then its UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Little-endian byte reader, total on hostile input: every read is
/// bounds-checked with overflow-checked arithmetic, and a count read from
/// the input is capped by the bytes that remain ([`Decoder::count`])
/// before anything is sized from it.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wrap a byte slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        let Some(end) = end else {
            return Err(DecodeError::EndOfData { need: n, at: self.pos, have: self.buf.len() });
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Read a u8.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read an f64.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Read a string written by [`Encoder::str`].
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| DecodeError::NotUtf8)
    }

    /// Read a count with `read` (`Decoder::u32` or `Decoder::u64`) and
    /// check that that many items of `item_len` bytes (at least one byte
    /// each) fit in what remains, so no count can size a buffer the input
    /// cannot fill.
    #[inline]
    pub fn count<T: Into<u64>>(
        &mut self,
        read: fn(&mut Self) -> Result<T, DecodeError>,
        item_len: usize,
    ) -> Result<usize, DecodeError> {
        let count = read(self)?.into();
        let left = self.remaining();
        match usize::try_from(count) {
            Ok(n) if n.saturating_mul(item_len.max(1)) <= left => Ok(n),
            _ => Err(DecodeError::Count { count, left }),
        }
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Check that every byte was read.
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(DecodeError::Trailing { left }),
        }
    }
}

/// Encoded size of one v3 object record with `n` points in `d` dimensions.
pub const fn record_len(d: usize, n: usize) -> usize {
    8 + 4 + 4 + n * 4 + n * 8 + d * n * 8 + 8
}

/// Encode one object record (including trailing checksum).
///
/// Records store the **membership-descending columnar** layout directly:
/// the permutation back to construction order, the sorted memberships,
/// then the dimension-major coordinate columns. Decoding therefore hands
/// the distance kernels their scan layout as it stands (the decoded
/// sections are the object's `MembershipPrefix`), while the observable
/// object round-trips exactly — same points, memberships and iteration
/// order.
pub fn encode_object<const D: usize>(obj: &FuzzyObject<D>) -> Vec<u8> {
    let n = obj.len();
    let pb = obj.by_membership();
    let mut e = Encoder::with_capacity(record_len(D, n));
    e.u64(obj.id().0);
    e.u32(n as u32);
    e.u32(0); // flags, reserved
    for &i in pb.source_indices() {
        e.u32(i);
    }
    for &mu in pb.memberships() {
        e.f64(mu);
    }
    for d in 0..D {
        for &c in pb.coord_column(d) {
            e.f64(c);
        }
    }
    let sum = fnv1a(e.as_bytes());
    e.u64(sum);
    e.into_bytes()
}

/// Decode one object record in one [`ChecksumWalk`]: every word is folded
/// into the checksum, converted into its column and checked by a
/// [`ColumnarChecker`] in the same step. A checksum mismatch outranks every
/// other error; then a point count the record's length disagrees with;
/// then the checker's verdict.
pub fn decode_object<const D: usize>(bytes: &[u8]) -> Result<FuzzyObject<D>, StoreError> {
    if bytes.len() < record_len(D, 0) {
        return Err(StoreError::Corrupt { reason: "record too short".into() });
    }
    let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = Decoder::new(sum_bytes).u64()?;
    let mut walk = ChecksumWalk::new(payload);
    let decoded = walk_object(&mut walk);
    let computed = walk.finish();
    if stored != computed {
        return Err(StoreError::Corrupt {
            reason: format!("record checksum mismatch: stored {stored:x}, computed {computed:x}"),
        });
    }
    decoded
}

/// The record body behind [`decode_object`]'s walk.
fn walk_object<const D: usize>(walk: &mut ChecksumWalk<'_>) -> Result<FuzzyObject<D>, StoreError> {
    let id = ObjectId(walk.u64()?);
    // `n` u32, then the reserved flags u32.
    let n = walk.u64()? as u32 as usize;
    let expected = n * 4 + n * 8 + D * n * 8;
    let carried = walk.bytes.len() - walk.read;
    if carried != expected {
        return Err(StoreError::Corrupt {
            reason: format!(
                "record for {id} declares {n} points but carries {carried} payload bytes (expected {expected})"
            ),
        });
    }
    let mut check = ColumnarChecker::<D>::new(n);
    check.fill_source_indices(walk.u32s(n));
    check.fill_memberships(walk.f64s(n));
    for _ in 0..D {
        check.fill_coord_column(walk.f64s(n));
    }
    Ok(check.finish(id)?)
}

/// Fixed encoded size of one summary.
pub const fn summary_len(d: usize) -> usize {
    8 + 4 + 4 + (4 * d + 4 * d + d) * 8
}

/// Encode one summary into `e`.
pub fn encode_summary<const D: usize>(e: &mut Encoder, s: &ObjectSummary<D>) {
    e.u64(s.id.0);
    e.u32(s.point_count);
    e.u32(0); // padding / future flags
    for i in 0..D {
        e.f64(s.support_mbr.lo(i));
        e.f64(s.support_mbr.hi(i));
    }
    for i in 0..D {
        e.f64(s.kernel_mbr.lo(i));
        e.f64(s.kernel_mbr.hi(i));
    }
    for line in &s.upper_lines {
        e.f64(line.m);
        e.f64(line.t);
    }
    for line in &s.lower_lines {
        e.f64(line.m);
        e.f64(line.t);
    }
    for i in 0..D {
        e.f64(s.rep[i]);
    }
}

/// Decode the summary at the front of `bytes` (its first [`summary_len`]
/// bytes, read at fixed offsets), checked by [`ObjectSummary::from_stored`]:
/// the section summaries live in carries no checksum of its own (`.fzkn`),
/// so a damaged box must fail here rather than prune a true neighbour.
pub fn decode_summary<const D: usize>(bytes: &[u8]) -> Result<ObjectSummary<D>, StoreError> {
    let len = summary_len(D);
    let Some(record) = bytes.get(..len) else {
        return Err(DecodeError::EndOfData { need: len, at: 0, have: bytes.len() }.into());
    };
    let word = |at: usize| u64::from_le_bytes(record[at..at + 8].try_into().expect("8 bytes"));
    // The f64 cells after id, point count and flags, in encoding order:
    // support then kernel (lo, hi) per dimension, upper then lower lines
    // (m, t) per dimension, the representative point.
    let cell = |k: usize| f64::from_bits(word(16 + 8 * k));
    let id = ObjectId(word(0));
    let point_count = word(8) as u32;
    let support = [std::array::from_fn(|i| cell(2 * i)), std::array::from_fn(|i| cell(2 * i + 1))];
    let kernel = [
        std::array::from_fn(|i| cell(2 * D + 2 * i)),
        std::array::from_fn(|i| cell(2 * D + 2 * i + 1)),
    ];
    let line = |first: usize, i: usize| ConservativeLine {
        m: cell(first + 2 * i),
        t: cell(first + 2 * i + 1),
    };
    let upper_lines = std::array::from_fn(|i| line(4 * D, i));
    let lower_lines = std::array::from_fn(|i| line(6 * D, i));
    let rep = std::array::from_fn(|i| cell(8 * D + i));
    ObjectSummary::from_stored(id, point_count, support, kernel, upper_lines, lower_lines, rep)
        .map_err(|e| StoreError::Corrupt { reason: format!("summary for {id}: {e}") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_geom::Point;

    fn sample_object(id: u64) -> FuzzyObject<2> {
        let pts = vec![Point::xy(1.5, -2.25), Point::xy(0.0, 0.125), Point::xy(-3.5, 7.0)];
        FuzzyObject::new(ObjectId(id), pts, vec![1.0, 0.5, 0.25]).unwrap()
    }

    #[test]
    fn object_roundtrip_is_exact() {
        let obj = sample_object(42);
        let bytes = encode_object(&obj);
        assert_eq!(bytes.len(), record_len(2, obj.len()));
        let back: FuzzyObject<2> = decode_object(&bytes).unwrap();
        assert_eq!(back.id(), obj.id());
        assert_eq!(back.points(), obj.points());
        assert_eq!(back.memberships(), obj.memberships());
        // v3 decoding pre-fills the membership-descending prefix layout —
        // no sort on the probe path — and it matches a lazy build bitwise.
        assert!(back.prefix_ready());
        let pa = obj.by_membership();
        let pb = back.by_membership();
        assert_eq!(pa.memberships(), pb.memberships());
        assert_eq!(pa.source_indices(), pb.source_indices());
        for d in 0..2 {
            assert_eq!(pa.coord_column(d), pb.coord_column(d));
        }
    }

    #[test]
    fn unsorted_record_payload_rejected() {
        // A forged record whose checksum is valid but whose memberships
        // ascend must be rejected by the layout validation, not decoded
        // into a silently wrong prefix.
        let mut e = Encoder::new();
        e.u64(9);
        e.u32(2);
        e.u32(0);
        e.u32(0);
        e.u32(1); // perm
        e.f64(0.5);
        e.f64(1.0); // µ ascending: invalid
        for c in [0.0, 1.0, 0.0, 1.0] {
            e.f64(c);
        }
        let sum = fnv1a(e.as_bytes());
        e.u64(sum);
        let err = decode_object::<2>(&e.into_bytes()).unwrap_err();
        assert!(matches!(err, StoreError::Model(_)), "{err}");
    }

    #[test]
    fn checksum_detects_corruption() {
        let obj = sample_object(1);
        let mut bytes = encode_object(&obj);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = decode_object::<2>(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let obj = sample_object(2);
        let bytes = encode_object(&obj);
        let err = decode_object::<2>(&bytes[..bytes.len() - 4]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        let err = decode_object::<2>(&bytes[..8]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn summary_roundtrip_is_exact() {
        let obj = sample_object(7);
        let s = ObjectSummary::from_object(&obj);
        let mut e = Encoder::new();
        encode_summary(&mut e, &s);
        assert_eq!(e.len(), summary_len(2));
        let bytes = e.into_bytes();
        let back: ObjectSummary<2> = decode_summary(&bytes).unwrap();
        assert!(decode_summary::<2>(&bytes[..bytes.len() - 1]).is_err(), "one byte short");
        assert_eq!(back.id, s.id);
        assert_eq!(back.point_count, s.point_count);
        assert_eq!(back.support_mbr, s.support_mbr);
        assert_eq!(back.kernel_mbr, s.kernel_mbr);
        assert_eq!(back.rep, s.rep);
        for i in 0..2 {
            assert_eq!(back.upper_lines[i], s.upper_lines[i]);
            assert_eq!(back.lower_lines[i], s.lower_lines[i]);
        }
    }

    #[test]
    fn checksum_discriminates() {
        // Length participates in the state: zero padding cannot alias.
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abc\0"));
        // Word-boundary sensitivity: moving a byte across the 8-byte
        // boundary changes the digest.
        assert_ne!(fnv1a(b"0123456x7"), fnv1a(b"01234567x"));
        // Single bit flips are detected in every position of a record-
        // sized buffer.
        let base = vec![0x5Au8; 64];
        let h = fnv1a(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv1a(&flipped), h, "flip at {i} undetected");
        }
        // Golden value pins the algorithm across refactors.
        assert_eq!(fnv1a(b"fuzzy-knn"), {
            const PRIME: u64 = 0x100000001b3;
            let mut h: u64 = 0xcbf29ce484222325 ^ 9u64.wrapping_mul(PRIME);
            h = (h ^ u64::from_le_bytes(*b"fuzzy-kn")).wrapping_mul(PRIME);
            h = (h ^ u64::from_le_bytes(*b"n\0\0\0\0\0\0\0")).wrapping_mul(PRIME);
            h
        });
    }

    #[test]
    fn lane_checksum_is_pinned_and_every_walk_agrees() {
        // The definition, spelled out: word i into lane i mod 4, lanes
        // seeded with the length-mixed seed XOR k, folded in lane order.
        let oracle = |bytes: &[u8]| {
            const PRIME: u64 = 0x100000001b3;
            let seed = 0xcbf29ce484222325 ^ (bytes.len() as u64).wrapping_mul(PRIME);
            let mut h = [seed, seed ^ 1, seed ^ 2, seed ^ 3];
            for (i, word) in bytes.chunks(8).enumerate() {
                let mut w = [0u8; 8];
                w[..word.len()].copy_from_slice(word);
                h[i % 4] = (h[i % 4] ^ u64::from_le_bytes(w)).wrapping_mul(PRIME);
            }
            h.iter().fold(seed, |acc, &lane| (acc ^ lane).wrapping_mul(PRIME))
        };
        // The test vector `docs/FORMAT.md` pins.
        assert_eq!(fnv1a_lanes(b"fuzzy-knn"), 0xb26a86ab04e79190);
        assert_eq!(oracle(b"fuzzy-knn"), 0xb26a86ab04e79190);
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in 0..bytes.len() {
            let input = &bytes[..len];
            let want = oracle(input);
            assert_eq!(fnv1a_lanes(input), want, "{len} bytes");
            // Folding ahead at any pace, then finishing, is the same digest.
            for pace in [1, 3, 4, 9] {
                let mut walk = ChecksumWalk::lanes(input);
                for _ in 0..len / 8 / pace {
                    walk.fold(pace);
                }
                assert_eq!(walk.finish(), want, "{len} bytes, {pace} words a step");
            }
        }
        assert_ne!(fnv1a_lanes(b"abc"), fnv1a_lanes(b"abc\0"));
        // Words swapped between lanes, and any one bit flipped, change it.
        let base = vec![0x5Au8; 96];
        let mut swapped = base.clone();
        swapped[..8].copy_from_slice(&[1; 8]);
        let mut other = base.clone();
        other[8..16].copy_from_slice(&[1; 8]);
        assert_ne!(fnv1a_lanes(&swapped), fnv1a_lanes(&other));
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(fnv1a_lanes(&flipped), fnv1a_lanes(&base), "bit {i}");
        }
    }

    #[test]
    fn decoder_bounds_checked() {
        let mut d = Decoder::new(&[1, 2, 3]);
        assert!(d.u16().is_ok());
        assert!(d.u32().is_err());

        // A length whose end overflows `usize` is a typed error, not a panic.
        let mut d = Decoder::new(&[7u8; 16]);
        d.u64().unwrap();
        let huge = d.bytes(usize::MAX - 4).unwrap_err();
        assert_eq!(huge, DecodeError::EndOfData { need: usize::MAX - 4, at: 8, have: 16 });
        assert_eq!(d.u64(), Ok(u64::from_le_bytes([7; 8])), "a failed read moves nothing");

        // A count is capped by the bytes left after it, before anything is
        // sized from it; strings round-trip unless they are not UTF-8.
        let mut e = Encoder::new();
        e.u32(3);
        e.str("l2");
        e.u32(2);
        e.bytes(&[0xC3, 0x28]);
        let bytes = e.into_bytes();
        let count = Decoder::new(&bytes).count(Decoder::u32, 5).unwrap_err();
        assert_eq!(count, DecodeError::Count { count: 3, left: 12 });
        assert!(Decoder::new(&[0xFF; 8]).count(Decoder::u64, 0).is_err());
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.count(Decoder::u32, 4), Ok(3));
        assert_eq!(d.finish(), Err(DecodeError::Trailing { left: 12 }));
        assert_eq!((d.str(), d.str(), d.finish()), (Ok("l2"), Err(DecodeError::NotUtf8), Ok(())));

        // Each error's text as a file error; `WireError`'s are pinned in
        // the server's protocol suite.
        let end =
            format!("unexpected end of data: need {} bytes at offset 8, have 16", usize::MAX - 4);
        let texts = [
            (huge, end.as_str()),
            (count, "count 3 exceeds the 12 bytes left"),
            (DecodeError::Trailing { left: 12 }, "12 trailing bytes after the last field"),
            (DecodeError::NotUtf8, "string is not UTF-8"),
        ];
        for (e, text) in texts {
            assert_eq!(StoreError::from(e).to_string(), format!("corrupt store: {text}"));
        }
    }
}
