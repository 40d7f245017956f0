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
//! file is detected at probe time rather than silently decoded.

use crate::error::StoreError;
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use fuzzy_geom::{ConservativeLine, Mbr, Point};

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
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h
}

/// Little-endian byte writer over a growable buffer.
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

    /// Append a u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
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

/// Little-endian byte reader with bounds checking.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::Corrupt {
                reason: format!(
                    "unexpected end of data: need {} bytes at offset {}, have {}",
                    n,
                    self.pos,
                    self.buf.len()
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a u16.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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

/// Decode one object record, verifying the checksum, the columnar layout
/// contract (permutation, descending memberships) and model invariants.
pub fn decode_object<const D: usize>(bytes: &[u8]) -> Result<FuzzyObject<D>, StoreError> {
    if bytes.len() < record_len(D, 0) {
        return Err(StoreError::Corrupt { reason: "record too short".into() });
    }
    let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(StoreError::Corrupt {
            reason: format!("record checksum mismatch: stored {stored:x}, computed {computed:x}"),
        });
    }
    let mut d = Decoder::new(payload);
    let id = ObjectId(d.u64()?);
    let n = d.u32()? as usize;
    let _flags = d.u32()?;
    let expected = n * 4 + n * 8 + D * n * 8;
    if d.remaining() != expected {
        return Err(StoreError::Corrupt {
            reason: format!(
                "record for {id} declares {n} points but carries {} payload bytes (expected {expected})",
                d.remaining()
            ),
        });
    }
    // The length check above fixed the three sections; each converts in
    // one bulk pass and becomes, unchanged, a column of the object.
    let (perm, rest) = d.bytes(expected)?.split_at(n * 4);
    let (mus, cols) = rest.split_at(n * 8);
    let f64s = |section: &[u8]| -> Vec<f64> {
        let word = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        section.chunks_exact(8).map(word).collect()
    };
    let orig = perm
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
        .collect();
    Ok(FuzzyObject::from_columnar(id, orig, f64s(mus), f64s(cols))?)
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

/// Decode one summary.
pub fn decode_summary<const D: usize>(d: &mut Decoder<'_>) -> Result<ObjectSummary<D>, StoreError> {
    let id = ObjectId(d.u64()?);
    let point_count = d.u32()?;
    let _flags = d.u32()?;
    let read_mbr = |d: &mut Decoder<'_>| -> Result<Mbr<D>, StoreError> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = d.f64()?;
            hi[i] = d.f64()?;
        }
        Ok(Mbr::new(lo, hi))
    };
    let support_mbr = read_mbr(d)?;
    let kernel_mbr = read_mbr(d)?;
    let mut upper_lines = [ConservativeLine::ZERO; D];
    for line in upper_lines.iter_mut() {
        *line = ConservativeLine { m: d.f64()?, t: d.f64()? };
    }
    let mut lower_lines = [ConservativeLine::ZERO; D];
    for line in lower_lines.iter_mut() {
        *line = ConservativeLine { m: d.f64()?, t: d.f64()? };
    }
    let mut rep = [0.0; D];
    for x in rep.iter_mut() {
        *x = d.f64()?;
    }
    Ok(ObjectSummary {
        id,
        support_mbr,
        kernel_mbr,
        upper_lines,
        lower_lines,
        rep: Point::new(rep),
        point_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut d = Decoder::new(&bytes);
        let back: ObjectSummary<2> = decode_summary(&mut d).unwrap();
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
    fn decoder_bounds_checked() {
        let mut d = Decoder::new(&[1, 2, 3]);
        assert!(d.u16().is_ok());
        assert!(d.u32().is_err());
    }
}
