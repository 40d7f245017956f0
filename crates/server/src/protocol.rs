//! The FZQP binary wire protocol (see `docs/PROTOCOL.md` for the
//! normative byte-level specification).
//!
//! Every message travels in one checksummed **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FZQP"
//! 4       2     version (u16 LE) = 1
//! 6       1     frame type
//! 7       1     reserved (writers put 0; readers ignore)
//! 8       8     request id (u64 LE, echoed verbatim in the response)
//! 16      4     payload length n (u32 LE, at most MAX_PAYLOAD)
//! 20      n     payload
//! 20+n    8     FNV-1a checksum of bytes [0, 20+n) (u64 LE)
//! ```
//!
//! The checksum is the same word-folding FNV-1a the store format uses
//! (`fuzzy_store::format::fnv1a`), covering header *and* payload so a
//! corrupted length or type never silently misparses a payload.
//!
//! Decoding is total: any malformed input yields a typed [`WireError`],
//! never a panic, and the payload-length cap means a hostile length field
//! cannot make the reader allocate or block unboundedly.

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use fuzzy_query::{
    AknnConfig, DistBound, Interval, IntervalSet, Neighbor, QueryStats, RknnAlgorithm, RknnItem,
};
use fuzzy_store::format::fnv1a;
use std::fmt;
use std::io::Read;
use std::time::Duration;

/// Frame magic: "FZQP" (FuZzy Query Protocol).
pub const MAGIC: [u8; 4] = *b"FZQP";
/// Current protocol version. Bump on any incompatible layout change.
pub const VERSION: u16 = 1;
/// Fixed frame header size (magic through payload length).
pub const HEADER_LEN: usize = 20;
/// Trailing checksum size.
pub const TRAILER_LEN: usize = 8;
/// Upper bound on the payload length field. Anything larger is rejected
/// before allocation — a corrupted or hostile length cannot wedge a peer.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Wire dimensionality of protocol version 1. Inline query objects are
/// always 2-d, matching the dataset format.
pub const WIRE_DIMS: usize = 2;

// Frame type bytes. Requests are < 0x80; responses have the top bit set.
/// AKNN request.
pub const T_AKNN: u8 = 0x01;
/// RKNN request.
pub const T_RKNN: u8 = 0x02;
/// INFO request (index/server description).
pub const T_INFO: u8 = 0x03;
/// STATS request (server counters).
pub const T_STATS: u8 = 0x04;
/// SWAP request (publish a new index epoch).
pub const T_SWAP: u8 = 0x05;
/// SHUTDOWN request (stop the daemon).
pub const T_SHUTDOWN: u8 = 0x07;
/// AKNN response.
pub const T_AKNN_R: u8 = 0x81;
/// RKNN response.
pub const T_RKNN_R: u8 = 0x82;
/// INFO response.
pub const T_INFO_R: u8 = 0x83;
/// STATS response.
pub const T_STATS_R: u8 = 0x84;
/// SWAP response.
pub const T_SWAP_R: u8 = 0x85;
/// SHUTDOWN acknowledgement.
pub const T_SHUTDOWN_R: u8 = 0x87;
/// Typed error response ([`ErrorCode`] + message).
pub const T_ERROR: u8 = 0xE0;
/// Load-shed response: the request was never admitted; retry later.
pub const T_BUSY: u8 = 0xE1;

/// Typed error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request payload did not decode.
    Malformed = 1,
    /// The frame type is not one the server answers.
    Unsupported = 2,
    /// The request decoded but failed validation (bad k, α, range, …).
    InvalidArgument = 3,
    /// A stored-id query source named an object the store does not hold.
    NotFound = 4,
    /// The request's deadline expired before the query finished.
    DeadlineExceeded = 5,
    /// The query panicked inside a worker; the worker survived.
    Panicked = 6,
    /// The object store failed during execution.
    Store = 7,
    /// A SWAP request could not open or publish the new index.
    SwapFailed = 8,
    /// The named index cannot back the serve path: an approximate
    /// (`.fzvp`) file where an exact index is required.
    IndexMismatch = 9,
}

impl ErrorCode {
    /// Decode a wire error code; `None` for values this version doesn't
    /// define.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => Self::Malformed,
            2 => Self::Unsupported,
            3 => Self::InvalidArgument,
            4 => Self::NotFound,
            5 => Self::DeadlineExceeded,
            6 => Self::Panicked,
            7 => Self::Store,
            8 => Self::SwapFailed,
            9 => Self::IndexMismatch,
            _ => return None,
        })
    }
}

/// Decode/transport failures. Every variant is a *typed* outcome of
/// reading untrusted bytes — the codec never panics and never hangs on a
/// bad length.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside a frame.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic,
    /// The version field is not [`VERSION`].
    BadVersion {
        /// What the peer sent.
        found: u16,
    },
    /// The frame type byte is unknown.
    UnknownType {
        /// What the peer sent.
        found: u8,
    },
    /// The payload length field exceeds [`MAX_PAYLOAD`].
    Oversize {
        /// The claimed payload length.
        len: u32,
    },
    /// The trailing checksum does not match the received bytes.
    ChecksumMismatch,
    /// The payload of a structurally valid frame did not decode.
    Malformed {
        /// What was wrong.
        what: &'static str,
    },
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame truncated"),
            Self::BadMagic => write!(f, "bad frame magic"),
            Self::BadVersion { found } => write!(f, "unsupported protocol version {found}"),
            Self::UnknownType { found } => write!(f, "unknown frame type 0x{found:02x}"),
            Self::Oversize { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            Self::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            Self::Malformed { what } => write!(f, "malformed payload: {what}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The query object of an AKNN/RKNN request.
#[derive(Clone, Debug, PartialEq)]
pub enum QuerySource {
    /// Query by a stored object's id — the server probes its own store.
    Stored(ObjectId),
    /// The query object shipped inline (id, then `(x, y, membership)`
    /// triples). Validated server-side exactly like dataset objects.
    Inline {
        /// Id the client assigns to the query object (not required to
        /// exist in the store).
        id: ObjectId,
        /// `(coords, membership)` rows; coords are [`WIRE_DIMS`]-d.
        rows: Vec<([f64; WIRE_DIMS], f64)>,
    },
}

impl QuerySource {
    /// An inline source carrying a full fuzzy object.
    pub fn inline(obj: &FuzzyObject<WIRE_DIMS>) -> Self {
        Self::Inline { id: obj.id(), rows: obj.iter().map(|(p, mu)| (*p.coords(), mu)).collect() }
    }
}

/// AKNN pruning variant selector, one byte on the wire.
///
/// The numbering is part of the protocol: 0 = Basic, 1 = LB, 2 = LB-LP,
/// 3 = LB-LP-UB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireVariant {
    /// Algorithm 1 without optimizations.
    Basic = 0,
    /// Improved lower bound.
    Lb = 1,
    /// Improved lower bound + lazy probe.
    LbLp = 2,
    /// All optimizations (the default).
    LbLpUb = 3,
}

impl WireVariant {
    /// The corresponding engine configuration (no deadline set).
    pub fn config(self) -> AknnConfig {
        match self {
            Self::Basic => AknnConfig::basic(),
            Self::Lb => AknnConfig::lb(),
            Self::LbLp => AknnConfig::lb_lp(),
            Self::LbLpUb => AknnConfig::lb_lp_ub(),
        }
    }

    /// Parse a CLI spelling (`basic`/`lb`/`lb-lp`/`lb-lp-ub`).
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "basic" => Self::Basic,
            "lb" => Self::Lb,
            "lb-lp" => Self::LbLp,
            "lb-lp-ub" => Self::LbLpUb,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Self::Basic,
            1 => Self::Lb,
            2 => Self::LbLp,
            3 => Self::LbLpUb,
            _ => return None,
        })
    }
}

fn algo_to_u8(a: RknnAlgorithm) -> u8 {
    match a {
        RknnAlgorithm::Naive => 0,
        RknnAlgorithm::Basic => 1,
        RknnAlgorithm::Rss => 2,
        RknnAlgorithm::RssIcr => 3,
    }
}

fn algo_from_u8(v: u8) -> Option<RknnAlgorithm> {
    Some(match v {
        0 => RknnAlgorithm::Naive,
        1 => RknnAlgorithm::Basic,
        2 => RknnAlgorithm::Rss,
        3 => RknnAlgorithm::RssIcr,
        _ => return None,
    })
}

/// A request frame payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// AKNN query (Definition 4).
    Aknn {
        /// The query object.
        query: QuerySource,
        /// Number of neighbours.
        k: u32,
        /// Probability threshold in `(0, 1]`.
        alpha: f64,
        /// Pruning variant.
        variant: WireVariant,
        /// Deadline in milliseconds from admission; 0 means none.
        deadline_ms: u32,
    },
    /// RKNN query (Definition 5).
    Rknn {
        /// The query object.
        query: QuerySource,
        /// Number of neighbours.
        k: u32,
        /// Range start in `(0, 1]`.
        alpha_start: f64,
        /// Range end in `(0, 1]`.
        alpha_end: f64,
        /// RKNN algorithm.
        algo: RknnAlgorithm,
        /// Pruning variant for the inner AKNN searches.
        variant: WireVariant,
        /// Deadline in milliseconds from admission; 0 means none.
        deadline_ms: u32,
    },
    /// Describe the served index.
    Info,
    /// Read the server counters.
    Stats,
    /// Publish a new index epoch from `index_path` (`:mem:` bulk-reloads
    /// an in-memory tree from the store's summaries).
    Swap {
        /// Path of the index file to open, or `:mem:`.
        index_path: String,
    },
    /// Stop the daemon.
    Shutdown,
}

/// Per-query execution costs on the wire (a fixed 72-byte block).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireStats {
    /// Objects retrieved from the store.
    pub object_accesses: u64,
    /// R-tree nodes expanded.
    pub node_accesses: u64,
    /// Node expansions that touched the backing medium.
    pub node_disk_reads: u64,
    /// Exact α-distance evaluations.
    pub distance_evals: u64,
    /// Distance-profile computations.
    pub profile_computations: u64,
    /// Lower/upper bound evaluations.
    pub bound_evals: u64,
    /// Internal AKNN invocations.
    pub aknn_calls: u64,
    /// Candidate set size after pruning.
    pub candidates: u64,
    /// Server-side wall clock of the query, in nanoseconds.
    pub wall_nanos: u64,
}

impl From<&QueryStats> for WireStats {
    fn from(s: &QueryStats) -> Self {
        Self {
            object_accesses: s.object_accesses,
            node_accesses: s.node_accesses,
            node_disk_reads: s.node_disk_reads,
            distance_evals: s.distance_evals,
            profile_computations: s.profile_computations,
            bound_evals: s.bound_evals,
            aknn_calls: s.aknn_calls,
            candidates: s.candidates,
            wall_nanos: s.wall.as_nanos().min(u64::MAX as u128) as u64,
        }
    }
}

impl WireStats {
    /// Back-convert to the engine's stats type (wall truncated to ns).
    pub fn to_query_stats(&self) -> QueryStats {
        QueryStats {
            object_accesses: self.object_accesses,
            node_accesses: self.node_accesses,
            node_disk_reads: self.node_disk_reads,
            distance_evals: self.distance_evals,
            profile_computations: self.profile_computations,
            bound_evals: self.bound_evals,
            aknn_calls: self.aknn_calls,
            candidates: self.candidates,
            wall: Duration::from_nanos(self.wall_nanos),
        }
    }
}

/// A response frame payload.
///
/// `PartialEq` is implemented manually (below) because [`RknnItem`] does
/// not derive it; items compare by id and exact interval endpoints.
#[derive(Clone, Debug)]
pub enum Response {
    /// AKNN answer: neighbours in confirmation order, bit-exact bounds.
    Aknn {
        /// The k neighbours.
        neighbors: Vec<Neighbor>,
        /// Execution costs.
        stats: WireStats,
    },
    /// RKNN answer: items sorted by object id.
    Rknn {
        /// The qualifying objects with their ranges.
        items: Vec<RknnItem>,
        /// Execution costs.
        stats: WireStats,
    },
    /// Index/server description.
    Info {
        /// Live objects in the published snapshot.
        objects: u64,
        /// Epoch of the published snapshot.
        epoch: u64,
        /// Worker threads in the pool.
        workers: u16,
    },
    /// Server counters since start.
    Stats {
        /// Queries answered successfully.
        served: u64,
        /// Requests shed with BUSY.
        busy: u64,
        /// Queries that exceeded their deadline.
        deadline_exceeded: u64,
        /// Queries that returned a typed error.
        errors: u64,
        /// Index swaps published.
        swaps: u64,
    },
    /// SWAP acknowledgement.
    Swapped {
        /// Epoch of the newly published snapshot.
        epoch: u64,
        /// Live objects in the new snapshot.
        objects: u64,
    },
    /// SHUTDOWN acknowledgement.
    ShutdownAck,
    /// Typed failure.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Load shed: the admission queue was full; the request never ran.
    Busy,
}

impl PartialEq for Response {
    fn eq(&self, other: &Self) -> bool {
        fn items_eq(a: &[RknnItem], b: &[RknnItem]) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.id == y.id && x.range.intervals() == y.range.intervals())
        }
        match (self, other) {
            (Self::Aknn { neighbors: a, stats: sa }, Self::Aknn { neighbors: b, stats: sb }) => {
                a == b && sa == sb
            }
            (Self::Rknn { items: a, stats: sa }, Self::Rknn { items: b, stats: sb }) => {
                items_eq(a, b) && sa == sb
            }
            (
                Self::Info { objects: a, epoch: ea, workers: wa },
                Self::Info { objects: b, epoch: eb, workers: wb },
            ) => a == b && ea == eb && wa == wb,
            (
                Self::Stats { served: a1, busy: a2, deadline_exceeded: a3, errors: a4, swaps: a5 },
                Self::Stats { served: b1, busy: b2, deadline_exceeded: b3, errors: b4, swaps: b5 },
            ) => a1 == b1 && a2 == b2 && a3 == b3 && a4 == b4 && a5 == b5,
            (
                Self::Swapped { epoch: ea, objects: oa },
                Self::Swapped { epoch: eb, objects: ob },
            ) => ea == eb && oa == ob,
            (Self::ShutdownAck, Self::ShutdownAck) | (Self::Busy, Self::Busy) => true,
            (Self::Error { code: ca, message: ma }, Self::Error { code: cb, message: mb }) => {
                ca == cb && ma == mb
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------
// Little-endian payload writer/reader.

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload reader: every accessor returns a typed error
/// past the end instead of panicking.
struct Rd<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end =
            self.pos.checked_add(n).ok_or(WireError::Malformed { what: "length overflow" })?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(WireError::Malformed { what: "payload too short" })?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed { what: "string is not UTF-8" })
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed { what: "trailing bytes in payload" })
        }
    }

    /// A count field about to drive a `Vec` reservation: cap it by the
    /// bytes actually remaining so a corrupt count cannot over-allocate.
    fn count(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(elem_size.max(1)) > remaining {
            return Err(WireError::Malformed { what: "count exceeds payload" });
        }
        Ok(n)
    }
}

fn put_query(buf: &mut Vec<u8>, q: &QuerySource) {
    match q {
        QuerySource::Stored(id) => {
            put_u8(buf, 0);
            put_u64(buf, id.0);
        }
        QuerySource::Inline { id, rows } => {
            put_u8(buf, 1);
            put_u64(buf, id.0);
            put_u32(buf, rows.len() as u32);
            for (coords, mu) in rows {
                for c in coords {
                    put_f64(buf, *c);
                }
                put_f64(buf, *mu);
            }
        }
    }
}

fn read_query(rd: &mut Rd<'_>) -> Result<QuerySource, WireError> {
    match rd.u8()? {
        0 => Ok(QuerySource::Stored(ObjectId(rd.u64()?))),
        1 => {
            let id = ObjectId(rd.u64()?);
            let n = rd.count(8 * (WIRE_DIMS + 1))?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let mut coords = [0.0; WIRE_DIMS];
                for c in &mut coords {
                    *c = rd.f64()?;
                }
                rows.push((coords, rd.f64()?));
            }
            Ok(QuerySource::Inline { id, rows })
        }
        _ => Err(WireError::Malformed { what: "unknown query-source tag" }),
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &WireStats) {
    put_u64(buf, s.object_accesses);
    put_u64(buf, s.node_accesses);
    put_u64(buf, s.node_disk_reads);
    put_u64(buf, s.distance_evals);
    put_u64(buf, s.profile_computations);
    put_u64(buf, s.bound_evals);
    put_u64(buf, s.aknn_calls);
    put_u64(buf, s.candidates);
    put_u64(buf, s.wall_nanos);
}

fn read_stats(rd: &mut Rd<'_>) -> Result<WireStats, WireError> {
    Ok(WireStats {
        object_accesses: rd.u64()?,
        node_accesses: rd.u64()?,
        node_disk_reads: rd.u64()?,
        distance_evals: rd.u64()?,
        profile_computations: rd.u64()?,
        bound_evals: rd.u64()?,
        aknn_calls: rd.u64()?,
        candidates: rd.u64()?,
        wall_nanos: rd.u64()?,
    })
}

impl Request {
    /// The frame type byte of this request.
    pub fn frame_type(&self) -> u8 {
        match self {
            Self::Aknn { .. } => T_AKNN,
            Self::Rknn { .. } => T_RKNN,
            Self::Info => T_INFO,
            Self::Stats => T_STATS,
            Self::Swap { .. } => T_SWAP,
            Self::Shutdown => T_SHUTDOWN,
        }
    }

    /// Serialize the payload (without the frame envelope).
    pub fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Self::Aknn { query, k, alpha, variant, deadline_ms } => {
                put_query(&mut buf, query);
                put_u32(&mut buf, *k);
                put_f64(&mut buf, *alpha);
                put_u8(&mut buf, *variant as u8);
                put_u32(&mut buf, *deadline_ms);
            }
            Self::Rknn { query, k, alpha_start, alpha_end, algo, variant, deadline_ms } => {
                put_query(&mut buf, query);
                put_u32(&mut buf, *k);
                put_f64(&mut buf, *alpha_start);
                put_f64(&mut buf, *alpha_end);
                put_u8(&mut buf, algo_to_u8(*algo));
                put_u8(&mut buf, *variant as u8);
                put_u32(&mut buf, *deadline_ms);
            }
            Self::Info | Self::Stats | Self::Shutdown => {}
            Self::Swap { index_path } => put_str(&mut buf, index_path),
        }
        buf
    }

    /// Decode a request payload for `frame_type`.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut rd = Rd::new(payload);
        let req = match frame_type {
            T_AKNN => Self::Aknn {
                query: read_query(&mut rd)?,
                k: rd.u32()?,
                alpha: rd.f64()?,
                variant: WireVariant::from_u8(rd.u8()?)
                    .ok_or(WireError::Malformed { what: "unknown variant" })?,
                deadline_ms: rd.u32()?,
            },
            T_RKNN => Self::Rknn {
                query: read_query(&mut rd)?,
                k: rd.u32()?,
                alpha_start: rd.f64()?,
                alpha_end: rd.f64()?,
                algo: algo_from_u8(rd.u8()?)
                    .ok_or(WireError::Malformed { what: "unknown algorithm" })?,
                variant: WireVariant::from_u8(rd.u8()?)
                    .ok_or(WireError::Malformed { what: "unknown variant" })?,
                deadline_ms: rd.u32()?,
            },
            T_INFO => Self::Info,
            T_STATS => Self::Stats,
            T_SWAP => Self::Swap { index_path: rd.str()? },
            T_SHUTDOWN => Self::Shutdown,
            other => return Err(WireError::UnknownType { found: other }),
        };
        rd.finish()?;
        Ok(req)
    }

    /// Serialize the full frame (envelope + payload + checksum).
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        encode_frame(self.frame_type(), request_id, &self.payload())
    }
}

impl Response {
    /// The frame type byte of this response.
    pub fn frame_type(&self) -> u8 {
        match self {
            Self::Aknn { .. } => T_AKNN_R,
            Self::Rknn { .. } => T_RKNN_R,
            Self::Info { .. } => T_INFO_R,
            Self::Stats { .. } => T_STATS_R,
            Self::Swapped { .. } => T_SWAP_R,
            Self::ShutdownAck => T_SHUTDOWN_R,
            Self::Error { .. } => T_ERROR,
            Self::Busy => T_BUSY,
        }
    }

    /// Serialize the payload (without the frame envelope).
    pub fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Self::Aknn { neighbors, stats } => {
                put_u32(&mut buf, neighbors.len() as u32);
                for n in neighbors {
                    put_u64(&mut buf, n.id.0);
                    match n.dist {
                        DistBound::Exact(d) => {
                            put_u8(&mut buf, 0);
                            put_f64(&mut buf, d);
                        }
                        DistBound::Bounded { lo, hi } => {
                            put_u8(&mut buf, 1);
                            put_f64(&mut buf, lo);
                            put_f64(&mut buf, hi);
                        }
                    }
                }
                put_stats(&mut buf, stats);
            }
            Self::Rknn { items, stats } => {
                put_u32(&mut buf, items.len() as u32);
                for item in items {
                    put_u64(&mut buf, item.id.0);
                    let ivs = item.range.intervals();
                    put_u32(&mut buf, ivs.len() as u32);
                    for iv in ivs {
                        put_f64(&mut buf, iv.lo);
                        put_u8(&mut buf, iv.lo_closed as u8);
                        put_f64(&mut buf, iv.hi);
                        put_u8(&mut buf, iv.hi_closed as u8);
                    }
                }
                put_stats(&mut buf, stats);
            }
            Self::Info { objects, epoch, workers } => {
                put_u64(&mut buf, *objects);
                put_u64(&mut buf, *epoch);
                put_u16(&mut buf, *workers);
            }
            Self::Stats { served, busy, deadline_exceeded, errors, swaps } => {
                put_u64(&mut buf, *served);
                put_u64(&mut buf, *busy);
                put_u64(&mut buf, *deadline_exceeded);
                put_u64(&mut buf, *errors);
                put_u64(&mut buf, *swaps);
            }
            Self::Swapped { epoch, objects } => {
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *objects);
            }
            Self::ShutdownAck | Self::Busy => {}
            Self::Error { code, message } => {
                put_u16(&mut buf, *code as u16);
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Decode a response payload for `frame_type`.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut rd = Rd::new(payload);
        let resp = match frame_type {
            T_AKNN_R => {
                let n = rd.count(9)?;
                let mut neighbors = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = ObjectId(rd.u64()?);
                    let dist = match rd.u8()? {
                        0 => DistBound::Exact(rd.f64()?),
                        1 => DistBound::Bounded { lo: rd.f64()?, hi: rd.f64()? },
                        _ => return Err(WireError::Malformed { what: "unknown bound tag" }),
                    };
                    neighbors.push(Neighbor { id, dist });
                }
                Self::Aknn { neighbors, stats: read_stats(&mut rd)? }
            }
            T_RKNN_R => {
                let n = rd.count(12)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = ObjectId(rd.u64()?);
                    let m = rd.count(18)?;
                    let mut range = IntervalSet::empty();
                    for _ in 0..m {
                        let lo = rd.f64()?;
                        let lo_closed = rd.u8()? != 0;
                        let hi = rd.f64()?;
                        let hi_closed = rd.u8()? != 0;
                        range.push(Interval::new(lo, lo_closed, hi, hi_closed));
                    }
                    items.push(RknnItem { id, range });
                }
                Self::Rknn { items, stats: read_stats(&mut rd)? }
            }
            T_INFO_R => Self::Info { objects: rd.u64()?, epoch: rd.u64()?, workers: rd.u16()? },
            T_STATS_R => Self::Stats {
                served: rd.u64()?,
                busy: rd.u64()?,
                deadline_exceeded: rd.u64()?,
                errors: rd.u64()?,
                swaps: rd.u64()?,
            },
            T_SWAP_R => Self::Swapped { epoch: rd.u64()?, objects: rd.u64()? },
            T_SHUTDOWN_R => Self::ShutdownAck,
            T_ERROR => Self::Error {
                code: ErrorCode::from_u16(rd.u16()?)
                    .ok_or(WireError::Malformed { what: "unknown error code" })?,
                message: rd.str()?,
            },
            T_BUSY => Self::Busy,
            other => return Err(WireError::UnknownType { found: other }),
        };
        rd.finish()?;
        Ok(resp)
    }

    /// Serialize the full frame (envelope + payload + checksum).
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        encode_frame(self.frame_type(), request_id, &self.payload())
    }
}

/// Resolve a [`QuerySource`] carried inline into an engine query object.
pub fn inline_object(
    id: ObjectId,
    rows: &[([f64; WIRE_DIMS], f64)],
) -> Result<FuzzyObject<WIRE_DIMS>, String> {
    let points = rows.iter().map(|(c, _)| Point::new(*c)).collect();
    let memberships = rows.iter().map(|(_, mu)| *mu).collect();
    FuzzyObject::new(id, points, memberships).map_err(|e| e.to_string())
}

/// A checksum-verified frame, not yet payload-decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct RawFrame {
    /// The frame type byte.
    pub frame_type: u8,
    /// The request id (responses echo their request's id).
    pub request_id: u64,
    /// The verified payload bytes.
    pub payload: Vec<u8>,
}

/// Assemble a frame: envelope + payload + trailing checksum.
pub fn encode_frame(frame_type: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    buf.extend_from_slice(&MAGIC);
    put_u16(&mut buf, VERSION);
    put_u8(&mut buf, frame_type);
    put_u8(&mut buf, 0); // reserved
    put_u64(&mut buf, request_id);
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf);
    put_u64(&mut buf, sum);
    buf
}

/// Decode one frame from a complete in-memory buffer. Returns the frame
/// and the number of bytes it consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(RawFrame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let header = &bytes[..HEADER_LEN];
    let (frame_type, request_id, len) = parse_header(header)?;
    let total = HEADER_LEN + len + TRAILER_LEN;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    let body = &bytes[..HEADER_LEN + len];
    let expect =
        u64::from_le_bytes(bytes[HEADER_LEN + len..total].try_into().expect("trailer len 8"));
    if fnv1a(body) != expect {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((
        RawFrame { frame_type, request_id, payload: bytes[HEADER_LEN..HEADER_LEN + len].to_vec() },
        total,
    ))
}

/// Validate a frame header, returning `(type, request_id, payload_len)`.
fn parse_header(header: &[u8]) -> Result<(u8, u64, usize), WireError> {
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("len 2"));
    if version != VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let frame_type = header[6];
    let request_id = u64::from_le_bytes(header[8..16].try_into().expect("len 8"));
    let len = u32::from_le_bytes(header[16..20].try_into().expect("len 4"));
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize { len });
    }
    Ok((frame_type, request_id, len as usize))
}

/// Read one frame from a blocking stream. `Ok(None)` means the peer
/// closed the connection cleanly *between* frames; EOF inside a frame is
/// [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<RawFrame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        n if n < HEADER_LEN => return Err(WireError::Truncated),
        _ => {}
    }
    let (frame_type, request_id, len) = parse_header(&header)?;
    let mut rest = vec![0u8; len + TRAILER_LEN];
    if read_full(r, &mut rest)? < rest.len() {
        return Err(WireError::Truncated);
    }
    let mut body = Vec::with_capacity(HEADER_LEN + len);
    body.extend_from_slice(&header);
    body.extend_from_slice(&rest[..len]);
    let expect = u64::from_le_bytes(rest[len..].try_into().expect("trailer len 8"));
    if fnv1a(&body) != expect {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some(RawFrame { frame_type, request_id, payload: body.split_off(HEADER_LEN) }))
}

/// Fill `buf` from `r`, tolerating short reads; returns the bytes read
/// (less than `buf.len()` only at EOF).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}
