//! The FZQP binary wire protocol (see `docs/PROTOCOL.md` for the
//! normative byte-level specification).
//!
//! Every message travels in one checksummed **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FZQP"
//! 4       2     version (u16 LE) = 2
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
use fuzzy_store::format::{fnv1a, DecodeError, Decoder, Encoder};
use std::fmt;
use std::io::Read;
use std::time::Duration;

/// Frame magic: "FZQP" (FuZzy Query Protocol).
pub const MAGIC: [u8; 4] = *b"FZQP";
/// Current protocol version. Bump on any incompatible layout change.
pub const VERSION: u16 = 2;
/// Fixed frame header size (magic through payload length).
pub const HEADER_LEN: usize = 20;
/// Trailing checksum size.
pub const TRAILER_LEN: usize = 8;
/// Upper bound on the payload length field. Anything larger is rejected
/// before allocation — a corrupted or hostile length cannot wedge a peer.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Wire dimensionality of this protocol version. Inline query objects are
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
    // 9 is retired (an index-kind mismatch of a deleted format) and never
    // reused: it decodes as an unknown code.
}

impl ErrorCode {
    /// Decode a wire error code; `None` for values this version doesn't
    /// define.
    pub fn from_u16(v: u16) -> Option<Self> {
        use ErrorCode::*;
        let all = [Malformed, Unsupported, InvalidArgument, NotFound, DeadlineExceeded];
        let more = [Panicked, Store, SwapFailed];
        all.into_iter().chain(more).find(|&code| code as u16 == v)
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
        [Self::Basic, Self::Lb, Self::LbLp, Self::LbLpUb].into_iter().find(|&w| w as u8 == v)
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

/// Per-query execution costs on the wire: the engine's whole
/// [`QueryStats`]. Its stats block is a `u8` count, the counters in
/// [`QueryStats::counters`] order, then the server-side wall time in
/// nanoseconds; a count other than the list's length is refused.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireStats(pub QueryStats);

impl WireStats {
    /// The engine's stats type (wall truncated to whole nanoseconds).
    pub fn to_query_stats(&self) -> QueryStats {
        self.0
    }
}

/// A response frame payload.
#[derive(Clone, Debug, PartialEq)]
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

/// A payload that does not decode is [`WireError::Malformed`], saying
/// which of the codec's checks failed.
impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        let what = match e {
            DecodeError::EndOfData { need, at, .. } if at.checked_add(need).is_none() => {
                "length overflow"
            }
            DecodeError::EndOfData { .. } => "payload too short",
            DecodeError::Count { .. } => "count exceeds payload",
            DecodeError::Trailing { .. } => "trailing bytes in payload",
            DecodeError::NotUtf8 => "string is not UTF-8",
        };
        Self::Malformed { what }
    }
}

fn encode_query(e: &mut Encoder, q: &QuerySource) {
    match q {
        QuerySource::Stored(id) => {
            e.u8(0);
            e.u64(id.0);
        }
        QuerySource::Inline { id, rows } => {
            e.u8(1);
            e.u64(id.0);
            e.u32(rows.len() as u32);
            for (coords, mu) in rows {
                for c in coords {
                    e.f64(*c);
                }
                e.f64(*mu);
            }
        }
    }
}

fn decode_query(d: &mut Decoder<'_>) -> Result<QuerySource, WireError> {
    match d.u8()? {
        0 => Ok(QuerySource::Stored(ObjectId(d.u64()?))),
        1 => {
            let id = ObjectId(d.u64()?);
            let n = d.count(Decoder::u32, 8 * (WIRE_DIMS + 1))?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let mut coords = [0.0; WIRE_DIMS];
                for c in &mut coords {
                    *c = d.f64()?;
                }
                rows.push((coords, d.f64()?));
            }
            Ok(QuerySource::Inline { id, rows })
        }
        _ => Err(WireError::Malformed { what: "unknown query-source tag" }),
    }
}

fn encode_stats(e: &mut Encoder, WireStats(s): &WireStats) {
    e.u8(u8::try_from(s.counters().len()).expect("the counter list is shorter than 256"));
    for (_, value) in s.counters() {
        e.u64(value);
    }
    e.u64(s.wall.as_nanos().min(u64::MAX as u128) as u64);
}

fn decode_stats(d: &mut Decoder<'_>) -> Result<WireStats, WireError> {
    let mut s = QueryStats::default();
    if d.u8()? as usize != s.counters().len() {
        return Err(WireError::Malformed { what: "stats count is not this version's" });
    }
    for counter in s.counters_mut() {
        *counter = d.u64()?;
    }
    s.wall = Duration::from_nanos(d.u64()?);
    Ok(WireStats(s))
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
        let mut e = Encoder::new();
        match self {
            Self::Aknn { query, k, alpha, variant, deadline_ms } => {
                encode_query(&mut e, query);
                e.u32(*k);
                e.f64(*alpha);
                e.u8(*variant as u8);
                e.u32(*deadline_ms);
            }
            Self::Rknn { query, k, alpha_start, alpha_end, algo, variant, deadline_ms } => {
                encode_query(&mut e, query);
                e.u32(*k);
                e.f64(*alpha_start);
                e.f64(*alpha_end);
                e.u8(algo_to_u8(*algo));
                e.u8(*variant as u8);
                e.u32(*deadline_ms);
            }
            Self::Info | Self::Stats | Self::Shutdown => {}
            Self::Swap { index_path } => e.str(index_path),
        }
        e.into_bytes()
    }

    /// Decode a request payload for `frame_type`.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(payload);
        let req = match frame_type {
            T_AKNN => Self::Aknn {
                query: decode_query(&mut d)?,
                k: d.u32()?,
                alpha: d.f64()?,
                variant: WireVariant::from_u8(d.u8()?)
                    .ok_or(WireError::Malformed { what: "unknown variant" })?,
                deadline_ms: d.u32()?,
            },
            T_RKNN => Self::Rknn {
                query: decode_query(&mut d)?,
                k: d.u32()?,
                alpha_start: d.f64()?,
                alpha_end: d.f64()?,
                algo: algo_from_u8(d.u8()?)
                    .ok_or(WireError::Malformed { what: "unknown algorithm" })?,
                variant: WireVariant::from_u8(d.u8()?)
                    .ok_or(WireError::Malformed { what: "unknown variant" })?,
                deadline_ms: d.u32()?,
            },
            T_INFO => Self::Info,
            T_STATS => Self::Stats,
            T_SWAP => Self::Swap { index_path: d.str()?.into() },
            T_SHUTDOWN => Self::Shutdown,
            other => return Err(WireError::UnknownType { found: other }),
        };
        d.finish()?;
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
        let mut e = Encoder::new();
        match self {
            Self::Aknn { neighbors, stats } => {
                e.u32(neighbors.len() as u32);
                for n in neighbors {
                    e.u64(n.id.0);
                    match n.dist {
                        DistBound::Exact(d) => {
                            e.u8(0);
                            e.f64(d);
                        }
                        DistBound::Bounded { lo, hi } => {
                            e.u8(1);
                            e.f64(lo);
                            e.f64(hi);
                        }
                    }
                }
                encode_stats(&mut e, stats);
            }
            Self::Rknn { items, stats } => {
                e.u32(items.len() as u32);
                for item in items {
                    e.u64(item.id.0);
                    let ivs = item.range.intervals();
                    e.u32(ivs.len() as u32);
                    for iv in ivs {
                        e.f64(iv.lo);
                        e.u8(iv.lo_closed as u8);
                        e.f64(iv.hi);
                        e.u8(iv.hi_closed as u8);
                    }
                }
                encode_stats(&mut e, stats);
            }
            Self::Info { objects, epoch, workers } => {
                e.u64(*objects);
                e.u64(*epoch);
                e.u16(*workers);
            }
            Self::Stats { served, busy, deadline_exceeded, errors, swaps } => {
                for v in [served, busy, deadline_exceeded, errors, swaps] {
                    e.u64(*v);
                }
            }
            Self::Swapped { epoch, objects } => {
                e.u64(*epoch);
                e.u64(*objects);
            }
            Self::ShutdownAck | Self::Busy => {}
            Self::Error { code, message } => {
                e.u16(*code as u16);
                e.str(message);
            }
        }
        e.into_bytes()
    }

    /// Decode a response payload for `frame_type`.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(payload);
        let resp = match frame_type {
            T_AKNN_R => {
                let n = d.count(Decoder::u32, 9)?;
                let mut neighbors = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = ObjectId(d.u64()?);
                    let dist = match d.u8()? {
                        0 => DistBound::Exact(d.f64()?),
                        1 => DistBound::Bounded { lo: d.f64()?, hi: d.f64()? },
                        _ => return Err(WireError::Malformed { what: "unknown bound tag" }),
                    };
                    neighbors.push(Neighbor { id, dist });
                }
                Self::Aknn { neighbors, stats: decode_stats(&mut d)? }
            }
            T_RKNN_R => {
                let n = d.count(Decoder::u32, 12)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = ObjectId(d.u64()?);
                    let m = d.count(Decoder::u32, 18)?;
                    let mut range = IntervalSet::empty();
                    for _ in 0..m {
                        let lo = d.f64()?;
                        let lo_closed = d.u8()? != 0;
                        let hi = d.f64()?;
                        let hi_closed = d.u8()? != 0;
                        range.push(Interval::new(lo, lo_closed, hi, hi_closed));
                    }
                    items.push(RknnItem { id, range });
                }
                Self::Rknn { items, stats: decode_stats(&mut d)? }
            }
            T_INFO_R => Self::Info { objects: d.u64()?, epoch: d.u64()?, workers: d.u16()? },
            T_STATS_R => Self::Stats {
                served: d.u64()?,
                busy: d.u64()?,
                deadline_exceeded: d.u64()?,
                errors: d.u64()?,
                swaps: d.u64()?,
            },
            T_SWAP_R => Self::Swapped { epoch: d.u64()?, objects: d.u64()? },
            T_SHUTDOWN_R => Self::ShutdownAck,
            T_ERROR => Self::Error {
                code: ErrorCode::from_u16(d.u16()?)
                    .ok_or(WireError::Malformed { what: "unknown error code" })?,
                message: d.str()?.into(),
            },
            T_BUSY => Self::Busy,
            other => return Err(WireError::UnknownType { found: other }),
        };
        d.finish()?;
        Ok(resp)
    }

    /// Serialize the full frame (envelope + payload + checksum).
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        encode_frame(self.frame_type(), request_id, &self.payload())
    }
}

/// Resolve a [`QuerySource`] carried inline into an engine query object.
pub(crate) fn inline_object(
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
    let mut e = Encoder::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    e.bytes(&MAGIC);
    e.u16(VERSION);
    e.u8(frame_type);
    e.u8(0); // reserved
    e.u64(request_id);
    e.u32(payload.len() as u32);
    e.bytes(payload);
    let sum = fnv1a(e.as_bytes());
    e.u64(sum);
    e.into_bytes()
}

/// Decode one frame from a complete in-memory buffer. Returns the frame
/// and the number of bytes it consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(RawFrame, usize), WireError> {
    let header = bytes.get(..HEADER_LEN).ok_or(WireError::Truncated)?;
    let (frame_type, request_id, len) = parse_header(header)?;
    let total = HEADER_LEN + len + TRAILER_LEN;
    let frame = bytes.get(..total).ok_or(WireError::Truncated)?;
    let payload = checked_payload(frame)?.to_vec();
    Ok((RawFrame { frame_type, request_id, payload }, total))
}

/// Validate a frame header, returning `(type, request_id, payload_len)`.
fn parse_header(header: &[u8]) -> Result<(u8, u64, usize), WireError> {
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let mut d = Decoder::new(&header[4..HEADER_LEN]);
    let version = d.u16()?;
    if version != VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let (frame_type, _reserved, request_id, len) = (d.u8()?, d.u8()?, d.u64()?, d.u32()?);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize { len });
    }
    Ok((frame_type, request_id, len as usize))
}

/// The payload of a whole `frame` (header, payload, checksum) whose
/// checksum holds.
fn checked_payload(frame: &[u8]) -> Result<&[u8], WireError> {
    let (body, sum) = frame.split_at(frame.len() - TRAILER_LEN);
    if Decoder::new(sum).u64()? != fnv1a(body) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(&body[HEADER_LEN..])
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
    let mut frame = vec![0u8; HEADER_LEN + len + TRAILER_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header);
    if read_full(r, &mut frame[HEADER_LEN..])? < len + TRAILER_LEN {
        return Err(WireError::Truncated);
    }
    checked_payload(&frame)?;
    frame.truncate(HEADER_LEN + len);
    frame.drain(..HEADER_LEN);
    Ok(Some(RawFrame { frame_type, request_id, payload: frame }))
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
