//! What the approximate candidate generator is made of.
//!
//! The exact engines answer every query from first principles; at scale
//! the interesting trade is *recall for throughput*. [`crate::vptree`] is
//! the one candidate backend: a deterministic **candidate generator** over
//! per-object expected centers (the [`ObjectSummary::rep`] points the
//! store already persists), dialed by a [`RecallDial`]. Candidates are
//! *never* an answer by themselves — the query layer resolves the pool
//! through the exact probe loop, so returned distances are always exact
//! and only recall varies with the dial.
//!
//! The index also carries build-time **friend-of-a-friend** neighbor
//! lists (the FoF principle: a near neighbor's near neighbors are likely
//! near), which the query layer may expand for a refinement round after
//! the initial pool is resolved. This module holds the dial, the
//! per-object payload with its FoF build, and the checksummed file
//! envelope.

use fuzzy_core::metric::Metric;
use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::{Mbr, Point};
use fuzzy_store::format::{fnv1a, Decoder, Encoder};
use fuzzy_store::{write_atomic, StoreError};
use std::path::Path;

/// Above this many objects the quadratic FoF neighbor-list build is
/// skipped (lists come back empty, refinement becomes a no-op).
pub const FOF_BUILD_CAP: usize = 8192;

/// How far the approximate candidate generation reaches.
///
/// The dial trades recall for work; resolved distances are exact at every
/// position, so `Exact` is a true exact-search fallback, not a "high"
/// setting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecallDial {
    /// Exhaustive: every indexed object enters the candidate pool, so the
    /// resolved answer equals exact AKNN (recall 1.0) at linear pool cost.
    Exact,
    /// Pruning slack `v ≥ 0`: the VP-tree keeps every visited center
    /// within `τ_c · (1 + v)` of the query (ε-slack pruning with `ε = v`).
    Budget(f64),
}

impl RecallDial {
    /// Parse a CLI dial value: `exact` or a non-negative finite number.
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("exact") {
            return Some(Self::Exact);
        }
        let v: f64 = s.parse().ok()?;
        (v.is_finite() && v >= 0.0).then_some(Self::Budget(v))
    }

    /// Stable label for bench rows and log lines.
    pub fn label(&self) -> String {
        match self {
            Self::Exact => "exact".to_string(),
            Self::Budget(v) => format!("{v}"),
        }
    }
}

/// The per-object payload: id-sorted parallel arrays of centers, spread
/// bounds and FoF neighbor lists, plus the metric name recorded for the
/// open-time pairing check.
pub(crate) struct ApproxBase<const D: usize> {
    pub metric_name: String,
    /// Ascending; parallel to `centers`, `spreads`, `fof`.
    pub ids: Vec<ObjectId>,
    pub centers: Vec<Point<D>>,
    pub spreads: Vec<f64>,
    pub fof: Vec<Vec<ObjectId>>,
}

impl<const D: usize> ApproxBase<D> {
    /// Extract the id-sorted ball arrays from summaries and build the FoF
    /// lists (`fof_neighbors` nearest centers each, ties by id; skipped
    /// above [`FOF_BUILD_CAP`] objects or when `fof_neighbors == 0`).
    pub fn build<M: Metric<D> + ?Sized>(
        metric: &M,
        summaries: &[ObjectSummary<D>],
        fof_neighbors: usize,
    ) -> Self {
        let mut order: Vec<&ObjectSummary<D>> = summaries.iter().collect();
        order.sort_by_key(|s| s.id);
        let ids: Vec<ObjectId> = order.iter().map(|s| s.id).collect();
        let centers: Vec<Point<D>> = order.iter().map(|s| s.rep).collect();
        let spreads: Vec<f64> = order
            .iter()
            .map(|s| {
                let rep_box = Mbr::new(*s.rep.coords(), *s.rep.coords());
                metric.max_box_dist_sq(&rep_box, &s.support_mbr).sqrt()
            })
            .collect();
        let fof = build_fof(metric, &ids, &centers, fof_neighbors);
        Self { metric_name: metric.name().to_string(), ids, centers, spreads, fof }
    }

    /// Position of `id` in the parallel arrays.
    pub fn pos_of(&self, id: ObjectId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }
}

/// Quadratic FoF build: for every object, its `fof_neighbors` nearest
/// *other* centers under `metric`, ties broken by id.
fn build_fof<M: Metric<D> + ?Sized, const D: usize>(
    metric: &M,
    ids: &[ObjectId],
    centers: &[Point<D>],
    fof_neighbors: usize,
) -> Vec<Vec<ObjectId>> {
    let n = ids.len();
    if fof_neighbors == 0 || n > FOF_BUILD_CAP {
        return vec![Vec::new(); n];
    }
    let mut fof = Vec::with_capacity(n);
    let mut near: Vec<(f64, ObjectId)> = Vec::with_capacity(n.saturating_sub(1));
    for i in 0..n {
        near.clear();
        for j in 0..n {
            if i != j {
                near.push((metric.dist(&centers[i], &centers[j]), ids[j]));
            }
        }
        let keep = fof_neighbors.min(near.len());
        if keep > 0 && keep < near.len() {
            near.select_nth_unstable_by(keep - 1, |a, b| {
                a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
            });
        }
        let mut list: Vec<(f64, ObjectId)> = near[..keep].to_vec();
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        fof.push(list.into_iter().map(|(_, id)| id).collect());
    }
    fof
}

pub(crate) fn encode_base<const D: usize>(body: &mut Encoder, base: &ApproxBase<D>) {
    let name = base.metric_name.as_bytes();
    body.u32(name.len() as u32);
    body.bytes(name);
    body.u64(base.ids.len() as u64);
    for i in 0..base.ids.len() {
        body.u64(base.ids[i].0);
        for &c in base.centers[i].coords() {
            body.f64(c);
        }
        body.f64(base.spreads[i]);
    }
    for list in &base.fof {
        body.u32(list.len() as u32);
        for id in list {
            body.u64(id.0);
        }
    }
}

pub(crate) fn decode_base<const D: usize>(
    d: &mut Decoder<'_>,
) -> Result<ApproxBase<D>, StoreError> {
    let corrupt = |reason: &str| StoreError::Corrupt { reason: reason.to_string() };
    let name_len = d.u32()? as usize;
    let metric_name = std::str::from_utf8(d.bytes(name_len)?)
        .map_err(|_| corrupt("metric name is not utf-8"))?
        .to_string();
    let n = d.u64()? as usize;
    let mut ids = Vec::with_capacity(n.min(1 << 20));
    let mut centers = Vec::with_capacity(n.min(1 << 20));
    let mut spreads = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        ids.push(ObjectId(d.u64()?));
        let mut coords = [0.0_f64; D];
        for c in coords.iter_mut() {
            *c = d.f64()?;
        }
        centers.push(Point::new(coords));
        spreads.push(d.f64()?);
    }
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(corrupt("approx item ids not strictly ascending"));
    }
    let mut fof = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let len = d.u32()? as usize;
        let mut list = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            let id = ObjectId(d.u64()?);
            if ids.binary_search(&id).is_err() {
                return Err(corrupt("fof neighbor id not in index"));
            }
            list.push(id);
        }
        fof.push(list);
    }
    Ok(ApproxBase { metric_name, ids, centers, spreads, fof })
}

/// Write `body` as a checksummed approx-index file: magic + version +
/// dims + reserved header, body, then `fnv1a` over **every byte before
/// the trailer** (header included, so header corruption — including the
/// reserved word — is always detected) and a trailing magic.
pub(crate) fn write_approx_file(
    path: impl AsRef<Path>,
    magic: [u8; 4],
    version: u16,
    dims: u16,
    body: &[u8],
) -> Result<(), StoreError> {
    let mut out = Encoder::with_capacity(16 + body.len() + 12);
    out.bytes(&magic);
    out.u16(version);
    out.u16(dims);
    out.u64(0); // reserved
    out.bytes(body);
    let sum = fnv1a(&out.as_bytes()[..16 + body.len()]);
    out.u64(sum);
    out.bytes(&magic);
    write_atomic(path, |file| Ok(file.write_all(out.as_bytes())?))
}

/// Envelope-check an approx-index image; returns the body bytes.
/// Checks run magic → version → dims → checksum so stale-version and
/// wrong-dimension files report their typed errors even though both
/// fields are also covered by the checksum.
pub(crate) fn approx_body<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    version: u16,
    dims: u16,
    what: &str,
) -> Result<&'a [u8], StoreError> {
    let corrupt = |reason: String| StoreError::Corrupt { reason };
    if bytes.len() < 16 + 12 {
        return Err(corrupt(format!("{what} file shorter than header + trailer")));
    }
    if bytes[..4] != magic || bytes[bytes.len() - 4..] != magic {
        return Err(corrupt(format!("bad {what} magic")));
    }
    let mut head = Decoder::new(&bytes[4..16]);
    let found_version = head.u16()?;
    if found_version != version {
        return Err(StoreError::VersionMismatch { found: found_version, expected: version });
    }
    let found_dims = head.u16()?;
    if found_dims != dims {
        return Err(StoreError::DimensionMismatch { found: found_dims, expected: dims });
    }
    let mut tail = Decoder::new(&bytes[bytes.len() - 12..bytes.len() - 4]);
    if tail.u64()? != fnv1a(&bytes[..bytes.len() - 12]) {
        return Err(corrupt(format!("{what} checksum mismatch")));
    }
    Ok(&bytes[16..bytes.len() - 12])
}
