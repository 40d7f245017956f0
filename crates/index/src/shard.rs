//! Sharded multi-tree index: partition strategies, the checksummed
//! `.fzsm` shard manifest, and [`ShardedIndex`].
//!
//! A single R-tree caps the dataset at one file's worth of pages and one
//! root's worth of fanout. `ShardedIndex` partitions the object set into
//! `S` independent shards — each its own [`PagedRTree`] file reachable
//! through the ordinary [`NodeAccess`] seam — described by a small
//! manifest file (`.fzsm`, normative spec in `docs/FORMAT.md`). The
//! query crate runs AKNN as scatter-gather over the shard forest with a
//! shared k-th-best bound τ, so a sharded index answers **byte-identical**
//! to a single tree over the same objects (proven by
//! `crates/query/tests/shard_determinism.rs`).
//!
//! Two [`ShardAssign`] strategies ship:
//!
//! * [`StrCenterAssign`] — STR tiling over the objects' expected centers
//!   (the support-MBR center): spatially coherent shards, the default.
//!   Queries near one tile resolve almost entirely inside one shard, so
//!   the shared-τ bound prunes the rest at their roots.
//! * [`MassClassAssign`] — membership-mass classes: objects sorted by
//!   their recorded point count (the stored proxy for membership mass —
//!   denser objects carry more probability mass) and sliced into `S`
//!   classes, heaviest class first. This mirrors the weight-class forest
//!   of rembed's `WRTree`; useful when heavy objects should compact and
//!   cache separately from light ones.
//!
//! Every shard file sits beside the manifest and is named
//! `<stem>.shard<i>.fzpt`; the manifest stores *relative* paths so the
//! whole family can be moved as a directory.

use crate::access::NodeAccess;
use crate::node::RTreeConfig;
use crate::overlay::{delta_path_for, OverlayRTree};
use crate::paged::PagedRTree;
use fuzzy_core::ObjectSummary;
use fuzzy_geom::Mbr;
use fuzzy_store::format::{fnv1a, Decoder, Encoder};
use fuzzy_store::StoreError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes of a shard-manifest file.
pub const SHARD_MAGIC: [u8; 4] = *b"FZSM";
/// Current `.fzsm` format version.
pub const SHARD_VERSION: u16 = 1;
/// Fixed header length: magic, version, dims, strategy + reserved,
/// shard count, object count, checksum.
const HEADER_LEN: usize = 4 + 2 + 2 + 4 + 4 + 8 + 8;
/// Trailer: whole-file checksum + magic.
const TRAILER_LEN: usize = 8 + 4;
/// Upper bound on the shard count a manifest may declare (a corrupted
/// count must not drive a huge allocation).
const MAX_SHARDS: u32 = 1 << 16;
/// Upper bound on one relative shard path, in bytes.
const MAX_PATH_LEN: usize = 4096;

fn corrupt(reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt { reason: reason.into() }
}

/// A partitioning strategy: maps every object summary to a shard id.
///
/// Implementations must be **deterministic** (the same input always
/// yields the same assignment — sharded builds are reproducible byte for
/// byte) and **total**: exactly one id in `0..shards` per input item.
/// Empty shards are allowed; the builder writes them as empty trees.
pub trait ShardAssign<const D: usize> {
    /// Strategy name, as reported by `fkq info`.
    fn name(&self) -> &'static str;

    /// Strategy code recorded in the manifest header.
    fn code(&self) -> u8;

    /// One shard id (`< shards`) per item, in item order.
    fn assign(&self, items: &[ObjectSummary<D>], shards: usize) -> Vec<u32>;
}

/// STR tiling over expected centers: sort by the support-MBR center,
/// recursively slice into slabs, and cut each slab into contiguous runs —
/// exactly `shards` tiles whose sizes differ by at most one object.
#[derive(Clone, Copy, Debug, Default)]
pub struct StrCenterAssign;

impl<const D: usize> ShardAssign<D> for StrCenterAssign {
    fn name(&self) -> &'static str {
        "str-centers"
    }

    fn code(&self) -> u8 {
        0
    }

    fn assign(&self, items: &[ObjectSummary<D>], shards: usize) -> Vec<u32> {
        let n = items.len();
        let parts = shards.clamp(1, n.max(1)).min(shards.max(1));
        let mut order: Vec<usize> = (0..n).collect();
        let mut out = vec![0u32; n];
        let mut next = 0u32;
        str_parts(&mut order, items, 0, parts, &mut |group: &[usize]| {
            for &i in group {
                out[i] = next;
            }
            next += 1;
        });
        out
    }
}

/// Recursive exact-`parts` STR split. Unlike the capacity-driven tiling of
/// the bulk loader, the number of output groups is fixed up front: the
/// global group sizes come from [`crate::bulk::even_partition`], slabs
/// take whole runs of consecutive groups, and the recursion sorts each
/// slab along the next dimension. Ties break by object id, so the
/// partition is deterministic on any input.
fn str_parts<const D: usize>(
    order: &mut [usize],
    items: &[ObjectSummary<D>],
    dim: usize,
    parts: usize,
    emit: &mut impl FnMut(&[usize]),
) {
    let n = order.len();
    if parts <= 1 {
        emit(order);
        return;
    }
    let axis = dim % D;
    let center = |i: usize| items[i].support_mbr.center().coords()[axis];
    order.sort_by(|&a, &b| center(a).total_cmp(&center(b)).then(items[a].id.cmp(&items[b].id)));
    let sizes = crate::bulk::even_partition(n, parts);
    if dim + 1 >= D {
        for &(start, end) in &sizes {
            emit(&order[start..end]);
        }
        return;
    }
    let dims_left = D - (dim % D);
    let slabs = ((parts as f64).powf(1.0 / dims_left as f64).round() as usize).clamp(1, parts);
    let slab_parts = crate::bulk::even_partition(parts, slabs);
    for &(pa, pb) in &slab_parts {
        let (ia, ib) = (sizes[pa].0, sizes[pb - 1].1);
        str_parts(&mut order[ia..ib], items, dim + 1, pb - pa, emit);
    }
}

/// Membership-mass classes: objects sorted by recorded point count
/// (descending — the stored proxy for membership mass; summaries do not
/// carry the raw membership sum) with id tie-break, sliced into `shards`
/// contiguous classes of near-equal population. Shard 0 is the heaviest
/// class.
#[derive(Clone, Copy, Debug, Default)]
pub struct MassClassAssign;

impl<const D: usize> ShardAssign<D> for MassClassAssign {
    fn name(&self) -> &'static str {
        "mass-class"
    }

    fn code(&self) -> u8 {
        1
    }

    fn assign(&self, items: &[ObjectSummary<D>], shards: usize) -> Vec<u32> {
        let n = items.len();
        let parts = shards.clamp(1, n.max(1)).min(shards.max(1));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            items[b].point_count.cmp(&items[a].point_count).then(items[a].id.cmp(&items[b].id))
        });
        let mut out = vec![0u32; n];
        for (class, (start, end)) in crate::bulk::even_partition(n, parts).into_iter().enumerate() {
            for &i in &order[start..end] {
                out[i] = class as u32;
            }
        }
        out
    }
}

/// The strategy a manifest code names, if known.
pub fn strategy_name(code: u8) -> Option<&'static str> {
    match code {
        0 => Some("str-centers"),
        1 => Some("mass-class"),
        _ => None,
    }
}

/// One manifest row: a shard file and what the manifest claims about it.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardMeta<const D: usize> {
    /// Shard file path, **relative to the manifest's directory**.
    pub path: String,
    /// Number of objects the shard file must index.
    pub objects: u64,
    /// Union of the shard's support MBRs at build time (the empty
    /// sentinel for an empty shard). Used to route inserts and order
    /// shard visits; conservative, never load-bearing for correctness.
    pub region: Mbr<D>,
}

/// The decoded `.fzsm` manifest: strategy plus one row per shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest<const D: usize> {
    /// Strategy code (see [`strategy_name`]).
    pub strategy: u8,
    /// Per-shard rows, shard id = row index.
    pub shards: Vec<ShardMeta<D>>,
}

impl<const D: usize> ShardManifest<D> {
    /// Total object count over all shards.
    pub fn object_count(&self) -> u64 {
        self.shards.iter().map(|s| s.objects).sum()
    }

    /// Human-readable strategy name.
    pub fn strategy_name(&self) -> &'static str {
        strategy_name(self.strategy).unwrap_or("unknown")
    }

    /// Shard ids ordered by ascending distance between `mbr` and each
    /// shard's region (ties by shard id). Visiting shards in this order
    /// lets the scatter-gather search establish a tight τ in the nearest
    /// shard and prune the rest at their roots.
    pub fn visit_order(&self, mbr: &Mbr<D>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by(|&a, &b| {
            let da = self.shards[a].region.min_dist_sq(mbr);
            let db = self.shards[b].region.min_dist_sq(mbr);
            da.total_cmp(&db).then(a.cmp(&b))
        });
        order
    }

    /// The shard a new object routes to: minimum region distance from the
    /// object's support MBR, ties to the lowest shard id. Deterministic;
    /// regions are never updated in place, so routing is a placement
    /// heuristic — correctness never depends on it (deletes search every
    /// shard, queries visit every non-pruned shard).
    pub fn route(&self, mbr: &Mbr<D>) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, s) in self.shards.iter().enumerate() {
            let d = if s.region.is_empty() { f64::INFINITY } else { s.region.min_dist_sq(mbr) };
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }

    /// Serialize to the normative `.fzsm` byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(HEADER_LEN + TRAILER_LEN + self.shards.len() * 64);
        e.bytes(&SHARD_MAGIC);
        e.u16(SHARD_VERSION);
        e.u16(D as u16);
        e.u32(self.strategy as u32);
        e.u32(self.shards.len() as u32);
        e.u64(self.object_count());
        let header_sum = fnv1a(e.as_bytes());
        e.u64(header_sum);
        for s in &self.shards {
            let row_start = e.len();
            e.u16(s.path.len() as u16);
            e.bytes(s.path.as_bytes());
            e.u64(s.objects);
            for i in 0..D {
                e.f64(s.region.lo(i));
                e.f64(s.region.hi(i));
            }
            let row_sum = fnv1a(&e.as_bytes()[row_start..]);
            e.u64(row_sum);
        }
        let file_sum = fnv1a(e.as_bytes());
        e.u64(file_sum);
        e.bytes(&SHARD_MAGIC);
        e.into_bytes()
    }

    /// Decode and fully validate a `.fzsm` byte image. Every structural
    /// violation — truncation at any byte, a flipped bit anywhere, an
    /// unknown strategy, hostile counts — surfaces as a typed
    /// [`StoreError`]; this function never panics on malformed input
    /// (test-enforced by `crates/index/tests/shard_manifest_corruption.rs`).
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(corrupt("shard manifest shorter than header + trailer"));
        }
        if bytes[..4] != SHARD_MAGIC {
            return Err(corrupt("bad shard manifest magic"));
        }
        if bytes[bytes.len() - 4..] != SHARD_MAGIC {
            return Err(corrupt("bad shard manifest trailer magic"));
        }
        let body_end = bytes.len() - TRAILER_LEN;
        let stored_file_sum = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
        let computed = fnv1a(&bytes[..body_end]);
        if stored_file_sum != computed {
            return Err(corrupt(format!(
                "shard manifest checksum mismatch: stored {stored_file_sum:x}, computed {computed:x}"
            )));
        }
        let mut d = Decoder::new(&bytes[..body_end]);
        let _magic = d.bytes(4)?;
        let version = d.u16()?;
        if version != SHARD_VERSION {
            return Err(StoreError::VersionMismatch { found: version, expected: SHARD_VERSION });
        }
        let dims = d.u16()?;
        if dims as usize != D {
            return Err(StoreError::DimensionMismatch { found: dims, expected: D as u16 });
        }
        let strategy_raw = d.u32()?;
        let strategy =
            u8::try_from(strategy_raw).map_err(|_| corrupt("strategy code out of range"))?;
        if strategy_name(strategy).is_none() {
            return Err(corrupt(format!("unknown shard strategy code {strategy}")));
        }
        let shard_count = d.u32()?;
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return Err(corrupt(format!("implausible shard count {shard_count}")));
        }
        let object_count = d.u64()?;
        let header_sum = d.u64()?;
        let computed_header = fnv1a(&bytes[..HEADER_LEN - 8]);
        if header_sum != computed_header {
            return Err(corrupt("shard manifest header checksum mismatch"));
        }
        let mut shards = Vec::with_capacity(shard_count as usize);
        for row in 0..shard_count {
            let row_start = body_end - d.remaining();
            let path_len = d.u16()? as usize;
            if path_len == 0 || path_len > MAX_PATH_LEN {
                return Err(corrupt(format!("shard {row}: implausible path length {path_len}")));
            }
            let path_bytes = d.bytes(path_len)?;
            let path = std::str::from_utf8(path_bytes)
                .map_err(|_| corrupt(format!("shard {row}: path is not UTF-8")))?
                .to_string();
            if Path::new(&path).is_absolute() {
                return Err(corrupt(format!(
                    "shard {row}: path {path:?} is absolute (must be manifest-relative)"
                )));
            }
            let objects = d.u64()?;
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for i in 0..D {
                lo[i] = d.f64()?;
                hi[i] = d.f64()?;
            }
            let row_end = body_end - d.remaining();
            let row_sum = d.u64()?;
            let computed_row = fnv1a(&bytes[row_start..row_end]);
            if row_sum != computed_row {
                return Err(corrupt(format!("shard {row}: row checksum mismatch")));
            }
            // The empty sentinel (lo=+∞, hi=−∞ on every axis) marks an
            // empty shard; any other inverted axis is a corrupt region.
            let is_sentinel = (0..D).all(|i| lo[i] == f64::INFINITY && hi[i] == f64::NEG_INFINITY);
            let region = if is_sentinel {
                Mbr::empty()
            } else if (0..D).any(|i| lo[i] > hi[i] || !lo[i].is_finite() || !hi[i].is_finite()) {
                return Err(corrupt(format!("shard {row}: inverted or non-finite region")));
            } else {
                Mbr::new(lo, hi)
            };
            shards.push(ShardMeta { path, objects, region });
        }
        if d.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after the last shard row",
                d.remaining()
            )));
        }
        let manifest = Self { strategy, shards };
        if manifest.object_count() != object_count {
            return Err(corrupt(format!(
                "header says {object_count} objects, rows sum to {}",
                manifest.object_count()
            )));
        }
        Ok(manifest)
    }

    /// Write the manifest to `path` (whole-file rewrite; a torn write
    /// fails the trailing checksum on reload).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Load and validate a manifest file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }
}

/// The shard-file name for shard `i` of a manifest named `<stem>.fzsm`.
pub fn shard_file_name(manifest_path: &Path, i: usize) -> String {
    let stem = manifest_path.file_stem().and_then(|s| s.to_str()).unwrap_or("index");
    format!("{stem}.shard{i}.fzpt")
}

/// Resolve a manifest-relative shard path against the manifest location.
pub fn resolve_shard_path(manifest_path: &Path, relative: &str) -> PathBuf {
    match manifest_path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(relative),
        _ => PathBuf::from(relative),
    }
}

/// A partitioned multi-tree index: `S` independent [`PagedRTree`] files
/// described by one `.fzsm` manifest. Each shard is an ordinary
/// [`NodeAccess`] backend; the scatter-gather query layout
/// (`fuzzy_query::Forest`) searches them with a shared τ bound. Cloning
/// shares the shard file handles (`Arc` bump).
#[derive(Clone, Debug)]
pub struct ShardedIndex<const D: usize> {
    manifest: ShardManifest<D>,
    manifest_path: PathBuf,
    shards: Vec<Arc<PagedRTree<D>>>,
}

impl<const D: usize> ShardedIndex<D> {
    /// Partition `summaries` with `strategy` and write the whole family:
    /// one `.fzpt` file per shard beside the manifest, then the manifest
    /// itself. `shards` is clamped to at least 1 and at most the object
    /// count (never builds more shards than objects; an empty input
    /// builds one empty shard).
    pub fn build(
        summaries: Vec<ObjectSummary<D>>,
        shards: usize,
        strategy: &dyn ShardAssign<D>,
        config: RTreeConfig,
        manifest_path: impl AsRef<Path>,
        page_size: u32,
    ) -> Result<Self, StoreError> {
        let manifest_path = manifest_path.as_ref();
        let n = summaries.len();
        let effective = shards.clamp(1, n.max(1));
        let assignment = strategy.assign(&summaries, effective);
        assert_eq!(assignment.len(), n, "strategy must assign every object");
        let mut groups: Vec<Vec<ObjectSummary<D>>> = vec![Vec::new(); effective];
        for (s, shard) in summaries.into_iter().zip(&assignment) {
            let shard = *shard as usize;
            assert!(shard < effective, "strategy assigned shard {shard} of {effective}");
            groups[shard].push(s);
        }
        let mut rows = Vec::with_capacity(effective);
        for (i, group) in groups.into_iter().enumerate() {
            let file = shard_file_name(manifest_path, i);
            let region = group.iter().fold(Mbr::empty(), |acc, s| acc.union(&s.support_mbr));
            let objects = group.len() as u64;
            let shard_path = resolve_shard_path(manifest_path, &file);
            PagedRTree::bulk_write(group, config, &shard_path, page_size)?;
            rows.push(ShardMeta { path: file, objects, region });
        }
        let manifest = ShardManifest { strategy: strategy.code(), shards: rows };
        manifest.save(manifest_path)?;
        Self::open_with_cache(manifest_path, crate::paged::DEFAULT_CACHE_PAGES)
    }

    /// Open a sharded index with the default per-shard buffer pool.
    pub fn open(manifest_path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_cache(manifest_path, crate::paged::DEFAULT_CACHE_PAGES)
    }

    /// Open a sharded index. Every shard file the manifest names is
    /// opened and checked against its row: a missing file (stale path)
    /// surfaces as [`StoreError::Io`], a shard holding the wrong number
    /// of objects as [`StoreError::Corrupt`]. `cache_pages` is the
    /// buffer-pool capacity **per shard**.
    pub fn open_with_cache(
        manifest_path: impl AsRef<Path>,
        cache_pages: usize,
    ) -> Result<Self, StoreError> {
        let manifest_path = manifest_path.as_ref().to_path_buf();
        let manifest = ShardManifest::<D>::load(&manifest_path)?;
        let mut shards = Vec::with_capacity(manifest.shards.len());
        for (i, row) in manifest.shards.iter().enumerate() {
            let path = resolve_shard_path(&manifest_path, &row.path);
            let tree = PagedRTree::open_with_cache(&path, cache_pages)?;
            if NodeAccess::len(&tree) as u64 != row.objects {
                return Err(corrupt(format!(
                    "manifest says shard {i} holds {} objects, file {} stores {}",
                    row.objects,
                    path.display(),
                    NodeAccess::len(&tree)
                )));
            }
            shards.push(Arc::new(tree));
        }
        Ok(Self { manifest, manifest_path, shards })
    }

    /// Open every shard **delta-aware**: shards with a `.fzdl` sidecar
    /// replay it, the rest get an empty overlay. This is the mutable view
    /// the CLI and the server build dynamic engines from.
    pub fn open_overlays(
        manifest_path: impl AsRef<Path>,
        cache_pages: usize,
    ) -> Result<(ShardManifest<D>, Vec<OverlayRTree<D>>), StoreError> {
        let manifest_path = manifest_path.as_ref();
        let manifest = ShardManifest::<D>::load(manifest_path)?;
        let mut overlays = Vec::with_capacity(manifest.shards.len());
        for row in &manifest.shards {
            let path = resolve_shard_path(manifest_path, &row.path);
            let overlay = if delta_path_for(&path).exists() {
                OverlayRTree::open_with_cache(&path, cache_pages)?
            } else {
                OverlayRTree::new(Arc::new(PagedRTree::open_with_cache(&path, cache_pages)?))?
            };
            overlays.push(overlay);
        }
        Ok((manifest, overlays))
    }

    /// The decoded manifest.
    pub fn manifest(&self) -> &ShardManifest<D> {
        &self.manifest
    }

    /// The manifest file path.
    pub fn path(&self) -> &Path {
        &self.manifest_path
    }

    /// The opened shard trees, shard id = index.
    pub fn shards(&self) -> &[Arc<PagedRTree<D>>] {
        &self.shards
    }

    /// Absolute path of shard `i`'s index file.
    pub fn shard_path(&self, i: usize) -> PathBuf {
        resolve_shard_path(&self.manifest_path, &self.manifest.shards[i].path)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total indexed objects over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| NodeAccess::len(s.as_ref())).sum()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Compact every dirty shard of an overlay forest, **shard-parallel**:
/// one scoped thread per dirty shard folds that shard's delta into a
/// freshly bulk-loaded base `.fzpt` file (`page_size`, or the shard's
/// current page size when `None`) and replaces the overlay in place with a
/// clean one over the new base. Clean shards are skipped.
///
/// Readers pinned to a pre-compaction clone keep the old file handle — the
/// compaction renames over the path, it never truncates in place — so this
/// is safe to run under a `Versioned<Vec<OverlayRTree>>` write while
/// snapshot readers keep answering.
///
/// Returns one result per shard: `Ok(true)` if it was compacted. An error
/// leaves that shard's overlay untouched; the others still compact.
/// Compaction changes base-file object counts — callers owning a `.fzsm`
/// manifest must rewrite its rows afterwards (`fkq compact` does).
pub fn compact_shards<const D: usize>(
    shards: &mut [OverlayRTree<D>],
    page_size: Option<u32>,
) -> Vec<Result<bool, StoreError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|shard| {
                scope.spawn(move || {
                    if shard.is_clean() {
                        return Ok(false);
                    }
                    let page_size = page_size.unwrap_or(shard.base().page_size());
                    let tree = shard.clone().compact(page_size)?;
                    *shard = OverlayRTree::new(Arc::new(tree))?;
                    Ok(true)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("compaction thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::{FuzzyObject, ObjectId};
    use fuzzy_geom::Point;

    fn summary(id: u64, x: f64, y: f64, points: usize) -> ObjectSummary<2> {
        let mut pts = vec![Point::new([x, y])];
        let mut mus = vec![1.0];
        for j in 1..points {
            pts.push(Point::new([x + 0.1 * j as f64, y + 0.07 * j as f64]));
            mus.push(0.9 / j as f64);
        }
        ObjectSummary::from_object(&FuzzyObject::new(ObjectId(id), pts, mus).unwrap())
    }

    fn grid(n: u64) -> Vec<ObjectSummary<2>> {
        (0..n)
            .map(|i| {
                summary(
                    i,
                    (i % 16) as f64 * 2.0 + i as f64 * 1.3e-3,
                    (i / 16) as f64 * 2.0 + i as f64 * 0.9e-3,
                    2 + (i % 5) as usize,
                )
            })
            .collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fz-shard-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn assignments_partition_the_input() {
        let items = grid(137);
        for shards in [1usize, 2, 3, 4, 8, 137, 500] {
            for strategy in [&StrCenterAssign as &dyn ShardAssign<2>, &MassClassAssign] {
                let eff = shards.clamp(1, items.len());
                let got = strategy.assign(&items, eff);
                assert_eq!(got.len(), items.len(), "{} S={shards}", strategy.name());
                let mut counts = vec![0usize; eff];
                for &s in &got {
                    assert!((s as usize) < eff, "{} S={shards}", strategy.name());
                    counts[s as usize] += 1;
                }
                // Both strategies slice through even_partition: near-equal
                // population, no empty shard when S ≤ n.
                let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
                assert!(max - min <= 1, "{} S={shards}: counts {counts:?}", strategy.name());
            }
        }
    }

    #[test]
    fn assignments_are_deterministic() {
        let items = grid(90);
        let a = ShardAssign::<2>::assign(&StrCenterAssign, &items, 4);
        let b = ShardAssign::<2>::assign(&StrCenterAssign, &items, 4);
        assert_eq!(a, b);
        let a = ShardAssign::<2>::assign(&MassClassAssign, &items, 5);
        let b = ShardAssign::<2>::assign(&MassClassAssign, &items, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn manifest_roundtrips() {
        let m = ShardManifest::<2> {
            strategy: 0,
            shards: vec![
                ShardMeta {
                    path: "ix.shard0.fzpt".into(),
                    objects: 40,
                    region: Mbr::new([0.0, 0.0], [5.0, 5.0]),
                },
                ShardMeta { path: "ix.shard1.fzpt".into(), objects: 0, region: Mbr::empty() },
            ],
        };
        let bytes = m.encode();
        let back = ShardManifest::<2>::decode(&bytes).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.object_count(), 40);
        assert_eq!(back.strategy_name(), "str-centers");
    }

    #[test]
    fn build_open_and_query_each_shard() {
        let dir = tmp_dir("build");
        let manifest = dir.join("ix.fzsm");
        let items = grid(200);
        let cfg = RTreeConfig { max_entries: 16, min_fill: 0.4 };
        let ix =
            ShardedIndex::build(items.clone(), 4, &StrCenterAssign, cfg, &manifest, 4096).unwrap();
        assert_eq!(ix.shard_count(), 4);
        assert_eq!(ix.len(), 200);
        // Every id lands in exactly one shard.
        let mut seen: Vec<u64> = Vec::new();
        for shard in ix.shards() {
            let mut stack = vec![NodeAccess::root_id(shard.as_ref())];
            while let Some(id) = stack.pop() {
                let read = shard.read_node(id).unwrap();
                match read.view() {
                    crate::access::NodeView::Nodes(kids) => stack.extend(kids.iter().map(|c| c.id)),
                    crate::access::NodeView::Entries(es) => seen.extend(es.iter().map(|e| e.id.0)),
                }
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..200u64).collect::<Vec<_>>());
        // Reopen from disk.
        let re = ShardedIndex::<2>::open(&manifest).unwrap();
        assert_eq!(re.len(), 200);
        assert_eq!(re.manifest(), ix.manifest());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn more_shards_than_objects_clamps() {
        let dir = tmp_dir("clamp");
        let manifest = dir.join("ix.fzsm");
        let cfg = RTreeConfig::default();
        let ix =
            ShardedIndex::build(grid(3), 8, &StrCenterAssign, cfg, &manifest, 16 * 1024).unwrap();
        assert_eq!(ix.shard_count(), 3);
        let ix =
            ShardedIndex::<2>::build(Vec::new(), 4, &MassClassAssign, cfg, &manifest, 16 * 1024)
                .unwrap();
        assert_eq!(ix.shard_count(), 1);
        assert!(ix.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_shard_object_count_is_rejected() {
        let dir = tmp_dir("count");
        let manifest = dir.join("ix.fzsm");
        let cfg = RTreeConfig::default();
        ShardedIndex::build(grid(30), 2, &StrCenterAssign, cfg, &manifest, 16 * 1024).unwrap();
        let mut m = ShardManifest::<2>::load(&manifest).unwrap();
        m.shards[1].objects += 1;
        m.save(&manifest).unwrap();
        assert!(matches!(
            ShardedIndex::<2>::open(&manifest).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_shard_path_is_a_typed_error() {
        let dir = tmp_dir("stale");
        let manifest = dir.join("ix.fzsm");
        let cfg = RTreeConfig::default();
        let ix =
            ShardedIndex::build(grid(20), 2, &StrCenterAssign, cfg, &manifest, 16 * 1024).unwrap();
        std::fs::remove_file(ix.shard_path(1)).unwrap();
        assert!(matches!(ShardedIndex::<2>::open(&manifest).unwrap_err(), StoreError::Io { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn visit_order_and_route_prefer_the_nearest_region() {
        let m = ShardManifest::<2> {
            strategy: 0,
            shards: vec![
                ShardMeta {
                    path: "a".into(),
                    objects: 1,
                    region: Mbr::new([10.0, 10.0], [20.0, 20.0]),
                },
                ShardMeta {
                    path: "b".into(),
                    objects: 1,
                    region: Mbr::new([0.0, 0.0], [5.0, 5.0]),
                },
            ],
        };
        let near_b = Mbr::new([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(m.visit_order(&near_b), vec![1, 0]);
        assert_eq!(m.route(&near_b), 1);
        let near_a = Mbr::new([15.0, 15.0], [16.0, 16.0]);
        assert_eq!(m.visit_order(&near_a), vec![0, 1]);
        assert_eq!(m.route(&near_a), 0);
    }
}
