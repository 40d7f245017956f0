//! Multi-probe LSH over per-object expected centers.
//!
//! Classic E2LSH bucketing specialised to the summary layer: `L`
//! independent tables, each hashing a center through `H` seeded random
//! projections quantised to cells of data-derived width; a table key is
//! the mixed tuple of cell indices. Queries probe the home bucket first,
//! then perturbed buckets in **query-directed multi-probe order** (Lv et
//! al.): single-step cell perturbations ranked by the query projection's
//! distance to the crossed boundary, combined in increasing total score.
//! The [`RecallDial`] budget is the number of buckets probed per table,
//! and because the probe sequence is deterministic and prefix-nested, the
//! candidate pool at budget `b` is a subset of the pool at `b + 1` — the
//! property the recall-monotonicity suite pins.
//!
//! The geometry is Euclidean: `.fzlh` records metric name `l2` and the
//! loader rejects anything else. Like every candidate backend, LSH never
//! answers a query by itself — pools resolve through the exact probe
//! loop, so the dial moves recall, never correctness of returned
//! distances.

use crate::approx::{
    approx_body, decode_base, encode_base, unit_f64, write_approx_file, ApproxBase, ApproxIndex,
    RecallDial,
};
use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::Point;
use fuzzy_store::format::{Decoder, Encoder};
use fuzzy_store::StoreError;
use std::collections::HashMap;
use std::path::Path;

/// Magic framing a `.fzlh` file.
pub const LSH_MAGIC: [u8; 4] = *b"FZLH";
/// Current `.fzlh` format version.
pub const LSH_VERSION: u16 = 1;

/// Build-time knobs for [`LshIndex`].
#[derive(Clone, Copy, Debug)]
pub struct LshConfig {
    /// Independent hash tables (`L`). More tables, more recall per probe.
    pub tables: usize,
    /// Projections per table (`H`). More hashes, finer buckets.
    pub hashes: usize,
    /// Seed for the projection/offset stream; same seed, same index.
    pub seed: u64,
    /// FoF neighbors recorded per object (0 disables).
    pub fof_neighbors: usize,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self { tables: 8, hashes: 4, seed: 0x1A5B_5EED, fof_neighbors: 8 }
    }
}

/// One seeded projection: `cell = ⌊(⟨normal, p⟩ + offset) / width⌋`.
struct Projection<const D: usize> {
    normal: [f64; D],
    offset: f64,
    width: f64,
}

impl<const D: usize> Projection<D> {
    fn project(&self, p: &Point<D>) -> f64 {
        let mut dot = self.offset;
        for (i, &c) in self.normal.iter().enumerate() {
            dot += c * p[i];
        }
        dot
    }

    fn cell(&self, p: &Point<D>) -> i64 {
        (self.project(p) / self.width).floor() as i64
    }
}

/// One table: `H` projections plus its bucket directory (keys sorted
/// ascending; `offsets` CSR-indexes `members`, which hold positions into
/// the base arrays).
struct LshTable<const D: usize> {
    projections: Vec<Projection<D>>,
    keys: Vec<u64>,
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl<const D: usize> LshTable<D> {
    fn bucket(&self, key: u64) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(i) => &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// Mix `H` cell indices into one bucket key (order-sensitive FNV-style
/// fold, so cell tuples collide only by accident, not by permutation).
fn mix_cells(cells: &[i64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64 ^ (cells.len() as u64);
    for &c in cells {
        h ^= c as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// A deterministic multi-probe LSH index over expected centers.
pub struct LshIndex<const D: usize> {
    base: ApproxBase<D>,
    seed: u64,
    hashes: usize,
    tables: Vec<LshTable<D>>,
}

impl<const D: usize> LshIndex<D> {
    /// Bulk-build from summaries under [`LshConfig`]. Euclidean only:
    /// the index records metric name `l2`. Deterministic for a fixed
    /// (summaries, config) pair.
    pub fn build(summaries: &[ObjectSummary<D>], config: LshConfig) -> Self {
        let tables = config.tables.max(1);
        let hashes = config.hashes.max(1);
        let base = ApproxBase::build(&L2, summaries, config.fof_neighbors);
        let n = base.ids.len();
        // Per-projection cell count targeting ~8 members per bucket. The
        // H projections of a D-dimensional space have only min(H, D)
        // independent directions — beyond that, extra projections refine
        // cell *shapes* but not the occupied-key count — so the target is
        // c^min(H,D) ≈ n/8, clamped to at least 2 cells so the dial has
        // room.
        let effective = hashes.min(D).max(1);
        let cells_per_hash =
            (((n as f64 / 8.0).max(1.0)).powf(1.0 / effective as f64).round() as i64).max(2) as f64;
        let mut state = config.seed ^ 0x5A17_1E57_ED00_F00D;
        let built = (0..tables)
            .map(|_| {
                let projections = (0..hashes)
                    .map(|_| {
                        let mut normal = [0.0_f64; D];
                        let mut norm_sq = 0.0;
                        for c in normal.iter_mut() {
                            *c = 2.0 * unit_f64(&mut state) - 1.0;
                            norm_sq += *c * *c;
                        }
                        if norm_sq <= f64::MIN_POSITIVE {
                            normal[0] = 1.0;
                            norm_sq = 1.0;
                        }
                        let inv = 1.0 / norm_sq.sqrt();
                        for c in normal.iter_mut() {
                            *c *= inv;
                        }
                        let offset_u = unit_f64(&mut state);
                        (normal, offset_u)
                    })
                    .collect::<Vec<_>>();
                let projections = projections
                    .into_iter()
                    .map(|(normal, offset_u)| {
                        // Data-derived width: the projection range split into
                        // the target cell count (degenerate range → unit).
                        let mut lo = f64::INFINITY;
                        let mut hi = f64::NEG_INFINITY;
                        let probe = Projection { normal, offset: 0.0, width: 1.0 };
                        for c in &base.centers {
                            let v = probe.project(c);
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                        let range = if hi > lo { hi - lo } else { 1.0 };
                        let width = range / cells_per_hash;
                        Projection { normal, offset: offset_u * width, width }
                    })
                    .collect::<Vec<_>>();
                let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
                let mut cells = vec![0_i64; hashes];
                for (pos, center) in base.centers.iter().enumerate() {
                    for (ci, p) in cells.iter_mut().zip(&projections) {
                        *ci = p.cell(center);
                    }
                    buckets.entry(mix_cells(&cells)).or_default().push(pos as u32);
                }
                let mut keys: Vec<u64> = buckets.keys().copied().collect();
                keys.sort_unstable();
                let mut offsets = Vec::with_capacity(keys.len() + 1);
                let mut members = Vec::with_capacity(n);
                offsets.push(0_u32);
                for key in &keys {
                    members.extend_from_slice(&buckets[key]);
                    offsets.push(members.len() as u32);
                }
                LshTable { projections, keys, offsets, members }
            })
            .collect();
        Self { base, seed: config.seed, hashes, tables: built }
    }

    /// Number of hash tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Projections per table.
    pub fn hashes(&self) -> usize {
        self.hashes
    }

    /// Build seed recorded in the file.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The deterministic per-table probe sequence for `q`: bucket keys in
    /// query-directed multi-probe order, starting at the home bucket.
    /// Exposed for tests; `candidates` consumes a `budget`-long prefix,
    /// which is what makes pools nested across budgets.
    fn probe_keys(&self, table: &LshTable<D>, q: &Point<D>, budget: usize, out: &mut Vec<u64>) {
        out.clear();
        let h = table.projections.len();
        let mut home = vec![0_i64; h];
        // Perturbation atoms: (score, hash index, ±1), score = distance
        // from the query projection to the crossed cell boundary.
        let mut atoms: Vec<(f64, usize, i64)> = Vec::with_capacity(2 * h);
        for (i, p) in table.projections.iter().enumerate() {
            let v = p.project(q);
            let cell = (v / p.width).floor() as i64;
            home[i] = cell;
            let d_lo = v - cell as f64 * p.width;
            atoms.push((d_lo, i, -1));
            atoms.push((p.width - d_lo, i, 1));
        }
        atoms.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| (a.1, a.2).cmp(&(b.1, b.2))));
        out.push(mix_cells(&home));
        if budget <= 1 {
            return;
        }
        // Generate perturbation sets (sorted atom-index vectors) in
        // increasing total score via the shift/expand heap; sets that
        // perturb the same hash twice are skipped.
        let score = |set: &[usize]| set.iter().map(|&i| atoms[i].0).sum::<f64>();
        let valid = |set: &[usize]| {
            let mut seen = vec![false; h];
            set.iter().all(|&i| !std::mem::replace(&mut seen[atoms[i].1], true))
        };
        let mut heap: std::collections::BinaryHeap<crate::MinKey<Vec<usize>>> =
            std::collections::BinaryHeap::new();
        heap.push(crate::MinKey { key: atoms[0].0, item: vec![0] });
        let mut cells = vec![0_i64; h];
        while out.len() < budget {
            let Some(crate::MinKey { item: set, .. }) = heap.pop() else { break };
            let last = *set.last().expect("sets are non-empty");
            if last + 1 < atoms.len() {
                let mut shifted = set.clone();
                *shifted.last_mut().expect("non-empty") = last + 1;
                heap.push(crate::MinKey { key: score(&shifted), item: shifted });
                let mut expanded = set.clone();
                expanded.push(last + 1);
                heap.push(crate::MinKey { key: score(&expanded), item: expanded });
            }
            if !valid(&set) {
                continue;
            }
            cells.copy_from_slice(&home);
            for &i in &set {
                cells[atoms[i].1] += atoms[i].2;
            }
            out.push(mix_cells(&cells));
        }
    }

    /// Persist as a `.fzlh` file (layout in `docs/FORMAT.md`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut body = Encoder::with_capacity(64 + self.base.ids.len() * (16 + D * 8));
        encode_base(&mut body, &self.base);
        body.u64(self.seed);
        body.u32(self.tables.len() as u32);
        body.u32(self.hashes as u32);
        for table in &self.tables {
            for p in &table.projections {
                for &c in &p.normal {
                    body.f64(c);
                }
                body.f64(p.offset);
                body.f64(p.width);
            }
            body.u64(table.keys.len() as u64);
            for &k in &table.keys {
                body.u64(k);
            }
            for &o in &table.offsets {
                body.u32(o);
            }
            body.u64(table.members.len() as u64);
            for &m in &table.members {
                body.u32(m);
            }
        }
        write_approx_file(path, LSH_MAGIC, LSH_VERSION, D as u16, body.as_bytes())
    }

    /// Load a `.fzlh` file: read it and [`LshIndex::decode`] the image.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::decode(&std::fs::read(path)?)
    }

    /// Decode a `.fzlh` image, verifying magic, version, dimensionality
    /// and the whole-file checksum, then every structural invariant
    /// (metric is `l2`, CSR offsets monotone, member positions in range).
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let body = approx_body(bytes, LSH_MAGIC, LSH_VERSION, D as u16, "fzlh")?;
        let corrupt = |reason: &str| StoreError::Corrupt { reason: reason.to_string() };
        let mut d = Decoder::new(body);
        let base = decode_base::<D>(&mut d)?;
        if base.metric_name != "l2" {
            return Err(StoreError::Corrupt {
                reason: format!("fzlh is l2-only, file records metric '{}'", base.metric_name),
            });
        }
        let n = base.ids.len();
        let seed = d.u64()?;
        let tables = d.u32()? as usize;
        let hashes = d.u32()? as usize;
        if tables == 0 || hashes == 0 {
            return Err(corrupt("fzlh table/hash counts must be positive"));
        }
        let mut built = Vec::with_capacity(tables);
        for _ in 0..tables {
            let mut projections = Vec::with_capacity(hashes);
            for _ in 0..hashes {
                let mut normal = [0.0_f64; D];
                for c in normal.iter_mut() {
                    *c = d.f64()?;
                }
                let offset = d.f64()?;
                let width = d.f64()?;
                if !(width.is_finite() && width > 0.0) {
                    return Err(corrupt("fzlh projection width must be positive"));
                }
                projections.push(Projection { normal, offset, width });
            }
            let key_count = d.u64()? as usize;
            let mut keys = Vec::with_capacity(key_count.min(1 << 20));
            for _ in 0..key_count {
                keys.push(d.u64()?);
            }
            if !keys.windows(2).all(|w| w[0] < w[1]) {
                return Err(corrupt("fzlh bucket keys not strictly ascending"));
            }
            let mut offsets = Vec::with_capacity(key_count + 1);
            for _ in 0..=key_count {
                offsets.push(d.u32()?);
            }
            if offsets.first() != Some(&0) || !offsets.windows(2).all(|w| w[0] <= w[1]) {
                return Err(corrupt("fzlh bucket offsets not monotone from zero"));
            }
            let member_count = d.u64()? as usize;
            if offsets.last().copied() != Some(member_count as u32) || member_count != n {
                return Err(corrupt("fzlh bucket membership does not cover the index"));
            }
            let mut members = Vec::with_capacity(member_count.min(1 << 20));
            for _ in 0..member_count {
                let m = d.u32()?;
                if m as usize >= n {
                    return Err(corrupt("fzlh bucket member out of range"));
                }
                members.push(m);
            }
            built.push(LshTable { projections, keys, offsets, members });
        }
        Ok(Self { base, seed, hashes, tables: built })
    }
}

impl<const D: usize> ApproxIndex<D> for LshIndex<D> {
    fn backend_name(&self) -> &'static str {
        "lsh"
    }

    fn metric_name(&self) -> &str {
        &self.base.metric_name
    }

    fn len(&self) -> usize {
        self.base.ids.len()
    }

    fn ids(&self) -> &[ObjectId] {
        &self.base.ids
    }

    fn ball_of(&self, id: ObjectId) -> Option<(&Point<D>, f64)> {
        let pos = self.base.pos_of(id)?;
        Some((&self.base.centers[pos], self.base.spreads[pos]))
    }

    fn neighbors_of(&self, id: ObjectId) -> &[ObjectId] {
        self.base.pos_of(id).map(|p| self.base.fof[p].as_slice()).unwrap_or(&[])
    }

    fn candidates<M: Metric<D> + ?Sized>(
        &self,
        _metric: &M,
        q_center: &Point<D>,
        _k: usize,
        dial: RecallDial,
        out: &mut Vec<ObjectId>,
    ) {
        let budget = match dial {
            RecallDial::Exact => {
                out.extend_from_slice(&self.base.ids);
                return;
            }
            RecallDial::Budget(v) => (v.ceil() as usize).max(1),
        };
        let mut hit = vec![false; self.base.ids.len()];
        let mut keys = Vec::with_capacity(budget);
        for table in &self.tables {
            self.probe_keys(table, q_center, budget, &mut keys);
            for &key in &keys {
                for &pos in table.bucket(key) {
                    hit[pos as usize] = true;
                }
            }
        }
        out.extend(hit.iter().enumerate().filter(|(_, &h)| h).map(|(pos, _)| self.base.ids[pos]));
    }
}
