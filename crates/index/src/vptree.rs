//! Bulk-loaded vantage-point tree over per-object expected centers.
//!
//! The approximate candidate generator: a VP-tree needs nothing but the
//! [`Metric`] distance itself, so it rides the metric seam, and the
//! `.fzvp` loader checks the metric name the file records against the
//! one it is opened under. The tree is implicit: one
//! permutation of the id-sorted base arrays plus a parallel radius
//! column, where the subtree of range `[lo, hi)` has its vantage at
//! `order[lo]`, the inner half (distance ≤ radius) at
//! `[lo+1, mid)` and the outer half (distance ≥ radius) at `[mid, hi)`
//! with `mid = lo + 1 + (hi - lo - 1) / 2` — no node structs, no child
//! pointers.
//!
//! Candidate generation is center-kNN with **ε-slack pruning**: the
//! search tracks τ_c, the k-th nearest center distance seen so far, and
//! discards a subtree only when its triangle-inequality bound exceeds
//! `τ_c · (1 + ε)`; every visited center within that slack of the final
//! τ_c joins the pool. `ε` is the [`RecallDial`]: 0 keeps the pool tight
//! around the center-nearest objects, larger values sweep in near misses
//! whose α-distance may beat their center rank, and `Exact` bypasses the
//! tree entirely.

use crate::approx::{
    approx_body, decode_base, encode_base, write_approx_file, ApproxBase, RecallDial,
};
use fuzzy_core::metric::Metric;
use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::Point;
use fuzzy_store::format::{Decoder, Encoder};
use fuzzy_store::StoreError;
use std::path::Path;

/// Magic framing a `.fzvp` file.
pub const VPTREE_MAGIC: [u8; 4] = *b"FZVP";
/// Current `.fzvp` format version.
pub const VPTREE_VERSION: u16 = 1;

/// Build-time knobs for [`VpTree`].
#[derive(Clone, Copy, Debug)]
pub struct VpTreeConfig {
    /// Ranges at or below this size stay unsplit (scanned linearly).
    pub leaf_size: usize,
    /// FoF neighbors recorded per object (0 disables).
    pub fof_neighbors: usize,
}

impl Default for VpTreeConfig {
    fn default() -> Self {
        Self { leaf_size: 8, fof_neighbors: 8 }
    }
}

/// A deterministic bulk-loaded VP-tree over expected centers.
pub struct VpTree<const D: usize> {
    base: ApproxBase<D>,
    leaf_size: usize,
    /// Permutation of base positions in VP layout.
    order: Vec<u32>,
    /// Parallel to `order`: split radius at internal roots, 0 elsewhere.
    radius: Vec<f64>,
}

impl<const D: usize> VpTree<D> {
    /// Bulk-build from summaries under `metric`. Deterministic: the
    /// vantage of every range is its lowest base position, and the
    /// distance partition sorts with position tie-breaks.
    pub fn build<M: Metric<D> + ?Sized>(
        metric: &M,
        summaries: &[ObjectSummary<D>],
        config: VpTreeConfig,
    ) -> Self {
        let leaf_size = config.leaf_size.max(1);
        let base = ApproxBase::build(metric, summaries, config.fof_neighbors);
        let n = base.ids.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut radius = vec![0.0_f64; n];
        // Explicit stack of ranges to split; recursion depth is data-
        // dependent and this keeps it off the call stack.
        let mut ranges = vec![(0_usize, n)];
        let mut dists: Vec<(f64, u32)> = Vec::with_capacity(n);
        while let Some((lo, hi)) = ranges.pop() {
            if hi - lo <= leaf_size {
                continue;
            }
            // Deterministic vantage: the smallest base position in range.
            let vp_idx = (lo..hi).min_by_key(|&i| order[i]).expect("range is non-empty");
            order.swap(lo, vp_idx);
            let vantage = base.centers[order[lo] as usize];
            dists.clear();
            dists.extend(
                order[lo + 1..hi]
                    .iter()
                    .map(|&pos| (metric.dist(&vantage, &base.centers[pos as usize]), pos)),
            );
            dists.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            for (slot, &(_, pos)) in order[lo + 1..hi].iter_mut().zip(&dists) {
                *slot = pos;
            }
            let mid = lo + 1 + (hi - lo - 1) / 2;
            radius[lo] = dists[mid - lo - 1].0;
            ranges.push((lo + 1, mid));
            ranges.push((mid, hi));
        }
        Self { base, leaf_size, order, radius }
    }

    /// Persist as a `.fzvp` file (layout in `docs/FORMAT.md`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut body = Encoder::with_capacity(64 + self.base.ids.len() * (28 + D * 8));
        encode_base(&mut body, &self.base);
        body.u32(self.leaf_size as u32);
        for &o in &self.order {
            body.u32(o);
        }
        for &r in &self.radius {
            body.f64(r);
        }
        write_approx_file(path, VPTREE_MAGIC, VPTREE_VERSION, D as u16, body.as_bytes())
    }

    /// Load a `.fzvp` file: read it and [`VpTree::decode`] the image.
    pub fn load<M: Metric<D> + ?Sized>(
        path: impl AsRef<Path>,
        metric: &M,
    ) -> Result<Self, StoreError> {
        Self::decode(&std::fs::read(path)?, metric)
    }

    /// Decode a `.fzvp` image, verifying magic, version, dimensionality,
    /// the whole-file checksum, that it was built under `metric` (by
    /// name) and that the layout column is a permutation.
    pub fn decode<M: Metric<D> + ?Sized>(bytes: &[u8], metric: &M) -> Result<Self, StoreError> {
        let body = approx_body(bytes, VPTREE_MAGIC, VPTREE_VERSION, D as u16, "fzvp")?;
        let corrupt = |reason: &str| StoreError::Corrupt { reason: reason.to_string() };
        let mut d = Decoder::new(body);
        let base = decode_base::<D>(&mut d)?;
        if base.metric_name != metric.name() {
            return Err(StoreError::Corrupt {
                reason: format!(
                    "metric mismatch: index built under '{}', opened under '{}'",
                    base.metric_name,
                    metric.name()
                ),
            });
        }
        let n = base.ids.len();
        let leaf_size = d.u32()? as usize;
        if leaf_size == 0 {
            return Err(corrupt("fzvp leaf size must be positive"));
        }
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for _ in 0..n {
            let o = d.u32()?;
            if o as usize >= n || std::mem::replace(&mut seen[o as usize], true) {
                return Err(corrupt("fzvp layout is not a permutation"));
            }
            order.push(o);
        }
        let mut radius = Vec::with_capacity(n);
        for _ in 0..n {
            radius.push(d.f64()?);
        }
        d.finish()?;
        Ok(Self { base, leaf_size, order, radius })
    }

    /// Collect `(center distance, position)` for every visited entry of
    /// the ε-slack search, tracking τ_c in `topk` (sorted, ≤ k entries).
    #[allow(clippy::too_many_arguments)]
    fn visit<M: Metric<D> + ?Sized>(
        &self,
        metric: &M,
        q: &Point<D>,
        k: usize,
        eps: f64,
        lo: usize,
        hi: usize,
        topk: &mut Vec<f64>,
        visited: &mut Vec<(f64, u32)>,
    ) {
        let slack = |topk: &Vec<f64>| {
            if topk.len() < k {
                f64::INFINITY
            } else {
                topk[k - 1] * (1.0 + eps)
            }
        };
        let touch = |pos: u32, topk: &mut Vec<f64>, visited: &mut Vec<(f64, u32)>| {
            let d = metric.dist(q, &self.base.centers[pos as usize]);
            visited.push((d, pos));
            if topk.len() < k || d < topk[k - 1] {
                let at = topk.partition_point(|&t| t < d);
                topk.insert(at, d);
                topk.truncate(k);
            }
            d
        };
        if hi - lo <= self.leaf_size {
            for &pos in &self.order[lo..hi] {
                touch(pos, topk, visited);
            }
            return;
        }
        let d = touch(self.order[lo], topk, visited);
        let r = self.radius[lo];
        let mid = lo + 1 + (hi - lo - 1) / 2;
        // Inner holds distances ≤ r, outer ≥ r; visit the likelier side
        // first so τ_c tightens before the other side's bound check.
        let inner_lb = (d - r).max(0.0);
        let outer_lb = (r - d).max(0.0);
        if d <= r {
            if inner_lb <= slack(topk) {
                self.visit(metric, q, k, eps, lo + 1, mid, topk, visited);
            }
            if outer_lb <= slack(topk) {
                self.visit(metric, q, k, eps, mid, hi, topk, visited);
            }
        } else {
            if outer_lb <= slack(topk) {
                self.visit(metric, q, k, eps, mid, hi, topk, visited);
            }
            if inner_lb <= slack(topk) {
                self.visit(metric, q, k, eps, lo + 1, mid, topk, visited);
            }
        }
    }

    /// The indexed ball of `id`: expected center and a sound upper bound
    /// on the object's spread around it (`+∞` when the metric cannot
    /// bound boxes). `None` for ids the index does not hold.
    pub fn ball_of(&self, id: ObjectId) -> Option<(&Point<D>, f64)> {
        let pos = self.base.pos_of(id)?;
        Some((&self.base.centers[pos], self.base.spreads[pos]))
    }

    /// Build-time FoF neighbor list of `id` (empty when disabled).
    pub fn neighbors_of(&self, id: ObjectId) -> &[ObjectId] {
        self.base.pos_of(id).map(|p| self.base.fof[p].as_slice()).unwrap_or(&[])
    }

    /// Append the deterministic candidate pool for a query centered at
    /// `q_center` to `out`, deduplicated and in ascending id order. `k`
    /// sizes the center-kNN the slack is measured from; `dial` sets the
    /// reach.
    pub fn candidates<M: Metric<D> + ?Sized>(
        &self,
        metric: &M,
        q_center: &Point<D>,
        k: usize,
        dial: RecallDial,
        out: &mut Vec<ObjectId>,
    ) {
        let eps = match dial {
            RecallDial::Exact => {
                out.extend_from_slice(&self.base.ids);
                return;
            }
            RecallDial::Budget(v) => v,
        };
        if self.base.ids.is_empty() {
            return;
        }
        let k = k.max(1);
        let mut topk: Vec<f64> = Vec::with_capacity(k + 1);
        let mut visited: Vec<(f64, u32)> = Vec::new();
        self.visit(metric, q_center, k, eps, 0, self.order.len(), &mut topk, &mut visited);
        let cut = if topk.len() < k { f64::INFINITY } else { topk[k - 1] * (1.0 + eps) };
        let mut pool: Vec<u32> =
            visited.into_iter().filter(|&(d, _)| d <= cut).map(|(_, pos)| pos).collect();
        pool.sort_unstable();
        out.extend(pool.into_iter().map(|pos| self.base.ids[pos as usize]));
    }
}
