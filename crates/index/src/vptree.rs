//! Bulk-loaded vantage-point tree over per-object expected centers.
//!
//! The exact engines answer every query from first principles; at scale
//! the interesting trade is *recall for throughput*. The VP-tree is the
//! one candidate backend: a deterministic **candidate generator** over
//! per-object expected centers (the [`ObjectSummary::rep`] points the
//! store already persists), dialed by a [`RecallDial`]. Candidates are
//! *never* an answer by themselves — the query layer resolves the pool
//! through the exact probe loop, so returned distances are always exact
//! and only recall varies with the dial. A VP-tree needs nothing but the
//! [`Metric`] distance itself, so it rides the metric seam. It is built
//! in memory from the summaries, never stored.
//!
//! The tree is implicit: one permutation of the id-sorted center arrays
//! plus a parallel radius column, where the subtree of range `[lo, hi)`
//! has its vantage at `order[lo]`, the inner half (distance ≤ radius) at
//! `[lo+1, mid)` and the outer half (distance ≥ radius) at `[mid, hi)`
//! with `mid = lo + 1 + (hi - lo - 1) / 2` — no node structs, no child
//! pointers.
//!
//! Candidate generation is center-kNN with **ε-slack pruning**: the
//! search tracks τ_c, the k-th nearest center distance seen so far, and
//! discards a subtree only when its triangle-inequality bound exceeds
//! `τ_c · (1 + ε)` by more than rounding can explain; every visited
//! center within that slack of the final τ_c joins the pool. `ε` is the
//! [`RecallDial`]: 0 keeps the pool tight around the center-nearest
//! objects, larger values sweep in near misses whose α-distance may beat
//! their center rank, and `Exact` bypasses the tree entirely.
//!
//! The tree also carries **friend-of-a-friend** neighbor lists (the FoF
//! principle: a near neighbor's near neighbors are likely near), which
//! the query layer expands for one refinement round after the initial
//! pool is resolved. They come from the same search: at ε = 0 it visits
//! every center at or within the exact k-th distance, so each center's
//! [`FOF_NEIGHBORS`] nearest others, ties broken by id, are selected
//! from its visited set exactly as an all-pairs scan would select them.

use fuzzy_core::metric::Metric;
use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::{Mbr, Point};

/// Ranges at or below this size stay unsplit (scanned linearly).
const LEAF_SIZE: usize = 8;

/// FoF neighbors recorded per object (fewer when the tree holds fewer
/// other objects).
pub const FOF_NEIGHBORS: usize = 8;

/// The fewest centers a FoF thread is given: at a few µs a search, enough
/// work to repay a thread's spawn many times over.
const FOF_RUN_MIN: usize = 512;

/// Relative rounding a bound test allows for: a subtree is pruned only
/// when its bound clears the slack by more than this share of the two
/// distances the bound subtracts. The bound `|d − r|` cancels, so its
/// error scales with `d + r`, not with the bound itself; a few ulps of
/// each distance (the L2 distance rounds at most a few ulps in low
/// dimensions) stay well inside this allowance.
const ROUNDING: f64 = 64.0 * f64::EPSILON;

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

/// A deterministic bulk-loaded VP-tree over expected centers.
pub struct VpTree<const D: usize> {
    /// Ascending; parallel to `centers`, `spreads` and the rows of `fof`.
    ids: Vec<ObjectId>,
    centers: Vec<Point<D>>,
    spreads: Vec<f64>,
    /// Row `p`, [`Self::fof_width`] ids wide: the FoF list of position
    /// `p`, nearest first, ties by id.
    fof: Vec<ObjectId>,
    /// Permutation of positions in VP layout.
    order: Vec<u32>,
    /// Parallel to `order`: split radius at internal roots, 0 elsewhere.
    radius: Vec<f64>,
}

impl<const D: usize> VpTree<D> {
    /// Bulk-build from summaries under `metric`: the vantage layout, then
    /// every center's FoF list through the tree's own search.
    /// Deterministic: the vantage of every range is its lowest position,
    /// and the distance partition sorts with position tie-breaks.
    pub fn build<M: Metric<D> + ?Sized>(metric: &M, summaries: &[ObjectSummary<D>]) -> Self {
        let mut sorted: Vec<&ObjectSummary<D>> = summaries.iter().collect();
        sorted.sort_by_key(|s| s.id);
        let ids: Vec<ObjectId> = sorted.iter().map(|s| s.id).collect();
        let centers: Vec<Point<D>> = sorted.iter().map(|s| s.rep).collect();
        let spreads: Vec<f64> = sorted
            .iter()
            .map(|s| {
                let rep_box = Mbr::new(*s.rep.coords(), *s.rep.coords());
                metric.max_box_dist_sq(&rep_box, &s.support_mbr).sqrt()
            })
            .collect();
        let n = ids.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut radius = vec![0.0_f64; n];
        // Explicit stack of ranges to split; recursion depth is data-
        // dependent and this keeps it off the call stack.
        let mut ranges = vec![(0_usize, n)];
        let mut dists: Vec<(f64, u32)> = Vec::with_capacity(n);
        while let Some((lo, hi)) = ranges.pop() {
            if hi - lo <= LEAF_SIZE {
                continue;
            }
            // Deterministic vantage: the smallest position in range.
            let vp_idx = (lo..hi).min_by_key(|&i| order[i]).expect("range is non-empty");
            order.swap(lo, vp_idx);
            let vantage = centers[order[lo] as usize];
            dists.clear();
            dists.extend(
                order[lo + 1..hi]
                    .iter()
                    .map(|&pos| (metric.dist(&vantage, &centers[pos as usize]), pos)),
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
        let mut tree = Self { ids, centers, spreads, fof: Vec::new(), order, radius };
        tree.fof = tree.fof_lists(metric);
        tree
    }

    /// Every position's FoF row: the `FOF_NEIGHBORS + 1` nearest centers
    /// by an ε = 0 search from its own center, self dropped, the rest
    /// ranked by (distance, id). The search keeps every center within the
    /// exact k-th distance (see [`ROUNDING`]), so the rows equal an
    /// all-pairs scan's. The searches are independent: the centers are
    /// split into one contiguous run per available thread (none shorter
    /// than [`FOF_RUN_MIN`] but the last), each run's rows built on a scoped
    /// thread, and the runs concatenated in center order, so the rows do
    /// not depend on the thread count.
    fn fof_lists<M: Metric<D> + ?Sized>(&self, metric: &M) -> Vec<ObjectId> {
        let n = self.centers.len();
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let run = n.div_ceil(threads).max(FOF_RUN_MIN);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..n)
                .step_by(run)
                .map(|lo| scope.spawn(move || self.fof_rows(metric, lo..n.min(lo + run))))
                .collect();
            let mut fof = Vec::with_capacity(n * self.fof_width());
            for w in workers {
                fof.extend(w.join().expect("a FoF thread panicked"));
            }
            fof
        })
    }

    /// The FoF rows of the positions in `range`, in position order.
    fn fof_rows<M: Metric<D> + ?Sized>(
        &self,
        metric: &M,
        range: std::ops::Range<usize>,
    ) -> Vec<ObjectId> {
        let width = self.fof_width();
        let mut fof = Vec::with_capacity(range.len() * width);
        let mut within: Vec<(f64, u32)> = Vec::new();
        let mut near: Vec<(f64, ObjectId)> = Vec::new();
        for pos in range {
            self.search(metric, &self.centers[pos], FOF_NEIGHBORS + 1, 0.0, &mut within);
            near.clear();
            near.extend(
                within
                    .iter()
                    .filter(|&&(_, p)| p as usize != pos)
                    .map(|&(d, p)| (d, self.ids[p as usize])),
            );
            near.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            fof.extend(near[..width].iter().map(|&(_, id)| id));
        }
        fof
    }

    /// Length of every FoF row.
    fn fof_width(&self) -> usize {
        FOF_NEIGHBORS.min(self.ids.len().saturating_sub(1))
    }

    /// The ε-slack search from `q`: every visited `(center distance,
    /// position)` within the final `τ_c · (1 + ε)` — all of them while
    /// fewer than `k` were visited — into `out`, in visit order.
    fn search<M: Metric<D> + ?Sized>(
        &self,
        metric: &M,
        q: &Point<D>,
        k: usize,
        eps: f64,
        out: &mut Vec<(f64, u32)>,
    ) {
        let mut topk: Vec<f64> = Vec::with_capacity(k + 1);
        out.clear();
        self.visit(metric, q, k, eps, 0, self.order.len(), &mut topk, out);
        let cut = if topk.len() < k { f64::INFINITY } else { topk[k - 1] * (1.0 + eps) };
        out.retain(|&(d, _)| d <= cut);
    }

    /// Collect `(center distance, position)` for every visited entry of
    /// the range `[lo, hi)`, tracking τ_c in `topk` (sorted, ≤ k entries).
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
        let touch = |pos: u32, topk: &mut Vec<f64>, visited: &mut Vec<(f64, u32)>| {
            let d = metric.dist(q, &self.centers[pos as usize]);
            visited.push((d, pos));
            if topk.len() < k || d < topk[k - 1] {
                let at = topk.partition_point(|&t| t < d);
                topk.insert(at, d);
                topk.truncate(k);
            }
            d
        };
        if hi - lo <= LEAF_SIZE {
            for &pos in &self.order[lo..hi] {
                touch(pos, topk, visited);
            }
            return;
        }
        let d = touch(self.order[lo], topk, visited);
        let r = self.radius[lo];
        let mid = lo + 1 + (hi - lo - 1) / 2;
        // A side is visited unless its bound clears the slack by more
        // than the rounding of `d` and `r` can explain.
        let tolerance = ROUNDING * (d + r);
        let reaches = |lb: f64, topk: &Vec<f64>| {
            topk.len() < k || lb - tolerance <= topk[k - 1] * (1.0 + eps)
        };
        // Inner holds distances ≤ r, outer ≥ r; visit the likelier side
        // first so τ_c tightens before the other side's bound check.
        let inner_lb = (d - r).max(0.0);
        let outer_lb = (r - d).max(0.0);
        if d <= r {
            if reaches(inner_lb, topk) {
                self.visit(metric, q, k, eps, lo + 1, mid, topk, visited);
            }
            if reaches(outer_lb, topk) {
                self.visit(metric, q, k, eps, mid, hi, topk, visited);
            }
        } else {
            if reaches(outer_lb, topk) {
                self.visit(metric, q, k, eps, mid, hi, topk, visited);
            }
            if reaches(inner_lb, topk) {
                self.visit(metric, q, k, eps, lo + 1, mid, topk, visited);
            }
        }
    }

    /// Position of `id` in the id-sorted arrays.
    fn pos_of(&self, id: ObjectId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The indexed ball of `id`: expected center and a sound upper bound
    /// on the object's spread around it (`+∞` when the metric cannot
    /// bound boxes). `None` for ids the index does not hold.
    pub fn ball_of(&self, id: ObjectId) -> Option<(&Point<D>, f64)> {
        let pos = self.pos_of(id)?;
        Some((&self.centers[pos], self.spreads[pos]))
    }

    /// FoF neighbor list of `id`: its [`FOF_NEIGHBORS`] nearest other
    /// centers, nearest first, ties by id (empty for ids the index does
    /// not hold).
    pub fn neighbors_of(&self, id: ObjectId) -> &[ObjectId] {
        let width = self.fof_width();
        self.pos_of(id).map(|p| &self.fof[p * width..(p + 1) * width]).unwrap_or(&[])
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
                out.extend_from_slice(&self.ids);
                return;
            }
            RecallDial::Budget(v) => v,
        };
        let mut within: Vec<(f64, u32)> = Vec::new();
        self.search(metric, q_center, k.max(1), eps, &mut within);
        let mut pool: Vec<u32> = within.into_iter().map(|(_, pos)| pos).collect();
        pool.sort_unstable();
        out.extend(pool.into_iter().map(|pos| self.ids[pos as usize]));
    }
}
