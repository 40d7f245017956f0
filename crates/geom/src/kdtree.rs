//! An implicit, bulk-loaded kd-tree over weighted points.
//!
//! Every point carries a *membership* weight `µ ∈ (0, 1]` and every node is
//! annotated with the maximum membership of its subtree, so spatial queries
//! can be filtered by a membership level: a query at level α simply skips
//! subtrees whose `max_µ` fails the filter. This turns the kd-tree into an
//! index over *all α-cuts at once* — the crucial property exploited by the
//! α-distance evaluators, because the fraction of an object participating in
//! a query is unknown until the query arrives (Section 1 of the paper).
//!
//! **Implicit layout.** There is no node arena and there are no child ids:
//! the tree is the median order itself. A subtree *is* a subrange
//! `[start, end)` of the flat point storage — recursion always splits at
//! `mid = start + (end − start) / 2`, so child ranges are derived, not
//! stored. Node annotations (subtree max-µ and exact bounding boxes) live in
//! flat arrays addressed by the breadth-first heap rule `root = 0`,
//! `children(i) = 2i+1, 2i+2`. Compared to the previous arena tree this
//! removes a pointer chase and a cache line per visited node, and the whole
//! structure is three flat slices — trivially relocatable.
//!
//! **Columnar storage.** Coordinates are stored as dim-major columns
//! (`cols[d·len + j]` is coordinate `d` of slot `j`), so leaf scans run the
//! unrolled min-reduction kernel of [`crate::kernel`] over contiguous
//! per-dimension lanes instead of gathering row-major points.
//!
//! **Leaf prefix invariant.** Within every leaf range the points are stored
//! in membership-descending order (ties by original index), so the subset
//! passing any [`LevelFilter`] is a *contiguous prefix* of the leaf. Leaf
//! scans stop at the first rejected membership instead of testing every
//! point.
//!
//! **Two search forms, one descent.** [`KdTree::min_dist_sq_within`] is
//! the distance-only form: the smallest squared distance strictly below a
//! cap, or `None`. It is what the α-distance kernel and the profile sweep
//! chain — both minimise over pairs and never read which point won — so it
//! pays for nothing an index would need: a subtree *at* the best distance
//! is pruned (it cannot lower a minimum), a child's box is tested before
//! the call into it, and a leaf is one lane min-reduction.
//! [`KdTree::nn_sq_within`] / [`KdTree::nn_filtered`] are the indexed form,
//! for callers that name the neighbour (tests, the reference comparisons,
//! tooling): the same descent, then a witness pass over the leaves whose
//! box is not farther than the answer, which picks the smallest original
//! index at exactly that distance.
//!
//! **Canonical answers.** All queries break distance ties by the smallest
//! original index, so results are a pure function of the input point set —
//! independent of tree shape, traversal order, and kernel lane count. The
//! retained reference tree ([`crate::reference::ArenaKdTree`]) implements
//! the same contract; the differential suite in `crates/geom/tests` holds
//! both forms to bit-identical `(distance², index)` answers against it and
//! a brute oracle.

#![allow(clippy::needless_range_loop)] // per-dimension index loops read clearer

use crate::kernel;
use crate::mbr::Mbr;
use crate::point::Point;

/// A membership-level filter: selects points with `µ ≥ min` (inclusive) or
/// `µ > min` (strict).
///
/// The strict form implements the paper's `α* + ε` stepping exactly: the cut
/// "just above" a critical value `v` is `{a : µ(a) > v}`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelFilter {
    /// Threshold value in `[0, 1]`.
    pub min: f64,
    /// When true, require `µ > min`; otherwise `µ ≥ min`.
    pub strict: bool,
}

impl LevelFilter {
    /// Inclusive filter `µ ≥ min` — a plain α-cut.
    #[inline]
    pub const fn at_least(min: f64) -> Self {
        Self { min, strict: false }
    }

    /// Strict filter `µ > min` — the cut immediately above `min`.
    #[inline]
    pub const fn above(min: f64) -> Self {
        Self { min, strict: true }
    }

    /// The no-op filter accepting every valid membership (`µ > 0`),
    /// selecting the support set.
    #[inline]
    pub const fn support() -> Self {
        Self { min: 0.0, strict: true }
    }

    /// Does membership `mu` pass the filter?
    #[inline]
    pub fn accepts(&self, mu: f64) -> bool {
        if self.strict {
            mu > self.min
        } else {
            mu >= self.min
        }
    }
}

/// Maximum number of points in an implicit leaf range. A multiple of the
/// kernel lane width so full leaves stream through the unrolled reduction
/// without a remainder pass.
const LEAF_SIZE: usize = 16;

/// An implicit node: a heap id (for the annotation arrays) plus the point
/// subrange it covers. Never stored — derived on the way down.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeRef {
    id: u32,
    start: u32,
    end: u32,
}

impl NodeRef {
    #[inline]
    fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// First slot of the covered range.
    #[inline]
    pub(crate) fn start(self) -> u32 {
        self.start
    }

    #[inline]
    pub(crate) fn is_leaf(self) -> bool {
        self.len() <= LEAF_SIZE
    }

    /// Child ranges under the fixed `mid = start + len/2` split rule.
    #[inline]
    pub(crate) fn children(self) -> (NodeRef, NodeRef) {
        debug_assert!(!self.is_leaf());
        let mid = self.start + (self.end - self.start) / 2;
        (
            NodeRef { id: 2 * self.id + 1, start: self.start, end: mid },
            NodeRef { id: 2 * self.id + 2, start: mid, end: self.end },
        )
    }
}

/// One point during construction; kept AoS so `select_nth_unstable_by`
/// permutes coordinates, membership and original index in lockstep.
#[derive(Clone, Copy)]
struct BuildItem<const D: usize> {
    pt: Point<D>,
    mu: f64,
    orig: u32,
}

/// Bulk-loaded, immutable implicit kd-tree over `(point, membership)` pairs.
///
/// Construction permutes the points internally; query results refer to the
/// *original* input indices. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct KdTree<const D: usize> {
    len: usize,
    /// Dim-major coordinate columns over the median order.
    cols: Box<[f64]>,
    /// Memberships in median order (descending within each leaf range).
    mus: Box<[f64]>,
    /// Original input index of each slot.
    orig: Box<[u32]>,
    /// Heap-indexed subtree max-membership annotations.
    max_mu: Box<[f64]>,
    /// Heap-indexed exact subtree bounds: `2·D` values per node, lows then
    /// highs. Unused heap slots keep an inverted sentinel and are never
    /// read.
    bounds: Box<[f64]>,
    /// Number of real (visited) nodes, for diagnostics.
    node_count: usize,
    root_mbr: Mbr<D>,
}

impl<const D: usize> KdTree<D> {
    /// Build a tree from parallel slices of points and memberships.
    ///
    /// # Panics
    /// When the slices differ in length or are empty.
    pub fn build(points: &[Point<D>], memberships: &[f64]) -> Self {
        assert_eq!(points.len(), memberships.len(), "points/memberships length mismatch");
        assert!(!points.is_empty(), "cannot build a kd-tree over no points");
        let n = points.len();
        let mut items: Vec<BuildItem<D>> = points
            .iter()
            .zip(memberships)
            .enumerate()
            .map(|(i, (&pt, &mu))| BuildItem { pt, mu, orig: i as u32 })
            .collect();

        // Computed before any permutation, so the expansion order (and with
        // it any NaN-coordinate quirk) matches a plain scan of the input.
        let root_mbr = Mbr::from_points(points.iter()).expect("non-empty input");
        let mut ann = Annotations { max_mu: Vec::new(), bounds: Vec::new(), nodes: 0 };
        build_range(&mut items, &mut ann, 0, 0, n);

        let mut cols = vec![0.0; D * n].into_boxed_slice();
        let mut mus = vec![0.0; n].into_boxed_slice();
        let mut orig = vec![0u32; n].into_boxed_slice();
        for (j, it) in items.iter().enumerate() {
            for d in 0..D {
                cols[d * n + j] = it.pt.coords()[d];
            }
            mus[j] = it.mu;
            orig[j] = it.orig;
        }
        Self {
            len: n,
            cols,
            mus,
            orig,
            max_mu: ann.max_mu.into_boxed_slice(),
            bounds: ann.bounds.into_boxed_slice(),
            node_count: ann.nodes,
            root_mbr,
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: construction rejects empty input.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding box of all points.
    #[inline]
    pub fn mbr(&self) -> &Mbr<D> {
        &self.root_mbr
    }

    /// Largest membership in the tree.
    #[inline]
    pub fn max_mu(&self) -> f64 {
        self.max_mu[0]
    }

    /// Number of implicit nodes the structure decomposes into (diagnostics).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Nearest neighbour of `q` among points passing `filter`; returns the
    /// original index and the distance, or `None` when no point passes.
    /// Distance ties are broken by the smallest original index.
    pub fn nn_filtered(&self, q: &Point<D>, filter: LevelFilter) -> Option<(usize, f64)> {
        self.nn_sq_within(q, filter, f64::INFINITY).map(|(i, d2)| (i, d2.sqrt()))
    }

    /// Seeded nearest-neighbour **distance** in squared space: the smallest
    /// squared distance from `q` to a point passing `filter`, provided it
    /// is *strictly below* `cap_sq`; `None` when no such point exists. With
    /// `cap_sq = ∞` this is the plain nearest distance. The seed lets
    /// chained searches (one per activated point in the α-distance
    /// evaluators) start each probe from the running best, so a search that
    /// cannot improve it ends at the root. This is the one descent of the
    /// tree (module docs): it carries no index.
    pub fn min_dist_sq_within(
        &self,
        q: &Point<D>,
        filter: LevelFilter,
        cap_sq: f64,
    ) -> Option<f64> {
        let root = self.root_ref();
        let mut best = cap_sq;
        if filter.accepts(self.max_mu[0]) && self.box_dist_sq(root, q) < best {
            self.descend(root, q, filter, &mut best);
        }
        (best < cap_sq).then_some(best)
    }

    /// [`KdTree::min_dist_sq_within`] with its witness: the original index
    /// and squared distance of the closest point passing `filter` that lies
    /// *strictly closer* than `cap_sq`. Distance ties are broken by the
    /// smallest original index, found by a second pass over the leaves whose
    /// box is not farther than the answer — the points within the answer of
    /// `q` are exactly the ones at it.
    pub fn nn_sq_within(
        &self,
        q: &Point<D>,
        filter: LevelFilter,
        cap_sq: f64,
    ) -> Option<(usize, f64)> {
        let d2 = self.min_dist_sq_within(q, filter, cap_sq)?;
        let mut witness = u32::MAX;
        self.for_each_within_sq(q, d2, filter, |slot| witness = witness.min(self.orig[slot]));
        debug_assert_ne!(witness, u32::MAX, "the minimum comes from a row");
        Some((witness as usize, d2))
    }

    /// The descent below `node`, whose filter and box tests the caller has
    /// passed: `best_sq` falls to the smallest squared distance below it.
    /// A child is tested before it is entered and pruned at `>=` — an
    /// equal-distance subtree cannot lower a minimum — nearer child first;
    /// a leaf is one lane min-reduction over its accepted prefix (`+∞` when
    /// that is empty or all NaN, which never wins).
    fn descend(&self, node: NodeRef, q: &Point<D>, filter: LevelFilter, best_sq: &mut f64) {
        if node.is_leaf() {
            let p = self.leaf_prefix_len(node, filter);
            let m = kernel::min_dist_sq_cols(&self.col_slices(node.start as usize, p), q.coords());
            if m < *best_sq {
                *best_sq = m;
            }
            return;
        }
        let (left, right) = node.children();
        let dl = self.box_dist_sq(left, q);
        let dr = self.box_dist_sq(right, q);
        let order = if dl <= dr { [(left, dl), (right, dr)] } else { [(right, dr), (left, dl)] };
        for (child, d2) in order {
            if d2 < *best_sq && filter.accepts(self.max_mu[child.id as usize]) {
                self.descend(child, q, filter, best_sq);
            }
        }
    }

    /// Collect the original indices of all points passing `filter` that lie
    /// within `radius` of `q`, in ascending original-index order.
    pub fn within_radius_filtered(
        &self,
        q: &Point<D>,
        radius: f64,
        filter: LevelFilter,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within_sq(q, radius * radius, filter, |slot| {
            out.push(self.orig[slot] as usize)
        });
        // Canonical order: tree shape must not leak into the answer.
        out.sort_unstable();
        out
    }

    /// Visit the slot of every point passing `filter` at squared distance
    /// `≤ r2` from `q` (NaN distances never qualify), in tree order.
    fn for_each_within_sq(
        &self,
        q: &Point<D>,
        r2: f64,
        filter: LevelFilter,
        mut visit: impl FnMut(usize),
    ) {
        let mut stack = vec![self.root_ref()];
        while let Some(node) = stack.pop() {
            if !filter.accepts(self.max_mu[node.id as usize]) {
                continue;
            }
            if self.box_dist_sq(node, q) > r2 {
                continue;
            }
            if node.is_leaf() {
                let p = self.leaf_prefix_len(node, filter);
                for j in node.start as usize..node.start as usize + p {
                    if self.row_dist_sq(q, j) <= r2 {
                        visit(j);
                    }
                }
            } else {
                let (left, right) = node.children();
                stack.push(left);
                stack.push(right);
            }
        }
    }

    // ----- internals shared with the closest-pair module -----

    #[inline]
    pub(crate) fn root_ref(&self) -> NodeRef {
        NodeRef { id: 0, start: 0, end: self.len as u32 }
    }

    #[inline]
    pub(crate) fn node_max_mu(&self, node: NodeRef) -> f64 {
        self.max_mu[node.id as usize]
    }

    /// Squared point-to-node-box distance, matching
    /// [`Point::dist_sq_to_box`] bit for bit.
    #[inline]
    pub(crate) fn box_dist_sq(&self, node: NodeRef, q: &Point<D>) -> f64 {
        let b = node.id as usize * 2 * D;
        let (lo, hi) = (&self.bounds[b..b + D], &self.bounds[b + D..b + 2 * D]);
        let mut acc = 0.0;
        for i in 0..D {
            let c = q.coords()[i];
            let d = if c < lo[i] {
                lo[i] - c
            } else if c > hi[i] {
                c - hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Squared node-box-to-node-box gap across two trees, matching
    /// [`Mbr::min_dist_sq`] bit for bit.
    #[inline]
    pub(crate) fn box_gap_sq(&self, node: NodeRef, other: &Self, onode: NodeRef) -> f64 {
        let a = node.id as usize * 2 * D;
        let b = onode.id as usize * 2 * D;
        let (alo, ahi) = (&self.bounds[a..a + D], &self.bounds[a + D..a + 2 * D]);
        let (blo, bhi) = (&other.bounds[b..b + D], &other.bounds[b + D..b + 2 * D]);
        let mut acc = 0.0;
        for i in 0..D {
            let l = if alo[i] > bhi[i] {
                alo[i] - bhi[i]
            } else if blo[i] > ahi[i] {
                blo[i] - ahi[i]
            } else {
                0.0
            };
            acc += l * l;
        }
        acc
    }

    /// Length of the membership-accepted prefix of a leaf range (the leaf
    /// prefix invariant: memberships descend, so the first rejection ends
    /// the accepted set).
    #[inline]
    pub(crate) fn leaf_prefix_len(&self, node: NodeRef, filter: LevelFilter) -> usize {
        let mus = &self.mus[node.start as usize..node.end as usize];
        mus.iter().take_while(|&&mu| filter.accepts(mu)).count()
    }

    /// Dim-major column views over the slot range `[start, start + n)`.
    #[inline]
    pub(crate) fn col_slices(&self, start: usize, n: usize) -> [&[f64]; D] {
        std::array::from_fn(|d| &self.cols[d * self.len + start..d * self.len + start + n])
    }

    /// Point, membership and original index stored at `slot`.
    #[inline]
    pub(crate) fn point_at(&self, slot: usize) -> (Point<D>, f64, u32) {
        let mut c = [0.0; D];
        for d in 0..D {
            c[d] = self.cols[d * self.len + slot];
        }
        (Point::new(c), self.mus[slot], self.orig[slot])
    }

    /// Original input index of the point stored at `slot`.
    #[inline]
    pub(crate) fn orig_at(&self, slot: usize) -> u32 {
        self.orig[slot]
    }

    /// Squared distance from `q` to the point at `slot`, with the same
    /// arithmetic (dimension order, one accumulator) as the kernels and
    /// [`Point::dist_sq`].
    #[inline]
    pub(crate) fn row_dist_sq(&self, q: &Point<D>, slot: usize) -> f64 {
        let mut s = 0.0;
        for d in 0..D {
            let diff = self.cols[d * self.len + slot] - q.coords()[d];
            s += diff * diff;
        }
        s
    }
}

/// Growable heap-indexed annotation storage used during construction.
struct Annotations {
    max_mu: Vec<f64>,
    /// `2·D` values per heap slot: lows then highs.
    bounds: Vec<f64>,
    nodes: usize,
}

impl Annotations {
    fn ensure<const D: usize>(&mut self, id: usize) {
        let need = (id + 1) * 2 * D;
        if self.bounds.len() < need {
            self.bounds.resize(need, 0.0);
            self.max_mu.resize(id + 1, f64::NEG_INFINITY);
        }
    }
}

/// Recursive construction over `items[start..end)` for heap node `id`:
/// records the subtree annotations, establishes the leaf prefix invariant
/// at the leaves, and median-partitions internal ranges in place.
fn build_range<const D: usize>(
    items: &mut [BuildItem<D>],
    ann: &mut Annotations,
    id: usize,
    start: usize,
    end: usize,
) {
    ann.ensure::<D>(id);
    ann.nodes += 1;
    let range = &items[start..end];
    let mbr = Mbr::from_points(range.iter().map(|it| &it.pt)).expect("non-empty range");
    let max_mu = range.iter().map(|it| it.mu).fold(f64::NEG_INFINITY, f64::max);
    {
        let b = id * 2 * D;
        ann.bounds[b..b + D].copy_from_slice(mbr.lo_coords());
        ann.bounds[b + D..b + 2 * D].copy_from_slice(mbr.hi_coords());
        ann.max_mu[id] = max_mu;
    }
    if end - start <= LEAF_SIZE {
        // Leaf prefix invariant: membership descending, ties by original
        // index for determinism.
        items[start..end].sort_by(|a, b| b.mu.total_cmp(&a.mu).then(a.orig.cmp(&b.orig)));
        return;
    }
    // Split on the widest dimension at the median; the split position is
    // implied by the range, never stored.
    let mut dim = 0;
    let mut widest = -1.0;
    for i in 0..D {
        let e = mbr.extent(i);
        if e > widest {
            widest = e;
            dim = i;
        }
    }
    let mid = start + (end - start) / 2;
    items[start..end].select_nth_unstable_by(mid - start, |a, b| a.pt[dim].total_cmp(&b.pt[dim]));
    build_range(items, ann, 2 * id + 1, start, mid);
    build_range(items, ann, 2 * id + 2, mid, end);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_tree() -> (Vec<Point<2>>, Vec<f64>, KdTree<2>) {
        // 10x10 grid; membership grows with x+y, normalized to (0,1].
        let mut pts = Vec::new();
        let mut mus = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::xy(i as f64, j as f64));
                mus.push(((i + j) as f64 + 1.0) / 19.0);
            }
        }
        let tree = KdTree::build(&pts, &mus);
        (pts, mus, tree)
    }

    fn brute_nn(
        pts: &[Point<2>],
        mus: &[f64],
        q: &Point<2>,
        f: LevelFilter,
    ) -> Option<(usize, f64)> {
        pts.iter()
            .zip(mus)
            .enumerate()
            .filter(|(_, (_, &mu))| f.accepts(mu))
            .map(|(i, (p, _))| (i, p.dist(q)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    #[test]
    fn filter_semantics() {
        let f = LevelFilter::at_least(0.5);
        assert!(f.accepts(0.5));
        assert!(f.accepts(0.7));
        assert!(!f.accepts(0.49));
        let s = LevelFilter::above(0.5);
        assert!(!s.accepts(0.5));
        assert!(s.accepts(0.5000001));
        assert!(LevelFilter::support().accepts(1e-12));
        assert!(!LevelFilter::support().accepts(0.0));
    }

    #[test]
    fn nn_matches_brute_force_across_filters() {
        let (pts, mus, tree) = grid_tree();
        let queries =
            [Point::xy(4.5, 4.5), Point::xy(-3.0, 2.0), Point::xy(20.0, 20.0), Point::xy(0.0, 9.0)];
        for &q in &queries {
            for lvl in [0.0, 0.3, 0.5, 0.9, 1.0] {
                for strict in [false, true] {
                    let f = LevelFilter { min: lvl, strict };
                    let got = tree.nn_filtered(&q, f);
                    let want = brute_nn(&pts, &mus, &q, f);
                    match (got, want) {
                        (None, None) => {}
                        (Some((ig, dg)), Some((iw, dw))) => {
                            assert_eq!(ig, iw, "q={q:?} lvl={lvl} strict={strict}");
                            assert!(
                                (dg - dw).abs() < 1e-12,
                                "q={q:?} lvl={lvl} strict={strict}: {dg} vs {dw}"
                            );
                        }
                        other => panic!("mismatch at q={q:?} lvl={lvl}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn nn_ties_resolve_to_smallest_original_index() {
        // Four copies of the same point: the canonical winner is index 0,
        // whatever the leaf order or lane assignment.
        let pts = vec![Point::xy(1.0, 1.0); 4];
        let mus = vec![0.5, 1.0, 0.7, 0.9];
        let tree = KdTree::build(&pts, &mus);
        let (i, d) = tree.nn_filtered(&Point::xy(0.0, 0.0), LevelFilter::support()).unwrap();
        assert_eq!(i, 0);
        assert!((d - 2.0f64.sqrt()).abs() < 1e-12);
        // Filtering out index 0 moves the canonical winner to index 1.
        let (i, _) = tree.nn_filtered(&Point::xy(0.0, 0.0), LevelFilter::at_least(0.9)).unwrap();
        assert_eq!(i, 1);
    }

    #[test]
    fn filter_excluding_everything_returns_none() {
        let (_, _, tree) = grid_tree();
        assert!(tree.nn_filtered(&Point::xy(0.0, 0.0), LevelFilter::above(1.0)).is_none());
    }

    #[test]
    fn within_radius_matches_brute_force() {
        let (pts, mus, tree) = grid_tree();
        let q = Point::xy(5.0, 5.0);
        let f = LevelFilter::at_least(0.4);
        let got = tree.within_radius_filtered(&q, 2.5, f);
        let mut want: Vec<usize> = pts
            .iter()
            .zip(&mus)
            .enumerate()
            .filter(|(_, (p, &mu))| f.accepts(mu) && p.dist(&q) <= 2.5)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        // Already sorted: the output order is canonical.
        assert_eq!(got, want);
    }

    #[test]
    fn singleton_tree() {
        let tree = KdTree::build(&[Point::xy(1.0, 2.0)], &[0.8]);
        assert_eq!(tree.len(), 1);
        let (i, d) = tree.nn_filtered(&Point::xy(1.0, 3.0), LevelFilter::at_least(0.5)).unwrap();
        assert_eq!(i, 0);
        assert!((d - 1.0).abs() < 1e-12);
        assert!(tree.nn_filtered(&Point::xy(0.0, 0.0), LevelFilter::at_least(0.9)).is_none());
    }

    #[test]
    fn max_mu_annotation_is_root_max() {
        let (_, mus, tree) = grid_tree();
        let want = mus.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(tree.max_mu(), want);
        assert!(tree.node_count() >= 1);
    }

    #[test]
    fn strictly_closer_cap_semantics_survive_ties() {
        // A point exactly at the cap distance must not be returned, even
        // though equal distances are otherwise tie-broken by index.
        let pts = vec![Point::xy(3.0, 4.0), Point::xy(6.0, 8.0)];
        let mus = vec![1.0, 1.0];
        let tree = KdTree::build(&pts, &mus);
        let q = Point::origin();
        assert!(tree.nn_sq_within(&q, LevelFilter::support(), 25.0).is_none());
        let (i, d2) = tree.nn_sq_within(&q, LevelFilter::support(), 25.0 + 1e-9).unwrap();
        assert_eq!((i, d2), (0, 25.0));
    }

    #[test]
    #[should_panic(expected = "cannot build")]
    fn empty_build_panics() {
        let _ = KdTree::<2>::build(&[], &[]);
    }
}
