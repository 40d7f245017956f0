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
//! **Two searches.** [`KdTree::min_dist_sq_within`] is the tree's main
//! query: the smallest squared distance from a point to a point passing a
//! [`LevelFilter`], strictly below a cap, or `None`. The α-distance kernel
//! and the profile sweep chain it — both minimise over pairs and never read
//! which point won — so the tree keeps no index of its points and the
//! search pays for nothing an index would need: a subtree *at* the best
//! distance is pruned (it cannot lower a minimum), a child's box is tested
//! before the call into it, and a leaf is one lane min-reduction.
//! [`KdTree::any_within_box_sq`] is the other: does any point passing a
//! filter lie strictly within a cap of a *box*? The AKNN probe gate asks it
//! of an entry's support MBR before reading the entry. It prunes a subtree
//! on the squared gap between its box and the query box and on `max_µ`,
//! scans leaf prefixes point by point, and stops at the first point under
//! the cap. A point's gap is [`Point::dist_sq_to_box`]'s, and a node's gap
//! is never above the gap of any point inside it (per dimension the
//! subtraction is against a node bound no nearer the box, and correctly
//! rounded subtraction is monotone), so a pruned subtree holds no point the
//! scan would have accepted: the answer is the brute scan's, bit for bit.
//!
//! **The O(1) no.** Chained searches mostly fail: once the running best is
//! below the tree's own point spacing, nearly every further search pays a
//! root-to-leaf descent to learn that nothing lies within the cap. So the
//! tree carries one more flat annotation beside `max_µ` and the boxes: an
//! *occupancy bitmap* over a uniform grid on the root box — `w` cells a
//! side, `w` the smallest integer with `w^D ≥ 128·n` (at most 2 048), one
//! bit per cell, set when any point falls in it — filled at build from the
//! coordinate columns. [`KdTree::min_dist_sq_within`] consults it after its
//! root tests: for a cap `cap_sq ≤ (m·c_min·(1 − 1e-9))²`, `m ∈ {1, 2, 3}`
//! (`c_d = extent_d / w` the cell side, `c_min` the smallest over the
//! dimensions that are gridded at all — extent positive and finite, the
//! three thresholds normal numbers), it reads the `(2m + 1)^D` cells around
//! the query point's cell, and if all are clear it answers `None` without
//! descending. A larger, infinite or NaN cap, or a box no dimension of
//! which can be gridded, descends as ever. *Why it is exact:* the cell index
//! `⌊(x − lo)·(1/c)⌋`, clamped to `[0, w]`, is monotone in `x` and is the
//! same expression at build and at query. A point `s` with
//! `‖s − p‖² < cap_sq` has `|s_d − p_d| < m·c_d·(1 − 1e-9)` in every
//! dimension, so its scaled coordinate is within `m` of `p`'s and its index
//! within `m` of `p`'s cell (the `1e-9` absorbs every rounding on the way:
//! the squared distance's, and a few ulps of a scaled coordinate that is
//! at most `w + 3` when such an `s` exists — some 10⁻¹² of a cell); clamping moves
//! no two indices further apart; hence `s` marks a cell of the block, and a
//! clear block proves the descent would have returned `None` under the
//! strict-`<` contract. In a dimension that is not gridded every
//! coordinate, NaN included, has cell 0, which loses rejections there and
//! nothing else. The bitmap is over *all* points whatever their membership:
//! under a restrictive [`LevelFilter`] it says "maybe" more often than it
//! must, never "no" wrongly (a NaN-coordinate point marks some cell and can
//! never be a minimum anyway). It costs `(w + 1)^(D−1) · ⌈(w + 1)/64⌉ · 8`
//! bytes — each run of the last dimension padded to a word: at 1 000
//! points 17 B a point in two dimensions (`w = 358`; the dimensionality
//! every shipped caller uses) and 22 B in three (`w = 51`), beside the
//! ≈ 30 B the tree already holds; it is not sized for more dimensions,
//! where the padded runs multiply (2 MB at `D = 8`). That matters only for
//! objects whose trees stay resident. Filling it is about 15 % of the build.
//!
//! **Build.** The median selections move 8-byte keys (in two dimensions):
//! a point's coordinates quantized to 16 bits over the root box, and its
//! source index. Each internal range is split on the widest side of its
//! quantized cell, each leaf sorted by (µ descending, source index) as
//! integers and written to the final columns, and every box and `max_µ`
//! computed bottom-up from those columns. *Why no answer moves:* nothing
//! is pruned on a split value, only on a node's box and `max_µ`, and both
//! are exact over the points the node holds whichever points those are —
//! so quantization can change the shape, never an answer (next
//! paragraph). A dimension where some point of a node is NaN gets a NaN
//! bound, which fails every comparison and so never prunes; unions keep it.
//!
//! **Canonical answers.** A search answers with a distance, never a point,
//! and the minimum of a set of squared distances is one bit pattern in
//! whatever order they are met (the selection argument of
//! [`crate::kernel`]). Answers are therefore a pure function of the input
//! point set — independent of tree shape, traversal order, and kernel lane
//! count. The differential suite in `crates/geom/tests` holds the search to
//! bit-identical distances against an arena-based reference tree (kept
//! there, not here) and a brute oracle.

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

/// Grid cells per point of the occupancy bitmap (module docs, "The O(1)
/// no"): 17 B a point in 2-d. Swept 32 to 1 024 on 1 000-point objects
/// (CHANGES.md, PR 23): a finer grid answers more searches until the
/// bitmap crowds the tree out of the cache; throughput peaks at 256, and
/// 128 is within 3 % of the peak at half its bytes.
const CELLS_PER_POINT: usize = 128;

/// Widest block the occupancy bitmap tests, in cells either side of the
/// query point's cell: `(2·3 + 1)^D` cells at most. Swept 1 to 4 on
/// `aknn-heavy` `qps`, four runs each, the groups disjoint (CHANGES.md,
/// PR 23): reach 1 is 4 % and reach 2 is 1.6 % below reach 3 — caps
/// between one and three cells are a real share of the chain — and 4 adds
/// nothing: the wider the block, the likelier a point sits in it.
const MAX_REACH: usize = 3;

/// An implicit node: a heap id (for the annotation arrays) plus the point
/// subrange it covers. Never stored — derived on the way down.
#[derive(Clone, Copy, Debug)]
struct NodeRef {
    id: u32,
    start: u32,
    end: u32,
}

impl NodeRef {
    #[inline]
    fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    #[inline]
    fn is_leaf(self) -> bool {
        self.len() <= LEAF_SIZE
    }

    /// Child ranges under the fixed `mid = start + len/2` split rule.
    #[inline]
    fn children(self) -> (NodeRef, NodeRef) {
        debug_assert!(!self.is_leaf());
        let mid = self.start + (self.end - self.start) / 2;
        (
            NodeRef { id: 2 * self.id + 1, start: self.start, end: mid },
            NodeRef { id: 2 * self.id + 2, start: mid, end: self.end },
        )
    }
}

/// Bulk-loaded, immutable implicit kd-tree over `(point, membership)` pairs.
///
/// Construction permutes the points internally; a search answers with a
/// distance only, so the permutation never shows. See the module docs for
/// the layout.
#[derive(Clone, Debug)]
pub struct KdTree<const D: usize> {
    len: usize,
    /// Dim-major coordinate columns over the median order.
    cols: Box<[f64]>,
    /// Memberships in median order (descending within each leaf range).
    mus: Box<[f64]>,
    /// Heap-indexed subtree max-membership annotations.
    max_mu: Box<[f64]>,
    /// Heap-indexed exact subtree bounds: `2·D` values per node, lows then
    /// highs. Unused heap slots are never read.
    bounds: Box<[f64]>,
    root_mbr: Mbr<D>,
    /// Which cells of a uniform grid on the root box hold a point.
    occupancy: Occupancy<D>,
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
        // A plain scan of the input: any NaN-coordinate quirk is a scan's.
        let root_mbr = Mbr::from_points(points.iter()).expect("non-empty input");
        let (lo, step) =
            (root_mbr.lo_coords(), std::array::from_fn(|d| root_mbr.extent(d) / 65535.0));
        let scale = step.map(|s: f64| if s > 0.0 { 1.0 / s } else { 0.0 });
        // The saturating casts send NaN, and anything off the box, to an end.
        let key = |(i, p): (usize, &Point<D>)| BuildKey {
            q: std::array::from_fn(|d| ((p[d] - lo[d]) * scale[d]) as u16),
            src: i as u32,
        };
        let mut keys: Vec<BuildKey<D>> = points.iter().enumerate().map(key).collect();
        // Halving `n` log₂ of this power of two times leaves at most a
        // leaf, so no node is deeper and every heap id is below twice it.
        let slots = 2 * n.div_ceil(LEAF_SIZE).next_power_of_two();
        let mut b = Builder {
            points,
            memberships,
            step,
            cols: vec![0.0; D * n].into_boxed_slice(),
            mus: vec![0.0; n].into_boxed_slice(),
            max_mu: vec![f64::NEG_INFINITY; slots].into_boxed_slice(),
            bounds: vec![0.0; 2 * D * slots].into_boxed_slice(),
        };
        b.fill(&mut keys, NodeRef { id: 0, start: 0, end: n as u32 }, [[0; D], [u16::MAX; D]]);
        let occupancy = Occupancy::build(&b.cols, n, &root_mbr);
        let Builder { cols, mus, max_mu, bounds, .. } = b;
        Self { len: n, cols, mus, max_mu, bounds, root_mbr, occupancy }
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

    /// The flat arrays, for diagnostics and the structural suite: the
    /// heap-indexed boxes (`D` lows, then `D` highs, per node) and `max_µ`,
    /// then the slots' dim-major coordinate columns and memberships (module
    /// docs, "Implicit layout").
    pub fn layout(&self) -> [&[f64]; 4] {
        [&self.bounds, &self.max_mu, &self.cols, &self.mus]
    }

    /// Seeded nearest-neighbour **distance** in squared space: the smallest
    /// squared distance from `q` to a point passing `filter`, provided it
    /// is *strictly below* `cap_sq`; `None` when no such point exists. With
    /// `cap_sq = ∞` this is the plain nearest distance. The seed lets
    /// chained searches (one per activated point in the α-distance
    /// evaluators) start each probe from the running best, so a search that
    /// cannot improve it ends at the root — or, with a cap below the
    /// tree's point spacing, at the occupancy bitmap (module docs, "The
    /// O(1) no"). It carries no index.
    pub fn min_dist_sq_within(
        &self,
        q: &Point<D>,
        filter: LevelFilter,
        cap_sq: f64,
    ) -> Option<f64> {
        let root = self.root_ref();
        let mut best = cap_sq;
        if filter.accepts(self.max_mu[0])
            && self.box_dist_sq(root, q) < best
            && !self.occupancy.rules_out(q, cap_sq)
        {
            self.descend(root, q, filter, &mut best);
        }
        (best < cap_sq).then_some(best)
    }

    /// Capped box existence: true when some point passing `filter` has a
    /// squared gap to the box `[lo, hi]` — [`Point::dist_sq_to_box`] —
    /// *strictly* below `cap_sq`. A point inside the box has gap 0, so any
    /// positive cap finds it; a cap of 0 or NaN finds nothing. Subtrees are
    /// pruned on their box's gap to `[lo, hi]` and on `max_µ`, and the
    /// search returns at the first point under the cap (module docs, "Two
    /// searches": why the pruning is exact).
    pub fn any_within_box_sq(
        &self,
        lo: &[f64; D],
        hi: &[f64; D],
        filter: LevelFilter,
        cap_sq: f64,
    ) -> bool {
        self.any_in(self.root_ref(), lo, hi, filter, cap_sq)
    }

    /// [`Self::any_within_box_sq`] over the subtree at `node`.
    fn any_in(
        &self,
        node: NodeRef,
        lo: &[f64; D],
        hi: &[f64; D],
        filter: LevelFilter,
        cap_sq: f64,
    ) -> bool {
        let reachable = filter.accepts(self.max_mu[node.id as usize])
            && self.node_gap_sq(node, lo, hi) < cap_sq;
        if !reachable {
            return false;
        }
        if node.is_leaf() {
            let start = node.start as usize;
            let p = self.leaf_prefix_len(node, filter);
            return (start..start + p).any(|j| {
                let pt = Point::new(std::array::from_fn(|d| self.cols[d * self.len + j]));
                pt.dist_sq_to_box(lo, hi) < cap_sq
            });
        }
        let (left, right) = node.children();
        self.any_in(left, lo, hi, filter, cap_sq) || self.any_in(right, lo, hi, filter, cap_sq)
    }

    /// Squared gap between `node`'s box and the box `[lo, hi]`: per
    /// dimension the distance between the two intervals (0 when they
    /// meet), squared and summed in dimension order. No point of the node
    /// has a smaller [`Point::dist_sq_to_box`].
    #[inline]
    fn node_gap_sq(&self, node: NodeRef, lo: &[f64; D], hi: &[f64; D]) -> f64 {
        let b = node.id as usize * 2 * D;
        let (nlo, nhi) = (&self.bounds[b..b + D], &self.bounds[b + D..b + 2 * D]);
        let mut acc = 0.0;
        for i in 0..D {
            let g = if nhi[i] < lo[i] {
                lo[i] - nhi[i]
            } else if nlo[i] > hi[i] {
                nlo[i] - hi[i]
            } else {
                0.0
            };
            acc += g * g;
        }
        acc
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

    #[inline]
    fn root_ref(&self) -> NodeRef {
        NodeRef { id: 0, start: 0, end: self.len as u32 }
    }

    /// Squared point-to-node-box distance, matching
    /// [`Point::dist_sq_to_box`] bit for bit.
    #[inline]
    fn box_dist_sq(&self, node: NodeRef, q: &Point<D>) -> f64 {
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

    /// Length of the membership-accepted prefix of a leaf range (the leaf
    /// prefix invariant: memberships descend, so the first rejection ends
    /// the accepted set).
    #[inline]
    fn leaf_prefix_len(&self, node: NodeRef, filter: LevelFilter) -> usize {
        let mus = &self.mus[node.start as usize..node.end as usize];
        mus.iter().take_while(|&&mu| filter.accepts(mu)).count()
    }

    /// Dim-major column views over the slot range `[start, start + n)`.
    #[inline]
    fn col_slices(&self, start: usize, n: usize) -> [&[f64]; D] {
        std::array::from_fn(|d| &self.cols[d * self.len + start..d * self.len + start + n])
    }
}

/// One bit per cell of a uniform grid on the root box, set when any point
/// of the tree falls in the cell — whatever its membership. Cells are
/// `0..=top` a side (the high edge of the box has an index of its own), the
/// last dimension contiguous, so the block of cells around a query point is
/// a few masked loads of at most two words each. The module docs ("The O(1)
/// no") carry the argument that an all-clear block proves a capped search
/// empty.
#[derive(Clone, Debug)]
struct Occupancy<const D: usize> {
    /// Low corner of the root box.
    lo: [f64; D],
    /// Cells per unit length, `1 / c_d`; 0 in a dimension that is not
    /// gridded (extent zero, non-finite, or too extreme to square), where
    /// every coordinate therefore has cell 0.
    inv: [f64; D],
    /// Highest cell index a side, `w`.
    top: usize,
    /// Words per run of the last dimension.
    row_words: usize,
    /// `reach_sq[m − 1] = (m·c_min·(1 − 1e-9))²`, the largest cap a block
    /// of `m` cells either side answers for; all 0 — never consulted —
    /// when no dimension is gridded.
    reach_sq: [f64; MAX_REACH],
    bits: Box<[u64]>,
}

impl<const D: usize> Occupancy<D> {
    /// Grid the root box `mbr` and mark the cell of each of the `n` points
    /// in the dim-major columns `cols`.
    fn build(cols: &[f64], n: usize, mbr: &Mbr<D>) -> Self {
        // The smallest `w` with `w^D ≥ CELLS_PER_POINT · n`, at most 2 048:
        // the float root, corrected to the exact integer answer.
        let want = CELLS_PER_POINT.saturating_mul(n);
        let covers = |w: usize| w.saturating_pow(D as u32) >= want;
        let mut top = ((want as f64).powf(1.0 / D as f64) as usize).clamp(1, 2048);
        while top > 1 && covers(top - 1) {
            top -= 1;
        }
        while top < 2048 && !covers(top) {
            top += 1;
        }
        let reach_sq_of = |c: f64| -> [f64; MAX_REACH] {
            std::array::from_fn(|i| {
                let r = (i + 1) as f64 * c * (1.0 - 1e-9);
                r * r
            })
        };
        let mut inv = [0.0; D];
        let mut c_min = f64::INFINITY;
        for d in 0..D {
            let c = mbr.extent(d) / top as f64;
            // Thresholds that are normal numbers keep every rounding
            // error of the argument relative; an extent that is zero, NaN
            // (zero to `extent`) or infinite fails the same test.
            if reach_sq_of(c).iter().all(|r| r.is_normal()) {
                inv[d] = 1.0 / c;
                c_min = c_min.min(c);
            }
        }
        let reach_sq = if c_min.is_finite() { reach_sq_of(c_min) } else { [0.0; MAX_REACH] };
        let side = top + 1;
        let row_words = side.div_ceil(64);
        let bits = vec![0u64; side.pow(D as u32 - 1) * row_words].into_boxed_slice();
        let mut occ = Self { lo: *mbr.lo_coords(), inv, top, row_words, reach_sq, bits };
        for j in 0..n {
            let mut run = 0;
            for d in 0..D - 1 {
                run = run * side + occ.cell(cols[d * n + j], d);
            }
            let last = occ.cell(cols[(D - 1) * n + j], D - 1);
            occ.bits[run * row_words + last / 64] |= 1 << (last % 64);
        }
        occ
    }

    /// Cell index of coordinate `x` in dimension `d`: monotone in `x`, the
    /// same expression at build and at query. The cast saturates, so a
    /// coordinate below the box — or NaN — has cell 0.
    #[inline]
    fn cell(&self, x: f64, d: usize) -> usize {
        (((x - self.lo[d]) * self.inv[d]) as usize).min(self.top)
    }

    /// True when no point of the tree — of any membership — can lie
    /// strictly within `cap_sq` of `q`: the cap is within reach and every
    /// cell of the block around `q`'s cell is clear. False proves nothing.
    #[inline]
    fn rules_out(&self, q: &Point<D>, cap_sq: f64) -> bool {
        // A NaN or infinite cap is below no reach.
        let Some(m) = (1..=MAX_REACH).find(|&m| cap_sq <= self.reach_sq[m - 1]) else {
            return false;
        };
        let mut lo = [0usize; D];
        let mut hi = [0usize; D];
        for d in 0..D {
            let c = self.cell(q.coords()[d], d);
            lo[d] = c.saturating_sub(m);
            hi[d] = (c + m).min(self.top);
        }
        // The block's span of the last dimension: at most 2m + 1 bits, in
        // one word or across the boundary of two.
        let (first, last) = (lo[D - 1] / 64, hi[D - 1] / 64);
        let first_mask = !0u64 << (lo[D - 1] % 64);
        let last_mask = !0u64 >> (63 - hi[D - 1] % 64);
        let side = self.top + 1;
        let mut at = lo;
        loop {
            let mut run = 0;
            for d in 0..D - 1 {
                run = run * side + at[d];
            }
            let row = &self.bits[run * self.row_words..][..self.row_words];
            let hit = if first == last {
                row[first] & first_mask & last_mask
            } else {
                (row[first] & first_mask) | (row[last] & last_mask)
            };
            if hit != 0 {
                return false;
            }
            // Odometer over the leading dimensions.
            let mut d = D - 1;
            loop {
                if d == 0 {
                    return true;
                }
                d -= 1;
                if at[d] < hi[d] {
                    at[d] += 1;
                    break;
                }
                at[d] = lo[d];
            }
        }
    }
}

/// What the median selections move for a point (module docs, "Build"): its
/// coordinates quantized to 16 bits over the root box, and its index.
#[derive(Clone, Copy)]
struct BuildKey<const D: usize> {
    q: [u16; D],
    src: u32,
}

/// Construction state: the input, and the arrays being filled.
struct Builder<'a, const D: usize> {
    points: &'a [Point<D>],
    memberships: &'a [f64],
    /// Root-box length of one quantization step, per dimension: what a
    /// key difference is worth when the widest extent is chosen.
    step: [f64; D],
    cols: Box<[f64]>,
    mus: Box<[f64]>,
    max_mu: Box<[f64]>,
    bounds: Box<[f64]>,
}

/// One side of a box union — the lower bound if `low`, else the higher —
/// and NaN if either is: a NaN bound never prunes, and it stays one.
#[inline]
fn union(x: f64, y: f64, low: bool) -> f64 {
    match (x.is_nan() || y.is_nan(), low) {
        (true, _) => f64::NAN,
        (false, true) => x.min(y),
        (false, false) => x.max(y),
    }
}

impl<const D: usize> Builder<'_, D> {
    /// Fill the subtree at `node`, whose keys lie in the quantized cell
    /// `[lo, hi]`: split it at the median on the cell's widest side, or lay
    /// out a leaf; then its exact box and `max_µ`, bottom-up.
    fn fill(&mut self, keys: &mut [BuildKey<D>], node: NodeRef, [lo, hi]: [[u16; D]; 2]) {
        let (id, b) = (node.id as usize, node.id as usize * 2 * D);
        let range = &mut keys[node.start as usize..node.end as usize];
        if node.is_leaf() {
            return self.leaf(range, node);
        }
        let (mut dim, mut widest) = (0, -1.0);
        for d in 0..D {
            let w = f64::from(hi[d] - lo[d]) * self.step[d];
            if w > widest {
                (dim, widest) = (d, w);
            }
        }
        let (_, median, _) = range.select_nth_unstable_by_key(node.len() / 2, |k| k.q[dim]);
        let split = median.q[dim];
        let (left, right) = node.children();
        let (mut left_hi, mut right_lo) = (hi, lo);
        (left_hi[dim], right_lo[dim]) = (split, split);
        self.fill(keys, left, [lo, left_hi]);
        self.fill(keys, right, [right_lo, hi]);
        let (l, r) = (left.id as usize * 2 * D, right.id as usize * 2 * D);
        for i in 0..2 * D {
            self.bounds[b + i] = union(self.bounds[l + i], self.bounds[r + i], i < D);
        }
        self.max_mu[id] = self.max_mu[left.id as usize].max(self.max_mu[right.id as usize]);
    }

    /// Lay out a leaf: its points by (µ descending, source index) — a sort
    /// of at most [`LEAF_SIZE`] integer keys — written to the final
    /// columns, and its box and `max_µ` over them.
    fn leaf(&mut self, keys: &[BuildKey<D>], node: NodeRef) {
        // `total_cmp`'s order as unsigned integers, complemented so that a
        // larger membership sorts first; the source index breaks ties.
        let mut slots = [0u128; LEAF_SIZE];
        let slots = &mut slots[..keys.len()];
        for (slot, k) in slots.iter_mut().zip(keys) {
            let bits = self.memberships[k.src as usize].to_bits();
            let total = bits ^ (((bits as i64 >> 63) as u64) >> 1) ^ 1 << 63;
            *slot = u128::from(!total) << 32 | u128::from(k.src);
        }
        slots.sort_unstable();
        let (n, start) = (self.mus.len(), node.start as usize);
        let (mut lo, mut hi, mut max_mu) =
            ([f64::INFINITY; D], [f64::NEG_INFINITY; D], f64::NEG_INFINITY);
        // A running extreme skips NaN; a dimension holding one gets a NaN
        // bound instead.
        let mut nan = [false; D];
        for (j, &slot) in slots.iter().enumerate() {
            let (src, mu) = (slot as u32 as usize, self.memberships[slot as u32 as usize]);
            let p = self.points[src].coords();
            for d in 0..D {
                self.cols[d * n + start + j] = p[d];
                lo[d] = if p[d] < lo[d] { p[d] } else { lo[d] };
                hi[d] = if p[d] > hi[d] { p[d] } else { hi[d] };
                nan[d] |= p[d].is_nan();
            }
            self.mus[start + j] = mu;
            max_mu = max_mu.max(mu);
        }
        for d in (0..D).filter(|&d| nan[d]) {
            (lo[d], hi[d]) = (f64::NAN, f64::NAN);
        }
        let b = node.id as usize * 2 * D;
        self.bounds[b..b + D].copy_from_slice(&lo);
        self.bounds[b + D..b + 2 * D].copy_from_slice(&hi);
        self.max_mu[node.id as usize] = max_mu;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn brute_min_dist_sq(
        pts: &[Point<2>],
        mus: &[f64],
        q: &Point<2>,
        f: LevelFilter,
    ) -> Option<f64> {
        pts.iter()
            .zip(mus)
            .filter(|(_, &mu)| f.accepts(mu))
            .map(|(p, _)| p.dist_sq(q))
            .reduce(f64::min)
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
                    let got = tree.min_dist_sq_within(&q, f, f64::INFINITY);
                    let want = brute_min_dist_sq(&pts, &mus, &q, f);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "q={q:?} lvl={lvl} strict={strict}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn filter_excluding_everything_returns_none() {
        let (_, _, tree) = grid_tree();
        let q = Point::xy(0.0, 0.0);
        assert!(tree.min_dist_sq_within(&q, LevelFilter::above(1.0), f64::INFINITY).is_none());
    }

    #[test]
    fn singleton_tree() {
        let tree = KdTree::build(&[Point::xy(1.0, 2.0)], &[0.8]);
        assert_eq!(tree.len(), 1);
        let q = Point::xy(1.0, 3.0);
        assert_eq!(
            tree.min_dist_sq_within(&q, LevelFilter::at_least(0.5), f64::INFINITY),
            Some(1.0)
        );
        assert!(tree.min_dist_sq_within(&q, LevelFilter::at_least(0.9), f64::INFINITY).is_none());
    }

    #[test]
    fn max_mu_annotation_is_root_max() {
        let (_, mus, tree) = grid_tree();
        let want = mus.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(tree.max_mu(), want);
        assert_eq!(tree.layout()[1][0], want);
    }

    #[test]
    fn strictly_closer_cap_semantics_survive_ties() {
        // A point exactly at the cap distance must not be returned: the cap
        // is exclusive, and a cap just above it admits the point.
        let pts = vec![Point::xy(3.0, 4.0), Point::xy(6.0, 8.0)];
        let mus = vec![1.0, 1.0];
        let tree = KdTree::build(&pts, &mus);
        let q = Point::origin();
        assert!(tree.min_dist_sq_within(&q, LevelFilter::support(), 25.0).is_none());
        assert_eq!(tree.min_dist_sq_within(&q, LevelFilter::support(), 25.0 + 1e-9), Some(25.0));
    }

    /// The `i`-th point of the Kronecker sequence on `(a, b)`: evenly
    /// spread over the unit square for irrational multipliers, no generator.
    fn kronecker(i: usize, a: f64, b: f64) -> Point<2> {
        Point::xy((i as f64 * a).fract(), (i as f64 * b).fract())
    }

    /// The occupancy layer is not a no-op: on a uniform cloud, with the cap
    /// at a quarter of a cell's area, most interior searches end at the
    /// bitmap (a 3 × 3 block at one point per 128 cells is clear 93 % of
    /// the time) — and each such verdict is the descent's.
    #[test]
    fn occupancy_answers_most_small_cap_searches_without_a_descent() {
        // The cloud on the plastic number's pair, the queries on another.
        let pts: Vec<Point<2>> = (0..1000)
            .map(|i| kronecker(i, 0.754_877_666_246_692_7, 0.569_840_290_998_053_2))
            .collect();
        let tree = KdTree::build(&pts, &vec![1.0; pts.len()]);
        let occ = &tree.occupancy;
        let cap_sq = 0.25 / (occ.inv[0] * occ.inv[1]);
        assert!(cap_sq <= occ.reach_sq[0], "a quarter cell is within the first reach");
        let mut answered = 0;
        for q in (1..=1000).map(|i| kronecker(i, 2f64.sqrt(), 3f64.sqrt())) {
            if occ.rules_out(&q, cap_sq) {
                answered += 1;
                assert!(pts.iter().all(|p| p.dist_sq(&q) >= cap_sq), "a clear block at {q:?}");
                let mut best = cap_sq;
                tree.descend(tree.root_ref(), &q, LevelFilter::support(), &mut best);
                assert_eq!(best, cap_sq, "the descent finds nothing either");
            }
        }
        assert!(answered >= 500, "only {answered} of 1000 searches were answered by the bitmap");
    }

    /// Degenerate boxes grid what they can: a zero-extent dimension is not
    /// gridded (every coordinate there has cell 0), and a box degenerate
    /// in every dimension has no reach, so its bitmap is never consulted.
    #[test]
    fn occupancy_of_degenerate_boxes() {
        // Eight points a unit apart, 32 cells a side: 4.6 cells between two.
        let line: Vec<Point<2>> = (0..8).map(|i| Point::xy(i as f64, 7.0)).collect();
        let occ = KdTree::build(&line, &[1.0; 8]).occupancy;
        assert!(occ.inv[0] > 0.0 && occ.inv[1] == 0.0 && occ.reach_sq[0] > 0.0);
        assert!(occ.rules_out(&Point::xy(3.5, 7.0), 1e-6), "between two points of the line");
        assert!(!occ.rules_out(&Point::xy(3.0, 7.0), 1e-6), "on one");

        let spot = KdTree::build(&[Point::xy(2.0, 3.0); 5], &[1.0; 5]).occupancy;
        assert_eq!(spot.reach_sq, [0.0; MAX_REACH]);
        let nan = KdTree::build(&[Point::xy(f64::NAN, f64::NAN); 3], &[1.0; 3]).occupancy;
        assert_eq!(nan.reach_sq, [0.0; MAX_REACH]);
        for cap in [0.0, 1e-300, 1.0, f64::INFINITY, f64::NAN] {
            // Even a cap of 0, which is "within reach", finds cell 0 marked.
            assert!(!spot.rules_out(&Point::xy(2.0, 3.5), cap));
            assert!(!nan.rules_out(&Point::xy(2.0, 3.5), cap));
        }
    }

    proptest! {
        /// Soundness of the bitmap on its own, root tests or not: a clear
        /// block means the brute scan finds nothing strictly within the
        /// cap — for query points inside, on and around the box, and caps
        /// from far below the first reach to beyond the last.
        #[test]
        fn an_all_clear_block_means_nothing_lies_within_the_cap(
            coords in prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..200),
            (ux, uy) in (-0.1..1.1f64, -0.1..1.1f64),
            cells in 0.0..3.5f64,
        ) {
            let pts: Vec<Point<2>> = coords.into_iter().map(|(x, y)| Point::xy(x, y)).collect();
            let tree = KdTree::build(&pts, &vec![1.0; pts.len()]);
            let (lo, hi) = (tree.mbr().lo_coords(), tree.mbr().hi_coords());
            let q = Point::xy(lo[0] + ux * (hi[0] - lo[0]), lo[1] + uy * (hi[1] - lo[1]));
            let cap_sq = tree.occupancy.reach_sq[0] * cells * cells;
            if tree.occupancy.rules_out(&q, cap_sq) {
                prop_assert!(pts.iter().all(|p| p.dist_sq(&q) >= cap_sq));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot build")]
    fn empty_build_panics() {
        let _ = KdTree::<2>::build(&[], &[]);
    }
}
