//! The fuzzy object itself: a validated set of probabilistic spatial points.
//!
//! What is stored and what is lazy: an object is born with **one** of two
//! views of its points — construction order ([`FuzzyObject::new`]) or the
//! membership-descending columns of a stored record ([`ColumnarChecker`],
//! which [`FuzzyObject::from_columnar`] also goes through) — and builds the
//! other and the kd-tree only when a caller first asks for them; see
//! [`FuzzyObject`]. A store probe hands the checker each section of the
//! record as it folds the section into the record's checksum, so the
//! layout checks run in the checksum's shadow.

use crate::error::ModelError;
use crate::threshold::Threshold;
use fuzzy_geom::{KdTree, Mbr, Point};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a fuzzy object inside a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A fuzzy object (Definition 1): `A = {⟨a, µ_A(a)⟩ | µ_A(a) > 0}`.
///
/// Invariants enforced at construction:
/// * at least one point,
/// * every membership in `(0, 1]`, every coordinate finite,
/// * non-empty kernel — some point has membership exactly `1.0`
///   (the paper's standing assumption, Section 2.1).
///
/// An object holds its points in one of two **views**, and derives the
/// other from it on first use:
///
/// * **construction order** — the point and membership vectors as given;
///   what [`FuzzyObject::new`] fills, and what [`FuzzyObject::points`],
///   [`FuzzyObject::iter`], sampling and the kd-tree read;
/// * the [`MembershipPrefix`] — the same points as a
///   **membership-descending structure-of-arrays**, so any α-cut is a
///   contiguous prefix located by one binary search. It is what a stored
///   record holds, so a decoded object is born with *this* view — the
///   columns a [`ColumnarChecker`] filled and checked, kept as they are —
///   and it is what the hot distance kernels scan.
///
/// An object probed from a store is therefore exactly its record's columns
/// for as long as only the kernels touch it: construction order is
/// materialised (one scatter through the stored permutation) the first
/// time someone asks for it, and an object built by `new` pays one sort
/// the first time a kernel asks for its prefix. Both derivations are
/// cached for the object's lifetime and race-free (`OnceLock`); whichever
/// view came first, every accessor answers bit for bit the same. The
/// kd-tree over the points (annotated with subtree membership maxima,
/// shared by the tree-based α-distance evaluators) is a third lazy cache,
/// built from construction order because its answers are construction
/// indices.
#[derive(Clone, Debug)]
pub struct FuzzyObject<const D: usize> {
    id: ObjectId,
    len: usize,
    /// Points and memberships in construction order. At least one of
    /// `source` and `prefix` is set from construction on.
    source: OnceLock<(Vec<Point<D>>, Vec<f64>)>,
    prefix: OnceLock<MembershipPrefix<D>>,
    kd: OnceLock<KdTree<D>>,
}

/// The membership-descending structure-of-arrays view of an object's
/// points: slot `j` carries `memberships()[j]`, and memberships are
/// sorted descending (ties broken by original index, so the layout is
/// deterministic). Any threshold then selects the contiguous prefix
/// `0..prefix_len(t)` — a single binary search instead of a scan — and
/// the quadratic α-distance kernels become cache-friendly loops over dense
/// coordinate columns.
#[derive(Clone, Debug)]
pub struct MembershipPrefix<const D: usize> {
    /// The memberships, then the dimension-major coordinate columns, in one
    /// buffer: column `c` is `columns[c·n..(c + 1)·n]`, so coordinate `d`
    /// of sorted point `j` is `columns[(1 + d)·n + j]`. The distance
    /// kernels stream the coordinate columns contiguously through the
    /// unrolled lane reduction of [`fuzzy_geom::kernel`].
    columns: Vec<f64>,
    /// `orig[j]` is the construction-order index of sorted point `j` — the
    /// permutation that undoes the membership sort. Serialized with stored
    /// records (since format v3) so construction order can be restored
    /// without re-sorting.
    orig: Vec<u32>,
}

impl<const D: usize> MembershipPrefix<D> {
    fn build(points: &[Point<D>], memberships: &[f64]) -> Self {
        // One (µ, index) buffer; unstable sort is fine because the index
        // tie-break makes the order total and deterministic.
        let mut keyed: Vec<(f64, u32)> =
            memberships.iter().zip(0u32..).map(|(&mu, i)| (mu, i)).collect();
        keyed.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let n = keyed.len();
        let mut columns = vec![0.0; (1 + D) * n];
        for (j, &(mu, i)) in keyed.iter().enumerate() {
            columns[j] = mu;
            for d in 0..D {
                columns[(1 + d) * n + j] = points[i as usize].coords()[d];
            }
        }
        Self { columns, orig: keyed.iter().map(|&(_, i)| i).collect() }
    }

    /// Column `c` of the buffer: memberships for 0, then coordinates.
    #[inline]
    fn column(&self, c: usize) -> &[f64] {
        let n = self.orig.len();
        &self.columns[c * n..(c + 1) * n]
    }

    /// Sorted point `j`, gathered from the coordinate columns.
    #[inline]
    pub(crate) fn point(&self, j: usize) -> Point<D> {
        Point::new(std::array::from_fn(|d| self.coord_column(d)[j]))
    }

    /// Memberships, descending: slot `j` of every column belongs to the
    /// same point.
    #[inline]
    pub fn memberships(&self) -> &[f64] {
        self.column(0)
    }

    /// Coordinate column of dimension `d` (membership-descending order,
    /// parallel to [`MembershipPrefix::memberships`]).
    #[inline]
    pub fn coord_column(&self, d: usize) -> &[f64] {
        self.column(1 + d)
    }

    /// Construction-order index of each sorted point — the permutation
    /// that undoes the membership sort, parallel to
    /// [`MembershipPrefix::memberships`].
    #[inline]
    pub fn source_indices(&self) -> &[u32] {
        &self.orig
    }

    /// Length of the prefix selected by `t`: the cut `{a : t accepts µ(a)}`
    /// is exactly the slots `..prefix_len(t)` of every column.
    #[inline]
    pub fn prefix_len(&self, t: Threshold) -> usize {
        self.memberships().partition_point(|&mu| t.accepts(mu))
    }

    /// Per-dimension bounds of the prefix `0..n` as `(lo, hi)` arrays —
    /// the exact cut MBR, computed with one pass over the coordinate
    /// columns. Callers use it to skip whole prefix scans whose bounding
    /// box already lies beyond a known bound.
    pub(crate) fn prefix_bounds(&self, n: usize) -> ([f64; D], [f64; D]) {
        // Independent lanes, folded at the end: one running minimum would
        // serialise the pass on its own latency. Coordinates are finite, so
        // the extremes do not depend on the order they are compared in.
        const LANES: usize = 8;
        let mut lo = [f64::INFINITY; D];
        let mut hi = [f64::NEG_INFINITY; D];
        for d in 0..D {
            let mut lanes_lo = [f64::INFINITY; LANES];
            let mut lanes_hi = [f64::NEG_INFINITY; LANES];
            let chunks = self.coord_column(d)[..n].chunks_exact(LANES);
            let rest = chunks.remainder();
            for chunk in chunks {
                for (l, &c) in chunk.iter().enumerate() {
                    lanes_lo[l] = if c < lanes_lo[l] { c } else { lanes_lo[l] };
                    lanes_hi[l] = if c > lanes_hi[l] { c } else { lanes_hi[l] };
                }
            }
            for &c in rest.iter().chain(&lanes_lo) {
                lo[d] = lo[d].min(c);
            }
            for &c in rest.iter().chain(&lanes_hi) {
                hi[d] = hi[d].max(c);
            }
        }
        (lo, hi)
    }

    /// The smallest **squared** distance from `p` to a point of the
    /// prefix `0..n`, via the unrolled columnar min-reduction kernel of
    /// [`fuzzy_geom::kernel`] (explicit multi-accumulator lanes; bitwise
    /// identical to the scalar evaluators). `+∞` for an empty prefix.
    #[inline]
    pub(crate) fn min_dist_sq_to_prefix(&self, p: &Point<D>, n: usize) -> f64 {
        let cols: [&[f64]; D] = std::array::from_fn(|d| &self.coord_column(d)[..n]);
        fuzzy_geom::kernel::min_dist_sq_cols(&cols, p.coords())
    }
}

/// The one check of a membership-descending columnar layout, and the owner
/// of the columns it checks: values checked are values kept.
///
/// A decoder hands it the sections of a record in record order, one call
/// each — source indices, memberships, then each dimension's coordinate
/// column — and each is collected as it comes (no zero-filled staging) and
/// checked by a lean pass: a byte marked per source index, each
/// membership compared with the next, each coordinate tested finite.
/// Memberships that descend as `f64`s (ties by ascending source index)
/// from `µ₀ == 1` to a last one above 0 all lie in `(0, 1]`, where that
/// order is [`f64::total_cmp`]'s, so a valid object needs nothing more.
/// Otherwise [`ColumnarChecker::finish`] names the first broken rule in a
/// fixed order: the source indices are a permutation of `0..n`;
/// memberships descend under [`f64::total_cmp`], ties by ascending source
/// index; then the first slot whose membership is outside `(0, 1]` or
/// whose coordinates are not all finite (the membership first when one
/// slot breaks both), reported by its source index; then the kernel
/// (`µ₀ == 1`). Values beyond a section's length are not taken; a section
/// handed over short, or a call out of order (which fills nothing), is
/// reported as columns that do not cover every point.
///
/// ```
/// use fuzzy_core::{ColumnarChecker, ObjectId};
///
/// let mut check = ColumnarChecker::<2>::new(2);
/// check.fill_source_indices([1, 0]);
/// check.fill_memberships([1.0, 0.5]);
/// check.fill_coord_column([3.0, 1.0]); // x
/// check.fill_coord_column([4.0, 2.0]); // y
/// let obj = check.finish(ObjectId(9)).unwrap();
/// assert_eq!(obj.memberships(), &[0.5, 1.0]); // construction order restored
/// ```
#[derive(Debug)]
pub struct ColumnarChecker<const D: usize> {
    len: usize,
    orig: Vec<u32>,
    /// The memberships, then the coordinate columns (as in
    /// [`MembershipPrefix`]).
    columns: Vec<f64>,
    /// Sections filled so far.
    filled: usize,
    /// The source indices are a permutation of `0..n`.
    permutation: bool,
    /// The memberships descend as `f64`s, ties by ascending source index.
    descending: bool,
    /// Every coordinate filled so far is finite.
    finite: bool,
}

/// [`f64::total_cmp`]'s key: ordering these integers orders the floats.
#[inline]
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl<const D: usize> ColumnarChecker<D> {
    /// An empty checker for an object of `n` points.
    pub fn new(n: usize) -> Self {
        Self {
            len: n,
            orig: Vec::with_capacity(n),
            columns: Vec::with_capacity((1 + D) * n),
            filled: 0,
            permutation: false,
            descending: false,
            finite: true,
        }
    }

    /// Start the next section if it is one of `sections`.
    fn begin(&mut self, sections: std::ops::Range<usize>) -> bool {
        // A branch, not `filled += contains(…) as usize`: rustc 1.95
        // (LLVM 22) drops that store in release builds when a slice loop
        // follows.
        if !sections.contains(&self.filled) {
            return false;
        }
        self.filled += 1;
        true
    }

    /// The source indices: `orig[j]` is the construction index of sorted
    /// slot `j`.
    #[inline]
    pub fn fill_source_indices(&mut self, values: impl IntoIterator<Item = u32>) {
        if !self.begin(0..1) {
            return;
        }
        let n = self.len;
        self.orig.extend(values.into_iter().take(n));
        // A byte per index, each marked with a plain store: an index out of
        // range marks the spare byte `n`, a repeated one marks a byte
        // twice, and either leaves one of the first `n` clear.
        let mut seen = vec![0u8; n + 1];
        for &i in &self.orig {
            seen[(i as usize).min(n)] = 1;
        }
        self.permutation = !seen[..n].contains(&0);
    }

    /// The memberships, slot by slot.
    #[inline]
    pub fn fill_memberships(&mut self, values: impl IntoIterator<Item = f64>) {
        if !self.begin(1..2) {
            return;
        }
        self.columns.extend(values.into_iter().take(self.len));
        let (mus, orig) = (&self.columns, &self.orig);
        let slots = mus.len().min(orig.len());
        self.descending = (1..slots).fold(true, |ok, j| {
            ok & ((mus[j - 1] > mus[j]) | ((mus[j - 1] == mus[j]) & (orig[j - 1] < orig[j])))
        });
    }

    /// The next coordinate column: coordinate `d` of every slot, for
    /// `d = 0, 1, …` in turn.
    #[inline]
    pub fn fill_coord_column(&mut self, values: impl IntoIterator<Item = f64>) {
        if !self.begin(2..2 + D) {
            return;
        }
        let start = self.columns.len();
        self.columns.extend(values.into_iter().take(self.len));
        // `c · 0` is ±0 for a finite `c` and NaN for any other.
        self.finite &= self.columns[start..].iter().fold(true, |ok, &c| ok & (c * 0.0 == 0.0));
    }

    /// The checked object, or the first broken rule (see
    /// [`ColumnarChecker`]). Columns left short are an
    /// [`ModelError::InvalidColumnarLayout`].
    pub fn finish(self, id: ObjectId) -> Result<FuzzyObject<D>, ModelError> {
        let n = self.len;
        let layout = |reason| Err(ModelError::InvalidColumnarLayout { reason });
        if n == 0 {
            return Err(ModelError::EmptyObject);
        }
        if self.filled != 2 + D || self.orig.len() != n || self.columns.len() != (1 + D) * n {
            return layout("columns do not cover every point");
        }
        if !self.permutation {
            return layout("source indices are not a permutation");
        }
        let (mus, orig) = (&self.columns[..n], &self.orig);
        if !(self.descending && self.finite && mus[0] == 1.0 && mus[n - 1] > 0.0) {
            // The lean pass failed, so a rule is broken: name the first.
            // Slot order as one number: the membership's `total_cmp` key,
            // then the complement of the source index (ties by ascending
            // index), so a slot ranking above its predecessor breaks it.
            let rank = |j: usize| (total_key(mus[j]) as i128) << 64 | !orig[j] as i128;
            if (1..n).any(|j| rank(j - 1) < rank(j)) {
                return layout("memberships are not membership-descending");
            }
            // In that order the memberships outside (0, 1] sit at the ends:
            // above 1 (and +NaN) first, at or below +0.0 last. The first
            // bad slot is therefore 0 or the first of the tail.
            let mu_lead = match mus[0] {
                mu if total_key(mu) > total_key(1.0) => 0,
                _ => mus.partition_point(|&mu| total_key(mu) > 0),
            };
            let finite = |j: usize| (1..=D).all(|c| self.columns[c * n + j].is_finite());
            let slot = (0..mu_lead).find(|&j| !finite(j)).unwrap_or(mu_lead);
            if slot < n {
                let index = orig[slot] as usize;
                return Err(if mu_lead == slot {
                    ModelError::InvalidMembership { index, value: mus[slot] }
                } else {
                    ModelError::NonFiniteCoordinate { index }
                });
            }
            // Descending order makes the kernel check O(1).
            if mus[0] != 1.0 {
                return Err(ModelError::EmptyKernel);
            }
        }
        let Self { orig, columns, .. } = self;
        Ok(FuzzyObject {
            id,
            len: n,
            source: OnceLock::new(),
            prefix: OnceLock::from(MembershipPrefix { columns, orig }),
            kd: OnceLock::new(),
        })
    }
}

impl<const D: usize> FuzzyObject<D> {
    /// Validate and construct.
    pub fn new(
        id: ObjectId,
        points: Vec<Point<D>>,
        memberships: Vec<f64>,
    ) -> Result<Self, ModelError> {
        if points.len() != memberships.len() {
            return Err(ModelError::LengthMismatch {
                points: points.len(),
                memberships: memberships.len(),
            });
        }
        if points.is_empty() {
            return Err(ModelError::EmptyObject);
        }
        let mut has_kernel = false;
        for (i, (&mu, p)) in memberships.iter().zip(&points).enumerate() {
            if !(mu > 0.0 && mu <= 1.0) {
                return Err(ModelError::InvalidMembership { index: i, value: mu });
            }
            if !p.is_finite() {
                return Err(ModelError::NonFiniteCoordinate { index: i });
            }
            has_kernel |= mu == 1.0;
        }
        if !has_kernel {
            return Err(ModelError::EmptyKernel);
        }
        Ok(Self {
            id,
            len: points.len(),
            source: OnceLock::from((points, memberships)),
            prefix: OnceLock::new(),
            kd: OnceLock::new(),
        })
    }

    /// Validate and construct from the membership-descending **columnar**
    /// layout that stored records hold directly: `orig[j]` is the
    /// construction-order index of sorted slot `j`, `mus` descends (ties
    /// by `orig`), and `cols[d·n + j]` is coordinate `d` of slot `j`.
    ///
    /// The columns are checked by a [`ColumnarChecker`], whose columns then
    /// become the object's [`MembershipPrefix`], so the object reaches the
    /// distance kernels without a sort or a scatter. The observable object
    /// (points, memberships, iteration order, sampling) is identical to
    /// [`FuzzyObject::new`] on the source data; its construction order is
    /// restored through `orig` the first time it is asked for.
    pub fn from_columnar(
        id: ObjectId,
        orig: Vec<u32>,
        mus: Vec<f64>,
        cols: Vec<f64>,
    ) -> Result<Self, ModelError> {
        let n = orig.len();
        if mus.len() != n {
            return Err(ModelError::LengthMismatch { points: n, memberships: mus.len() });
        }
        if n == 0 {
            return Err(ModelError::EmptyObject);
        }
        if cols.len() != D * n {
            return Err(ModelError::InvalidColumnarLayout {
                reason: "coordinate columns do not cover every point",
            });
        }
        let mut check = ColumnarChecker::new(n);
        check.fill_source_indices(orig);
        check.fill_memberships(mus);
        for column in cols.chunks_exact(n) {
            check.fill_coord_column(column.iter().copied());
        }
        check.finish(id)
    }

    /// The construction-order view; scattered back through the stored
    /// permutation on first use when the object came from its columns.
    fn source(&self) -> &(Vec<Point<D>>, Vec<f64>) {
        self.source.get_or_init(|| {
            let pb = self.prefix.get().expect("an object always holds one of its views");
            let mut points = vec![Point::origin(); self.len];
            let mut memberships = vec![0.0; self.len];
            for (j, (&i, &mu)) in pb.orig.iter().zip(pb.memberships()).enumerate() {
                points[i as usize] = pb.point(j);
                memberships[i as usize] = mu;
            }
            (points, memberships)
        })
    }

    /// Object identifier.
    #[inline]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Number of probabilistic points (`|A_s|`). O(1), whichever view the
    /// object holds.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (construction rejects empty objects).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All points (the support set, since every stored membership is > 0),
    /// in construction order.
    #[inline]
    pub fn points(&self) -> &[Point<D>] {
        &self.source().0
    }

    /// Membership values, parallel to [`FuzzyObject::points`].
    #[inline]
    pub fn memberships(&self) -> &[f64] {
        &self.source().1
    }

    /// Iterate `⟨a, µ(a)⟩` pairs in construction order.
    pub fn iter(&self) -> impl Iterator<Item = (&Point<D>, f64)> + '_ {
        self.points().iter().zip(self.memberships().iter().copied())
    }

    /// The lazily built, cached kd-tree over the object's points.
    pub fn kd_tree(&self) -> &KdTree<D> {
        self.kd.get_or_init(|| KdTree::build(self.points(), self.memberships()))
    }

    /// True when the cached kd-tree has already been built — which lets
    /// tests and benches pin that the α-distance kernel indexes only its
    /// second (query) argument, never the probed one.
    #[inline]
    pub fn kd_tree_ready(&self) -> bool {
        self.kd.get().is_some()
    }

    /// The membership-descending prefix layout: the record's own columns
    /// for an object decoded from a store, otherwise built on first use
    /// (one sort, no recursive partitioning — much cheaper than the
    /// kd-tree) and cached.
    pub fn by_membership(&self) -> &MembershipPrefix<D> {
        self.prefix.get_or_init(|| MembershipPrefix::build(self.points(), self.memberships()))
    }

    /// True when the membership-descending prefix layout is already built
    /// (always the case for objects decoded from stored records).
    #[inline]
    pub fn prefix_ready(&self) -> bool {
        self.prefix.get().is_some()
    }

    /// True once construction order exists; lets the kernel tests pin that
    /// a decoded object is evaluated without it.
    #[cfg(test)]
    pub(crate) fn source_ready(&self) -> bool {
        self.source.get().is_some()
    }

    /// MBR of the support set (`M_A` = `M_A(0)` in the paper's notation).
    pub fn support_mbr(&self) -> Mbr<D> {
        Mbr::from_points(self.points()).expect("object is non-empty")
    }

    /// MBR of the kernel set (`M_A(1)`); the kernel is never empty.
    pub fn kernel_mbr(&self) -> Mbr<D> {
        Mbr::from_points(self.iter().filter(|&(_, mu)| mu == 1.0).map(|(p, _)| p))
            .expect("kernel is non-empty by construction")
    }

    /// Number of points in the cut selected by `t` (`|A_α|`): one binary
    /// search when the prefix layout exists, one counting pass otherwise —
    /// neither view is built to answer it.
    pub fn cut_len(&self, t: Threshold) -> usize {
        match self.prefix.get() {
            Some(pb) => pb.prefix_len(t),
            None => self.memberships().iter().filter(|&&mu| t.accepts(mu)).count(),
        }
    }

    /// Exact MBR of the cut selected by `t` (`M_A(α)`), or `None` when the
    /// cut is empty (only possible for strict thresholds at high values).
    pub fn cut_mbr(&self, t: Threshold) -> Option<Mbr<D>> {
        Mbr::from_points(self.iter().filter(|&(_, mu)| t.accepts(mu)).map(|(p, _)| p))
    }

    /// The distinct membership values `U_A`, ascending (Section 3.2).
    pub fn distinct_levels(&self) -> Vec<f64> {
        let mut levels = self.memberships().to_vec();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        levels
    }

    /// A representative point of the kernel, `rep(A)` (§3.4). We pick the
    /// first kernel point deterministically; the paper chooses randomly, but
    /// any kernel point satisfies Lemma 1 and determinism aids testing.
    pub fn rep_point(&self) -> Point<D> {
        *self
            .iter()
            .find(|&(_, mu)| mu == 1.0)
            .map(|(p, _)| p)
            .expect("kernel is non-empty by construction")
    }

    /// Uniformly sample (with a simple deterministic LCG keyed on `seed`)
    /// `n` point indices from the cut at `t` into `idx`; fewer when the cut
    /// is smaller. Used to build the query sample set `Q'_α` of §3.4. The
    /// buffer is cleared first and keeps its capacity: the AKNN search
    /// fills one its scratch keeps, so drawing `Q'_α` allocates nothing in
    /// steady state.
    pub fn sample_cut_indices_into(&self, t: Threshold, n: usize, seed: u64, idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend(
            self.memberships().iter().enumerate().filter(|&(_, &mu)| t.accepts(mu)).map(|(i, _)| i),
        );
        if idx.len() <= n {
            return;
        }
        // Partial Fisher–Yates over the cut index vector.
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for i in 0..n {
            let j = i + next(idx.len() - i);
            idx.swap(i, j);
        }
        idx.truncate(n);
    }

    /// Point accessor.
    #[inline]
    pub fn point(&self, i: usize) -> &Point<D> {
        &self.points()[i]
    }

    /// Membership accessor.
    #[inline]
    pub fn membership(&self, i: usize) -> f64 {
        self.memberships()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> FuzzyObject<2> {
        // A small pyramid-shaped object: center has µ=1, ring µ=0.5, rim µ=0.2.
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(-1.0, 0.0),
            Point::xy(0.0, 1.0),
            Point::xy(0.0, -1.0),
            Point::xy(2.0, 0.0),
            Point::xy(-2.0, 0.0),
        ];
        let mus = vec![1.0, 0.5, 0.5, 0.5, 0.5, 0.2, 0.2];
        FuzzyObject::new(ObjectId(7), pts, mus).unwrap()
    }

    #[test]
    fn validation_catches_bad_input() {
        let p = vec![Point::xy(0.0, 0.0)];
        assert_eq!(
            FuzzyObject::<2>::new(ObjectId(0), vec![], vec![]).unwrap_err(),
            ModelError::EmptyObject
        );
        assert!(matches!(
            FuzzyObject::new(ObjectId(0), p.clone(), vec![0.0]).unwrap_err(),
            ModelError::InvalidMembership { .. }
        ));
        assert!(matches!(
            FuzzyObject::new(ObjectId(0), p.clone(), vec![1.5]).unwrap_err(),
            ModelError::InvalidMembership { .. }
        ));
        assert_eq!(
            FuzzyObject::new(ObjectId(0), p.clone(), vec![0.9]).unwrap_err(),
            ModelError::EmptyKernel
        );
        assert!(matches!(
            FuzzyObject::new(ObjectId(0), p, vec![1.0, 0.5]).unwrap_err(),
            ModelError::LengthMismatch { .. }
        ));
        assert!(matches!(
            FuzzyObject::new(ObjectId(0), vec![Point::xy(f64::NAN, 0.0)], vec![1.0]).unwrap_err(),
            ModelError::NonFiniteCoordinate { .. }
        ));
    }

    #[test]
    fn cuts_shrink_as_alpha_grows() {
        let a = obj();
        let sizes: Vec<usize> = [0.0, 0.2, 0.5, 1.0]
            .iter()
            .map(|&v: &f64| a.cut_len(Threshold::at(v.max(f64::MIN_POSITIVE))))
            .collect();
        assert_eq!(sizes, vec![7, 7, 5, 1]);
        // Strict cut just above 0.5 drops the ring.
        assert_eq!(a.cut_len(Threshold::above(0.5)), 1);
    }

    #[test]
    fn mbrs_nest() {
        let a = obj();
        let support = a.support_mbr();
        let mid = a.cut_mbr(Threshold::at(0.5)).unwrap();
        let kernel = a.kernel_mbr();
        assert!(support.contains_mbr(&mid));
        assert!(mid.contains_mbr(&kernel));
        assert_eq!(support.lo(0), -2.0);
        assert_eq!(kernel.area(), 0.0);
    }

    #[test]
    fn empty_cut_for_strict_one() {
        let a = obj();
        assert!(a.cut_mbr(Threshold::above(1.0)).is_none());
        assert_eq!(a.cut_len(Threshold::above(1.0)), 0);
    }

    #[test]
    fn distinct_levels_sorted_dedup() {
        let a = obj();
        assert_eq!(a.distinct_levels(), vec![0.2, 0.5, 1.0]);
    }

    #[test]
    fn rep_point_is_kernel_member() {
        let a = obj();
        let rep = a.rep_point();
        assert_eq!(rep, Point::xy(0.0, 0.0));
    }

    #[test]
    fn sampling_is_within_cut_and_deterministic() {
        let a = obj();
        let t = Threshold::at(0.5);
        let (mut s1, mut s2) = (Vec::new(), vec![7; 9]);
        a.sample_cut_indices_into(t, 3, 99, &mut s1);
        a.sample_cut_indices_into(t, 3, 99, &mut s2);
        assert_eq!(s1, s2, "the buffer is cleared first");
        assert_eq!(s1.len(), 3);
        for &i in &s1 {
            assert!(t.accepts(a.membership(i)));
        }
        // Requesting more than available returns the whole cut.
        a.sample_cut_indices_into(t, 100, 1, &mut s1);
        assert_eq!(s1.len(), 5);
    }

    #[test]
    fn kd_tree_is_cached_and_consistent() {
        let a = obj();
        let t1 = a.kd_tree() as *const _;
        let t2 = a.kd_tree() as *const _;
        assert_eq!(t1, t2);
        assert_eq!(a.kd_tree().len(), a.len());
    }

    /// Decompose `a` into the columnar triple a stored record holds.
    fn columnar_parts(a: &FuzzyObject<2>) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let pb = a.by_membership();
        let n = a.len();
        let mut cols = Vec::with_capacity(2 * n);
        for d in 0..2 {
            cols.extend_from_slice(pb.coord_column(d));
        }
        (pb.source_indices().to_vec(), pb.memberships().to_vec(), cols)
    }

    #[test]
    fn from_columnar_round_trips_construction_order() {
        let a = obj();
        let (orig, mus, cols) = columnar_parts(&a);
        let b = FuzzyObject::from_columnar(a.id(), orig, mus, cols).unwrap();
        assert_eq!(a.points(), b.points());
        assert_eq!(a.memberships(), b.memberships());
        // The prefix cache is pre-filled and bitwise-identical to the one
        // a lazy build would produce.
        assert!(b.prefix_ready());
        let pa = a.by_membership();
        let pb = b.by_membership();
        assert_eq!(pa.memberships(), pb.memberships());
        assert_eq!(pa.source_indices(), pb.source_indices());
        for d in 0..2 {
            assert_eq!(pa.coord_column(d), pb.coord_column(d));
        }
    }

    #[test]
    fn from_columnar_rejects_malformed_layouts() {
        let a = obj();
        let (orig, mus, cols) = columnar_parts(&a);

        // Length mismatch between permutation and memberships.
        assert!(matches!(
            FuzzyObject::<2>::from_columnar(a.id(), orig.clone(), mus[1..].to_vec(), cols.clone())
                .unwrap_err(),
            ModelError::LengthMismatch { .. }
        ));
        // Empty record.
        assert_eq!(
            FuzzyObject::<2>::from_columnar(a.id(), vec![], vec![], vec![]).unwrap_err(),
            ModelError::EmptyObject
        );
        // Short coordinate columns.
        assert!(matches!(
            FuzzyObject::<2>::from_columnar(
                a.id(),
                orig.clone(),
                mus.clone(),
                cols[..cols.len() - 1].to_vec()
            )
            .unwrap_err(),
            ModelError::InvalidColumnarLayout { .. }
        ));
        // Duplicate source index (not a permutation).
        let mut bad = orig.clone();
        bad[1] = bad[0];
        assert!(matches!(
            FuzzyObject::<2>::from_columnar(a.id(), bad, mus.clone(), cols.clone()).unwrap_err(),
            ModelError::InvalidColumnarLayout { .. }
        ));
        // Out-of-range source index.
        let mut bad = orig.clone();
        bad[0] = orig.len() as u32;
        assert!(matches!(
            FuzzyObject::<2>::from_columnar(a.id(), bad, mus.clone(), cols.clone()).unwrap_err(),
            ModelError::InvalidColumnarLayout { .. }
        ));
        // Ascending memberships violate the sort contract.
        let mut bad = mus.clone();
        bad.swap(0, mus.len() - 1);
        assert!(matches!(
            FuzzyObject::<2>::from_columnar(a.id(), orig.clone(), bad, cols.clone()).unwrap_err(),
            ModelError::InvalidColumnarLayout { .. }
        ));
        // Equal memberships with the wrong orig order are also rejected
        // (the canonical layout breaks ties by ascending source index).
        let swapped = {
            let pb = a.by_membership();
            let mut o = pb.source_indices().to_vec();
            // Slots 1..=4 all carry µ=0.5 in `obj()`.
            o.swap(1, 2);
            o
        };
        assert!(matches!(
            FuzzyObject::<2>::from_columnar(a.id(), swapped, mus.clone(), cols.clone())
                .unwrap_err(),
            ModelError::InvalidColumnarLayout { .. }
        ));
        // Membership out of (0, 1] reports the *original* index.
        let mut bad = mus.clone();
        let last = bad.len() - 1;
        bad[last] = 0.0;
        match FuzzyObject::<2>::from_columnar(a.id(), orig.clone(), bad, cols.clone()).unwrap_err()
        {
            ModelError::InvalidMembership { index, .. } => {
                assert_eq!(index, orig[last] as usize)
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Missing kernel: scale every µ below 1 (keep order valid).
        let scaled: Vec<f64> = mus.iter().map(|&m| m * 0.5).collect();
        assert_eq!(
            FuzzyObject::<2>::from_columnar(a.id(), orig.clone(), scaled, cols.clone())
                .unwrap_err(),
            ModelError::EmptyKernel
        );
        // Non-finite coordinate.
        let mut bad = cols.clone();
        bad[0] = f64::NAN;
        assert!(matches!(
            FuzzyObject::<2>::from_columnar(a.id(), orig, mus, bad).unwrap_err(),
            ModelError::NonFiniteCoordinate { .. }
        ));
    }
}
