//! Per-object summaries stored in R-tree leaf entries (Sections 3.1–3.4).
//!
//! The paper keeps fuzzy objects on disk and holds only compact metadata in
//! the index: the support MBR (basic search), plus — for the optimized
//! algorithms — the kernel MBR, the optimal conservative lines `L_opt` of
//! every dimension side, and the kernel representative point `rep(A)`.

use crate::boundary::BoundaryFunctions;
use crate::error::ModelError;
use crate::object::{FuzzyObject, ObjectId};
use crate::threshold::Threshold;
use fuzzy_geom::{fit_conservative_line, ConservativeLine, Mbr, Point};

/// Compact, index-resident description of one fuzzy object.
#[derive(Clone, Copy, Debug)]
pub struct ObjectSummary<const D: usize> {
    /// Object identifier (the "pointer to the actual location on disk").
    pub id: ObjectId,
    /// MBR of the support set, `M_A(0)`.
    pub support_mbr: Mbr<D>,
    /// MBR of the kernel set, `M_A(1)`.
    pub kernel_mbr: Mbr<D>,
    /// Conservative lines for the upper side of each dimension
    /// (`m^{i+}_opt, t^{i+}_opt`).
    pub upper_lines: [ConservativeLine; D],
    /// Conservative lines for the lower side of each dimension.
    pub lower_lines: [ConservativeLine; D],
    /// Kernel representative point `rep(A)` (§3.4).
    pub rep: Point<D>,
    /// Number of probabilistic points in the object.
    pub point_count: u32,
}

impl<const D: usize> ObjectSummary<D> {
    /// Build the summary from an object: computes the boundary functions and
    /// fits one optimal conservative line per dimension side.
    pub fn from_object(obj: &FuzzyObject<D>) -> Self {
        let bf = BoundaryFunctions::compute(obj);
        let mut upper_lines = [ConservativeLine::ZERO; D];
        let mut lower_lines = [ConservativeLine::ZERO; D];
        for i in 0..D {
            upper_lines[i] = sanitize(fit_conservative_line(&bf.upper_samples(i)), &bf, i, true);
            lower_lines[i] = sanitize(fit_conservative_line(&bf.lower_samples(i)), &bf, i, false);
        }
        Self {
            id: obj.id(),
            support_mbr: obj.support_mbr(),
            kernel_mbr: obj.kernel_mbr(),
            upper_lines,
            lower_lines,
            rep: obj.rep_point(),
            point_count: obj.len() as u32,
        }
    }

    /// A summary from stored fields (each box as `[lo, hi]`), checked for
    /// what every summary [`ObjectSummary::from_object`] builds holds, in
    /// this order: every value is finite, both boxes have `lo ≤ hi`, the
    /// kernel box lies inside the support box, `rep` lies inside the kernel
    /// box, and the object has at least one point. The bounds prune on
    /// these boxes, so a summary read from bytes that no checksum covers
    /// must pass this before a search trusts it.
    pub fn from_stored(
        id: ObjectId,
        point_count: u32,
        support: [[f64; D]; 2],
        kernel: [[f64; D]; 2],
        upper_lines: [ConservativeLine; D],
        lower_lines: [ConservativeLine; D],
        rep: [f64; D],
    ) -> Result<Self, ModelError> {
        let broken = |reason| Err(ModelError::InvalidSummary { reason });
        let boxes = support.iter().chain(&kernel).chain([&rep]).flatten().copied();
        let lines = upper_lines.iter().chain(&lower_lines).flat_map(|l| [l.m, l.t]);
        if !boxes.chain(lines).all(f64::is_finite) {
            return broken("a value is not finite");
        }
        let ([s_lo, s_hi], [k_lo, k_hi]) = (support, kernel);
        if !(0..D).all(|i| s_lo[i] <= s_hi[i] && k_lo[i] <= k_hi[i]) {
            return broken("a box is inverted");
        }
        if !(0..D).all(|i| s_lo[i] <= k_lo[i] && k_hi[i] <= s_hi[i]) {
            return broken("the kernel box leaves the support box");
        }
        if !(0..D).all(|i| k_lo[i] <= rep[i] && rep[i] <= k_hi[i]) {
            return broken("the representative point leaves the kernel box");
        }
        if point_count == 0 {
            return broken("the object has no points");
        }
        Ok(Self {
            id,
            support_mbr: Mbr::new(s_lo, s_hi),
            kernel_mbr: Mbr::new(k_lo, k_hi),
            upper_lines,
            lower_lines,
            rep: Point::new(rep),
            point_count,
        })
    }

    /// The approximated α-cut MBR `M_A(α)*` of Equation (2):
    ///
    /// ```text
    /// M^{i+}(α)* = min{ M^{i+}(1) + (m^{i+}·α + t^{i+}),  M^{i+}(0) }
    /// M^{i−}(α)* = max{ M^{i−}(1) − (m^{i−}·α + t^{i−}),  M^{i−}(0) }
    /// ```
    ///
    /// Guaranteed to enclose the exact cut MBR `M_A(α)` and to be enclosed
    /// by the support MBR. Strict thresholds evaluate the lines at the same
    /// abscissa, which is conservative because the strict cut is a subset of
    /// the inclusive one.
    pub fn approx_cut_mbr(&self, t: Threshold) -> Mbr<D> {
        let alpha = t.value;
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            let up = self.upper_lines[i].eval(alpha).max(0.0);
            let dn = self.lower_lines[i].eval(alpha).max(0.0);
            hi[i] =
                (self.kernel_mbr.hi(i) + up).min(self.support_mbr.hi(i)).max(self.kernel_mbr.hi(i));
            lo[i] =
                (self.kernel_mbr.lo(i) - dn).max(self.support_mbr.lo(i)).min(self.kernel_mbr.lo(i));
        }
        Mbr::new(lo, hi)
    }
}

/// Defensive post-processing of a fitted line: boundary functions are
/// non-increasing, so the optimal line must have non-positive slope; a
/// positive or non-finite slope can only arise from floating-point
/// degeneracies, in which case we fall back to the (always conservative)
/// horizontal line through the largest gap. A stored line must be finite:
/// [`ObjectSummary::from_stored`] rejects any other.
fn sanitize<const D: usize>(
    line: ConservativeLine,
    bf: &BoundaryFunctions<D>,
    dim: usize,
    upper: bool,
) -> ConservativeLine {
    if line.m <= 0.0 && line.m.is_finite() && line.t.is_finite() {
        return line;
    }
    let max_gap = if upper {
        bf.upper.iter().map(|r| r[dim]).fold(0.0, f64::max)
    } else {
        bf.lower.iter().map(|r| r[dim]).fold(0.0, f64::max)
    };
    ConservativeLine { m: 0.0, t: max_gap }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_geom::Point;

    fn ring_object(seed: u64, n: usize) -> FuzzyObject<2> {
        // Points on concentric rings, membership decreasing outwards.
        let mut pts = Vec::with_capacity(n);
        let mut mus = Vec::with_capacity(n);
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        pts.push(Point::xy(0.0, 0.0));
        mus.push(1.0);
        for _ in 1..n {
            let r = rnd() * 2.0;
            let theta = rnd() * std::f64::consts::TAU;
            pts.push(Point::xy(r * theta.cos(), r * theta.sin()));
            // Membership decays with radius, quantized to 0.05 steps.
            let mu = ((1.0 - r / 2.2).max(0.05) * 20.0).round() / 20.0;
            mus.push(mu.clamp(0.05, 1.0));
        }
        FuzzyObject::new(ObjectId(seed), pts, mus).unwrap()
    }

    #[test]
    fn approx_mbr_sandwiches_exact_cut() {
        for seed in 1..20u64 {
            let obj = ring_object(seed, 120);
            let s = ObjectSummary::from_object(&obj);
            for v in [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0] {
                for strict in [false, true] {
                    let t = Threshold { value: v, strict };
                    let approx = s.approx_cut_mbr(t);
                    assert!(
                        s.support_mbr.contains_mbr(&approx),
                        "seed {seed} t {t}: approx not within support"
                    );
                    assert!(
                        approx.contains_mbr(&s.kernel_mbr),
                        "seed {seed} t {t}: approx misses kernel"
                    );
                    if let Some(exact) = obj.cut_mbr(t) {
                        // Both corners of the exact cut, so all of it, lie
                        // within rounding of the approximation.
                        let near = |c: &[f64; 2]| approx.min_dist_point(&Point::new(*c)) <= 1e-12;
                        assert!(
                            near(exact.lo_coords()) && near(exact.hi_coords()),
                            "seed {seed} t {t}: approx {approx:?} misses exact {exact:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn approx_shrinks_with_alpha() {
        let obj = ring_object(5, 200);
        let s = ObjectSummary::from_object(&obj);
        let mut prev_area = f64::INFINITY;
        for v in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let area = s.approx_cut_mbr(Threshold::at(v.max(f64::MIN_POSITIVE))).area();
            assert!(area <= prev_area + 1e-9, "area grew at α={v}");
            prev_area = area;
        }
    }

    #[test]
    fn tighter_than_support_at_high_alpha() {
        // The whole point of §3.2: at high α the approximation beats the
        // support MBR that the basic algorithm uses.
        let obj = ring_object(9, 300);
        let s = ObjectSummary::from_object(&obj);
        let at_09 = s.approx_cut_mbr(Threshold::at(0.9));
        assert!(at_09.area() < s.support_mbr.area() * 0.9);
    }

    #[test]
    fn lines_have_non_positive_slope() {
        for seed in 1..10u64 {
            let obj = ring_object(seed * 3 + 1, 150);
            let s = ObjectSummary::from_object(&obj);
            for i in 0..2 {
                assert!(s.upper_lines[i].m <= 0.0);
                assert!(s.lower_lines[i].m <= 0.0);
            }
        }
    }
}
