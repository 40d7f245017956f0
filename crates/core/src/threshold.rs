//! Probability thresholds with exact strict/inclusive semantics.

use fuzzy_geom::LevelFilter;
use std::fmt;

/// A probability threshold α for selecting α-cuts.
///
/// The inclusive form `Threshold::at(v)` selects the classical α-cut
/// `{a : µ(a) ≥ v}`. The strict form `Threshold::above(v)` selects
/// `{a : µ(a) > v}`, i.e. the cut *immediately above* `v`.
///
/// The strict form is how this implementation realises the `α ← α* + ε`
/// stepping of Algorithms 3 and 5 exactly: because the α-distance is a step
/// function that is constant on intervals `(ℓ_{j-1}, ℓ_j]` between adjacent
/// membership levels, evaluating "just past" a critical value `α*` needs no
/// floating-point epsilon — it is precisely the strict cut at `α*`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Threshold {
    /// Threshold value in `[0, 1]`.
    pub value: f64,
    /// When true the cut is `µ > value`, otherwise `µ ≥ value`.
    pub strict: bool,
}

impl Threshold {
    /// Inclusive threshold: α-cut `{a : µ(a) ≥ v}`.
    ///
    /// # Panics
    /// When `v` is outside `[0, 1]` or not finite.
    #[inline]
    pub fn at(v: f64) -> Self {
        assert!(v.is_finite() && (0.0..=1.0).contains(&v), "threshold {v} outside [0,1]");
        Self { value: v, strict: false }
    }

    /// Strict threshold: the cut `{a : µ(a) > v}` immediately above `v`.
    ///
    /// # Panics
    /// When `v` is outside `[0, 1]` or not finite.
    #[inline]
    pub fn above(v: f64) -> Self {
        assert!(v.is_finite() && (0.0..=1.0).contains(&v), "threshold {v} outside [0,1]");
        Self { value: v, strict: true }
    }

    /// The support-selecting threshold (`µ > 0`).
    #[inline]
    pub const fn support() -> Self {
        Self { value: 0.0, strict: true }
    }

    /// The kernel-selecting threshold (`µ ≥ 1`).
    #[inline]
    pub const fn kernel() -> Self {
        Self { value: 1.0, strict: false }
    }

    /// Does a membership value pass this threshold?
    #[inline]
    pub fn accepts(&self, mu: f64) -> bool {
        if self.strict {
            mu > self.value
        } else {
            mu >= self.value
        }
    }

    /// The equivalent kd-tree level filter.
    #[inline]
    pub fn filter(&self) -> LevelFilter {
        LevelFilter { min: self.value, strict: self.strict }
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.strict {
            write!(f, "α>{}", self.value)
        } else {
            write!(f, "α≥{}", self.value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_semantics() {
        let t = Threshold::at(0.5);
        assert!(t.accepts(0.5) && t.accepts(0.9) && !t.accepts(0.4999));
        let s = Threshold::above(0.5);
        assert!(!s.accepts(0.5) && s.accepts(0.5001));
        assert!(Threshold::support().accepts(f64::MIN_POSITIVE));
        assert!(!Threshold::support().accepts(0.0));
        assert!(Threshold::kernel().accepts(1.0));
        assert!(!Threshold::kernel().accepts(0.999999));
    }

    #[test]
    fn filter_roundtrip() {
        let t = Threshold::above(0.7);
        let f = t.filter();
        for mu in [0.0, 0.3, 0.7, 0.70001, 1.0] {
            assert_eq!(t.accepts(mu), f.accepts(mu));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range() {
        let _ = Threshold::at(1.5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Threshold::at(0.5).to_string(), "α≥0.5");
        assert_eq!(Threshold::above(0.5).to_string(), "α>0.5");
    }
}
