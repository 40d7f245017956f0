//! Metric-law property harness: the [`Metric`] the workspace ships must
//! actually be a metric, because the search layers prune with the
//! triangle inequality (the representative upper bound of Lemma 1, the
//! ball bounds of the approximate path). A "metric" violating the axioms
//! would make those prunes silently drop answers — so the axioms are
//! pinned here for [`L2`], on sampled point triples:
//!
//! * non-negativity: `d(a, b) ≥ 0`
//! * identity: `d(a, a) = 0`
//! * symmetry: `d(a, b) = d(b, a)` (bitwise, not just approximately —
//!   the determinism suites need evaluation-order invariance)
//! * triangle inequality: `d(a, c) ≤ d(a, b) + d(b, c)` (up to one ulp
//!   slack for float accumulation)
//!
//! plus the `dist_sq` consistency the squared-space engine leans on. The
//! α-distance seed contract under `L2` is pinned against the generic
//! pair fold in the geom differential suite (`metric_seam`).

use fuzzy_core::metric::{Metric, L2};
use fuzzy_geom::Point;
use proptest::prelude::*;

/// Check the four axioms on one concrete triple.
fn assert_metric_laws<M: Metric<2>>(metric: &M, a: &Point<2>, b: &Point<2>, c: &Point<2>) {
    let ab = metric.dist(a, b);
    let ba = metric.dist(b, a);
    let bc = metric.dist(b, c);
    let ac = metric.dist(a, c);
    assert!(ab >= 0.0, "{}: d(a,b) = {ab} < 0", metric.name());
    assert_eq!(metric.dist(a, a).to_bits(), 0.0_f64.to_bits(), "{}: d(a,a) != 0", metric.name());
    assert_eq!(ab.to_bits(), ba.to_bits(), "{}: asymmetric {ab} vs {ba}", metric.name());
    // One ulp of slack per addition for float accumulation.
    let slack = 1.0 + 1e-12;
    assert!(
        ac <= (ab + bc) * slack,
        "{}: triangle violated: d(a,c) = {ac} > {ab} + {bc}",
        metric.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// L2 satisfies the metric axioms on arbitrary coordinate triples.
    #[test]
    fn l2_is_a_metric(
        ax in -100.0..100.0f64, ay in -100.0..100.0f64,
        bx in -100.0..100.0f64, by in -100.0..100.0f64,
        cx in -100.0..100.0f64, cy in -100.0..100.0f64,
    ) {
        let (a, b, c) = (Point::xy(ax, ay), Point::xy(bx, by), Point::xy(cx, cy));
        assert_metric_laws(&L2, &a, &b, &c);
        // The squared hook must agree with its contract: d² computed by
        // the default square-of-dist for generic metrics; for L2 the
        // override sums squares, which must still satisfy d_sq ≥ 0 and
        // sqrt(d_sq) == dist bit-for-bit.
        prop_assert_eq!(L2.dist_sq(&a, &b).sqrt().to_bits(), L2.dist(&a, &b).to_bits());
    }
}
