//! α-distance evaluation (Definition 3):
//! `d_α(A, B) = min_{⟨a,b⟩ ∈ A_α×B_α} d(a, b)`.
//!
//! The definition only needs a metric `d`; this module is the **L2
//! specialization** — the columnar/kd fast path that
//! [`crate::metric::L2`] routes its
//! [`Metric::alpha_distance_sq_bounded`](crate::metric::Metric::alpha_distance_sq_bounded)
//! hook to. Other metrics evaluate through the seam in [`crate::metric`]
//! (the generic membership-filtered pair scan, or their own override);
//! the engine above never calls this module directly, it calls the hook —
//! which is why generic and specialized answers agree bitwise under L2.
//!
//! The paper's central cost statement — "the evaluation of α-distance is
//! quadratic with the number of points" — makes this module the system's
//! hot path. Everything here therefore works in **squared** distances and
//! takes the single `sqrt` only at the API boundary; the result is
//! bitwise-identical to minimizing real distances because `sqrt` is
//! correctly rounded and monotone.
//!
//! Evaluators:
//!
//! * [`alpha_distance_brute`] — the naive per-pair scan (with a `sqrt` per
//!   pair), kept verbatim as the test oracle and for the `abl-dist`
//!   ablation.
//! * [`alpha_distance`] / [`alpha_distance_sq_bounded`] — the adaptive
//!   kernel.
//!   Its two arguments play different roles. The **first** is the *probed*
//!   side — in AKNN an object decoded from the store for this one call. It
//!   is never indexed: it is scanned point by point through its
//!   [`MembershipPrefix`], which for a decoded object *is* the record's
//!   columns (no sort, no copy; an object built by [`FuzzyObject::new`]
//!   pays one sort per lifetime instead), and the kernel never reads a
//!   kd-tree it may carry — a caller may probe with an object that was a
//!   query earlier. The **second** is the *reusable*
//!   side — the query object in AKNN: the kd-tree is only ever built and
//!   searched there, and its cut is merely *counted* until a strategy needs
//!   more.
//!
//!   The probed side's cut is the prefix `0..n`, and it is visited **from
//!   the tail**: lowest admitted membership first. Memberships fall off
//!   with distance from an object's kernel, so the tail is the cut's
//!   periphery — where the closest pairs between two separate objects
//!   live. Starting there drops the running bound to (nearly) its final
//!   value within the first few points, and everything after prunes
//!   against a tight bound; centre-first keeps the bound loose until the
//!   very end (measured on 1 000-point objects: a quarter of the query
//!   throughput). The order only decides how fast the bound shrinks, never
//!   the answer.
//!
//!   Per call the kernel picks the cheaper of two exact strategies from the
//!   cut sizes alone:
//!   1. **dense** — when the cut product is small, each probed point runs
//!      a branchless columnar min-reduction over the reusable side's
//!      contiguous α-cut prefix (no tree; the reusable side's prefix is
//!      built here, on first use);
//!   2. **single-tree** — for larger cuts, each probed point *that can
//!      still win* runs a seeded, distance-only search in the reusable
//!      side's kd-tree
//!      ([`KdTree::min_dist_sq_within`](fuzzy_geom::KdTree::min_dist_sq_within)),
//!      chaining the running best as the next seed (the reusable side's
//!      prefix is never built). "Can still win" is the **gap pass**: the
//!      prefix is walked from the tail in blocks, and one lane-wide pass
//!      per block computes every point's squared gap to the tree's root
//!      box straight from the coordinate columns — per dimension
//!      `max(lo − c, c − hi, 0)`, squared and summed in dimension order,
//!      the value the tree's own root test computes. A point whose gap is
//!      not below the running best is neither gathered nor searched. That
//!      is exact: no tree point is closer to it than the box is, so its
//!      search would have returned `None` at the root. (The gap pass
//!      rejects points *outside* the query's box; points inside it that sit
//!      in a gap between the query's points are rejected by the tree's
//!      occupancy bitmap, in O(1), before the descent.) The gap is compared
//!      with the *running* best, not the caller's seed: the engine's seeds
//!      are tight but the boxes overlap them — on paper-sized objects three
//!      quarters of the probed points lie within the seed of the query's
//!      box, while the bound the periphery-first block leaves behind
//!      removes most of them.
//!
//!   Both strategies minimize the same set of squared pair distances, so
//!   they return bitwise-equal results (property-tested against the
//!   oracle).
//!
//! The `upper_bound_sq` seed of [`alpha_distance_sq_bounded`] realizes the
//! bound-seeding idea the AKNN traversal exploits (§3.3–3.4): pairs at or
//! beyond the seed are pruned, and `None` reports that no qualifying pair
//! closer than the seed exists.

use crate::object::{FuzzyObject, MembershipPrefix};
use crate::threshold::Threshold;
use fuzzy_geom::{KdTree, LevelFilter};

/// Below this `|A_α|·|B_α|` product the dense prefix × prefix loop
/// beats the single-tree search (no tree build, no recursion, a vectorized
/// branchless inner loop). Chosen so objects of a few hundred points
/// never pay a tree construction.
const DENSE_PAIR_BUDGET: usize = 65536;

/// α-distance via the adaptive kernel. Returns `None` when either cut is
/// empty under `t` (possible only for strict thresholds at the top level).
pub fn alpha_distance<const D: usize>(
    a: &FuzzyObject<D>,
    b: &FuzzyObject<D>,
    t: Threshold,
) -> Option<f64> {
    alpha_distance_sq_bounded(a, b, t, f64::INFINITY).map(f64::sqrt)
}

/// The squared-space workhorse behind every evaluator: the **squared**
/// α-distance, pruned by a **squared** seed. `None` when either cut is
/// empty or no pair lies strictly closer than `upper_bound_sq`.
///
/// This is the form the query engine calls on its hot path — heap keys,
/// pruning bounds and seeds all stay squared, and the single `sqrt` is
/// taken when a distance is reported to the user.
///
/// Deliberately never inlined: a caller that wraps the call (a timing
/// span, a metric adapter) must run the same machine code as one that does
/// not, or a traced run measures a different kernel than an untraced one.
#[inline(never)]
pub fn alpha_distance_sq_bounded<const D: usize>(
    a: &FuzzyObject<D>,
    b: &FuzzyObject<D>,
    t: Threshold,
    upper_bound_sq: f64,
) -> Option<f64> {
    // `a` is the probed side: its cut is a prefix of the columns it was
    // decoded into, scanned whatever else it carries.
    let pa = a.by_membership();
    let na = pa.prefix_len(t);
    if na == 0 {
        return None;
    }
    // `b` is the reusable side: count its cut, build nothing yet.
    let nb = b.cut_len(t);
    if nb == 0 {
        return None;
    }
    if na.saturating_mul(nb) <= DENSE_PAIR_BUDGET {
        return dense_scan_sq(pa, na, b.by_membership(), nb, upper_bound_sq);
    }
    single_tree_sq(b.kd_tree(), t.filter(), pa, na, upper_bound_sq)
}

/// Dense path: each point of `a`'s cut prefix, periphery first, runs a
/// branchless columnar min-reduction over `b`'s contiguous cut prefix. A
/// point whose distance to that prefix's bounding box already reaches the
/// running best skips its row entirely — with the engine's tight probe
/// seeds, dominated evaluations collapse to a handful of box tests
/// (bitwise-safe: a skipped row's minimum cannot beat the bound that
/// skipped it).
fn dense_scan_sq<const D: usize>(
    pa: &MembershipPrefix<D>,
    na: usize,
    pb: &MembershipPrefix<D>,
    nb: usize,
    upper_bound_sq: f64,
) -> Option<f64> {
    let (cut_lo, cut_hi) = pb.prefix_bounds(nb);
    let mut best = upper_bound_sq;
    let mut found = false;
    for j in (0..na).rev() {
        let p = pa.point(j);
        if p.dist_sq_to_box(&cut_lo, &cut_hi) >= best {
            continue;
        }
        let row_min = pb.min_dist_sq_to_prefix(&p, nb);
        if row_min < best {
            best = row_min;
            found = true;
        }
    }
    found.then_some(best)
}

/// Points per lane-wide gap pass of [`single_tree_sq`]. Measured flat from
/// 16 to 256 on 1 000-point objects; a multiple of the kernel lane width.
const GAP_BLOCK: usize = 64;

/// One seeded nearest-distance search per point of the scanned side's cut
/// prefix `0..n` that can still win, periphery first, chaining the running
/// best as the next seed. The prefix is walked from the tail in blocks:
/// one pass over the coordinate columns gives every point of the block its
/// squared gap to the tree's root box, and only points whose gap is below
/// the running best are gathered and searched (module docs: why this is
/// exact, and why the bound is the running one).
fn single_tree_sq<const D: usize>(
    tree: &KdTree<D>,
    filter: LevelFilter,
    scanned: &MembershipPrefix<D>,
    n: usize,
    upper_bound_sq: f64,
) -> Option<f64> {
    let (lo, hi) = (tree.mbr().lo_coords(), tree.mbr().hi_coords());
    let mut best = upper_bound_sq;
    let mut found = false;
    let mut block = [0.0; GAP_BLOCK];
    let mut end = n;
    while end > 0 {
        let start = end.saturating_sub(GAP_BLOCK);
        let gaps = &mut block[..end - start];
        gaps.fill(0.0);
        for d in 0..D {
            let col = &scanned.coord_column(d)[start..end];
            for (gap, &c) in gaps.iter_mut().zip(col) {
                let (below, above) = (lo[d] - c, c - hi[d]);
                let g = if below > above { below } else { above };
                let g = if g > 0.0 { g } else { 0.0 };
                *gap += g * g;
            }
        }
        for j in (start..end).rev() {
            if gaps[j - start] >= best {
                continue;
            }
            if let Some(d2) = tree.min_dist_sq_within(&scanned.point(j), filter, best) {
                best = d2;
                found = true;
            }
        }
        end = start;
    }
    found.then_some(best)
}

/// Reference all-pairs evaluator (a `sqrt` per candidate pair; the bitwise
/// oracle every optimized path is property-tested against).
pub fn alpha_distance_brute<const D: usize>(
    a: &FuzzyObject<D>,
    b: &FuzzyObject<D>,
    t: Threshold,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for (p, mu) in a.iter() {
        if !t.accepts(mu) {
            continue;
        }
        for (q, nu) in b.iter() {
            if !t.accepts(nu) {
                continue;
            }
            let d = p.dist(q);
            best = Some(best.map_or(d, |x: f64| x.min(d)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;
    use fuzzy_geom::Point;

    fn blob(seed: u64, n: usize, cx: f64, cy: f64) -> FuzzyObject<2> {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = vec![Point::xy(cx, cy)];
        let mut mus = vec![1.0];
        for _ in 1..n {
            let r = rnd();
            let th = rnd() * std::f64::consts::TAU;
            pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
            mus.push(((1.0 - r) * 0.9 + 0.05).clamp(0.01, 1.0));
        }
        FuzzyObject::new(ObjectId(seed), pts, mus).unwrap()
    }

    /// `a` as a store probe hands it over: rebuilt from its record columns,
    /// so it holds the prefix view only.
    fn decoded(a: &FuzzyObject<2>) -> FuzzyObject<2> {
        let pa = a.by_membership();
        let cols = [pa.coord_column(0), pa.coord_column(1)].concat();
        let probed = FuzzyObject::from_columnar(
            a.id(),
            pa.source_indices().to_vec(),
            pa.memberships().to_vec(),
            cols,
        )
        .unwrap();
        assert!(probed.prefix_ready() && !probed.source_ready());
        probed
    }

    /// The kernel on `(a, b)` equals `want` bitwise and honours the seed
    /// contract just above and at the answer.
    fn assert_kernel(a: &FuzzyObject<2>, b: &FuzzyObject<2>, t: Threshold, want: Option<f64>) {
        let got = alpha_distance_sq_bounded(a, b, t, f64::INFINITY);
        assert_eq!(got.map(|d| d.sqrt().to_bits()), want.map(f64::to_bits), "{t}: {got:?}");
        if let Some(d_sq) = got {
            assert_eq!(alpha_distance_sq_bounded(a, b, t, d_sq * (1.0 + 1e-9)), Some(d_sq));
            assert_eq!(alpha_distance_sq_bounded(a, b, t, d_sq), None);
        }
    }

    #[test]
    fn adaptive_kernel_matches_brute_force_bitwise() {
        // 80×90 points stay under the dense budget at every α: the dense
        // strategy, on a constructed and on a decoded probed side.
        for seed in 1..10u64 {
            let a = blob(seed, 80, 0.0, 0.0);
            let b = blob(seed + 100, 90, 3.0, 1.0);
            let probed = decoded(&a);
            for v in [0.05, 0.3, 0.5, 0.8, 1.0] {
                for strict in [false, true] {
                    let t = Threshold { value: v, strict };
                    let want = alpha_distance_brute(&a, &b, t);
                    assert_kernel(&a, &b, t, want);
                    assert_kernel(&probed, &b, t, want);
                }
            }
            assert!(!probed.source_ready() && !probed.kd_tree_ready());
            assert!(!b.kd_tree_ready(), "the dense strategy builds no tree");
        }
    }

    #[test]
    fn all_strategies_agree_bitwise() {
        // Pairs under the dense budget at every α (120 × 110 points) and a
        // pair above it at α 0.05 (300 × 300 support cuts), in both
        // argument orders, with the probed side bare or carrying a kd-tree
        // of its own — as when an object that was a query earlier is
        // probed. The kernel scans the probed
        // side's prefix whatever it carries; only the tree strategy builds
        // the query's tree. Every case runs four times against one `want`,
        // so an answer is also reproducible.
        let mut cases: Vec<_> = [2u64, 5, 9]
            .iter()
            .flat_map(|&seed| {
                let (a, b) = (blob(seed, 120, 0.0, 0.0), blob(seed + 7, 110, 2.0, -1.0));
                [0.1, 0.2, 0.5, 0.8, 0.9].map(|v| (a.clone(), b.clone(), Threshold::at(v), true))
            })
            .collect();
        let (a, b) = (blob(31, 300, 0.0, 0.0), blob(32, 300, 1.5, 0.5));
        cases.push((a.clone(), b.clone(), Threshold::at(0.05), false));
        cases.push((a, b, Threshold::above(0.05), false));
        // 30 points apart and 480 points overlapping at α 0.2 / 0.5 / 0.8:
        // the 480-point cuts cross the dense budget as α falls.
        for (n, dx, dense) in [(30, 3.0, [true; 3]), (480, 1.0, [false, true, true])] {
            let (a, b) = (blob(40 + n as u64, n, 0.0, 0.0), blob(41 + n as u64, n, dx, 0.5));
            for (v, dense) in [0.2, 0.5, 0.8].into_iter().zip(dense) {
                cases.push((a.clone(), b.clone(), Threshold::at(v), dense));
            }
        }
        for (x, y, t, dense) in cases {
            let product = x.cut_len(t) * y.cut_len(t);
            assert_eq!(product <= DENSE_PAIR_BUDGET, dense, "{t}: {product} pairs");
            let want = alpha_distance_brute(&x, &y, t);
            for (probed, query) in [(&x, &y), (&y, &x)] {
                for probed_tree in [false, true] {
                    let (a, b) = (probed.clone(), query.clone());
                    if probed_tree {
                        a.kd_tree();
                    }
                    assert_kernel(&a, &b, t, want);
                    assert_eq!(b.kd_tree_ready(), !dense, "{t}: the query's tree");
                }
            }
        }
    }

    #[test]
    fn tree_paths_match_brute_above_the_dense_budget() {
        // Force the cut product above the real dispatch constant so the
        // tree strategy actually runs, on the hot probe shape, with the
        // seeded forms (just above the answer preserves it bitwise, at the
        // answer prunes to None): a decoded probed side against a query
        // that has its tree, and against one that does not yet — inclusive
        // and strict cuts. Only the query's tree is ever built; the probed
        // side stays columns.
        let n = 300; // 300×300 support cuts → 90 000 pairs
        let t = Threshold::at(0.05);
        let fresh = |id: u64| (blob(id, n, 0.0, 0.0), blob(id + 1, n, 1.5, 0.5));
        let (a0, b0) = fresh(31);
        let product = a0.by_membership().prefix_len(t) * b0.by_membership().prefix_len(t);
        assert!(product > super::DENSE_PAIR_BUDGET, "test objects too small: {product}");
        for t in [t, Threshold::above(0.05)] {
            let want = alpha_distance_brute(&a0, &b0, t);
            for prebuilt in [true, false] {
                let (a, b) = fresh(31);
                if prebuilt {
                    b.kd_tree();
                }
                let probed = decoded(&a);
                assert_kernel(&probed, &b, t, want);
                assert!(!probed.source_ready() && !probed.kd_tree_ready());
                assert!(b.kd_tree_ready() && !b.prefix_ready(), "tree paths never sort b");
            }
        }
    }

    /// `n` points of the unit disc around `(cx, 0)` on three membership
    /// rings — 0.8 within 0.4 of the centre, 0.5 within 0.8, 0.3 outside —
    /// with the kernel point first, just off the centre (so two concentric
    /// discs are not at distance zero).
    fn ringed(seed: u64, n: usize, cx: f64) -> (Vec<Point<2>>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = vec![Point::xy(cx + 0.03 * rnd(), 0.03 * rnd())];
        let mut mus = vec![1.0];
        for _ in 1..n {
            let (r, th) = (rnd(), rnd() * std::f64::consts::TAU);
            pts.push(Point::xy(cx + r * th.cos(), r * th.sin()));
            mus.push(if r < 0.4 {
                0.8
            } else if r < 0.8 {
                0.5
            } else {
                0.3
            });
        }
        (pts, mus)
    }

    #[test]
    fn blocked_chain_matches_brute_at_every_block_boundary() {
        // Probed cuts of one point, one block and a point either side, two
        // blocks and a point either side, and a paper-sized 1 000 (the
        // inclusive cut is the whole object; the strict one drops the outer
        // ring, the periphery the walk starts from) — half-overlapping a
        // query big enough that every cut product is above the dense budget.
        for n in [1usize, 63, 64, 65, 127, 128, 129, 1000] {
            let (qp, qm) = ringed(n as u64 + 1000, 2 * DENSE_PAIR_BUDGET / n + 64, 0.0);
            let (ap, am) = ringed(n as u64, n, 1.0);
            // The decoy: forty points below both cuts on the query's kernel
            // point. A chain that walked past the cut prefix would answer 0.
            let mut decoy = (ap.clone(), am.clone());
            decoy.0.extend([qp[0]; 40]);
            decoy.1.extend([0.1; 40]);
            let plain = FuzzyObject::new(ObjectId(1), ap, am).unwrap();
            let decoyed = FuzzyObject::new(ObjectId(1), decoy.0, decoy.1).unwrap();
            // `cold` only ever meets the brute scan; the resident query is
            // its copy with the tree built once, as in the engine.
            let cold = FuzzyObject::new(ObjectId(2), qp, qm).unwrap();
            let resident = cold.clone();
            resident.kd_tree();
            for t in [Threshold::at(0.3), Threshold::above(0.3)] {
                let want = alpha_distance_brute(&plain, &cold, t);
                assert!(want.is_some_and(|d| d > 0.0), "n {n} {t}: {want:?}");
                let fresh = cold.clone();
                for (source, q) in [(&plain, &resident), (&decoyed, &resident), (&decoyed, &fresh)]
                {
                    let probed = decoded(source);
                    let cut = probed.by_membership().prefix_len(t);
                    assert!(cut * q.cut_len(t) > DENSE_PAIR_BUDGET, "n {n} {t}: dense");
                    assert!(t.strict || cut == n, "the inclusive cut is the probed size");
                    assert_kernel(&probed, q, t, want);
                    assert!(!probed.source_ready() && !probed.kd_tree_ready());
                    assert!(q.kd_tree_ready() && !q.prefix_ready(), "tree paths never sort q");
                }
            }
        }
    }

    #[test]
    fn non_positive_bounds_admit_no_pair() {
        let a = blob(15, 40, 0.0, 0.0);
        let b = blob(16, 40, 0.5, 0.0);
        let t = Threshold::at(0.2);
        let exact_sq = alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY).unwrap();
        assert!(exact_sq < 1.0, "a bound of 1.0 would admit the pair: {exact_sq}");
        for bound_sq in [-1.0, -0.0, 0.0, f64::NEG_INFINITY] {
            let got = alpha_distance_sq_bounded(&a, &b, t, bound_sq);
            assert_eq!(got, None, "bound {bound_sq}");
        }
    }

    #[test]
    fn monotone_in_alpha() {
        let a = blob(3, 100, 0.0, 0.0);
        let b = blob(4, 100, 4.0, 0.0);
        let mut prev = 0.0;
        for v in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let d = alpha_distance(&a, &b, Threshold::at(v)).unwrap();
            assert!(d >= prev - 1e-12, "α-distance decreased at {v}");
            prev = d;
        }
    }

    #[test]
    fn kernel_distance_uses_only_kernel_points() {
        let a = FuzzyObject::new(
            ObjectId(1),
            vec![Point::xy(0.0, 0.0), Point::xy(5.0, 0.0)],
            vec![1.0, 0.2],
        )
        .unwrap();
        let b = FuzzyObject::new(
            ObjectId(2),
            vec![Point::xy(10.0, 0.0), Point::xy(6.0, 0.0)],
            vec![1.0, 0.3],
        )
        .unwrap();
        // At the kernel level only (0,0) and (10,0) qualify.
        assert_eq!(alpha_distance(&a, &b, Threshold::kernel()).unwrap(), 10.0);
        // At support level the closest pair is (5,0)-(6,0).
        assert_eq!(alpha_distance(&a, &b, Threshold::support()).unwrap(), 1.0);
    }

    #[test]
    fn strict_top_threshold_yields_none() {
        let a = blob(7, 30, 0.0, 0.0);
        let b = blob(8, 30, 1.0, 0.0);
        assert_eq!(alpha_distance(&a, &b, Threshold::above(1.0)), None);
    }

    #[test]
    fn bounded_evaluation_respects_seed() {
        let a = blob(9, 60, 0.0, 0.0);
        let b = blob(10, 60, 5.0, 0.0);
        let t = Threshold::at(0.5);
        let exact = alpha_distance(&a, &b, t).unwrap();
        let bounded = |bound: f64| alpha_distance_sq_bounded(&a, &b, t, bound * bound);
        assert_eq!(bounded(exact + 0.5).map(f64::sqrt), Some(exact));
        assert_eq!(bounded(exact * 0.9), None);
    }

    #[test]
    fn squared_bounded_form_is_consistent() {
        let a = blob(13, 70, 0.0, 0.0);
        let b = blob(14, 70, 3.0, 2.0);
        let t = Threshold::at(0.4);
        let exact = alpha_distance(&a, &b, t).unwrap();
        let sq = alpha_distance_sq_bounded(&a, &b, t, f64::INFINITY).unwrap();
        assert_eq!(sq.sqrt().to_bits(), exact.to_bits());
        // A squared seed just above the squared answer preserves it.
        assert_eq!(alpha_distance_sq_bounded(&a, &b, t, sq * (1.0 + 1e-9)), Some(sq));
        // A squared seed at the answer prunes everything (strict compare).
        assert_eq!(alpha_distance_sq_bounded(&a, &b, t, sq), None);
    }
}
