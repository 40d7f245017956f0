//! RKNN query processing (Section 4).
//!
//! Four algorithms, in increasing sophistication:
//!
//! * [`RknnAlgorithm::Naive`] — probe every object, build its **full**
//!   distance profile and sweep; the paper's strawman ("enumerating all
//!   values in `U_D`"), also the ground-truth oracle for tests — which is
//!   why it alone stays on [`Metric::distance_profile`]: the other three
//!   are compared against a path that never sees a window.
//! * [`RknnAlgorithm::Basic`] — Algorithm 3: repeated AKNN queries at the
//!   critical probabilities of the current kNN members (Lemma 2).
//! * [`RknnAlgorithm::Rss`] — Algorithm 4: one AKNN at `αe` yields the
//!   radius `r = d_k(αe)`; one range search at `αs` collects every object
//!   whose lower bound is within `r` (Lemma 3 guarantees no false
//!   dismissals) and that the query's `αs` cut reaches within `r` (the scan
//!   gate, below); refinement then runs entirely over this in-memory
//!   candidate set.
//! * [`RknnAlgorithm::RssIcr`] — Algorithm 5: like RSS, but refinement
//!   steps leap over every critical value at which a member provably stays
//!   within the (k+1)-th distance (Lemma 4), sharply cutting CPU work for
//!   wide probability ranges.
//!
//! RSS and RSS-ICR share one refinement loop and differ only in how far a
//! member's recorded range reaches (below).
//!
//! Basic, RSS and RSS-ICR read a candidate's staircase on `[αs, αe]` only,
//! so they ask the metric for that window
//! ([`Metric::distance_profile_window`]). A window opens with the distance
//! at `αe`, and who already holds it decides what is handed over: RSS's
//! step 1 is the AKNN at `αe`, so a neighbour it probed arrives with the
//! kernel's squared distance ([`FoundNeighbor::dist_sq`]) and its window
//! starts from that; so does one it confirmed by its bounds alone, which
//! RSS reads itself when it needs it (below) with the same seeded probe
//! the exact AKNN uses, and so does the window of a candidate step 1
//! probed, evaluated and did not return (`SearchOutcome::others`); the
//! candidates step 1 never evaluated to the end (only step 2 found them,
//! or the τ seed cut their kernel off), and every object in Basic (whose
//! AKNN calls run at other thresholds), pass `None` and the window
//! evaluates it once itself.
//!
//! # Which candidates get a profile: the settle step
//!
//! A profile is the expensive part of an RSS query, and most candidates do
//! not need one. Lemma 3, which the range scan applies to lower bounds,
//! decides more once it is applied to exact distances. Write `r = d_k(αe)`
//! for step 1's radius, call step 1's `k` results the *neighbours* and the
//! range candidates it did not return the *outsiders*. A neighbour step 1
//! confirmed by its bounds alone carries `hi = sqrt(d⁺²)` and no distance;
//! it is read only where a decision needs its distance or its object. `d⁺`
//! bounds the kernel's own squares — the max-box distance through monotone
//! rounding, the §3.4 rep-to-sample distance because that pair is one of
//! the kernel's — so its exact `d = sqrt(u_sq) ≤ hi` (debug builds assert
//! it at every such read). First `r`: with `M` the largest exact step-1
//! distance, a bound-confirmed neighbour with `hi > M` is read before `r`
//! is taken; one with `hi ≤ M` cannot raise it (`d ≤ hi ≤ M`), so
//! `r = max dist.hi()` has the bits of the largest exact distance. With
//! fewer than `k` neighbours `r = ∞` and nothing is read for it. Then,
//! before anything is profiled:
//!
//! 1. every outsider is taken from step 1 if its search decoded it, probed
//!    otherwise, and asked one bounded kernel question,
//!    `alpha_distance_sq_bounded(obj, q, αs, r_sq)` with the range scan's
//!    own inflated `r_sq`: `None` — no pair strictly within `r_sq` at `αs` —
//!    **drops** it; `Some(l_sq)` keeps it and feeds `l_min_sq`, the smallest
//!    kept `d²_αs`;
//! 2. a neighbour whose exact distance at `αe` satisfies
//!    `sqrt(u_sq) < sqrt(l_min_sq)` is **settled**: its answer is the whole
//!    `[αs, αe]`. An unread neighbour with `hi < sqrt(l_min_sq)` settles
//!    without a read (`sqrt(u_sq) ≤ hi`, so the rule above holds); any other
//!    unread one is read and the rule decides on the kernel's bits, so the
//!    settled set is the one the exact distances give;
//! 3. only the unsettled neighbours — read by now, their windows opened from
//!    the kernel's bits — and the kept outsiders get windows, and the
//!    refinement runs over them with `k − settled` slots — or not at all
//!    when no slot is open.
//!
//! **Why this is exact.** Every comparison the refinement makes is between
//! `sqrt`s of pair minima, and on the window a profile's values lie between
//! `sqrt(d²_αs)` and `sqrt(d²_αe)` (`d_α` only grows with `α`; `sqrt` is
//! monotone, so these are bounds on the *rounded* values compared). A
//! dropped outsider has `sqrt(d²_αs) ≥ sqrt(r_sq) > r` (the guard below):
//! strictly beyond all `k` neighbours at every level, it is never a member,
//! and the `(k+1)`-th distance it could have supplied is one the
//! refinement already clamps to `r`. A settled neighbour is, at every
//! level, strictly closer than every kept outsider
//! (`≤ sqrt(u_sq) < sqrt(l_min_sq) ≤` theirs), every dropped one and every
//! non-candidate (`≤ r <` theirs), so only the other `k − 1` neighbours can
//! precede it, whatever the id tie-break: it is always a member. The kNN set at a level is therefore "the settled, plus
//! the top `k − settled` of the rest", and taking the settled out changes
//! neither the rest's distances nor their relative (distance, id) order —
//! the profiles stay sorted by id, a slot's index still is the tie-break.
//! [`IntervalSet`] is canonical, so the one `[αs, αe]` pushed for a settled
//! neighbour equals the union the stepping would have built interval by
//! interval.
//!
//! **The tie guard.** "Not strictly within `r_sq`" means "strictly beyond
//! `r`" only if `r_sq.sqrt() > r` holds as `f64`s. It does not at `r = 0`
//! (everything that touches the query ties at 0, and ids decide), at
//! `r = ∞` (fewer than `k` objects) and when `r²` is subnormal and the
//! inflation is rounded away; then nothing is gated (below), nothing is
//! dropped, nothing settles and every candidate is profiled. Both rules are
//! strict: an outsider *at* `r`, or one whose `d_αs` *equals* a neighbour's
//! `d_αe`, may win a slot on the id tie-break and keeps the neighbour
//! unsettled.
//!
//! # The scan gate: dropping an outsider before its read
//!
//! The range scan keeps an entry whose box lower bound at `αs` is within
//! `r_sq` (Lemma 3), and — under the tie guard — only if some point of the
//! query's `αs` cut also lies strictly within `r_sq` of the entry's
//! **support MBR**. That is the AKNN probe gate's question
//! (`cut_reaches_box`: the query's kd-tree once step 1 has built it, a
//! scan of the cut before) with `r_sq` as the cap. Each test is one
//! `bound_evals`; each entry it rules out is one `prunes.scan_gate`.
//!
//! *A gated entry is an outsider the settle question drops.* The support
//! MBR holds every point of every cut of the object, so by the probe gate's
//! argument (the `aknn` module docs) every pair of the `αs` cuts has a
//! computed `d²` no smaller than its query point's gap to the box, hence no
//! smaller than `r_sq`: the kernel seeded with `r_sq`, which keeps only
//! pairs strictly below it, would return `None`. Its `d_αs` is then at
//! least `sqrt(r_sq) > r` (the guard), and `d_α` only grows with `α`, so it
//! is beyond `r` on the whole window. It becomes a non-candidate instead of
//! a dropped outsider: no read, no kernel call, and the Lemma 4 cap stays
//! `r`, as a dropped outsider keeps it.
//!
//! *No step-1 neighbour is gated* (debug builds assert that every one is a
//! candidate). A neighbour's exact distance at `αe` comes from a kernel
//! pair with `d² = u_sq` and `sqrt(u_sq) ≤ r` — read or bound-confirmed,
//! `d ≤ hi ≤ r` — and both points of the pair lie in the `αs` cuts too. Its
//! query point's gap to the box is at most `u_sq` (the probe gate's
//! argument again). And `u_sq < r_sq`, which is what the inflation of
//! `r_sq = r·r·(1 + 4ε)` is for: the guard holds, `sqrt(r_sq) > r ≥
//! sqrt(u_sq)` as computed, and a correctly rounded `sqrt` is monotone, so
//! `r_sq ≤ u_sq` is impossible. The pair's query point lies strictly within
//! `r_sq` of the box.
//!
//! *Step 1 gates too.* The AKNN probe gate runs whenever τ binds, RSS's
//! step 1 included: an object it gated at `αe` was never decoded, so the
//! scan gate rules it out at `αs` or, still a candidate, RSS reads it once
//! as an outsider.
//!
//! # The refinement: how far a member is recorded
//!
//! The refinement ranks the id-sorted profiles at `t` by (distance, slot),
//! records each of the `k` nearest from `t` to its **safe end**, and steps
//! `t` just past the earliest safe end. Under RSS a member's safe end is
//! its next critical level; under RSS-ICR it is Lemma 4's: the last
//! critical level at which its distance stays strictly below the (k+1)-th
//! distance (clamped to `r` when objects outside the profiles exist), or
//! the next critical level when that bound is degenerate. Either end is
//! capped by `αe`.
//!
//! **Why RSS's wider pieces are exact.** Algorithm 4 records every member
//! only up to the step `α*`, the earliest next critical level of the set.
//! A member whose own next critical level `β` lies past `α*` keeps its
//! distance up to `β`, while every other distance can only grow (`d_α` is
//! non-decreasing in `α`). An object behind it in (distance, slot) order
//! therefore stays behind it, so its rank cannot worsen and it is a member
//! at every step up to `β`: the stepping would have recorded all of
//! `(α*, β]` piece by piece. [`IntervalSet`] is canonical, so recording
//! `[t, β]` at once yields the same set, and RSS still steps one critical
//! probability at a time.
//!
//! **Counters.** `distance_evals` counts step 1's evaluations, one per
//! bound-confirmed neighbour read, and one per outsider (none when the
//! guard fails); `profile_computations` counts the windows actually built —
//! at most `candidates`, and 0 when every neighbour settles. An object is
//! read at most once per query, and a step-1 neighbour only when `r`, its
//! settlement or its window needs it: every object step 1 decoded,
//! neighbour and rejected probe alike, is reused, so `object_accesses` is
//! step 1's, plus one per bound-confirmed neighbour read, plus one per
//! outsider step 1 never decoded. Against the exact AKNN at `αe` both
//! counters fall by one per neighbour settled unread. `bound_evals` adds
//! one per live entry the range scan's box test scores, kept or not, as
//! the best-first search charges one per live entry it scores, and one per
//! scan-gate test. The prune counts name the verdicts: `scan_gate` per
//! entry gated, `outsiders_dropped` and `outsiders_kept` per settle
//! answer, `settled` per neighbour settled. `refine_steps` counts the
//! refinement's passes, 0 when no slot is open. How many candidates settle is
//! a property of the data — how far `d_α` moves across the window against
//! the spacing of the neighbours — not of the algorithm.

use crate::aknn::{
    append_slots, check_deadline, cut_reaches_box, exact_neighbor, search, AknnConfig,
    FoundNeighbor, QueryScratch,
};
use crate::error::QueryError;
use crate::interval::{Interval, IntervalSet};
use crate::result::{RknnItem, RknnResult};
use crate::stats::QueryStats;
use crate::sweep::{exact_sweep, ProfiledCandidate};
use fuzzy_core::metric::Metric;
use fuzzy_core::{DistanceProfile, FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Mbr;
use fuzzy_index::{range_scan, NodeAccess};
use fuzzy_store::ObjectStore;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// RSS candidate collection (Algorithm 4, step 2): ids of every object
/// whose lower-bound distance from `q_cut`, the MBR of `q`'s cut at
/// `t_start`, is within `r_sq` (squared), unsorted. Under `gate` an entry
/// is kept only if some point of that cut also lies strictly within `r_sq`
/// of its support MBR (module docs, "The scan gate"). Each leaf is bounded
/// in one column pass ([`append_slots`]), as the best-first search bounds
/// it. Charges node/bound costs and the gate's prunes to `stats`.
#[allow(clippy::too_many_arguments)]
fn range_candidates<M: Metric<D>, A: NodeAccess<D>, const D: usize>(
    metric: &M,
    tree: &A,
    q: &FuzzyObject<D>,
    q_cut: &Mbr<D>,
    t_start: Threshold,
    r_sq: f64,
    gate: bool,
    cfg: &AknnConfig,
    stats: &mut QueryStats,
) -> Result<Vec<ObjectId>, QueryError> {
    let bound_t = cfg.improved_lower_bound.then_some(t_start);
    let (mut ids, mut slots) = (Vec::new(), Vec::new());
    let (mut evals, mut gated) = (0, 0);
    let (accesses, disk_reads) = range_scan(
        tree,
        r_sq,
        |mbr| metric.min_box_dist_sq(mbr, q_cut),
        |leaf| {
            slots.clear();
            append_slots(&leaf, bound_t, &mut slots);
            for (j, slot) in slots.iter().enumerate() {
                if !leaf.is_live(j) {
                    continue;
                }
                evals += 1;
                let within = metric.min_box_dist_sq(&slot.bound_mbr(), q_cut) <= r_sq;
                if !within {
                    continue;
                }
                if gate {
                    evals += 1;
                    let support = (&slot.support_lo, &slot.support_hi);
                    if !cut_reaches_box(q, t_start, support, r_sq) {
                        gated += 1;
                        continue;
                    }
                }
                ids.push(slot.id);
            }
        },
    )?;
    stats.node_accesses += accesses;
    stats.node_disk_reads += disk_reads;
    stats.bound_evals += evals;
    stats.prunes.scan_gate += gated;
    Ok(ids)
}

/// RKNN algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RknnAlgorithm {
    /// Probe everything; exact sweep. Oracle / strawman.
    Naive,
    /// Algorithm 3 — critical-probability stepping with full AKNN per step.
    Basic,
    /// Algorithm 4 — reduced search space, basic refinement.
    Rss,
    /// Algorithm 5 — reduced search space + improved candidate refinement.
    RssIcr,
}

impl RknnAlgorithm {
    /// Name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Naive => "Naive",
            Self::Basic => "Basic RKNN",
            Self::Rss => "RSS",
            Self::RssIcr => "RSS-ICR",
        }
    }

    /// The three variants the paper benchmarks in §6.3.
    pub fn paper_variants() -> [RknnAlgorithm; 3] {
        [Self::Basic, Self::Rss, Self::RssIcr]
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run<M: Metric<D>, A: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    tree: &A,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
    algo: RknnAlgorithm,
    cfg: &AknnConfig,
    scratch: &mut QueryScratch<D>,
) -> Result<RknnResult, QueryError> {
    let start = Instant::now();
    let mut stats = QueryStats::default();
    let items = match algo {
        RknnAlgorithm::Naive => {
            naive(metric, store, q, k, alpha_start, alpha_end, cfg, &mut stats)?
        }
        RknnAlgorithm::Basic => {
            basic(metric, tree, store, q, k, alpha_start, alpha_end, cfg, scratch, &mut stats)?
        }
        RknnAlgorithm::Rss | RknnAlgorithm::RssIcr => rss(
            metric,
            tree,
            store,
            q,
            k,
            alpha_start,
            alpha_end,
            cfg,
            algo == RknnAlgorithm::RssIcr,
            scratch,
            &mut stats,
        )?,
    };

    stats.wall = start.elapsed();
    Ok(RknnResult { items, stats })
}

/// Naive: probe everything, profile everything, sweep exactly.
#[allow(clippy::too_many_arguments)]
fn naive<M: Metric<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
    cfg: &AknnConfig,
    stats: &mut QueryStats,
) -> Result<Vec<RknnItem>, QueryError> {
    let ids: Vec<ObjectId> = store.summaries().iter().map(|s| s.id).collect();
    let mut profiles: Vec<(ObjectId, DistanceProfile)> = Vec::with_capacity(ids.len());
    for id in ids {
        check_deadline(cfg.deadline)?;
        let probe = store.probe_traced(id)?;
        stats.object_accesses += probe.disk_read as u64;
        stats.profile_computations += 1;
        profiles.push((id, metric.distance_profile(&probe.object, q)));
    }
    stats.candidates = profiles.len() as u64;
    let cands: Vec<ProfiledCandidate<'_>> =
        profiles.iter().map(|(id, p)| ProfiledCandidate { id: *id, profile: p }).collect();
    Ok(exact_sweep(&cands, k, alpha_start, alpha_end))
}

/// Algorithm 3: step through critical probabilities with one AKNN each.
#[allow(clippy::too_many_arguments)]
fn basic<M: Metric<D>, A: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    tree: &A,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
    cfg: &AknnConfig,
    scratch: &mut QueryScratch<D>,
    stats: &mut QueryStats,
) -> Result<Vec<RknnItem>, QueryError> {
    // Its AKNN calls return the same objects step after step: one window
    // `[αs, αe]` per object per query, the only part of a staircase the
    // stepping reads. The searches run at `t`, not at αe: their distances
    // are no use to the window.
    let mut profiles: HashMap<ObjectId, DistanceProfile> = HashMap::new();
    let window =
        |obj: &FuzzyObject<D>| metric.distance_profile_window(obj, q, alpha_start, alpha_end, None);
    let mut acc: HashMap<ObjectId, IntervalSet> = HashMap::new();
    let mut t = Threshold::at(alpha_start);

    loop {
        check_deadline(cfg.deadline)?;
        let mut out = search(metric, tree, store, q, k, t, cfg, false, scratch)?;
        *stats += out.stats;
        stats.aknn_calls += 1;
        if out.neighbors.is_empty() {
            break;
        }
        // β_A = min{α' ∈ Ω_Q(A) | α' covers t}; α* = min over the set.
        let mut alpha_star = f64::INFINITY;
        for n in &mut out.neighbors {
            exact_neighbor(metric, store, q, t, cfg, n, stats)?;
            let obj = n.object.as_ref().expect("exact_neighbor reads every neighbour");
            let profile = profiles.entry(n.id).or_insert_with(|| window(obj));
            let beta = profile.next_critical(t).unwrap_or(1.0);
            alpha_star = alpha_star.min(beta);
        }
        // The search, not a (distance, slot) order, breaks its ties, so
        // `refine`'s rank argument does not carry over: every member is
        // recorded to the common step.
        for n in &out.neighbors {
            record(&mut acc, n.id, t, alpha_star.min(alpha_end));
        }
        if alpha_star >= alpha_end {
            break;
        }
        t = Threshold::above(alpha_star);
    }

    stats.profile_computations += profiles.len() as u64;
    Ok(collect(acc))
}

/// Algorithms 4/5: reduce the search space, refine candidates in memory.
#[allow(clippy::too_many_arguments)]
fn rss<M: Metric<D>, A: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    tree: &A,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
    cfg: &AknnConfig,
    improved_refinement: bool,
    scratch: &mut QueryScratch<D>,
    stats: &mut QueryStats,
) -> Result<Vec<RknnItem>, QueryError> {
    // Step 1 — AKNN at α_e gives the pruning radius r = d_k(α_e). A
    // neighbour it confirmed by its bounds alone is read only where r, its
    // settle test or its window needs the read (module docs).
    let t_end = Threshold::at(alpha_end);
    let out_end = search(metric, tree, store, q, k, t_end, cfg, true, scratch)?;
    *stats += out_end.stats;
    stats.aknn_calls += 1;
    let mut neighbors = out_end.neighbors;
    let r = if neighbors.len() < k {
        f64::INFINITY
    } else {
        // `d ≤ hi`: a bound-confirmed neighbour at or below the largest exact
        // distance `M` cannot raise r; one above it is read first.
        let exact = neighbors.iter().filter(|n| n.dist_sq.is_some());
        let m = exact.map(|n| n.dist.hi()).fold(0.0, f64::max);
        for n in neighbors.iter_mut().filter(|n| n.dist.hi() > m) {
            exact_neighbor(metric, store, q, t_end, cfg, n, stats)?;
        }
        neighbors.iter().map(|n| n.dist.hi()).fold(0.0, f64::max)
    };

    // Step 2 — range search at α_s with radius r (Lemma 3: no object with
    // a lower bound beyond r can ever qualify). Keys and radius are
    // squared — the traversal never takes a square root. `r` is a rounded
    // `sqrt`, so the squared radius is inflated by a few ulps to keep the
    // filter conservative (a boundary candidate is kept, never dropped;
    // refinement discards false positives anyway).
    let t_start = Threshold::at(alpha_start);
    let q_cut = q.cut_mbr(t_start).ok_or(QueryError::EmptyQueryCut)?;
    let r_sq = if r.is_finite() { r * r * (1.0 + 4.0 * f64::EPSILON) } else { f64::INFINITY };
    // The tie guard (module docs): `r_sq` must round-trip to strictly more
    // than `r`, or "not below r_sq" would not mean "beyond r". At r = 0,
    // r = ∞ and on underflow nothing is gated, dropped or settled.
    let can_settle = r_sq.sqrt() > r;
    // The scan gate, under the guard: an entry no point of the αs cut
    // reaches within r_sq is the outsider the settle step would drop.
    let mut candidate_ids =
        range_candidates(metric, tree, q, &q_cut, t_start, r_sq, can_settle, cfg, stats)?;

    candidate_ids.sort_unstable();
    stats.candidates = candidate_ids.len() as u64;
    neighbors.sort_unstable_by_key(|n| n.id);
    debug_assert!(
        neighbors.iter().all(|n| candidate_ids.binary_search(&n.id).is_ok()),
        "a step-1 neighbour lies within r, so the range scan and its gate keep it"
    );

    // Step 3a — settle (module docs), under the tie guard above.
    //
    // The outsiders — candidates step 1 did not return — are the only
    // objects left to read, and step 1 may have decoded one already (probed
    // and rejected it): then it is taken from step 1, with the exact d²_αe
    // the kernel returned if it returned one. Any other is probed once.
    // Each is asked one bounded question: is d_αs strictly within the
    // radius at all?
    let mut decoded = out_end.others.into_iter().peekable();
    let mut outsiders: Vec<(ObjectId, Arc<FuzzyObject<D>>, Option<f64>)> = Vec::new();
    let mut dropped = false;
    let mut l_min_sq = f64::INFINITY;
    for &id in &candidate_ids {
        if neighbors.binary_search_by_key(&id, |n| n.id).is_ok() {
            continue;
        }
        check_deadline(cfg.deadline)?;
        // Both lists ascend in id: one merge walk pairs them.
        while decoded.next_if(|o| o.0 < id).is_some() {}
        let (object, top_sq) = match decoded.next_if(|o| o.0 == id) {
            Some((_, top_sq, object)) => (object, top_sq),
            None => {
                let probe = store.probe_traced(id)?;
                stats.object_accesses += probe.disk_read as u64;
                (probe.object, None)
            }
        };
        if can_settle {
            stats.distance_evals += 1;
            match metric.alpha_distance_sq_bounded(&object, q, t_start, r_sq) {
                Some(l_sq) => {
                    stats.prunes.outsiders_kept += 1;
                    l_min_sq = l_min_sq.min(l_sq);
                }
                None => {
                    stats.prunes.outsiders_dropped += 1;
                    dropped = true;
                    continue;
                }
            }
        }
        outsiders.push((id, object, top_sq));
    }

    // A neighbour whose distance at α_e is strictly below every kept
    // outsider's at α_s never leaves the kNN set: its answer is the window.
    let l_min = l_min_sq.sqrt();
    let mut acc: HashMap<ObjectId, IntervalSet> = HashMap::new();
    let mut profiles: Vec<(ObjectId, DistanceProfile)> = Vec::new();
    let window = |obj: &FuzzyObject<D>, top_sq| {
        metric.distance_profile_window(obj, q, alpha_start, alpha_end, top_sq)
    };
    // `dist.hi()` is `sqrt(u_sq)` once a neighbour is exact, and bounds it
    // before: a bound-confirmed neighbour below `l_min` settles unread; any
    // other is read, and the rule decides on the kernel's bits.
    let settles = |n: &FoundNeighbor<D>| can_settle && n.dist.hi() < l_min;
    for mut n in neighbors {
        if !settles(&n) {
            exact_neighbor(metric, store, q, t_end, cfg, &mut n, stats)?;
        }
        if settles(&n) {
            stats.prunes.settled += 1;
            record(&mut acc, n.id, t_start, alpha_end);
        } else {
            // The neighbour is decoded *and* holds its exact squared
            // distance at α_e — the top of the window.
            let obj = n.object.expect("exact_neighbor reads the neighbour");
            profiles.push((n.id, window(&obj, n.dist_sq)));
        }
    }

    // Step 3b — in-memory refinement of the `k − settled` open slots over
    // the unsettled neighbours and the kept outsiders. With no slot open
    // there is nothing to decide and no outsider is profiled at all.
    let slots = k - acc.len();
    if slots > 0 {
        profiles.extend(outsiders.into_iter().map(|(id, obj, top_sq)| (id, window(&obj, top_sq))));
        // Ascending in id: a slot's index is the refinement's id tie-break.
        profiles.sort_unstable_by_key(|&(id, _)| id);
        stats.profile_computations += profiles.len() as u64;
        let has_non_candidates = dropped || candidate_ids.len() < store.len();
        let cap = if has_non_candidates { r } else { f64::INFINITY };
        let lemma4 = improved_refinement.then_some(cap);
        let steps = &mut stats.refine_steps;
        acc.extend(refine(&profiles, slots, alpha_start, alpha_end, lemma4, steps, cfg)?);
    }
    Ok(collect(acc))
}

/// The refinement of Algorithms 4 and 5 over the id-sorted `profiles`
/// (module docs): at `t` it ranks the profiles by (distance, slot), records
/// each of the `k` nearest from `t` to its safe end and steps `t` past the
/// earliest end. A member's safe end is its next critical level, or — with
/// `lemma4 = Some(cap)`, RSS-ICR — the last critical level at which its
/// distance stays strictly below the (k+1)-th distance `d_{k+1}`, where
/// `d_{k+1}` is clamped to `cap`. When objects outside `profiles` exist —
/// non-candidates, or outsiders the settle step dropped — `cap` is the
/// pruning radius `r`: each of them keeps a distance > r throughout the
/// range, so `min(d̂_{k+1}, r)` is a sound (conservative) stand-in for the
/// true global (k+1)-th distance; otherwise `cap` is `∞`. Each pass of the
/// loop adds one to `steps`.
fn refine(
    profiles: &[(ObjectId, DistanceProfile)],
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
    lemma4: Option<f64>,
    steps: &mut u64,
    cfg: &AknnConfig,
) -> Result<HashMap<ObjectId, IntervalSet>, QueryError> {
    let mut acc: HashMap<ObjectId, IntervalSet> = HashMap::new();
    let mut t = Threshold::at(alpha_start);
    // (distance, candidate slot): ids ascend with the slot, so slot order
    // is the id tie-break.
    let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(profiles.len());
    loop {
        check_deadline(cfg.deadline)?;
        *steps += 1;
        scratch.clear();
        for (slot, (_, prof)) in profiles.iter().enumerate() {
            if let Some(d) = prof.value_at(t) {
                scratch.push((d, slot));
            }
        }
        scratch.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if scratch.is_empty() {
            break;
        }
        let dk1 = lemma4.map(|cap| scratch.get(k).map_or(f64::INFINITY, |&(d, _)| d).min(cap));
        let mut alpha_star = f64::INFINITY;
        for &(d, slot) in &scratch[..k.min(scratch.len())] {
            let (id, prof) = &profiles[slot];
            // Lemma 4's safe end; the plain Lemma 2 step without it, or when
            // the bound is degenerate (ties). `d < dk1` puts the segment
            // covering `t` below the bound, so the end is at or past it.
            let safe_end =
                dk1.filter(|&dk1| d < dk1).and_then(|dk1| prof.max_level_with_dist_below(dk1));
            let beta = safe_end.or_else(|| prof.next_critical(t)).unwrap_or(1.0);
            record(&mut acc, *id, t, beta.min(alpha_end));
            alpha_star = alpha_star.min(beta);
        }
        if alpha_star >= alpha_end {
            break;
        }
        t = Threshold::above(alpha_star);
    }
    Ok(acc)
}

/// Add `[t, end]` (left-open when `t` is strict) to `id`'s answer.
fn record(acc: &mut HashMap<ObjectId, IntervalSet>, id: ObjectId, t: Threshold, end: f64) {
    acc.entry(id).or_default().push(Interval::new(t.value, !t.strict, end, true));
}

fn collect(acc: HashMap<ObjectId, IntervalSet>) -> Vec<RknnItem> {
    let mut items: Vec<RknnItem> = acc
        .into_iter()
        .filter(|(_, set)| !set.is_empty())
        .map(|(id, range)| RknnItem { id, range })
        .collect();
    items.sort_by_key(|i| i.id);
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::fig3;

    /// A profile from `(level, dist)` steps: `d_α = dist` up to `level`.
    fn staircase(id: u64, steps: &[(f64, f64)]) -> (ObjectId, DistanceProfile) {
        (ObjectId(id), DistanceProfile::from_pairs(steps.iter().copied()))
    }

    /// `refine`, with and without Lemma 4, is the exact sweep over the same
    /// profiles for every `k` and every window in `windows`.
    fn refine_is_the_sweep(profiles: &[(ObjectId, DistanceProfile)], windows: &[(f64, f64)]) {
        let cfg = AknnConfig::default();
        let cands: Vec<ProfiledCandidate<'_>> =
            profiles.iter().map(|(id, p)| ProfiledCandidate { id: *id, profile: p }).collect();
        for &(lo, hi) in windows {
            for k in 1..=profiles.len() + 1 {
                let want = exact_sweep(&cands, k, lo, hi);
                for lemma4 in [None, Some(f64::INFINITY)] {
                    let got = collect(refine(profiles, k, lo, hi, lemma4, &mut 0, &cfg).unwrap());
                    assert_eq!(got, want, "k {k} over [{lo}, {hi}], lemma4 {lemma4:?}");
                }
            }
        }
    }

    #[test]
    fn refine_matches_the_sweep_on_figure_3() {
        let (objs, q) = fig3();
        let profiles: Vec<(ObjectId, DistanceProfile)> =
            objs.iter().map(|o| (o.id(), DistanceProfile::compute(o, &q))).collect();
        refine_is_the_sweep(&profiles, &[(0.3, 0.6), (0.2, 0.9), (0.45, 0.55), (0.5, 0.5)]);
    }

    #[test]
    fn refine_matches_the_sweep_on_a_tie_at_a_critical_level() {
        // Past 0.5, 1 steps up to 2 and ties 2 there; the lower id wins.
        let profiles = [
            staircase(1, &[(0.5, 1.0), (1.0, 2.0)]),
            staircase(2, &[(1.0, 2.0)]),
            staircase(3, &[(0.7, 1.5), (1.0, 3.0)]),
        ];
        refine_is_the_sweep(&profiles, &[(0.2, 0.9), (0.5, 0.7), (0.6, 1.0)]);
    }

    #[test]
    fn refine_matches_the_sweep_past_the_step() {
        // At 0.1 the 2NN are 1 and 2; 2's step at 0.4 is α*, while 1 keeps
        // its distance up to 1.0 and is recorded over the window at once.
        let profiles = [
            staircase(1, &[(1.0, 1.0)]),
            staircase(2, &[(0.4, 2.0), (1.0, 5.0)]),
            staircase(3, &[(0.6, 3.0), (1.0, 4.0)]),
        ];
        let cfg = AknnConfig::default();
        let acc = refine(&profiles, 2, 0.1, 0.8, None, &mut 0, &cfg).unwrap();
        assert_eq!(acc[&ObjectId(1)].intervals(), &[Interval::closed(0.1, 0.8)]);
        refine_is_the_sweep(&profiles, &[(0.1, 0.8), (0.4, 0.6), (0.0, 1.0)]);
    }
}
