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
//!   dismissals); refinement then runs entirely over this in-memory
//!   candidate set.
//! * [`RknnAlgorithm::RssIcr`] — Algorithm 5: like RSS, but refinement
//!   steps leap over every critical value at which a member provably stays
//!   within the (k+1)-th distance (Lemma 4), sharply cutting CPU work for
//!   wide probability ranges.
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
//! and the `(k+1)`-th distance it could have supplied is one `refine_icr`
//! already clamps to `r`. A settled neighbour is, at every level, strictly
//! closer than every kept outsider (`≤ sqrt(u_sq) < sqrt(l_min_sq) ≤` theirs),
//! every dropped one and every non-candidate (`≤ r <` theirs), so only the
//! other `k − 1` neighbours can precede it, whatever the id tie-break: it is
//! always a member. The kNN set at a level is therefore "the settled, plus
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
//! inflation is rounded away; then nothing is dropped, nothing settles and
//! every candidate is profiled. Both rules are strict: an outsider *at*
//! `r`, or one whose `d_αs` *equals* a neighbour's `d_αe`, may win a slot on
//! the id tie-break and keeps the neighbour unsettled.
//!
//! **Counters.** `distance_evals` counts step 1's evaluations, one per
//! bound-confirmed neighbour read, and one per outsider (none when the
//! guard fails); `profile_computations` counts the windows actually built —
//! at most `candidates`, and 0 when every neighbour settles. An object is
//! read at most once per query, and a step-1 neighbour only when `r`, its
//! settlement or its window needs it: every object step 1 decoded,
//! neighbour and rejected probe alike, is reused, so `object_accesses` is
//! step 1's, plus one per bound-confirmed neighbour read, plus one per
//! outsider step 1 never probed. Against the exact AKNN at `αe` both
//! counters fall by one per neighbour settled unread. How many candidates
//! settle is a property of the data — how far `d_α` moves across the
//! window against the spacing of the neighbours — not of the algorithm.

use crate::aknn::{
    append_slots, check_deadline, exact_neighbor, search, AknnConfig, FoundNeighbor, QueryScratch,
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
/// whose lower-bound distance from `q_cut` at `t_start` is within `r_sq`
/// (squared), unsorted. Each leaf is bounded in one column pass
/// ([`append_slots`]), as the best-first search bounds it. Charges
/// node/bound costs to `stats`.
fn range_candidates<M: Metric<D>, A: NodeAccess<D>, const D: usize>(
    metric: &M,
    tree: &A,
    q_cut: &Mbr<D>,
    t_start: Threshold,
    r_sq: f64,
    cfg: &AknnConfig,
    stats: &mut QueryStats,
) -> Result<Vec<ObjectId>, QueryError> {
    let bound_t = cfg.improved_lower_bound.then_some(t_start);
    let (mut ids, mut slots) = (Vec::new(), Vec::new());
    let (accesses, disk_reads) = range_scan(
        tree,
        r_sq,
        |mbr| metric.min_box_dist_sq(mbr, q_cut),
        |leaf| {
            slots.clear();
            append_slots(&leaf, bound_t, &mut slots);
            for (j, slot) in slots.iter().enumerate() {
                if leaf.is_live(j) && metric.min_box_dist_sq(&slot.bound_mbr(), q_cut) <= r_sq {
                    ids.push(slot.id);
                }
            }
        },
    )?;
    stats.node_accesses += accesses;
    stats.node_disk_reads += disk_reads;
    stats.bound_evals += ids.len() as u64;
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

/// Basic's profile cache: its AKNN calls return the same objects step
/// after step, so one α-distance profile per (object, query) pair per query
/// execution, each computed on the query's window `[αs, αe]` — the only
/// part of a staircase the stepping reads (it starts at `αs` and clamps
/// every level to `αe`). RSS meets each candidate once and keeps a plain
/// id-sorted vector instead.
struct ProfileCache<const D: usize> {
    map: HashMap<ObjectId, DistanceProfile>,
    computations: u64,
    alpha_start: f64,
    alpha_end: f64,
}

impl<const D: usize> ProfileCache<D> {
    fn new(alpha_start: f64, alpha_end: f64) -> Self {
        Self { map: HashMap::new(), computations: 0, alpha_start, alpha_end }
    }

    /// `top_sq` is the squared α-distance at `αe` when a search at exactly
    /// that threshold already evaluated it for `obj`, `None` otherwise.
    fn get_or_compute<M: Metric<D>>(
        &mut self,
        metric: &M,
        obj: &FuzzyObject<D>,
        q: &FuzzyObject<D>,
        top_sq: Option<f64>,
    ) -> &DistanceProfile {
        self.map.entry(obj.id()).or_insert_with(|| {
            self.computations += 1;
            metric.distance_profile_window(obj, q, self.alpha_start, self.alpha_end, top_sq)
        })
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
    let mut cache: ProfileCache<D> = ProfileCache::new(alpha_start, alpha_end);
    let mut acc: HashMap<ObjectId, IntervalSet> = HashMap::new();
    let mut t = Threshold::at(alpha_start);

    loop {
        check_deadline(cfg.deadline)?;
        let mut out = search(metric, tree, store, q, k, t, cfg, false, scratch)?;
        stats.aknn_calls += 1;
        stats.object_accesses += out.stats.object_accesses;
        stats.node_accesses += out.stats.node_accesses;
        stats.node_disk_reads += out.stats.node_disk_reads;
        stats.distance_evals += out.stats.distance_evals;
        stats.bound_evals += out.stats.bound_evals;
        if out.neighbors.is_empty() {
            break;
        }
        // β_A = min{α' ∈ Ω_Q(A) | α' covers t}; α* = min over the set.
        let mut alpha_star = f64::INFINITY;
        for n in &mut out.neighbors {
            exact_neighbor(metric, store, q, t, cfg, n, stats)?;
            let obj = n.object.as_ref().expect("exact_neighbor reads every neighbour");
            // The search ran at `t`, not at α_e: its distance is no use
            // to the window.
            let beta = cache.get_or_compute(metric, obj, q, None).next_critical(t).unwrap_or(1.0);
            alpha_star = alpha_star.min(beta);
        }
        let hi = alpha_star.min(alpha_end);
        let iv = Interval::new(t.value, !t.strict, hi, true);
        for n in &out.neighbors {
            acc.entry(n.id).or_default().push(iv);
        }
        if alpha_star >= alpha_end {
            break;
        }
        t = Threshold::above(alpha_star);
    }

    stats.profile_computations += cache.computations;
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
    stats.aknn_calls += 1;
    stats.object_accesses += out_end.stats.object_accesses;
    stats.node_accesses += out_end.stats.node_accesses;
    stats.node_disk_reads += out_end.stats.node_disk_reads;
    stats.distance_evals += out_end.stats.distance_evals;
    stats.bound_evals += out_end.stats.bound_evals;
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
    let mut candidate_ids = range_candidates(metric, tree, &q_cut, t_start, r_sq, cfg, stats)?;

    candidate_ids.sort_unstable();
    stats.candidates = candidate_ids.len() as u64;
    neighbors.sort_unstable_by_key(|n| n.id);
    debug_assert!(
        neighbors.iter().all(|n| candidate_ids.binary_search(&n.id).is_ok()),
        "a step-1 neighbour lies within r, so the range scan must return it"
    );

    // Step 3a — settle (module docs). The tie guard: `r_sq` must round-trip
    // to strictly more than `r`, or "not below r_sq" would not mean "beyond
    // r". At r = 0, r = ∞ and on underflow nothing is dropped or settled.
    let can_settle = r_sq.sqrt() > r;

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
                Some(l_sq) => l_min_sq = l_min_sq.min(l_sq),
                None => {
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
            acc.insert(n.id, IntervalSet::from_interval(Interval::closed(alpha_start, alpha_end)));
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
        acc.extend(if improved_refinement {
            refine_icr(&profiles, slots, alpha_start, alpha_end, r, has_non_candidates, cfg)?
        } else {
            refine_basic(&profiles, slots, alpha_start, alpha_end, cfg)?
        });
    }
    Ok(collect(acc))
}

/// Basic refinement (the inner loop of Algorithm 3 restricted to the
/// candidate set): advance one critical probability at a time.
fn refine_basic(
    profiles: &[(ObjectId, DistanceProfile)],
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
    cfg: &AknnConfig,
) -> Result<HashMap<ObjectId, IntervalSet>, QueryError> {
    let mut acc: HashMap<ObjectId, IntervalSet> = HashMap::new();
    let mut t = Threshold::at(alpha_start);
    // (distance, candidate slot): ids ascend with the slot, so slot order
    // is the id tie-break.
    let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(profiles.len());
    loop {
        check_deadline(cfg.deadline)?;
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
        let nn = &scratch[..k.min(scratch.len())];
        let mut alpha_star = f64::INFINITY;
        for &(_, slot) in nn {
            let beta = profiles[slot].1.next_critical(t).unwrap_or(1.0);
            alpha_star = alpha_star.min(beta);
        }
        let iv = Interval::new(t.value, !t.strict, alpha_star.min(alpha_end), true);
        for &(_, slot) in nn {
            acc.entry(profiles[slot].0).or_default().push(iv);
        }
        if alpha_star >= alpha_end {
            break;
        }
        t = Threshold::above(alpha_star);
    }
    Ok(acc)
}

/// Improved candidate refinement (Algorithm 5 / Lemma 4): each member A of
/// the current kNN set is safe up to the largest critical value where its
/// distance stays below the (k+1)-th distance `d_{k+1}`; record the whole
/// safe range at once and jump to the earliest safe-range end.
///
/// When objects outside `profiles` exist — non-candidates, or outsiders the
/// settle step dropped — `d_{k+1}` is clamped to the pruning radius `r`:
/// each of them keeps a distance > r throughout the range, so
/// `min(d̂_{k+1}, r)` is a sound (conservative) stand-in for the true global
/// (k+1)-th distance.
fn refine_icr(
    profiles: &[(ObjectId, DistanceProfile)],
    k: usize,
    alpha_start: f64,
    alpha_end: f64,
    r: f64,
    has_non_candidates: bool,
    cfg: &AknnConfig,
) -> Result<HashMap<ObjectId, IntervalSet>, QueryError> {
    let mut acc: HashMap<ObjectId, IntervalSet> = HashMap::new();
    let mut t = Threshold::at(alpha_start);
    // (distance, candidate slot): ids ascend with the slot, so slot order
    // is the id tie-break.
    let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(profiles.len());
    loop {
        check_deadline(cfg.deadline)?;
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
        let nn = &scratch[..k.min(scratch.len())];
        let mut dk1 = scratch.get(k).map_or(f64::INFINITY, |&(d, _)| d);
        if has_non_candidates {
            dk1 = dk1.min(r);
        }
        let mut alpha_star = f64::INFINITY;
        for &(d, slot) in nn {
            let (id, prof) = &profiles[slot];
            // Safe range end: the farthest critical value with distance
            // still below d_{k+1}; fall back to the plain Lemma 2 step when
            // the bound is degenerate (ties).
            let beta = match prof.max_level_with_dist_below(dk1) {
                Some(b) if b >= t.value && d < dk1 => b,
                _ => prof.next_critical(t).unwrap_or(1.0),
            };
            let iv = Interval::new(t.value, !t.strict, beta.min(alpha_end), true);
            acc.entry(*id).or_default().push(iv);
            alpha_star = alpha_star.min(beta);
        }
        if alpha_star >= alpha_end {
            break;
        }
        t = Threshold::above(alpha_star);
    }
    Ok(acc)
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
