//! Approximate AKNN: dialed recall, exact distances.
//!
//! [`approx_aknn`] answers the paper's AKNN query through a [`VpTree`]
//! candidate generator instead of an R-tree traversal. The VP-tree
//! proposes a deterministic candidate pool from per-object expected
//! centers (reach set by the [`RecallDial`]); this module then
//! **resolves** the pool through the same exact probe loop the tree
//! engines use — τ-seeded [`Metric::alpha_distance_sq_bounded`] probes
//! with the exact search's seed tracker — and finishes with one
//! friend-of-a-friend refinement round (expand the current answers'
//! build-time neighbor lists, probe anything that might beat τ).
//!
//! The contract worth repeating: **every returned distance is an exact
//! α-distance, bit-identical to what the exact engine would report for
//! that object**. The dial moves only *which* objects make it into the
//! pool, i.e. recall; `RecallDial::Exact` makes the pool exhaustive, and
//! the answer equals exact AKNN in canonical `(distance, id)` order.
//!
//! [`recall_at_k`] is the measurement harness: the fraction of the exact
//! oracle's answer ids an approximate answer recovered, the quantity the
//! bench sweep plots against QPS. [`aknn_brute`] is that oracle at its
//! plainest: every stored object evaluated, no index at all.

use crate::aknn::{inflate_sq, probe_exact, Probed, SeedTracker};
use crate::error::QueryError;
use crate::result::{AknnResult, DistBound, Neighbor};
use crate::stats::QueryStats;
use fuzzy_core::metric::Metric;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_index::VpTree;
use fuzzy_store::ObjectStore;
use std::collections::BTreeSet;
use std::time::Instant;

pub use fuzzy_index::RecallDial;

/// k nearest objects to `q` at threshold `t`, candidate-generated by
/// `index` at `dial` and resolved exactly against `store` under
/// `metric` (which must be the metric the index was built under).
///
/// Returns exact neighbours in canonical `(distance, id)` order — the
/// same pairs the exact engine would return for these objects — with
/// recall governed by the dial. Costs are accounted in the exact
/// engine's units: `bound_evals` per candidate center bound,
/// `object_accesses` per store probe that hit disk, `distance_evals` per
/// α-distance evaluation.
pub fn approx_aknn<M, S, const D: usize>(
    metric: &M,
    index: &VpTree<D>,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    t: Threshold,
    dial: RecallDial,
) -> Result<AknnResult, QueryError>
where
    M: Metric<D> + ?Sized,
    S: ObjectStore<D>,
{
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    if q.cut_len(t) == 0 {
        return Err(QueryError::EmptyQueryCut);
    }
    let start = Instant::now();
    let mut stats = QueryStats::default();
    let (q_rep, q_spread) = query_ball(metric, q);

    let mut pool_ids: Vec<ObjectId> = Vec::new();
    index.candidates(metric, &q_rep, k, dial, &mut pool_ids);

    // Exact results so far, sorted by (squared distance, id); the scratch
    // seed tracker holds every probed exact distance, so its k-th
    // smallest is τ² for probe seeding.
    let seeds = &mut SeedTracker::default();
    let mut found: Vec<(f64, ObjectId)> = Vec::with_capacity(k + 1);
    let mut probed: BTreeSet<ObjectId> = BTreeSet::new();

    let mut pool = rank_pool(metric, index, &q_rep, &pool_ids, &mut stats);
    resolve(metric, store, q, k, t, q_spread, &pool, seeds, &mut found, &mut probed, &mut stats)?;

    // One FoF round: the current answers' neighbor lists, less what was
    // probed. At `Exact` the pool was already exhaustive.
    if dial != RecallDial::Exact {
        pool_ids.clear();
        for &(_, fid) in &found {
            pool_ids.extend(
                index.neighbors_of(fid).iter().copied().filter(|nid| !probed.contains(nid)),
            );
        }
        pool_ids.sort_unstable();
        pool_ids.dedup();
        pool = rank_pool(metric, index, &q_rep, &pool_ids, &mut stats);
        resolve(
            metric,
            store,
            q,
            k,
            t,
            q_spread,
            &pool,
            seeds,
            &mut found,
            &mut probed,
            &mut stats,
        )?;
    }

    stats.wall = start.elapsed();
    let neighbors = found
        .into_iter()
        .map(|(d_sq, id)| Neighbor { id, dist: DistBound::Exact(d_sq.sqrt()) })
        .collect();
    Ok(AknnResult { neighbors, stats })
}

/// The query-side ball: representative point and its metric spread.
fn query_ball<M: Metric<D> + ?Sized, const D: usize>(
    metric: &M,
    q: &FuzzyObject<D>,
) -> (fuzzy_geom::Point<D>, f64) {
    let rep = q.rep_point();
    let spread = q.points().iter().map(|p| metric.dist(&rep, p)).fold(0.0_f64, f64::max);
    (rep, spread)
}

/// Clamped squared lower bound from two balls at center distance `d`.
fn ball_lb_sq(d: f64, q_spread: f64, other_radius: f64) -> f64 {
    let lb = (d - q_spread - other_radius).max(0.0);
    lb * lb
}

/// Candidate ids → (center distance, spread, id), sorted nearest-center
/// first with id tie-breaks — the deterministic probe order.
fn rank_pool<M: Metric<D> + ?Sized, const D: usize>(
    metric: &M,
    index: &VpTree<D>,
    q_rep: &fuzzy_geom::Point<D>,
    ids: &[ObjectId],
    stats: &mut QueryStats,
) -> Vec<(f64, f64, ObjectId)> {
    let mut pool: Vec<(f64, f64, ObjectId)> = Vec::with_capacity(ids.len());
    for &id in ids {
        if let Some((center, spread)) = index.ball_of(id) {
            stats.bound_evals += 1;
            pool.push((metric.dist(q_rep, center), spread, id));
        }
    }
    pool.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
    pool
}

/// Probe a ranked pool through the exact loop: ball-bound free skips once
/// τ is live, τ-seeded [`probe_exact`] otherwise, results merged into
/// `found` (sorted, truncated to `k`).
#[allow(clippy::too_many_arguments)]
fn resolve<M, S, const D: usize>(
    metric: &M,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    t: Threshold,
    q_spread: f64,
    pool: &[(f64, f64, ObjectId)],
    seeds: &mut SeedTracker,
    found: &mut Vec<(f64, ObjectId)>,
    probed: &mut BTreeSet<ObjectId>,
    stats: &mut QueryStats,
) -> Result<(), QueryError>
where
    M: Metric<D> + ?Sized,
    S: ObjectStore<D>,
{
    // Seed τ before the first probe: `center_d + q_spread + spread` is a
    // sound α-distance upper bound under the metric's triangle inequality
    // (every cut point lives inside its object's ball), so the k-th
    // smallest ball bound is a valid τ² — the UB-seeding idea of the
    // engine's LB-LP-UB variant, applied to the candidate pool. τ is
    // finite from the first probe on, which turns the far tail of the
    // pool into free skips and lets every kernel run bounded.
    for &(center_d, spread, id) in pool {
        if !probed.contains(&id) {
            stats.bound_evals += 1;
            let ub = center_d + q_spread + spread;
            seeds.insert(id, inflate_sq(ub * ub));
        }
    }
    for &(center_d, spread, id) in pool {
        if !probed.insert(id) {
            continue;
        }
        let tau_sq = seeds.tau_sq(k);
        // Triangle-inequality free skip: provably beyond τ, no probe.
        if tau_sq.is_finite() && ball_lb_sq(center_d, q_spread, spread) > inflate_sq(tau_sq) {
            continue;
        }
        let own_hi = center_d + q_spread + spread;
        let own_hi_sq = inflate_sq(own_hi * own_hi);
        match probe_exact(metric, store, q, t, id, (own_hi_sq, tau_sq), None, None, stats)? {
            Probed::Exact(d_sq, _) => {
                seeds.insert(id, d_sq);
                let pos = found.partition_point(|&(d, i)| d < d_sq || (d == d_sq && i < id));
                found.insert(pos, (d_sq, id));
                found.truncate(k);
            }
            Probed::Dominated(_) => {}
        }
    }
    Ok(())
}

/// Recall@k of an approximate answer against the exact oracle for the
/// same `(query, k, t)`: the fraction of the oracle's answer ids the
/// approximate answer recovered. 1.0 for an empty oracle answer. Both
/// paths report exact distances, so id membership is the whole story —
/// a recovered id carries a bit-identical `(distance, id)` pair.
pub fn recall_at_k(approx: &AknnResult, exact: &AknnResult) -> f64 {
    if exact.neighbors.is_empty() {
        return 1.0;
    }
    let want: BTreeSet<ObjectId> = exact.neighbors.iter().map(|n| n.id).collect();
    let hits = approx.neighbors.iter().filter(|n| want.contains(&n.id)).count();
    hits as f64 / exact.neighbors.len() as f64
}

/// Brute-force oracle: evaluate `d_α(q, O)` for **every** id in `ids`
/// under `metric` and keep the k smallest in canonical `(distance, id)`
/// order. Linear cost, no index — what [`recall_at_k`] and the
/// exact-dial checks diff the approximate path against.
pub fn aknn_brute<M: Metric<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    store: &S,
    ids: &[ObjectId],
    q: &FuzzyObject<D>,
    k: usize,
    t: Threshold,
) -> Result<AknnResult, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    if q.cut_len(t) == 0 {
        return Err(QueryError::EmptyQueryCut);
    }
    let start = Instant::now();
    let mut stats = QueryStats::default();
    let mut all: Vec<(f64, ObjectId)> = Vec::new();
    for &id in ids {
        stats.object_accesses += 1;
        let obj = store.probe(id).map_err(QueryError::Store)?;
        stats.distance_evals += 1;
        // Same operand order as the indexed paths: the per-probe object is
        // the throwaway side, the constant query keeps its warm caches.
        if let Some(d_sq) = metric.alpha_distance_sq_bounded(&obj, q, t, f64::INFINITY) {
            all.push((d_sq, id));
        }
    }
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    all.truncate(k);
    stats.wall = start.elapsed();
    let neighbors = all
        .into_iter()
        .map(|(d_sq, id)| Neighbor { id, dist: DistBound::Exact(d_sq.sqrt()) })
        .collect();
    Ok(AknnResult { neighbors, stats })
}
