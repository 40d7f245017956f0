//! Metric-space AKNN over the covering-ball M-tree.
//!
//! The rectangle engine ([`crate::aknn`]) prunes with `MinDist` to
//! coordinate boxes — meaningless under a metric like graph shortest-path
//! distance, where straight-line geometry says nothing about reachable
//! cost. This module is the general-metric twin: the same best-first /
//! threshold-τ discipline, but every bound is derived from the triangle
//! inequality alone, so it is sound for **any** [`Metric`].
//!
//! The bound chain: let `q_rep` be the query's representative and
//! `q_spread = max_p d(q_rep, p)` over the query's support. For an object
//! `O` summarized by ball `(rep_O, spread_O)` (the leaf entry payload of
//! the [`MTree`]), every qualifying pair `(p ∈ q, r ∈ O)` satisfies
//!
//! ```text
//! d(p, r) ≥ d(q_rep, rep_O) − q_spread − spread_O
//! ```
//!
//! so the clamped square of the right-hand side lower-bounds `d_α(q, O)²`
//! at every threshold. Node balls `(router, r_cover)` bound whole subtrees
//! the same way. Exact α-distances come from
//! [`Metric::alpha_distance_sq_bounded`] with the inflated-τ seed, exactly
//! like the rectangle engine's probes, and results are reported in the
//! same canonical `(distance, id)` order — under `Metric = L2` the answer
//! set matches the exact rectangle engine bit for bit (pinned by the
//! metric-search suite), while the *costs* differ because ball bounds are
//! looser than box bounds.

use crate::aknn::{check_deadline, inflate_sq};
use crate::error::QueryError;
use crate::result::{AknnResult, DistBound, Neighbor};
use crate::stats::QueryStats;
use fuzzy_core::metric::Metric;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_index::mtree::MTree;
use fuzzy_index::{MinKey, NodeAccess, NodeId, NodeView};
use fuzzy_store::ObjectStore;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A unit of pending best-first work.
enum Pending {
    /// An unexpanded M-tree node.
    Node(NodeId),
    /// A leaf entry awaiting its exact probe.
    Object(ObjectId),
}

/// The query-side ball: representative point and its metric spread.
pub(crate) fn query_ball<M: Metric<D> + ?Sized, const D: usize>(
    metric: &M,
    q: &FuzzyObject<D>,
) -> (fuzzy_geom::Point<D>, f64) {
    let rep = q.rep_point();
    let spread = q.points().iter().map(|p| metric.dist(&rep, p)).fold(0.0_f64, f64::max);
    (rep, spread)
}

/// Clamped squared lower bound from two balls at center distance `d`.
pub(crate) fn ball_lb_sq(d: f64, q_spread: f64, other_radius: f64) -> f64 {
    let lb = (d - q_spread - other_radius).max(0.0);
    lb * lb
}

/// k nearest objects to `q` at threshold `t` under `metric`, searched
/// through an [`MTree`] built under the *same* metric (the `.fzmt` loader
/// enforces the pairing by name; in-process callers must uphold it).
///
/// Returns exact neighbours in canonical `(distance, id)` order. Costs are
/// accounted in the same units as the rectangle engine: `node_accesses`
/// per expanded node, `object_accesses` per store probe, `distance_evals`
/// per exact α-distance evaluation, `bound_evals` per entry bound.
///
/// Past `deadline` the search aborts with
/// [`QueryError::DeadlineExceeded`] at its next node expansion or object
/// probe, like the rectangle engine; `None` never expires.
pub fn metric_aknn<M: Metric<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    tree: &MTree<D>,
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    t: Threshold,
    deadline: Option<Instant>,
) -> Result<AknnResult, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    if q.cut_len(t) == 0 {
        return Err(QueryError::EmptyQueryCut);
    }
    let start = Instant::now();
    let mut stats = QueryStats::default();
    let (q_rep, q_spread) = query_ball(metric, q);

    // Exact results so far, kept sorted by (squared distance, id); τ is
    // the k-th entry's distance once the set is full.
    let mut found: Vec<(f64, ObjectId)> = Vec::with_capacity(k + 1);
    let tau_sq = |found: &Vec<(f64, ObjectId)>| {
        if found.len() == k {
            found[k - 1].0
        } else {
            f64::INFINITY
        }
    };

    let mut heap: BinaryHeap<MinKey<Pending>> = BinaryHeap::new();
    if !tree.is_empty() {
        let root = tree.root_id();
        stats.bound_evals += 1;
        let d = metric.dist(&q_rep, tree.router(root));
        heap.push(MinKey {
            key: ball_lb_sq(d, q_spread, tree.cover_radius(root)),
            item: Pending::Node(root),
        });
    }

    while let Some(MinKey { key, item }) = heap.pop() {
        if found.len() == k && key > inflate_sq(tau_sq(&found)) {
            break;
        }
        match item {
            Pending::Node(id) => {
                check_deadline(deadline)?;
                stats.node_accesses += 1;
                let node = tree.read_node(id).map_err(QueryError::Store)?;
                match node.view() {
                    NodeView::Nodes(children) => {
                        for child in children {
                            stats.bound_evals += 1;
                            let d = metric.dist(&q_rep, tree.router(child.id));
                            let lb = ball_lb_sq(d, q_spread, tree.cover_radius(child.id));
                            if found.len() < k || lb <= inflate_sq(tau_sq(&found)) {
                                heap.push(MinKey { key: lb, item: Pending::Node(child.id) });
                            }
                        }
                    }
                    NodeView::Entries(entries) => {
                        let spreads =
                            tree.leaf_spreads(id).expect("leaf view implies leaf spreads");
                        for (e, &spread) in entries.iter().zip(spreads) {
                            stats.bound_evals += 1;
                            let d = metric.dist(&q_rep, &e.rep);
                            let lb = ball_lb_sq(d, q_spread, spread);
                            if found.len() < k || lb <= inflate_sq(tau_sq(&found)) {
                                heap.push(MinKey { key: lb, item: Pending::Object(e.id) });
                            }
                        }
                    }
                }
            }
            Pending::Object(id) => {
                check_deadline(deadline)?;
                stats.object_accesses += 1;
                let obj = store.probe(id).map_err(QueryError::Store)?;
                stats.distance_evals += 1;
                let seed = inflate_sq(tau_sq(&found));
                // Probed object first, constant query second: the kernel's
                // second argument is the reusable side, and `q` is the one
                // operand whose caches survive across probes.
                if let Some(d_sq) = metric.alpha_distance_sq_bounded(&obj, q, t, seed) {
                    let pos = found.partition_point(|&(d, i)| d < d_sq || (d == d_sq && i < id));
                    found.insert(pos, (d_sq, id));
                    found.truncate(k);
                }
            }
        }
    }

    stats.wall = start.elapsed();
    let neighbors = found
        .into_iter()
        .map(|(d_sq, id)| Neighbor { id, dist: DistBound::Exact(d_sq.sqrt()) })
        .collect();
    Ok(AknnResult { neighbors, stats })
}

/// Brute-force oracle: evaluate `d_α(q, O)` for **every** stored object
/// under `metric` and keep the k smallest in canonical `(distance, id)`
/// order. Linear cost, no index — what the metric suite diffs
/// [`metric_aknn`] against.
pub fn metric_aknn_brute<M: Metric<D>, S: ObjectStore<D>, const D: usize>(
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
        // Same operand order as the indexed path: the per-probe object is
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
