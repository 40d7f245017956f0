//! Scatter-gather queries over a shard forest with a shared τ bound.
//!
//! A sharded index (`fuzzy_index::ShardedIndex`, or any slice of
//! [`NodeAccess`] backends over one object store) answers AKNN by
//! *scatter-gather*: one best-first search per shard, merged by exact
//! distance. Run naively that does S× the work of a single tree; the
//! paper's Eq.-2 pruning generalizes across trees through one shared
//! bound:
//!
//! * [`SharedTau`] — the global k-th-best **upper bound** τ (squared), an
//!   `AtomicU64` over the IEEE-754 bit pattern (non-negative doubles
//!   order identically as integers, so `fetch_min` on bits is `min` on
//!   distances). Every per-shard search publishes its running k-th-best
//!   live upper bound into it and reads it back at each heap pop, so a
//!   late shard prunes against candidates an earlier shard already found
//!   — often at its root, without a single node read.
//! * Shards are visited in ascending root-rectangle distance from the
//!   query cut, so the shard most likely to contain the answer runs
//!   first and seeds τ tightly for the rest.
//! * Every prune compares strictly against an ulp-inflated τ, so exact
//!   ties survive and the merged answer is **byte-identical** to a
//!   single tree over the union (`crates/query/tests/shard_determinism.rs`
//!   proves this cell by cell; `shard_props.rs` property-checks pruned
//!   against unpruned scatter-gather).
//!
//! [`Forest`] is the layout: `QueryEngine::new(&Forest::new(&shards),
//! &store)` *is* the scatter-gather engine (AKNN/RKNN, batches, the
//! server's sharded arm); [`sharded_alpha_distance_join`] is the join.
//! Mutation is the caller's: a [`Versioned`](crate::Versioned) shard
//! vector plus `fuzzy_index::ShardManifest::route` and
//! `fuzzy_index::shard::compact_shards`.

use crate::aknn::{
    resolve_pool, search, AknnConfig, FoundNeighbor, QueryScratch, SearchMode, SearchOutcome,
};
use crate::engine::SearchBackend;
use crate::error::QueryError;
use crate::join::{alpha_distance_join, JoinResult};
use crate::rknn::range_candidates_one;
use crate::stats::QueryStats;
use fuzzy_core::metric::Metric;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Mbr;
use fuzzy_index::NodeAccess;
use fuzzy_store::ObjectStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The global k-th-best upper bound τ (squared α-distance) shared by the
/// per-shard searches of one scatter-gather query.
///
/// Stored as the IEEE-754 bit pattern of a non-negative `f64` in an
/// `AtomicU64`: for non-negative doubles the unsigned bit order *is* the
/// numeric order, so [`SharedTau::observe`] is a lock-free `fetch_min`.
/// The bound is monotonically non-increasing over the query's lifetime —
/// a reader may see a stale (larger) value, which only weakens pruning,
/// never correctness. One instance lives exactly as long as one query.
#[derive(Debug)]
pub struct SharedTau(AtomicU64);

impl Default for SharedTau {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedTau {
    /// A fresh bound: τ = +∞ (nothing prunes).
    pub fn new() -> Self {
        Self(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// Publish a sound bound: at least `k` distinct objects are known to
    /// lie within `tau_sq` (squared). Keeps the minimum of all published
    /// values; non-finite or negative inputs are ignored.
    pub fn observe(&self, tau_sq: f64) {
        if tau_sq.is_finite() && tau_sq >= 0.0 {
            self.0.fetch_min(tau_sq.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current bound (squared); `+∞` until the first observation.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Compare two exact-distance neighbours canonically: by distance, ties
/// by object id. This is the merge order of every scatter-gather result,
/// independent of shard count and visit order.
fn canonical_cmp<const D: usize>(a: &FoundNeighbor<D>, b: &FoundNeighbor<D>) -> std::cmp::Ordering {
    a.dist.hi().total_cmp(&b.dist.hi()).then(a.id.cmp(&b.id))
}

/// Match the ulp inflation of the search-internal bound comparisons (see
/// `aknn::inflate_sq`): a merged k-th distance is published with this
/// slack so the sqrt→square round trip can never tighten τ below the
/// true k-th squared distance.
#[inline]
fn inflate_sq(hi_sq: f64) -> f64 {
    hi_sq * (1.0 + 1e-12) + f64::MIN_POSITIVE
}

/// Scatter-gather AKNN over a shard forest: per-shard *lazy* best-first
/// searches sharing τ through `SharedTau`, then one gather phase
/// ([`crate::aknn::resolve_pool`]) that resolves the merged candidate
/// pool to exact distances in global lower-bound order, merged
/// canonically (distance, then id) and truncated to `k`.
///
/// Shards are visited in ascending `root_mbr → query-cut` distance (ties
/// by shard index), so the most promising shard establishes τ first and
/// later shards prune against it — a shard whose root rectangle already
/// lies beyond τ is dismissed at its root pop with **zero** node reads
/// and zero object probes. After each shard, every pooled candidate's
/// tightest bound is carried into the next shard's seed tracker and the
/// pool's k-th-best bound is published as τ, so later shards hold the
/// same candidate-granularity domination a single tree would. Object
/// probes are deferred to the gather phase wherever the variant allows
/// (the scatter runs lazy), which keeps total probes at S shards from
/// exceeding the single-shard baseline: the gather probes in exactly
/// the order a single tree would.
///
/// `pruned = false` runs every shard independently (no τ exchange) —
/// the reference the property suite compares against.
///
/// The shards are searched one after another and every [`search`] resets
/// the scratch on entry and clears it on exit, so the caller's one
/// `scratch` serves every shard in turn.
#[allow(clippy::too_many_arguments)]
fn sharded_search<M: Metric<D>, A: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    shards: &[A],
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    t: Threshold,
    cfg: &AknnConfig,
    pruned: bool,
    scratch: &mut QueryScratch<D>,
) -> Result<SearchOutcome<D>, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    let start = Instant::now();
    let q_cut = q.cut_mbr(t).ok_or(QueryError::EmptyQueryCut)?;

    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by(|&a, &b| {
        let da = metric.min_box_dist_sq(&shards[a].root_mbr(), &q_cut);
        let db = metric.min_box_dist_sq(&shards[b].root_mbr(), &q_cut);
        da.total_cmp(&db).then(a.cmp(&b))
    });

    let tau = SharedTau::new();
    let shared = pruned.then_some(&tau);
    let mut pool: Vec<FoundNeighbor<D>> = Vec::with_capacity(k * shards.len().max(1));
    let mut stats = QueryStats::default();
    // Candidates carried into the next shard's seed tracker: (id,
    // tightest squared bound) of everything pooled so far. Ids are
    // disjoint across shards and every entry is a live candidate of the
    // gather phase, so later shards may count them toward the running
    // k-th-best bound exactly like local candidates — the
    // candidate-granularity domination a single tree gets for free.
    let mut carry: Vec<(ObjectId, f64)> = Vec::new();
    let mut hi_tmp: Vec<f64> = Vec::new();
    for &si in &order {
        let out = search(
            metric,
            &shards[si],
            store,
            q,
            k,
            t,
            cfg,
            SearchMode::Collect,
            scratch,
            shared,
            if pruned { &carry } else { &[] },
        )?;
        stats.object_accesses += out.stats.object_accesses;
        stats.node_accesses += out.stats.node_accesses;
        stats.node_disk_reads += out.stats.node_disk_reads;
        stats.distance_evals += out.stats.distance_evals;
        stats.bound_evals += out.stats.bound_evals;
        pool.extend(out.neighbors);
        if pruned {
            carry.clear();
            carry.extend(pool.iter().map(|n| {
                let h = n.dist.hi();
                (n.id, if h.is_finite() { h * h } else { f64::INFINITY })
            }));
            if pool.len() >= k {
                hi_tmp.clear();
                hi_tmp.extend(carry.iter().map(|&(_, h)| h));
                let (_, kth, _) = hi_tmp.select_nth_unstable_by(k - 1, |a, b| a.total_cmp(b));
                if kth.is_finite() {
                    tau.observe(inflate_sq(*kth));
                }
            }
        }
    }

    let mut merged = resolve_pool(metric, store, q, k, t, pool, &mut stats)?;
    merged.sort_by(canonical_cmp);
    merged.truncate(k);

    stats.wall = start.elapsed();
    Ok(SearchOutcome { neighbors: merged, stats })
}

/// A shard forest as a [`QueryEngine`](crate::QueryEngine) index: any
/// slice of [`NodeAccess`] backends (`&[RTree]`, `&[OverlayRTree]`, a
/// `Vec<Arc<PagedRTree>>`, a pinned [`Versioned`](crate::Versioned)
/// snapshot of a shard vector) over the one shared object store.
///
/// Answers come back in canonical exact form — every distance exact,
/// sorted by (distance, id) — byte-identical to
/// [`QueryEngine::aknn_exact`](crate::QueryEngine::aknn_exact) on a single
/// tree over the union of the shards, at every shard count: the forest is
/// an execution layout, not a semantic change. A forest of one is still a
/// forest (scatter of one, then gather), not a shortcut to the lazy
/// single-tree path.
#[derive(Clone, Copy, Debug)]
pub struct Forest<'a, A> {
    shards: &'a [A],
    pruned: bool,
}

impl<'a, A> Forest<'a, A> {
    /// Scatter-gather over `shards` with the shared τ bound.
    pub fn new(shards: &'a [A]) -> Self {
        Self { shards, pruned: true }
    }

    /// [`Forest::new`] without the shared τ: every shard is searched
    /// independently and the results merged. Same answers, strictly more
    /// work — the reference arm of the pruning-equivalence property
    /// suite, public so external harnesses can check τ soundness on their
    /// own data.
    pub fn unpruned(shards: &'a [A]) -> Self {
        Self { shards, pruned: false }
    }

    /// The shard slice.
    pub fn shards(&self) -> &'a [A] {
        self.shards
    }
}

impl<A: NodeAccess<D>, const D: usize> SearchBackend<D> for Forest<'_, A> {
    /// Scatter-gather top-k; `exact` is moot — a forest resolves every
    /// answer to its exact distance in the gather phase.
    fn top_k<M: Metric<D>, S: ObjectStore<D>>(
        &self,
        metric: &M,
        store: &S,
        q: &FuzzyObject<D>,
        k: usize,
        t: Threshold,
        cfg: &AknnConfig,
        _exact: bool,
        scratch: &mut QueryScratch<D>,
    ) -> Result<SearchOutcome<D>, QueryError> {
        sharded_search(metric, self.shards, store, q, k, t, cfg, self.pruned, scratch)
    }

    /// Union of the per-shard range scans (shards partition the entries,
    /// so the union is exact).
    fn range_candidates<M: Metric<D>>(
        &self,
        metric: &M,
        q_cut: &Mbr<D>,
        t_start: Threshold,
        r_sq: f64,
        cfg: &AknnConfig,
        stats: &mut QueryStats,
    ) -> Result<Vec<ObjectId>, QueryError> {
        let mut ids = Vec::new();
        for shard in self.shards {
            ids.extend(range_candidates_one(metric, shard, q_cut, t_start, r_sq, cfg, stats)?);
        }
        Ok(ids)
    }
}

/// ε-join of two shard forests at threshold `t`: the synchronized
/// traversal of [`alpha_distance_join`] runs once per (left shard, right
/// shard) pair and the pairs concatenate — shards partition their
/// dataset, so the pair sets are disjoint and the canonical
/// (left, right) sort makes the merged answer byte-identical to the
/// single-tree join. Pass a one-element slice to join a forest against a
/// single tree.
pub fn sharded_alpha_distance_join<AL, AR, SL, SR, const D: usize>(
    left_shards: &[AL],
    left_store: &SL,
    right_shards: &[AR],
    right_store: &SR,
    t: Threshold,
    radius: f64,
    cfg: &AknnConfig,
) -> Result<JoinResult, QueryError>
where
    AL: NodeAccess<D>,
    AR: NodeAccess<D>,
    SL: ObjectStore<D>,
    SR: ObjectStore<D>,
{
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut stats = QueryStats::default();
    for lt in left_shards {
        for rt in right_shards {
            let part = alpha_distance_join(lt, left_store, rt, right_store, t, radius, cfg)?;
            stats.object_accesses += part.stats.object_accesses;
            stats.node_accesses += part.stats.node_accesses;
            stats.node_disk_reads += part.stats.node_disk_reads;
            stats.distance_evals += part.stats.distance_evals;
            stats.bound_evals += part.stats.bound_evals;
            stats.candidates += part.stats.candidates;
            pairs.extend(part.pairs);
        }
    }
    pairs.sort_by_key(|p| (p.left, p.right));
    stats.wall = start.elapsed();
    Ok(JoinResult { pairs, stats })
}
