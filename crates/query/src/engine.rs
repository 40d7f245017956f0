//! The public query facade: one [`QueryEngine`] over whatever it is asked
//! to search.
//!
//! The engine is generic over **what it searches** — any [`NodeAccess`]
//! index (a `PagedRTree` read from a file or an in-memory image, an
//! `OverlayRTree`, an `Arc` snapshot of either) — and over the **object
//! store** `S` (anything implementing [`ObjectStore`]).
//! The paper has one AKNN procedure and three RKNN algorithms that call
//! it; the backend under them and the ownership around them (`&T`,
//! `Arc<T>`, a [`Versioned`](crate::Versioned) snapshot) are the caller's
//! choice, not separate engine types.
//!
//! The plain methods fix the metric to [`L2`]; the `*_in` roots take an
//! explicit [`Metric`]. Under `L2` the generic path inlines to the
//! specialized kernels, so answers and counters are byte-identical either
//! way (the differential suites pin this).

use crate::aknn::{exact_neighbor, search, AknnConfig, QueryScratch};
use crate::error::QueryError;
use crate::result::{AknnResult, RknnResult};
use crate::rknn::{self, RknnAlgorithm};
use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{FuzzyObject, Threshold};
use fuzzy_index::NodeAccess;
use fuzzy_store::ObjectStore;
use std::time::Instant;

/// `Threshold::at(alpha)` for a caller-supplied probability: `alpha` must
/// lie in `(0, 1]`, anything else is a typed error rather than a panic.
pub(crate) fn threshold_at(alpha: f64) -> Result<Threshold, QueryError> {
    if alpha > 0.0 && alpha <= 1.0 {
        Ok(Threshold::at(alpha))
    } else {
        Err(QueryError::InvalidProbability { value: alpha })
    }
}

/// The query engine: a borrowed index and a borrowed object store. All
/// query state is per call, so one engine — or any number of engines over
/// the same `&I`/`&S` — may be queried from many threads at once.
///
/// ```
/// use fuzzy_core::{FuzzyObject, ObjectId};
/// use fuzzy_geom::Point;
/// use fuzzy_index::{RTree, RTreeConfig};
/// use fuzzy_query::{AknnConfig, QueryEngine, RknnAlgorithm};
/// use fuzzy_store::{MemStore, ObjectStore};
///
/// // Six fuzzy objects strung along the x axis, two points each.
/// let store = MemStore::from_objects((0..6).map(|i| {
///     let x = i as f64 * 2.0;
///     FuzzyObject::new(
///         ObjectId(i),
///         vec![Point::xy(x, 0.0), Point::xy(x + 0.5, 0.5)],
///         vec![1.0, 0.4],
///     )
///     .unwrap()
/// }))
/// .unwrap();
/// let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
/// let engine = QueryEngine::new(&tree, &store);
///
/// let query = store.probe(ObjectId(0)).unwrap();
/// let knn = engine.aknn(&query, 3, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
/// assert_eq!(knn.neighbors.len(), 3);
/// assert!(knn.ids().contains(&ObjectId(0))); // the query object itself, at distance 0
///
/// let rknn = engine
///     .rknn(&query, 2, 0.3, 0.7, RknnAlgorithm::RssIcr, &AknnConfig::lb_lp_ub())
///     .unwrap();
/// assert!(rknn.range_of(ObjectId(0)).is_some());
/// ```
pub struct QueryEngine<'a, I, S, const D: usize> {
    index: &'a I,
    store: &'a S,
}

impl<'a, I: NodeAccess<D>, S: ObjectStore<D>, const D: usize> QueryEngine<'a, I, S, D> {
    /// Bundle an index and a store.
    pub fn new(index: &'a I, store: &'a S) -> Self {
        Self { index, store }
    }

    /// The underlying index.
    pub fn index(&self) -> &'a I {
        self.index
    }

    /// The underlying store.
    pub fn store(&self) -> &'a S {
        self.store
    }

    /// Ad-hoc kNN query (Definition 4): the `k` objects with smallest
    /// α-distance to `q` at probability threshold `alpha ∈ (0, 1]`.
    pub fn aknn(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
    ) -> Result<AknnResult, QueryError> {
        self.aknn_with_scratch(q, k, alpha, cfg, &mut QueryScratch::new())
    }

    /// [`QueryEngine::aknn`] with caller-provided [`QueryScratch`]. Workers
    /// issuing many queries should reuse one scratch per thread — in
    /// steady state a search then allocates only its answer and the
    /// objects it reads.
    pub fn aknn_with_scratch(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
        scratch: &mut QueryScratch<D>,
    ) -> Result<AknnResult, QueryError> {
        self.aknn_at_with_scratch_in(&L2, q, k, threshold_at(alpha)?, cfg, scratch)
    }

    /// AKNN at an explicit [`Threshold`] (strict thresholds implement the
    /// exact `α + ε` semantics) under an explicit [`Metric`]. This is the
    /// root of the AKNN call graph: the plain methods funnel here with
    /// `metric = &L2`. The answer is lazy: neighbours may be
    /// bound-confirmed, in confirmation order
    /// ([`QueryEngine::aknn_exact`] is the canonical exact form).
    pub fn aknn_at_with_scratch_in<M: Metric<D>>(
        &self,
        metric: &M,
        q: &FuzzyObject<D>,
        k: usize,
        t: Threshold,
        cfg: &AknnConfig,
        scratch: &mut QueryScratch<D>,
    ) -> Result<AknnResult, QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        Ok(search(metric, self.index, self.store, q, k, t, cfg, false, scratch)?.into())
    }

    /// Canonical exact AKNN: every neighbour probed to an exact distance,
    /// sorted by (distance, id) regardless of confirmation order. This is
    /// the form in which answers are comparable byte for byte across
    /// backends — the lazy answer may legitimately carry `Bounded`
    /// knowledge in confirmation order; this one does not.
    pub fn aknn_exact(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
    ) -> Result<AknnResult, QueryError> {
        self.aknn_exact_with_scratch_in(&L2, q, k, alpha, cfg, &mut QueryScratch::new())
    }

    /// [`QueryEngine::aknn_exact`] under an explicit [`Metric`] with
    /// caller-provided scratch.
    pub fn aknn_exact_with_scratch_in<M: Metric<D>>(
        &self,
        metric: &M,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
        scratch: &mut QueryScratch<D>,
    ) -> Result<AknnResult, QueryError> {
        let t = threshold_at(alpha)?;
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        let start = Instant::now();
        let mut out = search(metric, self.index, self.store, q, k, t, cfg, false, scratch)?;
        for n in &mut out.neighbors {
            exact_neighbor(metric, self.store, q, t, cfg, n, &mut out.stats)?;
        }
        out.stats.wall = start.elapsed();
        let mut result: AknnResult = out.into();
        result.neighbors.sort_by(|a, b| a.dist.hi().total_cmp(&b.dist.hi()).then(a.id.cmp(&b.id)));
        Ok(result)
    }

    /// Range kNN query (Definition 5): every object belonging to the kNN
    /// set at some `α ∈ [alpha_start, alpha_end]`, with its qualifying
    /// range.
    pub fn rknn(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha_start: f64,
        alpha_end: f64,
        algo: RknnAlgorithm,
        cfg: &AknnConfig,
    ) -> Result<RknnResult, QueryError> {
        self.rknn_with_scratch(q, k, alpha_start, alpha_end, algo, cfg, &mut QueryScratch::new())
    }

    /// [`QueryEngine::rknn`] with caller-provided scratch; the inner AKNN
    /// invocations of Algorithms 3–5 all reuse it.
    #[allow(clippy::too_many_arguments)]
    pub fn rknn_with_scratch(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha_start: f64,
        alpha_end: f64,
        algo: RknnAlgorithm,
        cfg: &AknnConfig,
        scratch: &mut QueryScratch<D>,
    ) -> Result<RknnResult, QueryError> {
        self.rknn_with_scratch_in(&L2, q, k, alpha_start, alpha_end, algo, cfg, scratch)
    }

    /// [`QueryEngine::rknn_with_scratch`] under an explicit [`Metric`].
    /// Root of the RKNN call graph, as
    /// [`QueryEngine::aknn_at_with_scratch_in`] is for AKNN.
    #[allow(clippy::too_many_arguments)]
    pub fn rknn_with_scratch_in<M: Metric<D>>(
        &self,
        metric: &M,
        q: &FuzzyObject<D>,
        k: usize,
        alpha_start: f64,
        alpha_end: f64,
        algo: RknnAlgorithm,
        cfg: &AknnConfig,
        scratch: &mut QueryScratch<D>,
    ) -> Result<RknnResult, QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        threshold_at(alpha_start)?;
        threshold_at(alpha_end)?;
        if alpha_start > alpha_end {
            return Err(QueryError::InvalidRange { start: alpha_start, end: alpha_end });
        }
        rknn::run(metric, self.index, self.store, q, k, alpha_start, alpha_end, algo, cfg, scratch)
    }
}

#[cfg(test)]
mod send_sync_tests {
    use super::*;
    use fuzzy_index::{OverlayRTree, PagedRTree};
    use fuzzy_store::FileStore;
    use std::sync::Arc;

    fn assert_send_sync<T: Send + Sync>() {}

    /// The whole read path must be shareable across threads: the tree, the
    /// store, and the engine over a tree and an `Arc` snapshot. (An
    /// in-memory tree or store is the same type over an image.) This is a
    /// compile-time audit —
    /// adding interior mutability without synchronization anywhere in
    /// `index`/`store`/`query` breaks this test.
    #[test]
    fn engines_and_components_are_send_sync() {
        assert_send_sync::<PagedRTree<2>>();
        assert_send_sync::<FileStore<2>>();
        assert_send_sync::<QueryScratch<2>>();
        // Over a tree.
        assert_send_sync::<QueryEngine<'static, PagedRTree<2>, FileStore<2>, 2>>();
        // Over an `Arc` snapshot (what `Versioned::snapshot` hands out).
        assert_send_sync::<QueryEngine<'static, Arc<PagedRTree<2>>, FileStore<2>, 2>>();
        assert_send_sync::<QueryEngine<'static, Arc<OverlayRTree<2>>, FileStore<2>, 2>>();
    }
}
