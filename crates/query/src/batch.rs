//! Concurrent batch query execution.
//!
//! The paper's experiments (§6) are workload-level: thousands of AKNN/RKNN
//! queries over one shared index and store, varying k, α and the pruning
//! variant. [`BatchExecutor`] is that execution layer: it fans a workload
//! of mixed requests across scoped worker threads, each running ordinary
//! single-query searches against the shared (read-only) index and store
//! through the one [`QueryEngine`].
//!
//! Guarantees, independent of the thread count:
//!
//! * **Deterministic output order** — `responses[i]` always answers
//!   `requests[i]`; workers claim requests from a shared cursor but report
//!   results by request index.
//! * **Lossless stats** — every query charges a private [`QueryStats`];
//!   per-thread and whole-batch aggregates are exact sums, so a
//!   multi-thread run accounts for exactly the same probes and node
//!   expansions as the equivalent sequential run (test-enforced).
//! * **Graceful errors** — a failing query yields `Err` in its own slot
//!   and the batch keeps going; nothing panics across the scope.

use crate::aknn::{AknnConfig, QueryScratch};
use crate::engine::QueryEngine;
use crate::error::QueryError;
use crate::result::{AknnResult, RknnResult};
use crate::rknn::RknnAlgorithm;
use crate::stats::QueryStats;
use fuzzy_core::FuzzyObject;
use fuzzy_index::NodeAccess;
use fuzzy_store::ObjectStore;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One query of a batched workload.
#[derive(Clone, Debug)]
pub enum BatchRequest<const D: usize> {
    /// An AKNN query (Definition 4).
    Aknn {
        /// The query object.
        query: FuzzyObject<D>,
        /// Number of neighbours.
        k: usize,
        /// Probability threshold in `(0, 1]`.
        alpha: f64,
        /// Pruning variant.
        cfg: AknnConfig,
    },
    /// An RKNN query (Definition 5).
    Rknn {
        /// The query object.
        query: FuzzyObject<D>,
        /// Number of neighbours.
        k: usize,
        /// Range start in `(0, 1]`.
        alpha_start: f64,
        /// Range end in `(0, 1]`.
        alpha_end: f64,
        /// Algorithm (Naive/Basic/RSS/RSS-ICR).
        algo: RknnAlgorithm,
        /// Pruning variant for the inner AKNN searches.
        cfg: AknnConfig,
    },
}

impl<const D: usize> BatchRequest<D> {
    /// Convenience constructor for an AKNN request.
    pub fn aknn(query: FuzzyObject<D>, k: usize, alpha: f64, cfg: AknnConfig) -> Self {
        Self::Aknn { query, k, alpha, cfg }
    }

    /// Convenience constructor for an RKNN request.
    pub fn rknn(
        query: FuzzyObject<D>,
        k: usize,
        range: (f64, f64),
        algo: RknnAlgorithm,
        cfg: AknnConfig,
    ) -> Self {
        Self::Rknn { query, k, alpha_start: range.0, alpha_end: range.1, algo, cfg }
    }
}

/// The answer to one [`BatchRequest`].
#[derive(Clone, Debug)]
pub enum BatchResponse {
    /// Answer to an AKNN request.
    Aknn(AknnResult),
    /// Answer to an RKNN request.
    Rknn(RknnResult),
}

impl BatchResponse {
    /// Execution costs of this query.
    pub fn stats(&self) -> &QueryStats {
        match self {
            Self::Aknn(r) => &r.stats,
            Self::Rknn(r) => &r.stats,
        }
    }
}

/// What one worker thread did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadStats {
    /// Number of queries this worker executed (successful or failed).
    pub executed: usize,
    /// Exact sum of the per-query stats of this worker's successful
    /// queries.
    pub stats: QueryStats,
}

/// Result of a batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One slot per request, **in request order** regardless of the thread
    /// count or scheduling: `responses[i]` answers `requests[i]`.
    pub responses: Vec<Result<BatchResponse, QueryError>>,
    /// Per-worker accounting (length = worker count actually spawned).
    pub per_thread: Vec<ThreadStats>,
    /// Wall-clock time of the whole batch (not the sum of per-query
    /// walls — with `t` threads this is roughly `sum / t`).
    pub wall: Duration,
}

impl BatchOutcome {
    /// Lossless sum of the stats of every successful query. Per-query
    /// stats are charged locally, never read back from shared counters,
    /// so this equals the sequential total exactly — except
    /// `node_disk_reads`, which depends on how concurrent queries
    /// interleave on a shared buffer pool.
    pub fn total_stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for t in &self.per_thread {
            total += t.stats;
        }
        total
    }

    /// Number of successful queries.
    pub fn ok_count(&self) -> usize {
        self.responses.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of failed queries.
    pub fn error_count(&self) -> usize {
        self.responses.len() - self.ok_count()
    }

    /// Iterate over the failures with their request indices.
    pub fn errors(&self) -> impl Iterator<Item = (usize, &QueryError)> {
        self.responses.iter().enumerate().filter_map(|(i, r)| match r {
            Err(e) => Some((i, e)),
            Ok(_) => None,
        })
    }
}

/// Fans a workload of [`BatchRequest`]s across scoped worker threads.
///
/// Workers pull requests from a shared atomic cursor (dynamic load
/// balancing — an expensive RKNN does not stall the queue behind it) and
/// run ordinary single-query searches; the index and store are only read.
/// See [`BatchOutcome`] for the ordering and accounting guarantees.
///
/// ```
/// use fuzzy_core::{FuzzyObject, ObjectId};
/// use fuzzy_geom::Point;
/// use fuzzy_index::{RTree, RTreeConfig};
/// use fuzzy_query::{AknnConfig, BatchExecutor, BatchRequest, BatchResponse};
/// use fuzzy_store::{MemStore, ObjectStore};
///
/// let store = MemStore::from_objects((0..8).map(|i| {
///     FuzzyObject::new(
///         ObjectId(i),
///         vec![Point::xy(i as f64, 0.0), Point::xy(i as f64, 0.5)],
///         vec![1.0, 0.5],
///     )
///     .unwrap()
/// }))
/// .unwrap();
/// let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
///
/// let requests: Vec<BatchRequest<2>> = (0..8)
///     .map(|i| {
///         let q = store.probe(ObjectId(i)).unwrap().as_ref().clone();
///         BatchRequest::aknn(q, 3, 0.5, AknnConfig::lb_lp_ub())
///     })
///     .collect();
///
/// let outcome = BatchExecutor::new(4).run(&tree, &store, &requests);
/// assert_eq!(outcome.responses.len(), 8);
/// assert_eq!(outcome.error_count(), 0);
/// // responses[i] answers requests[i]: each query object is its own 1-NN.
/// let Ok(BatchResponse::Aknn(first)) = &outcome.responses[0] else { panic!("an AKNN answer") };
/// assert!(first.ids().contains(&ObjectId(0)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchExecutor {
    threads: usize,
}

impl Default for BatchExecutor {
    /// One worker per available CPU.
    fn default() -> Self {
        Self::new(0)
    }
}

impl BatchExecutor {
    /// Executor with a fixed worker count; `0` means one worker per
    /// available CPU.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// A single-worker executor (the sequential reference).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run a workload against a borrowed index and store: any
    /// [`NodeAccess`] index — an in-memory or paged tree, or an `Arc`
    /// snapshot of one.
    pub fn run<I, S, const D: usize>(
        &self,
        index: &I,
        store: &S,
        requests: &[BatchRequest<D>],
    ) -> BatchOutcome
    where
        I: NodeAccess<D> + Sync,
        S: ObjectStore<D> + Sync,
    {
        let started = Instant::now();
        // Never spawn more workers than there are requests.
        let workers = self.threads.min(requests.len()).max(1);
        let cursor = AtomicUsize::new(0);

        let mut responses: Vec<Option<Result<BatchResponse, QueryError>>> = Vec::new();
        responses.resize_with(requests.len(), || None);
        let mut per_thread = vec![ThreadStats::default(); workers];

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let engine = QueryEngine::new(index, store);
                        // One scratch per worker: every query this thread
                        // claims reuses the same heap/buffer/arena
                        // capacity (a query allocates only its answer and
                        // the objects it reads).
                        let mut scratch = QueryScratch::new();
                        let mut report = ThreadStats::default();
                        let mut answered: Vec<(usize, Result<BatchResponse, QueryError>)> =
                            Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(request) = requests.get(i) else { break };
                            let res = execute_caught(&engine, request, &mut scratch);
                            report.executed += 1;
                            if let Ok(r) = &res {
                                report.stats += *r.stats();
                            }
                            answered.push((i, res));
                        }
                        (report, answered)
                    })
                })
                .collect();
            for (w, handle) in handles.into_iter().enumerate() {
                let (report, answered) = handle.join().expect("batch worker panicked");
                per_thread[w] = report;
                for (i, res) in answered {
                    responses[i] = Some(res);
                }
            }
        });

        BatchOutcome {
            responses: responses
                .into_iter()
                .map(|slot| slot.expect("every request index was claimed exactly once"))
                .collect(),
            per_thread,
            wall: started.elapsed(),
        }
    }
}

/// Dispatch one request on the calling thread, reusing the worker's
/// scratch.
///
/// This is the single-request execution primitive shared by the batch
/// workers and the resident query server — both hand it a long-lived
/// [`QueryScratch`], so the search's own bookkeeping reuses its capacity.
pub fn execute_one<I: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    engine: &QueryEngine<'_, I, S, D>,
    request: &BatchRequest<D>,
    scratch: &mut QueryScratch<D>,
) -> Result<BatchResponse, QueryError> {
    match request {
        BatchRequest::Aknn { query, k, alpha, cfg } => {
            engine.aknn_with_scratch(query, *k, *alpha, cfg, scratch).map(BatchResponse::Aknn)
        }
        BatchRequest::Rknn { query, k, alpha_start, alpha_end, algo, cfg } => engine
            .rknn_with_scratch(query, *k, *alpha_start, *alpha_end, *algo, cfg, scratch)
            .map(BatchResponse::Rknn),
    }
}

/// Like [`execute_one`], but a panic inside the query is caught at this
/// per-query boundary and surfaced as [`QueryError::Panicked`] in the
/// request's own error slot (with the payload's message when it was a
/// string), so one poisoned query cannot tear down the
/// batch scope (or a server worker) and take the other answers with it.
///
/// Reusing the scratch afterwards is sound: every search resets the
/// scratch on entry, so a half-filled heap or buffer from the unwound
/// query cannot leak into the next one.
pub fn execute_caught<I: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    engine: &QueryEngine<'_, I, S, D>,
    request: &BatchRequest<D>,
    scratch: &mut QueryScratch<D>,
) -> Result<BatchResponse, QueryError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_one(engine, request, scratch)))
        .unwrap_or_else(|payload| {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(QueryError::Panicked { message })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::ObjectId;
    use fuzzy_geom::Point;
    use fuzzy_index::{RTree, RTreeConfig};
    use fuzzy_store::MemStore;

    fn fixture(n: u64) -> (RTree<2>, MemStore<2>) {
        let store = MemStore::from_objects((0..n).map(|i| {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            FuzzyObject::new(
                ObjectId(i),
                vec![Point::xy(x, y), Point::xy(x + 0.3, y + 0.3), Point::xy(x - 0.2, y + 0.1)],
                vec![1.0, 0.6, 0.3],
            )
            .unwrap()
        }))
        .unwrap();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        (tree, store)
    }

    fn workload(store: &MemStore<2>, n: u64) -> Vec<BatchRequest<2>> {
        (0..n)
            .map(|i| {
                let q = store.probe(ObjectId(i)).unwrap().as_ref().clone();
                if i % 3 == 0 {
                    BatchRequest::rknn(
                        q,
                        2,
                        (0.3, 0.8),
                        RknnAlgorithm::RssIcr,
                        AknnConfig::lb_lp_ub(),
                    )
                } else {
                    BatchRequest::aknn(q, 3, 0.5, AknnConfig::lb_lp_ub())
                }
            })
            .collect()
    }

    #[test]
    fn answers_arrive_in_request_order() {
        let (tree, store) = fixture(30);
        let requests = workload(&store, 30);
        let outcome = BatchExecutor::new(4).run(&tree, &store, &requests);
        assert_eq!(outcome.responses.len(), 30);
        for (i, res) in outcome.responses.iter().enumerate() {
            let res = res.as_ref().unwrap();
            // Request i queried object i; the object is its own nearest
            // neighbour, so it must appear in its own answer.
            match res {
                BatchResponse::Aknn(r) => assert!(r.ids().contains(&ObjectId(i as u64))),
                BatchResponse::Rknn(r) => assert!(r.range_of(ObjectId(i as u64)).is_some()),
            }
        }
    }

    #[test]
    fn per_query_errors_do_not_poison_the_batch() {
        let (tree, store) = fixture(10);
        let good = store.probe(ObjectId(0)).unwrap().as_ref().clone();
        let requests = vec![
            BatchRequest::aknn(good.clone(), 2, 0.5, AknnConfig::lb_lp_ub()),
            // Invalid probability: fails validation inside the worker.
            BatchRequest::aknn(good.clone(), 2, 1.5, AknnConfig::lb_lp_ub()),
            BatchRequest::aknn(good, 2, 0.5, AknnConfig::lb_lp_ub()),
        ];
        let outcome = BatchExecutor::new(2).run(&tree, &store, &requests);
        assert_eq!(outcome.ok_count(), 2);
        assert_eq!(outcome.error_count(), 1);
        let (idx, err) = outcome.errors().next().unwrap();
        assert_eq!(idx, 1);
        assert!(matches!(err, QueryError::InvalidProbability { .. }));
    }

    /// A store wrapper that panics when probing one designated id —
    /// simulates a latent bug deep inside a single query's traversal.
    struct PanickyStore<S> {
        inner: S,
        poison: ObjectId,
    }

    impl<S: fuzzy_store::ObjectStore<2>> fuzzy_store::ObjectStore<2> for PanickyStore<S> {
        fn probe(
            &self,
            id: ObjectId,
        ) -> Result<std::sync::Arc<FuzzyObject<2>>, fuzzy_store::StoreError> {
            assert!(id != self.poison, "injected probe panic");
            self.inner.probe(id)
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn summaries(&self) -> &[fuzzy_core::ObjectSummary<2>] {
            self.inner.summaries()
        }

        fn stats(&self) -> fuzzy_store::IoStatsSnapshot {
            self.inner.stats()
        }

        fn reset_stats(&self) {
            self.inner.reset_stats()
        }
    }

    #[test]
    fn panicking_query_is_caught_per_slot() {
        let store = MemStore::from_objects((0..12).map(|i| {
            let x = (i % 4) as f64;
            let y = (i / 4) as f64;
            FuzzyObject::new(
                ObjectId(i),
                vec![Point::xy(x, y), Point::xy(x + 0.3, y + 0.3)],
                vec![1.0, 0.5],
            )
            .unwrap()
        }))
        .unwrap();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        // Probing object 5 panics; `basic()` probes every popped entry,
        // so a wide AKNN near object 5 is guaranteed to hit it.
        let store = PanickyStore { inner: store, poison: ObjectId(5) };
        let q5 = store.inner.probe(ObjectId(5)).unwrap().as_ref().clone();
        let q0 = store.inner.probe(ObjectId(0)).unwrap().as_ref().clone();

        let requests = vec![
            BatchRequest::aknn(q0.clone(), 2, 0.5, AknnConfig::lb_lp_ub()),
            BatchRequest::aknn(q5, 12, 0.5, AknnConfig::basic()),
            BatchRequest::aknn(q0, 2, 0.5, AknnConfig::lb_lp_ub()),
        ];
        let outcome = BatchExecutor::new(2).run(&tree, &store, &requests);

        assert_eq!(outcome.responses.len(), 3, "every slot answered");
        assert_eq!(outcome.ok_count(), 2, "the other queries' answers survive");
        let (idx, err) = outcome.errors().next().unwrap();
        assert_eq!(idx, 1, "the panic lands in its own request's slot");
        match err {
            QueryError::Panicked { message } => {
                assert!(message.contains("injected probe panic"), "payload preserved: {message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The engine remains usable after the unwind (scratch reset at
        // every search entry): both survivors found their own object.
        for i in [0usize, 2] {
            let Ok(BatchResponse::Aknn(r)) = &outcome.responses[i] else {
                panic!("an AKNN answer")
            };
            assert!(r.ids().contains(&ObjectId(0)));
        }
    }

    #[test]
    fn worker_count_respects_request_count() {
        let (tree, store) = fixture(3);
        let requests = workload(&store, 3);
        let outcome = BatchExecutor::new(16).run(&tree, &store, &requests);
        assert_eq!(outcome.per_thread.len(), 3);
        let executed: usize = outcome.per_thread.iter().map(|t| t.executed).sum();
        assert_eq!(executed, 3);
    }

    #[test]
    fn empty_workload() {
        let (tree, store) = fixture(2);
        let outcome = BatchExecutor::new(4).run(&tree, &store, &[]);
        assert!(outcome.responses.is_empty());
        assert_eq!(outcome.total_stats(), QueryStats::default());
    }
}
