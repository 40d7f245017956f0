//! Epoch/snapshot concurrency for dynamic indexes.
//!
//! The read path of this crate is lock-free by construction: every query
//! runs against `&A`/`&S` references that are never mutated. An index that
//! changes while it serves — the paged overlay (`fuzzy_index::OverlayRTree`)
//! taking inserts and deletes, or a whole tree replaced by a fresh bulk
//! load — breaks that assumption: a writer changing the index
//! underneath an in-flight best-first traversal would hand it node ids of
//! another tree.
//!
//! [`Versioned`] restores the invariant with snapshot isolation:
//!
//! * Writers change a private **master** copy under a mutex and, on
//!   commit, **publish** a frozen clone behind an `Arc`, bumping the
//!   epoch counter.
//! * Readers grab the currently published `Arc` (one atomic-refcount
//!   bump, no tree copy) and run entire queries — AKNN, RKNN, or a whole
//!   workload on scoped threads, one `QueryScratch` each — against that
//!   immutable snapshot. A query admitted at epoch `e` sees exactly the epoch-`e`
//!   index no matter how many commits land while it runs.
//!
//! The cost model: publishing clones the index once per *commit*, not per
//! change — batch your writes in one [`Versioned::write`] closure. For the
//! paged overlay a clone is the (small) delta plus two `Arc` bumps — the
//! open base file and the column of ids it stores, both immutable and shared.
//! A bulk-loaded tree is never edited: it is held as an `Arc<RTree>`, a
//! commit replaces it whole
//! (`write(|tree| *tree = Arc::new(RTree::bulk_load(..)))`) and the clone
//! is one more `Arc` bump.
//!
//! A reader is `QueryEngine::new(&versioned.snapshot(), &store)` — the
//! `Arc` snapshot is an index like any other; a writer is
//! `versioned.write(|overlay| overlay.insert(summary))` or a whole-tree
//! publish.
//!
//! ```
//! use fuzzy_core::{FuzzyObject, ObjectId};
//! use fuzzy_geom::Point;
//! use fuzzy_index::{RTree, RTreeConfig};
//! use fuzzy_query::{AknnConfig, QueryEngine, Versioned};
//! use fuzzy_store::{MemStore, ObjectStore};
//! use std::sync::Arc;
//!
//! let store = MemStore::from_objects((0..8).map(|i| {
//!     FuzzyObject::new(
//!         ObjectId(i),
//!         vec![Point::xy(i as f64, 0.0), Point::xy(i as f64, 1.0)],
//!         vec![1.0, 0.5],
//!     )
//!     .unwrap()
//! }))
//! .unwrap();
//! let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
//! let index = Versioned::new(Arc::new(tree));
//!
//! // Readers pin a snapshot; writers publish new epochs — here a fresh
//! // bulk load without object 3.
//! let pinned = index.snapshot();
//! let without_3 = store.summaries().iter().filter(|s| s.id != ObjectId(3)).copied().collect();
//! index.write(|tree| *tree = Arc::new(RTree::bulk_load(without_3, RTreeConfig::default())));
//! assert_eq!(index.epoch(), 1);
//!
//! let q = store.probe(ObjectId(0)).unwrap();
//! // The pinned snapshot still sees all 8 objects ...
//! let before = QueryEngine::new(&pinned, &store).aknn(&q, 8, 0.5, &AknnConfig::lb_lp_ub());
//! assert_eq!(before.unwrap().neighbors.len(), 8);
//! // ... while a fresh snapshot sees 7.
//! let after = QueryEngine::new(&index.snapshot(), &store).aknn(&q, 8, 0.5, &AknnConfig::lb_lp_ub());
//! assert_eq!(after.unwrap().neighbors.len(), 7);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A value with single-writer/multi-reader snapshot semantics.
///
/// See the [module docs](self) for the scheme. `T` is typically an index
/// (an `OverlayRTree`, or an `Arc<RTree>` replaced whole on each commit),
/// but any `Clone` state works.
#[derive(Debug)]
pub struct Versioned<T> {
    /// The writer's working copy. Changes land here first.
    master: Mutex<T>,
    /// The frozen copy readers see. Swapped wholesale on commit.
    published: RwLock<Arc<T>>,
    /// Bumped on every commit; lets readers detect staleness cheaply.
    epoch: AtomicU64,
}

impl<T: Clone> Versioned<T> {
    /// Wrap `value`, publishing it as epoch 0.
    pub fn new(value: T) -> Self {
        let published = Arc::new(value.clone());
        Self {
            master: Mutex::new(value),
            published: RwLock::new(published),
            epoch: AtomicU64::new(0),
        }
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The currently published snapshot (an `Arc` bump — O(1)). The
    /// snapshot stays valid for as long as the handle is held, regardless
    /// of later commits.
    ///
    /// Never panics, even after a writer panicked: the published `Arc`
    /// is only ever replaced wholesale (never mutated in place), so a
    /// poisoned lock still guards a fully valid snapshot — the read
    /// recovers through [`std::sync::PoisonError::into_inner`].
    pub fn snapshot(&self) -> Arc<T> {
        let guard = self.published.read().unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(&guard)
    }

    /// Apply `mutate` to the master copy and publish the result as a new
    /// epoch. Serializes writers; readers are never blocked (they keep
    /// their snapshots, and `snapshot()` only contends for the swap
    /// instant). Batch multiple changes in one closure to pay the publish
    /// clone once.
    pub fn write<R>(&self, mutate: impl FnOnce(&mut T) -> R) -> R {
        let mut master = self.master.lock().unwrap_or_else(|poisoned| {
            // A previous writer panicked mid-mutation, so the master copy
            // may hold a half-applied change that was never published.
            // Roll it back to the last published snapshot — master and
            // published are identical at the end of every successful
            // commit, so this restores exactly the committed state and
            // gives `write` commit-or-rollback semantics.
            let mut guard = poisoned.into_inner();
            *guard = T::clone(&self.snapshot());
            guard
        });
        let out = mutate(&mut master);
        let fresh = Arc::new(master.clone());
        // Publish while still holding the master lock so commit order and
        // epoch order agree. Recover a poisoned published lock the same
        // way `snapshot()` does: the Arc inside is always valid.
        let mut published = self.published.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        *published = fresh;
        self.epoch.fetch_add(1, Ordering::AcqRel);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aknn::AknnConfig;
    use crate::engine::QueryEngine;
    use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
    use fuzzy_geom::Point;
    use fuzzy_index::{range_scan, NodeAccess, RTree, RTreeConfig};
    use fuzzy_store::{MemStore, ObjectStore};

    /// Whether a range search over all of `tree` finds exactly `len`
    /// entries: every page reachable, none cut off.
    fn consistent(tree: &impl NodeAccess<2>) -> bool {
        let mut all = 0;
        range_scan(tree, f64::INFINITY, |_| 0.0, |leaf| all += leaf.len()).unwrap();
        all == tree.len()
    }

    fn summary(id: u64, x: f64, y: f64) -> ObjectSummary<2> {
        let obj = FuzzyObject::new(
            ObjectId(id),
            vec![Point::xy(x, y), Point::xy(x + 0.4, y + 0.4)],
            vec![1.0, 0.5],
        )
        .unwrap();
        ObjectSummary::from_object(&obj)
    }

    fn objects(n: u64) -> Vec<FuzzyObject<2>> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 16) as f64 * 2.0, (i / 16) as f64 * 2.0);
                FuzzyObject::new(
                    ObjectId(i),
                    vec![Point::xy(x, y), Point::xy(x + 0.4, y + 0.4)],
                    vec![1.0, 0.5],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn versioned_snapshots_are_frozen() {
        let v = Versioned::new(vec![1, 2, 3]);
        let snap = v.snapshot();
        v.write(|xs| xs.push(4));
        assert_eq!(*snap, vec![1, 2, 3], "pinned snapshot unchanged");
        assert_eq!(*v.snapshot(), vec![1, 2, 3, 4]);
        assert_eq!(v.epoch(), 1);
    }

    #[test]
    fn concurrent_readers_see_consistent_epochs() {
        // A writer publishes freshly bulk-loaded trees (the shape of a
        // server SWAP) while readers hammer snapshots; every query must
        // observe an internally consistent tree (a full range search
        // finding `len` entries, plus a successful AKNN).
        let config = RTreeConfig { max_entries: 8 };
        let store = MemStore::from_objects(objects(64)).unwrap();
        let tree = RTree::bulk_load(store.summaries().to_vec(), config);
        let index = Versioned::new(Arc::new(tree));
        let q = store.probe(ObjectId(0)).unwrap();
        let (index, store, q) = (&index, &store, &q);

        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    for _ in 0..60 {
                        let snapshot = index.snapshot();
                        assert!(consistent(&snapshot), "snapshot is structurally sound");
                        let k = 5.min(NodeAccess::len(&snapshot));
                        if k > 0 {
                            let res = QueryEngine::new(&snapshot, store)
                                .aknn(q, k, 0.5, &AknnConfig::lb_lp_ub())
                                .unwrap();
                            assert_eq!(res.neighbors.len(), k);
                        }
                    }
                });
            }
            scope.spawn(move || {
                let mut live = store.summaries().to_vec();
                for round in 0..30u64 {
                    live.push(summary(100 + round, (round % 9) as f64, 40.0));
                    index.write(|t| *t = Arc::new(RTree::bulk_load(live.clone(), config)));
                    if round % 3 == 0 {
                        live.retain(|s| s.id != ObjectId(round));
                        index.write(|t| *t = Arc::new(RTree::bulk_load(live.clone(), config)));
                    }
                }
            });
        });
        assert_eq!(index.epoch(), 30 + 10);
        assert_eq!(NodeAccess::len(&index.snapshot()), 64 + 30 - 10);
        assert!(consistent(&index.snapshot()));
    }

    #[test]
    fn panicked_commit_leaves_readers_on_last_snapshot() {
        let v = Versioned::new(vec![1, 2]);

        // A writer that mutates the master copy and then panics before
        // its commit: the mutation must never become visible.
        let v_ref = &v;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v_ref.write(|xs| {
                xs.push(9);
                panic!("writer dies mid-mutation");
            });
        }));
        assert!(unwound.is_err(), "the injected panic must propagate to the caller");

        // Readers keep working and still see the last published state.
        assert_eq!(*v.snapshot(), vec![1, 2], "readers serve the pre-panic snapshot");
        assert_eq!(v.epoch(), 0, "the aborted commit published no epoch");

        // A later writer succeeds and does not resurrect the half-applied
        // mutation: master was rolled back to the published snapshot.
        v.write(|xs| xs.push(3));
        assert_eq!(*v.snapshot(), vec![1, 2, 3]);
        assert_eq!(v.epoch(), 1);
    }

    #[test]
    fn batched_writes_publish_once() {
        let store = MemStore::from_objects(objects(16)).unwrap();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        let index = Versioned::new(Arc::new(tree));
        let pinned = index.snapshot();
        index.write(|tree| {
            let mut live = store.summaries().to_vec();
            for i in 100..150u64 {
                live.push(summary(i, i as f64, 0.0));
                *tree = Arc::new(RTree::bulk_load(live.clone(), RTreeConfig::default()));
            }
        });
        assert_eq!(index.epoch(), 1, "one commit, one epoch");
        assert_eq!(NodeAccess::len(&index.snapshot()), 66);
        assert_eq!(NodeAccess::len(&pinned), 16, "the pinned epoch-0 tree is untouched");
    }
}
