//! An LRU cache layer over any object store.
//!
//! The paper evaluates its algorithms **without** caching — the repeated
//! AKNN invocations of the basic RKNN algorithm re-probe objects every time,
//! which is precisely why it loses by an order of magnitude. This wrapper
//! exists for the `abl-cache` ablation: how much of the RSS optimization's
//! advantage could a plain cache have recovered?

use crate::error::StoreError;
use crate::pagecache::PageCache;
use crate::stats::IoStatsSnapshot;
use crate::{ObjectStore, TracedProbe};
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use std::sync::Arc;

/// A bounded LRU cache in front of a store `S`: the generic
/// [`PageCache`] keyed by object id.
pub struct CachedStore<S, const D: usize> {
    inner: S,
    cache: PageCache<Arc<FuzzyObject<D>>>,
}

impl<S: ObjectStore<D>, const D: usize> CachedStore<S, D> {
    /// Wrap `inner` with an LRU of at most `capacity` objects.
    pub fn new(inner: S, capacity: usize) -> Self {
        Self { inner, cache: PageCache::new(capacity) }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Drop all cached objects.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

impl<S: ObjectStore<D>, const D: usize> ObjectStore<D> for CachedStore<S, D> {
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<D>>, StoreError> {
        Ok(self.probe_traced(id)?.object)
    }

    fn probe_traced(&self, id: ObjectId) -> Result<TracedProbe<D>, StoreError> {
        // A cache hit is *not* an object access in the paper's accounting
        // (the loader never runs, `disk_read` stays false). On a miss the
        // inner provenance propagates: a miss here that an inner cache
        // layer serves is still not a disk read.
        let mut disk_read = false;
        let cached = self.cache.get_or_load(id.0, || {
            let probe = self.inner.probe_traced(id)?;
            disk_read = probe.disk_read;
            Ok(probe.object)
        })?;
        Ok(TracedProbe { object: Arc::clone(&cached.value), disk_read })
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn summaries(&self) -> &[ObjectSummary<D>] {
        self.inner.summaries()
    }

    fn stats(&self) -> IoStatsSnapshot {
        let mut snap = self.inner.stats();
        snap.cache_hits += self.cache.stats().hits;
        snap
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        self.cache.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_store::MemStore;
    use fuzzy_geom::Point;

    fn obj(id: u64) -> FuzzyObject<2> {
        FuzzyObject::new(ObjectId(id), vec![Point::xy(id as f64, 0.0)], vec![1.0]).unwrap()
    }

    fn store(n: u64, cap: usize) -> CachedStore<MemStore<2>, 2> {
        CachedStore::new(MemStore::from_objects((0..n).map(obj)).unwrap(), cap)
    }

    #[test]
    fn hits_do_not_count_as_object_reads() {
        let s = store(4, 4);
        let _ = s.probe(ObjectId(1)).unwrap();
        let _ = s.probe(ObjectId(1)).unwrap();
        let _ = s.probe(ObjectId(1)).unwrap();
        let snap = s.stats();
        assert_eq!(snap.object_reads, 1);
        assert_eq!(snap.cache_hits, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let s = store(10, 2);
        let _ = s.probe(ObjectId(0)).unwrap();
        let _ = s.probe(ObjectId(1)).unwrap();
        let _ = s.probe(ObjectId(0)).unwrap(); // refresh 0
        let _ = s.probe(ObjectId(2)).unwrap(); // evicts 1
        let before = s.stats().object_reads;
        let _ = s.probe(ObjectId(1)).unwrap(); // miss again, evicts 0 (LRU)
        assert_eq!(s.stats().object_reads, before + 1);
        let before = s.stats().object_reads;
        let _ = s.probe(ObjectId(2)).unwrap(); // still cached
        assert_eq!(s.stats().object_reads, before);
        let _ = s.probe(ObjectId(0)).unwrap(); // was evicted -> miss
        assert_eq!(s.stats().object_reads, before + 1);
    }

    #[test]
    fn clear_empties_cache() {
        let s = store(3, 3);
        let _ = s.probe(ObjectId(0)).unwrap();
        s.clear();
        let _ = s.probe(ObjectId(0)).unwrap();
        assert_eq!(s.stats().object_reads, 2);
    }
}
