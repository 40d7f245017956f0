//! A generic bounded LRU page cache — the buffer pool behind the paged
//! R-tree (`fuzzy_index::PagedRTree`) and any future page-structured file.
//!
//! The cache holds *pages*: units of a file (an index node each) keyed by page
//! number, decoded once and shared as `Arc<T>` between concurrent readers.
//! Every lookup reports its provenance (backing medium vs cache), so
//! per-query cost accounting stays exact under concurrency.
//!
//! The eviction policy is least-recently-used with lazy invalidation: each
//! access appends a `(key, stamp)` ticket to a queue, and eviction pops
//! tickets until one still matches the key's current stamp. Stale tickets
//! (from keys that were re-accessed or already evicted) are discarded, so
//! both lookup and eviction are O(1) amortized.

use crate::error::StoreError;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A page served by the cache, with its provenance.
#[derive(Debug)]
pub struct CachedPage<T> {
    /// The decoded page contents, shared with the cache.
    pub value: Arc<T>,
    /// True when serving this page touched the backing medium (a miss);
    /// false for cache hits.
    pub disk_read: bool,
}

impl<T> Clone for CachedPage<T> {
    fn clone(&self) -> Self {
        Self { value: Arc::clone(&self.value), disk_read: self.disk_read }
    }
}

/// Point-in-time counters of a [`PageCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to load from the backing medium.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

struct Slot<T> {
    value: Arc<T>,
    /// Stamp of this slot's newest LRU ticket; older tickets are stale.
    stamp: u64,
}

struct Inner<T> {
    map: HashMap<u64, Slot<T>>,
    /// LRU tickets, oldest first. A ticket is live iff its stamp equals
    /// the mapped slot's current stamp.
    queue: VecDeque<(u64, u64)>,
    next_stamp: u64,
}

impl<T> Inner<T> {
    fn touch(&mut self, key: u64) {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        if let Some(slot) = self.map.get_mut(&key) {
            slot.stamp = stamp;
        }
        self.queue.push_back((key, stamp));
        // Lazy invalidation leaves one stale ticket behind per re-access;
        // when eviction never runs (resident set below capacity) those
        // would otherwise accumulate forever. Compact once the queue
        // outgrows the live set by 2×: retain only live tickets, O(1)
        // amortized per touch.
        if self.queue.len() > (self.map.len() * 2).max(64) {
            let map = &self.map;
            self.queue.retain(|(key, stamp)| map.get(key).is_some_and(|slot| slot.stamp == *stamp));
        }
    }

    /// Evict the least recently used live entry, if any.
    fn evict_one(&mut self) -> bool {
        while let Some((key, stamp)) = self.queue.pop_front() {
            let live = self.map.get(&key).is_some_and(|slot| slot.stamp == stamp);
            if live {
                self.map.remove(&key);
                return true;
            }
        }
        false
    }
}

/// A bounded LRU cache of decoded pages, keyed by page number.
///
/// `get_or_load` is the only read path: on a miss the supplied loader runs
/// *outside* the cache lock (so concurrent readers of other pages are
/// never serialized behind an I/O), then the result is inserted, evicting
/// the least recently used page when the capacity is exceeded. Two threads
/// missing the same page concurrently may both run the loader, and each
/// then correctly reports a disk read; the second to finish is served the
/// first one's page and evicts nothing.
///
/// ```
/// use fuzzy_store::PageCache;
///
/// let cache: PageCache<Vec<u8>> = PageCache::new(1); // one-page pool
/// let a = cache.get_or_load(0, || Ok(vec![0xAA])).unwrap();
/// assert!(a.disk_read);
/// // Same page again: served from the pool.
/// assert!(!cache.get_or_load(0, || unreachable!("cached")).unwrap().disk_read);
/// // A different page evicts page 0 (capacity 1) ...
/// let b = cache.get_or_load(1, || Ok(vec![0xBB])).unwrap();
/// assert!(b.disk_read);
/// // ... so page 0 must be loaded again.
/// assert!(cache.get_or_load(0, || Ok(vec![0xAA])).unwrap().disk_read);
/// assert_eq!(cache.stats().evictions, 2);
/// ```
#[derive(Debug)]
pub struct PageCache<T> {
    capacity: usize,
    inner: Mutex<InnerBox<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Newtype so the `Debug` derive on [`PageCache`] does not require
/// `T: Debug`.
struct InnerBox<T>(Inner<T>);

impl<T> std::fmt::Debug for InnerBox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCacheInner").field("resident", &self.0.map.len()).finish()
    }
}

impl<T> PageCache<T> {
    /// A cache holding at most `capacity` pages (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(InnerBox(Inner {
                map: HashMap::new(),
                queue: VecDeque::new(),
                next_stamp: 0,
            })),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look `key` up, running `load` on a miss. The returned provenance
    /// flag is true exactly when `load` ran.
    pub fn get_or_load(
        &self,
        key: u64,
        load: impl FnOnce() -> Result<T, StoreError>,
    ) -> Result<CachedPage<T>, StoreError> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(slot) = inner.0.map.get(&key) {
                let value = Arc::clone(&slot.value);
                inner.0.touch(key);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CachedPage { value, disk_read: false });
            }
        }
        // Load outside the lock: a slow page read must not stall readers
        // of resident pages.
        let loaded = Arc::new(load()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut inner.0;
        // Another reader (or the loader itself, reading through the pool)
        // may have brought the page in meanwhile: serve that copy and make
        // no room — the page is already resident.
        let value = match inner.map.get(&key) {
            Some(slot) => Arc::clone(&slot.value),
            None => {
                while inner.map.len() >= self.capacity && inner.evict_one() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                inner.map.insert(key, Slot { value: Arc::clone(&loaded), stamp: 0 });
                loaded
            }
        };
        inner.touch(key);
        Ok(CachedPage { value, disk_read: true })
    }

    /// Drop every resident page (e.g. to measure a cold start).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.0.map.clear();
        inner.0.queue.clear();
    }

    /// Snapshot the hit/miss/eviction counters.
    pub fn stats(&self) -> PageCacheStats {
        PageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Zero the hit/miss/eviction counters (resident pages stay).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_ok(v: u64) -> impl FnOnce() -> Result<u64, StoreError> {
        move || Ok(v)
    }

    #[test]
    fn hit_after_miss() {
        let cache: PageCache<u64> = PageCache::new(4);
        let first = cache.get_or_load(7, load_ok(70)).unwrap();
        assert!(first.disk_read);
        assert_eq!(*first.value, 70);
        let second = cache.get_or_load(7, || panic!("must not reload")).unwrap();
        assert!(!second.disk_read);
        assert_eq!(*second.value, 70);
        assert_eq!(cache.stats(), PageCacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn capacity_one_keeps_exactly_the_last_page() {
        // The degenerate pool: every access to a *different* page must
        // evict the resident one, and re-accessing the resident page must
        // never count as a miss.
        let cache: PageCache<u64> = PageCache::new(1);
        assert!(cache.get_or_load(0, load_ok(0)).unwrap().disk_read);
        assert!(!cache.get_or_load(0, || panic!("resident")).unwrap().disk_read);
        assert!(cache.get_or_load(1, load_ok(1)).unwrap().disk_read); // evicts 0
        assert!(cache.get_or_load(0, load_ok(0)).unwrap().disk_read); // 0 was evicted
        assert!(cache.get_or_load(1, load_ok(1)).unwrap().disk_read); // 1 was evicted
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 4, 3));
    }

    #[test]
    fn lru_order_respects_recency() {
        let cache: PageCache<u64> = PageCache::new(2);
        cache.get_or_load(0, load_ok(0)).unwrap();
        cache.get_or_load(1, load_ok(1)).unwrap();
        cache.get_or_load(0, || panic!("hit")).unwrap(); // refresh 0
        cache.get_or_load(2, load_ok(2)).unwrap(); // evicts 1 (LRU)
        assert!(!cache.get_or_load(0, || panic!("0 stays resident")).unwrap().disk_read);
        assert!(cache.get_or_load(1, load_ok(1)).unwrap().disk_read);
    }

    #[test]
    fn loader_errors_propagate_and_cache_nothing() {
        let cache: PageCache<u64> = PageCache::new(2);
        let err = cache
            .get_or_load(3, || Err(StoreError::Corrupt { reason: "bad page".into() }))
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        // The next lookup still has to load.
        assert!(cache.get_or_load(3, load_ok(3)).unwrap().disk_read);
    }

    #[test]
    fn clear_forces_cold_reads() {
        let cache: PageCache<u64> = PageCache::new(4);
        cache.get_or_load(0, load_ok(0)).unwrap();
        cache.get_or_load(1, load_ok(1)).unwrap();
        cache.clear();
        assert!(cache.get_or_load(0, load_ok(0)).unwrap().disk_read);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let cache: PageCache<u64> = PageCache::new(4);
        cache.get_or_load(0, load_ok(0)).unwrap();
        cache.reset_stats();
        assert_eq!(cache.stats(), PageCacheStats::default());
        assert!(!cache.get_or_load(0, || panic!("still resident")).unwrap().disk_read);
    }

    #[test]
    fn ticket_queue_stays_bounded_without_evictions() {
        // A pool that never reaches capacity must not accumulate one LRU
        // ticket per access forever.
        let cache: PageCache<u64> = PageCache::new(1024);
        for i in 0..100_000u64 {
            cache.get_or_load(i % 4, load_ok(i % 4)).unwrap();
        }
        let queue_len = cache.inner.lock().unwrap().0.queue.len();
        assert!(queue_len <= 64 + 1, "ticket queue grew to {queue_len}");
        assert_eq!(cache.stats().misses, 4);
    }

    /// A page that came in while its own load ran — here through a loader
    /// that reads the same key through the pool, as a second reader
    /// missing the same page would — is served as resident, and no live
    /// page is evicted to make room for it again.
    #[test]
    fn a_page_loaded_during_its_own_load_evicts_nothing() {
        for capacity in [1usize, 2] {
            let cache: PageCache<u64> = PageCache::new(capacity);
            if capacity == 2 {
                cache.get_or_load(1, load_ok(10)).unwrap();
            }
            let outer = cache
                .get_or_load(0, || {
                    assert!(cache.get_or_load(0, load_ok(1)).unwrap().disk_read);
                    Ok(2)
                })
                .unwrap();
            assert!(outer.disk_read, "the outer loader ran");
            assert_eq!(*outer.value, 1, "capacity {capacity}: the resident copy is served");
            let again = cache.get_or_load(0, || panic!("page 0 stays resident")).unwrap();
            assert!(Arc::ptr_eq(&again.value, &outer.value));
            if capacity == 2 {
                let one = cache.get_or_load(1, || panic!("page 1 stays resident")).unwrap();
                assert_eq!(*one.value, 10);
            }
            let stats = cache.stats();
            assert_eq!(stats.evictions, 0, "capacity {capacity}");
            assert_eq!(stats.misses, capacity as u64 + 1, "capacity {capacity}");
        }
    }

    #[test]
    fn concurrent_lookups_converge() {
        let cache: std::sync::Arc<PageCache<u64>> = std::sync::Arc::new(PageCache::new(8));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let page = cache.get_or_load(i % 8, load_ok(i % 8)).unwrap();
                        assert_eq!(*page.value, i % 8);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        // The working set fits: after warmup everything hits.
        assert!(stats.hits >= 800 - 4 * 8);
    }
}
