//! Object storage for fuzzy datasets.
//!
//! The paper's setting (Section 3.1): fuzzy objects are large (1 000 points
//! each in the evaluation), so the R-tree keeps only per-object summaries in
//! memory "along with a pointer which refers to the actual location on hard
//! disk"; retrieving an object — a *probe* — is the dominant cost and the
//! headline metric of every experiment.
//!
//! * [`FileStore`] — an append-only binary file of object records with an
//!   embedded summary section and index; probes use positioned reads
//!   and count accesses/bytes.
//! * [`ByteSource`] — where a reader's bytes come from: a file (`pread`)
//!   or an in-memory image of one. An in-memory store
//!   ([`FileStore::from_objects`], alias [`MemStore`]) is the file's bytes
//!   held in RAM, read through the same checks, decoders and counters.
//! * [`PageCache`] — a generic bounded LRU buffer pool for page-structured
//!   files (the paged R-tree index reads through one). The paper's
//!   algorithms are evaluated without an object cache, and there is none.
//! * [`DeltaLog`] — the checksummed `.fzdl` sidecar persisting a paged
//!   index's pending inserts/tombstones between processes (the index file
//!   itself is immutable until compaction).
//! * [`write_atomic`] — the one way a file is replaced in place: temp
//!   sibling, sync, rename, directory sync.
//! * [`ObjectStore`] — the trait the query processor is generic over.

#![warn(missing_docs)]

pub mod atomic;
pub mod error;
pub mod file_store;
pub mod format;
pub mod mem_store;
pub mod overlay;
pub mod pagecache;
pub mod source;
pub mod stats;

pub use atomic::write_atomic;
pub use error::StoreError;
pub use file_store::{FileStore, FileStoreWriter};
pub use mem_store::MemStore;
pub use overlay::DeltaLog;
pub use pagecache::{CachedPage, PageCache, PageCacheStats};
pub use source::ByteSource;
pub use stats::{IoStats, IoStatsSnapshot};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn stores_are_send_sync() {
        assert_send_sync::<FileStore<2>>();
        assert_send_sync::<ByteSource>();
    }
}

use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use std::sync::Arc;

/// A probe result that records where the object came from.
///
/// Query-local cost accounting needs to know whether a probe actually
/// touched the backing medium (one of the paper's "object accesses") —
/// per-query counter deltas cannot tell once queries run concurrently
/// against a shared store. Every store here reads its records, so every
/// probe reports one; a wrapper that serves some other way overrides
/// [`ObjectStore::probe_traced`].
#[derive(Clone, Debug)]
pub struct TracedProbe<const D: usize> {
    /// The retrieved object.
    pub object: Arc<FuzzyObject<D>>,
    /// True when the probe reached the backing medium (counts as one
    /// object access).
    pub disk_read: bool,
}

/// Abstract object store: the query processor only ever probes by id and
/// reads the in-memory summary table.
///
/// Implementations must be usable behind a shared reference from many
/// threads at once — all methods take `&self` and the built-in stores use
/// atomic counters and positioned reads, so a `&FileStore` can be probed
/// concurrently without external locking.
pub trait ObjectStore<const D: usize> {
    /// Retrieve one object — this is the "object access" the paper counts.
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<D>>, StoreError>;

    /// Retrieve one object together with its provenance. The default
    /// forwards to [`ObjectStore::probe`] and reports a read of the
    /// backing medium.
    fn probe_traced(&self, id: ObjectId) -> Result<TracedProbe<D>, StoreError> {
        Ok(TracedProbe { object: self.probe(id)?, disk_read: true })
    }

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// True when no objects are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The in-memory summary table (support/kernel MBRs, conservative
    /// lines, representative points) for index construction.
    fn summaries(&self) -> &[ObjectSummary<D>];

    /// I/O accounting snapshot.
    fn stats(&self) -> IoStatsSnapshot;

    /// Reset the I/O counters (between experiment runs).
    fn reset_stats(&self);
}
