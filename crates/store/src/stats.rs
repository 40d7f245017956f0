//! I/O accounting.
//!
//! The paper's evaluation measures "the number of object access from hard
//! disk"; these counters are the source of truth for every experiment.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe I/O counters embedded in every store.
#[derive(Debug, Default)]
pub struct IoStats {
    object_reads: AtomicU64,
    bytes_read: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one object probe of `bytes` bytes.
    #[inline]
    pub fn record_read(&self, bytes: u64) {
        self.object_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            object_reads: self.object_reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.object_reads.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Objects actually read from the backing medium.
    pub object_reads: u64,
    /// Bytes read from the backing medium.
    pub bytes_read: u64,
}

impl IoStatsSnapshot {
    /// Counter difference (`self` after, `before` before).
    ///
    /// For whole-store diagnostics only (e.g. bracketing an experiment
    /// phase on an otherwise idle store). Do **not** use it for per-query
    /// cost accounting: with concurrent queries the delta includes every
    /// other query's traffic — that is exactly why the query processor
    /// charges query-local `QueryStats` via `ObjectStore::probe_traced`
    /// instead.
    pub fn since(&self, before: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            object_reads: self.object_reads - before.object_reads,
            bytes_read: self.bytes_read - before.bytes_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = IoStats::new();
        s.record_read(100);
        s.record_read(50);
        let snap = s.snapshot();
        assert_eq!(snap.object_reads, 2);
        assert_eq!(snap.bytes_read, 150);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_read(10);
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = IoStats::new();
        s.record_read(10);
        let before = s.snapshot();
        s.record_read(20);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.object_reads, 1);
        assert_eq!(delta.bytes_read, 20);
    }
}
