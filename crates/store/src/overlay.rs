//! The delta-log sidecar format (`.fzdl`): persistence for the index
//! crate's paged-tree write overlay.
//!
//! A `PagedRTree` index file is immutable until compaction; dynamic
//! inserts and deletes accumulate in an in-memory overlay
//! (`fuzzy_index::OverlayRTree`). This module persists that overlay as a
//! small sidecar next to the index file so a fresh process — `fkq
//! insert/delete` invocations, a restarted server — sees the same live
//! object set without rewriting the index.
//!
//! Byte layout (little-endian, normative spec in `docs/FORMAT.md`):
//!
//! ```text
//! [ header  ] magic "FZDL" | version u16 | dims u16
//!             | inserted count u64 | tombstone count u64
//! [ inserts ] inserted object summaries, FileStore summary encoding
//! [ deletes ] tombstoned object ids, u64 each
//! [ trailer ] FNV-1a checksum over everything before it, u64
//! ```
//!
//! The log is a *state snapshot*, not an append log: every save rewrites
//! the (small) file whole through [`write_atomic`] — a crash mid-save
//! leaves the previously persisted state authoritative.

use crate::atomic::write_atomic;
use crate::error::StoreError;
use crate::format::{decode_summary, encode_summary, fnv1a, summary_len, Decoder, Encoder};
use fuzzy_core::ObjectSummary;
use std::path::Path;

/// Delta-log magic ("FuZzy DeLta").
pub const DELTA_MAGIC: [u8; 4] = *b"FZDL";
/// Delta-log format version understood by this build.
pub const DELTA_VERSION: u16 = 2;
/// Header length in bytes (magic, version, dims, two counts).
pub const DELTA_HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8;

fn corrupt(reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt { reason: reason.into() }
}

/// A decoded delta log: the overlay state of one index file.
#[derive(Clone, Debug, Default)]
pub struct DeltaLog<const D: usize> {
    /// Summaries inserted since the last compaction, in insertion order
    /// (the order is part of the overlay's deterministic node layout).
    pub inserted: Vec<ObjectSummary<D>>,
    /// Object ids tombstoned out of the base index file, ascending.
    pub tombstones: Vec<u64>,
}

impl<const D: usize> DeltaLog<D> {
    /// True when the log carries no changes (compaction leaves this).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.tombstones.is_empty()
    }

    /// Serialize to bytes (header, payload, checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload =
            DELTA_HEADER_LEN + self.inserted.len() * summary_len(D) + self.tombstones.len() * 8;
        let mut e = Encoder::with_capacity(payload + 8);
        e.bytes(&DELTA_MAGIC);
        e.u16(DELTA_VERSION);
        e.u16(D as u16);
        e.u64(self.inserted.len() as u64);
        e.u64(self.tombstones.len() as u64);
        for s in &self.inserted {
            encode_summary(&mut e, s);
        }
        for &id in &self.tombstones {
            e.u64(id);
        }
        let sum = fnv1a(e.as_bytes());
        e.u64(sum);
        e.into_bytes()
    }

    /// Decode from bytes, verifying magic, version, dimensionality and
    /// checksum. Each count is capped by the bytes after it before the
    /// exact length is checked, so no count, however forged, can overflow
    /// the length sum or size an allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < DELTA_HEADER_LEN + 8 {
            return Err(corrupt("delta log shorter than header + checksum"));
        }
        if bytes[..4] != DELTA_MAGIC {
            return Err(corrupt("bad magic in delta log"));
        }
        let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let mut d = Decoder::new(&payload[4..]);
        let version = d.u16()?;
        if version != DELTA_VERSION {
            return Err(StoreError::VersionMismatch { found: version, expected: DELTA_VERSION });
        }
        let dims = d.u16()?;
        if dims as usize != D {
            return Err(StoreError::DimensionMismatch { found: dims, expected: D as u16 });
        }
        if Decoder::new(sum_bytes).u64()? != fnv1a(payload) {
            return Err(corrupt("delta log checksum mismatch"));
        }
        let n_inserted = d.count(Decoder::u64, summary_len(D))?;
        let n_tombstones = d.count(Decoder::u64, 8)?;
        let expect = DELTA_HEADER_LEN + n_inserted * summary_len(D) + n_tombstones * 8;
        if payload.len() != expect {
            return Err(corrupt(format!(
                "delta log payload is {} bytes, counts imply {expect}",
                payload.len()
            )));
        }
        let mut inserted = Vec::with_capacity(n_inserted);
        for _ in 0..n_inserted {
            inserted.push(decode_summary::<D>(d.bytes(summary_len(D))?)?);
        }
        let mut tombstones = Vec::with_capacity(n_tombstones);
        for _ in 0..n_tombstones {
            tombstones.push(d.u64()?);
        }
        Ok(Self { inserted, tombstones })
    }

    /// Write the log to `path`, replacing any previous log atomically and
    /// durably ([`write_atomic`]): a crash mid-save leaves the previous log
    /// intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        write_atomic(path, |file| Ok(file.write_all(&self.to_bytes())?))
    }

    /// Load a log from `path`. A missing file is the empty log — an index
    /// file without a sidecar simply has no pending changes.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        match std::fs::read(path.as_ref()) {
            Ok(bytes) => Self::from_bytes(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::{FuzzyObject, ObjectId};
    use fuzzy_geom::Point;

    fn summary(id: u64, x: f64) -> ObjectSummary<2> {
        let obj = FuzzyObject::new(
            ObjectId(id),
            vec![Point::xy(x, 0.0), Point::xy(x + 0.5, 0.5)],
            vec![1.0, 0.5],
        )
        .unwrap();
        ObjectSummary::from_object(&obj)
    }

    #[test]
    fn roundtrip() {
        let log = DeltaLog::<2> {
            inserted: (0..17).map(|i| summary(100 + i, i as f64)).collect(),
            tombstones: vec![3, 9, 12],
        };
        let back = DeltaLog::<2>::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back.tombstones, log.tombstones);
        assert_eq!(back.inserted.len(), log.inserted.len());
        for (a, b) in back.inserted.iter().zip(&log.inserted) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.support_mbr, b.support_mbr);
        }
    }

    #[test]
    fn missing_file_is_the_empty_log() {
        let log = DeltaLog::<2>::load("/nonexistent/delta.fzdl").unwrap();
        assert!(log.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let log = DeltaLog::<2> { inserted: vec![summary(1, 0.0)], tombstones: vec![7] };
        let pristine = log.to_bytes();

        let mut bad = pristine.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(DeltaLog::<2>::from_bytes(&bad).unwrap_err(), StoreError::Corrupt { .. }));

        let mut bad = pristine.clone();
        bad[DELTA_HEADER_LEN + 4] ^= 0x01; // flip a payload bit
        assert!(matches!(DeltaLog::<2>::from_bytes(&bad).unwrap_err(), StoreError::Corrupt { .. }));

        let mut bad = pristine.clone();
        bad.truncate(bad.len() - 3);
        assert!(DeltaLog::<2>::from_bytes(&bad).is_err());

        // Wrong dimensionality is a typed error.
        assert!(matches!(
            DeltaLog::<3>::from_bytes(&pristine).unwrap_err(),
            StoreError::DimensionMismatch { found: 2, expected: 3 }
        ));

        assert!(DeltaLog::<2>::from_bytes(&pristine).is_ok());
    }

    /// A checksum-valid log whose insert count is 2^59 (times a 160-byte
    /// summary that is 5·2^64, which wraps to 0 in a release build and
    /// overflows in a debug one), with 4 tombstones after it, is a typed
    /// error: the count is capped by the bytes after it first.
    #[test]
    fn wrapping_counts_are_a_typed_error() {
        let mut bytes = DeltaLog::<2> { inserted: vec![], tombstones: vec![1, 2, 3, 4] }.to_bytes();
        bytes[8..16].copy_from_slice(&(1u64 << 59).to_le_bytes());
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        let err = DeltaLog::<2>::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err.to_string(),
            "corrupt store: count 576460752303423488 exceeds the 40 bytes left"
        );
    }

    /// A save interrupted at any boundary — temp creation, each write, the
    /// file sync, the rename, the directory sync — leaves a sidecar that
    /// loads as exactly the old log or exactly the new one, and only the
    /// last boundary (the rename has happened) yields the new one.
    #[test]
    fn a_fault_at_every_boundary_of_a_save_leaves_the_old_or_the_new_log() {
        use crate::atomic::WRITE_ATOMIC_FAIL_AT;
        let path =
            std::env::temp_dir().join(format!("fz-delta-faults-{}.fzdl", std::process::id()));
        let old = DeltaLog::<2> { inserted: vec![summary(1, 0.0)], tombstones: vec![7] };
        let new = DeltaLog::<2> {
            inserted: (0..300).map(|i| summary(100 + i, i as f64)).collect(),
            tombstones: vec![3, 7, 9],
        };

        let mut published = Vec::new();
        loop {
            old.save(&path).unwrap();
            WRITE_ATOMIC_FAIL_AT.with(|f| f.set(Some(published.len())));
            let result = new.save(&path);
            let fired = WRITE_ATOMIC_FAIL_AT.with(|f| f.replace(None)).is_none();
            let on_disk = DeltaLog::<2>::load(&path).expect("a loadable log").to_bytes();
            if !fired {
                result.expect("no boundary left to fail");
                assert_eq!(on_disk, new.to_bytes());
                break;
            }
            assert!(matches!(result, Err(StoreError::Io(_))), "boundary {}", published.len());
            assert!(on_disk == old.to_bytes() || on_disk == new.to_bytes());
            published.push(on_disk == new.to_bytes());
        }
        // create, ≥ 1 write, sync, rename: old; directory sync: new.
        assert!(published.len() >= 5, "only {} boundaries crossed", published.len());
        let (dir_sync, before_rename) = published.split_last().unwrap();
        assert!(before_rename.iter().all(|&new| !new), "{published:?}");
        assert!(dir_sync, "{published:?}");
        std::fs::remove_file(&path).unwrap();
    }
}
