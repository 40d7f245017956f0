//! The in-memory store: a [`FileStore`] over the image
//! [`FileStore::from_objects`] encodes, so every probe goes through the
//! file's checks and decoders and is counted as one object access. Used by
//! tests, examples and CPU-bound benchmarks.

use crate::FileStore;

/// An in-memory store: a [`FileStore`] over the image
/// [`FileStore::from_objects`] encodes, with the file's checks and
/// accounting.
///
/// ```
/// use fuzzy_core::{FuzzyObject, ObjectId};
/// use fuzzy_geom::Point;
/// use fuzzy_store::{MemStore, ObjectStore};
///
/// let store = MemStore::from_objects((0..3).map(|i| {
///     FuzzyObject::new(
///         ObjectId(i),
///         vec![Point::xy(i as f64, 0.0), Point::xy(i as f64, 1.0)],
///         vec![1.0, 0.5],
///     )
///     .unwrap()
/// }))
/// .unwrap();
///
/// assert_eq!(store.len(), 3);
/// assert_eq!(store.summaries().len(), 3); // free: no probe charged
/// let obj = store.probe(ObjectId(1)).unwrap();
/// assert_eq!(obj.id(), ObjectId(1));
/// assert_eq!(store.stats().object_reads, 1); // ... but the probe was charged
/// ```
pub type MemStore<const D: usize> = FileStore<D>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectStore, StoreError};
    use fuzzy_core::{FuzzyObject, ObjectId};
    use fuzzy_geom::Point;

    fn obj(id: u64) -> FuzzyObject<2> {
        FuzzyObject::new(
            ObjectId(id),
            vec![Point::xy(id as f64, 0.0), Point::xy(id as f64 + 1.0, 1.0)],
            vec![1.0, 0.5],
        )
        .unwrap()
    }

    #[test]
    fn probe_counts_accesses() {
        let store = MemStore::from_objects((0..4).map(obj)).unwrap();
        assert_eq!(store.len(), 4);
        let _ = store.probe(ObjectId(2)).unwrap();
        let _ = store.probe(ObjectId(2)).unwrap();
        assert_eq!(store.stats().object_reads, 2);
        assert!(store.stats().bytes_read > 0);
    }

    #[test]
    fn duplicate_rejected() {
        let err = MemStore::from_objects([obj(1), obj(1)]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateObject(ObjectId(1))));
    }

    #[test]
    fn unknown_probe_fails() {
        let store = MemStore::from_objects([obj(1)]).unwrap();
        assert!(matches!(store.probe(ObjectId(9)).unwrap_err(), StoreError::UnknownObject(_)));
    }

    #[test]
    fn byte_accounting_matches_file_encoding() {
        let store = MemStore::from_objects([obj(5)]).unwrap();
        let _ = store.probe(ObjectId(5)).unwrap();
        let expected = crate::format::encode_object(&obj(5)).len() as u64;
        assert_eq!(store.stats().bytes_read, expected);
    }
}
