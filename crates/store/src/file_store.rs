//! The object store: a file of object records with positioned reads and
//! access counting, read from disk or from an in-memory image of the same
//! bytes ([`ByteSource`]).

use crate::error::StoreError;
use crate::format::{
    decode_object, decode_summary, encode_object, encode_summary, record_len, summary_len, Decoder,
    Encoder, HEADER_LEN, MAGIC, TRAILER_LEN, VERSION,
};
use crate::source::ByteSource;
use crate::stats::{IoStats, IoStatsSnapshot};
use crate::ObjectStore;
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Streaming writer: objects are appended one at a time (datasets larger
/// than memory can be generated without buffering), summaries and the index
/// are accumulated and flushed by [`FileStoreWriter::finish`]. The bytes go
/// to `W`: a file, or the `Vec` an in-memory image is built in
/// ([`FileStore::from_objects`]).
pub struct FileStoreWriter<const D: usize, W: Write = BufWriter<File>> {
    out: W,
    /// The file written; empty for an image.
    path: PathBuf,
    offset: u64,
    index: Vec<(ObjectId, u64, u64)>,
    summaries: Vec<ObjectSummary<D>>,
    seen: HashSet<ObjectId>,
}

impl<const D: usize> FileStoreWriter<D> {
    /// Create (truncate) the file at `path` and write the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        Self::start(BufWriter::new(file), path)
    }

    /// Flush summaries, index and trailer; returns the opened store.
    pub fn finish(self) -> Result<FileStore<D>, StoreError> {
        let (out, path) = self.end()?;
        drop(out);
        FileStore::open(path)
    }
}

impl<const D: usize, W: Write> FileStoreWriter<D, W> {
    /// Write the header to `out`.
    fn start(mut out: W, path: PathBuf) -> Result<Self, StoreError> {
        let mut header = Encoder::with_capacity(HEADER_LEN);
        header.bytes(&MAGIC);
        header.u16(VERSION);
        header.u16(D as u16);
        header.u64(0); // reserved
        out.write_all(header.as_bytes())?;
        Ok(Self {
            out,
            path,
            offset: HEADER_LEN as u64,
            index: Vec::new(),
            summaries: Vec::new(),
            seen: HashSet::new(),
        })
    }

    /// Append one object; its summary is computed here so readers never
    /// need to touch the records for index construction.
    pub fn append(&mut self, obj: &FuzzyObject<D>) -> Result<(), StoreError> {
        if !self.seen.insert(obj.id()) {
            return Err(StoreError::DuplicateObject(obj.id()));
        }
        let record = encode_object(obj);
        self.out.write_all(&record)?;
        self.index.push((obj.id(), self.offset, record.len() as u64));
        self.offset += record.len() as u64;
        self.summaries.push(ObjectSummary::from_object(obj));
        Ok(())
    }

    /// Number of objects appended so far.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing was appended yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Write summaries, index and trailer and flush: the finished bytes'
    /// sink, and the path they were written to.
    fn end(mut self) -> Result<(W, PathBuf), StoreError> {
        let summary_off = self.offset;
        let mut enc = Encoder::with_capacity(8 + self.summaries.len() * 256);
        enc.u64(self.summaries.len() as u64);
        for s in &self.summaries {
            encode_summary(&mut enc, s);
        }
        let index_off = summary_off + enc.len() as u64;
        enc.u64(self.index.len() as u64);
        for (id, off, len) in &self.index {
            enc.u64(id.0);
            enc.u64(*off);
            enc.u64(*len);
        }
        // Trailer.
        enc.u64(summary_off);
        enc.u64(index_off);
        enc.u64(self.index.len() as u64);
        enc.bytes(&MAGIC);
        self.out.write_all(enc.as_bytes())?;
        self.out.flush()?;
        Ok((self.out, self.path))
    }
}

/// Read side: index and summaries live in memory, records are fetched with
/// positioned reads from the [`ByteSource`] (no seek contention, the
/// source is shared immutably).
#[derive(Debug)]
pub struct FileStore<const D: usize> {
    source: ByteSource,
    index: HashMap<ObjectId, (u64, u64)>,
    summaries: Vec<ObjectSummary<D>>,
    stats: IoStats,
}

impl<const D: usize> FileStore<D> {
    /// Open an existing store file, validating magic, version,
    /// dimensionality and that every offset, count and index entry the
    /// trailer leads to stays inside the section it belongs to. Total on
    /// hostile bytes: a damaged file is a typed [`StoreError`], never a
    /// panic and never a handle that points outside the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::read(ByteSource::File(File::open(path)?))
    }

    /// Open a store whose file's bytes are `image`, held in memory, with
    /// [`FileStore::open`]'s checks; probes copy records out of the image
    /// instead of reading a file, and are counted the same.
    pub fn from_image(image: impl Into<Arc<[u8]>>) -> Result<Self, StoreError> {
        Self::read(ByteSource::Image(image.into()))
    }

    /// Encode `objects` — in order, summaries computed here — into the
    /// bytes [`FileStoreWriter`] would write to a file, and open that
    /// image: a store that never touches the file system.
    /// [`MemStore`](crate::MemStore) shows one in use.
    pub fn from_objects(
        objects: impl IntoIterator<Item = FuzzyObject<D>>,
    ) -> Result<Self, StoreError> {
        let mut writer = FileStoreWriter::start(Vec::new(), PathBuf::new())?;
        for obj in objects {
            writer.append(&obj)?;
        }
        Self::from_image(writer.end()?.0)
    }

    /// Read the header, trailer, summary section and index of `source`.
    fn read(source: ByteSource) -> Result<Self, StoreError> {
        let total = source.len()?;
        if total < (HEADER_LEN + TRAILER_LEN) as u64 {
            return Err(StoreError::Corrupt { reason: "file shorter than header+trailer".into() });
        }
        // Header.
        let mut head = [0u8; HEADER_LEN];
        source.read_exact_at(&mut head, 0)?;
        if head[..4] != MAGIC {
            return Err(StoreError::Corrupt { reason: "bad magic in header".into() });
        }
        let mut d = Decoder::new(&head[4..]);
        let version = d.u16()?;
        if version != VERSION {
            return Err(StoreError::VersionMismatch { found: version, expected: VERSION });
        }
        let dims = d.u16()?;
        if dims as usize != D {
            return Err(StoreError::DimensionMismatch { found: dims, expected: D as u16 });
        }
        // Trailer.
        let mut tail = [0u8; TRAILER_LEN];
        source.read_exact_at(&mut tail, total - TRAILER_LEN as u64)?;
        if tail[TRAILER_LEN - 4..] != MAGIC {
            return Err(StoreError::Corrupt { reason: "bad magic in trailer".into() });
        }
        let mut t = Decoder::new(&tail);
        let summary_off = t.u64()?;
        let index_off = t.u64()?;
        let count = t.u64()?;
        // Every size below comes from the file: bound each section by the
        // bytes that are there before sizing a buffer or a table from it.
        let corrupt = |reason: String| StoreError::Corrupt { reason };
        let index_end = total - TRAILER_LEN as u64;
        if summary_off < HEADER_LEN as u64 || summary_off > index_off || index_off > index_end {
            return Err(corrupt(format!(
                "trailer offsets out of order: summary_off {summary_off}, index_off {index_off}, \
                 trailer at {index_end}"
            )));
        }
        let section_holds = |len: u64, entry: usize| {
            count.checked_mul(entry as u64).and_then(|b| b.checked_add(8)).is_some_and(|b| b <= len)
        };
        if !section_holds(index_off - summary_off, summary_len(D)) {
            return Err(corrupt(format!(
                "trailer count {count} exceeds what the summary section can hold"
            )));
        }
        if !section_holds(index_end - index_off, 24) {
            return Err(corrupt(format!(
                "trailer count {count} exceeds what the index section can hold"
            )));
        }

        // Summaries.
        let mut summaries = Vec::with_capacity(count as usize);
        read_section(&source, "summary", summary_off, count, summary_len(D), |record| {
            summaries.push(decode_summary::<D>(record)?);
            Ok(())
        })?;

        // Index.
        let mut index = HashMap::with_capacity(summaries.len());
        let mut next = summaries.iter();
        read_section(&source, "index", index_off, count, 24, |entry| {
            let mut d = Decoder::new(entry);
            let (id, off, len) = (ObjectId(d.u64()?), d.u64()?, d.u64()?);
            // Both sections are written in append order.
            let summary = next.next().expect("both sections hold `count` entries");
            if id != summary.id {
                return Err(corrupt(format!(
                    "index entry id {id} does not match its summary's id {}",
                    summary.id
                )));
            }
            // A record holds at least one point and lives between the
            // header and the summary section.
            let in_records = len >= record_len(D, 1) as u64
                && off >= HEADER_LEN as u64
                && off.checked_add(len).is_some_and(|end| end <= summary_off);
            if !in_records {
                return Err(corrupt(format!(
                    "index entry for {id} (off {off}, len {len}) is no record of the record section"
                )));
            }
            if index.insert(id, (off, len)).is_some() {
                return Err(corrupt(format!("index lists {id} twice")));
            }
            Ok(())
        })?;

        Ok(Self { source, index, summaries, stats: IoStats::new() })
    }

    /// All stored ids, in append order.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.summaries.iter().map(|s| s.id).collect()
    }
}

/// Bytes [`read_section`] reads at a time, at most.
const READ_CHUNK: usize = 1 << 20;

/// Read the section at `off` — its `u64` count, which must be `count`, then
/// that many records of `len` bytes — handing each record to `visit` in
/// file order, through a buffer of at most [`READ_CHUNK`] bytes (or one
/// record). Stops at `visit`'s first error.
fn read_section(
    source: &ByteSource,
    section: &str,
    mut off: u64,
    count: u64,
    len: usize,
    mut visit: impl FnMut(&[u8]) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut word = [0u8; 8];
    source.read_exact_at(&mut word, off)?;
    let stored = u64::from_le_bytes(word);
    if stored != count {
        return Err(StoreError::Corrupt {
            reason: format!("{section} count {stored} != object count {count}"),
        });
    }
    off += 8;
    let per_chunk = (READ_CHUNK / len).max(1);
    let mut left = count as usize;
    let mut buf = vec![0u8; left.min(per_chunk) * len];
    while left > 0 {
        let chunk = &mut buf[..left.min(per_chunk) * len];
        source.read_exact_at(chunk, off)?;
        for record in chunk.chunks_exact(len) {
            visit(record)?;
        }
        off += chunk.len() as u64;
        left -= chunk.len() / len;
    }
    Ok(())
}

impl<const D: usize> ObjectStore<D> for FileStore<D> {
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<D>>, StoreError> {
        let &(off, len) = self.index.get(&id).ok_or(StoreError::UnknownObject(id))?;
        let mut buf = vec![0u8; len as usize];
        self.source.read_exact_at(&mut buf, off)?;
        self.stats.record_read(len);
        let obj = decode_object::<D>(&buf)?;
        if obj.id() != id {
            return Err(StoreError::Corrupt {
                reason: format!("record at offset {off} has id {} but index says {id}", obj.id()),
            });
        }
        Ok(Arc::new(obj))
    }

    fn len(&self) -> usize {
        self.summaries.len()
    }

    fn summaries(&self) -> &[ObjectSummary<D>] {
        &self.summaries
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_geom::Point;

    fn obj(id: u64, shift: f64) -> FuzzyObject<2> {
        let pts = vec![
            Point::xy(shift, shift),
            Point::xy(shift + 1.0, shift),
            Point::xy(shift, shift + 2.0),
        ];
        FuzzyObject::new(ObjectId(id), pts, vec![1.0, 0.5, 0.25]).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fuzzy-store-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn write_then_probe_roundtrip() {
        let path = tmp("roundtrip");
        let mut w = FileStoreWriter::<2>::create(&path).unwrap();
        for i in 0..20u64 {
            w.append(&obj(i, i as f64)).unwrap();
        }
        assert_eq!(w.len(), 20);
        let image = FileStore::from_objects((0..20u64).map(|i| obj(i, i as f64))).unwrap();
        for store in [w.finish().unwrap(), image] {
            assert_eq!(store.len(), 20);
            for i in 0..20u64 {
                let o = store.probe(ObjectId(i)).unwrap();
                assert_eq!(o.id(), ObjectId(i));
                assert_eq!(o.len(), 3);
                assert_eq!(o.points()[0], Point::xy(i as f64, i as f64));
            }
            assert_eq!(store.stats().object_reads, 20);
            store.reset_stats();
            assert_eq!(store.stats().object_reads, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn summaries_available_without_probes() {
        let path = tmp("summaries");
        let mut w = FileStoreWriter::<2>::create(&path).unwrap();
        for i in 0..5u64 {
            w.append(&obj(i, i as f64 * 10.0)).unwrap();
        }
        let store = w.finish().unwrap();
        let sums = store.summaries();
        assert_eq!(sums.len(), 5);
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(s.id, ObjectId(i as u64));
            assert_eq!(s.point_count, 3);
            assert!(s.support_mbr.contains_mbr(&s.kernel_mbr));
        }
        // Reading summaries must not count as object access.
        assert_eq!(store.stats().object_reads, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_object_is_an_error() {
        let path = tmp("unknown");
        let mut w = FileStoreWriter::<2>::create(&path).unwrap();
        w.append(&obj(1, 0.0)).unwrap();
        for store in [w.finish().unwrap(), FileStore::from_objects([obj(1, 0.0)]).unwrap()] {
            assert!(matches!(
                store.probe(ObjectId(999)).unwrap_err(),
                StoreError::UnknownObject(ObjectId(999))
            ));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_append_rejected() {
        let path = tmp("dup");
        let mut w = FileStoreWriter::<2>::create(&path).unwrap();
        w.append(&obj(1, 0.0)).unwrap();
        assert!(matches!(
            w.append(&obj(1, 5.0)).unwrap_err(),
            StoreError::DuplicateObject(ObjectId(1))
        ));
        let err = FileStore::from_objects([obj(1, 0.0), obj(1, 5.0)]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateObject(ObjectId(1))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dimension_mismatch_detected() {
        let path = tmp("dims");
        let mut w = FileStoreWriter::<2>::create(&path).unwrap();
        w.append(&obj(1, 0.0)).unwrap();
        let _ = w.finish().unwrap();
        let err = FileStore::<3>::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::DimensionMismatch { found: 2, expected: 3 }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_file_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"this is not a fuzzy dataset at all........").unwrap();
        let err = FileStore::<2>::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bytes_read_accounts_record_sizes() {
        let path = tmp("bytes");
        let mut w = FileStoreWriter::<2>::create(&path).unwrap();
        w.append(&obj(1, 0.0)).unwrap();
        for store in [w.finish().unwrap(), FileStore::from_objects([obj(1, 0.0)]).unwrap()] {
            let _ = store.probe(ObjectId(1)).unwrap();
            let snap = store.stats();
            // id(8) + n(4) + flags(4) + perm(3×4) + µ(3×8) + cols(2×3×8) + fnv(8).
            assert_eq!(snap.bytes_read, crate::format::record_len(2, 3) as u64);
            assert_eq!(snap.bytes_read, encode_object(&obj(1, 0.0)).len() as u64);
            assert_eq!(snap.bytes_read, 108);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// An image store is the file's bytes: `from_objects` writes what the
    /// file writer writes, and opens it with the same checks.
    #[test]
    fn an_image_is_the_file_s_bytes() {
        let path = tmp("image");
        let mut w = FileStoreWriter::<2>::create(&path).unwrap();
        for i in 0..6u64 {
            w.append(&obj(i, i as f64)).unwrap();
        }
        drop(w.finish().unwrap());
        let bytes = std::fs::read(&path).unwrap();
        let mut w = FileStoreWriter::<2, _>::start(Vec::new(), PathBuf::new()).unwrap();
        for i in 0..6u64 {
            w.append(&obj(i, i as f64)).unwrap();
        }
        assert_eq!(w.end().unwrap().0, bytes);
        let image = FileStore::<2>::from_objects((0..6u64).map(|i| obj(i, i as f64))).unwrap();
        let reopened = FileStore::<2>::from_image(bytes).unwrap();
        assert_eq!(reopened.ids(), image.ids());
        std::fs::remove_file(&path).unwrap();
    }
}
