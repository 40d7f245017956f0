//! Where a reader's bytes come from: a file, or an image of one in memory.
//!
//! [`crate::FileStore`] and the paged index (`fuzzy_index::PagedRTree`)
//! read every byte through a [`ByteSource`]. A file is read with
//! positioned reads (`pread`); an image is the same bytes held in memory
//! (what an in-memory store or index is: a file that never left RAM).
//! Everything above the two reads — header, trailer and table checks,
//! decoders, checksum walks, the buffer pool — is shared, so hostile bytes
//! meet the same checks and the same typed errors in either form.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

/// A positioned-read byte source. Reads take `&self` and never move a
/// cursor, so one source serves many threads at once.
pub enum ByteSource {
    /// An open file, read with `pread`.
    File(File),
    /// A file's bytes, held in memory.
    Image(Arc<[u8]>),
}

impl std::fmt::Debug for ByteSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::File(file) => f.debug_tuple("File").field(file).finish(),
            Self::Image(bytes) => write!(f, "Image({} bytes)", bytes.len()),
        }
    }
}

impl ByteSource {
    /// Fill `buf` with the bytes at `offset`. Reading past the end is the
    /// error a short file gives ([`io::ErrorKind::UnexpectedEof`]).
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        match self {
            Self::File(file) => file.read_exact_at(buf, offset),
            Self::Image(bytes) => {
                let start = usize::try_from(offset).unwrap_or(usize::MAX);
                let held = start.checked_add(buf.len()).and_then(|end| bytes.get(start..end));
                let held = held.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "failed to fill whole buffer")
                })?;
                buf.copy_from_slice(held);
                Ok(())
            }
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> io::Result<u64> {
        match self {
            Self::File(file) => Ok(file.metadata()?.len()),
            Self::Image(bytes) => Ok(bytes.len() as u64),
        }
    }

    /// True when the source holds no bytes.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}
