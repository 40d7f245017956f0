//! Crash-safe whole-file replacement: [`write_atomic`].
//!
//! Every file this workspace rewrites in place — the `.fzdl` delta log and
//! a compacted `.fzpt` — goes through the same five steps, in this order:
//!
//! 1. create `<path>.tmp`, a sibling in the same directory;
//! 2. write the new content into it;
//! 3. `sync_all` it, so the bytes are on disk before the name is;
//! 4. `rename` it over `path` — the one atomic step, the commit point;
//! 5. `sync_all` the parent directory, so the rename itself is durable.
//!
//! A failure or a crash before step 4 leaves `path` exactly as it was; from
//! step 4 on `path` holds exactly the new content. There is no state in
//! which a reader opening `path` sees a mixture.

use crate::error::StoreError;
use std::cell::Cell;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

thread_local! {
    /// Fault injection for the crash-safety tests — not part of the API.
    /// `Some(n)` makes the `n`-th boundary (0-based) that [`write_atomic`]
    /// next crosses on this thread fail with an I/O error *instead of*
    /// running, then disarms. The boundaries are: creating the temp file,
    /// every write the caller issues, the file sync, the rename, the
    /// directory sync.
    #[doc(hidden)]
    pub static WRITE_ATOMIC_FAIL_AT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// One step of the protocol is about to run: fail here if a test armed it.
fn boundary(step: &str) -> io::Result<()> {
    WRITE_ATOMIC_FAIL_AT.with(|armed| match armed.get() {
        None => Ok(()),
        Some(0) => {
            armed.set(None);
            Err(io::Error::other(format!("injected fault at {step}")))
        }
        Some(n) => {
            armed.set(Some(n - 1));
            Ok(())
        }
    })
}

/// The temp file as the caller's `write` closure sees it.
struct Staged(File);

impl Write for Staged {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        boundary("write")?;
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Replace the file at `path` with whatever `write` produces, atomically
/// and durably (the five steps of the module docs). `write` receives the
/// temp sibling; when it or any step before the rename fails, the temp
/// file is removed and `path` is untouched. An error from the final
/// directory sync means `path` already holds the new content but the
/// rename may not survive a power loss.
pub fn write_atomic(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut dyn Write) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);

    let staged = (|| -> Result<(), StoreError> {
        boundary("temp file creation")?;
        let mut file = Staged(File::create(&tmp)?);
        write(&mut file)?;
        boundary("file sync")?;
        file.0.sync_all()?;
        boundary("rename")?;
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }

    boundary("directory sync")?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fz-atomic-{}-{name}", std::process::id()))
    }

    #[test]
    fn replaces_content_and_leaves_no_temp() {
        let path = tmp("replace");
        write_atomic(&path, |w| Ok(w.write_all(b"old")?)).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"old");
        write_atomic(&path, |w| Ok(w.write_all(b"new content")?)).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new content");
        assert!(!tmp("replace.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failing_writer_leaves_the_old_file() {
        let path = tmp("failing-writer");
        write_atomic(&path, |w| Ok(w.write_all(b"old")?)).unwrap();
        let err = write_atomic(&path, |w| {
            w.write_all(b"half of the new")?;
            Err(StoreError::Corrupt { reason: "caller gave up".into() })
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert!(!tmp("failing-writer.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    /// A fault at every boundary in turn: before the rename the old bytes
    /// survive and the temp file is gone; at the directory sync the new
    /// bytes are already in place. Either way the call reports the fault.
    #[test]
    fn a_fault_at_every_boundary_leaves_old_or_new() {
        let path = tmp("boundaries");
        write_atomic(&path, |w| Ok(w.write_all(b"old")?)).unwrap();
        // Three caller writes: create, write x3, sync, rename, dir sync.
        let attempt = |path: &Path| {
            write_atomic(path, |w| {
                for chunk in [&b"new "[..], b"content ", b"here"] {
                    w.write_all(chunk)?;
                }
                Ok(())
            })
        };
        for n in 0..7 {
            WRITE_ATOMIC_FAIL_AT.with(|f| f.set(Some(n)));
            let err = attempt(&path).unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "boundary {n}: {err}");
            assert!(WRITE_ATOMIC_FAIL_AT.with(Cell::get).is_none(), "boundary {n} never reached");
            let want: &[u8] = if n < 6 { b"old" } else { b"new content here" };
            assert_eq!(fs::read(&path).unwrap(), want, "boundary {n}");
            assert!(!tmp("boundaries.tmp").exists(), "boundary {n} left its temp file");
            write_atomic(&path, |w| Ok(w.write_all(b"old")?)).unwrap();
        }
        // An eighth boundary does not exist: the call succeeds, still armed.
        WRITE_ATOMIC_FAIL_AT.with(|f| f.set(Some(7)));
        attempt(&path).unwrap();
        assert_eq!(WRITE_ATOMIC_FAIL_AT.with(|f| f.replace(None)), Some(0));
        fs::remove_file(&path).unwrap();
    }
}
