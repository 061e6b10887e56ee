//! The one way the workspace publishes a file: write it whole under
//! `<path>.tmp`, flush, fsync, pass the caller's fault site, rename it over
//! `path`, then fsync the directory. A reader of `path` sees the old bytes
//! or the new ones, never a torn file. The fsync comes before the rename,
//! so this holds after a power loss too, not only after a killed process:
//! the rename cannot reach the disk ahead of the data it names. The
//! directory fsync makes the rename itself durable before `commit`
//! returns, so a later step (removing a work directory, flipping
//! `CURRENT`) cannot persist while the publish it followed is lost. The
//! fault site fires in the widest window — data durable, rename not done.
//! A file that fails or is dropped before [`AtomicFile::commit`] deletes
//! its temp file.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A file being written under `<path>.tmp`; [`AtomicFile::commit`]
/// publishes it at `path`, and dropping it uncommitted deletes the temp
/// file.
pub struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    out: BufWriter<File>,
    committed: bool,
}

impl AtomicFile {
    /// Start writing `path` by creating (or truncating) `<path>.tmp`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<AtomicFile> {
        let path = path.as_ref().to_path_buf();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let out = BufWriter::new(File::create(&tmp)?);
        Ok(AtomicFile {
            path,
            tmp,
            out,
            committed: false,
        })
    }

    /// Flush and fsync the temp file, pass `fault_site`, rename it over
    /// the destination, then fsync the destination's directory. On an
    /// error before the rename the temp file is deleted and the
    /// destination keeps its old bytes; an error of the directory fsync is
    /// passed on with the new bytes already in place.
    pub fn commit(mut self, fault_site: &str) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        crate::faults::point(fault_site)?;
        fs::rename(&self.tmp, &self.path)?;
        self.committed = true;
        let dir = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Publish `path` atomically with the bytes `write_fn` writes (fault site
/// `fault_site`): [`AtomicFile::create`], `write_fn`, then
/// [`AtomicFile::commit`].
pub fn atomic_write(
    path: &Path,
    fault_site: &str,
    write_fn: impl FnOnce(&mut AtomicFile) -> io::Result<()>,
) -> io::Result<()> {
    let mut file = AtomicFile::create(path)?;
    write_fn(&mut file)?;
    file.commit(fault_site)
}
