//! An in-memory [`Vfs`] backend for the suite store.
//!
//! The benchmark keeps every corpus in memory: timing the store on a shared
//! disk measures the disk, not the store, and the benchmark may not write
//! outside its own checkout. The store's code path is unchanged — it still
//! serializes, hashes, writes temp files, renames and reads back through its
//! `Vfs` seam — only the bytes land in a map instead of a filesystem.

use qubikos_bench::Vfs;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Files keyed by path, plus a count of the bytes written.
#[derive(Debug, Default)]
pub struct MemVfs {
    files: Mutex<HashMap<PathBuf, Arc<str>>>,
    bytes_written: AtomicU64,
}

impl MemVfs {
    pub fn new() -> Arc<MemVfs> {
        Arc::new(MemVfs::default())
    }

    /// Bytes handed to [`Vfs::write`] so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// The file at `path`, if present.
    pub fn peek(&self, path: &Path) -> Option<Arc<str>> {
        self.files.lock().expect("memvfs lock").get(path).cloned()
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl Vfs for MemVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let text = self.peek(path).ok_or_else(|| not_found(path))?;
        Ok(text.to_string())
    }

    fn write(&self, path: &Path, text: &str) -> io::Result<()> {
        self.bytes_written
            .fetch_add(text.len() as u64, Ordering::Relaxed);
        let mut files = self.files.lock().expect("memvfs lock");
        files.insert(path.to_path_buf(), Arc::from(text));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.lock().expect("memvfs lock");
        let text = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), text);
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut files = self.files.lock().expect("memvfs lock");
        files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn sync_file(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_rename_read_and_remove() {
        let vfs = MemVfs::new();
        vfs.write(Path::new("c/a.tmp"), "abc").unwrap();
        vfs.rename(Path::new("c/a.tmp"), Path::new("c/a")).unwrap();
        assert_eq!(vfs.read_to_string(Path::new("c/a")).unwrap(), "abc");
        assert_eq!(vfs.bytes_written(), 3);
        vfs.remove_file(Path::new("c/a")).unwrap();
        let missing = vfs.read_to_string(Path::new("c/a")).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        assert!(vfs.peek(Path::new("c/a.tmp")).is_none());
    }
}
