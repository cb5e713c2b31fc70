//! A counting [`Vfs`] around [`RealVfs`], handed to the replay's store
//! through `ArtifactStore::open_with`, so the store's syscalls per save
//! are exact counts.

use betalike_faults::{RealVfs, Vfs};
use betalike_store::disk::site;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Syscall tallies since the counter was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Whole-file writes.
    pub writes: u64,
    /// `fsync` calls (files and directories).
    pub fsyncs: u64,
    /// Renames.
    pub renames: u64,
    /// Bytes handed to writes.
    pub bytes_written: u64,
    /// Bytes of those writes that were the manifest.
    pub manifest_bytes: u64,
}

impl Tally {
    /// The tally accumulated between `before` and `self`.
    pub fn since(&self, before: &Tally) -> Tally {
        Tally {
            writes: self.writes - before.writes,
            fsyncs: self.fsyncs - before.fsyncs,
            renames: self.renames - before.renames,
            bytes_written: self.bytes_written - before.bytes_written,
            manifest_bytes: self.manifest_bytes - before.manifest_bytes,
        }
    }
}

/// [`RealVfs`] plus a [`Tally`] of the mutating calls.
#[derive(Debug, Default)]
pub struct CountingVfs {
    tally: Mutex<Tally>,
}

impl CountingVfs {
    /// The tally so far.
    pub fn tally(&self) -> Tally {
        *self
            .tally
            .lock()
            .expect("tally lock is never held across a panic")
    }

    fn bump(&self, f: impl FnOnce(&mut Tally)) {
        f(&mut self
            .tally
            .lock()
            .expect("tally lock is never held across a panic"));
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, site: &'static str, path: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(site, path)
    }

    fn read_dir(&self, site: &'static str, path: &Path) -> io::Result<Vec<PathBuf>> {
        RealVfs.read_dir(site, path)
    }

    fn read(&self, site: &'static str, path: &Path) -> io::Result<Vec<u8>> {
        RealVfs.read(site, path)
    }

    fn read_to_string(&self, site: &'static str, path: &Path) -> io::Result<String> {
        RealVfs.read_to_string(site, path)
    }

    fn write(&self, site: &'static str, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bump(|t| {
            t.writes += 1;
            t.bytes_written += bytes.len() as u64;
            if site == site::MANIFEST_WRITE_TMP {
                t.manifest_bytes += bytes.len() as u64;
            }
        });
        RealVfs.write(site, path, bytes)
    }

    fn fsync(&self, site: &'static str, path: &Path) -> io::Result<()> {
        self.bump(|t| t.fsyncs += 1);
        RealVfs.fsync(site, path)
    }

    fn rename(&self, site: &'static str, from: &Path, to: &Path) -> io::Result<()> {
        self.bump(|t| t.renames += 1);
        RealVfs.rename(site, from, to)
    }

    fn remove_file(&self, site: &'static str, path: &Path) -> io::Result<()> {
        RealVfs.remove_file(site, path)
    }

    fn copy(&self, site: &'static str, from: &Path, to: &Path) -> io::Result<u64> {
        RealVfs.copy(site, from, to)
    }

    fn exists(&self, path: &Path) -> bool {
        RealVfs.exists(path)
    }
}
