//! The on-disk, content-addressed artifact store behind
//! `betalike-serve --data-dir`.
//!
//! Layout under the data directory:
//!
//! ```text
//! <data-dir>/
//!   artifacts/pub-….bpub  one BPUB document per publication
//!   quarantine/           corrupt files moved aside, never deleted
//! ```
//!
//! The `.bpub` files are the whole durable state: each one names its
//! handle, carries a checksum per section and ends in an `end` guard, so
//! the directory listing is the index. [`ArtifactStore::open`] scans
//! `artifacts/` once, drops stale `*.tmp` leftovers, and checks every
//! `<handle>.bpub` by walking its section frames (decoding only
//! `params`, whose handle must match the file name). A file that fails
//! the walk is quarantined rather than served; a *transient* read error
//! (anything other than `NotFound`, after an `Interrupted` retry) fails
//! the open instead — quarantining on a transient error could shadow a
//! healthy copy. A `MANIFEST` left by older builds is ignored.
//!
//! Atomicity: an artifact is written to a temporary sibling, fsynced,
//! renamed into place, and `artifacts/` fsynced — a crash leaves either
//! the old state or the new state, never a torn file. A remove fsyncs
//! `artifacts/` after the unlink, so an acknowledged remove survives a
//! power cut.
//!
//! Every syscall goes through an injectable [`Vfs`] (see
//! `betalike-faults`), tagged with one of the [`site`] labels below; the
//! crash-point torture suite in `crates/faults/tests/torture.rs` kills the
//! store at every site and asserts these recovery invariants hold. A new
//! syscall site added without a [`site`] constant (or bypassing the Vfs —
//! lint rule F1) is a test failure.

use crate::bpub::{decode_publication, publication_to_vec, scan_publication, PublicationSnapshot};
use crate::error::{Result, StoreError};
use crate::obs::StoreObs;
use betalike_faults::{RealVfs, Vfs};
use betalike_microdata::hash::fnv1a64;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Subdirectory holding the artifact files.
pub const ARTIFACTS_DIR: &str = "artifacts";
/// Subdirectory corrupt files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Consecutive [`ArtifactStore::save`] failures after which
/// [`ArtifactStore::degraded`] reports true and the server stops accepting
/// publishes (counts/audits keep serving).
pub const DEGRADED_AFTER: u32 = 3;

/// Stable labels for every [`Vfs`] call site in this module. The torture
/// suite asserts it observed exactly [`site::VFS_SITES`] — adding a
/// syscall here without extending the roster fails that suite, the same
/// way a new attack must join `AttackKind::ALL`.
pub mod site {
    /// `create_dir_all(artifacts/)` during open.
    pub const OPEN_MKDIR_ARTIFACTS: &str = "open.mkdir.artifacts";
    /// `create_dir_all(quarantine/)` during open.
    pub const OPEN_MKDIR_QUARANTINE: &str = "open.mkdir.quarantine";
    /// The one `artifacts/` scan during open.
    pub const OPEN_SCAN_ARTIFACTS: &str = "open.scan.artifacts";
    /// Removal of a stale `*.tmp` leftover during open.
    pub const OPEN_REMOVE_TMP: &str = "open.remove.tmp";
    /// Read of a `.bpub` file during open.
    pub const OPEN_READ_ARTIFACT: &str = "open.read.artifact";
    /// Tempfile write of an artifact during save.
    pub const SAVE_WRITE_TMP: &str = "save.write.tmp";
    /// Tempfile fsync of an artifact during save.
    pub const SAVE_FSYNC_TMP: &str = "save.fsync.tmp";
    /// Rename of an artifact tempfile into place.
    pub const SAVE_RENAME: &str = "save.rename";
    /// Directory fsync making the artifact rename durable.
    pub const SAVE_FSYNC_DIR: &str = "save.fsync.dir";
    /// Artifact read during [`super::ArtifactStore::load`].
    pub const LOAD_READ_ARTIFACT: &str = "load.read.artifact";
    /// Artifact unlink during [`super::ArtifactStore::remove`].
    pub const REMOVE_ARTIFACT: &str = "remove.artifact";
    /// Directory fsync making a remove's unlink durable.
    pub const REMOVE_FSYNC_DIR: &str = "remove.fsync.dir";
    /// Move of a damaged file into `quarantine/`.
    pub const QUARANTINE_RENAME: &str = "quarantine.rename";
    /// Cross-filesystem quarantine fallback: copy into `quarantine/`.
    pub const QUARANTINE_FALLBACK_COPY: &str = "quarantine.fallback.copy";
    /// Cross-filesystem quarantine fallback: unlink the original.
    pub const QUARANTINE_FALLBACK_REMOVE: &str = "quarantine.fallback.remove";
    /// Probe-file write during [`super::ArtifactStore::probe`].
    pub const PROBE_WRITE: &str = "probe.write";
    /// Probe-file unlink during [`super::ArtifactStore::probe`].
    pub const PROBE_REMOVE: &str = "probe.remove";

    /// Every site label above — the coverage roster the torture suite
    /// checks both directions (no unobserved site, no unlisted site).
    pub const VFS_SITES: &[&str] = &[
        OPEN_MKDIR_ARTIFACTS,
        OPEN_MKDIR_QUARANTINE,
        OPEN_SCAN_ARTIFACTS,
        OPEN_REMOVE_TMP,
        OPEN_READ_ARTIFACT,
        SAVE_WRITE_TMP,
        SAVE_FSYNC_TMP,
        SAVE_RENAME,
        SAVE_FSYNC_DIR,
        LOAD_READ_ARTIFACT,
        REMOVE_ARTIFACT,
        REMOVE_FSYNC_DIR,
        QUARANTINE_RENAME,
        QUARANTINE_FALLBACK_COPY,
        QUARANTINE_FALLBACK_REMOVE,
        PROBE_WRITE,
        PROBE_REMOVE,
    ];

    /// The label older builds wrote their `MANIFEST` under. Nothing
    /// writes under it any more and it is not in [`VFS_SITES`]; it stays
    /// so syscall counters that break out manifest bytes keep building
    /// (and now report 0).
    pub const MANIFEST_WRITE_TMP: &str = "manifest.write.tmp";
}

/// One stored artifact, as indexed from its file: everything needed to
/// detect a damaged artifact without parsing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Content-addressed handle (`pub-…`).
    pub handle: String,
    /// The canonical parameter string the handle hashes.
    pub canonical: String,
    /// FNV-1a over the whole `.bpub` file.
    pub checksum: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// A durable, checksummed map from publication handle to `.bpub` file.
///
/// The map is an in-memory index of `artifacts/`, rebuilt by every open;
/// the lock guarding it is never held across I/O. The store is shared
/// behind an `Arc` by every server worker.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    entries: Mutex<BTreeMap<String, StoreEntry>>,
    write_failures: AtomicU32,
    obs: OnceLock<StoreObs>,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store under `root`, on the real
    /// filesystem. Equivalent to [`ArtifactStore::open_with`] and
    /// [`RealVfs`].
    ///
    /// # Errors
    ///
    /// See [`ArtifactStore::open_with`].
    pub fn open(root: impl Into<PathBuf>) -> Result<(Self, Vec<String>)> {
        Self::open_with(root, Arc::new(RealVfs))
    }

    /// Opens (creating if needed) the store under `root`, routing every
    /// syscall through `vfs`.
    ///
    /// Scans `artifacts/` once: removes stale `*.tmp` leftovers, and
    /// indexes every `<handle>.bpub` whose sections all pass their
    /// checksums and whose `params` name `handle`. Files that fail are
    /// quarantined. Returns the store plus the quarantined handles.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures — including *transient* read errors on an
    /// artifact (quarantining on those could shadow a healthy copy; the
    /// caller retries the open instead). A file that vanishes between the
    /// scan and its read is skipped.
    pub fn open_with(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Result<(Self, Vec<String>)> {
        let root = root.into();
        let dir = root.join(ARTIFACTS_DIR);
        vfs.create_dir_all(site::OPEN_MKDIR_ARTIFACTS, &dir)?;
        vfs.create_dir_all(site::OPEN_MKDIR_QUARANTINE, &root.join(QUARANTINE_DIR))?;

        let mut entries = BTreeMap::new();
        let mut quarantined = Vec::new();
        for path in vfs.read_dir(site::OPEN_SCAN_ARTIFACTS, &dir)? {
            let Some(ext) = path.extension() else {
                continue;
            };
            if ext == "tmp" {
                // A stale temporary from an interrupted write.
                let _ = vfs.remove_file(site::OPEN_REMOVE_TMP, &path);
                continue;
            }
            let handle = match path.file_stem().and_then(|s| s.to_str()) {
                Some(stem) if ext == "bpub" && validate_handle(stem).is_ok() => stem.to_string(),
                _ => continue,
            };
            // Only a file that reads and fails its checks is quarantined:
            // any other read error says nothing about the bytes, and
            // moving the file aside on it could bury the only healthy copy.
            let bytes =
                match read_retrying_interrupts(vfs.as_ref(), site::OPEN_READ_ARTIFACT, &path) {
                    Ok(bytes) => bytes,
                    // Raced away (e.g. by a concurrent remove): nothing to index.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e.into()),
                };
            match scan_publication(&bytes) {
                Ok((params, checksum)) if params.handle == handle => {
                    let entry = StoreEntry {
                        handle: handle.clone(),
                        canonical: params.canonical,
                        checksum,
                        bytes: bytes.len() as u64,
                    };
                    entries.insert(handle, entry);
                }
                _ => {
                    quarantine_file(vfs.as_ref(), &root, &handle);
                    quarantined.push(handle);
                }
            }
        }

        let store = ArtifactStore {
            root,
            vfs,
            entries: Mutex::new(entries),
            write_failures: AtomicU32::new(0),
            obs: OnceLock::new(),
        };
        Ok((store, quarantined))
    }

    /// The data directory this store lives under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Attaches observability handles (first caller wins; later calls are
    /// ignored). Saves, loads and fsyncs are timed from here on, and the
    /// `store_*` gauges start mirroring the artifact count and failure
    /// state — seeded immediately so a freshly restarted server reports
    /// its restored artifact count before any traffic.
    pub fn attach_obs(&self, obs: StoreObs) {
        let _ = self.obs.set(obs);
        self.sync_obs_gauges();
    }

    fn obs(&self) -> Option<&StoreObs> {
        self.obs.get()
    }

    /// Pushes failure-state gauges after any operation that can move
    /// them.
    fn sync_obs_gauges(&self) {
        if let Some(o) = self.obs() {
            o.stored.set(self.len() as i64);
            o.write_failures.set(i64::from(self.write_failures()));
            o.degraded.set(i64::from(self.degraded()));
        }
    }

    /// All stored handles, sorted.
    pub fn handles(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// The index entry for `handle`, if present.
    pub fn entry(&self, handle: &str) -> Option<StoreEntry> {
        self.lock().get(handle).cloned()
    }

    /// Number of stored artifacts.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The on-disk path of `handle`'s artifact file.
    pub fn path_of(&self, handle: &str) -> PathBuf {
        artifact_path(&self.root, handle)
    }

    /// Consecutive [`ArtifactStore::save`] failures since the last
    /// success.
    pub fn write_failures(&self) -> u32 {
        self.write_failures.load(Ordering::SeqCst)
    }

    /// Whether the store has seen [`DEGRADED_AFTER`] or more consecutive
    /// save failures — the server's cue to enter read-only degraded mode
    /// (publishes shed with a retryable error, reads keep serving).
    pub fn degraded(&self) -> bool {
        self.write_failures() >= DEGRADED_AFTER
    }

    /// Checks whether the disk can take writes again by writing and
    /// unlinking a small probe file in `artifacts/`. A successful probe
    /// resets the failure counter (clearing [`ArtifactStore::degraded`]);
    /// a failed one leaves it untouched — probing is how a degraded
    /// server discovers recovery without risking a real artifact. The
    /// `.tmp` suffix means a probe stranded by a crash is swept by the
    /// next open's stale-tempfile cleanup.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure of the probe write or unlink.
    pub fn probe(&self) -> Result<()> {
        let path = self.root.join(ARTIFACTS_DIR).join(".probe.tmp");
        self.vfs
            .write(site::PROBE_WRITE, &path, b"betalike probe")?;
        self.vfs.remove_file(site::PROBE_REMOVE, &path)?;
        self.write_failures.store(0, Ordering::SeqCst);
        self.sync_obs_gauges();
        Ok(())
    }

    /// Persists a publication: serialize, then write
    /// `artifacts/<handle>.bpub` atomically (temp file + fsync + rename +
    /// directory fsync). The handle joins the index only once the write
    /// is durable. Tracks consecutive failures for
    /// [`ArtifactStore::degraded`].
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures; `Malformed` on a handle
    /// that is not a safe file name.
    pub fn save(&self, snap: &PublicationSnapshot) -> Result<StoreEntry> {
        let start = self.obs().and_then(|o| o.timer.start());
        let result = self.save_inner(snap);
        match &result {
            Ok(_) => self.write_failures.store(0, Ordering::SeqCst),
            // Saturate: a disk that stays broken for 2^32 publishes must
            // not wrap back to "healthy".
            Err(_) => {
                let _ = self
                    .write_failures
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        Some(n.saturating_add(1))
                    });
            }
        }
        if let Some(o) = self.obs() {
            o.timer.record_since(&o.save_ns, start);
        }
        self.sync_obs_gauges();
        result
    }

    fn save_inner(&self, snap: &PublicationSnapshot) -> Result<StoreEntry> {
        let handle = &snap.params.handle;
        validate_handle(handle)?;
        let bytes = publication_to_vec(snap)?;
        let entry = StoreEntry {
            handle: handle.clone(),
            canonical: snap.params.canonical.clone(),
            checksum: fnv1a64(&bytes),
            bytes: bytes.len() as u64,
        };
        let path = self.path_of(handle);
        let tmp = path.with_extension("tmp");
        self.vfs.write(site::SAVE_WRITE_TMP, &tmp, &bytes)?;
        self.timed_fsync(site::SAVE_FSYNC_TMP, &tmp)?;
        self.vfs.rename(site::SAVE_RENAME, &tmp, &path)?;
        self.timed_fsync(site::SAVE_FSYNC_DIR, &self.root.join(ARTIFACTS_DIR))?;
        self.lock().insert(handle.clone(), entry.clone());
        Ok(entry)
    }

    /// Loads `handle`'s publication, verifying the whole-file checksum in
    /// the same pass that verifies the section checksums and decodes.
    ///
    /// Returns `Ok(None)` for an unknown handle; a known handle whose file
    /// is missing, damaged or unparsable is an `Err` (callers decide
    /// whether to [`ArtifactStore::quarantine`] and recompute).
    ///
    /// # Errors
    ///
    /// `Corrupt` (section `file`) whenever the file's bytes differ from
    /// the ones [`ArtifactStore::open`] or [`ArtifactStore::save`] indexed
    /// — even when a section checksum or the decoder trips first, since
    /// a file changed behind the store's back is damage to the file, not
    /// to one section. Otherwise the BPUB reader's structured errors on
    /// parse failure, and `Malformed` if the decoded document claims a
    /// different handle.
    pub fn load(&self, handle: &str) -> Result<Option<PublicationSnapshot>> {
        let start = self.obs().and_then(|o| o.timer.start());
        let result = self.load_inner(handle);
        if let Some(o) = self.obs() {
            o.timer.record_since(&o.load_ns, start);
        }
        result
    }

    fn load_inner(&self, handle: &str) -> Result<Option<PublicationSnapshot>> {
        let Some(entry) = self.entry(handle) else {
            return Ok(None);
        };
        let bytes = self
            .vfs
            .read(site::LOAD_READ_ARTIFACT, &self.path_of(handle))?;
        let decoded = decode_publication(&bytes);
        // A document that failed to decode was not hashed to its end; only
        // that (cold) path hashes the file on its own.
        let got = match &decoded {
            Ok((_, checksum)) => *checksum,
            Err(_) => fnv1a64(&bytes),
        };
        if got != entry.checksum {
            return Err(StoreError::Corrupt {
                section: "file".into(),
                expected: entry.checksum,
                got,
            });
        }
        let (snap, _) = decoded?;
        if snap.params.handle != handle {
            return Err(StoreError::malformed(
                "params",
                format!(
                    "file for `{handle}` contains handle `{}`",
                    snap.params.handle
                ),
            ));
        }
        Ok(Some(snap))
    }

    /// Moves `handle`'s file into `quarantine/` and drops it from the
    /// index. Returns whether anything was quarantined.
    ///
    /// # Errors
    ///
    /// None today: a failed move is best-effort (the handle still leaves
    /// the index), and the next open re-checks whatever stayed behind.
    pub fn quarantine(&self, handle: &str) -> Result<bool> {
        let removed = self.lock().remove(handle).is_some();
        let moved = quarantine_file(self.vfs.as_ref(), &self.root, handle);
        if removed || moved {
            if let Some(o) = self.obs() {
                o.quarantines.inc();
            }
            self.sync_obs_gauges();
        }
        Ok(removed || moved)
    }

    /// Deletes `handle`'s artifact: unlink, fsync `artifacts/` so the
    /// delete survives a power cut, then drop it from the index. Returns
    /// whether it was indexed.
    ///
    /// # Errors
    ///
    /// Propagates the unlink or directory-fsync failure.
    pub fn remove(&self, handle: &str) -> Result<bool> {
        let path = self.path_of(handle);
        if self.vfs.exists(&path) {
            self.vfs.remove_file(site::REMOVE_ARTIFACT, &path)?;
            self.timed_fsync(site::REMOVE_FSYNC_DIR, &self.root.join(ARTIFACTS_DIR))?;
        }
        let removed = self.lock().remove(handle).is_some();
        if removed {
            self.sync_obs_gauges();
        }
        Ok(removed)
    }

    /// Fully re-reads and re-verifies every stored artifact (whole-file
    /// checksum, per-section checksums, structural validation). Returns
    /// one `(handle, result)` row per indexed artifact.
    pub fn verify(&self) -> Vec<(String, Result<StoreEntry>)> {
        self.handles()
            .into_iter()
            .map(|handle| {
                let result =
                    self.load(&handle)
                        .and_then(|snap| match (snap, self.entry(&handle)) {
                            (Some(_), Some(entry)) => Ok(entry),
                            _ => Err(StoreError::malformed(
                                "store",
                                "entry vanished during verification",
                            )),
                        });
                (handle, result)
            })
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, StoreEntry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One `fsync`, timed into `store_fsync_ns` when handles are attached.
    fn timed_fsync(&self, site: &'static str, target: &Path) -> io::Result<()> {
        let start = self.obs().and_then(|o| o.timer.start());
        let result = self.vfs.fsync(site, target);
        if let Some(o) = self.obs() {
            o.timer.record_since(&o.fsync_ns, start);
        }
        result
    }
}

fn artifact_path(root: &Path, handle: &str) -> PathBuf {
    root.join(ARTIFACTS_DIR).join(format!("{handle}.bpub"))
}

fn validate_handle(handle: &str) -> Result<()> {
    let safe = !handle.is_empty()
        && handle.len() <= 128
        && handle
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.');
    if !safe || handle.starts_with('.') {
        return Err(StoreError::malformed(
            "handle",
            format!("`{handle}` is not a safe artifact handle"),
        ));
    }
    Ok(())
}

/// Retries `Interrupted` reads (a signal landing mid-`read(2)`) a few
/// times before giving up; every other error is returned to the caller
/// for classification.
fn read_retrying_interrupts(vfs: &dyn Vfs, site: &'static str, path: &Path) -> io::Result<Vec<u8>> {
    let mut last = None;
    for _ in 0..3 {
        match vfs.read(site, path) {
            Ok(bytes) => return Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::from(io::ErrorKind::Interrupted)))
}

/// Best-effort move of an artifact file into quarantine; returns whether a
/// file was moved. Quarantined files are kept, never overwritten: if the
/// same handle is quarantined again (republished, then corrupted again) a
/// numeric suffix preserves the earlier copy for forensics.
fn quarantine_file(vfs: &dyn Vfs, root: &Path, handle: &str) -> bool {
    let from = artifact_path(root, handle);
    if !vfs.exists(&from) {
        return false;
    }
    let dir = root.join(QUARANTINE_DIR);
    let mut to = dir.join(format!("{handle}.bpub"));
    let mut n = 1u32;
    while vfs.exists(&to) && n <= 1_000 {
        to = dir.join(format!("{handle}.bpub.{n}"));
        n += 1;
    }
    vfs.rename(site::QUARANTINE_RENAME, &from, &to).is_ok() || {
        // Cross-filesystem fallback (quarantine/ is under root, so this
        // should never trigger; keep the file out of service regardless).
        vfs.copy(site::QUARANTINE_FALLBACK_COPY, &from, &to).is_ok()
            && vfs
                .remove_file(site::QUARANTINE_FALLBACK_REMOVE, &from)
                .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpub::{publication_from_slice, FormSnapshot, PubParams};
    use betalike_microdata::synthetic::{random_table, SyntheticConfig};

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("betalike-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn snapshot(handle: &str) -> PublicationSnapshot {
        let table = random_table(&SyntheticConfig {
            rows: 30,
            seed: 9,
            ..Default::default()
        });
        PublicationSnapshot {
            params: PubParams {
                handle: handle.into(),
                canonical: format!("canonical-of-{handle}"),
                dataset_name: "synthetic".into(),
                dataset_rows: 30,
                dataset_seed: 9,
                dataset_key: "synthetic:rows=30:seed=9".into(),
                algo: "anatomy".into(),
                qi_prefix: 0,
                beta: 0.0,
                t: 0.0,
                seed: 0,
                qi: vec![],
                qi_pool: vec![0, 1],
                sa: 2,
            },
            table,
            form: FormSnapshot::Anatomy,
            audit: None,
            catalog: None,
        }
    }

    #[test]
    fn save_load_roundtrip_and_manifest() {
        let root = temp_root("roundtrip");
        let (store, quarantined) = ArtifactStore::open(&root).unwrap();
        assert!(quarantined.is_empty() && store.is_empty());
        let entry = store.save(&snapshot("pub-aaaa")).unwrap();
        assert_eq!(entry.handle, "pub-aaaa");
        assert!(entry.bytes > 0);
        let snap = store.load("pub-aaaa").unwrap().unwrap();
        assert_eq!(snap.params.handle, "pub-aaaa");
        assert_eq!(store.load("pub-missing").unwrap().map(|_| ()), None);

        // Reopen: the index is rebuilt from the file alone.
        drop(store);
        let (store, quarantined) = ArtifactStore::open(&root).unwrap();
        assert!(quarantined.is_empty());
        assert_eq!(store.handles(), vec!["pub-aaaa".to_string()]);
        assert_eq!(store.entry("pub-aaaa").unwrap(), entry);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_file_is_quarantined_on_open() {
        let root = temp_root("quarantine");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        store.save(&snapshot("pub-bbbb")).unwrap();
        let path = store.path_of("pub-bbbb");
        drop(store);
        // Flip one byte mid-file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (store, quarantined) = ArtifactStore::open(&root).unwrap();
        assert_eq!(quarantined, vec!["pub-bbbb".to_string()]);
        assert!(store.is_empty());
        assert!(!path.exists(), "corrupt file must leave artifacts/");
        assert!(root.join(QUARANTINE_DIR).join("pub-bbbb.bpub").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_after_open_fails_load_then_quarantines() {
        let root = temp_root("late-corruption");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        store.save(&snapshot("pub-cccc")).unwrap();
        let mut bytes = std::fs::read(store.path_of("pub-cccc")).unwrap();
        let last = bytes.len() - 20;
        bytes[last] ^= 0x55;
        std::fs::write(store.path_of("pub-cccc"), &bytes).unwrap();
        assert!(matches!(
            store.load("pub-cccc"),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(store.quarantine("pub-cccc").unwrap());
        assert_eq!(store.load("pub-cccc").unwrap().map(|_| ()), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn any_change_since_open_fails_load_as_file_corruption() {
        let root = temp_root("changed-since-open");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        store.save(&snapshot("pub-gggg")).unwrap();
        store.save(&snapshot("pub-hhhh")).unwrap();
        drop(store);
        let (store, _) = ArtifactStore::open(&root).unwrap();
        let is_file_corruption = |r: Result<Option<PublicationSnapshot>>| matches!(r, Err(StoreError::Corrupt { section, .. }) if section == "file");

        // One byte inside the `form` payload: its section checksum trips
        // first, yet the load reports the file.
        let path = store.path_of("pub-gggg");
        let original = std::fs::read(&path).unwrap();
        let mut bytes = original.clone();
        let name = bytes.windows(6).position(|w| w == b"\x04\x00form").unwrap();
        bytes[name + 6 + 8] ^= 0x01; // first payload byte, past the u64 length
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            publication_from_slice(&bytes),
            Err(StoreError::Corrupt { section, .. }) if section == "form"
        ));
        assert!(is_file_corruption(store.load("pub-gggg")));

        // Another handle's valid document decodes cleanly, but it is not
        // the file the store indexed.
        std::fs::copy(store.path_of("pub-hhhh"), &path).unwrap();
        assert!(is_file_corruption(store.load("pub-gggg")));

        // Restoring the original bytes restores the load.
        std::fs::write(&path, &original).unwrap();
        assert_eq!(
            store.load("pub-gggg").unwrap().unwrap().params.handle,
            "pub-gggg"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn legacy_manifest_directory_opens_unchanged() {
        // A data directory from a build that kept a v1 `MANIFEST` beside
        // the artifacts: one listed file, one the manifest never learned
        // of (a crash between the artifact rename and the manifest write).
        let root = temp_root("legacy");
        let artifacts = root.join(ARTIFACTS_DIR);
        std::fs::create_dir_all(&artifacts).unwrap();
        let listed = publication_to_vec(&snapshot("pub-dddd")).unwrap();
        let unlisted = publication_to_vec(&snapshot("pub-eeee")).unwrap();
        std::fs::write(artifact_path(&root, "pub-dddd"), &listed).unwrap();
        std::fs::write(artifact_path(&root, "pub-eeee"), &unlisted).unwrap();
        let manifest = format!(
            "{{\n  \"version\": 1,\n  \"artifacts\": [\n    {{\"handle\": \"pub-dddd\", \
             \"canonical\": \"canonical-of-pub-dddd\", \"checksum\": \"{:016x}\", \
             \"bytes\": {}}}\n  ]\n}}\n",
            fnv1a64(&listed),
            listed.len()
        );
        std::fs::write(root.join("MANIFEST"), &manifest).unwrap();

        let (store, quarantined) = ArtifactStore::open(&root).unwrap();
        assert!(quarantined.is_empty());
        assert_eq!(store.handles(), ["pub-dddd", "pub-eeee"]);
        for (handle, bytes) in [("pub-dddd", &listed), ("pub-eeee", &unlisted)] {
            let snap = store.load(handle).unwrap().unwrap();
            assert_eq!(&publication_to_vec(&snap).unwrap(), bytes);
            assert_eq!(store.entry(handle).unwrap().checksum, fnv1a64(bytes));
        }
        store.save(&snapshot("pub-ffff")).unwrap();
        assert!(store.remove("pub-dddd").unwrap());
        assert_eq!(
            std::fs::read_to_string(root.join("MANIFEST")).unwrap(),
            manifest,
            "the legacy manifest is left alone"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn misnamed_file_is_quarantined_on_open() {
        let root = temp_root("misnamed");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        store.save(&snapshot("pub-real")).unwrap();
        drop(store);
        std::fs::copy(
            artifact_path(&root, "pub-real"),
            artifact_path(&root, "pub-fake"),
        )
        .unwrap();
        std::fs::write(root.join(ARTIFACTS_DIR).join("stale.tmp"), b"x").unwrap();
        let (store, quarantined) = ArtifactStore::open(&root).unwrap();
        assert_eq!(quarantined, ["pub-fake"]);
        assert_eq!(store.handles(), ["pub-real"]);
        assert!(root.join(QUARANTINE_DIR).join("pub-fake.bpub").exists());
        assert!(!root.join(ARTIFACTS_DIR).join("stale.tmp").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn remove_deletes_file_and_row() {
        let root = temp_root("remove");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        store.save(&snapshot("pub-eeee")).unwrap();
        store.save(&snapshot("pub-ffff")).unwrap();
        assert!(store.remove("pub-eeee").unwrap());
        assert!(!store.remove("pub-eeee").unwrap());
        assert_eq!(store.handles(), vec!["pub-ffff".to_string()]);
        assert!(!store.path_of("pub-eeee").exists());
        drop(store);
        let (store, _) = ArtifactStore::open(&root).unwrap();
        assert_eq!(store.handles(), vec!["pub-ffff".to_string()]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_reports_per_handle() {
        let root = temp_root("verify");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        store.save(&snapshot("pub-good")).unwrap();
        store.save(&snapshot("pub-bad0")).unwrap();
        let mut bytes = std::fs::read(store.path_of("pub-bad0")).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(store.path_of("pub-bad0"), &bytes).unwrap();
        let report = store.verify();
        assert_eq!(report.len(), 2);
        let by_handle: BTreeMap<_, _> = report.into_iter().map(|(h, r)| (h, r.is_ok())).collect();
        assert!(by_handle["pub-good"]);
        assert!(!by_handle["pub-bad0"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_saves_keep_the_manifest_consistent() {
        let root = temp_root("concurrent");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        std::thread::scope(|s| {
            for i in 0..8 {
                let store = &store;
                s.spawn(move || {
                    store.save(&snapshot(&format!("pub-thread{i}"))).unwrap();
                });
            }
        });
        assert_eq!(store.len(), 8);
        // All eight files must be whole — a torn concurrent write would
        // be quarantined by this reopen.
        drop(store);
        let (store, quarantined) = ArtifactStore::open(&root).unwrap();
        assert!(quarantined.is_empty());
        assert_eq!(store.len(), 8);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn requarantine_preserves_earlier_copies() {
        let root = temp_root("requarantine");
        let (store, _) = ArtifactStore::open(&root).unwrap();
        store.save(&snapshot("pub-again")).unwrap();
        assert!(store.quarantine("pub-again").unwrap());
        store.save(&snapshot("pub-again")).unwrap();
        assert!(store.quarantine("pub-again").unwrap());
        let q = root.join(QUARANTINE_DIR);
        assert!(q.join("pub-again.bpub").exists());
        assert!(
            q.join("pub-again.bpub.1").exists(),
            "second quarantine must not overwrite the first copy"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unsafe_handles_are_rejected() {
        for bad in ["", "../escape", "a/b", ".hidden", "x y"] {
            assert!(validate_handle(bad).is_err(), "{bad:?} accepted");
        }
        assert!(validate_handle("pub-0123abcd").is_ok());
    }

    #[test]
    fn site_roster_has_no_duplicates() {
        let set: std::collections::BTreeSet<_> = site::VFS_SITES.iter().collect();
        assert_eq!(set.len(), site::VFS_SITES.len());
        assert!(!set.contains(&site::MANIFEST_WRITE_TMP));
    }
}
