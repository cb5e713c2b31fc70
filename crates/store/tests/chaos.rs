//! Chaos-Vfs regression tests for the artifact store.
//!
//! The headline regression: a *transient* read error while `open` checks
//! an artifact must NOT quarantine the file (the bytes may be fine —
//! moving them aside can bury the only healthy copy). Only a file that
//! reads and fails its checks is quarantined; a file that vanished
//! between the scan and the read is skipped; anything else aborts the
//! open for the caller to retry.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use betalike_faults::{ChaosVfs, FaultPlan, RealVfs};
use betalike_microdata::synthetic::{random_table, SyntheticConfig};
use betalike_store::bpub::{FormSnapshot, PubParams};
use betalike_store::disk::{site, DEGRADED_AFTER, QUARANTINE_DIR};
use betalike_store::{ArtifactStore, PublicationSnapshot};

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("betalike-store-chaos-{}-{tag}", std::process::id()));
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

fn seeded_store(root: &PathBuf, handles: &[&str]) {
    let (store, _) = ArtifactStore::open(root).unwrap();
    for h in handles {
        store.save(&snapshot(h)).unwrap();
    }
}

#[test]
fn transient_read_error_on_open_does_not_quarantine() {
    let root = temp_root("transient");
    seeded_store(&root, &["pub-healthy"]);

    // A permission error (disk hiccup, stolen fd, …) while verifying the
    // entry: open must FAIL, not judge the file.
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::FailSite {
        site: site::OPEN_READ_ARTIFACT,
        nth: 0,
        kind: io::ErrorKind::PermissionDenied,
    }));
    let err = ArtifactStore::open_with(&root, chaos).unwrap_err();
    assert!(
        err.to_string().contains("injected fault"),
        "open should surface the transient error, got: {err}"
    );

    // The file was not touched: a clean reopen still serves it.
    let q: Vec<_> = std::fs::read_dir(root.join(QUARANTINE_DIR))
        .unwrap()
        .collect();
    assert!(q.is_empty(), "transient error must not move files aside");
    let (store, quarantined) = ArtifactStore::open(&root).unwrap();
    assert!(quarantined.is_empty());
    assert!(store.load("pub-healthy").unwrap().is_some());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn interrupted_read_on_open_is_retried_transparently() {
    let root = temp_root("interrupted");
    seeded_store(&root, &["pub-healthy"]);

    // EINTR on the first verify read: the store retries and the open
    // succeeds with nothing quarantined.
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::FailSite {
        site: site::OPEN_READ_ARTIFACT,
        nth: 0,
        kind: io::ErrorKind::Interrupted,
    }));
    let (store, quarantined) = ArtifactStore::open_with(&root, chaos).unwrap();
    assert!(quarantined.is_empty());
    assert!(store.load("pub-healthy").unwrap().is_some());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn transient_orphan_read_error_aborts_open_without_quarantine() {
    let root = temp_root("orphan-transient");
    seeded_store(&root, &["pub-listed", "pub-orphan"]);
    // A legacy data directory whose MANIFEST never learned of `pub-orphan`
    // (a crash between the artifact rename and the manifest write). The
    // directory scan is the index now, so the orphan is read like any
    // other artifact — and a transient error on that read must abort the
    // open, not quarantine the file.
    let manifest = "{\n  \"version\": 1,\n  \"artifacts\": []\n}\n";
    std::fs::write(root.join("MANIFEST"), manifest).unwrap();

    // Reads go in sorted order: `pub-listed` first, then `pub-orphan`.
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::FailSite {
        site: site::OPEN_READ_ARTIFACT,
        nth: 1,
        kind: io::ErrorKind::PermissionDenied,
    }));
    assert!(ArtifactStore::open_with(&root, chaos).is_err());
    let q: Vec<_> = std::fs::read_dir(root.join(QUARANTINE_DIR))
        .unwrap()
        .collect();
    assert!(q.is_empty());
    assert_eq!(
        std::fs::read_to_string(root.join("MANIFEST")).unwrap(),
        manifest
    );
    // Clean reopen serves the orphan.
    let (store, quarantined) = ArtifactStore::open(&root).unwrap();
    assert!(quarantined.is_empty());
    assert!(store.load("pub-orphan").unwrap().is_some());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn file_vanishing_during_open_is_skipped_without_quarantine() {
    let root = temp_root("vanished");
    seeded_store(&root, &["pub-gone", "pub-kept"]);

    // The scan lists both files; the first read (`pub-gone`, in sorted
    // order) finds it removed underneath. Nothing to judge, nothing to
    // move: the open serves the rest.
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::FailSite {
        site: site::OPEN_READ_ARTIFACT,
        nth: 0,
        kind: io::ErrorKind::NotFound,
    }));
    let (store, quarantined) = ArtifactStore::open_with(&root, chaos).unwrap();
    assert!(quarantined.is_empty());
    assert_eq!(store.handles(), vec!["pub-kept".to_string()]);
    let q: Vec<_> = std::fs::read_dir(root.join(QUARANTINE_DIR))
        .unwrap()
        .collect();
    assert!(q.is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quarantine_rename_failure_falls_back_to_copy_and_remove() {
    let root = temp_root("fallback");
    seeded_store(&root, &["pub-torn"]);
    // Corrupt the file so open wants to quarantine it.
    let path = root.join("artifacts").join("pub-torn.bpub");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let chaos = Arc::new(ChaosVfs::new(FaultPlan::FailSite {
        site: site::QUARANTINE_RENAME,
        nth: 0,
        kind: io::ErrorKind::InvalidInput,
    }));
    let (store, quarantined) = ArtifactStore::open_with(&root, chaos.clone()).unwrap();
    assert_eq!(quarantined, vec!["pub-torn".to_string()]);
    assert!(store.is_empty());
    assert!(
        !path.exists(),
        "fallback copy+remove must still evict the damaged file"
    );
    assert!(root.join(QUARANTINE_DIR).join("pub-torn.bpub").exists());
    let seen = chaos.sites_seen();
    assert!(seen.contains(site::QUARANTINE_FALLBACK_COPY));
    assert!(seen.contains(site::QUARANTINE_FALLBACK_REMOVE));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn consecutive_save_failures_trip_degraded_and_success_resets() {
    let root = temp_root("degraded");
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
    let (store, _) = ArtifactStore::open_with(&root, chaos.clone()).unwrap();
    store.save(&snapshot("pub-first")).unwrap();
    assert!(!store.degraded());

    chaos.set_plan(FaultPlan::FailWrites);
    for i in 0..DEGRADED_AFTER {
        assert!(!store.degraded(), "tripped early at failure {i}");
        assert!(store.save(&snapshot(&format!("pub-fail{i}"))).is_err());
    }
    assert!(store.degraded());
    assert_eq!(store.write_failures(), DEGRADED_AFTER);

    // Reads keep working in degraded mode.
    assert!(store.load("pub-first").unwrap().is_some());

    // The disk comes back: one good save clears the state.
    chaos.set_plan(FaultPlan::None);
    store.save(&snapshot("pub-recovered")).unwrap();
    assert!(!store.degraded());
    assert_eq!(store.write_failures(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn probe_detects_recovery_and_clears_degraded() {
    let root = temp_root("probe");
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
    let (store, _) = ArtifactStore::open_with(&root, chaos.clone()).unwrap();

    chaos.set_plan(FaultPlan::FailWrites);
    for i in 0..DEGRADED_AFTER {
        assert!(store.save(&snapshot(&format!("pub-fail{i}"))).is_err());
    }
    assert!(store.degraded());

    // While the disk is broken the probe fails and changes nothing.
    assert!(store.probe().is_err());
    assert!(store.degraded());

    // Disk recovers: one probe clears the state, no artifact risked, and
    // no probe file left behind.
    chaos.set_plan(FaultPlan::None);
    store.probe().unwrap();
    assert!(!store.degraded());
    assert_eq!(store.write_failures(), 0);
    assert!(!root.join("artifacts").join(".probe.tmp").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn failed_save_leaves_prior_state_intact() {
    let root = temp_root("failed-save");
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
    let (store, _) = ArtifactStore::open_with(&root, chaos.clone()).unwrap();
    store.save(&snapshot("pub-kept")).unwrap();

    // Occurrence counting is since ChaosVfs creation: the save of
    // `pub-kept` already used `save.rename` once, so fail the next one.
    chaos.set_plan(FaultPlan::FailSite {
        site: site::SAVE_RENAME,
        nth: 1,
        kind: io::ErrorKind::WriteZero,
    });
    assert!(store.save(&snapshot("pub-lost")).is_err());
    chaos.set_plan(FaultPlan::None);

    drop(store);
    let (store, quarantined) = ArtifactStore::open_with(&root, Arc::new(RealVfs)).unwrap();
    assert!(quarantined.is_empty());
    assert_eq!(store.handles(), vec!["pub-kept".to_string()]);
    assert!(store.load("pub-kept").unwrap().is_some());
    let _ = std::fs::remove_dir_all(&root);
}
