//! The crash-point torture suite: kill the artifact store at **every**
//! Vfs injection site and prove the durability claims.
//!
//! For each global op index of a golden (fault-free) workload run, a fresh
//! fixture store is driven through the same workload with
//! [`FaultPlan::CrashAt`] at that index, then reopened on the real
//! filesystem. Invariants, for every crash point:
//!
//! * the reopen succeeds — no crash leaves the directory unopenable;
//! * every *committed* artifact (save acknowledged `Ok`, never removed)
//!   loads, is bit-identical to its expected serialization, and passes
//!   the independent conformance oracle;
//! * an acknowledged remove stays removed;
//! * everything the reopened store serves is bit-identical to a known
//!   artifact (a crash can lose an unacknowledged save, never mutate one);
//! * every file in `quarantine/` is genuinely damaged — parse failure,
//!   handle mismatch, or bytes differing from the known-good serialization.
//!
//! Coverage is enumerable the same way `AttackKind::ALL` is: the union of
//! site labels observed across all runs must equal
//! `betalike_store::disk::site::VFS_SITES`, both directions — so routing a
//! new syscall through a site this suite never reaches (or bypassing the
//! roster) fails the suite.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use betalike_conformance::{publish_snapshot, verify_snapshot, PublishSpec, Scheme};
use betalike_faults::{ChaosVfs, FaultPlan, Vfs, VfsOp};
use betalike_microdata::json::Json;
use betalike_store::disk::{site, ARTIFACTS_DIR, QUARANTINE_DIR};
use betalike_store::{
    publication_from_slice, publication_to_vec, ArtifactStore, PublicationSnapshot,
};

struct Fixture {
    /// Saved before the workload — always committed.
    base: PublicationSnapshot,
    /// Saved by the workload.
    a: PublicationSnapshot,
    /// Saved by the workload after `a`.
    b: PublicationSnapshot,
    /// Saved, then byte-flipped on disk — must always end up quarantined
    /// or dropped, never served.
    corrupt: PublicationSnapshot,
    /// Present as a `.bpub` the legacy `MANIFEST` does not list — served
    /// on open, then removed by the workload.
    unlisted: PublicationSnapshot,
    /// handle → known-good serialized bytes, for bit-identity checks.
    expected: BTreeMap<String, Vec<u8>>,
}

impl Fixture {
    fn build() -> Fixture {
        let mk = |seed: u64, scheme: Scheme, rows: usize| {
            let spec = PublishSpec::synthetic(rows, seed, scheme);
            let table = spec.synthetic_table();
            publish_snapshot(&table, &spec).expect("fixture publish")
        };
        let base = mk(11, Scheme::Anatomy, 48);
        let a = mk(12, Scheme::Perturb, 48);
        let b = mk(13, Scheme::Anatomy, 60);
        let corrupt = mk(14, Scheme::Anatomy, 48);
        let unlisted = mk(15, Scheme::Anatomy, 48);
        let mut expected = BTreeMap::new();
        for snap in [&base, &a, &b, &corrupt, &unlisted] {
            expected.insert(
                snap.params.handle.clone(),
                publication_to_vec(snap).expect("fixture serialize"),
            );
        }
        let handles: BTreeSet<&String> = expected.keys().collect();
        assert_eq!(handles.len(), 5, "fixture handles must be distinct");
        Fixture {
            base,
            a,
            b,
            corrupt,
            unlisted,
            expected,
        }
    }
}

/// A `MANIFEST` as older builds wrote it. Its one row names a handle
/// that is not in the directory; the store must neither read it nor
/// touch it.
const LEGACY_MANIFEST: &str = "{\n  \"version\": 1,\n  \"artifacts\": [\n    {\"handle\": \
                               \"pub-listed-but-gone\", \"canonical\": \"x\", \
                               \"checksum\": \"0000000000000000\", \"bytes\": 0}\n  ]\n}\n";

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("betalike-torture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Lay down the pre-workload state on the real filesystem, shaped like a
/// data directory an older build left behind: a committed base artifact,
/// a byte-flipped artifact, a `.bpub` its legacy `MANIFEST` does not list,
/// the `MANIFEST` itself, and a stale tempfile.
fn setup_dir(fx: &Fixture, tag: &str) -> PathBuf {
    let root = temp_root(tag);
    let (store, quarantined) = ArtifactStore::open(&root).expect("fixture open");
    assert!(quarantined.is_empty());
    store.save(&fx.base).expect("fixture save base");
    store.save(&fx.corrupt).expect("fixture save corrupt");
    drop(store);
    let artifacts = root.join(ARTIFACTS_DIR);
    // Byte-flip the to-be-quarantined artifact mid-file.
    let corrupt_path = artifacts.join(format!("{}.bpub", fx.corrupt.params.handle));
    let mut bytes = std::fs::read(&corrupt_path).expect("read corrupt fixture");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&corrupt_path, &bytes).expect("write corrupt fixture");
    // A valid artifact the legacy manifest never learned of (the crash
    // window between artifact rename and manifest rewrite in older
    // builds), and that manifest, which the store must ignore.
    std::fs::write(
        artifacts.join(format!("{}.bpub", fx.unlisted.params.handle)),
        &fx.expected[&fx.unlisted.params.handle],
    )
    .expect("write unlisted fixture");
    std::fs::write(root.join("MANIFEST"), LEGACY_MANIFEST).expect("write legacy manifest");
    // Stale tempfile from an interrupted write.
    std::fs::write(artifacts.join("junk.tmp"), b"stale").expect("write junk.tmp");
    root
}

struct Outcome {
    /// Handles whose presence (and bit-identity) the reopen must prove.
    committed: BTreeSet<String>,
    /// The remove of the unlisted artifact was acknowledged — it must
    /// stay gone.
    removed_unlisted: bool,
}

/// The workload every run (golden, crash, seeded) drives: open, two
/// saves, a read, a remove, a read. Errors are swallowed — under a crash
/// plan everything past the crash point fails — but acknowledgements are
/// tracked, because acknowledged work is what recovery must preserve.
fn workload(root: &Path, vfs: Arc<dyn Vfs>, fx: &Fixture) -> Outcome {
    let mut committed: BTreeSet<String> = BTreeSet::new();
    committed.insert(fx.base.params.handle.clone());
    let mut removed_unlisted = false;
    if let Ok((store, _)) = ArtifactStore::open_with(root, vfs) {
        if store.save(&fx.a).is_ok() {
            committed.insert(fx.a.params.handle.clone());
        }
        if store.save(&fx.b).is_ok() {
            committed.insert(fx.b.params.handle.clone());
        }
        let _ = store.load(&fx.base.params.handle);
        if let Ok(true) = store.remove(&fx.unlisted.params.handle) {
            removed_unlisted = true;
        }
        let _ = store.load(&fx.a.params.handle);
        // Exercise the degraded-recovery probe sites (probe.write /
        // probe.remove); a crash mid-probe must never cost an artifact.
        let _ = store.probe();
    }
    Outcome {
        committed,
        removed_unlisted,
    }
}

/// The handle a quarantine file name points at (`h.bpub`, `h.bpub.3` →
/// `h`).
fn quarantine_stem(name: &str) -> String {
    match name.find(".bpub") {
        Some(i) => name[..i].to_string(),
        None => name.to_string(),
    }
}

/// Reopen on the real filesystem and check every recovery invariant.
fn assert_recovered(root: &Path, fx: &Fixture, out: &Outcome, ctx: &str) {
    let (store, _quarantined) =
        ArtifactStore::open(root).unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    let served: BTreeSet<String> = store.handles().into_iter().collect();
    assert_eq!(
        std::fs::read_to_string(root.join("MANIFEST")).expect("read legacy manifest"),
        LEGACY_MANIFEST,
        "{ctx}: the legacy manifest must be left alone"
    );

    for handle in &out.committed {
        let snap = store
            .load(handle)
            .unwrap_or_else(|e| panic!("{ctx}: committed `{handle}` unreadable: {e}"))
            .unwrap_or_else(|| panic!("{ctx}: committed `{handle}` lost"));
        let on_disk = std::fs::read(store.path_of(handle)).expect("read served artifact");
        assert_eq!(
            on_disk, fx.expected[handle],
            "{ctx}: committed `{handle}` not bit-identical"
        );
        let report = verify_snapshot(&snap);
        assert!(
            report.pass(),
            "{ctx}: committed `{handle}` fails the conformance oracle"
        );
    }

    assert!(
        !served.contains(&fx.corrupt.params.handle),
        "{ctx}: byte-flipped artifact must never be served"
    );
    if out.removed_unlisted {
        assert!(
            !served.contains(&fx.unlisted.params.handle),
            "{ctx}: acknowledged remove came back"
        );
    }

    // Anything served must be one of our artifacts, bit-identical: a
    // crash may lose unacknowledged work, never corrupt served bytes.
    for handle in &served {
        let bytes = std::fs::read(store.path_of(handle)).expect("read served artifact");
        let expected = fx
            .expected
            .get(handle)
            .unwrap_or_else(|| panic!("{ctx}: unknown handle `{handle}` served"));
        assert_eq!(&bytes, expected, "{ctx}: served `{handle}` mutated");
    }

    // Quarantine only holds genuinely damaged files.
    for path in std::fs::read_dir(root.join(QUARANTINE_DIR))
        .expect("list quarantine")
        .map(|e| e.expect("quarantine entry").path())
    {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("quarantine file name")
            .to_string();
        let handle = quarantine_stem(&name);
        let bytes = std::fs::read(&path).expect("read quarantined file");
        let genuine = match publication_from_slice(&bytes) {
            Err(_) => true,
            Ok(snap) => {
                snap.params.handle != handle
                    || fx.expected.get(&handle).is_some_and(|want| want != &bytes)
            }
        };
        assert!(genuine, "{ctx}: healthy file `{name}` wrongly quarantined");
    }
}

fn site_names(seen: &BTreeSet<&'static str>) -> BTreeSet<String> {
    seen.iter().map(|s| s.to_string()).collect()
}

#[test]
fn crash_matrix_covers_every_site_and_preserves_committed_artifacts() {
    let fx = Fixture::build();

    // Golden run: no faults, record the op schedule and baseline coverage.
    let golden_root = setup_dir(&fx, "golden");
    let golden = Arc::new(ChaosVfs::new(FaultPlan::None));
    let out = workload(&golden_root, golden.clone(), &fx);
    assert_eq!(out.committed.len(), 3, "golden run must commit base+a+b");
    assert!(
        out.removed_unlisted,
        "golden run must remove the unlisted artifact"
    );
    assert_recovered(&golden_root, &fx, &out, "golden");
    let golden_ops = golden.ops();
    assert!(
        golden_ops >= site::VFS_SITES.len() as u64,
        "golden run too small to exercise the site roster"
    );
    let mut seen: BTreeSet<&'static str> = golden.sites_seen();
    let _ = std::fs::remove_dir_all(&golden_root);

    // Crash matrix: one run per golden op index.
    let mut crash_sites: Vec<String> = Vec::new();
    for k in 0..golden_ops {
        let root = setup_dir(&fx, &format!("crash-{k}"));
        let chaos = Arc::new(ChaosVfs::new(FaultPlan::CrashAt(k)));
        let out = workload(&root, chaos.clone(), &fx);
        assert!(chaos.crashed(), "crash point {k} never fired");
        let crashed_at = chaos
            .log()
            .iter()
            .find(|r| r.index == k)
            .map(|r| r.site)
            .expect("crash op recorded");
        crash_sites.push(format!("{k}:{crashed_at}"));
        seen.extend(chaos.sites_seen());
        assert_recovered(&root, &fx, &out, &format!("crash@{k} ({crashed_at})"));
        let _ = std::fs::remove_dir_all(&root);
    }

    // Targeted run: force the quarantine rename to fail so the
    // cross-filesystem fallback (copy + remove) sites are exercised too.
    let root = setup_dir(&fx, "fallback");
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::FailSite {
        site: site::QUARANTINE_RENAME,
        nth: 0,
        kind: io::ErrorKind::InvalidInput,
    }));
    let out = workload(&root, chaos.clone(), &fx);
    seen.extend(chaos.sites_seen());
    assert_recovered(&root, &fx, &out, "quarantine-fallback");
    let _ = std::fs::remove_dir_all(&root);

    // Site coverage, both directions — mirrors `AttackKind::ALL`.
    let seen_names = site_names(&seen);
    let roster: BTreeSet<String> = site::VFS_SITES.iter().map(|s| s.to_string()).collect();
    let unobserved: Vec<&String> = roster.difference(&seen_names).collect();
    assert!(
        unobserved.is_empty(),
        "sites in VFS_SITES the torture suite never reached: {unobserved:?}"
    );
    let unlisted: Vec<&String> = seen_names.difference(&roster).collect();
    assert!(
        unlisted.is_empty(),
        "observed sites missing from VFS_SITES: {unlisted:?}"
    );

    // Machine-readable report for the CI artifact upload.
    let report = Json::Obj(vec![
        ("suite".into(), Json::Str("crash-point torture".into())),
        ("golden_ops".into(), Json::Num(golden_ops as f64)),
        ("crash_points".into(), Json::Num(crash_sites.len() as f64)),
        (
            "sites_covered".into(),
            Json::Arr(
                seen_names
                    .intersection(&roster)
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        ),
        (
            "crash_schedule".into(),
            Json::Arr(crash_sites.into_iter().map(Json::Str).collect()),
        ),
        ("pass".into(), Json::Bool(true)),
    ]);
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&out_dir);
    std::fs::write(out_dir.join("torture-report.json"), report.pretty() + "\n")
        .expect("write torture report");
}

#[test]
fn seeded_schedules_are_replayable_and_recoverable() {
    let fx = Fixture::build();
    let run = |seed: u64, tag: &str| {
        let root = setup_dir(&fx, tag);
        let chaos = Arc::new(ChaosVfs::new(FaultPlan::Seeded {
            seed,
            fail_per_mille: 120,
        }));
        let out = workload(&root, chaos.clone(), &fx);
        assert_recovered(&root, &fx, &out, &format!("seeded#{seed}"));
        let log: Vec<(u64, &'static str, VfsOp, bool)> = chaos
            .log()
            .iter()
            .map(|r| (r.index, r.site, r.op, r.ok))
            .collect();
        let _ = std::fs::remove_dir_all(&root);
        log
    };
    let a = run(1001, "seeded-a1");
    let b = run(1001, "seeded-a2");
    assert_eq!(a, b, "same seed must replay the same schedule");
    let c = run(2002, "seeded-b1");
    assert_ne!(a, c, "different seeds should diverge");
}
