//! The analyzer against the real workspace: clean with the committed
//! baseline, and demonstrably *not* clean the moment any suppression or
//! baseline entry is deleted — the acceptance checks, as tests.

use lint::engine::{load_unsafe_whitelist, Baseline, Workspace};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a grandparent")
        .to_path_buf()
}

fn real_findings() -> Vec<lint::rules::Finding> {
    let root = repo_root();
    let whitelist = load_unsafe_whitelist(&root).expect("whitelist readable");
    Workspace::scan_root(&root)
        .expect("workspace scannable")
        .run(&whitelist)
}

#[test]
fn workspace_is_clean_under_the_committed_baseline() {
    let root = repo_root();
    let baseline = Baseline::load(&root.join("crates/lint/baseline.tsv")).expect("baseline parses");
    let findings = baseline.apply(real_findings());
    assert!(
        findings.is_empty(),
        "betalike-lint found new violations:\n{}",
        findings
            .iter()
            .map(|f| format!("{}:{}:{}: {}: {}", f.path, f.line, f.col, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_suppression_in_the_tree_is_live() {
    // The clean run above already implies no S1/S2 — this pins the raw
    // (pre-baseline) findings too, since S1/S2 can never be baselined.
    let raw = real_findings();
    assert!(
        !raw.iter().any(|f| f.rule == "S1" || f.rule == "S2"),
        "suppression hygiene findings: {raw:?}"
    );
}

#[test]
fn deleting_a_suppression_resurfaces_its_finding_with_rule_and_span() {
    // Strip each committed inline suppression in turn; the run must then
    // fail with the suppressed rule at the suppressed site.
    let root = repo_root();
    let suppressed = [
        ("crates/server/src/artifact.rs", "P1"),
        ("crates/server/src/persist.rs", "P1"),
    ];
    for (path, rule) in suppressed {
        let text = std::fs::read_to_string(root.join(path)).expect("readable");
        assert!(
            text.contains("betalike-lint:"),
            "{path}: suppression vanished"
        );
        let stripped: String = text
            .lines()
            .filter(|l| !l.contains("betalike-lint:"))
            .map(|l| format!("{l}\n"))
            .collect();
        let mut ws = Workspace::from_files(vec![(path.to_string(), stripped)]);
        let findings = ws.run(&Default::default());
        let hit = findings.iter().find(|f| f.rule == rule).unwrap_or_else(|| {
            panic!("{path}: deleting the allow-comment did not resurface {rule}")
        });
        assert!(
            hit.line > 0 && hit.col > 0,
            "finding must carry a span: {hit:?}"
        );
    }
}

#[test]
fn shrinking_the_baseline_resurfaces_the_grandfathered_finding() {
    let root = repo_root();
    let text =
        std::fs::read_to_string(root.join("crates/lint/baseline.tsv")).expect("baseline readable");
    let entries: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    assert!(!entries.is_empty(), "baseline unexpectedly empty");
    // Drop each entry in turn: exactly that entry's findings must surface,
    // naming the rule.
    for dropped in &entries {
        let shrunk: String = entries
            .iter()
            .filter(|l| l != &dropped)
            .map(|l| format!("{l}\n"))
            .collect();
        let baseline = Baseline::parse(&shrunk).expect("shrunk baseline parses");
        let findings = baseline.apply(real_findings());
        let rule = dropped.split('\t').next().expect("rule column");
        assert!(
            findings.iter().any(|f| f.rule == rule && f.line > 0),
            "dropping `{dropped}` did not resurface a {rule} finding"
        );
    }
}

#[test]
fn removing_a_scheme_from_the_battery_fails_x2() {
    // The acceptance fixture against the *real* wire.rs and battery.rs:
    // erase `sabre` from the battery and X2 must name it.
    let root = repo_root();
    let wire = std::fs::read_to_string(root.join("crates/server/src/wire.rs")).expect("wire.rs");
    let battery = std::fs::read_to_string(root.join("crates/conformance/src/battery.rs"))
        .expect("battery.rs");
    assert!(battery.contains("sabre"), "battery no longer names sabre");
    let mut ws = Workspace::from_files(vec![
        ("crates/server/src/wire.rs".to_string(), wire),
        (
            "crates/conformance/src/battery.rs".to_string(),
            battery.replace("sabre", "sabrx"),
        ),
    ]);
    let findings = ws.run(&Default::default());
    let hit = findings
        .iter()
        .find(|f| f.rule == "X2" && f.message.contains("`sabre`"))
        .expect("X2 must fire when the battery loses a scheme");
    assert_eq!(hit.path, "crates/conformance/src/battery.rs");
}

#[test]
fn the_unsafe_whitelist_is_empty_and_every_crate_forbids_unsafe() {
    let root = repo_root();
    let whitelist = load_unsafe_whitelist(&root).expect("whitelist readable");
    // No file may contain `unsafe`; a new exception must be argued in
    // DESIGN.md §11 and reflected in this test.
    assert!(
        whitelist.is_empty(),
        "the unsafe whitelist gained {whitelist:?}; reflect that here and in DESIGN.md §11"
    );
    // Every crate root, vendored ones included, backstops the empty list
    // with `forbid`, which no inner attribute can override.
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("crate directory") {
            let lib = entry.expect("entry").path().join("src/lib.rs");
            let text = std::fs::read_to_string(&lib).expect("lib.rs readable");
            assert!(
                text.contains("#![forbid(unsafe_code)]"),
                "{} does not forbid unsafe_code",
                lib.display()
            );
        }
    }
}
