//! Answer checks. A wrong answer fails the run; it is never an error.

use betalike_conformance::verify_snapshot;
use betalike_microdata::json::Json;
use betalike_query::{AggQuery, PublishedAnswerer};
use betalike_store::ArtifactStore;
use std::path::Path;

/// The `estimate` member of a count response line.
pub fn estimate_of(line: &str) -> Option<f64> {
    Json::parse(line).ok()?.get("estimate")?.as_f64()
}

/// Compares served answers with the scan path, which uses neither the
/// catalog nor the result cache, to the f64 bit. Returns one message per
/// mismatch.
pub fn against_scan(
    scan: &PublishedAnswerer,
    queries: &[AggQuery],
    answers: &[(u32, String)],
) -> Vec<String> {
    let mut out = Vec::new();
    for (index, line) in answers {
        let query = &queries[*index as usize];
        let served = estimate_of(line);
        match scan.estimate_scan(query) {
            Ok(want) if served.map(f64::to_bits) == Some(want.to_bits()) => {}
            Ok(want) => out.push(format!(
                "query {index}: served `{line}`, scan path {want:?}"
            )),
            Err(e) => out.push(format!("query {index}: scan path failed: {e}")),
        }
    }
    out
}

/// Runs the conformance oracle over every artifact stored under `dir`.
/// Returns how many passed and one message per failure.
pub fn verify_store(dir: &Path) -> Result<(usize, Vec<String>), String> {
    let (store, quarantined) =
        ArtifactStore::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let mut failures: Vec<String> = quarantined
        .into_iter()
        .map(|h| format!("stored artifact {h} was quarantined on open"))
        .collect();
    let mut passed = 0;
    for handle in store.handles() {
        match store.load(&handle) {
            Ok(Some(snap)) if verify_snapshot(&snap).pass() => passed += 1,
            Ok(Some(_)) => failures.push(format!(
                "stored artifact {handle} fails the conformance oracle"
            )),
            Ok(None) => failures.push(format!("stored artifact {handle} vanished")),
            Err(e) => failures.push(format!("stored artifact {handle} does not load: {e}")),
        }
    }
    Ok((passed, failures))
}
