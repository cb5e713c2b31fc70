//! The workloads' fixed shapes, the inputs generated from the seed, and
//! the prepared data directory every run starts from.

use betalike_conformance::verify_snapshot;
use betalike_microdata::Table;
use betalike_query::{generate_workload, AggQuery, WorkloadConfig};
use betalike_server::{persist, Algo, CountRequest, DatasetSpec, PublishRequest, Registry};
use betalike_store::ArtifactStore;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Rows of the prepared BUREL artifact every count targets.
pub const PREPARED_ROWS: usize = 200_000;
/// Rows of each dataset a publish generates.
pub const PUBLISH_ROWS: usize = 50_000;
/// Distinct queries the `count_hot` requests are drawn from.
pub const HOT_SET: usize = 64;
/// Length of the distinct-query stream before it wraps (far above the
/// server's 1024-entry result cache).
pub const STREAM_LEN: usize = 1 << 16;
/// Publishes a count workload sends, one after another, once its count
/// window has closed.
pub const PROBE_PUBLISHES: usize = 40;
/// Publishes `publish_mix` paces across its window.
pub const MIX_PUBLISHES: usize = 80;
/// The schemes publishes rotate through.
pub const SCHEMES: [Algo; 5] = [
    Algo::Burel,
    Algo::Perturb,
    Algo::Sabre,
    Algo::Mondrian,
    Algo::Anatomy,
];
/// Untimed load before each window, so caches and the allocator settle.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Count phases of a window (see `drive` in main.rs).
pub const SLICES: usize = 20;
/// Servers started per run to time set-up (the last one serves the run).
pub const SETUP_SPAWNS: usize = 7;
/// Count requests the traced replay re-runs layer by layer.
pub const REPLAY_COUNTS: usize = 2_000;
/// Sampled count answers per run checked against the scan path.
pub const CHECKED_SAMPLES: usize = 48;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct generalized counts: the catalog walk dominates.
    CountGeneralized,
    /// A warmed 64-query set: the result cache answers.
    CountHot,
    /// Paced publishes beside one reader of distinct counts.
    PublishMix,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "count_generalized" => Some(Workload::CountGeneralized),
            "count_hot" => Some(Workload::CountHot),
            "publish_mix" => Some(Workload::PublishMix),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CountGeneralized => "count_generalized",
            Workload::CountHot => "count_hot",
            Workload::PublishMix => "publish_mix",
        }
    }

    /// Closed-loop count connections.
    pub fn count_conns(self) -> usize {
        match self {
            Workload::CountGeneralized | Workload::CountHot => 2,
            Workload::PublishMix => 1,
        }
    }

    /// Publishes per run.
    pub fn publishes(self) -> usize {
        match self {
            Workload::CountGeneralized | Workload::CountHot => PROBE_PUBLISHES,
            Workload::PublishMix => MIX_PUBLISHES,
        }
    }
}

/// The prepared artifact: BUREL over census 200k rows, qi = 3, β = 4.
pub fn prepared_request() -> PublishRequest {
    PublishRequest::new(
        DatasetSpec::Census {
            rows: PREPARED_ROWS,
            seed: 42,
        },
        Algo::Burel,
    )
}

/// The count request line for `query` against `handle`.
pub fn count_line(handle: &str, query: &AggQuery) -> String {
    CountRequest {
        handle: handle.to_string(),
        qi_preds: query.qi_preds.clone(),
        sa_lo: query.sa_pred.lo,
        sa_hi: query.sa_pred.hi,
        exact: false,
    }
    .to_json()
    .compact()
}

/// Up to `n` distinct λ = 2, θ = 0.1 queries over QI pool 0..3, none
/// equal to a query in `exclude` (compared by request line).
pub fn distinct_queries(
    table: &Table,
    sa: usize,
    handle: &str,
    seed: u64,
    n: usize,
    exclude: &[AggQuery],
) -> Vec<AggQuery> {
    let cfg = WorkloadConfig {
        qi_pool: vec![0, 1, 2],
        sa,
        lambda: 2,
        theta: 0.1,
        num_queries: n,
        seed,
    };
    let mut seen: HashSet<String> = exclude.iter().map(|q| count_line(handle, q)).collect();
    generate_workload(table, &cfg)
        .into_iter()
        .filter(|q| seen.insert(count_line(handle, q)))
        .collect()
}

/// The fixed query a freshly started server must answer to end set-up.
pub fn setup_query(table: &Table, sa: usize, handle: &str) -> AggQuery {
    distinct_queries(table, sa, handle, 0x5e7u64, 1, &[])
        .pop()
        .expect("one generated query")
}

/// The `n` publishes of a run: fresh census datasets whose seeds come
/// from the workload seed, rotating through [`SCHEMES`].
pub fn publish_requests(seed: u64, n: usize) -> Vec<PublishRequest> {
    (0..n)
        .map(|i| {
            PublishRequest {
                dataset: DatasetSpec::Census {
                    rows: PUBLISH_ROWS,
                    // Below 2^53, so the seed survives the JSON wire.
                    seed: 1_000_000 + (seed % 1_000_000_000) * 1_000 + i as u64,
                },
                algo: SCHEMES[i % SCHEMES.len()],
                qi: 3,
                beta: 4.0,
                t: 0.2,
                seed: 42,
            }
            .normalized()
        })
        .collect()
}

/// The prepared data directory under `work`, built (untimed) on first use
/// and reused while its marker names the same artifact.
pub fn prepare(work: &Path) -> Result<PathBuf, String> {
    let dir = work.join("prepared");
    let marker = dir.join("READY");
    let request = prepared_request();
    if std::fs::read_to_string(&marker).ok().as_deref() == Some(request.canonical().as_str()) {
        return Ok(dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let artifact = betalike_server::artifact::Artifact::publish(&Registry::new(), &request)?;
    let snap = persist::snapshot(&artifact);
    let report = verify_snapshot(&snap);
    if !report.pass() {
        return Err(format!(
            "prepared artifact fails the conformance oracle: {}",
            report.to_json().compact()
        ));
    }
    let (store, _) =
        ArtifactStore::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    store
        .save(&snap)
        .map_err(|e| format!("save prepared artifact: {e}"))?;
    std::fs::write(&marker, request.canonical()).map_err(|e| format!("write marker: {e}"))?;
    Ok(dir)
}

/// Copies a data directory (the prepared state) to `dst`, replacing it.
pub fn copy_data_dir(src: &Path, dst: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dst);
    copy_tree(src, dst).map_err(|e| format!("copy {} to {}: {e}", src.display(), dst.display()))
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else if entry.file_name() != "READY" {
            std::fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}

/// Bytes under a data directory (artifacts, MANIFEST, quarantine).
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        total += if entry.file_type()?.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(total)
}
