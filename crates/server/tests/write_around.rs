//! Write-around with a data directory: a fresh publish leaves the cache
//! once the store has indexed it, and only the newest save stays in
//! memory until the next one replaces it. After that its first `count`,
//! `audit`, `verify` or republish reloads it — answering byte for byte
//! what a store-less server, which keeps every artifact resident,
//! answers. Without a durable copy (a failed save) the artifact stays
//! resident.

use betalike_faults::{ChaosVfs, FaultPlan};
use betalike_microdata::json::Json;
use betalike_server::{Algo, CountRequest, DatasetSpec, LocalServer, PublishRequest, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALGOS: [Algo; 5] = [
    Algo::Burel,
    Algo::Sabre,
    Algo::Mondrian,
    Algo::Anatomy,
    Algo::Perturb,
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "betalike-write-around-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn local(data_dir: Option<&PathBuf>) -> LocalServer {
    LocalServer::new(&ServerConfig {
        data_dir: data_dir.cloned(),
        ..Default::default()
    })
    .expect("local server")
}

fn call(server: &LocalServer, line: &str) -> Json {
    let (response, _) = server.respond_line(line);
    Json::parse(&response).unwrap_or_else(|e| panic!("`{response}`: {e}"))
}

fn op(name: &str) -> String {
    format!(r#"{{"op":"{name}"}}"#)
}

fn publish_line(spec: DatasetSpec, algo: Algo) -> String {
    PublishRequest::new(spec, algo).to_json().compact()
}

fn census(seed: u64) -> DatasetSpec {
    DatasetSpec::Census { rows: 1_200, seed }
}

fn resident(server: &LocalServer) -> u64 {
    let health = call(server, &op("health"));
    health
        .get("artifacts")
        .and_then(Json::as_u64)
        .expect("artifacts")
}

fn restores(server: &LocalServer) -> f64 {
    let metrics = call(server, &op("metrics"));
    let hist = metrics.get("histograms").and_then(|h| h.get("restore_ns"));
    hist.and_then(|h| h.get("count"))
        .and_then(Json::as_f64)
        .expect("restore_ns")
}

fn strings(doc: &Json, key: &str) -> Vec<String> {
    let items = doc.get(key).and_then(Json::as_arr).expect(key);
    items
        .iter()
        .map(|x| x.as_str().expect("string").to_string())
        .collect()
}

/// Every read of one handle: counts (exact, so the catalog and the scan
/// both answer), the audit, and the oracle with its attack battery.
fn reads(handle: &str) -> Vec<String> {
    let mut lines: Vec<String> = [(0, 50, 0, 20), (1, 10, 5, 40), (2, 30, 0, 49)]
        .iter()
        .map(|&(attr, hi, sa_lo, sa_hi)| {
            CountRequest {
                handle: handle.to_string(),
                qi_preds: vec![betalike_query::RangePred { attr, lo: 0, hi }],
                sa_lo,
                sa_hi,
                exact: true,
            }
            .to_json()
            .compact()
        })
        .collect();
    lines.push(format!(r#"{{"op":"audit","handle":"{handle}"}}"#));
    lines.push(format!(
        r#"{{"op":"verify","handle":"{handle}","battery":true}}"#
    ));
    lines
}

#[test]
fn durable_publishes_leave_memory_and_reload_bit_identically() {
    let dir = temp_dir("five");
    let durable = local(Some(&dir));
    let mut handles = Vec::new();
    for algo in ALGOS {
        let ack = call(&durable, &publish_line(census(4), algo));
        assert_eq!(
            ack.get("persisted").and_then(Json::as_bool),
            Some(true),
            "{ack:?}"
        );
        assert_eq!(ack.get("cached").and_then(Json::as_bool), Some(false));
        handles.push(
            ack.get("handle")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    }
    assert_eq!(resident(&durable), 1, "only the newest save stays");
    let listing = call(&durable, &op("datasets"));
    let newest = handles.last().unwrap().clone();
    assert_eq!(strings(&listing, "published"), vec![newest], "{listing:?}");
    assert_eq!(
        strings(&listing, "datasets"),
        vec![census(4).canonical()],
        "held by the newest save"
    );
    let mut stored = strings(&listing, "stored");
    stored.sort();
    let mut want = handles.clone();
    want.sort();
    assert_eq!(stored, want);

    let resident_only = local(None);
    for (algo, handle) in ALGOS.into_iter().zip(&handles) {
        call(&resident_only, &publish_line(census(4), algo));
        for line in reads(handle) {
            assert_eq!(
                durable.respond_line(&line).0,
                resident_only.respond_line(&line).0,
                "{algo:?}: `{line}`"
            );
        }
    }
    assert_eq!(resident(&durable), 5);
    assert_eq!(restores(&durable), 4.0, "each displaced save reloads once");
    // A republish is a cached read of the resident copy now.
    let ack = call(&durable, &publish_line(census(4), Algo::Burel));
    assert_eq!(ack.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(restores(&durable), 4.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_republish_of_a_saved_handle_reloads_instead_of_recomputing() {
    let dir = temp_dir("republish");
    let server = local(Some(&dir));
    let line = publish_line(census(5), Algo::Sabre);
    call(&server, &line);
    let displacing = DatasetSpec::Synthetic { rows: 300, seed: 5 };
    call(&server, &publish_line(displacing.clone(), Algo::Anatomy));
    let ack = call(&server, &line);
    assert_eq!(ack.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(restores(&server), 1.0);
    let listing = call(&server, &op("datasets"));
    assert_eq!(
        strings(&listing, "datasets"),
        vec![displacing.canonical()],
        "no dataset regenerated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racing first reads of a saved handle share one load from the store.
#[test]
fn racing_first_reads_load_a_handle_once() {
    let dir = temp_dir("racing-reads");
    let server = local(Some(&dir));
    let spec = DatasetSpec::Census {
        rows: 20_000,
        seed: 9,
    };
    let ack = call(&server, &publish_line(spec, Algo::Mondrian));
    let handle = ack
        .get("handle")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    call(&server, &publish_line(census(9), Algo::Anatomy));
    let line = &reads(&handle)[0];
    let barrier = std::sync::Barrier::new(6);
    let answers: Vec<String> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    server.respond_line(line).0
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(answers
        .iter()
        .all(|a| a == &answers[0] && a.contains("estimate")));
    assert_eq!(restores(&server), 1.0);
    assert_eq!(resident(&server), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

fn with_deadline(line: &str, ms: u64) -> String {
    let mut doc = Json::parse(line).unwrap();
    if let Json::Obj(members) = &mut doc {
        members.push(("deadline_ms".into(), Json::Num(ms as f64)));
    }
    doc.compact()
}

/// A background publish finishes, saves and leaves memory once another
/// save displaces it; the retry collects it from the store (`cached`, one
/// restore) instead of recomputing it.
#[test]
fn an_expired_deadline_publish_is_collected_from_the_store() {
    let dir = temp_dir("deadline");
    let server = local(Some(&dir));
    let line = publish_line(
        DatasetSpec::Census {
            rows: 20_000,
            seed: 6,
        },
        Algo::Burel,
    );
    let expired = call(&server, &with_deadline(&line, 0));
    assert_eq!(
        expired.get("code").and_then(Json::as_str),
        Some("deadline"),
        "{expired:?}"
    );
    let began = Instant::now();
    while strings(&call(&server, &op("datasets")), "stored").is_empty() {
        assert!(
            began.elapsed() < Duration::from_secs(30),
            "the background publish must save"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    call(&server, &publish_line(census(6), Algo::Anatomy));
    assert_eq!(resident(&server), 1, "only the displacing save is held");
    let ack = call(&server, &line);
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
    assert_eq!(ack.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(restores(&server), 1.0);
    assert_eq!(resident(&server), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Within its deadline a publish is acknowledged even though the
/// background thread already moved the artifact out of the cache.
#[test]
fn a_deadline_publish_is_acknowledged_after_it_left_memory() {
    let dir = temp_dir("deadline-ok");
    let server = local(Some(&dir));
    let line = publish_line(census(7), Algo::Mondrian);
    let ack = call(&server, &with_deadline(&line, 60_000));
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
    assert_eq!(ack.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(ack.get("persisted").and_then(Json::as_bool), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A save that fails leaves the only copy in memory, serving.
#[test]
fn a_failed_save_keeps_the_artifact_resident() {
    let dir = temp_dir("failed-save");
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
    let server = LocalServer::new(&ServerConfig {
        data_dir: Some(dir.clone()),
        vfs: Some(chaos.clone()),
        ..Default::default()
    })
    .expect("local server");
    chaos.set_plan(FaultPlan::FailWrites);
    let ack = call(&server, &publish_line(census(8), Algo::Anatomy));
    assert_eq!(
        ack.get("persisted").and_then(Json::as_bool),
        Some(false),
        "{ack:?}"
    );
    let handle = ack
        .get("handle")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(resident(&server), 1);
    let listing = call(&server, &op("datasets"));
    assert_eq!(strings(&listing, "published"), vec![handle.clone()]);
    assert!(strings(&listing, "stored").is_empty());
    for line in reads(&handle) {
        let doc = call(&server, &line);
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "`{line}`: {doc:?}"
        );
    }
    assert_eq!(restores(&server), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The server holds its `--preload` dataset; the datasets of durable
/// publishes die with their artifacts, all but the newest save's.
#[test]
fn the_preload_survives_durable_publishes() {
    let dir = temp_dir("preload");
    let preload = DatasetSpec::Census {
        rows: 2_000,
        seed: 1,
    };
    let server = LocalServer::new(&ServerConfig {
        data_dir: Some(dir.clone()),
        preload: Some(preload.clone()),
        ..Default::default()
    })
    .expect("local server");
    for seed in 1..=10 {
        let spec = DatasetSpec::Synthetic { rows: 300, seed };
        let ack = call(&server, &publish_line(spec, Algo::Anatomy));
        assert_eq!(ack.get("persisted").and_then(Json::as_bool), Some(true));
    }
    let listing = call(&server, &op("datasets"));
    let newest = DatasetSpec::Synthetic {
        rows: 300,
        seed: 10,
    };
    let mut want = vec![preload.canonical(), newest.canonical()];
    want.sort();
    assert_eq!(strings(&listing, "datasets"), want);
    assert_eq!(strings(&listing, "stored").len(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lookup that meets a running publish waits for it: a `count` sent
/// straight after a `deadline_ms: 0` publish, while the background run is
/// still computing, answers what a store-less server answers once that
/// publish is done — not `unknown handle`.
#[test]
fn a_count_waits_for_a_running_deadline_publish() {
    let dir = temp_dir("count-waits");
    let server = local(Some(&dir));
    let spec = DatasetSpec::Census {
        rows: 50_000,
        seed: 12,
    };
    let request = PublishRequest::new(spec, Algo::Burel);
    let line = request.to_json().compact();
    let expired = call(&server, &with_deadline(&line, 0));
    assert_eq!(
        expired.get("code").and_then(Json::as_str),
        Some("deadline"),
        "{expired:?}"
    );
    let count = &reads(&request.handle())[0];
    let answer = server.respond_line(count).0;
    let resident_only = local(None);
    call(&resident_only, &line);
    assert_eq!(answer, resident_only.respond_line(count).0);
    assert!(answer.contains("estimate"), "{answer}");
    let _ = std::fs::remove_dir_all(&dir);
}
