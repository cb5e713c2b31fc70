//! Observability behavior of the serving stack (DESIGN.md §14): the
//! `metrics` op's counters/gauges/histograms, per-op latency accounting,
//! `trace_id` echo, byte-identical responses with timings on vs off, and
//! the coherence of the `health` gauges rebuilt on the shared registry.

use betalike_microdata::json::Json;
use betalike_server::{serve, Client, ServerConfig};

fn publish_line() -> &'static str {
    r#"{"op":"publish","dataset":"synthetic","rows":300,"dseed":7,"algo":"anatomy"}"#
}

fn raw(client: &mut Client, line: &str) -> Json {
    let reply = client.call_raw(line).expect("call_raw");
    Json::parse(reply.trim()).expect("reply parses")
}

#[test]
fn trace_id_is_echoed_only_when_sent() {
    let server = serve(&ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let doc = raw(&mut client, r#"{"op":"ping","trace_id":"req-42"}"#);
    assert_eq!(doc.get("trace_id").and_then(Json::as_str), Some("req-42"));
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));

    let doc = raw(&mut client, r#"{"op":"ping"}"#);
    assert!(
        doc.get("trace_id").is_none(),
        "no trace_id without one sent"
    );

    // Errors echo too — the id is how a client pairs pipelined replies.
    let doc = raw(&mut client, r#"{"op":"nope","trace_id":"t-err"}"#);
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("trace_id").and_then(Json::as_str), Some("t-err"));

    server.shutdown_and_join();
}

/// The `obs` flag gates *timings*, never content: the same request
/// sequence against a timed and an untimed server must produce
/// byte-identical response lines (trace_id echo included).
#[test]
fn responses_are_byte_identical_with_obs_on_and_off() {
    let on = serve(&ServerConfig::default()).expect("bind");
    let off = serve(&ServerConfig {
        obs: false,
        ..Default::default()
    })
    .expect("bind");
    let mut client_on = Client::connect(on.addr()).expect("connect");
    let mut client_off = Client::connect(off.addr()).expect("connect");

    let count_line = |handle: &str| {
        format!(
            r#"{{"op":"count","handle":"{handle}","preds":[],"sa":{{"lo":0,"hi":3}},"trace_id":"q-1"}}"#
        )
    };
    let pub_on = raw(&mut client_on, publish_line());
    let pub_off = raw(&mut client_off, publish_line());
    let handle = pub_on
        .get("handle")
        .and_then(Json::as_str)
        .expect("handle")
        .to_string();
    assert_eq!(pub_on.compact(), pub_off.compact());

    for line in [
        r#"{"op":"ping"}"#.to_string(),
        r#"{"op":"ping","trace_id":"abc"}"#.to_string(),
        count_line(&handle),
        count_line(&handle), // the cache-hit replay must match too
        format!(r#"{{"op":"audit","handle":"{handle}"}}"#),
        r#"{"op":"datasets"}"#.to_string(),
        r#"{"op":"garbage?"}"#.to_string(),
    ] {
        let a = client_on.call_raw(&line).expect("raw on");
        let b = client_off.call_raw(&line).expect("raw off");
        assert_eq!(a, b, "obs flag changed the response for {line}");
    }

    on.shutdown_and_join();
    off.shutdown_and_join();
}

#[test]
fn metrics_reports_per_op_histograms_after_traffic() {
    let server = serve(&ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let published = raw(&mut client, publish_line());
    let handle = published
        .get("handle")
        .and_then(Json::as_str)
        .expect("handle");
    // A real QI predicate so the catalog classifies plans (an empty
    // `preds` list short-circuits to the row total without planning).
    let count_line = format!(
        r#"{{"op":"count","handle":"{handle}","preds":[{{"attr":0,"lo":2,"hi":9}}],"sa":{{"lo":0,"hi":3}}}}"#
    );
    for _ in 0..5 {
        let doc = raw(&mut client, &count_line);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }
    let _ = raw(&mut client, r#"{"op":"bogus"}"#); // errors are counted too

    let doc = client.metrics().expect("metrics");
    assert_eq!(doc.get("obs").and_then(Json::as_bool), Some(true));
    let counters = doc.get("counters").expect("counters");
    let get = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(get(counters, "op_count_requests"), 5.0);
    assert_eq!(get(counters, "op_publish_requests"), 1.0);
    assert_eq!(get(counters, "op_unknown_requests"), 1.0);
    assert_eq!(get(counters, "op_unknown_errors"), 1.0);
    assert_eq!(get(counters, "op_count_errors"), 0.0);
    // The count calls hit the catalog: plan classifications accumulated.
    let plans = ["disjoint", "full_cover", "straddle", "residual_scan"]
        .iter()
        .map(|k| get(counters, &format!("catalog_plan_{k}")))
        .sum::<f64>();
    assert!(plans > 0.0, "catalog plan counters never moved");

    let histograms = doc.get("histograms").expect("histograms");
    let count_hist = histograms.get("op_count_latency_ns").expect("count hist");
    assert_eq!(get(count_hist, "count"), 5.0);
    let (p50, p99, p999) = (
        get(count_hist, "p50_ns"),
        get(count_hist, "p99_ns"),
        get(count_hist, "p999_ns"),
    );
    assert!(p50 > 0.0, "a served count took nonzero time");
    assert!(p50 <= p99 && p99 <= p999, "quantiles must be ordered");
    // Every wire op is pre-registered, exercised or not.
    for op in [
        "ping", "datasets", "publish", "count", "audit", "verify", "health", "metrics", "shutdown",
    ] {
        assert!(
            histograms.get(&format!("op_{op}_latency_ns")).is_some(),
            "op `{op}` missing from the histogram roster"
        );
    }

    let gauges = doc.get("gauges").expect("gauges");
    assert_eq!(get(gauges, "artifacts_resident"), 1.0);
    assert_eq!(get(gauges, "queue_depth"), 0.0);
    assert_eq!(get(gauges, "active_connections"), 1.0, "this connection");
    assert_eq!(get(gauges, "result_cache_misses"), 1.0);
    assert_eq!(get(gauges, "result_cache_hits"), 4.0);

    let prom = doc
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    assert!(prom.contains("betalike_op_count_latency_ns{quantile=\"0.99\"}"));
    assert!(prom.contains("# TYPE betalike_op_count_requests counter"));

    server.shutdown_and_join();
}

/// A restarted server reloads a stored artifact on its first lookup and
/// times that load + restore into `restore_ns`, once: later lookups hit
/// the resident copy.
#[test]
fn stored_artifact_reloads_are_timed_once() {
    let dir = std::env::temp_dir().join(format!("betalike-obs-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        ..Default::default()
    };
    let first = serve(&config).expect("bind");
    let mut client = Client::connect(first.addr()).expect("connect");
    let published = raw(&mut client, publish_line());
    let handle = published
        .get("handle")
        .and_then(Json::as_str)
        .expect("handle")
        .to_string();
    drop(client);
    first.shutdown_and_join();

    let restarted = serve(&config).expect("bind");
    let mut client = Client::connect(restarted.addr()).expect("connect");
    let reloads = |client: &mut Client| {
        let doc = client.metrics().expect("metrics");
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("restore_ns"))
            .expect("restore_ns is registered from startup");
        hist.get("count").and_then(Json::as_f64).expect("count")
    };
    assert_eq!(reloads(&mut client), 0.0);
    let count =
        format!(r#"{{"op":"count","handle":"{handle}","preds":[],"sa":{{"lo":0,"hi":3}}}}"#);
    for _ in 0..3 {
        let doc = raw(&mut client, &count);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }
    assert_eq!(reloads(&mut client), 1.0);
    drop(client);
    restarted.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `obs: false` the counters and gauges (and so `health`) keep
/// working — only the clock-reading paths go quiet.
#[test]
fn disabling_obs_stops_timings_but_not_counters() {
    let server = serve(&ServerConfig {
        obs: false,
        ..Default::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for _ in 0..3 {
        client.ping().expect("ping");
    }
    let doc = client.metrics().expect("metrics");
    assert_eq!(doc.get("obs").and_then(Json::as_bool), Some(false));
    let counters = doc.get("counters").expect("counters");
    assert_eq!(
        counters.get("op_ping_requests").and_then(Json::as_f64),
        Some(3.0)
    );
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("op_ping_latency_ns"))
        .expect("hist");
    assert_eq!(hist.get("count").and_then(Json::as_f64), Some(0.0));

    let health = client.health().expect("health");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("active_connections").and_then(Json::as_u64),
        Some(1)
    );
    server.shutdown_and_join();
}

/// `health` must agree with `metrics` — both are views of the same
/// registry snapshot, not separately assembled gauges.
#[test]
fn health_and_metrics_agree_on_shared_gauges() {
    let server = serve(&ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let published = raw(&mut client, publish_line());
    let handle = published
        .get("handle")
        .and_then(Json::as_str)
        .expect("handle");
    for _ in 0..4 {
        raw(
            &mut client,
            &format!(r#"{{"op":"count","handle":"{handle}","preds":[],"sa":{{"lo":0,"hi":2}}}}"#),
        );
    }
    let health = client.health().expect("health");
    let metrics = client.metrics().expect("metrics");
    let gauges = metrics.get("gauges").expect("gauges");
    for (health_key, gauge_name) in [
        ("queue_depth", "queue_depth"),
        ("active_connections", "active_connections"),
        ("artifacts", "artifacts_resident"),
        ("result_cache_size", "result_cache_size"),
        ("result_cache_hits", "result_cache_hits"),
        ("result_cache_misses", "result_cache_misses"),
    ] {
        assert_eq!(
            health.get(health_key).and_then(Json::as_f64),
            gauges.get(gauge_name).and_then(Json::as_f64),
            "health `{health_key}` disagrees with registry gauge `{gauge_name}`"
        );
    }
    server.shutdown_and_join();
}
