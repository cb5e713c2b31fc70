//! Bad publish parameters through the socketless [`LocalServer`] seam:
//! each gets one parseable wire error that names the offending field —
//! never the `internal error` a caught panic produces, and
//! `internal_errors_total` stays 0 — the server keeps answering, and
//! failed publishes never count as resident artifacts.

use betalike_microdata::json::Json;
use betalike_server::{LocalServer, ServerConfig};

fn local() -> LocalServer {
    LocalServer::new(&ServerConfig::default()).expect("local server")
}

/// The `internal_errors_total` counter from the `metrics` op.
fn internal_errors(local: &LocalServer) -> u64 {
    let (response, _) = local.respond_line(r#"{"op":"metrics"}"#);
    let doc = Json::parse(&response).expect("metrics JSON");
    doc.get("counters")
        .and_then(|c| c.get("internal_errors_total"))
        .and_then(Json::as_u64)
        .expect("metrics lists internal_errors_total")
}

/// The error message of a response line, asserting it is a plain
/// (non-panic) error that left `internal_errors_total` at 0.
fn error_of(local: &LocalServer, line: &str) -> String {
    let (response, _) = local.respond_line(line);
    let doc = Json::parse(&response).expect("one parseable response line");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{line}");
    let error = doc
        .get("error")
        .and_then(Json::as_str)
        .expect("an error message")
        .to_string();
    assert!(
        !error.contains("internal error"),
        "`{line}` panicked: {error}"
    );
    assert_eq!(internal_errors(local), 0, "`{line}` counted a panic");
    error
}

fn assert_pings(local: &LocalServer) {
    let (response, _) = local.respond_line(r#"{"op":"ping"}"#);
    assert!(response.contains("\"pong\":true"), "{response}");
}

#[test]
fn out_of_range_rows_are_errors_for_every_generator() {
    let local = local();
    for dataset in ["census", "synthetic"] {
        for rows in ["0", "100000000000"] {
            let line = format!(
                r#"{{"op":"publish","dataset":"{dataset}","rows":{rows},"algo":"anatomy"}}"#
            );
            let error = error_of(&local, &line);
            assert!(error.contains("`rows`"), "`{line}`: {error}");
            assert_pings(&local);
        }
    }
}

#[test]
fn sabre_threshold_errors_name_t() {
    let local = local();
    for t in ["-1", "0", "2"] {
        let line =
            format!(r#"{{"op":"publish","dataset":"census","rows":500,"algo":"sabre","t":{t}}}"#);
        let error = error_of(&local, &line);
        assert!(
            error.starts_with("t must") && !error.contains("beta"),
            "`{line}`: {error}"
        );
        assert_pings(&local);
    }
}

#[test]
fn health_counts_only_resident_artifacts() {
    let local = local();
    error_of(
        &local,
        r#"{"op":"publish","dataset":"census","rows":500,"algo":"burel","qi":9}"#,
    );
    let (ok, _) =
        local.respond_line(r#"{"op":"publish","dataset":"census","rows":500,"algo":"burel"}"#);
    assert!(ok.contains("\"ok\":true"), "{ok}");
    let (health, _) = local.respond_line(r#"{"op":"health"}"#);
    let health = Json::parse(&health).expect("health JSON");
    assert_eq!(
        health.get("artifacts").and_then(Json::as_u64),
        Some(1),
        "a failed publish is not a resident artifact: {health:?}"
    );
}

/// A key repeated in a request object resolves to its first occurrence
/// (what `Json::get` returns); later duplicates are ignored, not
/// rejected.
#[test]
fn duplicate_keys_resolve_to_their_first_occurrence() {
    let local = local();
    let (pong, _) = local.respond_line(r#"{"op":"ping","op":"no-such-op"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let error = error_of(&local, r#"{"op":"no-such-op","op":"ping"}"#);
    assert!(error.contains("no-such-op"), "{error}");

    let error = error_of(
        &local,
        r#"{"op":"publish","dataset":"census","rows":0,"rows":500,"algo":"anatomy"}"#,
    );
    assert!(error.contains("`rows`"), "{error}");
    let (published, _) = local.respond_line(
        r#"{"op":"publish","dataset":"census","rows":500,"rows":0,"algo":"anatomy"}"#,
    );
    let handle = Json::parse(&published)
        .ok()
        .and_then(|doc| doc.get("handle").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("the first `rows` publishes: {published}"));

    let count = |first: &str, second: &str| {
        format!(
            r#"{{"op":"count","handle":"{first}","handle":"{second}","preds":[],"sa":{{"lo":0,"hi":49}},"exact":true}}"#
        )
    };
    let (counted, _) = local.respond_line(&count(&handle, "pub-missing"));
    assert!(counted.contains("\"exact\":500"), "{counted}");
    let error = error_of(&local, &count("pub-missing", &handle));
    assert!(error.contains("pub-missing"), "{error}");
    assert_pings(&local);
}

/// A `count` carries at most `MAX_PREDS` predicates: the limit answers,
/// one more is a fatal `bad_request` that names the limit, checked before
/// the handle is looked up.
#[test]
fn predicate_count_is_bounded_by_max_preds() {
    use betalike_server::wire::MAX_PREDS;

    let local = local();
    let (published, _) =
        local.respond_line(r#"{"op":"publish","dataset":"census","rows":500,"algo":"burel"}"#);
    let handle = Json::parse(&published)
        .ok()
        .and_then(|doc| doc.get("handle").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("publish failed: {published}"));
    let count = |handle: &str, n: usize| {
        let preds: Vec<String> = (0..n)
            .map(|i| format!(r#"{{"attr":{},"lo":0,"hi":200}}"#, i % 3))
            .collect();
        format!(
            r#"{{"op":"count","handle":"{handle}","preds":[{}],"sa":{{"lo":0,"hi":49}},"exact":true}}"#,
            preds.join(",")
        )
    };
    let (at_limit, _) = local.respond_line(&count(&handle, MAX_PREDS));
    assert!(at_limit.contains("\"exact\":500"), "{at_limit}");
    for handle in [handle.as_str(), "pub-missing"] {
        let line = count(handle, MAX_PREDS + 1);
        let error = error_of(&local, &line);
        assert!(error.contains(&MAX_PREDS.to_string()), "{error}");
        let doc = Json::parse(&local.respond_line(&line).0).expect("one parseable line");
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("bad_request"));
        assert!(doc.get("retryable").is_none(), "bad_request is fatal");
    }
    assert_pings(&local);
}
