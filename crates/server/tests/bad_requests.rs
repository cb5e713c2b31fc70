//! Bad publish parameters through the socketless [`LocalServer`] seam:
//! each gets one parseable wire error that names the offending field —
//! never the `internal error` a caught panic produces — the server keeps
//! answering, and failed publishes never count as resident artifacts.

use betalike_microdata::json::Json;
use betalike_server::{LocalServer, ServerConfig};

fn local() -> LocalServer {
    LocalServer::new(&ServerConfig::default()).expect("local server")
}

/// The error message of a response line, asserting it is a plain
/// (non-panic) error.
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
