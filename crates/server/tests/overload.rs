//! Overload, degraded-mode, and timeout behavior of the server
//! (DESIGN.md §12): bounded admission with explicit `overloaded` sheds,
//! read-only degraded mode driven by an injected chaos filesystem,
//! deadline-bounded publishes, idle/mid-request timeouts, the
//! shutdown-latency contract, sheds with pipelining in the mix, hostile
//! request lines answered with one error instead of an abort, and the
//! `betalike-client` binary surviving an injected shed and pipelining
//! with more clients than workers.

use betalike_faults::{ChaosVfs, FaultPlan};
use betalike_microdata::json::Json;
use betalike_server::wire::{retryable_error, ERR_OVERLOADED};
use betalike_server::{
    serve, Algo, Client, ClientError, CountRequest, DatasetSpec, PublishRequest, ServerConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("betalike-overload-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synthetic(seed: u64) -> DatasetSpec {
    DatasetSpec::Synthetic { rows: 200, seed }
}

/// Floods a 2-worker, queue-of-1 server: every connection beyond the
/// capacity must be *shed* with one parseable retryable `overloaded`
/// line — never a silent disconnect — the queued connection must be
/// served once a worker frees up, and `health` must account for all of
/// it. No worker panics: every subsequent request is answered normally.
#[test]
fn flood_sheds_with_overloaded_not_disconnects() {
    let server = serve(&ServerConfig {
        threads: 2,
        queue: 1,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Two squatters pin both sticky workers.
    let mut squatter_a = Client::connect(addr).expect("connect");
    squatter_a.ping().expect("squatter a ping");
    let mut squatter_b = Client::connect(addr).expect("connect");
    squatter_b.ping().expect("squatter b ping");

    // Eight more arrivals: one fits the queue, seven must shed.
    let mut streams = Vec::new();
    for _ in 0..8 {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(2000)))
            .expect("timeout");
        let mut stream = stream;
        stream
            .write_all(b"{\"op\":\"ping\"}\n")
            .expect("write ping");
        streams.push(stream);
    }
    let mut shed_count = 0;
    let mut queued = Vec::new();
    for stream in streams {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                let doc = Json::parse(line.trim()).expect("shed reply parses");
                assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
                assert_eq!(
                    doc.get("code").and_then(Json::as_str),
                    Some("overloaded"),
                    "shed reply must carry the stable code: {line}"
                );
                assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(true));
                // After the error line the server hangs up.
                let mut rest = String::new();
                assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0);
                shed_count += 1;
            }
            Ok(_) => panic!("a flooded connection was closed without any reply"),
            Err(_) => queued.push(reader), // still waiting: it is the queued one
        }
    }
    assert_eq!(shed_count, 7, "exactly queue-capacity connections may wait");
    assert_eq!(queued.len(), 1);

    // Freeing a worker drains the queue: the parked ping is answered.
    drop(squatter_a);
    let mut reader = queued.remove(0);
    let mut line = String::new();
    reader.read_line(&mut line).expect("queued ping answered");
    let doc = Json::parse(line.trim()).expect("pong parses");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    drop(reader);

    // `health` accounts for the sheds (and the gauges are sane).
    drop(squatter_b);
    let mut client = Client::connect(addr).expect("connect for health");
    let doc = client.health().expect("health");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("workers").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("queue_capacity").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("shed").and_then(Json::as_u64), Some(7));
    assert_eq!(doc.get("store").and_then(Json::as_str), Some("none"));
    drop(client);
    server.shutdown_and_join();
}

/// A store whose writes persistently fail trips the server into
/// read-only degraded mode: cold publishes are refused with a retryable
/// `degraded` error, reads and counts keep serving, `health` reports it,
/// and one successful save after the disk recovers restores service.
#[test]
fn degraded_store_turns_server_read_only_until_recovery() {
    let dir = temp_dir("degraded");
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
    let server = serve(&ServerConfig {
        threads: 2,
        data_dir: Some(dir.clone()),
        vfs: Some(chaos.clone()),
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A healthy publish first, so reads have something to serve.
    let healthy = client
        .publish(&PublishRequest::new(synthetic(1), Algo::Anatomy))
        .expect("healthy publish");

    // The disk goes bad: fresh publishes still succeed (the artifact is
    // resident) but their persists fail, counting toward the trip wire.
    chaos.set_plan(FaultPlan::FailWrites);
    for seed in 2..=(1 + u64::from(betalike_store::disk::DEGRADED_AFTER)) {
        let reply = client
            .publish(&PublishRequest::new(synthetic(seed), Algo::Anatomy))
            .expect("publish succeeds even when its persist fails");
        assert!(!reply.cached);
    }

    // Trip wire reached: the next cold publish is refused retryably.
    let err = client
        .publish(&PublishRequest::new(synthetic(99), Algo::Anatomy))
        .expect_err("cold publish in degraded mode must be refused");
    match &err {
        ClientError::Retryable { code, .. } => assert_eq!(code, "degraded"),
        other => panic!("expected a retryable `degraded` refusal, got {other:?}"),
    }
    assert!(err.is_retryable());

    // Reads keep working: counts over the healthy handle, and health.
    let count = client
        .count(&CountRequest {
            handle: healthy.handle.clone(),
            qi_preds: vec![],
            sa_lo: 0,
            sa_hi: u32::MAX,
            exact: false,
        })
        .expect("degraded mode still serves counts");
    assert!(count.estimate > 0.0);
    let doc = client.health().expect("health");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("degraded"));
    assert_eq!(doc.get("store").and_then(Json::as_str), Some("degraded"));
    assert!(
        doc.get("write_failures").and_then(Json::as_u64)
            >= Some(u64::from(betalike_store::disk::DEGRADED_AFTER))
    );

    // The disk recovers: the refused publish now goes through and the
    // degraded state clears.
    chaos.set_plan(FaultPlan::None);
    client
        .publish(&PublishRequest::new(synthetic(99), Algo::Anatomy))
        .expect("publish after recovery");
    let doc = client.health().expect("health after recovery");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    drop(client);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A publish with a tiny `deadline_ms` answers a retryable `deadline`
/// error while the computation continues detached; re-requesting the same
/// handle collects the finished artifact from the cache.
#[test]
fn publish_deadline_cancels_the_request_not_the_computation() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let request = PublishRequest::new(
        DatasetSpec::Census {
            rows: 8000,
            seed: 42,
        },
        Algo::Burel,
    );
    let mut doc = request.to_json();
    if let Json::Obj(members) = &mut doc {
        members.push(("deadline_ms".to_string(), Json::Num(1.0)));
    }
    let err = client.call(&doc).expect_err("a 1ms deadline must expire");
    match &err {
        ClientError::Retryable { code, .. } => assert_eq!(code, "deadline"),
        other => panic!("expected a retryable `deadline` error, got {other:?}"),
    }

    // The same publish without a deadline blocks on the background
    // computation and serves its result (a cache hit, not a recompute).
    let reply = client
        .publish(&request)
        .expect("followup publish collects the background result");
    assert!(reply.cached, "the detached computation must be reused");
    drop(client);
    server.shutdown_and_join();
}

/// An idle connection is closed after `idle_timeout_ms`, freeing its
/// sticky worker — but activity within the window resets the timer.
#[test]
fn idle_connections_expire_and_free_their_worker() {
    let server = serve(&ServerConfig {
        threads: 1,
        read_timeout_ms: 25,
        idle_timeout_ms: 300,
        ..Default::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("first ping");
    std::thread::sleep(Duration::from_millis(100));
    client
        .ping()
        .expect("activity inside the window resets the timer");

    std::thread::sleep(Duration::from_millis(900));
    assert!(
        client.ping().is_err(),
        "the idle connection must have been closed"
    );

    // The (single) worker is free again: a new client is served.
    let mut fresh = Client::connect(server.addr()).expect("reconnect");
    fresh.ping().expect("worker freed by idle expiry");
    drop(fresh);
    drop(client);
    server.shutdown_and_join();
}

/// A request line that starts but never finishes is answered with a
/// retryable `deadline` error and the connection is closed — a trickling
/// or stalled peer cannot pin a worker forever.
#[test]
fn stalled_mid_request_lines_get_a_deadline_error() {
    let server = serve(&ServerConfig {
        threads: 1,
        read_timeout_ms: 25,
        request_timeout_ms: 200,
        ..Default::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(5000)))
        .expect("timeout");
    // Half a request, never completed.
    stream.write_all(b"{\"op\":\"pi").expect("partial write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("deadline reply");
    let doc = Json::parse(line.trim()).expect("deadline reply parses");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("deadline"));
    assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(true));
    // Then EOF: the connection is gone.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0);
    drop(stream);
    server.shutdown_and_join();
}

/// The documented shutdown-latency contract: workers poll reads every
/// `read_timeout_ms`, so shutdown with idle connections completes within
/// a few ticks — not the old hard-coded 200ms per worker, and never
/// unbounded.
#[test]
fn shutdown_latency_is_bounded_by_the_read_tick() {
    let server = serve(&ServerConfig {
        threads: 4,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    // Park idle connections on every worker.
    let mut parked = Vec::new();
    for _ in 0..4 {
        let mut client = Client::connect(server.addr()).expect("connect");
        client.ping().expect("ping");
        parked.push(client);
    }
    let started = Instant::now();
    server.shutdown_and_join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown with idle workers took {elapsed:?} (tick is 25ms)"
    );
    drop(parked);
}

/// Sheds stay parseable while admitted connections are mid-pipeline: a
/// full-capacity server (one worker busy, one connection queued) whose
/// two connections each wrote a depth-32 batch refuses the next arrival
/// with the exact `overloaded` line, and both batches still drain in
/// request order.
#[test]
fn sheds_are_parseable_mid_pipeline_and_pipelines_complete() {
    let server = serve(&ServerConfig {
        threads: 1,
        queue: 1,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Two admitted connections (1 worker + 1 queue slot) each write a
    // depth-32 pipelined batch without reading yet. The first reply on
    // the first connection proves the worker owns it before the second
    // arrives, so the second takes the queue slot rather than a shed.
    let depth = 32;
    let mut busy = Vec::new();
    for c in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(10000)))
            .expect("timeout");
        let batch: String = (0..depth)
            .map(|i| format!("{{\"op\":\"ping\",\"trace_id\":\"c{c}-{i}\"}}\n"))
            .collect();
        stream.write_all(batch.as_bytes()).expect("write batch");
        let mut reader = BufReader::new(stream);
        let mut next = 0;
        if c == 0 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("first pipelined reply");
            assert!(line.contains("\"trace_id\":\"c0-0\""), "{line}");
            next = 1;
        }
        busy.push((reader, next));
    }

    // The third arrival sheds mid-pipeline, parseably.
    let mut extra = TcpStream::connect(addr).expect("connect extra");
    extra
        .set_read_timeout(Some(Duration::from_millis(2000)))
        .expect("timeout");
    extra.write_all(b"{\"op\":\"ping\"}\n").expect("write ping");
    let mut reader = BufReader::new(extra);
    let mut line = String::new();
    reader.read_line(&mut line).expect("shed reply");
    let doc = Json::parse(line.trim()).expect("shed reply parses");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("overloaded"));
    assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(true));

    // Both pipelines drain completely, responses in request order. The
    // queued connection is served once the first one hangs up.
    for (c, (mut reader, next)) in busy.into_iter().enumerate() {
        for i in next..depth {
            let mut line = String::new();
            reader.read_line(&mut line).expect("pipelined reply");
            let doc = Json::parse(line.trim()).expect("reply parses");
            assert_eq!(
                doc.get("trace_id").and_then(Json::as_str),
                Some(format!("c{c}-{i}").as_str()),
                "client {c} response {i} out of order: {line}"
            );
        }
    }
    server.shutdown_and_join();
}

/// A request line of 500 000 `[` — under the 1 MiB line bound, but deep
/// enough to overflow the stack of an unbounded recursive parser and
/// abort the process — gets exactly one parseable `parse:` error, and the
/// same connection then answers a `ping`.
#[test]
fn deeply_nested_request_is_one_parse_error_not_an_abort() {
    let server = serve(&ServerConfig {
        threads: 1,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(10000)))
        .expect("timeout");
    let mut flood = vec![b'['; 500_000];
    flood.push(b'\n');
    stream.write_all(&flood).expect("write flood");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("parse error reply");
    let doc = Json::parse(line.trim()).expect("error reply parses");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        doc.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.starts_with("parse: ")),
        "{line}"
    );
    stream
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("write ping");
    line.clear();
    reader.read_line(&mut line).expect("pong");
    let pong = Json::parse(line.trim()).expect("pong parses");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    drop(reader);
    drop(stream);
    server.shutdown_and_join();
}

/// The real `betalike-client pipeline` binary with more clients than
/// server workers finishes: each client closes its serial reference
/// connection before opening its pipelined one, so no worker stays
/// pinned to an idle connection while the pipelined ones wait in the
/// queue.
#[test]
fn client_pipeline_with_more_clients_than_workers_completes() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_betalike-client"))
        .args([
            "pipeline",
            "--addr",
            &server.addr().to_string(),
            "--clients",
            "6",
            "--depth",
            "32",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run betalike-client");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll betalike-client") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("betalike-client pipeline did not finish within 60s (deadlock)");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    assert!(
        status.success(),
        "pipeline failed: {status}\nstderr: {stderr}"
    );
    server.shutdown_and_join();
}

/// End-to-end retry proof: the real `betalike-client smoke` binary, run
/// through a proxy that sheds its first connection with an injected
/// `overloaded` line, retries and still exits 0 with every answer
/// bit-identical.
#[test]
fn client_smoke_retries_through_an_injected_shed() {
    let server = serve(&ServerConfig {
        threads: 4,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let backend = server.addr();

    let proxy = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        // First connection: read one request, shed it, hang up.
        if let Ok((stream, _)) = proxy.accept() {
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let mut stream = stream;
            let reply = retryable_error(ERR_OVERLOADED, "injected shed").compact() + "\n";
            let _ = stream.write_all(reply.as_bytes());
        }
        // Every later connection: transparent pipe to the real server.
        while let Ok((client_side, _)) = proxy.accept() {
            let Ok(server_side) = TcpStream::connect(backend) else {
                break;
            };
            let mut up_read = client_side.try_clone().expect("clone");
            let mut up_write = server_side.try_clone().expect("clone");
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut up_read, &mut up_write);
                let _ = up_write.shutdown(std::net::Shutdown::Write);
            });
            let mut down_read = server_side;
            let mut down_write = client_side;
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut down_read, &mut down_write);
                let _ = down_write.shutdown(std::net::Shutdown::Write);
            });
        }
    });

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_betalike-client"))
        .args([
            "smoke",
            "--addr",
            &proxy_addr.to_string(),
            "--retries",
            "3",
            "--retry-seed",
            "5",
            "--rows",
            "300",
        ])
        .output()
        .expect("run betalike-client");
    assert!(
        output.status.success(),
        "smoke through the shedding proxy failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("failed retryably"),
        "the retry path must actually have engaged; stderr: {stderr}"
    );
    server.shutdown_and_join();
}
