//! Overload events that land *mid-stream* (DESIGN.md §12, §15):
//! `tests/overload.rs` meets each refusal on a connection's first,
//! single request; here the same events — a shed, the degraded trip
//! wire, a publish deadline, idle expiry, a stalled line, shutdown, and
//! a shed injected after a session already made progress — meet
//! connections that pipeline batches through the `Conn` machine. Each
//! test pins that the event answers exactly once, in request order, and
//! leaves the rest of the batch (or the next connection) served.

use betalike_faults::{ChaosVfs, FaultPlan};
use betalike_microdata::json::Json;
use betalike_server::wire::{retryable_error, ERR_OVERLOADED};
use betalike_server::{serve, Algo, CountRequest, DatasetSpec, PublishRequest, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "betalike-overload-event-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synthetic(seed: u64) -> DatasetSpec {
    DatasetSpec::Synthetic { rows: 200, seed }
}

/// `doc` as one request line carrying `trace_id`.
fn tagged(doc: Json, trace: &str) -> String {
    let mut doc = doc;
    if let Json::Obj(members) = &mut doc {
        members.push(("trace_id".to_string(), Json::Str(trace.to_string())));
    }
    doc.compact()
}

fn op(name: &str, trace: &str) -> String {
    tagged(
        Json::Obj(vec![("op".to_string(), Json::Str(name.to_string()))]),
        trace,
    )
}

/// Connects with a read timeout, so a missing reply fails the test
/// instead of hanging it.
fn connect(addr: std::net::SocketAddr, timeout_ms: u64) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(timeout_ms)))
        .expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Writes the whole batch in one write, before reading anything.
fn write_batch(stream: &mut TcpStream, lines: &[String]) {
    let batch: String = lines.iter().map(|line| format!("{line}\n")).collect();
    stream.write_all(batch.as_bytes()).expect("write batch");
}

fn read_doc(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reply");
    assert!(n > 0, "connection closed before the reply");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("reply parses ({e:?}): {line}"))
}

/// Reads one reply and checks it answers the request tagged `trace`.
fn read_traced(reader: &mut BufReader<TcpStream>, trace: &str) -> Json {
    let doc = read_doc(reader);
    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some(trace),
        "reply out of request order: {}",
        doc.compact()
    );
    doc
}

fn is_ok(doc: &Json) -> bool {
    doc.get("ok").and_then(Json::as_bool) == Some(true)
}

fn assert_retryable(doc: &Json, code: &str) {
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("code").and_then(Json::as_str),
        Some(code),
        "{}",
        doc.compact()
    );
    assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(true));
}

fn assert_eof(reader: &mut BufReader<TcpStream>) {
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");
}

/// Floods a 2-worker, queue-of-1 server with connections that each
/// pipeline a 4-request batch: a shed connection gets exactly *one*
/// `overloaded` line for its whole batch and then EOF — never one
/// refusal per request, never a silent disconnect — while the queued
/// connection's batch is answered in full, in order, once a worker frees.
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
    let batch =
        |c: usize| -> Vec<String> { (0..4).map(|i| op("ping", &format!("c{c}-{i}"))).collect() };

    // Two squatters pin both workers, each proven admitted by a served
    // batch.
    let mut squatters = Vec::new();
    for c in 0..2 {
        let (mut stream, mut reader) = connect(addr, 5000);
        write_batch(&mut stream, &batch(c));
        for i in 0..4 {
            read_traced(&mut reader, &format!("c{c}-{i}"));
        }
        squatters.push((stream, reader));
    }

    // Eight more pipelining arrivals: one fits the queue, seven shed.
    let mut arrivals = Vec::new();
    for c in 2..10 {
        let (mut stream, reader) = connect(addr, 2000);
        write_batch(&mut stream, &batch(c));
        arrivals.push((c, stream, reader));
    }
    let mut shed_count = 0;
    let mut queued = Vec::new();
    for (c, stream, mut reader) in arrivals {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                let doc = Json::parse(line.trim()).expect("shed reply parses");
                assert_retryable(&doc, "overloaded");
                assert!(doc.get("trace_id").is_none(), "a shed answers no request");
                assert_eof(&mut reader);
                shed_count += 1;
            }
            Ok(_) => panic!("a flooded connection was closed without any reply"),
            Err(_) => queued.push((c, stream, reader)), // still waiting: queued
        }
    }
    assert_eq!(shed_count, 7, "exactly queue-capacity connections may wait");
    assert_eq!(queued.len(), 1);

    // Freeing a worker admits the queued connection: its whole batch is
    // answered in request order.
    drop(squatters.remove(0));
    let (c, stream, mut reader) = queued.remove(0);
    stream
        .set_read_timeout(Some(Duration::from_millis(5000)))
        .expect("timeout");
    for i in 0..4 {
        let doc = read_traced(&mut reader, &format!("c{c}-{i}"));
        assert_eq!(doc.get("pong").and_then(Json::as_bool), Some(true));
    }
    drop((stream, reader));
    drop(squatters);

    let (mut stream, mut reader) = connect(addr, 5000);
    write_batch(&mut stream, &[op("health", "h")]);
    let doc = read_traced(&mut reader, "h");
    assert_eq!(doc.get("shed").and_then(Json::as_u64), Some(7));
    assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(0));
    drop((stream, reader));
    server.shutdown_and_join();
}

/// The degraded trip wire met inside pipelined batches: the failing
/// persists answer in order, the refused cold publish is one retryable
/// `degraded` reply in the middle of a batch whose reads around it are
/// still served, and a recovering publish clears the state for the very
/// next request of its batch.
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
    let (mut stream, mut reader) = connect(server.addr(), 30_000);
    let publish = |seed: u64, trace: &str| {
        tagged(
            PublishRequest::new(synthetic(seed), Algo::Anatomy).to_json(),
            trace,
        )
    };

    write_batch(&mut stream, &[publish(1, "healthy")]);
    let healthy = read_traced(&mut reader, "healthy");
    assert!(is_ok(&healthy), "{}", healthy.compact());
    let handle = healthy
        .get("handle")
        .and_then(Json::as_str)
        .expect("handle")
        .to_string();

    // The disk goes bad: a batch of fresh publishes all succeed (the
    // artifacts are resident) while their persists trip the wire.
    chaos.set_plan(FaultPlan::FailWrites);
    let trips: Vec<String> = (2..=(1 + u64::from(betalike_store::disk::DEGRADED_AFTER)))
        .map(|seed| publish(seed, &format!("trip-{seed}")))
        .collect();
    write_batch(&mut stream, &trips);
    for seed in 2..=(1 + u64::from(betalike_store::disk::DEGRADED_AFTER)) {
        let doc = read_traced(&mut reader, &format!("trip-{seed}"));
        assert!(is_ok(&doc), "{}", doc.compact());
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    }

    // One batch straddles the refusal: publish refused, reads served.
    let count = CountRequest {
        handle,
        qi_preds: vec![],
        sa_lo: 0,
        sa_hi: u32::MAX,
        exact: false,
    };
    write_batch(
        &mut stream,
        &[
            publish(99, "refused"),
            tagged(count.to_json(), "count"),
            op("health", "health"),
            op("ping", "ping"),
        ],
    );
    assert_retryable(&read_traced(&mut reader, "refused"), "degraded");
    let doc = read_traced(&mut reader, "count");
    assert!(doc.get("estimate").and_then(Json::as_f64) > Some(0.0));
    let doc = read_traced(&mut reader, "health");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("degraded"));
    assert!(is_ok(&read_traced(&mut reader, "ping")));

    // The disk recovers: the publish goes through and the health probe
    // right behind it in the same batch already reads `ok`.
    chaos.set_plan(FaultPlan::None);
    write_batch(
        &mut stream,
        &[publish(99, "recovered"), op("health", "after")],
    );
    assert!(is_ok(&read_traced(&mut reader, "recovered")));
    let doc = read_traced(&mut reader, "after");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    drop((stream, reader));
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A publish with a 1 ms `deadline_ms` at the head of a batch answers a
/// retryable `deadline` and the request behind it is served at once —
/// the batch is not held behind the detached computation — while another
/// connection stays served too; a later batch collects the finished
/// artifact from the cache.
#[test]
fn publish_deadline_cancels_the_request_not_the_computation() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let (mut stream, mut reader) = connect(server.addr(), 60_000);
    let request = PublishRequest::new(
        DatasetSpec::Census {
            rows: 8000,
            seed: 42,
        },
        Algo::Burel,
    );
    let mut hurried = request.to_json();
    if let Json::Obj(members) = &mut hurried {
        members.push(("deadline_ms".to_string(), Json::Num(1.0)));
    }
    write_batch(
        &mut stream,
        &[tagged(hurried, "hurried"), op("ping", "behind")],
    );
    assert_retryable(&read_traced(&mut reader, "hurried"), "deadline");
    assert!(is_ok(&read_traced(&mut reader, "behind")));

    let (mut other, mut other_reader) = connect(server.addr(), 5000);
    write_batch(&mut other, &[op("ping", "other")]);
    assert!(is_ok(&read_traced(&mut other_reader, "other")));
    drop((other, other_reader));

    write_batch(
        &mut stream,
        &[tagged(request.to_json(), "again"), op("ping", "done")],
    );
    let doc = read_traced(&mut reader, "again");
    assert_eq!(
        doc.get("cached").and_then(Json::as_bool),
        Some(true),
        "the detached computation must be reused: {}",
        doc.compact()
    );
    assert!(is_ok(&read_traced(&mut reader, "done")));
    drop((stream, reader));
    server.shutdown_and_join();
}

/// A one-worker server whose worker is held by a connection that
/// pipelined a batch and then went quiet: a second connection's batch
/// waits in the queue, activity on the first restarts its idle timer,
/// and its expiry frees the slot — the queued batch is then answered in
/// full and the expired connection reads EOF.
#[test]
fn idle_connections_expire_and_free_their_slot() {
    let server = serve(&ServerConfig {
        threads: 1,
        queue: 1,
        read_timeout_ms: 25,
        idle_timeout_ms: 300,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();
    let (mut holder, mut holder_reader) = connect(addr, 5000);
    let lines: Vec<String> = (0..3).map(|i| op("ping", &format!("a{i}"))).collect();
    write_batch(&mut holder, &lines);
    for i in 0..3 {
        read_traced(&mut holder_reader, &format!("a{i}"));
    }

    let (mut waiter, mut waiter_reader) = connect(addr, 50);
    let lines: Vec<String> = (0..3).map(|i| op("ping", &format!("b{i}"))).collect();
    write_batch(&mut waiter, &lines);
    std::thread::sleep(Duration::from_millis(100));
    let mut line = String::new();
    assert!(
        waiter_reader.read_line(&mut line).is_err(),
        "the queued batch must wait for the worker: {line}"
    );

    write_batch(&mut holder, &[op("ping", "a3")]);
    read_traced(&mut holder_reader, "a3");
    let restarted = Instant::now();

    waiter
        .set_read_timeout(Some(Duration::from_millis(5000)))
        .expect("timeout");
    for i in 0..3 {
        read_traced(&mut waiter_reader, &format!("b{i}"));
    }
    let waited = restarted.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "the slot freed {waited:?} after the holder's last request (idle timeout 300ms)"
    );
    assert_eof(&mut holder_reader);
    drop((waiter, waiter_reader, holder));
    server.shutdown_and_join();
}

/// Complete lines ahead of a stalled one in the same write are answered
/// in order; the stalled line then gets the retryable `deadline` error
/// and the connection closes.
#[test]
fn stalled_mid_request_lines_get_a_deadline_error() {
    let server = serve(&ServerConfig {
        threads: 1,
        read_timeout_ms: 25,
        request_timeout_ms: 200,
        ..Default::default()
    })
    .expect("bind");
    let (mut stream, mut reader) = connect(server.addr(), 5000);
    let bytes = format!(
        "{}\n{}\n{{\"op\":\"pi",
        op("ping", "first"),
        op("ping", "second")
    );
    stream.write_all(bytes.as_bytes()).expect("write");
    assert!(is_ok(&read_traced(&mut reader, "first")));
    assert!(is_ok(&read_traced(&mut reader, "second")));
    let doc = read_doc(&mut reader);
    assert_retryable(&doc, "deadline");
    assert_eof(&mut reader);
    drop(stream);
    server.shutdown_and_join();
}

/// The shutdown-latency contract with pipelining in the mix: each
/// worker's read loop ticks every `read_timeout_ms`, so shutdown
/// completes within a few ticks even with one worker parked after a
/// drained batch and the other parked on a half-received line behind an
/// answered one; both peers then read EOF.
#[test]
fn shutdown_latency_is_bounded_by_the_loop_tick() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let (mut drained, mut drained_reader) = connect(server.addr(), 5000);
    let lines: Vec<String> = (0..8).map(|i| op("ping", &format!("d{i}"))).collect();
    write_batch(&mut drained, &lines);
    for i in 0..8 {
        read_traced(&mut drained_reader, &format!("d{i}"));
    }
    let (mut partial, mut partial_reader) = connect(server.addr(), 5000);
    let bytes = format!("{}\n{{\"op\":\"pi", op("ping", "p0"));
    partial.write_all(bytes.as_bytes()).expect("write");
    read_traced(&mut partial_reader, "p0");

    let started = Instant::now();
    server.shutdown_and_join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown with parked pipelines took {elapsed:?} (tick is 25ms)"
    );
    assert_eof(&mut drained_reader);
    assert_eof(&mut partial_reader);
}

/// End-to-end retry with a shed injected *after progress*: a proxy
/// relays the real `betalike-client smoke` session's first two
/// exchanges, then answers the third request with an `overloaded` line
/// and hangs up. The client re-runs the whole (idempotent) smoke on a
/// fresh connection and exits 0 with every answer bit-identical.
#[test]
fn client_smoke_retries_through_an_injected_shed() {
    let server = serve(&ServerConfig {
        threads: 4,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let backend = server.addr();

    let relayed = Arc::new(AtomicUsize::new(0));
    let proxy = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr");
    let proxy_relayed = relayed.clone();
    std::thread::spawn(move || {
        // First connection: relay two request/response pairs, then shed.
        if let Ok((client_side, _)) = proxy.accept() {
            let Ok(server_side) = TcpStream::connect(backend) else {
                return;
            };
            let mut from_client = BufReader::new(client_side.try_clone().expect("clone"));
            let mut from_server = BufReader::new(server_side.try_clone().expect("clone"));
            let (mut to_client, mut to_server) = (client_side, server_side);
            for exchange in 0..3 {
                let mut request = String::new();
                if from_client.read_line(&mut request).unwrap_or(0) == 0 {
                    return;
                }
                if exchange == 2 {
                    let reply = retryable_error(ERR_OVERLOADED, "injected shed").compact() + "\n";
                    let _ = to_client.write_all(reply.as_bytes());
                    break;
                }
                let mut response = String::new();
                let relayed_ok = to_server.write_all(request.as_bytes()).is_ok()
                    && from_server.read_line(&mut response).unwrap_or(0) > 0
                    && to_client.write_all(response.as_bytes()).is_ok();
                if !relayed_ok {
                    return;
                }
                proxy_relayed.fetch_add(1, Ordering::SeqCst);
            }
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
    assert_eq!(
        relayed.load(Ordering::SeqCst),
        2,
        "the shed must land after the session made progress"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("failed retryably"),
        "the retry path must actually have engaged; stderr: {stderr}"
    );
    server.shutdown_and_join();
}
