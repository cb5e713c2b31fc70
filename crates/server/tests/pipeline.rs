//! The deterministic protocol harness (DESIGN.md §15): drive the
//! per-connection [`Conn`] state machine with *scripted* byte-arrival
//! schedules — split mid-line, coalesced, one byte at a time, slow
//! drains, shuffled completion orders — answer its framed requests
//! through the socketless [`LocalServer`] seam, and assert the bytes the
//! machine emits are **byte-identical** to what a blocking connection
//! answering one request at a time would have written. Because the
//! server drives this same machine over the same dispatch function,
//! equality here is equality of its wire behavior.
//!
//! The property-based half generates arbitrary request batches × chunk
//! boundaries × completion permutations × drain granularities and checks
//! the same contract, plus the pipelining guarantees the docs promise:
//! responses come back in request order and every `trace_id` pairs 1:1
//! with its request. TCP tests at the bottom check the `too_large`
//! request-line bound, pipelined-vs-serial byte-identity, and ordering
//! of a deep pipeline on real sockets.

use betalike_microdata::json::Json;
use betalike_server::{
    serve, Algo, Client, Conn, CountRequest, DatasetSpec, LocalServer, PublishRequest, ServerConfig,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn spec() -> DatasetSpec {
    DatasetSpec::Synthetic { rows: 80, seed: 7 }
}

/// A socketless server. Observability timings are off so `metrics`
/// output is a pure function of the request sequence (latency histograms
/// would otherwise read the wall clock); counters and gauges still run.
fn local() -> LocalServer {
    LocalServer::new(&ServerConfig {
        obs: false,
        ..Default::default()
    })
    .expect("local server")
}

/// `doc` with a `trace_id` member appended, compacted to a request line.
fn with_trace(mut doc: Json, id: &str) -> String {
    if let Json::Obj(members) = &mut doc {
        members.push(("trace_id".to_string(), Json::Str(id.to_string())));
    }
    doc.compact()
}

fn ping_doc() -> Json {
    Json::Obj(vec![("op".to_string(), Json::Str("ping".into()))])
}

fn count_doc(handle: &str) -> Json {
    CountRequest {
        handle: handle.to_string(),
        qi_preds: vec![],
        sa_lo: 0,
        sa_hi: u32::MAX,
        exact: false,
    }
    .to_json()
}

/// The reference transcript: what the blocking path writes for `lines`
/// served one at a time in order (blank lines frame no request and
/// answer nothing, exactly like the line loop).
fn serial_transcript(server: &LocalServer, lines: &[String]) -> String {
    let mut out = String::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (response, _stop) = server.respond_line(line);
        out.push_str(&response);
        out.push('\n');
    }
    out
}

/// Drives one [`Conn`] through a scripted schedule: the wire bytes
/// arrive as `chunks`, framed requests are answered via `server` (in
/// arrival order, like the serial client), completions are filed in the
/// order given by `order` (indices into the framed sequence), and output
/// is drained at most `drain` bytes per "writable window". Returns the
/// bytes the connection wrote.
fn run_schedule(
    server: &LocalServer,
    chunks: &[Vec<u8>],
    order: &[usize],
    drain: usize,
    eof: bool,
) -> String {
    let mut conn = Conn::new(server.max_line_bytes());
    let mut framed = Vec::new();
    for chunk in chunks {
        framed.extend(conn.on_bytes(chunk));
    }
    if eof {
        framed.extend(conn.on_eof());
    }
    let responses: Vec<(u64, String, bool)> = framed
        .iter()
        .map(|request| {
            let (response, stop) = server.respond_line(&request.text);
            (request.seq, response, stop)
        })
        .collect();
    for &index in order {
        if let Some((seq, response, stop)) = responses.get(index) {
            conn.complete(*seq, response, *stop);
        }
    }
    let mut bytes = Vec::new();
    while conn.has_output() {
        let take: Vec<u8> = conn.output().iter().take(drain.max(1)).copied().collect();
        bytes.extend_from_slice(&take);
        conn.consume(take.len());
    }
    String::from_utf8(bytes).expect("wire output is UTF-8")
}

/// Splits `wire` into chunks of cycled `sizes` — an arbitrary packet
/// arrival schedule.
fn chunks_of(wire: &[u8], sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < wire.len() {
        let size = sizes.get(i % sizes.len()).copied().unwrap_or(1).max(1);
        let end = (at + size).min(wire.len());
        chunks.push(wire[at..end].to_vec());
        at = end;
        i += 1;
    }
    chunks
}

/// Every wire op, served through the machine under adversarial chunking
/// and drain schedules, answers byte-identically to the serial blocking
/// path — including the publish/count/audit/verify data path, the cached
/// re-publish, and both error shapes (unknown op, malformed JSON).
#[test]
fn every_wire_op_is_byte_identical_across_chunk_schedules() {
    // The handle is content-addressed and deterministic, so one scratch
    // server names it for all the fresh servers below.
    let scratch = local();
    let (publish_response, _) = scratch.respond_line(
        &PublishRequest::new(spec(), Algo::Anatomy)
            .to_json()
            .compact(),
    );
    let handle = Json::parse(&publish_response)
        .expect("publish response parses")
        .get("handle")
        .and_then(Json::as_str)
        .expect("publish response names a handle")
        .to_string();

    let mut audit = Json::Obj(vec![
        ("op".to_string(), Json::Str("audit".into())),
        ("handle".to_string(), Json::Str(handle.clone())),
    ]);
    let verify = Json::Obj(vec![
        ("op".to_string(), Json::Str("verify".into())),
        ("handle".to_string(), Json::Str(handle.clone())),
        ("battery".to_string(), Json::Bool(false)),
    ]);
    if let Json::Obj(members) = &mut audit {
        members.push(("trace_id".to_string(), Json::Str("t-audit".into())));
    }
    let lines: Vec<String> = vec![
        with_trace(ping_doc(), "t-ping"),
        "{\"op\":\"datasets\"}".to_string(),
        PublishRequest::new(spec(), Algo::Anatomy)
            .to_json()
            .compact(),
        // The same publish again: must answer `cached: true` both ways.
        PublishRequest::new(spec(), Algo::Anatomy)
            .to_json()
            .compact(),
        with_trace(count_doc(&handle), "t-count"),
        audit.compact(),
        verify.compact(),
        "{\"op\":\"health\"}".to_string(),
        "{\"op\":\"metrics\"}".to_string(),
        with_trace(count_doc("no-such-handle"), "t-miss"),
        "{\"op\":\"no_such_op\"}".to_string(),
        "this is not json".to_string(),
        String::new(), // a blank line frames nothing
    ];
    let wire: Vec<u8> = lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
        .collect();

    let reference = serial_transcript(&local(), &lines);
    assert!(!reference.is_empty());
    let in_order: Vec<usize> = (0..lines.len()).collect();
    let reversed: Vec<usize> = (0..lines.len()).rev().collect();
    let schedules: Vec<(&str, Vec<Vec<u8>>)> = vec![
        ("one coalesced packet", vec![wire.clone()]),
        ("one byte at a time", chunks_of(&wire, &[1])),
        ("mid-line splits", chunks_of(&wire, &[3, 7, 11])),
        ("large odd chunks", chunks_of(&wire, &[137])),
    ];
    for (name, chunks) in &schedules {
        for (order_name, order) in [("in order", &in_order), ("reversed", &reversed)] {
            for drain in [1usize, 3, 4096] {
                let got = run_schedule(&local(), chunks, order, drain, false);
                assert_eq!(
                    got, reference,
                    "schedule `{name}`, completions {order_name}, drain {drain} \
                     diverged from the serial transcript"
                );
            }
        }
    }

    // The trace_ids pair 1:1 and in request order.
    let traced: Vec<String> = reference
        .lines()
        .filter_map(|l| {
            Json::parse(l)
                .ok()?
                .get("trace_id")
                .and_then(Json::as_str)
                .map(String::from)
        })
        .collect();
    assert_eq!(traced, ["t-ping", "t-count", "t-audit", "t-miss"]);
}

/// A batch ending in an *unterminated* line: EOF frames it exactly like
/// the blocking path's final `read_until`, and the response is still
/// owed (and written) before the connection closes.
#[test]
fn eof_framed_final_line_answers_like_the_blocking_path() {
    let lines = vec![with_trace(ping_doc(), "a"), with_trace(ping_doc(), "b")];
    let reference = serial_transcript(&local(), &lines);
    // The wire has no trailing newline on the final request.
    let wire = format!("{}\n{}", lines[0], lines[1]).into_bytes();
    for sizes in [&[1usize][..], &[5, 2][..], &[4096][..]] {
        let got = run_schedule(&local(), &chunks_of(&wire, sizes), &[1, 0], 7, true);
        assert_eq!(got, reference);
    }
}

/// A `shutdown` mid-pipeline answers the acknowledgment in its slot and
/// drops every later slot: nothing is written past the ack, matching the
/// blocking path, which stops reading after serving the stop line.
#[test]
fn shutdown_mid_pipeline_acks_in_order_and_drops_the_tail() {
    let server = local();
    let lines = [
        with_trace(ping_doc(), "before"),
        with_trace(
            Json::Obj(vec![("op".to_string(), Json::Str("shutdown".into()))]),
            "stop",
        ),
        with_trace(ping_doc(), "after"),
    ];
    let wire: Vec<u8> = lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
        .collect();
    // Complete out of order: the tail first, then the stop, then the head.
    let got = run_schedule(&server, &chunks_of(&wire, &[9]), &[2, 1, 0], 4096, false);
    let responses: Vec<Json> = got
        .lines()
        .map(|l| Json::parse(l).expect("response parses"))
        .collect();
    assert_eq!(responses.len(), 2, "nothing may follow the ack: {got}");
    assert_eq!(
        responses[0].get("trace_id").and_then(Json::as_str),
        Some("before")
    );
    assert_eq!(
        responses[1].get("trace_id").and_then(Json::as_str),
        Some("stop")
    );
    assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
}

/// One line of each error class, scheduled byte-at-a-time, answers the
/// identical bytes the serial path answers — the UTF-8 refusal stays
/// in-slot (the connection survives) and the `too_large` refusal closes.
#[test]
fn framing_refusals_match_the_serial_path_shapes() {
    // UTF-8 refusal between two good requests: three lines out, the bad
    // one answered in order, connection still open.
    let server = local();
    let mut wire = with_trace(ping_doc(), "a").into_bytes();
    wire.push(b'\n');
    wire.extend_from_slice(&[0xff, 0xfe, b'\n']);
    wire.extend(with_trace(ping_doc(), "b").into_bytes());
    wire.push(b'\n');
    let got = run_schedule(&server, &chunks_of(&wire, &[1]), &[1, 0], 4096, false);
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 3);
    let refusal = Json::parse(lines[1]).expect("refusal parses");
    assert_eq!(refusal.get("ok").and_then(Json::as_bool), Some(false));
    assert!(refusal
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains("UTF-8")));

    // Oversized line pipelined behind a good request: the predecessor
    // answers first, then exactly one fatal `too_large` line.
    let server = LocalServer::new(&ServerConfig {
        obs: false,
        max_line_bytes: 48,
        ..Default::default()
    })
    .expect("local server");
    let mut wire = with_trace(ping_doc(), "a").into_bytes();
    wire.push(b'\n');
    wire.extend_from_slice(&[b'x'; 200]);
    let got = run_schedule(&server, &chunks_of(&wire, &[13]), &[0], 4096, false);
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 2, "{got}");
    let refusal = Json::parse(lines[1]).expect("too_large parses");
    assert_eq!(
        refusal.get("code").and_then(Json::as_str),
        Some("too_large")
    );
    assert!(
        refusal.get("retryable").is_none(),
        "too_large is fatal, not retryable"
    );
}

/// One request line from the generator's op pool. Kinds cover the
/// happy path, both error shapes, and blank lines; requests that can
/// carry a `trace_id` carry `t{i}` so pairing is checkable.
fn generated_line(kind: u8, i: usize) -> String {
    match kind % 6 {
        0 => with_trace(ping_doc(), &format!("t{i}")),
        1 => "{\"op\":\"datasets\"}".to_string(),
        2 => with_trace(count_doc("no-such-handle"), &format!("t{i}")),
        3 => "{\"op\":\"no_such_op\"}".to_string(),
        4 => "this is not json".to_string(),
        _ => String::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary request batches × packet boundaries × completion
    /// permutations × drain granularities: the machine's output is
    /// byte-identical to the serial transcript, responses are in request
    /// order, and every `trace_id` sent comes back exactly once, paired
    /// with its request's position.
    #[test]
    fn arbitrary_schedules_answer_byte_identically(
        kinds in proptest::collection::vec(0u8..255, 1..24),
        sizes in proptest::collection::vec(1usize..48, 1..16),
        shuffle in proptest::collection::vec(0u32..u32::MAX, 24..25),
        drain in 1usize..96,
    ) {
        let lines: Vec<String> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| generated_line(k, i))
            .collect();
        let wire: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
            .collect();
        let reference = serial_transcript(&local(), &lines);

        // `shuffle` keys order the completion permutation.
        let mut order: Vec<usize> = (0..lines.len()).collect();
        order.sort_by_key(|&i| shuffle.get(i).copied().unwrap_or(0));

        let chunks = chunks_of(&wire, &sizes);
        let got = run_schedule(&local(), &chunks, &order, drain, false);
        prop_assert_eq!(&got, &reference);

        // Pipelining contract: trace_ids echo 1:1, in request order.
        let sent: Vec<String> = lines
            .iter()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| {
                Json::parse(l).ok()?.get("trace_id").and_then(Json::as_str).map(String::from)
            })
            .collect();
        let echoed: Vec<String> = got
            .lines()
            .filter_map(|l| {
                Json::parse(l).ok()?.get("trace_id").and_then(Json::as_str).map(String::from)
            })
            .collect();
        prop_assert_eq!(sent, echoed);
    }
}

/// The request-line byte bound over real sockets: a pipelined good
/// request is answered, the flood gets exactly one parseable fatal
/// `too_large` line, then the server hangs up — it never buffers without
/// limit.
#[test]
fn oversized_lines_are_refused_over_tcp() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        max_line_bytes: 64,
        ..Default::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(5000)))
        .expect("timeout");
    stream
        .write_all(b"{\"op\":\"ping\",\"trace_id\":\"before\"}\n")
        .expect("write ping");
    // A 4 KiB line with no newline in sight: crosses the 64-byte bound
    // long before any terminator.
    stream.write_all(&[b'x'; 4096]).expect("write flood");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("pipelined ping answered");
    let pong = Json::parse(line.trim()).expect("pong parses");
    assert_eq!(
        pong.get("trace_id").and_then(Json::as_str),
        Some("before"),
        "the pipelined predecessor answers first"
    );
    line.clear();
    reader.read_line(&mut line).expect("too_large refusal");
    let refusal = Json::parse(line.trim()).expect("refusal parses");
    assert_eq!(refusal.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refusal.get("code").and_then(Json::as_str),
        Some("too_large"),
        "{line}"
    );
    assert!(refusal.get("retryable").is_none());
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap_or(1),
        0,
        "the connection must close after the refusal"
    );
    drop(stream);
    server.shutdown_and_join();
}

/// Pipelined-vs-serial byte-identity over real sockets: the same batch,
/// written at full depth on one connection and sent one call at a time
/// on another, answers identical bytes — publish, count, audit, verify,
/// ping, datasets, and an error, trace_ids echoed throughout.
#[test]
fn pipelined_batches_answer_byte_identically_to_serial_calls_over_tcp() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");

    let publish = PublishRequest::new(spec(), Algo::Anatomy)
        .to_json()
        .compact();
    // Warm the artifact cache with a probe publish so the batch's
    // publishes answer `cached: true` in both transcripts.
    let handle = {
        let mut probe = Client::connect(server.addr()).expect("connect probe");
        probe
            .publish(&PublishRequest::new(spec(), Algo::Anatomy))
            .expect("probe publish")
            .handle
    };

    let lines: Vec<String> = vec![
        publish.clone(),
        with_trace(ping_doc(), "p1"),
        "{\"op\":\"datasets\"}".to_string(),
        with_trace(count_doc(&handle), "c1"),
        Json::Obj(vec![
            ("op".to_string(), Json::Str("audit".into())),
            ("handle".to_string(), Json::Str(handle.clone())),
        ])
        .compact(),
        Json::Obj(vec![
            ("op".to_string(), Json::Str("verify".into())),
            ("handle".to_string(), Json::Str(handle.clone())),
            ("battery".to_string(), Json::Bool(false)),
        ])
        .compact(),
        with_trace(count_doc("no-such-handle"), "c2"),
        publish,
    ];

    // Serial: one call, one reply, in turn.
    let mut serial = Client::connect(server.addr()).expect("connect serial");
    let expected: Vec<String> = lines
        .iter()
        .map(|l| serial.call_raw(l).expect("serial call"))
        .collect();
    drop(serial);

    // Pipelined: the whole batch on the wire before the first read.
    let mut pipelined = Client::connect(server.addr()).expect("connect pipelined");
    let got = pipelined.pipeline_raw(&lines).expect("pipeline");
    drop(pipelined);

    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "response {i} diverged between pipelined and serial");
    }
    server.shutdown_and_join();
}

/// A deep pipeline neither deadlocks nor reorders: 192 pings in one write
/// come back as exactly 192 pongs, trace_ids in request order.
#[test]
fn deep_pipelines_stay_ordered() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let depth = 192;
    let lines: Vec<String> = (0..depth)
        .map(|i| with_trace(ping_doc(), &format!("deep-{i}")))
        .collect();
    let mut client = Client::connect(server.addr()).expect("connect");
    let replies = client.pipeline_raw(&lines).expect("deep pipeline");
    assert_eq!(replies.len(), depth);
    for (i, reply) in replies.iter().enumerate() {
        let doc = Json::parse(reply).expect("reply parses");
        assert_eq!(
            doc.get("trace_id").and_then(Json::as_str),
            Some(format!("deep-{i}").as_str()),
            "response {i} out of order"
        );
    }
    drop(client);
    server.shutdown_and_join();
}
