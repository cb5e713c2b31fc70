//! A tiny blocking client for the wire protocol — what the integration
//! tests, the repository benchmark's load generator, and the
//! `betalike-client` binary all speak through.
//!
//! Retry-aware: the server's *retryable* refusals (`overloaded`,
//! `degraded`, `deadline` — see DESIGN.md §12) surface as
//! [`ClientError::Retryable`], and [`with_retries`] re-dials with a
//! deterministic jittered backoff ([`betalike_faults::RetryPolicy`]) until
//! the call succeeds, a fatal error appears, or attempts run out.
//!
//! One write per request line: [`Client::call_raw`] hands its line and the
//! terminating `\n` to the socket in a single `write_all`, as
//! [`Client::pipeline_raw`] does with a whole batch. On a `TCP_NODELAY`
//! socket each write leaves as its own segment, so writing the newline
//! apart made every request two segments, and the server woke for a line
//! it could not frame yet.

use crate::wire::{CountRequest, PublishRequest};
use betalike_faults::{RetryPolicy, Sleeper};
use betalike_microdata::json::Json;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything a call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke.
    Io(std::io::Error),
    /// The server closed the connection instead of answering (before any
    /// response byte, or mid-line). Distinct from [`ClientError::Io`] so
    /// callers — `betalike-client` maps this to its own exit code — can
    /// tell "the server went away" from "my network is broken", and
    /// distinct from [`ClientError::Protocol`] so a truncated response is
    /// not misreported as malformed JSON.
    Disconnected(String),
    /// The server refused the request *retryably* (`retryable: true` on
    /// the wire): it shed the connection under overload, its store is
    /// degraded, or a deadline expired. `code` is the stable machine code
    /// (`overloaded` / `degraded` / `deadline`); backing off and retrying
    /// the identical request is expected to eventually succeed.
    Retryable {
        /// Stable machine code from the wire response.
        code: String,
        /// Human-readable server message.
        message: String,
    },
    /// The server answered `ok: false` (fatal for the request as written).
    Server(String),
    /// The server answered something that is not a protocol response.
    Protocol(String),
}

impl ClientError {
    /// Whether backing off and retrying the identical request can
    /// succeed: explicit [`ClientError::Retryable`] refusals, plus
    /// [`ClientError::Disconnected`] (a draining or restarting server —
    /// re-dialing reaches its successor).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Retryable { .. } | ClientError::Disconnected(_)
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Disconnected(msg) => write!(f, "disconnected: {msg}"),
            ClientError::Retryable { code, message } => {
                write!(f, "retryable ({code}): {message}")
            }
            ClientError::Server(msg) => write!(f, "server: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful publish acknowledgment.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishReply {
    /// The content-addressed artifact handle.
    pub handle: String,
    /// The publication form (`generalized` / `perturbed` / `anatomy`).
    pub kind: String,
    /// Equivalence classes, for partition-backed artifacts.
    pub ecs: Option<u64>,
    /// Whether the artifact was already resident (a republish).
    pub cached: bool,
}

/// A successful count answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CountReply {
    /// The estimate from the published form.
    pub estimate: f64,
    /// The exact count, when the request asked for it.
    pub exact: Option<u64>,
}

/// One blocking connection to a `betalike-serve` instance.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // One round trip per request line: Nagle + delayed ACK would add
        // ~40ms to every call.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line and returns the raw response line
    /// (without the trailing newline). The byte-identity tests compare
    /// these lines directly.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a server that closes the connection
    /// instead of answering is `UnexpectedEof` — both the empty read and
    /// the *partial* line without a terminating `\n` (a mid-response
    /// close, which would otherwise be misdiagnosed downstream as a JSON
    /// parse error). A send that dies on a peer close (`BrokenPipe` /
    /// `ConnectionReset` / `ConnectionAborted` — a shedding server writes
    /// its one refusal line and hangs up, racing our write) first drains
    /// any buffered response so the caller sees the refusal's code, and
    /// otherwise surfaces as `UnexpectedEof` like every other disconnect.
    pub fn call_raw(&mut self, line: &str) -> std::io::Result<String> {
        call_on(&mut self.reader, &mut self.writer, line)
    }

    /// *Pipelines* a batch: writes every request line up front, then
    /// reads exactly one response line per request, in order. The server
    /// answers the batch one request at a time, in request order
    /// (DESIGN.md §15), so the batch pays one round trip instead of one
    /// per request. The whole batch is written before any response is
    /// read, so it must fit in the socket buffers — a few hundred small
    /// requests is far below that. Response lines are returned raw (no
    /// trailing newline), so byte-identity tests can compare them
    /// against [`Client::call_raw`] transcripts.
    ///
    /// # Errors
    ///
    /// As [`Client::call_raw`]: I/O failures, and a connection closed
    /// before all responses arrived is `UnexpectedEof` (responses that
    /// did arrive are lost to the caller — pipelining is all-or-nothing).
    pub fn pipeline_raw(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        pipeline_on(&mut self.reader, &mut self.writer, lines)
    }

    /// Sends one request document and returns the parsed `ok: true`
    /// response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the server rejects the request,
    /// [`ClientError::Protocol`] when the response is not protocol JSON,
    /// [`ClientError::Disconnected`] when the server closes the connection
    /// before the request is fully sent, or before or during the
    /// response.
    pub fn call(&mut self, request: &Json) -> Result<Json, ClientError> {
        let line = self.call_raw(&request.compact()).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ClientError::Disconnected(e.to_string())
            } else {
                ClientError::Io(e)
            }
        })?;
        let doc =
            Json::parse(&line).map_err(|e| ClientError::Protocol(format!("{e} in `{line}`")))?;
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(doc),
            Some(false) => {
                let message = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string();
                if doc.get("retryable").and_then(Json::as_bool) == Some(true) {
                    let code = doc
                        .get("code")
                        .and_then(Json::as_str)
                        .unwrap_or("retryable")
                        .to_string();
                    return Err(ClientError::Retryable { code, message });
                }
                Err(ClientError::Server(message))
            }
            None => Err(ClientError::Protocol(format!("no `ok` member in `{line}`"))),
        }
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("ping".into()),
        )]))
        .map(|_| ())
    }

    /// Lists what the server knows: loaded dataset keys, resident
    /// published handles, and (when a store is attached) stored handles.
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ClientError::Protocol`] if the reply
    /// lacks the `datasets` array.
    pub fn datasets(&mut self) -> Result<Json, ClientError> {
        let doc = self.call(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("datasets".into()),
        )]))?;
        if doc.get("datasets").is_none() {
            return Err(ClientError::Protocol(
                "datasets reply missing `datasets`".into(),
            ));
        }
        Ok(doc)
    }

    /// Publishes (or re-addresses) an artifact.
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ClientError::Protocol`] if the
    /// acknowledgment is malformed.
    pub fn publish(&mut self, request: &PublishRequest) -> Result<PublishReply, ClientError> {
        let doc = self.call(&request.to_json())?;
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ClientError::Protocol(format!("publish reply missing `{key}`")))
        };
        Ok(PublishReply {
            handle: field("handle")?,
            kind: field("kind")?,
            ecs: doc.get("ecs").and_then(Json::as_u64),
            cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// Runs one count query against a published handle.
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ClientError::Protocol`] if the answer is
    /// malformed.
    pub fn count(&mut self, request: &CountRequest) -> Result<CountReply, ClientError> {
        let doc = self.call(&request.to_json())?;
        let estimate = doc
            .get("estimate")
            .and_then(Json::as_f64)
            .ok_or_else(|| ClientError::Protocol("count reply missing `estimate`".into()))?;
        Ok(CountReply {
            estimate,
            exact: doc.get("exact").and_then(Json::as_u64),
        })
    }

    /// Fetches the privacy audit of a published handle.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn audit(&mut self, handle: &str) -> Result<Json, ClientError> {
        self.call(&Json::Obj(vec![
            ("op".to_string(), Json::Str("audit".into())),
            ("handle".to_string(), Json::Str(handle.into())),
        ]))
    }

    /// Runs the server-side conformance oracle over a published handle
    /// (optionally with the adversarial attack battery) and returns the
    /// verdict document.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn verify(&mut self, handle: &str, battery: bool) -> Result<Json, ClientError> {
        self.call(&Json::Obj(vec![
            ("op".to_string(), Json::Str("verify".into())),
            ("handle".to_string(), Json::Str(handle.into())),
            ("battery".to_string(), Json::Bool(battery)),
        ]))
    }

    /// Fetches the server's health document: status, worker/queue gauges,
    /// shed count, and store state (see DESIGN.md §12).
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ClientError::Protocol`] if the reply
    /// lacks the `status` member.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        let doc = self.call(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("health".into()),
        )]))?;
        if doc.get("status").is_none() {
            return Err(ClientError::Protocol(
                "health reply missing `status`".into(),
            ));
        }
        Ok(doc)
    }

    /// Fetches the server's metrics snapshot: every counter, gauge, and
    /// latency histogram (count / sum / p50 / p99 / p999 nanoseconds),
    /// plus the same snapshot as Prometheus exposition text under the
    /// `prometheus` member (see DESIGN.md §14).
    ///
    /// # Errors
    ///
    /// As [`Client::call`], plus [`ClientError::Protocol`] if the reply
    /// lacks the `counters` member.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let doc = self.call(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("metrics".into()),
        )]))?;
        if doc.get("counters").is_none() {
            return Err(ClientError::Protocol(
                "metrics reply missing `counters`".into(),
            ));
        }
        Ok(doc)
    }

    /// Asks the server to stop accepting connections and drain.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("shutdown".into()),
        )]))
        .map(|_| ())
    }
}

/// Writes `lines`, each with its `\n`, to `out` in one `write_all`,
/// then flushes.
fn send_lines<W: Write, S: AsRef<str>>(out: &mut W, lines: &[S]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(lines.iter().map(|l| l.as_ref().len() + 1).sum());
    for line in lines {
        buf.extend_from_slice(line.as_ref().as_bytes());
        buf.push(b'\n');
    }
    out.write_all(&buf)?;
    out.flush()
}

fn disconnected(message: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::UnexpectedEof, message)
}

/// Reads one response line and returns it without its line ending. A
/// close before the line ends is `UnexpectedEof`.
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<String> {
    let mut response = String::new();
    let n = reader.read_line(&mut response)?;
    if n == 0 {
        return Err(disconnected(
            "server closed the connection before responding".into(),
        ));
    }
    if !response.ends_with('\n') {
        return Err(disconnected(format!(
            "server closed the connection mid-response ({n} bytes of a partial line)"
        )));
    }
    response.truncate(response.trim_end_matches(['\n', '\r']).len());
    Ok(response)
}

/// [`Client::call_raw`] over any transport.
fn call_on<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    line: &str,
) -> std::io::Result<String> {
    if let Err(e) = send_lines(writer, &[line]) {
        use ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
        if !matches!(e.kind(), BrokenPipe | ConnectionReset | ConnectionAborted) {
            return Err(e);
        }
        // The peer hung up while we wrote; its refusal line may be
        // buffered already.
        return read_response(reader).map_err(|_| {
            disconnected(format!(
                "server closed the connection before the request was sent ({e})"
            ))
        });
    }
    read_response(reader)
}

/// [`Client::pipeline_raw`] over any transport.
fn pipeline_on<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    lines: &[String],
) -> std::io::Result<Vec<String>> {
    send_lines(writer, lines)?;
    let mut responses = Vec::with_capacity(lines.len());
    for _ in 0..lines.len() {
        match read_response(reader) {
            Ok(response) => responses.push(response),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                return Err(disconnected(format!(
                    "{e}, after {} of {} pipelined responses",
                    responses.len(),
                    lines.len()
                )));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(responses)
}

/// Runs `f` against an existing connection, retrying *explicitly
/// retryable* server refusals ([`ClientError::Retryable`] — the server
/// answered, so the connection is still usable) with the policy's
/// deterministic backoff. Disconnects are NOT retried here: a dead
/// connection cannot carry another attempt — use [`with_retries`] to
/// re-dial.
///
/// # Errors
///
/// The first non-retryable error, or the last error once
/// `policy.max_attempts` attempts are exhausted.
pub fn retry_call<T>(
    client: &mut Client,
    policy: &RetryPolicy,
    sleeper: &dyn Sleeper,
    mut f: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let attempts = policy.max_attempts.max(1);
    for attempt in 1..=attempts {
        match f(client) {
            Ok(v) => return Ok(v),
            Err(e) => {
                let retry_here = matches!(e, ClientError::Retryable { .. });
                if attempt >= attempts || !retry_here {
                    return Err(e);
                }
                sleeper.sleep(Duration::from_millis(policy.delay_ms(attempt)));
            }
        }
    }
    Err(ClientError::Protocol("retry loop made no attempt".into()))
}

/// Dials `addr` and runs `f` on a fresh connection, retrying retryable
/// failures — [`ClientError::Retryable`] refusals *and*
/// [`ClientError::Disconnected`] — with the policy's deterministic
/// jittered backoff, reconnecting before every attempt. Connect failures
/// are fatal ([`ClientError::Io`]): "nothing is listening" is not an
/// overload signal.
///
/// The closure must be idempotent: an attempt that was answered but lost
/// mid-response is re-run in full.
///
/// # Errors
///
/// The first fatal error, or the last retryable error once
/// `policy.max_attempts` attempts are exhausted (so an exhausted
/// [`ClientError::Disconnected`] still maps to `betalike-client`'s
/// disconnect exit code).
pub fn with_retries<T>(
    addr: &str,
    policy: &RetryPolicy,
    sleeper: &dyn Sleeper,
    mut f: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let attempts = policy.max_attempts.max(1);
    for attempt in 1..=attempts {
        let mut client = Client::connect(addr)?;
        match f(&mut client) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt >= attempts || !e.is_retryable() {
                    return Err(e);
                }
                sleeper.sleep(Duration::from_millis(policy.delay_ms(attempt)));
            }
        }
    }
    Err(ClientError::Protocol("retry loop made no attempt".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{error_response, ok_response, retryable_error, ERR_OVERLOADED};
    use betalike_faults::RecordingSleeper;
    use std::net::TcpListener;

    /// A scripted one-shot server: each accepted connection reads one
    /// request line, writes the next scripted reply (empty string =
    /// close without answering), and hangs up.
    fn scripted(replies: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for reply in replies {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                if reply.is_empty() {
                    continue; // drop: the client sees a disconnect
                }
                let mut stream = stream;
                stream.write_all((reply + "\n").as_bytes()).unwrap();
                stream.flush().unwrap();
            }
        });
        (addr, handle)
    }

    fn ping(client: &mut Client) -> Result<(), ClientError> {
        client.ping()
    }

    /// A transport that takes every byte it is offered and counts the
    /// `write` calls that offered them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_line_or_a_batch_is_one_write() {
        let mut replies = std::io::Cursor::new(
            "{\"ok\":true}\n{\"ok\":true,\"n\":2}\r\n{\"ok\":true,\"n\":3}\n".as_bytes(),
        );
        let mut out = CountingWriter::default();
        let ping = r#"{"op":"ping"}"#;
        let reply = call_on(&mut replies, &mut out, ping).unwrap();
        assert_eq!(reply, r#"{"ok":true}"#);
        assert_eq!(out.writes, 1, "the line and its newline go in one write");
        assert_eq!(out.bytes, b"{\"op\":\"ping\"}\n");

        let batch = [ping.to_string(), r#"{"op":"health"}"#.to_string()];
        let replies = pipeline_on(&mut replies, &mut out, &batch).unwrap();
        assert_eq!(replies, [r#"{"ok":true,"n":2}"#, r#"{"ok":true,"n":3}"#]);
        assert_eq!(out.writes, 2, "a whole batch goes in one write");
        assert_eq!(
            out.bytes,
            b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"health\"}\n"
        );
    }

    #[test]
    fn a_close_before_the_line_ends_is_unexpected_eof() {
        for replies in ["", "{\"ok\":tr"] {
            let mut replies = std::io::Cursor::new(replies.as_bytes());
            let err = call_on(&mut replies, &mut std::io::sink(), "{}").unwrap_err();
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
        }
        let mut replies = std::io::Cursor::new("{}\n".as_bytes());
        let two = ["{}".to_string(), "{}".to_string()];
        let err = pipeline_on(&mut replies, &mut std::io::sink(), &two).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(
            err.to_string()
                .ends_with("after 1 of 2 pipelined responses"),
            "{err}"
        );
    }

    #[test]
    fn retryable_refusals_are_classified_with_their_code() {
        let (addr, server) = scripted(vec![retryable_error(ERR_OVERLOADED, "busy").compact()]);
        let mut client = Client::connect(&addr).unwrap();
        let err = client.ping().unwrap_err();
        match &err {
            ClientError::Retryable { code, message } => {
                assert_eq!(code, "overloaded");
                assert_eq!(message, "busy");
            }
            other => panic!("expected Retryable, got {other:?}"),
        }
        assert!(err.is_retryable());
        assert!(!ClientError::Server("nope".into()).is_retryable());
        server.join().unwrap();
    }

    #[test]
    fn send_side_peer_close_is_a_retryable_disconnect() {
        // A shedding server hangs up while the client is still writing;
        // the write dies on EPIPE / ECONNRESET. That must classify as
        // Disconnected (retryable), never as a fatal i/o error — under
        // flood every `--retries` client would otherwise exit hard.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // close without reading: queued bytes draw an RST
        });
        let mut client = Client::connect(&addr).unwrap();
        server.join().unwrap();
        // Large enough to overrun every socket buffer, so write_all
        // cannot complete before the peer's reset is observed.
        let big = "x".repeat(8 << 20);
        let err = client
            .call(&Json::Obj(vec![("pad".into(), Json::Str(big))]))
            .unwrap_err();
        assert!(
            matches!(err, ClientError::Disconnected(_)),
            "expected Disconnected, got {err:?}"
        );
        assert!(err.is_retryable());
    }

    #[test]
    fn with_retries_backs_off_deterministically_then_succeeds() {
        let pong = ok_response(vec![("pong".into(), Json::Bool(true))]).compact();
        let (addr, server) = scripted(vec![
            retryable_error(ERR_OVERLOADED, "busy").compact(),
            retryable_error(ERR_OVERLOADED, "busy").compact(),
            pong,
        ]);
        let policy = RetryPolicy::standard(4, 7);
        let sleeper = RecordingSleeper::new();
        with_retries(&addr, &policy, &sleeper, ping).unwrap();
        let slept: Vec<u64> = sleeper
            .slept()
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect();
        // Two refusals → two backoffs, exactly the policy's schedule
        // prefix (the jitter is seeded, so this is reproducible).
        assert_eq!(slept, vec![policy.delay_ms(1), policy.delay_ms(2)]);
        server.join().unwrap();
    }

    #[test]
    fn fatal_server_errors_are_never_retried() {
        let (addr, server) = scripted(vec![error_response("nope").compact()]);
        let policy = RetryPolicy::standard(5, 0);
        let sleeper = RecordingSleeper::new();
        let err = with_retries(&addr, &policy, &sleeper, ping).unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "got {err:?}");
        assert!(sleeper.slept().is_empty(), "fatal errors must not back off");
        server.join().unwrap();
    }

    #[test]
    fn disconnects_are_retried_by_reconnecting() {
        let pong = ok_response(vec![("pong".into(), Json::Bool(true))]).compact();
        let (addr, server) = scripted(vec![String::new(), pong]);
        let policy = RetryPolicy::standard(3, 11);
        let sleeper = RecordingSleeper::new();
        with_retries(&addr, &policy, &sleeper, ping).unwrap();
        assert_eq!(sleeper.slept().len(), 1);
        server.join().unwrap();
    }

    #[test]
    fn exhausted_retries_return_the_last_retryable_error() {
        let replies = vec![String::new(), String::new()];
        let (addr, server) = scripted(replies);
        let policy = RetryPolicy::standard(2, 3);
        let sleeper = RecordingSleeper::new();
        let err = with_retries(&addr, &policy, &sleeper, ping).unwrap_err();
        // Still a Disconnected — betalike-client's exit-3 mapping survives
        // the retry wrapper.
        assert!(matches!(err, ClientError::Disconnected(_)), "got {err:?}");
        assert_eq!(sleeper.slept().len(), 1, "n attempts → n-1 backoffs");
        server.join().unwrap();
    }

    #[test]
    fn retry_call_reuses_the_connection_for_refusals_only() {
        let pong = ok_response(vec![("pong".into(), Json::Bool(true))]).compact();
        // One connection answering twice: a refusal, then success.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            for reply in [retryable_error(ERR_OVERLOADED, "busy").compact(), pong] {
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                stream.write_all((reply + "\n").as_bytes()).unwrap();
            }
        });
        let policy = RetryPolicy::standard(3, 1);
        let sleeper = RecordingSleeper::new();
        let mut client = Client::connect(&addr).unwrap();
        retry_call(&mut client, &policy, &sleeper, ping).unwrap();
        assert_eq!(sleeper.slept().len(), 1);
        server.join().unwrap();
    }
}
