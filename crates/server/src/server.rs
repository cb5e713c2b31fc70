//! The resident TCP service: connection handling, request dispatch.
//!
//! One acceptor thread hands accepted connections to a fixed pool of
//! worker threads over a *bounded* channel; each worker owns a connection
//! for its lifetime and processes newline-delimited JSON requests in
//! order (see [`crate::wire`]). Framing and response ordering run
//! through the [`crate::conn::Conn`] state machine, so a client may
//! *pipeline* — write many request lines before reading — and still get
//! one response per request, in request order (DESIGN.md §15); the
//! deterministic harness in `tests/pipeline.rs` pins that wire behavior
//! byte for byte. All published state lives in one shared `State`: the
//! dataset registry and a content-addressed artifact cache whose entries
//! are computed at most once and then served lock-free (workers hold
//! `Arc`s; the cache mutex guards only map lookups).
//!
//! # Overload protection (DESIGN.md §12)
//!
//! Admission is bounded: when every worker is busy and the queue holds
//! [`ServerConfig::queue`] waiting connections, further arrivals are
//! *shed* — the acceptor writes one retryable
//! [`crate::wire::ERR_OVERLOADED`] error line and closes, instead of
//! letting connections pile up unread until the kernel backlog turns them
//! into opaque resets. Workers poll reads on a configurable tick
//! ([`ServerConfig::read_timeout_ms`]) so idle and half-written requests
//! can expire ([`ServerConfig::idle_timeout_ms`] /
//! [`ServerConfig::request_timeout_ms`]); cold-cache publishes accept an
//! optional `deadline_ms` after which the worker answers a retryable
//! `deadline` error while the computation continues in the background.
//! When the durable store reports persistent write failures the server
//! turns read-only: cold publishes are refused with a retryable `degraded`
//! error, everything already resident or stored keeps serving. The
//! `health` op reports all of it.
//!
//! Shutdown is cooperative: a `shutdown` request (or
//! [`ServerHandle::shutdown`]) raises a flag and pokes the acceptor with a
//! loopback connection; the acceptor stops handing out connections, the
//! channel closes, and workers exit once their current connections finish.
//! Workers observe the flag within one read tick, so shutdown latency is
//! bounded by `read_timeout_ms` plus the in-flight request.

use crate::artifact::Artifact;
use crate::conn::Conn;
use crate::obs::ServerObs;
use crate::registry::{DatasetSpec, Registry};
use crate::result_cache::{cache_key, ResultCache, DEFAULT_RESULT_CACHE};
use crate::wire::{
    error_response, ok_response, retryable_error, CountRequest, PublishRequest, ERR_DEADLINE,
    ERR_DEGRADED, ERR_OVERLOADED,
};
use betalike_faults::{RealVfs, Vfs};
use betalike_microdata::json::Json;
use betalike_obs::{Level, Registry as MetricsRegistry, Trace};
use betalike_query::{AggQuery, CatalogStats, RangePred};
use betalike_store::{ArtifactStore, StoreObs};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Admission-queue depth when [`ServerConfig::queue`] is `0`.
pub const DEFAULT_QUEUE: usize = 64;
/// Read poll tick in milliseconds when [`ServerConfig::read_timeout_ms`]
/// is `0`. This is also the shutdown-latency bound for idle workers.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 200;
/// Poll step for deadline-bounded publishes, milliseconds.
const PUBLISH_POLL_MS: u64 = 10;

/// How a server is started.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads; `0` chooses `max(8, mini_rayon::threads())` so a
    /// default server already sustains eight concurrent clients.
    ///
    /// Connections are *sticky*: a worker owns one connection until the
    /// client disconnects. Clients beyond the pool size queue (their TCP
    /// connect succeeds but no request is read) until a worker frees up —
    /// size the pool for the expected number of simultaneously *open*
    /// connections, not the request rate.
    pub threads: usize,
    /// A dataset to materialize before accepting traffic, so first-query
    /// latency is not paid by a client.
    pub preload: Option<DatasetSpec>,
    /// Durable publication storage. When set, every fresh publish is
    /// written through to `<data-dir>/artifacts/` and lookups of handles
    /// published by *previous* processes lazily load the stored artifact —
    /// a restarted server answers `count`/`audit` for them bit-identically
    /// with zero pipeline recomputation.
    pub data_dir: Option<PathBuf>,
    /// Read poll tick in milliseconds (`0` →
    /// [`DEFAULT_READ_TIMEOUT_MS`]). Every `read_timeout_ms` a parked
    /// worker wakes to check the shutdown flag and the idle/request
    /// timers, so this bounds shutdown latency — and is the resolution of
    /// the two timeouts below.
    pub read_timeout_ms: u64,
    /// Idle-connection timeout in milliseconds (`0` = never). A
    /// connection that sends no byte of a next request for this long is
    /// closed silently, freeing its sticky worker.
    pub idle_timeout_ms: u64,
    /// Mid-request timeout in milliseconds (`0` = never). Once the first
    /// byte of a request line arrives, the newline must arrive within
    /// this; otherwise the worker writes one retryable
    /// [`crate::wire::ERR_DEADLINE`] error and closes the connection.
    pub request_timeout_ms: u64,
    /// Bounded admission-queue depth (`0` → [`DEFAULT_QUEUE`]): how many
    /// accepted connections may wait for a worker before new arrivals are
    /// shed with a retryable [`crate::wire::ERR_OVERLOADED`] error.
    pub queue: usize,
    /// Filesystem the durable store performs its syscalls through
    /// (`None` → the real filesystem). Injecting a
    /// [`betalike_faults::ChaosVfs`] here lets tests drive the server into
    /// degraded mode deterministically.
    pub vfs: Option<Arc<dyn Vfs>>,
    /// Capacity (entries) of the per-process `count` result cache; `0`
    /// disables it. A hit replays the stored response document, so hit
    /// and miss responses are byte-identical. Entries are invalidated per
    /// handle on fresh publishes and quarantines.
    pub result_cache: usize,
    /// Whether requests are *timed*: per-op latency histograms, pipeline
    /// spans, and the slow-query log all read the clock only when this is
    /// on. Counters and gauges (and so `health`/`metrics`) update either
    /// way, and responses are byte-identical either way — the perf
    /// suite's instrumentation-overhead benchmark flips exactly this.
    pub obs: bool,
    /// Structured-log level (stderr). The `betalike-serve` binary seeds
    /// this from `BETALIKE_LOG`, overridden by `--log-level`.
    pub log_level: Level,
    /// Emit log lines as JSON objects instead of `key=value` text.
    pub log_json: bool,
    /// Requests slower than this many milliseconds get one `warn` line
    /// with their per-span breakdown; `0` disables the slow-query log.
    /// Effective only while [`ServerConfig::obs`] is on (timings are the
    /// evidence the log reports).
    pub slow_query_ms: u64,
    /// Longest accepted request line in bytes (`0` →
    /// [`crate::conn::DEFAULT_MAX_LINE_BYTES`], 1 MiB). A line that
    /// exceeds the bound is answered with one parseable *fatal*
    /// [`crate::wire::ERR_TOO_LARGE`] error and the connection is closed
    /// — before this bound the read buffer grew without limit, so a
    /// newline-free sender could exhaust memory.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            preload: None,
            data_dir: None,
            read_timeout_ms: 0,
            idle_timeout_ms: 0,
            request_timeout_ms: 0,
            queue: 0,
            vfs: None,
            result_cache: DEFAULT_RESULT_CACHE,
            obs: true,
            log_level: Level::Warn,
            log_json: false,
            slow_query_ms: 0,
            max_line_bytes: 0,
        }
    }
}

/// Shared server state: everything a worker needs to answer any request.
#[derive(Debug)]
struct State {
    registry: Registry,
    artifacts: crate::registry::LazyMap<Result<Arc<Artifact>, String>>,
    store: Option<ArtifactStore>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Worker-pool size (for `health`).
    workers: usize,
    /// Admission-queue capacity (for `health`).
    queue_capacity: usize,
    /// Metrics registry, per-op counters/histograms, logger, tracing.
    /// The admission gauges live here: the acceptor bumps `queue_depth`
    /// after a successful enqueue and the worker moves the connection to
    /// `active_connections` in one coherent registry transition.
    obs: ServerObs,
    /// Plan-classification counters shared by every artifact's catalog.
    plan_stats: CatalogStats,
    /// Handles a detached background publisher is currently computing
    /// (deadline-bounded publishes claim here so at most one background
    /// thread runs per handle).
    inflight: Mutex<BTreeSet<String>>,
    read_timeout_ms: u64,
    idle_timeout_ms: u64,
    request_timeout_ms: u64,
    /// The `count` result cache (capacity 0 = disabled).
    results: ResultCache,
    /// Request-line byte bound (`0` → the [`Conn`] default, 1 MiB).
    max_line_bytes: usize,
}

/// A running server: its bound address plus the acceptor and worker
/// thread handles needed to join or stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without a client: raises the flag and pokes the
    /// acceptor.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state);
    }

    /// Blocks until every server thread exits (after a shutdown request
    /// from any side).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Binds, spawns the acceptor and the worker pool, and returns
/// immediately.
///
/// # Errors
///
/// Propagates the bind failure, or a data directory that cannot be opened
/// (unwritable, or a manifest too damaged to trust).
pub fn serve(cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let state = build_state(cfg, addr)?;
    let threads = spawn_workers(&state, listener);
    Ok(ServerHandle {
        addr,
        state,
        threads,
    })
}

/// Everything [`serve`] does except binding and spawning: resolves the
/// config, opens the durable store, registers metrics, and preloads —
/// shared with [`LocalServer`] (which never binds).
fn build_state(cfg: &ServerConfig, addr: SocketAddr) -> std::io::Result<Arc<State>> {
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = ServerObs::new(
        Arc::clone(&metrics),
        cfg.obs,
        cfg.log_level,
        cfg.log_json,
        cfg.slow_query_ms,
    );
    let plan_stats = CatalogStats {
        disjoint: metrics.counter("catalog_plan_disjoint"),
        full_cover: metrics.counter("catalog_plan_full_cover"),
        straddle: metrics.counter("catalog_plan_straddle"),
        residual_scan: metrics.counter("catalog_plan_residual_scan"),
    };
    let store = match &cfg.data_dir {
        None => None,
        Some(dir) => {
            let vfs: Arc<dyn Vfs> = match &cfg.vfs {
                Some(vfs) => Arc::clone(vfs),
                None => Arc::new(RealVfs),
            };
            let (store, quarantined) = ArtifactStore::open_with(dir, vfs).map_err(|e| {
                std::io::Error::other(format!("open data dir {}: {e}", dir.display()))
            })?;
            store.attach_obs(StoreObs::from_registry(
                &metrics,
                Arc::clone(&obs.clock),
                cfg.obs,
            ));
            for handle in quarantined {
                obs.logger.warn(
                    "quarantined corrupt stored artifact",
                    &[("handle", handle.as_str().into())],
                );
            }
            Some(store)
        }
    };
    let threads = if cfg.threads == 0 {
        mini_rayon::threads().max(8)
    } else {
        cfg.threads
    };
    let queue = if cfg.queue == 0 {
        DEFAULT_QUEUE
    } else {
        cfg.queue
    };
    let state = Arc::new(State {
        registry: Registry::new(),
        artifacts: crate::registry::LazyMap::default(),
        store,
        shutdown: AtomicBool::new(false),
        addr,
        workers: threads,
        queue_capacity: queue,
        obs,
        plan_stats,
        inflight: Mutex::new(BTreeSet::new()),
        read_timeout_ms: cfg.read_timeout_ms,
        idle_timeout_ms: cfg.idle_timeout_ms,
        request_timeout_ms: cfg.request_timeout_ms,
        results: ResultCache::new(cfg.result_cache),
        max_line_bytes: cfg.max_line_bytes,
    });
    if let Some(spec) = &cfg.preload {
        state.registry.dataset(spec);
    }
    Ok(state)
}

/// Spawns one acceptor plus the sticky worker pool.
fn spawn_workers(state: &Arc<State>, listener: TcpListener) -> Vec<JoinHandle<()>> {
    let (tx, rx) = sync_channel::<TcpStream>(state.queue_capacity);
    let rx = Arc::new(Mutex::new(rx));
    let mut threads: Vec<JoinHandle<()>> = (0..state.workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(state);
            std::thread::spawn(move || worker_loop(&rx, &state))
        })
        .collect();
    let acceptor = {
        let state = Arc::clone(state);
        std::thread::spawn(move || acceptor_loop(&listener, &tx, &state))
    };
    threads.insert(0, acceptor);
    threads
}

/// The server's dispatch logic without any sockets: feed it request
/// lines, get back exactly the compact-JSON response a served connection
/// would read. This is the seam the deterministic protocol harness
/// (`tests/pipeline.rs`) builds on — drive a [`Conn`] with a scripted
/// byte-arrival schedule, answer its framed requests here, and the bytes
/// the machine emits are byte-for-byte what a served connection would
/// have written.
#[derive(Debug)]
pub struct LocalServer {
    state: Arc<State>,
}

impl LocalServer {
    /// Builds the server state without binding a listener or spawning
    /// threads. `addr`, `threads`, and `queue` are recorded for `health`
    /// but nothing listens or runs.
    ///
    /// # Errors
    ///
    /// A data directory that cannot be opened, exactly like [`serve`].
    pub fn new(cfg: &ServerConfig) -> std::io::Result<LocalServer> {
        let addr: SocketAddr = ([127, 0, 0, 1], 0).into();
        Ok(LocalServer {
            state: build_state(cfg, addr)?,
        })
    }

    /// Parses and dispatches one trimmed request line, returning the
    /// compact response (no trailing newline) and whether the line was a
    /// `shutdown` request. Unlike a served connection, a `shutdown` here
    /// only reports `stop = true`; there is nothing to stop.
    pub fn respond_line(&self, text: &str) -> (String, bool) {
        let (response, stop) = respond(&self.state, text);
        (response.compact(), stop)
    }

    /// The configured request-line byte bound, exactly as the server
    /// hands it to [`Conn::new`] — harnesses do the same.
    pub fn max_line_bytes(&self) -> usize {
        self.state.max_line_bytes
    }
}

fn initiate_shutdown(state: &State) {
    state.shutdown.store(true, Ordering::SeqCst);
    // Poke the acceptor so its blocking accept() observes the flag.
    let _ = TcpStream::connect(state.addr);
}

fn acceptor_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, state: &State) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break; // the poke connection (or late arrival) is dropped
                }
                match tx.try_send(stream) {
                    Ok(()) => {
                        state.obs.queue_depth.add(1);
                    }
                    // Every worker is busy and the queue is at capacity:
                    // shed with an explicit retryable error instead of
                    // parking the connection unread.
                    Err(TrySendError::Full(stream)) => shed_connection(state, stream),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept errors (EMFILE, aborted handshake): keep
                // serving, but yield briefly — a *persistent* error (fd
                // exhaustion) would otherwise spin this loop at 100% CPU.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    // Dropping `tx` (by returning) closes the channel; idle workers exit.
}

/// Refuses one connection with a retryable `overloaded` error line. Runs
/// on the acceptor thread, so the write carries a short timeout — a peer
/// that never reads cannot stall admission.
fn shed_connection(state: &State, mut stream: TcpStream) {
    state.obs.shed.inc();
    state.obs.logger.warn(
        "connection shed: admission queue full",
        &[("queue_capacity", state.queue_capacity.into())],
    );
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_millis(1000)));
    let reply = retryable_error(
        ERR_OVERLOADED,
        "server overloaded: admission queue is full; back off and retry",
    );
    let _ = stream
        .write_all((reply.compact() + "\n").as_bytes())
        .and_then(|()| stream.flush());
    // Dropping the stream closes it; the client sees the error line, then EOF.
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, state: &Arc<State>) {
    loop {
        let stream = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => {
                // One coherent transition: a health/metrics probe never
                // observes the connection in neither the queue nor a
                // worker (the old two-atomic version had that window).
                state.obs.registry.coherent(|| {
                    state.obs.queue_depth.add(-1);
                    state.obs.active_connections.add(1);
                });
                handle_connection(stream, state);
                state.obs.active_connections.add(-1);
            }
            Err(_) => break, // channel closed: shutdown
        }
    }
}

/// `timeout_ms` expressed in whole read ticks (rounded up); `0` = never.
fn ticks_for(timeout_ms: u64, tick_ms: u64) -> u64 {
    if timeout_ms == 0 {
        0
    } else {
        timeout_ms.div_ceil(tick_ms).max(1)
    }
}

/// Writes a [`Conn`]'s due output to the socket and consumes it.
/// Blocking-path sockets have no write timeout, so this drains fully.
fn flush_conn(conn: &mut Conn, writer: &mut TcpStream) -> std::io::Result<()> {
    let bytes = conn.output().to_vec();
    if bytes.is_empty() {
        return Ok(());
    }
    writer.write_all(&bytes)?;
    writer.flush()?;
    conn.consume(bytes.len());
    Ok(())
}

/// Answers every request `conn` just framed, in order, flushing each
/// response (and any framing refusal queued before it) as it completes —
/// exactly the bytes-per-step the pre-state-machine loop produced.
/// Returns `false` when the connection is finished (write failure or a
/// `shutdown` request, which also stops the server).
fn serve_framed(
    state: &Arc<State>,
    conn: &mut Conn,
    writer: &mut TcpStream,
    requests: Vec<crate::conn::FramedRequest>,
) -> bool {
    for request in requests {
        let (response, stop) = respond(state, &request.text);
        conn.complete(request.seq, &response.compact(), stop);
        if flush_conn(conn, writer).is_err() {
            return false;
        }
        if stop {
            initiate_shutdown(state);
            return false;
        }
    }
    // A chunk may have produced only framing refusals (bad UTF-8, an
    // oversized line) — those queued output without framing a request.
    flush_conn(conn, writer).is_ok()
}

/// Processes one connection's requests in order until EOF, an I/O error,
/// a `shutdown` request, server shutdown, or a timeout expiry.
///
/// Framing and response ordering run through the [`Conn`] state machine,
/// which bounds the request line ([`ServerConfig::max_line_bytes`]),
/// validates UTF-8 only once a line is complete (a mid-multibyte timeout
/// must not corrupt framing), and answers a pipelined batch in request
/// order. While the worker writes it does not read, so a client that
/// pipelines faster than it drains is held back by TCP flow control.
/// Reads run under a configurable poll tick
/// ([`ServerConfig::read_timeout_ms`]) so a worker parked on an idle
/// connection still observes shutdown within one tick. The same tick
/// drives two timers, both counted in ticks and reset per request line:
/// the *idle* timer (no byte of a next request yet → close silently) and
/// the *request* timer (line started but unfinished → answer a retryable
/// `deadline` error, then close).
fn handle_connection(stream: TcpStream, state: &Arc<State>) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    // Responses are one small frame each; without NODELAY, Nagle holds
    // them back against the peer's delayed ACK (~40ms per round trip).
    let _ = stream.set_nodelay(true);
    let tick_ms = if state.read_timeout_ms == 0 {
        DEFAULT_READ_TIMEOUT_MS
    } else {
        state.read_timeout_ms
    };
    if stream
        .set_read_timeout(Some(std::time::Duration::from_millis(tick_ms)))
        .is_err()
    {
        return;
    }
    let idle_ticks_max = ticks_for(state.idle_timeout_ms, tick_ms);
    let request_ticks_max = ticks_for(state.request_timeout_ms, tick_ms);
    let mut writer = writer;
    let mut reader = stream;
    let mut conn = Conn::new(state.max_line_bytes);
    let mut chunk = [0u8; 16 * 1024];
    let mut idle_ticks: u64 = 0;
    let mut request_ticks: u64 = 0;
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => {
                // EOF: a final unterminated line is still served.
                let requests = conn.on_eof();
                let _ = serve_framed(state, &mut conn, &mut writer, requests);
                return;
            }
            Ok(n) => {
                let before = conn.lines_seen();
                // `.get(..n)` in place of `&chunk[..n]`: `n <= chunk.len()`
                // by the `Read` contract, but the request path is
                // panic-free by policy (lint P1), so stay with the
                // non-panicking accessor.
                let requests = conn.on_bytes(chunk.get(..n).unwrap_or(&[]));
                if !serve_framed(state, &mut conn, &mut writer, requests) {
                    return;
                }
                if conn.wants_close() {
                    return; // an oversized line was refused; we're done
                }
                if conn.lines_seen() > before {
                    // A line boundary passed: both timers restart, same
                    // as the old per-line loop. Bytes that only extend a
                    // partial line deliberately do *not* reset the
                    // request timer.
                    idle_ticks = 0;
                    request_ticks = 0;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if conn.has_partial() {
                    request_ticks += 1;
                    if request_ticks_max != 0 && request_ticks >= request_ticks_max {
                        let reply = retryable_error(
                            ERR_DEADLINE,
                            "request deadline: the line did not complete in time",
                        );
                        let _ = writer
                            .write_all((reply.compact() + "\n").as_bytes())
                            .and_then(|()| writer.flush());
                        return;
                    }
                } else {
                    idle_ticks += 1;
                    if idle_ticks_max != 0 && idle_ticks >= idle_ticks_max {
                        return; // idle expiry: close silently
                    }
                }
            }
            Err(_) => return, // broken connection
        }
    }
}

/// Appends the request's `trace_id` (when the client sent one) to the
/// response, so concurrent pipelined responses are attributable. Applied
/// whether or not timings are on — responses stay byte-identical across
/// the `obs` flag.
fn echo_trace_id(response: &mut Json, trace_id: Option<&str>) {
    if let (Json::Obj(members), Some(id)) = (response, trace_id) {
        members.push(("trace_id".to_string(), Json::Str(id.to_string())));
    }
}

/// Parses and dispatches one request line. The dispatch is wrapped in
/// `catch_unwind` so a bug in an algorithm takes down one request, not a
/// pool worker. Every path — parse failure included — lands in
/// [`ServerObs::finish`], so the per-op request/error counters account
/// for every request line the server ever answered.
fn respond(state: &Arc<State>, text: &str) -> (Json, bool) {
    let obs = &state.obs;
    let start = obs.start();
    let trace = obs.trace();
    let parsed = {
        let _span = trace.as_ref().map(|t| t.span("parse"));
        Json::parse(text)
    };
    let doc = match parsed {
        Ok(doc) => doc,
        Err(e) => {
            let response = error_response(&format!("parse: {e}"));
            obs.finish(crate::obs::UNKNOWN_OP, false, start, trace.as_ref(), None);
            return (response, false);
        }
    };
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let trace_id = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .map(str::to_string);
    if op == "shutdown" {
        let mut response = ok_response(vec![("stopping".into(), Json::Bool(true))]);
        echo_trace_id(&mut response, trace_id.as_deref());
        obs.finish(&op, true, start, trace.as_ref(), trace_id.as_deref());
        return (response, true);
    }
    let result = {
        let _span = trace.as_ref().map(|t| t.span("dispatch"));
        catch_unwind(AssertUnwindSafe(|| {
            dispatch(state, &op, &doc, trace.as_ref())
        }))
    };
    let mut response = match result {
        Ok(Ok(response)) => response,
        Ok(Err(message)) => error_response(&message),
        Err(_) => error_response("internal error while handling the request"),
    };
    let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
    echo_trace_id(&mut response, trace_id.as_deref());
    obs.finish(&op, ok, start, trace.as_ref(), trace_id.as_deref());
    (response, false)
}

fn dispatch(
    state: &Arc<State>,
    op: &str,
    doc: &Json,
    trace: Option<&Trace>,
) -> Result<Json, String> {
    match op {
        "ping" => Ok(ok_response(vec![("pong".into(), Json::Bool(true))])),
        "datasets" => {
            let datasets = state.registry.loaded().into_iter().map(Json::Str).collect();
            let published = resident_handles(state).into_iter().map(Json::Str).collect();
            let mut members = vec![
                ("datasets".into(), Json::Arr(datasets)),
                ("published".into(), Json::Arr(published)),
            ];
            if let Some(store) = &state.store {
                let stored = store.handles().into_iter().map(Json::Str).collect();
                members.push(("stored".into(), Json::Arr(stored)));
            }
            Ok(ok_response(members))
        }
        "publish" => publish(state, doc, trace),
        "count" => count(state, doc, trace),
        "audit" => {
            let handle = doc
                .get("handle")
                .and_then(Json::as_str)
                .ok_or("audit needs a string `handle`")?;
            let artifact = lookup(state, handle)?;
            let mut members = vec![("handle".to_string(), Json::Str(handle.into()))];
            if let Json::Obj(audit) = artifact.audit_json() {
                members.extend(audit);
            }
            Ok(ok_response(members))
        }
        "verify" => verify(state, doc),
        "health" => Ok(health(state)),
        "metrics" => Ok(metrics(state)),
        other => Err(format!(
            "unknown op `{other}` (expected ping | datasets | publish | count | audit | verify \
             | health | metrics | shutdown)"
        )),
    }
}

/// The `health` op: liveness plus the overload and durability gauges —
/// queue depth and capacity, connections shed, resident artifacts, store
/// status (`none` / `ok` / `degraded`) and its consecutive write-failure
/// count, the effective timeout settings, whether catalogs are enabled,
/// and the result-cache gauges (capacity/size/hits/misses). Never touches
/// an artifact, so it stays cheap under load.
///
/// All dynamic gauges come from **one** [`MetricsRegistry::snapshot`],
/// taken under the registry lock that paired transitions (queue → worker
/// handoff, cache stat mirroring) also hold — a probe can no longer catch
/// a connection in neither the queue nor a worker, which the old
/// per-atomic assembly allowed.
fn health(state: &Arc<State>) -> Json {
    let snap = state.obs.registry.snapshot();
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0).max(0) as f64;
    let store_degraded = snap.gauge("store_degraded").unwrap_or(0) == 1 && state.store.is_some();
    let status = if store_degraded { "degraded" } else { "ok" };
    let mut members = vec![
        ("status".to_string(), Json::Str(status.into())),
        ("workers".to_string(), Json::Num(state.workers as f64)),
        (
            "queue_capacity".to_string(),
            Json::Num(state.queue_capacity as f64),
        ),
        ("queue_depth".to_string(), Json::Num(gauge("queue_depth"))),
        (
            "active_connections".to_string(),
            Json::Num(gauge("active_connections")),
        ),
        (
            "shed".to_string(),
            Json::Num(snap.counter("shed_total").unwrap_or(0) as f64),
        ),
        (
            "artifacts".to_string(),
            Json::Num(gauge("artifacts_resident")),
        ),
        (
            "read_timeout_ms".to_string(),
            Json::Num(if state.read_timeout_ms == 0 {
                DEFAULT_READ_TIMEOUT_MS
            } else {
                state.read_timeout_ms
            } as f64),
        ),
        (
            "idle_timeout_ms".to_string(),
            Json::Num(state.idle_timeout_ms as f64),
        ),
        (
            "request_timeout_ms".to_string(),
            Json::Num(state.request_timeout_ms as f64),
        ),
        (
            "result_cache_capacity".to_string(),
            Json::Num(state.results.capacity() as f64),
        ),
        (
            "result_cache_size".to_string(),
            Json::Num(gauge("result_cache_size")),
        ),
        (
            "result_cache_hits".to_string(),
            Json::Num(gauge("result_cache_hits")),
        ),
        (
            "result_cache_misses".to_string(),
            Json::Num(gauge("result_cache_misses")),
        ),
    ];
    match &state.store {
        None => members.push(("store".to_string(), Json::Str("none".into()))),
        Some(_) => {
            let store_status = if store_degraded { "degraded" } else { "ok" };
            members.push(("store".to_string(), Json::Str(store_status.into())));
            members.push(("stored".to_string(), Json::Num(gauge("store_artifacts"))));
            members.push((
                "write_failures".to_string(),
                Json::Num(gauge("store_write_failures")),
            ));
        }
    }
    ok_response(members)
}

/// The `metrics` op: the full registry snapshot — every counter, gauge,
/// and latency histogram (count / sum / p50 / p99 / p999 nanoseconds) —
/// plus the same snapshot rendered as Prometheus exposition text, so
/// `betalike-client metrics` can feed a scraper directly.
fn metrics(state: &Arc<State>) -> Json {
    let snap = state.obs.registry.snapshot();
    let counters = snap
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), Json::Num(*v as f64)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(name, v)| (name.clone(), Json::Num(*v as f64)))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|(name, h)| {
            let (p50, p99, p999) = h.p50_p99_p999();
            (
                name.clone(),
                Json::Obj(vec![
                    ("count".to_string(), Json::Num(h.count() as f64)),
                    ("sum_ns".to_string(), Json::Num(h.sum() as f64)),
                    ("p50_ns".to_string(), Json::Num(p50 as f64)),
                    ("p99_ns".to_string(), Json::Num(p99 as f64)),
                    ("p999_ns".to_string(), Json::Num(p999 as f64)),
                ]),
            )
        })
        .collect();
    ok_response(vec![
        ("obs".to_string(), Json::Bool(state.obs.timings)),
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        ("histograms".to_string(), Json::Obj(histograms)),
        ("prometheus".to_string(), Json::Str(snap.to_prometheus())),
    ])
}

/// Handles of the artifacts held in memory, sorted. The artifact cache
/// also remembers failed publishes (as `Err`s); those are not artifacts.
fn resident_handles(state: &State) -> Vec<String> {
    state
        .artifacts
        .keys()
        .into_iter()
        .filter(|h| matches!(state.artifacts.get(h), Some(Ok(_))))
        .collect()
}

/// Mirrors the resident-artifact count into its gauge; call after any
/// `artifacts.get_or_init`.
fn sync_artifacts(state: &Arc<State>) {
    let len = resident_handles(state).len().min(i64::MAX as usize) as i64;
    state.obs.artifacts_resident.set(len);
}

fn publish(state: &Arc<State>, doc: &Json, trace: Option<&Trace>) -> Result<Json, String> {
    let request = PublishRequest::from_json(doc)?;
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("`deadline_ms` must be a non-negative integer")?,
        ),
    };
    let handle = request.handle();
    // A handle persisted by a previous process is *loaded*, not recomputed
    // (and counts as cached: the publish work already happened).
    match resident_or_stored(state, &handle) {
        Ok(Some(artifact)) => return Ok(publish_ack(state, &request, handle, &artifact, false)),
        Ok(None) | Err(_) => {
            // Unknown (or quarantined-as-corrupt, already logged): compute.
        }
    }
    // Cold path. A degraded store could not persist the result, and a
    // server that keeps accumulating publishes it cannot make durable is
    // quietly breaking its own restart contract — refuse retryably and
    // keep serving what already exists. Each refused publish first probes
    // the disk, so the first retry after the disk recovers goes through.
    if let Some(store) = &state.store {
        if store.degraded() && store.probe().is_err() {
            return Ok(retryable_error(
                ERR_DEGRADED,
                &format!(
                    "store is degraded (persistent write failures): publish of `{handle}` \
                     refused; reads are still served — retry once the disk recovers"
                ),
            ));
        }
    }
    if let Some(ms) = deadline_ms {
        return publish_with_deadline(state, request, handle, ms);
    }
    let mut fresh = false;
    let artifact = {
        let _span = trace.map(|t| t.span("publish.compute"));
        state.artifacts.get_or_init(&handle, || {
            fresh = true;
            Artifact::publish_with(
                &state.registry,
                &request,
                true,
                Some(state.plan_stats.clone()),
            )
        })
    };
    sync_artifacts(state);
    let artifact = artifact?;
    if fresh {
        // A fresh compute may follow a quarantine of the same handle:
        // cached count responses for the old artifact must not survive it.
        state.results.invalidate(&handle);
        state.obs.sync_cache(&state.results.stats());
        let _span = trace.map(|t| t.span("publish.persist"));
        persist(state, &artifact);
    }
    Ok(publish_ack(state, &request, handle, &artifact, fresh))
}

/// A cold-cache publish bounded by `deadline_ms`: the computation runs on
/// a detached background thread (at most one per handle, via the
/// `inflight` claim set) while this worker polls for the result. If the
/// deadline expires first, the requester gets a retryable `deadline`
/// error and the computation keeps going — a later identical publish
/// collects the finished artifact from the cache.
fn publish_with_deadline(
    state: &Arc<State>,
    request: PublishRequest,
    handle: String,
    deadline_ms: u64,
) -> Result<Json, String> {
    let claimed = {
        let mut inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight.insert(handle.clone())
    };
    if claimed {
        let state = Arc::clone(state);
        let handle = handle.clone();
        let request = request.clone();
        std::thread::spawn(move || {
            // The claim must be released even if the pipeline panics
            // (mirroring the catch_unwind around foreground dispatch).
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut fresh = false;
                let computed = state.artifacts.get_or_init(&handle, || {
                    fresh = true;
                    Artifact::publish_with(
                        &state.registry,
                        &request,
                        true,
                        Some(state.plan_stats.clone()),
                    )
                });
                sync_artifacts(&state);
                if fresh {
                    state.results.invalidate(&handle);
                    state.obs.sync_cache(&state.results.stats());
                    if let Ok(artifact) = &computed {
                        persist(&state, artifact);
                    }
                }
            }));
            if run.is_err() {
                state.obs.logger.error(
                    "background publish panicked",
                    &[("handle", handle.as_str().into())],
                );
            }
            let mut inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
            inflight.remove(&handle);
        });
    }
    let mut waited_ms: u64 = 0;
    loop {
        match state.artifacts.get(&handle) {
            Some(Ok(artifact)) => {
                return Ok(publish_ack(state, &request, handle, &artifact, true));
            }
            Some(Err(e)) => return Err(format!("publish for `{handle}` had failed: {e}")),
            None => {}
        }
        if waited_ms >= deadline_ms {
            return Ok(retryable_error(
                ERR_DEADLINE,
                &format!(
                    "deadline of {deadline_ms}ms expired before `{handle}` was ready; the \
                     computation continues in the background — retry to collect it"
                ),
            ));
        }
        let step = (deadline_ms - waited_ms).clamp(1, PUBLISH_POLL_MS);
        std::thread::sleep(std::time::Duration::from_millis(step));
        waited_ms += step;
    }
}

/// The acknowledgment for a successful publish. `fresh` means the work
/// was done for this request (`cached: false`).
fn publish_ack(
    state: &Arc<State>,
    request: &PublishRequest,
    handle: String,
    artifact: &Arc<Artifact>,
    fresh: bool,
) -> Json {
    let mut members = vec![
        ("handle".to_string(), Json::Str(handle)),
        (
            "kind".to_string(),
            Json::Str(artifact.answerer.kind().into()),
        ),
        ("algo".to_string(), Json::Str(request.algo.as_str().into())),
        (
            "rows".to_string(),
            Json::Num(artifact.dataset.table.num_rows() as f64),
        ),
        ("cached".to_string(), Json::Bool(!fresh)),
    ];
    if let Some(ecs) = artifact.num_ecs() {
        members.push(("ecs".to_string(), Json::Num(ecs as f64)));
    }
    if let Some(store) = &state.store {
        members.push((
            "persisted".to_string(),
            Json::Bool(store.entry(&artifact.handle).is_some()),
        ));
    }
    ok_response(members)
}

/// Write-through persistence of a freshly computed artifact. Failure to
/// persist never fails the publish — the artifact is resident and
/// serveable — but is logged and visible as `persisted: false` in the
/// acknowledgment (and counts toward the store's degraded trip wire).
fn persist(state: &Arc<State>, artifact: &Arc<Artifact>) {
    let Some(store) = &state.store else {
        return;
    };
    let snap = crate::persist::snapshot(artifact);
    if let Err(e) = store.save(&snap) {
        state.obs.logger.error(
            "failed to persist artifact",
            &[
                ("handle", artifact.handle.as_str().into()),
                ("error", e.to_string().into()),
            ],
        );
    }
}

/// The `verify` op: runs the independent conformance oracle (and, on
/// request, the adversarial attack battery) over a published handle. The
/// artifact is resolved exactly like `count`/`audit` — memory cache first,
/// then the durable store — and re-snapshotted through the same
/// persistence capture the `.bpub` writer uses, so the oracle sees the
/// artifact as a restart would.
fn verify(state: &Arc<State>, doc: &Json) -> Result<Json, String> {
    let handle = doc
        .get("handle")
        .and_then(Json::as_str)
        .ok_or("verify needs a string `handle`")?;
    let battery = match doc.get("battery") {
        None => false,
        Some(v) => v.as_bool().ok_or("`battery` must be a boolean")?,
    };
    let artifact = lookup(state, handle)?;
    let snap = crate::persist::snapshot(&artifact);
    let report = betalike_conformance::verify_snapshot(&snap);
    let mut members = vec![
        ("handle".to_string(), Json::Str(handle.into())),
        ("pass".to_string(), Json::Bool(report.pass())),
        ("report".to_string(), report.to_json()),
    ];
    if battery {
        let battery_report = betalike_conformance::run_battery_snapshot(&snap)?;
        members.push((
            "battery_pass".to_string(),
            Json::Bool(battery_report.pass()),
        ));
        members.push(("battery".to_string(), battery_report.to_json()));
    }
    Ok(ok_response(members))
}

fn count(state: &Arc<State>, doc: &Json, trace: Option<&Trace>) -> Result<Json, String> {
    let request = CountRequest::from_json(doc)?;
    let artifact = {
        let _span = trace.map(|t| t.span("count.lookup"));
        lookup(state, &request.handle)?
    };
    validate_preds(&artifact, &request)?;
    // Deterministic artifact + deterministic estimators ⇒ the response is
    // a pure function of the key; a cache hit replays the exact document
    // a miss would compute (byte-identical on the wire). Errors are never
    // cached — only responses that reached `ok_response`.
    let key = cache_key(
        &artifact.handle,
        &request.qi_preds,
        request.sa_lo,
        request.sa_hi,
        request.exact,
    );
    let cached = state.results.get(&key);
    state.obs.sync_cache(&state.results.stats());
    if let Some(cached) = cached {
        return Ok(cached);
    }
    let query = AggQuery {
        qi_preds: request.qi_preds.clone(),
        sa_pred: RangePred {
            attr: artifact.dataset.sa,
            lo: request.sa_lo,
            hi: request.sa_hi,
        },
    };
    let _span = trace.map(|t| t.span("count.answer"));
    let estimate = artifact
        .answerer
        .estimate(&query)
        .map_err(|e| e.to_string())?;
    let mut members = vec![("estimate".to_string(), Json::Num(estimate))];
    if request.exact {
        members.push((
            "exact".to_string(),
            Json::Num(artifact.answerer.exact(&query) as f64),
        ));
    }
    drop(_span);
    let response = ok_response(members);
    state.results.insert(key, response.clone());
    state.obs.sync_cache(&state.results.stats());
    Ok(response)
}

fn lookup(state: &Arc<State>, handle: &str) -> Result<Arc<Artifact>, String> {
    match resident_or_stored(state, handle)? {
        Some(artifact) => Ok(artifact),
        None => Err(format!("unknown handle `{handle}` (publish first)")),
    }
}

/// The artifact for `handle` if it is resident or durably stored:
/// memory-cache hit first, then a lazy load from the data directory
/// (restored artifacts are inserted into the memory cache, so the disk is
/// read at most once per handle per process).
///
/// `Ok(None)` means the handle is genuinely unknown. `Err` carries a
/// wire-level message: a previously failed publish, or a stored artifact
/// that turned out corrupt — which is quarantined here, so a later
/// `publish` of the same parameters recomputes and re-persists it.
fn resident_or_stored(state: &Arc<State>, handle: &str) -> Result<Option<Arc<Artifact>>, String> {
    match state.artifacts.get(handle) {
        Some(Ok(artifact)) => return Ok(Some(artifact)),
        Some(Err(e)) => return Err(format!("publish for `{handle}` had failed: {e}")),
        None => {}
    }
    let Some(store) = &state.store else {
        return Ok(None);
    };
    match store.load(handle) {
        Ok(None) => Ok(None),
        Ok(Some(snap)) => {
            match crate::persist::restore_with(snap, true, Some(state.plan_stats.clone())) {
                Ok(restored) => {
                    // Racing loaders resolve to one inserted artifact.
                    let artifact = state.artifacts.get_or_init(handle, || Ok(restored));
                    sync_artifacts(state);
                    Ok(Some(artifact?))
                }
                Err(e) => {
                    let _ = store.quarantine(handle);
                    state.results.invalidate(handle);
                    state.obs.sync_cache(&state.results.stats());
                    state.obs.logger.error(
                        "stored artifact failed to restore; quarantined",
                        &[("handle", handle.into()), ("error", e.as_str().into())],
                    );
                    Err(format!(
                    "stored artifact `{handle}` was unusable and has been quarantined; republish to recompute"
                ))
                }
            }
        }
        // A transient I/O failure (EMFILE under load, a momentary disk
        // hiccup) is not evidence of corruption — report it as retryable
        // and leave the file alone. A *missing* file is different: the
        // manifest row is stale, so fall through and let quarantine drop
        // it (making the handle honestly unknown / recomputable).
        Err(betalike_store::StoreError::Io(e)) if e.kind() != std::io::ErrorKind::NotFound => Err(
            format!("stored artifact `{handle}` could not be read: {e} (transient; retry)"),
        ),
        // Integrity failures (checksum, truncation, malformed sections,
        // version skew) are permanent for this file: quarantine it.
        Err(e) => {
            let _ = store.quarantine(handle);
            state.results.invalidate(handle);
            state.obs.sync_cache(&state.results.stats());
            state.obs.logger.error(
                "stored artifact is corrupt; quarantined",
                &[("handle", handle.into()), ("error", e.to_string().into())],
            );
            Err(format!(
                "stored artifact `{handle}` was corrupt and has been quarantined; republish to recompute"
            ))
        }
    }
}

/// Rejects predicates the artifact cannot answer (instead of letting an
/// estimator panic inside a worker).
fn validate_preds(artifact: &Artifact, request: &CountRequest) -> Result<(), String> {
    let table = artifact.answerer.source();
    let arity = table.schema().arity();
    for p in &request.qi_preds {
        if p.attr >= arity {
            return Err(format!("pred attr {} out of range (arity {arity})", p.attr));
        }
        if p.attr == artifact.dataset.sa {
            return Err("the SA is predicated via `sa`, not `preds`".into());
        }
        if !artifact.qi.is_empty() && !artifact.qi.contains(&p.attr) {
            return Err(format!(
                "attr {} is outside the published QI set {:?}",
                p.attr, artifact.qi
            ));
        }
    }
    Ok(())
}
