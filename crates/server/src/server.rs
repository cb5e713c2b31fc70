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
//! dataset registry and the resident artifact set ([`crate::resident`]),
//! where each content-addressed handle is loaded or computed by one run
//! at a time and then served lock-free (workers hold `Arc`s; the set's
//! mutex guards only map lookups). With a data directory the set is a
//! read cache over the store (write-around): a fresh publish leaves the
//! map once its save is indexed and comes back on its first read, and
//! only the newest save is held meanwhile; without a store, or when the
//! save failed, the artifact stays resident because no other copy exists
//! (DESIGN.md §8).
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
use crate::obs::{ServerObs, Stage, StageMarks};
use crate::registry::{Dataset, DatasetSpec, Registry};
use crate::resident::{Done, Found, Lead, Resident};
use crate::result_cache::{ResultCache, DEFAULT_RESULT_CACHE};
use crate::wire::{
    error_response, ok_response, retryable_error, CountRequest, PublishRequest, Refusal,
    ERR_DEADLINE, ERR_DEGRADED, ERR_OVERLOADED,
};
use betalike_faults::{RealVfs, Vfs};
use betalike_microdata::json::{write_escaped, Json};
use betalike_obs::{Clock, Level, RealClock, Registry as MetricsRegistry};
use betalike_query::{AggQuery, CatalogStats, RangePred};
use betalike_store::{ArtifactStore, StoreObs};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Admission-queue depth when [`ServerConfig::queue`] is `0`.
pub const DEFAULT_QUEUE: usize = 64;
/// Read poll tick in milliseconds when [`ServerConfig::read_timeout_ms`]
/// is `0`. This is also the shutdown-latency bound for idle workers.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 200;

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
    /// latency is not paid by a client. The server holds it for its whole
    /// life; other datasets live only while an artifact holds them.
    pub preload: Option<DatasetSpec>,
    /// Durable publication storage. When set, every fresh publish is
    /// saved to `<data-dir>/artifacts/` and, once a newer save displaces
    /// it, dropped from memory; the first lookup of a stored handle
    /// (published by this process or a previous one) lazily loads the
    /// artifact — a restarted server answers `count`/`audit` for them
    /// bit-identically with zero pipeline recomputation.
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
    /// Whether requests are *timed*: per-op latency histograms, stage
    /// marks, and the slow-query log all read the clock only when this is
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
    /// with their per-stage breakdown; `0` disables the slow-query log.
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
    /// The `--preload` dataset, held (never read) so the registry keeps
    /// it loaded.
    _preloaded: Option<Arc<Dataset>>,
    /// Artifacts in memory — every publish without a durable copy, every
    /// stored one a lookup has read since, and the newest save, held so
    /// the requests most likely to follow a publish (a read of it, or
    /// another publish of its dataset) find it and its dataset in memory —
    /// plus the one run per handle that loads or computes the rest.
    resident: Resident<Arc<Artifact>>,
    store: Option<ArtifactStore>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Worker-pool size (for `health`).
    workers: usize,
    /// Admission-queue capacity (for `health`).
    queue_capacity: usize,
    /// Metrics registry, per-op counters/histograms, logger, timer.
    /// The admission gauges live here: the acceptor bumps `queue_depth`
    /// after a successful enqueue and the worker moves the connection to
    /// `active_connections` in one coherent registry transition.
    obs: ServerObs,
    /// Plan-classification counters shared by every artifact's catalog.
    plan_stats: CatalogStats,
    /// The effective read poll tick ([`ServerConfig::read_timeout_ms`],
    /// `0` resolved to [`DEFAULT_READ_TIMEOUT_MS`]).
    read_tick_ms: u64,
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
/// (unwritable, or an artifact that could not be read).
pub fn serve(cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let state = build_state(cfg, addr, Arc::new(RealClock), Box::new(std::io::stderr()))?;
    let threads = spawn_workers(&state, listener);
    Ok(ServerHandle {
        addr,
        state,
        threads,
    })
}

/// Everything [`serve`] does except binding and spawning: resolves the
/// config (every `0 → default` once, here), opens the durable store,
/// registers metrics, and preloads — shared with [`LocalServer`] (which
/// never binds). `clock` times requests and stamps the log lines written
/// to `log_sink`.
fn build_state(
    cfg: &ServerConfig,
    addr: SocketAddr,
    clock: Arc<dyn Clock>,
    log_sink: Box<dyn Write + Send>,
) -> std::io::Result<Arc<State>> {
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = ServerObs::new(Arc::clone(&metrics), cfg, clock, log_sink);
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
            store.attach_obs(StoreObs::from_registry(&metrics, obs.timer.clone()));
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
    let read_tick_ms = if cfg.read_timeout_ms == 0 {
        DEFAULT_READ_TIMEOUT_MS
    } else {
        cfg.read_timeout_ms
    };
    let registry = Registry::new();
    let preloaded = cfg.preload.as_ref().map(|spec| registry.dataset(spec));
    Ok(Arc::new(State {
        registry,
        _preloaded: preloaded,
        resident: Resident::new(Arc::clone(&obs.artifacts_resident)),
        store,
        shutdown: AtomicBool::new(false),
        addr,
        workers: threads,
        queue_capacity: queue,
        obs,
        plan_stats,
        read_tick_ms,
        idle_timeout_ms: cfg.idle_timeout_ms,
        request_timeout_ms: cfg.request_timeout_ms,
        results: ResultCache::new(cfg.result_cache, &metrics),
        max_line_bytes: cfg.max_line_bytes,
    }))
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
            state: build_state(cfg, addr, Arc::new(RealClock), Box::new(std::io::stderr()))?,
        })
    }

    /// Parses and dispatches one trimmed request line, returning the
    /// compact response (no trailing newline) and whether the line was a
    /// `shutdown` request. Unlike a served connection, a `shutdown` here
    /// only reports `stop = true`; there is nothing to stop.
    pub fn respond_line(&self, text: &str) -> (String, bool) {
        respond(&self.state, text)
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
    let bytes = conn.output();
    if bytes.is_empty() {
        return Ok(());
    }
    writer.write_all(bytes)?;
    let written = bytes.len();
    writer.flush()?;
    conn.consume(written);
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
        conn.complete(request.seq, &response, stop);
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
    let tick_ms = state.read_tick_ms;
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

/// What the dispatcher answered: a document still to be encoded, or a
/// successful `count`'s line, already encoded (or copied from the result
/// cache).
enum Reply {
    Doc(Json),
    Line(String),
}

impl From<Json> for Reply {
    fn from(doc: Json) -> Self {
        Reply::Doc(doc)
    }
}

impl Reply {
    /// Whether the response reports success. Only an answered `count`
    /// is a [`Reply::Line`].
    fn ok(&self) -> bool {
        match self {
            Reply::Doc(doc) => doc.get("ok").and_then(Json::as_bool).unwrap_or(false),
            Reply::Line(_) => true,
        }
    }

    /// The response line (no trailing newline), with the request's
    /// `trace_id` (when the client sent one) appended as its last member,
    /// so concurrent pipelined responses are attributable. Applied
    /// whether or not timings are on — responses stay byte-identical
    /// across the `obs` flag.
    fn into_line(self, trace_id: Option<&str>) -> String {
        let mut line = match self {
            Reply::Line(line) => line,
            Reply::Doc(doc) => doc.compact(),
        };
        if let Some(id) = trace_id {
            append_trace_id(&mut line, id);
        }
        line
    }
}

/// Splices `"trace_id":id` in as the last member of the encoded object
/// `line`: the bytes pushing the member onto the document before encoding
/// would give.
fn append_trace_id(line: &mut String, id: &str) {
    // Every response is an object with an `ok` member before this one.
    let Some(members) = line.strip_suffix('}') else {
        return;
    };
    line.truncate(members.len());
    line.push_str(",\"trace_id\":");
    write_escaped(line, id);
    line.push('}');
}

/// Parses and dispatches one request line, returning the encoded response
/// line and whether it was a `shutdown`. The dispatch is wrapped in
/// `catch_unwind` so a bug in an algorithm takes down one request, not a
/// pool worker; each caught panic bumps `internal_errors_total`. Every path — parse failure included — lands in
/// [`ServerObs::finish`], so the per-op request/error counters account
/// for every request line the server ever answered.
fn respond(state: &Arc<State>, text: &str) -> (String, bool) {
    let obs = &state.obs;
    let start = obs.timer.start();
    let marks = obs.stage_marks();
    let doc = match marks.time(Stage::Parse, || Json::parse(text)) {
        Ok(doc) => doc,
        Err(e) => {
            let response = error_response(&format!("parse: {e}"));
            obs.finish(crate::obs::UNKNOWN_OP, false, start, &marks, None);
            return (Reply::Doc(response).into_line(None), false);
        }
    };
    let op = doc.get("op").and_then(Json::as_str).unwrap_or_default();
    let trace_id = doc.get("trace_id").and_then(Json::as_str);
    if op == "shutdown" {
        let response = ok_response(vec![("stopping".into(), Json::Bool(true))]);
        obs.finish(op, true, start, &marks, trace_id);
        return (Reply::Doc(response).into_line(trace_id), true);
    }
    let result = marks.time(Stage::Dispatch, || {
        catch_unwind(AssertUnwindSafe(|| dispatch(state, op, &doc, &marks)))
    });
    let reply = match result {
        Ok(Ok(reply)) => reply,
        Ok(Err(refusal)) => refusal.to_json().into(),
        Err(_) => {
            obs.internal_errors.inc();
            error_response("internal error while handling the request").into()
        }
    };
    obs.finish(op, reply.ok(), start, &marks, trace_id);
    (reply.into_line(trace_id), false)
}

fn dispatch(
    state: &Arc<State>,
    op: &str,
    doc: &Json,
    marks: &StageMarks<'_>,
) -> Result<Reply, Refusal> {
    let response: Result<Json, Refusal> = match op {
        "count" => return count(state, doc, marks).map(Reply::Line),
        "ping" => Ok(ok_response(vec![("pong".into(), Json::Bool(true))])),
        "datasets" => {
            let datasets = state.registry.loaded().into_iter().map(Json::Str).collect();
            let published = state
                .resident
                .handles()
                .into_iter()
                .map(Json::Str)
                .collect();
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
        "publish" => Ok(publish(state, doc, marks)?),
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
        "verify" => Ok(verify(state, doc)?),
        "health" => Ok(health(state)),
        "metrics" => Ok(metrics(state)),
        other => Err(format!(
            "unknown op `{other}` (expected ping | datasets | publish | count | audit | verify \
             | health | metrics | shutdown)"
        )
        .into()),
    };
    response.map(Reply::Doc)
}

/// The `health` op: liveness plus the overload and durability gauges —
/// queue depth and capacity, connections shed, resident artifacts, store
/// status (`none` / `ok` / `degraded`) and its consecutive write-failure
/// count, the effective timeout settings, and the result-cache gauges
/// (capacity/size/hits/misses). Never touches an artifact, so it stays
/// cheap under load.
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
            Json::Num(state.read_tick_ms as f64),
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
        ("obs".to_string(), Json::Bool(state.obs.timer.on())),
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        ("histograms".to_string(), Json::Obj(histograms)),
        ("prometheus".to_string(), Json::Str(snap.to_prometheus())),
    ])
}

fn publish(state: &Arc<State>, doc: &Json, marks: &StageMarks<'_>) -> Result<Json, String> {
    let request = PublishRequest::from_json(doc)?;
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("`deadline_ms` must be a non-negative integer")?,
        ),
    };
    let timeout = deadline_ms.map_or(Duration::MAX, Duration::from_millis);
    let handle = request.handle();
    let expired = |handle: &str| {
        let ms = deadline_ms.unwrap_or_default();
        Ok(retryable_error(
            ERR_DEADLINE,
            &format!(
                "deadline of {ms}ms expired before `{handle}` was ready; the computation \
                 continues in the background — retry to collect it"
            ),
        ))
    };
    // Resident, or being loaded or published by another request: wait for
    // that run (within the deadline, if there is one) and take its result.
    let lead = match state.resident.find(&handle, timeout) {
        Found::Ready(artifact) => {
            return Ok(publish_ack(state, &request, handle, &artifact, false))
        }
        Found::Failed(e) => return Err(e),
        Found::Pending => return expired(&handle),
        Found::Lead(lead) => lead,
    };
    // A handle persisted earlier (by this process or a previous one) is
    // *loaded*, not recomputed, and counts as cached: the publish work
    // already happened. A copy that cannot be read (transient, or corrupt
    // and now quarantined — both logged) is computed afresh.
    if let Ok(Some(artifact)) = saved(state, &handle) {
        lead.finish(Done::Ready(Arc::clone(&artifact)), false);
        return Ok(publish_ack(state, &request, handle, &artifact, false));
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
    if deadline_ms.is_none() {
        let artifact = compute_and_persist(state, &request, lead, marks)?;
        return Ok(publish_ack(state, &request, handle, &artifact, true));
    }
    // The computation runs on a detached thread; if the deadline expires
    // first the request gets a retryable `deadline` error and the run
    // keeps going, for a later identical publish to wait on or find.
    let slot = lead.slot();
    std::thread::spawn({
        let (state, request) = (Arc::clone(state), request.clone());
        move || {
            let handle = lead.handle().to_string();
            // A panic settles the run as failed (the lead is dropped while
            // unwinding), so its waiters wake; it is counted here, as the
            // catch_unwind around foreground dispatch counts its own.
            let run = catch_unwind(AssertUnwindSafe(|| {
                compute_and_persist(&state, &request, lead, &StageMarks::default())
            }));
            if run.is_err() {
                state.obs.internal_errors.inc();
                state.obs.logger.error(
                    "background publish panicked",
                    &[("handle", handle.as_str().into())],
                );
            }
        }
    });
    match slot.wait(timeout) {
        Some(Done::Ready(artifact)) => Ok(publish_ack(state, &request, handle, &artifact, true)),
        Some(Done::Failed(e)) => Err(e),
        // The run always settles with an artifact or an error.
        None | Some(Done::Nothing) => expired(&handle),
    }
}

/// Computes the artifact for `lead`'s handle and settles its run: drops
/// stale cached counts, persists the result, and — once the store has
/// indexed the save — holds it as the newest save instead of in the map
/// (write-around). A failed publish settles with its error and leaves
/// nothing behind. Both publish paths go through this.
fn compute_and_persist(
    state: &Arc<State>,
    request: &PublishRequest,
    lead: Lead<Arc<Artifact>>,
    marks: &StageMarks<'_>,
) -> Result<Arc<Artifact>, String> {
    let artifact = marks.time(Stage::PublishCompute, || {
        Artifact::publish_with(
            &state.registry,
            request,
            true,
            Some(state.plan_stats.clone()),
        )
    });
    // A fresh compute may follow a quarantine of the same handle: cached
    // count responses for the old artifact must not survive it.
    state.results.invalidate(lead.handle());
    let artifact = match artifact {
        Ok(artifact) => artifact,
        Err(e) => {
            lead.finish(Done::Failed(e.clone()), false);
            return Err(e);
        }
    };
    let persisted = marks.time(Stage::PublishPersist, || persist(state, &artifact));
    lead.finish(Done::Ready(Arc::clone(&artifact)), persisted);
    let logger = &state.obs.logger;
    if logger.enabled(Level::Info) {
        logger.info(
            "artifact published",
            &[
                ("handle", artifact.handle.as_str().into()),
                ("algo", request.algo.as_str().into()),
                ("rows", artifact.dataset.table.num_rows().into()),
                ("persisted", persisted.into()),
                ("resident", (!persisted).into()),
            ],
        );
    }
    Ok(artifact)
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

/// Persistence of a freshly computed artifact; `true` once the store has
/// indexed it. Failure to persist never fails the publish — the artifact
/// stays resident and serveable — but is logged and visible as
/// `persisted: false` in the acknowledgment (and counts toward the
/// store's degraded trip wire).
fn persist(state: &Arc<State>, artifact: &Arc<Artifact>) -> bool {
    let Some(store) = &state.store else {
        return false;
    };
    let snap = crate::persist::snapshot(artifact);
    match store.save(&snap) {
        Ok(_) => true,
        Err(e) => {
            state.obs.logger.error(
                "failed to persist artifact",
                &[
                    ("handle", artifact.handle.as_str().into()),
                    ("error", e.to_string().into()),
                ],
            );
            false
        }
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

/// Answers a `count` with its encoded response line.
fn count(state: &Arc<State>, doc: &Json, marks: &StageMarks<'_>) -> Result<String, Refusal> {
    let mut request = CountRequest::from_json(doc)?;
    let artifact = marks.time(Stage::CountLookup, || lookup(state, &request.handle))?;
    validate_preds(&artifact, &request)?;
    // Deterministic artifact + deterministic estimators ⇒ the response is
    // a pure function of the request; a cache hit replays the exact line
    // a miss would encode (byte-identical on the wire). Errors are never
    // cached — only responses that reached `ok_response`.
    if let Some(line) = state.results.get(&request) {
        return Ok(line);
    }
    let query = AggQuery {
        qi_preds: std::mem::take(&mut request.qi_preds),
        sa_pred: RangePred {
            attr: artifact.dataset.sa,
            lo: request.sa_lo,
            hi: request.sa_hi,
        },
    };
    let members = marks.time(Stage::CountAnswer, || {
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
        Ok::<_, String>(members)
    })?;
    let line = ok_response(members).compact();
    // The predicates go back into the request, which becomes the entry's key.
    request.qi_preds = query.qi_preds;
    state.results.insert(request, &line);
    Ok(line)
}

fn lookup(state: &Arc<State>, handle: &str) -> Result<Arc<Artifact>, String> {
    match resident_or_stored(state, handle)? {
        Some(artifact) => Ok(artifact),
        None => Err(format!("unknown handle `{handle}` (publish first)")),
    }
}

/// The artifact for `handle` if it is resident or saved: a resident copy
/// (the newest save included); else the result of the run going for the
/// handle, a load or a publish; else a load from the data directory, run
/// as the handle's run so racing first reads share it. A loaded artifact
/// stays resident, so the disk is read at most once per handle per
/// process.
///
/// `Ok(None)` means the handle is genuinely unknown. `Err` carries a
/// wire-level message: a publish that failed while this waited for it, a
/// transient read error, or a stored artifact that turned out corrupt —
/// which is quarantined here, so a later `publish` of the same parameters
/// recomputes and re-persists it.
fn resident_or_stored(state: &Arc<State>, handle: &str) -> Result<Option<Arc<Artifact>>, String> {
    match state.resident.find(handle, Duration::MAX) {
        Found::Ready(artifact) => Ok(Some(artifact)),
        Found::Failed(e) => Err(e),
        Found::Pending => Ok(None), // unreachable without a timeout
        Found::Lead(lead) => {
            let found = saved(state, handle);
            // Waiters look again when there is no artifact: the handle is
            // unknown, or this caller reports why its copy is unreadable.
            let done = match &found {
                Ok(Some(artifact)) => Done::Ready(Arc::clone(artifact)),
                Ok(None) | Err(_) => Done::Nothing,
            };
            lead.finish(done, false);
            found
        }
    }
}

/// `handle`'s copy in the data directory, loaded and restored; `Ok(None)`
/// without a store or when the store has not indexed the handle. Each
/// load and restore is timed into the `restore_ns` histogram. Errors as
/// for [`resident_or_stored`].
fn saved(state: &Arc<State>, handle: &str) -> Result<Option<Arc<Artifact>>, String> {
    let Some(store) = state.store.as_ref().filter(|s| s.entry(handle).is_some()) else {
        return Ok(None);
    };
    let start = state.obs.timer.start();
    match store.load(handle) {
        Ok(None) => Ok(None),
        Ok(Some(snap)) => {
            let restored = crate::persist::restore_with(snap, true, Some(state.plan_stats.clone()));
            let restore_ns = state.obs.timer.record_since(&state.obs.restore_ns, start);
            match restored {
                Ok(restored) => {
                    let logger = &state.obs.logger;
                    if logger.enabled(Level::Info) {
                        let mut fields = vec![("handle", handle.into())];
                        if let Some(ns) = restore_ns {
                            fields.push(("restore_ms", (ns as f64 / 1e6).into()));
                        }
                        logger.info("artifact reloaded", &fields);
                    }
                    Ok(Some(restored))
                }
                Err(e) => {
                    let _ = store.quarantine(handle);
                    state.results.invalidate(handle);
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
        // store's index entry is stale (the file was removed behind the
        // server's back), so fall through and let quarantine drop it
        // (making the handle honestly unknown / recomputable).
        Err(betalike_store::StoreError::Io(e)) if e.kind() != std::io::ErrorKind::NotFound => Err(
            format!("stored artifact `{handle}` could not be read: {e} (transient; retry)"),
        ),
        // Integrity failures (checksum, truncation, malformed sections,
        // version skew) are permanent for this file: quarantine it.
        Err(e) => {
            let _ = store.quarantine(handle);
            state.results.invalidate(handle);
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

#[cfg(test)]
mod tests {
    //! The slow-query log and the `info` lines through [`respond`], which
    //! every served and [`LocalServer`] request line goes through. Each
    //! clock read moves time one millisecond on, so a request's elapsed
    //! time and each stage's duration are exact counts of the clock reads
    //! inside them.

    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    /// [`respond`] with the response line parsed back into a document.
    fn respond_doc(state: &Arc<State>, text: &str) -> (Json, bool) {
        let (line, stop) = respond(state, text);
        (Json::parse(&line).expect("a response is JSON"), stop)
    }

    #[derive(Debug, Default)]
    struct SteppingClock(AtomicU64);

    impl Clock for SteppingClock {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(1_000_000, Ordering::SeqCst)
        }
    }

    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A server logging JSON lines to a buffer, on a stepping clock.
    fn stepped(cfg: ServerConfig) -> (Arc<State>, Arc<SteppingClock>, Sink) {
        let (clock, sink) = (Arc::new(SteppingClock::default()), Sink::default());
        let cfg = ServerConfig {
            log_json: true,
            ..cfg
        };
        let addr = ([127, 0, 0, 1], 0).into();
        let state = build_state(&cfg, addr, Arc::clone(&clock) as _, Box::new(sink.clone()));
        (state.expect("state"), clock, sink)
    }

    /// The logged lines without their `ts_ns`.
    fn logged(sink: &Sink) -> Vec<String> {
        let log = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines = log.lines().map(|l| l.split_once(',').unwrap().1);
        lines.map(str::to_string).collect()
    }

    const PUBLISH: &str = r#"{"op":"publish","dataset":"synthetic","rows":300,"dseed":7,"algo":"anatomy","trace_id":"p-1"}"#;

    fn count_line(handle: &str, id: &str) -> String {
        format!(
            r#"{{"op":"count","handle":{handle},"preds":[],"sa":{{"lo":0,"hi":3}},"trace_id":"{id}"}}"#
        )
    }

    /// Runs a publish, three counts (miss, hit, unknown handle), a ping
    /// and an unparseable line; returns the log lines without their
    /// `ts_ns` and the milliseconds the clock moved.
    fn run(obs: bool, slow_query_ms: u64) -> (Vec<String>, u64) {
        let (state, clock, sink) = stepped(ServerConfig {
            obs,
            slow_query_ms,
            ..Default::default()
        });
        let handle = respond_doc(&state, PUBLISH)
            .0
            .get("handle")
            .unwrap()
            .compact();
        let count = count_line;
        for line in [
            count(&handle, "c-miss"),
            count(&handle, "c-hit"),
            count("\"no-such-handle\"", "c-bad"),
            r#"{"op":"ping"}"#.into(),
            "{".into(),
        ] {
            respond_doc(&state, &line);
        }
        (logged(&sink), clock.0.load(Ordering::SeqCst) / 1_000_000)
    }

    /// One `warn` line per request that took the threshold (6 ms) or
    /// more, with its op's stages; the ping (5 ms) and the unparseable
    /// line (3 ms) stay under it.
    #[test]
    fn slow_queries_log_their_stage_breakdown() {
        let head = r#""level":"warn","msg":"slow query","op""#;
        let want = [
            r#""publish","elapsed_ms":9,"ok":true,"trace_id":"p-1","parse":1,"dispatch":5,"publish.compute":1,"publish.persist":1}"#,
            r#""count","elapsed_ms":9,"ok":true,"trace_id":"c-miss","parse":1,"dispatch":5,"count.lookup":1,"count.answer":1}"#,
            r#""count","elapsed_ms":7,"ok":true,"trace_id":"c-hit","parse":1,"dispatch":3,"count.lookup":1}"#,
            r#""count","elapsed_ms":7,"ok":false,"trace_id":"c-bad","parse":1,"dispatch":3,"count.lookup":1}"#,
        ];
        assert_eq!(run(true, 6).0, want.map(|w| format!("{head}:{w}")));
    }

    /// No line with the log off or timings off. Timings alone read the
    /// clock twice per request (stage marks stay disarmed); off, never.
    #[test]
    fn slow_query_log_is_silent_when_disarmed() {
        assert_eq!(run(true, 0), (vec![], 6 * 2));
        assert_eq!(run(false, 1), (vec![], 0));
    }

    const PUBLISH_OTHER: &str = r#"{"op":"publish","dataset":"synthetic","rows":300,"dseed":8,"algo":"anatomy","trace_id":"p-2"}"#;

    /// A server on a fresh data directory, logging at `log_level`.
    fn durable(tag: &str, log_level: Level) -> (Arc<State>, Sink, PathBuf) {
        let dir = std::env::temp_dir().join(format!("betalike-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (state, _, sink) = stepped(ServerConfig {
            log_level,
            data_dir: Some(dir.clone()),
            ..Default::default()
        });
        (state, sink, dir)
    }

    fn handle_of(response: (Json, bool)) -> String {
        response.0.get("handle").expect("handle").compact()
    }

    /// At `info` each fresh durable publish logs one line, and the first
    /// read of one the newest save has displaced logs its reload; at
    /// `warn` the same requests log nothing.
    #[test]
    fn info_logs_publishes_and_reloads() {
        let requests = |log_level| {
            let (state, sink, dir) = durable("info-log", log_level);
            let handle = handle_of(respond_doc(&state, PUBLISH));
            let other = handle_of(respond_doc(&state, PUBLISH_OTHER));
            for id in ["c-1", "c-2"] {
                assert!(respond_doc(&state, &count_line(&handle, id))
                    .0
                    .get("estimate")
                    .is_some());
            }
            let _ = std::fs::remove_dir_all(&dir);
            (handle, other, logged(&sink))
        };
        let (handle, other, lines) = requests(Level::Info);
        let published = |handle: &str| {
            format!(
                r#""level":"info","msg":"artifact published","handle":{handle},"algo":"anatomy","rows":300,"persisted":true,"resident":false}}"#
            )
        };
        assert_eq!(
            lines,
            [
                published(&handle),
                published(&other),
                format!(
                    r#""level":"info","msg":"artifact reloaded","handle":{handle},"restore_ms":3}}"#
                ),
            ]
        );
        assert_eq!(requests(Level::Warn).2, Vec::<String>::new());
    }

    /// Publishes over one dataset with other parameters (a sweep over β)
    /// share one generation of it: the newest save holds the dataset.
    #[test]
    fn a_sweep_over_one_dataset_generates_it_once() {
        let (state, _, dir) = durable("sweep", Level::Warn);
        let newest_dataset = || {
            let newest = state.resident.newest().expect("a newest save");
            Arc::clone(&newest.dataset)
        };
        let mut first = None;
        for beta in [4, 3, 2] {
            let line = format!(
                r#"{{"op":"publish","dataset":"census","rows":1200,"dseed":4,"algo":"burel","beta":{beta}}}"#
            );
            assert_eq!(
                respond_doc(&state, &line).0.get("cached"),
                Some(&Json::Bool(false))
            );
            let dataset = newest_dataset();
            let first = first.get_or_insert_with(|| Arc::downgrade(&dataset));
            let shared = first.upgrade().is_some_and(|d| Arc::ptr_eq(&d, &dataset));
            assert!(shared, "beta {beta} regenerated the dataset");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed publish keeps nothing: 200 of them, each with a fresh
    /// handle (the seed is part of it), leave the resident map empty, and
    /// a later `count` on one of those handles answers `unknown handle`.
    #[test]
    fn failed_publishes_leave_no_entry_behind() {
        let (state, _, _) = stepped(ServerConfig::default());
        let failing = |seed: u32| {
            format!(
                r#"{{"op":"publish","dataset":"synthetic","rows":300,"dseed":7,"algo":"burel","qi":9,"seed":{seed}}}"#
            )
        };
        let mut handles = BTreeSet::new();
        for seed in 0..200 {
            let (response, _) = respond_doc(&state, &failing(seed));
            let error = response.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains("`qi` must be within"), "{error}");
            let request = PublishRequest::from_json(&Json::parse(&failing(seed)).unwrap());
            handles.insert(request.unwrap().handle());
        }
        assert_eq!(handles.len(), 200, "every seed names a new handle");
        assert_eq!(state.resident.entries(), 0);
        assert_eq!(state.obs.artifacts_resident.get(), 0);
        let first = handles.first().unwrap();
        let (response, _) = respond_doc(&state, &count_line(&format!("\"{first}\""), "c-1"));
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some(format!("unknown handle `{first}` (publish first)").as_str())
        );
    }
}
