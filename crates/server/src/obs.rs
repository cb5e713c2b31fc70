//! Server-side observability: the shared metrics [`Registry`], per-op
//! request/error counters and latency histograms, the structured
//! [`Logger`], and the per-request [`StageMarks`] the slow-query log
//! reports.
//!
//! One [`ServerObs`] lives in the server's `State`. Counters and gauges
//! update unconditionally — the `health` and `metrics` ops are derived
//! from them — while clock reads, histogram records, stage marks, and the
//! slow-query log all go through one [`Timer`], on only while
//! [`crate::ServerConfig::obs`] is, which is what the perf suite's
//! instrumentation-overhead criterion measures.
//!
//! The `health` op used to assemble its gauges from scattered atomics
//! with no common lock, so a probe could observe a connection in neither
//! the queue nor a worker. Paired transitions now run inside
//! [`Registry::coherent`] and `health`/`metrics` read one
//! [`Registry::snapshot`], taken under the same lock.

use betalike_obs::{Clock, Counter, Gauge, Histogram, LogValue, Logger, Registry, Timer};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

/// Every op the dispatcher understands, in wire-roster order. Per-op
/// metrics are pre-registered for each so a `metrics` scrape lists every
/// op from the first request, not only the ones already exercised.
pub(crate) const WIRE_OPS: [&str; 9] = [
    "ping", "datasets", "publish", "count", "audit", "verify", "health", "metrics", "shutdown",
];

/// The bucket unparseable or unknown ops are accounted under.
pub(crate) const UNKNOWN_OP: &str = "unknown";

/// Request/error counters plus the latency histogram for one wire op.
#[derive(Debug, Clone)]
pub(crate) struct OpMetrics {
    pub requests: Arc<Counter>,
    pub errors: Arc<Counter>,
    pub latency_ns: Arc<Histogram>,
}

impl OpMetrics {
    fn from_registry(registry: &Registry, op: &str) -> Self {
        OpMetrics {
            requests: registry.counter(&format!("op_{op}_requests")),
            errors: registry.counter(&format!("op_{op}_errors")),
            latency_ns: registry.histogram(&format!("op_{op}_latency_ns")),
        }
    }
}

/// Shared observability handles for one server process.
#[derive(Debug)]
pub(crate) struct ServerObs {
    /// The process-wide metrics registry (`health`, `metrics`, and the
    /// store/catalog handles all share it).
    pub registry: Arc<Registry>,
    /// The timings-gated clock behind latency histograms, stage marks,
    /// and the slow-query log (shared with the store). Counters and
    /// gauges update regardless.
    pub timer: Timer,
    /// The structured logger (stderr; level from config / `BETALIKE_LOG`).
    pub logger: Logger,
    /// Requests slower than this (milliseconds) get a `warn` line with
    /// their stage breakdown; `0` disables the slow-query log.
    pub slow_query_ms: u64,
    ops: BTreeMap<&'static str, OpMetrics>,
    /// The bucket unknown op names fall back to.
    unknown: OpMetrics,
    /// Accepted connections waiting for a worker.
    pub queue_depth: Arc<Gauge>,
    /// Connections currently owned by a worker.
    pub active_connections: Arc<Gauge>,
    /// Connections shed with `overloaded` since startup.
    pub shed: Arc<Counter>,
    /// Panics caught on the request path or in a background publish since
    /// startup — each is a bug; a healthy server keeps this at 0.
    pub internal_errors: Arc<Counter>,
    /// Published artifacts in memory: read since start, without a
    /// durable copy, or the newest save. Kept by the resident set
    /// ([`crate::resident`]) as its entries change.
    pub artifacts_resident: Arc<Gauge>,
    /// Lazy reloads of stored artifacts — a previous process's, or this
    /// one's after write-around: one record per `load` + `restore` a
    /// lookup runs (nanoseconds).
    pub restore_ns: Arc<Histogram>,
}

impl ServerObs {
    /// Registers every server-level metric in `registry`; `clock` times
    /// requests when `timings` is on and stamps the log lines written to
    /// `sink`.
    pub fn new(
        registry: Arc<Registry>,
        cfg: &crate::ServerConfig,
        clock: Arc<dyn Clock>,
        sink: Box<dyn Write + Send>,
    ) -> Self {
        let mut ops = BTreeMap::new();
        for op in WIRE_OPS {
            ops.insert(op, OpMetrics::from_registry(&registry, op));
        }
        let unknown = OpMetrics::from_registry(&registry, UNKNOWN_OP);
        ServerObs {
            logger: Logger::with_sink(cfg.log_level, cfg.log_json, Arc::clone(&clock), sink),
            timer: Timer::new(clock, cfg.obs),
            slow_query_ms: cfg.slow_query_ms,
            ops,
            unknown,
            queue_depth: registry.gauge("queue_depth"),
            active_connections: registry.gauge("active_connections"),
            shed: registry.counter("shed_total"),
            internal_errors: registry.counter("internal_errors_total"),
            artifacts_resident: registry.gauge("artifacts_resident"),
            restore_ns: registry.histogram("restore_ns"),
            registry,
        }
    }

    /// The metrics bucket for `op` (unknown names share [`UNKNOWN_OP`]).
    pub fn op(&self, op: &str) -> &OpMetrics {
        self.ops.get(op).unwrap_or(&self.unknown)
    }

    /// Fresh stage marks for one request, armed only when they could be
    /// reported — timings on *and* the slow-query log (their only
    /// consumer) enabled. Disarmed marks read no clock, which keeps the
    /// per-request overhead of the default configuration to two clock
    /// reads and one histogram record.
    pub fn stage_marks(&self) -> StageMarks<'_> {
        StageMarks {
            timer: (self.timer.on() && self.slow_query_ms > 0).then_some(&self.timer),
            ..StageMarks::default()
        }
    }

    /// Closes out one request: bumps the op's request (and, on a
    /// non-`ok` response, error) counter, records its latency, and emits
    /// the slow-query log line when the threshold is armed and crossed.
    pub fn finish(
        &self,
        op: &str,
        ok: bool,
        start: Option<u64>,
        marks: &StageMarks<'_>,
        trace_id: Option<&str>,
    ) {
        let m = self.op(op);
        m.requests.inc();
        if !ok {
            m.errors.inc();
        }
        let Some(elapsed_ns) = self.timer.record_since(&m.latency_ns, start) else {
            return;
        };
        if self.slow_query_ms == 0 || elapsed_ns < self.slow_query_ms.saturating_mul(1_000_000) {
            return;
        }
        let ms = |ns: u64| LogValue::from(ns as f64 / 1.0e6);
        let mut fields: Vec<(&str, LogValue)> = vec![
            ("op", op.into()),
            ("elapsed_ms", ms(elapsed_ns)),
            ("ok", ok.into()),
        ];
        if let Some(id) = trace_id {
            fields.push(("trace_id", id.into()));
        }
        for (name, ns) in Stage::NAMES.iter().zip(&marks.ns) {
            if let Some(ns) = ns.get() {
                fields.push((name, ms(ns)));
            }
        }
        self.logger.warn("slow query", &fields);
    }
}

/// The fixed request stages a slow-query line breaks a request into, in
/// the order they open: the request-line parse, the op itself, a count's
/// handle lookup (a lazy reload included) and its estimate on a
/// result-cache miss, a publish's compute and its write-through to the
/// store.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Parse,
    Dispatch,
    CountLookup,
    CountAnswer,
    PublishCompute,
    PublishPersist,
}

impl Stage {
    /// Each stage's field name in the slow-query line, in stage order.
    pub(crate) const NAMES: [&'static str; 6] = [
        "parse",
        "dispatch",
        "count.lookup",
        "count.answer",
        "publish.compute",
        "publish.persist",
    ];
}

/// One request's stage durations: a fixed slot per [`Stage`], held on the
/// request's stack. Default marks are disarmed and read no clock (the
/// background publisher, which no slow-query line reports, uses those).
#[derive(Debug, Default)]
pub(crate) struct StageMarks<'a> {
    timer: Option<&'a Timer>,
    ns: [Cell<Option<u64>>; Stage::NAMES.len()],
}

impl StageMarks<'_> {
    /// Runs `f`, marking its duration under `stage` when armed. Stages
    /// nest: a closure may time inner stages on the same marks.
    pub(crate) fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let Some(timer) = self.timer else {
            return f();
        };
        let start = timer.start();
        let out = f();
        if let Some(slot) = self.ns.get(stage as usize) {
            slot.set(timer.since(start));
        }
        out
    }
}
