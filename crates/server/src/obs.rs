//! Server-side observability: the shared metrics [`Registry`], per-op
//! request/error counters and latency histograms, the structured
//! [`Logger`], and per-request [`Trace`]s.
//!
//! One [`ServerObs`] lives in the server's `State`. Counters and gauges
//! update unconditionally — the `health` and `metrics` ops are derived
//! from them — while clock reads, histogram records, spans, and the
//! slow-query log are gated behind [`ServerObs::timings`]
//! ([`crate::ServerConfig::obs`]), which is what the perf suite's
//! instrumentation-overhead criterion measures.
//!
//! The `health` op used to assemble its gauges from scattered atomics
//! with no common lock, so a probe could observe a connection in neither
//! the queue nor a worker. Paired transitions now run inside
//! [`Registry::coherent`] and `health`/`metrics` read one
//! [`Registry::snapshot`], taken under the same lock.

use betalike_obs::{
    Clock, Counter, Gauge, Histogram, Level, LogValue, Logger, RealClock, Registry, Trace,
};
use std::collections::BTreeMap;
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
    /// Monotonic time source for latencies, spans, and log timestamps.
    pub clock: Arc<dyn Clock>,
    /// Whether to read the clock: latency histograms, spans, and the
    /// slow-query log. Counters and gauges update regardless.
    pub timings: bool,
    /// The structured logger (stderr; level from config / `BETALIKE_LOG`).
    pub logger: Logger,
    /// Requests slower than this (milliseconds) get a `warn` line with
    /// their span breakdown; `0` disables the slow-query log.
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
    /// Successfully published artifacts in the resident cache (failed
    /// publishes are cached too, but not counted).
    pub artifacts_resident: Arc<Gauge>,
    /// Mirror of the result cache's hit count.
    pub cache_hits: Arc<Gauge>,
    /// Mirror of the result cache's miss count.
    pub cache_misses: Arc<Gauge>,
    /// Mirror of the result cache's current size.
    pub cache_size: Arc<Gauge>,
    /// Lazy reloads of stored artifacts: one record per `load` +
    /// `restore` a lookup runs (nanoseconds).
    pub restore_ns: Arc<Histogram>,
}

impl ServerObs {
    /// Registers every server-level metric in `registry`.
    pub fn new(
        registry: Arc<Registry>,
        timings: bool,
        level: Level,
        json: bool,
        slow_query_ms: u64,
    ) -> Self {
        let clock: Arc<dyn Clock> = Arc::new(RealClock);
        let mut ops = BTreeMap::new();
        for op in WIRE_OPS {
            ops.insert(op, OpMetrics::from_registry(&registry, op));
        }
        let unknown = OpMetrics::from_registry(&registry, UNKNOWN_OP);
        let logger = Logger::new(level, json, Arc::clone(&clock));
        ServerObs {
            timings,
            logger,
            slow_query_ms,
            ops,
            unknown,
            queue_depth: registry.gauge("queue_depth"),
            active_connections: registry.gauge("active_connections"),
            shed: registry.counter("shed_total"),
            internal_errors: registry.counter("internal_errors_total"),
            artifacts_resident: registry.gauge("artifacts_resident"),
            cache_hits: registry.gauge("result_cache_hits"),
            cache_misses: registry.gauge("result_cache_misses"),
            cache_size: registry.gauge("result_cache_size"),
            restore_ns: registry.histogram("restore_ns"),
            registry,
            clock,
        }
    }

    /// The metrics bucket for `op` (unknown names share [`UNKNOWN_OP`]).
    pub fn op(&self, op: &str) -> &OpMetrics {
        self.ops.get(op).unwrap_or(&self.unknown)
    }

    /// The clock reading when timings are on, else `None`.
    pub fn start(&self) -> Option<u64> {
        if self.timings {
            Some(self.clock.now_ns())
        } else {
            None
        }
    }

    /// A per-request trace when span timings could be observed — i.e.
    /// timings are on *and* the slow-query log (their only consumer on
    /// the serving path) is armed. Spans cost nothing when no trace
    /// exists, which keeps the per-request overhead of the default
    /// configuration to two clock reads and one histogram record.
    pub fn trace(&self) -> Option<Trace> {
        if self.timings && self.slow_query_ms > 0 {
            Some(Trace::new(Arc::clone(&self.clock), None))
        } else {
            None
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
        trace: Option<&Trace>,
        trace_id: Option<&str>,
    ) {
        let m = self.op(op);
        m.requests.inc();
        if !ok {
            m.errors.inc();
        }
        let Some(start) = start else {
            return;
        };
        let elapsed_ns = self.clock.now_ns().saturating_sub(start);
        m.latency_ns.record(elapsed_ns);
        if self.slow_query_ms == 0 || elapsed_ns < self.slow_query_ms.saturating_mul(1_000_000) {
            return;
        }
        let spans = trace.map(Trace::spans).unwrap_or_default();
        let mut fields: Vec<(&str, LogValue)> = vec![
            ("op", op.into()),
            ("elapsed_ms", (elapsed_ns as f64 / 1.0e6).into()),
            ("ok", ok.into()),
        ];
        if let Some(id) = trace_id {
            fields.push(("trace_id", id.into()));
        }
        for span in &spans {
            if let Some(d) = span.duration_ns() {
                fields.push((span.name.as_str(), (d as f64 / 1.0e6).into()));
            }
        }
        self.logger.warn("slow query", &fields);
    }

    /// Mirrors the result cache's stats into the registry gauges, all
    /// three under one registry lock.
    pub fn sync_cache(&self, stats: &crate::result_cache::CacheStats) {
        let (hits, misses, len) = (stats.hits, stats.misses, stats.len);
        self.registry.coherent(|| {
            self.cache_hits.set(hits.min(i64::MAX as u64) as i64);
            self.cache_misses.set(misses.min(i64::MAX as u64) as i64);
            self.cache_size.set(len.min(i64::MAX as usize) as i64);
        });
    }
}
