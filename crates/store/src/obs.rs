//! Store-side observability handles: latency histograms for the durable
//! paths (save / load / every fsync) plus counters and gauges mirroring
//! the store's health state, all backed by the server's shared
//! `betalike_obs::Registry`.
//!
//! The handles are attached *after* [`crate::ArtifactStore::open_with`]
//! (via [`crate::ArtifactStore::attach_obs`]) so the store itself stays
//! constructible without a registry — the `betalike-store` CLI and the
//! fault-injection torture suite never pay for instrumentation they do
//! not read. Gauges and counters always update once attached (the
//! server's `health` response is derived from them); the `timings` flag
//! gates only the clock reads and histogram records, which is what the
//! perf suite's overhead criterion measures.

use betalike_obs::{Clock, Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Shared instrumentation handles for one [`crate::ArtifactStore`].
#[derive(Debug, Clone)]
pub struct StoreObs {
    /// Time source for the latency histograms.
    pub clock: Arc<dyn Clock>,
    /// Whether to read the clock and record latency histograms; counters
    /// and gauges update regardless.
    pub timings: bool,
    /// Whole-call [`crate::ArtifactStore::save`] latency (nanoseconds).
    pub save_ns: Arc<Histogram>,
    /// Whole-call [`crate::ArtifactStore::load`] latency (nanoseconds).
    pub load_ns: Arc<Histogram>,
    /// Per-`fsync(2)` latency across saves and removes (nanoseconds).
    pub fsync_ns: Arc<Histogram>,
    /// Files moved to `quarantine/` since attach.
    pub quarantines: Arc<Counter>,
    /// Artifacts currently indexed.
    pub stored: Arc<Gauge>,
    /// Consecutive save failures (mirrors
    /// [`crate::ArtifactStore::write_failures`]).
    pub write_failures: Arc<Gauge>,
    /// 1 while [`crate::ArtifactStore::degraded`], else 0.
    pub degraded: Arc<Gauge>,
}

impl StoreObs {
    /// Handles registered under the `store_*` names in `registry`.
    pub fn from_registry(registry: &Registry, clock: Arc<dyn Clock>, timings: bool) -> Self {
        StoreObs {
            clock,
            timings,
            save_ns: registry.histogram("store_save_ns"),
            load_ns: registry.histogram("store_load_ns"),
            fsync_ns: registry.histogram("store_fsync_ns"),
            quarantines: registry.counter("store_quarantines"),
            stored: registry.gauge("store_artifacts"),
            write_failures: registry.gauge("store_write_failures"),
            degraded: registry.gauge("store_degraded"),
        }
    }

    /// The clock reading when `timings` is on, else `None` — pair with
    /// [`StoreObs::record_since`].
    pub(crate) fn start(&self) -> Option<u64> {
        if self.timings {
            Some(self.clock.now_ns())
        } else {
            None
        }
    }

    /// Records `now - start` into `hist` when [`StoreObs::start`] armed.
    pub(crate) fn record_since(&self, hist: &Histogram, start: Option<u64>) {
        if let Some(start) = start {
            hist.record(self.clock.now_ns().saturating_sub(start));
        }
    }
}
