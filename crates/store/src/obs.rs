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
//! server's `health` response is derived from them); the server's
//! [`Timer`] gates only the clock reads and histogram records, which is
//! what the perf suite's overhead criterion measures.

use betalike_obs::{Counter, Gauge, Histogram, Registry, Timer};
use std::sync::Arc;

/// Shared instrumentation handles for one [`crate::ArtifactStore`].
#[derive(Debug, Clone)]
pub struct StoreObs {
    /// The server's timings-gated clock: latency histograms record only
    /// while it is on; counters and gauges update regardless.
    pub timer: Timer,
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
    pub fn from_registry(registry: &Registry, timer: Timer) -> Self {
        StoreObs {
            timer,
            save_ns: registry.histogram("store_save_ns"),
            load_ns: registry.histogram("store_load_ns"),
            fsync_ns: registry.histogram("store_fsync_ns"),
            quarantines: registry.counter("store_quarantines"),
            stored: registry.gauge("store_artifacts"),
            write_failures: registry.gauge("store_write_failures"),
            degraded: registry.gauge("store_degraded"),
        }
    }
}
