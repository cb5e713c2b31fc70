//! # betalike-obs
//!
//! The workspace's observability layer: everything the serving stack uses
//! to *measure itself* without perturbing what it measures.
//!
//! Three pieces, all dependency-free and `std`-only:
//!
//! * [`registry`] — a process-wide metrics [`Registry`] of named
//!   [`Counter`]s, [`Gauge`]s and log-bucketed latency [`Histogram`]s.
//!   Every cell is a plain atomic behind an [`std::sync::Arc`], so a hot
//!   path that holds its handle pays one `fetch_add` per update; the
//!   registry's lock is touched only on registration, on
//!   [`Registry::snapshot`], and inside [`Registry::coherent`] blocks
//!   (multi-metric transitions that a snapshot must never observe
//!   half-applied — the fix for the `health` gauge races, see
//!   `DESIGN.md` §14).
//! * [`clock`] — the [`Clock`] seam. Production code takes time through
//!   `Arc<dyn Clock>`; [`RealClock`] is the **only** type in the
//!   workspace outside `crates/bench` allowed to touch
//!   `std::time::Instant` (betalike-lint rule D2 carves exactly that
//!   file out), and [`ManualClock`] gives tests deterministic time.
//!   [`Timer`] is the one timings-gated clock read: the server's request
//!   latencies and stage marks, its stored-artifact reloads and the
//!   store's save/load/fsync timings all start and stop through it, so
//!   switching timings off silences every clock read at one place.
//! * [`log`] — a leveled [`Logger`] writing structured text or JSON
//!   lines (the `BETALIKE_LOG` environment variable and the server's
//!   `--log-level` / `--log-json` flags configure it).
//!
//! The crate renders Prometheus-style text exposition
//! ([`Snapshot::to_prometheus`]) but deliberately knows nothing about the
//! workspace's JSON kernel or wire protocol — the server maps snapshots
//! onto the wire itself, keeping this crate leaf-level and reusable from
//! `crates/store` and `crates/query` without dependency cycles.

// Backstops betalike-lint rule P2: stronger than the workspace-level
// `unsafe_code = "deny"` because `forbid` cannot be overridden locally.
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod clock;
pub mod log;
pub mod registry;

pub use clock::{Clock, ManualClock, RealClock, Timer};
pub use log::{Level, LogValue, Logger};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, NUM_BUCKETS};
