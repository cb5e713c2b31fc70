//! The clock seam: production code reads time through `Arc<dyn Clock>`,
//! so the determinism lint (D2) stays sound — [`RealClock`] below is the
//! single place outside `crates/bench` where `std::time::Instant` may
//! appear (the lint's clock roster names exactly this file), and tests
//! drive latencies and slow-query thresholds with a [`ManualClock`]
//! instead of sleeping. [`Timer`] is the one clock read that timings
//! gate: everything the serving process times starts and stops through
//! it.

use crate::registry::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Monotonic nanoseconds since an arbitrary process-local epoch.
///
/// Implementations must be cheap (called on every instrumented request)
/// and monotone per instance; nothing in the stack interprets the epoch.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since this clock's epoch.
    fn now_ns(&self) -> u64;
}

/// The wall clock: monotonic [`Instant`] time against a lazily-pinned
/// process epoch. This is the **only** production user of `Instant` in
/// the workspace (lint rule D2); everything else takes a `dyn Clock`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = *EPOCH.get_or_init(Instant::now);
        // Saturates at u64::MAX after ~584 years of uptime.
        u64::try_from(Instant::now().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for tests: time moves only when
/// [`ManualClock::advance`] (or [`ManualClock::set`]) says so, making
/// latencies and slow-query thresholds exactly reproducible.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves time forward by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Jumps to an absolute time (tests re-anchoring between phases).
    pub fn set(&self, ns: u64) {
        self.ns.store(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

/// A [`Clock`] behind the timings switch: [`Timer::start`] reads the
/// clock only while timings are on, and [`Timer::since`] /
/// [`Timer::record_since`] turn a start into an elapsed time. With
/// timings off no call reads the clock, so one flag silences every
/// latency the server and the store measure.
#[derive(Debug, Clone)]
pub struct Timer {
    clock: Arc<dyn Clock>,
    on: bool,
}

impl Timer {
    /// A timer over `clock`, reading it only when `on`.
    pub fn new(clock: Arc<dyn Clock>, on: bool) -> Self {
        Timer { clock, on }
    }

    /// Whether timings are on.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The clock reading when timings are on, else `None`.
    pub fn start(&self) -> Option<u64> {
        self.on.then(|| self.clock.now_ns())
    }

    /// Nanoseconds since `start`, or `None` when [`Timer::start`] did not
    /// read the clock.
    pub fn since(&self, start: Option<u64>) -> Option<u64> {
        start.map(|start| self.clock.now_ns().saturating_sub(start))
    }

    /// [`Timer::since`], also recorded into `hist`.
    pub fn record_since(&self, hist: &Histogram, start: Option<u64>) -> Option<u64> {
        let ns = self.since(start)?;
        hist.record(ns);
        Some(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock;
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_command() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_ns(), 12);
        c.set(3);
        assert_eq!(c.now_ns(), 3);
    }

    #[test]
    fn clocks_erase_behind_arcs() {
        let clocks: Vec<Arc<dyn Clock>> = vec![Arc::new(RealClock), Arc::new(ManualClock::new())];
        for c in &clocks {
            let _ = c.now_ns();
        }
    }

    #[test]
    fn timer_reads_the_clock_only_when_on() {
        let clock = Arc::new(ManualClock::new());
        let hist = Histogram::new();
        let on = Timer::new(Arc::clone(&clock) as Arc<dyn Clock>, true);
        let off = Timer::new(Arc::clone(&clock) as Arc<dyn Clock>, false);
        clock.set(10);
        let (a, b) = (on.start(), off.start());
        assert_eq!((a, b), (Some(10), None));
        clock.advance(32);
        assert_eq!(on.record_since(&hist, a), Some(32));
        assert_eq!(off.record_since(&hist, b), None);
        assert_eq!(on.since(a), Some(32));
        assert_eq!(hist.snapshot().sum(), 32);
        assert_eq!(hist.count(), 1);
    }
}
