//! The resident artifact set (DESIGN.md §8, "The resident set"): one
//! mutex over a `handle → Entry` map and the newest save. An entry is
//! `Ready` (the artifact is in memory) or `Running` (one caller leads the
//! handle's load or compute, and everyone else who asks waits on its
//! [`Slot`]). A fresh durable publish leaves the map and becomes the
//! newest save in one critical section. What a run does is the server's
//! business; this module decides who runs, who waits and what stays.

use crate::registry::locked;
use betalike_obs::Gauge;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// How a run ended, as its waiters see it.
#[derive(Debug, Clone)]
pub(crate) enum Done<V> {
    /// The run produced the value.
    Ready(V),
    /// The run produced nothing (no stored copy, or its lead gave up).
    Nothing,
    /// The run failed with this message.
    Failed(String),
}

/// One run's outcome once settled, and the condvar its waiters sleep on.
#[derive(Debug)]
pub(crate) struct Slot<V> {
    done: Mutex<Option<Done<V>>>,
    settled: Condvar,
}

impl<V: Clone> Slot<V> {
    /// The run's outcome, waiting at most `timeout`; `None` if the run is
    /// still going then.
    pub(crate) fn wait(&self, timeout: Duration) -> Option<Done<V>> {
        let done = locked(&self.done);
        let waited = self
            .settled
            .wait_timeout_while(done, timeout, |d| d.is_none());
        waited.unwrap_or_else(PoisonError::into_inner).0.clone()
    }
}

#[derive(Debug)]
enum Entry<V> {
    Ready(V),
    Running(Arc<Slot<V>>),
}

#[derive(Debug)]
struct Set<V> {
    entries: HashMap<String, Entry<V>>,
    /// The newest save, held until the next one; its handle has no entry.
    newest: Option<(String, V)>,
    /// How many entries are `Ready`.
    ready: usize,
    /// Kept at `ready` plus the newest save.
    gauge: Arc<Gauge>,
}

/// The resident set; see the module docs.
#[derive(Debug)]
pub(crate) struct Resident<V> {
    /// Shared with each [`Lead`], which may settle on another thread.
    set: Arc<Mutex<Set<V>>>,
}

/// What [`Resident::find`] found for a handle.
#[derive(Debug)]
pub(crate) enum Found<V> {
    /// Resident, or produced by the run that was going.
    Ready(V),
    /// The run that was going failed.
    Failed(String),
    /// The timeout passed while another caller's run was going.
    Pending,
    /// Nothing there: the caller now leads the handle's run.
    Lead(Lead<V>),
}

impl<V: Clone> Resident<V> {
    /// An empty set that keeps `gauge` at its resident count.
    pub(crate) fn new(gauge: Arc<Gauge>) -> Self {
        let (entries, newest, ready) = (HashMap::new(), None, 0);
        let set = Set {
            entries,
            newest,
            ready,
            gauge,
        };
        Resident {
            set: Arc::new(Mutex::new(set)),
        }
    }

    /// `handle`'s resident value; else the outcome of the run going for
    /// it, waiting at most `timeout` (`Duration::MAX`: as long as it
    /// takes) and looking again if the run produced nothing; else a new
    /// run that the caller leads.
    pub(crate) fn find(&self, handle: &str, timeout: Duration) -> Found<V> {
        loop {
            let slot = {
                let mut set = locked(&self.set);
                match set.entries.get(handle) {
                    Some(Entry::Ready(v)) => return Found::Ready(v.clone()),
                    Some(Entry::Running(slot)) => Arc::clone(slot),
                    None => match &set.newest {
                        Some((newest, v)) if newest == handle => return Found::Ready(v.clone()),
                        _ => {
                            let slot = Arc::new(Slot {
                                done: Mutex::new(None),
                                settled: Condvar::new(),
                            });
                            let entry = Entry::Running(Arc::clone(&slot));
                            set.entries.insert(handle.to_string(), entry);
                            return Found::Lead(Lead {
                                set: Arc::clone(&self.set),
                                handle: handle.to_string(),
                                slot,
                                settled: false,
                            });
                        }
                    },
                }
            };
            match slot.wait(timeout) {
                None => return Found::Pending,
                Some(Done::Ready(v)) => return Found::Ready(v),
                Some(Done::Failed(e)) => return Found::Failed(e),
                Some(Done::Nothing) => {}
            }
        }
    }

    /// Handles of the resident values, sorted.
    pub(crate) fn handles(&self) -> Vec<String> {
        let set = locked(&self.set);
        let ready = set
            .entries
            .iter()
            .filter(|(_, e)| matches!(e, Entry::Ready(_)));
        let newest = set.newest.iter().map(|(h, _)| h);
        let mut handles: Vec<String> = ready.map(|(h, _)| h).chain(newest).cloned().collect();
        handles.sort();
        handles
    }
}

/// The right to settle one handle's run. Dropped unsettled, it wakes the
/// waiters to look again, or — dropped by a panic — fails them.
#[derive(Debug)]
pub(crate) struct Lead<V> {
    set: Arc<Mutex<Set<V>>>,
    handle: String,
    slot: Arc<Slot<V>>,
    settled: bool,
}

impl<V: Clone> Lead<V> {
    /// The handle this run is for.
    pub(crate) fn handle(&self) -> &str {
        &self.handle
    }

    /// The slot this run's waiters sleep on.
    pub(crate) fn slot(&self) -> Arc<Slot<V>> {
        Arc::clone(&self.slot)
    }

    /// Settles the run and wakes its waiters. A `Ready` value stays
    /// resident in the map, or — when `saved`, a fresh publish the store
    /// has indexed — becomes the newest save, and the save it displaces
    /// leaves memory. Any other outcome leaves no entry.
    pub(crate) fn finish(mut self, done: Done<V>, saved: bool) {
        let kept = match &done {
            Done::Ready(v) => Some((v.clone(), saved)),
            Done::Nothing | Done::Failed(_) => None,
        };
        self.settle(done, kept);
    }
}

impl<V> Lead<V> {
    fn settle(&mut self, done: Done<V>, kept: Option<(V, bool)>) {
        self.settled = true;
        let mut set = locked(&self.set);
        set.entries.remove(&self.handle);
        let displaced = match kept {
            Some((v, true)) => set.newest.replace((self.handle.clone(), v)),
            Some((v, false)) => {
                set.entries.insert(self.handle.clone(), Entry::Ready(v));
                set.ready += 1;
                None
            }
            None => None,
        };
        let resident = set.ready + usize::from(set.newest.is_some());
        set.gauge.set(i64::try_from(resident).unwrap_or(i64::MAX));
        drop(set);
        *locked(&self.slot.done) = Some(done);
        self.slot.settled.notify_all();
        drop(displaced); // freed outside the lock
    }
}

impl<V> Drop for Lead<V> {
    fn drop(&mut self) {
        if !self.settled {
            let done = if std::thread::panicking() {
                Done::Failed(format!("internal error while resolving `{}`", self.handle))
            } else {
                Done::Nothing
            };
            self.settle(done, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    impl<V: Clone> Resident<V> {
        /// Entries in the map, running ones included.
        pub(crate) fn entries(&self) -> usize {
            locked(&self.set).entries.len()
        }

        /// The newest save.
        pub(crate) fn newest(&self) -> Option<V> {
            locked(&self.set).newest.as_ref().map(|n| n.1.clone())
        }

        fn gauge(&self) -> i64 {
            locked(&self.set).gauge.get()
        }
    }

    fn set() -> Resident<u32> {
        Resident::new(Arc::new(Gauge::new()))
    }

    fn lead(resident: &Resident<u32>, handle: &str) -> Lead<u32> {
        match resident.find(handle, Duration::MAX) {
            Found::Lead(lead) => lead,
            other => panic!("`{handle}` should lead, got {other:?}"),
        }
    }

    fn value(found: Found<u32>) -> u32 {
        match found {
            Found::Ready(v) => v,
            other => panic!("expected a value, got {other:?}"),
        }
    }

    /// Racers that arrive while a run is going all wait on it and get its
    /// value, whether the run settles as a load (the artifact stays in
    /// the map) or as a saved publish (it becomes the newest save); after
    /// it, the handle is resident and nobody leads again.
    #[test]
    fn racers_share_one_run_whether_a_load_or_a_publish_led_it() {
        for saved in [false, true] {
            let resident = set();
            let lead = lead(&resident, "h");
            let slot = lead.slot();
            let values: Vec<u32> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..4)
                    .map(|_| s.spawn(|| value(resident.find("h", Duration::MAX))))
                    .collect();
                // The map entry, the lead, `slot`, and one per waiting racer.
                while Arc::strong_count(&slot) < 3 + 4 {
                    std::thread::yield_now();
                }
                lead.finish(Done::Ready(7), saved);
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(values, [7; 4]);
            assert_eq!(value(resident.find("h", Duration::MAX)), 7);
            assert_eq!(resident.handles(), ["h"]);
            assert_eq!(resident.gauge(), 1);
            assert_eq!(resident.newest().is_some(), saved);
            assert_eq!(resident.entries(), usize::from(!saved));
        }
    }

    /// A failed run wakes its waiters with the error and leaves nothing;
    /// an abandoned one wakes them to look again, and one dropped by a
    /// panic fails them.
    #[test]
    fn unsettled_runs_leave_no_entry() {
        let resident = set();
        let slot = lead(&resident, "h").slot(); // dropped unsettled
        assert!(matches!(slot.wait(Duration::MAX), Some(Done::Nothing)));
        let lead_h = lead(&resident, "h");
        let slot = lead_h.slot();
        lead_h.finish(Done::Failed("no".into()), false);
        assert!(matches!(slot.wait(Duration::MAX), Some(Done::Failed(e)) if e == "no"));
        let lead_h = lead(&resident, "h");
        let slot = lead_h.slot();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = lead_h;
            panic!("run panicked");
        }));
        assert!(panicked.is_err());
        let failed = slot.wait(Duration::MAX);
        assert!(matches!(failed, Some(Done::Failed(e)) if e.contains("internal error")));
        assert_eq!(resident.entries(), 0);
        assert!(resident.handles().is_empty());
        assert_eq!(resident.gauge(), 0);
    }

    /// A bounded wait answers "not ready" while the run goes on — at once
    /// for a zero timeout — and the value once it has settled; `find`
    /// with a timeout answers `Pending` the same way.
    #[test]
    fn wait_timeout_returns_not_ready_and_then_the_value() {
        let resident = set();
        let lead = lead(&resident, "h");
        let slot = lead.slot();
        assert!(slot.wait(Duration::ZERO).is_none());
        assert!(slot.wait(Duration::from_millis(20)).is_none());
        let pending = resident.find("h", Duration::from_millis(20));
        assert!(matches!(pending, Found::Pending));
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                lead.finish(Done::Ready(3), false);
            });
            let done = slot.wait(Duration::from_secs(60));
            assert!(matches!(done, Some(Done::Ready(3))));
        });
        assert!(matches!(slot.wait(Duration::ZERO), Some(Done::Ready(3))));
        assert_eq!(value(resident.find("h", Duration::ZERO)), 3);
    }

    /// A publisher saves handle after handle as the server does — into
    /// the store first, then settling its run as the newest save, which
    /// displaces the previous one — while readers look up the handle last
    /// acknowledged and the one being saved. A reader finds a handle in
    /// memory or waits on its run; it may lead a load only for a handle
    /// that is not saved yet (and finds nothing) or one a newer save has
    /// displaced. So a lookup racing the swap never misses a saved handle
    /// and never reloads the newest save.
    #[test]
    fn a_lookup_racing_the_newest_save_swap_never_misses_a_saved_handle() {
        const SAVES: usize = 2_000;
        let resident = set();
        let store = Mutex::new(BTreeSet::new());
        let acked = AtomicUsize::new(0);
        let loads = AtomicUsize::new(0);
        let handle = |i: usize| format!("h{i}");
        let read = |i: usize, acked: usize| match resident.find(&handle(i), Duration::MAX) {
            Found::Ready(v) => assert_eq!(v as usize, i),
            Found::Lead(lead) => {
                let stored = store.lock().unwrap().contains(&i);
                assert!(stored || i > acked, "h{i} is acknowledged but not stored");
                if stored {
                    let newest = resident.newest().map(|v| v as usize);
                    assert!(newest > Some(i), "h{i} reloaded while newest is {newest:?}");
                    loads.fetch_add(1, Ordering::SeqCst);
                    lead.finish(Done::Ready(i as u32), false);
                }
            }
            other => panic!("h{i}: {other:?}"),
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let i = acked.load(Ordering::SeqCst);
                    if i >= SAVES {
                        break;
                    }
                    if i > 0 {
                        read(i, i);
                    }
                    read(i + 1, i);
                });
            }
            for i in 1..=SAVES {
                // A reader may have led this handle first and found nothing.
                let lead = lead(&resident, &handle(i));
                store.lock().unwrap().insert(i);
                lead.finish(Done::Ready(i as u32), true);
                acked.store(i, Ordering::SeqCst);
            }
        });
        let handles = resident.handles();
        assert!(handles.windows(2).all(|w| w[0] != w[1]), "listed twice");
        assert_eq!(handles.len(), loads.load(Ordering::SeqCst) + 1);
        assert_eq!(resident.gauge(), handles.len() as i64);
    }
}
