//! A bounded LRU cache of encoded `count` response lines.
//!
//! Every artifact is content-addressed and every estimator deterministic,
//! so a `count` response is a pure function of the request's handle, QI
//! predicates (in request order), SA range and `exact` flag. The cache
//! stores the *encoded response line* and replays it verbatim, so a hit is
//! byte-identical to the miss that populated it. Entries are invalidated
//! per handle whenever the handle's resident artifact could change: a
//! fresh publish (e.g. recomputation after a quarantine) or a stored
//! artifact being quarantined.
//!
//! - **Key.** `(fnv1a64(handle), fnv1a64(query fields))` in a `BTreeMap`
//!   (betalike-lint rule D1: no `HashMap` in serving crates). Keys are
//!   two words, so no key string is ever formatted, and one handle's
//!   entries are one contiguous key range for [`ResultCache::invalidate`].
//!   A hit is confirmed against the [`CountRequest`] stored in the entry,
//!   so two requests that hash alike never share an answer: the later
//!   insert replaces the earlier one.
//! - **Value.** The encoded line, as a `String` the entry owns. A hit
//!   copies it out and skips the estimate and the encode; the server
//!   appends a `trace_id` to the line, not to a document.
//! - **Layout.** The map holds only slab indices. Entries live in one
//!   `Vec`, linked newest-to-oldest through their indices, so recency is
//!   an O(1) relink and the LRU victim is the list's tail.
//! - **A miss** costs two hashes and a map probe. Its insert re-keys the
//!   map (one remove, one insert) and refills the victim's own buffers
//!   with the request and the line. No `Json` is cloned.
//! - **A hit** costs the same hashes and probe, a field comparison, a
//!   relink and a copy of the line into a buffer reserved before locking.
//!
//! Once the cache is full, neither `get` nor `insert` allocates or frees
//! while the lock is held, beyond the map's own node splits and merges.
//! Refilling an evicted entry, rather than freeing it and caching a new
//! one, also keeps memory from moving between threads, whose workers
//! evict each other's entries. Measured in process with two threads
//! sending distinct counts, a miss cost ~3.5 µs more than no cache when
//! every eviction freed an entry and every insert allocated one, and
//! ~0.6 µs more with refilled entries.
//!
//! The cache counts its hits, misses and size straight into the metrics
//! registry's `result_cache_*` gauges, which `health` and `metrics`
//! report.

use crate::wire::CountRequest;
use betalike_microdata::hash::{fnv1a64, Fnv1a64};
use betalike_obs::{Gauge, Registry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Result-cache capacity (entries) of [`crate::server::ServerConfig`]'s
/// `Default` impl. `result_cache: 0` disables caching entirely.
pub const DEFAULT_RESULT_CACHE: usize = 1024;

/// A map key: `(hash of the handle, hash of the query fields)`.
type Slot = (u64, u64);

/// The end of the recency list (no entry has this index).
const NIL: u32 = u32::MAX;

/// Bytes reserved for a line: more than any `count` response needs, so
/// neither a hit's copy nor an entry's refill grows a buffer.
const LINE_BYTES: usize = 128;

/// One cached answer.
#[derive(Debug)]
struct Entry {
    /// The entry's map key.
    slot: Slot,
    /// The next more recently used entry, or [`NIL`].
    newer: u32,
    /// The next less recently used entry, or [`NIL`].
    older: u32,
    /// The request this line answers; a probe must equal it to hit.
    request: CountRequest,
    /// The encoded response line, without a newline or `trace_id`.
    line: String,
}

impl Entry {
    /// Makes this entry answer `request` with `line`, in its own buffers:
    /// an evicted entry's strings are refilled, not freed and allocated
    /// anew.
    fn assign(&mut self, slot: Slot, request: &CountRequest, line: &str) {
        self.slot = slot;
        self.request.handle.clone_from(&request.handle);
        self.request.qi_preds.clone_from(&request.qi_preds);
        self.request.sa_lo = request.sa_lo;
        self.request.sa_hi = request.sa_hi;
        self.request.exact = request.exact;
        self.line.clear();
        self.line.push_str(line);
    }
}

#[derive(Debug)]
struct Inner {
    /// Slot → index into `entries`.
    index: BTreeMap<Slot, u32>,
    /// Every entry, linked into the recency list.
    entries: Vec<Entry>,
    /// Most recently used entry, or [`NIL`].
    newest: u32,
    /// Least recently used entry (the eviction victim), or [`NIL`].
    oldest: u32,
}

impl Inner {
    fn at(&mut self, i: u32) -> Option<&mut Entry> {
        self.entries.get_mut(i as usize)
    }

    /// Takes entry `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Some(entry) = self.at(i) else {
            return;
        };
        let (newer, older) = (entry.newer, entry.older);
        match self.at(newer) {
            Some(n) => n.older = older,
            None => self.newest = older,
        }
        match self.at(older) {
            Some(o) => o.newer = newer,
            None => self.oldest = newer,
        }
    }

    /// Puts entry `i` (unlinked) at the newest end of the recency list.
    fn link_newest(&mut self, i: u32) {
        let newest = self.newest;
        if let Some(entry) = self.at(i) {
            entry.newer = NIL;
            entry.older = newest;
        }
        match self.at(newest) {
            Some(n) => n.newer = i,
            None => self.oldest = i,
        }
        self.newest = i;
    }

    /// Removes entry `i` (already out of `index`) from the slab. The last
    /// entry moves into its place, so its neighbours and its index entry
    /// are repointed.
    fn remove(&mut self, i: u32) -> Option<Entry> {
        if i as usize >= self.entries.len() {
            return None;
        }
        self.unlink(i);
        let removed = self.entries.swap_remove(i as usize);
        if let Some(moved) = self.entries.get(i as usize) {
            let (slot, newer, older) = (moved.slot, moved.newer, moved.older);
            match self.at(newer) {
                Some(n) => n.older = i,
                None => self.newest = i,
            }
            match self.at(older) {
                Some(o) => o.newer = i,
                None => self.oldest = i,
            }
            self.index.insert(slot, i);
        }
        Some(removed)
    }
}

/// The cache. Capacity `0` turns every operation into a no-op.
#[derive(Debug)]
pub(crate) struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// How a request maps to its slot: [`slot_of`] outside tests.
    slot_of: fn(&CountRequest) -> Slot,
    /// Lookups answered from the cache since startup.
    hits: Arc<Gauge>,
    /// Lookups that fell through to the answerer since startup.
    misses: Arc<Gauge>,
    /// Entries currently resident.
    size: Arc<Gauge>,
}

/// The slot of one `count` request: FNV-1a of the handle, and FNV-1a of
/// the QI predicates in request order, the SA range and the exact flag,
/// each as fixed-width little-endian words.
fn slot_of(request: &CountRequest) -> Slot {
    let mut fields = Fnv1a64::new();
    for p in &request.qi_preds {
        fields.update(&(p.attr as u64).to_le_bytes());
        fields.update(&p.lo.to_le_bytes());
        fields.update(&p.hi.to_le_bytes());
    }
    fields.update(&request.sa_lo.to_le_bytes());
    fields.update(&request.sa_hi.to_le_bytes());
    fields.update(&[u8::from(request.exact)]);
    (handle_hash(&request.handle), fields.finish())
}

fn handle_hash(handle: &str) -> u64 {
    fnv1a64(handle.as_bytes())
}

impl ResultCache {
    /// A cache of `capacity` entries counting into `registry`'s
    /// `result_cache_{hits,misses,size}` gauges.
    pub(crate) fn new(capacity: usize, registry: &Registry) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                index: BTreeMap::new(),
                entries: Vec::new(),
                newest: NIL,
                oldest: NIL,
            }),
            // Slab indices are `u32`s below `NIL`.
            capacity: capacity.min(NIL as usize),
            slot_of,
            hits: registry.gauge("result_cache_hits"),
            misses: registry.gauge("result_cache_misses"),
            size: registry.gauge("result_cache_size"),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// A copy of the cached line answering `request`, refreshing its
    /// recency on a hit.
    pub(crate) fn get(&self, request: &CountRequest) -> Option<String> {
        if self.capacity == 0 {
            return None;
        }
        let slot = (self.slot_of)(request);
        let mut line = String::with_capacity(LINE_BYTES);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let found = inner.index.get(&slot).copied();
        let hit = found.filter(|&i| match inner.at(i) {
            Some(entry) if entry.request == *request => {
                line.push_str(&entry.line);
                true
            }
            _ => false,
        });
        if let Some(i) = hit {
            inner.unlink(i);
            inner.link_newest(i);
        }
        drop(inner);
        match hit {
            Some(_) => {
                self.hits.add(1);
                Some(line)
            }
            None => {
                self.misses.add(1);
                None
            }
        }
    }

    /// Caches `line` as the answer to `request`, evicting the
    /// least-recently-used entry when full. An entry already in the slot
    /// is replaced: the same request racing in stores the same
    /// deterministic line, and a colliding request takes the slot over.
    /// A replaced or evicted entry's buffers take the new key and line.
    pub(crate) fn insert(&self, request: CountRequest, line: &str) {
        if self.capacity == 0 {
            return;
        }
        let slot = (self.slot_of)(&request);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let place = match inner.index.get(&slot) {
            Some(&i) => Some(i),
            None if inner.entries.len() >= self.capacity => Some(inner.oldest),
            None => None,
        };
        let unused = match place.and_then(|i| Some((i, inner.at(i)?.slot))) {
            Some((i, old_slot)) => {
                inner.unlink(i);
                if old_slot != slot {
                    inner.index.remove(&old_slot);
                    inner.index.insert(slot, i);
                }
                if let Some(entry) = inner.at(i) {
                    entry.assign(slot, &request, line);
                }
                inner.link_newest(i);
                Some(request)
            }
            None => {
                // The cache is still filling: a new entry, the only
                // allocation made under the lock.
                let mut owned = String::with_capacity(line.len().max(LINE_BYTES));
                owned.push_str(line);
                let i = inner.entries.len() as u32;
                inner.entries.push(Entry {
                    slot,
                    newer: NIL,
                    older: NIL,
                    request,
                    line: owned,
                });
                inner.index.insert(slot, i);
                inner.link_newest(i);
                self.size.set(inner.entries.len() as i64);
                None
            }
        };
        drop(inner);
        drop(unused);
    }

    /// Drops every entry belonging to `handle`. Called when the handle's
    /// artifact is (re)computed or its stored form is quarantined.
    pub(crate) fn invalidate(&self, handle: &str) {
        if self.capacity == 0 {
            return;
        }
        let hash = handle_hash(handle);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let doomed: Vec<Slot> = inner
            .index
            .range((hash, 0)..=(hash, u64::MAX))
            .filter(|(_, &i)| {
                inner
                    .entries
                    .get(i as usize)
                    .is_some_and(|entry| entry.request.handle == handle)
            })
            .map(|(slot, _)| *slot)
            .collect();
        let mut dropped = Vec::with_capacity(doomed.len());
        for slot in doomed {
            // Looked up afresh: each removal may move another entry.
            if let Some(i) = inner.index.remove(&slot) {
                dropped.extend(inner.remove(i));
            }
        }
        self.size.set(inner.entries.len() as i64);
        drop(inner);
        drop(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_query::RangePred;

    fn request(handle: &str, qi_preds: &[RangePred], sa_hi: u32, exact: bool) -> CountRequest {
        CountRequest {
            handle: handle.into(),
            qi_preds: qi_preds.to_vec(),
            sa_lo: 0,
            sa_hi,
            exact,
        }
    }

    fn line(n: f64) -> String {
        format!(r#"{{"ok":true,"estimate":{n}}}"#)
    }

    /// `(hits, misses, size)` as the registry reports them.
    fn gauges(registry: &Registry) -> (i64, i64, i64) {
        let snap = registry.snapshot();
        let g = |name: &str| snap.gauge(name).expect("registered");
        (
            g("result_cache_hits"),
            g("result_cache_misses"),
            g("result_cache_size"),
        )
    }

    #[test]
    fn hit_replays_the_stored_document_verbatim() {
        let registry = Registry::new();
        let cache = ResultCache::new(8, &registry);
        let key = request("pub-a", &[], 3, false);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), &line(41.0));
        let hit = cache.get(&key).expect("hit");
        assert_eq!(hit, r#"{"ok":true,"estimate":41}"#);
        assert_eq!(gauges(&registry), (1, 1, 1));
    }

    #[test]
    fn keys_distinguish_preds_order_range_and_exact() {
        let p = |attr, lo, hi| RangePred { attr, lo, hi };
        let base = request("pub-a", &[p(0, 1, 2), p(1, 3, 4)], 5, false);
        for other in [
            request("pub-b", &[p(0, 1, 2), p(1, 3, 4)], 5, false),
            request("pub-a", &[p(1, 3, 4), p(0, 1, 2)], 5, false),
            request("pub-a", &[p(0, 1, 2), p(1, 3, 4)], 6, false),
            request("pub-a", &[p(0, 1, 2), p(1, 3, 4)], 5, true),
            request("pub-a", &[p(0, 1, 2)], 5, false),
        ] {
            assert_ne!(slot_of(&base), slot_of(&other));
        }
    }

    #[test]
    fn colliding_requests_never_share_an_entry() {
        let registry = Registry::new();
        let mut cache = ResultCache::new(8, &registry);
        // Every request lands on one slot.
        cache.slot_of = |_| (7, 7);
        let a = request("pub-a", &[], 1, false);
        let b = request("pub-a", &[], 2, false);
        let c = request("pub-c", &[], 1, false);
        cache.insert(a.clone(), &line(1.0));
        assert!(cache.get(&b).is_none(), "b must not read a's line");
        assert!(cache.get(&c).is_none(), "c must not read a's line");
        cache.insert(b.clone(), &line(2.0));
        assert!(cache.get(&a).is_none(), "b took the slot over");
        assert_eq!(cache.get(&b).as_deref(), Some(&*line(2.0)));
        // Invalidating another handle that hashes alike leaves b alone.
        cache.invalidate("pub-c");
        assert_eq!(cache.get(&b).as_deref(), Some(&*line(2.0)));
        assert_eq!(gauges(&registry), (2, 3, 1));
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let registry = Registry::new();
        let cache = ResultCache::new(2, &registry);
        let (a, b, c) = (
            request("a", &[], 1, false),
            request("b", &[], 1, false),
            request("c", &[], 1, false),
        );
        cache.insert(a.clone(), &line(1.0));
        cache.insert(b.clone(), &line(2.0));
        assert!(cache.get(&a).is_some()); // refresh `a`; `b` is now LRU
        cache.insert(c.clone(), &line(3.0));
        assert!(cache.get(&b).is_none(), "LRU entry evicted");
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&c).is_some());
        assert_eq!(gauges(&registry).2, 2);
    }

    #[test]
    fn invalidation_is_per_handle() {
        let registry = Registry::new();
        let cache = ResultCache::new(8, &registry);
        cache.insert(request("pub-a", &[], 1, false), &line(1.0));
        cache.insert(request("pub-a", &[], 2, false), &line(2.0));
        cache.insert(request("pub-b", &[], 1, false), &line(3.0));
        cache.invalidate("pub-a");
        assert_eq!(gauges(&registry).2, 1);
        assert!(cache.get(&request("pub-a", &[], 1, false)).is_none());
        assert!(cache.get(&request("pub-a", &[], 2, false)).is_none());
        assert!(cache.get(&request("pub-b", &[], 1, false)).is_some());
    }

    #[test]
    fn eviction_order_survives_invalidation() {
        let registry = Registry::new();
        let cache = ResultCache::new(3, &registry);
        let (a1, b1, a2) = (
            request("a", &[], 1, false),
            request("b", &[], 1, false),
            request("a", &[], 2, false),
        );
        cache.insert(a1.clone(), &line(1.0));
        cache.insert(b1.clone(), &line(2.0));
        cache.insert(a2.clone(), &line(3.0));
        cache.invalidate("a"); // `b1` moves into a removed entry's place
        let (c1, d1, e1) = (
            request("c", &[], 1, false),
            request("d", &[], 1, false),
            request("e", &[], 1, false),
        );
        cache.insert(c1.clone(), &line(4.0));
        cache.insert(d1.clone(), &line(5.0));
        assert!(cache.get(&b1).is_some()); // `c1` is now LRU
        cache.insert(e1.clone(), &line(6.0));
        assert!(cache.get(&c1).is_none(), "LRU entry evicted");
        for kept in [&b1, &d1, &e1] {
            assert!(cache.get(kept).is_some());
        }
        assert_eq!(gauges(&registry).2, 3);
    }

    /// Random gets, inserts and invalidations against a plain
    /// most-recent-first list give the same hits, evictions and size.
    #[test]
    fn matches_a_reference_lru() {
        let registry = Registry::new();
        let cache = ResultCache::new(5, &registry);
        let mut model: Vec<(CountRequest, String)> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for step in 0..20_000 {
            let handle = ["h0", "h1", "h2"][next(3) as usize];
            let key = request(handle, &[], next(4) as u32, false);
            match next(10) {
                0 => {
                    cache.invalidate(handle);
                    model.retain(|(r, _)| r.handle != handle);
                }
                1..=5 => {
                    let want = model.iter().position(|(r, _)| *r == key).map(|at| {
                        let hit = model.remove(at);
                        model.insert(0, hit.clone());
                        hit.1
                    });
                    assert_eq!(cache.get(&key), want, "get at step {step}");
                }
                _ => {
                    let value = line(step as f64);
                    model.retain(|(r, _)| *r != key);
                    model.insert(0, (key.clone(), value.clone()));
                    model.truncate(5);
                    cache.insert(key, &value);
                }
            }
            assert_eq!(
                gauges(&registry).2,
                model.len() as i64,
                "size at step {step}"
            );
        }
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let registry = Registry::new();
        let cache = ResultCache::new(0, &registry);
        let a = request("a", &[], 1, false);
        cache.insert(a.clone(), &line(1.0));
        assert!(cache.get(&a).is_none());
        assert_eq!(gauges(&registry), (0, 0, 0));
    }
}
