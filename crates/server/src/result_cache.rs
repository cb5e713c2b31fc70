//! A bounded LRU cache of `count` responses, keyed by the compiled query.
//!
//! Every artifact is content-addressed and every estimator deterministic,
//! so a `count` response is a pure function of `(handle, predicates,
//! SA range, exact?)` — the cache stores the *response document itself*
//! and replays it verbatim, making a hit byte-identical to the miss that
//! populated it. Entries are invalidated per handle whenever the handle's
//! resident artifact could change: a fresh publish (e.g. recomputation
//! after a quarantine) or a stored artifact being quarantined.
//!
//! The map is a `BTreeMap` (betalike-lint rule D1: no `HashMap` in
//! serving crates) with a second tick-ordered index providing O(log n)
//! least-recently-used eviction. The cache counts its hits, misses and
//! size straight into the metrics registry's `result_cache_*` gauges,
//! which `health` and `metrics` report.

use betalike_microdata::json::Json;
use betalike_obs::{Gauge, Registry};
use betalike_query::RangePred;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Result-cache capacity (entries) of [`crate::server::ServerConfig`]'s
/// `Default` impl. `result_cache: 0` disables caching entirely.
pub const DEFAULT_RESULT_CACHE: usize = 1024;

#[derive(Debug, Default)]
struct Inner {
    /// key → (last-use tick, cached response).
    map: BTreeMap<String, (u64, Json)>,
    /// last-use tick → key; the smallest tick is the LRU victim.
    order: BTreeMap<u64, String>,
    /// Monotone use counter; ticks are never reused.
    tick: u64,
}

/// The cache. Capacity `0` turns every operation into a no-op.
#[derive(Debug)]
pub(crate) struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Lookups answered from the cache since startup.
    hits: Arc<Gauge>,
    /// Lookups that fell through to the answerer since startup.
    misses: Arc<Gauge>,
    /// Entries currently resident.
    size: Arc<Gauge>,
}

/// The canonical cache key for one `count` request: handle, the QI
/// predicates *in request order*, the SA range, and the exact flag. Two
/// requests map to the same key exactly when the wire protocol guarantees
/// them the same response document.
pub(crate) fn cache_key(
    handle: &str,
    qi_preds: &[RangePred],
    sa_lo: u32,
    sa_hi: u32,
    exact: bool,
) -> String {
    use std::fmt::Write;
    let mut key = String::with_capacity(handle.len() + 16 + 16 * qi_preds.len());
    key.push_str(handle);
    key.push('|');
    for p in qi_preds {
        let _ = write!(key, "{}:{}-{},", p.attr, p.lo, p.hi);
    }
    let _ = write!(key, "|{sa_lo}-{sa_hi}|{}", u8::from(exact));
    key
}

impl ResultCache {
    /// A cache of `capacity` entries counting into `registry`'s
    /// `result_cache_{hits,misses,size}` gauges.
    pub(crate) fn new(capacity: usize, registry: &Registry) -> Self {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            capacity,
            hits: registry.gauge("result_cache_hits"),
            misses: registry.gauge("result_cache_misses"),
            size: registry.gauge("result_cache_size"),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cached response for `key`, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: &str) -> Option<Json> {
        if self.capacity == 0 {
            return None;
        }
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let Some((tick, response)) = inner.map.get_mut(key) else {
            drop(guard);
            self.misses.add(1);
            return None;
        };
        inner.order.remove(tick);
        inner.tick += 1;
        *tick = inner.tick;
        inner.order.insert(inner.tick, key.to_string());
        let response = response.clone();
        drop(guard);
        self.hits.add(1);
        Some(response)
    }

    /// Caches `response` under `key`, evicting the least-recently-used
    /// entry when full. Racing inserts of the same key both store the same
    /// deterministic document, so last-writer-wins is harmless.
    pub(crate) fn insert(&self, key: String, response: Json) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((old_tick, _)) = inner.map.get(&key) {
            let old_tick = *old_tick;
            inner.order.remove(&old_tick);
        } else if inner.map.len() >= self.capacity {
            if let Some((&victim_tick, _)) = inner.order.iter().next() {
                if let Some(victim_key) = inner.order.remove(&victim_tick) {
                    inner.map.remove(&victim_key);
                }
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.order.insert(tick, key.clone());
        inner.map.insert(key, (tick, response));
        self.size.set(inner.map.len() as i64);
    }

    /// Drops every entry belonging to `handle`. Called when the handle's
    /// artifact is (re)computed or its stored form is quarantined.
    pub(crate) fn invalidate(&self, handle: &str) {
        if self.capacity == 0 {
            return;
        }
        let prefix = format!("{handle}|");
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let doomed: Vec<String> = inner
            .map
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| k.clone())
            .collect();
        for key in doomed {
            if let Some((tick, _)) = inner.map.remove(&key) {
                inner.order.remove(&tick);
            }
        }
        self.size.set(inner.map.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(n: f64) -> Json {
        Json::Obj(vec![("estimate".into(), Json::Num(n))])
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
        let key = cache_key("pub-a", &[], 0, 3, false);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), doc(41.0));
        let hit = cache.get(&key).expect("hit");
        assert_eq!(hit.compact(), doc(41.0).compact());
        assert_eq!(gauges(&registry), (1, 1, 1));
    }

    #[test]
    fn keys_distinguish_preds_order_range_and_exact() {
        let p = |attr, lo, hi| RangePred { attr, lo, hi };
        let base = cache_key("pub-a", &[p(0, 1, 2), p(1, 3, 4)], 0, 5, false);
        for other in [
            cache_key("pub-b", &[p(0, 1, 2), p(1, 3, 4)], 0, 5, false),
            cache_key("pub-a", &[p(1, 3, 4), p(0, 1, 2)], 0, 5, false),
            cache_key("pub-a", &[p(0, 1, 2), p(1, 3, 4)], 0, 6, false),
            cache_key("pub-a", &[p(0, 1, 2), p(1, 3, 4)], 0, 5, true),
            cache_key("pub-a", &[p(0, 1, 2)], 0, 5, false),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let registry = Registry::new();
        let cache = ResultCache::new(2, &registry);
        cache.insert("a|x".into(), doc(1.0));
        cache.insert("b|y".into(), doc(2.0));
        assert!(cache.get("a|x").is_some()); // refresh `a|x`; `b|y` is now LRU
        cache.insert("c|z".into(), doc(3.0));
        assert!(cache.get("b|y").is_none(), "LRU entry evicted");
        assert!(cache.get("a|x").is_some());
        assert!(cache.get("c|z").is_some());
        assert_eq!(gauges(&registry).2, 2);
    }

    #[test]
    fn invalidation_is_per_handle() {
        let registry = Registry::new();
        let cache = ResultCache::new(8, &registry);
        cache.insert(cache_key("pub-a", &[], 0, 1, false), doc(1.0));
        cache.insert(cache_key("pub-a", &[], 0, 2, false), doc(2.0));
        cache.insert(cache_key("pub-b", &[], 0, 1, false), doc(3.0));
        cache.invalidate("pub-a");
        assert_eq!(gauges(&registry).2, 1);
        assert!(cache.get(&cache_key("pub-a", &[], 0, 1, false)).is_none());
        assert!(cache.get(&cache_key("pub-a", &[], 0, 2, false)).is_none());
        assert!(cache.get(&cache_key("pub-b", &[], 0, 1, false)).is_some());
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let registry = Registry::new();
        let cache = ResultCache::new(0, &registry);
        cache.insert("a|x".into(), doc(1.0));
        assert!(cache.get("a|x").is_none());
        assert_eq!(gauges(&registry), (0, 0, 0));
    }
}
