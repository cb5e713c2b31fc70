//! The dataset registry: named dataset specifications and lazily
//! generated tables.
//!
//! Every dataset the workspace knows how to produce is describable as a
//! small [`DatasetSpec`] (generator + parameters); generators are seeded,
//! so a spec is a *name* for a concrete table. The registry shares each
//! materialized table behind [`Arc`]s but holds it only by [`Weak`]: a
//! spec is generated once while anything (an artifact, the server's
//! `--preload`) holds its dataset, and the table is freed with its last
//! holder. A later request for the spec regenerates it, bit for bit.
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::json::Json;
use betalike_microdata::patients;
use betalike_microdata::synthetic::{random_table, SyntheticConfig};
use betalike_microdata::Table;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

/// Largest `rows` a generator-backed [`DatasetSpec`] accepts: twice the
/// paper's 500k-tuple CENSUS. The generators pre-allocate per row, so an
/// unbounded count on a request line could ask for any amount of memory.
pub const MAX_DATASET_ROWS: usize = 1_000_000;

/// Locks `mutex`, recovering the guard from a poisoned lock.
pub(crate) fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe map of runs in flight: racing callers for one key share
/// one run ([`LazyMap::single_flight`]), and nothing is kept after it.
///
/// The outer mutex only guards the `HashMap` itself — runs go *outside*
/// it, so a slow generation never blocks unrelated lookups.
#[derive(Debug)]
pub struct LazyMap<V> {
    inner: Mutex<HashMap<String, Arc<OnceLock<V>>>>,
}

// Not derived: derive would demand `V: Default`, but an empty map needs no
// values at all.
impl<V> Default for LazyMap<V> {
    fn default() -> Self {
        LazyMap {
            inner: Mutex::new(HashMap::new()),
        }
    }
}

impl<V: Clone> LazyMap<V> {
    /// Runs `init` for `key` unless another caller is already running it,
    /// in which case this call waits for that run and returns its value.
    /// Nothing is kept: once the run finishes, the next call runs `init`
    /// again, so `init` should store its result where callers look first.
    pub fn single_flight(&self, key: &str, init: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(locked(&self.inner).entry(key.to_string()).or_default());
        let mut ran = false;
        let value = cell
            .get_or_init(|| {
                ran = true;
                init()
            })
            .clone();
        if ran {
            locked(&self.inner).remove(key);
        }
        value
    }
}

/// A generator-backed dataset description — the unit the wire protocol
/// names datasets by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetSpec {
    /// The paper's CENSUS generator (Table 3 schema).
    Census {
        /// Number of tuples.
        rows: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The six-tuple patients example (Table 1 + Figure 1).
    Patients,
    /// The uniform/Zipf synthetic generator used by tests.
    Synthetic {
        /// Number of tuples.
        rows: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl DatasetSpec {
    /// The canonical registry key: total over every field, so equal specs
    /// name equal tables and the content-addressed handles of
    /// [`crate::wire::PublishRequest`] can hash it.
    pub fn canonical(&self) -> String {
        match self {
            DatasetSpec::Census { rows, seed } => format!("census:rows={rows}:seed={seed}"),
            DatasetSpec::Patients => "patients".into(),
            DatasetSpec::Synthetic { rows, seed } => format!("synthetic:rows={rows}:seed={seed}"),
        }
    }

    /// The generator family name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSpec::Census { .. } => "census",
            DatasetSpec::Patients => "patients",
            DatasetSpec::Synthetic { .. } => "synthetic",
        }
    }

    /// Appends this spec's wire fields to a request object.
    pub fn push_members(&self, members: &mut Vec<(String, Json)>) {
        members.push(("dataset".into(), Json::Str(self.name().into())));
        match self {
            DatasetSpec::Census { rows, seed } | DatasetSpec::Synthetic { rows, seed } => {
                members.push(("rows".into(), Json::Num(*rows as f64)));
                members.push(("dseed".into(), Json::Num(*seed as f64)));
            }
            DatasetSpec::Patients => {}
        }
    }

    /// Parses the spec fields of a request object (`dataset`, `rows`,
    /// `dseed`).
    ///
    /// # Errors
    ///
    /// Returns a wire-level message on an unknown generator, a malformed
    /// field, or a `rows` outside `1..=`[`MAX_DATASET_ROWS`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let name = doc
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or("publish needs a string `dataset`")?;
        let rows = match doc.get("rows") {
            None => None,
            Some(v) => Some(
                v.as_usize()
                    .ok_or("`rows` must be a non-negative integer")?,
            ),
        };
        let seed = match doc.get("dseed") {
            None => 42,
            Some(v) => v.as_u64().ok_or("`dseed` must be a non-negative integer")?,
        };
        Self::build(name, rows, seed)
    }

    /// Parses the CLI form `census[:ROWS[:SEED]]` / `patients` /
    /// `synthetic[:ROWS[:SEED]]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed component.
    pub fn parse_cli(text: &str) -> Result<Self, String> {
        let mut parts = text.split(':');
        let name = parts.next().unwrap_or_default();
        let rows = parts
            .next()
            .map(|p| p.parse().map_err(|_| format!("bad rows `{p}`")))
            .transpose()?;
        let seed = parts
            .next()
            .map(|p| p.parse().map_err(|_| format!("bad seed `{p}`")))
            .transpose()?
            .unwrap_or(42);
        if parts.next().is_some() {
            return Err(format!("too many `:` components in `{text}`"));
        }
        Self::build(name, rows, seed)
    }

    /// Builds a spec from its raw parts (generator name, optional row
    /// count, seed) — the form the persistence layer stores. `rows` of
    /// `None` selects the generator's default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown generator or the out-of-range
    /// `rows`.
    pub fn from_parts(name: &str, rows: Option<usize>, seed: u64) -> Result<Self, String> {
        Self::build(name, rows, seed)
    }

    fn build(name: &str, rows: Option<usize>, seed: u64) -> Result<Self, String> {
        let bounded = |rows: usize| {
            if (1..=MAX_DATASET_ROWS).contains(&rows) {
                Ok(rows)
            } else {
                Err(format!(
                    "`rows` must be within 1..={MAX_DATASET_ROWS}, got {rows}"
                ))
            }
        };
        match name {
            "census" => Ok(DatasetSpec::Census {
                rows: bounded(rows.unwrap_or(10_000))?,
                seed,
            }),
            "patients" => Ok(DatasetSpec::Patients),
            "synthetic" => Ok(DatasetSpec::Synthetic {
                rows: bounded(rows.unwrap_or(1_000))?,
                seed,
            }),
            other => Err(format!(
                "unknown dataset `{other}` (expected census | patients | synthetic)"
            )),
        }
    }
}

/// A materialized dataset: the table plus which attributes may be
/// generalized and which is sensitive.
#[derive(Debug)]
pub struct Dataset {
    /// The canonical spec key this table was generated from.
    pub key: String,
    /// The table, shared across artifacts and answerers.
    pub table: Arc<Table>,
    /// The full candidate QI pool, in publication order.
    pub qi_pool: Vec<usize>,
    /// The sensitive attribute.
    pub sa: usize,
}

/// The process-wide dataset cache. It holds each dataset only by
/// [`Weak`], so the registry alone never keeps a table alive.
#[derive(Debug, Default)]
pub struct Registry {
    /// Every dataset generated so far; entries whose dataset died are
    /// pruned when a new one goes in.
    live: Mutex<HashMap<String, Weak<Dataset>>>,
    /// Generations in flight, so racing callers for one spec wait for one
    /// generation instead of running their own.
    generating: LazyMap<Arc<Dataset>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The dataset for `spec`: the live one if any holder still has it,
    /// otherwise generated now.
    pub fn dataset(&self, spec: &DatasetSpec) -> Arc<Dataset> {
        let key = spec.canonical();
        if let Some(dataset) = self.live(&key) {
            return dataset;
        }
        self.generating.single_flight(&key, || {
            // A racer may have finished generating since the check above.
            if let Some(dataset) = self.live(&key) {
                return dataset;
            }
            let dataset = Arc::new(materialize(spec, key.clone()));
            let mut live = locked(&self.live);
            live.retain(|_, weak| weak.strong_count() > 0);
            live.insert(key.clone(), Arc::downgrade(&dataset));
            dataset
        })
    }

    fn live(&self, key: &str) -> Option<Arc<Dataset>> {
        locked(&self.live).get(key).and_then(Weak::upgrade)
    }

    /// Canonical keys of every dataset currently alive (held by something
    /// besides the registry), sorted. A spec still generating is not
    /// listed.
    pub fn loaded(&self) -> Vec<String> {
        let live = locked(&self.live);
        let mut keys: Vec<String> = live
            .iter()
            .filter(|(_, weak)| weak.strong_count() > 0)
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    }
}

fn materialize(spec: &DatasetSpec, key: String) -> Dataset {
    match *spec {
        DatasetSpec::Census { rows, seed } => Dataset {
            key,
            table: Arc::new(census::generate(&CensusConfig::new(rows, seed))),
            qi_pool: (0..census::attr::SALARY).collect(),
            sa: census::attr::SALARY,
        },
        DatasetSpec::Patients => Dataset {
            key,
            table: Arc::new(patients::patients_table()),
            qi_pool: vec![patients::attr::WEIGHT, patients::attr::AGE],
            sa: patients::attr::DISEASE,
        },
        DatasetSpec::Synthetic { rows, seed } => {
            let cfg = SyntheticConfig {
                rows,
                seed,
                ..Default::default()
            };
            Dataset {
                key,
                table: Arc::new(random_table(&cfg)),
                qi_pool: (0..cfg.qi_attrs).collect(),
                sa: cfg.qi_attrs,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn spec_canonical_and_cli_roundtrip() {
        for (cli, canonical) in [
            ("census:2000:7", "census:rows=2000:seed=7"),
            ("census", "census:rows=10000:seed=42"),
            ("patients", "patients"),
            ("synthetic:500", "synthetic:rows=500:seed=42"),
        ] {
            assert_eq!(DatasetSpec::parse_cli(cli).unwrap().canonical(), canonical);
        }
        assert!(DatasetSpec::parse_cli("adult").is_err());
        assert!(DatasetSpec::parse_cli("census:x").is_err());
        assert!(DatasetSpec::parse_cli("census:1:2:3").is_err());
    }

    #[test]
    fn row_counts_are_bounded() {
        for cli in ["census:0", "synthetic:0", "census:1000001"] {
            let err = DatasetSpec::parse_cli(cli).unwrap_err();
            assert!(err.contains("`rows`"), "`{cli}`: {err}");
        }
        let max = format!("census:{MAX_DATASET_ROWS}");
        assert!(DatasetSpec::parse_cli(&max).is_ok());
        assert!(DatasetSpec::from_parts("census", Some(0), 42).is_err());
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = DatasetSpec::Census { rows: 123, seed: 9 };
        let mut members = vec![("op".to_string(), Json::Str("publish".into()))];
        spec.push_members(&mut members);
        let doc = Json::Obj(members);
        assert_eq!(DatasetSpec::from_json(&doc).unwrap(), spec);
        assert!(DatasetSpec::from_json(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn registry_shares_tables_and_keys() {
        let reg = Registry::new();
        let spec = DatasetSpec::Synthetic { rows: 200, seed: 3 };
        let a = reg.dataset(&spec);
        let b = reg.dataset(&spec);
        assert!(Arc::ptr_eq(&a, &b), "specs must share one table");
        assert_eq!(a.table.num_rows(), 200);
        assert_eq!(reg.loaded(), vec![spec.canonical()]);
    }

    /// Racers share one run of `init`; a call after it runs `init` again.
    #[test]
    fn single_flight_shares_one_run_and_keeps_nothing() {
        let map: LazyMap<usize> = LazyMap::default();
        let (entered, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                map.single_flight("k", || {
                    entered.wait();
                    release.wait();
                    10
                })
            });
            entered.wait();
            // The leader is inside `init`, so this call joins its run.
            let follower = s.spawn(|| map.single_flight("k", || unreachable!("joined")));
            while Arc::strong_count(&locked(&map.inner)["k"]) < 3 {
                std::thread::yield_now();
            }
            release.wait();
            assert_eq!(leader.join().unwrap(), 10);
            assert_eq!(follower.join().unwrap(), 10);
        });
        assert!(locked(&map.inner).is_empty());
        assert_eq!(map.single_flight("k", || 20), 20);
    }

    /// Looking a live dataset up never hides it from `loaded`.
    #[test]
    fn loaded_lists_a_live_dataset_during_lookups() {
        let reg = Registry::new();
        let spec = DatasetSpec::Synthetic { rows: 200, seed: 3 };
        let held = reg.dataset(&spec);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !done.load(Ordering::SeqCst) {
                        assert!(Arc::ptr_eq(&reg.dataset(&spec), &held));
                    }
                });
            }
            let listed = (0..200_000).filter(|_| reg.loaded() == [spec.canonical()]);
            let listed = listed.count();
            done.store(true, Ordering::SeqCst);
            assert_eq!(listed, 200_000);
        });
    }

    /// Every racer holds its result until all have returned, so one
    /// shared `Arc` means one generation.
    #[test]
    fn racing_callers_generate_a_dataset_once() {
        let reg = Registry::new();
        let spec = DatasetSpec::Census {
            rows: 3000,
            seed: 5,
        };
        let barrier = std::sync::Barrier::new(6);
        let got: Vec<Arc<Dataset>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        reg.dataset(&spec)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(got.iter().all(|d| Arc::ptr_eq(d, &got[0])));
        assert_eq!(reg.loaded(), vec![spec.canonical()]);
    }

    #[test]
    fn datasets_die_with_their_last_holder() {
        let reg = Registry::new();
        let spec = DatasetSpec::Synthetic { rows: 400, seed: 8 };
        let first = reg.dataset(&spec);
        let second = reg.dataset(&spec);
        drop(first);
        assert_eq!(reg.loaded(), vec![spec.canonical()]);
        let table = Arc::clone(&second.table);
        drop(second);
        assert!(reg.loaded().is_empty(), "the registry must not hold it");
        // Generating another spec prunes the dead slot.
        let other = reg.dataset(&DatasetSpec::Patients);
        assert_eq!(locked(&reg.live).len(), 1);
        drop(other);
        // A regenerated table equals the first, column for column.
        let again = reg.dataset(&spec);
        assert!(!Arc::ptr_eq(&again.table, &table));
        let arity = table.schema().arity();
        assert_eq!(again.table.schema().arity(), arity);
        for attr in 0..arity {
            assert_eq!(
                again.table.column(attr),
                table.column(attr),
                "column {attr}"
            );
        }
    }

    #[test]
    fn dataset_roles_are_consistent() {
        let reg = Registry::new();
        for spec in [
            DatasetSpec::Census { rows: 50, seed: 1 },
            DatasetSpec::Patients,
            DatasetSpec::Synthetic { rows: 50, seed: 1 },
        ] {
            let ds = reg.dataset(&spec);
            assert!(!ds.qi_pool.contains(&ds.sa));
            for &a in &ds.qi_pool {
                assert!(a < ds.table.schema().arity());
            }
        }
    }
}
