//! The dataset registry: named dataset specifications, lazily generated
//! tables, and cached QI geometry (per-row Hilbert keys).
//!
//! Every dataset the workspace knows how to produce is describable as a
//! small [`DatasetSpec`] (generator + parameters); generators are seeded,
//! so a spec is a *name* for a concrete table. The registry materializes
//! each spec at most once and shares the result behind [`Arc`]s, and does
//! the same for the Hilbert keys of each `(dataset, QI prefix)` pair — the
//! expensive geometry BUREL and SABRE both materialize over.

use betalike::retrieve::hilbert_keys;
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::json::Json;
use betalike_microdata::patients;
use betalike_microdata::synthetic::{random_table, SyntheticConfig};
use betalike_microdata::Table;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Largest `rows` a generator-backed [`DatasetSpec`] accepts: twice the
/// paper's 500k-tuple CENSUS. The generators pre-allocate per row, so an
/// unbounded count on a request line could ask for any amount of memory.
pub const MAX_DATASET_ROWS: usize = 1_000_000;

/// A lazily-populated, thread-safe map: each key's value is computed at
/// most once (losers of an initialization race block on the winner), and
/// lookups after that are a lock + clone.
///
/// The outer mutex only guards the `HashMap` itself — initializers run
/// *outside* it, so a slow publish never blocks unrelated lookups.
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
    /// Returns the value for `key`, running `init` (at most once per key,
    /// across all threads) if it is not present yet.
    pub fn get_or_init(&self, key: &str, init: impl FnOnce() -> V) -> V {
        let cell = {
            let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        cell.get_or_init(init).clone()
    }

    /// The value for `key`, if it has been initialized.
    pub fn get(&self, key: &str) -> Option<V> {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        map.get(key).and_then(|cell| cell.get().cloned())
    }

    /// All keys whose value finished initializing, sorted.
    pub fn keys(&self) -> Vec<String> {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut keys: Vec<String> = map
            .iter()
            .filter(|(_, cell)| cell.get().is_some())
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
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

/// The process-wide dataset and QI-geometry cache.
#[derive(Debug, Default)]
pub struct Registry {
    datasets: LazyMap<Arc<Dataset>>,
    keys: LazyMap<Arc<Vec<u128>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The dataset for `spec`, generating it on first use.
    pub fn dataset(&self, spec: &DatasetSpec) -> Arc<Dataset> {
        let key = spec.canonical();
        self.datasets
            .get_or_init(&key, || Arc::new(materialize(spec, key.clone())))
    }

    /// The per-row Hilbert keys of `dataset` over the QI prefix `qi`,
    /// computed on first use — BUREL and SABRE publications over the same
    /// geometry then share one transform.
    pub fn hilbert_keys(&self, dataset: &Dataset, qi: &[usize]) -> Arc<Vec<u128>> {
        let key = format!("{}|qi={qi:?}", dataset.key);
        self.keys
            .get_or_init(&key, || Arc::new(hilbert_keys(&dataset.table, qi)))
    }

    /// Canonical keys of every dataset materialized so far, sorted.
    pub fn loaded(&self) -> Vec<String> {
        self.datasets.keys()
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

    #[test]
    fn lazy_map_initializes_once() {
        let map: LazyMap<usize> = LazyMap::default();
        let mut runs = 0;
        assert_eq!(
            map.get_or_init("k", || {
                runs += 1;
                7
            }),
            7
        );
        assert_eq!(map.get_or_init("k", || unreachable!()), 7);
        assert_eq!(runs, 1);
        assert_eq!(map.get("k"), Some(7));
        assert_eq!(map.get("missing"), None);
        assert_eq!(map.keys(), vec!["k".to_string()]);
    }

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
        let k1 = reg.hilbert_keys(&a, &a.qi_pool);
        let k2 = reg.hilbert_keys(&a, &a.qi_pool);
        assert!(Arc::ptr_eq(&k1, &k2), "geometry must be cached");
        assert_eq!(k1.len(), 200);
        assert_eq!(reg.loaded(), vec![spec.canonical()]);
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
