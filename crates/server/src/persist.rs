//! Bridging resident [`Artifact`]s and durable
//! [`betalike_store::PublicationSnapshot`]s.
//!
//! [`snapshot`] captures everything a restarted server needs (forcing the
//! privacy audit so it is stored rather than recomputed); [`restore`]
//! rebuilds a serving-ready artifact from a snapshot with **zero pipeline
//! recomputation** — no generator run, no Hilbert transform, no BUREL. The
//! derived structures it does rebuild (the aggregate catalog, the
//! perturbation matrix, the Anatomy histogram) come from the same
//! deterministic code that built them at publish time, so a restored
//! artifact's `count` and `audit` answers are bit-identical to the
//! original process's; the `persistence` integration test and the CI
//! restart smoke assert exactly that.

use crate::artifact::Artifact;
use crate::registry::{Dataset, DatasetSpec};
use crate::wire::{Algo, PublishRequest};
use betalike::perturb::{PerturbationPlan, PerturbedTable};
use betalike_metrics::Partition;
use betalike_microdata::{Table, Value};
use betalike_query::{CatalogSpec, CatalogStats, GroupingSpec, PublishedAnswerer, CATALOG_VERSION};
use betalike_store::{CatalogSnapshot, FormSnapshot, PubParams, PublicationSnapshot};
use std::sync::Arc;

/// Lowers a query-side catalog spec into its storage mirror.
fn catalog_to_snapshot(spec: &CatalogSpec) -> CatalogSnapshot {
    let (grouping, block_rows, perm) = match &spec.grouping {
        GroupingSpec::Ecs => (0u8, 0u32, Vec::new()),
        GroupingSpec::Blocks { block_rows, perm } => (1u8, *block_rows, perm.clone()),
    };
    CatalogSnapshot {
        version: spec.version,
        grouping,
        block_rows,
        perm,
        covered: spec.covered.iter().map(|&a| a as u32).collect(),
    }
}

/// Lifts a stored catalog descriptor back into the query-side spec.
fn catalog_from_snapshot(c: CatalogSnapshot) -> Result<CatalogSpec, String> {
    let grouping = match c.grouping {
        0 => GroupingSpec::Ecs,
        1 => GroupingSpec::Blocks {
            block_rows: c.block_rows,
            perm: c.perm,
        },
        tag => return Err(format!("unknown stored catalog grouping tag {tag}")),
    };
    Ok(CatalogSpec {
        version: c.version,
        grouping,
        covered: c.covered.iter().map(|&a| a as usize).collect(),
    })
}

/// Captures an artifact for persistence. Forces the audit (computed at
/// most once per artifact anyway) so restarted servers serve the stored
/// numbers instead of re-deriving them.
pub fn snapshot(artifact: &Artifact) -> PublicationSnapshot {
    let request = &artifact.request;
    let (dataset_rows, dataset_seed) = match request.dataset {
        DatasetSpec::Census { rows, seed } | DatasetSpec::Synthetic { rows, seed } => {
            (rows as u64, seed)
        }
        DatasetSpec::Patients => (0, 0),
    };
    let params = PubParams {
        handle: artifact.handle.clone(),
        canonical: request.canonical(),
        dataset_name: request.dataset.name().to_string(),
        dataset_rows,
        dataset_seed,
        dataset_key: artifact.dataset.key.clone(),
        algo: request.algo.as_str().to_string(),
        qi_prefix: request.qi as u32,
        beta: request.beta,
        t: request.t,
        seed: request.seed,
        qi: artifact.qi.iter().map(|&a| a as u32).collect(),
        qi_pool: artifact.dataset.qi_pool.iter().map(|&a| a as u32).collect(),
        sa: artifact.dataset.sa as u32,
    };
    let form = if let Some(partition) = &artifact.partition {
        FormSnapshot::Generalized {
            ecs: partition
                .ecs()
                .iter()
                .map(|ec| ec.iter().map(|&r| r as u32).collect())
                .collect(),
        }
    } else if let Some(published) = artifact.answerer.perturbed_form() {
        let plan = &published.plan;
        FormSnapshot::Perturbed {
            sa_column: published.table.column(published.sa).to_vec(),
            support: plan.support().to_vec(),
            priors: plan.priors().to_vec(),
            caps: plan.caps().to_vec(),
            gammas: plan.gammas().to_vec(),
            alphas: plan.alphas().to_vec(),
        }
    } else {
        FormSnapshot::Anatomy
    };
    PublicationSnapshot {
        params,
        table: (*artifact.dataset.table).clone(),
        form,
        audit: artifact.audit().cloned(),
        catalog: artifact
            .answerer
            .catalog_spec()
            .as_ref()
            .map(catalog_to_snapshot),
    }
}

/// [`restore`] with the aggregate catalog optional (mirroring
/// [`Artifact::publish_opt`]); `false` restores a scan-only answerer and
/// ignores any stored catalog descriptor — the scan reference served
/// answers are checked against.
///
/// # Errors
///
/// As [`restore`].
pub fn restore_opt(snap: PublicationSnapshot, catalog: bool) -> Result<Arc<Artifact>, String> {
    restore_inner(snap, catalog, None)
}

/// [`restore_opt`] with optional plan-classification counters wired into
/// the rebuilt catalog (mirroring [`Artifact::publish_with`]).
///
/// # Errors
///
/// As [`restore`].
pub fn restore_with(
    snap: PublicationSnapshot,
    catalog: bool,
    stats: Option<CatalogStats>,
) -> Result<Arc<Artifact>, String> {
    restore_inner(snap, catalog, stats)
}

/// Rebuilds a serving-ready artifact from a snapshot.
///
/// The catalog is built once. A stored catalog descriptor whose version
/// matches this build is honored verbatim (the stored grouping, such as a
/// block permutation, is used instead of being derived again); a missing
/// descriptor, or one from a *different* catalog version, yields the
/// default catalog — the rebuild-on-version-skew policy of `DESIGN.md`
/// §13. A descriptor that is structurally invalid for this publication
/// fails the restore (the file passed its checksums, so this is
/// writer-side corruption, and the caller quarantines it).
///
/// # Errors
///
/// Returns a message (served as a wire-level error) when the snapshot is
/// internally inconsistent — unknown algorithm, parameters that no longer
/// hash to the stored handle (format/version skew), attribute indices
/// outside the stored schema, or a partition that does not cover the
/// stored table.
pub fn restore(snap: PublicationSnapshot) -> Result<Arc<Artifact>, String> {
    restore_inner(snap, true, None)
}

fn restore_inner(
    snap: PublicationSnapshot,
    catalog: bool,
    stats: Option<CatalogStats>,
) -> Result<Arc<Artifact>, String> {
    let p = &snap.params;
    let algo = Algo::parse(&p.algo)?;
    let rows_arg = match p.dataset_name.as_str() {
        "patients" => None,
        _ => Some(p.dataset_rows as usize),
    };
    let spec = DatasetSpec::from_parts(&p.dataset_name, rows_arg, p.dataset_seed)?;
    let request = PublishRequest {
        dataset: spec,
        algo,
        qi: p.qi_prefix as usize,
        beta: p.beta,
        t: p.t,
        seed: p.seed,
    }
    .normalized();
    if request.handle() != p.handle {
        return Err(format!(
            "stored parameters hash to {}, not the stored handle {} (parameter skew)",
            request.handle(),
            p.handle
        ));
    }

    let table = Arc::new(snap.table);
    let arity = table.schema().arity();
    let sa = p.sa as usize;
    let check_attr = |what: &str, a: usize| {
        if a >= arity {
            Err(format!(
                "stored {what} index {a} outside schema arity {arity}"
            ))
        } else {
            Ok(a)
        }
    };
    check_attr("SA", sa)?;
    let qi: Vec<usize> =
        p.qi.iter()
            .map(|&a| check_attr("QI", a as usize))
            .collect::<Result<_, _>>()?;
    let qi_pool: Vec<usize> = p
        .qi_pool
        .iter()
        .map(|&a| check_attr("QI-pool", a as usize))
        .collect::<Result<_, _>>()?;
    let dataset = Arc::new(Dataset {
        key: p.dataset_key.clone(),
        table: Arc::clone(&table),
        qi_pool,
        sa,
    });

    // Scan-only answerers first; the catalog is built once, below.
    let mut partition = None;
    let mut alphas = None;
    let mut answerer = match snap.form {
        FormSnapshot::Generalized { ecs } => {
            if qi.contains(&sa) || ecs.iter().any(Vec::is_empty) {
                return Err("stored partition is structurally invalid".into());
            }
            let ecs: Vec<Vec<usize>> = ecs
                .into_iter()
                .map(|ec| ec.into_iter().map(|r| r as usize).collect())
                .collect();
            let part = Partition::new(qi.clone(), sa, ecs);
            part.validate_cover(table.num_rows())
                .map_err(|e| format!("stored partition does not cover the table: {e}"))?;
            let part = Arc::new(part);
            partition = Some(Arc::clone(&part));
            PublishedAnswerer::generalized_opt(Arc::clone(&table), part, false)
        }
        FormSnapshot::Perturbed {
            sa_column,
            support,
            priors,
            caps,
            gammas,
            alphas: stored_alphas,
        } => {
            let domain = table.schema().attr(sa).cardinality();
            let plan =
                PerturbationPlan::from_parts(support, domain, priors, caps, gammas, stored_alphas)
                    .map_err(|e| format!("stored perturbation plan: {e}"))?;
            if sa_column.len() != table.num_rows() {
                return Err("stored perturbed column is not row-aligned".into());
            }
            if sa_column.iter().any(|&v| plan.dense_index(v).is_none()) {
                return Err("stored perturbed column leaves the plan support".into());
            }
            let mut columns: Vec<Vec<Value>> =
                (0..arity).map(|a| table.column(a).to_vec()).collect();
            // betalike-lint: allow(P1, reason = "check_attr validated sa < arity on entry")
            columns[sa] = sa_column;
            let published = Table::from_columns(table.schema_arc(), columns)
                .map_err(|e| format!("stored perturbed column: {e}"))?;
            let published = PerturbedTable {
                table: Arc::new(published),
                plan: Arc::new(plan),
                sa,
            };
            alphas = Some(published.plan.alphas().to_vec());
            PublishedAnswerer::perturbed_opt(Arc::clone(&table), published, false)
        }
        FormSnapshot::Anatomy => PublishedAnswerer::anatomy_opt(Arc::clone(&table), sa, false),
    };

    if catalog {
        let spec = match snap.catalog {
            Some(stored) if stored.version == CATALOG_VERSION => {
                Some(catalog_from_snapshot(stored)?)
            }
            // Absent, or version skew: derive the default catalog.
            _ => None,
        };
        answerer
            .build_catalog(spec.as_ref())
            .map_err(|e| format!("stored catalog descriptor: {e}"))?;
    }
    // After the build, so the counters land on the catalog that serves.
    if let Some(stats) = stats {
        answerer.attach_catalog_stats(stats);
    }

    Ok(Artifact::restored(
        p.handle.clone(),
        request,
        dataset,
        qi,
        answerer,
        partition,
        alphas,
        snap.audit,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use betalike_query::{generate_workload, WorkloadConfig};
    use betalike_store::{publication_from_slice, publication_to_vec};

    fn roundtrip(artifact: &Arc<Artifact>) -> Arc<Artifact> {
        // Through the full binary format, not just the in-memory structs.
        let snap = snapshot(artifact);
        let bytes = publication_to_vec(&snap).unwrap();
        restore(publication_from_slice(&bytes).unwrap()).unwrap()
    }

    fn request(algo: Algo) -> PublishRequest {
        PublishRequest::new(
            DatasetSpec::Census {
                rows: 1_200,
                seed: 3,
            },
            algo,
        )
    }

    #[test]
    fn every_scheme_restores_bit_identically() {
        let reg = Registry::new();
        for algo in [
            Algo::Burel,
            Algo::Sabre,
            Algo::Mondrian,
            Algo::Anatomy,
            Algo::Perturb,
        ] {
            let original = Artifact::publish(&reg, &request(algo)).unwrap();
            let restored = roundtrip(&original);
            assert_eq!(restored.handle, original.handle);
            assert_eq!(restored.request, original.request);
            assert_eq!(restored.qi, original.qi);
            let queries = generate_workload(
                &original.dataset.table,
                &WorkloadConfig {
                    qi_pool: vec![0, 1, 2],
                    sa: original.dataset.sa,
                    lambda: 2,
                    theta: 0.2,
                    num_queries: 25,
                    seed: 5,
                },
            );
            for q in &queries {
                let a = original.answerer.estimate(q).unwrap();
                let b = restored.answerer.estimate(q).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{algo:?} estimate on {q:?}");
                assert_eq!(original.answerer.exact(q), restored.answerer.exact(q));
            }
            assert_eq!(
                original.audit_json().compact(),
                restored.audit_json().compact(),
                "{algo:?} audit document"
            );
        }
    }

    #[test]
    fn fixed_and_synthetic_datasets_restore() {
        let reg = Registry::new();
        for spec in [
            DatasetSpec::Patients,
            DatasetSpec::Synthetic { rows: 300, seed: 9 },
        ] {
            let request = PublishRequest::new(spec, Algo::Anatomy);
            let original = Artifact::publish(&reg, &request).unwrap();
            let restored = roundtrip(&original);
            assert_eq!(restored.handle, original.handle);
            assert_eq!(restored.request, original.request);
            assert_eq!(restored.dataset.key, original.dataset.key);
            assert_eq!(restored.dataset.qi_pool, original.dataset.qi_pool);
            assert_eq!(
                restored.dataset.table.column(0),
                original.dataset.table.column(0)
            );
        }
    }

    #[test]
    fn stored_catalog_is_honored_and_version_skew_derives_the_default() {
        let reg = Registry::new();
        let original = Artifact::publish(&reg, &request(Algo::Anatomy)).unwrap();
        let default_spec = original.answerer.catalog_spec().unwrap();
        let queries = generate_workload(
            &original.dataset.table,
            &WorkloadConfig {
                qi_pool: vec![0, 1, 2],
                sa: original.dataset.sa,
                lambda: 2,
                theta: 0.2,
                num_queries: 25,
                seed: 6,
            },
        );
        // A stored grouping the default derivation would not produce: the
        // reversed permutation, in blocks of 100.
        let mut snap = snapshot(&original);
        let stored = snap.catalog.as_mut().unwrap();
        stored.perm.reverse();
        stored.block_rows = 100;
        let want = GroupingSpec::Blocks {
            block_rows: 100,
            perm: stored.perm.clone(),
        };
        let honored = restore(snap.clone()).unwrap();
        assert_eq!(honored.answerer.catalog_spec().unwrap().grouping, want);
        for q in &queries {
            let (a, b) = (&honored.answerer, &original.answerer);
            assert_eq!(
                a.estimate(q).unwrap().to_bits(),
                b.estimate(q).unwrap().to_bits()
            );
            assert_eq!(a.exact(q), b.exact_scan(q));
        }
        // Version skew, or no descriptor at all: the default catalog.
        snap.catalog.as_mut().unwrap().version = CATALOG_VERSION + 1;
        let skewed = restore(snap.clone()).unwrap();
        assert_eq!(skewed.answerer.catalog_spec().unwrap(), default_spec);
        snap.catalog = None;
        assert_eq!(
            restore(snap).unwrap().answerer.catalog_spec().unwrap(),
            default_spec
        );
        // A current-version descriptor that does not fit the publication
        // fails the restore: a short permutation, and block grouping for
        // a generalized form.
        let mut snap = snapshot(&original);
        snap.catalog.as_mut().unwrap().perm.pop();
        assert!(restore(snap)
            .unwrap_err()
            .contains("stored catalog descriptor"));
        let burel = Artifact::publish(&reg, &request(Algo::Burel)).unwrap();
        let mut snap = snapshot(&burel);
        snap.catalog = snapshot(&original).catalog;
        assert!(restore(snap)
            .unwrap_err()
            .contains("stored catalog descriptor"));
    }

    #[test]
    fn tampered_parameters_are_rejected() {
        let reg = Registry::new();
        let original = Artifact::publish(&reg, &request(Algo::Burel)).unwrap();
        let mut snap = snapshot(&original);
        snap.params.beta = 2.5; // no longer hashes to the stored handle
        assert!(restore(snap).unwrap_err().contains("parameter skew"));

        let mut snap = snapshot(&original);
        snap.params.sa = 99;
        assert!(restore(snap).unwrap_err().contains("outside schema"));

        let mut snap = snapshot(&original);
        if let FormSnapshot::Generalized { ecs } = &mut snap.form {
            ecs[0].push(0); // duplicate row -> cover violation
        }
        assert!(restore(snap).unwrap_err().contains("cover"));
    }
}
