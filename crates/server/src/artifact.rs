//! Published artifacts: one publish request's cached output.
//!
//! An [`Artifact`] owns everything needed to serve queries against one
//! publication — the [`PublishedAnswerer`] (aggregate catalog plus the
//! partition, perturbation plan, or Anatomy histogram), the partition for
//! audits, and the dataset
//! handle — all behind [`Arc`]s so any number of worker threads can answer
//! from it concurrently. The privacy audit is computed at most once, on
//! first request.

use crate::registry::{Dataset, Registry};
use crate::wire::{Algo, PublishRequest};
use betalike::model::{BetaLikeness, BoundKind};
use betalike::retrieve::hilbert_keys;
use betalike::{burel_with_keys, perturb, BurelConfig};
use betalike_baselines::constraints::LikenessConstraint;
use betalike_baselines::mondrian::{mondrian, MondrianConfig};
use betalike_baselines::sabre::{sabre_with_keys, SabreConfig};
use betalike_metrics::audit::{audit_partition, ClosenessMetric, PartitionAudit};
use betalike_metrics::Partition;
use betalike_microdata::json::Json;
use betalike_query::{CatalogStats, PublishedAnswerer};
use std::sync::{Arc, OnceLock};

/// The closeness metric audits report (the workspace default, matching the
/// figure binaries).
pub const AUDIT_METRIC: ClosenessMetric = ClosenessMetric::EqualDistance;

/// One cached publication, shared by every connection that queries its
/// handle.
#[derive(Debug)]
pub struct Artifact {
    /// The content-addressed handle (`pub-…`).
    pub handle: String,
    /// The normalized request that produced this artifact.
    pub request: PublishRequest,
    /// The dataset the artifact was published from.
    pub dataset: Arc<Dataset>,
    /// The QI attributes that were generalized (empty for perturbation /
    /// Anatomy, which publish QIs verbatim).
    pub qi: Vec<usize>,
    /// The resident query answerer.
    pub answerer: PublishedAnswerer,
    /// The partition, for generalization-based schemes.
    pub partition: Option<Arc<Partition>>,
    /// Retention probabilities, for the perturbation scheme.
    pub alphas: Option<Vec<f64>>,
    audit: OnceLock<Option<PartitionAudit>>,
}

impl Artifact {
    /// Runs a publish request against the registry. Expensive — callers
    /// keep the result per handle (see `server::resident`).
    ///
    /// # Errors
    ///
    /// Returns a wire-level message for invalid parameters or an algorithm
    /// failure (e.g. an unsatisfiable β).
    pub fn publish(registry: &Registry, request: &PublishRequest) -> Result<Arc<Self>, String> {
        Self::publish_opt(registry, request, true)
    }

    /// [`Artifact::publish`] with the aggregate catalog optional. With
    /// `false` every count goes through the scan path — the reference the
    /// tests and the repository benchmark compare the served answers
    /// against; answers are bit-identical either way.
    ///
    /// # Errors
    ///
    /// As [`Artifact::publish`].
    pub fn publish_opt(
        registry: &Registry,
        request: &PublishRequest,
        catalog: bool,
    ) -> Result<Arc<Self>, String> {
        Self::publish_with(registry, request, catalog, None)
    }

    /// [`Artifact::publish_opt`] with optional plan-classification
    /// counters wired into the catalog (the server passes registry-backed
    /// [`CatalogStats`] so its `metrics` op reports query plan shapes).
    ///
    /// # Errors
    ///
    /// As [`Artifact::publish`].
    pub fn publish_with(
        registry: &Registry,
        request: &PublishRequest,
        catalog: bool,
        stats: Option<CatalogStats>,
    ) -> Result<Arc<Self>, String> {
        let request = request.clone().normalized();
        let dataset = registry.dataset(&request.dataset);
        let table = Arc::clone(&dataset.table);
        let sa = dataset.sa;
        let needs_qi = matches!(request.algo, Algo::Burel | Algo::Sabre | Algo::Mondrian);
        if needs_qi && !(1..=dataset.qi_pool.len()).contains(&request.qi) {
            return Err(format!(
                "`qi` must be within 1..={} for dataset `{}`",
                dataset.qi_pool.len(),
                dataset.key
            ));
        }
        let qi: Vec<usize> = if needs_qi {
            // betalike-lint: allow(P1, reason = "request.qi <= qi_pool.len() was rejected above")
            dataset.qi_pool[..request.qi].to_vec()
        } else {
            Vec::new()
        };

        let mut partition = None;
        let mut alphas = None;
        let mut answerer = match request.algo {
            Algo::Burel => {
                let keys = hilbert_keys(&table, &qi);
                let cfg = BurelConfig::new(request.beta).with_seed(request.seed);
                let p = burel_with_keys(&table, &qi, sa, &cfg, &keys).map_err(|e| e.to_string())?;
                let p = Arc::new(p);
                partition = Some(Arc::clone(&p));
                PublishedAnswerer::generalized_opt(Arc::clone(&table), p, catalog)
            }
            Algo::Sabre => {
                let keys = hilbert_keys(&table, &qi);
                let cfg = SabreConfig::new(request.t).with_seed(request.seed);
                let p = sabre_with_keys(&table, &qi, sa, &cfg, &keys).map_err(|e| e.to_string())?;
                let p = Arc::new(p);
                partition = Some(Arc::clone(&p));
                PublishedAnswerer::generalized_opt(Arc::clone(&table), p, catalog)
            }
            Algo::Mondrian => {
                let model = BetaLikeness::with_bound(request.beta, BoundKind::Enhanced)
                    .map_err(|e| e.to_string())?;
                let c = LikenessConstraint::new(&table, sa, model);
                let p = mondrian(&table, &qi, sa, &c, &MondrianConfig::default())
                    .map_err(|e| e.to_string())?;
                let p = Arc::new(p);
                partition = Some(Arc::clone(&p));
                PublishedAnswerer::generalized_opt(Arc::clone(&table), p, catalog)
            }
            Algo::Anatomy => PublishedAnswerer::anatomy_opt(Arc::clone(&table), sa, catalog),
            Algo::Perturb => {
                let model = BetaLikeness::new(request.beta).map_err(|e| e.to_string())?;
                let published =
                    perturb(&table, sa, &model, request.seed).map_err(|e| e.to_string())?;
                alphas = Some(published.plan.alphas().to_vec());
                PublishedAnswerer::perturbed_opt(Arc::clone(&table), published, catalog)
            }
        };
        if let Some(stats) = stats {
            answerer.attach_catalog_stats(stats);
        }
        Ok(Arc::new(Artifact {
            handle: request.handle(),
            request,
            dataset,
            qi,
            answerer,
            partition,
            alphas,
            audit: OnceLock::new(),
        }))
    }

    /// Reassembles an artifact from persisted parts (see [`crate::persist`])
    /// without running any pipeline stage. A stored audit is injected into
    /// the once-cell so [`Artifact::audit`] serves the publish-time numbers
    /// verbatim; partition-backed artifacts lacking one (not produced by
    /// this writer, but tolerated) fall back to lazy recomputation — which
    /// is deterministic, hence still bit-identical.
    #[allow(clippy::too_many_arguments)] // a constructor mirroring the struct
    pub fn restored(
        handle: String,
        request: PublishRequest,
        dataset: Arc<Dataset>,
        qi: Vec<usize>,
        answerer: PublishedAnswerer,
        partition: Option<Arc<Partition>>,
        alphas: Option<Vec<f64>>,
        stored_audit: Option<PartitionAudit>,
    ) -> Arc<Self> {
        let audit = OnceLock::new();
        match (&partition, stored_audit) {
            (Some(_), Some(a)) => {
                let _ = audit.set(Some(a));
            }
            (None, _) => {
                // Forms without ECs audit to `None`; pre-resolve it.
                let _ = audit.set(None);
            }
            (Some(_), None) => {}
        }
        Arc::new(Artifact {
            handle,
            request,
            dataset,
            qi,
            answerer,
            partition,
            alphas,
            audit,
        })
    }

    /// The cross-model privacy audit, computed once per artifact. `None`
    /// for publication forms without equivalence classes.
    pub fn audit(&self) -> Option<&PartitionAudit> {
        self.audit
            .get_or_init(|| {
                self.partition
                    .as_ref()
                    .map(|p| audit_partition(self.answerer.source(), p, AUDIT_METRIC))
            })
            .as_ref()
    }

    /// The audit response document for this artifact's form.
    pub fn audit_json(&self) -> Json {
        let kind = self.answerer.kind();
        let mut members = vec![("kind".to_string(), Json::Str(kind.into()))];
        if let Some(a) = self.audit() {
            members.extend([
                ("max_beta".to_string(), Json::Num(a.max_beta)),
                ("avg_beta".to_string(), Json::Num(a.avg_beta)),
                ("max_closeness".to_string(), Json::Num(a.max_closeness)),
                ("avg_closeness".to_string(), Json::Num(a.avg_closeness)),
                (
                    "min_distinct_l".to_string(),
                    Json::Num(a.min_distinct_l as f64),
                ),
                ("avg_distinct_l".to_string(), Json::Num(a.avg_distinct_l)),
                (
                    "min_inv_max_freq_l".to_string(),
                    Json::Num(a.min_inv_max_freq_l),
                ),
                ("max_delta".to_string(), Json::Num(a.max_delta)),
                ("min_ec_size".to_string(), Json::Num(a.min_ec_size as f64)),
                ("num_ecs".to_string(), Json::Num(a.num_ecs as f64)),
            ]);
        } else if let Some(alphas) = &self.alphas {
            let min = alphas.iter().copied().fold(f64::INFINITY, f64::min);
            let avg = alphas.iter().sum::<f64>() / alphas.len().max(1) as f64;
            members.extend([
                ("m".to_string(), Json::Num(alphas.len() as f64)),
                ("min_alpha".to_string(), Json::Num(min)),
                ("avg_alpha".to_string(), Json::Num(avg)),
                ("beta".to_string(), Json::Num(self.request.beta)),
            ]);
        }
        Json::Obj(members)
    }

    /// Number of equivalence classes, for partition-backed artifacts.
    pub fn num_ecs(&self) -> Option<usize> {
        self.partition.as_ref().map(|p| p.num_ecs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DatasetSpec;
    use betalike_metrics::audit::achieved_beta;

    fn census_request(algo: Algo) -> PublishRequest {
        PublishRequest::new(
            DatasetSpec::Census {
                rows: 1_500,
                seed: 11,
            },
            algo,
        )
    }

    #[test]
    fn publish_every_scheme() {
        let reg = Registry::new();
        for algo in [
            Algo::Burel,
            Algo::Sabre,
            Algo::Mondrian,
            Algo::Anatomy,
            Algo::Perturb,
        ] {
            let art = Artifact::publish(&reg, &census_request(algo)).unwrap();
            assert_eq!(art.handle, census_request(algo).handle());
            match algo {
                Algo::Burel | Algo::Sabre | Algo::Mondrian => {
                    let p = art.partition.as_ref().expect("partition-backed");
                    assert!(p.num_ecs() > 0);
                    assert_eq!(art.qi.len(), 3);
                    let audit = art.audit().expect("partition audit");
                    assert_eq!(audit.num_ecs, p.num_ecs());
                }
                Algo::Anatomy | Algo::Perturb => {
                    assert!(art.partition.is_none());
                    assert!(art.audit().is_none());
                    assert!(art.qi.is_empty());
                }
            }
        }
    }

    #[test]
    fn burel_artifact_honors_beta() {
        let reg = Registry::new();
        let req = census_request(Algo::Burel);
        let art = Artifact::publish(&reg, &req).unwrap();
        let p = art.partition.as_ref().unwrap();
        let achieved = achieved_beta(art.answerer.source(), p);
        assert!(achieved <= req.beta + 1e-9, "achieved β {achieved}");
        let audit = art.audit().unwrap();
        assert_eq!(audit.max_beta.to_bits(), achieved.to_bits());
    }

    #[test]
    fn qi_out_of_range_is_rejected() {
        let reg = Registry::new();
        let mut req = census_request(Algo::Burel);
        req.qi = 9;
        assert!(Artifact::publish(&reg, &req).unwrap_err().contains("1..=5"));
    }

    #[test]
    fn audit_json_forms() {
        let reg = Registry::new();
        let gen = Artifact::publish(&reg, &census_request(Algo::Burel)).unwrap();
        let doc = gen.audit_json();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("generalized"));
        assert!(doc.get("max_beta").unwrap().as_f64().unwrap() > 0.0);
        let pert = Artifact::publish(&reg, &census_request(Algo::Perturb)).unwrap();
        let doc = pert.audit_json();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("perturbed"));
        assert!(doc.get("min_alpha").unwrap().as_f64().unwrap() > 0.0);
    }
}
