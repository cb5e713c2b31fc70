//! Answering queries from a *resident* publication.
//!
//! The free functions in [`crate::answer`] take the publication apart on
//! every call; a long-lived publisher (the `betalike-server` crate, the
//! figure binaries' inner loops) instead wants one value that owns
//! everything a publication needs to answer `COUNT(*)` queries repeatedly:
//! the partition behind a generalized publication, the perturbation plan of
//! a [`PerturbedTable`], or an Anatomy-style histogram, plus its aggregate
//! [`Catalog`] and a shared handle on the original table for exact answers.
//!
//! A [`PublishedAnswerer`] is cheap to clone (its table handles are
//! [`Arc`]s) and `Send + Sync`, so one published artifact can be computed
//! once and then serve many concurrent readers. Its answers are
//! bit-identical to the corresponding free-function paths — the integration
//! tests of `betalike-server` rely on exactly that.

use crate::answer::{estimate_anatomy, estimate_perturbed, exact_count, GeneralizedView};
use crate::catalog::{Catalog, CatalogSpec, CatalogStats};
use crate::workload::{AggQuery, RangePred};
use betalike::error::Result;
use betalike::perturb::PerturbedTable;
use betalike_baselines::anatomy::AnatomyBaseline;
use betalike_metrics::Partition;
use betalike_microdata::Table;
use std::sync::{Arc, OnceLock};

/// The publication form an answerer holds.
#[derive(Debug, Clone)]
enum Form {
    /// A generalized partition. The per-EC boxes and sorted SA lists of
    /// the scan reference ([`GeneralizedView`]) are built on the first
    /// [`PublishedAnswerer::estimate_scan`]: nothing else reads them.
    Generalized {
        partition: Arc<Partition>,
        view: OnceLock<GeneralizedView>,
    },
    /// A perturbed table plus its reconstruction plan.
    Perturbed(PerturbedTable),
    /// Exact QIs plus the global SA histogram.
    Anatomy(AnatomyBaseline),
}

/// One published artifact, resident in memory, answering aggregate
/// `COUNT(*)` queries without re-deriving any publication state per call.
///
/// By default an answerer also derives a [`Catalog`], so counts resolve
/// from per-group summaries instead of row scans — bit-identically, which
/// the `_opt` constructors let tests and benchmarks verify by opting out.
///
/// ```
/// use betalike_query::{PublishedAnswerer, generate_workload, WorkloadConfig};
/// use betalike::{burel, BurelConfig};
/// use betalike_microdata::synthetic::{random_table, SyntheticConfig};
/// use std::sync::Arc;
///
/// let table = Arc::new(random_table(&SyntheticConfig::default()));
/// let partition = Arc::new(burel(&table, &[0, 1], 2, &BurelConfig::new(4.0)).unwrap());
/// let fast = PublishedAnswerer::generalized(Arc::clone(&table), Arc::clone(&partition));
/// let scan = PublishedAnswerer::generalized_opt(Arc::clone(&table), partition, false);
/// assert!(fast.catalog().is_some() && scan.catalog().is_none());
/// let cfg = WorkloadConfig { qi_pool: vec![0, 1], sa: 2, lambda: 2,
///                            theta: 0.2, num_queries: 5, seed: 1 };
/// for q in &generate_workload(&table, &cfg) {
///     assert_eq!(fast.exact(q), scan.exact(q));
///     let (f, s) = (fast.estimate(q).unwrap(), scan.estimate(q).unwrap());
///     assert_eq!(f.to_bits(), s.to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PublishedAnswerer {
    source: Arc<Table>,
    form: Form,
    catalog: Option<Arc<Catalog>>,
}

impl PublishedAnswerer {
    /// Wraps a generalized publication and builds its aggregate catalog.
    /// A borrowed partition is cloned; pass the `Arc` an artifact already
    /// holds to share it.
    pub fn generalized(source: Arc<Table>, partition: impl Into<Arc<Partition>>) -> Self {
        Self::generalized_opt(source, partition, true)
    }

    /// [`PublishedAnswerer::generalized`] with the catalog optional —
    /// `catalog: false` keeps only the scanning paths, the reference the
    /// equivalence tests and benchmarks compare the catalog against.
    pub fn generalized_opt(
        source: Arc<Table>,
        partition: impl Into<Arc<Partition>>,
        catalog: bool,
    ) -> Self {
        let form = Form::Generalized {
            partition: partition.into(),
            view: OnceLock::new(),
        };
        Self::with_default_catalog(source, form, catalog)
    }

    /// Wraps a perturbed publication (`source` is the *original* table the
    /// publisher keeps for exact answers; `published` carries the randomized
    /// copy recipients see). Builds the aggregate catalog.
    pub fn perturbed(source: Arc<Table>, published: PerturbedTable) -> Self {
        Self::perturbed_opt(source, published, true)
    }

    /// [`PublishedAnswerer::perturbed`] with the catalog optional.
    pub fn perturbed_opt(source: Arc<Table>, published: PerturbedTable, catalog: bool) -> Self {
        Self::with_default_catalog(source, Form::Perturbed(published), catalog)
    }

    /// Wraps an Anatomy-style publication of `source`'s SA column. Builds
    /// the aggregate catalog.
    pub fn anatomy(source: Arc<Table>, sa: usize) -> Self {
        Self::anatomy_opt(source, sa, true)
    }

    /// [`PublishedAnswerer::anatomy`] with the catalog optional.
    pub fn anatomy_opt(source: Arc<Table>, sa: usize, catalog: bool) -> Self {
        let form = Form::Anatomy(AnatomyBaseline::publish(&source, sa));
        Self::with_default_catalog(source, form, catalog)
    }

    fn with_default_catalog(source: Arc<Table>, form: Form, catalog: bool) -> Self {
        let mut answerer = PublishedAnswerer {
            source,
            form,
            catalog: None,
        };
        if catalog {
            // Only a stored spec can fail to build.
            let _ = answerer.build_catalog(None);
        }
        answerer
    }

    /// The original table this publication was derived from.
    pub fn source(&self) -> &Arc<Table> {
        &self.source
    }

    /// The perturbed publication this answerer serves, if it is one — the
    /// persistence layer (`betalike-store`) snapshots the randomized SA
    /// column and the plan through this accessor.
    pub fn perturbed_form(&self) -> Option<&PerturbedTable> {
        match &self.form {
            Form::Perturbed(published) => Some(published),
            _ => None,
        }
    }

    /// A short label for the publication form (`"generalized"`,
    /// `"perturbed"`, `"anatomy"`).
    pub fn kind(&self) -> &'static str {
        match &self.form {
            Form::Generalized { .. } => "generalized",
            Form::Perturbed(_) => "perturbed",
            Form::Anatomy(_) => "anatomy",
        }
    }

    /// The aggregate catalog, when one was built.
    pub fn catalog(&self) -> Option<&Arc<Catalog>> {
        self.catalog.as_ref()
    }

    /// Wires plan-classification counters into the catalog, when one was
    /// built (the server passes registry-backed [`CatalogStats`] handles
    /// so its `metrics` op can report query plan shapes). Clones the
    /// catalog if the handle is already shared, so attach at build time.
    pub fn attach_catalog_stats(&mut self, stats: CatalogStats) {
        if let Some(catalog) = &mut self.catalog {
            Arc::make_mut(catalog).set_stats(stats);
        }
    }

    /// The persistable spec of the catalog, when one was built (see
    /// [`CatalogSpec`]).
    pub fn catalog_spec(&self) -> Option<CatalogSpec> {
        self.catalog.as_ref().map(|c| c.spec())
    }

    /// Builds the catalog from a persisted spec, replacing any current
    /// one. Restore paths call this on a scan-only answerer so a stored
    /// grouping is honored verbatim and the catalog is built once;
    /// version-skewed specs are the *caller's* cue to build the default
    /// instead (`spec: None`).
    ///
    /// # Errors
    ///
    /// Propagates [`Catalog::from_spec`]'s structural validation.
    pub fn build_catalog(&mut self, spec: Option<&CatalogSpec>) -> std::result::Result<(), String> {
        let (partition, sa) = match &self.form {
            Form::Generalized { partition, .. } => (Some(&**partition), partition.sa()),
            Form::Perturbed(published) => (None, published.sa),
            Form::Anatomy(baseline) => (None, baseline.sa()),
        };
        let catalog = match (spec, partition) {
            (Some(spec), _) => Catalog::from_spec(&self.source, partition, spec)?,
            (None, Some(p)) => Catalog::for_partition(&self.source, p),
            (None, None) => Catalog::for_table(&self.source, sa),
        };
        let catalog = match &self.form {
            Form::Perturbed(published) => catalog.with_perturbed_overlay(published),
            _ => catalog,
        };
        self.catalog = Some(Arc::new(catalog));
        Ok(())
    }

    /// Estimated `COUNT(*)` from the published form, bit-identical to the
    /// corresponding free-function estimator whether or not the catalog
    /// path answers it (see [`crate::catalog`] for the argument).
    ///
    /// # Errors
    ///
    /// Propagates a singular-matrix failure from perturbation
    /// reconstruction; the other forms cannot fail.
    pub fn estimate(&self, query: &AggQuery) -> Result<f64> {
        let Some(catalog) = &self.catalog else {
            return self.estimate_scan(query);
        };
        match &self.form {
            Form::Generalized { .. } => Ok(catalog.estimate_generalized(query)),
            Form::Perturbed(published) => {
                let (matched, counts) = catalog.perturbed_observed(published, query);
                if matched == 0 {
                    return Ok(0.0);
                }
                let recon = published.plan.reconstruct(&counts)?;
                let mut total = 0.0;
                for (i, &v) in published.plan.support().iter().enumerate() {
                    if query.sa_pred.matches(v) {
                        total += recon[i].max(0.0);
                    }
                }
                Ok(total)
            }
            Form::Anatomy(baseline) => {
                let matched = catalog.count(&self.source, &query.qi_preds);
                Ok(
                    baseline.estimate_from_len(
                        matched as usize,
                        query.sa_pred.lo,
                        query.sa_pred.hi,
                    ),
                )
            }
        }
    }

    /// [`PublishedAnswerer::estimate`] forced through the row-scanning
    /// free functions, ignoring the catalog — the equivalence tests and
    /// the repository benchmark's answer check compare against this.
    ///
    /// # Errors
    ///
    /// Propagates a singular-matrix failure from perturbation
    /// reconstruction; the other forms cannot fail.
    pub fn estimate_scan(&self, query: &AggQuery) -> Result<f64> {
        match &self.form {
            Form::Generalized { partition, view } => Ok(view
                .get_or_init(|| GeneralizedView::new(&self.source, partition))
                .estimate(query)),
            Form::Perturbed(published) => estimate_perturbed(published, query),
            Form::Anatomy(baseline) => Ok(estimate_anatomy(baseline, &self.source, query)),
        }
    }

    /// Exact `COUNT(*)` on the original table (the publisher-side ground
    /// truth used for relative-error reporting) — from catalog summaries
    /// when available, always equal to [`PublishedAnswerer::exact_scan`].
    pub fn exact(&self, query: &AggQuery) -> u64 {
        match &self.catalog {
            Some(catalog) => {
                let preds: Vec<RangePred> = query
                    .qi_preds
                    .iter()
                    .chain([&query.sa_pred])
                    .copied()
                    .collect();
                catalog.count(&self.source, &preds)
            }
            None => exact_count(&self.source, query),
        }
    }

    /// [`PublishedAnswerer::exact`] forced through the full row scan.
    pub fn exact_scan(&self, query: &AggQuery) -> u64 {
        exact_count(&self.source, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_workload, WorkloadConfig};
    use betalike::model::BetaLikeness;
    use betalike::{burel, perturb, BurelConfig};
    use betalike_microdata::census::{self, CensusConfig};

    fn setup() -> (Arc<Table>, Vec<AggQuery>) {
        let table = Arc::new(census::generate(&CensusConfig::new(4_000, 5)));
        let queries = generate_workload(
            &table,
            &WorkloadConfig {
                qi_pool: vec![0, 1, 2],
                sa: 5,
                lambda: 2,
                theta: 0.15,
                num_queries: 60,
                seed: 8,
            },
        );
        (table, queries)
    }

    #[test]
    fn generalized_answers_match_free_functions_bitwise() {
        let (table, queries) = setup();
        let qi = vec![0usize, 1, 2];
        let p = burel(&table, &qi, 5, &BurelConfig::new(4.0).with_seed(3)).unwrap();
        let view = GeneralizedView::new(&table, &p);
        let ans = PublishedAnswerer::generalized(Arc::clone(&table), &p);
        assert_eq!(ans.kind(), "generalized");
        for q in &queries {
            let got = ans.estimate(q).unwrap();
            assert_eq!(got.to_bits(), view.estimate(q).to_bits());
            assert_eq!(ans.exact(q), exact_count(&table, q));
        }
    }

    #[test]
    fn scan_view_is_built_on_first_scan_only() {
        let (table, queries) = setup();
        let p = Arc::new(burel(&table, &[0, 1, 2], 5, &BurelConfig::new(4.0)).unwrap());
        let ans = PublishedAnswerer::generalized(Arc::clone(&table), Arc::clone(&p));
        let built = |a: &PublishedAnswerer| match &a.form {
            Form::Generalized { partition, view } => {
                assert!(Arc::ptr_eq(partition, &p), "the partition is shared");
                view.get().is_some()
            }
            _ => unreachable!(),
        };
        for q in &queries {
            ans.estimate(q).unwrap();
            ans.exact(q);
        }
        assert!(!built(&ans), "catalog answers never build the view");
        let q = &queries[0];
        assert_eq!(
            ans.estimate_scan(q).unwrap().to_bits(),
            ans.estimate(q).unwrap().to_bits()
        );
        assert!(built(&ans));
    }

    #[test]
    fn perturbed_and_anatomy_match_free_functions_bitwise() {
        let (table, queries) = setup();
        let model = BetaLikeness::new(4.0).unwrap();
        let published = perturb(&table, 5, &model, 7).unwrap();
        let pert = PublishedAnswerer::perturbed(Arc::clone(&table), published.clone());
        let anat = PublishedAnswerer::anatomy(Arc::clone(&table), 5);
        assert_eq!(pert.kind(), "perturbed");
        assert_eq!(anat.kind(), "anatomy");
        let baseline = AnatomyBaseline::publish(&table, 5);
        for q in &queries {
            let got = pert.estimate(q).unwrap();
            let want = estimate_perturbed(&published, q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            let got = anat.estimate(q).unwrap();
            let want = estimate_anatomy(&baseline, &table, q);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn answerer_is_cheap_to_share_across_threads() {
        let (table, queries) = setup();
        let qi = vec![0usize, 1, 2];
        let p = burel(&table, &qi, 5, &BurelConfig::new(4.0).with_seed(1)).unwrap();
        let ans = PublishedAnswerer::generalized(table, &p);
        let serial: Vec<u64> = queries
            .iter()
            .map(|q| ans.estimate(q).unwrap().to_bits())
            .collect();
        let answers = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let ans = ans.clone();
                    let queries = &queries;
                    s.spawn(move || {
                        queries
                            .iter()
                            .map(|q| ans.estimate(q).unwrap().to_bits())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for got in answers {
            assert_eq!(got, serial, "shared answerer must be deterministic");
        }
    }
}
