//! A SABRE-style t-closeness anonymizer (Cao, Karras, Kalnis, Tan:
//! *SABRE: a Sensitive Attribute Bucketization and REdistribution framework
//! for t-closeness*, VLDB Journal 2011).
//!
//! The original SABRE is the t-closeness ancestor of BUREL and the paper's
//! strongest generalization baseline (Figure 4). We reimplement it in the
//! same two-phase framework:
//!
//! 1. **Bucketization.** SA values (ascending frequency) are greedily
//!    grouped into buckets. A bucket containing values `V_j` with total
//!    frequency `P_j` and minimum frequency `p^j_min` has *slack*
//!    `P_j − p^j_min`: the worst-case contribution to equal-distance EMD
//!    when an EC's draw from the bucket is adversarially concentrated on
//!    one value. Buckets are grown while the total slack stays within a
//!    fraction `η` of the EMD budget `t` (the rest of the budget absorbs
//!    share rounding during reallocation).
//! 2. **Redistribution.** The same ECTree as BUREL, with an EMD-budget
//!    eligibility condition: an EC drawing `x_j` tuples from bucket `j` is
//!    admissible iff its *worst-case* equal-distance EMD,
//!    `½ Σ_j worst_j(x_j/|G|)`, stays ≤ t, where
//!    `worst_j(s) = s + P_j − 2·min(s, p^j_min)` for `s > 0` and `P_j` for
//!    `s = 0` (concentration on the least frequent value is the worst
//!    placement by convexity).
//!
//! Because the eligibility bound covers *any* in-bucket composition, the
//! SA-indifferent Hilbert materialization inherited from BUREL yields ECs
//! that provably satisfy t-closeness under equal-distance EMD (and hence
//! under ordered EMD, which it upper-bounds).

use betalike::ectree::{bi_split, Eligibility};
use betalike::error::{Error, Result};
use betalike::retrieve::{hilbert_keys, FillStrategy, Materializer, SeedChoice};
use betalike_metrics::audit::ClosenessMetric;
use betalike_metrics::Partition;
use betalike_microdata::{RowId, SaDistribution, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`sabre`].
#[derive(Debug, Clone)]
pub struct SabreConfig {
    /// The t-closeness threshold (equal-distance EMD), `0 < t ≤ 1`.
    pub t: f64,
    /// Fraction of the budget granted to within-bucket slack during
    /// bucketization (the remainder absorbs reallocation rounding).
    pub slack_fraction: f64,
    /// RNG seed for EC seeding.
    pub seed: u64,
    /// Verify every output EC against the exact EMD before returning.
    pub verify_output: bool,
}

impl SabreConfig {
    /// Defaults: `η = 0.5`, verification on.
    pub fn new(t: f64) -> Self {
        SabreConfig {
            t,
            slack_fraction: 0.5,
            seed: 42,
            verify_output: true,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Shared input validation of [`sabre`] / [`sabre_with_keys`].
fn validate(table: &Table, qi: &[usize], sa: usize, cfg: &SabreConfig) -> Result<()> {
    if !(cfg.t > 0.0 && cfg.t <= 1.0 && cfg.t.is_finite()) {
        return Err(Error::BadT(cfg.t));
    }
    let arity = table.schema().arity();
    if sa >= arity {
        return Err(Error::BadSa { index: sa, arity });
    }
    if qi.is_empty() || qi.contains(&sa) || qi.iter().any(|&a| a >= arity) {
        return Err(Error::BadQi("invalid QI set".into()));
    }
    if table.is_empty() {
        return Err(Error::EmptyTable);
    }
    Ok(())
}

/// A bucket of SA values with its EMD bookkeeping.
#[derive(Debug, Clone)]
struct EmdBucket {
    values: Vec<u32>,
    count: u64,
    /// Total table frequency `P_j`.
    freq_sum: f64,
    /// Minimum member frequency `p^j_min`.
    min_freq: f64,
}

/// Greedy slack-bounded bucketization over ascending-frequency values.
fn bucketize(dist: &SaDistribution, t: f64, eta: f64) -> Vec<EmdBucket> {
    let values = dist.values_by_ascending_freq();
    let budget = eta * t;
    let mut buckets: Vec<EmdBucket> = Vec::new();
    let mut used_slack = 0.0;
    for v in values {
        let p = dist.freq(v);
        let n = dist.count(v);
        if let Some(last) = buckets.last_mut() {
            // Adding v to the last bucket raises its slack from
            // (P_j − min) to (P_j + p − min): an increase of p.
            let new_slack = last.freq_sum + p - last.min_freq;
            let old_slack = last.freq_sum - last.min_freq;
            if used_slack - old_slack + new_slack <= budget {
                used_slack += new_slack - old_slack;
                last.values.push(v);
                last.count += n;
                last.freq_sum += p;
                last.min_freq = last.min_freq.min(p);
                continue;
            }
        }
        buckets.push(EmdBucket {
            values: vec![v],
            count: n,
            freq_sum: p,
            min_freq: p,
        });
    }
    buckets
}

/// The EMD-budget eligibility condition (see module docs).
#[derive(Debug, Clone)]
struct EmdEligibility {
    t: f64,
    freq_sums: Vec<f64>,
    min_freqs: Vec<f64>,
}

impl EmdEligibility {
    fn worst_emd(&self, counts: &[u64]) -> f64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::INFINITY;
        }
        let g = total as f64;
        let mut acc = 0.0;
        for ((&x, &pj), &pmin) in counts.iter().zip(&self.freq_sums).zip(&self.min_freqs) {
            let s = x as f64 / g;
            if x == 0 {
                acc += pj;
            } else {
                acc += s + pj - 2.0 * s.min(pmin);
            }
        }
        0.5 * acc
    }
}

impl Eligibility for EmdEligibility {
    fn eligible(&self, counts: &[u64]) -> bool {
        self.worst_emd(counts) <= self.t
    }
}

/// Runs the SABRE-style algorithm; the output satisfies t-closeness under
/// equal-distance EMD.
///
/// # Errors
///
/// Standard input validation errors, plus [`Error::RootNotEligible`] if the
/// bucketization consumed more than the available budget (cannot happen for
/// `slack_fraction < 1`).
pub fn sabre(table: &Table, qi: &[usize], sa: usize, cfg: &SabreConfig) -> Result<Partition> {
    validate(table, qi, sa, cfg)?;
    let keys = hilbert_keys(table, qi);
    sabre_with_keys(table, qi, sa, cfg, &keys)
}

/// Like [`sabre`], with the per-row Hilbert keys precomputed by
/// [`hilbert_keys`] for this exact `(table, qi)` pair.
///
/// BUREL and SABRE share the same QI geometry; comparison runs over one
/// table should compute the keys once (see `bench::algos::QiGeometry`)
/// instead of paying the Hilbert transform in each algorithm.
///
/// # Errors
///
/// As [`sabre`].
///
/// # Panics
///
/// Panics if `keys.len() != table.num_rows()`.
pub fn sabre_with_keys(
    table: &Table,
    qi: &[usize],
    sa: usize,
    cfg: &SabreConfig,
    keys: &[u128],
) -> Result<Partition> {
    validate(table, qi, sa, cfg)?;
    assert_eq!(
        keys.len(),
        table.num_rows(),
        "precomputed Hilbert keys must cover every row"
    );
    let dist = table.sa_distribution(sa);
    let buckets = bucketize(&dist, cfg.t, cfg.slack_fraction.clamp(0.0, 1.0));

    let sizes: Vec<u64> = buckets.iter().map(|b| b.count).collect();
    let eligibility = EmdEligibility {
        t: cfg.t,
        freq_sums: buckets.iter().map(|b| b.freq_sum).collect(),
        min_freqs: buckets.iter().map(|b| b.min_freq).collect(),
    };
    let templates = bi_split(&sizes, &eligibility).ok_or(Error::RootNotEligible)?;

    // Materialize with the shared Hilbert machinery.
    let card = table.schema().attr(sa).cardinality();
    let mut value_bucket = vec![usize::MAX; card];
    for (j, b) in buckets.iter().enumerate() {
        for &v in &b.values {
            value_bucket[v as usize] = j;
        }
    }
    let mut bucket_rows: Vec<Vec<RowId>> = vec![Vec::new(); buckets.len()];
    for (r, &v) in table.column(sa).iter().enumerate() {
        bucket_rows[value_bucket[v as usize]].push(r);
    }
    let mut mat = Materializer::with_seed_choice(
        keys,
        &bucket_rows,
        FillStrategy::HilbertNearest,
        SeedChoice::Random,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let ecs: Vec<Vec<RowId>> = templates
        .iter()
        .map(|t| mat.fill(&t.counts, &mut rng))
        .collect();
    let partition = Partition::new(qi.to_vec(), sa, ecs);

    if cfg.verify_output {
        let metric = ClosenessMetric::EqualDistance;
        for i in 0..partition.num_ecs() {
            let q = partition.ec_distribution(table, i);
            let d = metric.distance(dist.freqs(), q.freqs());
            if d > cfg.t + 1e-12 {
                // The worst-case bound makes this unreachable; surface it
                // loudly if the invariant is ever broken.
                return Err(Error::BadQi(format!(
                    "internal: EC {i} has EMD {d} > t = {}",
                    cfg.t
                )));
            }
        }
    }
    Ok(partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_metrics::audit::achieved_closeness;
    use betalike_metrics::loss::average_information_loss;
    use betalike_microdata::census::{self, CensusConfig};
    use betalike_microdata::synthetic::{random_table, SaShape, SyntheticConfig};

    #[test]
    fn bucketize_respects_slack_budget() {
        let dist = SaDistribution::from_counts(vec![5, 10, 15, 20, 25, 25]);
        for t in [0.05, 0.2, 0.5] {
            let buckets = bucketize(&dist, t, 0.5);
            let slack: f64 = buckets.iter().map(|b| b.freq_sum - b.min_freq).sum();
            assert!(slack <= 0.5 * t + 1e-12, "t = {t}: slack {slack}");
            let total: u64 = buckets.iter().map(|b| b.count).sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn tighter_t_means_more_buckets() {
        let dist = SaDistribution::from_counts(vec![10; 10]);
        let loose = bucketize(&dist, 0.5, 0.5);
        let tight = bucketize(&dist, 0.05, 0.5);
        assert!(tight.len() >= loose.len());
    }

    #[test]
    fn worst_emd_formula() {
        // One bucket, all values equal frequency: drawing proportionally
        // the worst case concentrates on one value.
        let e = EmdEligibility {
            t: 1.0,
            freq_sums: vec![1.0],
            min_freqs: vec![0.25],
        };
        // EC draws everything: s = 1, worst = ½(1 + 1 − 2·0.25) = 0.75.
        assert!((e.worst_emd(&[4]) - 0.75).abs() < 1e-12);
        // Empty EC is infinitely bad.
        assert_eq!(e.worst_emd(&[0]), f64::INFINITY);
    }

    #[test]
    fn output_satisfies_t_closeness() {
        let t = random_table(&SyntheticConfig {
            rows: 3_000,
            qi_attrs: 2,
            sa_cardinality: 10,
            sa_shape: SaShape::Zipf(1.0),
            seed: 12,
            ..Default::default()
        });
        for thr in [0.1, 0.2, 0.4] {
            let p = sabre(&t, &[0, 1], 2, &SabreConfig::new(thr)).unwrap();
            assert!(p.validate_cover(3_000).is_ok());
            let (max_t, _) = achieved_closeness(&t, &p, ClosenessMetric::EqualDistance);
            assert!(max_t <= thr + 1e-9, "t = {thr}: achieved {max_t}");
        }
    }

    #[test]
    fn looser_t_means_lower_loss() {
        let t = census::generate(&CensusConfig::new(4_000, 31));
        let qi = [0, 2];
        let tight = sabre(&t, &qi, 5, &SabreConfig::new(0.05)).unwrap();
        let loose = sabre(&t, &qi, 5, &SabreConfig::new(0.4)).unwrap();
        let ail_tight = average_information_loss(&t, &tight);
        let ail_loose = average_information_loss(&t, &loose);
        assert!(
            ail_loose <= ail_tight + 1e-9,
            "loose {ail_loose} vs tight {ail_tight}"
        );
    }

    #[test]
    fn input_validation() {
        let t = random_table(&SyntheticConfig::default());
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            let err = sabre(&t, &[0, 1], 2, &SabreConfig::new(bad)).unwrap_err();
            assert!(matches!(err, Error::BadT(_)), "t = {bad}: {err:?}");
            assert!(err.to_string().starts_with("t must"), "t = {bad}: {err}");
        }
        assert!(sabre(&t, &[], 2, &SabreConfig::new(0.1)).is_err());
        assert!(sabre(&t, &[0, 2], 2, &SabreConfig::new(0.1)).is_err());
        assert!(sabre(&t, &[0], 9, &SabreConfig::new(0.1)).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let t = random_table(&SyntheticConfig {
            rows: 500,
            seed: 2,
            ..Default::default()
        });
        let a = sabre(&t, &[0, 1], 2, &SabreConfig::new(0.2)).unwrap();
        let b = sabre(&t, &[0, 1], 2, &SabreConfig::new(0.2)).unwrap();
        assert_eq!(a.ecs(), b.ecs());
    }

    #[test]
    fn precomputed_keys_match_recomputed() {
        let t = random_table(&SyntheticConfig {
            rows: 800,
            seed: 5,
            ..Default::default()
        });
        let keys = hilbert_keys(&t, &[0, 1]);
        let direct = sabre(&t, &[0, 1], 2, &SabreConfig::new(0.2)).unwrap();
        let shared = sabre_with_keys(&t, &[0, 1], 2, &SabreConfig::new(0.2), &keys).unwrap();
        assert_eq!(direct.ecs(), shared.ecs());
    }
}
