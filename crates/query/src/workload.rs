//! Workload generation (Sections 5 / 6.2 of the paper).
//!
//! A query carries `λ` range predicates over QI attributes drawn from a
//! pool, plus one range predicate over the SA. For expected selectivity `θ`
//! under the uniformity assumption, each of the `λ + 1` ranges has length
//! `|A| · θ^{1/(λ+1)}` (at least one domain cell), placed uniformly at
//! random in the attribute's domain.

use betalike_microdata::Table;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An inclusive range predicate `attr ∈ [lo, hi]` over encoded values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePred {
    /// Attribute index.
    pub attr: usize,
    /// Lowest matching code.
    pub lo: u32,
    /// Highest matching code.
    pub hi: u32,
}

impl RangePred {
    /// Whether a value code matches.
    #[inline]
    pub fn matches(&self, code: u32) -> bool {
        (self.lo..=self.hi).contains(&code)
    }

    /// Number of domain cells covered.
    #[inline]
    pub fn len(&self) -> u32 {
        self.hi - self.lo + 1
    }

    /// Ranges are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// One COUNT(*) aggregation query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggQuery {
    /// Predicates over QI attributes; several on one attribute form a
    /// conjunction.
    pub qi_preds: Vec<RangePred>,
    /// The SA predicate.
    pub sa_pred: RangePred,
}

/// Configuration for [`generate_workload`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// QI attributes the generator may predicate on.
    pub qi_pool: Vec<usize>,
    /// SA attribute index.
    pub sa: usize,
    /// Number of QI predicates per query (`λ ≤ qi_pool.len()`).
    pub lambda: usize,
    /// Expected selectivity `θ ∈ (0, 1)`.
    pub theta: f64,
    /// Number of queries.
    pub num_queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's defaults: λ = 3, θ = 0.1, 10 000 queries.
    pub fn new(qi_pool: Vec<usize>, sa: usize) -> Self {
        WorkloadConfig {
            qi_pool,
            sa,
            lambda: 3,
            theta: 0.1,
            num_queries: 10_000,
            seed: 7,
        }
    }
}

/// Generates a deterministic workload per the module docs.
///
/// # Panics
///
/// Panics if `lambda` exceeds the pool size, `theta ∉ (0, 1)`, or the pool
/// contains the SA.
pub fn generate_workload(table: &Table, cfg: &WorkloadConfig) -> Vec<AggQuery> {
    assert!(
        cfg.lambda >= 1 && cfg.lambda <= cfg.qi_pool.len(),
        "bad lambda"
    );
    assert!(
        cfg.theta > 0.0 && cfg.theta < 1.0,
        "theta must be in (0, 1)"
    );
    assert!(
        !cfg.qi_pool.contains(&cfg.sa),
        "SA cannot be predicated as QI"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // Per-attribute range length: |A| · θ^{1/(λ+1)}, at least 1 cell,
    // at most the domain.
    let frac = cfg.theta.powf(1.0 / (cfg.lambda as f64 + 1.0));
    let mut out = Vec::with_capacity(cfg.num_queries);
    let mut pool = cfg.qi_pool.clone();
    for _ in 0..cfg.num_queries {
        pool.shuffle(&mut rng);
        let mut qi_preds: Vec<RangePred> = pool[..cfg.lambda]
            .iter()
            .map(|&attr| random_range(table, attr, frac, &mut rng))
            .collect();
        qi_preds.sort_by_key(|p| p.attr);
        let sa_pred = random_range(table, cfg.sa, frac, &mut rng);
        out.push(AggQuery { qi_preds, sa_pred });
    }
    out
}

fn random_range(table: &Table, attr: usize, frac: f64, rng: &mut ChaCha8Rng) -> RangePred {
    let card = table.schema().attr(attr).cardinality() as u32;
    let len = ((card as f64 * frac).round() as u32).clamp(1, card);
    let lo = rng.gen_range(0..=card - len);
    RangePred {
        attr,
        lo,
        hi: lo + len - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_microdata::census::{self, CensusConfig};
    use betalike_microdata::synthetic::{random_table, SyntheticConfig};

    #[test]
    fn workload_shape() {
        let t = census::generate(&CensusConfig::new(1_000, 1));
        let cfg = WorkloadConfig {
            qi_pool: vec![0, 1, 2, 3, 4],
            sa: 5,
            lambda: 3,
            theta: 0.1,
            num_queries: 50,
            seed: 3,
        };
        let w = generate_workload(&t, &cfg);
        assert_eq!(w.len(), 50);
        for q in &w {
            assert_eq!(q.qi_preds.len(), 3);
            // Distinct attributes, sorted, never the SA.
            let attrs: Vec<usize> = q.qi_preds.iter().map(|p| p.attr).collect();
            let mut sorted = attrs.clone();
            sorted.dedup();
            assert_eq!(attrs, sorted);
            assert!(!attrs.contains(&5));
            assert_eq!(q.sa_pred.attr, 5);
            // Ranges stay in-domain.
            for p in q.qi_preds.iter().chain([&q.sa_pred]) {
                let card = t.schema().attr(p.attr).cardinality() as u32;
                assert!(p.lo <= p.hi && p.hi < card);
            }
        }
    }

    #[test]
    fn range_lengths_follow_theta() {
        let t = census::generate(&CensusConfig::new(500, 2));
        let cfg = WorkloadConfig {
            qi_pool: vec![0],
            sa: 5,
            lambda: 1,
            theta: 0.25,
            num_queries: 10,
            seed: 4,
        };
        let w = generate_workload(&t, &cfg);
        // θ^{1/2} = 0.5: Age (79 values) ranges have length 40 (rounded).
        for q in &w {
            assert_eq!(q.qi_preds[0].len(), 40);
            assert_eq!(q.sa_pred.len(), 25); // 50 · 0.5
        }
    }

    #[test]
    fn deterministic_workloads() {
        let t = random_table(&SyntheticConfig::default());
        let cfg = WorkloadConfig {
            qi_pool: vec![0, 1],
            sa: 2,
            lambda: 2,
            theta: 0.1,
            num_queries: 20,
            seed: 9,
        };
        assert_eq!(generate_workload(&t, &cfg), generate_workload(&t, &cfg));
        let other = WorkloadConfig {
            seed: 10,
            ..cfg.clone()
        };
        assert_ne!(generate_workload(&t, &cfg), generate_workload(&t, &other));
    }

    #[test]
    fn achieved_selectivity_near_theta() {
        // On uniform synthetic data the realized mean selectivity should be
        // within a factor ~2 of θ.
        let t = random_table(&SyntheticConfig {
            rows: 20_000,
            qi_attrs: 2,
            qi_cardinality: 64,
            sa_cardinality: 16,
            seed: 5,
            ..Default::default()
        });
        let cfg = WorkloadConfig {
            qi_pool: vec![0, 1],
            sa: 2,
            lambda: 2,
            theta: 0.1,
            num_queries: 200,
            seed: 6,
        };
        let w = generate_workload(&t, &cfg);
        let mut mean = 0.0;
        for q in &w {
            let mut count = 0usize;
            'rows: for r in 0..t.num_rows() {
                for p in q.qi_preds.iter().chain([&q.sa_pred]) {
                    if !p.matches(t.value(r, p.attr)) {
                        continue 'rows;
                    }
                }
                count += 1;
            }
            mean += count as f64 / t.num_rows() as f64;
        }
        mean /= w.len() as f64;
        assert!((0.05..0.2).contains(&mean), "mean selectivity {mean}");
    }

    #[test]
    #[should_panic(expected = "bad lambda")]
    fn lambda_validation() {
        let t = random_table(&SyntheticConfig::default());
        let cfg = WorkloadConfig {
            qi_pool: vec![0],
            sa: 2,
            lambda: 2,
            theta: 0.1,
            num_queries: 1,
            seed: 0,
        };
        generate_workload(&t, &cfg);
    }
}
