//! Synthetic CENSUS dataset reproducing Table 3 of the paper.
//!
//! The paper evaluates on an IPUMS CENSUS extract of 500 000 tuples over six
//! attributes. That extract is not redistributable, so this module generates
//! a synthetic table with the **same schema** (names, types, cardinalities
//! and hierarchy heights as in Table 3) and the **same sensitive-value
//! frequency profile**: the least frequent salary class has frequency
//! ≈ 0.2018 % and the most frequent ≈ 4.8402 %, exactly the extremes the
//! paper reports for its dataset.
//!
//! | Attribute       | Cardinality | Type                    |
//! |-----------------|-------------|-------------------------|
//! | Age             | 79          | numerical               |
//! | Gender          | 2           | categorical (height 1)  |
//! | Education Level | 17          | numerical               |
//! | Marital Status  | 6           | categorical (height 2)  |
//! | Work Class      | 10          | categorical (height 3)  |
//! | Salary Class    | 50          | sensitive attribute     |
//!
//! Salary is *rank-coupled* to a latent score of age, education and work
//! class, so QI↔SA correlation exists (required for the aggregation-query
//! and Naïve-Bayes experiments to be meaningful), while its marginal is
//! matched to the target profile exactly via largest-remainder apportionment.
//!
//! Generation is fully deterministic given the seed.

use crate::distribution::largest_remainder_apportion;
use crate::hierarchy::{Hierarchy, NodeSpec};
use crate::schema::{Attribute, Schema};
use crate::table::Table;
use crate::Value;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Attribute indices of the CENSUS schema, in Table 3 order.
pub mod attr {
    /// Age (numeric, 79 values: 16..=94).
    pub const AGE: usize = 0;
    /// Gender (categorical, height-1 hierarchy).
    pub const GENDER: usize = 1;
    /// Education level (numeric, 17 values: 1..=17).
    pub const EDUCATION: usize = 2;
    /// Marital status (categorical, height-2 hierarchy, 6 leaves).
    pub const MARITAL: usize = 3;
    /// Work class (categorical, height-3 hierarchy, 10 leaves).
    pub const WORK_CLASS: usize = 4;
    /// Salary class (the sensitive attribute, 50 classes).
    pub const SALARY: usize = 5;
}

/// Number of salary classes (SA domain size in Table 3).
pub const SALARY_CLASSES: usize = 50;

/// Frequency of the least frequent salary class in the paper's dataset.
pub const MIN_SALARY_FREQ: f64 = 0.002018;

/// Frequency of the most frequent salary class in the paper's dataset.
pub const MAX_SALARY_FREQ: f64 = 0.048402;

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct CensusConfig {
    /// Number of tuples (the paper uses 100K–500K; default 500K).
    pub rows: usize,
    /// RNG seed; identical seeds produce identical tables.
    pub seed: u64,
    /// Fraction of tuples whose salary class is rank-coupled to the latent
    /// QI score; the rest draw independently from the marginal.
    ///
    /// Real census data shifts the salary distribution *regionally* while
    /// every class stays present everywhere; a pure rank coupling instead
    /// makes extreme classes locally exclusive, which no real population
    /// exhibits. The mixture bounds each class's local density below by
    /// `(1 − corr_mix) · p` while keeping strong aggregate correlation
    /// (default 0.8).
    pub corr_mix: f64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            rows: 500_000,
            seed: 42,
            corr_mix: 0.8,
        }
    }
}

impl CensusConfig {
    /// Convenience constructor with the default correlation mixture.
    pub fn new(rows: usize, seed: u64) -> Self {
        CensusConfig {
            rows,
            seed,
            ..Default::default()
        }
    }
}

fn marital_hierarchy() -> Hierarchy {
    Hierarchy::from_spec(&NodeSpec::internal(
        "any marital status",
        vec![
            NodeSpec::internal(
                "partnered",
                vec![NodeSpec::leaf("married"), NodeSpec::leaf("separated")],
            ),
            NodeSpec::internal(
                "formerly married",
                vec![NodeSpec::leaf("widowed"), NodeSpec::leaf("divorced")],
            ),
            NodeSpec::internal(
                "single",
                vec![
                    NodeSpec::leaf("never married"),
                    NodeSpec::leaf("domestic partner"),
                ],
            ),
        ],
    ))
    .expect("static hierarchy is valid")
}

fn work_class_hierarchy() -> Hierarchy {
    Hierarchy::from_spec(&NodeSpec::internal(
        "any work class",
        vec![
            NodeSpec::internal(
                "employed",
                vec![
                    NodeSpec::internal(
                        "private",
                        vec![
                            NodeSpec::leaf("private for-profit"),
                            NodeSpec::leaf("private non-profit"),
                        ],
                    ),
                    NodeSpec::internal(
                        "government",
                        vec![
                            NodeSpec::leaf("federal"),
                            NodeSpec::leaf("state"),
                            NodeSpec::leaf("local"),
                        ],
                    ),
                ],
            ),
            NodeSpec::internal(
                "self-employed",
                vec![NodeSpec::internal(
                    "own business",
                    vec![
                        NodeSpec::leaf("incorporated"),
                        NodeSpec::leaf("unincorporated"),
                    ],
                )],
            ),
            NodeSpec::internal(
                "not working",
                vec![
                    NodeSpec::internal(
                        "jobless",
                        vec![NodeSpec::leaf("unemployed"), NodeSpec::leaf("never worked")],
                    ),
                    NodeSpec::internal("service", vec![NodeSpec::leaf("military")]),
                ],
            ),
        ],
    ))
    .expect("static hierarchy is valid")
}

/// The CENSUS schema of Table 3 (salary class is the default SA).
pub fn census_schema() -> Arc<Schema> {
    let age = Attribute::numeric_range("Age", 16, 94).expect("static domain");
    let gender = Attribute::categorical(
        "Gender",
        Hierarchy::flat("person", &["male", "female"]).expect("static hierarchy"),
    );
    let education = Attribute::numeric_range("Education", 1, 17).expect("static domain");
    let marital = Attribute::categorical("Marital", marital_hierarchy());
    let work = Attribute::categorical("WorkClass", work_class_hierarchy());
    let salary =
        Attribute::numeric_range("SalaryClass", 0, SALARY_CLASSES as i64 - 1).expect("static");
    Arc::new(
        Schema::new(
            vec![age, gender, education, marital, work, salary],
            attr::SALARY,
        )
        .expect("static schema is valid"),
    )
}

/// Target marginal for the salary class: a discretized Gaussian bell with an
/// additive floor, calibrated so that the minimum frequency is
/// [`MIN_SALARY_FREQ`] and the maximum is [`MAX_SALARY_FREQ`].
pub fn target_salary_marginal() -> Vec<f64> {
    let m = SALARY_CLASSES;
    let center = (m as f64 - 1.0) / 2.0;

    // For a fixed Gaussian width, the floor `c` and normalizer `S` are pinned
    // by the min/max frequency constraints:
    //   (u_max + c)/S = MAX_SALARY_FREQ,  (u_min + c)/S = MIN_SALARY_FREQ.
    // The remaining constraint, Σ f_i = 1, is solved for the width by
    // bisection (the sum is monotone increasing in sigma).
    let eval = |sigma: f64| -> (Vec<f64>, f64) {
        let shape: Vec<f64> = (0..m)
            .map(|i| (-0.5 * ((i as f64 - center) / sigma).powi(2)).exp())
            .collect();
        let u_max = shape.iter().copied().fold(f64::MIN, f64::max);
        let u_min = shape.iter().copied().fold(f64::MAX, f64::min);
        let s = (u_max - u_min) / (MAX_SALARY_FREQ - MIN_SALARY_FREQ);
        let c = MAX_SALARY_FREQ * s - u_max;
        let freqs: Vec<f64> = shape.iter().map(|&u| (u + c) / s).collect();
        let sum: f64 = freqs.iter().sum();
        (freqs, sum)
    };

    let (mut lo, mut hi) = (3.0f64, 20.0f64);
    debug_assert!(eval(lo).1 < 1.0 && eval(hi).1 > 1.0);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if eval(mid).1 < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (freqs, sum) = eval(0.5 * (lo + hi));
    debug_assert!((sum - 1.0).abs() < 1e-9);
    debug_assert!(freqs.iter().all(|&f| f >= MIN_SALARY_FREQ - 1e-9));
    freqs
}

/// Standard normal sample via Box–Muller (four keystream words).
fn randn(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples an index proportionally to `weights` (need not be normalized),
/// whose sum is `total` (two keystream words).
fn sample_weighted(rng: &mut ChaCha8Rng, weights: &[f64], total: f64) -> usize {
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Marital-status weights per age, in leaf order
/// (married, separated, widowed, divorced, never married, domestic partner).
fn marital_weights(age: u32) -> [f64; 6] {
    match age {
        0..=21 => [0.05, 0.01, 0.005, 0.01, 0.90, 0.025],
        22..=34 => [0.45, 0.03, 0.01, 0.06, 0.35, 0.10],
        35..=59 => [0.60, 0.04, 0.04, 0.14, 0.10, 0.08],
        _ => [0.55, 0.02, 0.25, 0.10, 0.04, 0.04],
    }
}

/// Work-class weights per (age, education), in leaf order.
fn work_class_weights(age: u32, edu: u32) -> [f64; 10] {
    let mut w: [f64; 10] = [0.40, 0.08, 0.04, 0.06, 0.08, 0.04, 0.08, 0.12, 0.06, 0.04];
    if age < 22 {
        w[7] += 0.15; // unemployed
        w[8] += 0.25; // never worked
        w[0] -= 0.20;
    }
    if age > 65 {
        w[7] += 0.20;
        w[0] -= 0.15;
    }
    if edu >= 14 {
        w[2] += 0.06; // federal
        w[5] += 0.08; // incorporated self-employment
        w[8] = (w[8] - 0.04).max(0.005);
    }
    for x in &mut w {
        *x = x.max(0.005);
    }
    w
}

/// Deterministic per-cell jitter in roughly `[-1, 1]` (triangular), keyed
/// by the generator seed and the demographic cell. Splitmix64 finalizer.
fn cell_jitter(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(a.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(b.wrapping_mul(0x94D049BB133111EB))
        .wrapping_add(c.wrapping_mul(0xD6E8FEB86659FD93));
    let mut next = || {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    next() + next() - 1.0
}

/// The latent salary score of a row without its per-row noise: the row's
/// score is this plus `0.15 · randn`. Salary classes are assigned by the
/// rank of the score among the coupled rows, so the mapping is monotone in
/// the score while the marginal stays fixed.
///
/// The dominant noise term is **per demographic cell** (age band ×
/// education × work class), not per row: in real census microdata, people
/// sharing a cell cluster on the same few salary classes. This cell-level
/// clumpiness is what makes locality-driven partitioners (Mondrian) collide
/// with distribution constraints — the effect the paper's Figures 5–8
/// measure — while BUREL, which assembles ECs by composition, is
/// unaffected.
fn salary_score_prefix(seed: u64, age: u32, edu: u32, work: usize) -> f64 {
    // Cell-keyed, *level-quantized* jitter: every fine demographic cell
    // (age six-band x education x work class) is assigned one of five
    // salary levels, mimicking occupation-driven salary bands. Because the
    // level of a cell is (pseudo-)independent of its neighbours, the same
    // few levels dominate every QI neighbourhood while no axis-aligned cut
    // can isolate them - the local skew that blocks Mondrian-style
    // partitioners on real census data (Figures 5-8 of the paper) without
    // introducing macro-scale distribution drift.
    const SECTOR_EFFECT: [f64; 3] = [0.35, 0.60, -1.50];
    let sector = match work {
        0..=4 => 0usize,
        5 | 6 => 1,
        _ => 2,
    };
    let edu_score = (edu as f64 - 9.0) / 4.0;
    let age_score = 1.0 - ((age as f64 - 52.0) / 20.0).powi(2);
    let raw = cell_jitter(seed, (age / 6) as u64, edu as u64, work as u64);
    let level = (raw * 2.0).round() / 2.0; // five levels in {-1,...,1}
    0.45 * edu_score + 0.3 * age_score + 0.4 * SECTOR_EFFECT[sector] + 1.1 * level
}

/// Rows per generation chunk; chunks run in parallel on the
/// [`mini_rayon`] pool.
const ROW_CHUNK: usize = 4_096;

/// Keystream words one row consumes: three Box–Muller normals (4 words
/// each), one `gen_bool` and two weighted draws (2 words each). The count
/// is fixed, so the draws of row `r` start at word `18 · r` and a chunk
/// can seek straight to its first row.
const WORDS_PER_ROW: u128 = 18;

/// Age codes (ages 16..=94).
const AGES: usize = 79;
/// Education codes (levels 1..=17).
const EDUS: usize = 17;
/// Work-class codes.
const WORKS: usize = 10;

/// Everything a row draws against that depends only on its age,
/// education and work class, computed once per [`generate`] call with the
/// same expressions (and so the same bits) a per-row evaluation gives.
struct RowTerms {
    /// `edu_mu` per age code.
    edu_mu: [f64; AGES],
    /// Marital weights and their sum per age code.
    marital: [([f64; 6], f64); AGES],
    /// Work-class weights and their sum per `age · EDUS + edu` code.
    work: Vec<([f64; 10], f64)>,
    /// [`salary_score_prefix`] per `(age · EDUS + edu) · WORKS + work`
    /// code.
    score_prefix: Vec<f64>,
}

impl RowTerms {
    fn new(seed: u64) -> Self {
        let weighted = |w: [f64; 10]| (w, w.iter().sum::<f64>());
        let mut work = Vec::with_capacity(AGES * EDUS);
        let mut score_prefix = Vec::with_capacity(AGES * EDUS * WORKS);
        for age in 16..16 + AGES as u32 {
            for edu in 1..1 + EDUS as u32 {
                work.push(weighted(work_class_weights(age, edu)));
                for w in 0..WORKS {
                    score_prefix.push(salary_score_prefix(seed, age, edu, w));
                }
            }
        }
        RowTerms {
            edu_mu: std::array::from_fn(|a| {
                let age = (a + 16) as f64;
                6.0 + 8.0 * (((age - 16.0) / 30.0).clamp(0.0, 1.0))
            }),
            marital: std::array::from_fn(|a| {
                let w = marital_weights(a as u32 + 16);
                (w, w.iter().sum())
            }),
            work,
            score_prefix,
        }
    }
}

/// The QI columns and latent salary scores of one chunk of rows.
#[derive(Default)]
struct RowChunk {
    age: Vec<Value>,
    gender: Vec<Value>,
    edu: Vec<Value>,
    marital: Vec<Value>,
    work: Vec<Value>,
    scores: Vec<f64>,
}

/// Draws `len` rows from `rng`, which sits at the first row's keystream
/// word; each row consumes exactly [`WORDS_PER_ROW`] words.
fn draw_rows(rng: &mut ChaCha8Rng, terms: &RowTerms, len: usize) -> RowChunk {
    let mut out = RowChunk {
        age: Vec::with_capacity(len),
        gender: Vec::with_capacity(len),
        edu: Vec::with_capacity(len),
        marital: Vec::with_capacity(len),
        work: Vec::with_capacity(len),
        scores: Vec::with_capacity(len),
    };
    for _ in 0..len {
        let age = (40.0 + 15.0 * randn(rng)).round().clamp(16.0, 94.0) as usize - 16;
        let gender = Value::from(rng.gen_bool(0.5));
        let edu = (terms.edu_mu[age] + 3.0 * randn(rng))
            .round()
            .clamp(1.0, 17.0) as usize
            - 1;
        let (weights, total) = &terms.marital[age];
        let marital = sample_weighted(rng, weights, *total);
        let cell = age * EDUS + edu;
        let (weights, total) = &terms.work[cell];
        let work = sample_weighted(rng, weights, *total);
        out.scores
            .push(terms.score_prefix[cell * WORKS + work] + 0.15 * randn(rng));
        out.age.push(age as Value);
        out.gender.push(gender);
        out.edu.push(edu as Value);
        out.marital.push(marital as Value);
        out.work.push(work as Value);
    }
    out
}

/// `f64::total_cmp` as an unsigned key: flipping every bit of a negative
/// value and the sign bit of a positive one makes the bit patterns sort
/// like the floats.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// Generates a CENSUS table per the module docs.
///
/// Rows are drawn in chunks of [`ROW_CHUNK`] across the [`mini_rayon`]
/// pool. Each chunk seeks its own clone of the seeded generator to its
/// first row's keystream word ([`WORDS_PER_ROW`] per row), so the table is
/// bit-identical to a one-row-at-a-time draw at any thread count.
///
/// # Panics
///
/// Panics if `cfg.rows == 0`.
pub fn generate(cfg: &CensusConfig) -> Table {
    assert!(cfg.rows > 0, "cannot generate an empty CENSUS table");
    let schema = census_schema();
    let n = cfg.rows;
    let seeded = ChaCha8Rng::seed_from_u64(cfg.seed);
    let terms = RowTerms::new(cfg.seed);

    let starts: Vec<usize> = (0..n).step_by(ROW_CHUNK).collect();
    let chunks = mini_rayon::par_map(&starts, |&lo| {
        let mut rng = seeded.clone();
        rng.set_word_pos(WORDS_PER_ROW * lo as u128);
        let len = ROW_CHUNK.min(n - lo);
        let chunk = draw_rows(&mut rng, &terms, len);
        debug_assert_eq!(rng.get_word_pos(), WORDS_PER_ROW * (lo + len) as u128);
        chunk
    });
    let mut rows = RowChunk::default();
    for chunk in chunks {
        rows.age.extend(chunk.age);
        rows.gender.extend(chunk.gender);
        rows.edu.extend(chunk.edu);
        rows.marital.extend(chunk.marital);
        rows.work.extend(chunk.work);
        rows.scores.extend(chunk.scores);
    }
    // The salary draws continue the keystream after the last row.
    let mut rng = seeded;
    rng.set_word_pos(WORDS_PER_ROW * n as u128);

    // Salary assignment: an exact-marginal mixture of a rank coupling (the
    // `corr_mix` fraction of rows, sorted by latent score) and independent
    // draws (the rest, a random permutation of the leftover class
    // multiset). See `CensusConfig::corr_mix`.
    let marginal = target_salary_marginal();
    let counts = largest_remainder_apportion(n as u64, &marginal);
    let mix = cfg.corr_mix.clamp(0.0, 1.0);

    // Membership: an exact-count random subset of rows is coupled.
    let coupled_target = (n as f64 * mix).round() as usize;
    let mut membership: Vec<usize> = (0..n).collect();
    membership.shuffle(&mut rng);
    let mut is_coupled = vec![false; n];
    for &r in membership.iter().take(coupled_target) {
        is_coupled[r] = true;
    }

    // Split each class's count between the groups, clamping so neither
    // group is over-assigned, then repair any deficit greedily.
    let mut coupled_counts = largest_remainder_apportion(coupled_target as u64, &marginal);
    for (c, count) in coupled_counts.iter_mut().enumerate() {
        *count = (*count).min(counts[c]);
    }
    let mut deficit = coupled_target as u64 - coupled_counts.iter().sum::<u64>();
    while deficit > 0 {
        let (best, _) = counts
            .iter()
            .zip(&coupled_counts)
            .enumerate()
            .map(|(c, (&tot, &cp))| (c, tot - cp))
            .max_by_key(|&(_, spare)| spare)
            .expect("non-empty domain");
        coupled_counts[best] += 1;
        deficit -= 1;
    }

    let mut salary_col = vec![0 as Value; n];
    // Coupled rows: ascending latent score -> ascending salary class, ties
    // broken by row (the pairs are unique, so an unstable sort is exact).
    let mut coupled: Vec<(u64, usize)> = (0..n)
        .filter(|&r| is_coupled[r])
        .map(|r| (total_order_key(rows.scores[r]), r))
        .collect();
    coupled.sort_unstable();
    let mut cursor = 0usize;
    for (class, &count) in coupled_counts.iter().enumerate() {
        for _ in 0..count {
            salary_col[coupled[cursor].1] = class as Value;
            cursor += 1;
        }
    }
    debug_assert_eq!(cursor, coupled.len());

    // Independent rows: a seeded random permutation of the leftover
    // multiset.
    let mut leftover: Vec<Value> = Vec::with_capacity(n - coupled.len());
    for (class, (&total, &coupled)) in counts.iter().zip(&coupled_counts).enumerate() {
        for _ in 0..(total - coupled) {
            leftover.push(class as Value);
        }
    }
    leftover.shuffle(&mut rng);
    let mut li = 0usize;
    for (r, flag) in is_coupled.iter().enumerate() {
        if !flag {
            salary_col[r] = leftover[li];
            li += 1;
        }
    }
    debug_assert_eq!(li, leftover.len());

    Table::from_columns(
        schema,
        vec![
            rows.age,
            rows.gender,
            rows.edu,
            rows.marital,
            rows.work,
            salary_col,
        ],
    )
    .expect("generated columns conform to the schema")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_table3() {
        let s = census_schema();
        assert_eq!(s.arity(), 6);
        let cards = [79, 2, 17, 6, 10, 50];
        for (i, &c) in cards.iter().enumerate() {
            assert_eq!(s.attr(i).cardinality(), c, "attribute {i}");
        }
        assert_eq!(s.attr(attr::GENDER).hierarchy().unwrap().height(), 1);
        assert_eq!(s.attr(attr::MARITAL).hierarchy().unwrap().height(), 2);
        assert_eq!(s.attr(attr::WORK_CLASS).hierarchy().unwrap().height(), 3);
        assert_eq!(s.default_sa(), attr::SALARY);
        assert!(s.attr(attr::AGE).is_numeric());
        assert!(s.attr(attr::EDUCATION).is_numeric());
    }

    #[test]
    fn marginal_calibrated_to_paper_extremes() {
        let m = target_salary_marginal();
        assert_eq!(m.len(), SALARY_CLASSES);
        let sum: f64 = m.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "marginal sums to {sum}");
        let max = m.iter().copied().fold(f64::MIN, f64::max);
        let min = m.iter().copied().fold(f64::MAX, f64::min);
        assert!((max - MAX_SALARY_FREQ).abs() < 1e-9);
        assert!((min - MIN_SALARY_FREQ).abs() < 1e-9);
    }

    /// Generation is a pure function of (rows, seed): the same config yields
    /// byte-identical columns, and a different seed yields different data.
    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&CensusConfig::new(2_000, 42));
        let b = generate(&CensusConfig::new(2_000, 42));
        let c = generate(&CensusConfig::new(2_000, 43));
        assert_eq!(a.num_rows(), 2_000);
        for i in 0..a.schema().arity() {
            assert_eq!(a.column(i), b.column(i), "column {i} differs across runs");
        }
        assert!(
            (0..a.schema().arity()).any(|i| a.column(i) != c.column(i)),
            "different seeds must produce different tables"
        );
    }

    #[test]
    fn generated_marginal_matches_target() {
        let t = generate(&CensusConfig::new(50_000, 7));
        let d = t.sa_distribution(attr::SALARY);
        assert_eq!(d.support_size(), SALARY_CLASSES, "all classes occur");
        let target = target_salary_marginal();
        for (i, &p) in target.iter().enumerate() {
            let got = d.freq(i as u32);
            assert!(
                (got - p).abs() < 1.0 / 50_000.0 + 1e-9,
                "class {i}: got {got}, want {p}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&CensusConfig::new(2_000, 5));
        let b = generate(&CensusConfig::new(2_000, 5));
        let c = generate(&CensusConfig::new(2_000, 6));
        for attr_ix in 0..6 {
            assert_eq!(a.column(attr_ix), b.column(attr_ix));
        }
        assert!((0..6).any(|i| a.column(i) != c.column(i)));
    }

    #[test]
    fn salary_correlates_with_education() {
        let t = generate(&CensusConfig::new(20_000, 11));
        let edu = t.column(attr::EDUCATION);
        let sal = t.column(attr::SALARY);
        let mut hi_sum = 0.0;
        let mut hi_n = 0.0;
        let mut lo_sum = 0.0;
        let mut lo_n = 0.0;
        for (&e, &s) in edu.iter().zip(sal) {
            if e >= 12 {
                hi_sum += s as f64;
                hi_n += 1.0;
            } else if e <= 4 {
                lo_sum += s as f64;
                lo_n += 1.0;
            }
        }
        assert!(hi_n > 100.0 && lo_n > 100.0);
        assert!(
            hi_sum / hi_n > lo_sum / lo_n + 3.0,
            "education must push salary class up (hi {}, lo {})",
            hi_sum / hi_n,
            lo_sum / lo_n
        );
    }

    #[test]
    fn values_stay_in_domain() {
        let t = generate(&CensusConfig::new(5_000, 3));
        for a in 0..6 {
            let card = t.schema().attr(a).cardinality() as u32;
            assert!(t.column(a).iter().all(|&v| v < card));
        }
    }
}
