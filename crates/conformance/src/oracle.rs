//! The from-first-principles β-likeness verifier.
//!
//! Everything here is re-derived from raw rows using only
//! `betalike-microdata` data access (columns, schema, hierarchy
//! navigation) and `betalike-store` decoding — deliberately **not**
//! [`betalike_metrics::audit`] or the `betalike` (core) model/perturbation
//! code, so a shared bug cannot pass silently. The formulas are taken from
//! the paper, not from the workspace:
//!
//! * the enhanced β bound (Definition 3 / Equation 1): an EC distribution
//!   `Q` is acceptable against the table distribution `P` iff
//!   `q_i ≤ (1 + min{β, −ln p_i}) · p_i` for every value;
//! * the relative gain `(q_i − p_i)/p_i` whose maximum is the "real β";
//! * information loss (Equations 2–5): numeric span over domain span,
//!   hierarchy-subtree leaf share, equal attribute weights, size-weighted
//!   average;
//! * the perturbation invariants (Section 5 / Theorems 2–3): published
//!   priors equal the table's SA frequencies, posterior caps equal
//!   `f(p_i)`, amplification factors equal `(ρ2/ρ1)(1−ρ1)/(1−ρ2)`, the
//!   worst-case posterior implied by the retention probabilities stays
//!   under every cap, and the randomized column stays inside the support.
//!
//! When the artifact carries a publish-time audit, the oracle recomputes
//! all ten of its fields and demands **bit-for-bit** agreement: both sides
//! evaluate the same textbook formulas in their natural left-to-right
//! order, so any divergence is a real bug in one of them (or a tampered
//! claim), not floating-point noise. The cross-validation test in
//! `tests/cross_validation.rs` pins this equivalence on every seeded
//! dataset.

use crate::report::OracleReport;
use betalike_metrics::audit::PartitionAudit;
use betalike_microdata::hash::fnv1a64;
use betalike_microdata::{AttrKind, Table};
use betalike_store::{FormSnapshot, PublicationSnapshot, StoreError};

/// Tolerance for the worst-case-posterior check of the perturbation form —
/// the plan construction itself verifies against `cap + 1e-12`, so the
/// oracle allows the same slack.
const POSTERIOR_EPS: f64 = 1e-12;

/// Tolerance for `achieved β ≤ claimed β`: the per-value cap check is
/// exact; this derived comparison only guards against gross skew.
const ACHIEVED_EPS: f64 = 1e-9;

// ---------------------------------------------------------------------------
// Independent distribution arithmetic.
// ---------------------------------------------------------------------------

/// Histogram of `col[r]` over `rows` (or the whole column), counted here
/// rather than through `SaDistribution`.
fn counts_of(col: &[u32], rows: Option<&[u32]>, m: usize) -> Vec<u64> {
    let mut counts = vec![0u64; m];
    match rows {
        None => {
            for &v in col {
                counts[v as usize] += 1;
            }
        }
        Some(rows) => {
            for &r in rows {
                counts[col[r as usize] as usize] += 1;
            }
        }
    }
    counts
}

/// Frequencies `p_i = N_i / total`.
fn freqs_of(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// The enhanced-bound EC-frequency cap `f(p) = (1 + min{β, −ln p}) · p`
/// (Equation 1). `f(0) = 0`: a value absent from the table may not appear
/// in any EC. Shared with the (harness-side) battery so the bound the
/// attacks are asserted against is the bound the oracle enforces.
pub(crate) fn enhanced_cap(beta: f64, p: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else {
        (1.0 + beta.min(-p.ln())) * p
    }
}

/// Max relative gain `max_i (q_i − p_i)/p_i` over values that gain; `+∞`
/// when a value with `p_i = 0` appears.
fn max_gain(p: &[f64], q: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if qi > pi {
            if pi <= 0.0 {
                return f64::INFINITY;
            }
            worst = worst.max((qi - pi) / pi);
        }
    }
    worst
}

/// Equal-distance EMD (total variation): `½ Σ |p_i − q_i|`.
fn emd_equal(p: &[f64], q: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (&a, &b) in p.iter().zip(q) {
        sum += (a - b).abs();
    }
    0.5 * sum
}

/// δ-disclosure reading: `max_i |ln(q_i/p_i)|` over values with `p_i > 0`,
/// `+∞` when such a value is absent from the EC.
fn delta_reading(p: &[f64], q: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            if qi <= 0.0 {
                return f64::INFINITY;
            }
            worst = worst.max((qi / pi).ln().abs());
        }
    }
    worst
}

/// `1 / max_i q_i` (probabilistic ℓ-diversity), 0 for an empty histogram.
fn inv_max_freq(q: &[f64]) -> f64 {
    let mut max = 0.0f64;
    for &f in q {
        max = max.max(f);
    }
    if max > 0.0 {
        1.0 / max
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Independent information loss (Equations 2–5).
// ---------------------------------------------------------------------------

/// Information loss of one attribute over a row set: numeric span over the
/// domain span, or the leaf share of the hierarchy subtree the extent
/// generalizes to (0 for a single value).
fn attr_loss(table: &Table, attr: usize, rows: &[u32]) -> f64 {
    let col = table.column(attr);
    let mut it = rows.iter().map(|&r| col[r as usize]);
    let Some(first) = it.next() else {
        return 0.0;
    };
    let (mut lo, mut hi) = (first, first);
    for v in it {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    match table.schema().attr(attr).kind() {
        AttrKind::Numeric { values } => {
            let full = values[values.len() - 1] - values[0];
            if full == 0.0 {
                0.0
            } else {
                (values[hi as usize] - values[lo as usize]) / full
            }
        }
        AttrKind::Categorical { hierarchy } => {
            // Own LCA walk: climb from the low leaf until the subtree's
            // pre-order leaf range covers the high leaf.
            let mut node = hierarchy.leaf_node(lo);
            while hierarchy.leaf_range(node).1 < hi {
                node = hierarchy.parent(node).expect("root covers all leaves");
            }
            let covered = hierarchy.leaves_under(node);
            if covered == 1 {
                0.0
            } else {
                covered as f64 / hierarchy.num_leaves() as f64
            }
        }
    }
}

/// Average information loss (Equation 5) with equal attribute weights.
fn average_info_loss(table: &Table, qi: &[usize], ecs: &[Vec<u32>]) -> f64 {
    let total: usize = ecs.iter().map(Vec::len).sum();
    if total == 0 || qi.is_empty() {
        return 0.0;
    }
    let w = 1.0 / qi.len() as f64;
    let mut sum = 0.0;
    for ec in ecs {
        let mut il = 0.0;
        for &a in qi {
            il += w * attr_loss(table, a, ec);
        }
        sum += ec.len() as f64 * il;
    }
    sum / total as f64
}

// ---------------------------------------------------------------------------
// Generalized publications.
// ---------------------------------------------------------------------------

/// The per-EC readings the oracle reduces over (mirrors the shape of the
/// published audit so the cross-check can be field-for-field).
struct EcReading {
    gain: f64,
    closeness: f64,
    distinct: usize,
    inv_max_freq: f64,
    delta: f64,
    size: usize,
}

/// Verifies a generalization-based publication from its raw parts.
///
/// `beta` is the claimed bound (`None` for schemes without one, e.g.
/// SABRE: the β checks are skipped but cover, audit cross-validation and
/// loss accounting still run). `stored_audit` is the publish-time audit to
/// cross-validate bit-for-bit, if the artifact carries one.
pub fn verify_generalized(
    table: &Table,
    qi: &[usize],
    sa: usize,
    beta: Option<f64>,
    ecs: &[Vec<u32>],
    stored_audit: Option<&PartitionAudit>,
) -> OracleReport {
    let mut report = OracleReport::new("generalized", table.num_rows());
    report.num_ecs = Some(ecs.len());
    report.claimed_beta = beta;

    // Structural validity first: attribute roles, then the cover.
    let arity = table.schema().arity();
    let roles_ok = sa < arity && qi.iter().all(|&a| a < arity) && !qi.contains(&sa);
    report.check(
        "attr-roles",
        roles_ok,
        format!("sa={sa}, qi={qi:?}, arity={arity}"),
    );
    if !roles_ok {
        return report;
    }

    let empty_ecs = ecs.iter().filter(|ec| ec.is_empty()).count();
    report.check(
        "ecs-nonempty",
        empty_ecs == 0,
        if empty_ecs == 0 {
            format!("{} non-empty ECs", ecs.len())
        } else {
            format!("{empty_ecs} empty EC(s)")
        },
    );

    let n = table.num_rows();
    // Range-check every id before anything indexes by one: the duplicate
    // and coverage checks below stop at their first finding.
    let out_of_range = ecs.iter().enumerate().find_map(|(i, ec)| {
        ec.iter()
            .find(|&&r| r as usize >= n)
            .map(|r| format!("EC {i} references row {r} >= {n}"))
    });
    let rows_in_range = out_of_range.is_none();
    let cover_problem = out_of_range.or_else(|| {
        let mut seen = vec![false; n];
        for &r in ecs.iter().flatten() {
            if std::mem::replace(&mut seen[r as usize], true) {
                return Some(format!("row {r} occurs in more than one EC"));
            }
        }
        seen.iter()
            .position(|&s| !s)
            .map(|missing| format!("row {missing} is not covered by any EC"))
    });
    report.check(
        "cover",
        cover_problem.is_none(),
        cover_problem.unwrap_or_else(|| format!("{n} rows covered exactly once")),
    );
    if !rows_in_range {
        // Per-EC distributions are not even well-defined; stop before
        // indexing out of the table.
        return report;
    }

    // Distributions: table P, per-EC Q, all counted here.
    let col = table.column(sa);
    let m = table.schema().attr(sa).cardinality();
    let p = freqs_of(&counts_of(col, None, m));

    // One histogram pass per EC feeds every reading *and* the β bound —
    // the per-EC scan dominates the oracle's cost on large artifacts.
    let mut violation = None;
    let readings: Vec<EcReading> = ecs
        .iter()
        .enumerate()
        .map(|(i, ec)| {
            let q = freqs_of(&counts_of(col, Some(ec), m));
            // The β bound (Definition 3), checked per value while the
            // histogram is hot.
            if let Some(beta) = beta {
                if violation.is_none() {
                    for (v, (&pv, &qv)) in p.iter().zip(&q).enumerate() {
                        if qv > pv && qv > enhanced_cap(beta, pv) {
                            violation = Some(format!(
                                "EC {i}: value {v} at frequency {qv:.6} exceeds its cap \
                                 {:.6} (table frequency {pv:.6}, beta {beta})",
                                enhanced_cap(beta, pv)
                            ));
                            break;
                        }
                    }
                }
            }
            let distinct = q.iter().filter(|&&f| f > 0.0).count();
            EcReading {
                gain: max_gain(&p, &q),
                closeness: emd_equal(&p, &q),
                distinct,
                inv_max_freq: inv_max_freq(&q),
                delta: delta_reading(&p, &q),
                size: ec.len(),
            }
        })
        .collect();

    if let Some(beta) = beta {
        report.check(
            "beta-bound",
            violation.is_none(),
            violation.unwrap_or_else(|| {
                format!("every value in every EC under its Equation-1 cap at beta {beta}")
            }),
        );
    }

    // The headline numbers, reduced in EC order (the natural evaluation
    // order, which is also what makes the bit-for-bit audit cross-check
    // possible).
    let mut achieved: f64 = 0.0;
    let mut avg_gain = 0.0;
    let mut max_closeness: f64 = 0.0;
    let mut avg_closeness = 0.0;
    let mut min_distinct = usize::MAX;
    let mut avg_distinct = 0.0;
    let mut min_inv = f64::INFINITY;
    let mut max_delta: f64 = 0.0;
    let mut min_size = usize::MAX;
    for r in &readings {
        achieved = achieved.max(r.gain);
        avg_gain += r.gain;
        max_closeness = max_closeness.max(r.closeness);
        avg_closeness += r.closeness;
        min_distinct = min_distinct.min(r.distinct);
        avg_distinct += r.distinct as f64;
        min_inv = min_inv.min(r.inv_max_freq);
        max_delta = max_delta.max(r.delta);
        min_size = min_size.min(r.size);
    }
    if readings.is_empty() {
        min_distinct = 0;
        min_inv = 0.0;
        min_size = 0;
    } else {
        let k = readings.len() as f64;
        avg_gain /= k;
        avg_closeness /= k;
        avg_distinct /= k;
    }
    report.achieved_beta = Some(achieved);
    report.avg_info_loss = Some(average_info_loss(table, qi, ecs));

    if let Some(beta) = beta {
        report.check(
            "achieved-beta",
            achieved <= beta + ACHIEVED_EPS,
            format!("achieved beta {achieved:.6} vs claimed {beta}"),
        );
    }

    // Bit-for-bit cross-validation of the publish-time audit.
    if let Some(audit) = stored_audit {
        let mut mismatches = Vec::new();
        let mut float = |name: &str, stored: f64, recomputed: f64| {
            if stored.to_bits() != recomputed.to_bits() {
                mismatches.push(format!("{name}: stored {stored}, recomputed {recomputed}"));
            }
        };
        float("max_beta", audit.max_beta, achieved);
        float("avg_beta", audit.avg_beta, avg_gain);
        float("max_closeness", audit.max_closeness, max_closeness);
        float("avg_closeness", audit.avg_closeness, avg_closeness);
        float("avg_distinct_l", audit.avg_distinct_l, avg_distinct);
        float("min_inv_max_freq_l", audit.min_inv_max_freq_l, min_inv);
        float("max_delta", audit.max_delta, max_delta);
        for (name, stored, recomputed) in [
            ("min_distinct_l", audit.min_distinct_l, min_distinct),
            ("min_ec_size", audit.min_ec_size, min_size),
            ("num_ecs", audit.num_ecs, ecs.len()),
        ] {
            if stored != recomputed {
                mismatches.push(format!("{name}: stored {stored}, recomputed {recomputed}"));
            }
        }
        report.check(
            "audit-match",
            mismatches.is_empty(),
            if mismatches.is_empty() {
                "all 10 stored audit fields recomputed bit-identically".to_string()
            } else {
                mismatches.join("; ")
            },
        );
    }

    report
}

// ---------------------------------------------------------------------------
// Perturbation publications.
// ---------------------------------------------------------------------------

/// Verifies a perturbation publication's stored parts against the source
/// table: the plan's distribution invariants (Section 5) and the
/// randomized column's membership and statistical plausibility.
#[allow(clippy::too_many_arguments)] // mirrors the stored form's series
pub fn verify_perturbed(
    table: &Table,
    sa: usize,
    beta: f64,
    sa_column: &[u32],
    support: &[u32],
    priors: &[f64],
    caps: &[f64],
    gammas: &[f64],
    alphas: &[f64],
) -> OracleReport {
    let mut report = OracleReport::new("perturbed", table.num_rows());
    report.claimed_beta = Some(beta);

    let arity = table.schema().arity();
    report.check("attr-roles", sa < arity, format!("sa={sa}, arity={arity}"));
    if sa >= arity {
        return report;
    }

    let m = support.len();
    let aligned = priors.len() == m && caps.len() == m && gammas.len() == m && alphas.len() == m;
    report.check(
        "series-aligned",
        aligned,
        format!(
            "support {m}, priors {}, caps {}, gammas {}, alphas {}",
            priors.len(),
            caps.len(),
            gammas.len(),
            alphas.len()
        ),
    );
    if !aligned {
        return report;
    }

    // The support must be exactly the table's non-zero SA values,
    // ascending.
    let col = table.column(sa);
    let domain = table.schema().attr(sa).cardinality();
    let counts = counts_of(col, None, domain);
    let expected_support: Vec<u32> = (0..domain as u32)
        .filter(|&v| counts[v as usize] > 0)
        .collect();
    report.check(
        "support-matches-table",
        support == expected_support.as_slice(),
        format!(
            "published support has {m} values, table has {} with non-zero count",
            expected_support.len()
        ),
    );
    if support != expected_support.as_slice() {
        return report;
    }

    // Priors are the table frequencies, bit-for-bit.
    let total: u64 = counts.iter().sum();
    let mut prior_mismatch = None;
    for (i, &v) in support.iter().enumerate() {
        let expected = counts[v as usize] as f64 / total as f64;
        if priors[i].to_bits() != expected.to_bits() {
            prior_mismatch = Some(format!(
                "prior[{i}] (value {v}): published {}, table frequency {expected}",
                priors[i]
            ));
            break;
        }
    }
    report.check(
        "priors-exact",
        prior_mismatch.is_none(),
        prior_mismatch.unwrap_or_else(|| format!("{m} priors equal the table frequencies")),
    );

    // Caps and amplification factors follow Equation 1 / Theorem 2,
    // bit-for-bit.
    let mut formula_mismatch = None;
    for i in 0..m {
        let p = priors[i];
        let cap = enhanced_cap(beta, p);
        if caps[i].to_bits() != cap.to_bits() {
            formula_mismatch = Some(format!("cap[{i}]: published {}, f(p) = {cap}", caps[i]));
            break;
        }
        let gamma = (cap / p) * (1.0 - p) / (1.0 - cap);
        if gammas[i].to_bits() != gamma.to_bits() {
            formula_mismatch = Some(format!(
                "gamma[{i}]: published {}, Theorem-2 value {gamma}",
                gammas[i]
            ));
            break;
        }
    }
    report.check(
        "plan-formulas",
        formula_mismatch.is_none(),
        formula_mismatch
            .unwrap_or_else(|| "caps and gammas match Equation 1 / Theorem 2".to_string()),
    );

    let alphas_ok = alphas.iter().all(|&a| (0.0..=1.0).contains(&a));
    report.check(
        "alphas-range",
        alphas_ok,
        format!("{m} retention probabilities in [0, 1]: {alphas_ok}"),
    );

    // Worst-case posterior for every (true value, observed value) pair,
    // from the transition probabilities the alphas imply (Equation 12).
    if alphas_ok {
        let mf = m as f64;
        let pr = |j: usize, v: usize| {
            if j == v {
                alphas[j] + (1.0 - alphas[j]) / mf
            } else {
                (1.0 - alphas[j]) / mf
            }
        };
        let mut worst = None;
        'posterior: for v in 0..m {
            let mut seen = 0.0;
            for (j, &pj) in priors.iter().enumerate() {
                seen += pj * pr(j, v);
            }
            if seen <= 0.0 {
                worst = Some(format!("observed value {v} has zero total probability"));
                break;
            }
            for i in 0..m {
                let posterior = priors[i] * pr(i, v) / seen;
                if posterior > caps[i] + POSTERIOR_EPS {
                    worst = Some(format!(
                        "posterior({i}|observed {v}) = {posterior:.6} exceeds cap {:.6}",
                        caps[i]
                    ));
                    break 'posterior;
                }
            }
        }
        report.check(
            "posterior-caps",
            worst.is_none(),
            worst
                .unwrap_or_else(|| format!("all {m}x{m} posteriors under their Definition-6 caps")),
        );
    }

    // The randomized column: row-aligned and inside the support.
    let aligned_rows = sa_column.len() == table.num_rows();
    report.check(
        "column-aligned",
        aligned_rows,
        format!(
            "randomized column has {} rows, table {}",
            sa_column.len(),
            table.num_rows()
        ),
    );
    let in_support = sa_column.iter().all(|v| support.binary_search(v).is_ok());
    report.check(
        "column-in-support",
        in_support,
        if in_support {
            "every randomized value is in the support".to_string()
        } else {
            "randomized column contains values outside the support".to_string()
        },
    );

    // Statistical plausibility: observed per-value counts within 6σ of the
    // expectation the plan implies. A single swapped value is (correctly)
    // invisible; gross tampering with the randomized column is not.
    if aligned_rows && in_support && alphas_ok {
        let mf = m as f64;
        let pr = |j: usize, v: usize| {
            if j == v {
                alphas[j] + (1.0 - alphas[j]) / mf
            } else {
                (1.0 - alphas[j]) / mf
            }
        };
        let mut observed = vec![0u64; m];
        for &v in sa_column {
            let idx = support.binary_search(&v).expect("checked in-support");
            observed[idx] += 1;
        }
        let mut implausible = None;
        for v in 0..m {
            let mut expected = 0.0;
            let mut variance = 0.0;
            for (j, &sv) in support.iter().enumerate() {
                let nj = counts[sv as usize] as f64;
                let p = pr(j, v);
                expected += nj * p;
                variance += nj * p * (1.0 - p);
            }
            let slack = 6.0 * variance.sqrt() + 1.0;
            let diff = (observed[v] as f64 - expected).abs();
            if diff > slack {
                implausible = Some(format!(
                    "observed count of support value {} is {} vs expectation {expected:.1} \
                     (allowed deviation {slack:.1})",
                    support[v], observed[v]
                ));
                break;
            }
        }
        report.check(
            "column-plausible",
            implausible.is_none(),
            implausible.unwrap_or_else(|| {
                "observed counts within 6 sigma of the plan's expectation".to_string()
            }),
        );
    }

    report
}

// ---------------------------------------------------------------------------
// Anatomy publications.
// ---------------------------------------------------------------------------

/// Verifies an Anatomy-style publication: the form derives everything from
/// the stored table, so the only invariants are the attribute roles and
/// the (trivially zero) relative gain of publishing the global histogram.
pub fn verify_anatomy(table: &Table, sa: usize) -> OracleReport {
    let mut report = OracleReport::new("anatomy", table.num_rows());
    let arity = table.schema().arity();
    report.check("attr-roles", sa < arity, format!("sa={sa}, arity={arity}"));
    // The published SA information is the global distribution itself: the
    // adversary's posterior equals the prior, gain 0 by definition.
    report.achieved_beta = Some(0.0);
    report.check(
        "global-histogram",
        true,
        "publishes the table-level SA histogram: relative gain 0 by definition",
    );
    report
}

// ---------------------------------------------------------------------------
// Snapshot-level verification.
// ---------------------------------------------------------------------------

/// Schemes that claim a β (the others are verified structurally only).
/// Exhaustive over every scheme the wire knows (X2): an unknown algo
/// claims nothing, and the form-consistency check reports it.
fn claimed_beta(algo: &str, beta: f64) -> Option<f64> {
    match algo {
        "burel" | "mondrian" | "perturb" => Some(beta),
        "sabre" | "anatomy" => None,
        _ => None,
    }
}

/// Full verification of a decoded publication: parameter integrity (the
/// content address and canonical string), form/algorithm consistency, and
/// the form-specific invariants above.
pub fn verify_snapshot(snap: &PublicationSnapshot) -> OracleReport {
    let p = &snap.params;

    // Parameter integrity first: the canonical string must embed exactly
    // the stored parameters, and the handle must be its FNV-1a content
    // address — loosening β (or any other knob) post-hoc breaks one or the
    // other.
    let expected_canonical = format!(
        "{}|algo={}|qi={}|beta={}|t={}|seed={}",
        p.dataset_key, p.algo, p.qi_prefix, p.beta, p.t, p.seed
    );
    let canonical_ok = p.canonical == expected_canonical;
    let expected_handle = format!("pub-{:016x}", fnv1a64(p.canonical.as_bytes()));
    let handle_ok = p.handle == expected_handle;

    let beta = claimed_beta(&p.algo, p.beta);
    let mut report = match &snap.form {
        FormSnapshot::Generalized { ecs } => {
            let qi: Vec<usize> = p.qi.iter().map(|&a| a as usize).collect();
            verify_generalized(
                &snap.table,
                &qi,
                p.sa as usize,
                beta,
                ecs,
                snap.audit.as_ref(),
            )
        }
        FormSnapshot::Perturbed {
            sa_column,
            support,
            priors,
            caps,
            gammas,
            alphas,
        } => verify_perturbed(
            &snap.table,
            p.sa as usize,
            p.beta,
            sa_column,
            support,
            priors,
            caps,
            gammas,
            alphas,
        ),
        FormSnapshot::Anatomy => verify_anatomy(&snap.table, p.sa as usize),
    };
    report.handle = p.handle.clone();

    report.check(
        "params-canonical",
        canonical_ok,
        if canonical_ok {
            "canonical string embeds the stored parameters".to_string()
        } else {
            format!(
                "stored canonical `{}` differs from the parameters' `{expected_canonical}`",
                p.canonical
            )
        },
    );
    report.check(
        "handle-hash",
        handle_ok,
        if handle_ok {
            "handle is the canonical string's content address".to_string()
        } else {
            format!(
                "stored handle `{}`, content address `{expected_handle}`",
                p.handle
            )
        },
    );

    let form_algo_ok = matches!(
        (&snap.form, p.algo.as_str()),
        (
            FormSnapshot::Generalized { .. },
            "burel" | "sabre" | "mondrian"
        ) | (FormSnapshot::Perturbed { .. }, "perturb")
            | (FormSnapshot::Anatomy, "anatomy")
    );
    report.check(
        "form-algo",
        form_algo_ok,
        format!("form `{}` under algo `{}`", snap.form.kind(), p.algo),
    );

    // Forms without equivalence classes must not carry a partition audit.
    if !matches!(snap.form, FormSnapshot::Generalized { .. }) {
        report.check(
            "audit-absent",
            snap.audit.is_none(),
            "forms without ECs store no partition audit",
        );
    }

    report
}

/// [`verify_snapshot`] over a serialized `.bpub` document.
///
/// # Errors
///
/// Propagates the store reader's structured decode errors (truncation,
/// corruption, version skew) — an unreadable artifact is reported as such
/// rather than as a conformance failure.
pub fn verify_bytes(bytes: &[u8]) -> Result<OracleReport, StoreError> {
    let snap = betalike_store::publication_from_slice(bytes)?;
    Ok(verify_snapshot(&snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_microdata::patients::{self, patients_table};
    use betalike_microdata::synthetic::{random_table, SyntheticConfig};

    #[test]
    fn cap_formula_matches_the_paper() {
        // Section 6 prose: beta = 4, p = 1% (infrequent) caps at 5p; the
        // most frequent CENSUS salary class caps at p(1 - ln p) < 20%.
        assert!((enhanced_cap(4.0, 0.01) - 0.05).abs() < 1e-12);
        let p: f64 = 0.048402;
        let cap = enhanced_cap(4.0, p);
        assert!((cap - p * (1.0 - p.ln())).abs() < 1e-12);
        assert!(cap < 0.20);
        assert_eq!(enhanced_cap(2.0, 0.0), 0.0);
    }

    #[test]
    fn gain_and_distance_readings() {
        // The paper's Section 2 example: EMD ties the two cases at 0.1,
        // relative gain separates them 40x.
        assert!((max_gain(&[0.4, 0.6], &[0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((max_gain(&[0.01, 0.99], &[0.11, 0.89]) - 10.0).abs() < 1e-12);
        assert!((emd_equal(&[0.4, 0.6], &[0.5, 0.5]) - 0.1).abs() < 1e-12);
        assert_eq!(max_gain(&[0.0, 1.0], &[0.5, 0.5]), f64::INFINITY);
        assert_eq!(delta_reading(&[0.5, 0.5], &[0.0, 1.0]), f64::INFINITY);
        assert!((inv_max_freq(&[0.25, 0.75]) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(inv_max_freq(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn patients_split_verdicts() {
        // The Table-1 nervous/circulatory split achieves beta exactly 1:
        // it passes a beta = 1 claim and fails beta = 0.5.
        let t = patients_table();
        let qi = [patients::attr::WEIGHT, patients::attr::AGE];
        let ecs: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let ok = verify_generalized(&t, &qi, patients::attr::DISEASE, Some(1.0), &ecs, None);
        assert!(ok.pass(), "{}", ok.summary());
        assert!((ok.achieved_beta.unwrap() - 1.0).abs() < 1e-12);
        let bad = verify_generalized(&t, &qi, patients::attr::DISEASE, Some(0.5), &ecs, None);
        assert!(!bad.pass());
        assert!(!bad.find("beta-bound").unwrap().pass);
    }

    #[test]
    fn cover_violations_are_named() {
        let t = patients_table();
        let qi = [patients::attr::WEIGHT];
        let sa = patients::attr::DISEASE;
        let missing: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3, 4]];
        let r = verify_generalized(&t, &qi, sa, None, &missing, None);
        assert!(r.find("cover").unwrap().detail.contains("row 5"));
        let dup: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![2, 3, 4, 5]];
        let r = verify_generalized(&t, &qi, sa, None, &dup, None);
        assert!(r.find("cover").unwrap().detail.contains("more than one"));
        let oob: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3, 4, 5, 9]];
        let r = verify_generalized(&t, &qi, sa, None, &oob, None);
        assert!(r.find("cover").unwrap().detail.contains(">="));
        // A duplicate id before an out-of-range one: a failing cover
        // check, not an index past the table.
        let dup_then_oob: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![2, 3], vec![4, 5, 99]];
        let r = verify_generalized(&t, &qi, sa, None, &dup_then_oob, None);
        let cover = r.find("cover").unwrap();
        assert!(!cover.pass && cover.detail.contains("99 >= 6"));
        let empty: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3, 4, 5], vec![]];
        let r = verify_generalized(&t, &qi, sa, None, &empty, None);
        assert!(!r.find("ecs-nonempty").unwrap().pass);
    }

    #[test]
    fn info_loss_matches_the_worked_example() {
        // Weights {70, 60, 50} span 20 of 30; the three nervous diseases
        // cover 3 of 6 leaves.
        let t = patients_table();
        let rows: Vec<u32> = vec![0, 1, 2];
        let weight = attr_loss(&t, patients::attr::WEIGHT, &rows);
        assert!((weight - 20.0 / 30.0).abs() < 1e-12);
        let disease = attr_loss(&t, patients::attr::DISEASE, &rows);
        assert!((disease - 0.5).abs() < 1e-12);
        assert_eq!(attr_loss(&t, patients::attr::WEIGHT, &[3]), 0.0);
        // A single EC covering the whole table has full spread on both QIs.
        let whole: Vec<Vec<u32>> = vec![(0..6).collect()];
        let ail = average_info_loss(&t, &[patients::attr::WEIGHT, patients::attr::AGE], &whole);
        assert!((ail - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anatomy_is_trivially_conformant() {
        let t = random_table(&SyntheticConfig::default());
        let r = verify_anatomy(&t, 2);
        assert!(r.pass());
        assert_eq!(r.achieved_beta, Some(0.0));
        assert!(!verify_anatomy(&t, 99).pass());
    }

    #[test]
    fn attr_role_failures_short_circuit() {
        let t = patients_table();
        let r = verify_generalized(&t, &[0, 2], 2, Some(1.0), &[vec![0]], None);
        assert!(!r.pass());
        assert!(!r.find("attr-roles").unwrap().pass);
        let r = verify_perturbed(&t, 99, 2.0, &[], &[], &[], &[], &[], &[]);
        assert!(!r.find("attr-roles").unwrap().pass);
    }
}
