//! The catalog's core contract, as a property: for **every** publication
//! form and arbitrary tables and queries, the catalog-backed answer is
//! *bitwise* equal to the scan path's — `estimate` vs `estimate_scan`
//! down to the f64 bits, `exact` vs `exact_scan` exactly.
//!
//! The generated shapes deliberately include the degenerate end of the
//! spectrum (single-row tables, cardinality-2 domains, empty predicate
//! lists, whole-domain and point ranges) and published-QI subsets, so
//! exact counts mix catalog-covered predicates with residual ones that
//! only the per-group row scan can answer.
//!
//! Census-shaped inputs add what the synthetic tables never produce:
//! categorical QIs whose published boxes the generalized schemes widen to
//! a hierarchy node's leaf range (Marital, height 2; Work Class, height
//! 3), so a group's per-attribute count table spans codes none of its
//! rows hold.

use betalike::model::{BetaLikeness, BoundKind};
use betalike::{burel, perturb, BurelConfig};
use betalike_baselines::constraints::LikenessConstraint;
use betalike_baselines::mondrian::{mondrian, MondrianConfig};
use betalike_baselines::sabre::{sabre, SabreConfig};
use betalike_metrics::Partition;
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::synthetic::{random_table, SaShape, SyntheticConfig};
use betalike_microdata::{AttrKind, Table};
use betalike_query::{AggQuery, CatalogStats, PublishedAnswerer, RangePred};
use proptest::prelude::*;
use std::sync::Arc;

/// Folds a raw `(attr, lo, hi)` triple into a valid predicate over the
/// table's QI attributes (the SA is predicated separately).
fn pred(table: &Table, raw: (usize, u32, u32)) -> RangePred {
    let attr = raw.0 % (table.schema().arity() - 1);
    let card = table.schema().attribute(attr).unwrap().cardinality() as u32;
    let (mut lo, mut hi) = (raw.1 % card, raw.2 % card);
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    RangePred { attr, lo, hi }
}

/// Asserts the two answer paths agree bitwise on `query`.
fn assert_paths_agree(answerer: &PublishedAnswerer, query: &AggQuery, what: &str) {
    let catalog = answerer.estimate(query);
    let scan = answerer.estimate_scan(query);
    match (catalog, scan) {
        (Ok(c), Ok(s)) => assert_eq!(c.to_bits(), s.to_bits(), "{what} estimate {query:?}"),
        (c, s) => assert_eq!(c.is_err(), s.is_err(), "{what} error parity {query:?}"),
    }
    assert_eq!(
        answerer.exact(query),
        answerer.exact_scan(query),
        "{what} exact {query:?}"
    );
}

/// A predicate on `attr` aligned to a hierarchy node's leaf range when the
/// attribute is categorical — exactly the boxes LCA widening publishes —
/// and folded into the domain otherwise.
fn aligned_pred(table: &Table, attr: usize, raw: u32) -> RangePred {
    match table.schema().attr(attr).kind() {
        AttrKind::Categorical { hierarchy } => {
            let (lo, hi) = hierarchy.leaf_range(raw as usize % hierarchy.num_nodes());
            RangePred { attr, lo, hi }
        }
        AttrKind::Numeric { .. } => pred(table, (attr, raw, raw / 3)),
    }
}

/// BUREL, SABRE and β-likeness Mondrian partitions of `table` over `qi`
/// (whichever of them can publish it).
fn generalizations(table: &Table, qi: &[usize], sa: usize) -> Vec<(&'static str, Partition)> {
    let mut out = Vec::new();
    if let Ok(p) = burel(table, qi, sa, &BurelConfig::new(4.0).with_seed(7)) {
        out.push(("burel", p));
    }
    if let Ok(p) = sabre(table, qi, sa, &SabreConfig::new(0.6).with_seed(7)) {
        out.push(("sabre", p));
    }
    if let Ok(model) = BetaLikeness::with_bound(4.0, BoundKind::Enhanced) {
        let c = LikenessConstraint::new(table, sa, model);
        if let Ok(p) = mondrian(table, qi, sa, &c, &MondrianConfig::default()) {
            out.push(("mondrian", p));
        }
    }
    out
}

/// An SA predicate leaving out at most two classes at either end of the
/// domain: it spans most groups' SA extents, so in a pair query the QI
/// predicate is the one that straddles.
fn near_whole_sa(raw: (u32, u32)) -> RangePred {
    let top = census::SALARY_CLASSES as u32 - 1;
    RangePred {
        attr: census::attr::SALARY,
        lo: raw.0 % 3,
        hi: top - raw.1 % 3,
    }
}

/// Queries pairing one covered QI predicate with each SA predicate:
/// where one of the two spans a group and the other straddles it, exact
/// counts take the catalog's single-straddle path.
fn pair_queries(preds: &[RangePred], sa_preds: &[RangePred]) -> Vec<AggQuery> {
    preds
        .iter()
        .flat_map(|&p| {
            sa_preds.iter().map(move |&sa_pred| AggQuery {
                qi_preds: vec![p],
                sa_pred,
            })
        })
        .collect()
}

/// Census-shaped query material: the published QI prefix (`qi_len` of
/// Age, Gender, Education, Marital, Work Class), predicates folded onto
/// it (every other one hierarchy-aligned), and an SA predicate.
fn census_queries(
    table: &Table,
    qi_len: usize,
    raw_preds: &[(usize, u32, u32)],
    sa_raw: (u32, u32),
) -> (Vec<RangePred>, RangePred) {
    let preds = raw_preds
        .iter()
        .enumerate()
        .map(|(i, &(attr, lo, hi))| {
            let attr = attr % qi_len;
            if i % 2 == 0 {
                aligned_pred(table, attr, lo)
            } else {
                pred(table, (attr, lo, hi))
            }
        })
        .collect();
    let classes = census::SALARY_CLASSES as u32;
    let (lo, hi) = (sa_raw.0 % classes, sa_raw.1 % classes);
    let sa_pred = RangePred {
        attr: census::attr::SALARY,
        lo: lo.min(hi),
        hi: lo.max(hi),
    };
    (preds, sa_pred)
}

/// Single-straddle exact counts over LCA-widened census boxes are
/// exercised, not just possible: with the plan counters attached, each
/// generalized scheme's exact counts resolve some groups through one
/// straddling predicate, and every answer still equals the scan.
#[test]
fn census_single_straddle_exact_counts_match_scans() {
    let table = Arc::new(census::generate(&CensusConfig::new(600, 3)));
    let qi: Vec<usize> = (0..5).collect();
    let schemes = generalizations(&table, &qi, census::attr::SALARY);
    assert_eq!(schemes.len(), 3, "every generalized scheme publishes");
    for (name, partition) in &schemes {
        let mut answerer = PublishedAnswerer::generalized(Arc::clone(&table), partition);
        let stats = CatalogStats::default();
        answerer.attach_catalog_stats(stats.clone());
        let mut exact_straddles = 0;
        for raw in 0..60u32 {
            let attr = raw as usize % qi.len();
            let qi_pred = aligned_pred(&table, attr, raw.wrapping_mul(7));
            let band = RangePred {
                attr: census::attr::SALARY,
                lo: raw % 20,
                hi: raw % 20 + 15,
            };
            let sa_preds = [band, near_whole_sa((raw, raw / 3))];
            for query in pair_queries(&[qi_pred], &sa_preds) {
                assert_paths_agree(&answerer, &query, name);
                // Estimates count straddles too; isolate the exact path's.
                let before = stats.straddle.get();
                answerer.exact(&query);
                exact_straddles += stats.straddle.get() - before;
            }
        }
        assert!(exact_straddles > 0, "{name} took no single straddle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Census-shaped publications (BUREL, SABRE, Mondrian over 4–5 QIs,
    /// so Marital and Work Class boxes are LCA-widened): catalog answers
    /// equal scans bit for bit, including single-straddle exact counts.
    #[test]
    fn census_catalog_answers_are_bitwise_equal_to_scans(
        rows in 60usize..400,
        seed in 0u64..1_000_000,
        qi_len in 4usize..6,
        raw_preds in proptest::collection::vec((0usize..8, 0u32..96, 0u32..96), 0..5),
        sa_raw in (0u32..64, 0u32..64),
    ) {
        let table = Arc::new(census::generate(&CensusConfig::new(rows, seed)));
        let qi: Vec<usize> = (0..qi_len).collect();
        let (preds, sa_pred) = census_queries(&table, qi_len, &raw_preds, sa_raw);
        let mut queries = vec![
            AggQuery { qi_preds: preds.clone(), sa_pred },
            AggQuery { qi_preds: vec![], sa_pred },
        ];
        queries.extend(pair_queries(&preds, &[sa_pred, near_whole_sa(sa_raw)]));
        let schemes = generalizations(&table, &qi, census::attr::SALARY);
        prop_assert!(!schemes.is_empty(), "some generalized scheme publishes");
        for (name, partition) in schemes {
            let answerer = PublishedAnswerer::generalized(Arc::clone(&table), &partition);
            for query in &queries {
                assert_paths_agree(&answerer, query, name);
            }
        }
    }

    /// All five schemes, arbitrary tables and queries: the catalog path
    /// must be indistinguishable from the scan path, bit for bit.
    #[test]
    fn catalog_answers_are_bitwise_equal_to_scans(
        rows in 1usize..220,
        qi_attrs in 1usize..4,
        qi_card in 2usize..9,
        sa_card in 2usize..7,
        seed in 0u64..1_000_000,
        qi_n_raw in 0usize..4,
        raw_preds in proptest::collection::vec((0usize..8, 0u32..64, 0u32..64), 0..5),
        sa_raw in (0u32..64, 0u32..64),
    ) {
        let table = Arc::new(random_table(&SyntheticConfig {
            rows,
            qi_attrs,
            qi_cardinality: qi_card,
            sa_cardinality: sa_card,
            sa_shape: SaShape::Zipf(1.0),
            seed,
        }));
        let sa = qi_attrs; // synthetic tables put the SA last
        let qi_n = 1 + qi_n_raw % qi_attrs; // published QI subset: 1..=qi_attrs
        let qi: Vec<usize> = (0..qi_n).collect();

        let (mut sa_lo, mut sa_hi) = (sa_raw.0 % sa_card as u32, sa_raw.1 % sa_card as u32);
        if sa_lo > sa_hi {
            std::mem::swap(&mut sa_lo, &mut sa_hi);
        }
        let sa_pred = RangePred { attr: sa, lo: sa_lo, hi: sa_hi };
        let all_preds: Vec<RangePred> =
            raw_preds.iter().map(|&raw| pred(&table, raw)).collect();
        // Only predicates inside the published QI subset are answerable by
        // `estimate` on generalized forms; `exact` takes them all — the
        // ones outside the catalog's covered set exercise the residual
        // row-scan.
        let covered_only: Vec<RangePred> = all_preds
            .iter()
            .filter(|p| p.attr < qi_n)
            .cloned()
            .collect();
        let narrow = AggQuery { qi_preds: covered_only, sa_pred };
        let wide = AggQuery { qi_preds: all_preds, sa_pred };
        let empty = AggQuery { qi_preds: vec![], sa_pred };

        let mut answerers: Vec<(&str, PublishedAnswerer)> = generalizations(&table, &qi, sa)
            .into_iter()
            .map(|(name, p)| (name, PublishedAnswerer::generalized(Arc::clone(&table), &p)))
            .collect();
        answerers.push(("anatomy", PublishedAnswerer::anatomy(Arc::clone(&table), sa)));
        if let Ok(model) = BetaLikeness::new(3.0) {
            if let Ok(published) = perturb(&table, sa, &model, 7) {
                answerers.push((
                    "perturb",
                    PublishedAnswerer::perturbed(Arc::clone(&table), published),
                ));
            }
        }
        // Anatomy always publishes, so the property is never vacuous.
        prop_assert!(!answerers.is_empty());

        for (name, answerer) in &answerers {
            prop_assert!(answerer.catalog().is_some(), "{name} built a catalog");
            assert_paths_agree(answerer, &narrow, name);
            assert_paths_agree(answerer, &empty, name);
            // Generalized estimators reject predicates outside the
            // published QI; the mixed covered+residual query still must
            // agree on *exact* counts for every form.
            prop_assert_eq!(
                answerer.exact(&wide),
                answerer.exact_scan(&wide),
                "{} exact with residual preds",
                name
            );
            if matches!(answerer.kind(), "anatomy" | "perturbed") {
                assert_paths_agree(answerer, &wide, name);
            }
        }
    }
}

/// Several predicates on one attribute form a conjunction: the exact
/// count is the count under their intersection (zero when they are
/// disjoint), and every publication form's catalog answers the list
/// exactly as its scan does, estimates bit for bit.
#[test]
fn same_attribute_predicates_form_a_conjunction() {
    let table = Arc::new(census::generate(&CensusConfig::new(800, 5)));
    let sa = census::attr::SALARY;
    let qi: Vec<usize> = (0..3).collect();
    let mut answerers: Vec<(&str, PublishedAnswerer)> = generalizations(&table, &qi, sa)
        .into_iter()
        .map(|(name, p)| (name, PublishedAnswerer::generalized(Arc::clone(&table), &p)))
        .collect();
    answerers.push((
        "anatomy",
        PublishedAnswerer::anatomy(Arc::clone(&table), sa),
    ));
    let model = BetaLikeness::new(4.0).unwrap();
    let published = perturb(&table, sa, &model, 7).unwrap();
    answerers.push((
        "perturb",
        PublishedAnswerer::perturbed(Arc::clone(&table), published),
    ));
    assert_eq!(answerers.len(), 5, "every scheme publishes");

    let age = |lo, hi| RangePred {
        attr: census::attr::AGE,
        lo,
        hi,
    };
    let sa_pred = RangePred {
        attr: sa,
        lo: 5,
        hi: 40,
    };
    let query = |qi_preds: Vec<RangePred>| AggQuery { qi_preds, sa_pred };
    let overlapping = query(vec![age(5, 40), age(20, 60)]);
    let intersection = query(vec![age(20, 40)]);
    let disjoint = query(vec![age(0, 10), age(30, 50)]);
    let repeated = query(vec![age(20, 40), age(20, 40), age(20, 40)]);
    for (name, answerer) in &answerers {
        for q in [&overlapping, &disjoint, &repeated] {
            assert_paths_agree(answerer, q, name);
        }
        let exact = answerer.exact(&intersection);
        assert!(exact > 0, "{name}: the intersection matches rows");
        assert_eq!(answerer.exact(&overlapping), exact, "{name}");
        assert_eq!(answerer.exact(&repeated), exact, "{name}");
        assert_eq!(answerer.exact(&disjoint), 0, "{name}");
    }
}
