//! Degenerate publication shapes: the resident [`PublishedAnswerer`] must
//! stay bit-identical to the free-function answer paths on the smallest
//! inputs a publisher can produce — single-row tables, all-singleton ECs,
//! queries whose boxes miss everything, and empty QI selections.

use betalike::model::BetaLikeness;
use betalike::perturb;
use betalike_baselines::anatomy::AnatomyBaseline;
use betalike_metrics::Partition;
use betalike_microdata::synthetic::{random_table, SyntheticConfig};
use betalike_microdata::{Attribute, Hierarchy, Schema, Table};
use betalike_query::answer::{
    estimate_anatomy, estimate_perturbed, exact_count, qi_matches, GeneralizedView,
};
use betalike_query::{AggQuery, PublishedAnswerer, RangePred};
use std::sync::Arc;

fn one_row_table() -> Arc<Table> {
    let age = Attribute::numeric_range("Age", 0, 9).unwrap();
    let disease =
        Attribute::categorical("Disease", Hierarchy::flat("any", &["a", "b", "c"]).unwrap());
    let schema = Arc::new(Schema::new(vec![age, disease], 1).unwrap());
    Arc::new(Table::from_columns(schema, vec![vec![4], vec![1]]).unwrap())
}

fn query(qi_preds: Vec<RangePred>, sa_lo: u32, sa_hi: u32) -> AggQuery {
    AggQuery {
        qi_preds,
        sa_pred: RangePred {
            attr: 1,
            lo: sa_lo,
            hi: sa_hi,
        },
    }
}

#[test]
fn single_row_generalized_publication() {
    let table = one_row_table();
    let partition = Partition::new(vec![0], 1, vec![vec![0]]);
    let view = GeneralizedView::new(&table, &partition);
    let answerer = PublishedAnswerer::generalized(Arc::clone(&table), &partition);
    for (q, expect) in [
        (
            query(
                vec![RangePred {
                    attr: 0,
                    lo: 0,
                    hi: 9,
                }],
                0,
                2,
            ),
            1.0,
        ),
        // The SA range misses the one row.
        (
            query(
                vec![RangePred {
                    attr: 0,
                    lo: 0,
                    hi: 9,
                }],
                2,
                2,
            ),
            0.0,
        ),
        // The QI box misses the one row.
        (
            query(
                vec![RangePred {
                    attr: 0,
                    lo: 0,
                    hi: 3,
                }],
                0,
                2,
            ),
            0.0,
        ),
        // No QI predicates at all: pure SA count.
        (query(vec![], 1, 1), 1.0),
    ] {
        let got = answerer.estimate(&q).unwrap();
        assert_eq!(got.to_bits(), view.estimate(&q).to_bits());
        assert_eq!(got, expect, "query {q:?}");
        assert_eq!(answerer.exact(&q), exact_count(&table, &q));
        assert_eq!(answerer.exact(&q) as f64, expect);
    }
}

#[test]
fn single_row_anatomy_publication() {
    let table = one_row_table();
    let baseline = AnatomyBaseline::publish(&table, 1);
    let answerer = PublishedAnswerer::anatomy(Arc::clone(&table), 1);
    for q in [
        query(
            vec![RangePred {
                attr: 0,
                lo: 0,
                hi: 9,
            }],
            0,
            2,
        ),
        query(
            vec![RangePred {
                attr: 0,
                lo: 5,
                hi: 9,
            }],
            0,
            2,
        ),
        query(vec![], 0, 0),
    ] {
        let got = answerer.estimate(&q).unwrap();
        let want = estimate_anatomy(&baseline, &table, &q);
        assert_eq!(got.to_bits(), want.to_bits(), "query {q:?}");
    }
    // With the single row selected and the full SA range, the histogram
    // answer is exact.
    let full = query(vec![], 0, 2);
    assert_eq!(answerer.estimate(&full).unwrap(), 1.0);
}

#[test]
fn all_singleton_ecs_match_free_functions_bitwise() {
    let table = Arc::new(random_table(&SyntheticConfig {
        rows: 64,
        qi_attrs: 2,
        qi_cardinality: 8,
        sa_cardinality: 4,
        seed: 31,
        ..Default::default()
    }));
    let ecs: Vec<Vec<usize>> = (0..table.num_rows()).map(|r| vec![r]).collect();
    let partition = Partition::new(vec![0, 1], 2, ecs);
    let view = GeneralizedView::new(&table, &partition);
    let answerer = PublishedAnswerer::generalized(Arc::clone(&table), &partition);
    // Point boxes answer exactly; sweep a grid of queries including
    // empty-selection ones.
    for lo in 0..8u32 {
        let q = AggQuery {
            qi_preds: vec![RangePred {
                attr: 0,
                lo,
                hi: lo,
            }],
            sa_pred: RangePred {
                attr: 2,
                lo: 0,
                hi: 1,
            },
        };
        let got = answerer.estimate(&q).unwrap();
        assert_eq!(got.to_bits(), view.estimate(&q).to_bits());
        assert_eq!(
            got,
            exact_count(&table, &q) as f64,
            "point ECs answer exactly"
        );
    }
}

#[test]
fn covered_and_residual_straddling_predicates() {
    // Publish with a one-attribute QI out of three, so the EC catalog
    // covers attrs {0, sa} only: predicates on attrs 1 and 2 must take the
    // residual row-scan, while straddling ranges on attr 0 force the
    // per-group paths (per-group prefix counts or row scan) instead of the
    // global prefix sums.
    let table = Arc::new(random_table(&SyntheticConfig {
        rows: 150,
        qi_attrs: 3,
        qi_cardinality: 6,
        sa_cardinality: 5,
        seed: 13,
        ..Default::default()
    }));
    let sa = 3;
    let partition = betalike::burel(
        &table,
        &[0],
        sa,
        &betalike::BurelConfig::new(4.0).with_seed(5),
    )
    .unwrap();
    let answerer = PublishedAnswerer::generalized(Arc::clone(&table), &partition);
    let catalog = answerer.catalog().expect("catalog is on by default");
    let p = |attr, lo, hi| RangePred { attr, lo, hi };
    for qi_preds in [
        vec![p(0, 1, 4)],                         // covered straddle only
        vec![p(1, 2, 5)],                         // residual only
        vec![p(0, 1, 4), p(1, 2, 5)],             // covered + residual
        vec![p(0, 2, 3), p(1, 0, 4), p(2, 1, 5)], // covered + two residuals
        vec![p(0, 0, 5), p(2, 2, 2)],             // whole-domain covered + residual point
    ] {
        for (sa_lo, sa_hi) in [(0, 4), (1, 3), (2, 2)] {
            let q = AggQuery {
                qi_preds: qi_preds.clone(),
                sa_pred: p(sa, sa_lo, sa_hi),
            };
            // The planner really does split this workload: whole-domain
            // predicates land in neither part, attr 0 / the SA are
            // covered, attrs 1 and 2 are residual.
            let all: Vec<RangePred> = q.qi_preds.iter().cloned().chain([q.sa_pred]).collect();
            let plan = catalog.plan(&all);
            assert!(plan.residual.iter().all(|r| r.attr == 1 || r.attr == 2));
            assert!(plan.covered.iter().all(|c| c.attr == 0 || c.attr == sa));
            let exact = answerer.exact(&q);
            assert_eq!(exact, answerer.exact_scan(&q), "query {q:?}");
            assert_eq!(exact, exact_count(&table, &q), "query {q:?}");
            assert_eq!(exact, catalog.count(&table, &all), "query {q:?}");
        }
    }
}

#[test]
fn perturbed_empty_and_tiny_selections() {
    // qi_cardinality 4 guarantees codes ≥ 4 never occur, so a predicate
    // on them selects nothing — the reconstruction path must short-circuit
    // to 0, identically in both the free function and the answerer.
    let table = Arc::new(random_table(&SyntheticConfig {
        rows: 300,
        qi_attrs: 2,
        qi_cardinality: 4,
        sa_cardinality: 4,
        seed: 77,
        ..Default::default()
    }));
    let model = BetaLikeness::new(2.0).unwrap();
    let published = perturb(&table, 2, &model, 3).unwrap();
    let answerer = PublishedAnswerer::perturbed(Arc::clone(&table), published.clone());
    let nothing = AggQuery {
        qi_preds: vec![
            RangePred {
                attr: 0,
                lo: 3,
                hi: 3,
            },
            RangePred {
                attr: 1,
                lo: 3,
                hi: 3,
            },
        ],
        sa_pred: RangePred {
            attr: 2,
            lo: 0,
            hi: 3,
        },
    };
    let selected = qi_matches(&published.table, &nothing);
    let got = answerer.estimate(&nothing).unwrap();
    let want = estimate_perturbed(&published, &nothing).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    if selected.is_empty() {
        assert_eq!(got, 0.0, "empty selections reconstruct to zero");
    }
    // A single-row selection reconstructs without erroring and matches
    // the free path bitwise (per-class noise is fine; identity is the
    // contract).
    let row0 = AggQuery {
        qi_preds: vec![
            RangePred {
                attr: 0,
                lo: table.value(0, 0),
                hi: table.value(0, 0),
            },
            RangePred {
                attr: 1,
                lo: table.value(0, 1),
                hi: table.value(0, 1),
            },
        ],
        sa_pred: RangePred {
            attr: 2,
            lo: 0,
            hi: 3,
        },
    };
    let got = answerer.estimate(&row0).unwrap();
    let want = estimate_perturbed(&published, &row0).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    assert!(got >= 0.0, "clamped reconstruction cannot go negative");
}
