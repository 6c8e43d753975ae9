//! Cross-crate integration: the full pipeline (generate → query → K-example
//! → tree → search) on both synthetic datasets.

use provabs::core::privacy::PrivacyConfig;
use provabs::core::search::{find_optimal_abstraction, SearchConfig};
use provabs::core::Bound;
use provabs::datagen::imdb::{self, ImdbConfig};
use provabs::datagen::tpch::{self, TpchConfig};
use provabs::datagen::{join_variants, kexample_for};
use provabs::relational::{EvalLimits, Evaluator, Execution};

#[test]
fn tpch_q3_pipeline_reaches_privacy_5() {
    let (db_proto, rels) = tpch::generate(&TpchConfig {
        lineitem_rows: 2_000,
        seed: 42,
    });
    let q3 = tpch::tpch_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q3")
        .unwrap();
    let mut db = db_proto;
    let example = kexample_for(&db, &q3.query, 2).expect("K-example");
    let tree = tpch::tpch_tree_covering(&mut db, &rels, &example, 800, 5, 42, false);
    assert!(tree.compatible_with(&db));
    let bound = Bound::new(&db, &tree, &example).unwrap();
    let out = find_optimal_abstraction(
        &bound,
        &SearchConfig {
            privacy: PrivacyConfig {
                threshold: 5,
                ..Default::default()
            },
            time_budget_ms: Some(30_000),
            ..Default::default()
        },
    );
    let best = out.best.expect("TPCH-Q3 must reach privacy 5");
    assert!(best.privacy >= 5);
    assert!(best.loi > 0.0);
    assert!(best.abstraction.validate(&bound));
}

#[test]
fn tpch_higher_thresholds_cost_at_least_as_much_loi() {
    let (db_proto, rels) = tpch::generate(&TpchConfig {
        lineitem_rows: 2_000,
        seed: 42,
    });
    let q10 = tpch::tpch_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q10")
        .unwrap();
    let mut db = db_proto;
    let example = kexample_for(&db, &q10.query, 2).unwrap();
    let tree = tpch::tpch_tree_covering(&mut db, &rels, &example, 800, 5, 42, false);
    let bound = Bound::new(&db, &tree, &example).unwrap();
    let mut last_loi = -1.0f64;
    for k in [2usize, 5, 8] {
        let out = find_optimal_abstraction(
            &bound,
            &SearchConfig {
                privacy: PrivacyConfig {
                    threshold: k,
                    ..Default::default()
                },
                time_budget_ms: Some(30_000),
                ..Default::default()
            },
        );
        let best = out
            .best
            .unwrap_or_else(|| panic!("no abstraction at k={k}"));
        assert!(
            best.loi >= last_loi - 1e-9,
            "LOI dropped between thresholds: {} < {}",
            best.loi,
            last_loi
        );
        last_loi = best.loi;
    }
}

#[test]
fn imdb_q1_pipeline_reaches_privacy_2() {
    let (db_proto, rels) = imdb::generate(&ImdbConfig::default());
    let q1 = imdb::imdb_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "IMDB-Q1")
        .unwrap();
    let mut db = db_proto;
    let example = kexample_for(&db, &q1.query, 2).expect("K-example");
    let tree = imdb::imdb_tree(&mut db, &rels);
    let bound = Bound::new(&db, &tree, &example).unwrap();
    let out = find_optimal_abstraction(
        &bound,
        &SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            time_budget_ms: Some(60_000),
            ..Default::default()
        },
    );
    let best = out.best.expect("IMDB-Q1 must reach privacy 2");
    assert!(best.privacy >= 2);
}

#[test]
fn join_variants_evaluate_and_bind() {
    let (db_proto, rels) = tpch::generate(&TpchConfig {
        lineitem_rows: 1_000,
        seed: 7,
    });
    let q7 = tpch::tpch_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q7")
        .unwrap();
    for variant in join_variants(&q7.query, 4) {
        let mut db = db_proto.clone();
        // Capped output subset: pinned to the scalar engine.
        let (out, _) = Evaluator::new(&db)
            .execution(Execution::Scalar)
            .limits(EvalLimits {
                max_outputs: 2,
                max_derivations: 500_000,
            })
            .eval_cq(&variant);
        assert!(
            out.len() >= 2,
            "{}-atom variant yields no rows",
            variant.body.len()
        );
        let example = kexample_for(&db, &variant, 2).unwrap();
        let tree = tpch::tpch_tree_covering(&mut db, &rels, &example, 400, 5, 7, false);
        assert!(Bound::new(&db, &tree, &example).is_ok());
    }
}

#[test]
fn shuffled_tree_still_supports_search() {
    // The paper's random-subcategory tree: abstraction substitutes become
    // scarcer, but the pipeline stays sound.
    let (db_proto, rels) = tpch::generate(&TpchConfig {
        lineitem_rows: 1_000,
        seed: 3,
    });
    let q4 = tpch::tpch_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q4")
        .unwrap();
    let mut db = db_proto;
    let example = kexample_for(&db, &q4.query, 2).unwrap();
    let tree = tpch::tpch_tree_covering(&mut db, &rels, &example, 400, 5, 3, true);
    let bound = Bound::new(&db, &tree, &example).unwrap();
    let out = find_optimal_abstraction(
        &bound,
        &SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            time_budget_ms: Some(20_000),
            ..Default::default()
        },
    );
    // Either found (valid metrics) or truncated — never a silent failure.
    match out.best {
        Some(best) => assert!(best.privacy >= 2),
        None => assert!(out.stats.truncated || out.stats.abstractions_enumerated > 0),
    }
}
