//! Failure injection and cross-validation: errors surface instead of
//! corrupting results, and the reverse-engineered queries are validated by
//! re-evaluation.

use provabs::core::{Bound, CoreError};
use provabs::datagen::kexample_for;
use provabs::datagen::tpch::{self, TpchConfig};
use provabs::relational::{Evaluator, KExample, Tuple};
use provabs::reveng::{find_consistent_queries, RevOptions};
use provabs::semiring::Monomial;
use provabs::tree::TreeBuilder;

#[test]
fn incompatible_tree_is_rejected() {
    // Tag a tuple with a label that is an inner node of the tree.
    let mut db = provabs::relational::Database::new();
    let r = db.add_relation("R", &["a"]);
    let t1 = db.insert_str(r, "t1", &["1"]);
    let inner = db.insert_str(r, "inner", &["2"]); // 'inner' tags a tuple...
    let root = db.intern_label("root");
    let mut b = TreeBuilder::new(root);
    b.add_child(root, inner); // ...but is used as an inner node
    b.add_child(inner, t1);
    let tree = b.build();
    db.build_indexes();
    let ex = KExample::new([(Tuple::parse(&["1"]), Monomial::from_annots([t1]))]);
    assert_eq!(
        Bound::new(&db, &tree, &ex).unwrap_err(),
        CoreError::IncompatibleTree
    );
}

#[test]
fn foreign_annotations_are_rejected() {
    let (mut db, rels) = tpch::generate(&TpchConfig {
        lineitem_rows: 100,
        seed: 1,
    });
    let ghost = db.intern_label("ghost");
    let ex = KExample::new([(Tuple::parse(&["1"]), Monomial::from_annots([ghost]))]);
    let tree = tpch::tpch_tree(&mut db, &rels, 50, 3, 1, false);
    assert!(matches!(
        Bound::new(&db, &tree, &ex).unwrap_err(),
        CoreError::UnresolvedAnnotation(_)
    ));
}

#[test]
fn frontier_queries_verified_by_reevaluation() {
    // Every reverse-engineered query, evaluated on the database, must derive
    // each K-example row's exact monomial (Def. 3.9 consistency).
    let (db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 500,
        seed: 5,
    });
    for w in tpch::tpch_queries(db.schema()) {
        if w.query.body.len() > 4 {
            continue; // keep evaluation cheap: Q3, Q4, Q10
        }
        let Some(ex) = kexample_for(&db, &w.query, 2) else {
            continue;
        };
        let rows = ex.resolve(&db).unwrap();
        for q in find_consistent_queries(&rows, &RevOptions::default()).cqs() {
            let (out, _) = Evaluator::new(&db).eval_cq(q);
            for row in &ex.rows {
                assert!(
                    out.provenance(&row.output).coefficient(&row.monomial) >= 1,
                    "{}: frontier query {} fails to derive {} with its monomial",
                    w.name,
                    q.display(db.schema()),
                    row.output,
                );
            }
        }
    }
}

#[test]
fn empty_and_degenerate_examples() {
    let fx = provabs::core::fixtures::running_example();
    // Empty example.
    let empty = KExample::default();
    assert_eq!(
        Bound::new(&fx.db, &fx.tree, &empty).unwrap_err(),
        CoreError::EmptyExample
    );
    // Empty occurrence list in reveng.
    assert!(find_consistent_queries(&[], &RevOptions::default()).is_empty());
}

#[test]
fn alignment_cap_degrades_gracefully() {
    // With a 1-alignment cap the frontier is truncated but never wrong:
    // returned queries are still consistent.
    let fx = provabs::core::fixtures::running_example();
    let rows = fx.exreal.resolve(&fx.db).unwrap();
    let opts = RevOptions {
        max_alignments: 1,
        ..Default::default()
    };
    for q in find_consistent_queries(&rows, &opts).cqs() {
        let (out, _) = Evaluator::new(&fx.db).eval_cq(q);
        for row in &fx.exreal.rows {
            assert!(out.provenance(&row.output).coefficient(&row.monomial) >= 1);
        }
    }
}
