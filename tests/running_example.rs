//! End-to-end reproduction of the paper's running example (§1–§4):
//! Figures 1–6, Tables 1 and 3, Examples 3.13, 3.15, 4.2 and 4.3.

use provabs::core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs::core::search::{find_optimal_abstraction, SearchConfig};
use provabs::core::{concretize, fixtures, Abstraction, Bound};
use provabs::relational::{Evaluator, Tuple};
use provabs::reveng::{canonical_key, contained_in, ContainmentMode};

fn lift(bound: &Bound<'_>, abs: &mut Abstraction, name: &str, levels: u32) {
    let id = bound.db.annotations().get(name).unwrap();
    for r in 0..bound.num_rows() {
        for (i, &a) in bound.row_occurrences(r).iter().enumerate() {
            if a == id {
                abs.lifts[r][i] = levels;
            }
        }
    }
}

#[test]
fn figure_2a_exreal_from_qreal() {
    let fx = fixtures::running_example();
    let (out, _) = Evaluator::new(&fx.db).eval_cq(&fx.qreal);
    assert_eq!(out.len(), 2);
    // Outputs are the person ids 1 (James) and 2 (Brenda).
    assert!(!out.provenance(&Tuple::parse(&["1"])).is_zero());
    assert!(!out.provenance(&Tuple::parse(&["2"])).is_zero());
    assert_eq!(fx.exreal.len(), 2);
}

#[test]
fn figure_2bc_false_queries_yield_their_examples() {
    let fx = fixtures::running_example();
    // Qfalse1 derives (1) from p1*h4*i1 and (2) from p2*h5*i2 (Figure 2b).
    let (out1, _) = Evaluator::new(&fx.db).eval_cq(&fx.qfalse1);
    let reg = fx.db.annotations();
    let m1 = provabs::semiring::Monomial::from_annots([
        reg.get("p1").unwrap(),
        reg.get("h4").unwrap(),
        reg.get("i1").unwrap(),
    ]);
    assert_eq!(out1.provenance(&Tuple::parse(&["1"])).coefficient(&m1), 1);
    // Qfalse2 derives (1) from p1*h1*i4 (Figure 2c).
    let (out2, _) = Evaluator::new(&fx.db).eval_cq(&fx.qfalse2);
    let m2 = provabs::semiring::Monomial::from_annots([
        reg.get("p1").unwrap(),
        reg.get("h1").unwrap(),
        reg.get("i4").unwrap(),
    ]);
    assert_eq!(out2.provenance(&Tuple::parse(&["1"])).coefficient(&m2), 1);
}

#[test]
fn proposition_3_5_concretization_counts() {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    // A1_T: |C| = 5 * 3 = 15; A2_T: |C| = 4 * 5 = 20.
    let mut a1 = Abstraction::identity(&bound);
    lift(&bound, &mut a1, "h1", 1);
    lift(&bound, &mut a1, "h2", 1);
    assert_eq!(
        concretize::concretization_count(&bound, &a1.apply(&bound).rows),
        15
    );
    let mut a2 = Abstraction::identity(&bound);
    lift(&bound, &mut a2, "i1", 1);
    lift(&bound, &mut a2, "i2", 1);
    assert_eq!(
        concretize::concretization_count(&bound, &a2.apply(&bound).rows),
        20
    );
}

#[test]
fn example_3_13_privacy_of_exabs1_is_2() {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    let mut a1 = Abstraction::identity(&bound);
    lift(&bound, &mut a1, "h1", 1);
    lift(&bound, &mut a1, "h2", 1);
    let cache = PrivacyCache::new();
    let out = compute_privacy(
        &bound,
        &a1.apply(&bound).rows,
        &PrivacyConfig {
            threshold: 2,
            ..Default::default()
        },
        &cache,
    );
    assert_eq!(out.privacy, Some(2));
    let keys: Vec<String> = out.cim.iter().map(canonical_key).collect();
    assert!(keys.contains(&canonical_key(&fx.qreal)));
    assert!(keys.contains(&canonical_key(&fx.qfalse1)));
}

#[test]
fn example_4_2_exabs3_fails_threshold_2() {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    let mut a3 = Abstraction::identity(&bound);
    lift(&bound, &mut a3, "i1", 1); // i1 -> WikiLeaks
    let cache = PrivacyCache::new();
    let out = compute_privacy(
        &bound,
        &a3.apply(&bound).rows,
        &PrivacyConfig {
            threshold: 2,
            ..Default::default()
        },
        &cache,
    );
    assert_eq!(out.privacy, None); // the paper's "-1"
}

#[test]
fn example_3_11_qreal_strictly_contained_in_qgeneral() {
    let fx = fixtures::running_example();
    assert!(contained_in(
        &fx.qreal,
        &fx.qgeneral,
        ContainmentMode::Bijective
    ));
    assert!(!contained_in(
        &fx.qgeneral,
        &fx.qreal,
        ContainmentMode::Bijective
    ));
}

#[test]
fn example_3_15_and_4_3_optimal_abstraction() {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    let out = find_optimal_abstraction(
        &bound,
        &SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let best = out.best.expect("optimal abstraction exists");
    assert_eq!(best.privacy, 2);
    assert_eq!(best.edges_used, 2);
    assert!((best.loi - 15f64.ln()).abs() < 1e-9, "LOI must be ln 15");
}

#[test]
fn brute_force_and_heuristic_search_agree() {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    for k in [1usize, 2, 3] {
        let optimized = find_optimal_abstraction(
            &bound,
            &SearchConfig {
                privacy: PrivacyConfig {
                    threshold: k,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let brute = find_optimal_abstraction(
            &bound,
            &SearchConfig {
                privacy: PrivacyConfig {
                    threshold: k,
                    row_by_row: false,
                    connectivity_filter: false,
                    caching: false,
                    ..Default::default()
                },
                sort_abstractions: false,
                prioritize_loi: false,
                early_termination: false,
                ..Default::default()
            },
        );
        match (optimized.best, brute.best) {
            (Some(o), Some(b)) => {
                assert!(
                    (o.loi - b.loi).abs() < 1e-9,
                    "k={k}: {} vs {}",
                    o.loi,
                    b.loi
                )
            }
            (None, None) => {}
            (o, b) => panic!("k={k}: disagreement {o:?} vs {b:?}"),
        }
    }
}
