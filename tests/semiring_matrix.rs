//! The Table 4 matrix: privacy computation across provenance semirings and
//! query classes.

use provabs::core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig, QueryClass};
use provabs::core::{fixtures, Abstraction, Bound};
use provabs::semiring::SemiringKind;

fn exabs1_privacy(semiring: SemiringKind, query_class: QueryClass) -> Option<usize> {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    let mut abs = Abstraction::identity(&bound);
    for name in ["h1", "h2"] {
        let id = fx.db.annotations().get(name).unwrap();
        for r in 0..bound.num_rows() {
            for (i, &a) in bound.row_occurrences(r).iter().enumerate() {
                if a == id {
                    abs.lifts[r][i] = 1;
                }
            }
        }
    }
    let cache = PrivacyCache::new();
    compute_privacy(
        &bound,
        &abs.apply(&bound).rows,
        &PrivacyConfig {
            threshold: 1,
            semiring,
            query_class,
            ..Default::default()
        },
        &cache,
    )
    .privacy
}

#[test]
fn gray_cell_nx_and_bx_agree() {
    // B[X] only drops coefficients — Algorithm 1 is unchanged (§4 gray cell).
    let nx = exabs1_privacy(SemiringKind::NX, QueryClass::Cq);
    let bx = exabs1_privacy(SemiringKind::BX, QueryClass::Cq);
    assert_eq!(nx, Some(2));
    assert_eq!(bx, Some(2));
}

#[test]
fn red_cell_exponent_dropping_semirings_work() {
    // Why/Trio/PosBool drop exponents; the running example has no
    // exponents > 1, so privacy should not collapse (expansion may add
    // candidates but the CIM count stays >= 1 with Qreal present).
    for kind in [SemiringKind::Why, SemiringKind::Trio, SemiringKind::PosBool] {
        let p = exabs1_privacy(kind, QueryClass::Cq);
        assert!(p.is_some(), "{kind} returned no privacy");
        assert!(p.unwrap() >= 1, "{kind} lost the original query");
    }
}

#[test]
fn orange_cell_ucq_privacy_counts_at_least_cq_privacy() {
    let cq = exabs1_privacy(SemiringKind::NX, QueryClass::Cq).unwrap();
    let ucq = exabs1_privacy(SemiringKind::NX, QueryClass::Ucq).unwrap();
    assert!(
        ucq >= cq,
        "every CIM CQ is a single-disjunct CIM UCQ candidate: {ucq} < {cq}"
    );
}

#[test]
fn lin_semiring_has_no_reverse_engineering() {
    assert!(!SemiringKind::Lin.supports_reverse_engineering());
}

#[test]
fn coarsening_respects_hierarchy_on_real_provenance() {
    // Evaluate Qreal and check that coarsenings only merge information.
    let fx = fixtures::running_example();
    let (out, _) = provabs::relational::Evaluator::new(&fx.db).eval_cq(&fx.qreal);
    for (_, poly) in out.iter() {
        let bx = poly.coarsen(SemiringKind::BX);
        let why = poly.coarsen(SemiringKind::Why);
        let lin = poly.coarsen(SemiringKind::Lin);
        assert!(bx.num_monomials() <= poly.num_monomials());
        assert!(why.num_monomials() <= bx.num_monomials());
        assert_eq!(lin.num_monomials(), 1);
        // Variables never grow under coarsening.
        assert_eq!(lin.variables(), poly.variables());
    }
}
