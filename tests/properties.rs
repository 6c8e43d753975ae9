//! Cross-crate property-based tests on the core invariants.

use proptest::prelude::*;
use provabs::core::loi::{loss_of_information, LoiDistribution};
use provabs::core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs::core::{concretize, fixtures, Abstraction, Bound};
use provabs::reveng::{
    canonical_key, cim_queries, find_consistent_queries, ContainmentMode, RevOptions,
};

/// Strategy: a random abstraction of the running example (lift per
/// occurrence bounded by its chain depth, max 3 here).
fn arb_lifts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=3, 6)
}

fn clamp_to_bound(bound: &Bound<'_>, lifts: &[u32]) -> Abstraction {
    let mut abs = Abstraction::identity(bound);
    let mut idx = 0;
    for r in 0..bound.num_rows() {
        for i in 0..bound.row_occurrences(r).len() {
            abs.lifts[r][i] = lifts[idx].min(bound.max_lift(r, i));
            idx += 1;
        }
    }
    abs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniform LOI equals ln of the concretization count (Def. 3.6 +
    /// Prop. 3.5).
    #[test]
    fn loi_is_log_of_concretization_count(lifts in arb_lifts()) {
        let fx = fixtures::running_example();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = clamp_to_bound(&bound, &lifts);
        let rows = abs.apply(&bound).rows;
        let count = concretize::concretization_count(&bound, &rows) as f64;
        let loi = loss_of_information(&bound, &abs, &LoiDistribution::Uniform);
        prop_assert!((loi - count.ln()).abs() < 1e-9);
    }

    /// The abstraction's edge count and LOI are consistent: zero edges ⇔
    /// zero LOI.
    #[test]
    fn edges_zero_iff_loi_zero(lifts in arb_lifts()) {
        let fx = fixtures::running_example();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = clamp_to_bound(&bound, &lifts);
        let loi = loss_of_information(&bound, &abs, &LoiDistribution::Uniform);
        if abs.edges_used() == 0 {
            prop_assert_eq!(loi, 0.0);
        } else {
            prop_assert!(loi > 0.0);
        }
    }

    /// Privacy never decreases under pointwise-larger abstractions when the
    /// original concretization survives: the concretization set only grows,
    /// so the CIM count cannot drop below what the smaller set certified...
    /// (not true in general for CIM due to minimality; what *is* invariant:
    /// the original query stays consistent). We check the weaker, always
    /// sound invariant: the original query is among the consistent queries
    /// of the *identity* concretization for any abstraction.
    #[test]
    fn original_query_always_consistent(lifts in arb_lifts()) {
        let fx = fixtures::running_example();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let _abs = clamp_to_bound(&bound, &lifts);
        // The identity concretization (original rows) is in every
        // concretization set; Qreal is consistent w.r.t. it.
        let rows = fx.exreal.resolve(&fx.db).unwrap();
        let frontier = find_consistent_queries(&rows, &RevOptions::default());
        let qreal = canonical_key(&fx.qreal);
        prop_assert!(frontier.queries.iter().any(|(key, _)| *key == qreal));
    }

    /// CIM extraction is idempotent and anti-chain: no CIM query strictly
    /// contains another.
    #[test]
    fn cim_is_an_antichain(lifts in arb_lifts()) {
        let fx = fixtures::running_example();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = clamp_to_bound(&bound, &lifts);
        let rows = abs.apply(&bound).rows;
        let cache = PrivacyCache::new();
        let out = compute_privacy(
            &bound,
            &rows,
            &PrivacyConfig { threshold: 1, max_concretizations: 3000, ..Default::default() },
            &cache,
        );
        let cim = out.cim;
        for q1 in &cim {
            for q2 in &cim {
                if canonical_key(q1) != canonical_key(q2) {
                    prop_assert!(
                        !provabs::reveng::strictly_contained(q1, q2, ContainmentMode::Bijective),
                        "CIM set is not an antichain"
                    );
                }
            }
        }
        // Idempotence.
        let again = cim_queries(&cim, ContainmentMode::Bijective);
        prop_assert_eq!(again.len(), cim.len());
    }

    /// Ablation flags never change the privacy value (only the speed).
    #[test]
    fn ablation_flags_preserve_privacy(lifts in arb_lifts(), row_by_row in any::<bool>(), conn in any::<bool>(), caching in any::<bool>()) {
        let fx = fixtures::running_example();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = clamp_to_bound(&bound, &lifts);
        let rows = abs.apply(&bound).rows;
        let c1 = PrivacyCache::new();
        let c2 = PrivacyCache::new();
        let reference = compute_privacy(
            &bound,
            &rows,
            &PrivacyConfig { threshold: 1, max_concretizations: 100_000, ..Default::default() },
            &c1,
        );
        let variant = compute_privacy(
            &bound,
            &rows,
            &PrivacyConfig {
                threshold: 1,
                row_by_row,
                connectivity_filter: conn,
                caching,
                max_concretizations: 100_000,
                ..Default::default()
            },
            &c2,
        );
        prop_assert_eq!(reference.privacy, variant.privacy);
    }
}
