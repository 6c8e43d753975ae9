//! The dual problem (§4, "The dual problem"): maximize privacy subject to a
//! loss-of-information budget `l_max`.
//!
//! Algorithm 2 is patched as the paper prescribes — track the best privacy
//! `p_best`, consider only abstractions within the budget, terminate once
//! every remaining bucket exceeds `l_max` — with one correction: the paper's
//! literal line-6 patch (`l < min(l_best, l_max)`) degenerates whenever the
//! identity abstraction already has positive privacy (`l_best` becomes 0 and
//! everything else is pruned, even though more abstraction usually yields
//! more privacy). We preserve the intent — avoid expensive privacy
//! evaluations that cannot improve the incumbent — by gating each privacy
//! computation at threshold `p_best + 1`, which Algorithm 1 rejects cheaply.

use crate::loi::LoiDistribution;
use crate::privacy::{PrivacyCache, PrivacyConfig};
use crate::search::{
    evaluate_candidate, AbstractionSpace, BestAbstraction, SearchOutcome, SearchStats,
};
use crate::Bound;

/// Configuration of the dual search.
#[derive(Debug, Clone)]
pub struct DualConfig {
    /// Privacy-evaluation settings. The `threshold` field is managed by the
    /// search itself (it tracks `p_best`).
    pub privacy: PrivacyConfig,
    /// The loss-of-information budget `l_max`.
    pub l_max: f64,
    /// Hard cap on abstractions enumerated.
    pub max_candidates: usize,
    /// The loss-of-information distribution.
    pub distribution: LoiDistribution,
}

impl Default for DualConfig {
    fn default() -> Self {
        Self {
            privacy: PrivacyConfig::default(),
            l_max: 3.0,
            max_candidates: 1_000_000,
            distribution: LoiDistribution::Uniform,
        }
    }
}

/// Finds an abstraction maximizing privacy among those with
/// `LOI ≤ l_max` (ties resolved toward smaller LOI, as in the paper's
/// patched Algorithm 2).
///
/// ```
/// use provabs_core::dual::{find_max_privacy_abstraction, DualConfig};
/// use provabs_core::{fixtures, Bound};
///
/// let fx = fixtures::running_example();
/// let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
/// // Example 3.15 inverted: with an LOI budget of ln 15 the search can
/// // afford the A1_T abstraction, which reaches privacy 2.
/// let cfg = DualConfig { l_max: 15f64.ln() + 1e-9, ..Default::default() };
/// let best = find_max_privacy_abstraction(&bound, &cfg).best.unwrap();
/// assert!(best.privacy >= 2);
/// assert!(best.loi <= cfg.l_max);
/// ```
pub fn find_max_privacy_abstraction(bound: &Bound<'_>, cfg: &DualConfig) -> SearchOutcome {
    let space = AbstractionSpace::new(bound, &cfg.distribution);
    let mut stats = SearchStats::default();
    let cache = PrivacyCache::new();
    let mut best: Option<BestAbstraction> = None;
    let min_loi = space.min_loi_by_edges();
    for e in 0..=space.total_edges() {
        if min_loi[e as usize] > cfg.l_max {
            break; // every later bucket exceeds the budget (monotone)
        }
        let budget = cfg
            .max_candidates
            .saturating_sub(stats.abstractions_enumerated);
        let (bucket, complete) = space.sorted_bucket(e, budget, |loi| loi <= cfg.l_max);
        stats.abstractions_enumerated += bucket.len();
        stats.loi_evaluations += bucket.len();
        for (loi, lifts) in &bucket {
            let abs = space.to_abstraction(bound, lifts);
            // Gate at p_best + 1: only an improvement updates the incumbent,
            // and Algorithm 1 rejects non-improving abstractions cheaply.
            let privacy = PrivacyConfig {
                threshold: best.as_ref().map_or(0, |b| b.privacy) + 1,
                ..cfg.privacy.clone()
            };
            if let Some(p) = evaluate_candidate(bound, &abs, &privacy, true, &cache, &mut stats) {
                best = Some(BestAbstraction::new(abs, *loi, p));
            }
        }
        // An incomplete bucket means the candidate cap was reached.
        if !complete {
            stats.truncated = true;
            break;
        }
    }
    SearchOutcome { best, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;

    fn dual_with(l_max: f64) -> SearchOutcome {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        find_max_privacy_abstraction(
            &b,
            &DualConfig {
                l_max,
                ..Default::default()
            },
        )
    }

    #[test]
    fn budget_zero_gives_identity() {
        let out = dual_with(0.0);
        let best = out.best.unwrap();
        assert_eq!(best.loi, 0.0);
        assert_eq!(best.edges_used, 0);
        assert_eq!(best.privacy, 1); // the identity reveals only Qreal
    }

    #[test]
    fn budget_ln15_reaches_privacy_2() {
        // With l_max = ln 15 the A1_T abstraction is affordable.
        let out = dual_with(15f64.ln() + 1e-9);
        let best = out.best.unwrap();
        assert!(best.privacy >= 2, "privacy = {}", best.privacy);
        assert!(best.loi <= 15f64.ln() + 1e-9);
    }

    #[test]
    fn tight_budget_caps_privacy() {
        // A budget below ln 3 (the cheapest non-trivial lift is LinkedIn's
        // ln 3) only allows the identity.
        let out = dual_with(1.0);
        let best = out.best.unwrap();
        assert_eq!(best.privacy, 1);
        assert_eq!(best.edges_used, 0);
    }

    #[test]
    fn larger_budgets_never_reduce_privacy() {
        let mut last = 0;
        for l_max in [0.0, 1.5, 2.8, 4.0] {
            let p = dual_with(l_max).best.map_or(0, |b| b.privacy);
            assert!(p >= last, "privacy dropped at budget {l_max}");
            last = p;
        }
    }

    #[test]
    fn zero_candidate_cap_enumerates_nothing() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let cfg = DualConfig {
            max_candidates: 0,
            ..Default::default()
        };
        let out = find_max_privacy_abstraction(&b, &cfg);
        assert_eq!(out.stats.abstractions_enumerated, 0);
        assert_eq!(out.stats.privacy_evaluations, 0);
        assert!(out.stats.truncated && out.best.is_none());
    }
}
