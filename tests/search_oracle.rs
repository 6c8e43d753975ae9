//! Algorithm 2 against a naive oracle.
//!
//! The oracle shares nothing with the search engine but the definitions:
//! it walks every lift vector in odometer order, scores it with
//! `loss_of_information` and, when that would lower the least LOI found so
//! far, runs Algorithm 1 (`compute_privacy`) on it with a fresh
//! `PrivacyCache`; it keeps the least LOI whose privacy reaches the
//! threshold. No edge-count buckets, no sorting, no `minLOI` barrier, no
//! worker pool.
//! Every search configuration — each `prioritize_loi`/`early_termination`
//! combination, 0, 1, 2 and 8 workers, cold and warm-restarted — must
//! return an abstraction of exactly that LOI whose privacy, recomputed,
//! reaches the threshold; or nothing, when the oracle finds nothing.

use provabs::core::loi::{loss_of_information, LoiDistribution};
use provabs::core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs::core::search::{
    find_optimal_abstraction_incremental, find_optimal_abstraction_with_cache, SearchConfig,
    SearchOutcome,
};
use provabs::core::{fixtures, Abstraction, Bound};
use provabs_bench::{tpch_scenarios, ScenarioSettings};

/// The privacy of `abs` if it reaches the threshold, from a fresh cache.
fn privacy_of(bound: &Bound<'_>, abs: &Abstraction, cfg: &PrivacyConfig) -> Option<usize> {
    compute_privacy(bound, &abs.apply(bound).rows, cfg, &PrivacyCache::new()).privacy
}

/// The least LOI over every abstraction of `bound` with privacy at least
/// `cfg.threshold`, or `None` when no abstraction reaches it.
fn oracle(bound: &Bound<'_>, cfg: &PrivacyConfig) -> Option<f64> {
    let occs = bound.occurrences();
    let max: Vec<u32> = occs.iter().map(|&(r, i)| bound.max_lift(r, i)).collect();
    let mut lifts = vec![0u32; occs.len()];
    let mut best: Option<f64> = None;
    loop {
        let mut abs = Abstraction::identity(bound);
        for (&(r, i), &l) in occs.iter().zip(&lifts) {
            abs.lifts[r][i] = l;
        }
        let loi = loss_of_information(bound, &abs, &LoiDistribution::Uniform);
        if best.is_none_or(|b| loi < b) && privacy_of(bound, &abs, cfg).is_some() {
            best = Some(loi);
        }
        // Odometer step: the last occurrence turns fastest.
        let Some(j) = (0..lifts.len()).rev().find(|&j| lifts[j] < max[j]) else {
            return best;
        };
        lifts[j] += 1;
        lifts[j + 1..].fill(0);
    }
}

fn check(
    name: &str,
    bound: &Bound<'_>,
    expected: Option<f64>,
    out: &SearchOutcome,
    cfg: &SearchConfig,
) {
    assert!(!out.stats.truncated, "{name}: truncated");
    match (expected, &out.best) {
        (None, None) => {}
        (Some(loi), Some(best)) => {
            assert!(
                (best.loi - loi).abs() < 1e-9,
                "{name}: loi {} vs oracle {loi}",
                best.loi
            );
            let rescored = loss_of_information(bound, &best.abstraction, &LoiDistribution::Uniform);
            assert!(
                (rescored - best.loi).abs() < 1e-9,
                "{name}: reported loi is not the abstraction's"
            );
            let privacy = privacy_of(bound, &best.abstraction, &cfg.privacy);
            assert_eq!(
                privacy,
                Some(best.privacy),
                "{name}: privacy does not recompute"
            );
        }
        (e, b) => panic!(
            "{name}: oracle found {e:?}, search found {:?}",
            b.as_ref().map(|b| b.loi)
        ),
    }
}

/// Every engine configuration against the oracle, cold and warm-restarted
/// from its own cold result.
fn assert_matches_oracle(label: &str, bound: &Bound<'_>, privacy: PrivacyConfig) -> Option<f64> {
    let expected = oracle(bound, &privacy);
    // One cache for every configuration: it memoizes deterministic
    // functions, so sharing it changes work counters, never answers.
    let cache = PrivacyCache::new();
    for prioritize_loi in [true, false] {
        for early_termination in [true, false] {
            for parallelism in [Some(0), Some(1), Some(2), Some(8)] {
                let cfg = SearchConfig {
                    privacy: privacy.clone(),
                    prioritize_loi,
                    early_termination,
                    parallelism,
                    ..Default::default()
                };
                let name = format!(
                    "{label} k={} prioritize={prioritize_loi} early={early_termination} \
                     {parallelism:?}",
                    privacy.threshold
                );
                let cold = find_optimal_abstraction_with_cache(bound, &cfg, &cache);
                check(&format!("{name} cold"), bound, expected, &cold, &cfg);
                let warm =
                    find_optimal_abstraction_incremental(bound, &cfg, &cache, cold.best.as_ref());
                check(&format!("{name} warm"), bound, expected, &warm, &cfg);
                assert_eq!(warm.stats.warm_start_used, cold.best.is_some(), "{name}");
            }
        }
    }
    expected
}

fn running_example_at(threshold: usize) -> Option<f64> {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    let privacy = PrivacyConfig {
        threshold,
        ..Default::default()
    };
    assert_matches_oracle("running example", &bound, privacy)
}

// One test per threshold, so that the harness runs them side by side.
#[test]
fn running_example_k1_matches_oracle() {
    assert_eq!(running_example_at(1), Some(0.0)); // the identity
}

#[test]
fn running_example_k2_matches_oracle() {
    // Example 3.15: the optimum lifts h1 and h2 one level, LOI ln 15.
    let loi = running_example_at(2).expect("Example 3.15 has an answer");
    assert!((loi - 15f64.ln()).abs() < 1e-9, "loi = {loi}");
}

#[test]
fn running_example_k3_matches_oracle() {
    running_example_at(3);
}

#[test]
fn running_example_k4_matches_oracle() {
    running_example_at(4);
}

#[test]
fn tpch_q3_matches_oracle() {
    // Two rows over a height-3 tree: six occurrences, two of them in the
    // tree, so 4^2 = 16 abstractions.
    let settings = ScenarioSettings {
        tree_leaves: 20,
        tree_height: 3,
        rows: 2,
        tpch_lineitems: 200,
        ..Default::default()
    };
    let scenarios = tpch_scenarios(&settings);
    let s = scenarios
        .iter()
        .find(|s| s.name == "TPCH-Q3")
        .expect("TPCH-Q3");
    let bound = Bound::new(&s.db, &s.tree, &s.example).unwrap();
    // At k = 3 an abstraction exists; no abstraction reaches k = 6.
    for (threshold, found) in [(3, true), (6, false)] {
        let privacy = PrivacyConfig {
            threshold,
            max_concretizations: 20_000,
            ..Default::default()
        };
        let expected = assert_matches_oracle("TPCH-Q3", &bound, privacy);
        assert_eq!(expected.is_some(), found, "k = {threshold}");
    }
}
