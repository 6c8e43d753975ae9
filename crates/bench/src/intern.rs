//! The interning-comparison axis: memoized hash-consed provenance versus
//! the owned-polynomial path on the TPC-H abstraction-search scenario (the
//! `micro_intern` bench and the `BENCH_3.json` CI perf gate both drive
//! this).
//!
//! Two scenario families, each contributing deterministic work counters the
//! gate can diff:
//!
//! * `search/<query>` — Algorithm 2 runs twice per mode (a cold search plus
//!   a repeat, the incremental engine's warm-restart pattern). The counter
//!   is **rows re-abstracted**: with
//!   [`SearchConfig::memoize_abstractions`] each distinct
//!   `(row provenance, per-row lifts)` pair is materialized once per bound;
//!   without it every privacy-evaluated candidate re-abstracts every row.
//! * `eval/<query>` — the same workload query evaluated for several rounds.
//!   The counter is **retained polynomial/monomial constructions**: the
//!   owned boundary (`Evaluator::eval_cq` creates a throwaway arena per
//!   call — that *is* its implementation) pays fresh constructions every
//!   evaluation, the interned path keeps one [`ProvStore`] whose
//!   hash-consing answers later rounds in O(1).
//!
//! Measurement scope, stated plainly: both `eval/` modes run the same join
//! engine — the comparison isolates *arena persistence* (cross-evaluation
//! reuse), not engine-vs-engine speed, and with perfect reuse the ratio is
//! structurally `1/eval_rounds` (the gate pins `eval_rounds`, so the
//! baseline ratio is meaningful and a rising ratio means the memo stopped
//! hitting). The `search/` scenarios are the true A/B against the
//! owned-application path ([`Abstraction::apply`](provabs_core::Abstraction)
//! per candidate).
//!
//! Result equality between the two modes is asserted inside each scenario,
//! so a run that completes with `equal: true` *is* the correctness witness.

use crate::report::GateEntry;
use crate::scenario::{tpch_scenarios, Scenario, ScenarioSettings};
use provabs_core::privacy::{PrivacyCache, PrivacyConfig};
use provabs_core::search::{find_optimal_abstraction_with_cache, SearchConfig, SearchOutcome};
use provabs_core::Bound;
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_relational::{Evaluator, Execution, PlanMode};
use provabs_semiring::ProvStore;
use std::time::Instant;

/// Shape of one interning-comparison sweep.
#[derive(Debug, Clone)]
pub struct InternSettings {
    /// TPC-H scale (lineitem rows).
    pub lineitem_rows: usize,
    /// Abstraction-tree leaves for the search scenarios.
    pub tree_leaves: usize,
    /// Abstraction-tree height.
    pub tree_height: u32,
    /// K-example rows.
    pub example_rows: usize,
    /// Privacy threshold `k` of the search scenarios.
    pub threshold: usize,
    /// Candidate cap per search (deterministic truncation).
    pub max_candidates: usize,
    /// Concretization cap per privacy evaluation.
    pub max_concretizations: usize,
    /// Alignment cap per consistency call.
    pub max_alignments: usize,
    /// Searches per mode (cold + repeats; ≥ 2 exercises the warm path).
    pub search_repeats: usize,
    /// Workload queries swept by the `search/` scenarios.
    pub search_queries: Vec<String>,
    /// Evaluation rounds per `eval/` scenario.
    pub eval_rounds: usize,
    /// Workload queries swept by the `eval/` scenarios.
    pub eval_queries: Vec<String>,
    /// Generator / tree seed.
    pub seed: u64,
    /// Atom-order mode of every evaluation (scenario construction and the
    /// `eval/` rounds). Defaults to [`PlanMode::Greedy`] — the pre-planner
    /// order the checked-in `BENCH_3.json` scenarios were built under (the
    /// output-capped K-example extraction keeps a different output subset
    /// under a different plan).
    pub plan_mode: PlanMode,
}

impl Default for InternSettings {
    fn default() -> Self {
        Self {
            lineitem_rows: 600,
            tree_leaves: 48,
            tree_height: 4,
            example_rows: 2,
            threshold: 3,
            max_candidates: 4_000,
            max_concretizations: 3_000,
            max_alignments: 3_000,
            search_repeats: 2,
            search_queries: vec!["TPCH-Q3".into(), "TPCH-Q10".into()],
            eval_rounds: 3,
            eval_queries: vec!["TPCH-Q3".into(), "TPCH-Q4".into(), "TPCH-Q10".into()],
            seed: 42,
            plan_mode: PlanMode::Greedy,
        }
    }
}

impl InternSettings {
    /// The fixed configuration of the CI perf gate: small enough for a
    /// 1-CPU runner, deterministic (sequential search, no time budget), and
    /// the shape `BENCH_3.json` is built from. Changing this invalidates
    /// the checked-in baseline — re-emit it.
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// Runs every scenario of `settings`, returning one metric per scenario.
pub fn run_intern_comparison(settings: &InternSettings) -> Vec<GateEntry> {
    let mut out = Vec::new();
    let scenario_settings = ScenarioSettings {
        threshold: settings.threshold,
        tree_leaves: settings.tree_leaves,
        tree_height: settings.tree_height,
        rows: settings.example_rows,
        tpch_lineitems: settings.lineitem_rows,
        seed: settings.seed,
        plan_mode: settings.plan_mode,
        ..Default::default()
    };
    let scenarios = tpch_scenarios(&scenario_settings);
    for qname in &settings.search_queries {
        let Some(s) = scenarios.iter().find(|s| &s.name == qname) else {
            continue;
        };
        if let Some(m) = search_metric(s, settings) {
            out.push(m);
        }
    }
    let (db_proto, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    let mut db = db_proto;
    db.build_indexes();
    let workloads = tpch::tpch_queries(db.schema());
    for qname in &settings.eval_queries {
        let Some(w) = workloads.iter().find(|w| &w.name == qname) else {
            continue;
        };
        out.push(eval_metric(
            &db,
            qname,
            &w.query,
            settings.eval_rounds,
            settings.plan_mode,
        ));
    }
    out
}

fn search_config(settings: &InternSettings, memoize: bool) -> SearchConfig {
    SearchConfig {
        privacy: PrivacyConfig {
            threshold: settings.threshold,
            max_concretizations: settings.max_concretizations,
            max_alignments: settings.max_alignments,
            ..Default::default()
        },
        max_candidates: settings.max_candidates,
        time_budget_ms: None, // wall-clock budgets break determinism
        parallelism: Some(1),
        memoize_abstractions: memoize,
        ..Default::default()
    }
}

/// Fingerprint of a search outcome for the cross-mode equality check.
fn outcome_key(out: &SearchOutcome) -> Option<(Vec<Vec<u32>>, usize, u32, u64)> {
    out.best.as_ref().map(|b| {
        (
            b.abstraction.lifts.clone(),
            b.privacy,
            b.edges_used,
            b.loi.to_bits(),
        )
    })
}

/// One `search/` scenario: `search_repeats` searches per mode on one bound,
/// counting rows re-abstracted.
fn search_metric(scenario: &Scenario, settings: &InternSettings) -> Option<GateEntry> {
    let bound = Bound::new(&scenario.db, &scenario.tree, &scenario.example).ok()?;
    let run_mode = |memoize: bool| {
        let cfg = search_config(settings, memoize);
        let cache = PrivacyCache::new();
        let mut rows_abstracted = 0u64;
        let mut hits = 0u64;
        let mut last = None;
        let t0 = Instant::now();
        for _ in 0..settings.search_repeats.max(1) {
            let out = find_optimal_abstraction_with_cache(&bound, &cfg, &cache);
            rows_abstracted += out.stats.rows_abstracted as u64;
            hits += out.stats.abs_cache_hits as u64;
            last = Some(out);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        (rows_abstracted, hits, ms, last.expect("ran at least once"))
    };
    let (owned_work, _, owned_ms, owned_out) = run_mode(false);
    let (cached_work, memo_hits, cached_ms, cached_out) = run_mode(true);
    Some(
        GateEntry::new(format!("search/{}", scenario.name))
            .count("cached_work", cached_work)
            .count("owned_work", owned_work)
            .count("memo_hits", memo_hits)
            .count("memo_misses", cached_work)
            .ratio("work_ratio", cached_work, owned_work)
            .ratio("hit_rate", memo_hits, memo_hits + cached_work)
            .ms("cached_ms", cached_ms)
            .ms("owned_ms", owned_ms)
            .flag("equal", outcome_key(&owned_out) == outcome_key(&cached_out)),
    )
}

/// One `eval/` scenario: `rounds` evaluations of the same query — fresh
/// arena per round (the owned boundary) versus one persistent arena —
/// counting retained constructions.
fn eval_metric(
    db: &provabs_relational::Database,
    qname: &str,
    query: &provabs_relational::Cq,
    rounds: usize,
    mode: PlanMode,
) -> GateEntry {
    let rounds = rounds.max(1);
    let mut owned_work = 0u64;
    let mut owned_ms = 0.0f64;
    let mut owned_results = Vec::with_capacity(rounds);
    // BENCH_3 replays counters recorded on the scalar engine.
    let eval = Evaluator::new(db).plan(mode).execution(Execution::Scalar);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let mut store = ProvStore::new();
        let (out, _) = eval.interned(&mut store).eval_cq(query);
        let owned = out.to_krelation(&store);
        owned_ms += t0.elapsed().as_secs_f64() * 1e3;
        owned_work += store.work().constructions();
        owned_results.push(owned);
    }
    let mut store = ProvStore::new();
    let mut cached_ms = 0.0f64;
    let mut cached_results = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let (out, _) = eval.interned(&mut store).eval_cq(query);
        cached_ms += t0.elapsed().as_secs_f64() * 1e3;
        cached_results.push(out.to_krelation(&store));
    }
    let w = store.work();
    let (cached_work, memo_hits) = (w.constructions(), w.mono_hits + w.poly_hits + w.memo_hits);
    let memo_misses = cached_work + w.memo_misses;
    GateEntry::new(format!("eval/{qname}"))
        .count("cached_work", cached_work)
        .count("owned_work", owned_work)
        .count("memo_hits", memo_hits)
        .count("memo_misses", memo_misses)
        .ratio("work_ratio", cached_work, owned_work)
        .ratio("hit_rate", memo_hits, memo_hits + memo_misses)
        .ms("cached_ms", cached_ms)
        .ms("owned_ms", owned_ms)
        .flag("equal", owned_results == cached_results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    fn quick_settings() -> InternSettings {
        InternSettings {
            lineitem_rows: 300,
            search_queries: vec!["TPCH-Q3".into()],
            eval_queries: vec!["TPCH-Q4".into()],
            ..Default::default()
        }
    }

    #[test]
    fn comparison_confirms_equality_and_savings() {
        let metrics = run_intern_comparison(&quick_settings());
        assert_eq!(metrics.len(), 2);
        let rules = Gate::named("intern").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let settings = InternSettings {
            search_queries: vec!["TPCH-Q3".into()],
            eval_queries: vec!["TPCH-Q4".into()],
            ..InternSettings::ci_gate()
        };
        let a = run_intern_comparison(&settings);
        let b = run_intern_comparison(&settings);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.counts(), y.counts(), "{}", x.name);
        }
    }
}
