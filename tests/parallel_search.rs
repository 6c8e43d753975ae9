//! The parallel search engine's determinism contract, end to end: for the
//! running example and a TPC-H workload query, `parallelism: None` (all
//! cores), `Some(1)` (the sequential trace) and explicit pool sizes must
//! return the same optimum — same abstraction, same LOI, same privacy.
//! The cost-based query planner joins the contract: plans and engine work
//! counters are pure functions of database content + query, so they may
//! not move with the thread count either.

use provabs::core::privacy::{PrivacyCache, PrivacyConfig};
use provabs::core::search::{
    find_optimal_abstraction, find_optimal_abstraction_with_cache, SearchConfig,
};
use provabs::core::{fixtures, Bound};
use provabs::relational::{plan_cq, Evaluator, PlanMode};
use provabs_bench::{tpch_scenarios, ScenarioSettings};
use provabs_datagen::tpch::{self, TpchConfig};

fn cfg(parallelism: Option<usize>, threshold: usize) -> SearchConfig {
    SearchConfig {
        privacy: PrivacyConfig {
            threshold,
            max_concretizations: 20_000,
            ..Default::default()
        },
        parallelism,
        ..Default::default()
    }
}

#[test]
fn running_example_same_best_across_thread_counts() {
    let fx = fixtures::running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    let seq = find_optimal_abstraction(&bound, &cfg(Some(1), 2))
        .best
        .expect("sequential optimum");
    assert!((seq.loi - 15f64.ln()).abs() < 1e-9); // Example 3.15: ln 15
    for parallelism in [None, Some(2), Some(4)] {
        let par = find_optimal_abstraction(&bound, &cfg(parallelism, 2))
            .best
            .expect("parallel optimum");
        assert_eq!(par.abstraction, seq.abstraction, "{parallelism:?}");
        assert_eq!(par.privacy, seq.privacy);
        assert_eq!(par.edges_used, seq.edges_used);
        assert!((par.loi - seq.loi).abs() < 1e-12);
    }
}

#[test]
fn query_plans_and_work_counters_identical_across_parallelism() {
    // The TPC-H fixture of the parallel-determinism suite. `plan_cq` and
    // the engine take no thread count, so the parallelism-sensitive claim
    // is this: evaluating the whole workload through the shared-`&Database`
    // parallel batch evaluator at 1, 2 or 8 workers (a) returns the same
    // outputs in the same slots, and (b) leaves the database — and
    // therefore the statistics every plan reads — untouched, so planning
    // and counting again *after* each parallel run still reproduces the
    // reference `QueryPlan`s and `EvalWork`/`PlanWork` counters bit for
    // bit, in every mode.
    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 400,
        seed: 42,
    });
    db.build_indexes();
    let workloads = tpch::tpch_queries(db.schema());
    let queries: Vec<_> = workloads.iter().map(|w| w.query.clone()).collect();
    let modes = [
        PlanMode::CostBased,
        PlanMode::Greedy,
        PlanMode::WrittenOrder,
    ];
    // Reference plans and counters, computed once before any parallel run.
    let plans: Vec<Vec<_>> = modes
        .iter()
        .map(|&mode| {
            queries
                .iter()
                .map(|q| plan_cq(&db, q, mode, None))
                .collect()
        })
        .collect();
    let reference: Vec<_> = queries
        .iter()
        .map(|q| Evaluator::new(&db).eval_cq(q))
        .collect();
    for parallelism in [1usize, 2, 8] {
        let batch = Evaluator::new(&db).eval_batch(&queries, parallelism);
        for (i, w) in workloads.iter().enumerate() {
            assert_eq!(
                batch[i], reference[i],
                "{}: output or work moved at parallelism {parallelism}",
                w.name
            );
            let (out, work) = Evaluator::new(&db).eval_cq(&w.query);
            assert_eq!(out, reference[i].0, "{}: post-batch output", w.name);
            assert_eq!(
                work, reference[i].1,
                "{}: EvalWork/PlanWork moved after a {parallelism}-worker batch",
                w.name
            );
            for (&mode, mode_plans) in modes.iter().zip(&plans) {
                assert_eq!(
                    plan_cq(&db, &w.query, mode, None),
                    mode_plans[i],
                    "{}: plan moved after a {parallelism}-worker batch ({mode:?})",
                    w.name
                );
            }
        }
    }
}

#[test]
fn tpch_workload_same_best_across_thread_counts() {
    // A laptop-scale Figure 16 instance; small enough for CI, large enough
    // that buckets hold many candidates and the pool actually interleaves.
    let settings = ScenarioSettings {
        tree_leaves: 120,
        tpch_lineitems: 400,
        ..Default::default()
    };
    let scenarios = tpch_scenarios(&settings);
    let s = scenarios
        .iter()
        .find(|s| s.name == "TPCH-Q3")
        .expect("TPCH-Q3 scenario");
    let bound = Bound::new(&s.db, &s.tree, &s.example).unwrap();
    // Shared caches must not perturb results either: reuse one per mode.
    let seq_cache = PrivacyCache::new();
    let seq = find_optimal_abstraction_with_cache(&bound, &cfg(Some(1), 3), &seq_cache);
    for parallelism in [None, Some(4)] {
        let par_cache = PrivacyCache::new();
        let par = find_optimal_abstraction_with_cache(&bound, &cfg(parallelism, 3), &par_cache);
        match (&seq.best, &par.best) {
            (Some(a), Some(b)) => {
                assert_eq!(a.abstraction, b.abstraction, "{parallelism:?}");
                assert_eq!(a.privacy, b.privacy);
                assert!((a.loi - b.loi).abs() < 1e-12);
            }
            (None, None) => {}
            (a, b) => panic!(
                "found-mismatch: seq={:?} par={:?}",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}
