//! Interned-arena microbenchmark: hash-consed provenance with memoized
//! abstraction application versus the owned-polynomial path.
//!
//! Two axes mirror the `BENCH_3.json` perf-gate scenarios:
//! * `search` — Algorithm 2 (cold + repeat, the warm-restart pattern) with
//!   `memoize_abstractions` on/off on a TPC-H scenario;
//! * `eval` — repeated evaluation of a TPC-H workload query with a
//!   persistent [`ProvStore`] versus a fresh arena per round (the owned
//!   boundary).
//!
//! Wall time only; the counter-based comparison the CI gate diffs lives in
//! `provabs_bench::intern` / `bench_gate --bench intern`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provabs_bench::ScenarioSettings;
use provabs_core::privacy::{PrivacyCache, PrivacyConfig};
use provabs_core::search::{find_optimal_abstraction_with_cache, SearchConfig};
use provabs_core::Bound;
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_relational::{Evaluator, Execution};
use provabs_semiring::ProvStore;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_intern");
    group.sample_size(10);

    // --- search axis -----------------------------------------------------
    let scenarios = provabs_bench::tpch_scenarios(&ScenarioSettings {
        threshold: 3,
        tree_leaves: 48,
        tree_height: 4,
        rows: 2,
        tpch_lineitems: 600,
        seed: 42,
        ..Default::default()
    });
    if let Some(scenario) = scenarios.iter().find(|s| s.name == "TPCH-Q3") {
        for memoize in [false, true] {
            let label = if memoize { "memoized" } else { "owned" };
            let cfg = SearchConfig {
                privacy: PrivacyConfig {
                    threshold: 3,
                    max_concretizations: 3_000,
                    max_alignments: 3_000,
                    ..Default::default()
                },
                max_candidates: 4_000,
                time_budget_ms: None,
                parallelism: Some(1),
                memoize_abstractions: memoize,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new("search/TPCH-Q3", label), &cfg, |b, cfg| {
                b.iter(|| {
                    // Fresh bound per iteration: the abstraction memo lives
                    // on the Bound, so this really measures a cold search
                    // plus a warm repeat, not a pre-warmed steady state.
                    let bound = Bound::new(&scenario.db, &scenario.tree, &scenario.example)
                        .expect("bindable");
                    let cache = PrivacyCache::new();
                    let first = find_optimal_abstraction_with_cache(&bound, cfg, &cache);
                    let second = find_optimal_abstraction_with_cache(&bound, cfg, &cache);
                    (first.stats.rows_abstracted, second.stats.rows_abstracted)
                });
            });
        }
    }

    // --- eval axis -------------------------------------------------------
    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 800,
        seed: 42,
    });
    db.build_indexes();
    let query = tpch::tpch_queries(db.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q4")
        .expect("TPCH-Q4 exists")
        .query;
    // Scalar pin: these timings stay comparable with earlier runs.
    let eval = Evaluator::new(&db).execution(Execution::Scalar);
    group.bench_function(BenchmarkId::new("eval/TPCH-Q4", "owned"), |b| {
        b.iter(|| {
            // Fresh arena per round — what the owned boundary does.
            let mut last = None;
            for _ in 0..3 {
                let mut store = ProvStore::new();
                let (out, _) = eval.interned(&mut store).eval_cq(&query);
                last = Some(out.to_krelation(&store));
            }
            last
        });
    });
    group.bench_function(BenchmarkId::new("eval/TPCH-Q4", "interned"), |b| {
        b.iter(|| {
            // One persistent arena: later rounds are memo hits.
            let mut store = ProvStore::new();
            let mut last = None;
            for _ in 0..3 {
                let (out, _) = eval.interned(&mut store).eval_cq(&query);
                last = Some(out.to_krelation(&store));
            }
            last
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
