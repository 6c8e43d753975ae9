//! Adaptive-execution microbenchmark on the scalar engine: abort-and-restart
//! re-planning versus the static cost-based plan, plus the epoch-keyed
//! plan cache's hit path versus cold planning.
//!
//! Two axes mirror the `BENCH_9.json` perf-gate scenarios:
//! * `eval` — one full evaluation of the correlated-skew query with and
//!   without the adaptive trigger armed (the planted statistics make the
//!   static plan explode, so the re-plan pays for itself in wall time,
//!   not just in the counters the gate diffs);
//! * `cache` — repeated evaluation of the same query through a
//!   [`PlanCache`]-bound evaluator versus planning cold every time.
//!
//! Wall time only; the counter-based comparison the CI gate diffs lives in
//! `provabs_bench::adaptive` / `bench_gate --bench adaptive`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provabs_datagen::{correlated_skew, CorrelatedSkewConfig};
use provabs_relational::{Evaluator, Execution, PlanCache, PlanMode};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_adaptive");
    group.sample_size(10);

    let (db, w) = correlated_skew(&CorrelatedSkewConfig::default());

    group.bench_function(BenchmarkId::new("eval/corr-skew", "static"), |b| {
        let eval = Evaluator::new(&db)
            .plan(PlanMode::CostBased)
            .execution(Execution::Scalar);
        b.iter(|| eval.eval_cq(&w.query));
    });
    group.bench_function(BenchmarkId::new("eval/corr-skew", "adaptive"), |b| {
        let eval = Evaluator::new(&db)
            .plan(PlanMode::CostBased)
            .execution(Execution::Scalar)
            .adaptive(2.0);
        b.iter(|| eval.eval_cq(&w.query));
    });
    group.bench_function(BenchmarkId::new("cache/corr-skew", "cold-plan"), |b| {
        let eval = Evaluator::new(&db).execution(Execution::Scalar);
        b.iter(|| eval.eval_cq(&w.query));
    });
    group.bench_function(BenchmarkId::new("cache/corr-skew", "cached-plan"), |b| {
        let cache = PlanCache::new();
        let eval = Evaluator::new(&db)
            .execution(Execution::Scalar)
            .plan_cache(&cache, 0);
        b.iter(|| eval.eval_cq(&w.query));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
