//! Plan-cache microbenchmark: repeated evaluation of one TPC-H template
//! through a [`PlanCache`]-bound evaluator versus planning cold every time,
//! on the default engine. TPCH-Q5 has the most atoms (7) of the templates,
//! so planning is the largest share of its evaluation.
//!
//! Wall time only; the counter-based comparison the CI gate diffs lives in
//! `provabs_bench::plancache` / `bench_gate --bench plancache`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_relational::{Evaluator, PlanCache};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_plancache");
    group.sample_size(10);

    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 600,
        seed: 42,
    });
    db.build_indexes();
    let q5 = tpch::tpch_queries(db.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q5")
        .expect("TPCH-Q5 exists")
        .query;

    group.bench_function(BenchmarkId::new("cache/TPCH-Q5", "cold-plan"), |b| {
        let eval = Evaluator::new(&db);
        b.iter(|| eval.eval_cq(&q5));
    });
    group.bench_function(BenchmarkId::new("cache/TPCH-Q5", "cached-plan"), |b| {
        let cache = PlanCache::new();
        let eval = Evaluator::new(&db).plan_cache(&cache, 0);
        b.iter(|| eval.eval_cq(&q5));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
