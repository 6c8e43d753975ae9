//! Columnar-storage microbenchmark: the dictionary-encoded id-probing
//! engine versus the naive owned-value oracle, plus the id-level churn
//! path.
//!
//! Two axes mirror the `BENCH_4.json` perf-gate scenarios:
//! * `eval` — one full evaluation of a TPC-H workload query through the
//!   columnar engine and through the decoded owned-value oracle;
//! * `churn` — delta maintenance of the same query over a deterministic
//!   update stream (inserts land as interned ids, deletions swap-remove
//!   columns and rename postings).
//!
//! Wall time only; the counter-based comparison the CI gate diffs lives in
//! `provabs_bench::storage` / `bench_gate --bench storage`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{ChurnConfig, ChurnGenerator};
use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::{Database, Evaluator, Execution, Updater};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_storage");
    group.sample_size(10);

    let (db_proto, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 600,
        seed: 42,
    });
    let query = tpch::tpch_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q3")
        .expect("TPCH-Q3 exists")
        .query;
    let mut db = db_proto.clone();
    db.build_indexes();
    // Scalar pin: these timings stay comparable with earlier runs.
    let updater = Updater::new().execution(Execution::Scalar);
    let eval = |db: &Database| {
        Evaluator::new(db)
            .execution(Execution::Scalar)
            .eval_cq(&query)
            .0
    };

    group.bench_function(BenchmarkId::new("eval/TPCH-Q3", "columnar"), |b| {
        b.iter(|| eval(&db));
    });
    group.bench_function(BenchmarkId::new("eval/TPCH-Q3", "owned-oracle"), |b| {
        b.iter(|| oracle_eval_cq(&db, &query));
    });

    group.bench_function(BenchmarkId::new("churn/TPCH-Q3", "columnar"), |b| {
        b.iter(|| {
            let mut db = db_proto.clone();
            db.build_indexes();
            let mut cached = eval(&db);
            let mut gen = ChurnGenerator::new(&ChurnConfig {
                batch_size: 8,
                insert_ratio: 0.5,
                seed: 7,
            });
            for _ in 0..3 {
                let delta = gen.next_batch(&db);
                let out = updater.apply(&mut db, &delta, std::slice::from_ref(&query));
                assert!(out.deltas[0].merge_into(&mut cached));
            }
            cached
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
