//! Update-engine microbenchmark: delta maintenance vs full re-evaluation
//! under churn, per insert/delete mix.
//!
//! The update stream is recorded once up front, so `maintain` (delta path)
//! and `reeval` (from-scratch path) replay the *same* batches; each
//! iteration starts from a fresh clone of the base database plus the
//! initial evaluation, a cost common to both sides. The counter-based
//! comparison (what the CI gate diffs) lives in `bench_gate` /
//! `provabs_bench::updates`; this bench measures wall time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{ChurnConfig, ChurnGenerator};
use provabs_relational::{Database, Delta, Evaluator, Execution, Updater};

fn bench(c: &mut Criterion) {
    let (mut db0, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 800,
        seed: 42,
    });
    db0.build_indexes();
    let query = tpch::tpch_queries(db0.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q4")
        .expect("TPCH-Q4 exists")
        .query;
    // Scalar pin: these timings stay comparable with earlier runs.
    let updater = Updater::new().execution(Execution::Scalar);
    let eval = |db: &Database| {
        Evaluator::new(db)
            .execution(Execution::Scalar)
            .eval_cq(&query)
            .0
    };
    let mut group = c.benchmark_group("micro_updates");
    group.sample_size(10);
    for ratio in [100u32, 50, 0] {
        // Record the stream against an evolving scratch copy so every
        // benchmark variant replays identical batches.
        let mut sim = db0.clone();
        let mut gen = ChurnGenerator::new(&ChurnConfig {
            batch_size: 12,
            insert_ratio: f64::from(ratio) / 100.0,
            seed: 42 ^ u64::from(ratio),
        });
        let deltas: Vec<Delta> = (0..5)
            .map(|_| {
                let d = gen.next_batch(&sim);
                sim.apply_delta(&d);
                d
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("maintain/TPCH-Q4", ratio),
            &deltas,
            |b, deltas| {
                b.iter(|| {
                    let mut db = db0.clone();
                    let mut cached = eval(&db);
                    for d in deltas {
                        let out = updater.apply(&mut db, d, std::slice::from_ref(&query));
                        assert!(out.deltas[0].merge_into(&mut cached));
                    }
                    cached
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reeval/TPCH-Q4", ratio),
            &deltas,
            |b, deltas| {
                b.iter(|| {
                    let mut db = db0.clone();
                    let mut cached = eval(&db);
                    for d in deltas {
                        db.apply_delta(d);
                        cached = eval(&db);
                    }
                    cached
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
