//! Durability microbenchmark: reopening a persisted database from its
//! snapshot (and WAL tail) versus rebuilding the same logical state from
//! scratch.
//!
//! Three axes mirror the `BENCH_6.json` perf-gate scenarios:
//! * `reopen/checkpointed` — [`DurableDatabase::open`] after the churn
//!   stream was checkpointed into the snapshot (pure page decode);
//! * `reopen/wal-tail` — the same open with every batch still in the WAL
//!   (snapshot decode + logical replay);
//! * `rebuild/cold` — re-ingesting the final state tuple by tuple into a
//!   fresh [`Database`] and rebuilding the indexes, the path a process
//!   without a snapshot pays.
//!
//! Wall time only; the counter-based comparison the CI gate diffs lives in
//! `provabs_bench::durability` / `bench_gate --bench durability`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{recovery_stream, ChurnConfig};
use provabs_relational::storage::MemVfs;
use provabs_relational::storage::{shared, DurableDatabase, DurableOptions, SharedVfs};
use provabs_relational::Database;

const BASE: &str = "bench";

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: 0,
    }
}

/// Persists the TPC-H seed plus a 4-batch insert-heavy churn stream,
/// optionally checkpointing at the end. Returns the VFS holding the
/// durable files and the final in-memory state.
fn persisted(checkpointed: bool) -> (SharedVfs, Database) {
    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 400,
        seed: 42,
    });
    db.build_indexes();
    let (deltas, oracle) = recovery_stream(&db, &ChurnConfig::insert_heavy(42), 4);
    let vfs: SharedVfs = shared(MemVfs::new());
    let mut ddb = DurableDatabase::create(vfs.clone(), BASE, db, opts()).unwrap();
    for delta in &deltas {
        ddb.apply_delta(delta).unwrap();
    }
    if checkpointed {
        ddb.checkpoint().unwrap();
    }
    (vfs, oracle)
}

/// The cold path: same schema, same tuples, same labels, indexes rebuilt.
fn rebuild(db: &Database) -> Database {
    let mut fresh = Database::new();
    for rel in db.schema().relation_ids() {
        let rs = db.schema().relation(rel);
        let columns: Vec<&str> = rs.columns.iter().map(String::as_str).collect();
        let fresh_rel = fresh.add_relation(&rs.name, &columns);
        for (row, &annot) in db.tuple_annots(rel).to_vec().iter().enumerate() {
            let label = db.annotations().name(annot).to_owned();
            fresh.insert(fresh_rel, &label, db.decode_row(rel, row));
        }
    }
    fresh.build_indexes();
    fresh
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_durability");
    group.sample_size(10);

    let (vfs_ckpt, oracle) = persisted(true);
    let (vfs_tail, _) = persisted(false);

    group.bench_function(BenchmarkId::new("reopen", "checkpointed"), |b| {
        b.iter(|| DurableDatabase::open(vfs_ckpt.clone(), BASE, opts()).unwrap());
    });
    group.bench_function(BenchmarkId::new("reopen", "wal-tail"), |b| {
        b.iter(|| DurableDatabase::open(vfs_tail.clone(), BASE, opts()).unwrap());
    });
    group.bench_function(BenchmarkId::new("rebuild", "cold"), |b| {
        b.iter(|| rebuild(&oracle));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
