//! The durability axis: reopening a persisted database versus rebuilding
//! it from scratch (the `micro_durability` bench and the `BENCH_6.json`
//! CI perf gate both drive this).
//!
//! Every scenario persists a TPC-H database through [`DurableDatabase`],
//! replays a deterministic churn stream ([`provabs_datagen::recovery_stream`])
//! against it as one WAL transaction per batch, then measures the *recovery*
//! path: close the handle and call [`DurableDatabase::open`] on the same VFS.
//! Two axes:
//!
//! * checkpoint state — `checkpointed` scenarios checkpoint after the last
//!   batch (reopen decodes the snapshot, replays nothing), `wal-tail`
//!   scenarios leave every batch in the WAL (reopen decodes the *seed*
//!   snapshot and replays the whole stream);
//! * workload shape — `insert-heavy` (90 % inserts) and `delete-heavy`
//!   (90 % deletes), the two churn presets.
//!
//! The compared counter is `reopen_bytes` — bytes physically read from the
//! VFS during `open`, counted by the [`MemVfs`] itself — against an
//! analytic `rebuild_bytes` model of re-ingesting the same logical state
//! tuple by tuple (the per-cell value-move/hash/column/posting cost the
//! dictionary-encoded storage layer pays on insert, the same model
//! `BENCH_4.json` gates on). Both are machine-independent: page I/O depends
//! only on database content and page size, the rebuild model only on the
//! decoded tuples. Wall-clock columns are carried for humans.
//!
//! The acceptance bar is a ≥ 2× read-work reduction
//! (`reopen_bytes * 2 <= rebuild_bytes`) on every scenario — warm reopen
//! must be measurably less work than cold rebuild — plus bit-for-bit
//! equality of the recovered database with the in-memory oracle,
//! fail-closed.

use crate::report::GateEntry;
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{recovery_stream, ChurnConfig};
use provabs_relational::storage::{shared, DurableDatabase, DurableOptions, MemVfs, SharedVfs};
use provabs_relational::{hash_width, Database, ID_WIDTH, VALUE_MOVE_WIDTH};
use std::time::Instant;

/// Shape of one durability sweep.
#[derive(Debug, Clone)]
pub struct DurabilitySettings {
    /// TPC-H scale (lineitem rows).
    pub lineitem_rows: usize,
    /// Churn batches persisted per scenario (one WAL transaction each).
    pub batches: usize,
    /// Generator / stream seed.
    pub seed: u64,
}

impl Default for DurabilitySettings {
    fn default() -> Self {
        Self {
            lineitem_rows: 400,
            batches: 4,
            seed: 42,
        }
    }
}

impl DurabilitySettings {
    /// The settings the CI gate runs (and `BENCH_6.json` was emitted with).
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// One durability scenario: its churn preset and whether the stream is
/// checkpointed into the snapshot before reopen.
struct Scenario {
    name: &'static str,
    insert_heavy: bool,
    checkpointed: bool,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "reopen/checkpointed/insert-heavy",
        insert_heavy: true,
        checkpointed: true,
    },
    Scenario {
        name: "reopen/checkpointed/delete-heavy",
        insert_heavy: false,
        checkpointed: true,
    },
    Scenario {
        name: "reopen/wal-tail/insert-heavy",
        insert_heavy: true,
        checkpointed: false,
    },
    Scenario {
        name: "reopen/wal-tail/delete-heavy",
        insert_heavy: false,
        checkpointed: false,
    },
];

const BASE: &str = "bench";

/// Runs the full durability comparison: every scenario of the fixed
/// `SCENARIOS` list under `settings`, returning one metric per scenario.
///
/// Panics on any storage error: the bench runs on a fault-free [`MemVfs`],
/// so an error is a bug, not a measurement.
pub fn run_durability_comparison(settings: &DurabilitySettings) -> Vec<GateEntry> {
    SCENARIOS
        .iter()
        .map(|sc| run_scenario(sc, settings))
        .collect()
}

fn run_scenario(sc: &Scenario, settings: &DurabilitySettings) -> GateEntry {
    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    db.build_indexes();
    let cfg = if sc.insert_heavy {
        ChurnConfig::insert_heavy(settings.seed)
    } else {
        ChurnConfig::delete_heavy(settings.seed)
    };
    let (deltas, oracle) = recovery_stream(&db, &cfg, settings.batches);

    let opts = DurableOptions::default();
    let vfs: SharedVfs = shared(MemVfs::new());
    let mut ddb = DurableDatabase::create(vfs.clone(), BASE, db, opts)
        .expect("create on a fault-free MemVfs");
    for delta in &deltas {
        ddb.apply_delta(delta)
            .expect("apply on a fault-free MemVfs");
    }
    if sc.checkpointed {
        ddb.checkpoint().expect("checkpoint on a fault-free MemVfs");
    }
    let workload_fsyncs = vfs.lock().unwrap().stats().syncs;
    drop(ddb);

    // The recovery path: reopen from the durable files alone, counting
    // bytes physically read off the VFS.
    let before = vfs.lock().unwrap().stats();
    let start = Instant::now();
    let (re, info) =
        DurableDatabase::open(vfs.clone(), BASE, opts).expect("reopen on a fault-free MemVfs");
    let reopen_ms = start.elapsed().as_secs_f64() * 1e3;
    let reopen_bytes = vfs.lock().unwrap().stats().delta_since(&before).bytes_read;
    let pages_read = re.pager_stats().pages_read;

    // The alternative the snapshot saves us from: re-ingesting the same
    // logical state tuple by tuple and re-deriving the indexes.
    let start = Instant::now();
    let rebuilt = rebuild_in_memory(&oracle);
    let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;

    // Reopen must satisfy the bit-for-bit recovery invariant; the cold
    // rebuild only reproduces the *logical* state (retired annotations and
    // swap-removed posting order are not re-created by fresh inserts).
    let equal = re.db().same_state(&oracle) && logically_equal(&rebuilt, &oracle);
    let rebuild_bytes = rebuild_bytes(&oracle);
    GateEntry::new(sc.name)
        .count("pages_read", pages_read)
        .count("reopen_bytes", reopen_bytes)
        .count("rebuild_bytes", rebuild_bytes)
        .count("wal_txns_replayed", info.replayed_txns)
        .count("workload_fsyncs", workload_fsyncs)
        .ratio("work_ratio", reopen_bytes, rebuild_bytes)
        .ms("reopen_ms", reopen_ms)
        .ms("rebuild_ms", rebuild_ms)
        .flag("equal", equal)
}

/// Re-ingests `db`'s logical state into a fresh [`Database`]: same schema,
/// same tuples, same labels, indexes rebuilt — the cold path a process
/// without a snapshot would pay.
fn rebuild_in_memory(db: &Database) -> Database {
    let mut fresh = Database::new();
    for rel in db.schema().relation_ids() {
        let rs = db.schema().relation(rel);
        let columns: Vec<&str> = rs.columns.iter().map(String::as_str).collect();
        let fresh_rel = fresh.add_relation(&rs.name, &columns);
        let annots = db.tuple_annots(rel).to_vec();
        for (row, annot) in annots.into_iter().enumerate() {
            let label = db.annotations().name(annot).to_owned();
            fresh.insert(fresh_rel, &label, db.decode_row(rel, row));
        }
    }
    fresh.build_indexes();
    fresh
}

/// Whether two databases hold the same logical rows: per relation, the
/// same multiset of `(label, tuple)` pairs. Weaker than
/// [`Database::same_state`] by design — a cold rebuild cannot reproduce
/// physical layout, only content.
fn logically_equal(a: &Database, b: &Database) -> bool {
    if a.schema().len() != b.schema().len() {
        return false;
    }
    a.schema().relation_ids().all(|rel| {
        if a.schema().relation(rel) != b.schema().relation(rel) {
            return false;
        }
        let rows = |db: &Database| {
            let mut rows: Vec<(String, String)> = db
                .tuple_annots(rel)
                .iter()
                .enumerate()
                .map(|(row, &annot)| {
                    (
                        db.annotations().name(annot).to_owned(),
                        format!("{:?}", db.decode_row(rel, row)),
                    )
                })
                .collect();
            rows.sort();
            rows
        };
        rows(a) == rows(b)
    })
}

/// The analytic byte cost of [`rebuild_in_memory`]: per cell, one owned
/// [`Value`](provabs_relational::Value) move + one interning hash + one
/// dictionary-encoded column slot + one posting-list entry; per row, its
/// label's bytes through the annotation registry.
fn rebuild_bytes(db: &Database) -> u64 {
    let mut total = 0u64;
    let mut row_buf = Vec::new();
    for rel in db.schema().relation_ids() {
        let annots = db.tuple_annots(rel);
        for (row, &annot) in annots.iter().enumerate() {
            total += db.annotations().name(annot).len() as u64;
            db.decode_row_into(rel, row, &mut row_buf);
            for v in &row_buf {
                total += VALUE_MOVE_WIDTH + hash_width(v) + ID_WIDTH + ID_WIDTH;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    #[test]
    fn comparison_confirms_equality_and_savings() {
        let settings = DurabilitySettings {
            lineitem_rows: 120,
            batches: 2,
            ..Default::default()
        };
        let metrics = run_durability_comparison(&settings);
        assert_eq!(metrics.len(), SCENARIOS.len());
        let rules = Gate::named("durability").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
        for m in &metrics {
            let pages = m.get_count("pages_read");
            assert!(pages > Some(0), "{}: no pages read on reopen", m.name);
            // Checkpointed scenarios replay nothing; wal-tail scenarios
            // replay the whole stream.
            let replayed = if m.name.contains("/checkpointed/") {
                0
            } else {
                settings.batches as u64
            };
            assert_eq!(
                m.get_count("wal_txns_replayed"),
                Some(replayed),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let a = run_durability_comparison(&DurabilitySettings {
            lineitem_rows: 120,
            batches: 2,
            ..DurabilitySettings::ci_gate()
        });
        let b = run_durability_comparison(&DurabilitySettings {
            lineitem_rows: 120,
            batches: 2,
            ..DurabilitySettings::ci_gate()
        });
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.counts(), y.counts(), "{}", x.name);
        }
    }
}
