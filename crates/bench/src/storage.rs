//! The storage-comparison axis: the dictionary-encoded columnar engine
//! versus the row-oriented owned-`Value` path it replaced (the
//! `micro_storage` bench and the `BENCH_4.json` CI perf gate both drive
//! this).
//!
//! Two scenario families, each contributing deterministic work counters the
//! gate can diff:
//!
//! * `eval/<query>` — one full evaluation of a TPC-H workload query. The
//!   engine counts, per join probe, both the 4 id bytes it actually fed
//!   the hasher and the bytes the owned path would have hashed for the
//!   *identical* probe (enum discriminant + payload of the probed value),
//!   and likewise for every binding/output move
//!   ([`EvalWork`]) — same plan, same
//!   candidate sets, so the owned column is an exact replay, not an
//!   estimate. Correctness is witnessed against the structurally
//!   independent naive owned-value oracle
//!   ([`provabs_relational::oracle`]), which joins by decoded scans with no
//!   indexes and no interning.
//! * `churn/<query>` — a deterministic update stream maintained through the
//!   delta path; counters accumulate over every retraction/addition pass
//!   and the maintained cache must equal the oracle's re-evaluation of the
//!   final database.
//!
//! The counters are machine-independent (same database, same query, same
//! plan ⇒ same bytes), so the gate is immune to runner noise; wall-clock
//! columns are carried for humans.

use crate::report::GateEntry;
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{ChurnConfig, ChurnGenerator};
use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::{Cq, Database, EvalWork, Evaluator, Execution, PlanMode, Updater};
use std::time::Instant;

/// Shape of one storage-comparison sweep.
#[derive(Debug, Clone)]
pub struct StorageSettings {
    /// TPC-H scale (lineitem rows). Keep oracle-feasible: the reference
    /// evaluator joins by naive scans.
    pub lineitem_rows: usize,
    /// Workload queries swept by the `eval/` scenarios.
    pub eval_queries: Vec<String>,
    /// Workload queries swept by the `churn/` scenarios.
    pub churn_queries: Vec<String>,
    /// Batches replayed per churn scenario.
    pub batches: usize,
    /// Changes per batch.
    pub batch_size: usize,
    /// Insert fraction of the churn stream.
    pub insert_ratio: f64,
    /// Generator / stream seed.
    pub seed: u64,
    /// Atom-order mode of every engine evaluation. Defaults to
    /// [`PlanMode::Greedy`] — the pre-planner order the checked-in
    /// `BENCH_4.json` probe/moved-bytes counters were measured under.
    pub plan_mode: PlanMode,
}

impl Default for StorageSettings {
    fn default() -> Self {
        Self {
            lineitem_rows: 600,
            eval_queries: vec!["TPCH-Q3".into(), "TPCH-Q4".into(), "TPCH-Q10".into()],
            churn_queries: vec!["TPCH-Q3".into(), "TPCH-Q4".into()],
            batches: 3,
            batch_size: 8,
            insert_ratio: 0.5,
            seed: 42,
            plan_mode: PlanMode::Greedy,
        }
    }
}

impl StorageSettings {
    /// The fixed configuration of the CI perf gate: small enough for a
    /// 1-CPU runner, deterministic, and the shape `BENCH_4.json` is built
    /// from. Changing this invalidates the checked-in baseline — re-emit
    /// it.
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// Runs every scenario of `settings`, returning one metric per scenario.
pub fn run_storage_comparison(settings: &StorageSettings) -> Vec<GateEntry> {
    let mut out = Vec::new();
    let (db_proto, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    let workloads = tpch::tpch_queries(db_proto.schema());
    let find = |name: &String| workloads.iter().find(|w| &w.name == name);
    for qname in &settings.eval_queries {
        if let Some(w) = find(qname) {
            out.push(eval_metric(&db_proto, qname, &w.query, settings.plan_mode));
        }
    }
    for qname in &settings.churn_queries {
        if let Some(w) = find(qname) {
            out.push(churn_metric(&db_proto, qname, &w.query, settings));
        }
    }
    out
}

fn metric_from(
    name: String,
    work: EvalWork,
    engine_ms: f64,
    oracle_ms: f64,
    equal: bool,
) -> GateEntry {
    GateEntry::new(name)
        .count("probes", work.probes)
        .count("id_probe_bytes", work.probe_bytes_id)
        .count("value_probe_bytes", work.probe_bytes_value)
        .count("id_moved_bytes", work.moved_bytes_id)
        .count("value_moved_bytes", work.moved_bytes_value)
        .ratio("work_ratio", work.probe_bytes_id, work.probe_bytes_value)
        .ratio("moved_ratio", work.moved_bytes_id, work.moved_bytes_value)
        .ms("engine_ms", engine_ms)
        .ms("oracle_ms", oracle_ms)
        .flag("equal", equal)
}

/// One `eval/` scenario: a full evaluation, counters from the engine,
/// equality against the owned-value oracle.
fn eval_metric(db_proto: &Database, qname: &str, query: &Cq, mode: PlanMode) -> GateEntry {
    let mut db = db_proto.clone();
    db.build_indexes();
    let t0 = Instant::now();
    // BENCH_4 replays counters recorded on the scalar engine.
    let (out, work) = Evaluator::new(&db)
        .plan(mode)
        .execution(Execution::Scalar)
        .eval_cq(query);
    let engine_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let oracle = oracle_eval_cq(&db, query);
    let oracle_ms = t1.elapsed().as_secs_f64() * 1e3;
    metric_from(
        format!("eval/{qname}"),
        work,
        engine_ms,
        oracle_ms,
        out == oracle,
    )
}

/// One `churn/` scenario: the delta path maintains the query's K-relation
/// over a deterministic update stream; counters accumulate across every
/// restricted pass and the final cache must equal the oracle.
fn churn_metric(
    db_proto: &Database,
    qname: &str,
    query: &Cq,
    settings: &StorageSettings,
) -> GateEntry {
    let mut db = db_proto.clone();
    db.build_indexes();
    let mut cached = Evaluator::new(&db)
        .plan(settings.plan_mode)
        .execution(Execution::Scalar)
        .eval_cq(query)
        .0;
    let mut gen = ChurnGenerator::new(&ChurnConfig {
        batch_size: settings.batch_size,
        insert_ratio: settings.insert_ratio,
        seed: settings.seed ^ 0x5707_a6e5,
    });
    let mut work = EvalWork::default();
    let mut engine_ms = 0.0f64;
    let mut merged = true;
    for _ in 0..settings.batches {
        let delta = gen.next_batch(&db);
        let t0 = Instant::now();
        let outcome = Updater::new()
            .plan(settings.plan_mode)
            .execution(Execution::Scalar)
            .apply(&mut db, &delta, std::slice::from_ref(query));
        merged &= outcome.deltas[0].merge_into(&mut cached);
        engine_ms += t0.elapsed().as_secs_f64() * 1e3;
        work.absorb(&outcome.work);
    }
    let t1 = Instant::now();
    let oracle = oracle_eval_cq(&db, query);
    let oracle_ms = t1.elapsed().as_secs_f64() * 1e3;
    metric_from(
        format!("churn/{qname}"),
        work,
        engine_ms,
        oracle_ms,
        merged && cached == oracle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    fn quick_settings() -> StorageSettings {
        StorageSettings {
            lineitem_rows: 300,
            eval_queries: vec!["TPCH-Q4".into()],
            churn_queries: vec!["TPCH-Q4".into()],
            batches: 2,
            ..Default::default()
        }
    }

    #[test]
    fn comparison_confirms_equality_and_savings() {
        let metrics = run_storage_comparison(&quick_settings());
        assert_eq!(metrics.len(), 2);
        let rules = Gate::named("storage").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let settings = StorageSettings {
            eval_queries: vec!["TPCH-Q4".into()],
            churn_queries: vec!["TPCH-Q4".into()],
            ..StorageSettings::ci_gate()
        };
        let a = run_storage_comparison(&settings);
        let b = run_storage_comparison(&settings);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.counts(), y.counts(), "{}", x.name);
        }
    }
}
