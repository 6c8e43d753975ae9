//! The update-scenario axis: delta maintenance vs full re-evaluation under
//! churn (the `micro_updates` bench and the CI perf gate both drive this).
//!
//! Each scenario replays a deterministic update stream against a TPC-H
//! instance while keeping one workload query's K-relation live two ways —
//! merging [`KRelationDelta`](provabs_relational::KRelationDelta)s versus
//! re-evaluating from scratch — and counts the evaluation work of both.
//! Equality of the two maintained results is asserted on every batch, so a
//! run that completes *is* the correctness witness; the counters quantify
//! the savings with machine-independent numbers the CI gate can diff.

use crate::report::GateEntry;
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{ChurnConfig, ChurnGenerator};
use provabs_relational::{Cq, EvalWork, Evaluator, Execution, PlanMode, Updater};
use std::time::Instant;

/// Shape of one update scenario sweep.
#[derive(Debug, Clone)]
pub struct UpdateSettings {
    /// TPC-H scale (lineitem rows).
    pub lineitem_rows: usize,
    /// Batches replayed per scenario.
    pub batches: usize,
    /// Changes per batch.
    pub batch_size: usize,
    /// Insert fractions swept (one scenario per query × ratio).
    pub insert_ratios: Vec<f64>,
    /// Workload queries swept (names as in
    /// [`tpch_queries`](provabs_datagen::tpch::tpch_queries)).
    pub queries: Vec<String>,
    /// Generator / stream seed.
    pub seed: u64,
    /// Atom-order mode of every evaluation. Defaults to
    /// [`PlanMode::Greedy`] — the pre-planner engine order the checked-in
    /// `BENCH_2.json` counters were measured under, so the gate keeps
    /// diffing identical numbers.
    pub plan_mode: PlanMode,
}

impl Default for UpdateSettings {
    fn default() -> Self {
        Self {
            lineitem_rows: 1_000,
            batches: 6,
            batch_size: 12,
            insert_ratios: vec![1.0, 0.5, 0.0],
            queries: vec!["TPCH-Q3".into(), "TPCH-Q4".into(), "TPCH-Q10".into()],
            seed: 42,
            plan_mode: PlanMode::Greedy,
        }
    }
}

impl UpdateSettings {
    /// The fixed configuration of the CI perf gate: small enough for a
    /// 1-CPU runner, deterministic, and the shape `BENCH_2.json` is built
    /// from. Changing this invalidates the checked-in baseline — re-emit it.
    pub fn ci_gate() -> Self {
        Self {
            lineitem_rows: 600,
            batches: 4,
            batch_size: 8,
            ..Self::default()
        }
    }
}

/// The outcome of one scenario (already flattened into report metrics).
pub fn run_update_comparison(settings: &UpdateSettings) -> Vec<GateEntry> {
    let mut out = Vec::new();
    let (db_proto, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    let workloads = tpch::tpch_queries(db_proto.schema());
    for qname in &settings.queries {
        let Some(w) = workloads.iter().find(|w| &w.name == qname) else {
            continue;
        };
        for &ratio in &settings.insert_ratios {
            out.push(replay(&db_proto, qname, &w.query, ratio, settings));
        }
    }
    out
}

/// Replays one update stream, maintaining the query's K-relation through
/// deltas and through re-evaluation, counting both.
fn replay(
    db_proto: &provabs_relational::Database,
    qname: &str,
    query: &Cq,
    insert_ratio: f64,
    settings: &UpdateSettings,
) -> GateEntry {
    let mut db = db_proto.clone();
    db.build_indexes();
    // BENCH_2 replays counters recorded on the scalar engine.
    let mut cached = Evaluator::new(&db)
        .plan(settings.plan_mode)
        .execution(Execution::Scalar)
        .eval_cq(query)
        .0;
    let mut gen = ChurnGenerator::new(&ChurnConfig {
        batch_size: settings.batch_size,
        insert_ratio,
        seed: settings.seed ^ (insert_ratio.to_bits().rotate_left(17)),
    });
    let mut delta_work = EvalWork::default();
    let mut full_work = EvalWork::default();
    let mut delta_ms = 0.0f64;
    let mut full_ms = 0.0f64;
    let mut equal = true;
    for _ in 0..settings.batches {
        let delta = gen.next_batch(&db);
        let t0 = Instant::now();
        let outcome = Updater::new()
            .plan(settings.plan_mode)
            .execution(Execution::Scalar)
            .apply(&mut db, &delta, std::slice::from_ref(query));
        let merged = outcome.deltas[0].merge_into(&mut cached);
        delta_ms += t0.elapsed().as_secs_f64() * 1e3;
        delta_work.absorb(&outcome.work);
        let t1 = Instant::now();
        let (full, w) = Evaluator::new(&db)
            .plan(settings.plan_mode)
            .execution(Execution::Scalar)
            .eval_cq(query);
        full_ms += t1.elapsed().as_secs_f64() * 1e3;
        full_work.absorb(&w);
        equal &= merged && cached == full;
    }
    let (delta_rows, full_rows) = (delta_work.rows_examined, full_work.rows_examined);
    GateEntry::new(format!(
        "{qname}/ins{}",
        (insert_ratio * 100.0).round() as u32
    ))
    .count("delta_rows", delta_rows)
    .count("full_rows", full_rows)
    .count("delta_derivations", delta_work.derivations)
    .count("full_derivations", full_work.derivations)
    .ratio("work_ratio", delta_rows, full_rows)
    .ms("delta_ms", delta_ms)
    .ms("full_ms", full_ms)
    .flag("equal", equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    #[test]
    fn comparison_confirms_equality_and_savings() {
        let settings = UpdateSettings {
            lineitem_rows: 400,
            batches: 3,
            batch_size: 6,
            insert_ratios: vec![0.5],
            queries: vec!["TPCH-Q4".into()],
            ..Default::default()
        };
        let metrics = run_update_comparison(&settings);
        assert_eq!(metrics.len(), 1);
        let rules = Gate::named("updates").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let a = run_update_comparison(&UpdateSettings {
            queries: vec!["TPCH-Q4".into()],
            insert_ratios: vec![1.0],
            ..UpdateSettings::ci_gate()
        });
        let b = run_update_comparison(&UpdateSettings {
            queries: vec!["TPCH-Q4".into()],
            insert_ratios: vec![1.0],
            ..UpdateSettings::ci_gate()
        });
        assert_eq!(a[0].counts(), b[0].counts());
    }
}
