//! The planner-comparison axis: the cost-based query planner versus
//! written-order execution on adversarially-ordered workloads (the
//! `micro_planner` bench and the `BENCH_5.json` CI perf gate both drive
//! this).
//!
//! Every scenario takes a TPC-H or IMDB workload query, rewrites it into
//! its pessimal written order ([`provabs_datagen::adversarial_order`]:
//! big scans first, one planted cross product, selective constants last)
//! and evaluates the *same* rewritten query twice — once under
//! [`PlanMode::CostBased`], once under [`PlanMode::WrittenOrder`]. Three
//! scenario families:
//!
//! * `tpch/<query>/adv`, `imdb/<query>/adv` — one full evaluation each
//!   way. The compared counter is `rows_examined` — candidate rows the
//!   backtracking join touched, the same machine-independent probe-work
//!   proxy `BENCH_2.json` gates on — plus the index-probe count. Output
//!   K-relations must be bit-for-bit equal to each other *and* to the
//!   naive decoded-scan oracle ([`provabs_relational::oracle`]).
//! * `churn/<query>/adv` — the delta path maintains the adversarial
//!   query's K-relation over a deterministic update stream under both
//!   modes; counters accumulate across every pivot-restricted pass and
//!   both maintained caches must equal the oracle on the final database.
//!
//! The counters are deterministic (plans depend only on database content +
//! query; see `provabs_relational::plan`), so the gate is immune to runner
//! noise. The acceptance bar is a ≥ 2× probe-work reduction
//! (`planned_rows * 2 <= written_rows`) on every scenario, fail-closed.

use crate::report::GateEntry;
use provabs_datagen::imdb::{self, ImdbConfig};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{adversarial_order, ChurnConfig, ChurnGenerator};
use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::{
    Cq, Database, EvalWork, Evaluator, Execution, KRelation, PlanMode, Updater,
};
use std::time::Instant;

/// Shape of one planner-comparison sweep.
#[derive(Debug, Clone)]
pub struct PlannerSettings {
    /// TPC-H scale (lineitem rows). Keep oracle-feasible.
    pub lineitem_rows: usize,
    /// IMDB people.
    pub imdb_people: usize,
    /// IMDB movies.
    pub imdb_movies: usize,
    /// TPC-H workload queries swept (each as its adversarial variant).
    pub tpch_queries: Vec<String>,
    /// IMDB workload queries swept (each as its adversarial variant).
    pub imdb_queries: Vec<String>,
    /// TPC-H queries swept by the `churn/` scenarios.
    pub churn_queries: Vec<String>,
    /// Batches replayed per churn scenario.
    pub batches: usize,
    /// Changes per batch.
    pub batch_size: usize,
    /// Insert fraction of the churn stream.
    pub insert_ratio: f64,
    /// Generator / stream seed.
    pub seed: u64,
}

impl Default for PlannerSettings {
    fn default() -> Self {
        Self {
            lineitem_rows: 600,
            imdb_people: 150,
            imdb_movies: 150,
            tpch_queries: vec!["TPCH-Q3".into(), "TPCH-Q5".into(), "TPCH-Q10".into()],
            imdb_queries: vec!["IMDB-Q2".into(), "IMDB-Q5".into()],
            churn_queries: vec!["TPCH-Q3".into(), "TPCH-Q10".into()],
            batches: 3,
            batch_size: 8,
            insert_ratio: 0.5,
            seed: 42,
        }
    }
}

impl PlannerSettings {
    /// The fixed configuration of the CI perf gate: small enough for a
    /// 1-CPU runner, deterministic, and the shape `BENCH_5.json` is built
    /// from. Changing this invalidates the checked-in baseline — re-emit
    /// it.
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// Runs every scenario of `settings`, returning one metric per scenario.
pub fn run_planner_comparison(settings: &PlannerSettings) -> Vec<GateEntry> {
    let mut out = Vec::new();
    let (tpch_db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    let tpch_workloads = tpch::tpch_queries(tpch_db.schema());
    for qname in &settings.tpch_queries {
        if let Some(w) = tpch_workloads.iter().find(|w| &w.name == qname) {
            let adv = adversarial_order(&tpch_db, &w.query);
            out.push(eval_metric(&tpch_db, &format!("tpch/{qname}/adv"), &adv));
        }
    }
    let (imdb_db, _) = imdb::generate(&ImdbConfig {
        num_people: settings.imdb_people,
        num_movies: settings.imdb_movies,
        cast_per_movie: 5,
        seed: settings.seed,
    });
    let imdb_workloads = imdb::imdb_queries(imdb_db.schema());
    for qname in &settings.imdb_queries {
        if let Some(w) = imdb_workloads.iter().find(|w| &w.name == qname) {
            let adv = adversarial_order(&imdb_db, &w.query);
            out.push(eval_metric(&imdb_db, &format!("imdb/{qname}/adv"), &adv));
        }
    }
    for qname in &settings.churn_queries {
        if let Some(w) = tpch_workloads.iter().find(|w| &w.name == qname) {
            let adv = adversarial_order(&tpch_db, &w.query);
            out.push(churn_metric(
                &tpch_db,
                &format!("churn/{qname}/adv"),
                &adv,
                settings,
            ));
        }
    }
    out
}

fn metric_from(
    name: &str,
    planned: &EvalWork,
    written: &EvalWork,
    planned_ms: f64,
    written_ms: f64,
    equal: bool,
) -> GateEntry {
    GateEntry::new(name)
        .count("planned_rows", planned.rows_examined)
        .count("written_rows", written.rows_examined)
        .count("planned_probes", planned.probes)
        .count("written_probes", written.probes)
        .count("atoms_reordered", planned.plan.atoms_reordered)
        .count("est_rows", planned.plan.est_rows)
        .ratio("work_ratio", planned.rows_examined, written.rows_examined)
        .ratio("probe_ratio", planned.probes, written.probes)
        .ms("planned_ms", planned_ms)
        .ms("written_ms", written_ms)
        .flag("equal", equal)
}

/// One `tpch/`/`imdb/` scenario: full evaluation of the adversarial query
/// both ways, plus the oracle as the independent correctness witness.
fn eval_metric(db_proto: &Database, name: &str, adv: &Cq) -> GateEntry {
    let mut db = db_proto.clone();
    db.build_indexes();
    // Scalar pin: BENCH_5's counters were recorded on the scalar engine.
    let scalar = |mode| Evaluator::new(&db).plan(mode).execution(Execution::Scalar);
    let t0 = Instant::now();
    let (planned_out, planned_work, trace) = scalar(PlanMode::CostBased).eval_cq_traced(adv);
    let planned_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let (written_out, written_work, _) = scalar(PlanMode::WrittenOrder).eval_cq_traced(adv);
    let written_ms = t1.elapsed().as_secs_f64() * 1e3;
    let oracle = oracle_eval_cq(&db, adv);
    debug_assert_eq!(trace.plan.steps.len(), trace.actual_rows.len());
    let equal = planned_out == written_out && planned_out == oracle;
    metric_from(
        name,
        &planned_work,
        &written_work,
        planned_ms,
        written_ms,
        equal,
    )
}

/// One `churn/` scenario: the delta path maintains the adversarial query's
/// K-relation over the same deterministic update stream under both modes.
fn churn_metric(
    db_proto: &Database,
    name: &str,
    adv: &Cq,
    settings: &PlannerSettings,
) -> GateEntry {
    let run = |mode: PlanMode| -> (KRelation, EvalWork, f64, bool, Database) {
        let mut db = db_proto.clone();
        db.build_indexes();
        let (mut cached, _) = Evaluator::new(&db)
            .plan(mode)
            .execution(Execution::Scalar)
            .eval_cq(adv);
        let mut gen = ChurnGenerator::new(&ChurnConfig {
            batch_size: settings.batch_size,
            insert_ratio: settings.insert_ratio,
            seed: settings.seed ^ 0x91a5_00f5,
        });
        let mut work = EvalWork::default();
        let mut ms = 0.0f64;
        let mut merged = true;
        for _ in 0..settings.batches {
            let delta = gen.next_batch(&db);
            let t0 = Instant::now();
            // BENCH_5 replays counters recorded on the scalar engine.
            let outcome = Updater::new()
                .plan(mode)
                .execution(Execution::Scalar)
                .apply(&mut db, &delta, std::slice::from_ref(adv));
            merged &= outcome.deltas[0].merge_into(&mut cached);
            ms += t0.elapsed().as_secs_f64() * 1e3;
            work.absorb(&outcome.work);
        }
        (cached, work, ms, merged, db)
    };
    let (planned_cache, planned_work, planned_ms, planned_merged, db) = run(PlanMode::CostBased);
    let (written_cache, written_work, written_ms, written_merged, _) = run(PlanMode::WrittenOrder);
    let oracle = oracle_eval_cq(&db, adv);
    let equal = planned_merged
        && written_merged
        && planned_cache == written_cache
        && planned_cache == oracle;
    metric_from(
        name,
        &planned_work,
        &written_work,
        planned_ms,
        written_ms,
        equal,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    fn quick_settings() -> PlannerSettings {
        PlannerSettings {
            lineitem_rows: 300,
            tpch_queries: vec!["TPCH-Q3".into()],
            imdb_queries: vec!["IMDB-Q5".into()],
            churn_queries: vec!["TPCH-Q3".into()],
            batches: 2,
            ..Default::default()
        }
    }

    #[test]
    fn comparison_confirms_equality_and_savings() {
        let metrics = run_planner_comparison(&quick_settings());
        assert_eq!(metrics.len(), 3);
        let rules = Gate::named("planner").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
        for m in &metrics {
            let reordered = m.get_count("atoms_reordered");
            assert!(reordered > Some(0), "{}: planner did nothing", m.name);
        }
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let settings = PlannerSettings {
            tpch_queries: vec!["TPCH-Q3".into()],
            imdb_queries: vec![],
            churn_queries: vec!["TPCH-Q3".into()],
            ..PlannerSettings::ci_gate()
        };
        let a = run_planner_comparison(&settings);
        let b = run_planner_comparison(&settings);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.counts(), y.counts(), "{}", x.name);
        }
    }
}
