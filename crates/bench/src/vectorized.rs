//! The execution-comparison axis: the vectorized block-at-a-time pipeline
//! versus the scalar binding-at-a-time engine it generalizes (the
//! `micro_vectorized` bench and the `BENCH_7.json` CI perf gate both drive
//! this).
//!
//! One scenario family, `eval/<query>` — a full evaluation of a TPC-H or
//! IMDB workload query, run once under [`Execution::Block`] and once under
//! [`Execution::Scalar`], same plan. The engines count their own
//! deterministic work ([`provabs_relational::EvalWork`]):
//!
//! * **probe-hash bytes** — the scalar engine hashes one `ValueId` per
//!   bound column per candidate binding; the block engine hashes only the
//!   constants (once per evaluation) and resolves every per-binding lookup
//!   through sorted merges with galloping, so its hash bytes collapse to
//!   near zero and the search work shows up in `gallop_steps` instead.
//! * **moved id bytes** — the scalar engine re-materializes every binding
//!   vector; the block engine moves one row index and one parent pointer
//!   per selection survivor and walks the parent chain only for rows that
//!   reach materialization.
//!
//! The counters are machine-independent (same database, same query, same
//! plan ⇒ same bytes), so the gate is immune to runner noise; wall-clock
//! columns are carried for humans. Correctness is witnessed per scenario
//! against both the scalar engine and the structurally independent naive
//! owned-value oracle ([`provabs_relational::oracle`]) — a metric with
//! `equal: true` *is* the correctness witness.

use crate::report::GateEntry;
use provabs_datagen::imdb::{self, ImdbConfig};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::{Cq, Database, Evaluator, Execution, PlanMode};
use std::time::Instant;

/// Shape of one vectorized-comparison sweep.
#[derive(Debug, Clone)]
pub struct VectorizedSettings {
    /// TPC-H scale (lineitem rows). Keep oracle-feasible: the reference
    /// evaluator joins by naive scans.
    pub lineitem_rows: usize,
    /// IMDB scale (people).
    pub imdb_people: usize,
    /// IMDB scale (movies).
    pub imdb_movies: usize,
    /// TPC-H workload queries swept by the `eval/` scenarios.
    pub tpch_queries: Vec<String>,
    /// IMDB workload queries swept by the `eval/` scenarios.
    pub imdb_queries: Vec<String>,
    /// Block size of the vectorized runs.
    pub block_size: usize,
    /// Generator seed.
    pub seed: u64,
    /// Atom-order mode of every evaluation — both engines execute the
    /// *same* plan, so the comparison isolates execution strategy.
    pub plan_mode: PlanMode,
}

impl Default for VectorizedSettings {
    fn default() -> Self {
        Self {
            lineitem_rows: 600,
            imdb_people: 150,
            imdb_movies: 150,
            tpch_queries: vec!["TPCH-Q3".into(), "TPCH-Q4".into(), "TPCH-Q10".into()],
            imdb_queries: vec!["IMDB-Q2".into(), "IMDB-Q5".into()],
            block_size: provabs_relational::DEFAULT_BLOCK_SIZE,
            seed: 42,
            plan_mode: PlanMode::CostBased,
        }
    }
}

impl VectorizedSettings {
    /// The fixed configuration of the CI perf gate: small enough for a
    /// 1-CPU runner, deterministic, and the shape `BENCH_7.json` is built
    /// from. Changing this invalidates the checked-in baseline — re-emit
    /// it.
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// Runs every scenario of `settings`, returning one metric per scenario.
pub fn run_vectorized_comparison(settings: &VectorizedSettings) -> Vec<GateEntry> {
    let mut out = Vec::new();
    let (tpch_db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    let tpch_workloads = tpch::tpch_queries(tpch_db.schema());
    for qname in &settings.tpch_queries {
        if let Some(w) = tpch_workloads.iter().find(|w| &w.name == qname) {
            out.push(eval_metric(&tpch_db, qname, &w.query, settings));
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
            out.push(eval_metric(&imdb_db, qname, &w.query, settings));
        }
    }
    out
}

/// One `eval/` scenario: the same query evaluated by both engines under
/// the same plan, counters from each engine, three-way equality with the
/// owned-value oracle.
fn eval_metric(
    db_proto: &Database,
    qname: &str,
    query: &Cq,
    settings: &VectorizedSettings,
) -> GateEntry {
    let mut db = db_proto.clone();
    db.build_indexes();
    let t0 = Instant::now();
    let (block_out, block_work) = Evaluator::new(&db)
        .plan(settings.plan_mode)
        .execution(Execution::Block {
            block_size: settings.block_size,
        })
        .eval_cq(query);
    let block_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let (scalar_out, scalar_work) = Evaluator::new(&db)
        .plan(settings.plan_mode)
        .execution(Execution::Scalar)
        .eval_cq(query);
    let scalar_ms = t1.elapsed().as_secs_f64() * 1e3;
    let oracle = oracle_eval_cq(&db, query);
    let (b, s) = (&block_work, &scalar_work);
    GateEntry::new(format!("eval/{qname}"))
        .count("block_probes", b.probes)
        .count("scalar_probes", s.probes)
        .count("block_probe_bytes", b.probe_bytes_id)
        .count("scalar_probe_bytes", s.probe_bytes_id)
        .count("block_moved_bytes", b.boundary_bytes)
        .count("scalar_moved_bytes", s.boundary_bytes)
        .count("blocks_emitted", b.blocks_emitted)
        .count("selection_survivors", b.selection_survivors)
        .count("gallop_steps", b.gallop_steps)
        .ratio("probe_ratio", b.probe_bytes_id, s.probe_bytes_id)
        .ratio("moved_ratio", b.boundary_bytes, s.boundary_bytes)
        .ms("block_ms", block_ms)
        .ms("scalar_ms", scalar_ms)
        .flag("equal", block_out == scalar_out && block_out == oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    fn quick_settings() -> VectorizedSettings {
        VectorizedSettings {
            lineitem_rows: 300,
            tpch_queries: vec!["TPCH-Q4".into()],
            imdb_queries: vec!["IMDB-Q2".into()],
            ..Default::default()
        }
    }

    #[test]
    fn comparison_confirms_equality_and_savings() {
        let metrics = run_vectorized_comparison(&quick_settings());
        assert_eq!(metrics.len(), 2);
        let rules = Gate::named("vectorized").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
        for m in &metrics {
            let blocks = m.get_count("blocks_emitted");
            assert!(blocks > Some(0), "{}: no blocks emitted", m.name);
        }
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let settings = VectorizedSettings {
            tpch_queries: vec!["TPCH-Q4".into()],
            imdb_queries: vec!["IMDB-Q2".into()],
            ..VectorizedSettings::ci_gate()
        };
        let a = run_vectorized_comparison(&settings);
        let b = run_vectorized_comparison(&settings);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.counts(), y.counts(), "{}", x.name);
        }
    }
}
