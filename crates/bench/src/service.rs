//! The service axis: closed-loop multi-session runs against the
//! `provabsd` snapshot-isolated service (the `micro_service` bench and the
//! `BENCH_8.json` CI perf gate both drive this).
//!
//! Every scenario generates a TPC-H database, brings [`Provabsd`] up over
//! an in-memory [`FaultyVfs`], and drives the deterministic zipf-skewed
//! closed-loop schedule from [`provabs_datagen::service_schedule`]: reader
//! sessions pin snapshots and evaluate query templates while the single
//! writer applies churn batches and publishes epochs. Four scenarios probe
//! the service's robustness contracts:
//!
//! * `closed-loop/zipf` — the healthy path: everything completes, the
//!   writer publishes one epoch per batch;
//! * `overload/admission` — the whole queue is pre-admitted, so every
//!   query must be rejected fail-fast with zero evaluation work;
//! * `budget/cancellation` — a tight per-request work budget forces the
//!   engine to stop requests exactly at the derivation cap;
//! * `degraded/readonly` — a crash injected mid-stream poisons the
//!   writer after its bounded retries; reads keep completing against the
//!   last published epoch while every further write fails fast.
//!
//! Every compared counter (completions, rejections, cancellations, epochs,
//! peak per-request work) is a pure function of the seed: the schedule,
//! the churn stream, the budget cancellation point, and the injected crash
//! are all op-sequence driven, never wall-clock driven. The `equal` column
//! asserts the final pinned snapshot replays an offline oracle — the seed
//! database with exactly the acknowledged churn prefix applied —
//! bit-for-bit, answers and work counters alike.

use crate::report::GateEntry;
use provabs_datagen::tpch::{self, tpch_queries, TpchConfig};
use provabs_datagen::{
    service_schedule, ChurnConfig, ChurnGenerator, ServiceOp, ServiceWorkloadConfig, Workload,
};
use provabs_relational::storage::{Fault, FaultyVfs, SharedVfs};
use provabs_relational::{Database, Evaluator};
use provabsd::{Provabsd, ServiceConfig, ServiceError, Session};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shape of one service sweep.
#[derive(Debug, Clone)]
pub struct ServiceSettings {
    /// TPC-H scale (lineitem rows).
    pub lineitem_rows: usize,
    /// Operations per scenario (queries + update slots).
    pub operations: usize,
    /// Closed-loop reader clients.
    pub clients: usize,
    /// Zipf exponent of the template popularity skew.
    pub zipf_s: f64,
    /// Every `update_every`-th operation is a writer churn batch.
    pub update_every: usize,
    /// Workload / churn / generator seed.
    pub seed: u64,
    /// The healthy per-request work budget (derivations).
    pub work_budget: u64,
    /// The deliberately tight budget of the cancellation scenario.
    pub tight_budget: u64,
    /// Admission queue capacity.
    pub queue_capacity: usize,
}

impl Default for ServiceSettings {
    fn default() -> Self {
        Self {
            lineitem_rows: 200,
            operations: 48,
            clients: 4,
            zipf_s: 1.1,
            update_every: 8,
            seed: 42,
            work_budget: 1 << 20,
            tight_budget: 64,
            queue_capacity: 8,
        }
    }
}

impl ServiceSettings {
    /// The settings the CI gate runs (and `BENCH_8.json` was emitted with).
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// One service scenario: its injected faults, held queue slots, and
/// per-request budget.
struct Scenario {
    name: &'static str,
    faults: Vec<Fault>,
    hold: usize,
    work_budget: u64,
}

const BASE: &str = "bench-svc";

/// Runs the full service comparison: the four fixed scenarios under
/// `settings`, returning one metric per scenario.
pub fn run_service_comparison(settings: &ServiceSettings) -> Vec<GateEntry> {
    let scenarios = [
        Scenario {
            name: "closed-loop/zipf",
            faults: Vec::new(),
            hold: 0,
            work_budget: settings.work_budget,
        },
        Scenario {
            name: "overload/admission",
            faults: Vec::new(),
            hold: settings.queue_capacity,
            work_budget: settings.work_budget,
        },
        Scenario {
            name: "budget/cancellation",
            faults: Vec::new(),
            hold: 0,
            work_budget: settings.tight_budget,
        },
        Scenario {
            name: "degraded/readonly",
            faults: vec![Fault::CrashBeforeWrite(degrade_boundary(settings))],
            hold: 0,
            work_budget: settings.work_budget,
        },
    ];
    scenarios
        .iter()
        .map(|sc| run_scenario(sc, settings))
        .collect()
}

fn seed_db(settings: &ServiceSettings) -> (Database, Vec<Workload>) {
    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    db.build_indexes();
    let templates = tpch_queries(db.schema());
    (db, templates)
}

fn config(settings: &ServiceSettings, work_budget: u64) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: settings.queue_capacity,
        work_budget,
        max_retries: 1,
        backoff_base: 1,
        ..Default::default()
    }
}

fn churn(settings: &ServiceSettings) -> ChurnGenerator {
    ChurnGenerator::new(&ChurnConfig {
        batch_size: 8,
        insert_ratio: 0.7,
        seed: settings.seed,
    })
}

/// Dry run locating the crash boundary of `degraded/readonly`: the first
/// VFS write of the *third* churn transaction. Queries never touch the
/// VFS, so creating the service and applying the first two batches walks
/// exactly the same op sequence the real scenario walks up to that point.
fn degrade_boundary(settings: &ServiceSettings) -> u64 {
    let (db, _) = seed_db(settings);
    let faulty = Arc::new(Mutex::new(FaultyVfs::new()));
    let vfs: SharedVfs = faulty.clone();
    let svc = Provabsd::create(vfs, BASE, db, config(settings, settings.work_budget))
        .expect("create on a fault-free VFS");
    let mut churn = churn(settings);
    for _ in 0..2 {
        let delta = churn.next_batch(svc.session().db());
        svc.apply(&delta).expect("apply on a fault-free VFS");
    }
    let count = faulty.lock().unwrap().write_count();
    count
}

fn run_scenario(sc: &Scenario, settings: &ServiceSettings) -> GateEntry {
    let (db, templates) = seed_db(settings);
    let mut oracle = db.clone();
    let vfs: SharedVfs = Arc::new(Mutex::new(FaultyVfs::with_faults(sc.faults.clone())));
    let svc = Provabsd::create(vfs, BASE, db, config(settings, sc.work_budget))
        .expect("create precedes any injected fault");

    // Pre-admitted requests held for the whole run: each occupies a queue
    // slot, so holding the full capacity forces every query to be
    // rejected fail-fast.
    let held: Vec<_> = (0..sc.hold)
        .map(|_| svc.acquire(1).expect("holds fit the empty queue"))
        .collect();

    let schedule = service_schedule(&ServiceWorkloadConfig {
        clients: settings.clients,
        operations: settings.operations,
        templates: templates.len(),
        zipf_s: settings.zipf_s,
        update_every: settings.update_every,
        seed: settings.seed,
    });
    let mut churn = churn(settings);

    // The closed loop, mirroring the `provabsd` binary: each client
    // re-pins only when the epoch advanced past its session.
    let mut sessions: Vec<Option<Session>> = vec![None; settings.clients.max(1)];
    let (mut completed, mut rejected, mut cancelled) = (0u64, 0u64, 0u64);
    let (mut applied, mut degraded_writes, mut answer_rows) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for op in &schedule {
        match *op {
            ServiceOp::Query { client, template } => {
                let slot = &mut sessions[client];
                let stale = slot
                    .as_ref()
                    .is_none_or(|s| s.epoch() < svc.registry().epoch());
                if stale {
                    *slot = Some(svc.session());
                }
                match slot
                    .as_ref()
                    .expect("just pinned")
                    .query(&templates[template].query)
                {
                    Ok(out) => {
                        completed += 1;
                        answer_rows += out.rows.len() as u64;
                    }
                    Err(ServiceError::Overloaded { .. }) => rejected += 1,
                    Err(ServiceError::BudgetExhausted { .. }) => cancelled += 1,
                    Err(e) => panic!("{}: unexpected read error: {e}", sc.name),
                }
            }
            ServiceOp::Update => {
                let delta = churn.next_batch(svc.session().db());
                match svc.apply(&delta) {
                    Ok(_) => {
                        applied += 1;
                        oracle.apply_delta(&delta);
                    }
                    Err(ServiceError::Degraded { .. }) => degraded_writes += 1,
                    Err(e) => panic!("{}: unexpected writer error: {e}", sc.name),
                }
            }
        }
    }
    let run_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(held);

    // The oracle replay: the final pinned snapshot must be bit-for-bit
    // the seed plus the acknowledged churn prefix — state, per-template
    // answers, and engine work counters alike. Evaluated directly (not
    // through admission) so held permits and tight budgets cannot mask a
    // divergence.
    let snapshot = svc.session();
    let mut equal = snapshot.db().database().same_state(&oracle);
    for w in &templates {
        let want = Evaluator::new(&oracle).eval_cq(&w.query);
        let got = Evaluator::new(snapshot.db()).eval_cq(&w.query);
        equal &= got == want;
    }

    let stats = svc.stats();
    let operations = schedule.len() as u64;
    GateEntry::new(sc.name)
        .count("operations", operations)
        .count("completed", completed)
        .count("rejected", rejected)
        .count("cancelled", cancelled)
        .count("answer_rows", answer_rows)
        .count("applied_txns", applied)
        .count("degraded_writes", degraded_writes)
        .count("epochs_published", stats.epochs_published)
        .count("writer_retries", stats.writer_retries)
        .count("max_request_work", stats.max_request_work)
        .count("work_budget", sc.work_budget)
        .ratio("completion_ratio", completed, operations)
        .ratio("budget_ratio", stats.max_request_work, sc.work_budget)
        .ms("run_ms", run_ms)
        .flag("equal", equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    fn small() -> ServiceSettings {
        ServiceSettings {
            lineitem_rows: 80,
            operations: 24,
            ..Default::default()
        }
    }

    #[test]
    fn scenarios_uphold_their_contracts() {
        let metrics = run_service_comparison(&small());
        assert_eq!(metrics.len(), 4);
        let rules = Gate::named("service").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
        let get = |scenario: &str, key: &str| {
            let m = metrics.iter().find(|m| m.name == scenario).unwrap();
            m.get_count(key).unwrap()
        };

        let healthy = |key| get("closed-loop/zipf", key);
        assert!(healthy("completed") > 0 && healthy("rejected") == 0 && healthy("cancelled") == 0);
        assert!(healthy("applied_txns") > 0);
        assert_eq!(healthy("epochs_published"), healthy("applied_txns"));

        let overload = |key| get("overload/admission", key);
        assert_eq!(
            overload("completed"),
            0,
            "held queue must reject every query"
        );
        assert!(overload("rejected") > 0);
        assert_eq!(
            overload("max_request_work"),
            0,
            "rejection must precede work"
        );
        assert_eq!(
            overload("applied_txns"),
            healthy("applied_txns"),
            "writer bypasses admission"
        );

        let budget = |key| get("budget/cancellation", key);
        assert!(
            budget("cancelled") > 0,
            "the tight budget must cancel something"
        );
        assert_eq!(
            budget("max_request_work"),
            budget("work_budget"),
            "cancellation stops exactly at the cap"
        );

        let degraded = |key| get("degraded/readonly", key);
        assert_eq!(
            degraded("applied_txns"),
            2,
            "the crash fires in transaction 3"
        );
        assert!(
            degraded("degraded_writes") > 0,
            "later writes must fail fast"
        );
        assert!(
            degraded("completed") > 0,
            "reads keep completing while degraded"
        );
        assert_eq!(
            degraded("epochs_published"),
            2,
            "zero writer progress after the crash"
        );
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let a = run_service_comparison(&small());
        let b = run_service_comparison(&small());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.counts(), y.counts(), "{}", x.name);
        }
    }
}
