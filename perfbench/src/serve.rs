//! The serve-under-churn workload: one caller drives a `provabsd` service
//! through the seeded zipf closed loop, with every 8th operation a churn
//! batch through the single writer. The relational engine, plan cache,
//! session publication and WAL do the work; search and privacy do none.

use crate::trace::Trace;
use crate::Round;
use provabs_datagen::tpch::{self, tpch_queries, TpchConfig};
use provabs_datagen::{
    service_schedule, ChurnConfig, ChurnGenerator, ServiceOp, ServiceWorkloadConfig,
};
use provabs_relational::storage::{DurableOptions, MemVfs, SharedVfs, Vfs};
use provabs_relational::{Database, Evaluator, KRelation};
use provabsd::{Provabsd, ServiceConfig, Session};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// TPC-H lineitem rows of the served database.
pub const LINEITEMS: usize = 1_000;
/// Operations per round (queries and churn batches).
pub const OPERATIONS: usize = 400;
/// Every `UPDATE_EVERY`-th operation is a churn batch.
pub const UPDATE_EVERY: usize = 8;
/// Zipf exponent of the template popularity.
pub const ZIPF_S: f64 = 1.1;
/// Changes per churn batch, at 70% inserts: the closed loop of the
/// `provabsd` CLI and of the service and adaptive harnesses.
pub const BATCH_SIZE: usize = 8;
/// WAL transactions between automatic checkpoints.
pub const CHECKPOINT_EVERY: u64 = 16;

/// Seed of the served database and of the query schedule. Both are fixed
/// so that every run serves the same data and query mix: the join-heavy
/// templates cost several times more or less on another generated
/// database. The workload seed draws the churn.
pub const DATABASE: u64 = 42;

/// Per-request work budget (derivations): far above what any template
/// needs at this size, so no request is cancelled.
const WORK_BUDGET: u64 = 1 << 24;

/// Checks the final snapshot against the offline oracle: the same state and
/// the same answer for every template.
pub fn check_snapshot(oracle: &[KRelation], snapshot: &[KRelation]) -> Result<(), String> {
    if oracle.len() != snapshot.len() {
        return Err(format!(
            "{} oracle answers, {} snapshot answers",
            oracle.len(),
            snapshot.len()
        ));
    }
    match oracle.iter().zip(snapshot).position(|(o, s)| o != s) {
        None => Ok(()),
        Some(t) => Err(format!(
            "template {t}: snapshot answer differs from the oracle"
        )),
    }
}

/// Runs one round on a fresh service; `seed` draws the churn, so every
/// round of a run is the same.
pub fn round(seed: u64, traced: bool) -> Round {
    let mut trace = Trace::new(traced);
    let t_setup = Instant::now();
    let t = Instant::now();
    let (mut db, rels) = tpch::generate(&TpchConfig {
        lineitem_rows: LINEITEMS,
        seed: DATABASE,
    });
    db.build_indexes();
    trace.time("datagen.generate_ms", t);
    let templates = tpch_queries(db.schema());
    let mut oracle: Database = db.clone();
    let mem = Arc::new(Mutex::new(MemVfs::new()));
    let vfs: SharedVfs = mem.clone();
    let config = ServiceConfig {
        work_budget: WORK_BUDGET,
        inflight_budget: WORK_BUDGET,
        durable: DurableOptions {
            checkpoint_every: CHECKPOINT_EVERY,
            ..DurableOptions::default()
        },
        ..ServiceConfig::default()
    };
    let svc = match Provabsd::create(vfs, "perfbench", db, config) {
        Ok(svc) => svc,
        Err(e) => {
            let mut r = Round::new(t_setup.elapsed().as_secs_f64(), trace);
            r.fail(format!("service create failed: {e}"));
            return r;
        }
    };
    let io_start = mem.lock().expect("vfs lock").stats();
    let schedule = service_schedule(&ServiceWorkloadConfig {
        clients: 1,
        operations: OPERATIONS,
        templates: templates.len(),
        zipf_s: ZIPF_S,
        update_every: UPDATE_EVERY,
        seed: DATABASE,
    });
    // Orders and their lineitems come and go; the dimension tables stay.
    let mut churn = ChurnGenerator::new(&ChurnConfig {
        batch_size: BATCH_SIZE,
        insert_ratio: 0.7,
        seed,
    })
    .restrict_to([rels.orders, rels.lineitem]);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut r = Round::new(setup_s, trace);
    let mut session: Option<Session> = None;
    let mut applied = 0u64;
    for (id, op) in schedule.iter().enumerate() {
        let trace = &mut r.trace;
        match *op {
            ServiceOp::Query { template, .. } => {
                let start = Instant::now();
                let whole = trace.begin(id, "request");
                // The closed loop re-pins only when the epoch advanced.
                if session
                    .as_ref()
                    .is_none_or(|s| s.epoch() < svc.registry().epoch())
                {
                    let s = trace.begin(id, "relational.session");
                    session = Some(svc.session());
                    trace.end(s);
                    trace.add("relational.session.repins", 1);
                }
                // Admission, plan-cache lookup and evaluation.
                let s = trace.begin(id, "relational.eval");
                let res = session
                    .as_ref()
                    .expect("pinned above")
                    .query(&templates[template].query);
                trace.end(s);
                trace.end(whole);
                let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                let name = &templates[template].name;
                match res {
                    Ok(out) => {
                        trace.add("relational.eval.rows_examined", out.work.rows_examined);
                        trace.add("relational.eval.derivations", out.work.derivations);
                        trace.add("relational.eval.answer_rows", out.rows.len() as u64);
                        r.request(
                            "query",
                            latency_ms,
                            true,
                            format!("query {name}"),
                            format!("epoch={} rows={}", out.epoch, out.rows.len()),
                        );
                    }
                    // Rejected, cancelled or errored: a failed request.
                    Err(e) => r.fail(format!("query {name}: {e}")),
                }
            }
            ServiceOp::Update => {
                // Drawing the batch is the caller's work, not the service's.
                let delta = churn.next_batch(svc.session().db());
                let start = Instant::now();
                let whole = trace.begin(id, "request");
                let s = trace.begin(id, "provabsd.apply");
                let res = svc.apply(&delta);
                trace.end(s);
                trace.end(whole);
                let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                match res {
                    Ok(a) => {
                        oracle.apply_delta(&delta);
                        applied += 1;
                        r.request(
                            "apply",
                            latency_ms,
                            true,
                            format!("apply batch {applied}"),
                            format!("touched={}", a.touched().count()),
                        );
                    }
                    Err(e) => r.fail(format!("apply: {e}")),
                }
            }
        }
    }

    let stats = svc.stats();
    let io = mem.lock().expect("vfs lock").stats().delta_since(&io_start);
    let t = &mut r.trace;
    t.add("provabsd.admitted", stats.admitted);
    t.add(
        "provabsd.rejected",
        stats.rejected_queue + stats.rejected_work,
    );
    t.add("provabsd.cancelled", stats.cancelled);
    t.add("provabsd.max_request_work", stats.max_request_work);
    t.add("provabsd.epochs_published", stats.epochs_published);
    t.add("provabsd.applied", applied);
    t.add("relational.plancache.hits", stats.plan_cache_hits);
    t.add("relational.plancache.misses", stats.plan_cache_misses);
    t.add(
        "relational.plancache.invalidations",
        stats.plan_cache_invalidations,
    );
    t.add("relational.storage.bytes_written", io.bytes_written);
    t.add("relational.storage.writes", io.writes);
    t.add("relational.storage.syncs", io.syncs);

    // The oracle: the seed database with exactly the acknowledged churn
    // prefix applied. The final snapshot must hold the same state and give
    // the same answer to every template.
    let snapshot = svc.session();
    if !snapshot.db().database().same_state(&oracle) {
        r.wrong("final snapshot state differs from the oracle".into());
    }
    let want: Vec<KRelation> = templates
        .iter()
        .map(|w| Evaluator::new(&oracle).eval_cq(&w.query).0)
        .collect();
    let got: Vec<KRelation> = templates
        .iter()
        .map(|w| Evaluator::new(snapshot.db()).eval_cq(&w.query).0)
        .collect();
    if let Err(e) = check_snapshot(&want, &got) {
        r.wrong(e);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_check_fails_closed_on_a_planted_wrong_answer() {
        let (db, _) = tpch::generate(&TpchConfig {
            lineitem_rows: 200,
            seed: 5,
        });
        let answers: Vec<KRelation> = tpch_queries(db.schema())
            .iter()
            .map(|w| Evaluator::new(&db).eval_cq(&w.query).0)
            .collect();
        assert_eq!(check_snapshot(&answers, &answers.clone()), Ok(()));

        let mut planted = answers.clone();
        let victim = planted
            .iter()
            .position(|a| !a.is_empty())
            .expect("some template answers");
        planted[victim] = KRelation::default();
        assert!(check_snapshot(&answers, &planted).is_err());
        assert!(check_snapshot(&answers, &planted[1..]).is_err());
    }
}
