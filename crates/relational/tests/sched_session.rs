//! Model-checked session scenarios: readers racing a live writer, swept
//! across every schedule the explorer enumerates.
//!
//! These are the exhaustive variants of the native-thread smoke test in
//! `session.rs` — instead of hoping the OS scheduler happens to produce the
//! bad interleaving, the `provabs-sched` explorer enumerates all of them
//! (sleep-set reduced, unbounded preemptions) and asserts the snapshot
//! invariants in each. The mutant tests seed the two publication-ordering
//! bugs the harness exists to catch and require the sweep to find them.

use provabs_relational::{parse_cq, Database, Evaluator, PlanMode, SessionRegistry};
use provabs_sched as sched;
use sched::sync::atomic::{AtomicU64, Ordering};
use sched::sync::{Arc, Mutex};
use sched::Config;

fn seed_db() -> Database {
    let mut db = Database::new();
    let r = db.add_relation("R", &["a", "b"]);
    db.add_relation("S", &["a"]);
    db.insert_str(r, "t1", &["1", "x"]);
    db.insert_str(r, "t2", &["2", "x"]);
    db.build_indexes();
    db
}

/// The tentpole sweep: two readers race one writer publishing two epochs.
/// In **every** schedule, every pinned snapshot satisfies
/// `len == base + epoch` — `pin()` can never observe a half-published
/// epoch, because epoch and database are swapped under one write lock.
#[test]
fn publication_sweep_two_readers_one_writer_is_exhaustive() {
    fn body() {
        let db = seed_db();
        let base = db.len() as u64;
        let (registry, mut writer) = SessionRegistry::shared(db.clone());
        let mut wdb = db;
        let w = sched::thread::spawn(move || {
            let r = wdb.schema().relation_id("R").unwrap();
            for i in 0..2u64 {
                wdb.insert_str(r, &format!("w{i}"), &[&format!("{}", 10 + i), "x"]);
                writer.publish(&wdb);
            }
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&registry);
                sched::thread::spawn(move || {
                    let s = reg.pin();
                    assert_eq!(
                        s.len() as u64,
                        base + s.epoch(),
                        "snapshot at epoch {} must hold exactly its batch's tuples",
                        s.epoch()
                    );
                })
            })
            .collect();
        for h in readers {
            h.join().unwrap();
        }
        w.join().unwrap();
        assert_eq!(registry.epoch(), 2);
    }
    let outcome = sched::explore_with(Config::unbounded(), body);
    outcome.expect_clean();
    assert!(outcome.complete, "sweep must be exhaustive: {outcome:?}");
    assert!(outcome.schedules >= 4, "outcome: {outcome:?}");
    assert!(
        outcome.lock_cycle().is_none(),
        "session locks must be cycle-free: {:?}",
        outcome.lock_edges
    );
    // Schedule counts are deterministic — the exact count for this scenario
    // is additionally pinned by `bench_gate --bench sched` (BENCH_10.json).
    let again = sched::explore_with(Config::unbounded(), body);
    assert_eq!(outcome.schedules, again.schedules);
    assert_eq!(outcome.pruned, again.pruned);
    assert_eq!(outcome.decisions, again.decisions);
}

/// A pinned reader replays its epoch bit-for-bit in every schedule: the
/// same query evaluated before and after the writer publishes returns
/// identical answers, however the publication interleaves with the reads.
#[test]
fn pinned_reader_replays_epoch_bit_for_bit_in_every_schedule() {
    let outcome = sched::explore_with(Config::unbounded(), || {
        let db = seed_db();
        let (registry, mut writer) = SessionRegistry::shared(db.clone());
        let pinned = registry.pin();
        let q = parse_cq("q(x) :- R(x, 'x')", pinned.schema()).unwrap();
        let before = Evaluator::new(&pinned).eval_cq(&q);
        let mut wdb = db;
        let w = sched::thread::spawn(move || {
            let r = wdb.schema().relation_id("R").unwrap();
            wdb.insert_str(r, "t3", &["3", "x"]);
            writer.publish(&wdb);
        });
        // However far the writer has progressed in this schedule, the
        // pinned epoch-0 session answers bit-identically.
        let after = Evaluator::new(&pinned).eval_cq(&q);
        assert_eq!(before, after, "pinned snapshot must replay bit-for-bit");
        assert_eq!(pinned.epoch(), 0);
        w.join().unwrap();
        let fresh = registry.pin();
        assert_eq!(fresh.epoch(), 1);
    });
    outcome.expect_clean();
    assert!(outcome.complete);
}

/// Shared scenario for the plan-cache fence tests: the cache is warmed at
/// epoch 0 on a query over `S`, then the writer logically touches `S` and
/// publishes epoch 1 while a reader pins and probes. `fence_first` selects
/// the correct protocol (retire, then publish) or the seeded mutant
/// (publish, then retire).
fn plan_cache_fence_scenario(fence_first: bool) {
    let db = seed_db();
    let s_rel = db.schema().relation_id("S").unwrap();
    let (registry, mut writer) = SessionRegistry::shared(db.clone());
    let q = parse_cq("q(a) :- S(a)", db.schema()).unwrap();
    // Warm the cache before the race: epoch-0 version born.
    let (_, hit) = registry
        .plan_cache()
        .lookup_or_plan(&db, &q, PlanMode::CostBased, 0);
    assert!(!hit, "warm-up must plan cold");
    let reg_w = Arc::clone(&registry);
    let wdb = db.clone();
    let w = sched::thread::spawn(move || {
        if fence_first {
            reg_w.plan_cache().invalidate_at([s_rel], 1);
            writer.publish(&wdb);
        } else {
            writer.publish(&wdb);
            reg_w.plan_cache().invalidate_at([s_rel], 1);
        }
    });
    // The racing reader: whatever epoch it pins, a touched query at the
    // *new* epoch must re-plan — the fence happens-before publication.
    let session = registry.pin();
    let (_, hit) =
        registry
            .plan_cache()
            .lookup_or_plan(&session, &q, PlanMode::CostBased, session.epoch());
    if session.epoch() >= 1 {
        assert!(!hit, "stale plan served at fenced epoch 1");
    } else {
        assert!(hit, "epoch-0 reader must keep hitting its version");
    }
    w.join().unwrap();
}

/// Correct protocol: `invalidate_at` **before** `publish`. No schedule can
/// pin epoch 1 and still hit the stale epoch-0 plan.
#[test]
fn fenced_plan_cache_never_serves_stale_plan() {
    let outcome = sched::explore_with(Config::unbounded(), || plan_cache_fence_scenario(true));
    outcome.expect_clean();
    assert!(outcome.complete, "sweep must be exhaustive: {outcome:?}");
    assert!(
        outcome.lock_cycle().is_none(),
        "plan cache locks must be cycle-free: {:?}",
        outcome.lock_edges
    );
}

/// Seeded mutant: the writer publishes first and fences afterwards. Some
/// schedule pins epoch 1 in the window and hits the stale plan — the sweep
/// MUST catch it and hand back a replayable schedule.
#[test]
fn mutant_dropped_plan_cache_fence_is_caught() {
    let body = || plan_cache_fence_scenario(false);
    let outcome = sched::explore_with(Config::unbounded(), body);
    let v = outcome
        .violation
        .expect("dropped fence must be caught by the sweep");
    assert!(
        v.message.contains("stale plan"),
        "unexpected violation: {}",
        v.message
    );
    // The failing schedule replays byte-for-byte from its seed.
    let parsed = sched::Schedule::from_seed(&v.schedule.seed()).expect("seed parses");
    let replayed = sched::replay(&parsed, body);
    assert_eq!(replayed.trace, v.trace);
    assert_eq!(replayed.message.as_deref(), Some(v.message.as_str()));
}

/// The cold-cache late insert: nothing is cached when the writer fences
/// `S` and publishes epoch 1, while a reader pins, looks up and (missing)
/// inserts. A reader pinned at epoch 0 may read no fence before it plans;
/// its insert must still die at the fence, so an epoch-1 lookup re-plans.
fn plan_cache_cold_late_insert_scenario() {
    let db = seed_db();
    let s_rel = db.schema().relation_id("S").unwrap();
    let (registry, mut writer) = SessionRegistry::shared(db.clone());
    let q = parse_cq("q(a) :- S(a)", db.schema()).unwrap();
    let reg_w = Arc::clone(&registry);
    let wdb = db.clone();
    let w = sched::thread::spawn(move || {
        reg_w.plan_cache().invalidate_at([s_rel], 1);
        writer.publish(&wdb);
    });
    let session = registry.pin();
    registry
        .plan_cache()
        .lookup_or_plan(&session, &q, PlanMode::CostBased, session.epoch());
    w.join().unwrap();
    if session.epoch() == 0 {
        let (_, hit) = registry
            .plan_cache()
            .lookup_or_plan(&db, &q, PlanMode::CostBased, 1);
        assert!(
            !hit,
            "stale plan served at fenced epoch 1 after a late insert"
        );
    }
}

/// Every schedule of the cold late insert keeps the epoch-0 plan out of
/// epoch 1: the insert reads the fences under the entry's shard lock.
#[test]
fn cold_late_plan_insert_never_outlives_the_fence() {
    let outcome = sched::explore_with(Config::unbounded(), plan_cache_cold_late_insert_scenario);
    outcome.expect_clean();
    assert!(outcome.complete, "sweep must be exhaustive: {outcome:?}");
    assert!(
        outcome.lock_cycle().is_none(),
        "plan cache locks must be cycle-free: {:?}",
        outcome.lock_edges
    );
}

/// A minimal model of the *other* publication-ordering bug: a registry
/// whose epoch counter and database live in separate cells. Staging the
/// data before publishing the epoch keeps the reader invariant
/// `len >= epoch`; the mutant publishes the epoch first.
fn torn_registry_scenario(publish_before_stage: bool) {
    let epoch = Arc::new(AtomicU64::labeled("torn.epoch", 0));
    let len = Arc::new(Mutex::labeled("torn.len", 0u64));
    let (e2, l2) = (Arc::clone(&epoch), Arc::clone(&len));
    let w = sched::thread::spawn(move || {
        if publish_before_stage {
            e2.store(1, Ordering::SeqCst);
            *l2.lock().expect("len") = 1;
        } else {
            *l2.lock().expect("len") = 1;
            e2.store(1, Ordering::SeqCst);
        }
    });
    let e = epoch.load(Ordering::SeqCst);
    let l = *len.lock().expect("len");
    assert!(
        l >= e,
        "half-published epoch observed: epoch {e} but only {l} staged"
    );
    w.join().unwrap();
}

/// Stage-then-publish keeps the invariant in every schedule.
#[test]
fn staged_publication_is_never_half_observed() {
    let outcome = sched::explore_with(Config::unbounded(), || torn_registry_scenario(false));
    outcome.expect_clean();
    assert!(outcome.complete);
}

/// Seeded mutant: publishing the epoch before staging the data is caught.
#[test]
fn mutant_publish_before_stage_is_caught() {
    let outcome = sched::explore_with(Config::unbounded(), || torn_registry_scenario(true));
    let v = outcome
        .violation
        .expect("publish-before-stage must be caught");
    assert!(
        v.message.contains("half-published"),
        "unexpected violation: {}",
        v.message
    );
}
