//! The schedule-enumeration axis: deterministic model-checking sweeps over
//! the engine's concurrency seams (the `micro_sched` bench and the
//! `BENCH_10.json` CI gate both drive this).
//!
//! Each scenario runs the `provabs-sched` explorer over a fixed ≤ 3-thread
//! concurrency scenario and reports the counters of the sweep itself:
//! schedules explored, sleep-set prunes, scheduling decisions, whether the
//! sweep was exhaustive, and — for the `mutant/*` scenarios, which seed a
//! publication-ordering bug on purpose — whether the sweep caught it.
//!
//! Two scenario families:
//!
//! * `session/*`, `plancache/*`, `admission/*` — the healthy protocols.
//!   The sweep must come back clean **and complete** (exhaustive up to the
//!   sleep-set reduction, no preemption bound), with a schedule count that
//!   is a pure function of the scenario. The gate diffs the counts
//!   *exactly*: a changed count means the synchronization structure of the
//!   seam changed, which is precisely what should force a human to re-emit
//!   the baseline.
//! * `mutant/*` — seeded bugs (fence dropped, publish-before-stage,
//!   unfenced privacy invalidation). The gate demands `caught == true`,
//!   fail-closed: a harness that stops seeing planted races protects
//!   nothing.
//!
//! Determinism notes: shard routing is unkeyed (see
//! `provabs_relational::sharded`), every scenario touches a single
//! annotation / relation so no `HashSet` iteration order leaks into lock
//! sequences, and
//! the explorer configs are pinned here — the `PROVABS_SCHED_BUDGET` env
//! knob deepens the *test-suite* sweeps, never the gate's.

use crate::report::GateEntry;
use provabs_core::privacy::PrivacyCache;
use provabs_relational::storage::{FaultyVfs, SharedVfs};
use provabs_relational::{parse_cq, Database, PlanMode, SessionRegistry, Tuple};
use provabs_reveng::Frontier;
use provabs_sched as sched;
use provabs_semiring::AnnotId;
use provabsd::{Provabsd, ServiceConfig, ServiceError};
use sched::sync::atomic::{AtomicU64, Ordering};
use sched::sync::{Arc, Mutex};
use sched::Config;
use std::collections::HashSet;
use std::time::Instant;

/// Shape of one schedule-enumeration sweep suite.
#[derive(Debug, Clone)]
pub struct SchedSettings {
    /// Hard cap on schedules per scenario (the gate scenarios finish far
    /// below it; hitting the cap marks the sweep incomplete, which the
    /// gate rejects).
    pub max_schedules: u64,
    /// Hard cap on scheduling decisions within one schedule.
    pub max_steps: u64,
}

impl Default for SchedSettings {
    fn default() -> Self {
        Self {
            max_schedules: 200_000,
            max_steps: 20_000,
        }
    }
}

impl SchedSettings {
    /// The fixed configuration the CI gate replays (`BENCH_10.json`).
    /// Deliberately *not* influenced by `PROVABS_SCHED_BUDGET`: gate
    /// counters must be a pure function of the code under test.
    pub fn ci_gate() -> Self {
        Self::default()
    }

    fn config(&self) -> Config {
        Config {
            preemption_bound: None,
            max_schedules: self.max_schedules,
            max_steps: self.max_steps,
        }
    }
}

fn seed_db() -> Database {
    let mut db = Database::new();
    let r = db.add_relation("R", &["a", "b"]);
    db.add_relation("S", &["a"]);
    db.insert_str(r, "t1", &["1", "x"]);
    db.insert_str(r, "t2", &["2", "x"]);
    db.build_indexes();
    db
}

/// Two readers race a writer publishing two epochs; every pinned snapshot
/// must hold exactly its epoch's tuples.
fn session_publish_body() {
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
            let reg = sched::sync::Arc::clone(&registry);
            sched::thread::spawn(move || {
                let s = reg.pin();
                assert_eq!(s.len() as u64, base + s.epoch(), "torn snapshot");
            })
        })
        .collect();
    for h in readers {
        h.join().unwrap();
    }
    w.join().unwrap();
}

/// The plan-cache fence protocol; `fence_first == false` is the seeded
/// mutant (publish before retire).
fn plan_cache_body(fence_first: bool) {
    let db = seed_db();
    let s_rel = db.schema().relation_id("S").unwrap();
    let (registry, mut writer) = SessionRegistry::shared(db.clone());
    let q = parse_cq("q(a) :- S(a)", db.schema()).unwrap();
    registry
        .plan_cache()
        .lookup_or_plan(&db, &q, PlanMode::CostBased, 0);
    let reg_w = sched::sync::Arc::clone(&registry);
    let wdb = db.clone();
    let w = sched::thread::spawn(move || {
        if fence_first {
            reg_w.plan_cache().invalidate_at(&[s_rel], 1);
            writer.publish(&wdb);
        } else {
            writer.publish(&wdb);
            reg_w.plan_cache().invalidate_at(&[s_rel], 1);
        }
    });
    let session = registry.pin();
    let (_, hit) =
        registry
            .plan_cache()
            .lookup_or_plan(&session, &q, PlanMode::CostBased, session.epoch());
    if session.epoch() >= 1 {
        assert!(!hit, "stale plan served at fenced epoch 1");
    }
    w.join().unwrap();
}

/// The minimal two-cell registry model; `publish_before_stage == true` is
/// the seeded mutant.
fn staged_publication_body(publish_before_stage: bool) {
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
    assert!(l >= e, "half-published epoch observed");
    w.join().unwrap();
}

/// The privacy-cache fence protocol with the fence dropped *after* the
/// epoch store — a reader at the new epoch can hit the stale frontier. The
/// frontier's `complete` flag carries the per-epoch verdict.
fn privacy_unfenced_body() {
    let annot = AnnotId(7);
    let cell = vec![(Tuple::parse(&["1"]), vec![annot])];
    let cache = Arc::new(PrivacyCache::new());
    let stale = Frontier {
        queries: Vec::new(),
        complete: false,
    };
    cache.consistent_record(&cell, 0, stale);
    let published = Arc::new(AtomicU64::labeled("privacy.epoch", 0));
    let (c2, p2) = (Arc::clone(&cache), Arc::clone(&published));
    let writer = sched::thread::spawn(move || {
        let touched = HashSet::from([annot]);
        p2.store(1, Ordering::SeqCst);
        c2.invalidate_at(&touched, 1);
    });
    let epoch = published.load(Ordering::SeqCst);
    let truth = epoch >= 1;
    if let Some(f) = cache.consistent_probe(&cell, epoch) {
        assert_eq!(f.complete, truth, "stale privacy verdict at epoch {epoch}");
    }
    writer.join().unwrap();
}

/// Two clients race for one admission slot; decisions must linearize with
/// the queue state and the gauges must drain.
fn admission_body() {
    let vfs: SharedVfs = std::sync::Arc::new(std::sync::Mutex::new(FaultyVfs::new()));
    let svc = Provabsd::create(
        vfs,
        "svc",
        seed_db(),
        ServiceConfig {
            queue_capacity: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let svc = svc.clone();
            sched::thread::spawn(move || match svc.acquire(10) {
                Ok(permit) => {
                    drop(permit);
                    true
                }
                Err(ServiceError::Overloaded { queue_depth, .. }) => {
                    assert_eq!(queue_depth, 1, "rejection with a free slot");
                    false
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            })
        })
        .collect();
    let admitted = clients
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&ok| ok)
        .count() as u64;
    let s = svc.stats();
    assert!(admitted >= 1);
    assert_eq!(s.admitted + s.rejected_queue, 2);
    let h = svc.health();
    assert_eq!((h.queue_depth, h.inflight_work), (0, 0));
}

fn sweep(name: &str, cfg: Config, expect_violation: bool, body: fn()) -> GateEntry {
    let start = Instant::now();
    let outcome = sched::explore_with(cfg, body);
    let run_ms = start.elapsed().as_secs_f64() * 1e3;
    GateEntry::new(name)
        .count("schedules", outcome.schedules)
        .count("pruned", outcome.pruned)
        .count("decisions", outcome.decisions)
        .flag("complete", outcome.complete)
        .flag("expect_violation", expect_violation)
        .flag("caught", outcome.violation.is_some())
        .ms("run_ms", run_ms)
}

/// Runs every gate scenario and returns one [`GateEntry`] per sweep.
pub fn run_sched_sweeps(settings: &SchedSettings) -> Vec<GateEntry> {
    let cfg = || settings.config();
    vec![
        sweep("session/publish-2r1w", cfg(), false, session_publish_body),
        sweep("plancache/fence-ordered", cfg(), false, || {
            plan_cache_body(true)
        }),
        sweep("admission/2-clients", cfg(), false, admission_body),
        sweep("mutant/plan-fence-dropped", cfg(), true, || {
            plan_cache_body(false)
        }),
        sweep("mutant/publish-before-stage", cfg(), true, || {
            staged_publication_body(true)
        }),
        sweep(
            "mutant/privacy-unfenced",
            cfg(),
            true,
            privacy_unfenced_body,
        ),
    ]
}
