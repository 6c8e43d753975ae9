//! The adaptive-execution axis: deterministic abort-and-restart
//! re-planning versus the static cost-based plan, plus the
//! epoch-keyed plan cache under a closed-loop service workload (the
//! `micro_adaptive` bench and the `BENCH_9.json` CI perf gate both drive
//! this).
//!
//! Two scenario families:
//!
//! * `corr-skew/s<seed>` — a [`provabs_datagen::correlated_skew`]
//!   database: every planted statistic (relation length, per-column
//!   distinct counts) points at the join order that explodes, because the
//!   cheap-looking atoms owe their selectivity to cold keys the driving
//!   scan never produces. The *same* query is evaluated twice on the
//!   default block engine — once statically planned, once with the adaptive
//!   trigger armed ([`Evaluator::adaptive`]) — and both outputs must be
//!   bit-for-bit equal to each other *and* to the naive decoded-scan
//!   oracle ([`provabs_relational::oracle`]). The compared counter is
//!   `rows_examined`, the same machine-independent probe-work proxy every
//!   other gate diffs; the acceptance bar is a ≥ 2× reduction
//!   (`adaptive_rows * 2 <= static_rows`), fail-closed.
//! * `plan-cache/zipf` — a zipf-skewed closed loop against the `provabsd`
//!   service with interleaved churn: sessions pin snapshots, templates
//!   repeat, and the writer fences the registry-wide
//!   [`PlanCache`](provabs_relational::PlanCache) before publishing each
//!   epoch. The gate demands a ≥ 0.9 hit rate and the final snapshot must
//!   replay an offline oracle bit-for-bit.
//!
//! Every compared counter is a pure function of the seed and the fixed
//! settings — re-plan points are row-count triggered, never wall-clock
//! triggered — so the gate is immune to CI-runner noise.

use crate::report::GateEntry;
use provabs_datagen::tpch::{self, tpch_queries, TpchConfig};
use provabs_datagen::{
    correlated_skew, service_schedule, ChurnConfig, ChurnGenerator, CorrelatedSkewConfig,
    ServiceOp, ServiceWorkloadConfig,
};
use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::storage::{FaultyVfs, SharedVfs};
use provabs_relational::Evaluator;
use provabsd::{Provabsd, ServiceConfig, Session};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shape of one adaptive-execution sweep.
#[derive(Debug, Clone)]
pub struct AdaptiveSettings {
    /// Seeds of the correlated-skew scenarios (one scenario per seed; the
    /// seed moves which anchor keys carry `Narrow` hits, not the sizes).
    pub skew_seeds: Vec<u64>,
    /// Correlated-skew shape. Kept below the datagen defaults so the
    /// full-product oracle replay stays cheap.
    pub skew: CorrelatedSkewConfig,
    /// Mis-estimate trigger factor passed to [`Evaluator::adaptive`].
    pub k: f64,
    /// Closed-loop operations of the `plan-cache/zipf` scenario.
    pub operations: usize,
    /// Closed-loop reader clients.
    pub clients: usize,
    /// Zipf exponent of the template popularity skew.
    pub zipf_s: f64,
    /// Every `update_every`-th operation is a writer churn batch (each one
    /// fences the plan cache and publishes a new epoch).
    pub update_every: usize,
    /// TPC-H scale (lineitem rows) of the service scenario.
    pub lineitem_rows: usize,
    /// Workload / churn seed of the service scenario.
    pub seed: u64,
}

impl Default for AdaptiveSettings {
    fn default() -> Self {
        Self {
            skew_seeds: vec![9, 17, 33],
            skew: CorrelatedSkewConfig {
                anchor_keys: 32,
                bloat_per_key: 16,
                bloat_cold: 512,
                wide_per_key: 32,
                wide_cold: 1024,
                narrow_keys: 256,
                narrow_per_key: 6,
                narrow_hits: 2,
                seed: 0, // overridden per scenario
            },
            k: 2.0,
            operations: 400,
            clients: 4,
            zipf_s: 1.1,
            update_every: 160,
            lineitem_rows: 200,
            seed: 42,
        }
    }
}

impl AdaptiveSettings {
    /// The fixed configuration of the CI perf gate: small enough for a
    /// 1-CPU runner, deterministic, and the shape `BENCH_9.json` is built
    /// from. Changing this invalidates the checked-in baseline — re-emit
    /// it.
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// Runs every scenario of `settings`, returning one metric per scenario:
/// one `corr-skew/s<seed>` entry per seed, then `plan-cache/zipf`.
pub fn run_adaptive_comparison(settings: &AdaptiveSettings) -> Vec<GateEntry> {
    let mut out = Vec::new();
    for &seed in &settings.skew_seeds {
        out.push(skew_metric(settings, seed));
    }
    out.push(plan_cache_metric(settings));
    out
}

/// One `corr-skew/` scenario: static versus adaptive evaluation of the
/// correlated-skew query, with the oracle as the independent correctness
/// witness.
fn skew_metric(settings: &AdaptiveSettings, seed: u64) -> GateEntry {
    let (db, w) = correlated_skew(&CorrelatedSkewConfig {
        seed,
        ..settings.skew.clone()
    });
    let t0 = Instant::now();
    let (static_out, static_work) = Evaluator::new(&db).eval_cq(&w.query);
    let static_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let (adaptive_out, adaptive_work) = Evaluator::new(&db).adaptive(settings.k).eval_cq(&w.query);
    let adaptive_ms = t1.elapsed().as_secs_f64() * 1e3;
    let oracle = oracle_eval_cq(&db, &w.query);
    let equal = adaptive_out == static_out && adaptive_out == oracle;
    let (adaptive_rows, static_rows) = (adaptive_work.rows_examined, static_work.rows_examined);
    GateEntry::new(w.name)
        .count("adaptive_rows", adaptive_rows)
        .count("static_rows", static_rows)
        .count("replans_triggered", adaptive_work.replan.replans_triggered)
        .count("est_error_max", adaptive_work.replan.est_error_max)
        .count("cache_hits", 0)
        .count("cache_misses", 0)
        .count("cache_invalidations", 0)
        .ratio("work_ratio", adaptive_rows, static_rows)
        .ratio("hit_rate", 0, 0)
        .ms("adaptive_ms", adaptive_ms)
        .ms("static_ms", static_ms)
        .flag("equal", equal)
}

/// The `plan-cache/zipf` scenario: the same closed loop `bench::service`
/// drives, but the compared counters are the registry-wide plan cache's —
/// templates repeat under zipf skew, churn fences the cache at every
/// publication, and re-pinned sessions re-plan at most once per template
/// per epoch.
fn plan_cache_metric(settings: &AdaptiveSettings) -> GateEntry {
    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    db.build_indexes();
    let templates = tpch_queries(db.schema());
    let mut oracle = db.clone();
    let vfs: SharedVfs = Arc::new(Mutex::new(FaultyVfs::new()));
    let svc = Provabsd::create(vfs, "bench-adaptive", db, ServiceConfig::default())
        .expect("create on a fault-free VFS");

    let schedule = service_schedule(&ServiceWorkloadConfig {
        clients: settings.clients,
        operations: settings.operations,
        templates: templates.len(),
        zipf_s: settings.zipf_s,
        update_every: settings.update_every,
        seed: settings.seed,
    });
    let mut churn = ChurnGenerator::new(&ChurnConfig {
        batch_size: 8,
        insert_ratio: 0.7,
        seed: settings.seed,
    });

    let mut sessions: Vec<Option<Session>> = vec![None; settings.clients.max(1)];
    let mut rows_examined = 0u64;
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
                let out = slot
                    .as_ref()
                    .expect("just pinned")
                    .query(&templates[template].query)
                    .expect("healthy closed loop completes every query");
                rows_examined += out.work.rows_examined;
            }
            ServiceOp::Update => {
                let delta = churn.next_batch(svc.session().db());
                svc.apply(&delta).expect("healthy closed loop applies");
                oracle.apply_delta(&delta);
            }
        }
    }
    let run_ms = start.elapsed().as_secs_f64() * 1e3;

    // The oracle replay: the final pinned snapshot must be bit-for-bit the
    // seed plus the applied churn prefix — state, per-template answers,
    // and engine work counters alike (cached plans are byte-identical to
    // cold plans, so the cache cannot shift a single counter).
    let snapshot = svc.session();
    let mut equal = snapshot.db().database().same_state(&oracle);
    for w in &templates {
        let want = Evaluator::new(&oracle).eval_cq(&w.query);
        let got = Evaluator::new(snapshot.db()).eval_cq(&w.query);
        equal &= got == want;
    }

    let stats = svc.stats();
    let (hits, misses) = (stats.plan_cache_hits, stats.plan_cache_misses);
    GateEntry::new("plan-cache/zipf")
        .count("adaptive_rows", rows_examined)
        .count("static_rows", rows_examined)
        .count("replans_triggered", 0)
        .count("est_error_max", 0)
        .count("cache_hits", hits)
        .count("cache_misses", misses)
        .count("cache_invalidations", stats.plan_cache_invalidations)
        .ratio("work_ratio", rows_examined, rows_examined)
        .ratio("hit_rate", hits, hits + misses)
        .ms("adaptive_ms", run_ms)
        .ms("static_ms", run_ms)
        .flag("equal", equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    fn quick_settings() -> AdaptiveSettings {
        AdaptiveSettings {
            skew_seeds: vec![9],
            operations: 120,
            update_every: 48,
            lineitem_rows: 80,
            ..Default::default()
        }
    }

    #[test]
    fn comparison_confirms_equality_and_savings() {
        let metrics = run_adaptive_comparison(&quick_settings());
        assert_eq!(metrics.len(), 2);
        let (skew, cache) = (&metrics[0], &metrics[1]);
        assert!(skew.name.starts_with("corr-skew/"));
        assert_eq!(cache.name, "plan-cache/zipf");
        // The quick loop is too short for the 0.9 hit-rate bar, so the gate
        // rules are checked on the skew scenario alone.
        let rules = Gate::named("adaptive").unwrap().rules;
        let skew_only = std::slice::from_ref(skew);
        assert_eq!(check(rules, skew_only, skew_only), Vec::<String>::new());
        let get = |m: &GateEntry, key| m.get_count(key).unwrap();
        assert!(
            get(skew, "est_error_max") >= 2,
            "the static plan was not fooled"
        );
        assert_eq!(cache.get_flag("equal"), Some(true), "plan cache diverged");
        assert!(get(cache, "cache_hits") > get(cache, "cache_misses"));
        assert!(
            get(cache, "cache_invalidations") > 0,
            "churn publications must fence the cache"
        );
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let a = run_adaptive_comparison(&quick_settings());
        let b = run_adaptive_comparison(&quick_settings());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.counts(), y.counts(), "{}", x.name);
            assert_eq!(x.get_flag("equal"), y.get_flag("equal"), "{}", x.name);
        }
    }

    #[test]
    fn gate_hit_rate_clears_the_bar() {
        // The exact configuration BENCH_9.json gates on: zipf repetition
        // plus only-at-publication fencing must keep 9 of 10 lookups warm.
        let metrics = run_adaptive_comparison(&AdaptiveSettings::ci_gate());
        let cache = metrics.last().expect("plan-cache scenario present");
        let rules = Gate::named("adaptive").unwrap().rules;
        let cache = std::slice::from_ref(cache);
        assert_eq!(check(rules, cache, cache), Vec::<String>::new());
    }
}
