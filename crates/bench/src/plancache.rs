//! The plan-cache axis: the epoch-keyed
//! [`PlanCache`](provabs_relational::PlanCache) under a closed-loop service
//! workload, which the `BENCH_9.json` CI perf gate drives
//! (`benches/micro_plancache.rs` times cached against cold planning on
//! one query in isolation).
//!
//! One scenario, `plan-cache/zipf`: a zipf-skewed closed loop against the
//! `provabsd` service with interleaved churn. Sessions pin snapshots,
//! templates repeat, and the writer fences the registry-wide plan cache
//! before publishing each epoch. The gate demands a ≥ 0.9 hit rate, at
//! least one fence, and a final snapshot that replays an offline oracle
//! bit-for-bit.
//!
//! Every compared counter is a pure function of the seed and the fixed
//! settings, so the gate is immune to CI-runner noise.

use crate::report::GateEntry;
use provabs_datagen::tpch::{self, tpch_queries, TpchConfig};
use provabs_datagen::{
    service_schedule, ChurnConfig, ChurnGenerator, ServiceOp, ServiceWorkloadConfig,
};
use provabs_relational::storage::{FaultyVfs, SharedVfs};
use provabs_relational::Evaluator;
use provabsd::{Provabsd, ServiceConfig, Session};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shape of one plan-cache sweep.
#[derive(Debug, Clone)]
pub struct PlanCacheSettings {
    /// Closed-loop operations.
    pub operations: usize,
    /// Closed-loop reader clients.
    pub clients: usize,
    /// Zipf exponent of the template popularity skew.
    pub zipf_s: f64,
    /// Every `update_every`-th operation is a writer churn batch (each one
    /// fences the plan cache and publishes a new epoch).
    pub update_every: usize,
    /// TPC-H scale (lineitem rows).
    pub lineitem_rows: usize,
    /// Workload / churn seed.
    pub seed: u64,
}

impl Default for PlanCacheSettings {
    fn default() -> Self {
        Self {
            operations: 400,
            clients: 4,
            zipf_s: 1.1,
            update_every: 160,
            lineitem_rows: 200,
            seed: 42,
        }
    }
}

impl PlanCacheSettings {
    /// The fixed configuration of the CI perf gate: small enough for a
    /// 1-CPU runner, deterministic, and the shape `BENCH_9.json` is built
    /// from. Changing this invalidates the checked-in baseline — re-emit
    /// it.
    pub fn ci_gate() -> Self {
        Self::default()
    }
}

/// Runs the `plan-cache/zipf` scenario of `settings`, returning its one
/// metric: the same closed loop `bench::service` drives, but the compared
/// counters are the registry-wide plan cache's — templates repeat under
/// zipf skew, churn fences the cache at every publication, and re-pinned
/// sessions plan at most once per template per epoch.
pub fn run_plancache_comparison(settings: &PlanCacheSettings) -> Vec<GateEntry> {
    let (mut db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: settings.lineitem_rows,
        seed: settings.seed,
    });
    db.build_indexes();
    let templates = tpch_queries(db.schema());
    let mut oracle = db.clone();
    let vfs: SharedVfs = Arc::new(Mutex::new(FaultyVfs::new()));
    let svc = Provabsd::create(vfs, "bench-plancache", db, ServiceConfig::default())
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
    vec![GateEntry::new("plan-cache/zipf")
        .count("rows_examined", rows_examined)
        .count("cache_hits", hits)
        .count("cache_misses", misses)
        .count("cache_invalidations", stats.plan_cache_invalidations)
        .ratio("hit_rate", hits, hits + misses)
        .ms("run_ms", run_ms)
        .flag("equal", equal)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Gate};

    fn quick_settings() -> PlanCacheSettings {
        PlanCacheSettings {
            operations: 120,
            update_every: 48,
            lineitem_rows: 80,
            ..Default::default()
        }
    }

    #[test]
    fn comparison_confirms_equality_and_fencing() {
        // The quick loop is too short for the 0.9 hit-rate bar; the gate's
        // rules run on the CI configuration below.
        let metrics = run_plancache_comparison(&quick_settings());
        assert_eq!(metrics.len(), 1);
        let cache = &metrics[0];
        assert_eq!(cache.name, "plan-cache/zipf");
        let get = |key| cache.get_count(key).unwrap();
        assert_eq!(cache.get_flag("equal"), Some(true), "plan cache diverged");
        assert!(get("cache_hits") > get("cache_misses"));
        assert!(
            get("cache_invalidations") > 0,
            "churn publications must fence the cache"
        );
    }

    #[test]
    fn gate_settings_are_deterministic() {
        let a = run_plancache_comparison(&quick_settings());
        let b = run_plancache_comparison(&quick_settings());
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
        let metrics = run_plancache_comparison(&PlanCacheSettings::ci_gate());
        let rules = Gate::named("plancache").unwrap().rules;
        assert_eq!(check(rules, &metrics, &metrics), Vec::<String>::new());
    }
}
