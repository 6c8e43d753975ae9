//! An epoch-keyed, stats-fingerprinted query-plan cache.
//!
//! `provabsd` re-planned every request from scratch even when thousands of
//! sessions issue the same query templates against the same epoch. The
//! [`PlanCache`] memoizes [`QueryPlan`]s in an [`EpochMap`] under a
//! `(query fingerprint, stats fingerprint)` key:
//!
//! * **Query fingerprint** — the plan mode plus the query's head and body
//!   structure (relations, constants, variable identities), hashed with
//!   FNV-1a so the key is stable across processes and runs.
//! * **Stats fingerprint** — precisely the statistics the planner reads for
//!   this query (relation row counts, per-variable-column distinct counts,
//!   per-constant resolved posting lengths, the index flag). Two databases
//!   agreeing on these plan the query identically, so a cache hit returns a
//!   plan byte-identical to what a cold plan would compute — hit and miss
//!   paths produce identical results and identical work counters.
//! * **Epochs** — a plan depends on the relations its body reads.
//!   [`PlanCache::invalidate_at`] **retires** (never evicts) the versions
//!   of every key touching a written relation, for epochs at or after the
//!   committing epoch, under the [`EpochMap`] fence protocol: a reader
//!   pinned to an older snapshot keeps hitting its versions bit-for-bit,
//!   and the writer fences *before* publishing the new epoch, so no reader
//!   can pin the new epoch and still hit a stale plan.
//!
//! Determinism contract: hits, misses and invalidations are pure functions
//! of the operation sequence (no time, no capacity eviction, no RNG), so
//! the service-level counters are bench-gate material like every other
//! counter in the system.

use crate::epochmap::EpochMap;
use crate::plan::{plan_cq, PlanMode, QueryPlan};
use crate::{Cq, Database, RelId, Term, Value};
use provabs_sched::sync::atomic::{AtomicU64, Ordering};
use std::borrow::Borrow;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64-bit hash — hand-rolled so fingerprints never depend
/// on `RandomState` seeds (and need no new dependency).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Cache key: what the plan depends on, hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    query_fp: u64,
    stats_fp: u64,
}

/// Monotonic counters of one [`PlanCache`] — surfaced through
/// `provabsd::stats()`. Deterministic for a deterministic op sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from a cached version.
    pub hits: u64,
    /// Lookups that planned cold (and inserted the result).
    pub misses: u64,
    /// Plan versions retired by [`PlanCache::invalidate_at`].
    pub invalidations: u64,
}

/// An epoch-aware cache of [`QueryPlan`]s (see the module docs).
///
/// `Send + Sync`; one cache is shared by every session of a
/// [`SessionRegistry`](crate::SessionRegistry) and consulted through
/// [`Evaluator::plan_cache`](crate::Evaluator::plan_cache).
#[derive(Debug)]
pub struct PlanCache {
    plans: EpochMap<PlanKey, RelId, Arc<QueryPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            plans: EpochMap::default(),
            hits: AtomicU64::labeled("plancache.hits", 0),
            misses: AtomicU64::labeled("plancache.misses", 0),
            invalidations: AtomicU64::labeled("plancache.invalidations", 0),
        }
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total cached plan versions (retired versions included —
    /// invalidation retires, never evicts).
    pub fn len(&self) -> usize {
        self.plans.versions()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// A snapshot of the hit/miss/invalidation counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// The plan for `q` under `mode` as seen at `epoch`: a cached version
    /// when one is valid, otherwise a cold [`plan_cq`] run against `db`
    /// (inserted under the fingerprints, first insert wins under races).
    /// Returns the plan and whether the lookup hit.
    ///
    /// The caller must pass the database its session actually reads — the
    /// stats fingerprint is computed from `db`, which is what guarantees a
    /// hit is byte-identical to the cold plan.
    pub fn lookup_or_plan(
        &self,
        db: &Database,
        q: &Cq,
        mode: PlanMode,
        epoch: u64,
    ) -> (Arc<QueryPlan>, bool) {
        let key = PlanKey {
            query_fp: query_fingerprint(q, mode),
            stats_fp: stats_fingerprint(db, q),
        };
        if let Some(plan) = self.plans.get(&key, epoch) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (plan, true);
        }
        // Plan outside any lock: planning probes the dictionary and is the
        // expensive part this cache exists to amortize. A racing miss may
        // insert first; its plan is equal (same fingerprints ⇒ same planner
        // inputs) and the stored one is kept.
        let plan = Arc::new(plan_cq(db, q, mode, None));
        let rels: Vec<RelId> = q.body.iter().map(|a| a.rel).collect();
        let plan = self.plans.insert(key, rels, epoch, plan);
        self.misses.fetch_add(1, Ordering::Relaxed);
        (plan, false)
    }

    /// Retires, for epochs `>= epoch`, every cached version whose query
    /// reads a relation in `touched` ([`EpochMap::retire`]). Readers pinned
    /// at older epochs keep hitting their versions bit-for-bit. The writer
    /// must call this **before** publishing `epoch` so no reader pins the
    /// new epoch and hits a stale plan.
    pub fn invalidate_at(&self, touched: impl IntoIterator<Item = impl Borrow<RelId>>, epoch: u64) {
        let retired = self
            .plans
            .retire(touched.into_iter().map(|r| *r.borrow()), epoch);
        self.invalidations.fetch_add(retired, Ordering::Relaxed);
    }
}

fn hash_term(h: &mut Fnv, t: &Term) {
    match t {
        Term::Var(v) => {
            h.byte(0);
            h.u64(v.0 as u64);
        }
        Term::Const(Value::Int(i)) => {
            h.byte(1);
            h.u64(*i as u64);
        }
        Term::Const(Value::Str(s)) => {
            h.byte(2);
            h.u64(s.len() as u64);
            h.bytes(s.as_bytes());
        }
    }
}

/// FNV-1a over the plan-relevant structure of `q` under `mode`: the mode
/// discriminant, head terms, and body atoms (relation ids, arities, terms).
/// The head name is cosmetic and excluded.
fn query_fingerprint(q: &Cq, mode: PlanMode) -> u64 {
    let mut h = Fnv::new();
    h.byte(match mode {
        PlanMode::CostBased => 0,
        PlanMode::Greedy => 1,
        PlanMode::WrittenOrder => 2,
    });
    h.u64(q.head.len() as u64);
    for t in &q.head {
        hash_term(&mut h, t);
    }
    h.u64(q.body.len() as u64);
    for a in &q.body {
        h.u64(a.rel.0 as u64);
        h.u64(a.terms.len() as u64);
        for t in &a.terms {
            hash_term(&mut h, t);
        }
    }
    h.0
}

/// FNV-1a over exactly the statistics `plan_cq` reads for `q`: the index
/// flag, and per body atom its relation row count, each variable column's
/// distinct count, and each constant's resolved posting length (an
/// un-interned constant hashes as a sentinel). Databases agreeing on this
/// fingerprint plan `q` identically — the planner has no other input.
fn stats_fingerprint(db: &Database, q: &Cq) -> u64 {
    let mut h = Fnv::new();
    h.byte(db.is_indexed() as u8);
    for a in &q.body {
        h.u64(db.relation_len(a.rel) as u64);
        for (col, term) in a.terms.iter().enumerate() {
            match term {
                Term::Var(_) => h.u64(db.distinct_count(a.rel, col) as u64),
                Term::Const(c) => match db.interner().lookup(c) {
                    None => h.u64(u64::MAX),
                    Some(id) => h.u64(db.posting_len(a.rel, col, id) as u64),
                },
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_cq, plan_cq};

    fn db() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        let s = db.add_relation("S", &["b", "c"]);
        for i in 0..30 {
            db.insert_str(r, &format!("r{i}"), &[&i.to_string(), &(i % 5).to_string()]);
            db.insert_str(s, &format!("s{i}"), &[&(i % 5).to_string(), &i.to_string()]);
        }
        db.build_indexes();
        db
    }

    #[test]
    fn hit_returns_the_cold_plan_byte_identical() {
        let db = db();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let cache = PlanCache::new();
        let (cold, hit) = cache.lookup_or_plan(&db, &q, PlanMode::CostBased, 0);
        assert!(!hit);
        assert_eq!(*cold, plan_cq(&db, &q, PlanMode::CostBased, None));
        let (warm, hit) = cache.lookup_or_plan(&db, &q, PlanMode::CostBased, 0);
        assert!(hit);
        assert_eq!(warm, cold);
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0
            }
        );
        // Modes key separately.
        let (_, hit) = cache.lookup_or_plan(&db, &q, PlanMode::WrittenOrder, 0);
        assert!(!hit);
    }

    #[test]
    fn changed_statistics_change_the_key() {
        let mut db = db();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let cache = PlanCache::new();
        cache.lookup_or_plan(&db, &q, PlanMode::CostBased, 0);
        // Touch R's statistics: same query, new stats fingerprint — a cold
        // plan even without any invalidation fence.
        let r = db.schema().relation_id("R").unwrap();
        db.insert_str(r, "fresh", &["99", "99"]);
        db.build_indexes();
        let (plan, hit) = cache.lookup_or_plan(&db, &q, PlanMode::CostBased, 0);
        assert!(!hit);
        assert_eq!(*plan, plan_cq(&db, &q, PlanMode::CostBased, None));
    }

    #[test]
    fn invalidation_retires_only_touching_queries_and_later_epochs() {
        let db = db();
        let r = db.schema().relation_id("R").unwrap();
        let q_r = parse_cq("Q(a) :- R(a, b)", db.schema()).unwrap();
        let q_s = parse_cq("Q(b) :- S(b, c)", db.schema()).unwrap();
        let cache = PlanCache::new();
        cache.lookup_or_plan(&db, &q_r, PlanMode::CostBased, 0);
        cache.lookup_or_plan(&db, &q_s, PlanMode::CostBased, 0);
        cache.invalidate_at([r], 1);
        assert_eq!(cache.stats().invalidations, 1, "only the R query retires");
        // The pinned epoch-0 reader keeps hitting both.
        assert!(cache.lookup_or_plan(&db, &q_r, PlanMode::CostBased, 0).1);
        assert!(cache.lookup_or_plan(&db, &q_s, PlanMode::CostBased, 0).1);
        // An epoch-1 reader re-plans the retired query, hits the other.
        assert!(!cache.lookup_or_plan(&db, &q_r, PlanMode::CostBased, 1).1);
        assert!(cache.lookup_or_plan(&db, &q_s, PlanMode::CostBased, 1).1);
        // Both epochs are now fully warm.
        assert!(cache.lookup_or_plan(&db, &q_r, PlanMode::CostBased, 0).1);
        assert!(cache.lookup_or_plan(&db, &q_r, PlanMode::CostBased, 1).1);
        assert_eq!(cache.len(), 3, "retire, never evict");
    }

    #[test]
    fn fingerprints_separate_queries_not_cosmetics() {
        let db = db();
        let a = parse_cq("Q(a) :- R(a, b)", db.schema()).unwrap();
        let mut renamed = a.clone();
        renamed.head_name = "Other".into();
        assert_eq!(
            query_fingerprint(&a, PlanMode::CostBased),
            query_fingerprint(&renamed, PlanMode::CostBased),
            "head name is cosmetic"
        );
        let b = parse_cq("Q(a) :- R(a, 3)", db.schema()).unwrap();
        assert_ne!(
            query_fingerprint(&a, PlanMode::CostBased),
            query_fingerprint(&b, PlanMode::CostBased)
        );
    }
}
