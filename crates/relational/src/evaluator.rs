//! The [`Evaluator`] builder: one front door for every evaluation variant.
//!
//! Each combination of {CQ, UCQ} × {owned, interned} × {plain, limited,
//! traced, delta-restricted} × {plan mode} × {execution} is configuration
//! on one builder, not a function of its own; the crate exports no free
//! evaluation function:
//!
//! ```
//! use provabs_relational::{parse_cq, Database, Evaluator, Execution, PlanMode};
//!
//! let mut db = Database::new();
//! let r = db.add_relation("R", &["a", "b"]);
//! db.insert_str(r, "t1", &["1", "2"]);
//! db.insert_str(r, "t2", &["2", "3"]);
//! db.build_indexes();
//! let q = parse_cq("Q(x, z) :- R(x, y), R(y, z)", db.schema()).unwrap();
//!
//! let eval = Evaluator::new(&db); // cost-based plan, block execution
//! let (out, work) = eval.eval_cq(&q);
//! assert_eq!(out.len(), 1);
//!
//! // The same evaluation, replayed through the scalar engine: identical
//! // output, scalar counter semantics.
//! let (replay, _) = eval.execution(Execution::Scalar).eval_cq(&q);
//! assert_eq!(replay, out);
//! # let _ = PlanMode::default();
//! ```
//!
//! An evaluator borrows the database immutably, so it cannot drive
//! [`Database::apply_delta`]; the update cycle lives on [`Updater`], which
//! holds only configuration and borrows the database per call:
//!
//! ```
//! use provabs_relational::{parse_cq, Database, Delta, Tuple, Updater};
//!
//! let mut db = Database::new();
//! let r = db.add_relation("R", &["a"]);
//! db.insert_str(r, "t1", &["1"]);
//! db.build_indexes();
//! let q = parse_cq("Q(x) :- R(x)", db.schema()).unwrap();
//! let mut delta = Delta::new();
//! delta.insert(r, "t2", Tuple::parse(&["2"]));
//!
//! let out = Updater::new().apply(&mut db, &delta, std::slice::from_ref(&q));
//! assert_eq!(out.deltas.len(), 1);
//! ```

use crate::delta::{
    apply_delta_impl, eval_delta_side, sum_disjuncts, Delta, DeltaEvalOutcome, IDeltaEvalOutcome,
};
use crate::eval::{run_engine, EvalLimits, EvalWork, KRelation};
use crate::exec::Execution;
use crate::interned::IKRelation;
use crate::plan::{PlanMode, PlanTrace};
use crate::plancache::PlanCache;
use crate::{Cq, Database, Ucq};
use provabs_semiring::{AnnotId, ProvStore};
use std::collections::HashSet;

/// A configured evaluation front end over a borrowed [`Database`].
///
/// Construction is free — an `Evaluator` is a [`PlanMode`], an
/// [`Execution`] and [`EvalLimits`] next to a `&Database`; build one per
/// call site or keep one around, as convenient. All configuration methods
/// are chainable and copy the evaluator ([`Evaluator`] is `Copy`).
///
/// Owned results decode provenance into [`KRelation`]s through a throwaway
/// arena per call. Callers evaluating repeatedly should pass a persistent
/// [`ProvStore`] to [`Evaluator::interned`] and traffic in
/// [`IKRelation`]s, so hash-consing and operation memos carry across
/// evaluations.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'db> {
    db: &'db Database,
    mode: PlanMode,
    exec: Execution,
    limits: EvalLimits,
    cache: Option<(&'db PlanCache, u64)>,
}

impl<'db> Evaluator<'db> {
    /// An evaluator with the default configuration: cost-based planning,
    /// vectorized block execution, no limits.
    pub fn new(db: &'db Database) -> Self {
        Evaluator {
            db,
            mode: PlanMode::default(),
            exec: Execution::default(),
            limits: EvalLimits::default(),
            cache: None,
        }
    }

    /// Selects the join order policy (see [`PlanMode`]).
    pub fn plan(mut self, mode: PlanMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the physical execution (see [`Execution`]). Results that
    /// depend on the engine — gated counters, scalar-only counter
    /// identities, output subsets kept under [`EvalLimits`] — pin
    /// [`Execution::Scalar`] here explicitly.
    pub fn execution(mut self, exec: Execution) -> Self {
        self.exec = exec;
        self
    }

    /// Caps derivations and distinct outputs (see [`EvalLimits`]).
    pub fn limits(mut self, limits: EvalLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Binds an epoch-keyed [`PlanCache`]: CQ evaluations consult the
    /// cache at `epoch` before planning, and insert on miss. The cached
    /// plan is byte-identical to a cold plan (the stats fingerprint keys
    /// on exactly the statistics the planner reads), so hit and miss
    /// paths produce identical results and counters. UCQ disjuncts are
    /// not cached.
    pub fn plan_cache(mut self, cache: &'db PlanCache, epoch: u64) -> Self {
        self.cache = Some((cache, epoch));
        self
    }

    /// Runs `f` against a throwaway arena and decodes its result.
    fn decoded(
        &self,
        f: impl FnOnce(&mut InternedEvaluator<'db, '_>) -> (IKRelation, EvalWork),
    ) -> (KRelation, EvalWork) {
        let mut store = ProvStore::new();
        let (out, work) = f(&mut self.interned(&mut store));
        (out.to_krelation(&store), work)
    }

    /// Evaluates a CQ, returning the owned K-relation and work counters.
    pub fn eval_cq(&self, q: &Cq) -> (KRelation, EvalWork) {
        self.decoded(|e| e.eval_cq(q))
    }

    /// [`Evaluator::eval_cq`] also returning the executed plan and per-step
    /// actual row counts — the estimated-versus-actual diagnostic surface
    /// of the planner (`bench::planner` logs it; tests pin expected plans
    /// through it).
    pub fn eval_cq_traced(&self, q: &Cq) -> (KRelation, EvalWork, PlanTrace) {
        let mut store = ProvStore::new();
        let (out, work, trace) = self.interned(&mut store).run(q);
        (out.to_krelation(&store), work, trace)
    }

    /// Evaluates a UCQ (the sum of its disjuncts, each planned
    /// independently and evaluated without limits).
    pub fn eval_ucq(&self, u: &Ucq) -> (KRelation, EvalWork) {
        self.decoded(|e| e.eval_ucq(u))
    }

    /// The provenance retracted by deleting the tuples tagged by `deletes`
    /// (evaluate **before** applying the delta).
    pub fn retractions_cq(&self, q: &Cq, deletes: &HashSet<AnnotId>) -> (KRelation, EvalWork) {
        self.decoded(|e| e.retractions_cq(q, deletes))
    }

    /// UCQ retractions: the sum of the disjuncts' retractions.
    pub fn retractions_ucq(&self, u: &Ucq, deletes: &HashSet<AnnotId>) -> (KRelation, EvalWork) {
        self.decoded(|e| e.retractions_ucq(u, deletes))
    }

    /// UCQ additions: the sum of the disjuncts' additions (evaluate
    /// **after** applying the delta).
    pub fn additions_ucq(&self, u: &Ucq, inserts: &HashSet<AnnotId>) -> (KRelation, EvalWork) {
        self.decoded(|e| e.additions_ucq(u, inserts))
    }

    /// Evaluates a batch of CQs across `workers` scoped threads sharing one
    /// database — no cloning, no `unsafe`: [`Database`] is `Send + Sync`
    /// (plain `Vec`/`HashMap` columnar storage plus an append-only value
    /// dictionary, no interior mutability), so every worker evaluates
    /// through the same `&Database`, including its hash indexes and
    /// interner. Work-stealing; results come back in input order regardless
    /// of which worker produced them.
    ///
    /// Build the indexes *before* fanning out ([`Database::build_indexes`]
    /// takes `&mut self`): an unindexed database still evaluates correctly
    /// but every bound-column probe degrades to a scan.
    ///
    /// ```
    /// use provabs_relational::{parse_cq, Database, Evaluator};
    ///
    /// let mut db = Database::new();
    /// let r = db.add_relation("R", &["a", "b"]);
    /// db.insert_str(r, "t1", &["1", "2"]);
    /// db.insert_str(r, "t2", &["2", "3"]);
    /// db.build_indexes();
    /// let q1 = parse_cq("Q(x) :- R(x, y)", db.schema()).unwrap();
    /// let q2 = parse_cq("Q(x, z) :- R(x, y), R(y, z)", db.schema()).unwrap();
    ///
    /// let eval = Evaluator::new(&db);
    /// let parallel = eval.eval_batch(&[q1.clone(), q2.clone()], 2);
    /// assert_eq!(parallel[0], eval.eval_cq(&q1));
    /// assert_eq!(parallel[1], eval.eval_cq(&q2));
    /// ```
    pub fn eval_batch(&self, queries: &[Cq], workers: usize) -> Vec<(KRelation, EvalWork)> {
        let workers = workers.max(1).min(queries.len().max(1));
        if workers <= 1 || queries.len() <= 1 {
            return queries.iter().map(|q| self.eval_cq(q)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<(KRelation, EvalWork)>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        let slots = std::sync::Mutex::new(slots);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (next, slots) = (&next, &slots);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= queries.len() {
                        break;
                    }
                    let out = self.eval_cq(&queries[i]);
                    slots.lock().expect("result lock poisoned")[i] = Some(out);
                });
            }
        });
        slots
            .into_inner()
            .expect("result lock poisoned")
            .into_iter()
            .map(|r| r.expect("every query slot filled"))
            .collect()
    }

    /// Binds a persistent [`ProvStore`]: results come back as
    /// [`IKRelation`]s whose provenance lives in the store.
    pub fn interned<'s>(&self, store: &'s mut ProvStore) -> InternedEvaluator<'db, 's> {
        InternedEvaluator { eval: *self, store }
    }
}

/// An [`Evaluator`] bound to a caller-owned [`ProvStore`]: every result is
/// an [`IKRelation`] interned in that store.
pub struct InternedEvaluator<'db, 's> {
    eval: Evaluator<'db>,
    store: &'s mut ProvStore,
}

impl InternedEvaluator<'_, '_> {
    /// One CQ through the engine, consulting the bound plan cache.
    fn run(&mut self, q: &Cq) -> (IKRelation, EvalWork, PlanTrace) {
        let e = self.eval;
        let plan = e
            .cache
            .map(|(cache, epoch)| cache.lookup_or_plan(e.db, q, e.mode, epoch).0);
        run_engine(
            e.db,
            q,
            e.limits,
            None,
            self.store,
            e.mode,
            e.exec,
            plan.as_deref(),
        )
    }

    /// Evaluates a CQ into the bound store.
    pub fn eval_cq(&mut self, q: &Cq) -> (IKRelation, EvalWork) {
        let (out, work, _) = self.run(q);
        (out, work)
    }

    /// Evaluates a UCQ into the bound store: the sum of its disjuncts,
    /// each planned independently (not cached) and evaluated without
    /// limits.
    pub fn eval_ucq(&mut self, u: &Ucq) -> (IKRelation, EvalWork) {
        let e = self.eval;
        let mut out = IKRelation::default();
        let mut work = EvalWork::default();
        for d in &u.disjuncts {
            let (part, dwork, _) = run_engine(
                e.db,
                d,
                EvalLimits::default(),
                None,
                self.store,
                e.mode,
                e.exec,
                None,
            );
            work.absorb(&dwork);
            out.absorb(self.store, part);
        }
        (out, work)
    }

    /// CQ retractions into the bound store (pre-delta database).
    pub fn retractions_cq(&mut self, q: &Cq, deletes: &HashSet<AnnotId>) -> (IKRelation, EvalWork) {
        let e = self.eval;
        eval_delta_side(e.db, q, deletes, self.store, e.mode, e.exec)
    }

    /// UCQ retractions into the bound store (pre-delta database).
    pub fn retractions_ucq(
        &mut self,
        u: &Ucq,
        deletes: &HashSet<AnnotId>,
    ) -> (IKRelation, EvalWork) {
        let e = self.eval;
        sum_disjuncts(e.db, u, deletes, self.store, e.mode, e.exec)
    }

    /// UCQ additions into the bound store (post-delta database).
    pub fn additions_ucq(&mut self, u: &Ucq, inserts: &HashSet<AnnotId>) -> (IKRelation, EvalWork) {
        self.retractions_ucq(u, inserts)
    }
}

/// The configured incremental-maintenance front end: computes retractions
/// on the pre-delta database, applies a [`Delta`], then computes additions
/// on the post-delta one. Merging the resulting
/// [`KRelationDelta`](crate::KRelationDelta)s into cached results
/// reproduces full re-evaluation exactly. Holds no database borrow, so it
/// composes with [`Database::apply_delta`]'s `&mut self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Updater {
    mode: PlanMode,
    exec: Execution,
}

impl Updater {
    /// An updater with the default configuration: cost-based planning,
    /// vectorized block execution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the join order policy.
    pub fn plan(mut self, mode: PlanMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the physical execution.
    pub fn execution(mut self, exec: Execution) -> Self {
        self.exec = exec;
        self
    }

    /// Runs the full cycle against `db`, decoding per-query
    /// [`KRelationDelta`](crate::KRelationDelta)s through a throwaway arena.
    pub fn apply(&self, db: &mut Database, delta: &Delta, queries: &[Cq]) -> DeltaEvalOutcome {
        let mut store = ProvStore::new();
        let out = self.apply_interned(db, delta, queries, &mut store);
        DeltaEvalOutcome {
            deltas: out
                .deltas
                .iter()
                .map(|d| d.to_krelation_delta(&store))
                .collect(),
            applied: out.applied,
            work: out.work,
        }
    }

    /// Runs the full cycle against `db` with interned results in `store`.
    pub fn apply_interned(
        &self,
        db: &mut Database,
        delta: &Delta,
        queries: &[Cq],
        store: &mut ProvStore,
    ) -> IDeltaEvalOutcome {
        apply_delta_impl(db, delta, queries, store, self.mode, self.exec)
    }

    /// Validated [`Updater::apply`]: a delta that would make
    /// [`Database::apply_delta`] panic — unknown relation, arity mismatch,
    /// a label that already tags a tuple, or one retired by a deletion —
    /// is rejected with a typed
    /// [`StorageError::InvalidDelta`](crate::storage::StorageError) before
    /// anything mutates. The same fail-closed boundary the durable layer
    /// applies before a WAL append, for callers (like the `provabsd`
    /// writer loop) that must never turn a bad request into a panic.
    pub fn try_apply(
        &self,
        db: &mut Database,
        delta: &Delta,
        queries: &[Cq],
    ) -> Result<DeltaEvalOutcome, crate::storage::StorageError> {
        crate::storage::validate_delta(db, delta)?;
        Ok(self.apply(db, delta, queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_eval_cq;
    use crate::{parse_cq, parse_ucq, Tuple};

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
    fn owned_and_interned_match_the_oracle_under_both_executions() {
        let db = db();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let want = oracle_eval_cq(&db, &q);
        for exec in [Execution::default(), Execution::Scalar] {
            let eval = Evaluator::new(&db).execution(exec);
            let (out, work) = eval.eval_cq(&q);
            assert_eq!(out, want, "exec={exec:?}");
            // The owned result decodes the interned one: same counters.
            let mut store = ProvStore::new();
            let (interned, iwork) = eval.interned(&mut store).eval_cq(&q);
            assert_eq!(interned.to_krelation(&store), want, "exec={exec:?}");
            assert_eq!(iwork, work, "exec={exec:?}");
            // Deterministic: a second run replays the counters.
            assert_eq!(eval.eval_cq(&q).1, work, "exec={exec:?}");
        }
    }

    #[test]
    fn try_apply_rejects_bad_deltas_without_panicking() {
        use crate::storage::StorageError;
        use crate::Delta;
        let mut db = db();
        let r = db.schema().relation_id("R").unwrap();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let queries = vec![q];
        // Reusing a live label is a typed error, not a panic, and the
        // database is untouched.
        let before = db.clone();
        let mut bad = Delta::new();
        bad.insert(r, "r0", Tuple::parse(&["99", "99"]));
        let err = Updater::new().try_apply(&mut db, &bad, &queries);
        assert!(matches!(err, Err(StorageError::InvalidDelta(_))));
        assert!(db.same_state(&before));
        // A retired label is rejected too.
        let r0 = db.annotations().get("r0").unwrap();
        let mut del = Delta::new();
        del.delete(r0);
        Updater::new().try_apply(&mut db, &del, &queries).unwrap();
        let err = Updater::new().try_apply(&mut db, &bad, &queries);
        assert!(matches!(err, Err(StorageError::InvalidDelta(_))));
        // A good delta goes through and matches the panicking path.
        let mut good = Delta::new();
        good.insert(r, "fresh", Tuple::parse(&["77", "3"]));
        let mut twin = db.clone();
        let out = Updater::new().try_apply(&mut db, &good, &queries).unwrap();
        let legacy = Updater::new().apply(&mut twin, &good, &queries);
        assert!(db.same_state(&twin));
        assert_eq!(out.deltas, legacy.deltas);
        assert_eq!(out.work, legacy.work);
    }

    #[test]
    fn interned_and_owned_agree() {
        let db = db();
        let u = parse_ucq("Q(a) :- R(a, b), S(b, c); Q(c) :- S(b, c)", db.schema()).unwrap();
        let eval = Evaluator::new(&db);
        let (owned, owork) = eval.eval_ucq(&u);
        let mut store = ProvStore::new();
        let (interned, iwork) = eval.interned(&mut store).eval_ucq(&u);
        assert_eq!(interned.to_krelation(&store), owned);
        assert_eq!(owork, iwork);
    }

    #[test]
    fn batch_matches_single_under_any_parallelism() {
        let db = db();
        let queries: Vec<Cq> = [
            "Q(a, c) :- R(a, b), S(b, c)",
            "Q(a) :- R(a, b)",
            "Q(b) :- S(b, c), R(a, b)",
        ]
        .iter()
        .map(|t| parse_cq(t, db.schema()).unwrap())
        .collect();
        for exec in [Execution::default(), Execution::Scalar] {
            let eval = Evaluator::new(&db).execution(exec);
            let single: Vec<_> = queries.iter().map(|q| eval.eval_cq(q)).collect();
            for workers in [1, 2, 4, 16] {
                let batch = eval.eval_batch(&queries, workers);
                assert_eq!(batch, single, "workers={workers} exec={exec:?}");
            }
        }
    }

    #[test]
    fn updater_runs_the_delta_cycle_under_both_executions() {
        for exec in [Execution::default(), Execution::Scalar] {
            let mut database = db();
            let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", database.schema()).unwrap();
            let mut cached = oracle_eval_cq(&database, &q);
            let r = database.schema().relation_id("R").unwrap();
            let mut delta = Delta::new();
            delta.insert(r, "rx", Tuple::parse(&["99", "3"]));
            delta.delete(database.annotations().get("r7").unwrap());
            let out = Updater::new().execution(exec).apply(
                &mut database,
                &delta,
                std::slice::from_ref(&q),
            );
            assert!(out.deltas[0].merge_into(&mut cached), "exec={exec:?}");
            assert_eq!(cached, oracle_eval_cq(&database, &q), "exec={exec:?}");
        }
    }
}
