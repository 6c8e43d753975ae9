//! Incremental view maintenance for provenance-annotated CQ results.
//!
//! A [`Delta`] is a batch of tuple insertions and deletions against a
//! [`Database`]. Instead of re-evaluating a query from scratch after every
//! update, the delta rules of semi-naive evaluation recompute only the
//! derivations that *touch* an affected row: for each body atom, join the
//! delta rows against the rest of the query. The result is a
//! [`KRelationDelta`] — provenance polynomials to add and to retract — whose
//! merge into a cached [`KRelation`] is bit-for-bit equal to full
//! re-evaluation on the updated database.
//!
//! The decomposition is exact in `N[X]`, not just set-semantics: a
//! derivation whose image contains `k ≥ 1` affected rows is produced by
//! exactly one pivot position (the first affected atom), so coefficients —
//! and therefore polynomials — match full re-evaluation term for term.
//!
//! # Protocol
//!
//! Retractions are measured on the database *before* the delta applies,
//! additions *after*; [`Updater::apply`](crate::Updater::apply) drives the
//! full cycle:
//!
//! ```
//! use provabs_relational::{parse_cq, Database, Delta, Evaluator, Tuple, Updater};
//!
//! let mut db = Database::new();
//! let r = db.add_relation("R", &["a", "b"]);
//! let s = db.add_relation("S", &["b"]);
//! db.insert_str(r, "r1", &["1", "10"]);
//! db.insert_str(s, "s1", &["10"]);
//! db.build_indexes();
//! let q = parse_cq("Q(x) :- R(x, y), S(y)", db.schema()).unwrap();
//! let (mut cached, _) = Evaluator::new(&db).eval_cq(&q);
//!
//! let mut delta = Delta::new();
//! delta.insert(s, "s2", Tuple::parse(&["10"]));
//! delta.delete(db.annotations().get("r1").unwrap());
//! let out = Updater::new().apply(&mut db, &delta, std::slice::from_ref(&q));
//!
//! assert!(out.deltas[0].merge_into(&mut cached));
//! assert_eq!(cached, Evaluator::new(&db).eval_cq(&q).0); // bit-for-bit equal to re-eval
//! ```

use crate::eval::{run_engine, EvalLimits, EvalWork, Restriction};
use crate::exec::Execution;
use crate::interned::{IKRelation, IKRelationDelta};
use crate::plan::PlanMode;
use crate::{Cq, Database, KRelation, RelId, Tuple, Ucq};
use provabs_semiring::{AnnotId, ProvStore};
use std::collections::HashSet;

/// One tuple insertion of a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaInsert {
    /// Target relation.
    pub rel: RelId,
    /// Annotation label of the new tuple (must be globally fresh — abstract
    /// tagging requires distinct annotations).
    pub label: String,
    /// The tuple values.
    pub tuple: Tuple,
}

/// A batched update: insertions plus deletions (by annotation — the stable
/// name of a tuple in an abstractly-tagged K-database).
///
/// Deletions are applied before insertions, so a delta may not delete a
/// tuple it inserts itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Tuples to insert.
    pub inserts: Vec<DeltaInsert>,
    /// Annotations whose tuples are deleted (unknown annotations are
    /// skipped).
    pub deletes: Vec<AnnotId>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an insertion.
    pub fn insert(&mut self, rel: RelId, label: impl Into<String>, tuple: Tuple) {
        self.inserts.push(DeltaInsert {
            rel,
            label: label.into(),
            tuple,
        });
    }

    /// Queues a deletion.
    pub fn delete(&mut self, annot: AnnotId) {
        self.deletes.push(annot);
    }

    /// Total number of queued changes.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether no changes are queued.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// What [`Database::apply_delta`] actually changed.
#[derive(Debug, Clone, Default)]
pub struct AppliedDelta {
    /// Annotations of the inserted tuples, in insertion order.
    pub inserted: Vec<AnnotId>,
    /// Annotations whose tuples were removed (requested deletions that
    /// tagged nothing are omitted).
    pub deleted: Vec<AnnotId>,
    /// Relations the delta actually changed (sorted, deduplicated) — the
    /// invalidation set for statistics-keyed caches like the
    /// [`PlanCache`](crate::PlanCache).
    pub rels: Vec<crate::RelId>,
}

impl AppliedDelta {
    /// Every annotation the delta touched — the invalidation set for
    /// provenance-aware caches.
    pub fn touched(&self) -> impl Iterator<Item = AnnotId> + '_ {
        self.deleted.iter().chain(self.inserted.iter()).copied()
    }
}

impl Database {
    /// Applies `delta`: deletions first (unknown annotations skipped), then
    /// insertions. Indexes are maintained incrementally throughout — an
    /// indexed database stays indexed. All maintenance happens at
    /// [`ValueId`](crate::ValueId) granularity on the columnar storage:
    /// inserts dictionary-encode the new row and append it to every
    /// posting list, deletes swap-remove each column and rename the moved
    /// row's postings — no owned `Value` is hashed either way.
    ///
    /// # Panics
    /// Panics if an insertion reuses a live annotation label or mismatches
    /// the schema arity (as [`Database::insert`] does).
    pub fn apply_delta(&mut self, delta: &Delta) -> AppliedDelta {
        let mut applied = AppliedDelta::default();
        for &a in &delta.deletes {
            if let Some((rel, _)) = self.delete(a) {
                applied.deleted.push(a);
                applied.rels.push(rel);
            }
        }
        for ins in &delta.inserts {
            applied
                .inserted
                .push(self.insert(ins.rel, &ins.label, ins.tuple.clone()));
            applied.rels.push(ins.rel);
        }
        applied.rels.sort_unstable();
        applied.rels.dedup();
        applied
    }
}

/// The change a delta induces on a query's [`KRelation`]: provenance to add
/// and provenance to retract. Both sides are plain K-relations, so the
/// delta composes (retractions and additions each sum across batches).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KRelationDelta {
    /// Provenance gained (derivations through inserted tuples).
    pub added: KRelation,
    /// Provenance lost (derivations through deleted tuples).
    pub removed: KRelation,
}

impl KRelationDelta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Merges into a cached K-relation: retractions subtracted exactly,
    /// additions summed, zeroed outputs dropped. Returns `false` — with
    /// `base` left in an unspecified but valid state — when a retraction is
    /// not contained in `base`, i.e. the cache does not correspond to the
    /// pre-delta database.
    pub fn merge_into(&self, base: &mut KRelation) -> bool {
        for (t, p) in self.removed.iter() {
            if !base.subtract(t, p) {
                return false;
            }
        }
        for (t, p) in self.added.iter() {
            base.add(t.clone(), p.clone());
        }
        true
    }
}

/// Sums the restricted evaluations over every pivot position whose relation
/// holds affected rows. The parts *move* into the sum (interned ids, no
/// polynomial clones).
pub(crate) fn eval_delta_side(
    db: &Database,
    q: &Cq,
    set: &HashSet<AnnotId>,
    store: &mut ProvStore,
    mode: PlanMode,
    exec: Execution,
) -> (IKRelation, EvalWork) {
    let mut out = IKRelation::default();
    let mut work = EvalWork::default();
    if set.is_empty() || q.body.is_empty() {
        return (out, work);
    }
    // Rows of affected tuples, grouped per relation (sorted for
    // deterministic traversal).
    let mut rows_by_rel: std::collections::HashMap<RelId, Vec<usize>> =
        std::collections::HashMap::new();
    for &a in set {
        if let Some(loc) = db.locate(a) {
            rows_by_rel.entry(loc.rel).or_default().push(loc.row);
        }
    }
    for rows in rows_by_rel.values_mut() {
        rows.sort_unstable();
    }
    for pivot in 0..q.body.len() {
        let Some(pivot_rows) = rows_by_rel.get(&q.body[pivot].rel) else {
            continue;
        };
        // The pivot's precomputed delta rows lead as the exact access
        // path; the planner orders only the rest of the body. Pivot passes
        // bypass the plan cache (its key carries no pivot).
        let (part, w, _) = run_engine(
            db,
            q,
            EvalLimits::default(),
            Some(Restriction {
                pivot,
                set,
                pivot_rows,
            }),
            store,
            mode,
            exec,
            None,
        );
        work.absorb(&w);
        out.absorb(store, part);
    }
    (out, work)
}

/// Sums [`eval_delta_side`] over the disjuncts of a UCQ.
pub(crate) fn sum_disjuncts(
    db: &Database,
    u: &Ucq,
    set: &HashSet<AnnotId>,
    store: &mut ProvStore,
    mode: PlanMode,
    exec: Execution,
) -> (IKRelation, EvalWork) {
    let mut out = IKRelation::default();
    let mut work = EvalWork::default();
    for d in &u.disjuncts {
        let (part, w) = eval_delta_side(db, d, set, store, mode, exec);
        work.absorb(&w);
        out.absorb(store, part);
    }
    (out, work)
}

/// The full incremental-maintenance cycle of one batch against a set of
/// cached query results.
#[derive(Debug)]
pub struct DeltaEvalOutcome {
    /// Per input query (same order): the change to merge into its cached
    /// K-relation.
    pub deltas: Vec<KRelationDelta>,
    /// What the database actually changed (invalidation set).
    pub applied: AppliedDelta,
    /// Evaluation work spent on all retraction + addition passes combined —
    /// compare against the [`EvalWork`](crate::EvalWork) of re-evaluating
    /// every query to quantify the savings.
    pub work: EvalWork,
}

/// The interned full incremental-maintenance cycle (see
/// [`DeltaEvalOutcome`] for the owned twin).
#[derive(Debug)]
pub struct IDeltaEvalOutcome {
    /// Per input query (same order): the interned change to merge into its
    /// maintained [`IKRelation`].
    pub deltas: Vec<IKRelationDelta>,
    /// What the database actually changed (invalidation set).
    pub applied: AppliedDelta,
    /// Evaluation work spent on all retraction + addition passes combined.
    pub work: EvalWork,
}

/// Computes retractions for every query, applies the delta to `db`, then
/// computes additions — returning per-query [`IKRelationDelta`]s whose
/// merge into pre-delta maintained results reproduces full re-evaluation
/// exactly. [`Updater`](crate::Updater) is the public front end.
pub(crate) fn apply_delta_impl(
    db: &mut Database,
    delta: &Delta,
    queries: &[Cq],
    store: &mut ProvStore,
    mode: PlanMode,
    exec: Execution,
) -> IDeltaEvalOutcome {
    let deletes: HashSet<AnnotId> = delta
        .deletes
        .iter()
        .copied()
        .filter(|&a| db.locate(a).is_some())
        .collect();
    let mut work = EvalWork::default();
    let mut removed_parts = Vec::with_capacity(queries.len());
    for q in queries {
        let (removed, w) = eval_delta_side(db, q, &deletes, store, mode, exec);
        work.absorb(&w);
        removed_parts.push(removed);
    }
    let applied = db.apply_delta(delta);
    let inserts: HashSet<AnnotId> = applied.inserted.iter().copied().collect();
    let deltas = queries
        .iter()
        .zip(removed_parts)
        .map(|(q, removed)| {
            let (added, w) = eval_delta_side(db, q, &inserts, store, mode, exec);
            work.absorb(&w);
            IKRelationDelta { added, removed }
        })
        .collect();
    IDeltaEvalOutcome {
        deltas,
        applied,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_cq, parse_ucq, Evaluator, Updater};

    fn eval_cq(db: &Database, q: &Cq) -> KRelation {
        Evaluator::new(db).eval_cq(q).0
    }

    fn triangle_db() -> (Database, RelId, RelId) {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        let s = db.add_relation("S", &["b", "c"]);
        db.insert_str(r, "r1", &["1", "10"]);
        db.insert_str(r, "r2", &["2", "10"]);
        db.insert_str(r, "r3", &["1", "20"]);
        db.insert_str(s, "s1", &["10", "100"]);
        db.insert_str(s, "s2", &["20", "100"]);
        db.insert_str(s, "s3", &["10", "200"]);
        db.build_indexes();
        (db, r, s)
    }

    fn assert_delta_matches_reeval(db: &mut Database, delta: &Delta, texts: &[&str]) {
        let queries: Vec<Cq> = texts
            .iter()
            .map(|t| parse_cq(t, db.schema()).unwrap())
            .collect();
        let mut cached: Vec<KRelation> = queries.iter().map(|q| eval_cq(db, q)).collect();
        let out = Updater::new().apply(db, delta, &queries);
        for ((q, cache), d) in queries.iter().zip(&mut cached).zip(&out.deltas) {
            assert!(d.merge_into(cache), "retraction underflow");
            assert_eq!(*cache, eval_cq(db, q), "delta merge != re-eval for {q:?}");
        }
    }

    #[test]
    fn insert_only_delta_matches_reeval() {
        let (mut db, r, s) = triangle_db();
        let mut delta = Delta::new();
        delta.insert(r, "r4", Tuple::parse(&["3", "20"]));
        delta.insert(s, "s4", Tuple::parse(&["20", "300"]));
        assert_delta_matches_reeval(
            &mut db,
            &delta,
            &["Q(a, c) :- R(a, b), S(b, c)", "Q(a) :- R(a, b)"],
        );
    }

    #[test]
    fn delete_only_delta_matches_reeval() {
        let (mut db, _, _) = triangle_db();
        let mut delta = Delta::new();
        delta.delete(db.annotations().get("r1").unwrap());
        delta.delete(db.annotations().get("s3").unwrap());
        assert_delta_matches_reeval(
            &mut db,
            &delta,
            &["Q(a, c) :- R(a, b), S(b, c)", "Q(b) :- S(b, c)"],
        );
    }

    #[test]
    fn mixed_delta_matches_reeval_including_self_join() {
        let (mut db, r, s) = triangle_db();
        let mut delta = Delta::new();
        delta.delete(db.annotations().get("r2").unwrap());
        delta.insert(r, "r4", Tuple::parse(&["10", "10"]));
        delta.insert(s, "s4", Tuple::parse(&["10", "10"]));
        assert_delta_matches_reeval(
            &mut db,
            &delta,
            &[
                // Self-join: the delta decomposition must count mixed
                // old/new images exactly once per derivation.
                "Q(a, c) :- R(a, b), R(b, c)",
                "Q(a) :- R(a, a)",
                "Q(a, c) :- R(a, b), S(b, c)",
            ],
        );
    }

    #[test]
    fn repeated_batches_keep_caches_exact() {
        let (mut db, r, s) = triangle_db();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let mut cached = eval_cq(&db, &q);
        for step in 0..6 {
            let mut delta = Delta::new();
            delta.insert(
                r,
                format!("ri{step}"),
                Tuple::parse(&[&step.to_string(), "10"]),
            );
            if step % 2 == 0 {
                delta.insert(
                    s,
                    format!("si{step}"),
                    Tuple::parse(&["10", &step.to_string()]),
                );
            }
            if step >= 2 {
                // Delete a tuple inserted two steps ago.
                delta.delete(db.annotations().get(&format!("ri{}", step - 2)).unwrap());
            }
            let out = Updater::new().apply(&mut db, &delta, std::slice::from_ref(&q));
            assert!(out.deltas[0].merge_into(&mut cached));
            assert_eq!(cached, eval_cq(&db, &q), "step {step}");
        }
    }

    #[test]
    fn delta_work_is_below_reeval_work() {
        // A delta touching one row of a large relation must explore far
        // fewer rows than re-evaluating the join from scratch.
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        let s = db.add_relation("S", &["b", "c"]);
        for i in 0..300 {
            db.insert_str(
                r,
                &format!("r{i}"),
                &[&i.to_string(), &(i % 20).to_string()],
            );
            db.insert_str(
                s,
                &format!("s{i}"),
                &[&(i % 20).to_string(), &i.to_string()],
            );
        }
        db.build_indexes();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let mut cached = eval_cq(&db, &q);
        let mut delta = Delta::new();
        delta.insert(r, "rx", Tuple::parse(&["999", "3"]));
        delta.delete(db.annotations().get("s7").unwrap());
        // Both sides on the scalar engine, whose `rows_examined` counts
        // every candidate row tried.
        let out = Updater::new().execution(Execution::Scalar).apply(
            &mut db,
            &delta,
            std::slice::from_ref(&q),
        );
        assert!(out.deltas[0].merge_into(&mut cached));
        let (full, full_work) = Evaluator::new(&db).execution(Execution::Scalar).eval_cq(&q);
        assert_eq!(cached, full);
        assert!(
            out.work.rows_examined < full_work.rows_examined / 2,
            "delta {} vs full {}",
            out.work.rows_examined,
            full_work.rows_examined
        );
        assert!(out.work.derivations < full_work.derivations);
    }

    #[test]
    fn ucq_delta_matches_reeval() {
        let (mut db, r, _) = triangle_db();
        let u = parse_ucq("Q(a) :- R(a, b), S(b, c); Q(b) :- S(b, c)", db.schema()).unwrap();
        let (mut cached, _) = Evaluator::new(&db).eval_ucq(&u);
        let mut delta = Delta::new();
        delta.insert(r, "r4", Tuple::parse(&["5", "20"]));
        delta.delete(db.annotations().get("s1").unwrap());
        let deletes: HashSet<AnnotId> = delta
            .deletes
            .iter()
            .copied()
            .filter(|&a| db.locate(a).is_some())
            .collect();
        let (removed, _) = Evaluator::new(&db).retractions_ucq(&u, &deletes);
        let applied = db.apply_delta(&delta);
        let inserts: HashSet<AnnotId> = applied.inserted.iter().copied().collect();
        let (added, _) = Evaluator::new(&db).additions_ucq(&u, &inserts);
        let d = KRelationDelta { added, removed };
        assert!(d.merge_into(&mut cached));
        assert_eq!(cached, Evaluator::new(&db).eval_ucq(&u).0);
    }

    #[test]
    fn merge_rejects_foreign_retractions() {
        let (db, _, _) = triangle_db();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let out = eval_cq(&db, &q);
        let d = KRelationDelta {
            added: KRelation::default(),
            removed: out.clone(),
        };
        let mut empty = KRelation::default();
        assert!(!d.merge_into(&mut empty));
        let mut full = out;
        assert!(d.merge_into(&mut full));
        assert!(full.is_empty());
    }

    #[test]
    fn applied_delta_reports_touched_annotations() {
        let (mut db, r, _) = triangle_db();
        let ghost = db.intern_label("ghost");
        let mut delta = Delta::new();
        delta.insert(r, "r4", Tuple::parse(&["9", "9"]));
        delta.delete(db.annotations().get("r1").unwrap());
        delta.delete(ghost); // tags nothing: skipped
        let applied = db.apply_delta(&delta);
        assert_eq!(applied.inserted.len(), 1);
        assert_eq!(applied.deleted.len(), 1);
        assert_eq!(applied.touched().count(), 2);
        assert!(db.is_indexed(), "apply_delta must keep indexes current");
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let (mut db, _, _) = triangle_db();
        let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", db.schema()).unwrap();
        let before = eval_cq(&db, &q);
        let out = Updater::new().apply(&mut db, &Delta::new(), std::slice::from_ref(&q));
        assert!(out.deltas[0].is_empty());
        assert_eq!(out.work, EvalWork::default());
        assert_eq!(eval_cq(&db, &q), before);
    }
}
