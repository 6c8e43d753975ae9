//! Cost-based conjunctive-query planning over posting-list statistics.
//!
//! The join engine (every [`Evaluator`](crate::Evaluator) call) executes
//! body atoms in the order a [`QueryPlan`] dictates, not the order the query
//! was written. The planner reads exact statistics straight from the
//! dictionary-encoded columnar store — row counts, per-column distinct-id
//! counts, and the exact posting-list length of every query constant — and
//! greedily orders atoms smallest-estimated-frontier first, preferring atoms
//! connected to the already-bound variables so cross products are deferred
//! until unavoidable.
//!
//! # Determinism contract
//!
//! A plan is a pure function of the database **content** and the query:
//! statistics come from dense row counts, index-map *sizes* and posting
//! *lengths* (never from hash-map iteration order), candidate atoms are
//! scanned in written order with ties broken toward the lower atom index,
//! and no wall-clock, thread-count or RNG input exists. Two databases with
//! equal content — however they were built or mutated — plan every query
//! identically, which is what makes the engine's [`EvalWork`](crate::EvalWork)
//! counters machine-independent perf-gate metrics.
//!
//! # Modes
//!
//! [`PlanMode::CostBased`] is the default everywhere. Two escape hatches
//! exist for reproducibility:
//!
//! * [`PlanMode::Greedy`] replays the pre-planner engine order (most
//!   pre-bound positions first, ties toward smaller relations) bit for bit —
//!   the order the checked-in `BENCH_2.json`/`BENCH_3.json`/`BENCH_4.json`
//!   baselines were measured under, so those gates keep diffing identical
//!   counters.
//! * [`PlanMode::WrittenOrder`] executes atoms exactly as written (the
//!   delta pivot still leads a restricted evaluation — it is the access
//!   path, not a plan choice). This is the adversarial baseline the
//!   `bench_gate --bench planner` suite measures the cost-based planner
//!   against.

use crate::vintern::ValueId;
use crate::{Cq, Database, Term, VarId};
use std::collections::BTreeSet;

/// How the engine orders a query's body atoms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlanMode {
    /// Statistics-driven ordering: smallest estimated frontier first,
    /// bound-variable connectivity preferred (the default).
    #[default]
    CostBased,
    /// The legacy constant-count greedy of the pre-planner engine: most
    /// bound positions first, ties toward smaller relations. Replays the
    /// checked-in `BENCH_2`/`BENCH_3`/`BENCH_4` counter baselines bit for
    /// bit.
    Greedy,
    /// Atoms exactly as written. The escape hatch for callers that hand-
    /// ordered their queries, and the baseline the planner perf gate
    /// (`BENCH_5.json`) compares against.
    WrittenOrder,
}

/// One step of a [`QueryPlan`]: which body atom runs at this depth and what
/// the planner expected of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// Index of the atom in the query's written body.
    pub atom: usize,
    /// Estimated candidate rows the engine will examine at this depth *per
    /// visit* (constants and planning-time bound variables applied under
    /// the independence assumption, rounded).
    pub est_rows: u64,
    /// Whether the atom shares a variable with the atoms planned before it
    /// (`false` marks the start of a new join-graph component — a cross
    /// product).
    pub connected: bool,
}

/// An executable atom order plus the estimates that justified it.
///
/// Produced by [`plan_cq`]; executed by the join engine. Plans depend only
/// on database content and the query (see the module docs), so asserting an
/// expected plan in a test pins the planner's behavior exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The mode that produced this plan.
    pub mode: PlanMode,
    /// The forced leading atom of a pivot-restricted (delta) evaluation,
    /// when any: its position is the access path's, not the planner's, so
    /// it is excluded from [`QueryPlan::atoms_reordered`] and its
    /// [`PlanStep::est_rows`] is recorded as 0 (the candidates are the
    /// precomputed delta rows, which the cost model does not predict).
    pub pivoted: Option<usize>,
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
}

impl QueryPlan {
    /// The atom execution order (written-body indexes).
    pub fn atom_order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.atom).collect()
    }

    /// How many atoms the *planner* moved: steps differing from the
    /// written order — or, for a pivot-led plan, from the pivot-first
    /// written order the pre-planner engine would have run (the pivot's
    /// placement is forced either way and never counts).
    pub fn atoms_reordered(&self) -> u64 {
        let n = self.steps.len();
        let reference: Vec<usize> = match self.pivoted {
            None => (0..n).collect(),
            Some(p) => std::iter::once(p)
                .chain((0..n).filter(|&i| i != p))
                .collect(),
        };
        self.steps
            .iter()
            .zip(reference)
            .filter(|(s, r)| s.atom != *r)
            .count() as u64
    }

    /// Sum of the per-step estimates (saturating) — the "estimated rows"
    /// aggregate next to the engine's actual
    /// [`rows_examined`](crate::EvalWork::rows_examined).
    pub fn est_rows_total(&self) -> u64 {
        self.steps
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.est_rows))
    }
}

/// Work counters of the planning layer, carried inside
/// [`EvalWork`](crate::EvalWork). Deterministic for a given database + query
/// + mode, like every other engine counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanWork {
    /// Queries (CQ bodies, incl. each UCQ disjunct and each delta pivot
    /// pass) the planner ordered.
    pub queries_planned: u64,
    /// Atoms placed at a different position than written, summed over all
    /// planned queries.
    pub atoms_reordered: u64,
    /// Sum of per-step estimated candidate rows over all planned queries
    /// (saturating) — compare against `rows_examined` to judge the cost
    /// model.
    pub est_rows: u64,
}

impl PlanWork {
    /// Accumulates another evaluation's planning counters.
    pub fn absorb(&mut self, other: &PlanWork) {
        self.queries_planned += other.queries_planned;
        self.atoms_reordered += other.atoms_reordered;
        self.est_rows = self.est_rows.saturating_add(other.est_rows);
    }

    pub(crate) fn record(&mut self, plan: &QueryPlan) {
        self.queries_planned += 1;
        self.atoms_reordered += plan.atoms_reordered();
        self.est_rows = self.est_rows.saturating_add(plan.est_rows_total());
    }
}

/// One atom's compiled cost factors: the statistics lookups (constant
/// posting lengths, per-column distinct counts) happen once per planning
/// call here, not once per greedy step — the greedy loop evaluates
/// [`AtomCost::estimate`] O(atoms²) times and must not re-probe the
/// dictionary each time. The engine compiles these once per evaluation and
/// shares them between its dead-atom short-circuit and the planner.
pub(crate) struct AtomCost {
    /// Total rows of the atom's relation (the per-visit scan cost when the
    /// relation has no posting lists to probe).
    rows: f64,
    /// Whether the relation's posting-list indexes exist. When they don't,
    /// every visit of a constant-bearing or variable-bound atom falls back
    /// to a whole-relation scan (`scan_matching`).
    indexed: bool,
    /// Relation rows × the product of every constant's `posting_len / rows`
    /// selectivity — the atom's estimate before any variable binds. Exact
    /// for atoms with at most one constant.
    const_rows: f64,
    /// Per variable position: `(variable, column, 1 / distinct(column))`,
    /// applied when the variable is bound at estimation time (independence
    /// assumption).
    var_sel: Vec<(VarId, usize, f64)>,
    /// Per constant position: `(column, resolved dictionary id)`. Resolved
    /// once here; the engine's slot compilation reuses these instead of
    /// probing the interner a second time.
    const_ids: Vec<(usize, Option<ValueId>)>,
    /// The atom can never match: its relation is empty, or some constant
    /// resolves to no dictionary id or an empty posting list. Computed
    /// exactly (not via `const_rows == 0.0`, which fp underflow could fake
    /// on pathological bodies). One dead atom makes the whole query empty.
    pub(crate) dead: bool,
}

impl AtomCost {
    pub(crate) fn compile(db: &Database, q: &Cq) -> Vec<AtomCost> {
        q.body
            .iter()
            .map(|a| {
                let rows = db.relation_len(a.rel);
                let n = rows as f64;
                let mut const_rows = n;
                let mut var_sel = Vec::new();
                let mut const_ids = Vec::new();
                let mut dead = rows == 0;
                for (col, term) in a.terms.iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            let id = db.interner().lookup(c);
                            let len = match id {
                                None => 0,
                                Some(id) => db.posting_len(a.rel, col, id),
                            };
                            const_ids.push((col, id));
                            dead |= len == 0;
                            // n == 0 ⇒ len == 0 ⇒ const_rows stays 0.
                            const_rows *= len as f64 / n.max(1.0);
                        }
                        Term::Var(v) => {
                            var_sel.push((
                                *v,
                                col,
                                1.0 / db.distinct_count(a.rel, col).max(1) as f64,
                            ));
                        }
                    }
                }
                AtomCost {
                    rows: n,
                    indexed: db.is_indexed(),
                    const_rows,
                    var_sel,
                    const_ids,
                    dead,
                }
            })
            .collect()
    }

    /// The dictionary id the constant at `col` resolved to during
    /// compilation (`None` when the constant was never interned).
    ///
    /// # Panics
    /// Panics when `col` is not a constant position of this atom.
    pub(crate) fn const_id(&self, col: usize) -> Option<ValueId> {
        self.const_ids
            .iter()
            .find(|(c, _)| *c == col)
            .expect("column is a compiled constant position")
            .1
    }

    /// Estimated candidate rows given the planning-time bound variable set.
    fn estimate(&self, bound: &BTreeSet<VarId>) -> f64 {
        self.var_sel
            .iter()
            .filter(|(v, _, _)| bound.contains(v))
            .fold(self.const_rows, |est, (_, _, sel)| est * sel)
    }

    /// Whether executing this atom with `bound` variables bound probes no
    /// posting list: the relation is unindexed, so a constant-bearing or
    /// variable-bound visit scans the whole relation.
    fn scan_fallback(&self, bound: &BTreeSet<VarId>) -> bool {
        !self.indexed
            && (!self.const_ids.is_empty()
                || self.var_sel.iter().any(|(v, _, _)| bound.contains(v)))
    }
}

fn est_to_u64(est: f64) -> u64 {
    if est >= u64::MAX as f64 {
        u64::MAX
    } else {
        est.round() as u64
    }
}

/// The legacy pre-planner order: start from the atom with the most
/// constants (ties toward smaller relations), then repeatedly pick the atom
/// with the most bound positions. Kept verbatim so [`PlanMode::Greedy`]
/// replays the PR 2–4 engine — and its checked-in bench baselines — bit for
/// bit.
fn greedy_order(db: &Database, q: &Cq, first: Option<usize>) -> Vec<usize> {
    let n = q.body.len();
    let mut chosen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut bound: Vec<VarId> = Vec::new();
    if let Some(i) = first {
        chosen[i] = true;
        for v in q.body[i].variables() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(i);
    }
    while order.len() < n {
        let mut best: Option<(usize, (usize, isize))> = None;
        for (i, atom) in q.body.iter().enumerate() {
            if chosen[i] {
                continue;
            }
            let bound_positions = atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .count();
            let size = db.relation_len(atom.rel) as isize;
            let key = (bound_positions, -size);
            if best.is_none_or(|(_, bk)| key > bk) {
                best = Some((i, key));
            }
        }
        let (i, _) = best.expect("atom remains");
        chosen[i] = true;
        for v in q.body[i].variables() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(i);
    }
    order
}

/// The cost-based order: pick the unplanned atom with the smallest
/// estimated frontier, restricted to atoms connected to the bound variable
/// set whenever any such atom exists (cross products only when the join
/// graph forces them). Ties break toward the lower written index.
fn cost_based_order(q: &Cq, costs: &[AtomCost], first: Option<usize>) -> Vec<usize> {
    let n = q.body.len();
    let mut chosen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut bound: BTreeSet<VarId> = BTreeSet::new();
    if let Some(i) = first {
        chosen[i] = true;
        bound.extend(q.body[i].variables());
        order.push(i);
    }
    while order.len() < n {
        let connects = |i: usize| q.body[i].variables().any(|v| bound.contains(&v));
        let any_connected = (0..n).any(|i| !chosen[i] && connects(i));
        let mut best: Option<(usize, f64)> = None;
        for (i, taken) in chosen.iter().enumerate() {
            if *taken || (any_connected && !connects(i)) {
                continue;
            }
            let est = costs[i].estimate(&bound);
            // Strict `<` keeps the lower index on ties.
            if best.is_none_or(|(_, b)| est < b) {
                best = Some((i, est));
            }
        }
        let (i, _) = best.expect("atom remains");
        chosen[i] = true;
        bound.extend(q.body[i].variables());
        order.push(i);
    }
    order
}

/// Plans `q` against the live statistics of `db` under `mode`.
///
/// `first` forces a leading atom — the delta pivot of a restricted
/// evaluation, whose precomputed delta rows are the access path and
/// therefore not a planner choice. The remaining atoms are ordered by the
/// mode with the pivot's variables counted as bound.
///
/// The returned plan always carries the cost model's per-step estimates
/// (and connectivity flags), whatever mode chose the order, so
/// estimated-versus-actual comparisons work for every mode.
pub fn plan_cq(db: &Database, q: &Cq, mode: PlanMode, first: Option<usize>) -> QueryPlan {
    let costs = AtomCost::compile(db, q);
    plan_compiled(db, q, &costs, mode, first)
}

/// [`plan_cq`] over already-compiled [`AtomCost`]s (the engine compiles
/// them once per evaluation for its dead-atom short-circuit).
pub(crate) fn plan_compiled(
    db: &Database,
    q: &Cq,
    costs: &[AtomCost],
    mode: PlanMode,
    first: Option<usize>,
) -> QueryPlan {
    let n = q.body.len();
    let order: Vec<usize> = match mode {
        PlanMode::CostBased => cost_based_order(q, costs, first),
        PlanMode::Greedy => greedy_order(db, q, first),
        PlanMode::WrittenOrder => match first {
            None => (0..n).collect(),
            Some(p) => std::iter::once(p)
                .chain((0..n).filter(|&i| i != p))
                .collect(),
        },
    };
    let mut bound: BTreeSet<VarId> = BTreeSet::new();
    let steps = order
        .into_iter()
        .enumerate()
        .map(|(depth, atom)| {
            let connected = depth == 0 || q.body[atom].variables().any(|v| bound.contains(&v));
            // The forced pivot's candidates are the delta rows, not a
            // statistic the cost model predicts: record 0, not the
            // full-relation estimate an empty bound set would give.
            let est_rows = if depth == 0 && first == Some(atom) {
                0
            } else {
                let cost = &costs[atom];
                let mut est = cost.estimate(&bound);
                if !cost.dead && cost.scan_fallback(&bound) {
                    // Unindexed relations have no posting lists: a visit
                    // of a constant-bearing or variable-bound atom scans
                    // the whole relation (`scan_matching`). Record that
                    // scan cost — a sub-one match estimate would round to
                    // a blind 0 and leave the trace's estimate-versus-actual
                    // comparison dishonest.
                    est = est.max(cost.rows);
                }
                est_to_u64(est)
            };
            bound.extend(q.body[atom].variables());
            PlanStep {
                atom,
                est_rows,
                connected,
            }
        })
        .collect();
    QueryPlan {
        mode,
        pivoted: first,
        steps,
    }
}

/// A [`QueryPlan`] next to what the engine actually did at each step —
/// returned by [`Evaluator::eval_cq_traced`](crate::Evaluator::eval_cq_traced)
/// for cost-model diagnostics and the planner bench report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTrace {
    /// The executed plan.
    pub plan: QueryPlan,
    /// Candidate rows the engine examined at each plan step (parallel to
    /// `plan.steps`) — the per-step "actual" next to
    /// [`PlanStep::est_rows`].
    pub actual_rows: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_cq, Database};

    /// Skewed database: `Big` has a low-selectivity constant column, `Small`
    /// is tiny, `Mid` joins both.
    fn skewed_db() -> Database {
        let mut db = Database::new();
        let big = db.add_relation("Big", &["k", "tag"]);
        let small = db.add_relation("Small", &["k"]);
        let mid = db.add_relation("Mid", &["k", "m"]);
        for i in 0..200 {
            db.insert_str(
                big,
                &format!("b{i}"),
                &[&i.to_string(), if i % 2 == 0 { "hot" } else { "cold" }],
            );
        }
        for i in 0..5 {
            db.insert_str(small, &format!("s{i}"), &[&(i * 40).to_string()]);
        }
        for i in 0..40 {
            db.insert_str(
                mid,
                &format!("m{i}"),
                &[&(i * 5).to_string(), &i.to_string()],
            );
        }
        db.build_indexes();
        db
    }

    #[test]
    fn cost_based_starts_at_the_smallest_frontier() {
        let db = skewed_db();
        // Written worst-first: Big('hot') matches 100 rows, Small has 5.
        let q = parse_cq("Q(k) :- Big(k, 'hot'), Mid(k, m), Small(k)", db.schema()).unwrap();
        let plan = plan_cq(&db, &q, PlanMode::CostBased, None);
        // Small (5 rows) leads; with k bound, Big('hot') estimates
        // 100/200 ≈ 0.5 matches per probe and edges out Mid's 1.
        assert_eq!(plan.atom_order(), vec![2, 0, 1], "{plan:?}");
        assert!(plan.steps.iter().all(|s| s.connected));
        assert_eq!(plan.steps[0].est_rows, 5);
        assert_eq!(plan.atoms_reordered(), 3);
    }

    #[test]
    fn written_order_is_identity_and_pivot_leads() {
        let db = skewed_db();
        let q = parse_cq("Q(k) :- Big(k, 'hot'), Mid(k, m), Small(k)", db.schema()).unwrap();
        let plan = plan_cq(&db, &q, PlanMode::WrittenOrder, None);
        assert_eq!(plan.atom_order(), vec![0, 1, 2]);
        assert_eq!(plan.atoms_reordered(), 0);
        let pivoted = plan_cq(&db, &q, PlanMode::WrittenOrder, Some(1));
        assert_eq!(pivoted.atom_order(), vec![1, 0, 2]);
    }

    #[test]
    fn greedy_replays_the_legacy_constant_count_order() {
        let db = skewed_db();
        // Legacy greedy picks the constant-bearing Big first despite its
        // 100-row posting list — exactly the weakness the cost model fixes.
        let q = parse_cq("Q(k) :- Small(k), Mid(k, m), Big(k, 'hot')", db.schema()).unwrap();
        let greedy = plan_cq(&db, &q, PlanMode::Greedy, None);
        assert_eq!(greedy.atom_order()[0], 2);
        let cost = plan_cq(&db, &q, PlanMode::CostBased, None);
        assert_eq!(cost.atom_order()[0], 0);
    }

    #[test]
    fn estimates_are_exact_for_single_constant_atoms() {
        let db = skewed_db();
        let q = parse_cq("Q(k) :- Big(k, 'cold')", db.schema()).unwrap();
        let plan = plan_cq(&db, &q, PlanMode::CostBased, None);
        assert_eq!(plan.steps[0].est_rows, 100);
        let dead = parse_cq("Q(k) :- Big(k, 'lukewarm')", db.schema()).unwrap();
        let plan = plan_cq(&db, &dead, PlanMode::CostBased, None);
        assert_eq!(plan.steps[0].est_rows, 0);
    }

    #[test]
    fn self_join_plans_both_occurrences() {
        let db = skewed_db();
        // Both atoms hit Big, sharing `k`: the 'hot'-filtered occurrence
        // leads (100 est rows), the free one follows through the shared
        // variable at ~1 match per binding (200 rows / 200 distinct keys).
        let q = parse_cq("Q(k) :- Big(k, t), Big(k, 'hot')", db.schema()).unwrap();
        let plan = plan_cq(&db, &q, PlanMode::CostBased, None);
        assert_eq!(plan.atom_order(), vec![1, 0], "{plan:?}");
        assert!(plan.steps[1].connected, "self-join joins through k");
        assert_eq!(plan.steps[0].est_rows, 100);
        assert_eq!(plan.steps[1].est_rows, 1);
    }

    #[test]
    fn cross_products_defer_to_the_end_and_pick_the_small_side() {
        let db = skewed_db();
        // Mid(k, m) connects to nothing here: Q is a genuine cross product
        // of {Big('hot')} × {Small(s)}.
        let q = parse_cq("Q(s) :- Big(k, 'hot'), Small(s)", db.schema()).unwrap();
        let plan = plan_cq(&db, &q, PlanMode::CostBased, None);
        // Small (5 rows) leads; Big('hot') (100) is the disconnected tail.
        assert_eq!(plan.atom_order(), vec![1, 0], "{plan:?}");
        assert!(plan.steps[0].connected, "first step opens its component");
        assert!(!plan.steps[1].connected, "cross product must be flagged");
        // Three components: the planner exhausts connected atoms before
        // starting a new component.
        let q3 = parse_cq(
            "Q(s, m) :- Big(k, 'hot'), Small(s), Mid(k2, m), Big(k2, 'cold')",
            db.schema(),
        )
        .unwrap();
        let plan3 = plan_cq(&db, &q3, PlanMode::CostBased, None);
        // Small (5) opens; no atom connects to `s`, so the next component
        // opens at Mid (40) and finishes with its 'cold' Big partner
        // before the last disconnected atom runs.
        assert_eq!(plan3.atom_order(), vec![1, 2, 3, 0], "{plan3:?}");
        assert_eq!(
            plan3.steps.iter().filter(|s| !s.connected).count(),
            2,
            "two component breaks"
        );
    }

    #[test]
    fn constant_only_atoms_plan_first_when_selective() {
        let db = skewed_db();
        // The fully ground atom Small(40) matches exactly one row: the
        // cheapest possible start even against the tiny Small scan.
        let q = parse_cq("Q(k) :- Small(k), Small(40)", db.schema()).unwrap();
        let plan = plan_cq(&db, &q, PlanMode::CostBased, None);
        assert_eq!(plan.atom_order(), vec![1, 0], "{plan:?}");
        assert_eq!(plan.steps[0].est_rows, 1);
    }

    #[test]
    fn empty_relations_plan_first_with_zero_estimate() {
        let mut db = Database::new();
        let big = db.add_relation("Big", &["k"]);
        let _nothing = db.add_relation("Nothing", &["k"]);
        for i in 0..50 {
            db.insert_str(big, &format!("b{i}"), &[&i.to_string()]);
        }
        db.build_indexes();
        let q = parse_cq("Q(k) :- Big(k), Nothing(k)", db.schema()).unwrap();
        let plan = plan_cq(&db, &q, PlanMode::CostBased, None);
        assert_eq!(plan.atom_order(), vec![1, 0], "{plan:?}");
        assert_eq!(plan.steps[0].est_rows, 0);
    }

    #[test]
    fn single_atom_queries_have_the_trivial_plan() {
        let db = skewed_db();
        let q = parse_cq("Q(k) :- Big(k, t)", db.schema()).unwrap();
        for mode in [
            PlanMode::CostBased,
            PlanMode::Greedy,
            PlanMode::WrittenOrder,
        ] {
            let plan = plan_cq(&db, &q, mode, None);
            assert_eq!(plan.atom_order(), vec![0], "{mode:?}");
            assert_eq!(plan.atoms_reordered(), 0);
            assert_eq!(plan.steps[0].est_rows, 200);
            assert!(plan.steps[0].connected);
        }
    }

    #[test]
    fn plans_are_content_determined() {
        // Same content, different construction path (indexes, mutation
        // history) — identical plan.
        let db = skewed_db();
        let mut rebuilt = skewed_db();
        let extra = rebuilt.insert_str(crate::RelId(0), "tmp", &["999", "hot"]);
        rebuilt.delete(extra).unwrap();
        let q = parse_cq("Q(k) :- Big(k, 'hot'), Mid(k, m), Small(k)", db.schema()).unwrap();
        for mode in [
            PlanMode::CostBased,
            PlanMode::Greedy,
            PlanMode::WrittenOrder,
        ] {
            assert_eq!(
                plan_cq(&db, &q, mode, None),
                plan_cq(&rebuilt, &q, mode, None),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn unindexed_scan_fallback_atoms_record_the_scan_cost() {
        // Regression for the est_rows = 0 blind spot: on an unindexed
        // database a bound-variable visit of Big scans all 200 rows, but
        // the match estimate (200 / 200 distinct keys × hot selectivity)
        // used to round toward 0 and hide that cost entirely.
        let mut indexed = skewed_db();
        let q = parse_cq("Q(k) :- Small(k), Big(k, 'hot')", indexed.schema()).unwrap();

        let mut unindexed = Database::new();
        let big = unindexed.add_relation("Big", &["k", "tag"]);
        let small = unindexed.add_relation("Small", &["k"]);
        let _mid = unindexed.add_relation("Mid", &["k", "m"]);
        for i in 0..200 {
            unindexed.insert_str(
                big,
                &format!("b{i}"),
                &[&i.to_string(), if i % 2 == 0 { "hot" } else { "cold" }],
            );
        }
        for i in 0..5 {
            unindexed.insert_str(small, &format!("s{i}"), &[&(i * 40).to_string()]);
        }
        assert!(!unindexed.is_indexed());

        let plan = plan_cq(&unindexed, &q, PlanMode::WrittenOrder, None);
        // Small leads unbound: a plain scan of all 5 rows, estimated as
        // before. Big's visit scans the whole relation per binding.
        assert_eq!(plan.steps[0].est_rows, 5);
        assert_eq!(plan.steps[1].est_rows, 200, "scan cost, not a blind 0");

        // The indexed plan for the same query is untouched by the fix:
        // Big('hot') with k bound estimates 100/200 = 0.5 ≈ 1 per probe.
        indexed.build_indexes();
        let plan = plan_cq(&indexed, &q, PlanMode::WrittenOrder, None);
        assert_eq!(plan.steps[1].est_rows, 1);
    }
}
