//! Provenance-tracking evaluation of CQs and UCQs (Def. 2.2).
//!
//! A CQ evaluated over an abstractly-tagged K-database produces a
//! [`KRelation`]: each output tuple is annotated with an `N[X]` polynomial
//! summing, over all derivations yielding the tuple, the product of the
//! annotations of the derivation's image.
//!
//! There is exactly **one** evaluation pipeline ([`run_engine`]) and it
//! traffics in dictionary ids end-to-end: query constants are resolved to
//! [`ValueId`]s once per evaluation, variable bindings hold ids, index
//! probes hash ids, and owned [`Tuple`]s are materialized only when the
//! accumulated outputs decode at the end. The only way in is the
//! [`Evaluator`](crate::Evaluator) builder (and [`Updater`](crate::Updater)
//! for delta passes); its owned results decode the interned ones.
//!
//! The pipeline dispatches on [`Execution`]: the vectorized block engine
//! ([`crate::exec`]) by default, or the scalar backtracking engine in this
//! module — the replay mode whose counters the PR 2–6 gates pin.

use crate::exec::Execution;
use crate::interned::IKRelation;
use crate::plan::{plan_compiled, AtomCost, PlanMode, PlanTrace, PlanWork, QueryPlan};
use crate::vintern::{ValueId, ID_WIDTH, VALUE_MOVE_WIDTH};
use crate::{Cq, Database, Term, Tuple, VarId};
use provabs_semiring::{AnnotId, Monomial, Polynomial, ProvStore};
use std::collections::{BTreeMap, HashMap, HashSet};

/// An output K-relation: output tuples with their provenance polynomials.
///
/// Ordered by tuple so iteration is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KRelation {
    tuples: BTreeMap<Tuple, Polynomial>,
}

impl KRelation {
    /// Number of distinct output tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether there are no outputs.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The provenance of `t` (zero if absent).
    pub fn provenance(&self, t: &Tuple) -> Polynomial {
        self.tuples.get(t).cloned().unwrap_or_else(Polynomial::zero)
    }

    /// Iterates over `(output, provenance)` in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Polynomial)> {
        self.tuples.iter()
    }

    /// Adds `poly` to the provenance of `t`.
    pub fn add(&mut self, t: Tuple, poly: Polynomial) {
        let entry = self.tuples.entry(t).or_insert_with(Polynomial::zero);
        *entry = entry.add(&poly);
    }

    /// Subtracts `poly` from the provenance of `t`, dropping the output when
    /// its polynomial reaches zero. Returns `false` (leaving `self`
    /// untouched) when the subtraction would underflow — the delta being
    /// merged does not belong to this K-relation.
    pub fn subtract(&mut self, t: &Tuple, poly: &Polynomial) -> bool {
        if poly.is_zero() {
            return true;
        }
        let Some(entry) = self.tuples.get_mut(t) else {
            return false;
        };
        let Some(diff) = entry.checked_sub(poly) else {
            return false;
        };
        if diff.is_zero() {
            self.tuples.remove(t);
        } else {
            *entry = diff;
        }
        true
    }

    /// K-relation subsumption `self ⊆_K other` under the natural order of
    /// `N[X]` (Def. 3.8): every output's polynomial is dominated.
    pub fn contained_in(&self, other: &KRelation) -> bool {
        self.tuples
            .iter()
            .all(|(t, p)| p.nat_leq(&other.provenance(t)))
    }
}

impl FromIterator<(Tuple, Polynomial)> for KRelation {
    fn from_iter<I: IntoIterator<Item = (Tuple, Polynomial)>>(iter: I) -> Self {
        let mut out = KRelation::default();
        for (t, p) in iter {
            out.add(t, p);
        }
        out
    }
}

/// Resource limits for evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalLimits {
    /// Stop after this many derivations (total across outputs).
    pub max_derivations: usize,
    /// Stop once this many distinct outputs have been produced. The
    /// evaluator may still add derivations to already-produced outputs.
    pub max_outputs: usize,
}

impl Default for EvalLimits {
    fn default() -> Self {
        Self {
            max_derivations: usize::MAX,
            max_outputs: usize::MAX,
        }
    }
}

/// Work counters of one evaluation: how much of the search space the join
/// engine actually touched. Deterministic for a given database + query, so
/// they make machine-independent perf-gate metrics (unlike wall time).
///
/// `rows_examined` and `derivations` are the PR-2 counters the
/// `BENCH_2.json` gate diffs; their semantics are untouched by the columnar
/// refactor (same plan, same candidate sets, same match rule). The storage
/// counters below were added with the dictionary-encoded engine and feed the
/// `BENCH_4.json` gate: for each probe and each binding/emit move the engine
/// counts both the id bytes it actually trafficked and the bytes the
/// row-oriented owned-`Value` engine it replaced would have hashed or moved
/// on the identical step — the ratio is the machine-independent speedup
/// proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalWork {
    /// Candidate rows examined across all atoms (every row the backtracking
    /// join tried to match, whether or not it bound).
    pub rows_examined: u64,
    /// Derivations emitted.
    pub derivations: u64,
    /// Index probes issued. The scalar engine probes once per bound column
    /// per atom visit; the block engine probes each query constant once per
    /// evaluation and each *distinct* variable id once per block per bound
    /// column (sorted-index lookups, not hashes).
    pub probes: u64,
    /// Bytes the probes fed a **hasher**: 4 per hash probe (a [`ValueId`]).
    /// Every scalar probe hashes, so `probe_bytes_id == probes * 4` there;
    /// block-path variable probes gallop a sorted index instead of hashing
    /// (their search work lands in `gallop_steps`), so only the
    /// once-per-evaluation constant probes count here.
    pub probe_bytes_id: u64,
    /// Bytes the same probes would have hashed on the owned path
    /// (discriminant + payload of each probed [`crate::Value`]).
    pub probe_bytes_value: u64,
    /// Bytes moved into variable bindings and output accumulation as ids.
    /// The scalar engine moves 4 bytes per newly bound variable per visited
    /// row; the block engine moves 8 bytes per surviving row (the row id and
    /// its parent pointer — bindings resolve through the block spine, never
    /// gathered). Both move 4 bytes per head variable per derivation.
    pub moved_bytes_id: u64,
    /// Bytes the same moves would have cloned as owned [`crate::Value`]s.
    pub moved_bytes_value: u64,
    /// Blocks the vectorized pipeline emitted downstream (0 under
    /// [`Execution::Scalar`]).
    pub blocks_emitted: u64,
    /// Candidate rows that survived the block engine's Select pass into an
    /// output block (0 under [`Execution::Scalar`]).
    pub selection_survivors: u64,
    /// Comparison steps of the block engine's sorted-merge/galloping
    /// searches — the hash-free counterpart of `probe_bytes_id` (0 under
    /// [`Execution::Scalar`]).
    pub gallop_steps: u64,
    /// Bytes crossing physical-operator boundaries. A tuple-at-a-time
    /// pipeline materializes every Select survivor's intermediate tuple —
    /// the bound columns plus the provenance prefix, 4 bytes each — and
    /// hands it to the next operator; the block pipeline hands a row id
    /// and a parent pointer (8 bytes per survivor) and gathers key and
    /// provenance columns through the block spine only at Materialize.
    /// Like `moved_bytes_value`, the scalar column is an exact replay of
    /// the identical evaluation, not an estimate; `BENCH_7.json` diffs the
    /// two.
    pub boundary_bytes: u64,
    /// Planner counters: queries planned, atoms reordered, estimated rows
    /// (see [`PlanWork`]).
    pub plan: PlanWork,
}

impl EvalWork {
    /// Accumulates another evaluation's counters.
    pub fn absorb(&mut self, other: &EvalWork) {
        self.rows_examined += other.rows_examined;
        self.derivations += other.derivations;
        self.probes += other.probes;
        self.probe_bytes_id += other.probe_bytes_id;
        self.probe_bytes_value += other.probe_bytes_value;
        self.moved_bytes_id += other.moved_bytes_id;
        self.moved_bytes_value += other.moved_bytes_value;
        self.blocks_emitted += other.blocks_emitted;
        self.selection_survivors += other.selection_survivors;
        self.gallop_steps += other.gallop_steps;
        self.boundary_bytes += other.boundary_bytes;
        self.plan.absorb(&other.plan);
    }
}

/// Restriction of an evaluation to derivations through a *pivot* atom
/// (semi-naive delta evaluation): the pivot body atom may only match rows
/// whose annotation is in `set`, body atoms *before* the pivot (in the
/// query's original atom order) may only match rows *outside* `set`, and
/// later atoms are unrestricted. Summed over all pivot positions this
/// counts every derivation touching `set` exactly once — the classic
/// delta-rule decomposition.
pub(crate) struct Restriction<'a> {
    /// Original body-atom index acting as the delta atom.
    pub pivot: usize,
    /// The delta annotations.
    pub set: &'a HashSet<AnnotId>,
    /// Precomputed rows of `set` members inside the pivot atom's relation
    /// (an access path so the pivot never scans).
    pub pivot_rows: &'a [usize],
}

/// One compiled body-atom position: the variable, or the constant resolved
/// against the value dictionary (`id: None` when the constant was never
/// interned — no stored row can match it). `width` carries the owned-path
/// hash cost of the constant for the counterfactual probe counter.
pub(crate) enum Slot {
    Var(VarId),
    Const { id: Option<ValueId>, width: u64 },
}

/// Per-output derivation accumulator of one evaluation, keyed by the
/// bindings of the head's variable positions (head constants are fixed
/// across derivations, so they are re-attached only when the outputs decode
/// once at the end): monomial ids with multiplicities. Outputs intern their
/// *final* polynomial once when the engine finishes, so the arena never
/// retains accumulation prefixes.
pub(crate) type Accum = BTreeMap<Vec<ValueId>, BTreeMap<provabs_semiring::MonoId, u64>>;

/// The join engine: evaluates `q` into `store` under the given plan mode,
/// execution and limits, returning the interned output, its work counters
/// and the executed plan with per-step actual row counts. `restrict`
/// confines derivations to a delta pivot (see [`Restriction`]);
/// `plan_override` executes a caller-supplied plan (a plan-cache hit)
/// instead of planning — the caller guarantees it was produced for this
/// exact database content, query, mode and pivot.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_engine(
    db: &Database,
    q: &Cq,
    limits: EvalLimits,
    restrict: Option<Restriction<'_>>,
    store: &mut ProvStore,
    mode: PlanMode,
    exec: Execution,
    plan_override: Option<&QueryPlan>,
) -> (IKRelation, EvalWork, PlanTrace) {
    let pivot = restrict.as_ref().map(|r| r.pivot);
    let empty_trace = || PlanTrace {
        plan: QueryPlan {
            mode,
            pivoted: pivot,
            steps: Vec::new(),
        },
        actual_rows: Vec::new(),
    };
    if q.body.is_empty() {
        return (IKRelation::default(), EvalWork::default(), empty_trace());
    }
    // Statistics compile once per evaluation (constants resolve to ids
    // here, once — the slot compilation below reuses them); the dead-atom
    // short-circuit and the planner both read them. Short-circuit: an atom
    // whose relation is empty, or whose compiled constant resolves to no
    // id or an empty posting list, can never match, so no derivation
    // exists — whatever atom order would run and wherever that atom sits
    // in it. Without this check a dead atom ordered late still pays full
    // candidate iteration for every atom before it (and the slot
    // compilation it no longer needs).
    let costs = AtomCost::compile(db, q);
    if costs.iter().any(|c| c.dead) {
        return (IKRelation::default(), EvalWork::default(), empty_trace());
    }
    let compiled: Vec<Vec<Slot>> = q
        .body
        .iter()
        .zip(&costs)
        .map(|(atom, cost)| {
            atom.terms
                .iter()
                .enumerate()
                .map(|(col, t)| match t {
                    Term::Var(v) => Slot::Var(*v),
                    Term::Const(c) => Slot::Const {
                        id: cost.const_id(col),
                        width: crate::vintern::hash_width(c),
                    },
                })
                .collect()
        })
        .collect();
    let head_vars: Vec<VarId> = q.head.iter().filter_map(Term::as_var).collect();
    let mut acc = Accum::new();
    // A pivoted evaluation starts from the delta rows: they are the most
    // selective access path by construction; the rest of the body is the
    // planner's to order. A plan-cache hit skips the planning call — the
    // cache key's statistics fingerprint guarantees the cached plan is
    // byte-identical to what planning here would produce, so the hit path
    // and the cold path record identical counters.
    let plan = match plan_override {
        Some(p) => p.clone(),
        None => plan_compiled(db, q, &costs, mode, pivot),
    };
    let mut work = EvalWork::default();
    work.plan.record(&plan);
    let n = plan.steps.len();
    let mut depth_rows = vec![0u64; n];
    work.derivations = match exec {
        Execution::Scalar => {
            let mut engine = Engine {
                db,
                q,
                compiled: &compiled,
                head_vars: &head_vars,
                limits,
                derivations: 0,
                work: &mut work,
                depth_rows: &mut depth_rows,
                out: &mut acc,
                store: &mut *store,
                order: plan.atom_order(),
                restrict: restrict.as_ref(),
                key_buf: Vec::new(),
            };
            engine.solve(0, &mut HashMap::new(), &mut Vec::with_capacity(n));
            engine.derivations as u64
        }
        Execution::Block { block_size } => crate::exec::run_block(
            db,
            q,
            &compiled,
            &head_vars,
            limits,
            restrict.as_ref(),
            &plan,
            store,
            &mut acc,
            &mut work,
            &mut depth_rows,
            block_size,
        ),
    };
    let trace = PlanTrace {
        plan,
        actual_rows: depth_rows,
    };
    // Decode boundary: each distinct output materializes its owned tuple
    // exactly once, interleaving head constants with the accumulated
    // variable bindings.
    let out = IKRelation::from_map(
        acc.into_iter()
            .map(|(key, terms)| {
                let mut vals = key.iter();
                let tuple: Tuple = q
                    .head
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => c.clone(),
                        Term::Var(_) => db
                            .value(*vals.next().expect("binding per head var"))
                            .clone(),
                    })
                    .collect();
                (tuple, store.intern_mono_terms(terms))
            })
            .collect(),
    );
    (out, work, trace)
}

/// A candidate row set: a borrowed posting list (the indexed fast path), an
/// owned row list (scans, delta pivots), or the full relation.
enum Cand<'a> {
    Borrowed(&'a [u32]),
    Owned(Vec<u32>),
    Range(u32),
}

impl Cand<'_> {
    fn len(&self) -> usize {
        match self {
            Cand::Borrowed(s) => s.len(),
            Cand::Owned(v) => v.len(),
            Cand::Range(n) => *n as usize,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn for_each(&self, mut f: impl FnMut(u32) -> bool) -> bool {
        match self {
            Cand::Borrowed(s) => s.iter().all(|&r| f(r)),
            Cand::Owned(v) => v.iter().all(|&r| f(r)),
            Cand::Range(n) => (0..*n).all(f),
        }
    }
}

struct Engine<'a> {
    db: &'a Database,
    q: &'a Cq,
    /// Per body atom (original order): the dictionary-compiled terms.
    compiled: &'a [Vec<Slot>],
    /// Head variables in head-position order (the accumulation key shape).
    head_vars: &'a [VarId],
    limits: EvalLimits,
    derivations: usize,
    work: &'a mut EvalWork,
    /// Candidate rows examined per plan depth (the per-step "actual" the
    /// trace reports next to the plan's estimates).
    depth_rows: &'a mut [u64],
    out: &'a mut Accum,
    store: &'a mut ProvStore,
    order: Vec<usize>,
    restrict: Option<&'a Restriction<'a>>,
    /// Scratch for the output key: reused across derivations, cloned only
    /// when a new output first enters the accumulator.
    key_buf: Vec<ValueId>,
}

impl Engine<'_> {
    fn solve(
        &mut self,
        depth: usize,
        bindings: &mut HashMap<VarId, ValueId>,
        image: &mut Vec<provabs_semiring::AnnotId>,
    ) -> bool {
        if self.derivations >= self.limits.max_derivations {
            return false;
        }
        let db = self.db;
        if depth == self.order.len() {
            // Emit one derivation: the output key is the head variables'
            // bindings — 4 bytes each, where the owned engine cloned a
            // `Value` per head position. The key lands in a scratch buffer
            // and allocates only when the output is new.
            let Engine {
                head_vars, key_buf, ..
            } = self;
            key_buf.clear();
            key_buf.extend(head_vars.iter().map(|v| bindings[v]));
            self.work.moved_bytes_id += ID_WIDTH * self.key_buf.len() as u64;
            self.work.moved_bytes_value += VALUE_MOVE_WIDTH * self.q.head.len() as u64;
            // Materialize projects the head columns out of the tuple it
            // received.
            self.work.boundary_bytes += ID_WIDTH * self.key_buf.len() as u64;
            let is_new = !self.out.contains_key(self.key_buf.as_slice());
            if is_new && self.out.len() >= self.limits.max_outputs {
                return true; // skip new outputs, keep exploring existing ones
            }
            // Hash-consed: a repeated derivation image is an O(1) arena hit.
            // Multiplicities accumulate in the scratch map; the final
            // polynomial is interned once per output after the search.
            let mono = self
                .store
                .intern_monomial(Monomial::from_annots(image.iter().copied()));
            if is_new {
                self.out.insert(self.key_buf.clone(), BTreeMap::new());
            }
            let coeff = self
                .out
                .get_mut(self.key_buf.as_slice())
                .expect("accumulator entry just ensured")
                .entry(mono)
                .or_insert(0);
            *coeff = coeff.saturating_add(1);
            self.derivations += 1;
            return true;
        }
        let orig = self.order[depth];
        let q = self.q;
        let atom = &q.body[orig];
        // Pick the most selective access path among bound positions. For
        // the pivot atom of a restricted evaluation the delta rows are a
        // candidate access path too.
        let mut candidates: Option<Cand<'_>> = None;
        if let Some(r) = self.restrict {
            if orig == r.pivot {
                candidates = Some(Cand::Owned(
                    r.pivot_rows.iter().map(|&r| r as u32).collect(),
                ));
            }
        }
        for (col, slot) in self.compiled[orig].iter().enumerate() {
            // Probe by id: every bound position hashes 4 bytes, whatever
            // the width of the value it encodes.
            let id: Option<Option<ValueId>> = match slot {
                Slot::Const { id, .. } => Some(*id),
                Slot::Var(v) => bindings.get(v).map(|&b| Some(b)),
            };
            if let Some(id) = id {
                let width = match (slot, id) {
                    (Slot::Const { width, .. }, _) => *width,
                    (_, Some(b)) => db.interner().hash_width(b),
                    _ => unreachable!("bound variables always hold interned ids"),
                };
                let rows = match id {
                    None => Cand::Owned(Vec::new()), // constant outside the domain
                    Some(id) => match db.postings(atom.rel, col, id) {
                        Some(postings) => Cand::Borrowed(postings),
                        None => Cand::Owned(db.scan_matching(atom.rel, col, id)),
                    },
                };
                self.work.probes += 1;
                self.work.probe_bytes_id += ID_WIDTH;
                self.work.probe_bytes_value += width;
                if candidates.as_ref().is_none_or(|c| rows.len() < c.len()) {
                    candidates = Some(rows);
                }
                if candidates.as_ref().is_some_and(Cand::is_empty) {
                    return true;
                }
            }
        }
        let rows = candidates.unwrap_or_else(|| Cand::Range(db.relation_len(atom.rel) as u32));
        let annots = db.tuple_annots(atom.rel);
        // Hoist the column slices once per atom visit: the match loop below
        // runs per candidate row and must not re-resolve the relation.
        let cols: Vec<&[ValueId]> = (0..atom.terms.len())
            .map(|col| db.column(atom.rel, col))
            .collect();
        rows.for_each(|row| {
            let row = row as usize;
            self.work.rows_examined += 1;
            self.depth_rows[depth] += 1;
            if let Some(r) = self.restrict {
                // Membership by original atom position: before the pivot
                // only non-delta rows, at the pivot only delta rows.
                let in_set = r.set.contains(&annots[row]);
                match orig.cmp(&r.pivot) {
                    std::cmp::Ordering::Less if in_set => return true,
                    std::cmp::Ordering::Equal if !in_set => return true,
                    _ => {}
                }
            }
            let mut newly_bound: Vec<VarId> = Vec::new();
            for (col, slot) in self.compiled[orig].iter().enumerate() {
                let cell = cols[col][row];
                match slot {
                    Slot::Const { id, .. } => {
                        if *id != Some(cell) {
                            for v in newly_bound.drain(..) {
                                bindings.remove(&v);
                            }
                            return true;
                        }
                    }
                    Slot::Var(v) => match bindings.get(v) {
                        Some(&bound) => {
                            if bound != cell {
                                for v in newly_bound.drain(..) {
                                    bindings.remove(&v);
                                }
                                return true;
                            }
                        }
                        None => {
                            // Binding moves 4 id bytes; the owned engine
                            // cloned the full `Value` here.
                            self.work.moved_bytes_id += ID_WIDTH;
                            self.work.moved_bytes_value += VALUE_MOVE_WIDTH;
                            bindings.insert(*v, cell);
                            newly_bound.push(*v);
                        }
                    },
                }
            }
            image.push(annots[row]);
            // The tuple-at-a-time operator boundary: the survivor's full
            // intermediate tuple — every bound column plus the provenance
            // prefix — crosses to the next operator.
            self.work.boundary_bytes += ID_WIDTH * (bindings.len() + image.len()) as u64;
            let keep_going = self.solve(depth + 1, bindings, image);
            image.pop();
            for v in newly_bound {
                bindings.remove(&v);
            }
            keep_going
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_cq, Evaluator};
    use provabs_semiring::Monomial;

    fn eval_cq(db: &Database, q: &Cq) -> KRelation {
        Evaluator::new(db).eval_cq(q).0
    }

    /// The running-example database of Figure 1.
    pub(crate) fn figure1_db() -> Database {
        let mut db = Database::new();
        let interests = db.add_relation("Interests", &["pid", "interest", "source"]);
        let hobbies = db.add_relation("Hobbies", &["pid", "hobby", "source"]);
        let persons = db.add_relation("Person", &["pid", "name", "age"]);
        db.insert_str(interests, "i1", &["1", "Music", "WikiLeaks"]);
        db.insert_str(interests, "i2", &["2", "Music", "Facebook"]);
        db.insert_str(interests, "i3", &["3", "Music", "LinkedIn"]);
        db.insert_str(interests, "i4", &["1", "Parties", "WikiLeaks"]);
        db.insert_str(interests, "i5", &["2", "Parties", "Facebook"]);
        db.insert_str(interests, "i6", &["4", "Movies", "WikiLeaks"]);
        db.insert_str(hobbies, "h1", &["1", "Dance", "Facebook"]);
        db.insert_str(hobbies, "h2", &["2", "Dance", "LinkedIn"]);
        db.insert_str(hobbies, "h3", &["4", "Dance", "Facebook"]);
        db.insert_str(hobbies, "h4", &["1", "Trips", "Facebook"]);
        db.insert_str(hobbies, "h5", &["2", "Trips", "LinkedIn"]);
        db.insert_str(hobbies, "h6", &["3", "Trips", "WikiLeaks"]);
        db.insert_str(persons, "p1", &["1", "James T", "27"]);
        db.insert_str(persons, "p2", &["2", "Brenda P", "31"]);
        db.build_indexes();
        db
    }

    fn annot(db: &Database, name: &str) -> provabs_semiring::AnnotId {
        db.annotations().get(name).unwrap()
    }

    #[test]
    fn qreal_produces_figure_2a() {
        let db = figure1_db();
        let q = parse_cq(
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, 'Music', src2)",
            db.schema(),
        )
        .unwrap();
        let out = eval_cq(&db, &q);
        assert_eq!(out.len(), 2);
        let row1 = out.provenance(&Tuple::parse(&["1"]));
        let expected1 =
            Monomial::from_annots([annot(&db, "p1"), annot(&db, "h1"), annot(&db, "i1")]);
        assert_eq!(row1.coefficient(&expected1), 1);
        assert_eq!(row1.num_monomials(), 1);
        let row2 = out.provenance(&Tuple::parse(&["2"]));
        let expected2 =
            Monomial::from_annots([annot(&db, "p2"), annot(&db, "h2"), annot(&db, "i2")]);
        assert_eq!(row2.coefficient(&expected2), 1);
    }

    #[test]
    fn self_join_squares_annotation() {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        db.insert_str(r, "t1", &["1", "1"]);
        db.build_indexes();
        // Q(x) :- R(x, y), R(y, x): t1 joins with itself, provenance t1^2.
        let q = parse_cq("Q(x) :- R(x, y), R(y, x)", db.schema()).unwrap();
        let out = eval_cq(&db, &q);
        let p = out.provenance(&Tuple::parse(&["1"]));
        let t1 = annot(&db, "t1");
        assert_eq!(p.coefficient(&Monomial::from_factors([(t1, 2)])), 1);
    }

    #[test]
    fn multiple_derivations_sum_coefficients() {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        let s = db.add_relation("S", &["b"]);
        db.insert_str(r, "r1", &["1", "10"]);
        db.insert_str(s, "s1", &["10"]);
        db.insert_str(s, "s2", &["10"]);
        db.build_indexes();
        // Q(x) :- R(x, y), S(y): two derivations for output (1).
        let q = parse_cq("Q(x) :- R(x, y), S(y)", db.schema()).unwrap();
        let out = eval_cq(&db, &q);
        let p = out.provenance(&Tuple::parse(&["1"]));
        assert_eq!(p.num_monomials(), 2);
    }

    #[test]
    fn constants_filter() {
        let db = figure1_db();
        let q = parse_cq("Q(id) :- Hobbies(id, 'Trips', s)", db.schema()).unwrap();
        let out = eval_cq(&db, &q);
        assert_eq!(out.len(), 3); // ids 1, 2, 3
        assert!(out.provenance(&Tuple::parse(&["4"])).is_zero());
    }

    #[test]
    fn unknown_constants_match_nothing() {
        // 'Knitting' was never interned: the compiled slot resolves to no
        // id and the candidate set is empty without touching an index.
        let db = figure1_db();
        let q = parse_cq("Q(id) :- Hobbies(id, 'Knitting', s)", db.schema()).unwrap();
        let (out, work) = Evaluator::new(&db).eval_cq(&q);
        assert!(out.is_empty());
        assert_eq!(work.rows_examined, 0);
        // Head constants outside the domain still decode into outputs.
        let q2 = parse_cq("Q(id, 'madeup') :- Hobbies(id, 'Dance', s)", db.schema()).unwrap();
        let out2 = eval_cq(&db, &q2);
        assert_eq!(out2.len(), 3);
        assert!(!out2.provenance(&Tuple::parse(&["1", "madeup"])).is_zero());
    }

    #[test]
    fn dead_constant_atoms_short_circuit_with_zero_probes() {
        // 'Dance' is interned but every Dance row is deleted below, leaving
        // an *empty posting list* (unlike the never-interned case): the
        // engine must conclude emptiness at compile time. Regression: the
        // engine used to iterate every candidate row of the atoms ordered
        // before the dead one.
        let mut db = figure1_db();
        for label in ["h1", "h2", "h3"] {
            let a = db.annotations().get(label).unwrap();
            db.delete(a).unwrap();
        }
        let q = parse_cq(
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src)",
            db.schema(),
        )
        .unwrap();
        for mode in [
            crate::PlanMode::CostBased,
            crate::PlanMode::Greedy,
            crate::PlanMode::WrittenOrder,
        ] {
            for exec in [Execution::Scalar, Execution::default()] {
                let (out, work) = Evaluator::new(&db).plan(mode).execution(exec).eval_cq(&q);
                assert!(out.is_empty(), "{mode:?}/{exec:?}");
                assert_eq!(work.rows_examined, 0, "{mode:?}/{exec:?}: examined rows");
                assert_eq!(work.probes, 0, "{mode:?}/{exec:?}: issued index probes");
                assert_eq!(work.plan.queries_planned, 0, "{mode:?}/{exec:?}: planned");
            }
        }
        // The delta path short-circuits identically.
        let deletes: std::collections::HashSet<_> =
            [db.annotations().get("p1").unwrap()].into_iter().collect();
        let (removed, dwork) = Evaluator::new(&db).retractions_cq(&q, &deletes);
        assert!(removed.is_empty());
        assert_eq!(dwork.rows_examined, 0);
        assert_eq!(dwork.probes, 0);
    }

    #[test]
    fn limits_cap_outputs() {
        let db = figure1_db();
        let q = parse_cq("Q(id) :- Hobbies(id, h, s)", db.schema()).unwrap();
        for exec in [Execution::Scalar, Execution::default()] {
            let limits = EvalLimits {
                max_outputs: 2,
                ..Default::default()
            };
            let (out, _) = Evaluator::new(&db)
                .execution(exec)
                .limits(limits)
                .eval_cq(&q);
            assert_eq!(out.len(), 2, "{exec:?}");
        }
    }

    #[test]
    fn limits_cap_derivations() {
        let db = figure1_db();
        let q = parse_cq("Q(id) :- Hobbies(id, h, s)", db.schema()).unwrap();
        for exec in [Execution::Scalar, Execution::default()] {
            let limits = EvalLimits {
                max_derivations: 1,
                ..Default::default()
            };
            let (out, _) = Evaluator::new(&db)
                .execution(exec)
                .limits(limits)
                .eval_cq(&q);
            assert_eq!(out.len(), 1, "{exec:?}");
        }
    }

    #[test]
    fn ucq_sums_disjuncts() {
        let db = figure1_db();
        let u = crate::parse_ucq(
            "Q(id) :- Hobbies(id, 'Dance', s); Q(id) :- Interests(id, 'Music', s)",
            db.schema(),
        )
        .unwrap();
        let (out, _) = Evaluator::new(&db).eval_ucq(&u);
        // id 1 has both a Dance hobby and a Music interest: 2 monomials.
        assert_eq!(out.provenance(&Tuple::parse(&["1"])).num_monomials(), 2);
        // id 4 only dances.
        assert_eq!(out.provenance(&Tuple::parse(&["4"])).num_monomials(), 1);
    }

    #[test]
    fn containment_of_krelations() {
        let db = figure1_db();
        let narrow = parse_cq(
            "Q(id) :- Person(id, n, a), Hobbies(id, 'Dance', s)",
            db.schema(),
        )
        .unwrap();
        let wide = parse_cq("Q(id) :- Person(id, n, a), Hobbies(id, h, s)", db.schema()).unwrap();
        let narrow_out = eval_cq(&db, &narrow);
        let wide_out = eval_cq(&db, &wide);
        assert!(narrow_out.contained_in(&wide_out));
        assert!(!wide_out.contained_in(&narrow_out));
    }

    #[test]
    fn empty_body_produces_nothing() {
        let db = figure1_db();
        let q = Cq::new(vec![], vec![]);
        assert!(eval_cq(&db, &q).is_empty());
    }

    #[test]
    fn probe_work_counters_show_the_id_reduction() {
        let db = figure1_db();
        let q = parse_cq(
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, 'Music', src2)",
            db.schema(),
        )
        .unwrap();
        // Scalar: every scalar probe hashes one id.
        let scalar = Evaluator::new(&db).execution(Execution::Scalar);
        let (_, work) = scalar.eval_cq(&q);
        assert!(work.probes > 0);
        assert_eq!(work.probe_bytes_id, work.probes * 4);
        assert!(
            work.probe_bytes_id * 2 <= work.probe_bytes_value,
            "id probes {} vs owned {}",
            work.probe_bytes_id,
            work.probe_bytes_value
        );
        assert!(work.moved_bytes_id * 2 <= work.moved_bytes_value);
        // Deterministic: same database, same query, same counters.
        let (_, again) = scalar.eval_cq(&q);
        assert_eq!(work, again);
    }

    #[test]
    fn block_execution_matches_scalar_and_moves_less() {
        let db = figure1_db();
        let queries = [
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, 'Music', src2)",
            "Q(a, b) :- Hobbies(a, h, s1), Hobbies(b, h, s2)",
            "Q(id, h) :- Hobbies(id, h, s), Interests(id, i, s2)",
            "Q(id) :- Hobbies(id, h, s)",
        ];
        for (i, text) in queries.iter().enumerate() {
            let q = parse_cq(text, db.schema()).unwrap();
            let (scalar, swork) = Evaluator::new(&db).execution(Execution::Scalar).eval_cq(&q);
            // Scalar replay never touches the block counters (the perf
            // gates bit-diff EvalWork).
            assert_eq!(swork.blocks_emitted, 0, "query {i}");
            assert_eq!(swork.selection_survivors, 0, "query {i}");
            assert_eq!(swork.gallop_steps, 0, "query {i}");
            for block_size in [1, 2, 3, crate::exec::DEFAULT_BLOCK_SIZE] {
                let (block, bwork) = Evaluator::new(&db)
                    .execution(Execution::Block { block_size })
                    .eval_cq(&q);
                assert_eq!(block, scalar, "query {i} block_size {block_size}");
                assert_eq!(bwork.derivations, swork.derivations);
                assert!(bwork.blocks_emitted > 0, "query {i}");
            }
        }
    }

    #[test]
    fn traced_evaluation_reports_per_step_actuals() {
        let db = figure1_db();
        let q = parse_cq(
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, 'Music', src2)",
            db.schema(),
        )
        .unwrap();
        let planned = crate::plan_cq(&db, &q, crate::PlanMode::CostBased, None);
        for exec in [Execution::Scalar, Execution::default()] {
            let (out, work, trace) = Evaluator::new(&db)
                .plan(crate::PlanMode::CostBased)
                .execution(exec)
                .eval_cq_traced(&q);
            assert_eq!(out, eval_cq(&db, &q), "{exec:?}");
            // The trace pairs the plan that ran with that run's rows.
            assert_eq!(trace.plan, planned, "{exec:?}");
            assert_eq!(trace.actual_rows.len(), q.body.len(), "{exec:?}");
            // Per-step actuals decompose the engine's total exactly.
            assert_eq!(
                trace.actual_rows.iter().sum::<u64>(),
                work.rows_examined,
                "{exec:?}"
            );
            assert_eq!(work.plan.queries_planned, 1, "{exec:?}");
            assert_eq!(work.plan.est_rows, trace.plan.est_rows_total(), "{exec:?}");
            // Person (2 rows) beats the 'Dance' posting list (3 rows) and
            // opens the plan.
            assert_eq!(trace.plan.steps[0].atom, 0, "{exec:?}");
            assert_eq!(trace.actual_rows[0], 2, "{exec:?}");
        }
    }

    #[test]
    fn database_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<KRelation>();
    }
}
