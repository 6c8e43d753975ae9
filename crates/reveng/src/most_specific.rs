//! The consistent-query frontier: most-specific queries per alignment.

use crate::alignment::{expansions_of_row, for_each_alignment};
use crate::canonical::canonical_form;
use provabs_relational::{Atom, ConcreteRow, Cq, Term, ValueId, VarId};
use provabs_semiring::SemiringKind;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// For the exponent-dropping semirings: how many extra units of degree
/// beyond the support size [`find_consistent_queries`] tries when
/// expanding rows (`Table 4`, red cell).
pub const MAX_EXPANSION_EXTRA: usize = 1;

/// Options for [`find_consistent_queries`].
#[derive(Debug, Clone)]
pub struct RevOptions {
    /// The provenance semiring of the K-example. `N[X]` and `B[X]` require
    /// exact occurrence bijections; `Why(X)`/`Trio(X)`/`PosBool(X)` allow
    /// repeated atom→tuple mappings via bounded expansion.
    pub semiring: SemiringKind,
    /// Cap on the number of alignments examined per call (self-joins make
    /// alignments factorial). When hit, the frontier is truncated — counts
    /// derived from it become lower bounds.
    pub max_alignments: usize,
    /// Keep only connected queries.
    pub connected_only: bool,
}

impl Default for RevOptions {
    fn default() -> Self {
        Self {
            semiring: SemiringKind::NX,
            max_alignments: 100_000,
            connected_only: false,
        }
    }
}

/// The candidate frontier of a concrete K-example, as returned by
/// [`find_consistent_queries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    /// `(canonical key, query in canonical form)` pairs, unique by key and
    /// sorted by it. The key is [`crate::canonical_key`] of the query, so
    /// callers deduplicate across frontiers without canonicalizing again.
    pub queries: Vec<(String, Cq)>,
    /// Whether every alignment was visited. `false` when
    /// [`RevOptions::max_alignments`] cut the enumeration short: the
    /// frontier may then miss queries, and counts derived from it are lower
    /// bounds.
    pub complete: bool,
}

/// The empty frontier: no consistent CQ, and nothing cut short.
impl Default for Frontier {
    fn default() -> Self {
        Self {
            queries: Vec::new(),
            complete: true,
        }
    }
}

impl Frontier {
    /// Number of frontier queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no consistent CQ was found.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in key order.
    pub fn cqs(&self) -> impl Iterator<Item = &Cq> {
        self.queries.iter().map(|(_, q)| q)
    }

    /// The queries without their keys, in key order.
    pub fn into_cqs(self) -> Vec<Cq> {
        self.queries.into_iter().map(|(_, q)| q).collect()
    }
}

/// Finds the **candidate frontier** of consistent queries w.r.t. a concrete
/// K-example (Def. 3.9): for every alignment of the rows' occurrences, the
/// most-specific consistent query — constants wherever the aligned value
/// vector is uniform, one shared variable per distinct non-uniform vector.
///
/// Every consistent query `Q` contains (under the semiring's containment
/// order) the frontier query of the alignment induced by `Q`'s derivations,
/// so the frontier's minimal elements are exactly the minimal consistent
/// queries. Queries are returned in canonical form with their canonical
/// keys, deduplicated, sorted by key.
///
/// Each alignment is decided on value ids before any query exists: whether
/// its most-specific query exists (every non-uniform output column equals
/// some body vector) and, under [`RevOptions::connected_only`], whether it
/// is connected. Only the queries kept are built, with their constants
/// decoded, and canonicalized. The rows must be located in one database.
///
/// Returns an empty frontier when no consistent CQ exists (e.g. rows with
/// different relation signatures — a UCQ may still be consistent, see
/// [`crate::ucq`]).
pub fn find_consistent_queries(rows: &[ConcreteRow<'_>], opts: &RevOptions) -> Frontier {
    let mut out: BTreeMap<String, Cq> = BTreeMap::new();
    if rows.is_empty() {
        return Frontier::default();
    }
    // All outputs must share an arity.
    let arity = rows[0].output.arity();
    if rows.iter().any(|r| r.output.arity() != arity) {
        return Frontier::default();
    }
    let mut complete = true;
    if opts.semiring.keeps_exponents() {
        complete = collect_from_rows(rows, opts, &mut out);
    } else {
        // Exponent-dropping semirings: normalize rows to their support and
        // try increasing common degrees with expansions.
        let supports: Vec<ConcreteRow<'_>> = rows.iter().map(support_row).collect();
        let min_degree = supports
            .iter()
            .map(|r| r.occurrences.len())
            .max()
            .unwrap_or(0);
        for extra in 0..=MAX_EXPANSION_EXTRA {
            let d = min_degree + extra;
            // Cartesian product of per-row degree-d expansions.
            let per_row: Vec<Vec<ConcreteRow<'_>>> =
                supports.iter().map(|r| expansions_of_row(r, d)).collect();
            if per_row.iter().any(Vec::is_empty) {
                continue;
            }
            let mut choice: Vec<ConcreteRow<'_>> = per_row.iter().map(|v| v[0].clone()).collect();
            expand_product(&per_row, 0, &mut choice, &mut |expanded| {
                complete &= collect_from_rows(expanded, opts, &mut out);
            });
        }
    }
    Frontier {
        queries: out.into_iter().collect(),
        complete,
    }
}

fn expand_product<'db>(
    per_row: &[Vec<ConcreteRow<'db>>],
    i: usize,
    choice: &mut Vec<ConcreteRow<'db>>,
    f: &mut impl FnMut(&[ConcreteRow<'db>]),
) {
    if i == per_row.len() {
        f(choice);
        return;
    }
    for opt in &per_row[i] {
        choice[i] = opt.clone();
        expand_product(per_row, i + 1, choice, f);
    }
}

fn support_row<'db>(row: &ConcreteRow<'db>) -> ConcreteRow<'db> {
    let mut seen = std::collections::HashSet::new();
    ConcreteRow {
        db: row.db,
        output: row.output.clone(),
        occurrences: row
            .occurrences
            .iter()
            .filter(|(a, _)| seen.insert(*a))
            .copied()
            .collect(),
    }
}

/// Adds the most-specific query of every alignment of `rows` to `out` (only
/// the connected ones under [`RevOptions::connected_only`]); returns whether
/// every alignment was visited.
fn collect_from_rows(
    rows: &[ConcreteRow<'_>],
    opts: &RevOptions,
    out: &mut BTreeMap<String, Cq>,
) -> bool {
    let mut msq = MsqBuilder::new(rows);
    for_each_alignment(rows, opts.max_alignments, |per_row| {
        if msq.decide(per_row, opts.connected_only) {
            let (key, canon) = canonical_form(&msq.query());
            out.entry(key).or_insert(canon);
        }
    })
    .is_some()
}

/// The term of one body position of a most-specific query.
#[derive(Debug, Clone, Copy)]
enum PosTerm {
    /// A uniform value vector: this constant.
    Const(ValueId),
    /// A non-uniform vector: the variable numbered by its first position.
    Var(u32),
}

/// The term of one head column, fixed per call.
#[derive(Debug, Clone)]
enum HeadCol {
    /// The column is uniform across the rows: its constant.
    Const,
    /// The rows' value ids, or `None` when some output value is in no
    /// tuple of the database (no body vector can carry it).
    Ids(Option<Vec<ValueId>>),
}

/// Builds the most-specific query of each alignment of one row list on
/// value ids, reusing its scratch space across alignments.
///
/// A body position `(slot, column)` reads the value id of every row's
/// aligned occurrence. A uniform vector is a constant. A non-uniform one is
/// interned by refinement, one probe per row after the first (class of the
/// rows `0..=j` = intern of the class of `0..j` and row `j`'s id), and the
/// class names a variable numbered in first-occurrence order, slot-major.
/// Atom connectivity (atoms sharing a variable, union-find over slots) and
/// the head witness (each non-uniform head column must equal some body
/// vector) are decided on those classes, so a query is built only when it
/// is kept, and only then are its constants decoded.
struct MsqBuilder<'r, 'db> {
    rows: &'r [ConcreteRow<'db>],
    head_cols: Vec<HeadCol>,
    /// `(row, class of rows 0..row, id)` → class of rows `0..=row`, for
    /// the non-uniform vectors; the class of row 0 alone is its value id.
    classes: HashMap<(u32, u32, ValueId), u32>,
    /// Per class: its variable number once a body position has the full
    /// vector, else `NO_VAR`.
    var_of: Vec<u32>,
    /// Per body position, slot-major: its term in the current alignment.
    terms: Vec<PosTerm>,
    /// Per head column: its variable in the current alignment (`NO_VAR`
    /// for a constant column).
    head: Vec<u32>,
    /// Union-find parents over slots, and the first slot of each variable.
    parent: Vec<usize>,
    home: Vec<usize>,
}

const NO_VAR: u32 = u32::MAX;

impl<'r, 'db> MsqBuilder<'r, 'db> {
    fn new(rows: &'r [ConcreteRow<'db>]) -> Self {
        let first = &rows[0];
        let head_cols = (0..first.output.arity())
            .map(|col| {
                let v = &first.output[col];
                if rows.iter().all(|r| &r.output[col] == v) {
                    return HeadCol::Const;
                }
                let values = first.db.interner();
                HeadCol::Ids(rows.iter().map(|r| values.lookup(&r.output[col])).collect())
            })
            .collect();
        Self {
            rows,
            head_cols,
            classes: HashMap::new(),
            var_of: Vec::new(),
            terms: Vec::new(),
            head: Vec::new(),
            parent: Vec::new(),
            home: Vec::new(),
        }
    }

    /// Decides the alignment `per_row`: whether its most-specific query
    /// exists (every non-uniform head column has a body witness) and, when
    /// `connected_only`, is connected. [`MsqBuilder::query`] then builds it.
    fn decide(&mut self, per_row: &[Vec<usize>], connected_only: bool) -> bool {
        let rows = self.rows;
        self.classes.clear();
        self.var_of.clear();
        self.terms.clear();
        let mut next_var = 0u32;
        for (slot, _) in rows[0].occurrences.iter().enumerate() {
            for col in 0..rows[0].arity(slot) {
                let id = |j: usize| rows[j].value_id(per_row[j][slot], col);
                let first = id(0);
                if (1..rows.len()).all(|j| id(j) == first) {
                    self.terms.push(PosTerm::Const(first));
                    continue;
                }
                let mut class = first.0;
                for j in 1..rows.len() {
                    let fresh = self.var_of.len() as u32;
                    class = *self
                        .classes
                        .entry((j as u32, class, id(j)))
                        .or_insert(fresh);
                    if class == fresh {
                        self.var_of.push(NO_VAR);
                    }
                }
                let var = &mut self.var_of[class as usize];
                if *var == NO_VAR {
                    *var = next_var;
                    next_var += 1;
                }
                self.terms.push(PosTerm::Var(*var));
            }
        }
        if !self.head_witnessed() {
            return false;
        }
        !connected_only || self.connected(next_var as usize)
    }

    /// Resolves each non-uniform head column to the variable of the body
    /// vector equal to it; false when some column has none.
    fn head_witnessed(&mut self) -> bool {
        self.head.clear();
        for col in &self.head_cols {
            let var = match col {
                HeadCol::Const => NO_VAR,
                HeadCol::Ids(None) => return false,
                HeadCol::Ids(Some(ids)) => {
                    let mut class = ids[0].0;
                    for (j, &id) in ids.iter().enumerate().skip(1) {
                        match self.classes.get(&(j as u32, class, id)) {
                            Some(&c) => class = c,
                            None => return false,
                        }
                    }
                    // A full-vector class exists only if a body position
                    // reached it; non-uniform, so it names a variable.
                    self.var_of[class as usize]
                }
            };
            self.head.push(var);
        }
        true
    }

    /// Whether the atoms, joined through shared variables, form one
    /// component (`Cq::is_connected`); `n_vars` variables are numbered.
    fn connected(&mut self, n_vars: usize) -> bool {
        let n = self.rows[0].occurrences.len();
        if n <= 1 {
            return true;
        }
        fn find(p: &mut [usize], mut i: usize) -> usize {
            while p[i] != i {
                p[i] = p[p[i]];
                i = p[i];
            }
            i
        }
        self.parent.clear();
        self.parent.extend(0..n);
        self.home.clear();
        self.home.resize(n_vars, usize::MAX);
        let mut pos = 0;
        let mut components = n;
        for slot in 0..n {
            for _ in 0..self.rows[0].arity(slot) {
                if let PosTerm::Var(v) = self.terms[pos] {
                    let home = &mut self.home[v as usize];
                    if *home == usize::MAX {
                        *home = slot;
                    } else {
                        let (a, b) = (find(&mut self.parent, *home), find(&mut self.parent, slot));
                        if a != b {
                            self.parent[a] = b;
                            components -= 1;
                        }
                    }
                }
                pos += 1;
            }
        }
        components == 1
    }

    /// The query [`MsqBuilder::decide`] last accepted, with its constants
    /// decoded.
    fn query(&self) -> Cq {
        let first = &self.rows[0];
        let term = |t: PosTerm| match t {
            PosTerm::Const(id) => Term::Const(first.db.value(id).clone()),
            PosTerm::Var(v) => Term::Var(VarId(v)),
        };
        let mut pos = 0;
        let body = (0..first.occurrences.len())
            .map(|slot| {
                let arity = first.arity(slot);
                let terms = self.terms[pos..pos + arity]
                    .iter()
                    .map(|&t| term(t))
                    .collect();
                pos += arity;
                Atom {
                    rel: first.rel(slot),
                    terms,
                }
            })
            .collect();
        let head = self
            .head
            .iter()
            .enumerate()
            .map(|(col, &v)| match v {
                NO_VAR => Term::Const(first.output[col].clone()),
                v => Term::Var(VarId(v)),
            })
            .collect();
        Cq::new(head, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_key;
    use provabs_relational::{parse_cq, Database, Evaluator, KExample, Tuple};
    use provabs_semiring::Monomial;

    /// The Figure 1 database of the paper.
    fn figure1_db() -> Database {
        let mut db = Database::new();
        let interests = db.add_relation("Interests", &["pid", "interest", "source"]);
        let hobbies = db.add_relation("Hobbies", &["pid", "hobby", "source"]);
        let persons = db.add_relation("Person", &["pid", "name", "age"]);
        for (a, f) in [
            ("i1", ["1", "Music", "WikiLeaks"]),
            ("i2", ["2", "Music", "Facebook"]),
            ("i3", ["3", "Music", "LinkedIn"]),
            ("i4", ["1", "Parties", "WikiLeaks"]),
            ("i5", ["2", "Parties", "Facebook"]),
            ("i6", ["4", "Movies", "WikiLeaks"]),
        ] {
            db.insert_str(interests, a, &f);
        }
        for (a, f) in [
            ("h1", ["1", "Dance", "Facebook"]),
            ("h2", ["2", "Dance", "LinkedIn"]),
            ("h3", ["4", "Dance", "Facebook"]),
            ("h4", ["1", "Trips", "Facebook"]),
            ("h5", ["2", "Trips", "LinkedIn"]),
            ("h6", ["3", "Trips", "WikiLeaks"]),
        ] {
            db.insert_str(hobbies, a, &f);
        }
        db.insert_str(persons, "p1", &["1", "James T", "27"]);
        db.insert_str(persons, "p2", &["2", "Brenda P", "31"]);
        db.build_indexes();
        db
    }

    fn rows_for<'db>(db: &'db Database, pairs: &[(&str, &[&str])]) -> Vec<ConcreteRow<'db>> {
        let ex = KExample::new(pairs.iter().map(|(out, annots)| {
            (
                Tuple::parse(&[out]),
                Monomial::from_annots(annots.iter().map(|a| db.annotations().get(a).unwrap())),
            )
        }));
        ex.resolve(db).unwrap()
    }

    #[test]
    fn recovers_qreal_from_exreal() {
        // Exreal (Figure 2a): rows (1, p1*h1*i1) and (2, p2*h2*i2).
        let db = figure1_db();
        let rows = rows_for(
            &db,
            &[("1", &["p1", "h1", "i1"]), ("2", &["p2", "h2", "i2"])],
        );
        let qs = find_consistent_queries(&rows, &RevOptions::default());
        assert!(qs.complete);
        assert_eq!(qs.len(), 1);
        let qreal = parse_cq(
            "Q(id) :- Person(id, n, a), Hobbies(id, 'Dance', w1), Interests(id, 'Music', w2)",
            db.schema(),
        )
        .unwrap();
        let (key, q) = &qs.queries[0];
        assert_eq!(*key, canonical_key(&qreal));
        assert_eq!(*key, canonical_key(q));
        assert!(q.is_connected());
    }

    #[test]
    fn recovers_qfalse1_from_exfalse1() {
        // Exfalse1 (Figure 2b): rows (1, p1*h4*i1) and (2, p2*h5*i2).
        let db = figure1_db();
        let rows = rows_for(
            &db,
            &[("1", &["p1", "h4", "i1"]), ("2", &["p2", "h5", "i2"])],
        );
        let qs = find_consistent_queries(&rows, &RevOptions::default());
        assert_eq!(qs.len(), 1);
        let qfalse1 = parse_cq(
            "Q(id) :- Person(id, n, a), Hobbies(id, 'Trips', w1), Interests(id, 'Music', w2)",
            db.schema(),
        )
        .unwrap();
        assert_eq!(qs.queries[0].0, canonical_key(&qfalse1));
    }

    #[test]
    fn frontier_queries_are_consistent_by_evaluation() {
        // O ⊆_K Q(I): evaluate every frontier query on the database and
        // check the example's monomials are produced.
        let db = figure1_db();
        let rows = rows_for(
            &db,
            &[("1", &["p1", "h1", "i1"]), ("2", &["p2", "h2", "i2"])],
        );
        let qs = find_consistent_queries(&rows, &RevOptions::default());
        for q in qs.cqs() {
            let (out, _) = Evaluator::new(&db).eval_cq(q);
            for (output, annots) in [("1", ["p1", "h1", "i1"]), ("2", ["p2", "h2", "i2"])] {
                let m =
                    Monomial::from_annots(annots.iter().map(|a| db.annotations().get(a).unwrap()));
                assert!(
                    out.provenance(&Tuple::parse(&[output])).coefficient(&m) >= 1,
                    "query {} does not derive row {output}",
                    q.display(db.schema())
                );
            }
        }
    }

    #[test]
    fn mismatched_signatures_yield_no_cq() {
        let db = figure1_db();
        let rows = rows_for(&db, &[("1", &["p1", "h1"]), ("2", &["p2", "i2"])]);
        assert!(find_consistent_queries(&rows, &RevOptions::default()).is_empty());
    }

    #[test]
    fn disconnected_concretization_yields_disconnected_query() {
        // Row 1 uses h3 (pid 4) with p1 (pid 1): the Hobbies atom shares no
        // vector with Person, so the query is disconnected.
        let db = figure1_db();
        let rows = rows_for(&db, &[("1", &["p1", "h3"]), ("2", &["p2", "h2"])]);
        let all = find_consistent_queries(&rows, &RevOptions::default()).into_cqs();
        assert_eq!(all.len(), 1);
        assert!(!all[0].is_connected());
        let connected_only = find_consistent_queries(
            &rows,
            &RevOptions {
                connected_only: true,
                ..Default::default()
            },
        );
        assert!(connected_only.is_empty());
    }

    #[test]
    fn head_without_body_witness_fails() {
        // Outputs (10) and (20) but no tuple column carries 10/20: no
        // consistent query.
        let db = figure1_db();
        let rows = rows_for(&db, &[("10", &["p1"]), ("20", &["p2"])]);
        assert!(find_consistent_queries(&rows, &RevOptions::default()).is_empty());
    }

    #[test]
    fn single_row_yields_ground_query() {
        let db = figure1_db();
        let rows = rows_for(&db, &[("1", &["p1", "h1"])]);
        let qs = find_consistent_queries(&rows, &RevOptions::default()).into_cqs();
        assert_eq!(qs.len(), 1);
        assert!(!qs[0].has_variable());
    }

    #[test]
    fn why_semiring_expands_repeats() {
        // Under Why(X), the monomial {t} of a row produced by a self-join
        // query R(x,y),R(y,x) has support {t}; expansion to degree 2 must
        // recover a two-atom query.
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        db.insert_str(r, "t1", &["1", "1"]);
        db.insert_str(r, "t2", &["2", "2"]);
        db.build_indexes();
        let rows = rows_for(&db, &[("1", &["t1"]), ("2", &["t2"])]);
        let opts = RevOptions {
            semiring: provabs_semiring::SemiringKind::Why,
            ..Default::default()
        };
        let qs = find_consistent_queries(&rows, &opts).into_cqs();
        // Expect both the 1-atom query Q(x) :- R(x,x) and 2-atom expansions.
        assert!(qs.iter().any(|q| q.body.len() == 1));
        assert!(qs.iter().any(|q| q.body.len() == 2));
    }

    #[test]
    fn self_join_alignments_generate_multiple_candidates() {
        // Two R-tuples per row; swapping the alignment changes the vectors.
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        db.insert_str(r, "t1", &["1", "5"]);
        db.insert_str(r, "t2", &["5", "9"]);
        db.insert_str(r, "t3", &["2", "6"]);
        db.insert_str(r, "t4", &["6", "9"]);
        db.build_indexes();
        // Rows: (1, t1*t2), (2, t3*t4): chain query Q(x) :- R(x,y), R(y, 9).
        let rows = rows_for(&db, &[("1", &["t1", "t2"]), ("2", &["t3", "t4"])]);
        let frontier = find_consistent_queries(&rows, &RevOptions::default());
        assert!(frontier.complete);
        let qs = frontier.into_cqs();
        // The straight alignment gives the chain; the crossed alignment has
        // no head witness for the varying output, so exactly one query.
        assert_eq!(qs.len(), 1);
        assert!(qs[0].is_connected());
        assert_eq!(qs[0].body.len(), 2);
        // One alignment of the two is not all of them: the frontier says so.
        let capped = find_consistent_queries(
            &rows,
            &RevOptions {
                max_alignments: 1,
                ..Default::default()
            },
        );
        assert!(!capped.complete);
    }
}
