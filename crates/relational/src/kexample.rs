//! K-examples (Def. 2.4): output examples together with their provenance.

use crate::{Database, KRelation, RelId, Tuple, TupleRef, Value, ValueId};
use provabs_semiring::{AnnotId, AnnotRegistry, Monomial};
use std::fmt;

/// One row of a K-example: an output tuple and one provenance monomial.
///
/// Polynomials with several monomials are normalized into one row per
/// monomial (each monomial of `O(t)` must be matched by a consistent query
/// independently under the natural order of `N[X]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KRow {
    /// The output tuple.
    pub output: Tuple,
    /// Its provenance monomial.
    pub monomial: Monomial,
}

/// A K-example: a subset of the (hidden) query's results with provenance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KExample {
    /// The rows, in presentation order.
    pub rows: Vec<KRow>,
}

impl KExample {
    /// Builds a K-example from `(output, monomial)` pairs.
    pub fn new<I: IntoIterator<Item = (Tuple, Monomial)>>(rows: I) -> Self {
        KExample {
            rows: rows
                .into_iter()
                .map(|(output, monomial)| KRow { output, monomial })
                .collect(),
        }
    }

    /// Extracts the first `max_rows` rows from an evaluated K-relation,
    /// taking each output's first monomial (deterministic: outputs and
    /// monomials are ordered).
    pub fn from_krelation(out: &KRelation, max_rows: usize) -> Self {
        KExample {
            rows: out
                .iter()
                .filter_map(|(t, p)| {
                    p.terms().first().map(|(m, _)| KRow {
                        output: t.clone(),
                        monomial: m.clone(),
                    })
                })
                .take(max_rows)
                .collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the example has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `Var(Ex)`: the distinct annotations appearing in the provenance.
    pub fn variables(&self) -> Vec<AnnotId> {
        let mut v: Vec<AnnotId> = self
            .rows
            .iter()
            .flat_map(|r| r.monomial.support())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total number of annotation **occurrences** (degrees summed); the
    /// domain size of occurrence-level abstraction functions.
    pub fn num_occurrences(&self) -> usize {
        self.rows.iter().map(|r| r.monomial.degree() as usize).sum()
    }

    /// Resolves every occurrence against `db`, yielding [`ConcreteRow`]s.
    ///
    /// Returns `None` if some annotation does not tag a tuple of `db`.
    pub fn resolve<'db>(&self, db: &'db Database) -> Option<Vec<ConcreteRow<'db>>> {
        self.rows
            .iter()
            .map(|r| ConcreteRow::resolve(db, &r.output, &r.monomial.occurrences()))
            .collect()
    }

    /// Renders the K-example as the paper's two-column table.
    pub fn to_string_with(&self, reg: &AnnotRegistry) -> String {
        self.rows
            .iter()
            .map(|r| format!("{}  |  {}", r.output, r.monomial.to_string_with(reg)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A K-example row with every annotation occurrence located in its
/// database.
///
/// This is the input shape of the reverse-engineering algorithms: the query
/// atoms must map bijectively onto `occurrences`. Occurrences are read in
/// place as dictionary ids ([`ConcreteRow::value_id`]); nothing is decoded
/// when a row is resolved, and an owned [`Value`] is materialized only
/// where a caller asks for one ([`ConcreteRow::value`]).
#[derive(Clone)]
pub struct ConcreteRow<'db> {
    /// The database the occurrences live in.
    pub db: &'db Database,
    /// The output tuple.
    pub output: Tuple,
    /// The located occurrences: annotation and tuple location.
    pub occurrences: Vec<(AnnotId, TupleRef)>,
}

impl fmt::Debug for ConcreteRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcreteRow")
            .field("output", &self.output)
            .field("occurrences", &self.occurrences)
            .finish()
    }
}

impl<'db> ConcreteRow<'db> {
    /// Locates an occurrence list in `db`; `None` if some annotation tags
    /// no tuple. Reads no column and decodes nothing.
    pub fn resolve(db: &'db Database, output: &Tuple, occs: &[AnnotId]) -> Option<Self> {
        let occurrences = occs
            .iter()
            .map(|&a| db.locate(a).map(|loc| (a, loc)))
            .collect::<Option<Vec<_>>>()?;
        Some(ConcreteRow {
            db,
            output: output.clone(),
            occurrences,
        })
    }

    /// The relation of occurrence `i`.
    pub fn rel(&self, i: usize) -> RelId {
        self.occurrences[i].1.rel
    }

    /// The arity of occurrence `i`'s relation.
    pub fn arity(&self, i: usize) -> usize {
        self.db.schema().arity(self.rel(i))
    }

    /// The dictionary id in column `col` of occurrence `i`'s tuple.
    pub fn value_id(&self, i: usize, col: usize) -> ValueId {
        let loc = self.occurrences[i].1;
        self.db.column(loc.rel, col)[loc.row]
    }

    /// The value in column `col` of occurrence `i`'s tuple.
    pub fn value(&self, i: usize, col: usize) -> &'db Value {
        self.db.value(self.value_id(i, col))
    }

    /// Whether the row's tuples form a connected graph under the
    /// shares-a-constant relation (§4.1, "Concretizations connectivity"),
    /// decided on the tuples' value ids like [`monomial_connected`].
    pub fn is_connected(&self) -> bool {
        ids_connected(
            self.occurrences
                .iter()
                .map(|&(_, loc)| self.db.row_value_ids(loc))
                .collect(),
        )
    }
}

/// Whether the monomial given by `occs` is connected in `db` (tuples are
/// nodes; edges join tuples sharing a constant).
///
/// Annotations that do not tag tuples of `db` make the monomial disconnected
/// (they cannot join anything), unless it is a single occurrence.
///
/// Runs entirely on interned storage: each occurrence's row collapses to its
/// sorted distinct [`ValueId`] set once, and the edge test is a merge probe
/// of two sorted id lists — no tuple is decoded and no `Value` is compared,
/// unlike the owned [`Tuple::shares_constant`] scan (a regression test pins
/// both to the same connectivity graph). [`ConcreteRow::is_connected`] runs
/// the same test on an already-located row.
pub fn monomial_connected(db: &Database, occs: &[AnnotId]) -> bool {
    if occs.len() <= 1 {
        return true;
    }
    let Some(locs) = occs
        .iter()
        .map(|&a| db.locate(a))
        .collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    ids_connected(locs.iter().map(|&loc| db.row_value_ids(loc)).collect())
}

/// Whether the graph over sorted distinct value-id sets, with an edge
/// between two sets that intersect (a merge probe), is connected.
fn ids_connected(id_sets: Vec<Vec<ValueId>>) -> bool {
    let share = |a: &[ValueId], b: &[ValueId]| -> bool {
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    };
    let n = id_sets.len();
    if n <= 1 {
        return true;
    }
    let mut reached = vec![false; n];
    let mut stack = vec![0usize];
    reached[0] = true;
    while let Some(i) = stack.pop() {
        for j in 0..n {
            if !reached[j] && share(&id_sets[i], &id_sets[j]) {
                reached[j] = true;
                stack.push(j);
            }
        }
    }
    reached.into_iter().all(|r| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_cq, Evaluator};

    fn figure1_db() -> Database {
        // Reuse the eval test fixture through a local copy.
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

    #[test]
    fn kexample_from_query_output() {
        let db = figure1_db();
        let q = parse_cq(
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1), Interests(id, 'Music', s2)",
            db.schema(),
        )
        .unwrap();
        let ex = KExample::from_krelation(&Evaluator::new(&db).eval_cq(&q).0, 10);
        assert_eq!(ex.len(), 2);
        assert_eq!(ex.variables().len(), 6);
        assert_eq!(ex.num_occurrences(), 6);
    }

    #[test]
    fn resolve_and_connectivity() {
        let db = figure1_db();
        let a = |n: &str| db.annotations().get(n).unwrap();
        // p1, h1, i1 all mention pid 1 — connected.
        assert!(monomial_connected(&db, &[a("p1"), a("h1"), a("i1")]));
        // p1 (pid 1, 'James T', 27) and h3 (pid 4, Dance, Facebook): no shared
        // constant, and i6 (pid 4) bridges only h3 — p1 stays disconnected.
        assert!(!monomial_connected(&db, &[a("p1"), a("h3")]));
        assert!(!monomial_connected(&db, &[a("p1"), a("h3"), a("i6")]));
        // h3 and i6 share pid 4 — connected.
        assert!(monomial_connected(&db, &[a("h3"), a("i6")]));
        // Single occurrences are trivially connected.
        assert!(monomial_connected(&db, &[a("p1")]));
    }

    #[test]
    fn interned_connectivity_graph_matches_value_scan() {
        // Regression for the ValueId fast path: for every pair and a sweep
        // of triples of annotations, the interned merge-probe connectivity
        // (free and on a located row) must agree with the owned value-scan
        // connectivity over decoded tuples.
        let db = figure1_db();
        let annots: Vec<_> = [
            "i1", "i2", "i3", "i4", "i5", "i6", "h1", "h2", "h3", "h4", "h5", "h6", "p1", "p2",
        ]
        .iter()
        .map(|n| db.annotations().get(n).unwrap())
        .collect();
        let value_based = |occs: &[provabs_semiring::AnnotId]| -> bool {
            let tuples: Vec<Tuple> = occs
                .iter()
                .map(|&a| db.tuple_by_annot(a).unwrap().1)
                .collect();
            let mut reached = vec![false; tuples.len()];
            let mut stack = vec![0usize];
            reached[0] = true;
            while let Some(i) = stack.pop() {
                for j in 0..tuples.len() {
                    if !reached[j] && tuples[i].shares_constant(&tuples[j]) {
                        reached[j] = true;
                        stack.push(j);
                    }
                }
            }
            let connected = reached.into_iter().all(|r| r);
            let row = ConcreteRow::resolve(&db, &Tuple::new([]), occs).unwrap();
            assert_eq!(row.is_connected(), connected, "located row diverged");
            connected
        };
        for (i, &a) in annots.iter().enumerate() {
            for &b in &annots[i + 1..] {
                assert_eq!(
                    monomial_connected(&db, &[a, b]),
                    value_based(&[a, b]),
                    "pair connectivity diverged"
                );
            }
        }
        for (i, &a) in annots.iter().enumerate() {
            for (j, &b) in annots.iter().enumerate().skip(i + 1) {
                for &c in &annots[j + 1..] {
                    assert_eq!(
                        monomial_connected(&db, &[a, b, c]),
                        value_based(&[a, b, c]),
                        "triple connectivity diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn resolve_fails_for_unknown_annotation() {
        let mut db = figure1_db();
        let ghost = db.intern_label("ghost");
        let ex = KExample::new([(Tuple::parse(&["1"]), Monomial::from_annots([ghost]))]);
        assert!(ex.resolve(&db).is_none());
    }

    #[test]
    fn render_matches_table_shape() {
        let db = figure1_db();
        let a = |n: &str| db.annotations().get(n).unwrap();
        let ex = KExample::new([(
            Tuple::parse(&["1"]),
            Monomial::from_annots([a("p1"), a("h1"), a("i1")]),
        )]);
        let s = ex.to_string_with(db.annotations());
        assert!(s.contains("(1)"));
        assert!(s.contains("i1*h1*p1") || s.contains("p1*h1*i1"));
    }
}
