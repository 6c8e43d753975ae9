//! Conjunctive queries and unions of conjunctive queries.

use crate::{Schema, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A relation identifier within a [`Schema`](crate::Schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(pub u16);

/// A query variable identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// A term of a query atom: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A query variable.
    Var(VarId),
    /// A constant of the domain.
    Const(Value),
}

impl Term {
    /// Returns the variable id if this is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// Whether this term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

/// A relational atom `R(t1, ..., tn)` of a query body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The relation.
    pub rel: RelId,
    /// The terms; length must equal the relation arity.
    pub terms: Vec<Term>,
}

impl Atom {
    /// The variables of this atom (with repeats).
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }
}

/// A conjunctive query `Q(u) :- R1(v1), ..., Rl(vl)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cq {
    /// Head name (purely cosmetic; defaults to `Q`).
    pub head_name: String,
    /// Head terms. Head variables must appear in the body.
    pub head: Vec<Term>,
    /// Body atoms.
    pub body: Vec<Atom>,
}

impl Cq {
    /// Creates a CQ with the default head name `Q`.
    pub fn new(head: Vec<Term>, body: Vec<Atom>) -> Self {
        Cq {
            head_name: "Q".to_owned(),
            head,
            body,
        }
    }

    /// All distinct variables, body first then head, in first-occurrence order.
    pub fn variables(&self) -> Vec<VarId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for t in self
            .body
            .iter()
            .flat_map(|a| a.terms.iter())
            .chain(self.head.iter())
        {
            if let Term::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// The number of joins as counted by the paper's Table 6: `#atoms − 1`
    /// for a connected query (the number of edges of a spanning tree of the
    /// join graph).
    pub fn num_joins(&self) -> usize {
        self.body.len().saturating_sub(1)
    }

    /// Whether every head variable appears in the body (query safety).
    pub fn is_safe(&self) -> bool {
        let body_vars: HashSet<VarId> = self.body.iter().flat_map(|a| a.variables()).collect();
        self.head
            .iter()
            .filter_map(Term::as_var)
            .all(|v| body_vars.contains(&v))
    }

    /// Whether the join graph is connected: atoms are nodes, with an edge
    /// between two atoms iff they share at least one **variable**.
    ///
    /// The paper's §3.3 *wording* phrases the join graph over relation
    /// names, but its worked examples (Table 3 / Example 3.13: the
    /// double-`Interests` query does not count as connected, keeping the
    /// privacy of `Exabs1` at 2) behave atom-level, so atom-level is the
    /// default here; [`Cq::is_relation_connected`] implements the coarser
    /// relation-level reading.
    ///
    /// Queries with no atoms are vacuously connected; a single atom is
    /// connected.
    pub fn is_connected(&self) -> bool {
        self.is_atom_connected()
    }

    /// Relation-level connectivity (the paper's literal §3.3 wording):
    /// nodes are the distinct relation names `{R1,...,Rm}` with an edge
    /// `(Ri, Rj)` iff some atom of `Ri` shares a variable with some atom of
    /// `Rj`. Weaker than [`Cq::is_connected`]: a ground self-join atom
    /// (e.g. IMDB-Q3's `Person('Kevin Bacon', ...)`) stays connected
    /// through its sibling atom.
    pub fn is_relation_connected(&self) -> bool {
        // Union-find over relation nodes, merged through shared variables.
        let mut rels: Vec<RelId> = self.body.iter().map(|a| a.rel).collect();
        rels.sort_unstable();
        rels.dedup();
        let n = rels.len();
        if n <= 1 {
            return true;
        }
        let idx_of = |r: RelId| rels.binary_search(&r).expect("relation present");
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        let mut var_home: HashMap<VarId, usize> = HashMap::new();
        for atom in &self.body {
            let i = idx_of(atom.rel);
            for v in atom.variables() {
                match var_home.entry(v) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (a, b) = (find(&mut parent, *e.get()), find(&mut parent, i));
                        parent[a] = b;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(i);
                    }
                }
            }
        }
        // Every relation must join the component of relation 0 — except
        // that relations with no variables at all can never connect, unless
        // they are the only relation.
        let root = find(&mut parent, 0);
        (1..n).all(|i| find(&mut parent, i) == root)
    }

    /// Atom-level connectivity: atoms are nodes, edges join atoms sharing a
    /// variable. Strictly stronger than [`Cq::is_connected`]; exposed for
    /// analyses that need the finer notion.
    pub fn is_atom_connected(&self) -> bool {
        let n = self.body.len();
        if n <= 1 {
            return true;
        }
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        let mut var_home: HashMap<VarId, usize> = HashMap::new();
        for (i, atom) in self.body.iter().enumerate() {
            for v in atom.variables() {
                match var_home.entry(v) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (a, b) = (find(&mut parent, *e.get()), find(&mut parent, i));
                        parent[a] = b;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(i);
                    }
                }
            }
        }
        let root = find(&mut parent, 0);
        (1..n).all(|i| find(&mut parent, i) == root)
    }

    /// Whether the query has at least one variable (used by the paper's
    /// "trivial UCQ" exclusion, §4 orange cell).
    pub fn has_variable(&self) -> bool {
        self.body
            .iter()
            .flat_map(|a| a.terms.iter())
            .chain(self.head.iter())
            .any(|t| !t.is_const())
    }

    /// Renames all variables through `map` (used by canonicalization).
    pub fn rename_vars(&self, map: &HashMap<VarId, VarId>) -> Cq {
        let rn = |t: &Term| match t {
            Term::Var(v) => Term::Var(*map.get(v).unwrap_or(v)),
            c => c.clone(),
        };
        Cq {
            head_name: self.head_name.clone(),
            head: self.head.iter().map(rn).collect(),
            body: self
                .body
                .iter()
                .map(|a| Atom {
                    rel: a.rel,
                    terms: a.terms.iter().map(rn).collect(),
                })
                .collect(),
        }
    }

    /// Renders the query in datalog syntax against `schema`, e.g.
    /// `Q(v0) :- Person(v0, v1, v2), Hobbies(v0, 'Dance', v3)`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> CqDisplay<'a> {
        CqDisplay { cq: self, schema }
    }
}

/// Display adapter for [`Cq`].
pub struct CqDisplay<'a> {
    cq: &'a Cq,
    schema: &'a Schema,
}

impl fmt::Display for CqDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let term = |t: &Term| match t {
            Term::Var(v) => format!("v{}", v.0),
            Term::Const(c) => c.to_string(),
        };
        write!(f, "{}(", self.cq.head_name)?;
        write!(
            f,
            "{}",
            self.cq.head.iter().map(term).collect::<Vec<_>>().join(", ")
        )?;
        write!(f, ") :- ")?;
        for (i, a) in self.cq.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}({})",
                self.schema.relation_name(a.rel),
                a.terms.iter().map(term).collect::<Vec<_>>().join(", ")
            )?;
        }
        Ok(())
    }
}

/// A union of conjunctive queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ucq {
    /// The disjuncts. All must share the same head arity.
    pub disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Wraps a single CQ.
    pub fn single(cq: Cq) -> Self {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// Whether the UCQ is connected: the paper (§4, orange cell) calls a UCQ
    /// disconnected if it contains a disconnected CQ.
    pub fn is_connected(&self) -> bool {
        self.disjuncts.iter().all(Cq::is_connected)
    }

    /// Whether every disjunct has at least one variable (non-trivial, §4).
    pub fn is_nontrivial(&self) -> bool {
        self.disjuncts.iter().all(Cq::has_variable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }
    fn c(s: &str) -> Term {
        Term::Const(Value::parse(s))
    }

    fn atom(rel: u16, terms: Vec<Term>) -> Atom {
        Atom {
            rel: RelId(rel),
            terms,
        }
    }

    #[test]
    fn connectivity_via_shared_variables() {
        // R(x, 'a'), S(x): connected through x.
        let q = Cq::new(
            vec![v(0)],
            vec![atom(0, vec![v(0), c("a")]), atom(1, vec![v(0)])],
        );
        assert!(q.is_connected());
        // R(x, 'a'), S(y): disconnected (shared constant does not connect).
        let q2 = Cq::new(
            vec![v(0)],
            vec![atom(0, vec![v(0), c("a")]), atom(1, vec![v(1)])],
        );
        assert!(!q2.is_connected());
    }

    #[test]
    fn single_atom_is_connected() {
        let q = Cq::new(vec![v(0)], vec![atom(0, vec![v(0)])]);
        assert!(q.is_connected());
        assert_eq!(q.num_joins(), 0);
    }

    #[test]
    fn safety_requires_head_vars_in_body() {
        let safe = Cq::new(vec![v(0)], vec![atom(0, vec![v(0)])]);
        let unsafe_q = Cq::new(vec![v(9)], vec![atom(0, vec![v(0)])]);
        assert!(safe.is_safe());
        assert!(!unsafe_q.is_safe());
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let q = Cq::new(
            vec![v(5)],
            vec![atom(0, vec![v(2), v(5)]), atom(1, vec![v(1), v(2)])],
        );
        assert_eq!(q.variables(), vec![VarId(2), VarId(5), VarId(1)]);
    }

    #[test]
    fn has_variable_detects_ground_queries() {
        let ground = Cq::new(vec![c("1")], vec![atom(0, vec![c("1"), c("a")])]);
        assert!(!ground.has_variable());
        let nontrivial = Cq::new(vec![v(0)], vec![atom(0, vec![v(0), c("a")])]);
        assert!(nontrivial.has_variable());
        assert!(!Ucq::single(ground).is_nontrivial());
        assert!(Ucq::single(nontrivial).is_nontrivial());
    }

    #[test]
    fn rename_vars_applies_map() {
        let q = Cq::new(vec![v(0)], vec![atom(0, vec![v(0), v(1)])]);
        let map: HashMap<VarId, VarId> = [(VarId(0), VarId(7))].into_iter().collect();
        let r = q.rename_vars(&map);
        assert_eq!(r.head, vec![v(7)]);
        assert_eq!(r.body[0].terms, vec![v(7), v(1)]);
    }

    #[test]
    fn ucq_connectivity() {
        let conn = Cq::new(vec![v(0)], vec![atom(0, vec![v(0)])]);
        let disc = Cq::new(vec![v(0)], vec![atom(0, vec![v(0)]), atom(1, vec![v(1)])]);
        assert!(Ucq {
            disjuncts: vec![conn.clone()]
        }
        .is_connected());
        assert!(!Ucq {
            disjuncts: vec![conn, disc]
        }
        .is_connected());
    }
}
