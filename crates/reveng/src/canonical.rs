//! Canonical forms of conjunctive queries up to isomorphism.
//!
//! Two CQs are isomorphic iff they are equal after canonicalization: atoms
//! are sorted by an invariant key, residual ties are resolved by trying the
//! permutations of each tie group and keeping the lexicographically smallest
//! rendering, and variables are renumbered in first-occurrence order (head
//! first). Under `N[X]` semantics, query equivalence *is* isomorphism, so
//! canonical keys double as equivalence keys for frontier deduplication.

use provabs_relational::{Atom, Cq, Term, VarId};
use std::fmt::Write;

/// The index of `v` in `vars`, appending it when new: first-occurrence
/// numbering with a linear scan (queries have a few dozen variables at most).
fn var_index(vars: &mut Vec<VarId>, v: VarId) -> usize {
    vars.iter().position(|&x| x == v).unwrap_or_else(|| {
        vars.push(v);
        vars.len() - 1
    })
}

/// Appends the total rendering of `cq` to `out`, with variables replaced by
/// their first-occurrence index (head first, then atoms in `atom_order`).
/// Leaves that numbering in `vars`.
fn encode(cq: &Cq, atom_order: &[usize], vars: &mut Vec<VarId>, out: &mut String) {
    vars.clear();
    let mut push_term = |t: &Term, out: &mut String| {
        // Writing into a `String` cannot fail.
        let _ = match t {
            Term::Const(c) => write!(out, "c{c},"),
            Term::Var(v) => write!(out, "v{},", var_index(vars, *v)),
        };
    };
    out.push('H');
    for t in &cq.head {
        push_term(t, out);
    }
    for &i in atom_order {
        let a = &cq.body[i];
        let _ = write!(out, "A{}(", a.rel.0);
        for t in &a.terms {
            push_term(t, out);
        }
        out.push(')');
    }
}

/// Isomorphism-invariant keys of the atoms, used to pre-sort atoms before
/// the permutation search: relation, and per position either the constant
/// or a variable signature (number of occurrences of the variable in the
/// whole body and in the head). All keys share one buffer; atom `i`'s key is
/// `buf[ends[i - 1]..ends[i]]`.
struct AtomInvariants {
    buf: String,
    ends: Vec<usize>,
}

impl AtomInvariants {
    fn new(cq: &Cq) -> Self {
        // One counting pass: `counts[var_index(v)]` holds the body and head
        // occurrences of `v`.
        let mut vars: Vec<VarId> = Vec::new();
        let mut counts: Vec<[usize; 2]> = Vec::new();
        let body = cq.body.iter().flat_map(Atom::variables).map(|v| (v, 0));
        let head = cq.head.iter().filter_map(Term::as_var).map(|v| (v, 1));
        for (v, side) in body.chain(head) {
            let i = var_index(&mut vars, v);
            if i == counts.len() {
                counts.push([0, 0]);
            }
            counts[i][side] += 1;
        }
        let mut buf = String::new();
        let mut ends = Vec::with_capacity(cq.body.len());
        for a in &cq.body {
            let _ = write!(buf, "R{}(", a.rel.0);
            for t in &a.terms {
                let _ = match t {
                    Term::Const(c) => write!(buf, "c{c},"),
                    Term::Var(v) => {
                        let [body, head] = counts[var_index(&mut vars, *v)];
                        write!(buf, "v[o{body},h{head}],")
                    }
                };
            }
            buf.push(')');
            ends.push(buf.len());
        }
        Self { buf, ends }
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }
}

/// The search for the atom order with the lexicographically smallest
/// encoding: atoms sorted by invariant, every permutation tried within each
/// tie group (atoms with identical invariants).
struct OrderSearch<'a> {
    cq: &'a Cq,
    /// Tie groups as `[start, end)` ranges of the atom order.
    groups: Vec<(usize, usize)>,
    vars: Vec<VarId>,
    buf: String,
    best: String,
    /// The first order, in search order, that renders to `best`.
    best_order: Option<Vec<usize>>,
}

impl OrderSearch<'_> {
    fn visit(&mut self, order: &mut Vec<usize>, g: usize) {
        if g == self.groups.len() {
            self.buf.clear();
            encode(self.cq, order, &mut self.vars, &mut self.buf);
            if self.best_order.is_none() || self.buf < self.best {
                std::mem::swap(&mut self.buf, &mut self.best);
                self.best_order = Some(order.clone());
            }
            return;
        }
        let (s, e) = self.groups[g];
        if e - s <= 1 {
            self.visit(order, g + 1);
            return;
        }
        // Every permutation of the group, each extended by the later groups
        // from their sorted order; the group's sorted order is restored
        // afterwards (`permute_slice` leaves `idxs` as it found it).
        let mut idxs: Vec<usize> = order[s..e].to_vec();
        permute_slice(&mut idxs, 0, &mut |perm| {
            order[s..e].copy_from_slice(perm);
            self.visit(order, g + 1);
        });
        order[s..e].copy_from_slice(&idxs);
    }
}

fn permute_slice(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute_slice(v, k + 1, f);
        v.swap(k, i);
    }
}

/// The canonical key of `cq` and the atom order realizing it.
///
/// Complexity: product of factorials of atom tie-group sizes; tie groups are
/// atoms with identical invariant keys, which stay tiny for the paper's
/// workloads (worst case: TPC-H Q21's triple self-join → 3! permutations).
fn best_order(cq: &Cq) -> (String, Vec<usize>) {
    let n = cq.body.len();
    let inv = AtomInvariants::new(cq);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| inv.get(a).cmp(inv.get(b)).then(a.cmp(&b)));
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=n {
        if i == n || inv.get(order[i]) != inv.get(order[start]) {
            groups.push((start, i));
            start = i;
        }
    }
    let mut search = OrderSearch {
        cq,
        groups,
        vars: Vec::new(),
        buf: String::new(),
        best: String::new(),
        best_order: None,
    };
    search.visit(&mut order, 0);
    let best_order = search.best_order.unwrap_or(order);
    (search.best, best_order)
}

/// The canonical form of `cq`: its canonical key — a string equal for
/// exactly the CQs isomorphic to `cq` (same relations, same constant
/// placement, same variable-sharing pattern, same head) — and `cq` rewritten
/// with its atoms in canonical order and its variables renumbered `v0, v1,
/// ...` in first-occurrence order (head first). Both come from one search.
pub fn canonical_form(cq: &Cq) -> (String, Cq) {
    let (key, order) = best_order(cq);
    // First-occurrence numbering of the canonical order (what `encode`
    // rendered), then every variable renamed to its number.
    let mut vars: Vec<VarId> = Vec::new();
    let terms = cq
        .head
        .iter()
        .chain(order.iter().flat_map(|&i| &cq.body[i].terms));
    for v in terms.filter_map(Term::as_var) {
        var_index(&mut vars, v);
    }
    let rename = |t: &Term| match t {
        Term::Var(v) => {
            let i = vars.iter().position(|x| x == v).expect("numbered above");
            Term::Var(VarId(i as u32))
        }
        c => c.clone(),
    };
    let canon = Cq {
        head_name: cq.head_name.clone(),
        head: cq.head.iter().map(rename).collect(),
        body: order
            .iter()
            .map(|&i| Atom {
                rel: cq.body[i].rel,
                terms: cq.body[i].terms.iter().map(rename).collect(),
            })
            .collect(),
    };
    (key, canon)
}

/// The canonical key of `cq` (the first half of [`canonical_form`], without
/// building the rewritten query).
pub fn canonical_key(cq: &Cq) -> String {
    best_order(cq).0
}

/// Rewrites `cq` into its canonical form (the second half of
/// [`canonical_form`]).
pub fn canonical_cq(cq: &Cq) -> Cq {
    canonical_form(cq).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_relational::{parse_cq, Schema};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Person", &["pid", "name", "age"]);
        s.add_relation("Hobbies", &["pid", "hobby", "source"]);
        s.add_relation("Interests", &["pid", "interest", "source"]);
        s
    }

    #[test]
    fn isomorphic_queries_share_keys() {
        let s = schema();
        let q1 = parse_cq("Q(id) :- Person(id, n, a), Hobbies(id, 'Dance', w)", &s).unwrap();
        // Same query with renamed variables and reordered atoms.
        let q2 = parse_cq("Q(x) :- Hobbies(x, 'Dance', ww), Person(x, nn, aa)", &s).unwrap();
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
        assert_eq!(canonical_cq(&q1), canonical_cq(&q2));
    }

    #[test]
    fn different_constant_placement_distinguished() {
        let s = schema();
        let q1 = parse_cq("Q(id) :- Hobbies(id, 'Dance', w)", &s).unwrap();
        let q2 = parse_cq("Q(id) :- Hobbies(id, 'Trips', w)", &s).unwrap();
        let q3 = parse_cq("Q(id) :- Hobbies(id, h, w)", &s).unwrap();
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
        assert_ne!(canonical_key(&q1), canonical_key(&q3));
    }

    #[test]
    fn variable_sharing_pattern_distinguished() {
        let s = schema();
        // Shared source variable vs distinct sources.
        let q1 = parse_cq("Q(id) :- Hobbies(id, h, w), Interests(id, i, w)", &s).unwrap();
        let q2 = parse_cq("Q(id) :- Hobbies(id, h, w1), Interests(id, i, w2)", &s).unwrap();
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn self_join_ties_resolved() {
        let s = schema();
        // Two Hobbies atoms differing only in variable sharing with head.
        let q1 = parse_cq("Q(x) :- Hobbies(x, a, b), Hobbies(y, a, c)", &s).unwrap();
        let q2 = parse_cq("Q(x) :- Hobbies(y, a, c), Hobbies(x, a, b)", &s).unwrap();
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn canonical_cq_renumbers_head_first() {
        let s = schema();
        let q = parse_cq("Q(z) :- Person(z, y, x)", &s).unwrap();
        let c = canonical_cq(&q);
        assert_eq!(c.head, vec![provabs_relational::Term::Var(VarId(0))]);
    }
}
