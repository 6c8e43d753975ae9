//! A deliberately naive reference evaluator over **owned** values.
//!
//! The single production join engine (behind [`Evaluator`](crate::Evaluator))
//! traffics in dictionary ids end-to-end. This module keeps a
//! structurally different oracle around for correctness witnesses: it
//! decodes every relation into owned [`Tuple`]s up front, joins by scanning
//! atoms **in textual order** with no indexes, no plan, no interning, and
//! builds provenance with owned [`Polynomial`] arithmetic. Property tests
//! (`tests/storage_prop.rs`) and the `bench::storage` comparison harness
//! assert the engine bit-for-bit equal to it.
//!
//! It is an oracle, not an engine: complexity is the full product of the
//! candidate scans, so call it on small databases only.

use crate::{Cq, Database, KRelation, Term, Tuple, Ucq, Value, VarId};
use provabs_semiring::{AnnotId, Monomial, Polynomial};
use std::collections::HashMap;

/// Evaluates `q` by naive backtracking scans over decoded owned tuples.
pub fn oracle_eval_cq(db: &Database, q: &Cq) -> KRelation {
    let mut out = KRelation::default();
    if q.body.is_empty() {
        return out;
    }
    // Decode the touched relations once (the whole point: this path pays
    // the owned-value costs the columnar engine avoids).
    let mut decoded: HashMap<u16, (Vec<Tuple>, Vec<AnnotId>)> = HashMap::new();
    for atom in &q.body {
        decoded
            .entry(atom.rel.0)
            .or_insert_with(|| (db.tuples(atom.rel), db.tuple_annots(atom.rel).to_vec()));
    }
    let mut bindings: HashMap<VarId, Value> = HashMap::new();
    let mut image: Vec<AnnotId> = Vec::new();
    solve(q, &decoded, 0, &mut bindings, &mut image, &mut out);
    out
}

/// Evaluates a UCQ as the sum of its disjuncts' oracle evaluations.
pub fn oracle_eval_ucq(db: &Database, u: &Ucq) -> KRelation {
    let mut out = KRelation::default();
    for d in &u.disjuncts {
        for (t, p) in oracle_eval_cq(db, d).iter() {
            out.add(t.clone(), p.clone());
        }
    }
    out
}

fn solve(
    q: &Cq,
    decoded: &HashMap<u16, (Vec<Tuple>, Vec<AnnotId>)>,
    depth: usize,
    bindings: &mut HashMap<VarId, Value>,
    image: &mut Vec<AnnotId>,
    out: &mut KRelation,
) {
    if depth == q.body.len() {
        let output: Tuple = q
            .head
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => bindings[v].clone(),
            })
            .collect();
        out.add(
            output,
            Polynomial::from_terms([(Monomial::from_annots(image.iter().copied()), 1)]),
        );
        return;
    }
    let atom = &q.body[depth];
    let (tuples, annots) = &decoded[&atom.rel.0];
    'rows: for (row, tuple) in tuples.iter().enumerate() {
        let mut newly_bound: Vec<VarId> = Vec::new();
        for (col, term) in atom.terms.iter().enumerate() {
            let matched = match term {
                Term::Const(c) => &tuple[col] == c,
                Term::Var(v) => match bindings.get(v) {
                    Some(bound) => bound == &tuple[col],
                    None => {
                        bindings.insert(*v, tuple[col].clone());
                        newly_bound.push(*v);
                        true
                    }
                },
            };
            if !matched {
                for v in newly_bound.drain(..) {
                    bindings.remove(&v);
                }
                continue 'rows;
            }
        }
        image.push(annots[row]);
        solve(q, decoded, depth + 1, bindings, image, out);
        image.pop();
        for v in newly_bound {
            bindings.remove(&v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_cq, parse_ucq, Evaluator, Execution};

    fn db() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        let s = db.add_relation("S", &["b", "c"]);
        db.insert_str(r, "r1", &["1", "10"]);
        db.insert_str(r, "r2", &["2", "10"]);
        db.insert_str(r, "r3", &["1", "1"]);
        db.insert_str(s, "s1", &["10", "100"]);
        db.insert_str(s, "s2", &["10", "200"]);
        db.build_indexes();
        db
    }

    #[test]
    fn oracle_matches_engine_on_joins_and_self_joins() {
        let db = db();
        for exec in [Execution::Scalar, Execution::default()] {
            let eval = Evaluator::new(&db).execution(exec);
            for text in [
                "Q(a, c) :- R(a, b), S(b, c)",
                "Q(a) :- R(a, a)",
                "Q(a, c) :- R(a, b), R(b, c)",
                "Q(x) :- R(x, y), S(y, 100)",
            ] {
                let q = parse_cq(text, db.schema()).unwrap();
                assert_eq!(oracle_eval_cq(&db, &q), eval.eval_cq(&q).0, "{text}");
            }
            let u = parse_ucq("Q(a) :- R(a, b); Q(b) :- S(b, c)", db.schema()).unwrap();
            assert_eq!(oracle_eval_ucq(&db, &u), eval.eval_ucq(&u).0);
        }
    }
}
