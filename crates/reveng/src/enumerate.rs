//! Exhaustive enumeration of *all* consistent queries (small inputs only).
//!
//! The frontier of [`crate::find_consistent_queries`] contains only the
//! most-specific query per alignment. For reproducing the paper's Table 3
//! ("a total of 14 consistent queries ... 3 connected ... 2 CIM") we also
//! need every generalization that is still consistent. For a fixed
//! alignment, the consistent queries are exactly the assignments of
//!
//! * a constant to a body position whose aligned value vector is uniform, or
//! * a variable, where two positions may share a variable iff their vectors
//!   are equal,
//!
//! together with a head assignment mapping each output column to its
//! constant (uniform columns) or to one of the variable blocks carrying the
//! column's vector. This module enumerates all of them, deduplicated up to
//! isomorphism, with a hard cap.

use crate::alignment::for_each_alignment;
use crate::canonical::canonical_form;
use crate::most_specific::RevOptions;
use provabs_relational::{Atom, ConcreteRow, Cq, Term, Value, VarId};
use std::collections::{BTreeMap, HashMap};

/// Enumerates all consistent queries w.r.t. the concrete rows, up to
/// isomorphism, capped at `max_queries` (a cap hit makes the result a
/// lower approximation). Only supports exponent-keeping semirings
/// (`N[X]`/`B[X]`); the alignment cap comes from `opts`.
pub fn enumerate_consistent_queries(
    rows: &[ConcreteRow<'_>],
    opts: &RevOptions,
    max_queries: usize,
) -> Vec<Cq> {
    let mut out: BTreeMap<String, Cq> = BTreeMap::new();
    if rows.is_empty()
        || rows
            .iter()
            .any(|r| r.output.arity() != rows[0].output.arity())
    {
        return Vec::new();
    }
    for_each_alignment(rows, opts.max_alignments, |per_row| {
        if out.len() >= max_queries {
            return;
        }
        enumerate_alignment(rows, per_row, max_queries, &mut out);
    });
    out.into_values().collect()
}

/// A position of the query body: (slot, column).
type Pos = (usize, usize);

fn enumerate_alignment(
    rows: &[ConcreteRow<'_>],
    per_row: &[Vec<usize>],
    max_queries: usize,
    out: &mut BTreeMap<String, Cq>,
) {
    let n_rows = rows.len();
    // Group body positions by aligned value vector.
    let mut classes: HashMap<Vec<Value>, Vec<Pos>> = HashMap::new();
    for (slot, _) in rows[0].occurrences.iter().enumerate() {
        for col in 0..rows[0].arity(slot) {
            let vec: Vec<Value> = (0..n_rows)
                .map(|j| rows[j].value(per_row[j][slot], col).clone())
                .collect();
            classes.entry(vec).or_default().push((slot, col));
        }
    }
    let class_list: Vec<(Vec<Value>, Vec<Pos>, bool)> = {
        let mut v: Vec<_> = classes
            .into_iter()
            .map(|(vec, poss)| {
                let uniform = vec.iter().all(|x| x == &vec[0]);
                (vec, poss, uniform)
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    // Head vectors.
    let head_vecs: Vec<Vec<Value>> = (0..rows[0].output.arity())
        .map(|col| (0..n_rows).map(|j| rows[j].output[col].clone()).collect())
        .collect();
    // Recursive choice per class: a "grouping" assigns each position either
    // Const (uniform classes only) or a block id; blocks are non-crossing
    // set-partition blocks within the class.
    let mut assignment: HashMap<Pos, Term> = HashMap::new();
    let mut blocks_by_vec: HashMap<Vec<Value>, Vec<VarId>> = HashMap::new();
    let mut next_var = 0u32;
    choose_class(
        rows,
        &class_list,
        0,
        &head_vecs,
        &mut assignment,
        &mut blocks_by_vec,
        &mut next_var,
        max_queries,
        out,
    );
}

#[allow(clippy::too_many_arguments)]
fn choose_class(
    rows: &[ConcreteRow<'_>],
    classes: &[(Vec<Value>, Vec<Pos>, bool)],
    ci: usize,
    head_vecs: &[Vec<Value>],
    assignment: &mut HashMap<Pos, Term>,
    blocks_by_vec: &mut HashMap<Vec<Value>, Vec<VarId>>,
    next_var: &mut u32,
    max_queries: usize,
    out: &mut BTreeMap<String, Cq>,
) {
    if out.len() >= max_queries {
        return;
    }
    if ci == classes.len() {
        emit_heads(rows, head_vecs, assignment, blocks_by_vec, out, max_queries);
        return;
    }
    let (vec, positions, uniform) = &classes[ci];
    // Enumerate: subset of const positions (uniform only) + set partition of
    // the remaining positions.
    let n = positions.len();
    let const_masks: Vec<u32> = if *uniform {
        (0..(1u32 << n)).collect()
    } else {
        vec![0]
    };
    for mask in const_masks {
        let mut var_positions: Vec<Pos> = Vec::new();
        for (i, p) in positions.iter().enumerate() {
            if mask & (1 << i) != 0 {
                assignment.insert(*p, Term::Const(vec[0].clone()));
            } else {
                var_positions.push(*p);
            }
        }
        // All set partitions of var_positions.
        partitions(&var_positions, &mut |blocks: &[Vec<Pos>]| {
            let saved_next = *next_var;
            let mut block_ids = Vec::with_capacity(blocks.len());
            for block in blocks {
                let var = VarId(*next_var);
                *next_var += 1;
                block_ids.push(var);
                for p in block {
                    assignment.insert(*p, Term::Var(var));
                }
            }
            blocks_by_vec.insert(vec.clone(), block_ids);
            choose_class(
                rows,
                classes,
                ci + 1,
                head_vecs,
                assignment,
                blocks_by_vec,
                next_var,
                max_queries,
                out,
            );
            blocks_by_vec.remove(vec);
            *next_var = saved_next;
        });
        for (i, p) in positions.iter().enumerate() {
            if mask & (1 << i) != 0 {
                assignment.remove(p);
            }
        }
    }
}

fn emit_heads(
    rows: &[ConcreteRow<'_>],
    head_vecs: &[Vec<Value>],
    assignment: &HashMap<Pos, Term>,
    blocks_by_vec: &HashMap<Vec<Value>, Vec<VarId>>,
    out: &mut BTreeMap<String, Cq>,
    max_queries: usize,
) {
    // Per head column, the candidate terms.
    let mut options: Vec<Vec<Term>> = Vec::with_capacity(head_vecs.len());
    for vec in head_vecs {
        let uniform = vec.iter().all(|x| x == &vec[0]);
        let mut opts: Vec<Term> = Vec::new();
        if uniform {
            opts.push(Term::Const(vec[0].clone()));
        }
        if let Some(blocks) = blocks_by_vec.get(vec) {
            opts.extend(blocks.iter().map(|v| Term::Var(*v)));
        }
        if opts.is_empty() {
            return; // head column unrealizable under this grouping
        }
        options.push(opts);
    }
    // Cartesian product over head choices.
    let mut head: Vec<Term> = options.iter().map(|o| o[0].clone()).collect();
    head_product(&options, 0, &mut head, &mut |h| {
        if out.len() >= max_queries {
            return;
        }
        let body: Vec<Atom> = (0..rows[0].occurrences.len())
            .map(|slot| Atom {
                rel: rows[0].rel(slot),
                terms: (0..rows[0].arity(slot))
                    .map(|col| assignment[&(slot, col)].clone())
                    .collect(),
            })
            .collect();
        let (key, q) = canonical_form(&Cq::new(h.to_vec(), body));
        out.entry(key).or_insert(q);
    });
}

fn head_product(
    options: &[Vec<Term>],
    i: usize,
    head: &mut Vec<Term>,
    f: &mut impl FnMut(&[Term]),
) {
    if i == options.len() {
        f(head);
        return;
    }
    for opt in &options[i] {
        head[i] = opt.clone();
        head_product(options, i + 1, head, f);
    }
}

/// Enumerates all set partitions of `items`, calling `f` with each list of
/// blocks. Uses the standard restricted-growth recursion.
fn partitions<T: Clone>(items: &[T], f: &mut impl FnMut(&[Vec<T>])) {
    let mut blocks: Vec<Vec<T>> = Vec::new();
    partition_rec(items, 0, &mut blocks, f);
}

fn partition_rec<T: Clone>(
    items: &[T],
    i: usize,
    blocks: &mut Vec<Vec<T>>,
    f: &mut impl FnMut(&[Vec<T>]),
) {
    if i == items.len() {
        f(blocks);
        return;
    }
    for b in 0..blocks.len() {
        blocks[b].push(items[i].clone());
        partition_rec(items, i + 1, blocks, f);
        blocks[b].pop();
    }
    blocks.push(vec![items[i].clone()]);
    partition_rec(items, i + 1, blocks, f);
    blocks.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_key;
    use crate::cim::cim_queries;
    use crate::containment::ContainmentMode;
    use provabs_relational::{parse_cq, Database, KExample, Tuple};
    use provabs_semiring::Monomial;

    fn tiny_db() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        db.insert_str(r, "t1", &["1", "7"]);
        db.insert_str(r, "t2", &["2", "7"]);
        db.build_indexes();
        db
    }

    fn rows<'db>(db: &'db Database, pairs: &[(&str, &[&str])]) -> Vec<ConcreteRow<'db>> {
        KExample::new(pairs.iter().map(|(o, annots)| {
            (
                Tuple::parse(&[o]),
                Monomial::from_annots(annots.iter().map(|a| db.annotations().get(a).unwrap())),
            )
        }))
        .resolve(db)
        .unwrap()
    }

    #[test]
    fn enumerates_generalization_lattice() {
        let db = tiny_db();
        // Rows (1, t1), (2, t2): t1=(1,7), t2=(2,7).
        // Position (0,0) has vector (1,2) → must be a variable = head.
        // Position (0,1) has vector (7,7) → 'const 7' or a fresh variable.
        // Queries: Q(x) :- R(x, 7) and Q(x) :- R(x, y). Exactly 2.
        let rs = rows(&db, &[("1", &["t1"]), ("2", &["t2"])]);
        let all = enumerate_consistent_queries(&rs, &RevOptions::default(), 1000);
        assert_eq!(all.len(), 2);
        let schema = db.schema();
        let q_const = parse_cq("Q(x) :- R(x, 7)", schema).unwrap();
        let q_var = parse_cq("Q(x) :- R(x, y)", schema).unwrap();
        let keys: Vec<String> = all.iter().map(canonical_key).collect();
        assert!(keys.contains(&canonical_key(&q_const)));
        assert!(keys.contains(&canonical_key(&q_var)));
        // The CIM filter keeps only the specific one.
        let cim = cim_queries(&all, ContainmentMode::Bijective);
        assert_eq!(cim.len(), 1);
        assert_eq!(canonical_key(&cim[0]), canonical_key(&q_const));
    }

    #[test]
    fn shared_vector_positions_can_split() {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        db.insert_str(r, "t1", &["1", "1"]);
        db.insert_str(r, "t2", &["2", "2"]);
        db.build_indexes();
        // Rows (1, t1), (2, t2): both positions have vector (1,2).
        // Consistent queries: Q(x) :- R(x, x) [shared block], and the two
        // splits Q(x) :- R(x, y) and Q(x) :- R(y, x) (the head can take
        // either block).
        let rs = rows(&db, &[("1", &["t1"]), ("2", &["t2"])]);
        let all = enumerate_consistent_queries(&rs, &RevOptions::default(), 1000);
        assert_eq!(all.len(), 3);
        for text in ["Q(x) :- R(x, x)", "Q(x) :- R(x, y)", "Q(x) :- R(y, x)"] {
            let expect = canonical_key(&parse_cq(text, db.schema()).unwrap());
            assert!(
                all.iter().any(|q| canonical_key(q) == expect),
                "missing {text}"
            );
        }
    }

    #[test]
    fn frontier_is_subset_of_enumeration() {
        let db = tiny_db();
        let rs = rows(&db, &[("1", &["t1"]), ("2", &["t2"])]);
        let frontier = crate::find_consistent_queries(&rs, &RevOptions::default());
        let all = enumerate_consistent_queries(&rs, &RevOptions::default(), 1000);
        let all_keys: Vec<String> = all.iter().map(canonical_key).collect();
        for (key, _) in &frontier.queries {
            assert!(all_keys.contains(key));
        }
    }

    #[test]
    fn cap_limits_output() {
        let db = tiny_db();
        let rs = rows(&db, &[("1", &["t1"]), ("2", &["t2"])]);
        let capped = enumerate_consistent_queries(&rs, &RevOptions::default(), 1);
        assert_eq!(capped.len(), 1);
    }
}
