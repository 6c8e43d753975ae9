//! Workload helpers: K-example construction and query scaling.

use provabs_relational::{
    Cq, Database, EvalLimits, Evaluator, Execution, KExample, PlanMode, Term,
};
use std::collections::HashSet;

/// A named workload query.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (e.g. `TPCH-Q3`).
    pub name: String,
    /// The conjunctive query.
    pub query: Cq,
}

/// Evaluates `query` on `db` and extracts a K-example with `rows` rows
/// (Def. 2.4: a subset of the results and their provenance). Returns `None`
/// when the query yields fewer rows.
///
/// Rows are chosen greedily so that their provenance monomials are pairwise
/// disjoint whenever possible. Rows sharing tuples (e.g. two orders of the
/// same customer) make the shared atom ground in every consistent query and
/// degenerate the privacy analysis; the paper's large datasets make such
/// collisions vanishingly rare, so diverse selection reproduces its regime.
///
/// Evaluation is capped: the paper's K-examples carry one monomial per
/// output, so only the first derivation of each output is needed.
pub fn kexample_for(db: &Database, query: &Cq, rows: usize) -> Option<KExample> {
    kexample_for_mode(db, query, rows, PlanMode::default())
}

/// [`kexample_for`] under an explicit [`PlanMode`]. The evaluation is
/// output-capped, and *which* outputs survive a cap depends on the atom
/// order — so harnesses that replay checked-in baselines built before the
/// cost-based planner pass [`PlanMode::Greedy`] to reproduce the same
/// K-examples bit for bit. Execution is pinned to [`Execution::Scalar`]
/// for the same reason (capped enumeration order differs per engine).
pub fn kexample_for_mode(
    db: &Database,
    query: &Cq,
    rows: usize,
    mode: PlanMode,
) -> Option<KExample> {
    if rows == 0 {
        return Some(KExample::default());
    }
    let (out, _) = Evaluator::new(db)
        .plan(mode)
        .execution(Execution::Scalar)
        .limits(EvalLimits {
            max_outputs: rows.saturating_mul(8).max(64),
            max_derivations: 2_000_000,
        })
        .eval_cq(query);
    let candidates = KExample::from_krelation(&out, usize::MAX);
    if candidates.len() < rows {
        return None;
    }
    // Greedy max-coverage: each picked row maximizes the number of
    // annotations not seen yet (queries with constant anchors, such as
    // IMDB-Q3's Kevin Bacon tuple, necessarily share those anchors across
    // all rows; everything else diversifies). Degenerate rows reusing only
    // known tuples are taken last.
    let mut remaining: Vec<&provabs_relational::KRow> = candidates.rows.iter().collect();
    let mut chosen: Vec<provabs_relational::KRow> = Vec::with_capacity(rows);
    let mut used: HashSet<provabs_semiring::AnnotId> = HashSet::new();
    while chosen.len() < rows {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let fresh = r.monomial.support().filter(|a| !used.contains(a)).count();
                (i, (fresh, r.monomial.support_size()))
            })
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
        let row = remaining.swap_remove(pos);
        used.extend(row.monomial.support());
        chosen.push(row.clone());
    }
    Some(KExample { rows: chosen })
}

/// Derives the join-scaling variants of Figure 16: connected atom prefixes
/// of `query` from `min_atoms` up to the full body. Atoms are reordered so
/// that every prefix is connected; the head keeps the original terms whose
/// variables survive in the prefix (or falls back to the first variable of
/// the first atom).
pub fn join_variants(query: &Cq, min_atoms: usize) -> Vec<Cq> {
    let n = query.body.len();
    if n < min_atoms {
        return Vec::new();
    }
    // Greedy connected ordering starting from an atom containing a head
    // variable.
    let head_vars: HashSet<_> = query.head.iter().filter_map(Term::as_var).collect();
    let start = (0..n)
        .find(|&i| query.body[i].variables().any(|v| head_vars.contains(&v)))
        .unwrap_or(0);
    let mut order = vec![start];
    let mut used = vec![false; n];
    used[start] = true;
    while order.len() < n {
        let connected_vars: HashSet<_> = order
            .iter()
            .flat_map(|&i| query.body[i].variables())
            .collect();
        let next = (0..n)
            .filter(|&i| !used[i])
            .find(|&i| {
                query.body[i]
                    .variables()
                    .any(|v| connected_vars.contains(&v))
            })
            .or_else(|| (0..n).find(|&i| !used[i]))
            .unwrap();
        used[next] = true;
        order.push(next);
    }
    (min_atoms..=n)
        .map(|k| {
            let body: Vec<_> = order[..k].iter().map(|&i| query.body[i].clone()).collect();
            let body_vars: HashSet<_> = body.iter().flat_map(|a| a.variables()).collect();
            let mut head: Vec<Term> = query
                .head
                .iter()
                .filter(|t| match t {
                    Term::Var(v) => body_vars.contains(v),
                    Term::Const(_) => true,
                })
                .cloned()
                .collect();
            if head.is_empty() {
                let first_var = body
                    .iter()
                    .flat_map(|a| a.variables())
                    .next()
                    .expect("query has variables");
                head.push(Term::Var(first_var));
            }
            Cq::new(head, body)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{generate, tpch_queries, TpchConfig};

    #[test]
    fn kexample_extraction_for_all_tpch_queries() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 3000,
            seed: 7,
        });
        for w in tpch_queries(db.schema()) {
            let ex = kexample_for(&db, &w.query, 2)
                .unwrap_or_else(|| panic!("{} yields no 2-row K-example", w.name));
            assert_eq!(ex.len(), 2);
            assert!(
                ex.resolve(&db).is_some(),
                "{}: unresolved annotations",
                w.name
            );
            // Row degree equals the atom count.
            for row in &ex.rows {
                assert_eq!(row.monomial.degree() as usize, w.query.body.len());
            }
        }
    }

    #[test]
    fn insufficient_rows_returns_none() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 100,
            seed: 7,
        });
        let q = tpch_queries(db.schema()).remove(0).query;
        assert!(kexample_for(&db, &q, 1_000_000).is_none());
    }

    #[test]
    fn join_variants_stay_connected() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 100,
            seed: 7,
        });
        for w in tpch_queries(db.schema()) {
            if w.query.body.len() < 4 {
                continue;
            }
            let variants = join_variants(&w.query, 4);
            assert_eq!(variants.len(), w.query.body.len() - 3, "{}", w.name);
            for v in &variants {
                assert!(v.is_connected(), "{}: disconnected variant", w.name);
                assert!(v.is_safe(), "{}: unsafe variant", w.name);
            }
            // The last variant is the full query body.
            assert_eq!(variants.last().unwrap().body.len(), w.query.body.len());
        }
    }

    #[test]
    fn variants_produce_kexamples() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 2000,
            seed: 9,
        });
        let q21 = tpch_queries(db.schema())
            .into_iter()
            .find(|w| w.name == "TPCH-Q21")
            .unwrap();
        for v in join_variants(&q21.query, 4) {
            assert!(
                kexample_for(&db, &v, 2).is_some(),
                "variant with {} atoms yields no K-example",
                v.body.len()
            );
        }
    }
}
