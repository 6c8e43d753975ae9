//! Adversarially-ordered workload variants for the query planner.
//!
//! The cost-based planner (PR 5) exists because a written atom order can be
//! orders of magnitude worse than a statistics-guided one. This module
//! manufactures that situation deterministically: [`adversarial_order`]
//! rewrites a query so its body runs **pessimally** under
//! [`PlanMode::WrittenOrder`](provabs_relational::PlanMode) — the largest,
//! least-selective relations first, constant-bearing (most selective) atoms
//! last — while remaining the *same query* (identical head, identical atom
//! multiset, therefore identical output K-relation). The `bench::planner`
//! harness and the `BENCH_5.json` perf gate evaluate these variants twice,
//! planned versus written order, and demand the planner win by ≥ 2×.

use crate::workload::Workload;
use provabs_relational::{Cq, Database};

/// Rewrites `q` with a pessimal written order. Three ingredients, applied
/// greedily:
///
/// 1. open with the largest constant-free relation (an unfiltered scan);
/// 2. follow with a *disconnected* atom when the join graph offers one —
///    written-order execution then pays a full cross product before any
///    join variable binds (one such break is planted; chaining more makes
///    the suite quadratically slower without sharpening the comparison);
/// 3. push constant-bearing (most selective) atoms as late as possible,
///    and among equals prefer the larger relation earlier.
///
/// Head and atoms are unchanged, so the rewritten query is semantically
/// identical — only its written order degrades.
///
/// Deterministic: depends only on database content (relation sizes) and the
/// query (ties keep written order).
pub fn adversarial_order(db: &Database, q: &Cq) -> Cq {
    let n = q.body.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut bound: std::collections::BTreeSet<provabs_relational::VarId> =
        std::collections::BTreeSet::new();
    let mut crossed = false;
    while !remaining.is_empty() {
        let disconnected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| !q.body[i].variables().any(|v| bound.contains(&v)))
            .collect();
        // The first pick scans cold either way; afterwards, plant one
        // cross-product break when possible.
        let pool = if !order.is_empty() && !crossed && !disconnected.is_empty() {
            crossed = true;
            disconnected
        } else {
            remaining.clone()
        };
        let &worst = pool
            .iter()
            .min_by_key(|&&i| {
                let atom = &q.body[i];
                let consts = atom.terms.iter().filter(|t| t.is_const()).count();
                (consts, std::cmp::Reverse(db.relation_len(atom.rel)), i)
            })
            .expect("pool is non-empty");
        remaining.retain(|&i| i != worst);
        bound.extend(q.body[worst].variables());
        order.push(worst);
    }
    Cq {
        head_name: q.head_name.clone(),
        head: q.head.clone(),
        body: order.into_iter().map(|i| q.body[i].clone()).collect(),
    }
}

/// Applies [`adversarial_order`] to every workload, suffixing names with
/// `/adv`.
pub fn adversarial_workloads(db: &Database, workloads: &[Workload]) -> Vec<Workload> {
    workloads
        .iter()
        .map(|w| Workload {
            name: format!("{}/adv", w.name),
            query: adversarial_order(db, &w.query),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{generate, tpch_queries, TpchConfig};
    use provabs_relational::{plan_cq, Evaluator, KRelation, PlanMode};

    fn eval_cq(db: &Database, q: &Cq) -> KRelation {
        Evaluator::new(db).eval_cq(q).0
    }

    #[test]
    fn adversarial_variants_keep_the_output() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 300,
            seed: 3,
        });
        for w in tpch_queries(db.schema()) {
            let adv = adversarial_order(&db, &w.query);
            assert_eq!(adv.head, w.query.head, "{}", w.name);
            assert_eq!(adv.body.len(), w.query.body.len(), "{}", w.name);
            assert_eq!(eval_cq(&db, &adv), eval_cq(&db, &w.query), "{}", w.name);
        }
    }

    #[test]
    fn adversarial_order_front_loads_the_big_scans() {
        let (db, rels) = generate(&TpchConfig {
            lineitem_rows: 300,
            seed: 3,
        });
        let q3 = tpch_queries(db.schema())
            .into_iter()
            .find(|w| w.name == "TPCH-Q3")
            .unwrap()
            .query;
        let adv = adversarial_order(&db, &q3);
        // Lineitem (largest, no constants) leads, and the second atom is
        // disconnected from it (Customer shares no variable with
        // Lineitem): written-order execution pays a cross product.
        assert_eq!(adv.body[0].rel, rels.lineitem);
        let first_vars: Vec<_> = adv.body[0].variables().collect();
        assert!(!adv.body[1].variables().any(|v| first_vars.contains(&v)));
        // And the planner undoes the damage: its first atom is not the
        // Lineitem scan, and its prefix stays connected.
        let plan = plan_cq(&db, &adv, PlanMode::CostBased, None);
        assert_ne!(adv.body[plan.atom_order()[0]].rel, rels.lineitem);
        assert!(plan.steps.iter().all(|s| s.connected));
    }

    #[test]
    fn names_are_suffixed() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 100,
            seed: 1,
        });
        let advs = adversarial_workloads(&db, &tpch_queries(db.schema()));
        assert!(advs.iter().all(|w| w.name.ends_with("/adv")));
    }
}
