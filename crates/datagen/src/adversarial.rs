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
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Shape of a [`correlated_skew`] instance. The defaults are tuned so the
/// static cost-based plan is *confidently wrong*: every per-relation
/// statistic the planner reads (relation length, per-column distinct
/// counts) points at the join order that explodes, and only observed
/// cardinalities reveal the cheap one.
#[derive(Debug, Clone)]
pub struct CorrelatedSkewConfig {
    /// Hot keys in `Anchor` (the driving scan).
    pub anchor_keys: usize,
    /// `Bloat` rows per anchor key — the mis-estimated fan-out that trips
    /// the re-plan trigger at depth 1.
    pub bloat_per_key: usize,
    /// Singleton cold keys in `Bloat` that drag its *mean* posting length
    /// down to ~2, hiding the hot fan-out from planted statistics.
    pub bloat_cold: usize,
    /// `Wide` rows per anchor key: the atom that looks selective
    /// statically (mean ≈ 2 rows/key) but yields this many rows on every
    /// key `Anchor` actually drives.
    pub wide_per_key: usize,
    /// Singleton cold keys in `Wide` (same statistical camouflage).
    pub wide_cold: usize,
    /// Non-anchor keys in `Narrow`, each carrying [`narrow_per_key`]
    /// rows — they make `Narrow` look *worse* than `Wide` statically
    /// (mean ≈ 6 rows/key) although it is nearly empty on anchor keys.
    ///
    /// [`narrow_per_key`]: CorrelatedSkewConfig::narrow_per_key
    pub narrow_keys: usize,
    /// Rows per non-anchor `Narrow` key.
    pub narrow_per_key: usize,
    /// Anchor keys (chosen by `seed`) that get exactly one `Narrow` row,
    /// so the join output is small but non-empty.
    pub narrow_hits: usize,
    /// RNG seed; picks which anchor keys are `Narrow` hits.
    pub seed: u64,
}

impl Default for CorrelatedSkewConfig {
    fn default() -> Self {
        Self {
            anchor_keys: 32,
            bloat_per_key: 32,
            bloat_cold: 1024,
            wide_per_key: 64,
            wide_cold: 2048,
            narrow_keys: 512,
            narrow_per_key: 6,
            narrow_hits: 2,
            seed: 9,
        }
    }
}

/// Builds a **correlated-skew** database the planted statistics cannot
/// see, plus the 4-atom query that exposes it:
///
/// ```text
/// Q(x) :- Anchor(x), Bloat(x, b), Wide(x, w), Narrow(x, n)
/// ```
///
/// Column-independent statistics say `Wide` (mean ≈ 2 rows per key) beats
/// `Narrow` (mean ≈ 6), so the static cost-based order is
/// `Anchor, Bloat, Wide, Narrow`. But `Wide`'s cheap mean comes from cold
/// singleton keys `Anchor` never produces — on anchor keys it fans out
/// [`wide_per_key`](CorrelatedSkewConfig::wide_per_key)×, while `Narrow`
/// is almost empty there. `Bloat` has the same camouflage, so its real
/// fan-out trips the adaptive trigger at depth 1; the restart floors
/// `Bloat`'s estimate at its observed cardinality, `Wide` then trips the
/// trigger in turn, and the final attempt runs `Narrow` ahead of both,
/// collapsing the work.
///
/// Deterministic for a fixed config (the RNG only picks narrow-hit keys).
pub fn correlated_skew(cfg: &CorrelatedSkewConfig) -> (Database, Workload) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();
    let anchor = db.add_relation("Anchor", &["x"]);
    let bloat = db.add_relation("Bloat", &["x", "b"]);
    let wide = db.add_relation("Wide", &["x", "w"]);
    let narrow = db.add_relation("Narrow", &["x", "n"]);

    for k in 0..cfg.anchor_keys {
        db.insert_str(anchor, &format!("a{k}"), &[&k.to_string()]);
        for b in 0..cfg.bloat_per_key {
            db.insert_str(
                bloat,
                &format!("b{k}_{b}"),
                &[&k.to_string(), &b.to_string()],
            );
        }
        for w in 0..cfg.wide_per_key {
            db.insert_str(
                wide,
                &format!("w{k}_{w}"),
                &[&k.to_string(), &w.to_string()],
            );
        }
    }
    // Cold singleton keys: disjoint from anchor keys (offset namespaces),
    // one row each, dragging the mean posting length toward 1.
    for i in 0..cfg.bloat_cold {
        let key = 10_000 + i;
        db.insert_str(bloat, &format!("bc{i}"), &[&key.to_string(), "0"]);
    }
    for i in 0..cfg.wide_cold {
        let key = 20_000 + i;
        db.insert_str(wide, &format!("wc{i}"), &[&key.to_string(), "0"]);
    }
    // Narrow: heavy on keys Anchor never drives...
    for i in 0..cfg.narrow_keys {
        let key = 30_000 + i;
        for n in 0..cfg.narrow_per_key {
            db.insert_str(
                narrow,
                &format!("nk{i}_{n}"),
                &[&key.to_string(), &n.to_string()],
            );
        }
    }
    // ...and nearly empty on anchor keys: `narrow_hits` seeded picks, one
    // row each, so the join output is small but non-empty.
    let mut hits = std::collections::BTreeSet::new();
    while hits.len() < cfg.narrow_hits.min(cfg.anchor_keys) {
        hits.insert(rng.random_range(0..cfg.anchor_keys));
    }
    for (j, k) in hits.into_iter().enumerate() {
        db.insert_str(narrow, &format!("nh{j}"), &[&k.to_string(), "999"]);
    }
    db.build_indexes();

    let query = provabs_relational::parse_cq(
        "Q(x) :- Anchor(x), Bloat(x, b), Wide(x, w), Narrow(x, n)",
        db.schema(),
    )
    .expect("correlated-skew query parses against its own schema");
    let workload = Workload {
        name: format!("corr-skew/s{}", cfg.seed),
        query,
    };
    (db, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{generate, tpch_queries, TpchConfig};
    use provabs_relational::{plan_cq, Evaluator, Execution, KRelation, PlanMode};

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
    fn correlated_skew_fools_the_static_planner() {
        // The whole point of the fixture: every statistic the planner
        // reads says Wide is cheaper than Narrow, so the static plan runs
        // Anchor, Bloat, Wide, Narrow — exactly the order that explodes.
        let (db, w) = correlated_skew(&CorrelatedSkewConfig::default());
        let plan = plan_cq(&db, &w.query, PlanMode::CostBased, None);
        assert_eq!(
            plan.atom_order(),
            vec![0, 1, 2, 3],
            "static plan must follow the planted (wrong) statistics"
        );
    }

    #[test]
    fn correlated_skew_rewards_adaptivity() {
        let (db, w) = correlated_skew(&CorrelatedSkewConfig::default());
        for exec in [Execution::Scalar, Execution::default()] {
            let eval = || Evaluator::new(&db).execution(exec);
            let (static_rows, static_work) = eval().eval_cq(&w.query);
            let (adaptive_rows, adaptive_work) = eval().adaptive(2.0).eval_cq(&w.query);
            assert_eq!(
                adaptive_rows, static_rows,
                "{exec:?}: adaptivity must not change answers"
            );
            assert!(
                !static_rows.is_empty(),
                "narrow hits keep the output non-empty"
            );
            assert!(adaptive_work.replan.replans_triggered >= 1, "{exec:?}");
            assert!(
                adaptive_work.rows_examined * 2 <= static_work.rows_examined,
                "{exec:?}: adaptive {} vs static {} rows examined",
                adaptive_work.rows_examined,
                static_work.rows_examined
            );
        }
    }

    #[test]
    fn correlated_skew_is_deterministic_per_seed() {
        let cfg = CorrelatedSkewConfig::default();
        let (db1, w1) = correlated_skew(&cfg);
        let (db2, w2) = correlated_skew(&cfg);
        assert_eq!(w1.name, w2.name);
        assert_eq!(eval_cq(&db1, &w1.query), eval_cq(&db2, &w2.query));
        let (db3, w3) = correlated_skew(&CorrelatedSkewConfig { seed: 17, ..cfg });
        assert_eq!(db1.len(), db3.len(), "seed moves hits, not sizes");
        assert_eq!(w3.name, "corr-skew/s17");
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
