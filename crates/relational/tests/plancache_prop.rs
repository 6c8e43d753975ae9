//! Property tests pinning the epoch-keyed [`PlanCache`] down: for random
//! mixed int/string databases, random CQs and random delta streams, a
//! cache-bound evaluation must be bit-for-bit equal — tuples *and*
//! provenance polynomials — to the cold path and to the structurally
//! independent naive oracle, under every [`PlanMode`]. After a churn
//! stream with publication fences, the cache-hit path must replay the cold
//! path exactly, answers and work counters alike.
//!
//! Each proptest case draws one seed; everything else derives from it
//! through the deterministic `TestRng`, so failures reproduce exactly.

use proptest::prelude::*;
use proptest::TestRng;
use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::{
    Atom, Cq, Database, Delta, Evaluator, PlanCache, PlanMode, RelId, SessionRegistry, Term, Tuple,
    Value, VarId,
};

const MODES: [PlanMode; 3] = [
    PlanMode::CostBased,
    PlanMode::Greedy,
    PlanMode::WrittenOrder,
];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

/// A mixed int/string domain, small enough that joins actually happen.
fn rand_value(rng: &mut TestRng) -> Value {
    match pick(rng, 7) {
        0..=3 => Value::Int(pick(rng, 4) as i64),
        4 => Value::str("a"),
        5 => Value::str("longer-string-value"),
        _ => Value::str("bb"),
    }
}

fn rand_tuple(rng: &mut TestRng, arity: usize) -> Tuple {
    (0..arity).map(|_| rand_value(rng)).collect()
}

/// A random database over R(a,b), S(b,c), T(c). Relations may come out
/// empty (a case the planner and the cache must survive).
fn rand_db(rng: &mut TestRng) -> (Database, Vec<(RelId, usize)>) {
    let mut db = Database::new();
    let r = db.add_relation("R", &["a", "b"]);
    let s = db.add_relation("S", &["b", "c"]);
    let t = db.add_relation("T", &["c"]);
    let rels = vec![(r, 2), (s, 2), (t, 1)];
    let mut label = 0usize;
    for &(rel, arity) in &rels {
        for _ in 0..pick(rng, 10) {
            db.insert(rel, &format!("t{label}"), rand_tuple(rng, arity));
            label += 1;
        }
    }
    db.build_indexes();
    (db, rels)
}

/// A random CQ (1–4 atoms); only a fully ground body is redrawn, because a
/// safe head needs a variable.
fn rand_cq(rng: &mut TestRng, rels: &[(RelId, usize)]) -> Cq {
    loop {
        let num_atoms = 1 + pick(rng, 4);
        let body: Vec<Atom> = (0..num_atoms)
            .map(|_| {
                let (rel, arity) = rels[pick(rng, rels.len())];
                let terms = (0..arity)
                    .map(|_| {
                        if pick(rng, 3) == 0 {
                            Term::Const(rand_value(rng))
                        } else {
                            Term::Var(VarId(pick(rng, 4) as u32))
                        }
                    })
                    .collect();
                Atom { rel, terms }
            })
            .collect();
        let mut vars: Vec<VarId> = body
            .iter()
            .flat_map(|a| a.terms.iter())
            .filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect();
        vars.sort_unstable_by_key(|v| v.0);
        vars.dedup();
        if vars.is_empty() {
            continue; // fully ground body: no safe head exists
        }
        let head_len = 1 + pick(rng, vars.len().min(2));
        let head = (0..head_len)
            .map(|_| Term::Var(vars[pick(rng, vars.len())]))
            .collect();
        return Cq::new(head, body);
    }
}

fn rand_delta(
    rng: &mut TestRng,
    db: &Database,
    rels: &[(RelId, usize)],
    fresh: &mut usize,
) -> Delta {
    let mut delta = Delta::new();
    let mut dying: std::collections::HashSet<_> = std::collections::HashSet::new();
    for _ in 0..(1 + pick(rng, 6)) {
        let insert = pick(rng, 2) == 0;
        let (rel, arity) = rels[pick(rng, rels.len())];
        if insert || db.relation_len(rel) == 0 {
            delta.insert(rel, format!("u{fresh}"), rand_tuple(rng, arity));
            *fresh += 1;
        } else {
            let annots = db.tuple_annots(rel);
            let a = annots[pick(rng, annots.len())];
            if dying.insert(a) {
                delta.delete(a);
            }
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The plan cache is execution-invisible: after a churn stream with
    /// publication fences (exactly the writer protocol `provabsd` runs),
    /// the cache-hit path replays the cold path bit-for-bit — answers and
    /// every work counter — at every epoch, under every plan mode.
    #[test]
    fn cache_hit_path_replays_cold_path_across_churn(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x91a5_cace));
        let (db0, rels) = rand_db(&mut rng);
        let queries: Vec<Cq> = (0..3).map(|_| rand_cq(&mut rng, &rels)).collect();
        let mut db = db0.clone();
        let (registry, mut writer) = SessionRegistry::shared(db0);
        let mut fresh = 0usize;
        for _ in 0..4 {
            let session = registry.pin();
            let epoch = session.epoch();
            for (qi, q) in queries.iter().enumerate() {
                for mode in MODES {
                    let cold = Evaluator::new(&session).plan(mode).eval_cq(q);
                    // First cache-bound evaluation plans cold and inserts;
                    // the second must be answered from the cached version.
                    let first = Evaluator::new(&session)
                        .plan(mode)
                        .plan_cache(registry.plan_cache(), epoch)
                        .eval_cq(q);
                    let hit = Evaluator::new(&session)
                        .plan(mode)
                        .plan_cache(registry.plan_cache(), epoch)
                        .eval_cq(q);
                    prop_assert_eq!(
                        &first, &cold,
                        "insert path != cold path at epoch {}, {:?}, query {}, seed {}",
                        epoch, mode, qi, seed
                    );
                    prop_assert_eq!(
                        &hit, &cold,
                        "hit path != cold path at epoch {}, {:?}, query {}, seed {}",
                        epoch, mode, qi, seed
                    );
                }
            }
            // The writer protocol: apply churn, fence the plan cache for
            // the touched relations, then publish the next epoch.
            let delta = rand_delta(&mut rng, &db, &rels, &mut fresh);
            let applied = db.apply_delta(&delta);
            registry
                .plan_cache()
                .invalidate_at(&applied.rels, registry.epoch() + 1);
            writer.publish(&db);
        }
        let stats = registry.plan_cache().stats();
        prop_assert!(stats.hits >= stats.misses, "second lookups must hit: {:?}", stats);
    }

    /// A standalone cache behaves identically on a plain database: binding
    /// [`PlanCache`] at a fixed epoch never changes an answer, and
    /// repeated evaluation is answered from the cache.
    #[test]
    fn standalone_cache_is_invisible(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x0cac_4e00));
        let (db, rels) = rand_db(&mut rng);
        let cache = PlanCache::new();
        for _ in 0..3 {
            let q = rand_cq(&mut rng, &rels);
            let oracle = oracle_eval_cq(&db, &q);
            for mode in MODES {
                for _ in 0..2 {
                    let (out, _) = Evaluator::new(&db)
                        .plan(mode)
                        .plan_cache(&cache, 0)
                        .eval_cq(&q);
                    prop_assert_eq!(&out, &oracle, "{:?}, seed {}", mode, seed);
                }
            }
        }
    }
}
