//! Property test: applying a random update stream through delta evaluation
//! is bit-for-bit equal to full re-evaluation on the resulting database —
//! for random conjunctive queries and random UCQs, across random schemas,
//! databases, and insert/delete mixes.
//!
//! Each proptest case draws one seed; everything else (schema sizes, rows,
//! queries, stream) derives from it through the deterministic `TestRng`, so
//! failures reproduce exactly.

use proptest::prelude::*;
use proptest::TestRng;
use provabs_relational::{
    Atom, Cq, Database, Delta, Evaluator, IKRelation, KRelation, KRelationDelta, RelId, Term,
    Tuple, Ucq, Updater, Value, VarId,
};
use provabs_semiring::ProvStore;
use std::collections::HashSet;

fn pick(rng: &mut TestRng, n: usize) -> usize {
    assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

/// Values come from a tiny domain so joins actually happen.
fn rand_value(rng: &mut TestRng) -> Value {
    Value::Int(pick(rng, 5) as i64)
}

fn rand_tuple(rng: &mut TestRng, arity: usize) -> Tuple {
    (0..arity).map(|_| rand_value(rng)).collect()
}

/// A random database over R(a,b), S(b,c), T(c).
fn rand_db(rng: &mut TestRng) -> (Database, Vec<(RelId, usize)>) {
    let mut db = Database::new();
    let r = db.add_relation("R", &["a", "b"]);
    let s = db.add_relation("S", &["b", "c"]);
    let t = db.add_relation("T", &["c"]);
    let rels = vec![(r, 2), (s, 2), (t, 1)];
    let mut label = 0usize;
    for &(rel, arity) in &rels {
        for _ in 0..(3 + pick(rng, 10)) {
            db.insert(rel, &format!("t{label}"), rand_tuple(rng, arity));
            label += 1;
        }
    }
    db.build_indexes();
    (db, rels)
}

/// A random CQ over the fixed schema: 1–3 atoms, terms drawn from a small
/// variable pool and the value domain, head = a non-empty subset of the
/// body's variables (so evaluation is defined).
fn rand_cq(rng: &mut TestRng, rels: &[(RelId, usize)]) -> Cq {
    loop {
        let num_atoms = 1 + pick(rng, 3);
        let body: Vec<Atom> = (0..num_atoms)
            .map(|_| {
                let (rel, arity) = rels[pick(rng, rels.len())];
                let terms = (0..arity)
                    .map(|_| {
                        if pick(rng, 4) == 0 {
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
            continue; // constant-only body: draw again
        }
        let head_len = 1 + pick(rng, vars.len().min(2));
        let head = (0..head_len)
            .map(|_| Term::Var(vars[pick(rng, vars.len())]))
            .collect();
        return Cq::new(head, body);
    }
}

/// A random batch: inserts column-drawn from the value domain, deletes of
/// random live tuples.
fn rand_delta(
    rng: &mut TestRng,
    db: &Database,
    rels: &[(RelId, usize)],
    fresh: &mut usize,
) -> Delta {
    let mut delta = Delta::new();
    let mut dying: HashSet<_> = HashSet::new();
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

    #[test]
    fn delta_stream_equals_full_reeval_for_random_cqs(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed);
        let (mut db, rels) = rand_db(&mut rng);
        let queries: Vec<Cq> = (0..3).map(|_| rand_cq(&mut rng, &rels)).collect();
        let mut cached: Vec<KRelation> = queries
            .iter()
            .map(|q| Evaluator::new(&db).eval_cq(q).0)
            .collect();
        let mut fresh = 0usize;
        for batch in 0..4 {
            let delta = rand_delta(&mut rng, &db, &rels, &mut fresh);
            let out = Updater::new().apply(&mut db, &delta, &queries);
            prop_assert!(db.is_indexed(), "indexes must survive the delta");
            for ((q, cache), d) in queries.iter().zip(&mut cached).zip(&out.deltas) {
                prop_assert!(
                    d.merge_into(cache),
                    "retraction underflow at batch {batch} for {q:?}"
                );
                prop_assert_eq!(
                    &*cache,
                    &Evaluator::new(&db).eval_cq(q).0,
                    "delta merge != re-eval at batch {}, seed {}",
                    batch,
                    seed
                );
            }
        }
    }

    /// The fully interned maintenance loop — persistent [`ProvStore`],
    /// [`IKRelation`] caches, id-level merges — stays bit-for-bit equal to
    /// owned full re-evaluation across a random update stream.
    #[test]
    fn interned_delta_stream_equals_owned_reeval(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x51ed_270b));
        let (mut db, rels) = rand_db(&mut rng);
        let queries: Vec<Cq> = (0..3).map(|_| rand_cq(&mut rng, &rels)).collect();
        let mut store = ProvStore::new();
        let mut cached: Vec<IKRelation> = queries
            .iter()
            .map(|q| Evaluator::new(&db).interned(&mut store).eval_cq(q).0)
            .collect();
        let mut fresh = 0usize;
        for batch in 0..4 {
            let delta = rand_delta(&mut rng, &db, &rels, &mut fresh);
            let out = Updater::new().apply_interned(&mut db, &delta, &queries, &mut store);
            for ((q, cache), d) in queries.iter().zip(&mut cached).zip(&out.deltas) {
                prop_assert!(
                    d.merge_into(&mut store, cache),
                    "retraction underflow at batch {batch} for {q:?}"
                );
                prop_assert_eq!(
                    &cache.to_krelation(&store),
                    &Evaluator::new(&db).eval_cq(q).0,
                    "interned delta merge != owned re-eval at batch {}, seed {}",
                    batch,
                    seed
                );
            }
        }
    }

    #[test]
    fn delta_stream_equals_full_reeval_for_random_ucqs(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x9e37_79b9));
        let (mut db, rels) = rand_db(&mut rng);
        let u = Ucq {
            disjuncts: (0..2).map(|_| rand_cq(&mut rng, &rels)).collect(),
        };
        let (mut cached, _) = Evaluator::new(&db).eval_ucq(&u);
        let mut fresh = 0usize;
        for batch in 0..3 {
            let delta = rand_delta(&mut rng, &db, &rels, &mut fresh);
            let deletes: HashSet<_> = delta
                .deletes
                .iter()
                .copied()
                .filter(|&a| db.locate(a).is_some())
                .collect();
            let (removed, _) = Evaluator::new(&db).retractions_ucq(&u, &deletes);
            let applied = db.apply_delta(&delta);
            let inserts: HashSet<_> = applied.inserted.iter().copied().collect();
            let (added, _) = Evaluator::new(&db).additions_ucq(&u, &inserts);
            let d = KRelationDelta { added, removed };
            prop_assert!(d.merge_into(&mut cached), "underflow at batch {batch}");
            prop_assert_eq!(
                &cached,
                &Evaluator::new(&db).eval_ucq(&u).0,
                "UCQ delta merge != re-eval at batch {}, seed {}",
                batch,
                seed
            );
        }
    }
}
