//! Property tests for the dictionary-encoded columnar storage layer: the
//! single interned evaluation path must be bit-for-bit equal to the naive
//! owned-value reference evaluator (`provabs_relational::oracle`) — for
//! random databases over a mixed int/string domain, random CQs and UCQs,
//! and random insert/delete streams — and the incrementally-maintained
//! per-column indexes must always hold exactly what a decoded scan finds.
//!
//! Each proptest case draws one seed; everything else derives from it
//! through the deterministic `TestRng`, so failures reproduce exactly.

use proptest::prelude::*;
use proptest::TestRng;
use provabs_relational::oracle::{oracle_eval_cq, oracle_eval_ucq};
use provabs_relational::{
    Atom, Cq, Database, Delta, Evaluator, Execution, KRelation, RelId, Term, Tuple, Ucq, Updater,
    Value, VarId,
};
use std::collections::HashSet;

fn pick(rng: &mut TestRng, n: usize) -> usize {
    assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

/// A mixed int/string domain, small enough that joins actually happen and
/// string/id width differences are exercised.
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

/// A random database over R(a,b), S(b,c), T(c).
fn rand_db(rng: &mut TestRng) -> (Database, Vec<(RelId, usize)>) {
    let mut db = Database::new();
    let r = db.add_relation("R", &["a", "b"]);
    let s = db.add_relation("S", &["b", "c"]);
    let t = db.add_relation("T", &["c"]);
    let rels = vec![(r, 2), (s, 2), (t, 1)];
    let mut label = 0usize;
    for &(rel, arity) in &rels {
        for _ in 0..(3 + pick(rng, 8)) {
            db.insert(rel, &format!("t{label}"), rand_tuple(rng, arity));
            label += 1;
        }
    }
    db.build_indexes();
    (db, rels)
}

/// A random CQ over the fixed schema (1–3 atoms; head = non-empty subset of
/// the body's variables). Mirrors `delta_prop.rs`.
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

/// Every posting list must hold exactly the rows a decoded owned-value scan
/// finds — sorted check via set equality on positions.
fn assert_index_contents_exact(db: &Database, rels: &[(RelId, usize)]) {
    for &(rel, arity) in rels {
        let decoded = db.tuples(rel);
        for col in 0..arity {
            // Probe every value that appears anywhere in the database plus
            // a couple of misses.
            let mut domain: Vec<Value> = decoded.iter().map(|t| t[col].clone()).collect();
            domain.push(Value::Int(-999));
            domain.push(Value::str("never-stored"));
            domain.sort();
            domain.dedup();
            for v in &domain {
                let mut indexed = db.rows_matching(rel, col, v);
                indexed.sort_unstable();
                let scanned: Vec<usize> = decoded
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| &t[col] == v)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(
                    indexed, scanned,
                    "index of {rel:?}.{col} diverged from a decoded scan at {v}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Columnar-interned evaluation == naive owned-value oracle, and the
    /// storage work counters always show the id-width reduction.
    #[test]
    fn columnar_eval_equals_owned_oracle(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed);
        let (db, rels) = rand_db(&mut rng);
        for _ in 0..4 {
            let q = rand_cq(&mut rng, &rels);
            // Scalar pin: `probe_bytes_id == probes * 4` holds only where
            // every probe hashes an id.
            let (out, work) = Evaluator::new(&db).execution(Execution::Scalar).eval_cq(&q);
            prop_assert_eq!(&out, &oracle_eval_cq(&db, &q), "engine != oracle, seed {}", seed);
            prop_assert_eq!(work.probe_bytes_id, work.probes * 4);
            prop_assert!(
                work.probes == 0 || work.probe_bytes_id < work.probe_bytes_value,
                "id probes must be narrower than owned probes (seed {})", seed
            );
        }
        let u = Ucq { disjuncts: (0..2).map(|_| rand_cq(&mut rng, &rels)).collect() };
        prop_assert_eq!(Evaluator::new(&db).eval_ucq(&u).0, oracle_eval_ucq(&db, &u));
    }

    /// Delta maintenance over columnar storage == oracle re-evaluation on
    /// the updated database, with exact index contents after every batch.
    #[test]
    fn delta_stream_tracks_oracle_and_indexes_stay_exact(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x00c0_ffee));
        let (mut db, rels) = rand_db(&mut rng);
        let queries: Vec<Cq> = (0..2).map(|_| rand_cq(&mut rng, &rels)).collect();
        let mut cached: Vec<KRelation> = queries
            .iter()
            .map(|q| Evaluator::new(&db).eval_cq(q).0)
            .collect();
        let mut fresh = 0usize;
        for batch in 0..4 {
            let delta = rand_delta(&mut rng, &db, &rels, &mut fresh);
            let out = Updater::new().apply(&mut db, &delta, &queries);
            prop_assert!(db.is_indexed(), "indexes must survive the delta");
            assert_index_contents_exact(&db, &rels);
            for ((q, cache), d) in queries.iter().zip(&mut cached).zip(&out.deltas) {
                prop_assert!(
                    d.merge_into(cache),
                    "retraction underflow at batch {batch} for {q:?}"
                );
                prop_assert_eq!(
                    &*cache,
                    &oracle_eval_cq(&db, q),
                    "delta merge != oracle re-eval at batch {}, seed {}",
                    batch,
                    seed
                );
            }
        }
    }

    /// Unindexed evaluation (scan fallback) equals indexed evaluation
    /// equals the oracle — the access path must never change results.
    #[test]
    fn access_paths_agree(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x5ca1_ab1e));
        // Build the same database twice with the same draws: one indexed,
        // one left unindexed.
        let (indexed, rels) = rand_db(&mut rng);
        let mut unindexed = Database::new();
        let r = unindexed.add_relation("R", &["a", "b"]);
        let s = unindexed.add_relation("S", &["b", "c"]);
        let t = unindexed.add_relation("T", &["c"]);
        let mut label = 0usize;
        for &(rel, _) in &[(r, 2), (s, 2), (t, 1)] {
            for row in indexed.tuples(rel) {
                unindexed.insert(rel, &format!("t{label}"), row);
                label += 1;
            }
        }
        for _ in 0..3 {
            let q = rand_cq(&mut rng, &rels);
            let via_index = Evaluator::new(&indexed).eval_cq(&q).0;
            let via_scan = Evaluator::new(&unindexed).eval_cq(&q).0;
            prop_assert_eq!(&via_index, &via_scan, "seed {}", seed);
            prop_assert_eq!(&via_index, &oracle_eval_cq(&indexed, &q));
        }
    }
}
