//! Property tests for the durable storage layer: after persisting a random
//! delta stream over a random mixed int/string database — with a crash
//! injected at a random write-ordering boundary — the reopened database
//! must be bit-for-bit [`Database::same_state`] with an in-memory oracle
//! that applied exactly the acknowledged transactions, and must evaluate
//! random conjunctive queries identically to the naive owned-value oracle
//! under every [`PlanMode`].
//!
//! Generators mirror `storage_prop.rs`; each proptest case draws one seed
//! and derives everything (database, stream, checkpoint placement, the
//! crash point itself) from the deterministic `TestRng`, so failures
//! reproduce exactly.

use proptest::prelude::*;
use proptest::TestRng;
use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::storage::{
    DurableDatabase, DurableOptions, Fault, FaultyVfs, OpKind, OpRecord, SharedVfs, StorageError,
};
use provabs_relational::{
    Atom, Cq, Database, Delta, Evaluator, PlanMode, RelId, Term, Tuple, Value, VarId,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const BASE: &str = "prop";

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: 0,
    }
}

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
/// the body's variables). Mirrors `storage_prop.rs`.
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

enum StreamOp {
    Txn(Delta),
    Checkpoint,
}

/// Draws a random stream of transactions with checkpoints sprinkled in,
/// evolving `twin` alongside so every delta is valid against the state it
/// will meet (fresh labels, deletions of live tuples only).
fn rand_stream(rng: &mut TestRng, twin: &mut Database, rels: &[(RelId, usize)]) -> Vec<StreamOp> {
    let mut ops = Vec::new();
    let mut fresh = 0usize;
    for _ in 0..(3 + pick(rng, 5)) {
        if pick(rng, 5) == 0 {
            ops.push(StreamOp::Checkpoint);
        } else {
            let delta = rand_delta(rng, twin, rels, &mut fresh);
            twin.apply_delta(&delta);
            ops.push(StreamOp::Txn(delta));
        }
    }
    ops
}

/// Replays the stream against a durable database, stopping at the first
/// storage error (the injected crash). Returns `None` if creation itself
/// crashed, otherwise the number of acknowledged transactions.
fn run_stream(vfs: SharedVfs, seed: &Database, ops: &[StreamOp]) -> Option<u64> {
    let mut ddb = DurableDatabase::create(vfs, BASE, seed.clone(), opts()).ok()?;
    let mut acked = 0;
    for op in ops {
        let committed = match op {
            StreamOp::Txn(delta) => ddb.apply_delta(delta).map(|_| true),
            StreamOp::Checkpoint => ddb.checkpoint().map(|_| false),
        };
        match committed {
            Ok(true) => acked += 1,
            Ok(false) => {}
            Err(_) => break,
        }
    }
    Some(acked)
}

/// The seed plus the first `k` transactions of the stream, in memory.
fn oracle_at(seed: &Database, ops: &[StreamOp], k: u64) -> Database {
    let mut db = seed.clone();
    let mut applied = 0;
    for op in ops {
        if applied == k {
            break;
        }
        if let StreamOp::Txn(delta) = op {
            db.apply_delta(delta);
            applied += 1;
        }
    }
    assert_eq!(applied, k);
    db
}

fn faulty_pair(faults: Vec<Fault>) -> (Arc<Mutex<FaultyVfs>>, SharedVfs) {
    let faulty = Arc::new(Mutex::new(FaultyVfs::with_faults(faults)));
    let vfs: SharedVfs = faulty.clone();
    (faulty, vfs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clean shutdown and reopen: the recovered database equals the live
    /// one bit for bit and answers random queries exactly like the naive
    /// oracle, under every plan mode.
    #[test]
    fn clean_reopen_is_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed);
        let (db, rels) = rand_db(&mut rng);
        let mut twin = db.clone();
        let ops = rand_stream(&mut rng, &mut twin, &rels);
        let txns = ops.iter().filter(|o| matches!(o, StreamOp::Txn(_))).count() as u64;

        let (_, vfs) = faulty_pair(Vec::new());
        prop_assert_eq!(run_stream(vfs.clone(), &db, &ops), Some(txns));
        let (re, info) = DurableDatabase::open(vfs, BASE, opts()).unwrap();
        prop_assert_eq!(info.committed_txns, txns);
        prop_assert!(re.db().same_state(&twin), "clean reopen != live state, seed {}", seed);
        for _ in 0..2 {
            let q = rand_cq(&mut rng, &rels);
            let want = oracle_eval_cq(&twin, &q);
            for mode in [PlanMode::CostBased, PlanMode::Greedy, PlanMode::WrittenOrder] {
                let (got, _) = Evaluator::new(re.db()).plan(mode).eval_cq(&q);
                prop_assert_eq!(&got, &want, "mode {:?} != oracle, seed {}", mode, seed);
            }
        }
    }

    /// Crash at a random write-ordering boundary: recovery lands exactly on
    /// the acknowledged prefix of the stream and evaluates like the oracle.
    #[test]
    fn crash_at_random_boundary_recovers_the_acknowledged_prefix(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0xd15c_0b07));
        let (db, rels) = rand_db(&mut rng);
        let mut twin = db.clone();
        let ops = rand_stream(&mut rng, &mut twin, &rels);
        let txns = ops.iter().filter(|o| matches!(o, StreamOp::Txn(_))).count() as u64;

        // Dry-run to map the boundaries, then aim a random crash at one.
        let (faulty, vfs) = faulty_pair(Vec::new());
        prop_assert_eq!(run_stream(vfs, &db, &ops), Some(txns));
        let (writes, syncs, log) = {
            let g = faulty.lock().unwrap();
            (g.write_count(), g.sync_count(), g.op_log().to_vec())
        };
        let fault = match pick(&mut rng, 3) {
            0 => Fault::CrashBeforeWrite(pick(&mut rng, writes as usize) as u64),
            1 => {
                let writes_only: Vec<&OpRecord> =
                    log.iter().filter(|r| r.kind == OpKind::Write).collect();
                let rec = writes_only[pick(&mut rng, writes_only.len())];
                Fault::TornWrite { write: rec.seq, keep: (rec.len / 2) as usize }
            }
            _ => Fault::CrashBeforeSync(pick(&mut rng, syncs as usize) as u64),
        };

        let (faulty, vfs) = faulty_pair(vec![fault]);
        let acked = run_stream(vfs.clone(), &db, &ops);
        faulty.lock().unwrap().recover();
        match (DurableDatabase::open(vfs, BASE, opts()), acked) {
            (Ok((re, info)), acked) => {
                if let Some(acked) = acked {
                    prop_assert_eq!(
                        info.committed_txns, acked,
                        "recovered txns != acknowledged, fault {:?}, seed {}", fault, seed
                    );
                }
                let oracle = oracle_at(&db, &ops, info.committed_txns);
                prop_assert!(
                    re.db().same_state(&oracle),
                    "recovered state != oracle at {} txns, fault {:?}, seed {}",
                    info.committed_txns, fault, seed
                );
                for _ in 0..2 {
                    let q = rand_cq(&mut rng, &rels);
                    let want = oracle_eval_cq(&oracle, &q);
                    for mode in [PlanMode::CostBased, PlanMode::Greedy, PlanMode::WrittenOrder] {
                        let (got, _) = Evaluator::new(re.db()).plan(mode).eval_cq(&q);
                        prop_assert_eq!(
                            &got, &want,
                            "mode {:?} != oracle, fault {:?}, seed {}", mode, fault, seed
                        );
                    }
                }
            }
            // The crash predated the first durable header commit: the
            // database never existed and creation was never acknowledged.
            (Err(StorageError::NotFound(_)), None) => {}
            (Err(e), acked) => {
                panic!("recovery failed (fault {fault:?}, acked {acked:?}, seed {seed}): {e}");
            }
        }
    }
}
