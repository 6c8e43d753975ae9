//! The crash matrix: recovery must be exact at *every* write-ordering
//! boundary of the durability protocol.
//!
//! Strategy (see `storage::faulty`): a workload is first dry-run fault-free
//! against a [`FaultyVfs`] to enumerate every mutating operation and every
//! fsync it performs. The matrix then re-runs the workload once per
//! boundary with a fault injected exactly there — crash before the write,
//! a torn write keeping only a prefix, crash before the sync, and a lying
//! fsync followed by a crash — simulates the restart, reopens, and asserts
//! the recovered database bit-for-bit equal
//! ([`Database::same_state`]) to an in-memory oracle that applied exactly
//! the acknowledged transactions, with identical query results under every
//! [`PlanMode`].
//!
//! Both an insert-heavy and a delete-heavy workload go through the full
//! matrix: deletions exercise the swap-remove posting maintenance whose
//! row order is path-dependent and must survive persistence verbatim.

use provabs_relational::oracle::oracle_eval_cq;
use provabs_relational::storage::{
    encode_delta, DurableDatabase, DurableOptions, Fault, FaultyVfs, MemVfs, OpKind, OpRecord,
    RecoveryInfo, SharedVfs, StorageError, Vfs,
};
use provabs_relational::{parse_cq, Database, Delta, Evaluator, PlanMode, Tuple, Value};
use std::sync::{Arc, Mutex};

const BASE: &str = "crash";

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: 0,
    }
}

/// One scripted mutation, resolved against the live database when its
/// transaction is built (so the same script drives the durable run and the
/// in-memory oracle identically).
#[derive(Clone, Copy)]
enum Op {
    /// Insert `(relation, label, fields)`.
    Ins(&'static str, &'static str, &'static [&'static str]),
    /// Delete the tuple tagged `label`.
    Del(&'static str),
}

#[derive(Clone, Copy)]
enum Step {
    /// One delta = one WAL transaction.
    Txn(&'static [Op]),
    /// An explicit checkpoint (snapshot + header flip + WAL truncate).
    Checkpoint,
}

fn seed_db() -> Database {
    let mut db = Database::new();
    let r = db.add_relation("R", &["a", "b"]);
    let s = db.add_relation("S", &["b", "c"]);
    db.insert_str(r, "r1", &["1", "10"]);
    db.insert_str(r, "r2", &["2", "10"]);
    db.insert_str(r, "r3", &["1", "30"]);
    db.insert_str(r, "r4", &["3", "10"]);
    db.insert_str(r, "r5", &["4", "30"]);
    db.insert_str(r, "r6", &["5", "10"]);
    db.insert_str(s, "s1", &["10", "100"]);
    db.insert_str(s, "s2", &["30", "200"]);
    db.insert_str(s, "s3", &["10", "300"]);
    db.insert_str(s, "s4", &["30", "100"]);
    db.build_indexes();
    db
}

const INSERT_HEAVY: &[Step] = &[
    Step::Txn(&[
        Op::Ins("R", "i1", &["6", "30"]),
        Op::Ins("S", "i2", &["30", "7"]),
    ]),
    Step::Txn(&[Op::Ins("R", "i3", &["7", "10"])]),
    Step::Checkpoint,
    Step::Txn(&[
        Op::Ins("S", "i4", &["10", "8"]),
        Op::Ins("R", "i5", &["8", "30"]),
    ]),
    Step::Txn(&[Op::Del("r2"), Op::Ins("R", "i6", &["9", "10"])]),
    Step::Txn(&[Op::Ins("S", "i7", &["30", "9"])]),
];

const DELETE_HEAVY: &[Step] = &[
    Step::Txn(&[Op::Del("r1")]),
    Step::Txn(&[Op::Del("r4"), Op::Del("s2")]),
    Step::Checkpoint,
    Step::Txn(&[Op::Del("r2"), Op::Ins("R", "n1", &["9", "10"])]),
    Step::Txn(&[Op::Del("r6")]),
    Step::Checkpoint,
    Step::Txn(&[Op::Del("n1"), Op::Del("s3")]),
];

fn build_delta(db: &Database, ops: &[Op]) -> Delta {
    let mut d = Delta::new();
    for op in ops {
        match *op {
            Op::Ins(rel, label, fields) => {
                let r = db.schema().relation_id(rel).unwrap();
                d.insert(r, label, Tuple::parse(fields));
            }
            Op::Del(label) => d.delete(db.annotations().get(label).unwrap()),
        }
    }
    d
}

struct Outcome {
    /// Whether `DurableDatabase::create` returned `Ok`.
    created: bool,
    /// Transactions acknowledged (`apply_delta` returned `Ok`) before the
    /// crash — every one of them must survive recovery, and for pure
    /// crashes nothing more may.
    ok_txns: u64,
}

fn run_steps(vfs: SharedVfs, steps: &[Step]) -> Outcome {
    let mut ddb = match DurableDatabase::create(vfs, BASE, seed_db(), opts()) {
        Ok(d) => d,
        Err(_) => {
            return Outcome {
                created: false,
                ok_txns: 0,
            }
        }
    };
    let mut ok_txns = 0;
    for step in steps {
        let committed = match step {
            Step::Txn(ops) => {
                let delta = build_delta(ddb.db(), ops);
                ddb.apply_delta(&delta).map(|_| true)
            }
            Step::Checkpoint => ddb.checkpoint().map(|_| false),
        };
        match committed {
            Ok(true) => ok_txns += 1,
            Ok(false) => {}
            Err(_) => break,
        }
    }
    Outcome {
        created: true,
        ok_txns,
    }
}

/// The oracle: the seed plus the first `k` scripted transactions applied
/// purely in memory.
fn oracle_at(steps: &[Step], k: u64) -> Database {
    let mut db = seed_db();
    let mut applied = 0;
    for step in steps {
        if applied == k {
            break;
        }
        if let Step::Txn(ops) = step {
            let delta = build_delta(&db, ops);
            db.apply_delta(&delta);
            applied += 1;
        }
    }
    assert_eq!(applied, k, "oracle asked for more txns than the script has");
    db
}

/// Bit-for-bit state equality plus query equivalence under every plan mode.
fn assert_matches_oracle(recovered: &Database, oracle: &Database, ctx: &str) {
    assert!(
        recovered.same_state(oracle),
        "recovered state != oracle ({ctx})"
    );
    let q = parse_cq("Q(a, c) :- R(a, b), S(b, c)", oracle.schema()).unwrap();
    let want = oracle_eval_cq(oracle, &q);
    for mode in [
        PlanMode::CostBased,
        PlanMode::Greedy,
        PlanMode::WrittenOrder,
    ] {
        let (got, _) = Evaluator::new(recovered).plan(mode).eval_cq(&q);
        assert_eq!(got, want, "recovered eval under {mode:?} != oracle ({ctx})");
    }
}

fn faulty_pair(faults: Vec<Fault>) -> (Arc<Mutex<FaultyVfs>>, SharedVfs) {
    let faulty = Arc::new(Mutex::new(FaultyVfs::with_faults(faults)));
    let vfs: SharedVfs = faulty.clone();
    (faulty, vfs)
}

/// Runs the workload with `faults` armed, simulates the restart, reopens,
/// and checks the recovery invariant. `pure_crash` distinguishes faults
/// that only lose unsynced data (recovery must succeed and report exactly
/// the acknowledged transactions) from lying-fsync scenarios (where
/// fail-closed corruption detection is also acceptable — the durable image
/// genuinely diverged from every acknowledgement).
fn crash_and_check(steps: &[Step], faults: Vec<Fault>, pure_crash: bool, ctx: &str) {
    let (faulty, vfs) = faulty_pair(faults);
    let out = run_steps(vfs.clone(), steps);
    faulty.lock().unwrap().recover();
    match DurableDatabase::open(vfs, BASE, opts()) {
        Ok((re, info)) => {
            if pure_crash && out.created {
                assert_eq!(
                    info.committed_txns, out.ok_txns,
                    "committed != acknowledged ({ctx})"
                );
            }
            let oracle = oracle_at(steps, info.committed_txns);
            assert_matches_oracle(re.db(), &oracle, ctx);
        }
        // The crash predated the very first header commit: the database
        // never existed durably, and creation was never acknowledged.
        Err(StorageError::NotFound(_)) if !out.created => {}
        // A dropped fsync can leave a snapshot the header vouches for but
        // the platter never got (detected as corruption, or as a missing
        // snapshot file when the lie swallowed the file wholesale);
        // failing closed instead of serving wrong data is the contract.
        Err(StorageError::Corrupt(_) | StorageError::NotFound(_)) if !pure_crash => {}
        Err(e) => panic!("recovery failed ({ctx}): {e}"),
    }
}

/// Dry-runs `steps` fault-free and returns the boundary map.
fn dry_run(steps: &[Step]) -> (u64, u64, Vec<OpRecord>) {
    let (faulty, vfs) = faulty_pair(Vec::new());
    let out = run_steps(vfs, steps);
    assert!(out.created, "dry run must complete");
    let g = faulty.lock().unwrap();
    (g.write_count(), g.sync_count(), g.op_log().to_vec())
}

/// The full matrix: every mutating op gets a crash-before and (when it has
/// at least two bytes) a torn-prefix variant; every fsync gets a
/// crash-before and a lying-fsync-then-crash variant.
fn exhaustive_matrix(steps: &[Step]) {
    let (writes, syncs, log) = dry_run(steps);
    for w in 0..writes {
        crash_and_check(
            steps,
            vec![Fault::CrashBeforeWrite(w)],
            true,
            &format!("crash before mutating op {w}"),
        );
        if let Some(rec) = log
            .iter()
            .find(|r| r.kind == OpKind::Write && r.seq == w && r.len >= 2)
        {
            crash_and_check(
                steps,
                vec![Fault::TornWrite {
                    write: w,
                    keep: (rec.len / 2) as usize,
                }],
                true,
                &format!("torn write {w} ({} of {} bytes)", rec.len / 2, rec.len),
            );
        }
    }
    for s in 0..syncs {
        crash_and_check(
            steps,
            vec![Fault::CrashBeforeSync(s)],
            true,
            &format!("crash before sync {s}"),
        );
        crash_and_check(
            steps,
            vec![Fault::DropSync(s)],
            false,
            &format!("lying fsync {s} then end-of-run crash"),
        );
    }
}

#[test]
fn exhaustive_insert_heavy_crash_matrix() {
    exhaustive_matrix(INSERT_HEAVY);
}

#[test]
fn exhaustive_delete_heavy_crash_matrix() {
    exhaustive_matrix(DELETE_HEAVY);
}

// ---------------------------------------------------------------------------
// The five named protocol boundaries, pinned individually with their
// expected committed counts (the matrix above also visits each of them).
// ---------------------------------------------------------------------------

/// Writes to the WAL file, in order (data frame, commit frame, data frame,
/// commit frame, ...; `Wal::reset` shows up as a truncate, not a write).
fn wal_writes(log: &[OpRecord]) -> Vec<OpRecord> {
    log.iter()
        .filter(|r| r.kind == OpKind::Write && r.file.ends_with(".wal"))
        .cloned()
        .collect()
}

fn crash_expect(steps: &[Step], faults: Vec<Fault>, want_committed: u64, ctx: &str) {
    let (faulty, vfs) = faulty_pair(faults);
    run_steps(vfs.clone(), steps);
    faulty.lock().unwrap().recover();
    let (re, info) =
        DurableDatabase::open(vfs, BASE, opts()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(info.committed_txns, want_committed, "{ctx}");
    assert_matches_oracle(re.db(), &oracle_at(steps, want_committed), ctx);
}

#[test]
fn crash_point_pre_wal_append() {
    let (_, _, log) = dry_run(INSERT_HEAVY);
    let first = wal_writes(&log)[0].seq;
    crash_expect(
        INSERT_HEAVY,
        vec![Fault::CrashBeforeWrite(first)],
        0,
        "crash before txn 1's first data frame",
    );
}

#[test]
fn crash_point_mid_frame() {
    let (_, _, log) = dry_run(INSERT_HEAVY);
    let data = &wal_writes(&log)[0];
    crash_expect(
        INSERT_HEAVY,
        vec![Fault::TornWrite {
            write: data.seq,
            keep: (data.len / 2) as usize,
        }],
        0,
        "torn data frame of txn 1",
    );
}

#[test]
fn crash_point_post_append_pre_commit_marker() {
    let (_, _, log) = dry_run(INSERT_HEAVY);
    // Data frames are synced before the commit frame is written, so this
    // crash leaves a durable, fully-checksummed, *uncommitted* transaction
    // in the log — recovery must discard it wholesale.
    let commit = wal_writes(&log)[1].seq;
    crash_expect(
        INSERT_HEAVY,
        vec![Fault::CrashBeforeWrite(commit)],
        0,
        "crash after txn 1's data sync, before its commit marker",
    );
}

#[test]
fn crash_point_post_commit_pre_checkpoint() {
    let (_, _, log) = dry_run(INSERT_HEAVY);
    // The mid-script checkpoint targets the inactive snapshot file
    // (`.snap1`; creation checkpointed into `.snap0`), so its first write
    // is the boundary right after two committed transactions.
    let first_snap1 = log
        .iter()
        .find(|r| r.kind == OpKind::Write && r.file.ends_with(".snap1"))
        .unwrap()
        .seq;
    crash_expect(
        INSERT_HEAVY,
        vec![Fault::CrashBeforeWrite(first_snap1)],
        2,
        "crash after two committed txns, before their checkpoint",
    );
}

#[test]
fn crash_point_mid_checkpoint() {
    let (_, _, log) = dry_run(INSERT_HEAVY);
    let snap1 = log
        .iter()
        .find(|r| r.kind == OpKind::Write && r.file.ends_with(".snap1"))
        .unwrap();
    // Torn snapshot page, lost snapshot sync, and crash before the header
    // flip: in every case the inactive file takes the damage and the two
    // committed transactions replay from the still-active side.
    crash_expect(
        INSERT_HEAVY,
        vec![Fault::TornWrite {
            write: snap1.seq,
            keep: (snap1.len / 2) as usize,
        }],
        2,
        "torn snapshot page mid-checkpoint",
    );
    let snap1_sync = log
        .iter()
        .find(|r| r.kind == OpKind::Sync && r.file.ends_with(".snap1"))
        .unwrap()
        .seq;
    crash_expect(
        INSERT_HEAVY,
        vec![Fault::CrashBeforeSync(snap1_sync)],
        2,
        "crash before the snapshot sync mid-checkpoint",
    );
    let header_flip = log
        .iter()
        .filter(|r| r.kind == OpKind::Write && r.file.ends_with(".db"))
        .nth(1)
        .unwrap()
        .seq;
    crash_expect(
        INSERT_HEAVY,
        vec![Fault::CrashBeforeWrite(header_flip)],
        2,
        "crash after the snapshot sync, before the header flip",
    );
}

/// Regression for the delete mutation-order hazard: a crash at any write
/// of a checkpoint that follows swap-remove deletions must recover posting
/// lists in their exact historical (path-dependent) row order — compared
/// verbatim, not as sets.
#[test]
fn torn_checkpoint_after_delete_preserves_posting_order() {
    const STEPS: &[Step] = &[
        Step::Txn(&[Op::Del("r1")]),
        Step::Txn(&[Op::Del("r4")]),
        Step::Checkpoint,
    ];
    let (_, _, log) = dry_run(STEPS);
    let oracle = oracle_at(STEPS, 2);
    let snap_writes: Vec<OpRecord> = log
        .iter()
        .filter(|r| r.kind == OpKind::Write && r.file.ends_with(".snap1"))
        .cloned()
        .collect();
    assert!(!snap_writes.is_empty());
    for rec in &snap_writes {
        for faults in [
            vec![Fault::CrashBeforeWrite(rec.seq)],
            vec![Fault::TornWrite {
                write: rec.seq,
                keep: (rec.len / 2) as usize,
            }],
        ] {
            let (faulty, vfs) = faulty_pair(faults);
            run_steps(vfs.clone(), STEPS);
            faulty.lock().unwrap().recover();
            let (re, info) = DurableDatabase::open(vfs, BASE, opts()).unwrap();
            assert_eq!(info.committed_txns, 2, "both deletes were acknowledged");
            assert_matches_oracle(re.db(), &oracle, "checkpoint crash after deletes");
            // The explicit posting-order check `same_state` already
            // implies, spelled out against the oracle's swap-remove
            // history for the collision-heavy column.
            let r = oracle.schema().relation_id("R").unwrap();
            for v in [Value::Int(10), Value::Int(30)] {
                assert_eq!(
                    re.db().rows_matching(r, 1, &v),
                    oracle.rows_matching(r, 1, &v),
                    "posting row order diverged from the in-memory history at {v}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Media corruption (as opposed to crashes): flipped bits anywhere in the
// durable image must be detected, never served.
// ---------------------------------------------------------------------------

/// Runs the insert-heavy workload to completion (checkpoint + WAL tail)
/// and returns the durable bytes of every database file.
fn durable_files() -> Vec<(String, Vec<u8>)> {
    let (faulty, vfs) = faulty_pair(Vec::new());
    let out = run_steps(vfs, INSERT_HEAVY);
    assert!(out.created && out.ok_txns == 5);
    let g = faulty.lock().unwrap();
    ["db", "snap0", "snap1", "wal"]
        .iter()
        .filter_map(|ext| {
            let name = format!("{BASE}.{ext}");
            g.durable_image(&name).map(|b| (name.clone(), b.to_vec()))
        })
        .collect()
}

fn reopen_with_flip(
    files: &[(String, Vec<u8>)],
    file: &str,
    offset: u64,
) -> Result<(DurableDatabase, RecoveryInfo), StorageError> {
    let mut mem = MemVfs::new();
    for (name, bytes) in files {
        mem.write_at(name, 0, bytes).unwrap();
    }
    mem.corrupt_byte(file, offset, 0x40);
    DurableDatabase::open(provabs_relational::storage::shared(mem), BASE, opts())
}

/// Every flipped bit in the header page or the active snapshot pages is a
/// hard `Corrupt` — the pager's seeded checksums plus the zero-padding
/// check leave no blind spots.
#[test]
fn flipped_bits_in_pages_fail_closed() {
    let files = durable_files();
    for name in [format!("{BASE}.db"), format!("{BASE}.snap1")] {
        let len = files
            .iter()
            .find(|(f, _)| *f == name)
            .map(|(_, b)| b.len() as u64)
            .unwrap();
        assert!(len > 0);
        for offset in (0..len).step_by(7) {
            match reopen_with_flip(&files, &name, offset) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("flip at {name}:{offset} not detected: {other:?}"),
            }
        }
    }
}

/// Flipped bits in WAL frames are detected as corruption everywhere except
/// inside a frame-length field, where an absurd length is indistinguishable
/// from a torn tail; even there recovery must stay consistent — it may
/// only lose a committed suffix, never serve a wrong state.
#[test]
fn flipped_bits_in_wal_frames_fail_closed() {
    let files = durable_files();
    let name = format!("{BASE}.wal");
    let wal_len = files
        .iter()
        .find(|(f, _)| *f == name)
        .map(|(_, b)| b.len() as u64)
        .unwrap();
    // Reconstruct the frame layout analytically: the WAL holds the three
    // post-checkpoint transactions, each as one data frame (21-byte header
    // + payload) and one commit frame (21-byte header, no payload). The
    // length field occupies bytes 9..13 of each frame header.
    let mut len_fields = Vec::new();
    let mut at = 0u64;
    for k in [3u64, 4, 5] {
        let payload = encode_delta(&delta_of_txn(k)).len() as u64;
        len_fields.push(at + 9..at + 13); // data frame
        at += 21 + payload;
        len_fields.push(at + 9..at + 13); // commit frame
        at += 21;
    }
    assert_eq!(at, wal_len, "analytic frame layout must match the file");
    let mut corrupt_detected = 0u64;
    for offset in 0..wal_len {
        let in_len_field = len_fields.iter().any(|r| r.contains(&offset));
        match reopen_with_flip(&files, &name, offset) {
            Err(StorageError::Corrupt(_)) => corrupt_detected += 1,
            Ok((re, info)) if in_len_field => {
                // Torn-tail misread: a committed suffix was dropped, but
                // what remains must still be exactly the oracle prefix.
                assert!(info.committed_txns < 5, "flip at {offset} went unnoticed");
                assert_matches_oracle(
                    re.db(),
                    &oracle_at(INSERT_HEAVY, info.committed_txns),
                    &format!("torn-tail misread at {offset}"),
                );
            }
            other => panic!("flip at {name}:{offset} not detected: {other:?}"),
        }
    }
    assert!(
        corrupt_detected > wal_len * 3 / 4,
        "checksums should catch the overwhelming majority of flips"
    );
}

/// The delta of scripted transaction `k` (1-based), for analytic WAL
/// layout reconstruction.
fn delta_of_txn(k: u64) -> Delta {
    let db = oracle_at(INSERT_HEAVY, k - 1);
    let mut seen = 0;
    for step in INSERT_HEAVY {
        if let Step::Txn(ops) = step {
            seen += 1;
            if seen == k {
                return build_delta(&db, ops);
            }
        }
    }
    panic!("no txn {k} in the script");
}
