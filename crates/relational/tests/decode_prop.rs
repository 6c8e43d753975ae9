//! Fail-closed property tests for the untrusted-input boundaries: the
//! snapshot and delta decoders, the WAL frame layer and the query parser
//! must answer every input with `Ok` or `Err`, never a panic.
//!
//! Decoder inputs are random byte strings plus single-byte mutations and
//! truncations of valid `encode_database`/`encode_delta` outputs (so most
//! inputs get past the magic and exercise the validating paths). Parser
//! inputs are random ASCII over the query alphabet plus mutations of valid
//! query texts. A snapshot that does decode must re-encode and decode back
//! to the same state.
//!
//! WAL replay gets random files, every truncation and every single-byte
//! overwrite of a valid multi-transaction log: a truncation must replay
//! exactly the transactions whose commit frame it keeps, and an overwrite
//! must replay a prefix of them or fail with `StorageError::Corrupt`.
//!
//! Each proptest case draws one seed; everything else derives from it
//! through the deterministic `TestRng`, so failures reproduce exactly.

use proptest::prelude::*;
use proptest::TestRng;
use provabs_relational::storage::{
    decode_database, decode_delta, encode_database, encode_delta, MemVfs, StorageError, Vfs, Wal,
    PAGE_PAYLOAD,
};
use provabs_relational::{parse_cq, parse_ucq, Database, Delta, RelId, Tuple, Value};

fn pick(rng: &mut TestRng, n: usize) -> usize {
    assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

fn rand_value(rng: &mut TestRng) -> Value {
    match pick(rng, 4) {
        0 | 1 => Value::Int(pick(rng, 4) as i64 - 1),
        2 => Value::str("a"),
        _ => Value::str("bb"),
    }
}

fn rand_tuple(rng: &mut TestRng, arity: usize) -> Tuple {
    (0..arity).map(|_| rand_value(rng)).collect()
}

/// A small random database over R(a,b), S(b), with deletes (so the
/// retirement set is populated) and indexes half the time.
fn rand_db(rng: &mut TestRng) -> Database {
    let mut db = Database::new();
    let rels = [
        (db.add_relation("R", &["a", "b"]), 2),
        (db.add_relation("S", &["b"]), 1),
    ];
    for i in 0..pick(rng, 6) {
        let (rel, arity) = rels[pick(rng, rels.len())];
        db.insert(rel, &format!("t{i}"), rand_tuple(rng, arity));
    }
    if pick(rng, 2) == 0 {
        db.build_indexes();
    }
    for i in 0..pick(rng, 3) {
        if let Some(a) = db.annotations().get(&format!("t{i}")) {
            let _ = db.delete(a);
        }
    }
    db
}

fn rand_delta(rng: &mut TestRng) -> Delta {
    let mut delta = Delta::new();
    for i in 0..pick(rng, 4) {
        let rel = RelId(pick(rng, 2) as u16);
        let arity = 2 - rel.0 as usize;
        delta.insert(rel, format!("d{i}"), rand_tuple(rng, arity));
    }
    for _ in 0..pick(rng, 3) {
        delta.delete(provabs_semiring::AnnotId(pick(rng, 8) as u32));
    }
    delta
}

/// `valid` under one of: a random byte string, one byte overwritten, or a
/// truncation.
fn corrupt(rng: &mut TestRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    match pick(rng, 3) {
        0 => (0..pick(rng, 64)).map(|_| rng.next_u64() as u8).collect(),
        1 => {
            if !bytes.is_empty() {
                let at = pick(rng, bytes.len());
                bytes[at] = rng.next_u64() as u8;
            }
            bytes
        }
        _ => {
            bytes.truncate(pick(rng, valid.len().max(1)));
            bytes
        }
    }
}

/// One committed WAL transaction: `(txn id, payload)`.
type Txn = (u64, Vec<u8>);

/// A valid WAL of one to four committed transactions with ascending ids,
/// written through `Wal::append_txn` on `MemVfs`; a quarter of the logs hold
/// one payload that spans two data frames. Returns the file, the
/// transactions and the log length after each commit.
fn rand_wal(rng: &mut TestRng) -> (Vec<u8>, Vec<Txn>, Vec<u64>) {
    let mut vfs = MemVfs::new();
    let mut wal = Wal::create("wal");
    let (mut txns, mut ends) = (Vec::new(), Vec::new());
    let n = 1 + pick(rng, 4);
    let long = (pick(rng, 4) == 0).then(|| pick(rng, n));
    let mut id = 0;
    for t in 0..n {
        id += 1 + pick(rng, 3) as u64;
        let len = if long == Some(t) {
            PAGE_PAYLOAD + 1 + pick(rng, 32)
        } else {
            pick(rng, 48)
        };
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        wal.append_txn(&mut vfs, id, &payload).unwrap();
        txns.push((id, payload));
        ends.push(wal.len());
    }
    (vfs.raw("wal").unwrap().to_vec(), txns, ends)
}

/// Replays `bytes` as the WAL file of a fresh `MemVfs`.
fn replay(bytes: &[u8]) -> Result<(Wal, Vec<Txn>), StorageError> {
    let mut vfs = MemVfs::new();
    vfs.write_at("wal", 0, bytes).unwrap();
    Wal::open_replay(&mut vfs, "wal")
}

/// The characters queries are written in, plus a few that are not.
const QUERY_ALPHABET: &[u8] = b"QRSTabxyz019_-(),:;' \t\"!";

fn rand_text(rng: &mut TestRng) -> String {
    (0..pick(rng, 40))
        .map(|_| QUERY_ALPHABET[pick(rng, QUERY_ALPHABET.len())] as char)
        .collect()
}

/// A valid query text with one character replaced, inserted or removed.
fn mutate_text(rng: &mut TestRng, valid: &str) -> String {
    let mut chars: Vec<char> = valid.chars().collect();
    let at = pick(rng, chars.len() + 1);
    let c = QUERY_ALPHABET[pick(rng, QUERY_ALPHABET.len())] as char;
    match pick(rng, 3) {
        0 if at < chars.len() => chars[at] = c,
        1 if at < chars.len() => {
            chars.remove(at);
        }
        _ => chars.insert(at, c),
    }
    chars.into_iter().collect()
}

const VALID_QUERIES: &[&str] = &[
    "Q(x) :- R(x, y), S(y)",
    "Q(x, 'a;b') :- R(x, 'a'), S(-1)",
    "Q(x) :- R(x, y); Q(y) :- S(y)",
    "Q() :- R(x, x)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Corrupted snapshots decode to `Err` or to a database whose state
    /// survives a clean re-encode; they never panic.
    #[test]
    fn corrupted_snapshots_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed);
        let valid = encode_database(&rand_db(&mut rng));
        prop_assert!(decode_database(&valid).is_ok());
        for _ in 0..8 {
            let bytes = corrupt(&mut rng, &valid);
            if let Ok(db) = decode_database(&bytes) {
                let again = decode_database(&encode_database(&db));
                prop_assert!(
                    again.is_ok_and(|d| d.same_state(&db)),
                    "decoded snapshot does not re-encode, seed {}",
                    seed
                );
            }
        }
    }

    /// Corrupted WAL delta payloads decode to `Err` or `Ok`, never a panic.
    #[test]
    fn corrupted_deltas_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0xde17_a000));
        let valid = encode_delta(&rand_delta(&mut rng));
        prop_assert!(decode_delta(&valid).is_ok());
        for _ in 0..8 {
            let _ = decode_delta(&corrupt(&mut rng, &valid));
        }
    }

    /// Random and mutated query texts parse to `Ok` or `Err`, never a
    /// panic, as a CQ and as a UCQ.
    #[test]
    fn malformed_queries_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x9a75_e000));
        let mut db = Database::new();
        db.add_relation("R", &["a", "b"]);
        db.add_relation("S", &["b"]);
        for text in VALID_QUERIES {
            prop_assert!(parse_ucq(text, db.schema()).is_ok(), "{}", text);
        }
        for _ in 0..8 {
            let text = if pick(&mut rng, 2) == 0 {
                rand_text(&mut rng)
            } else {
                let valid = VALID_QUERIES[pick(&mut rng, VALID_QUERIES.len())];
                mutate_text(&mut rng, valid)
            };
            let _ = parse_cq(&text, db.schema());
            let _ = parse_ucq(&text, db.schema());
        }
    }
}

proptest! {
    // A case replays the log once per truncation and once per overwritten
    // byte, so this block runs fewer cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// WAL replay never panics; a torn log replays exactly the transactions
    /// it still commits, and a corrupted one replays a prefix or fails
    /// closed.
    #[test]
    fn damaged_wals_replay_a_prefix_or_fail_closed(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed.wrapping_add(0x3a1_f000));
        let (valid, txns, ends) = rand_wal(&mut rng);
        let (wal, all) = replay(&valid).unwrap();
        prop_assert_eq!(&all, &txns);
        prop_assert_eq!(wal.len(), valid.len() as u64);
        let noise: Vec<u8> = (0..pick(&mut rng, 96)).map(|_| rng.next_u64() as u8).collect();
        let _ = replay(&noise);
        for cut in 0..=valid.len() {
            let kept = ends.iter().filter(|&&end| end <= cut as u64).count();
            let (wal, got) = replay(&valid[..cut]).unwrap();
            prop_assert_eq!(&got[..], &txns[..kept], "cut at {}, seed {}", cut, seed);
            prop_assert_eq!(wal.len(), if kept == 0 { 0 } else { ends[kept - 1] });
        }
        for at in 0..valid.len() {
            let mut bytes = valid.clone();
            bytes[at] ^= 1 + pick(&mut rng, 255) as u8;
            match replay(&bytes) {
                Ok((_, got)) => prop_assert!(
                    txns.starts_with(&got),
                    "overwrite at {} replayed a non-prefix, seed {}",
                    at,
                    seed
                ),
                Err(e) => prop_assert!(
                    matches!(e, StorageError::Corrupt(_)),
                    "overwrite at {}: {:?}, seed {}",
                    at,
                    e,
                    seed
                ),
            }
        }
    }
}
