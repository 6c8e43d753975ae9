//! Byte codecs for whole databases (checkpoints) and deltas (WAL
//! transaction payloads).
//!
//! The snapshot pins an exact on-page order: schema, annotation registry,
//! retirement set, value interner, then per relation the **columns before
//! the posting lists** — the order [`Database::delete`](crate::Database::delete)
//! pins its in-memory mutations against — and finally the annotation
//! columns and index flag. Posting lists persist their row vectors
//! *verbatim* (contents and order): row order inside a posting list is
//! observable through candidate enumeration and is path-dependent under
//! swap-remove deletes, so rebuilding indexes on open would not be
//! bit-for-bit recovery.
//!
//! Decoding is fail-closed and validating: beyond the page/frame
//! checksums underneath, every id is range-checked, every annotation tags
//! at most one live tuple, and every posting entry is cross-checked
//! against the column it indexes — a snapshot that decodes is a snapshot
//! whose invariants hold.

use super::codec::{ByteReader, ByteWriter};
use super::StorageError;
use crate::database::{data_mut, RelationData};
use crate::vintern::ValueId;
use crate::{Database, Delta, RelId, Tuple, TupleRef, Value};
use provabs_semiring::AnnotId;
use std::collections::HashMap;
use std::sync::Arc;

const SNAP_MAGIC: u32 = 0x5053_4e50; // "PSNP"
const DELTA_MAGIC: u32 = 0x5044_4c54; // "PDLT"
const FORMAT_VERSION: u32 = 1;

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;

/// Caps an untrusted element count so pre-allocation never exceeds what
/// the remaining input could actually encode (≥ 4 bytes per element) — a
/// flipped count field must surface as [`StorageError::Corrupt`], not as
/// an allocation abort.
fn bounded_cap(n: usize, remaining: usize) -> usize {
    n.min(remaining / 4)
}

fn write_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(TAG_INT);
            w.i64(*i);
        }
        Value::Str(s) => {
            w.u8(TAG_STR);
            w.str(s);
        }
    }
}

fn read_value(r: &mut ByteReader<'_>) -> Result<Value, StorageError> {
    match r.u8()? {
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_STR => Ok(Value::str(&r.str()?)),
        tag => Err(StorageError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

/// Serializes the full state of `db` deterministically (no hash-map
/// iteration order leaks: posting lists are emitted sorted by key).
pub fn encode_database(db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(SNAP_MAGIC);
    w.u32(FORMAT_VERSION);
    // Schema, in relation-id order.
    w.u32(db.schema.len() as u32);
    for rel in db.schema.relation_ids() {
        let rs = db.schema.relation(rel);
        w.str(&rs.name);
        w.u32(rs.columns.len() as u32);
        for c in &rs.columns {
            w.str(c);
        }
    }
    // Annotation registry, in id order.
    w.u32(db.annots.len() as u32);
    for id in db.annots.ids() {
        w.str(db.annots.name(id));
    }
    // Retirement set, sorted.
    let mut retired: Vec<u32> = db.retired.iter().map(|a| a.0).collect();
    retired.sort_unstable();
    w.u32(retired.len() as u32);
    for a in retired {
        w.u32(a);
    }
    // Value interner, in id order.
    w.u32(db.values.len() as u32);
    for i in 0..db.values.len() as u32 {
        write_value(&mut w, db.values.value(ValueId(i)));
    }
    // Relations: columns first, then annotations.
    for data in &db.relations {
        w.u64(data.annots.len() as u64);
        for col in &data.columns {
            for &v in col {
                w.u32(v.0);
            }
        }
        for &a in &data.annots {
            w.u32(a.0);
        }
    }
    // Posting lists, after every column of every relation.
    w.u8(u8::from(db.indexed));
    if db.indexed {
        for data in &db.relations {
            for idx in &data.indexes {
                let mut keys: Vec<ValueId> = idx.keys().copied().collect();
                keys.sort_unstable();
                w.u32(keys.len() as u32);
                for k in keys {
                    let rows = &idx[&k];
                    w.u32(k.0);
                    w.u32(rows.len() as u32);
                    for &row in rows {
                        w.u32(row);
                    }
                }
            }
        }
    }
    w.into_bytes()
}

/// Decodes and validates a snapshot produced by [`encode_database`].
pub fn decode_database(bytes: &[u8]) -> Result<Database, StorageError> {
    let mut r = ByteReader::new(bytes);
    if r.u32()? != SNAP_MAGIC {
        return Err(StorageError::Corrupt("snapshot magic mismatch".into()));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported snapshot format version {version}"
        )));
    }
    let mut db = Database::new();
    // Schema. Rebuilding through the public path reproduces dense ids;
    // what that path would panic on (too many relations for a `RelId`, a
    // name declared twice) is checked here first.
    let nrels = r.u32()? as usize;
    if nrels > usize::from(u16::MAX) + 1 {
        return Err(StorageError::Corrupt(format!(
            "{nrels} relations exceed the relation id space"
        )));
    }
    for _ in 0..nrels {
        let name = r.str()?;
        if db.schema.relation_id(&name).is_some() {
            return Err(StorageError::Corrupt(format!(
                "relation '{name}' declared twice in snapshot"
            )));
        }
        let ncols = r.u32()? as usize;
        let cols: Vec<String> = (0..ncols).map(|_| r.str()).collect::<Result<_, _>>()?;
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        db.schema.add_relation(&name, &col_refs);
        db.relations.push(Arc::new(RelationData {
            columns: vec![Vec::new(); ncols],
            ..Default::default()
        }));
    }
    // Annotation registry: labels must be distinct, ids dense.
    let nannots = r.u32()? as usize;
    for i in 0..nannots {
        let label = r.str()?;
        let id = db.annots.intern(&label);
        if id.0 as usize != i {
            return Err(StorageError::Corrupt(format!(
                "duplicate annotation label '{label}' in snapshot"
            )));
        }
    }
    // Retirement set.
    let nretired = r.u32()? as usize;
    for _ in 0..nretired {
        let a = r.u32()?;
        if a as usize >= nannots {
            return Err(StorageError::Corrupt(format!(
                "retired annotation {a} out of range"
            )));
        }
        db.retired.insert(AnnotId(a));
    }
    // Value interner: values must be distinct, ids dense.
    let nvalues = r.u32()? as usize;
    for i in 0..nvalues {
        let v = read_value(&mut r)?;
        let id = db.values.intern(v);
        if id.0 as usize != i {
            return Err(StorageError::Corrupt(
                "duplicate interned value in snapshot".into(),
            ));
        }
    }
    // Relations.
    for rel_idx in 0..nrels {
        let nrows = usize::try_from(r.u64()?)
            .map_err(|_| StorageError::Corrupt("row count exceeds usize".into()))?;
        let ncols = db.relations[rel_idx].columns.len();
        let rel = RelId(rel_idx as u16);
        for col in 0..ncols {
            let mut column = Vec::with_capacity(bounded_cap(nrows, r.remaining()));
            for _ in 0..nrows {
                let v = r.u32()?;
                if v as usize >= nvalues {
                    return Err(StorageError::Corrupt(format!(
                        "value id {v} out of range in relation {rel_idx} column {col}"
                    )));
                }
                column.push(ValueId(v));
            }
            data_mut(&mut db.relations[rel_idx]).columns[col] = column;
        }
        let mut annots = Vec::with_capacity(bounded_cap(nrows, r.remaining()));
        for row in 0..nrows {
            let a = r.u32()?;
            if a as usize >= nannots {
                return Err(StorageError::Corrupt(format!(
                    "annotation id {a} out of range in relation {rel_idx}"
                )));
            }
            let id = AnnotId(a);
            if db.retired.contains(&id) {
                return Err(StorageError::Corrupt(format!(
                    "retired annotation {a} tags a live tuple"
                )));
            }
            if db.annot_loc.insert(id, TupleRef { rel, row }).is_some() {
                return Err(StorageError::Corrupt(format!(
                    "annotation {a} tags two tuples in snapshot"
                )));
            }
            annots.push(id);
        }
        data_mut(&mut db.relations[rel_idx]).annots = annots;
    }
    // Posting lists, cross-checked against the columns they index.
    let indexed = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(StorageError::Corrupt(format!(
                "indexed flag has impossible value {other}"
            )))
        }
    };
    db.indexed = indexed;
    if indexed {
        for rel_idx in 0..nrels {
            let ncols = db.relations[rel_idx].columns.len();
            let nrows = db.relations[rel_idx].annots.len();
            let mut indexes = Vec::with_capacity(ncols);
            for col in 0..ncols {
                let nkeys = r.u32()? as usize;
                let mut idx: HashMap<ValueId, Vec<u32>> =
                    HashMap::with_capacity(bounded_cap(nkeys, r.remaining()));
                let mut total = 0usize;
                for _ in 0..nkeys {
                    let key = ValueId(r.u32()?);
                    let count = r.u32()? as usize;
                    if count == 0 {
                        return Err(StorageError::Corrupt("empty posting list persisted".into()));
                    }
                    let mut rows = Vec::with_capacity(bounded_cap(count, r.remaining()));
                    for _ in 0..count {
                        let row = r.u32()?;
                        if row as usize >= nrows {
                            return Err(StorageError::Corrupt(format!(
                                "posting row {row} out of range in relation {rel_idx}"
                            )));
                        }
                        if db.relations[rel_idx].columns[col][row as usize] != key {
                            return Err(StorageError::Corrupt(format!(
                                "posting list of relation {rel_idx} column {col} \
                                 disagrees with the column at row {row}"
                            )));
                        }
                        rows.push(row);
                    }
                    total += count;
                    if idx.insert(key, rows).is_some() {
                        return Err(StorageError::Corrupt(
                            "duplicate posting key in snapshot".into(),
                        ));
                    }
                }
                if total != nrows {
                    return Err(StorageError::Corrupt(format!(
                        "posting lists of relation {rel_idx} column {col} cover \
                         {total} of {nrows} rows"
                    )));
                }
                indexes.push(idx);
            }
            data_mut(&mut db.relations[rel_idx]).indexes = indexes;
        }
    }
    r.expect_end()?;
    Ok(db)
}

/// Serializes a [`Delta`] as a WAL transaction payload.
pub fn encode_delta(delta: &Delta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(DELTA_MAGIC);
    w.u32(delta.inserts.len() as u32);
    for ins in &delta.inserts {
        w.u32(u32::from(ins.rel.0));
        w.str(&ins.label);
        w.u32(ins.tuple.arity() as u32);
        for i in 0..ins.tuple.arity() {
            write_value(&mut w, &ins.tuple[i]);
        }
    }
    w.u32(delta.deletes.len() as u32);
    for a in &delta.deletes {
        w.u32(a.0);
    }
    w.into_bytes()
}

/// Decodes a WAL transaction payload back into a [`Delta`]. Structural
/// only: referential checks (relation ids, arities, label freshness)
/// happen against the live database in the durability layer.
pub fn decode_delta(bytes: &[u8]) -> Result<Delta, StorageError> {
    let mut r = ByteReader::new(bytes);
    if r.u32()? != DELTA_MAGIC {
        return Err(StorageError::Corrupt("delta magic mismatch".into()));
    }
    let mut delta = Delta::new();
    let ninserts = r.u32()? as usize;
    for _ in 0..ninserts {
        let rel = r.u32()?;
        let rel = u16::try_from(rel)
            .map_err(|_| StorageError::Corrupt(format!("relation id {rel} out of range")))?;
        let label = r.str()?;
        let arity = r.u32()? as usize;
        let values: Vec<Value> = (0..arity)
            .map(|_| read_value(&mut r))
            .collect::<Result<_, _>>()?;
        delta.insert(RelId(rel), label, Tuple::new(values));
    }
    let ndeletes = r.u32()? as usize;
    for _ in 0..ndeletes {
        delta.delete(AnnotId(r.u32()?));
    }
    r.expect_end()?;
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_db(indexed: bool) -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        let s = db.add_relation("S", &["b"]);
        db.insert_str(r, "r1", &["1", "x"]);
        db.insert_str(r, "r2", &["2", "x"]);
        db.insert_str(r, "r3", &["1", "y"]);
        db.insert_str(s, "s1", &["x"]);
        if indexed {
            db.build_indexes();
        }
        // A delete makes the posting-list row order path-dependent and
        // populates the retirement set.
        let r1 = db.annotations().get("r1").unwrap();
        db.delete(r1).unwrap();
        db
    }

    #[test]
    fn database_roundtrips_bit_for_bit() {
        for indexed in [false, true] {
            let db = build_db(indexed);
            let decoded = decode_database(&encode_database(&db)).unwrap();
            assert!(db.same_state(&decoded), "indexed={indexed}");
            // Encoding is deterministic (no hash-order leaks).
            assert_eq!(encode_database(&db), encode_database(&decoded));
        }
    }

    #[test]
    fn duplicate_relation_name_is_corrupt_not_a_panic() {
        let mut db = Database::new();
        db.add_relation("R", &["a"]);
        db.add_relation("S", &["a"]);
        let mut bytes = encode_database(&db);
        // Patch the second relation's one-byte name `S` to `R`.
        let at = bytes.iter().rposition(|&b| b == b'S').unwrap();
        bytes[at] = b'R';
        let err = decode_database(&bytes).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("declared twice")),
            "{err}"
        );
    }

    #[test]
    fn relation_count_beyond_the_id_space_is_corrupt_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u32(SNAP_MAGIC);
        w.u32(FORMAT_VERSION);
        let nrels = usize::from(u16::MAX) + 2;
        w.u32(nrels as u32);
        for i in 0..nrels {
            w.str(&format!("R{i}"));
            w.u32(0);
        }
        let err = decode_database(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("relation id space")),
            "{err}"
        );
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let decoded = decode_database(&encode_database(&db)).unwrap();
        assert!(db.same_state(&decoded));
    }

    #[test]
    fn delta_roundtrips() {
        let mut delta = Delta::new();
        delta.insert(RelId(0), "u1", Tuple::parse(&["7", "seven"]));
        delta.insert(RelId(3), "u2", Tuple::new(Vec::new()));
        delta.delete(AnnotId(42));
        let decoded = decode_delta(&encode_delta(&delta)).unwrap();
        assert_eq!(delta, decoded);
    }

    #[test]
    fn byte_flips_anywhere_fail_closed() {
        let db = build_db(true);
        let bytes = encode_database(&db);
        // Every single-byte flip must either be detected or decode to the
        // identical state (a flip can land in redundant length slack).
        // Stronger: here we assert detection-or-equality across a spread
        // of offsets covering every section.
        let step = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x04;
            match decode_database(&bad) {
                Err(StorageError::Corrupt(_)) => {}
                Err(other) => panic!("unexpected error at {pos}: {other}"),
                Ok(decoded) => assert!(
                    !decoded.same_state(&db),
                    "flip at byte {pos} silently decoded to the same state"
                ),
            }
        }
        let truncated = &bytes[..bytes.len() - 1];
        assert!(matches!(
            decode_database(truncated),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn validation_rejects_cross_referential_lies() {
        let db = build_db(true);
        let good = encode_database(&db);
        assert!(decode_database(&good).is_ok());
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(decode_database(&bad).is_err());
        // Future version.
        let mut bad = good;
        bad[4] = 99;
        assert!(decode_database(&bad).is_err());
    }
}
