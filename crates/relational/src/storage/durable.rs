//! The durable database: snapshots + WAL + recovery.
//!
//! # File layout
//!
//! A database named `base` owns four files:
//!
//! * `base.db` — one header page: magic, format version, which snapshot
//!   file is active, the epoch, how many transactions the active snapshot
//!   embodies, and the snapshot's page count and byte length.
//! * `base.snap0` / `base.snap1` — double-buffered full snapshots, written
//!   as checksummed pages ([`encode_database`](super::encode_database)).
//! * `base.wal` — the write-ahead log ([`Wal`](super::Wal)).
//!
//! # Commit protocol (one applied delta = one WAL transaction)
//!
//! [`DurableDatabase::apply_delta`] validates the delta against the live
//! state (fail-closed: nothing unreplayable ever enters the log), appends
//! its serialized form as WAL data frames, syncs, appends the commit
//! marker, syncs again, and only then applies the delta in memory. A crash
//! before the commit-marker sync loses the whole transaction; after it,
//! recovery replays it exactly.
//!
//! # Checkpoint protocol
//!
//! [`DurableDatabase::checkpoint`] writes a fresh snapshot into the
//! *inactive* snapshot file, syncs it, then flips the header (new active
//! file, bumped epoch, transaction watermark) with a single page write +
//! sync — the atomic commit point — and finally truncates the WAL. A crash
//! between the header flip and the WAL truncate is benign: replay skips
//! transactions at or below the header watermark.
//!
//! # Recovery invariant
//!
//! [`DurableDatabase::open`] = decode the active snapshot, replay every
//! committed WAL transaction above the watermark, in order. The resulting
//! state is bit-for-bit [`Database::same_state`] with an in-memory oracle
//! that applied the same committed deltas — the property the crash-matrix
//! and proptest suites enforce at every injected crash point.

use super::codec::{ByteReader, ByteWriter};
use super::snapshot::{decode_database, decode_delta, encode_database, encode_delta};
use super::{Pager, PagerStats, SharedVfs, StorageError, Wal, PAGE_PAYLOAD};
use crate::{AppliedDelta, Database, Delta};
use std::collections::HashSet;

const HEADER_MAGIC: u32 = 0x5044_4248; // "PDBH"
const FORMAT_VERSION: u32 = 1;

/// Tuning knobs for a [`DurableDatabase`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// Checkpoint automatically after this many WAL transactions. `0`,
    /// the default, checkpoints only on explicit
    /// [`DurableDatabase::checkpoint`] calls.
    pub checkpoint_every: u64,
}

/// What [`DurableDatabase::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Transactions embodied by the snapshot that was decoded.
    pub snapshot_txns: u64,
    /// Committed WAL transactions replayed on top of it.
    pub replayed_txns: u64,
    /// Total committed transactions now live (`snapshot + replayed`).
    pub committed_txns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Header {
    active_snap: u8,
    epoch: u64,
    applied_txns: u64,
    snap_pages: u32,
    snap_bytes: u64,
}

fn encode_header(h: &Header) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(HEADER_MAGIC);
    w.u32(FORMAT_VERSION);
    w.u8(h.active_snap);
    w.u64(h.epoch);
    w.u64(h.applied_txns);
    w.u32(h.snap_pages);
    w.u64(h.snap_bytes);
    w.into_bytes()
}

fn decode_header(bytes: &[u8]) -> Result<Header, StorageError> {
    let mut r = ByteReader::new(bytes);
    if r.u32()? != HEADER_MAGIC {
        return Err(StorageError::Corrupt("header magic mismatch".into()));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported database format version {version}"
        )));
    }
    let active_snap = r.u8()?;
    if active_snap > 1 {
        return Err(StorageError::Corrupt(format!(
            "active snapshot index {active_snap} out of range"
        )));
    }
    let h = Header {
        active_snap,
        epoch: r.u64()?,
        applied_txns: r.u64()?,
        snap_pages: r.u32()?,
        snap_bytes: r.u64()?,
    };
    r.expect_end()?;
    Ok(h)
}

/// A [`Database`] with durable paged storage and write-ahead logging.
///
/// All mutation flows through [`DurableDatabase::apply_delta`]; reads go
/// through [`DurableDatabase::db`]. Any storage error poisons the handle
/// (every later call fails with [`StorageError::Poisoned`]) — the durable
/// truth is then whatever [`DurableDatabase::open`] recovers.
#[derive(Debug)]
pub struct DurableDatabase {
    vfs: SharedVfs,
    db: Database,
    opts: DurableOptions,
    header_pager: Pager,
    snap_pagers: [Pager; 2],
    wal: Wal,
    active_snap: u8,
    epoch: u64,
    applied_txns: u64,
    wal_txns: u64,
    poisoned: Option<String>,
}

fn header_file(base: &str) -> String {
    format!("{base}.db")
}
fn snap_file(base: &str, which: u8) -> String {
    format!("{base}.snap{which}")
}
fn wal_file(base: &str) -> String {
    format!("{base}.wal")
}

/// Rejects anything [`Database::apply_delta`] would panic on, so the WAL
/// never holds a transaction that cannot replay: bad relation ids, arity
/// mismatches, reused (live or retired) annotation labels — including
/// duplicates within the batch itself.
///
/// Public because the non-durable update path wants the same fail-closed
/// boundary: [`Updater::try_apply`](crate::Updater::try_apply) validates
/// through here so a bad delta is a typed error, never a panic.
pub fn validate_delta(db: &Database, delta: &Delta) -> Result<(), StorageError> {
    let mut batch_labels: HashSet<&str> = HashSet::new();
    for ins in &delta.inserts {
        if usize::from(ins.rel.0) >= db.schema().len() {
            return Err(StorageError::InvalidDelta(format!(
                "unknown relation id {}",
                ins.rel.0
            )));
        }
        if ins.tuple.arity() != db.schema().arity(ins.rel) {
            return Err(StorageError::InvalidDelta(format!(
                "arity {} tuple for {}",
                ins.tuple.arity(),
                db.schema().relation_name(ins.rel)
            )));
        }
        if !batch_labels.insert(&ins.label) {
            return Err(StorageError::InvalidDelta(format!(
                "label '{}' inserted twice in one delta",
                ins.label
            )));
        }
        if let Some(id) = db.annotations().get(&ins.label) {
            if db.locate(id).is_some() {
                return Err(StorageError::InvalidDelta(format!(
                    "label '{}' already tags a tuple",
                    ins.label
                )));
            }
            if db.is_retired(id) {
                return Err(StorageError::InvalidDelta(format!(
                    "label '{}' tagged a deleted tuple and may not be reused",
                    ins.label
                )));
            }
        }
    }
    Ok(())
}

impl DurableDatabase {
    /// Creates a fresh durable database at `base` from `db`, overwriting
    /// any previous one: writes the initial checkpoint and an empty WAL.
    pub fn create(
        vfs: SharedVfs,
        base: &str,
        db: Database,
        opts: DurableOptions,
    ) -> Result<Self, StorageError> {
        {
            let mut v = lock(&vfs)?;
            for f in [
                header_file(base),
                snap_file(base, 0),
                snap_file(base, 1),
                wal_file(base),
            ] {
                v.delete(&f)?;
            }
        }
        let mut this = Self {
            vfs,
            db,
            opts,
            header_pager: Pager::new(header_file(base)),
            snap_pagers: [
                Pager::new(snap_file(base, 0)),
                Pager::new(snap_file(base, 1)),
            ],
            wal: Wal::create(wal_file(base)),
            active_snap: 1, // first checkpoint flips to 0
            epoch: 0,
            applied_txns: 0,
            wal_txns: 0,
            poisoned: None,
        };
        this.checkpoint()?;
        Ok(this)
    }

    /// Opens the durable database at `base`, recovering to the last
    /// committed delta: active snapshot + committed WAL suffix.
    pub fn open(
        vfs: SharedVfs,
        base: &str,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryInfo), StorageError> {
        let mut header_pager = Pager::new(header_file(base));
        let mut snap_pagers = [
            Pager::new(snap_file(base, 0)),
            Pager::new(snap_file(base, 1)),
        ];
        let (header, db, wal, replayed);
        {
            let mut v = lock(&vfs)?;
            if !v.exists(&header_file(base)) {
                return Err(StorageError::NotFound(header_file(base)));
            }
            header = decode_header(&header_pager.read_page(&mut *v, 0)?)?;
            // Reassemble the active snapshot from its pages. The header
            // pins both the page count and the exact byte length, so a
            // truncated or padded snapshot file cannot slip through.
            let pager = &mut snap_pagers[usize::from(header.active_snap)];
            let mut bytes = Vec::with_capacity(header.snap_bytes as usize);
            for page in 0..header.snap_pages {
                bytes.extend_from_slice(&pager.read_page(&mut *v, page)?);
            }
            if bytes.len() as u64 != header.snap_bytes {
                return Err(StorageError::Corrupt(format!(
                    "snapshot reassembled to {} bytes, header pins {}",
                    bytes.len(),
                    header.snap_bytes
                )));
            }
            let mut recovered = decode_database(&bytes)?;
            // Replay the committed WAL suffix above the snapshot
            // watermark, in order, contiguously.
            let (w, txns) = Wal::open_replay(&mut *v, wal_file(base))?;
            let mut applied = header.applied_txns;
            let mut count = 0u64;
            for (txn, payload) in txns {
                if txn <= header.applied_txns {
                    continue; // pre-checkpoint residue (crash before WAL truncate)
                }
                if txn != applied + 1 {
                    return Err(StorageError::Corrupt(format!(
                        "WAL transaction gap: expected {}, found {txn}",
                        applied + 1
                    )));
                }
                let delta = decode_delta(&payload)?;
                validate_delta(&recovered, &delta).map_err(|e| {
                    StorageError::Corrupt(format!(
                        "committed WAL transaction {txn} unreplayable: {e}"
                    ))
                })?;
                recovered.apply_delta(&delta);
                applied += 1;
                count += 1;
            }
            db = recovered;
            wal = w;
            replayed = count;
        }
        let applied_txns = header.applied_txns + replayed;
        let info = RecoveryInfo {
            snapshot_txns: header.applied_txns,
            replayed_txns: replayed,
            committed_txns: applied_txns,
        };
        Ok((
            Self {
                vfs,
                db,
                opts,
                header_pager,
                snap_pagers,
                wal,
                active_snap: header.active_snap,
                epoch: header.epoch,
                applied_txns,
                wal_txns: replayed,
                poisoned: None,
            },
            info,
        ))
    }

    /// The live database (read access).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Committed transactions so far.
    pub fn committed_txns(&self) -> u64 {
        self.applied_txns
    }

    /// Whether a prior error poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The error that poisoned this handle, if any — what a service
    /// health endpoint reports while serving reads in degraded mode.
    pub fn poison_cause(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Builds the in-memory indexes (see [`Database::build_indexes`]).
    /// Like all in-memory state they become durable at the next
    /// checkpoint.
    pub fn build_indexes(&mut self) {
        self.db.build_indexes();
    }

    /// Aggregated pager counters (header + both snapshot files).
    pub fn pager_stats(&self) -> PagerStats {
        let mut total = PagerStats::default();
        for p in [
            &self.header_pager,
            &self.snap_pagers[0],
            &self.snap_pagers[1],
        ] {
            let s = p.stats();
            total.pages_read += s.pages_read;
            total.pages_written += s.pages_written;
        }
        total
    }

    /// Applies `delta` as one WAL transaction: validate, log, sync,
    /// commit-mark, sync, then apply in memory (and auto-checkpoint if
    /// configured). On `Ok` the delta is durable; on `Err` nothing of it
    /// is, and I/O errors poison the handle.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<AppliedDelta, StorageError> {
        if let Some(cause) = &self.poisoned {
            return Err(StorageError::Poisoned(cause.clone()));
        }
        // Validation failures reject cleanly without poisoning: durable
        // state is untouched and the handle remains usable.
        validate_delta(&self.db, delta)?;
        let txn = self.applied_txns + 1;
        let payload = encode_delta(delta);
        let logged = match lock(&self.vfs) {
            Ok(mut v) => self.wal.append_txn(&mut *v, txn, &payload),
            Err(e) => Err(e),
        };
        if let Err(e) = logged {
            return Err(self.poison(e));
        }
        // Durable. The in-memory apply cannot fail (the delta was
        // validated against exactly this state).
        let applied = self.db.apply_delta(delta);
        self.applied_txns = txn;
        self.wal_txns += 1;
        if self.opts.checkpoint_every > 0 && self.wal_txns >= self.opts.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(applied)
    }

    /// Writes a full snapshot to the inactive file, flips the header, and
    /// truncates the WAL (see the module docs for the crash analysis).
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        if let Some(cause) = &self.poisoned {
            return Err(StorageError::Poisoned(cause.clone()));
        }
        let target = 1 - self.active_snap;
        if let Err(e) = self.checkpoint_inner(target) {
            return Err(self.poison(e));
        }
        self.active_snap = target;
        self.epoch += 1;
        self.wal_txns = 0;
        Ok(())
    }

    fn checkpoint_inner(&mut self, target: u8) -> Result<(), StorageError> {
        let bytes = encode_database(&self.db);
        let pages: Vec<&[u8]> = bytes.chunks(PAGE_PAYLOAD).collect();
        let snap_name = self.snap_pagers[usize::from(target)].file().to_owned();
        let header_name = self.header_pager.file().to_owned();
        let mut v = lock(&self.vfs)?;
        let pager = &mut self.snap_pagers[usize::from(target)];
        for (i, chunk) in pages.iter().enumerate() {
            pager.write_page(&mut *v, i as u32, chunk)?;
        }
        // Drop stale pages beyond the new snapshot so the file length
        // matches what the header will claim.
        v.truncate(&snap_name, pages.len() as u64 * super::PAGE_SIZE as u64)?;
        v.sync(&snap_name)?;
        // The atomic commit point: one header page write + sync.
        let header = Header {
            active_snap: target,
            epoch: self.epoch + 1,
            applied_txns: self.applied_txns,
            snap_pages: pages.len() as u32,
            snap_bytes: bytes.len() as u64,
        };
        self.header_pager
            .write_page(&mut *v, 0, &encode_header(&header))?;
        v.sync(&header_name)?;
        // Epilogue: the WAL is now fully embodied by the snapshot.
        self.wal.reset(&mut *v)?;
        Ok(())
    }

    fn poison(&mut self, e: StorageError) -> StorageError {
        if !matches!(e, StorageError::InvalidDelta(_)) {
            self.poisoned = Some(e.to_string());
        }
        e
    }
}

fn lock(
    vfs: &SharedVfs,
) -> Result<std::sync::MutexGuard<'_, dyn super::Vfs + Send + 'static>, StorageError> {
    vfs.lock()
        .map_err(|_| StorageError::Io("VFS lock poisoned".into()))
}

#[cfg(test)]
mod tests {
    use super::super::{shared, MemVfs};
    use super::*;
    use crate::{Tuple, Value};

    fn seed_db() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        db.insert_str(r, "r1", &["1", "x"]);
        db.insert_str(r, "r2", &["2", "y"]);
        db.build_indexes();
        db
    }

    fn delta_ins(db: &Database, label: &str, a: &str, b: &str) -> Delta {
        let r = db.schema().relation_id("R").unwrap();
        let mut d = Delta::new();
        d.insert(r, label, Tuple::parse(&[a, b]));
        d
    }

    #[test]
    fn create_apply_reopen_recovers_exactly() {
        let vfs = shared(MemVfs::new());
        let mut ddb =
            DurableDatabase::create(vfs.clone(), "t", seed_db(), DurableOptions::default())
                .unwrap();
        ddb.apply_delta(&delta_ins(ddb.db(), "r3", "3", "z"))
            .unwrap();
        let mut d = Delta::new();
        d.delete(ddb.db().annotations().get("r1").unwrap());
        ddb.apply_delta(&d).unwrap();
        assert_eq!(ddb.committed_txns(), 2);
        let live = ddb.db().clone();
        drop(ddb);
        let (re, info) = DurableDatabase::open(vfs, "t", DurableOptions::default()).unwrap();
        assert_eq!(
            info,
            RecoveryInfo {
                snapshot_txns: 0,
                replayed_txns: 2,
                committed_txns: 2
            }
        );
        assert!(re.db().same_state(&live));
    }

    #[test]
    fn checkpoint_moves_the_watermark_and_empties_the_wal() {
        let vfs = shared(MemVfs::new());
        let mut ddb =
            DurableDatabase::create(vfs.clone(), "t", seed_db(), DurableOptions::default())
                .unwrap();
        ddb.apply_delta(&delta_ins(ddb.db(), "r3", "3", "z"))
            .unwrap();
        ddb.checkpoint().unwrap();
        ddb.apply_delta(&delta_ins(ddb.db(), "r4", "4", "w"))
            .unwrap();
        let live = ddb.db().clone();
        drop(ddb);
        let (re, info) = DurableDatabase::open(vfs, "t", DurableOptions::default()).unwrap();
        assert_eq!(
            info,
            RecoveryInfo {
                snapshot_txns: 1,
                replayed_txns: 1,
                committed_txns: 2
            }
        );
        assert!(re.db().same_state(&live));
    }

    #[test]
    fn auto_checkpoint_triggers_on_threshold() {
        let vfs = shared(MemVfs::new());
        let opts = DurableOptions {
            checkpoint_every: 2,
        };
        let mut ddb = DurableDatabase::create(vfs.clone(), "t", seed_db(), opts).unwrap();
        ddb.apply_delta(&delta_ins(ddb.db(), "r3", "3", "z"))
            .unwrap();
        ddb.apply_delta(&delta_ins(ddb.db(), "r4", "4", "w"))
            .unwrap();
        drop(ddb);
        let (_, info) = DurableDatabase::open(vfs, "t", opts).unwrap();
        assert_eq!(info.snapshot_txns, 2, "second delta checkpointed");
        assert_eq!(info.replayed_txns, 0);
    }

    #[test]
    fn invalid_deltas_reject_cleanly_before_the_wal() {
        let vfs = shared(MemVfs::new());
        let mut ddb =
            DurableDatabase::create(vfs.clone(), "t", seed_db(), DurableOptions::default())
                .unwrap();
        // Live label reuse.
        assert!(matches!(
            ddb.apply_delta(&delta_ins(ddb.db(), "r1", "9", "q")),
            Err(StorageError::InvalidDelta(_))
        ));
        // Retired label reuse.
        let mut d = Delta::new();
        d.delete(ddb.db().annotations().get("r2").unwrap());
        ddb.apply_delta(&d).unwrap();
        assert!(matches!(
            ddb.apply_delta(&delta_ins(ddb.db(), "r2", "9", "q")),
            Err(StorageError::InvalidDelta(_))
        ));
        // Arity mismatch.
        let r = ddb.db().schema().relation_id("R").unwrap();
        let mut d = Delta::new();
        d.insert(r, "bad", Tuple::new(vec![Value::int(1)]));
        assert!(matches!(
            ddb.apply_delta(&d),
            Err(StorageError::InvalidDelta(_))
        ));
        // Duplicate label within one batch.
        let mut d = Delta::new();
        d.insert(r, "dup", Tuple::parse(&["1", "1"]));
        d.insert(r, "dup", Tuple::parse(&["2", "2"]));
        assert!(matches!(
            ddb.apply_delta(&d),
            Err(StorageError::InvalidDelta(_))
        ));
        assert!(!ddb.is_poisoned(), "validation failures must not poison");
        // The handle still works and the log replays cleanly.
        ddb.apply_delta(&delta_ins(ddb.db(), "ok", "5", "v"))
            .unwrap();
        let live = ddb.db().clone();
        drop(ddb);
        let (re, _) = DurableDatabase::open(vfs, "t", DurableOptions::default()).unwrap();
        assert!(re.db().same_state(&live));
    }

    #[test]
    fn opening_nothing_is_not_found() {
        let vfs = shared(MemVfs::new());
        assert!(matches!(
            DurableDatabase::open(vfs, "absent", DurableOptions::default()),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn create_overwrites_previous_database() {
        let vfs = shared(MemVfs::new());
        let mut ddb =
            DurableDatabase::create(vfs.clone(), "t", seed_db(), DurableOptions::default())
                .unwrap();
        ddb.apply_delta(&delta_ins(ddb.db(), "r3", "3", "z"))
            .unwrap();
        drop(ddb);
        let fresh =
            DurableDatabase::create(vfs.clone(), "t", Database::new(), DurableOptions::default())
                .unwrap();
        let live = fresh.db().clone();
        drop(fresh);
        let (re, info) = DurableDatabase::open(vfs, "t", DurableOptions::default()).unwrap();
        assert_eq!(info.committed_txns, 0);
        assert!(re.db().same_state(&live));
        assert!(re.db().is_empty());
    }
}
