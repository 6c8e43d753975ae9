//! Durable paged storage for annotated databases.
//!
//! The module cut follows the proven vfs / pager / wal shape: a [`Vfs`]
//! trait abstracts the byte store (a real file backend, an in-memory
//! backend for tests, and a fault-injecting decorator), a [`Pager`] reads
//! and writes fixed-size checksummed pages, and a [`Wal`] appends
//! checksummed frames with explicit commit markers.
//!
//! On top of those, [`DurableDatabase`] persists a
//! [`Database`](crate::Database) — columnar segments, posting lists, the
//! `ValueInterner`, and annotation columns all serialize as pages — and
//! makes [`Database::apply_delta`](crate::Database::apply_delta) a WAL
//! transaction: one applied delta is one committed WAL transaction, and
//! [`DurableDatabase::open`] recovers to the last committed delta exactly.
//!
//! # Determinism contract
//!
//! Every byte written is a pure function of the database state and the
//! delta stream — no timestamps, no randomness — so page images, WAL
//! frames, and all I/O counters reproduce across runs and machines. The
//! recovery invariant, enforced by the crash-matrix and proptest suites,
//! is: after a crash at *any* write-ordering boundary, the reopened
//! database is bit-for-bit [`Database::same_state`](crate::Database::same_state)
//! with the in-memory oracle that applied the same committed deltas.

mod codec;
mod durable;
mod faulty;
mod pager;
mod snapshot;
mod vfs;
mod wal;

pub use codec::{ByteReader, ByteWriter};
pub use durable::{validate_delta, DurableDatabase, DurableOptions, RecoveryInfo};
pub use faulty::{Fault, FaultyVfs, OpKind, OpRecord};
pub use pager::{Pager, PagerStats, PAGE_PAYLOAD, PAGE_SIZE};
pub use snapshot::{decode_database, decode_delta, encode_database, encode_delta};
pub use vfs::{shared, FileVfs, IoStats, MemVfs, SharedVfs, Vfs};
pub use wal::Wal;

use std::fmt;

/// Errors of the storage layer. Every variant is fail-closed: an error
/// poisons the durable handle and the caller must reopen (recovery replays
/// only committed state, so nothing torn is ever served).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The backing store failed or refused the operation.
    Io(String),
    /// The fault-injecting VFS crashed the process model; all I/O on this
    /// VFS fails until [`FaultyVfs::recover`] is called.
    Crashed,
    /// A page, WAL frame, snapshot, or header failed its checksum or
    /// structural validation. Corrupt state is never served.
    Corrupt(String),
    /// The named file does not exist (e.g. opening a database that was
    /// never created).
    NotFound(String),
    /// The delta cannot be made durable (stale annotation label, arity
    /// mismatch) — rejected *before* any WAL append so the log never holds
    /// a transaction that cannot replay.
    InvalidDelta(String),
    /// The durable handle saw a previous error and refuses further work;
    /// reopen to recover to the last committed state. Carries the
    /// original cause so a health endpoint can report *why* the writer is
    /// down without replaying the failure.
    Poisoned(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "storage I/O error: {m}"),
            StorageError::Crashed => write!(f, "storage crashed (injected fault)"),
            StorageError::Corrupt(m) => write!(f, "storage corruption detected: {m}"),
            StorageError::NotFound(m) => write!(f, "storage file not found: {m}"),
            StorageError::InvalidDelta(m) => write!(f, "delta rejected before WAL append: {m}"),
            StorageError::Poisoned(cause) => {
                write!(
                    f,
                    "durable handle poisoned by a previous error ({cause}); reopen"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Seed of the FNV-1a 64-bit checksum used on pages and WAL frames.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `seed` (as 8 LE bytes) followed by `bytes`.
///
/// The seed binds a checksum to its location — a page checksum seeded with
/// the page number fails if a valid page is read back from the wrong slot,
/// and WAL frame checksums are seeded with the transaction id for the same
/// reason. Hand-rolled (like the bench JSON) so the on-disk format has no
/// dependency beyond the standard library.
pub fn checksum64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in seed.to_le_bytes().into_iter().chain(bytes.iter().copied()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_seed_and_content_sensitive() {
        let a = checksum64(0, b"hello");
        assert_eq!(a, checksum64(0, b"hello"), "deterministic");
        assert_ne!(a, checksum64(1, b"hello"), "seed participates");
        assert_ne!(a, checksum64(0, b"hellp"), "content participates");
        assert_ne!(checksum64(0, b""), 0, "empty input still mixes the seed");
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(StorageError::Corrupt("page 3".into())
            .to_string()
            .contains("page 3"));
        assert!(StorageError::Poisoned("io".into())
            .to_string()
            .contains("reopen"));
    }
}
