//! The write-ahead log: checksummed frames with explicit commit markers.
//!
//! One committed delta is one WAL transaction: its serialized payload is
//! chunked into `DATA` frames, the frames are written and synced, and only
//! then is the `COMMIT` frame written and synced. Replay accepts a
//! transaction iff its commit frame is present and valid, so a crash
//! anywhere before the second sync loses the transaction *wholly* — never
//! partially.
//!
//! # Torn tails vs corruption
//!
//! Frames are appended strictly sequentially, each with a single
//! `write_at`, and the durable image loses unsynced suffixes wholesale
//! (see [`FaultyVfs`](super::FaultyVfs)). Under that model a file that
//! ends mid-frame is a *torn tail* — the expected residue of a crash — and
//! is silently discarded. A frame that is fully present but fails its
//! checksum, declares an impossible length, or breaks the protocol
//! (interleaved transactions, non-ascending ids) cannot be produced by a
//! crash; it is media corruption and replay fails closed with
//! [`StorageError::Corrupt`].

use super::{checksum64, StorageError, Vfs, PAGE_PAYLOAD};

/// Frame kinds.
const FRAME_DATA: u8 = 1;
const FRAME_COMMIT: u8 = 2;

/// Frame header bytes: kind (`u8`) + txn (`u64`) + payload length
/// (`u32`) + checksum (`u64`).
const FRAME_HEADER: usize = 21;

/// Maximum payload bytes per frame (page-sized, for symmetry with the
/// pager's crash granularity).
const MAX_FRAME_PAYLOAD: usize = PAGE_PAYLOAD;

/// One committed transaction as replay returns it: `(txn id, payload)`.
pub type ReplayedTxn = (u64, Vec<u8>);

/// An append-only write-ahead log over one VFS file.
#[derive(Debug)]
pub struct Wal {
    file: String,
    end: u64,
}

fn encode_frame(kind: u8, txn: u64, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload too large"
    );
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&txn.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut covered = Vec::with_capacity(13 + payload.len());
    covered.extend_from_slice(&buf[0..13]);
    covered.extend_from_slice(payload);
    buf.extend_from_slice(&checksum64(txn, &covered).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

impl Wal {
    /// Binds a WAL handle to `file` without reading it (fresh logs; use
    /// [`Wal::open_replay`] on existing ones).
    pub fn create(file: impl Into<String>) -> Self {
        Self {
            file: file.into(),
            end: 0,
        }
    }

    /// The log file name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Current valid length of the log in bytes.
    pub fn len(&self) -> u64 {
        self.end
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.end == 0
    }

    /// Appends one full transaction: data frames, sync, commit frame,
    /// sync. On `Ok`, the transaction is durable.
    pub fn append_txn(
        &mut self,
        vfs: &mut dyn Vfs,
        txn: u64,
        payload: &[u8],
    ) -> Result<(), StorageError> {
        // At least one data frame even for an empty payload, so commit
        // frames never stand alone.
        let chunks: Vec<&[u8]> = if payload.is_empty() {
            vec![&[]]
        } else {
            payload.chunks(MAX_FRAME_PAYLOAD).collect()
        };
        for chunk in chunks {
            self.append_frame(vfs, FRAME_DATA, txn, chunk)?;
        }
        vfs.sync(&self.file)?;
        self.append_frame(vfs, FRAME_COMMIT, txn, &[])?;
        vfs.sync(&self.file)?;
        Ok(())
    }

    fn append_frame(
        &mut self,
        vfs: &mut dyn Vfs,
        kind: u8,
        txn: u64,
        payload: &[u8],
    ) -> Result<(), StorageError> {
        let frame = encode_frame(kind, txn, payload);
        vfs.write_at(&self.file, self.end, &frame)?;
        self.end += frame.len() as u64;
        Ok(())
    }

    /// Truncates the log to empty (the checkpoint epilogue) and syncs.
    pub fn reset(&mut self, vfs: &mut dyn Vfs) -> Result<(), StorageError> {
        vfs.truncate(&self.file, 0)?;
        vfs.sync(&self.file)?;
        self.end = 0;
        Ok(())
    }

    /// Replays `file`: returns the committed transactions in log order and
    /// a handle positioned after the last committed frame. Torn tails
    /// (including uncommitted trailing transactions) are discarded — the
    /// file is truncated back to the valid end, idempotently — while full
    /// frames that fail validation are corruption.
    pub fn open_replay(
        vfs: &mut dyn Vfs,
        file: impl Into<String>,
    ) -> Result<(Self, Vec<ReplayedTxn>), StorageError> {
        let file = file.into();
        let file_len = if vfs.exists(&file) {
            vfs.file_len(&file)?
        } else {
            0
        };
        let mut committed: Vec<ReplayedTxn> = Vec::new();
        let mut pending: Option<(u64, Vec<u8>)> = None;
        let mut pos: u64 = 0;
        let mut valid_end: u64 = 0;
        loop {
            if pos + FRAME_HEADER as u64 > file_len {
                break; // empty or torn-tail header
            }
            let mut header = [0u8; FRAME_HEADER];
            if vfs.read_at(&file, pos, &mut header)? != FRAME_HEADER {
                break;
            }
            let kind = header[0];
            let txn = u64::from_le_bytes(header[1..9].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes")) as usize;
            let stored = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
            if len > MAX_FRAME_PAYLOAD {
                return Err(StorageError::Corrupt(format!(
                    "WAL frame at {pos} declares impossible length {len}"
                )));
            }
            if pos + (FRAME_HEADER + len) as u64 > file_len {
                break; // torn-tail payload
            }
            let mut payload = vec![0u8; len];
            if vfs.read_at(&file, pos + FRAME_HEADER as u64, &mut payload)? != len {
                break;
            }
            let mut covered = Vec::with_capacity(13 + len);
            covered.extend_from_slice(&header[0..13]);
            covered.extend_from_slice(&payload);
            if checksum64(txn, &covered) != stored {
                return Err(StorageError::Corrupt(format!(
                    "WAL frame at {pos} failed its checksum"
                )));
            }
            match kind {
                FRAME_DATA => match &mut pending {
                    Some((t, buf)) if *t == txn => buf.extend_from_slice(&payload),
                    Some((t, _)) => {
                        return Err(StorageError::Corrupt(format!(
                            "WAL interleaves txn {txn} into uncommitted txn {t}"
                        )))
                    }
                    None => pending = Some((txn, payload)),
                },
                FRAME_COMMIT => {
                    if !payload.is_empty() {
                        return Err(StorageError::Corrupt(
                            "WAL commit frame carries a payload".into(),
                        ));
                    }
                    match pending.take() {
                        Some((t, buf)) if t == txn => {
                            if committed.last().is_some_and(|(last, _)| txn <= *last) {
                                return Err(StorageError::Corrupt(format!(
                                    "WAL txn ids not ascending at txn {txn}"
                                )));
                            }
                            committed.push((txn, buf));
                            valid_end = pos + (FRAME_HEADER + len) as u64;
                        }
                        _ => {
                            return Err(StorageError::Corrupt(format!(
                                "WAL commit for txn {txn} without its data frames"
                            )))
                        }
                    }
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "WAL frame at {pos} has unknown kind {other}"
                    )))
                }
            }
            pos += (FRAME_HEADER + len) as u64;
        }
        // Discard the torn / uncommitted tail so later appends start from
        // a clean boundary. Idempotent: a crash here leaves the same tail
        // for the next replay to discard again.
        if file_len > valid_end && vfs.exists(&file) {
            vfs.truncate(&file, valid_end)?;
            vfs.sync(&file)?;
        }
        Ok((
            Self {
                file,
                end: valid_end,
            },
            committed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemVfs;
    use super::*;

    fn payload(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n]
    }

    #[test]
    fn append_replay_roundtrip_multi_frame() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create("w");
        let big = payload(MAX_FRAME_PAYLOAD * 2 + 17, 0xab); // 3 data frames
        wal.append_txn(&mut vfs, 1, b"first").unwrap();
        wal.append_txn(&mut vfs, 2, &big).unwrap();
        wal.append_txn(&mut vfs, 3, &[]).unwrap();
        let (reopened, txns) = Wal::open_replay(&mut vfs, "w").unwrap();
        assert_eq!(txns.len(), 3);
        assert_eq!(txns[0], (1, b"first".to_vec()));
        assert_eq!(txns[1], (2, big));
        assert_eq!(txns[2], (3, Vec::new()));
        assert_eq!(reopened.len(), wal.len());
    }

    #[test]
    fn torn_tail_is_silently_discarded_and_truncated() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create("w");
        wal.append_txn(&mut vfs, 1, b"keep").unwrap();
        let committed_end = wal.len();
        // Simulate a torn append: half a frame of garbage at the tail.
        vfs.write_at("w", committed_end, &[9; 10]).unwrap();
        let (reopened, txns) = Wal::open_replay(&mut vfs, "w").unwrap();
        assert_eq!(txns.len(), 1);
        assert_eq!(reopened.len(), committed_end);
        assert_eq!(vfs.file_len("w").unwrap(), committed_end, "tail truncated");
    }

    #[test]
    fn uncommitted_transaction_is_discarded() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create("w");
        wal.append_txn(&mut vfs, 1, b"committed").unwrap();
        // Data frames without a commit marker (crash before the second
        // sync — but here fully present in the file).
        wal.append_frame(&mut vfs, FRAME_DATA, 2, b"lost").unwrap();
        let (_, txns) = Wal::open_replay(&mut vfs, "w").unwrap();
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].0, 1);
    }

    #[test]
    fn full_frame_corruption_fails_closed() {
        // A flipped bit in a non-final frame is corruption, not a torn
        // tail: replay must refuse, never silently drop committed data.
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create("w");
        wal.append_txn(&mut vfs, 1, b"aaaa").unwrap();
        wal.append_txn(&mut vfs, 2, b"bbbb").unwrap();
        vfs.corrupt_byte("w", FRAME_HEADER as u64 + 1, 0x01); // payload of txn 1
        assert!(matches!(
            Wal::open_replay(&mut vfs, "w"),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn protocol_violations_fail_closed() {
        // Non-ascending txn ids.
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create("w");
        wal.append_txn(&mut vfs, 2, b"x").unwrap();
        wal.append_txn(&mut vfs, 2, b"y").unwrap();
        assert!(matches!(
            Wal::open_replay(&mut vfs, "w"),
            Err(StorageError::Corrupt(_))
        ));
        // A commit with no data frames.
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create("w");
        wal.append_frame(&mut vfs, FRAME_COMMIT, 1, &[]).unwrap();
        assert!(matches!(
            Wal::open_replay(&mut vfs, "w"),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn replaying_a_missing_log_is_empty() {
        let mut vfs = MemVfs::new();
        let (wal, txns) = Wal::open_replay(&mut vfs, "w").unwrap();
        assert!(txns.is_empty());
        assert!(wal.is_empty());
    }

    #[test]
    fn reset_truncates_and_resyncs() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create("w");
        wal.append_txn(&mut vfs, 1, b"gone after checkpoint")
            .unwrap();
        wal.reset(&mut vfs).unwrap();
        assert!(wal.is_empty());
        assert_eq!(vfs.file_len("w").unwrap(), 0);
        let (_, txns) = Wal::open_replay(&mut vfs, "w").unwrap();
        assert!(txns.is_empty());
    }
}
