//! Fixed-size checksummed pages.
//!
//! Every durable structure except the WAL lives in 4 KiB pages. A page
//! carries its payload length, its own page number (so a page read back
//! from the wrong slot fails), and an FNV-1a checksum seeded with the page
//! number covering the header and payload; the zero padding is verified on
//! read, so *any* flipped bit in a page is detected. One page is written
//! with exactly one `write_at`, which makes page boundaries the crash
//! granularity the fault-injection suite sweeps. The pager keeps no page
//! cache: recovery reads each header and snapshot page once, and a
//! checkpoint only writes.

use super::{checksum64, StorageError, Vfs};

/// Size of one page on disk.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of page header: payload length (`u32`), page-number echo
/// (`u32`), checksum (`u64`).
const PAGE_HEADER: usize = 16;

/// Usable payload bytes per page.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;

/// Deterministic pager counters (physical page I/O).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PagerStats {
    /// Pages physically read from the VFS.
    pub pages_read: u64,
    /// Pages physically written to the VFS.
    pub pages_written: u64,
}

/// A page-granular view of one VFS file, with checksums.
#[derive(Debug)]
pub struct Pager {
    file: String,
    stats: PagerStats,
}

fn encode_page(page: u32, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= PAGE_PAYLOAD,
        "page payload exceeds {PAGE_PAYLOAD} bytes"
    );
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&page.to_le_bytes());
    buf[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
    let mut covered = Vec::with_capacity(8 + payload.len());
    covered.extend_from_slice(&buf[0..8]);
    covered.extend_from_slice(payload);
    let sum = checksum64(u64::from(page), &covered);
    buf[8..16].copy_from_slice(&sum.to_le_bytes());
    buf
}

fn decode_page(page: u32, buf: &[u8]) -> Result<Vec<u8>, StorageError> {
    if buf.len() != PAGE_SIZE {
        return Err(StorageError::Corrupt(format!(
            "short page {page}: {} of {PAGE_SIZE} bytes",
            buf.len()
        )));
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let echo = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let stored = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    if len > PAGE_PAYLOAD {
        return Err(StorageError::Corrupt(format!(
            "page {page} declares impossible payload length {len}"
        )));
    }
    if echo != page {
        return Err(StorageError::Corrupt(format!(
            "page {page} carries page number {echo}"
        )));
    }
    let payload = &buf[PAGE_HEADER..PAGE_HEADER + len];
    let mut covered = Vec::with_capacity(8 + len);
    covered.extend_from_slice(&buf[0..8]);
    covered.extend_from_slice(payload);
    if checksum64(u64::from(page), &covered) != stored {
        return Err(StorageError::Corrupt(format!(
            "page {page} checksum mismatch"
        )));
    }
    if buf[PAGE_HEADER + len..].iter().any(|&b| b != 0) {
        return Err(StorageError::Corrupt(format!(
            "page {page} has non-zero padding"
        )));
    }
    Ok(payload.to_vec())
}

impl Pager {
    /// A pager over `file`.
    pub fn new(file: impl Into<String>) -> Self {
        Self {
            file: file.into(),
            stats: PagerStats::default(),
        }
    }

    /// The file this pager pages.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// The counters.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Reads `page` from the VFS and verifies it.
    pub fn read_page(&mut self, vfs: &mut dyn Vfs, page: u32) -> Result<Vec<u8>, StorageError> {
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = vfs.read_at(&self.file, page as u64 * PAGE_SIZE as u64, &mut buf)?;
        if n != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "short page {page}: {n} of {PAGE_SIZE} bytes"
            )));
        }
        let payload = decode_page(page, &buf)?;
        self.stats.pages_read += 1;
        Ok(payload)
    }

    /// Writes `payload` as `page`: exactly one VFS write (the crash
    /// granularity).
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`PAGE_PAYLOAD`] (a caller bug, not a
    /// recoverable storage condition).
    pub fn write_page(
        &mut self,
        vfs: &mut dyn Vfs,
        page: u32,
        payload: &[u8],
    ) -> Result<(), StorageError> {
        let buf = encode_page(page, payload);
        vfs.write_at(&self.file, page as u64 * PAGE_SIZE as u64, &buf)?;
        self.stats.pages_written += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemVfs;
    use super::*;

    #[test]
    fn roundtrip_and_cache_counters() {
        let mut vfs = MemVfs::new();
        let mut pager = Pager::new("p");
        pager.write_page(&mut vfs, 0, b"alpha").unwrap();
        pager.write_page(&mut vfs, 3, b"").unwrap(); // empty payload is legal
        assert_eq!(pager.stats().pages_written, 2);
        assert_eq!(pager.read_page(&mut vfs, 0).unwrap(), b"alpha");
        assert_eq!(pager.read_page(&mut vfs, 3).unwrap(), b"");
        // No cache: every read of a page is a physical read.
        let mut cold = Pager::new("p");
        assert_eq!(cold.read_page(&mut vfs, 0).unwrap(), b"alpha");
        assert_eq!(cold.read_page(&mut vfs, 0).unwrap(), b"alpha");
        assert_eq!(cold.stats().pages_read, 2);
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let mut vfs = MemVfs::new();
        let mut pager = Pager::new("p");
        pager.write_page(&mut vfs, 1, b"payload-bytes").unwrap();
        let page_start = PAGE_SIZE as u64;
        for offset in [0u64, 4, 8, 16, 20, PAGE_SIZE as u64 - 1] {
            let mut vfs2 = MemVfs::new();
            let mut w = Pager::new("p");
            w.write_page(&mut vfs2, 1, b"payload-bytes").unwrap();
            vfs2.corrupt_byte("p", page_start + offset, 0x40);
            let mut r = Pager::new("p");
            assert!(
                matches!(r.read_page(&mut vfs2, 1), Err(StorageError::Corrupt(_))),
                "flip at page offset {offset} must be detected"
            );
        }
        // The intact copy still reads fine.
        let mut r = Pager::new("p");
        assert_eq!(r.read_page(&mut vfs, 1).unwrap(), b"payload-bytes");
    }

    #[test]
    fn wrong_slot_and_short_pages_fail_closed() {
        let mut vfs = MemVfs::new();
        let mut pager = Pager::new("p");
        pager.write_page(&mut vfs, 0, b"zero").unwrap();
        // A valid page 0 image copied into slot 2 fails the echo check.
        let mut image = vec![0u8; PAGE_SIZE];
        vfs.read_at("p", 0, &mut image).unwrap();
        vfs.write_at("p", 2 * PAGE_SIZE as u64, &image).unwrap();
        let mut r = Pager::new("p");
        assert!(matches!(
            r.read_page(&mut vfs, 2),
            Err(StorageError::Corrupt(_))
        ));
        // A truncated final page is a short read.
        vfs.truncate("p", (3 * PAGE_SIZE - 100) as u64).unwrap();
        assert!(matches!(
            r.read_page(&mut vfs, 2),
            Err(StorageError::Corrupt(_))
        ));
    }
}
