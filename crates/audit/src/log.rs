//! The file-backed append-only log with batched appends and
//! crash-truncation recovery.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rap_crypto::Digest;
use rap_track::VerdictRecord;

use crate::chain::{
    entry_hash, genesis_hash, ChainBreak, ChainVerifier, FILE_HEADER_LEN, MAGIC, VERSION,
};

/// Why a log file could not be opened for appending.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new open failures can be added without a breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum OpenError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The existing file is not an audit log.
    BadHeader,
    /// The existing log fails chain verification beyond a recoverable
    /// partial tail — appending to tampered history would launder it.
    Tampered {
        /// The first break found while scanning.
        first_break: ChainBreak,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "audit log I/O: {e}"),
            OpenError::BadHeader => write!(f, "not an audit log (bad header)"),
            OpenError::Tampered { first_break } => {
                write!(f, "audit log tampered: {first_break}")
            }
        }
    }
}

impl std::error::Error for OpenError {}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> OpenError {
        OpenError::Io(e)
    }
}

/// A hash-chained append-only log of sealed verdict records.
///
/// Appends are buffered in memory and committed in one `write` per
/// [`flush`](AuditLog::flush) — the caller picks the batching schedule
/// (rap-serve flushes once per drain tick). Each entry carries its
/// chain hash, which doubles as a checksum: a crash mid-write leaves a
/// partial tail frame that the next [`open`](AuditLog::open) truncates
/// away, while a *complete* frame with a wrong hash is reported as
/// tamper and never silently dropped.
#[derive(Debug)]
pub struct AuditLog {
    file: File,
    path: PathBuf,
    head: Digest,
    entries: u64,
    committed_bytes: u64,
    pending: Vec<u8>,
    pending_entries: u64,
}

impl AuditLog {
    /// Creates a fresh log, truncating anything at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<AuditLog> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&[VERSION])?;
        file.flush()?;
        Ok(AuditLog {
            file,
            path,
            head: genesis_hash(),
            entries: 0,
            committed_bytes: FILE_HEADER_LEN as u64,
            pending: Vec::new(),
            pending_entries: 0,
        })
    }

    /// Opens an existing log for appending (creating it when missing),
    /// verifying the chain and recovering from a crash-truncated tail.
    ///
    /// # Errors
    ///
    /// [`OpenError::BadHeader`] when the file exists but is not an
    /// audit log, [`OpenError::Tampered`] when the chain breaks for
    /// any reason other than a partial tail frame.
    pub fn open(path: impl AsRef<Path>) -> Result<AuditLog, OpenError> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            return AuditLog::create(&path).map_err(OpenError::Io);
        }
        let bytes = std::fs::read(&path)?;
        let (_, report) = ChainVerifier::new().scan(&bytes);
        match &report.first_break {
            None => {}
            Some(ChainBreak::BadHeader { .. }) => return Err(OpenError::BadHeader),
            // A partial tail frame is the crash signature: everything
            // before it verified, and the frame itself is incomplete.
            Some(ChainBreak::TruncatedTail { .. }) => {}
            Some(other) => {
                return Err(OpenError::Tampered {
                    first_break: other.clone(),
                })
            }
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        // Recovery: drop the partial tail by truncating back to the
        // verified prefix.
        if report.verified_bytes < bytes.len() as u64 {
            file.set_len(report.verified_bytes)?;
        }
        file.seek(SeekFrom::Start(report.verified_bytes))?;
        Ok(AuditLog {
            file,
            path,
            head: report.head,
            entries: report.entries,
            committed_bytes: report.verified_bytes,
            pending: Vec::new(),
            pending_entries: 0,
        })
    }

    /// Appends one pre-encoded record, returning its chain hash. The
    /// entry is buffered until [`flush`](AuditLog::flush).
    pub fn append(&mut self, record_bytes: &[u8]) -> Digest {
        self.push_frame(|pending| pending.extend_from_slice(record_bytes))
    }

    /// Appends a sealed record ([`append`](AuditLog::append) over its
    /// canonical encoding), encoded straight into the buffer.
    pub fn append_record(&mut self, record: &VerdictRecord) -> Digest {
        self.push_frame(|pending| record.encode_into(pending))
    }

    /// Buffers the frame `ChainVerifier::scan` reads back: length
    /// prefix, the record bytes `write` appends, entry hash.
    fn push_frame(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Digest {
        let prefix = self.pending.len();
        self.pending.extend_from_slice(&[0; 4]);
        write(&mut self.pending);
        let record_bytes = &self.pending[prefix + 4..];
        let len = record_bytes.len() as u32;
        let hash = entry_hash(&self.head, record_bytes);
        self.pending[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
        self.pending.extend_from_slice(&hash);
        self.pending_entries += 1;
        self.head = hash;
        hash
    }

    /// Commits every buffered entry in one write.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.file.flush()?;
        self.committed_bytes += self.pending.len() as u64;
        self.entries += self.pending_entries;
        self.pending.clear();
        self.pending_entries = 0;
        Ok(())
    }

    /// Total entries (committed plus buffered).
    pub fn entries(&self) -> u64 {
        self.entries + self.pending_entries
    }

    /// Entries buffered but not yet flushed.
    pub fn pending_entries(&self) -> u64 {
        self.pending_entries
    }

    /// The chain head after the last append (genesis when empty).
    pub fn head(&self) -> Digest {
        self.head
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for AuditLog {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::FRAME_OVERHEAD;
    use rap_track::{verdict_seal_key, VerdictDraft};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rap-audit-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn key() -> Vec<u8> {
        verdict_seal_key(b"log-unit")
    }

    fn record(seq: u64) -> VerdictRecord {
        VerdictRecord::seal(
            &key(),
            VerdictDraft {
                device: "dev-0".to_string(),
                accepted: true,
                seq,
                ..VerdictDraft::default()
            },
        )
    }

    #[test]
    fn batched_appends_survive_reopen() {
        let path = tmp("reopen.ralog");
        let mut log = AuditLog::create(&path).unwrap();
        for seq in 0..5 {
            log.append_record(&record(seq));
        }
        assert_eq!(log.pending_entries(), 5);
        log.flush().unwrap();
        assert_eq!(log.pending_entries(), 0);
        let head = log.head();
        drop(log);

        let mut log = AuditLog::open(&path).unwrap();
        assert_eq!(log.entries(), 5);
        assert_eq!(log.head(), head);
        log.append_record(&record(5));
        log.flush().unwrap();
        drop(log);

        let report = ChainVerifier::with_seal_key(key())
            .verify_file(&path)
            .unwrap();
        assert!(report.ok(), "{:?}", report.first_break);
        assert_eq!(report.entries, 6);
    }

    #[test]
    fn drop_flushes_buffered_entries() {
        let path = tmp("drop.ralog");
        {
            let mut log = AuditLog::create(&path).unwrap();
            log.append_record(&record(0));
        }
        let report = ChainVerifier::new().verify_file(&path).unwrap();
        assert!(report.ok());
        assert_eq!(report.entries, 1);
    }

    #[test]
    fn crash_truncated_tail_is_recovered_on_open() {
        let path = tmp("crash.ralog");
        let mut log = AuditLog::create(&path).unwrap();
        for seq in 0..3 {
            log.append_record(&record(seq));
        }
        log.flush().unwrap();
        drop(log);
        // Simulate a crash mid-write: chop half of the last frame.
        let bytes = std::fs::read(&path).unwrap();
        let last_len = record(2).encode().len() + FRAME_OVERHEAD;
        std::fs::write(&path, &bytes[..bytes.len() - last_len / 2]).unwrap();

        let mut log = AuditLog::open(&path).unwrap();
        assert_eq!(log.entries(), 2, "partial tail dropped");
        log.append_record(&record(9));
        log.flush().unwrap();
        drop(log);
        let report = ChainVerifier::with_seal_key(key())
            .verify_file(&path)
            .unwrap();
        assert!(report.ok());
        assert_eq!(report.entries, 3);
    }

    #[test]
    fn tampered_log_refuses_to_open() {
        let path = tmp("tampered.ralog");
        let mut log = AuditLog::create(&path).unwrap();
        for seq in 0..3 {
            log.append_record(&record(seq));
        }
        log.flush().unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = FILE_HEADER_LEN + 10;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        match AuditLog::open(&path) {
            Err(OpenError::Tampered { first_break }) => {
                assert!(matches!(
                    first_break,
                    ChainBreak::BrokenLink { index: 0, .. }
                ));
            }
            other => panic!("expected Tampered, got {other:?}"),
        }
    }

    #[test]
    fn foreign_file_is_a_bad_header() {
        let path = tmp("foreign.ralog");
        std::fs::write(&path, b"definitely not an audit log").unwrap();
        assert!(matches!(AuditLog::open(&path), Err(OpenError::BadHeader)));
    }

    #[test]
    fn open_creates_missing_log() {
        let path = tmp("fresh.ralog");
        std::fs::remove_file(&path).ok();
        let log = AuditLog::open(&path).unwrap();
        assert_eq!(log.entries(), 0);
        assert_eq!(log.head(), genesis_hash());
    }
}
