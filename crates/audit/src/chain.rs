//! The hash chain itself: entry hashing, frame encoding, and the
//! offline [`ChainVerifier`].

use rap_crypto::{sha256, Digest, Sha256};
use rap_track::{VerdictError, VerdictRecord};

/// File magic for audit logs.
pub(crate) const MAGIC: &[u8; 4] = b"RAPA";
/// On-disk format version.
pub(crate) const VERSION: u8 = 1;
/// Bytes of the file header (magic + version).
pub const FILE_HEADER_LEN: usize = 5;
/// Bytes of one entry frame's fixed overhead (length prefix + hash).
pub(crate) const FRAME_OVERHEAD: usize = 4 + 32;
/// Upper bound on one record's encoded size. Far above any real
/// record; a length prefix beyond this is adversarial, and rejecting
/// it keeps a corrupted log from driving a huge allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Domain for the chain's genesis anchor.
const GENESIS_DOMAIN: &[u8] = b"RAP-AUDIT-GENESIS-V1";

/// The anchor every chain starts from: `sha256("RAP-AUDIT-GENESIS-V1")`.
pub fn genesis_hash() -> Digest {
    sha256(GENESIS_DOMAIN)
}

/// The commitment of one entry: `sha256(prev_entry_hash ‖ record_bytes)`.
pub fn entry_hash(prev: &Digest, record_bytes: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(record_bytes);
    h.finalize()
}

/// Encodes one entry frame (length prefix, record bytes, entry hash):
/// the layout [`AuditLog::append`](crate::AuditLog::append) writes, for
/// tests that build chains by hand.
#[cfg(test)]
pub(crate) fn encode_entry(prev: &Digest, record_bytes: &[u8]) -> (Vec<u8>, Digest) {
    let hash = entry_hash(prev, record_bytes);
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + record_bytes.len());
    out.extend_from_slice(&(record_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(record_bytes);
    out.extend_from_slice(&hash);
    (out, hash)
}

/// Why (and where) a chain stopped verifying.
///
/// Every variant cites the absolute byte offset of the offending frame
/// (for [`ChainBreak::BadHeader`], of the header itself). Marked
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// break kinds can be added without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainBreak {
    /// The file does not start with a valid audit-log header.
    BadHeader {
        /// Always 0 — cited for uniformity.
        offset: u64,
    },
    /// The log ends mid-frame (crash-truncated tail, or a truncation
    /// attack that cut inside an entry).
    TruncatedTail {
        /// Index of the incomplete entry.
        index: u64,
        /// Byte offset where its frame starts.
        offset: u64,
    },
    /// A length prefix exceeds [`MAX_RECORD_LEN`].
    OversizedEntry {
        /// Index of the offending entry.
        index: u64,
        /// Byte offset where its frame starts.
        offset: u64,
        /// The declared length.
        len: u32,
    },
    /// The stored entry hash does not equal
    /// `sha256(prev_entry_hash ‖ record_bytes)` — a bit flip, a
    /// reorder, or a splice that did not recompute the chain.
    BrokenLink {
        /// Index of the offending entry.
        index: u64,
        /// Byte offset where its frame starts.
        offset: u64,
    },
    /// The record bytes do not decode as a [`VerdictRecord`].
    BadRecord {
        /// Index of the offending entry.
        index: u64,
        /// Byte offset where its frame starts.
        offset: u64,
        /// The typed decode failure.
        error: VerdictError,
    },
    /// The record decodes but its seal does not verify under the
    /// supplied key — a re-signed splice by someone without the
    /// sealing key.
    BadSeal {
        /// Index of the offending entry.
        index: u64,
        /// Byte offset where its frame starts.
        offset: u64,
    },
}

impl std::fmt::Display for ChainBreak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainBreak::BadHeader { offset } => {
                write!(f, "bad audit-log header at byte {offset}")
            }
            ChainBreak::TruncatedTail { index, offset } => {
                write!(f, "entry {index} truncated (frame at byte {offset})")
            }
            ChainBreak::OversizedEntry { index, offset, len } => write!(
                f,
                "entry {index} declares implausible length {len} (frame at byte {offset})"
            ),
            ChainBreak::BrokenLink { index, offset } => {
                write!(
                    f,
                    "entry {index} breaks the hash chain (frame at byte {offset})"
                )
            }
            ChainBreak::BadRecord {
                index,
                offset,
                error,
            } => write!(
                f,
                "entry {index} carries an undecodable record (frame at byte {offset}): {error}"
            ),
            ChainBreak::BadSeal { index, offset } => {
                write!(
                    f,
                    "entry {index} fails seal verification (frame at byte {offset})"
                )
            }
        }
    }
}

/// One verified entry, as surfaced by [`ChainVerifier::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// Zero-based entry index.
    pub index: u64,
    /// Absolute byte offset of the entry's frame.
    pub offset: u64,
    /// The entry's chain hash.
    pub entry_hash: Digest,
    /// The decoded record.
    pub record: VerdictRecord,
}

/// The outcome of one offline chain replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainReport {
    /// Entries verified before the first break (all of them when
    /// clean).
    pub entries: u64,
    /// Bytes covered by the verified prefix (header included).
    pub verified_bytes: u64,
    /// Chain hash of the last verified entry ([`genesis_hash`] when
    /// the log is empty).
    pub head: Digest,
    /// The first break, if any.
    pub first_break: Option<ChainBreak>,
}

impl ChainReport {
    /// Whether the whole log verified.
    pub fn ok(&self) -> bool {
        self.first_break.is_none()
    }
}

/// Replays an audit log offline, reporting the first break.
///
/// Without a sealing key the verifier checks structure and chain
/// integrity only; with one ([`ChainVerifier::with_seal_key`]) every
/// record's seal is re-checked too, which is what catches a splice
/// that recomputed the chain hashes.
#[derive(Debug, Clone, Default)]
pub struct ChainVerifier {
    seal_key: Option<Vec<u8>>,
}

impl ChainVerifier {
    /// A verifier that checks structure and chain links only.
    pub fn new() -> ChainVerifier {
        ChainVerifier::default()
    }

    /// A verifier that additionally re-checks every record's seal.
    pub fn with_seal_key(seal_key: Vec<u8>) -> ChainVerifier {
        ChainVerifier {
            seal_key: Some(seal_key),
        }
    }

    /// Verifies a whole log image in memory.
    pub fn verify_bytes(&self, bytes: &[u8]) -> ChainReport {
        self.scan(bytes).1
    }

    /// Reads and verifies a log file.
    ///
    /// # Errors
    ///
    /// Only I/O failures error; every *content* problem is a typed
    /// [`ChainBreak`] inside the report.
    pub fn verify_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<ChainReport> {
        Ok(self.verify_bytes(&std::fs::read(path)?))
    }

    /// Replays a log image, returning every entry of the verified
    /// prefix plus the report. `scan` never panics on malformed input:
    /// any byte sequence yields a typed report.
    pub fn scan(&self, bytes: &[u8]) -> (Vec<ChainEntry>, ChainReport) {
        let mut entries = Vec::new();
        let mut report = ChainReport {
            entries: 0,
            verified_bytes: 0,
            head: genesis_hash(),
            first_break: None,
        };
        if bytes.len() < FILE_HEADER_LEN || &bytes[..4] != MAGIC || bytes[4] != VERSION {
            report.first_break = Some(ChainBreak::BadHeader { offset: 0 });
            return (entries, report);
        }
        report.verified_bytes = FILE_HEADER_LEN as u64;
        let mut pos = FILE_HEADER_LEN;
        let mut index = 0u64;
        while pos < bytes.len() {
            let offset = pos as u64;
            let fail = |b: ChainBreak, report: &mut ChainReport| {
                report.first_break = Some(b);
            };
            if bytes.len() - pos < 4 {
                fail(ChainBreak::TruncatedTail { index, offset }, &mut report);
                return (entries, report);
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            if len > MAX_RECORD_LEN {
                fail(
                    ChainBreak::OversizedEntry { index, offset, len },
                    &mut report,
                );
                return (entries, report);
            }
            if bytes.len() - pos < FRAME_OVERHEAD + len as usize {
                fail(ChainBreak::TruncatedTail { index, offset }, &mut report);
                return (entries, report);
            }
            let record_bytes = &bytes[pos + 4..pos + 4 + len as usize];
            let stored: &[u8] = &bytes[pos + 4 + len as usize..pos + FRAME_OVERHEAD + len as usize];
            let expected = entry_hash(&report.head, record_bytes);
            if stored != expected {
                fail(ChainBreak::BrokenLink { index, offset }, &mut report);
                return (entries, report);
            }
            let record = match VerdictRecord::decode(record_bytes) {
                Ok(r) => r,
                Err(error) => {
                    fail(
                        ChainBreak::BadRecord {
                            index,
                            offset,
                            error,
                        },
                        &mut report,
                    );
                    return (entries, report);
                }
            };
            if let Some(key) = &self.seal_key {
                if !record.authenticate(key) {
                    fail(ChainBreak::BadSeal { index, offset }, &mut report);
                    return (entries, report);
                }
            }
            report.head = expected;
            pos += FRAME_OVERHEAD + len as usize;
            report.verified_bytes = pos as u64;
            entries.push(ChainEntry {
                index,
                offset,
                entry_hash: expected,
                record,
            });
            index += 1;
            report.entries = index;
        }
        (entries, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_track::{verdict_seal_key, VerdictDraft};

    fn key() -> Vec<u8> {
        verdict_seal_key(b"chain-unit")
    }

    fn record(seq: u64, accepted: bool) -> VerdictRecord {
        VerdictRecord::seal(
            &key(),
            VerdictDraft {
                device: format!("dev-{}", seq % 3),
                accepted,
                kind: if accepted {
                    String::new()
                } else {
                    "bad-tag".to_string()
                },
                seq,
                ..VerdictDraft::default()
            },
        )
    }

    fn chain_bytes(n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        let mut prev = genesis_hash();
        for seq in 0..n {
            let (frame, hash) = encode_entry(&prev, &record(seq, seq % 4 != 3).encode());
            out.extend_from_slice(&frame);
            prev = hash;
        }
        out
    }

    #[test]
    fn clean_chain_verifies_with_and_without_key() {
        let bytes = chain_bytes(5);
        let plain = ChainVerifier::new().verify_bytes(&bytes);
        assert!(plain.ok(), "{:?}", plain.first_break);
        assert_eq!(plain.entries, 5);
        assert_eq!(plain.verified_bytes, bytes.len() as u64);
        let sealed = ChainVerifier::with_seal_key(key()).verify_bytes(&bytes);
        assert_eq!(sealed, plain);
        let (entries, _) = ChainVerifier::new().scan(&bytes);
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[4].record.fields.seq, 4);
        assert!(entries.windows(2).all(|w| w[0].offset < w[1].offset));
    }

    #[test]
    fn empty_chain_is_genesis_anchored() {
        let bytes = chain_bytes(0);
        let report = ChainVerifier::new().verify_bytes(&bytes);
        assert!(report.ok());
        assert_eq!(report.entries, 0);
        assert_eq!(report.head, genesis_hash());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = chain_bytes(3);
        let v = ChainVerifier::with_seal_key(key());
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                let report = v.verify_bytes(&bad);
                assert!(!report.ok(), "flip of byte {at} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn entry_reorder_breaks_the_first_moved_link() {
        let v = ChainVerifier::new();
        let (entries, clean) = v.scan(&chain_bytes(3));
        assert!(clean.ok());
        // Rebuild the file with entries 1 and 2 swapped, frames intact.
        let bytes = chain_bytes(3);
        let frame = |i: usize| {
            let start = entries[i].offset as usize;
            let end = entries
                .get(i + 1)
                .map(|e| e.offset as usize)
                .unwrap_or(bytes.len());
            bytes[start..end].to_vec()
        };
        let mut reordered = bytes[..FILE_HEADER_LEN].to_vec();
        reordered.extend(frame(0));
        reordered.extend(frame(2));
        reordered.extend(frame(1));
        let report = v.verify_bytes(&reordered);
        assert_eq!(
            report.first_break,
            Some(ChainBreak::BrokenLink {
                index: 1,
                offset: entries[1].offset,
            })
        );
        assert_eq!(report.entries, 1);
    }

    #[test]
    fn mid_file_truncation_is_a_truncated_tail() {
        let bytes = chain_bytes(3);
        let (entries, _) = ChainVerifier::new().scan(&bytes);
        let cut = entries[1].offset as usize + 7;
        let report = ChainVerifier::new().verify_bytes(&bytes[..cut]);
        assert_eq!(
            report.first_break,
            Some(ChainBreak::TruncatedTail {
                index: 1,
                offset: entries[1].offset,
            })
        );
        assert_eq!(report.entries, 1);
    }

    #[test]
    fn boundary_truncation_verifies_as_shorter_prefix() {
        // Cutting exactly between frames is undetectable from the file
        // alone — the report stays ok but cites fewer entries and a
        // different head, which is what an external head anchor checks.
        let bytes = chain_bytes(3);
        let (entries, full) = ChainVerifier::new().scan(&bytes);
        let report = ChainVerifier::new().verify_bytes(&bytes[..entries[2].offset as usize]);
        assert!(report.ok());
        assert_eq!(report.entries, 2);
        assert_ne!(report.head, full.head);
        assert_eq!(report.head, entries[1].entry_hash);
    }

    #[test]
    fn resigned_splice_needs_the_seal_key_to_catch() {
        // The attacker replaces entry 1's record with one sealed under
        // *their* key and recomputes every chain hash downstream. The
        // chain links check out; only the seal gives the splice away.
        let bytes = chain_bytes(3);
        let (entries, _) = ChainVerifier::new().scan(&bytes);
        let forged = VerdictRecord::seal(
            &verdict_seal_key(b"attacker"),
            VerdictDraft {
                device: "dev-1".to_string(),
                accepted: true,
                seq: 1,
                ..VerdictDraft::default()
            },
        );
        let mut spliced = bytes[..entries[1].offset as usize].to_vec();
        let mut prev = entries[0].entry_hash;
        let replaced: Vec<Vec<u8>> = vec![forged.encode(), entries[2].record.encode()];
        for rec in &replaced {
            let (frame, hash) = encode_entry(&prev, rec);
            spliced.extend_from_slice(&frame);
            prev = hash;
        }
        let structural = ChainVerifier::new().verify_bytes(&spliced);
        assert!(structural.ok(), "splice must fool the keyless check");
        let report = ChainVerifier::with_seal_key(key()).verify_bytes(&spliced);
        assert_eq!(
            report.first_break,
            Some(ChainBreak::BadSeal {
                index: 1,
                offset: entries[1].offset,
            })
        );
    }

    #[test]
    fn oversized_length_is_typed_without_allocation() {
        let mut bytes = chain_bytes(1);
        let at = FILE_HEADER_LEN;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let report = ChainVerifier::new().verify_bytes(&bytes);
        assert_eq!(
            report.first_break,
            Some(ChainBreak::OversizedEntry {
                index: 0,
                offset: at as u64,
                len: u32::MAX,
            })
        );
    }

    #[test]
    fn bad_header_is_typed() {
        let report = ChainVerifier::new().verify_bytes(b"RAPX\x01");
        assert_eq!(
            report.first_break,
            Some(ChainBreak::BadHeader { offset: 0 })
        );
        let report = ChainVerifier::new().verify_bytes(b"RA");
        assert_eq!(
            report.first_break,
            Some(ChainBreak::BadHeader { offset: 0 })
        );
    }

    #[test]
    fn undecodable_record_with_consistent_chain_is_typed() {
        // A garbage record whose frame hash *is* consistent: chain ok,
        // decode fails.
        let mut bytes = chain_bytes(0);
        let garbage = [0xABu8; 7];
        let (frame, _) = encode_entry(&genesis_hash(), &garbage);
        bytes.extend_from_slice(&frame);
        let report = ChainVerifier::new().verify_bytes(&bytes);
        assert!(matches!(
            report.first_break,
            Some(ChainBreak::BadRecord { index: 0, .. })
        ));
    }
}
