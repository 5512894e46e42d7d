//! CFA report format: `CF_Log`, challenges and authenticated reports.

use std::iter;

use rap_crypto::{hmac_sha256, verify_tag, Digest, HmacSha256};
use trace_units::{SubPathHit, TraceEntry};

/// A fresh verifier challenge (nonce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Challenge(pub [u8; 32]);

impl Challenge {
    /// Derives a deterministic challenge from a seed — convenient for
    /// tests and benches (a real Verifier samples randomness).
    pub fn from_seed(seed: u64) -> Challenge {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        Challenge(rap_crypto::sha256(&bytes))
    }
}

/// The control-flow log of one (partial) report.
///
/// Two streams, mirroring the hardware: MTB packets written by the
/// trace unit, and loop-condition records appended by the Secure World
/// on `SG LOG_LOOP_COND` calls (§IV-D). The Verifier consumes each
/// stream in program order during replay, so no interleaving metadata
/// is required.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CfLog {
    /// MTB packets, oldest first. When the device runs a speculation
    /// dictionary, matched sub-paths are removed from this vector and
    /// stand in as `dict_hits` records instead.
    pub mtb: Vec<TraceEntry>,
    /// Loop-condition records, oldest first.
    pub loop_records: Vec<u32>,
    /// Speculation-dictionary hits, oldest first. Each hit expands to
    /// the dictionary entry's transfers immediately before residual
    /// `mtb` index `at`; hits therefore carry non-decreasing `at`
    /// values ≤ `mtb.len()`. Empty on devices without a dictionary —
    /// such logs are wire- and MAC-identical to the v1 format.
    pub dict_hits: Vec<SubPathHit>,
}

impl CfLog {
    /// Size of one loop-condition record as stored in Secure-World
    /// memory (marker word + value word).
    pub const LOOP_RECORD_BYTES: usize = 8;

    /// Wire size of one dictionary-hit record (kind byte + `at` +
    /// `id`).
    pub const DICT_HIT_BYTES: usize = 9;

    /// Creates an empty log.
    pub fn new() -> CfLog {
        CfLog::default()
    }

    /// Transmission/storage size in bytes — the paper's Fig. 9 metric.
    pub fn size_bytes(&self) -> usize {
        self.mtb.len() * TraceEntry::BYTES
            + self.loop_records.len() * CfLog::LOOP_RECORD_BYTES
            + self.dict_hits.len() * CfLog::DICT_HIT_BYTES
    }

    /// Whether all streams are empty.
    pub fn is_empty(&self) -> bool {
        self.mtb.is_empty() && self.loop_records.is_empty() && self.dict_hits.is_empty()
    }
}

/// An authenticated (partial or final) CFA report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The challenge this report answers.
    pub chal: Challenge,
    /// Hash of the attested application's binary.
    pub h_mem: Digest,
    /// The log chunk carried by this report.
    pub log: CfLog,
    /// Report sequence number (0-based; partial reports increment it).
    pub seq: u32,
    /// Whether this is the final report of the attestation.
    pub is_final: bool,
    /// Whether the MTB wrapped (evidence was lost) since the previous
    /// report. The Secure World reads this from the hardware's wrap
    /// status; an honest-but-overflowed log must not verify as a
    /// complete path.
    pub overflow: bool,
    /// HMAC-SHA256 over all of the above.
    pub tag: Digest,
}

impl Report {
    /// Builds and authenticates a report.
    pub fn new(
        key: &[u8],
        chal: Challenge,
        h_mem: Digest,
        log: CfLog,
        seq: u32,
        is_final: bool,
        overflow: bool,
    ) -> Report {
        let tag = Report::mac(
            HmacSha256::new(key),
            &chal,
            &h_mem,
            &log,
            seq,
            is_final,
            overflow,
        );
        Report {
            chal,
            h_mem,
            log,
            seq,
            is_final,
            overflow,
            tag,
        }
    }

    /// Recomputes the MAC and compares it against the carried tag in
    /// constant time.
    pub fn authenticate(&self, key: &[u8]) -> bool {
        self.authenticate_keyed(&HmacSha256::new(key))
    }

    /// [`Report::authenticate`] under a MAC context already keyed with
    /// the device key: the key's pad blocks are not hashed again.
    pub(crate) fn authenticate_keyed(&self, keyed: &HmacSha256) -> bool {
        let expected = Report::mac(
            keyed.clone(),
            &self.chal,
            &self.h_mem,
            &self.log,
            self.seq,
            self.is_final,
            self.overflow,
        );
        verify_tag(&expected, &self.tag)
    }

    /// Wire size of the report body in bytes (header + log), used by
    /// the communication-cost analysis (§V-B).
    pub fn wire_bytes(&self) -> usize {
        32 /* chal */ + 32 /* h_mem */ + 4 /* seq */ + 1 /* final+overflow flags */
            + 32 /* tag */ + self.log.size_bytes()
    }

    /// The tag under `mac`, a context keyed with the device key.
    fn mac(
        mut mac: HmacSha256,
        chal: &Challenge,
        h_mem: &Digest,
        log: &CfLog,
        seq: u32,
        is_final: bool,
        overflow: bool,
    ) -> Digest {
        mac.update(b"RAP-TRACK-REPORT-V1");
        mac.update(&chal.0);
        mac.update(h_mem);
        mac.update(&seq.to_le_bytes());
        mac.update(&[is_final as u8, overflow as u8]);
        let mtb = log.mtb.iter().flat_map(|e| [e.source, e.dest]);
        update_le_words(
            &mut mac,
            iter::once(log.mtb.len() as u32)
                .chain(mtb)
                .chain(iter::once(log.loop_records.len() as u32))
                .chain(log.loop_records.iter().copied()),
        );
        // Dictionary hits are only covered when present, so v1 logs
        // (no dictionary) keep their historical byte-identical MACs.
        if !log.dict_hits.is_empty() {
            mac.update(b"RAP-TRACK-DICT-V2");
            let hits = log.dict_hits.iter().flat_map(|h| [h.at, h.id]);
            update_le_words(&mut mac, iter::once(log.dict_hits.len() as u32).chain(hits));
        }
        mac.finalize()
    }
}

/// Feeds `words` to `mac` as little-endian bytes, the same bytes one
/// `update` per word would, batched through a stack buffer: a log costs
/// one `update` per 512 bytes instead of one per word.
fn update_le_words(mac: &mut HmacSha256, words: impl IntoIterator<Item = u32>) {
    let mut buf = [0u8; 512];
    let mut len = 0;
    for word in words {
        buf[len..len + 4].copy_from_slice(&word.to_le_bytes());
        len += 4;
        if len == buf.len() {
            mac.update(&buf);
            len = 0;
        }
    }
    mac.update(&buf[..len]);
}

/// Convenience: MAC key alias to make signatures self-documenting.
pub type Key = Vec<u8>;

/// Derives the per-device attestation key from a seed (test aid).
pub fn device_key(seed: &str) -> Key {
    hmac_sha256(b"RAP-TRACK-DEVICE-KEY", seed.as_bytes()).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> CfLog {
        CfLog {
            mtb: vec![
                TraceEntry {
                    source: 0x100,
                    dest: 0x200,
                },
                TraceEntry {
                    source: 0x104,
                    dest: 0x300,
                },
            ],
            loop_records: vec![7],
            dict_hits: vec![],
        }
    }

    #[test]
    fn log_size_accounting() {
        let log = sample_log();
        assert_eq!(log.size_bytes(), 2 * 8 + 8);
        assert!(!log.is_empty());
        assert!(CfLog::new().is_empty());
        let mut with_hits = log;
        with_hits.dict_hits.push(SubPathHit { at: 0, id: 3 });
        assert_eq!(with_hits.size_bytes(), 2 * 8 + 8 + 9);
    }

    #[test]
    fn dict_hit_tamper_invalidates_tag() {
        let key = device_key("unit");
        let mut log = sample_log();
        log.dict_hits.push(SubPathHit { at: 1, id: 0 });
        let base = Report::new(
            &key,
            Challenge::from_seed(1),
            rap_crypto::sha256(b"binary"),
            log,
            0,
            true,
            false,
        );
        assert!(base.authenticate(&key));

        let mut r = base.clone();
        r.log.dict_hits[0].id = 1;
        assert!(!r.authenticate(&key));

        let mut r = base.clone();
        r.log.dict_hits[0].at = 0;
        assert!(!r.authenticate(&key));

        let mut r = base;
        r.log.dict_hits.clear();
        assert!(!r.authenticate(&key));
    }

    /// A deterministic log of `mtb` entries, `loops` loop records and
    /// `hits` dictionary hits.
    fn log_of(mtb: usize, loops: usize, hits: usize) -> CfLog {
        CfLog {
            mtb: (0..mtb as u32)
                .map(|i| TraceEntry {
                    source: 0x1000 + 4 * i,
                    dest: (i + 1).wrapping_mul(0x9e37_79b9),
                })
                .collect(),
            loop_records: (0..loops as u32).map(|i| i ^ 0x5a5a_0000).collect(),
            dict_hits: (0..hits)
                .map(|i| SubPathHit {
                    at: (i * mtb / hits) as u32,
                    id: (i % 7) as u32,
                })
                .collect(),
        }
    }

    /// The historical v1 MAC input, one `update` per field. However
    /// `Report::mac` batches its input, it must feed exactly these bytes.
    fn v1_per_field(key: &[u8], r: &Report) -> HmacSha256 {
        let mut mac = HmacSha256::new(key);
        mac.update(b"RAP-TRACK-REPORT-V1");
        mac.update(&r.chal.0);
        mac.update(&r.h_mem);
        mac.update(&r.seq.to_le_bytes());
        mac.update(&[r.is_final as u8, r.overflow as u8]);
        mac.update(&(r.log.mtb.len() as u32).to_le_bytes());
        for e in &r.log.mtb {
            mac.update(&e.source.to_le_bytes());
            mac.update(&e.dest.to_le_bytes());
        }
        mac.update(&(r.log.loop_records.len() as u32).to_le_bytes());
        for rec in &r.log.loop_records {
            mac.update(&rec.to_le_bytes());
        }
        mac
    }

    #[test]
    fn dictless_mac_matches_v1_exactly() {
        // A log without dictionary hits must authenticate under the
        // historical v1 MAC computation, bit for bit, with logs ending
        // on both sides of the MAC's batch boundaries.
        let key = device_key("unit");
        let chal = Challenge::from_seed(1);
        let h_mem = rap_crypto::sha256(b"binary");
        let r = Report::new(&key, chal, h_mem, sample_log(), 4, false, true);
        assert_eq!(r.tag, v1_per_field(&key, &r).finalize());
        for mtb in [0, 1, 63, 64, 65, 2_350] {
            for loops in [0, 1, 300] {
                let r = Report::new(&key, chal, h_mem, log_of(mtb, loops, 0), 4, false, true);
                assert_eq!(
                    r.tag,
                    v1_per_field(&key, &r).finalize(),
                    "{mtb} entries, {loops} loop records"
                );
            }
        }
    }

    #[test]
    fn dict_mac_matches_v2_per_field() {
        // The v2 extension, one `update` per field after the v1 body.
        let key = device_key("unit");
        for (mtb, loops, hits) in [
            (0, 0, 1),
            (1, 1, 1),
            (64, 0, 63),
            (65, 1, 64),
            (2_350, 300, 300),
        ] {
            let r = Report::new(
                &key,
                Challenge::from_seed(1),
                rap_crypto::sha256(b"binary"),
                log_of(mtb, loops, hits),
                4,
                false,
                true,
            );
            let mut mac = v1_per_field(&key, &r);
            mac.update(b"RAP-TRACK-DICT-V2");
            mac.update(&(r.log.dict_hits.len() as u32).to_le_bytes());
            for h in &r.log.dict_hits {
                mac.update(&h.at.to_le_bytes());
                mac.update(&h.id.to_le_bytes());
            }
            assert_eq!(
                r.tag,
                mac.finalize(),
                "{mtb} entries, {loops} loop records, {hits} hits"
            );
        }
    }

    #[test]
    fn long_report_tags_are_pinned() {
        // Tags of a 2 350-entry log, fixed as constants: a batching or
        // compressor change that moves any byte fails here even where
        // `new` and `authenticate` still agree with each other.
        let tag_hex = |hits: usize| -> String {
            let r = Report::new(
                &device_key("unit"),
                Challenge::from_seed(1),
                rap_crypto::sha256(b"binary"),
                log_of(2_350, 300, hits),
                4,
                false,
                true,
            );
            r.tag.iter().map(|b| format!("{b:02x}")).collect()
        };
        assert_eq!(
            tag_hex(0),
            "1dcd38fb2b1fb5580a4c5fa2b82b15c154f99bd4aee557c2343738c114eb16e0"
        );
        assert_eq!(
            tag_hex(300),
            "9db1295c56db4081e99fcc0c572453dcb23e1ac89592bd9bc6b9949e1df07f30"
        );
    }

    #[test]
    fn report_roundtrip_authenticates() {
        let key = device_key("unit");
        let r = Report::new(
            &key,
            Challenge::from_seed(1),
            rap_crypto::sha256(b"binary"),
            sample_log(),
            0,
            true,
            false,
        );
        assert!(r.authenticate(&key));
        assert!(!r.authenticate(&device_key("other")));
    }

    #[test]
    fn any_field_tamper_invalidates_tag() {
        let key = device_key("unit");
        let base = Report::new(
            &key,
            Challenge::from_seed(1),
            rap_crypto::sha256(b"binary"),
            sample_log(),
            2,
            false,
            false,
        );

        let mut r = base.clone();
        r.seq = 3;
        assert!(!r.authenticate(&key));

        let mut r = base.clone();
        r.is_final = true;
        assert!(!r.authenticate(&key));

        let mut r = base.clone();
        r.log.mtb[0].dest ^= 4;
        assert!(!r.authenticate(&key));

        let mut r = base.clone();
        r.log.loop_records[0] += 1;
        assert!(!r.authenticate(&key));

        let mut r = base.clone();
        r.h_mem[0] ^= 1;
        assert!(!r.authenticate(&key));

        let mut r = base.clone();
        r.chal = Challenge::from_seed(2);
        assert!(!r.authenticate(&key));

        let mut r = base;
        r.overflow = true;
        assert!(!r.authenticate(&key));
    }

    #[test]
    fn stream_boundary_is_unambiguous() {
        // Moving an element between streams must change the MAC even
        // when the raw bytes could alias.
        let key = device_key("unit");
        let a = Report::new(
            &key,
            Challenge::from_seed(1),
            [0; 32],
            CfLog {
                mtb: vec![TraceEntry { source: 7, dest: 0 }],
                ..CfLog::default()
            },
            0,
            true,
            false,
        );
        let b = Report::new(
            &key,
            Challenge::from_seed(1),
            [0; 32],
            CfLog {
                loop_records: vec![7, 0],
                ..CfLog::default()
            },
            0,
            true,
            false,
        );
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn challenge_from_seed_is_deterministic_and_distinct() {
        assert_eq!(Challenge::from_seed(9), Challenge::from_seed(9));
        assert_ne!(Challenge::from_seed(9), Challenge::from_seed(10));
    }

    #[test]
    fn wire_bytes_include_header() {
        let key = device_key("unit");
        let r = Report::new(
            &key,
            Challenge::from_seed(0),
            [0; 32],
            CfLog::new(),
            0,
            true,
            false,
        );
        assert_eq!(r.wire_bytes(), 32 + 32 + 4 + 1 + 32);
    }
}
