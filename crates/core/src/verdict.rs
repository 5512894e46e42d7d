//! Sealed, proof-carrying verdicts.
//!
//! Every verification can be reduced to a [`VerdictRecord`]: a
//! deterministic, byte-stable artifact binding the device id, the
//! challenge nonce, the SHA-256 of the report stream as received, the
//! verdict (with violation kind and detail on rejection), the
//! dictionary hits replayed and a logical timestamp; three fields are
//! reserved and sealed as zero (DESIGN.md §16). The record is MAC'd
//! with a key derived from the device key under a dedicated domain
//! ([`verdict_seal_key`]), so downstream consumers — the audit chain,
//! the fleet control plane, operators reading `rap audit show` — can
//! re-check provenance instead of trusting the process that produced
//! the verdict.
//!
//! Encoding follows the report wire codec's conventions: magic +
//! version byte, little-endian fields, length-prefixed strings, typed
//! [`VerdictError`]s for every malformed input (never a panic).
//!
//! ```text
//! magic  "RAPV"          4 bytes
//! ver    u8 = 1          1
//! flags  u8  bit0 = accepted
//! seq    u64             logical timestamp
//! chal   [u8; 32]
//! rhash  [u8; 32]        sha256 of the report-stream payload as received
//! stats  [u8; 32]        reserved, sealed as zero
//! events u32
//! steps  u64
//! dhits  u32             dictionary hits replayed
//! chits  u64             reserved, sealed as zero
//! cmiss  u64             reserved, sealed as zero
//! dev    u32 len + bytes (UTF-8)
//! kind   u32 len + bytes (UTF-8, empty when accepted)
//! detail u32 len + bytes (UTF-8, empty when accepted)
//! tag    [u8; 32]        HMAC-SHA256 over all of the above
//! ```

use rap_crypto::{hmac_sha256, sha256, verify_tag, Digest, HmacSha256, DIGEST_LEN};

use crate::metrics::VerifierStats;
use crate::report::Challenge;

const MAGIC: &[u8; 4] = b"RAPV";
const VERSION: u8 = 1;
/// Body bytes besides the three strings' contents: every fixed field
/// and the three length prefixes.
const BODY_FIXED_LEN: usize = 154;
/// Domain separating the record MAC from every other HMAC in the
/// system — a report tag can never alias a verdict seal.
const SEAL_DOMAIN: &[u8] = b"RAP-TRACK-VERDICT-V1";
/// Domain for deriving the sealing key from the device key.
const KEY_DOMAIN: &[u8] = b"RAP-TRACK-VERDICT-KEY";

/// Derives the verdict-sealing key from a device key. Domain-separated
/// so compromise of sealed records never helps forging reports (and
/// vice versa).
pub fn verdict_seal_key(device_key: &[u8]) -> Vec<u8> {
    hmac_sha256(device_key, KEY_DOMAIN).to_vec()
}

/// Digest of a [`VerifierStats`] snapshot over its replay counters
/// ([`VerifierStats::wall_ns`] excluded).
///
/// Not sealed by the verifier: the counters are shared and
/// cumulative, so a snapshot depends on other threads' work and on
/// cache warmth. [`VerdictDraft::stats_digest`] is reserved (sealed as
/// zero); this stays for tools that build drafts by hand.
pub fn stats_digest(stats: &VerifierStats) -> Digest {
    let mut buf = [0u8; 40];
    buf[..8].copy_from_slice(&stats.cache_hits.to_le_bytes());
    buf[8..16].copy_from_slice(&stats.cache_misses.to_le_bytes());
    buf[16..24].copy_from_slice(&stats.cached_steps.to_le_bytes());
    buf[24..32].copy_from_slice(&stats.live_steps.to_le_bytes());
    buf[32..40].copy_from_slice(&stats.jobs.to_le_bytes());
    sha256(&buf)
}

/// The unsealed fields of a verdict — everything except the tag.
///
/// Fill one of these and pass it to [`VerdictRecord::seal`]; the
/// high-level producers ([`Verifier::verify_record`] and
/// [`VerifierSession::check_response_record`]) do this for you.
///
/// [`Verifier::verify_record`]: crate::Verifier::verify_record
/// [`VerifierSession::check_response_record`]: crate::VerifierSession::check_response_record
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictDraft {
    /// Device identifier the verdict is about.
    pub device: String,
    /// The challenge nonce this verdict answers (all-zero when the
    /// failure happened before a challenge was matched).
    pub chal: Challenge,
    /// SHA-256 of the report-stream payload the verdict judged, as
    /// received.
    pub report_hash: Digest,
    /// Whether the evidence was accepted.
    pub accepted: bool,
    /// Stable failure kind (`""` when accepted) — a
    /// [`Violation`](crate::Violation) kind, a session-error kind, or
    /// `"wire"`.
    pub kind: String,
    /// Human-readable failure detail (`""` when accepted).
    pub detail: String,
    /// Path events reconstructed (0 on rejection).
    pub events: u32,
    /// Replay steps executed (0 on rejection).
    pub steps: u64,
    /// Reserved; the verifier seals it as zero (see [`stats_digest`]).
    pub stats_digest: Digest,
    /// Dictionary hits carried by the judged report stream.
    pub dict_hits: u32,
    /// Reserved; the verifier seals it as zero.
    pub cache_hits: u64,
    /// Reserved; the verifier seals it as zero.
    pub cache_misses: u64,
    /// Logical timestamp: strictly increasing per producer (session
    /// response counter, serve round counter, …).
    pub seq: u64,
}

impl Default for VerdictDraft {
    fn default() -> VerdictDraft {
        VerdictDraft {
            device: String::new(),
            chal: Challenge([0u8; 32]),
            report_hash: [0u8; 32],
            accepted: false,
            kind: String::new(),
            detail: String::new(),
            events: 0,
            steps: 0,
            stats_digest: [0u8; 32],
            dict_hits: 0,
            cache_hits: 0,
            cache_misses: 0,
            seq: 0,
        }
    }
}

/// A sealed verdict: a [`VerdictDraft`] plus its MAC. The byte form
/// ([`VerdictRecord::encode`]) is canonical — equal records encode to
/// equal bytes, and [`VerdictRecord::record_hash`] over those bytes is
/// the identity every other subsystem cites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRecord {
    /// The sealed fields.
    pub fields: VerdictDraft,
    /// HMAC-SHA256 over the encoded body under the sealing key.
    pub tag: Digest,
}

/// A failure while decoding a [`VerdictRecord`].
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new decode failures can be added without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerdictError {
    /// The buffer ended mid-record.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// The record did not start with the magic bytes.
    BadMagic {
        /// Byte offset of the bad record.
        offset: usize,
    },
    /// Unsupported record version.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// A declared string length is implausibly large for the buffer.
    BadLength {
        /// The offending length.
        len: u32,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the offending field.
        offset: usize,
    },
    /// Bytes remained after a complete record.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for VerdictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerdictError::Truncated { offset } => write!(f, "record truncated at byte {offset}"),
            VerdictError::BadMagic { offset } => write!(f, "bad record magic at byte {offset}"),
            VerdictError::BadVersion { found } => write!(f, "unsupported record version {found}"),
            VerdictError::BadLength { len } => write!(f, "implausible string length {len}"),
            VerdictError::BadUtf8 { offset } => write!(f, "invalid UTF-8 at byte {offset}"),
            VerdictError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after record")
            }
        }
    }
}

impl std::error::Error for VerdictError {}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], VerdictError> {
        if n > self.buf.len() - self.pos {
            return Err(VerdictError::Truncated { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, VerdictError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, VerdictError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, VerdictError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn arr32(&mut self) -> Result<[u8; 32], VerdictError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(self.take(32)?);
        Ok(out)
    }

    fn string(&mut self) -> Result<String, VerdictError> {
        let len = self.u32()?;
        if len as usize > self.buf.len() {
            return Err(VerdictError::BadLength { len });
        }
        let at = self.pos;
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| VerdictError::BadUtf8 { offset: at })
    }
}

impl VerdictRecord {
    /// Seals a draft: encodes the body and MACs it under `seal_key`
    /// (derive one with [`verdict_seal_key`]).
    pub fn seal(seal_key: &[u8], fields: VerdictDraft) -> VerdictRecord {
        VerdictRecord::seal_keyed(&HmacSha256::new(seal_key), fields)
    }

    /// [`VerdictRecord::seal`] under a MAC context already keyed with
    /// the sealing key: the key's pad blocks are not hashed again.
    pub(crate) fn seal_keyed(keyed: &HmacSha256, fields: VerdictDraft) -> VerdictRecord {
        VerdictRecord {
            tag: seal_tag(keyed.clone(), &fields),
            fields,
        }
    }

    /// Canonical byte encoding: body followed by the 32-byte tag, in
    /// one allocation of exactly its length.
    pub fn encode(&self) -> Vec<u8> {
        let f = &self.fields;
        let strings = f.device.len() + f.kind.len() + f.detail.len();
        let mut out = Vec::with_capacity(BODY_FIXED_LEN + strings + DIGEST_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Appends [`VerdictRecord::encode`]'s bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        write_body(&self.fields, |bytes| out.extend_from_slice(bytes));
        out.extend_from_slice(&self.tag);
    }

    /// Decodes one record, requiring the buffer to contain exactly one.
    ///
    /// # Errors
    ///
    /// Returns a typed [`VerdictError`] on any malformed input; the
    /// seal is *not* checked here — call
    /// [`authenticate`](VerdictRecord::authenticate) for that.
    pub fn decode(bytes: &[u8]) -> Result<VerdictRecord, VerdictError> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        if cur.take(4)? != MAGIC {
            return Err(VerdictError::BadMagic { offset: 0 });
        }
        let version = cur.u8()?;
        if version != VERSION {
            return Err(VerdictError::BadVersion { found: version });
        }
        let flags = cur.u8()?;
        let seq = cur.u64()?;
        let chal = Challenge(cur.arr32()?);
        let report_hash = cur.arr32()?;
        let stats_digest = cur.arr32()?;
        let events = cur.u32()?;
        let steps = cur.u64()?;
        let dict_hits = cur.u32()?;
        let cache_hits = cur.u64()?;
        let cache_misses = cur.u64()?;
        let device = cur.string()?;
        let kind = cur.string()?;
        let detail = cur.string()?;
        let tag = cur.arr32()?;
        if cur.pos != bytes.len() {
            return Err(VerdictError::TrailingBytes {
                extra: bytes.len() - cur.pos,
            });
        }
        Ok(VerdictRecord {
            fields: VerdictDraft {
                device,
                chal,
                report_hash,
                accepted: flags & 1 != 0,
                kind,
                detail,
                events,
                steps,
                stats_digest,
                dict_hits,
                cache_hits,
                cache_misses,
                seq,
            },
            tag,
        })
    }

    /// Recomputes the seal and compares it against the carried tag in
    /// constant time.
    pub fn authenticate(&self, seal_key: &[u8]) -> bool {
        let tag = seal_tag(HmacSha256::new(seal_key), &self.fields);
        verify_tag(&tag, &self.tag)
    }

    /// SHA-256 over the canonical encoding — the identity other
    /// subsystems (audit chain, fleet transitions) cite.
    pub fn record_hash(&self) -> Digest {
        sha256(&self.encode())
    }

    /// Short citation form of [`VerdictRecord::record_hash`]: the
    /// first 6 bytes as 12 hex chars.
    pub fn short_hash(&self) -> String {
        short_hash_hex(&self.record_hash())
    }

    /// Whether the evidence was accepted.
    pub fn accepted(&self) -> bool {
        self.fields.accepted
    }

    /// Stable outcome word: `"accepted"`, or the failure kind.
    pub fn outcome(&self) -> &str {
        if self.fields.accepted {
            "accepted"
        } else {
            &self.fields.kind
        }
    }

    /// Canonical one-line rendering, shared by `rap verify`, `rap top`
    /// and `rap audit show` so a verdict reads identically everywhere.
    pub fn render(&self) -> String {
        let f = &self.fields;
        if f.accepted {
            format!(
                "ACCEPT {} seq={} events={} steps={} rec={}",
                f.device,
                f.seq,
                f.events,
                f.steps,
                self.short_hash()
            )
        } else {
            format!(
                "REJECT {} seq={} kind={} rec={}",
                f.device,
                f.seq,
                f.kind,
                self.short_hash()
            )
        }
    }
}

/// Renders a record hash in its short citation form (12 hex chars).
pub fn short_hash_hex(hash: &Digest) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(12);
    for b in &hash[..6] {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Feeds the encoded body to `put`, field by field.
fn write_body(f: &VerdictDraft, mut put: impl FnMut(&[u8])) {
    put(MAGIC);
    put(&[VERSION, u8::from(f.accepted)]);
    put(&f.seq.to_le_bytes());
    put(&f.chal.0);
    put(&f.report_hash);
    put(&f.stats_digest);
    put(&f.events.to_le_bytes());
    put(&f.steps.to_le_bytes());
    put(&f.dict_hits.to_le_bytes());
    put(&f.cache_hits.to_le_bytes());
    put(&f.cache_misses.to_le_bytes());
    for s in [&f.device, &f.kind, &f.detail] {
        put(&(s.len() as u32).to_le_bytes());
        put(s.as_bytes());
    }
}

/// The seal over `f`'s body under `mac`, a context keyed with the
/// sealing key. The body streams into the MAC; no buffer is built.
fn seal_tag(mut mac: HmacSha256, f: &VerdictDraft) -> Digest {
    mac.update(SEAL_DOMAIN);
    write_body(f, |bytes| mac.update(bytes));
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::device_key;

    fn sample() -> VerdictDraft {
        VerdictDraft {
            device: "dev-7".to_string(),
            chal: Challenge::from_seed(9),
            report_hash: sha256(b"reports"),
            accepted: true,
            events: 12,
            steps: 345,
            stats_digest: sha256(b"stats"),
            dict_hits: 3,
            cache_hits: 40,
            cache_misses: 2,
            seq: 5,
            ..VerdictDraft::default()
        }
    }

    fn seal_key() -> Vec<u8> {
        verdict_seal_key(&device_key("verdict-unit"))
    }

    #[test]
    fn roundtrip_and_authenticate() {
        let rec = VerdictRecord::seal(&seal_key(), sample());
        let bytes = rec.encode();
        let back = VerdictRecord::decode(&bytes).expect("decodes");
        assert_eq!(back, rec);
        assert!(back.authenticate(&seal_key()));
        assert!(!back.authenticate(&verdict_seal_key(&device_key("other"))));
        assert_eq!(back.record_hash(), rec.record_hash());
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = VerdictRecord::seal(&seal_key(), sample());
        let b = VerdictRecord::seal(&seal_key(), sample());
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.record_hash(), b.record_hash());
    }

    #[test]
    fn encode_allocates_exactly_once() {
        let mut draft = sample();
        for detail in ["", "x", "a longer failure detail"] {
            draft.detail = detail.to_string();
            let record = VerdictRecord::seal(&seal_key(), draft.clone());
            let bytes = record.encode();
            assert_eq!(bytes.capacity(), bytes.len(), "detail {detail:?}");
            let mut appended = b"prefix".to_vec();
            record.encode_into(&mut appended);
            assert_eq!(&appended[6..], &bytes[..]);
        }
    }

    #[test]
    fn truncation_detected_at_every_boundary() {
        let bytes = VerdictRecord::seal(&seal_key(), sample()).encode();
        for cut in 0..bytes.len() {
            match VerdictRecord::decode(&bytes[..cut]) {
                Err(VerdictError::Truncated { .. }) => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_version_and_trailing() {
        let bytes = VerdictRecord::seal(&seal_key(), sample()).encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            VerdictRecord::decode(&bad),
            Err(VerdictError::BadMagic { offset: 0 })
        ));
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            VerdictRecord::decode(&bad),
            Err(VerdictError::BadVersion { found: 9 })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            VerdictRecord::decode(&long),
            Err(VerdictError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn adversarial_length_is_typed() {
        let rec = VerdictRecord::seal(&seal_key(), sample());
        let bytes = rec.encode();
        // The device length field sits after the fixed 126-byte prefix.
        let dev_len_at = 4 + 1 + 1 + 8 + 32 + 32 + 32 + 4 + 8 + 4 + 8 + 8;
        let mut bad = bytes.clone();
        bad[dev_len_at..dev_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            VerdictRecord::decode(&bad),
            Err(VerdictError::BadLength { len: u32::MAX })
        ));
        let mut bad = bytes;
        // Corrupt the device bytes into invalid UTF-8.
        bad[dev_len_at + 4] = 0xFF;
        bad[dev_len_at + 5] = 0xFF;
        assert!(matches!(
            VerdictRecord::decode(&bad),
            Err(VerdictError::BadUtf8 { .. })
        ));
    }

    #[test]
    fn any_field_tamper_invalidates_tag() {
        let rec = VerdictRecord::seal(&seal_key(), sample());
        let mut bytes = rec.encode();
        for at in 5..bytes.len() - 33 {
            bytes[at] ^= 1;
            if let Ok(back) = VerdictRecord::decode(&bytes) {
                assert!(!back.authenticate(&seal_key()), "flip at {at} not caught");
            }
            bytes[at] ^= 1;
        }
    }

    #[test]
    fn render_is_canonical() {
        let rec = VerdictRecord::seal(&seal_key(), sample());
        let line = rec.render();
        assert!(line.starts_with("ACCEPT dev-7 seq=5 events=12 steps=345 rec="));
        assert_eq!(rec.short_hash().len(), 12);
        assert_eq!(rec.outcome(), "accepted");

        let rejected = VerdictRecord::seal(
            &seal_key(),
            VerdictDraft {
                accepted: false,
                kind: "return-mismatch".to_string(),
                detail: "got 0x5 want 0x9".to_string(),
                events: 0,
                steps: 0,
                ..sample()
            },
        );
        assert!(rejected
            .render()
            .starts_with("REJECT dev-7 seq=5 kind=return-mismatch rec="));
        assert_eq!(rejected.outcome(), "return-mismatch");
    }

    #[test]
    fn stats_digest_commits_to_every_counter() {
        let base = VerifierStats {
            cache_hits: 1,
            cache_misses: 2,
            cached_steps: 3,
            live_steps: 4,
            jobs: 5,
            wall_ns: 6,
        };
        let d0 = stats_digest(&base);
        let mut other = base;
        other.live_steps += 1;
        assert_ne!(d0, stats_digest(&other));
        assert_eq!(d0, stats_digest(&base));
        // Wall-clock is deliberately excluded: same replay work, any
        // timing, same digest (record hashes must be deterministic).
        let mut timed = base;
        timed.wall_ns += 1_000_000;
        assert_eq!(d0, stats_digest(&timed));
    }
}
