//! Binary wire format for report streams — what actually travels from
//! the Prover to the Verifier.
//!
//! Little-endian framing, one frame per report:
//!
//! ```text
//! magic  "RAPR"            4 bytes
//! ver    u8 = 1 | 2        1
//! flags  u8  bit0 = final, bit1 = overflow
//! seq    u32
//! chal   [u8; 32]
//! h_mem  [u8; 32]
//! nmtb   u32, then nmtb × (source u32, dest u32)
//! nloop  u32, then nloop × u32
//! v2+:   nrec u32, then nrec × (kind u8, ...)
//!          kind 1 = dictionary hit: at u32, id u32
//! tag    [u8; 32]
//! ```
//!
//! Version 2 frames append a typed-record section for
//! speculation-dictionary hits. Reports without dictionary hits are
//! still emitted as version 1, so v1 streams decode (and re-encode)
//! byte-identically; a record with an unknown kind is a typed
//! [`WireError::BadRecordKind`], never a panic.
//!
//! Frames concatenate to form a stream; [`decode_stream`] reads until
//! the buffer is exhausted.
//!
//! Accepted encodings are canonical — every stream [`decode_stream`]
//! accepts re-encodes to exactly the bytes received — so a sealed
//! verdict can hash the payload as received. Hence two rules, each a
//! typed [`WireError::NonCanonical`]: a version 2 frame carries at
//! least one record, and the flags byte sets no bit but final/overflow.

use trace_units::{SubPathHit, TraceEntry};

use crate::report::{CfLog, Challenge, Report};

const MAGIC: &[u8; 4] = b"RAPR";
const VERSION: u8 = 1;
const VERSION_DICT: u8 = 2;
const RECORD_DICT_HIT: u8 = 1;
/// Bytes of one encoded dictionary-hit record (kind + at + id).
const DICT_RECORD_BYTES: usize = 9;

/// A failure while decoding a wire stream.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new decode failures can be added without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended mid-frame.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// The frame did not start with the magic bytes.
    BadMagic {
        /// Byte offset of the bad frame.
        offset: usize,
    },
    /// Unsupported format version.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// A declared element count is implausibly large for the buffer.
    BadCount {
        /// The offending count.
        count: u32,
    },
    /// A v2 typed record carried an unknown kind byte.
    BadRecordKind {
        /// The kind byte found.
        kind: u8,
    },
    /// A frame the encoder never writes: a flag bit other than
    /// final/overflow, or a version 2 frame without records.
    NonCanonical {
        /// Byte offset of the offending field.
        offset: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { offset } => write!(f, "stream truncated at byte {offset}"),
            WireError::BadMagic { offset } => write!(f, "bad frame magic at byte {offset}"),
            WireError::BadVersion { found } => write!(f, "unsupported wire version {found}"),
            WireError::BadCount { count } => write!(f, "implausible element count {count}"),
            WireError::BadRecordKind { kind } => write!(f, "unknown record kind {kind}"),
            WireError::NonCanonical { offset } => write!(f, "non-canonical frame at byte {offset}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one report as a wire frame.
pub fn encode_report(report: &Report) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + report.log.size_bytes());
    out.extend_from_slice(MAGIC);
    // Dictionary-free reports stay on v1 so their frames remain
    // byte-identical to what pre-dictionary verifiers pinned.
    if report.log.dict_hits.is_empty() {
        out.push(VERSION);
    } else {
        out.push(VERSION_DICT);
    }
    out.push(u8::from(report.is_final) | u8::from(report.overflow) << 1);
    out.extend_from_slice(&report.seq.to_le_bytes());
    out.extend_from_slice(&report.chal.0);
    out.extend_from_slice(&report.h_mem);
    out.extend_from_slice(&(report.log.mtb.len() as u32).to_le_bytes());
    for e in &report.log.mtb {
        out.extend_from_slice(&e.source.to_le_bytes());
        out.extend_from_slice(&e.dest.to_le_bytes());
    }
    out.extend_from_slice(&(report.log.loop_records.len() as u32).to_le_bytes());
    for r in &report.log.loop_records {
        out.extend_from_slice(&r.to_le_bytes());
    }
    if !report.log.dict_hits.is_empty() {
        out.extend_from_slice(&(report.log.dict_hits.len() as u32).to_le_bytes());
        for h in &report.log.dict_hits {
            out.push(RECORD_DICT_HIT);
            out.extend_from_slice(&h.at.to_le_bytes());
            out.extend_from_slice(&h.id.to_le_bytes());
        }
    }
    out.extend_from_slice(&report.tag);
    out
}

/// Encodes a whole report stream.
pub fn encode_stream(reports: &[Report]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reports {
        out.extend(encode_report(r));
    }
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn arr32(&mut self) -> Result<[u8; 32], WireError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(self.take(32)?);
        Ok(out)
    }
}

/// Decodes a stream of frames until the buffer is exhausted.
///
/// # Errors
///
/// Returns a [`WireError`] on any malformed frame. Authentication is
/// *not* checked here — that is the Verifier's job.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<Report>, WireError> {
    let mut cur = Cursor { buf: bytes, pos: 0 };
    let mut reports = Vec::new();
    while cur.pos < bytes.len() {
        let frame_start = cur.pos;
        if cur.take(4)? != MAGIC {
            return Err(WireError::BadMagic {
                offset: frame_start,
            });
        }
        let version = cur.u8()?;
        if version != VERSION && version != VERSION_DICT {
            return Err(WireError::BadVersion { found: version });
        }
        let flags = cur.u8()?;
        // Only bit 0 (final) and bit 1 (overflow) are defined.
        if flags > 0b11 {
            return Err(WireError::NonCanonical {
                offset: cur.pos - 1,
            });
        }
        let seq = cur.u32()?;
        let chal = Challenge(cur.arr32()?);
        let h_mem = cur.arr32()?;
        let nmtb = cur.u32()?;
        if nmtb as usize > bytes.len() / 8 + 1 {
            return Err(WireError::BadCount { count: nmtb });
        }
        let mut mtb = Vec::with_capacity(nmtb as usize);
        for _ in 0..nmtb {
            let source = cur.u32()?;
            let dest = cur.u32()?;
            mtb.push(TraceEntry { source, dest });
        }
        let nloop = cur.u32()?;
        if nloop as usize > bytes.len() / 4 + 1 {
            return Err(WireError::BadCount { count: nloop });
        }
        let mut loop_records = Vec::with_capacity(nloop as usize);
        for _ in 0..nloop {
            loop_records.push(cur.u32()?);
        }
        let mut dict_hits = Vec::new();
        if version == VERSION_DICT {
            let nrec = cur.u32()?;
            if nrec == 0 {
                return Err(WireError::NonCanonical {
                    offset: cur.pos - 4,
                });
            }
            if nrec as usize > bytes.len() / DICT_RECORD_BYTES + 1 {
                return Err(WireError::BadCount { count: nrec });
            }
            dict_hits.reserve(nrec as usize);
            for _ in 0..nrec {
                let kind = cur.u8()?;
                if kind != RECORD_DICT_HIT {
                    return Err(WireError::BadRecordKind { kind });
                }
                let at = cur.u32()?;
                let id = cur.u32()?;
                dict_hits.push(SubPathHit { at, id });
            }
        }
        let tag = cur.arr32()?;
        reports.push(Report {
            chal,
            h_mem,
            log: CfLog {
                mtb,
                loop_records,
                dict_hits,
            },
            seq,
            is_final: flags & 1 != 0,
            overflow: flags & 2 != 0,
            tag,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::device_key;

    fn sample_reports() -> Vec<Report> {
        let key = device_key("wire");
        let chal = Challenge::from_seed(3);
        let h = rap_crypto::sha256(b"bin");
        vec![
            Report::new(
                &key,
                chal,
                h,
                CfLog {
                    mtb: vec![
                        TraceEntry {
                            source: 0x10,
                            dest: 0x20,
                        },
                        TraceEntry {
                            source: 0x30,
                            dest: 0x40,
                        },
                    ],
                    loop_records: vec![5],
                    dict_hits: vec![],
                },
                0,
                false,
                false,
            ),
            Report::new(&key, chal, h, CfLog::new(), 1, true, true),
        ]
    }

    #[test]
    fn stream_roundtrip() {
        let reports = sample_reports();
        let bytes = encode_stream(&reports);
        let back = decode_stream(&bytes).expect("decodes");
        assert_eq!(back, reports);
        // Authentication survives the trip.
        let key = device_key("wire");
        assert!(back[0].authenticate(&key));
        assert!(back[1].authenticate(&key));
        assert!(back[1].overflow);
        assert!(back[1].is_final);
    }

    #[test]
    fn truncation_detected_at_every_boundary() {
        let bytes = encode_stream(&sample_reports());
        for cut in 1..bytes.len() {
            match decode_stream(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                Ok(reports) => {
                    // A cut exactly between frames decodes the prefix.
                    assert!(reports.len() < 2 || cut == bytes.len());
                }
                Err(other) => panic!("cut {cut}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = encode_stream(&sample_reports());
        bytes[0] = b'X';
        assert!(matches!(
            decode_stream(&bytes),
            Err(WireError::BadMagic { offset: 0 })
        ));
        let mut bytes = encode_stream(&sample_reports());
        bytes[4] = 9;
        assert!(matches!(
            decode_stream(&bytes),
            Err(WireError::BadVersion { found: 9 })
        ));
    }

    #[test]
    fn adversarial_count_rejected() {
        let mut bytes = encode_report(&sample_reports()[1]);
        // Overwrite nmtb (offset 4+1+1+4+32+32 = 74) with u32::MAX.
        bytes[74..78].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_stream(&bytes),
            Err(WireError::BadCount { .. })
        ));
    }

    fn dict_report() -> Report {
        let key = device_key("wire");
        Report::new(
            &key,
            Challenge::from_seed(4),
            rap_crypto::sha256(b"bin"),
            CfLog {
                mtb: vec![TraceEntry {
                    source: 0x50,
                    dest: 0x60,
                }],
                loop_records: vec![2],
                dict_hits: vec![SubPathHit { at: 0, id: 7 }, SubPathHit { at: 1, id: 0 }],
            },
            0,
            true,
            false,
        )
    }

    #[test]
    fn v1_frames_stay_byte_identical() {
        // Pin the exact v1 layout for a dictionary-free report: the
        // version byte is 1 and no record section is emitted.
        let r = &sample_reports()[1];
        let bytes = encode_report(r);
        assert_eq!(bytes[4], 1, "dictionary-free reports stay v1");
        // magic+ver+flags+seq+chal+h_mem+nmtb+nloop+tag
        assert_eq!(bytes.len(), 4 + 1 + 1 + 4 + 32 + 32 + 4 + 4 + 32);
    }

    #[test]
    fn v2_roundtrip_with_dict_hits() {
        let r = dict_report();
        let bytes = encode_report(&r);
        assert_eq!(bytes[4], 2, "dictionary hits force v2");
        let back = decode_stream(&bytes).expect("decodes");
        assert_eq!(back, vec![r]);
        assert!(back[0].authenticate(&device_key("wire")));
    }

    #[test]
    fn v2_truncation_detected_at_every_boundary() {
        let bytes = encode_report(&dict_report());
        for cut in 1..bytes.len() {
            match decode_stream(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_record_kind_is_typed() {
        let bytes = encode_report(&dict_report());
        // The first record's kind byte sits right after nrec, which
        // follows magic(4)+ver+flags+seq(4)+chal+h_mem+nmtb(4)+
        // 1 entry(8)+nloop(4)+1 loop(4).
        let kind_at = 4 + 1 + 1 + 4 + 32 + 32 + 4 + 8 + 4 + 4 + 4;
        assert_eq!(bytes[kind_at], 1);
        let mut bad = bytes.clone();
        bad[kind_at] = 9;
        assert!(matches!(
            decode_stream(&bad),
            Err(WireError::BadRecordKind { kind: 9 })
        ));
    }

    #[test]
    fn adversarial_record_count_rejected() {
        let mut bytes = encode_report(&dict_report());
        let nrec_at = 4 + 1 + 1 + 4 + 32 + 32 + 4 + 8 + 4 + 4;
        bytes[nrec_at..nrec_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_stream(&bytes),
            Err(WireError::BadCount { .. })
        ));
    }

    #[test]
    fn v2_frame_without_records_is_non_canonical() {
        // The encoder writes v1 for a report without hits, so a v2 frame
        // declaring zero records is a second payload for the same report.
        let r = &sample_reports()[1];
        let v1 = encode_report(r);
        let tag_at = v1.len() - 32;
        let mut v2 = v1[..tag_at].to_vec();
        v2[4] = VERSION_DICT;
        v2.extend_from_slice(&0u32.to_le_bytes());
        v2.extend_from_slice(&v1[tag_at..]);
        assert_eq!(
            decode_stream(&v2),
            Err(WireError::NonCanonical { offset: tag_at })
        );
        assert_eq!(decode_stream(&v1).expect("v1 decodes"), vec![r.clone()]);
    }

    #[test]
    fn unknown_flag_bits_are_non_canonical() {
        let bytes = encode_stream(&sample_reports());
        let second = encode_report(&sample_reports()[0]).len();
        for bit in 2..8 {
            for at in [5, second + 5] {
                let mut bad = bytes.clone();
                bad[at] |= 1 << bit;
                assert_eq!(
                    decode_stream(&bad),
                    Err(WireError::NonCanonical { offset: at }),
                    "flag bit {bit} at byte {at}"
                );
            }
        }
        // Every combination of the two defined bits stays accepted.
        for flags in 0..4u8 {
            let mut ok = bytes.clone();
            ok[5] = flags;
            let back = decode_stream(&ok).expect("defined flags decode");
            assert_eq!(encode_stream(&back), ok);
        }
    }

    #[test]
    fn tampered_wire_bytes_fail_authentication() {
        let reports = sample_reports();
        let mut bytes = encode_stream(&reports);
        // Flip one byte inside the first report's first MTB entry.
        bytes[75] ^= 1;
        if let Ok(back) = decode_stream(&bytes) {
            assert!(!back[0].authenticate(&device_key("wire")));
        }
    }
}
