//! The audit-chain oracle: structure-aware mutation of hash-chained
//! verdict logs, under `catch_unwind`.
//!
//! Each case builds a fresh chain of seeded, sealed [`VerdictRecord`]s
//! with an *independent* writer (header and frames are re-implemented
//! here, byte for byte, so drift between writer and verifier cannot
//! hide). The contract fuzzed:
//!
//! 1. **No panic, ever** — [`ChainVerifier::scan`] yields a typed
//!    report for any byte sequence, including pure garbage.
//! 2. **Round trip** — a clean chain verifies with and without the
//!    seal key, surfaces every record byte-identically, and ends at
//!    the writer's head hash.
//! 3. **Bit flips are fatal** — flipping any single bit anywhere in
//!    the file breaks verification with a typed first break.
//! 4. **Truncation is typed** — a cut inside a frame is a
//!    `TruncatedTail`; a cut exactly between frames verifies as a
//!    shorter prefix whose head matches that prefix (the residual an
//!    external head anchor exists to close).
//! 5. **Splices need the key** — a re-signed splice that recomputes
//!    every chain hash fools the keyless check but dies as `BadSeal`
//!    under the operator's key.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rap_audit::{entry_hash, genesis_hash, ChainBreak, ChainVerifier, FILE_HEADER_LEN};
use rap_track::{verdict_seal_key, Challenge, VerdictDraft, VerdictRecord};

use crate::oracle::CaseFailure;
use crate::rng::Rng;

/// Counters from one passing audit case.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditCaseResult {
    /// Records chained.
    pub records: u64,
    /// Mutations applied (flips, cuts, splices, garbage scans).
    pub mutations: u64,
}

fn gen_record(rng: &mut Rng, seal_key: &[u8], seq: u64) -> VerdictRecord {
    let mut chal = [0u8; 32];
    let mut report_hash = [0u8; 32];
    for i in 0..32 {
        chal[i] = rng.next_u64() as u8;
        report_hash[i] = rng.next_u64() as u8;
    }
    let accepted = !rng.next_u64().is_multiple_of(3);
    let (kind, detail) = if accepted {
        (String::new(), String::new())
    } else {
        let kinds = ["return-mismatch", "wire", "bad-tag"];
        (
            kinds[rng.usize_below(kinds.len())].to_string(),
            format!("fuzz detail {:x}", rng.next_u64()),
        )
    };
    VerdictRecord::seal(
        seal_key,
        VerdictDraft {
            device: format!("fuzz-dev-{}", rng.next_u64() % 8),
            chal: Challenge(chal),
            report_hash,
            accepted,
            kind,
            detail,
            events: rng.next_u64() as u32 % 4096,
            steps: rng.next_u64() % (1 << 20),
            stats_digest: report_hash,
            dict_hits: rng.next_u64() as u32 % 64,
            cache_hits: rng.next_u64() % 1024,
            cache_misses: rng.next_u64() % 1024,
            seq,
        },
    )
}

/// Independent chain writer: header plus length-prefixed frames, each
/// carrying `sha256(prev ‖ record_bytes)`. Returns the file image, the
/// frame start offsets, and the final head.
fn build_chain(records: &[VerdictRecord]) -> (Vec<u8>, Vec<usize>, [u8; 32]) {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"RAPA");
    bytes.push(1);
    let mut offsets = Vec::with_capacity(records.len());
    let mut prev = genesis_hash();
    for record in records {
        offsets.push(bytes.len());
        let rb = record.encode();
        let hash = entry_hash(&prev, &rb);
        bytes.extend_from_slice(&(rb.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&rb);
        bytes.extend_from_slice(&hash);
        prev = hash;
    }
    (bytes, offsets, prev)
}

/// Runs one audit-chain case for `case_seed`. Deterministic: the same
/// seed generates the same records and the same mutation schedule.
pub fn run_audit_case(
    case_seed: u64,
    mutation_rounds: usize,
) -> Result<AuditCaseResult, CaseFailure> {
    let fail = |detail: String| CaseFailure {
        oracle: "audit",
        detail,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = Rng::new(case_seed ^ 0xA0D1_7C8A);
        let seal_key = verdict_seal_key(&case_seed.to_le_bytes());
        let count = 2 + rng.next_u64() as usize % 6;
        let records: Vec<VerdictRecord> = (0..count as u64)
            .map(|seq| gen_record(&mut rng, &seal_key, seq))
            .collect();
        let (bytes, offsets, head) = build_chain(&records);
        let mut result = AuditCaseResult {
            records: count as u64,
            mutations: 0,
        };

        // Contract 2: the clean chain round-trips under both verifiers.
        let keyed = ChainVerifier::with_seal_key(seal_key.clone());
        let (entries, report) = keyed.scan(&bytes);
        if let Some(b) = &report.first_break {
            return Err(format!("clean chain broke: {b}"));
        }
        if report.entries != count as u64 || report.head != head {
            return Err(format!(
                "clean chain: {} entries head-match={}, expected {count}",
                report.entries,
                report.head == head
            ));
        }
        for (entry, record) in entries.iter().zip(&records) {
            if entry.record != *record {
                return Err(format!("entry {} did not round-trip", entry.index));
            }
        }
        if !ChainVerifier::new().verify_bytes(&bytes).ok() {
            return Err("clean chain broke under the keyless verifier".to_string());
        }

        for _ in 0..mutation_rounds {
            // Contract 3: any single-bit flip is a typed break.
            let at = rng.usize_below(bytes.len());
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (rng.next_u64() % 8);
            result.mutations += 1;
            let report = keyed.verify_bytes(&flipped);
            if report.ok() {
                return Err(format!("bit flip at byte {at} went undetected"));
            }

            // Contract 4: truncation is typed (or a clean, shorter
            // prefix when the cut lands exactly between frames).
            let cut = rng.usize_below(bytes.len());
            result.mutations += 1;
            let report = ChainVerifier::new().verify_bytes(&bytes[..cut]);
            let on_boundary = offsets.contains(&cut);
            match &report.first_break {
                None if cut < FILE_HEADER_LEN => {
                    return Err(format!("headerless {cut}-byte prefix verified"));
                }
                None if !on_boundary && cut != bytes.len() => {
                    return Err(format!("mid-frame cut at {cut} verified"));
                }
                None => {
                    let want = offsets.iter().filter(|&&o| o < cut).count() as u64;
                    if report.entries != want {
                        return Err(format!(
                            "boundary cut at {cut}: {} entries, expected {want}",
                            report.entries
                        ));
                    }
                }
                Some(ChainBreak::TruncatedTail { .. }) | Some(ChainBreak::BadHeader { .. }) => {}
                Some(other) => {
                    return Err(format!("cut at {cut} misdiagnosed as {other}"));
                }
            }
        }

        // Contract 5: a re-signed splice (attacker re-seals one record
        // and recomputes every downstream chain hash) passes the
        // structural check but fails under the seal key.
        if count >= 2 {
            let victim = rng.usize_below(count);
            let mut forged = records.clone();
            forged[victim] = VerdictRecord::seal(
                &verdict_seal_key(b"fuzz-attacker"),
                forged[victim].fields.clone(),
            );
            let (spliced, _, _) = build_chain(&forged);
            result.mutations += 1;
            if !ChainVerifier::new().verify_bytes(&spliced).ok() {
                return Err("re-signed splice failed the structural check".to_string());
            }
            match keyed.verify_bytes(&spliced).first_break {
                Some(ChainBreak::BadSeal { index, .. }) if index == victim as u64 => {}
                other => {
                    return Err(format!(
                        "splice of entry {victim} not caught as BadSeal: {other:?}"
                    ));
                }
            }
        }

        // Contract 1: pure garbage never panics and is always typed.
        let garbage: Vec<u8> = (0..rng.usize_below(256))
            .map(|_| rng.next_u64() as u8)
            .collect();
        result.mutations += 1;
        if keyed.verify_bytes(&garbage).ok() && !garbage.is_empty() {
            return Err(format!("{}-byte garbage verified", garbage.len()));
        }
        Ok(result)
    }));

    match outcome {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(detail)) => Err(fail(detail)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            Err(fail(format!("panicked: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_cases_pass_across_seeds() {
        for seed in 0..24u64 {
            let result = run_audit_case(seed, 6).unwrap_or_else(|f| {
                panic!("seed {seed}: [{}] {}", f.oracle, f.detail);
            });
            assert!(result.records >= 2);
            assert!(result.mutations > 0);
        }
    }

    #[test]
    fn audit_case_is_deterministic() {
        let a = run_audit_case(7, 6).unwrap();
        let b = run_audit_case(7, 6).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.mutations, b.mutations);
    }
}
