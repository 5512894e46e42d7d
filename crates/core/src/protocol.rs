//! The RA challenge–response protocol (§II-C): the session layer that
//! drives the four steps around the engine and verifier.
//!
//! 1. Vrf creates a unique `Chal` and sends a CFA request.
//! 2. Prv runs the attested execution and builds the evidence.
//! 3. Prv authenticates the evidence with the device key.
//! 4. Vrf checks the proof (and, here, reconstructs the path).
//!
//! [`VerifierSession`] owns challenge freshness: every request gets a
//! new nonce derived from a counter and session secret, responses are
//! matched to the *outstanding* challenge only, and a challenge is
//! consumed on first use — replaying an old session's reports (or the
//! same session's reports twice) is rejected without touching replay.
//!
//! For pipelined transports the session also supports a *window* of
//! outstanding challenges ([`VerifierSession::issue_windowed_challenge`]):
//! challenges form an ordered queue and responses are matched against
//! the oldest one first, so an out-of-order response fails the HMAC
//! check of the front challenge and is rejected as a
//! [`Violation::ChallengeMismatch`].

use std::collections::VecDeque;
use std::sync::LazyLock;

use armv8m_isa::Image;
use rap_crypto::HmacSha256;
use rap_link::LinkMap;

use crate::report::{Challenge, Key, Report};
use crate::verdict::VerdictRecord;
use crate::verifier::{VerifiedPath, Verifier, Violation};
use crate::wire::WireError;

/// The challenge MAC, keyed once with its constant domain key: every
/// nonce clones it.
static CHAL_MAC: LazyLock<HmacSha256> = LazyLock::new(|| HmacSha256::new(b"RAP-TRACK-CHAL"));

/// The Verifier's per-device session state.
#[derive(Debug, Clone)]
pub struct VerifierSession {
    verifier: Verifier,
    session_secret: Vec<u8>,
    counter: u64,
    responses: u64,
    outstanding: VecDeque<Challenge>,
}

/// Why a response was not accepted.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new protocol failures can be added without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// A response arrived with no outstanding request.
    NoOutstandingChallenge,
    /// The response payload is not a canonical report stream.
    Wire(WireError),
    /// Verification of the evidence failed.
    Verification(Violation),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoOutstandingChallenge => {
                write!(f, "response without an outstanding challenge")
            }
            SessionError::Wire(w) => write!(f, "undecodable response: {w}"),
            SessionError::Verification(v) => write!(f, "verification failed: {v}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl VerifierSession {
    /// Opens a session for one deployed application.
    ///
    /// `session_secret` seeds nonce derivation (a real deployment uses
    /// an OS RNG; determinism keeps tests and benches reproducible).
    pub fn new(key: Key, image: Image, map: LinkMap, session_secret: &[u8]) -> VerifierSession {
        VerifierSession::from_verifier(Verifier::new(key, image, map), session_secret)
    }

    /// Opens a session around an existing [`Verifier`].
    ///
    /// Because verifier clones share one replay cache, sessions built
    /// from clones of the same verifier (one per connection, say) all
    /// benefit from each other's decoded stretches while keeping
    /// challenge freshness strictly per-session.
    pub fn from_verifier(verifier: Verifier, session_secret: &[u8]) -> VerifierSession {
        VerifierSession {
            verifier,
            session_secret: session_secret.to_vec(),
            counter: 0,
            responses: 0,
            outstanding: VecDeque::new(),
        }
    }

    /// The verifier this session drives.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// Step 1: issues a fresh challenge. Any previously outstanding
    /// challenge is abandoned (its responses will be rejected).
    pub fn issue_challenge(&mut self) -> Challenge {
        self.outstanding.clear();
        self.issue_windowed_challenge()
    }

    /// Issues one more challenge *without* abandoning the outstanding
    /// ones — the pipelined variant of
    /// [`VerifierSession::issue_challenge`]. Challenges queue in issue
    /// order and [`VerifierSession::check_response`] consumes them
    /// oldest-first.
    pub fn issue_windowed_challenge(&mut self) -> Challenge {
        self.counter += 1;
        // HMAC(domain, secret ‖ counter), streamed: no message buffer.
        let mut mac = CHAL_MAC.clone();
        mac.update(&self.session_secret);
        mac.update(&self.counter.to_le_bytes());
        let chal = Challenge(mac.finalize());
        self.outstanding.push_back(chal);
        chal
    }

    /// The oldest outstanding challenge (the one the next response
    /// must answer), if any.
    pub fn outstanding(&self) -> Option<Challenge> {
        self.outstanding.front().copied()
    }

    /// How many challenges are outstanding (the in-flight window).
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Abandons every outstanding challenge — used when a resumed
    /// transport session starts a fresh window; the nonce counter keeps
    /// advancing so abandoned nonces are never re-issued.
    pub fn clear_outstanding(&mut self) {
        self.outstanding.clear();
    }

    /// Step 4: checks a response against the oldest outstanding
    /// challenge.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoOutstandingChallenge`] when no request is in
    /// flight, and [`SessionError::Verification`] for evidence
    /// failures (which also consume the challenge — a device does not
    /// get a second try against the same nonce).
    pub fn check_response(&mut self, reports: &[Report]) -> Result<VerifiedPath, SessionError> {
        self.responses += 1;
        let chal = self
            .outstanding
            .pop_front()
            .ok_or(SessionError::NoOutstandingChallenge)?;
        self.verifier
            .verify(chal, reports)
            .map_err(SessionError::Verification)
    }

    /// Step 4 on the bytes received: decodes the ATTEST `payload`,
    /// consumes the oldest outstanding challenge (even when the payload
    /// does not decode), verifies and seals a [`VerdictRecord`]
    /// binding `device`, that nonce (all zero when none was
    /// outstanding), `sha256(payload)` and this session's response
    /// counter. The plain result is returned alongside.
    pub fn check_response_record(
        &mut self,
        device: &str,
        payload: &[u8],
    ) -> (VerdictRecord, Result<VerifiedPath, SessionError>) {
        self.responses += 1;
        let chal = self.outstanding.pop_front();
        self.verifier
            .judge_payload(device, self.responses, chal, payload)
    }

    /// Number of responses checked so far — the logical timestamp
    /// sealed into this session's records.
    pub fn responses_checked(&self) -> u64 {
        self.responses
    }

    /// Number of challenges issued so far.
    pub fn challenges_issued(&self) -> u64 {
        self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{device_key, CfaEngine, EngineConfig};
    use armv8m_isa::{Asm, Reg};
    use rap_link::{link, LinkOptions};
    use std::collections::HashSet;

    fn linked() -> rap_link::LinkedProgram {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R2, 4);
        a.mov(Reg::R0, Reg::R2);
        a.label("l");
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("l");
        a.halt();
        link(&a.into_module(), 0, LinkOptions::default()).unwrap()
    }

    fn respond(linked: &rap_link::LinkedProgram, chal: Challenge) -> Vec<Report> {
        let engine = CfaEngine::new(device_key("proto"));
        let mut machine = mcu_sim::Machine::new(linked.image.clone());
        engine
            .attest(&mut machine, &linked.map, chal, EngineConfig::default())
            .unwrap()
            .reports
    }

    fn session(linked: &rap_link::LinkedProgram) -> VerifierSession {
        VerifierSession::new(
            device_key("proto"),
            linked.image.clone(),
            linked.map.clone(),
            b"session-secret",
        )
    }

    #[test]
    fn full_protocol_round() {
        let linked = linked();
        let mut s = session(&linked);
        let chal = s.issue_challenge();
        let reports = respond(&linked, chal);
        let path = s.check_response(&reports).expect("verifies");
        assert!(!path.events.is_empty());
        assert_eq!(s.challenges_issued(), 1);
    }

    #[test]
    fn challenges_are_unique() {
        let linked = linked();
        let mut s = session(&linked);
        let mut seen = HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(s.issue_challenge().0), "nonce repeated");
        }
    }

    #[test]
    fn nonce_is_hmac_of_secret_and_counter() {
        let linked = linked();
        let mut s = session(&linked);
        s.issue_windowed_challenge();
        let second = s.issue_windowed_challenge();
        let mut msg = b"session-secret".to_vec();
        msg.extend_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            second.0,
            rap_crypto::hmac_sha256(b"RAP-TRACK-CHAL", &msg),
            "nonce derivation must stay byte-identical"
        );
    }

    #[test]
    fn record_seals_the_payload_as_received() {
        let linked = linked();
        let mut s = session(&linked);
        let chal = s.issue_windowed_challenge();
        let payload = crate::wire::encode_stream(&respond(&linked, chal));
        let (record, result) = s.check_response_record("dev", &payload);
        assert!(result.is_ok() && record.accepted());
        let f = &record.fields;
        assert_eq!(f.report_hash, rap_crypto::sha256(&payload));
        assert_eq!((f.chal, f.seq), (chal, 1));
        // The counters are reserved: a warm verifier seals the same bytes.
        assert_eq!(
            (f.stats_digest, f.cache_hits, f.cache_misses),
            ([0; 32], 0, 0)
        );
        assert!(record.authenticate(&s.verifier().verdict_seal_key()));
    }

    #[test]
    fn undecodable_record_burns_the_challenge_without_a_job() {
        let linked = linked();
        let mut s = session(&linked);
        let chal = s.issue_windowed_challenge();
        let (record, result) = s.check_response_record("dev", b"garbage");
        assert!(matches!(result, Err(SessionError::Wire(_))));
        assert_eq!(record.fields.kind, "wire");
        assert_eq!(record.fields.chal, chal);
        assert_eq!(record.fields.report_hash, rap_crypto::sha256(b"garbage"));
        assert_eq!(s.outstanding_count(), 0, "the challenge is consumed");
        assert_eq!(s.verifier().stats().jobs, 0, "the verifier never ran");
        // With nothing outstanding, a decodable response is a session
        // failure sealed against the all-zero nonce.
        let (record, result) = s.check_response_record("dev", &[]);
        assert_eq!(result.unwrap_err(), SessionError::NoOutstandingChallenge);
        assert_eq!(record.fields.kind, "no-outstanding-challenge");
        assert_eq!(
            (record.fields.chal, record.fields.seq),
            (Challenge([0; 32]), 2)
        );
    }

    #[test]
    fn response_without_request_rejected() {
        let linked = linked();
        let mut s = session(&linked);
        let chal = Challenge::from_seed(1);
        let reports = respond(&linked, chal);
        assert!(matches!(
            s.check_response(&reports),
            Err(SessionError::NoOutstandingChallenge)
        ));
    }

    #[test]
    fn same_response_cannot_be_consumed_twice() {
        let linked = linked();
        let mut s = session(&linked);
        let chal = s.issue_challenge();
        let reports = respond(&linked, chal);
        s.check_response(&reports).expect("first use ok");
        // No outstanding challenge anymore.
        assert!(matches!(
            s.check_response(&reports),
            Err(SessionError::NoOutstandingChallenge)
        ));
    }

    #[test]
    fn stale_response_to_new_challenge_rejected() {
        let linked = linked();
        let mut s = session(&linked);
        let old_chal = s.issue_challenge();
        let old_reports = respond(&linked, old_chal);
        // The verifier re-issues before the (slow/portioned) response
        // arrives — the old response no longer matches.
        let _new_chal = s.issue_challenge();
        match s.check_response(&old_reports) {
            Err(SessionError::Verification(Violation::ChallengeMismatch)) => {}
            other => panic!("expected challenge mismatch, got {other:?}"),
        }
    }

    #[test]
    fn windowed_challenges_verify_in_issue_order() {
        let linked = linked();
        let mut s = session(&linked);
        let chals: Vec<Challenge> = (0..3).map(|_| s.issue_windowed_challenge()).collect();
        assert_eq!(s.outstanding_count(), 3);
        assert_eq!(s.outstanding(), Some(chals[0]));
        for chal in &chals {
            let reports = respond(&linked, *chal);
            s.check_response(&reports)
                .expect("in-order response verifies");
        }
        assert_eq!(s.outstanding_count(), 0);
        assert_eq!(s.challenges_issued(), 3);
    }

    #[test]
    fn out_of_order_windowed_response_is_a_challenge_mismatch() {
        let linked = linked();
        let mut s = session(&linked);
        let c1 = s.issue_windowed_challenge();
        let c2 = s.issue_windowed_challenge();
        // Answering c2 while c1 is still the front of the window fails
        // the HMAC binding of c1 — and consumes c1, so the device
        // cannot reorder its way past a challenge.
        let reports = respond(&linked, c2);
        match s.check_response(&reports) {
            Err(SessionError::Verification(Violation::ChallengeMismatch)) => {}
            other => panic!("expected challenge mismatch, got {other:?}"),
        }
        assert_eq!(s.outstanding(), Some(c2));
        // The straggler answer to c1 now also mismatches (c2 is front).
        let late = respond(&linked, c1);
        match s.check_response(&late) {
            Err(SessionError::Verification(Violation::ChallengeMismatch)) => {}
            other => panic!("expected challenge mismatch, got {other:?}"),
        }
    }

    #[test]
    fn issue_challenge_abandons_the_window() {
        let linked = linked();
        let mut s = session(&linked);
        s.issue_windowed_challenge();
        s.issue_windowed_challenge();
        let fresh = s.issue_challenge();
        assert_eq!(s.outstanding_count(), 1);
        assert_eq!(s.outstanding(), Some(fresh));
        s.clear_outstanding();
        assert_eq!(s.outstanding_count(), 0);
        let reports = respond(&linked, fresh);
        assert!(matches!(
            s.check_response(&reports),
            Err(SessionError::NoOutstandingChallenge)
        ));
    }

    #[test]
    fn failed_verification_consumes_the_challenge() {
        let linked = linked();
        let mut s = session(&linked);
        let chal = s.issue_challenge();
        let mut reports = respond(&linked, chal);
        reports[0].log.loop_records.clear(); // tamper
        assert!(matches!(
            s.check_response(&reports),
            Err(SessionError::Verification(Violation::BadTag { .. }))
        ));
        // The device cannot retry against the same nonce.
        let fixed = respond(&linked, chal);
        assert!(matches!(
            s.check_response(&fixed),
            Err(SessionError::NoOutstandingChallenge)
        ));
    }
}
