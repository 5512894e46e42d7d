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

use armv8m_isa::Image;
use rap_crypto::hmac_sha256;
use rap_link::LinkMap;

use crate::report::{Challenge, Key, Report};
use crate::verdict::{stats_digest, VerdictDraft, VerdictRecord};
use crate::verifier::{VerifiedPath, Verifier, Violation};

/// The Verifier's per-device session state.
#[derive(Debug, Clone)]
pub struct VerifierSession {
    verifier: Verifier,
    session_secret: Vec<u8>,
    counter: u64,
    responses: u64,
    outstanding: VecDeque<Challenge>,
}

/// A session-level protocol failure.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new protocol failures can be added without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// A response arrived with no outstanding request.
    NoOutstandingChallenge,
    /// Verification of the evidence failed.
    Verification(Violation),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoOutstandingChallenge => {
                write!(f, "response without an outstanding challenge")
            }
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
        let mut msg = self.session_secret.clone();
        msg.extend_from_slice(&self.counter.to_le_bytes());
        let chal = Challenge(hmac_sha256(b"RAP-TRACK-CHAL", &msg));
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

    /// [`check_response`](VerifierSession::check_response), wrapped in
    /// a sealed proof-carrying [`VerdictRecord`].
    ///
    /// The record binds `device`, the consumed challenge nonce (all
    /// zero when the failure happened before a challenge was matched),
    /// a hash of the judged report stream and this session's response
    /// counter as the logical timestamp. Protocol failures seal as
    /// rejections with kind `no-outstanding-challenge`; verification
    /// failures carry the [`Violation`] kind. The plain result is
    /// returned alongside so callers keep the old enum as a view of the
    /// record.
    pub fn check_response_record(
        &mut self,
        device: &str,
        reports: &[Report],
    ) -> (VerdictRecord, Result<VerifiedPath, SessionError>) {
        let chal = self.outstanding.front().copied();
        let result = self.check_response(reports);
        let stats = self.verifier.stats();
        let mut draft = VerdictDraft {
            device: device.to_string(),
            chal: chal.unwrap_or(Challenge([0u8; 32])),
            report_hash: rap_crypto::sha256(&crate::wire::encode_stream(reports)),
            stats_digest: stats_digest(&stats),
            dict_hits: reports
                .iter()
                .map(|r| r.log.dict_hits.len() as u32)
                .fold(0u32, u32::saturating_add),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            seq: self.responses,
            ..VerdictDraft::default()
        };
        match &result {
            Ok(path) => {
                draft.accepted = true;
                draft.events = path.events.len() as u32;
                draft.steps = path.steps;
            }
            Err(SessionError::NoOutstandingChallenge) => {
                draft.kind = "no-outstanding-challenge".to_string();
                draft.detail = SessionError::NoOutstandingChallenge.to_string();
            }
            Err(SessionError::Verification(v)) => {
                draft.kind = v.kind().to_string();
                draft.detail = v.to_string();
            }
        }
        (self.verifier.seal_verdict(draft), result)
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
