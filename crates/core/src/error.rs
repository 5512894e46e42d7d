//! The crate-wide error type: one enum over every fallible layer, so
//! callers that thread results through `?` (services, CLIs) can hold a
//! single `Result<T, rap_track::Error>` instead of juggling
//! [`Violation`], [`WireError`] and [`SessionError`] separately.

use crate::protocol::SessionError;
use crate::verifier::Violation;
use crate::wire::WireError;

/// Any failure the attestation pipeline can produce.
///
/// Each variant wraps the typed error of one layer; `From` impls let
/// `?` lift layer errors automatically. Marked `#[non_exhaustive]`:
/// downstream matches need a wildcard arm so new layers can be added
/// without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Path reconstruction rejected the evidence.
    Violation(Violation),
    /// A wire stream failed to decode.
    Wire(WireError),
    /// The challenge–response session layer rejected the exchange.
    Session(SessionError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Violation(v) => write!(f, "violation: {v}"),
            Error::Wire(w) => write!(f, "wire: {w}"),
            Error::Session(s) => write!(f, "session: {s}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Violation(v) => Some(v),
            Error::Wire(w) => Some(w),
            Error::Session(s) => Some(s),
        }
    }
}

impl From<Violation> for Error {
    fn from(v: Violation) -> Error {
        Error::Violation(v)
    }
}

impl From<WireError> for Error {
    fn from(w: WireError) -> Error {
        Error::Wire(w)
    }
}

impl From<SessionError> for Error {
    fn from(s: SessionError) -> Error {
        Error::Session(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_lift_layer_errors() {
        let e: Error = Violation::ChallengeMismatch.into();
        assert!(matches!(e, Error::Violation(Violation::ChallengeMismatch)));
        let e: Error = WireError::BadVersion { found: 9 }.into();
        assert!(matches!(e, Error::Wire(WireError::BadVersion { found: 9 })));
        let e: Error = SessionError::NoOutstandingChallenge.into();
        assert!(matches!(
            e,
            Error::Session(SessionError::NoOutstandingChallenge)
        ));
    }

    #[test]
    fn display_and_source_chain() {
        let e: Error = SessionError::NoOutstandingChallenge.into();
        assert!(e.to_string().starts_with("session: "));
        let source = std::error::Error::source(&e).expect("has source");
        assert_eq!(
            source.to_string(),
            SessionError::NoOutstandingChallenge.to_string()
        );
    }
}
