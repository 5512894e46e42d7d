//! # rap-serve — the networked attestation service
//!
//! RAP-Track's verifier is the Ver endpoint of a remote-attestation
//! protocol (paper §II-C: Prv sends `(CF_Log, auth)` to a remote Ver);
//! this crate puts an actual wire between them. Std-only TCP, no
//! external dependencies, same as the rest of the workspace.
//!
//! * [`Server`] — accept loop → one bounded connection queue → a pool
//!   of interchangeable workers; the worker that pops a connection
//!   reads its opener and serves it as a
//!   [`rap_track::VerifierSession`] over a clone of one shared
//!   [`rap_track::Verifier`] (one segment table for the whole fleet).
//!   Rounds are pipelined up to a granted window and
//!   verdict/observability writes are batched per drain tick. Overload
//!   is shed with `ERROR busy`; shutdown drains in-flight rounds. A
//!   closing connection parks its session under a single-use
//!   resumption token so the device can continue its nonce chain on
//!   the next connection.
//! * [`AttestClient`] — connect/read deadlines and bounded
//!   exponential-backoff retry with deterministic SplitMix64 jitter;
//!   [`Connection::pipelined`] keeps a window of rounds in flight and
//!   [`AttestClient::resume`] reconnects with a token.
//! * [`frame`] — the length-prefixed frame protocol, version 2
//!   (`HELLO`/`RESUME`/`SESSION`/`CHALLENGE`/`ATTEST`/`VERDICT`/
//!   `ERROR`, plus the admin-only `STATS`/`EXEMPLARS`); report
//!   payloads reuse [`rap_track::encode_stream`].
//! * [`AdminClient`] — the telemetry plane's client. With
//!   [`ServerConfig::admin_addr`] set the server runs a separate
//!   loopback listener serving point-in-time Prometheus/JSON
//!   snapshots, a per-device aggregate table, and slow-round
//!   exemplars with per-stage span trees (`rap top` is built on it).
//!
//! ```no_run
//! use rap_serve::{AttestClient, ClientConfig, Server, ServerConfig};
//! use rap_track::Verifier;
//! # fn verifier() -> Verifier { unimplemented!() }
//! # fn respond(_: rap_track::Challenge) -> Vec<rap_track::Report> { unimplemented!() }
//!
//! let config = ServerConfig {
//!     session_secret: b"from-an-os-rng".to_vec(),
//!     ..ServerConfig::default()
//! };
//! let server = Server::start(verifier(), "127.0.0.1:0", config)?;
//! let client = AttestClient::new(server.local_addr().to_string(), ClientConfig::default());
//!
//! // Pipelined rounds on one connection, then resume on a second.
//! let mut conn = client.open("device-0")?;
//! let verdicts = conn.pipelined(4, |chal| respond(chal))?;
//! assert!(verdicts.iter().all(|v| v.accepted));
//! let token = conn.close().expect("session grant received");
//! let mut conn = client.resume("device-0", token)?;
//! let verdict = conn.round(respond)?;
//! assert!(verdict.accepted);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod frame;

mod admin;
mod client;
mod server;

pub use admin::{AdminClient, AdminConn};
pub use client::{AttestClient, ClientConfig, ClientError, Connection};
pub use frame::{
    ErrorCode, Frame, FrameError, FrameType, ReadFrameError, ResumeToken, SessionGrant,
    StatsFormat, Verdict,
};
pub use server::{
    AdminExtra, RoundEvent, RoundEventFn, RoundHook, Server, ServerConfig, ServerStats, StartError,
};

/// The commonly-imported surface in one glob: server + client types
/// and the typed round-event hook with its sealed
/// [`VerdictRecord`](rap_track::VerdictRecord) payload.
///
/// ```
/// use rap_serve::prelude::*;
/// ```
pub mod prelude {
    pub use crate::client::{AttestClient, ClientConfig, Connection};
    pub use crate::frame::Verdict;
    pub use crate::server::{RoundEvent, RoundHook, Server, ServerConfig};
    pub use rap_track::{VerdictDraft, VerdictRecord};
}
