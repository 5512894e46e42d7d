//! The service frame protocol: length-prefixed frames carrying the
//! challenge–response messages between [`AttestClient`] and the
//! server.
//!
//! Every frame starts with a 10-byte little-endian header:
//!
//! ```text
//! magic  "RAPS"        4 bytes
//! ver    u8 = 2        1
//! type   u8            1       Hello | Challenge | Attest | Verdict | Error | Resume | Session
//! len    u32           4       payload length in bytes
//! ```
//!
//! followed by `len` payload bytes. Payloads:
//!
//! | frame       | direction | payload                                              |
//! |-------------|-----------|------------------------------------------------------|
//! | `Hello`     | C → S     | requested window `u16`, device name UTF-8            |
//! | `Resume`    | C → S     | token id `u64`, mac `[u8;32]`, window `u16`, device  |
//! | `Session`   | S → C     | token id `u64`, mac `[u8;32]`, granted window `u16`  |
//! | `Challenge` | S → C     | 32-byte nonce                                        |
//! | `Attest`    | C → S     | a [`rap_track::encode_stream`] report stream         |
//! | `Verdict`   | S → C     | accepted `u8`, events `u32`, steps `u64`, detail     |
//! | `Error`     | S → C     | code `u8`, message UTF-8                             |
//! | `Stats`     | A → S     | request: format `u8` (0 Prometheus, 1 JSON)          |
//! | `Stats`     | S → A     | response: rendered snapshot, UTF-8                   |
//! | `Exemplars` | A → S     | request: empty                                       |
//! | `Exemplars` | S → A     | response: slow-round exemplar JSON, UTF-8            |
//!
//! `A → S` rows are the admin telemetry plane: `Stats`/`Exemplars`
//! travel only on the loopback admin listener (`rap serve --admin`),
//! never on the attestation socket — an attestation connection that
//! sends one gets a `Protocol` error, exactly like any other
//! out-of-place frame.
//!
//! Version 2 replaced the bare-device `Hello` of version 1 and added
//! the `Resume`/`Session` handshake: every accepted opener is answered
//! with a `Session` grant carrying a single-use resumption token, and
//! a reconnecting device may present that token in a `Resume` opener
//! to continue its nonce chain without a fresh `Hello` setup.
//!
//! [`AttestClient`]: crate::AttestClient

use std::io::{Read, Write};

use rap_track::Challenge;

/// The frame magic, distinct from the report-stream magic (`RAPR`) so
/// a report stream pasted onto the socket is rejected at the first
/// header.
pub const FRAME_MAGIC: &[u8; 4] = b"RAPS";
/// The service protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;
/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 10;
/// Default cap on payload length; larger frames are rejected before
/// any allocation.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// The kind of one service frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client opener: names the device about to attest.
    Hello = 1,
    /// Server nonce for the next attestation round.
    Challenge = 2,
    /// Client evidence: an encoded report stream.
    Attest = 3,
    /// Server decision for one round.
    Verdict = 4,
    /// Server-side failure; the connection closes after this frame.
    Error = 5,
    /// Client opener: presents a resumption token instead of `Hello`.
    Resume = 6,
    /// Server session grant: resumption token + granted window.
    Session = 7,
    /// Admin request/response: a point-in-time metrics snapshot in the
    /// requested [`StatsFormat`].
    Stats = 8,
    /// Admin request/response: the slow-round exemplar ring as JSON.
    Exemplars = 9,
}

impl FrameType {
    /// All frame types, for exhaustive protocol tests.
    pub const ALL: [FrameType; 9] = [
        FrameType::Hello,
        FrameType::Challenge,
        FrameType::Attest,
        FrameType::Verdict,
        FrameType::Error,
        FrameType::Resume,
        FrameType::Session,
        FrameType::Stats,
        FrameType::Exemplars,
    ];

    fn from_u8(v: u8) -> Option<FrameType> {
        match v {
            1 => Some(FrameType::Hello),
            2 => Some(FrameType::Challenge),
            3 => Some(FrameType::Attest),
            4 => Some(FrameType::Verdict),
            5 => Some(FrameType::Error),
            6 => Some(FrameType::Resume),
            7 => Some(FrameType::Session),
            8 => Some(FrameType::Stats),
            9 => Some(FrameType::Exemplars),
            _ => None,
        }
    }
}

/// The rendering a `Stats` admin request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StatsFormat {
    /// Prometheus text exposition
    /// ([`Snapshot::to_prometheus`](rap_obs::Snapshot::to_prometheus)).
    Prometheus = 0,
    /// The full telemetry JSON document: server counters, the metrics
    /// snapshot and the per-device aggregate table.
    Json = 1,
}

impl StatsFormat {
    fn from_u8(v: u8) -> Option<StatsFormat> {
        match v {
            0 => Some(StatsFormat::Prometheus),
            1 => Some(StatsFormat::Json),
            _ => None,
        }
    }
}

/// Encodes a `Stats` request payload: one format byte.
pub fn encode_stats_request(format: StatsFormat) -> Vec<u8> {
    vec![format as u8]
}

/// Decodes a `Stats` request payload.
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly one known
/// format byte.
pub fn decode_stats_request(payload: &[u8]) -> Result<StatsFormat, FrameError> {
    let [byte] = payload else {
        return Err(FrameError::BadPayload {
            what: "stats request must be exactly one format byte",
        });
    };
    StatsFormat::from_u8(*byte).ok_or(FrameError::BadPayload {
        what: "unknown stats format",
    })
}

/// Why the server is closing the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Connection cap reached; retry after a backoff.
    Busy = 1,
    /// The client violated the frame protocol.
    Protocol = 2,
    /// A frame exceeded the server's size cap.
    Oversized = 3,
    /// The client went silent past the read deadline.
    Timeout = 4,
    /// The server is draining for shutdown.
    Draining = 5,
    /// Unexpected server-side failure.
    Internal = 6,
    /// The resumption token was unknown, expired, already used, or
    /// bound to a different device.
    ResumeRejected = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::Busy),
            2 => Some(ErrorCode::Protocol),
            3 => Some(ErrorCode::Oversized),
            4 => Some(ErrorCode::Timeout),
            5 => Some(ErrorCode::Draining),
            6 => Some(ErrorCode::Internal),
            7 => Some(ErrorCode::ResumeRejected),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
            ErrorCode::ResumeRejected => "resume-rejected",
        };
        f.write_str(s)
    }
}

/// One decoded frame: its type plus the raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type from the header.
    pub frame_type: FrameType,
    /// The payload bytes (interpretation depends on `frame_type`).
    pub payload: Vec<u8>,
}

/// A failure while decoding a frame (header or payload).
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new decode failures can be added without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The buffer ended mid-frame.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// The frame did not start with `RAPS`.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// Unknown frame type byte.
    BadType {
        /// The type byte found.
        found: u8,
    },
    /// The declared payload length exceeds the receiver's cap.
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// The payload did not parse as its frame type demands.
    BadPayload {
        /// What the payload failed to provide.
        what: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { offset } => write!(f, "frame truncated at byte {offset}"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            FrameError::BadType { found } => write!(f, "unknown frame type {found}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::BadPayload { what } => write!(f, "bad frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame (header + payload) into a fresh buffer.
pub fn encode_frame(frame_type: FrameType, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_into(&mut out, frame_type, payload);
    out
}

/// Appends one frame (header + payload) to `out`: a batch of frames
/// sent in one write is encoded into one buffer, with no allocation
/// per frame once the buffer has grown.
pub fn encode_frame_into(out: &mut Vec<u8>, frame_type: FrameType, payload: &[u8]) {
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(FRAME_MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(frame_type as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Checks a frame header (the first [`HEADER_LEN`] bytes of `header`)
/// and returns the frame type and the declared payload length, which
/// must not exceed `max_len`.
fn parse_header(header: &[u8], max_len: u32) -> Result<(FrameType, usize), FrameError> {
    if &header[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion { found: header[4] });
    }
    let frame_type =
        FrameType::from_u8(header[5]).ok_or(FrameError::BadType { found: header[5] })?;
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    Ok((frame_type, len as usize))
}

/// The type and payload length of the frame at the front of `buf`,
/// once all of it is there; [`FrameError::Truncated`] until then.
fn frame_extent(buf: &[u8], max_len: u32) -> Result<(FrameType, usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated { offset: buf.len() });
    }
    let (frame_type, len) = parse_header(buf, max_len)?;
    if buf.len() < HEADER_LEN + len {
        return Err(FrameError::Truncated { offset: buf.len() });
    }
    Ok((frame_type, len))
}

/// Decodes one frame from the front of `buf`, returning the frame and
/// the number of bytes consumed.
///
/// # Errors
///
/// Every malformed prefix yields a typed [`FrameError`]; no input
/// panics. `max_len` bounds the declared payload length *before* the
/// payload is touched, so an adversarial length field cannot force an
/// allocation.
pub fn decode_frame(buf: &[u8], max_len: u32) -> Result<(Frame, usize), FrameError> {
    let (frame_type, len) = frame_extent(buf, max_len)?;
    let end = HEADER_LEN + len;
    Ok((
        Frame {
            frame_type,
            payload: buf[HEADER_LEN..end].to_vec(),
        },
        end,
    ))
}

/// Writes one frame to a blocking stream and flushes it.
pub fn write_frame(
    w: &mut impl Write,
    frame_type: FrameType,
    payload: &[u8],
) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame_type, payload))?;
    w.flush()
}

/// A receive buffer that yields complete frames, payloads borrowed in
/// place, and refills with one `read` syscall: frames the peer flushed
/// together arrive in one read. Bytes `start..end` are received but not
/// yet decoded. The buffer keeps its length between reads, so a read
/// zero-fills nothing; it grows only when an incomplete frame leaves
/// less than `chunk` free behind it. It therefore holds at most one
/// frame plus one chunk, never what a length prefix merely claims.
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The least room every read offers.
    chunk: usize,
    /// What `chunk` becomes at the first read that continues an
    /// incomplete frame.
    grown_chunk: usize,
}

impl FrameBuf {
    /// An empty buffer whose reads offer at least `chunk` bytes.
    pub(crate) fn new(chunk: usize) -> FrameBuf {
        FrameBuf::growing(chunk, chunk)
    }

    /// An empty buffer whose reads offer at least `first` bytes until
    /// one read has to continue an incomplete frame, and at least
    /// `chunk` from then on. A peer whose frames each fit one read
    /// never costs more than `first`.
    pub(crate) fn growing(first: usize, chunk: usize) -> FrameBuf {
        FrameBuf {
            buf: vec![0; first],
            start: 0,
            end: 0,
            chunk: first,
            grown_chunk: chunk,
        }
    }

    /// Takes the next complete frame from the buffer; `Ok(None)` means
    /// more bytes are needed.
    pub(crate) fn next_frame(
        &mut self,
        max_len: u32,
    ) -> Result<Option<(FrameType, &[u8])>, FrameError> {
        let (frame_type, len) = match frame_extent(&self.buf[self.start..self.end], max_len) {
            Ok(extent) => extent,
            Err(FrameError::Truncated { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let at = self.start + HEADER_LEN;
        self.start = at + len;
        Ok(Some((frame_type, &self.buf[at..self.start])))
    }

    /// One blocking read into the free tail. Moves the undecoded bytes
    /// to the front first; any left are an incomplete frame, which
    /// switches the buffer to its grown chunk for good. Every read
    /// offers at least `chunk` bytes, as a fresh buffer does: on the
    /// server, capping a read at the room a partial frame needed
    /// measured about 10% more CPU per round on roundbench's
    /// `loop_plain` (19 KB frames, 2 vCPUs).
    pub(crate) fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end > 0 {
            self.chunk = self.grown_chunk;
        }
        if self.buf.len() - self.end < self.chunk {
            self.buf.resize(self.end + self.chunk, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Takes the next complete frame, reading from a blocking stream
    /// only when the buffer holds none, so a flush of several frames
    /// costs one `read`, not two per frame.
    ///
    /// Returns `Ok(None)` on a clean EOF with nothing buffered — the
    /// peer closed between frames. EOF mid-frame is
    /// [`FrameError::Truncated`]; read timeouts surface as the
    /// underlying [`std::io::Error`] (kind `WouldBlock`/`TimedOut`).
    pub(crate) fn read_frame(
        &mut self,
        r: &mut impl Read,
        max_len: u32,
    ) -> Result<Option<(FrameType, &[u8])>, ReadFrameError> {
        loop {
            match frame_extent(&self.buf[self.start..self.end], max_len) {
                Ok(_) => break,
                Err(FrameError::Truncated { .. }) => {}
                Err(e) => return Err(e.into()),
            }
            match self.fill(r) {
                Ok(0) if self.start == self.end => return Ok(None),
                Ok(0) => {
                    return Err(FrameError::Truncated {
                        offset: self.end - self.start,
                    }
                    .into())
                }
                Ok(_) => {}
                Err(e) => return Err(ReadFrameError::Io(e)),
            }
        }
        Ok(self.next_frame(max_len)?)
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameBuf")
            .field("buffered", &(self.end - self.start))
            .field("capacity", &self.buf.len())
            .finish()
    }
}

/// A failure while reading a frame from a stream: either the bytes
/// were malformed or the transport failed.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The bytes received were not a valid frame.
    Frame(FrameError),
    /// The transport failed (including read deadline expiry).
    Io(std::io::Error),
}

impl From<FrameError> for ReadFrameError {
    fn from(e: FrameError) -> ReadFrameError {
        ReadFrameError::Frame(e)
    }
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Frame(e) => write!(f, "{e}"),
            ReadFrameError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

/// The server's decision for one attestation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the evidence verified.
    pub accepted: bool,
    /// Path events reconstructed (0 when rejected).
    pub events: u32,
    /// Instructions replayed (0 when rejected).
    pub steps: u64,
    /// Human-readable detail (the violation, when rejected).
    pub detail: String,
}

impl Verdict {
    /// Derives the wire verdict from a sealed
    /// [`VerdictRecord`](rap_track::VerdictRecord) — the frame is a
    /// lossy *view* of the record (no nonce, hashes, or seal), kept
    /// wire-compatible with pre-record servers. The detail string
    /// prefixes (`wire: ` for codec failures, `session: ` for protocol
    /// failures, `violation: ` for evidence failures) are part of the
    /// client-visible contract.
    pub fn from_record(record: &rap_track::VerdictRecord) -> Verdict {
        let f = &record.fields;
        let detail = if f.accepted {
            String::new()
        } else {
            match f.kind.as_str() {
                "wire" => format!("wire: {}", f.detail),
                "no-outstanding-challenge" => format!("session: {}", f.detail),
                _ => format!("violation: {}", f.detail),
            }
        };
        Verdict {
            accepted: f.accepted,
            events: f.events,
            steps: f.steps,
            detail,
        }
    }

    /// Encodes this verdict as a `Verdict` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 + self.detail.len());
        out.push(u8::from(self.accepted));
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.steps.to_le_bytes());
        out.extend_from_slice(self.detail.as_bytes());
        out
    }

    /// Decodes a `Verdict` frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] when the payload is shorter than the
    /// fixed fields or the detail is not UTF-8.
    pub fn decode(payload: &[u8]) -> Result<Verdict, FrameError> {
        if payload.len() < 13 {
            return Err(FrameError::BadPayload {
                what: "verdict shorter than fixed fields",
            });
        }
        let accepted = payload[0] != 0;
        let events = u32::from_le_bytes([payload[1], payload[2], payload[3], payload[4]]);
        let steps = u64::from_le_bytes([
            payload[5],
            payload[6],
            payload[7],
            payload[8],
            payload[9],
            payload[10],
            payload[11],
            payload[12],
        ]);
        let detail = std::str::from_utf8(&payload[13..])
            .map_err(|_| FrameError::BadPayload {
                what: "verdict detail not UTF-8",
            })?
            .to_string();
        Ok(Verdict {
            accepted,
            events,
            steps,
            detail,
        })
    }
}

/// Encodes an `Error` frame payload.
pub fn encode_error(code: ErrorCode, msg: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + msg.len());
    out.push(code as u8);
    out.extend_from_slice(msg.as_bytes());
    out
}

/// Decodes an `Error` frame payload into `(code, message)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] when the payload is empty, carries an
/// unknown code, or the message is not UTF-8.
pub fn decode_error(payload: &[u8]) -> Result<(ErrorCode, String), FrameError> {
    let (&code, msg) = payload.split_first().ok_or(FrameError::BadPayload {
        what: "empty error payload",
    })?;
    let code = ErrorCode::from_u8(code).ok_or(FrameError::BadPayload {
        what: "unknown error code",
    })?;
    let msg = std::str::from_utf8(msg)
        .map_err(|_| FrameError::BadPayload {
            what: "error message not UTF-8",
        })?
        .to_string();
    Ok((code, msg))
}

/// Decodes a `Challenge` frame payload.
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly 32 bytes.
pub fn decode_challenge(payload: &[u8]) -> Result<Challenge, FrameError> {
    let bytes: [u8; 32] = payload.try_into().map_err(|_| FrameError::BadPayload {
        what: "challenge must be exactly 32 bytes",
    })?;
    Ok(Challenge(bytes))
}

/// A server-issued, single-use session-resumption token.
///
/// The id names the saved session state; the mac binds the id to the
/// device name under the server secret, so a token cannot be minted or
/// replayed for a different device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeToken {
    /// Server-side identifier of the saved session state.
    pub id: u64,
    /// HMAC over `id || device` under the server secret.
    pub mac: [u8; 32],
}

/// The server's `Session` grant: the resumption token for *this*
/// connection plus the pipelining window actually granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionGrant {
    /// Token to present in a later `Resume` opener.
    pub token: ResumeToken,
    /// Rounds the client may keep in flight on this connection.
    pub window: u16,
}

/// Encodes a `Hello` frame payload: requested window + device name.
pub fn encode_hello(window: u16, device: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + device.len());
    out.extend_from_slice(&window.to_le_bytes());
    out.extend_from_slice(device.as_bytes());
    out
}

/// Decodes a `Hello` frame payload into `(requested window, device)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] when the payload is shorter than the
/// window field or the device name is not UTF-8.
pub fn decode_hello(payload: &[u8]) -> Result<(u16, String), FrameError> {
    if payload.len() < 2 {
        return Err(FrameError::BadPayload {
            what: "hello shorter than fixed fields",
        });
    }
    let window = u16::from_le_bytes([payload[0], payload[1]]);
    let device = std::str::from_utf8(&payload[2..])
        .map_err(|_| FrameError::BadPayload {
            what: "hello device name not UTF-8",
        })?
        .to_string();
    Ok((window, device))
}

/// Encodes a `Session` frame payload: token id, mac, granted window.
pub fn encode_session(grant: &SessionGrant) -> Vec<u8> {
    let mut out = Vec::with_capacity(42);
    out.extend_from_slice(&grant.token.id.to_le_bytes());
    out.extend_from_slice(&grant.token.mac);
    out.extend_from_slice(&grant.window.to_le_bytes());
    out
}

/// Decodes a `Session` frame payload.
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly the 42
/// fixed bytes.
pub fn decode_session(payload: &[u8]) -> Result<SessionGrant, FrameError> {
    if payload.len() != 42 {
        return Err(FrameError::BadPayload {
            what: "session grant must be exactly 42 bytes",
        });
    }
    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let mac: [u8; 32] = payload[8..40].try_into().unwrap();
    let window = u16::from_le_bytes([payload[40], payload[41]]);
    Ok(SessionGrant {
        token: ResumeToken { id, mac },
        window,
    })
}

/// Encodes a `Resume` frame payload: token id, mac, requested window,
/// device name.
pub fn encode_resume(token: &ResumeToken, window: u16, device: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(42 + device.len());
    out.extend_from_slice(&token.id.to_le_bytes());
    out.extend_from_slice(&token.mac);
    out.extend_from_slice(&window.to_le_bytes());
    out.extend_from_slice(device.as_bytes());
    out
}

/// Decodes a `Resume` frame payload into `(token, requested window,
/// device)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] when the payload is shorter than the
/// fixed fields or the device name is not UTF-8.
pub fn decode_resume(payload: &[u8]) -> Result<(ResumeToken, u16, String), FrameError> {
    if payload.len() < 42 {
        return Err(FrameError::BadPayload {
            what: "resume shorter than fixed fields",
        });
    }
    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let mac: [u8; 32] = payload[8..40].try_into().unwrap();
    let window = u16::from_le_bytes([payload[40], payload[41]]);
    let device = std::str::from_utf8(&payload[42..])
        .map_err(|_| FrameError::BadPayload {
            what: "resume device name not UTF-8",
        })?
        .to_string();
    Ok((ResumeToken { id, mac }, window, device))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        for ft in FrameType::ALL {
            let payload = vec![0xAB; 17];
            let bytes = encode_frame(ft, &payload);
            let (frame, used) = decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(frame.frame_type, ft);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn verdict_roundtrip() {
        let v = Verdict {
            accepted: true,
            events: 42,
            steps: 1_000_000_007,
            detail: "ok — path reconstructed".to_string(),
        };
        assert_eq!(Verdict::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn error_roundtrip() {
        let payload = encode_error(ErrorCode::Busy, "try later");
        assert_eq!(
            decode_error(&payload).unwrap(),
            (ErrorCode::Busy, "try later".to_string())
        );
    }

    #[test]
    fn oversized_length_rejected_before_payload() {
        let mut bytes = encode_frame(FrameType::Attest, &[]);
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes, 1024),
            Err(FrameError::Oversized {
                len: u32::MAX,
                max: 1024
            })
        );
    }

    #[test]
    fn hello_session_resume_roundtrip() {
        let (window, device) = decode_hello(&encode_hello(6, "device-α")).unwrap();
        assert_eq!((window, device.as_str()), (6, "device-α"));

        let grant = SessionGrant {
            token: ResumeToken {
                id: 0xDEAD_BEEF_0042,
                mac: [0x5A; 32],
            },
            window: 8,
        };
        assert_eq!(decode_session(&encode_session(&grant)).unwrap(), grant);

        let (token, window, device) =
            decode_resume(&encode_resume(&grant.token, 4, "device-α")).unwrap();
        assert_eq!(token, grant.token);
        assert_eq!((window, device.as_str()), (4, "device-α"));
    }

    #[test]
    fn handshake_payloads_reject_short_and_non_utf8() {
        assert!(matches!(
            decode_hello(&[1]),
            Err(FrameError::BadPayload { .. })
        ));
        let mut bad_hello = encode_hello(1, "d");
        bad_hello.push(0xFF);
        assert!(matches!(
            decode_hello(&bad_hello),
            Err(FrameError::BadPayload { .. })
        ));
        for len in [0usize, 41, 43] {
            assert!(matches!(
                decode_session(&vec![0u8; len]),
                Err(FrameError::BadPayload { .. })
            ));
        }
        assert!(matches!(
            decode_resume(&[0u8; 41]),
            Err(FrameError::BadPayload { .. })
        ));
        let token = ResumeToken {
            id: 1,
            mac: [0; 32],
        };
        let mut bad_resume = encode_resume(&token, 1, "d");
        bad_resume.push(0xFE);
        assert!(matches!(
            decode_resume(&bad_resume),
            Err(FrameError::BadPayload { .. })
        ));
    }

    #[test]
    fn stats_request_roundtrip_and_typed_rejection() {
        for format in [StatsFormat::Prometheus, StatsFormat::Json] {
            let payload = encode_stats_request(format);
            assert_eq!(payload.len(), 1);
            assert_eq!(decode_stats_request(&payload).unwrap(), format);
        }
        for bad in [&[][..], &[2u8][..], &[0u8, 0][..], &[0xFFu8][..]] {
            assert!(matches!(
                decode_stats_request(bad),
                Err(FrameError::BadPayload { .. })
            ));
        }
    }

    #[test]
    fn encode_frame_into_appends_what_encode_frame_returns() {
        let mut out = encode_frame(FrameType::Verdict, &[1; 13]);
        encode_frame_into(&mut out, FrameType::Challenge, &[2; 32]);
        let mut expected = encode_frame(FrameType::Verdict, &[1; 13]);
        expected.extend_from_slice(&encode_frame(FrameType::Challenge, &[2; 32]));
        assert_eq!(out, expected);
    }

    /// The client's chunk: small, so a large frame has to grow it.
    const CHUNK: usize = 4096;

    /// Hands out one scripted chunk per `read` (the rest of a chunk
    /// that does not fit comes next), then EOF; counts the reads and
    /// records the room each one offered.
    struct Script {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
        offered: Vec<usize>,
    }

    impl Script {
        fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> Script {
            Script {
                chunks: chunks.into_iter().collect(),
                reads: 0,
                offered: Vec::new(),
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.offered.push(out.len());
            let Some(mut chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                chunk.drain(..n);
                self.chunks.push_front(chunk);
            }
            Ok(n)
        }
    }

    #[test]
    fn frame_buf_takes_several_frames_from_one_read() {
        // A server flush: the SESSION grant, then a window of 8
        // VERDICT + CHALLENGE pairs, written as one buffer.
        let mut flush = encode_frame(FrameType::Session, &[7; 42]);
        for i in 0..8u8 {
            encode_frame_into(&mut flush, FrameType::Verdict, &[i; 13]);
            encode_frame_into(&mut flush, FrameType::Challenge, &[i; 32]);
        }
        let mut r = Script::new([flush]);
        let mut fb = FrameBuf::new(CHUNK);
        let max = DEFAULT_MAX_FRAME_LEN;
        assert_eq!(
            fb.read_frame(&mut r, max).unwrap(),
            Some((FrameType::Session, &[7u8; 42][..]))
        );
        for i in 0..8u8 {
            assert_eq!(
                fb.read_frame(&mut r, max).unwrap(),
                Some((FrameType::Verdict, &[i; 13][..]))
            );
            assert_eq!(
                fb.read_frame(&mut r, max).unwrap(),
                Some((FrameType::Challenge, &[i; 32][..]))
            );
        }
        assert_eq!(r.reads, 1, "one read took the whole flush");
        assert_eq!(fb.read_frame(&mut r, max).unwrap(), None, "clean EOF");
    }

    #[test]
    fn frame_buf_joins_a_frame_split_across_reads() {
        let a = encode_frame(FrameType::Verdict, b"split payload");
        let b = encode_frame(FrameType::Challenge, &[3; 32]);
        // Cut inside the first header, inside its payload, and so that
        // the second frame starts in the same read as the first ends.
        let wire: Vec<u8> = a.iter().chain(&b).copied().collect();
        let cuts = [3, 12, a.len() + 5];
        let mut r = Script::new([
            wire[..cuts[0]].to_vec(),
            wire[cuts[0]..cuts[1]].to_vec(),
            wire[cuts[1]..cuts[2]].to_vec(),
            wire[cuts[2]..].to_vec(),
        ]);
        let mut fb = FrameBuf::new(CHUNK);
        let max = DEFAULT_MAX_FRAME_LEN;
        assert_eq!(
            fb.read_frame(&mut r, max).unwrap(),
            Some((FrameType::Verdict, &b"split payload"[..]))
        );
        assert_eq!(r.reads, 3);
        assert_eq!(
            fb.read_frame(&mut r, max).unwrap(),
            Some((FrameType::Challenge, &[3u8; 32][..]))
        );
        assert_eq!(r.reads, 4);
        assert!(
            fb.buf.len() <= a.len() + CHUNK,
            "at most one frame plus one chunk, not {} bytes",
            fb.buf.len()
        );
    }

    #[test]
    fn growing_frame_buf_grows_at_the_first_split_frame_and_stays_grown() {
        const FIRST: usize = 256;
        const GROWN: usize = 8 * FIRST;
        let max = DEFAULT_MAX_FRAME_LEN;
        let small = encode_frame(FrameType::Attest, &[1; 100]);
        let big = encode_frame(FrameType::Attest, &[2; 600]);
        let mut fb = FrameBuf::growing(FIRST, GROWN);

        // Frames that each arrive whole in one read: the first chunk
        // is all the buffer ever holds.
        let mut r = Script::new([small.clone(), small.clone(), small.clone()]);
        for _ in 0..3 {
            assert_eq!(
                fb.read_frame(&mut r, max).unwrap(),
                Some((FrameType::Attest, &[1u8; 100][..]))
            );
        }
        assert_eq!(fb.buf.len(), FIRST);
        assert_eq!(r.offered, [FIRST; 3]);

        // A frame split across reads: the read that continues it, and
        // every read after, offers the grown chunk.
        let mut r = Script::new([big[..200].to_vec(), big[200..].to_vec(), small.clone()]);
        assert_eq!(
            fb.read_frame(&mut r, max).unwrap(),
            Some((FrameType::Attest, &[2u8; 600][..]))
        );
        assert_eq!(
            fb.read_frame(&mut r, max).unwrap(),
            Some((FrameType::Attest, &[1u8; 100][..]))
        );
        assert_eq!(fb.read_frame(&mut r, max).unwrap(), None, "clean EOF");
        assert_eq!(r.offered[0], FIRST);
        assert!(
            r.offered[1..].iter().all(|&room| room >= GROWN),
            "{:?}",
            r.offered
        );
        assert!(
            fb.buf.len() <= 200 + GROWN,
            "one partial frame plus one chunk"
        );
    }

    #[test]
    fn frame_buf_rejects_an_oversize_prefix_before_allocating() {
        let mut header = encode_frame(FrameType::Attest, &[]);
        header[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = Script::new([header]);
        let mut fb = FrameBuf::new(CHUNK);
        assert!(matches!(
            fb.read_frame(&mut r, 1024),
            Err(ReadFrameError::Frame(FrameError::Oversized {
                len: u32::MAX,
                max: 1024
            }))
        ));
        assert_eq!(fb.buf.len(), CHUNK, "the claimed length allocated nothing");
    }

    #[test]
    fn frame_buf_clean_eof_is_none_and_mid_frame_eof_is_truncated() {
        let max = DEFAULT_MAX_FRAME_LEN;
        let mut fb = FrameBuf::new(CHUNK);
        assert!(matches!(fb.read_frame(&mut Script::new([]), max), Ok(None)));

        let frame = encode_frame(FrameType::Hello, b"dev");
        for cut in [4, frame.len() - 1] {
            let mut fb = FrameBuf::new(CHUNK);
            let mut r = Script::new([frame[..cut].to_vec()]);
            match fb.read_frame(&mut r, max) {
                Err(ReadFrameError::Frame(FrameError::Truncated { offset })) => {
                    assert_eq!(offset, cut)
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_buf_grows_for_a_large_frame_arriving_in_small_reads() {
        let big: Vec<u8> = (0..3 * CHUNK).map(|i| i as u8).collect();
        let mut wire = encode_frame(FrameType::Attest, &big);
        encode_frame_into(&mut wire, FrameType::Attest, &[9; 10]);
        let mut r = Script::new(wire.chunks(1000).map(<[u8]>::to_vec));
        let mut fb = FrameBuf::new(CHUNK);
        let mut frames = Vec::new();
        while frames.len() < 2 {
            assert!(fb.fill(&mut r).unwrap() > 0, "the reader ran dry");
            while let Some((_, payload)) = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap() {
                frames.push(payload.to_vec());
            }
        }
        assert_eq!(frames, vec![big, vec![9; 10]]);
        let grown = fb.buf.len();
        assert!(
            grown <= wire.len() + CHUNK,
            "grew to {grown} bytes for a {}-byte stream",
            wire.len()
        );
        assert_eq!(fb.fill(&mut r).unwrap(), 0, "clean end of stream");
        assert_eq!(fb.buf.len(), grown, "an empty buffer has room to spare");
    }
}
