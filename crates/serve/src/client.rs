//! The Prover-side client: connects, answers challenges with signed
//! report streams, and returns the server's typed verdicts.
//!
//! A connection opens with `HELLO` (or `RESUME` with a token from an
//! earlier session) and receives a `SESSION` grant: a fresh
//! resumption token plus the pipelining window the server actually
//! granted. [`Connection::round`] runs one round at a time;
//! [`Connection::pipelined`] keeps up to the granted window of rounds
//! in flight, writing ahead while verdicts stream back in order.
//!
//! Transient failures (connection refused, `ERROR busy`) retry with
//! bounded exponential backoff; the jitter is drawn from SplitMix64
//! seeded by [`ClientConfig::jitter_seed`], so a test or bench replays
//! the exact same timing.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use rap_track::{encode_stream, Challenge, Report};

use crate::frame::{
    decode_challenge, decode_error, decode_session, encode_frame_into, encode_hello, encode_resume,
    write_frame, ErrorCode, FrameBuf, FrameError, FrameType, ReadFrameError, ResumeToken, Verdict,
    DEFAULT_MAX_FRAME_LEN,
};

/// Tunables for [`AttestClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each frame read.
    pub read_timeout: Duration,
    /// Deadline for each frame write.
    pub write_timeout: Duration,
    /// Retries after the first attempt (connect failures and
    /// `ERROR busy` only — verdicts are never retried).
    pub retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// SplitMix64 seed for deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Payload-size cap for received frames.
    pub max_frame_len: u32,
    /// Pipelining window to request from the server (the server may
    /// grant less; 1 degenerates to strict request/response rounds).
    pub window: u16,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x5EED,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            window: 1,
        }
    }
}

/// A client-side failure.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new failure modes can be added without a breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(std::io::Error),
    /// The server sent bytes that were not a valid frame.
    Frame(FrameError),
    /// The server closed the connection with a typed error.
    Server {
        /// Why the server refused.
        code: ErrorCode,
        /// The server's message.
        msg: String,
    },
    /// The server broke the protocol (unexpected frame type, or closed
    /// mid-round).
    Protocol(&'static str),
    /// Every attempt failed; holds the final attempt's error.
    Exhausted {
        /// Attempts made (first try + retries).
        attempts: u32,
        /// The error from the last attempt.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Server { code, msg } => write!(f, "server error ({code}): {msg}"),
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

impl From<ReadFrameError> for ClientError {
    fn from(e: ReadFrameError) -> ClientError {
        match e {
            ReadFrameError::Frame(e) => ClientError::Frame(e),
            ReadFrameError::Io(e) => ClientError::Io(e),
        }
    }
}

impl ClientError {
    /// Whether a fresh attempt could plausibly succeed — connect
    /// failures and server `busy` shedding, nothing else.
    fn transient(&self) -> bool {
        match self {
            ClientError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ),
            ClientError::Server { code, .. } => *code == ErrorCode::Busy,
            _ => false,
        }
    }
}

/// A client for one attestation server address.
#[derive(Debug, Clone)]
pub struct AttestClient {
    addr: String,
    config: ClientConfig,
}

/// One open connection: the opener (`HELLO` or `RESUME`) is sent; the
/// `SESSION` grant is consumed lazily on the first read, after which
/// [`Connection::resume_token`] holds the token for the *next*
/// connection.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    max_frame_len: u32,
    grant: Option<(ResumeToken, u16)>,
    pending: VecDeque<Challenge>,
    /// Received bytes not yet decoded: one `read` takes a whole server
    /// flush, however many frames it holds.
    inbuf: FrameBuf,
}

/// The client's receive-buffer chunk, also the server's first one. A
/// server flush of a full window (8 VERDICT + CHALLENGE pairs) is about
/// 520 bytes.
pub(crate) const RECV_CHUNK: usize = 4096;

/// What [`Connection::take_frame`] made of one frame.
enum Taken {
    /// A `VERDICT`, decoded.
    Verdict(Verdict),
    /// A `SESSION` grant (stored) or a `CHALLENGE` (queued).
    Stored,
    /// Nothing was buffered and the call was not allowed to read.
    Empty,
}

impl AttestClient {
    /// Creates a client for `addr` (e.g. `"127.0.0.1:7207"`).
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> AttestClient {
        AttestClient {
            addr: addr.into(),
            config,
        }
    }

    /// Opens a connection and sends `HELLO`, retrying transient
    /// failures with backoff.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] once the retry budget is spent; any
    /// non-transient [`ClientError`] immediately.
    pub fn open(&self, device: &str) -> Result<Connection, ClientError> {
        let window = self.config.window.max(1);
        self.open_with(|conn| {
            write_frame(
                &mut conn.stream,
                FrameType::Hello,
                &encode_hello(window, device),
            )
        })
    }

    /// Opens a connection that resumes the session `token` names: the
    /// server restores the device's nonce chain without a fresh
    /// `HELLO` setup. The token must have come from an earlier
    /// [`Connection::close`] (or [`Connection::resume_token`]) for the
    /// same device.
    ///
    /// # Errors
    ///
    /// The server answers an invalid, expired, reused, or
    /// wrong-device token with [`ClientError::Server`] carrying
    /// [`ErrorCode::ResumeRejected`] (surfaced on the first read);
    /// transport failures as in [`AttestClient::open`].
    pub fn resume(&self, device: &str, token: ResumeToken) -> Result<Connection, ClientError> {
        let window = self.config.window.max(1);
        self.open_with(|conn| {
            write_frame(
                &mut conn.stream,
                FrameType::Resume,
                &encode_resume(&token, window, device),
            )
        })
    }

    fn open_with(
        &self,
        mut opener: impl FnMut(&mut Connection) -> std::io::Result<()>,
    ) -> Result<Connection, ClientError> {
        let attempts = self.config.retries + 1;
        let mut rng = SplitMix64::new(self.config.jitter_seed);
        for attempt in 0..attempts {
            match self.connect_once(&mut opener) {
                Ok(conn) => return Ok(conn),
                Err(e) if e.transient() && attempt + 1 < attempts => {
                    rap_obs::counter!("serve_client_retries_total").inc();
                    std::thread::sleep(self.backoff(attempt, &mut rng));
                }
                Err(e) if e.transient() => {
                    return Err(ClientError::Exhausted {
                        attempts,
                        last: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt");
    }

    /// One full attestation round on a fresh connection: open, receive
    /// the challenge, call `respond` to produce the signed report
    /// stream, return the server's verdict.
    ///
    /// # Errors
    ///
    /// Propagates [`AttestClient::open`] and [`Connection::round`]
    /// failures.
    pub fn attest_once(
        &self,
        device: &str,
        respond: impl FnOnce(Challenge) -> Vec<Report>,
    ) -> Result<Verdict, ClientError> {
        let mut conn = self.open(device)?;
        conn.round(respond)
    }

    fn connect_once(
        &self,
        opener: &mut impl FnMut(&mut Connection) -> std::io::Result<()>,
    ) -> Result<Connection, ClientError> {
        let addr = self
            .addr
            .parse()
            .map_err(|_| ClientError::Protocol("unparseable server address"))?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        let _ = stream.set_nodelay(true);
        let mut conn = Connection {
            stream,
            max_frame_len: self.config.max_frame_len,
            grant: None,
            pending: VecDeque::new(),
            inbuf: FrameBuf::new(RECV_CHUNK),
        };
        conn.pending.reserve(self.config.window as usize);
        opener(&mut conn)?;
        Ok(conn)
    }

    fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let base = self.config.backoff_base.as_millis() as u64;
        let cap = self.config.backoff_cap.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap.max(1));
        let jitter = rng.next() % exp.max(1);
        Duration::from_millis(exp + jitter / 2)
    }
}

impl Connection {
    /// Runs one challenge–response round: takes the next `CHALLENGE`,
    /// answers with the reports `respond` produces, and returns the
    /// `VERDICT`. Call again for another round on the same connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the server closes with a typed
    /// error (e.g. draining), [`ClientError::Protocol`] on unexpected
    /// frames, [`ClientError::Io`]/[`ClientError::Frame`] on transport
    /// or decode failures.
    pub fn round(
        &mut self,
        respond: impl FnOnce(Challenge) -> Vec<Report>,
    ) -> Result<Verdict, ClientError> {
        let chal = self.next_challenge()?;
        let reports = respond(chal);
        write_frame(
            &mut self.stream,
            FrameType::Attest,
            &encode_stream(&reports),
        )?;
        self.read_verdict()
    }

    /// Runs `rounds` rounds keeping up to the granted window in
    /// flight: an initial burst of ATTEST frames, then one new ATTEST
    /// per VERDICT received. Verdicts come back in round order.
    ///
    /// Frames are batched both ways: the write-ahead burst goes out in
    /// one write, and every VERDICT that one read delivered is taken
    /// before the ATTESTs answering their replacement challenges go
    /// out, again in one write.
    ///
    /// # Errors
    ///
    /// As [`Connection::round`]; on error, in-flight rounds are lost.
    pub fn pipelined(
        &mut self,
        rounds: usize,
        mut respond: impl FnMut(Challenge) -> Vec<Report>,
    ) -> Result<Vec<Verdict>, ClientError> {
        let mut verdicts = Vec::with_capacity(rounds);
        let mut burst = Vec::new();
        let mut sent = 0usize;
        while verdicts.len() < rounds {
            // Fill the window. The granted window is unknown until the
            // first read consumes the SESSION grant, so the bound is
            // re-checked per ATTEST. Every challenge this waits for is
            // already on its way: the handshake grants a window of
            // them, and each VERDICT is followed by its replacement.
            while sent < rounds && sent - verdicts.len() < usize::from(self.granted_window().max(1))
            {
                let chal = self.next_challenge()?;
                encode_frame_into(
                    &mut burst,
                    FrameType::Attest,
                    &encode_stream(&respond(chal)),
                );
                sent += 1;
            }
            if !burst.is_empty() {
                self.stream.write_all(&burst)?;
                burst.clear();
            }
            verdicts.push(self.read_verdict()?);
            while verdicts.len() < sent {
                match self.take_frame(false, "expected VERDICT")? {
                    Taken::Verdict(verdict) => verdicts.push(verdict),
                    Taken::Stored => {}
                    Taken::Empty => break,
                }
            }
        }
        Ok(verdicts)
    }

    /// The resumption token granted to this connection, once the
    /// `SESSION` frame has been read (after the first round at the
    /// latest). Present it to [`AttestClient::resume`] to continue
    /// this session on a new connection.
    pub fn resume_token(&self) -> Option<ResumeToken> {
        self.grant.map(|(token, _)| token)
    }

    /// The pipelining window the server granted (0 until the
    /// `SESSION` frame has been read).
    pub fn granted_window(&self) -> u16 {
        self.grant.map_or(0, |(_, w)| w)
    }

    /// Closes the connection cleanly and returns the resumption token:
    /// shuts down the write side, then drains the server's remaining
    /// frames until it acknowledges the close with EOF — after which
    /// the server is guaranteed to have parked the session, so an
    /// immediate [`AttestClient::resume`] with the token succeeds.
    pub fn close(mut self) -> Option<ResumeToken> {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        while let Ok(Some(_)) = self.inbuf.read_frame(&mut self.stream, self.max_frame_len) {}
        self.grant.map(|(token, _)| token)
    }

    /// Sends raw bytes on the open connection — test aid for malformed
    /// and slow-loris inputs; not part of the protocol.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads the next frame — test aid for driving the protocol
    /// manually after [`Connection::send_raw`]. `SESSION` grants are
    /// consumed transparently (stashing the token), so the first frame
    /// this returns on a fresh connection is the first `CHALLENGE`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] on clean EOF; transport and decode
    /// failures as their own variants.
    pub fn read_next(&mut self) -> Result<(FrameType, Vec<u8>), ClientError> {
        loop {
            let (ft, payload) = self
                .inbuf
                .read_frame(&mut self.stream, self.max_frame_len)?
                .ok_or(ClientError::Protocol("server closed the connection"))?;
            if ft == FrameType::Session && self.grant.is_none() {
                let grant = decode_session(payload)?;
                self.grant = Some((grant.token, grant.window));
                continue;
            }
            return Ok((ft, payload.to_vec()));
        }
    }

    /// The next challenge: queued first, then read from the stream
    /// (consuming the `SESSION` grant if it has not arrived yet).
    fn next_challenge(&mut self) -> Result<Challenge, ClientError> {
        loop {
            if let Some(chal) = self.pending.pop_front() {
                return Ok(chal);
            }
            if let Taken::Verdict(_) = self.take_frame(true, "expected CHALLENGE")? {
                return Err(ClientError::Protocol("expected CHALLENGE"));
            }
        }
    }

    /// Reads until a `VERDICT`, queueing replacement challenges that
    /// arrive ahead of it.
    fn read_verdict(&mut self) -> Result<Verdict, ClientError> {
        loop {
            if let Taken::Verdict(verdict) = self.take_frame(true, "expected VERDICT")? {
                return Ok(verdict);
            }
        }
    }

    /// Takes the next frame, decoded in place from the receive buffer:
    /// a `SESSION` grant is stored, a `CHALLENGE` queued, a `VERDICT`
    /// returned and an `ERROR` turned into [`ClientError::Server`]. Any
    /// other frame is [`ClientError::Protocol`] with `expected`. With
    /// `wait` unset it never reads, and yields [`Taken::Empty`] when no
    /// whole frame is buffered.
    fn take_frame(&mut self, wait: bool, expected: &'static str) -> Result<Taken, ClientError> {
        let frame = if wait {
            self.inbuf
                .read_frame(&mut self.stream, self.max_frame_len)?
                .ok_or(ClientError::Protocol("server closed the connection"))?
        } else {
            match self.inbuf.next_frame(self.max_frame_len)? {
                Some(frame) => frame,
                None => return Ok(Taken::Empty),
            }
        };
        match frame {
            (FrameType::Verdict, payload) => return Ok(Taken::Verdict(Verdict::decode(payload)?)),
            (FrameType::Challenge, payload) => self.pending.push_back(decode_challenge(payload)?),
            (FrameType::Session, payload) => {
                let grant = decode_session(payload)?;
                self.grant = Some((grant.token, grant.window));
            }
            (FrameType::Error, payload) => return Err(server_error(payload)),
            _ => return Err(ClientError::Protocol(expected)),
        }
        Ok(Taken::Stored)
    }
}

fn server_error(payload: &[u8]) -> ClientError {
    match decode_error(payload) {
        Ok((code, msg)) => ClientError::Server { code, msg },
        Err(e) => ClientError::Frame(e),
    }
}

/// SplitMix64 — the repo's standard deterministic generator (see
/// `rap-fuzz`), re-implemented locally so the runtime crate does not
/// depend on the fuzzing crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read as _;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::frame::{encode_frame, encode_session, read_frame, SessionGrant};

    const GRANT: SessionGrant = SessionGrant {
        token: ResumeToken {
            id: 42,
            mac: [0x5A; 32],
        },
        window: 2,
    };

    /// A scripted server on loopback: accepts one connection, checks
    /// its `HELLO`, then hands the stream to `script`.
    fn scripted_server(
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (AttestClient, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            let opener = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
                .expect("opener arrives")
                .expect("opener before EOF");
            assert_eq!(opener.frame_type, FrameType::Hello);
            script(stream);
        });
        (
            AttestClient::new(addr.to_string(), ClientConfig::default()),
            handle,
        )
    }

    /// The handshake reply plus `extra` frames, as one server flush.
    fn flush_with(extra: &[(FrameType, &[u8])]) -> Vec<u8> {
        let mut flush = encode_frame(FrameType::Session, &encode_session(&GRANT));
        for (ft, payload) in extra {
            encode_frame_into(&mut flush, *ft, payload);
        }
        flush
    }

    #[test]
    fn read_next_and_send_raw_work_over_the_receive_buffer() {
        let (client, server) = scripted_server(|mut stream| {
            stream
                .write_all(&flush_with(&[
                    (FrameType::Challenge, &[1; 32]),
                    (FrameType::Challenge, &[2; 32]),
                ]))
                .unwrap();
            let raw = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(
                (raw.frame_type, raw.payload.as_slice()),
                (FrameType::Attest, &b"raw"[..])
            );
            stream
                .write_all(&encode_frame(FrameType::Verdict, &[1; 13]))
                .unwrap();
        });
        let mut conn = client.open("scripted").expect("opens");
        // The SESSION grant is consumed on the way to the first frame.
        assert_eq!(
            conn.read_next().unwrap(),
            (FrameType::Challenge, vec![1; 32])
        );
        assert_eq!(conn.resume_token(), Some(GRANT.token));
        assert_eq!(conn.granted_window(), 2);
        assert_eq!(
            conn.read_next().unwrap(),
            (FrameType::Challenge, vec![2; 32])
        );
        conn.send_raw(&encode_frame(FrameType::Attest, b"raw"))
            .expect("writes");
        assert_eq!(conn.read_next().unwrap(), (FrameType::Verdict, vec![1; 13]));
        assert!(matches!(
            conn.read_next(),
            Err(ClientError::Protocol("server closed the connection"))
        ));
        server.join().expect("script ran");
    }

    #[test]
    fn close_drains_buffered_frames_up_to_eof() {
        let closed = Arc::new(AtomicBool::new(false));
        let server_closed = Arc::clone(&closed);
        let (client, server) = scripted_server(move |mut stream| {
            // Four frames in one flush: the client's first read buffers
            // all of them, and it reads only the first CHALLENGE.
            stream
                .write_all(&flush_with(&[
                    (FrameType::Challenge, &[1; 32]),
                    (FrameType::Verdict, &[1; 13]),
                    (FrameType::Challenge, &[2; 32]),
                ]))
                .unwrap();
            // The client's write shutdown arrives as EOF; one more frame
            // follows it before the server closes.
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "the client sent {} bytes", rest.len());
            std::thread::sleep(Duration::from_millis(50));
            stream
                .write_all(&encode_frame(FrameType::Challenge, &[3; 32]))
                .unwrap();
            server_closed.store(true, Ordering::SeqCst);
        });
        let mut conn = client.open("scripted").expect("opens");
        assert_eq!(
            conn.read_next().unwrap(),
            (FrameType::Challenge, vec![1; 32])
        );
        assert_eq!(conn.close(), Some(GRANT.token));
        assert!(
            closed.load(Ordering::SeqCst),
            "close returned before the server closed"
        );
        server.join().expect("script ran");
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let client = AttestClient::new("127.0.0.1:1", ClientConfig::default());
        let delays: Vec<Duration> = {
            let mut rng = SplitMix64::new(7);
            (0..6).map(|a| client.backoff(a, &mut rng)).collect()
        };
        let again: Vec<Duration> = {
            let mut rng = SplitMix64::new(7);
            (0..6).map(|a| client.backoff(a, &mut rng)).collect()
        };
        assert_eq!(delays, again, "jitter must be deterministic");
        let cap = ClientConfig::default().backoff_cap.as_millis() as u64;
        for d in delays {
            assert!(
                d.as_millis() as u64 <= cap + cap / 2,
                "delay {d:?} over cap"
            );
        }
    }

    #[test]
    fn refused_connection_exhausts_retries() {
        // Port 1 on loopback is essentially never listening.
        let config = ClientConfig {
            retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        };
        let client = AttestClient::new("127.0.0.1:1", config);
        match client.open("dev") {
            Err(ClientError::Exhausted { attempts: 3, .. }) => {}
            Err(ClientError::Io(_)) => {} // some kernels time out instead
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }
}
