//! The attestation server: a bounded accept loop feeding one bounded
//! connection queue, drained by interchangeable workers. The worker
//! that pops a connection reads its opener (`HELLO` or `RESUME`), then
//! drives one [`VerifierSession`] through pipelined
//! CHALLENGE/ATTEST/VERDICT rounds until the connection ends.
//!
//! All workers clone one [`Verifier`], so every connection shares its
//! segment table — a fleet of devices running the same binary decodes
//! each deterministic stretch once, no matter which connection saw it
//! first. Session state (nonce counter, outstanding-challenge window)
//! stays strictly per-connection: each fresh session is seeded with
//! the server secret *plus a unique connection id*, so a nonce can
//! never repeat across connections.
//!
//! Rounds are pipelined: the handshake grants a window of `W`
//! challenges up front, the client writes ahead up to `W` ATTEST
//! frames, and the server verifies every buffered frame per *drain
//! tick*, batching the verdicts, replacement challenges, and
//! observability updates into one flush per tick instead of one per
//! round. When a connection ends cleanly its session is parked under
//! a single-use resumption token (granted in the handshake), and a
//! reconnecting device presents that token in a `RESUME` opener to
//! continue its nonce chain without a fresh `HELLO` setup.
//!
//! Overload is shed, not queued: when the connection queue is full,
//! the connection is answered with `ERROR busy` and closed instead of
//! growing an unbounded backlog. Shutdown drains: the listener stops
//! accepting, queued and in-flight rounds finish (bounded by the
//! per-connection read deadline), and every worker flushes its
//! `rap-obs` trace ring before joining.
//!
//! With [`ServerConfig::admin_addr`] set, the server additionally
//! runs a *telemetry plane*: every round gets a trace id minted at
//! CHALLENGE issue and carried through accept → opener → replay →
//! flush, slow rounds retain their full span tree in
//! a bounded [`RoundCollector`] ring, and a separate loopback admin
//! listener answers `STATS`/`EXEMPLARS` frames with point-in-time
//! snapshots plus a per-device aggregate table. With `admin_addr`
//! unset none of this exists — the per-round cost is one `Option`
//! check, preserving the disabled-cost guarantee.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::time::{Duration, Instant};

use rap_audit::AuditLog;
use rap_crypto::{verify_tag, HmacSha256};
use rap_obs::{Json, RoundCollector, RoundExemplar, StageSpan};
use rap_track::{VerdictRecord, Verifier, VerifierSession};

use crate::client::RECV_CHUNK;
use crate::frame::{
    decode_hello, decode_resume, decode_stats_request, encode_error, encode_frame,
    encode_frame_into, encode_session, write_frame, ErrorCode, FrameBuf, FrameError, FrameType,
    ReadFrameError, ResumeToken, SessionGrant, StatsFormat, Verdict, DEFAULT_MAX_FRAME_LEN,
    HEADER_LEN,
};

/// The callback type wrapped by [`RoundHook`].
pub type RoundEventFn = dyn Fn(&RoundEvent) + Send + Sync;

/// A typed event from the serving path, delivered to [`RoundHook`]
/// observers synchronously on the worker serving the connection.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so new event kinds can be added without a breaking change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RoundEvent {
    /// A round reached a verdict. The sealed [`VerdictRecord`] is the
    /// proof-carrying form: consumers can cite
    /// [`record_hash`](VerdictRecord::record_hash) and later audit it
    /// against the chain instead of trusting process memory.
    Verdict {
        /// Device that answered the challenge.
        device: String,
        /// The sealed verdict.
        record: VerdictRecord,
    },
}

/// The provider type wrapped by [`AdminExtra`]: extra top-level
/// `(name, value)` fields for the telemetry JSON.
pub type AdminExtraFn = dyn Fn() -> Vec<(String, Json)> + Send + Sync;

/// A server-side observer invoked once per round with a typed
/// [`RoundEvent`], synchronously on the worker *before* the
/// verdict batch is flushed. Control planes (rap-fleet) hang their
/// policy reactions off this; keep the callback cheap — it runs inside
/// the drain tick.
#[derive(Clone)]
pub struct RoundHook(pub Arc<RoundEventFn>);

impl RoundHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&RoundEvent) + Send + Sync + 'static) -> RoundHook {
        RoundHook(Arc::new(f))
    }
}

impl std::fmt::Debug for RoundHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RoundHook(..)")
    }
}

/// A provider of extra top-level fields for the admin plane's
/// telemetry JSON (`STATS` in JSON format). The fleet control plane
/// uses this to expose its registry as a `"fleet"` section without
/// rap-serve depending on it.
#[derive(Clone)]
pub struct AdminExtra(pub Arc<AdminExtraFn>);

impl AdminExtra {
    /// Wraps a provider callback.
    pub fn new(f: impl Fn() -> Vec<(String, Json)> + Send + Sync + 'static) -> AdminExtra {
        AdminExtra(Arc::new(f))
    }
}

impl std::fmt::Debug for AdminExtra {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AdminExtra(..)")
    }
}

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads. Any worker serves any connection, from its
    /// opener until it closes, so up to `threads` connections are
    /// served at once.
    pub threads: usize,
    /// Connections that may wait in the queue for a free worker before
    /// new arrivals are shed with `ERROR busy`.
    pub max_pending: usize,
    /// Payload-size cap applied before any allocation.
    pub max_frame_len: u32,
    /// Per-connection read deadline; also bounds how long a drain can
    /// wait on an in-flight round. The whole opener (`HELLO`/`RESUME`)
    /// gets at most one second of it.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Seed for per-connection nonce derivation and resumption-token
    /// authentication. Must be non-empty — [`Server::start`] rejects
    /// an empty secret with [`StartError::EmptySecret`].
    pub session_secret: Vec<u8>,
    /// Cap on the pipelining window granted per connection; client
    /// requests are clamped into `1..=window`.
    pub window: u16,
    /// How long a parked session stays resumable after its connection
    /// closes.
    pub resume_ttl: Duration,
    /// When set, stop accepting and drain after this many connections
    /// have been accepted — lets scripts run a bounded smoke test
    /// without signal handling.
    pub conn_limit: Option<u64>,
    /// When set, bind a second (loopback) listener at this address and
    /// serve `STATS`/`EXEMPLARS` admin frames from it, and turn on
    /// per-round trace-context tracking. `None` (the default) keeps
    /// the whole telemetry plane compiled out of the hot path behind a
    /// single `Option` check.
    pub admin_addr: Option<String>,
    /// Rounds slower than this (challenge issue → verdict flushed)
    /// retain their full span tree as a [`RoundExemplar`]. Only
    /// meaningful with [`ServerConfig::admin_addr`] set.
    pub slow_round_threshold: Duration,
    /// Cap on the admin plane's per-device telemetry table. Beyond it
    /// the least-recently-touched device row is evicted (counted in
    /// `admin_device_table_evictions_total`), so a churning fleet
    /// cannot grow server memory without bound.
    pub device_table_cap: usize,
    /// Called once per round with a typed [`RoundEvent`] carrying the
    /// sealed [`VerdictRecord`], on the worker before the verdict batch
    /// flushes.
    pub round_hook: Option<RoundHook>,
    /// When set, every sealed verdict is appended to the hash-chained
    /// audit log at this path (created or recovered via
    /// [`AuditLog::open`]), batched once per drain tick.
    pub audit_log: Option<std::path::PathBuf>,
    /// Extra top-level sections merged into the admin `STATS` JSON.
    pub admin_extra: Option<AdminExtra>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 4,
            max_pending: 64,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            // Deliberately empty: there is no safe default secret. The
            // caller must supply one (Server::start rejects this
            // default), and `rap serve` generates a random one.
            session_secret: Vec::new(),
            window: 8,
            resume_ttl: Duration::from_secs(60),
            conn_limit: None,
            admin_addr: None,
            slow_round_threshold: Duration::from_millis(5),
            device_table_cap: 1024,
            round_hook: None,
            audit_log: None,
            admin_extra: None,
        }
    }
}

/// A failure starting the server.
#[derive(Debug)]
#[non_exhaustive]
pub enum StartError {
    /// [`ServerConfig::session_secret`] was empty — an empty secret
    /// would make every nonce chain and resumption token forgeable.
    EmptySecret,
    /// Binding the listener failed.
    Io(std::io::Error),
    /// Opening [`ServerConfig::audit_log`] failed — refusing to serve
    /// rather than silently dropping the audit trail (the existing log
    /// may be tampered, or the path unwritable).
    Audit(rap_audit::OpenError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::EmptySecret => {
                write!(
                    f,
                    "session secret must not be empty (nonces would be forgeable)"
                )
            }
            StartError::Io(e) => write!(f, "bind failed: {e}"),
            StartError::Audit(e) => write!(f, "audit log: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

impl From<std::io::Error> for StartError {
    fn from(e: std::io::Error) -> StartError {
        StartError::Io(e)
    }
}

/// Counters reported by [`Server::shutdown`]/[`Server::join`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and queued for a worker.
    pub accepted: u64,
    /// Connections shed with `ERROR busy`.
    pub shed: u64,
    /// Connections that resumed a parked session via a token.
    pub resumed: u64,
    /// `RESUME` openers rejected (unknown/used/expired/wrong-device).
    pub resume_rejected: u64,
    /// Rounds whose evidence verified.
    pub verdicts_accepted: u64,
    /// Rounds whose evidence was rejected (wire or session failure).
    pub verdicts_rejected: u64,
    /// `Error` frames successfully flushed to the peer.
    pub errors_sent: u64,
    /// `Error` frames the server tried to send but could not deliver
    /// (the peer was already gone).
    pub error_send_failed: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    resumed: AtomicU64,
    resume_rejected: AtomicU64,
    verdicts_accepted: AtomicU64,
    verdicts_rejected: AtomicU64,
    errors_sent: AtomicU64,
    error_send_failed: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            resume_rejected: self.resume_rejected.load(Ordering::Relaxed),
            verdicts_accepted: self.verdicts_accepted.load(Ordering::Relaxed),
            verdicts_rejected: self.verdicts_rejected.load(Ordering::Relaxed),
            errors_sent: self.errors_sent.load(Ordering::Relaxed),
            error_send_failed: self.error_send_failed.load(Ordering::Relaxed),
        }
    }
}

/// The bounded connection queue between the accept loop and the
/// workers. `try_push` refuses instead of blocking — that refusal is
/// the load shed. `pop` blocks until a connection arrives or the queue
/// closes.
struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner {
    conns: VecDeque<AcceptedConn>,
    closed: bool,
}

const QUEUE_POISONED: &str = "a thread panicked holding the connection queue lock";

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Returns the connection on refusal (queue full or closed) so the
    /// caller can still answer it. Stamps the depth the connection
    /// enters at under the queue lock, so an exemplar reports exactly
    /// the depth its connection saw.
    fn try_push(&self, mut conn: AcceptedConn) -> Result<(), AcceptedConn> {
        let mut inner = self.inner.lock().expect(QUEUE_POISONED);
        if inner.closed || inner.conns.len() >= self.cap {
            return Err(conn);
        }
        conn.accept_depth = inner.conns.len() as u32;
        inner.conns.push_back(conn);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<AcceptedConn> {
        let mut inner = self.inner.lock().expect(QUEUE_POISONED);
        loop {
            if let Some(conn) = inner.conns.pop_front() {
                return Some(conn);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect(QUEUE_POISONED);
        }
    }

    fn close(&self) {
        self.inner.lock().expect(QUEUE_POISONED).closed = true;
        self.ready.notify_all();
    }
}

/// A connection the accept loop has queued for a worker.
struct AcceptedConn {
    conn_id: u64,
    stream: TcpStream,
    /// When the accept loop enqueued the connection.
    accepted_at: Instant,
    /// Queue depth at enqueue time (stamped under the lock).
    accept_depth: u32,
}

/// A session parked at connection close, waiting for a `RESUME`.
struct ResumeEntry {
    session: VerifierSession,
    device: String,
    expires_at: Instant,
}

type ResumeTable = Mutex<HashMap<u64, ResumeEntry>>;

/// Per-device aggregate row of the admin telemetry table: volume,
/// rejects, resumes, recency and a fixed-bucket latency distribution
/// (same layout as `serve_round_latency_ns`) for a bucket-derived p99.
struct DeviceAgg {
    rounds: u64,
    rejects: u64,
    resumes: u64,
    /// Last verdict-flush time, ns since the server epoch.
    last_seen_ns: u64,
    buckets: [u64; rap_obs::ROUND_LATENCY_NS_BOUNDS.len() + 1],
}

impl Default for DeviceAgg {
    fn default() -> DeviceAgg {
        DeviceAgg {
            rounds: 0,
            rejects: 0,
            resumes: 0,
            last_seen_ns: 0,
            buckets: [0; rap_obs::ROUND_LATENCY_NS_BOUNDS.len() + 1],
        }
    }
}

impl DeviceAgg {
    fn observe(&mut self, total_ns: u64) {
        let idx = rap_obs::ROUND_LATENCY_NS_BOUNDS.partition_point(|&b| b < total_ns);
        self.buckets[idx] += 1;
    }

    fn p99_ns(&self) -> u64 {
        rap_obs::bucket_quantile(&rap_obs::ROUND_LATENCY_NS_BOUNDS, &self.buckets, 0.99)
    }
}

/// The per-device telemetry table, capped: every access stamps the row
/// with a monotone sequence number, and inserting past `cap` evicts
/// the least-recently-touched row (an O(n) scan — eviction only
/// happens when a *new* device shows up on a full table, so a stable
/// fleet never pays it). Evictions are counted in
/// `admin_device_table_evictions_total`.
struct DeviceTable {
    map: HashMap<String, (u64, DeviceAgg)>,
    cap: usize,
    seq: u64,
}

impl DeviceTable {
    fn new(cap: usize) -> DeviceTable {
        DeviceTable {
            map: HashMap::new(),
            cap: cap.max(1),
            seq: 0,
        }
    }

    /// Returns the (possibly fresh) row for `device`, bumping its
    /// recency and evicting the coldest row if the insert overflowed
    /// the cap.
    fn touch(&mut self, device: &str) -> &mut DeviceAgg {
        self.seq += 1;
        let seq = self.seq;
        if !self.map.contains_key(device) && self.map.len() >= self.cap {
            if let Some(coldest) = self
                .map
                .iter()
                .min_by_key(|(_, (touched, _))| *touched)
                .map(|(name, _)| name.clone())
            {
                self.map.remove(&coldest);
                rap_obs::counter!("admin_device_table_evictions_total").inc();
            }
        }
        let entry = self
            .map
            .entry(device.to_string())
            .or_insert_with(|| (seq, DeviceAgg::default()));
        entry.0 = seq;
        &mut entry.1
    }

    fn iter(&self) -> impl Iterator<Item = (&String, &DeviceAgg)> {
        self.map.iter().map(|(name, (_, agg))| (name, agg))
    }
}

/// The telemetry plane's shared state — exists only when
/// [`ServerConfig::admin_addr`] is set, so the disabled cost of the
/// whole plane is the `Option` check on [`Shared::telemetry`].
struct Telemetry {
    /// Trace-id mint + slow-round exemplar ring.
    rounds: RoundCollector,
    /// Per-device aggregates, updated once per drain tick (one lock
    /// acquisition per verdict batch, not per round). LRU-capped at
    /// [`ServerConfig::device_table_cap`].
    devices: Mutex<DeviceTable>,
}

/// Slow-round exemplars the telemetry plane retains (oldest evicted
/// first).
const EXEMPLAR_CAPACITY: usize = 64;

impl Telemetry {
    fn new(config: &ServerConfig) -> Telemetry {
        Telemetry {
            rounds: RoundCollector::new(
                config.slow_round_threshold.as_nanos() as u64,
                EXEMPLAR_CAPACITY,
            ),
            devices: Mutex::new(DeviceTable::new(config.device_table_cap)),
        }
    }
}

/// Everything the accept loop and the workers share.
struct Shared {
    config: ServerConfig,
    counters: Counters,
    shutdown: AtomicBool,
    resume: ResumeTable,
    token_seq: AtomicU64,
    /// The instant all span/round offsets are relative to.
    epoch: Instant,
    /// `Some` iff the admin endpoint is configured.
    telemetry: Option<Telemetry>,
    /// `Some` iff [`ServerConfig::audit_log`] is set. Workers append
    /// sealed records under this lock once per drain tick (one
    /// batched `write` per tick), so contention is per-tick, not
    /// per-round.
    audit: Option<Mutex<AuditLog>>,
}

/// The resumption-token MAC, keyed once with its constant domain key:
/// every token clones it.
static RESUME_MAC: LazyLock<HmacSha256> = LazyLock::new(|| HmacSha256::new(b"RAP-SERVE-RESUME"));

/// Derives the resumption token for `(id, device)` under the server
/// secret. The mac binds both, so a token presented with a different
/// device name (or minted without the secret) fails validation.
fn mint_token(secret: &[u8], id: u64, device: &str) -> ResumeToken {
    // HMAC(domain, secret ‖ id ‖ device), streamed: no message buffer.
    let mut mac = RESUME_MAC.clone();
    mac.update(secret);
    mac.update(&id.to_le_bytes());
    mac.update(device.as_bytes());
    ResumeToken {
        id,
        mac: mac.finalize(),
    }
}

/// A running attestation server; dropping it without calling
/// [`Server::shutdown`] aborts the drain (threads are detached).
pub struct Server {
    local_addr: SocketAddr,
    admin_local: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    admin_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    queue: Arc<ConnQueue>,
}

impl Server {
    /// Binds `addr` (`"127.0.0.1:0"` picks an ephemeral port) and
    /// starts the accept loop and [`ServerConfig::threads`] workers,
    /// all verifying through clones of `verifier`.
    ///
    /// # Errors
    ///
    /// [`StartError::EmptySecret`] when
    /// [`ServerConfig::session_secret`] is empty;
    /// [`StartError::Io`] for bind failures.
    pub fn start(
        verifier: Verifier,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server, StartError> {
        if config.session_secret.is_empty() {
            return Err(StartError::EmptySecret);
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let admin_listener = match &config.admin_addr {
            Some(admin_addr) => Some(TcpListener::bind(admin_addr.as_str())?),
            None => None,
        };
        let admin_local = match &admin_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let threads = config.threads.max(1);
        let queue = Arc::new(ConnQueue::new(config.max_pending));
        let telemetry = admin_listener.as_ref().map(|_| Telemetry::new(&config));
        let audit = match &config.audit_log {
            Some(path) => Some(Mutex::new(AuditLog::open(path).map_err(StartError::Audit)?)),
            None => None,
        };
        let shared = Arc::new(Shared {
            config,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            resume: Mutex::new(HashMap::new()),
            token_seq: AtomicU64::new(1),
            epoch: Instant::now(),
            telemetry,
            audit,
        });

        let worker_handles = (0..threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                let verifier = verifier.clone();
                std::thread::spawn(move || {
                    while let Some(conn) = queue.pop() {
                        rap_obs::gauge!("serve_accept_queue_depth").dec();
                        rap_obs::gauge!("serve_active_connections").inc();
                        serve_connection(&shared, &verifier, conn);
                        rap_obs::gauge!("serve_active_connections").dec();
                    }
                    // Scoped-thread rule from the fleet layer applies
                    // here too: flush the trace ring before join.
                    rap_obs::flush_thread();
                })
            })
            .collect();

        let accept_handle = {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                accept_loop(listener, &queue, &shared);
                queue.close();
                // The accept loop records counters through per-thread
                // rings too — flush them like every other stage thread.
                rap_obs::flush_thread();
            })
        };

        let admin_handle = admin_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                admin_loop(listener, &shared);
                rap_obs::flush_thread();
            })
        });

        Ok(Server {
            local_addr,
            admin_local,
            shared,
            accept_handle: Some(accept_handle),
            admin_handle,
            worker_handles,
            queue,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound admin telemetry address, when
    /// [`ServerConfig::admin_addr`] was set (useful with port 0).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_local
    }

    /// Stats so far (the server keeps running).
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Graceful drain: stop accepting, let queued and in-flight rounds
    /// finish (bounded by the read deadline), join every thread, and
    /// return the final stats. The listeners block in `accept`, so each
    /// is woken with one loopback connection of its own, which it drops.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
        self.shared.counters.snapshot()
    }

    /// Waits for the server to drain on its own — only meaningful with
    /// [`ServerConfig::conn_limit`], after which the accept loop exits
    /// and the queue closes without an explicit [`Server::shutdown`].
    pub fn join(mut self) -> ServerStats {
        self.join_threads();
        self.shared.counters.snapshot()
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept_handle.take() {
            // Without the shutdown flag (`join()`), the accept loop ends
            // at `conn_limit`; a wake connection would count against it.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                wake_and_join(h, self.local_addr);
            } else {
                let _ = h.join();
            }
        }
        self.queue.close();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // The admin loop only exits on the shutdown flag; set it here
        // too so the conn-limit drain path (`join()` without
        // `shutdown()`) does not deadlock on the admin thread.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let (Some(h), Some(addr)) = (self.admin_handle.take(), self.admin_local) {
            wake_and_join(h, addr);
        }
    }
}

/// How long an accept loop backs off after a failed `accept` (EMFILE,
/// ECONNABORTED, ...), so that a lasting error cannot spin a core; also
/// the pause between wake attempts in [`wake_and_join`].
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// Bounds one wake connect in [`wake_and_join`].
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Joins an accept-loop thread once the shutdown flag is set. The loop
/// may be blocked in `accept` on `addr`, so one loopback connection
/// wakes it; the loop checks the flag after every `accept` and drops
/// that connection unqueued. An unspecified bind address is reached
/// through loopback. A failed connect is retried until the thread has
/// finished, so a lost wake cannot hang shutdown.
fn wake_and_join(handle: std::thread::JoinHandle<()>, addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let wake = SocketAddr::new(ip, addr.port());
    while !handle.is_finished() {
        if TcpStream::connect_timeout(&wake, WAKE_CONNECT_TIMEOUT).is_ok() {
            break;
        }
        std::thread::sleep(ACCEPT_ERROR_BACKOFF);
    }
    let _ = handle.join();
}

fn accept_loop(listener: TcpListener, queue: &ConnQueue, shared: &Shared) {
    let config = &shared.config;
    let counters = &shared.counters;
    let mut next_conn_id = 0u64;
    loop {
        if let Some(limit) = config.conn_limit {
            if next_conn_id >= limit {
                return;
            }
        }
        let accepted = listener.accept();
        // Shutdown's wake connection, or a peer that raced it.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn_id = next_conn_id;
                next_conn_id += 1;
                let _ = stream.set_write_timeout(Some(config.write_timeout));
                let conn = AcceptedConn {
                    conn_id,
                    stream,
                    accepted_at: Instant::now(),
                    accept_depth: 0,
                };
                match queue.try_push(conn) {
                    Ok(()) => {
                        counters.accepted.fetch_add(1, Ordering::Relaxed);
                        rap_obs::counter!("serve_conns_accepted_total").inc();
                        rap_obs::gauge!("serve_accept_queue_depth").inc();
                    }
                    Err(AcceptedConn { mut stream, .. }) => {
                        // Shed, don't queue: an explicit busy error
                        // lets the client back off and retry.
                        counters.shed.fetch_add(1, Ordering::Relaxed);
                        rap_obs::counter!("serve_conns_shed_total").inc();
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                        send_error(
                            &mut stream,
                            counters,
                            ErrorCode::Busy,
                            "connection queue full",
                        );
                    }
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// How long a popped connection may take to send its whole opener. A
/// worker is held while it waits, so `threads` silent or trickling
/// peers would stall every new client for this long; a device sends
/// its opener right after connecting, so one second is generous.
/// Capped by [`ServerConfig::read_timeout`].
const OPENER_TIMEOUT: Duration = Duration::from_secs(1);

/// A stream whose reads share one deadline: each read waits only for
/// the time left, so a peer that trickles bytes cannot stretch it.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        // std rejects a zero read timeout, and no time left is a
        // timeout anyway.
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads a popped connection's opener (`HELLO` or `RESUME`) into the
/// connection's receive buffer, within [`OPENER_TIMEOUT`] in all, and
/// validates its resumption token. Returns the device, the requested
/// window and the resumed session; bytes behind the opener stay
/// buffered for the round loop.
fn read_opener(
    shared: &Shared,
    stream: &mut TcpStream,
    inbuf: &mut FrameBuf,
) -> Result<(String, u16, Option<VerifierSession>), Exit> {
    let config = &shared.config;
    let counters = &shared.counters;
    let mut reader = Deadline {
        stream,
        at: Instant::now() + config.read_timeout.min(OPENER_TIMEOUT),
    };
    let (frame_type, payload) = match inbuf.read_frame(&mut reader, config.max_frame_len) {
        Ok(Some(frame)) => frame,
        Ok(None) => return Err(Exit::Gone), // closed before the opener
        Err(e) => return Err(read_error(e)),
    };
    rap_obs::counter!("serve_frames_rx_total").inc();
    let opener = match frame_type {
        FrameType::Hello => decode_hello(payload).map(|(window, device)| (window, device, None)),
        FrameType::Resume => {
            decode_resume(payload).map(|(token, window, device)| (window, device, Some(token)))
        }
        _ => {
            return Err(Exit::Error(
                ErrorCode::Protocol,
                "expected HELLO or RESUME".into(),
            ))
        }
    };
    let (window, device, token) =
        opener.map_err(|e| Exit::Error(ErrorCode::Protocol, e.to_string()))?;
    let Some(token) = token else {
        return Ok((device, window, None));
    };
    match take_resume_entry(shared, &token, &device) {
        Ok(session) => {
            counters.resumed.fetch_add(1, Ordering::Relaxed);
            rap_obs::counter!("serve_sessions_resumed_total").inc();
            if let Some(t) = &shared.telemetry {
                t.devices.lock().unwrap().touch(&device).resumes += 1;
            }
            Ok((device, window, Some(session)))
        }
        Err(why) => {
            counters.resume_rejected.fetch_add(1, Ordering::Relaxed);
            rap_obs::counter!("serve_resume_rejected_total").inc();
            Err(Exit::Error(ErrorCode::ResumeRejected, why.into()))
        }
    }
}

/// Validates and consumes a resumption token. The mac check binds the
/// token to the device; the table remove makes it single-use; the TTL
/// bounds how long a parked session stays alive.
fn take_resume_entry(
    shared: &Shared,
    token: &ResumeToken,
    device: &str,
) -> Result<VerifierSession, &'static str> {
    let expected = mint_token(&shared.config.session_secret, token.id, device);
    if !verify_tag(&expected.mac, &token.mac) {
        return Err("token not valid for this device");
    }
    let entry = shared
        .resume
        .lock()
        .unwrap()
        .remove(&token.id)
        .ok_or("unknown or already-used token")?;
    if entry.device != device {
        return Err("token bound to a different device");
    }
    if entry.expires_at <= Instant::now() {
        return Err("token expired");
    }
    Ok(entry.session)
}

/// Cap on parked sessions; once full, closing connections simply lose
/// resumability (their tokens are rejected).
const RESUME_CAPACITY: usize = 1024;

/// Parks a finished connection's session for resumption, purging
/// expired entries and respecting [`RESUME_CAPACITY`].
fn park_session(shared: &Shared, token_id: u64, device: String, mut session: VerifierSession) {
    // Unanswered challenges die with the connection; a resumed window
    // starts fresh (the nonce counter keeps advancing, so nothing is
    // ever re-issued).
    session.clear_outstanding();
    let now = Instant::now();
    let mut table = shared.resume.lock().unwrap();
    table.retain(|_, e| e.expires_at > now);
    if table.len() >= RESUME_CAPACITY {
        return;
    }
    table.insert(
        token_id,
        ResumeEntry {
            session,
            device,
            expires_at: now + shared.config.resume_ttl,
        },
    );
}

/// One verified round awaiting its tick's flush: finalized (end-to-end
/// latency, device aggregate, exemplar) once the verdict batch has
/// actually reached the wire.
struct PendingRound {
    trace_id: u64,
    /// When the round's CHALLENGE was issued (the trace-id mint).
    issued_at: Instant,
    /// When the worker started replaying the evidence.
    replay_start: Instant,
    /// Replay duration in ns.
    replay_ns: u64,
    accepted: bool,
}

/// Per-tick observability and counter deltas, committed once per
/// drain tick instead of once per round.
#[derive(Default)]
struct TickTally {
    frames_rx: u64,
    frames_tx: u64,
    accepted: u64,
    rejected: u64,
    latencies_ns: Vec<u64>,
    /// Rounds verified this tick, pending flush finalization; cleared
    /// by [`flush_tick`] once the tick's write lands — only populated
    /// when the telemetry plane is on.
    rounds: Vec<PendingRound>,
    /// Sealed records awaiting their batched audit append — only
    /// populated when [`ServerConfig::audit_log`] is set.
    records: Vec<VerdictRecord>,
}

impl TickTally {
    fn commit(&mut self, counters: &Counters) {
        if self.frames_rx > 0 {
            rap_obs::counter!("serve_frames_rx_total").add(self.frames_rx);
        }
        if self.frames_tx > 0 {
            rap_obs::counter!("serve_frames_tx_total").add(self.frames_tx);
        }
        if self.accepted > 0 {
            counters
                .verdicts_accepted
                .fetch_add(self.accepted, Ordering::Relaxed);
            rap_obs::counter!("serve_verdicts_accepted_total").add(self.accepted);
        }
        if self.rejected > 0 {
            counters
                .verdicts_rejected
                .fetch_add(self.rejected, Ordering::Relaxed);
            rap_obs::counter!("serve_verdicts_rejected_total").add(self.rejected);
        }
        // Replay latencies live in the µs–ms band on loopback; the
        // round-scale bucket ladder keeps the bucket-derived quantiles
        // meaningful there (the decade layout collapsed the band).
        let h = rap_obs::histogram!("serve_verify_latency_ns", &rap_obs::ROUND_LATENCY_NS_BOUNDS);
        for ns in self.latencies_ns.drain(..) {
            h.observe(ns);
        }
        // The vectors keep their capacity for the next tick.
        self.frames_rx = 0;
        self.frames_tx = 0;
        self.accepted = 0;
        self.rejected = 0;
    }
}

/// The server's receive-buffer chunk: once a frame (the opener or an
/// ATTEST) has arrived split across reads, every read of the connection
/// offers at least this much room (see [`FrameBuf::fill`]). Until then
/// reads offer the client's [`RECV_CHUNK`], so a connection whose
/// frames each fit one read, such as one resumed round, never
/// zero-fills 64 KiB.
const FILL_CHUNK: usize = 64 * 1024;

/// Nanoseconds from `epoch` to `t` (0 when `t` precedes the epoch).
fn rel_ns(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Per-connection telemetry context: the connection-level stage spans
/// (queue wait, opener read) every round of this connection shares,
/// plus the queue depth observed at enqueue time. Built once per
/// connection, only when the telemetry plane is on.
struct ConnObs<'a> {
    telemetry: &'a Telemetry,
    epoch: Instant,
    device: String,
    accept_start_ns: u64,
    accept_dur_ns: u64,
    opener_start_ns: u64,
    opener_dur_ns: u64,
    accept_depth: u32,
}

/// How a connection ends. [`serve_connection`] flushes the tick and
/// then answers each one in one place, wherever it arose.
enum Exit {
    /// The peer closed or reset between rounds: park its session so the
    /// device can resume its nonce chain.
    Park {
        token_id: u64,
        device: String,
        session: VerifierSession,
    },
    /// Answer with a typed `ERROR`, then close.
    Error(ErrorCode, String),
    /// Close without a word: the peer is gone or never spoke.
    Gone,
}

/// The answer to a connection that meets a draining server.
fn draining() -> Exit {
    Exit::Error(ErrorCode::Draining, "server draining".into())
}

fn serve_connection(shared: &Shared, verifier: &Verifier, conn: AcceptedConn) {
    let AcceptedConn {
        conn_id,
        mut stream,
        accepted_at,
        accept_depth,
    } = conn;
    let picked_at = Instant::now();
    let config = &shared.config;
    let counters = &shared.counters;
    // One receive buffer from the opener to the close, so bytes the peer
    // sent behind its opener reach the round loop.
    let mut inbuf = FrameBuf::growing(RECV_CHUNK, FILL_CHUNK);
    // Every frame of the connection is encoded straight into `outbuf`,
    // which keeps its capacity, and leaves in the tick's one write.
    let mut outbuf = Vec::new();
    let mut tick = TickTally::default();
    let mut obs = None;

    let exit = 'conn: {
        if shared.shutdown.load(Ordering::SeqCst) {
            break 'conn draining();
        }
        let (device, requested_window, restored) =
            match read_opener(shared, &mut stream, &mut inbuf) {
                Ok(opener) => opener,
                Err(exit) => break 'conn exit,
            };
        let opener_read_at = Instant::now();
        obs = shared.telemetry.as_ref().map(|telemetry| ConnObs {
            telemetry,
            epoch: shared.epoch,
            device: device.clone(),
            accept_start_ns: rel_ns(shared.epoch, accepted_at),
            accept_dur_ns: picked_at.saturating_duration_since(accepted_at).as_nanos() as u64,
            opener_start_ns: rel_ns(shared.epoch, picked_at),
            opener_dur_ns: opener_read_at
                .saturating_duration_since(picked_at)
                .as_nanos() as u64,
            accept_depth,
        });

        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        let _ = stream.set_nodelay(true);

        if shared.shutdown.load(Ordering::SeqCst) {
            break 'conn draining();
        }

        let resumed = restored.is_some();
        let mut session = restored.unwrap_or_else(|| {
            // Per-connection secret: server secret ‖ connection id, so
            // nonces are unique across connections by construction.
            let mut secret = config.session_secret.clone();
            secret.extend_from_slice(&conn_id.to_le_bytes());
            VerifierSession::from_verifier(verifier.clone(), &secret)
        });
        if resumed {
            session.clear_outstanding();
        }
        let window = requested_window.clamp(1, config.window.max(1));

        // Mint this connection's own resumption token — tokens rotate on
        // every handshake, resumed or not.
        let token_id = shared.token_seq.fetch_add(1, Ordering::Relaxed);
        let token = mint_token(&config.session_secret, token_id, &device);

        // Handshake reply: the SESSION grant plus the initial challenge
        // window, flushed with the first drain tick.
        let grant = encode_session(&SessionGrant { token, window });
        // Room for the SESSION frame and `window` CHALLENGE frames, each
        // carrying a 32-byte nonce.
        outbuf.reserve(HEADER_LEN + grant.len() + usize::from(window) * (HEADER_LEN + 32));
        encode_frame_into(&mut outbuf, FrameType::Session, &grant);
        tick.frames_tx += 1 + u64::from(window);
        // Round trace ids are minted at CHALLENGE issue; `issued` mirrors
        // the session's FIFO challenge queue (an ATTEST — even a garbage
        // one — consumes the front challenge, so front-pop stays aligned).
        let mut issued: VecDeque<(u64, Instant)> = VecDeque::new();
        for _ in 0..window {
            let chal = session.issue_windowed_challenge();
            encode_frame_into(&mut outbuf, FrameType::Challenge, &chal.0);
            if let Some(obs) = &obs {
                issued.push_back((obs.telemetry.rounds.mint(), Instant::now()));
            }
        }

        // Set once shutdown is seen: the next drain tick is the last.
        let mut last_tick = false;
        loop {
            // Drain tick: verify every complete frame already buffered,
            // accumulating verdicts + replacement challenges in `outbuf`
            // and observability deltas in `tick`.
            loop {
                let payload = match inbuf.next_frame(config.max_frame_len) {
                    Ok(None) => break,
                    Ok(Some((FrameType::Attest, payload))) => payload,
                    Ok(Some(_)) => {
                        break 'conn Exit::Error(ErrorCode::Protocol, "expected ATTEST".into())
                    }
                    Err(e) => break 'conn read_error(e.into()),
                };
                tick.frames_rx += 1;
                if session.outstanding_count() == 0 {
                    // The client wrote past its granted window.
                    break 'conn Exit::Error(
                        ErrorCode::Protocol,
                        "attest with no outstanding challenge (window overrun)".into(),
                    );
                }
                let started = Instant::now();
                let (record, _) = session.check_response_record(&device, payload);
                let replay_ns = started.elapsed().as_nanos() as u64;
                tick.latencies_ns.push(replay_ns);
                let accepted = record.accepted();
                if accepted {
                    tick.accepted += 1;
                } else {
                    tick.rejected += 1;
                }
                if let Some(hook) = &config.round_hook {
                    (hook.0)(&RoundEvent::Verdict {
                        device: device.clone(),
                        record: record.clone(),
                    });
                }
                let verdict = Verdict::from_record(&record);
                if shared.audit.is_some() {
                    tick.records.push(record);
                }
                encode_frame_into(&mut outbuf, FrameType::Verdict, &verdict.encode());
                let chal = session.issue_windowed_challenge();
                encode_frame_into(&mut outbuf, FrameType::Challenge, &chal.0);
                tick.frames_tx += 2;
                if let Some(obs) = &obs {
                    // This ATTEST consumed the front challenge; its
                    // replacement challenge starts the next round.
                    let (trace_id, issued_at) = issued.pop_front().unwrap_or((0, started));
                    tick.rounds.push(PendingRound {
                        trace_id,
                        issued_at,
                        replay_start: started,
                        replay_ns,
                        accepted,
                    });
                    issued.push_back((obs.telemetry.rounds.mint(), Instant::now()));
                }
            }
            if !flush_tick(
                &mut stream,
                &mut outbuf,
                &mut tick,
                counters,
                obs.as_ref(),
                shared.audit.as_ref(),
            ) {
                break 'conn Exit::Gone;
            }
            if last_tick {
                break 'conn draining();
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                // Drain: take what the socket already holds without
                // waiting for more, verify its complete frames in one
                // last tick, then answer `Draining`.
                last_tick = true;
                let _ = stream.set_nonblocking(true);
                let _ = inbuf.fill(&mut stream);
                let _ = stream.set_nonblocking(false);
                continue;
            }
            break 'conn match inbuf.fill(&mut stream) {
                Ok(n) if n > 0 => continue,
                Err(e) if timed_out(&e) && shared.shutdown.load(Ordering::SeqCst) => draining(),
                Err(e) if timed_out(&e) => read_error(ReadFrameError::Io(e)),
                Err(e) if e.kind() != std::io::ErrorKind::ConnectionReset => Exit::Gone,
                // A close, even an abrupt one (unread challenges force a
                // reset), parks the session: the device likely wants to
                // resume.
                _ => Exit::Park {
                    token_id,
                    device,
                    session,
                },
            };
        }
    };

    // What the tick verified goes out first (audit log before wire, as
    // in every tick), then the connection's last word.
    flush_tick(
        &mut stream,
        &mut outbuf,
        &mut tick,
        counters,
        obs.as_ref(),
        shared.audit.as_ref(),
    );
    match exit {
        Exit::Park {
            token_id,
            device,
            session,
        } => park_session(shared, token_id, device, session),
        Exit::Error(code, msg) => send_error(&mut stream, counters, code, &msg),
        Exit::Gone => {}
    }
}

/// Commits the tick's observability deltas and flushes the batched
/// verdict/challenge frames in one write. Returns `false` when the
/// write failed (the connection is gone).
///
/// With the telemetry plane on, the tick's verified rounds are
/// finalized *after* the write lands: a round's end-to-end latency
/// runs challenge issue → verdict on the wire, so the flush itself is
/// the last span of every round in the batch.
fn flush_tick(
    stream: &mut TcpStream,
    outbuf: &mut Vec<u8>,
    tick: &mut TickTally,
    counters: &Counters,
    obs: Option<&ConnObs<'_>>,
    audit: Option<&Mutex<AuditLog>>,
) -> bool {
    // Audit first: the batch lands in the chained log before the
    // verdicts reach the wire, so the log is never *behind* what a
    // client has seen. One lock + one write for the whole tick.
    if let Some(audit) = audit {
        if !tick.records.is_empty() {
            let appended = tick.records.len() as u64;
            let mut log = audit.lock().unwrap();
            for record in tick.records.drain(..) {
                log.append_record(&record);
            }
            if log.flush().is_ok() {
                rap_obs::counter!("serve_audit_records_total").add(appended);
            } else {
                rap_obs::counter!("serve_audit_append_errors_total").add(appended);
            }
        }
    }
    tick.commit(counters);
    let finalize = match obs {
        Some(o) if !tick.rounds.is_empty() => Some((o, Instant::now())),
        _ => None,
    };
    if !outbuf.is_empty() {
        let ok = stream
            .write_all(outbuf)
            .and_then(|()| stream.flush())
            .is_ok();
        outbuf.clear();
        if !ok {
            // The rounds in this batch never reached the wire; their
            // verdicts are lost with the connection, so no exemplars.
            tick.rounds.clear();
            return false;
        }
    }
    if let Some((o, flush_start)) = finalize {
        finalize_rounds(o, flush_start, &tick.rounds);
    }
    tick.rounds.clear();
    true
}

/// Post-flush round finalization: observe end-to-end latencies, update
/// the device aggregate row (one lock for the whole batch), and offer
/// each round to the slow-round exemplar ring with its four-stage span
/// tree.
fn finalize_rounds(obs: &ConnObs<'_>, flush_start: Instant, rounds: &[PendingRound]) {
    let flush_end = Instant::now();
    let flush_start_ns = rel_ns(obs.epoch, flush_start);
    let flush_dur_ns = flush_end.saturating_duration_since(flush_start).as_nanos() as u64;
    let total_of = |r: &PendingRound| -> u64 {
        flush_end.saturating_duration_since(r.issued_at).as_nanos() as u64
    };
    let hist = rap_obs::histogram!("serve_round_latency_ns", &rap_obs::ROUND_LATENCY_NS_BOUNDS);
    {
        let mut devices = obs.telemetry.devices.lock().unwrap();
        let agg = devices.touch(&obs.device);
        for r in rounds {
            agg.rounds += 1;
            if !r.accepted {
                agg.rejects += 1;
            }
            agg.observe(total_of(r));
        }
        agg.last_seen_ns = rel_ns(obs.epoch, flush_end);
    }
    for r in rounds {
        let total_ns = total_of(r);
        hist.observe(total_ns);
        obs.telemetry.rounds.record(total_ns, || RoundExemplar {
            trace_id: r.trace_id,
            device: obs.device.clone(),
            total_ns,
            accepted: r.accepted,
            accept_depth: obs.accept_depth,
            spans: vec![
                StageSpan {
                    trace_id: r.trace_id,
                    stage: "accept",
                    start_ns: obs.accept_start_ns,
                    dur_ns: obs.accept_dur_ns,
                },
                StageSpan {
                    trace_id: r.trace_id,
                    stage: "opener",
                    start_ns: obs.opener_start_ns,
                    dur_ns: obs.opener_dur_ns,
                },
                StageSpan {
                    trace_id: r.trace_id,
                    stage: "replay",
                    start_ns: rel_ns(obs.epoch, r.replay_start),
                    dur_ns: r.replay_ns,
                },
                StageSpan {
                    trace_id: r.trace_id,
                    stage: "flush",
                    start_ns: flush_start_ns,
                    dur_ns: flush_dur_ns,
                },
            ],
        });
    }
}

/// Payload cap for admin requests — both request types are tiny, so a
/// malformed or hostile scraper cannot make the admin thread allocate.
const ADMIN_MAX_FRAME_LEN: u32 = 4096;

/// Idle deadline per admin read: the single admin thread serves
/// scrapers sequentially, so a scraper that connects and goes silent
/// is dropped after one second to let the next one in (`rap top`
/// reconnects on every poll anyway).
const ADMIN_READ_TIMEOUT: Duration = Duration::from_secs(1);

/// The admin accept loop: blocks in `accept` like the main accept
/// loop, serves one scraper connection at a time, and is woken for
/// shutdown the same way (see [`wake_and_join`]).
fn admin_loop(listener: TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => serve_admin_conn(shared, stream),
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Answers `STATS`/`EXEMPLARS` requests on one admin connection until
/// the peer closes, goes idle past [`ADMIN_READ_TIMEOUT`], or sends
/// anything else (answered with a `Protocol` error).
fn serve_admin_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(ADMIN_READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut inbuf = FrameBuf::new(RECV_CHUNK);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (frame_type, payload) = match inbuf.read_frame(&mut stream, ADMIN_MAX_FRAME_LEN) {
            Ok(Some(frame)) => frame,
            // Clean close, idle timeout, or garbage: drop the scraper
            // and serve the next one.
            Ok(None) | Err(_) => return,
        };
        let reply = match frame_type {
            FrameType::Stats => match decode_stats_request(payload) {
                Ok(StatsFormat::Prometheus) => {
                    rap_obs::global().snapshot().to_prometheus().into_bytes()
                }
                Ok(StatsFormat::Json) => telemetry_json(shared).to_compact().into_bytes(),
                Err(e) => {
                    send_error(
                        &mut stream,
                        &shared.counters,
                        ErrorCode::Protocol,
                        &e.to_string(),
                    );
                    return;
                }
            },
            FrameType::Exemplars => exemplars_json(shared).to_compact().into_bytes(),
            _ => {
                send_error(
                    &mut stream,
                    &shared.counters,
                    ErrorCode::Protocol,
                    "expected STATS or EXEMPLARS",
                );
                return;
            }
        };
        if write_frame(&mut stream, frame_type, &reply).is_err() {
            return;
        }
        rap_obs::counter!("serve_admin_scrapes_total").inc();
    }
}

/// The `STATS` (JSON format) response: uptime, the server's own
/// counters, the full metrics snapshot (same source as the Prometheus
/// rendering, so the two renderings agree on any quiesced counter),
/// and the per-device aggregate table, name-sorted.
fn telemetry_json(shared: &Shared) -> Json {
    let stats = shared.counters.snapshot();
    let snap = rap_obs::global().snapshot();
    let devices = match &shared.telemetry {
        Some(t) => {
            let table = t.devices.lock().unwrap();
            let mut rows: Vec<(&String, &DeviceAgg)> = table.iter().collect();
            rows.sort_by_key(|(name, _)| *name);
            Json::Obj(
                rows.into_iter()
                    .map(|(name, agg)| {
                        (
                            name.clone(),
                            Json::obj([
                                ("rounds", Json::Uint(agg.rounds)),
                                ("rejects", Json::Uint(agg.rejects)),
                                ("resumes", Json::Uint(agg.resumes)),
                                ("last_seen_ns", Json::Uint(agg.last_seen_ns)),
                                ("p99_ns", Json::Uint(agg.p99_ns())),
                            ]),
                        )
                    })
                    .collect(),
            )
        }
        None => Json::Obj(Vec::new()),
    };
    let mut extra = match &shared.config.admin_extra {
        Some(provider) => (provider.0)(),
        None => Vec::new(),
    };
    let mut out = Json::obj([
        (
            "uptime_ns",
            Json::Uint(shared.epoch.elapsed().as_nanos() as u64),
        ),
        (
            "server",
            Json::obj([
                ("accepted", Json::Uint(stats.accepted)),
                ("shed", Json::Uint(stats.shed)),
                ("resumed", Json::Uint(stats.resumed)),
                ("resume_rejected", Json::Uint(stats.resume_rejected)),
                ("verdicts_accepted", Json::Uint(stats.verdicts_accepted)),
                ("verdicts_rejected", Json::Uint(stats.verdicts_rejected)),
                ("errors_sent", Json::Uint(stats.errors_sent)),
                ("error_send_failed", Json::Uint(stats.error_send_failed)),
            ]),
        ),
        ("metrics", snap.to_json()),
        ("devices", devices),
    ]);
    if !extra.is_empty() {
        if let Json::Obj(fields) = &mut out {
            fields.append(&mut extra);
        }
    }
    out
}

/// The `EXEMPLARS` response: the slow-round ring as JSON.
fn exemplars_json(shared: &Shared) -> Json {
    match &shared.telemetry {
        Some(t) => t.rounds.to_json(),
        None => Json::Obj(Vec::new()),
    }
}

/// Sends one `ERROR` frame, counting it in `errors_sent` only when the
/// write actually flushed; failures (the peer is already gone) are
/// counted separately in `error_send_failed`.
fn send_error(w: &mut impl Write, counters: &Counters, code: ErrorCode, msg: &str) {
    let bytes = encode_frame(FrameType::Error, &encode_error(code, msg));
    match w.write_all(&bytes).and_then(|()| w.flush()) {
        Ok(()) => {
            counters.errors_sent.fetch_add(1, Ordering::Relaxed);
            rap_obs::counter!("serve_errors_tx_total").inc();
        }
        Err(_) => {
            counters.error_send_failed.fetch_add(1, Ordering::Relaxed);
            rap_obs::counter!("serve_errors_tx_failed_total").inc();
        }
    }
}

/// The `ERROR` a failed frame read is answered with.
fn read_error(e: ReadFrameError) -> Exit {
    let code = match &e {
        ReadFrameError::Frame(FrameError::Oversized { .. }) => ErrorCode::Oversized,
        ReadFrameError::Frame(_) => ErrorCode::Protocol,
        ReadFrameError::Io(io) if timed_out(io) => {
            return Exit::Error(ErrorCode::Timeout, "read deadline expired".into())
        }
        ReadFrameError::Io(_) => ErrorCode::Internal,
    };
    Exit::Error(code, e.to_string())
}

/// Whether a read failed at its deadline.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose writes always fail — exercises the send_error
    /// accounting deterministically, without a socket.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "peer gone",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_error_counts_only_flushed_frames() {
        let counters = Counters::default();
        let mut ok_sink = Vec::new();
        send_error(&mut ok_sink, &counters, ErrorCode::Busy, "later");
        assert_eq!(counters.errors_sent.load(Ordering::Relaxed), 1);
        assert_eq!(counters.error_send_failed.load(Ordering::Relaxed), 0);
        assert!(!ok_sink.is_empty(), "the frame reached the sink");

        send_error(&mut BrokenPipe, &counters, ErrorCode::Busy, "later");
        assert_eq!(
            counters.errors_sent.load(Ordering::Relaxed),
            1,
            "a failed write must not count as sent"
        );
        assert_eq!(counters.error_send_failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn resume_token_macs_bind_id_and_device() {
        let t = mint_token(b"secret", 7, "device-a");
        assert_eq!(t, mint_token(b"secret", 7, "device-a"));
        assert_ne!(t.mac, mint_token(b"secret", 8, "device-a").mac);
        assert_ne!(t.mac, mint_token(b"secret", 7, "device-b").mac);
        assert_ne!(t.mac, mint_token(b"other", 7, "device-a").mac);
    }

    #[test]
    fn resume_token_is_hmac_of_secret_id_and_device() {
        // Pins the token bytes on the wire: HMAC(domain, secret ‖ id ‖
        // device), with the id little-endian.
        let mut msg = b"secret".to_vec();
        msg.extend_from_slice(&7u64.to_le_bytes());
        msg.extend_from_slice(b"device-a");
        let expected = rap_crypto::hmac_sha256(b"RAP-SERVE-RESUME", &msg);
        assert_eq!(mint_token(b"secret", 7, "device-a").mac, expected);
    }

    #[test]
    fn empty_secret_is_rejected_before_binding() {
        // ServerConfig::default() deliberately ships no secret; the
        // typed error fires before any socket work. A full Verifier is
        // not needed to hit the check, but start() takes one — so this
        // lives here with a minimal image via the test-only helper in
        // loopback tests; instead we just assert on the config shape.
        assert!(ServerConfig::default().session_secret.is_empty());
    }
}
