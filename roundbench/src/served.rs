//! The served run: an in-process `rap_serve::Server` on loopback,
//! driven by closed-loop device threads through the client API.
//!
//! A run is a series of trials. Each trial sets the server up from the
//! generated artifacts, as `rap serve` does, until the first verdict on
//! every connection; then every connection runs a fixed number of timed
//! rounds; then the server shuts down and the trial's ground truth is
//! checked. Trials repeat until the timed phases add up to the run's
//! length.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rap_audit::ChainVerifier;
use rap_serve::frame::{decode_challenge, decode_error};
use rap_serve::{
    AttestClient, ClientConfig, Connection, FrameType, ResumeToken, Server, ServerConfig, Verdict,
};
use rap_track::{Challenge, Verifier};

use crate::alloc_count::process_allocs;
use crate::inputs::{Inputs, PREFILL_RECORDS};
use crate::sys;

/// Device connections driven at once, each on its own client thread:
/// one per vCPU of the 2-vCPU host the benchmark was sized on.
const CONNECTIONS: usize = 2;

/// How long the shard-routing guard waits for a SESSION grant before it
/// concludes that the device shares a shard with a held connection.
const GUARD_WAIT: Duration = Duration::from_millis(300);

/// Candidate device ids the guard tries before giving up.
const GUARD_CANDIDATES: usize = 64;

/// Rejection kinds decided before replay: MAC, stream, dictionary,
/// wire and session failures. A forged round must not end in one.
const NOT_REPLAY: [&str; 11] = [
    "BadTag",
    "BadReportStream",
    "HMemMismatch",
    "ChallengeMismatch",
    "EvidenceLost",
    "UnknownDictId",
    "DictImageMismatch",
    "DictUnavailable",
    "wire",
    "no-outstanding-challenge",
    "challenge-reused",
];

/// Distinct failure causes kept for the report.
const MAX_CAUSES: usize = 8;

/// Timings of one set-up, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Artifact load to the first verdict on every connection.
    pub total_ns: u64,
    /// Loading the artifacts and building the verifier.
    pub verifier_build_ns: u64,
    /// `Server::start`, which opens (and re-scans) the audit log.
    pub server_start_ns: u64,
    /// Connecting every device and its first round.
    pub first_round_ns: u64,
}

/// Work and resources of one trial's timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Verdicts received.
    pub rounds: u64,
    /// Wall time.
    pub wall_ns: u64,
    /// Process CPU time (user + system).
    pub cpu_ns: u64,
    /// Process heap allocations.
    pub allocs: u64,
    /// Process context switches.
    pub ctx_switches: u64,
    /// Process minor page faults.
    pub minor_faults: u64,
    /// Change of the resident set.
    pub rss_growth: i64,
    /// Shed connections, rejected resumes and client retries over the
    /// whole trial.
    pub retries: u64,
}

/// What device threads saw and did.
#[derive(Debug, Default)]
pub struct Tally {
    /// ATTEST frames sent.
    pub attempted: u64,
    /// Rounds that failed or contradicted ground truth.
    pub failed: u64,
    /// Forged rounds sent.
    pub forged: u64,
    /// Unforged rounds sent.
    pub benign: u64,
    /// ATTEST written to VERDICT read (connect to VERDICT on a
    /// reconnecting workload).
    pub latencies_ns: Vec<u64>,
    /// Connect to the first CHALLENGE.
    pub connect_ns: Vec<u64>,
    /// ATTEST payload bytes sent.
    pub wire_bytes: u64,
    /// Time spent producing evidence (device emulation).
    pub respond_ns: u64,
    /// CHALLENGE frames the device read (a reconnecting device closes
    /// without reading what follows its verdict).
    pub challenges: u64,
    /// First distinct failure causes.
    pub causes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, rounds: u64, cause: String) {
        self.failed += rounds;
        if self.causes.len() < MAX_CAUSES && !self.causes.contains(&cause) {
            self.causes.push(cause);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.forged += other.forged;
        self.benign += other.benign;
        self.latencies_ns.extend(other.latencies_ns);
        self.connect_ns.extend(other.connect_ns);
        self.wire_bytes += other.wire_bytes;
        self.respond_ns += other.respond_ns;
        self.challenges += other.challenges;
        for cause in other.causes {
            self.fail(0, cause);
        }
        self.failed += other.failed;
    }

    /// Checks a verdict against the round's ground truth.
    fn judge(&mut self, inputs: &Inputs, variant: usize, verdict: &Verdict) {
        let cause = if variant == 0 {
            if !verdict.accepted {
                Some(format!("unforged round rejected: {}", verdict.detail))
            } else if (verdict.events, verdict.steps) != inputs.expected {
                Some(format!(
                    "unforged round replayed {} events / {} steps, expected {:?}",
                    verdict.events, verdict.steps, inputs.expected
                ))
            } else {
                None
            }
        } else if verdict.accepted {
            Some("forged round accepted".to_string())
        } else if !verdict.detail.starts_with("violation: ") {
            Some(format!(
                "forged round rejected before replay: {}",
                verdict.detail
            ))
        } else {
            None
        };
        if let Some(cause) = cause {
            self.fail(1, cause);
        }
    }
}

/// Everything the served run measured.
#[derive(Debug, Default)]
pub struct ServedRun {
    /// Device ids the connections used.
    pub devices: Vec<String>,
    /// Seeded device ids the shard-routing guard passed over.
    pub guard_skips: u64,
    /// One per trial.
    pub setups: Vec<Setup>,
    /// One per trial.
    pub trials: Vec<Trial>,
    /// The timed phases' device tallies, merged.
    pub timed: Tally,
    /// Set-up rounds and end-of-trial checks.
    pub other: Tally,
    /// Peak resident set at the end of the first timed phase.
    pub peak_rss_bytes: u64,
}

/// One device's connection state between rounds.
struct Link {
    conn: Option<Connection>,
    token: Option<ResumeToken>,
    pending: VecDeque<Challenge>,
    /// Timed rounds sent so far: the index into the forgery schedule.
    next_round: u64,
}

enum Incoming {
    Challenge(Challenge),
    Verdict(Verdict),
}

fn next_frame(conn: &mut Connection) -> Result<Incoming, String> {
    match conn.read_next() {
        Ok((FrameType::Challenge, payload)) => decode_challenge(&payload)
            .map(Incoming::Challenge)
            .map_err(|e| format!("bad CHALLENGE: {e}")),
        Ok((FrameType::Verdict, payload)) => Verdict::decode(&payload)
            .map(Incoming::Verdict)
            .map_err(|e| format!("bad VERDICT: {e}")),
        Ok((FrameType::Error, payload)) => Err(match decode_error(&payload) {
            Ok((code, msg)) => format!("server error ({code}): {msg}"),
            Err(e) => format!("bad ERROR frame: {e}"),
        }),
        Ok((other, _)) => Err(format!("unexpected {other:?} frame")),
        Err(e) => Err(format!("client: {e}")),
    }
}

fn read_challenge(conn: &mut Connection, tally: &mut Tally) -> Result<Challenge, String> {
    match next_frame(conn)? {
        Incoming::Challenge(chal) => {
            tally.challenges += 1;
            Ok(chal)
        }
        Incoming::Verdict(_) => Err("VERDICT before any CHALLENGE".to_string()),
    }
}

fn read_verdict(
    conn: &mut Connection,
    pending: &mut VecDeque<Challenge>,
    tally: &mut Tally,
) -> Result<Verdict, String> {
    loop {
        match next_frame(conn)? {
            Incoming::Challenge(chal) => {
                tally.challenges += 1;
                pending.push_back(chal);
            }
            Incoming::Verdict(verdict) => return Ok(verdict),
        }
    }
}

/// Produces and sends one ATTEST; returns when it was written.
fn send_round(
    inputs: &Inputs,
    conn: &mut Connection,
    chal: Challenge,
    variant: usize,
    tally: &mut Tally,
) -> Result<Instant, String> {
    let started = Instant::now();
    let (frame, payload_len) = inputs.device.attest_frame(chal, variant);
    tally.respond_ns += started.elapsed().as_nanos() as u64;
    tally.wire_bytes += payload_len as u64;
    tally.attempted += 1;
    if variant == 0 {
        tally.benign += 1;
    } else {
        tally.forged += 1;
    }
    let sent_at = Instant::now();
    conn.send_raw(&frame)
        .map_err(|e| format!("send ATTEST: {e}"))?;
    Ok(sent_at)
}

/// Closed loop on one persistent connection with up to the granted
/// window of rounds in flight.
fn run_persistent(inputs: &Inputs, conn_index: usize, link: &mut Link, rounds: u64, t: &mut Tally) {
    let conn = link
        .conn
        .as_mut()
        .expect("a persistent link keeps its connection");
    let window = usize::from(conn.granted_window().max(1));
    let mut inflight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(window);
    let (mut sent, mut done) = (0u64, 0u64);
    while done < rounds {
        while sent < rounds && inflight.len() < window {
            let Some(chal) = link.pending.pop_front() else {
                break;
            };
            let variant = inputs.variant(conn_index, link.next_round);
            link.next_round += 1;
            sent += 1;
            match send_round(inputs, conn, chal, variant, t) {
                Ok(at) => inflight.push_back((at, variant)),
                Err(cause) => return t.fail(inflight.len() as u64 + 1, cause),
            }
        }
        match next_frame(conn) {
            Ok(Incoming::Challenge(chal)) => {
                t.challenges += 1;
                link.pending.push_back(chal);
            }
            Ok(Incoming::Verdict(verdict)) => {
                let Some((sent_at, variant)) = inflight.pop_front() else {
                    return t.fail(1, "VERDICT with no round in flight".to_string());
                };
                t.latencies_ns.push(sent_at.elapsed().as_nanos() as u64);
                t.judge(inputs, variant, &verdict);
                done += 1;
            }
            Err(cause) => return t.fail(inflight.len() as u64, cause),
        }
    }
}

/// One new connection per round, each resuming the device's session
/// with the token the previous one was granted.
fn run_reconnect(
    inputs: &Inputs,
    client: &AttestClient,
    device: &str,
    conn_index: usize,
    link: &mut Link,
    rounds: u64,
    t: &mut Tally,
) {
    for _ in 0..rounds {
        let Some(token) = link.token.take() else {
            return t.fail(0, "no resumption token".to_string());
        };
        let started = Instant::now();
        let round = (|| {
            let mut conn = client
                .resume(device, token)
                .map_err(|e| format!("resume: {e}"))?;
            let chal = read_challenge(&mut conn, t)?;
            t.connect_ns.push(started.elapsed().as_nanos() as u64);
            let variant = inputs.variant(conn_index, link.next_round);
            link.next_round += 1;
            send_round(inputs, &mut conn, chal, variant, t)?;
            let verdict = read_verdict(&mut conn, &mut link.pending, t)?;
            t.latencies_ns.push(started.elapsed().as_nanos() as u64);
            t.judge(inputs, variant, &verdict);
            // `close` drains whatever the server sends after the verdict.
            link.token = conn.close();
            Ok::<(), String>(())
        })();
        if let Err(cause) = round {
            return t.fail(1, cause);
        }
    }
}

fn server_config(inputs: &Inputs, audit_log: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        session_secret: inputs.session_secret.clone(),
        audit_log,
        ..ServerConfig::default()
    }
}

fn client_config(inputs: &Inputs) -> ClientConfig {
    ClientConfig {
        window: inputs.spec.window,
        jitter_seed: inputs.seed,
        ..ClientConfig::default()
    }
}

fn client_retries() -> u64 {
    rap_obs::global()
        .counter("serve_client_retries_total")
        .get()
}

/// The shard-routing guard. A shard worker holds one connection until
/// it closes, so two devices routed to one shard would serialise. Takes
/// seeded device ids in order and keeps one only if its SESSION grant
/// arrives while every kept device's connection is still open.
fn pick_devices(inputs: &Inputs) -> Result<(Vec<String>, u64), String> {
    let verifier = inputs.artifacts.load_verifier(&inputs.key)?;
    let server = Server::start(verifier, "127.0.0.1:0", server_config(inputs, None))
        .map_err(|e| format!("probe server: {e}"))?;
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            read_timeout: GUARD_WAIT,
            ..client_config(inputs)
        },
    );
    let (mut chosen, mut held, mut skips) = (Vec::new(), Vec::new(), 0u64);
    for id in inputs.device_ids().take(GUARD_CANDIDATES) {
        let mut conn = client.open(&id).map_err(|e| format!("probe open: {e}"))?;
        if read_challenge(&mut conn, &mut Tally::default()).is_ok() {
            chosen.push(id);
            held.push(conn);
            if chosen.len() == CONNECTIONS {
                break;
            }
        } else {
            skips += 1;
        }
    }
    for conn in held {
        conn.close();
    }
    server.shutdown();
    if chosen.len() < CONNECTIONS {
        return Err(format!(
            "shard-routing guard: no {CONNECTIONS} devices on distinct shards in {GUARD_CANDIDATES} ids"
        ));
    }
    Ok((chosen, skips))
}

/// A server set up to the first verdict on every connection.
struct Ready {
    server: Server,
    verifier: Verifier,
    client: AttestClient,
    links: Vec<Link>,
}

fn set_up(
    inputs: &Inputs,
    devices: &[String],
    audit_log: Option<PathBuf>,
    tally: &mut Tally,
) -> Result<(Ready, Setup), String> {
    let t0 = Instant::now();
    let verifier = inputs.artifacts.load_verifier(&inputs.key)?;
    let built = Instant::now();
    let server = Server::start(
        verifier.clone(),
        "127.0.0.1:0",
        server_config(inputs, audit_log),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let started = Instant::now();
    let client = AttestClient::new(server.local_addr().to_string(), client_config(inputs));

    // Every connection holds its SESSION grant (read ahead of the first
    // CHALLENGE) before any ATTEST is sent.
    let mut links = Vec::with_capacity(devices.len());
    for device in devices {
        let connect = Instant::now();
        let mut conn = client.open(device).map_err(|e| format!("open: {e}"))?;
        let chal = read_challenge(&mut conn, tally)?;
        tally.connect_ns.push(connect.elapsed().as_nanos() as u64);
        links.push(Link {
            conn: Some(conn),
            token: None,
            pending: VecDeque::from([chal]),
            next_round: 0,
        });
    }
    for link in &mut links {
        let conn = link.conn.as_mut().expect("set-up link is connected");
        let chal = link.pending.pop_front().expect("first challenge read");
        send_round(inputs, conn, chal, 0, tally)?;
        let verdict = read_verdict(conn, &mut link.pending, tally)?;
        tally.judge(inputs, 0, &verdict);
        if inputs.spec.reconnect {
            link.token = link.conn.take().and_then(Connection::close);
            link.pending.clear();
        }
    }
    let done = Instant::now();
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    let setup = Setup {
        total_ns: ns(t0, done),
        verifier_build_ns: ns(t0, built),
        server_start_ns: ns(built, started),
        first_round_ns: ns(started, done),
    };
    Ok((
        Ready {
            server,
            verifier,
            client,
            links,
        },
        setup,
    ))
}

/// Runs trials until their timed phases add up to `seconds`.
///
/// # Errors
///
/// Set-up failures; failed rounds are counted, not returned.
pub fn run(inputs: &Inputs, seconds: f64) -> Result<ServedRun, String> {
    let (devices, guard_skips) = pick_devices(inputs)?;
    let mut run = ServedRun {
        devices,
        guard_skips,
        ..ServedRun::default()
    };
    let mut timed_ns = 0u64;
    while run.trials.is_empty() || (timed_ns as f64) < seconds * 1e9 {
        trial(inputs, &mut run)?;
        timed_ns += run.trials.last().map_or(0, |t| t.wall_ns);
    }
    Ok(run)
}

fn trial(inputs: &Inputs, run: &mut ServedRun) -> Result<(), String> {
    let audit_log = match &inputs.audit_template {
        Some(template) => {
            let path = inputs.dir.join("served.ralog");
            std::fs::copy(template, &path).map_err(|e| format!("copy audit log: {e}"))?;
            Some(path)
        }
        None => None,
    };
    let retries_before = client_retries();
    let mut other = Tally::default();
    let (mut ready, setup) = set_up(inputs, &run.devices, audit_log.clone(), &mut other)?;
    run.setups.push(setup);

    let rounds = inputs.spec.trial_rounds;
    let barrier = Barrier::new(ready.links.len() + 1);
    let (phase, tallies) = std::thread::scope(|s| {
        let handles: Vec<_> = ready
            .links
            .iter_mut()
            .enumerate()
            .map(|(c, link)| {
                let (barrier, client, device) = (&barrier, &ready.client, &run.devices[c]);
                s.spawn(move || {
                    let mut t = Tally::default();
                    barrier.wait();
                    if inputs.spec.reconnect {
                        run_reconnect(inputs, client, device, c, link, rounds, &mut t);
                    } else {
                        run_persistent(inputs, c, link, rounds, &mut t);
                    }
                    t
                })
            })
            .collect();
        let rss0 = sys::rss_bytes();
        barrier.wait();
        let (allocs0, usage0, t0) = (process_allocs(), sys::usage(), Instant::now());
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("device thread panicked"))
            .collect();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let (usage1, allocs1) = (sys::usage(), process_allocs());
        let rss1 = sys::rss_bytes();
        let phase = Trial {
            rounds: tallies.iter().map(|t| t.latencies_ns.len() as u64).sum(),
            wall_ns,
            cpu_ns: usage1.cpu_ns - usage0.cpu_ns,
            allocs: allocs1 - allocs0,
            ctx_switches: usage1.ctx_switches - usage0.ctx_switches,
            minor_faults: usage1.minor_faults - usage0.minor_faults,
            rss_growth: rss1 as i64 - rss0 as i64,
            retries: 0,
        };
        (phase, tallies)
    });
    if run.trials.is_empty() {
        run.peak_rss_bytes = sys::peak_rss_bytes();
    }

    let mut timed = Tally::default();
    for t in tallies {
        timed.merge(t);
    }
    for link in ready.links.drain(..) {
        if let Some(conn) = link.conn {
            conn.close();
        }
    }
    let stats = ready.server.shutdown();
    let forged = timed.forged + other.forged;
    let benign = timed.benign + other.benign;
    if timed.failed + other.failed == 0
        && (stats.verdicts_rejected != forged || stats.verdicts_accepted != benign)
    {
        other.fail(
            (stats.verdicts_rejected.abs_diff(forged) + stats.verdicts_accepted.abs_diff(benign))
                .max(1),
            format!(
                "server counted {} accepted / {} rejected, {benign} unforged / {forged} forged sent",
                stats.verdicts_accepted, stats.verdicts_rejected
            ),
        );
    }
    if let Some(path) = &audit_log {
        check_audit(
            inputs,
            path,
            &ready.verifier,
            &run.devices,
            forged + benign,
            &mut other,
        );
        std::fs::remove_file(path).map_err(|e| format!("remove audit log: {e}"))?;
    }

    run.trials.push(Trial {
        retries: stats.shed + stats.resume_rejected + (client_retries() - retries_before),
        ..phase
    });
    run.timed.merge(timed);
    run.other.merge(other);
    Ok(())
}

/// The audit log verifies under the verifier's seal key, holds the
/// pre-filled plus every served record, and each served record agrees
/// with the forgery schedule; forged ones were rejected in replay.
fn check_audit(
    inputs: &Inputs,
    path: &Path,
    verifier: &Verifier,
    devices: &[String],
    served: u64,
    tally: &mut Tally,
) {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => return tally.fail(served, format!("read audit log: {e}")),
    };
    let (entries, report) = ChainVerifier::with_seal_key(verifier.verdict_seal_key()).scan(&bytes);
    if !report.ok() || report.entries != PREFILL_RECORDS + served {
        return tally.fail(
            served,
            format!(
                "audit log: {} entries for {PREFILL_RECORDS} pre-filled + {served} served, break {:?}",
                report.entries, report.first_break
            ),
        );
    }
    for entry in entries.iter().skip(PREFILL_RECORDS as usize) {
        let f = &entry.record.fields;
        let Some(conn) = devices.iter().position(|d| *d == f.device) else {
            tally.fail(1, format!("audit record for unknown device {}", f.device));
            continue;
        };
        // Sequence 1 is the set-up round; timed round `k` is `k + 2`.
        let variant = if f.seq < 2 {
            0
        } else {
            inputs.variant(conn, f.seq - 2)
        };
        if f.accepted != (variant == 0) {
            tally.fail(
                1,
                format!(
                    "audit record {} seq {} contradicts the schedule",
                    f.device, f.seq
                ),
            );
        } else if !f.accepted && NOT_REPLAY.contains(&f.kind.as_str()) {
            tally.fail(1, format!("forged round rejected as {}", f.kind));
        }
    }
}
