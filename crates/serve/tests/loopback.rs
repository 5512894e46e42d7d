//! Loopback integration tests: real TCP connections on 127.0.0.1
//! against a real [`Server`], covering benign devices, attack
//! workloads, malformed and oversized frames, slow-loris partial
//! writes, busy shedding, concurrent mixed clients, and
//! drain-during-load. Every failure mode must surface as a typed
//! verdict or error — no connection ever observes a panic or an
//! unbounded hang.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rap_obs::Json;
use rap_serve::frame::{
    decode_error, decode_frame, encode_frame, encode_hello, encode_stats_request,
    DEFAULT_MAX_FRAME_LEN,
};
use rap_serve::{
    AdminClient, AttestClient, ClientConfig, ClientError, ErrorCode, FrameType, Server,
    ServerConfig, StartError, StatsFormat,
};
use rap_track::{CfaEngine, Challenge, EngineConfig, Key, Report, Verifier};

/// A [`ServerConfig`] with the test secret set — the default ships an
/// empty secret on purpose and [`Server::start`] rejects it.
fn test_config() -> ServerConfig {
    ServerConfig {
        session_secret: b"loopback-test-secret".to_vec(),
        ..ServerConfig::default()
    }
}

/// The deployed application every test device runs: the `fibcall`
/// evaluation workload (calls + a runtime-variable loop, so the
/// CF_Log is non-trivial but verification stays fast).
fn deployed() -> (rap_link::LinkedProgram, workloads::Workload) {
    let w = workloads::by_name("fibcall").expect("fibcall workload exists");
    let linked =
        rap_link::link(&w.module, 0, rap_link::LinkOptions::default()).expect("workload links");
    (linked, w)
}

fn test_key() -> Key {
    rap_track::device_key("loopback")
}

fn test_verifier(linked: &rap_link::LinkedProgram) -> Verifier {
    Verifier::builder()
        .key(test_key())
        .image(linked.image.clone())
        .map(linked.map.clone())
        .build()
        .expect("all builder fields set")
}

/// Produces a benign signed report stream for `chal`.
fn respond_benign(
    linked: &rap_link::LinkedProgram,
    w: &workloads::Workload,
) -> impl Fn(Challenge) -> Vec<Report> {
    let linked = linked.clone();
    let attach = w.attach;
    let max_instrs = w.max_instrs;
    move |chal| {
        let engine = CfaEngine::new(test_key());
        let mut machine = mcu_sim::Machine::new(linked.image.clone());
        attach(&mut machine);
        engine
            .attest(
                &mut machine,
                &linked.map,
                chal,
                EngineConfig {
                    max_instrs: max_instrs * 2,
                    watermark: Some(256),
                },
            )
            .expect("benign attestation runs")
            .reports
    }
}

/// Produces a forged stream: the strongest adversary (holds the key)
/// redirects one MTB packet and re-signs — authentication passes,
/// replay must reject.
fn respond_forged(
    linked: &rap_link::LinkedProgram,
    w: &workloads::Workload,
) -> impl Fn(Challenge) -> Vec<Report> {
    let benign = respond_benign(linked, w);
    move |chal| {
        let mut reports = benign(chal);
        let seq = reports
            .iter()
            .position(|r| !r.log.mtb.is_empty())
            .expect("some report has MTB packets");
        let mut log = reports[seq].log.clone();
        log.mtb[0].dest ^= 0x40;
        reports[seq] = Report::new(
            &test_key(),
            chal,
            reports[seq].h_mem,
            log,
            seq as u32,
            reports[seq].is_final,
            reports[seq].overflow,
        );
        reports
    }
}

fn quick_client(addr: std::net::SocketAddr) -> AttestClient {
    AttestClient::new(
        addr.to_string(),
        ClientConfig {
            retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            read_timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    )
}

#[test]
fn benign_round_is_accepted() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = quick_client(server.local_addr());

    let verdict = client
        .attest_once("device-0", respond_benign(&linked, &w))
        .expect("round completes");
    assert!(verdict.accepted, "benign evidence accepted: {verdict:?}");
    assert!(verdict.events > 0, "path has events");
    assert!(verdict.steps > 0, "path has steps");

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.verdicts_accepted, 1);
    assert_eq!(stats.verdicts_rejected, 0);
}

#[test]
fn attack_round_is_rejected_with_typed_detail() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = quick_client(server.local_addr());

    let verdict = client
        .attest_once("attacker-0", respond_forged(&linked, &w))
        .expect("round completes (rejection is a verdict, not an error)");
    assert!(!verdict.accepted);
    assert!(
        verdict.detail.starts_with("violation: "),
        "typed violation detail, got {:?}",
        verdict.detail
    );

    let stats = server.shutdown();
    assert_eq!(stats.verdicts_rejected, 1);
}

#[test]
fn rounds_reuse_one_connection_with_fresh_nonces() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = quick_client(server.local_addr());

    let mut conn = client.open("device-0").expect("opens");
    let respond = respond_benign(&linked, &w);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..3 {
        let mut captured = None;
        let verdict = conn
            .round(|chal| {
                captured = Some(chal);
                respond(chal)
            })
            .expect("round completes");
        assert!(verdict.accepted);
        assert!(
            seen.insert(captured.expect("challenge captured").0),
            "nonce repeated across rounds"
        );
    }
    drop(conn);
    let stats = server.shutdown();
    assert_eq!(stats.verdicts_accepted, 3);
    assert_eq!(stats.accepted, 1, "one connection served all rounds");
}

#[test]
fn nonces_are_unique_across_connections() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = quick_client(server.local_addr());
    let respond = respond_benign(&linked, &w);

    let mut seen = std::collections::HashSet::new();
    for device in 0..4 {
        let mut captured = None;
        let verdict = client
            .attest_once(&format!("device-{device}"), |chal| {
                captured = Some(chal);
                respond(chal)
            })
            .expect("round completes");
        assert!(verdict.accepted);
        assert!(
            seen.insert(captured.expect("challenge captured").0),
            "nonce repeated across connections"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_attest_payload_gets_rejected_verdict() {
    let (linked, _w) = deployed();
    let verifier = test_verifier(&linked);
    let sink = RecordSink::default();
    let config = ServerConfig {
        round_hook: Some(recording_hook(&sink)),
        ..test_config()
    };
    let server = Server::start(verifier.clone(), "127.0.0.1:0", config).expect("binds");
    let client = quick_client(server.local_addr());

    let mut conn = client.open("garbler").expect("opens");
    let (ft, chal) = conn.read_next().expect("challenge arrives");
    assert_eq!(ft, FrameType::Challenge);
    // A well-formed frame whose payload is not a report stream.
    let payload = b"not a report stream";
    conn.send_raw(&encode_frame(FrameType::Attest, payload))
        .expect("writes");
    match conn.read_next().expect("verdict arrives") {
        (FrameType::Verdict, payload) => {
            let v = rap_serve::Verdict::decode(&payload).expect("verdict decodes");
            assert!(!v.accepted);
            assert!(v.detail.starts_with("wire: "), "got {:?}", v.detail);
        }
        other => panic!("expected verdict, got {other:?}"),
    }
    server.shutdown();

    // The sealed record binds the burned nonce and the bytes received,
    // and the payload never reached the verifier.
    let records = sink.lock().unwrap();
    let [(_, record)] = &records[..] else {
        panic!("one sealed record per ATTEST, got {}", records.len());
    };
    assert_eq!(record.fields.kind, "wire");
    assert_eq!(&record.fields.chal.0[..], &chal[..]);
    assert_eq!(record.fields.report_hash, rap_crypto::sha256(payload));
    assert!(record.authenticate(&verifier.verdict_seal_key()));
    assert_eq!(
        verifier.stats().jobs,
        0,
        "a garbage ATTEST is no verifier job"
    );
}

#[test]
fn bad_magic_and_oversized_frames_get_typed_errors() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            max_frame_len: 1024,
            ..test_config()
        },
    )
    .expect("binds");
    let client = quick_client(server.local_addr());

    // Bad magic after HELLO → protocol error, close.
    let mut conn = client.open("mangler").expect("opens");
    let _ = conn.read_next().expect("challenge arrives");
    conn.send_raw(b"XXXXXXXXXXXXXXXXXXXX").expect("writes");
    match conn.read_next().expect("error frame arrives") {
        (FrameType::Error, payload) => {
            let (code, _) = decode_error(&payload).expect("error decodes");
            assert_eq!(code, ErrorCode::Protocol);
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Oversized declared length → oversized error, close, before any
    // payload allocation.
    let mut conn = client.open("bloater").expect("opens");
    let _ = conn.read_next().expect("challenge arrives");
    let mut huge = encode_frame(FrameType::Attest, &[]);
    huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    conn.send_raw(&huge).expect("writes");
    match conn.read_next().expect("error frame arrives") {
        (FrameType::Error, payload) => {
            let (code, _) = decode_error(&payload).expect("error decodes");
            assert_eq!(code, ErrorCode::Oversized);
        }
        other => panic!("expected error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn slow_loris_partial_write_is_deadline_bounded() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(300),
            ..test_config()
        },
    )
    .expect("binds");
    let client = quick_client(server.local_addr());

    let started = Instant::now();
    let mut conn = client.open("loris").expect("opens");
    let _ = conn.read_next().expect("challenge arrives");
    // Half a header, then silence: the server must not wait forever.
    conn.send_raw(b"RAPS\x01").expect("writes");
    match conn.read_next().expect("error frame arrives") {
        (FrameType::Error, payload) => {
            let (code, _) = decode_error(&payload).expect("error decodes");
            assert_eq!(code, ErrorCode::Timeout);
        }
        other => panic!("expected timeout error, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout path must be deadline-bounded"
    );
    server.shutdown();
}

#[test]
fn overload_is_shed_with_busy() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            max_pending: 1,
            read_timeout: Duration::from_secs(5),
            ..test_config()
        },
    )
    .expect("binds");
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        },
    );

    // Occupy the single worker (it blocks reading our ATTEST)...
    let mut held = client.open("holder").expect("opens");
    let _ = held.read_next().expect("challenge arrives");
    std::thread::sleep(Duration::from_millis(50));
    // ...fill the queue with a second connection...
    let queued = client.open("waiter").expect("opens");
    std::thread::sleep(Duration::from_millis(50));
    // ...so a third is shed.
    let mut shed = client.open("shed").expect("TCP connect still succeeds");
    match shed.read_next() {
        Ok((FrameType::Error, payload)) => {
            let (code, _) = decode_error(&payload).expect("error decodes");
            assert_eq!(code, ErrorCode::Busy);
        }
        // The busy frame may race the close; a reset is also a shed.
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        other => panic!("expected busy shed, got {other:?}"),
    }

    // Close both held connections so the drain doesn't wait out the
    // read deadline.
    drop(queued);
    drop(held);
    let stats = server.shutdown();
    assert!(stats.shed >= 1, "at least one connection shed: {stats:?}");
}

/// FNV-1a of a device id: the hash a per-device worker router would
/// take modulo the worker count.
fn fnv1a(device: &str) -> u64 {
    device.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reads a fresh connection's first frame and returns how long it
/// took, asserting that it is a CHALLENGE.
fn time_to_first_challenge(client: &AttestClient, device: &str) -> Duration {
    let started = Instant::now();
    let mut conn = client.open(device).expect("opens");
    let first = conn.read_next();
    let waited = started.elapsed();
    assert!(
        matches!(first, Ok((FrameType::Challenge, _))),
        "{device}: expected a CHALLENGE, got {first:?} after {waited:?}"
    );
    waited
}

#[test]
fn devices_with_colliding_hashes_are_served_concurrently() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            read_timeout: Duration::from_secs(2),
            ..test_config()
        },
    )
    .expect("binds");
    let client = quick_client(server.local_addr());
    // Two ids that `FNV-1a(device) mod 2` would pin to the same worker.
    let first = "held-0";
    let second = (1..)
        .map(|i| format!("held-{i}"))
        .find(|d| fnv1a(d) % 2 == fnv1a(first) % 2)
        .expect("a colliding id exists");

    // The first device holds its connection open mid-session, so one
    // worker is blocked reading its ATTEST.
    let mut held = client.open(first).expect("opens");
    let (ft, _) = held.read_next().expect("challenge arrives");
    assert_eq!(ft, FrameType::Challenge);

    let waited = time_to_first_challenge(&client, &second);
    assert!(
        waited < Duration::from_millis(500),
        "{second} waited {waited:?} for its CHALLENGE while a worker sat idle"
    );

    drop(held);
    server.shutdown();
}

#[test]
fn silent_opener_does_not_delay_other_clients() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            read_timeout: Duration::from_secs(2),
            ..test_config()
        },
    )
    .expect("binds");
    // A raw TCP peer that connects and never sends HELLO or RESUME. Its
    // handshake completes before the client below connects, so the
    // server accepts and queues it first.
    let silent = std::net::TcpStream::connect(server.local_addr()).expect("connects");

    let waited = time_to_first_challenge(&quick_client(server.local_addr()), "prompt-0");
    assert!(
        waited < Duration::from_millis(500),
        "a silent peer delayed another client's CHALLENGE by {waited:?}"
    );

    drop(silent);
    server.shutdown();
}

#[test]
fn silent_peers_release_their_workers_at_the_opener_deadline() {
    let (linked, _w) = deployed();
    let config = ServerConfig {
        threads: 2,
        ..test_config()
    };
    assert_eq!(
        config.read_timeout,
        Duration::from_secs(5),
        "default deadline"
    );
    let server = Server::start(test_verifier(&linked), "127.0.0.1:0", config).expect("binds");
    // Two raw TCP peers that never send HELLO or RESUME: one per worker.
    let silent: Vec<_> = (0..2)
        .map(|_| std::net::TcpStream::connect(server.local_addr()).expect("connects"))
        .collect();

    let waited = time_to_first_challenge(&quick_client(server.local_addr()), "behind-silent");
    assert!(
        waited < Duration::from_secs(2),
        "two silent peers held both workers for {waited:?}"
    );

    drop(silent);
    server.shutdown();
}

#[test]
fn trickling_openers_release_their_workers_at_the_opener_deadline() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            ..test_config()
        },
    )
    .expect("binds");
    // Two raw TCP peers, one per worker, that send a HELLO one byte per
    // 300 ms: every read of the opener makes progress, so only a
    // deadline over the whole opener releases their workers.
    let hello = encode_frame(FrameType::Hello, &encode_hello(1, "trickler"));
    let stop = Arc::new(AtomicBool::new(false));
    let tricklers: Vec<_> = (0..2)
        .map(|_| {
            let mut peer = std::net::TcpStream::connect(server.local_addr()).expect("connects");
            let hello = hello.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for byte in hello.chunks(1) {
                    if stop.load(Ordering::SeqCst) || peer.write_all(byte).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(300));
                }
            })
        })
        .collect();

    let waited = time_to_first_challenge(&quick_client(server.local_addr()), "behind-tricklers");
    stop.store(true, Ordering::SeqCst);
    for trickler in tricklers {
        trickler.join().expect("trickler exits");
    }
    assert!(
        waited < Duration::from_secs(2),
        "two trickling peers held both workers for {waited:?}"
    );
    server.shutdown();
}

#[test]
fn frames_sent_with_the_opener_reach_the_round_loop() {
    let (linked, _w) = deployed();
    let read_timeout = Duration::from_secs(3);
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout,
            ..test_config()
        },
    )
    .expect("binds");
    let mut peer = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("sets deadline");
    // HELLO and an out-of-place STATS frame in one write: the opener's
    // read may take both, and the round loop must still see the STATS.
    let mut burst = encode_frame(FrameType::Hello, &encode_hello(1, "eager"));
    burst.extend_from_slice(&encode_frame(
        FrameType::Stats,
        &encode_stats_request(StatsFormat::Json),
    ));
    let started = Instant::now();
    peer.write_all(&burst).expect("writes");
    let mut wire = Vec::new();
    peer.read_to_end(&mut wire)
        .expect("server answers and closes");
    let answered = started.elapsed();

    let mut frames = Vec::new();
    let mut at = 0;
    while at < wire.len() {
        let (frame, used) = decode_frame(&wire[at..], DEFAULT_MAX_FRAME_LEN).expect("decodes");
        frames.push(frame);
        at += used;
    }
    let types: Vec<FrameType> = frames.iter().map(|f| f.frame_type).collect();
    assert_eq!(
        types,
        [FrameType::Session, FrameType::Challenge, FrameType::Error]
    );
    assert_eq!(
        decode_error(&frames[2].payload).expect("error decodes"),
        (ErrorCode::Protocol, "expected ATTEST".to_string())
    );
    assert!(
        answered < read_timeout / 3,
        "answered after {answered:?}: the STATS frame waited for the read deadline"
    );
    server.shutdown();
}

/// The acceptance-criteria test: 8 concurrent clients mixing benign,
/// attack, and malformed traffic; every client gets the correct typed
/// verdict, the server drains cleanly, and the whole thing is
/// deadline-bounded.
#[test]
fn eight_concurrent_mixed_clients_then_clean_drain() {
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            threads: 4,
            ..test_config()
        },
    )
    .expect("binds");
    let addr = server.local_addr();

    let benign_ok = AtomicU64::new(0);
    let attacks_rejected = AtomicU64::new(0);
    let malformed_rejected = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for i in 0..8u64 {
            let linked = &linked;
            let w = &w;
            let benign_ok = &benign_ok;
            let attacks_rejected = &attacks_rejected;
            let malformed_rejected = &malformed_rejected;
            scope.spawn(move || {
                let client = quick_client(addr);
                match i % 3 {
                    0 => {
                        let v = client
                            .attest_once(&format!("benign-{i}"), respond_benign(linked, w))
                            .expect("benign round completes");
                        assert!(v.accepted, "client {i}: {v:?}");
                        benign_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    1 => {
                        let v = client
                            .attest_once(&format!("attacker-{i}"), respond_forged(linked, w))
                            .expect("attack round completes");
                        assert!(!v.accepted, "client {i}: forged evidence must reject");
                        assert!(v.detail.starts_with("violation: "), "client {i}: {v:?}");
                        attacks_rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        let mut conn = client.open(&format!("garbler-{i}")).expect("opens");
                        let (ft, _) = conn.read_next().expect("challenge arrives");
                        assert_eq!(ft, FrameType::Challenge);
                        conn.send_raw(&encode_frame(FrameType::Attest, &[0xEE; 40]))
                            .expect("writes");
                        match conn.read_next().expect("verdict arrives") {
                            (FrameType::Verdict, payload) => {
                                let v = rap_serve::Verdict::decode(&payload).unwrap();
                                assert!(!v.accepted, "client {i}: garbage must reject");
                                assert!(v.detail.starts_with("wire: "), "client {i}: {v:?}");
                            }
                            other => panic!("client {i}: expected verdict, got {other:?}"),
                        }
                        malformed_rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let started = Instant::now();
    let stats = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain must be deadline-bounded"
    );
    assert_eq!(benign_ok.load(Ordering::Relaxed), 3);
    assert_eq!(attacks_rejected.load(Ordering::Relaxed), 3);
    assert_eq!(malformed_rejected.load(Ordering::Relaxed), 2);
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.verdicts_accepted, 3);
    assert_eq!(stats.verdicts_rejected, 5);
}

#[test]
fn drain_during_load_finishes_inflight_rounds() {
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            read_timeout: Duration::from_secs(2),
            ..test_config()
        },
    )
    .expect("binds");
    let addr = server.local_addr();

    let completed = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for i in 0..3u64 {
            let linked = &linked;
            let w = &w;
            let completed = &completed;
            scope.spawn(move || {
                let client = AttestClient::new(
                    addr.to_string(),
                    ClientConfig {
                        retries: 0,
                        read_timeout: Duration::from_secs(5),
                        ..ClientConfig::default()
                    },
                );
                let respond = respond_benign(linked, w);
                // Keep attesting until the server goes away.
                for _ in 0..200 {
                    match client.attest_once(&format!("load-{i}"), &respond) {
                        Ok(v) => {
                            assert!(v.accepted);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server { code, .. }) => {
                            assert!(
                                code == ErrorCode::Draining || code == ErrorCode::Busy,
                                "unexpected server error {code}"
                            );
                            break;
                        }
                        Err(_) => break, // refused/reset after drain
                    }
                }
            });
        }

        // Let some rounds complete, then drain under load.
        while completed.load(Ordering::Relaxed) < 2 {
            std::thread::sleep(Duration::from_millis(10));
        }
        let started = Instant::now();
        let stats = server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "drain under load must be deadline-bounded"
        );
        // Rounds finished before and during the drain — nothing was
        // dropped mid-verification.
        assert!(
            stats.verdicts_accepted >= 2,
            "rounds completed before and during drain: {stats:?}"
        );
    });

    assert!(completed.load(Ordering::Relaxed) >= 2);
}

#[test]
fn conn_limit_drains_automatically() {
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            conn_limit: Some(2),
            ..test_config()
        },
    )
    .expect("binds");
    let addr = server.local_addr();
    let client = quick_client(addr);

    for i in 0..2 {
        let v = client
            .attest_once(&format!("device-{i}"), respond_benign(&linked, &w))
            .expect("round completes");
        assert!(v.accepted);
    }
    let stats = server.join();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.verdicts_accepted, 2);
}

/// Runs `f` on its own thread and fails unless it returns within
/// `limit`, so a shutdown that misses its wake fails the test instead
/// of hanging the suite.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} did not return within {limit:?}")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

#[test]
fn resumed_connections_get_their_first_challenge_without_an_accept_delay() {
    const CONNECTIONS: usize = 50;
    let (linked, _w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = quick_client(server.local_addr());
    let mut conn = client.open("reconnector").expect("opens");
    assert!(matches!(conn.read_next(), Ok((FrameType::Challenge, _))));
    let mut token = conn.close().expect("session grant carried a token");

    let mut waits = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let started = Instant::now();
        let mut conn = client.resume("reconnector", token).expect("resumes");
        let first = conn.read_next();
        waits.push(started.elapsed());
        assert!(
            matches!(first, Ok((FrameType::Challenge, _))),
            "expected a CHALLENGE, got {first:?}"
        );
        token = conn
            .close()
            .expect("a resumed session grants a fresh token");
    }
    waits.sort();
    let median = waits[CONNECTIONS / 2];
    // A blocked `accept` returns as the connection arrives; a sleep
    // poll made every new connection wait for its next tick (~2 ms).
    assert!(
        median < Duration::from_millis(1),
        "median connect to first CHALLENGE over {CONNECTIONS} resumed connections: \
         {median:?} (sorted: {waits:?})"
    );
    let stats = server.shutdown();
    assert_eq!(stats.resumed, CONNECTIONS as u64, "{stats:?}");
}

#[test]
fn idle_shutdown_with_an_admin_listener_returns_promptly() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        admin_config(Duration::from_millis(5)),
    )
    .expect("binds");
    assert!(server.admin_addr().is_some());
    let stats = within(Duration::from_secs(2), "shutdown()", move || {
        server.shutdown()
    });
    assert_eq!(stats.accepted, 0, "a wake is not a connection: {stats:?}");
}

#[test]
fn join_returns_at_conn_limit_with_an_admin_listener_bound() {
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            conn_limit: Some(1),
            ..admin_config(Duration::from_millis(5))
        },
    )
    .expect("binds");
    let v = quick_client(server.local_addr())
        .attest_once("limited", respond_benign(&linked, &w))
        .expect("round completes");
    assert!(v.accepted);
    let stats = within(Duration::from_secs(5), "join()", move || server.join());
    assert_eq!(
        (stats.accepted, stats.verdicts_accepted),
        (1, 1),
        "{stats:?}"
    );
}

#[test]
fn server_bound_to_the_unspecified_address_shuts_down() {
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "0.0.0.0:0",
        ServerConfig {
            admin_addr: Some("0.0.0.0:0".to_string()),
            ..test_config()
        },
    )
    .expect("binds");
    assert!(server.local_addr().ip().is_unspecified());
    let loopback = std::net::SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
    let v = quick_client(loopback)
        .attest_once("anywhere", respond_benign(&linked, &w))
        .expect("round completes");
    assert!(v.accepted);
    let stats = within(Duration::from_secs(2), "shutdown()", move || {
        server.shutdown()
    });
    assert_eq!(stats.accepted, 1, "{stats:?}");
}

#[test]
fn empty_session_secret_is_rejected_with_typed_error() {
    let (linked, _w) = deployed();
    // ServerConfig::default() deliberately ships an empty secret; a
    // server must refuse to start with it (forgeable nonce chains).
    match Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig::default(),
    ) {
        Err(StartError::EmptySecret) => {}
        Ok(_) => panic!("an empty session secret must be rejected"),
        Err(other) => panic!("expected EmptySecret, got {other:?}"),
    }
}

#[test]
fn pipelined_rounds_on_one_connection() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            window: 4,
            ..ClientConfig::default()
        },
    );

    let mut conn = client.open("pipeline-0").expect("opens");
    let respond = respond_benign(&linked, &w);
    let mut seen = std::collections::HashSet::new();
    let verdicts = conn
        .pipelined(8, |chal| {
            assert!(seen.insert(chal.0), "nonce repeated within the pipeline");
            respond(chal)
        })
        .expect("pipelined rounds complete");
    assert_eq!(verdicts.len(), 8);
    assert!(verdicts.iter().all(|v| v.accepted), "{verdicts:?}");
    assert_eq!(
        conn.granted_window(),
        4,
        "server grants the requested window"
    );
    drop(conn);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "one connection served all rounds");
    assert_eq!(stats.verdicts_accepted, 8);
    assert_eq!(stats.verdicts_rejected, 0);
}

#[test]
fn session_resumes_across_connections_without_rehello() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            window: 2,
            ..ClientConfig::default()
        },
    );
    let respond = respond_benign(&linked, &w);
    let mut seen = std::collections::HashSet::new();

    let mut conn = client.open("resumer").expect("opens");
    for v in conn
        .pipelined(2, |chal| {
            assert!(seen.insert(chal.0));
            respond(chal)
        })
        .expect("first connection rounds")
    {
        assert!(v.accepted);
    }
    let token = conn.close().expect("session grant carried a token");

    // Reconnect with the token: no HELLO, the nonce chain continues
    // (challenges stay unique across the resumed connections).
    let mut conn = client.resume("resumer", token).expect("resumes");
    for v in conn
        .pipelined(2, |chal| {
            assert!(seen.insert(chal.0), "resumed session repeated a nonce");
            respond(chal)
        })
        .expect("resumed connection rounds")
    {
        assert!(v.accepted);
    }
    let rotated = conn.close().expect("resumed session granted a fresh token");
    assert_ne!(rotated, token, "tokens rotate on every handshake");

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.resumed, 1);
    assert_eq!(stats.resume_rejected, 0);
    assert_eq!(stats.verdicts_accepted, 4);
}

#[test]
fn resume_token_replay_is_rejected() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = quick_client(server.local_addr());

    let mut conn = client.open("replayer").expect("opens");
    let v = conn.round(respond_benign(&linked, &w)).expect("round");
    assert!(v.accepted);
    let token = conn.close().expect("token granted");

    // First use succeeds...
    let conn = client
        .resume("replayer", token)
        .expect("first resume opens");
    let _ = conn.close();
    // ...the second presentation of the same token must be rejected —
    // tokens are single-use.
    let mut conn = client.resume("replayer", token).expect("TCP connects");
    match conn.read_next() {
        Ok((FrameType::Error, payload)) => {
            let (code, msg) = decode_error(&payload).expect("error decodes");
            assert_eq!(code, ErrorCode::ResumeRejected, "{msg}");
        }
        other => panic!("expected resume rejection, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.resumed, 1);
    assert!(stats.resume_rejected >= 1, "{stats:?}");
}

#[test]
fn resume_token_for_wrong_device_is_rejected() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = quick_client(server.local_addr());

    let mut conn = client.open("device-a").expect("opens");
    let v = conn.round(respond_benign(&linked, &w)).expect("round");
    assert!(v.accepted);
    let token = conn.close().expect("token granted");

    // The token's mac binds it to "device-a"; presenting it under a
    // different device name must fail before any session state moves.
    let mut conn = client.resume("device-b", token).expect("TCP connects");
    match conn.read_next() {
        Ok((FrameType::Error, payload)) => {
            let (code, msg) = decode_error(&payload).expect("error decodes");
            assert_eq!(code, ErrorCode::ResumeRejected, "{msg}");
        }
        other => panic!("expected resume rejection, got {other:?}"),
    }
    // The rightful device can still resume: the failed attempt did not
    // consume the parked session.
    let mut conn = client.resume("device-a", token).expect("resumes");
    let v = conn.round(respond_benign(&linked, &w)).expect("round");
    assert!(v.accepted);

    let stats = server.shutdown();
    assert_eq!(stats.resumed, 1);
    assert_eq!(stats.resume_rejected, 1);
}

#[test]
fn expired_resume_token_is_rejected() {
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            resume_ttl: Duration::from_millis(50),
            ..test_config()
        },
    )
    .expect("binds");
    let client = quick_client(server.local_addr());

    let mut conn = client.open("sleeper").expect("opens");
    let v = conn.round(respond_benign(&linked, &w)).expect("round");
    assert!(v.accepted);
    let token = conn.close().expect("token granted");

    std::thread::sleep(Duration::from_millis(120));
    let mut conn = client.resume("sleeper", token).expect("TCP connects");
    match conn.read_next() {
        Ok((FrameType::Error, payload)) => {
            let (code, msg) = decode_error(&payload).expect("error decodes");
            assert_eq!(code, ErrorCode::ResumeRejected, "{msg}");
            assert!(msg.contains("expired"), "got {msg:?}");
        }
        other => panic!("expected expired-token rejection, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.resume_rejected, 1);
}

#[test]
fn window_is_clamped_and_overrun_is_rejected() {
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            window: 2,
            ..test_config()
        },
    )
    .expect("binds");
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            window: 64,
            ..ClientConfig::default()
        },
    );
    let respond = respond_benign(&linked, &w);

    // The server grants only its cap: exactly two challenges arrive
    // before any attest is answered.
    let mut conn = client.open("greedy").expect("opens");
    let (ft, p1) = conn.read_next().expect("first challenge");
    assert_eq!(ft, FrameType::Challenge);
    let (ft, p2) = conn.read_next().expect("second challenge");
    assert_eq!(ft, FrameType::Challenge);
    assert_eq!(conn.granted_window(), 2, "window clamped to the server cap");

    let c1 = rap_serve::frame::decode_challenge(&p1).unwrap();
    let c2 = rap_serve::frame::decode_challenge(&p2).unwrap();
    // Write ahead the full window, plus one round beyond it answered
    // against a challenge the server never issued.
    for chal in [c1, c2, Challenge::from_seed(99)] {
        conn.send_raw(&encode_frame(
            FrameType::Attest,
            &rap_track::encode_stream(&respond(chal)),
        ))
        .expect("writes");
    }
    // In-window rounds verify; the overrun round mismatches the next
    // issued challenge and is rejected — write-ahead past the granted
    // window buys nothing.
    let mut verdicts = Vec::new();
    while verdicts.len() < 3 {
        match conn.read_next().expect("response") {
            (FrameType::Verdict, payload) => {
                verdicts.push(rap_serve::Verdict::decode(&payload).unwrap())
            }
            (FrameType::Challenge, _) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(verdicts[0].accepted && verdicts[1].accepted, "{verdicts:?}");
    assert!(!verdicts[2].accepted, "overrun round must reject");
    assert!(
        verdicts[2].detail.starts_with("violation: "),
        "got {:?}",
        verdicts[2].detail
    );
    server.shutdown();
}

#[test]
fn out_of_order_responses_are_rejected() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            window: 2,
            ..ClientConfig::default()
        },
    );
    let respond = respond_benign(&linked, &w);

    let mut conn = client.open("reorder").expect("opens");
    let (_, p1) = conn.read_next().expect("first challenge");
    let (_, p2) = conn.read_next().expect("second challenge");
    let c1 = rap_serve::frame::decode_challenge(&p1).unwrap();
    let c2 = rap_serve::frame::decode_challenge(&p2).unwrap();

    // Answer the window in reverse: each response meets the wrong
    // front-of-window challenge and must be rejected.
    for chal in [c2, c1] {
        conn.send_raw(&encode_frame(
            FrameType::Attest,
            &rap_track::encode_stream(&respond(chal)),
        ))
        .expect("writes");
    }
    let mut rejected = 0;
    while rejected < 2 {
        match conn.read_next().expect("response") {
            (FrameType::Verdict, payload) => {
                let v = rap_serve::Verdict::decode(&payload).unwrap();
                assert!(!v.accepted, "out-of-order response must reject: {v:?}");
                assert!(v.detail.starts_with("violation: "), "got {:?}", v.detail);
                rejected += 1;
            }
            (FrameType::Challenge, _) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.verdicts_rejected, 2);
    assert_eq!(stats.verdicts_accepted, 0);
}

#[test]
fn drain_with_full_pipeline_in_flight_flushes_verdicts() {
    let (linked, w) = deployed();
    let server =
        Server::start(test_verifier(&linked), "127.0.0.1:0", test_config()).expect("binds");
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            window: 4,
            ..ClientConfig::default()
        },
    );
    let respond = respond_benign(&linked, &w);

    // Fill the whole window without reading a single verdict.
    let mut conn = client.open("drainee").expect("opens");
    for _ in 0..4 {
        let (ft, payload) = conn.read_next().expect("challenge");
        assert_eq!(ft, FrameType::Challenge);
        let chal = rap_serve::frame::decode_challenge(&payload).unwrap();
        conn.send_raw(&encode_frame(
            FrameType::Attest,
            &rap_track::encode_stream(&respond(chal)),
        ))
        .expect("writes");
    }
    // Guarantee the pipeline is in flight server-side, then drain.
    let (ft, payload) = conn.read_next().expect("first verdict");
    assert_eq!(ft, FrameType::Verdict);
    assert!(rap_serve::Verdict::decode(&payload).unwrap().accepted);

    let drainer = std::thread::spawn(move || server.shutdown());
    // Every verdict already in flight must still arrive, in order,
    // before the draining error (or EOF) ends the connection.
    let mut verdicts = 1;
    loop {
        match conn.read_next() {
            Ok((FrameType::Verdict, payload)) => {
                assert!(rap_serve::Verdict::decode(&payload).unwrap().accepted);
                verdicts += 1;
            }
            Ok((FrameType::Challenge, _)) => {}
            Ok((FrameType::Error, payload)) => {
                let (code, _) = decode_error(&payload).expect("error decodes");
                assert_eq!(code, ErrorCode::Draining);
                break;
            }
            Ok(other) => panic!("unexpected frame {other:?}"),
            Err(_) => break, // reset/EOF after the drain is also a close
        }
    }
    assert_eq!(verdicts, 4, "every in-flight round drained to a verdict");

    let stats = drainer.join().expect("drain completes");
    assert_eq!(stats.verdicts_accepted, 4);
}

#[test]
fn failed_error_sends_are_counted_separately() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            ..test_config()
        },
    )
    .expect("binds");
    let addr = server.local_addr();

    // Each iteration provokes exactly one ERROR send attempt (bad
    // magic → protocol error) with the peer already gone: unread
    // challenge bytes in our receive buffer turn the close into a TCP
    // reset, so the server's reply write fails. The reset races the
    // server's read, so retry until at least one send attempt fails.
    let mut attempts = 0u64;
    for _ in 0..40 {
        attempts += 1;
        let client = AttestClient::new(
            addr.to_string(),
            ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            },
        );
        let mut conn = client.open("goner").expect("opens");
        // Let the SESSION + CHALLENGE frames land unread in our
        // receive buffer, then break the protocol and vanish.
        std::thread::sleep(Duration::from_millis(30));
        let _ = conn.send_raw(b"XXXXXXXXXXXXXXXXXXXX");
        drop(conn);
        std::thread::sleep(Duration::from_millis(30));
        if server.stats().error_send_failed >= 1 {
            break;
        }
    }

    // Wait until the server has resolved every send attempt.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = server.stats();
        if stats.errors_sent + stats.error_send_failed >= attempts || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        stats.errors_sent + stats.error_send_failed,
        attempts,
        "every send attempt is counted exactly once: {stats:?}"
    );
    assert!(
        stats.error_send_failed >= 1,
        "a reply to a gone peer must count as failed, not sent: {stats:?}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Telemetry plane: trace propagation, mid-load scraping, exemplar ring.
// ---------------------------------------------------------------------------

/// A [`ServerConfig`] with the admin telemetry listener enabled.
fn admin_config(threshold: Duration) -> ServerConfig {
    ServerConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        slow_round_threshold: threshold,
        ..test_config()
    }
}

/// One fresh admin connection fetching the exemplar document.
fn scrape_exemplars(addr: std::net::SocketAddr) -> Json {
    let body = AdminClient::new(addr.to_string())
        .connect()
        .expect("admin connects")
        .exemplars()
        .expect("exemplars fetch");
    rap_obs::json::parse(&body).expect("exemplars JSON parses")
}

/// One fresh admin connection fetching the telemetry JSON document.
fn scrape_telemetry(addr: std::net::SocketAddr) -> Json {
    let body = AdminClient::new(addr.to_string())
        .connect()
        .expect("admin connects")
        .stats(StatsFormat::Json)
        .expect("stats fetch");
    rap_obs::json::parse(&body).expect("telemetry JSON parses")
}

/// Exemplar finalization lands just *after* the verdict batch hits the
/// wire, so a client that has read its verdicts can race the server's
/// bookkeeping by a few microseconds — poll until `pred` holds.
fn wait_for(mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "telemetry did not settle in 10s");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn trickling_admin_request_is_dropped_at_the_admin_deadline() {
    let (linked, _w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        admin_config(Duration::from_millis(5)),
    )
    .expect("binds");
    let admin = server.admin_addr().expect("admin listener bound");
    // A raw scraper that sends a STATS request one byte per 900 ms for
    // 6 s: every read of the request makes progress, so only a
    // deadline over the whole request frees the single admin thread.
    let request = encode_frame(FrameType::Stats, &encode_stats_request(StatsFormat::Json));
    let stop = Arc::new(AtomicBool::new(false));
    let mut peer = std::net::TcpStream::connect(admin).expect("connects");
    let trickler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let started = Instant::now();
            for byte in request.chunks(1) {
                if stop.load(Ordering::SeqCst)
                    || started.elapsed() >= Duration::from_secs(6)
                    || peer.write_all(byte).is_err()
                {
                    return;
                }
                std::thread::sleep(Duration::from_millis(900));
            }
        })
    };
    // Let the admin thread pick up the trickler first.
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let reply = AdminClient::new(admin.to_string())
        .connect()
        .and_then(|mut conn| conn.stats(StatsFormat::Json));
    let waited = started.elapsed();
    stop.store(true, Ordering::SeqCst);
    trickler.join().expect("trickler exits");
    assert!(
        reply.is_ok() && waited < Duration::from_secs(2),
        "a trickling scraper held the admin thread: the next scrape got {reply:?} after {waited:?}"
    );
    server.shutdown();
}

#[test]
fn every_stage_span_carries_the_round_trace_id() {
    const ROUNDS: usize = 4;
    let (linked, w) = deployed();
    // Threshold zero: every round exceeds it (record uses a strict
    // `>`), so the ring retains a full span tree per round.
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        admin_config(Duration::ZERO),
    )
    .expect("binds");
    let admin = server.admin_addr().expect("admin listener bound");
    let client = quick_client(server.local_addr());

    let mut conn = client.open("traced-0").expect("opens");
    let verdicts = conn
        .pipelined(ROUNDS, respond_benign(&linked, &w))
        .expect("rounds run");
    assert!(verdicts.iter().all(|v| v.accepted));
    let _ = conn.close();

    wait_for(|| {
        scrape_exemplars(admin)
            .get("retained")
            .and_then(Json::as_u64)
            .expect("retained count")
            >= ROUNDS as u64
    });
    let doc = scrape_exemplars(admin);
    assert_eq!(doc.get("threshold_ns").and_then(Json::as_u64), Some(0));
    let exemplars = doc
        .get("exemplars")
        .and_then(Json::as_array)
        .expect("exemplars array");
    assert_eq!(exemplars.len(), ROUNDS);

    let mut seen_ids = std::collections::HashSet::new();
    for ex in exemplars {
        let trace_id = ex.get("trace_id").and_then(Json::as_u64).expect("trace_id");
        assert!(trace_id > 0, "trace ids are minted from 1");
        assert!(
            seen_ids.insert(trace_id),
            "trace ids are distinct across rounds"
        );
        assert_eq!(ex.get("device").and_then(Json::as_str), Some("traced-0"));
        assert_eq!(ex.get("accepted"), Some(&Json::Bool(true)));
        assert!(ex.get("total_ns").and_then(Json::as_u64).unwrap() > 0);

        // The span tree covers the whole pipeline in stage order, and
        // every span carries the round's trace id.
        let spans = ex.get("spans").and_then(Json::as_array).expect("spans");
        let stages: Vec<&str> = spans
            .iter()
            .map(|s| s.get("stage").and_then(Json::as_str).expect("stage name"))
            .collect();
        assert_eq!(
            stages,
            ["accept", "opener", "replay", "flush"],
            "complete accept→verdict span tree in pipeline order"
        );
        for span in spans {
            assert_eq!(
                span.get("trace_id").and_then(Json::as_u64),
                Some(trace_id),
                "every stage span carries the round's trace id"
            );
        }
    }
    server.shutdown();
}

#[test]
fn mid_load_admin_scrapes_are_monotonic_and_consistent() {
    const DEVICES: [&str; 3] = ["scrape-a", "scrape-b", "scrape-c"];
    const ROUNDS_EACH: usize = 4;
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        admin_config(Duration::from_millis(5)),
    )
    .expect("binds");
    let admin = server.admin_addr().expect("admin listener bound");
    let addr = server.local_addr();

    let load = {
        let linked = linked.clone();
        std::thread::spawn(move || {
            let client = quick_client(addr);
            for device in DEVICES {
                let mut conn = client.open(device).expect("opens");
                let verdicts = conn
                    .pipelined(ROUNDS_EACH, respond_benign(&linked, &w))
                    .expect("rounds run");
                assert!(verdicts.iter().all(|v| v.accepted));
                let _ = conn.close();
            }
        })
    };

    // Scrape while the load runs: every counter in the `server` block
    // (and the uptime clock) must be monotonic non-decreasing across
    // consecutive snapshots.
    let counters_of = |doc: &Json| -> Vec<(String, u64)> {
        let mut out = vec![(
            "uptime_ns".to_string(),
            doc.get("uptime_ns").and_then(Json::as_u64).unwrap(),
        )];
        for (name, value) in doc.get("server").and_then(Json::entries).expect("server") {
            out.push((name.clone(), value.as_u64().expect("counter is a uint")));
        }
        out
    };
    let mut snapshots = vec![counters_of(&scrape_telemetry(admin))];
    while !load.is_finished() {
        snapshots.push(counters_of(&scrape_telemetry(admin)));
        std::thread::sleep(Duration::from_millis(2));
    }
    load.join().expect("load completes");
    snapshots.push(counters_of(&scrape_telemetry(admin)));
    assert!(snapshots.len() >= 2, "at least one mid-load scrape pair");
    for pair in snapshots.windows(2) {
        for ((name, prev), (_, cur)) in pair[0].iter().zip(pair[1].iter()) {
            assert!(
                cur >= prev,
                "{name} went backwards across scrapes: {prev} -> {cur}"
            );
        }
    }

    // After the load quiesces the per-device table must agree with the
    // verdicts the clients actually received: ROUNDS_EACH accepted
    // rounds per device, nothing rejected, nothing resumed.
    wait_for(|| {
        let doc = scrape_telemetry(admin);
        let devices = doc.get("devices").and_then(Json::entries).expect("devices");
        devices
            .iter()
            .map(|(_, d)| d.get("rounds").and_then(Json::as_u64).unwrap())
            .sum::<u64>()
            >= (DEVICES.len() * ROUNDS_EACH) as u64
    });
    let doc = scrape_telemetry(admin);
    let devices = doc.get("devices").and_then(Json::entries).expect("devices");
    assert_eq!(devices.len(), DEVICES.len());
    for device in DEVICES {
        let row = doc
            .get("devices")
            .and_then(|d| d.get(device))
            .unwrap_or_else(|| panic!("device {device} has a table row"));
        assert_eq!(
            row.get("rounds").and_then(Json::as_u64),
            Some(ROUNDS_EACH as u64),
            "{device} rounds match delivered verdicts"
        );
        assert_eq!(row.get("rejects").and_then(Json::as_u64), Some(0));
        assert_eq!(row.get("resumes").and_then(Json::as_u64), Some(0));
        assert!(row.get("last_seen_ns").and_then(Json::as_u64).unwrap() > 0);
        assert!(
            row.get("p99_ns").and_then(Json::as_u64).unwrap() > 0,
            "{device} has a bucket-estimated p99"
        );
    }
    server.shutdown();
}

#[test]
fn exemplar_ring_retains_only_rounds_above_threshold() {
    let (linked, w) = deployed();

    // An hour-long threshold: loopback rounds are all counted but none
    // qualifies as slow, so the ring stays empty.
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        admin_config(Duration::from_secs(3600)),
    )
    .expect("binds");
    let admin = server.admin_addr().expect("admin listener bound");
    let client = quick_client(server.local_addr());
    let verdict = client
        .attest_once("fast-0", respond_benign(&linked, &w))
        .expect("round completes");
    assert!(verdict.accepted);
    wait_for(|| {
        scrape_exemplars(admin)
            .get("rounds_seen")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    });
    let doc = scrape_exemplars(admin);
    assert_eq!(doc.get("retained").and_then(Json::as_u64), Some(0));
    assert_eq!(
        doc.get("exemplars").and_then(Json::as_array).unwrap().len(),
        0,
        "no round beats an hour-long threshold"
    );
    server.shutdown();

    // Threshold zero: the same round qualifies and is retained.
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        admin_config(Duration::ZERO),
    )
    .expect("binds");
    let admin = server.admin_addr().expect("admin listener bound");
    let client = quick_client(server.local_addr());
    let verdict = client
        .attest_once("slow-0", respond_benign(&linked, &w))
        .expect("round completes");
    assert!(verdict.accepted);
    wait_for(|| {
        scrape_exemplars(admin)
            .get("retained")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    });
    server.shutdown();
}

#[test]
fn device_table_evicts_lru_beyond_cap_and_counts_evictions() {
    const CAP: usize = 4;
    const OVERFLOW: usize = 3;
    let (linked, w) = deployed();
    let server = Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            device_table_cap: CAP,
            ..admin_config(Duration::from_secs(3600))
        },
    )
    .expect("binds");
    let admin = server.admin_addr().expect("admin listener bound");
    let client = quick_client(server.local_addr());
    let evictions_before = rap_obs::counter!("admin_device_table_evictions_total").get();

    // cap + K distinct devices, one accepted round each, in order —
    // the first K rows are the coldest and must be the ones evicted.
    let names: Vec<String> = (0..CAP + OVERFLOW).map(|i| format!("lru-{i}")).collect();
    for name in &names {
        let verdict = client
            .attest_once(name, respond_benign(&linked, &w))
            .expect("round completes");
        assert!(verdict.accepted);
    }

    wait_for(|| {
        // Device rows land at verdict flush; wait until the *last*
        // registered device is visible.
        scrape_telemetry(admin)
            .get("devices")
            .and_then(Json::entries)
            .is_some_and(|rows| rows.iter().any(|(n, _)| n == names.last().unwrap()))
    });
    let doc = scrape_telemetry(admin);
    let rows = doc
        .get("devices")
        .and_then(Json::entries)
        .expect("devices table present");
    assert_eq!(
        rows.len(),
        CAP,
        "table capped at {CAP}: {:?}",
        rows.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    for survivor in &names[OVERFLOW..] {
        assert!(
            rows.iter().any(|(n, _)| n == survivor),
            "most-recently-touched device {survivor} must survive"
        );
    }
    for evicted in &names[..OVERFLOW] {
        assert!(
            !rows.iter().any(|(n, _)| n == evicted),
            "least-recently-touched device {evicted} must be evicted"
        );
    }
    let evicted_total =
        rap_obs::counter!("admin_device_table_evictions_total").get() - evictions_before;
    assert!(
        evicted_total >= OVERFLOW as u64,
        "evictions counted: {evicted_total}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Proof-carrying verdicts: the typed round hook and the audit log.
// ---------------------------------------------------------------------------

fn audit_tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rap-serve-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Every sealed record a [`recording_hook`] saw, with its device.
type RecordSink = std::sync::Arc<std::sync::Mutex<Vec<(String, rap_track::VerdictRecord)>>>;

fn recording_hook(sink: &RecordSink) -> rap_serve::RoundHook {
    let sink = std::sync::Arc::clone(sink);
    rap_serve::RoundHook::new(move |event| {
        if let rap_serve::RoundEvent::Verdict { device, record } = event {
            sink.lock().unwrap().push((device.clone(), record.clone()));
        }
    })
}

#[test]
fn round_hook_delivers_sealed_records_matching_wire_verdicts() {
    let (linked, w) = deployed();
    let verifier = test_verifier(&linked);
    let seal_key = verifier.verdict_seal_key();

    let seen = RecordSink::default();
    let config = ServerConfig {
        round_hook: Some(recording_hook(&seen)),
        ..test_config()
    };
    let server = Server::start(verifier, "127.0.0.1:0", config).expect("binds");
    let client = quick_client(server.local_addr());

    let ok = client
        .attest_once("device-0", respond_benign(&linked, &w))
        .expect("benign round");
    let bad = client
        .attest_once("attacker-0", respond_forged(&linked, &w))
        .expect("forged round");
    server.shutdown();

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 2, "one event per round");
    for (device, record) in seen.iter() {
        assert_eq!(&record.fields.device, device);
        assert!(
            record.authenticate(&seal_key),
            "server-sealed record authenticates under the derived seal key"
        );
    }
    // The wire frame is a pure view of the sealed record: deriving it
    // again from the hook's record reproduces what the client decoded.
    assert_eq!(rap_serve::Verdict::from_record(&seen[0].1), ok);
    assert_eq!(rap_serve::Verdict::from_record(&seen[1].1), bad);
    assert!(seen[0].1.accepted() && !seen[1].1.accepted());
}

/// How a scripted device answers one round.
#[derive(Clone, Copy)]
enum Answer {
    Benign,
    Forged,
    Dict,
}

/// Each device's rounds, in order: benign, forged and
/// dictionary-compressed evidence, alone and mixed on one connection.
const SCRIPT: [(&str, &[Answer]); 4] = [
    (
        "det-benign",
        &[Answer::Benign, Answer::Benign, Answer::Benign],
    ),
    ("det-mixed", &[Answer::Benign, Answer::Forged, Answer::Dict]),
    ("det-forged", &[Answer::Forged, Answer::Forged]),
    ("det-dict", &[Answer::Dict, Answer::Dict, Answer::Benign]),
];

/// Serves [`SCRIPT`] on a fresh server and returns each device's sealed
/// records in round order. Connections open one after another, so
/// every run hands out the same connection ids and hence the same
/// nonces; with `concurrent` their rounds then run in parallel.
fn serve_script(
    verifier: Verifier,
    threads: usize,
    concurrent: bool,
    answer: &(dyn Fn(Answer, Challenge) -> Vec<Report> + Sync),
) -> std::collections::BTreeMap<String, Vec<rap_track::VerdictRecord>> {
    let sink = RecordSink::default();
    let config = ServerConfig {
        threads,
        round_hook: Some(recording_hook(&sink)),
        ..test_config()
    };
    let server = Server::start(verifier, "127.0.0.1:0", config).expect("binds");
    let client = quick_client(server.local_addr());
    let conns: Vec<_> = SCRIPT
        .iter()
        .map(|(device, _)| client.open(device).expect("opens"))
        .collect();
    let play = |(mut conn, (device, rounds)): (rap_serve::Connection, &(&str, &[Answer]))| {
        for &a in *rounds {
            let verdict = conn.round(|chal| answer(a, chal)).expect("round");
            let expect_ok = !matches!(a, Answer::Forged);
            assert_eq!(verdict.accepted, expect_ok, "{device}: {verdict:?}");
        }
        conn.close();
    };
    if concurrent {
        std::thread::scope(|scope| {
            for job in conns.into_iter().zip(SCRIPT.iter()) {
                scope.spawn(move || play(job));
            }
        });
    } else {
        conns.into_iter().zip(SCRIPT.iter()).for_each(play);
    }
    server.shutdown();

    let mut by_device = std::collections::BTreeMap::<_, Vec<_>>::new();
    for (device, record) in sink.lock().unwrap().drain(..) {
        by_device.entry(device).or_default().push(record);
    }
    by_device
}

#[test]
fn sealed_records_do_not_depend_on_workers_or_cache_warmth() {
    let (linked, w) = deployed();
    let benign = respond_benign(&linked, &w);
    let forged = respond_forged(&linked, &w);
    let attest = |engine: &CfaEngine, chal| {
        let mut machine = mcu_sim::Machine::new(linked.image.clone());
        (w.attach)(&mut machine);
        let config = EngineConfig {
            max_instrs: w.max_instrs * 2,
            watermark: Some(256),
        };
        engine
            .attest(&mut machine, &linked.map, chal, config)
            .expect("attestation runs")
    };
    let profile = attest(&CfaEngine::new(test_key()), Challenge::from_seed(0));
    let dict = rap_track::SubPathDict::mine(
        &profile.combined_log(),
        profile.reports[0].h_mem,
        w.name,
        rap_track::DictParams::default(),
    );
    let dict_engine = CfaEngine::new(test_key()).with_dict(dict.entries().to_vec());
    let answer = |a: Answer, chal: Challenge| match a {
        Answer::Benign => benign(chal),
        Answer::Forged => forged(chal),
        Answer::Dict => attest(&dict_engine, chal).reports,
    };
    let verifier = || {
        Verifier::builder()
            .key(test_key())
            .image(linked.image.clone())
            .map(linked.map.clone())
            .dict(dict.clone())
            .build()
            .expect("all builder fields set")
    };

    let one_worker = serve_script(verifier(), 1, false, &answer);
    let four_workers = serve_script(verifier(), 4, true, &answer);
    let warm = verifier();
    for a in [Answer::Benign, Answer::Dict, Answer::Benign, Answer::Dict] {
        let chal = Challenge::from_seed(1);
        warm.verify(chal, &answer(a, chal))
            .expect("warm-up verifies");
    }
    assert!(warm.stats().cache_hits > 0, "the warm-up filled the table");
    let prewarmed = serve_script(warm, 1, false, &answer);

    for (device, rounds) in SCRIPT {
        let records = &one_worker[device];
        assert_eq!(
            records.len(),
            rounds.len(),
            "{device}: one record per round"
        );
        for (run, other) in [("4 workers", &four_workers), ("pre-warmed", &prewarmed)] {
            assert_eq!(other[device].len(), records.len(), "{device}: {run}");
            for (i, (a, b)) in records.iter().zip(&other[device]).enumerate() {
                // Fields first, for a readable diff; then the sealed bytes.
                assert_eq!(
                    b.fields, a.fields,
                    "{device} round {i}: {run} vs 1 cold worker"
                );
                assert_eq!(b.encode(), a.encode(), "{device} round {i}: {run}");
            }
        }
    }
    let dict_hits: u32 = one_worker["det-dict"]
        .iter()
        .map(|r| r.fields.dict_hits)
        .sum();
    assert!(dict_hits > 0, "the dictionary device sends dictionary hits");
}

#[test]
fn audit_log_chains_every_served_round_and_detects_tamper() {
    let (linked, w) = deployed();
    let verifier = test_verifier(&linked);
    let seal_key = verifier.verdict_seal_key();
    let path = audit_tmp("served.ralog");
    std::fs::remove_file(&path).ok();

    let config = ServerConfig {
        audit_log: Some(path.clone()),
        ..test_config()
    };
    let server = Server::start(verifier, "127.0.0.1:0", config).expect("binds");
    let client = quick_client(server.local_addr());

    let mut conn = client.open("device-0").expect("connects");
    let verdicts = conn
        .pipelined(4, respond_benign(&linked, &w))
        .expect("pipelined rounds");
    assert_eq!(verdicts.len(), 4);
    drop(conn);
    client
        .attest_once("attacker-0", respond_forged(&linked, &w))
        .expect("forged round");
    server.shutdown();

    let report = rap_audit::ChainVerifier::with_seal_key(seal_key)
        .verify_file(&path)
        .expect("log readable");
    assert!(report.ok(), "clean chain, got {:?}", report.first_break);
    assert_eq!(report.entries, 5, "every served round is in the chain");

    // One flipped byte anywhere must surface as a typed first break.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let report = rap_audit::ChainVerifier::new()
        .verify_file(&path)
        .expect("log readable");
    assert!(!report.ok(), "tampered chain must not verify");
}

#[test]
fn tampered_audit_log_refuses_server_start() {
    let (linked, w) = deployed();
    let path = audit_tmp("tamper-start.ralog");
    std::fs::remove_file(&path).ok();
    {
        let config = ServerConfig {
            audit_log: Some(path.clone()),
            ..test_config()
        };
        let server = Server::start(test_verifier(&linked), "127.0.0.1:0", config).expect("binds");
        quick_client(server.local_addr())
            .attest_once("device-0", respond_benign(&linked, &w))
            .expect("round");
        server.shutdown();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0x80; // complete frame, corrupted hash: tamper, not crash
    std::fs::write(&path, &bytes).unwrap();

    match Server::start(
        test_verifier(&linked),
        "127.0.0.1:0",
        ServerConfig {
            audit_log: Some(path),
            ..test_config()
        },
    ) {
        Err(StartError::Audit(e)) => {
            assert!(e.to_string().contains("tampered"), "typed open error: {e}");
        }
        other => panic!("expected StartError::Audit, got {:?}", other.map(|_| ())),
    }
}
