//! Loopback service saturation: challenge/attest/verdict rounds per
//! second through `rap-serve` at 1..=8 concurrent clients, comparing
//! two connection disciplines against a shared server:
//!
//! * `oneshot` — the pre-pipelining protocol shape: every round opens
//!   a fresh connection, runs one `HELLO`/`CHALLENGE`/`ATTEST`/
//!   `VERDICT` exchange and disconnects;
//! * `pipelined` — one persistent connection per client with a window
//!   of rounds in flight (`Connection::pipelined`).
//!
//! Both disciplines share a cached-execution responder over the small
//! `syringe` workload: the workload is executed once up front and each
//! challenge only re-signs the recorded log (only the HMAC binds the
//! challenge), so per-round verify cost is tiny and the measured
//! difference isolates per-connection protocol overhead — TCP setup,
//! the accept and hand-off to a worker, handshake round-trips and
//! session setup — which is exactly what pipelining and resumption
//! eliminate. A pipelined client also batches its frames: the
//! write-ahead burst is one write, and each read takes every verdict
//! the server flushed at once.
//!
//! Overloaded connects are shed with `ERROR busy` server-side; the
//! client's bounded retry absorbs them, so shed load shows up as tail
//! latency rather than failures.
//!
//! * `--quick` runs clients {1, 8} with fewer rounds;
//! * `--json <path>` writes `BENCH_serve.json` with
//!   `verifications_per_sec` and client-observed `p99_round_ns` per
//!   case, plus `host_cores` and the gate's ratio
//!   `pipelined_over_oneshot_8` at the top level. It is written before
//!   any gate decides, so a failed gate leaves its numbers behind;
//! * `--enforce` exits non-zero unless pipelined throughput at 8
//!   clients is at least [`MIN_PIPELINE_SPEEDUP_8`]× the oneshot
//!   figure — the loopback target the connection rework is gated on.
//!   Both medians come from [`GATE_SAMPLES`] samples of at least
//!   [`GATE_MIN_ITERS`] iterations, in `--quick` too: with an even
//!   sample count the median is the slower middle sample, and with a
//!   couple of iterations per sample (oneshot_8 calibrates to about
//!   two) one slow round moves it, so noise alone could fail the gate.
//!
//! A trailing pair of back-to-back pipelined_8 runs measures the
//! telemetry plane: admin listener off vs. on with a 1/s scraper
//! (JSON snapshot + exemplar ring). The throughput delta is recorded
//! as `admin_scrape_overhead_pct` and gated at
//! [`MAX_ADMIN_OVERHEAD_PCT`] under `--enforce` on multi-core hosts.

use std::sync::Mutex;
use std::time::Instant;

use rap_bench::harness::{BenchArgs, BenchGroup, BenchReport};
use rap_link::{link, LinkOptions, LinkedProgram};
use rap_obs::Json;
use rap_serve::{AttestClient, ClientConfig, Server, ServerConfig};
use rap_track::{device_key, CfaEngine, Challenge, EngineConfig, Key, Report, Verifier};

/// Rounds per client per sample (full mode).
const ROUNDS_PER_CLIENT: usize = 16;

/// Pipeline window requested by pipelined-mode clients.
const WINDOW: u16 = 8;

/// The gate: minimum pipelined-over-oneshot throughput ratio at 8
/// clients on loopback.
const MIN_PIPELINE_SPEEDUP_8: f64 = 3.0;

/// Timed samples per case: odd, so the median is the middle sample.
const GATE_SAMPLES: usize = 5;

/// Floor under the calibrated iterations per sample.
const GATE_MIN_ITERS: u64 = 8;

/// The telemetry gate: maximum pipelined-throughput regression at 8
/// clients with the admin plane bound and scraped once per second.
const MAX_ADMIN_OVERHEAD_PCT: f64 = 2.0;

fn bench_key() -> Key {
    device_key("serve-bench")
}

fn deployed() -> (LinkedProgram, workloads::Workload) {
    let w = workloads::by_name("syringe").expect("syringe workload exists");
    let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
    (linked, w)
}

fn bench_verifier(linked: &LinkedProgram) -> Verifier {
    Verifier::builder()
        .key(bench_key())
        .image(linked.image.clone())
        .map(linked.map.clone())
        .build()
        .expect("key/image/map are all set")
}

/// Executes the workload once and keeps the evidence; responding to a
/// challenge re-signs the recorded logs under it (the HMAC is the only
/// challenge-dependent part of a report), so per-round prover cost is
/// identical across disciplines and small enough that protocol
/// overhead dominates the measurement.
struct CachedResponder {
    reports: Vec<Report>,
}

impl CachedResponder {
    fn new(linked: &LinkedProgram, w: &workloads::Workload) -> CachedResponder {
        let engine = CfaEngine::new(bench_key());
        let mut machine = mcu_sim::Machine::new(linked.image.clone());
        (w.attach)(&mut machine);
        let reports = engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(0),
                EngineConfig {
                    max_instrs: w.max_instrs * 2,
                    watermark: Some(256),
                },
            )
            .expect("benign attestation runs")
            .reports;
        CachedResponder { reports }
    }

    fn respond(&self, chal: Challenge) -> Vec<Report> {
        self.reports
            .iter()
            .enumerate()
            .map(|(seq, r)| {
                Report::new(
                    &bench_key(),
                    chal,
                    r.h_mem,
                    r.log.clone(),
                    seq as u32,
                    r.is_final,
                    r.overflow,
                )
            })
            .collect()
    }
}

fn bench_client(addr: std::net::SocketAddr, window: u16) -> AttestClient {
    AttestClient::new(
        addr.to_string(),
        ClientConfig {
            retries: 8,
            backoff_base: std::time::Duration::from_millis(1),
            backoff_cap: std::time::Duration::from_millis(20),
            read_timeout: std::time::Duration::from_secs(30),
            window,
            ..ClientConfig::default()
        },
    )
}

/// One oneshot sample: every round is its own connection. Each round's
/// client-observed latency (connect through verdict) lands in `lat`.
fn drive_oneshot(
    addr: std::net::SocketAddr,
    responder: &CachedResponder,
    clients: usize,
    rounds: usize,
    lat: &Mutex<Vec<u64>>,
) {
    std::thread::scope(|scope| {
        for i in 0..clients {
            scope.spawn(move || {
                let client = bench_client(addr, 1);
                let mut local = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    let mut conn = client
                        .open(&format!("oneshot-{i}"))
                        .expect("connection opens");
                    let verdict = conn
                        .round(|chal| responder.respond(chal))
                        .expect("round completes");
                    assert!(verdict.accepted, "benign round must verify: {verdict:?}");
                    local.push(t0.elapsed().as_nanos() as u64);
                }
                lat.lock().unwrap().extend(local);
            });
        }
    });
}

/// One pipelined sample: each client keeps one connection with
/// [`WINDOW`] rounds in flight. Latency is recorded as the mean
/// per-round time on the connection — individual verdicts overlap, so
/// a per-verdict wall time would double-count waiting.
fn drive_pipelined(
    addr: std::net::SocketAddr,
    responder: &CachedResponder,
    clients: usize,
    rounds: usize,
    lat: &Mutex<Vec<u64>>,
) {
    std::thread::scope(|scope| {
        for i in 0..clients {
            scope.spawn(move || {
                let client = bench_client(addr, WINDOW);
                let mut conn = client
                    .open(&format!("pipelined-{i}"))
                    .expect("connection opens");
                let t0 = Instant::now();
                let verdicts = conn
                    .pipelined(rounds, |chal| responder.respond(chal))
                    .expect("pipelined rounds complete");
                let per_round = (t0.elapsed().as_nanos() as u64) / rounds.max(1) as u64;
                assert!(
                    verdicts.iter().all(|v| v.accepted),
                    "benign rounds must verify"
                );
                lat.lock().unwrap().push(per_round);
            });
        }
    });
}

fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[(samples.len() * 99).div_ceil(100).saturating_sub(1)]
}

fn main() {
    let args = BenchArgs::parse();
    let (linked, w) = deployed();
    let responder = CachedResponder::new(&linked, &w);
    let rounds = if args.quick { 8 } else { ROUNDS_PER_CLIENT };
    let client_counts: &[usize] = if args.quick { &[1, 8] } else { &[1, 2, 4, 8] };

    let group = BenchGroup::new("serve")
        .samples(GATE_SAMPLES)
        .min_iters(GATE_MIN_ITERS);
    let mut report = BenchReport::default();
    let mut rows: Vec<(String, rap_bench::harness::Stats, f64, u64)> = Vec::new();
    for &clients in client_counts {
        for mode in ["oneshot", "pipelined"] {
            // A fresh server per case: cold replay cache, clean stats.
            let server = Server::start(
                bench_verifier(&linked),
                "127.0.0.1:0",
                ServerConfig {
                    threads: 4,
                    window: WINDOW,
                    session_secret: b"serve-bench-secret".to_vec(),
                    ..ServerConfig::default()
                },
            )
            .expect("server binds");
            let addr = server.local_addr();

            let latencies = Mutex::new(Vec::new());
            let case = format!("{mode}_{clients}");
            let stats = group.bench(&case, || match mode {
                "oneshot" => drive_oneshot(addr, &responder, clients, rounds, &latencies),
                _ => drive_pipelined(addr, &responder, clients, rounds, &latencies),
            });
            let median = stats.median.as_secs_f64();
            let per_sec = if median > 0.0 {
                (clients * rounds) as f64 / median
            } else {
                f64::INFINITY
            };
            let p99_ns = p99(&mut latencies.into_inner().unwrap());
            report.record_with(
                &format!("serve/{case}"),
                stats,
                [
                    ("mode", Json::Str(mode.to_owned())),
                    ("clients", Json::Uint(clients as u64)),
                    ("rounds_per_client", Json::Uint(rounds as u64)),
                    ("window", Json::Uint(u64::from(WINDOW))),
                    ("verifications_per_sec", Json::Num(per_sec)),
                    ("p99_round_ns", Json::Uint(p99_ns)),
                ],
            );
            rows.push((case, stats, per_sec, p99_ns));

            let server_stats = server.shutdown();
            assert_eq!(server_stats.verdicts_rejected, 0, "{server_stats:?}");
        }
    }

    // Markdown table for README §"Remote attestation service".
    println!("\n| case | median sample | p99 round | verifications/s |");
    println!("|---|---:|---:|---:|");
    for (case, stats, per_sec, p99_ns) in &rows {
        println!(
            "| {case} | {:.1}ms | {:.2}ms | {per_sec:.0} |",
            stats.median.as_nanos() as f64 / 1_000_000.0,
            *p99_ns as f64 / 1_000_000.0,
        );
    }

    // Telemetry-plane overhead: two more back-to-back pipelined_8
    // runs, the first with the admin plane off (the disabled-cost
    // baseline), the second with the admin listener bound and a
    // scraper pulling a JSON snapshot + the exemplar ring once per
    // second — the deployment shape `rap top` creates. Throughput
    // under scraping must stay within [`MAX_ADMIN_OVERHEAD_PCT`] of
    // the baseline (enforced only on hosts with enough cores that the
    // scraper thread is not stealing the load generator's CPU).
    let mut admin_per_sec = Vec::new();
    let mut admin_overhead_pct = None;
    for (case, with_admin) in [("pipelined_8_base", false), ("pipelined_8_admin", true)] {
        let server = Server::start(
            bench_verifier(&linked),
            "127.0.0.1:0",
            ServerConfig {
                threads: 4,
                window: WINDOW,
                session_secret: b"serve-bench-secret".to_vec(),
                admin_addr: with_admin.then(|| "127.0.0.1:0".to_string()),
                ..ServerConfig::default()
            },
        )
        .expect("server binds");
        let addr = server.local_addr();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let scraper = server.admin_addr().map(|admin_addr| {
                let stop = &stop;
                scope.spawn(move || {
                    let client = rap_serve::AdminClient::new(admin_addr.to_string());
                    loop {
                        if let Ok(mut conn) = client.connect() {
                            let _ = conn.stats(rap_serve::StatsFormat::Json);
                            let _ = conn.exemplars();
                        }
                        // ~1 scrape/second, with a fast stop path.
                        for _ in 0..100 {
                            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                    }
                })
            });

            let latencies = Mutex::new(Vec::new());
            let stats = group.bench(case, || {
                drive_pipelined(addr, &responder, 8, rounds, &latencies)
            });
            let median = stats.median.as_secs_f64();
            let per_sec = if median > 0.0 {
                (8 * rounds) as f64 / median
            } else {
                f64::INFINITY
            };
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            if let Some(handle) = scraper {
                handle.join().expect("scraper joins");
            }

            let mut extras = vec![
                ("mode", Json::Str("pipelined".to_owned())),
                ("clients", Json::Uint(8)),
                ("rounds_per_client", Json::Uint(rounds as u64)),
                ("admin_scraped", Json::Bool(with_admin)),
                ("verifications_per_sec", Json::Num(per_sec)),
            ];
            if with_admin {
                let base = admin_per_sec[0];
                let overhead_pct = if base > 0.0 {
                    (1.0 - per_sec / base) * 100.0
                } else {
                    0.0
                };
                println!(
                    "admin scrape overhead: {overhead_pct:.2}% \
                     ({base:.0} -> {per_sec:.0} verifications/s)"
                );
                extras.push(("admin_scrape_overhead_pct", Json::Num(overhead_pct)));
                admin_overhead_pct = Some(overhead_pct);
            }
            report.record_with(&format!("serve/{case}"), stats, extras);
            admin_per_sec.push(per_sec);
        });

        let server_stats = server.shutdown();
        assert_eq!(server_stats.verdicts_rejected, 0, "{server_stats:?}");
    }

    let throughput = |name: &str| rows.iter().find(|(c, ..)| c == name).map(|(_, _, t, _)| *t);
    let ratio = match (throughput("oneshot_8"), throughput("pipelined_8")) {
        (Some(oneshot), Some(pipelined)) => Some(pipelined / oneshot),
        _ => None,
    };
    if let Some(ratio) = ratio {
        println!("pipelined_8 / oneshot_8 throughput: {ratio:.2}x");
        report.field("pipelined_over_oneshot_8", Json::Num(ratio));
    }

    // The JSON lands before any gate decides, so a failed gate still
    // leaves the numbers behind it.
    if let Some(path) = &args.json_out {
        report.write(path).expect("write bench json");
        println!("wrote {path}");
    }
    if !args.enforce {
        return;
    }
    let mut failed = false;
    // On small hosts the scraper competes with the load generator for
    // cores and the comparison measures the scheduler, not the server;
    // only gate where the signal is real.
    if let Some(overhead_pct) = admin_overhead_pct {
        if rap_bench::harness::host_cores() >= 4 && overhead_pct > MAX_ADMIN_OVERHEAD_PCT {
            eprintln!(
                "FAIL: admin scraping costs {overhead_pct:.2}% pipelined throughput, \
                 above the {MAX_ADMIN_OVERHEAD_PCT}% gate"
            );
            failed = true;
        }
    }
    match ratio {
        Some(ratio) if ratio < MIN_PIPELINE_SPEEDUP_8 => {
            eprintln!(
                "FAIL: pipelined throughput at 8 clients is {ratio:.2}x oneshot, \
                 below the {MIN_PIPELINE_SPEEDUP_8}x gate"
            );
            failed = true;
        }
        Some(_) => println!("gate: pipelined_8 >= {MIN_PIPELINE_SPEEDUP_8}x oneshot_8 — ok"),
        None => {
            eprintln!("FAIL: --enforce needs the 8-client oneshot and pipelined cases");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
