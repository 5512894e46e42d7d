//! Fleet-verifier scaling matrix: wall time and speedup at 1/2/4/8
//! worker threads over the workload suite, with a regression gate.
//!
//! This is the acceptance harness for the batch-layer contention work
//! (the lock-free segment table, atomic-ticket dispenser, merge-at-join
//! stats): each case re-verifies the same fleet with a different pool
//! size, and `speedup_vs_1` is the 1-thread median divided by the
//! case's median.
//!
//! * `--quick` shrinks the fleet and runs threads {1, 2, 4} only — the
//!   `threads_2` row gives small hosts an attributable scaling point;
//! * `--json <path>` writes `BENCH_scaling.json` with `speedup_vs_1`
//!   per case;
//! * `--enforce` exits non-zero if the 4-thread speedup is below 1.5×
//!   — skipped (with a note) on hosts with fewer than 4 cores, where
//!   the pool cannot physically scale. Under `--enforce`, a case whose
//!   thread count exceeds the host's parallelism records
//!   `speedup_skipped` instead of `speedup_vs_1`: a sub-1× "speedup"
//!   measured on an oversubscribed host is a fact about the host, not
//!   the pool, and committing it as a figure misleads.
//!
//! The final markdown table is pasted into README §"Scaling".

use rap_bench::harness::{BenchArgs, BenchGroup, BenchReport};
use rap_link::{link, LinkOptions};
use rap_obs::Json;
use rap_track::{device_key, CfaEngine, Challenge, EngineConfig, FleetJob, Verifier};

/// Devices simulated per workload (full mode).
const FLEET_PER_WORKLOAD: usize = 16;

/// The gate: minimum acceptable 4-thread speedup over 1 thread.
const MIN_SPEEDUP_4: f64 = 1.5;

struct Deployment {
    verifier_key: rap_track::Key,
    image: armv8m_isa::Image,
    map: rap_link::LinkMap,
    jobs: Vec<FleetJob>,
}

/// Attests each workload once and replicates the stream across
/// `per_workload` simulated devices (same binary, same challenge
/// round) — the same fleet shape as `benches/fleet.rs`.
fn deployments(per_workload: usize) -> Vec<Deployment> {
    workloads::all()
        .iter()
        .map(|w| {
            let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
            let key = device_key("scaling-bench");
            let engine = CfaEngine::new(key.clone());
            let chal = Challenge::from_seed(7);
            let mut machine = mcu_sim::Machine::new(linked.image.clone());
            (w.attach)(&mut machine);
            let att = engine
                .attest(
                    &mut machine,
                    &linked.map,
                    chal,
                    EngineConfig {
                        max_instrs: w.max_instrs * 2,
                        watermark: Some(256),
                    },
                )
                .expect("workload attests");
            let jobs = (0..per_workload)
                .map(|device| FleetJob {
                    device: format!("{}-{device:03}", w.name),
                    chal,
                    reports: att.reports.clone(),
                })
                .collect();
            Deployment {
                verifier_key: key,
                image: linked.image,
                map: linked.map,
                jobs,
            }
        })
        .collect()
}

/// Verifies every deployment's fleet with `threads` workers on a fresh
/// (cold-cache) verifier per deployment.
fn run_fleet(deployments: &[Deployment], threads: usize) {
    for d in deployments {
        let verifier = Verifier::builder()
            .key(d.verifier_key.clone())
            .image(d.image.clone())
            .map(d.map.clone())
            .build()
            .expect("key/image/map are all set");
        let outcomes = verifier.fleet(threads).run(d.jobs.clone());
        assert!(
            outcomes.iter().all(|o| o.accepted()),
            "benign fleet must verify"
        );
    }
}

fn main() {
    let args = BenchArgs::parse();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_workload = if args.quick { 4 } else { FLEET_PER_WORKLOAD };
    let mut deployments = deployments(per_workload);
    if args.quick {
        deployments.truncate(2);
    }
    let total_jobs: usize = deployments.iter().map(|d| d.jobs.len()).sum();
    println!(
        "scaling: {} deployments x {per_workload} devices = {total_jobs} streams \
         (host parallelism: {cores})",
        deployments.len()
    );

    let thread_counts: &[usize] = if args.quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let group = BenchGroup::new("fleet").samples(if args.quick { 3 } else { 5 });
    let mut report = BenchReport::default();
    let mut rows: Vec<(usize, rap_bench::harness::Stats, Option<f64>)> = Vec::new();
    let mut baseline_median = 0.0f64;
    for &threads in thread_counts {
        let case = format!("threads_{threads}");
        let stats = group.bench(&case, || run_fleet(&deployments, threads));
        let median = stats.median.as_secs_f64();
        if threads == 1 {
            baseline_median = median;
        }
        let measured = if median > 0.0 {
            baseline_median / median
        } else {
            f64::INFINITY
        };
        // Refuse to record a speedup the host could not have produced:
        // with fewer cores than pool threads the figure measures
        // oversubscription, not the dispatcher.
        let speedup = if !args.enforce || cores >= threads {
            Some(measured)
        } else {
            println!(
                "note: threads_{threads} speedup not recorded — host has {cores} core(s) \
                 (measured {measured:.2}x would reflect oversubscription)"
            );
            None
        };
        let mut extras = vec![("threads", Json::Uint(threads as u64))];
        match speedup {
            Some(s) => extras.push(("speedup_vs_1", Json::Num(s))),
            None => extras.push((
                "speedup_skipped",
                Json::Str(format!("host has {cores} core(s) < {threads} threads")),
            )),
        }
        report.record_with(&format!("fleet/{case}"), stats, extras);
        rows.push((threads, stats, speedup));
    }

    // Markdown table for README §"Scaling".
    println!("\n| threads | median | p95 | speedup vs 1 |");
    println!("|---:|---:|---:|---:|");
    for (threads, stats, speedup) in &rows {
        let speedup = match speedup {
            Some(s) => format!("{s:.2}×"),
            None => "— (host-limited)".to_string(),
        };
        println!(
            "| {threads} | {:.1}µs | {:.1}µs | {speedup} |",
            stats.median.as_nanos() as f64 / 1_000.0,
            stats.p95.as_nanos() as f64 / 1_000.0,
        );
    }

    if let Some(path) = &args.json_out {
        report.write(path).expect("write bench json");
        println!("wrote {path}");
    }

    if args.enforce {
        let four = rows.iter().find(|(t, _, _)| *t == 4);
        match four {
            Some((_, _, Some(speedup))) => {
                if *speedup < MIN_SPEEDUP_4 {
                    eprintln!(
                        "FAIL: 4-thread speedup {speedup:.2}x is below the \
                         {MIN_SPEEDUP_4}x gate (host parallelism: {cores})"
                    );
                    std::process::exit(1);
                }
                println!("gate: 4-thread speedup {speedup:.2}x >= {MIN_SPEEDUP_4}x — ok");
            }
            Some((_, _, None)) => {
                println!(
                    "gate: skipped — host has {cores} core(s), a 4-thread pool cannot \
                     scale here (speedup not recorded)"
                );
            }
            None => println!("gate: skipped — no threads_4 case in this run"),
        }
    }
}
