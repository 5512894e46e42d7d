//! Fleet verification throughput: reports/sec for the batch verifier
//! at 1 vs N worker threads, over attestations replicated across a
//! simulated device fleet running the same deployed binary.
//!
//! Prints reports/sec per configuration, the N-thread speedup and the
//! replay-cache counters (the acceptance target for this harness is a
//! ≥ 3x speedup at 8 workers on an 8-way host).
//!
//! `--quick` shrinks the fleet for CI smoke runs; `--json <path>`
//! writes median/p95 per thread configuration (`BENCH_fleet.json`).

use rap_bench::harness::{BenchArgs, BenchGroup, BenchReport};
use rap_link::{link, LinkOptions};
use rap_track::{device_key, CfaEngine, Challenge, EngineConfig, FleetJob, Verifier};

/// Devices simulated per workload.
const FLEET_PER_WORKLOAD: usize = 24;

struct Deployment {
    verifier_key: rap_track::Key,
    image: armv8m_isa::Image,
    map: rap_link::LinkMap,
    jobs: Vec<FleetJob>,
}

/// Attests each workload once and replicates the stream across a
/// simulated fleet of `per_workload` devices (same binary, same
/// challenge round).
fn deployments(per_workload: usize) -> Vec<Deployment> {
    workloads::all()
        .iter()
        .map(|w| {
            let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
            let key = device_key("fleet-bench");
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
                        // Partial reports via the MTB_FLOW watermark:
                        // the long workloads outgrow one 512-entry
                        // buffer, and multi-report streams are the
                        // realistic fleet shape anyway.
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
/// (cold-cache) verifier; returns the total report count.
fn run_fleet(deployments: &[Deployment], threads: usize) -> usize {
    let mut reports = 0usize;
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
        reports += d.jobs.iter().map(|j| j.reports.len()).sum::<usize>();
    }
    reports
}

fn main() {
    let args = BenchArgs::parse();
    let per_workload = if args.quick { 4 } else { FLEET_PER_WORKLOAD };
    let mut deployments = deployments(per_workload);
    if args.quick {
        deployments.truncate(2);
    }
    let total_jobs: usize = deployments.iter().map(|d| d.jobs.len()).sum();
    let total_reports: usize = deployments
        .iter()
        .flat_map(|d| d.jobs.iter())
        .map(|j| j.reports.len())
        .sum();
    println!(
        "fleet: {} deployments x {per_workload} devices = {total_jobs} streams \
         (host parallelism: {})",
        deployments.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Cache-effectiveness probe: one deployment, shared verifier.
    let probe = &deployments[0];
    let verifier = Verifier::builder()
        .key(probe.verifier_key.clone())
        .image(probe.image.clone())
        .map(probe.map.clone())
        .build()
        .expect("key/image/map are all set");
    let _ = verifier
        .fleet(std::thread::available_parallelism().map_or(1, |n| n.get()))
        .run(probe.jobs.clone());
    let stats = verifier.stats();
    println!(
        "replay cache ({}): {:.0}% hit rate, {} cached vs {} live steps",
        probe.jobs[0].device,
        stats.hit_rate() * 100.0,
        stats.cached_steps,
        stats.live_steps
    );

    let group = BenchGroup::new("fleet").samples(if args.quick { 3 } else { 5 });
    let mut report = BenchReport::default();
    let thread_counts: &[usize] = if args.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut baseline = 0.0f64;
    for &threads in thread_counts {
        let case = format!("threads_{threads}");
        let stats = group.bench(&case, || run_fleet(&deployments, threads));
        let per_sec = total_reports as f64 / stats.median.as_secs_f64();
        if threads == 1 {
            baseline = per_sec;
        }
        println!(
            "threads {threads}: {total_reports} reports, median {per_sec:.0} reports/sec (x{:.2})",
            per_sec / baseline
        );
        report.record(&format!("fleet/{case}"), stats);
    }
    if let Some(path) = &args.json_out {
        report.write(path).expect("write bench json");
        println!("wrote {path}");
    }
}
