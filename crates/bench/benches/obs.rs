//! Observability overhead: the cost of leaving rap-obs instrumentation
//! compiled into the hot paths.
//!
//! Two claims are measured (and the second asserted):
//!
//! 1. a *disabled* trace collector costs one relaxed atomic load plus a
//!    branch per [`rap_obs::event`] site — reported as ns/event;
//! 2. fleet verification throughput with instrumentation disabled is
//!    within 2% of the same fleet with the collector enabled *and
//!    drained* — i.e. the always-on counters plus the disabled-tracing
//!    fast path are not a tax on the replay loop.
//!
//! `--quick` shrinks the fleet for CI smoke runs; `--json <path>`
//! writes the per-case summaries.

use rap_bench::harness::{BenchArgs, BenchGroup, BenchReport};
use rap_link::{link, LinkOptions};
use rap_track::{device_key, CfaEngine, Challenge, EngineConfig, FleetJob, Verifier};

/// Events recorded per micro-bench iteration (amortizes loop overhead).
const EVENTS_PER_ITER: u64 = 1024;

struct Deployment {
    key: rap_track::Key,
    image: armv8m_isa::Image,
    map: rap_link::LinkMap,
    jobs: Vec<FleetJob>,
}

/// One attested workload replicated across a small fleet — enough
/// replay work that the per-event instrumentation cost is visible if it
/// exists, small enough to sample repeatedly.
fn deployment(devices: usize) -> Deployment {
    let w = workloads::gps::workload();
    let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
    let key = device_key("obs-bench");
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
    let jobs = (0..devices)
        .map(|device| FleetJob {
            device: format!("gps-{device:03}"),
            chal,
            reports: att.reports.clone(),
        })
        .collect();
    Deployment {
        key,
        image: linked.image,
        map: linked.map,
        jobs,
    }
}

/// One cold-cache fleet verification pass.
fn run(d: &Deployment, threads: usize) -> usize {
    let verifier = Verifier::builder()
        .key(d.key.clone())
        .image(d.image.clone())
        .map(d.map.clone())
        .build()
        .expect("key/image/map are all set");
    let outcomes = verifier.fleet(threads).run(d.jobs.clone());
    assert!(outcomes.iter().all(|o| o.accepted()), "fleet must verify");
    outcomes.len()
}

fn main() {
    let args = BenchArgs::parse();
    let group = BenchGroup::new("obs").samples(if args.quick { 3 } else { 10 });
    let mut report = BenchReport::default();

    // -- claim 1: disabled event() is a load + branch ------------------
    rap_obs::disable_tracing();
    let disabled_event = group.bench("event_disabled_x1024", || {
        for i in 0..EVENTS_PER_ITER {
            rap_obs::event("obs_bench_noop", i, 0);
        }
    });
    println!(
        "  disabled event(): ~{:.2} ns/site",
        disabled_event.median.as_nanos() as f64 / EVENTS_PER_ITER as f64
    );
    report.record("obs/event_disabled_x1024", disabled_event);

    let counter_inc = group.bench("counter_inc_x1024", || {
        for _ in 0..EVENTS_PER_ITER {
            rap_obs::counter!("obs_bench_ctr_total").inc();
        }
    });
    println!(
        "  counter!().inc(): ~{:.2} ns/site",
        counter_inc.median.as_nanos() as f64 / EVENTS_PER_ITER as f64
    );
    report.record("obs/counter_inc_x1024", counter_inc);

    // -- claim 2: fleet throughput, disabled vs enabled-and-draining ---
    //
    // The two configurations are sampled in *interleaved* rounds (one
    // disabled measurement, then one enabled) so slow machine drift —
    // frequency scaling, cache warmth — hits both sides equally and
    // cancels out of the median comparison.
    let devices = if args.quick { 4 } else { 16 };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(4);
    let (rounds, reps) = if args.quick { (9, 5) } else { (15, 10) };
    let d = deployment(devices);

    let time_reps = |reps: u32| {
        let start = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(run(&d, threads));
        }
        start.elapsed() / reps
    };

    // Warm both paths once before sampling.
    rap_obs::disable_tracing();
    let _ = time_reps(1);
    rap_obs::enable_tracing(0);
    let _ = time_reps(1);
    let _ = rap_obs::drain_events();

    let mut dis_samples = Vec::with_capacity(rounds);
    let mut en_samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        rap_obs::disable_tracing();
        let _ = rap_obs::drain_events();
        dis_samples.push(time_reps(reps));

        rap_obs::enable_tracing(0);
        en_samples.push(time_reps(reps));
        let events = rap_obs::drain_events();
        assert!(!events.is_empty(), "enabled collector must record");
    }
    rap_obs::disable_tracing();
    let _ = rap_obs::drain_events();

    let disabled = rap_bench::harness::Stats::from_samples(dis_samples, u64::from(reps));
    let enabled = rap_bench::harness::Stats::from_samples(en_samples, u64::from(reps));
    report.record("obs/fleet_tracing_disabled", disabled);
    report.record("obs/fleet_tracing_enabled_drained", enabled);

    let ratio = disabled.median.as_secs_f64() / enabled.median.as_secs_f64();
    println!(
        "  fleet medians ({rounds} interleaved rounds x {reps} passes): \
         disabled {:?} vs enabled+drained {:?} (ratio {ratio:.3})",
        disabled.median, enabled.median
    );
    // The 2% comparison needs a host where the two interleaved fleets
    // actually run in parallel; on 1-2 cores the medians are dominated
    // by scheduler noise (observed swings past 7% either way), so the
    // gate is reported but not enforced there — same policy as the
    // scaling bench's speedup gate.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            disabled.median.as_secs_f64() <= enabled.median.as_secs_f64() * 1.02,
            "disabled instrumentation must be within 2% of the enabled collector \
             (disabled {:?}, enabled {:?})",
            disabled.median,
            enabled.median
        );
        println!("  OK: disabled instrumentation within 2% of enabled-and-draining");
    } else {
        println!(
            "  gate: skipped — host has {cores} core(s), the interleaved \
             comparison is noise-bound here (measured ratio {ratio:.3})"
        );
    }

    if let Some(path) = &args.json_out {
        report.write(path).expect("write bench json");
        println!("wrote {path}");
    }
}
