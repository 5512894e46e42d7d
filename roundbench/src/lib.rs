//! # roundbench — the attestation-round benchmark
//!
//! Starts an in-process [`rap_serve::Server`] on loopback and drives it
//! with closed-loop devices through one of four workloads (see
//! [`Workload`]), reading the program only through its public API. The
//! untraced served run gives the end-to-end metrics; with tracing on, a
//! separate single-threaded pass over the same generated rounds times
//! each layer's public calls and gives the per-layer metrics.
//!
//! `README.md` beside this crate lists the metrics, what each should
//! move, and the findings they show.

#![warn(missing_docs)]

mod alloc_count;
mod inputs;
mod served;
mod sys;
mod traced;

use std::path::PathBuf;

pub use inputs::Workload;

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic shape.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the timed phases of the served run add up to.
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the run writes its files (removed at the end) and spans.
    pub work_dir: PathBuf,
    /// Divides every trial's and the traced pass's round counts, for a
    /// shortened run (1 for the benchmark itself).
    pub shorten: u64,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a median or percentile (0 when not a sample
    /// statistic).
    pub samples: u64,
}

/// The result of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every round matched its ground truth and every check
    /// held.
    pub correct: bool,
    /// Rounds attempted, set-up rounds included.
    pub attempted: u64,
    /// Rounds that failed or contradicted ground truth.
    pub failed: u64,
    /// Why rounds failed (first distinct causes).
    pub causes: Vec<String>,
    /// Facts about the run worth printing (device ids, guard skips).
    pub notes: Vec<String>,
    /// End-to-end metrics from the untraced served run.
    pub end_to_end: Vec<Metric>,
    /// Figures printed beside the end-to-end metrics but kept out of the
    /// JSON result: `failed_round_pct`, which a healthy run reads as 0,
    /// and `round_p50_us`, which jumps between the regimes described in
    /// `README.md`.
    pub report_only: Vec<Metric>,
    /// Per-layer metrics (empty unless [`Options::trace`]).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Looks a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: 0,
    }
}

fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: samples as u64,
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(values: &[u64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median_f64(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// Input generation, set-up or file-system failures. Failed rounds are
/// counted in the outcome, not returned.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let dir = options.work_dir.join(format!(
        "{}-seed{}-pid{}",
        options.workload.name(),
        options.seed,
        std::process::id()
    ));
    let result = run_in(options, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(options: &Options, dir: &std::path::Path) -> Result<Outcome, String> {
    let mut inputs = inputs::Inputs::generate(options.workload, options.seed, dir)?;
    inputs.spec.trial_rounds /= options.shorten.max(1);
    inputs.spec.traced_rounds /= options.shorten.max(1);
    let served = served::run(&inputs, options.seconds)?;

    let timed = &served.timed;
    let rounds = timed.latencies_ns.len().max(1) as f64;
    let sum = |f: &dyn Fn(&served::Trial) -> u64| served.trials.iter().map(f).sum::<u64>() as f64;
    let rounds_per_s = sum(&|t| t.rounds) / (sum(&|t| t.wall_ns) / 1e9);
    let cpu_ns_per_round = sum(&|t| t.cpu_ns) / sum(&|t| t.rounds);
    let setups = &served.setups;
    let setup_median = |f: &dyn Fn(&served::Setup) -> u64| {
        median_f64(setups.iter().map(|s| f(s) as f64).collect())
    };

    let attempted = timed.attempted + served.other.attempted;
    let failed = (timed.failed + served.other.failed).min(attempted);
    let mut outcome = Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        causes: timed
            .causes
            .iter()
            .chain(&served.other.causes)
            .cloned()
            .collect(),
        notes: vec![
            format!("devices {}", served.devices.join(", ")),
            format!(
                "shard-routing guard passed over {} seeded id(s)",
                served.guard_skips
            ),
            format!(
                "{} trial(s), {} timed rounds",
                served.trials.len(),
                timed.latencies_ns.len(),
            ),
        ],
        ..Outcome::default()
    };
    for (i, t) in served.trials.iter().enumerate() {
        outcome.notes.push(format!(
            "trial {i}: {} rounds in {:.3} s, {:.1} us CPU/round, {:.1} minor faults/round, set-up {:.2} ms",
            t.rounds,
            t.wall_ns as f64 / 1e9,
            t.cpu_ns as f64 / 1e3 / t.rounds.max(1) as f64,
            t.minor_faults as f64 / t.rounds.max(1) as f64,
            setups[i].total_ns as f64 / 1e6
        ));
    }

    let respond_ns_per_round = timed.respond_ns as f64 / rounds;
    let failed_round_pct = 100.0 * failed as f64 / attempted.max(1) as f64;
    outcome.report_only = vec![
        metric("failed_round_pct", failed_round_pct, "%"),
        sampled(
            "round_p50_us",
            percentile(&timed.latencies_ns, 0.50) / 1e3,
            "us",
            timed.latencies_ns.len(),
        ),
    ];
    outcome.end_to_end = vec![
        metric("rounds_per_s", rounds_per_s, "rounds/s"),
        sampled(
            "round_p90_us",
            percentile(&timed.latencies_ns, 0.90) / 1e3,
            "us",
            timed.latencies_ns.len(),
        ),
        metric("cpu_us_per_round", cpu_ns_per_round / 1e3, "us"),
        metric(
            "allocs_per_round",
            sum(&|t| t.allocs) / sum(&|t| t.rounds),
            "count",
        ),
        metric(
            "wire_bytes_per_round",
            timed.wire_bytes as f64 / rounds,
            "bytes",
        ),
        metric("device_overhead_pct", inputs.device_overhead_pct, "%"),
        metric("ok_round_pct", 100.0 - failed_round_pct, "%"),
        sampled(
            "setup_s",
            setup_median(&|s| s.total_ns) / 1e9,
            "s",
            setups.len(),
        ),
        metric(
            "peak_rss_mb",
            served.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ];

    if options.trace {
        let spans = options
            .work_dir
            .join(format!("spans-{}.tsv", options.workload.name()));
        let tr = traced::run(&inputs, &spans)?;
        outcome
            .notes
            .push(format!("spans of the traced pass: {}", spans.display()));
        let n = tr.rounds.max(1) as f64;
        let layer = |name: &str| {
            traced::LAYERS
                .iter()
                .position(|l| *l == name)
                .expect("known layer")
        };
        let ns = |name: &str| tr.totals.ns[layer(name)] as f64 / n;
        let allocs = |name: &str| tr.totals.allocs[layer(name)] as f64 / n;
        let layer_sum: f64 = traced::LAYERS
            .iter()
            .filter(|l| **l != "device")
            .map(|l| ns(l))
            .sum();
        let server_ns_per_round = cpu_ns_per_round - respond_ns_per_round;
        let lookups = tr.cache_hits + tr.cache_misses;
        let all_connects: Vec<u64> = timed
            .connect_ns
            .iter()
            .chain(&served.other.connect_ns)
            .copied()
            .collect();
        outcome.per_layer = vec![
            metric("frame.ns_per_round", ns("frame"), "ns"),
            metric("wire.ns_per_round", ns("wire"), "ns"),
            metric("wire.allocs_per_round", allocs("wire"), "count"),
            metric(
                "report.mac_ns_per_round",
                tr.mac_ns as f64 / tr.mac_rounds.max(1) as f64,
                "ns",
            ),
            metric(
                "report.mac_bytes_per_round",
                tr.mac_bytes as f64 / tr.mac_rounds.max(1) as f64,
                "bytes",
            ),
            metric(
                "verifier.begin_ns_per_round",
                tr.totals.begin_ns as f64 / n,
                "ns",
            ),
            metric(
                "verifier.replay_ns_per_round",
                tr.totals.replay_ns as f64 / n,
                "ns",
            ),
            metric("verifier.steps_per_round", tr.steps as f64 / n, "count"),
            metric(
                "verifier.live_steps_per_round",
                tr.live_steps as f64 / n,
                "count",
            ),
            metric(
                "verifier.segment_lookups_per_round",
                lookups as f64 / n,
                "count",
            ),
            metric(
                "verifier.cache_hit_pct",
                100.0 * tr.cache_hits as f64 / lookups.max(1) as f64,
                "%",
            ),
            metric(
                "verifier.replay_allocs_per_round",
                tr.totals.replay_allocs as f64 / n,
                "count",
            ),
            metric("dict.hits_per_round", tr.dict_hits as f64 / n, "count"),
            metric("policy.ns_per_round", ns("policy"), "ns"),
            metric("verdict.seal_ns_per_round", ns("verdict"), "ns"),
            metric(
                "verdict.hashed_bytes_per_round",
                tr.hashed_bytes as f64 / n,
                "bytes",
            ),
            metric("verdict.allocs_per_round", allocs("verdict"), "count"),
            metric(
                "protocol.challenge_ns_per_round",
                tr.totals.challenge_ns as f64 / n,
                "ns",
            ),
            metric(
                "protocol.challenges_per_round",
                timed.challenges as f64 / rounds,
                "count",
            ),
            metric("audit.append_ns_per_round", ns("audit"), "ns"),
            metric("audit.bytes_per_round", tr.audit_bytes as f64 / n, "bytes"),
            metric("audit.reopen_ms", tr.audit_reopen_ns as f64 / 1e6, "ms"),
            sampled(
                "server.connect_us",
                percentile(&all_connects, 0.50) / 1e3,
                "us",
                all_connects.len(),
            ),
            metric(
                "server.ctx_switches_per_round",
                sum(&|t| t.ctx_switches) / sum(&|t| t.rounds),
                "count",
            ),
            metric(
                "server.minor_faults_per_round",
                sum(&|t| t.minor_faults) / sum(&|t| t.rounds),
                "count",
            ),
            metric(
                "server.retries_per_kround",
                1e3 * sum(&|t| t.retries) / sum(&|t| t.rounds),
                "count",
            ),
            metric(
                "server.rss_growth_bytes_per_round",
                served
                    .trials
                    .iter()
                    .map(|t| t.rss_growth as f64)
                    .sum::<f64>()
                    / sum(&|t| t.rounds),
                "bytes",
            ),
            metric("device.respond_ns_per_round", respond_ns_per_round, "ns"),
            sampled(
                "setup.verifier_build_ms",
                setup_median(&|s| s.verifier_build_ns) / 1e6,
                "ms",
                setups.len(),
            ),
            sampled(
                "setup.server_start_ms",
                setup_median(&|s| s.server_start_ns) / 1e6,
                "ms",
                setups.len(),
            ),
            sampled(
                "setup.first_round_ms",
                setup_median(&|s| s.first_round_ns) / 1e6,
                "ms",
                setups.len(),
            ),
            metric(
                "trace.coverage_pct",
                100.0 * layer_sum / server_ns_per_round,
                "%",
            ),
            metric(
                "trace.overhead_pct",
                100.0 * (tr.traced_ns as f64 / tr.plain_ns as f64 - 1.0),
                "%",
            ),
        ];
    }
    Ok(outcome)
}
