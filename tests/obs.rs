//! Observability-layer integration: the global rap-obs registry must
//! agree exactly with the verifier's own [`VerifierStats`] whether jobs
//! run sequentially or through the worker pool, histograms must be
//! internally consistent, and the `--trace` document must hold one
//! `verify` span per job.
//!
//! The registry is process-global, so every test in this binary
//! serializes on [`OBS_LOCK`] and works with snapshot *diffs* (movement
//! across its own run), never absolute values.

use std::sync::Mutex;
use std::time::Instant;

use rap_link::{link, LinkOptions};
use rap_obs::{Json, Snapshot};
use rap_track::{
    device_key, CfaEngine, Challenge, EngineConfig, FleetJob, Report, Verifier, VerifierStats,
};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct Attested {
    key: rap_track::Key,
    image: armv8m_isa::Image,
    map: rap_link::LinkMap,
    chal: Challenge,
    reports: Vec<Report>,
}

fn attest_workload(w: &workloads::Workload, seed: u64) -> Attested {
    let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
    let key = device_key("obs-test");
    let engine = CfaEngine::new(key.clone());
    let chal = Challenge::from_seed(seed);
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
    Attested {
        key,
        image: linked.image,
        map: linked.map,
        chal,
        reports: att.reports,
    }
}

fn fleet_jobs(attested: &Attested, copies: usize) -> Vec<FleetJob> {
    (0..copies)
        .map(|i| FleetJob {
            device: format!("dev-{i:03}"),
            chal: attested.chal,
            reports: attested.reports.clone(),
        })
        .collect()
}

fn fresh_verifier(attested: &Attested) -> Verifier {
    Verifier::builder()
        .key(attested.key.clone())
        .image(attested.image.clone())
        .map(attested.map.clone())
        .build()
        .expect("key/image/map are all set")
}

/// The registry movement attributable to one verification run.
fn delta_of(run: impl FnOnce()) -> Snapshot {
    let baseline = rap_obs::global().snapshot();
    run();
    rap_obs::global().snapshot().diff(&baseline)
}

/// Registry counters the run should have produced, derived from the
/// verifier's own stats (the two accounting paths are independent).
fn assert_registry_matches_stats(delta: &Snapshot, stats: &VerifierStats, label: &str) {
    assert_eq!(
        delta.counter("verifier_jobs_total"),
        stats.jobs,
        "{label}: jobs"
    );
    assert_eq!(
        delta.counter("verifier_cache_hits_total") + delta.counter("verifier_cache_misses_total"),
        stats.cache_hits + stats.cache_misses,
        "{label}: cache lookups"
    );
    assert_eq!(
        delta.counter("verifier_replay_live_steps_total"),
        stats.live_steps,
        "{label}: live steps"
    );
    assert_eq!(
        delta.counter("verifier_replay_cached_steps_total"),
        stats.cached_steps,
        "{label}: cached steps"
    );
}

/// Satellite: with 4+ workers the aggregated registry counters —
/// reports verified, cache hits+misses, live+cached replay steps —
/// exactly match a sequential run of the same jobs.
#[test]
fn fleet_counters_match_sequential_totals() {
    let _guard = lock();
    let attested = attest_workload(&workloads::gps::workload(), 3);
    let jobs = fleet_jobs(&attested, 12);

    let seq_verifier = fresh_verifier(&attested);
    let seq_delta = delta_of(|| {
        let outcomes = seq_verifier.fleet(1).sequential(jobs.clone());
        assert!(outcomes.iter().all(|o| o.accepted()));
    });
    let seq_stats = seq_verifier.stats();

    let fleet_verifier = fresh_verifier(&attested);
    let fleet_delta = delta_of(|| {
        let outcomes = fleet_verifier.fleet(4).run(jobs.clone());
        assert!(outcomes.iter().all(|o| o.accepted()));
    });
    let fleet_stats = fleet_verifier.stats();

    // Each accounting path is self-consistent...
    assert_registry_matches_stats(&seq_delta, &seq_stats, "sequential");
    assert_registry_matches_stats(&fleet_delta, &fleet_stats, "fleet");

    // ...and the two runs agree on every aggregate. (Hit/miss *splits*
    // may differ — two workers can race to build the same segment — but
    // the lookup total, the step totals and the verdict counters are
    // deterministic.)
    for name in [
        "verifier_jobs_total",
        "verifier_jobs_accepted_total",
        "verifier_jobs_rejected_total",
        "verifier_replay_live_steps_total",
        "verifier_replay_cached_steps_total",
        "batch_jobs_total",
    ] {
        assert_eq!(
            seq_delta.counter(name),
            fleet_delta.counter(name),
            "fleet vs sequential disagree on {name}"
        );
    }
    assert_eq!(
        seq_delta.counter("verifier_cache_hits_total")
            + seq_delta.counter("verifier_cache_misses_total"),
        fleet_delta.counter("verifier_cache_hits_total")
            + fleet_delta.counter("verifier_cache_misses_total"),
        "fleet vs sequential disagree on total cache lookups"
    );
    assert_eq!(seq_stats.jobs, jobs.len() as u64);
    assert_eq!(fleet_stats.live_steps, seq_stats.live_steps);
    assert_eq!(fleet_stats.cached_steps, seq_stats.cached_steps);
}

/// Rejected jobs land in the rejection counter and the per-violation
/// family, and never in the accepted counter.
#[test]
fn violation_kinds_are_counted() {
    let _guard = lock();
    let attested = attest_workload(&workloads::temperature::workload(), 3);
    let verifier = fresh_verifier(&attested);
    let delta = delta_of(|| {
        let wrong = Challenge::from_seed(999);
        assert!(verifier.verify(wrong, &attested.reports).is_err());
    });
    assert_eq!(delta.counter("verifier_jobs_total"), 1);
    assert_eq!(delta.counter("verifier_jobs_rejected_total"), 1);
    assert_eq!(delta.counter("verifier_jobs_accepted_total"), 0);
    assert_eq!(
        delta.counter_family("verifier_violations_total"),
        1,
        "exactly one violation must be recorded: {:?}",
        delta.counters
    );
}

/// Histogram internal consistency: bucket sums equal observation
/// counts, for every histogram the run touched.
#[test]
fn histogram_bucket_sums_equal_counts() {
    let _guard = lock();
    let attested = attest_workload(&workloads::temperature::workload(), 3);
    let jobs = fleet_jobs(&attested, 8);
    let verifier = fresh_verifier(&attested);
    let delta = delta_of(|| {
        let outcomes = verifier.fleet(4).run(jobs);
        assert!(outcomes.iter().all(|o| o.accepted()));
    });

    let hist = delta
        .histogram("batch_job_latency_ns")
        .expect("latency histogram exists");
    assert_eq!(hist.count, 8, "one observation per job");
    assert_eq!(
        hist.buckets.iter().sum::<u64>(),
        hist.count,
        "bucket occupancy must sum to the observation count"
    );
    assert_eq!(hist.bounds.len() + 1, hist.buckets.len());
    for h in &delta.histograms {
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            h.count,
            "{}: bucket occupancy must sum to the observation count",
            h.name
        );
    }
}

/// Acceptance: the `--metrics` JSON produced for a fleet run carries
/// counters that match the `VerifierStats` of that same run.
#[test]
fn metrics_json_matches_verifier_stats() {
    let _guard = lock();
    let (img, map_text, _) =
        rap_cli::cmd_link(rap_cli::DEMO_PROGRAM, rap_cli::LinkCmdOptions::default()).unwrap();
    let (stream, _) = rap_cli::cmd_attest(&img, &map_text, 0, 7, "obs-test", None, None).unwrap();
    let streams: Vec<(String, Vec<u8>)> = (0..6)
        .map(|i| (format!("dev-{i}.rpt"), stream.clone()))
        .collect();

    let baseline = rap_obs::global().snapshot();
    let (ok, _, stats, _) =
        rap_cli::cmd_verify_fleet(&img, &map_text, &streams, 0, 7, "obs-test", 4, None).unwrap();
    assert!(ok);
    let json = rap_cli::metrics_json(&baseline, &stats);

    let doc = rap_obs::json::parse(&json).expect("artifact parses");
    let snap = Snapshot::from_json(doc.get("metrics").expect("metrics section")).unwrap();
    assert_eq!(snap.counter("verifier_jobs_total"), stats.jobs);
    assert_eq!(snap.counter("verifier_jobs_total"), streams.len() as u64);
    assert_eq!(
        snap.counter("verifier_replay_live_steps_total"),
        stats.live_steps
    );
    assert_eq!(
        snap.counter("verifier_replay_cached_steps_total"),
        stats.cached_steps
    );
    assert_eq!(
        snap.counter("verifier_cache_hits_total") + snap.counter("verifier_cache_misses_total"),
        stats.cache_hits + stats.cache_misses
    );

    let vs = doc.get("verifier_stats").expect("stats section");
    assert_eq!(
        vs.get("jobs").and_then(rap_obs::Json::as_u64),
        Some(stats.jobs)
    );
    assert_eq!(
        vs.get("wall_ns").and_then(rap_obs::Json::as_u64),
        Some(stats.wall_ns)
    );

    // The same artifact renders through `rap stats`.
    let rendered = rap_cli::cmd_stats(&json).expect("renders");
    assert!(rendered.contains("verifier_jobs_total"), "{rendered}");
    assert!(rendered.contains("verifier:"), "{rendered}");
}

/// The `--trace` document of `rap verify-fleet` is the admin plane's
/// `EXEMPLARS` shape: one exemplar per job, named and judged as its
/// verdict line, each with one `verify` span as long as the job that
/// ends within the run.
#[test]
fn verify_fleet_trace_has_one_verify_span_per_job() {
    let _guard = lock();
    let (img, map_text, _) =
        rap_cli::cmd_link(rap_cli::DEMO_PROGRAM, rap_cli::LinkCmdOptions::default()).unwrap();
    let (good, _) = rap_cli::cmd_attest(&img, &map_text, 0, 7, "obs-test", None, None).unwrap();
    // Signed without the device key: a forgery the verifier rejects.
    let (forged, _) = rap_cli::cmd_attest(&img, &map_text, 0, 7, "forger", None, None).unwrap();
    let streams: Vec<(String, Vec<u8>)> = [&good, &forged, &good, &good]
        .iter()
        .enumerate()
        .map(|(i, stream)| (format!("dev-{i}.rpt"), stream.to_vec()))
        .collect();

    let started = Instant::now();
    let (ok, verdict, _, trace) =
        rap_cli::cmd_verify_fleet(&img, &map_text, &streams, 0, 7, "obs-test", 4, None).unwrap();
    let run_ns = started.elapsed().as_nanos() as u64;
    assert!(!ok, "{verdict}");
    // `OK       dev-0.rpt: …` or `REJECTED dev-1.rpt: …`, in job order.
    let verdicts: Vec<(&str, bool)> = verdict
        .lines()
        .filter_map(|line| {
            let (accepted, rest) = match line.strip_prefix("OK ") {
                Some(rest) => (true, rest),
                None => (false, line.strip_prefix("REJECTED ")?),
            };
            Some((rest.trim_start().split(':').next()?, accepted))
        })
        .collect();
    assert_eq!(verdicts.iter().filter(|(_, accepted)| !accepted).count(), 1);

    let doc = rap_obs::json::parse(&trace.to_json().to_pretty()).expect("trace parses");
    assert_eq!(doc.get("retained").and_then(Json::as_u64), Some(4));
    let exemplars = doc.get("exemplars").and_then(Json::as_array).unwrap();
    assert_eq!(exemplars.len(), verdicts.len(), "{verdict}");
    for (exemplar, (device, accepted)) in exemplars.iter().zip(&verdicts) {
        assert_eq!(exemplar.get("device").and_then(Json::as_str), Some(*device));
        assert_eq!(exemplar.get("accepted"), Some(&Json::Bool(*accepted)));
        let spans = exemplar.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 1, "one span per job: {spans:?}");
        let span = &spans[0];
        assert_eq!(span.get("stage").and_then(Json::as_str), Some("verify"));
        let dur_ns = span.get("dur_ns").and_then(Json::as_u64).unwrap();
        assert_eq!(
            exemplar.get("total_ns").and_then(Json::as_u64),
            Some(dur_ns)
        );
        let start_ns = span.get("start_ns").and_then(Json::as_u64).unwrap();
        assert!(
            start_ns + dur_ns <= run_ns,
            "{device}: span ends at {} ns, after the {run_ns} ns run",
            start_ns + dur_ns
        );
    }
}

/// `rap verify` traces its one job from the start of the run, timed by
/// the verifier's own wall-clock counter.
#[test]
fn verify_trace_times_its_one_job_by_wall_ns() {
    let _guard = lock();
    let (img, map_text, _) =
        rap_cli::cmd_link(rap_cli::DEMO_PROGRAM, rap_cli::LinkCmdOptions::default()).unwrap();
    let (stream, _) = rap_cli::cmd_attest(&img, &map_text, 0, 7, "obs-test", None, None).unwrap();
    let (ok, verdict, stats, trace) =
        rap_cli::cmd_verify(&img, &map_text, &stream, 0, 7, "obs-test", None).unwrap();
    assert!(ok, "{verdict}");

    let doc = rap_obs::json::parse(&trace.to_json().to_pretty()).expect("trace parses");
    assert_eq!(doc.get("retained").and_then(Json::as_u64), Some(1));
    let exemplar = &doc.get("exemplars").and_then(Json::as_array).unwrap()[0];
    assert_eq!(
        exemplar.get("device").and_then(Json::as_str),
        Some("obs-test")
    );
    assert_eq!(exemplar.get("accepted"), Some(&Json::Bool(true)));
    assert_eq!(
        exemplar.get("total_ns").and_then(Json::as_u64),
        Some(stats.wall_ns)
    );
    let spans = exemplar.get("spans").and_then(Json::as_array).unwrap();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].get("stage").and_then(Json::as_str), Some("verify"));
    assert_eq!(spans[0].get("start_ns").and_then(Json::as_u64), Some(0));
    assert_eq!(
        spans[0].get("dur_ns").and_then(Json::as_u64),
        Some(stats.wall_ns)
    );
}
