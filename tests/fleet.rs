//! Fleet-scale batch verification: equivalence with the sequential
//! verifier, typed rejection of truncated/trailing report streams, and
//! replay-cache behavior across repeated devices.

use armv8m_isa::{Asm, Reg};
use rap_link::{link, LinkOptions};
use rap_track::{
    device_key, CfaEngine, Challenge, EngineConfig, FleetJob, Report, Verifier, Violation,
};

/// Attests one workload and returns everything needed to build jobs.
struct Attested {
    key: rap_track::Key,
    image: armv8m_isa::Image,
    map: rap_link::LinkMap,
    chal: Challenge,
    reports: Vec<Report>,
}

fn attest_workload(w: &workloads::Workload, seed: u64) -> Attested {
    let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
    let key = device_key("fleet-test");
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
                // Drain the MTB into partial reports well before the
                // 512-entry buffer can wrap (§IV-E): the long workloads
                // (prime, sort) record more packets than one buffer.
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

/// Builds a verifier for an attested workload through the builder API.
fn verifier_for(attested: &Attested) -> Verifier {
    Verifier::builder()
        .key(attested.key.clone())
        .image(attested.image.clone())
        .map(attested.map.clone())
        .build()
        .expect("key/image/map are all set")
}

/// Batch verification must be observationally identical to sequential
/// verification over the whole workloads suite — same `VerifiedPath`s
/// for benign streams, same `Violation`s for tampered ones.
#[test]
fn batch_matches_sequential_over_workloads() {
    for w in workloads::all() {
        let attested = attest_workload(&w, 11);
        let benign = FleetJob {
            device: format!("{}-benign", w.name),
            chal: attested.chal,
            reports: attested.reports.clone(),
        };
        // A tampered-but-re-signed variant: first MTB packet redirected
        // (the strongest adversary: holds the key, forges the log).
        let mut forged_reports = attested.reports.clone();
        let mut tampered = None;
        for (seq, r) in forged_reports.iter_mut().enumerate() {
            if !r.log.mtb.is_empty() {
                let mut log = r.log.clone();
                log.mtb[0].dest ^= 0x40;
                *r = Report::new(
                    &attested.key,
                    attested.chal,
                    r.h_mem,
                    log,
                    seq as u32,
                    r.is_final,
                    r.overflow,
                );
                tampered = Some(seq);
                break;
            }
        }
        let wrong_chal = FleetJob {
            device: format!("{}-wrong-chal", w.name),
            chal: Challenge::from_seed(99),
            reports: attested.reports.clone(),
        };
        let mut jobs = vec![benign, wrong_chal];
        if tampered.is_some() {
            jobs.push(FleetJob {
                device: format!("{}-forged", w.name),
                chal: attested.chal,
                reports: forged_reports,
            });
        }
        // Replicate so the batch actually exercises the worker pool.
        let jobs: Vec<FleetJob> = (0..4).flat_map(|_| jobs.clone()).collect();

        let seq_verifier = verifier_for(&attested);
        let batch_verifier = verifier_for(&attested);
        let sequential = seq_verifier.fleet(1).sequential(jobs.clone());
        let batched = batch_verifier.fleet(8).run(jobs);

        assert_eq!(sequential.len(), batched.len());
        for (s, b) in sequential.iter().zip(&batched) {
            assert_eq!(s.device, b.device, "{}: order must be preserved", w.name);
            assert_eq!(
                s.result, b.result,
                "{}: batch and sequential verdicts diverge on {}",
                w.name, s.device
            );
        }
        // The benign streams must verify, the others must not.
        for outcome in &batched {
            let should_pass = outcome.device.ends_with("-benign");
            assert_eq!(
                outcome.accepted(),
                should_pass,
                "{}: unexpected verdict {:?}",
                outcome.device,
                outcome.result
            );
        }

        // The segment table must be accounting-equivalent to the
        // sequential path: every lookup tallies exactly one hit or miss,
        // and each slot is built by exactly one `get_or_init`, so the
        // hit/miss split itself is thread-count independent.
        let seq = seq_verifier.stats();
        let par = batch_verifier.stats();
        assert_eq!(seq.jobs, par.jobs, "{}: job totals diverge", w.name);
        assert_eq!(
            seq.cache_hits, par.cache_hits,
            "{}: cache hit totals diverge (seq {seq:?} vs batch {par:?})",
            w.name
        );
        assert_eq!(
            seq.cache_misses, par.cache_misses,
            "{}: cache miss totals diverge (seq {seq:?} vs batch {par:?})",
            w.name
        );
        assert_eq!(
            seq.cached_steps, par.cached_steps,
            "{}: cached step totals diverge",
            w.name
        );
        assert_eq!(
            seq.live_steps, par.live_steps,
            "{}: live step totals diverge",
            w.name
        );
    }
}

/// The two fleet entry points — dispenser `.run` and the
/// single-threaded `.sequential` reference — agree verdict-for-verdict
/// and in submission order on the same job set.
#[test]
fn fleet_handle_entry_points_agree() {
    let w = &workloads::all()[0];
    let attested = attest_workload(w, 29);
    let jobs: Vec<FleetJob> = (0..6)
        .map(|i| FleetJob {
            device: format!("handle-{i}"),
            chal: attested.chal,
            reports: attested.reports.clone(),
        })
        .collect();
    let verifier = verifier_for(&attested);

    let via_run = verifier.fleet(4).run(jobs.clone());
    let via_seq = verifier.fleet(1).sequential(jobs);
    assert_eq!(via_run.len(), via_seq.len());
    for (a, b) in via_run.iter().zip(&via_seq) {
        assert_eq!((&a.device, &a.result), (&b.device, &b.result));
    }
}

/// Eight workers chewing through an interleave of benign, truncated,
/// wrong-challenge, cut and trailing-forgery streams: outcomes come
/// back in submission order with the right verdict class per stream —
/// and nothing panics or deadlocks the pool.
#[test]
fn stress_interleaved_failures_across_8_workers() {
    let attested = mtb_heavy_attested();
    let full = &attested.reports[0];

    let resign = |log: rap_track::CfLog, is_final: bool| {
        vec![Report::new(
            &attested.key,
            attested.chal,
            full.h_mem,
            log,
            0,
            is_final,
            false,
        )]
    };
    let truncated = {
        let mut log = full.log.clone();
        log.mtb.truncate(log.mtb.len() / 2);
        resign(log, true)
    };
    let trailing = {
        let mut log = full.log.clone();
        let extra = log.mtb[0];
        log.mtb.push(extra);
        resign(log, true)
    };
    let cut = resign(full.log.clone(), false);

    // 40 jobs cycling through the five stream shapes.
    let jobs: Vec<FleetJob> = (0..40)
        .map(|i| {
            let (kind, chal, reports) = match i % 5 {
                0 => ("benign", attested.chal, attested.reports.clone()),
                1 => ("truncated", attested.chal, truncated.clone()),
                2 => (
                    "wrong-chal",
                    Challenge::from_seed(1234),
                    attested.reports.clone(),
                ),
                3 => ("cut", attested.chal, cut.clone()),
                _ => ("trailing", attested.chal, trailing.clone()),
            };
            FleetJob {
                device: format!("{i:02}-{kind}"),
                chal,
                reports,
            }
        })
        .collect();

    let verifier = verifier_for(&attested);
    let outcomes = verifier.fleet(8).run(jobs);

    assert_eq!(outcomes.len(), 40);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert!(
            outcome.device.starts_with(&format!("{i:02}-")),
            "slot {i} holds {} — submission order violated",
            outcome.device
        );
        let kind = outcome.device.split('-').nth(1).unwrap();
        match (kind, &outcome.result) {
            ("benign", Ok(_)) => {}
            ("truncated", Err(Violation::LogExhausted { .. })) => {}
            ("wrong", Err(Violation::BadTag { .. }))
            | ("wrong", Err(Violation::ChallengeMismatch)) => {}
            ("cut", Err(Violation::BadReportStream(_))) => {}
            ("trailing", Err(Violation::TrailingLog { .. }))
            | ("trailing", Err(Violation::UnexpectedSource { .. })) => {}
            (kind, other) => panic!("{}: {kind} stream got {other:?}", outcome.device),
        }
    }
    assert_eq!(verifier.stats().jobs, 40);
}

/// A program whose log carries MTB packets: a forward-exit loop over a
/// RAM load (cannot be statically elided, §IV-D inapplicable).
fn mtb_heavy_attested() -> Attested {
    let mut a = Asm::new();
    a.func("main");
    a.movi(Reg::R0, 0);
    a.mov32(Reg::R2, mcu_sim::RAM_BASE);
    a.label("head");
    a.ldr(Reg::R1, Reg::R2, 0);
    a.cmpi(Reg::R0, 5);
    a.beq("out");
    a.addi(Reg::R0, Reg::R0, 1);
    a.b("head");
    a.label("out");
    a.bl("leaf");
    a.halt();
    a.func("leaf");
    a.push(&[Reg::Lr]);
    a.nop();
    a.pop(&[Reg::Pc]);
    let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
    let key = device_key("truncation");
    let engine = CfaEngine::new(key.clone());
    let chal = Challenge::from_seed(5);
    let mut machine = mcu_sim::Machine::new(linked.image.clone());
    let att = engine
        .attest(&mut machine, &linked.map, chal, EngineConfig::default())
        .expect("attests");
    Attested {
        key,
        image: linked.image,
        map: linked.map,
        chal,
        reports: att.reports,
    }
}

/// A log cut mid-stream (re-signed by the strongest adversary) yields
/// `LogExhausted`, never a panic.
#[test]
fn truncated_log_yields_log_exhausted() {
    let attested = mtb_heavy_attested();
    assert_eq!(attested.reports.len(), 1);
    let full = &attested.reports[0];
    assert!(full.log.mtb.len() >= 2, "need packets to truncate");

    let mut log = full.log.clone();
    log.mtb.truncate(log.mtb.len() / 2);
    let truncated = vec![Report::new(
        &attested.key,
        attested.chal,
        full.h_mem,
        log,
        0,
        true,
        false,
    )];
    let verifier = verifier_for(&attested);
    match verifier.verify(attested.chal, &truncated) {
        Err(Violation::LogExhausted { .. }) => {}
        other => panic!("expected LogExhausted, got {other:?}"),
    }
}

/// Trailing forged packets after the program's natural end yield
/// `TrailingLog`; a report stream whose final flag vanished (cut after
/// a partial report) yields `BadReportStream`.
#[test]
fn trailing_and_cut_streams_are_typed() {
    let attested = mtb_heavy_attested();
    let full = &attested.reports[0];

    let mut log = full.log.clone();
    let extra = log.mtb[0];
    log.mtb.push(extra);
    let trailing = vec![Report::new(
        &attested.key,
        attested.chal,
        full.h_mem,
        log,
        0,
        true,
        false,
    )];
    let verifier = verifier_for(&attested);
    match verifier.verify(attested.chal, &trailing) {
        Err(Violation::TrailingLog { .. }) | Err(Violation::UnexpectedSource { .. }) => {}
        other => panic!("expected TrailingLog/UnexpectedSource, got {other:?}"),
    }

    // Stream cut after a non-final report: the final flag is missing.
    let cut = vec![Report::new(
        &attested.key,
        attested.chal,
        full.h_mem,
        full.log.clone(),
        0,
        false, // claims more reports follow, but the stream ends
        false,
    )];
    match verifier.verify(attested.chal, &cut) {
        Err(Violation::BadReportStream(_)) => {}
        other => panic!("expected BadReportStream, got {other:?}"),
    }
}

/// Repeated devices running the same binary hit the shared replay
/// cache: the second job skips re-decoding deterministic stretches.
#[test]
fn replay_cache_shared_across_jobs() {
    let attested = mtb_heavy_attested();
    let verifier = verifier_for(&attested);

    let first = verifier
        .verify(attested.chal, &attested.reports)
        .expect("verifies");
    let after_first = verifier.stats();
    assert!(
        after_first.cache_misses > 0,
        "cold cache must build segments"
    );
    assert!(
        after_first.cached_steps > 0,
        "stretches must be bulk-applied"
    );

    let second = verifier
        .verify(attested.chal, &attested.reports)
        .expect("verifies");
    let after_second = verifier.stats();
    assert_eq!(first, second, "replay must be deterministic");
    assert_eq!(
        after_second.cache_misses, after_first.cache_misses,
        "warm cache must not rebuild any segment"
    );
    assert!(after_second.cache_hits > after_first.cache_hits);
    assert_eq!(after_second.jobs, 2);

    // A clone shares the same cache.
    let clone = verifier.clone();
    let third = clone
        .verify(attested.chal, &attested.reports)
        .expect("verifies");
    assert_eq!(first, third);
    assert_eq!(clone.stats().cache_misses, after_first.cache_misses);
}

/// `begin` then `run` reaches the verdict `verify` does, and `run`
/// commits its replay counters to the verifier's stats.
#[test]
fn begin_then_run_matches_verify_and_moves_stats() {
    let attested = mtb_heavy_attested();
    let verifier = verifier_for(&attested);
    let oneshot = verifier.verify(attested.chal, &attested.reports);

    let before = verifier.stats();
    let ran = verifier
        .begin(attested.chal, &attested.reports)
        .expect("stream authenticates")
        .run();
    let after = verifier.stats();
    assert_eq!(oneshot, ran);
    let steps = |s: &rap_track::VerifierStats| s.cached_steps + s.live_steps;
    assert_eq!(
        steps(&after) - steps(&before),
        ran.expect("benign stream verifies").steps,
        "run commits every replayed step"
    );
    assert!(after.cache_hits > before.cache_hits, "and its lookups");
    assert_eq!(after.jobs, before.jobs, "a job is counted by verify alone");
}
