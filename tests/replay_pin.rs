//! Pins the verifier's parse of every workload, round by round.
//!
//! Each workload's plain and dictionary report streams are verified
//! once benign and nine times forged: a flipped MTB source, a flipped
//! destination and a dropped packet, each at 10%, 50% and 99% of the
//! log and re-signed, so every forgery passes the MAC check and reaches
//! replay. Per round the verdict (the violation with its fields, or the
//! reconstructed path's size, steps and digest) and the movement of the
//! verifier's live and cached replay-step counters must match
//! `tests/replay_pin.txt` line for line, and no forged round may cost
//! the verifier a multiple of its benign round's replay steps.
//!
//! The counters live in the process-global registry, so this binary
//! holds a single test and every delta is exact. On a mismatch the
//! actual table is written to the build's test scratch directory and
//! its path is printed; replace the checked-in table with it only when
//! the parse change is intended.

use rap_crypto::sha256;
use rap_track::{
    device_key, CfaEngine, Challenge, DictParams, EngineConfig, Report, SubPathDict, Verifier,
};

const TABLE: &str = include_str!("replay_pin.txt");

/// The parameters `tests/dict.rs` mines with.
const PARAMS: DictParams = DictParams {
    top_k: 32,
    min_support: 3,
    max_len: 16,
};

const COUNTERS: [&str; 2] = [
    "verifier_replay_live_steps_total",
    "verifier_replay_cached_steps_total",
];

/// A forged round must replay fewer than this many times its benign
/// round's steps: a forgery ends the single pass where it diverges, so
/// it never re-walks the log.
const FORGED_COST_BOUND: u64 = 2;

#[derive(Debug, Clone, Copy)]
enum Forgery {
    Source,
    Dest,
    Drop,
}

fn counters() -> [u64; 2] {
    COUNTERS.map(|name| rap_obs::global().counter(name).get())
}

fn attest(
    w: &workloads::Workload,
    linked: &rap_link::LinkedProgram,
    engine: &CfaEngine,
    chal: Challenge,
) -> rap_track::Attestation {
    let mut machine = mcu_sim::Machine::new(linked.image.clone());
    (w.attach)(&mut machine);
    engine
        .attest(
            &mut machine,
            &linked.map,
            chal,
            EngineConfig {
                watermark: Some(448),
                max_instrs: w.max_instrs * 2,
            },
        )
        .unwrap_or_else(|e| panic!("{}: attest: {e}", w.name))
}

/// `reports` with one residual MTB packet at `pct`% of the stream's
/// packets forged, its report re-signed. `None` when the stream
/// carries no packet to forge.
fn forge(reports: &[Report], key: &[u8], forgery: Forgery, pct: usize) -> Option<Vec<Report>> {
    let total: usize = reports.iter().map(|r| r.log.mtb.len()).sum();
    let mut at = (total * pct / 100).min(total.checked_sub(1)?);
    let mut forged = reports.to_vec();
    for r in &mut forged {
        if at >= r.log.mtb.len() {
            at -= r.log.mtb.len();
            continue;
        }
        let mut log = r.log.clone();
        match forgery {
            Forgery::Source => log.mtb[at].source ^= 2,
            Forgery::Dest => log.mtb[at].dest ^= 2,
            Forgery::Drop => {
                log.mtb.remove(at);
                // Hits keep expanding before the same residual packets.
                for hit in &mut log.dict_hits {
                    if hit.at as usize > at {
                        hit.at -= 1;
                    }
                }
            }
        }
        *r = Report::new(key, r.chal, r.h_mem, log, r.seq, r.is_final, r.overflow);
        break;
    }
    Some(forged)
}

/// One table line: the round's verdict and its counter deltas, and the
/// round's replay steps (live + cached).
fn judge(verifier: &Verifier, chal: Challenge, reports: &[Report]) -> (String, u64) {
    let before = counters();
    let verdict = match verifier.verify(chal, reports) {
        Ok(path) => {
            let digest = sha256(format!("{:?}", path.events).as_bytes());
            let hex: String = digest[..8].iter().map(|b| format!("{b:02x}")).collect();
            format!(
                "accepted events={} steps={} path={hex}",
                path.events.len(),
                path.steps
            )
        }
        Err(v) => format!("rejected {v:?}"),
    };
    let delta: Vec<u64> = counters()
        .iter()
        .zip(before)
        .map(|(after, before)| after - before)
        .collect();
    let line = format!("{verdict} live={} cached={}", delta[0], delta[1]);
    (line, delta[0] + delta[1])
}

#[test]
fn every_parse_matches_the_pinned_table() {
    let key = device_key("replay-pin");
    let chal = Challenge::from_seed(7);
    let mut actual = String::new();
    let mut costly = Vec::new();
    for w in workloads::all() {
        let linked = rap_link::link(&w.module, 0, rap_link::LinkOptions::default())
            .unwrap_or_else(|e| panic!("{}: link: {e}", w.name));
        let plain = attest(&w, &linked, &CfaEngine::new(key.clone()), chal);
        let h_mem = plain.reports.first().expect("reports").h_mem;
        let dict = SubPathDict::mine(&plain.combined_log(), h_mem, w.name, PARAMS);
        let compressed = attest(
            &w,
            &linked,
            &CfaEngine::new(key.clone()).with_dict(dict.entries().to_vec()),
            chal,
        );
        let builder = Verifier::builder()
            .key(key.clone())
            .image(linked.image.clone())
            .map(linked.map.clone());
        let legs = [
            (
                "plain",
                builder.clone().build().expect("builds"),
                plain.reports,
            ),
            (
                "dict",
                builder.dict(dict).build().expect("builds"),
                compressed.reports,
            ),
        ];
        for (stream, verifier, reports) in &legs {
            let (line, benign_steps) = judge(verifier, chal, reports);
            assert!(
                line.starts_with("accepted"),
                "{} {stream}: benign round rejected: {line}",
                w.name
            );
            actual.push_str(&format!("{} {stream} benign {line}\n", w.name));
            for forgery in [Forgery::Source, Forgery::Dest, Forgery::Drop] {
                for pct in [10, 50, 99] {
                    let round = format!("{forgery:?}@{pct}%");
                    let Some(forged) = forge(reports, &key, forgery, pct) else {
                        actual.push_str(&format!("{} {stream} {round} no-packets\n", w.name));
                        continue;
                    };
                    let (line, steps) = judge(verifier, chal, &forged);
                    if steps >= FORGED_COST_BOUND * benign_steps {
                        costly.push(format!(
                            "{} {stream} {round}: {steps} steps against {benign_steps}",
                            w.name
                        ));
                    }
                    actual.push_str(&format!("{} {stream} {round} {line}\n", w.name));
                }
            }
        }
    }
    assert!(
        costly.is_empty(),
        "forged rounds at or above {FORGED_COST_BOUND}x their benign replay steps:\n  {}",
        costly.join("\n  ")
    );
    if actual != TABLE {
        let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/replay_pin.actual.txt");
        std::fs::write(out, &actual).expect("write the actual table");
        let diverged: Vec<String> = actual
            .lines()
            .zip(TABLE.lines())
            .filter(|(a, want)| a != want)
            .take(3)
            .map(|(a, want)| format!("  want: {want}\n   got: {a}"))
            .collect();
        panic!(
            "replay diverged from tests/replay_pin.txt ({} lines actual, {} pinned); \
             first differences:\n{}\nfull actual table: {out}",
            actual.lines().count(),
            TABLE.lines().count(),
            diverged.join("\n")
        );
    }
}
