//! Sub-path speculation dictionary: wire compression and verifier
//! bulk-replay speedup, per workload.
//!
//! For each workload the bench mines a dictionary from one profiling
//! run (exactly what `rap profile` does), then attests the same
//! execution twice — plain and dictionary-compressed — and measures:
//!
//! * `wire_bytes_plain` / `wire_bytes_dict` — encoded report-stream
//!   bytes, and `bytes_saved_pct` between them;
//! * `verify_plain/<w>` / `verify_dict/<w>` — single-stream
//!   verifications per second against a warm verifier (steady-state
//!   service shape: the segment cache and the dictionary macro cache
//!   are both populated), with `verify_speedup` recorded on the dict
//!   case.
//!
//! * `--quick` runs the loop-heavy subset only with fewer samples;
//! * `--json <path>` writes `BENCH_dict.json` (plus `host_cores` and
//!   `min_loop_heavy_verify_speedup`, the figure the speedup gate
//!   decides on);
//! * `--enforce` exits non-zero unless every [`LOOP_HEAVY`] workload
//!   saves at least [`MIN_BYTES_SAVED_PCT`] wire bytes and speeds
//!   verification up by at least [`MIN_VERIFY_SPEEDUP`].

use rap_bench::harness::{BenchArgs, BenchGroup, BenchReport};
use rap_link::{link, LinkOptions, LinkedProgram};
use rap_obs::Json;
use rap_track::{
    device_key, encode_stream, CfaEngine, Challenge, DictParams, EngineConfig, Key, Report,
    SubPathDict, Verifier,
};

/// Partial-report watermark: the 4 KiB MTB SRAM shape the paper's §V-B
/// transmission figures use (448 packets ≈ 3.5 KiB of an 8-byte-packet
/// SRAM), so "wire bytes per report" matches the deployed config.
const WATERMARK: usize = 448;

/// Mining parameters: more entries than the device matcher can be
/// confused by, support ≥3 so one-off paths don't pollute the table.
const PARAMS: DictParams = DictParams {
    top_k: 32,
    min_support: 3,
    max_len: 16,
};

/// The workloads whose CF_Log is dominated by general-loop MTB packets
/// — where the dictionary must pay for itself. The `--enforce` gates
/// apply to these.
const LOOP_HEAVY: &[&str] = &["prime", "crc32", "bubblesort", "matmult", "fir"];

/// Enforced minimum wire-bytes saving on loop-heavy workloads.
const MIN_BYTES_SAVED_PCT: f64 = 30.0;

/// Enforced minimum single-stream verification speedup on loop-heavy
/// workloads.
const MIN_VERIFY_SPEEDUP: f64 = 1.15;

fn bench_key() -> Key {
    device_key("dict-bench")
}

/// One workload's prepared artifacts: both report streams and both
/// verifiers.
struct Prepared {
    name: &'static str,
    plain_reports: Vec<Report>,
    dict_reports: Vec<Report>,
    wire_bytes_plain: usize,
    wire_bytes_dict: usize,
    dict_entries: usize,
    dict_hits: usize,
    verifier_plain: Verifier,
    verifier_dict: Verifier,
    chal: Challenge,
}

fn attest(
    w: &workloads::Workload,
    linked: &LinkedProgram,
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
                max_instrs: w.max_instrs * 2,
                watermark: Some(WATERMARK),
            },
        )
        .unwrap_or_else(|e| panic!("{}: attest: {e}", w.name))
}

fn prepare(w: &workloads::Workload) -> Prepared {
    let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
    let chal = Challenge::from_seed(42);
    let key = bench_key();

    let plain = attest(w, &linked, &CfaEngine::new(key.clone()), chal);
    let h_mem = plain.reports.first().expect("reports").h_mem;
    let dict = SubPathDict::mine(&plain.combined_log(), h_mem, w.name, PARAMS);

    let compressed = attest(
        w,
        &linked,
        &CfaEngine::new(key.clone()).with_dict(dict.entries().to_vec()),
        chal,
    );
    let dict_hits = compressed
        .reports
        .iter()
        .map(|r| r.log.dict_hits.len())
        .sum();

    let verifier_plain = Verifier::builder()
        .key(key.clone())
        .image(linked.image.clone())
        .map(linked.map.clone())
        .build()
        .expect("required fields set");
    let verifier_dict = Verifier::builder()
        .key(key)
        .image(linked.image.clone())
        .map(linked.map)
        .dict(dict)
        .build()
        .expect("required fields set");

    Prepared {
        name: w.name,
        wire_bytes_plain: encode_stream(&plain.reports).len(),
        wire_bytes_dict: encode_stream(&compressed.reports).len(),
        dict_entries: plainly_usable_entries(&verifier_dict),
        dict_hits,
        plain_reports: plain.reports,
        dict_reports: compressed.reports,
        verifier_plain,
        verifier_dict,
        chal,
    }
}

fn plainly_usable_entries(v: &Verifier) -> usize {
    v.dict().map(SubPathDict::len).unwrap_or(0)
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = BenchReport::default();
    let mut failures: Vec<String> = Vec::new();
    let mut min_speedup = f64::INFINITY;

    let selected: Vec<workloads::Workload> = workloads::all()
        .into_iter()
        .filter(|w| !args.quick || LOOP_HEAVY.contains(&w.name))
        .collect();

    let group = BenchGroup::new("dict").samples(if args.quick { 3 } else { 7 });

    println!("| workload | wire plain | wire dict | saved | verify speedup |");
    println!("|---|---|---|---|---|");

    for w in &selected {
        let p = prepare(w);
        let saved_pct = if p.wire_bytes_plain > 0 {
            100.0 * (p.wire_bytes_plain.saturating_sub(p.wire_bytes_dict)) as f64
                / p.wire_bytes_plain as f64
        } else {
            0.0
        };

        // Equivalence sanity inside the bench: both streams must accept
        // and agree before their timings mean anything.
        let base = p
            .verifier_plain
            .verify(p.chal, &p.plain_reports)
            .unwrap_or_else(|e| panic!("{}: plain rejected: {e}", p.name));
        let via_dict = p
            .verifier_dict
            .verify(p.chal, &p.dict_reports)
            .unwrap_or_else(|e| panic!("{}: dict rejected: {e}", p.name));
        assert_eq!(base, via_dict, "{}: replay equivalence", p.name);

        let plain_stats = group.bench(&format!("verify_plain/{}", p.name), || {
            p.verifier_plain
                .verify(p.chal, &p.plain_reports)
                .expect("plain verifies")
        });
        let dict_stats = group.bench(&format!("verify_dict/{}", p.name), || {
            p.verifier_dict
                .verify(p.chal, &p.dict_reports)
                .expect("dict verifies")
        });
        let speedup = dict_stats.per_sec() / plain_stats.per_sec();

        println!(
            "| {} | {} B | {} B | {saved_pct:.0}% | {speedup:.2}x |",
            p.name, p.wire_bytes_plain, p.wire_bytes_dict
        );

        report.record_with(
            &format!("dict/verify_plain/{}", p.name),
            plain_stats,
            [(
                "verifications_per_sec",
                Json::Uint(plain_stats.per_sec() as u64),
            )],
        );
        report.record_with(
            &format!("dict/verify_dict/{}", p.name),
            dict_stats,
            [
                (
                    "verifications_per_sec",
                    Json::Uint(dict_stats.per_sec() as u64),
                ),
                ("wire_bytes_plain", Json::Uint(p.wire_bytes_plain as u64)),
                ("wire_bytes_dict", Json::Uint(p.wire_bytes_dict as u64)),
                ("bytes_saved_pct", Json::Num(saved_pct)),
                ("reports", Json::Uint(p.plain_reports.len() as u64)),
                ("dict_entries", Json::Uint(p.dict_entries as u64)),
                ("dict_hits", Json::Uint(p.dict_hits as u64)),
                ("verify_speedup", Json::Num(speedup)),
                ("loop_heavy", Json::Bool(LOOP_HEAVY.contains(&p.name))),
            ],
        );

        if LOOP_HEAVY.contains(&p.name) {
            min_speedup = min_speedup.min(speedup);
            if saved_pct < MIN_BYTES_SAVED_PCT {
                failures.push(format!(
                    "{}: wire bytes saved {saved_pct:.1}% < {MIN_BYTES_SAVED_PCT}%",
                    p.name
                ));
            }
            if speedup < MIN_VERIFY_SPEEDUP {
                failures.push(format!(
                    "{}: verify speedup {speedup:.2}x < {MIN_VERIFY_SPEEDUP}x",
                    p.name
                ));
            }
        }
    }

    report.field("min_loop_heavy_verify_speedup", Json::Num(min_speedup));
    if let Some(path) = &args.json_out {
        report.write(path).expect("write bench json");
        println!("bench json -> {path}");
    }

    if failures.is_empty() {
        println!("gate: ok — all loop-heavy workloads met the dictionary thresholds");
    } else {
        for f in &failures {
            println!("gate: MISS — {f}");
        }
        if args.enforce {
            std::process::exit(1);
        }
    }
}
