//! The three differential oracles.
//!
//! Every generated program is pushed through the full RAP-Track
//! pipeline and checked against three independent notions of
//! correctness:
//!
//! 1. **Transform equivalence** — the `rap-link`-rewritten image must
//!    compute exactly what the original computes ([`ArchState`]:
//!    R0–R7, flags, halt, RAM digest), cost no fewer cycles than the
//!    original (instrumentation only adds work), and re-attest
//!    byte-identically (the whole prover side is deterministic).
//! 2. **Replay fidelity** — the verifier's reconstructed path must
//!    match the simulator's ground-truth transfer trace stub-for-stub,
//!    survive a warm-cache re-verification unchanged, and come back
//!    identical through the fleet (`verifier.fleet(..).run(..)`) path.
//! 3. **Stream safety** — structure-aware mutation of the wire stream
//!    (without the key) and of re-signed logs (worst-case adversary
//!    with the key) must always terminate in a typed verdict: no
//!    panic, no hang, no unbounded allocation.
//!
//! A fourth, deliberately inverted *sabotage* oracle corrupts one MTB
//! packet and asserts the verifier accepts it. The verifier rejects
//! it, so the oracle fails on every program with at least one MTB
//! packet — a guaranteed, reproducible failure used to exercise the
//! campaign's failure reporting and the minimizer end-to-end.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::gen::Program;
use crate::mutate::{mutate_bytes, mutate_dict_reports, mutate_reports};
use crate::rng::{mix, Rng};
use mcu_sim::{ArchState, Machine, RunOutcome};
use rap_link::{link, LinkOptions, LinkedProgram, SiteKind};
use rap_track::{
    decode_stream, device_key, encode_stream, CfaEngine, Challenge, DictParams, EngineConfig,
    FleetJob, Key, PathEvent, Report, SubPathDict, Verifier, Violation, WireError,
};

/// Per-case oracle configuration, fully determined by the campaign
/// settings and the case seed (never by wall clock or iteration
/// timing).
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Prover watermark (None = single final report; Some = pause and
    /// ship partial reports, exercising the multi-report path).
    pub watermark: Option<usize>,
    /// Byte-level plus record-level mutation rounds for oracle 3.
    pub mutation_rounds: usize,
    /// Enable the inverted sabotage oracle.
    pub sabotage: bool,
}

/// Aggregate counters from one passing case.
#[derive(Debug, Clone, Default)]
pub struct CaseResult {
    /// Mutation verdict histogram, keyed `level:mutation:verdict`.
    pub verdicts: BTreeMap<String, u64>,
    /// MTB packets across all reports.
    pub mtb_packets: u64,
    /// DWT loop records across all reports.
    pub loop_records: u64,
    /// Reconstructed path events.
    pub path_events: u64,
    /// Reports in the attestation.
    pub reports: u64,
    /// Instructions retired by the attested run.
    pub attested_instrs: u64,
    /// Dictionary-hit records in the compressed (v2) attestation.
    pub dict_hits: u64,
}

/// A failed oracle: which one, and a human-readable reason.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Oracle name (`transform_equivalence`, `replay_fidelity`,
    /// `stream_safety`, `sabotage`, or `pipeline` for infrastructure
    /// failures such as assembly errors).
    pub oracle: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl CaseFailure {
    fn new(oracle: &'static str, detail: impl Into<String>) -> CaseFailure {
        CaseFailure {
            oracle,
            detail: detail.into(),
        }
    }
}

/// Everything built once per case and shared by the oracles.
struct Pipeline {
    linked: LinkedProgram,
    key: Key,
    chal: Challenge,
    config: EngineConfig,
    plain_state: ArchState,
    plain_outcome: RunOutcome,
    attested_state: ArchState,
    attested_outcome: RunOutcome,
    reports: Vec<Report>,
    transfers: Vec<(u32, u32)>,
    verifier: Verifier,
    /// The same execution attested through a dictionary mined from the
    /// plain run — the v2 stream the dict oracles mutate.
    dict_reports: Vec<Report>,
    /// Verifier with that dictionary loaded.
    verifier_dict: Verifier,
    /// Dictionary-hit records across all dict reports.
    dict_hits: u64,
}

const MAX_INSTRS: u64 = 4_000_000;

/// Mining parameters for the per-case dictionary: small generated
/// programs need low support and short sub-paths to produce hits at
/// all, and a small table keeps the device matcher cheap.
const DICT_PARAMS: DictParams = DictParams {
    top_k: 8,
    min_support: 2,
    max_len: 8,
};

fn build(program: &Program, case_seed: u64, cfg: &OracleConfig) -> Result<Pipeline, CaseFailure> {
    let module = program.lower();
    let plain_image = module
        .assemble(0)
        .map_err(|e| CaseFailure::new("pipeline", format!("plain assemble: {e}")))?;
    let mut plain = Machine::new(plain_image);
    let plain_outcome = plain
        .run(&mut mcu_sim::NullSecureWorld, MAX_INSTRS)
        .map_err(|e| CaseFailure::new("pipeline", format!("plain run: {e}")))?;
    let plain_state = plain.arch_state();

    let linked = link(&module, 0, LinkOptions::default())
        .map_err(|e| CaseFailure::new("pipeline", format!("link: {e}")))?;
    let key = device_key("fuzz");
    let engine = CfaEngine::new(key.clone());
    let mut machine = Machine::new(linked.image.clone());
    machine.enable_transfer_trace();
    let chal = Challenge::from_seed(case_seed);
    let config = EngineConfig {
        watermark: cfg.watermark,
        max_instrs: MAX_INSTRS,
    };
    let att = engine
        .attest(&mut machine, &linked.map, chal, config)
        .map_err(|e| CaseFailure::new("pipeline", format!("attest: {e}")))?;
    let attested_state = machine.arch_state();
    let transfers = machine
        .transfer_trace()
        .expect("transfer trace was enabled")
        .to_vec();
    let verifier = Verifier::builder()
        .key(key.clone())
        .image(linked.image.clone())
        .map(linked.map.clone())
        .build()
        .expect("key/image/map are all set");

    // Dictionary leg: mine sub-paths from the plain run, attest the
    // same execution again with the device matcher armed, and load the
    // dictionary into a second verifier.
    let h_mem = att
        .reports
        .first()
        .ok_or_else(|| CaseFailure::new("pipeline", "attestation produced no reports"))?
        .h_mem;
    let dict = SubPathDict::mine(&att.combined_log(), h_mem, "fuzz", DICT_PARAMS);
    let dict_engine = CfaEngine::new(key.clone()).with_dict(dict.entries().to_vec());
    let mut dict_machine = Machine::new(linked.image.clone());
    let dict_att = dict_engine
        .attest(&mut dict_machine, &linked.map, chal, config)
        .map_err(|e| CaseFailure::new("pipeline", format!("dict attest: {e}")))?;
    let dict_hits = dict_att
        .reports
        .iter()
        .map(|r| r.log.dict_hits.len() as u64)
        .sum();
    let verifier_dict = Verifier::builder()
        .key(key.clone())
        .image(linked.image.clone())
        .map(linked.map.clone())
        .dict(dict)
        .build()
        .expect("key/image/map are all set");

    Ok(Pipeline {
        linked,
        key,
        chal,
        config,
        plain_state,
        plain_outcome,
        attested_state,
        attested_outcome: att.outcome,
        reports: att.reports,
        transfers,
        verifier,
        dict_reports: dict_att.reports,
        verifier_dict,
        dict_hits,
    })
}

// -------------------------------------------------------------------
// Oracle 1: transform equivalence
// -------------------------------------------------------------------

fn transform_equivalence(p: &Pipeline) -> Result<(), CaseFailure> {
    const O: &str = "transform_equivalence";
    if p.plain_state != p.attested_state {
        return Err(CaseFailure::new(
            O,
            format!(
                "architectural end states diverge:\n  plain:       {:?}\n  transformed: {:?}",
                p.plain_state, p.attested_state
            ),
        ));
    }
    if p.attested_outcome.cycles < p.plain_outcome.cycles {
        return Err(CaseFailure::new(
            O,
            format!(
                "transformed run cost fewer cycles than the original ({} < {}) — \
                 instrumentation cannot remove work",
                p.attested_outcome.cycles, p.plain_outcome.cycles
            ),
        ));
    }
    // The prover side is fully deterministic: attesting the same image
    // under the same challenge must reproduce the evidence byte for
    // byte, with identical cost accounting.
    let engine = CfaEngine::new(p.key.clone());
    let mut machine = Machine::new(p.linked.image.clone());
    let att2 = engine
        .attest(&mut machine, &p.linked.map, p.chal, p.config)
        .map_err(|e| CaseFailure::new(O, format!("re-attest: {e}")))?;
    if encode_stream(&att2.reports) != encode_stream(&p.reports) {
        return Err(CaseFailure::new(
            O,
            "re-attestation produced a different wire stream",
        ));
    }
    if att2.outcome != p.attested_outcome {
        return Err(CaseFailure::new(
            O,
            format!(
                "re-attestation cost differs: {:?} vs {:?}",
                att2.outcome, p.attested_outcome
            ),
        ));
    }
    if machine.arch_state() != p.attested_state {
        return Err(CaseFailure::new(
            O,
            "re-attestation reached a different end state",
        ));
    }
    Ok(())
}

// -------------------------------------------------------------------
// Oracle 2: replay fidelity
// -------------------------------------------------------------------

fn replay_fidelity(p: &Pipeline) -> Result<Vec<PathEvent>, CaseFailure> {
    const O: &str = "replay_fidelity";
    let path = p
        .verifier
        .verify(p.chal, &p.reports)
        .map_err(|e| CaseFailure::new(O, format!("honest evidence rejected: {e}")))?;

    // Ground truth: dynamic executions of each MTBAR stub, from the
    // simulator's transfer trace.
    let mut stub_executions: HashMap<u32, usize> = HashMap::new();
    for (src, _) in &p.transfers {
        if p.linked.map.site_at_src(*src).is_some() {
            *stub_executions.entry(*src).or_default() += 1;
        }
    }

    // Reconstruction: map each replayed event's MTBDR-side site to the
    // stub it targets and count.
    let mut reconstructed: HashMap<u32, usize> = HashMap::new();
    for e in &path.events {
        let (site_addr, not_taken) = match e {
            PathEvent::IndirectCall { site, .. }
            | PathEvent::Return { site, .. }
            | PathEvent::CondTaken { site, .. }
            | PathEvent::LoopContinue { site }
            | PathEvent::IndirectJump { site, .. } => (Some(*site), false),
            // A fall-through either consumed a CondFallthrough stub
            // (site = the inserted B) or executed no stub at all.
            PathEvent::CondNotTaken { site } => (Some(*site), true),
            _ => (None, false),
        };
        let Some(mtbdr_addr) = site_addr else {
            continue;
        };
        let Some(instr) = p.linked.image.instr_at(mtbdr_addr) else {
            continue;
        };
        let Some(target) = instr.target().and_then(|t| t.abs()) else {
            continue;
        };
        if let Some(site) = p.linked.map.site_at_entry(target) {
            let is_ft_stub = matches!(site.kind, SiteKind::CondFallthrough { .. });
            if not_taken && !is_ft_stub {
                continue;
            }
            *reconstructed.entry(site.src).or_default() += 1;
        }
    }
    let mut all_srcs: Vec<u32> = stub_executions
        .keys()
        .chain(reconstructed.keys())
        .copied()
        .collect();
    all_srcs.sort_unstable();
    all_srcs.dedup();
    for src in all_srcs {
        let actual = stub_executions.get(&src).copied().unwrap_or(0);
        let claimed = reconstructed.get(&src).copied().unwrap_or(0);
        if actual != claimed {
            return Err(CaseFailure::new(
                O,
                format!(
                    "stub {:#x} ({:?}) executed {} times but replay reconstructed {}",
                    src,
                    p.linked.map.site_at_src(src).map(|s| s.kind),
                    actual,
                    claimed
                ),
            ));
        }
    }

    // Warm-cache determinism: a second verification (replay cache now
    // populated) must reconstruct the identical path.
    let warm = p
        .verifier
        .verify(p.chal, &p.reports)
        .map_err(|e| CaseFailure::new(O, format!("warm-cache re-verify rejected: {e}")))?;
    if warm.events != path.events || warm.steps != path.steps {
        return Err(CaseFailure::new(
            O,
            "warm-cache re-verify reconstructed a different path",
        ));
    }

    // Dictionary equivalence: the compressed v2 stream must replay to
    // the identical path through the dictionary-loaded verifier — and
    // again warm, once the macro cache is populated by the cold pass.
    for pass in ["cold", "warm"] {
        let via_dict = p
            .verifier_dict
            .verify(p.chal, &p.dict_reports)
            .map_err(|e| CaseFailure::new(O, format!("dict evidence rejected ({pass}): {e}")))?;
        if via_dict.events != path.events || via_dict.steps != path.steps {
            return Err(CaseFailure::new(
                O,
                format!("dictionary-bearing replay ({pass}) reconstructed a different path"),
            ));
        }
    }
    // A dictionary-less verifier must reject the same stream with the
    // dedicated typed verdict whenever it actually carries hits.
    if p.dict_hits > 0 {
        match p.verifier.verify(p.chal, &p.dict_reports) {
            Err(Violation::DictUnavailable) => {}
            Ok(_) => {
                return Err(CaseFailure::new(
                    O,
                    "dictionary-less verifier accepted a dictionary-bearing stream",
                ));
            }
            Err(v) => {
                return Err(CaseFailure::new(
                    O,
                    format!(
                        "dictionary-less verifier rejected with {} instead of DictUnavailable",
                        v.kind()
                    ),
                ));
            }
        }
    }

    // Fleet path: the parallel dispatcher with its shared replay cache
    // must agree with the direct call on every clone.
    let jobs: Vec<FleetJob> = (0..2)
        .map(|i| FleetJob {
            device: format!("fuzz-{i}"),
            chal: p.chal,
            reports: p.reports.clone(),
        })
        .collect();
    for outcome in p.verifier.fleet(2).run(jobs) {
        match outcome.result {
            Ok(fleet_path) => {
                if fleet_path.events != path.events {
                    return Err(CaseFailure::new(
                        O,
                        format!(
                            "fleet path for {} differs from direct verification",
                            outcome.device
                        ),
                    ));
                }
            }
            Err(e) => {
                return Err(CaseFailure::new(
                    O,
                    format!("fleet rejected honest evidence for {}: {e}", outcome.device),
                ));
            }
        }
    }
    Ok(path.events)
}

// -------------------------------------------------------------------
// Oracle 3: stream safety
// -------------------------------------------------------------------

fn wire_error_name(e: &WireError) -> &'static str {
    match e {
        WireError::Truncated { .. } => "truncated",
        WireError::BadMagic { .. } => "bad_magic",
        WireError::BadVersion { .. } => "bad_version",
        WireError::BadCount { .. } => "bad_count",
        WireError::BadRecordKind { .. } => "bad_record_kind",
        WireError::NonCanonical { .. } => "non_canonical",
        // `WireError` is `#[non_exhaustive]` upstream.
        _ => "other",
    }
}

fn non_canonical(mname: &str) -> CaseFailure {
    CaseFailure::new(
        "stream_safety",
        format!("byte-level mutation `{mname}` decoded but does not re-encode to its bytes"),
    )
}

fn stream_safety(
    p: &Pipeline,
    rng: &mut Rng,
    rounds: usize,
    verdicts: &mut BTreeMap<String, u64>,
) -> Result<(), CaseFailure> {
    const O: &str = "stream_safety";
    let encoded = encode_stream(&p.reports);

    // Byte level: keyless on-path corruption of the wire image. Every
    // accepted mutation must be canonical — it re-encodes to exactly
    // the bytes received — because a sealed verdict hashes the payload.
    for _ in 0..rounds {
        let (mutated, mname) = mutate_bytes(rng, &encoded);
        let verdict = catch_unwind(AssertUnwindSafe(|| match decode_stream(&mutated) {
            Err(e) => Ok(wire_error_name(&e).to_string()),
            Ok(reports) if encode_stream(&reports) != mutated => Err(()),
            Ok(reports) => Ok(match p.verifier.verify(p.chal, &reports) {
                Ok(_) => "accept".to_string(),
                Err(v) => v.kind().to_string(),
            }),
        }))
        .map_err(|_| {
            CaseFailure::new(
                O,
                format!("panic while processing byte-level mutation `{mname}`"),
            )
        })?
        .map_err(|()| non_canonical(mname))?;
        *verdicts
            .entry(format!("byte:{mname}:{verdict}"))
            .or_default() += 1;
    }

    // Record level: the worst-case adversary re-signs mutated logs
    // with the device key; framing and MACs check out, so the verdict
    // comes from path replay itself.
    for _ in 0..rounds {
        let (forged, mname) = mutate_reports(rng, &p.key, p.chal, &p.reports);
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            match p.verifier.verify(p.chal, &forged) {
                Ok(_) => "accept".to_string(),
                Err(v) => v.kind().to_string(),
            }
        }))
        .map_err(|_| {
            CaseFailure::new(
                O,
                format!("panic while verifying record-level mutation `{mname}`"),
            )
        })?;
        *verdicts
            .entry(format!("record:{mname}:{verdict}"))
            .or_default() += 1;
    }

    // Dictionary-bearing (v2) stream, same two adversary models. The
    // dictionary-loaded verifier is the target: resolution of forged
    // ids, shifted splice points and reordered hits must all end in a
    // typed verdict.
    let dict_encoded = encode_stream(&p.dict_reports);
    for _ in 0..rounds {
        let (mutated, mname) = mutate_bytes(rng, &dict_encoded);
        let verdict = catch_unwind(AssertUnwindSafe(|| match decode_stream(&mutated) {
            Err(e) => Ok(wire_error_name(&e).to_string()),
            Ok(reports) if encode_stream(&reports) != mutated => Err(()),
            Ok(reports) => Ok(match p.verifier_dict.verify(p.chal, &reports) {
                Ok(_) => "accept".to_string(),
                Err(v) => v.kind().to_string(),
            }),
        }))
        .map_err(|_| {
            CaseFailure::new(
                O,
                format!("panic while processing dict byte-level mutation `{mname}`"),
            )
        })?
        .map_err(|()| non_canonical(mname))?;
        *verdicts
            .entry(format!("dictbyte:{mname}:{verdict}"))
            .or_default() += 1;
    }
    for _ in 0..rounds {
        let (forged, mname) = mutate_dict_reports(rng, &p.key, p.chal, &p.dict_reports);
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            match p.verifier_dict.verify(p.chal, &forged) {
                Ok(_) => "accept".to_string(),
                Err(v) => v.kind().to_string(),
            }
        }))
        .map_err(|_| {
            CaseFailure::new(
                O,
                format!("panic while verifying dict record-level mutation `{mname}`"),
            )
        })?;
        *verdicts
            .entry(format!("dictrec:{mname}:{verdict}"))
            .or_default() += 1;
    }
    Ok(())
}

// -------------------------------------------------------------------
// Sabotage (inverted oracle)
// -------------------------------------------------------------------

fn sabotage(p: &Pipeline) -> Result<(), CaseFailure> {
    // Find a report with at least one MTB packet; corrupt its first
    // packet's destination to a fixed bogus (but decodable) address
    // and re-sign everything. Programs with no MTB packets at all are
    // vacuously "safe" and pass.
    let Some(which) = p.reports.iter().position(|r| !r.log.mtb.is_empty()) else {
        return Ok(());
    };
    let last = p.reports.len() - 1;
    let forged: Vec<Report> = p
        .reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut log = r.log.clone();
            if i == which {
                log.mtb[0].dest = 0xDEAD_BEE0;
            }
            Report::new(
                &p.key,
                p.chal,
                r.h_mem,
                log,
                i as u32,
                i == last,
                r.overflow,
            )
        })
        .collect();
    match p.verifier.verify(p.chal, &forged) {
        // The inverted assertion: "the corrupted stream is accepted".
        Ok(_) => Ok(()),
        Err(v) => Err(CaseFailure::new(
            "sabotage",
            format!(
                "injected MTB corruption was detected as expected ({})",
                v.kind()
            ),
        )),
    }
}

// -------------------------------------------------------------------
// Case driver
// -------------------------------------------------------------------

/// Runs every oracle on one program. Fully deterministic in
/// `(program, case_seed, cfg)`; mutation randomness is derived from
/// `case_seed` alone so the minimizer can re-evaluate candidates
/// under identical conditions.
pub fn run_case(
    program: &Program,
    case_seed: u64,
    cfg: &OracleConfig,
) -> Result<CaseResult, CaseFailure> {
    let p = build(program, case_seed, cfg)?;
    transform_equivalence(&p)?;
    let events = replay_fidelity(&p)?;
    let mut result = CaseResult {
        mtb_packets: p.reports.iter().map(|r| r.log.mtb.len() as u64).sum(),
        loop_records: p
            .reports
            .iter()
            .map(|r| r.log.loop_records.len() as u64)
            .sum(),
        path_events: events.len() as u64,
        reports: p.reports.len() as u64,
        attested_instrs: p.attested_outcome.instrs,
        dict_hits: p.dict_hits,
        ..CaseResult::default()
    };
    let mut mrng = Rng::new(mix(case_seed ^ 0x5AFE_57E4_A11E_D0C5));
    stream_safety(&p, &mut mrng, cfg.mutation_rounds, &mut result.verdicts)?;
    if cfg.sabotage {
        sabotage(&p)?;
    }
    Ok(result)
}
