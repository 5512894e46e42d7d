//! # rap-cli — the file-driven RAP-Track toolchain
//!
//! Everything the library pipeline does, driven by files, so the whole
//! paper workflow runs from a shell:
//!
//! ```text
//! rap link app.tasm -o app.img -m app.map     # offline phase
//! rap disasm app.img                          # inspect the layout
//! rap attest app.img app.map --chal 7 -o session.rpt
//! rap verify app.img app.map session.rpt --chal 7
//! ```
//!
//! The command implementations live here (library form, fully tested);
//! `main.rs` is a thin argv adapter.

#![warn(missing_docs)]

mod audit;
mod fleet;
mod top;

pub use audit::{cmd_audit, cmd_audit_show, cmd_audit_tail, cmd_audit_verify};
pub use fleet::{
    cmd_fleet_admin, cmd_fleet_run, cmd_fleet_status, cmd_fleet_status_remote, FleetRunOptions,
};
pub use top::{
    cmd_stats_watch, cmd_telemetry_smoke, cmd_top, render_top_frame, scrape_admin, TopOptions,
    TopSample,
};

use std::fmt;
use std::time::{Duration, Instant};

use armv8m_isa::{parse_module, Image};
use rap_link::{link, read_map, write_map, ClassifyOptions, LinkOptions, TransformOptions};
use rap_obs::{Json, RoundCollector};
use rap_serve::{AttestClient, ClientConfig, Server, ServerConfig};
use rap_track::{
    decode_stream, device_key, encode_stream, CfaEngine, Challenge, DictParams, EngineConfig,
    FleetJob, SessionError, SubPathDict, Verifier, VerifierStats,
};

/// A CLI-level failure, already formatted for the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> CliError {
                CliError(e.to_string())
            }
        })*
    };
}

from_error!(
    armv8m_isa::ParseError,
    armv8m_isa::AsmError,
    armv8m_isa::DecodeError,
    rap_link::LinkError,
    rap_link::MapFormatError,
    rap_track::WireError,
    rap_track::BuildError,
    rap_track::DictFormatError,
    rap_serve::ClientError,
    rap_serve::StartError,
    mcu_sim::ExecError,
    rap_obs::JsonError,
    std::io::Error,
);

/// Options for [`cmd_link`].
#[derive(Debug, Clone, Copy)]
pub struct LinkCmdOptions {
    /// Load/link base address.
    pub base: u32,
    /// Disable the §IV-D loop optimizations.
    pub no_loop_opt: bool,
    /// MTBAR stub NOP padding.
    pub padding: u32,
}

impl Default for LinkCmdOptions {
    fn default() -> LinkCmdOptions {
        LinkCmdOptions {
            base: 0,
            no_loop_opt: false,
            padding: 1,
        }
    }
}

/// `rap asm`: assembles text assembly into a raw image (no CFA).
///
/// Returns `(image bytes, human summary)`.
///
/// # Errors
///
/// Parse or assembly failures, formatted.
pub fn cmd_asm(source: &str, base: u32) -> Result<(Vec<u8>, String), CliError> {
    let module = parse_module(source)?;
    let image = module.assemble(base)?;
    let summary = format!(
        "assembled {} instructions, {} bytes at {:#010x}",
        image.instrs().len(),
        image.bytes().len(),
        base
    );
    Ok((image.bytes().to_vec(), summary))
}

/// `rap link`: runs the offline phase on text assembly.
///
/// Returns `(deployed image bytes, map text, human summary)`.
///
/// # Errors
///
/// Parse, classification or re-assembly failures, formatted.
pub fn cmd_link(
    source: &str,
    options: LinkCmdOptions,
) -> Result<(Vec<u8>, String, String), CliError> {
    let module = parse_module(source)?;
    let link_options = LinkOptions {
        classify: if options.no_loop_opt {
            ClassifyOptions {
                loop_opt: false,
                static_loop_elision: false,
            }
        } else {
            ClassifyOptions::default()
        },
        transform: TransformOptions {
            nop_padding: options.padding,
        },
    };
    let linked = link(&module, options.base, link_options)?;
    let summary = format!(
        "linked: {} -> {} bytes ({} trampolines, {} optimized loops)",
        linked.map.original_size,
        linked.image.bytes().len(),
        linked.map.site_count(),
        linked.map.loops_by_latch.len()
    );
    Ok((
        linked.image.bytes().to_vec(),
        write_map(&linked.map),
        summary,
    ))
}

/// `rap disasm`: disassembles a raw image.
///
/// # Errors
///
/// Decode failures, formatted.
pub fn cmd_disasm(image_bytes: &[u8], base: u32) -> Result<String, CliError> {
    let image = Image::from_bytes(base, image_bytes.to_vec())?;
    Ok(image.disassemble())
}

/// `rap decompile`: re-emits a raw image as re-assemblable `.tasm`.
///
/// # Errors
///
/// Decode failures, formatted.
pub fn cmd_decompile(image_bytes: &[u8], base: u32) -> Result<String, CliError> {
    let image = Image::from_bytes(base, image_bytes.to_vec())?;
    Ok(image.to_tasm())
}

/// Parses a `--dict` artifact, formatted for the user on failure.
fn parse_dict(text: &str) -> Result<SubPathDict, CliError> {
    SubPathDict::from_text(text).map_err(CliError::from)
}

/// `rap attest`: runs an attested execution and returns the encoded
/// report stream plus a summary. With `dict_text`, the device-side
/// sub-path matcher compresses recurring transfer runs into
/// dictionary-hit records before each report is signed.
///
/// # Errors
///
/// Decode, map, dictionary-format or execution failures, formatted.
pub fn cmd_attest(
    image_bytes: &[u8],
    map_text: &str,
    base: u32,
    chal_seed: u64,
    key_seed: &str,
    watermark: Option<usize>,
    dict_text: Option<&str>,
) -> Result<(Vec<u8>, String), CliError> {
    let image = Image::from_bytes(base, image_bytes.to_vec())?;
    let map = read_map(map_text)?;
    let mut engine = CfaEngine::new(device_key(key_seed));
    if let Some(text) = dict_text {
        engine = engine.with_dict(parse_dict(text)?.entries().to_vec());
    }
    let mut machine = mcu_sim::Machine::new(image);
    let chal = Challenge::from_seed(chal_seed);
    let att = engine.attest(
        &mut machine,
        &map,
        chal,
        EngineConfig {
            watermark,
            ..EngineConfig::default()
        },
    )?;
    let dict_hits: usize = att.reports.iter().map(|r| r.log.dict_hits.len()).sum();
    let mut summary = format!(
        "attested: {} instrs, {} cycles, {} report(s), CF_Log {} bytes",
        att.outcome.instrs,
        att.outcome.cycles,
        att.reports.len(),
        att.cflog_bytes()
    );
    if dict_text.is_some() {
        summary.push_str(&format!(" ({dict_hits} dictionary hits)"));
    }
    Ok((encode_stream(&att.reports), summary))
}

/// `rap verify`: authenticates a report stream and reconstructs the
/// path; returns a human-readable verdict, the verifier's operational
/// counters for the run (the command builds a fresh [`Verifier`], so
/// the stats cover exactly this verification) and the run's `--trace`
/// document: one exemplar for the job, timed by
/// [`VerifierStats::wall_ns`].
///
/// # Errors
///
/// Only I/O-shaped failures (bad files, a report stream that does not
/// decode) error out; a failed *verification* is reported in the
/// returned verdict string with `ok == false`.
pub fn cmd_verify(
    image_bytes: &[u8],
    map_text: &str,
    report_bytes: &[u8],
    base: u32,
    chal_seed: u64,
    key_seed: &str,
    dict_text: Option<&str>,
) -> Result<(bool, String, VerifierStats, RoundCollector), CliError> {
    let image = Image::from_bytes(base, image_bytes.to_vec())?;
    let map = read_map(map_text)?;
    let mut builder = Verifier::builder()
        .key(device_key(key_seed))
        .image(image)
        .map(map);
    if let Some(text) = dict_text {
        builder = builder.dict(parse_dict(text)?);
    }
    let verifier = builder.build()?;
    // Every verification seals a proof-carrying record; the OK/REJECTED
    // line is a view of it, and the `sealed:` line is the identity an
    // audit log or fleet transition would cite.
    let (record, result) =
        verifier.verify_record(key_seed, 0, Challenge::from_seed(chal_seed), report_bytes);
    let (ok, verdict) = match result {
        Ok(path) => (
            true,
            format!(
                "OK: lossless path accepted ({} events, {} replay steps)",
                path.events.len(),
                path.steps
            ),
        ),
        Err(SessionError::Wire(e)) => return Err(e.into()),
        Err(SessionError::Verification(v)) => (false, format!("REJECTED: {v}")),
        Err(e) => (false, format!("REJECTED: {e}")),
    };
    let verdict = format!("{verdict}\nsealed: {}", record.render());
    let stats = verifier.stats();
    let wall = Duration::from_nanos(stats.wall_ns);
    let trace = top::verify_trace([(key_seed, ok, Duration::ZERO, wall)].into_iter());
    Ok((ok, verdict, stats, trace))
}

/// `rap verify-fleet`: authenticates many report streams for one
/// deployed binary concurrently, one stream per input file. Returns
/// `(all accepted, human-readable per-device verdicts + totals,
/// verifier stats for the run, the run's `--trace` document)`.
///
/// All streams answer the same challenge round (one broadcast `--chal`)
/// and share the verifier's replay cache, so straight-line stretches
/// common to the fleet are decoded once.
///
/// # Errors
///
/// Only I/O-shaped failures (bad image, map or stream encodings) error
/// out; per-device verification failures are reported in the verdict
/// text with `ok == false`.
#[allow(clippy::too_many_arguments)] // flag-per-argument mirrors the CLI surface
pub fn cmd_verify_fleet(
    image_bytes: &[u8],
    map_text: &str,
    named_streams: &[(String, Vec<u8>)],
    base: u32,
    chal_seed: u64,
    key_seed: &str,
    threads: usize,
    dict_text: Option<&str>,
) -> Result<(bool, String, VerifierStats, RoundCollector), CliError> {
    use std::fmt::Write as _;

    if threads == 0 {
        return Err(CliError(
            "--threads must be >= 1 (omit the flag to use all cores)".into(),
        ));
    }
    let image = Image::from_bytes(base, image_bytes.to_vec())?;
    let map = read_map(map_text)?;
    let chal = Challenge::from_seed(chal_seed);
    let mut jobs = Vec::with_capacity(named_streams.len());
    for (name, bytes) in named_streams {
        jobs.push(FleetJob {
            device: name.clone(),
            chal,
            reports: decode_stream(bytes)?,
        });
    }

    let mut builder = Verifier::builder()
        .key(device_key(key_seed))
        .image(image)
        .map(map);
    if let Some(text) = dict_text {
        builder = builder.dict(parse_dict(text)?);
    }
    let verifier = builder.build()?;
    // What the pool will actually run with (threads clamp to the job
    // count) — reported in the verdict, and recorded by `Fleet::run`
    // itself in the `fleet_effective_threads` gauge so a `--metrics`
    // capture carries it too.
    let eff_threads = rap_track::effective_threads(jobs.len(), threads);
    let start = Instant::now();
    let outcomes = verifier.fleet(threads).run(jobs);
    let wall = start.elapsed();

    let mut out = String::new();
    let mut accepted = 0usize;
    for outcome in &outcomes {
        match &outcome.result {
            Ok(path) => {
                accepted += 1;
                let _ = writeln!(
                    out,
                    "OK       {}: {} events, {} replay steps ({:.1?})",
                    outcome.device,
                    path.events.len(),
                    path.steps,
                    outcome.wall
                );
            }
            Err(v) => {
                let _ = writeln!(
                    out,
                    "REJECTED {}: {v} ({:.1?})",
                    outcome.device, outcome.wall
                );
            }
        }
    }
    let stats = verifier.stats();
    let per_sec = if wall.as_secs_f64() > 0.0 {
        outcomes.len() as f64 / wall.as_secs_f64()
    } else {
        f64::INFINITY
    };
    let _ = writeln!(
        out,
        "{accepted}/{} accepted in {wall:.1?} ({per_sec:.0} streams/sec, {eff_threads} threads)",
        outcomes.len()
    );
    let _ = writeln!(
        out,
        "replay cache: {} hits, {} misses ({:.0}% hit), {} cached + {} live steps",
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate() * 100.0,
        stats.cached_steps,
        stats.live_steps
    );
    let trace = top::verify_trace(
        outcomes
            .iter()
            .map(|o| (o.device.as_str(), o.accepted(), o.start, o.wall)),
    );
    Ok((accepted == outcomes.len(), out, stats, trace))
}

/// Builds the `--metrics` artifact: the global registry's movement
/// since `baseline` (so concurrent history outside the command does not
/// leak in) plus the run's [`VerifierStats`], as pretty-printed JSON.
///
/// The top-level shape is `{ "metrics": <snapshot>, "verifier_stats":
/// {...} }`; [`cmd_stats`] renders it back for humans.
pub fn metrics_json(baseline: &rap_obs::Snapshot, stats: &VerifierStats) -> String {
    let delta = rap_obs::global().snapshot().diff(baseline);
    Json::obj([
        ("metrics", delta.to_json()),
        (
            "verifier_stats",
            Json::obj([
                ("cache_hits", Json::Uint(stats.cache_hits)),
                ("cache_misses", Json::Uint(stats.cache_misses)),
                ("cached_steps", Json::Uint(stats.cached_steps)),
                ("live_steps", Json::Uint(stats.live_steps)),
                ("jobs", Json::Uint(stats.jobs)),
                ("wall_ns", Json::Uint(stats.wall_ns)),
            ]),
        ),
    ])
    .to_pretty()
}

/// `rap stats`: renders a previously written `--metrics` JSON file (or
/// a bare registry snapshot) as a human-readable table.
///
/// # Errors
///
/// Malformed JSON or a snapshot with the wrong shape.
pub fn cmd_stats(json_text: &str) -> Result<String, CliError> {
    let doc = rap_obs::json::parse(json_text)?;
    let snap_json = doc.get("metrics").unwrap_or(&doc);
    let snap = rap_obs::Snapshot::from_json(snap_json)?;
    let mut out = snap.render();
    if let Some(vs) = doc.get("verifier_stats") {
        use std::fmt::Write as _;
        let field = |name: &str| vs.get(name).and_then(Json::as_u64).unwrap_or(0);
        let stats = VerifierStats {
            cache_hits: field("cache_hits"),
            cache_misses: field("cache_misses"),
            cached_steps: field("cached_steps"),
            live_steps: field("live_steps"),
            jobs: field("jobs"),
            wall_ns: field("wall_ns"),
        };
        let _ = writeln!(out, "verifier:");
        let _ = writeln!(
            out,
            "  {} job(s), mean {} ns/job ({:.0} jobs/busy-sec)",
            stats.jobs,
            stats.mean_job_ns(),
            stats.jobs_per_busy_sec()
        );
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses ({:.0}% hit), {} cached + {} live steps",
            stats.cache_hits,
            stats.cache_misses,
            stats.hit_rate() * 100.0,
            stats.cached_steps,
            stats.live_steps
        );
    }
    Ok(out)
}

/// `rap explain`: reports the offline phase's classification decisions
/// for a text-assembly program, including loop-rejection reasons.
///
/// # Errors
///
/// Parse or CFG failures, formatted.
pub fn cmd_explain(source: &str, options: LinkCmdOptions) -> Result<String, CliError> {
    let module = parse_module(source)?;
    let link_options = LinkOptions {
        classify: if options.no_loop_opt {
            ClassifyOptions {
                loop_opt: false,
                static_loop_elision: false,
            }
        } else {
            ClassifyOptions::default()
        },
        transform: TransformOptions {
            nop_padding: options.padding,
        },
    };
    let report = rap_link::explain(&module, link_options).map_err(|e| CliError(e.to_string()))?;
    Ok(report.to_string())
}

/// `rap inspect`: pretty-prints a map file.
///
/// # Errors
///
/// Map-format failures, formatted.
pub fn cmd_inspect(map_text: &str) -> Result<String, CliError> {
    let map = read_map(map_text)?;
    let mut out = String::new();
    if let (Some(dr), Some(ar)) = (map.mtbdr, map.mtbar) {
        out.push_str(&format!(
            "MTBDR [{:#010x}, {:#010x})  {} bytes\n",
            dr.start,
            dr.end,
            dr.len()
        ));
        out.push_str(&format!(
            "MTBAR [{:#010x}, {:#010x})  {} bytes\n",
            ar.start,
            ar.end,
            ar.len()
        ));
    }
    out.push_str(&format!(
        "{} trampoline sites, {} optimized loops, {} functions\n",
        map.site_count(),
        map.loops_by_latch.len(),
        map.funcs.len()
    ));
    Ok(out)
}

/// Options for `rap fuzz` (the argv-level mirror of
/// [`rap_fuzz::FuzzConfig`]).
#[derive(Debug, Clone)]
pub struct FuzzCmdOptions {
    /// Campaign seed.
    pub seed: u64,
    /// Number of generated programs.
    pub iters: u64,
    /// Arm the inverted sabotage oracle (self-test: the injected fault
    /// must be detected).
    pub sabotage: bool,
    /// Replay a single case from its printed case seed.
    pub replay: Option<u64>,
}

impl Default for FuzzCmdOptions {
    fn default() -> FuzzCmdOptions {
        let d = rap_fuzz::FuzzConfig::default();
        FuzzCmdOptions {
            seed: d.seed,
            iters: d.iters,
            sabotage: d.sabotage,
            replay: d.replay,
        }
    }
}

/// `rap fuzz`: runs a deterministic differential fuzzing campaign over
/// the transform/trace/verify pipeline (or replays one case).
///
/// Returns `(ok, human summary, JSON summary)`. Both renderings are
/// pure functions of the options — no timestamps, no wall-clock — so
/// two invocations with equal arguments produce byte-identical output
/// (the repro contract). Under `--sabotage` the success sense inverts:
/// `ok` means the injected fault *was* detected.
pub fn cmd_fuzz(options: &FuzzCmdOptions) -> (bool, String, String) {
    let cfg = rap_fuzz::FuzzConfig {
        seed: options.seed,
        iters: options.iters,
        sabotage: options.sabotage,
        replay: options.replay,
        ..rap_fuzz::FuzzConfig::default()
    };
    let summary = rap_fuzz::run(&cfg);
    (
        summary.ok(),
        summary.render(),
        summary.to_json().to_pretty(),
    )
}

/// Options for [`cmd_profile`].
#[derive(Debug, Clone)]
pub struct ProfileCmdOptions {
    /// Load/link base address.
    pub base: u32,
    /// Dictionary label (free text, recorded in the artifact).
    pub label: String,
    /// Keep at most this many entries (by wire bytes saved).
    pub top_k: usize,
    /// Minimum occurrences for a sub-path to qualify.
    pub min_support: u32,
    /// Longest sub-path considered (transfers).
    pub max_len: usize,
    /// Partial-report watermark for the profiling run.
    pub watermark: Option<usize>,
    /// Instruction budget for the profiling run; `None` keeps the
    /// engine default.
    pub max_instrs: Option<u64>,
}

impl Default for ProfileCmdOptions {
    fn default() -> ProfileCmdOptions {
        let params = DictParams::default();
        ProfileCmdOptions {
            base: 0,
            label: "workload".to_owned(),
            top_k: params.top_k,
            min_support: params.min_support,
            max_len: params.max_len,
            watermark: None,
            max_instrs: None,
        }
    }
}

/// `rap profile`: the offline profiling pass. Runs the deployed image
/// once in `mcu-sim`, mines the top-K recurring transfer sub-paths
/// from the resulting `CF_Log`, and returns the versioned dictionary
/// artifact (keyed to the image hash) plus a human summary with the
/// estimated compression.
///
/// The run is deterministic — fixed challenge, throwaway key — so the
/// same image, workload devices and parameters always produce a
/// byte-identical artifact.
///
/// # Errors
///
/// Decode, map or execution failures, formatted.
pub fn cmd_profile(
    image_bytes: &[u8],
    map_text: &str,
    options: &ProfileCmdOptions,
) -> Result<(String, String), CliError> {
    let image = Image::from_bytes(options.base, image_bytes.to_vec())?;
    let map = read_map(map_text)?;
    let engine = CfaEngine::new(device_key("rap-profile"));
    let mut machine = mcu_sim::Machine::new(image);
    let defaults = EngineConfig::default();
    let att = engine.attest(
        &mut machine,
        &map,
        Challenge::from_seed(0),
        EngineConfig {
            watermark: options.watermark,
            max_instrs: options.max_instrs.unwrap_or(defaults.max_instrs),
        },
    )?;
    let h_mem = att
        .reports
        .first()
        .map(|r| r.h_mem)
        .ok_or_else(|| CliError("profiling run produced no reports".into()))?;
    let log = att.combined_log();
    let params = DictParams {
        top_k: options.top_k,
        min_support: options.min_support,
        max_len: options.max_len,
    };
    let dict = SubPathDict::mine(&log, h_mem, &options.label, params);
    let (raw, compressed) = dict.estimate(&log.mtb);
    let saved = if raw > 0 {
        100.0 * (raw - compressed) as f64 / raw as f64
    } else {
        0.0
    };
    let summary = format!(
        "profiled `{}`: {} transfers, {} dictionary entries; est. CF_Log {} -> {} bytes ({saved:.0}% saved)",
        options.label,
        log.mtb.len(),
        dict.len(),
        raw,
        compressed,
    );
    Ok((dict.to_text(), summary))
}

/// The device-key seed every command uses when `--key` is absent.
pub const DEFAULT_KEY_SEED: &str = "default-device";

/// Options for [`cmd_serve`].
#[derive(Debug, Clone)]
pub struct ServeCmdOptions {
    /// Load/link base address of the deployed image.
    pub base: u32,
    /// Device-key seed the fleet attests under.
    pub key_seed: String,
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (`--threads`): each serves one connection at a
    /// time, and any worker serves any device.
    pub threads: usize,
    /// Stop accepting and drain after this many connections (smoke
    /// tests); `None` serves until shutdown.
    pub limit: Option<u64>,
    /// Session secret for resumption-token MACs; `None` generates a
    /// random one (reported back so the operator can log it).
    pub secret: Option<String>,
    /// Per-connection pipelining window cap granted to devices.
    pub window: u16,
    /// Admin telemetry bind address (`--admin`); `None` leaves the
    /// telemetry plane off.
    pub admin: Option<String>,
    /// Slow-round exemplar threshold in milliseconds (`--slow-ms`);
    /// `None` keeps the server default. `0` retains every round —
    /// useful for smoke tests and demos.
    pub slow_ms: Option<u64>,
    /// Contents of a `--dict` artifact for this deployed image; devices
    /// may then submit dictionary-compressed report streams.
    pub dict: Option<String>,
    /// Path of the hash-chained audit log (`--audit-log`); every sealed
    /// verdict is appended, batched once per drain tick. `None` keeps
    /// auditing off.
    pub audit_log: Option<String>,
}

impl Default for ServeCmdOptions {
    fn default() -> ServeCmdOptions {
        ServeCmdOptions {
            base: 0,
            key_seed: DEFAULT_KEY_SEED.to_owned(),
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            limit: None,
            secret: None,
            window: 8,
            admin: None,
            slow_ms: None,
            dict: None,
            audit_log: None,
        }
    }
}

/// 32 random bytes for the session secret: the OS RNG when available,
/// else a clock/pid-seeded SplitMix64 fill (still unguessable enough
/// for a dev instance; production passes `--secret`).
fn generate_session_secret() -> Vec<u8> {
    use std::io::Read as _;
    let mut buf = [0u8; 32];
    if std::fs::File::open("/dev/urandom")
        .and_then(|mut f| f.read_exact(&mut buf))
        .is_ok()
    {
        return buf.to_vec();
    }
    let mut state = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(std::process::id()) << 32);
    for chunk in buf.chunks_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
    buf.to_vec()
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `rap serve`: starts the networked attestation service for one
/// deployed binary. Returns the running [`Server`] (the caller prints
/// the bound address and joins or shuts it down), the shared
/// [`Verifier`] for end-of-run stats, and — when no `--secret` was
/// given — the hex of the generated session secret so the operator can
/// log it.
///
/// # Errors
///
/// Image/map decode failures, an empty `--secret`, and the bind
/// failure, formatted.
pub fn cmd_serve(
    image_bytes: &[u8],
    map_text: &str,
    options: &ServeCmdOptions,
) -> Result<(Server, Verifier, Option<String>), CliError> {
    let image = Image::from_bytes(options.base, image_bytes.to_vec())?;
    let map = read_map(map_text)?;
    let mut builder = Verifier::builder()
        .key(device_key(&options.key_seed))
        .image(image)
        .map(map);
    if let Some(text) = &options.dict {
        builder = builder.dict(parse_dict(text)?);
    }
    let verifier = builder.build()?;
    let (session_secret, generated) = match &options.secret {
        Some(s) => (s.as_bytes().to_vec(), None),
        None => {
            let bytes = generate_session_secret();
            let hex = hex_encode(&bytes);
            (bytes, Some(hex))
        }
    };
    let defaults = ServerConfig::default();
    let server = Server::start(
        verifier.clone(),
        options.addr.as_str(),
        ServerConfig {
            threads: options.threads.max(1),
            conn_limit: options.limit,
            window: options.window.max(1),
            session_secret,
            admin_addr: options.admin.clone(),
            slow_round_threshold: options.slow_ms.map_or(
                defaults.slow_round_threshold,
                std::time::Duration::from_millis,
            ),
            audit_log: options.audit_log.as_ref().map(std::path::PathBuf::from),
            ..defaults
        },
    )?;
    Ok((server, verifier, generated))
}

/// Options for [`cmd_attest_remote`].
#[derive(Debug, Clone)]
pub struct AttestRemoteCmdOptions {
    /// Load/link base address of the deployed image.
    pub base: u32,
    /// Device-key seed to sign evidence with.
    pub key_seed: String,
    /// Server address (`host:port`).
    pub addr: String,
    /// Device name sent in `HELLO`.
    pub device: String,
    /// Challenge–response rounds to run on one connection.
    pub rounds: u32,
    /// Connect/busy retries before giving up.
    pub retries: u32,
    /// Partial-report watermark for the attested execution.
    pub watermark: Option<usize>,
    /// Rounds kept in flight at once (the requested pipeline window).
    pub window: u16,
    /// After the first batch of rounds, close the connection and run
    /// the same number again on a resumed session (no re-`HELLO`).
    pub resume: bool,
    /// Contents of a `--dict` artifact: evidence is dictionary-
    /// compressed before signing (the server must load the same
    /// dictionary).
    pub dict: Option<String>,
}

impl Default for AttestRemoteCmdOptions {
    fn default() -> AttestRemoteCmdOptions {
        AttestRemoteCmdOptions {
            base: 0,
            key_seed: DEFAULT_KEY_SEED.to_owned(),
            addr: String::new(),
            device: "device-0".to_owned(),
            rounds: 1,
            retries: 4,
            watermark: None,
            window: 1,
            resume: false,
            dict: None,
        }
    }
}

/// Everything `run_remote_rounds` needs to produce evidence for a
/// challenge: the deployed image/map plus the prover's key and
/// watermark setting.
struct RemoteProver<'a> {
    image: &'a Image,
    map: &'a rap_link::LinkMap,
    key: &'a rap_track::Key,
    watermark: Option<usize>,
    dict_entries: Option<&'a [Vec<trace_units::TraceEntry>]>,
}

/// Runs `rounds` pipelined challenge–response rounds on `conn`,
/// appending one summary line per verdict (numbered from
/// `round_base`). Returns how many rounds were accepted.
fn run_remote_rounds(
    conn: &mut rap_serve::Connection,
    rounds: usize,
    round_base: u32,
    prover: &RemoteProver<'_>,
    out: &mut String,
) -> Result<u32, CliError> {
    use std::fmt::Write as _;

    let mut attest_err = None;
    let verdicts = conn.pipelined(rounds, |chal| {
        let mut engine = CfaEngine::new(prover.key.clone());
        if let Some(entries) = prover.dict_entries {
            engine = engine.with_dict(entries.to_vec());
        }
        let mut machine = mcu_sim::Machine::new(prover.image.clone());
        match engine.attest(
            &mut machine,
            prover.map,
            chal,
            EngineConfig {
                watermark: prover.watermark,
                ..EngineConfig::default()
            },
        ) {
            Ok(att) => att.reports,
            Err(e) => {
                // An empty stream is always rejected server-side;
                // surface the local execution failure to the user.
                attest_err = Some(e);
                Vec::new()
            }
        }
    })?;
    if let Some(e) = attest_err {
        return Err(CliError(format!("attested execution failed: {e}")));
    }
    let mut accepted = 0u32;
    for (i, verdict) in verdicts.iter().enumerate() {
        let round = round_base + i as u32;
        if verdict.accepted {
            accepted += 1;
            let _ = writeln!(
                out,
                "round {round}: OK ({} events, {} replay steps)",
                verdict.events, verdict.steps
            );
        } else {
            let _ = writeln!(out, "round {round}: REJECTED: {}", verdict.detail);
        }
    }
    Ok(accepted)
}

/// `rap attest-remote`: runs attested executions against a remote
/// `rap serve` instance — for each server challenge, executes the
/// application locally, signs the evidence, and reports the server's
/// verdict. `--window` keeps that many rounds in flight; `--resume`
/// closes the connection after the first batch and runs the same
/// number of rounds again on a resumed session (no re-`HELLO`).
/// Returns `(all rounds accepted, human summary)`.
///
/// # Errors
///
/// Image/map decode failures, transport failures, and protocol
/// violations, formatted. A *rejected verdict* is not an error — it is
/// reported in the summary with `ok == false`.
pub fn cmd_attest_remote(
    image_bytes: &[u8],
    map_text: &str,
    options: &AttestRemoteCmdOptions,
) -> Result<(bool, String), CliError> {
    use std::fmt::Write as _;

    let image = Image::from_bytes(options.base, image_bytes.to_vec())?;
    let map = read_map(map_text)?;
    let key = device_key(&options.key_seed);

    let client = AttestClient::new(
        options.addr.clone(),
        ClientConfig {
            retries: options.retries,
            window: options.window.max(1),
            ..ClientConfig::default()
        },
    );
    let dict = options.dict.as_deref().map(parse_dict).transpose()?;
    let mut conn = client.open(&options.device)?;

    let prover = RemoteProver {
        image: &image,
        map: &map,
        key: &key,
        watermark: options.watermark,
        dict_entries: dict.as_ref().map(|d| d.entries()),
    };
    let mut out = String::new();
    let per_batch = options.rounds.max(1);
    let mut accepted = run_remote_rounds(&mut conn, per_batch as usize, 0, &prover, &mut out)?;
    let mut total = per_batch;
    if options.resume {
        let token = conn
            .close()
            .ok_or_else(|| CliError("server did not grant a resumption token".to_owned()))?;
        let mut conn = client.resume(&options.device, token)?;
        let _ = writeln!(
            out,
            "session resumed: running {per_batch} more round(s) without re-HELLO"
        );
        accepted += run_remote_rounds(&mut conn, per_batch as usize, per_batch, &prover, &mut out)?;
        total += per_batch;
    }
    let _ = writeln!(out, "{accepted}/{total} round(s) accepted");
    Ok((accepted == total, out))
}

/// A demonstration program used by tests and `rap demo`.
pub const DEMO_PROGRAM: &str = r"
; RAP-Track demo: a variable loop, a conditional and a call.
.func main
    movw r2, #6
    mov r0, r2
spin:
    subs r0, r0, #1
    cmp r0, #0
    bne spin
    cmp r2, #3
    ble small
    bl bump
small:
    halt
.func bump
    adds r7, r7, #1
    bx lr
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asm_and_disasm_roundtrip() {
        let (bytes, summary) = cmd_asm(DEMO_PROGRAM, 0).expect("assembles");
        assert!(summary.contains("assembled"));
        let listing = cmd_disasm(&bytes, 0).expect("disassembles");
        assert!(listing.contains("movw r2, #6"));
        assert!(listing.contains("halt"));
    }

    #[test]
    fn full_file_driven_pipeline() {
        let (img, map_text, summary) =
            cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).expect("links");
        assert!(summary.contains("trampolines"));

        let (reports, att_summary) =
            cmd_attest(&img, &map_text, 0, 7, "cli-test", None, None).expect("attests");
        assert!(att_summary.contains("report(s)"));

        let (ok, verdict, stats, _) =
            cmd_verify(&img, &map_text, &reports, 0, 7, "cli-test", None).expect("verifies");
        assert!(ok, "{verdict}");
        assert!(verdict.contains("OK"));
        assert_eq!(stats.jobs, 1);
        assert!(stats.cached_steps + stats.live_steps > 0);
    }

    /// A general loop (internal conditional) logging one MTB entry per
    /// iteration — the shape dictionaries compress.
    const LOOPY_PROGRAM: &str = r"
.func main
    movw r0, #40
    movw r1, #0
loop:
    cmp r1, #100
    beq skip
    adds r1, r1, #1
skip:
    subs r0, r0, #1
    cmp r0, #0
    bne loop
    halt
";

    #[test]
    fn profile_dict_compresses_and_verifies() {
        let (img, map_text, _) = cmd_link(LOOPY_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (dict_text, summary) =
            cmd_profile(&img, &map_text, &ProfileCmdOptions::default()).expect("profiles");
        assert!(summary.contains("dictionary entries"), "{summary}");

        let (plain, _) = cmd_attest(&img, &map_text, 0, 7, "cli-test", None, None).unwrap();
        let (compressed, att_summary) =
            cmd_attest(&img, &map_text, 0, 7, "cli-test", None, Some(&dict_text)).unwrap();
        assert!(att_summary.contains("dictionary hits"), "{att_summary}");
        assert!(
            compressed.len() < plain.len(),
            "compressed stream ({}) not smaller than plain ({})",
            compressed.len(),
            plain.len()
        );

        // Without the dictionary the stream must reject typed, not panic.
        let (ok, verdict, _, _) =
            cmd_verify(&img, &map_text, &compressed, 0, 7, "cli-test", None).unwrap();
        assert!(!ok && verdict.contains("dictionary"), "{verdict}");
        // With it, the compressed stream verifies.
        let (ok, verdict, _, _) = cmd_verify(
            &img,
            &map_text,
            &compressed,
            0,
            7,
            "cli-test",
            Some(&dict_text),
        )
        .unwrap();
        assert!(ok, "{verdict}");
    }

    #[test]
    fn profile_artifact_is_deterministic() {
        let (img, map_text, _) = cmd_link(LOOPY_PROGRAM, LinkCmdOptions::default()).unwrap();
        let options = ProfileCmdOptions::default();
        let (a, _) = cmd_profile(&img, &map_text, &options).unwrap();
        let (b, _) = cmd_profile(&img, &map_text, &options).unwrap();
        assert_eq!(a, b);
    }

    /// Held by every test that runs `cmd_verify_fleet`: it sets the
    /// process-global `fleet_effective_threads` gauge, which
    /// `verify_fleet_rejects_zero_threads_and_reports_effective_config`
    /// reads back.
    static FLEET_GAUGE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn verify_fleet_reports_per_device_verdicts() {
        let _gauge = FLEET_GAUGE.lock().unwrap_or_else(|e| e.into_inner());
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (good, _) = cmd_attest(&img, &map_text, 0, 7, "cli-test", None, None).unwrap();
        let (bad, _) = cmd_attest(&img, &map_text, 0, 8, "cli-test", None, None).unwrap();

        let streams = vec![
            ("alpha.rpt".to_owned(), good.clone()),
            ("bravo.rpt".to_owned(), good),
        ];
        let (ok, verdict, stats, _) =
            cmd_verify_fleet(&img, &map_text, &streams, 0, 7, "cli-test", 2, None).expect("runs");
        assert!(ok, "{verdict}");
        assert!(verdict.contains("alpha.rpt"));
        assert!(verdict.contains("2/2 accepted"));
        assert!(verdict.contains("replay cache"));
        assert_eq!(stats.jobs, 2);

        let streams = vec![("charlie.rpt".to_owned(), bad)];
        let (ok, verdict, _, _) =
            cmd_verify_fleet(&img, &map_text, &streams, 0, 7, "cli-test", 1, None).expect("runs");
        assert!(!ok);
        assert!(verdict.contains("REJECTED"));
    }

    #[test]
    fn verify_fleet_rejects_zero_threads_and_reports_effective_config() {
        let _gauge = FLEET_GAUGE.lock().unwrap_or_else(|e| e.into_inner());
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (good, _) = cmd_attest(&img, &map_text, 0, 7, "cli-test", None, None).unwrap();
        let streams = vec![("alpha.rpt".to_owned(), good)];

        let err = cmd_verify_fleet(&img, &map_text, &streams, 0, 7, "cli-test", 0, None)
            .expect_err("--threads 0 must be rejected, not clamped");
        assert!(err.0.contains("--threads"), "unclear error: {}", err.0);

        // One job, 8 requested threads: the verdict reports the pool
        // the batch layer actually ran (clamped to the job count).
        let (ok, verdict, _, _) =
            cmd_verify_fleet(&img, &map_text, &streams, 0, 7, "cli-test", 8, None).expect("runs");
        assert!(ok, "{verdict}");
        assert!(verdict.contains("1 threads)"), "{verdict}");
        let snap = rap_obs::global().snapshot();
        assert_eq!(snap.gauge("fleet_effective_threads"), 1);
    }

    #[test]
    fn metrics_json_round_trips_through_stats() {
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (reports, _) = cmd_attest(&img, &map_text, 0, 7, "cli-test", None, None).unwrap();

        let baseline = rap_obs::global().snapshot();
        let (ok, _, stats, _) =
            cmd_verify(&img, &map_text, &reports, 0, 7, "cli-test", None).unwrap();
        assert!(ok);
        let json = metrics_json(&baseline, &stats);

        // The artifact embeds the run's VerifierStats verbatim.
        let doc = rap_obs::json::parse(&json).expect("parses");
        let vs = doc.get("verifier_stats").expect("has verifier_stats");
        assert_eq!(
            vs.get("jobs").and_then(rap_obs::Json::as_u64),
            Some(stats.jobs)
        );
        assert_eq!(
            vs.get("live_steps").and_then(rap_obs::Json::as_u64),
            Some(stats.live_steps)
        );

        // And `rap stats` renders it back for humans.
        let rendered = cmd_stats(&json).expect("renders");
        assert!(rendered.contains("verifier:"), "{rendered}");
        assert!(rendered.contains("cache:"), "{rendered}");
    }

    #[test]
    fn stats_rejects_malformed_json() {
        assert!(cmd_stats("{ not json").is_err());
        assert!(cmd_stats("[1, 2, 3]").is_err());
    }

    #[test]
    fn fuzz_is_deterministic_and_passes() {
        let options = FuzzCmdOptions {
            seed: 1,
            iters: 10,
            ..FuzzCmdOptions::default()
        };
        let (ok_a, text_a, json_a) = cmd_fuzz(&options);
        let (ok_b, text_b, json_b) = cmd_fuzz(&options);
        assert!(ok_a, "{text_a}");
        assert_eq!(ok_a, ok_b);
        assert_eq!(text_a, text_b, "summaries must be byte-identical");
        assert_eq!(json_a, json_b);
        assert!(text_a.contains("verdict: OK"));
        let doc = rap_obs::json::parse(&json_a).expect("valid JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("cases_run").and_then(Json::as_u64), Some(10));
    }

    #[test]
    fn fuzz_sabotage_fails_detectably_and_replays() {
        let (ok, text, json) = cmd_fuzz(&FuzzCmdOptions {
            seed: 3,
            iters: 20,
            sabotage: true,
            ..FuzzCmdOptions::default()
        });
        assert!(ok, "sabotage must be detected: {text}");
        assert!(text.contains("FAIL [sabotage]"), "{text}");
        assert!(text.contains("repro: rap fuzz --replay"), "{text}");

        // Pull the printed case seed out of the JSON and replay it.
        let doc = rap_obs::json::parse(&json).expect("valid JSON");
        let failures = doc.get("failures").and_then(Json::as_array).unwrap();
        let case_seed = failures[0].get("case_seed").and_then(Json::as_u64).unwrap();
        let (ok, text, _) = cmd_fuzz(&FuzzCmdOptions {
            replay: Some(case_seed),
            sabotage: true,
            ..FuzzCmdOptions::default()
        });
        assert!(ok, "replayed sabotage case must fail again: {text}");
        assert!(text.contains("FAIL [sabotage]"), "{text}");
    }

    #[test]
    fn serve_and_attest_remote_loopback() {
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();

        // Three connections: a benign device running a pipelined +
        // resumed session (two connections), then one signing with the
        // wrong key — after which the server drains on its own
        // (--limit 3).
        let options = ServeCmdOptions {
            key_seed: "cli-serve".to_owned(),
            threads: 2,
            limit: Some(3),
            ..ServeCmdOptions::default()
        };
        let (server, verifier, generated_secret) =
            cmd_serve(&img, &map_text, &options).expect("server starts");
        assert!(
            generated_secret.is_some_and(|hex| hex.len() == 64),
            "no --secret: a random one is generated and reported"
        );
        let addr = server.local_addr().to_string();

        let (ok, summary) = cmd_attest_remote(
            &img,
            &map_text,
            &AttestRemoteCmdOptions {
                key_seed: "cli-serve".to_owned(),
                addr: addr.clone(),
                device: "benign".to_owned(),
                rounds: 2,
                window: 2,
                resume: true,
                ..AttestRemoteCmdOptions::default()
            },
        )
        .expect("benign rounds complete");
        assert!(ok, "{summary}");
        assert!(summary.contains("session resumed"), "{summary}");
        assert!(summary.contains("4/4 round(s) accepted"), "{summary}");

        let (ok, summary) = cmd_attest_remote(
            &img,
            &map_text,
            &AttestRemoteCmdOptions {
                key_seed: "wrong-key".to_owned(),
                addr,
                device: "imposter".to_owned(),
                ..AttestRemoteCmdOptions::default()
            },
        )
        .expect("attack round completes (rejection is a verdict)");
        assert!(!ok, "{summary}");
        assert!(summary.contains("REJECTED"), "{summary}");

        let stats = server.join();
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.resumed, 1);
        assert_eq!(stats.verdicts_accepted, 4);
        assert_eq!(stats.verdicts_rejected, 1);
        assert!(verifier.stats().jobs >= 5);
    }

    #[test]
    fn top_and_telemetry_smoke_against_live_server() {
        use std::time::{Duration, Instant};

        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let options = ServeCmdOptions {
            key_seed: "cli-top".to_owned(),
            threads: 2,
            admin: Some("127.0.0.1:0".to_owned()),
            slow_ms: Some(0), // every round qualifies as slow
            ..ServeCmdOptions::default()
        };
        let (server, _verifier, _) = cmd_serve(&img, &map_text, &options).expect("server starts");
        let addr = server.local_addr().to_string();
        let admin = server
            .admin_addr()
            .expect("admin listener bound")
            .to_string();

        let (ok, summary) = cmd_attest_remote(
            &img,
            &map_text,
            &AttestRemoteCmdOptions {
                key_seed: "cli-top".to_owned(),
                addr,
                device: "top-device".to_owned(),
                rounds: 3,
                window: 2,
                ..AttestRemoteCmdOptions::default()
            },
        )
        .expect("rounds complete");
        assert!(ok, "{summary}");

        // Exemplar finalization lands just after the verdicts hit the
        // wire, so poll the smoke until the collector saw all rounds.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (ok, summary, artifact) = loop {
            let result = cmd_telemetry_smoke(&admin).expect("smoke runs");
            let doc = rap_obs::json::parse(&result.2).unwrap();
            let seen = doc.get("rounds_seen").and_then(Json::as_u64).unwrap_or(0);
            if seen >= 3 || Instant::now() > deadline {
                break result;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(ok, "{summary}");
        let doc = rap_obs::json::parse(&artifact).expect("artifact parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert!(doc.get("counters_checked").and_then(Json::as_u64).unwrap() > 0);
        assert!(
            doc.get("exemplars_retained")
                .and_then(Json::as_u64)
                .unwrap()
                >= 3
        );
        assert_eq!(doc.get("devices").and_then(Json::as_u64), Some(1));

        // Two dashboard frames; the second carries interval rates plus
        // the device table and exemplar span chains.
        let mut frames = Vec::new();
        cmd_top(
            &TopOptions {
                addr: admin.clone(),
                interval: Duration::from_millis(10),
                iters: 2,
                top_k: 4,
            },
            |frame| frames.push(frame.to_owned()),
        )
        .expect("top runs");
        assert_eq!(frames.len(), 2);
        let last = &frames[1];
        assert!(last.contains("rap top"), "{last}");
        assert!(last.contains("top-device"), "{last}");
        assert!(last.contains("/s)"), "interval rates rendered: {last}");
        assert!(last.contains("waiting for a worker"), "{last}");
        assert!(
            last.contains("replay"),
            "exemplar span chain rendered: {last}"
        );

        // `rap stats --watch` renders the same document for humans.
        let watch = cmd_stats_watch(&admin).expect("watch frame renders");
        assert!(watch.contains("top-device"), "{watch}");
        assert!(watch.contains("counters:"), "{watch}");

        server.shutdown();
    }

    #[test]
    fn attest_remote_reports_transport_failure() {
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let err = cmd_attest_remote(
            &img,
            &map_text,
            &AttestRemoteCmdOptions {
                addr: "127.0.0.1:1".to_owned(), // nothing listens here
                retries: 0,
                ..AttestRemoteCmdOptions::default()
            },
        )
        .expect_err("refused connection is an error, not a verdict");
        assert!(!err.0.is_empty());
    }

    #[test]
    fn wrong_challenge_rejected() {
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (reports, _) = cmd_attest(&img, &map_text, 0, 7, "cli-test", None, None).unwrap();
        let (ok, verdict, _, _) =
            cmd_verify(&img, &map_text, &reports, 0, 8, "cli-test", None).unwrap();
        assert!(!ok);
        assert!(verdict.contains("REJECTED"));
    }

    #[test]
    fn wrong_key_rejected() {
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (reports, _) = cmd_attest(&img, &map_text, 0, 7, "device-a", None, None).unwrap();
        let (ok, verdict, _, _) =
            cmd_verify(&img, &map_text, &reports, 0, 7, "device-b", None).unwrap();
        assert!(!ok);
        assert!(verdict.contains("authentication"));
    }

    #[test]
    fn tampered_image_rejected_via_h_mem() {
        let (mut img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (reports, _) = cmd_attest(&img, &map_text, 0, 7, "cli-test", None, None).unwrap();
        // The verifier is handed a doctored binary.
        img[0] ^= 0x01;
        if let Ok((ok, _, _, _)) = cmd_verify(&img, &map_text, &reports, 0, 7, "cli-test", None) {
            assert!(!ok);
        } // (a decode error is an acceptable rejection too)
    }

    #[test]
    fn no_loop_opt_grows_the_log() {
        let (img, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let (opt_reports, _) = cmd_attest(&img, &map_text, 0, 7, "k", None, None).unwrap();

        let options = LinkCmdOptions {
            no_loop_opt: true,
            ..LinkCmdOptions::default()
        };
        let (img2, map2, _) = cmd_link(DEMO_PROGRAM, options).unwrap();
        let (raw_reports, _) = cmd_attest(&img2, &map2, 0, 7, "k", None, None).unwrap();
        assert!(raw_reports.len() > opt_reports.len());

        // Both verify against their own artifacts.
        assert!(
            cmd_verify(&img, &map_text, &opt_reports, 0, 7, "k", None)
                .unwrap()
                .0
        );
        assert!(
            cmd_verify(&img2, &map2, &raw_reports, 0, 7, "k", None)
                .unwrap()
                .0
        );
    }

    #[test]
    fn decompile_round_trips_through_asm() {
        let (img, _) = cmd_asm(DEMO_PROGRAM, 0).unwrap();
        let tasm = cmd_decompile(&img, 0).unwrap();
        let (img2, _) = cmd_asm(&tasm, 0).unwrap();
        assert_eq!(img, img2);
    }

    #[test]
    fn explain_reports_loop_decisions() {
        let out = cmd_explain(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        assert!(out.contains("functions:"));
        assert!(out.contains("LOGGED"), "{out}");
    }

    #[test]
    fn inspect_summarizes() {
        let (_, map_text, _) = cmd_link(DEMO_PROGRAM, LinkCmdOptions::default()).unwrap();
        let out = cmd_inspect(&map_text).unwrap();
        assert!(out.contains("MTBAR"));
        assert!(out.contains("trampoline sites"));
    }

    #[test]
    fn parse_errors_are_reported_with_location() {
        let err = cmd_asm("bogus r0, r1\n", 0).unwrap_err();
        assert!(err.0.contains("line 1"), "{err}");
    }
}
