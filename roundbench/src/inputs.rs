//! The four workloads and the inputs each one generates from its seed.
//!
//! Input generation runs the workload's application once in mcu-sim at
//! the paper's 448-packet partial-report watermark and keeps the
//! signed recording. The emulated device answers every CHALLENGE by
//! re-signing that recording under the new nonce, so the program under
//! test sees the same evidence each round and only the seed-chosen
//! forgeries differ.

use std::path::{Path, PathBuf};

use armv8m_isa::Image;
use mcu_sim::{Machine, NullSecureWorld};
use rap_audit::AuditLog;
use rap_link::{link, read_map, write_map, LinkOptions};
use rap_serve::frame::{encode_frame, FrameType};
use rap_track::{
    device_key, encode_stream, CfaEngine, Challenge, DictParams, EngineConfig, Key, Report,
    SubPathDict, VerdictDraft, VerdictRecord, Verifier,
};

/// Partial-report watermark in MTB packets: the paper's 4 KiB trace
/// SRAM shape (§V-B), as the dictionary and serve benches use it.
const WATERMARK: usize = 448;

/// One round in this many carries forged evidence on `fleet_small`,
/// and one pre-filled audit record in this many is a rejection.
const FORGE_EVERY: u64 = 16;

/// Sealed records pre-filled into the `fleet_small` audit log, which
/// the server re-scans when it opens the log at set-up. It is 100 s of
/// a 1 000-device fleet's verdicts at the fleet plane's default round
/// interval of 1 s (`Policy::round_interval_ms`); 1 000 devices is the
/// largest fleet `benches/fleet_plane.rs` prices. A server restarted
/// after longer service scans a larger log.
pub const PREFILL_RECORDS: u64 = 100_000;

/// Seed of the device attestation key every workload uses.
const KEY_SEED: &str = "roundbench-device";

/// A traffic shape driven against the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small reports, pipelined, audit log on, 1 round in 16 forged.
    FleetSmall,
    /// Loop-heavy `prime` reports, pipelined, no dictionary.
    LoopPlain,
    /// `prime` compressed with a mined speculation dictionary.
    LoopDict,
    /// One fresh resumed connection per round.
    Reconnect,
}

/// What a workload runs and how hard.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Application from the `workloads` crate.
    pub app: &'static str,
    /// Rounds each connection keeps in flight (the requested window).
    pub window: u16,
    /// Whether the server appends every verdict to an audit log.
    pub audit: bool,
    /// Whether the device compresses its log with a mined dictionary.
    pub dict: bool,
    /// Whether 1 round in [`FORGE_EVERY`] carries forged evidence.
    pub forged: bool,
    /// Whether every round runs on a new, resumed connection.
    pub reconnect: bool,
    /// Timed rounds per connection in one trial. Fixed, so memory that
    /// grows with rounds served reads the same however fast they run.
    pub trial_rounds: u64,
    /// Rounds in one pass of the traced run.
    pub traced_rounds: u64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FleetSmall,
        Workload::LoopPlain,
        Workload::LoopDict,
        Workload::Reconnect,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSmall => "fleet_small",
            Workload::LoopPlain => "loop_plain",
            Workload::LoopDict => "loop_dict",
            Workload::Reconnect => "reconnect",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::FleetSmall => Spec {
                app: "syringe",
                window: 8,
                audit: true,
                dict: false,
                forged: true,
                reconnect: false,
                trial_rounds: 48_000,
                traced_rounds: 4096,
            },
            // Short trials on the `prime` pair: under glibc's adaptive
            // trimming a trial either faults its round memory back in
            // every round or never does, at random, so a run averages
            // over many of them.
            Workload::LoopPlain => Spec {
                app: "prime",
                window: 8,
                audit: false,
                dict: false,
                forged: false,
                reconnect: false,
                trial_rounds: 400,
                traced_rounds: 512,
            },
            Workload::LoopDict => Spec {
                app: "prime",
                window: 8,
                audit: false,
                dict: true,
                forged: false,
                reconnect: false,
                trial_rounds: 400,
                traced_rounds: 512,
            },
            Workload::Reconnect => Spec {
                app: "syringe",
                window: 1,
                audit: false,
                dict: false,
                forged: false,
                reconnect: true,
                trial_rounds: 800,
                traced_rounds: 4096,
            },
        }
    }
}

/// SplitMix64, the repository's deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(&[seed, stream]))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

/// A stateless hash of several words: each is XORed into a SplitMix64
/// state that then steps once.
fn mix(parts: &[u64]) -> u64 {
    let mut rng = Rng(0x005E_ED0F_B3AC);
    for &p in parts {
        rng.0 ^= p;
        rng.next_u64();
    }
    rng.next_u64()
}

/// Seed streams, one per generated input.
const STREAM_SECRET: u64 = 1;
const STREAM_DEVICES: u64 = 2;
const STREAM_PREFILL: u64 = 3;
const STREAM_FORGE_POS: u64 = 4;
const STREAM_FORGE_ENTRY: u64 = 5;

/// The emulated device: the recorded reports plus their forged
/// variants, re-signed under each challenge.
#[derive(Debug)]
pub struct Device {
    key: Key,
    /// Variant 0 is the recording; variant `i > 0` has MTB entry `i - 1`
    /// (counted across all reports) moved one byte off its site.
    variants: Vec<Vec<Report>>,
}

impl Device {
    fn new(key: Key, recording: Vec<Report>, forge: bool) -> Device {
        let mut variants = vec![recording.clone()];
        for (r, report) in recording.iter().enumerate().filter(|_| forge) {
            for e in 0..report.log.mtb.len() {
                let mut forged = recording.clone();
                // An odd address is never an instruction's, so the moved
                // source matches no site the replay could expect.
                forged[r].log.mtb[e].source = report.log.mtb[e].source.wrapping_add(1);
                variants.push(forged);
            }
        }
        Device { key, variants }
    }

    /// Number of forged variants (one per logged MTB entry).
    pub fn forgeries(&self) -> u64 {
        (self.variants.len() - 1) as u64
    }

    /// Signs `variant` of the recording under `chal`, as the device's
    /// CFA engine would.
    pub fn respond(&self, chal: Challenge, variant: usize) -> Vec<Report> {
        self.variants[variant]
            .iter()
            .map(|r| {
                Report::new(
                    &self.key,
                    chal,
                    r.h_mem,
                    r.log.clone(),
                    r.seq,
                    r.is_final,
                    r.overflow,
                )
            })
            .collect()
    }

    /// The ATTEST frame answering `chal`, and its payload length.
    pub fn attest_frame(&self, chal: Challenge, variant: usize) -> (Vec<u8>, usize) {
        let payload = encode_stream(&self.respond(chal, variant));
        (encode_frame(FrameType::Attest, &payload), payload.len())
    }
}

/// The artifacts `rap serve` loads: image, link map and dictionary.
#[derive(Debug)]
pub struct Artifacts {
    image: PathBuf,
    map: PathBuf,
    dict: Option<PathBuf>,
}

impl Artifacts {
    /// Loads the artifacts and builds the verifier, as `rap serve` does.
    ///
    /// # Errors
    ///
    /// Unreadable or malformed artifacts.
    pub fn load_verifier(&self, key: &Key) -> Result<Verifier, String> {
        let bytes = std::fs::read(&self.image).map_err(|e| format!("read image: {e}"))?;
        let image = Image::from_bytes(0, bytes).map_err(|e| format!("decode image: {e}"))?;
        let map_text = std::fs::read_to_string(&self.map).map_err(|e| format!("read map: {e}"))?;
        let map = read_map(&map_text).map_err(|e| format!("parse map: {e}"))?;
        let mut builder = Verifier::builder().key(key.clone()).image(image).map(map);
        if let Some(path) = &self.dict {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read dict: {e}"))?;
            let dict = SubPathDict::from_text(&text).map_err(|e| format!("parse dict: {e}"))?;
            builder = builder.dict(dict);
        }
        builder.build().map_err(|e| e.to_string())
    }
}

/// Everything one run feeds the program, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its shape.
    pub spec: Spec,
    /// The workload seed.
    pub seed: u64,
    /// The device attestation key (the verifier shares it).
    pub key: Key,
    /// The server's session secret.
    pub session_secret: Vec<u8>,
    /// Files the server loads at set-up.
    pub artifacts: Artifacts,
    /// The emulated device.
    pub device: Device,
    /// `(events, steps)` of the verdict on the unforged recording.
    pub expected: (u32, u64),
    /// mcu-sim cycles of the attested run over the plain app, in %.
    pub device_overhead_pct: f64,
    /// The pre-filled audit log every set-up copies, if audited.
    pub audit_template: Option<PathBuf>,
    /// Directory holding every file this run writes.
    pub dir: PathBuf,
}

impl Inputs {
    /// Generates the workload's inputs into `dir`.
    ///
    /// # Errors
    ///
    /// Link, simulation or file-system failures.
    pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
        let spec = workload.spec();
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let app = workloads::by_name(spec.app).ok_or_else(|| format!("no app {}", spec.app))?;
        let linked = link(&app.module, 0, LinkOptions::default()).map_err(|e| e.to_string())?;
        let key = device_key(KEY_SEED);

        let plain_image = app.module.assemble(0).map_err(|e| e.to_string())?;
        let mut plain = Machine::new(plain_image);
        (app.attach)(&mut plain);
        let plain_cycles = plain
            .run(&mut NullSecureWorld, app.max_instrs)
            .map_err(|e| format!("plain run: {e}"))?
            .cycles;

        let attest = |engine: &CfaEngine| {
            let mut machine = Machine::new(linked.image.clone());
            (app.attach)(&mut machine);
            engine
                .attest(
                    &mut machine,
                    &linked.map,
                    Challenge::from_seed(0),
                    EngineConfig {
                        watermark: Some(WATERMARK),
                        max_instrs: app.max_instrs * 2,
                    },
                )
                .map_err(|e| format!("attest {}: {e}", spec.app))
        };

        let image_path = dir.join("app.img");
        let map_path = dir.join("app.map");
        write(&image_path, linked.image.bytes())?;
        write(&map_path, write_map(&linked.map).as_bytes())?;

        // The dictionary is mined the way `rap profile` mines it: one
        // profiling run under a throwaway key, default parameters.
        let (dict, dict_path) = if spec.dict {
            let profile = attest(&CfaEngine::new(device_key("rap-profile")))?;
            let h_mem = profile.reports[0].h_mem;
            let dict = SubPathDict::mine(
                &profile.combined_log(),
                h_mem,
                spec.app,
                DictParams::default(),
            );
            let path = dir.join("app.dict");
            write(&path, dict.to_text().as_bytes())?;
            (Some(dict), Some(path))
        } else {
            (None, None)
        };

        let mut engine = CfaEngine::new(key.clone());
        if let Some(dict) = &dict {
            engine = engine.with_dict(dict.entries().to_vec());
        }
        let recording = attest(&engine)?;
        let device_overhead_pct =
            (recording.outcome.cycles as f64 / plain_cycles as f64 - 1.0) * 100.0;

        let artifacts = Artifacts {
            image: image_path,
            map: map_path,
            dict: dict_path,
        };
        let verifier = artifacts.load_verifier(&key)?;
        let chal = Challenge::from_seed(0);
        let expected = verifier
            .verify(chal, &recording.reports)
            .map(|path| (path.events.len() as u32, path.steps))
            .map_err(|v| format!("the unforged recording is rejected: {v}"))?;

        let audit_template = if spec.audit {
            let path = dir.join("prefill.ralog");
            prefill_audit_log(&path, seed, &verifier.verdict_seal_key())?;
            Some(path)
        } else {
            None
        };

        Ok(Inputs {
            workload,
            spec,
            seed,
            session_secret: Rng::new(seed, STREAM_SECRET).bytes32().to_vec(),
            device: Device::new(key.clone(), recording.reports, spec.forged),
            key,
            artifacts,
            expected,
            device_overhead_pct,
            audit_template,
            dir: dir.to_path_buf(),
        })
    }

    /// Device ids in the order the seed gives them; the served run takes
    /// the first two that land on different server shards.
    pub fn device_ids(&self) -> impl Iterator<Item = String> {
        let mut rng = Rng::new(self.seed, STREAM_DEVICES);
        std::iter::repeat_with(move || format!("dev-{:08x}", rng.next_u64() as u32))
    }

    /// The evidence variant connection `conn` sends in timed round
    /// `round`: 0 for the recording, else the forged variant (which
    /// entry moves is seeded too).
    pub fn variant(&self, conn: usize, round: u64) -> usize {
        if !(self.spec.forged && forged(self.seed, conn, round)) {
            return 0;
        }
        let entry = mix(&[self.seed, STREAM_FORGE_ENTRY, conn as u64, round]);
        1 + (entry % self.device.forgeries()) as usize
    }
}

/// Whether timed round `round` of connection `conn` is forged: exactly
/// one round in every block of [`FORGE_EVERY`], at a seeded position.
fn forged(seed: u64, conn: usize, round: u64) -> bool {
    let block = round / FORGE_EVERY;
    round % FORGE_EVERY == mix(&[seed, STREAM_FORGE_POS, conn as u64, block]) % FORGE_EVERY
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Writes [`PREFILL_RECORDS`] sealed records with seeded contents, one
/// rejection in every [`FORGE_EVERY`]. Accepted and rejected records
/// each have one fixed length, so the log's size does not depend on the
/// seed.
fn prefill_audit_log(path: &Path, seed: u64, seal_key: &[u8]) -> Result<(), String> {
    let mut rng = Rng::new(seed, STREAM_PREFILL);
    let mut log = AuditLog::create(path).map_err(|e| format!("create audit log: {e}"))?;
    let mut rejected_at = 0;
    for seq in 0..PREFILL_RECORDS {
        if seq % FORGE_EVERY == 0 {
            rejected_at = rng.next_u64() % FORGE_EVERY;
        }
        let mut draft = VerdictDraft {
            device: format!("dev-{:08x}", rng.next_u64() as u32),
            chal: Challenge(rng.bytes32()),
            report_hash: rng.bytes32(),
            stats_digest: rng.bytes32(),
            seq: seq + 1,
            ..VerdictDraft::default()
        };
        if seq % FORGE_EVERY == rejected_at {
            draft.kind = "UnexpectedSource".into();
            draft.detail = format!("source {:08x} off its site", rng.next_u64() as u32);
        } else {
            draft.accepted = true;
            draft.events = 16;
            draft.steps = 250 + rng.next_u64() % 8;
        }
        log.append_record(&VerdictRecord::seal(seal_key, draft));
        if seq % 1024 == 1023 {
            log.flush().map_err(|e| format!("write audit log: {e}"))?;
        }
    }
    log.flush().map_err(|e| format!("write audit log: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_in_each_block_is_forged_and_the_seed_moves_it() {
        for seed in [7, 8] {
            for conn in 0..2 {
                for block in 0..64 {
                    let start = block * FORGE_EVERY;
                    let n = (start..start + FORGE_EVERY)
                        .filter(|&r| forged(seed, conn, r))
                        .count();
                    assert_eq!(n, 1, "seed {seed} conn {conn} block {block}");
                }
            }
        }
        let positions = |seed| {
            (0..1024)
                .filter(|&r| forged(seed, 0, r))
                .collect::<Vec<_>>()
        };
        assert_ne!(positions(7), positions(8));
    }
}
