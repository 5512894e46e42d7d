//! The Verifier: report authentication and lossless control-flow path
//! reconstruction.
//!
//! Given the deployed binary, the [`LinkMap`] from the offline phase and
//! an authenticated report stream, the Verifier *replays* the binary: it
//! walks instructions from the entry point, consuming one `CF_Log`
//! element at every non-deterministic decision. A benign execution
//! consumes the whole log exactly; any deviation — a corrupted return
//! address, a hijacked indirect call, a forged or truncated log —
//! surfaces as a typed [`Violation`].

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use rap_obs::CachePadded;

use armv8m_isa::{service, BranchKind, Image, Instr, Reg, Target};
use rap_crypto::{sha256, Digest, HmacSha256};
use rap_link::{LinkMap, LoopPlanKind, SiteKind};

use crate::dict::SubPathDict;
use crate::policy::{PathPolicy, PolicyFinding};
use crate::protocol::SessionError;
use crate::report::{Challenge, Key, Report};
use crate::verdict::{VerdictDraft, VerdictRecord};

/// Iteration cap for replayed simple loops (anti-DoS bound on forged
/// loop-condition records).
const LOOP_CAP: u32 = 1 << 22;

/// A reconstructed control-flow event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEvent {
    /// Replay started at this address.
    Enter(u32),
    /// A direct call.
    Call {
        /// Address of the `BL`.
        site: u32,
        /// Callee entry.
        dest: u32,
    },
    /// An indirect call, recovered from the log.
    IndirectCall {
        /// Address of the rewritten call site.
        site: u32,
        /// Callee entry from the MTB packet.
        dest: u32,
    },
    /// A function return.
    Return {
        /// Address of the returning site (rewritten `POP`/`BX LR`).
        site: u32,
        /// Return target.
        dest: u32,
    },
    /// A tracked conditional took its branch.
    CondTaken {
        /// Address of the conditional.
        site: u32,
        /// Taken target.
        dest: u32,
    },
    /// A tracked conditional fell through.
    CondNotTaken {
        /// Address of the conditional.
        site: u32,
    },
    /// One iteration of a forward-exit loop (Fig. 7 continue packet).
    LoopContinue {
        /// Address of the inserted continue branch.
        site: u32,
    },
    /// An optimized loop ran to completion (§IV-D replay).
    LoopIterations {
        /// Loop header address.
        header: u32,
        /// Reconstructed iteration count.
        count: u32,
    },
    /// An indirect jump (switch dispatch).
    IndirectJump {
        /// Address of the rewritten jump site.
        site: u32,
        /// Jump target from the MTB packet.
        dest: u32,
    },
    /// Replay reached `HALT`.
    Halt(u32),
}

/// Why verification failed.
///
/// Non-exhaustive: future verifier layers may add violation kinds, so
/// downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// A report failed MAC authentication.
    BadTag {
        /// Sequence number of the offending report.
        seq: u32,
    },
    /// Reports out of order, missing, or final-flag misplaced.
    BadReportStream(String),
    /// The reported `H_MEM` does not match the known-good binary.
    HMemMismatch,
    /// The reported challenge does not match the issued one.
    ChallengeMismatch,
    /// Replay reached a non-executable address.
    InvalidPc {
        /// The bad address.
        pc: u32,
    },
    /// The log ended although replay still required an element.
    LogExhausted {
        /// Replay position when the log ran dry.
        pc: u32,
    },
    /// Log elements remained after the program halted.
    TrailingLog {
        /// Unconsumed MTB packets.
        mtb_left: usize,
        /// Unconsumed loop records.
        loops_left: usize,
    },
    /// An MTB packet's source does not match the expected stub.
    UnexpectedSource {
        /// Replay position.
        pc: u32,
        /// Source carried by the packet.
        got: u32,
        /// Source replay expected.
        expected: u32,
    },
    /// An MTB packet's destination is inconsistent with the stub kind.
    UnexpectedDest {
        /// Replay position.
        pc: u32,
        /// Destination carried by the packet.
        got: u32,
        /// Destination replay expected.
        expected: u32,
    },
    /// A return target disagrees with the shadow call stack — the
    /// signature of ROP.
    ReturnMismatch {
        /// Site address.
        site: u32,
        /// Expected return target (shadow stack).
        expected: u32,
        /// Logged return target.
        got: u32,
    },
    /// A return occurred with an empty shadow stack.
    ShadowStackUnderflow {
        /// Site address.
        site: u32,
    },
    /// An indirect call targeted something that is not a function
    /// entry — the signature of JOP/call hijacking.
    InvalidCallTarget {
        /// Site address.
        site: u32,
        /// The illegal destination.
        dest: u32,
    },
    /// A conditional branch that should have been rewritten was not —
    /// the binary and the map disagree.
    UntrackedConditional {
        /// The conditional's address.
        addr: u32,
    },
    /// An untracked indirect transfer in MTBDR — map/binary mismatch.
    UntrackedIndirect {
        /// The instruction's address.
        addr: u32,
    },
    /// A replayed loop failed to terminate within the cap.
    LoopDiverged {
        /// The latch address.
        latch: u32,
    },
    /// Replay exceeded its step budget.
    BudgetExceeded,
    /// A report carries the MTB overflow flag: packets were overwritten
    /// before they could be drained, so the path cannot be losslessly
    /// reconstructed. Configure a watermark (§IV-E).
    EvidenceLost {
        /// Sequence number of the overflowed report.
        seq: u32,
    },
    /// A report carries a dictionary-hit record whose id is not in the
    /// loaded dictionary — a forged or stale id.
    UnknownDictId {
        /// The offending entry id.
        id: u32,
    },
    /// The loaded dictionary was mined for a different binary than the
    /// one this verifier replays; its ids cannot be trusted here.
    DictImageMismatch,
    /// A report carries dictionary-hit records but no dictionary is
    /// loaded, so the compressed sub-paths cannot be expanded.
    DictUnavailable,
}

impl Violation {
    /// A stable, static name for the violation kind — the label used by
    /// the per-violation-kind observability counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::BadTag { .. } => "BadTag",
            Violation::BadReportStream(_) => "BadReportStream",
            Violation::HMemMismatch => "HMemMismatch",
            Violation::ChallengeMismatch => "ChallengeMismatch",
            Violation::InvalidPc { .. } => "InvalidPc",
            Violation::LogExhausted { .. } => "LogExhausted",
            Violation::TrailingLog { .. } => "TrailingLog",
            Violation::UnexpectedSource { .. } => "UnexpectedSource",
            Violation::UnexpectedDest { .. } => "UnexpectedDest",
            Violation::ReturnMismatch { .. } => "ReturnMismatch",
            Violation::ShadowStackUnderflow { .. } => "ShadowStackUnderflow",
            Violation::InvalidCallTarget { .. } => "InvalidCallTarget",
            Violation::UntrackedConditional { .. } => "UntrackedConditional",
            Violation::UntrackedIndirect { .. } => "UntrackedIndirect",
            Violation::LoopDiverged { .. } => "LoopDiverged",
            Violation::BudgetExceeded => "BudgetExceeded",
            Violation::EvidenceLost { .. } => "EvidenceLost",
            Violation::UnknownDictId { .. } => "UnknownDictId",
            Violation::DictImageMismatch => "DictImageMismatch",
            Violation::DictUnavailable => "DictUnavailable",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::BadTag { seq } => write!(f, "report {seq} failed authentication"),
            Violation::BadReportStream(msg) => write!(f, "malformed report stream: {msg}"),
            Violation::HMemMismatch => write!(f, "H_MEM does not match the expected binary"),
            Violation::ChallengeMismatch => write!(f, "challenge mismatch"),
            Violation::InvalidPc { pc } => write!(f, "replay reached invalid pc {pc:#010x}"),
            Violation::LogExhausted { pc } => {
                write!(f, "cf_log exhausted while replaying at {pc:#010x}")
            }
            Violation::TrailingLog {
                mtb_left,
                loops_left,
            } => write!(
                f,
                "{mtb_left} mtb packets and {loops_left} loop records left after halt"
            ),
            Violation::UnexpectedSource { pc, got, expected } => write!(
                f,
                "packet source {got:#010x} != expected {expected:#010x} at {pc:#010x}"
            ),
            Violation::UnexpectedDest { pc, got, expected } => write!(
                f,
                "packet dest {got:#010x} != expected {expected:#010x} at {pc:#010x}"
            ),
            Violation::ReturnMismatch {
                site,
                expected,
                got,
            } => write!(
                f,
                "return at {site:#010x} went to {got:#010x}, expected {expected:#010x} (ROP)"
            ),
            Violation::ShadowStackUnderflow { site } => {
                write!(f, "return at {site:#010x} with empty shadow stack")
            }
            Violation::InvalidCallTarget { site, dest } => write!(
                f,
                "indirect call at {site:#010x} targeted non-function {dest:#010x}"
            ),
            Violation::UntrackedConditional { addr } => {
                write!(f, "untracked conditional at {addr:#010x}")
            }
            Violation::UntrackedIndirect { addr } => {
                write!(f, "untracked indirect transfer at {addr:#010x}")
            }
            Violation::LoopDiverged { latch } => {
                write!(f, "loop at latch {latch:#010x} did not terminate")
            }
            Violation::BudgetExceeded => write!(f, "replay step budget exceeded"),
            Violation::EvidenceLost { seq } => {
                write!(f, "report {seq} flags an MTB overflow: evidence lost")
            }
            Violation::UnknownDictId { id } => {
                write!(f, "report references unknown dictionary entry {id}")
            }
            Violation::DictImageMismatch => {
                write!(f, "loaded dictionary was mined for a different binary")
            }
            Violation::DictUnavailable => {
                write!(
                    f,
                    "report carries dictionary hits but no dictionary is loaded"
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

/// A successfully reconstructed execution path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedPath {
    /// Control-flow events in execution order.
    pub events: Vec<PathEvent>,
    /// Instructions walked during replay (≈ attested instructions).
    pub steps: u64,
}

impl VerifiedPath {
    /// Convenience: the addresses of all indirect-call targets, in
    /// order (useful for audit tooling).
    pub fn indirect_call_targets(&self) -> Vec<u32> {
        self.events
            .iter()
            .filter_map(|e| match e {
                PathEvent::IndirectCall { dest, .. } => Some(*dest),
                _ => None,
            })
            .collect()
    }

    /// Renders the path as a human-readable listing, resolving
    /// addresses to symbols via the deployed image where possible.
    pub fn render(&self, image: &Image) -> String {
        use std::fmt::Write as _;
        let sym = |addr: u32| -> String {
            for (name, a) in image.symbols() {
                if *a == addr && !name.starts_with("__rap_") {
                    return format!("{name} ({addr:#x})");
                }
            }
            format!("{addr:#x}")
        };
        let mut out = String::new();
        let mut depth = 0usize;
        for event in &self.events {
            let indent = "  ".repeat(depth.min(12));
            match event {
                PathEvent::Enter(a) => {
                    let _ = writeln!(out, "enter {}", sym(*a));
                }
                PathEvent::Call { dest, .. } => {
                    let _ = writeln!(out, "{indent}call {}", sym(*dest));
                    depth += 1;
                }
                PathEvent::IndirectCall { dest, .. } => {
                    let _ = writeln!(out, "{indent}call* {}", sym(*dest));
                    depth += 1;
                }
                PathEvent::Return { .. } => {
                    depth = depth.saturating_sub(1);
                }
                PathEvent::CondTaken { site, dest } => {
                    let _ = writeln!(out, "{indent}if@{site:#x} -> {}", sym(*dest));
                }
                PathEvent::CondNotTaken { site } => {
                    let _ = writeln!(out, "{indent}if@{site:#x} fell through");
                }
                PathEvent::LoopContinue { site } => {
                    let _ = writeln!(out, "{indent}loop-continue@{site:#x}");
                }
                PathEvent::LoopIterations { header, count } => {
                    let _ = writeln!(out, "{indent}loop {} x{count}", sym(*header));
                }
                PathEvent::IndirectJump { dest, .. } => {
                    let _ = writeln!(out, "{indent}switch -> {}", sym(*dest));
                }
                PathEvent::Halt(a) => {
                    let _ = writeln!(out, "halt at {}", sym(*a));
                }
            }
        }
        out
    }
}

/// The Verifier for one deployed application.
///
/// A `Verifier` is one reference-counted handle: a clone bumps a count
/// and allocates nothing, and every clone shares the segment table, the
/// dictionary macro cache and the [counters](Verifier::stats). A fleet
/// of worker threads (or one session per device running the same
/// binary) therefore decodes each deterministic stretch once.
#[derive(Debug, Clone)]
pub struct Verifier {
    inner: Arc<Inner>,
}

/// Macro-cache map: `(entry id, span entry PC)` → recorded variants.
type MacroMap = RwLock<HashMap<(u32, u32), Vec<Arc<DictMacro>>>>;

/// Everything a [`Verifier`] owns, behind its one `Arc`.
///
/// The counters are cache-line padded so a worker updating one never
/// invalidates its neighbours' lines, and they are only touched by
/// [`Verifier::commit_tally`] — once per job, never from inside the
/// replay loop.
#[derive(Debug)]
struct Inner {
    /// A MAC context keyed with the device key: every report MAC
    /// clones it.
    report_mac: HmacSha256,
    /// [`crate::verdict_seal_key`] of the device key, derived once at
    /// build.
    seal_key: Digest,
    /// A MAC context keyed with `seal_key`: every seal clones it.
    seal_mac: HmacSha256,
    image: Image,
    map: LinkMap,
    h_mem: Digest,
    entry: u32,
    /// Replay step budget.
    max_steps: u64,
    policy: Option<PathPolicy>,
    dict: Option<SubPathDict>,
    /// One slot per halfword of `[image.base(), image.end())`: slot `i`
    /// holds the deterministic stretch entered at `base + 2 * i`, built
    /// by the first lookup that reaches it (see
    /// [`Verifier::segment_at`]). Contents depend only on the image and
    /// map, never on a particular log, so the table is safely shared
    /// across sessions, threads and devices, and its size is fixed by
    /// the image: forged logs cannot grow it.
    segments: Box<[OnceLock<Segment>]>,
    /// Dictionary macro cache: `(entry id, span entry PC)` → replay
    /// deltas recorded the first time that sub-path was replayed live
    /// from that PC. Touched at most once per dictionary hit, so a
    /// single lock is plenty.
    dict_macros: MacroMap,
    hits: CachePadded<AtomicU64>,
    misses: CachePadded<AtomicU64>,
    cached_steps: CachePadded<AtomicU64>,
    live_steps: CachePadded<AtomicU64>,
    jobs: CachePadded<AtomicU64>,
    wall_ns: CachePadded<AtomicU64>,
}

/// Plain-integer tallies for one verification job, accumulated on the
/// stack of whoever drives the replay and published to the shared
/// [`VerifierStats`](crate::VerifierStats) atomics and the `rap-obs`
/// registry in one [`Verifier::commit_tally`] call, so the replay hot
/// loop touches no shared cache line at all.
#[derive(Debug, Default)]
struct StatsTally {
    cache_hits: u64,
    /// Lookups that built their table slot — one per segment built.
    cache_misses: u64,
    cached_steps: u64,
    live_steps: u64,
    rewinds: u64,
    checkpoints: u64,
    /// Dictionary spans satisfied from the macro cache (bulk-applied
    /// without re-replaying the sub-path).
    dict_bulk_applies: u64,
    jobs: u64,
    wall_ns: u64,
    accepted: u64,
    rejected: u64,
    /// The kind of the job's violation, if it was rejected.
    violation: Option<&'static str>,
}

/// A memoized deterministic stretch of replay: the instruction walk
/// from one entry PC up to (excluding) the next instruction whose
/// outcome depends on the `CF_Log`, the shadow stack or termination.
/// Replaying it is a bulk append instead of an instruction-by-
/// instruction decode.
#[derive(Debug)]
struct Segment {
    /// Instructions covered.
    steps: u64,
    /// Path events produced along the stretch (direct calls, statically
    /// elided loops).
    events: Vec<PathEvent>,
    /// Return addresses pushed by direct calls, in push order.
    shadow_pushes: Vec<u32>,
    /// PC of the first non-deterministic (or terminal) instruction.
    end_pc: u32,
}

/// Bound on the instructions a single cached segment may cover. Keeps
/// segment construction O(1)-ish and preserves the step-budget verdict
/// on images containing deterministic infinite loops (`b .`).
const SEGMENT_CAP: u64 = 4096;

/// Staged construction of a [`Verifier`] — the one entry point every
/// consumer (CLI, `rap-serve`, examples, tests) goes through.
///
/// `key`, `image` and `map` are required; everything else has the
/// defaults [`Verifier::new`] always used:
///
/// ```no_run
/// # use rap_track::Verifier;
/// # let (key, image, map): (rap_track::Key, armv8m_isa::Image, rap_link::LinkMap) = todo!();
/// let verifier = Verifier::builder()
///     .key(key)
///     .image(image)
///     .map(map)
///     .max_steps(10_000_000)
///     .build()?;
/// # Ok::<(), rap_track::BuildError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct VerifierBuilder {
    key: Option<Key>,
    image: Option<Image>,
    map: Option<LinkMap>,
    policy: Option<PathPolicy>,
    dict: Option<SubPathDict>,
    max_steps: u64,
}

/// A [`VerifierBuilder::build`] call was missing a required component.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct BuildError {
    /// The missing builder field (`"key"`, `"image"` or `"map"`).
    pub missing: &'static str,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "verifier builder is missing `{}`", self.missing)
    }
}

impl std::error::Error for BuildError {}

impl VerifierBuilder {
    /// The device MAC key (required).
    #[must_use]
    pub fn key(mut self, key: Key) -> Self {
        self.key = Some(key);
        self
    }

    /// The deployed binary image (required).
    #[must_use]
    pub fn image(mut self, image: Image) -> Self {
        self.image = Some(image);
        self
    }

    /// The offline-phase link map (required).
    #[must_use]
    pub fn map(mut self, map: LinkMap) -> Self {
        self.map = Some(map);
        self
    }

    /// A declarative [`PathPolicy`] evaluated over accepted paths via
    /// [`Verifier::check_policy`]. No policy (the default) means
    /// allow-everything.
    #[must_use]
    pub fn policy(mut self, policy: PathPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// A [`SubPathDict`] for expanding dictionary-compressed report
    /// streams. Without one, any report carrying dictionary hits is
    /// rejected with [`Violation::DictUnavailable`]; with one mined for
    /// a different binary, with [`Violation::DictImageMismatch`].
    #[must_use]
    pub fn dict(mut self, dict: SubPathDict) -> Self {
        self.dict = Some(dict);
        self
    }

    /// Replay step budget (default 100 million) — the anti-DoS bound on
    /// forged logs driving replay forever.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// [`BuildError`] when `key`, `image` or `map` was never supplied.
    pub fn build(self) -> Result<Verifier, BuildError> {
        let key = self.key.ok_or(BuildError { missing: "key" })?;
        let image = self.image.ok_or(BuildError { missing: "image" })?;
        let map = self.map.ok_or(BuildError { missing: "map" })?;
        let mut seal_key = [0u8; 32];
        seal_key.copy_from_slice(&crate::verdict::verdict_seal_key(&key));
        let slots = (image.end() - image.base()) / 2;
        let inner = Inner {
            report_mac: HmacSha256::new(&key),
            seal_mac: HmacSha256::new(&seal_key),
            seal_key,
            h_mem: sha256(image.bytes()),
            entry: image.base(),
            image,
            map,
            max_steps: if self.max_steps == 0 {
                100_000_000
            } else {
                self.max_steps
            },
            policy: self.policy,
            dict: self.dict,
            segments: (0..slots).map(|_| OnceLock::new()).collect(),
            dict_macros: RwLock::new(HashMap::new()),
            hits: CachePadded::default(),
            misses: CachePadded::default(),
            cached_steps: CachePadded::default(),
            live_steps: CachePadded::default(),
            jobs: CachePadded::default(),
            wall_ns: CachePadded::default(),
        };
        Ok(Verifier {
            inner: Arc::new(inner),
        })
    }
}

impl Verifier {
    /// Starts building a Verifier; see [`VerifierBuilder`].
    pub fn builder() -> VerifierBuilder {
        VerifierBuilder::default()
    }

    /// Creates a Verifier for the given deployed binary and link map
    /// with default policy and budget settings — a thin wrapper
    /// over [`Verifier::builder`]. Replay starts at the image base.
    pub fn new(key: Key, image: Image, map: LinkMap) -> Verifier {
        Verifier::builder()
            .key(key)
            .image(image)
            .map(map)
            .build()
            .expect("all required builder fields supplied")
    }

    /// The expected `H_MEM` of the deployed binary.
    pub fn expected_h_mem(&self) -> Digest {
        self.inner.h_mem
    }

    /// The [`PathPolicy`] configured at build time, if any.
    pub fn policy(&self) -> Option<&PathPolicy> {
        self.inner.policy.as_ref()
    }

    /// The [`SubPathDict`] configured at build time, if any.
    pub fn dict(&self) -> Option<&SubPathDict> {
        self.inner.dict.as_ref()
    }

    /// Evaluates the configured policy over an accepted path; an empty
    /// result means compliance (and is always returned when no policy
    /// was configured).
    pub fn check_policy(&self, path: &VerifiedPath) -> Vec<PolicyFinding> {
        self.policy().map(|p| p.check(path)).unwrap_or_default()
    }

    /// A snapshot of the verifier-side counters: segment-table
    /// effectiveness and verification work done so far (across all
    /// clones sharing this verifier's table).
    pub fn stats(&self) -> crate::VerifierStats {
        let inner = &self.inner;
        crate::VerifierStats {
            cache_hits: inner.hits.load(Ordering::Relaxed),
            cache_misses: inner.misses.load(Ordering::Relaxed),
            cached_steps: inner.cached_steps.load(Ordering::Relaxed),
            live_steps: inner.live_steps.load(Ordering::Relaxed),
            jobs: inner.jobs.load(Ordering::Relaxed),
            wall_ns: inner.wall_ns.load(Ordering::Relaxed),
        }
    }

    /// The domain-separated key this verifier seals
    /// [`VerdictRecord`]s with — hand it to an offline audit-chain
    /// verifier to re-check record provenance.
    pub fn verdict_seal_key(&self) -> Key {
        self.inner.seal_key.to_vec()
    }

    /// Seals a hand-built [`VerdictDraft`] under this verifier's
    /// sealing key; verification outcomes are sealed by
    /// [`Verifier::verify_record`].
    pub fn seal_verdict(&self, draft: VerdictDraft) -> VerdictRecord {
        VerdictRecord::seal_keyed(&self.inner.seal_mac, draft)
    }

    /// Decodes a report-stream `payload`, verifies it against `chal`
    /// and seals the outcome, binding `device` and `seq` (a
    /// producer-local logical timestamp). A payload that does not
    /// decode seals as kind `wire` without running the verifier. The
    /// plain result is returned alongside.
    pub fn verify_record(
        &self,
        device: &str,
        seq: u64,
        chal: Challenge,
        payload: &[u8],
    ) -> (VerdictRecord, Result<VerifiedPath, SessionError>) {
        self.judge_payload(device, seq, Some(chal), payload)
    }

    /// The one place a verification outcome becomes a sealed record
    /// (`chal` is `None` when nothing was outstanding). Every sealed
    /// field comes from the arguments, never from [`Verifier::stats`].
    pub(crate) fn judge_payload(
        &self,
        device: &str,
        seq: u64,
        chal: Option<Challenge>,
        payload: &[u8],
    ) -> (VerdictRecord, Result<VerifiedPath, SessionError>) {
        let mut draft = VerdictDraft {
            device: device.to_string(),
            chal: chal.unwrap_or(Challenge([0u8; 32])),
            report_hash: sha256(payload),
            seq,
            ..VerdictDraft::default()
        };
        let result = crate::wire::decode_stream(payload)
            .map_err(SessionError::Wire)
            .and_then(|reports| {
                draft.dict_hits = reports
                    .iter()
                    .map(|r| r.log.dict_hits.len() as u32)
                    .fold(0, u32::saturating_add);
                let chal = chal.ok_or(SessionError::NoOutstandingChallenge)?;
                self.verify(chal, &reports)
                    .map_err(SessionError::Verification)
            });
        match &result {
            Ok(path) => {
                draft.accepted = true;
                draft.events = path.events.len() as u32;
                draft.steps = path.steps;
            }
            Err(e) => {
                (draft.kind, draft.detail) = match e {
                    SessionError::NoOutstandingChallenge => {
                        ("no-outstanding-challenge".into(), e.to_string())
                    }
                    SessionError::Wire(w) => ("wire".into(), w.to_string()),
                    SessionError::Verification(v) => (v.kind().into(), v.to_string()),
                }
            }
        }
        (self.seal_verdict(draft), result)
    }

    /// Authenticates a report stream and reconstructs the execution
    /// path it attests.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] encountered — authentication
    /// failures first, then replay divergences.
    pub fn verify(&self, chal: Challenge, reports: &[Report]) -> Result<VerifiedPath, Violation> {
        let start = Instant::now();
        let _job_span = rap_obs::span("verify_job");
        let (result, mut tally) = match self.begin(chal, reports) {
            Ok(session) => session.run_tallied(),
            Err(v) => (Err(v), StatsTally::default()),
        };
        tally.jobs = 1;
        tally.wall_ns = start.elapsed().as_nanos() as u64;
        match &result {
            Ok(_) => tally.accepted = 1,
            Err(v) => {
                tally.rejected = 1;
                tally.violation = Some(v.kind());
            }
        }
        self.commit_tally(&tally);
        result
    }

    /// Publishes a job's [`StatsTally`]: one relaxed add per shared
    /// counter and per registry metric, regardless of how many replay
    /// steps the tally covers.
    fn commit_tally(&self, tally: &StatsTally) {
        let inner = &self.inner;
        inner.hits.fetch_add(tally.cache_hits, Ordering::Relaxed);
        inner
            .misses
            .fetch_add(tally.cache_misses, Ordering::Relaxed);
        inner
            .cached_steps
            .fetch_add(tally.cached_steps, Ordering::Relaxed);
        inner
            .live_steps
            .fetch_add(tally.live_steps, Ordering::Relaxed);
        inner.jobs.fetch_add(tally.jobs, Ordering::Relaxed);
        inner.wall_ns.fetch_add(tally.wall_ns, Ordering::Relaxed);

        rap_obs::counter!("verifier_jobs_total").add(tally.jobs);
        rap_obs::counter!("verifier_jobs_accepted_total").add(tally.accepted);
        rap_obs::counter!("verifier_jobs_rejected_total").add(tally.rejected);
        rap_obs::counter!("verifier_cache_hits_total").add(tally.cache_hits);
        rap_obs::counter!("verifier_cache_misses_total").add(tally.cache_misses);
        rap_obs::counter!("verifier_segment_builds_total").add(tally.cache_misses);
        rap_obs::counter!("verifier_replay_live_steps_total").add(tally.live_steps);
        rap_obs::counter!("verifier_replay_cached_steps_total").add(tally.cached_steps);
        rap_obs::counter!("verifier_rewinds_total").add(tally.rewinds);
        rap_obs::counter!("verifier_checkpoints_total").add(tally.checkpoints);
        rap_obs::counter!("verifier_dict_bulk_applies_total").add(tally.dict_bulk_applies);
        // Dynamic (labelled) names: resolved through the registry
        // directly, not the caching macro — rejection is rare.
        if let Some(kind) = tally.violation {
            rap_obs::global()
                .counter(&format!("verifier_violations_total{{kind=\"{kind}\"}}"))
                .inc();
        }
    }

    /// Authenticates a report stream and returns a resumable
    /// [`ReplaySession`] positioned at the entry point. [`verify`]
    /// (which drives the session to completion) is the common path;
    /// `begin` lets a scheduler interleave many sessions or bound the
    /// work done per scheduling quantum.
    ///
    /// [`verify`]: Verifier::verify
    ///
    /// # Errors
    ///
    /// Stream-level violations (authentication, sequencing, challenge,
    /// `H_MEM`, overflow) are rejected before a session is created.
    pub fn begin(
        &self,
        chal: Challenge,
        reports: &[Report],
    ) -> Result<ReplaySession<'_>, Violation> {
        // --- Stream validation -----------------------------------------
        if reports.is_empty() {
            return Err(Violation::BadReportStream("no reports".into()));
        }
        for (i, r) in reports.iter().enumerate() {
            if !r.authenticate_keyed(&self.inner.report_mac) {
                return Err(Violation::BadTag { seq: r.seq });
            }
            if r.seq != i as u32 {
                return Err(Violation::BadReportStream(format!(
                    "expected seq {i}, got {}",
                    r.seq
                )));
            }
            if r.chal != chal {
                return Err(Violation::ChallengeMismatch);
            }
            if r.h_mem != self.inner.h_mem {
                return Err(Violation::HMemMismatch);
            }
            if r.overflow {
                return Err(Violation::EvidenceLost { seq: r.seq });
            }
            let last = i + 1 == reports.len();
            if r.is_final != last {
                return Err(Violation::BadReportStream(
                    "final flag on wrong report".into(),
                ));
            }
        }

        // --- Splice the log streams -------------------------------------
        // Dictionary-hit records expand in place: the sub-path's
        // transfers are re-inserted before the residual transfer they
        // were matched at, so the spliced `mtb` is byte-for-byte what an
        // uncompressed device would have sent. Each expansion is also
        // remembered as a [`HitSpan`] so replay can bulk-apply a cached
        // macro instead of re-walking the span live.
        let mut mtb: Vec<trace_units::TraceEntry> = Vec::new();
        let mut loops: Vec<u32> = Vec::new();
        let mut spans: Vec<HitSpan> = Vec::new();
        for r in reports {
            loops.extend(r.log.loop_records.iter().copied());
            if r.log.dict_hits.is_empty() {
                mtb.extend(r.log.mtb.iter().copied());
                continue;
            }
            let dict = self.dict().ok_or(Violation::DictUnavailable)?;
            if dict.image_hash != self.inner.h_mem {
                return Err(Violation::DictImageMismatch);
            }
            let mut next_hit = 0usize;
            for i in 0..=r.log.mtb.len() {
                while next_hit < r.log.dict_hits.len() && r.log.dict_hits[next_hit].at as usize == i
                {
                    let hit = r.log.dict_hits[next_hit];
                    let entry = dict
                        .entry(hit.id)
                        .ok_or(Violation::UnknownDictId { id: hit.id })?;
                    let start = mtb.len();
                    mtb.extend_from_slice(entry);
                    spans.push(HitSpan {
                        start,
                        end: mtb.len(),
                        id: hit.id,
                    });
                    next_hit += 1;
                }
                if let Some(&t) = r.log.mtb.get(i) {
                    mtb.push(t);
                }
            }
            // Any hit not consumed by the in-order walk points past the
            // residual transfers or runs backwards — a malformed record
            // the matcher can never emit.
            if next_hit != r.log.dict_hits.len() {
                return Err(Violation::BadReportStream(
                    "dictionary hit records out of order".into(),
                ));
            }
        }

        let scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
        Ok(ReplaySession {
            verifier: self,
            mtb,
            loops,
            state: ReplayState::new(self.inner.entry, scratch.undo),
            checkpoints: scratch.checkpoints,
            first_violation: None,
            global_steps: 0,
            spans,
            next_span: 0,
            recording: None,
            tally: Some(StatsTally::default()),
        })
    }

    /// The deterministic segment entered at `pc`, from its table slot.
    ///
    /// The first lookup that reaches a slot builds it inside
    /// `get_or_init`; every later lookup is an index and one acquire
    /// load — no lock, no hashing, no shared refcount write. Exactly one
    /// of `cache_hits`/`cache_misses` is tallied per call, and a miss is
    /// the one call that built the slot, so both totals are independent
    /// of thread count. A PC with no slot (below the base, past the end,
    /// or odd) counts as a hit and yields `None`; the live stepper then
    /// reports it as [`Violation::InvalidPc`].
    fn segment_at(&self, pc: u32, tally: &mut StatsTally) -> Option<&Segment> {
        let slot = pc
            .checked_sub(self.inner.image.base())
            .filter(|offset| offset % 2 == 0)
            .and_then(|offset| self.inner.segments.get(offset as usize / 2));
        let Some(slot) = slot else {
            tally.cache_hits += 1;
            return None;
        };
        let mut built = false;
        let segment = slot.get_or_init(|| {
            built = true;
            self.build_segment(pc)
        });
        if built {
            tally.cache_misses += 1;
            rap_obs::event("segment_build", pc as u64, segment.steps);
        } else {
            tally.cache_hits += 1;
        }
        Some(segment)
    }

    /// Walks instructions from `pc` while their outcome is a pure
    /// function of the PC — no log element consumed, no shadow-stack
    /// pop, no termination — and records the walk as a [`Segment`].
    /// The instruction the walk stops at is replayed live.
    fn build_segment(&self, entry: u32) -> Segment {
        let mut pc = entry;
        let mut steps = 0u64;
        let mut events = Vec::new();
        let mut shadow_pushes = Vec::new();

        while steps < SEGMENT_CAP {
            let Some(instr) = self.inner.image.instr_at(pc) else {
                break; // invalid PC: the live stepper reports it
            };
            let size = instr.size();
            match instr {
                Instr::Halt => break,
                Instr::SecureGateway { service: svc, .. } => {
                    if *svc == service::LOG_LOOP_COND {
                        break; // consumes a loop record
                    }
                    steps += 1;
                    pc += size;
                }
                Instr::B { target } => {
                    let Some(dest) = target.abs() else { break };
                    if self.inner.map.site_at_entry(dest).is_some() {
                        break; // trampoline: consumes an MTB packet
                    }
                    steps += 1;
                    pc = dest;
                }
                Instr::BCond { target, .. } => {
                    let Some(dest) = target.abs() else { break };
                    if self.inner.map.site_at_entry(dest).is_some() {
                        break; // tracked conditional
                    }
                    let Some(meta) = self.inner.map.loops_by_latch.get(&pc) else {
                        break; // Fig. 7 forward-exit layout peeks at the log
                    };
                    let LoopPlanKind::Static { init } = meta.kind else {
                        break; // logged init: consumes a loop record
                    };
                    let Some(count) = meta.iterations(init, LOOP_CAP) else {
                        break; // diverging plan: the live stepper reports it
                    };
                    events.push(PathEvent::LoopIterations {
                        header: meta.header,
                        count,
                    });
                    steps += 1;
                    pc = meta.exit;
                }
                Instr::Bl { target } => {
                    let Some(dest) = target.abs() else { break };
                    if self.inner.map.site_at_entry(dest).is_some() {
                        break; // rewritten indirect call
                    }
                    shadow_pushes.push(pc + size);
                    events.push(PathEvent::Call { site: pc, dest });
                    steps += 1;
                    pc = dest;
                }
                other => match other.branch_kind() {
                    BranchKind::None | BranchKind::Gateway => {
                        steps += 1;
                        pc += size;
                    }
                    // BX LR pops the shadow stack; anything else is an
                    // untracked indirect the live stepper must reject.
                    _ => break,
                },
            }
        }

        Segment {
            steps,
            events,
            shadow_pushes,
            end_pc: pc,
        }
    }

    /// Executes one replayed instruction. Returns `Ok(true)` on halt.
    fn step(
        &self,
        state: &mut ReplayState,
        mtb: &[trace_units::TraceEntry],
        loops: &[u32],
        checkpoints: &mut Vec<Checkpoint>,
    ) -> Result<bool, Violation> {
        let pc = state.pc;
        state.steps += 1;
        let instr = self
            .inner
            .image
            .instr_at(pc)
            .ok_or(Violation::InvalidPc { pc })?;
        let size = instr.size();

        match instr {
            Instr::Halt => {
                state.events.push(PathEvent::Halt(pc));
                return Ok(true);
            }
            Instr::SecureGateway { service: svc, .. } => {
                if *svc == service::LOG_LOOP_COND {
                    // The record joins the pending window
                    // `loops[init_head..loop_idx]`.
                    if state.loop_idx >= loops.len() {
                        return Err(Violation::LogExhausted { pc });
                    }
                    state.loop_idx += 1;
                }
                state.pc = pc + size;
            }
            Instr::B { target } => {
                let dest = resolve(target);
                if let Some(site) = self.inner.map.site_at_entry(dest) {
                    match site.kind {
                        SiteKind::LoopForward { cont } => {
                            let e = state.take_mtb(mtb, pc)?;
                            expect_src(pc, e.source, site.src)?;
                            expect_dest(pc, e.dest, cont)?;
                            state.events.push(PathEvent::LoopContinue { site: pc });
                            state.pc = cont;
                        }
                        SiteKind::CondFallthrough { cont } => {
                            let e = state.take_mtb(mtb, pc)?;
                            expect_src(pc, e.source, site.src)?;
                            expect_dest(pc, e.dest, cont)?;
                            state.events.push(PathEvent::CondNotTaken { site: pc });
                            state.pc = cont;
                        }
                        SiteKind::ReturnPop | SiteKind::ReturnBx => {
                            let e = state.take_mtb(mtb, pc)?;
                            expect_src(pc, e.source, site.src)?;
                            let expected = state
                                .pop_shadow()
                                .ok_or(Violation::ShadowStackUnderflow { site: pc })?;
                            if e.dest != expected {
                                return Err(Violation::ReturnMismatch {
                                    site: pc,
                                    expected,
                                    got: e.dest,
                                });
                            }
                            state.events.push(PathEvent::Return {
                                site: pc,
                                dest: e.dest,
                            });
                            state.pc = e.dest;
                        }
                        SiteKind::LoadJump | SiteKind::IndirectJump => {
                            let e = state.take_mtb(mtb, pc)?;
                            expect_src(pc, e.source, site.src)?;
                            if self.inner.map.in_mtbar(e.dest) {
                                return Err(Violation::InvalidPc { pc: e.dest });
                            }
                            state.events.push(PathEvent::IndirectJump {
                                site: pc,
                                dest: e.dest,
                            });
                            state.pc = e.dest;
                        }
                        SiteKind::IndirectCall | SiteKind::CondTaken { .. } => {
                            return Err(Violation::UntrackedIndirect { addr: pc });
                        }
                    }
                } else {
                    state.pc = dest;
                }
            }
            Instr::BCond { target, .. } => {
                let dest = resolve(target);
                if let Some(site) = self.inner.map.site_at_entry(dest) {
                    let SiteKind::CondTaken { taken } = site.kind else {
                        return Err(Violation::UntrackedConditional { addr: pc });
                    };
                    let front_matches =
                        mtb.get(state.mtb_idx).is_some_and(|e| e.source == site.src);
                    // With CondBoth instrumentation the very next
                    // instruction is a fall-through-logging branch, and
                    // the decision is fully determined by the log.
                    let ft_site = self.inner.image.instr_at(pc + size).and_then(|n| match n {
                        Instr::B { target } => self
                            .inner
                            .map
                            .site_at_entry(resolve(target))
                            .filter(|s| matches!(s.kind, SiteKind::CondFallthrough { .. })),
                        _ => None,
                    });
                    if let Some(ft) = ft_site {
                        let e = mtb
                            .get(state.mtb_idx)
                            .copied()
                            .ok_or(Violation::LogExhausted { pc })?;
                        if e.source == site.src {
                            state.mtb_idx += 1;
                            expect_dest(pc, e.dest, taken)?;
                            state.events.push(PathEvent::CondTaken {
                                site: pc,
                                dest: taken,
                            });
                            state.pc = taken;
                        } else if e.source == ft.src {
                            // Leave the packet for the logging branch.
                            state.events.push(PathEvent::CondNotTaken { site: pc });
                            state.pc = pc + size;
                        } else {
                            return Err(Violation::UnexpectedSource {
                                pc,
                                got: e.source,
                                expected: site.src,
                            });
                        }
                    } else if front_matches {
                        // Ambiguous: checkpoint the not-taken reading.
                        checkpoints.push(Checkpoint::new(
                            state,
                            pc + size,
                            PathEvent::CondNotTaken { site: pc },
                        ));

                        let e = state.take_mtb(mtb, pc)?;
                        expect_dest(pc, e.dest, taken)?;
                        state.events.push(PathEvent::CondTaken {
                            site: pc,
                            dest: taken,
                        });
                        state.pc = taken;
                    } else {
                        state.events.push(PathEvent::CondNotTaken { site: pc });
                        state.pc = pc + size;
                    }
                } else if let Some(meta) = self.inner.map.loops_by_latch.get(&pc) {
                    // §IV-D replay: derive the iteration count.
                    let init = match meta.kind {
                        LoopPlanKind::Static { init } => init,
                        LoopPlanKind::Logged => {
                            // The oldest pending init.
                            let init = loops[state.init_head..state.loop_idx]
                                .first()
                                .copied()
                                .ok_or(Violation::LogExhausted { pc })?;
                            state.init_head += 1;
                            init
                        }
                    };
                    let count = meta
                        .iterations(init, LOOP_CAP)
                        .ok_or(Violation::LoopDiverged { latch: pc })?;
                    state.events.push(PathEvent::LoopIterations {
                        header: meta.header,
                        count,
                    });
                    state.pc = meta.exit;
                } else {
                    // Fig. 7 layout: the continue-logging branch
                    // immediately follows the untracked exit check.
                    let next_addr = pc + size;
                    let follows = self.inner.image.instr_at(next_addr);
                    let forward_site = follows.and_then(|n| match n {
                        Instr::B { target } => self
                            .inner
                            .map
                            .site_at_entry(resolve(target))
                            .filter(|s| matches!(s.kind, SiteKind::LoopForward { .. })),
                        _ => None,
                    });
                    let Some(fsite) = forward_site else {
                        return Err(Violation::UntrackedConditional { addr: pc });
                    };
                    let continued = mtb
                        .get(state.mtb_idx)
                        .is_some_and(|e| e.source == fsite.src);
                    if continued {
                        // Ambiguous the same way: checkpoint "taken".
                        checkpoints.push(Checkpoint::new(
                            state,
                            dest,
                            PathEvent::CondTaken { site: pc, dest },
                        ));

                        state.events.push(PathEvent::CondNotTaken { site: pc });
                        state.pc = next_addr; // the B consumes the packet
                    } else {
                        state.events.push(PathEvent::CondTaken { site: pc, dest });
                        state.pc = dest;
                    }
                }
            }
            Instr::Bl { target } => {
                let dest = resolve(target);
                let ret = pc + size;
                if let Some(site) = self.inner.map.site_at_entry(dest) {
                    if site.kind != SiteKind::IndirectCall {
                        return Err(Violation::UntrackedIndirect { addr: pc });
                    }
                    let e = state.take_mtb(mtb, pc)?;
                    expect_src(pc, e.source, site.src)?;
                    let is_entry = self.inner.image.is_func_entry(e.dest)
                        || self.inner.map.funcs.contains_key(&e.dest);
                    if !is_entry {
                        return Err(Violation::InvalidCallTarget {
                            site: pc,
                            dest: e.dest,
                        });
                    }
                    state.shadow.push(ret);
                    state.events.push(PathEvent::IndirectCall {
                        site: pc,
                        dest: e.dest,
                    });
                    state.pc = e.dest;
                } else {
                    state.shadow.push(ret);
                    state.events.push(PathEvent::Call { site: pc, dest });
                    state.pc = dest;
                }
            }
            Instr::Bx { rm } if *rm == Reg::Lr => {
                // Untracked leaf return: deterministic via the shadow
                // stack (§IV-C.2).
                let dest = state
                    .pop_shadow()
                    .ok_or(Violation::ShadowStackUnderflow { site: pc })?;
                state.events.push(PathEvent::Return { site: pc, dest });
                state.pc = dest;
            }
            other => match other.branch_kind() {
                BranchKind::None | BranchKind::Gateway => state.pc = pc + size,
                // Any leftover indirect transfer in MTBDR means the
                // binary and the map disagree.
                _ => return Err(Violation::UntrackedIndirect { addr: pc }),
            },
        }
        Ok(false)
    }
}

/// A resumable replay in progress: the stream has been authenticated
/// and spliced, and the binary is being replayed against it one
/// scheduling quantum at a time.
///
/// Replay semantics — why this is a *backtracking* parse: taken-
/// conditional packets are ambiguous when the *next* logged event comes
/// from the same stub but a later dynamic instance of the site (e.g. a
/// recursive call whose inner conditional is taken while the outer one
/// falls through). At each ambiguous decision the session prefers the
/// "taken/continue" reading and records a checkpoint with the
/// alternative applied; any later violation rewinds to the most recent
/// checkpoint. A benign log always admits a consistent parse; an attack
/// log admits none and the *first* violation is reported.
///
/// Deterministic stretches between log-consuming sites are bulk-applied
/// from the verifier's shared segment table, so repeated loop iterations
/// and repeated devices skip re-decoding identical straight-line code.
#[derive(Debug)]
pub struct ReplaySession<'v> {
    verifier: &'v Verifier,
    mtb: Vec<trace_units::TraceEntry>,
    loops: Vec<u32>,
    state: ReplayState,
    checkpoints: Vec<Checkpoint>,
    first_violation: Option<Violation>,
    global_steps: u64,
    /// Dictionary-hit spans in the spliced `mtb`, in index order
    /// (empty for uncompressed streams — the hot path stays zero-cost).
    spans: Vec<HitSpan>,
    /// First span not yet fully consumed by the current parse.
    next_span: usize,
    /// Live recording of the span currently being replayed, if any.
    recording: Option<Recording>,
    /// Plain-integer tallies for everything this session does (zero
    /// atomics in the replay loop). `Some` until drained: either
    /// [`Verifier::verify`] takes it to commit with the job's verdict,
    /// or `Drop` commits it — so a session driven
    /// externally via [`advance`](ReplaySession::advance) still lands
    /// in the verifier's stats when it goes out of scope.
    tally: Option<StatsTally>,
}

impl Drop for ReplaySession<'_> {
    fn drop(&mut self) {
        if let Some(tally) = self.tally.take() {
            self.verifier.commit_tally(&tally);
        }
        // Hand the growing buffers back for the thread's next round.
        let scratch = ReplayScratch {
            checkpoints: recycle(std::mem::take(&mut self.checkpoints)),
            undo: recycle(std::mem::take(&mut self.state.undo)),
        };
        let _ = SCRATCH.try_with(|slot| slot.set(scratch));
    }
}

impl ReplaySession<'_> {
    /// The current replay position.
    pub fn pc(&self) -> u32 {
        self.state.pc
    }

    /// Instructions replayed so far on the current parse.
    pub fn steps(&self) -> u64 {
        self.state.steps
    }

    /// Advances replay by one quantum: one bulk-applied deterministic
    /// stretch (if the PC has a table slot) plus one live instruction.
    /// Returns `None` while the session is still running, or the final
    /// verdict once replay terminates.
    pub fn advance(&mut self) -> Option<Result<VerifiedPath, Violation>> {
        // Dictionary fast path: settle any recording and bulk-apply
        // cached sub-path macros whose span starts at the current log
        // position. No-op (one branch) for uncompressed streams.
        if !self.spans.is_empty() {
            if let Some(verdict) = self.dict_prelude() {
                return Some(verdict);
            }
        }

        // Bulk-apply the deterministic stretch starting here. Tallies
        // are plain integers on the session and a warm table lookup
        // only reads, so the replay loop writes no shared cache line.
        let tally = self.tally.as_mut().expect("session tally present");
        let segment = self.verifier.segment_at(self.state.pc, tally);
        if let Some(segment) = segment.filter(|s| s.steps > 0) {
            self.state.apply(segment);
            self.global_steps += segment.steps;
            tally.cached_steps += segment.steps;
            if self.global_steps > self.verifier.inner.max_steps {
                return Some(Err(self
                    .first_violation
                    .take()
                    .unwrap_or(Violation::BudgetExceeded)));
            }
        }

        // Replay the non-deterministic (or terminal) head live.
        self.global_steps += 1;
        tally.live_steps += 1;
        if self.global_steps > self.verifier.inner.max_steps {
            return Some(Err(self
                .first_violation
                .take()
                .unwrap_or(Violation::BudgetExceeded)));
        }
        let checkpoints_before = self.checkpoints.len();
        let outcome = self.verifier.step(
            &mut self.state,
            &self.mtb,
            &self.loops,
            &mut self.checkpoints,
        );
        let new_checkpoints = self.checkpoints.len().saturating_sub(checkpoints_before) as u64;
        if let Some(tally) = self.tally.as_mut() {
            tally.checkpoints += new_checkpoints;
        }
        if let Some(rec) = self.recording.as_mut() {
            // Track the deepest shadow truncation inside the span: the
            // macro's precondition pins exactly the frames a replay of
            // the span can observe, and nothing below them.
            rec.min_depth = rec.min_depth.min(self.state.shadow.len());
        }
        match outcome {
            Ok(true) => {
                // Halted: the whole log must be consumed, every loop
                // record both read and used as an init.
                let mtb_left = self.mtb.len() - self.state.mtb_idx;
                let loops_left = self.loops.len() - self.state.init_head;
                if mtb_left == 0 && loops_left == 0 {
                    return Some(Ok(VerifiedPath {
                        events: std::mem::take(&mut self.state.events),
                        steps: self.state.steps,
                    }));
                }
                self.backtrack(Violation::TrailingLog {
                    mtb_left,
                    loops_left,
                })
            }
            Ok(false) => None,
            Err(v) => self.backtrack(v),
        }
    }

    /// Rewinds to the most recent checkpoint, or finishes with the
    /// first violation when no alternative reading remains.
    fn backtrack(&mut self, v: Violation) -> Option<Result<VerifiedPath, Violation>> {
        self.first_violation.get_or_insert(v.clone());
        match self.checkpoints.pop() {
            Some(alt) => {
                if let Some(tally) = self.tally.as_mut() {
                    tally.rewinds += 1;
                }
                rap_obs::event("rewind", alt.alt_pc as u64, self.checkpoints.len() as u64);
                alt.restore(&mut self.state);
                // The rewind may land before (or inside) dictionary
                // spans: the in-flight recording's deltas are no longer
                // contiguous, and the span cursor must follow the log
                // position backwards.
                self.recording = None;
                self.next_span = self.spans.partition_point(|s| s.end <= self.state.mtb_idx);
                None
            }
            None => Some(Err(self.first_violation.take().unwrap_or(v))),
        }
    }

    /// Settles the dictionary machinery at the top of a quantum:
    /// finishes a completed recording, bulk-applies cached macros for
    /// spans starting exactly at the current log position, and
    /// otherwise arms a recording so the span's live replay is captured
    /// for next time. Returns a verdict only when a bulk application
    /// exhausts the step budget.
    fn dict_prelude(&mut self) -> Option<Result<VerifiedPath, Violation>> {
        // Follow the log position forward past fully-consumed spans.
        while self.next_span < self.spans.len()
            && self.spans[self.next_span].end <= self.state.mtb_idx
        {
            self.next_span += 1;
        }
        // A recording is complete once its span's last transfer has
        // been consumed on the current (never-rewound) parse.
        if let Some(rec) = &self.recording {
            if self.state.mtb_idx >= self.spans[rec.span].end {
                self.finish_recording();
            }
        }
        while self.recording.is_none() {
            let Some(&span) = self.spans.get(self.next_span) else {
                break;
            };
            if span.start != self.state.mtb_idx {
                break; // not there yet, or mid-span after a rewind
            }
            let (cached, room) = self.probe_macros(span.id);
            if let Some(m) = cached {
                self.apply_macro(&m, span);
                self.next_span += 1;
                if self.global_steps > self.verifier.inner.max_steps {
                    return Some(Err(self
                        .first_violation
                        .take()
                        .unwrap_or(Violation::BudgetExceeded)));
                }
                continue;
            }
            if room && self.state.no_pending_inits() {
                self.recording = Some(Recording {
                    span: self.next_span,
                    start_pc: self.state.pc,
                    start_events: self.state.events.len(),
                    start_steps: self.state.steps,
                    start_shadow: self.state.shadow.clone(),
                    min_depth: self.state.shadow.len(),
                    start_loop_idx: self.state.loop_idx,
                    start_checkpoints: self.checkpoints.len(),
                });
            }
            break;
        }
        None
    }

    /// Looks up a cached macro for `(id, current PC)` whose
    /// preconditions hold here, also reporting whether the variant slot
    /// still has room (so a futile recording is never armed).
    fn probe_macros(&self, id: u32) -> (Option<Arc<DictMacro>>, bool) {
        let map = self
            .verifier
            .inner
            .dict_macros
            .read()
            .expect("dict macro lock");
        match map.get(&(id, self.state.pc)) {
            Some(variants) => {
                let hit = variants.iter().find(|m| self.macro_applies(m)).cloned();
                let room = variants.len() < MACRO_VARIANT_CAP;
                (hit, room)
            }
            None => (None, true),
        }
    }

    /// Whether a macro's recorded context matches the live state: the
    /// shadow frames it may pop, the loop records it consumes, and no
    /// queued loop inits that would alter in-span decisions.
    fn macro_applies(&self, m: &DictMacro) -> bool {
        let shadow = &self.state.shadow;
        self.state.no_pending_inits()
            && shadow.len() >= m.required_suffix.len()
            && shadow[shadow.len() - m.required_suffix.len()..] == m.required_suffix[..]
            && self.loops[self.state.loop_idx..].starts_with(&m.loops_used)
    }

    /// Bulk-applies a recorded macro: splices the span's events, shadow
    /// / loop / pending deltas and in-span checkpoints exactly as the
    /// live replay that recorded it would have produced them.
    ///
    /// Each in-span checkpoint gets an undo block instead of a shadow
    /// copy: its mark is the log length before `(keep + i,
    /// shadow_tail[i])` entries are appended, so a restore rebuilds
    /// `shadow[..keep] ++ shadow_tail`. The dropped suffix is logged
    /// first, so checkpoints older than the span still rewind past it.
    fn apply_macro(&mut self, m: &DictMacro, span: HitSpan) {
        let state = &mut self.state;
        let keep = state.shadow.len() - m.required_suffix.len();
        let base_mtb = state.mtb_idx;
        let base_loop = state.loop_idx;
        let base_events = state.events.len();
        let base_steps = state.steps;
        state.truncate_shadow(keep);
        for mc in &m.checkpoints {
            self.checkpoints.push(Checkpoint {
                alt_pc: mc.alt_pc,
                alt_event: mc.alt_event,
                depth: keep + mc.shadow_tail.len(),
                mark: state.undo.len(),
                mtb_idx: base_mtb + mc.mtb_off,
                loop_idx: base_loop + mc.loop_off,
                init_head: base_loop + mc.init_off,
                events_len: base_events + mc.events_off,
                steps: base_steps + mc.steps_off,
            });
            log_frames(&mut state.undo, keep, &mc.shadow_tail);
        }
        state.events.extend_from_slice(&m.events);
        state.shadow.extend_from_slice(&m.end_tail);
        state.steps += m.steps;
        state.mtb_idx = span.end;
        state.loop_idx += m.loops_used.len();
        state.init_head = state.loop_idx - m.end_pending;
        state.pc = m.end_pc;
        self.global_steps += m.steps;
        let tally = self.tally.as_mut().expect("session tally present");
        tally.cached_steps += m.steps;
        tally.checkpoints += m.checkpoints.len() as u64;
        tally.dict_bulk_applies += 1;
        rap_obs::event("dict_bulk_apply", span.id as u64, m.steps);
    }

    /// Converts the just-finished live replay of a span into a
    /// [`DictMacro`] and publishes it, unless an identical variant is
    /// already cached or the variant slot is full.
    fn finish_recording(&mut self) {
        let Some(rec) = self.recording.take() else {
            return;
        };
        let span = self.spans[rec.span];
        let min_depth = rec.min_depth;
        let state = &self.state;
        // Rebuild each in-span checkpoint's shadow, newest first, by
        // unwinding a copy of the live stack one checkpoint at a time.
        let in_span = &self.checkpoints[rec.start_checkpoints..];
        let mut checkpoints = Vec::with_capacity(in_span.len());
        let mut shadow = state.shadow.clone();
        let mut log_end = state.undo.len();
        for cp in in_span.iter().rev() {
            unwind(&mut shadow, &state.undo[cp.mark..log_end], cp.depth);
            log_end = cp.mark;
            checkpoints.push(MacroCheckpoint {
                alt_pc: cp.alt_pc,
                alt_event: cp.alt_event,
                shadow_tail: shadow[min_depth..].to_vec(),
                mtb_off: cp.mtb_idx - span.start,
                loop_off: cp.loop_idx - rec.start_loop_idx,
                init_off: cp.init_head - rec.start_loop_idx,
                events_off: cp.events_len - rec.start_events,
                steps_off: cp.steps - rec.start_steps,
            });
        }
        checkpoints.reverse();
        let built = DictMacro {
            steps: state.steps - rec.start_steps,
            events: state.events[rec.start_events..].to_vec(),
            required_suffix: rec.start_shadow[min_depth..].to_vec(),
            end_tail: state.shadow[min_depth..].to_vec(),
            loops_used: self.loops[rec.start_loop_idx..state.loop_idx].to_vec(),
            end_pending: state.loop_idx - state.init_head,
            end_pc: state.pc,
            checkpoints,
        };
        let mut map = self
            .verifier
            .inner
            .dict_macros
            .write()
            .expect("dict macro lock");
        let variants = map.entry((span.id, rec.start_pc)).or_default();
        if variants.len() < MACRO_VARIANT_CAP && !variants.iter().any(|m| **m == built) {
            variants.push(Arc::new(built));
        }
    }

    /// Drives the session to completion; the session's tallies are
    /// committed to the verifier's stats when it drops.
    pub fn run(mut self) -> Result<VerifiedPath, Violation> {
        loop {
            if let Some(verdict) = self.advance() {
                return verdict;
            }
        }
    }

    /// Drives the session to completion and hands its tallies to the
    /// caller instead of committing them, so [`Verifier::verify`] can
    /// publish the whole job in one commit.
    fn run_tallied(mut self) -> (Result<VerifiedPath, Violation>, StatsTally) {
        let verdict = loop {
            if let Some(verdict) = self.advance() {
                break verdict;
            }
        };
        let tally = self.tally.take().expect("session tally present");
        (verdict, tally)
    }
}

/// Replay state (checkpointed at ambiguous decisions).
#[derive(Debug)]
struct ReplayState {
    pc: u32,
    shadow: Vec<u32>,
    /// Shadow undo log: one `(position, value)` entry per popped frame.
    /// Pushes log nothing; a [`Checkpoint`] rewinds the stack by
    /// replaying the entries after its mark backwards. Positions fit in
    /// `u32`: a deeper stack would itself hold 16 GiB, and the default
    /// step budget stops replay 40 times shallower.
    undo: Vec<(u32, u32)>,
    mtb_idx: usize,
    /// Loop records read by `LOG_LOOP_COND` gateways.
    loop_idx: usize,
    /// Loop records used as inits by logged latches. Gateways read the
    /// records in order and latches take the oldest pending one, so the
    /// pending inits are always `loops[init_head..loop_idx]`.
    init_head: usize,
    events: Vec<PathEvent>,
    steps: u64,
}

impl ReplayState {
    fn new(entry: u32, undo: Vec<(u32, u32)>) -> ReplayState {
        ReplayState {
            pc: entry,
            shadow: Vec::new(),
            undo,
            mtb_idx: 0,
            loop_idx: 0,
            init_head: 0,
            events: vec![PathEvent::Enter(entry)],
            steps: 0,
        }
    }

    /// Whether every loop record read so far has been used as an init.
    fn no_pending_inits(&self) -> bool {
        self.init_head == self.loop_idx
    }

    /// Pops a shadow frame, logging it for rewinds.
    fn pop_shadow(&mut self) -> Option<u32> {
        let value = self.shadow.pop()?;
        self.undo.push((self.shadow.len() as u32, value));
        Some(value)
    }

    /// Drops the shadow frames at and above `depth`, logging each.
    fn truncate_shadow(&mut self, depth: usize) {
        log_frames(&mut self.undo, depth, &self.shadow[depth..]);
        self.shadow.truncate(depth);
    }

    /// Bulk-applies a cached deterministic stretch.
    fn apply(&mut self, segment: &Segment) {
        self.events.extend_from_slice(&segment.events);
        self.shadow.extend_from_slice(&segment.shadow_pushes);
        self.steps += segment.steps;
        self.pc = segment.end_pc;
    }

    fn take_mtb(
        &mut self,
        mtb: &[trace_units::TraceEntry],
        pc: u32,
    ) -> Result<trace_units::TraceEntry, Violation> {
        let e = mtb
            .get(self.mtb_idx)
            .copied()
            .ok_or(Violation::LogExhausted { pc })?;
        self.mtb_idx += 1;
        Ok(e)
    }
}

/// A rewind point for the backtracking parse: everything needed to
/// resume with the alternative reading of one ambiguous decision, in a
/// few scalars. The event list is truncated and the shadow stack
/// unwound from the undo log on restore.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    /// PC to resume at under the alternative reading.
    alt_pc: u32,
    /// Event recorded for the alternative reading.
    alt_event: PathEvent,
    /// Shadow depth.
    depth: usize,
    /// Undo-log length.
    mark: usize,
    mtb_idx: usize,
    loop_idx: usize,
    init_head: usize,
    events_len: usize,
    steps: u64,
}

impl Checkpoint {
    fn new(state: &ReplayState, alt_pc: u32, alt_event: PathEvent) -> Checkpoint {
        Checkpoint {
            alt_pc,
            alt_event,
            depth: state.shadow.len(),
            mark: state.undo.len(),
            mtb_idx: state.mtb_idx,
            loop_idx: state.loop_idx,
            init_head: state.init_head,
            events_len: state.events.len(),
            steps: state.steps,
        }
    }

    fn restore(self, state: &mut ReplayState) {
        state.pc = self.alt_pc;
        unwind(&mut state.shadow, &state.undo[self.mark..], self.depth);
        state.undo.truncate(self.mark);
        state.mtb_idx = self.mtb_idx;
        state.loop_idx = self.loop_idx;
        state.init_head = self.init_head;
        state.events.truncate(self.events_len);
        state.events.push(self.alt_event);
        state.steps = self.steps;
    }
}

/// Appends one undo entry per frame, `frames[i]` at position `base + i`.
fn log_frames(undo: &mut Vec<(u32, u32)>, base: usize, frames: &[u32]) {
    let entries = frames.iter().enumerate();
    undo.extend(entries.map(|(i, &value)| ((base + i) as u32, value)));
}

/// Rewinds `shadow` to the stack it was `depth` frames deep and `log`
/// pops ago: resize, then write the logged values back newest first.
/// The earliest pop of a position since then holds the value it had,
/// and it is written last; positions at or above `depth` were pushed
/// since and are skipped.
fn unwind(shadow: &mut Vec<u32>, log: &[(u32, u32)], depth: usize) {
    shadow.resize(depth, 0);
    for &(pos, value) in log.iter().rev() {
        if let Some(slot) = shadow.get_mut(pos as usize) {
            *slot = value;
        }
    }
}

/// Bytes of capacity past which a replay buffer is freed when its
/// session ends instead of kept for the thread's next round, so one
/// forged round cannot leave its memory pinned to a worker.
const SCRATCH_RETAIN_BYTES: usize = 1 << 20;

/// `buf` emptied for reuse, or a fresh vector in its place when its
/// capacity is past [`SCRATCH_RETAIN_BYTES`].
fn recycle<T>(mut buf: Vec<T>) -> Vec<T> {
    if buf.capacity() * std::mem::size_of::<T>() > SCRATCH_RETAIN_BYTES {
        return Vec::new();
    }
    buf.clear();
    buf
}

/// The replay's two growing buffers, kept per thread between rounds:
/// [`Verifier::begin`] takes them and the session's `Drop` hands them
/// back empty.
#[derive(Debug, Default)]
struct ReplayScratch {
    checkpoints: Vec<Checkpoint>,
    undo: Vec<(u32, u32)>,
}

thread_local! {
    static SCRATCH: Cell<ReplayScratch> = const {
        Cell::new(ReplayScratch {
            checkpoints: Vec::new(),
            undo: Vec::new(),
        })
    };
}

/// Cap on cached macro variants per `(entry id, entry PC)` key:
/// distinct surrounding contexts (shadow suffix / loop records) each
/// earn a variant, but an adversarial stream must not grow the cache
/// without bound.
const MACRO_VARIANT_CAP: usize = 4;

/// One dictionary-hit expansion in the spliced `mtb`: indices
/// `start..end` came from dictionary entry `id`.
#[derive(Debug, Clone, Copy)]
struct HitSpan {
    start: usize,
    end: usize,
    id: u32,
}

/// Replay deltas of one dictionary sub-path, recorded from its first
/// live replay and bulk-applied on later encounters.
///
/// Soundness: inside a span every replay decision is a function of
/// (a) the expanded transfers — fixed by the entry id, (b) the shadow
/// frames the span pops — pinned by `required_suffix`, and (c) the loop
/// records it consumes — pinned by `loops_used`. With those
/// preconditions matched and no pending inits, a live replay from the
/// same entry PC is deterministic, so splicing the recorded deltas
/// (including the checkpoints a later backtrack could restore) is
/// indistinguishable from re-walking the span instruction by
/// instruction.
#[derive(Debug, PartialEq)]
struct DictMacro {
    steps: u64,
    events: Vec<PathEvent>,
    /// Shadow frames (deepest first) the span observes: the entry
    /// shadow must end with exactly these.
    required_suffix: Vec<u32>,
    /// What replaces `required_suffix` at span exit.
    end_tail: Vec<u32>,
    /// Loop records consumed by the span, in order.
    loops_used: Vec<u32>,
    /// Pending inits at span exit: the last `end_pending` records of
    /// `loops_used` (the span starts with none pending).
    end_pending: usize,
    end_pc: u32,
    /// Checkpoints pushed inside the span, span-relative (forward-exit
    /// loop continues push one per iteration, so loop-heavy spans
    /// always carry some — aborting on them would forfeit the speedup
    /// exactly where it matters).
    checkpoints: Vec<MacroCheckpoint>,
}

/// A [`Checkpoint`] in span-relative form: offsets are added to the
/// span-entry position, and the shadow below the span's minimum depth
/// (untouched by the span, so identical at apply time) is dropped.
#[derive(Debug, PartialEq)]
struct MacroCheckpoint {
    alt_pc: u32,
    alt_event: PathEvent,
    /// Shadow frames above the preserved prefix at checkpoint time.
    shadow_tail: Vec<u32>,
    mtb_off: usize,
    loop_off: usize,
    /// Offset of the checkpoint's `init_head`: its pending inits are
    /// the loop records from here up to `loop_off`.
    init_off: usize,
    events_off: usize,
    steps_off: u64,
}

/// Bookkeeping for a span being replayed live for the first time.
#[derive(Debug)]
struct Recording {
    /// Index into [`ReplaySession::spans`].
    span: usize,
    /// PC at span entry — half the macro cache key.
    start_pc: u32,
    start_events: usize,
    start_steps: u64,
    start_shadow: Vec<u32>,
    /// Minimum shadow depth observed inside the span; frames below it
    /// are never touched, frames at or above it form the macro's
    /// precondition.
    min_depth: usize,
    start_loop_idx: usize,
    start_checkpoints: usize,
}

fn resolve(target: &Target) -> u32 {
    target
        .abs()
        .expect("deployed images carry resolved targets")
}

fn expect_src(pc: u32, got: u32, expected: u32) -> Result<(), Violation> {
    if got != expected {
        return Err(Violation::UnexpectedSource { pc, got, expected });
    }
    Ok(())
}

fn expect_dest(pc: u32, got: u32, expected: u32) -> Result<(), Violation> {
    if got != expected {
        return Err(Violation::UnexpectedDest { pc, got, expected });
    }
    Ok(())
}
