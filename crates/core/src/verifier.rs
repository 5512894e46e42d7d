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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use rap_obs::CachePadded;

use armv8m_isa::{service, BranchKind, Image, Instr, Reg, Target};
use rap_crypto::{sha256, Digest, HmacSha256};
use rap_link::{LinkMap, LoopMeta, LoopPlanKind, Site, SiteKind};

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
/// [`Verifier::commit_tally`] and [`Verifier::verify`] — once per job,
/// never from inside the replay loop.
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
    /// One [`Slot`] per halfword of `[image.base(), image.end())`: slot
    /// `i` answers every replay lookup at `base + 2 * i`. Contents
    /// depend only on the image and map, never on a particular log, so
    /// the table is safely shared across sessions, threads and devices,
    /// and its size is fixed by the image: forged logs cannot grow it.
    slots: Box<[Slot]>,
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

/// Plain-integer replay tallies for one [`ReplaySession`], published
/// to the shared [`VerifierStats`](crate::VerifierStats) atomics and the
/// `rap-obs` registry in one [`Verifier::commit_tally`] call when the
/// session ends, so the replay hot loop touches no shared cache line at
/// all.
#[derive(Debug, Default)]
struct StatsTally {
    cache_hits: u64,
    /// Lookups that built their table slot — one per segment built.
    cache_misses: u64,
    cached_steps: u64,
    live_steps: u64,
    /// Dictionary spans satisfied from the macro cache (bulk-applied
    /// without re-replaying the sub-path).
    dict_bulk_applies: u64,
}

/// Everything replay looks up at one halfword of the image. The site,
/// latch and function-entry flag are filled by
/// [`VerifierBuilder::build`]; the segment is built by the first lookup
/// that reaches it (see [`Verifier::segment_at`]).
#[derive(Debug, Default)]
struct Slot {
    /// The trampoline whose entry is this halfword.
    site: Option<Site>,
    /// The optimized loop whose latch is this halfword.
    latch: Option<LoopMeta>,
    /// Whether an indirect call may land here: a function entry of the
    /// image or of the map.
    func_entry: bool,
    /// The deterministic stretch entered here.
    segment: OnceLock<Segment>,
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

/// Why [`VerifierBuilder::build`] refused to build a verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A required builder field (`"key"`, `"image"` or `"map"`) was
    /// never supplied.
    Missing(&'static str),
    /// The image or the link map names an address that is not one of
    /// the image's halfwords, so replay's per-halfword table has no slot
    /// for it. rap-link never emits such a map; it means the map and
    /// the image do not belong together.
    OutsideImage {
        /// What is named there: `"trampoline entry"`, `"loop latch"` or
        /// `"function entry"`.
        what: &'static str,
        /// The address.
        addr: u32,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Missing(field) => write!(f, "verifier builder is missing `{field}`"),
            BuildError::OutsideImage { what, addr } => {
                write!(f, "{what} {addr:#010x} is not a halfword of the image")
            }
        }
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

    /// Finishes construction, filling the per-halfword slot table from
    /// the image and the map.
    ///
    /// # Errors
    ///
    /// [`BuildError::Missing`] when `key`, `image` or `map` was never
    /// supplied; [`BuildError::OutsideImage`] (the lowest such address)
    /// when the map names a trampoline entry, a loop latch or a function
    /// entry, or the image a function entry, that is not one of the
    /// image's halfwords.
    pub fn build(self) -> Result<Verifier, BuildError> {
        let key = self.key.ok_or(BuildError::Missing("key"))?;
        let image = self.image.ok_or(BuildError::Missing("image"))?;
        let map = self.map.ok_or(BuildError::Missing("map"))?;
        let slots = slot_table(&image, &map)?;
        let mut seal_key = [0u8; 32];
        seal_key.copy_from_slice(&crate::verdict::verdict_seal_key(&key));
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
            slots,
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

/// One [`Slot`] per halfword of the image, with every trampoline entry,
/// loop latch and function entry the image and the map name filled in.
fn slot_table(image: &Image, map: &LinkMap) -> Result<Box<[Slot]>, BuildError> {
    let func_entries = || (image.funcs().iter().map(|(_, a)| *a)).chain(map.funcs.keys().copied());
    let outside = (map.sites_by_entry.keys().map(|&a| (a, "trampoline entry")))
        .chain(map.loops_by_latch.keys().map(|&a| (a, "loop latch")))
        .chain(func_entries().map(|a| (a, "function entry")))
        .filter(|&(addr, _)| image.halfword(addr).is_none())
        .min();
    if let Some((addr, what)) = outside {
        return Err(BuildError::OutsideImage { what, addr });
    }
    let at = |addr: u32| {
        image
            .halfword(addr)
            .expect("every named address checked above")
    };
    let halfwords = (image.end() - image.base()) / 2;
    let mut slots: Box<[Slot]> = (0..halfwords).map(|_| Slot::default()).collect();
    for (&entry, site) in &map.sites_by_entry {
        slots[at(entry)].site = Some(*site);
    }
    for (&latch, meta) in &map.loops_by_latch {
        slots[at(latch)].latch = Some(*meta);
    }
    for addr in func_entries() {
        slots[at(addr)].func_entry = true;
    }
    Ok(slots)
}

impl Verifier {
    /// Starts building a Verifier; see [`VerifierBuilder`].
    pub fn builder() -> VerifierBuilder {
        VerifierBuilder::default()
    }

    /// Creates a Verifier for the given deployed binary and link map
    /// with default policy and budget settings — a thin wrapper
    /// over [`Verifier::builder`]. Replay starts at the image base.
    ///
    /// # Panics
    ///
    /// When the map names an address off the image
    /// ([`BuildError::OutsideImage`]); build through
    /// [`Verifier::builder`] to get that as an error.
    pub fn new(key: Key, image: Image, map: LinkMap) -> Verifier {
        Verifier::builder()
            .key(key)
            .image(image)
            .map(map)
            .build()
            .unwrap_or_else(|e| panic!("Verifier::new: {e}"))
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
        let result = self.begin(chal, reports).and_then(ReplaySession::run);
        let inner = &self.inner;
        inner.jobs.fetch_add(1, Ordering::Relaxed);
        inner
            .wall_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        rap_obs::counter!("verifier_jobs_total").inc();
        rap_obs::counter!("verifier_jobs_accepted_total").add(u64::from(result.is_ok()));
        rap_obs::counter!("verifier_jobs_rejected_total").add(u64::from(result.is_err()));
        // Dynamic (labelled) names: resolved through the registry
        // directly, not the caching macro — rejection is rare.
        if let Err(v) = &result {
            rap_obs::global()
                .counter(&format!(
                    "verifier_violations_total{{kind=\"{}\"}}",
                    v.kind()
                ))
                .inc();
        }
        result
    }

    /// Publishes a session's [`StatsTally`]: one relaxed add per shared
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

        rap_obs::counter!("verifier_cache_hits_total").add(tally.cache_hits);
        rap_obs::counter!("verifier_cache_misses_total").add(tally.cache_misses);
        rap_obs::counter!("verifier_segment_builds_total").add(tally.cache_misses);
        rap_obs::counter!("verifier_replay_live_steps_total").add(tally.live_steps);
        rap_obs::counter!("verifier_replay_cached_steps_total").add(tally.cached_steps);
        rap_obs::counter!("verifier_dict_bulk_applies_total").add(tally.dict_bulk_applies);
    }

    /// Authenticates a report stream and returns the [`ReplaySession`]
    /// that replays it from the entry point; [`ReplaySession::run`]
    /// finishes it. [`verify`] does both and also counts the job.
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

        Ok(ReplaySession {
            verifier: self,
            mtb,
            loops,
            state: ReplayState::new(self.inner.entry),
            spans,
            next_span: 0,
            recording: None,
            tally: StatsTally::default(),
        })
    }

    /// The table slot of `addr`, if `addr` is one of the image's
    /// halfwords: an index, no hashing.
    fn slot(&self, addr: u32) -> Option<&Slot> {
        self.inner.slots.get(self.inner.image.halfword(addr)?)
    }

    /// The trampoline whose entry is `addr`.
    fn site_at(&self, addr: u32) -> Option<&Site> {
        self.slot(addr)?.site.as_ref()
    }

    /// The optimized loop whose latch is `addr`.
    fn latch_at(&self, addr: u32) -> Option<&LoopMeta> {
        self.slot(addr)?.latch.as_ref()
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
        let Some(slot) = self.slot(pc) else {
            tally.cache_hits += 1;
            return None;
        };
        let mut built = false;
        let segment = slot.segment.get_or_init(|| {
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
                    if self.site_at(dest).is_some() {
                        break; // trampoline: consumes an MTB packet
                    }
                    steps += 1;
                    pc = dest;
                }
                Instr::BCond { target, .. } => {
                    let Some(dest) = target.abs() else { break };
                    if self.site_at(dest).is_some() {
                        break; // tracked conditional
                    }
                    let Some(meta) = self.latch_at(pc) else {
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
                    if self.site_at(dest).is_some() {
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
                if let Some(site) = self.site_at(dest) {
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
                                .shadow
                                .pop()
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
                if let Some(site) = self.site_at(dest) {
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
                            .site_at(resolve(target))
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
                        // A packet from this stub means taken: were the
                        // quiet fall-through able to come back here,
                        // rap-link would have logged both directions.
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
                } else if let Some(meta) = self.latch_at(pc) {
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
                            .site_at(resolve(target))
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
                        // A continue packet means one more iteration:
                        // rap-link logs both directions wherever the
                        // quiet exit could come back here.
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
                if let Some(site) = self.site_at(dest) {
                    if site.kind != SiteKind::IndirectCall {
                        return Err(Violation::UntrackedIndirect { addr: pc });
                    }
                    let e = state.take_mtb(mtb, pc)?;
                    expect_src(pc, e.source, site.src)?;
                    if !self.slot(e.dest).is_some_and(|s| s.func_entry) {
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
                    .shadow
                    .pop()
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

/// A replay ready to run: the stream has been authenticated and
/// spliced, and [`run`](ReplaySession::run) replays the binary against
/// it.
///
/// Replay is a single forward pass. A taken-only conditional whose stub
/// matches the front packet is read as taken, and a forward-exit loop
/// whose continue stub matches as continued; the first violation ends
/// the pass and is the verdict. That reading is never ambiguous because
/// rap-link logs both directions of every site whose unlogged direction
/// could reach the site again without logging anything (DESIGN.md §6).
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
    /// Dictionary-hit spans in the spliced `mtb`, in index order
    /// (empty for uncompressed streams — the hot path stays zero-cost).
    spans: Vec<HitSpan>,
    /// First span not yet fully consumed.
    next_span: usize,
    /// Live recording of the span currently being replayed, if any.
    recording: Option<Recording>,
    /// Plain-integer tallies for everything this session does (zero
    /// atomics in the replay loop), committed when it finishes.
    tally: StatsTally,
}

impl ReplaySession<'_> {
    /// Advances replay by one quantum: one bulk-applied deterministic
    /// stretch (if the PC has a table slot) plus one live instruction.
    /// Returns `None` while the session is still running, or the final
    /// verdict once replay terminates.
    fn advance(&mut self) -> Option<Result<VerifiedPath, Violation>> {
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
        let max_steps = self.verifier.inner.max_steps;
        let tally = &mut self.tally;
        let segment = self.verifier.segment_at(self.state.pc, tally);
        if let Some(segment) = segment.filter(|s| s.steps > 0) {
            self.state.apply(segment);
            tally.cached_steps += segment.steps;
            if self.state.steps > max_steps {
                return Some(Err(Violation::BudgetExceeded));
            }
        }

        // Replay the non-deterministic (or terminal) head live, charging
        // its step to the budget before it runs.
        tally.live_steps += 1;
        if self.state.steps >= max_steps {
            return Some(Err(Violation::BudgetExceeded));
        }
        let outcome = self.verifier.step(&mut self.state, &self.mtb, &self.loops);
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
                Some(Err(Violation::TrailingLog {
                    mtb_left,
                    loops_left,
                }))
            }
            Ok(false) => None,
            Err(v) => Some(Err(v)),
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
        // been consumed.
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
                break; // not there yet, or replaying it unrecorded
            }
            let (cached, room) = self.probe_macros(span.id);
            if let Some(m) = cached {
                self.apply_macro(&m, span);
                self.next_span += 1;
                if self.state.steps > self.verifier.inner.max_steps {
                    return Some(Err(Violation::BudgetExceeded));
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
                let hit = variants
                    .iter()
                    .find(|m| m.applies(&self.state, &self.loops))
                    .cloned();
                let room = variants.len() < MACRO_VARIANT_CAP;
                (hit, room)
            }
            None => (None, true),
        }
    }

    /// Bulk-applies a recorded macro: splices the span's events and
    /// its shadow / loop / pending deltas exactly as the live replay
    /// that recorded it would have produced them.
    fn apply_macro(&mut self, m: &DictMacro, span: HitSpan) {
        let state = &mut self.state;
        let keep = state.shadow.len() - m.required_suffix.len();
        state.shadow.truncate(keep);
        state.events.extend_from_slice(&m.events);
        state.shadow.extend_from_slice(&m.end_tail);
        state.steps += m.steps;
        state.mtb_idx = span.end;
        state.loop_idx += m.loops_used.len();
        state.init_head = state.loop_idx - m.end_pending;
        state.pc = m.end_pc;
        self.tally.cached_steps += m.steps;
        self.tally.dict_bulk_applies += 1;
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
        let built = DictMacro {
            steps: state.steps - rec.start_steps,
            events: state.events[rec.start_events..].to_vec(),
            required_suffix: rec.start_shadow[min_depth..].to_vec(),
            end_tail: state.shadow[min_depth..].to_vec(),
            loops_used: self.loops[rec.start_loop_idx..state.loop_idx].to_vec(),
            end_pending: state.loop_idx - state.init_head,
            end_pc: state.pc,
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

    /// Drives the session to completion and commits its replay
    /// counters (steps, segment lookups, dictionary applies) to the
    /// verifier's stats.
    pub fn run(mut self) -> Result<VerifiedPath, Violation> {
        let verdict = loop {
            if let Some(verdict) = self.advance() {
                break verdict;
            }
        };
        self.verifier.commit_tally(&self.tally);
        verdict
    }
}

/// Where the replay stands: in the binary, on the shadow call stack
/// and in the log.
#[derive(Debug)]
struct ReplayState {
    pc: u32,
    shadow: Vec<u32>,
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
    fn new(entry: u32) -> ReplayState {
        ReplayState {
            pc: entry,
            shadow: Vec::new(),
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
/// same entry PC is deterministic, so splicing the recorded deltas is
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
}

impl DictMacro {
    /// Whether this macro's recorded context matches `state`: the shadow
    /// frames it may pop, the loop records it consumes, and no queued
    /// loop inits that would alter in-span decisions.
    ///
    /// An empty precondition skips its compare: a slice `==` or
    /// `starts_with` calls the C library's `bcmp` even at length 0, and
    /// with the empty `Vec`'s dangling pointer that call measured
    /// 77–95 ns (glibc 2.36, Intel Xeon with AVX-512), against ~2 ns
    /// with valid pointers (DESIGN.md §14).
    fn applies(&self, state: &ReplayState, loops: &[u32]) -> bool {
        state.no_pending_inits()
            && (self.required_suffix.is_empty() || state.shadow.ends_with(&self.required_suffix))
            && (self.loops_used.is_empty() || loops[state.loop_idx..].starts_with(&self.loops_used))
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_key;
    use rap_link::{link, LinkOptions};

    /// Every halfword from `base - 2` to `end + 2`.
    fn halfwords_around(image: &Image) -> impl Iterator<Item = u32> {
        let start = image.base().wrapping_sub(2);
        (0..=(image.end() - image.base()) / 2 + 2).map(move |k| start.wrapping_add(2 * k))
    }

    #[test]
    fn slots_answer_what_the_image_and_map_answer_on_every_workload() {
        for w in workloads::all() {
            let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
            let (image, map) = (&linked.image, &linked.map);
            let v = Verifier::new(device_key("slots"), image.clone(), map.clone());
            let (mut sites, mut latches, mut funcs) = (0, 0, 0);
            for addr in halfwords_around(image) {
                let inside = (image.base()..image.end()).contains(&addr);
                assert_eq!(v.slot(addr).is_some(), inside, "{} {addr:#x}", w.name);
                if image.instr_at(addr).is_some() {
                    assert!(
                        inside,
                        "{} {addr:#x}: an instruction without a slot",
                        w.name
                    );
                }
                assert_eq!(
                    v.site_at(addr),
                    map.site_at_entry(addr),
                    "{} {addr:#x}",
                    w.name
                );
                assert_eq!(
                    v.latch_at(addr),
                    map.loops_by_latch.get(&addr),
                    "{} {addr:#x}",
                    w.name
                );
                let func_entry = image.is_func_entry(addr) || map.funcs.contains_key(&addr);
                assert_eq!(
                    v.slot(addr).is_some_and(|s| s.func_entry),
                    func_entry,
                    "{} {addr:#x}",
                    w.name
                );
                sites += usize::from(v.site_at(addr).is_some());
                latches += usize::from(v.latch_at(addr).is_some());
                funcs += usize::from(func_entry);
            }
            // Complete: every entry the map names was met on the sweep.
            assert_eq!(sites, map.sites_by_entry.len(), "{}", w.name);
            assert_eq!(latches, map.loops_by_latch.len(), "{}", w.name);
            assert_eq!(funcs, map.funcs.len(), "{}", w.name);
        }
    }

    #[test]
    fn a_map_naming_an_address_off_the_image_is_refused_at_build() {
        let linked = link(
            &workloads::temperature::workload().module,
            0,
            LinkOptions::default(),
        )
        .expect("temperature links");
        let (image, map) = (&linked.image, &linked.map);
        let build = |map: LinkMap| {
            Verifier::builder()
                .key(device_key("slots"))
                .image(image.clone())
                .map(map)
                .build()
        };
        assert!(build(map.clone()).is_ok());

        let site = *map
            .sites_by_entry
            .values()
            .next()
            .expect("temperature has sites");
        let mut forged = map.clone();
        forged.sites_by_entry.insert(image.end(), site);
        assert_eq!(
            build(forged).unwrap_err(),
            BuildError::OutsideImage {
                what: "trampoline entry",
                addr: image.end()
            }
        );

        let meta = *map
            .loops_by_latch
            .values()
            .next()
            .expect("temperature has an optimized loop");
        let mut forged = map.clone();
        forged.loops_by_latch.insert(image.base() + 1, meta);
        assert_eq!(
            build(forged).unwrap_err(),
            BuildError::OutsideImage {
                what: "loop latch",
                addr: image.base() + 1
            }
        );

        let mut forged = map.clone();
        forged.funcs.insert(image.end() + 0x100, "far".into());
        forged.funcs.insert(image.end(), "end".into());
        assert_eq!(
            build(forged).unwrap_err(),
            BuildError::OutsideImage {
                what: "function entry",
                addr: image.end()
            },
            "the lowest offending address is named"
        );

        let missing = Verifier::builder()
            .image(image.clone())
            .map(map.clone())
            .build();
        assert_eq!(missing.unwrap_err(), BuildError::Missing("key"));
    }

    fn macro_with(required_suffix: &[u32], loops_used: &[u32]) -> DictMacro {
        DictMacro {
            steps: 1,
            events: Vec::new(),
            required_suffix: required_suffix.to_vec(),
            end_tail: Vec::new(),
            loops_used: loops_used.to_vec(),
            end_pending: 0,
            end_pc: 0,
        }
    }

    /// A replay state with `shadow` and the loop records before
    /// `loop_idx` read, of which those before `init_head` are used.
    fn state(shadow: &[u32], loop_idx: usize, init_head: usize) -> ReplayState {
        let mut state = ReplayState::new(0);
        state.shadow = shadow.to_vec();
        state.loop_idx = loop_idx;
        state.init_head = init_head;
        state
    }

    #[test]
    fn macro_preconditions_hold_with_and_without_empty_slices() {
        let loops = [5, 6, 7];
        let at = |shadow: &[u32], loop_idx: usize| state(shadow, loop_idx, loop_idx);

        // Both empty: only the pending-init check remains.
        let free = macro_with(&[], &[]);
        assert!(free.applies(&at(&[], 0), &loops));
        assert!(free.applies(&at(&[1, 2], 3), &loops));
        assert!(
            !free.applies(&state(&[1, 2], 2, 1), &loops),
            "a pending init"
        );

        // Shadow suffix only.
        let pops = macro_with(&[2, 3], &[]);
        assert!(pops.applies(&at(&[1, 2, 3], 0), &loops));
        assert!(pops.applies(&at(&[2, 3], 3), &loops));
        assert!(!pops.applies(&at(&[1, 2], 0), &loops), "not a suffix");
        assert!(!pops.applies(&at(&[3], 0), &loops), "shadow too shallow");
        assert!(!pops.applies(&at(&[], 0), &loops));

        // Loop records only.
        let reads = macro_with(&[], &[6, 7]);
        assert!(reads.applies(&at(&[], 1), &loops));
        assert!(reads.applies(&at(&[9], 1), &loops));
        assert!(!reads.applies(&at(&[], 0), &loops), "records 5, 6 are next");
        assert!(!reads.applies(&at(&[], 2), &loops), "only record 7 is left");
        assert!(!reads.applies(&at(&[], 3), &loops), "no records left");

        // Both: each precondition still decides on its own.
        let both = macro_with(&[4], &[5]);
        assert!(both.applies(&at(&[4], 0), &loops));
        assert!(!both.applies(&at(&[3], 0), &loops), "suffix mismatch");
        assert!(!both.applies(&at(&[4], 1), &loops), "record mismatch");
        assert!(!both.applies(&state(&[4], 1, 0), &loops), "a pending init");
    }
}
