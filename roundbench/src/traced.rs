//! The traced pass: one thread pushes the workload's generated rounds
//! through the public calls the server makes for a round, in the
//! server's order, and records one span per call.
//!
//! Spans are kept in memory (layer, call, start, end, parent, round id
//! and the calling thread's allocations inside the span) and written
//! out when the pass ends. The same pass run without spans gives the
//! tracer's overhead. No span sits inside the program: every span wraps
//! one call into it from here.

use std::hint::black_box;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use rap_audit::AuditLog;
use rap_crypto::sha256;
use rap_serve::frame::{decode_frame, encode_frame, FrameType, DEFAULT_MAX_FRAME_LEN};
use rap_serve::Verdict;
use rap_track::{
    decode_stream, encode_stream, stats_digest, Challenge, Report, VerdictDraft, Verifier,
    VerifierSession,
};

use crate::alloc_count::thread_allocs;
use crate::inputs::Inputs;

/// Span layers, in round order. `device` is the emulated device's work
/// and is left out of the layer sum.
pub const LAYERS: [&str; 8] = [
    "frame", "wire", "verifier", "verdict", "policy", "audit", "protocol", "device",
];

/// Passes over the workload's traced rounds.
const PASSES: usize = 3;

/// Rounds per chunk; traced and untraced chunks alternate. A multiple
/// of every workload's window, so each chunk ends with an audit flush.
const CHUNK: u64 = 16;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    round: u32,
    parent: u32,
    layer: &'static str,
    call: &'static str,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

const NO_PARENT: u32 = u32::MAX;

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_round(&mut self, round: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.ns();
        self.spans.push(Span {
            round,
            parent: NO_PARENT,
            layer: "round",
            call: "round",
            start_ns,
            end_ns: start_ns,
            allocs: 0,
        });
        (self.spans.len() - 1) as u32
    }

    fn close_round(&mut self, root: u32) {
        if self.on {
            let end_ns = self.ns();
            self.spans[root as usize].end_ns = end_ns;
        }
    }

    fn call<T>(
        &mut self,
        round: u32,
        parent: u32,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let allocs = thread_allocs();
        let start_ns = self.ns();
        let out = f();
        let end_ns = self.ns();
        self.spans.push(Span {
            round,
            parent,
            layer,
            call,
            start_ns,
            end_ns,
            allocs: thread_allocs() - allocs,
        });
        out
    }
}

/// Per-layer totals over the traced passes.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Self nanoseconds per layer, indexed like [`LAYERS`].
    pub ns: [u64; LAYERS.len()],
    /// Allocations per layer, indexed like [`LAYERS`].
    pub allocs: [u64; LAYERS.len()],
    /// `Verifier::begin` nanoseconds.
    pub begin_ns: u64,
    /// `ReplaySession::run` nanoseconds.
    pub replay_ns: u64,
    /// Allocations inside `ReplaySession::run`.
    pub replay_allocs: u64,
    /// `issue_windowed_challenge` nanoseconds.
    pub challenge_ns: u64,
}

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// Rounds covered by the traced passes together.
    pub rounds: u64,
    /// Per-layer totals.
    pub totals: LayerTotals,
    /// Replay steps (cached + live), from `Verifier::stats`.
    pub steps: u64,
    /// Live replay steps.
    pub live_steps: u64,
    /// Segment-cache hits.
    pub cache_hits: u64,
    /// Segment-cache misses.
    pub cache_misses: u64,
    /// Dictionary hits carried by the decoded reports.
    pub dict_hits: u64,
    /// Bytes hashed by the seal step: the re-encoded stream and the
    /// sealed record body.
    pub hashed_bytes: u64,
    /// Bytes appended to the audit log.
    pub audit_bytes: u64,
    /// `AuditLog::open` of the pre-filled log, in nanoseconds.
    pub audit_reopen_ns: u64,
    /// `Report::authenticate` nanoseconds over one pass.
    pub mac_ns: u64,
    /// Bytes the report MACs cover over that pass.
    pub mac_bytes: u64,
    /// Rounds of the MAC pass.
    pub mac_rounds: u64,
    /// Wall time of the traced chunks.
    pub traced_ns: u64,
    /// Wall time of the same chunks run untraced.
    pub plain_ns: u64,
}

/// State a pass carries from round to round.
struct Ctx<'a> {
    inputs: &'a Inputs,
    verifier: Verifier,
    session: VerifierSession,
    chal: Challenge,
    audit: Option<AuditLog>,
    seq: u64,
}

/// Counts one pass produces besides its spans.
#[derive(Default)]
struct PassCounts {
    dict_hits: u64,
    hashed_bytes: u64,
}

fn pass(ctx: &mut Ctx<'_>, tracer: &mut Tracer, rounds: Range<u64>) -> PassCounts {
    let mut counts = PassCounts::default();
    let device_id = "traced-device";
    let flush_every = u64::from(ctx.inputs.spec.window);
    for k in rounds {
        let round = k as u32;
        let root = tracer.open_round(round);
        let chal = ctx.chal;
        let variant = ctx.inputs.variant(0, k);
        let (bytes, _) = tracer.call(round, root, "device", "respond", || {
            ctx.inputs.device.attest_frame(chal, variant)
        });
        let (frame, _) = tracer
            .call(round, root, "frame", "decode_frame", || {
                decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN)
            })
            .expect("device frames decode");
        let reports = tracer
            .call(round, root, "wire", "decode_stream", || {
                decode_stream(&frame.payload)
            })
            .expect("device streams decode");
        let verifier = &ctx.verifier;
        let begun = tracer.call(round, root, "verifier", "begin", || {
            verifier.begin(chal, &reports)
        });
        let result = match begun {
            Ok(session) => tracer.call(round, root, "verifier", "run", || session.run()),
            Err(v) => Err(v),
        };

        // The seal step of `check_response_record`.
        let stream = tracer.call(round, root, "verdict", "encode_stream", || {
            encode_stream(&reports)
        });
        let report_hash = tracer.call(round, root, "verdict", "sha256", || sha256(&stream));
        let stats = tracer.call(round, root, "verdict", "stats", || verifier.stats());
        ctx.seq += 1;
        let dict_hits = reports
            .iter()
            .map(|r| r.log.dict_hits.len() as u32)
            .sum::<u32>();
        let seq = ctx.seq;
        let record = tracer.call(round, root, "verdict", "seal_verdict", || {
            let mut draft = VerdictDraft {
                device: device_id.to_string(),
                chal,
                report_hash,
                stats_digest: stats_digest(&stats),
                dict_hits,
                cache_hits: stats.cache_hits,
                cache_misses: stats.cache_misses,
                seq,
                ..VerdictDraft::default()
            };
            match &result {
                Ok(path) => {
                    draft.accepted = true;
                    draft.events = path.events.len() as u32;
                    draft.steps = path.steps;
                }
                Err(v) => {
                    draft.kind = v.kind().to_string();
                    draft.detail = v.to_string();
                }
            }
            verifier.seal_verdict(draft)
        });

        // No policy check runs in the served round: the span wraps no
        // call and measures only the tracer itself.
        tracer.call(round, root, "policy", "none", || ());
        match ctx.audit.as_mut() {
            Some(log) => {
                tracer.call(round, root, "audit", "append_record", || {
                    log.append_record(&record)
                });
                // The server flushes once per drain tick, which holds up
                // to a window of rounds.
                if (k + 1) % flush_every == 0 {
                    tracer
                        .call(round, root, "audit", "flush", || log.flush())
                        .expect("audit flush");
                }
            }
            None => tracer.call(round, root, "audit", "none", || ()),
        }

        let verdict = tracer.call(round, root, "frame", "verdict_from_record", || {
            Verdict::from_record(&record)
        });
        let session = &mut ctx.session;
        let next = tracer.call(round, root, "protocol", "issue_windowed_challenge", || {
            session.issue_windowed_challenge()
        });
        let out = tracer.call(round, root, "frame", "encode_frames", || {
            let mut out = encode_frame(FrameType::Verdict, &verdict.encode());
            out.extend_from_slice(&encode_frame(FrameType::Challenge, &next.0));
            out
        });
        black_box(out);
        ctx.session.clear_outstanding();
        ctx.chal = next;
        tracer.close_round(root);

        if tracer.on {
            counts.dict_hits += u64::from(dict_hits);
            counts.hashed_bytes += (stream.len() + record.encode().len() - 32) as u64;
        }
    }
    counts
}

/// Bytes the MAC of `report` covers, following the field order of
/// `Report::new`: domain, challenge, `H_MEM`, sequence, flags, then the
/// length-prefixed MTB, loop-record and (if any) dictionary streams.
fn mac_message_bytes(report: &Report) -> u64 {
    let log = &report.log;
    let mut n = 19 + 32 + 32 + 4 + 2 + 4 + 8 * log.mtb.len() + 4 + 4 * log.loop_records.len();
    if !log.dict_hits.is_empty() {
        n += 17 + 4 + 8 * log.dict_hits.len();
    }
    n as u64
}

/// Runs the traced pass and writes its spans to `spans_out`.
///
/// # Errors
///
/// Artifact, audit-log or span-file failures.
pub fn run(inputs: &Inputs, spans_out: &Path) -> Result<TracedRun, String> {
    let rounds = inputs.spec.traced_rounds;
    let verifier = inputs.artifacts.load_verifier(&inputs.key)?;
    let mut out = TracedRun::default();

    let audit = match &inputs.audit_template {
        Some(template) => {
            let path = inputs.dir.join("traced.ralog");
            std::fs::copy(template, &path).map_err(|e| format!("copy audit log: {e}"))?;
            let started = Instant::now();
            let log = AuditLog::open(&path).map_err(|e| format!("open audit log: {e}"))?;
            out.audit_reopen_ns = started.elapsed().as_nanos() as u64;
            Some(log)
        }
        None => None,
    };
    let mut session = VerifierSession::from_verifier(verifier.clone(), &inputs.session_secret);
    let chal = session.issue_windowed_challenge();
    session.clear_outstanding();
    let mut ctx = Ctx {
        inputs,
        verifier,
        session,
        chal,
        audit,
        seq: 0,
    };

    // Warm-up: the replay and macro caches fill on the first rounds.
    let mut tracer = Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    pass(&mut ctx, &mut tracer, 0..rounds);

    let audit_len = |ctx: &Ctx<'_>| {
        ctx.audit
            .as_ref()
            .and_then(|log| std::fs::metadata(log.path()).ok())
            .map_or(0, |m| m.len())
    };
    // Traced and untraced runs of the same rounds alternate chunk by
    // chunk, so drift in the host's speed falls on both alike.
    tracer.spans.reserve(rounds as usize * 20 * PASSES);
    for _ in 0..PASSES {
        for (i, start) in (0..rounds).step_by(CHUNK as usize).enumerate() {
            let chunk = start..(start + CHUNK).min(rounds);
            // Alternate which mode goes first, so neither always meets
            // caches the other has just warmed.
            for on in [i % 2 == 1, i % 2 == 0] {
                tracer.on = on;
                let stats0 = ctx.verifier.stats();
                let audit0 = audit_len(&ctx);
                let started = Instant::now();
                let counts = pass(&mut ctx, &mut tracer, chunk.clone());
                let ns = started.elapsed().as_nanos() as u64;
                if !on {
                    out.plain_ns += ns;
                    continue;
                }
                out.traced_ns += ns;
                let stats1 = ctx.verifier.stats();
                out.rounds += chunk.end - chunk.start;
                out.steps += (stats1.cached_steps + stats1.live_steps)
                    - (stats0.cached_steps + stats0.live_steps);
                out.live_steps += stats1.live_steps - stats0.live_steps;
                out.cache_hits += stats1.cache_hits - stats0.cache_hits;
                out.cache_misses += stats1.cache_misses - stats0.cache_misses;
                out.dict_hits += counts.dict_hits;
                out.hashed_bytes += counts.hashed_bytes;
                out.audit_bytes += audit_len(&ctx) - audit0;
            }
        }
    }
    out.totals = totals(&tracer.spans);

    // The MAC pass: `Verifier::begin` authenticates before it splices,
    // so the MAC is timed on its own and kept out of the layer sum.
    for k in 0..rounds {
        let reports = inputs.device.respond(ctx.chal, inputs.variant(0, k));
        let started = Instant::now();
        let ok = reports.iter().all(|r| r.authenticate(&inputs.key));
        out.mac_ns += started.elapsed().as_nanos() as u64;
        assert!(black_box(ok), "re-signed reports authenticate");
        out.mac_bytes += reports.iter().map(mac_message_bytes).sum::<u64>();
    }
    out.mac_rounds = rounds;

    write_spans(&tracer.spans, inputs, spans_out)?;
    Ok(out)
}

/// Self time per layer: each call span is a leaf, so its self time is
/// its duration; the round span's own time is the tracer's glue.
fn totals(spans: &[Span]) -> LayerTotals {
    let mut t = LayerTotals::default();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        let ns = s.end_ns - s.start_ns;
        let layer = LAYERS
            .iter()
            .position(|l| *l == s.layer)
            .expect("span layer is listed");
        t.ns[layer] += ns;
        t.allocs[layer] += s.allocs;
        match s.call {
            "begin" => t.begin_ns += ns,
            "run" => {
                t.replay_ns += ns;
                t.replay_allocs += s.allocs;
            }
            "issue_windowed_challenge" => t.challenge_ns += ns,
            _ => {}
        }
    }
    t
}

fn write_spans(spans: &[Span], inputs: &Inputs, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let result = (|| {
        writeln!(
            w,
            "# workload {} seed {}\nspan\tparent\tround\tlayer\tcall\tstart_ns\tend_ns\tallocs",
            inputs.workload.name(),
            inputs.seed
        )?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.round, s.layer, s.call, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        w.flush()
    })();
    result.map_err(|e| format!("write {}: {e}", path.display()))
}
