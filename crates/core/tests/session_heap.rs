//! A verifier session's heap stays flat however many rounds it serves,
//! a verifier clone costs no heap at all, and a replay on a warm thread
//! makes a bounded number of allocations however long its log.
//!
//! A fleet verifier audits each device continuously and keeps one
//! session per device for as long as the device lives, so per-session
//! state must not grow with the number of rounds; every worker and
//! connection shares one verifier through a clone. The global allocator
//! below tracks live heap bytes and allocation calls per thread, so
//! only the test thread's allocations count; it lives in its own test
//! binary because a global allocator serves the whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use armv8m_isa::{Asm, Reg};
use rap_link::{link, LinkOptions, LinkedProgram};
use rap_track::{
    device_key, Attestation, CfaEngine, Challenge, DictParams, EngineConfig, Report, SubPathDict,
    Verifier, VerifierSession,
};

struct LiveBytes;

thread_local! {
    // `const`-initialised and without `Drop`, so touching it never
    // allocates and stays valid while the thread exits.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: `alloc` and `dealloc` forward to `System` unchanged (the
// default `realloc` goes through them); the wrapper only records sizes
// and counts calls.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            add_live(layout.size() as i64);
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add_live(-(layout.size() as i64));
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

const ROUNDS: u32 = 100_000;
const HEAP_BUDGET: i64 = 64 * 1024;

/// One round: a fresh windowed challenge answered with an empty
/// response, which consumes the challenge and rejects.
fn round(session: &mut VerifierSession) {
    session.issue_windowed_challenge();
    assert!(
        session.check_response(&[]).is_err(),
        "an empty response never verifies"
    );
}

#[test]
fn session_heap_stays_flat_over_100k_rounds() {
    let mut a = Asm::new();
    a.func("main");
    a.movi(Reg::R0, 1);
    a.halt();
    let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
    let mut session = VerifierSession::new(
        device_key("heap"),
        linked.image,
        linked.map,
        b"heap-test-secret",
    );
    // The first round registers the verifier's metrics; only growth
    // after it is charged to the session.
    round(&mut session);

    let before = LIVE.with(Cell::get);
    for _ in 0..ROUNDS {
        round(&mut session);
    }
    let grown = LIVE.with(Cell::get) - before;
    assert!(
        grown < HEAP_BUDGET,
        "live heap grew by {grown} bytes over {ROUNDS} rounds (budget {HEAP_BUDGET})"
    );
    assert_eq!(session.responses_checked(), u64::from(ROUNDS) + 1);
}

#[test]
fn verifier_clone_allocates_nothing_on_every_workload() {
    for w in workloads::all() {
        let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
        let verifier = Verifier::new(device_key("clone"), linked.image, linked.map);

        let (live, allocs) = (LIVE.with(Cell::get), ALLOCS.with(Cell::get));
        let clone = verifier.clone();
        let grown = LIVE.with(Cell::get) - live;
        let made = ALLOCS.with(Cell::get) - allocs;
        drop(clone);
        assert_eq!(
            (grown, made),
            (0, 0),
            "{}: a clone held {grown} heap bytes from {made} allocations",
            w.name
        );
    }
}

/// Allocations one `Verifier::verify` call may make on a thread that
/// has verified before: the spliced log, the path's event list and the
/// shadow stack growing, the verdict.
const REPLAY_ALLOC_BUDGET: u64 = 40;

fn attest(w: &workloads::Workload, linked: &LinkedProgram, engine: &CfaEngine) -> Attestation {
    let mut machine = mcu_sim::Machine::new(linked.image.clone());
    (w.attach)(&mut machine);
    engine
        .attest(
            &mut machine,
            &linked.map,
            Challenge::from_seed(7),
            EngineConfig {
                watermark: Some(448),
                max_instrs: w.max_instrs * 2,
            },
        )
        .unwrap_or_else(|e| panic!("{}: attest: {e}", w.name))
}

/// `reports` with the MTB source at 99% of the log moved off its site,
/// re-signed so the forgery reaches replay.
fn forge_source_at_99(reports: &[Report], key: &[u8]) -> Vec<Report> {
    let total: usize = reports.iter().map(|r| r.log.mtb.len()).sum();
    let mut at = total * 99 / 100;
    let mut forged = reports.to_vec();
    for r in &mut forged {
        if at >= r.log.mtb.len() {
            at -= r.log.mtb.len();
            continue;
        }
        let mut log = r.log.clone();
        log.mtb[at].source ^= 2;
        *r = Report::new(key, r.chal, r.h_mem, log, r.seq, r.is_final, r.overflow);
        break;
    }
    forged
}

/// Allocations made by a second `verify` of `reports`; the first one
/// warms the thread.
fn verify_allocs(verifier: &Verifier, reports: &[Report]) -> u64 {
    let chal = Challenge::from_seed(7);
    let _ = verifier.verify(chal, reports);
    let before = ALLOCS.with(Cell::get);
    let _ = verifier.verify(chal, reports);
    ALLOCS.with(Cell::get) - before
}

/// Benign and forged rounds, plain and dictionary, on every workload.
#[test]
fn replay_allocations_stay_within_budget_on_every_workload() {
    let key = device_key("budget");
    let params = DictParams {
        top_k: 32,
        min_support: 3,
        max_len: 16,
    };
    let mut over = Vec::new();
    for w in workloads::all() {
        let linked = link(&w.module, 0, LinkOptions::default()).expect("workload links");
        let plain = attest(&w, &linked, &CfaEngine::new(key.clone()));
        let h_mem = plain.reports.first().expect("reports").h_mem;
        let dict = SubPathDict::mine(&plain.combined_log(), h_mem, w.name, params);
        let engine = CfaEngine::new(key.clone()).with_dict(dict.entries().to_vec());
        let compressed = attest(&w, &linked, &engine);
        let builder = Verifier::builder()
            .key(key.clone())
            .image(linked.image.clone())
            .map(linked.map.clone());
        let plain_verifier = builder.clone().build().expect("builds");
        let dict_verifier = builder.dict(dict).build().expect("builds");
        let forged = forge_source_at_99(&plain.reports, &key);
        let forged_dict = forge_source_at_99(&compressed.reports, &key);
        let rounds = [
            ("plain", &plain_verifier, &plain.reports),
            ("dict", &dict_verifier, &compressed.reports),
            ("forged plain", &plain_verifier, &forged),
            ("forged dict", &dict_verifier, &forged_dict),
        ];
        for (round, verifier, reports) in rounds {
            let made = verify_allocs(verifier, reports);
            if made > REPLAY_ALLOC_BUDGET {
                over.push(format!("{} {round}: {made}", w.name));
            }
        }
    }
    assert!(
        over.is_empty(),
        "verify calls over the {REPLAY_ALLOC_BUDGET}-allocation budget: {}",
        over.join(", ")
    );
}
