//! A verifier session's heap stays flat however many rounds it serves,
//! and a verifier clone costs no heap at all.
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
use rap_link::{link, LinkOptions};
use rap_track::{device_key, Verifier, VerifierSession};

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
