//! Span/event tracing with per-thread ring-buffer sinks.
//!
//! Instrumentation sites call [`event`] (or open a [`span`]); when the
//! collector is disabled — the default — that call is a single relaxed
//! atomic load plus a branch, cheap enough to leave in the verifier's
//! replay loop permanently (`benches/obs.rs` measures it). When
//! enabled, events land in a small `thread_local` buffer and are
//! flushed into the global collector when the buffer fills, when the
//! thread exits, or at [`drain`] time, so worker threads never contend
//! on a lock per event.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the collector was first enabled.
    pub ts_ns: u64,
    /// Static event kind (e.g. `"segment_build"`, `"dict_bulk_apply"`).
    pub kind: &'static str,
    /// First payload word (site-defined; spans store the start time).
    pub a: u64,
    /// Second payload word (site-defined; spans store the duration).
    pub b: u64,
}

/// Events buffered per thread before a flush into the collector.
const LOCAL_RING: usize = 128;

/// Default collector capacity when [`enable`] is called with 0.
const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    events: Vec::new(),
    capacity: DEFAULT_CAPACITY,
});

struct Collector {
    events: Vec<TraceEvent>,
    capacity: usize,
}

thread_local! {
    static SINK: RefCell<LocalSink> = const { RefCell::new(LocalSink { buf: Vec::new() }) };
}

struct LocalSink {
    buf: Vec<TraceEvent>,
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        flush_into_collector(&mut self.buf);
    }
}

fn flush_into_collector(buf: &mut Vec<TraceEvent>) {
    if buf.is_empty() {
        return;
    }
    let mut collector = COLLECTOR.lock().unwrap();
    for event in buf.drain(..) {
        if collector.events.len() < collector.capacity {
            collector.events.push(event);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Whether the collector is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the collector on, discarding previously collected events.
/// `capacity` bounds the number of retained events (0 means the
/// default); further events count as [`dropped`].
pub fn enable(capacity: usize) {
    let _ = EPOCH.set(Instant::now());
    {
        let mut collector = COLLECTOR.lock().unwrap();
        collector.events.clear();
        collector.capacity = if capacity == 0 {
            DEFAULT_CAPACITY
        } else {
            capacity
        };
    }
    DROPPED.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the collector off. Already-buffered events remain drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Records an event. When the collector is disabled this is one relaxed
/// load and a branch.
#[inline]
pub fn event(kind: &'static str, a: u64, b: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    event_slow(kind, a, b);
}

#[cold]
fn event_slow(kind: &'static str, a: u64, b: u64) {
    let ts_ns = EPOCH
        .get()
        .map_or(0, |epoch| epoch.elapsed().as_nanos() as u64);
    let ev = TraceEvent { kind, ts_ns, a, b };
    SINK.with(|sink| {
        // Re-entrancy guard: a panic inside the collector could poison
        // the RefCell; borrow_mut failing means we are mid-flush.
        if let Ok(mut sink) = sink.try_borrow_mut() {
            sink.buf.push(ev);
            if sink.buf.len() >= LOCAL_RING {
                flush_into_collector(&mut sink.buf);
            }
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// A timed span; records an event with its duration when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    kind: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let start_ns = EPOCH
                .get()
                .map_or(0, |epoch| start.duration_since(*epoch).as_nanos() as u64);
            event(self.kind, start_ns, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a span: on drop it records `event(kind, start_ns, duration_ns)`.
/// Disabled collectors make this a no-op (no clock read).
#[inline]
pub fn span(kind: &'static str) -> SpanGuard {
    SpanGuard {
        kind,
        start: enabled().then(Instant::now),
    }
}

/// Flushes the calling thread's buffered events into the collector.
/// Threads flush automatically on exit and when their ring fills; call
/// this from long-lived threads before snapshotting.
pub fn flush_thread() {
    SINK.with(|sink| {
        if let Ok(mut sink) = sink.try_borrow_mut() {
            flush_into_collector(&mut sink.buf);
        }
    });
}

/// Removes and returns every collected event, oldest first by
/// timestamp. Flushes the calling thread first; other live threads'
/// unflushed rings are not visible until they flush or exit.
pub fn drain() -> Vec<TraceEvent> {
    flush_thread();
    let mut events = {
        let mut collector = COLLECTOR.lock().unwrap();
        std::mem::take(&mut collector.events)
    };
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Events discarded because the collector (or a wedged thread ring) was
/// full since the last [`enable`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Renders events as one text line each: `ts_ns kind a b`.
pub fn render_text(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{:>12} {} {:#x} {:#x}\n",
            e.ts_ns, e.kind, e.a, e.b
        ));
    }
    out
}

/// Serializes events as a JSON array of objects.
pub fn to_json(events: &[TraceEvent]) -> Json {
    Json::obj([
        ("dropped", Json::Uint(dropped())),
        (
            "events",
            Json::Arr(
                events
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("ts_ns", Json::Uint(e.ts_ns)),
                            ("kind", Json::Str(e.kind.to_string())),
                            ("a", Json::Uint(e.a)),
                            ("b", Json::Uint(e.b)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; every test serializes on this
    // lock so enable/disable cycles don't interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_collector_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        disable();
        event("noop", 1, 2);
        let _span = span("noop_span");
        drop(_span);
        assert!(drain().is_empty());
    }

    #[test]
    fn events_and_spans_are_collected_in_order() {
        let _guard = TEST_LOCK.lock().unwrap();
        enable(0);
        event("first", 1, 2);
        {
            let _s = span("work");
        }
        event("last", 3, 4);
        disable();
        let events = drain();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"first"));
        assert!(kinds.contains(&"work"));
        assert!(kinds.contains(&"last"));
        assert_eq!(dropped(), 0);
        assert!(drain().is_empty(), "drain must consume");
    }

    #[test]
    fn worker_thread_events_flush_on_exit() {
        let _guard = TEST_LOCK.lock().unwrap();
        enable(0);
        // Explicit join handles, not thread::scope: scope returns when
        // the closures finish, which can be *before* a worker's TLS
        // sink destructor (the flush under test) has run; join waits
        // for full thread termination, TLS destructors included.
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..10 {
                        event("worker", t, i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        disable();
        let events = drain();
        assert_eq!(events.iter().filter(|e| e.kind == "worker").count(), 40);
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let _guard = TEST_LOCK.lock().unwrap();
        enable(8);
        // More than capacity + one local ring.
        for i in 0..(LOCAL_RING as u64 * 3) {
            event("spam", i, 0);
        }
        disable();
        let events = drain();
        assert_eq!(events.len(), 8);
        assert!(dropped() > 0);
    }

    #[test]
    fn render_and_json() {
        let _guard = TEST_LOCK.lock().unwrap();
        enable(0);
        event("kindly", 0x10, 0x20);
        disable();
        let events = drain();
        let text = render_text(&events);
        assert!(text.contains("kindly 0x10 0x20"));
        let json = to_json(&events).to_compact();
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(
            doc.get("events").and_then(Json::as_array).map(|a| a.len()),
            Some(1)
        );
    }
}
