//! Per-round trace contexts and slow-round exemplars.
//!
//! The serve pipeline processes one attestation *round* through four
//! stages — connection queue, opener read, worker replay, verdict
//! batch flush. A [`RoundCollector`] threads a `u64` trace id (minted
//! when the round's CHALLENGE is issued) through all of them and
//! retains the full [`StageSpan`] tree of *slow* rounds — rounds whose
//! end-to-end latency exceeds a threshold — in a bounded ring of
//! [`RoundExemplar`]s, together with the device id and the queue depth
//! observed when the connection was enqueued. `rap verify --trace`
//! writes the same document with the threshold at 0: one exemplar per
//! verified job, each with a single `verify` span.
//!
//! Cost discipline: a server without a telemetry plane builds no
//! collector at all. Fast rounds on a collector cost two relaxed RMWs
//! (the trace-id mint and the seen counter); only rounds over the
//! threshold build spans and take the ring lock.
//!
//! The collector is deliberately clock-free: callers pass nanosecond
//! offsets relative to an epoch they own (the server's start instant),
//! which keeps every method deterministic and directly testable.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// One timed pipeline stage of one round. All offsets are nanoseconds
/// relative to the collector owner's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// The round's trace id — every span in one round's tree carries
    /// the same value.
    pub trace_id: u64,
    /// Stage name (`"accept"`, `"opener"`, `"replay"`, `"flush"` in
    /// the server; `"verify"` in a CLI trace).
    pub stage: &'static str,
    /// Stage start, ns since the epoch.
    pub start_ns: u64,
    /// Stage duration in ns.
    pub dur_ns: u64,
}

impl StageSpan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::Uint(self.trace_id)),
            ("stage", Json::Str(self.stage.to_string())),
            ("start_ns", Json::Uint(self.start_ns)),
            ("dur_ns", Json::Uint(self.dur_ns)),
        ])
    }
}

/// A retained slow round: its full span tree plus the context needed
/// to attribute the latency (device, verdict, queue depth at enqueue
/// time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundExemplar {
    /// Trace id minted at CHALLENGE issue.
    pub trace_id: u64,
    /// Device the round belonged to.
    pub device: String,
    /// End-to-end latency (challenge issue → verdict flushed), ns.
    pub total_ns: u64,
    /// Whether the round's evidence verified.
    pub accepted: bool,
    /// Connection-queue depth when the connection was enqueued.
    pub accept_depth: u32,
    /// Per-stage spans, in pipeline order.
    pub spans: Vec<StageSpan>,
}

impl RoundExemplar {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::Uint(self.trace_id)),
            ("device", Json::Str(self.device.clone())),
            ("total_ns", Json::Uint(self.total_ns)),
            ("accepted", Json::Bool(self.accepted)),
            ("accept_depth", Json::Uint(u64::from(self.accept_depth))),
            (
                "spans",
                Json::Arr(self.spans.iter().map(StageSpan::to_json).collect()),
            ),
        ])
    }
}

struct Ring {
    items: VecDeque<RoundExemplar>,
    evicted: u64,
}

/// Mints per-round trace ids and retains slow-round exemplars in a
/// bounded ring.
///
/// A server owns one collector per instance (rather than a process
/// global) so concurrent servers in one process do not mix exemplars.
pub struct RoundCollector {
    threshold_ns: u64,
    capacity: usize,
    next_trace_id: AtomicU64,
    rounds_seen: AtomicU64,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for RoundCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundCollector")
            .field("threshold_ns", &self.threshold_ns)
            .field("capacity", &self.capacity)
            .field("rounds_seen", &self.rounds_seen())
            .finish()
    }
}

impl RoundCollector {
    /// Creates a collector: rounds strictly slower than `threshold_ns`
    /// are retained, at most `capacity` at a time (oldest evicted
    /// first). A threshold of 0 retains every round — useful for tests
    /// and for forcing an exemplar in a smoke run.
    pub fn new(threshold_ns: u64, capacity: usize) -> RoundCollector {
        RoundCollector {
            threshold_ns,
            capacity: capacity.max(1),
            next_trace_id: AtomicU64::new(0),
            rounds_seen: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                items: VecDeque::new(),
                evicted: 0,
            }),
        }
    }

    /// Mints the next trace id (ids start at 1 and never repeat within
    /// a collector).
    #[inline]
    pub fn mint(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The retention threshold in ns.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rounds offered to the collector.
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen.load(Ordering::Relaxed)
    }

    /// Exemplars evicted from the ring to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.ring.lock().unwrap().evicted
    }

    /// Offers one finished round. `build` is called — and the ring lock
    /// taken — only when `total_ns` exceeds the threshold, so fast
    /// rounds stay on the lock-free path.
    pub fn record(&self, total_ns: u64, build: impl FnOnce() -> RoundExemplar) {
        self.rounds_seen.fetch_add(1, Ordering::Relaxed);
        if total_ns <= self.threshold_ns {
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.items.len() >= self.capacity {
            ring.items.pop_front();
            ring.evicted += 1;
        }
        ring.items.push_back(build());
    }

    /// A point-in-time copy of the retained exemplars, oldest first.
    pub fn exemplars(&self) -> Vec<RoundExemplar> {
        self.ring.lock().unwrap().items.iter().cloned().collect()
    }

    /// The collector's full state as one JSON document — the payload
    /// the serve admin endpoint returns for an `EXEMPLARS` request.
    pub fn to_json(&self) -> Json {
        let ring = self.ring.lock().unwrap();
        Json::obj([
            ("threshold_ns", Json::Uint(self.threshold_ns)),
            ("capacity", Json::Uint(self.capacity as u64)),
            ("rounds_seen", Json::Uint(self.rounds_seen())),
            ("retained", Json::Uint(ring.items.len() as u64)),
            ("evicted", Json::Uint(ring.evicted)),
            (
                "exemplars",
                Json::Arr(ring.items.iter().map(RoundExemplar::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar(trace_id: u64, total_ns: u64) -> RoundExemplar {
        RoundExemplar {
            trace_id,
            device: "dev".to_string(),
            total_ns,
            accepted: true,
            accept_depth: 0,
            spans: vec![StageSpan {
                trace_id,
                stage: "replay",
                start_ns: 10,
                dur_ns: total_ns,
            }],
        }
    }

    #[test]
    fn only_rounds_above_threshold_are_retained() {
        let rc = RoundCollector::new(1_000, 8);
        rc.record(500, || panic!("below threshold: must not build"));
        rc.record(1_000, || panic!("at threshold: strictly-above rule"));
        rc.record(1_001, || exemplar(1, 1_001));
        assert_eq!(rc.rounds_seen(), 3);
        let kept = rc.exemplars();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].total_ns, 1_001);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let rc = RoundCollector::new(0, 3);
        for i in 1..=5u64 {
            rc.record(i * 10, || exemplar(i, i * 10));
        }
        let kept = rc.exemplars();
        assert_eq!(kept.len(), 3);
        assert_eq!(
            kept.iter().map(|e| e.trace_id).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "oldest exemplars are evicted first"
        );
        assert_eq!(rc.evicted(), 2);
    }

    #[test]
    fn trace_ids_are_unique_and_increasing() {
        let rc = RoundCollector::new(0, 1);
        let ids: Vec<u64> = (0..100).map(|_| rc.mint()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert_eq!(ids[0], 1);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn json_shape_round_trips_through_the_parser() {
        let rc = RoundCollector::new(100, 4);
        rc.record(5_000, || exemplar(7, 5_000));
        let text = rc.to_json().to_pretty();
        let doc = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("threshold_ns").and_then(Json::as_u64), Some(100));
        assert_eq!(doc.get("rounds_seen").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("retained").and_then(Json::as_u64), Some(1));
        let ex = &doc.get("exemplars").and_then(Json::as_array).unwrap()[0];
        assert_eq!(ex.get("trace_id").and_then(Json::as_u64), Some(7));
        assert_eq!(ex.get("device").and_then(Json::as_str), Some("dev"));
        let span = &ex.get("spans").and_then(Json::as_array).unwrap()[0];
        assert_eq!(span.get("stage").and_then(Json::as_str), Some("replay"));
        assert_eq!(span.get("trace_id").and_then(Json::as_u64), Some(7));
    }
}
