//! Micro Trace Buffer (MTB) model.
//!
//! The MTB records the `(source, destination)` addresses of every
//! non-sequential PC change into a circular SRAM buffer while tracing is
//! active (MTB-M33 TRM). Tracing is controlled either by the `TSTARTEN`
//! bit of `MTB_MASTER` (trace everything) or by the `MTB_TSTART` /
//! `MTB_TSTOP` inputs driven by DWT comparators. The `MTB_FLOW`
//! watermark raises a debug event when the write pointer reaches a
//! configured limit — RAP-Track uses it for partial reports (§IV-E).

use std::fmt;

use crate::DwtSignals;

/// One MTB trace packet: an executed non-sequential transfer.
/// Ordered (source, then dest) so transfer sequences can key ordered
/// collections — the dictionary miner relies on that for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceEntry {
    /// Address of the branching instruction.
    pub source: u32,
    /// Address execution continued at.
    pub dest: u32,
}

impl TraceEntry {
    /// Size of one encoded packet in the trace SRAM, in bytes
    /// (source word + destination word, as in the real MTB).
    pub const BYTES: usize = 8;

    /// Builds a packet — used by tests and the fuzzing mutator when
    /// synthesizing adversarial logs.
    pub fn new(source: u32, dest: u32) -> TraceEntry {
        TraceEntry { source, dest }
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x} -> {:#010x}", self.source, self.dest)
    }
}

/// Static configuration of the MTB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtbConfig {
    /// Capacity of the trace SRAM in *entries* (the AN505 image maps
    /// 4 KiB of MTB SRAM = 512 entries; that is the default).
    pub capacity: usize,
    /// Instructions executed between a `TSTART` assertion and the first
    /// recorded packet, modelling the hardware's activation latency. The
    /// paper compensates with `NOP` padding at MTBAR trampoline heads
    /// (§V-C); the offline linker inserts exactly this many `NOP`s.
    pub activation_delay: u32,
}

impl Default for MtbConfig {
    fn default() -> MtbConfig {
        MtbConfig {
            capacity: 4096 / TraceEntry::BYTES,
            activation_delay: 1,
        }
    }
}

/// The MTB tracing state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceState {
    /// Not recording.
    Off,
    /// `TSTART` seen; becomes `On` after the activation delay elapses.
    Arming {
        /// Remaining instruction steps before recording starts.
        remaining: u32,
    },
    /// Recording.
    On,
}

/// The Micro Trace Buffer.
///
/// ```
/// use trace_units::{DwtSignals, Mtb, MtbConfig};
/// let mut mtb = Mtb::new(MtbConfig { capacity: 8, activation_delay: 0 });
/// mtb.set_master_trace(true); // TSTARTEN: trace everything
/// mtb.record(0x100, 0x200);
/// assert_eq!(mtb.entries().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mtb {
    config: MtbConfig,
    master_trace: bool,
    state: TraceState,
    buffer: Vec<TraceEntry>,
    /// Next write position within the circular buffer.
    position: usize,
    /// Whether the write pointer has wrapped at least once since the
    /// last drain (oldest packets were overwritten).
    wrapped: bool,
    /// Packets recorded since the last drain (watermark bookkeeping).
    since_drain: usize,
    /// Total packets recorded since the last [`Mtb::reset`] (monotonic,
    /// not bounded by capacity) — the quantity the paper reports as
    /// `CF_Log` size.
    total_recorded: u64,
    watermark: Option<usize>,
    watermark_hit: bool,
}

impl Mtb {
    /// Creates an MTB with the given configuration.
    pub fn new(config: MtbConfig) -> Mtb {
        Mtb {
            config,
            master_trace: false,
            state: TraceState::Off,
            buffer: Vec::with_capacity(config.capacity),
            position: 0,
            wrapped: false,
            since_drain: 0,
            total_recorded: 0,
            watermark: None,
            watermark_hit: false,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> MtbConfig {
        self.config
    }

    /// Sets the `TSTARTEN` bit of `MTB_MASTER`: when true the MTB traces
    /// unconditionally, ignoring DWT start/stop inputs (the *naive MTB*
    /// baseline of the paper).
    pub fn set_master_trace(&mut self, enable: bool) {
        self.master_trace = enable;
        if enable {
            self.state = TraceState::On;
        } else if self.state == TraceState::On {
            self.state = TraceState::Off;
        }
    }

    /// Configures the `MTB_FLOW` watermark: a debug event fires when the
    /// write position reaches `entries`. `None` disables the watermark.
    pub fn set_flow_watermark(&mut self, entries: Option<usize>) {
        self.watermark = entries.map(|e| e.min(self.config.capacity));
    }

    /// Whether the watermark debug event is pending.
    pub fn watermark_hit(&self) -> bool {
        self.watermark_hit
    }

    /// Applies the DWT start/stop signals for the instruction about to
    /// execute, then advances the activation-delay state machine by one
    /// instruction step.
    pub fn tick(&mut self, signals: DwtSignals) {
        if self.master_trace {
            return;
        }
        // Stop dominates: the MTBDR range deactivates tracing outright.
        if signals.stop {
            self.state = TraceState::Off;
            return;
        }
        if signals.start {
            match self.state {
                TraceState::Off => {
                    self.state = if self.config.activation_delay == 0 {
                        TraceState::On
                    } else {
                        TraceState::Arming {
                            remaining: self.config.activation_delay,
                        }
                    };
                }
                TraceState::Arming { remaining } => {
                    let remaining = remaining.saturating_sub(1);
                    self.state = if remaining == 0 {
                        TraceState::On
                    } else {
                        TraceState::Arming { remaining }
                    };
                }
                TraceState::On => {}
            }
        }
    }

    /// Whether the MTB would record a packet right now.
    pub fn is_tracing(&self) -> bool {
        self.master_trace || self.state == TraceState::On
    }

    /// Records a non-sequential transfer if tracing is active.
    ///
    /// Returns `true` when a packet was written.
    pub fn record(&mut self, source: u32, dest: u32) -> bool {
        if !self.is_tracing() {
            return false;
        }
        let entry = TraceEntry { source, dest };
        if self.buffer.len() < self.config.capacity {
            self.buffer.push(entry);
        } else {
            // Overwriting the oldest packet: data is being lost.
            self.buffer[self.position] = entry;
            self.wrapped = true;
            rap_obs::counter!("trace_mtb_overwrites_total").inc();
        }
        self.position = (self.position + 1) % self.config.capacity;
        self.since_drain += 1;
        self.total_recorded += 1;
        rap_obs::counter!("trace_mtb_packets_total").inc();
        if let Some(mark) = self.watermark {
            if self.since_drain >= mark && !self.watermark_hit {
                self.watermark_hit = true;
                rap_obs::counter!("trace_mtb_watermark_hits_total").inc();
            }
        }
        true
    }

    /// The packets currently in the buffer, oldest first.
    pub fn entries(&self) -> Vec<TraceEntry> {
        if !self.wrapped || self.buffer.len() < self.config.capacity {
            self.buffer.clone()
        } else {
            let mut out = Vec::with_capacity(self.buffer.len());
            out.extend_from_slice(&self.buffer[self.position..]);
            out.extend_from_slice(&self.buffer[..self.position]);
            out
        }
    }

    /// Whether packets have been lost to wrap-around since the last
    /// drain (the failure mode partial reports exist to prevent).
    pub fn overflowed(&self) -> bool {
        self.wrapped
    }

    /// Total packets recorded since the last [`Mtb::reset`], including
    /// any that were overwritten. `CF_Log` size in bytes is
    /// `total_recorded() * TraceEntry::BYTES`.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Drains the buffer for a (partial) report: returns the packets in
    /// order and resets the head pointer and the watermark event, as the
    /// paper's partial-report handler does (§IV-E).
    pub fn drain(&mut self) -> Vec<TraceEntry> {
        let out = self.entries();
        rap_obs::counter!("trace_mtb_drains_total").inc();
        rap_obs::counter!("trace_mtb_drained_packets_total").add(out.len() as u64);
        self.buffer.clear();
        self.position = 0;
        self.wrapped = false;
        self.since_drain = 0;
        self.watermark_hit = false;
        out
    }

    /// Fully resets the unit (buffer, counters, tracing state).
    pub fn reset(&mut self) {
        self.drain();
        self.total_recorded = 0;
        self.master_trace = false;
        self.state = TraceState::Off;
        self.watermark = None;
    }
}

impl Default for Mtb {
    fn default() -> Mtb {
        Mtb::new(MtbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> DwtSignals {
        DwtSignals {
            start: true,
            stop: false,
        }
    }

    fn stop() -> DwtSignals {
        DwtSignals {
            start: false,
            stop: true,
        }
    }

    #[test]
    fn master_trace_records_everything() {
        let mut mtb = Mtb::new(MtbConfig {
            capacity: 4,
            activation_delay: 3,
        });
        mtb.set_master_trace(true);
        assert!(mtb.record(0, 4));
        assert_eq!(mtb.total_recorded(), 1);
    }

    #[test]
    fn off_by_default() {
        let mut mtb = Mtb::default();
        assert!(!mtb.record(0, 4));
        assert_eq!(mtb.total_recorded(), 0);
    }

    #[test]
    fn activation_delay_arms_before_recording() {
        let mut mtb = Mtb::new(MtbConfig {
            capacity: 8,
            activation_delay: 2,
        });
        mtb.tick(start()); // arming, remaining = 2
        assert!(!mtb.is_tracing());
        assert!(!mtb.record(0x10, 0x20));
        mtb.tick(start()); // remaining = 1
        assert!(!mtb.is_tracing());
        mtb.tick(start()); // on
        assert!(mtb.is_tracing());
        assert!(mtb.record(0x10, 0x20));
    }

    #[test]
    fn zero_delay_starts_immediately() {
        let mut mtb = Mtb::new(MtbConfig {
            capacity: 8,
            activation_delay: 0,
        });
        mtb.tick(start());
        assert!(mtb.is_tracing());
    }

    #[test]
    fn stop_signal_halts_tracing() {
        let mut mtb = Mtb::new(MtbConfig {
            capacity: 8,
            activation_delay: 0,
        });
        mtb.tick(start());
        assert!(mtb.record(0, 4));
        mtb.tick(stop());
        assert!(!mtb.record(8, 12));
        assert_eq!(mtb.entries().len(), 1);
    }

    #[test]
    fn circular_wrap_keeps_most_recent() {
        let mut mtb = Mtb::new(MtbConfig {
            capacity: 3,
            activation_delay: 0,
        });
        mtb.set_master_trace(true);
        for i in 0..5u32 {
            mtb.record(i * 8, i * 8 + 4);
        }
        assert!(mtb.overflowed());
        let entries = mtb.entries();
        assert_eq!(entries.len(), 3);
        // Oldest two were overwritten: remaining sources are 16, 24, 32.
        let sources: Vec<u32> = entries.iter().map(|e| e.source).collect();
        assert_eq!(sources, vec![16, 24, 32]);
        assert_eq!(mtb.total_recorded(), 5);
    }

    #[test]
    fn watermark_fires_and_drain_clears() {
        let mut mtb = Mtb::new(MtbConfig {
            capacity: 8,
            activation_delay: 0,
        });
        mtb.set_master_trace(true);
        mtb.set_flow_watermark(Some(2));
        mtb.record(0, 4);
        assert!(!mtb.watermark_hit());
        mtb.record(8, 12);
        assert!(mtb.watermark_hit());
        let drained = mtb.drain();
        assert_eq!(drained.len(), 2);
        assert!(!mtb.watermark_hit());
        assert_eq!(mtb.entries().len(), 0);
        // Total survives drains (it is the CF_Log size metric)…
        assert_eq!(mtb.total_recorded(), 2);
        // …but not a full reset.
        mtb.reset();
        assert_eq!(mtb.total_recorded(), 0);
    }

    #[test]
    fn restart_after_stop_rearms_with_delay() {
        let mut mtb = Mtb::new(MtbConfig {
            capacity: 8,
            activation_delay: 1,
        });
        mtb.tick(start());
        mtb.tick(start());
        assert!(mtb.is_tracing());
        mtb.tick(stop());
        assert!(!mtb.is_tracing());
        mtb.tick(start());
        assert!(!mtb.is_tracing(), "must re-arm after a stop");
        mtb.tick(start());
        assert!(mtb.is_tracing());
    }
}
