//! The Prover-side CFA Engine (§IV-A).
//!
//! On a CFA request the engine: disables Non-Secure interrupts (implicit
//! in the single-threaded model), write-protects and locks the attested
//! binary behind the NS-MPU, hashes it into `H_MEM`, configures the DWT
//! comparators around MTBAR/MTBDR and the `MTB_FLOW` watermark, runs the
//! application, services `SG` calls (loop-condition logging) and
//! watermark events (partial reports), and finally emits the signed
//! report stream.

use armv8m_isa::service;
use mcu_sim::{cycles, ExecError, Machine, ProtectedRegion, RunOutcome, SecureEnv, SecureWorld};
use rap_crypto::{sha256, Digest};
use rap_link::LinkMap;
use trace_units::{PcRange, RangeAction, SubPathMatcher, TraceEntry};

use crate::report::{CfLog, Challenge, Key, Report};

/// Engine tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// `MTB_FLOW` watermark in entries; a partial report is produced
    /// whenever the trace buffer reaches it. `None` disables partial
    /// reports (the buffer must then never overflow).
    pub watermark: Option<usize>,
    /// Instruction budget for the attested run.
    pub max_instrs: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            watermark: None,
            max_instrs: 50_000_000,
        }
    }
}

/// The result of one attested execution.
#[derive(Debug, Clone)]
pub struct Attestation {
    /// All reports in transmission order; the last one has
    /// `is_final == true`.
    pub reports: Vec<Report>,
    /// Execution metrics of the attested run.
    pub outcome: RunOutcome,
}

impl Attestation {
    /// Total `CF_Log` bytes across all reports (the Fig. 9 metric).
    pub fn cflog_bytes(&self) -> usize {
        self.reports.iter().map(|r| r.log.size_bytes()).sum()
    }

    /// Number of transmissions to the Verifier (§V-B pauses).
    pub fn transmissions(&self) -> usize {
        self.reports.len()
    }

    /// The spliced log streams, in order. Dictionary-hit `at` indices
    /// are rebased from per-report to combined-stream positions.
    pub fn combined_log(&self) -> CfLog {
        let mut log = CfLog::new();
        for r in &self.reports {
            let base = log.mtb.len() as u32;
            log.mtb.extend(r.log.mtb.iter().copied());
            log.loop_records.extend(r.log.loop_records.iter().copied());
            log.dict_hits.extend(r.log.dict_hits.iter().map(|h| {
                let mut h = *h;
                h.at += base;
                h
            }));
        }
        log
    }
}

/// The Secure-World half of the engine, installed while the attested
/// application runs.
struct EngineSecureWorld<'a> {
    key: &'a [u8],
    chal: Challenge,
    h_mem: Digest,
    dict: Option<&'a [Vec<TraceEntry>]>,
    current: CfLog,
    reports: Vec<Report>,
}

impl EngineSecureWorld<'_> {
    fn flush(
        &mut self,
        is_final: bool,
        overflow: bool,
        drained: Vec<trace_units::TraceEntry>,
    ) -> u64 {
        self.current.mtb.extend(drained);
        // §IV-E + speculation: the matcher runs per report, over the
        // full chunk being signed, so hit `at` indices are local to
        // this report's residual stream (matches never span a
        // watermark drain).
        if let Some(entries) = self.dict {
            if !self.current.mtb.is_empty() {
                let mut matcher = SubPathMatcher::new(entries.to_vec());
                for &t in &self.current.mtb {
                    matcher.feed(t);
                }
                let (residual, hits) = matcher.finish();
                rap_obs::counter!("engine_dict_hits_total").add(hits.len() as u64);
                self.current.mtb = residual;
                self.current.dict_hits = hits;
            }
        }
        let log = std::mem::take(&mut self.current);
        let bytes = log.size_bytes();
        let seq = self.reports.len() as u32;
        self.reports.push(Report::new(
            self.key, self.chal, self.h_mem, log, seq, is_final, overflow,
        ));
        rap_obs::counter!("engine_reports_total").inc();
        if !is_final {
            rap_obs::counter!("engine_partial_reports_total").inc();
        }
        rap_obs::counter!("engine_cflog_bytes_total").add(bytes as u64);
        cycles::REPORT_FIXED + cycles::REPORT_PER_BYTE * bytes as u64
    }
}

impl SecureWorld for EngineSecureWorld<'_> {
    fn on_gateway(&mut self, svc: u8, arg: u32, env: &mut SecureEnv<'_>) -> Result<u64, ExecError> {
        match svc {
            service::LOG_LOOP_COND => {
                self.current.loop_records.push(arg);
                Ok(cycles::LOG_APPEND)
            }
            other => Err(ExecError::UnknownService {
                service: other,
                pc: env.pc,
            }),
        }
    }

    fn on_watermark(&mut self, env: &mut SecureEnv<'_>) -> Result<u64, ExecError> {
        // §IV-E: drain CF_Log, send a partial report, reset the head
        // pointer and resume the application.
        let overflow = env.fabric.mtb().overflowed();
        let drained = env.fabric.mtb_mut().drain();
        Ok(self.flush(false, overflow, drained))
    }
}

/// The CFA Engine: holds the device attestation key (Secure-World
/// storage in the paper's model).
#[derive(Debug, Clone)]
pub struct CfaEngine {
    key: Key,
    dict: Option<Vec<Vec<TraceEntry>>>,
}

impl CfaEngine {
    /// Creates an engine with the given device key.
    pub fn new(key: Key) -> CfaEngine {
        CfaEngine { key, dict: None }
    }

    /// Installs speculation-dictionary entries: every signed report's
    /// MTB stream is run through a [`SubPathMatcher`] and matched
    /// sub-paths ship as compact dictionary-hit records. The entries
    /// must come from a dictionary mined for the deployed image — the
    /// Verifier checks that binding, not the device.
    pub fn with_dict(mut self, entries: Vec<Vec<TraceEntry>>) -> CfaEngine {
        self.dict = Some(entries);
        self
    }

    /// Runs the full attested execution of the application already
    /// loaded into `machine`, whose layout is described by `map`.
    ///
    /// # Errors
    ///
    /// Propagates execution faults ([`ExecError`]) — including the MPU
    /// violation triggered by code-injection attempts — and surfaces
    /// DWT misconfiguration as [`ExecError::SecureWorld`].
    pub fn attest(
        &self,
        machine: &mut Machine,
        map: &LinkMap,
        chal: Challenge,
        config: EngineConfig,
    ) -> Result<Attestation, ExecError> {
        // 1. Lock the application binary (NS-MPU) — §IV-A.
        let image_range = ProtectedRegion {
            base: machine.image().base(),
            limit: machine.image().end(),
        };
        machine.mpu.protect(image_range);
        machine.mpu.lock();

        // 2. Measure the binary.
        let h_mem = sha256(machine.image().bytes());

        // 3. Configure DWT + MTB.
        machine.fabric.dwt_mut().clear();
        machine.fabric.mtb_mut().reset();
        if let (Some(mtbdr), Some(mtbar)) = (map.mtbdr, map.mtbar) {
            machine
                .fabric
                .dwt_mut()
                .watch_range(PcRange {
                    base: mtbdr.start,
                    limit: mtbdr.end,
                    action: RangeAction::StopMtb,
                })
                .map_err(|e| ExecError::SecureWorld(e.to_string()))?;
            machine
                .fabric
                .dwt_mut()
                .watch_range(PcRange {
                    base: mtbar.start,
                    limit: mtbar.end,
                    action: RangeAction::StartMtb,
                })
                .map_err(|e| ExecError::SecureWorld(e.to_string()))?;
        }
        machine
            .fabric
            .mtb_mut()
            .set_flow_watermark(config.watermark);

        // 4. Execute the application with the engine installed.
        let mut secure = EngineSecureWorld {
            key: &self.key,
            chal,
            h_mem,
            dict: self.dict.as_deref(),
            current: CfLog::new(),
            reports: Vec::new(),
        };
        let outcome = machine.run(&mut secure, config.max_instrs)?;

        // 5. Final report: drain what remains and sign. The hardware
        //    wrap status travels with the report — a Verifier must not
        //    accept evidence with silently overwritten packets.
        let overflow = machine.fabric.mtb().overflowed();
        let drained = machine.fabric.mtb_mut().drain();
        let report_cycles = secure.flush(true, overflow, drained);
        // Report generation happens after the app halted; charge it to
        // the attestation, not the application's Fig. 8 cycle count.
        let _ = report_cycles;

        Ok(Attestation {
            reports: secure.reports,
            outcome,
        })
    }

    /// The device key (verifier side shares it in the symmetric setting).
    pub fn key(&self) -> &[u8] {
        &self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::device_key;
    use armv8m_isa::{Asm, Reg};
    use rap_link::{link, LinkOptions};
    use trace_units::MtbConfig;

    fn linked_countdown(n: u16) -> rap_link::LinkedProgram {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R2, n);
        a.mov(Reg::R0, Reg::R2); // variable → SG-logged loop
        a.label("loop");
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("loop");
        a.halt();
        link(&a.into_module(), 0, LinkOptions::default()).expect("links")
    }

    #[test]
    fn attest_produces_single_final_report() {
        let linked = linked_countdown(9);
        let engine = CfaEngine::new(device_key("t"));
        let mut machine = Machine::new(linked.image.clone());
        let att = engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(1),
                EngineConfig::default(),
            )
            .expect("attests");
        assert_eq!(att.reports.len(), 1);
        assert!(att.reports[0].is_final);
        assert!(att.reports[0].authenticate(&device_key("t")));
        assert_eq!(att.combined_log().loop_records, vec![9]);
        assert!(att.combined_log().mtb.is_empty());
    }

    #[test]
    fn mpu_is_locked_during_attestation() {
        let linked = linked_countdown(3);
        let engine = CfaEngine::new(device_key("t"));
        let mut machine = Machine::new(linked.image.clone());
        engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(2),
                EngineConfig::default(),
            )
            .expect("attests");
        assert!(machine.mpu.is_locked());
        assert!(!machine.mpu.write_allowed(linked.image.base()));
    }

    #[test]
    fn watermark_produces_partial_reports() {
        // A general loop (internal conditional) logging one MTB entry
        // per iteration, with a tiny watermark.
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 20);
        a.movi(Reg::R1, 0);
        a.label("loop");
        a.cmpi(Reg::R1, 100);
        a.beq("skip"); // never taken, but makes the loop general
        a.addi(Reg::R1, Reg::R1, 1);
        a.label("skip");
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("loop");
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");

        let engine = CfaEngine::new(device_key("t"));
        let mut machine = Machine::with_mtb(
            linked.image.clone(),
            MtbConfig {
                capacity: 8,
                activation_delay: 1,
            },
        );
        let att = engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(3),
                EngineConfig {
                    watermark: Some(4),
                    max_instrs: 100_000,
                },
            )
            .expect("attests");
        // 19 latch-taken entries / 4 per partial → 4 partials + final.
        assert!(att.reports.len() >= 5, "got {}", att.reports.len());
        assert!(att.reports.last().unwrap().is_final);
        assert!(att.reports.iter().rev().skip(1).all(|r| !r.is_final));
        // Sequence numbers are contiguous.
        for (i, r) in att.reports.iter().enumerate() {
            assert_eq!(r.seq, i as u32);
            assert!(r.authenticate(&device_key("t")));
        }
        // Nothing was lost to wrap-around.
        assert_eq!(att.combined_log().mtb.len(), 19);
    }

    #[test]
    fn partial_reports_prevent_overflow_loss() {
        // Same workload but without a watermark and a tiny buffer:
        // the MTB wraps and data is lost.
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 20);
        a.movi(Reg::R1, 0);
        a.label("loop");
        a.cmpi(Reg::R1, 100);
        a.beq("skip");
        a.addi(Reg::R1, Reg::R1, 1);
        a.label("skip");
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("loop");
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let engine = CfaEngine::new(device_key("t"));
        let mut machine = Machine::with_mtb(
            linked.image.clone(),
            MtbConfig {
                capacity: 8,
                activation_delay: 1,
            },
        );
        let att = engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(4),
                EngineConfig::default(),
            )
            .expect("attests");
        assert_eq!(att.reports.len(), 1);
        // Only the 8 most recent of the 19 packets survived — and the
        // report says so.
        assert_eq!(att.combined_log().mtb.len(), 8);
        assert!(att.reports[0].overflow);
    }

    #[test]
    fn h_mem_matches_binary_hash() {
        let linked = linked_countdown(2);
        let engine = CfaEngine::new(device_key("t"));
        let mut machine = Machine::new(linked.image.clone());
        let att = engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(5),
                EngineConfig::default(),
            )
            .expect("attests");
        assert_eq!(att.reports[0].h_mem, sha256(linked.image.bytes()));
    }
}
