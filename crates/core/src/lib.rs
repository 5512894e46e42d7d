//! # rap-track — Runtime Attestation via Parallel Tracking
//!
//! The paper's primary contribution: Control Flow Attestation that logs
//! the control-flow path *in parallel* with execution using the MTB and
//! DWT tracing extensions, instead of per-branch calls into the TEE.
//!
//! * [`CfaEngine`] — the Prover-side Secure-World engine: locks the
//!   binary, measures `H_MEM`, arms the DWT/MTB, runs the application,
//!   emits signed (partial) [`Report`]s (§IV-A, §IV-E).
//! * [`Verifier`] — authenticates the report stream and performs
//!   lossless path reconstruction by replaying the deployed binary
//!   against `CF_Log`, detecting ROP/JOP/log-forgery as typed
//!   [`Violation`]s (§IV-F).
//!
//! The offline phase lives in [`rap_link`]; the platform in
//! [`mcu_sim`].
//!
//! ```
//! use armv8m_isa::{Asm, Reg};
//! use rap_link::{LinkOptions, link};
//! use rap_track::{CfaEngine, Challenge, EngineConfig, Verifier, device_key};
//!
//! // Build and link an application with a runtime-variable loop.
//! let mut a = Asm::new();
//! a.func("main");
//! a.movi(Reg::R2, 5);
//! a.mov(Reg::R0, Reg::R2);
//! a.label("loop");
//! a.subi(Reg::R0, Reg::R0, 1);
//! a.cmpi(Reg::R0, 0);
//! a.bne("loop");
//! a.halt();
//! let linked = link(&a.into_module(), 0, LinkOptions::default())?;
//!
//! // Prover: attest an execution.
//! let engine = CfaEngine::new(device_key("demo"));
//! let mut machine = mcu_sim::Machine::new(linked.image.clone());
//! let chal = Challenge::from_seed(42);
//! let att = engine.attest(&mut machine, &linked.map, chal, EngineConfig::default())?;
//!
//! // Verifier: authenticate and reconstruct the path.
//! let verifier = Verifier::new(device_key("demo"), linked.image.clone(), linked.map.clone());
//! let path = verifier.verify(chal, &att.reports)?;
//! assert!(path.events.len() >= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod batch;
mod dict;
mod engine;
mod error;
mod metrics;
mod policy;
mod protocol;
mod report;
mod verdict;
mod verifier;
mod wire;

pub use batch::{effective_threads, Fleet, FleetJob, JobOutcome};
pub use dict::{DictFormatError, DictParams, SubPathDict};
pub use engine::{Attestation, CfaEngine, EngineConfig};
pub use error::Error;
pub use metrics::{Metrics, VerifierStats};
pub use policy::{PathPolicy, PathStats, PolicyFinding};
pub use protocol::{SessionError, VerifierSession};
pub use report::{device_key, CfLog, Challenge, Key, Report};
pub use verdict::{
    short_hash_hex, stats_digest, verdict_seal_key, VerdictDraft, VerdictError, VerdictRecord,
};
pub use verifier::{
    BuildError, PathEvent, ReplaySession, VerifiedPath, Verifier, VerifierBuilder, Violation,
};
pub use wire::{decode_stream, encode_report, encode_stream, WireError};

/// The types almost every caller needs, importable in one line:
///
/// ```
/// use rap_track::prelude::*;
/// ```
pub mod prelude {
    pub use crate::batch::{Fleet, FleetJob, JobOutcome};
    pub use crate::dict::{DictParams, SubPathDict};
    pub use crate::engine::{Attestation, CfaEngine, EngineConfig};
    pub use crate::error::Error;
    pub use crate::protocol::{SessionError, VerifierSession};
    pub use crate::report::{device_key, Challenge, Key, Report};
    pub use crate::verdict::{verdict_seal_key, VerdictDraft, VerdictError, VerdictRecord};
    pub use crate::verifier::{PathEvent, VerifiedPath, Verifier, VerifierBuilder, Violation};
    pub use crate::wire::{decode_stream, encode_stream, WireError};
}

#[cfg(test)]
mod tests {
    use super::*;
    use armv8m_isa::{Asm, Reg};
    use mcu_sim::{ExecError, InjectedWrite, Machine, RAM_BASE, RAM_SIZE};
    use rap_link::{link, LinkOptions, LinkedProgram};

    fn attest_and_verify(
        linked: &LinkedProgram,
        prep: impl FnOnce(&mut Machine),
    ) -> (Result<VerifiedPath, Violation>, Attestation) {
        let key = device_key("e2e");
        let engine = CfaEngine::new(key.clone());
        let mut machine = Machine::new(linked.image.clone());
        prep(&mut machine);
        let chal = Challenge::from_seed(77);
        let att = engine
            .attest(&mut machine, &linked.map, chal, EngineConfig::default())
            .expect("attestation runs");
        let verifier = Verifier::new(key, linked.image.clone(), linked.map.clone());
        (verifier.verify(chal, &att.reports), att)
    }

    #[test]
    fn benign_execution_verifies_end_to_end() {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R1, 2);
        a.cmpi(Reg::R1, 2);
        a.beq("ok");
        a.movi(Reg::R4, 99);
        a.label("ok");
        a.bl("worker");
        a.load_addr(Reg::R3, "leaf");
        a.blx(Reg::R3);
        a.movi(Reg::R4, 6);
        a.mov(Reg::R0, Reg::R4);
        a.label("spin");
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("spin");
        a.halt();
        a.func("worker");
        a.push(&[Reg::R4, Reg::Lr]);
        a.bl("leaf");
        a.pop(&[Reg::R4, Reg::Pc]);
        a.func("leaf");
        a.addi(Reg::R6, Reg::R6, 1);
        a.ret();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");

        let (result, att) = attest_and_verify(&linked, |_| {});
        let path = result.expect("benign run verifies");

        let has = |f: &dyn Fn(&PathEvent) -> bool| path.events.iter().any(f);
        assert!(has(&|e| matches!(e, PathEvent::CondTaken { .. })));
        assert!(has(&|e| matches!(e, PathEvent::Call { .. })));
        assert!(has(&|e| matches!(e, PathEvent::IndirectCall { .. })));
        assert!(has(&|e| matches!(e, PathEvent::Return { .. })));
        assert!(has(&|e| matches!(
            e,
            PathEvent::LoopIterations { count: 6, .. }
        )));
        assert!(has(&|e| matches!(e, PathEvent::Halt(_))));
        assert!(att.cflog_bytes() > 0);
    }

    #[test]
    fn rop_attack_is_detected() {
        // worker pushes LR; the adversary overwrites the saved return
        // address on the stack mid-execution, diverting the POP {PC}.
        let mut a = Asm::new();
        a.func("main");
        a.bl("worker");
        a.label("after");
        a.halt();
        a.func("worker");
        a.push(&[Reg::Lr]);
        a.addi(Reg::R0, Reg::R0, 1);
        a.nop();
        a.nop();
        a.nop();
        a.pop(&[Reg::Pc]);
        a.func("gadget");
        a.movi(Reg::R7, 0xEE);
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let gadget = linked.image.symbol("gadget").unwrap();

        let (result, _) = attest_and_verify(&linked, |machine| {
            // The saved LR sits at the top of the stack after PUSH {LR}.
            machine.inject_write(InjectedWrite {
                after_instrs: 4, // after BL + PUSH + ADDI + NOP
                addr: RAM_BASE + RAM_SIZE - 4,
                value: gadget,
            });
        });
        match result {
            Err(Violation::ReturnMismatch { got, .. }) => assert_eq!(got, gadget),
            other => panic!("expected ReturnMismatch, got {other:?}"),
        }
    }

    #[test]
    fn jop_attack_on_function_pointer_is_detected() {
        // The app calls through a function pointer in RAM; the
        // adversary redirects it into the middle of a function.
        let mut a = Asm::new();
        a.func("main");
        a.mov32(Reg::R5, RAM_BASE);
        a.load_addr(Reg::R0, "good");
        a.str_(Reg::R0, Reg::R5, 0);
        a.nop();
        a.ldr(Reg::R3, Reg::R5, 0);
        a.blx(Reg::R3);
        a.halt();
        a.func("good");
        a.movi(Reg::R7, 1);
        a.label("inside_good");
        a.addi(Reg::R7, Reg::R7, 1);
        a.ret();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let inside = linked.image.symbol("inside_good").unwrap();

        let (result, _) = attest_and_verify(&linked, |machine| {
            machine.inject_write(InjectedWrite {
                after_instrs: 6,
                addr: RAM_BASE,
                value: inside,
            });
        });
        match result {
            Err(Violation::InvalidCallTarget { dest, .. }) => assert_eq!(dest, inside),
            other => panic!("expected InvalidCallTarget, got {other:?}"),
        }
    }

    #[test]
    fn code_injection_is_blocked_by_locked_mpu() {
        let mut a = Asm::new();
        a.func("main");
        a.nop();
        a.nop();
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let engine = CfaEngine::new(device_key("e2e"));
        let mut machine = Machine::new(linked.image.clone());
        machine.inject_write(InjectedWrite {
            after_instrs: 1,
            addr: linked.image.base(),
            value: 0xFFFF_FFFF,
        });
        let err = engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(1),
                EngineConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::MpuViolation { .. }));
    }

    #[test]
    fn tampered_log_fails_authentication() {
        let mut a = Asm::new();
        a.func("main");
        a.cmpi(Reg::R0, 0);
        a.beq("t");
        a.label("t");
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let key = device_key("e2e");
        let engine = CfaEngine::new(key.clone());
        let mut machine = Machine::new(linked.image.clone());
        let chal = Challenge::from_seed(7);
        let mut att = engine
            .attest(&mut machine, &linked.map, chal, EngineConfig::default())
            .expect("attests");
        att.reports[0].log.mtb.clear();
        let verifier = Verifier::new(key, linked.image.clone(), linked.map.clone());
        assert!(matches!(
            verifier.verify(chal, &att.reports),
            Err(Violation::BadTag { seq: 0 })
        ));
    }

    #[test]
    fn replayed_report_fails_challenge_check() {
        let mut a = Asm::new();
        a.func("main");
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let key = device_key("e2e");
        let engine = CfaEngine::new(key.clone());
        let mut machine = Machine::new(linked.image.clone());
        let old_chal = Challenge::from_seed(1);
        let att = engine
            .attest(&mut machine, &linked.map, old_chal, EngineConfig::default())
            .expect("attests");
        let verifier = Verifier::new(key, linked.image.clone(), linked.map.clone());
        assert!(matches!(
            verifier.verify(Challenge::from_seed(2), &att.reports),
            Err(Violation::ChallengeMismatch)
        ));
    }

    #[test]
    fn truncated_partial_stream_is_rejected() {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 30);
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
        let key = device_key("e2e");
        let engine = CfaEngine::new(key.clone());
        let mut machine = Machine::with_mtb(
            linked.image.clone(),
            trace_units::MtbConfig {
                capacity: 8,
                activation_delay: 1,
            },
        );
        let chal = Challenge::from_seed(3);
        let att = engine
            .attest(
                &mut machine,
                &linked.map,
                chal,
                EngineConfig {
                    watermark: Some(4),
                    max_instrs: 1_000_000,
                },
            )
            .expect("attests");
        assert!(att.reports.len() > 2);
        let verifier = Verifier::new(key, linked.image.clone(), linked.map.clone());

        verifier.verify(chal, &att.reports).expect("full stream ok");

        let mut dropped = att.reports.clone();
        dropped.remove(1);
        assert!(matches!(
            verifier.verify(chal, &dropped),
            Err(Violation::BadReportStream(_))
        ));

        let mut swapped = att.reports.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            verifier.verify(chal, &swapped),
            Err(Violation::BadReportStream(_))
        ));
    }

    #[test]
    fn forward_loop_path_reconstruction() {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 0);
        a.mov32(Reg::R2, RAM_BASE);
        a.label("head");
        a.ldr(Reg::R1, Reg::R2, 0);
        a.cmpi(Reg::R0, 3);
        a.beq("out");
        a.addi(Reg::R0, Reg::R0, 1);
        a.b("head");
        a.label("out");
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let (result, _) = attest_and_verify(&linked, |_| {});
        let path = result.expect("verifies");
        let continues = path
            .events
            .iter()
            .filter(|e| matches!(e, PathEvent::LoopContinue { .. }))
            .count();
        assert_eq!(continues, 3);
        assert!(path
            .events
            .iter()
            .any(|e| matches!(e, PathEvent::CondTaken { .. })));
    }

    #[test]
    fn rendered_path_resolves_symbols() {
        let mut a = Asm::new();
        a.func("main");
        a.bl("helper");
        a.halt();
        a.func("helper");
        a.movi(Reg::R2, 7);
        a.mov(Reg::R0, Reg::R2);
        a.label("spin");
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("spin");
        a.ret();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let (result, _) = attest_and_verify(&linked, |_| {});
        let listing = result.expect("verifies").render(&linked.image);
        assert!(listing.contains("enter main"), "{listing}");
        assert!(listing.contains("call helper"), "{listing}");
        assert!(listing.contains("x7"), "{listing}");
        assert!(listing.contains("halt"), "{listing}");
    }

    #[test]
    fn static_loop_replay_without_any_log() {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 12);
        a.label("w");
        a.nop();
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("w");
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let (result, att) = attest_and_verify(&linked, |_| {});
        let path = result.expect("verifies");
        assert_eq!(att.cflog_bytes(), 0);
        assert!(path
            .events
            .iter()
            .any(|e| matches!(e, PathEvent::LoopIterations { count: 12, .. })));
    }
}
