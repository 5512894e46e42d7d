//! The count metrics repeat exactly.
//!
//! A shortened run of every workload, twice on one seed, must give
//! identical wire bytes, device overhead, replay steps, dictionary hits
//! and traced per-layer allocation counts. On a second seed only the
//! forged-round positions and the pre-filled audit records change, so
//! every count that neither feeds must stay the same too.

use std::path::PathBuf;

use roundbench::{Options, Outcome, Workload};

/// Counts that depend only on the app recording and the dictionary.
const SEED_FREE: [&str; 3] = [
    "wire_bytes_per_round",
    "device_overhead_pct",
    "dict.hits_per_round",
];

/// Counts that also follow the forged rounds, where there are any.
const REPEATING: [&str; 4] = [
    "verifier.steps_per_round",
    "wire.allocs_per_round",
    "verifier.replay_allocs_per_round",
    "verdict.allocs_per_round",
];

fn run(workload: Workload, seed: u64) -> Outcome {
    let options = Options {
        workload,
        seed,
        // Any timed phase outlasts a nanosecond, so every run is one
        // trial however fast the host is, and `attempted` can be compared.
        seconds: 1e-9,
        trace: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("roundbench-repeat"),
        shorten: 16,
    };
    let outcome = roundbench::run(&options).expect("run sets up");
    assert!(
        outcome.correct && outcome.failed == 0,
        "{}: {:?}",
        workload.name(),
        outcome.causes
    );
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metric(name)
        .unwrap_or_else(|| panic!("{name} is reported"))
}

#[test]
fn counts_repeat_exactly() {
    for workload in Workload::ALL {
        let (a, again, other_seed) = (run(workload, 7), run(workload, 7), run(workload, 8));
        let forged = workload == Workload::FleetSmall;
        for name in SEED_FREE.iter().chain(&REPEATING) {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&again, name).to_bits(),
                "{} {name} differs between runs of one seed",
                workload.name()
            );
        }
        for name in SEED_FREE.iter().chain(REPEATING.iter().filter(|_| !forged)) {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&other_seed, name).to_bits(),
                "{} {name} differs between seeds",
                workload.name()
            );
        }
        assert_eq!(a.attempted, other_seed.attempted, "{}", workload.name());
    }
}
