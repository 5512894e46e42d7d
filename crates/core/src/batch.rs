//! Fleet-scale batch verification.
//!
//! TRACES and ACFA both frame the Verifier as an always-on auditing
//! service for device *fleets*. This module verifies many `(Challenge,
//! report stream)` jobs across a [`std::thread::scope`] worker pool
//! sharing one [`Verifier`] (and therefore one segment table), with
//! results returned in submission order.
//!
//! The entry point is [`Verifier::fleet`], which returns a [`Fleet`]
//! handle bound to one verifier and a worker count:
//!
//! * [`Fleet::run`] is a plain parallel map: each worker claims the
//!   next job index with one `fetch_add` and calls [`Verifier::verify`]
//!   on it, which commits that job's stats — the same per-job path
//!   `rap-serve` takes for every round.
//! * [`Fleet::sequential`] is the calling-thread reference
//!   implementation for equivalence tests and 1-thread baselines.
//!
//! Batch verification is observationally identical to calling
//! [`Verifier::verify`] per job in sequence — same [`VerifiedPath`]s,
//! same [`Violation`]s — it only overlaps the wall-clock time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::report::{Challenge, Report};
use crate::verifier::{VerifiedPath, Verifier, Violation};

/// One fleet verification job: a device's report stream for one
/// attestation round.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Operator-facing device identifier (free-form).
    pub device: String,
    /// The challenge issued to this device for the round.
    pub chal: Challenge,
    /// The device's (ordered) report stream.
    pub reports: Vec<Report>,
}

/// The outcome of one [`FleetJob`].
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's device identifier, echoed back.
    pub device: String,
    /// The verification verdict.
    pub result: Result<VerifiedPath, Violation>,
    /// When the job started, as an offset from the start of the
    /// [`Fleet::run`] or [`Fleet::sequential`] call that ran it.
    pub start: Duration,
    /// Wall-clock time this job spent in `verify`.
    pub wall: Duration,
}

impl JobOutcome {
    /// Whether the device's execution was accepted.
    pub fn accepted(&self) -> bool {
        self.result.is_ok()
    }
}

/// The worker count [`Fleet::run`] will actually use for `jobs` jobs
/// at `requested` threads: at least 1 and at most the job count, since
/// idle workers would only add spawn cost. Public so the CLI can report
/// the effective pool instead of the requested one.
pub fn effective_threads(jobs: usize, requested: usize) -> usize {
    requested.max(1).min(jobs.max(1))
}

/// The fleet-verification surface of one [`Verifier`]: a lightweight
/// handle binding the verifier to a worker count, created by
/// [`Verifier::fleet`].
///
/// All workers share the verifier's segment table, so identical
/// deterministic stretches — across loop iterations *and* across
/// devices running the same binary — are decoded once.
#[derive(Debug, Clone, Copy)]
pub struct Fleet<'v> {
    verifier: &'v Verifier,
    threads: usize,
}

impl Verifier {
    /// Opens the fleet-verification surface with a pool of `threads`
    /// workers (clamped by [`effective_threads`]); see [`Fleet`].
    pub fn fleet(&self, threads: usize) -> Fleet<'_> {
        Fleet {
            verifier: self,
            threads,
        }
    }
}

impl Fleet<'_> {
    /// Verifies a batch of fleet jobs concurrently against one deployed
    /// binary. Returns one [`JobOutcome`] per job, in submission order.
    pub fn run(&self, jobs: Vec<FleetJob>) -> Vec<JobOutcome> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let epoch = Instant::now();
        let threads = effective_threads(jobs.len(), self.threads);
        rap_obs::gauge!("fleet_effective_threads").set(threads as i64);

        let next = AtomicUsize::new(0);
        let jobs = &jobs;
        let mut outcomes: Vec<(usize, JobOutcome)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(index) else { break };
                            done.push((index, self.verify_job(job, epoch)));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("fleet worker panicked"))
                .collect()
        });
        outcomes.sort_unstable_by_key(|&(index, _)| index);
        outcomes.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// Reference implementation for equivalence testing and 1-thread
    /// baselines: the same jobs, verified on the calling thread (the
    /// handle's worker count is ignored).
    pub fn sequential(&self, jobs: Vec<FleetJob>) -> Vec<JobOutcome> {
        let epoch = Instant::now();
        jobs.iter().map(|job| self.verify_job(job, epoch)).collect()
    }

    /// Verifies one job and records it into the shared per-job latency
    /// histogram and job counter (the same metrics for batch and
    /// sequential paths, so their totals are directly comparable).
    /// `epoch` is the start of the batch, which the outcome's `start`
    /// is measured from.
    fn verify_job(&self, job: &FleetJob, epoch: Instant) -> JobOutcome {
        let start = Instant::now();
        let result = self.verifier.verify(job.chal, &job.reports);
        let wall = start.elapsed();
        rap_obs::counter!("batch_jobs_total").inc();
        rap_obs::histogram!("batch_job_latency_ns", &rap_obs::LATENCY_NS_BOUNDS)
            .observe(wall.as_nanos() as u64);
        JobOutcome {
            device: job.device.clone(),
            result,
            start: start.duration_since(epoch),
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{device_key, CfaEngine, EngineConfig};
    use armv8m_isa::{Asm, Reg};
    use rap_link::{link, LinkOptions};

    /// A verifier and `count` jobs over one attested loop; every third
    /// job answers the wrong challenge, so a reordered outcome also
    /// carries the wrong verdict.
    fn verifier_and_jobs(count: usize) -> (Verifier, Vec<FleetJob>) {
        let mut a = Asm::new();
        a.func("main");
        a.movi(Reg::R0, 3);
        a.label("spin");
        a.subi(Reg::R0, Reg::R0, 1);
        a.cmpi(Reg::R0, 0);
        a.bne("spin");
        a.halt();
        let linked = link(&a.into_module(), 0, LinkOptions::default()).expect("links");
        let key = device_key("batch");
        let chal = Challenge::from_seed(5);
        let mut machine = mcu_sim::Machine::new(linked.image.clone());
        let att = CfaEngine::new(key.clone())
            .attest(&mut machine, &linked.map, chal, EngineConfig::default())
            .expect("attestation runs");
        let jobs = (0..count)
            .map(|i| FleetJob {
                device: format!("dev-{i}"),
                chal: if i % 3 == 2 {
                    Challenge::from_seed(6)
                } else {
                    chal
                },
                reports: att.reports.clone(),
            })
            .collect();
        (Verifier::new(key, linked.image, linked.map), jobs)
    }

    #[test]
    fn run_returns_one_outcome_per_job_in_order() {
        // A zero-thread request runs on one worker, a pool larger than
        // the job list shrinks to it, and no jobs means no outcomes.
        for (threads, count) in [(0, 7), (64, 3), (4, 0)] {
            let (verifier, jobs) = verifier_and_jobs(count);
            let outcomes = verifier.fleet(threads).run(jobs);
            assert_eq!(outcomes.len(), count, "threads {threads}");
            for (i, outcome) in outcomes.iter().enumerate() {
                assert_eq!(outcome.device, format!("dev-{i}"), "threads {threads}");
                assert_eq!(
                    outcome.accepted(),
                    i % 3 != 2,
                    "threads {threads}, job {i}: {:?}",
                    outcome.result
                );
            }
            assert_eq!(verifier.stats().jobs, count as u64, "threads {threads}");
        }
    }
}
