//! Fleet-scale batch verification.
//!
//! TRACES and ACFA both frame the Verifier as an always-on auditing
//! service for device *fleets*; a single-threaded replay loop cannot
//! serve that workload. This module verifies many `(Challenge,
//! report stream)` jobs concurrently across a [`std::thread::scope`]
//! worker pool sharing one [`Verifier`] (and therefore one segment
//! table), with results returned in submission order.
//!
//! The entry point is [`Verifier::fleet`], which returns a [`Fleet`]
//! handle bound to one verifier and one [`BatchOptions`]:
//!
//! * [`Fleet::run`] owns the whole job slice up front, so workers
//!   claim index ranges from an **atomic-ticket dispenser** — one
//!   `fetch_add` per chunk, no mutex, no condvar, no per-job handoff.
//!   Chunks shrink as the slice drains (guided self-scheduling) so the
//!   tail stays balanced without paying per-job dispatch up front.
//! * [`Fleet::sequential`] is the calling-thread reference
//!   implementation for equivalence tests and 1-thread baselines.
//!
//! Workers accumulate their verification stats in plain per-worker
//! tallies merged once at join (see `Verifier::commit_tally`), so the
//! replay hot loop never touches a shared cache line.
//!
//! Batch verification is observationally identical to calling
//! [`Verifier::verify`] per job in sequence — same [`VerifiedPath`]s,
//! same [`Violation`]s — it only overlaps the wall-clock time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::report::{Challenge, Report};
use crate::verifier::{StatsTally, VerifiedPath, Verifier, Violation};

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
    /// Wall-clock time this job spent in `verify`.
    pub wall: Duration,
}

impl JobOutcome {
    /// Whether the device's execution was accepted.
    pub fn accepted(&self) -> bool {
        self.result.is_ok()
    }
}

/// Worker-pool configuration for [`Fleet::run`].
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker threads. Clamped to at least 1 and to the job count —
    /// idle workers would only add spawn cost.
    pub threads: usize,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchOptions { threads }
    }
}

impl BatchOptions {
    /// Options for a pool of exactly `threads` workers.
    pub fn with_threads(threads: usize) -> BatchOptions {
        BatchOptions { threads }
    }
}

/// Largest index range one dispenser claim may cover. Caps the damage
/// when one early chunk happens to hold all the slow jobs.
const MAX_CHUNK: usize = 64;

/// The worker pool and chunking [`Fleet::run`] will actually use for
/// `jobs` jobs at `requested` threads: `(effective threads, initial
/// chunk size)`. Public so the CLI can report the effective
/// configuration instead of the requested one.
pub fn effective_batch_config(jobs: usize, requested: usize) -> (usize, usize) {
    let threads = requested.max(1).min(jobs.max(1));
    (threads, chunk_for(jobs, 0, threads))
}

/// Guided self-scheduling chunk size: claim `remaining / (4 * threads)`
/// jobs, so early claims amortize the dispenser `fetch_add` while the
/// tail degrades to per-job claims and no worker is left holding a
/// large chunk while the others idle.
fn chunk_for(total: usize, claimed: usize, threads: usize) -> usize {
    (total.saturating_sub(claimed) / (threads * 4)).clamp(1, MAX_CHUNK)
}

/// Claims the next chunk of job indices, or `None` once the slice is
/// exhausted. Lock-free: one relaxed load to size the chunk (staleness
/// only perturbs the chunk size, never correctness) and one `fetch_add`
/// to claim it. Every index in `0..total` is claimed exactly once.
fn claim_chunk(cursor: &AtomicUsize, total: usize, threads: usize) -> Option<(usize, usize)> {
    let seen = cursor.load(Ordering::Relaxed);
    if seen >= total {
        return None;
    }
    let chunk = chunk_for(total, seen, threads);
    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
    if start >= total {
        return None;
    }
    Some((start, (start + chunk).min(total)))
}

/// The fleet-verification surface of one [`Verifier`]: a lightweight
/// handle binding the verifier to a [`BatchOptions`], created by
/// [`Verifier::fleet`].
///
/// All workers share the verifier's segment table, so identical
/// deterministic stretches — across loop iterations *and* across
/// devices running the same binary — are decoded once.
#[derive(Debug, Clone, Copy)]
pub struct Fleet<'v> {
    verifier: &'v Verifier,
    options: BatchOptions,
}

impl Verifier {
    /// Opens the fleet-verification surface with the given worker-pool
    /// options; see [`Fleet`].
    pub fn fleet(&self, options: BatchOptions) -> Fleet<'_> {
        Fleet {
            verifier: self,
            options,
        }
    }
}

impl Fleet<'_> {
    /// The options this handle was opened with.
    pub fn options(&self) -> BatchOptions {
        self.options
    }

    /// Verifies a batch of fleet jobs concurrently against one deployed
    /// binary. Returns one [`JobOutcome`] per job, in submission order.
    pub fn run(&self, jobs: Vec<FleetJob>) -> Vec<JobOutcome> {
        let verifier = self.verifier;
        let total = jobs.len();
        if total == 0 {
            return Vec::new();
        }
        let (threads, initial_chunk) = effective_batch_config(total, self.options.threads);
        rap_obs::gauge!("fleet_effective_threads").set(threads as i64);
        rap_obs::gauge!("fleet_chunk_size").set(initial_chunk as i64);

        let cursor = AtomicUsize::new(0);
        let jobs = &jobs;
        let per_worker: Vec<Vec<(usize, JobOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut outcomes: Vec<(usize, JobOutcome)> = Vec::new();
                        let mut tally = StatsTally::default();
                        let mut busy_ns = 0u64;
                        let mut idle_ns = 0u64;
                        loop {
                            let idle_from = Instant::now();
                            let Some((start, end)) = claim_chunk(&cursor, total, threads) else {
                                break;
                            };
                            idle_ns += idle_from.elapsed().as_nanos() as u64;
                            for (index, job) in jobs[start..end].iter().enumerate() {
                                let index = start + index;
                                let from = Instant::now();
                                let result =
                                    verifier.verify_tallied(job.chal, &job.reports, &mut tally);
                                let wall = from.elapsed();
                                busy_ns += wall.as_nanos() as u64;
                                outcomes.push((
                                    index,
                                    JobOutcome {
                                        device: job.device.clone(),
                                        result,
                                        wall,
                                    },
                                ));
                            }
                        }
                        // One merge per worker: the only writes this
                        // worker ever makes to shared counters.
                        verifier.commit_tally(&tally);
                        rap_obs::counter!("batch_worker_busy_ns_total").add(busy_ns);
                        rap_obs::counter!("batch_worker_idle_ns_total").add(idle_ns);
                        // Flush this worker's trace ring *inside* the
                        // closure: scoped threads signal completion
                        // before their TLS destructors run, so a drain
                        // right after `run` returns would otherwise
                        // race the implicit flush.
                        rap_obs::flush_thread();
                        outcomes
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        });

        collect_in_order(total, per_worker)
    }

    /// Reference implementation for equivalence testing and 1-thread
    /// baselines: the same jobs, verified on the calling thread (the
    /// handle's thread options are ignored).
    pub fn sequential(&self, jobs: Vec<FleetJob>) -> Vec<JobOutcome> {
        jobs.into_iter()
            .map(|job| {
                let start = Instant::now();
                let result = self.verifier.verify(job.chal, &job.reports);
                let wall = start.elapsed();
                observe_job(wall);
                JobOutcome {
                    device: job.device,
                    result,
                    wall,
                }
            })
            .collect()
    }
}

/// Merges per-worker `(index, outcome)` piles back into submission
/// order and records the per-job metrics — once, from the joining
/// thread, after all workers are done.
fn collect_in_order(total: usize, per_worker: Vec<Vec<(usize, JobOutcome)>>) -> Vec<JobOutcome> {
    let mut slots: Vec<Option<JobOutcome>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    for (index, outcome) in per_worker.into_iter().flatten() {
        observe_job(outcome.wall);
        debug_assert!(slots[index].is_none(), "job {index} claimed twice");
        slots[index] = Some(outcome);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job claimed exactly once"))
        .collect()
}

/// Records one completed job into the shared per-job latency histogram
/// and job counter (the same metrics for batch and sequential paths, so
/// their totals are directly comparable).
fn observe_job(wall: Duration) {
    rap_obs::counter!("batch_jobs_total").inc();
    rap_obs::histogram!("batch_job_latency_ns", &rap_obs::LATENCY_NS_BOUNDS)
        .observe(wall.as_nanos() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn batch_options_clamp() {
        assert!(BatchOptions::default().threads >= 1);
        // The fleet handle clamps a zero-thread request to one worker.
        let requested = BatchOptions::with_threads(0).threads;
        assert_eq!(effective_batch_config(4, requested), (1, 1));
    }

    #[test]
    fn dispenser_claims_every_index_exactly_once() {
        for (total, threads) in [(1usize, 8usize), (7, 3), (100, 4), (1000, 8)] {
            let cursor = AtomicUsize::new(0);
            let claims: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        while let Some(range) = claim_chunk(&cursor, total, threads) {
                            claims.lock().unwrap().push(range);
                        }
                    });
                }
            });
            let mut covered = vec![0u32; total];
            for (start, end) in claims.into_inner().unwrap() {
                assert!(start < end && end <= total);
                for slot in &mut covered[start..end] {
                    *slot += 1;
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "total={total} threads={threads}: {covered:?}"
            );
        }
    }

    #[test]
    fn chunks_shrink_toward_the_tail() {
        // Guided self-scheduling: a fresh slice hands out larger chunks
        // than a nearly-drained one, and never zero.
        assert!(chunk_for(1000, 0, 4) > chunk_for(1000, 990, 4));
        assert_eq!(chunk_for(1000, 999, 4), 1);
        assert_eq!(chunk_for(10, 10, 4), 1);
        assert!(chunk_for(1_000_000, 0, 1) <= MAX_CHUNK);
        let (threads, chunk) = effective_batch_config(6, 32);
        assert_eq!(threads, 6, "threads clamp to the job count");
        assert!(chunk >= 1);
        assert_eq!(effective_batch_config(0, 0), (1, 1));
    }
}
