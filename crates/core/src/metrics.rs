//! Shared measurement record for the paper's figures.
//!
//! Every CFA configuration (RAP-Track, naive MTB, TRACES-style
//! instrumentation, plain baseline) reduces a run to the same
//! [`Metrics`] so the figure harness can tabulate them uniformly.

/// Measurements from one attested (or baseline) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    /// CPU cycles consumed by the application run (Fig. 1b / Fig. 8).
    pub cycles: u64,
    /// Instructions retired.
    pub instrs: u64,
    /// Total `CF_Log` bytes produced (Fig. 1a / Fig. 9).
    pub cflog_bytes: usize,
    /// Deployed code size in bytes (Fig. 10).
    pub code_bytes: u32,
    /// Number of report transmissions to the Verifier (§V-B).
    pub transmissions: usize,
}

impl Metrics {
    /// Runtime overhead of `self` relative to `baseline`, in percent.
    ///
    /// Returns `None` when the baseline ran for zero cycles (a
    /// zero-length workload or a misconfigured run) — the ratio is
    /// undefined, and callers render it as `n/a` instead of panicking.
    pub fn overhead_pct(&self, baseline: &Metrics) -> Option<f64> {
        if baseline.cycles == 0 {
            return None;
        }
        Some((self.cycles as f64 / baseline.cycles as f64 - 1.0) * 100.0)
    }

    /// Ratio of this run's `CF_Log` size to `other`'s (∞ when the
    /// other log is empty and this one is not).
    pub fn cflog_ratio(&self, other: &Metrics) -> f64 {
        if other.cflog_bytes == 0 {
            if self.cflog_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.cflog_bytes as f64 / other.cflog_bytes as f64
        }
    }
}

/// Verifier-side operational counters, snapshotted from a
/// [`Verifier`](crate::Verifier) (shared across all clones of it).
///
/// Replay work splits into *cached* steps (bulk-applied from the
/// verifier's segment table) and *live* steps (instruction-by-
/// instruction decode at log-consuming sites); the hit rate says how
/// often a deterministic stretch was already memoized.
///
/// Every segment-table lookup counts exactly one hit or one miss, so
/// both totals are independent of how many threads did the lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifierStats {
    /// Segment-table lookups that found their slot already built, plus
    /// lookups at a PC with no slot (outside the image, or odd).
    pub cache_hits: u64,
    /// Segment-table lookups that built their slot: one per segment
    /// built, so it stops growing once every reachable slot is built.
    pub cache_misses: u64,
    /// Instructions replayed by bulk-applying built segments and
    /// dictionary macros.
    pub cached_steps: u64,
    /// Instructions replayed live (non-deterministic sites).
    pub live_steps: u64,
    /// Completed verification jobs (successful or violated).
    pub jobs: u64,
    /// Total wall-clock nanoseconds spent inside `verify`.
    pub wall_ns: u64,
}

impl VerifierStats {
    /// Fraction of cache lookups that hit, in `[0, 1]`; 0 when no
    /// lookup has happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean wall-clock time per job in nanoseconds (0 with no jobs).
    pub fn mean_job_ns(&self) -> u64 {
        self.wall_ns.checked_div(self.jobs).unwrap_or(0)
    }

    /// Verification throughput implied by the counters, in jobs per
    /// second of *accumulated* verify time (not wall time — concurrent
    /// jobs overlap).
    pub fn jobs_per_busy_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.jobs as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_stats_rates() {
        let stats = VerifierStats {
            cache_hits: 3,
            cache_misses: 1,
            cached_steps: 400,
            live_steps: 100,
            jobs: 2,
            wall_ns: 2_000_000,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(stats.mean_job_ns(), 1_000_000);
        assert!((stats.jobs_per_busy_sec() - 1000.0).abs() < 1e-6);
        assert_eq!(VerifierStats::default().hit_rate(), 0.0);
        assert_eq!(VerifierStats::default().mean_job_ns(), 0);
    }

    #[test]
    fn overhead_computation() {
        let base = Metrics {
            cycles: 1000,
            ..Metrics::default()
        };
        let slow = Metrics {
            cycles: 1500,
            ..Metrics::default()
        };
        assert!((slow.overhead_pct(&base).unwrap() - 50.0).abs() < 1e-9);
        assert!((base.overhead_pct(&base).unwrap()).abs() < 1e-9);
        // Zero-cycle baseline: undefined, not a panic.
        assert_eq!(slow.overhead_pct(&Metrics::default()), None);
    }

    #[test]
    fn cflog_ratio_handles_empty() {
        let none = Metrics::default();
        let some = Metrics {
            cflog_bytes: 64,
            ..Metrics::default()
        };
        assert_eq!(some.cflog_ratio(&none), f64::INFINITY);
        assert_eq!(none.cflog_ratio(&none), 1.0);
        assert!((some.cflog_ratio(&some) - 1.0).abs() < 1e-9);
    }
}
