//! A dependency-free micro-benchmark harness.
//!
//! The evaluation machines are air-gapped, so the Criterion dependency
//! was replaced with this minimal wall-clock harness: each benchmark
//! runs a warmup pass, then a fixed number of timed samples, and the
//! report prints the median, minimum and mean time per iteration.
//! Output is line-oriented (`group/name  median  min  mean  iters`) so
//! it can be diffed and grepped in CI.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rap_obs::Json;

/// One benchmark sample set, reduced to summary statistics.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median time per iteration.
    pub median: Duration,
    /// Fastest sample's time per iteration.
    pub min: Duration,
    /// Mean time per iteration over all samples.
    pub mean: Duration,
    /// 95th-percentile (nearest-rank) time per iteration.
    pub p95: Duration,
    /// Iterations per sample.
    pub iters: u64,
}

impl Stats {
    /// Iterations per second implied by the median sample.
    pub fn per_sec(&self) -> f64 {
        if self.median.is_zero() {
            f64::INFINITY
        } else {
            1.0 / self.median.as_secs_f64()
        }
    }

    /// Reduces raw per-iteration sample times to summary statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set — a harness bug.
    pub fn from_samples(mut per_iter: Vec<Duration>, iters: u64) -> Stats {
        assert!(!per_iter.is_empty(), "no samples");
        per_iter.sort();
        // Nearest-rank p95: with few samples this degrades to the max,
        // which is the conservative tail estimate we want.
        Stats {
            median: per_iter[per_iter.len() / 2],
            min: per_iter[0],
            mean: per_iter.iter().sum::<Duration>() / per_iter.len() as u32,
            p95: per_iter[(per_iter.len() * 95).div_ceil(100).saturating_sub(1)],
            iters,
        }
    }

    /// Serializes the summary for the `BENCH_*.json` artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median_ns", Json::Uint(self.median.as_nanos() as u64)),
            ("min_ns", Json::Uint(self.min.as_nanos() as u64)),
            ("mean_ns", Json::Uint(self.mean.as_nanos() as u64)),
            ("p95_ns", Json::Uint(self.p95.as_nanos() as u64)),
            ("iters", Json::Uint(self.iters)),
        ])
    }
}

/// Arguments shared by the `harness = false` bench binaries:
/// `--quick` shrinks the workload for CI smoke runs, `--json <path>`
/// writes the per-case summaries as a `BENCH_*.json` artifact, and
/// `--enforce` turns a bench's built-in regression thresholds (if it
/// has any) into a non-zero exit. Unknown arguments (e.g. cargo's own)
/// are ignored.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Run a reduced configuration (fewer samples/devices).
    pub quick: bool,
    /// Where to write the JSON summary, if anywhere.
    pub json_out: Option<String>,
    /// Fail (exit non-zero) when the bench's thresholds are missed.
    pub enforce: bool,
}

impl BenchArgs {
    /// Parses `std::env::args()`.
    pub fn parse() -> BenchArgs {
        let mut args = BenchArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--json" => args.json_out = it.next(),
                "--enforce" => args.enforce = true,
                _ => {}
            }
        }
        args
    }
}

/// Accumulates named [`Stats`] and writes them as one JSON document
/// (`{ "cases": { "<group>/<name>": { median_ns, p95_ns, ... } } }`).
#[derive(Debug, Default)]
pub struct BenchReport {
    cases: Vec<ReportCase>,
    fields: Vec<(String, Json)>,
}

/// One recorded case: id, summary stats, and extra JSON fields merged
/// into the serialized object.
type ReportCase = (String, Stats, Vec<(String, Json)>);

impl BenchReport {
    /// Records one case's summary under `id` (conventionally
    /// `group/name`).
    pub fn record(&mut self, id: &str, stats: Stats) {
        self.cases.push((id.to_owned(), stats, Vec::new()));
    }

    /// Like [`record`](Self::record), with extra JSON fields merged
    /// into the case object — e.g. a derived `speedup_vs_1` ratio.
    pub fn record_with(
        &mut self,
        id: &str,
        stats: Stats,
        extras: impl IntoIterator<Item = (&'static str, Json)>,
    ) {
        self.cases.push((
            id.to_owned(),
            stats,
            extras.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        ));
    }

    /// Adds a top-level field beside `host_cores`, such as the figure a
    /// gate decides on.
    pub fn field(&mut self, key: &str, value: Json) {
        self.fields.push((key.to_owned(), value));
    }

    /// Serializes every recorded case, alongside the machine's core
    /// count — a scaling figure is meaningless without knowing how
    /// much parallelism the host actually had — and the top-level
    /// fields.
    pub fn to_json(&self) -> Json {
        let mut top = vec![("host_cores".to_owned(), Json::Uint(host_cores() as u64))];
        top.extend(self.fields.iter().cloned());
        top.push((
            "cases".to_owned(),
            Json::Obj(
                self.cases
                    .iter()
                    .map(|(id, stats, extras)| {
                        let mut case = match stats.to_json() {
                            Json::Obj(entries) => entries,
                            _ => unreachable!("Stats::to_json returns an object"),
                        };
                        case.extend(extras.iter().cloned());
                        (id.clone(), Json::Obj(case))
                    })
                    .collect(),
            ),
        ));
        Json::Obj(top)
    }

    /// Writes the report to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Forwards the filesystem error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

/// The host's available parallelism (1 if the query fails). Recorded
/// in every `BENCH_*.json` artifact and used by scaling benches to
/// refuse to record speedup figures the machine cannot produce.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// A named collection of benchmarks sharing sample configuration.
pub struct BenchGroup {
    name: String,
    samples: usize,
    min_iters: u64,
    target_sample_time: Duration,
}

impl BenchGroup {
    /// Creates a group with default sampling (10 samples of ~50ms).
    pub fn new(name: &str) -> BenchGroup {
        BenchGroup {
            name: name.to_owned(),
            samples: 10,
            min_iters: 1,
            target_sample_time: Duration::from_millis(50),
        }
    }

    /// Overrides the number of timed samples.
    pub fn samples(mut self, samples: usize) -> BenchGroup {
        self.samples = samples.max(1);
        self
    }

    /// Sets a floor under the calibrated iterations per sample, so a
    /// case slower than the target sample time still averages several
    /// runs per sample instead of one or two.
    pub fn min_iters(mut self, min_iters: u64) -> BenchGroup {
        self.min_iters = min_iters.max(1);
        self
    }

    /// Runs one benchmark: times `f`, prints a report line and returns
    /// the statistics for programmatic use (e.g. speedup assertions).
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Stats {
        // Warmup + iteration-count calibration: run once, then size the
        // per-sample iteration count to hit the target sample time.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let calibrated =
            (self.target_sample_time.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let iters = calibrated.max(self.min_iters);

        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(start.elapsed() / iters as u32);
        }
        let stats = Stats::from_samples(per_iter, iters);
        println!(
            "{}/{:<32} median {:>9}  min {:>9}  mean {:>9}  ({} it/sample)",
            self.name,
            name,
            fmt_duration(stats.median),
            fmt_duration(stats.min),
            fmt_duration(stats.mean),
            iters
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_stats() {
        let stats = BenchGroup::new("t").samples(3).bench("noop", || 1 + 1);
        assert!(stats.min <= stats.median);
        assert!(stats.median <= stats.p95);
        assert!(stats.iters >= 1);
        assert!(stats.per_sec() > 0.0);
    }

    #[test]
    fn min_iters_floors_the_calibration() {
        let slow = || std::thread::sleep(Duration::from_millis(30));
        let stats = BenchGroup::new("t")
            .samples(1)
            .min_iters(3)
            .bench("slow", slow);
        assert_eq!(stats.iters, 3, "a 30 ms case would calibrate to 1");
    }

    #[test]
    fn report_serializes_cases() {
        let stats = BenchGroup::new("t").samples(2).bench("noop", || ());
        let mut report = BenchReport::default();
        report.record("t/noop", stats);
        let json = report.to_json().to_compact();
        let doc = rap_obs::json::parse(&json).unwrap();
        let case = doc.get("cases").and_then(|c| c.get("t/noop")).unwrap();
        assert_eq!(case.get("iters").and_then(Json::as_u64), Some(stats.iters));
        assert!(case.get("p95_ns").and_then(Json::as_u64).is_some());
        // Every artifact states how many cores produced it.
        assert_eq!(
            doc.get("host_cores").and_then(Json::as_u64),
            Some(host_cores() as u64)
        );
    }

    #[test]
    fn record_with_merges_extra_fields() {
        let stats = BenchGroup::new("t").samples(2).bench("noop", || ());
        let mut report = BenchReport::default();
        report.record_with("t/extra", stats, [("speedup_vs_1", Json::Num(2.5))]);
        let json = report.to_json().to_compact();
        let doc = rap_obs::json::parse(&json).unwrap();
        let case = doc.get("cases").and_then(|c| c.get("t/extra")).unwrap();
        assert!(case.get("median_ns").is_some());
        assert_eq!(case.get("speedup_vs_1").and_then(Json::as_f64), Some(2.5));
    }

    #[test]
    fn fields_land_beside_host_cores() {
        let mut report = BenchReport::default();
        report.field("gate_ratio", Json::Num(3.5));
        let doc = rap_obs::json::parse(&report.to_json().to_compact()).unwrap();
        assert_eq!(doc.get("gate_ratio").and_then(Json::as_f64), Some(3.5));
        assert!(doc.get("host_cores").is_some() && doc.get("cases").is_some());
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5ns");
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(20)).ends_with('s'));
    }
}
