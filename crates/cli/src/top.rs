//! The admin plane's consumers — `rap top`, `rap stats --watch` and
//! the telemetry smoke — and the `--trace` writer of `rap verify` and
//! `rap verify-fleet`, which renders a verify run in the same
//! `EXEMPLARS` shape the admin plane serves.

use std::time::Duration;

use rap_obs::{Json, RoundCollector, RoundExemplar, StageSpan};
use rap_serve::{AdminClient, StatsFormat};

use crate::CliError;

/// Options for [`cmd_top`].
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Admin telemetry address (the `admin on ADDR` line `rap serve
    /// --admin` prints).
    pub addr: String,
    /// Poll interval between frames.
    pub interval: std::time::Duration,
    /// Number of frames to render; `0` runs until the process dies.
    pub iters: u64,
    /// Device-table rows shown (top-K slowest devices by p99).
    pub top_k: usize,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions {
            addr: String::new(),
            interval: std::time::Duration::from_secs(1),
            iters: 0,
            top_k: 8,
        }
    }
}

/// One scrape of the admin endpoint: the telemetry JSON document plus
/// the slow-round exemplar document, both parsed.
#[derive(Debug, Clone)]
pub struct TopSample {
    /// The `STATS` (JSON format) reply: uptime, server counters,
    /// metrics snapshot, per-device table.
    pub stats: Json,
    /// The `EXEMPLARS` reply: the slow-round ring.
    pub exemplars: Json,
}

/// Fetches one [`TopSample`] from a server's admin endpoint.
///
/// # Errors
///
/// Transport failures and malformed replies, formatted.
pub fn scrape_admin(addr: &str) -> Result<TopSample, CliError> {
    let mut conn = AdminClient::new(addr).connect()?;
    let stats = rap_obs::json::parse(&conn.stats(StatsFormat::Json)?)?;
    let exemplars = rap_obs::json::parse(&conn.exemplars()?)?;
    Ok(TopSample { stats, exemplars })
}

/// Human-scale duration formatting for nanosecond values.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders one `rap top` dashboard frame: interval-diffed counter
/// rates (when a previous sample and its age in seconds are given),
/// windowed round-latency quantiles, the connection-queue depth, the top-K
/// slowest devices by p99, and the most recent slow-round exemplars
/// with their stage span chains. Pure — all state comes in through the
/// samples, so tests can drive it directly.
///
/// # Errors
///
/// Samples missing the expected document shape, formatted.
pub fn render_top_frame(
    prev: Option<(&TopSample, f64)>,
    cur: &TopSample,
    top_k: usize,
) -> Result<String, CliError> {
    use std::fmt::Write as _;

    let uint = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let metrics_of = |sample: &TopSample| -> Result<rap_obs::Snapshot, CliError> {
        let json = sample
            .stats
            .get("metrics")
            .ok_or_else(|| CliError("telemetry JSON has no `metrics` field".into()))?;
        Ok(rap_obs::Snapshot::from_json(json)?)
    };
    let snap = metrics_of(cur)?;
    let server = cur
        .stats
        .get("server")
        .ok_or_else(|| CliError("telemetry JSON has no `server` field".into()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "rap top — uptime {:.1}s",
        uint(&cur.stats, "uptime_ns") as f64 / 1e9
    );

    // Counter totals, with interval rates once two samples exist.
    let rated = |name: &str| -> String {
        let now = uint(server, name);
        match prev {
            Some((p, dt)) if dt > 0.0 => {
                let before = p.stats.get("server").map_or(0, |s| uint(s, name));
                format!("{now} ({:.1}/s)", now.saturating_sub(before) as f64 / dt)
            }
            _ => now.to_string(),
        }
    };
    let _ = writeln!(
        out,
        "rounds   {} ok, {} rejected",
        rated("verdicts_accepted"),
        rated("verdicts_rejected"),
    );
    let _ = writeln!(
        out,
        "conns    {} accepted, {} resumed, {} shed, {} error(s) sent",
        rated("accepted"),
        rated("resumed"),
        rated("shed"),
        rated("errors_sent"),
    );

    // Round latency over the window between the two samples (falls
    // back to the lifetime histogram on the first frame).
    let window = match prev {
        Some((p, _)) => snap.diff(&metrics_of(p)?),
        None => snap.clone(),
    };
    if let Some(h) = window.histogram("serve_round_latency_ns") {
        if h.count > 0 {
            let _ = writeln!(
                out,
                "latency  p50 {}, p99 {}, mean {} over {} round(s)",
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(h.mean() as u64),
                h.count
            );
        }
    }
    let _ = writeln!(
        out,
        "queue    {} waiting for a worker",
        snap.gauge("serve_accept_queue_depth"),
    );

    // Top-K slowest devices by bucket-estimated p99.
    if let Some(devices) = cur.stats.get("devices").and_then(Json::entries) {
        let mut rows: Vec<(&str, u64, u64, u64, u64)> = devices
            .iter()
            .map(|(name, d)| {
                (
                    name.as_str(),
                    uint(d, "rounds"),
                    uint(d, "rejects"),
                    uint(d, "resumes"),
                    uint(d, "p99_ns"),
                )
            })
            .collect();
        rows.sort_by(|a, b| b.4.cmp(&a.4).then(a.0.cmp(b.0)));
        if !rows.is_empty() {
            let _ = writeln!(
                out,
                "devices  ({} total, top {} by p99)",
                rows.len(),
                top_k.min(rows.len())
            );
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>8} {:>8} {:>10}",
                "device", "rounds", "rejects", "resumes", "p99"
            );
            for (name, rounds, rejects, resumes, p99) in rows.into_iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "  {name:<24} {rounds:>8} {rejects:>8} {resumes:>8} {:>10}",
                    fmt_ns(p99)
                );
            }
        }
    }

    // The most recent slow-round exemplars, newest first, with the
    // accept→verdict span chain.
    let retained = uint(&cur.exemplars, "retained");
    let _ = writeln!(
        out,
        "slow     {} retained of {} round(s) seen (threshold {}, {} evicted)",
        retained,
        uint(&cur.exemplars, "rounds_seen"),
        fmt_ns(uint(&cur.exemplars, "threshold_ns")),
        uint(&cur.exemplars, "evicted"),
    );
    if let Some(exemplars) = cur.exemplars.get("exemplars").and_then(Json::as_array) {
        for ex in exemplars.iter().rev().take(3) {
            let spans = ex
                .get("spans")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|s| {
                    format!(
                        "{} {}",
                        s.get("stage").and_then(Json::as_str).unwrap_or("?"),
                        fmt_ns(uint(s, "dur_ns"))
                    )
                })
                .collect::<Vec<_>>()
                .join(" > ");
            let _ = writeln!(
                out,
                "  #{} {} {} [{}]: {spans}",
                uint(ex, "trace_id"),
                ex.get("device").and_then(Json::as_str).unwrap_or("?"),
                fmt_ns(uint(ex, "total_ns")),
                if ex.get("accepted") == Some(&Json::Bool(true)) {
                    "ok"
                } else {
                    "rejected"
                },
            );
        }
    }
    Ok(out)
}

/// `rap top`: polls a server's admin endpoint and renders a dashboard
/// frame per interval into `sink` (the binary clears the terminal
/// between frames; tests collect the strings).
///
/// # Errors
///
/// Scrape or render failures, formatted.
pub fn cmd_top(options: &TopOptions, mut sink: impl FnMut(&str)) -> Result<(), CliError> {
    let mut prev: Option<(TopSample, std::time::Instant)> = None;
    let mut frames = 0u64;
    loop {
        let cur = scrape_admin(&options.addr)?;
        let now = std::time::Instant::now();
        let age = prev
            .as_ref()
            .map(|(s, at)| (s, now.saturating_duration_since(*at).as_secs_f64()));
        let frame = render_top_frame(age, &cur, options.top_k)?;
        sink(&frame);
        prev = Some((cur, now));
        frames += 1;
        if options.iters != 0 && frames >= options.iters {
            return Ok(());
        }
        std::thread::sleep(options.interval);
    }
}

/// Prometheus text → `name -> value` for every metric the exposition
/// declares as `# TYPE ... counter` (histograms and gauges are
/// skipped: only counters are monotonic, which is what the smoke
/// check's sandwich relies on).
fn parse_prometheus_counters(text: &str) -> std::collections::BTreeMap<String, u64> {
    let mut declared = std::collections::BTreeSet::new();
    let mut out = std::collections::BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, "counter")) = rest.rsplit_once(' ') {
                declared.insert(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') || line.contains('{') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if declared.contains(name) {
                if let Ok(v) = value.parse::<u64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
    }
    out
}

/// `rap top ADDR --smoke OUT`: scrapes the admin endpoint four times —
/// Prometheus, JSON, Prometheus again, exemplars — and checks that the
/// two renderings agree: every counter present in both expositions
/// must satisfy `prom_before <= json <= prom_after` (the JSON scrape
/// happened between the two Prometheus ones, and counters are
/// monotonic). Returns `(ok, human summary, JSON artifact)`; CI stores
/// the artifact as `TELEMETRY_smoke.json`.
///
/// # Errors
///
/// Transport failures and malformed replies, formatted. A *failed
/// check* is not an error — it is reported with `ok == false`.
pub fn cmd_telemetry_smoke(addr: &str) -> Result<(bool, String, String), CliError> {
    use std::fmt::Write as _;

    let mut conn = AdminClient::new(addr).connect()?;
    let prom_before = conn.stats(StatsFormat::Prometheus)?;
    let json_body = conn.stats(StatsFormat::Json)?;
    let prom_after = conn.stats(StatsFormat::Prometheus)?;
    let exemplars = rap_obs::json::parse(&conn.exemplars()?)?;

    let doc = rap_obs::json::parse(&json_body)?;
    let snap = rap_obs::Snapshot::from_json(
        doc.get("metrics")
            .ok_or_else(|| CliError("telemetry JSON has no `metrics` field".into()))?,
    )?;
    let before = parse_prometheus_counters(&prom_before);
    let after = parse_prometheus_counters(&prom_after);

    let mut checked = 0u64;
    let mut mismatches = Vec::new();
    for (name, mid) in &snap.counters {
        let (Some(&lo), Some(&hi)) = (before.get(name), after.get(name)) else {
            continue;
        };
        checked += 1;
        if !(lo <= *mid && *mid <= hi) {
            mismatches.push(format!("{name}: prom {lo} / json {mid} / prom {hi}"));
        }
    }
    let uint = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let devices = doc
        .get("devices")
        .and_then(Json::entries)
        .map_or(0, <[_]>::len) as u64;
    let ok = checked > 0 && mismatches.is_empty();

    let artifact = Json::obj([
        ("ok", Json::Bool(ok)),
        ("scrapes", Json::Uint(4)),
        ("counters_checked", Json::Uint(checked)),
        (
            "mismatches",
            Json::Arr(mismatches.iter().cloned().map(Json::Str).collect()),
        ),
        ("rounds_seen", Json::Uint(uint(&exemplars, "rounds_seen"))),
        (
            "exemplars_retained",
            Json::Uint(uint(&exemplars, "retained")),
        ),
        ("devices", Json::Uint(devices)),
    ])
    .to_pretty();

    let mut summary = format!(
        "telemetry smoke: {} counter(s) sandwich-checked across Prometheus/JSON, {} mismatch(es)\n",
        checked,
        mismatches.len()
    );
    for m in &mismatches {
        let _ = writeln!(summary, "  MISMATCH {m}");
    }
    let _ = writeln!(
        summary,
        "{} device(s), {} round(s) seen, {} exemplar(s) retained",
        devices,
        uint(&exemplars, "rounds_seen"),
        uint(&exemplars, "retained")
    );
    let _ = writeln!(summary, "verdict: {}", if ok { "OK" } else { "FAIL" });
    Ok((ok, summary, artifact))
}

/// `rap stats --watch ADDR`: one live frame — the server's metrics
/// snapshot rendered as the usual `rap stats` table, followed by the
/// per-device aggregate table (the binary loops on the interval).
///
/// # Errors
///
/// Transport failures and malformed replies, formatted.
pub fn cmd_stats_watch(addr: &str) -> Result<String, CliError> {
    use std::fmt::Write as _;

    let mut conn = AdminClient::new(addr).connect()?;
    let doc = rap_obs::json::parse(&conn.stats(StatsFormat::Json)?)?;
    let snap = rap_obs::Snapshot::from_json(
        doc.get("metrics")
            .ok_or_else(|| CliError("telemetry JSON has no `metrics` field".into()))?,
    )?;
    let mut out = snap.render();
    if let Some(devices) = doc.get("devices").and_then(Json::entries) {
        if !devices.is_empty() {
            let _ = writeln!(out, "devices:");
            for (name, d) in devices {
                let uint = |key: &str| d.get(key).and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {name}: {} round(s), {} reject(s), {} resume(s), p99 {}",
                    uint("rounds"),
                    uint("rejects"),
                    uint("resumes"),
                    fmt_ns(uint("p99_ns"))
                );
            }
        }
    }
    Ok(out)
}

/// The `--trace OUT` document of a verify run, in the admin plane's
/// `EXEMPLARS` shape: a collector with threshold 0 and room for every
/// job, holding one [`RoundExemplar`] per job whose single `verify`
/// span starts at the job's offset from the start of the run. Each job
/// is `(device, accepted, start offset, wall time)`.
pub(crate) fn verify_trace<'a>(
    jobs: impl ExactSizeIterator<Item = (&'a str, bool, Duration, Duration)>,
) -> RoundCollector {
    let trace = RoundCollector::new(0, jobs.len());
    for (device, accepted, start, wall) in jobs {
        let trace_id = trace.mint();
        let dur_ns = wall.as_nanos() as u64;
        trace.record(dur_ns, || RoundExemplar {
            trace_id,
            device: device.to_owned(),
            total_ns: dur_ns,
            accepted,
            accept_depth: 0,
            spans: vec![StageSpan {
                trace_id,
                stage: "verify",
                start_ns: start.as_nanos() as u64,
                dur_ns,
            }],
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_counter_parse_skips_gauges_and_histograms() {
        let text = "\
# TYPE requests counter
requests 41
# TYPE depth gauge
depth 7
# TYPE lat histogram
lat_bucket{le=\"10\"} 3
lat_sum 12
lat_count 3
";
        let counters = parse_prometheus_counters(text);
        assert_eq!(counters.get("requests"), Some(&41));
        assert!(!counters.contains_key("depth"), "gauges are not monotonic");
        assert!(
            !counters.contains_key("lat_sum"),
            "histogram series skipped"
        );
        assert!(!counters.contains_key("lat_count"));
    }
}
