//! `roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Exits 2 on bad arguments and 1 when the run cannot be set up.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use roundbench::{Metric, Options, Workload};

const USAGE: &str =
    "usage: roundbench --workload <fleet_small|loop_plain|loop_dict|reconnect> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: PathBuf::from(".bench_work").join("roundbench"),
        shorten: 1,
    })
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    Ok(out)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("roundbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match roundbench::run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("roundbench: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "roundbench {} seed {} ({} s, trace {})",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for cause in &outcome.causes {
        println!("  FAILED: {cause}");
    }
    let print = |m: &Metric| {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!("  {:<36} {:>14.3} {}{samples}", m.name, m.value, m.unit);
    };
    outcome.end_to_end.iter().for_each(print);
    outcome.report_only.iter().for_each(print);
    outcome.per_layer.iter().for_each(print);

    let metrics = if options.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    match json_metrics(metrics) {
        Ok(metrics) => {
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
                outcome.correct, outcome.attempted, outcome.failed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("roundbench: {e}");
            ExitCode::from(1)
        }
    }
}
