//! `rap` — the RAP-Track command-line toolchain (argv adapter over
//! [`rap_cli`]).

use std::fs;
use std::process::ExitCode;

use rap_cli::{CliError, LinkCmdOptions};

const USAGE: &str = "\
rap — RAP-Track toolchain (DAC 2025 reproduction)

USAGE:
  rap asm     <in.tasm> -o <out.img> [--base ADDR]
  rap link    <in.tasm> -o <out.img> -m <out.map> [--base ADDR]
              [--no-loop-opt] [--pad N]
  rap disasm  <img> [--base ADDR]
  rap decompile <img> [--base ADDR]   # emit re-assemblable .tasm
  rap attest  <img> <map> --chal N -o <out.rpt>
              [--base ADDR] [--key SEED] [--watermark N] [--dict DICT]
  rap verify  <img> <map> <rpt> --chal N [--base ADDR] [--key SEED]
              [--dict DICT] [--metrics OUT.json] [--trace OUT.json]
  rap verify-fleet <img> <map> <rpt>... --chal N [--base ADDR]
              [--key SEED] [--threads T] [--dict DICT]
              [--metrics OUT.json] [--trace OUT.json]
  rap profile <img> <map> -o <out.dict> [--base ADDR] [--label NAME]
              [--top-k K] [--min-support N] [--max-len L]
              [--watermark N] [--max-instrs N]   # mine a sub-path dict
  rap fuzz    [--seed N] [--iters K] [--json OUT.json] [--sabotage]
              [--replay CASE_SEED]    # differential fuzzing campaign
  rap serve   <img> <map> [--addr HOST:PORT] [--threads T] [--key SEED]
              [--limit N] [--secret S] [--window W] [--admin HOST:PORT]
              [--slow-ms N] [--dict DICT] [--metrics OUT.json]
              [--audit-log LOG] [--base ADDR]
              # T workers (default 4), each serving one connection at a time;
              # no --trace: per-round spans are the admin plane's (rap top)
  rap audit   verify <log> [--key SEED]   # replay the hash chain
  rap audit   show <log> [--key SEED]     # render every sealed verdict
  rap audit   tail <log> [--key SEED] [--last N]
  rap attest-remote <img> <map> --addr HOST:PORT [--device NAME]
              [--key SEED] [--rounds N] [--retries R] [--watermark N]
              [--window W] [--resume] [--dict DICT] [--base ADDR]
  rap top     <admin-addr> [--interval MS] [--iters N] [--k K]
              [--no-clear] [--smoke OUT.json]   # live dashboard
  rap fleet   run [--devices N] [--compromised K] [--flaky K]
              [--slots S] [--seed N] [--json OUT.json]
              # deterministic simulated fleet: compromise -> quarantine
  rap fleet   status <registry.json | admin-addr> [--json]
  rap fleet   quarantine <registry.json> <device>
  rap fleet   heal <registry.json> <device>
  rap stats   <metrics.json>          # render a --metrics artifact
  rap stats   --watch <admin-addr> [--interval MS] [--iters N]
  rap inspect <map>
  rap explain <in.tasm> [--no-loop-opt]
  rap demo    # print a sample .tasm program
";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let takes_value = matches!(
                    name,
                    "base"
                        | "pad"
                        | "chal"
                        | "key"
                        | "watermark"
                        | "threads"
                        | "metrics"
                        | "trace"
                        | "seed"
                        | "iters"
                        | "replay"
                        | "json"
                        | "addr"
                        | "device"
                        | "limit"
                        | "rounds"
                        | "retries"
                        | "secret"
                        | "window"
                        | "admin"
                        | "slow-ms"
                        | "interval"
                        | "k"
                        | "smoke"
                        | "watch"
                        | "dict"
                        | "label"
                        | "top-k"
                        | "min-support"
                        | "max-len"
                        | "max-instrs"
                        | "devices"
                        | "compromised"
                        | "flaky"
                        | "slots"
                        | "audit-log"
                        | "last"
                ) || name == "o"
                    || name == "m";
                let value = if takes_value {
                    it.next().cloned()
                } else {
                    None
                };
                flags.push((name.to_owned(), value));
            } else if a == "-o" || a == "-m" {
                flags.push((a[1..].to_owned(), it.next().cloned()));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => {
                let parsed = if let Some(h) = v.strip_prefix("0x") {
                    u64::from_str_radix(h, 16)
                } else {
                    v.parse()
                };
                parsed.map_err(|_| CliError(format!("bad --{name} value `{v}`")))
            }
        }
    }
}

/// The `--metrics` / `--trace` outputs of a command: the registry
/// baseline is captured before the run, and both files are written
/// after it — including on rejection, which is exactly when an
/// operator wants the numbers. Only the verify commands have a trace.
struct ObsOutputs {
    metrics_path: Option<String>,
    trace_path: Option<String>,
    baseline: rap_obs::Snapshot,
}

impl ObsOutputs {
    fn begin(args: &Args) -> ObsOutputs {
        ObsOutputs {
            metrics_path: args.flag("metrics").map(str::to_owned),
            trace_path: args.flag("trace").map(str::to_owned),
            baseline: rap_obs::global().snapshot(),
        }
    }

    fn finish(
        self,
        stats: &rap_track::VerifierStats,
        trace: Option<&rap_obs::RoundCollector>,
    ) -> Result<(), CliError> {
        if let Some(path) = &self.metrics_path {
            fs::write(path, rap_cli::metrics_json(&self.baseline, stats))?;
            eprintln!("metrics -> {path}");
        }
        if let (Some(path), Some(trace)) = (&self.trace_path, trace) {
            fs::write(path, trace.to_json().to_pretty())?;
            eprintln!("trace   -> {path} ({} job span(s))", trace.rounds_seen());
        }
        Ok(())
    }
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return Err(CliError(USAGE.to_owned()));
    };
    let args = Args::parse(&argv[1..]);
    let base = args.num("base", 0)? as u32;
    let need = |n: usize| -> Result<(), CliError> {
        if args.positional.len() < n {
            Err(CliError(format!("missing arguments\n\n{USAGE}")))
        } else {
            Ok(())
        }
    };

    match cmd.as_str() {
        "asm" => {
            need(1)?;
            let source = fs::read_to_string(&args.positional[0])?;
            let (bytes, summary) = rap_cli::cmd_asm(&source, base)?;
            let out = args
                .flag("o")
                .ok_or_else(|| CliError("missing -o <out.img>".into()))?;
            fs::write(out, bytes)?;
            println!("{summary} -> {out}");
        }
        "link" => {
            need(1)?;
            let source = fs::read_to_string(&args.positional[0])?;
            let options = LinkCmdOptions {
                base,
                no_loop_opt: args.has("no-loop-opt"),
                padding: args.num("pad", 1)? as u32,
            };
            let (bytes, map_text, summary) = rap_cli::cmd_link(&source, options)?;
            let out = args
                .flag("o")
                .ok_or_else(|| CliError("missing -o <out.img>".into()))?;
            let map_out = args
                .flag("m")
                .ok_or_else(|| CliError("missing -m <out.map>".into()))?;
            fs::write(out, bytes)?;
            fs::write(map_out, map_text)?;
            println!("{summary} -> {out}, {map_out}");
        }
        "disasm" => {
            need(1)?;
            let bytes = fs::read(&args.positional[0])?;
            print!("{}", rap_cli::cmd_disasm(&bytes, base)?);
        }
        "decompile" => {
            need(1)?;
            let bytes = fs::read(&args.positional[0])?;
            print!("{}", rap_cli::cmd_decompile(&bytes, base)?);
        }
        "attest" => {
            need(2)?;
            let img = fs::read(&args.positional[0])?;
            let map = fs::read_to_string(&args.positional[1])?;
            let chal = args.num("chal", 0)?;
            let key = args.flag("key").unwrap_or(rap_cli::DEFAULT_KEY_SEED);
            let watermark = args
                .flag("watermark")
                .map(|w| {
                    w.parse::<usize>()
                        .map_err(|_| CliError(format!("bad --watermark `{w}`")))
                })
                .transpose()?;
            let dict = args.flag("dict").map(fs::read_to_string).transpose()?;
            let (stream, summary) =
                rap_cli::cmd_attest(&img, &map, base, chal, key, watermark, dict.as_deref())?;
            let out = args
                .flag("o")
                .ok_or_else(|| CliError("missing -o <out.rpt>".into()))?;
            fs::write(out, stream)?;
            println!("{summary} -> {out}");
        }
        "profile" => {
            need(2)?;
            let img = fs::read(&args.positional[0])?;
            let map = fs::read_to_string(&args.positional[1])?;
            let defaults = rap_cli::ProfileCmdOptions::default();
            let options = rap_cli::ProfileCmdOptions {
                base,
                label: args
                    .flag("label")
                    .unwrap_or(defaults.label.as_str())
                    .to_owned(),
                top_k: args.num("top-k", defaults.top_k as u64)? as usize,
                min_support: args.num("min-support", u64::from(defaults.min_support))? as u32,
                max_len: args.num("max-len", defaults.max_len as u64)? as usize,
                watermark: args
                    .flag("watermark")
                    .map(|w| {
                        w.parse::<usize>()
                            .map_err(|_| CliError(format!("bad --watermark `{w}`")))
                    })
                    .transpose()?,
                max_instrs: if args.has("max-instrs") {
                    Some(args.num("max-instrs", 0)?)
                } else {
                    None
                },
            };
            let (artifact, summary) = rap_cli::cmd_profile(&img, &map, &options)?;
            let out = args
                .flag("o")
                .ok_or_else(|| CliError("missing -o <out.dict>".into()))?;
            fs::write(out, artifact)?;
            println!("{summary} -> {out}");
        }
        "verify" => {
            need(3)?;
            let img = fs::read(&args.positional[0])?;
            let map = fs::read_to_string(&args.positional[1])?;
            let rpt = fs::read(&args.positional[2])?;
            let chal = args.num("chal", 0)?;
            let key = args.flag("key").unwrap_or(rap_cli::DEFAULT_KEY_SEED);
            let dict = args.flag("dict").map(fs::read_to_string).transpose()?;
            let obs = ObsOutputs::begin(&args);
            let (ok, verdict, stats, trace) =
                rap_cli::cmd_verify(&img, &map, &rpt, base, chal, key, dict.as_deref())?;
            obs.finish(&stats, Some(&trace))?;
            println!("{verdict}");
            if !ok {
                std::process::exit(1);
            }
        }
        "verify-fleet" => {
            need(3)?;
            let img = fs::read(&args.positional[0])?;
            let map = fs::read_to_string(&args.positional[1])?;
            let mut streams = Vec::new();
            for path in &args.positional[2..] {
                streams.push((path.clone(), fs::read(path)?));
            }
            let chal = args.num("chal", 0)?;
            let key = args.flag("key").unwrap_or(rap_cli::DEFAULT_KEY_SEED);
            // Absent flag means "use every core"; an explicit value is
            // passed through verbatim so `--threads 0` is *rejected*
            // downstream instead of silently clamped.
            let threads = if args.has("threads") {
                args.num("threads", 0)? as usize
            } else {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            };
            let dict = args.flag("dict").map(fs::read_to_string).transpose()?;
            let obs = ObsOutputs::begin(&args);
            let (ok, verdict, stats, trace) = rap_cli::cmd_verify_fleet(
                &img,
                &map,
                &streams,
                base,
                chal,
                key,
                threads,
                dict.as_deref(),
            )?;
            obs.finish(&stats, Some(&trace))?;
            print!("{verdict}");
            if !ok {
                std::process::exit(1);
            }
        }
        "fuzz" => {
            let defaults = rap_cli::FuzzCmdOptions::default();
            let options = rap_cli::FuzzCmdOptions {
                seed: args.num("seed", defaults.seed)?,
                iters: args.num("iters", defaults.iters)?,
                sabotage: args.has("sabotage"),
                replay: if args.has("replay") {
                    Some(args.num("replay", 0)?)
                } else {
                    None
                },
            };
            let (ok, summary, json) = rap_cli::cmd_fuzz(&options);
            if let Some(path) = args.flag("json") {
                fs::write(path, json)?;
                // stderr, so stdout stays byte-identical across runs.
                eprintln!("summary -> {path}");
            }
            print!("{summary}");
            if !ok {
                std::process::exit(1);
            }
        }
        "serve" => {
            need(2)?;
            if args.has("trace") {
                return Err(CliError(
                    "rap serve has no --trace: its per-round spans are the admin plane's \
                     (--admin ADDR, then `rap top ADDR`)"
                        .into(),
                ));
            }
            let img = fs::read(&args.positional[0])?;
            let map = fs::read_to_string(&args.positional[1])?;
            let defaults = rap_cli::ServeCmdOptions::default();
            let options = rap_cli::ServeCmdOptions {
                base,
                key_seed: args.flag("key").unwrap_or(&defaults.key_seed).to_owned(),
                addr: args.flag("addr").unwrap_or(&defaults.addr).to_owned(),
                threads: args.num("threads", defaults.threads as u64)?.max(1) as usize,
                limit: if args.has("limit") {
                    Some(args.num("limit", 0)?)
                } else {
                    None
                },
                secret: args.flag("secret").map(str::to_owned),
                window: args
                    .num("window", u64::from(defaults.window))?
                    .min(u16::MAX as u64) as u16,
                admin: args.flag("admin").map(str::to_owned),
                slow_ms: if args.has("slow-ms") {
                    Some(args.num("slow-ms", 0)?)
                } else {
                    None
                },
                dict: args.flag("dict").map(fs::read_to_string).transpose()?,
                audit_log: args.flag("audit-log").map(str::to_owned),
            };
            let obs = ObsOutputs::begin(&args);
            let (server, verifier, generated_secret) = rap_cli::cmd_serve(&img, &map, &options)?;
            if let Some(hex) = generated_secret {
                // No --secret given: log the generated one so resumed
                // sessions survive an operator-driven restart.
                println!("session secret (generated): {hex}");
            }
            // Names the SHA-256 compressor behind every MAC, seal and
            // audit hash: timings from hosts with different compressors
            // do not compare.
            println!("sha-256 compressor: {}", rap_crypto::sha256_backend());
            // Scripts parse this line to learn the ephemeral port.
            println!("listening on {}", server.local_addr());
            if let Some(admin) = server.admin_addr() {
                // And this one for the telemetry plane (`rap top`).
                println!("admin on {admin}");
            }
            use std::io::Write as _;
            std::io::stdout().flush()?;
            // With --limit the accept loop drains on its own; without,
            // this joins until the process is killed.
            let stats = server.join();
            println!(
                "served {} connection(s): {} accepted, {} rejected, {} shed, {} error(s)",
                stats.accepted,
                stats.verdicts_accepted,
                stats.verdicts_rejected,
                stats.shed,
                stats.errors_sent
            );
            obs.finish(&verifier.stats(), None)?;
        }
        "attest-remote" => {
            need(2)?;
            let img = fs::read(&args.positional[0])?;
            let map = fs::read_to_string(&args.positional[1])?;
            let defaults = rap_cli::AttestRemoteCmdOptions::default();
            let options = rap_cli::AttestRemoteCmdOptions {
                base,
                key_seed: args.flag("key").unwrap_or(&defaults.key_seed).to_owned(),
                addr: args
                    .flag("addr")
                    .ok_or_else(|| CliError("missing --addr HOST:PORT".into()))?
                    .to_owned(),
                device: args.flag("device").unwrap_or(&defaults.device).to_owned(),
                rounds: args.num("rounds", u64::from(defaults.rounds))? as u32,
                retries: args.num("retries", u64::from(defaults.retries))? as u32,
                watermark: args
                    .flag("watermark")
                    .map(|w| {
                        w.parse::<usize>()
                            .map_err(|_| CliError(format!("bad --watermark `{w}`")))
                    })
                    .transpose()?,
                window: args
                    .num("window", u64::from(defaults.window))?
                    .min(u16::MAX as u64) as u16,
                resume: args.has("resume"),
                dict: args.flag("dict").map(fs::read_to_string).transpose()?,
            };
            let (ok, summary) = rap_cli::cmd_attest_remote(&img, &map, &options)?;
            print!("{summary}");
            if !ok {
                std::process::exit(1);
            }
        }
        "top" => {
            need(1)?;
            let addr = args.positional[0].clone();
            if let Some(out_path) = args.flag("smoke") {
                // One-shot CI mode: sandwich-check the Prometheus and
                // JSON renderings, write the artifact, fail loudly.
                let (ok, summary, artifact) = rap_cli::cmd_telemetry_smoke(&addr)?;
                fs::write(out_path, artifact)?;
                eprintln!("telemetry smoke -> {out_path}");
                print!("{summary}");
                if !ok {
                    std::process::exit(1);
                }
            } else {
                let options = rap_cli::TopOptions {
                    addr,
                    interval: std::time::Duration::from_millis(args.num("interval", 1000)?),
                    iters: args.num("iters", 0)?,
                    top_k: args.num("k", 8)?.max(1) as usize,
                };
                let clear = !args.has("no-clear");
                rap_cli::cmd_top(&options, |frame| {
                    use std::io::Write as _;
                    if clear {
                        // Clear screen + home, like top(1).
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{frame}");
                    let _ = std::io::stdout().flush();
                })?;
            }
        }
        "stats" => {
            if let Some(addr) = args.flag("watch") {
                let iters = args.num("iters", 0)?;
                let interval = std::time::Duration::from_millis(args.num("interval", 1000)?);
                let mut frames = 0u64;
                loop {
                    use std::io::Write as _;
                    print!("{}", rap_cli::cmd_stats_watch(addr)?);
                    let _ = std::io::stdout().flush();
                    frames += 1;
                    if iters != 0 && frames >= iters {
                        break;
                    }
                    std::thread::sleep(interval);
                }
            } else {
                need(1)?;
                let text = fs::read_to_string(&args.positional[0])?;
                print!("{}", rap_cli::cmd_stats(&text)?);
            }
        }
        "inspect" => {
            need(1)?;
            let map = fs::read_to_string(&args.positional[0])?;
            print!("{}", rap_cli::cmd_inspect(&map)?);
        }
        "explain" => {
            need(1)?;
            let source = fs::read_to_string(&args.positional[0])?;
            let options = LinkCmdOptions {
                base,
                no_loop_opt: args.has("no-loop-opt"),
                padding: args.num("pad", 1)? as u32,
            };
            print!("{}", rap_cli::cmd_explain(&source, options)?);
        }
        "fleet" => {
            need(1)?;
            match args.positional[0].as_str() {
                "run" => {
                    let defaults = rap_cli::FleetRunOptions::default();
                    let options = rap_cli::FleetRunOptions {
                        devices: args.num("devices", defaults.devices as u64)?.max(1) as usize,
                        compromised: args.num("compromised", defaults.compromised as u64)? as usize,
                        flaky: args.num("flaky", defaults.flaky as u64)? as usize,
                        slots: args.num("slots", defaults.slots)?.max(1),
                        seed: args.num("seed", defaults.seed)?,
                    };
                    let (ok, summary, registry_json) = rap_cli::cmd_fleet_run(&options)?;
                    if let Some(path) = args.flag("json") {
                        fs::write(path, registry_json)?;
                        // stderr, so stdout stays byte-identical
                        // across runs with the same seed.
                        eprintln!("registry -> {path}");
                    }
                    print!("{summary}");
                    if !ok {
                        std::process::exit(1);
                    }
                }
                "status" => {
                    need(2)?;
                    let source = &args.positional[1];
                    let json_out = args.has("json");
                    let rendered = match fs::read_to_string(source) {
                        Ok(text) => rap_cli::cmd_fleet_status(&text, json_out)?,
                        // Not a readable file: treat it as a live
                        // admin address and scrape the fleet section.
                        Err(_) => rap_cli::cmd_fleet_status_remote(source, json_out)?,
                    };
                    print!("{rendered}");
                    if json_out {
                        println!();
                    }
                }
                sub @ ("quarantine" | "heal") => {
                    need(3)?;
                    let path = &args.positional[1];
                    let device = &args.positional[2];
                    let text = fs::read_to_string(path)?;
                    let (line, updated) =
                        rap_cli::cmd_fleet_admin(&text, device, sub == "quarantine")?;
                    fs::write(path, updated)?;
                    println!("{line}");
                }
                other => {
                    return Err(CliError(format!(
                        "unknown fleet subcommand `{other}`\n\n{USAGE}"
                    )));
                }
            }
        }
        "audit" => {
            need(2)?;
            let sub = args.positional[0].as_str();
            let log_bytes = fs::read(&args.positional[1])?;
            let key_seed = args.flag("key");
            let tail = args.num("last", 10)? as usize;
            let (ok, out) = rap_cli::cmd_audit(sub, &log_bytes, key_seed, tail)?;
            print!("{out}");
            if !ok {
                std::process::exit(1);
            }
        }
        "demo" => {
            print!("{}", rap_cli::DEMO_PROGRAM);
        }
        other => {
            return Err(CliError(format!("unknown command `{other}`\n\n{USAGE}")));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rap: {e}");
            ExitCode::from(2)
        }
    }
}
