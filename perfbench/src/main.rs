//! `perfbench`: runs one TriniT workload end to end, checks its answers,
//! and prints its metrics.
//!
//! ```text
//! perfbench --workload <explore|scale_packed|sharded|ingest|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` the workload runs with benchmark spans around every call
//! into a layer and reports the per-layer metrics. Lines starting with
//! `#` are for people: host facts, each metric with its unit, the sample
//! counts behind percentiles and medians, and any failed check. The
//! last line is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check
//! passed. Each run also writes its report, and with `--trace 1` its
//! spans, to `out/` beside this package's manifest.

mod calib;
mod check;
mod inputs;
mod run;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use run::{Options, Workload};

const USAGE: &str = "usage: perfbench --workload <explore|scale_packed|sharded|ingest|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: run::DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                named = true;
                if value != "all" {
                    out.workload =
                        Some(Workload::from_name(value).ok_or_else(|| bad("a workload"))?);
                }
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// One metric as the result line carries it: name, value, unit.
type Reading = (String, f64, String);

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reading]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn host_facts(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: None,
    };
    let host = host_facts(workload.name(), args.seed, args.seconds, args.trace);
    println!("# host {host}");
    let (report, tracer) = match run::run(&opts) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not a finite number", bad.name);
        return ExitCode::FAILURE;
    }
    for m in metrics {
        println!("# metric {} {} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        for m in &report.raw_timings {
            println!("# uncalibrated {} {} {}", m.name, m.value, m.unit);
        }
    }
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let samples = format!("{{{}}}", samples.join(", "));
    println!("# samples {samples}");
    println!("# digest {}", report.digest);
    let [median, least, greatest] = report.calibration;
    println!("# calibration factor median {median} range {least}..{greatest}");
    for failure in &report.failures {
        println!("# failed {failure}");
    }
    let correct = report.failed == 0;
    let readings: Vec<Reading> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect();
    let line = result_line(correct, report.attempted, report.failed, &readings);

    let mut record = format!(
        "{{\"host\": {host},\n\"samples\": {samples},\n\"digest\": \"{}\",\n\"result\": {line}",
        report.digest
    );
    if args.trace {
        let _ = write!(record, ",\n\"spans\": {}", tracer.to_json());
    }
    record.push_str("}\n");
    let trace_flag = u8::from(args.trace);
    let path = out_dir().join(format!(
        "{}-seed{}-trace{trace_flag}.json",
        workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("perfbench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process so that its peak memory
/// is its own, and ends with one line over all of them: metric names
/// are prefixed with their workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut readings: Vec<Reading> = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match child {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: running {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in &lines {
            println!("# {}: {}", w.name(), line.trim_start_matches("# "));
            let Some(reading) = line.strip_prefix("# metric ") else {
                continue;
            };
            let words: Vec<&str> = reading.split_whitespace().collect();
            if let [name, value, unit] = words[..] {
                if let Ok(value) = value.parse::<f64>() {
                    readings.push((format!("{}.{name}", w.name()), value, unit.to_string()));
                }
            }
        }
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        correct &= out.status.success() && last.contains("\"correct\": true");
    }
    println!("{}", result_line(correct, attempted, failed, &readings));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
