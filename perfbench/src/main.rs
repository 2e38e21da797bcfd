//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <study_batch|serve_zipf|fleet_unique> --seed N --seconds S --trace 0|1
//! perfbench refs --workload <name>     # regenerate refs/<name>.txt from the control arm
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod layers;
mod refs;
mod serve;
mod spans;
mod study;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::serve::Kind;
use crate::spans::BenchSpan;
use crate::util::{result_line, Metrics, Outcome};

const WORKLOADS: [&str; 3] = ["study_batch", "serve_zipf", "fleet_unique"];

struct Args {
    refs: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        refs: false,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "refs" {
            args.refs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds out of range: {}", args.seconds));
    }
    Ok(args)
}

/// Writes the traced run's spans and per-layer metrics under
/// `.bench_out/` in the working directory.
pub(crate) fn dump_trace(
    workload: &str,
    seed: u64,
    spans: &[BenchSpan],
    metrics: &Metrics,
) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create .bench_out: {e}"))?;
    let mut text = String::new();
    for m in &metrics.0 {
        let _ = writeln!(
            text,
            "{{\"metric\":\"{}\",\"value\":{:?},\"unit\":\"{}\",\"base\":{:?}}}",
            m.name, m.value, m.unit, m.base
        );
    }
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"span\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.name, s.start_ns, s.dur_ns
        );
    }
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "study_batch" => study::run(args.seed, args.seconds, args.trace),
        "serve_zipf" => serve::run(Kind::Zipf, args.seed, args.seconds, args.trace),
        _ => serve::run(Kind::Fleet, args.seed, args.seconds, args.trace),
    }
}

fn make_refs(workload: &str) -> Result<(), String> {
    let refs = match workload {
        "study_batch" => study::make_refs(),
        "serve_zipf" => serve::make_refs(Kind::Zipf),
        _ => serve::make_refs(Kind::Fleet),
    };
    refs::save(workload, &refs).map_err(|e| format!("cannot write references: {e}"))?;
    println!("{workload}: {} references", refs.len());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.refs {
        return match make_refs(&args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0 && outcome.unreferenced == 0;
    println!(
        "{}: fail_ratio {} = {} failed / {} attempted ({} without a reference)",
        args.workload,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted,
        outcome.unreferenced
    );
    if !args.trace {
        for m in &outcome.metrics.0 {
            println!("  {:<12} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", result_line(&outcome, correct));
    ExitCode::SUCCESS
}
