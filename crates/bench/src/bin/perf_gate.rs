//! CI perf gate: compare a freshly generated `BENCH_summary.json`
//! against the checked-in baseline.
//!
//! Usage: `perf_gate --baseline ci/perf-baseline.json --current /tmp/bench/BENCH_summary.json
//!         [--wall-factor 20] [--wall-slack-ms 250]`
//!
//! Exits 0 when every simulated metric is bit-identical to the baseline
//! and wall times stay under their bounds; exits 1 and prints every
//! violation otherwise.
//!
//! It also prints the current run's host rusage (user and system time,
//! minor faults, the process's max RSS) per experiment with suite totals
//! and the suite's peak RSS. That table is a report only: no bound reads
//! it, and host-parallel runs do not record it.

use std::path::PathBuf;
use std::process::ExitCode;
use svagc_bench::gate::{run_gate, rusage_report, GateConfig};
use svagc_metrics::parse_json;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(baseline) = arg_value(&args, "--baseline").map(PathBuf::from) else {
        eprintln!("perf_gate: --baseline <file> is required");
        return ExitCode::FAILURE;
    };
    let Some(current) = arg_value(&args, "--current").map(PathBuf::from) else {
        eprintln!("perf_gate: --current <file> is required");
        return ExitCode::FAILURE;
    };
    let mut cfg = GateConfig::default();
    if let Some(f) = arg_value(&args, "--wall-factor").and_then(|v| v.parse().ok()) {
        cfg.wall_factor = f;
    }
    if let Some(s) = arg_value(&args, "--wall-slack-ms").and_then(|v| v.parse().ok()) {
        cfg.wall_slack_ms = s;
    }
    let summary = std::fs::read_to_string(&current).ok().and_then(|t| parse_json(&t).ok());
    match summary.as_ref().and_then(rusage_report) {
        Some(table) => println!("host rusage (report only, no bound):\n{table}"),
        None => println!("host rusage: not recorded (a host-parallel run omits it)"),
    }
    match run_gate(&baseline, &current, &cfg) {
        Ok(()) => {
            println!(
                "perf gate PASSED: {} matches {}",
                current.display(),
                baseline.display()
            );
            ExitCode::SUCCESS
        }
        Err(errs) => {
            eprintln!("perf gate FAILED with {} violation(s):", errs.len());
            for e in &errs {
                eprintln!("  - {e}");
            }
            ExitCode::FAILURE
        }
    }
}
