//! CI perf gate: compare a freshly generated `BENCH_summary.json`
//! against the checked-in baseline.
//!
//! Usage: `perf_gate --baseline ci/perf-baseline.json --current /tmp/bench/BENCH_summary.json
//!         [--wall-factor 20] [--wall-slack-ms 250]`
//!
//! Exits 0 when every simulated metric is bit-identical to the baseline
//! and wall times stay under their bounds; exits 1 and prints every
//! violation otherwise. Every argument is checked before any file is
//! read: an unknown, repeated or value-less flag, a malformed number, or
//! a missing `--baseline`/`--current` prints the usage line and exits
//! with status 2.
//!
//! It also prints the current run's host rusage (user and system time,
//! minor faults, the process's max RSS) per experiment with suite totals
//! and the suite's peak RSS. That table is a report only: no bound reads
//! it, and host-parallel runs do not record it.

use std::process::ExitCode;
use svagc_bench::gate::{parse_gate_args, run_gate, rusage_report, GateArgs, USAGE};
use svagc_metrics::parse_json;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let GateArgs { baseline, current, cfg } = match parse_gate_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_gate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
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
