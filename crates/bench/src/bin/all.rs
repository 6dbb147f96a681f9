//! Regenerates the paper's figures, tables, and this reproduction's
//! ablations from the experiment registry, and optionally emits the
//! `BENCH_*.json` perf records.
//!
//! Usage: `all [--parallel] [--check] [--out DIR] [ID...]`
//!
//! * `ID...` — the experiments to run, in the order named (`all fig11`
//!   prints Fig. 11 alone); with none, every registered experiment in
//!   paper order.
//! * `--parallel` — fan independent experiments across host threads
//!   (width follows `SVAGC_HOST_THREADS` or the core count). Simulated
//!   output is byte-identical to a serial run; the selected experiments
//!   among `runner::DETERMINISM_PROBE_IDS` are re-run serially to
//!   re-verify that, and no probe runs when none is selected.
//! * `--check` — after the main run, re-run EVERY selected experiment in
//!   the other mode and fail on any simulated divergence (slow; ~2x).
//! * `--out DIR` — write `BENCH_<id>.json` + `BENCH_summary.json` into
//!   DIR. Without it no file is written.
//!
//! Every argument is checked before anything runs: an unknown or repeated
//! flag, `--out` without its directory, or an unknown or repeated id
//! prints the usage text and exits with status 2. A `--out` directory
//! that cannot be written exits with status 1.

use std::process::ExitCode;
use svagc_bench::runner;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match runner::parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("all: {e}\n{}", runner::usage());
            return ExitCode::from(2);
        }
    };

    let outcomes = runner::run_ids(&args.ids, args.parallel);
    for o in &outcomes {
        print!("{}", o.report.text());
    }

    let mut failures = Vec::new();
    if args.check {
        // Full dual-mode comparison: run everything again the other way.
        let other = runner::run_ids(&args.ids, !args.parallel);
        for (a, b) in outcomes.iter().zip(&other) {
            if a.report.sim_json() != b.report.sim_json() {
                failures.push(format!(
                    "{}: serial/parallel sim JSON diverged ({} vs {})",
                    a.report.id(),
                    a.report.sim_digest(),
                    b.report.sim_digest()
                ));
            }
        }
    } else if args.parallel {
        // Always-on cheap probe: the fast experiments of this run re-run
        // serially must reproduce the parallel run bit-for-bit.
        failures = runner::verify_against_serial(&outcomes, &runner::DETERMINISM_PROBE_IDS);
    }
    for f in &failures {
        eprintln!("determinism check FAILED: {f}");
    }

    if let Some(dir) = &args.out {
        let written = runner::write_bench_files(dir, &outcomes, args.parallel).and_then(|mut v| {
            v.push(runner::write_summary(dir, &outcomes, args.parallel)?);
            Ok(v)
        });
        match written {
            Ok(files) => eprintln!("wrote {} BENCH files under {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("cannot write BENCH files to {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
