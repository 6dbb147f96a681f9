//! The whole figure suite, gated in `cargo test`: every registered
//! experiment runs in-process, so every render-time claim assert fires;
//! its simulated plane must equal `ci/perf-baseline.json` exactly, and
//! its text must equal the checked-in `figures_output.txt` capture byte
//! for byte. Wall time stays with CI's perf gate.

use std::process::Command;
use svagc_bench::gate::{compare, GateConfig};
use svagc_bench::runner;
use svagc_metrics::parse_json;

const BASELINE: &str = include_str!("../../../ci/perf-baseline.json");
const CAPTURE: &str = include_str!("../../../figures_output.txt");

#[test]
fn every_experiment_matches_the_baseline_and_the_capture() {
    let outcomes = runner::run_ids(&runner::all_ids(), false);

    // This profile's wall time says nothing about a release build, so no
    // wall bound applies here; every digest and counter stays exact.
    let cfg = GateConfig {
        wall_factor: f64::INFINITY,
        ..GateConfig::default()
    };
    let baseline = parse_json(BASELINE).expect("ci/perf-baseline.json parses");
    let current = parse_json(&runner::summary_json(&outcomes, false)).expect("summary parses");
    let errs = compare(&baseline, &current, &cfg);
    assert!(
        errs.is_empty(),
        "perf gate violations:\n  {}",
        errs.join("\n  ")
    );

    let text: String = outcomes.iter().map(|o| o.report.text()).collect();
    if let Some((n, (got, want))) = text
        .lines()
        .zip(CAPTURE.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "figures_output.txt line {} differs:\n  run:     {got}\n  capture: {want}",
            n + 1
        );
    }
    assert_eq!(
        text, CAPTURE,
        "figures_output.txt differs in length or line endings"
    );
}

#[test]
fn all_runs_named_ids_and_rejects_bad_arguments_before_running() {
    let all = env!("CARGO_BIN_EXE_all");
    let out = Command::new(all)
        .args(["table1", "table2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected: String = runner::run_ids(&["table1", "table2"], false)
        .iter()
        .map(|o| o.report.text())
        .collect();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);

    // A valid id first: nothing may run before the bad argument is seen.
    for bad in [["table1", "bogus"], ["table1", "--bogus"]] {
        let out = Command::new(all).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} ran something");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("usage: all") && err.contains("tiering_resilience"),
            "{err}"
        );
    }
}
