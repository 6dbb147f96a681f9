//! The host-parallel runner must not change a single simulated byte:
//! every experiment builds its own simulated machine, so fanning them
//! across host threads may only change wall time. These tests pin that
//! on two representative figure experiments (a kernel micro-sweep and a
//! whole-run driver figure) plus the ablation subset.

use svagc_bench::runner;
use svagc_metrics::{parse_json, JsonValue};

const IDS: [&str; 2] = ["fig06", "fig08"];

/// The five design-choice studies (`all ablation_threshold ...`).
const ABLATION_IDS: [&str; 5] = [
    "ablation_threshold",
    "ablation_aggregation",
    "ablation_mechanism",
    "ablation_los",
    "ablation_minor",
];

#[test]
fn representative_figures_are_bitwise_identical_serial_vs_parallel() {
    // Force a real fan-out even on single-core CI runners.
    std::env::set_var("SVAGC_HOST_THREADS", "4");
    let serial = runner::run_ids(&IDS, false);
    let par = runner::run_ids(&IDS, true);
    assert_eq!(serial.len(), par.len());
    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(s.report.id(), p.report.id(), "outcome order must follow input order");
        assert_eq!(
            s.report.sim_json(),
            p.report.sim_json(),
            "{}: simulated plane diverged between serial and parallel",
            s.report.id()
        );
        assert_eq!(s.report.sim_digest(), p.report.sim_digest());
        assert_eq!(
            s.report.text(),
            p.report.text(),
            "{}: rendered text diverged between serial and parallel",
            s.report.id()
        );
    }
    // The always-on probe `bin/all --parallel` runs must agree too.
    assert!(runner::verify_against_serial(&par, &IDS).is_empty());
}

#[test]
fn bench_files_from_a_parallel_run_parse_and_match_serial_digests() {
    std::env::set_var("SVAGC_HOST_THREADS", "4");
    let dir = std::env::temp_dir().join(format!("svagc_bench_test_{}", std::process::id()));
    let par = runner::run_ids(&ABLATION_IDS, true);
    runner::write_bench_files(&dir, &par, true).unwrap();
    runner::write_summary(&dir, &par, true).unwrap();

    let serial = runner::run_ids(&ABLATION_IDS, false);
    let summary =
        parse_json(&std::fs::read_to_string(dir.join("BENCH_summary.json")).unwrap()).unwrap();
    let entries = summary.get("experiments").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(entries.len(), serial.len());
    for (entry, s) in entries.iter().zip(&serial) {
        let id = entry.get("experiment").and_then(JsonValue::as_str).unwrap();
        assert_eq!(id, s.report.id());
        // The digest recorded by the parallel run equals a fresh serial one.
        assert_eq!(
            entry.get("sim_digest").and_then(JsonValue::as_str).unwrap(),
            s.report.sim_digest()
        );
        // Process-wide rusage deltas overlap under a fan-out: omitted.
        assert_eq!(entry.get("user_ms"), None);
        // And the per-experiment BENCH file round-trips through the parser
        // with the same digest and schema.
        let doc =
            parse_json(&std::fs::read_to_string(dir.join(format!("BENCH_{id}.json"))).unwrap())
                .unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(svagc_bench::report::BENCH_REPORT_SCHEMA)
        );
        assert_eq!(
            doc.get("sim_digest").and_then(JsonValue::as_str).unwrap(),
            s.report.sim_digest()
        );
        assert_eq!(doc.get("host").unwrap().get("parallel"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("host").unwrap().get("minor_faults"), None);
    }
    std::fs::remove_dir_all(&dir).ok();
}
