//! The CI perf gate: compare a freshly generated `BENCH_summary.json`
//! against a checked-in baseline.
//!
//! Simulated metrics are compared **exactly**: the `sim_digest` of every
//! experiment must match byte-for-byte, and every counter must agree on
//! its raw JSON token (so u64 cycle counts beyond f64's mantissa still
//! compare losslessly). Host wall time is the only tolerant metric — it
//! only has an upper bound, scaled by [`GateConfig::wall_factor`] plus
//! [`GateConfig::wall_slack_ms`], because the baseline may have been
//! generated on a much slower (or faster) machine than the CI runner.
//! Missing or extra experiments and counters are violations in both
//! directions.

use crate::args::{Flag, Kind};
use crate::report::{pct, Table};
use crate::runner::BENCH_SUMMARY_SCHEMA;
use std::path::PathBuf;
use svagc_metrics::{parse_json, JsonValue};

/// Tolerances for the host plane. The simulated plane has none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Allowed wall-time ratio current/baseline per experiment. Generous
    /// by default: the baseline machine and the CI runner can differ by
    /// an order of magnitude, and the gate's job is to catch blow-ups
    /// (an accidental O(n^2), a lost `--release`), not 10% noise.
    pub wall_factor: f64,
    /// Flat slack added on top, so microsecond-scale experiments do not
    /// trip the ratio on scheduler jitter.
    pub wall_slack_ms: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            // Tightened from the original 20x once the fig02/fig11-class
            // hot paths were optimized: a regression that erases those
            // wins now trips the gate instead of hiding in the slack.
            wall_factor: 8.0,
            wall_slack_ms: 250.0,
        }
    }
}

/// `bin/perf_gate`'s usage line.
pub const USAGE: &str = "usage: perf_gate --baseline FILE --current FILE \
                         [--wall-factor X] [--wall-slack-ms MS]";

/// `bin/perf_gate`'s arguments.
#[derive(Debug, PartialEq)]
pub struct GateArgs {
    /// The checked-in summary to compare against.
    pub baseline: PathBuf,
    /// The freshly generated summary.
    pub current: PathBuf,
    /// Host-plane tolerances; defaults unless overridden.
    pub cfg: GateConfig,
}

/// `bin/perf_gate`'s flags.
const FLAGS: &[Flag] = &[
    ("--baseline", Kind::Text),
    ("--current", Kind::Text),
    ("--wall-factor", Kind::Positive),
    ("--wall-slack-ms", Kind::NonNegative),
];

/// Parse `bin/perf_gate`'s arguments (program name excluded). Every
/// argument is checked before any file is read: a malformed flag (see
/// [`crate::args`]) or a missing `--baseline` or `--current` is an error.
pub fn parse_gate_args(args: &[String]) -> Result<GateArgs, String> {
    let p = crate::args::parse(FLAGS, args, false)?;
    let default = GateConfig::default();
    Ok(GateArgs {
        baseline: p.text("--baseline").ok_or("--baseline FILE is required")?.into(),
        current: p.text("--current").ok_or("--current FILE is required")?.into(),
        cfg: GateConfig {
            wall_factor: p.get("--wall-factor").unwrap_or(default.wall_factor),
            wall_slack_ms: p.get("--wall-slack-ms").unwrap_or(default.wall_slack_ms),
        },
    })
}

fn num_raw(v: &JsonValue) -> Option<&str> {
    match v {
        JsonValue::Num { raw, .. } => Some(raw),
        _ => None,
    }
}

fn experiments(doc: &JsonValue, which: &str, errs: &mut Vec<String>) -> Vec<JsonValue> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == BENCH_SUMMARY_SCHEMA => {}
        other => errs.push(format!(
            "{which}: schema is {other:?}, expected {BENCH_SUMMARY_SCHEMA:?}"
        )),
    }
    match doc.get("experiments").and_then(JsonValue::as_arr) {
        Some(arr) => arr.to_vec(),
        None => {
            errs.push(format!("{which}: no \"experiments\" array"));
            Vec::new()
        }
    }
}

fn entry_id(e: &JsonValue) -> String {
    e.get("experiment")
        .and_then(JsonValue::as_str)
        .unwrap_or("<unnamed>")
        .to_string()
}

fn compare_counters(id: &str, base: &JsonValue, cur: &JsonValue, errs: &mut Vec<String>) {
    let (Some(b), Some(c)) = (
        base.get("counters").and_then(JsonValue::as_obj),
        cur.get("counters").and_then(JsonValue::as_obj),
    ) else {
        errs.push(format!("{id}: missing counters object"));
        return;
    };
    for (key, bval) in b {
        match c.iter().find(|(k, _)| k == key) {
            None => errs.push(format!("{id}: counter {key} missing from current run")),
            Some((_, cval)) if cval != bval => errs.push(format!(
                "{id}: counter {key} changed: baseline {} vs current {}",
                num_raw(bval).unwrap_or("<non-numeric>"),
                num_raw(cval).unwrap_or("<non-numeric>"),
            )),
            Some(_) => {}
        }
    }
    for (key, _) in c {
        if !b.iter().any(|(k, _)| k == key) {
            errs.push(format!("{id}: counter {key} absent from baseline (refresh ci/perf-baseline.json)"));
        }
    }
}

/// Compare two parsed summary documents; returns all violations (empty
/// means the gate passes).
pub fn compare(baseline: &JsonValue, current: &JsonValue, cfg: &GateConfig) -> Vec<String> {
    let mut errs = Vec::new();
    let base = experiments(baseline, "baseline", &mut errs);
    let cur = experiments(current, "current", &mut errs);
    for b in &base {
        let id = entry_id(b);
        let Some(c) = cur.iter().find(|c| entry_id(c) == id) else {
            errs.push(format!("{id}: experiment missing from current run"));
            continue;
        };
        let bd = b.get("sim_digest").and_then(JsonValue::as_str);
        let cd = c.get("sim_digest").and_then(JsonValue::as_str);
        if bd.is_none() || bd != cd {
            errs.push(format!(
                "{id}: sim_digest changed: baseline {} vs current {} (simulated output is expected to be bit-exact; if the change is intentional, refresh ci/perf-baseline.json)",
                bd.unwrap_or("<missing>"),
                cd.unwrap_or("<missing>"),
            ));
        }
        compare_counters(&id, b, c, &mut errs);
        let bw = b.get("wall_ms").and_then(JsonValue::as_f64);
        let cw = c.get("wall_ms").and_then(JsonValue::as_f64);
        match (bw, cw) {
            (Some(bw), Some(cw)) => {
                let bound = bw * cfg.wall_factor + cfg.wall_slack_ms;
                if cw > bound {
                    errs.push(format!(
                        "{id}: wall_ms {cw:.1} exceeds bound {bound:.1} (baseline {bw:.1} x {} + {}ms slack)",
                        cfg.wall_factor, cfg.wall_slack_ms
                    ));
                }
            }
            _ => errs.push(format!("{id}: missing wall_ms")),
        }
    }
    for c in &cur {
        let id = entry_id(c);
        if !base.iter().any(|b| entry_id(b) == id) {
            errs.push(format!(
                "{id}: experiment absent from baseline (refresh ci/perf-baseline.json)"
            ));
        }
    }
    errs
}

/// Read, parse, and compare two summary files.
pub fn run_gate(
    baseline_path: &std::path::Path,
    current_path: &std::path::Path,
    cfg: &GateConfig,
) -> Result<(), Vec<String>> {
    let read = |p: &std::path::Path| -> Result<JsonValue, Vec<String>> {
        let text = std::fs::read_to_string(p)
            .map_err(|e| vec![format!("cannot read {}: {e}", p.display())])?;
        parse_json(&text).map_err(|e| vec![format!("cannot parse {}: {e}", p.display())])
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let errs = compare(&baseline, &current, cfg);
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// The host rusage recorded in a summary, as a report-only table with a
/// suite row: total wall, CPU time and faults, and the peak of the
/// per-experiment max RSS (a process high-water mark, so it is the
/// suite's peak). `None` when no experiment carries rusage (a
/// host-parallel run). No gate or bound reads these figures.
pub fn rusage_report(summary: &JsonValue) -> Option<String> {
    let exps = summary.get("experiments").and_then(JsonValue::as_arr)?;
    let field = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64);
    let mut table = Table::new([
        "experiment",
        "wall ms",
        "user ms",
        "sys ms",
        "sys share",
        "minor faults",
        "max RSS MiB",
    ]);
    let mut total = [0.0f64; 5];
    let mut rows = 0;
    let push = |table: &mut Table, id: &str, v: [f64; 5]| {
        let cpu = v[1] + v[2];
        let share = if cpu > 0.0 { pct(100.0 * v[2] / cpu) } else { "-".into() };
        table.row([
            id.to_string(),
            format!("{:.0}", v[0]),
            format!("{:.0}", v[1]),
            format!("{:.0}", v[2]),
            share,
            format!("{:.0}", v[3]),
            format!("{:.1}", v[4]),
        ]);
    };
    for e in exps {
        let (Some(wall), Some(user), Some(sys), Some(faults)) = (
            field(e, "wall_ms"),
            field(e, "user_ms"),
            field(e, "sys_ms"),
            field(e, "minor_faults"),
        ) else {
            continue;
        };
        // Records written before the field existed read as 0.
        let rss = field(e, "max_rss_mib").unwrap_or(0.0);
        let v = [wall, user, sys, faults, rss];
        push(&mut table, &entry_id(e), v);
        for (t, x) in total[..4].iter_mut().zip(v) {
            *t += x;
        }
        total[4] = total[4].max(rss);
        rows += 1;
    }
    if rows == 0 {
        return None;
    }
    push(&mut table, "suite total", total);
    Some(table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(digest: &str, cycles: u64, wall: f64) -> JsonValue {
        parse_json(&format!(
            "{{\"schema\":\"{BENCH_SUMMARY_SCHEMA}\",\"parallel\":false,\"host_threads\":1,\
             \"experiments\":[{{\"experiment\":\"fig99\",\"sim_digest\":\"{digest}\",\
             \"counters\":{{\"gc.pause_cycles\":{cycles}}},\"wall_ms\":{wall}}}]}}"
        ))
        .unwrap()
    }

    fn args(words: &str) -> Result<GateArgs, String> {
        let v: Vec<String> = words.split_whitespace().map(String::from).collect();
        parse_gate_args(&v)
    }

    #[test]
    fn gate_args_parse_and_default() {
        let a = args("--current c.json --baseline b.json").unwrap();
        assert_eq!((a.baseline, a.current), ("b.json".into(), "c.json".into()));
        assert_eq!(a.cfg, GateConfig::default());
        let a = args("--baseline b --current c --wall-factor 2.5 --wall-slack-ms 0").unwrap();
        assert_eq!(a.cfg, GateConfig { wall_factor: 2.5, wall_slack_ms: 0.0 });
    }

    #[test]
    fn gate_args_reject_a_malformed_value() {
        for bad in ["--wall-factor 8x", "--wall-factor 0", "--wall-factor -1", "--wall-factor NaN",
            "--wall-factor inf", "--wall-slack-ms 250ms", "--wall-slack-ms -5"]
        {
            let e = args(&format!("--baseline b --current c {bad}")).unwrap_err();
            let flag = bad.split(' ').next().unwrap();
            assert!(e.starts_with(flag) && e.contains("is not a finite number"), "{bad}: {e}");
        }
    }

    #[test]
    fn gate_args_reject_a_missing_value() {
        for (words, want) in [
            ("--baseline b --current c --wall-factor", "--wall-factor needs a value"),
            ("--baseline b --current", "--current needs a value"),
            ("--current c", "--baseline FILE is required"),
            ("--baseline b", "--current FILE is required"),
        ] {
            assert_eq!(args(words).unwrap_err(), want);
        }
    }

    #[test]
    fn gate_args_reject_an_unknown_or_repeated_flag() {
        let e = args("--baseline b --current c --wall-factr 2").unwrap_err();
        assert!(e.contains("unknown flag \"--wall-factr\""), "{e}");
        let e = args("--baseline b --current c stray").unwrap_err();
        assert!(e.contains("unexpected argument \"stray\""), "{e}");
        let e = args("--baseline b --current c --baseline d").unwrap_err();
        assert_eq!(e, "--baseline given twice");
    }

    #[test]
    fn identical_summaries_pass() {
        let a = summary("fnv1a:00000000deadbeef", u64::MAX, 10.0);
        assert!(compare(&a, &a, &GateConfig::default()).is_empty());
    }

    #[test]
    fn digest_and_counter_drift_are_violations() {
        let base = summary("fnv1a:00000000deadbeef", 100, 10.0);
        let cur = summary("fnv1a:00000000cafecafe", 101, 10.0);
        let errs = compare(&base, &cur, &GateConfig::default());
        assert!(errs.iter().any(|e| e.contains("sim_digest changed")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("gc.pause_cycles changed")),
            "{errs:?}"
        );
    }

    #[test]
    fn u64_counters_compare_exactly_beyond_f64_mantissa() {
        // These two differ by 1 ULP of u64 but round to the same f64.
        let base = summary("fnv1a:00000000deadbeef", 9_007_199_254_740_993, 10.0);
        let cur = summary("fnv1a:00000000deadbeef", 9_007_199_254_740_992, 10.0);
        let errs = compare(&base, &cur, &GateConfig::default());
        assert!(errs.iter().any(|e| e.contains("gc.pause_cycles changed")), "{errs:?}");
    }

    #[test]
    fn wall_time_is_an_upper_bound_only() {
        let cfg = GateConfig { wall_factor: 2.0, wall_slack_ms: 1.0 };
        let base = summary("fnv1a:00000000deadbeef", 1, 10.0);
        // Faster than baseline: fine.
        assert!(compare(&base, &summary("fnv1a:00000000deadbeef", 1, 0.01), &cfg).is_empty());
        // Within 2x + 1ms: fine.
        assert!(compare(&base, &summary("fnv1a:00000000deadbeef", 1, 20.9), &cfg).is_empty());
        // Beyond the bound: violation.
        let errs = compare(&base, &summary("fnv1a:00000000deadbeef", 1, 21.1), &cfg);
        assert!(errs.iter().any(|e| e.contains("wall_ms")), "{errs:?}");
    }

    #[test]
    fn missing_and_extra_experiments_are_violations() {
        let a = summary("fnv1a:00000000deadbeef", 1, 10.0);
        let empty = parse_json(&format!(
            "{{\"schema\":\"{BENCH_SUMMARY_SCHEMA}\",\"parallel\":false,\"host_threads\":1,\"experiments\":[]}}"
        ))
        .unwrap();
        let cfg = GateConfig::default();
        assert!(compare(&a, &empty, &cfg).iter().any(|e| e.contains("missing from current")));
        assert!(compare(&empty, &a, &cfg).iter().any(|e| e.contains("absent from baseline")));
    }

    #[test]
    fn rusage_report_totals_serial_rows_and_skips_parallel_runs() {
        let serial = parse_json(
            "{\"experiments\":[\
             {\"experiment\":\"a\",\"wall_ms\":10,\"user_ms\":6,\"sys_ms\":2,\"minor_faults\":100,\"max_rss_mib\":48.5},\
             {\"experiment\":\"b\",\"wall_ms\":20,\"user_ms\":10,\"sys_ms\":6,\"minor_faults\":50,\"max_rss_mib\":32}]}",
        )
        .unwrap();
        let table = rusage_report(&serial).unwrap();
        assert!(table.lines().next().unwrap().contains("max RSS MiB"), "{table}");
        let row_b = table.lines().find(|l| l.starts_with("b ")).unwrap();
        assert!(row_b.trim_end().ends_with("32.0"), "{table}");
        let total = table.lines().last().unwrap();
        assert!(total.starts_with("suite total"), "{table}");
        let cells: Vec<&str> = total.split_whitespace().skip(2).collect();
        // Sums, except max RSS: the suite's peak is the largest.
        assert_eq!(cells, ["30", "16", "8", "33.3%", "150", "48.5"], "{table}");
        assert_eq!(rusage_report(&summary("fnv1a:00", 1, 5.0)), None);
    }
}
