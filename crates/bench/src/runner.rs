//! The experiment registry and the serial / host-parallel runner behind
//! `bin/all`, the one entry point that runs any subset of it.
//!
//! Every entry in [`EXPERIMENTS`] is an independent simulation — it builds
//! its own `Kernel`, `AddressSpace`, and counters — so fanning experiments
//! across host threads cannot change any simulated number, only the host
//! wall time. The runner leans on that: [`run_ids`] maps the requested
//! experiments through `par_map` (order-preserving) or a plain serial
//! loop, and parallel `bin/all` runs re-verify a probe subset serially,
//! byte-comparing the canonical sim JSON.

use crate::render;
use crate::report::{HostInfo, Report};
use crate::rusage::Rusage;
use std::path::{Path, PathBuf};
use std::time::Instant;
use svagc_metrics::json::write_json_str;
use svagc_metrics::{host_threads, par_map};

/// One registered experiment.
pub struct Experiment {
    /// Stable identifier: names the `BENCH_<id>.json` file.
    pub id: &'static str,
    /// Paper-facing label ("Fig. 6", "Ablation A", ...).
    pub title: &'static str,
    /// Human caption for the banner and the BENCH record.
    pub caption: &'static str,
    /// The experiment body.
    pub run: fn(&mut Report),
}

/// Every figure, table, and ablation, in `bin/all` output order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig01",
        title: "Fig. 1",
        caption: "Execution time of the full GC phases (i5-7600)",
        run: render::fig01,
    },
    Experiment {
        id: "fig02",
        title: "Fig. 2",
        caption: "Scalability issue in LRU Cache under ParallelGC (32-core Xeon)",
        run: render::fig02,
    },
    Experiment {
        id: "table1",
        title: "Table I",
        caption: "Applicability of SwapVA and optimizations",
        run: render::table1,
    },
    Experiment {
        id: "table2",
        title: "Table II",
        caption: "Benchmarks configuration (paper values; see EXPERIMENTS.md for scaling)",
        run: render::table2,
    },
    Experiment {
        id: "fig06",
        title: "Fig. 6",
        caption: "Aggregated vs separated SwapVA calls (i5-7600)",
        run: render::fig06,
    },
    Experiment {
        id: "fig08",
        title: "Fig. 8",
        caption: "Benefits of PMD caching (i5-7600)",
        run: render::fig08,
    },
    Experiment {
        id: "fig09",
        title: "Fig. 9",
        caption: "Multi-core optimizations to SwapVA (Xeon 6130, 100 objects)",
        run: render::fig09,
    },
    Experiment {
        id: "fig10",
        title: "Fig. 10",
        caption: "Threshold value for SwapVA in different CPU/memory configs",
        run: render::fig10,
    },
    Experiment {
        id: "fig11",
        title: "Fig. 11",
        caption: "GC time -/+ SwapVA on SVAGC at 1.2x min heap",
        run: render::fig11,
    },
    Experiment {
        id: "fig12",
        title: "Fig. 12",
        caption: "Average Full-GC latency vs Shenandoah/ParallelGC",
        run: render::fig12,
    },
    Experiment {
        id: "fig13",
        title: "Fig. 13",
        caption: "Maximum GC pause vs Shenandoah/ParallelGC",
        run: render::fig13,
    },
    Experiment {
        id: "fig14",
        title: "Fig. 14",
        caption: "Scalability of SVAGC in single/multi-JVM setting (32 cores)",
        run: render::fig14,
    },
    Experiment {
        id: "fig15",
        title: "Fig. 15",
        caption: "Application throughput of SVAGC at 1.2x min heap (+/- SwapVA)",
        run: render::fig15,
    },
    Experiment {
        id: "fig16",
        title: "Fig. 16",
        caption: "Throughput of SVAGC vs Shenandoah/ParallelGC",
        run: render::fig16,
    },
    Experiment {
        id: "table3",
        title: "Table III",
        caption: "Cache & DTLB misses at 1.2x (2x) minimum heap",
        run: render::table3,
    },
    Experiment {
        id: "ablation_threshold",
        title: "Ablation A",
        caption: "MoveObject threshold sweep (16-page objects)",
        run: render::ablation_threshold,
    },
    Experiment {
        id: "ablation_aggregation",
        title: "Ablation B",
        caption: "Aggregation batch size (10-page objects)",
        run: render::ablation_aggregation,
    },
    Experiment {
        id: "ablation_mechanism",
        title: "Ablation C",
        caption: "Mechanism toggles (64-page objects)",
        run: render::ablation_mechanism,
    },
    Experiment {
        id: "ablation_los",
        title: "Ablation E",
        caption: "LOS design vs SVAGC (the intro's critique)",
        run: render::ablation_los,
    },
    Experiment {
        id: "ablation_minor",
        title: "Ablation D",
        caption: "Minor-GC promotion mechanism (Table I row 2)",
        run: render::ablation_minor,
    },
    Experiment {
        id: "packet_scaling",
        title: "Packet scaling",
        caption: "Full-GC makespan vs workers: barrier pipeline vs packet scheduler",
        run: render::packet_scaling,
    },
    Experiment {
        id: "pause_cdf",
        title: "Pause CDF",
        caption: "Full-GC pause percentiles: SVAGC STW vs --concurrent vs Shenandoah",
        run: render::pause_cdf,
    },
    Experiment {
        id: "noisy_neighbor",
        title: "Noisy neighbor",
        caption: "Healthy-tenant throughput & survival vs victim fault rate (blast-radius isolation)",
        run: render::noisy_neighbor,
    },
    Experiment {
        id: "tiering_resilience",
        title: "Tiering resilience",
        caption: "Throughput & invisibility vs DRAM fraction x device fault rate (SVAGC vs memmove)",
        run: render::tiering_resilience,
    },
];

/// Cheap experiments a parallel `bin/all` re-runs serially, when it ran
/// them, as an always-on determinism probe (milliseconds each).
pub const DETERMINISM_PROBE_IDS: [&str; 2] = ["fig06", "fig08"];

/// Look up an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// All registered ids, in run order.
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

/// One finished experiment plus its host cost.
pub struct Outcome {
    /// The filled report.
    pub report: Report,
    /// Host wall-clock milliseconds the experiment took.
    pub wall_ms: f64,
    /// Host CPU time and minor faults over the experiment; `None` when it
    /// ran beside others in a host-parallel fan-out.
    pub rusage: Option<Rusage>,
}

/// Run one experiment, timing it on the host clock and with `getrusage`.
/// The rusage deltas are process-wide: they are the experiment's own only
/// when it runs alone, so [`run_ids`] drops them from parallel runs.
pub fn run_experiment(exp: &Experiment) -> Outcome {
    let mut rep = Report::new(exp.id, exp.caption);
    rep.say("");
    rep.say(format!("=== {}: {} ===", exp.title, exp.caption));
    let r0 = Rusage::now();
    let t0 = Instant::now();
    (exp.run)(&mut rep);
    Outcome {
        report: rep,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        rusage: Rusage::since(r0),
    }
}

/// Run `ids` serially or host-parallel. Output order always follows
/// `ids`; with `parallel` only the host scheduling changes — each
/// experiment is a self-contained simulation, so its simulated plane is
/// identical either way (see `tests/parallel_determinism.rs`). Every id
/// must be registered; [`parse_args`] checks that for `bin/all`.
pub fn run_ids(ids: &[&str], parallel: bool) -> Vec<Outcome> {
    let exps: Vec<&'static Experiment> = ids
        .iter()
        .map(|id| find(id).unwrap_or_else(|| panic!("unknown experiment {id:?}")))
        .collect();
    if parallel {
        par_map(exps, |e| Outcome { rusage: None, ..run_experiment(e) })
    } else {
        exps.into_iter().map(run_experiment).collect()
    }
}

/// Version tag of the `BENCH_summary.json` layout.
pub const BENCH_SUMMARY_SCHEMA: &str = "svagc-bench-summary-v1";

/// The rolled-up summary document: one entry per experiment with the
/// digest, headline counters, host wall time and, in serial runs, host
/// rusage. The CI perf gate compares this file against a checked-in
/// baseline; it reads the rusage fields only to print them.
pub fn summary_json(outcomes: &[Outcome], parallel: bool) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":\"");
    out.push_str(BENCH_SUMMARY_SCHEMA);
    out.push_str("\",\"parallel\":");
    out.push_str(if parallel { "true" } else { "false" });
    out.push_str(&format!(",\"host_threads\":{}", host_threads()));
    out.push_str(",\"experiments\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"experiment\":");
        write_json_str(&mut out, o.report.id());
        out.push_str(",\"sim_digest\":\"");
        out.push_str(&o.report.sim_digest());
        out.push_str("\",\"counters\":");
        out.push_str(&o.report.counters().to_json());
        out.push_str(&format!(",\"wall_ms\":{}", o.wall_ms));
        if let Some(r) = &o.rusage {
            r.write_json_fields(&mut out);
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Write one `BENCH_<id>.json` per outcome into `dir`; returns the paths.
pub fn write_bench_files(
    dir: &Path,
    outcomes: &[Outcome],
    parallel: bool,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let threads = if parallel { host_threads() } else { 1 };
    let mut paths = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        let host = HostInfo {
            wall_ms: o.wall_ms,
            rusage: o.rusage,
            threads,
            parallel,
        };
        let path = dir.join(format!("BENCH_{}.json", o.report.id()));
        std::fs::write(&path, o.report.bench_json(&host))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Write the `BENCH_summary.json` roll-up into `dir`.
pub fn write_summary(dir: &Path, outcomes: &[Outcome], parallel: bool) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_summary.json");
    std::fs::write(&path, summary_json(outcomes, parallel))?;
    Ok(path)
}

/// Re-run serially each of `outcomes` whose id is in `probe_ids` and
/// byte-compare its canonical sim JSON with the collected one; returns
/// the mismatching ids. Probe ids absent from `outcomes` are skipped, so
/// a run of any subset can be probed.
pub fn verify_against_serial(outcomes: &[Outcome], probe_ids: &[&str]) -> Vec<String> {
    let mut bad = Vec::new();
    for o in outcomes.iter().filter(|o| probe_ids.contains(&o.report.id())) {
        let serial = run_experiment(find(o.report.id()).expect("outcome id registered"));
        if serial.report.sim_json() != o.report.sim_json() {
            bad.push(format!(
                "{}: parallel sim JSON diverged from serial ({} vs {})",
                o.report.id(),
                o.report.sim_digest(),
                serial.report.sim_digest()
            ));
        }
    }
    bad
}

/// What one `bin/all` invocation asks for.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// The experiments to run, in the order named; the whole registry,
    /// in registry order, when none is named.
    pub ids: Vec<&'static str>,
    /// Fan the experiments across host threads.
    pub parallel: bool,
    /// Re-run every experiment in the other mode and compare.
    pub check: bool,
    /// Where to write `BENCH_<id>.json` and `BENCH_summary.json`; no
    /// files are written without it.
    pub out: Option<PathBuf>,
}

/// `bin/all`'s usage text, listing every registered id.
pub fn usage() -> String {
    format!(
        "usage: all [--parallel] [--check] [--out DIR] [ID...]\n  \
         --parallel  fan experiments across host threads; re-run serially any selected probe id ({})\n  \
         --check     re-run every selected experiment in the other mode and compare\n  \
         --out DIR   write BENCH_<id>.json and BENCH_summary.json into DIR\n\
         ids (default: all, in this order): {}",
        DETERMINISM_PROBE_IDS.join(" "),
        all_ids().join(" ")
    )
}

/// Parse `bin/all`'s arguments (program name excluded). Every argument is
/// checked before anything runs: an unknown flag, a missing `--out`
/// directory, or an unknown or repeated id is an error.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { ids: Vec::new(), parallel: false, check: false, out: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--parallel" => parsed.parallel = true,
            "--check" => parsed.check = true,
            "--out" => parsed.out = Some(it.next().ok_or("--out needs a directory")?.into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id => {
                let exp = find(id).ok_or_else(|| format!("unknown experiment {id:?}"))?;
                if parsed.ids.contains(&exp.id) {
                    return Err(format!("experiment {id:?} named twice"));
                }
                parsed.ids.push(exp.id);
            }
        }
    }
    if parsed.ids.is_empty() {
        parsed.ids = all_ids();
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let ids = all_ids();
        for (i, id) in ids.iter().enumerate() {
            assert!(find(id).is_some());
            assert!(!ids[i + 1..].contains(id), "duplicate id {id}");
            assert!(
                id.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{id} must be filename-safe"
            );
        }
        for probe in DETERMINISM_PROBE_IDS {
            assert!(find(probe).is_some());
        }
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_ids_selects_the_whole_registry_and_named_ids_keep_their_order() {
        let all = parse(&[]).unwrap();
        assert_eq!(all, Args { ids: all_ids(), parallel: false, check: false, out: None });
        let some = parse(&["--parallel", "fig12", "--out", "d", "fig11"]).unwrap();
        assert_eq!(some.ids, ["fig12", "fig11"]);
        assert!(some.parallel && !some.check);
        assert_eq!(some.out, Some(PathBuf::from("d")));
    }

    #[test]
    fn bad_arguments_are_rejected_before_anything_runs() {
        for (args, msg) in [
            (&["bogus"][..], "unknown experiment"),
            (&["--bogus"], "unknown flag"),
            (&["fig11", "fig11"], "named twice"),
            (&["fig11", "--out"], "--out needs"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(msg), "{args:?}: {err}");
        }
        let usage = usage();
        assert!(all_ids().iter().all(|id| usage.contains(id)), "{usage}");
    }

    #[test]
    fn summary_json_parses_and_lists_experiments() {
        use svagc_metrics::{parse_json, JsonValue};
        let mut rep = Report::new("fake", "synthetic");
        rep.counter("gc.pause_cycles", 42);
        let rusage = Some(Rusage { user_ms: 1.0, sys_ms: 0.5, minor_faults: 3, max_rss_mib: 7.25 });
        let outcomes = vec![Outcome { report: rep, wall_ms: 1.5, rusage }];
        let doc = parse_json(&summary_json(&outcomes, true)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(BENCH_SUMMARY_SCHEMA)
        );
        assert_eq!(doc.get("parallel"), Some(&JsonValue::Bool(true)));
        let exps = doc.get("experiments").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(exps.len(), 1);
        assert_eq!(
            exps[0].get("experiment").and_then(JsonValue::as_str),
            Some("fake")
        );
        assert_eq!(
            exps[0].get("counters").unwrap().get("gc.pause_cycles").and_then(JsonValue::as_u64),
            Some(42)
        );
        assert_eq!(exps[0].get("wall_ms").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(exps[0].get("sys_ms").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(exps[0].get("minor_faults").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(exps[0].get("max_rss_mib").and_then(JsonValue::as_f64), Some(7.25));
    }
}
