//! Every binary checks its whole command line before anything runs: a
//! malformed argument exits 2 with the error and the usage text on
//! stderr, prints nothing to stdout, and never panics.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the binary")
}

/// `(binary, arguments, a fragment the error message must contain)`.
fn cases() -> Vec<(&'static str, &'static [&'static str], &'static str)> {
    let cli = env!("CARGO_BIN_EXE_svagc_cli");
    let all = env!("CARGO_BIN_EXE_all");
    let gate = env!("CARGO_BIN_EXE_perf_gate");
    vec![
        // svagc_cli: values that do not parse or are out of range.
        (
            cli,
            &["run", "--workload", "Bisort", "--steps", "5x"],
            "--steps \"5x\"",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--heap-factor", "abc"],
            "--heap-factor",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--heap-factor", "-3"],
            "--heap-factor",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--threshold", "0"],
            "--threshold",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--gc-threads", "0"],
            "--gc-threads",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--dram-fraction", "7"],
            "--dram-fraction",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--fault-rate", "3"],
            "--fault-rate",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--device-fault-rate", "5"],
            "--device-fault-rate",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--fault-seed", "-1"],
            "--fault-seed",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--collector", "g1"],
            "unknown collector",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--crash-plan", ","],
            "bad crash plan",
        ),
        // svagc_cli: a flag that acts only through another flag is
        // refused without it rather than silently ignored.
        (
            cli,
            &["run", "--workload", "Bisort", "--fault-seed", "9"],
            "--fault-seed does nothing without a non-zero --fault-rate",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--fault-rate", "0", "--fault-permanent"],
            "--fault-permanent does nothing without a non-zero --fault-rate",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--device-fault-rate", "0.1"],
            "--device-fault-rate does nothing without --dram-fraction",
        ),
        (
            cli,
            &["recover", "--workload", "Bisort", "--device-fault-seed", "4"],
            "--device-fault-seed does nothing without --dram-fraction",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--device-offline-after", "3"],
            "--device-offline-after does nothing without --dram-fraction",
        ),
        (cli, &["run", "--workload", "Nope"], "unknown workload"),
        (cli, &["run", "--steps", "2"], "--workload is required"),
        (cli, &["multi", "--jvms", "0"], "--jvms \"0\""),
        (
            cli,
            &["multi", "--collector", "svagc"],
            "--jvms is required",
        ),
        (cli, &["fleet", "--victims", ","], "--victims \",\""),
        (cli, &["fleet", "--victims", "0,x"], "--victims"),
        (cli, &["fleet", "--tenants", "0"], "--tenants \"0\""),
        (
            cli,
            &["fleet", "--tenants", "2", "--victims", "2"],
            "must be < --tenants",
        ),
        (
            cli,
            &["fleet", "--victim-fault-rate", "1.5"],
            "--victim-fault-rate",
        ),
        (cli, &["fleet", "--max-attempts", "0"], "--max-attempts"),
        (
            cli,
            &["fleet", "--max-attempts", "4294967296"],
            "--max-attempts",
        ),
        (cli, &["fleet", "--quota-fraction", "0"], "--quota-fraction"),
        (
            cli,
            &["fleet", "--quota-fraction", "inf"],
            "--quota-fraction",
        ),
        (cli, &["fleet", "--live-objects", "0"], "--live-objects"),
        // svagc_cli: an unknown, repeated or value-less flag, per subcommand.
        (
            cli,
            &["run", "--workload", "Bisort", "--bogus", "1"],
            "unknown flag \"--bogus\"",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--deep"],
            "unknown flag \"--deep\"",
        ),
        (
            cli,
            &[
                "run",
                "--workload",
                "Bisort",
                "--steps",
                "2",
                "--steps",
                "3",
            ],
            "given twice",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--tlb-oracle", "--tlb-oracle"],
            "--tlb-oracle given twice",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--wal"],
            "unknown flag \"--wal\"",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "--steps"],
            "--steps needs a value",
        ),
        (
            cli,
            &["run", "--workload", "Bisort", "stray"],
            "unexpected argument \"stray\"",
        ),
        (
            cli,
            &["recover", "--workload", "Bisort", "--bogus"],
            "unknown flag",
        ),
        (
            cli,
            &["recover", "--workload", "Bisort", "--workload", "Bisort"],
            "given twice",
        ),
        (cli, &["recover", "--workload"], "--workload needs a value"),
        (
            cli,
            &["multi", "--jvms", "2", "--bogus", "1"],
            "unknown flag",
        ),
        (
            cli,
            &["multi", "--jvms", "2", "--jvms", "2"],
            "--jvms given twice",
        ),
        (cli, &["multi", "--jvms"], "--jvms needs a value"),
        (cli, &["fleet", "--bogus"], "unknown flag"),
        (
            cli,
            &["fleet", "--no-pressure", "--no-pressure"],
            "given twice",
        ),
        (cli, &["fleet", "--seed"], "--seed needs a value"),
        // A quota beyond what a tenant's kernel holds is refused before
        // any tenant runs.
        (
            cli,
            &["fleet", "--quota-fraction", "1e9", "--steps", "2"],
            "more than the",
        ),
        (cli, &["protocol-check", "--bogus"], "unknown flag"),
        (
            cli,
            &["protocol-check", "--deep", "--deep"],
            "--deep given twice",
        ),
        (cli, &["protocol-check", "deep"], "unexpected argument"),
        (cli, &["list", "--bogus"], "unknown flag"),
        (cli, &["list", "extra"], "unexpected argument"),
        (cli, &["bogus-subcommand"], "usage"),
        (cli, &[], "usage"),
        // all
        (all, &["bogus"], "unknown experiment"),
        (all, &["--bogus"], "unknown flag"),
        (all, &["fig11", "fig11"], "named twice"),
        (all, &["fig11", "--out"], "--out needs a value"),
        (
            all,
            &["--parallel", "fig06", "--parallel"],
            "--parallel given twice",
        ),
        // perf_gate
        (
            gate,
            &["--baseline", "b", "--current", "c", "--wall-factor", "8x"],
            "--wall-factor",
        ),
        (
            gate,
            &["--baseline", "b", "--current", "c", "--wall-factor", "0"],
            "--wall-factor",
        ),
        (
            gate,
            &["--baseline", "b", "--current", "c", "--wall-factor", "NaN"],
            "--wall-factor",
        ),
        (
            gate,
            &["--baseline", "b", "--current", "c", "--wall-slack-ms", "-5"],
            "--wall-slack-ms",
        ),
        (
            gate,
            &["--baseline", "b", "--current", "c", "--wall-factor"],
            "needs a value",
        ),
        (
            gate,
            &["--baseline", "b", "--current", "c", "--wall-factr", "2"],
            "unknown flag",
        ),
        (
            gate,
            &["--baseline", "b", "--current", "c", "--baseline", "d"],
            "given twice",
        ),
        (
            gate,
            &["--baseline", "b", "--current", "c", "stray"],
            "unexpected argument",
        ),
        (gate, &["--current", "c"], "--baseline FILE is required"),
    ]
}

#[test]
fn malformed_arguments_exit_2_before_anything_runs() {
    for (bin, args, want) in cases() {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = bin.rsplit('/').next().unwrap_or(bin);
        let what = format!("{name} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(
            out.stdout.is_empty(),
            "{what} printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!stderr.contains("panicked"), "{what}");
        assert!(stderr.contains(want), "{what} lacks {want:?}");
        assert!(stderr.contains("usage"), "{what} lacks the usage");
    }
}

#[test]
fn an_unwritable_out_directory_exits_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("svagc-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("a-file");
    std::fs::write(&file, b"").unwrap();
    let under_a_file = file.join("out");
    let out = run(
        env!("CARGO_BIN_EXE_all"),
        &["table1", "--out", under_a_file.to_str().unwrap()],
    );
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write BENCH files"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
