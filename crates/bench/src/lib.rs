//! Figure/table harnesses reproducing the paper's evaluation.
//!
//! * [`micro`] — kernel-level sweeps (Figs. 6, 8, 9, 10).
//! * [`ablations`] — design-choice studies (threshold, aggregation batch,
//!   flush policy, stealing, Minor-GC promotion).
//! * [`los`] — the non-moving Large-Object-Space heap that Ablation E
//!   measures SVAGC against.
//! * [`suites`] — whole-benchmark runs (Figs. 1, 2, 11-16, Table III).
//! * [`report`] — per-experiment report sink, BENCH JSON emitter, and
//!   table/JSON output helpers.
//! * [`runner`] — experiment registry, the serial / host-parallel
//!   runner, and the arguments of `bin/all`.
//! * [`args`] — the flag table every binary parses its arguments with.
//! * [`rusage`] — host CPU time, minor faults and peak RSS from
//!   `getrusage`, reported beside wall time in BENCH records.
//! * [`gate`] — perf-regression comparison of a `BENCH_summary.json`
//!   against a checked-in baseline (the CI perf gate).
//!
//! `bin/all` runs every experiment in paper order, or only the ids it is
//! given (`all fig11`), and can fan out across host threads with
//! `--parallel` (simulated output stays byte-identical to serial).

pub mod ablations;
pub mod args;
pub mod gate;
pub mod los;
pub mod micro;
pub mod render;
pub mod report;
pub mod runner;
pub mod rusage;
pub mod suites;
