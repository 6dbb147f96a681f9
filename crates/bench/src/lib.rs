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
//! * [`runner`] — experiment registry plus the serial / host-parallel
//!   runner used by `bin/all` and the thin per-figure binaries.
//! * [`rusage`] — host CPU time, minor faults and peak RSS from
//!   `getrusage`, reported beside wall time in BENCH records.
//! * [`gate`] — perf-regression comparison of a `BENCH_summary.json`
//!   against a checked-in baseline (the CI perf gate).
//!
//! Each `src/bin/figNN_*` binary regenerates one figure; `bin/all` runs
//! everything in paper order and can fan out across host threads with
//! `--parallel` (simulated output stays byte-identical to serial).

pub mod ablations;
pub mod gate;
pub mod los;
pub mod micro;
pub mod render;
pub mod report;
pub mod runner;
pub mod rusage;
pub mod suites;
