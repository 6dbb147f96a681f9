//! Command-line driver: run any benchmark under any collector without
//! writing code.
//!
//! ```text
//! svagc list
//! svagc run --workload Sigverify --collector svagc --heap-factor 1.2
//! svagc run --workload Sparse.large --collector parallelgc --steps 40 --instrumented
//! svagc multi --jvms 8 --collector svagc --gc-threads 4
//! ```

use svagc_bench::args::{self, at_least, Flag, Kind, Parsed};
use svagc_bench::report::{HostInfo, Report};
use svagc_bench::rusage::Rusage;
use svagc_core::protocol::{self, ModelConfig};
use svagc_core::{
    CycleClass, DegradePolicy, DegradedMode, SchedulerKind, TierPolicy,
};
use svagc_kernel::{CrashPlan, DeviceFaultConfig, FaultConfig, FlushMode, WalMutation};
use svagc_metrics::MachineConfig;
use svagc_workloads::driver::{run_with_crash, CollectorKind, CrashOutcome, RunConfig};
use svagc_workloads::lrucache::LruCache;
use svagc_workloads::multijvm::{run_multi, TenantOutcome};
use svagc_workloads::noisy::{self, NoisySpec};
use svagc_workloads::suite;

fn usage() -> ! {
    eprintln!(
        "usage:
  svagc list
  svagc run --workload <name> [--collector svagc|memmove|parallelgc|shenandoah]
            [--heap-factor <f > 0>] [--gc-threads <n >= 1>] [--steps <n>]
            [--machine 6130|6240|i5] [--threshold <pages >= 1>] [--instrumented]
            [--fault-rate <p in [0,1]>] [--fault-seed <n>] [--fault-permanent]
            [--swap-fallback-budget <n>] [--verify-phases]
            [--gc-deadline-cycles <n>] [--degrade-policy off|standard|standard:N]
            [--trace <out.json>] [--trace-summary] [--bench-json <out.json>]
            [--tlb-oracle] [--crash-plan <pt[:n],...>]
            [--wal-mutate skip-commit|drop-intent|corrupt-preimage]
            [--scheduler barrier|packets] [--core-base <n>] [--concurrent]
            [--dram-fraction <f in [0,1]>] [--device-fault-rate <p in [0,1]>]
            [--device-fault-seed <n>] [--device-offline-after <n>]
  svagc recover ...same flags as run...
  svagc multi --jvms <n >= 1> [--collector ...] [--gc-threads <n >= 1>]
            [--machine 6130|6240|i5] [--scheduler barrier|packets]
  svagc fleet [--tenants <n >= 1>] [--victims <i,j,...>]
            [--victim-fault-rate <p in [0,1]>] [--seed <n>] [--steps <n>]
            [--live-objects <n >= 1>] [--quota-fraction <f > 0>]
            [--max-attempts <n >= 1>] [--no-pressure] [--machine 6130|6240|i5]
  svagc protocol-check [--deep]

  Every <n> is an unsigned integer and every <f> or <p> a finite number.
  A malformed argument (an unknown or repeated flag, a missing value, a
  value that does not parse or is out of range) exits 2 before anything
  runs.

  --dram-fraction <f> arm cold-object tiering: keep this fraction of the
                      heap's pages resident in DRAM and demote the cold
                      rest to a simulated far-memory device after every
                      GC cycle. The run ends with a promote-all and the
                      invisibility oracle (residency and device empty,
                      heap hash equal to the DRAM-only run's)
  --device-fault-rate <p>  per-device-request fault probability, split
                      across transient EIO / latency spikes / torn
                      writebacks; the retry ladder absorbs them
  --device-fault-seed <n>  seed of the device fault plan
  --device-offline-after <n>  kill the far device for good after n
                      requests: writebacks degrade the run to DRAM-only
                      mode; a lost fetch exits 16 (device failed)
  --concurrent        SATB concurrent marking: the trace runs at the GC
                      trigger, charged as mutator interference rather
                      than pause; only initial mark, the SATB-buffer
                      drain, and compaction stay in the pause. The
                      compacted heap is bit-identical to the STW run's.
                      svagc | memmove wrap in the concurrent collector;
                      the baselines ignore the flag (shenandoah always
                      marks concurrently, parallelgc never does)
  --scheduler         GC scheduling substrate: barrier (default; each
                      phase joins at a global barrier) or packets (work
                      decomposed into typed packets in dependency-ordered
                      buckets, drained greedily with deterministic
                      least-loaded stealing; workers flow across bucket
                      boundaries where the dependency graph allows)
  --core-base <n>     first machine core the GC workers pin to (worker w
                      runs on core (n + w) mod cores; multi-JVM runs set
                      disjoint bases automatically)
  --gc-deadline-cycles <n>  per-phase watchdog budget in virtual cycles; a
                      phase exceeding it aborts the GC cycle and rolls it
                      back through the compaction journal
  --degrade-policy    circuit breaker applied after aborted cycles:
                      off (default; aborts propagate as errors), standard
                      (normal -> memmove-only -> single-threaded, recover
                      after 2 clean cycles), or standard:N (probation N)
  --trace <out.json>  write a Chrome trace_event JSON (chrome://tracing,
                      https://ui.perfetto.dev) of every GC phase, SwapVA
                      call, shootdown, and fault event, timestamped in
                      virtual cycles
  --trace-summary     print a per-phase/per-event text digest and the
                      unified counter registry instead of raw JSON
  --bench-json <out>  write a svagc-bench-report-v1 BENCH record of the
                      run: the unified counter registry plus derived
                      pause/throughput scalars in the simulated plane
                      (digested), host wall time outside it
  --tlb-oracle        run under the stale-translation oracle: every TLB
                      hit is cross-checked against the live page table
                      and every flush audited against the Algorithm 4
                      preconditions; any violation fails the run
  --crash-plan        seeded crash points, comma-separated `point[:n]`
                      (the machine dies at the n-th occurrence; n
                      defaults to 1): before-batch, inside-batch,
                      after-batch, mid-ipi, mid-rollback, mid-log-append,
                      inside-recovery, mid-demote-writeback,
                      mid-promote-fetch.
                      `run` exits 13 when a crash fires; `recover`
                      reboots the dead machine, replays the journal, and
                      exits 0 only if the rebuilt heap hashes
                      bit-identically to a pre- or post-cycle snapshot
                      (14 if recovery fails closed)
  --wal-mutate        seeded journal corruption (teeth testing): a
                      correct recovery MUST fail closed under it
  recover             like `run`, but after a seeded crash the machine is
                      rebooted and the recovery state machine replays the
                      write-ahead journal (see --crash-plan)

  fleet               the noisy-neighbor chaos harness: N tenants churn
                      under a shared frame pool (per-tenant quotas, GC
                      headroom, pressure ladder) while the victim tenants
                      get seeded permanent SwapVA faults; a fault-free
                      twin fleet runs alongside and both blast-radius
                      oracles are applied (isolation: healthy heaps
                      bit-identical to the twin's; frame-leak: pool
                      in-use == survivors' footprints, ownership audit
                      clean). Quarantines are reported per tenant with
                      their classified failure; the fleet itself exits 0
                      when every tenant completed and the oracles held,
                      1 on an oracle violation, or the first quarantined
                      tenant's failure code (quarantine is the expected
                      outcome for a faulted victim — scripts assert on
                      it, they don't treat it as a harness error)

  exit codes: 0 ok | 1 error | 2 malformed argument, nothing ran |
              10 watchdog deadline | 11 fault abort |
              12 degraded-mode ladder exhausted |
              13 machine crashed | 14 recovery failed |
              15 tenant out of memory | 16 far device failed

  protocol-check      exhaustively model-check the three TLB-coherence
                      protocols (GlobalBroadcast / LocalOnly / Tracked)
                      and run the seeded mutation suite; --deep adds a
                      larger 4-core x 4-page universe. Exit 1 if a real
                      protocol has a counterexample or a seeded bug goes
                      undetected"
    );
    std::process::exit(2);
}

/// Seed of the SwapVA fault plan when `--fault-seed` is not given.
const FAULT_SEED: u64 = 0xFA017;
/// Seed of the far-device fault plan when `--device-fault-seed` is not
/// given.
const DEVICE_FAULT_SEED: u64 = 0xD1CE;

/// The flags of `run` and `recover`.
const RUN_FLAGS: &[Flag] = &[
    ("--workload", Kind::Text),
    ("--collector", Kind::Text),
    ("--machine", Kind::Text),
    ("--heap-factor", Kind::Positive),
    ("--gc-threads", at_least(1)),
    ("--steps", at_least(0)),
    ("--threshold", at_least(1)),
    ("--instrumented", Kind::Switch),
    ("--verify-phases", Kind::Switch),
    ("--concurrent", Kind::Switch),
    ("--fault-rate", Kind::Unit),
    ("--fault-seed", at_least(0)),
    ("--fault-permanent", Kind::Switch),
    ("--swap-fallback-budget", at_least(0)),
    ("--gc-deadline-cycles", at_least(0)),
    ("--degrade-policy", Kind::Text),
    ("--trace", Kind::Text),
    ("--trace-summary", Kind::Switch),
    ("--tlb-oracle", Kind::Switch),
    ("--crash-plan", Kind::Text),
    ("--wal-mutate", Kind::Text),
    ("--scheduler", Kind::Text),
    ("--core-base", at_least(0)),
    ("--dram-fraction", Kind::Unit),
    ("--device-fault-rate", Kind::Unit),
    ("--device-fault-seed", at_least(0)),
    ("--device-offline-after", at_least(0)),
    ("--bench-json", Kind::Text),
];

const MULTI_FLAGS: &[Flag] = &[
    ("--jvms", at_least(1)),
    ("--collector", Kind::Text),
    ("--machine", Kind::Text),
    ("--gc-threads", at_least(1)),
    ("--scheduler", Kind::Text),
];

const FLEET_FLAGS: &[Flag] = &[
    ("--victim-fault-rate", Kind::Unit),
    ("--seed", at_least(0)),
    ("--tenants", at_least(1)),
    ("--victims", Kind::Text),
    ("--steps", at_least(0)),
    ("--live-objects", at_least(1)),
    ("--quota-fraction", Kind::Positive),
    ("--max-attempts", Kind::Int(1, u32::MAX as u64)),
    ("--no-pressure", Kind::Switch),
    ("--machine", Kind::Text),
];

const PROTOCOL_FLAGS: &[Flag] = &[("--deep", Kind::Switch)];

/// Print `e` with the usage text and exit 2: the one error path of a
/// malformed command line, taken before anything runs.
fn or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

fn collector(name: Option<&str>) -> Result<CollectorKind, String> {
    Ok(match name.unwrap_or("svagc") {
        "svagc" => CollectorKind::Svagc,
        "memmove" => CollectorKind::SvagcMemmove,
        "parallelgc" => CollectorKind::ParallelGc,
        "shenandoah" => CollectorKind::Shenandoah,
        other => return Err(format!("unknown collector {other:?}")),
    })
}

fn machine(name: Option<&str>) -> Result<MachineConfig, String> {
    Ok(match name.unwrap_or("6130") {
        "6130" => MachineConfig::xeon_gold_6130(),
        "6240" => MachineConfig::xeon_gold_6240(),
        "i5" => MachineConfig::i5_7600(),
        other => return Err(format!("unknown machine {other:?}")),
    })
}

fn scheduler(name: &str) -> Result<SchedulerKind, String> {
    SchedulerKind::parse(name)
        .ok_or_else(|| format!("unknown scheduler {name:?} (barrier | packets)"))
}

/// The configuration `run` and `recover` ask for.
fn run_config(fs: &Parsed) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::new(collector(fs.text("--collector"))?);
    cfg.machine = machine(fs.text("--machine"))?;
    cfg.heap_factor = fs.get("--heap-factor").unwrap_or(cfg.heap_factor);
    cfg.gc.gc_threads = fs.get("--gc-threads").unwrap_or(cfg.gc.gc_threads);
    cfg.steps = fs.get("--steps").or(cfg.steps);
    cfg.threshold_pages = fs.get("--threshold").or(cfg.threshold_pages);
    cfg.instrumented = fs.on("--instrumented");
    cfg.gc.verify_phases = fs.on("--verify-phases");
    cfg.concurrent = fs.on("--concurrent");
    let seed = fs.get("--fault-seed").unwrap_or(FAULT_SEED);
    // A zero rate injects nothing, and such a run prints no resilience
    // line, as one without the flag.
    cfg.faults = fs.get("--fault-rate").filter(|&p| p > 0.0).map(|p| {
        if fs.on("--fault-permanent") {
            FaultConfig::permanent_only(p, seed)
        } else {
            FaultConfig::uniform(p, seed)
        }
    });
    let fault_flags = ["--fault-seed", "--fault-permanent"];
    requires(fs, &fault_flags, cfg.faults.is_some(), "a non-zero --fault-rate")?;
    if let Some(budget) = fs.get("--swap-fallback-budget") {
        cfg.gc.retry = cfg.gc.retry.with_fallback_budget(Some(budget));
    }
    cfg.gc.deadline_cycles = fs.get("--gc-deadline-cycles").or(cfg.gc.deadline_cycles);
    if let Some(p) = fs.text("--degrade-policy") {
        cfg.gc.degrade = DegradePolicy::parse(p)
            .ok_or_else(|| format!("unknown degrade policy {p:?} (off | standard | standard:N)"))?;
    }
    cfg.trace = fs.on("--trace") || fs.on("--trace-summary");
    cfg.tlb_oracle = fs.on("--tlb-oracle");
    if let Some(spec) = fs.text("--crash-plan") {
        cfg.crash_plans = spec.split(',').map(CrashPlan::parse).collect::<Option<_>>()
            .ok_or_else(|| format!("bad crash plan {spec:?} (want point[:n],...)"))?;
    }
    if let Some(m) = fs.text("--wal-mutate") {
        cfg.wal_mutation = Some(WalMutation::parse(m).ok_or_else(|| {
            format!("unknown WAL mutation {m:?} (skip-commit | drop-intent | corrupt-preimage)")
        })?);
    }
    cfg.gc.scheduler =
        fs.text("--scheduler").map(scheduler).transpose()?.unwrap_or(cfg.gc.scheduler);
    cfg.gc.core_base = fs.get("--core-base").unwrap_or(cfg.gc.core_base);
    cfg.tier = fs.get("--dram-fraction").map(TierPolicy::new);
    const DEVICE_FLAGS: &[&str] =
        &["--device-fault-rate", "--device-fault-seed", "--device-offline-after"];
    requires(fs, DEVICE_FLAGS, cfg.tier.is_some(), "--dram-fraction")?;
    if DEVICE_FLAGS.iter().any(|f| fs.on(f)) {
        cfg.device_faults = Some(DeviceFaultConfig {
            offline_after: fs.get("--device-offline-after"),
            ..DeviceFaultConfig::uniform(
                fs.get("--device-fault-rate").unwrap_or(0.0),
                fs.get("--device-fault-seed").unwrap_or(DEVICE_FAULT_SEED),
            )
        });
    }
    Ok(cfg)
}

/// Refuse any of `flags` given without what they act on: `met` says
/// whether `what` was asked for too.
fn requires(fs: &Parsed, flags: &[&str], met: bool, what: &str) -> Result<(), String> {
    match flags.iter().find(|f| fs.on(f)) {
        Some(flag) if !met => Err(format!("{flag} does nothing without {what}")),
        _ => Ok(()),
    }
}

/// The fleet `fleet` asks for.
fn fleet_spec(fs: &Parsed) -> Result<NoisySpec, String> {
    let mut spec = NoisySpec::standard(
        fs.get("--victim-fault-rate").unwrap_or(0.10),
        fs.get("--seed").unwrap_or(42),
    );
    spec.tenants = fs.get("--tenants").unwrap_or(spec.tenants);
    if let Some(v) = fs.text("--victims") {
        spec.victims = v.split(',').map(|s| s.trim().parse()).collect::<Result<_, _>>()
            .map_err(|_| format!("--victims {v:?} is not a list of tenant indices i,j,..."))?;
    }
    spec.steps = fs.get("--steps").unwrap_or(spec.steps);
    spec.live_objects = fs.get("--live-objects").unwrap_or(spec.live_objects);
    spec.quota_fraction = fs.get("--quota-fraction").unwrap_or(spec.quota_fraction);
    spec.max_attempts = fs.get("--max-attempts").unwrap_or(spec.max_attempts);
    spec.pressure = !fs.on("--no-pressure");
    if spec.victims.iter().any(|&v| v >= spec.tenants) {
        return Err("--victims indices must be < --tenants".into());
    }
    Ok(spec)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            or_usage(args::parse(&[], &args[1..], false));
            println!("workloads:");
            for w in suite::standard_suite() {
                println!(
                    "  {:<16} threads {:>4}  min heap {:>7.1} MiB",
                    w.name(),
                    w.threads(),
                    w.min_heap_bytes() as f64 / (1 << 20) as f64
                );
            }
            println!("  {:<16} threads {:>4}  (multi-JVM scalability workload)", "LRUCache", 1);
            println!("collectors: svagc | memmove | parallelgc | shenandoah");
        }
        Some(cmd @ ("run" | "recover")) => {
            let do_recover = cmd == "recover";
            let fs = or_usage(args::parse(RUN_FLAGS, &args[1..], false));
            let name = or_usage(fs.text("--workload").ok_or("--workload is required".into()));
            let mut w = or_usage(
                suite::by_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?} (try `svagc list`)")),
            );
            let cfg = or_usage(run_config(&fs));
            let (trace_path, bench_json) = (fs.text("--trace"), fs.text("--bench-json"));

            let r0 = Rusage::now();
            let t0 = std::time::Instant::now();
            let outcome = run_with_crash(w.as_mut(), &cfg, do_recover).unwrap_or_else(|f| {
                eprintln!("{cmd} failed: {f}");
                std::process::exit(f.kind.exit_code());
            });
            let r = match outcome {
                CrashOutcome::Completed(r) => {
                    if do_recover && cfg.crash_plans.is_empty() {
                        eprintln!("note: no crash plan armed; the run completed normally");
                    }
                    *r
                }
                CrashOutcome::Crashed(rep) => {
                    println!(
                        "crash        : machine died at {} after {} completed step(s)",
                        rep.point, rep.steps_completed
                    );
                    let Some(rec) = &rep.recovery else {
                        eprintln!("machine crashed (re-run with `recover` to replay the journal)");
                        std::process::exit(13);
                    };
                    match &rec.outcome {
                        Ok(rr) => {
                            let snapshot = if rr.class == CycleClass::Committed {
                                "post-cycle"
                            } else {
                                "pre-cycle"
                            };
                            println!(
                                "recovery     : epoch {} {} | {} op(s) / {} page(s) undone | {} attempt(s)",
                                rr.epoch,
                                rr.class.name(),
                                rr.undone_ops,
                                rr.undone_pages,
                                rec.attempts
                            );
                            println!(
                                "heap         : {} objects, {} roots rebuilt from the journal",
                                rr.objects, rr.roots
                            );
                            println!("heap hash    : {:#018x}", rr.content_hash);
                            println!("verify       : ok (bit-identical to the {snapshot} snapshot)");
                            if let Some(path) = bench_json {
                                let mut rep2 = Report::new(
                                    "cli_recover",
                                    &format!("{name} crash recovery ({})", cfg.machine.name),
                                );
                                rep2.counters_from(&rep.registry());
                                let host = HostInfo {
                                    wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                                    rusage: Rusage::since(r0),
                                    threads: 1,
                                    parallel: false,
                                };
                                std::fs::write(path, rep2.bench_json(&host)).unwrap_or_else(|e| {
                                    eprintln!("cannot write BENCH record to {path:?}: {e}");
                                    std::process::exit(1);
                                });
                                println!("bench json   : {} -> {path}", rep2.sim_digest());
                            }
                            std::process::exit(0);
                        }
                        Err(why) => {
                            eprintln!(
                                "recovery FAILED closed after {} attempt(s): {why}",
                                rec.attempts
                            );
                            std::process::exit(14);
                        }
                    }
                }
            };
            let host_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let host_rusage = Rusage::since(r0);
            println!("workload     : {}", r.workload);
            println!("collector    : {}", r.collector);
            if cfg.gc.scheduler == SchedulerKind::Packets {
                println!(
                    "scheduler    : packets ({} packets | {} steals | {} steal cycles)",
                    r.gc.total_sched_packets(),
                    r.gc.total_sched_steals(),
                    r.gc.total_sched_steal_cycles()
                );
            }
            println!(
                "heap         : {:.1} MiB ({}x of {:.1} MiB minimum)",
                r.heap_bytes as f64 / (1 << 20) as f64,
                cfg.heap_factor,
                r.min_heap_bytes as f64 / (1 << 20) as f64
            );
            println!("steps        : {}", r.steps);
            println!("full GCs     : {}", r.gc.count());
            println!(
                "GC pause     : total {:.3} ms | avg {:.3} ms | max {:.3} ms",
                r.gc_total_ms(),
                r.gc_avg_ms(),
                r.gc_max_ms()
            );
            println!(
                "app / total  : {:.3} ms / {:.3} ms  (throughput {:.1} steps/s)",
                r.app_wall.at_ghz(r.freq_ghz).as_millis(),
                r.total_wall.at_ghz(r.freq_ghz).as_millis(),
                r.throughput()
            );
            println!(
                "moved        : {} objects swapped (zero-copy), {:.2} MiB memmoved",
                r.perf.objects_swapped,
                r.perf.bytes_copied as f64 / (1 << 20) as f64
            );
            if cfg.instrumented {
                println!(
                    "cache miss   : {:.2}%   dtlb miss: {:.2}%",
                    r.perf.cache_miss_pct(),
                    r.perf.dtlb_miss_pct()
                );
            }
            if cfg.faults.is_some() {
                println!(
                    "resilience   : {} faults injected | {} retries | {} fallbacks | {} batch splits",
                    r.gc.total_faults_injected(),
                    r.gc.total_swap_retries(),
                    r.gc.total_swap_fallbacks(),
                    r.gc.total_batch_splits()
                );
            }
            let gc = &cfg.gc;
            if gc.deadline_cycles.is_some() || gc.degrade.enabled || r.gc.total_aborts() > 0 {
                println!(
                    "transactions : {} aborts | {} watchdog expiries | {} pages rolled back | peak mode {}",
                    r.gc.total_aborts(),
                    r.gc.total_watchdog_expiries(),
                    r.gc.total_rollback_pages(),
                    DegradedMode::from_level(r.gc.max_mode()).name()
                );
            }
            if r.tier_mode != "off" {
                println!(
                    "far tier     : mode {} | {} demotions | {} promotions | {} on-access \
                     fetches | {} retries | {} device fault(s) | degraded {} / recovered {}",
                    r.tier_mode,
                    r.tier.demotions,
                    r.tier.promotions,
                    r.tier.fetch_on_access,
                    r.tier.writeback_retries + r.tier.fetch_retries,
                    r.device.faults,
                    r.tier_ctl.degraded,
                    r.tier_ctl.recovered
                );
                println!(
                    "tier oracle  : ok (residency and device empty, heap fully resident)"
                );
            }
            if r.tlb_oracle.enabled {
                println!(
                    "tlb oracle   : {} hits checked | {} stale | {} audit violations",
                    r.tlb_oracle.checks,
                    r.tlb_oracle.stale_hits,
                    r.tlb_oracle.audit_violations
                );
            }
            println!("heap hash    : {:#018x}", r.heap_hash);
            println!("verify       : {}", if r.verify_ok { "ok" } else { "FAILED" });
            if let Some(path) = trace_path {
                let json = svagc_metrics::chrome_trace_json(&r.trace);
                std::fs::write(path, &json).unwrap_or_else(|e| {
                    eprintln!("cannot write trace to {path:?}: {e}");
                    std::process::exit(1);
                });
                println!("trace        : {} events -> {path}", r.trace.len());
            }
            if fs.on("--trace-summary") {
                println!();
                println!("{}", svagc_metrics::trace_summary(&r.trace, 10, cfg.machine.cores));
                println!("-- counter registry --");
                println!("{}", r.registry().render());
            }
            if let Some(path) = bench_json {
                let mut rep = Report::new(
                    "cli_run",
                    &format!("{} under {} ({})", r.workload, r.collector, cfg.machine.name),
                );
                rep.counters_from(&r.registry());
                rep.counter("gc.pause_cycles", r.gc_pause_cycles());
                rep.counter("sim.total_cycles", r.total_cycles());
                rep.derived("gc_total_ms", r.gc_total_ms());
                rep.derived("gc_avg_ms", r.gc_avg_ms());
                rep.derived("gc_max_ms", r.gc_max_ms());
                rep.derived("throughput_steps_per_s", r.throughput());
                let host = HostInfo {
                    wall_ms: host_wall_ms,
                    rusage: host_rusage,
                    threads: 1,
                    parallel: false,
                };
                std::fs::write(path, rep.bench_json(&host)).unwrap_or_else(|e| {
                    eprintln!("cannot write BENCH record to {path:?}: {e}");
                    std::process::exit(1);
                });
                println!("bench json   : {} -> {path}", rep.sim_digest());
            }
        }
        Some("multi") => {
            let fs = or_usage(args::parse(MULTI_FLAGS, &args[1..], false));
            let n = or_usage(fs.get("--jvms").ok_or("--jvms is required".into()));
            let mut base = RunConfig::new(or_usage(collector(fs.text("--collector"))));
            base.machine = or_usage(machine(fs.text("--machine")));
            base.gc.gc_threads = fs.get("--gc-threads").unwrap_or(4);
            base.gc.scheduler = or_usage(fs.text("--scheduler").map(scheduler).transpose())
                .unwrap_or(base.gc.scheduler);
            let res = run_multi(
                n,
                |i| Box::new(LruCache::new(192, 2 << 20, 8, 100 + i as u64)),
                &base,
            )
            .unwrap_or_else(|e| {
                eprintln!("multi-JVM run failed: {e}");
                std::process::exit(1);
            });
            println!("JVMs         : {n} x LRUCache on {}", base.machine.name);
            println!("collector    : {}", base.collector().label());
            println!(
                "per-JVM mean : GC total {:.3} ms | GC max {:.3} ms | app {:.2} ms | total {:.2} ms",
                res.avg_gc_total_ms(),
                res.avg_gc_max_ms(),
                res.avg_app_ms(),
                res.avg_total_ms()
            );
        }
        Some("fleet") => {
            let fs = or_usage(args::parse(FLEET_FLAGS, &args[1..], false));
            let spec = or_usage(fleet_spec(&fs));
            let mut base = RunConfig::new(CollectorKind::Svagc);
            base.machine = or_usage(machine(fs.text("--machine")));
            let (quota, headroom) =
                or_usage(noisy::quota_frames(&spec, &base).map_err(|e| e.to_string()));
            let out = noisy::run_noisy_neighbor(&spec, &base).unwrap_or_else(|e| {
                eprintln!("fleet FAILED: {e}");
                std::process::exit(1);
            });
            println!(
                "fleet        : {} tenants x {} quota frames ({} GC headroom), \
                 pressure {}",
                spec.tenants,
                quota,
                headroom,
                if spec.pressure { "on" } else { "off" }
            );
            println!(
                "victims      : {:?} at {:.1}% permanent fault rate, {} attempt(s)",
                spec.victims,
                100.0 * spec.victim_fault_rate,
                spec.max_attempts
            );
            let mut first_quarantine: Option<i32> = None;
            for (i, o) in out.faulty.outcomes.iter().enumerate() {
                match o {
                    TenantOutcome::Completed(r) => println!(
                        "tenant {i:>2}    : completed | {} frames | throughput {:.1} steps/s | \
                         pressure remedies {} | heap hash {:#018x}",
                        r.frames_in_use,
                        r.throughput(),
                        r.pressure.denial_remedies + r.pressure.signal_gcs,
                        r.heap_hash
                    ),
                    TenantOutcome::Quarantined { kind, message, attempts, frames_reclaimed } => {
                        first_quarantine.get_or_insert(kind.exit_code());
                        println!(
                            "tenant {i:>2}    : QUARANTINED [{}] after {attempts} attempt(s), \
                             {frames_reclaimed} frame(s) reclaimed: {message}",
                            kind.label()
                        );
                    }
                }
            }
            println!(
                "isolation    : ok ({} healthy tenant(s) bit-identical to the fault-free twin)",
                out.isolation_compared
            );
            println!(
                "frame leak   : ok ({} frame(s) audited, pool in-use == survivors' footprints)",
                out.frames_audited
            );
            if let Some(code) = first_quarantine {
                std::process::exit(code);
            }
        }
        Some("protocol-check") => {
            let fs = or_usage(args::parse(PROTOCOL_FLAGS, &args[1..], false));
            let mut universes = vec![("default", ModelConfig::default_check())];
            if fs.on("--deep") {
                // Larger bound: 4 cores x 4 pages x a 3-swap chain. Too slow
                // for the debug test suite; the CI protocol-check job runs it
                // in release mode.
                universes.push((
                    "deep",
                    ModelConfig {
                        cores: 4,
                        pages: 4,
                        swaps: vec![(0, 1), (1, 2), (2, 3)],
                        max_cycle_reads: 2,
                        max_migrations: 1,
                    },
                ));
            }
            let mut failed = false;
            for (label, cfg) in &universes {
                println!(
                    "universe {label}: {} cores x {} pages, swaps {:?}, \
                     <= {} mutator reads, <= {} migrations",
                    cfg.cores, cfg.pages, cfg.swaps, cfg.max_cycle_reads, cfg.max_migrations
                );
                for mode in
                    [FlushMode::GlobalBroadcast, FlushMode::LocalOnly, FlushMode::Tracked]
                {
                    let rep = protocol::check_protocol(mode, cfg);
                    match &rep.counterexample {
                        None => println!(
                            "  {mode:?}: no stale translation over {} states",
                            rep.states_explored
                        ),
                        Some(cex) => {
                            failed = true;
                            println!(
                                "  {mode:?}: VIOLATION after {} states:\n{cex}",
                                rep.states_explored
                            );
                        }
                    }
                }
                println!("  mutation suite:");
                for rep in protocol::mutation_suite(cfg) {
                    let m = rep.mutation.expect("suite reports carry their mutation");
                    match &rep.counterexample {
                        Some(cex) => println!(
                            "  [detected] {} ({:?}, {} states):\n{cex}",
                            m.label(),
                            rep.mode,
                            rep.states_explored
                        ),
                        None => {
                            failed = true;
                            println!(
                                "  [MISSED] {} ({:?}) — checker has no teeth for this bug",
                                m.label(),
                                rep.mode
                            );
                        }
                    }
                }
            }
            if failed {
                eprintln!("protocol-check FAILED");
                std::process::exit(1);
            }
            println!("protocol-check ok");
        }
        _ => usage(),
    }
}
