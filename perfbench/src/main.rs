//! The SVAGC simulator benchmark: runs one workload through the real
//! driver (`svagc_workloads::driver::run`) for a fixed host-time budget,
//! checks every rep's output, and prints every metric by name with its
//! unit. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! svagc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced reps.
//! `--trace 1` interleaves untraced and traced reps and reports the
//! per-layer metrics: host time per layer from the observers in
//! [`observe`], exact simulator counts, and the layer probes in
//! [`probes`]. See `perfbench/README.md`.

mod clock;
mod observe;
mod probes;
mod reference;
mod suite;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use svagc_kernel::WalStats;
use svagc_metrics::{MachineConfig, Registry};
use svagc_workloads::{driver, RunResult};

use observe::{LayerTimes, Observed};
use suite::{Kind, MIN_GC_CYCLES};

/// Reps a run measures at least, whatever the time budget.
const MIN_REPS: usize = 5;
/// Untraced/traced pairs a traced run measures at least.
const MIN_PAIRS: usize = 3;
/// Upper bound on reps, so a budget far above the rep cost stays bounded.
const MAX_REPS: usize = 200;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = suite::DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a non-empty sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// One driver run with its host readings. Host times are scaled to the
/// nominal host speed by the reference loop that brackets the rep (see
/// [`reference`]); the raw readings are kept for diagnosis.
struct Rep {
    result: Result<RunResult, String>,
    /// CPU seconds from the start of the run to the first step.
    raw_setup_s: f64,
    /// CPU seconds from the first step to the end of the run (steps,
    /// verification, end-of-run oracles).
    raw_run_s: f64,
    /// Mean CPU seconds of the reference loop run just before and just
    /// after this rep.
    reference_s: f64,
    wal: WalStats,
    traced: bool,
    layers: LayerTimes,
}

impl Rep {
    fn scale(&self) -> f64 {
        reference::NOMINAL_S / self.reference_s
    }

    fn setup_s(&self) -> f64 {
        self.raw_setup_s * self.scale()
    }

    fn run_cpu_s(&self) -> f64 {
        self.raw_run_s * self.scale()
    }
}

fn run_rep(kind: Kind, seed: u64, traced: bool) -> Rep {
    let before = reference::reference_s();
    let cfg = kind.config(seed);
    let mut w = Observed::new(kind.workload(seed), traced);
    let c0 = clock::thread_cpu_ns();
    let result = driver::run(&mut w, &cfg);
    let c2 = clock::thread_cpu_ns();
    let c1 = w.first_step_cpu_ns.unwrap_or(c2);
    let after = reference::reference_s();
    let rep = Rep {
        result,
        raw_setup_s: (c1 - c0) as f64 * 1e-9,
        raw_run_s: (c2 - c1) as f64 * 1e-9,
        reference_s: (before + after) / 2.0,
        wal: w.wal,
        traced,
        layers: w.layer_times(),
    };
    eprintln!(
        "rep traced={traced} raw_setup_s={:.6} raw_run_s={:.6} reference_s={:.6} run_cpu_s={:.6}",
        rep.raw_setup_s,
        rep.raw_run_s,
        rep.reference_s,
        rep.run_cpu_s()
    );
    rep
}

/// The correctness gate: every rep must succeed (the driver runs the
/// workload's `verify` and, on a tiered run, the tier invisibility
/// oracle), collect at least [`MIN_GC_CYCLES`] cycles, and end with the
/// heap hash and sim registry of the first rep.
struct Gate {
    reference: Option<(u64, Registry)>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn admit(&mut self, rep: &Rep) -> bool {
        self.attempted += 1;
        let verdict = match &rep.result {
            Err(e) => Err(format!("driver error: {e}")),
            Ok(r) => self.check(r, rep),
        };
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("rep {} failed: {e}", self.attempted);
                false
            }
        }
    }

    fn check(&mut self, r: &RunResult, rep: &Rep) -> Result<(), String> {
        if !r.verify_ok {
            return Err("workload verification failed".into());
        }
        if r.gc.count() < MIN_GC_CYCLES {
            return Err(format!(
                "only {} GC cycles in a rep (at least {MIN_GC_CYCLES} needed for the p90 pause)",
                r.gc.count()
            ));
        }
        if rep.traced && rep.layers.collect_calls != r.gc.count() as u64 {
            return Err(format!(
                "observer saw {} collect calls but the run logged {} GC cycles",
                rep.layers.collect_calls,
                r.gc.count()
            ));
        }
        let reg = r.registry();
        match &self.reference {
            None => self.reference = Some((r.heap_hash, reg)),
            Some((hash, first)) => {
                if r.heap_hash != *hash {
                    return Err(format!(
                        "heap hash {:#x} differs from the first rep's {hash:#x}",
                        r.heap_hash
                    ));
                }
                if reg != *first {
                    return Err("sim registry differs from the first rep's".into());
                }
            }
        }
        Ok(())
    }

    fn fail(&mut self, e: String) {
        eprintln!("check failed: {e}");
        self.failed += 1;
    }
}

/// Workload-specific checks that do not depend on the rep: the tiered
/// run's heap equals a DRAM-only stop-the-world run's, and each layer is
/// exercised (or left idle) where the workload's design says.
fn check_workload(kind: Kind, seed: u64, r: &RunResult, wal: &WalStats, gate: &mut Gate) {
    if let Some(cfg) = kind.reference_config() {
        gate.attempted += 1;
        match driver::run(&mut *kind.workload(seed), &cfg) {
            Ok(reference) if reference.heap_hash == r.heap_hash => {}
            Ok(reference) => gate.fail(format!(
                "tier invisibility: tiered heap hash {:#x} != DRAM-only {:#x}",
                r.heap_hash, reference.heap_hash
            )),
            Err(e) => gate.fail(format!("DRAM-only reference run failed: {e}")),
        }
    }
    let expect = |gate: &mut Gate, what: &str, value: u64, nonzero: bool| {
        if (value > 0) != nonzero {
            let want = if nonzero { "non-zero" } else { "zero" };
            gate.fail(format!(
                "{what} = {value} on {}, expected {want}",
                kind.name()
            ));
        }
    };
    expect(
        gate,
        "kernel.wal_appends",
        wal.appends,
        kind == Kind::DurableTiered,
    );
    expect(
        gate,
        "metrics.cache_accesses",
        r.perf.cache_accesses,
        kind == Kind::CacheModel,
    );
    match kind {
        Kind::SwapLarge => expect(gate, "kernel.pte_swaps", r.perf.pte_swaps, true),
        Kind::SmallObjects => expect(gate, "kernel.pte_swaps", r.perf.pte_swaps, false),
        Kind::CacheModel => expect(gate, "vmem.tlb_misses", r.perf.tlb_misses, true),
        Kind::DurableTiered => {
            expect(gate, "kernel.tier_demotions", r.tier.demotions, true);
            expect(
                gate,
                "kernel.swap_faults_injected",
                r.perf.swap_faults_injected,
                true,
            );
        }
    }
}

/// Metrics in print order (name, value, unit), and the GC cycles per
/// rep the pause percentiles were taken over.
#[derive(Default)]
struct Metrics {
    list: Vec<(&'static str, f64, &'static str)>,
    gc_cycles: usize,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.list.push((name, value, unit));
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .list
            .iter()
            .map(|(n, v, u)| {
                assert!(v.is_finite(), "metric {n} is not finite: {v}");
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn mcycles(c: u64) -> f64 {
    c as f64 / 1e6
}

/// The end-to-end metrics (`--trace 0`).
fn end_to_end(args: &Args, gate: &mut Gate) -> Metrics {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let first = run_rep(args.kind, args.seed, false); // warm-up, checked but not timed
    gate.admit(&first);
    let mut reps = Vec::new();
    let mut tries = 0;
    while tries < MIN_REPS || (Instant::now() < deadline && tries < MAX_REPS) {
        tries += 1;
        let rep = run_rep(args.kind, args.seed, false);
        if gate.admit(&rep) {
            reps.push(rep);
        }
    }
    // Nothing else ran in this process: its peak RSS is the workload's.
    let peak_rss_mib = clock::peak_rss_mib();
    let mut m = Metrics::default();
    let Some(r) = reps.first().and_then(|rep| rep.result.as_ref().ok()) else {
        return m;
    };
    check_workload(args.kind, args.seed, r, &reps[0].wal, gate);
    let run_cpu_s = median(&reps.iter().map(Rep::run_cpu_s).collect::<Vec<_>>());
    let setup_s = median(&reps.iter().map(Rep::setup_s).collect::<Vec<_>>());
    let mut pauses: Vec<u64> = r.gc.cycles.iter().map(|c| c.pause().get()).collect();
    pauses.sort_unstable();
    println!("timed reps: {} of {} steps", reps.len(), r.steps);
    m.gc_cycles = r.gc.count();
    m.put("run_cpu_s", run_cpu_s, "s");
    m.put("setup_s", setup_s, "s");
    m.put(
        "sim_mcycles_per_cpu_s",
        mcycles(r.total_cycles()) / run_cpu_s,
        "Mcycles/s",
    );
    m.put("peak_rss_mib", peak_rss_mib, "MiB");
    m.put(
        "sim_pause_total_mcycles",
        mcycles(r.gc_pause_cycles()),
        "Mcycles",
    );
    m.put(
        "sim_pause_p50_mcycles",
        mcycles(percentile(&pauses, 0.5)),
        "Mcycles",
    );
    m.put(
        "sim_pause_p90_mcycles",
        mcycles(percentile(&pauses, 0.9)),
        "Mcycles",
    );
    m.put("sim_throughput_steps_per_s", r.throughput(), "1/s");
    m
}

/// The per-layer metrics (`--trace 1`).
fn per_layer(args: &Args, gate: &mut Gate) -> Metrics {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let first = run_rep(args.kind, args.seed, false); // warm-up and reference
    gate.admit(&first);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut probed = None;
    let mut pairs = 0;
    while pairs < MIN_PAIRS || (Instant::now() < deadline && pairs < MAX_REPS / 2) {
        // Alternate which side of the pair runs first, so slow drift of
        // the host hits both sides alike.
        for on in [pairs % 2 == 1, pairs % 2 == 0] {
            let rep = run_rep(args.kind, args.seed, on);
            if gate.admit(&rep) {
                if on { &mut traced } else { &mut plain }.push(rep);
            }
        }
        pairs += 1;
        if probed.is_none() {
            // Between pairs, so the reps after it show the probes left
            // the workload's state and counters alone.
            let scale = reference::NOMINAL_S / reference::reference_s();
            probed = Some(probes::run(&MachineConfig::xeon_gold_6130()).scaled(scale));
        }
    }
    let mut m = Metrics::default();
    let (Some(p), Some(r0), Some(t0)) = (probed, plain.first(), traced.first()) else {
        return m;
    };
    let Ok(r) = r0.result.as_ref() else {
        unreachable!("admitted reps succeeded")
    };
    check_workload(args.kind, args.seed, r, &r0.wal, gate);

    let med =
        |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let plain_cpu = med(&plain, &Rep::run_cpu_s);
    let traced_cpu = med(&traced, &Rep::run_cpu_s);
    // Span times, scaled like the rep's CPU times.
    let span =
        |f: fn(&LayerTimes) -> u64| med(&traced, &|r| f(&r.layers) as f64 * 1e-9 * r.scale());
    let lt = t0.layers;

    m.put("workloads.setup_s", span(|l| l.setup_ns), "s");
    m.put("workloads.step_self_s", span(LayerTimes::step_self_ns), "s");
    m.count("workloads.step_calls", lt.step_calls);
    m.put("workloads.verify_s", span(|l| l.verify_ns), "s");
    m.put("core.collect_s", span(|l| l.collect_ns), "s");
    m.count("core.collect_calls", lt.collect_calls);
    m.put("core.write_barrier_s", span(|l| l.barrier_ns), "s");
    m.count("core.write_barrier_calls", lt.barrier_calls);

    m.put("vmem.walk_ns", p.walk_ns, "ns");
    m.put("vmem.tlb_lookup_ns", p.tlb_lookup_ns, "ns");
    m.put("kernel.translate_ns", p.translate_ns, "ns");
    m.put("metrics.cache_access_ns", p.cache_access_ns, "ns");
    m.put(
        "kernel.swap_va_batch_ns_per_page",
        p.swap_va_batch_ns_per_page,
        "ns/page",
    );
    m.put("kernel.memmove_ns_per_kib", p.memmove_ns_per_kib, "ns/KiB");
    m.put(
        "heap.content_hash_ns_per_object",
        p.content_hash_ns_per_object,
        "ns/object",
    );
    let share = |ops: u64, ns: f64| ops as f64 * ns * 1e-9 / plain_cpu;
    m.put(
        "metrics.cache_est_share",
        share(r.perf.cache_accesses, p.cache_access_ns),
        "ratio",
    );
    m.put(
        "kernel.translate_est_share",
        share(r.perf.tlb_lookups, p.translate_ns),
        "ratio",
    );

    let phases = r.gc.phase_totals();
    m.count("vmem.pt_level_accesses", r.perf.pt_level_accesses);
    m.count("vmem.pmd_cache_hits", r.perf.pmd_cache_hits);
    m.count("vmem.tlb_lookups", r.perf.tlb_lookups);
    m.count("vmem.tlb_misses", r.perf.tlb_misses);
    m.count("kernel.syscalls", r.perf.syscalls);
    m.count("kernel.pte_swaps", r.perf.pte_swaps);
    m.count("kernel.ipis_sent", r.perf.ipis_sent);
    m.count(
        "kernel.tlb_flushes",
        r.perf.tlb_flushes_local + r.perf.tlb_flushes_page,
    );
    m.put("kernel.bytes_copied", r.perf.bytes_copied as f64, "bytes");
    m.count("kernel.wal_appends", r0.wal.appends);
    m.put(
        "kernel.wal_mib",
        (r0.wal.words * 8) as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    m.count("kernel.tier_demotions", r.tier.demotions);
    m.count("kernel.tier_fetch_on_access", r.tier.fetch_on_access);
    m.count("kernel.device_faults", r.device.faults);
    m.count("kernel.swap_faults_injected", r.perf.swap_faults_injected);
    m.count("metrics.cache_accesses", r.perf.cache_accesses);
    m.count("metrics.cache_misses", r.perf.cache_misses);
    m.count("heap.objects_moved", r.perf.objects_moved);
    m.put("core.mark_mcycles", mcycles(phases.mark.get()), "Mcycles");
    m.put(
        "core.forward_mcycles",
        mcycles(phases.forward.get()),
        "Mcycles",
    );
    m.put(
        "core.adjust_mcycles",
        mcycles(phases.adjust.get()),
        "Mcycles",
    );
    m.put(
        "core.compact_mcycles",
        mcycles(phases.compact.get()),
        "Mcycles",
    );
    m.put(
        "core.shootdown_mcycles",
        mcycles(phases.shootdown.get()),
        "Mcycles",
    );
    m.put(
        "core.interference_mcycles",
        mcycles(r.gc.total_interference().get()),
        "Mcycles",
    );
    m.count("core.swap_retries", r.gc.total_swap_retries());
    m.count("core.swap_fallbacks", r.gc.total_swap_fallbacks());
    m.count("core.sched_steals", r.gc.total_sched_steals());
    m.put(
        "core.sched_steal_mcycles",
        mcycles(r.gc.total_sched_steal_cycles()),
        "Mcycles",
    );
    m.count("core.satb_logged", r.gc.total_satb_logged());
    m.put(
        "core.concurrent_mark_mcycles",
        mcycles(r.gc.total_concurrent_mark().get()),
        "Mcycles",
    );
    m.count("gc_cycles", r.gc.count() as u64);
    m.put(
        "trace_overhead_share",
        traced_cpu / plain_cpu - 1.0,
        "ratio",
    );
    m.put("host.run_cpu_raw_s", med(&plain, &|r| r.raw_run_s), "s");
    m.put("host.reference_s", med(&plain, &|r| r.reference_s), "s");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svagc-perfbench: {e}");
            eprintln!(
                "usage: svagc-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
                 (default seed {}; seed {} is held out for confirming claimed gains)",
                Kind::ALL.map(Kind::name).join("|"),
                suite::DEFAULT_SEED,
                suite::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::new();
    let mut metrics = if args.trace {
        per_layer(&args, &mut gate)
    } else {
        end_to_end(&args, &mut gate)
    };
    if args.trace {
        let share = gate.failed as f64 / gate.attempted.max(1) as f64;
        metrics.put("failed_share", share, "ratio");
    }
    for (name, value, unit) in &metrics.list {
        let beside = if name.starts_with("sim_pause_p") {
            format!("  (over gc_cycles = {})", metrics.gc_cycles)
        } else {
            String::new()
        };
        println!("{name:<36} {value:>16} {unit}{beside}");
    }
    let correct = gate.failed == 0 && !metrics.list.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.attempted,
        gate.failed,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
