//! Whole-benchmark experiments: Figs. 1, 2, 11-16 and Table III.
//!
//! Each function returns serializable rows; [`crate::render`] turns them
//! into tables + JSON. Everything is deterministic.

use svagc_core::TierPolicy;
use svagc_metrics::{impl_to_json, par_map, MachineConfig};
use svagc_workloads::driver::{run, CollectorKind, RunConfig, RunResult};
use svagc_workloads::lrucache::LruCache;
use svagc_workloads::multijvm::run_multi;
use svagc_workloads::suite;

/// One benchmark × collector × heap-factor measurement.
#[derive(Debug, Clone)]
pub struct GcTimeRow {
    /// Benchmark name.
    pub name: String,
    /// Collector label.
    pub collector: &'static str,
    /// Heap factor (1.2 / 2.0).
    pub factor: f64,
    /// Full GC cycles run.
    pub gcs: usize,
    /// Total GC pause (ms).
    pub gc_total_ms: f64,
    /// Average pause (ms).
    pub gc_avg_ms: f64,
    /// Max pause (ms).
    pub gc_max_ms: f64,
    /// Marking time total (ms).
    pub mark_ms: f64,
    /// Forwarding time total (ms).
    pub forward_ms: f64,
    /// Pointer-adjust time total (ms).
    pub adjust_ms: f64,
    /// Compaction time total incl. shootdown (ms).
    pub compact_ms: f64,
    /// Non-compaction phase total (ms).
    pub other_ms: f64,
    /// Application wall time (ms).
    pub app_ms: f64,
    /// Total wall time (ms).
    pub total_ms: f64,
    /// Total GC pause in exact simulated cycles (the `_ms` fields round
    /// through `f64`; the perf gate pins this u64 byte-for-byte).
    pub gc_pause_cycles: u64,
    /// Total wall time in exact simulated cycles.
    pub total_cycles: u64,
    /// Steps per simulated second.
    pub throughput: f64,
    /// perf-style cache-miss % over the run.
    pub cache_miss_pct: f64,
    /// DTLB miss % over the run.
    pub dtlb_miss_pct: f64,
    /// Objects moved by PTE swap.
    pub swapped_objects: u64,
    /// Kernel faults injected over the run (0 unless fault injection is on).
    pub faults_injected: u64,
    /// SwapVA retries after transient faults.
    pub swap_retries: u64,
    /// Objects demoted to memmove after permanent faults.
    pub swap_fallbacks: u64,
    /// Batch swaps split at a failing index and resumed.
    pub batch_splits: u64,
    /// End-of-run integrity check.
    pub verify_ok: bool,
}

impl_to_json!(GcTimeRow {
    name,
    collector,
    factor,
    gcs,
    gc_total_ms,
    gc_avg_ms,
    gc_max_ms,
    mark_ms,
    forward_ms,
    adjust_ms,
    compact_ms,
    other_ms,
    app_ms,
    total_ms,
    gc_pause_cycles,
    total_cycles,
    throughput,
    cache_miss_pct,
    dtlb_miss_pct,
    swapped_objects,
    faults_injected,
    swap_retries,
    swap_fallbacks,
    batch_splits,
    verify_ok,
});

impl GcTimeRow {
    fn from_result(r: &RunResult, factor: f64) -> GcTimeRow {
        let t = |c: svagc_metrics::Cycles| c.at_ghz(r.freq_ghz).as_millis();
        let phases = r.gc.phase_totals();
        GcTimeRow {
            name: r.workload.clone(),
            collector: r.collector,
            factor,
            gcs: r.gc.count(),
            gc_total_ms: r.gc_total_ms(),
            gc_avg_ms: r.gc_avg_ms(),
            gc_max_ms: r.gc_max_ms(),
            mark_ms: t(phases.mark),
            forward_ms: t(phases.forward),
            adjust_ms: t(phases.adjust),
            compact_ms: t(phases.compact_total()),
            other_ms: t(phases.non_compact()),
            app_ms: t(r.app_wall),
            total_ms: t(r.total_wall),
            gc_pause_cycles: r.gc_pause_cycles(),
            total_cycles: r.total_cycles(),
            throughput: r.throughput(),
            cache_miss_pct: r.perf.cache_miss_pct(),
            dtlb_miss_pct: r.perf.dtlb_miss_pct(),
            swapped_objects: r.perf.objects_swapped,
            faults_injected: r.gc.total_faults_injected(),
            swap_retries: r.gc.total_swap_retries(),
            swap_fallbacks: r.gc.total_swap_fallbacks(),
            batch_splits: r.gc.total_batch_splits(),
            verify_ok: r.verify_ok,
        }
    }
}

/// Run one named benchmark under `kind` at `factor`.
///
/// When `SVAGC_TRACE_DIR` is set, the run records trace events and drops
/// a Chrome trace_event JSON per row into that directory — any figure of
/// the suite can be replayed with full cycle-level visibility without
/// touching the figure binaries.
pub fn run_one(
    name: &str,
    kind: CollectorKind,
    factor: f64,
    machine: MachineConfig,
    steps: Option<usize>,
    instrumented: bool,
) -> GcTimeRow {
    let mut w = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut cfg = RunConfig::new(kind);
    cfg.machine = machine;
    cfg.heap_factor = factor;
    cfg.steps = steps;
    cfg.instrumented = instrumented;
    let trace_dir = std::env::var("SVAGC_TRACE_DIR").ok();
    cfg.trace = trace_dir.is_some();
    let r = run(w.as_mut(), &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    if let Some(dir) = trace_dir {
        write_row_trace(&dir, name, &cfg, &r);
    }
    GcTimeRow::from_result(&r, factor)
}

/// Emit one suite row's trace as `<dir>/<bench>_<collector>_<factor>.json`.
fn write_row_trace(dir: &str, name: &str, cfg: &RunConfig, r: &RunResult) {
    let sanitize = |s: &str| {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '.' { c } else { '-' })
            .collect::<String>()
    };
    let file = format!(
        "{}_{}_{:.1}x.json",
        sanitize(name),
        sanitize(r.collector),
        cfg.heap_factor
    );
    let path = std::path::Path::new(dir).join(file);
    if let Err(e) = std::fs::write(&path, svagc_metrics::chrome_trace_json(&r.trace)) {
        eprintln!("SVAGC_TRACE_DIR: cannot write {}: {e}", path.display());
    }
}

/// The benchmark list used by Figs. 11-16.
pub const FIG11_SUITE: [&str; 15] = [
    "FFT.large",
    "FFT.large/8",
    "FFT.large/16",
    "Sparse.large",
    "Sparse.large/2",
    "Sparse.large/4",
    "SOR.large",
    "SOR.large x10",
    "LU.large",
    "Compress",
    "Sigverify",
    "CryptoAES",
    "PR",
    "Bisort",
    "ParallelSort",
];

/// Run the whole suite under one collector/factor. Benchmarks run
/// host-parallel — each is a self-contained deterministic simulation, so
/// the results are identical to a sequential run.
pub fn suite_rows(kind: CollectorKind, factor: f64, steps: Option<usize>) -> Vec<GcTimeRow> {
    par_map(FIG11_SUITE.to_vec(), |name| {
        run_one(
            name,
            kind,
            factor,
            MachineConfig::xeon_gold_6130(),
            steps,
            false,
        )
    })
}

/// Fig. 1: phase breakdown of the memmove LISP2 prototype on the i5-7600.
pub fn fig01_rows() -> Vec<GcTimeRow> {
    ["FFT.large", "Sparse.large"]
        .iter()
        .map(|name| {
            run_one(
                name,
                CollectorKind::SvagcMemmove,
                1.2,
                MachineConfig::i5_7600(),
                None,
                false,
            )
        })
        .collect()
}

/// One N-JVM data point for Figs. 2/14.
#[derive(Debug, Clone)]
pub struct MultiJvmRow {
    /// Concurrent JVM count.
    pub jvms: usize,
    /// Mean total GC time per JVM (ms).
    pub gc_total_ms: f64,
    /// Mean max pause per JVM (ms).
    pub gc_max_ms: f64,
    /// Mean app wall time per JVM (ms).
    pub app_ms: f64,
    /// Mean total wall time per JVM (ms).
    pub total_ms: f64,
    /// Summed GC pause across JVMs, exact simulated cycles.
    pub gc_pause_cycles: u64,
    /// Summed total wall time across JVMs, exact simulated cycles.
    pub total_cycles: u64,
}

impl_to_json!(MultiJvmRow {
    jvms,
    gc_total_ms,
    gc_max_ms,
    app_ms,
    total_ms,
    gc_pause_cycles,
    total_cycles,
});

/// Figs. 2 (ParallelGC) / 14 (SVAGC): LRUCache × N JVMs, 4 GC threads
/// each, on the 32-core machine.
pub fn multijvm_rows(kind: CollectorKind, counts: &[usize]) -> Vec<MultiJvmRow> {
    counts
        .iter()
        .map(|&n| {
            let mut base = RunConfig::new(kind);
            base.machine = MachineConfig::xeon_gold_6130();
            base.gc_threads = 4; // the paper pins GCThreadsCount=4
            base.heap_factor = 1.2;
            let res = run_multi(
                n,
                // Paper geometry: values log-uniform in [1 B, 2 MB]
                // (capacity scaled; see EXPERIMENTS.md).
                |i| Box::new(LruCache::new(192, 2 << 20, 8, 100 + i as u64)),
                &base,
            )
            .expect("multi-JVM run");
            MultiJvmRow {
                jvms: n,
                gc_total_ms: res.avg_gc_total_ms(),
                gc_max_ms: res.avg_gc_max_ms(),
                app_ms: res.avg_app_ms(),
                total_ms: res.avg_total_ms(),
                gc_pause_cycles: res.gc_pause_cycles(),
                total_cycles: res.total_cycles(),
            }
        })
        .collect()
}

/// One Table III row: miss rates under memmove vs SwapVA at both heap
/// factors.
#[derive(Debug, Clone)]
pub struct CacheDtlbRow {
    /// Benchmark name.
    pub name: String,
    /// Cache miss % (memmove) at 1.2× (2×).
    pub cache_memmove: (f64, f64),
    /// Cache miss % (SwapVA) at 1.2× (2×).
    pub cache_swapva: (f64, f64),
    /// DTLB miss % (memmove) at 1.2× (2×).
    pub dtlb_memmove: (f64, f64),
    /// DTLB miss % (SwapVA) at 1.2× (2×).
    pub dtlb_swapva: (f64, f64),
}

impl_to_json!(CacheDtlbRow {
    name,
    cache_memmove,
    cache_swapva,
    dtlb_memmove,
    dtlb_swapva,
});

/// The Table III benchmark list (paper order).
pub const TABLE3_SUITE: [&str; 14] = [
    "Bisort",
    "ParallelSort",
    "Sparse.large/4",
    "Sparse.large/2",
    "Sparse.large",
    "FFT.large/16",
    "FFT.large/8",
    "FFT.large",
    "SOR.large x10",
    "LU.large",
    "CryptoAES",
    "Sigverify",
    "Compress",
    "PR",
];

/// Table III: run each benchmark instrumented under both copy mechanisms
/// and both heap factors (host-parallel; each cell is independent).
pub fn table3_rows(steps: Option<usize>) -> Vec<CacheDtlbRow> {
    par_map(TABLE3_SUITE.to_vec(), |name| {
            let m = MachineConfig::xeon_gold_6130();
            let cell = |kind, factor| {
                let row = run_one(name, kind, factor, m.clone(), steps, true);
                (row.cache_miss_pct, row.dtlb_miss_pct)
            };
            let (cm12, dm12) = cell(CollectorKind::SvagcMemmove, 1.2);
            let (cm20, dm20) = cell(CollectorKind::SvagcMemmove, 2.0);
            let (cs12, ds12) = cell(CollectorKind::Svagc, 1.2);
            let (cs20, ds20) = cell(CollectorKind::Svagc, 2.0);
            CacheDtlbRow {
                name: name.to_string(),
                cache_memmove: (cm12, cm20),
                cache_swapva: (cs12, cs20),
                dtlb_memmove: (dm12, dm20),
                dtlb_swapva: (ds12, ds20),
            }
    })
}

/// One packet-scheduler scaling measurement: the same skewed full-GC
/// heap collected under both schedulers at `workers` GC threads.
#[derive(Debug, Clone)]
pub struct PacketScalingRow {
    /// Simulated GC worker (thread) count.
    pub workers: usize,
    /// Full-GC makespan (pause cycles) under the four-barrier pipeline.
    pub barrier_cycles: u64,
    /// Same heap and worker count under the work-packet scheduler.
    pub packets_cycles: u64,
    /// Packets recorded by the packet run's `gc.sched.*` counters.
    pub packets: u64,
    /// Steals recorded by the packet run.
    pub steals: u64,
}
impl_to_json!(PacketScalingRow {
    workers,
    barrier_cycles,
    packets_cycles,
    packets,
    steals
});

/// Packet-scheduler scaling figure: makespan vs worker count, barrier vs
/// packets, on a skewed heap — the low half is swap-heavy big data
/// objects with no adjust dependencies, the high half is ref-dense
/// smalls whose adjust dominates. The barrier pipeline stalls the big
/// compact work behind the slowest adjust packet; the packet scheduler
/// flows workers across the bucket boundary.
pub fn packet_scaling_rows(counts: &[usize]) -> Vec<PacketScalingRow> {
    use svagc_core::{GcConfig, Lisp2Collector, SchedulerKind};
    use svagc_heap::{Heap, HeapConfig, HeapVerifier, ObjShape, RootSet};
    use svagc_kernel::{CoreId, Kernel};
    use svagc_vmem::{Asid, PAGE_SIZE};
    const CORE: CoreId = CoreId(0);

    let run = |workers: usize, kind: SchedulerKind| {
        let heap_bytes: u64 = 96 << 20;
        let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), heap_bytes + (8 << 20));
        let mut h = Heap::new(&mut k, Asid(1), HeapConfig::new(heap_bytes)).unwrap();
        let mut roots = RootSet::new();
        let fill = |k: &mut Kernel, h: &mut Heap, shape: ObjShape, seed: u64| {
            let (obj, _) = h.alloc(k, CORE, shape).unwrap();
            for i in 0..shape.data_words as u64 {
                h.write_data(k, CORE, obj, shape.num_refs as u64, i, seed + i).unwrap();
            }
            obj
        };
        // Low half: rooted 16-page bigs, each followed by doomed filler so
        // every survivor really slides.
        for i in 0..24u64 {
            let big = fill(&mut k, &mut h, ObjShape::data_bytes(16 * PAGE_SIZE), i);
            roots.push(big);
            fill(&mut k, &mut h, ObjShape::data_bytes(8 * PAGE_SIZE), 600_000 + i);
        }
        // High half: ref-dense smalls cross-linked into a dependency mesh.
        let ref_shape = ObjShape::with_refs(16, 8);
        let mut smalls = Vec::new();
        for i in 0..240u64 {
            let obj = fill(&mut k, &mut h, ref_shape, i);
            roots.push(obj);
            smalls.push(obj);
            fill(&mut k, &mut h, ObjShape::data(64), 500_000 + i);
        }
        for (i, &obj) in smalls.iter().enumerate() {
            for r in 0..16usize {
                h.write_ref(&mut k, CORE, obj, r as u64, smalls[(i + r + 1) % smalls.len()])
                    .unwrap();
            }
        }
        let mut gc = Lisp2Collector::new(GcConfig::svagc(workers).with_scheduler(kind));
        let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();
        let hash = HeapVerifier::new().content_hash(&k, &mut h);
        (stats, hash)
    };

    counts
        .iter()
        .map(|&n| {
            let (b, bh) = run(n, svagc_core::SchedulerKind::Barrier);
            let (p, ph) = run(n, svagc_core::SchedulerKind::Packets);
            assert_eq!(
                bh, ph,
                "schedulers must produce identical heaps at {n} workers"
            );
            PacketScalingRow {
                workers: n,
                barrier_cycles: b.phases.total().get(),
                packets_cycles: p.phases.total().get(),
                packets: p.sched_packets,
                steals: p.sched_steals,
            }
        })
        .collect()
}

/// One noisy-neighbor chaos measurement: the standard 4-tenant pooled
/// fleet at one victim fault rate, run against its fault-free twin with
/// both blast-radius oracles applied.
#[derive(Debug, Clone)]
pub struct NoisyNeighborRow {
    /// Victim per-swap-request fault rate, percent.
    pub fault_rate_pct: f64,
    /// Tenants that ran (and verified) to completion.
    pub survivors: u64,
    /// Tenants quarantined.
    pub quarantined: u64,
    /// The victim tenant's outcome: "completed" or its failure label.
    pub victim: String,
    /// Mean healthy-tenant throughput (steps per simulated second).
    pub healthy_throughput: f64,
    /// Mean healthy-tenant total GC pause (ms).
    pub healthy_gc_total_ms: f64,
    /// Healthy tenants the isolation oracle compared bit-identical.
    pub isolation_compared: u64,
    /// Frames the leak oracle audited in the faulty pool.
    pub frames_audited: u64,
    /// Summed healthy-tenant wall time, exact simulated cycles (the
    /// digest-pinned scalar behind `healthy_throughput`).
    pub healthy_total_cycles: u64,
    /// Summed healthy-tenant GC pause, exact simulated cycles.
    pub healthy_gc_pause_cycles: u64,
}
impl_to_json!(NoisyNeighborRow {
    fault_rate_pct,
    survivors,
    quarantined,
    victim,
    healthy_throughput,
    healthy_gc_total_ms,
    isolation_compared,
    frames_audited,
    healthy_total_cycles,
    healthy_gc_pause_cycles,
});

/// Noisy-neighbor figure: healthy-tenant throughput and survival vs the
/// victim's injected fault rate. Each rate is an independent experiment
/// (its own pool, fleets, and twin), so the sweep is host-parallel.
pub fn noisy_neighbor_rows(rates_pct: &[u32]) -> Vec<NoisyNeighborRow> {
    use svagc_workloads::noisy::{default_collector, run_noisy_neighbor, NoisySpec};
    par_map(rates_pct.to_vec(), |rate_pct| {
        let spec = NoisySpec::standard(rate_pct as f64 / 100.0, 42);
        let base = RunConfig::new(default_collector());
        let out = run_noisy_neighbor(&spec, &base)
            .unwrap_or_else(|e| panic!("noisy-neighbor oracle failure at {rate_pct}%: {e}"));
        let healthy = out.faulty.completed();
        let n = healthy.len().max(1) as f64;
        NoisyNeighborRow {
            fault_rate_pct: rate_pct as f64,
            survivors: out.faulty.survivors() as u64,
            quarantined: out.faulty.quarantined() as u64,
            victim: match &out.faulty.outcomes[spec.victims[0]] {
                svagc_workloads::multijvm::TenantOutcome::Completed(_) => "completed".into(),
                svagc_workloads::multijvm::TenantOutcome::Quarantined { kind, .. } => {
                    kind.label().into()
                }
            },
            healthy_throughput: healthy.iter().map(|(_, r)| r.throughput()).sum::<f64>() / n,
            healthy_gc_total_ms: healthy.iter().map(|(_, r)| r.gc_total_ms()).sum::<f64>() / n,
            isolation_compared: out.isolation_compared as u64,
            frames_audited: out.frames_audited as u64,
            healthy_total_cycles: healthy.iter().map(|(_, r)| r.total_cycles()).sum(),
            healthy_gc_pause_cycles: healthy.iter().map(|(_, r)| r.gc_pause_cycles()).sum(),
        }
    })
}

/// One collector's full-GC pause distribution for the pause-CDF figure.
#[derive(Debug, Clone)]
pub struct PauseCdfRow {
    /// Collector label.
    pub collector: String,
    /// Full GC cycles observed.
    pub gcs: usize,
    /// Median pause (simulated cycles).
    pub p50_cycles: u64,
    /// 90th-percentile pause.
    pub p90_cycles: u64,
    /// 99th-percentile pause.
    pub p99_cycles: u64,
    /// Maximum pause.
    pub max_cycles: u64,
    /// Marking cycles run concurrently with mutators (0 for STW runs).
    pub concurrent_mark_cycles: u64,
    /// SATB deletion-barrier entries drained across all cycles.
    pub satb_logged: u64,
    /// FNV content hash of the final live heap.
    pub heap_hash: u64,
    /// End-of-run data verification.
    pub verify_ok: bool,
}
impl_to_json!(PauseCdfRow {
    collector,
    gcs,
    p50_cycles,
    p90_cycles,
    p99_cycles,
    max_cycles,
    concurrent_mark_cycles,
    satb_logged,
    heap_hash,
    verify_ok
});

/// Exact percentile over a sorted pause list (nearest-rank, cycles).
fn percentile_cycles(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as u64 - 1) * p / 100) as usize]
}

/// Pause-CDF suite: SVAGC stop-the-world vs SVAGC `--concurrent` vs
/// Shenandoah (always concurrently marked), all on Bisort — the suite workload
/// whose subtree rebuilds overwrite live parent→child references, so the
/// deletion barrier sees genuine mutator churn. Returns rows in that
/// order. The SVAGC pair runs on identical heaps; the renderer pins
/// `concurrent.heap_hash == stw.heap_hash` (bit-identity) and
/// `concurrent.max < shenandoah.max` (the low-pause claim).
pub fn pause_cdf_rows() -> Vec<PauseCdfRow> {
    let run_one = |kind: CollectorKind, concurrent: bool| {
        let mut w = suite::by_name("Bisort").expect("Bisort is a suite workload");
        let mut cfg = RunConfig::new(kind).with_concurrent(concurrent);
        cfg.steps = Some(80);
        let r = run(w.as_mut(), &cfg).unwrap_or_else(|e| panic!("pause_cdf: {e}"));
        let mut pauses: Vec<u64> = r.gc.cycles.iter().map(|c| c.pause().get()).collect();
        pauses.sort_unstable();
        PauseCdfRow {
            collector: r.collector.to_string(),
            gcs: r.gc.count(),
            p50_cycles: percentile_cycles(&pauses, 50),
            p90_cycles: percentile_cycles(&pauses, 90),
            p99_cycles: percentile_cycles(&pauses, 99),
            max_cycles: percentile_cycles(&pauses, 100),
            concurrent_mark_cycles: r.gc.total_concurrent_mark().get(),
            satb_logged: r.gc.total_satb_logged(),
            heap_hash: r.heap_hash,
            verify_ok: r.verify_ok,
        }
    };
    vec![
        run_one(CollectorKind::Svagc, false),
        run_one(CollectorKind::Svagc, true),
        run_one(CollectorKind::Shenandoah, true),
    ]
}

/// One tiering-resilience measurement: collector × DRAM fraction ×
/// device fault rate on LRUCache.
#[derive(Debug, Clone)]
pub struct TieringResilienceRow {
    /// Collector label.
    pub collector: String,
    /// Fraction of the heap kept resident (1.0 == tiering off).
    pub dram_fraction: f64,
    /// Per-request device fault probability.
    pub fault_rate: f64,
    /// Steps per simulated second.
    pub throughput: f64,
    /// Total GC pause cycles.
    pub gc_total_cycles: u64,
    /// Cycles charged to tier traffic (writebacks, fetches, backoff).
    pub tier_cycles: u64,
    /// Pages demoted to the far device.
    pub demotions: u64,
    /// Promotions triggered by a mutator/GC access (the thrash metric).
    pub fetch_on_access: u64,
    /// Device operations retried after a transient fault.
    pub retries: u64,
    /// Torn writebacks caught by the mandatory read-back verify.
    pub torn_caught: u64,
    /// Final tier mode (`"off"`, `"tiered"`, `"dram-only"`).
    pub tier_mode: String,
    /// FNV content hash of the final live heap.
    pub heap_hash: u64,
    /// End-of-run data verification.
    pub verify_ok: bool,
}
impl_to_json!(TieringResilienceRow {
    collector,
    dram_fraction,
    fault_rate,
    throughput,
    gc_total_cycles,
    tier_cycles,
    demotions,
    fetch_on_access,
    retries,
    torn_caught,
    tier_mode,
    heap_hash,
    verify_ok
});

/// Tiering-resilience suite: SVAGC vs its memmove ablation on LRUCache,
/// swept over DRAM fraction {1.0, 0.6, 0.3} × device fault rate
/// {0, 1%, 10%}. SVAGC compacts by PTE swaps, so far pages move without
/// touching the device; memmove must copy every live word and drags cold
/// pages back through the fallible device each cycle. The renderer pins
/// the two contracts: every row's heap is bit-identical to its
/// collector's DRAM-only run (the tier + retry ladder are invisible),
/// and SVAGC retains more of its DRAM-only throughput than memmove at
/// the harshest point of the matrix.
pub fn tiering_resilience_rows() -> Vec<TieringResilienceRow> {
    const DEVICE_SEED: u64 = 0xD1CE;
    let mut plan: Vec<(CollectorKind, f64, f64)> = Vec::new();
    for kind in [CollectorKind::Svagc, CollectorKind::SvagcMemmove] {
        plan.push((kind, 1.0, 0.0)); // DRAM-only reference
        for frac in [0.6, 0.3] {
            for rate in [0.0, 0.01, 0.10] {
                plan.push((kind, frac, rate));
            }
        }
    }
    par_map(plan, |(kind, frac, rate)| {
        let mut w = suite::by_name("LRUCache").expect("LRUCache is a suite workload");
        let mut cfg = RunConfig::new(kind).with_verify_phases(true);
        if frac < 1.0 {
            // Raise the per-pass demotion cap so the DRAM fraction is
            // actually reached.
            cfg.tier = Some(TierPolicy { max_batch: 4096, ..TierPolicy::new(frac) });
            cfg = cfg.with_device_faults(rate, DEVICE_SEED);
        }
        let r = run(w.as_mut(), &cfg)
            .unwrap_or_else(|e| panic!("tiering_resilience f={frac} p={rate}: {e}"));
        TieringResilienceRow {
            collector: r.collector.to_string(),
            dram_fraction: frac,
            fault_rate: rate,
            throughput: r.throughput(),
            gc_total_cycles: r.gc.total_pause().get(),
            tier_cycles: r.tier_cycles.get(),
            demotions: r.tier.demotions,
            fetch_on_access: r.tier.fetch_on_access,
            retries: r.tier.writeback_retries + r.tier.fetch_retries,
            torn_caught: r.device.torn_writebacks,
            tier_mode: r.tier_mode.to_string(),
            heap_hash: r.heap_hash,
            verify_ok: r.verify_ok,
        }
    })
}

/// Geometric mean helper for the Table III summary rows.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values {
        log_sum += v.max(1e-9).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn fig01_compaction_dominates() {
        // Paper Fig. 1: compaction is 79-85% of the memmove prototype's
        // full-GC time on FFT.large / Sparse.large.
        for row in fig01_rows() {
            let pct = 100.0 * row.compact_ms / (row.compact_ms + row.other_ms);
            assert!(
                (60.0..97.0).contains(&pct),
                "{}: compaction share {pct:.1}%",
                row.name
            );
            assert!(row.verify_ok);
        }
    }

    #[test]
    fn multijvm_scaling_shapes() {
        // ParallelGC degrades much faster than SVAGC as JVMs multiply
        // (Fig. 2 vs Fig. 14).
        let counts = [1usize, 8, 32];
        let pgc = multijvm_rows(CollectorKind::ParallelGc, &counts);
        let svagc = multijvm_rows(CollectorKind::Svagc, &counts);
        let growth = |rows: &[MultiJvmRow]| rows.last().unwrap().gc_total_ms / rows[0].gc_total_ms;
        let g_pgc = growth(&pgc);
        let g_svagc = growth(&svagc);
        assert!(
            g_pgc > g_svagc,
            "ParallelGC GC-time growth {g_pgc:.2}x should exceed SVAGC {g_svagc:.2}x"
        );
        // App time rises with contention for both.
        assert!(pgc.last().unwrap().app_ms > pgc[0].app_ms);
    }
}
