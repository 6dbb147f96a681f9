//! Single-JVM benchmark driver: build machine + heap + collector, run a
//! workload, and report the numbers the paper's figures are made of.

use crate::env::JvmEnv;
use crate::workload::Workload;
use svagc_core::{
    recover, Collector, ConcurrentCollector, DegradePolicy, GcConfig, GcError, GcLog,
    Lisp2Collector, PressureEscalator, PressureStats, RecoveryError, RecoveryReport,
    RetryPolicy, SchedulerKind, TierController, TierCtlStats, TierPolicy,
};
use svagc_heap::{Heap, HeapConfig, HeapError, HeapVerifier};
use svagc_kernel::{
    CoreId, CrashPlan, CrashPoint, DeviceFaultConfig, DeviceFaultPlan, DeviceStats, FarDevice,
    FarTier, FaultConfig, FaultPlan, Kernel, TierError, TierStats, WalMutation,
};
use svagc_metrics::{
    BandwidthModel, Cycles, MachineConfig, PerfCounters, Registry, TraceEvent,
};
use svagc_vmem::{AddressSpace, Asid, FramePool, OracleStats, TenantId, VmError};

/// Which collector to run.
#[derive(Debug, Clone, Copy)]
pub enum CollectorKind {
    /// SVAGC with all optimizations (the paper's system).
    Svagc,
    /// The same LISP2 collector with memmove only ("-SwapVA").
    SvagcMemmove,
    /// ParallelGC-like baseline.
    ParallelGc,
    /// Shenandoah-like baseline.
    Shenandoah,
}

impl CollectorKind {
    /// Instantiate the collector for a run with `cfg`'s run-level knobs:
    /// worker count, post-phase verification, watchdog deadline,
    /// degraded-mode policy, SwapVA retry-policy override, scheduling
    /// policy and core-affinity base. Every kind is a LISP2 configuration
    /// (the baselines' come from [`GcConfig::parallelgc`] and
    /// [`GcConfig::shenandoah`]), so every knob applies to every kind. A
    /// concurrent kind gets SATB concurrent marking: [`ConcurrentCollector`]
    /// around the same configuration. Shenandoah always marks
    /// concurrently, ParallelGC never does, and every other kind follows
    /// `cfg.concurrent`.
    pub fn build(&self, cfg: &RunConfig) -> Box<dyn Collector> {
        let gc = Lisp2Collector::new(self.lisp2_config(cfg));
        if self.marks_concurrently(cfg) {
            Box::new(ConcurrentCollector::new(gc))
        } else {
            Box::new(gc)
        }
    }

    fn marks_concurrently(&self, run: &RunConfig) -> bool {
        match self {
            CollectorKind::Shenandoah => true,
            CollectorKind::ParallelGc => false,
            _ => run.concurrent,
        }
    }

    /// The resolved LISP2 configuration of this kind: its preset, with
    /// every run-level knob of `run` assigned on top.
    fn lisp2_config(&self, run: &RunConfig) -> GcConfig {
        let threads = run.gc_threads;
        let preset = match self {
            CollectorKind::Svagc => GcConfig::svagc(threads),
            CollectorKind::SvagcMemmove => GcConfig::lisp2_memmove(threads),
            CollectorKind::ParallelGc => GcConfig::parallelgc(threads),
            CollectorKind::Shenandoah => GcConfig::shenandoah(threads),
        };
        GcConfig {
            verify_phases: run.verify_phases,
            deadline_cycles: run.deadline_cycles,
            degrade: run.degrade,
            scheduler: run.scheduler,
            core_base: run.core_base,
            retry: run.retry.unwrap_or(preset.retry),
            ..preset
        }
    }

    /// Does this collector's heap page-align large objects (Algorithm 3)?
    pub fn aligned_heap(&self) -> bool {
        match self {
            CollectorKind::Svagc | CollectorKind::SvagcMemmove => true,
            CollectorKind::ParallelGc | CollectorKind::Shenandoah => false,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            CollectorKind::Svagc => "SVAGC",
            CollectorKind::SvagcMemmove => "SVAGC(-SwapVA)",
            CollectorKind::ParallelGc => "ParallelGC",
            CollectorKind::Shenandoah => "Shenandoah",
        }
    }

    /// Display label of a run with `run`: [`CollectorKind::label`], plus
    /// `-concurrent` when the `--concurrent` flag wrapped the collector.
    fn run_label(&self, run: &RunConfig) -> &'static str {
        match self {
            CollectorKind::Svagc if run.concurrent => "SVAGC-concurrent",
            CollectorKind::SvagcMemmove if run.concurrent => "SVAGC(-SwapVA)-concurrent",
            _ => self.label(),
        }
    }
}

/// Parameters of one benchmark run.
#[derive(Clone)]
pub struct RunConfig {
    /// The modeled machine.
    pub machine: MachineConfig,
    /// Heap size as a multiple of the workload's minimum (1.2 / 2.0).
    pub heap_factor: f64,
    /// Collector under test.
    pub collector: CollectorKind,
    /// GC worker threads.
    pub gc_threads: usize,
    /// Steps to run (`None` = the workload's default).
    pub steps: Option<usize>,
    /// Cache/DTLB instrumentation (Table III mode; slower).
    pub instrumented: bool,
    /// Shared bandwidth model (multi-JVM); `None` builds a private one.
    pub bandwidth: Option<BandwidthModel>,
    /// Cores effectively available to this JVM's mutators (multi-JVM
    /// sharing); `None` = the whole machine.
    pub effective_cores: Option<usize>,
    /// Address-space id of this JVM.
    pub asid: u16,
    /// Override the swap threshold in pages (`None` = paper default 10).
    pub threshold_pages: Option<u64>,
    /// Seeded SwapVA fault injection (`None` = fault-free): the
    /// production-skewed [`FaultConfig::uniform`] mix, or
    /// [`FaultConfig::permanent_only`], the profile that defeats retries
    /// and exercises fallbacks, fallback budgets and transactional
    /// rollback. Same seed and rates ⇒ the same fault sequence.
    pub faults: Option<FaultConfig>,
    /// Run the heap verifier after every LISP2 phase.
    pub verify_phases: bool,
    /// Per-phase GC watchdog deadline in virtual cycles (`None` = no
    /// deadline). A phase exceeding the budget aborts the cycle and rolls
    /// it back through the compaction journal.
    pub deadline_cycles: Option<u64>,
    /// Degraded-mode circuit-breaker policy applied after aborted cycles
    /// (default off — aborts propagate as errors).
    pub degrade: DegradePolicy,
    /// Record cycle-accurate trace events. Off by default — the disabled
    /// tracer is a branch on a `None`.
    pub trace: bool,
    /// Run under the stale-translation oracle: every TLB hit is
    /// cross-checked against the live page table and every kernel flush
    /// audited against the Algorithm 4 preconditions. A pure observer —
    /// simulated cycles and counters are identical with it on or off —
    /// but any violation fails the run. Also enabled by setting the
    /// `SVAGC_TLB_ORACLE` environment variable (how CI runs the figure
    /// and chaos suites under the oracle).
    pub tlb_oracle: bool,
    /// Override the collector's SwapVA retry policy (`None` = the
    /// collector default). A zero fallback budget makes every permanent
    /// fault an unrecoverable abort — the profile behind the fault-abort
    /// exit code.
    pub retry: Option<RetryPolicy>,
    /// Seeded crash points: the simulated machine dies at the chosen
    /// occurrence, preserving only durable state (vmem, page tables,
    /// write-ahead log). Non-empty plans arm the kernel's write-ahead log
    /// for PTE-mutating GC operations: without it a crash would be
    /// unrecoverable by construction.
    pub crash_plans: Vec<CrashPlan>,
    /// Seeded write-ahead-log mutation (the crash-matrix teeth: a
    /// protocol corruption recovery MUST detect and fail closed on).
    pub wal_mutation: Option<WalMutation>,
    /// Scheduling substrate for the GC phases: the four-barrier pipeline
    /// (default) or dependency-ordered work packets with stealing.
    pub scheduler: SchedulerKind,
    /// First machine core this JVM's GC workers pin to (multi-JVM runs
    /// give each collector a disjoint base so pinned workers never share
    /// a core).
    pub core_base: usize,
    /// Fleet frame pool this JVM draws its frames from (`None` = private
    /// frames, the single-JVM default — behavior unchanged).
    pub frame_pool: Option<FramePool>,
    /// Arm the pressure-escalation ladder (implies on-demand heap commit
    /// so GC can actually return frames to the pool).
    pub pressure: bool,
    /// WAL epoch namespace: the top 16 bits of every epoch this JVM's
    /// journal assigns. Fleet tenants get disjoint namespaces so their
    /// logs can never be confused; 0 (default) leaves epochs unchanged.
    pub wal_namespace: u16,
    /// Run with SATB concurrent marking (`--concurrent`): marking
    /// overlaps mutator execution and only initial/final mark plus
    /// compaction are charged to the pause. The collector is wrapped in
    /// [`ConcurrentCollector`]. The compacted heap is bit-identical to
    /// the STW run's. The baselines ignore the flag: Shenandoah always
    /// marks concurrently, ParallelGC never does.
    pub concurrent: bool,
    /// Cold-object tiering (`None` = no far tier; behavior
    /// byte-identical to pre-tier runs): keep the policy's DRAM fraction
    /// of the heap's committed pages resident and demote the cold rest,
    /// at most [`TierPolicy::max_batch`] pages a pass, to a simulated
    /// far-memory device after every GC cycle. The run ends with a
    /// promote-all and the invisibility oracle: residency and device
    /// empty, heap hash equal to the DRAM-only run's. Tiering arms the
    /// write-ahead log too: recovery rebuilds residency from its records.
    pub tier: Option<TierPolicy>,
    /// Seeded far-device fault injection (`None` = fault-free device;
    /// no effect without `tier`): transient EIO, latency spikes and torn
    /// writebacks per [`DeviceFaultConfig::uniform`], which the retry
    /// ladder absorbs. [`DeviceFaultConfig::offline_after`] takes the
    /// device offline for good, the ladder's permanent rung: writebacks
    /// degrade to DRAM-only, lost fetches end the run with the
    /// device-failed exit code.
    pub device_faults: Option<DeviceFaultConfig>,
}

/// Simulated memory a run's kernel is built with beyond its heap's.
pub(crate) const KERNEL_SLACK_BYTES: u64 = 16 << 20;

impl RunConfig {
    /// Heap capacity of a run of a workload whose minimum heap is
    /// `min_heap` bytes: the minimum times the heap factor. An aligned
    /// (Algorithm 3) heap's minimum includes its internal fragmentation,
    /// which the paper bounds under 5% at the 10-page threshold.
    pub(crate) fn heap_bytes(&self, min_heap: u64) -> u64 {
        let min_effective = if self.collector.aligned_heap() {
            (min_heap as f64 * 1.05) as u64
        } else {
            min_heap
        };
        (min_effective as f64 * self.heap_factor) as u64
    }

    /// Defaults: Xeon 6130, 1.2× heap, SVAGC, 8 GC threads.
    pub fn new(collector: CollectorKind) -> RunConfig {
        RunConfig {
            machine: MachineConfig::xeon_gold_6130(),
            heap_factor: 1.2,
            collector,
            gc_threads: 8,
            steps: None,
            instrumented: false,
            bandwidth: None,
            effective_cores: None,
            asid: 1,
            threshold_pages: None,
            faults: None,
            verify_phases: false,
            deadline_cycles: None,
            degrade: DegradePolicy::off(),
            trace: false,
            tlb_oracle: false,
            retry: None,
            crash_plans: Vec::new(),
            wal_mutation: None,
            scheduler: SchedulerKind::Barrier,
            core_base: 0,
            frame_pool: None,
            pressure: false,
            wal_namespace: 0,
            concurrent: false,
            tier: None,
            device_faults: None,
        }
    }

    /// Arm cold-object tiering at the given resident DRAM fraction.
    pub fn with_tiering(mut self, dram_fraction: f64) -> RunConfig {
        self.tier = Some(TierPolicy::new(dram_fraction));
        self
    }

    /// Enable deterministic far-device fault injection at probability `p`.
    pub fn with_device_faults(mut self, p: f64, seed: u64) -> RunConfig {
        self.device_faults = Some(DeviceFaultConfig::uniform(p, seed));
        self
    }

    /// Enable SATB concurrent marking.
    pub fn with_concurrent(mut self, on: bool) -> RunConfig {
        self.concurrent = on;
        self
    }

    /// Arm the pressure-escalation ladder.
    pub fn with_pressure(mut self, on: bool) -> RunConfig {
        self.pressure = on;
        self
    }

    /// Select the GC scheduling substrate.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> RunConfig {
        self.scheduler = kind;
        self
    }

    /// Set the core-affinity base of this JVM's GC workers.
    pub fn with_core_base(mut self, base: usize) -> RunConfig {
        self.core_base = base;
        self
    }

    /// Enable deterministic SwapVA fault injection at probability `p`.
    pub fn with_faults(mut self, p: f64, seed: u64) -> RunConfig {
        self.faults = Some(FaultConfig::uniform(p, seed));
        self
    }

    /// Enable post-phase heap verification.
    pub fn with_verify_phases(mut self, on: bool) -> RunConfig {
        self.verify_phases = on;
        self
    }

    /// Enable trace-event recording.
    pub fn with_trace(mut self, on: bool) -> RunConfig {
        self.trace = on;
        self
    }

    /// Set the per-phase watchdog deadline (virtual cycles).
    pub fn with_deadline(mut self, cycles: Option<u64>) -> RunConfig {
        self.deadline_cycles = cycles;
        self
    }

    /// Set the degraded-mode policy.
    pub fn with_degrade(mut self, policy: DegradePolicy) -> RunConfig {
        self.degrade = policy;
        self
    }

    /// Enable the stale-translation oracle.
    pub fn with_tlb_oracle(mut self, on: bool) -> RunConfig {
        self.tlb_oracle = on;
        self
    }

    /// Install seeded crash points (arms the write-ahead log).
    pub fn with_crash_plans(mut self, plans: Vec<CrashPlan>) -> RunConfig {
        self.crash_plans = plans;
        self
    }

    /// Install a seeded write-ahead-log mutation (teeth testing).
    pub fn with_wal_mutation(mut self, m: Option<WalMutation>) -> RunConfig {
        self.wal_mutation = m;
        self
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Collector label.
    pub collector: &'static str,
    /// Per-GC-cycle log.
    pub gc: GcLog,
    /// Raw mutator cycles (sum over logical threads).
    pub app_cycles: Cycles,
    /// Mutator wall cycles (divided by effective parallelism, plus
    /// interference absorbed).
    pub app_wall: Cycles,
    /// Total wall cycles: mutator wall + STW pauses.
    pub total_wall: Cycles,
    /// Machine event counters for the whole run.
    pub perf: PerfCounters,
    /// Core frequency for time conversion.
    pub freq_ghz: f64,
    /// Steps executed.
    pub steps: usize,
    /// Heap capacity used for the run.
    pub heap_bytes: u64,
    /// The workload's minimum heap.
    pub min_heap_bytes: u64,
    /// Final fragmentation ratio.
    pub frag_ratio: f64,
    /// Did end-of-run data verification pass?
    pub verify_ok: bool,
    /// FNV content hash of the final live heap (address + header +
    /// payload of every object). Equal hashes ⇔ bit-identical heaps;
    /// the chaos suite compares faulty runs against fault-free ones.
    pub heap_hash: u64,
    /// Trace events recorded during the run (empty unless
    /// [`RunConfig::trace`] was set).
    pub trace: Vec<TraceEvent>,
    /// Stale-translation oracle counters (all zero when the oracle was
    /// off; a run with violations fails before producing a result, so a
    /// `RunResult` always carries zero `stale_hits`/`audit_violations`).
    pub tlb_oracle: OracleStats,
    /// Pool frames still charged to this tenant at the end of the run
    /// (the live heap's committed footprint; 0 without a frame pool).
    /// The fleet's frame-leak oracle sums these against the pool.
    pub frames_in_use: u32,
    /// Pressure-ladder counters (all zero when pressure was off).
    pub pressure: PressureStats,
    /// Kernel far-tier counters (all zero when tiering was off).
    pub tier: TierStats,
    /// Tiering-policy counters (all zero when tiering was off).
    pub tier_ctl: TierCtlStats,
    /// Far-device counters (all zero when tiering was off).
    pub device: DeviceStats,
    /// Cycles the tier demote passes consumed (included in
    /// [`RunResult::total_wall`] as GC overhead).
    pub tier_cycles: Cycles,
    /// The tier controller's final mode name: `"off"`, `"tiered"`, or
    /// `"dram-only"` (the degrade rung — what the chaos CI greps for).
    pub tier_mode: &'static str,
}

impl RunResult {
    /// Steps per simulated second (the throughput metric of Figs. 15/16).
    pub fn throughput(&self) -> f64 {
        let secs = self.total_wall.at_ghz(self.freq_ghz).as_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.steps as f64 / secs
        }
    }

    /// Total GC pause in milliseconds.
    pub fn gc_total_ms(&self) -> f64 {
        self.gc.total_pause().at_ghz(self.freq_ghz).as_millis()
    }

    /// Max GC pause in milliseconds.
    pub fn gc_max_ms(&self) -> f64 {
        self.gc.max_pause().at_ghz(self.freq_ghz).as_millis()
    }

    /// Average GC pause in milliseconds.
    pub fn gc_avg_ms(&self) -> f64 {
        self.gc.avg_pause().at_ghz(self.freq_ghz).as_millis()
    }

    /// Total GC pause in exact simulated cycles. The BENCH reports pin
    /// these u64s byte-for-byte; the `_ms` views round through `f64`.
    pub fn gc_pause_cycles(&self) -> u64 {
        self.gc.total_pause().get()
    }

    /// Total wall time in exact simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_wall.get()
    }

    /// The unified counter registry of this run: machine events under
    /// `perf.*`, GC-log aggregates under `gc.*`, and (when tracing was on)
    /// trace-event totals under `trace.*`.
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        self.perf.register_into(&mut reg);
        self.gc.register_into(&mut reg);
        svagc_metrics::trace::register_events(&self.trace, &mut reg);
        // Oracle verdicts are registered unconditionally (zeros when the
        // oracle was off) so BENCH records always carry the keys; the
        // volume-dependent `checks` counter is registered only when the
        // oracle ran, keeping oracle-off registries byte-identical to
        // pre-oracle ones.
        reg.add("gc.tlb.stale_hits", self.tlb_oracle.stale_hits);
        reg.add("gc.tlb.audit_violations", self.tlb_oracle.audit_violations);
        if self.tlb_oracle.enabled {
            reg.add("gc.tlb.checks", self.tlb_oracle.checks);
        }
        // Tier keys only when tiering ran: tiering-off registries stay
        // byte-identical to pre-tier ones (the perf-baseline digests).
        if self.tier_mode != "off" {
            reg.add("gc.tier.demotions", self.tier.demotions);
            reg.add("gc.tier.promotions", self.tier.promotions);
            reg.add("gc.tier.fetch_on_access", self.tier.fetch_on_access);
            reg.add("gc.tier.discards", self.tier.discards);
            reg.add("gc.tier.retries", self.tier.writeback_retries + self.tier.fetch_retries);
            reg.add("gc.tier.cycles", self.tier.tier_cycles);
            reg.add("gc.tier.far_peak", u64::from(self.tier.far_peak));
            reg.add("gc.tier.device_faults", self.device.faults);
            reg.add("gc.tier.degraded", self.tier_ctl.degraded);
            reg.add("gc.tier.recovered", self.tier_ctl.recovered);
        }
        reg
    }
}

/// How a classified run failed (everything except a clean result).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A seeded crash point killed the simulated machine.
    Crash(CrashPoint),
    /// The per-phase GC watchdog deadline expired (circuit breaker off,
    /// or the error surfaced before the breaker could engage).
    Watchdog,
    /// An operational SwapVA fault aborted the run (retry/fallback
    /// budgets exhausted, breaker off).
    FaultAbort,
    /// The degraded-mode ladder ran out of rungs — every mode, down to
    /// single-threaded memmove, failed.
    DegradeExhausted,
    /// The tenant ran out of memory: the pressure ladder (or the plain
    /// collect-once retry) could not bring it back under its frame budget.
    /// Strictly tenant-local in fleet runs.
    OutOfMemory,
    /// The far-memory device permanently lost data the heap needs (a
    /// fetch failed after retries, or the end-of-run promote-all could
    /// not drain the tier). Past the last rung of the tiering ladder —
    /// DRAM-only degradation can no longer help because the bytes are
    /// gone. Strictly tenant-local.
    DeviceFailed,
    /// Anything else: verification failure, oracle violation.
    Other,
}

impl FailureKind {
    /// The CLI process exit code for this failure class. Stable contract
    /// for scripts: 10 watchdog, 11 fault abort, 12 degraded-mode ladder
    /// exhausted, 13 machine crashed, 15 tenant out of memory, 16 far
    /// device failed, 1 anything else (2 is usage, 14 is recovery-failed
    /// on the CLI side).
    pub fn exit_code(&self) -> i32 {
        match self {
            FailureKind::Watchdog => 10,
            FailureKind::FaultAbort => 11,
            FailureKind::DegradeExhausted => 12,
            FailureKind::Crash(_) => 13,
            FailureKind::OutOfMemory => 15,
            FailureKind::DeviceFailed => 16,
            FailureKind::Other => 1,
        }
    }

    /// Stable label (fleet reports, CI greps).
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Watchdog => "watchdog",
            FailureKind::FaultAbort => "fault-abort",
            FailureKind::DegradeExhausted => "degrade-exhausted",
            FailureKind::Crash(_) => "crash",
            FailureKind::OutOfMemory => "out-of-memory",
            FailureKind::DeviceFailed => "device-failed",
            FailureKind::Other => "other",
        }
    }
}

/// A classified run failure: the machine-readable kind plus the
/// human-readable message [`run`] would have returned.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Failure class (drives CLI exit codes).
    pub kind: FailureKind,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RunFailure {}

fn classify(e: &GcError) -> FailureKind {
    if let Some(point) = e.crash_point() {
        return FailureKind::Crash(point);
    }
    // Device loss outranks the operational bucket: a lost far page is not
    // a retryable SwapVA fault, it is the end of the tiering ladder.
    if e.is_device_failure() {
        return FailureKind::DeviceFailed;
    }
    match e {
        GcError::Exhausted(_) => FailureKind::DegradeExhausted,
        GcError::Deadline { .. } => FailureKind::Watchdog,
        GcError::OutOfMemory { .. } => FailureKind::OutOfMemory,
        // A raw quota denial that escaped without the pressure ladder
        // (pressure off, or a non-allocation path) is still an OOM for
        // the exit-code contract.
        GcError::Heap(HeapError::Vm(VmError::QuotaExceeded { .. })) => {
            FailureKind::OutOfMemory
        }
        GcError::Heap(HeapError::NeedGc { .. }) => FailureKind::OutOfMemory,
        e if e.is_operational() => FailureKind::FaultAbort,
        _ => FailureKind::Other,
    }
}

/// One recovery attempt sequence after a crash (see [`CrashReport`]).
#[derive(Debug, Clone)]
pub struct RecoverySummary {
    /// Reboot+recover attempts made (>1 only under double-crash plans).
    pub attempts: u64,
    /// The final attempt's outcome: the verified recovery report, or the
    /// fail-closed reason (bad log, hybrid heap, corruption).
    pub outcome: Result<RecoveryReport, String>,
}

/// What a crashed run leaves behind.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Where the machine died.
    pub point: CrashPoint,
    /// Workload steps fully completed before the crash.
    pub steps_completed: usize,
    /// Recovery results (`None` when recovery was not requested).
    pub recovery: Option<RecoverySummary>,
}

impl CrashReport {
    /// `gc.recovery.*` counter registry for BENCH records and scripts.
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add("gc.recovery.crash_point", self.point.code());
        reg.add("gc.recovery.steps_completed", self.steps_completed as u64);
        match &self.recovery {
            None => reg.add("gc.recovery.attempted", 0),
            Some(s) => {
                reg.add("gc.recovery.attempted", 1);
                reg.add("gc.recovery.attempts", s.attempts);
                match &s.outcome {
                    Ok(r) => {
                        reg.add("gc.recovery.verified", 1);
                        reg.add("gc.recovery.outcome", r.class.code());
                        reg.add("gc.recovery.epoch", r.epoch);
                        reg.add("gc.recovery.undone_ops", r.undone_ops as u64);
                        reg.add("gc.recovery.undone_pages", r.undone_pages);
                    }
                    Err(_) => reg.add("gc.recovery.verified", 0),
                }
            }
        }
        reg
    }
}

/// Outcome of [`run_with_crash`]: either the run completed (no armed
/// crash point fired) or the machine died and the report says what
/// recovery made of the debris.
#[derive(Debug)]
pub enum CrashOutcome {
    /// No crash point fired; the full result is available.
    Completed(Box<RunResult>),
    /// The machine died at a seeded crash point.
    Crashed(Box<CrashReport>),
}

/// Reboot+recover retries after a crash: bounded so a crash plan that
/// also kills recovery itself (double crash) terminates — each armed
/// `InsideRecovery` occurrence fires once, so the plan list length
/// bounds the crashes.
const MAX_RECOVERY_ATTEMPTS: u64 = 8;

enum RunEnd {
    Completed(Box<RunResult>),
    Crashed {
        point: CrashPoint,
        steps_completed: usize,
        kernel: Box<Kernel>,
        space: AddressSpace,
    },
}

/// Run `workload` under `cfg`. Deterministic for fixed inputs.
pub fn run(workload: &mut dyn Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    run_classified(workload, cfg).map_err(|f| f.message)
}

/// [`run`], but failures keep their class (for exit codes and chaos
/// harnesses). A fired crash point is a failure here — use
/// [`run_with_crash`] to recover instead.
pub fn run_classified(
    workload: &mut dyn Workload,
    cfg: &RunConfig,
) -> Result<RunResult, Box<RunFailure>> {
    match run_inner(workload, cfg)? {
        RunEnd::Completed(r) => Ok(*r),
        RunEnd::Crashed { point, steps_completed, .. } => Err(Box::new(RunFailure {
            kind: FailureKind::Crash(point),
            message: format!(
                "machine crashed at seeded crash point {point} after {steps_completed} \
                 completed step(s)"
            ),
        })),
    }
}

/// Run `workload` under `cfg` with crash semantics: if a seeded crash
/// point fires, the simulated machine dies (volatile state gone, durable
/// state kept) and — when `do_recover` is set — the recovery state
/// machine reboots the kernel, replays the write-ahead journal, and
/// verifies the rebuilt heap. Double crashes (plans that also fire
/// inside recovery) are retried up to [`MAX_RECOVERY_ATTEMPTS`] times.
pub fn run_with_crash(
    workload: &mut dyn Workload,
    cfg: &RunConfig,
    do_recover: bool,
) -> Result<CrashOutcome, Box<RunFailure>> {
    match run_inner(workload, cfg)? {
        RunEnd::Completed(r) => Ok(CrashOutcome::Completed(r)),
        RunEnd::Crashed { point, steps_completed, mut kernel, mut space } => {
            let recovery = if do_recover {
                let mut attempts = 0;
                Some(loop {
                    attempts += 1;
                    kernel.reboot();
                    match recover(&mut kernel, space, CoreId(0)) {
                        Ok(s) => {
                            break RecoverySummary { attempts, outcome: Ok(s.report) };
                        }
                        Err(f) => {
                            let double_crash =
                                matches!(f.error, RecoveryError::Crashed { .. });
                            if double_crash && attempts < MAX_RECOVERY_ATTEMPTS {
                                // The crash plan also killed recovery; the
                                // undo already applied is idempotent, so
                                // reboot and replay from scratch.
                                space = f.space;
                                continue;
                            }
                            break RecoverySummary {
                                attempts,
                                outcome: Err(f.error.to_string()),
                            };
                        }
                    }
                })
            } else {
                None
            };
            Ok(CrashOutcome::Crashed(Box::new(CrashReport {
                point,
                steps_completed,
                recovery,
            })))
        }
    }
}

fn run_inner(
    workload: &mut dyn Workload,
    cfg: &RunConfig,
) -> Result<RunEnd, Box<RunFailure>> {
    let min_heap = workload.min_heap_bytes();
    let heap_bytes = cfg.heap_bytes(min_heap);
    let mut kernel = Kernel::with_bytes(cfg.machine.clone(), heap_bytes + KERNEL_SLACK_BYTES);
    if let Some(bw) = &cfg.bandwidth {
        kernel.share_bandwidth(bw);
    }
    kernel.set_instrumented(cfg.instrumented);
    kernel.set_tracing(cfg.trace);
    // The oracle can also be forced suite-wide from the environment (CI
    // runs the figure and chaos suites under it without touching code).
    let oracle_on = cfg.tlb_oracle || std::env::var_os("SVAGC_TLB_ORACLE").is_some();
    kernel.set_tlb_oracle(oracle_on);
    kernel.set_wal_enabled(!cfg.crash_plans.is_empty() || cfg.tier.is_some());
    kernel.set_wal_namespace(cfg.wal_namespace);
    kernel.set_wal_mutation(cfg.wal_mutation);
    if !cfg.crash_plans.is_empty() {
        kernel.set_crash_plans(cfg.crash_plans.clone());
    }
    if let Some(pool) = &cfg.frame_pool {
        // Fleet drivers register every tenant up front (the pool's
        // namespace bases follow registration order).
        let lease = pool
            .lease(TenantId(cfg.asid))
            .map_err(|e| other_failure(e.to_string()))?;
        kernel.vmem.frames.attach_lease(lease);
    }

    let mut heap_cfg =
        HeapConfig::new(heap_bytes).with_alignment(cfg.collector.aligned_heap());
    if let Some(t) = cfg.threshold_pages {
        heap_cfg = heap_cfg.with_threshold(t);
    }
    if cfg.pressure {
        // Pressure handling needs on-demand commit: an eagerly mapped
        // heap charges its whole capacity up front and a GC could never
        // return frames to the pool.
        heap_cfg = heap_cfg.with_commit_on_demand(true);
    }
    let heap = Heap::new(&mut kernel, Asid(cfg.asid), heap_cfg).map_err(|e| {
        let g: GcError = e.into();
        Box::new(RunFailure { kind: classify(&g), message: g.to_string() })
    })?;
    let collector = cfg.collector.build(cfg);
    kernel.set_fault_plan(cfg.faults.map(FaultPlan::new));
    if cfg.tier.is_some() {
        // Device capacity covers the whole heap plus slack: capacity is
        // never the failure under test, DeviceFull only steers policy.
        let capacity = (heap_bytes / svagc_vmem::PAGE_SIZE) as u32 + 64;
        let mut device = FarDevice::new(capacity);
        device.set_fault_plan(cfg.device_faults.map(DeviceFaultPlan::new));
        kernel.set_far_tier(Some(FarTier::new(device, RetryPolicy::default())));
    }

    let mut env = JvmEnv::new(&mut kernel, heap, collector);
    if cfg.pressure {
        env.pressure = PressureEscalator::new(true);
    }
    if let Some(policy) = cfg.tier {
        env.tier = TierController::new(policy);
    }
    let steps = cfg.steps.unwrap_or_else(|| workload.default_steps());
    let mut completed = 0usize;
    // (error, Some(step) | None for setup)
    let mut gc_err: Option<(GcError, Option<usize>)> = None;
    if let Err(e) = workload.setup(&mut env) {
        gc_err = Some((e, None));
    } else {
        for s in 0..steps {
            match workload.step(&mut env) {
                Ok(()) => completed = s + 1,
                Err(e) => {
                    gc_err = Some((e, Some(s)));
                    break;
                }
            }
        }
    }
    if let Some((e, at_step)) = gc_err {
        // Destructuring the env releases its borrow of the kernel so a
        // crash can hand the dead machine (durable state) to recovery.
        let JvmEnv { heap, .. } = env;
        if let Some(point) = e.crash_point() {
            return Ok(RunEnd::Crashed {
                point,
                steps_completed: completed,
                kernel: Box::new(kernel),
                space: heap.into_space(),
            });
        }
        let message = match at_step {
            Some(s) => format!("step {s}: {e}"),
            None => e.to_string(),
        };
        return Err(Box::new(RunFailure { kind: classify(&e), message }));
    }
    workload.verify(&mut env).map_err(other_failure)?;
    let verify_ok = true;

    // End-of-run tier drain + invisibility oracle: promote every far page
    // home, then demand the tier left no trace — residency empty, device
    // empty, no far-charged pool frames. The content hash below is then
    // computed over an all-resident heap, so equal hashes against a
    // DRAM-only run prove the tier was invisible to the mutator. The drain
    // itself is oracle machinery, not measured work: its cycles stay out
    // of `total_wall` (cold objects would have stayed far in production).
    let tier_mode = if env.tier.enabled() { env.tier.mode().name() } else { "off" };
    let tier_ctl_stats = env.tier.stats;
    let tier_cycles = env.tier_cycles;
    if env.kernel.far_tier().is_some() {
        if let Err(e) = env.kernel.tier_promote_all() {
            let JvmEnv { heap, .. } = env;
            // A seeded crash point firing inside the drain is a machine
            // crash (recovery's job), not a device verdict.
            if let TierError::Crashed { point } = e {
                return Ok(RunEnd::Crashed {
                    point,
                    steps_completed: completed,
                    kernel: Box::new(kernel),
                    space: heap.into_space(),
                });
            }
            return Err(Box::new(RunFailure {
                kind: FailureKind::DeviceFailed,
                message: format!(
                    "end-of-run promote-all could not drain the far tier: {e}"
                ),
            }));
        }
    }
    let (tier_stats, device_stats) = match env.kernel.far_tier() {
        Some(t) => {
            if t.far_count() != 0 || t.slots_in_use() != 0 {
                return Err(other_failure(format!(
                    "tier invisibility oracle: {} far frame(s) and {} device \
                     slot(s) survived the end-of-run promote-all",
                    t.far_count(),
                    t.slots_in_use()
                )));
            }
            (t.stats(), t.device_stats())
        }
        None => (TierStats::default(), DeviceStats::default()),
    };
    if let Some(lease) = env.kernel.vmem.frames.lease() {
        let far_charged = lease.stats().far_in_use;
        if far_charged != 0 {
            return Err(other_failure(format!(
                "tier invisibility oracle: {far_charged} pool frame(s) still \
                 charged as far after the end-of-run promote-all"
            )));
        }
    }

    let gc_log = env.collector.log().clone();
    let app_cycles = env.app_cycles;
    let frag_ratio = env.heap.stats.frag_ratio();
    let pressure_stats = env.pressure.stats;
    let JvmEnv { heap: mut final_heap, .. } = env;
    let heap_hash = HeapVerifier::new().content_hash(&kernel, &mut final_heap);
    drop(final_heap);
    let frames_in_use = kernel
        .vmem
        .frames
        .lease()
        .map(|l| l.stats().in_use)
        .unwrap_or(0);
    let trace = kernel.take_trace();
    let oracle_stats = kernel.tlb_oracle_stats();
    if oracle_stats.stale_hits > 0 || oracle_stats.audit_violations > 0 {
        return Err(other_failure(format!(
            "stale-TLB oracle: {} stale hit(s), {} flush-protocol audit violation(s) \
             over {} checked TLB hits — the shootdown protocol let a core translate \
             through a dead entry",
            oracle_stats.stale_hits, oracle_stats.audit_violations, oracle_stats.checks
        )));
    }

    let cores = cfg.effective_cores.unwrap_or(cfg.machine.cores).max(1);
    let parallelism = (workload.threads() as usize).min(cores).max(1) as u64;
    // Mutators absorb IPI interference from this JVM's own shootdowns too.
    let app_wall = app_cycles / parallelism + gc_log.total_interference() / parallelism;
    // Tier demote passes ran inside the GC safepoint window: GC overhead.
    let total_wall = app_wall + gc_log.total_pause() + tier_cycles;

    Ok(RunEnd::Completed(Box::new(RunResult {
        workload: workload.name(),
        collector: cfg.collector.run_label(cfg),
        gc: gc_log,
        app_cycles,
        app_wall,
        total_wall,
        perf: kernel.perf,
        freq_ghz: cfg.machine.freq_ghz,
        steps,
        heap_bytes,
        min_heap_bytes: min_heap,
        frag_ratio,
        verify_ok,
        heap_hash,
        trace,
        tlb_oracle: oracle_stats,
        frames_in_use,
        pressure: pressure_stats,
        tier: tier_stats,
        tier_ctl: tier_ctl_stats,
        device: device_stats,
        tier_cycles,
        tier_mode,
    })))
}

fn other_failure(message: String) -> Box<RunFailure> {
    Box::new(RunFailure { kind: FailureKind::Other, message })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_carries_every_run_level_knob() {
        let retry = RetryPolicy {
            max_retries: 2,
            fallback_budget: Some(0),
            ..RetryPolicy::default()
        };
        for kind in [
            CollectorKind::Svagc,
            CollectorKind::SvagcMemmove,
            CollectorKind::ParallelGc,
            CollectorKind::Shenandoah,
        ] {
            let mut run = RunConfig::new(kind)
                .with_verify_phases(true)
                .with_deadline(Some(1 << 30))
                .with_degrade(DegradePolicy::standard())
                .with_scheduler(SchedulerKind::Packets)
                .with_core_base(5);
            run.gc_threads = 3;
            run.retry = Some(retry);
            let cfg = kind.lisp2_config(&run);
            let label = kind.label();
            assert_eq!(cfg.gc_threads, 3, "{label}");
            assert!(cfg.verify_phases, "{label}");
            assert_eq!(cfg.deadline_cycles, Some(1 << 30), "{label}");
            assert_eq!(cfg.degrade, DegradePolicy::standard(), "{label}");
            assert_eq!(cfg.scheduler, SchedulerKind::Packets, "{label}");
            assert_eq!(cfg.core_base, 5, "{label}");
            assert_eq!(cfg.retry, retry, "{label}");
            // Without an override the preset's retry policy stays.
            run.retry = None;
            assert_eq!(kind.lisp2_config(&run).retry, RetryPolicy::default(), "{label}");
        }
    }

    #[test]
    fn unregistered_pooled_tenant_fails_with_the_pool_error() {
        let mut w = crate::suite::by_name("Bisort").unwrap();
        let mut cfg = RunConfig::new(CollectorKind::Svagc);
        cfg.frame_pool = Some(FramePool::new(1 << 16));
        let err = run_classified(w.as_mut(), &cfg).unwrap_err();
        assert_eq!(err.kind, FailureKind::Other);
        assert_eq!(err.message, VmError::NoSuchTenant(cfg.asid).to_string());
    }
}
