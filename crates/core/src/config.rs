//! Collector configuration: which of the paper's mechanisms are active.

use crate::degrade::DegradePolicy;
use crate::resilience::RetryPolicy;

/// Which placement policy ([`crate::packets`]) the collector cycles run
/// under: a parameter of the simulated system, not a second engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The classic phase pipeline: each phase fills a fresh
    /// [`crate::WorkerPool`] and joins at a global barrier.
    #[default]
    Barrier,
    /// Work-packet scheduler ([`crate::packets`]): typed packets in
    /// dependency-ordered buckets; workers drain packets greedily with
    /// deterministic least-loaded stealing and flow across bucket
    /// boundaries wherever the dependency graph allows.
    Packets,
}

impl SchedulerKind {
    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        match s {
            "barrier" => Some(SchedulerKind::Barrier),
            "packets" => Some(SchedulerKind::Packets),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Barrier => "barrier",
            SchedulerKind::Packets => "packets",
        }
    }
}

/// Tunables of the LISP2/SVAGC collector.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Parallel GC worker count (the paper tunes `GCThreadsCount`).
    pub gc_threads: usize,
    /// Use SwapVA for objects at/above the heap's threshold; `false` is the
    /// "memmove-only" variant (left bars of Fig. 11).
    pub use_swapva: bool,
    /// Aggregate up to this many swap requests per syscall (Fig. 5/6);
    /// `None` issues one syscall per move.
    pub aggregation: Option<usize>,
    /// PMD walk caching inside SwapVA (Fig. 7/8).
    pub pmd_cache: bool,
    /// Algorithm 2 for overlapping src/dst; when off such moves fall back
    /// to memmove.
    pub overlap_opt: bool,
    /// Algorithm 4: pin compaction workers, broadcast the shootdown once
    /// per cycle, then flush only locally. When off, every SwapVA call
    /// broadcasts IPIs to all cores (the "non-optimized" line of Fig. 9).
    pub pinned_compaction: bool,
    /// Work-stealing (greedy) load balance across GC workers; `false`
    /// models a statically partitioned phase (Shenandoah's copy phase).
    pub work_stealing: bool,
    /// Worker count override for the compaction phase only. `None` uses
    /// `gc_threads`. Shenandoah's copy phase "does not utilize the
    /// work-stealing mechanism and parallelism" (§V-A), modeled as
    /// `Some(1)`.
    pub compact_threads: Option<usize>,
    /// Run the heap verifier after each LISP2 phase and abort the cycle
    /// (with [`crate::GcError::Corruption`]) on any violation. Verification
    /// uses uncosted functional reads, so timings are unaffected.
    pub verify_phases: bool,
    /// Retry/backoff budget for transient SwapVA faults.
    pub retry: RetryPolicy,
    /// Per-phase watchdog deadline in virtual cycles; exceeding it aborts
    /// the cycle with [`crate::GcError::Deadline`]. `None` disarms the
    /// watchdog.
    pub deadline_cycles: Option<u64>,
    /// Circuit-breaker policy deciding whether an aborted cycle is
    /// retried in a degraded mode (see [`crate::degrade`]).
    pub degrade: DegradePolicy,
    /// Scheduling substrate for the parallel phases (barrier pipeline or
    /// work packets).
    pub scheduler: SchedulerKind,
    /// First machine core this collector's workers pin to (worker `w` →
    /// core `(core_base + w) % cores`). Multi-JVM tenants get disjoint
    /// bases so their pinned cores — and therefore Tracked-shootdown
    /// victim sets — never collide.
    pub core_base: usize,
}

impl GcConfig {
    /// Full SVAGC: everything the paper proposes, on.
    pub fn svagc(gc_threads: usize) -> GcConfig {
        GcConfig {
            gc_threads,
            use_swapva: true,
            aggregation: Some(32),
            pmd_cache: true,
            overlap_opt: true,
            pinned_compaction: true,
            work_stealing: true,
            compact_threads: None,
            verify_phases: false,
            retry: RetryPolicy::default(),
            deadline_cycles: None,
            degrade: DegradePolicy::off(),
            scheduler: SchedulerKind::Barrier,
            core_base: 0,
        }
    }

    /// The same LISP2 collector with SwapVA disabled (pure memmove) — the
    /// "-SwapVA" bars of Fig. 11.
    pub fn lisp2_memmove(gc_threads: usize) -> GcConfig {
        GcConfig {
            use_swapva: false,
            aggregation: None,
            ..GcConfig::svagc(gc_threads)
        }
    }

    /// The ParallelGC baseline: HotSpot's throughput collector, whose
    /// Full GC (what Figs. 12/13 measure) is a parallel work-stealing
    /// mark-compact with memmove relocation. That is this LISP2 collector
    /// with SwapVA off and, since PTEs never change, no pinning protocol
    /// and no shootdowns. Pair it with a heap built via
    /// `HeapConfig::with_alignment(false)`: baseline JVMs do not
    /// page-align large objects. The generational young collection is
    /// not modeled; the paper's evaluation isolates Full-GC behaviour.
    pub fn parallelgc(gc_threads: usize) -> GcConfig {
        GcConfig::lisp2_memmove(gc_threads).with_pinned(false)
    }

    /// The Shenandoah baseline: [`GcConfig::parallelgc`] with a serial
    /// copy phase. The collections the paper's benchmarks trigger are
    /// degenerated/full cycles whose copy phase "does not utilize the
    /// work-stealing mechanism and parallelism" (§V-A). The driver always
    /// wraps it in [`crate::ConcurrentCollector`], so it marks through the
    /// same SATB machinery as SVAGC `--concurrent`; forward and adjust
    /// stay parallel with stealing. Pair it with an unaligned heap too.
    pub fn shenandoah(gc_threads: usize) -> GcConfig {
        GcConfig::parallelgc(gc_threads).with_compact_threads(Some(1))
    }

    /// SVAGC with the naive per-call global shootdown (Fig. 9 baseline).
    pub fn svagc_naive_flush(gc_threads: usize) -> GcConfig {
        GcConfig {
            pinned_compaction: false,
            ..GcConfig::svagc(gc_threads)
        }
    }

    /// Builder-style toggles (ablation benches).
    pub fn with_swapva(mut self, on: bool) -> GcConfig {
        self.use_swapva = on;
        self
    }

    /// Set aggregation batch size (`None` = separated calls).
    pub fn with_aggregation(mut self, batch: Option<usize>) -> GcConfig {
        self.aggregation = batch;
        self
    }

    /// Toggle PMD caching.
    pub fn with_pmd_cache(mut self, on: bool) -> GcConfig {
        self.pmd_cache = on;
        self
    }

    /// Toggle Algorithm 2 overlap handling.
    pub fn with_overlap(mut self, on: bool) -> GcConfig {
        self.overlap_opt = on;
        self
    }

    /// Toggle Algorithm 4 pinned compaction.
    pub fn with_pinned(mut self, on: bool) -> GcConfig {
        self.pinned_compaction = on;
        self
    }

    /// Toggle work stealing.
    pub fn with_stealing(mut self, on: bool) -> GcConfig {
        self.work_stealing = on;
        self
    }

    /// Override the compaction-phase worker count.
    pub fn with_compact_threads(mut self, n: Option<usize>) -> GcConfig {
        self.compact_threads = n;
        self
    }

    /// Toggle post-phase heap verification.
    pub fn with_verify_phases(mut self, on: bool) -> GcConfig {
        self.verify_phases = on;
        self
    }

    /// Override the transient-fault retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> GcConfig {
        self.retry = retry;
        self
    }

    /// Arm (or disarm) the per-phase watchdog deadline.
    pub fn with_deadline(mut self, cycles: Option<u64>) -> GcConfig {
        self.deadline_cycles = cycles;
        self
    }

    /// Set the degraded-mode circuit-breaker policy.
    pub fn with_degrade(mut self, policy: DegradePolicy) -> GcConfig {
        self.degrade = policy;
        self
    }

    /// Select the scheduling substrate (barrier pipeline or work packets).
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> GcConfig {
        self.scheduler = kind;
        self
    }

    /// Set this collector's core-affinity base (multi-tenant pinning).
    pub fn with_core_base(mut self, base: usize) -> GcConfig {
        self.core_base = base;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fields in which `a` and `b` differ. The exhaustive destructure
    /// makes a new `GcConfig` field a compile error here.
    fn differing(a: &GcConfig, b: &GcConfig) -> Vec<&'static str> {
        let GcConfig {
            gc_threads,
            use_swapva,
            aggregation,
            pmd_cache,
            overlap_opt,
            pinned_compaction,
            work_stealing,
            compact_threads,
            verify_phases,
            retry,
            deadline_cycles,
            degrade,
            scheduler,
            core_base,
        } = *a;
        let mut out = Vec::new();
        macro_rules! cmp {
            ($($f:ident),*) => { $( if $f != b.$f { out.push(stringify!($f)); } )* };
        }
        cmp!(
            gc_threads, use_swapva, aggregation, pmd_cache, overlap_opt, pinned_compaction,
            work_stealing, compact_threads, verify_phases, retry, deadline_cycles, degrade,
            scheduler, core_base
        );
        out
    }

    #[test]
    fn presets() {
        let s = GcConfig::svagc(8);
        assert!(s.use_swapva && s.pinned_compaction && s.pmd_cache);
        assert_eq!(s.gc_threads, 8);
        let m = GcConfig::lisp2_memmove(8);
        assert!(!m.use_swapva);
        assert!(m.work_stealing, "memmove variant keeps parallel phases");
        let n = GcConfig::svagc_naive_flush(4);
        assert!(n.use_swapva && !n.pinned_compaction);
        let p = GcConfig::parallelgc(8);
        assert_eq!(differing(&m, &p), ["pinned_compaction"]);
        assert!(!p.pinned_compaction);
        let sh = GcConfig::shenandoah(8);
        assert_eq!(differing(&p, &sh), ["compact_threads"]);
        assert_eq!(sh.compact_threads, Some(1));
    }

    #[test]
    fn builders_compose() {
        let c = GcConfig::svagc(2)
            .with_aggregation(None)
            .with_pmd_cache(false)
            .with_overlap(false)
            .with_stealing(false);
        assert!(c.aggregation.is_none());
        assert!(!c.pmd_cache && !c.overlap_opt && !c.work_stealing);
    }

    #[test]
    fn transaction_knobs_default_off() {
        let s = GcConfig::svagc(4);
        assert!(s.deadline_cycles.is_none());
        assert!(!s.degrade.enabled);
        let c = s
            .with_deadline(Some(1 << 20))
            .with_degrade(DegradePolicy::standard());
        assert_eq!(c.deadline_cycles, Some(1 << 20));
        assert!(c.degrade.enabled);
    }

    #[test]
    fn scheduler_defaults_and_parsing() {
        let s = GcConfig::svagc(4);
        assert_eq!(s.scheduler, SchedulerKind::Barrier);
        assert_eq!(s.core_base, 0);
        let c = s
            .with_scheduler(SchedulerKind::Packets)
            .with_core_base(8);
        assert_eq!(c.scheduler, SchedulerKind::Packets);
        assert_eq!(c.core_base, 8);
        assert_eq!(SchedulerKind::parse("packets"), Some(SchedulerKind::Packets));
        assert_eq!(SchedulerKind::parse("barrier"), Some(SchedulerKind::Barrier));
        assert_eq!(SchedulerKind::parse("bogus"), None);
        assert_eq!(SchedulerKind::Packets.name(), "packets");
    }
}
