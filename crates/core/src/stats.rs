//! GC timing statistics: per-phase breakdowns and per-cycle logs.
//!
//! Every figure in the paper's evaluation is a function of these numbers:
//! Fig. 1 plots the phase breakdown, Figs. 11-13 plot total/average/max
//! pause split into compaction vs other phases, Figs. 15/16 add mutator
//! time.

use svagc_metrics::{Cycles, SimTime};

/// Cycle cost of each LISP2 phase (makespan across GC workers).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Phase I: marking.
    pub mark: Cycles,
    /// Phase II: forwarding-address calculation.
    pub forward: Cycles,
    /// Phase III: pointer adjustment.
    pub adjust: Cycles,
    /// Phase IV: compaction (moving), including move-time flushes.
    pub compact: Cycles,
    /// Pin/broadcast overhead around the compaction phase (Algorithm 4).
    pub shootdown: Cycles,
}

impl PhaseBreakdown {
    /// Total STW pause.
    pub fn total(&self) -> Cycles {
        self.mark + self.forward + self.adjust + self.compact + self.shootdown
    }

    /// Everything except the moving/compaction phase (the red bars of
    /// Figs. 11/12).
    pub fn non_compact(&self) -> Cycles {
        self.mark + self.forward + self.adjust
    }

    /// Compaction (incl. its shootdown overhead — the blue bars).
    pub fn compact_total(&self) -> Cycles {
        self.compact + self.shootdown
    }

    /// Compaction share of the pause, in percent (Fig. 1).
    pub fn compact_pct(&self) -> f64 {
        let total = self.total().get();
        if total == 0 {
            0.0
        } else {
            100.0 * self.compact_total().get() as f64 / total as f64
        }
    }
}

/// Statistics of one full GC cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcCycleStats {
    /// Phase costs.
    pub phases: PhaseBreakdown,
    /// Objects found live.
    pub live_objects: u64,
    /// Live bytes (requested sizes).
    pub live_bytes: u64,
    /// Objects reclaimed.
    pub dead_objects: u64,
    /// Objects relocated (src != dst).
    pub moved_objects: u64,
    /// Of those, moved via SwapVA.
    pub swapped_objects: u64,
    /// Bytes relocated by memmove.
    pub memmove_bytes: u64,
    /// Bytes relocated by PTE swapping (no data traffic).
    pub swapped_bytes: u64,
    /// Cycles stolen from other cores by IPIs (mutator interference).
    pub interference: Cycles,
    /// SwapVA faults injected during this cycle.
    pub faults_injected: u64,
    /// Transient-fault retries the resilient executor issued.
    pub swap_retries: u64,
    /// Objects demoted from SwapVA to memmove by permanent faults (or an
    /// exhausted retry budget).
    pub swap_fallback_objects: u64,
    /// Bytes those demoted objects copied instead of swapped.
    pub swap_fallback_bytes: u64,
    /// Aggregated batches split by a mid-batch fault.
    pub batch_splits: u64,
    /// Invariant violations the post-phase verifier found (always zero on
    /// a cycle that returned `Ok`; violations abort the cycle).
    pub verify_violations: u64,
    /// Attempts of this cycle that aborted and rolled back before the
    /// committed attempt (0 on a clean cycle).
    pub aborts: u64,
    /// Of those aborts, how many were watchdog deadline expiries.
    pub watchdog_expiries: u64,
    /// Pages rewritten by the aborted attempts' rollbacks.
    pub rollback_pages: u64,
    /// Cycles burned by aborted attempts and their rollbacks — part of
    /// the STW pause, on top of the committed attempt's phases.
    pub abort_overhead: Cycles,
    /// Degradation level the committed attempt ran at (0 = normal,
    /// 1 = memmove-only, 2 = single-threaded).
    pub mode: u8,
    /// Work packets executed (0 under the barrier scheduler).
    pub sched_packets: u64,
    /// Packets executed off their owner's deque (work stealing).
    pub sched_steals: u64,
    /// Total steal charges paid, in cycles.
    pub sched_steal_cycles: u64,
    /// Marking cycles spent outside the pause (`--concurrent` SATB mode;
    /// zero for STW cycles). These are charged as mutator interference,
    /// not pause time.
    pub concurrent_mark: Cycles,
    /// SATB deletion-barrier entries drained at final mark (zero for
    /// STW cycles and when the barrier logged nothing).
    pub satb_logged: u64,
}

impl GcCycleStats {
    /// Total STW pause of this cycle, including time lost to aborted
    /// attempts and their rollbacks.
    pub fn pause(&self) -> Cycles {
        self.phases.total() + self.abort_overhead
    }
}

/// The log of all GC cycles in a run.
#[derive(Debug, Clone, Default)]
pub struct GcLog {
    /// Per-cycle records, in order.
    pub cycles: Vec<GcCycleStats>,
}

impl GcLog {
    /// Empty log.
    pub fn new() -> GcLog {
        GcLog::default()
    }

    /// Record a cycle.
    pub fn push(&mut self, s: GcCycleStats) {
        self.cycles.push(s);
    }

    /// Number of GC cycles.
    pub fn count(&self) -> usize {
        self.cycles.len()
    }

    /// Sum of all pauses.
    pub fn total_pause(&self) -> Cycles {
        self.cycles.iter().map(|c| c.pause()).sum()
    }

    /// Longest single pause.
    pub fn max_pause(&self) -> Cycles {
        self.cycles
            .iter()
            .map(|c| c.pause())
            .fold(Cycles::ZERO, Cycles::max)
    }

    /// Mean pause (zero if no cycles).
    pub fn avg_pause(&self) -> Cycles {
        if self.cycles.is_empty() {
            Cycles::ZERO
        } else {
            self.total_pause() / self.cycles.len() as u64
        }
    }

    /// Sum of compaction-phase time across cycles.
    pub fn total_compact(&self) -> Cycles {
        self.cycles
            .iter()
            .map(|c| c.phases.compact_total())
            .sum()
    }

    /// Sum of non-compaction phase time across cycles.
    pub fn total_other(&self) -> Cycles {
        self.cycles.iter().map(|c| c.phases.non_compact()).sum()
    }

    /// Total interference pushed onto other cores.
    pub fn total_interference(&self) -> Cycles {
        self.cycles.iter().map(|c| c.interference).sum()
    }

    /// Total SwapVA faults injected across cycles.
    pub fn total_faults_injected(&self) -> u64 {
        self.cycles.iter().map(|c| c.faults_injected).sum()
    }

    /// Total transient-fault retries across cycles.
    pub fn total_swap_retries(&self) -> u64 {
        self.cycles.iter().map(|c| c.swap_retries).sum()
    }

    /// Total objects demoted to the memmove fallback across cycles.
    pub fn total_swap_fallbacks(&self) -> u64 {
        self.cycles.iter().map(|c| c.swap_fallback_objects).sum()
    }

    /// Total batch splits across cycles.
    pub fn total_batch_splits(&self) -> u64 {
        self.cycles.iter().map(|c| c.batch_splits).sum()
    }

    /// Total aborted (rolled-back) attempts across cycles.
    pub fn total_aborts(&self) -> u64 {
        self.cycles.iter().map(|c| c.aborts).sum()
    }

    /// Total pages rewritten by rollbacks across cycles.
    pub fn total_rollback_pages(&self) -> u64 {
        self.cycles.iter().map(|c| c.rollback_pages).sum()
    }

    /// Total watchdog expiries across cycles.
    pub fn total_watchdog_expiries(&self) -> u64 {
        self.cycles.iter().map(|c| c.watchdog_expiries).sum()
    }

    /// Worst degradation level any committed cycle ran at.
    pub fn max_mode(&self) -> u8 {
        self.cycles.iter().map(|c| c.mode).max().unwrap_or(0)
    }

    /// Total work packets executed across cycles (packet scheduler only).
    pub fn total_sched_packets(&self) -> u64 {
        self.cycles.iter().map(|c| c.sched_packets).sum()
    }

    /// Total packet steals across cycles.
    pub fn total_sched_steals(&self) -> u64 {
        self.cycles.iter().map(|c| c.sched_steals).sum()
    }

    /// Total steal charges across cycles, in cycles.
    pub fn total_sched_steal_cycles(&self) -> u64 {
        self.cycles.iter().map(|c| c.sched_steal_cycles).sum()
    }

    /// Total off-pause (concurrent) marking cycles across cycles.
    pub fn total_concurrent_mark(&self) -> Cycles {
        self.cycles.iter().map(|c| c.concurrent_mark).sum()
    }

    /// Total SATB barrier entries drained across cycles.
    pub fn total_satb_logged(&self) -> u64 {
        self.cycles.iter().map(|c| c.satb_logged).sum()
    }

    /// Aggregate phase breakdown over all cycles.
    pub fn phase_totals(&self) -> PhaseBreakdown {
        let mut total = PhaseBreakdown::default();
        for c in &self.cycles {
            total.mark += c.phases.mark;
            total.forward += c.phases.forward;
            total.adjust += c.phases.adjust;
            total.compact += c.phases.compact;
            total.shootdown += c.phases.shootdown;
        }
        total
    }

    /// Convert a cycle count to time at `freq_ghz`.
    pub fn time(&self, c: Cycles, freq_ghz: f64) -> SimTime {
        c.at_ghz(freq_ghz)
    }

    /// Fold the log's aggregates into `reg` under `gc.*`, mirroring the
    /// `perf.*` and `trace.*` namespaces of the unified counter registry.
    pub fn register_into(&self, reg: &mut svagc_metrics::Registry) {
        let phases = self.phase_totals();
        for (name, v) in [
            ("gc.cycles", self.count() as u64),
            ("gc.pause.total", self.total_pause().get()),
            ("gc.pause.max", self.max_pause().get()),
            ("gc.phase.mark", phases.mark.get()),
            ("gc.phase.forward", phases.forward.get()),
            ("gc.phase.adjust", phases.adjust.get()),
            ("gc.phase.compact", phases.compact.get()),
            ("gc.phase.shootdown", phases.shootdown.get()),
            ("gc.interference", self.total_interference().get()),
            ("gc.live_objects", self.cycles.iter().map(|c| c.live_objects).sum()),
            ("gc.moved_objects", self.cycles.iter().map(|c| c.moved_objects).sum()),
            ("gc.swapped_objects", self.cycles.iter().map(|c| c.swapped_objects).sum()),
            ("gc.swapped_bytes", self.cycles.iter().map(|c| c.swapped_bytes).sum()),
            ("gc.memmove_bytes", self.cycles.iter().map(|c| c.memmove_bytes).sum()),
            ("gc.faults_injected", self.total_faults_injected()),
            ("gc.swap_retries", self.total_swap_retries()),
            ("gc.swap_fallbacks", self.total_swap_fallbacks()),
            ("gc.batch_splits", self.total_batch_splits()),
            ("gc.aborts", self.total_aborts()),
            ("gc.rollback_pages", self.total_rollback_pages()),
            ("gc.watchdog_expiries", self.total_watchdog_expiries()),
            ("gc.mode", self.max_mode() as u64),
            ("gc.sched.packets", self.total_sched_packets()),
            ("gc.sched.steals", self.total_sched_steals()),
            ("gc.sched.steal_cycles", self.total_sched_steal_cycles()),
        ] {
            reg.add(name, v);
        }
        // Concurrent-mode keys appear only when SATB marking actually ran,
        // so STW runs keep their registry (and sim digest) byte-identical.
        let cm = self.total_concurrent_mark().get();
        if cm > 0 {
            reg.add("gc.concurrent.mark", cm);
        }
        let satb = self.total_satb_logged();
        if satb > 0 {
            reg.add("gc.concurrent.satb_logged", satb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyc(mark: u64, fw: u64, adj: u64, comp: u64) -> GcCycleStats {
        GcCycleStats {
            phases: PhaseBreakdown {
                mark: Cycles(mark),
                forward: Cycles(fw),
                adjust: Cycles(adj),
                compact: Cycles(comp),
                shootdown: Cycles::ZERO,
            },
            ..Default::default()
        }
    }

    #[test]
    fn breakdown_totals() {
        let b = PhaseBreakdown {
            mark: Cycles(10),
            forward: Cycles(20),
            adjust: Cycles(30),
            compact: Cycles(140),
            shootdown: Cycles(10),
        };
        assert_eq!(b.total(), Cycles(210));
        assert_eq!(b.non_compact(), Cycles(60));
        assert_eq!(b.compact_total(), Cycles(150));
        assert!((b.compact_pct() - 100.0 * 150.0 / 210.0).abs() < 1e-9);
    }

    #[test]
    fn log_aggregates() {
        let mut log = GcLog::new();
        log.push(cyc(1, 2, 3, 4));
        log.push(cyc(10, 20, 30, 140));
        assert_eq!(log.count(), 2);
        assert_eq!(log.total_pause(), Cycles(210));
        assert_eq!(log.max_pause(), Cycles(200));
        assert_eq!(log.avg_pause(), Cycles(105));
        assert_eq!(log.total_compact(), Cycles(144));
        assert_eq!(log.total_other(), Cycles(66));
    }

    #[test]
    fn abort_overhead_counts_toward_pause() {
        let mut s = cyc(1, 2, 3, 4);
        s.abort_overhead = Cycles(90);
        s.aborts = 1;
        s.rollback_pages = 7;
        s.mode = 1;
        assert_eq!(s.pause(), Cycles(100), "pause includes rollback time");
        let mut log = GcLog::new();
        log.push(s);
        log.push(cyc(1, 1, 1, 1));
        assert_eq!(log.total_pause(), Cycles(104));
        assert_eq!(log.total_aborts(), 1);
        assert_eq!(log.total_rollback_pages(), 7);
        assert_eq!(log.max_mode(), 1);
    }

    #[test]
    fn empty_log_is_safe() {
        let log = GcLog::new();
        assert_eq!(log.avg_pause(), Cycles::ZERO);
        assert_eq!(log.max_pause(), Cycles::ZERO);
    }
}
