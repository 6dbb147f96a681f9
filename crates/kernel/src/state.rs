//! The kernel/machine state: cores, TLBs, physical memory, counters.
//!
//! [`Kernel`] binds a [`MachineConfig`] cost model to the functional
//! `svagc-vmem` substrate. Every operation returns the [`Cycles`] it would
//! have consumed on the modeled machine so callers (GC workers, workload
//! drivers) can attribute time to the right simulated core; global event
//! counts land in [`Kernel::perf`].

use crate::fault::{CrashPlan, CrashPoint, FaultPlan};
use crate::wal::{WalOp, WriteAheadLog};
use svagc_metrics::{
    AccessKind, BandwidthModel, CacheHierarchy, CacheLevel, Cycles, MachineConfig, PerfCounters,
    TraceEvent, TraceKind, Tracer,
};
use svagc_vmem::{
    AddressSpace, Asid, FrameId, OracleStats, PhysAddr, TlbOracle, VirtAddr, VmError, Tlb,
    TlbConfig, TlbHit, Vmem, PAGE_SIZE,
};

/// Identifier of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

/// Synthetic physical region where page-table lines "live" for cache
/// simulation. Page tables are host Rust structures, so we give each PTE a
/// deterministic line address: adjacent virtual pages map to adjacent PTE
/// words, matching real PTE-table locality.
const PT_SHADOW_BASE: u64 = 1 << 45;

/// The simulated kernel + machine.
#[derive(Debug)]
pub struct Kernel {
    /// The modeled machine (costs, cores, bandwidth).
    pub machine: MachineConfig,
    /// Physical memory + frame allocator.
    pub vmem: Vmem,
    /// Per-core TLBs.
    tlbs: Vec<Tlb>,
    /// Event counters (global).
    pub perf: PerfCounters,
    /// Cache hierarchy, present only in instrumented (Table III) mode.
    cache: Option<CacheHierarchy>,
    /// Shared bandwidth contention state (multi-JVM experiments share one).
    pub bandwidth: BandwidthModel,
    /// Core a process is pinned to, if any (Algorithm 4).
    pinned: Option<CoreId>,
    /// Seeded SwapVA fault schedule (None = fault-free).
    pub(crate) fault: Option<FaultPlan>,
    /// Virtual-time event sink (disabled by default; see
    /// [`svagc_metrics::trace`]). Kernel hot paths emit into it
    /// unconditionally — a disabled sink is a no-op.
    pub trace: Tracer,
    /// Stale-translation / flush-protocol oracle (disabled by default; a
    /// pure observer — enabling it never changes simulated behaviour).
    pub(crate) tlb_oracle: TlbOracle,
    /// The undo log: the open cycle's records, plus the durable
    /// write-ahead image when armed (see [`crate::wal`]). The durable
    /// image survives [`Kernel::reboot`].
    pub(crate) wal: WriteAheadLog,
    /// Far-memory tier (None = DRAM-only; see [`crate::tier`]). The
    /// backing device is durable across [`Kernel::reboot`]; the host-side
    /// residency table is volatile and rebuilt by recovery from the WAL.
    pub(crate) tier: Option<crate::tier::FarTier>,
    /// Pending seeded crashes (see [`crate::fault::CrashPlan`]).
    pub(crate) crash: Vec<CrashPlan>,
    /// Latched crash: once a crash point fires the machine is dead until
    /// [`Kernel::reboot`].
    pub(crate) crashed: Option<CrashPoint>,
}

impl Kernel {
    /// A machine with `phys_frames` frames of simulated DRAM.
    pub fn new(machine: MachineConfig, phys_frames: u32) -> Kernel {
        let cores = machine.cores;
        assert!(
            cores <= 64,
            "modeled machines are limited to 64 cores: shootdown victim \
             bitmasks are exact u64s (one bit per core) and must never alias"
        );
        Kernel {
            machine,
            vmem: Vmem::new(phys_frames),
            tlbs: (0..cores).map(|_| Tlb::new(TlbConfig::skylake())).collect(),
            perf: PerfCounters::new(),
            cache: None,
            bandwidth: BandwidthModel::new(),
            pinned: None,
            fault: None,
            trace: Tracer::disabled(),
            tlb_oracle: TlbOracle::disabled(),
            wal: WriteAheadLog::new(),
            tier: None,
            crash: Vec::new(),
            crashed: None,
        }
    }

    /// Simulate a machine restart after a crash. Volatile state dies: every
    /// TLB comes up cold, the pin is lost, the open cycle's undo records and
    /// the crash latch are gone. Durable state survives: physical memory,
    /// page tables (owned by the caller), the write-ahead log, and any
    /// *remaining* crash plans (so an `inside-recovery` plan can model a
    /// double crash). Perf counters and the trace are host-side
    /// measurement, not machine state, and keep accumulating.
    pub fn reboot(&mut self) {
        for tlb in self.tlbs.iter_mut() {
            *tlb = Tlb::new(TlbConfig::skylake());
        }
        self.pinned = None;
        self.crashed = None;
        self.wal.drop_volatile();
        if let Some(t) = self.tier.as_mut() {
            // The device (and its data) is durable; the host-side
            // residency table is kernel memory and dies with the machine.
            // Recovery rebuilds it from the WAL's tier stream.
            t.clear_volatile();
        }
        if self.tlb_oracle.is_enabled() {
            // The oracle audits flush coverage against mutation history;
            // a cold boot invalidates that history, so restart it clean.
            self.tlb_oracle.set_enabled(false);
            self.tlb_oracle.set_enabled(true);
        }
    }

    /// A machine with at least `bytes` of simulated DRAM.
    pub fn with_bytes(machine: MachineConfig, bytes: u64) -> Kernel {
        Kernel::new(machine.clone(), bytes.div_ceil(PAGE_SIZE) as u32)
    }

    /// Share another kernel's bandwidth model (multi-JVM contention).
    pub fn share_bandwidth(&mut self, bw: &BandwidthModel) {
        self.bandwidth = bw.clone();
    }

    /// Enable/disable cache+DTLB instrumentation (Table III mode). The
    /// hierarchy is rebuilt cold on enable.
    pub fn set_instrumented(&mut self, on: bool) {
        self.cache = on.then(|| CacheHierarchy::new(&self.machine.cache));
    }

    /// Is cache instrumentation on?
    pub fn instrumented(&self) -> bool {
        self.cache.is_some()
    }

    /// Enable/disable the virtual-time event trace. Enabling resets any
    /// previously recorded events.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Tracer::enabled() } else { Tracer::disabled() };
    }

    /// Drain the recorded trace events (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Enable/disable the stale-translation oracle. Enabling resets its
    /// counters and audit state. The oracle is a pure observer: simulated
    /// cycle charging and counters are identical with it on or off.
    pub fn set_tlb_oracle(&mut self, on: bool) {
        self.tlb_oracle.set_enabled(on);
    }

    /// Snapshot of the oracle's counters.
    pub fn tlb_oracle_stats(&self) -> OracleStats {
        self.tlb_oracle.stats()
    }

    /// Number of modeled cores.
    pub fn cores(&self) -> usize {
        self.machine.cores
    }

    /// The core the process is currently pinned to.
    pub fn pinned_core(&self) -> Option<CoreId> {
        self.pinned
    }

    /// Pin the process to `core` (charged per `CostParams::pin_task`).
    pub fn pin(&mut self, core: CoreId) -> Cycles {
        self.pinned = Some(core);
        self.tlb_oracle.note_pin();
        Cycles(self.machine.costs.pin_task)
    }

    /// Unpin the process.
    pub fn unpin(&mut self) -> Cycles {
        self.pinned = None;
        self.tlb_oracle.note_unpin();
        Cycles(self.machine.costs.pin_task)
    }

    /// Simulated time of `c` cycles on this machine.
    pub fn time(&self, c: Cycles) -> svagc_metrics::SimTime {
        self.machine.time(c)
    }

    // ---- cache plumbing ------------------------------------------------

    /// Route a data access at physical address `pa` through the cache
    /// hierarchy (if instrumented) and return its latency.
    #[inline]
    fn cache_access(&mut self, pa: PhysAddr, kind: AccessKind) -> Cycles {
        let costs = &self.machine.costs;
        match self.cache.as_mut() {
            // Uninstrumented fast path: assume heap-cold accesses (GC
            // phases stride over a heap far larger than any cache; at the
            // paper's 5-85 GiB heap sizes essentially every header/field
            // touch misses). Instrumented mode refines this with the real
            // cache simulation.
            None => Cycles(costs.mem_access),
            Some(cache) => {
                self.perf.cache_accesses += 1;
                let level = cache.access(pa.get(), kind);
                // perf semantics on Intel: `cache-references` counts LLC
                // references (accesses that missed L2), `cache-misses`
                // counts LLC misses.
                match level {
                    CacheLevel::L1 => Cycles(costs.l1_hit),
                    CacheLevel::L2 => Cycles(costs.l2_hit),
                    CacheLevel::Llc => {
                        self.perf.cache_references += 1;
                        Cycles(costs.llc_hit)
                    }
                    CacheLevel::Memory => {
                        self.perf.cache_references += 1;
                        self.perf.cache_misses += 1;
                        Cycles(costs.mem_access)
                    }
                }
            }
        }
    }

    /// Route one data line through the cache simulator for pollution
    /// accounting only (its latency is dropped). [`Kernel::stream_lines`]
    /// is the per-range form; this is the single-line primitive.
    pub fn touch_data_line(&mut self, pa: PhysAddr, kind: AccessKind) {
        self.cache_access(pa, kind);
    }

    /// Stream the 64-byte lines at `va`, `va + 64`, … below `va + bytes`
    /// through `core`'s TLB and the cache hierarchy, exactly as a per-line
    /// loop of [`Kernel::translate`] + [`Kernel::touch_data_line`] would,
    /// and return the summed translation cycles (cache latencies are
    /// dropped; callers charge bulk traffic by bandwidth).
    ///
    /// Only the first line of each page is really translated. Every other
    /// line on that page is an L1 DTLB hit on the entry the translation
    /// just left at the front of its recency-ordered set (nothing in
    /// between touches the TLB), and a hit there changes no TLB state, so
    /// those hits are applied in closed form ([`Tlb::repeat_l1_hits`]:
    /// lookups counted, 1 cycle each); the far-tier hook is a no-op for
    /// them (the first line's fetch left the frame resident and already
    /// marked touched), and the TLB oracle, when enabled, still checks
    /// each one. Errors propagate from the failing line, as the per-line
    /// loop's would.
    pub fn stream_lines(
        &mut self,
        space: &AddressSpace,
        core: CoreId,
        va: VirtAddr,
        bytes: u64,
        kind: AccessKind,
    ) -> Result<Cycles, VmError> {
        const LINE: u64 = 64;
        let mut t = Cycles::ZERO;
        let mut off = 0;
        while off < bytes {
            let first = va + off;
            let page_end = (first.vpn() + 1) * PAGE_SIZE;
            let lines = (page_end - first.get()).min(bytes - off).div_ceil(LINE);
            let (pa, c) = self.translate(space, core, first)?;
            t += c;
            let repeats = lines - 1;
            if repeats > 0 {
                self.perf.tlb_lookups += repeats;
                self.tlbs[core.0].repeat_l1_hits(space.asid(), first.vpn(), repeats);
                if self.tlb_oracle.is_enabled() {
                    for i in 1..lines {
                        self.oracle_check_hit(space, core, first + i * LINE, pa.frame());
                    }
                }
                t += Cycles(repeats);
            }
            for i in 0..lines {
                self.cache_access(pa + i * LINE, kind);
            }
            off += lines * LINE;
        }
        Ok(t)
    }

    /// Touch the shadow line of the PTE for `va` at walk `level`
    /// (0 = PGD … 3 = PTE table). Page-table walks pollute the cache too —
    /// that's part of why SwapVA still beats memmove only above a
    /// threshold.
    pub(crate) fn touch_pt_level(&mut self, va: VirtAddr, level: u8) -> Cycles {
        self.perf.pt_level_accesses += 1;
        if !self.instrumented() {
            return self.hot_pt_level_cost();
        }
        let shift = 12 + 9 * (3 - level as u64).min(3);
        let idx = va.get() >> shift;
        let pa = PhysAddr(PT_SHADOW_BASE + (level as u64) * (1 << 40) + idx * 8);
        Cycles(self.machine.costs.pt_level_access) + self.cache_access(pa, AccessKind::Read)
    }

    /// One walked level when uninstrumented: page-table lines are hot by
    /// construction (walked over and over; the very premise of PMD
    /// caching), so every level costs an L2-ish latency on top of the
    /// access itself, whatever its address.
    #[inline]
    pub(crate) fn hot_pt_level_cost(&self) -> Cycles {
        Cycles(self.machine.costs.pt_level_access + self.machine.costs.l2_hit)
    }

    // ---- TLB-mediated translation --------------------------------------

    /// Translate `va` in `space` on `core`, consulting that core's TLB and
    /// charging refills on miss.
    #[inline]
    pub fn translate(
        &mut self,
        space: &AddressSpace,
        core: CoreId,
        va: VirtAddr,
    ) -> Result<(PhysAddr, Cycles), VmError> {
        let asid = space.asid();
        let vpn = va.vpn();
        self.perf.tlb_lookups += 1;
        let (hit, frame) = self.tlbs[core.0].lookup(asid, vpn);
        let (frame, mut t) = match hit {
            TlbHit::L1 => {
                let frame =
                    frame.expect("TLB invariant: an L1 hit always carries its cached frame");
                if self.tlb_oracle.is_enabled() {
                    self.oracle_check_hit(space, core, va, frame);
                }
                (frame, Cycles(1))
            }
            TlbHit::Stlb => {
                let frame =
                    frame.expect("TLB invariant: an STLB hit always carries its cached frame");
                if self.tlb_oracle.is_enabled() {
                    self.oracle_check_hit(space, core, va, frame);
                }
                (frame, Cycles(7))
            }
            TlbHit::Miss => {
                self.perf.tlb_misses += 1;
                let pa = space.translate(va)?;
                self.tlbs[core.0].insert(asid, vpn, pa.frame());
                (pa.frame(), Cycles(self.machine.costs.tlb_refill))
            }
        };
        // Far-tier hook: a TLB hit proves the mapping is cached, not that
        // the frame is resident — every arm consults the residency table so
        // a demoted page is fetched before the access proceeds.
        if self.tier.is_some() {
            t += self.tier_fetch_on_access(frame)?;
        }
        Ok((frame.base() + va.page_offset(), t))
    }

    /// Read one word through `space` on `core`, with full charging.
    #[inline]
    pub fn read_word(
        &mut self,
        space: &AddressSpace,
        core: CoreId,
        va: VirtAddr,
    ) -> Result<(u64, Cycles), VmError> {
        let (pa, t) = self.translate(space, core, va)?;
        let lat = self.cache_access(pa, AccessKind::Read);
        let val = self.vmem.phys.read_u64(pa)?;
        Ok((val, t + lat))
    }

    /// Write one word through `space` on `core`, with full charging.
    /// While a cycle is open, the word's old value is recorded first —
    /// this is how GC metadata writes (forwarding pointers, adjusted
    /// reference fields) become undoable without any collector-side
    /// bookkeeping.
    #[inline]
    pub fn write_word(
        &mut self,
        space: &AddressSpace,
        core: CoreId,
        va: VirtAddr,
        val: u64,
    ) -> Result<Cycles, VmError> {
        let (pa, t) = self.translate(space, core, va)?;
        let mut lat = self.cache_access(pa, AccessKind::Write);
        if self.wal_recording() {
            let old = self.vmem.phys.read_u64(pa)?;
            // Word records are written-ahead too, but crash-atomically (a
            // single-word log write can't tear meaningfully).
            if let Ok(c) = self.wal_record(WalOp::Word { at: va, pre: old }, false) {
                lat += c;
            }
        }
        self.vmem.phys.write_u64(pa, val)?;
        Ok(t + lat)
    }

    // ---- TLB flush primitives ------------------------------------------

    /// Flush `asid` from `core`'s TLB (`flush_tlb_local`).
    pub fn flush_tlb_local(&mut self, core: CoreId, asid: Asid) -> Cycles {
        self.perf.tlb_flushes_local += 1;
        self.tlbs[core.0].flush_asid(asid);
        Cycles(self.machine.costs.tlb_flush_local)
    }

    /// Flush one page from `core`'s TLB (`flush_tlb_page` / `invlpg`).
    pub fn flush_tlb_page(&mut self, core: CoreId, asid: Asid, va: VirtAddr) -> Cycles {
        self.perf.tlb_flushes_page += 1;
        self.tlbs[core.0].flush_page(asid, va.vpn());
        Cycles(self.machine.costs.tlb_flush_page)
    }

    /// Oracle slow path: a TLB hit returned `cached` for `va`; cross-check
    /// it against the live page table and record/trace a stale translation.
    /// Only reached when the oracle is enabled.
    #[cold]
    fn oracle_check_hit(&mut self, space: &AddressSpace, core: CoreId, va: VirtAddr, cached: FrameId) {
        let live = space.translate(va).ok().map(|pa| pa.frame());
        if self.tlb_oracle.check_hit(cached, live) {
            self.trace.instant(
                TraceKind::TlbOracle,
                Cycles::ZERO,
                core.0 as u32,
                &[
                    ("stale_hit", 1),
                    ("vpn", va.vpn()),
                    ("cached_frame", u64::from(cached.0)),
                    ("live_frame", live.map_or(u64::MAX, |f| u64::from(f.0))),
                ],
            );
        }
    }

    /// Access a core's TLB stats: `(lookups, misses)`.
    pub fn tlb_stats(&self, core: CoreId) -> (u64, u64) {
        self.tlbs[core.0].stats()
    }

    /// Direct TLB access for the shootdown module.
    pub(crate) fn tlb_mut(&mut self, core: CoreId) -> &mut Tlb {
        &mut self.tlbs[core.0]
    }

    /// Charge one syscall entry/exit.
    pub(crate) fn charge_syscall(&mut self) -> Cycles {
        self.perf.syscalls += 1;
        Cycles(self.machine.costs.syscall_entry_exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_vmem::Asid;

    fn setup() -> (Kernel, AddressSpace) {
        let k = Kernel::new(MachineConfig::i5_7600(), 256);
        let s = AddressSpace::new(Asid(1));
        (k, s)
    }

    #[test]
    fn translate_charges_refill_then_hits() {
        let (mut k, mut s) = setup();
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        let (_, t_miss) = k.translate(&s, CoreId(0), va).unwrap();
        assert_eq!(t_miss, Cycles(k.machine.costs.tlb_refill));
        let (_, t_hit) = k.translate(&s, CoreId(0), va).unwrap();
        assert!(t_hit.get() < 10);
        assert_eq!(k.perf.tlb_misses, 1);
        assert_eq!(k.perf.tlb_lookups, 2);
    }

    #[test]
    fn per_core_tlbs_are_independent() {
        let (mut k, mut s) = setup();
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.translate(&s, CoreId(0), va).unwrap();
        // Core 1 misses even though core 0 is warm.
        k.translate(&s, CoreId(1), va).unwrap();
        assert_eq!(k.perf.tlb_misses, 2);
    }

    #[test]
    fn word_rw_through_kernel() {
        let (mut k, mut s) = setup();
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.write_word(&s, CoreId(0), va, 99).unwrap();
        let (v, _) = k.read_word(&s, CoreId(0), va).unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn local_flush_forces_refill() {
        let (mut k, mut s) = setup();
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.translate(&s, CoreId(0), va).unwrap();
        k.flush_tlb_local(CoreId(0), s.asid());
        let (_, t) = k.translate(&s, CoreId(0), va).unwrap();
        assert_eq!(t, Cycles(k.machine.costs.tlb_refill));
        assert_eq!(k.perf.tlb_flushes_local, 1);
    }

    #[test]
    fn instrumented_mode_counts_cache_events() {
        let (mut k, mut s) = setup();
        k.set_instrumented(true);
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.write_word(&s, CoreId(0), va, 1).unwrap();
        k.read_word(&s, CoreId(0), va).unwrap();
        assert_eq!(k.perf.cache_accesses, 2);
        // First access missed everywhere, second hit L1.
        assert_eq!(k.perf.cache_misses, 1);
    }

    #[test]
    fn pinning_tracks_state() {
        let (mut k, _) = setup();
        assert!(k.pinned_core().is_none());
        let c = k.pin(CoreId(2));
        assert_eq!(c, Cycles(k.machine.costs.pin_task));
        assert_eq!(k.pinned_core(), Some(CoreId(2)));
        k.unpin();
        assert!(k.pinned_core().is_none());
    }
}
