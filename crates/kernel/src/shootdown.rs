//! TLB shootdown: flush policies, IPI broadcast, and remote interference.
//!
//! §IV of the paper: after a PTE changes, every core that may hold a stale
//! translation must flush. The naive implementation broadcasts IPIs to all
//! cores on *every* SwapVA call (`l̄ · c` IPIs per GC); the optimized
//! protocol (Algorithm 4) pins the compactor, broadcasts *once* per GC
//! cycle, then flushes only locally — `c` IPIs total, a gain of `l̄` (Eq. 2).

use crate::fault::CrashPoint;
use crate::state::{CoreId, Kernel};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::Asid;

/// Bitmask of victim cores. Exact by construction: `Kernel::new` rejects
/// machines with more than 64 cores, so every core owns a distinct bit and
/// trace victim masks can never alias.
fn victim_bit(core: usize) -> u64 {
    assert!(core < 64, "victim_bit: core {core} does not fit an exact u64 mask");
    1u64 << core
}

/// When/where SwapVA flushes TLBs after updating PTEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// Correct-by-construction naive mode: every call ends with a global
    /// shootdown (local flush + IPI to every other core).
    GlobalBroadcast,
    /// Optimized mode (Algorithm 4): the caller has pinned itself and
    /// already broadcast once at phase start; each call flushes only the
    /// local core.
    LocalOnly,
    /// Access-tracking shootdown (the approach of Amit's page-access
    /// tracking, cited in §IV): IPIs go only to cores whose TLBs actually
    /// hold entries of this address space. More precise than a broadcast
    /// but needs per-core tracking state the paper's pinning protocol
    /// avoids — included for the §IV comparison.
    Tracked,
}

/// Cycles a shootdown stole from *other* cores (mutator interference).
#[derive(Debug, Clone, Copy, Default)]
pub struct Interference(pub Cycles);

impl Kernel {
    /// Broadcast a flush of `asid` to every core: flush locally, IPI all
    /// `cores-1` peers, wait for their acks (`flush_tlb_all_cores` in
    /// Algorithm 4 / `flush_tlb_others` in §IV).
    ///
    /// Returns `(initiator_cost, interference)`: the initiator pays the
    /// local flush, the IPI dispatches, and one receiver-latency wait (the
    /// remote handlers run in parallel); the remote handler work itself is
    /// reported as interference so multi-JVM drivers can charge it to the
    /// victims' application time.
    pub fn flush_asid_all_cores(
        &mut self,
        initiator: CoreId,
        asid: Asid,
    ) -> (Cycles, Interference) {
        let costs = self.machine.costs;
        let peers = (self.machine.cores - 1) as u64;
        let mut t = self.flush_tlb_local(initiator, asid);
        let mut victims = 0u64;
        for core in 0..self.machine.cores {
            if core == initiator.0 {
                continue;
            }
            // A seeded mid-IPI crash kills the machine partway through the
            // fan-out: some victims flushed, the rest keep stale entries.
            // The signature stays infallible — the latch is set and callers
            // poll [`Kernel::crashed`] after the broadcast.
            if self.crash_fire(CrashPoint::MidIpi) {
                break;
            }
            self.perf.ipis_sent += 1;
            self.tlb_mut(CoreId(core)).flush_asid(asid);
            victims |= victim_bit(core);
        }
        t += Cycles(costs.ipi_send * peers);
        if peers > 0 {
            // Wait for the slowest remote ack.
            t += Cycles(costs.ipi_receive_flush);
        }
        let intf = Interference(Cycles(costs.ipi_receive_flush * peers));
        self.trace.instant(
            TraceKind::Shootdown,
            Cycles::ZERO,
            initiator.0 as u32,
            &[
                ("ipis", peers),
                ("interference", intf.0.get()),
                ("victims", victims),
            ],
        );
        if self.tlb_oracle.is_enabled() && self.crashed.is_none() {
            // A crashed broadcast never completed: it must not count as
            // coverage (the whole point of the MidIpi crash is that some
            // victims still hold stale entries).
            self.tlb_oracle.note_broadcast(asid);
            self.audit_flush_coverage(initiator, asid);
        }
        (t, intf)
    }

    /// Targeted shootdown: flush `asid` only on cores that actually hold
    /// entries for it (plus the initiator).
    pub fn flush_asid_tracked(&mut self, initiator: CoreId, asid: Asid) -> (Cycles, Interference) {
        let costs = self.machine.costs;
        let mut t = self.flush_tlb_local(initiator, asid);
        // Consulting the tracking state costs a lookup per core.
        t += Cycles(self.machine.cores as u64 * 8);
        let mut targets = 0u64;
        let mut victims = 0u64;
        for core in 0..self.machine.cores {
            if core == initiator.0 {
                continue;
            }
            if self.tlb_mut(CoreId(core)).holds_asid(asid) {
                self.perf.ipis_sent += 1;
                self.tlb_mut(CoreId(core)).flush_asid(asid);
                targets += 1;
                victims |= victim_bit(core);
            }
        }
        t += Cycles(costs.ipi_send * targets);
        if targets > 0 {
            t += Cycles(costs.ipi_receive_flush);
        }
        let intf = Interference(Cycles(costs.ipi_receive_flush * targets));
        self.trace.instant(
            TraceKind::Shootdown,
            Cycles::ZERO,
            initiator.0 as u32,
            &[
                ("ipis", targets),
                ("interference", intf.0.get()),
                ("victims", victims),
            ],
        );
        if self.tlb_oracle.is_enabled() {
            self.audit_flush_coverage(initiator, asid);
        }
        (t, intf)
    }

    /// The per-call flush required by `mode` after a SwapVA body.
    pub fn flush_after_swap(
        &mut self,
        core: CoreId,
        asid: Asid,
        mode: FlushMode,
    ) -> (Cycles, Interference) {
        match mode {
            FlushMode::GlobalBroadcast => self.flush_asid_all_cores(core, asid),
            FlushMode::LocalOnly => {
                if self.tlb_oracle.is_enabled() {
                    self.audit_local_only_flush(core, asid);
                }
                (self.flush_tlb_local(core, asid), Interference::default())
            }
            FlushMode::Tracked => self.flush_asid_tracked(core, asid),
        }
    }

    /// Oracle audit: a shootdown claiming full coverage of `asid` must
    /// leave no core holding entries of it. Only reached with the oracle on.
    #[cold]
    fn audit_flush_coverage(&mut self, initiator: CoreId, asid: Asid) {
        for core in 0..self.machine.cores {
            if self.tlb_mut(CoreId(core)).holds_asid(asid) {
                self.tlb_oracle.record_unflushed_victim();
                self.trace.instant(
                    TraceKind::TlbOracle,
                    Cycles::ZERO,
                    initiator.0 as u32,
                    &[
                        ("audit_violation", 1),
                        ("unflushed_core", core as u64),
                        ("asid", u64::from(asid.0)),
                    ],
                );
            }
        }
    }

    /// Oracle audit of the Algorithm 4 preconditions for a `LocalOnly`
    /// post-swap flush: the compactor must be pinned, and an all-core
    /// broadcast of `asid` must have happened since the pin began. Only
    /// reached with the oracle on.
    #[cold]
    fn audit_local_only_flush(&mut self, core: CoreId, asid: Asid) {
        let pinned = self.pinned_core().is_some();
        if self.tlb_oracle.audit_local_only(asid, pinned) {
            self.trace.instant(
                TraceKind::TlbOracle,
                Cycles::ZERO,
                core.0 as u32,
                &[
                    ("audit_violation", 1),
                    ("pinned", u64::from(pinned)),
                    ("asid", u64::from(asid.0)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_metrics::MachineConfig;
    use svagc_vmem::{AddressSpace, VirtAddr};

    #[test]
    fn broadcast_sends_cores_minus_one_ipis() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        let (_, _) = k.flush_asid_all_cores(CoreId(0), Asid(1));
        assert_eq!(k.perf.ipis_sent, 31);
        assert_eq!(k.perf.tlb_flushes_local, 1);
    }

    #[test]
    fn broadcast_actually_clears_remote_tlbs() {
        let mut k = Kernel::new(MachineConfig::i5_7600(), 16);
        let mut s = AddressSpace::new(Asid(1));
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        // Warm core 3's TLB.
        k.translate(&s, CoreId(3), va).unwrap();
        k.flush_asid_all_cores(CoreId(0), s.asid());
        let before = k.perf.tlb_misses;
        k.translate(&s, CoreId(3), va).unwrap();
        assert_eq!(k.perf.tlb_misses, before + 1, "core 3 must re-walk");
    }

    #[test]
    fn local_only_is_cheaper_than_broadcast() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        let (local, _) = k.flush_after_swap(CoreId(0), Asid(1), FlushMode::LocalOnly);
        let (global, _) = k.flush_after_swap(CoreId(0), Asid(1), FlushMode::GlobalBroadcast);
        assert!(global.get() > local.get() * 10);
    }

    #[test]
    fn tracked_flush_targets_only_holders() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        let mut s = AddressSpace::new(Asid(1));
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        // Cores 3 and 7 have touched the space; everyone else hasn't.
        k.translate(&s, CoreId(3), va).unwrap();
        k.translate(&s, CoreId(7), va).unwrap();
        let (_, intf) = k.flush_asid_tracked(CoreId(0), s.asid());
        assert_eq!(k.perf.ipis_sent, 2, "only the two holders get IPIs");
        assert_eq!(
            intf.0.get(),
            2 * k.machine.costs.ipi_receive_flush,
            "interference limited to the holders"
        );
        // Their entries are gone now; a second tracked flush is IPI-free.
        k.flush_asid_tracked(CoreId(0), s.asid());
        assert_eq!(k.perf.ipis_sent, 2);
    }

    #[test]
    fn tracked_is_between_local_and_global() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        let mut s = AddressSpace::new(Asid(1));
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        for c in 1..8 {
            k.translate(&s, CoreId(c), va).unwrap();
        }
        let (local, _) = k.flush_after_swap(CoreId(0), s.asid(), FlushMode::LocalOnly);
        // Re-warm for fair comparison.
        for c in 1..8 {
            k.translate(&s, CoreId(c), va).unwrap();
        }
        let (tracked, _) = k.flush_after_swap(CoreId(0), s.asid(), FlushMode::Tracked);
        for c in 1..8 {
            k.translate(&s, CoreId(c), va).unwrap();
        }
        let (global, _) = k.flush_after_swap(CoreId(0), s.asid(), FlushMode::GlobalBroadcast);
        assert!(local < tracked && tracked < global, "{local} {tracked} {global}");
    }

    #[test]
    fn tracked_untouched_core_gets_no_ipi() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        let mut s = AddressSpace::new(Asid(1));
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.set_tracing(true);
        // Only core 5 ever touches the space.
        k.translate(&s, CoreId(5), va).unwrap();
        let (_, _) = k.flush_asid_tracked(CoreId(0), s.asid());
        assert_eq!(k.perf.ipis_sent, 1, "exactly the one holder is IPIed");
        let ev = k
            .take_trace()
            .into_iter()
            .find(|e| e.kind == TraceKind::Shootdown)
            .expect("tracked flush emits a shootdown event");
        let victims = ev.arg("victims").unwrap();
        assert_eq!(victims, 1u64 << 5, "victim mask names core 5 and nobody else");
    }

    #[test]
    fn tracked_touching_core_always_gets_ipi() {
        // Whichever single core touched the ASID, a tracked flush from
        // core 0 must IPI it — and its exact bit must appear in the mask.
        for holder in 1..MachineConfig::xeon_gold_6130().cores {
            let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
            let mut s = AddressSpace::new(Asid(1));
            let va = k.vmem.alloc_region(&mut s, 1).unwrap();
            k.set_tracing(true);
            k.translate(&s, CoreId(holder), va).unwrap();
            k.flush_asid_tracked(CoreId(0), s.asid());
            assert_eq!(k.perf.ipis_sent, 1, "holder {holder} must be IPIed");
            let ev = k
                .take_trace()
                .into_iter()
                .find(|e| e.kind == TraceKind::Shootdown)
                .unwrap();
            let victims = ev.arg("victims").unwrap();
            assert_eq!(victims, 1u64 << holder, "exact bit for core {holder}");
        }
    }

    #[test]
    fn tracked_interference_charged_only_to_true_victims() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        let mut s = AddressSpace::new(Asid(1));
        let va = k.vmem.alloc_region(&mut s, 1).unwrap();
        // No holders at all: zero IPIs, zero interference.
        let (_, intf0) = k.flush_asid_tracked(CoreId(0), s.asid());
        assert_eq!(k.perf.ipis_sent, 0);
        assert_eq!(intf0.0.get(), 0, "nobody held the ASID, nobody pays");
        // Three holders: interference is exactly 3 remote flush handlers.
        for c in [2usize, 9, 17] {
            k.translate(&s, CoreId(c), va).unwrap();
        }
        let (_, intf3) = k.flush_asid_tracked(CoreId(0), s.asid());
        assert_eq!(k.perf.ipis_sent, 3);
        assert_eq!(intf3.0.get(), 3 * k.machine.costs.ipi_receive_flush);
    }

    /// Two address spaces, each with one page mapped at the same virtual
    /// address: core 3 holds both, core 5 holds only space 2.
    fn two_space_kernel() -> (Kernel, AddressSpace, AddressSpace, VirtAddr) {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        k.set_tlb_oracle(true);
        k.set_tracing(true);
        let mut s1 = AddressSpace::new(Asid(1));
        let mut s2 = AddressSpace::new(Asid(2));
        let a = k.vmem.alloc_region(&mut s1, 1).unwrap();
        let b = k.vmem.alloc_region(&mut s2, 1).unwrap();
        k.translate(&s1, CoreId(3), a).unwrap();
        k.translate(&s2, CoreId(3), b).unwrap();
        k.translate(&s2, CoreId(5), b).unwrap();
        assert_eq!(a, b);
        (k, s1, s2, a)
    }

    #[test]
    fn tracked_flush_skips_cores_holding_only_other_spaces() {
        let (mut k, s1, s2, _) = two_space_kernel();
        k.flush_asid_tracked(CoreId(0), s1.asid());
        assert_eq!(k.perf.ipis_sent, 1, "core 5 holds only space 2: no IPI");
        // Space 1 is gone everywhere; space 2 is still on cores 3 and 5.
        k.flush_asid_tracked(CoreId(0), s2.asid());
        assert_eq!(k.perf.ipis_sent, 3, "both holders of space 2 are IPIed");
        let victims: Vec<u64> = k
            .take_trace()
            .into_iter()
            .filter(|e| e.kind == TraceKind::Shootdown)
            .map(|e| e.arg("victims").unwrap())
            .collect();
        assert_eq!(victims, [1 << 3, (1 << 3) | (1 << 5)]);
        assert_eq!(k.tlb_oracle_stats().audit_violations, 0);
    }

    #[test]
    fn flushing_one_space_keeps_the_other_resident() {
        let (mut k, s1, s2, va) = two_space_kernel();
        k.flush_asid_tracked(CoreId(0), s1.asid());
        k.flush_asid_all_cores(CoreId(0), s1.asid());
        let misses = k.perf.tlb_misses;
        k.translate(&s2, CoreId(3), va).unwrap();
        k.translate(&s2, CoreId(5), va).unwrap();
        assert_eq!(k.perf.tlb_misses, misses, "space 2 hits without a refill");
        k.translate(&s1, CoreId(3), va).unwrap();
        assert_eq!(k.perf.tlb_misses, misses + 1, "space 1 re-walks");
        let st = k.tlb_oracle_stats();
        assert_eq!((st.audit_violations, st.stale_hits), (0, 0));
    }

    #[test]
    #[should_panic(expected = "limited to 64 cores")]
    fn machines_beyond_64_cores_are_rejected() {
        let mut m = MachineConfig::xeon_gold_6130();
        m.cores = 65;
        let _ = Kernel::new(m, 16);
    }

    #[test]
    fn sixty_four_core_machine_masks_are_exact() {
        let mut m = MachineConfig::xeon_gold_6130();
        m.cores = 64;
        let mut k = Kernel::new(m, 16);
        k.set_tracing(true);
        k.flush_asid_all_cores(CoreId(0), Asid(1));
        assert_eq!(k.perf.ipis_sent, 63, "all 63 peers of core 0 are IPIed");
        let ev = k
            .take_trace()
            .into_iter()
            .find(|e| e.kind == TraceKind::Shootdown)
            .unwrap();
        let victims = ev.arg("victims").unwrap();
        assert_eq!(victims, !1u64, "all 63 peers of core 0, each with its own bit");
    }

    #[test]
    fn oracle_audits_unprotected_local_only_flush() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        k.set_tlb_oracle(true);
        // No pin, no broadcast: a LocalOnly flush violates Algorithm 4.
        k.flush_after_swap(CoreId(0), Asid(1), FlushMode::LocalOnly);
        assert_eq!(k.tlb_oracle_stats().audit_violations, 1);
        // Pin + broadcast first: the same flush is now legal.
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        k.set_tlb_oracle(true);
        k.pin(CoreId(0));
        k.flush_asid_all_cores(CoreId(0), Asid(1));
        k.flush_after_swap(CoreId(0), Asid(1), FlushMode::LocalOnly);
        assert_eq!(k.tlb_oracle_stats().audit_violations, 0);
        // Unpinning closes the epoch: local-only flushes are illegal again.
        k.unpin();
        k.flush_after_swap(CoreId(0), Asid(1), FlushMode::LocalOnly);
        assert_eq!(k.tlb_oracle_stats().audit_violations, 1);
    }

    #[test]
    fn oracle_catches_stale_hit_after_unflushed_swap() {
        let mut k = Kernel::new(MachineConfig::i5_7600(), 16);
        k.set_tlb_oracle(true);
        let mut s = AddressSpace::new(Asid(1));
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        let b = k.vmem.alloc_region(&mut s, 1).unwrap();
        // Warm core 1, then swap the PTEs behind its back with no flush.
        k.translate(&s, CoreId(1), a).unwrap();
        k.translate(&s, CoreId(1), b).unwrap();
        s.page_table_mut().swap_ptes(a, b).unwrap();
        assert_eq!(k.tlb_oracle_stats().stale_hits, 0);
        k.translate(&s, CoreId(1), a).unwrap();
        let st = k.tlb_oracle_stats();
        assert_eq!(st.stale_hits, 1, "the cached frame no longer matches the PT");
        assert!(st.checks >= 1);
        // A fresh walk on a flushed core is clean.
        k.flush_tlb_local(CoreId(1), s.asid());
        k.translate(&s, CoreId(1), a).unwrap();
        assert_eq!(k.tlb_oracle_stats().stale_hits, 1);
    }

    #[test]
    fn interference_scales_with_peer_count() {
        let mut big = Kernel::new(MachineConfig::xeon_gold_6130(), 16);
        let mut small = Kernel::new(MachineConfig::i5_7600(), 16);
        let (_, i_big) = big.flush_asid_all_cores(CoreId(0), Asid(1));
        let (_, i_small) = small.flush_asid_all_cores(CoreId(0), Asid(1));
        assert!(i_big.0.get() > i_small.0.get());
    }
}
