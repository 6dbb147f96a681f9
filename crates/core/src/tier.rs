//! Cold-object tiering policy: which pages live in DRAM and which are
//! demoted to the fallible far-memory tier.
//!
//! The kernel's [`svagc_kernel::FarTier`] provides the *mechanism*
//! (device I/O, residency, WAL records, fetch-on-access); this module is
//! the *policy* that drives it, piggybacked on the end of every GC
//! cycle:
//!
//! 1. **Hotness.** Every translation through the kernel records the
//!    touched frame; the controller drains that set each pass into a
//!    decayed per-frame score, a table indexed by frame id. Pages the
//!    mutator keeps touching never become demotion candidates.
//! 2. **Demotion.** When the resident page count exceeds
//!    `ceil(heap pages × dram_fraction)`, the coldest resident pages are
//!    demoted (device writeback + verify + WAL record each) until the
//!    target holds, capped per pass by [`TierPolicy::max_batch`]. The
//!    pass is traced as one [`PacketKind::DemoteBatch`] packet.
//! 3. **Degradation.** A *permanent* writeback failure means the device
//!    can no longer be trusted with data: the controller promotes every
//!    far page back (their bytes are still fetchable until the device
//!    actually dies), switches to [`TierMode::DramOnly`], and stops
//!    demoting. After [`TierPolicy::probation`] clean passes it re-probes
//!    with a single demotion; success returns to [`TierMode::Tiered`].
//!    Only a *fetch* failure — the device lost bytes the heap needs — is
//!    terminal, and even that surfaces as a typed, tenant-local
//!    [`GcError::Tier`], never a panic.
//!
//! The ladder, end to end: transient device fault → retry with backoff
//! (kernel layer) → permanent writeback failure → DRAM-only degraded
//! mode (this layer) → permanent fetch failure → typed device-failed
//! error (driver exit code). Each rung strictly contains the blast
//! radius of the one below it.

use crate::error::GcError;
use crate::packets::PacketKind;
use svagc_kernel::{Kernel, TierError};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{AddressSpace, FrameId, VirtAddr, PAGE_SIZE};

/// Hotness added to a frame each pass it was touched in (decay halves
/// scores every pass, so a frame stays "hot" for a few quiet passes
/// after its last touch).
const TOUCH_BOOST: u32 = 4;

/// Knobs of the demotion policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPolicy {
    /// Fraction of the heap's committed pages kept resident in DRAM
    /// (clamped to `(0, 1]`); the rest are demotion candidates.
    pub dram_fraction: f64,
    /// Most pages demoted in one pass (bounds the pause added to the
    /// cycle that triggered the pass).
    pub max_batch: usize,
    /// Clean DRAM-only passes before re-probing a device that failed a
    /// writeback permanently.
    pub probation: u32,
}

impl TierPolicy {
    /// A policy keeping `dram_fraction` of heap pages resident.
    pub fn new(dram_fraction: f64) -> TierPolicy {
        TierPolicy {
            dram_fraction: dram_fraction.clamp(0.05, 1.0),
            max_batch: 64,
            probation: 2,
        }
    }
}

/// Whether the controller is currently willing to demote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierMode {
    /// Normal operation: cold pages go to the far tier.
    Tiered,
    /// The device failed a writeback permanently; everything stays in
    /// DRAM until a probation re-probe succeeds.
    DramOnly,
}

impl TierMode {
    /// Human-readable name (CLI output, trace args).
    pub fn name(self) -> &'static str {
        match self {
            TierMode::Tiered => "tiered",
            TierMode::DramOnly => "dram-only",
        }
    }
}

/// Controller activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCtlStats {
    /// Demote passes run (one per GC cycle while enabled).
    pub passes: u64,
    /// Pages demoted across all passes.
    pub demoted_pages: u64,
    /// Passes cut short because the device was full.
    pub device_full: u64,
    /// Escalations to [`TierMode::DramOnly`].
    pub degraded: u64,
    /// Probation re-probes attempted from DRAM-only mode.
    pub reprobes: u64,
    /// Successful returns to [`TierMode::Tiered`].
    pub recovered: u64,
}

/// The per-tenant tiering policy state carried across GC cycles.
///
/// Hotness is a score per frame, indexed by frame id and sized to the
/// installed tier's frame table. A frame never touched scores 0, and the
/// candidate order is `(score, frame)`, so the demotion order depends
/// only on the scores, never on how they are stored.
#[derive(Debug, Clone)]
pub struct TierController {
    policy: Option<TierPolicy>,
    mode: TierMode,
    hotness: Vec<u32>,
    /// Candidate list of the last pass, kept so each pass reuses its
    /// allocation.
    cand: Vec<(u32, FrameId, VirtAddr)>,
    clean_passes: u32,
    /// Activity counters.
    pub stats: TierCtlStats,
}

impl TierController {
    /// An inert controller: [`TierController::after_cycle`] is a free
    /// no-op, so tiering-off runs are byte-identical to pre-tier ones.
    pub fn off() -> TierController {
        TierController {
            policy: None,
            mode: TierMode::Tiered,
            hotness: Vec::new(),
            cand: Vec::new(),
            clean_passes: 0,
            stats: TierCtlStats::default(),
        }
    }

    /// A controller demoting per `policy`.
    pub fn new(policy: TierPolicy) -> TierController {
        TierController {
            policy: Some(policy),
            ..TierController::off()
        }
    }

    /// Is demotion configured at all?
    pub fn enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// The current rung of the degrade ladder.
    pub fn mode(&self) -> TierMode {
        self.mode
    }

    /// Decay hotness and fold in the frames touched since the last pass.
    fn refresh_hotness(&mut self, kernel: &mut Kernel) {
        let Some(tier) = kernel.far_tier_mut() else {
            return;
        };
        self.hotness.resize(tier.frame_capacity(), 0);
        for score in &mut self.hotness {
            *score /= 2;
        }
        let hotness = &mut self.hotness;
        tier.drain_touched(|f| hotness[f.0 as usize] += TOUCH_BOOST);
    }

    /// Fill `self.cand` with the resident heap pages as `(hotness, frame,
    /// va)`, coldest first, and return the committed page count.
    /// Committed-but-far pages count toward the total but are not
    /// candidates (they are already demoted).
    fn candidates(
        &mut self,
        kernel: &Kernel,
        space: &AddressSpace,
        base: VirtAddr,
        top: VirtAddr,
    ) -> u64 {
        let tier = kernel.far_tier().expect("checked by caller");
        let mut total = 0u64;
        self.cand.clear();
        let mut va = VirtAddr(base.get() & !(PAGE_SIZE - 1));
        while va.get() < top.get() {
            if let Ok(pa) = space.translate(va) {
                total += 1;
                let frame = pa.frame();
                if !tier.is_far(frame) {
                    let score = self.hotness.get(frame.0 as usize).copied().unwrap_or(0);
                    self.cand.push((score, frame, va));
                }
            }
            va = VirtAddr(va.get() + PAGE_SIZE);
        }
        // Frames are unique, so the unstable sort is a total order.
        self.cand.sort_unstable_by_key(|&(score, frame, _)| (score, frame));
        total
    }

    /// Permanent writeback failure: pull everything back to DRAM and
    /// stop demoting. Promote-all is safe here — a writeback failure
    /// loses nothing (the bytes never left DRAM) — but if the *fetches*
    /// it issues fail too, the device has genuinely lost data and that
    /// error propagates.
    fn degrade(&mut self, kernel: &mut Kernel) -> Result<Cycles, GcError> {
        self.mode = TierMode::DramOnly;
        self.clean_passes = 0;
        self.stats.degraded += 1;
        self.hotness.fill(0);
        let t = kernel.tier_promote_all().map_err(GcError::from)?;
        kernel.trace.instant(
            TraceKind::ModeChange,
            Cycles::ZERO,
            0,
            &[("tier_mode", 1), ("tier_degraded", self.stats.degraded)],
        );
        Ok(t)
    }

    /// Run the post-cycle tier pass over the heap range `[base, top)` of
    /// `space`. Returns the simulated cycles the pass consumed (GC
    /// overhead, not mutator time).
    pub fn after_cycle(
        &mut self,
        kernel: &mut Kernel,
        space: &AddressSpace,
        base: VirtAddr,
        top: VirtAddr,
    ) -> Result<Cycles, GcError> {
        let Some(policy) = self.policy else {
            return Ok(Cycles::ZERO);
        };
        if kernel.far_tier().is_none() {
            return Ok(Cycles::ZERO);
        }
        self.stats.passes += 1;
        self.refresh_hotness(kernel);
        let total = self.candidates(kernel, space, base, top);
        let target = (total as f64 * policy.dram_fraction).ceil() as u64;
        let want = (self.cand.len() as u64).saturating_sub(target.max(1)) as usize;

        let mut budget = match self.mode {
            TierMode::Tiered => want.min(policy.max_batch),
            TierMode::DramOnly => {
                // Probation: after enough clean passes, risk exactly one
                // page to see whether the device recovered.
                self.clean_passes += 1;
                if self.clean_passes < policy.probation.max(1) || want == 0 {
                    return Ok(Cycles::ZERO);
                }
                self.stats.reprobes += 1;
                1
            }
        };

        // Taken for the loop (which needs `&mut self`) and put back after
        // it; an error return drops it, and the run ends anyway.
        let cand = std::mem::take(&mut self.cand);
        let mut t = Cycles::ZERO;
        let mut demoted = 0u64;
        for &(_, _, va) in &cand {
            if budget == 0 {
                break;
            }
            match kernel.tier_demote_page(space, va) {
                Ok(c) => {
                    t += c;
                    demoted += 1;
                    budget -= 1;
                    if self.mode == TierMode::DramOnly {
                        // The probe landed: the device is taking writes
                        // again. Full demotion resumes next pass.
                        self.mode = TierMode::Tiered;
                        self.clean_passes = 0;
                        self.stats.recovered += 1;
                        kernel.trace.instant(
                            TraceKind::ModeChange,
                            Cycles::ZERO,
                            0,
                            &[("tier_mode", 0), ("tier_recovered", self.stats.recovered)],
                        );
                        break;
                    }
                }
                Err(TierError::DeviceFull) => {
                    self.stats.device_full += 1;
                    break;
                }
                Err(TierError::WritebackFailed { .. }) => {
                    t += self.degrade(kernel)?;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.cand = cand;
        self.stats.demoted_pages += demoted;
        if demoted > 0 {
            kernel.trace.instant(
                TraceKind::Packet,
                t,
                0,
                &[
                    ("kind", PacketKind::DemoteBatch.id()),
                    ("pages", demoted),
                    ("far", u64::from(kernel.far_tier().expect("enabled").far_count())),
                ],
            );
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_kernel::{
        CoreId, DeviceFaultConfig, DeviceFaultPlan, FarDevice, FarTier, RetryPolicy,
    };
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    fn setup(pages: u64, slots: u32) -> (Kernel, AddressSpace, VirtAddr) {
        let mut k = Kernel::new(MachineConfig::i5_7600(), 256);
        let mut s = AddressSpace::new(Asid(1));
        let va = k.vmem.alloc_region(&mut s, pages).unwrap();
        k.set_far_tier(Some(FarTier::new(
            FarDevice::new(slots),
            RetryPolicy::default(),
        )));
        for i in 0..pages {
            k.write_word(&s, CoreId(0), va.add_pages(i), 0x1000 + i).unwrap();
        }
        (k, s, va)
    }

    fn top(va: VirtAddr, pages: u64) -> VirtAddr {
        VirtAddr(va.get() + pages * PAGE_SIZE)
    }

    #[test]
    fn inert_controller_does_nothing() {
        let (mut k, s, va) = setup(4, 8);
        let mut c = TierController::off();
        assert_eq!(
            c.after_cycle(&mut k, &s, va, top(va, 4)).unwrap(),
            Cycles::ZERO
        );
        assert_eq!(k.far_tier().unwrap().far_count(), 0);
        assert_eq!(c.stats.passes, 0);
    }

    #[test]
    fn demotes_down_to_the_dram_fraction() {
        let (mut k, s, va) = setup(8, 16);
        let mut c = TierController::new(TierPolicy::new(0.5));
        let t = c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        assert!(t > Cycles::ZERO);
        assert_eq!(k.far_tier().unwrap().far_count(), 4, "8 pages, 50% resident");
        assert_eq!(c.stats.demoted_pages, 4);
        // Already at target: the next pass demotes nothing.
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        assert_eq!(c.stats.demoted_pages, 4);
    }

    #[test]
    fn hot_pages_are_demoted_last() {
        let (mut k, s, va) = setup(8, 16);
        let mut c = TierController::new(TierPolicy::new(0.5));
        // The setup writes touched every page; drain that noise so only
        // the reads below count as the hotness signal.
        k.far_tier_mut().unwrap().drain_touched(|_| {});
        // Touch pages 0..4 so they are hot; the cold half (4..8) goes far.
        for i in 0..4 {
            k.read_word(&s, CoreId(0), va.add_pages(i)).unwrap();
        }
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        let tier = k.far_tier().unwrap();
        for i in 0..4u64 {
            let f = s.translate(va.add_pages(i)).unwrap().frame();
            assert!(!tier.is_far(f), "hot page {i} stayed resident");
        }
        assert_eq!(tier.far_count(), 4);
    }

    /// The candidate order of every pass equals the order an ordered-map
    /// hotness table gives: decay drops every score to half (a score of
    /// 0 leaves the map), touched frames gain [`TOUCH_BOOST`], and
    /// resident heap pages sort by `(score, frame)`.
    #[test]
    fn candidate_order_matches_an_ordered_map_reference() {
        use std::collections::{BTreeMap, BTreeSet};
        use svagc_metrics::SimRng;
        const PAGES: u64 = 24;
        for case in 0..16u64 {
            let rng = &mut SimRng::seed_from_u64(0x407_0000 + case);
            let (mut k, s, va) = setup(PAGES, 64);
            k.far_tier_mut().unwrap().drain_touched(|_| {});
            let mut c = TierController::new(TierPolicy {
                max_batch: 3,
                ..TierPolicy::new(0.5)
            });
            let mut hotness: BTreeMap<FrameId, u32> = BTreeMap::new();
            for pass in 0..24 {
                let mut touched = BTreeSet::new();
                for _ in 0..rng.gen_range(0..12usize) {
                    let page = va.add_pages(rng.gen_range(0..PAGES));
                    k.read_word(&s, CoreId(0), page).unwrap();
                    touched.insert(s.translate(page).unwrap().frame());
                }
                hotness.retain(|_, score| {
                    *score /= 2;
                    *score > 0
                });
                for f in touched {
                    *hotness.entry(f).or_insert(0) += TOUCH_BOOST;
                }
                let tier = k.far_tier().unwrap();
                let mut want: Vec<(u32, FrameId, VirtAddr)> = (0..PAGES)
                    .map(|p| va.add_pages(p))
                    .map(|v| (s.translate(v).unwrap().frame(), v))
                    .filter(|&(f, _)| !tier.is_far(f))
                    .map(|(f, v)| (hotness.get(&f).copied().unwrap_or(0), f, v))
                    .collect();
                want.sort_by_key(|&(score, frame, _)| (score, frame));
                c.after_cycle(&mut k, &s, va, top(va, PAGES)).unwrap();
                assert_eq!(c.cand, want, "case {case} pass {pass}");
            }
            assert!(c.stats.demoted_pages > 0, "case {case} never demoted");
        }
    }

    #[test]
    fn writeback_failure_degrades_to_dram_only_and_reprobes() {
        let (mut k, s, va) = setup(8, 16);
        let mut c = TierController::new(TierPolicy::new(0.5));
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        assert_eq!(k.far_tier().unwrap().far_count(), 4);
        // Device turns permanently EIO: the next pass degrades, and
        // promote-all drains the far pages (reads still work — EIO here
        // is injected per-request and retried; make it truly permanent
        // for writes by exhausting retries deterministically).
        let plan = DeviceFaultPlan::new(DeviceFaultConfig::uniform(0.0, 3).with_offline_after(0));
        k.far_tier_mut().unwrap().set_device_fault_plan(Some(plan));
        // Offline fetches would lose data, so clear the plan before the
        // promote-all inside degrade can run... instead: demote target
        // is already met, so force pressure by touching nothing and
        // shrinking the fraction.
        c.policy = Some(TierPolicy { dram_fraction: 0.25, ..c.policy.unwrap() });
        let e = c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap_err();
        assert!(
            matches!(e, GcError::Tier(TierError::FetchLost { .. })),
            "offline device loses the already-far pages: {e}"
        );
    }

    #[test]
    fn degrade_is_graceful_when_nothing_is_far_yet() {
        let (mut k, s, va) = setup(8, 16);
        let mut c = TierController::new(TierPolicy::new(0.5));
        let plan = DeviceFaultPlan::new(DeviceFaultConfig::uniform(0.0, 3).with_offline_after(0));
        k.far_tier_mut().unwrap().set_device_fault_plan(Some(plan));
        // First-ever demotion hits the dead device: WritebackFailed,
        // nothing was far, so degrade succeeds with all data in DRAM.
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        assert_eq!(c.mode(), TierMode::DramOnly);
        assert_eq!(c.stats.degraded, 1);
        assert_eq!(k.far_tier().unwrap().far_count(), 0);
        // Probation passes do nothing until the re-probe fires; the
        // device is still dead, so the probe fails and we stay degraded.
        assert_eq!(c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap(), Cycles::ZERO);
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        assert_eq!(c.stats.reprobes, 1);
        assert_eq!(c.mode(), TierMode::DramOnly);
        // Device comes back: the next probe succeeds and mode recovers.
        k.far_tier_mut().unwrap().set_device_fault_plan(None);
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        assert_eq!(c.mode(), TierMode::Tiered);
        assert_eq!(c.stats.recovered, 1);
        assert!(k.far_tier().unwrap().far_count() >= 1, "the probe page is far");
    }

    #[test]
    fn device_full_stops_the_pass_without_failing() {
        let (mut k, s, va) = setup(8, 2);
        let mut c = TierController::new(TierPolicy::new(0.25));
        c.after_cycle(&mut k, &s, va, top(va, 8)).unwrap();
        assert_eq!(k.far_tier().unwrap().far_count(), 2, "capped by device capacity");
        assert_eq!(c.stats.device_full, 1);
        assert_eq!(c.mode(), TierMode::Tiered, "full is not a fault");
    }
}
