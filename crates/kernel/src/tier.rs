//! The far-memory tier: frame-keyed residency, fetch-on-access, and the
//! crash-consistent demote/promote protocol.
//!
//! # Frame-keyed residency
//!
//! Demoting a page does NOT unmap it. The page's *frame* keeps its PTE;
//! the frame's contents move to a device slot, the frame is zeroed (so a
//! missed fetch can never silently read stale data), and the frame id is
//! bound to the slot in the residency table. This is the tiering analogue
//! of the paper's zero-copy thesis: because SVAGC moves objects by
//! swapping PTEs, a PTE swap *moves a far page without touching the
//! device* — the frame's slot binding travels with the frame, which the
//! PTE swap re-targets for free. The memmove baseline, by contrast,
//! copies every byte through the CPU each cycle, which forces a fetch of
//! every far page it touches — the thrash the `tiering_resilience` figure
//! measures.
//!
//! # Fetch-on-access
//!
//! [`crate::Kernel::translate`] consults the residency table on every
//! translation (hits and misses alike — a TLB hit proves the *mapping* is
//! cached, not that the frame is resident). A translation that lands on a
//! far frame triggers a fetch: the device read is verified against the
//! page's FNV checksum, retried under the shared
//! [`crate::RetryPolicy`], and the frame's contents are rewritten before
//! the caller's access proceeds. Mutators never observe a zeroed frame.
//!
//! # Crash consistency
//!
//! Residency transitions are write-ahead logged under the reserved
//! [`crate::wal::TIER_EPOCH`], ordered so every crash window recovers to
//! a consistent state:
//!
//! * **Demotion**: device writeback + verify → *WAL record* → zero
//!   frame, move pool charge, insert residency. A crash before the record
//!   (e.g. [`CrashPoint::MidDemoteWriteback`]) leaves the DRAM copy
//!   intact and an orphaned device slot, which recovery's
//!   [`crate::FarDevice::retain_slots`] reclaims.
//! * **Promotion**: device fetch + verify → *WAL record* → rewrite
//!   frame, remove residency, free slot. A crash before the record
//!   ([`CrashPoint::MidPromoteFetch`]) leaves the page far; recovery
//!   re-fetches it.
//!
//! Recovery replays the tier stream in log order to rebuild the residency
//! table, rebuilds the device free list, then promotes everything — all
//! *before* the GC undo pass, whose pre-images must land in resident
//! frames.
//!
//! # Failure ladder
//!
//! Transient device faults retry with exponential backoff. A writeback
//! that fails permanently is *graceful*: the data never left DRAM, so the
//! tier reports [`TierError::WritebackFailed`] and the policy layer
//! degrades to DRAM-only. A fetch that fails permanently lost the only
//! copy: [`TierError::FetchLost`] (surfaced as
//! [`VmError::FarPageLost`] on the access path) is fatal for the run —
//! but still a typed, tenant-local failure, never a panic.

use std::collections::BTreeSet;

use crate::device::{DeviceError, DeviceStats, FarDevice, SlotId};
use crate::fault::CrashPoint;
use crate::retry::RetryPolicy;
use crate::state::Kernel;
use crate::wal::{WalPayload, TIER_EPOCH};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{AddressSpace, FrameId, VirtAddr, VmError};

/// An uncosted view of one page's contents, from
/// [`Kernel::page_view`] or [`FarDevice::peek`].
#[derive(Debug, Clone, Copy)]
pub enum PageView<'a> {
    /// Every byte is known to be 0 without reading any: a clean DRAM
    /// frame, or a far frame whose device slot holds a zero page.
    Zero,
    /// The page's bytes.
    Bytes(&'a [u8]),
}

impl PageView<'_> {
    /// The little-endian word at byte offset `off` (word-aligned).
    #[inline]
    pub fn word(&self, off: usize) -> u64 {
        match self {
            PageView::Zero => 0,
            PageView::Bytes(b) => {
                u64::from_le_bytes(b[off..off + 8].try_into().expect("an 8-byte slice"))
            }
        }
    }
}

/// Failure of a tier operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierError {
    /// A demotion writeback failed permanently (retries exhausted or the
    /// device went offline). Graceful: the page never left DRAM; the
    /// policy layer should degrade to DRAM-only mode.
    WritebackFailed {
        /// The page that stayed resident.
        frame: FrameId,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A fetch of a far page failed permanently: the device holds the
    /// only copy, so the data is lost. Fatal for the run (typed, never a
    /// panic).
    FetchLost {
        /// The unfetchable frame.
        frame: FrameId,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The far device has no free slot (the tier is full); the demotion
    /// is skipped. Graceful — like `WritebackFailed`, nothing was lost.
    DeviceFull,
    /// A seeded crash point fired mid-operation: the machine is dead.
    Crashed {
        /// The crash point that fired.
        point: CrashPoint,
    },
    /// The functional memory substrate failed (bad VA, etc.).
    Vm(VmError),
}

impl From<VmError> for TierError {
    fn from(e: VmError) -> TierError {
        TierError::Vm(e)
    }
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::WritebackFailed { frame, attempts } => write!(
                f,
                "far-tier writeback of frame {} failed permanently after {attempts} attempt(s)",
                frame.0
            ),
            TierError::FetchLost { frame, attempts } => write!(
                f,
                "far-tier fetch of frame {} failed permanently after {attempts} attempt(s): data lost",
                frame.0
            ),
            TierError::DeviceFull => write!(f, "far device full: demotion skipped"),
            TierError::Crashed { point } => write!(f, "crashed at {}", point.name()),
            TierError::Vm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TierError {}

/// Tier activity counters (volatile, for reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Pages demoted to the far tier.
    pub demotions: u64,
    /// Pages promoted back to DRAM (all causes).
    pub promotions: u64,
    /// Promotions triggered by a mutator/GC access (the thrash metric).
    pub fetch_on_access: u64,
    /// Writeback attempts retried after a transient fault.
    pub writeback_retries: u64,
    /// Fetch attempts retried after a transient fault.
    pub fetch_retries: u64,
    /// Cycles burned in retry backoff.
    pub backoff_cycles: u64,
    /// Total cycles charged to tier operations.
    pub tier_cycles: u64,
    /// High-water mark of simultaneously far pages.
    pub far_peak: u32,
    /// Far pages discarded without a fetch because their range was
    /// unmapped (heap decommit of dead pages).
    pub discards: u64,
}

/// The kernel's far-memory tier: the device plus the frame-keyed
/// residency table and the retry policy for its I/O.
///
/// Residency and the touched set are dense tables indexed by
/// [`FrameId`], sized to the machine's frame count when
/// [`Kernel::set_far_tier`] installs the tier: the translation hook is one
/// bit set and one table test, and every walk of a table (promote-all,
/// the policy's touched drain) runs in ascending frame order, so
/// iteration is deterministic.
#[derive(Debug)]
pub struct FarTier {
    pub(crate) device: FarDevice,
    /// Device slot of every currently-far frame, indexed by frame id
    /// (`None`: resident). Frame-keyed (not VPN-keyed) so PTE swaps move
    /// far pages for free.
    residency: Vec<Option<SlotId>>,
    /// Number of `Some` entries in `residency`.
    far: u32,
    /// Bitset of frames touched by translation since the last policy
    /// drain — the hotness signal the demotion policy feeds on.
    touched: Vec<u64>,
    /// Retry/backoff policy for device I/O (shared shape with SwapVA).
    pub(crate) retry: RetryPolicy,
    pub(crate) stats: TierStats,
}

impl FarTier {
    /// A tier backed by `device`, retrying I/O per `retry`. Its tables
    /// are sized when [`Kernel::set_far_tier`] installs it.
    pub fn new(device: FarDevice, retry: RetryPolicy) -> FarTier {
        FarTier {
            device,
            residency: Vec::new(),
            far: 0,
            touched: Vec::new(),
            retry,
            stats: TierStats::default(),
        }
    }

    /// Size the frame-indexed tables for a machine of `frames` frames.
    fn size_for(&mut self, frames: u32) {
        let n = frames as usize;
        self.residency.resize(n, None);
        self.touched.resize(n.div_ceil(64), 0);
    }

    /// Number of frames the tier's tables cover (the machine's frame
    /// count once installed).
    pub fn frame_capacity(&self) -> usize {
        self.residency.len()
    }

    /// The device slot holding `frame`'s content, if it is far.
    #[inline]
    fn slot_of(&self, frame: FrameId) -> Option<SlotId> {
        self.residency.get(frame.0 as usize).copied().flatten()
    }

    /// Is `frame`'s content currently on the far tier?
    #[inline]
    pub fn is_far(&self, frame: FrameId) -> bool {
        self.slot_of(frame).is_some()
    }

    /// Number of currently-far pages.
    pub fn far_count(&self) -> u32 {
        self.far
    }

    /// The far frames, in ascending frame order.
    pub fn far_frames(&self) -> Vec<FrameId> {
        self.residency
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| FrameId(i as u32))
            .collect()
    }

    /// Drain the set of frames touched since the last drain (the
    /// hotness signal for the demotion policy), visiting each in
    /// ascending frame order.
    pub fn drain_touched(&mut self, mut visit: impl FnMut(FrameId)) {
        for (i, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(FrameId((i * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }

    #[inline]
    fn touch(&mut self, frame: FrameId) {
        let i = frame.0 as usize;
        self.touched[i / 64] |= 1 << (i % 64);
    }

    fn untouch(&mut self, frame: FrameId) {
        let i = frame.0 as usize;
        self.touched[i / 64] &= !(1 << (i % 64));
    }

    fn set_far(&mut self, frame: FrameId, slot: SlotId) {
        let entry = &mut self.residency[frame.0 as usize];
        if entry.replace(slot).is_none() {
            self.far += 1;
        }
    }

    fn set_resident(&mut self, frame: FrameId) -> Option<SlotId> {
        let slot = self.residency.get_mut(frame.0 as usize)?.take();
        if slot.is_some() {
            self.far -= 1;
        }
        slot
    }

    /// Forget every residency binding and touch (the host-side tables are
    /// kernel memory and die with the machine).
    pub(crate) fn clear_volatile(&mut self) {
        self.residency.fill(None);
        self.far = 0;
        self.touched.fill(0);
    }

    /// Tier activity counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// The backing device's activity counters.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }

    /// Device slots currently holding data (the tier half of the
    /// frame-leak oracle: after promote-all this must be zero and match
    /// the pool's `far_in_use`).
    pub fn slots_in_use(&self) -> u32 {
        self.device.slots_in_use()
    }

    /// Install (or clear) the device's seeded fault plan.
    pub fn set_device_fault_plan(&mut self, plan: Option<crate::device::DeviceFaultPlan>) {
        self.device.set_fault_plan(plan);
    }

    fn note_far(&mut self) {
        self.stats.far_peak = self.stats.far_peak.max(self.far);
    }

    /// Run one device request (a writeback with its verify, or a fetch)
    /// under the retry policy: a transient failure burns its cycles and a
    /// backoff, counts as a writeback or fetch retry, and is tried again.
    /// Returns the cycles of every attempt together, or the number of
    /// attempts once the request failed for good.
    fn retried(
        &mut self,
        writeback: bool,
        mut request: impl FnMut(&mut FarDevice) -> Result<Cycles, DeviceError>,
    ) -> Result<Cycles, u32> {
        let mut t = Cycles::ZERO;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match request(&mut self.device) {
                Ok(c) => return Ok(t + c),
                Err(e) if e.is_transient() && attempts <= self.retry.max_retries => {
                    let back = self.retry.backoff(attempts);
                    t += e.spent() + back;
                    let st = &mut self.stats;
                    *if writeback { &mut st.writeback_retries } else { &mut st.fetch_retries } += 1;
                    st.backoff_cycles += back.0;
                }
                Err(_) => return Err(attempts),
            }
        }
    }
}

impl Kernel {
    /// Install (or remove) the far-memory tier, sizing its frame-indexed
    /// tables to this machine's frame count. With no tier installed
    /// every tier hook is a no-op and runs are byte-identical to builds
    /// that predate the tier.
    pub fn set_far_tier(&mut self, mut tier: Option<FarTier>) {
        if let Some(t) = tier.as_mut() {
            t.size_for(self.vmem.phys.frame_count());
        }
        self.tier = tier;
    }

    /// The installed tier, if any.
    pub fn far_tier(&self) -> Option<&FarTier> {
        self.tier.as_ref()
    }

    /// Mutable access to the installed tier.
    pub fn far_tier_mut(&mut self) -> Option<&mut FarTier> {
        self.tier.as_mut()
    }

    /// Tier-aware uncosted view of the page holding `va`: a far frame's
    /// contents come from its device slot via a fault-free peek, a
    /// resident frame's from physical memory. This is the one tier-aware
    /// read path — the heap verifier and the content hash see through
    /// the tier with it without promoting anything, rolling the device
    /// fault plan, or touching a counter (observation cannot perturb the
    /// run). A page known to be zero without reading it — a clean frame
    /// (its clean bit implies every byte is 0) or a zero slot — is
    /// [`PageView::Zero`], so a reader can fold it in O(1). With no tier
    /// installed it is exactly the frame.
    pub fn page_view(&self, space: &AddressSpace, va: VirtAddr) -> Result<PageView<'_>, VmError> {
        let frame = space.translate(va)?.frame();
        if let Some(tier) = &self.tier {
            if let Some(slot) = tier.slot_of(frame) {
                return Ok(tier
                    .device
                    .peek(slot)
                    .expect("residency invariant: a far frame's slot holds data"));
            }
        }
        let phys = &self.vmem.phys;
        if phys.frame_is_clean(frame) {
            return Ok(PageView::Zero);
        }
        phys.frame_bytes(frame).map(PageView::Bytes)
    }

    /// Tier-aware uncosted functional word read: one word of
    /// [`Kernel::page_view`]. `va` must be word-aligned.
    pub fn read_u64_tiered(&self, space: &AddressSpace, va: VirtAddr) -> Result<u64, VmError> {
        debug_assert_eq!(va.get() % 8, 0, "tiered word reads are aligned");
        Ok(self.page_view(space, va)?.word(va.page_offset() as usize))
    }

    /// Demote the page at `va` to the far tier: write its frame's
    /// contents to a device slot (verified, retried), log the residency
    /// record, zero the frame, and move the pool charge off the DRAM
    /// budget. The PTE is untouched — subsequent accesses fetch on
    /// demand. No-op if the page is already far.
    pub fn tier_demote_page(
        &mut self,
        space: &AddressSpace,
        va: VirtAddr,
    ) -> Result<Cycles, TierError> {
        let Some(mut tier) = self.tier.take() else {
            return Ok(Cycles::ZERO);
        };
        let r = self.tier_demote_inner(&mut tier, space, va);
        if let Ok(c) = r {
            tier.stats.tier_cycles += c.0;
        }
        self.tier = Some(tier);
        r
    }

    fn tier_demote_inner(
        &mut self,
        tier: &mut FarTier,
        space: &AddressSpace,
        va: VirtAddr,
    ) -> Result<Cycles, TierError> {
        let frame = space.translate(va)?.frame();
        if tier.is_far(frame) {
            return Ok(Cycles::ZERO);
        }
        // The demote pass walks the page table functionally (GC-side).
        let mut t = Cycles(self.machine.costs.tlb_refill);
        let bytes = self.vmem.phys.frame_bytes(frame)?;
        let slot = tier.device.alloc_slot().map_err(|_| TierError::DeviceFull)?;
        t += tier
            .retried(true, |d| d.write(slot, bytes).and_then(|c| Ok(c + d.verify(slot)?)))
            .map_err(|attempts| {
                // Permanent: the page never left DRAM. Unwind the slot and
                // report gracefully so the policy layer can degrade.
                tier.device.release_slot(slot);
                TierError::WritebackFailed { frame, attempts }
            })?;
        // Crash window: the device holds the copy but the WAL record is
        // not durable. Recovery sees no record → the page stays resident
        // (the DRAM copy is intact) and the slot is reclaimed as orphaned.
        self.crash_gate(CrashPoint::MidDemoteWriteback)
            .map_err(|_| TierError::Crashed {
                point: CrashPoint::MidDemoteWriteback,
            })?;
        t += self.wal_tier_record(WalPayload::TierDemote {
            frame: u64::from(frame.0),
            slot: u64::from(slot.0),
        });
        self.vmem.phys.zero_frame(frame)?;
        if let Some(lease) = self.vmem.frames.lease() {
            lease.demote_charge(frame)?;
        }
        tier.set_far(frame, slot);
        tier.untouch(frame);
        tier.stats.demotions += 1;
        tier.note_far();
        self.trace.instant(
            TraceKind::WalRecord,
            Cycles::ZERO,
            0,
            &[
                ("tier_demote", 1),
                ("frame", u64::from(frame.0)),
                ("slot", u64::from(slot.0)),
            ],
        );
        Ok(t)
    }

    /// Promote one far frame back to DRAM (explicit, crash-gated path:
    /// GC passes, promote-all, recovery). No-op if the frame is resident.
    pub fn tier_promote_frame(&mut self, frame: FrameId) -> Result<Cycles, TierError> {
        self.tier_promote(frame, true, false)
    }

    /// Promote every far page back to DRAM in deterministic order — the
    /// end-of-run step that makes the invisibility oracle meaningful
    /// (content hashes are computed over a fully-resident heap) and the
    /// degrade ladder's DRAM-only transition.
    pub fn tier_promote_all(&mut self) -> Result<Cycles, TierError> {
        let frames = match &self.tier {
            Some(t) => t.far_frames(),
            None => return Ok(Cycles::ZERO),
        };
        let mut t = Cycles::ZERO;
        for frame in frames {
            t += self.tier_promote_frame(frame)?;
        }
        Ok(t)
    }

    fn tier_promote(
        &mut self,
        frame: FrameId,
        gate: bool,
        on_access: bool,
    ) -> Result<Cycles, TierError> {
        let Some(mut tier) = self.tier.take() else {
            return Ok(Cycles::ZERO);
        };
        let r = self.tier_promote_inner(&mut tier, frame, gate, on_access);
        if let Ok(c) = r {
            tier.stats.tier_cycles += c.0;
        }
        self.tier = Some(tier);
        r
    }

    fn tier_promote_inner(
        &mut self,
        tier: &mut FarTier,
        frame: FrameId,
        gate: bool,
        on_access: bool,
    ) -> Result<Cycles, TierError> {
        let Some(slot) = tier.slot_of(frame) else {
            return Ok(Cycles::ZERO);
        };
        let mut t = tier
            .retried(false, |d| d.fetch(slot))
            .map_err(|attempts| TierError::FetchLost { frame, attempts })?;
        if gate {
            // Crash window: the fetch returned but nothing landed. The
            // residency table and slot are untouched; recovery re-fetches.
            self.crash_gate(CrashPoint::MidPromoteFetch)
                .map_err(|_| TierError::Crashed {
                    point: CrashPoint::MidPromoteFetch,
                })?;
        }
        t += self.wal_tier_record(WalPayload::TierPromote {
            frame: u64::from(frame.0),
            slot: u64::from(slot.0),
        });
        // A zero slot lands as a clean frame: zeroing writes nothing on a
        // frame that is already clean, and leaves it clean.
        match tier.device.peek(slot).expect("a fetched slot holds data") {
            PageView::Zero => self.vmem.phys.zero_frame(frame)?,
            PageView::Bytes(bytes) => self.vmem.phys.write_bytes(frame.base(), bytes)?,
        }
        tier.device
            .free_slot(slot)
            .expect("residency invariant: a far frame's slot holds data");
        if let Some(lease) = self.vmem.frames.lease() {
            lease.promote_charge(frame)?;
        }
        tier.set_resident(frame);
        tier.stats.promotions += 1;
        if on_access {
            tier.stats.fetch_on_access += 1;
        }
        Ok(t)
    }

    /// Translation hook: note the access for the hotness signal and, if
    /// the frame is far, fetch it before the access proceeds. The
    /// resident case is one bit set and one table test. Crash points do
    /// not fire on this path (a `VmError` cannot carry a crash); the
    /// crash matrix drives the explicit promote paths instead. Permanent
    /// fetch failure surfaces as [`VmError::FarPageLost`].
    ///
    /// `#[cold]` marks the call in [`Kernel::translate`] as the unlikely
    /// branch. Runs without a tier never take it, and without the mark
    /// the line-streaming `cache_model` perfbench workload ran 10–14 %
    /// slower on the host (2-vCPU Xeon VM), while a tiered run with the
    /// mark stayed within noise of one without it.
    #[cold]
    pub(crate) fn tier_fetch_on_access(&mut self, frame: FrameId) -> Result<Cycles, VmError> {
        let Some(t) = self.tier.as_mut() else {
            return Ok(Cycles::ZERO);
        };
        t.touch(frame);
        if !t.is_far(frame) {
            return Ok(Cycles::ZERO);
        }
        self.perf.tier_fetches += 1;
        match self.tier_promote(frame, false, true) {
            Ok(c) => Ok(c),
            Err(TierError::Vm(e)) => Err(e),
            Err(_) => Err(VmError::FarPageLost(frame)),
        }
    }

    /// Raw-write hook: promote every far page overlapping `bytes` bytes
    /// at `from` before an untranslated bulk write lands. Functional
    /// writes that go straight to `vmem` (object zeroing, bulk init,
    /// rollback pre-image restores) bypass the translation hook; on a
    /// demoted page they would land in the zeroed frame and be clobbered
    /// by the next fetch-on-access, resurrecting dead device bytes over
    /// live data. No-op without a tier or when every page is resident.
    pub fn tier_resolve_write_range(
        &mut self,
        space: &AddressSpace,
        from: VirtAddr,
        bytes: u64,
    ) -> Result<Cycles, VmError> {
        if self.tier.is_none() || bytes == 0 {
            return Ok(Cycles::ZERO);
        }
        let mut t = Cycles::ZERO;
        let pages = (from + (bytes - 1)).vpn() - from.vpn() + 1;
        for i in 0..pages {
            let pa = space.translate(from.add_pages(i))?;
            t += self.tier_fetch_on_access(pa.frame())?;
        }
        Ok(t)
    }

    /// Recovery: rebuild the residency table by replaying the WAL's tier
    /// stream in log order, reclaim orphaned device slots, then promote
    /// every far page — which must happen *before* the GC undo pass so
    /// pre-images land in resident frames. Returns `(far pages restored,
    /// cycles)`.
    pub fn tier_recover(&mut self) -> Result<(u32, Cycles), TierError> {
        if self.tier.is_none() {
            return Ok((0, Cycles::ZERO));
        }
        let scan = self.wal.scan();
        let tier = self.tier.as_mut().expect("checked above");
        tier.clear_volatile();
        for rec in scan.records.iter().filter(|r| r.epoch == TIER_EPOCH) {
            match rec.payload {
                WalPayload::TierDemote { frame, slot } => {
                    tier.set_far(FrameId(frame as u32), SlotId(slot as u32));
                }
                WalPayload::TierPromote { frame, .. } => {
                    tier.set_resident(FrameId(frame as u32));
                }
                _ => {}
            }
        }
        let restored = tier.far;
        let live: BTreeSet<SlotId> = tier.residency.iter().flatten().copied().collect();
        tier.device.retain_slots(&live);
        let t = self.tier_promote_all()?;
        Ok((restored, t))
    }

    /// Drop the residency of any far page in the `pages`-page range at
    /// `from` of `space` *without* touching the device data path. For
    /// callers about to unmap the range (heap decommit after compaction):
    /// the device copy is dead, so fetching it would be waste — but the
    /// frame is headed back to the pool, and a stale frame-keyed binding
    /// would resurrect dead bytes into whoever gets the frame next. Logs
    /// the promote record first (recovery must not rebuild the binding),
    /// frees the slot, and moves the pool charge back where the pending
    /// frame-free expects it. Pure bookkeeping: works even when the
    /// device is offline, which is exactly when it matters most.
    pub fn tier_discard_range(&mut self, space: &AddressSpace, from: VirtAddr, pages: u64) -> Cycles {
        let Some(mut tier) = self.tier.take() else {
            return Cycles::ZERO;
        };
        let mut t = Cycles::ZERO;
        for i in 0..pages {
            let Ok(pa) = space.translate(from.add_pages(i)) else {
                continue;
            };
            let frame = pa.frame();
            let Some(slot) = tier.set_resident(frame) else {
                continue;
            };
            t += self.wal_tier_record(WalPayload::TierPromote {
                frame: u64::from(frame.0),
                slot: u64::from(slot.0),
            });
            tier.device
                .free_slot(slot)
                .expect("residency invariant: a far frame's slot holds data");
            if let Some(lease) = self.vmem.frames.lease() {
                // The range is being freed either way; a charge error here
                // would mean the pool and the tier disagree about the
                // frame, which the pool's own audit reports.
                let _ = lease.promote_charge(frame);
            }
            tier.stats.discards += 1;
        }
        tier.stats.tier_cycles += t.0;
        self.tier = Some(tier);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceFaultConfig, DeviceFaultPlan};
    use crate::fault::CrashPlan;
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    fn setup(tier_slots: u32) -> (Kernel, AddressSpace, VirtAddr) {
        let mut k = Kernel::new(MachineConfig::i5_7600(), 64);
        let mut s = AddressSpace::new(Asid(1));
        let va = k.vmem.alloc_region(&mut s, 4).unwrap();
        k.set_far_tier(Some(FarTier::new(
            FarDevice::new(tier_slots),
            RetryPolicy::default(),
        )));
        (k, s, va)
    }

    #[test]
    fn demote_then_access_fetches_identical_content() {
        let (mut k, s, va) = setup(8);
        k.write_word(&s, crate::CoreId(0), va, 0xC0FFEE).unwrap();
        let t = k.tier_demote_page(&s, va).unwrap();
        assert!(t.get() >= FarDevice::WRITEBACK_CYCLES);
        assert_eq!(k.far_tier().unwrap().far_count(), 1);
        // The frame itself is zeroed (uncosted peek past the hook).
        let frame = s.translate(va).unwrap().frame();
        assert_eq!(k.vmem.phys.read_u64(frame.base()).unwrap(), 0);
        // A costed access fetches transparently and sees the real data.
        let (v, t) = k.read_word(&s, crate::CoreId(0), va).unwrap();
        assert_eq!(v, 0xC0FFEE);
        assert!(t.get() >= FarDevice::FETCH_CYCLES, "fetch cost charged");
        let st = k.far_tier().unwrap().stats();
        assert_eq!((st.demotions, st.promotions, st.fetch_on_access), (1, 1, 1));
        assert_eq!(k.far_tier().unwrap().slots_in_use(), 0, "slot freed");
    }

    #[test]
    fn promoting_a_zero_slot_leaves_its_frame_clean() {
        let (mut k, s, va) = setup(8);
        let clean = |k: &Kernel, p: u64| {
            k.vmem.phys.frame_is_clean(s.translate(va.add_pages(p)).unwrap().frame())
        };
        // Page 0 never written, page 1 written back to zero (dirty but
        // zero), page 2 holding data.
        k.write_word(&s, crate::CoreId(0), va.add_pages(1), 5).unwrap();
        k.write_word(&s, crate::CoreId(0), va.add_pages(1), 0).unwrap();
        k.write_word(&s, crate::CoreId(0), va.add_pages(2), 9).unwrap();
        assert!(matches!(k.page_view(&s, va).unwrap(), PageView::Zero));
        assert!(matches!(k.page_view(&s, va.add_pages(1)).unwrap(), PageView::Bytes(_)));
        for p in 0..3 {
            k.tier_demote_page(&s, va.add_pages(p)).unwrap();
            assert!(clean(&k, p), "a demoted frame is zeroed clean");
        }
        // Both zero pages are zero slots; the data page is not.
        for (p, zero) in [(0, true), (1, true), (2, false)] {
            let view = k.page_view(&s, va.add_pages(p)).unwrap();
            assert_eq!(matches!(view, PageView::Zero), zero, "page {p}");
        }
        k.tier_promote_all().unwrap();
        assert_eq!(k.far_tier().unwrap().device_stats().fetches, 3);
        assert!(clean(&k, 0) && clean(&k, 1), "zero slots promote clean");
        assert!(!clean(&k, 2), "a data page promotes dirty");
        assert_eq!(k.read_u64_tiered(&s, va.add_pages(2)).unwrap(), 9);
        assert_eq!(k.read_u64_tiered(&s, va.add_pages(1)).unwrap(), 0);
    }

    #[test]
    fn double_demote_is_a_noop_and_promote_all_drains() {
        let (mut k, s, va) = setup(8);
        for i in 0..4u64 {
            k.write_word(&s, crate::CoreId(0), va.add_pages(i), 100 + i)
                .unwrap();
            k.tier_demote_page(&s, va.add_pages(i)).unwrap();
        }
        assert_eq!(k.tier_demote_page(&s, va).unwrap(), Cycles::ZERO);
        assert_eq!(k.far_tier().unwrap().far_count(), 4);
        k.tier_promote_all().unwrap();
        assert_eq!(k.far_tier().unwrap().far_count(), 0);
        assert_eq!(k.far_tier().unwrap().slots_in_use(), 0);
        for i in 0..4u64 {
            let (v, _) = k.read_word(&s, crate::CoreId(0), va.add_pages(i)).unwrap();
            assert_eq!(v, 100 + i);
        }
    }

    #[test]
    fn transient_faults_retry_and_succeed() {
        let (mut k, s, va) = setup(8);
        k.write_word(&s, crate::CoreId(0), va, 7).unwrap();
        let plan = DeviceFaultPlan::new(DeviceFaultConfig::uniform(0.4, 11));
        k.far_tier_mut().unwrap().device.set_fault_plan(Some(plan));
        for i in 0..4u64 {
            k.tier_demote_page(&s, va.add_pages(i)).unwrap();
        }
        k.tier_promote_all().unwrap();
        let (v, _) = k.read_word(&s, crate::CoreId(0), va).unwrap();
        assert_eq!(v, 7);
        let st = k.far_tier().unwrap().stats();
        assert!(
            st.writeback_retries + st.fetch_retries > 0,
            "p=0.4 over many ops must retry at least once"
        );
        assert!(st.backoff_cycles > 0);
    }

    #[test]
    fn offline_during_writeback_is_graceful() {
        let (mut k, s, va) = setup(8);
        k.write_word(&s, crate::CoreId(0), va, 42).unwrap();
        let plan =
            DeviceFaultPlan::new(DeviceFaultConfig::uniform(0.0, 1).with_offline_after(0));
        k.far_tier_mut().unwrap().device.set_fault_plan(Some(plan));
        let e = k.tier_demote_page(&s, va).unwrap_err();
        assert!(matches!(e, TierError::WritebackFailed { .. }));
        // Nothing was lost: the page is still resident and readable.
        assert_eq!(k.far_tier().unwrap().far_count(), 0);
        assert_eq!(k.far_tier().unwrap().slots_in_use(), 0);
        let (v, _) = k.read_word(&s, crate::CoreId(0), va).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn offline_after_demotion_loses_the_page_with_a_typed_error() {
        let (mut k, s, va) = setup(8);
        k.write_word(&s, crate::CoreId(0), va, 42).unwrap();
        k.tier_demote_page(&s, va).unwrap();
        let plan =
            DeviceFaultPlan::new(DeviceFaultConfig::uniform(0.0, 1).with_offline_after(0));
        k.far_tier_mut().unwrap().device.set_fault_plan(Some(plan));
        // Explicit promote: typed FetchLost.
        let e = k.tier_promote_frame(s.translate(va).unwrap().frame()).unwrap_err();
        assert!(matches!(e, TierError::FetchLost { .. }));
        // Access path: typed FarPageLost, never fabricated zeros.
        let e = k.read_word(&s, crate::CoreId(0), va).unwrap_err();
        assert!(matches!(e, VmError::FarPageLost(_)));
    }

    #[test]
    fn pte_swap_moves_far_pages_without_device_traffic() {
        // The zero-copy thesis, tiered: swap a far page with a resident
        // one by PTE swap; the residency table follows the frames, so no
        // fetch happens until someone actually touches the data.
        let (mut k, mut s, va) = setup(8);
        let a = va;
        let b = va.add_pages(1);
        k.write_word(&s, crate::CoreId(0), a, 0xAAAA).unwrap();
        k.write_word(&s, crate::CoreId(0), b, 0xBBBB).unwrap();
        k.tier_demote_page(&s, a).unwrap();
        let fetches_before = k.far_tier().unwrap().device_stats().fetches;
        k.swap_va(
            &mut s,
            crate::CoreId(0),
            crate::SwapRequest { a, b, pages: 1 },
            crate::SwapVaOptions::naive(),
        )
        .unwrap();
        assert_eq!(
            k.far_tier().unwrap().device_stats().fetches,
            fetches_before,
            "the swap itself must not touch the device"
        );
        // Data follows the swap: b now reads the far page's content
        // (fetched on access), a reads the resident one.
        let (vb, _) = k.read_word(&s, crate::CoreId(0), b).unwrap();
        assert_eq!(vb, 0xAAAA);
        let (va_, _) = k.read_word(&s, crate::CoreId(0), a).unwrap();
        assert_eq!(va_, 0xBBBB);
    }

    #[test]
    fn crash_mid_demote_recovers_to_resident() {
        let (mut k, s, va) = setup(8);
        k.set_wal_enabled(true);
        k.write_word(&s, crate::CoreId(0), va, 0x11).unwrap();
        k.set_crash_plans(vec![CrashPlan::first(CrashPoint::MidDemoteWriteback)]);
        let e = k.tier_demote_page(&s, va).unwrap_err();
        assert!(matches!(
            e,
            TierError::Crashed {
                point: CrashPoint::MidDemoteWriteback
            }
        ));
        k.reboot();
        let (restored, _) = k.tier_recover().unwrap();
        assert_eq!(restored, 0, "no WAL record ⇒ page stays resident");
        assert_eq!(k.far_tier().unwrap().slots_in_use(), 0, "orphan reclaimed");
        let (v, _) = k.read_word(&s, crate::CoreId(0), va).unwrap();
        assert_eq!(v, 0x11);
    }

    #[test]
    fn crash_mid_promote_recovers_by_refetching() {
        let (mut k, s, va) = setup(8);
        k.set_wal_enabled(true);
        k.write_word(&s, crate::CoreId(0), va, 0x22).unwrap();
        k.tier_demote_page(&s, va).unwrap();
        let frame = s.translate(va).unwrap().frame();
        k.set_crash_plans(vec![CrashPlan::first(CrashPoint::MidPromoteFetch)]);
        let e = k.tier_promote_frame(frame).unwrap_err();
        assert!(matches!(
            e,
            TierError::Crashed {
                point: CrashPoint::MidPromoteFetch
            }
        ));
        k.reboot();
        let (restored, _) = k.tier_recover().unwrap();
        assert_eq!(restored, 1, "the demote record replays; promote-all refetches");
        assert_eq!(k.far_tier().unwrap().far_count(), 0);
        let (v, _) = k.read_word(&s, crate::CoreId(0), va).unwrap();
        assert_eq!(v, 0x22);
    }
}
