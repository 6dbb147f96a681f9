//! Modeled far-memory / NVMe backing device for the cold-object tier.
//!
//! The paper's ROADMAP extension is cold-object tiering via user-space
//! swapping: GC cycles double as tiering passes, demoting cold pages to a
//! slower, cheaper tier and fetching them back on access. Real far-memory
//! backends fail in ways DRAM does not, so the device model ships with a
//! seeded [`DeviceFaultPlan`] in the style of [`crate::fault::FaultPlan`]:
//!
//! * **Transient EIO** — a request fails outright and succeeds on retry
//!   (media retries, fabric hiccups).
//! * **Latency spike** — the request completes but only after blowing past
//!   the host's timeout; the host treats it as failed and retries, paying
//!   the full spike.
//! * **Torn writeback** — power loss or firmware bug mid-program leaves
//!   the slot's data corrupted while the out-of-band checksum still holds
//!   the intended value; the mandatory read-back verify catches it.
//! * **Device offline** — the whole device disappears (latched: every
//!   subsequent request fails permanently). Also schedulable
//!   deterministically after N requests via
//!   [`DeviceFaultConfig::offline_after`].
//!
//! Every slot carries a per-page checksum (word-wide FNV-1a,
//! [`crate::fnv`]) computed by the host before writeback and verified on
//! every read, so silent corruption can never reach the heap.
//! Determinism: exactly one PRNG draw per device request, so the fault
//! sequence is a pure function of the seed and request count.
//!
//! An all-zero page is stored as a *zero slot*: metadata with no buffer
//! behind it, as Linux's zswap and zram keep same-filled pages. Its
//! checksum is the closed-form fold of 512 zero words, and verify, read
//! and peek answer it without touching a byte. Nothing simulated can tell
//! the difference: a zero slot costs the same cycles and rolls the same
//! fault plan as a stored page, and a torn writeback of a zero page
//! stores the torn bytes, so the read-back verify still catches it.
//!
//! The device is *durable*: it survives [`crate::Kernel::reboot`], which
//! is what makes crash recovery of a half-demoted heap possible.

use crate::fault::draw;
use crate::fnv::Fnv64;
use crate::tier::PageView;
use std::fmt;
use svagc_metrics::{Cycles, SimRng};
use svagc_vmem::PAGE_SIZE;

/// Bytes per device slot (one page).
pub const SLOT_BYTES: usize = PAGE_SIZE as usize;

/// The checksum of an all-zero page: the fold of its 512 zero words.
const ZERO_PAGE_SUM: u64 = {
    let mut h = Fnv64::new();
    h.zeros((SLOT_BYTES / 8) as u64);
    h.finish()
};

/// Is every byte of `page` zero? One OR per 64-byte chunk, no early exit
/// inside a chunk, so the scan vectorizes.
fn is_zero_page(page: &[u8]) -> bool {
    page.chunks(64).all(|c| c.iter().fold(0, |acc, &b| acc | b) == 0)
}

/// Identifier of one page-sized slot on the far device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// Modeled far-device failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFaultKind {
    /// The request failed with an I/O error; clears on retry.
    TransientEio,
    /// The request completed past the host timeout; the host abandons it
    /// and retries, paying the full spike latency.
    LatencySpike,
    /// A writeback was torn mid-program: the slot's data is corrupted but
    /// the out-of-band checksum holds the intended value, so the read-back
    /// verify detects the tear. Clears on a rewrite.
    TornWriteback,
    /// The device went offline. Latched: permanent for every subsequent
    /// request.
    Offline,
}

impl DeviceFaultKind {
    /// Transient faults clear on retry; `Offline` never does.
    pub fn is_transient(&self) -> bool {
        !matches!(self, DeviceFaultKind::Offline)
    }

    /// Stable label (stats, trace args, CI greps).
    pub fn name(&self) -> &'static str {
        match self {
            DeviceFaultKind::TransientEio => "eio",
            DeviceFaultKind::LatencySpike => "latency-spike",
            DeviceFaultKind::TornWriteback => "torn-writeback",
            DeviceFaultKind::Offline => "offline",
        }
    }
}

impl fmt::Display for DeviceFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-request injection probabilities plus the seed that makes them
/// reproducible (the device-side analogue of [`crate::fault::FaultConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFaultConfig {
    /// P(transient EIO) per device request.
    pub p_eio: f64,
    /// P(latency spike past the host timeout) per device request.
    pub p_spike: f64,
    /// P(torn writeback) per *writeback* request.
    pub p_torn: f64,
    /// P(the device goes offline) per device request. Latched once fired.
    pub p_offline: f64,
    /// Take the device offline deterministically after this many requests
    /// (`Some(0)` = offline from the first request). Composes with the
    /// probabilistic modes; `None` disables.
    pub offline_after: Option<u64>,
    /// PRNG seed: same seed ⇒ same fault sequence.
    pub seed: u64,
}

impl DeviceFaultConfig {
    /// Total injection probability `p` split across the *recoverable*
    /// modes the way NVMe error logs skew: 60% transient EIO, 25% latency
    /// spike, 15% torn writeback. Offline stays 0 — whole-device loss is
    /// scheduled deterministically (see
    /// [`DeviceFaultConfig::offline_after`]), so fault-rate sweeps measure
    /// retry/degrade behavior, not coin-flip device death.
    pub fn uniform(p: f64, seed: u64) -> DeviceFaultConfig {
        DeviceFaultConfig {
            p_eio: p * 0.60,
            p_spike: p * 0.25,
            p_torn: p * 0.15,
            p_offline: 0.0,
            offline_after: None,
            seed,
        }
    }

    /// Only transient EIO at probability `p` (every fault retryable).
    pub fn transient_only(p: f64, seed: u64) -> DeviceFaultConfig {
        DeviceFaultConfig {
            p_eio: p,
            p_spike: 0.0,
            p_torn: 0.0,
            p_offline: 0.0,
            offline_after: None,
            seed,
        }
    }

    /// Schedule deterministic whole-device loss after `n` requests.
    pub fn with_offline_after(mut self, n: u64) -> DeviceFaultConfig {
        self.offline_after = Some(n);
        self
    }
}

/// A seeded device-fault schedule: one PRNG draw per request decides
/// whether (and which) fault fires. Once `Offline` fires — probabilistic
/// or scheduled — it is latched and every later request fails with it.
#[derive(Debug, Clone)]
pub struct DeviceFaultPlan {
    cfg: DeviceFaultConfig,
    rng: SimRng,
    /// Requests rolled so far.
    pub requests: u64,
    offline: bool,
}

impl DeviceFaultPlan {
    /// Build a plan from a config (seeds the PRNG from `cfg.seed`).
    pub fn new(cfg: DeviceFaultConfig) -> DeviceFaultPlan {
        DeviceFaultPlan {
            cfg,
            rng: SimRng::seed_from_u64(cfg.seed),
            requests: 0,
            offline: false,
        }
    }

    /// Has whole-device loss latched?
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Decide whether the next device request faults. Exactly one PRNG
    /// draw per call (none once offline — the stream's tail is dead
    /// anyway), so the sequence is a pure function of seed and call count.
    /// `writeback` gates the torn-write mode to writeback requests.
    pub fn roll(&mut self, writeback: bool) -> Option<DeviceFaultKind> {
        if self.offline {
            return Some(DeviceFaultKind::Offline);
        }
        self.requests += 1;
        if self.cfg.offline_after.is_some_and(|n| self.requests > n) {
            self.offline = true;
            return Some(DeviceFaultKind::Offline);
        }
        let c = &self.cfg;
        // Reads have no program phase to tear; the same draw manifests
        // as a plain I/O error.
        let torn = if writeback {
            DeviceFaultKind::TornWriteback
        } else {
            DeviceFaultKind::TransientEio
        };
        let kind = draw(
            &mut self.rng,
            [
                (c.p_eio, DeviceFaultKind::TransientEio),
                (c.p_spike, DeviceFaultKind::LatencySpike),
                (c.p_torn, torn),
                (c.p_offline, DeviceFaultKind::Offline),
            ],
        );
        self.offline = kind == Some(DeviceFaultKind::Offline);
        kind
    }
}

/// Failure of one device request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// Transient I/O error; worth retrying. Carries the cycles the failed
    /// attempt burned.
    Io {
        /// Which modeled mode fired.
        kind: DeviceFaultKind,
        /// Cycles the failed attempt cost the caller.
        spent: Cycles,
    },
    /// Checksum mismatch on read-back: the slot's data does not match its
    /// out-of-band checksum (a torn writeback landed here). Retryable for
    /// writebacks (rewrite the slot), fatal for fetches only if rewrites
    /// are impossible.
    Corrupt {
        /// The mismatching slot.
        slot: SlotId,
        /// Cycles the detecting read burned.
        spent: Cycles,
    },
    /// The device is offline. Permanent: retries are pointless.
    Offline,
    /// No free slot (the far tier is full).
    Full,
    /// The slot is not allocated (tier bookkeeping bug — not injectable).
    BadSlot(SlotId),
}

impl DeviceError {
    /// Is this failure worth retrying?
    pub fn is_transient(&self) -> bool {
        match self {
            DeviceError::Io { kind, .. } => kind.is_transient(),
            DeviceError::Corrupt { .. } => true,
            DeviceError::Offline | DeviceError::Full | DeviceError::BadSlot(_) => false,
        }
    }

    /// Cycles the failed attempt burned.
    pub fn spent(&self) -> Cycles {
        match self {
            DeviceError::Io { spent, .. } | DeviceError::Corrupt { spent, .. } => *spent,
            _ => Cycles::ZERO,
        }
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Io { kind, spent } => {
                write!(f, "device I/O fault: {kind} ({} cycles burned)", spent.0)
            }
            DeviceError::Corrupt { slot, spent } => {
                write!(f, "device checksum mismatch at {slot} ({} cycles burned)", spent.0)
            }
            DeviceError::Offline => write!(f, "far device offline"),
            DeviceError::Full => write!(f, "far device full"),
            DeviceError::BadSlot(s) => write!(f, "far device {s} not allocated"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Device activity counters (volatile, for reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Successful page writebacks.
    pub writebacks: u64,
    /// Successful page fetches.
    pub fetches: u64,
    /// Successful read-back verifies.
    pub verifies: u64,
    /// Requests that failed with an injected fault.
    pub faults: u64,
    /// Torn writebacks that landed corrupted data (later caught by verify).
    pub torn_writebacks: u64,
    /// High-water mark of simultaneously allocated slots.
    pub slots_peak: u32,
}

struct FarSlot {
    /// The stored page; `None` is a zero slot, an all-zero page kept as
    /// metadata with no buffer behind it.
    data: Option<Box<[u8]>>,
    /// Out-of-band FNV checksum of the *intended* contents, written by the
    /// host alongside the data (a torn program corrupts `data` but not
    /// this, which is how the tear is caught).
    sum: u64,
}

impl FarSlot {
    fn view(&self) -> PageView<'_> {
        match &self.data {
            None => PageView::Zero,
            Some(bytes) => PageView::Bytes(bytes),
        }
    }

    /// Does the stored page match its checksum? A zero slot answers in
    /// closed form.
    fn intact(&self) -> bool {
        let stored = match &self.data {
            None => ZERO_PAGE_SUM,
            Some(bytes) => Fnv64::of_le_words(bytes),
        };
        stored == self.sum
    }
}

/// The modeled far-memory device: page-sized slots with out-of-band
/// checksums, distinct fetch/writeback costs, and seeded fault injection.
pub struct FarDevice {
    slots: Vec<Option<FarSlot>>,
    /// How many of `slots` hold data, kept with every fill and empty.
    in_use: u32,
    /// Returned slots, reused LIFO (deterministic).
    free: Vec<SlotId>,
    /// Next never-allocated slot.
    next: u32,
    plan: Option<DeviceFaultPlan>,
    stats: DeviceStats,
    /// Cycles a page writeback costs the host.
    pub writeback_cycles: u64,
    /// Cycles a page fetch costs the host.
    pub fetch_cycles: u64,
    /// Cycles a checksum-only read-back verify costs the host.
    pub verify_cycles: u64,
    /// Multiplier a latency spike applies to the request's base cost.
    pub spike_factor: u64,
}

impl fmt::Debug for FarDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FarDevice")
            .field("capacity", &self.slots.len())
            .field("in_use", &self.slots_in_use())
            .field("offline", &self.is_offline())
            .finish()
    }
}

impl FarDevice {
    /// Default writeback cost (~4 µs of NVMe program time at 3 GHz).
    pub const WRITEBACK_CYCLES: u64 = 12_000;
    /// Default fetch cost (~7 µs of NVMe read latency at 3 GHz).
    pub const FETCH_CYCLES: u64 = 20_000;
    /// Default read-back verify cost (metadata-only round trip).
    pub const VERIFY_CYCLES: u64 = 3_000;
    /// Default latency-spike multiplier.
    pub const SPIKE_FACTOR: u64 = 8;

    /// A fault-free device with `capacity` page slots.
    pub fn new(capacity: u32) -> FarDevice {
        FarDevice {
            slots: (0..capacity).map(|_| None).collect(),
            in_use: 0,
            free: Vec::new(),
            next: 0,
            plan: None,
            stats: DeviceStats::default(),
            writeback_cycles: FarDevice::WRITEBACK_CYCLES,
            fetch_cycles: FarDevice::FETCH_CYCLES,
            verify_cycles: FarDevice::VERIFY_CYCLES,
            spike_factor: FarDevice::SPIKE_FACTOR,
        }
    }

    /// Install (or clear) the seeded fault plan.
    pub fn set_fault_plan(&mut self, plan: Option<DeviceFaultPlan>) {
        self.plan = plan;
    }

    /// Has the device latched offline?
    pub fn is_offline(&self) -> bool {
        self.plan.as_ref().is_some_and(|p| p.is_offline())
    }

    /// Slots currently holding data.
    pub fn slots_in_use(&self) -> u32 {
        self.in_use
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Activity counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Roll the fault plan for one request; `None` = fault-free.
    fn roll(&mut self, writeback: bool) -> Option<DeviceFaultKind> {
        let kind = self.plan.as_mut()?.roll(writeback)?;
        self.stats.faults += 1;
        Some(kind)
    }

    /// Cycles a failed request burns before the host sees the error.
    fn fault_cost(&self, kind: DeviceFaultKind, base: u64) -> Cycles {
        match kind {
            // The error comes back quickly (the controller gave up early).
            DeviceFaultKind::TransientEio => Cycles(base / 4),
            // The host waits out the full spike before abandoning.
            DeviceFaultKind::LatencySpike => Cycles(base * self.spike_factor),
            // The program completed (corrupted); full cost was paid.
            DeviceFaultKind::TornWriteback => Cycles(base),
            // Immediate failure from a dead device.
            DeviceFaultKind::Offline => Cycles(base / 8),
        }
    }

    /// Allocate one slot (no I/O; pure bookkeeping on the host side).
    pub fn alloc_slot(&mut self) -> Result<SlotId, DeviceError> {
        let s = if let Some(s) = self.free.pop() {
            s
        } else if self.next < self.slots.len() as u32 {
            let s = SlotId(self.next);
            self.next += 1;
            s
        } else {
            return Err(DeviceError::Full);
        };
        Ok(s)
    }

    /// Write one page to `slot` with its out-of-band checksum. A torn
    /// writeback lands *corrupted data under the intended checksum* and
    /// still returns `Ok` — only the mandatory [`FarDevice::verify`]
    /// read-back exposes it, which is why demotion always verifies. An
    /// all-zero page becomes a zero slot.
    pub fn write(&mut self, slot: SlotId, data: &[u8]) -> Result<Cycles, DeviceError> {
        assert_eq!(data.len(), SLOT_BYTES, "device slots are page-sized");
        if slot.0 as usize >= self.slots.len() {
            return Err(DeviceError::BadSlot(slot));
        }
        let base = self.writeback_cycles;
        let torn = match self.roll(true) {
            Some(DeviceFaultKind::Offline) => return Err(DeviceError::Offline),
            Some(DeviceFaultKind::TornWriteback) => true,
            Some(kind) => {
                return Err(DeviceError::Io {
                    kind,
                    spent: self.fault_cost(kind, base),
                })
            }
            None => false,
        };
        let zero = is_zero_page(data);
        let sum = if zero {
            ZERO_PAGE_SUM
        } else {
            Fnv64::of_le_words(data)
        };
        let data = if torn {
            let mut torn: Box<[u8]> = data.into();
            // Deterministic tear: the first byte of the page flips.
            torn[0] ^= 0xFF;
            self.stats.torn_writebacks += 1;
            Some(torn)
        } else {
            (!zero).then(|| data.into())
        };
        let old = self.slots[slot.0 as usize].replace(FarSlot { data, sum });
        self.in_use += u32::from(old.is_none());
        self.stats.writebacks += 1;
        if !torn {
            self.stats.slots_peak = self.stats.slots_peak.max(self.slots_in_use());
        }
        Ok(Cycles(base))
    }

    /// Roll the fault plan for a read-side request costing `base` and
    /// check `slot`'s stored page against its checksum.
    fn read_back(&mut self, slot: SlotId, base: u64) -> Result<Cycles, DeviceError> {
        match self.roll(false) {
            Some(DeviceFaultKind::Offline) => return Err(DeviceError::Offline),
            Some(kind) => {
                return Err(DeviceError::Io {
                    kind,
                    spent: self.fault_cost(kind, base),
                })
            }
            None => {}
        }
        let s = self.slots[slot.0 as usize]
            .as_ref()
            .ok_or(DeviceError::BadSlot(slot))?;
        if !s.intact() {
            return Err(DeviceError::Corrupt {
                slot,
                spent: Cycles(base),
            });
        }
        Ok(Cycles(base))
    }

    /// Checksum-only read-back verify of `slot` (the writeback protocol's
    /// mandatory second half — this is what catches torn writebacks).
    pub fn verify(&mut self, slot: SlotId) -> Result<Cycles, DeviceError> {
        let c = self.read_back(slot, self.verify_cycles)?;
        self.stats.verifies += 1;
        Ok(c)
    }

    /// Fetch one page from `slot`, verifying its checksum; its contents
    /// are then [`FarDevice::peek`]'s view of the slot. The tier promotes
    /// through this, so a zero slot lands without a copy.
    pub(crate) fn fetch(&mut self, slot: SlotId) -> Result<Cycles, DeviceError> {
        if slot.0 as usize >= self.slots.len() {
            return Err(DeviceError::BadSlot(slot));
        }
        let c = self.read_back(slot, self.fetch_cycles)?;
        self.stats.fetches += 1;
        Ok(c)
    }

    /// Fetch one page from `slot` into `buf`, verifying its checksum. A
    /// zero slot fills `buf` with zeros.
    pub fn read(&mut self, slot: SlotId, buf: &mut [u8]) -> Result<Cycles, DeviceError> {
        assert_eq!(buf.len(), SLOT_BYTES, "device slots are page-sized");
        let c = self.fetch(slot)?;
        match self.peek(slot).expect("a fetched slot holds data") {
            PageView::Zero => buf.fill(0),
            PageView::Bytes(bytes) => buf.copy_from_slice(bytes),
        }
        Ok(c)
    }

    /// Fault-free, cost-free functional view of a slot's stored page —
    /// the verifier/oracle surface. Never rolls the fault plan and never
    /// touches counters, so observing a slot cannot perturb the
    /// simulation. A zero slot is [`PageView::Zero`]. `None` for an empty
    /// or out-of-range slot.
    pub fn peek(&self, slot: SlotId) -> Option<PageView<'_>> {
        self.slots.get(slot.0 as usize)?.as_ref().map(FarSlot::view)
    }

    /// Return a slot to the free list whether or not a write ever landed
    /// in it — the failed-demotion unwind path (the strict
    /// [`FarDevice::free_slot`] requires data to be present).
    pub fn release_slot(&mut self, slot: SlotId) {
        if (slot.0 as usize) < self.slots.len() {
            self.in_use -= u32::from(self.slots[slot.0 as usize].take().is_some());
            self.free.push(slot);
        }
    }

    /// Release `slot` back to the free list.
    pub fn free_slot(&mut self, slot: SlotId) -> Result<(), DeviceError> {
        if slot.0 as usize >= self.slots.len() {
            return Err(DeviceError::BadSlot(slot));
        }
        if self.slots[slot.0 as usize].take().is_none() {
            return Err(DeviceError::BadSlot(slot));
        }
        self.in_use -= 1;
        self.free.push(slot);
        Ok(())
    }

    /// Recovery-time free-list rebuild: keep exactly the slots in `live`
    /// (the residency table replayed from the WAL) and release everything
    /// else — orphaned slots from demotions that crashed between the
    /// device program and the WAL record become free again, so a crash
    /// can never leak device capacity.
    pub fn retain_slots(&mut self, live: &std::collections::BTreeSet<SlotId>) {
        self.free.clear();
        for i in 0..self.slots.len() as u32 {
            let id = SlotId(i);
            if live.contains(&id) {
                continue;
            }
            let held = self.slots[i as usize].take().is_some();
            self.in_use -= u32::from(held);
            if held || i < self.next {
                self.free.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; SLOT_BYTES]
    }

    /// Flip the low bit of byte `off` of `slot`'s stored page, first
    /// materializing a zero slot's page.
    fn flip_stored_byte(d: &mut FarDevice, slot: SlotId, off: usize) {
        let s = d.slots[slot.0 as usize].as_mut().expect("a written slot");
        s.data.get_or_insert_with(|| page(0).into())[off] ^= 0x01;
    }

    /// Every writeback tears.
    fn always_torn() -> DeviceFaultPlan {
        DeviceFaultPlan::new(DeviceFaultConfig {
            p_eio: 0.0,
            p_spike: 0.0,
            p_torn: 1.0,
            p_offline: 0.0,
            offline_after: None,
            seed: 7,
        })
    }

    #[test]
    fn writeback_fetch_roundtrip() {
        let mut d = FarDevice::new(4);
        let s = d.alloc_slot().unwrap();
        d.write(s, &page(0xAB)).unwrap();
        d.verify(s).unwrap();
        let mut buf = page(0);
        let t = d.read(s, &mut buf).unwrap();
        assert_eq!(buf, page(0xAB));
        assert_eq!(t, Cycles(FarDevice::FETCH_CYCLES));
        assert_eq!(d.slots_in_use(), 1);
        d.free_slot(s).unwrap();
        assert_eq!(d.slots_in_use(), 0);
        // LIFO reuse.
        assert_eq!(d.alloc_slot().unwrap(), s);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let cfg = DeviceFaultConfig::uniform(0.3, 42);
        let mut a = DeviceFaultPlan::new(cfg);
        let mut b = DeviceFaultPlan::new(cfg);
        let sa: Vec<_> = (0..500).map(|i| a.roll(i % 2 == 0)).collect();
        let sb: Vec<_> = (0..500).map(|i| b.roll(i % 2 == 0)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(Option::is_some));
    }

    /// The kinds the first 64 requests of one seed draw, writebacks and
    /// reads alternating, with the device scheduled offline after 40:
    /// pinned so that a reordered probability table or a changed float
    /// sum fails here at any rate. `.` is no fault, `E` EIO, `S` a
    /// latency spike, `W` a torn writeback, `O` offline.
    #[test]
    fn the_fault_sequence_of_a_seed_is_pinned() {
        let mut p =
            DeviceFaultPlan::new(DeviceFaultConfig::uniform(0.3, 0x5EED).with_offline_after(40));
        let letters: String = (0..64)
            .map(|i| match p.roll(i % 2 == 0) {
                None => '.',
                Some(DeviceFaultKind::TransientEio) => 'E',
                Some(DeviceFaultKind::LatencySpike) => 'S',
                Some(DeviceFaultKind::TornWriteback) => 'W',
                Some(DeviceFaultKind::Offline) => 'O',
            })
            .collect();
        assert_eq!(
            letters,
            "E...E.EE.S..EE...EW.....E..E.E...ES..SEEOOOOOOOOOOOOOOOOOOOOOOOO"
        );
    }

    #[test]
    fn torn_writeback_is_caught_by_verify_and_cleared_by_rewrite() {
        let mut d = FarDevice::new(2);
        d.set_fault_plan(Some(always_torn()));
        let s = d.alloc_slot().unwrap();
        d.write(s, &page(0x55)).unwrap();
        // Drop the plan so the verify itself is fault-free: the corruption
        // is durable in the slot and must be caught by the checksum alone.
        d.set_fault_plan(None);
        assert!(matches!(d.verify(s), Err(DeviceError::Corrupt { .. })));
        let mut buf = page(0);
        assert!(matches!(d.read(s, &mut buf), Err(DeviceError::Corrupt { .. })));
        // A clean rewrite replaces the torn data.
        d.set_fault_plan(None);
        d.write(s, &page(0x55)).unwrap();
        d.verify(s).unwrap();
        d.read(s, &mut buf).unwrap();
        assert_eq!(buf, page(0x55));
    }

    #[test]
    fn one_flipped_byte_anywhere_in_a_slot_is_corrupt() {
        let mut d = FarDevice::new(1);
        let s = d.alloc_slot().unwrap();
        let patterned: Vec<u8> = (0..SLOT_BYTES).map(|i| (i * 31 % 251) as u8).collect();
        // An all-zero page folds as whole zero chunks: one flipped bit
        // anywhere in a chunk, at its edges or in the last word must show.
        let zero = page(0);
        for (name, data) in [("patterned", &patterned), ("zero", &zero)] {
            for off in [0, 7, 8, 56, 63, 64, 2047, 4032, 4088, 4095] {
                d.write(s, data).unwrap();
                flip_stored_byte(&mut d, s, off);
                assert!(
                    matches!(d.verify(s), Err(DeviceError::Corrupt { .. })),
                    "verify missed a flip at byte {off} of the {name} page"
                );
                let mut buf = page(0);
                assert!(
                    matches!(d.read(s, &mut buf), Err(DeviceError::Corrupt { .. })),
                    "read missed a flip at byte {off} of the {name} page"
                );
            }
        }
    }

    #[test]
    fn a_zero_page_is_a_zero_slot_with_no_buffer() {
        let mut d = FarDevice::new(2);
        let (z, p) = (d.alloc_slot().unwrap(), d.alloc_slot().unwrap());
        d.write(z, &page(0)).unwrap();
        d.write(p, &page(3)).unwrap();
        assert!(d.slots[z.0 as usize].as_ref().unwrap().data.is_none());
        assert!(matches!(d.peek(z), Some(PageView::Zero)));
        assert!(matches!(d.peek(p), Some(PageView::Bytes(b)) if b == page(3)));
        assert_eq!(d.slots[z.0 as usize].as_ref().unwrap().sum, Fnv64::of_le_words(&page(0)));
        assert_eq!(d.verify(z).unwrap(), Cycles(FarDevice::VERIFY_CYCLES));
        // A read of a zero slot overwrites the whole buffer with zeros.
        let mut buf = page(0xAA);
        assert_eq!(d.read(z, &mut buf).unwrap(), Cycles(FarDevice::FETCH_CYCLES));
        assert_eq!(buf, page(0));
        let st = d.stats();
        assert_eq!((st.writebacks, st.verifies, st.fetches, st.slots_peak), (2, 1, 1, 2));
        assert_eq!(d.slots_in_use(), 2);
        d.free_slot(z).unwrap();
        assert_eq!(d.slots_in_use(), 1);
        assert!(d.peek(z).is_none());
    }

    #[test]
    fn a_torn_zero_page_is_caught_and_cleared_by_rewrite() {
        let mut d = FarDevice::new(1);
        d.set_fault_plan(Some(always_torn()));
        let s = d.alloc_slot().unwrap();
        d.write(s, &page(0)).unwrap();
        assert_eq!(d.stats().torn_writebacks, 1);
        d.set_fault_plan(None);
        // The tear is stored as bytes, under the zero page's checksum.
        assert!(matches!(d.peek(s), Some(PageView::Bytes(b)) if b[0] == 0xFF));
        assert!(matches!(d.verify(s), Err(DeviceError::Corrupt { .. })));
        let mut buf = page(0);
        assert!(matches!(d.read(s, &mut buf), Err(DeviceError::Corrupt { .. })));
        d.write(s, &page(0)).unwrap();
        assert!(matches!(d.peek(s), Some(PageView::Zero)));
        d.verify(s).unwrap();
        buf.fill(0x11);
        d.read(s, &mut buf).unwrap();
        assert_eq!(buf, page(0));
        // A page whose tear leaves it all zero is still caught.
        d.set_fault_plan(Some(always_torn()));
        let mut one = page(0);
        one[0] = 0xFF;
        d.write(s, &one).unwrap();
        d.set_fault_plan(None);
        assert!(matches!(d.verify(s), Err(DeviceError::Corrupt { .. })));
    }

    #[test]
    fn offline_latches_permanently() {
        let cfg = DeviceFaultConfig::uniform(0.0, 1).with_offline_after(2);
        let mut d = FarDevice::new(4);
        d.set_fault_plan(Some(DeviceFaultPlan::new(cfg)));
        let s = d.alloc_slot().unwrap();
        d.write(s, &page(1)).unwrap();
        d.verify(s).unwrap();
        // Third request trips the scheduled offline; all later ones fail.
        let mut buf = page(0);
        assert_eq!(d.read(s, &mut buf), Err(DeviceError::Offline));
        assert_eq!(d.write(s, &page(2)), Err(DeviceError::Offline));
        assert!(d.is_offline());
        assert!(!DeviceError::Offline.is_transient());
    }

    #[test]
    fn transient_faults_clear_on_retry() {
        let cfg = DeviceFaultConfig::transient_only(0.5, 3);
        let mut d = FarDevice::new(2);
        d.set_fault_plan(Some(DeviceFaultPlan::new(cfg)));
        let s = d.alloc_slot().unwrap();
        // With p=0.5 the first success arrives within a few attempts.
        let mut ok = false;
        for _ in 0..64 {
            match d.write(s, &page(9)) {
                Ok(_) => {
                    ok = true;
                    break;
                }
                Err(e) => assert!(e.is_transient()),
            }
        }
        assert!(ok, "transient-only profile must eventually succeed");
    }

    #[test]
    fn retain_slots_reclaims_orphans() {
        let mut d = FarDevice::new(4);
        let a = d.alloc_slot().unwrap();
        let b = d.alloc_slot().unwrap();
        d.write(a, &page(1)).unwrap();
        d.write(b, &page(2)).unwrap();
        let live: std::collections::BTreeSet<SlotId> = [a].into_iter().collect();
        d.retain_slots(&live);
        assert_eq!(d.slots_in_use(), 1);
        // The orphan is allocatable again; the live slot still reads back.
        let c = d.alloc_slot().unwrap();
        assert_eq!(c, b);
        let mut buf = page(0);
        d.read(a, &mut buf).unwrap();
        assert_eq!(buf, page(1));
    }

    #[test]
    fn the_in_use_count_matches_a_recount_under_random_traffic() {
        let recount = |d: &FarDevice| d.slots.iter().filter(|s| s.is_some()).count() as u32;
        let pick = |rng: &mut SimRng, v: &[SlotId]| v[rng.gen_range(0..v.len() as u64) as usize];
        for seed in 0..8 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut d = FarDevice::new(16);
            let mut allocated = Vec::new();
            for step in 0..400 {
                match rng.gen_range(0..7u64) {
                    0 | 1 => {
                        if let Ok(s) = d.alloc_slot() {
                            allocated.push(s);
                        }
                    }
                    2 | 3 if !allocated.is_empty() => {
                        let s = pick(&mut rng, &allocated);
                        let fill = if rng.gen_bool(0.3) { 0 } else { step as u8 | 1 };
                        let _ = d.write(s, &page(fill));
                    }
                    4 if !allocated.is_empty() => {
                        let s = pick(&mut rng, &allocated);
                        d.set_fault_plan(Some(always_torn()));
                        d.write(s, &page(step as u8)).unwrap();
                        d.set_fault_plan(None);
                    }
                    5 if !allocated.is_empty() => {
                        let i = rng.gen_range(0..allocated.len() as u64) as usize;
                        let s = allocated.swap_remove(i);
                        // The strict free fails on a never-written slot.
                        if rng.gen_bool(0.5) || d.free_slot(s).is_err() {
                            d.release_slot(s);
                        }
                    }
                    6 => {
                        let live =
                            allocated.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
                        d.retain_slots(&live);
                        allocated.retain(|s| live.contains(s));
                    }
                    _ => {}
                }
                assert_eq!(d.slots_in_use(), recount(&d), "seed {seed} step {step}");
            }
            // An offline device fails every write and leaves the count alone.
            let cfg = DeviceFaultConfig::uniform(0.0, seed).with_offline_after(0);
            d.set_fault_plan(Some(DeviceFaultPlan::new(cfg)));
            let before = d.slots_in_use();
            for &s in &allocated {
                assert_eq!(d.write(s, &page(3)), Err(DeviceError::Offline));
            }
            assert_eq!((d.slots_in_use(), recount(&d)), (before, before));
        }
    }

    #[test]
    fn full_device_rejects_allocation() {
        let mut d = FarDevice::new(1);
        d.alloc_slot().unwrap();
        assert_eq!(d.alloc_slot(), Err(DeviceError::Full));
    }
}
