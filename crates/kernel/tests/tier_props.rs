//! Differential test of the far tier's bookkeeping: the frame-indexed
//! residency table and touched bitset of [`FarTier`] against a reference
//! model built on `BTreeSet`s, whose ascending iteration order is the
//! order the tier's tables must give.
//!
//! Random op sequences drive one kernel through translations (reads and
//! writes), raw-write resolves followed by a raw write, demotions,
//! explicit promotions, discards, promote-all, PTE swaps, drains of the
//! touched set, and a reboot followed by `tier_recover`. The device
//! injects transient faults (EIO, latency spikes, torn writebacks), which
//! the retry ladder absorbs. After every op the test compares `is_far` for
//! every frame, `far_count`, the order of `far_frames()`, `slots_in_use`,
//! `stats().far_peak`, and every page's content as the tier-aware read
//! sees it; each drain compares the touched frames in the order they are
//! visited.
//!
//! Offline std-only: each case draws its inputs from the deterministic
//! `SimRng` (splitmix64). A failing case panics with the property name,
//! the case's seed, and the failing step, so it reproduces from the
//! message alone.

use std::cell::Cell;
use std::collections::BTreeSet;
use svagc_kernel::{
    CoreId, DeviceFaultConfig, DeviceFaultPlan, FarDevice, FarTier, Kernel, RetryPolicy,
    SwapRequest, SwapVaOptions, TierError,
};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{AddressSpace, Asid, FrameId, VirtAddr, PAGE_SIZE};

/// Run `property` on `cases` generated cases. Case `i` draws its inputs
/// from `SimRng::seed_from_u64(base_seed + i)`; a failure reports that
/// seed and the property's description of the case.
fn check(
    name: &str,
    base_seed: u64,
    cases: u64,
    property: impl Fn(&mut SimRng) -> Result<(), String>,
) {
    for i in 0..cases {
        let seed = base_seed + i;
        if let Err(case) = property(&mut SimRng::seed_from_u64(seed)) {
            panic!("property `{name}` failed on case {i} (seed {seed:#x}): {case}");
        }
    }
}

const FRAMES: u32 = 96;
const PAGES: u64 = 40;
/// Fewer slots than pages, so demotions also meet a full device.
const SLOTS: u32 = 12;
const STEPS: usize = 400;

/// The tier as ordered sets: which frames are far, which were touched
/// since the last drain, and the far high-water mark.
#[derive(Default)]
struct Model {
    far: BTreeSet<FrameId>,
    touched: BTreeSet<FrameId>,
    peak: u32,
}

impl Model {
    /// A translation of `frame`: it is touched, and fetched if far.
    fn access(&mut self, frame: FrameId) {
        self.touched.insert(frame);
        self.far.remove(&frame);
    }

    fn demote(&mut self, frame: FrameId) {
        if self.far.insert(frame) {
            self.touched.remove(&frame);
            self.peak = self.peak.max(self.far.len() as u32);
        }
    }
}

struct Rig {
    k: Kernel,
    s: AddressSpace,
    base: VirtAddr,
    /// The word at each page's base, as the mutator last wrote it.
    content: Vec<u64>,
    m: Model,
}

impl Rig {
    fn new(rng: &mut SimRng) -> Rig {
        let mut k = Kernel::new(MachineConfig::i5_7600(), FRAMES);
        let mut s = AddressSpace::new(Asid(5));
        let base = k.vmem.alloc_region(&mut s, PAGES).unwrap();
        let content: Vec<u64> = (0..PAGES).map(|p| 0xC0DE_0000 + p).collect();
        for (p, &v) in content.iter().enumerate() {
            k.vmem.write_u64(&s, base.add_pages(p as u64), v).unwrap();
        }
        k.set_wal_enabled(true);
        let mut dev = FarDevice::new(SLOTS);
        dev.set_fault_plan(Some(DeviceFaultPlan::new(DeviceFaultConfig::uniform(
            0.05,
            rng.next_u64(),
        ))));
        k.set_far_tier(Some(FarTier::new(dev, RetryPolicy::with_max_retries(16))));
        Rig {
            k,
            s,
            base,
            content,
            m: Model::default(),
        }
    }

    fn va(&self, page: u64) -> VirtAddr {
        self.base.add_pages(page)
    }

    fn frame(&self, page: u64) -> FrameId {
        self.s.translate(self.va(page)).unwrap().frame()
    }

    fn tier(&self) -> &FarTier {
        self.k.far_tier().expect("installed")
    }

    /// Apply one random op to the kernel and the model.
    fn step(&mut self, rng: &mut SimRng) -> Result<String, String> {
        let page = rng.gen_range(0..PAGES);
        let core = CoreId(rng.gen_range(0..2usize));
        let va = self.va(page);
        let frame = self.frame(page);
        let roll = rng.gen_range(0..100u32);
        let op = match roll {
            0..=19 => {
                let (v, _) = self.k.read_word(&self.s, core, va).map_err(|e| e.to_string())?;
                if v != self.content[page as usize] {
                    return Err(format!("read of page {page} saw {v:#x}"));
                }
                self.m.access(frame);
                format!("read page {page}")
            }
            20..=29 => {
                let v = rng.next_u64();
                self.k.write_word(&self.s, core, va, v).map_err(|e| e.to_string())?;
                self.content[page as usize] = v;
                self.m.access(frame);
                format!("write page {page}")
            }
            30..=39 => {
                // A raw bulk write must resolve residency first, or it lands
                // in a zeroed frame that the next fetch clobbers.
                let from = va + rng.gen_range(0..PAGE_SIZE);
                let max = self.va(PAGES).get() - from.get();
                let bytes = rng.gen_range(1..=max.min(3 * PAGE_SIZE));
                self.k
                    .tier_resolve_write_range(&self.s, from, bytes)
                    .map_err(|e| e.to_string())?;
                let last = (from + (bytes - 1)).vpn() - self.base.vpn();
                for p in page..=last {
                    let f = self.frame(p);
                    self.m.access(f);
                }
                let v = rng.next_u64();
                self.k.vmem.write_u64(&self.s, va, v).map_err(|e| e.to_string())?;
                self.content[page as usize] = v;
                format!("resolve {bytes} bytes from page {page}")
            }
            40..=59 => {
                match self.k.tier_demote_page(&self.s, va) {
                    Ok(_) => self.m.demote(frame),
                    Err(TierError::DeviceFull)
                        if self.m.far.len() == SLOTS as usize && !self.m.far.contains(&frame) => {}
                    Err(e) => return Err(format!("demote page {page}: {e}")),
                }
                format!("demote page {page}")
            }
            60..=67 => {
                self.k.tier_promote_frame(frame).map_err(|e| e.to_string())?;
                self.m.far.remove(&frame);
                format!("promote page {page}")
            }
            68..=72 => {
                let pages = rng.gen_range(1..=(PAGES - page).min(4));
                self.k.tier_discard_range(&self.s, va, pages);
                for p in page..page + pages {
                    // The device copy is dropped unread; the frame stays
                    // zeroed from its demotion.
                    let f = self.frame(p);
                    if self.m.far.remove(&f) {
                        self.content[p as usize] = 0;
                    }
                }
                format!("discard {pages} pages from page {page}")
            }
            73..=75 => {
                self.k.tier_promote_all().map_err(|e| e.to_string())?;
                self.m.far.clear();
                "promote all".to_string()
            }
            76..=77 => {
                self.k.reboot();
                let (restored, _) = self.k.tier_recover().map_err(|e| e.to_string())?;
                if restored as usize != self.m.far.len() {
                    return Err(format!(
                        "recovery restored {restored} far pages, model has {}",
                        self.m.far.len()
                    ));
                }
                self.m.touched.clear();
                self.m.far.clear();
                "reboot + recover".to_string()
            }
            78..=87 => {
                let mut got = Vec::new();
                self.k.far_tier_mut().unwrap().drain_touched(|f| got.push(f));
                let want: Vec<FrameId> = std::mem::take(&mut self.m.touched).into_iter().collect();
                if got != want {
                    return Err(format!("drained touched {got:?}, model {want:?}"));
                }
                "drain touched".to_string()
            }
            _ => {
                // A PTE swap carries a far page's residency along with its
                // frame: no set changes, only which page sees which bytes.
                let other = (page + rng.gen_range(1..PAGES)) % PAGES;
                let req = SwapRequest {
                    a: va,
                    b: self.va(other),
                    pages: 1,
                };
                self.k
                    .swap_va(&mut self.s, CoreId(0), req, SwapVaOptions::naive())
                    .map_err(|e| e.to_string())?;
                self.content.swap(page as usize, other as usize);
                format!("swap pages {page} and {other}")
            }
        };
        Ok(op)
    }

    /// Compare every observable of the tier with the model.
    fn agree(&self) -> Result<(), String> {
        let t = self.tier();
        for f in 0..FRAMES {
            let f = FrameId(f);
            if t.is_far(f) != self.m.far.contains(&f) {
                return Err(format!("is_far({}) = {}", f.0, t.is_far(f)));
            }
        }
        let want: Vec<FrameId> = self.m.far.iter().copied().collect();
        if t.far_frames() != want {
            return Err(format!("far_frames {:?}, model {want:?}", t.far_frames()));
        }
        if t.far_count() as usize != want.len() || t.slots_in_use() as usize != want.len() {
            return Err(format!(
                "far_count {} / slots_in_use {}, model {}",
                t.far_count(),
                t.slots_in_use(),
                want.len()
            ));
        }
        if t.stats().far_peak != self.m.peak {
            return Err(format!("far_peak {}, model {}", t.stats().far_peak, self.m.peak));
        }
        for p in 0..PAGES {
            let v = self.k.read_u64_tiered(&self.s, self.va(p)).map_err(|e| e.to_string())?;
            if v != self.content[p as usize] {
                return Err(format!("page {p} holds {v:#x}, model {:#x}", self.content[p as usize]));
            }
        }
        Ok(())
    }
}

#[test]
fn dense_tier_tables_match_the_ordered_set_model() {
    // Non-vacuity counters, summed over all cases: demotions that met a
    // full device, recoveries that restored far pages, fetches on access.
    let (full, restored, fetched) = (Cell::new(0), Cell::new(0), Cell::new(0));
    check("tier tables vs ordered sets", 0x7137_0000, 64, |rng| {
        let mut rig = Rig::new(rng);
        let mut history = Vec::new();
        for step in 0..STEPS {
            let far_before = rig.m.far.len();
            let op = rig
                .step(rng)
                .map_err(|e| format!("step {step}: {e} (after {history:?})"))?;
            rig.agree()
                .map_err(|e| format!("step {step} ({op}): {e}"))?;
            if op.starts_with("demote") && far_before == SLOTS as usize {
                full.set(full.get() + 1);
            }
            if op.starts_with("reboot") && far_before > 0 {
                restored.set(restored.get() + 1);
            }
            history.push(op);
            if history.len() > 8 {
                history.remove(0);
            }
        }
        fetched.set(fetched.get() + rig.tier().stats().fetch_on_access);
        Ok(())
    });
    assert!(full.get() > 0, "no demotion met a full device");
    assert!(restored.get() > 0, "no recovery restored a far page");
    assert!(fetched.get() > 0, "no access fetched a far page");
}
