//! The SwapVA system call (Algorithm 1) with its internal optimizations.
//!
//! `SwapVA(vAdd1, vAdd2, pages)` exchanges the PTEs of two equal-length
//! page-aligned virtual ranges — a zero-copy move/swap. Per the paper:
//!
//! * **Base algorithm** (Algorithm 1): for each page pair, locate both PTEs
//!   by walking the tables (`GETPTE`), lock, exchange, unlock; flush the
//!   caller's TLB at the end.
//! * **Aggregation** (Fig. 5): [`Kernel::swap_va_batch`] executes many
//!   requests under one syscall entry and one trailing flush.
//! * **PMD caching** (Fig. 7): consecutive pages of each operand share a
//!   PTE table; a per-operand [`PmdCache`] shortens the 4-level walk to a
//!   single PTE-table access on hits.
//! * **Overlap** (Algorithm 2): overlapping ranges are rotated in
//!   `n + δ` PTE writes instead of `2n` — see [`crate::overlap`].
//! * **Flush policy** (§IV): naive global broadcast per call vs the pinned
//!   local-only protocol of Algorithm 4 — see [`crate::shootdown`].

use crate::error::SwapVaError;
use crate::fault::CrashPoint;
use crate::overlap;
use crate::shootdown::{FlushMode, Interference};
use crate::state::{CoreId, Kernel};
use crate::wal::WalOp;
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{
    AddressSpace, PmdCache, VirtAddr, VmError, PAGE_SIZE, WALK_LEVELS_CACHED, WALK_LEVELS_FULL,
};

/// One swap request: exchange `pages` pages at `a` with `pages` pages at `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRequest {
    /// First range base (page-aligned).
    pub a: VirtAddr,
    /// Second range base (page-aligned).
    pub b: VirtAddr,
    /// Length in pages (> 0).
    pub pages: u64,
}

impl SwapRequest {
    /// Do the two ranges overlap?
    pub fn overlaps(&self) -> bool {
        let (lo, hi) = if self.a <= self.b {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        };
        (hi - lo) < self.pages * PAGE_SIZE
    }

    /// Structural validation: rejects zero-length, misaligned, and
    /// self-aliasing (`a == b`) requests. A self-swap would be a silent
    /// no-op that burns a syscall — always a caller bug, so it is an
    /// explicit error rather than an accidental success.
    pub fn validate(&self) -> Result<(), VmError> {
        if self.pages == 0 || !self.a.is_page_aligned() || !self.b.is_page_aligned() {
            return Err(VmError::BadSwapRange {
                a: self.a,
                b: self.b,
                pages: self.pages,
            });
        }
        if self.a == self.b {
            return Err(VmError::AliasedSwapRange {
                a: self.a,
                pages: self.pages,
            });
        }
        Ok(())
    }
}

/// Which SwapVA optimizations are active.
#[derive(Debug, Clone, Copy)]
pub struct SwapVaOptions {
    /// PMD walk caching (Fig. 7/8).
    pub pmd_cache: bool,
    /// Algorithm 2 for overlapping ranges. When off, overlapping requests
    /// are rejected and the caller must fall back to `memmove`.
    pub overlap_opt: bool,
    /// TLB flush policy after the call.
    pub flush: FlushMode,
}

impl SwapVaOptions {
    /// Everything on, naive per-call global flush (pre-Algorithm 4).
    pub fn naive() -> SwapVaOptions {
        SwapVaOptions {
            pmd_cache: true,
            overlap_opt: true,
            flush: FlushMode::GlobalBroadcast,
        }
    }

    /// Everything on, local-only flush (the pinned Algorithm 4 protocol;
    /// the caller is responsible for the once-per-phase broadcast).
    pub fn pinned() -> SwapVaOptions {
        SwapVaOptions {
            pmd_cache: true,
            overlap_opt: true,
            flush: FlushMode::LocalOnly,
        }
    }

    /// All internal optimizations off (for ablations).
    pub fn unoptimized() -> SwapVaOptions {
        SwapVaOptions {
            pmd_cache: false,
            overlap_opt: false,
            flush: FlushMode::GlobalBroadcast,
        }
    }
}

impl Kernel {
    /// The SwapVA system call: one request, one syscall entry, one flush.
    /// Returns caller cycles; remote interference accrues per the flush
    /// mode and is returned alongside.
    ///
    /// ```
    /// use svagc_kernel::{CoreId, Kernel, SwapRequest, SwapVaOptions};
    /// use svagc_metrics::MachineConfig;
    /// use svagc_vmem::{AddressSpace, Asid};
    ///
    /// let mut k = Kernel::new(MachineConfig::i5_7600(), 64);
    /// let mut s = AddressSpace::new(Asid(1));
    /// let a = k.vmem.alloc_region(&mut s, 4).unwrap();
    /// let b = k.vmem.alloc_region(&mut s, 4).unwrap();
    /// k.vmem.write_u64(&s, a, 0xAA).unwrap();
    /// k.vmem.write_u64(&s, b, 0xBB).unwrap();
    ///
    /// let req = SwapRequest { a, b, pages: 4 };
    /// k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive()).unwrap();
    ///
    /// // Contents exchanged without copying a single byte.
    /// assert_eq!(k.vmem.read_u64(&s, a).unwrap(), 0xBB);
    /// assert_eq!(k.vmem.read_u64(&s, b).unwrap(), 0xAA);
    /// assert_eq!(k.perf.bytes_copied, 0);
    /// ```
    pub fn swap_va(
        &mut self,
        space: &mut AddressSpace,
        core: CoreId,
        req: SwapRequest,
        opts: SwapVaOptions,
    ) -> Result<(Cycles, Interference), SwapVaError> {
        let perf0 = self.perf;
        self.crash_gate(CrashPoint::BeforeBatchApply)?;
        let mut t = self.charge_syscall();
        t += self
            .swap_va_body(space, core, req, opts)
            .map_err(|e| e.add_spent(t))?;
        self.crash_gate(CrashPoint::AfterBatchApply)?;
        let (ft, intf) = self.flush_after_swap(core, space.asid(), opts.flush);
        if let Some(point) = self.crashed() {
            // A MidIpi crash inside the flush: the machine is gone.
            return Err(SwapVaError::Crashed { point });
        }
        let total = t + ft;
        let d = self.perf - perf0;
        self.trace.span(
            TraceKind::SwapVa,
            Cycles::ZERO,
            total,
            core.0 as u32,
            &[
                ("requests", 1),
                ("pages", req.pages),
                ("pte_swaps", d.pte_swaps),
                ("pmd_hits", d.pmd_cache_hits),
                ("walk_levels", d.pt_level_accesses),
            ],
        );
        Ok((total, intf))
    }

    /// Aggregated SwapVA (Fig. 5b): many requests under a single syscall
    /// entry, with a single trailing flush.
    /// On error, requests before the reported `index` (see
    /// [`SwapVaError::Fault`]) are fully applied and the rest untouched —
    /// callers that retry must resume *from* the failing index, never
    /// replay the whole batch (replaying would re-swap the applied prefix
    /// and corrupt memory).
    pub fn swap_va_batch(
        &mut self,
        space: &mut AddressSpace,
        core: CoreId,
        reqs: &[SwapRequest],
        opts: SwapVaOptions,
    ) -> Result<(Cycles, Interference), SwapVaError> {
        let perf0 = self.perf;
        self.crash_gate(CrashPoint::BeforeBatchApply)?;
        let mut t = self.charge_syscall();
        for (i, req) in reqs.iter().enumerate() {
            if i > 0 {
                // Between requests: earlier requests are applied (and their
                // intents durable), later ones never happened.
                self.crash_gate(CrashPoint::InsideBatchApply)
                    .map_err(|e| e.at_index(i))?;
            }
            match self.swap_va_body(space, core, *req, opts) {
                Ok(c) => t += c,
                Err(e @ SwapVaError::Fault { .. }) if i > 0 => {
                    // Requests 0..i already swapped their PTEs: flush as
                    // the completed call would have, or cores keep
                    // translating through the dead entries when the
                    // caller resumes (or falls back) without another
                    // swap.
                    let (ft, _) = self.flush_after_swap(core, space.asid(), opts.flush);
                    if let Some(point) = self.crashed() {
                        return Err(SwapVaError::Crashed { point });
                    }
                    return Err(e.add_spent(t + ft).at_index(i));
                }
                Err(e) => return Err(e.add_spent(t).at_index(i)),
            }
        }
        self.crash_gate(CrashPoint::AfterBatchApply)?;
        let (ft, intf) = self.flush_after_swap(core, space.asid(), opts.flush);
        if let Some(point) = self.crashed() {
            return Err(SwapVaError::Crashed { point });
        }
        let total = t + ft;
        let d = self.perf - perf0;
        self.trace.span(
            TraceKind::SwapVa,
            Cycles::ZERO,
            total,
            core.0 as u32,
            &[
                ("requests", reqs.len() as u64),
                ("pages", reqs.iter().map(|r| r.pages).sum()),
                ("pte_swaps", d.pte_swaps),
                ("pmd_hits", d.pmd_cache_hits),
                ("walk_levels", d.pt_level_accesses),
            ],
        );
        Ok((total, intf))
    }

    /// Algorithm 1's loop body (no syscall entry, no trailing flush):
    /// locate, lock, exchange, and unlock each PTE pair.
    pub(crate) fn swap_va_body(
        &mut self,
        space: &mut AddressSpace,
        core: CoreId,
        req: SwapRequest,
        opts: SwapVaOptions,
    ) -> Result<Cycles, SwapVaError> {
        req.validate()?;
        // Fault injection point: after structural validation (bad operands
        // are deterministic EINVALs, not random), before any PTE mutation
        // (so a faulted request leaves memory untouched).
        if let Some(kind) = self.roll_fault() {
            let spent = self.fault_attempt_cost(kind, req.pages, core, space.asid());
            self.trace.instant(
                TraceKind::FaultInjected,
                Cycles::ZERO,
                core.0 as u32,
                &[
                    ("pages", req.pages),
                    ("spent", spent.get()),
                    ("transient", kind.is_transient() as u64),
                ],
            );
            return Err(SwapVaError::Fault {
                kind,
                index: 0,
                spent,
            });
        }
        if req.overlaps() {
            if !opts.overlap_opt {
                return Err(SwapVaError::Vm(VmError::BadSwapRange {
                    a: req.a,
                    b: req.b,
                    pages: req.pages,
                }));
            }
            // Algorithm 2 only permutes the window's PTEs, so its undo
            // record is the raw PTE of every window page: undo restores
            // the exact mapping, not just the content. Reading the window
            // validates it, so a recorded rotation cannot fail mid-way;
            // the record precedes the rotation (write-ahead ordering is
            // what makes a crash between log and apply recoverable).
            let lo = if req.a <= req.b { req.a } else { req.b };
            let delta = req.a.get().abs_diff(req.b.get()) / PAGE_SIZE;
            let window = req.pages + delta;
            let mut t = Cycles::ZERO;
            if self.wal_recording() {
                let ptes = self.wal.live_pre.ptes.len();
                for i in 0..window {
                    let raw = space.page_table().read_pte_raw(lo.add_pages(i))?;
                    self.wal.live_pre.ptes.push(raw);
                }
                t += self
                    .wal_record(WalOp::PteWindow { lo, pages: window, ptes }, true)
                    .map_err(|point| SwapVaError::Crashed { point })?;
            }
            t += overlap::swap_overlap_body(self, space, core, req, opts.pmd_cache)
                .map_err(SwapVaError::Vm)?;
            return Ok(t);
        }

        // Both ranges are validated before any PTE moves, so a failure
        // cannot leave a half-swapped mapping: `swap_pte_ranges` checks
        // every page first, and a recorded swap reads them all beforehand.
        // The raw PTEs double as the undo record's pre-images: undo
        // installs them verbatim, which is idempotent whether or not the
        // swap below ever ran.
        let mut t = Cycles::ZERO;
        if self.wal_recording() {
            let ptes = self.wal.live_pre.ptes.len();
            let pre = &mut self.wal.live_pre.ptes;
            space
                .page_table()
                .visit_pte_pairs(req.a, req.b, req.pages, |ra, rb| pre.extend([ra, rb]))?;
            // Write-ahead: the record (durable, in a durable epoch) exists
            // before any PTE moves.
            let op = WalOp::PteSwap {
                a: req.a,
                b: req.b,
                pages: req.pages,
                ptes,
            };
            t += self
                .wal_record(op, true)
                .map_err(|point| SwapVaError::Crashed { point })?;
        }
        space
            .page_table_mut()
            .swap_pte_ranges(req.a, req.b, req.pages)?;
        Ok(t + self.swap_walk_cost(req, opts.pmd_cache))
    }

    /// What Algorithm 1's loop charges for `req`'s pages: per page, a
    /// `GETPTE` walk of each operand (one [`PmdCache`] per operand: src
    /// and dst live in different PTE tables, so a single-slot cache would
    /// thrash between them), the lock and unlock of both PTE tables, and
    /// the exchange.
    ///
    /// Uninstrumented, every walked level costs the same, so the walks are
    /// charged in closed form: a cold per-operand cache misses once for
    /// each 2 MiB prefix a range spans (its pages ascend, so each prefix
    /// is entered once) and hits on every other page. Instrumented, each
    /// level's page-table shadow line must reach the cache model in the
    /// per-page order, so the loop stays.
    fn swap_walk_cost(&mut self, req: SwapRequest, pmd_cache: bool) -> Cycles {
        let costs = self.machine.costs;
        let per_page = Cycles(2 * costs.lock_unlock + costs.pte_swap);
        self.perf.pte_swaps += req.pages;
        if self.instrumented() {
            let mut cache_a = PmdCache::new();
            let mut cache_b = PmdCache::new();
            let mut t = Cycles::ZERO;
            for i in 0..req.pages {
                t += self.get_pte_cost(req.a.add_pages(i), &mut cache_a, pmd_cache);
                t += self.get_pte_cost(req.b.add_pages(i), &mut cache_b, pmd_cache);
                t += per_page;
            }
            return t;
        }
        let mut levels = 0;
        for base in [req.a, req.b] {
            if pmd_cache {
                let last = base.add_pages(req.pages - 1);
                let misses = last.pmd_prefix() - base.pmd_prefix() + 1;
                let hits = req.pages - misses;
                self.perf.pmd_cache_hits += hits;
                levels += misses * u64::from(WALK_LEVELS_FULL)
                    + hits * u64::from(WALK_LEVELS_CACHED);
            } else {
                levels += req.pages * u64::from(WALK_LEVELS_FULL);
            }
        }
        self.perf.pt_level_accesses += levels;
        self.hot_pt_level_cost() * levels + per_page * req.pages
    }

    /// Cost of one `GETPTE` walk, with or without PMD caching.
    pub(crate) fn get_pte_cost(
        &mut self,
        va: VirtAddr,
        cache: &mut PmdCache,
        use_cache: bool,
    ) -> Cycles {
        let levels = if use_cache {
            let l = cache.walk_levels(va);
            if l < WALK_LEVELS_FULL {
                self.perf.pmd_cache_hits += 1;
            }
            l
        } else {
            WALK_LEVELS_FULL
        };
        let mut t = Cycles::ZERO;
        // Charge the deepest `levels` levels (a cached walk touches only
        // the PTE table, level 3).
        for level in (4 - levels)..4 {
            t += self.touch_pt_level(va, level);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultKind, FaultPlan};
    use svagc_metrics::MachineConfig;
    use svagc_vmem::{AddressSpace, Asid};

    fn setup(frames: u32) -> (Kernel, AddressSpace) {
        (
            Kernel::new(MachineConfig::i5_7600(), frames),
            AddressSpace::new(Asid(1)),
        )
    }

    /// Fill a region with a recognizable pattern keyed by `tag`.
    fn fill(k: &mut Kernel, s: &AddressSpace, base: VirtAddr, pages: u64, tag: u64) {
        for i in 0..pages * 512 {
            k.vmem.write_u64(s, base + i * 8, tag * 1_000_000 + i).unwrap();
        }
    }

    fn check(k: &Kernel, s: &AddressSpace, base: VirtAddr, pages: u64, tag: u64) {
        for i in 0..pages * 512 {
            assert_eq!(
                k.vmem.read_u64(s, base + i * 8).unwrap(),
                tag * 1_000_000 + i,
                "word {i}"
            );
        }
    }

    /// Algorithm 1's disjoint path as a per-page loop: six radix walks and
    /// two `PmdCache` probes per page pair. The leaf-run body replaced it;
    /// it is kept verbatim as that body's differential reference.
    fn per_page_body(
        k: &mut Kernel,
        space: &mut AddressSpace,
        req: SwapRequest,
        opts: SwapVaOptions,
    ) -> Result<Cycles, SwapVaError> {
        let costs = k.machine.costs;
        let mut t = Cycles::ZERO;
        let mut cache_a = PmdCache::new();
        let mut cache_b = PmdCache::new();
        let recording = k.wal_recording();
        let ptes = k.wal.live_pre.ptes.len();
        for i in 0..req.pages {
            let ra = space.page_table().read_pte_raw(req.a.add_pages(i))?;
            let rb = space.page_table().read_pte_raw(req.b.add_pages(i))?;
            if recording {
                k.wal.live_pre.ptes.extend([ra, rb]);
            }
        }
        if recording {
            let op = WalOp::PteSwap {
                a: req.a,
                b: req.b,
                pages: req.pages,
                ptes,
            };
            t += k
                .wal_record(op, true)
                .map_err(|point| SwapVaError::Crashed { point })?;
        }
        for i in 0..req.pages {
            let va1 = req.a.add_pages(i);
            let va2 = req.b.add_pages(i);
            t += k.get_pte_cost(va1, &mut cache_a, opts.pmd_cache);
            t += k.get_pte_cost(va2, &mut cache_b, opts.pmd_cache);
            t += Cycles(2 * costs.lock_unlock);
            space.page_table_mut().swap_ptes(va1, va2)?;
            t += Cycles(costs.pte_swap);
            k.perf.pte_swaps += 1;
        }
        Ok(t)
    }

    /// Raw PTE words of `pages` pages at `base` (0 where no table exists).
    fn raw_ptes(s: &AddressSpace, base: VirtAddr, pages: u64) -> Vec<u64> {
        (0..pages)
            .map(|i| s.page_table().pte(base.add_pages(i)).map_or(0, |p| p.raw()))
            .collect()
    }

    /// Random disjoint geometries: ranges that cross 512-page leaf tables
    /// and 2 MiB prefixes on either side, ranges in separate PUD subtrees,
    /// and both ranges in one leaf table; PMD caching and instrumented
    /// mode toggled; inside an open (volatile or durable) undo epoch. Twin
    /// kernels with identical histories run the leaf-run body and the
    /// per-page loop, and must agree on cycles, every counter, both ranges'
    /// PTEs and the pre-image arena; with a page of either range (or the
    /// same page of both) unmapped, on the error, with neither range
    /// changed.
    #[test]
    fn leaf_run_body_matches_per_page_loop() {
        use svagc_metrics::SimRng;
        for case in 0..96u64 {
            let seed = 0x5a_0000 + case;
            let mut rng = SimRng::seed_from_u64(seed);
            let pmd_cache = rng.gen_range(0..4u32) != 0;
            let instrumented = rng.gen_range(0..2u32) == 0;
            let durable = rng.gen_range(0..2u32) == 0;
            let (a, b, pages) = match rng.gen_range(0..3u32) {
                // Separate PUD subtrees, anywhere within three leaf tables.
                0 => {
                    let pages = rng.gen_range(1..1100u64);
                    let a = VirtAddr(0x4000_0000).add_pages(rng.gen_range(0..1536u64));
                    let b = VirtAddr(0x80_0000_0000).add_pages(rng.gen_range(0..1536u64));
                    (a, b, pages)
                }
                // One after the other in the same region.
                1 => {
                    let pages = rng.gen_range(1..700u64);
                    let a = VirtAddr(0x4000_0000).add_pages(rng.gen_range(0..1024u64));
                    let b = a.add_pages(pages + rng.gen_range(0..600u64));
                    (a, b, pages)
                }
                // Both in one leaf table.
                _ => {
                    let pages = rng.gen_range(1..200u64);
                    let gap = rng.gen_range(0..512 - 2 * pages);
                    let x = rng.gen_range(0..512 - 2 * pages - gap + 1);
                    let lo = VirtAddr(0x4000_0000).add_pages(512 + x);
                    (lo, lo.add_pages(pages + gap), pages)
                }
            };
            let (a, b) = if rng.gen_range(0..2u32) == 0 { (a, b) } else { (b, a) };
            let req = SwapRequest { a, b, pages };
            // A hole at page `j` of a, of b, or of both (a's is reported).
            let holes: Vec<VirtAddr> = if rng.gen_range(0..3u32) == 0 {
                let j = rng.gen_range(0..pages);
                match rng.gen_range(0..3u32) {
                    0 => vec![a.add_pages(j)],
                    1 => vec![b.add_pages(j)],
                    _ => vec![a.add_pages(j), b.add_pages(j)],
                }
            } else {
                Vec::new()
            };
            let opts = SwapVaOptions {
                pmd_cache,
                ..SwapVaOptions::pinned()
            };
            let ctx = format!(
                "case {case} (seed {seed:#x}): {req:?} pmd_cache {pmd_cache} \
                 instrumented {instrumented} durable {durable} holes {holes:?}"
            );
            let build = || {
                let (mut k, mut s) = setup(2 * pages as u32 + 8);
                k.vmem.map_pages(&mut s, a, pages).unwrap();
                k.vmem.map_pages(&mut s, b, pages).unwrap();
                for &va in &holes {
                    k.vmem.unmap_pages(&mut s, va, 1).unwrap();
                }
                k.set_instrumented(instrumented);
                k.set_wal_enabled(durable);
                k.wal_cycle_begin(vec![]);
                (k, s)
            };
            let (mut k_new, mut s_new) = build();
            let (mut k_ref, mut s_ref) = build();
            let before = (raw_ptes(&s_new, a, pages), raw_ptes(&s_new, b, pages));
            // Three rounds: the second and third swap back and forth over
            // the cache state (and arena) the earlier rounds left.
            for round in 0..3 {
                let got = k_new.swap_va_body(&mut s_new, CoreId(0), req, opts);
                let want = per_page_body(&mut k_ref, &mut s_ref, req, opts);
                let ctx = format!("{ctx} round {round}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(k_new.perf, k_ref.perf, "{ctx}");
                for base in [a, b] {
                    let ptes_new = raw_ptes(&s_new, base, pages);
                    assert_eq!(ptes_new, raw_ptes(&s_ref, base, pages), "{ctx}");
                }
                assert_eq!(k_new.wal.live_pre.ptes, k_ref.wal.live_pre.ptes, "{ctx}");
                if let Some(&va) = holes.first() {
                    assert_eq!(got, Err(SwapVaError::Vm(VmError::NotMapped(va))), "{ctx}");
                    let after = (raw_ptes(&s_new, a, pages), raw_ptes(&s_new, b, pages));
                    assert_eq!(after, before, "{ctx}: a failed swap changed a PTE");
                }
            }
            let stats = |k: &Kernel| format!("{:?}", k.wal_stats());
            assert_eq!(stats(&k_new), stats(&k_ref), "{ctx}");
        }
    }

    #[test]
    fn swap_exchanges_contents_without_copying() {
        let (mut k, mut s) = setup(128);
        let a = k.vmem.alloc_region(&mut s, 8).unwrap();
        let b = k.vmem.alloc_region(&mut s, 8).unwrap();
        fill(&mut k, &s, a, 8, 1);
        fill(&mut k, &s, b, 8, 2);
        let req = SwapRequest { a, b, pages: 8 };
        k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap();
        check(&k, &s, a, 8, 2);
        check(&k, &s, b, 8, 1);
        assert_eq!(k.perf.bytes_copied, 0, "zero-copy!");
        assert_eq!(k.perf.pte_swaps, 8);
        assert_eq!(k.perf.syscalls, 1);
    }

    #[test]
    fn swap_is_involutive() {
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 4).unwrap();
        let b = k.vmem.alloc_region(&mut s, 4).unwrap();
        fill(&mut k, &s, a, 4, 7);
        fill(&mut k, &s, b, 4, 9);
        let req = SwapRequest { a, b, pages: 4 };
        k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap();
        k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap();
        check(&k, &s, a, 4, 7);
        check(&k, &s, b, 4, 9);
    }

    #[test]
    fn misaligned_or_empty_requests_rejected() {
        let (mut k, mut s) = setup(16);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let bad = SwapRequest {
            a: a + 8,
            b: a.add_pages(1),
            pages: 1,
        };
        assert!(k
            .swap_va(&mut s, CoreId(0), bad, SwapVaOptions::naive())
            .is_err());
        let empty = SwapRequest { a, b: a, pages: 0 };
        assert!(k
            .swap_va(&mut s, CoreId(0), empty, SwapVaOptions::naive())
            .is_err());
    }

    #[test]
    fn zero_length_request_rejected() {
        let (mut k, mut s) = setup(16);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 2).unwrap();
        let req = SwapRequest { a, b, pages: 0 };
        let err = k
            .swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap_err();
        assert!(matches!(
            err,
            SwapVaError::Vm(VmError::BadSwapRange { pages: 0, .. })
        ));
    }

    #[test]
    fn self_aliasing_request_rejected() {
        let (mut k, mut s) = setup(16);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let req = SwapRequest { a, b: a, pages: 2 };
        let err = k
            .swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap_err();
        assert!(matches!(
            err,
            SwapVaError::Vm(VmError::AliasedSwapRange { a: va, pages: 2 }) if va == a
        ));
        assert_eq!(k.perf.pte_swaps, 0, "rejected before any PTE mutation");
    }

    #[test]
    fn injected_fault_leaves_memory_untouched_and_charges_cycles() {
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 4).unwrap();
        let b = k.vmem.alloc_region(&mut s, 4).unwrap();
        fill(&mut k, &s, a, 4, 1);
        fill(&mut k, &s, b, 4, 2);
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::transient_only(1.0, 5))));
        let req = SwapRequest { a, b, pages: 4 };
        let err = k
            .swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap_err();
        match err {
            SwapVaError::Fault { kind, index, spent } => {
                assert_eq!(kind, FaultKind::TransientContention);
                assert_eq!(index, 0);
                assert!(
                    spent.get() > k.machine.costs.syscall_entry_exit,
                    "failed attempt burns syscall entry + walk/spin cycles, got {spent}"
                );
            }
            e => panic!("expected injected fault, got {e}"),
        }
        // Per-request atomicity: nothing moved, nothing swapped.
        check(&k, &s, a, 4, 1);
        check(&k, &s, b, 4, 2);
        assert_eq!(k.perf.pte_swaps, 0);
        assert_eq!(k.perf.swap_faults_injected, 1);
        // Clearing the plan restores fault-free behaviour.
        k.set_fault_plan(None);
        k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap();
        check(&k, &s, a, 4, 2);
        check(&k, &s, b, 4, 1);
    }

    #[test]
    fn batch_fault_reports_failing_index_and_keeps_prefix() {
        // Find a seed whose fault sequence is [ok, fault, ...] so the batch
        // fails exactly at index 1.
        let seed = (0u64..1000)
            .find(|&sd| {
                let mut p = FaultPlan::new(FaultConfig::transient_only(0.5, sd));
                p.roll().is_none() && p.roll().is_some()
            })
            .expect("some seed yields [ok, fault]");
        let (mut k, mut s) = setup(256);
        let mut reqs = Vec::new();
        for _ in 0..3 {
            let a = k.vmem.alloc_region(&mut s, 2).unwrap();
            let b = k.vmem.alloc_region(&mut s, 2).unwrap();
            fill(&mut k, &s, a, 2, 1);
            fill(&mut k, &s, b, 2, 2);
            reqs.push(SwapRequest { a, b, pages: 2 });
        }
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::transient_only(0.5, seed))));
        let err = k
            .swap_va_batch(&mut s, CoreId(0), &reqs, SwapVaOptions::naive())
            .unwrap_err();
        let SwapVaError::Fault { index, .. } = err else {
            panic!("expected injected fault, got {err}");
        };
        assert_eq!(index, 1, "second request faulted");
        // Prefix applied, failing request and suffix untouched.
        check(&k, &s, reqs[0].a, 2, 2);
        check(&k, &s, reqs[0].b, 2, 1);
        check(&k, &s, reqs[1].a, 2, 1);
        check(&k, &s, reqs[1].b, 2, 2);
        check(&k, &s, reqs[2].a, 2, 1);
        check(&k, &s, reqs[2].b, 2, 2);
    }

    #[test]
    fn unmapped_page_rejected_without_partial_swap() {
        let (mut k, mut s) = setup(16);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 1).unwrap(); // 1 page only
        fill(&mut k, &s, a, 2, 3);
        let req = SwapRequest { a, b, pages: 2 };
        assert!(k
            .swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .is_err());
        // Nothing moved.
        check(&k, &s, a, 2, 3);
    }

    #[test]
    fn aggregation_amortizes_syscall_cost() {
        let (mut k, mut s) = setup(512);
        let mut reqs = Vec::new();
        for _ in 0..16 {
            let a = k.vmem.alloc_region(&mut s, 2).unwrap();
            let b = k.vmem.alloc_region(&mut s, 2).unwrap();
            reqs.push(SwapRequest { a, b, pages: 2 });
        }
        let opts = SwapVaOptions::naive();
        let (batched, _) = k.swap_va_batch(&mut s, CoreId(0), &reqs, opts).unwrap();
        // Undo, then redo separated.
        k.swap_va_batch(&mut s, CoreId(0), &reqs, opts).unwrap();
        let mut separated = Cycles::ZERO;
        for r in &reqs {
            separated += k.swap_va(&mut s, CoreId(0), *r, opts).unwrap().0;
        }
        assert!(
            separated.get() > batched.get() + 15 * k.machine.costs.syscall_entry_exit,
            "separated {separated} vs batched {batched}"
        );
        assert_eq!(k.perf.syscalls, 2 + 16);
    }

    #[test]
    fn pmd_cache_reduces_walk_cost() {
        let (mut k, mut s) = setup(2048);
        let a = k.vmem.alloc_region(&mut s, 256).unwrap();
        let b = k.vmem.alloc_region(&mut s, 256).unwrap();
        let req = SwapRequest { a, b, pages: 256 };
        let mut opts = SwapVaOptions::pinned();
        let (with_cache, _) = k.swap_va(&mut s, CoreId(0), req, opts).unwrap();
        let hits = k.perf.pmd_cache_hits;
        assert!(hits > 400, "expected ~510 hits, got {hits}");
        opts.pmd_cache = false;
        let (without, _) = k.swap_va(&mut s, CoreId(0), req, opts).unwrap();
        assert!(
            without.get() > with_cache.get(),
            "cached {with_cache} vs uncached {without}"
        );
        // Walk accesses: uncached = 2 ops * 256 pages * 4 levels.
        assert_eq!(k.perf.pmd_cache_hits, hits, "no new hits when disabled");
    }

    #[test]
    fn naive_flush_broadcasts_per_call() {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 128);
        let mut s = AddressSpace::new(Asid(1));
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        let b = k.vmem.alloc_region(&mut s, 1).unwrap();
        let req = SwapRequest { a, b, pages: 1 };
        for _ in 0..10 {
            k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
                .unwrap();
        }
        assert_eq!(k.perf.ipis_sent, 10 * 31);
        k.perf.ipis_sent = 0;
        for _ in 0..10 {
            k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::pinned())
                .unwrap();
        }
        assert_eq!(k.perf.ipis_sent, 0, "pinned mode sends no per-call IPIs");
    }

    #[test]
    fn traced_swap_emits_span_matching_perf() {
        let (mut k, mut s) = setup(128);
        k.set_tracing(true);
        let a = k.vmem.alloc_region(&mut s, 8).unwrap();
        let b = k.vmem.alloc_region(&mut s, 8).unwrap();
        let req = SwapRequest { a, b, pages: 8 };
        k.swap_va(&mut s, CoreId(2), req, SwapVaOptions::naive())
            .unwrap();
        let evs = k.take_trace();
        let span = evs
            .iter()
            .find(|e| e.kind == TraceKind::SwapVa)
            .expect("swap emits a span");
        assert_eq!(span.tid, 2);
        assert_eq!(span.arg("pages"), Some(8));
        assert_eq!(span.arg("pte_swaps"), Some(k.perf.pte_swaps));
        assert_eq!(span.arg("walk_levels"), Some(k.perf.pt_level_accesses));
        // The naive flush broadcast shows up too, with the IPI fan-out.
        let sd = evs
            .iter()
            .find(|e| e.kind == TraceKind::Shootdown)
            .expect("global flush emits a shootdown");
        assert_eq!(sd.arg("ipis"), Some(k.perf.ipis_sent));
        // Victim mask excludes the initiator.
        assert_eq!(sd.arg("victims").unwrap() & (1 << 2), 0);
    }

    #[test]
    fn untraced_swap_records_nothing() {
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 2).unwrap();
        let req = SwapRequest { a, b, pages: 2 };
        k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
            .unwrap();
        assert!(!k.trace.is_enabled());
        assert!(k.take_trace().is_empty());
    }

    #[test]
    fn swapped_mapping_visible_after_flush_not_before() {
        // A remote core with a warm TLB keeps seeing the *old* frame until
        // the shootdown reaches it — the §IV consistency hazard.
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        let b = k.vmem.alloc_region(&mut s, 1).unwrap();
        k.vmem.write_u64(&s, a, 0xA).unwrap();
        k.vmem.write_u64(&s, b, 0xB).unwrap();
        // Warm core 1's TLB for page a.
        let (pa_before, _) = k.translate(&s, CoreId(1), a).unwrap();
        let req = SwapRequest { a, b, pages: 1 };
        // LocalOnly flush on core 0: core 1 keeps its stale entry.
        k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::pinned())
            .unwrap();
        let (pa_stale, _) = k.translate(&s, CoreId(1), a).unwrap();
        assert_eq!(pa_stale, pa_before, "stale translation survives");
        // After a broadcast, core 1 sees the new frame.
        k.flush_asid_all_cores(CoreId(0), s.asid());
        let (pa_fresh, _) = k.translate(&s, CoreId(1), a).unwrap();
        assert_ne!(pa_fresh, pa_before);
        assert_eq!(k.vmem.phys.read_u64(pa_fresh).unwrap(), 0xB);
    }
}
