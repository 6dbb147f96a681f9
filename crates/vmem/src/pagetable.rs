//! The 4-level radix page table and the PMD walk cache.
//!
//! Structure mirrors x86-64 with 4-KiB pages: PGD → PUD → PMD → PTE table,
//! 512 entries each, with the `p4d` level folded (as on Linux 4.17 with
//! 4-level paging). Walks report how many levels they touched so the kernel
//! layer can charge the right number of memory accesses — this is what makes
//! the Fig. 8 PMD-caching experiment measurable.
//!
//! Algorithm 1 takes the PTE-table spinlock around each swap. The host-side
//! simulation mutates tables from one thread, so locks are modeled as cost
//! events (`CostParams::lock_unlock`) charged by the kernel crate rather
//! than real mutexes.

use crate::addr::{PhysAddr, VirtAddr, ENTRIES_PER_TABLE};
use crate::error::VmError;
use crate::pte::Pte;

/// Levels touched by an *uncached* PTE walk: PGD, PUD, PMD, PTE
/// (p4d folded → free).
pub const WALK_LEVELS_FULL: u8 = 4;
/// Levels touched when the PMD pointer is cached: only the PTE table.
pub const WALK_LEVELS_CACHED: u8 = 1;

/// Leaf level: 512 PTEs.
#[derive(Debug)]
pub struct PteTable {
    entries: Box<[Pte]>,
}

impl PteTable {
    fn new() -> PteTable {
        PteTable {
            entries: vec![Pte::NONE; ENTRIES_PER_TABLE].into_boxed_slice(),
        }
    }

    /// Entry at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Pte {
        self.entries[idx]
    }

    /// Overwrite entry at `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize, pte: Pte) {
        self.entries[idx] = pte;
    }
}

#[derive(Debug)]
struct Pmd {
    tables: Box<[Option<Box<PteTable>>]>,
}

#[derive(Debug)]
struct Pud {
    pmds: Box<[Option<Box<Pmd>>]>,
}

fn empty_slots<T>() -> Box<[Option<T>]> {
    (0..ENTRIES_PER_TABLE).map(|_| None).collect()
}

/// One process's 4-level page table.
#[derive(Debug)]
pub struct PageTable {
    pgd: Box<[Option<Box<Pud>>]>,
    /// Directory pages allocated (PUD+PMD+PTE tables) — table-memory
    /// overhead statistic.
    tables_allocated: u64,
    /// Present leaf mappings.
    mapped: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty table.
    pub fn new() -> PageTable {
        PageTable {
            pgd: empty_slots(),
            tables_allocated: 0,
            mapped: 0,
        }
    }

    /// Number of directory/leaf table pages allocated.
    pub fn tables_allocated(&self) -> u64 {
        self.tables_allocated
    }

    /// Number of present leaf mappings.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    #[inline]
    fn pte_table(&self, va: VirtAddr) -> Option<&PteTable> {
        self.pgd[va.pgd_index()]
            .as_deref()?
            .pmds[va.pud_index()]
            .as_deref()?
            .tables[va.pmd_index()]
            .as_deref()
    }

    fn pte_table_mut(&mut self, va: VirtAddr, create: bool) -> Option<&mut PteTable> {
        let tables = &mut self.tables_allocated;
        let pud = match &mut self.pgd[va.pgd_index()] {
            Some(p) => p,
            slot @ None if create => {
                *tables += 1;
                slot.insert(Box::new(Pud {
                    pmds: empty_slots(),
                }))
            }
            None => return None,
        };
        let pmd = match &mut pud.pmds[va.pud_index()] {
            Some(p) => p,
            slot @ None if create => {
                *tables += 1;
                slot.insert(Box::new(Pmd {
                    tables: empty_slots(),
                }))
            }
            None => return None,
        };
        match &mut pmd.tables[va.pmd_index()] {
            Some(t) => Some(t),
            slot @ None if create => {
                *tables += 1;
                Some(slot.insert(Box::new(PteTable::new())))
            }
            None => None,
        }
    }

    /// Read the PTE for `va`, if any table path exists.
    #[inline]
    pub fn pte(&self, va: VirtAddr) -> Option<Pte> {
        self.pte_table(va).map(|t| t.get(va.pte_index()))
    }

    /// Translate a virtual address to a physical one.
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, VmError> {
        match self.pte(va) {
            Some(pte) if pte.present() => Ok(pte.frame().base() + va.page_offset()),
            _ => {
                Err(VmError::NotMapped(va))
            }
        }
    }

    /// Install a mapping. Fails if `va` is already mapped.
    pub fn map(&mut self, va: VirtAddr, pte: Pte) -> Result<(), VmError> {
        debug_assert!(pte.present());
        let idx = va.pte_index();
        let table = self
            .pte_table_mut(va, true)
            .expect("page-table invariant: create=true always yields a leaf table");
        if table.get(idx).present() {
            return Err(VmError::AlreadyMapped(va));
        }
        table.set(idx, pte);
        self.mapped += 1;
        Ok(())
    }

    /// Remove a mapping, returning the old PTE.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<Pte, VmError> {
        let idx = va.pte_index();
        let table = self
            .pte_table_mut(va, false)
            .ok_or(VmError::NotMapped(va))?;
        let old = table.get(idx);
        if !old.present() {
            return Err(VmError::NotMapped(va));
        }
        table.set(idx, Pte::NONE);
        self.mapped -= 1;
        Ok(old)
    }

    /// Read the raw PTE word for `va` (Algorithm 2's `GETPTE`).
    pub fn read_pte_raw(&self, va: VirtAddr) -> Result<u64, VmError> {
        self.pte(va)
            .filter(|p| p.present())
            .map(Pte::raw)
            .ok_or(VmError::NotMapped(va))
    }

    /// Overwrite the raw PTE word for `va`. The slot's table path must
    /// already exist (SwapVA only touches mapped ranges).
    pub fn write_pte_raw(&mut self, va: VirtAddr, raw: u64) -> Result<(), VmError> {
        let idx = va.pte_index();
        let table = self
            .pte_table_mut(va, false)
            .ok_or(VmError::NotMapped(va))?;
        let was = table.get(idx).present();
        let now = Pte::from_raw(raw).present();
        table.set(idx, Pte::from_raw(raw));
        match (was, now) {
            (false, true) => self.mapped += 1,
            (true, false) => self.mapped -= 1,
            _ => {}
        }
        Ok(())
    }

    /// The PTEs from `va` to the end of its 512-entry leaf table, or `None`
    /// when no leaf table covers `va`. One radix walk serves every page of
    /// the run.
    #[inline]
    fn leaf_run(&self, va: VirtAddr) -> Option<&[Pte]> {
        self.pte_table(va).map(|t| &t.entries[va.pte_index()..])
    }

    /// Call `f(a_i, b_i)` with the raw PTE words of each page pair
    /// `(a + i, b + i)`, `i` ascending, stopping at the first page that is
    /// not present with `NotMapped` — `a_i` is checked before `b_i`, so
    /// the error names the page a per-page `read_pte_raw` loop would. Each
    /// operand's leaf table is walked once per run; runs end where either
    /// side crosses a leaf-table boundary.
    pub fn visit_pte_pairs(
        &self,
        a: VirtAddr,
        b: VirtAddr,
        pages: u64,
        mut f: impl FnMut(u64, u64),
    ) -> Result<(), VmError> {
        let mut done = 0;
        while done < pages {
            let (va, vb) = (a.add_pages(done), b.add_pages(done));
            let n = run_len(va, vb, pages - done);
            let ra = self.leaf_run(va).map(|r| &r[..n]);
            let rb = self.leaf_run(vb).map(|r| &r[..n]);
            for i in 0..n {
                let pa = ra.map_or(Pte::NONE, |r| r[i]);
                if !pa.present() {
                    return Err(VmError::NotMapped(va.add_pages(i as u64)));
                }
                let pb = rb.map_or(Pte::NONE, |r| r[i]);
                if !pb.present() {
                    return Err(VmError::NotMapped(vb.add_pages(i as u64)));
                }
                f(pa.raw(), pb.raw());
            }
            done += n as u64;
        }
        Ok(())
    }

    /// Exchange the PTEs of the `pages`-page ranges at `a` and `b`, page
    /// `i` with page `i` (Algorithm 1, line 16, for a whole request). Every
    /// page of both ranges must be present; on error nothing has changed
    /// and the error is [`PageTable::visit_pte_pairs`]'s. The ranges must
    /// not overlap.
    ///
    /// Each run (split at either side's leaf-table boundary, and into
    /// pieces of at most `SWAP_CHUNK` pages) copies `a`'s entries into a
    /// stack buffer, swaps them with `b`'s, and writes `b`'s old entries
    /// back over `a`'s: three walks per run, not six per page. Present
    /// entries trade places, so the mapped count stays as it is.
    pub fn swap_pte_ranges(&mut self, a: VirtAddr, b: VirtAddr, pages: u64) -> Result<(), VmError> {
        debug_assert!(
            a == b || a.get().abs_diff(b.get()) >= pages * crate::addr::PAGE_SIZE,
            "swap_pte_ranges: overlapping ranges {a:?}/{b:?} of {pages} pages"
        );
        self.visit_pte_pairs(a, b, pages, |_, _| {})?;
        let mut buf = [Pte::NONE; SWAP_CHUNK];
        let mut done = 0;
        while done < pages {
            let (va, vb) = (a.add_pages(done), b.add_pages(done));
            let n = run_len(va, vb, pages - done).min(SWAP_CHUNK);
            let buf = &mut buf[..n];
            buf.copy_from_slice(&self.leaf_run(va).expect("validated above")[..n]);
            self.leaf_run_mut(vb)[..n].swap_with_slice(buf);
            self.leaf_run_mut(va)[..n].copy_from_slice(buf);
            done += n as u64;
        }
        Ok(())
    }

    /// The mutable form of [`PageTable::leaf_run`], for a `va` whose leaf
    /// table is known to exist.
    fn leaf_run_mut(&mut self, va: VirtAddr) -> &mut [Pte] {
        let table = self
            .pte_table_mut(va, false)
            .expect("swap_pte_ranges validates both ranges before writing");
        &mut table.entries[va.pte_index()..]
    }

    /// Exchange the PTEs of two mapped pages: [`PageTable::swap_pte_ranges`]
    /// for one page. Both must be present.
    ///
    /// ```
    /// use svagc_vmem::{FrameId, PageTable, Pte, PteFlags, VirtAddr};
    ///
    /// let mut pt = PageTable::new();
    /// let (a, b) = (VirtAddr(0x1000), VirtAddr(0x2000));
    /// pt.map(a, Pte::map(FrameId(7), PteFlags::WRITABLE)).unwrap();
    /// pt.map(b, Pte::map(FrameId(9), PteFlags::WRITABLE)).unwrap();
    /// pt.swap_ptes(a, b).unwrap();
    /// assert_eq!(pt.pte(a).unwrap().frame(), FrameId(9));
    /// assert_eq!(pt.pte(b).unwrap().frame(), FrameId(7));
    /// ```
    pub fn swap_ptes(&mut self, va1: VirtAddr, va2: VirtAddr) -> Result<(), VmError> {
        self.swap_pte_ranges(va1, va2, 1)
    }
}

/// Entries [`PageTable::swap_pte_ranges`] moves through its stack buffer
/// at a time: a small buffer is cheap to set up on every call, and one run
/// of this many pages already amortizes its three walks.
const SWAP_CHUNK: usize = 64;

/// Pages from `a` and `b` (at most `left`) before either crosses into the
/// next leaf table.
#[inline]
fn run_len(a: VirtAddr, b: VirtAddr, left: u64) -> usize {
    let room = ENTRIES_PER_TABLE - a.pte_index().max(b.pte_index());
    room.min(usize::try_from(left).unwrap_or(usize::MAX))
}

/// The PMD walk cache of Fig. 7: consecutive pages usually share a PTE
/// table, so the PUD/PMD prefix lookups (steps "1" in the figure) can be
/// skipped, leaving only the PTE-table index (step "2").
///
/// Functionally the walk result is identical; the cache changes only how
/// many table levels are *charged*, which is what the walker reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct PmdCache {
    last_prefix: Option<u64>,
    hits: u64,
    misses: u64,
}

impl PmdCache {
    /// A cold cache.
    pub fn new() -> PmdCache {
        PmdCache::default()
    }

    /// Record a walk to `va`; returns how many table levels it touches
    /// (4 cold / different PTE table, 1 on a cache hit).
    #[inline]
    pub fn walk_levels(&mut self, va: VirtAddr) -> u8 {
        let prefix = va.pmd_prefix();
        if self.last_prefix == Some(prefix) {
            self.hits += 1;
            WALK_LEVELS_CACHED
        } else {
            self.last_prefix = Some(prefix);
            self.misses += 1;
            WALK_LEVELS_FULL
        }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::FrameId;
    use crate::pte::PteFlags;

    fn va(x: u64) -> VirtAddr {
        VirtAddr(x)
    }

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        let a = va(0x4000_0000);
        pt.map(a, Pte::map(FrameId(3), PteFlags::WRITABLE)).unwrap();
        assert_eq!(pt.translate(a + 16).unwrap(), PhysAddr(3 * 4096 + 16));
        assert_eq!(pt.mapped_pages(), 1);
        let old = pt.unmap(a).unwrap();
        assert_eq!(old.frame(), FrameId(3));
        assert!(pt.translate(a).is_err());
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = PageTable::new();
        let a = va(0x1000);
        pt.map(a, Pte::map(FrameId(1), PteFlags::WRITABLE)).unwrap();
        assert_eq!(
            pt.map(a, Pte::map(FrameId(2), PteFlags::WRITABLE)),
            Err(VmError::AlreadyMapped(a))
        );
    }

    #[test]
    fn unmap_missing_rejected() {
        let mut pt = PageTable::new();
        assert_eq!(pt.unmap(va(0x1000)), Err(VmError::NotMapped(va(0x1000))));
    }

    #[test]
    fn table_allocation_is_lazy_and_counted() {
        let mut pt = PageTable::new();
        assert_eq!(pt.tables_allocated(), 0);
        pt.map(va(0x1000), Pte::map(FrameId(1), PteFlags::WRITABLE))
            .unwrap();
        // One PUD + one PMD + one PTE table.
        assert_eq!(pt.tables_allocated(), 3);
        // Same 2 MiB region: no new tables.
        pt.map(va(0x2000), Pte::map(FrameId(2), PteFlags::WRITABLE))
            .unwrap();
        assert_eq!(pt.tables_allocated(), 3);
        // Different PMD entry (next 2 MiB): one new PTE table.
        pt.map(va(0x20_0000), Pte::map(FrameId(3), PteFlags::WRITABLE))
            .unwrap();
        assert_eq!(pt.tables_allocated(), 4);
    }

    #[test]
    fn swap_ptes_exchanges_frames() {
        let mut pt = PageTable::new();
        let a = va(0x1000);
        let b = va(0x8000_0000); // different PUD subtree
        pt.map(a, Pte::map(FrameId(10), PteFlags::WRITABLE)).unwrap();
        pt.map(b, Pte::map(FrameId(20), PteFlags::WRITABLE)).unwrap();
        pt.swap_ptes(a, b).unwrap();
        assert_eq!(pt.pte(a).unwrap().frame(), FrameId(20));
        assert_eq!(pt.pte(b).unwrap().frame(), FrameId(10));
        assert_eq!(pt.mapped_pages(), 2);
    }

    /// Map `pages` pages at `base` to frames `first`, `first + 1`, ….
    fn map_run(pt: &mut PageTable, base: VirtAddr, pages: u64, first: u32) {
        for i in 0..pages {
            let pte = Pte::map(FrameId(first + i as u32), PteFlags::WRITABLE);
            pt.map(base.add_pages(i), pte).unwrap();
        }
    }

    fn frames(pt: &PageTable, base: VirtAddr, pages: u64) -> Vec<Option<u32>> {
        (0..pages)
            .map(|i| pt.pte(base.add_pages(i)).filter(|p| p.present()).map(|p| p.frame().0))
            .collect()
    }

    #[test]
    fn leaf_run_ends_at_the_table_boundary() {
        let mut pt = PageTable::new();
        let base = va(0x4000_0000);
        map_run(&mut pt, base, 600, 1);
        assert_eq!(pt.leaf_run(base).unwrap().len(), 512);
        assert_eq!(pt.leaf_run(base.add_pages(500)).unwrap().len(), 12);
        assert_eq!(pt.leaf_run(base.add_pages(512)).unwrap().len(), 512);
        assert_eq!(pt.leaf_run(base.add_pages(511)).unwrap()[0].frame(), FrameId(512));
        assert!(pt.leaf_run(va(0x8000_0000)).is_none(), "no table, no run");
    }

    #[test]
    fn swap_pte_ranges_crosses_leaf_tables_on_either_side() {
        // a crosses its table boundary after 12 pages, b after 300.
        let mut pt = PageTable::new();
        let a = va(0x4000_0000).add_pages(500);
        let b = va(0x8000_0000).add_pages(212);
        map_run(&mut pt, a, 700, 1000);
        map_run(&mut pt, b, 700, 5000);
        pt.swap_pte_ranges(a, b, 700).unwrap();
        let want_a: Vec<_> = (5000..5700).map(Some).collect();
        let want_b: Vec<_> = (1000..1700).map(Some).collect();
        assert_eq!(frames(&pt, a, 700), want_a);
        assert_eq!(frames(&pt, b, 700), want_b);
        assert_eq!(pt.mapped_pages(), 1400);
    }

    #[test]
    fn swap_pte_ranges_within_one_leaf_table() {
        let mut pt = PageTable::new();
        let base = va(0x4000_0000);
        map_run(&mut pt, base, 512, 0);
        pt.swap_pte_ranges(base.add_pages(300), base.add_pages(10), 40)
            .unwrap();
        let got = frames(&pt, base, 512);
        for (i, f) in got.into_iter().enumerate() {
            let want = match i {
                10..=49 => i + 290,
                300..=339 => i - 290,
                _ => i,
            };
            assert_eq!(f, Some(want as u32), "page {i}");
        }
    }

    #[test]
    fn swap_pte_ranges_reports_the_first_missing_page_and_changes_nothing() {
        let mut pt = PageTable::new();
        let a = va(0x4000_0000).add_pages(508);
        let b = va(0x8000_0000);
        map_run(&mut pt, a, 8, 100);
        map_run(&mut pt, b, 8, 200);
        pt.unmap(b.add_pages(6)).unwrap();
        pt.unmap(a.add_pages(6)).unwrap();
        pt.unmap(b.add_pages(5)).unwrap();
        // Page 5 of b fails before page 6 of a; a_6 would fail before b_6.
        assert_eq!(
            pt.swap_pte_ranges(a, b, 8),
            Err(VmError::NotMapped(b.add_pages(5)))
        );
        assert_eq!(
            pt.swap_pte_ranges(a.add_pages(6), b.add_pages(6), 2),
            Err(VmError::NotMapped(a.add_pages(6)))
        );
        let mut seen = Vec::new();
        assert_eq!(
            pt.visit_pte_pairs(a, b, 8, |x, y| seen.push((x, y))),
            Err(VmError::NotMapped(b.add_pages(5)))
        );
        assert_eq!(seen.len(), 5, "pairs before the first missing page");
        let mut want_a: Vec<_> = (100..108).map(Some).collect();
        want_a[6] = None;
        let mut want_b: Vec<_> = (200..208).map(Some).collect();
        want_b[5] = None;
        want_b[6] = None;
        assert_eq!(frames(&pt, a, 8), want_a);
        assert_eq!(frames(&pt, b, 8), want_b);
        // A missing leaf table on either side is a missing page too.
        let far = va(0xC000_0000);
        assert_eq!(pt.swap_pte_ranges(a, far, 2), Err(VmError::NotMapped(far)));
        assert_eq!(pt.swap_pte_ranges(far, a, 2), Err(VmError::NotMapped(far)));
    }

    #[test]
    fn swap_requires_both_present() {
        let mut pt = PageTable::new();
        pt.map(va(0x1000), Pte::map(FrameId(1), PteFlags::WRITABLE))
            .unwrap();
        assert!(pt.swap_ptes(va(0x1000), va(0x2000)).is_err());
        // Failed swap must not corrupt the first page's mapping.
        assert_eq!(pt.pte(va(0x1000)).unwrap().frame(), FrameId(1));
    }

    #[test]
    fn raw_rw_tracks_mapped_count() {
        let mut pt = PageTable::new();
        let a = va(0x3000);
        pt.map(a, Pte::map(FrameId(5), PteFlags::WRITABLE)).unwrap();
        pt.write_pte_raw(a, Pte::NONE.raw()).unwrap();
        assert_eq!(pt.mapped_pages(), 0);
        pt.write_pte_raw(a, Pte::map(FrameId(6), PteFlags::WRITABLE).raw())
            .unwrap();
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn pmd_cache_hits_within_2mib_run() {
        let mut c = PmdCache::new();
        let base = va(0x4000_0000);
        assert_eq!(c.walk_levels(base), WALK_LEVELS_FULL);
        for i in 1..512 {
            assert_eq!(c.walk_levels(base.add_pages(i)), WALK_LEVELS_CACHED);
        }
        // Page 512 is in the next PTE table.
        assert_eq!(c.walk_levels(base.add_pages(512)), WALK_LEVELS_FULL);
        let (h, m) = c.stats();
        assert_eq!((h, m), (511, 2));
    }

    #[test]
    fn pmd_cache_alternating_tables_always_misses() {
        // Swapping between two ranges in different PTE tables defeats a
        // single-slot cache — matching kernel behaviour where src/dst
        // alternate (the kernel caches per-operand; our kernel layer uses
        // one PmdCache per operand for exactly this reason).
        let mut c = PmdCache::new();
        let a = va(0x4000_0000);
        let b = va(0x8000_0000);
        for i in 0..4 {
            assert_eq!(c.walk_levels(a.add_pages(i)), WALK_LEVELS_FULL);
            assert_eq!(c.walk_levels(b.add_pages(i)), WALK_LEVELS_FULL);
        }
    }
}
