//! Generational heap layout: an eden for young allocation in front of the
//! old-generation bump heap, with a card-table write barrier.
//!
//! This is the substrate for demonstrating Table I's second row: SwapVA
//! (with aggregation and PMD caching, but *no* overlap handling — eden and
//! old space are disjoint) applied to the Minor GC copying phase.

use crate::cards::CardTable;
use crate::heap::{Heap, HeapConfig, HeapError};
use crate::object::{ObjRef, ObjShape, FLAG_LARGE};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::Cycles;
use svagc_vmem::{Asid, VirtAddr, PAGE_SIZE};

/// A two-generation heap: bump eden + the old [`Heap`].
#[derive(Debug)]
pub struct GenHeap {
    /// The old generation (the existing Epsilon-style heap; full GCs run
    /// on it unchanged).
    pub old: Heap,
    eden_base: VirtAddr,
    eden_end: VirtAddr,
    eden_top: VirtAddr,
    eden_objects: Vec<ObjRef>,
    /// Remembered set over the old generation.
    pub cards: CardTable,
    /// Young allocations since construction.
    pub young_allocations: u64,
}

impl GenHeap {
    /// Build a generational heap: `old_bytes` of tenured space plus an
    /// `eden_bytes` nursery, in one address space.
    pub fn new(
        kernel: &mut Kernel,
        asid: Asid,
        old_bytes: u64,
        eden_bytes: u64,
        threshold_pages: u64,
    ) -> Result<GenHeap, HeapError> {
        let mut old = Heap::new(
            kernel,
            asid,
            HeapConfig::new(old_bytes).with_threshold(threshold_pages),
        )?;
        let eden_pages = eden_bytes.div_ceil(PAGE_SIZE);
        let eden_base = old.map_region(kernel, eden_pages)?;
        let cards = CardTable::new(old.base(), old.capacity());
        Ok(GenHeap {
            old,
            eden_base,
            eden_end: eden_base.add_pages(eden_pages),
            eden_top: eden_base,
            eden_objects: Vec::new(),
            cards,
            young_allocations: 0,
        })
    }

    /// Does `va` point into the nursery?
    #[inline]
    pub fn in_young(&self, va: VirtAddr) -> bool {
        va >= self.eden_base && va < self.eden_end
    }

    /// Does `va` point into the old generation?
    #[inline]
    pub fn in_old(&self, va: VirtAddr) -> bool {
        va >= self.old.base() && va < self.old.end()
    }

    /// Allocate a young object in eden (Algorithm 3 alignment applies so
    /// large young objects stay SwapVA-promotable). `NeedGc` means "run a
    /// minor collection".
    pub fn alloc_young(
        &mut self,
        kernel: &mut Kernel,
        core: CoreId,
        shape: ObjShape,
    ) -> Result<(ObjRef, Cycles), HeapError> {
        let size = shape.size_bytes();
        if size > self.eden_end - self.eden_base {
            // Humongous: straight into the old generation.
            return self.old.alloc(kernel, core, shape);
        }
        let aligned = self.old.align_for(shape, self.eden_top);
        let after = self.old.align_for(shape, aligned + size);
        if after.get() > self.eden_end.get() {
            return Err(HeapError::NeedGc { requested: size });
        }
        self.eden_top = after;
        let obj = ObjRef(aligned);
        let large = self.old.is_large(shape);
        let mut header = shape.header();
        if large {
            header.flags |= FLAG_LARGE;
        }
        let mut t = kernel.write_word(self.old.space(), core, obj.header_va(), header.encode())?;
        t += kernel.write_word(self.old.space(), core, obj.forwarding_va(), 0)?;
        self.eden_objects.push(obj);
        self.young_allocations += 1;
        Ok((obj, t))
    }

    /// Reference store with the generational write barrier: stores of a
    /// young target into an old holder dirty the holder's card. All
    /// mutator ref stores on a generational heap must go through here.
    ///
    /// ```
    /// use svagc_heap::{GenHeap, ObjShape};
    /// use svagc_kernel::{CoreId, Kernel};
    /// use svagc_metrics::MachineConfig;
    /// use svagc_vmem::Asid;
    ///
    /// let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
    /// let mut gh = GenHeap::new(&mut k, Asid(1), 8 << 20, 2 << 20, 10).unwrap();
    /// let (old, _) = gh.old.alloc(&mut k, CoreId(0), ObjShape::with_refs(1, 2)).unwrap();
    /// let (young, _) = gh.alloc_young(&mut k, CoreId(0), ObjShape::data(4)).unwrap();
    ///
    /// gh.write_ref_barrier(&mut k, CoreId(0), old, 0, young).unwrap();
    /// assert_eq!(gh.cards.dirty_count(), 1); // remembered-set entry
    /// ```
    pub fn write_ref_barrier(
        &mut self,
        kernel: &mut Kernel,
        core: CoreId,
        obj: ObjRef,
        field: u64,
        target: ObjRef,
    ) -> Result<Cycles, HeapError> {
        let mut t = self.old.write_ref(kernel, core, obj, field, target)?;
        if !target.is_null() && self.in_old(obj.0) && self.in_young(target.0) {
            self.cards.dirty(obj.ref_field_va(field));
            t += Cycles(4); // card mark: one byte store
        }
        Ok(t)
    }

    /// Young objects in allocation (= address) order.
    pub fn young_objects(&self) -> &[ObjRef] {
        &self.eden_objects
    }

    /// Eden occupancy in bytes.
    pub fn eden_used(&self) -> u64 {
        self.eden_top - self.eden_base
    }

    /// Eden bounds.
    pub fn eden_range(&self) -> (VirtAddr, VirtAddr) {
        (self.eden_base, self.eden_end)
    }

    /// Wipe the nursery after a scavenge: every survivor was promoted, so
    /// eden restarts empty and the remembered set is clean (no old→young
    /// references can exist).
    pub fn reset_eden(&mut self) {
        self.eden_top = self.eden_base;
        self.eden_objects.clear();
        self.cards.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_metrics::MachineConfig;

    fn setup() -> (Kernel, GenHeap) {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 32 << 20);
        let gh = GenHeap::new(&mut k, Asid(1), 16 << 20, 2 << 20, 10).unwrap();
        (k, gh)
    }

    #[test]
    fn spaces_are_disjoint() {
        let (_, gh) = setup();
        let (eb, ee) = gh.eden_range();
        assert!(eb >= gh.old.end() || ee <= gh.old.base());
        assert!(gh.in_young(eb));
        assert!(!gh.in_old(eb));
        assert!(gh.in_old(gh.old.base()));
    }

    #[test]
    fn young_allocation_bumps_eden() {
        let (mut k, mut gh) = setup();
        let (a, _) = gh.alloc_young(&mut k, CoreId(0), ObjShape::data(10)).unwrap();
        let (b, _) = gh.alloc_young(&mut k, CoreId(0), ObjShape::data(10)).unwrap();
        assert!(gh.in_young(a.0) && gh.in_young(b.0));
        assert!(b.0 > a.0);
        assert_eq!(gh.young_objects().len(), 2);
        assert_eq!(gh.old.object_count(), 0);
    }

    #[test]
    fn large_young_objects_page_align() {
        let (mut k, mut gh) = setup();
        gh.alloc_young(&mut k, CoreId(0), ObjShape::data(5)).unwrap();
        let big = ObjShape::data_bytes(12 * PAGE_SIZE);
        let (obj, _) = gh.alloc_young(&mut k, CoreId(0), big).unwrap();
        assert!(obj.0.is_page_aligned());
        let (hdr, _) = gh.old.read_header(&mut k, CoreId(0), obj).unwrap();
        assert!(hdr.is_large());
    }

    #[test]
    fn humongous_goes_straight_to_old() {
        let (mut k, mut gh) = setup();
        let huge = ObjShape::data_bytes(4 << 20); // bigger than eden
        let (obj, _) = gh.alloc_young(&mut k, CoreId(0), huge).unwrap();
        assert!(gh.in_old(obj.0));
    }

    #[test]
    fn eden_exhaustion_requests_minor_gc() {
        let (mut k, mut gh) = setup();
        let shape = ObjShape::data_bytes(64 << 10);
        let mut n = 0;
        loop {
            match gh.alloc_young(&mut k, CoreId(0), shape) {
                Ok(_) => n += 1,
                Err(HeapError::NeedGc { .. }) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(n >= 30, "2 MiB eden holds ~32 64 KiB objects, got {n}");
    }

    #[test]
    fn barrier_dirties_only_old_to_young() {
        let (mut k, mut gh) = setup();
        let (old_obj, _) = gh.old.alloc(&mut k, CoreId(0), ObjShape::with_refs(2, 2)).unwrap();
        let (young_obj, _) = gh.alloc_young(&mut k, CoreId(0), ObjShape::with_refs(1, 2)).unwrap();
        // old -> young: dirties.
        gh.write_ref_barrier(&mut k, CoreId(0), old_obj, 0, young_obj).unwrap();
        assert_eq!(gh.cards.dirty_count(), 1);
        assert!(gh.cards.is_dirty(old_obj.ref_field_va(0)));
        // young -> old: no card.
        gh.write_ref_barrier(&mut k, CoreId(0), young_obj, 0, old_obj).unwrap();
        assert_eq!(gh.cards.dirty_count(), 1);
        // old -> old: no card.
        gh.write_ref_barrier(&mut k, CoreId(0), old_obj, 1, old_obj).unwrap();
        assert_eq!(gh.cards.dirty_count(), 1);
        // The stores themselves happened.
        assert_eq!(gh.old.read_ref(&mut k, CoreId(0), old_obj, 0).unwrap().0, young_obj);
    }

    #[test]
    fn reset_eden_clears_everything() {
        let (mut k, mut gh) = setup();
        let (old_obj, _) = gh.old.alloc(&mut k, CoreId(0), ObjShape::with_refs(1, 2)).unwrap();
        let (y, _) = gh.alloc_young(&mut k, CoreId(0), ObjShape::data(4)).unwrap();
        gh.write_ref_barrier(&mut k, CoreId(0), old_obj, 0, y).unwrap();
        gh.reset_eden();
        assert_eq!(gh.eden_used(), 0);
        assert_eq!(gh.young_objects().len(), 0);
        assert_eq!(gh.cards.dirty_count(), 0);
    }
}
