//! A Large-Object-Space (LOS) heap organization — the design the paper's
//! introduction argues against.
//!
//! Classic collectors avoid copying large objects by allocating them in a
//! separate *non-moving* space managed by a free list (citing Hicks et
//! al., ISMM'98 and Immix). The paper's critique: "the allocation of large
//! objects in non-copying LOSs to avoid copying costs results in the
//! fragmentation of these allocations, as well as increased maintenance
//! costs and eventual compactions". SwapVA instead lets large objects live
//! in the ordinary heap and move for free.
//!
//! This module implements the LOS design honestly so the critique can be
//! measured: first-fit free-list allocation with coalescing, mark-sweep of
//! the LOS during full GC (no movement), and a fallback **LOS compaction**
//! when external fragmentation makes an allocation fail despite sufficient
//! total free space.

use std::collections::HashMap;
use svagc_core::{GcConfig, GcCycleStats, Lisp2Collector, WorkerPool, GcError};
use svagc_heap::{Heap, HeapConfig, HeapError, MarkBitmap, ObjHeader, ObjRef, ObjShape, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::Cycles;
use svagc_vmem::{Asid, VirtAddr, PAGE_SIZE};

/// LOS statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct LosStats {
    /// Large objects allocated in the LOS.
    pub los_allocations: u64,
    /// Large objects swept (freed).
    pub los_freed: u64,
    /// Emergency LOS compactions (the "eventual compactions").
    pub los_compactions: u64,
    /// Allocation attempts that failed on fragmentation (total free would
    /// have sufficed but no hole fit).
    pub frag_failures: u64,
    /// Cycles spent compacting the LOS.
    pub compaction_cycles: Cycles,
}

/// A heap split into a compacted small-object space and a non-moving LOS.
#[derive(Debug)]
pub struct LosHeap {
    /// The ordinary (small-object) space; full GCs compact it with LISP2.
    pub small: Heap,
    los_base: VirtAddr,
    los_end: VirtAddr,
    /// Sorted, coalesced holes: `(base, bytes)`.
    holes: Vec<(VirtAddr, u64)>,
    /// Live + not-yet-swept LOS objects, address-sorted.
    los_objects: Vec<ObjRef>,
    /// Byte size threshold for LOS placement (the same 10-page boundary
    /// SVAGC uses for SwapVA, for a like-for-like comparison).
    large_bytes: u64,
    /// Statistics.
    pub stats: LosStats,
}

impl LosHeap {
    /// Build a heap with `small_bytes` of compacted space and `los_bytes`
    /// of large-object space.
    pub fn new(
        kernel: &mut Kernel,
        asid: Asid,
        small_bytes: u64,
        los_bytes: u64,
        threshold_pages: u64,
    ) -> Result<LosHeap, HeapError> {
        // The small space never holds large objects, so alignment off.
        let mut small = Heap::new(
            kernel,
            asid,
            HeapConfig::new(small_bytes)
                .with_threshold(threshold_pages)
                .with_alignment(false),
        )?;
        let los_pages = los_bytes.div_ceil(PAGE_SIZE);
        let los_base = small.map_region(kernel, los_pages)?;
        let los_end = los_base.add_pages(los_pages);
        Ok(LosHeap {
            small,
            los_base,
            los_end,
            holes: vec![(los_base, los_pages * PAGE_SIZE)],
            los_objects: Vec::new(),
            large_bytes: threshold_pages * PAGE_SIZE,
            stats: LosStats::default(),
        })
    }

    /// Does `va` point into the LOS?
    pub fn in_los(&self, va: VirtAddr) -> bool {
        va >= self.los_base && va < self.los_end
    }

    /// Is `shape` LOS-bound?
    pub fn is_large(&self, shape: ObjShape) -> bool {
        shape.size_bytes() >= self.large_bytes
    }

    /// Total free bytes in the LOS.
    pub fn los_free(&self) -> u64 {
        self.holes.iter().map(|&(_, b)| b).sum()
    }

    /// Largest hole (what a first-fit allocation can actually use).
    pub fn largest_hole(&self) -> u64 {
        self.holes.iter().map(|&(_, b)| b).max().unwrap_or(0)
    }

    /// External fragmentation: fraction of free space unusable for an
    /// allocation of the largest-hole size + 1.
    pub fn fragmentation(&self) -> f64 {
        let free = self.los_free();
        if free == 0 {
            0.0
        } else {
            1.0 - self.largest_hole() as f64 / free as f64
        }
    }

    /// Allocate `shape`: LOS first-fit for large objects, the ordinary
    /// bump space otherwise. `NeedGc` means run a full collection; if the
    /// failure is fragmentation (not occupancy), the collector will
    /// compact the LOS.
    pub fn alloc(
        &mut self,
        kernel: &mut Kernel,
        core: CoreId,
        shape: ObjShape,
    ) -> Result<(ObjRef, Cycles), HeapError> {
        if !self.is_large(shape) {
            return self.small.alloc(kernel, core, shape);
        }
        let size = shape.size_bytes();
        // First fit.
        let Some(idx) = self.holes.iter().position(|&(_, b)| b >= size) else {
            if self.los_free() >= size {
                self.stats.frag_failures += 1;
            }
            return Err(HeapError::NeedGc { requested: size });
        };
        let (base, hole) = self.holes[idx];
        if hole == size {
            self.holes.remove(idx);
        } else {
            self.holes[idx] = (base + size, hole - size);
        }
        let obj = ObjRef(base);
        let header = shape.header();
        let mut t = kernel.write_word(self.small.space(), core, obj.header_va(), header.encode())?;
        t += kernel.write_word(self.small.space(), core, obj.forwarding_va(), 0)?;
        t += Cycles(40 + 12 * idx as u64); // free-list walk
        let pos = self.los_objects.partition_point(|o| *o < obj);
        self.los_objects.insert(pos, obj);
        self.stats.los_allocations += 1;
        Ok((obj, t))
    }

    /// Return `[base, base+bytes)` to the free list, coalescing neighbours.
    fn free_range(&mut self, base: VirtAddr, bytes: u64) {
        let pos = self.holes.partition_point(|&(b, _)| b < base);
        self.holes.insert(pos, (base, bytes));
        // Coalesce with successor then predecessor.
        if pos + 1 < self.holes.len() {
            let (nb, nsz) = self.holes[pos + 1];
            if base + bytes == nb {
                self.holes[pos].1 += nsz;
                self.holes.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (pb, psz) = self.holes[pos - 1];
            if pb + psz == base {
                self.holes[pos - 1].1 += self.holes[pos].1;
                self.holes.remove(pos);
            }
        }
    }

    /// LOS objects, address-sorted.
    pub fn los_objects(&self) -> &[ObjRef] {
        &self.los_objects
    }
}

/// Full collector for the LOS organization: LISP2 on the small space,
/// mark-sweep (non-moving) on the LOS, emergency LOS compaction on
/// fragmentation failure.
#[derive(Debug)]
pub struct LosCollector {
    small_gc: Lisp2Collector,
    /// Per-cycle stats of the small-space collections.
    pub log: Vec<GcCycleStats>,
}

impl LosCollector {
    /// LOS collector with `gc_threads` workers (memmove small-space
    /// compaction, as in the classic designs the paper cites).
    pub fn new(gc_threads: usize) -> LosCollector {
        LosCollector {
            small_gc: Lisp2Collector::new(GcConfig::lisp2_memmove(gc_threads)),
            log: Vec::new(),
        }
    }

    /// Trace the full graph (both spaces) from the roots; returns the LOS
    /// live bitmap and, for each live LOS object, its header.
    #[allow(clippy::type_complexity)]
    fn trace(
        &self,
        kernel: &mut Kernel,
        heap: &LosHeap,
        roots: &RootSet,
    ) -> Result<(MarkBitmap, MarkBitmap, Vec<(ObjRef, ObjHeader)>), HeapError> {
        let core = CoreId(0);
        let mut small_marks =
            MarkBitmap::new(heap.small.base(), heap.small.extent_words());
        let mut los_marks = MarkBitmap::new(
            heap.los_base,
            (heap.los_end - heap.los_base) / 8,
        );
        let mut live_los = Vec::new();
        let mut stack: Vec<ObjRef> = Vec::new();
        let mark = |obj: ObjRef,
                        small_marks: &mut MarkBitmap,
                        los_marks: &mut MarkBitmap|
         -> bool {
            if heap.small.contains(obj.0) {
                small_marks.mark(obj.header_va())
            } else if heap.in_los(obj.0) {
                los_marks.mark(obj.header_va())
            } else {
                false
            }
        };
        for r in roots.iter_live() {
            if mark(r, &mut small_marks, &mut los_marks) {
                stack.push(r);
            }
        }
        while let Some(obj) = stack.pop() {
            let (hdr, _) = heap.small.read_header(kernel, core, obj)?;
            if heap.in_los(obj.0) {
                live_los.push((obj, hdr));
            }
            for i in 0..hdr.num_refs as u64 {
                let (tgt, _) = heap.small.read_ref(kernel, core, obj, i)?;
                if !tgt.is_null() && mark(tgt, &mut small_marks, &mut los_marks) {
                    stack.push(tgt);
                }
            }
        }
        live_los.sort_by_key(|(o, _)| *o);
        Ok((small_marks, los_marks, live_los))
    }

    /// One full collection: sweep the LOS, compact the small space.
    pub fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut LosHeap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        let core = CoreId(0);
        let (_, los_marks, live_los) = self.trace(kernel, heap, roots)?;

        // ---- Sweep the LOS (non-moving) -------------------------------
        let mut sweep_cycles = Cycles::ZERO;
        let mut survivors = Vec::new();
        for &obj in &heap.los_objects.clone() {
            let (hdr, t) = heap.small.read_header(kernel, core, obj)?;
            sweep_cycles += t;
            if los_marks.is_marked(obj.header_va()) {
                survivors.push(obj);
            } else {
                heap.free_range(obj.0, hdr.size_bytes());
                heap.stats.los_freed += 1;
            }
        }
        heap.los_objects = survivors;

        // ---- Pin LOS-held references into the small space --------------
        let mut temp: Vec<(ObjRef, u64, svagc_heap::RootId)> = Vec::new();
        for &(obj, hdr) in &live_los {
            for i in 0..hdr.num_refs as u64 {
                let (tgt, _) = heap.small.read_ref(kernel, core, obj, i)?;
                if !tgt.is_null() && heap.small.contains(tgt.0) {
                    temp.push((obj, i, roots.push(tgt)));
                }
            }
        }

        // ---- Compact the small space (LISP2, refs to LOS untouched) ----
        let mut stats = self.small_gc.collect(kernel, &mut heap.small, roots)?;
        stats.phases.shootdown += sweep_cycles; // account the sweep

        for (holder, field, rid) in temp {
            let updated = roots.get(rid);
            heap.small.write_ref(kernel, core, holder, field, updated)?;
            roots.set(rid, ObjRef::NULL);
        }
        self.log.push(stats);
        Ok(stats)
    }

    /// Emergency LOS compaction ("eventual compactions"): slide every live
    /// LOS object to the bottom of the space by memmove, rewriting all
    /// references to moved objects across both spaces and the roots.
    pub fn compact_los(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut LosHeap,
        roots: &mut RootSet,
    ) -> Result<Cycles, HeapError> {
        let core = CoreId(0);
        let mut pool = WorkerPool::new(1); // classic LOS compaction: serial
        let (_, _, live_los) = self.trace(kernel, heap, roots)?;

        // Slide down, building a forwarding map.
        let mut cursor = heap.los_base;
        let mut forwarding: HashMap<u64, ObjRef> = HashMap::new();
        for &(obj, hdr) in &live_los {
            let dst = ObjRef(cursor);
            cursor = cursor + hdr.size_bytes();
            if dst != obj {
                let t = kernel.memmove(heap.small.space(), core, obj.0, dst.0, hdr.size_bytes())?;
                pool.dispatch_to(0, t);
            }
            forwarding.insert(obj.0.get(), dst);
        }
        // Rebuild the free list: one hole from the cursor to the end.
        heap.holes.clear();
        if cursor < heap.los_end {
            heap.holes.push((cursor, heap.los_end - cursor));
        }
        heap.los_objects = live_los
            .iter()
            .map(|&(o, _)| forwarding[&o.0.get()])
            .collect();
        heap.los_objects.sort();

        // Rewrite references to moved LOS objects: roots...
        for slot in roots.slots_mut() {
            if let Some(&dst) = forwarding.get(&slot.0.get()) {
                *slot = dst;
            }
        }
        // ...and fields of every small object, then of the LOS objects
        // themselves (at their new addresses).
        let holders: Vec<ObjRef> = heap
            .small
            .objects_sorted()
            .iter()
            .chain(&heap.los_objects)
            .copied()
            .collect();
        for obj in holders {
            let (hdr, t) = heap.small.read_header(kernel, core, obj)?;
            pool.dispatch_to(0, t);
            for i in 0..hdr.num_refs as u64 {
                let (tgt, t1) = heap.small.read_ref(kernel, core, obj, i)?;
                pool.dispatch_to(0, t1);
                if let Some(&dst) = forwarding.get(&tgt.0.get()) {
                    let t2 = heap.small.write_ref(kernel, core, obj, i, dst)?;
                    pool.dispatch_to(0, t2);
                }
            }
        }
        heap.stats.los_compactions += 1;
        let pause = pool.makespan();
        heap.stats.compaction_cycles += pause;
        Ok(pause)
    }

    /// Allocation front-end with the full LOS policy: try, collect, retry,
    /// compact the LOS on fragmentation failure, retry again.
    pub fn alloc_with_gc(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut LosHeap,
        roots: &mut RootSet,
        shape: ObjShape,
    ) -> Result<ObjRef, GcError> {
        match heap.alloc(kernel, CoreId(0), shape) {
            Ok((obj, _)) => return Ok(obj),
            Err(HeapError::NeedGc { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        self.collect(kernel, heap, roots)?;
        match heap.alloc(kernel, CoreId(0), shape) {
            Ok((obj, _)) => return Ok(obj),
            Err(HeapError::NeedGc { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        // Still failing: if it is fragmentation, compact the LOS.
        if heap.is_large(shape) && heap.los_free() >= shape.size_bytes() {
            self.compact_los(kernel, heap, roots)?;
            return Ok(heap.alloc(kernel, CoreId(0), shape)?.0);
        }
        Err(GcError::Heap(HeapError::NeedGc {
            requested: shape.size_bytes(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_metrics::MachineConfig;

    const CORE: CoreId = CoreId(0);

    fn setup(small_mb: u64, los_mb: u64) -> (Kernel, LosHeap, RootSet) {
        let mut k = Kernel::with_bytes(
            MachineConfig::xeon_gold_6130(),
            (small_mb + los_mb + 8) << 20,
        );
        let h = LosHeap::new(&mut k, Asid(1), small_mb << 20, los_mb << 20, 10).unwrap();
        (k, h, RootSet::new())
    }

    #[test]
    fn large_goes_to_los_small_to_heap() {
        let (mut k, mut h, _) = setup(8, 8);
        let (small, _) = h.alloc(&mut k, CORE, ObjShape::data(10)).unwrap();
        let (big, _) = h.alloc(&mut k, CORE, ObjShape::data_bytes(64 << 10)).unwrap();
        assert!(h.small.contains(small.0));
        assert!(h.in_los(big.0));
        assert_eq!(h.stats.los_allocations, 1);
    }

    #[test]
    fn free_list_coalesces() {
        let (mut k, mut h, _) = setup(4, 8);
        let shape = ObjShape::data_bytes(64 << 10);
        let objs: Vec<ObjRef> = (0..4).map(|_| h.alloc(&mut k, CORE, shape).unwrap().0).collect();
        let free_before = h.los_free();
        // Free the middle two: they must coalesce into one hole.
        let holes_before = h.holes.len();
        h.free_range(objs[1].0, shape.size_bytes());
        h.free_range(objs[2].0, shape.size_bytes());
        assert_eq!(h.holes.len(), holes_before + 1, "adjacent holes merge");
        assert_eq!(h.los_free(), free_before + 2 * shape.size_bytes());
    }

    #[test]
    fn sweep_frees_dead_large_objects() {
        let (mut k, mut h, mut roots) = setup(8, 8);
        let shape = ObjShape::data_bytes(64 << 10);
        for i in 0..8u64 {
            let (obj, _) = h.alloc(&mut k, CORE, shape).unwrap();
            if i % 2 == 0 {
                roots.push(obj);
            }
        }
        let mut gc = LosCollector::new(4);
        gc.collect(&mut k, &mut h, &mut roots).unwrap();
        assert_eq!(h.stats.los_freed, 4);
        assert_eq!(h.los_objects().len(), 4);
        // Survivors did NOT move (non-moving LOS).
        for r in roots.iter_live() {
            assert!(h.in_los(r.0));
        }
    }

    #[test]
    fn fragmentation_forces_compaction() {
        // Fill the LOS with alternating live/dead 64 KiB objects, sweep,
        // then ask for a 128 KiB object: total free suffices but no hole
        // does -> the collector must compact the LOS.
        let (mut k, mut h, mut roots) = setup(8, 2);
        let shape = ObjShape::data_bytes(64 << 10);
        let mut n = 0u64;
        while let Ok((obj, _)) = h.alloc(&mut k, CORE, shape) {
            if n.is_multiple_of(2) {
                roots.push(obj);
            }
            n += 1;
        }
        let mut gc = LosCollector::new(4);
        gc.collect(&mut k, &mut h, &mut roots).unwrap();
        assert!(h.fragmentation() > 0.4, "checkerboard: {}", h.fragmentation());
        let big = ObjShape::data_bytes(128 << 10);
        assert!(h.los_free() >= big.size_bytes());
        assert!(h.largest_hole() < big.size_bytes());
        let obj = gc.alloc_with_gc(&mut k, &mut h, &mut roots, big).unwrap();
        assert!(h.in_los(obj.0));
        assert_eq!(h.stats.los_compactions, 1);
        assert!(h.stats.frag_failures >= 1);
        assert!(h.fragmentation() < 0.01, "compaction defragments");
    }

    #[test]
    fn los_compaction_preserves_cross_space_graph() {
        let (mut k, mut h, mut roots) = setup(8, 2);
        // Small holder -> LOS object -> small leaf.
        let (holder, _) = h.alloc(&mut k, CORE, ObjShape::with_refs(1, 2)).unwrap();
        roots.push(holder);
        let big_shape = ObjShape::with_refs(1, (64 << 10) / 8);
        // A doomed LOS object first, so the survivor has to slide.
        let (doomed, _) = h.alloc(&mut k, CORE, big_shape).unwrap();
        let _ = doomed;
        let (big, _) = h.alloc(&mut k, CORE, big_shape).unwrap();
        h.small.write_ref(&mut k, CORE, holder, 0, big).unwrap();
        let (leaf, _) = h.alloc(&mut k, CORE, ObjShape::data(4)).unwrap();
        h.small.write_data(&mut k, CORE, leaf, 0, 0, 777).unwrap();
        h.small.write_ref(&mut k, CORE, big, 0, leaf).unwrap();
        h.small
            .write_data(&mut k, CORE, big, 1, 100, 0xB16).unwrap();

        let mut gc = LosCollector::new(2);
        gc.collect(&mut k, &mut h, &mut roots).unwrap(); // sweeps `doomed`
        let before = roots.get(svagc_heap::RootId(0));
        gc.compact_los(&mut k, &mut h, &mut roots).unwrap();
        // The big object slid down; the holder's ref was rewritten.
        let holder_now = roots.get(svagc_heap::RootId(0));
        assert_eq!(holder_now, before, "small objects did not move");
        let (big_now, _) = h.small.read_ref(&mut k, CORE, holder_now, 0).unwrap();
        assert_eq!(big_now.0, {
            let (lb, _) = (h.los_base, 0);
            lb
        }, "survivor slid to the LOS base");
        // Its data and its ref to the small leaf survived.
        let (v, _) = h.small.read_data(&mut k, CORE, big_now, 1, 100).unwrap();
        assert_eq!(v, 0xB16);
        let (leaf_now, _) = h.small.read_ref(&mut k, CORE, big_now, 0).unwrap();
        let (lv, _) = h.small.read_data(&mut k, CORE, leaf_now, 0, 0).unwrap();
        assert_eq!(lv, 777);
    }

    #[test]
    fn small_space_compaction_keeps_los_refs() {
        let (mut k, mut h, mut roots) = setup(8, 4);
        // Small garbage, then a live small object pointing at a LOS object.
        for _ in 0..10 {
            h.alloc(&mut k, CORE, ObjShape::data(100)).unwrap();
        }
        let (holder, _) = h.alloc(&mut k, CORE, ObjShape::with_refs(1, 2)).unwrap();
        roots.push(holder);
        let (big, _) = h.alloc(&mut k, CORE, ObjShape::data_bytes(64 << 10)).unwrap();
        h.small.write_ref(&mut k, CORE, holder, 0, big).unwrap();
        let big_addr = big.0;
        let mut gc = LosCollector::new(2);
        gc.collect(&mut k, &mut h, &mut roots).unwrap();
        // The holder moved (small compaction) but still points at the
        // unmoved LOS object.
        let holder_now = roots.get(svagc_heap::RootId(0));
        let (tgt, _) = h.small.read_ref(&mut k, CORE, holder_now, 0).unwrap();
        assert_eq!(tgt.0, big_addr);
    }
}
