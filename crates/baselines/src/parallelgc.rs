//! A ParallelGC-like baseline: HotSpot's throughput collector.
//!
//! The paper compares against ParallelGC's *Full GC* (Figs. 12/13 measure
//! Full-GC latency explicitly), which in HotSpot is a parallel
//! mark-compact over the whole heap with work-stealing task queues and
//! byte-copy ("memmove") relocation. That is exactly our LISP2 machinery
//! with SwapVA off, so the baseline is a [`GcConfig`] preset rather than a
//! collector of its own:
//!
//! * all four phases parallel with work stealing,
//! * relocation by memmove, no page alignment of large objects (pair this
//!   configuration with a heap built via `HeapConfig::with_alignment(false)`),
//! * no TLB shootdown traffic (PTEs never change).
//!
//! The generational young-collection machinery is intentionally not
//! modeled: the paper's evaluation isolates Full-GC behaviour (its own
//! SVAGC prototype is a full-heap collector too, and the benchmarks are
//! sized to trigger full collections). See DESIGN.md §2.

use svagc_core::GcConfig;

/// ParallelGC with `gc_threads` workers: LISP2 with memmove relocation.
pub fn config(gc_threads: usize) -> GcConfig {
    GcConfig::lisp2_memmove(gc_threads)
        // No PTE updates -> no pinning protocol needed.
        .with_pinned(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_core::Lisp2Collector;
    use svagc_heap::{Heap, HeapConfig, ObjShape, RootSet};
    use svagc_kernel::{CoreId, Kernel};
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    #[test]
    fn full_gc_reclaims_and_never_swaps() {
        let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 32 << 20);
        let mut h = Heap::new(
            &mut k,
            Asid(1),
            HeapConfig::new(16 << 20).with_alignment(false),
        )
        .unwrap();
        let mut roots = RootSet::new();
        let big = ObjShape::data_bytes(64 << 10);
        for i in 0..100u64 {
            let (obj, _) = h.alloc(&mut k, CoreId(0), big).unwrap();
            if i % 4 == 0 {
                roots.push(obj);
            }
        }
        let mut gc = Lisp2Collector::new(config(8));
        let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();
        assert_eq!(stats.live_objects, 25);
        assert_eq!(stats.swapped_objects, 0, "ParallelGC never swaps PTEs");
        assert!(stats.memmove_bytes > 0);
        assert_eq!(k.perf.ipis_sent, 0, "no shootdowns without PTE changes");
    }

    #[test]
    fn unaligned_heap_packs_large_objects_densely() {
        let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 32 << 20);
        let mut h = Heap::new(
            &mut k,
            Asid(1),
            HeapConfig::new(16 << 20).with_alignment(false),
        )
        .unwrap();
        let big = ObjShape::data_bytes(64 << 10);
        h.alloc(&mut k, CoreId(0), ObjShape::data(3)).unwrap();
        let (obj, _) = h.alloc(&mut k, CoreId(0), big).unwrap();
        assert!(!obj.0.is_page_aligned(), "baseline heap does not align");
        assert_eq!(h.stats.align_waste_bytes, 0);
    }
}
