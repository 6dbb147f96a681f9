//! The ParallelGC and Shenandoah baselines: the `GcConfig::parallelgc`
//! and `GcConfig::shenandoah` presets of the LISP2 collector, built the
//! way the workload driver builds them.

use svagc_core::{Collector, ConcurrentCollector, GcConfig, Lisp2Collector, INIT_MARK_ROOT_COST};
use svagc_heap::{Heap, HeapConfig, ObjShape, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::MachineConfig;
use svagc_vmem::Asid;

// ---- ParallelGC ----

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
    let mut gc = Lisp2Collector::new(GcConfig::parallelgc(8));
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

// ---- Shenandoah ----

/// The collector the driver builds for Shenandoah.
fn shenandoah(cfg: GcConfig) -> ConcurrentCollector {
    ConcurrentCollector::new(Lisp2Collector::new(cfg))
}

/// 200 large objects on an unaligned heap, every other one rooted.
fn populated_heap(k: &mut Kernel) -> (Heap, RootSet) {
    let mut h = Heap::new(
        k,
        Asid(1),
        HeapConfig::new(32 << 20).with_alignment(false),
    )
    .unwrap();
    let mut roots = RootSet::new();
    let big = ObjShape::data_bytes(64 << 10);
    for i in 0..200u64 {
        let (obj, _) = h.alloc(k, CoreId(0), big).unwrap();
        if i % 2 == 0 {
            roots.push(obj);
        }
    }
    (h, roots)
}

#[test]
fn serial_copy_makes_shenandoah_slower_than_parallelgc() {
    let mut k1 = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
    let (mut h1, mut r1) = populated_heap(&mut k1);
    let s_shen = shenandoah(GcConfig::shenandoah(8))
        .collect(&mut k1, &mut h1, &mut r1)
        .unwrap();

    let mut k2 = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
    let (mut h2, mut r2) = populated_heap(&mut k2);
    let mut pgc = Lisp2Collector::new(GcConfig::parallelgc(8));
    let s_pgc = pgc.collect(&mut k2, &mut h2, &mut r2).unwrap();

    assert!(
        s_shen.phases.compact.get() > s_pgc.phases.compact.get() * 3,
        "serial copy {} should dwarf 8-way copy {}",
        s_shen.phases.compact,
        s_pgc.phases.compact
    );
    assert!(s_shen.pause().get() > s_pgc.pause().get());
}

#[test]
fn concurrent_mark_shrinks_pause_but_not_work() {
    let mut k1 = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
    let (mut h1, mut r1) = populated_heap(&mut k1);
    let stw = Lisp2Collector::new(GcConfig::shenandoah(8))
        .collect(&mut k1, &mut h1, &mut r1)
        .unwrap();

    let mut k2 = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
    let (mut h2, mut r2) = populated_heap(&mut k2);
    let mut shen = shenandoah(GcConfig::shenandoah(8));
    let stats = shen.collect(&mut k2, &mut h2, &mut r2).unwrap();

    assert!(stats.concurrent_mark.get() > 0, "the trace runs off-pause");
    assert!(
        stats.interference >= stats.concurrent_mark,
        "concurrent mark is charged to mutators"
    );
    // Nothing was overwritten, so the pause keeps only the initial
    // mark over the 100 root slots.
    assert_eq!(stats.satb_logged, 0);
    assert_eq!(stats.phases.mark, INIT_MARK_ROOT_COST * 100);
    assert!(
        stats.phases.mark + stats.concurrent_mark >= stw.phases.mark,
        "work is moved, not deleted"
    );
    assert_eq!(shen.log().count(), 1);
}

#[test]
fn swapva_accelerates_concurrent_evacuation() {
    // Table I row 3: SwapVA (sans aggregation/overlap) still pays off
    // in a concurrent collector's copy phase — the paper's
    // orthogonality claim. Each copy is independent, so requests are
    // not aggregated, and relocation targets fresh regions, so the
    // overlap machinery is never engaged.
    let accelerated = GcConfig::svagc(8)
        .with_aggregation(None)
        .with_overlap(false)
        .with_compact_threads(Some(1));
    let big = ObjShape::data_bytes(256 << 10);
    let run = |cfg: GcConfig| {
        let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
        let mut h = Heap::new(&mut k, Asid(1), HeapConfig::new(32 << 20)).unwrap();
        let mut r = RootSet::new();
        for i in 0..100u64 {
            let (obj, _) = h.alloc(&mut k, CoreId(0), big).unwrap();
            if i % 2 == 0 {
                r.push(obj);
            }
        }
        let stats = shenandoah(cfg).collect(&mut k, &mut h, &mut r).unwrap();
        (stats, k.perf.syscalls)
    };
    let (s_plain, _) = run(GcConfig::shenandoah(8));
    let (s_accel, syscalls) = run(accelerated);
    assert!(s_accel.swapped_objects > 0, "evacuation used SwapVA");
    assert!(
        s_accel.phases.compact.get() * 2 < s_plain.phases.compact.get(),
        "SwapVA evacuation {} should be <50% of memmove {}",
        s_accel.phases.compact,
        s_plain.phases.compact
    );
    // No aggregation: one syscall per swapped object.
    assert_eq!(syscalls, s_accel.swapped_objects);
}

#[test]
fn shenandoah_preserves_data() {
    let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
    let mut h = Heap::new(
        &mut k,
        Asid(1),
        HeapConfig::new(8 << 20).with_alignment(false),
    )
    .unwrap();
    let mut roots = RootSet::new();
    let shape = ObjShape::data(128);
    let mut kept = Vec::new();
    for i in 0..100u64 {
        let (obj, _) = h.alloc(&mut k, CoreId(0), shape).unwrap();
        for w in 0..128u64 {
            h.write_data(&mut k, CoreId(0), obj, 0, w, i * 1000 + w).unwrap();
        }
        if i % 3 == 0 {
            kept.push((roots.push(obj), i * 1000));
        }
    }
    shenandoah(GcConfig::shenandoah(4)).collect(&mut k, &mut h, &mut roots).unwrap();
    for (rid, seed) in kept {
        let obj = roots.get(rid);
        for w in 0..128u64 {
            assert_eq!(
                h.read_data(&mut k, CoreId(0), obj, 0, w).unwrap().0,
                seed + w
            );
        }
    }
}
