//! End-to-end tests of the generational subsystem: scavenges preserve
//! exactly the live young graph, SwapVA promotion is functionally
//! identical to memmove promotion, and minor + full collections compose.

use svagc_core::{GcConfig, Lisp2Collector, MinorGc};
use svagc_core::GcError;
use svagc_heap::{GenHeap, HeapError, ObjRef, ObjShape, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::MachineConfig;
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);

fn setup(old_mb: u64, eden_mb: u64) -> (Kernel, GenHeap, RootSet) {
    let mut k = Kernel::with_bytes(
        MachineConfig::xeon_gold_6130(),
        (old_mb + eden_mb + 8) << 20,
    );
    let gh = GenHeap::new(&mut k, Asid(1), old_mb << 20, eden_mb << 20, 10).unwrap();
    (k, gh, RootSet::new())
}

fn alloc_young_stamped(
    k: &mut Kernel,
    gh: &mut GenHeap,
    shape: ObjShape,
    seed: u64,
) -> ObjRef {
    let (obj, _) = gh.alloc_young(k, CORE, shape).unwrap();
    gh.old
        .write_data(k, CORE, obj, shape.num_refs as u64, 0, seed)
        .unwrap();
    if shape.data_words > 1 {
        gh.old
            .write_data(
                k,
                CORE,
                obj,
                shape.num_refs as u64,
                shape.data_words as u64 - 1,
                seed + 1,
            )
            .unwrap();
    }
    obj
}

fn check_stamped(k: &mut Kernel, gh: &GenHeap, obj: ObjRef, shape: ObjShape, seed: u64) {
    let (v, _) = gh
        .old
        .read_data(k, CORE, obj, shape.num_refs as u64, 0)
        .unwrap();
    assert_eq!(v, seed);
    if shape.data_words > 1 {
        let (w, _) = gh
            .old
            .read_data(k, CORE, obj, shape.num_refs as u64, shape.data_words as u64 - 1)
            .unwrap();
        assert_eq!(w, seed + 1);
    }
}

#[test]
fn scavenge_promotes_live_and_drops_dead() {
    for cfg in [GcConfig::svagc(4), GcConfig::lisp2_memmove(4)] {
        let (mut k, mut gh, mut roots) = setup(32, 4);
        let shape = ObjShape::data(64);
        let mut kept = Vec::new();
        for i in 0..100u64 {
            let obj = alloc_young_stamped(&mut k, &mut gh, shape, i * 10);
            if i % 4 == 0 {
                kept.push((roots.push(obj), i * 10));
            }
        }
        let mut gc = MinorGc::new(cfg);
        let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
        assert_eq!(stats.promoted_objects, 25);
        assert_eq!(stats.dead_young, 75);
        assert_eq!(gh.eden_used(), 0, "eden wiped");
        assert_eq!(gh.old.object_count(), 25);
        for (rid, seed) in kept {
            let obj = roots.get(rid);
            assert!(gh.in_old(obj.0), "survivor promoted to old gen");
            check_stamped(&mut k, &gh, obj, shape, seed);
        }
    }
}

#[test]
fn large_survivors_promote_by_pte_swap() {
    let (mut k, mut gh, mut roots) = setup(64, 16);
    let big = ObjShape::data_bytes(12 * PAGE_SIZE);
    let mut kept = Vec::new();
    for i in 0..16u64 {
        let obj = alloc_young_stamped(&mut k, &mut gh, big, i * 1000);
        if i % 2 == 0 {
            kept.push((roots.push(obj), i * 1000));
        }
    }
    let copied_before = k.perf.bytes_copied;
    let mut gc = MinorGc::new(GcConfig::svagc(4));
    let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.promoted_objects, 8);
    assert_eq!(stats.swapped_objects, 8, "all large: all swapped");
    assert_eq!(k.perf.bytes_copied, copied_before, "zero-copy promotion");
    for (rid, seed) in kept {
        let obj = roots.get(rid);
        assert!(obj.0.is_page_aligned());
        check_stamped(&mut k, &gh, obj, big, seed);
    }
}

#[test]
fn remembered_set_finds_old_to_young_edges() {
    let (mut k, mut gh, mut roots) = setup(32, 4);
    // An old holder points at a young object; nothing else keeps it alive.
    let (holder, _) = gh.old.alloc(&mut k, CORE, ObjShape::with_refs(1, 4)).unwrap();
    roots.push(holder);
    let young = alloc_young_stamped(&mut k, &mut gh, ObjShape::data(16), 4242);
    gh.write_ref_barrier(&mut k, CORE, holder, 0, young).unwrap();
    // Plus a genuinely dead young object.
    alloc_young_stamped(&mut k, &mut gh, ObjShape::data(16), 9999);

    let mut gc = MinorGc::new(GcConfig::svagc(2));
    let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.promoted_objects, 1, "card scan kept the young target");
    assert_eq!(stats.dead_young, 1);
    assert!(stats.scanned_cards >= 1);
    // The holder's field now points at the promoted copy.
    let (tgt, _) = gh.old.read_ref(&mut k, CORE, holder, 0).unwrap();
    assert!(gh.in_old(tgt.0));
    check_stamped(&mut k, &gh, tgt, ObjShape::data(16), 4242);
    // Remembered set is clean afterwards.
    assert_eq!(gh.cards.dirty_count(), 0);
}

#[test]
fn young_graph_with_internal_refs_survives() {
    let (mut k, mut gh, mut roots) = setup(32, 4);
    // Chain: root -> a -> b -> c, all young.
    let shape = ObjShape::with_refs(1, 4);
    let c = alloc_young_stamped(&mut k, &mut gh, shape, 30);
    let b = alloc_young_stamped(&mut k, &mut gh, shape, 20);
    let a = alloc_young_stamped(&mut k, &mut gh, shape, 10);
    gh.write_ref_barrier(&mut k, CORE, a, 0, b).unwrap();
    gh.write_ref_barrier(&mut k, CORE, b, 0, c).unwrap();
    let rid = roots.push(a);
    let mut gc = MinorGc::new(GcConfig::svagc(2));
    let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.promoted_objects, 3);
    // Walk the promoted chain.
    let mut cur = roots.get(rid);
    for seed in [10u64, 20, 30] {
        assert!(gh.in_old(cur.0));
        check_stamped(&mut k, &gh, cur, shape, seed);
        let (next, _) = gh.old.read_ref(&mut k, CORE, cur, 0).unwrap();
        cur = next;
    }
    assert!(cur.is_null());
}

#[test]
fn swapva_and_memmove_promotion_identical_layouts() {
    let run = |cfg: GcConfig| {
        let (mut k, mut gh, mut roots) = setup(64, 16);
        for i in 0..40u64 {
            let shape = if i % 3 == 0 {
                ObjShape::data_bytes(11 * PAGE_SIZE)
            } else {
                ObjShape::data(100)
            };
            let obj = alloc_young_stamped(&mut k, &mut gh, shape, i);
            if i % 2 == 0 {
                roots.push(obj);
            }
        }
        let mut gc = MinorGc::new(cfg);
        gc.collect(&mut k, &mut gh, &mut roots).unwrap();
        roots.iter_live().map(|r| r.0.get()).collect::<Vec<_>>()
    };
    assert_eq!(run(GcConfig::svagc(4)), run(GcConfig::lisp2_memmove(4)));
}

#[test]
fn promotion_failure_aborts_cleanly_before_mutating() {
    let (mut k, mut gh, mut roots) = setup(1, 4);
    // More live young data than the old generation can hold.
    let shape = ObjShape::data_bytes(256 << 10);
    for i in 0..8u64 {
        let obj = alloc_young_stamped(&mut k, &mut gh, shape, i);
        roots.push(obj);
    }
    let old_count = gh.old.object_count();
    let mut gc = MinorGc::new(GcConfig::svagc(2));
    match gc.collect(&mut k, &mut gh, &mut roots) {
        Err(GcError::Heap(HeapError::NeedGc { .. })) => {}
        other => panic!("expected promotion failure, got {other:?}"),
    }
    // Nothing was promoted, eden untouched, roots still young + intact.
    assert_eq!(gh.old.object_count(), old_count);
    assert!(gh.eden_used() > 0);
    for (i, r) in roots.iter_live().enumerate() {
        assert!(gh.in_young(r.0));
        check_stamped(&mut k, &gh, r, shape, i as u64);
    }
}

#[test]
fn minor_then_full_gc_compose() {
    let (mut k, mut gh, mut roots) = setup(48, 8);
    let shape = ObjShape::data_bytes(64 << 10);
    let mut gen0 = Vec::new();
    // Two scavenge generations of survivors...
    let mut minor = MinorGc::new(GcConfig::svagc(4));
    for round in 0..2u64 {
        for i in 0..40u64 {
            let obj = alloc_young_stamped(&mut k, &mut gh, shape, round * 1000 + i);
            if i % 2 == 0 {
                gen0.push((roots.push(obj), round * 1000 + i));
            }
        }
        minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    }
    assert_eq!(gh.old.object_count(), 40);
    // ...then kill half the promoted objects and run a FULL collection on
    // the old generation with the regular SVAGC collector.
    for (i, (rid, _)) in gen0.iter().enumerate() {
        if i % 2 == 1 {
            roots.set(*rid, ObjRef::NULL);
        }
    }
    let mut full = Lisp2Collector::new(GcConfig::svagc(4));
    let stats = full
        .collect(&mut k, &mut gh.old, &mut roots)
        .unwrap();
    assert_eq!(stats.live_objects, 20);
    for (i, (rid, seed)) in gen0.iter().enumerate() {
        if i % 2 == 0 {
            check_stamped(&mut k, &gh, roots.get(*rid), shape, *seed);
        }
    }
    // And the nursery still works after the full GC.
    let obj = alloc_young_stamped(&mut k, &mut gh, shape, 777_777);
    roots.push(obj);
    minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(minor.log.last().unwrap().promoted_objects, 1);
}

#[test]
fn swapva_scavenge_beats_memmove_on_large_young_objects() {
    // The Table I row-2 claim, quantified: a nursery full of large
    // objects scavenges much faster with SwapVA+aggregation.
    let run = |cfg: GcConfig| {
        let (mut k, mut gh, mut roots) = setup(128, 32);
        let big = ObjShape::data_bytes(16 * PAGE_SIZE);
        for i in 0..200u64 {
            let obj = alloc_young_stamped(&mut k, &mut gh, big, i);
            if i % 2 == 0 {
                roots.push(obj);
            }
        }
        let mut gc = MinorGc::new(cfg);
        gc.collect(&mut k, &mut gh, &mut roots).unwrap();
        gc.total_pause()
    };
    let swap = run(GcConfig::svagc(4));
    let mm = run(GcConfig::lisp2_memmove(4));
    assert!(
        swap.get() * 2 < mm.get(),
        "SwapVA scavenge {swap} should be <50% of memmove {mm}"
    );
}

#[test]
fn full_collect_with_live_nursery_preserves_cross_space_refs() {
    use svagc_core::full_collect_generational;
    let (mut k, mut gh, mut roots) = setup(32, 4);
    // Old objects: some garbage, some live, one referenced ONLY from a
    // young holder.
    let shape = ObjShape::with_refs(1, 8);
    let (old_live, _) = gh.old.alloc(&mut k, CORE, shape).unwrap();
    gh.old.write_data(&mut k, CORE, old_live, 1, 0, 111).unwrap();
    roots.push(old_live);
    let (old_garbage, _) = gh.old.alloc(&mut k, CORE, shape).unwrap();
    let _ = old_garbage;
    let (old_young_held, _) = gh.old.alloc(&mut k, CORE, shape).unwrap();
    gh.old.write_data(&mut k, CORE, old_young_held, 1, 0, 222).unwrap();
    // Young holder points at it; young holder itself is rooted.
    let young = alloc_young_stamped(&mut k, &mut gh, shape, 333);
    gh.write_ref_barrier(&mut k, CORE, young, 0, old_young_held).unwrap();
    roots.push(young);
    // And an old object pointing at a young one (remembered set entry that
    // must survive the rebuild).
    let young2 = alloc_young_stamped(&mut k, &mut gh, shape, 444);
    gh.write_ref_barrier(&mut k, CORE, old_live, 0, young2).unwrap();

    let mut full = Lisp2Collector::new(GcConfig::svagc(4));
    let stats = full_collect_generational(&mut k, &mut gh, &mut roots, &mut full).unwrap();
    // old_live + old_young_held survive; old_garbage reclaimed.
    assert_eq!(stats.live_objects, 2);
    // The young holder's ref was updated to the moved old object.
    let (tgt, _) = gh.old.read_ref(&mut k, CORE, young, 0).unwrap();
    assert!(gh.in_old(tgt.0));
    let (v, _) = gh.old.read_data(&mut k, CORE, tgt, 1, 0).unwrap();
    assert_eq!(v, 222);
    // The old->young edge survived and the remembered set was rebuilt.
    let moved_old_live = roots.get(svagc_heap::RootId(0));
    let (y2, _) = gh.old.read_ref(&mut k, CORE, moved_old_live, 0).unwrap();
    assert!(gh.in_young(y2.0));
    check_stamped(&mut k, &gh, y2, shape, 444);
    assert!(gh.cards.is_dirty(moved_old_live.ref_field_va(0)));
    // A subsequent scavenge still finds young2 through the rebuilt cards.
    let mut minor = MinorGc::new(GcConfig::svagc(2));
    let ms = minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(ms.promoted_objects, 2, "young holder + young2");
    let (y2_after, _) = gh.old.read_ref(&mut k, CORE, moved_old_live, 0).unwrap();
    assert!(gh.in_old(y2_after.0));
    check_stamped(&mut k, &gh, y2_after, shape, 444);
}

#[test]
fn promotion_failure_then_full_gc_then_retry_succeeds() {
    use svagc_core::full_collect_generational;
    let (mut k, mut gh, mut roots) = setup(4, 2);
    let shape = ObjShape::data_bytes(128 << 10);
    // Fill the old generation with garbage.
    while gh.old.alloc(&mut k, CORE, shape).is_ok() {}
    // Live young data that cannot be promoted into the full old gen.
    let mut kept = Vec::new();
    for i in 0..8u64 {
        let obj = alloc_young_stamped(&mut k, &mut gh, shape, i * 7);
        kept.push((roots.push(obj), i * 7));
    }
    let mut minor = MinorGc::new(GcConfig::svagc(2));
    assert!(matches!(
        minor.collect(&mut k, &mut gh, &mut roots),
        Err(GcError::Heap(HeapError::NeedGc { .. }))
    ));
    // Full GC reclaims the old garbage; the scavenge then succeeds.
    let mut full = Lisp2Collector::new(GcConfig::svagc(2));
    full_collect_generational(&mut k, &mut gh, &mut roots, &mut full).unwrap();
    let stats = minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.promoted_objects, 8);
    for (rid, seed) in kept {
        let obj = roots.get(rid);
        assert!(gh.in_old(obj.0));
        check_stamped(&mut k, &gh, obj, shape, seed);
    }
}
