//! End-to-end tests of the work-packet scheduler (`SchedulerKind::Packets`):
//! heap effects identical to the barrier pipeline, schedules deterministic,
//! and bucket overlap strictly beating the four-barrier pipeline on skewed
//! work.

use svagc_core::{GcConfig, GcError, Lisp2Collector, PacketKind, SchedulerKind};
use svagc_heap::{Heap, HeapConfig, HeapVerifier, ObjRef, ObjShape, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::{MachineConfig, TraceKind};
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);

fn setup(heap_bytes: u64) -> (Kernel, Heap, RootSet) {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), heap_bytes + (4 << 20));
    let h = Heap::new(&mut k, Asid(1), HeapConfig::new(heap_bytes)).unwrap();
    (k, h, RootSet::new())
}

fn alloc_stamped(k: &mut Kernel, h: &mut Heap, shape: ObjShape, seed: u64) -> ObjRef {
    let (obj, _) = h.alloc(k, CORE, shape).unwrap();
    for i in 0..shape.data_words as u64 {
        h.write_data(k, CORE, obj, shape.num_refs as u64, i, seed + i)
            .unwrap();
    }
    obj
}

/// A mixed workload: linked ref-heavy smalls, rooted large data objects,
/// interleaved garbage so everything slides.
fn build_mixed(k: &mut Kernel, h: &mut Heap, roots: &mut RootSet) {
    let ref_shape = ObjShape::with_refs(8, 16);
    let mut smalls = Vec::new();
    for i in 0..60u64 {
        let obj = alloc_stamped(k, h, ref_shape, i * 100);
        smalls.push(obj);
        if i % 4 == 0 {
            roots.push(obj);
        }
        // Garbage in between forces real sliding.
        alloc_stamped(k, h, ObjShape::data(48), 900_000 + i);
    }
    for (i, &obj) in smalls.iter().enumerate() {
        for r in 0..8usize {
            h.write_ref(k, CORE, obj, r as u64, smalls[(i + r + 1) % smalls.len()])
                .unwrap();
        }
    }
    for i in 0..8u64 {
        let big = alloc_stamped(k, h, ObjShape::data_bytes(12 * PAGE_SIZE), i * 1_000_000);
        if i % 2 == 0 {
            roots.push(big);
        }
        alloc_stamped(k, h, ObjShape::data_bytes(4 * PAGE_SIZE), 700_000 + i);
    }
}

/// Run one GC under `cfg` on the mixed workload; return (content hash,
/// root layout, heap top, stats).
fn run_mixed(cfg: GcConfig) -> (u64, Vec<u64>, u64, svagc_core::GcCycleStats) {
    let (mut k, mut h, mut roots) = setup(32 << 20);
    build_mixed(&mut k, &mut h, &mut roots);
    let mut gc = Lisp2Collector::new(cfg);
    let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();
    let hash = HeapVerifier::new().content_hash(&k, &mut h);
    let layout: Vec<u64> = roots.iter_live().map(|r| r.0.get()).collect();
    (hash, layout, h.top().get(), stats)
}

#[test]
fn packets_and_barrier_produce_identical_heaps() {
    for base in [GcConfig::svagc(4), GcConfig::lisp2_memmove(4)] {
        let (hb, lb, tb, _) = run_mixed(base.with_verify_phases(true));
        let (hp, lp, tp, sp) = run_mixed(
            base.with_verify_phases(true)
                .with_scheduler(SchedulerKind::Packets),
        );
        assert_eq!(hb, hp, "content hash must not depend on the scheduler");
        assert_eq!(lb, lp, "root layout must not depend on the scheduler");
        assert_eq!(tb, tp);
        assert!(sp.sched_packets > 0, "packet counters populated");
    }
}

#[test]
fn packet_schedule_is_deterministic_across_runs() {
    let cfg = GcConfig::svagc(4).with_scheduler(SchedulerKind::Packets);
    let (h1, l1, t1, s1) = run_mixed(cfg);
    let (h2, l2, t2, s2) = run_mixed(cfg);
    assert_eq!(h1, h2);
    assert_eq!(l1, l2);
    assert_eq!(t1, t2);
    assert_eq!(s1.phases.mark, s2.phases.mark);
    assert_eq!(s1.phases.forward, s2.phases.forward);
    assert_eq!(s1.phases.adjust, s2.phases.adjust);
    assert_eq!(s1.phases.compact, s2.phases.compact);
    assert_eq!(s1.phases.shootdown, s2.phases.shootdown);
    assert_eq!(s1.sched_packets, s2.sched_packets);
    assert_eq!(s1.sched_steals, s2.sched_steals);
    assert_eq!(s1.sched_steal_cycles, s2.sched_steal_cycles);
}

#[test]
fn static_dispatch_schedule_is_deterministic_across_runs() {
    // Pins the four `dispatch_static(Cycles::ZERO)` sites in the barrier
    // pipeline (`work_stealing: false`, the Shenandoah-style static
    // partition): each phase's round-robin cursor starts at zero — fresh
    // pool or explicit reset() — so the whole schedule is a pure function
    // of the cycle's input and repeated runs agree bit for bit.
    let cfg = GcConfig::svagc(4).with_stealing(false);
    let (h1, l1, t1, s1) = run_mixed(cfg);
    let (h2, l2, t2, s2) = run_mixed(cfg);
    assert_eq!(h1, h2);
    assert_eq!(l1, l2);
    assert_eq!(t1, t2);
    assert_eq!(s1.phases.mark, s2.phases.mark);
    assert_eq!(s1.phases.forward, s2.phases.forward);
    assert_eq!(s1.phases.adjust, s2.phases.adjust);
    assert_eq!(s1.phases.compact, s2.phases.compact);
    assert_eq!(s1.phases.shootdown, s2.phases.shootdown);
}

#[test]
fn packets_overlap_beats_barrier_on_skewed_work() {
    // Skew by construction: the low half of the heap is big rooted data
    // objects whose compaction is swap-heavy and adjust-free, the high
    // half is ref-dense smalls whose adjust dominates. The big compact
    // batches have no adjust dependencies (nothing reads forwarding words
    // in their destination region), so the packet scheduler starts them
    // right after forwarding while the ref-dense adjust packets are still
    // running; the barrier pipeline stalls them behind the slowest adjust
    // packet.
    let run = |kind: SchedulerKind| {
        let (mut k, mut h, mut roots) = setup(64 << 20);
        for i in 0..12u64 {
            let big = alloc_stamped(&mut k, &mut h, ObjShape::data_bytes(16 * PAGE_SIZE), i);
            roots.push(big);
            alloc_stamped(&mut k, &mut h, ObjShape::data_bytes(8 * PAGE_SIZE), 600_000 + i);
        }
        let ref_shape = ObjShape::with_refs(16, 8);
        let mut smalls = Vec::new();
        for i in 0..120u64 {
            let obj = alloc_stamped(&mut k, &mut h, ref_shape, i);
            roots.push(obj);
            smalls.push(obj);
            alloc_stamped(&mut k, &mut h, ObjShape::data(64), 500_000 + i);
        }
        for (i, &obj) in smalls.iter().enumerate() {
            for r in 0..16usize {
                h.write_ref(&mut k, CORE, obj, r as u64, smalls[(i + r + 1) % smalls.len()])
                    .unwrap();
            }
        }
        let mut gc = Lisp2Collector::new(GcConfig::svagc(4).with_scheduler(kind));
        let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();
        (stats.phases.total(), HeapVerifier::new().content_hash(&k, &mut h))
    };
    let (barrier_pause, barrier_hash) = run(SchedulerKind::Barrier);
    let (packets_pause, packets_hash) = run(SchedulerKind::Packets);
    assert_eq!(barrier_hash, packets_hash, "same heap either way");
    assert!(
        packets_pause < barrier_pause,
        "packet overlap must strictly beat the barrier pipeline on skewed \
         work: packets {} >= barrier {}",
        packets_pause.get(),
        barrier_pause.get()
    );
}

#[test]
fn minor_packets_and_barrier_promote_identically() {
    use svagc_core::{MinorConfig, MinorGc};
    use svagc_heap::GenHeap;
    let run = |kind: SchedulerKind| {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 64 << 20);
        let mut gh = GenHeap::new(&mut k, Asid(1), 32 << 20, 8 << 20, 10).unwrap();
        let mut roots = RootSet::new();
        let mut prev = ObjRef::NULL;
        for i in 0..40u64 {
            let (obj, _) = gh
                .alloc_young(&mut k, CORE, ObjShape::with_refs(2, 14))
                .unwrap();
            gh.old.write_data(&mut k, CORE, obj, 2, 0, 4_000 + i).unwrap();
            if !prev.is_null() {
                gh.old.write_ref(&mut k, CORE, obj, 0, prev).unwrap();
            }
            prev = obj;
            if i % 3 == 0 {
                roots.push(obj);
            }
            // Large survivors exercise the SwapVA promotion batches.
            if i % 8 == 0 {
                let (big, _) = gh
                    .alloc_young(&mut k, CORE, ObjShape::data_bytes(12 * PAGE_SIZE))
                    .unwrap();
                roots.push(big);
            }
        }
        let mut minor = MinorGc::new(MinorConfig::svagc(4).with_scheduler(kind));
        let stats = minor.collect(&mut k, &mut gh, &mut roots).unwrap();
        let layout: Vec<u64> = roots.iter_live().map(|r| r.0.get()).collect();
        (stats, layout, gh.old.top().get())
    };
    let (sb, lb, tb) = run(SchedulerKind::Barrier);
    let (sp, lp, tp) = run(SchedulerKind::Packets);
    assert_eq!(lb, lp, "promotion layout must not depend on the scheduler");
    assert_eq!(tb, tp);
    assert_eq!(sb.promoted_objects, sp.promoted_objects);
    assert_eq!(sb.promoted_bytes, sp.promoted_bytes);
    assert_eq!(sb.swapped_objects, sp.swapped_objects);
    assert_eq!(sb.dead_young, sp.dead_young);
    assert_eq!(sb.scanned_objects, sp.scanned_objects);
}

#[test]
fn packets_survive_repeated_cycles_with_verification() {
    let (mut k, mut h, mut roots) = setup(8 << 20);
    let mut gc = Lisp2Collector::new(
        GcConfig::svagc(4)
            .with_scheduler(SchedulerKind::Packets)
            .with_verify_phases(true),
    );
    let shape = ObjShape::with_refs(2, 32);
    for round in 0..4u64 {
        let mut prev = ObjRef::NULL;
        for i in 0..50u64 {
            let obj = alloc_stamped(&mut k, &mut h, shape, round * 10_000 + i);
            if !prev.is_null() {
                h.write_ref(&mut k, CORE, obj, 0, prev).unwrap();
            }
            prev = obj;
            if i % 5 == 0 {
                roots.push(obj);
            }
        }
        // Drop some roots, keep chains partially alive.
        let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();
        assert!(stats.live_objects > 0);
        assert_eq!(stats.verify_violations, 0);
    }
}

#[test]
fn mid_compaction_deadline_counts_the_phase_elapsed_time() {
    // Regression: the packet policy's mid-compaction watchdog check used
    // to compare only the current packet's own cost with the budget, so a
    // deadline between the largest compact packet and the whole compact
    // phase only expired at the phase-end check. The check compares the
    // phase's elapsed time, so it must fire mid-phase, below the end value.
    let cfg = GcConfig::svagc(4).with_scheduler(SchedulerKind::Packets);
    // Compaction-dominated: rooted large objects sliding over garbage,
    // each followed by a small one whose memmove is a mid-phase check.
    let build = |k: &mut Kernel, h: &mut Heap, roots: &mut RootSet| {
        for i in 0..48u64 {
            alloc_stamped(k, h, ObjShape::data_bytes(3 * PAGE_SIZE), 700_000 + i);
            let big = alloc_stamped(k, h, ObjShape::data_bytes(12 * PAGE_SIZE), i * 1_000);
            roots.push(big);
            roots.push(alloc_stamped(k, h, ObjShape::data(256), 900_000 + i));
        }
    };
    let (mut k, mut h, mut roots) = setup(32 << 20);
    k.set_tracing(true);
    build(&mut k, &mut h, &mut roots);
    let free = Lisp2Collector::new(cfg)
        .collect(&mut k, &mut h, &mut roots)
        .unwrap();
    let phase = free.phases.compact;
    let budget = phase.get() / 2;
    for (name, c) in [
        ("mark", free.phases.mark),
        ("forward", free.phases.forward),
        ("adjust", free.phases.adjust),
    ] {
        assert!(c.get() <= budget, "{name} {c} must fit the budget {budget}");
    }
    let largest = k
        .take_trace()
        .iter()
        .filter(|e| e.kind == TraceKind::Packet)
        .filter(|e| e.arg("kind") == Some(PacketKind::CompactBatch.id()))
        .filter_map(|e| e.dur)
        .max()
        .unwrap();
    assert!(largest.get() <= budget, "largest packet {largest} > budget {budget}");

    let (mut k, mut h, mut roots) = setup(32 << 20);
    build(&mut k, &mut h, &mut roots);
    let mut gc = Lisp2Collector::new(cfg.with_deadline(Some(budget)));
    match gc.collect(&mut k, &mut h, &mut roots) {
        Err(GcError::Deadline {
            phase: "compact",
            elapsed,
            ..
        }) => {
            assert!(elapsed.get() > budget);
            assert!(
                elapsed < phase,
                "expired only at the phase end ({elapsed} of {phase}), not mid-phase"
            );
        }
        other => panic!("expected a compact-phase deadline, got {other:?}"),
    }
}
