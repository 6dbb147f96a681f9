//! Workspace-level integration: the full stack (machine model → vmem →
//! kernel → heap → collector → workload driver) through the `svagc`
//! facade, checking the invariants that hold the reproduction together.

use svagc::gc::{Collector, GcConfig, Lisp2Collector};
use svagc::heap::{Heap, HeapConfig, ObjShape, RootSet};
use svagc::kernel::{CoreId, Kernel, SwapRequest, SwapVaOptions};
use svagc::metrics::MachineConfig;
use svagc::vmem::{AddressSpace, Asid, PAGE_SIZE};
use svagc::workloads::driver::{run, CollectorKind, RunConfig};
use svagc::workloads::{run_multi, suite};

const CORE: CoreId = CoreId(0);

#[test]
fn facade_reexports_compose() {
    // The README quickstart, condensed: everything is reachable from the
    // facade and works together.
    let mut kernel = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
    let mut heap = Heap::new(&mut kernel, Asid(1), HeapConfig::new(8 << 20)).unwrap();
    let mut roots = RootSet::new();
    let (obj, _) = heap
        .alloc(&mut kernel, CORE, ObjShape::data_bytes(64 << 10))
        .unwrap();
    roots.push(obj);
    let mut gc = Lisp2Collector::new(GcConfig::svagc(2));
    let stats = gc.collect(&mut kernel, &mut heap, &mut roots).unwrap();
    assert_eq!(stats.live_objects, 1);
    assert_eq!(gc.name(), "SVAGC");
}

#[test]
fn perf_counters_are_internally_consistent() {
    let mut w = suite::by_name("Sigverify").unwrap();
    let cfg = RunConfig::new(CollectorKind::Svagc);
    let r = run(w.as_mut(), &cfg).unwrap();
    let p = &r.perf;
    // Every swapped object implies PTE swaps; every syscall was counted.
    assert!(p.pte_swaps > 0);
    assert!(p.objects_swapped > 0);
    assert!(p.objects_moved >= p.objects_swapped);
    assert!(p.syscalls > 0);
    assert!(p.tlb_misses <= p.tlb_lookups);
    assert_eq!(p.gc_cycles as usize, r.gc.count());
    // SwapVA path is genuinely zero-copy: the only copied bytes come from
    // sub-threshold objects.
    assert!(p.bytes_copied < r.gc.cycles.iter().map(|c| c.swapped_bytes).sum::<u64>());
}

#[test]
fn gc_stats_tie_out_with_heap_state() {
    let mut kernel = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 32 << 20);
    let mut heap = Heap::new(&mut kernel, Asid(1), HeapConfig::new(16 << 20)).unwrap();
    let mut roots = RootSet::new();
    let mut live_bytes = 0u64;
    for i in 0..120u64 {
        let shape = if i % 5 == 0 {
            ObjShape::data_bytes(11 * PAGE_SIZE)
        } else {
            ObjShape::data(200)
        };
        let (obj, _) = heap.alloc(&mut kernel, CORE, shape).unwrap();
        if i % 2 == 0 {
            roots.push(obj);
            live_bytes += shape.size_bytes();
        }
    }
    let mut gc = Lisp2Collector::new(GcConfig::svagc(4));
    let stats = gc.collect(&mut kernel, &mut heap, &mut roots).unwrap();
    assert_eq!(stats.live_objects, 60);
    assert_eq!(stats.live_bytes, live_bytes);
    // After compaction the heap cursor equals live bytes + alignment gaps.
    assert!(heap.used_bytes() >= live_bytes);
    assert!(heap.used_bytes() < live_bytes + 30 * PAGE_SIZE);
}

#[test]
fn shootdown_counts_follow_equation_two() {
    // Eq. 2: naive IPIs / pinned IPIs == number of swappable objects.
    let objects = 25u64;
    let count_ipis = |pinned: bool| {
        let mut k = Kernel::new(MachineConfig::xeon_gold_6130(), 2048);
        let mut s = AddressSpace::new(Asid(1));
        let opts = if pinned {
            SwapVaOptions::pinned()
        } else {
            SwapVaOptions::naive()
        };
        if pinned {
            k.flush_asid_all_cores(CORE, s.asid());
        }
        for _ in 0..objects {
            let a = k.vmem.alloc_region(&mut s, 12).unwrap();
            let b = k.vmem.alloc_region(&mut s, 12).unwrap();
            k.swap_va(&mut s, CORE, SwapRequest { a, b, pages: 12 }, opts)
                .unwrap();
        }
        k.perf.ipis_sent
    };
    let naive = count_ipis(false);
    let pinned = count_ipis(true);
    assert_eq!(naive, objects * 31);
    assert_eq!(pinned, 31);
    assert_eq!(naive / pinned, objects, "gain = l-bar (Eq. 2)");
}

#[test]
fn threshold_config_controls_swapping() {
    // With a sky-high threshold, SVAGC degenerates to pure memmove.
    let mut w = suite::by_name("Sigverify").unwrap();
    let mut cfg = RunConfig::new(CollectorKind::Svagc);
    cfg.threshold_pages = Some(1 << 20);
    let r = run(w.as_mut(), &cfg).unwrap();
    assert!(r.verify_ok);
    assert_eq!(r.perf.objects_swapped, 0);
    assert!(r.perf.bytes_copied > 0);
}

#[test]
fn multi_jvm_is_deterministic_despite_host_parallelism() {
    let go = || {
        let mut base = RunConfig::new(CollectorKind::ParallelGc);
        base.gc.gc_threads = 4;
        let res = run_multi(
            4,
            |i| {
                Box::new(svagc::workloads::lrucache::LruCache::new(
                    64,
                    128 << 10,
                    4,
                    42 + i as u64,
                ))
            },
            &base,
        )
        .unwrap();
        res.per_jvm
            .iter()
            .map(|r| (r.gc.total_pause(), r.app_cycles))
            .collect::<Vec<_>>()
    };
    assert_eq!(go(), go());
}

#[test]
fn every_benchmark_runs_under_every_collector() {
    // Smoke the full matrix on short runs: no OOMs, no corruption.
    for name in [
        "FFT.large/16",
        "Sparse.large/4",
        "LU.large",
        "Bisort",
        "LRUCache",
    ] {
        for kind in [
            CollectorKind::Svagc,
            CollectorKind::SvagcMemmove,
            CollectorKind::ParallelGc,
            CollectorKind::Shenandoah,
        ] {
            let mut w = suite::by_name(name).unwrap();
            let mut cfg = RunConfig::new(kind);
            cfg.steps = Some(25);
            let r = run(w.as_mut(), &cfg)
                .unwrap_or_else(|e| panic!("{name} under {}: {e}", kind.label()));
            assert!(r.verify_ok, "{name} under {}", kind.label());
        }
    }
}

#[test]
fn interference_only_from_shootdowns() {
    // ParallelGC never changes PTEs, so it never interferes via IPIs.
    let mut w = suite::by_name("Compress").unwrap();
    let r = run(w.as_mut(), &RunConfig::new(CollectorKind::ParallelGc)).unwrap();
    assert_eq!(r.perf.ipis_sent, 0);
    assert_eq!(r.gc.total_interference().get(), 0);
    // SVAGC does interfere (broadcasts) but far less than it saves.
    let mut w2 = suite::by_name("Compress").unwrap();
    let r2 = run(w2.as_mut(), &RunConfig::new(CollectorKind::Svagc)).unwrap();
    assert!(r2.perf.ipis_sent > 0);
    assert!(r2.gc.total_interference().get() > 0);
    assert!(r2.total_wall < r.total_wall, "SVAGC should still win overall");
}
