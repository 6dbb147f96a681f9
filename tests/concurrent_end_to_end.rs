//! End-to-end `--concurrent` mode: SATB concurrent marking through the
//! full driver stack. The load-bearing invariant everywhere: a concurrent
//! run's final live heap is bit-identical to the stop-the-world run's —
//! SATB may float garbage *within* a cycle, but a driver run takes the
//! snapshot, traces and finishes the mark at the trigger, so survivors
//! (and their bytes and addresses) never differ.

use svagc::gc::{Collector, ConcurrentCollector, GcConfig, Lisp2Collector, SchedulerKind};
use svagc::heap::{Heap, HeapConfig, HeapVerifier, ObjShape, RootSet};
use svagc::kernel::{CoreId, FaultConfig, FaultPlan, Kernel};
use svagc::metrics::MachineConfig;
use svagc::vmem::Asid;
use svagc::workloads::driver::{run, CollectorKind, RunConfig, RunResult};
use svagc::workloads::suite;

const CORE: CoreId = CoreId(0);

fn run_workload(name: &str, steps: usize, configure: impl FnOnce(RunConfig) -> RunConfig) -> RunResult {
    let mut w = suite::by_name(name).unwrap();
    let mut cfg = configure(RunConfig::new(CollectorKind::Svagc));
    cfg.steps = Some(steps);
    run(w.as_mut(), &cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The acceptance criterion, pinned the hard way: `--concurrent` produces
/// a bit-identical final heap on every workload of the standard suite,
/// while charging strictly less marking to the pause.
#[test]
fn concurrent_bit_identical_to_stw_on_every_workload() {
    for w in suite::standard_suite() {
        let name = w.name();
        let steps = w.default_steps().min(25);
        let stw = run_workload(&name, steps, |c| c);
        let conc = run_workload(&name, steps, |c| c.with_concurrent(true));
        assert!(stw.verify_ok && conc.verify_ok, "{name}: verification failed");
        assert_eq!(
            conc.heap_hash, stw.heap_hash,
            "{name}: concurrent heap must be bit-identical to STW"
        );
        assert_eq!(
            conc.gc.count(),
            stw.gc.count(),
            "{name}: concurrent marking must not change the GC schedule"
        );
        if stw.gc.count() > 0 {
            assert!(
                conc.gc.total_concurrent_mark().get() > 0,
                "{name}: marking must run off-pause"
            );
            assert!(
                conc.gc.phase_totals().mark < stw.gc.phase_totals().mark,
                "{name}: the STW mark charge must shrink"
            );
        }
    }
}

/// Satellite: chaos under `--concurrent`. Injected SwapVA faults at 1%
/// and 10% must not break the bit-identity between concurrent and the
/// fault-free STW reference — retries, fallbacks, and the transactional
/// journal all compose with the premark path.
#[test]
fn concurrent_survives_fault_injection_bit_identical() {
    // LRUCache at its full default step count is the chaos suite's
    // swap-heavy scenario — Bisort's small objects never reach SwapVA, so
    // its fault plans would never fire, and a truncated run gives a 1%
    // plan too few swap requests to guarantee a hit.
    let steps = suite::by_name("LRUCache").unwrap().default_steps();
    let reference = run_workload("LRUCache", steps, |c| c);
    for rate in [0.01, 0.10] {
        let faulty = run_workload("LRUCache", steps, |c| {
            c.with_concurrent(true)
                .with_faults(rate, 0xFA017)
                .with_verify_phases(true)
        });
        assert!(faulty.verify_ok);
        assert!(
            faulty.gc.total_faults_injected() > 0,
            "a {rate} plan over a full run must fire"
        );
        assert_eq!(
            faulty.heap_hash, reference.heap_hash,
            "faults at {rate} under --concurrent must preserve bit-identity"
        );
        for c in &faulty.gc.cycles {
            assert_eq!(c.verify_violations, 0);
        }
    }
}

/// Satellite: pressure ladder under `--concurrent`. The escalation path
/// (full GC → degrade) drives collections through the concurrent
/// collector; the run must complete with the same final heap as the
/// pressured STW run.
#[test]
fn pressure_ladder_under_concurrent_matches_stw() {
    let stw = run_workload("Bisort", 60, |c| c.with_pressure(true));
    let conc = run_workload("Bisort", 60, |c| c.with_pressure(true).with_concurrent(true));
    assert!(stw.verify_ok && conc.verify_ok);
    assert_eq!(
        conc.heap_hash, stw.heap_hash,
        "pressure + concurrent must end bit-identical to pressure + STW"
    );
}

/// Satellite: abort-or-finish under chaos. A pressure-style collect()
/// arriving mid-mark with kernel faults armed must finish the in-flight
/// mark inside the pause (never overlap two cycles), survive the faults
/// through the journal/retry machinery, and produce a heap bit-identical
/// to an untouched STW reference.
#[test]
fn abort_or_finish_mid_mark_under_faults() {
    // Mesh layout: even-indexed objects are roots; odd ones hang off
    // their predecessor's field 0. A rooted anchor also points at the
    // odd objects we will orphan, so the overwritten targets (a) are NOT
    // marked by the initial root scan — the barrier must log them — and
    // (b) stay reachable, so SATB floats no garbage and bit-identity
    // with the STW reference is exact.
    const ORPHANED: [usize; 4] = [9, 11, 13, 15];
    let build = |k: &mut Kernel| {
        let mut heap = Heap::new(k, Asid(1), HeapConfig::new(16 << 20)).unwrap();
        let mut roots = RootSet::new();
        let mut objs = Vec::new();
        // Page-crossing data objects (SwapVA candidates) interleaved with
        // doomed filler, plus a ref mesh to give marking real work.
        for i in 0..24u64 {
            let (big, _) = heap.alloc(k, CORE, ObjShape::data_bytes(48 << 10)).unwrap();
            heap.write_data(k, CORE, big, 0, 0, 0x5EED + i).unwrap();
            roots.push(big);
            heap.alloc(k, CORE, ObjShape::data_bytes(16 << 10)).unwrap();
        }
        for i in 0..32u64 {
            let (o, _) = heap.alloc(k, CORE, ObjShape::with_refs(2, 4)).unwrap();
            if i % 2 == 0 {
                roots.push(o);
            }
            objs.push(o);
        }
        for (i, &o) in objs.iter().enumerate() {
            heap.write_ref(k, CORE, o, 0, objs[(i + 1) % objs.len()]).unwrap();
        }
        let (anchor, _) = heap.alloc(k, CORE, ObjShape::with_refs(4, 1)).unwrap();
        roots.push(anchor);
        for (f, &j) in ORPHANED.iter().enumerate() {
            heap.write_ref(k, CORE, anchor, f as u64, objs[j]).unwrap();
        }
        (heap, roots, objs)
    };

    // STW reference on a pristine machine, with the orphaning stores
    // applied before its (single) collection.
    let mut k_ref = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
    let (mut h_ref, mut r_ref, objs_ref) = build(&mut k_ref);
    for &j in &ORPHANED {
        h_ref
            .write_ref(&mut k_ref, CORE, objs_ref[j - 1], 0, svagc::heap::ObjRef::NULL)
            .unwrap();
    }
    let mut stw = Lisp2Collector::new(GcConfig::svagc(4));
    stw.collect(&mut k_ref, &mut h_ref, &mut r_ref).unwrap();

    // Concurrent collector: start an incremental mark, apply the same
    // stores mid-mark through the deletion barrier, advance the trace,
    // then force the collect with faults armed.
    let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
    let (mut heap, mut roots, objs) = build(&mut k);
    let mut gc = ConcurrentCollector::new(Lisp2Collector::new(GcConfig::svagc(4)));
    assert!(gc.begin_mark(&heap, &roots));
    for &j in &ORPHANED {
        assert!(!gc.is_marked(objs[j]), "target must still be white");
        gc.write_barrier(&mut k, &mut heap, CORE, objs[j - 1], 0).unwrap();
        heap.write_ref(&mut k, CORE, objs[j - 1], 0, svagc::heap::ObjRef::NULL).unwrap();
    }
    assert_eq!(gc.satb_pending(), ORPHANED.len());
    gc.mark_step(&mut k, &heap, 8).unwrap();
    k.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.10, 0xFA017))));
    assert!(gc.marking(), "mark in flight when the pressure collect arrives");
    let stats = gc.collect(&mut k, &mut heap, &mut roots).unwrap();
    assert!(!gc.marking(), "abort-or-finish: the cycle consumed the mark");
    assert!(
        stats.satb_logged > 0,
        "mid-mark overwrites must reach the final-mark drain"
    );
    assert!(
        stats.faults_injected > 0,
        "a 10% plan over a compaction must fire"
    );

    let v = HeapVerifier::new();
    assert_eq!(
        v.content_hash(&k, &mut heap),
        v.content_hash(&k_ref, &mut h_ref),
        "finish-in-pause under faults must still match the STW reference"
    );
    // The collector is reusable: a fresh mark window opens cleanly.
    assert!(gc.begin_mark(&heap, &roots));
}

/// Satellite: scheduler and host-thread invariance. The concurrent-mode
/// heap hash must not depend on `SVAGC_HOST_THREADS` (host parallelism
/// never touches the simulated plane) or on the GC scheduling substrate
/// (barrier pipeline vs work packets).
#[test]
fn concurrent_hash_invariant_across_host_threads_and_schedulers() {
    let bisort = |sched: SchedulerKind| {
        run_workload("Bisort", 40, |c| c.with_concurrent(true).with_scheduler(sched))
    };
    std::env::set_var("SVAGC_HOST_THREADS", "1");
    let h1 = bisort(SchedulerKind::Barrier);
    std::env::set_var("SVAGC_HOST_THREADS", "4");
    let h4 = bisort(SchedulerKind::Barrier);
    std::env::remove_var("SVAGC_HOST_THREADS");
    assert_eq!(
        h1.heap_hash, h4.heap_hash,
        "host threads must not leak into the simulated plane"
    );
    assert_eq!(h1.gc.total_pause(), h4.gc.total_pause());

    let packets = bisort(SchedulerKind::Packets);
    assert_eq!(
        packets.heap_hash, h1.heap_hash,
        "packet scheduler must compact to the same heap"
    );
    assert!(packets.gc.total_sched_packets() > 0, "packets actually ran");
}
