//! Crash-consistency acceptance suite: for every seeded crash point, the
//! post-recovery heap content hash equals **exactly** the pre-cycle or
//! post-cycle snapshot hash — never a hybrid — with the TLB
//! stale-translation oracle armed across recovery. Also proves the
//! double-crash path (a crash inside recovery itself) and the teeth of
//! the oracle (seeded log mutations must make recovery fail closed).

use svagc_core::{recover, CycleClass, GcConfig, GcError, Lisp2Collector, RecoveryError,
                RetryPolicy};
use svagc_heap::{Heap, HeapConfig, HeapVerifier, ObjRef, ObjShape, RootSet};
use svagc_kernel::{CoreId, CrashPlan, CrashPoint, FaultConfig, FaultPlan, Kernel, WalMutation};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);
const SEED: u64 = 0xC4A54;

/// A heap with enough page-aligned large objects (and refs between the
/// survivors) that a full cycle swaps several batches of PTEs.
fn build_world_with(seed: u64, wal: bool) -> (Kernel, Heap, RootSet) {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 100 << 20);
    k.set_wal_enabled(wal);
    k.set_tlb_oracle(true);
    let mut h = Heap::new(&mut k, Asid(1), HeapConfig::new(96 << 20)).unwrap();
    let mut roots = RootSet::new();
    let mut rng = SimRng::seed_from_u64(seed);
    for i in 0..24u64 {
        let shape = match rng.gen_range(0..3u32) {
            0 => ObjShape::data_bytes(rng.gen_range(10..20u64) * PAGE_SIZE),
            1 => ObjShape::data(rng.gen_range(16..600u32)),
            _ => ObjShape::with_refs(2, 32),
        };
        let (obj, _) = h.alloc(&mut k, CORE, shape).unwrap();
        for w in 0..shape.data_words as u64 {
            h.write_data(&mut k, CORE, obj, shape.num_refs as u64, w, seed + i * 37 + w)
                .unwrap();
        }
        if rng.gen_bool(0.5) {
            roots.push(obj);
        }
    }
    let live: Vec<ObjRef> = roots.iter_live().collect();
    for (i, obj) in live.iter().enumerate() {
        let raw = k.vmem.read_u64(h.space(), obj.0).unwrap();
        let nrefs = svagc_heap::ObjHeader::decode(raw).num_refs;
        for r in 0..nrefs as u64 {
            h.write_ref(&mut k, CORE, *obj, r, live[(i + 1 + r as usize) % live.len()])
                .unwrap();
        }
    }
    (k, h, roots)
}

fn build_world(seed: u64) -> (Kernel, Heap, RootSet) {
    build_world_with(seed, true)
}

fn gc_config() -> GcConfig {
    GcConfig::svagc(4).with_verify_phases(true)
}

/// Crash the machine at `plans`, then reboot and recover; assert the
/// recovered heap hashes bit-identically to the pre-cycle snapshot.
fn crash_and_recover_to_pre(plans: Vec<CrashPlan>, seed: u64) -> CycleClass {
    let (mut k, mut h, mut roots) = build_world(seed);
    let pre_hash = HeapVerifier::new().content_hash(&k, &mut h);
    let pre_roots = roots.snapshot();
    k.set_crash_plans(plans.clone());
    let mut gc = Lisp2Collector::new(gc_config());
    let point = match gc.collect(&mut k, &mut h, &mut roots) {
        Err(GcError::Crashed { point }) => point,
        Err(other) => panic!("{plans:?}: expected Crashed, got {other}"),
        Ok(_) => panic!("{plans:?}: the cycle committed — the crash point never fired"),
    };
    assert_eq!(k.crashed(), Some(point), "the kernel latched the crash");

    // The machine is dead: only durable state survives the reboot.
    let space = h.into_space();
    k.reboot();
    let ok = recover(&mut k, space, CORE).unwrap_or_else(|f| {
        panic!("{plans:?}: recovery refused: {}", f.error);
    });
    let mut heap = ok.heap;
    assert_eq!(
        ok.report.content_hash, pre_hash,
        "{plans:?}: recovered heap must be bit-identical to the PRE-cycle snapshot"
    );
    assert_eq!(
        HeapVerifier::new().content_hash(&k, &mut heap),
        pre_hash,
        "{plans:?}: re-hash agrees"
    );
    assert_eq!(ok.roots.snapshot(), pre_roots, "{plans:?}: roots restored");
    assert_eq!(
        k.tlb_oracle_stats().stale_hits,
        0,
        "{plans:?}: no stale translation during recovery replay"
    );
    // The recovered heap is a working heap: the next full cycle commits.
    let mut roots2 = ok.roots;
    let mut gc2 = Lisp2Collector::new(gc_config());
    gc2.collect(&mut k, &mut heap, &mut roots2)
        .unwrap_or_else(|e| panic!("{plans:?}: post-recovery cycle failed: {e}"));
    ok.report.class
}

#[test]
fn every_mid_cycle_crash_point_recovers_to_the_pre_cycle_snapshot() {
    for point in [
        CrashPoint::BeforeBatchApply,
        CrashPoint::InsideBatchApply,
        CrashPoint::AfterBatchApply,
        CrashPoint::MidIpi,
        CrashPoint::MidLogAppend,
    ] {
        let class = crash_and_recover_to_pre(vec![CrashPlan::first(point)], SEED);
        assert!(
            matches!(class, CycleClass::Torn | CycleClass::Uncommitted),
            "{point}: classified {class:?}"
        );
    }
    // Later occurrences hit different cycle positions (deeper in the
    // batch stream, the epilogue broadcast, …). Seeds are paired with
    // worlds known to offer that many firing opportunities.
    for (plan, seed) in [
        (CrashPlan::nth(CrashPoint::InsideBatchApply, 2), SEED),
        (CrashPlan::nth(CrashPoint::MidIpi, 2), SEED + 7),
        (CrashPlan::nth(CrashPoint::MidLogAppend, 3), SEED + 7),
    ] {
        crash_and_recover_to_pre(vec![plan], seed);
    }
}

#[test]
fn mid_rollback_crash_leaves_a_torn_epoch_recovery_undoes() {
    // An unrecoverable fault forces an abort; the crash kills the machine
    // partway through the in-process rollback. The WAL epoch stays open,
    // and recovery's idempotent undo finishes what the rollback started.
    let (mut k, mut h, mut roots) = build_world(SEED + 1);
    let pre_hash = HeapVerifier::new().content_hash(&k, &mut h);
    k.set_fault_plan(Some(FaultPlan::new(
        FaultConfig {
            p_transient: 0.0,
            p_invalid: 1.0,
            p_nomem: 0.0,
            p_timeout: 0.0,
            seed: 3,
        },
    )));
    k.set_crash_plans(vec![CrashPlan::nth(CrashPoint::MidRollback, 2)]);
    let mut gc = Lisp2Collector::new(
        gc_config().with_retry_policy(
            RetryPolicy::default().with_fallback_budget(Some(0)),
        ),
    );
    let err = gc.collect(&mut k, &mut h, &mut roots).unwrap_err();
    assert!(
        matches!(err, GcError::Crashed { point: CrashPoint::MidRollback }),
        "got {err}"
    );

    let space = h.into_space();
    k.reboot();
    k.set_fault_plan(None);
    let ok = recover(&mut k, space, CORE).unwrap_or_else(|f| panic!("{}", f.error));
    assert_eq!(ok.report.class, CycleClass::Torn);
    assert!(ok.report.undone_ops > 0, "recovery re-ran the undo");
    assert_eq!(ok.report.content_hash, pre_hash, "pre-cycle snapshot, bit-for-bit");
}

#[test]
fn double_crash_inside_recovery_is_restartable() {
    let (mut k, mut h, mut roots) = build_world(SEED + 2);
    let pre_hash = HeapVerifier::new().content_hash(&k, &mut h);
    // First crash mid-cycle; the second plan stays armed (crash plans are
    // durable config of the harness) and kills recovery's undo pass.
    k.set_crash_plans(vec![
        CrashPlan::first(CrashPoint::AfterBatchApply),
        CrashPlan::nth(CrashPoint::InsideRecovery, 2),
    ]);
    let mut gc = Lisp2Collector::new(gc_config());
    let err = gc.collect(&mut k, &mut h, &mut roots).unwrap_err();
    assert!(matches!(err, GcError::Crashed { .. }), "got {err}");

    let space = h.into_space();
    k.reboot();
    let failure = recover(&mut k, space, CORE).unwrap_err();
    assert!(
        matches!(
            failure.error,
            RecoveryError::Crashed { point: CrashPoint::InsideRecovery }
        ),
        "got {}",
        failure.error
    );

    // Second reboot: the undo already half-applied is re-applied from
    // scratch — pre-images are absolute, so the replay is idempotent.
    k.reboot();
    let ok = recover(&mut k, failure.space, CORE).unwrap_or_else(|f| panic!("{}", f.error));
    assert_eq!(ok.report.class, CycleClass::Torn);
    assert_eq!(ok.report.content_hash, pre_hash, "no hybrid after the double crash");
}

#[test]
fn clean_committed_log_recovers_to_the_post_cycle_snapshot() {
    let (mut k, mut h, mut roots) = build_world(SEED + 3);
    let mut gc = Lisp2Collector::new(gc_config());
    gc.collect(&mut k, &mut h, &mut roots).unwrap();
    let post_hash = HeapVerifier::new().content_hash(&k, &mut h);
    let post_roots = roots.snapshot();

    // Crash between cycles (simulated by a bare reboot): the last epoch
    // is committed, so recovery adopts the post-cycle snapshot verbatim.
    let space = h.into_space();
    k.reboot();
    let ok = recover(&mut k, space, CORE).unwrap_or_else(|f| panic!("{}", f.error));
    assert_eq!(ok.report.class, CycleClass::Committed);
    assert_eq!(ok.report.undone_ops, 0, "nothing to undo");
    assert_eq!(ok.report.content_hash, post_hash, "post-cycle snapshot, bit-for-bit");
    assert_eq!(ok.roots.snapshot(), post_roots);
}

#[test]
fn in_process_abort_resolves_the_epoch_for_recovery() {
    // An aborted-and-rolled-back cycle writes an abort record; recovery
    // after a later bare reboot classifies it resolved and adopts the
    // pre-cycle state without undoing anything. (Seed 0x7AC72 is the
    // transactions-suite world whose compaction provably attempts swaps.)
    let (mut k, mut h, mut roots) = build_world(0x7AC72);
    let pre_hash = HeapVerifier::new().content_hash(&k, &mut h);
    k.set_fault_plan(Some(FaultPlan::new(
        FaultConfig {
            p_transient: 0.0,
            p_invalid: 1.0,
            p_nomem: 0.0,
            p_timeout: 0.0,
            seed: 11,
        },
    )));
    let mut gc = Lisp2Collector::new(gc_config().with_retry_policy(
        RetryPolicy::default().with_fallback_budget(Some(0)),
    ));
    gc.collect(&mut k, &mut h, &mut roots).unwrap_err();

    let space = h.into_space();
    k.reboot();
    let ok = recover(&mut k, space, CORE).unwrap_or_else(|f| panic!("{}", f.error));
    assert_eq!(ok.report.class, CycleClass::Aborted);
    assert_eq!(ok.report.undone_ops, 0);
    assert_eq!(ok.report.content_hash, pre_hash);
}

/// Teeth: suppressing commit records (so a committed epoch masquerades as
/// torn) must make recovery fail closed once a later epoch exists — the
/// unresolved-epoch rule refuses the log instead of undoing into later
/// cycles' state.
#[test]
fn skip_commit_mutation_fails_closed_on_multi_cycle_logs() {
    let (mut k, mut h, mut roots) = build_world(SEED + 5);
    k.set_wal_mutation(Some(WalMutation::SkipCommit));
    let mut gc = Lisp2Collector::new(gc_config());
    gc.collect(&mut k, &mut h, &mut roots).unwrap();
    gc.collect(&mut k, &mut h, &mut roots).unwrap();
    assert!(k.wal_stats().commits_skipped >= 2, "mutation active");

    let space = h.into_space();
    k.reboot();
    let failure = recover(&mut k, space, CORE).unwrap_err();
    assert!(
        matches!(failure.error, RecoveryError::BadLog(_)),
        "got {}",
        failure.error
    );
}

/// Teeth: dropping an intent record makes the undo incomplete — the
/// rebuilt heap is a hybrid, and the content-hash oracle must catch it.
#[test]
fn drop_intent_mutation_is_caught_as_a_hybrid_heap() {
    let (mut k, mut h, mut roots) = build_world(SEED + 6);
    k.set_wal_mutation(Some(WalMutation::DropIntent));
    k.set_crash_plans(vec![CrashPlan::nth(CrashPoint::AfterBatchApply, 1)]);
    let mut gc = Lisp2Collector::new(gc_config());
    let err = gc.collect(&mut k, &mut h, &mut roots).unwrap_err();
    assert!(matches!(err, GcError::Crashed { .. }), "got {err}");
    assert!(k.wal_stats().intents_dropped >= 1, "mutation active");

    let space = h.into_space();
    k.reboot();
    let failure = recover(&mut k, space, CORE).unwrap_err();
    assert!(
        matches!(failure.error, RecoveryError::HybridHeap { .. }),
        "a missing intent must surface as a hybrid heap, got {}",
        failure.error
    );
}

/// A WAL-armed fault-free run commits bit-identically to a WAL-less run:
/// the logging is observationally free at the heap level.
#[test]
fn wal_logging_does_not_perturb_committed_heaps() {
    let (mut k1, mut h1, mut r1) = build_world_with(SEED + 8, true);
    let mut g1 = Lisp2Collector::new(gc_config());
    g1.collect(&mut k1, &mut h1, &mut r1).unwrap();

    let (mut k2, mut h2, mut r2) = build_world_with(SEED + 8, false);
    let mut g2 = Lisp2Collector::new(gc_config());
    g2.collect(&mut k2, &mut h2, &mut r2).unwrap();
    assert_eq!(
        HeapVerifier::new().content_hash(&k1, &mut h1),
        HeapVerifier::new().content_hash(&k2, &mut h2),
        "WAL on vs off: committed heaps identical"
    );
    assert_eq!(r1.snapshot(), r2.snapshot());
}

/// Frames mapped more than once in `heap`'s range (empty when the page
/// table is a proper injection, as every swap and rotation keeps it).
fn frames_mapped_twice(heap: &Heap) -> Vec<u64> {
    let mut frames: Vec<u64> = (0..(heap.end() - heap.base()) / PAGE_SIZE)
        .filter_map(|i| heap.space().page_table().pte(heap.base().add_pages(i)))
        .filter(|pte| pte.present())
        .map(|pte| pte.frame().0 as u64)
        .collect();
    frames.sort_unstable();
    let mut twice: Vec<u64> = frames.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
    twice.dedup();
    twice
}

#[test]
fn torn_cycle_with_a_rotation_recovers_the_exact_mapping() {
    // Garbage, then two live objects: compaction slides the 12-page one
    // down by a disjoint swap and the 18-page one by an overlap rotation
    // over a window that contains the first one's old pages. Crashing
    // after the (aggregated) batch leaves both applied; undo must restore
    // the rotation's mapping exactly before it reinstalls the swap's raw
    // PTEs, or frames end up mapped twice and the heap is a hybrid.
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
    k.set_wal_enabled(true);
    k.set_tlb_oracle(true);
    let mut h = Heap::new(&mut k, Asid(1), HeapConfig::new(8 << 20)).unwrap();
    let mut roots = RootSet::new();
    for (i, pages) in [12u64, 12, 18].into_iter().enumerate() {
        let shape = ObjShape::data_bytes(pages * PAGE_SIZE);
        let (obj, _) = h.alloc(&mut k, CORE, shape).unwrap();
        for w in (0..shape.data_words as u64).step_by(61) {
            h.write_data(&mut k, CORE, obj, 0, w, (i as u64) << 32 | w).unwrap();
        }
        if i > 0 {
            roots.push(obj);
        }
    }
    let pre_hash = HeapVerifier::new().content_hash(&k, &mut h);
    k.set_crash_plans(vec![CrashPlan::nth(CrashPoint::AfterBatchApply, 1)]);
    let mut gc = Lisp2Collector::new(GcConfig::svagc(1).with_verify_phases(true));
    assert!(matches!(
        gc.collect(&mut k, &mut h, &mut roots),
        Err(GcError::Crashed {
            point: CrashPoint::AfterBatchApply
        })
    ));
    let space = h.into_space();
    k.reboot();
    let ok = recover(&mut k, space, CORE).unwrap_or_else(|f| panic!("{}", f.error));
    assert_eq!(ok.report.class, CycleClass::Torn);
    assert_eq!(ok.report.content_hash, pre_hash);
    assert!(frames_mapped_twice(&ok.heap).is_empty(), "a frame is mapped twice");
}
