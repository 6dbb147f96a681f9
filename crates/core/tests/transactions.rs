//! Transactional GC cycles: abort, rollback, watchdog deadlines, and the
//! degraded-mode circuit breaker — the acceptance suite.
//!
//! The central claims under test:
//!
//! 1. An **unrecoverable** mid-compaction fault (the fallback budget runs
//!    dry) aborts the cycle, and the rollback restores the heap
//!    **bit-for-bit**: `HeapVerifier::content_hash` after the abort equals
//!    the pre-GC hash exactly.
//! 2. With the circuit breaker enabled, the aborted cycle **retries
//!    degraded** within the same `collect` call (MemmoveOnly never enters
//!    the faulty SwapVA path) and commits a heap identical to a fault-free
//!    run's.
//! 3. After the configured number of clean cycles, the controller
//!    **recovers** one level per probation back to Normal.
//! 4. Watchdog deadline expiry rides the exact same abort path.

use svagc_core::{
    DegradePolicy, DegradedMode, GcConfig, GcError, Lisp2Collector, MinorGc, RetryPolicy,
};
use svagc_heap::{GenHeap, Heap, HeapConfig, HeapVerifier, ObjRef, ObjShape, RootSet};
use svagc_kernel::{CoreId, FaultConfig, FaultPlan, Kernel};
use svagc_metrics::{MachineConfig, SimRng, TraceKind};
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);
const SEED: u64 = 0x7AC71;

/// Permanent-only fault mix (EINVAL/ENOMEM): no retry can absorb these.
fn permanent_only(p: f64, seed: u64) -> FaultConfig {
    FaultConfig {
        p_transient: 0.0,
        p_invalid: p / 2.0,
        p_nomem: p / 2.0,
        p_timeout: 0.0,
        seed,
    }
}

/// A strict retry policy under which any permanent fault is unrecoverable:
/// zero memmove fallbacks are tolerated per executor call.
fn strict_retry() -> RetryPolicy {
    RetryPolicy::default().with_fallback_budget(Some(0))
}

fn build_world(seed: u64) -> (Kernel, Heap, RootSet) {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 100 << 20);
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

/// The headline acceptance scenario: a seeded run with an injected
/// unrecoverable mid-compaction fault aborts the cycle, rolls back to the
/// exact pre-GC content hash, re-runs degraded (MemmoveOnly) within the
/// same call, commits a heap bit-identical to a fault-free run, and
/// recovers to Normal after the configured clean cycles.
#[test]
fn unrecoverable_fault_aborts_degrades_and_recovers() {
    // Reference: the same world collected fault-free.
    let (mut rk, mut rh, mut rroots) = build_world(SEED);
    let mut rgc = Lisp2Collector::new(GcConfig::svagc(4).with_verify_phases(true));
    rgc.collect(&mut rk, &mut rh, &mut rroots).unwrap();
    let reference_hash = HeapVerifier::new().content_hash(&rk, &mut rh);

    // Faulty run: every SwapVA call faults permanently, and the strict
    // policy makes the very first demotion unrecoverable.
    let (mut k, mut h, mut roots) = build_world(SEED);
    k.set_fault_plan(Some(FaultPlan::new(permanent_only(1.0, 99))));
    let cfg = GcConfig::svagc(4)
        .with_verify_phases(true)
        .with_retry_policy(strict_retry())
        .with_degrade(DegradePolicy {
            enabled: true,
            probation: 2,
        });
    let mut gc = Lisp2Collector::new(cfg);
    let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();

    assert!(stats.aborts >= 1, "the Normal attempt must abort");
    assert!(stats.rollback_pages > 0, "rollback rewrote pages");
    assert!(stats.abort_overhead.get() > 0, "aborts cost pause time");
    assert_eq!(stats.mode, 1, "committed attempt ran MemmoveOnly");
    assert_eq!(stats.swapped_objects, 0, "degraded mode never swaps");
    assert_eq!(gc.degrade.mode(), DegradedMode::MemmoveOnly);
    assert_eq!(
        HeapVerifier::new().content_hash(&k, &mut h),
        reference_hash,
        "degraded commit is bit-identical to the fault-free run"
    );

    // Probation: two clean cycles step back to Normal.
    k.set_fault_plan(None);
    let s2 = gc.collect(&mut k, &mut h, &mut roots).unwrap();
    assert_eq!(s2.mode, 1, "still degraded during probation");
    assert_eq!(s2.aborts, 0);
    assert_eq!(gc.degrade.mode(), DegradedMode::Normal, "probation served");
    let s3 = gc.collect(&mut k, &mut h, &mut roots).unwrap();
    assert_eq!(s3.mode, 0, "back to Normal");
    assert!(s3.swapped_objects > 0 || s3.moved_objects == 0, "SwapVA re-enabled");
}

/// With the circuit breaker off, the abort propagates — but only after the
/// rollback has restored the exact pre-GC heap, roots included.
#[test]
fn exhausted_ladder_propagates_after_exact_rollback() {
    let (mut k, mut h, mut roots) = build_world(SEED + 1);
    let pre_hash = HeapVerifier::new().content_hash(&k, &mut h);
    let pre_roots = roots.snapshot();
    let pre_top = h.top();
    k.set_fault_plan(Some(FaultPlan::new(permanent_only(1.0, 5))));
    let mut gc = Lisp2Collector::new(
        GcConfig::svagc(4)
            .with_verify_phases(true)
            .with_retry_policy(strict_retry()), // degrade stays off
    );
    let err = gc.collect(&mut k, &mut h, &mut roots).unwrap_err();
    assert!(err.is_operational(), "surfaced as the original fault: {err}");
    assert_eq!(
        HeapVerifier::new().content_hash(&k, &mut h),
        pre_hash,
        "bit-for-bit pre-GC heap after the abort"
    );
    assert_eq!(roots.snapshot(), pre_roots, "roots restored");
    assert_eq!(h.top(), pre_top, "allocation cursor restored");
    assert!(gc.log.cycles.is_empty(), "no cycle was committed");
    let verifier = HeapVerifier::new();
    assert!(verifier.verify_layout(&k, &mut h).is_clean());
    assert!(verifier.verify_boundaries(&k, &mut h).is_clean());
    assert!(k.perf.rollback_pages > 0, "kernel accounted the rollback");
}

/// Watchdog expiry rides the same abort path: an impossible deadline
/// aborts every rung of the ladder, the error surfaces as `Deadline`, and
/// the heap is untouched. Disarming the watchdog lets the (still
/// degraded) collector commit.
#[test]
fn watchdog_expiry_aborts_rolls_back_and_reports() {
    let (mut k, mut h, mut roots) = build_world(SEED + 2);
    let pre_hash = HeapVerifier::new().content_hash(&k, &mut h);
    let cfg = GcConfig::svagc(4)
        .with_verify_phases(true)
        .with_deadline(Some(1)) // no phase fits in one cycle
        .with_degrade(DegradePolicy::standard());
    let mut gc = Lisp2Collector::new(cfg);
    let err = gc.collect(&mut k, &mut h, &mut roots).unwrap_err();
    // With the breaker enabled, running out of rungs is its own outcome:
    // the deadline that exhausted the ladder rides inside.
    let inner = match err {
        GcError::Exhausted(inner) => *inner,
        other => panic!("expected Exhausted, got {other}"),
    };
    match inner {
        GcError::Deadline { phase, elapsed, budget } => {
            assert_eq!(budget.get(), 1);
            assert!(elapsed.get() > 1, "{phase} exceeded the budget");
        }
        other => panic!("expected Deadline inside Exhausted, got {other}"),
    }
    assert_eq!(
        gc.degrade.mode(),
        DegradedMode::SingleThreaded,
        "the whole ladder was tried before giving up"
    );
    assert_eq!(HeapVerifier::new().content_hash(&k, &mut h), pre_hash);

    // Disarm the watchdog: the next cycle commits in the degraded mode the
    // breaker is still holding.
    gc.cfg.deadline_cycles = None;
    let stats = gc.collect(&mut k, &mut h, &mut roots).unwrap();
    assert_eq!(stats.mode, 2, "committed single-threaded");
    assert_eq!(stats.aborts, 0);
    assert_eq!(
        HeapVerifier::new().verify_post_compact(&k, &mut h, &roots).violations.len(),
        0
    );
}

/// A generous deadline never fires and perturbs nothing: stats and heap
/// hash match a watchdog-less run exactly.
#[test]
fn generous_deadline_is_invisible() {
    let (mut k1, mut h1, mut r1) = build_world(SEED + 3);
    let mut g1 = Lisp2Collector::new(GcConfig::svagc(4).with_verify_phases(true));
    let s1 = g1.collect(&mut k1, &mut h1, &mut r1).unwrap();
    let (mut k2, mut h2, mut r2) = build_world(SEED + 3);
    let mut g2 = Lisp2Collector::new(
        GcConfig::svagc(4)
            .with_verify_phases(true)
            .with_deadline(Some(u64::MAX / 2))
            .with_degrade(DegradePolicy::standard()),
    );
    let s2 = g2.collect(&mut k2, &mut h2, &mut r2).unwrap();
    assert_eq!(s1.pause(), s2.pause());
    assert_eq!(s2.aborts, 0);
    assert_eq!(s2.watchdog_expiries, 0);
    assert_eq!(
        HeapVerifier::new().content_hash(&k1, &mut h1),
        HeapVerifier::new().content_hash(&k2, &mut h2)
    );
}

/// Minor-GC transactions: an unrecoverable promotion fault rolls back the
/// old generation AND leaves eden intact, then the degraded retry promotes
/// everything by copy — ending bit-identical to a fault-free scavenge.
#[test]
fn minor_scavenge_aborts_and_retries_degraded() {
    let build = |k: &mut Kernel| -> (GenHeap, RootSet) {
        let mut gh = GenHeap::new(k, Asid(1), 64 << 20, 8 << 20, 10).unwrap();
        let mut roots = RootSet::new();
        for i in 0..10u64 {
            let shape = ObjShape::data_bytes(12 * PAGE_SIZE);
            let (obj, _) = gh.alloc_young(k, CORE, shape).unwrap();
            gh.old.write_data(k, CORE, obj, 0, 0, 0x500 + i).unwrap();
            if i % 2 == 0 {
                roots.push(obj);
            }
        }
        (gh, roots)
    };

    // Reference scavenge, fault-free.
    let mut rk = Kernel::with_bytes(MachineConfig::i5_7600(), 96 << 20);
    let (mut rgh, mut rroots) = build(&mut rk);
    MinorGc::new(GcConfig::svagc(4))
        .collect(&mut rk, &mut rgh, &mut rroots)
        .unwrap();
    let reference_hash = HeapVerifier::new().content_hash(&rk, &mut rgh.old);

    // Faulty scavenge with the strict policy and the breaker on.
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 96 << 20);
    let (mut gh, mut roots) = build(&mut k);
    k.set_fault_plan(Some(FaultPlan::new(permanent_only(1.0, 21))));
    let mut minor = MinorGc::new(GcConfig {
        retry: strict_retry(),
        degrade: DegradePolicy::standard(),
        ..GcConfig::svagc(4)
    });
    let stats = minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert!(stats.aborts >= 1);
    assert_eq!(stats.mode, 1, "committed MemmoveOnly");
    assert_eq!(stats.swapped_objects, 0);
    assert_eq!(gh.eden_used(), 0, "eden reset only after the commit");
    assert_eq!(
        HeapVerifier::new().content_hash(&k, &mut gh.old),
        reference_hash,
        "promoted old generation is bit-identical to the fault-free scavenge"
    );
}

/// Minor-GC structural errors still propagate: promotion overflow must
/// surface as `NeedGc` (so the driver runs a full collection), not be
/// retried by the breaker — and the rollback leaves eden populated so the
/// full GC + re-scavenge can actually happen.
#[test]
fn minor_need_gc_propagates_through_the_transaction() {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 64 << 20);
    // Old generation too small for the young survivors.
    let mut gh = GenHeap::new(&mut k, Asid(1), 1 << 20, 8 << 20, 10).unwrap();
    let mut roots = RootSet::new();
    for i in 0..20u64 {
        let (obj, _) = gh
            .alloc_young(&mut k, CORE, ObjShape::data_bytes(60 << 10))
            .unwrap();
        gh.old.write_data(&mut k, CORE, obj, 0, 0, i).unwrap();
        roots.push(obj);
    }
    let young_before = gh.young_objects().len();
    let mut minor = MinorGc::new(GcConfig {
        degrade: DegradePolicy::standard(),
        ..GcConfig::svagc(2)
    });
    let err = minor.collect(&mut k, &mut gh, &mut roots).unwrap_err();
    assert!(
        matches!(err, GcError::Heap(svagc_heap::HeapError::NeedGc { .. })),
        "got {err}"
    );
    assert_eq!(gh.young_objects().len(), young_before, "eden untouched");
    assert_eq!(
        minor.degrade.mode(),
        DegradedMode::Normal,
        "structural errors do not trip the breaker"
    );
}

/// A scavenge pays for its aborted attempts (DESIGN.md §8.1): the
/// reported pause covers the failed attempt and its rollback on top of
/// the committed one, and the committed attempt starts after them on the
/// GC timeline.
#[test]
fn minor_aborted_attempts_are_part_of_the_pause() {
    let build = |k: &mut Kernel| -> (GenHeap, RootSet) {
        let mut gh = GenHeap::new(k, Asid(1), 64 << 20, 8 << 20, 10).unwrap();
        let mut roots = RootSet::new();
        for i in 0..10u64 {
            let shape = ObjShape::data_bytes(12 * PAGE_SIZE);
            let (obj, _) = gh.alloc_young(k, CORE, shape).unwrap();
            gh.old.write_data(k, CORE, obj, 0, 0, 0x700 + i).unwrap();
            if i % 2 == 0 {
                roots.push(obj);
            }
        }
        (gh, roots)
    };
    // The committed attempt alone: the degraded (memmove-only) scavenge.
    let mut rk = Kernel::with_bytes(MachineConfig::i5_7600(), 96 << 20);
    let (mut rgh, mut rroots) = build(&mut rk);
    let degraded = GcConfig {
        use_swapva: false,
        aggregation: None,
        ..GcConfig::svagc(4)
    };
    let committed = MinorGc::new(degraded)
        .collect(&mut rk, &mut rgh, &mut rroots)
        .unwrap()
        .pause;

    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 96 << 20);
    k.set_tracing(true);
    let (mut gh, mut roots) = build(&mut k);
    k.set_fault_plan(Some(FaultPlan::new(permanent_only(1.0, 21))));
    let mut minor = MinorGc::new(GcConfig {
        retry: strict_retry(),
        degrade: DegradePolicy::standard(),
        ..GcConfig::svagc(4)
    });
    let stats = minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.aborts, 1, "the first attempt aborted");
    // The aborted attempt re-ran the trace, forward and adjust phases the
    // committed one runs, so it costs well over half of it.
    assert!(
        stats.pause > committed + committed / 2,
        "pause {} must include the aborted attempt beyond the committed {committed}",
        stats.pause
    );
    let events = k.take_trace();
    if let Some(span) = events.iter().find(|e| e.kind == TraceKind::MinorCycle) {
        let abort = events.iter().find(|e| e.kind == TraceKind::CycleAbort).unwrap();
        assert!(abort.arg("rollback_ops").unwrap() > 0);
        assert_eq!(
            span.ts + span.dur.unwrap(),
            stats.pause,
            "the committed attempt follows the aborted one on the timeline"
        );
    }
}
