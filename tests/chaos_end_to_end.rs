//! End-to-end chaos: real workloads driven through the full driver with
//! kernel fault injection enabled. Every GC cycle must complete, the
//! per-phase verifier must stay silent, and the final live heap must be
//! bit-identical to a fault-free run of the same workload.

use svagc::kernel::FaultConfig;
use svagc::workloads::driver::{run, CollectorKind, RunConfig, RunResult};
use svagc::workloads::suite;

const CHAOS_SEED: u64 = 0xFA017;

fn chaos_run(name: &str, fault_rate: f64) -> RunResult {
    let mut w = suite::by_name(name).unwrap();
    let mut cfg = RunConfig::new(CollectorKind::Svagc).with_faults(fault_rate, CHAOS_SEED);
    cfg.gc.verify_phases = true;
    run(w.as_mut(), &cfg).unwrap_or_else(|e| panic!("{name} at p={fault_rate}: {e}"))
}

/// The ISSUE acceptance scenario: LRUCache at a 1% fault rate with a fixed
/// seed completes every GC cycle, reports zero verifier violations, records
/// nonzero resilience counters, and ends bit-identical to the fault-free run.
#[test]
fn lrucache_one_percent_faults_bit_identical() {
    let clean = chaos_run("LRUCache", 0.0);
    let faulty = chaos_run("LRUCache", 0.01);

    assert!(clean.verify_ok && faulty.verify_ok);
    assert!(faulty.gc.count() >= 2, "GC must trigger under faults");
    assert_eq!(
        faulty.gc.count(),
        clean.gc.count(),
        "faults must not change the GC schedule"
    );
    assert!(
        faulty.gc.total_faults_injected() > 0,
        "a 1% plan over a full run must fire"
    );
    assert!(
        faulty.gc.total_swap_retries() + faulty.gc.total_swap_fallbacks() > 0,
        "injected faults must surface as retries or fallbacks"
    );
    assert_eq!(
        faulty.heap_hash, clean.heap_hash,
        "faulty run must end with a bit-identical live heap"
    );
    // Verifier ran after every phase of every cycle and stayed silent
    // (a violation would have failed the run with GcError::Corruption).
    for c in &faulty.gc.cycles {
        assert_eq!(c.verify_violations, 0);
    }
}

/// A cross-section of the workload suite at 1% transient-and-permanent
/// faults: everything completes and matches its fault-free heap.
#[test]
fn suite_cross_section_survives_one_percent_faults() {
    for name in ["Sigverify", "Bisort", "SOR.large x10"] {
        let clean = chaos_run(name, 0.0);
        let faulty = chaos_run(name, 0.01);
        assert!(faulty.verify_ok, "{name}: end-of-run verification failed");
        assert_eq!(
            faulty.heap_hash, clean.heap_hash,
            "{name}: heap diverged under faults"
        );
        assert_eq!(faulty.gc.count(), clean.gc.count(), "{name}: GC schedule");
    }
}

/// Aggregated SwapVA (the paper's batched syscall) under end-to-end faults:
/// batches split and resume without corrupting the heap.
#[test]
fn aggregated_collector_splits_batches_under_faults() {
    // SOR.large's 64 KB objects (17 pages) pack 4 requests under the
    // 80-page batch budget, well below the default cap of 32 requests;
    // Sigverify's 1 MB objects would flush one by one.
    let run_kind = |fault_rate: f64| {
        let mut w = suite::by_name("SOR.large").unwrap();
        let mut cfg = RunConfig::new(CollectorKind::Svagc).with_faults(fault_rate, CHAOS_SEED);
        cfg.gc.verify_phases = true;
        run(w.as_mut(), &cfg).unwrap()
    };
    let clean = run_kind(0.0);
    let faulty = run_kind(0.05);
    assert!(faulty.verify_ok);
    assert_eq!(faulty.heap_hash, clean.heap_hash);
    assert!(
        faulty.gc.total_batch_splits() > 0,
        "5% faults over batched swaps must split at least one batch"
    );
}

/// Escalating fault rates (10% and 50% of all swap requests): the retry
/// ladder plus memmove fallback must absorb every injected fault and the
/// live heap must stay bit-identical at every rate.
#[test]
fn heavy_fault_rates_stay_bit_identical() {
    let clean = chaos_run("LRUCache", 0.0);
    for rate in [0.10, 0.50] {
        let faulty = chaos_run("LRUCache", rate);
        assert!(faulty.verify_ok, "p={rate}: verification failed");
        assert_eq!(
            faulty.heap_hash, clean.heap_hash,
            "p={rate}: heap diverged under faults"
        );
        assert_eq!(faulty.gc.count(), clean.gc.count(), "p={rate}: GC schedule");
        assert!(faulty.gc.total_faults_injected() > 0, "p={rate}: plan never fired");
        assert_eq!(faulty.gc.total_aborts(), 0, "p={rate}: default policy must absorb");
    }
    // At 50%, permanent faults in the uniform mix are frequent enough that
    // the fallback path must have been taken.
    let heavy = chaos_run("LRUCache", 0.50);
    assert!(heavy.gc.total_swap_fallbacks() > 0, "50% must force fallbacks");
}

/// Permanent-only faults (EINVAL/ENOMEM — nothing is retryable) with a
/// zero fallback budget: every swap-phase attempt is unrecoverable, so each
/// affected cycle must abort, roll back through the journal, and re-run
/// degraded. The standard policy lands in memmove-only mode, whose cycles
/// perform no swaps and therefore see no faults — so the run completes and
/// the final heap is still bit-identical to the fault-free reference.
#[test]
fn permanent_only_faults_abort_rollback_and_degrade() {
    let run_kind = |fault_rate: f64| {
        let mut w = suite::by_name("LRUCache").unwrap();
        let mut cfg = RunConfig::new(CollectorKind::Svagc);
        cfg.gc.verify_phases = true;
        cfg.gc.degrade = svagc::gc::DegradePolicy::standard();
        cfg.gc.retry = svagc::gc::RetryPolicy {
            max_retries: 2,
            fallback_budget: Some(0),
            ..svagc::gc::RetryPolicy::default()
        };
        cfg.faults = Some(FaultConfig::permanent_only(fault_rate, CHAOS_SEED));
        run(w.as_mut(), &cfg).unwrap_or_else(|e| panic!("p={fault_rate}: {e}"))
    };
    let clean = run_kind(0.0);
    let faulty = run_kind(1.0);
    assert!(faulty.verify_ok);
    assert_eq!(
        faulty.heap_hash, clean.heap_hash,
        "rollback + degraded re-run must converge to the fault-free heap"
    );
    assert!(faulty.gc.total_aborts() > 0, "p=1 permanent faults must abort");
    assert!(faulty.gc.total_rollback_pages() > 0, "aborts must roll pages back");
    assert_eq!(
        faulty.gc.max_mode(),
        1,
        "policy says one escalation to memmove-only ends the faults"
    );
    // Mode transitions must match the policy: a cycle either committed in
    // Normal mode with no aborts, or aborted exactly once and committed in
    // memmove-only (level 1) with zero swaps.
    for c in &faulty.gc.cycles {
        if c.aborts > 0 {
            assert_eq!(c.mode, 1, "an aborted cycle must commit degraded");
            assert_eq!(c.swapped_objects, 0, "memmove-only performs no swaps");
        }
        assert_eq!(c.verify_violations, 0);
    }
    // The clean run must not touch the transactional machinery at all.
    assert_eq!(clean.gc.total_aborts(), 0);
    assert_eq!(clean.gc.max_mode(), 0);
}

/// Forced watchdog expiry end to end: a 1-cycle per-phase budget is
/// impossible to meet in any mode, so the cycle aborts, degradation walks
/// the whole ladder, and the error propagates out of the driver — while a
/// generous budget is invisible (same hash as the no-deadline run).
#[test]
fn forced_watchdog_expiry_propagates_and_generous_budget_is_invisible() {
    let run_kind = |deadline: Option<u64>| {
        let mut w = suite::by_name("Sigverify").unwrap();
        let mut cfg = RunConfig::new(CollectorKind::Svagc);
        cfg.gc.verify_phases = true;
        cfg.gc.deadline_cycles = deadline;
        cfg.gc.degrade = svagc::gc::DegradePolicy::standard();
        cfg.gc.gc_threads = 4;
        run(w.as_mut(), &cfg)
    };
    let reference = run_kind(None).expect("no deadline");
    let generous = run_kind(Some(u64::MAX / 2)).expect("generous deadline");
    assert_eq!(generous.heap_hash, reference.heap_hash, "armed watchdog must be free");
    assert_eq!(generous.gc.total_watchdog_expiries(), 0);
    assert_eq!(generous.gc.total_aborts(), 0);

    let err = run_kind(Some(1)).expect_err("a 1-cycle budget cannot be met");
    assert!(
        err.contains("watchdog deadline expired"),
        "driver must surface the watchdog error, got: {err}"
    );
}

/// Chaos under the stale-translation oracle: a faulty run (retries,
/// fallbacks, batch splits — every recovery path exercised) must still
/// never let any core translate through a stale TLB entry, and watching
/// for that must not perturb a single simulated byte.
#[test]
fn chaos_under_tlb_oracle_is_stale_free_and_invisible() {
    let plain = chaos_run("LRUCache", 0.10);

    let mut w = suite::by_name("LRUCache").unwrap();
    let mut cfg = RunConfig::new(CollectorKind::Svagc)
        .with_faults(0.10, CHAOS_SEED)
        .with_tlb_oracle(true);
    cfg.gc.verify_phases = true;
    // The driver fails closed on any stale hit or audit violation, so
    // unwrapping IS the oracle assertion.
    let watched = run(w.as_mut(), &cfg).expect("oracle must stay silent under chaos");

    assert!(watched.tlb_oracle.enabled);
    assert!(watched.tlb_oracle.checks > 0, "oracle must actually observe hits");
    assert_eq!(watched.tlb_oracle.stale_hits, 0);
    assert_eq!(watched.tlb_oracle.audit_violations, 0);
    assert_eq!(
        watched.heap_hash, plain.heap_hash,
        "the oracle is an observer: same seed, same bytes"
    );
    assert_eq!(watched.gc.count(), plain.gc.count());
}
