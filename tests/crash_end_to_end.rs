//! End-to-end crash consistency: real workloads driven through the full
//! driver with seeded crash points. A crash kills the simulated machine
//! (volatile state gone, durable WAL kept); recovery must rebuild a heap
//! bit-identical to the pre- or post-cycle snapshot — never a hybrid —
//! and the seeded log mutations must make recovery fail closed.

use svagc::gc::CycleClass;
use svagc::kernel::{CrashPlan, CrashPoint, WalMutation};
use svagc::workloads::driver::{
    run, run_classified, run_with_crash, CollectorKind, CrashOutcome, CrashReport,
    FailureKind, RunConfig,
};
use svagc::workloads::suite;

const SEED_WORKLOAD: &str = "LRUCache";

fn cfg_with(plans: Vec<CrashPlan>) -> RunConfig {
    let mut cfg = RunConfig::new(CollectorKind::Svagc)
        .with_crash_plans(plans)
        .with_tlb_oracle(true);
    cfg.gc.verify_phases = true;
    cfg
}

fn crash_run(plans: Vec<CrashPlan>, mutation: Option<WalMutation>) -> CrashReport {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = cfg_with(plans.clone()).with_wal_mutation(mutation);
    match run_with_crash(w.as_mut(), &cfg, true).unwrap_or_else(|f| panic!("{}", f.message)) {
        CrashOutcome::Crashed(rep) => *rep,
        CrashOutcome::Completed(_) => panic!("{plans:?}: no crash point fired"),
    }
}

/// Every mid-cycle crash point, injected into a real workload run,
/// recovers to a verified snapshot (the recovery state machine hashes
/// the rebuilt heap against the journaled snapshot and fails closed on
/// any mismatch — an `Ok` outcome IS the bit-identity proof).
#[test]
fn every_crash_point_recovers_on_a_real_workload() {
    let plans = [
        CrashPlan::first(CrashPoint::BeforeBatchApply),
        CrashPlan::first(CrashPoint::InsideBatchApply),
        CrashPlan::first(CrashPoint::AfterBatchApply),
        CrashPlan::first(CrashPoint::MidIpi),
        CrashPlan::first(CrashPoint::MidLogAppend),
    ];
    for plan in plans {
        let point = plan.point;
        let rep = crash_run(vec![plan], None);
        assert_eq!(rep.point, point);
        let summary = rep.recovery.expect("recovery was requested");
        let report = summary
            .outcome
            .unwrap_or_else(|e| panic!("{point}: recovery failed closed: {e}"));
        assert_eq!(summary.attempts, 1, "{point}: single crash, single attempt");
        assert!(
            report.objects > 0 && report.roots > 0,
            "{point}: recovery rebuilt an empty heap"
        );
        match report.class {
            // Crashes before the first mutation leave nothing to undo.
            CycleClass::Uncommitted => assert_eq!(report.undone_ops, 0, "{point}"),
            CycleClass::Torn => assert!(report.undone_ops > 0, "{point}"),
            other => panic!("{point}: unexpected cycle class {other:?}"),
        }
    }
}

/// A double crash — the plan also fires inside recovery — is retried:
/// the undo pass is idempotent, so the second attempt succeeds.
#[test]
fn double_crash_inside_recovery_retries_and_succeeds() {
    let rep = crash_run(
        vec![
            CrashPlan::first(CrashPoint::AfterBatchApply),
            CrashPlan::nth(CrashPoint::InsideRecovery, 2),
        ],
        None,
    );
    let summary = rep.recovery.expect("recovery was requested");
    assert!(summary.attempts >= 2, "the InsideRecovery plan must have fired");
    let report = summary.outcome.expect("second attempt must succeed");
    assert_eq!(report.class, CycleClass::Torn);
}

/// An armed plan whose occurrence count is never reached completes the
/// run normally, and the result matches a plain (crash-free) run bit for
/// bit — arming the WAL must not perturb the simulation.
#[test]
fn unfired_crash_plans_do_not_perturb_the_run() {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = cfg_with(vec![CrashPlan::nth(CrashPoint::MidIpi, 1_000_000)]);
    let armed = match run_with_crash(w.as_mut(), &cfg, true).unwrap() {
        CrashOutcome::Completed(r) => *r,
        CrashOutcome::Crashed(rep) => panic!("plan fired unexpectedly at {}", rep.point),
    };
    let mut w2 = suite::by_name(SEED_WORKLOAD).unwrap();
    let plain_cfg = cfg_with(Vec::new());
    let plain = run(w2.as_mut(), &plain_cfg).unwrap();
    assert_eq!(armed.heap_hash, plain.heap_hash);
    assert_eq!(armed.gc.count(), plain.gc.count());
}

/// `run_classified` surfaces a fired crash as a classified failure with
/// the stable exit code 13, naming the crash point.
#[test]
fn classified_run_reports_crashes_with_exit_code_13() {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = cfg_with(vec![CrashPlan::first(CrashPoint::MidIpi)]);
    let f = run_classified(w.as_mut(), &cfg).unwrap_err();
    assert_eq!(f.kind.exit_code(), 13);
    assert!(
        matches!(f.kind, FailureKind::Crash(CrashPoint::MidIpi)),
        "{:?}",
        f.kind
    );
    assert!(f.message.contains("mid-ipi"), "{}", f.message);
}

/// The exit-code contract scripts depend on (10/11/12/13/15/16, 1 for
/// the rest; 14 is the CLI-side recovery-failed code) is stable.
#[test]
fn failure_exit_codes_are_a_stable_contract() {
    assert_eq!(FailureKind::Watchdog.exit_code(), 10);
    assert_eq!(FailureKind::FaultAbort.exit_code(), 11);
    assert_eq!(FailureKind::DegradeExhausted.exit_code(), 12);
    assert_eq!(FailureKind::Crash(CrashPoint::MidIpi).exit_code(), 13);
    assert_eq!(FailureKind::OutOfMemory.exit_code(), 15);
    assert_eq!(FailureKind::DeviceFailed.exit_code(), 16);
    assert_eq!(FailureKind::Other.exit_code(), 1);
    // The labels are greppable CI surface, pinned alongside the codes.
    assert_eq!(FailureKind::OutOfMemory.label(), "out-of-memory");
    assert_eq!(FailureKind::FaultAbort.label(), "fault-abort");
    assert_eq!(FailureKind::DeviceFailed.label(), "device-failed");
}

/// Teeth: a WAL that silently drops a PTE-swap intent leaves a live
/// object's pages exchanged after the undo pass. Recovery must detect
/// the hybrid heap and fail closed, not report success.
#[test]
fn dropped_intents_fail_recovery_closed() {
    let rep = crash_run(
        vec![CrashPlan::first(CrashPoint::AfterBatchApply)],
        Some(WalMutation::DropIntent),
    );
    let summary = rep.recovery.expect("recovery was requested");
    let err = summary.outcome.expect_err("a mutated log must not verify");
    assert!(
        err.contains("hybrid") || err.contains("mismatch"),
        "unexpected failure reason: {err}"
    );
}

/// Teeth: an intent record whose pre-image was bit-flipped in the log
/// decodes as `BadIntent` — the pre-image checksum no longer matches —
/// and recovery must refuse to replay a payload it cannot trust.
#[test]
fn corrupted_preimages_fail_recovery_closed() {
    let rep = crash_run(
        vec![CrashPlan::first(CrashPoint::AfterBatchApply)],
        Some(WalMutation::CorruptPreimage),
    );
    let summary = rep.recovery.expect("recovery was requested");
    let err = summary.outcome.expect_err("a corrupted log must not verify");
    assert!(
        err.contains("checksum"),
        "the refusal must name the checksum failure: {err}"
    );
}

/// Teeth: skipping commit records strands earlier epochs unresolved
/// under later ones; on a multi-cycle log, recovery refuses to guess.
#[test]
fn skipped_commits_fail_recovery_closed_on_multi_cycle_logs() {
    let rep = crash_run(
        vec![CrashPlan::nth(CrashPoint::MidIpi, 100)],
        Some(WalMutation::SkipCommit),
    );
    let summary = rep.recovery.expect("recovery was requested");
    let err = summary.outcome.expect_err("a commit-less log must not verify");
    assert!(err.contains("unresolved"), "unexpected failure reason: {err}");
}
