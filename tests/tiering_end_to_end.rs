//! End-to-end cold-object tiering: real workloads driven through the
//! full driver with a fallible far-memory device underneath. The
//! invisibility oracle is the contract: whatever the device does —
//! nothing, transient chaos, or permanent death — the mutator-visible
//! heap must be bit-identical to a DRAM-only run, or the run must end
//! with the typed device-failed verdict. Never a panic, never silent
//! corruption.

use svagc::kernel::{CrashPlan, CrashPoint, DeviceFaultConfig, WalMutation};
use svagc::workloads::driver::{
    run, run_classified, run_with_crash, CollectorKind, CrashOutcome, FailureKind,
    RunConfig, RunResult,
};
use svagc::workloads::suite;

const SEED_WORKLOAD: &str = "LRUCache";
const DEVICE_SEED: u64 = 0xD1CE;

fn dram_only_run() -> RunResult {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = RunConfig::new(CollectorKind::Svagc).with_verify_phases(true);
    run(w.as_mut(), &cfg).expect("DRAM-only reference run")
}

fn tiered_run(dram_fraction: f64, fault_rate: f64) -> RunResult {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = RunConfig::new(CollectorKind::Svagc)
        .with_verify_phases(true)
        .with_tiering(dram_fraction)
        .with_device_faults(fault_rate, DEVICE_SEED);
    run(w.as_mut(), &cfg)
        .unwrap_or_else(|e| panic!("tiered run (f={dram_fraction}, p={fault_rate}): {e}"))
}

/// The invisibility oracle on a healthy device: a run keeping only a
/// fraction of the heap resident demotes real pages, fetches them back
/// on access, and still ends with a live heap bit-identical to the
/// DRAM-only run — the tier is invisible to the mutator.
#[test]
fn tiered_run_is_bit_identical_to_dram_only() {
    let reference = dram_only_run();
    for frac in [0.3, 0.6] {
        let tiered = tiered_run(frac, 0.0);
        assert!(tiered.verify_ok, "f={frac}");
        assert_eq!(
            tiered.heap_hash, reference.heap_hash,
            "f={frac}: tiering must be invisible to the mutator"
        );
        assert_eq!(
            tiered.gc.count(),
            reference.gc.count(),
            "f={frac}: tiering must not change the GC schedule"
        );
        assert_eq!(tiered.tier_mode, "tiered", "f={frac}");
        assert!(tiered.tier.demotions > 0, "f={frac}: cold pages must demote");
        assert!(
            tiered.tier.promotions > 0,
            "f={frac}: demoted pages must come back"
        );
        // The end-of-run drain emptied the device (the driver's oracle
        // fails the run otherwise; these are the reported counters).
        assert!(tiered.device.slots_peak > 0, "f={frac}");
    }
    // The reference run carries no tier surface at all.
    assert_eq!(reference.tier_mode, "off");
    assert_eq!(reference.tier.demotions, 0);
}

/// The full device-fault matrix: transient EIO, latency spikes, and torn
/// writebacks at escalating rates. The retry ladder (with read-back
/// verify catching the torn writes) must absorb everything and the heap
/// must stay bit-identical at every point of the matrix.
#[test]
fn device_fault_matrix_stays_bit_identical() {
    let reference = dram_only_run();
    for frac in [0.3, 0.6] {
        for rate in [0.01, 0.10] {
            let faulty = tiered_run(frac, rate);
            assert!(faulty.verify_ok, "f={frac} p={rate}");
            assert_eq!(
                faulty.heap_hash, reference.heap_hash,
                "f={frac} p={rate}: heap diverged under device faults"
            );
            assert!(
                faulty.device.faults > 0,
                "f={frac} p={rate}: the plan must fire over a full run"
            );
        }
    }
    // At 10% the retry ladder must actually have been exercised.
    let heavy = tiered_run(0.3, 0.10);
    assert!(
        heavy.tier.writeback_retries + heavy.tier.fetch_retries > 0,
        "10% device faults must surface as retries"
    );
    assert!(
        heavy.device.torn_writebacks > 0,
        "the uniform mix at 10% must tear at least one writeback"
    );
}

/// Whole-device loss before anything was demoted: the first writeback
/// fails permanently, the ladder degrades to DRAM-only mode, and the run
/// completes normally — bit-identical heap, mode reported for the CI
/// greps. Losing a device you never stored data on costs nothing.
#[test]
fn early_device_death_degrades_to_dram_only_and_completes() {
    let reference = dram_only_run();
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let mut cfg = RunConfig::new(CollectorKind::Svagc)
        .with_verify_phases(true)
        .with_tiering(0.3);
    cfg.device_faults = Some(DeviceFaultConfig::uniform(0.0, DEVICE_SEED).with_offline_after(0));
    let r = run(w.as_mut(), &cfg).expect("degraded run must complete");
    assert_eq!(r.tier_mode, "dram-only");
    assert!(r.tier_ctl.degraded >= 1, "the ladder must have degraded");
    assert_eq!(r.tier.demotions, 0, "nothing ever reached the dead device");
    assert_eq!(r.heap_hash, reference.heap_hash);
    assert!(
        r.tier_ctl.reprobes > 0,
        "DRAM-only mode must keep probing the device after probation"
    );
    assert_eq!(r.tier_ctl.recovered, 0, "a latched-offline device never heals");
}

/// Whole-device loss after cold pages went far: the device holds the
/// only copy, so this is past the last rung of the ladder — the run must
/// end with the typed device-failed verdict and exit code 16, not a
/// panic and not silent corruption.
#[test]
fn mid_run_device_death_fails_typed_with_exit_code_16() {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let mut cfg = RunConfig::new(CollectorKind::Svagc)
        .with_verify_phases(true)
        .with_tiering(0.3);
    cfg.device_faults =
        Some(DeviceFaultConfig::uniform(0.0, DEVICE_SEED).with_offline_after(500));
    let f = run_classified(w.as_mut(), &cfg)
        .expect_err("losing far data must fail the run");
    assert_eq!(f.kind, FailureKind::DeviceFailed, "{}", f.message);
    assert_eq!(f.kind.exit_code(), 16);
    assert_eq!(f.kind.label(), "device-failed");
    assert!(
        f.message.contains("far-tier") || f.message.contains("far tier"),
        "the message must name the tier: {}",
        f.message
    );
}

/// Crash matrix, demotion tooth: the machine dies between a completed
/// device writeback and the durable residency record. Recovery must keep
/// the page resident (the DRAM copy is intact), reclaim the orphaned
/// slot, and rebuild a verified heap.
#[test]
fn crash_mid_demote_writeback_recovers_verified() {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = RunConfig::new(CollectorKind::Svagc)
        .with_verify_phases(true)
        .with_tiering(0.3)
        .with_crash_plans(vec![CrashPlan::nth(CrashPoint::MidDemoteWriteback, 8)]);
    let rep = match run_with_crash(w.as_mut(), &cfg, true)
        .unwrap_or_else(|f| panic!("{}", f.message))
    {
        CrashOutcome::Crashed(rep) => *rep,
        CrashOutcome::Completed(_) => panic!("the demotion crash point never fired"),
    };
    assert_eq!(rep.point, CrashPoint::MidDemoteWriteback);
    let summary = rep.recovery.expect("recovery was requested");
    let report = summary
        .outcome
        .unwrap_or_else(|e| panic!("recovery failed closed: {e}"));
    assert!(report.objects > 0 && report.roots > 0);
    // Seven demotions committed before the eighth crashed; recovery must
    // have replayed that residency and promoted every page home.
    assert!(
        report.far_restored > 0,
        "pages demoted before the crash must be restored"
    );
}

/// Crash matrix, promotion tooth: the machine dies after the device
/// fetch returns but before anything lands in DRAM. Residency and slot
/// are untouched, so recovery simply re-fetches — and the report counts
/// the restored pages.
#[test]
fn crash_mid_promote_fetch_recovers_verified() {
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = RunConfig::new(CollectorKind::Svagc)
        .with_verify_phases(true)
        .with_tiering(0.3)
        .with_crash_plans(vec![CrashPlan::first(CrashPoint::MidPromoteFetch)]);
    let rep = match run_with_crash(w.as_mut(), &cfg, true)
        .unwrap_or_else(|f| panic!("{}", f.message))
    {
        CrashOutcome::Crashed(rep) => *rep,
        CrashOutcome::Completed(_) => panic!("the promotion crash point never fired"),
    };
    assert_eq!(rep.point, CrashPoint::MidPromoteFetch);
    let summary = rep.recovery.expect("recovery was requested");
    let report = summary
        .outcome
        .unwrap_or_else(|e| panic!("recovery failed closed: {e}"));
    assert!(report.objects > 0 && report.roots > 0);
    assert!(
        report.far_restored > 0,
        "the interrupted promotion's page must be restored by recovery"
    );
}

/// Crash matrix, GC-cycle teeth under tiering: the machine dies around
/// the 25th SwapVA batch while pages sit on the far tier. The WAL's begin
/// and commit hashes must cover the far pages' real bytes — recovery
/// promotes every page before it hashes, so a hash taken over zeroed far
/// frames could never match and every crash would fail closed as a
/// hybrid heap.
#[test]
fn crash_mid_cycle_with_far_pages_recovers_verified() {
    for point in [
        CrashPoint::BeforeBatchApply,
        CrashPoint::InsideBatchApply,
        CrashPoint::AfterBatchApply,
    ] {
        let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
        let cfg = RunConfig::new(CollectorKind::Svagc)
            .with_verify_phases(true)
            .with_tiering(0.3)
            .with_crash_plans(vec![CrashPlan::nth(point, 25)]);
        let rep = match run_with_crash(w.as_mut(), &cfg, true)
            .unwrap_or_else(|f| panic!("{point:?}: {}", f.message))
        {
            CrashOutcome::Crashed(rep) => *rep,
            CrashOutcome::Completed(_) => panic!("{point:?}: the crash point never fired"),
        };
        assert_eq!(rep.point, point);
        let report = rep
            .recovery
            .expect("recovery was requested")
            .outcome
            .unwrap_or_else(|e| panic!("{point:?}: recovery failed closed: {e}"));
        assert!(report.objects > 0 && report.roots > 0, "{point:?}");
        assert!(
            report.far_restored > 0,
            "{point:?}: pages were far at the crash and must be restored"
        );
    }
}

/// The crash matrix's log teeth keep biting under tiering: arming the
/// tier also arms the WAL, and that must not clear a seeded log
/// mutation, so recovery fails closed on the mutated log.
#[test]
fn a_wal_mutation_under_tiering_makes_recovery_fail_closed() {
    for m in [WalMutation::DropIntent, WalMutation::CorruptPreimage] {
        let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
        let cfg = RunConfig::new(CollectorKind::Svagc)
            .with_verify_phases(true)
            .with_tiering(0.3)
            .with_crash_plans(vec![CrashPlan::first(CrashPoint::AfterBatchApply)])
            .with_wal_mutation(Some(m));
        let rep = match run_with_crash(w.as_mut(), &cfg, true)
            .unwrap_or_else(|f| panic!("{m:?}: {}", f.message))
        {
            CrashOutcome::Crashed(rep) => *rep,
            CrashOutcome::Completed(_) => panic!("{m:?}: the crash point never fired"),
        };
        let outcome = rep.recovery.expect("recovery was requested").outcome;
        assert!(outcome.is_err(), "{m:?}: recovery accepted a mutated log: {outcome:?}");
    }
}

/// Tiering composes with SwapVA kernel fault injection: both fault
/// planes active at once, heap still bit-identical to the clean
/// DRAM-only run.
#[test]
fn tiering_composes_with_swapva_faults() {
    let reference = dram_only_run();
    let mut w = suite::by_name(SEED_WORKLOAD).unwrap();
    let cfg = RunConfig::new(CollectorKind::Svagc)
        .with_verify_phases(true)
        .with_tiering(0.5)
        .with_device_faults(0.05, DEVICE_SEED)
        .with_faults(0.01, 0xFA017);
    let r = run(w.as_mut(), &cfg).expect("both fault planes must be absorbed");
    assert_eq!(r.heap_hash, reference.heap_hash);
    assert!(r.gc.total_faults_injected() > 0, "the SwapVA plan must fire");
    assert!(r.tier.demotions > 0, "the tier must be active");
}

/// The tier's event stream, pinned for one fixed configuration: 30 % of
/// the heap resident, 1 % device faults, a fixed device seed. The
/// demotion order decides which pages later fetch on access, and every
/// fetch, retry and writeback costs cycles, so a host-side change to the
/// tier's bookkeeping that reorders demotions shows up in these counters
/// or in the total cycles.
#[test]
fn tiered_event_stream_is_pinned() {
    let r = tiered_run(0.3, 0.01);
    assert!(r.verify_ok);
    let tier = (
        r.tier.demotions,
        r.tier.promotions,
        r.tier.fetch_on_access,
        r.tier.far_peak,
        r.tier_ctl.passes,
    );
    let device = (
        r.device.writebacks,
        r.device.fetches,
        r.device.verifies,
        r.device.faults,
        r.device.torn_writebacks,
        r.device.slots_peak,
    );
    assert_eq!(tier, (192, 192, 128, 128, 3), "tier counters");
    assert_eq!(device, (193, 192, 192, 5, 0, 128), "device counters");
    assert_eq!(r.total_cycles(), 17_574_154, "total cycles");
    assert_eq!(r.heap_hash, 0x7ec3b25d7553aaba, "heap hash");
}
