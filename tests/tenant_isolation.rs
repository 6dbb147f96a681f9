//! End-to-end tenant isolation: a multi-JVM fleet under a shared frame
//! pool where victim tenants are driven to quarantine — by seeded SwapVA
//! faults or by an impossible memory budget — while the blast radius is
//! checked by both oracles: healthy tenants' heaps must be bit-identical
//! to a fault-free twin fleet's, and the pool must account every frame
//! (in-use == survivors' footprints, ownership audit clean, quarantined
//! tenants owning nothing).

use std::collections::HashSet;
use svagc::kernel::TIER_EPOCH;
use svagc::metrics::TraceKind;
use svagc::workloads::churn::{ChurnSpec, ChurnWorkload, SizeDist};
use svagc::workloads::driver::{CollectorKind, FailureKind, RunConfig};
use svagc::workloads::multijvm::{run_fleet, FleetConfig, TenantOutcome};
use svagc::workloads::noisy::{noisy_workload, quota_frames, run_noisy_neighbor, NoisySpec};
use svagc::workloads::workload::Workload;

/// The headline E2E: a 10% permanent-fault victim is quarantined with a
/// typed, greppable failure while the fleet itself exits successfully,
/// every healthy tenant completes, and both oracles hold. `Ok` from
/// [`run_noisy_neighbor`] *is* the oracle proof — an isolation or
/// frame-leak violation is an `Err` of the harness, not a tenant failure.
#[test]
fn faulted_victim_quarantines_while_the_fleet_survives_and_oracles_hold() {
    let spec = NoisySpec::standard(0.10, 42);
    let base = RunConfig::new(CollectorKind::Svagc);
    let out = run_noisy_neighbor(&spec, &base).expect("blast radius must hold");

    assert_eq!(out.faulty.survivors(), spec.tenants - 1);
    assert_eq!(out.faulty.quarantined(), 1);
    match &out.faulty.outcomes[0] {
        TenantOutcome::Quarantined { kind, message, attempts, frames_reclaimed } => {
            assert_eq!(*kind, FailureKind::FaultAbort);
            assert_eq!(kind.exit_code(), 11, "stable exit-code contract");
            assert_eq!(*attempts, spec.max_attempts);
            assert!(*frames_reclaimed > 0, "teardown must return the victim's frames");
            assert!(message.contains("swap"), "classified message names the cause: {message}");
        }
        TenantOutcome::Completed(_) => panic!("victim must not survive 10% permanent faults"),
    }
    // The fault-free twin is whole, and every healthy tenant compared
    // bit-identical against it.
    assert_eq!(out.clean.survivors(), spec.tenants);
    assert_eq!(out.isolation_compared, spec.tenants - 1);
    assert!(out.frames_audited > 0);
}

/// A tenant whose live set cannot fit its quota is driven down the whole
/// pressure ladder to a typed, tenant-local `OutOfMemory` quarantine
/// (exit code 15) — never a panic, never another tenant's frames — while
/// its normally-sized neighbors ride the ladder and complete.
#[test]
fn oom_quarantine_is_tenant_local_and_typed() {
    let spec = NoisySpec {
        victims: vec![],
        ..NoisySpec::standard(0.0, 7)
    };
    let base = RunConfig::new(CollectorKind::Svagc);
    let (quota, headroom) = quota_frames(&spec, &base).expect("the standard quota fits");
    let fleet = FleetConfig::pooled(quota * spec.tenants as u32, quota, headroom)
        .with_pressure(true)
        .with_max_attempts(2);
    // Tenant 0 gets a live set ~3x the others': its compacted footprint
    // alone exceeds the quota, which no GC remedy can fix.
    let glutton = spec.live_objects * 3;
    let make = |i: usize| -> Box<dyn Workload> {
        if i == 0 {
            Box::new(ChurnWorkload::new(ChurnSpec {
                name: "glutton/t0".into(),
                threads: 4,
                live_objects: glutton,
                size: SizeDist::Mix { small: 2 << 10, large: 120 << 10, p_large: 0.04 },
                refs_per_object: 2,
                alloc_fraction_per_step: 0.30,
                compute_millicycles_per_byte: 40,
                steps: spec.steps,
                seed: spec.seed,
            }))
        } else {
            noisy_workload(&spec, i)
        }
    };
    let res =
        run_fleet(spec.tenants, make, &base, &fleet, |_, c| c).expect("fleet-level success");

    match &res.outcomes[0] {
        TenantOutcome::Quarantined { kind, message, frames_reclaimed, .. } => {
            assert_eq!(*kind, FailureKind::OutOfMemory);
            assert_eq!(kind.exit_code(), 15, "stable exit-code contract");
            assert!(
                message.contains("out of memory"),
                "typed OOM, not a panic or a generic error: {message}"
            );
            assert!(*frames_reclaimed > 0 || res.pool.is_some());
        }
        TenantOutcome::Completed(_) => panic!("a 3x live set cannot fit the shared quota"),
    }
    for (i, o) in res.outcomes.iter().enumerate().skip(1) {
        assert!(o.is_completed(), "tenant {i} must be untouched by tenant 0's OOM");
    }
    // The glutton's frames all went back: the pool accounts exactly the
    // survivors' footprints.
    let audited = res.frame_leak_oracle().expect("no leaked or dual-owned frames");
    assert!(audited > 0);
}

/// Pressure off, same squeeze: the fleet must *not* fall over the cliff
/// into a panic — denials surface as typed per-tenant outcomes either
/// way. (With the ladder armed the same fleet completes whole; that
/// contrast is the pressure subsystem's value, pinned here.)
#[test]
fn pressure_ladder_is_the_difference_between_survival_and_typed_oom() {
    let spec = NoisySpec {
        victims: vec![],
        steps: 6,
        ..NoisySpec::standard(0.0, 7)
    };
    let base = RunConfig::new(CollectorKind::Svagc);
    let (quota, headroom) = quota_frames(&spec, &base).expect("the standard quota fits");
    let mk_fleet = |pressure: bool| {
        FleetConfig::pooled(quota * spec.tenants as u32, quota, headroom)
            .with_pressure(pressure)
            .with_max_attempts(1)
    };
    let armed = run_fleet(
        spec.tenants,
        |i| noisy_workload(&spec, i),
        &base,
        &mk_fleet(true),
        |_, c| c,
    )
    .expect("fleet-level success");
    assert_eq!(armed.survivors(), spec.tenants, "the ladder must carry the squeeze");

    let unarmed = run_fleet(
        spec.tenants,
        |i| noisy_workload(&spec, i),
        &base,
        &mk_fleet(false),
        |_, c| c,
    )
    .expect("fleet-level success even when tenants fail");
    // Without the ladder some tenant hits a raw quota denial; whatever
    // falls must fall as a classified OutOfMemory, and the pool must
    // still balance.
    for o in &unarmed.outcomes {
        if let TenantOutcome::Quarantined { kind, .. } = o {
            assert_eq!(*kind, FailureKind::OutOfMemory);
        }
    }
    assert!(
        unarmed.survivors() < spec.tenants,
        "the squeeze is real: without the ladder the fleet cannot be whole"
    );
    unarmed.frame_leak_oracle().expect("quarantine teardown must balance the pool");
}

/// A tenant's one id names its WAL epochs: in a pooled and in an unpooled
/// fleet alike, with tiering arming every tenant's log, each GC epoch a
/// tenant's trace records carries the tenant's id in its top 16 bits, so
/// no two tenants ever share an epoch. (Residency records all use the
/// reserved [`TIER_EPOCH`], which no GC epoch can equal.)
#[test]
fn every_tenants_wal_epochs_carry_its_id() {
    let spec = NoisySpec {
        tenants: 3,
        victims: vec![],
        steps: 6,
        // A quota twice the eager footprint: a tenant that demotes pages
        // under a squeezed quota can be handed a frame id past its slice
        // of the pool (FrameOutOfRange), a fault of pooled tiering that
        // this test of epoch names does not cover.
        quota_fraction: 2.0,
        ..NoisySpec::standard(0.0, 7)
    };
    let base = RunConfig::new(CollectorKind::Svagc).with_trace(true).with_tiering(0.5);
    let (quota, headroom) = quota_frames(&spec, &base).expect("the quota fits");
    let pooled = FleetConfig::pooled(quota * spec.tenants as u32, quota, headroom);
    for fleet in [pooled, FleetConfig::unpooled()] {
        let pooled = fleet.pool_frames.is_some();
        let res = run_fleet(spec.tenants, |i| noisy_workload(&spec, i), &base, &fleet, |_, c| c)
            .expect("fleet-level success");
        let mut seen = HashSet::new();
        for (i, o) in res.outcomes.iter().enumerate() {
            let r = match o {
                TenantOutcome::Completed(r) => r,
                TenantOutcome::Quarantined { message, .. } => {
                    panic!("pooled {pooled}: tenant {i} failed: {message}")
                }
            };
            let epochs: HashSet<u64> = r
                .trace
                .iter()
                .filter(|e| e.kind == TraceKind::WalRecord)
                .filter_map(|e| e.arg("epoch"))
                .filter(|&epoch| epoch != TIER_EPOCH)
                .collect();
            assert!(!epochs.is_empty(), "pooled {pooled}: tenant {i} logged no GC epoch");
            for epoch in epochs {
                assert_eq!(epoch >> 48, i as u64 + 1, "pooled {pooled}: tenant {i}, {epoch:#x}");
                assert!(seen.insert(epoch), "pooled {pooled}: epoch {epoch:#x} is shared");
            }
        }
    }
}
