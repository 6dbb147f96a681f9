//! The noisy-neighbor chaos experiment: a pooled fleet where victim
//! tenants are driven into failure while the oracles watch the blast
//! radius.
//!
//! Each tenant runs a heavy-tailed churn workload (a two-point size
//! mixture whose large draws are hundreds of KiB — the allocations that
//! spike committed footprint) under a shared [`FramePool`] sized so the
//! fleet *must* feel pressure: each tenant's quota is a configurable
//! fraction of what its heap would commit eagerly, so tenants only
//! survive by riding the pressure ladder (early GCs, commit trimming,
//! degraded mode). On top of that, the chosen victims get seeded
//! permanent SwapVA faults with a zero fallback budget — the profile that
//! defeats retries and aborts cycles — driving them to quarantine.
//!
//! [`run_noisy_neighbor`] runs the faulty fleet *and* a fault-free twin,
//! then applies both oracles:
//!
//! * the **isolation oracle** — every healthy tenant's final heap is
//!   bit-identical to its fault-free twin's, and
//! * the **frame-leak oracle** — the pool's in-use count equals the
//!   survivors' footprints exactly, with a clean ownership audit.

use crate::churn::{ChurnSpec, ChurnWorkload, SizeDist};
use crate::driver::{RunConfig, KERNEL_SLACK_BYTES};
use crate::multijvm::{isolation_oracle, run_fleet, FleetConfig, FleetResult};
use crate::workload::Workload;
use svagc_kernel::FaultConfig;
use svagc_vmem::PAGE_SIZE;

/// Parameters of one noisy-neighbor experiment.
#[derive(Debug, Clone)]
pub struct NoisySpec {
    /// Fleet size.
    pub tenants: usize,
    /// Victim tenant indices (each gets seeded faults).
    pub victims: Vec<usize>,
    /// Per-swap-request fault probability injected into victims
    /// (permanent, non-retryable modes with a zero fallback budget, so a
    /// high enough rate aborts their cycles).
    pub victim_fault_rate: f64,
    /// Base RNG seed (tenant `i` churns with `seed + i`).
    pub seed: u64,
    /// Steps per tenant.
    pub steps: usize,
    /// Live objects per tenant.
    pub live_objects: usize,
    /// Each tenant's frame quota as a fraction of its eager footprint
    /// (heap pages + slack). Below 1.0 the fleet only survives on the
    /// pressure ladder.
    pub quota_fraction: f64,
    /// Arm the pressure ladder (off = tenants hit raw quota denials).
    pub pressure: bool,
    /// Attempts per tenant before quarantine.
    pub max_attempts: u32,
}

impl NoisySpec {
    /// The default chaos shape: 4 tenants, tenant 0 the victim, pressure
    /// on, one retry before quarantine.
    pub fn standard(victim_fault_rate: f64, seed: u64) -> NoisySpec {
        NoisySpec {
            tenants: 4,
            victims: vec![0],
            victim_fault_rate,
            seed,
            steps: 12,
            live_objects: 220,
            // Tight enough that eager commit overshoots the quota (the
            // ladder must fire), loose enough that the worst tenant's live
            // footprint plus one heavy-tail object (~31 pages) fits under
            // the mutator ceiling — pressure GC can trim committed garbage,
            // but no remedy shrinks the live set itself.
            quota_fraction: 0.88,
            pressure: true,
            max_attempts: 2,
        }
    }
}

/// The heavy-tailed churn workload tenant `i` runs: mostly ~2 KiB
/// objects with a tail of ~120 KiB ones (pushed over the 10-page SwapVA
/// threshold by headers), high churn to make GC frequent.
pub fn noisy_workload(spec: &NoisySpec, i: usize) -> Box<dyn Workload> {
    Box::new(ChurnWorkload::new(ChurnSpec {
        name: format!("noisy-neighbor/t{i}"),
        threads: 4,
        live_objects: spec.live_objects,
        size: SizeDist::Mix {
            small: 2 << 10,
            large: 120 << 10,
            p_large: 0.04,
        },
        refs_per_object: 2,
        alloc_fraction_per_step: 0.30,
        compute_millicycles_per_byte: 40,
        steps: spec.steps,
        seed: spec.seed + i as u64,
    }))
}

/// Everything one noisy-neighbor experiment produced.
#[derive(Debug)]
pub struct NoisyOutcome {
    /// The faulty fleet's per-tenant outcomes.
    pub faulty: FleetResult,
    /// The fault-free twin's outcomes.
    pub clean: FleetResult,
    /// Healthy tenants the isolation oracle compared bit-identical.
    pub isolation_compared: usize,
    /// Frames the leak oracle audited in the faulty pool.
    pub frames_audited: u32,
}

/// A per-tenant frame quota no tenant could be charged: more than the
/// frames a tenant's kernel is built with, or more than a pool of every
/// tenant's quota can count in 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaTooLarge {
    /// The quota the spec asks for, in frames.
    pub quota: u64,
    /// The largest quota this fleet can hold, in frames.
    pub limit: u64,
}

impl std::fmt::Display for QuotaTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the quota fraction asks for {} frames per tenant, more than the {} a tenant \
             can be charged",
            self.quota, self.limit
        )
    }
}

impl std::error::Error for QuotaTooLarge {}

/// Size the fleet's quotas off the workload: the eager footprint of the
/// *worst* tenant's heap in pages (capacity at the driver's 1.05 alignment
/// margin and `base`'s heap factor, plus the TLAB front-end's reserve),
/// scaled by `quota_fraction`. Tenant `i` churns with `seed + i`, and
/// [`ChurnWorkload`]'s minimum-heap estimate is seed-exact — sizing off
/// tenant 0 alone would starve whichever tenant drew the most heavy-tail
/// objects. Returns `(quota, headroom)` in frames, or the error when the
/// quota exceeds the worst tenant's kernel frames or the pool size.
pub fn quota_frames(spec: &NoisySpec, base: &RunConfig) -> Result<(u32, u32), QuotaTooLarge> {
    let min_heap = (0..spec.tenants.max(1))
        .map(|i| noisy_workload(spec, i).min_heap_bytes())
        .max()
        .unwrap_or(0);
    let eager_pages = ((min_heap as f64 * 1.05 * base.heap_factor) / 4096.0).ceil() as u64 + 2;
    let quota = ((eager_pages as f64 * spec.quota_fraction) as u64).max(8);
    let kernel_frames = (base.heap_bytes(min_heap) + KERNEL_SLACK_BYTES).div_ceil(PAGE_SIZE);
    let limit = kernel_frames.min(u64::from(u32::MAX) / spec.tenants.max(1) as u64);
    if quota > limit {
        return Err(QuotaTooLarge { quota, limit });
    }
    let quota = quota as u32;
    // GC headroom: enough for SwapVA side buffers and a minor eden.
    let headroom = (quota / 10).max(4);
    Ok((quota, headroom))
}

/// Run the experiment: the faulty fleet, its fault-free twin, and both
/// oracles. An oracle violation is an `Err` — the harness treats it as a
/// broken blast radius, not a tenant failure. Every caller runs it under
/// SVAGC: the victims' faults are SwapVA faults, which the baselines
/// never raise.
pub fn run_noisy_neighbor(spec: &NoisySpec, base: &RunConfig) -> Result<NoisyOutcome, String> {
    let (quota, headroom) = quota_frames(spec, base).map_err(|e| e.to_string())?;
    // Cannot overflow: `quota_frames` bounds the quota by the pool's.
    let pool_frames = quota * spec.tenants as u32;
    let fleet = FleetConfig::pooled(pool_frames, quota, headroom)
        .with_pressure(spec.pressure)
        .with_max_attempts(spec.max_attempts);

    let run_one = |faults: bool| {
        run_fleet(
            spec.tenants,
            |i| noisy_workload(spec, i),
            base,
            &fleet,
            |i, mut cfg| {
                if faults && spec.victims.contains(&i) {
                    cfg.faults = Some(FaultConfig::permanent_only(
                        spec.victim_fault_rate,
                        spec.seed ^ 0xBAD_F00D ^ (i as u64),
                    ));
                    // Zero fallback budget: a permanent fault aborts the
                    // cycle instead of quietly degrading to memmove.
                    cfg.gc.retry = cfg.gc.retry.with_fallback_budget(Some(0));
                }
                cfg
            },
        )
    };

    let faulty = run_one(true)?;
    let clean = run_one(false)?;

    let isolation_compared = isolation_oracle(&faulty, &clean)
        .map_err(|e| format!("isolation oracle: {e}"))?;
    let frames_audited = faulty
        .frame_leak_oracle()
        .map_err(|e| format!("frame-leak oracle: {e}"))?;
    clean
        .frame_leak_oracle()
        .map_err(|e| format!("frame-leak oracle (fault-free twin): {e}"))?;

    Ok(NoisyOutcome {
        faulty,
        clean,
        isolation_compared,
        frames_audited,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CollectorKind;
    use crate::multijvm::TenantOutcome;
    use crate::FailureKind;

    #[test]
    fn noisy_neighbor_quarantines_the_victim_and_holds_the_blast_radius() {
        let spec = NoisySpec::standard(0.10, 42);
        let base = RunConfig::new(CollectorKind::Svagc);
        let out = run_noisy_neighbor(&spec, &base).expect("oracle failure");
        assert_eq!(out.clean.survivors(), spec.tenants, "fault-free twin is clean");
        assert_eq!(out.faulty.survivors(), spec.tenants - 1);
        assert_eq!(out.faulty.quarantined(), 1);
        match &out.faulty.outcomes[0] {
            TenantOutcome::Quarantined { kind, attempts, .. } => {
                assert_eq!(*kind, FailureKind::FaultAbort);
                assert_eq!(*attempts, spec.max_attempts);
            }
            TenantOutcome::Completed(_) => panic!("victim survived 10% permanent faults"),
        }
        assert_eq!(out.isolation_compared, spec.tenants - 1);
        assert!(out.frames_audited > 0, "survivors hold a live footprint");
    }

    #[test]
    fn pressure_keeps_an_under_quota_fleet_alive() {
        // No faults: the pool squeeze alone (quota_fraction < 1) must be
        // survivable via the pressure ladder, and the ladder must actually
        // fire (non-vacuous).
        let spec = NoisySpec {
            victims: vec![],
            ..NoisySpec::standard(0.0, 7)
        };
        let base = RunConfig::new(CollectorKind::Svagc);
        let out = run_noisy_neighbor(&spec, &base).expect("oracle failure");
        assert_eq!(out.faulty.survivors(), spec.tenants);
        let remedies: u64 = out
            .faulty
            .completed()
            .iter()
            .map(|(_, r)| r.pressure.denial_remedies + r.pressure.signal_gcs)
            .sum();
        assert!(remedies > 0, "quota squeeze never engaged the pressure ladder");
    }
}
