//! Multi-JVM runs: N instances sharing one machine's bandwidth and cores
//! (Figs. 2, 9, 14), plus the fleet layer that makes one tenant's failure
//! *its own problem* — per-tenant fault domains, quarantine, and the two
//! oracles (isolation, frame-leak) that prove the blast radius held.
//!
//! Each instance owns its kernel state (address space, TLBs are per-machine
//! but each JVM's GC/mutator activity is confined to its core share), while
//! all instances share one [`BandwidthModel`]: with N registered streams,
//! every byte-copy costs N× its solo bandwidth share — the degradation that
//! makes `memmove`-based GC collapse in Fig. 2 while SVAGC's page-table
//! traffic barely grows (Fig. 14).
//!
//! Instances run host-parallel via `svagc_metrics::par_map` (they are
//! independent simulations; the shared stream count is constant for the
//! whole batch, so results stay deterministic). When a fleet runs under a
//! shared [`FramePool`], tenant registration happens *before* the parallel
//! region in index order — the pool's per-tenant namespace bases follow
//! registration order, so this is part of the determinism contract.
//!
//! ## Fault domains and quarantine
//!
//! [`run_fleet`] gives every tenant its own fault domain: its own ASID and
//! address space, its own degrade controller and watchdog (via its
//! [`RunConfig`]), its own WAL epoch namespace, and — under a pool — its
//! own frame quota. A tenant whose run fails is retried up to
//! [`FleetConfig::max_attempts`] times with its frames reclaimed between
//! attempts ([`FramePool::reset_tenant`]); when the attempts are spent the
//! tenant is **quarantined**: its heap is torn down, every frame it owned
//! returns to the pool ([`FramePool::release_tenant`]), and its classified
//! [`FailureKind`] is recorded in the fleet result. The remaining tenants
//! run to completion — [`run_fleet`] returns per-tenant
//! [`TenantOutcome`]s, never one fleet-wide error.

use crate::driver::{run_classified, FailureKind, RunConfig, RunResult, Tenant};
use crate::workload::Workload;
use svagc_metrics::{par_map, BandwidthModel, Cycles};
use svagc_vmem::{FramePool, TenantId};

/// Result of an N-JVM experiment.
#[derive(Debug, Clone)]
pub struct MultiJvmResult {
    /// Instance count.
    pub n: usize,
    /// Per-instance results.
    pub per_jvm: Vec<RunResult>,
}

impl MultiJvmResult {
    /// Mean total GC pause across instances (ms).
    pub fn avg_gc_total_ms(&self) -> f64 {
        self.per_jvm.iter().map(|r| r.gc_total_ms()).sum::<f64>() / self.n as f64
    }

    /// Mean max-pause across instances (ms).
    pub fn avg_gc_max_ms(&self) -> f64 {
        self.per_jvm.iter().map(|r| r.gc_max_ms()).sum::<f64>() / self.n as f64
    }

    /// Mean application wall time (ms), including cross-JVM IPI
    /// interference.
    pub fn avg_app_ms(&self) -> f64 {
        self.per_jvm
            .iter()
            .map(|r| r.app_wall.at_ghz(r.freq_ghz).as_millis())
            .sum::<f64>()
            / self.n as f64
    }

    /// Sum of GC pause time across instances, exact simulated cycles.
    pub fn gc_pause_cycles(&self) -> u64 {
        self.per_jvm.iter().map(|r| r.gc_pause_cycles()).sum()
    }

    /// Sum of total wall time across instances, exact simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.per_jvm.iter().map(|r| r.total_cycles()).sum()
    }

    /// Mean total wall time (ms).
    pub fn avg_total_ms(&self) -> f64 {
        self.per_jvm
            .iter()
            .map(|r| r.total_wall.at_ghz(r.freq_ghz).as_millis())
            .sum::<f64>()
            / self.n as f64
    }
}

/// Fleet-level isolation knobs layered over a shared [`RunConfig`] base.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total frames of the shared pool (`None` = no pool: tenants keep
    /// private frame allocators, the pre-fleet behavior).
    pub pool_frames: Option<u32>,
    /// Per-tenant frame quota (pooled fleets only).
    pub quota: u32,
    /// Frames of each quota reserved for GC-context charges.
    pub headroom: u32,
    /// Arm the pressure-escalation ladder in every tenant (implies
    /// on-demand heap commit).
    pub pressure: bool,
    /// Run attempts per tenant before quarantine (≥1). Frames are
    /// reclaimed between attempts.
    pub max_attempts: u32,
}

impl FleetConfig {
    /// No pool, no pressure, one attempt — the classic [`run_multi`]
    /// sharing model.
    pub fn unpooled() -> FleetConfig {
        FleetConfig {
            pool_frames: None,
            quota: 0,
            headroom: 0,
            pressure: false,
            max_attempts: 1,
        }
    }

    /// A pooled fleet: `n` tenants × `quota` frames (of which `headroom`
    /// are GC-reserved) out of `pool_frames` total.
    pub fn pooled(pool_frames: u32, quota: u32, headroom: u32) -> FleetConfig {
        FleetConfig {
            pool_frames: Some(pool_frames),
            quota,
            headroom,
            pressure: false,
            max_attempts: 1,
        }
    }

    /// Arm the pressure ladder in every tenant.
    pub fn with_pressure(mut self, on: bool) -> FleetConfig {
        self.pressure = on;
        self
    }

    /// Allow `attempts` runs per tenant before quarantine.
    pub fn with_max_attempts(mut self, attempts: u32) -> FleetConfig {
        self.max_attempts = attempts.max(1);
        self
    }
}

/// What became of one tenant.
#[derive(Debug, Clone)]
pub enum TenantOutcome {
    /// The tenant ran (and verified) to completion.
    Completed(Box<RunResult>),
    /// Every attempt failed; the tenant was quarantined — heap torn down,
    /// frames returned to the pool, failure classified.
    Quarantined {
        /// Classified failure of the final attempt (exit-code contract).
        kind: FailureKind,
        /// Human-readable failure of the final attempt.
        message: String,
        /// Attempts made (== the fleet's `max_attempts`).
        attempts: u32,
        /// Frames the quarantine teardown returned to the pool.
        frames_reclaimed: u32,
    },
}

impl TenantOutcome {
    /// Did the tenant complete?
    pub fn is_completed(&self) -> bool {
        matches!(self, TenantOutcome::Completed(_))
    }

    /// The completed result, if any.
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            TenantOutcome::Completed(r) => Some(r),
            TenantOutcome::Quarantined { .. } => None,
        }
    }

    /// The failure class, if quarantined.
    pub fn failure(&self) -> Option<&FailureKind> {
        match self {
            TenantOutcome::Completed(_) => None,
            TenantOutcome::Quarantined { kind, .. } => Some(kind),
        }
    }
}

/// Result of a fleet run: one outcome per tenant plus the shared pool
/// (when one was configured) for post-run auditing.
#[derive(Debug)]
pub struct FleetResult {
    /// Tenant count.
    pub n: usize,
    /// Per-tenant outcomes, in tenant-index order.
    pub outcomes: Vec<TenantOutcome>,
    /// The shared frame pool, `None` for unpooled fleets.
    pub pool: Option<FramePool>,
}

impl FleetResult {
    /// Completed tenants' results, with their tenant indices.
    pub fn completed(&self) -> Vec<(usize, &RunResult)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.result().map(|r| (i, r)))
            .collect()
    }

    /// How many tenants completed.
    pub fn survivors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_completed()).count()
    }

    /// How many tenants were quarantined.
    pub fn quarantined(&self) -> usize {
        self.n - self.survivors()
    }

    /// The **frame-leak oracle**: audit the pool's ownership map (every
    /// owned frame inside its owner's namespace slice, counters matching
    /// the map, quarantined tenants owning nothing) and require the
    /// pool-wide in-use count to equal the survivors' final footprints
    /// *exactly*. Returns the audited frame count; `Ok(0)` for unpooled
    /// fleets (nothing to leak).
    pub fn frame_leak_oracle(&self) -> Result<u32, String> {
        let Some(pool) = &self.pool else {
            return Ok(0);
        };
        let audited = pool.audit()?;
        let survivors: u32 = self
            .outcomes
            .iter()
            .filter_map(|o| o.result())
            .map(|r| r.frames_in_use)
            .sum();
        let in_use = pool.in_use();
        if audited != in_use {
            return Err(format!(
                "ownership map counts {audited} frame(s) but tenant counters sum to {in_use}"
            ));
        }
        if in_use != survivors {
            return Err(format!(
                "frame leak: pool holds {in_use} charged frame(s) but the survivors' \
                 footprints sum to {survivors}"
            ));
        }
        Ok(in_use)
    }
}

/// The **isolation oracle**: every tenant that survived the `faulty`
/// fleet must have a final heap bit-identical (equal content hash) to the
/// same tenant in the fault-free `clean` fleet — a failing neighbor must
/// not perturb healthy tenants' data by a single bit. Returns how many
/// tenants were compared; comparing zero is an error (a vacuous pass).
pub fn isolation_oracle(faulty: &FleetResult, clean: &FleetResult) -> Result<usize, String> {
    if faulty.n != clean.n {
        return Err(format!(
            "fleet sizes differ: {} faulty vs {} clean",
            faulty.n, clean.n
        ));
    }
    let mut compared = 0;
    for (i, o) in faulty.outcomes.iter().enumerate() {
        let Some(r) = o.result() else { continue };
        let Some(c) = clean.outcomes[i].result() else {
            return Err(format!(
                "tenant {i} survived the faulty fleet but not the fault-free one"
            ));
        };
        if r.heap_hash != c.heap_hash {
            return Err(format!(
                "tenant {i}: heap hash {:#x} under faults != {:#x} fault-free — a \
                 neighbor's failure leaked into a healthy tenant's data",
                r.heap_hash, c.heap_hash
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err("no healthy tenant to compare — the oracle would be vacuous".into());
    }
    Ok(compared)
}

/// Memory streams each JVM registers with the shared bandwidth model (its
/// mutator plus GC copier threads).
const STREAMS_PER_JVM: usize = 4;

/// Run `n` tenants of the workload produced by `make` under `base`,
/// layered with the fleet's isolation knobs. `tweak(i, cfg)` customizes
/// tenant `i`'s config last (chaos harnesses seed faults on victims
/// here). See the module docs for the fault-domain semantics. A fleet of
/// no tenants (`n == 0`) is an error.
pub fn run_fleet<F, T>(
    n: usize,
    make: F,
    base: &RunConfig,
    fleet: &FleetConfig,
    tweak: T,
) -> Result<FleetResult, String>
where
    F: Fn(usize) -> Box<dyn Workload> + Sync,
    T: Fn(usize, RunConfig) -> RunConfig + Sync,
{
    if n == 0 {
        return Err("a fleet needs at least one tenant".into());
    }
    let bandwidth = BandwidthModel::new();
    let _guards: Vec<_> = (0..n * STREAMS_PER_JVM)
        .map(|_| bandwidth.register())
        .collect();
    let core_share = (base.machine.cores / n).max(1);

    // Register every tenant before the parallel region, in index order:
    // namespace bases follow registration order, so admission decisions
    // (and the ownership map) are independent of host scheduling.
    let pool = match fleet.pool_frames {
        Some(total) => {
            let pool = FramePool::new(total);
            for i in 0..n {
                pool.register(TenantId((i + 1) as u16), fleet.quota, fleet.headroom)
                    .map_err(|e| format!("fleet tenant {}: {e}", i + 1))?;
            }
            Some(pool)
        }
        None => None,
    };
    let max_attempts = fleet.max_attempts.max(1);

    let mut outcomes: Vec<TenantOutcome> = par_map((0..n).collect::<Vec<_>>(), |i| {
        let mut cfg = base.clone();
        let id = (i + 1) as u16;
        cfg.tenant = Some(Tenant {
            id,
            cores: core_share,
            bandwidth: bandwidth.clone(),
            pool: pool.clone(),
            pressure: fleet.pressure,
        });
        // Disjoint affinity bases: instance i's workers pin starting at
        // its own core share, so no two collectors contend for a core
        // while enough cores exist (the scheduler-level regression test is
        // `concurrent_collectors_pin_disjoint_cores`).
        cfg.gc.core_base = i * core_share;
        let cfg = tweak(i, cfg);
        let tenant = TenantId(id);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut w = make(i);
            match run_classified(w.as_mut(), &cfg) {
                Ok(r) => break TenantOutcome::Completed(Box::new(r)),
                Err(f) => {
                    let is_final = attempt >= max_attempts;
                    // Reclaim the failed attempt's frames: quarantine
                    // (terminal) or reset (registration stays live for the
                    // retry). Only this tenant's namespace slice is touched.
                    let reclaimed = match &pool {
                        Some(p) if is_final => p.release_tenant(tenant).unwrap_or(0),
                        Some(p) => p.reset_tenant(tenant).unwrap_or(0),
                        None => 0,
                    };
                    if is_final {
                        break TenantOutcome::Quarantined {
                            kind: f.kind,
                            message: f.message,
                            attempts: attempt,
                            frames_reclaimed: reclaimed,
                        };
                    }
                }
            }
        }
    });

    // Cross-JVM IPI interference: each broadcast lands on all cores; a
    // victim JVM owns ~1/n of them. Charge each completed instance its
    // share of the *other* instances' interference (a quarantined
    // tenant's torn-down run contributes nothing).
    let total_intf: u64 = outcomes
        .iter()
        .filter_map(|o| o.result())
        .map(|r| r.gc.total_interference().get())
        .sum();
    for o in outcomes.iter_mut() {
        if let TenantOutcome::Completed(r) = o {
            let foreign = total_intf - r.gc.total_interference().get();
            let share = Cycles(foreign / n as u64);
            let parallelism = core_share as u64;
            r.app_wall += share / parallelism.max(1);
            r.total_wall += share / parallelism.max(1);
        }
    }

    Ok(FleetResult { n, outcomes, pool })
}

/// Run `n` instances of the workload produced by `make` under `base`.
///
/// `make(i)` builds instance `i` (seed it with `i` for variety). The
/// machine's cores are split evenly; all instances contend for bandwidth.
///
/// Compatibility wrapper over [`run_fleet`] with the unpooled fleet
/// config: any tenant failure surfaces as the fleet-wide `Err` (the
/// lowest-index failing tenant's message, matching the historical
/// behavior). Fleet harnesses that need per-tenant outcomes call
/// [`run_fleet`] directly.
pub fn run_multi<F>(n: usize, make: F, base: &RunConfig) -> Result<MultiJvmResult, String>
where
    F: Fn(usize) -> Box<dyn Workload> + Sync,
{
    let fleet = run_fleet(n, make, base, &FleetConfig::unpooled(), |_, c| c)?;
    let mut per_jvm = Vec::with_capacity(n);
    for o in fleet.outcomes {
        match o {
            TenantOutcome::Completed(r) => per_jvm.push(*r),
            TenantOutcome::Quarantined { message, .. } => return Err(message),
        }
    }
    Ok(MultiJvmResult { n, per_jvm })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CollectorKind;

    #[test]
    fn an_empty_fleet_is_an_error_not_a_panic() {
        let base = RunConfig::new(CollectorKind::Svagc);
        let make = |_| -> Box<dyn Workload> { unreachable!("an empty fleet builds no tenant") };
        let err = run_multi(0, make, &base).unwrap_err();
        assert_eq!(err, "a fleet needs at least one tenant");
    }
}
