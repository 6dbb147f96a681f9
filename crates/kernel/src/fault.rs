//! Deterministic SwapVA fault injection.
//!
//! The paper's SwapVA is a real syscall, and real syscalls fail: the PTE
//! spinlock can be contended (`EAGAIN`), the walk can need a page-table
//! page the allocator cannot produce (`ENOMEM`), a request can be rejected
//! by validation the caller didn't anticipate (`EINVAL`), and the shootdown
//! IPI can time out on an unresponsive core. This module injects those
//! modes into [`Kernel::swap_va`]/[`Kernel::swap_va_batch`] from a seeded
//! [`FaultPlan`], charging realistic cycle costs for each failed attempt.
//!
//! Two properties the chaos tests rely on:
//!
//! * **Determinism** — same seed, same probabilities ⇒ the same faults fire
//!   at the same call sites, independent of host state.
//! * **Per-request atomicity** — a fault fires *before* the failing request
//!   mutates any PTE, so a faulted call leaves memory exactly as it was
//!   (earlier requests of an aggregated batch remain applied; the error
//!   reports the failing index).

use crate::state::{CoreId, Kernel};
use std::fmt;
use svagc_metrics::{Cycles, SimRng};
use svagc_vmem::Asid;

/// Modeled SwapVA failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `EAGAIN`: the PTE spinlock of one operand is contended (another
    /// thread is faulting/mapping in the same PTE table). Clears on retry.
    TransientContention,
    /// `EINVAL`: the kernel rejected the request (e.g. a mapping attribute
    /// the simplified model doesn't capture — mlock, VMA split mid-range).
    /// Permanent for this request; the caller must fall back to copying.
    InvalidRequest,
    /// `ENOMEM`: allocating a page-table page during the walk failed.
    /// Permanent until memory pressure clears; treated as permanent here.
    WalkAllocFailure,
    /// The shootdown IPI timed out waiting for a remote ack (core in a
    /// long-running non-preemptible section). The kernel rolls the swap
    /// back; clears on retry.
    ShootdownTimeout,
}

impl FaultKind {
    /// Transient faults clear on retry; permanent ones recur and require a
    /// fallback path.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FaultKind::TransientContention | FaultKind::ShootdownTimeout
        )
    }

    /// The errno a real kernel would return.
    pub fn errno(&self) -> &'static str {
        match self {
            FaultKind::TransientContention => "EAGAIN",
            FaultKind::InvalidRequest => "EINVAL",
            FaultKind::WalkAllocFailure => "ENOMEM",
            FaultKind::ShootdownTimeout => "ETIMEDOUT",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::TransientContention => write!(f, "EAGAIN (PTE-lock contention)"),
            FaultKind::InvalidRequest => write!(f, "EINVAL (request rejected)"),
            FaultKind::WalkAllocFailure => write!(f, "ENOMEM (walk allocation)"),
            FaultKind::ShootdownTimeout => write!(f, "ETIMEDOUT (shootdown IPI)"),
        }
    }
}

/// Per-call injection probabilities plus the seed that makes them
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// P(transient `EAGAIN` contention) per swap request.
    pub p_transient: f64,
    /// P(permanent `EINVAL` rejection) per swap request.
    pub p_invalid: f64,
    /// P(`ENOMEM` during the walk) per swap request.
    pub p_nomem: f64,
    /// P(shootdown IPI timeout) per swap request.
    pub p_timeout: f64,
    /// PRNG seed: same seed ⇒ same fault sequence.
    pub seed: u64,
}

impl FaultConfig {
    /// Total injection probability `p`, split across the modes the way
    /// production traces skew (contention dominates): 70% `EAGAIN`,
    /// 10% `EINVAL`, 10% `ENOMEM`, 10% IPI timeout.
    pub fn uniform(p: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            p_transient: p * 0.7,
            p_invalid: p * 0.1,
            p_nomem: p * 0.1,
            p_timeout: p * 0.1,
            seed,
        }
    }

    /// Only transient contention faults at probability `p` (the acceptance
    /// scenario: every fault is retryable, so no request ever falls back).
    pub fn transient_only(p: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            p_transient: p,
            p_invalid: 0.0,
            p_nomem: 0.0,
            p_timeout: 0.0,
            seed,
        }
    }

    /// Only permanent, non-retryable faults at probability `p`, split
    /// evenly between `EINVAL` and `ENOMEM`. Every injected fault defeats
    /// the retry ladder and forces a fallback (or, under a fallback
    /// budget, a transactional abort) — the chaos profile that exercises
    /// rollback.
    pub fn permanent_only(p: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            p_transient: 0.0,
            p_invalid: p * 0.5,
            p_nomem: p * 0.5,
            p_timeout: 0.0,
            seed,
        }
    }
}

/// A seeded fault schedule: one PRNG draw per swap request decides whether
/// (and which) fault fires.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SimRng,
}

impl FaultPlan {
    /// Build a plan from a config (seeds the PRNG from `cfg.seed`).
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            rng: SimRng::seed_from_u64(cfg.seed),
        }
    }

    /// Decide whether the next swap request faults. Exactly one PRNG draw
    /// per call, so the fault sequence is a pure function of the seed and
    /// the call count.
    pub fn roll(&mut self) -> Option<FaultKind> {
        let c = &self.cfg;
        draw(
            &mut self.rng,
            [
                (c.p_transient, FaultKind::TransientContention),
                (c.p_invalid, FaultKind::InvalidRequest),
                (c.p_nomem, FaultKind::WalkAllocFailure),
                (c.p_timeout, FaultKind::ShootdownTimeout),
            ],
        )
    }
}

/// One PRNG draw against cumulative probability bands: the kind of the
/// first `(p, kind)` pair whose running sum of `p` exceeds the draw, or
/// `None` past the last band. The sum starts at `0.0` and adds each `p`
/// in table order, so every comparison is the float comparison of the
/// cascade `x < p0`, `x < p0 + p1`, ….
pub(crate) fn draw<K, const N: usize>(rng: &mut SimRng, bands: [(f64, K); N]) -> Option<K> {
    let x = rng.gen_f64();
    let mut limit = 0.0;
    for (p, kind) in bands {
        limit += p;
        if x < limit {
            return Some(kind);
        }
    }
    None
}

/// Places in a GC cycle where a seeded crash can kill the simulated
/// machine. A crash is not a fault: it doesn't return an errno — it ends
/// the simulation at that instant, preserving only durable state (physical
/// memory, page tables, the write-ahead log). Recovery then restarts from
/// what survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// At SwapVA syscall entry, before any intent is logged or applied.
    BeforeBatchApply,
    /// Between requests of an aggregated batch: earlier requests applied
    /// (and logged), later ones never happened.
    InsideBatchApply,
    /// After the batch fully applied but before its trailing TLB flush.
    AfterBatchApply,
    /// Mid-shootdown: the IPI fan-out died partway through the victim
    /// loop, leaving some cores' TLBs stale.
    MidIpi,
    /// During an in-process undo-journal rollback (an aborting cycle dies
    /// again while restoring).
    MidRollback,
    /// During a write-ahead-log append: the record is torn mid-write and
    /// its operation never applies.
    MidLogAppend,
    /// During recovery's own undo replay — the double-crash case; recovery
    /// must be restartable.
    InsideRecovery,
    /// During a far-tier demotion, after the page's writeback to the
    /// device began but before the demotion's WAL record became durable.
    /// The DRAM copy is still intact, so recovery must treat the page as
    /// resident (and reclaim any orphaned device slot).
    MidDemoteWriteback,
    /// During a far-tier promotion, after the device fetch returned but
    /// before the fetched bytes landed in the frame. The device copy is
    /// still authoritative, so recovery must re-fetch.
    MidPromoteFetch,
}

impl CrashPoint {
    /// Every crash point, in a fixed order (for matrices and parsers).
    pub const ALL: [CrashPoint; 9] = [
        CrashPoint::BeforeBatchApply,
        CrashPoint::InsideBatchApply,
        CrashPoint::AfterBatchApply,
        CrashPoint::MidIpi,
        CrashPoint::MidRollback,
        CrashPoint::MidLogAppend,
        CrashPoint::InsideRecovery,
        CrashPoint::MidDemoteWriteback,
        CrashPoint::MidPromoteFetch,
    ];

    /// Stable name (CLI flag values, trace args).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeBatchApply => "before-batch",
            CrashPoint::InsideBatchApply => "inside-batch",
            CrashPoint::AfterBatchApply => "after-batch",
            CrashPoint::MidIpi => "mid-ipi",
            CrashPoint::MidRollback => "mid-rollback",
            CrashPoint::MidLogAppend => "mid-log-append",
            CrashPoint::InsideRecovery => "inside-recovery",
            CrashPoint::MidDemoteWriteback => "mid-demote-writeback",
            CrashPoint::MidPromoteFetch => "mid-promote-fetch",
        }
    }

    /// Numeric code for trace arguments and exit summaries.
    pub fn code(self) -> u64 {
        match self {
            CrashPoint::BeforeBatchApply => 1,
            CrashPoint::InsideBatchApply => 2,
            CrashPoint::AfterBatchApply => 3,
            CrashPoint::MidIpi => 4,
            CrashPoint::MidRollback => 5,
            CrashPoint::MidLogAppend => 6,
            CrashPoint::InsideRecovery => 7,
            CrashPoint::MidDemoteWriteback => 8,
            CrashPoint::MidPromoteFetch => 9,
        }
    }

    /// Parse a [`CrashPoint::name`] back.
    pub fn parse(s: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled crash: kill the machine the `after`-th time execution
/// reaches `point` (1 = the first occurrence). Deterministic by
/// construction — no probability involved, so a crash plan composes with
/// any seeded [`FaultPlan`] without perturbing its PRNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Where to die.
    pub point: CrashPoint,
    /// Occurrences of `point` to let pass before firing (1 = first).
    pub after: u64,
}

impl CrashPlan {
    /// Crash at the first occurrence of `point`.
    pub fn first(point: CrashPoint) -> CrashPlan {
        CrashPlan { point, after: 1 }
    }

    /// Crash at the `n`-th occurrence of `point` (clamped to ≥ 1).
    pub fn nth(point: CrashPoint, n: u64) -> CrashPlan {
        CrashPlan {
            point,
            after: n.max(1),
        }
    }

    /// Parse `"<point>"` or `"<point>:<n>"` (e.g. `"inside-batch:3"`).
    pub fn parse(s: &str) -> Option<CrashPlan> {
        match s.split_once(':') {
            Some((p, n)) => Some(CrashPlan::nth(CrashPoint::parse(p)?, n.parse().ok()?)),
            None => Some(CrashPlan::first(CrashPoint::parse(s)?)),
        }
    }
}

impl Kernel {
    /// Install (or clear) the fault plan consulted by every subsequent
    /// SwapVA request.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Roll the fault plan for one swap request; counts injections in
    /// `perf.swap_faults_injected`.
    pub(crate) fn roll_fault(&mut self) -> Option<FaultKind> {
        let kind = self.fault.as_mut()?.roll()?;
        self.perf.swap_faults_injected += 1;
        Some(kind)
    }

    /// Cycles a failed SwapVA attempt burns before returning its errno.
    /// Failed work costs real time — that is the whole reason retry needs
    /// a *bounded* budget — but none of it mutates simulated memory, TLBs,
    /// or caches (the request never got far enough to apply).
    pub(crate) fn fault_attempt_cost(
        &mut self,
        kind: FaultKind,
        pages: u64,
        _core: CoreId,
        _asid: Asid,
    ) -> Cycles {
        let costs = self.machine.costs;
        match kind {
            // Walked both first operands (full 4-level walks), then spun on
            // the PTE lock until the backoff limit.
            FaultKind::TransientContention => {
                Cycles(8 * costs.pt_level_access + 16 * costs.lock_unlock)
            }
            // Rejected while re-validating the VMA before touching PTEs.
            FaultKind::InvalidRequest => Cycles(4 * costs.pt_level_access),
            // Walked to the missing table, attempted (and failed) to
            // allocate it.
            FaultKind::WalkAllocFailure => {
                Cycles(4 * costs.pt_level_access + 4 * costs.mem_access)
            }
            // Exchanged the PTEs, broadcast the shootdown, waited out the
            // timeout, then rolled every PTE back.
            FaultKind::ShootdownTimeout => {
                let cores = self.machine.cores as u64;
                Cycles(
                    2 * 2 * pages * costs.pte_swap
                        + cores.saturating_sub(1) * costs.ipi_send
                        + 4 * costs.ipi_receive_flush,
                )
            }
        }
    }

    /// Install the crash schedule (one entry per planned crash — several
    /// entries model a double crash, e.g. `[inside-batch, inside-recovery]`).
    /// Clears any previously latched crash.
    pub fn set_crash_plans(&mut self, plans: Vec<CrashPlan>) {
        self.crash = plans;
        self.crashed = None;
    }

    /// The crash plans not yet fired.
    pub fn crash_plans(&self) -> &[CrashPlan] {
        &self.crash
    }

    /// The latched crash, if the machine has died. Once set, every
    /// crash-gated kernel entry point refuses to run until
    /// [`Kernel::reboot`].
    pub fn crashed(&self) -> Option<CrashPoint> {
        self.crashed
    }

    /// Execution just reached `point`: consume one occurrence from the
    /// matching plan (if any) and, when it hits zero, latch the crash and
    /// return `true`. Callers must then abandon all volatile work — only
    /// durable state (vmem, page tables, WAL) is preserved.
    pub fn crash_fire(&mut self, point: CrashPoint) -> bool {
        let Some(i) = self.crash.iter().position(|p| p.point == point) else {
            return false;
        };
        self.crash[i].after -= 1;
        if self.crash[i].after > 0 {
            return false;
        }
        self.crash.remove(i);
        self.crashed = Some(point);
        self.trace.instant(
            svagc_metrics::TraceKind::CrashFired,
            Cycles::ZERO,
            0,
            &[("point", point.code())],
        );
        true
    }

    /// Gate a kernel entry point on the crash schedule: error out if the
    /// machine is already dead, then check whether it dies right here.
    pub(crate) fn crash_gate(&mut self, point: CrashPoint) -> Result<(), crate::SwapVaError> {
        if let Some(p) = self.crashed {
            return Err(crate::SwapVaError::Crashed { point: p });
        }
        if self.crash_fire(point) {
            return Err(crate::SwapVaError::Crashed { point });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_sequence() {
        let cfg = FaultConfig::uniform(0.3, 99);
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        let seq_a: Vec<_> = (0..500).map(|_| a.roll()).collect();
        let seq_b: Vec<_> = (0..500).map(|_| b.roll()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(Option::is_some));
    }

    #[test]
    fn zero_probability_never_fires() {
        let mut p = FaultPlan::new(FaultConfig::uniform(0.0, 1));
        assert_eq!((0..1000).filter(|_| p.roll().is_some()).count(), 0);
    }

    /// The kinds the first 64 rolls of one seed draw, pinned so that a
    /// reordered probability table or a changed float sum fails here at
    /// any rate, not only in the figure digests at theirs. `.` is no
    /// fault, `A` EAGAIN, `I` EINVAL, `M` ENOMEM, `T` an IPI timeout.
    #[test]
    fn the_fault_sequence_of_a_seed_is_pinned() {
        let letters = |cfg| {
            let mut p = FaultPlan::new(cfg);
            (0..64)
                .map(|_| match p.roll() {
                    None => '.',
                    Some(FaultKind::TransientContention) => 'A',
                    Some(FaultKind::InvalidRequest) => 'I',
                    Some(FaultKind::WalkAllocFailure) => 'M',
                    Some(FaultKind::ShootdownTimeout) => 'T',
                })
                .collect::<String>()
        };
        assert_eq!(
            letters(FaultConfig::uniform(0.3, 0x5EED)),
            "A...A.AA.M..AA...AT.....A..A.A...AA..IAT.AIA.AA.A.A.T..A....A..A"
        );
        assert_eq!(
            letters(FaultConfig::permanent_only(0.3, 0x5EED)),
            "I...I.MI.M..IM...IM.....I..I.I...IM..MIM.IMM.II.M.M.M..I....I..I"
        );
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let mut p = FaultPlan::new(FaultConfig::uniform(0.1, 7));
        let n: usize = (0..20_000).filter(|_| p.roll().is_some()).count();
        assert!((1500..2500).contains(&n), "fired {n}/20000 at p=0.1");
    }

    #[test]
    fn uniform_split_produces_every_kind() {
        let mut p = FaultPlan::new(FaultConfig::uniform(0.5, 3));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            if let Some(k) = p.roll() {
                seen.insert(k);
            }
        }
        assert_eq!(seen.len(), 4, "all four modes fire: {seen:?}");
    }

    #[test]
    fn transient_only_is_all_eagain() {
        let mut p = FaultPlan::new(FaultConfig::transient_only(0.4, 11));
        for _ in 0..2000 {
            if let Some(k) = p.roll() {
                assert_eq!(k, FaultKind::TransientContention);
                assert!(k.is_transient());
            }
        }
    }

    #[test]
    fn kind_taxonomy() {
        assert!(FaultKind::TransientContention.is_transient());
        assert!(FaultKind::ShootdownTimeout.is_transient());
        assert!(!FaultKind::InvalidRequest.is_transient());
        assert!(!FaultKind::WalkAllocFailure.is_transient());
        assert_eq!(FaultKind::InvalidRequest.errno(), "EINVAL");
    }
}
