//! Resilient SwapVA execution: retry, fall back, split.
//!
//! The compaction phase must finish even when individual SwapVA calls
//! fail. [`execute_swaps`] wraps `swap_va`/`swap_va_batch` with the three
//! degradation moves, in order of preference:
//!
//! 1. **Retry** — transient faults (`EAGAIN` contention, shootdown
//!    timeout) are re-issued with a bounded, cycle-charged exponential
//!    backoff ([`RetryPolicy`]). Failed attempts cost real simulated time;
//!    the budget bounds how much one stubborn request can burn.
//! 2. **Fallback** — permanent faults (`EINVAL`, `ENOMEM`), or transients
//!    that exhaust the budget, demote *that one request* to `memmove` of
//!    the same whole pages. Byte copy places exactly the bytes the swap
//!    would have placed at the destination, so heap contents stay
//!    bit-identical to the fault-free run.
//! 3. **Split** — when a request mid-batch faults, the already-applied
//!    prefix MUST NOT be replayed (a second swap would undo the first).
//!    Execution resumes *from the failing index*, splitting the batch.
//!
//! The outcome reports retries, fallbacks, and splits so GC stats expose
//! how much degradation a run absorbed.

use crate::error::GcError;
use crate::minor::MinorStats;
use crate::stats::GcCycleStats;
use svagc_kernel::{CoreId, Kernel, SwapBatch, SwapRequest, SwapVaError, SwapVaOptions};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{AddressSpace, PAGE_SIZE};

// The retry/backoff policy used to be defined here; it now lives in the
// kernel crate so the far-memory device I/O path can share it. Re-exported
// to keep every existing import site (`svagc_core::RetryPolicy`) intact.
pub use svagc_kernel::RetryPolicy;

/// What resilient execution of a request list cost and absorbed.
#[derive(Debug, Clone, Default)]
pub struct SwapOutcome {
    /// Cycles charged to the calling core (successful calls, failed
    /// attempts, backoff spins, fallback copies).
    pub cycles: Cycles,
    /// Shootdown interference pushed onto other cores.
    pub interference: Cycles,
    /// Transient-fault retries issued.
    pub retries: u64,
    /// Batches split because a mid-batch request faulted.
    pub batch_splits: u64,
    /// Indices (into the input slice) of requests demoted to `memmove`.
    pub fallback: Vec<usize>,
}

/// Execute `reqs` with retry/fallback/split resilience.
///
/// `aggregated` selects one `swap_va_batch` syscall over the remaining
/// run (re-issued from the failing index after each fault) versus one
/// `swap_va` syscall per request. Structural [`VmError`]s are *not*
/// degraded — they mean the collector built an invalid request, which is
/// a bug to surface, not an operational fault to absorb.
pub fn execute_swaps(
    kernel: &mut Kernel,
    space: &mut AddressSpace,
    reqs: &[SwapRequest],
    opts: SwapVaOptions,
    core: CoreId,
    aggregated: bool,
    policy: &RetryPolicy,
) -> Result<SwapOutcome, GcError> {
    let mut out = SwapOutcome::default();
    let mut start = 0usize; // first request not yet applied
    let mut attempts_at_head = 0u32; // retries spent on reqs[start]

    while start < reqs.len() {
        let result = if aggregated {
            kernel.swap_va_batch(space, core, &reqs[start..], opts)
        } else {
            kernel.swap_va(space, core, reqs[start], opts)
        };
        match result {
            Ok((t, intf)) => {
                out.cycles += t;
                out.interference += intf.0;
                kernel.trace.advance(t);
                if aggregated {
                    break; // the whole remaining run went through
                }
                start += 1;
                attempts_at_head = 0;
            }
            Err(e @ SwapVaError::Vm(_)) => return Err(GcError::Swap(e)),
            // A seeded crash killed the machine: never retried, never
            // demoted — surfaced so the caller abandons the cycle intact
            // for crash recovery.
            Err(SwapVaError::Crashed { point }) => return Err(GcError::Crashed { point }),
            Err(SwapVaError::Fault { kind, index, spent }) => {
                out.cycles += spent;
                kernel.trace.advance(spent);
                if index > 0 {
                    // Requests start..start+index were applied; the batch
                    // is now split. Resume FROM the failing request —
                    // replaying the prefix would swap it back.
                    out.batch_splits += 1;
                    start += index;
                    attempts_at_head = 0;
                    kernel.trace.instant(
                        TraceKind::BatchSplit,
                        Cycles::ZERO,
                        core.0 as u32,
                        &[("resume_index", start as u64)],
                    );
                }
                if kind.is_transient() && attempts_at_head < policy.max_retries {
                    attempts_at_head += 1;
                    out.retries += 1;
                    let backoff = policy.backoff(attempts_at_head);
                    out.cycles += backoff;
                    kernel.trace.instant(
                        TraceKind::SwapRetry,
                        Cycles::ZERO,
                        core.0 as u32,
                        &[("attempt", attempts_at_head as u64), ("backoff", backoff.get())],
                    );
                    kernel.trace.advance(backoff);
                } else {
                    // Permanent fault, or the retry budget ran dry: demote
                    // this one request to a whole-page byte copy — unless
                    // the fallback budget itself is exhausted, in which
                    // case the fault is unrecoverable at this layer and
                    // the (transactional) caller must abort the cycle.
                    if policy
                        .fallback_budget
                        .is_some_and(|b| out.fallback.len() as u64 >= b)
                    {
                        return Err(GcError::Swap(SwapVaError::Fault {
                            kind,
                            index: 0,
                            spent: Cycles::ZERO,
                        }));
                    }
                    let req = reqs[start];
                    kernel.trace.instant(
                        TraceKind::SwapFallback,
                        Cycles::ZERO,
                        core.0 as u32,
                        &[("index", start as u64), ("pages", req.pages)],
                    );
                    let copy =
                        kernel.memmove(space, core, req.a, req.b, req.pages * PAGE_SIZE)?;
                    out.cycles += copy;
                    kernel.trace.advance(copy);
                    out.fallback.push(start);
                    start += 1;
                    attempts_at_head = 0;
                }
            }
        }
    }
    // Accounting contract the compactor's stats rebooking relies on: each
    // fallback index identifies a distinct input request, reported at most
    // once and in ascending order (the cursor only moves forward).
    debug_assert!(
        out.fallback.windows(2).all(|w| w[0] < w[1]),
        "fallback indices must be strictly increasing: {:?}",
        out.fallback
    );
    debug_assert!(
        out.fallback.iter().all(|&i| i < reqs.len()),
        "fallback index out of range: {:?} (len {})",
        out.fallback,
        reqs.len()
    );
    Ok(out)
}

/// The settings one collection attempt flushes its swap batches with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwapPlan<'a> {
    pub opts: SwapVaOptions,
    /// One `swap_va_batch` syscall per flush instead of one call per
    /// request (see [`execute_swaps`]).
    pub aggregated: bool,
    pub retry: &'a RetryPolicy,
}

/// Cycle statistics that a flushed swap batch is booked into.
pub(crate) trait SwapBook {
    /// Book what the flush absorbed: retries, splits and interference.
    fn book(&mut self, out: &SwapOutcome);
    /// Move one object of `bytes` that was queued (and counted) as a swap
    /// but moved by copy from the swap columns to the fallback ones.
    fn rebook_fallback(&mut self, bytes: u64);
}

impl SwapPlan<'_> {
    /// Execute and clear `batch` through [`execute_swaps`] and book the
    /// outcome into `stats`. Returns the cycles charged to `core` and the
    /// interference pushed onto other cores; an empty batch costs nothing.
    ///
    /// Fallback indices are distinct and the batch is cleared on every
    /// flush, so each fallback is rebooked at most once. The rebooking
    /// saturates anyway, so a miscount degrades the stats instead of
    /// escalating into a debug-build panic mid-collection.
    pub(crate) fn flush(
        &self,
        kernel: &mut Kernel,
        space: &mut AddressSpace,
        batch: &mut SwapBatch,
        core: CoreId,
        stats: &mut impl SwapBook,
    ) -> Result<(Cycles, Cycles), GcError> {
        if batch.is_empty() {
            return Ok((Cycles::ZERO, Cycles::ZERO));
        }
        let reqs = batch.requests();
        let result =
            execute_swaps(kernel, space, reqs, self.opts, core, self.aggregated, self.retry);
        if let Ok(out) = &result {
            stats.book(out);
            for &i in &out.fallback {
                stats.rebook_fallback(batch.bytes(i));
            }
        }
        batch.clear();
        let out = result?;
        Ok((out.cycles, out.interference))
    }
}

impl SwapBook for GcCycleStats {
    fn book(&mut self, out: &SwapOutcome) {
        self.swap_retries += out.retries;
        self.batch_splits += out.batch_splits;
        self.interference += out.interference;
    }

    fn rebook_fallback(&mut self, bytes: u64) {
        self.swapped_objects = self.swapped_objects.saturating_sub(1);
        self.swapped_bytes = self.swapped_bytes.saturating_sub(bytes);
        self.memmove_bytes += bytes;
        self.swap_fallback_objects += 1;
        self.swap_fallback_bytes += bytes;
    }
}

impl SwapBook for MinorStats {
    fn book(&mut self, out: &SwapOutcome) {
        self.swap_retries += out.retries;
        self.batch_splits += out.batch_splits;
        self.interference += out.interference;
    }

    /// Minor stats count promoted objects, not swapped bytes.
    fn rebook_fallback(&mut self, _bytes: u64) {
        self.swapped_objects = self.swapped_objects.saturating_sub(1);
        self.swap_fallback_objects += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_kernel::{FaultConfig, FaultPlan, FlushMode};
    use svagc_metrics::MachineConfig;
    use svagc_vmem::{Asid, VirtAddr};

    const CORE: CoreId = CoreId(0);

    fn setup(reqs: usize) -> (Kernel, AddressSpace, Vec<SwapRequest>) {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 64 << 20);
        let mut space = AddressSpace::new(Asid(1));
        let base = VirtAddr(0x10_0000);
        let pages_per = 2u64;
        let total = reqs as u64 * 2 * pages_per;
        k.vmem.map_pages(&mut space, base, total).unwrap();
        let mut v = Vec::new();
        for i in 0..reqs as u64 {
            let a = base + i * 2 * pages_per * PAGE_SIZE;
            let b = a + pages_per * PAGE_SIZE;
            // Distinct content on each side so swaps are observable.
            k.vmem.write_u64(&space, a, 0xA000 + i).unwrap();
            k.vmem.write_u64(&space, b, 0xB000 + i).unwrap();
            v.push(SwapRequest {
                a,
                b,
                pages: pages_per,
            });
        }
        (k, space, v)
    }

    fn opts() -> SwapVaOptions {
        SwapVaOptions {
            pmd_cache: true,
            overlap_opt: true,
            flush: FlushMode::LocalOnly,
        }
    }

    /// Every request ends up applied: request i's `a` page holds what its
    /// `b` page held (swap) or a copy of `a` (fallback puts `a` at `b`).
    fn assert_all_applied(k: &Kernel, space: &AddressSpace, reqs: &[SwapRequest], out: &SwapOutcome) {
        for (i, r) in reqs.iter().enumerate() {
            let at_b = k.vmem.read_u64(space, r.b).unwrap();
            assert_eq!(at_b, 0xA000 + i as u64, "request {i}: dst holds src content");
            let at_a = k.vmem.read_u64(space, r.a).unwrap();
            if out.fallback.contains(&i) {
                // memmove copies a→b, leaving a unchanged.
                assert_eq!(at_a, 0xA000 + i as u64, "request {i}: fallback leaves src");
            } else {
                assert_eq!(at_a, 0xB000 + i as u64, "request {i}: swap exchanged");
            }
        }
    }

    #[test]
    fn fault_free_batch_is_one_syscall() {
        let (mut k, mut space, reqs) = setup(8);
        let out = execute_swaps(&mut k, &mut space, &reqs, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        assert_eq!(out.retries, 0);
        assert_eq!(out.batch_splits, 0);
        assert!(out.fallback.is_empty());
        assert_eq!(k.perf.syscalls, 1);
        assert_all_applied(&k, &space, &reqs, &out);
    }

    #[test]
    fn transient_faults_are_retried_to_completion() {
        let (mut k, mut space, reqs) = setup(16);
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::transient_only(0.3, 42))));
        let out = execute_swaps(&mut k, &mut space, &reqs, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        assert!(out.retries > 0, "p=0.3 over 16 requests must fault");
        assert!(out.fallback.is_empty(), "transients never fall back");
        assert_all_applied(&k, &space, &reqs, &out);
    }

    #[test]
    fn permanent_faults_fall_back_to_memmove() {
        let (mut k, mut space, reqs) = setup(16);
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_transient: 0.0,
            p_invalid: 0.2,
            p_nomem: 0.1,
            p_timeout: 0.0,
            seed: 7,
        })));
        let bytes_before = k.perf.bytes_copied;
        let out = execute_swaps(&mut k, &mut space, &reqs, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        assert!(!out.fallback.is_empty(), "p=0.3 permanent over 16 requests");
        assert!(k.perf.bytes_copied > bytes_before, "fallback copies bytes");
        assert_all_applied(&k, &space, &reqs, &out);
    }

    #[test]
    fn mid_batch_fault_splits_and_never_replays_prefix() {
        // High fault rate: guaranteed mid-batch faults. If the executor
        // ever replayed an applied prefix, some request would end up
        // double-swapped (back to its original content) and the content
        // check would fail.
        let (mut k, mut space, reqs) = setup(32);
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.4, 3))));
        let out = execute_swaps(&mut k, &mut space, &reqs, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        assert!(out.batch_splits > 0, "p=0.4 over 32 requests splits batches");
        assert_all_applied(&k, &space, &reqs, &out);
    }

    #[test]
    fn separated_mode_retries_per_request() {
        let (mut k, mut space, reqs) = setup(12);
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.3, 11))));
        let out = execute_swaps(&mut k, &mut space, &reqs, opts(), CORE, false, &RetryPolicy::default())
            .unwrap();
        assert!(out.retries + out.fallback.len() as u64 > 0);
        assert_eq!(out.batch_splits, 0, "separated calls never split");
        assert_all_applied(&k, &space, &reqs, &out);
    }

    #[test]
    fn exhausted_retry_budget_falls_back() {
        let (mut k, mut space, reqs) = setup(4);
        // Every call faults transiently: with a zero budget each request
        // must fall back immediately.
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::transient_only(1.0, 5))));
        let out = execute_swaps(
            &mut k,
            &mut space,
            &reqs,
            opts(),
            CORE,
            true,
            &RetryPolicy::with_max_retries(0),
        )
        .unwrap();
        assert_eq!(out.fallback, vec![0, 1, 2, 3]);
        assert_eq!(out.retries, 0);
        assert_all_applied(&k, &space, &reqs, &out);
    }

    #[test]
    fn failed_attempts_cost_cycles() {
        let (mut k1, mut s1, r1) = setup(8);
        let clean = execute_swaps(&mut k1, &mut s1, &r1, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        let (mut k2, mut s2, r2) = setup(8);
        k2.set_fault_plan(Some(FaultPlan::new(FaultConfig::transient_only(0.5, 9))));
        let faulty = execute_swaps(&mut k2, &mut s2, &r2, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        assert!(faulty.retries > 0);
        assert!(
            faulty.cycles > clean.cycles,
            "retries burn time: {} !> {}",
            faulty.cycles,
            clean.cycles
        );
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Cycles(64));
        assert_eq!(p.backoff(2), Cycles(128));
        assert_eq!(p.backoff(7), Cycles(4096));
        assert_eq!(p.backoff(30), Cycles(4096), "capped");
    }

    /// Regression: `backoff` must saturate, never overflow, for any
    /// attempt number — even with a cap high enough that the saturated
    /// multiply is what protects us (a naive `base * (1 << shift)` panics
    /// in debug builds once attempt > 58 with the default base).
    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            max_retries: u32::MAX,
            backoff_base: u64::MAX / 2,
            backoff_cap: u64::MAX,
            fallback_budget: None,
        };
        assert_eq!(p.backoff(u32::MAX), Cycles(u64::MAX), "saturated, not wrapped");
        assert_eq!(p.backoff(64), Cycles(u64::MAX), "shift clamped at 63");
        // Default shape with an uncapped ceiling: large attempts still
        // return a sane (saturated) value rather than wrapping to ~0.
        let d = RetryPolicy {
            backoff_cap: u64::MAX,
            ..RetryPolicy::default()
        };
        assert_eq!(d.backoff(100), Cycles(64u64.saturating_mul(1 << 63)));
        assert!(d.backoff(100) >= d.backoff(58), "monotone under saturation");
    }

    /// Satellite: `FaultPlan::roll` draws exactly one PRNG value per swap
    /// request, so the per-request fault sequence is a pure function of
    /// the seed and the request order — *not* of how requests are grouped
    /// into batches. Aggregated execution (which splits batches at faults
    /// and re-issues from the failing index) must therefore absorb the
    /// identical faults as fully separated execution.
    #[test]
    fn fault_rolls_are_deterministic_across_batch_splits() {
        let cfg = FaultConfig::uniform(0.35, 77);
        let (mut k1, mut s1, r1) = setup(24);
        k1.set_fault_plan(Some(FaultPlan::new(cfg)));
        let agg = execute_swaps(&mut k1, &mut s1, &r1, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        let (mut k2, mut s2, r2) = setup(24);
        k2.set_fault_plan(Some(FaultPlan::new(cfg)));
        let sep = execute_swaps(&mut k2, &mut s2, &r2, opts(), CORE, false, &RetryPolicy::default())
            .unwrap();
        assert!(agg.batch_splits > 0, "p=0.35 over 24 requests must split");
        assert_eq!(agg.retries, sep.retries, "same transient sequence");
        assert_eq!(agg.fallback, sep.fallback, "same permanent demotions");
        assert_eq!(
            k1.perf.swap_faults_injected, k2.perf.swap_faults_injected,
            "identical injected-fault count regardless of batching"
        );
        assert_all_applied(&k1, &s1, &r1, &agg);
        assert_all_applied(&k2, &s2, &r2, &sep);
    }

    #[test]
    fn exhausted_fallback_budget_is_unrecoverable() {
        let (mut k, mut space, reqs) = setup(8);
        // Every request faults permanently; a budget of 3 absorbs three
        // demotions and then surfaces the fourth as a hard error.
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_transient: 0.0,
            p_invalid: 1.0,
            p_nomem: 0.0,
            p_timeout: 0.0,
            seed: 13,
        })));
        let policy = RetryPolicy::default().with_fallback_budget(Some(3));
        let err = execute_swaps(&mut k, &mut space, &reqs, opts(), CORE, true, &policy)
            .unwrap_err();
        assert!(matches!(err, GcError::Swap(SwapVaError::Fault { .. })));
        assert!(err.is_operational(), "the transaction layer may retry this");
    }

    /// Regression: a permanent fault on an aggregated batch's last
    /// request, after the prefix swapped its PTEs, falls back to memmove
    /// with no later swap to flush — so the faulting call itself must
    /// shoot down the prefix's translations, or cores keep reading
    /// through the dead entries.
    #[test]
    fn faulted_batch_flushes_its_applied_prefix() {
        let (mut k, mut space, reqs) = setup(3);
        k.set_tlb_oracle(true);
        // A seed whose first two rolls pass and whose third faults.
        let plan = |seed| FaultPlan::new(FaultConfig::permanent_only(0.3, seed));
        let seed = (0u64..)
            .find(|&seed| {
                let mut p = plan(seed);
                p.roll().is_none() && p.roll().is_none() && p.roll().is_some()
            })
            .unwrap();
        k.set_fault_plan(Some(plan(seed)));
        // Another core caches the prefix's translations.
        let warm = CoreId(1);
        for r in &reqs[..2] {
            k.translate(&space, warm, r.a).unwrap();
            k.translate(&space, warm, r.b).unwrap();
        }
        let tracked = SwapVaOptions {
            flush: FlushMode::Tracked,
            ..opts()
        };
        let out = execute_swaps(&mut k, &mut space, &reqs, tracked, CORE, true, &RetryPolicy::default())
            .unwrap();
        assert_eq!((out.batch_splits, out.fallback.as_slice()), (1, &[2][..]));
        assert_all_applied(&k, &space, &reqs, &out);
        for r in &reqs[..2] {
            for va in [r.a, r.b] {
                let (_, misses) = k.tlb_stats(warm);
                k.translate(&space, warm, va).unwrap();
                assert_eq!(k.tlb_stats(warm).1, misses + 1, "core 1 still caches {va:?}");
            }
        }
        assert_eq!(k.tlb_oracle_stats().stale_hits, 0);
    }

    #[test]
    fn unset_fallback_budget_changes_nothing() {
        let (mut k, mut space, reqs) = setup(16);
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.4, 7))));
        let out = execute_swaps(&mut k, &mut space, &reqs, opts(), CORE, true, &RetryPolicy::default())
            .unwrap();
        assert_all_applied(&k, &space, &reqs, &out);
    }
}
