//! The GC transaction protocol: every cycle is all-or-nothing.
//!
//! A [`CompactionJournal`] brackets one collection attempt:
//!
//! 1. [`CompactionJournal::begin`] snapshots the collector-visible
//!    pre-state — the heap's object index and cursor, the root slots, and
//!    (when verification is on) the FNV content hash of every live object
//!    — and opens a kernel undo epoch, in which every PTE swap, overlap
//!    rotation, memmove, and word write the cycle applies records its
//!    absolute pre-image first.
//! 2. On success, [`CompactionJournal::commit`] closes the epoch: the new
//!    heap layout is published and the transaction is over.
//! 3. On *any* error, [`CompactionJournal::abort`] runs the kernel's undo
//!    pass over the live epoch — the same pass crash recovery runs over a
//!    logged one — restoring memory and page tables bit-for-bit, restores
//!    the heap index and root slots, and broadcasts a TLB shootdown so no
//!    core can see a rolled-back mapping. After an abort the
//!    mutator-visible heap is exactly the pre-GC heap.
//!
//! `transact` is the one retry loop both collectors run their attempts
//! through: begin, attempt, commit — or roll back, account the aborted
//! attempt, verify the rollback, and climb the degraded-mode ladder
//! ([`crate::degrade::DegradeController`]) before retrying.
//!
//! The undo log lives in the *kernel* layer ([`svagc_kernel::WalOp`])
//! because that is the only layer that sees every mutation: collector code
//! never writes memory except through `Kernel` entry points. This wrapper
//! adds the collector-side pre-state that the kernel cannot know about.

use crate::degrade::{DegradeController, ModeTransition};
use crate::error::GcError;
use crate::recovery::CycleMeta;
use svagc_heap::{Heap, HeapSnapshot, HeapVerifier, ObjRef, RootSet};
use svagc_kernel::{CoreId, CrashPoint, Kernel, RollbackError};
use svagc_metrics::{Cycles, TraceKind};

/// What one rollback cost and undid.
#[derive(Debug, Clone, Copy)]
pub struct RollbackReport {
    /// Undo records replayed, newest first.
    pub ops: usize,
    /// Pages rewritten (PTE restores and byte restores).
    pub pages: u64,
    /// Simulated cycles the rollback itself consumed.
    pub cycles: Cycles,
}

/// Pre-state of one transactional GC cycle. See the module docs.
#[derive(Debug)]
pub struct CompactionJournal {
    heap: HeapSnapshot,
    roots: Vec<ObjRef>,
    pre_hash: Option<u64>,
}

impl CompactionJournal {
    /// Open the transaction: snapshot collector pre-state and open the
    /// kernel undo epoch. When `want_hash` is set, the heap's content hash
    /// is computed up front so an abort can prove bit-for-bit restoration.
    ///
    /// When the kernel's write-ahead log is armed, the epoch is durable:
    /// its begin record carries the full pre-cycle snapshot
    /// ([`CycleMeta`]) — the state crash recovery restores if this cycle
    /// never commits. The content hash is always computed in that case:
    /// it is the recovery oracle's ground truth.
    pub fn begin(
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &RootSet,
        want_hash: bool,
    ) -> CompactionJournal {
        let pre_hash = (want_hash || kernel.wal_enabled())
            .then(|| HeapVerifier::new().content_hash(kernel, heap));
        let txn = CompactionJournal {
            heap: heap.snapshot(),
            roots: roots.snapshot(),
            pre_hash,
        };
        let meta = if kernel.wal_enabled() {
            CycleMeta::capture(heap, roots, pre_hash.unwrap_or(0)).encode()
        } else {
            Vec::new()
        };
        kernel.wal_cycle_begin(meta);
        txn
    }

    /// The pre-GC content hash, when `begin` was asked to compute one.
    pub fn pre_hash(&self) -> Option<u64> {
        self.pre_hash
    }

    /// Commit: the cycle succeeded; close the undo epoch. When the epoch
    /// is durable, the commit record — carrying the full post-cycle
    /// snapshot and content hash — is appended, making the cycle durable:
    /// a crash from here on recovers to the *post*-cycle heap.
    pub fn commit(self, kernel: &mut Kernel, heap: &mut Heap, roots: &RootSet) {
        let meta = if kernel.wal_cycle_open() {
            let hash = HeapVerifier::new().content_hash(kernel, heap);
            CycleMeta::capture(heap, roots, hash).encode()
        } else {
            Vec::new()
        };
        kernel.wal_commit(meta);
        heap.release(self.heap);
    }

    /// Abort: undo the live epoch, restore the heap index and roots, and
    /// broadcast a shootdown so every core drops mappings the undo may
    /// have rewritten. `core` is charged for the work. Once the rollback
    /// has fully restored the pre-cycle state, a durable epoch is closed
    /// with an abort record — the durable promise that recovery after a
    /// later crash need not undo this cycle.
    ///
    /// Errors are [`GcError::Crashed`] when a seeded crash point killed
    /// the machine mid-rollback (a durable epoch then stays open, so
    /// crash recovery redoes the undo from the log), or a memory-model
    /// error when a record's range no longer maps — a simulator bug, not
    /// an operational condition.
    pub fn abort(
        self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
        core: CoreId,
    ) -> Result<RollbackReport, GcError> {
        // Memory and page tables first (needs the space the cycle ran in)…
        let (mut cycles, ops, pages) =
            kernel
                .wal_rollback(heap.space_mut(), core)
                .map_err(|e| match e {
                    RollbackError::Vm(v) => GcError::from(v),
                    RollbackError::Crashed => GcError::Crashed {
                        point: CrashPoint::MidRollback,
                    },
                })?;
        // …then the collector-side index and roots…
        let asid = heap.space().asid();
        heap.restore(self.heap);
        roots.restore(self.roots);
        // …then make sure no core's TLB still caches a rolled-back PTE.
        let (flush, _intf) = kernel.flush_asid_all_cores(core, asid);
        cycles += flush;
        if let Some(point) = kernel.crashed() {
            return Err(GcError::Crashed { point });
        }
        kernel.wal_cycle_aborted();
        Ok(RollbackReport { ops, pages, cycles })
    }
}

/// A collector whose cycles run through [`transact`].
pub(crate) trait Transactional {
    /// What the collector collects.
    type Heap;
    /// The part of [`Transactional::Heap`] a transaction snapshots and
    /// rolls back (the old generation, for a scavenge).
    fn journaled(heap: &mut Self::Heap) -> &mut Heap;
    /// The degraded-mode ladder carried across cycles.
    fn degrade(&mut self) -> &mut DegradeController;
    /// Where the next attempt starts on the GC timeline.
    fn timeline(&self, kernel: &Kernel) -> Cycles;
    /// Move the timeline (past an aborted attempt).
    fn set_timeline(&mut self, kernel: &mut Kernel, at: Cycles);
}

/// How a committed transaction got there: the aborted attempts before it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Retries {
    /// Attempts that aborted and rolled back.
    pub aborts: u64,
    /// Of those, watchdog deadline expiries.
    pub watchdog_expiries: u64,
    /// Pages the rollbacks rewrote.
    pub rollback_pages: u64,
    /// Cycles the aborted attempts and their rollbacks burned — part of
    /// the pause.
    pub overhead: Cycles,
    /// Degradation level the committed attempt ran at.
    pub mode: u8,
}

/// Run one GC cycle as a transaction: begin, run `attempt`, commit — or,
/// on error, pass a crash straight through (the machine is dead, so
/// nothing rolls back: the epoch stays open for recovery) and otherwise
/// roll back, charge the attempt's cost plus the rollback's onto the
/// timeline, verify the rollback when `verify` is set, and climb the
/// degrade ladder. Operational errors retry on the next rung; anything
/// else — or an exhausted ladder, wrapped in [`GcError::Exhausted`] —
/// propagates with the heap already restored.
///
/// A failed attempt reports the cycles it burned alongside its error.
pub(crate) fn transact<C: Transactional, T>(
    gc: &mut C,
    kernel: &mut Kernel,
    heap: &mut C::Heap,
    roots: &mut RootSet,
    verify: bool,
    mut attempt: impl FnMut(
        &mut C,
        &mut Kernel,
        &mut C::Heap,
        &mut RootSet,
    ) -> Result<T, (GcError, Cycles)>,
) -> Result<(T, Retries), GcError> {
    let mut retries = Retries::default();
    loop {
        let start = gc.timeline(kernel);
        let txn = CompactionJournal::begin(kernel, C::journaled(heap), roots, verify);
        let pre_hash = txn.pre_hash();
        let (e, spent) = match attempt(gc, kernel, heap, roots) {
            Ok(out) => {
                txn.commit(kernel, C::journaled(heap), roots);
                retries.mode = gc.degrade().mode().level();
                if let Some(t) = gc.degrade().on_clean() {
                    trace_mode_change(kernel, t);
                }
                return Ok((out, retries));
            }
            Err(failed) => failed,
        };
        // A seeded crash is not an abort: the machine is dead, so nothing
        // rolls back. The epoch stays open — exactly the torn state crash
        // recovery expects in the durable log.
        if let Some(point) = e.crash_point() {
            return Err(GcError::Crashed { point });
        }
        // Roll back memory, page tables, heap index, roots.
        let rb = txn.abort(kernel, C::journaled(heap), roots, CoreId(0))?;
        retries.aborts += 1;
        retries.rollback_pages += rb.pages;
        if matches!(e, GcError::Deadline { .. }) {
            retries.watchdog_expiries += 1;
        }
        // The aborted attempt and its rollback burned real virtual time:
        // it is part of this cycle's pause.
        let cost = spent + rb.cycles;
        retries.overhead += cost;
        gc.set_timeline(kernel, start + cost);
        kernel.trace.instant(
            TraceKind::CycleAbort,
            Cycles::ZERO,
            0,
            &[
                ("attempt", retries.aborts),
                ("mode", gc.degrade().mode().level() as u64),
                ("rollback_ops", rb.ops as u64),
                ("rollback_pages", rb.pages),
            ],
        );
        // Prove the rollback before touching anything else: bit-for-bit
        // content, clean layout and boundaries.
        if verify {
            let restored = C::journaled(heap);
            let verifier = HeapVerifier::new();
            let post = verifier.content_hash(kernel, restored);
            if Some(post) != pre_hash {
                return Err(GcError::Corruption {
                    phase: "rollback",
                    violations: 1,
                    first: format!(
                        "post-rollback content hash {post:#018x} != pre-GC {:#018x}",
                        pre_hash.unwrap_or(0)
                    ),
                });
            }
            for report in [
                verifier.verify_layout(kernel, restored),
                verifier.verify_boundaries(kernel, restored),
            ] {
                if !report.is_clean() {
                    return Err(GcError::corruption(&report));
                }
            }
        }
        // Operational failures walk the degradation ladder and retry;
        // anything else — or an exhausted ladder — propagates.
        let escalation = e
            .is_operational()
            .then(|| gc.degrade().on_abort())
            .flatten();
        match escalation {
            Some(t) => trace_mode_change(kernel, t),
            // An operational error that found the ladder already on its
            // last rung is a distinct outcome for the driver: the
            // collector did not merely fail, it ran out of fallbacks.
            None if e.is_operational() && gc.degrade().policy().enabled => {
                return Err(GcError::Exhausted(Box::new(e)))
            }
            None => return Err(e),
        }
    }
}

fn trace_mode_change(kernel: &mut Kernel, t: ModeTransition) {
    kernel.trace.instant(
        TraceKind::ModeChange,
        Cycles::ZERO,
        0,
        &[("from", t.from.level() as u64), ("to", t.to.level() as u64)],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_heap::{HeapConfig, ObjShape};
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    const CORE: CoreId = CoreId(0);

    #[test]
    fn abort_restores_heap_hash_and_roots() {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
        let mut heap = Heap::new(&mut k, Asid(1), HeapConfig::new(4 << 20)).unwrap();
        let mut roots = RootSet::new();
        let (a, _) = heap.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        let (b, _) = heap.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        let rid = roots.push(a);
        let verifier = HeapVerifier::new();
        let pre = verifier.content_hash(&k, &mut heap);

        let txn = CompactionJournal::begin(&mut k, &mut heap, &roots, true);
        assert_eq!(txn.pre_hash(), Some(pre));
        // Scribble like a half-done cycle: payload writes, a root retarget.
        heap.write_data(&mut k, CORE, a, 0, 0, 0xDEAD).unwrap();
        heap.write_data(&mut k, CORE, b, 0, 1, 0xBEEF).unwrap();
        roots.set(rid, b);
        assert_ne!(verifier.content_hash(&k, &mut heap), pre);

        let report = txn.abort(&mut k, &mut heap, &mut roots, CORE).unwrap();
        assert!(report.ops >= 2);
        assert_eq!(verifier.content_hash(&k, &mut heap), pre, "bit-for-bit");
        assert_eq!(roots.get(rid), a);
    }

    #[test]
    fn commit_closes_the_epoch() {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
        let mut heap = Heap::new(&mut k, Asid(1), HeapConfig::new(4 << 20)).unwrap();
        let (a, _) = heap.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        let roots = RootSet::new();
        let txn = CompactionJournal::begin(&mut k, &mut heap, &roots, false);
        assert!(txn.pre_hash().is_none());
        heap.write_data(&mut k, CORE, a, 0, 0, 0xDEAD).unwrap();
        txn.commit(&mut k, &mut heap, &roots);
        let (_, ops, _) = k.wal_rollback(heap.space_mut(), CORE).unwrap();
        assert_eq!(ops, 0, "commit dropped the epoch's records");
    }
}
