//! Crash recovery: rebuild a consistent heap from the durable state.
//!
//! After a simulated crash ([`svagc_kernel::CrashPoint`]) the only
//! surviving state is what the machine model calls durable: physical
//! memory, page tables, and the write-ahead log
//! ([`svagc_kernel::WriteAheadLog`]). Everything the collector knew —
//! the heap object index, the root set, the live undo epoch — is
//! gone. [`recover`] is the restart path: scan the log, classify the
//! cycles it records, undo whatever a torn cycle half-applied, and hand
//! back a heap whose content is **bit-identical** to either the
//! pre-cycle or the post-cycle snapshot. Never a hybrid — that invariant
//! is enforced by re-hashing the rebuilt heap against the hash the log
//! recorded, and recovery fails closed on any mismatch.
//!
//! Classification of the final epoch in the log:
//!
//! | log shape                       | class       | action                |
//! |---------------------------------|-------------|-----------------------|
//! | begin … commit                  | committed   | adopt post-cycle meta |
//! | begin … intents, no commit      | torn        | undo intents, adopt pre |
//! | begin only                      | uncommitted | adopt pre-cycle meta  |
//! | begin … aborted / recovered     | resolved    | adopt pre-cycle meta  |
//!
//! Every *earlier* epoch must already be resolved (committed, aborted,
//! or recovered) — an unresolved epoch buried under later ones means a
//! commit or abort record went missing, and recovery refuses the log
//! outright rather than guess ([`RecoveryError::BadLog`]).
//!
//! The undo pass is [`Kernel::undo`] — the same function an in-process
//! abort runs over the live epoch — applied to the torn epoch's logged
//! intents. Recovery is itself crash-safe: undo records are idempotent
//! absolute pre-images, so a crash *inside recovery* (the double-crash case,
//! [`svagc_kernel::CrashPoint::InsideRecovery`]) leaves a log the next
//! recovery attempt can replay from scratch.

use crate::error::GcError;
use svagc_heap::{Heap, HeapConfig, HeapStats, HeapVerifier, ObjRef, RootSet};
use svagc_kernel::{
    CoreId, CrashPoint, Kernel, RollbackError, TierError, WalOp, WalPayload, TIER_EPOCH,
};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{AddressSpace, VirtAddr};

/// Version word opening every serialized [`CycleMeta`] payload.
const META_VERSION: u64 = 1;

/// The collector-side snapshot a begin/commit record carries: everything
/// needed to rebuild a [`Heap`] and [`RootSet`] around the surviving
/// address space, plus the content hash that proves the rebuild exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleMeta {
    /// Heap range start.
    pub base: u64,
    /// Heap range end (exclusive).
    pub end: u64,
    /// Allocation cursor.
    pub top: u64,
    /// [`HeapConfig::heap_bytes`].
    pub heap_bytes: u64,
    /// [`HeapConfig::swap_threshold_pages`].
    pub swap_threshold_pages: u64,
    /// [`HeapConfig::align_large`].
    pub align_large: bool,
    /// FNV content hash of every live object at snapshot time.
    pub content_hash: u64,
    /// Heap allocation counters (allocations, large allocations, bytes
    /// requested, alignment waste).
    pub stats: [u64; 4],
    /// Header VAs of every object, in address order.
    pub objects: Vec<u64>,
    /// Root slots (object header VAs; 0 = null slot).
    pub roots: Vec<u64>,
}

impl CycleMeta {
    /// Snapshot the collector-visible state of `heap` and `roots`.
    pub fn capture(heap: &mut Heap, roots: &RootSet, content_hash: u64) -> CycleMeta {
        let cfg = heap.config();
        CycleMeta {
            base: heap.base().get(),
            end: heap.end().get(),
            top: heap.top().get(),
            heap_bytes: cfg.heap_bytes,
            swap_threshold_pages: cfg.swap_threshold_pages,
            align_large: cfg.align_large,
            content_hash,
            stats: [
                heap.stats.allocations,
                heap.stats.large_allocations,
                heap.stats.bytes_requested,
                heap.stats.align_waste_bytes,
            ],
            objects: heap.objects_sorted().iter().map(|o| o.0.get()).collect(),
            roots: roots.snapshot().iter().map(|o| o.0.get()).collect(),
        }
    }

    /// Serialize for a WAL begin/commit record.
    pub fn encode(&self) -> Vec<u64> {
        let mut w = vec![
            META_VERSION,
            self.base,
            self.end,
            self.top,
            self.heap_bytes,
            self.swap_threshold_pages,
            u64::from(self.align_large),
            self.content_hash,
        ];
        w.extend_from_slice(&self.stats);
        w.push(self.objects.len() as u64);
        w.extend_from_slice(&self.objects);
        w.push(self.roots.len() as u64);
        w.extend_from_slice(&self.roots);
        w
    }

    /// Decode a WAL metadata payload (`None` on malformed or
    /// unrecognized-version input).
    pub fn decode(w: &[u64]) -> Option<CycleMeta> {
        if *w.first()? != META_VERSION || w.len() < 13 {
            return None;
        }
        let n_objects = w[12] as usize;
        let roots_at = 13 + n_objects;
        let n_roots = *w.get(roots_at)? as usize;
        if w.len() != roots_at + 1 + n_roots {
            return None;
        }
        Some(CycleMeta {
            base: w[1],
            end: w[2],
            top: w[3],
            heap_bytes: w[4],
            swap_threshold_pages: w[5],
            align_large: w[6] != 0,
            content_hash: w[7],
            stats: [w[8], w[9], w[10], w[11]],
            objects: w[13..roots_at].to_vec(),
            roots: w[roots_at + 1..].to_vec(),
        })
    }

    /// Rebuild the heap and root set this snapshot describes around the
    /// surviving address space.
    pub fn rebuild(&self, space: AddressSpace) -> (Heap, RootSet) {
        let cfg = HeapConfig {
            heap_bytes: self.heap_bytes,
            swap_threshold_pages: self.swap_threshold_pages,
            align_large: self.align_large,
            // Not serialized in the cycle snapshot; `Heap::rebuild` probes
            // the surviving page table's mapped extent and restores the
            // flag when the committed prefix stops short of `end`.
            commit_on_demand: false,
        };
        let stats = HeapStats {
            allocations: self.stats[0],
            large_allocations: self.stats[1],
            bytes_requested: self.stats[2],
            align_waste_bytes: self.stats[3],
        };
        let heap = Heap::rebuild(
            space,
            VirtAddr(self.base),
            VirtAddr(self.end),
            VirtAddr(self.top),
            cfg,
            self.objects.iter().map(|&v| ObjRef(VirtAddr(v))).collect(),
            stats,
        );
        let mut roots = RootSet::new();
        roots.restore(self.roots.iter().map(|&v| ObjRef(VirtAddr(v))).collect());
        (heap, roots)
    }
}

/// How the recovery state machine classified one logged GC cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleClass {
    /// Begin and commit present: the cycle fully applied; durable memory
    /// holds the post-cycle state.
    Committed,
    /// Begin and at least one intent, but no commit/abort: the crash hit
    /// mid-apply and the intents must be undone.
    Torn,
    /// Begin only: the cycle logged no mutation before the crash; the
    /// pre-cycle state is already in place.
    Uncommitted,
    /// An abort record closed the epoch: the in-process rollback finished
    /// before the crash, so memory is back at the pre-cycle state.
    Aborted,
    /// A previous recovery already resolved this epoch.
    Recovered,
}

impl CycleClass {
    /// Outcome code persisted in the epoch's `Recovered` record and
    /// emitted in the recovery trace event.
    pub fn code(self) -> u64 {
        match self {
            CycleClass::Committed => 1,
            CycleClass::Torn => 2,
            CycleClass::Uncommitted => 3,
            CycleClass::Aborted => 4,
            CycleClass::Recovered => 5,
        }
    }

    /// Human-readable name (CLI output).
    pub fn name(self) -> &'static str {
        match self {
            CycleClass::Committed => "committed",
            CycleClass::Torn => "torn",
            CycleClass::Uncommitted => "uncommitted",
            CycleClass::Aborted => "aborted",
            CycleClass::Recovered => "recovered",
        }
    }

    fn resolved(self) -> bool {
        matches!(
            self,
            CycleClass::Committed | CycleClass::Aborted | CycleClass::Recovered
        )
    }
}

/// Why recovery refused to hand back a heap. Every variant is
/// fail-closed: the caller gets the address space back untouched (beyond
/// idempotent undo writes) and must not treat it as a heap.
#[derive(Debug, Clone)]
pub enum RecoveryError {
    /// The log is structurally unusable: empty, malformed metadata, or an
    /// unresolved epoch buried under later ones.
    BadLog(String),
    /// The rebuilt heap's content hash matches neither the pre- nor the
    /// post-cycle snapshot — the one state recovery must never publish.
    HybridHeap {
        /// Hash the chosen snapshot recorded.
        expected: u64,
        /// Hash of the heap recovery actually rebuilt.
        actual: u64,
    },
    /// The rebuilt heap failed a structural verifier pass.
    Corruption(String),
    /// The far-memory device could not hand back demoted pages during
    /// recovery (permanent fetch failure or device offline). The DRAM
    /// image is incomplete and no undo pass can run over it.
    DeviceFailed(String),
    /// A seeded crash point fired *inside recovery* (the double-crash
    /// case). The log is untouched beyond idempotent undo writes; a fresh
    /// recovery attempt after another reboot can run to completion.
    Crashed {
        /// Where recovery died.
        point: CrashPoint,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::BadLog(why) => write!(f, "unrecoverable log: {why}"),
            RecoveryError::HybridHeap { expected, actual } => write!(
                f,
                "hybrid heap detected: content hash {actual:#018x} matches neither \
                 snapshot (expected {expected:#018x})"
            ),
            RecoveryError::Corruption(why) => {
                write!(f, "recovered heap failed verification: {why}")
            }
            RecoveryError::DeviceFailed(why) => {
                write!(f, "far-memory device failed during recovery: {why}")
            }
            RecoveryError::Crashed { point } => {
                write!(f, "machine crashed again inside recovery at {point}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What a successful recovery rebuilt and proved.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Epoch of the cycle recovery resolved.
    pub epoch: u64,
    /// How that cycle was classified.
    pub class: CycleClass,
    /// Intent records undone (torn cycles only).
    pub undone_ops: usize,
    /// Far-tier pages promoted back to DRAM before the undo pass (zero
    /// when no far tier is configured).
    pub far_restored: u32,
    /// Pages rewritten by the undo pass.
    pub undone_pages: u64,
    /// Simulated cycles the recovery pass consumed.
    pub cycles: Cycles,
    /// The log ended in a torn (mid-append) tail.
    pub torn_tail: bool,
    /// Content hash of the recovered heap (equals the chosen snapshot's).
    pub content_hash: u64,
    /// Objects in the recovered heap.
    pub objects: u64,
    /// Root slots in the recovered root set.
    pub roots: u64,
}

/// A recovered, verified heap.
#[derive(Debug)]
pub struct RecoverySuccess {
    /// The rebuilt heap (content-hash-verified).
    pub heap: Heap,
    /// The rebuilt root set.
    pub roots: RootSet,
    /// What recovery did and proved.
    pub report: RecoveryReport,
}

/// A refused recovery. Carries the address space back so the caller can
/// retry (after another [`Kernel::reboot`], for the double-crash case) or
/// surface the failure.
#[derive(Debug)]
pub struct RecoveryFailure {
    /// The surviving address space, returned untouched beyond idempotent
    /// undo writes.
    pub space: AddressSpace,
    /// Why recovery refused.
    pub error: RecoveryError,
}

/// One epoch's records, folded out of the log scan.
#[derive(Debug, Default)]
struct EpochState {
    epoch: u64,
    begin: Option<CycleMeta>,
    intents: Vec<WalOp>,
    commit: Option<CycleMeta>,
    aborted: bool,
    recovered: bool,
}

impl EpochState {
    fn classify(&self) -> CycleClass {
        if self.recovered {
            CycleClass::Recovered
        } else if self.aborted {
            CycleClass::Aborted
        } else if self.commit.is_some() {
            CycleClass::Committed
        } else if !self.intents.is_empty() {
            CycleClass::Torn
        } else {
            CycleClass::Uncommitted
        }
    }
}

/// Fold the scan into per-epoch state, in log order. Fails on records
/// that violate the protocol (an intent before its begin, undecodable
/// metadata, an intent whose pre-image checksum does not validate) —
/// those mean the log writer and reader disagree, and guessing would
/// risk publishing a hybrid heap.
///
/// Far-tier residency records live under the reserved [`TIER_EPOCH`]
/// outside the begin/commit protocol; they are skipped here and
/// replayed by [`Kernel::tier_recover`] instead.
fn fold_epochs(records: &[svagc_kernel::WalRecord]) -> Result<Vec<EpochState>, RecoveryError> {
    let mut epochs: Vec<EpochState> = Vec::new();
    for rec in records {
        if rec.epoch == TIER_EPOCH {
            continue;
        }
        match &rec.payload {
            WalPayload::CycleBegin { meta } => {
                let meta = CycleMeta::decode(meta).ok_or_else(|| {
                    RecoveryError::BadLog(format!("epoch {}: undecodable begin metadata", rec.epoch))
                })?;
                epochs.push(EpochState {
                    epoch: rec.epoch,
                    begin: Some(meta),
                    ..EpochState::default()
                });
            }
            other => {
                let cur = epochs.last_mut().filter(|e| e.epoch == rec.epoch).ok_or_else(|| {
                    RecoveryError::BadLog(format!(
                        "epoch {}: record without a preceding begin",
                        rec.epoch
                    ))
                })?;
                match other {
                    WalPayload::Intent(op) => cur.intents.push(*op),
                    WalPayload::Commit { meta } => {
                        cur.commit = Some(CycleMeta::decode(meta).ok_or_else(|| {
                            RecoveryError::BadLog(format!(
                                "epoch {}: undecodable commit metadata",
                                rec.epoch
                            ))
                        })?);
                    }
                    WalPayload::CycleAborted => cur.aborted = true,
                    WalPayload::Recovered { .. } => cur.recovered = true,
                    // An intent record whose pre-image checksum failed:
                    // the log frame is intact but the payload is lying
                    // about what to restore. Undoing it would write
                    // garbage, skipping it would leave a half-applied
                    // cycle — refuse the log outright.
                    WalPayload::BadIntent => {
                        return Err(RecoveryError::BadLog(format!(
                            "epoch {}: intent pre-image checksum failed",
                            rec.epoch
                        )))
                    }
                    // Residency records outside TIER_EPOCH violate the
                    // protocol (the writer only ever appends them there).
                    WalPayload::TierDemote { .. } | WalPayload::TierPromote { .. } => {
                        return Err(RecoveryError::BadLog(format!(
                            "epoch {}: far-tier record outside the reserved epoch",
                            rec.epoch
                        )))
                    }
                    WalPayload::CycleBegin { .. } => unreachable!("matched above"),
                }
            }
        }
    }
    Ok(epochs)
}

/// Recover a consistent heap from the durable state after a crash.
///
/// Call after [`Kernel::reboot`]. On success the returned heap's content
/// hash is bit-identical to the snapshot the chosen class dictates
/// (post-cycle for committed, pre-cycle otherwise) — verified here, with
/// the TLB stale-translation oracle armed across the undo replay and a
/// final per-object translation sweep. On failure the address space
/// rides back in the [`RecoveryFailure`] so the caller can retry (the
/// double-crash path) or fail the run.
pub fn recover(
    kernel: &mut Kernel,
    space: AddressSpace,
    core: CoreId,
) -> Result<RecoverySuccess, Box<RecoveryFailure>> {
    let fail = |space: AddressSpace, error: RecoveryError| {
        Err(Box::new(RecoveryFailure { space, error }))
    };
    let scan = kernel.wal_scan();
    let epochs = match fold_epochs(&scan.records) {
        Ok(e) => e,
        Err(error) => return fail(space, error),
    };
    let Some(last) = epochs.last() else {
        return fail(
            space,
            RecoveryError::BadLog("empty log: no cycle to recover".into()),
        );
    };
    // Every epoch but the last must be resolved. Mutator writes between
    // cycles are not logged — only the next cycle's begin snapshot covers
    // them — so an unresolved epoch with successors cannot be undone
    // without clobbering later state. A missing commit record lands here.
    for e in &epochs[..epochs.len() - 1] {
        if !e.classify().resolved() {
            return fail(
                space,
                RecoveryError::BadLog(format!(
                    "epoch {} is unresolved but later epochs exist: a commit or abort \
                     record is missing",
                    e.epoch
                )),
            );
        }
    }

    let class = last.classify();
    let epoch = last.epoch;
    let mut cycles = Cycles::ZERO;
    let mut undone_ops = 0usize;
    let mut undone_pages = 0u64;
    let mut space = space;

    // Rebuild far-tier residency and promote every demoted page back to
    // DRAM *before* the undo pass: pre-images are absolute frame writes
    // and must land in resident frames, and the content-hash oracle
    // below reads the heap through uncosted paths that bypass the
    // fetch-on-access hook.
    let far_restored = match kernel.tier_recover() {
        Ok((restored, c)) => {
            cycles += c;
            restored
        }
        Err(TierError::Crashed { point }) => {
            return fail(space, RecoveryError::Crashed { point })
        }
        Err(e) => return fail(space, RecoveryError::DeviceFailed(e.to_string())),
    };

    if class == CycleClass::Torn {
        // The undo pass in-process abort runs too, over the logged
        // intents. Pre-images are absolute, so it is idempotent: safe when
        // the final logged intent was never applied, safe after a partial
        // in-process rollback, and safe to re-run wholesale after a crash
        // inside recovery.
        let point = CrashPoint::InsideRecovery;
        match kernel.undo(&mut space, &last.intents, &scan.preimages, point) {
            Ok((c, pages)) => {
                cycles += c;
                undone_pages = pages;
                undone_ops = last.intents.len();
            }
            Err(RollbackError::Crashed) => return fail(space, RecoveryError::Crashed { point }),
            Err(RollbackError::Vm(e)) => {
                return fail(
                    space,
                    RecoveryError::BadLog(format!("undo of a logged intent failed: {e}")),
                )
            }
        }
    }
    let meta = match class {
        CycleClass::Committed => last.commit.as_ref(),
        _ => last.begin.as_ref(),
    };
    let Some(meta) = meta.cloned() else {
        return fail(
            space,
            RecoveryError::BadLog(format!("epoch {epoch}: no usable snapshot metadata")),
        );
    };

    // Rebuild, then make sure no core's TLB still caches a pre-crash (or
    // pre-undo) translation. Reboot starts the TLBs cold, but the undo
    // pass above walks page tables through this kernel, so flush again.
    let (mut heap, roots) = meta.rebuild(space);
    let asid = heap.space().asid();
    let (flush, _intf) = kernel.flush_asid_all_cores(core, asid);
    cycles += flush;
    if let Some(point) = kernel.crashed() {
        return fail(heap.into_space(), RecoveryError::Crashed { point });
    }

    // The oracle: the rebuilt heap must hash bit-identically to the
    // snapshot the class dictates. Anything else is a hybrid.
    let verifier = HeapVerifier::new();
    let hash = verifier.content_hash(kernel, &mut heap);
    if hash != meta.content_hash {
        return fail(
            heap.into_space(),
            RecoveryError::HybridHeap {
                expected: meta.content_hash,
                actual: hash,
            },
        );
    }
    for report in [
        verifier.verify_layout(kernel, &mut heap),
        verifier.verify_boundaries(kernel, &mut heap),
    ] {
        if !report.is_clean() {
            let why = GcError::corruption(&report).to_string();
            return fail(heap.into_space(), RecoveryError::Corruption(why));
        }
    }
    // TLB-oracle sweep: translate every recovered object's header on the
    // recovery core. With the stale-translation oracle armed, any cached
    // mapping that survived the crash or the undo pass trips it here.
    let objects: Vec<ObjRef> = heap.objects_sorted().to_vec();
    for obj in &objects {
        match kernel.translate(heap.space(), core, obj.header_va()) {
            Ok((_, c)) => cycles += c,
            Err(e) => {
                return fail(
                    heap.into_space(),
                    RecoveryError::Corruption(format!(
                        "recovered object at {} does not translate: {e}",
                        obj.0
                    )),
                )
            }
        }
    }

    if !class.resolved() {
        kernel.wal_mark_recovered(epoch, class.code());
    }
    kernel.trace.instant(
        TraceKind::Recovery,
        Cycles::ZERO,
        core.0 as u32,
        &[
            ("epoch", epoch),
            ("outcome", class.code()),
            ("undone_ops", undone_ops as u64),
            ("undone_pages", undone_pages),
        ],
    );
    let report = RecoveryReport {
        epoch,
        class,
        undone_ops,
        far_restored,
        undone_pages,
        cycles,
        torn_tail: scan.torn_tail,
        content_hash: hash,
        objects: objects.len() as u64,
        roots: roots.snapshot().len() as u64,
    };
    Ok(RecoverySuccess { heap, roots, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrips() {
        let meta = CycleMeta {
            base: 0x1000,
            end: 0x9000,
            top: 0x4008,
            heap_bytes: 0x8000,
            swap_threshold_pages: 2,
            align_large: true,
            content_hash: 0xDEAD_BEEF_CAFE_F00D,
            stats: [10, 2, 4096, 128],
            objects: vec![0x1000, 0x2000, 0x3000],
            roots: vec![0x2000, 0],
        };
        assert_eq!(CycleMeta::decode(&meta.encode()), Some(meta));
    }

    #[test]
    fn malformed_meta_is_rejected() {
        let meta = CycleMeta {
            base: 0,
            end: 0,
            top: 0,
            heap_bytes: 0,
            swap_threshold_pages: 0,
            align_large: false,
            content_hash: 0,
            stats: [0; 4],
            objects: vec![1, 2],
            roots: vec![3],
        };
        let mut w = meta.encode();
        assert!(CycleMeta::decode(&w[..w.len() - 1]).is_none(), "truncated");
        w[0] = 99;
        assert!(CycleMeta::decode(&w).is_none(), "unknown version");
        assert!(CycleMeta::decode(&[]).is_none(), "empty");
    }

    #[test]
    fn classification_covers_every_log_shape() {
        let begin = EpochState {
            epoch: 1,
            begin: Some(CycleMeta::decode(&CycleMeta {
                base: 0,
                end: 0,
                top: 0,
                heap_bytes: 0,
                swap_threshold_pages: 0,
                align_large: false,
                content_hash: 0,
                stats: [0; 4],
                objects: vec![],
                roots: vec![],
            }
            .encode())
            .unwrap()),
            ..EpochState::default()
        };
        assert_eq!(begin.classify(), CycleClass::Uncommitted);
        let torn = EpochState {
            intents: vec![WalOp::Word {
                at: VirtAddr(8),
                pre: 0,
            }],
            ..EpochState::default()
        };
        assert_eq!(torn.classify(), CycleClass::Torn);
        let aborted = EpochState {
            aborted: true,
            intents: vec![WalOp::Word {
                at: VirtAddr(8),
                pre: 0,
            }],
            ..EpochState::default()
        };
        assert_eq!(aborted.classify(), CycleClass::Aborted, "abort outranks intents");
        let recovered = EpochState {
            recovered: true,
            aborted: true,
            ..EpochState::default()
        };
        assert_eq!(recovered.classify(), CycleClass::Recovered);
    }
}
