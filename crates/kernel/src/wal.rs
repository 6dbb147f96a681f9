//! The undo log: one record per mutation, volatile or durable.
//!
//! Every GC cycle is a transaction (an *epoch*). While an epoch is open,
//! each kernel mutation — a disjoint PTE swap, an overlap rotation, a
//! memmove, a metadata-word write — records one [`WalOp`] *before* it
//! applies. The record carries the absolute pre-image of everything the
//! mutation is about to overwrite, and one function,
//! [`Kernel::undo`], installs those pre-images newest-first. It is both
//! the in-process abort ([`Kernel::wal_rollback`], run on the live epoch)
//! and the recovery undo pass (run on a scanned epoch after a restart).
//!
//! An epoch is *volatile* by default: records go to an in-memory list
//! whose pre-images sit in a reused [`Preimages`] arena — no per-op
//! allocation, no encoding, no checksum, nothing charged. Arming the log
//! ([`Kernel::set_wal_enabled`]) makes epochs *durable* as well: the same
//! record is framed into a simulated write-ahead log ([`WriteAheadLog`])
//! that survives a crash, bracketed by cycle-begin and commit records.
//! A crash mid-cycle — mid-batch, mid-shootdown, even mid-rollback —
//! leaves the *address space itself* torn, a failure mode unique to a
//! collector that moves objects by swapping PTEs; the durable log is what
//! recovery undoes it from.
//!
//! Design rules the undo pass relies on:
//!
//! * **Write-ahead** — the record for an operation exists (and, in a
//!   durable epoch, is durable) before the operation mutates memory or
//!   page tables. After a crash the log is therefore a *superset* of the
//!   applied operations: at most the final logged intent may be
//!   unapplied.
//! * **Idempotent undo** — records store absolute pre-images, not inverse
//!   operations. A [`WalOp::PteSwap`] records the raw pre-swap PTE of
//!   every page (installing them again is a no-op if the swap never
//!   happened — unlike re-swapping, which is an involution and would
//!   corrupt). A [`WalOp::PteWindow`] records the raw PTE of every page
//!   of an overlap rotation's window: Algorithm 2 only permutes PTEs, so
//!   its undo restores the exact mapping, not just the content — a byte
//!   snapshot would leave the window rotated, and undoing an earlier swap
//!   into it would then map frames twice. [`WalOp::Bytes`]/[`WalOp::Word`]
//!   record prior contents. Undo can thus be replayed any number of
//!   times — which is exactly what makes recovery itself restartable
//!   after a double crash.
//! * **Checksummed framing** — each durable record carries a magic word,
//!   its length, epoch, sequence number, and a word-wide FNV-1a checksum
//!   ([`crate::fnv`]). A crash during an append leaves a torn tail that
//!   [`WriteAheadLog::scan`] detects and discards; everything before it
//!   is intact by induction.
//!
//! The log stores opaque `Vec<u64>` metadata payloads in begin/commit
//! records so the GC layer can persist heap snapshots without this crate
//! depending on the heap crate.
//!
//! Cost model: durable intent appends are charged to the calling core
//! through the bandwidth model (they ride the syscall path); begin/commit
//! metadata records are modeled as asynchronous log writes off the
//! critical path. Volatile records are free.

use crate::error::RollbackError;
use crate::fault::CrashPoint;
use crate::fnv::Fnv64;
use crate::state::{CoreId, Kernel};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{AddressSpace, VirtAddr, PAGE_SIZE, WORD_BYTES};

/// Magic word opening every WAL record frame.
pub const WAL_MAGIC: u64 = 0x5356_4147_4357_414C; // "SVAGCWAL"

/// Reserved epoch carrying far-tier residency records. GC epochs are
/// always ≥ 1 (even namespaced ones OR a nonzero counter into the low
/// bits), so 0 can never collide; recovery partitions this epoch out
/// before folding the per-cycle state machine.
pub const TIER_EPOCH: u64 = 0;

/// Words of framing around a record payload: magic, payload length,
/// epoch, sequence, kind, trailing checksum.
const FRAME_WORDS: usize = 6;

/// A record frame's checksum: the length, epoch, sequence and kind words,
/// then the body, folded word-wide.
fn frame_sum(epoch: u64, seq: u64, kind: u64, body: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.words(&[body.len() as u64, epoch, seq, kind]);
    h.words(body);
    h.finish()
}

/// One mutation with the absolute pre-state needed to undo it
/// idempotently (see the module docs for why pre-images, not inverses).
/// PTE and byte pre-images live in a [`Preimages`] arena — the live
/// epoch's, or a log scan's — at the offset the op records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// A disjoint PTE swap: the raw pre-swap PTE of every page on both
    /// sides, as `pages` `(a + i, b + i)` pairs. Undo installs the
    /// recorded raws — idempotent whether or not the swap (or a previous
    /// undo) already ran.
    PteSwap {
        /// First range base.
        a: VirtAddr,
        /// Second range base.
        b: VirtAddr,
        /// Pages per range.
        pages: u64,
        /// Offset of the `2 * pages` raw PTEs in the PTE arena.
        ptes: usize,
    },
    /// An overlap rotation (Algorithm 2): the raw PTE of every page of the
    /// window union, in address order.
    PteWindow {
        /// Window base (the lower operand).
        lo: VirtAddr,
        /// Window length in pages (`n + δ`).
        pages: u64,
        /// Offset of the `pages` raw PTEs in the PTE arena.
        ptes: usize,
    },
    /// A byte-range overwrite (memmove destination): the range's contents
    /// before the overwrite.
    Bytes {
        /// Start of the overwritten virtual range.
        at: VirtAddr,
        /// Range length in bytes.
        len: u64,
        /// Offset of the pre-image in the byte arena.
        bytes: usize,
    },
    /// A single metadata-word write: the word's prior value.
    Word {
        /// The written word's virtual address.
        at: VirtAddr,
        /// Pre-image of the word.
        pre: u64,
    },
}

/// The pre-image arena [`WalOp`]s point into: one growable buffer per
/// kind for a whole epoch (or scan) instead of one allocation per op,
/// which is the difference between the log being free and it dominating
/// host time on copy-heavy workloads.
#[derive(Debug, Clone, Default)]
pub struct Preimages {
    pub(crate) ptes: Vec<u64>,
    pub(crate) bytes: Vec<u8>,
}

impl Preimages {
    /// Raw PTEs `at..at + n`.
    fn ptes_at(&self, at: usize, n: u64) -> &[u64] {
        &self.ptes[at..at + n as usize]
    }

    /// Bytes `at..at + len`.
    fn bytes_at(&self, at: usize, len: u64) -> &[u8] {
        &self.bytes[at..at + len as usize]
    }

    /// Empty the arena for the next epoch, keeping its buffers. Their
    /// capacity is what the largest epoch of this kernel needed, and it
    /// dies with the kernel. Dropping a large arena would make the next
    /// large epoch regrow it through `realloc` and fault its pages in
    /// afresh from the host kernel.
    fn recycle(&mut self) {
        self.bytes.clear();
        self.ptes.clear();
    }
}

/// Outcome of decoding a serialized [`WalOp`]: structurally valid ops
/// additionally carry a pre-image checksum (for [`WalOp::Bytes`] and
/// [`WalOp::Word`]) that can mismatch even when the record frame itself
/// validates — the signature of a corrupted or stale intent body.
enum DecodedOp {
    Ok(WalOp),
    BadPreimage,
}

impl WalOp {
    /// Serialize to payload words, reading pre-images from `pre`. `Bytes`
    /// and `Word` intents carry a trailing FNV checksum of their
    /// pre-image, verified again at decode: the *frame* checksum covers
    /// the log write, this one covers the pre-image data recovery is about
    /// to install into the heap.
    fn encode(&self, pre: &Preimages) -> Vec<u64> {
        match *self {
            WalOp::PteSwap { a, b, pages, ptes } => {
                let mut w = vec![1, a.get(), b.get(), pages];
                w.extend_from_slice(pre.ptes_at(ptes, 2 * pages));
                w
            }
            WalOp::PteWindow { lo, pages, ptes } => {
                let mut w = vec![4, lo.get(), pages];
                w.extend_from_slice(pre.ptes_at(ptes, pages));
                w
            }
            WalOp::Bytes { at, len, bytes } => {
                let mut w = vec![2, at.get(), len];
                for chunk in pre.bytes_at(bytes, len).chunks(WORD_BYTES as usize) {
                    let mut buf = [0u8; 8];
                    buf[..chunk.len()].copy_from_slice(chunk);
                    w.push(u64::from_le_bytes(buf));
                }
                let sum = Fnv64::of_words(&w[3..]);
                w.push(sum);
                w
            }
            WalOp::Word { at, pre } => vec![3, at.get(), pre, Fnv64::of_words(&[pre])],
        }
    }

    /// Decode from payload words, appending pre-images to `pre` (None on
    /// malformed input; `BadPreimage` when the op parses but its
    /// pre-image checksum mismatches).
    fn decode(w: &[u64], pre: &mut Preimages) -> Option<DecodedOp> {
        match *w.first()? {
            1 => {
                let pages = *w.get(3)?;
                if w.len() as u64 != 4 + 2 * pages {
                    return None;
                }
                let ptes = pre.ptes.len();
                pre.ptes.extend_from_slice(&w[4..]);
                Some(DecodedOp::Ok(WalOp::PteSwap {
                    a: VirtAddr(w[1]),
                    b: VirtAddr(w[2]),
                    pages,
                    ptes,
                }))
            }
            4 => {
                let pages = *w.get(2)?;
                if w.len() as u64 != 3 + pages {
                    return None;
                }
                let ptes = pre.ptes.len();
                pre.ptes.extend_from_slice(&w[3..]);
                Some(DecodedOp::Ok(WalOp::PteWindow {
                    lo: VirtAddr(w[1]),
                    pages,
                    ptes,
                }))
            }
            2 => {
                let len = *w.get(2)? as usize;
                let data_words = len.div_ceil(WORD_BYTES as usize);
                if w.len() != 4 + data_words {
                    return None;
                }
                if Fnv64::of_words(&w[3..3 + data_words]) != w[3 + data_words] {
                    return Some(DecodedOp::BadPreimage);
                }
                let bytes = pre.bytes.len();
                for (i, &word) in w[3..3 + data_words].iter().enumerate() {
                    let take = (len - i * WORD_BYTES as usize).min(WORD_BYTES as usize);
                    pre.bytes.extend_from_slice(&word.to_le_bytes()[..take]);
                }
                Some(DecodedOp::Ok(WalOp::Bytes {
                    at: VirtAddr(w[1]),
                    len: len as u64,
                    bytes,
                }))
            }
            3 => {
                if w.len() != 4 {
                    return None;
                }
                if Fnv64::of_words(&[w[2]]) != w[3] {
                    return Some(DecodedOp::BadPreimage);
                }
                Some(DecodedOp::Ok(WalOp::Word {
                    at: VirtAddr(w[1]),
                    pre: w[2],
                }))
            }
            _ => None,
        }
    }

    /// Log-record bytes this op serializes to (for cost charging).
    /// Computed from the op's shape, NOT from `encode()`: the pre-image
    /// checksum word rides the frame's existing trailer budget, so cost
    /// charges (and therefore every pre-existing run digest) are
    /// independent of it.
    pub fn encoded_bytes(&self) -> u64 {
        let body_words = match *self {
            WalOp::PteSwap { pages, .. } => 4 + 2 * pages,
            WalOp::PteWindow { pages, .. } => 3 + pages,
            WalOp::Bytes { len, .. } => 3 + len.div_ceil(WORD_BYTES),
            WalOp::Word { .. } => 3,
        };
        (body_words + FRAME_WORDS as u64) * WORD_BYTES
    }

    /// Pages whose content an undo of this op rewrites.
    pub fn pages(&self) -> u64 {
        match *self {
            WalOp::PteSwap { pages, .. } => 2 * pages,
            WalOp::PteWindow { pages, .. } => pages,
            WalOp::Bytes { len, .. } => len.div_ceil(PAGE_SIZE),
            WalOp::Word { .. } => 0,
        }
    }
}

/// The body of a decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// A GC cycle opened; carries the GC layer's serialized pre-cycle
    /// metadata (heap snapshot, roots, content hash — opaque here).
    CycleBegin {
        /// Opaque metadata payload (owned by the GC layer).
        meta: Vec<u64>,
    },
    /// An intent: the operation that was about to be applied when the
    /// record became durable. Its pre-images sit in the scan's (or, while
    /// appending, the live epoch's) [`Preimages`] arena.
    Intent(WalOp),
    /// The cycle committed; carries serialized post-cycle metadata.
    Commit {
        /// Opaque metadata payload (owned by the GC layer).
        meta: Vec<u64>,
    },
    /// The cycle aborted and its in-process rollback completed — the
    /// epoch is resolved (memory is back to its pre-cycle state).
    CycleAborted,
    /// Recovery resolved this epoch after a restart.
    Recovered {
        /// Outcome code (owned by the recovery layer).
        outcome: u64,
    },
    /// A page was demoted to the far tier: `frame`'s contents now live in
    /// device `slot` (residency record, reserved epoch [`TIER_EPOCH`]).
    TierDemote {
        /// The demoted frame.
        frame: u64,
        /// The device slot holding its contents.
        slot: u64,
    },
    /// A far page was promoted back: `frame` holds its contents again and
    /// device `slot` is free (residency record, epoch [`TIER_EPOCH`]).
    TierPromote {
        /// The promoted frame.
        frame: u64,
        /// The device slot that held its contents.
        slot: u64,
    },
    /// An intent record whose frame validates but whose pre-image
    /// checksum does not: the log is lying about what to restore.
    /// Decode-only (never appended); recovery must classify this as a bad
    /// log and fail closed rather than install the corrupt pre-image.
    BadIntent,
}

impl WalPayload {
    fn kind_code(&self) -> u64 {
        match self {
            WalPayload::CycleBegin { .. } => 1,
            WalPayload::Intent(_) => 2,
            WalPayload::Commit { .. } => 3,
            WalPayload::CycleAborted => 4,
            WalPayload::Recovered { .. } => 5,
            WalPayload::TierDemote { .. } => 6,
            WalPayload::TierPromote { .. } => 7,
            // Decode-only: a BadIntent is what a kind-2 record becomes
            // when its pre-image checksum fails; it is never appended.
            WalPayload::BadIntent => 2,
        }
    }

    fn encode(&self, pre: &Preimages) -> Vec<u64> {
        match self {
            WalPayload::CycleBegin { meta } | WalPayload::Commit { meta } => meta.clone(),
            WalPayload::Intent(op) => op.encode(pre),
            WalPayload::CycleAborted => Vec::new(),
            WalPayload::Recovered { outcome } => vec![*outcome],
            WalPayload::TierDemote { frame, slot } | WalPayload::TierPromote { frame, slot } => {
                vec![*frame, *slot]
            }
            WalPayload::BadIntent => Vec::new(),
        }
    }

    fn decode(kind: u64, payload: &[u64], pre: &mut Preimages) -> Option<WalPayload> {
        match kind {
            1 => Some(WalPayload::CycleBegin {
                meta: payload.to_vec(),
            }),
            2 => WalOp::decode(payload, pre).map(|d| match d {
                DecodedOp::Ok(op) => WalPayload::Intent(op),
                DecodedOp::BadPreimage => WalPayload::BadIntent,
            }),
            3 => Some(WalPayload::Commit {
                meta: payload.to_vec(),
            }),
            4 => payload.is_empty().then_some(WalPayload::CycleAborted),
            5 => (payload.len() == 1).then(|| WalPayload::Recovered {
                outcome: payload[0],
            }),
            6 => (payload.len() == 2).then(|| WalPayload::TierDemote {
                frame: payload[0],
                slot: payload[1],
            }),
            7 => (payload.len() == 2).then(|| WalPayload::TierPromote {
                frame: payload[0],
                slot: payload[1],
            }),
            _ => None,
        }
    }
}

/// One intact record recovered from a log scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The GC cycle this record belongs to.
    pub epoch: u64,
    /// Position within the epoch (0 = the begin record).
    pub seq: u64,
    /// The record body.
    pub payload: WalPayload,
}

/// Result of scanning the durable log after a (simulated) restart.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every intact record, in log order.
    pub records: Vec<WalRecord>,
    /// A torn (truncated or checksum-failing) tail was found and
    /// discarded — the signature of a crash during an append.
    pub torn_tail: bool,
    /// Intact words consumed by the scan (excludes any torn tail).
    pub intact_words: usize,
    /// The pre-images every decoded intent points into.
    pub preimages: Preimages,
}

/// Seeded log-layer mutations used by the crash-matrix suite to prove the
/// recovery oracle has teeth: each silently corrupts the protocol in a way
/// a correct recovery implementation MUST detect and fail closed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMutation {
    /// Never append commit records: committed cycles masquerade as torn.
    SkipCommit,
    /// Silently drop each epoch's first PTE-swap intent record: undo
    /// misses the operation, a live object's pages stay exchanged, and
    /// recovery would hand back a hybrid heap. (PTE swaps specifically:
    /// they always move live content, so the miss is guaranteed visible
    /// to the content-hash oracle.)
    DropIntent,
    /// Flip one bit in the pre-image of each epoch's first `Bytes`/`Word`
    /// intent *after* encoding, then frame it normally: the record's frame
    /// checksum validates, so only the op-level pre-image checksum can
    /// catch it. A recovery that skips the read-back verification would
    /// silently install the corrupt pre-image into the heap.
    CorruptPreimage,
}

impl WalMutation {
    /// Parse `"skip-commit"` / `"drop-intent"` / `"corrupt-preimage"`.
    pub fn parse(s: &str) -> Option<WalMutation> {
        match s {
            "skip-commit" => Some(WalMutation::SkipCommit),
            "drop-intent" => Some(WalMutation::DropIntent),
            "corrupt-preimage" => Some(WalMutation::CorruptPreimage),
            _ => None,
        }
    }
}

/// Counters describing the log's activity (volatile, for reporting).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended (intact).
    pub appends: u64,
    /// Words currently in the durable image.
    pub words: u64,
    /// Intent records suppressed by [`WalMutation::DropIntent`].
    pub intents_dropped: u64,
    /// Commit records suppressed by [`WalMutation::SkipCommit`].
    pub commits_skipped: u64,
    /// Intent pre-images corrupted by [`WalMutation::CorruptPreimage`].
    pub preimages_corrupted: u64,
    /// Far-tier residency records appended (epoch [`TIER_EPOCH`]).
    pub tier_records: u64,
    /// A mid-append crash tore the tail.
    pub torn: bool,
}

/// The undo log. Owned by the [`Kernel`]. The durable image survives
/// [`Kernel::reboot`] (it models storage, not RAM); the live epoch's
/// records are volatile.
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    /// The durable image, as 64-bit words.
    words: Vec<u64>,
    enabled: bool,
    /// An epoch is open: every mutation records its undo.
    recording: bool,
    /// The open epoch's records, in application order.
    live: Vec<WalOp>,
    /// Pre-images of the open epoch's records, stashed by each mutation
    /// site before it calls [`Kernel::wal_record`].
    pub(crate) live_pre: Preimages,
    /// Epoch of the currently open (begun, not yet resolved) cycle.
    /// Volatile bookkeeping: cleared by reboot; recovery re-derives open
    /// cycles from the scan.
    open_epoch: Option<u64>,
    /// [`WalMutation::DropIntent`] already claimed its victim this epoch.
    epoch_dropped: bool,
    /// [`WalMutation::CorruptPreimage`] already claimed its victim this
    /// epoch.
    epoch_corrupted: bool,
    /// Next sequence number for far-tier residency records (epoch
    /// [`TIER_EPOCH`] has no begin/commit bracket; its records form one
    /// ever-growing replay stream).
    tier_seq: u64,
    /// Next epoch to assign (monotonic across the log's lifetime).
    next_epoch: u64,
    /// Namespace prefix OR-ed into every assigned epoch (fleet tenants get
    /// disjoint epoch spaces so logs can never be confused across tenants).
    epoch_base: u64,
    /// Next sequence number within the open epoch.
    seq: u64,
    mutation: Option<WalMutation>,
    stats: WalStats,
}

impl WriteAheadLog {
    /// A fresh, disabled log.
    pub fn new() -> WriteAheadLog {
        WriteAheadLog::default()
    }

    /// Is a durable cycle currently open (intents are being logged)?
    pub fn cycle_open(&self) -> bool {
        self.enabled && self.open_epoch.is_some()
    }

    /// Volatile state lost in a reboot: the open-cycle cursor and the live
    /// epoch's records. The durable image and the epoch counter survive.
    pub(crate) fn drop_volatile(&mut self) {
        self.open_epoch = None;
        self.seq = 0;
        self.close_live();
    }

    /// Open a fresh live epoch.
    fn open_live(&mut self) {
        self.recording = true;
        self.live.clear();
        self.live_pre.recycle();
    }

    /// Stop recording and drop the live epoch's records.
    fn close_live(&mut self) {
        self.recording = false;
        self.live.clear();
        self.live_pre.recycle();
    }

    /// Append a framed record; when `tear_at` is set, write only that many
    /// words of the frame (a crash mid-append) and mark the log torn.
    fn append(&mut self, epoch: u64, seq: u64, payload: &WalPayload, tear: bool) {
        let mut body = payload.encode(&self.live_pre);
        let kind = payload.kind_code();
        if self.mutation == Some(WalMutation::CorruptPreimage)
            && !self.epoch_corrupted
            && matches!(
                payload,
                WalPayload::Intent(WalOp::Bytes { .. } | WalOp::Word { .. })
            )
        {
            // Teeth mutation: flip a bit in the last pre-image data word
            // (never the op checksum itself), then frame the corrupted
            // body normally — the frame checksum below is computed over
            // the *corrupted* body, so only the op-level pre-image
            // checksum can expose the lie.
            let i = body.len() - 2;
            body[i] ^= 1;
            self.epoch_corrupted = true;
            self.stats.preimages_corrupted += 1;
        }
        let mut frame = Vec::with_capacity(FRAME_WORDS + body.len());
        frame.push(WAL_MAGIC);
        frame.push(body.len() as u64);
        frame.push(epoch);
        frame.push(seq);
        frame.push(kind);
        frame.extend_from_slice(&body);
        frame.push(frame_sum(epoch, seq, kind, &body));
        if tear {
            // Power failed partway through the log write: keep a strict
            // prefix (at least the magic so the tear is visible, never the
            // checksum so the record can't validate).
            let keep = (frame.len() / 2).max(1);
            self.words.extend_from_slice(&frame[..keep]);
            self.stats.torn = true;
        } else {
            self.words.extend_from_slice(&frame);
            self.stats.appends += 1;
        }
        self.stats.words = self.words.len() as u64;
    }

    /// Decode every intact record; stop at (and flag) a torn tail.
    pub fn scan(&self) -> WalScan {
        let w = &self.words;
        let mut out = WalScan::default();
        let mut at = 0usize;
        while at < w.len() {
            let intact = (|| {
                if w.len() - at < FRAME_WORDS || w[at] != WAL_MAGIC {
                    return None;
                }
                let body_len = w[at + 1] as usize;
                let total = FRAME_WORDS + body_len;
                if w.len() - at < total {
                    return None;
                }
                let (epoch, seq, kind) = (w[at + 2], w[at + 3], w[at + 4]);
                let body = &w[at + 5..at + 5 + body_len];
                if w[at + total - 1] != frame_sum(epoch, seq, kind, body) {
                    return None;
                }
                let payload = WalPayload::decode(kind, body, &mut out.preimages)?;
                Some((total, WalRecord { epoch, seq, payload }))
            })();
            match intact {
                Some((total, rec)) => {
                    out.records.push(rec);
                    at += total;
                    out.intact_words = at;
                }
                None => {
                    out.torn_tail = true;
                    return out;
                }
            }
        }
        out
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            words: self.words.len() as u64,
            ..self.stats
        }
    }
}

impl Kernel {
    /// Arm (or disarm) the write-ahead log. Arming clears any previous log
    /// image — the log is per-boot-lineage, like mounting a fresh journal
    /// device. Disabled by default: fault-free baselines pay nothing.
    pub fn set_wal_enabled(&mut self, on: bool) {
        self.wal = WriteAheadLog {
            enabled: on,
            epoch_base: self.wal.epoch_base,
            ..WriteAheadLog::default()
        };
    }

    /// Give this kernel's WAL a per-tenant epoch namespace: every epoch it
    /// assigns carries `ns` in its top 16 bits, so two tenants' logs can
    /// never collide or be confused during fleet-level forensics. The
    /// default namespace 0 leaves single-JVM epochs (1, 2, 3, …) unchanged.
    pub fn set_wal_namespace(&mut self, ns: u16) {
        self.wal.epoch_base = (ns as u64) << 48;
    }

    /// Is the write-ahead log armed?
    pub fn wal_enabled(&self) -> bool {
        self.wal.enabled
    }

    /// Is a logged cycle currently open?
    pub fn wal_cycle_open(&self) -> bool {
        self.wal.cycle_open()
    }

    /// Install a seeded log mutation (test teeth; see [`WalMutation`]).
    pub fn set_wal_mutation(&mut self, m: Option<WalMutation>) {
        self.wal.mutation = m;
    }

    /// Open a cycle: from here on every mutation records its undo in the
    /// live epoch (discarding any earlier epoch's records). When the log
    /// is armed, also append a durable begin record carrying the GC
    /// layer's opaque metadata and return the epoch; `None` when the
    /// epoch is volatile (`meta` is then ignored).
    pub fn wal_cycle_begin(&mut self, meta: Vec<u64>) -> Option<u64> {
        self.wal.open_live();
        if !self.wal.enabled {
            return None;
        }
        self.wal.next_epoch += 1;
        let epoch = self.wal.epoch_base | self.wal.next_epoch;
        self.wal.open_epoch = Some(epoch);
        self.wal.epoch_dropped = false;
        self.wal.epoch_corrupted = false;
        self.wal.seq = 0;
        self.wal.append(epoch, 0, &WalPayload::CycleBegin { meta }, false);
        self.wal.seq = 1;
        self.trace.instant(
            TraceKind::WalRecord,
            Cycles::ZERO,
            0,
            &[("kind", 1), ("epoch", epoch)],
        );
        Some(epoch)
    }

    /// Commit the open cycle: drop its undo records and, when a durable
    /// epoch is open, append a commit record with post-cycle metadata.
    pub fn wal_commit(&mut self, meta: Vec<u64>) {
        self.wal.close_live();
        let Some(epoch) = self.wal.open_epoch.take() else {
            return;
        };
        if self.wal.mutation == Some(WalMutation::SkipCommit) {
            self.wal.stats.commits_skipped += 1;
            return;
        }
        let seq = self.wal.seq;
        self.wal.append(epoch, seq, &WalPayload::Commit { meta }, false);
        self.trace.instant(
            TraceKind::WalRecord,
            Cycles::ZERO,
            0,
            &[("kind", 3), ("epoch", epoch)],
        );
    }

    /// Mark the open durable cycle aborted-and-rolled-back (its in-process
    /// undo, [`Kernel::wal_rollback`], completed, so the epoch is
    /// resolved). No-op when no durable cycle is open.
    pub fn wal_cycle_aborted(&mut self) {
        let Some(epoch) = self.wal.open_epoch.take() else {
            return;
        };
        let seq = self.wal.seq;
        self.wal.append(epoch, seq, &WalPayload::CycleAborted, false);
        self.trace.instant(
            TraceKind::WalRecord,
            Cycles::ZERO,
            0,
            &[("kind", 4), ("epoch", epoch)],
        );
    }

    /// Append a recovery-resolution record for `epoch` (recovery replayed
    /// its undo/redo and verified the result).
    pub fn wal_mark_recovered(&mut self, epoch: u64, outcome: u64) {
        if !self.wal.enabled {
            return;
        }
        self.wal.append(epoch, u64::MAX, &WalPayload::Recovered { outcome }, false);
        self.trace.instant(
            TraceKind::WalRecord,
            Cycles::ZERO,
            0,
            &[("kind", 5), ("epoch", epoch), ("outcome", outcome)],
        );
    }

    /// Scan the durable log (the first thing recovery does after a
    /// restart).
    pub fn wal_scan(&self) -> WalScan {
        self.wal.scan()
    }

    /// Append a far-tier residency record ([`WalPayload::TierDemote`] or
    /// [`WalPayload::TierPromote`]) under the reserved [`TIER_EPOCH`].
    /// Unlike intents these are not bracketed by a cycle — they form one
    /// append-only replay stream from which recovery rebuilds the
    /// residency table. Charged through the bandwidth model like intents.
    pub(crate) fn wal_tier_record(&mut self, payload: WalPayload) -> Cycles {
        debug_assert!(matches!(
            payload,
            WalPayload::TierDemote { .. } | WalPayload::TierPromote { .. }
        ));
        if !self.wal.enabled {
            return Cycles::ZERO;
        }
        let seq = self.wal.tier_seq;
        self.wal.tier_seq += 1;
        let kind = payload.kind_code();
        let bytes = (2 + FRAME_WORDS) as u64 * WORD_BYTES;
        self.wal.append(TIER_EPOCH, seq, &payload, false);
        self.wal.stats.tier_records += 1;
        self.trace.instant(
            TraceKind::WalRecord,
            Cycles::ZERO,
            0,
            &[("kind", kind), ("epoch", TIER_EPOCH)],
        );
        self.bandwidth.copy_cycles(&self.machine, bytes)
    }

    /// The log's activity counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Is a cycle open, so that mutations must record their undo?
    pub(crate) fn wal_recording(&self) -> bool {
        self.wal.recording
    }

    /// Record `op` — whose pre-images the caller already stashed — ahead
    /// of applying it: into the live epoch always, and framed into the
    /// durable image when a durable cycle is open. Charges the caller for
    /// the durable log write through the bandwidth model. When
    /// `may_crash` is set, a pending [`CrashPoint::MidLogAppend`] fires
    /// here: the frame is torn mid-write and the error tells the caller
    /// the machine is gone (the operation must NOT be applied).
    #[inline]
    pub(crate) fn wal_record(&mut self, op: WalOp, may_crash: bool) -> Result<Cycles, CrashPoint> {
        let mut t = Cycles::ZERO;
        if let Some(epoch) = self.wal.open_epoch.filter(|_| self.wal.enabled) {
            if self.wal.mutation == Some(WalMutation::DropIntent)
                && !self.wal.epoch_dropped
                && matches!(op, WalOp::PteSwap { .. })
            {
                // Teeth mutation: the epoch's first PTE-swap intent
                // vanishes from the durable image. Keep the sequence
                // counter moving so exactly one record per epoch is lost.
                self.wal.epoch_dropped = true;
                self.wal.seq += 1;
                self.wal.stats.intents_dropped += 1;
            } else {
                let seq = self.wal.seq;
                self.wal.seq += 1;
                let tear = may_crash && self.crash_fire(CrashPoint::MidLogAppend);
                self.wal.append(epoch, seq, &WalPayload::Intent(op), tear);
                if tear {
                    return Err(CrashPoint::MidLogAppend);
                }
                t = self.bandwidth.copy_cycles(&self.machine, op.encoded_bytes());
            }
        }
        self.wal.live.push(op);
        Ok(t)
    }

    /// Abort the open cycle in process: stop recording and run the undo
    /// pass over the live epoch with [`CrashPoint::MidRollback`] armed.
    /// Returns `(cycles, records undone, pages rewritten)`. A durable
    /// epoch stays open until [`Kernel::wal_cycle_aborted`] — if the
    /// machine dies mid-rollback, recovery redoes the undo from the log.
    ///
    /// The caller is responsible for the trailing TLB shootdown (stale
    /// translations survive on every core until flushed).
    pub fn wal_rollback(
        &mut self,
        space: &mut AddressSpace,
        core: CoreId,
    ) -> Result<(Cycles, usize, u64), RollbackError> {
        let live = std::mem::take(&mut self.wal.live);
        let pre = std::mem::take(&mut self.wal.live_pre);
        let undone = self.undo(space, &live, &pre, CrashPoint::MidRollback);
        let ops = live.len();
        // Hand the buffers back so the next epoch reuses them.
        self.wal.live = live;
        self.wal.live_pre = pre;
        self.wal.close_live();
        let (t, pages) = undone?;
        self.perf.rollback_pages += pages;
        self.trace.instant(
            TraceKind::Rollback,
            Cycles::ZERO,
            core.0 as u32,
            &[("ops", ops as u64), ("pages", pages)],
        );
        Ok((t, ops, pages))
    }

    /// The undo pass: install the pre-images of `ops` (pointing into
    /// `pre`) newest-first, restoring every page-table entry and byte the
    /// ops overwrote. This is both the in-process abort (on the live
    /// epoch) and crash recovery (on a scanned epoch). Returns
    /// `(cycles, pages rewritten)`.
    ///
    /// Uses functional vmem operations: no fault injection, no TLB
    /// consults, no re-recording. A far-tier page is pulled home before a
    /// byte or word pre-image lands in it (the next fetch-on-access would
    /// otherwise clobber the restore). A pending `point` — the crash site
    /// this pass runs at — fires before each op and aborts the pass with
    /// [`RollbackError::Crashed`]. Pre-images are absolute, so the pass
    /// tolerates an op applied twice in a row and a final intent that
    /// never applied. Byte pre-images are virtual, though: re-running the
    /// whole pass after a partial one can land them under a mapping a
    /// later record already restored — recovery's content hash fails
    /// that case closed.
    pub fn undo(
        &mut self,
        space: &mut AddressSpace,
        ops: &[WalOp],
        pre: &Preimages,
        point: CrashPoint,
    ) -> Result<(Cycles, u64), RollbackError> {
        let costs = self.machine.costs;
        let mut t = Cycles::ZERO;
        let mut pages = 0u64;
        for op in ops.iter().rev() {
            if self.crash_fire(point) {
                return Err(RollbackError::Crashed);
            }
            pages += op.pages();
            match *op {
                WalOp::PteSwap { a, b, pages: n, ptes } => {
                    for (i, raws) in pre.ptes_at(ptes, 2 * n).chunks_exact(2).enumerate() {
                        let i = i as u64;
                        space.page_table_mut().write_pte_raw(a.add_pages(i), raws[0])?;
                        space.page_table_mut().write_pte_raw(b.add_pages(i), raws[1])?;
                        self.perf.pte_swaps += 1;
                        t += Cycles(costs.pte_swap);
                    }
                }
                WalOp::PteWindow { lo, pages: n, ptes } => {
                    for (i, &raw) in pre.ptes_at(ptes, n).iter().enumerate() {
                        space.page_table_mut().write_pte_raw(lo.add_pages(i as u64), raw)?;
                        self.perf.pte_swaps += 1;
                        t += Cycles(costs.pte_swap);
                    }
                }
                WalOp::Bytes { at, len, bytes } => {
                    t += self.tier_resolve_write_range(space, at, len)?;
                    self.vmem.write_bytes(space, at, pre.bytes_at(bytes, len))?;
                    t += self.bandwidth.copy_cycles(&self.machine, len);
                }
                WalOp::Word { at, pre } => {
                    t += self.tier_resolve_write_range(space, at, 8)?;
                    self.vmem.write_u64(space, at, pre)?;
                    t += Cycles(costs.mem_access);
                }
            }
        }
        Ok((t, pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_metrics::MachineConfig;

    fn armed() -> WriteAheadLog {
        WriteAheadLog {
            enabled: true,
            ..WriteAheadLog::default()
        }
    }

    /// A `PteSwap` op over `pairs`, its pre-images stashed in `log`'s
    /// live arena.
    fn swap_op(log: &mut WriteAheadLog, a: u64, b: u64, pairs: &[(u64, u64)]) -> WalOp {
        let ptes = log.live_pre.ptes.len();
        for &(ra, rb) in pairs {
            log.live_pre.ptes.extend([ra, rb]);
        }
        WalOp::PteSwap {
            a: VirtAddr(a),
            b: VirtAddr(b),
            pages: pairs.len() as u64,
            ptes,
        }
    }

    /// A `Bytes` op over `pre`, stashed in `log`'s live arena.
    fn bytes_op(log: &mut WriteAheadLog, at: u64, pre: &[u8]) -> WalOp {
        let bytes = log.live_pre.bytes.len();
        log.live_pre.bytes.extend_from_slice(pre);
        WalOp::Bytes {
            at: VirtAddr(at),
            len: pre.len() as u64,
            bytes,
        }
    }

    /// Append `p` and check the scan hands back the same record: same
    /// shape, and (for intents) the same pre-images.
    fn roundtrip(mut log: WriteAheadLog, p: WalPayload) {
        log.append(7, 3, &p, false);
        let scan = log.scan();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
        let r = &scan.records[0];
        assert_eq!((r.epoch, r.seq), (7, 3));
        match (&r.payload, &p) {
            (WalPayload::Intent(got), WalPayload::Intent(sent)) => {
                assert_eq!(got.encode(&scan.preimages), sent.encode(&log.live_pre));
            }
            _ => assert_eq!(r.payload, p),
        }
    }

    #[test]
    fn every_payload_roundtrips() {
        roundtrip(armed(), WalPayload::CycleBegin {
            meta: vec![1, 2, 3, u64::MAX],
        });
        let mut log = armed();
        let op = swap_op(&mut log, 0x1000, 0x9000, &[(0xAA, 0xBB), (0xCC, 0xDD)]);
        roundtrip(log, WalPayload::Intent(op));
        let mut log = armed();
        log.live_pre.ptes.extend([0x11, 0x22, 0x33]);
        let op = WalOp::PteWindow {
            lo: VirtAddr(0x4000),
            pages: 3,
            ptes: 0,
        };
        roundtrip(log, WalPayload::Intent(op));
        let mut log = armed();
        // Deliberately not word-aligned.
        let op = bytes_op(&mut log, 0x2000, &(0..100u8).collect::<Vec<_>>());
        roundtrip(log, WalPayload::Intent(op));
        roundtrip(armed(), WalPayload::Intent(WalOp::Word {
            at: VirtAddr(0x3008),
            pre: 0xDEAD_BEEF,
        }));
        roundtrip(armed(), WalPayload::Commit { meta: Vec::new() });
        roundtrip(armed(), WalPayload::CycleAborted);
        roundtrip(armed(), WalPayload::Recovered { outcome: 2 });
        roundtrip(armed(), WalPayload::TierDemote { frame: 17, slot: 3 });
        roundtrip(armed(), WalPayload::TierPromote { frame: 17, slot: 3 });
    }

    #[test]
    fn corrupt_preimage_mutation_yields_bad_intent_not_torn_tail() {
        // The mutation flips a pre-image bit but reframes with a valid
        // frame checksum: the scan must decode the record (no torn tail)
        // and surface it as BadIntent via the op-level checksum.
        let corrupting = || WriteAheadLog {
            mutation: Some(WalMutation::CorruptPreimage),
            ..armed()
        };
        let mut byte_log = corrupting();
        let byte_op = bytes_op(&mut byte_log, 0x2000, &[7; 100]);
        let word_op = WalOp::Word {
            at: VirtAddr(0x1000),
            pre: 0xFEED,
        };
        for (mut log, op) in [(corrupting(), word_op), (byte_log, byte_op)] {
            log.append(1, 1, &WalPayload::Intent(op), false);
            assert_eq!(log.stats().preimages_corrupted, 1);
            let scan = log.scan();
            assert!(!scan.torn_tail, "frame checksum must still validate");
            assert_eq!(scan.records.len(), 1);
            assert_eq!(scan.records[0].payload, WalPayload::BadIntent);
        }
        // PteSwap intents are not covered by the mutation (no op checksum).
        let mut log = corrupting();
        let op = swap_op(&mut log, 0x1000, 0x2000, &[(1, 2)]);
        log.append(1, 1, &WalPayload::Intent(op), false);
        assert_eq!(log.stats().preimages_corrupted, 0);
        assert!(matches!(
            log.scan().records[0].payload,
            WalPayload::Intent(WalOp::PteSwap { .. })
        ));
    }

    #[test]
    fn encoded_bytes_excludes_the_preimage_checksum_word() {
        // Cost charges must not move with the S2 checksum word: Word
        // encodes to 4 words but charges for 3 + framing.
        let mut log = armed();
        let w = WalOp::Word {
            at: VirtAddr(0x1000),
            pre: 9,
        };
        assert_eq!(w.encode(&log.live_pre).len(), 4);
        assert_eq!(w.encoded_bytes(), (3 + FRAME_WORDS) as u64 * WORD_BYTES);
        let b = bytes_op(&mut log, 0x2000, &[1; 64]);
        assert_eq!(b.encode(&log.live_pre).len(), 3 + 8 + 1);
        assert_eq!(b.encoded_bytes(), (3 + 8 + FRAME_WORDS) as u64 * WORD_BYTES);
    }

    #[test]
    fn tier_records_live_in_the_reserved_epoch() {
        let mut k = Kernel::new(MachineConfig::i5_7600(), 16);
        k.set_wal_enabled(true);
        k.set_wal_namespace(5);
        let c = k.wal_tier_record(WalPayload::TierDemote { frame: 4, slot: 0 });
        assert!(c > Cycles::ZERO, "tier records are cost-charged");
        k.wal_tier_record(WalPayload::TierPromote { frame: 4, slot: 0 });
        let scan = k.wal_scan();
        assert_eq!(scan.records.len(), 2);
        // Namespacing never touches the reserved epoch, and seq increments.
        assert!(scan.records.iter().all(|r| r.epoch == TIER_EPOCH));
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(k.wal_stats().tier_records, 2);
    }

    #[test]
    fn epoch_namespace_prefixes_every_epoch() {
        let mut k = Kernel::new(MachineConfig::i5_7600(), 16);
        k.set_wal_enabled(true);
        k.set_wal_namespace(3);
        let e1 = k.wal_cycle_begin(vec![]).unwrap();
        k.wal_commit(vec![]);
        let e2 = k.wal_cycle_begin(vec![]).unwrap();
        k.wal_commit(vec![]);
        assert_eq!(e1, (3u64 << 48) | 1);
        assert_eq!(e2, (3u64 << 48) | 2);
        // Re-arming the log keeps the namespace; default stays 0.
        k.set_wal_enabled(true);
        assert_eq!(k.wal_cycle_begin(vec![]).unwrap(), (3u64 << 48) | 1);
        let mut k0 = Kernel::new(MachineConfig::i5_7600(), 16);
        k0.set_wal_enabled(true);
        assert_eq!(k0.wal_cycle_begin(vec![]).unwrap(), 1);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut log = armed();
        log.append(1, 0, &WalPayload::CycleBegin { meta: vec![9] }, false);
        log.append(
            1,
            1,
            &WalPayload::Intent(WalOp::Word {
                at: VirtAddr(0x1000),
                pre: 5,
            }),
            false,
        );
        // Crash mid-append of the third record.
        let op = bytes_op(&mut log, 0x2000, &[1; 64]);
        log.append(1, 2, &WalPayload::Intent(op), true);
        let scan = log.scan();
        assert!(scan.torn_tail, "truncated frame must be flagged");
        assert_eq!(scan.records.len(), 2, "intact prefix fully decoded");
        assert!(log.stats().torn);
    }

    #[test]
    fn corrupted_checksum_is_a_torn_tail() {
        let mut log = armed();
        log.append(1, 0, &WalPayload::CycleAborted, false);
        let last = log.words.len() - 1;
        log.words[last] ^= 1;
        let scan = log.scan();
        assert!(scan.torn_tail);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn empty_log_scans_clean() {
        let log = WriteAheadLog::new();
        let scan = log.scan();
        assert!(!scan.torn_tail);
        assert!(scan.records.is_empty());
    }
}
