//! The simulated kernel: the SwapVA system call and everything it needs.
//!
//! This crate is the reproduction of the paper's §III (SwapVA design) and
//! the OS half of §IV (multi-core scalability):
//!
//! * [`state`] — the [`Kernel`]: machine config + physical memory +
//!   per-core TLBs + perf counters; TLB-mediated translation with refill
//!   charging; optional cache instrumentation for Table III.
//! * [`swapva`] — Algorithm 1 ([`Kernel::swap_va`]), request aggregation
//!   ([`Kernel::swap_va_batch`], Fig. 5/6), and PMD-cached walks
//!   (Fig. 7/8).
//! * [`overlap`] — Algorithm 2: gcd-cycle rotation of overlapping ranges in
//!   `n + δ` PTE writes.
//! * [`shootdown`] — flush policies: naive per-call global IPI broadcast
//!   vs the pinned local-only protocol of Algorithm 4 (Fig. 9, Eq. 2).
//! * [`batch`] — aggregation buffers ([`SwapBatch`]): the cap/page-budget
//!   policy each compact work packet carries for its own flushes.
//! * [`memmove`] — the cost-modeled byte-copy baseline SwapVA replaces.
//! * [`fault`] — deterministic, seeded injection of modeled SwapVA failure
//!   modes (EAGAIN/EINVAL/ENOMEM/IPI timeout) for chaos testing; failures
//!   surface as typed [`SwapVaError`]s that carry the cycles burned. Also
//!   home of seeded [`fault::CrashPoint`]s, which kill the simulated
//!   machine outright instead of returning an errno.
//! * [`wal`] — the undo log: each GC-cycle mutation records one
//!   absolute pre-image before it applies, and one undo pass
//!   ([`Kernel::undo`]) serves both in-process abort and crash recovery.
//!   Epochs are volatile unless the log is armed; then the same records
//!   become durable write-ahead intents, so a crash at any point leaves a
//!   log from which recovery can restore a bit-exact pre- or post-cycle
//!   heap (never a hybrid).
//! * [`fnv`] — the word-wide FNV-1a fold ([`Fnv64`]) behind the device,
//!   WAL and heap content checksums.
//!
//! All operations return the [`svagc_metrics::Cycles`] consumed so callers
//! attribute time to the right simulated core.

#![warn(missing_docs)]

pub mod batch;
pub mod device;
pub mod error;
pub mod fault;
pub mod fnv;
pub mod memmove;
pub mod overlap;
pub mod retry;
pub mod shootdown;
pub mod state;
pub mod swapva;
pub mod tier;
pub mod wal;

pub use batch::SwapBatch;
pub use device::{
    DeviceError, DeviceFaultConfig, DeviceFaultKind, DeviceFaultPlan, DeviceStats, FarDevice,
    SlotId,
};
pub use error::{RollbackError, SwapVaError};
pub use fault::{CrashPlan, CrashPoint, FaultConfig, FaultKind, FaultPlan};
pub use fnv::Fnv64;
pub use overlap::gcd;
pub use retry::RetryPolicy;
pub use shootdown::{FlushMode, Interference};
pub use state::{CoreId, Kernel};
pub use swapva::{SwapRequest, SwapVaOptions};
pub use tier::{FarTier, PageView, TierError, TierStats};
pub use wal::{
    Preimages, WalMutation, WalOp, WalPayload, WalRecord, WalScan, WalStats, WriteAheadLog,
    TIER_EPOCH,
};
