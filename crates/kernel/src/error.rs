//! Typed errors for the SwapVA syscall layer.
//!
//! A real SwapVA implementation can fail for reasons beyond bad operands:
//! PTE-lock contention, allocation failure inside the walk, a shootdown
//! that never acks. [`SwapVaError`] separates those *operational* failures
//! (which carry the cycles the failed attempt burned, so callers can charge
//! them to the right simulated core) from the *structural* [`VmError`]s of
//! the underlying memory model.

use crate::fault::{CrashPoint, FaultKind};
use std::fmt;
use svagc_metrics::Cycles;
use svagc_vmem::VmError;

/// Failure of a `swap_va` / `swap_va_batch` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapVaError {
    /// Structural error from the memory model (bad range, unmapped page).
    Vm(VmError),
    /// An injected operational fault (see [`crate::fault`]).
    Fault {
        /// Modeled failure mode.
        kind: FaultKind,
        /// Index of the failing request within the batch (`0` for single
        /// calls). Requests `0..index` were fully applied; the failing
        /// request itself was not (per-request atomicity).
        index: usize,
        /// Cycles the failed attempt burned before reporting the error
        /// (syscall entry, partial walks, lock spins, timed-out IPIs, plus
        /// any requests already applied earlier in the batch). Callers must
        /// charge these to the calling core.
        spent: Cycles,
    },
    /// A seeded crash point fired: the simulated machine is dead. Not an
    /// errno — nothing observed this error on the machine; it exists so
    /// the simulation can unwind to the crash/recovery harness. Never
    /// retried, never demoted to a fallback path.
    Crashed {
        /// Where the machine died.
        point: CrashPoint,
    },
}

impl SwapVaError {
    /// Is this fault worth retrying (resource contention that clears), as
    /// opposed to a permanent error that will recur on every attempt?
    pub fn is_transient(&self) -> bool {
        match self {
            SwapVaError::Vm(_) | SwapVaError::Crashed { .. } => false,
            SwapVaError::Fault { kind, .. } => kind.is_transient(),
        }
    }

    /// Cycles the failed attempt burned (zero for structural errors, which
    /// are detected in validation before any modeled work).
    pub fn spent(&self) -> Cycles {
        match self {
            SwapVaError::Vm(_) | SwapVaError::Crashed { .. } => Cycles::ZERO,
            SwapVaError::Fault { spent, .. } => *spent,
        }
    }
}

impl SwapVaError {
    /// Add already-burned caller cycles (syscall entry, applied batch
    /// prefix) to a fault's `spent`. No-op for structural errors, which
    /// abort before meaningful modeled work.
    pub(crate) fn add_spent(self, extra: Cycles) -> SwapVaError {
        match self {
            SwapVaError::Fault { kind, index, spent } => SwapVaError::Fault {
                kind,
                index,
                spent: spent + extra,
            },
            e => e,
        }
    }

    /// Stamp the batch index the error occurred at.
    pub(crate) fn at_index(self, i: usize) -> SwapVaError {
        match self {
            SwapVaError::Fault { kind, spent, .. } => SwapVaError::Fault {
                kind,
                index: i,
                spent,
            },
            e => e,
        }
    }
}

impl From<VmError> for SwapVaError {
    fn from(e: VmError) -> SwapVaError {
        SwapVaError::Vm(e)
    }
}

impl fmt::Display for SwapVaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapVaError::Vm(e) => write!(f, "{e}"),
            SwapVaError::Fault { kind, index, spent } => write!(
                f,
                "injected SwapVA fault {kind} at batch index {index} ({spent} cycles burned)"
            ),
            SwapVaError::Crashed { point } => {
                write!(f, "machine crashed at seeded crash point {point}")
            }
        }
    }
}

impl std::error::Error for SwapVaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwapVaError::Vm(e) => Some(e),
            SwapVaError::Fault { .. } | SwapVaError::Crashed { .. } => None,
        }
    }
}

/// Failure of an undo pass ([`crate::Kernel::undo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackError {
    /// Structural error from the memory model while restoring.
    Vm(VmError),
    /// The pass's seeded crash point ([`CrashPoint::MidRollback`] on
    /// abort, [`CrashPoint::InsideRecovery`] in recovery) fired
    /// mid-restore: the machine died again while undoing. A durable
    /// epoch stays unresolved in the write-ahead log; recovery finishes
    /// the undo after restart.
    Crashed,
}

impl From<VmError> for RollbackError {
    fn from(e: VmError) -> RollbackError {
        RollbackError::Vm(e)
    }
}

impl fmt::Display for RollbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackError::Vm(e) => write!(f, "{e}"),
            RollbackError::Crashed => {
                write!(f, "machine crashed at a seeded crash point mid-undo")
            }
        }
    }
}

impl std::error::Error for RollbackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RollbackError::Vm(e) => Some(e),
            RollbackError::Crashed => None,
        }
    }
}
