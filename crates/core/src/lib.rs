//! SVAGC — the paper's collector: a parallel LISP2 mark-compact full GC
//! whose compaction phase moves large objects by swapping their page-table
//! entries (the SwapVA system call) instead of copying bytes.
//!
//! * [`config`] — which mechanisms are on ([`GcConfig::svagc`] vs
//!   [`GcConfig::lisp2_memmove`] is the paper's central comparison).
//! * [`lisp2`] — the four STW phases over real simulated memory.
//! * [`scheduler`] — deterministic virtual-time model of parallel GC
//!   workers (work stealing vs static partitioning).
//! * [`packets`] — the placement policy each collector's one cycle engine
//!   runs under: barrier phases, or (`--scheduler packets`) typed packets
//!   in dependency-ordered buckets with deterministic least-loaded
//!   stealing.
//! * [`stats`] — per-phase and per-cycle accounting behind every figure.
//! * [`collector`] — the [`Collector`] trait baselines also implement.
//! * [`applicability`] — Table I as code.
//! * [`error`] / [`resilience`] — the typed [`GcError`] hierarchy and the
//!   retry/fallback/split executor that keeps compaction alive under
//!   injected SwapVA faults.
//! * [`journal`] / [`watchdog`] / [`degrade`] — the transactional cycle
//!   protocol: every collection is all-or-nothing (undo journal +
//!   rollback), bounded in time (per-phase deadlines), and survivable
//!   (the degraded-mode circuit breaker).
//! * [`recovery`] — the crash-recovery state machine: classify the
//!   write-ahead log after a simulated crash, undo torn cycles, and
//!   rebuild a heap proven bit-identical to a pre- or post-cycle
//!   snapshot (never a hybrid).
//! * [`protocol`] — a schedule-exploring model checker of the §IV
//!   TLB-coherence protocols, with a built-in mutation suite proving the
//!   checker itself has teeth.

#![warn(missing_docs)]

pub mod applicability;
pub mod collector;
pub mod concurrent;
pub mod config;
pub mod degrade;
pub mod error;
pub mod journal;
pub mod lisp2;
pub mod minor;
pub mod packets;
pub mod pressure;
pub mod protocol;
pub mod recovery;
pub mod resilience;
pub mod scheduler;
pub mod stats;
pub mod tier;
pub mod watchdog;

pub use collector::Collector;
pub use concurrent::{ConcurrentCollector, INIT_MARK_ROOT_COST, SATB_DRAIN_ENTRY_COST, SATB_LOG_COST};
pub use config::{GcConfig, SchedulerKind};
pub use degrade::{DegradeController, DegradePolicy, DegradedMode, ModeTransition};
pub use error::GcError;
pub use journal::{CompactionJournal, RollbackReport};
pub use lisp2::{Lisp2Collector, Premark};
pub use minor::{full_collect_generational, MinorGc, MinorStats};
pub use packets::{PacketKind, PacketTicket, SchedStats};
pub use pressure::{PressureAction, PressureEscalator, PressureStats};
pub use protocol::{
    check_protocol, mutation_suite, Counterexample, ExploreReport, ModelConfig, Mutation,
};
pub use recovery::{
    recover, CycleClass, CycleMeta, RecoveryError, RecoveryFailure, RecoveryReport,
    RecoverySuccess,
};
pub use resilience::{execute_swaps, RetryPolicy, SwapOutcome};
pub use scheduler::{Placement, WorkerPool};
pub use stats::{GcCycleStats, GcLog, PhaseBreakdown};
pub use tier::{TierController, TierCtlStats, TierMode, TierPolicy};
pub use watchdog::GcWatchdog;
