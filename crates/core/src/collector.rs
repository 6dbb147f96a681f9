//! The common collector interface used by drivers and baselines.

use crate::error::GcError;
use crate::stats::{GcCycleStats, GcLog};
use svagc_heap::{Heap, HeapError, ObjRef, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::Cycles;

/// A stop-the-world (or partially concurrent) garbage collector.
pub trait Collector {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Run one collection cycle.
    fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError>;

    /// The log of completed cycles.
    fn log(&self) -> &GcLog;

    /// Run a collection cheaper than a full cycle, if the collector has
    /// one (a young-generation/minor pass); `None` (the default) means
    /// "unsupported". No collector the workload driver builds overrides
    /// it, and the driver never calls it: its pressure ladder runs full
    /// collections only.
    fn collect_minor(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Option<Result<GcCycleStats, GcError>> {
        let _ = (kernel, heap, roots);
        None
    }

    /// Pressure-driven degrade: force the collector one rung down its
    /// degraded-mode ladder (memmove-only first) so subsequent cycles
    /// avoid SwapVA side allocations and pack the heap as tightly as
    /// possible. Returns `false` when the collector has no ladder or it
    /// is already exhausted.
    fn pressure_degrade(&mut self) -> bool {
        false
    }

    /// Mutator write barrier, invoked *before* a reference field is
    /// overwritten. SATB collectors log the old value into a deletion
    /// buffer; the default is a no-op that performs no simulated reads,
    /// so non-concurrent collectors stay byte-identical with or without
    /// the hook wired into the mutator loop. Returns the barrier's
    /// mutator-side cycle cost.
    fn write_barrier(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        core: CoreId,
        obj: ObjRef,
        field: u64,
    ) -> Result<Cycles, HeapError> {
        let _ = (kernel, heap, core, obj, field);
        Ok(Cycles::ZERO)
    }
}

impl Collector for crate::lisp2::Lisp2Collector {
    fn name(&self) -> &'static str {
        if self.cfg.use_swapva {
            "SVAGC"
        } else {
            "LISP2-memmove"
        }
    }

    fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        Lisp2Collector::collect(self, kernel, heap, roots)
    }

    fn log(&self) -> &GcLog {
        &self.log
    }

    fn pressure_degrade(&mut self) -> bool {
        self.degrade.force_escalate().is_some()
    }
}

use crate::lisp2::Lisp2Collector;
