//! The simulated JVM a workload runs in: heap + roots + collector +
//! mutator-time accounting, with GC-on-demand allocation.

use svagc_core::{Collector, GcError, PressureAction, PressureEscalator, TierController};
use svagc_heap::{Heap, HeapError, ObjRef, ObjShape, RootId, RootSet, TlabAllocator};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::{AccessKind, Cycles};
use svagc_vmem::VmError;

/// Upper bound on workload TLAB size (shrunk for small heaps).
const TLAB_BYTES_MAX: u64 = 1 << 20;

/// One running JVM instance.
pub struct JvmEnv<'a> {
    /// The machine this JVM runs on (shared in multi-JVM experiments).
    pub kernel: &'a mut Kernel,
    /// The managed heap.
    pub heap: Heap,
    /// GC roots.
    pub roots: RootSet,
    /// The active collector.
    pub collector: Box<dyn Collector>,
    /// Bidirectional TLAB front-end (§IV's fragmentation fix).
    tlab: TlabAllocator,
    /// Accumulated mutator (application) cycles.
    pub app_cycles: Cycles,
    /// The core mutator work is charged to.
    pub core: CoreId,
    /// Pressure-escalation state machine. Inert by default; the fleet
    /// driver arms it for tenants running under a shared frame pool
    /// (arming changes the allocation path, so pressure-off runs are
    /// byte-identical to pre-pressure ones).
    pub pressure: PressureEscalator,
    /// Cold-object tiering policy. Inert by default; drivers arm it
    /// (together with a kernel far tier) to demote cold heap pages after
    /// every GC cycle. Off ⇒ every collect path is byte-identical to
    /// pre-tier code.
    pub tier: TierController,
    /// Simulated cycles the tier demote passes consumed (GC overhead,
    /// charged to wall time alongside the pauses).
    pub tier_cycles: Cycles,
}

impl<'a> JvmEnv<'a> {
    /// Wire up an environment.
    pub fn new(
        kernel: &'a mut Kernel,
        heap: Heap,
        collector: Box<dyn Collector>,
    ) -> JvmEnv<'a> {
        let tlab_bytes = (heap.capacity() / 16).clamp(64 << 10, TLAB_BYTES_MAX);
        JvmEnv {
            kernel,
            heap,
            roots: RootSet::new(),
            collector,
            tlab: TlabAllocator::new(tlab_bytes),
            app_cycles: Cycles::ZERO,
            core: CoreId(0),
            pressure: PressureEscalator::new(false),
            tier: TierController::off(),
            tier_cycles: Cycles::ZERO,
        }
    }

    /// The post-cycle tiering pass: demote cold pages until the DRAM
    /// target holds (or degrade, per the controller's ladder). Must run
    /// after *every* collection, whichever path triggered it, so the
    /// hotness signal and the resident set stay in step with the GC
    /// schedule.
    fn tier_pass(&mut self) -> Result<(), GcError> {
        if !self.tier.enabled() {
            return Ok(());
        }
        let (base, top) = (self.heap.base(), self.heap.top());
        let t = self
            .tier
            .after_cycle(self.kernel, self.heap.space(), base, top)?;
        self.tier_cycles += t;
        Ok(())
    }

    /// Allocate through the TLAB front-end, collecting once if the heap is
    /// full. A second failure is a genuine OOM and propagates. The TLAB is
    /// retired before any GC (compaction invalidates its cursors).
    ///
    /// With the [`JvmEnv::pressure`] escalator armed, denials instead walk
    /// the pressure ladder (full GC → degrade → a tenant-local
    /// [`GcError::OutOfMemory`]) and successes feed the background pressure
    /// signal.
    pub fn alloc(&mut self, shape: ObjShape) -> Result<ObjRef, GcError> {
        if self.pressure.enabled() {
            return self.alloc_pressured(shape);
        }
        match self
            .tlab
            .alloc(&mut self.heap, self.kernel, self.core, shape)
        {
            Ok((obj, t)) => {
                self.app_cycles += t;
                Ok(obj)
            }
            Err(HeapError::NeedGc { .. }) => {
                self.tlab.retire();
                self.collector
                    .collect(self.kernel, &mut self.heap, &mut self.roots)?;
                self.tier_pass()?;
                let (obj, t) = self
                    .tlab
                    .alloc(&mut self.heap, self.kernel, self.core, shape)?;
                self.app_cycles += t;
                Ok(obj)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The pressure-armed allocation path: every heap-full or
    /// quota-denied attempt buys the next rung of the remedy ladder, and
    /// the ladder's end is a typed, tenant-local OOM — never a panic,
    /// never another tenant's frames.
    fn alloc_pressured(&mut self, shape: ObjShape) -> Result<ObjRef, GcError> {
        let requested = shape.size_bytes();
        let mut last_action = "none";
        // The proactive signal remedy must run *before* the allocation it
        // protects: a fresh object is unrooted until the caller links it,
        // so a GC after success would sweep it.
        self.check_pressure_signal()?;
        loop {
            match self
                .tlab
                .alloc(&mut self.heap, self.kernel, self.core, shape)
            {
                Ok((obj, t)) => {
                    self.app_cycles += t;
                    self.pressure.on_success();
                    return Ok(obj);
                }
                Err(HeapError::NeedGc { .. })
                | Err(HeapError::Vm(VmError::QuotaExceeded { .. })) => {
                    self.tlab.retire();
                    let action = self.pressure.on_denial();
                    match action {
                        PressureAction::FullGc => self.pressure_collect()?,
                        PressureAction::Degrade => {
                            // Memmove-only compaction packs the heap as
                            // tightly as the collector can; whether the
                            // ladder had a rung left or not, collect again.
                            self.collector.pressure_degrade();
                            self.pressure_collect()?;
                        }
                        PressureAction::GiveUp => {
                            // `last_action` is the remedy that ran (and
                            // failed to free enough) right before this.
                            return Err(GcError::OutOfMemory { requested, last_action });
                        }
                    }
                    last_action = action.name();
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Run the remedy collection, then return any committed pages above
    /// the compacted top to the frame pool.
    fn pressure_collect(&mut self) -> Result<(), GcError> {
        self.collector
            .collect(self.kernel, &mut self.heap, &mut self.roots)?;
        self.heap.trim_commit(self.kernel)?;
        self.tier_pass()?;
        Ok(())
    }

    /// Read the tenant's pressure signal after a successful allocation and
    /// run the (edge-triggered) proactive remedy it asks for.
    fn check_pressure_signal(&mut self) -> Result<(), GcError> {
        let p = match self.kernel.vmem.frames.lease() {
            Some(lease) => lease.pressure(),
            None => return Ok(()),
        };
        match self.pressure.on_signal(p) {
            Some(PressureAction::FullGc) => {
                self.tlab.retire();
                self.pressure_collect()
            }
            _ => Ok(()),
        }
    }

    /// Allocate a rooted object whose data words are `seed, seed+1, ...`.
    /// Initialization is bulk (bandwidth-costed); the stamp lets
    /// [`JvmEnv::check_stamped`] verify integrity after any number of GCs.
    pub fn alloc_stamped(
        &mut self,
        shape: ObjShape,
        seed: u64,
    ) -> Result<(RootId, ObjRef), GcError> {
        let obj = self.alloc(shape)?;
        // Stamp first and last words through the costed path, the bulk via
        // one modeled streaming write.
        let words = shape.data_words as u64;
        if words > 0 {
            self.app_cycles +=
                self.heap
                    .write_data(self.kernel, self.core, obj, shape.num_refs as u64, 0, seed)?;
            if words > 1 {
                self.app_cycles += self.heap.write_data(
                    self.kernel,
                    self.core,
                    obj,
                    shape.num_refs as u64,
                    words - 1,
                    seed + words - 1,
                )?;
            }
            self.app_cycles += self
                .kernel
                .bandwidth
                .copy_cycles(&self.kernel.machine, (words - 1).max(1) * 8);
        }
        let rid = self.roots.push(obj);
        Ok((rid, obj))
    }

    /// Verify a stamped object's first/last data words.
    pub fn check_stamped(
        &mut self,
        rid: RootId,
        shape: ObjShape,
        seed: u64,
    ) -> Result<(), String> {
        let obj = self.roots.get(rid);
        if obj.is_null() {
            return Err("root unexpectedly null".into());
        }
        let words = shape.data_words as u64;
        if words == 0 {
            return Ok(());
        }
        let (first, t1) = self
            .heap
            .read_data(self.kernel, self.core, obj, shape.num_refs as u64, 0)
            .map_err(|e| e.to_string())?;
        self.app_cycles += t1;
        if first != seed {
            return Err(format!("first word: got {first}, want {seed}"));
        }
        if words > 1 {
            let (last, t2) = self
                .heap
                .read_data(self.kernel, self.core, obj, shape.num_refs as u64, words - 1)
                .map_err(|e| e.to_string())?;
            self.app_cycles += t2;
            let want = seed + words - 1;
            if last != want {
                return Err(format!("last word: got {last}, want {want}"));
            }
        }
        Ok(())
    }

    /// Model the mutator streaming over `bytes` of an object (compute
    /// kernels reading their arrays): bandwidth-costed, and in instrumented
    /// mode the lines pass through the cache/DTLB simulators. A line that
    /// cannot be translated (e.g. a far page whose bytes the device lost)
    /// fails the step, as it would a GC copy.
    pub fn compute_over(&mut self, obj: ObjRef, bytes: u64) -> Result<(), GcError> {
        self.app_cycles += self
            .kernel
            .bandwidth
            .copy_cycles(&self.kernel.machine, bytes / 2);
        if self.kernel.instrumented() {
            self.app_cycles += self.kernel.stream_lines(
                self.heap.space(),
                self.core,
                obj.0,
                bytes,
                AccessKind::Read,
            )?;
        }
        Ok(())
    }

    /// Charge pure compute (no memory traffic).
    pub fn charge_app(&mut self, c: Cycles) {
        self.app_cycles += c;
    }

    /// Mutator reference store through the collector's write barrier.
    /// All workload ref overwrites must go through here: SATB collectors
    /// log the old value (the deletion barrier) before the store lands;
    /// for everything else the barrier is a free no-op, so non-concurrent
    /// runs are byte-identical to the pre-barrier code path.
    pub fn write_ref(&mut self, obj: ObjRef, field: u64, target: ObjRef) -> Result<(), GcError> {
        self.app_cycles +=
            self.collector
                .write_barrier(self.kernel, &mut self.heap, self.core, obj, field)?;
        self.app_cycles += self
            .heap
            .write_ref(self.kernel, self.core, obj, field, target)?;
        Ok(())
    }
}
