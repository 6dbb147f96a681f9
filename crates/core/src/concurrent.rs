//! `--concurrent`: snapshot-at-the-beginning (SATB) concurrent marking.
//!
//! The STW [`Lisp2Collector`] pays for the whole transitive-closure trace
//! inside the pause. This wrapper moves the trace off-pause:
//!
//! 1. **Initial mark** (short pause): snapshot the root set and seed the
//!    mark bitmap ([`ConcurrentCollector::begin_mark`]).
//! 2. **Concurrent mark**: trace the snapshot's reachability
//!    ([`ConcurrentCollector::mark_step`]), charged off-pause. Mutator
//!    ref overwrites go through the SATB *deletion barrier*
//!    ([`Collector::write_barrier`]): the old value is logged into a
//!    per-tenant [`SatbBuffer`] so the mutator cannot hide a
//!    snapshot-reachable object from the trace.
//! 3. **Final mark** (short pause): drain the SATB buffer (plus a root
//!    re-scan and the allocation watermark), completing the snapshot's
//!    marks.
//! 4. **Compaction stays in the pause**: forwarding, adjust, and the
//!    SwapVA per-object remap run through the unchanged transactional
//!    [`Lisp2Collector`] machinery via [`Premark`] — journal bracketing,
//!    watchdog, degradation ladder, packet scheduler and all. Moving
//!    objects under a running mutator would need a read barrier the
//!    object model doesn't have; SwapVA makes the evacuation pause cheap
//!    enough (O(pages moved), no byte copies) that it stays STW.
//!
//! Every cycle runs these steps in this order, through the same final
//! mark. A [`Collector::collect`] from idle — the driver's trigger — runs
//! `begin_mark`, an unbounded `mark_step` and the final mark back to
//! back. No mutator step runs in between, so the mark set is exactly the
//! STW collector's and the compacted heap is bit-identical to an STW run;
//! the trace cost is charged as mutator interference, and only the
//! initial-mark and SATB-drain charges land in the pause. Barrier entries
//! logged in the idle window before the snapshot are charged at the drain
//! but not traced. Tests and adversaries instead interleave budgeted
//! `mark_step`s with mutator writes: the snapshot is real, the writes
//! race the trace, and the deletion barrier is load-bearing (disable it
//! and the lost-object bug reproduces deterministically). A `collect`
//! issued while such a mark is in flight follows the **abort-or-finish
//! rule**: the mark is *finished* (drain in the pause) and exactly one
//! transactional cycle runs — never two overlapping cycles.

use crate::collector::Collector;
use crate::error::GcError;
use crate::lisp2::{scan_object, Lisp2Collector, Premark};
use crate::stats::{GcCycleStats, GcLog};
use svagc_heap::{Heap, HeapError, MarkBitmap, ObjRef, RootSet, SatbBuffer};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::Cycles;
use svagc_vmem::VirtAddr;

/// Initial-mark charge per live root slot (stack scan, no heap reads).
pub const INIT_MARK_ROOT_COST: Cycles = Cycles(2);

/// Mutator-side cost of appending one entry to the SATB buffer (the
/// deletion barrier's slow path; the old-value load is costed separately
/// as a real heap read).
pub const SATB_LOG_COST: Cycles = Cycles(4);

/// Final-mark charge per SATB entry drained (pop, mark-check, push).
pub const SATB_DRAIN_ENTRY_COST: Cycles = Cycles(6);

/// An in-flight concurrent mark.
#[derive(Debug)]
struct Marking {
    /// Marks accumulated so far (over the snapshot's reachability).
    bitmap: MarkBitmap,
    /// Allocation cursor at snapshot time: objects at or above this
    /// address were born during the mark and are live by watermark.
    snapshot_top: VirtAddr,
    /// Gray stack: marked, fields not yet scanned.
    gray: Vec<ObjRef>,
    /// The initial-mark pause already charged.
    init_pause: Cycles,
    /// Trace cycles spent off-pause so far.
    concurrent_cycles: Cycles,
    /// Barrier entries logged before the snapshot: charged at final mark,
    /// never traced.
    idle_logged: u64,
}

/// The SATB concurrent-marking wrapper around [`Lisp2Collector`].
#[derive(Debug)]
pub struct ConcurrentCollector {
    /// The wrapped transactional STW collector (owns the cycle log).
    pub inner: Lisp2Collector,
    satb: SatbBuffer,
    marking: Option<Marking>,
    barrier_enabled: bool,
    /// The last finished mark's bitmap, recycled by the next mark.
    spare: MarkBitmap,
}

impl ConcurrentCollector {
    /// Wrap a configured STW collector. The deletion barrier starts
    /// enabled; [`ConcurrentCollector::set_barrier_enabled`] exists so
    /// tests can reproduce the lost-object bug.
    pub fn new(inner: Lisp2Collector) -> ConcurrentCollector {
        ConcurrentCollector {
            inner,
            satb: SatbBuffer::new(),
            marking: None,
            barrier_enabled: true,
            spare: MarkBitmap::default(),
        }
    }

    /// Enable/disable the SATB deletion barrier (tests only — disabling
    /// it mid-mark loses objects, which is the point of the adversary
    /// suite).
    pub fn set_barrier_enabled(&mut self, on: bool) {
        self.barrier_enabled = on;
    }

    /// Is a concurrent mark in flight?
    pub fn marking(&self) -> bool {
        self.marking.is_some()
    }

    /// SATB entries currently buffered (not yet drained).
    pub fn satb_pending(&self) -> usize {
        self.satb.len()
    }

    /// Is `obj` marked by the in-flight mark? `false` when idle.
    pub fn is_marked(&self, obj: ObjRef) -> bool {
        self.marking
            .as_ref()
            .is_some_and(|m| m.bitmap.is_marked(obj.header_va()))
    }

    fn trace_core(&self, kernel: &Kernel) -> CoreId {
        CoreId(self.inner.cfg.core_base % kernel.cores())
    }

    /// An empty bitmap over `heap`, made from the last mark's buffer.
    fn fresh_bitmap(&mut self, heap: &Heap) -> MarkBitmap {
        let mut bitmap = std::mem::take(&mut self.spare);
        self.inner
            .recycle_bitmap(&mut bitmap, heap.base(), heap.extent_words());
        bitmap
    }

    /// Begin an incremental concurrent mark: take the snapshot (roots +
    /// allocation watermark) in a short initial-mark pause. Returns
    /// `false` (and does nothing) if a mark is already in flight — the
    /// abort-or-finish rule forbids overlapping cycles.
    pub fn begin_mark(&mut self, heap: &Heap, roots: &RootSet) -> bool {
        if self.marking.is_some() {
            return false;
        }
        // Entries logged before this snapshot predate it (the snapshot
        // already sees their overwrites): count them for the drain
        // charge, but do not trace them.
        let idle_logged = self.satb.drain().len() as u64;
        let mut bitmap = self.fresh_bitmap(heap);
        let mut gray = Vec::new();
        let mut slots = 0u64;
        for r in roots.iter_live() {
            slots += 1;
            if heap.contains(r.0) && bitmap.mark(r.header_va()) {
                gray.push(r);
            }
        }
        self.marking = Some(Marking {
            bitmap,
            snapshot_top: heap.top(),
            gray,
            init_pause: INIT_MARK_ROOT_COST * slots.max(1),
            concurrent_cycles: Cycles::ZERO,
            idle_logged,
        });
        true
    }

    /// Run up to `max_objects` gray-stack scans of the in-flight mark,
    /// interleaved with mutator execution. Returns `true` when the gray
    /// stack is empty (the trace is quiescent; SATB entries still drain
    /// at final mark). No-op `true` when no mark is in flight.
    pub fn mark_step(
        &mut self,
        kernel: &mut Kernel,
        heap: &Heap,
        max_objects: usize,
    ) -> Result<bool, HeapError> {
        let core = self.trace_core(kernel);
        let Some(m) = self.marking.as_mut() else {
            return Ok(true);
        };
        let mut t = Cycles::ZERO;
        for _ in 0..max_objects {
            let Some(obj) = m.gray.pop() else {
                break;
            };
            let in_heap = |va| heap.contains(va);
            t += scan_object(kernel, heap, core, obj, &mut m.bitmap, in_heap, &mut m.gray)?;
        }
        m.concurrent_cycles += t;
        Ok(m.gray.is_empty())
    }

    /// Finish the in-flight mark inside the pause: complete any
    /// remaining trace, drain the SATB buffer (tracing each logged
    /// reference; idle-window entries are only charged), re-scan the
    /// roots, and apply the allocation watermark. All of it is charged to
    /// the STW final-mark portion — the abort-or-finish rule pays for
    /// unfinished concurrent work in the pause rather than letting cycles
    /// overlap.
    fn finish_mark(
        &mut self,
        kernel: &mut Kernel,
        heap: &Heap,
        roots: &RootSet,
    ) -> Result<Premark, HeapError> {
        let core = self.trace_core(kernel);
        let mut m = self.marking.take().expect("finish_mark requires an in-flight mark");
        let mut drain = Cycles::ZERO;

        // SATB drain: every overwritten reference is a mark root.
        let entries = self.satb.drain();
        let satb_logged = m.idle_logged + entries.len() as u64;
        drain += SATB_DRAIN_ENTRY_COST * satb_logged;
        for old in entries {
            if !old.is_null() && heap.contains(old.0) && m.bitmap.mark(old.header_va()) {
                m.gray.push(old);
            }
        }
        // Root re-scan: stores into root slots during the mark may
        // reference objects whose in-heap edges were never traced.
        for r in roots.iter_live() {
            if heap.contains(r.0) && m.bitmap.mark(r.header_va()) {
                m.gray.push(r);
            }
        }
        // Complete the trace from everything gray.
        while let Some(obj) = m.gray.pop() {
            let in_heap = |va| heap.contains(va);
            drain += scan_object(kernel, heap, core, obj, &mut m.bitmap, in_heap, &mut m.gray)?;
        }
        // Allocation watermark: objects born after the snapshot are live
        // this cycle regardless of reachability. Their fields only ever
        // held references the mutator obtained from the snapshot graph
        // (traced above) or from other new objects, so no re-trace is
        // needed — the standard SATB allocation rule.
        if heap.top() > m.snapshot_top {
            let (_, objects) = heap.space_and_objects();
            for &obj in objects {
                if obj.0 >= m.snapshot_top {
                    m.bitmap.mark(obj.header_va());
                }
            }
        }

        Ok(Premark {
            bitmap: m.bitmap,
            stw_mark: m.init_pause + drain,
            concurrent_mark: m.concurrent_cycles,
            satb_logged,
        })
    }
}

impl Collector for ConcurrentCollector {
    fn name(&self) -> &'static str {
        "SVAGC-concurrent"
    }

    fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        if self.begin_mark(heap, roots) {
            // From idle (the driver's trigger): trace to quiescence before
            // anything else runs, so the mark set is the STW collector's.
            // A failed trace leaves no mark in flight.
            if let Err(e) = self.mark_step(kernel, heap, usize::MAX) {
                self.marking = None;
                return Err(e.into());
            }
        }
        // Abort-or-finish: a collect arriving mid-mark finishes that mark
        // in this pause and runs one transactional cycle — never two
        // overlapping cycles.
        let premark = self.finish_mark(kernel, heap, roots)?;
        let stats = self
            .inner
            .collect_with_premark(kernel, heap, roots, Some(&premark));
        self.spare = premark.bitmap;
        stats
    }

    fn log(&self) -> &GcLog {
        &self.inner.log
    }

    fn pressure_degrade(&mut self) -> bool {
        self.inner.degrade.force_escalate().is_some()
    }

    fn write_barrier(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        core: CoreId,
        obj: ObjRef,
        field: u64,
    ) -> Result<Cycles, HeapError> {
        if !self.barrier_enabled {
            return Ok(Cycles::ZERO);
        }
        // Deletion barrier: load the value about to be overwritten.
        let (old, mut cost) = heap.read_ref(kernel, core, obj, field)?;
        if !old.is_null() && heap.contains(old.0) {
            // Mid-mark, already-marked old values need no log entry (the
            // standard SATB filter); idle-window entries are kept so the
            // next cycle's drain charge reflects real mutator churn.
            let log_it = match &self.marking {
                Some(m) => !m.bitmap.is_marked(old.header_va()),
                None => true,
            };
            if log_it {
                self.satb.log(old);
                cost += SATB_LOG_COST;
            }
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use svagc_heap::{HeapConfig, HeapVerifier, ObjShape};
    use svagc_kernel::Kernel;
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    fn setup(bytes: u64) -> (Kernel, Heap, RootSet) {
        let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 64 << 20);
        let heap = Heap::new(&mut k, Asid(1), HeapConfig::new(bytes)).unwrap();
        (k, heap, RootSet::new())
    }

    /// Build: root -> a -> b, plus garbage. Returns (a, b).
    fn linked_pair(
        k: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> (ObjRef, ObjRef) {
        let c0 = CoreId(0);
        let (a, _) = heap.alloc(k, c0, ObjShape::with_refs(2, 4)).unwrap();
        let (b, _) = heap.alloc(k, c0, ObjShape::with_refs(1, 4)).unwrap();
        heap.write_ref(k, c0, a, 0, b).unwrap();
        heap.write_data(k, c0, b, 1, 0, 0xB0B).unwrap();
        roots.push(a);
        for _ in 0..6 {
            heap.alloc(k, c0, ObjShape::data(16)).unwrap();
        }
        (a, b)
    }

    #[test]
    fn driver_path_matches_stw_bit_for_bit() {
        let (mut k1, mut h1, mut r1) = setup(8 << 20);
        linked_pair(&mut k1, &mut h1, &mut r1);
        let mut stw = Lisp2Collector::new(GcConfig::svagc(4));
        let s1 = stw.collect(&mut k1, &mut h1, &mut r1).unwrap();

        let (mut k2, mut h2, mut r2) = setup(8 << 20);
        linked_pair(&mut k2, &mut h2, &mut r2);
        let mut conc = ConcurrentCollector::new(Lisp2Collector::new(GcConfig::svagc(4)));
        let s2 = conc.collect(&mut k2, &mut h2, &mut r2).unwrap();

        let v = HeapVerifier::new();
        assert_eq!(
            v.content_hash(&k1, &mut h1),
            v.content_hash(&k2, &mut h2),
            "concurrent driver path must be bit-identical to STW"
        );
        assert_eq!(s1.live_objects, s2.live_objects);
        assert!(s2.concurrent_mark.get() > 0, "trace charged off-pause");
        assert!(
            s2.phases.mark < s1.phases.mark,
            "STW mark charge must shrink: {} !< {}",
            s2.phases.mark.get(),
            s1.phases.mark.get()
        );
        assert!(
            s2.phases.mark + s2.concurrent_mark >= s1.phases.mark,
            "work is moved, not deleted"
        );
    }

    #[test]
    fn lost_object_adversary_needs_the_barrier() {
        for barrier in [true, false] {
            let (mut k, mut heap, mut roots) = setup(8 << 20);
            let (a, b) = linked_pair(&mut k, &mut heap, &mut roots);
            let mut gc = ConcurrentCollector::new(Lisp2Collector::new(GcConfig::svagc(2)));
            gc.set_barrier_enabled(barrier);

            assert!(gc.begin_mark(&heap, &roots));
            // Initial mark saw only the roots: `a` is gray, `b` untouched.
            assert!(gc.is_marked(a));
            assert!(!gc.is_marked(b));
            // Hide `b` before the tracer visits `a`: move the only
            // reference into a root slot and null the field mid-mark (the
            // deletion barrier's moment).
            let rid = roots.push(b);
            let c0 = CoreId(0);
            let cost = gc.write_barrier(&mut k, &mut heap, c0, a, 0).unwrap();
            heap.write_ref(&mut k, c0, a, 0, ObjRef::NULL).unwrap();
            if barrier {
                assert!(cost.get() > 0 && gc.satb_pending() == 1);
            } else {
                assert_eq!(gc.satb_pending(), 0);
            }
            // Drop the root again: `b` is now hidden from any future scan
            // — only the SATB log remembers it was live at the snapshot.
            roots.set(rid, ObjRef::NULL);
            while !gc.mark_step(&mut k, &heap, 64).unwrap() {}
            let stats = gc.collect(&mut k, &mut heap, &mut roots).unwrap();
            if barrier {
                assert!(gc.is_marked(b) || stats.live_objects >= 2);
                // `b` survived: find it among the live objects by payload.
                let found = heap.objects_sorted().to_vec().iter().any(|&o| {
                    let (hdr, _) = heap.read_header(&mut k, c0, o).unwrap();
                    hdr.num_refs == 1
                        && heap.read_data(&mut k, c0, o, 1, 0).unwrap().0 == 0xB0B
                });
                assert!(found, "barrier on: hidden object survives the cycle");
                assert_eq!(stats.satb_logged, 1);
            } else {
                let found = heap.objects_sorted().to_vec().iter().any(|&o| {
                    let (hdr, _) = heap.read_header(&mut k, c0, o).unwrap();
                    hdr.num_refs == 1
                        && heap.read_data(&mut k, c0, o, 1, 0).unwrap().0 == 0xB0B
                });
                assert!(!found, "barrier off: the lost-object bug reproduces");
            }
        }
    }

    #[test]
    fn overlapping_begin_mark_is_rejected() {
        let (mut k, mut heap, mut roots) = setup(4 << 20);
        linked_pair(&mut k, &mut heap, &mut roots);
        let mut gc = ConcurrentCollector::new(Lisp2Collector::new(GcConfig::svagc(2)));
        assert!(gc.begin_mark(&heap, &roots));
        assert!(!gc.begin_mark(&heap, &roots), "abort-or-finish: no overlap");
        assert!(gc.marking());
        gc.collect(&mut k, &mut heap, &mut roots).unwrap();
        assert!(!gc.marking(), "collect finished the in-flight mark");
        assert!(gc.begin_mark(&heap, &roots), "idle again after the cycle");
    }

    #[test]
    fn satb_invariant_overwritten_refs_marked_or_logged() {
        // Property: between initial and final mark, every overwritten
        // in-heap reference is either already marked or in the SATB
        // buffer (never silently dropped).
        let (mut k, mut heap, mut roots) = setup(8 << 20);
        let c0 = CoreId(0);
        let mut objs = Vec::new();
        for i in 0..16u64 {
            let (o, _) = heap.alloc(&mut k, c0, ObjShape::with_refs(2, 2)).unwrap();
            if i % 3 == 0 {
                roots.push(o);
            }
            objs.push(o);
        }
        for i in 0..objs.len() {
            heap.write_ref(&mut k, c0, objs[i], 0, objs[(i + 5) % objs.len()])
                .unwrap();
        }
        let mut gc = ConcurrentCollector::new(Lisp2Collector::new(GcConfig::svagc(2)));
        assert!(gc.begin_mark(&heap, &roots));
        // Interleave partial marking with overwrites, checking the
        // invariant after every overwrite.
        let mut overwritten: Vec<ObjRef> = Vec::new();
        for &holder in &objs {
            gc.mark_step(&mut k, &heap, 2).unwrap();
            let (old, _) = heap.read_ref(&mut k, c0, holder, 0).unwrap();
            gc.write_barrier(&mut k, &mut heap, c0, holder, 0).unwrap();
            heap.write_ref(&mut k, c0, holder, 0, ObjRef::NULL).unwrap();
            if !old.is_null() && heap.contains(old.0) {
                overwritten.push(old);
            }
            for &o in &overwritten {
                let logged = gc.satb.entries().contains(&o);
                assert!(
                    gc.is_marked(o) || logged,
                    "overwritten ref {o:?} neither marked nor logged"
                );
            }
        }
        gc.collect(&mut k, &mut heap, &mut roots).unwrap();
    }

    #[test]
    fn idle_window_logging_feeds_drain_charge() {
        let (mut k, mut heap, mut roots) = setup(8 << 20);
        let (a, _b) = linked_pair(&mut k, &mut heap, &mut roots);
        let c0 = CoreId(0);
        let mut gc = ConcurrentCollector::new(Lisp2Collector::new(GcConfig::svagc(2)));
        // Idle-window overwrite: logged, drained (visit-only) at the next
        // cycle, charged into the final-mark portion of the pause.
        gc.write_barrier(&mut k, &mut heap, c0, a, 0).unwrap();
        heap.write_ref(&mut k, c0, a, 0, ObjRef::NULL).unwrap();
        assert_eq!(gc.satb_pending(), 1);
        let stats = gc.collect(&mut k, &mut heap, &mut roots).unwrap();
        assert_eq!(stats.satb_logged, 1);
        assert_eq!(gc.satb_pending(), 0);
        assert!(stats.phases.mark >= SATB_DRAIN_ENTRY_COST);
    }

    #[test]
    fn collect_from_idle_is_begin_mark_then_unbounded_step() {
        // Twin heaps, one idle-window overwrite each (`a -> b` nulled):
        // `collect` from idle must be exactly `begin_mark` + an unbounded
        // `mark_step` + `collect`, both charging the pre-snapshot entry.
        let c0 = CoreId(0);
        let run = |explicit: bool| {
            let (mut k, mut heap, mut roots) = setup(8 << 20);
            let (a, _b) = linked_pair(&mut k, &mut heap, &mut roots);
            let mut gc = ConcurrentCollector::new(Lisp2Collector::new(GcConfig::svagc(2)));
            gc.write_barrier(&mut k, &mut heap, c0, a, 0).unwrap();
            heap.write_ref(&mut k, c0, a, 0, ObjRef::NULL).unwrap();
            if explicit {
                assert!(gc.begin_mark(&heap, &roots));
                assert!(gc.mark_step(&mut k, &heap, usize::MAX).unwrap());
            }
            let stats = gc.collect(&mut k, &mut heap, &mut roots).unwrap();
            let hash = HeapVerifier::new().content_hash(&k, &mut heap);
            (format!("{stats:?}"), stats.satb_logged, hash)
        };
        let (implicit, explicit) = (run(false), run(true));
        assert_eq!(implicit, explicit);
        assert_eq!(explicit.1, 1, "the idle-window entry is charged");

        // An STW run over the same mutation sweeps `b`: equal hashes show
        // the pre-snapshot entry was not traced.
        let (mut k, mut heap, mut roots) = setup(8 << 20);
        let (a, _b) = linked_pair(&mut k, &mut heap, &mut roots);
        heap.write_ref(&mut k, c0, a, 0, ObjRef::NULL).unwrap();
        let mut stw = Lisp2Collector::new(GcConfig::svagc(2));
        stw.collect(&mut k, &mut heap, &mut roots).unwrap();
        assert_eq!(explicit.2, HeapVerifier::new().content_hash(&k, &mut heap));
    }
}
