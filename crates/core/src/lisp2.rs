//! The parallel LISP2 mark-compact collector with SwapVA integration.
//!
//! Four STW phases (paper §II), all operating on real simulated memory:
//!
//! 1. **Mark** — trace from roots, set header bits in a [`MarkBitmap`].
//! 2. **Forward** — `CALCNEWADD` (Algorithm 3): slide a compaction cursor
//!    over live objects in address order, page-aligning SwapVA candidates,
//!    and store each object's destination in its forwarding word.
//! 3. **Adjust** — rewrite every reference field (and root slot) to the
//!    target's forwarding address.
//! 4. **Compact** — `MOVEOBJECT` + `COMPACTOPT` (Algorithms 3/4): move each
//!    live object to its destination, by PTE swap when it is at least the
//!    threshold and both endpoints are page-aligned, else by memmove; under
//!    Algorithm 4 the shootdown is broadcast once and per-move flushes stay
//!    local.
//!
//! Execution is host-sequential in ascending address order (which is what
//! makes sliding safe) while cycle costs are attributed to simulated
//! workers by the cycle's `Schedule` — barrier phases or work packets,
//! see [`crate::packets`] for the two placement policies.

use crate::config::{GcConfig, SchedulerKind};
use crate::degrade::DegradeController;
use crate::error::GcError;
use crate::journal::{transact, Transactional};
use crate::packets::{BarrierPhases, BatchDeps, PacketKind, PacketScheduler, Schedule};
use crate::resilience::SwapPlan;
use crate::stats::{GcCycleStats, GcLog};
use crate::watchdog::GcWatchdog;
use svagc_heap::{Heap, HeapError, HeapVerifier, MarkBitmap, ObjHeader, ObjRef, RootSet, VerifyReport};
use svagc_kernel::{CoreId, FlushMode, Kernel, SwapBatch, SwapRequest, SwapVaOptions};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{VirtAddr, PAGE_SIZE};

/// A LISP2 mark-compact collector (SVAGC when `cfg.use_swapva`).
#[derive(Debug)]
pub struct Lisp2Collector {
    /// Active configuration.
    pub cfg: GcConfig,
    /// Per-cycle statistics log.
    pub log: GcLog,
    /// Degraded-mode circuit breaker carried across cycles: decides how
    /// conservatively the *next* cycle runs after aborts, and recovers
    /// toward normal after clean cycles.
    pub degrade: DegradeController,
    /// Cumulative GC virtual time: the trace-timeline position where the
    /// next cycle's events begin. Counts only GC work (phase makespans) —
    /// mutator execution between cycles is excluded, so traces from runs
    /// with different allocation rates stay comparable.
    timeline: Cycles,
    /// Working memory kept across cycles.
    scratch: Scratch,
}

/// A cycle's working memory, kept across cycles so that a steady-state
/// cycle allocates nothing in proportion to the heap. Each cycle starts by
/// clearing only what the previous one set.
#[derive(Debug, Default)]
struct Scratch {
    /// The mark bitmap of a cycle that ran its own mark phase.
    bitmap: MarkBitmap,
    /// The last attempt's move plan, in ascending source order.
    moves: Vec<PlannedMove>,
    /// Was `moves` planned against `bitmap` (rather than a premark's)?
    planned_on_own: bool,
}

impl Scratch {
    /// Unmark the last plan's sources in `bitmap` — the bitmap the plan
    /// was made against — and empty the plan. Every object a completed
    /// forward phase found marked has a planned move, so after a
    /// committed cycle this leaves `bitmap` empty.
    fn unmark_planned(moves: &mut Vec<PlannedMove>, bitmap: &mut MarkBitmap) {
        for m in moves.drain(..) {
            bitmap.unmark(m.src.header_va());
        }
    }
}

/// A pending move computed in the forward phase.
#[derive(Debug, Clone, Copy)]
struct PlannedMove {
    src: ObjRef,
    dst: ObjRef,
    header: ObjHeader,
}

/// A finished concurrent (SATB) mark handed to the STW cycle.
///
/// [`Lisp2Collector::collect_with_premark`] skips its own mark phase and
/// compacts against this bitmap instead: the trace already ran interleaved
/// with the mutator, so the pause charges only the short STW portion
/// (initial root scan plus the final SATB-buffer drain). The off-pause
/// trace cycles are charged as mutator interference, exactly like IPI
/// shootdown time.
#[derive(Debug, Clone)]
pub struct Premark {
    /// Marks for every object the cycle must keep. May be a strict
    /// superset of current reachability (SATB floating garbage), never a
    /// subset.
    pub bitmap: MarkBitmap,
    /// STW marking charge: initial-mark pause + final-mark SATB drain.
    pub stw_mark: Cycles,
    /// Trace cycles spent off-pause, charged as mutator interference.
    pub concurrent_mark: Cycles,
    /// SATB deletion-barrier entries drained at final mark.
    pub satb_logged: u64,
}

impl Transactional for Lisp2Collector {
    type Heap = Heap;

    fn journaled(heap: &mut Heap) -> &mut Heap {
        heap
    }

    fn degrade(&mut self) -> &mut DegradeController {
        &mut self.degrade
    }

    fn timeline(&self, _kernel: &Kernel) -> Cycles {
        self.timeline
    }

    fn set_timeline(&mut self, kernel: &mut Kernel, at: Cycles) {
        self.timeline = at;
        kernel.trace.set_base(at);
    }
}

/// Trace one object on `core`: read its header and reference fields and
/// mark every unmarked target `in_scope` into `found`, in field order.
/// Returns the cycles spent.
pub(crate) fn scan_object(
    kernel: &mut Kernel,
    heap: &Heap,
    core: CoreId,
    obj: ObjRef,
    bitmap: &mut MarkBitmap,
    in_scope: impl Fn(VirtAddr) -> bool,
    found: &mut Vec<ObjRef>,
) -> Result<Cycles, HeapError> {
    let (hdr, mut t) = heap.read_header(kernel, core, obj)?;
    for i in 0..hdr.num_refs as u64 {
        let (tgt, tc) = heap.read_ref(kernel, core, obj, i)?;
        t += tc;
        if !tgt.is_null() && in_scope(tgt.0) && bitmap.mark(tgt.header_va()) {
            found.push(tgt);
        }
    }
    Ok(t)
}

/// Mark the roots `in_scope` and return them as mark-stack entries
/// stamped with their discovery time. Root scanning is uncosted; a packet
/// schedule still orders it with a zero-cost root packet.
pub(crate) fn seed_roots<S: Schedule>(
    kernel: &mut Kernel,
    roots: &RootSet,
    bitmap: &mut MarkBitmap,
    sched: &mut S,
    in_scope: impl Fn(VirtAddr) -> bool,
) -> Vec<(ObjRef, Cycles)> {
    let root_scan = sched.zero_cost_packet(PacketKind::MarkRoots);
    let found_at = root_scan.map_or(Cycles::ZERO, |t| t.placement.start);
    let stack: Vec<(ObjRef, Cycles)> = roots
        .iter_live()
        .filter(|r| in_scope(r.0) && bitmap.mark(r.header_va()))
        .map(|r| (r, found_at))
        .collect();
    if let Some(t) = root_scan {
        sched.emit(&mut kernel.trace, &t, Cycles::ZERO, stack.len() as u64);
    }
    stack
}

/// Trace the transitive closure of `stack` through targets `in_scope`
/// (the whole heap for a full collection, eden for a scavenge). Each
/// entry carries its discovery time — the completion of the item that
/// found it; an item takes the top [`Schedule::MARK_GRAIN`] entries and
/// is ready when their discoverers are done.
pub(crate) fn trace_closure<S: Schedule>(
    kernel: &mut Kernel,
    heap: &Heap,
    bitmap: &mut MarkBitmap,
    sched: &mut S,
    stack: &mut Vec<(ObjRef, Cycles)>,
    kind: PacketKind,
    in_scope: impl Fn(VirtAddr) -> bool,
) -> Result<(), HeapError> {
    let grain = S::MARK_GRAIN;
    let mut discovered: Vec<ObjRef> = Vec::new();
    while !stack.is_empty() {
        let from = stack.len() - stack.len().min(grain);
        let ready = stack[from..]
            .iter()
            .map(|&(_, d)| d)
            .fold(Cycles::ZERO, Cycles::max);
        let ticket = sched.begin(kind, ready);
        let core = sched.core(&ticket);
        let mut t = Cycles::ZERO;
        for &(obj, _) in &stack[from..] {
            t += scan_object(kernel, heap, core, obj, bitmap, &in_scope, &mut discovered)?;
        }
        let items = (stack.len() - from) as u64;
        stack.truncate(from);
        let done = sched.finish(ticket, t);
        sched.emit(&mut kernel.trace, &ticket, t, items);
        stack.extend(discovered.drain(..).map(|d| (d, done)));
    }
    Ok(())
}

impl Lisp2Collector {
    /// A collector with the given configuration.
    ///
    /// ```
    /// use svagc_core::{GcConfig, Lisp2Collector};
    /// use svagc_heap::{Heap, HeapConfig, ObjShape, RootSet};
    /// use svagc_kernel::{CoreId, Kernel};
    /// use svagc_metrics::MachineConfig;
    /// use svagc_vmem::Asid;
    ///
    /// let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 16 << 20);
    /// let mut heap = Heap::new(&mut k, Asid(1), HeapConfig::new(8 << 20)).unwrap();
    /// let mut roots = RootSet::new();
    ///
    /// // One surviving large object among garbage.
    /// for i in 0..10u64 {
    ///     let (obj, _) = heap.alloc(&mut k, CoreId(0), ObjShape::data_bytes(64 << 10)).unwrap();
    ///     if i == 5 { roots.push(obj); }
    /// }
    ///
    /// let mut gc = Lisp2Collector::new(GcConfig::svagc(4));
    /// let stats = gc.collect(&mut k, &mut heap, &mut roots).unwrap();
    /// assert_eq!(stats.live_objects, 1);
    /// assert_eq!(stats.dead_objects, 9);
    /// assert_eq!(stats.swapped_objects, 1); // moved by PTE swap
    /// ```
    pub fn new(cfg: GcConfig) -> Lisp2Collector {
        Lisp2Collector {
            cfg,
            log: GcLog::new(),
            degrade: DegradeController::new(cfg.degrade),
            timeline: Cycles::ZERO,
            scratch: Scratch::default(),
        }
    }

    /// Clear a finished premark's bitmap for reuse: unmark the last
    /// cycle's planned sources, then [`MarkBitmap::reset`] it (which
    /// clears any mark an aborted attempt left). Afterwards the bitmap
    /// equals `MarkBitmap::new(base, words)`.
    pub(crate) fn recycle_bitmap(&mut self, bitmap: &mut MarkBitmap, base: VirtAddr, words: u64) {
        let scratch = &mut self.scratch;
        if !scratch.planned_on_own {
            Scratch::unmark_planned(&mut scratch.moves, bitmap);
        }
        bitmap.reset(base, words);
    }

    /// Run one full STW collection as a **transaction**. Returns this
    /// cycle's statistics (also appended to [`Lisp2Collector::log`]).
    ///
    /// Every attempt is bracketed by a
    /// [`CompactionJournal`](crate::journal::CompactionJournal): on any error
    /// the attempt's swaps, copies, and metadata writes are rolled back so
    /// the heap is bit-for-bit the pre-GC heap. Operational errors (an
    /// unrecoverable SwapVA fault, a watchdog deadline) then escalate the
    /// degraded-mode ladder and retry within this call; structural errors
    /// propagate after rollback. The controller's state persists across
    /// calls, so cycles after a recovery-by-degradation keep running
    /// degraded until probation is served.
    pub fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        self.collect_with_premark(kernel, heap, roots, None)
    }

    /// [`Lisp2Collector::collect`], optionally seeded with a finished
    /// concurrent mark. With `premark == None` this is byte-for-byte the
    /// plain STW collection; with `Some`, the mark phase is skipped and the
    /// cycle compacts against the premark bitmap (see [`Premark`]). The
    /// premark survives aborts: every retry attempt reads the same
    /// bitmap, and the rollback restores the pre-GC addresses it
    /// describes.
    pub fn collect_with_premark(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
        premark: Option<&Premark>,
    ) -> Result<GcCycleStats, GcError> {
        // The concurrent trace happened before this pause on the virtual
        // timeline; emit its span once (attempt retries restart after it).
        if let Some(pm) = premark {
            if pm.concurrent_mark.get() > 0 {
                kernel.trace.span_abs(
                    TraceKind::ConcurrentMarkPhase,
                    self.timeline,
                    pm.concurrent_mark,
                    0,
                    &[("satb_entries", pm.satb_logged)],
                );
                self.timeline += pm.concurrent_mark;
                kernel.trace.set_base(self.timeline);
            }
        }
        let user_cfg = self.cfg;
        let attempt = |gc: &mut Self, kernel: &mut Kernel, heap: &mut Heap, roots: &mut RootSet| {
            let mut stats = GcCycleStats::default();
            // The phase methods read `self.cfg`; swap in the (possibly
            // degraded) effective config for the duration of the attempt.
            let effective = gc.degrade.apply(&user_cfg);
            gc.cfg = effective;
            let cores = kernel.cores();
            let threads = effective.gc_threads.min(cores).max(1);
            let (base, origin) = (effective.core_base, gc.timeline);
            let outcome = match effective.scheduler {
                SchedulerKind::Barrier => {
                    let stealing = effective.work_stealing;
                    let sched = BarrierPhases::new(threads, cores, base, stealing, origin);
                    gc.try_collect(sched, kernel, heap, roots, &mut stats, premark)
                }
                SchedulerKind::Packets => {
                    let sched = PacketScheduler::new(threads, cores, base, origin);
                    gc.try_collect(sched, kernel, heap, roots, &mut stats, premark)
                }
            };
            gc.cfg = user_cfg;
            // A failed attempt burned the phases it completed.
            outcome.map(|()| stats).map_err(|e| (e, stats.phases.total()))
        };
        let (mut stats, retries) =
            transact(self, kernel, heap, roots, user_cfg.verify_phases, attempt)?;
        stats.aborts = retries.aborts;
        stats.watchdog_expiries = retries.watchdog_expiries;
        stats.rollback_pages = retries.rollback_pages;
        stats.abort_overhead = retries.overhead;
        stats.mode = retries.mode;
        self.log.push(stats);
        Ok(stats)
    }

    /// One collection attempt under placement policy `S` (no transaction
    /// bracketing — `collect` owns that). Partial phase makespans
    /// accumulate into `stats` even on error, so an abort can account the
    /// time the attempt burned.
    ///
    /// Functional effects execute host-sequentially in heap order under
    /// either policy; the [`Schedule`] decides which core runs each item
    /// and when. Under packets the buckets overlap through their
    /// dependency edges:
    ///
    /// * **mark-roots** → **mark-chunk**: a chunk is ready when the
    ///   packets that discovered its objects complete.
    /// * **forward-range**: ranges are mutually independent once marking
    ///   is done (the destination cursor is a prefix sum of live sizes a
    ///   real implementation computes in a cheap size-scan pass; see
    ///   DESIGN.md §13), so every range is ready at the mark milestone.
    /// * **adjust-range / adjust-roots**: ready at the forward milestone.
    /// * **compact-batch**: ready when (a) forwarding is done and (b)
    ///   every adjust packet that touched the batch's region — fields it
    ///   copies, forwarding words it swaps away or overwrites — has
    ///   completed. Workers that finish adjusting early therefore flow
    ///   straight into compaction while the slowest adjust packet is
    ///   still running — the overlap the four global barriers forbid.
    fn try_collect<S: Schedule>(
        &mut self,
        mut sched: S,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
        stats: &mut GcCycleStats,
        premark: Option<&Premark>,
    ) -> Result<(), GcError> {
        let cycle_start = self.timeline;
        let cores = kernel.cores();
        let threads = sched.workers();
        let mut watchdog = GcWatchdog::new(self.cfg.deadline_cycles);
        let total_objects = heap.objects_sorted().len() as u64;
        let verifier = HeapVerifier::new();
        // The previous attempt's plan is stale. When it was made against
        // the own bitmap, unmarking its sources clears that bitmap.
        let scratch = &mut self.scratch;
        if scratch.planned_on_own {
            Scratch::unmark_planned(&mut scratch.moves, &mut scratch.bitmap);
        }
        scratch.moves.clear();
        scratch.planned_on_own = premark.is_none();
        let faults_before = kernel.perf.swap_faults_injected;

        // ---- Phase I: mark -------------------------------------------
        let bitmap = match premark {
            Some(pm) => {
                // The trace already ran off-pause; charge only the STW
                // portion here. The SATB bitmap may strictly contain the
                // snapshot's reachable set (floating garbage), so the
                // exact-reachability verify_marks check does not apply —
                // forwarding and post-compact verification still run.
                stats.phases.mark = pm.stw_mark;
                stats.concurrent_mark = pm.concurrent_mark;
                stats.satb_logged = pm.satb_logged;
                stats.interference += pm.concurrent_mark;
                &pm.bitmap
            }
            None => {
                let bitmap = &mut scratch.bitmap;
                bitmap.reset(heap.base(), heap.extent_words());
                // Roots outside this heap (e.g. nursery objects during an
                // old-generation-only collection) are not ours to trace.
                let in_heap = |va: VirtAddr| heap.contains(va);
                let mut stack = seed_roots(kernel, roots, bitmap, &mut sched, in_heap);
                let kind = PacketKind::MarkChunk;
                trace_closure(kernel, heap, bitmap, &mut sched, &mut stack, kind, in_heap)?;
                stats.phases.mark = sched.milestone();
                &scratch.bitmap
            }
        };
        let t_mark = stats.phases.mark;
        watchdog.check("mark", t_mark)?;
        if self.cfg.verify_phases && premark.is_none() {
            Self::require_clean(verifier.verify_marks(kernel, heap, bitmap, roots), stats)?;
        }

        // ---- Phase II: forwarding address calculation ----------------
        sched.open_phase(t_mark, threads);
        let mut comp_pnt = heap.base();
        let moves = &mut scratch.moves;
        let (_, objects) = heap.space_and_objects();
        for (s, e) in sched.ranges(objects.len(), |_| true) {
            let ticket = sched.begin(PacketKind::ForwardRange, t_mark);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            for &obj in &objects[s..e] {
                // Heap parsing touches every header, live or dead.
                let (hdr, ht) = heap.read_header(kernel, core, obj)?;
                t += ht;
                if bitmap.is_marked(obj.header_va()) {
                    // IFSWAPALIGN before and after (Algorithm 3 lines 22/25).
                    if hdr.is_large() {
                        comp_pnt = comp_pnt.align_up();
                    }
                    let dst = ObjRef(comp_pnt);
                    comp_pnt = comp_pnt + hdr.size_bytes();
                    if hdr.is_large() {
                        comp_pnt = comp_pnt.align_up();
                    }
                    t += kernel.write_word(heap.space(), core, obj.forwarding_va(), dst.0.get())?;
                    stats.live_bytes += hdr.size_bytes();
                    moves.push(PlannedMove {
                        src: obj,
                        dst,
                        header: hdr,
                    });
                }
            }
            sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
        }
        let new_top = comp_pnt;
        let moves = &*moves;
        let t_fwd = sched.milestone();
        stats.phases.forward = t_fwd.saturating_sub(t_mark);
        watchdog.check("forward", stats.phases.forward)?;
        if self.cfg.verify_phases {
            Self::require_clean(verifier.verify_forwarding(kernel, heap, bitmap), stats)?;
        }

        // ---- Phase III: adjust pointers ------------------------------
        // The compaction partition is needed now: with overlapping
        // buckets, every adjust access records the batch it constrains.
        let mut deps = S::OVERLAPPING.then(|| {
            let batches: Vec<(usize, usize)> = sched.ranges(moves.len(), |_| true).collect();
            let dst_spans = batches
                .iter()
                .map(|&(s, e)| {
                    let last = &moves[e - 1];
                    (moves[s].dst.0.get(), last.dst.0.get() + last.header.size_bytes())
                })
                .collect();
            BatchDeps::new(moves.len(), &batches, dst_spans)
        });
        // The move whose source object sits at `va` (moves are in
        // ascending source order), if any.
        let move_at = |va: VirtAddr| moves.binary_search_by(|m| m.src.0.cmp(&va)).ok();
        let mut conflicts: Vec<usize> = Vec::new();
        sched.open_phase(t_fwd, threads);
        for (s, e) in sched.ranges(moves.len(), |i| moves[i].header.num_refs > 0) {
            let ticket = sched.begin(PacketKind::AdjustRange, t_fwd);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            for (idx, m) in moves.iter().enumerate().take(e).skip(s) {
                if m.header.num_refs == 0 {
                    continue;
                }
                // Field writes at the object's source: its batch must not
                // copy the data before they land.
                if let Some(d) = &deps {
                    conflicts.push(d.batch_of(idx));
                }
                for i in 0..m.header.num_refs as u64 {
                    let (tgt, tc) = heap.read_ref(kernel, core, m.src, i)?;
                    t += tc;
                    // Out-of-heap targets (nursery objects) don't move here.
                    if tgt.is_null() || !heap.contains(tgt.0) {
                        continue;
                    }
                    let (fwd, fc) = kernel.read_word(heap.space(), core, tgt.forwarding_va())?;
                    t += fc;
                    t += heap.write_ref(kernel, core, m.src, i, ObjRef(VirtAddr(fwd)))?;
                    if let Some(d) = &deps {
                        d.note_forwarding_read(move_at(tgt.0), tgt, &mut conflicts);
                    }
                }
            }
            let done = sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
            if let Some(d) = &mut deps {
                d.fold(&mut conflicts, done);
            }
        }
        {
            // Root slots: the VM thread's scan.
            let ticket = sched.begin_roots(PacketKind::AdjustRoots, t_fwd);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            let mut slots = 0u64;
            for slot in roots.slots_mut() {
                if slot.is_null() || !heap.contains(slot.0) {
                    continue;
                }
                let (fwd, fc) = kernel.read_word(heap.space(), core, slot.forwarding_va())?;
                t += fc;
                if let Some(d) = &deps {
                    d.note_forwarding_read(move_at(slot.0), *slot, &mut conflicts);
                }
                *slot = ObjRef(VirtAddr(fwd));
                slots += 1;
            }
            let done = sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, slots);
            if let Some(d) = &mut deps {
                d.fold(&mut conflicts, done);
            }
        }
        let t_adj = sched.milestone();
        stats.phases.adjust = t_adj.saturating_sub(t_fwd);
        watchdog.check("adjust", stats.phases.adjust)?;
        if self.cfg.verify_phases {
            // Adjust rewrites fields but must leave the move plan intact.
            Self::require_clean(verifier.verify_forwarding(kernel, heap, bitmap), stats)?;
        }

        // ---- Phase IV: compaction ------------------------------------
        let compact_workers = self
            .cfg
            .compact_threads
            .unwrap_or(threads)
            .min(cores)
            .max(1);
        sched.open_phase(t_adj, compact_workers);
        // Kernel-side trace events (SwapVA spans, shootdowns, fallbacks)
        // are positioned relative to the tracer base; anchor it where the
        // compact phase begins on the cumulative GC timeline so they nest
        // under this cycle's CompactPhase span.
        kernel.trace.set_base(cycle_start + t_adj);
        let threshold_bytes = heap.threshold_pages() * PAGE_SIZE;
        // Algorithm 4's local-only flush is sound for exactly one pinned
        // compactor: every translation it caches lives on the core it
        // flushes. With parallel movers that precondition fails — worker X
        // reads a forwarding word, worker Y's batch remaps the page with a
        // local flush on Y, and X's next read translates through the dead
        // entry (the stale-TLB oracle catches this on real workloads).
        // Multi-worker compaction therefore uses access-tracked shootdowns:
        // each swap IPIs precisely the cores still holding the ASID — a
        // subset of the GC workers once the prologue broadcast has run, so
        // other JVMs' cores are still never interrupted. Overlapping
        // buckets are always multi-worker in that sense: another worker
        // may still be adjusting (and translating) while a batch swaps.
        let flush_mode = if !self.cfg.pinned_compaction {
            FlushMode::GlobalBroadcast
        } else if S::OVERLAPPING || sched.workers() > 1 {
            FlushMode::Tracked
        } else {
            FlushMode::LocalOnly
        };
        let plan = SwapPlan {
            opts: SwapVaOptions {
                pmd_cache: self.cfg.pmd_cache,
                overlap_opt: self.cfg.overlap_opt,
                flush: flush_mode,
            },
            aggregated: self.cfg.aggregation.is_some(),
            retry: &self.cfg.retry,
        };

        // Will any move actually go through SwapVA this cycle? The pinning
        // protocol's broadcasts only pay for themselves when PTEs change.
        let any_swaps = self.cfg.use_swapva
            && moves.iter().any(|m| {
                m.src != m.dst
                    && m.header.size_bytes() >= threshold_bytes
                    && m.src.0.is_page_aligned()
                    && m.dst.0.is_page_aligned()
            });

        if self.cfg.pinned_compaction && any_swaps {
            // Algorithm 4 prologue: pin workers, broadcast the shootdown
            // once so every core sees fresh mappings from here on.
            let asid = heap.space().asid();
            let pin_cost = kernel.pin(sched.worker_core(0));
            let (bcast, intf) = kernel.flush_asid_all_cores(sched.worker_core(0), asid);
            stats.phases.shootdown += pin_cost + bcast;
            stats.interference += intf.0;
            // The broadcast is infallible by signature; a seeded mid-IPI
            // crash latches instead, and the phase must stop here.
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }

        // Aggregation buffer: a run of consecutive swap-eligible moves,
        // flushed as one syscall (Fig. 5b). Any intervening memmove flushes
        // it first to preserve ascending-order safety. Without overlap it
        // spans the whole phase; a packet drains it before finishing.
        //
        // Intra-bucket sliding safety is the assumption the paper's
        // parallel LISP2 makes for its movers (ascending-order claiming);
        // what the packet edges add is the *finer cross-bucket*
        // constraint — a batch may not run until every adjust packet that
        // read or wrote its region is done — which the barrier policy can
        // only express as a global phase barrier.
        let mut batch = SwapBatch::new(
            self.cfg.aggregation.unwrap_or(1),
            8 * heap.threshold_pages().max(1),
        );
        for (bi, (s, e)) in sched.ranges(moves.len(), |_| true).enumerate() {
            let ready = deps.as_ref().map_or(t_fwd, |d| d.ready(bi, t_fwd));
            let ticket = sched.begin(PacketKind::CompactBatch, ready);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            for m in &moves[s..e] {
                // Kernel events for this move start at the item's current
                // position on its worker's lane.
                kernel.trace.set_base(sched.lane(&ticket) + t);
                // Read the forwarding word at the source (Algorithm 4 line 9).
                let (_, fc) = kernel.read_word(heap.space(), core, m.src.forwarding_va())?;
                t += fc;
                kernel.trace.advance(fc);
                let size = m.header.size_bytes();
                if m.src == m.dst {
                    continue;
                }
                let pages = size.div_ceil(PAGE_SIZE);
                let swappable = self.cfg.use_swapva
                    && pages >= heap.threshold_pages()
                    && m.src.0.is_page_aligned()
                    && m.dst.0.is_page_aligned()
                    && size >= threshold_bytes;
                let overlap_unsupported = !self.cfg.overlap_opt
                    && m.src.0.get().abs_diff(m.dst.0.get()) < pages * PAGE_SIZE;
                let by_swap = swappable && !overlap_unsupported;
                let flush_now = if by_swap {
                    stats.swapped_objects += 1;
                    stats.swapped_bytes += size;
                    let req = SwapRequest {
                        a: m.src.0,
                        b: m.dst.0,
                        pages,
                    };
                    batch.push(req, size)
                } else {
                    // memmove path: drain pending swaps first (ordering).
                    true
                };
                if flush_now {
                    let (c, intf) =
                        flush_batch(kernel, heap, &mut batch, &plan, core, stats)?;
                    t += c;
                    sched.stall(intf);
                    // Mid-phase deadline check: the watchdog can abort a
                    // runaway compaction between batches, not only at
                    // phase barriers.
                    watchdog.check("compact", sched.elapsed(&ticket, t, t_adj))?;
                }
                if !by_swap {
                    t += kernel.memmove(heap.space(), core, m.src.0, m.dst.0, size)?;
                    stats.memmove_bytes += size;
                }
                stats.moved_objects += 1;
                kernel.perf.objects_moved += 1;
            }
            if S::OVERLAPPING {
                // A packet drains its own batch and owns its destinations'
                // forwarding-word clears: no later batch reads below its
                // own destination cursor, so the clears need no barrier.
                let (c, intf) = flush_batch(kernel, heap, &mut batch, &plan, core, stats)?;
                t += c;
                sched.stall(intf);
                for m in &moves[s..e] {
                    t += kernel.write_word(heap.space(), core, m.dst.forwarding_va(), 0)?;
                }
            }
            sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
        }
        if !S::OVERLAPPING {
            // Drain the tail of the phase-wide batch.
            if !batch.is_empty() {
                let ticket = sched.begin_balanced(PacketKind::CompactBatch);
                let core = sched.core(&ticket);
                kernel.trace.set_base(sched.lane(&ticket));
                let (t, intf) = flush_batch(kernel, heap, &mut batch, &plan, core, stats)?;
                sched.finish(ticket, t);
                sched.stall(intf);
            }
            // Workers resynchronize at the phase barrier: each flushes its
            // own TLB so the forwarding-word clears below cannot read
            // mappings staled by *other* workers' swaps. Tracked swaps
            // already IPI every holder, so only the local-only protocol
            // needs the barrier flush.
            if any_swaps && flush_mode == FlushMode::LocalOnly {
                let asid = heap.space().asid();
                let mut worst = Cycles::ZERO;
                for w in 0..sched.workers() {
                    worst = worst.max(kernel.flush_tlb_local(sched.worker_core(w), asid));
                }
                sched.charge_all(worst);
            }
            // Clear forwarding words at the destinations.
            for m in moves {
                let ticket = sched.begin_balanced(PacketKind::CompactBatch);
                let core = sched.core(&ticket);
                let t = kernel.write_word(heap.space(), core, m.dst.forwarding_va(), 0)?;
                sched.finish(ticket, t);
            }
        }
        let t_end = sched.milestone();

        if self.cfg.pinned_compaction && any_swaps {
            // Algorithm 4 epilogue: unpin; mutators get fresh TLBs via one
            // final broadcast (the post-GC cost §V-C mentions).
            kernel.trace.set_base(cycle_start + t_end);
            let asid = heap.space().asid();
            let (bcast, intf) = kernel.flush_asid_all_cores(sched.worker_core(0), asid);
            let unpin = kernel.unpin();
            stats.phases.shootdown += bcast + unpin;
            stats.interference += intf.0;
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }
        kernel.perf.objects_swapped += stats.swapped_objects;
        kernel.perf.gc_cycles += 1;
        stats.phases.compact = t_end.saturating_sub(t_adj);
        watchdog.check("compact", stats.phases.compact)?;

        // Publish the new heap layout.
        stats.live_objects = moves.len() as u64;
        stats.dead_objects = total_objects - stats.live_objects;
        heap.complete_gc(moves.iter().map(|m| m.dst), new_top);
        if self.cfg.verify_phases {
            Self::require_clean(verifier.verify_post_compact(kernel, heap, roots), stats)?;
        }
        stats.faults_injected = kernel.perf.swap_faults_injected - faults_before;
        let sched_stats = sched.stats();
        stats.sched_packets = sched_stats.packets;
        stats.sched_steals = sched_stats.steals;
        stats.sched_steal_cycles = sched_stats.steal_cycles;

        self.emit_phase_spans(kernel, cycle_start, stats, total_objects);
        Ok(())
    }

    /// Emit the cycle's phase spans on the cumulative GC timeline (tid 0 =
    /// the VM/GC coordinator lane; per-core kernel events carry their own
    /// tids) and advance the timeline past this cycle. Under the packet
    /// scheduler the four "phases" are the bucket milestone deltas, so the
    /// same additive span layout holds.
    fn emit_phase_spans(
        &mut self,
        kernel: &mut Kernel,
        cycle_start: Cycles,
        stats: &GcCycleStats,
        total_objects: u64,
    ) {
        let mut at = cycle_start;
        kernel.trace.span_abs(
            TraceKind::MarkPhase,
            at,
            stats.phases.mark,
            0,
            &[("objects", total_objects)],
        );
        at += stats.phases.mark;
        kernel.trace.span_abs(
            TraceKind::ForwardPhase,
            at,
            stats.phases.forward,
            0,
            &[("live", stats.live_objects), ("live_bytes", stats.live_bytes)],
        );
        at += stats.phases.forward;
        kernel.trace.span_abs(TraceKind::AdjustPhase, at, stats.phases.adjust, 0, &[]);
        at += stats.phases.adjust;
        kernel.trace.span_abs(
            TraceKind::CompactPhase,
            at,
            stats.phases.compact,
            0,
            &[
                ("moved", stats.moved_objects),
                ("swapped", stats.swapped_objects),
                ("memmove_bytes", stats.memmove_bytes),
            ],
        );
        kernel.trace.span_abs(
            TraceKind::GcCycle,
            cycle_start,
            stats.phases.total(),
            0,
            &[("live", stats.live_objects), ("dead", stats.dead_objects)],
        );
        self.timeline = cycle_start + stats.phases.total();
        kernel.trace.set_base(self.timeline);
    }

    /// Turn a failed verification pass into a [`GcError::Corruption`] abort.
    fn require_clean(report: VerifyReport, stats: &mut GcCycleStats) -> Result<(), GcError> {
        if report.is_clean() {
            Ok(())
        } else {
            stats.verify_violations += report.violations.len() as u64;
            Err(GcError::corruption(&report))
        }
    }
}

/// Flush the aggregation buffer through `plan`, marking each non-empty
/// flush with a `BatchFlush` trace instant. With aggregation disabled the
/// buffer never exceeds one request, so this degenerates to separated
/// calls.
fn flush_batch(
    kernel: &mut Kernel,
    heap: &mut Heap,
    batch: &mut SwapBatch,
    plan: &SwapPlan,
    core: CoreId,
    stats: &mut GcCycleStats,
) -> Result<(Cycles, Cycles), GcError> {
    if !batch.is_empty() {
        kernel.trace.instant(
            TraceKind::BatchFlush,
            Cycles::ZERO,
            core.0 as u32,
            &[("requests", batch.len() as u64), ("pages", batch.pages())],
        );
    }
    plan.flush(kernel, heap.space_mut(), batch, core, stats)
}
