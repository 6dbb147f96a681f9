//! Minor GC: a copying scavenge of the nursery with SwapVA-accelerated
//! promotion — Table I's second row made concrete.
//!
//! Phases (all STW, like HotSpot's parallel scavenge):
//!
//! 1. **Young roots** — root slots pointing into eden, plus old-generation
//!    reference fields found by scanning the dirty cards of the remembered
//!    set.
//! 2. **Trace** — mark the transitively live *young* subgraph (references
//!    into the old generation are not followed; old objects don't move).
//! 3. **Forward** — assign each survivor a promotion address at the old
//!    generation's cursor, `IFSWAPALIGN`-aligned for large objects.
//! 4. **Adjust** — rewrite young-pointing references (roots, dirty old
//!    fields, and survivors' own fields) to the forwarding addresses.
//! 5. **Promote** — move each survivor: by **SwapVA** when it is at least
//!    the threshold and both endpoints are page-aligned (requests
//!    **aggregated** per Fig. 5 — eden and old space are disjoint, so the
//!    overlap machinery is never needed, exactly as Table I says), else by
//!    memmove. Then reset eden; the remembered set is clean by
//!    construction (no young objects remain).

use crate::config::{GcConfig, SchedulerKind};
use crate::degrade::DegradeController;
use crate::error::GcError;
use crate::journal::{transact, Transactional};
use crate::lisp2::{seed_roots, trace_closure};
use crate::packets::{BarrierPhases, BatchDeps, PacketKind, PacketScheduler, Schedule};
use crate::resilience::SwapPlan;
use crate::watchdog::GcWatchdog;
use svagc_heap::{GenHeap, Heap, HeapError, MarkBitmap, ObjRef, RootSet, CARD_BYTES};
use svagc_kernel::{FlushMode, Kernel, SwapBatch, SwapRequest, SwapVaOptions};
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{VirtAddr, PAGE_SIZE};

/// Statistics of one scavenge.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinorStats {
    /// STW pause (cycles), including time lost to aborted attempts and
    /// their rollbacks.
    pub pause: Cycles,
    /// Young objects found live and promoted.
    pub promoted_objects: u64,
    /// Bytes promoted.
    pub promoted_bytes: u64,
    /// Of those objects, promoted by PTE swap.
    pub swapped_objects: u64,
    /// Young objects reclaimed with eden.
    pub dead_young: u64,
    /// Dirty cards scanned.
    pub scanned_cards: u64,
    /// Old objects inspected via dirty cards, deduped: an object spanning
    /// several dirty cards is scanned (and charged) exactly once.
    pub scanned_objects: u64,
    /// IPI interference pushed onto other cores.
    pub interference: Cycles,
    /// Transient-fault retries during promotion swaps.
    pub swap_retries: u64,
    /// Promotions demoted from SwapVA to memmove by permanent faults.
    pub swap_fallback_objects: u64,
    /// Aggregated promotion batches split by a mid-batch fault.
    pub batch_splits: u64,
    /// Attempts of this scavenge that aborted and rolled back before the
    /// committed attempt.
    pub aborts: u64,
    /// Pages rewritten by the aborted attempts' rollbacks.
    pub rollback_pages: u64,
    /// Degradation level the committed attempt ran at (0 = normal).
    pub mode: u8,
}

/// A survivor's promotion: source in eden, destination in old space.
struct Promo {
    src: ObjRef,
    dst: ObjRef,
    size: u64,
    large: bool,
}

/// The minor collector.
#[derive(Debug)]
pub struct MinorGc {
    /// Active configuration.
    pub cfg: GcConfig,
    /// Per-scavenge log.
    pub log: Vec<MinorStats>,
    /// Degraded-mode circuit breaker carried across scavenges.
    pub degrade: DegradeController,
    /// The eden mark bitmap, kept across scavenges. A scavenge unmarks
    /// its survivors once it has chosen them, so the next one resets it
    /// in O(1).
    eden_marks: MarkBitmap,
}

impl Transactional for MinorGc {
    type Heap = GenHeap;

    fn journaled(gh: &mut GenHeap) -> &mut Heap {
        &mut gh.old
    }

    fn degrade(&mut self) -> &mut DegradeController {
        &mut self.degrade
    }

    /// Scavenges stack on the trace timeline itself.
    fn timeline(&self, kernel: &Kernel) -> Cycles {
        kernel.trace.base()
    }

    fn set_timeline(&mut self, kernel: &mut Kernel, at: Cycles) {
        kernel.trace.set_base(at);
    }
}

impl MinorGc {
    /// A scavenger with the given configuration: the same [`GcConfig`]
    /// the full collector takes, shaped by the same degraded-mode ladder
    /// ([`DegradeController::apply`]). The scavenger does not read:
    ///
    /// - `overlap_opt` — eden and old space are disjoint, so Algorithm 2
    ///   never applies to a promotion (Table I);
    /// - `pinned_compaction` — promotion always issues one global flush,
    ///   then local-only flushes (Algorithm 4);
    /// - `work_stealing` and `compact_threads` — scavenger workers always
    ///   balance greedily across `gc_threads`;
    /// - `verify_phases` — a scavenge runs no post-phase verifier.
    ///
    /// ```
    /// use svagc_core::{GcConfig, MinorGc};
    /// use svagc_heap::{GenHeap, ObjShape, RootSet};
    /// use svagc_kernel::{CoreId, Kernel};
    /// use svagc_metrics::MachineConfig;
    /// use svagc_vmem::Asid;
    ///
    /// let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 32 << 20);
    /// let mut gh = GenHeap::new(&mut k, Asid(1), 16 << 20, 4 << 20, 10).unwrap();
    /// let mut roots = RootSet::new();
    ///
    /// let (live, _) = gh.alloc_young(&mut k, CoreId(0), ObjShape::data(32)).unwrap();
    /// roots.push(live);
    /// gh.alloc_young(&mut k, CoreId(0), ObjShape::data(32)).unwrap(); // garbage
    ///
    /// let mut minor = MinorGc::new(GcConfig::svagc(2));
    /// let stats = minor.collect(&mut k, &mut gh, &mut roots).unwrap();
    /// assert_eq!(stats.promoted_objects, 1);
    /// assert_eq!(stats.dead_young, 1);
    /// assert!(gh.in_old(roots.iter_live().next().unwrap().0));
    /// ```
    pub fn new(cfg: GcConfig) -> MinorGc {
        MinorGc {
            cfg,
            log: Vec::new(),
            degrade: DegradeController::new(cfg.degrade),
            eden_marks: MarkBitmap::default(),
        }
    }

    /// Run one scavenge as a **transaction**: on any error the attempt's
    /// promotions and metadata writes are rolled back (eden and the
    /// remembered set are only touched on success), operational errors
    /// escalate the degraded-mode ladder and retry within this call, and
    /// structural errors — notably [`HeapError::NeedGc`], which the caller
    /// must answer with a full collection — propagate after rollback.
    pub fn collect(
        &mut self,
        kernel: &mut Kernel,
        gh: &mut GenHeap,
        roots: &mut RootSet,
    ) -> Result<MinorStats, GcError> {
        let user_cfg = self.cfg;
        let attempt = |gc: &mut Self, kernel: &mut Kernel, gh: &mut GenHeap, roots: &mut RootSet| {
            let effective = gc.degrade.apply(&user_cfg);
            gc.cfg = effective;
            // Scavenger workers always balance greedily.
            let cores = kernel.cores();
            let threads = effective.gc_threads.min(cores).max(1);
            let (base, origin) = (effective.core_base, kernel.trace.base());
            // A failed attempt burned everything its schedule placed.
            let outcome = match effective.scheduler {
                SchedulerKind::Barrier => {
                    let mut sched = BarrierPhases::new(threads, cores, base, true, origin);
                    let r = gc.try_collect(&mut sched, kernel, gh, roots);
                    r.map_err(|e| (e, sched.milestone()))
                }
                SchedulerKind::Packets => {
                    let mut sched = PacketScheduler::new(threads, cores, base, origin);
                    let r = gc.try_collect(&mut sched, kernel, gh, roots);
                    r.map_err(|e| (e, sched.milestone()))
                }
            };
            gc.cfg = user_cfg;
            outcome
        };
        let (mut stats, retries) = transact(self, kernel, gh, roots, false, attempt)?;
        // Success: only now is eden wiped (and with it the remembered set
        // — no young objects remain).
        gh.reset_eden();
        stats.aborts = retries.aborts;
        stats.rollback_pages = retries.rollback_pages;
        stats.pause += retries.overhead;
        stats.mode = retries.mode;
        self.log.push(stats);
        Ok(stats)
    }

    /// One scavenge attempt under placement policy `S` (no transaction
    /// bracketing — `collect` owns that; eden is untouched here so an
    /// abort only needs to restore the old generation).
    ///
    /// Functional effects run in the same host order under either
    /// policy; only time attribution and core choice differ. The barrier
    /// policy runs the whole scavenge on one pool with no phase barriers
    /// (every watchdog check is cumulative); under packets the scavenge
    /// is [`PacketKind::MinorChunk`] packets: card-scan and trace chunks
    /// stamped with discovery-time dependencies, forward/adjust range
    /// chunks at bucket milestones, and promotion batches that start as
    /// soon as every adjust packet that read their forwarding words has
    /// completed.
    fn try_collect<S: Schedule>(
        &mut self,
        sched: &mut S,
        kernel: &mut Kernel,
        gh: &mut GenHeap,
        roots: &mut RootSet,
    ) -> Result<MinorStats, GcError> {
        let mut stats = MinorStats::default();
        let mut watchdog = GcWatchdog::new(self.cfg.deadline_cycles);
        // Packets anchor kernel events at each packet's start; the
        // barrier scavenge is one bucket whose events follow this base.
        let trace_start = kernel.trace.base();
        let (eden_base, eden_end) = gh.eden_range();
        let eden_words = (eden_end - eden_base) / 8;
        let bitmap = &mut self.eden_marks;
        bitmap.reset(eden_base, eden_words);

        // ---- Phase 1+2: young roots and trace ------------------------
        // `old_slots`: every (holder, field) in old space that holds a
        // young pointer and must be rewritten. Mark-stack entries carry
        // their discovery time.
        let mut old_slots: Vec<(ObjRef, u64)> = Vec::new();
        let in_young = |va: VirtAddr| va >= eden_base && va < eden_end;
        let mut stack = seed_roots(kernel, roots, bitmap, sched, in_young);
        // Scan dirty cards: find old objects overlapping each card and
        // inspect their reference fields.
        let dirty: Vec<VirtAddr> = gh.cards.iter_dirty().collect();
        stats.scanned_cards = dirty.len() as u64;
        gh.old.objects_sorted();
        let (_, old_objects) = gh.old.space_and_objects();
        // An old object can overlap several adjacent dirty cards; scanning
        // it once per card would double-push its young-pointing slots into
        // `old_slots` (duplicate pointer adjustments) and double-charge the
        // scan cycles. Cards iterate in ascending address order, so the
        // index one past the last scanned object dedupes the sweep.
        let mut scanned_upto = 0usize;
        let mut scan: Vec<ObjRef> = Vec::new();
        for card in dirty {
            let card_end = card + CARD_BYTES;
            // Objects whose extent intersects [card, card_end): start from
            // the last object at or before the card, skipping any already
            // scanned under a previous card.
            let start_idx = old_objects
                .partition_point(|o| o.0 <= card)
                .saturating_sub(1)
                .max(scanned_upto);
            for (idx, &obj) in old_objects.iter().enumerate().skip(start_idx) {
                if obj.0 >= card_end {
                    break;
                }
                scanned_upto = idx + 1;
                scan.push(obj);
            }
        }
        stats.scanned_objects = scan.len() as u64;
        // [`Schedule::MARK_GRAIN`] inspected objects per item, all ready
        // immediately (dirty cards are mutually independent); the young
        // objects an item finds are stamped with its finish.
        let mut found: Vec<ObjRef> = Vec::new();
        for chunk in scan.chunks(S::MARK_GRAIN) {
            let ticket = sched.begin(PacketKind::MinorChunk, Cycles::ZERO);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            for &obj in chunk {
                let (hdr, ht) = gh.old.read_header(kernel, core, obj)?;
                t += ht;
                // Imprecise card scan (as HotSpot does): inspect every
                // reference field of each object overlapping the card.
                for i in 0..hdr.num_refs as u64 {
                    let (tgt, tc) = gh.old.read_ref(kernel, core, obj, i)?;
                    t += tc;
                    if !tgt.is_null() && in_young(tgt.0) {
                        old_slots.push((obj, i));
                        if bitmap.mark(tgt.header_va()) {
                            found.push(tgt);
                        }
                    }
                }
            }
            let done = sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, chunk.len() as u64);
            stack.extend(found.drain(..).map(|f| (f, done)));
        }
        // Trace the young subgraph (references into the old generation
        // are not followed; old objects don't move).
        trace_closure(
            kernel,
            &gh.old,
            bitmap,
            sched,
            &mut stack,
            PacketKind::MinorChunk,
            in_young,
        )?;
        let t_trace = sched.milestone();
        watchdog.check("minor-trace", t_trace)?;

        // ---- Phase 3: forwarding (promotion addresses) ----------------
        let young = gh.young_objects();
        // First pass: read survivor shapes and pre-check old-gen capacity
        // so a promotion failure aborts *before* any state changes (the
        // caller must run a full collection and retry).
        let mut survivors: Vec<(ObjRef, svagc_heap::ObjShape, bool)> = Vec::new();
        let mut demand = 0u64;
        let mut large_count = 0u64;
        let live = |i: usize| bitmap.is_marked(young[i].header_va());
        for (s, e) in sched.ranges(young.len(), live) {
            let ticket = sched.begin(PacketKind::MinorChunk, t_trace);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            for i in (s..e).filter(|&i| live(i)) {
                let (hdr, ht) = gh.old.read_header(kernel, core, young[i])?;
                t += ht;
                let shape = svagc_heap::ObjShape::with_refs(
                    hdr.num_refs,
                    hdr.size_words - 2 - hdr.num_refs,
                );
                demand += hdr.size_bytes();
                if hdr.is_large() {
                    large_count += 1;
                }
                survivors.push((young[i], shape, hdr.is_large()));
            }
            sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
        }
        stats.dead_young = (young.len() - survivors.len()) as u64;
        // Every mark is a survivor's header: leave the bitmap empty.
        for &(obj, _, _) in &survivors {
            bitmap.unmark(obj.header_va());
        }
        if demand + (2 * large_count + 1) * PAGE_SIZE > gh.old.free_bytes() {
            return Err(GcError::Heap(HeapError::NeedGc { requested: demand }));
        }
        // Destination assignment: the cursor is a prefix sum over survivor
        // sizes (DESIGN.md §13), so ranges only need the shape milestone.
        let t_shape = sched.milestone();
        let mut promos: Vec<Promo> = Vec::new();
        for (s, e) in sched.ranges(survivors.len(), |_| true) {
            let ticket = sched.begin(PacketKind::MinorChunk, t_shape);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            for &(obj, shape, large) in &survivors[s..e] {
                let dst = gh.old.adopt_at_top(kernel, shape)?;
                t += kernel.write_word(gh.old.space(), core, obj.forwarding_va(), dst.0.get())?;
                stats.promoted_bytes += shape.size_bytes();
                promos.push(Promo {
                    src: obj,
                    dst,
                    size: shape.size_bytes(),
                    large,
                });
            }
            sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
        }
        stats.promoted_objects = promos.len() as u64;
        let t_fwd = sched.milestone();
        watchdog.check("minor-forward", t_fwd)?;

        // ---- Phase 4: adjust references -------------------------------
        // Promotion-batch partition, computed now so that, with
        // overlapping buckets, every adjust access to a forwarding word
        // records the batch it constrains.
        let mut deps = S::OVERLAPPING.then(|| {
            let batches: Vec<(usize, usize)> = sched.ranges(promos.len(), |_| true).collect();
            BatchDeps::new(promos.len(), &batches, Vec::new())
        });
        // The promotion whose source sits at `va` (promos are in
        // ascending eden order), if any.
        let promo_at = |va: VirtAddr| promos.binary_search_by(|p| p.src.0.cmp(&va)).ok();
        let mut conflicts: Vec<usize> = Vec::new();
        {
            // Root slots (the VM thread's item).
            let ticket = sched.begin_roots(PacketKind::MinorChunk, t_fwd);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            let mut slots = 0u64;
            for slot in roots.slots_mut() {
                if !slot.is_null() && slot.0 >= eden_base && slot.0 < eden_end {
                    let (fwd, c) = kernel.read_word(gh.old.space(), core, slot.forwarding_va())?;
                    t += c;
                    if let Some(d) = &deps {
                        d.note_forwarding_read(promo_at(slot.0), *slot, &mut conflicts);
                    }
                    *slot = ObjRef(VirtAddr(fwd));
                    slots += 1;
                }
            }
            let done = sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, slots);
            if let Some(d) = &mut deps {
                d.fold(&mut conflicts, done);
            }
        }
        // Old-generation fields discovered via cards.
        for (s, e) in sched.ranges(old_slots.len(), |_| true) {
            let ticket = sched.begin(PacketKind::MinorChunk, t_fwd);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            for &(holder, field) in &old_slots[s..e] {
                let (tgt, tc) = gh.old.read_ref(kernel, core, holder, field)?;
                t += tc;
                if !tgt.is_null() && gh.in_young(tgt.0) {
                    let (fwd, c) = kernel.read_word(gh.old.space(), core, tgt.forwarding_va())?;
                    t += c;
                    t += gh.old.write_ref(kernel, core, holder, field, ObjRef(VirtAddr(fwd)))?;
                    if let Some(d) = &deps {
                        d.note_forwarding_read(promo_at(tgt.0), tgt, &mut conflicts);
                    }
                }
            }
            let done = sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
            if let Some(d) = &mut deps {
                d.fold(&mut conflicts, done);
            }
        }
        // Survivors' own fields (young targets forward; old targets keep)
        // share the promotion-batch partition, so item `bi`'s writes land
        // in batch `bi` by construction.
        for (bi, (s, e)) in sched.ranges(promos.len(), |_| true).enumerate() {
            let ticket = sched.begin(PacketKind::MinorChunk, t_fwd);
            let core = sched.core(&ticket);
            let mut t = Cycles::ZERO;
            if deps.is_some() {
                conflicts.push(bi);
            }
            for p in &promos[s..e] {
                let (hdr, ht) = gh.old.read_header(kernel, core, p.src)?;
                t += ht;
                for i in 0..hdr.num_refs as u64 {
                    let (tgt, tc) = gh.old.read_ref(kernel, core, p.src, i)?;
                    t += tc;
                    if !tgt.is_null() && gh.in_young(tgt.0) {
                        let (fwd, c) =
                            kernel.read_word(gh.old.space(), core, tgt.forwarding_va())?;
                        t += c;
                        t += gh.old.write_ref(kernel, core, p.src, i, ObjRef(VirtAddr(fwd)))?;
                        if let Some(d) = &deps {
                            d.note_forwarding_read(promo_at(tgt.0), tgt, &mut conflicts);
                        }
                    }
                }
            }
            let done = sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
            if let Some(d) = &mut deps {
                d.fold(&mut conflicts, done);
            }
        }
        let t_adj = sched.milestone();
        watchdog.check("minor-adjust", t_adj)?;

        // ---- Phase 5: promote (copy or swap) ---------------------------
        let threshold_pages = gh.old.threshold_pages();
        let plan = SwapPlan {
            opts: SwapVaOptions {
                pmd_cache: self.cfg.pmd_cache,
                overlap_opt: false, // Table I: not applicable to Minor copying
                flush: FlushMode::LocalOnly,
            },
            aggregated: self.cfg.aggregation.is_some(),
            retry: &self.cfg.retry,
        };
        let any_swaps = self.cfg.use_swapva
            && promos.iter().any(|p| {
                p.large && p.src.0.is_page_aligned() && p.dst.0.is_page_aligned()
            });
        if any_swaps {
            // Algorithm 4 prologue: a global sync point.
            if S::OVERLAPPING {
                kernel.trace.set_base(trace_start + t_adj);
            }
            let asid = gh.old.space().asid();
            let c0 = sched.worker_core(0);
            let pin = kernel.pin(c0);
            let (b, intf) = kernel.flush_asid_all_cores(c0, asid);
            sched.charge_sync(pin + b);
            stats.interference += intf.0;
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }
        // Aggregation amortizes syscall entry across *small* promotions; a
        // page budget keeps one batch from serializing big-object swaps
        // onto a single worker. Without overlap one batch spans the phase;
        // a packet drains it before finishing.
        let mut batch = SwapBatch::new(self.cfg.aggregation.unwrap_or(1), 8 * threshold_pages.max(1));
        for (bi, (s, e)) in sched.ranges(promos.len(), |_| true).enumerate() {
            let ready = deps.as_ref().map_or(t_fwd, |d| d.ready(bi, t_fwd));
            let ticket = sched.begin(PacketKind::MinorChunk, ready);
            let core = sched.core(&ticket);
            if S::OVERLAPPING {
                kernel.trace.set_base(sched.lane(&ticket));
            }
            let mut t = Cycles::ZERO;
            for p in &promos[s..e] {
                let pages = p.size.div_ceil(PAGE_SIZE);
                let swappable = self.cfg.use_swapva
                    && p.large
                    && pages >= threshold_pages
                    && p.src.0.is_page_aligned()
                    && p.dst.0.is_page_aligned();
                if swappable {
                    // Eden and old space never overlap: this is always the
                    // disjoint fast path.
                    let req = SwapRequest { a: p.src.0, b: p.dst.0, pages };
                    debug_assert!(!req.overlaps(), "eden and old generation must be disjoint");
                    stats.swapped_objects += 1;
                    if batch.push(req, p.size) {
                        let space = gh.old.space_mut();
                        t += plan.flush(kernel, space, &mut batch, core, &mut stats)?.0;
                        // Mid-phase deadline check between promotion batches.
                        watchdog.check("minor-promote", sched.elapsed(&ticket, t, Cycles::ZERO))?;
                    }
                } else {
                    t += kernel.memmove(gh.old.space(), core, p.src.0, p.dst.0, p.size)?;
                }
            }
            if S::OVERLAPPING {
                t += plan.flush(kernel, gh.old.space_mut(), &mut batch, core, &mut stats)?.0;
                // Clear this batch's destinations' forwarding words. The
                // clears run on the same core as the batch's swaps — which
                // LocalOnly-flushed it — so no extra TLB pass is needed.
                for p in &promos[s..e] {
                    t += kernel.write_word(gh.old.space(), core, p.dst.forwarding_va(), 0)?;
                }
            }
            sched.finish(ticket, t);
            sched.emit(&mut kernel.trace, &ticket, t, (e - s) as u64);
        }
        if !S::OVERLAPPING {
            if !batch.is_empty() {
                let ticket = sched.begin_balanced(PacketKind::MinorChunk);
                let core = sched.core(&ticket);
                let t = plan.flush(kernel, gh.old.space_mut(), &mut batch, core, &mut stats)?.0;
                sched.finish(ticket, t);
            }
            // Clear forwarding words at the destinations (after every
            // deferred swap has executed, so the words land in the final
            // frames), each worker's stale entries flushed first.
            if any_swaps {
                let asid = gh.old.space().asid();
                for w in 0..sched.workers() {
                    kernel.flush_tlb_local(sched.worker_core(w), asid);
                }
            }
            for p in &promos {
                let ticket = sched.begin_balanced(PacketKind::MinorChunk);
                let core = sched.core(&ticket);
                let t = kernel.write_word(gh.old.space(), core, p.dst.forwarding_va(), 0)?;
                sched.finish(ticket, t);
            }
        }
        if any_swaps {
            // Algorithm 4 epilogue: one final broadcast for the mutators.
            if S::OVERLAPPING {
                kernel.trace.set_base(trace_start + sched.milestone());
            }
            let asid = gh.old.space().asid();
            let c0 = sched.worker_core(0);
            let (b, intf) = kernel.flush_asid_all_cores(c0, asid);
            sched.charge_sync(b + kernel.unpin());
            stats.interference += intf.0;
            if let Some(point) = kernel.crashed() {
                return Err(GcError::Crashed { point });
            }
        }

        stats.pause = sched.milestone();
        watchdog.check("minor-promote", stats.pause)?;
        kernel.trace.span_abs(
            TraceKind::MinorCycle,
            trace_start,
            stats.pause,
            0,
            &[
                ("promoted", stats.promoted_objects),
                ("swapped", stats.swapped_objects),
                ("dead_young", stats.dead_young),
            ],
        );
        // Stack successive scavenges (and their kernel-side events) on the
        // cumulative GC timeline.
        kernel.trace.set_base(trace_start + stats.pause);
        kernel.perf.gc_cycles += 1;
        kernel.perf.objects_moved += stats.promoted_objects;
        kernel.perf.objects_swapped += stats.swapped_objects;
        Ok(stats)
    }

    /// Total scavenge pause across the log.
    pub fn total_pause(&self) -> Cycles {
        self.log.iter().map(|s| s.pause).sum()
    }
}

/// Full collection of the *old generation* while a nursery exists (e.g.
/// after a promotion failure): young-held references into the old space
/// are pinned as temporary roots so the full collector keeps and updates
/// them, the collection runs on the old heap only (its phases ignore
/// out-of-heap roots and targets), the updated values are written back
/// into the young holders, and the remembered set is rebuilt for the
/// moved old objects.
pub fn full_collect_generational(
    kernel: &mut Kernel,
    gh: &mut GenHeap,
    roots: &mut RootSet,
    full: &mut crate::lisp2::Lisp2Collector,
) -> Result<crate::stats::GcCycleStats, GcError> {
    let core = svagc_kernel::CoreId(0);
    // Pin young-held old references as temporary roots.
    let mut temp: Vec<(ObjRef, u64, svagc_heap::RootId)> = Vec::new();
    for &y in gh.young_objects() {
        let (hdr, _) = gh.old.read_header(kernel, core, y)?;
        for i in 0..hdr.num_refs as u64 {
            let (tgt, _) = gh.old.read_ref(kernel, core, y, i)?;
            if !tgt.is_null() && gh.in_old(tgt.0) {
                temp.push((y, i, roots.push(tgt)));
            }
        }
    }

    let stats = full.collect(kernel, &mut gh.old, roots)?;

    // Write the updated addresses back into the young holders and retire
    // the temporary roots.
    for (holder, field, rid) in temp {
        let updated = roots.get(rid);
        gh.old.write_ref(kernel, core, holder, field, updated)?;
        roots.set(rid, ObjRef::NULL);
    }

    // Old objects moved: rebuild the remembered set by scanning the
    // surviving old objects for young-pointing fields.
    gh.cards.clear();
    gh.old.objects_sorted();
    let (_, old_objects) = gh.old.space_and_objects();
    for &obj in old_objects {
        let (hdr, _) = gh.old.read_header(kernel, core, obj)?;
        for i in 0..hdr.num_refs as u64 {
            let (tgt, _) = gh.old.read_ref(kernel, core, obj, i)?;
            if !tgt.is_null() && gh.in_young(tgt.0) {
                gh.cards.dirty(obj.ref_field_va(i));
            }
        }
    }
    Ok(stats)
}
