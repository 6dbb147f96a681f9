//! Post-phase heap verification: the oracle for chaos testing.
//!
//! [`HeapVerifier`] walks the heap *functionally* — through the kernel's
//! uncosted, tier-aware page view (`Kernel::page_bytes_tiered`), never
//! the charged `Kernel::read_word` path — so invoking it perturbs no
//! cycle, perf, TLB, or cache accounting: a verified run reports the same
//! numbers as an unverified one.
//!
//! Four check groups, one per LISP2 phase:
//!
//! * **layout** — objects sorted, non-overlapping, in-bounds, headers
//!   decodable, large objects page-aligned (Algorithm 3's invariant).
//! * **marks** — reachability recomputed from the roots agrees exactly
//!   with the mark bitmap (no lost objects, no resurrected garbage).
//! * **forwarding** — destinations ascend, never overlap, never move an
//!   object upward, and preserve SwapVA alignment for large objects.
//! * **post-compact** — layout holds for survivors, forwarding words are
//!   cleared, every root and reference field targets a survivor header,
//!   and the allocation cursor (TLAB boundary) sits past the last object.
//!
//! [`HeapVerifier::content_hash`] folds every live object's address,
//! header, and payload into one FNV-1a hash: two heaps hash equal iff the
//! live data is bit-identical at identical addresses — the property the
//! chaos suite asserts between faulty and fault-free runs.

use crate::bitmap::MarkBitmap;
use crate::heap::Heap;
use crate::object::{ObjHeader, ObjRef, HEADER_WORDS};
use crate::roots::RootSet;
use std::collections::HashSet;
use svagc_kernel::{Fnv64, Kernel};
use svagc_vmem::{VirtAddr, PAGE_SHIFT, WORD_BYTES};

/// One broken invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the invariant that failed.
    pub invariant: &'static str,
    /// Address the violation was detected at.
    pub at: VirtAddr,
    /// Human-readable specifics.
    pub detail: String,
}

/// Outcome of one verification pass.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Which check group ran.
    pub phase: &'static str,
    /// Objects examined.
    pub checked: usize,
    /// Broken invariants found (capped at the verifier's limit).
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// No violations found?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The verifier. Stateless between calls; `max_violations` caps how many
/// violations a single pass records (the first is what matters).
#[derive(Debug, Clone)]
pub struct HeapVerifier {
    /// Stop recording after this many violations.
    pub max_violations: usize,
}

impl Default for HeapVerifier {
    fn default() -> HeapVerifier {
        HeapVerifier { max_violations: 16 }
    }
}

/// Context shared by the check groups: functional reads + violation sink.
struct Checker<'a> {
    kernel: &'a Kernel,
    report: VerifyReport,
    cap: usize,
}

impl<'a> Checker<'a> {
    fn new(kernel: &'a Kernel, phase: &'static str, cap: usize) -> Checker<'a> {
        Checker {
            kernel,
            report: VerifyReport {
                phase,
                checked: 0,
                violations: Vec::new(),
            },
            cap,
        }
    }

    fn violate(&mut self, invariant: &'static str, at: VirtAddr, detail: String) {
        if self.report.violations.len() < self.cap {
            self.report.violations.push(Violation {
                invariant,
                at,
                detail,
            });
        }
    }

    /// Uncosted functional read (tier-aware: a demoted page's word is
    /// served from its far-device slot without promoting it or rolling
    /// the device fault plan); an unmapped address is itself a violation.
    fn read(&mut self, heap: &Heap, va: VirtAddr) -> Option<u64> {
        match self.kernel.read_u64_tiered(heap.space(), va) {
            Ok(v) => Some(v),
            Err(e) => {
                self.violate("heap-word-mapped", va, format!("read failed: {e}"));
                None
            }
        }
    }

    fn read_header(&mut self, heap: &Heap, obj: ObjRef) -> Option<ObjHeader> {
        let raw = self.read(heap, obj.header_va())?;
        let hdr = ObjHeader::decode(raw);
        if (hdr.size_words as u64) < HEADER_WORDS {
            self.violate(
                "header-decodable",
                obj.header_va(),
                format!("size_words {} < header size {HEADER_WORDS}", hdr.size_words),
            );
            return None;
        }
        Some(hdr)
    }
}

impl HeapVerifier {
    /// A verifier with the default violation cap.
    pub fn new() -> HeapVerifier {
        HeapVerifier::default()
    }

    /// Layout invariants over the heap's current object list: ascending,
    /// non-overlapping, in `[base, top]`, decodable headers, large objects
    /// page-aligned.
    pub fn verify_layout(&self, kernel: &Kernel, heap: &mut Heap) -> VerifyReport {
        let mut c = Checker::new(kernel, "layout", self.max_violations);
        let (base, top) = (heap.base(), heap.top());
        let objects: Vec<ObjRef> = heap.objects_sorted().to_vec();
        let mut prev_end = base;
        for obj in objects {
            c.report.checked += 1;
            if obj.0 < base || obj.0 >= top {
                c.violate(
                    "object-in-heap-bounds",
                    obj.0,
                    format!("object outside [{base}, {top})"),
                );
                continue;
            }
            let Some(hdr) = c.read_header(heap, obj) else {
                continue;
            };
            let end = obj.0 + hdr.size_bytes();
            if end > top {
                c.violate(
                    "object-in-heap-bounds",
                    obj.0,
                    format!("object end {end} past allocation cursor {top}"),
                );
            }
            if obj.0 < prev_end {
                c.violate(
                    "objects-non-overlapping",
                    obj.0,
                    format!("object starts before previous object's end {prev_end}"),
                );
            }
            if hdr.is_large() && !obj.0.is_page_aligned() {
                c.violate(
                    "large-object-page-aligned",
                    obj.0,
                    "large (SwapVA-eligible) object not page-aligned".to_string(),
                );
            }
            prev_end = end;
        }
        c.report
    }

    /// Mark-phase oracle: recompute reachability from the roots with
    /// functional reads and require exact agreement with the bitmap —
    /// every reachable object marked, every mark on a reachable object's
    /// header.
    pub fn verify_marks(
        &self,
        kernel: &Kernel,
        heap: &mut Heap,
        bitmap: &MarkBitmap,
        roots: &RootSet,
    ) -> VerifyReport {
        let mut c = Checker::new(kernel, "mark", self.max_violations);
        let headers: HashSet<VirtAddr> =
            heap.objects_sorted().iter().map(|o| o.header_va()).collect();

        // Recompute the live set.
        let mut reachable: HashSet<VirtAddr> = HashSet::new();
        let mut stack: Vec<ObjRef> = Vec::new();
        for r in roots.iter_live() {
            if heap.contains(r.0) && reachable.insert(r.header_va()) {
                stack.push(r);
            }
        }
        while let Some(obj) = stack.pop() {
            c.report.checked += 1;
            let Some(hdr) = c.read_header(heap, obj) else {
                continue;
            };
            for i in 0..hdr.num_refs as u64 {
                let Some(raw) = c.read(heap, obj.ref_field_va(i)) else {
                    continue;
                };
                let tgt = ObjRef(VirtAddr(raw));
                if !tgt.is_null() && heap.contains(tgt.0) && reachable.insert(tgt.header_va()) {
                    stack.push(tgt);
                }
            }
        }

        for &hv in &reachable {
            if !bitmap.is_marked(hv) {
                c.violate(
                    "reachable-implies-marked",
                    hv,
                    "live object missing from mark bitmap (would be lost)".to_string(),
                );
            }
        }
        for hv in bitmap.iter_marked() {
            if !headers.contains(&hv) {
                c.violate(
                    "mark-on-object-header",
                    hv,
                    "mark bit set on an address that is no object header".to_string(),
                );
            } else if !reachable.contains(&hv) {
                c.violate(
                    "marked-implies-reachable",
                    hv,
                    "unreachable object marked (garbage resurrected)".to_string(),
                );
            }
        }
        c.report
    }

    /// Forward-phase oracle: walk marked objects in address order and
    /// check their forwarding words describe a valid slide — destinations
    /// ascend from heap base, never overlap, never exceed the source, and
    /// keep large objects page-aligned.
    pub fn verify_forwarding(
        &self,
        kernel: &Kernel,
        heap: &mut Heap,
        bitmap: &MarkBitmap,
    ) -> VerifyReport {
        let mut c = Checker::new(kernel, "forward", self.max_violations);
        let objects: Vec<ObjRef> = heap.objects_sorted().to_vec();
        let base = heap.base();
        let mut next_free = base;
        for obj in objects {
            if !bitmap.is_marked(obj.header_va()) {
                continue;
            }
            c.report.checked += 1;
            let Some(hdr) = c.read_header(heap, obj) else {
                continue;
            };
            let Some(raw) = c.read(heap, obj.forwarding_va()) else {
                continue;
            };
            let dst = VirtAddr(raw);
            if dst < base || dst > obj.0 {
                c.violate(
                    "forwarding-slides-down",
                    obj.0,
                    format!("destination {dst} outside [{base}, src {}]", obj.0),
                );
                continue;
            }
            if dst < next_free {
                c.violate(
                    "forwarding-non-overlapping",
                    obj.0,
                    format!("destination {dst} overlaps previous destination end {next_free}"),
                );
            }
            if hdr.is_large() && !dst.is_page_aligned() {
                c.violate(
                    "forwarding-preserves-alignment",
                    obj.0,
                    format!("large object forwarded to unaligned {dst}"),
                );
            }
            next_free = dst + hdr.size_bytes();
        }
        c.report
    }

    /// Post-compact oracle: survivors form a valid layout, forwarding
    /// words are cleared, roots and reference fields all target survivor
    /// headers, and the allocation cursor covers the last survivor (the
    /// TLAB boundary invariant — the next TLAB must start past live data).
    pub fn verify_post_compact(
        &self,
        kernel: &Kernel,
        heap: &mut Heap,
        roots: &RootSet,
    ) -> VerifyReport {
        let mut report = self.verify_layout(kernel, heap);
        report.phase = "compact";
        let mut c = Checker::new(kernel, "compact", self.max_violations);
        c.report = report;

        let survivors: Vec<ObjRef> = heap.objects_sorted().to_vec();
        let headers: HashSet<VirtAddr> = survivors.iter().map(|o| o.header_va()).collect();
        let (base, top, end) = (heap.base(), heap.top(), heap.end());

        if top > end {
            c.violate(
                "tlab-boundary",
                top,
                format!("allocation cursor {top} past heap end {end}"),
            );
        }
        if let Some(last) = survivors.last() {
            if let Some(hdr) = c.read_header(heap, *last) {
                let live_end = last.0 + hdr.size_bytes();
                if live_end > top {
                    c.violate(
                        "tlab-boundary",
                        last.0,
                        format!(
                            "last survivor ends at {live_end}, past allocation cursor {top} — \
                             the next TLAB would overwrite live data"
                        ),
                    );
                }
            }
        }

        for (i, slot) in roots.iter_live().enumerate() {
            if heap.contains(slot.0) && !headers.contains(&slot.header_va()) {
                c.violate(
                    "root-targets-survivor",
                    slot.0,
                    format!("root {i} points at {}, which is no survivor header", slot.0),
                );
            }
        }

        for obj in survivors {
            let Some(hdr) = c.read_header(heap, obj) else {
                continue;
            };
            if let Some(fwd) = c.read(heap, obj.forwarding_va()) {
                if fwd != 0 {
                    c.violate(
                        "forwarding-cleared",
                        obj.0,
                        format!("forwarding word still holds {fwd:#x} after compaction"),
                    );
                }
            }
            for i in 0..hdr.num_refs as u64 {
                let Some(raw) = c.read(heap, obj.ref_field_va(i)) else {
                    continue;
                };
                let tgt = ObjRef(VirtAddr(raw));
                if tgt.is_null() {
                    continue;
                }
                if heap.contains(tgt.0) && !headers.contains(&tgt.header_va()) {
                    c.violate(
                        "ref-targets-survivor",
                        obj.ref_field_va(i),
                        format!("field {i} points at {}, which is no survivor header", tgt.0),
                    );
                }
            }
        }
        let _ = base;
        c.report
    }

    /// TLAB/large-object boundary pass: the bidirectional allocation
    /// invariant. Small objects fill pages front-to-back; large
    /// (SwapVA-candidate) objects claim *whole* page spans — they start on
    /// a page boundary and the allocator re-aligns the cursor after them,
    /// so the page span `[start, align_up(end))` of a large object is
    /// exclusively its own. A small object sharing any page with a large
    /// object would make that large object unswappable (a PTE swap would
    /// carry the interloper along), so interleaving is checked directly
    /// here rather than inferred from byte-level non-overlap.
    ///
    /// Run after rollback: an abort that restored bytes but mis-restored
    /// allocator state would surface here.
    pub fn verify_boundaries(&self, kernel: &Kernel, heap: &mut Heap) -> VerifyReport {
        use svagc_vmem::PAGE_SIZE;
        let mut c = Checker::new(kernel, "boundary", self.max_violations);
        let objects: Vec<ObjRef> = heap.objects_sorted().to_vec();
        // Page spans `[start_page, end_page)` in address order.
        let mut large_spans: Vec<(u64, u64)> = Vec::new();
        let mut small_spans: Vec<(ObjRef, u64, u64)> = Vec::new();
        for obj in objects {
            c.report.checked += 1;
            let Some(hdr) = c.read_header(heap, obj) else {
                continue;
            };
            let start = obj.0.get();
            let end = start + hdr.size_bytes();
            if hdr.is_large() {
                if !obj.0.is_page_aligned() {
                    c.violate(
                        "large-object-page-aligned",
                        obj.0,
                        "large object does not start on a page boundary".to_string(),
                    );
                    continue;
                }
                large_spans.push((start / PAGE_SIZE, end.div_ceil(PAGE_SIZE)));
            } else {
                small_spans.push((obj, start / PAGE_SIZE, end.div_ceil(PAGE_SIZE)));
            }
        }
        // Merge walk (both lists ascend): any page shared between a small
        // object and a large object's exclusive span is a violation.
        let mut li = 0;
        for (obj, sp, ep) in small_spans {
            while li < large_spans.len() && large_spans[li].1 <= sp {
                li += 1;
            }
            if li < large_spans.len() && large_spans[li].0 < ep {
                c.violate(
                    "small-large-pages-disjoint",
                    obj.0,
                    format!(
                        "small object touches pages [{sp}, {ep}) inside large object's \
                         exclusive span [{}, {})",
                        large_spans[li].0, large_spans[li].1
                    ),
                );
            }
        }
        c.report
    }

    /// FNV-1a hash of every live object's address, header, and payload.
    /// The forwarding word is excluded (transient GC state); everything
    /// else that defines the heap's observable content folds in, so equal
    /// hashes mean bit-identical live data at identical addresses. An
    /// unreadable word folds in as `u64::MAX`.
    ///
    /// Reads go through [`Kernel::page_bytes_tiered`], so a far page
    /// hashes its real bytes, not its zeroed frame: a hash taken while
    /// pages are demoted equals the one taken after promoting them all.
    /// Each page is translated once and its words fold straight off the
    /// page slice ([`Fnv64`], one multiply per word).
    pub fn content_hash(&self, kernel: &Kernel, heap: &mut Heap) -> u64 {
        heap.objects_sorted();
        let (space, objects) = heap.space_and_objects();
        let mut h = Fnv64::new();
        // The last page viewed: consecutive small objects share pages.
        let mut cached: Option<(u64, &[u8])> = None;
        let mut page = |va: VirtAddr| -> Option<&[u8]> {
            match cached {
                Some((vpn, bytes)) if vpn == va.vpn() => Some(bytes),
                _ => {
                    let bytes = kernel.page_bytes_tiered(space, va).ok()?;
                    cached = Some((va.vpn(), bytes));
                    Some(bytes)
                }
            }
        };
        for obj in objects {
            h.word(obj.0.get());
            let hv = obj.header_va();
            let Some(raw) = page(hv).map(|p| word_at(p, hv)) else {
                h.word(u64::MAX);
                continue;
            };
            h.word(raw);
            let hdr = ObjHeader::decode(raw);
            // All payload words (reference fields + data), skipping the
            // forwarding word at index 1, one page-bounded run at a time.
            // Objects are word-aligned, so words never straddle a page.
            let end = obj.0 + hdr.size_words as u64 * WORD_BYTES;
            let mut va = obj.0 + HEADER_WORDS * WORD_BYTES;
            while va < end {
                let run_end = VirtAddr((va.vpn() + 1) << PAGE_SHIFT).min(end);
                let off = va.page_offset() as usize;
                let len = (run_end - va) as usize;
                match page(va) {
                    Some(p) => h.le_words(&p[off..off + len]),
                    None => (0..len / WORD_BYTES as usize).for_each(|_| h.word(u64::MAX)),
                }
                va = run_end;
            }
        }
        h.finish()
    }
}

/// The little-endian word at `va`'s offset in its page's bytes.
fn word_at(page: &[u8], va: VirtAddr) -> u64 {
    let off = va.page_offset() as usize;
    u64::from_le_bytes(page[off..off + 8].try_into().expect("an 8-byte slice"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::object::ObjShape;
    use svagc_kernel::CoreId;
    use svagc_metrics::MachineConfig;
    use svagc_vmem::Asid;

    const CORE: CoreId = CoreId(0);

    fn setup() -> (Kernel, Heap, RootSet) {
        let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 16 << 20);
        let h = Heap::new(&mut k, Asid(1), HeapConfig::new(8 << 20)).unwrap();
        (k, h, RootSet::new())
    }

    #[test]
    fn fresh_heap_layout_is_clean() {
        let (mut k, mut h, _) = setup();
        for _ in 0..20 {
            h.alloc(&mut k, CORE, ObjShape::with_refs(2, 30)).unwrap();
        }
        let rep = HeapVerifier::new().verify_layout(&k, &mut h);
        assert!(rep.is_clean(), "{:?}", rep.violations);
        assert_eq!(rep.checked, 20);
    }

    #[test]
    fn marks_agree_with_recomputed_reachability() {
        let (mut k, mut h, mut roots) = setup();
        let (a, _) = h.alloc(&mut k, CORE, ObjShape::with_refs(1, 8)).unwrap();
        let (b, _) = h.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        let (_c, _) = h.alloc(&mut k, CORE, ObjShape::data(8)).unwrap(); // garbage
        h.write_ref(&mut k, CORE, a, 0, b).unwrap();
        roots.push(a);

        let mut bitmap = MarkBitmap::new(h.base(), h.extent_words());
        bitmap.mark(a.header_va());
        bitmap.mark(b.header_va());
        let rep = HeapVerifier::new().verify_marks(&k, &mut h, &bitmap, &roots);
        assert!(rep.is_clean(), "{:?}", rep.violations);
    }

    #[test]
    fn lost_object_and_resurrected_garbage_are_caught() {
        let (mut k, mut h, mut roots) = setup();
        let (a, _) = h.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        let (b, _) = h.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        roots.push(a);
        let v = HeapVerifier::new();

        // a reachable but unmarked: lost object.
        let empty = MarkBitmap::new(h.base(), h.extent_words());
        let rep = v.verify_marks(&k, &mut h, &empty, &roots);
        assert!(rep
            .violations
            .iter()
            .any(|x| x.invariant == "reachable-implies-marked"));

        // b marked but unreachable: resurrected garbage.
        let mut over = MarkBitmap::new(h.base(), h.extent_words());
        over.mark(a.header_va());
        over.mark(b.header_va());
        let rep = v.verify_marks(&k, &mut h, &over, &roots);
        assert!(rep
            .violations
            .iter()
            .any(|x| x.invariant == "marked-implies-reachable"));
    }

    #[test]
    fn bad_forwarding_is_caught() {
        let (mut k, mut h, _) = setup();
        let (a, _) = h.alloc(&mut k, CORE, ObjShape::data(64)).unwrap();
        let (b, _) = h.alloc(&mut k, CORE, ObjShape::data(64)).unwrap();
        let mut bitmap = MarkBitmap::new(h.base(), h.extent_words());
        bitmap.mark(a.header_va());
        bitmap.mark(b.header_va());
        let v = HeapVerifier::new();

        // Both forwarded to heap base: overlapping destinations.
        let base = h.base();
        k.vmem
            .write_u64(h.space(), a.forwarding_va(), base.get())
            .unwrap();
        k.vmem
            .write_u64(h.space(), b.forwarding_va(), base.get())
            .unwrap();
        let rep = v.verify_forwarding(&k, &mut h, &bitmap);
        assert!(rep
            .violations
            .iter()
            .any(|x| x.invariant == "forwarding-non-overlapping"));

        // Forwarding upward is a broken slide.
        k.vmem
            .write_u64(h.space(), a.forwarding_va(), b.0.get())
            .unwrap();
        let rep = v.verify_forwarding(&k, &mut h, &bitmap);
        assert!(rep
            .violations
            .iter()
            .any(|x| x.invariant == "forwarding-slides-down"));
    }

    #[test]
    fn boundary_pass_accepts_allocator_output() {
        use svagc_vmem::PAGE_SIZE;
        let (mut k, mut h, _) = setup();
        for i in 0..30u64 {
            h.alloc(&mut k, CORE, ObjShape::data(20 + (i % 13) as u32)).unwrap();
            if i % 4 == 0 {
                h.alloc(&mut k, CORE, ObjShape::data_bytes(10 * PAGE_SIZE + i * 8))
                    .unwrap();
            }
        }
        let rep = HeapVerifier::new().verify_boundaries(&k, &mut h);
        assert!(rep.is_clean(), "{:?}", rep.violations);
        assert!(rep.checked > 30);
    }

    #[test]
    fn boundary_pass_catches_interleaved_small_object() {
        use svagc_vmem::PAGE_SIZE;
        let (mut k, mut h, _) = setup();
        let (big, _) = h
            .alloc(&mut k, CORE, ObjShape::data_bytes(12 * PAGE_SIZE))
            .unwrap();
        // Plant a small object inside the large object's exclusive page
        // span — exactly what a botched rollback of allocator state could
        // produce.
        h.register_at(&mut k, CORE, big.0 + 2 * PAGE_SIZE + 64, ObjShape::data(4), false, 0)
            .unwrap();
        let rep = HeapVerifier::new().verify_boundaries(&k, &mut h);
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == "small-large-pages-disjoint"),
            "{:?}", rep.violations);
    }

    #[test]
    fn heap_snapshot_restore_roundtrips() {
        let (mut k, mut h, _) = setup();
        h.alloc(&mut k, CORE, ObjShape::data(16)).unwrap();
        let snap = h.snapshot();
        let (top0, count0, stats0) = (h.top(), h.object_count(), h.stats);
        h.alloc(&mut k, CORE, ObjShape::data(64)).unwrap();
        assert_ne!(h.top(), top0);
        h.restore(snap);
        assert_eq!(h.top(), top0);
        assert_eq!(h.object_count(), count0);
        assert_eq!(h.stats.allocations, stats0.allocations);
        // A second round reuses the first snapshot's buffer and still
        // captures the current list.
        let snap = h.snapshot();
        h.alloc(&mut k, CORE, ObjShape::data(8)).unwrap();
        h.restore(snap);
        assert_eq!(h.object_count(), count0);
        let snap = h.snapshot();
        h.release(snap);
        assert_eq!(h.object_count(), count0);
    }

    #[test]
    fn content_hash_tracks_live_data() {
        let (mut k, mut h, _) = setup();
        let (a, _) = h.alloc(&mut k, CORE, ObjShape::data(16)).unwrap();
        h.write_data(&mut k, CORE, a, 0, 3, 0xDEAD).unwrap();
        let v = HeapVerifier::new();
        let h1 = v.content_hash(&k, &mut h);
        // Same state hashes the same.
        assert_eq!(h1, v.content_hash(&k, &mut h));
        // A single flipped payload word changes the hash.
        h.write_data(&mut k, CORE, a, 0, 3, 0xBEEF).unwrap();
        assert_ne!(h1, v.content_hash(&k, &mut h));
        // The forwarding word does NOT (transient GC state).
        let h2 = v.content_hash(&k, &mut h);
        k.vmem.write_u64(h.space(), a.forwarding_va(), 0x77).unwrap();
        assert_eq!(h2, v.content_hash(&k, &mut h));
    }

    #[test]
    fn content_hash_sees_through_a_demoted_page() {
        use svagc_kernel::{FarDevice, FarTier, RetryPolicy};
        let (mut k, mut h, _) = setup();
        let tier = FarTier::new(FarDevice::new(8), RetryPolicy::default());
        k.set_far_tier(Some(tier));
        let (a, _) = h.alloc(&mut k, CORE, ObjShape::data(16)).unwrap();
        h.write_data(&mut k, CORE, a, 0, 3, 0xDEAD).unwrap();
        let v = HeapVerifier::new();
        let before = v.content_hash(&k, &mut h);
        // The demoted frame is zeroed; the hash must cover the slot's
        // real bytes, not the zeros.
        k.tier_demote_page(h.space(), a.0).unwrap();
        assert_eq!(k.far_tier().unwrap().far_count(), 1);
        assert_eq!(v.content_hash(&k, &mut h), before);
    }
}
