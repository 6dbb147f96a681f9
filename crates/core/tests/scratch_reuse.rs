//! A collector's reused scratch is invisible across heaps.
//!
//! Collectors keep their per-cycle working memory (mark bitmaps, the move
//! plan) from one cycle to the next and clear only what a cycle set. One
//! collector here collects two heaps of different base and extent in
//! turn, each of which has a twin collected by a fresh collector every
//! cycle: after every cycle the two must agree on the live count and on
//! the heap's content hash. With phase verification on, every cycle of
//! the full collector also passes the exact mark oracle.

use svagc_core::{Collector, ConcurrentCollector, GcConfig, GcCycleStats, Lisp2Collector, MinorGc};
use svagc_heap::{
    GenHeap, Heap, HeapConfig, HeapStats, HeapVerifier, ObjRef, ObjShape, RootId, RootSet,
};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{AddressSpace, Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);
const ROUNDS: usize = 4;

/// Where a [`World`] allocates, and the heap its content hash covers.
trait Space {
    fn alloc(&mut self, k: &mut Kernel, shape: ObjShape) -> ObjRef;
    fn heap(&mut self) -> &mut Heap;
}

impl Space for Heap {
    fn alloc(&mut self, k: &mut Kernel, shape: ObjShape) -> ObjRef {
        Heap::alloc(self, k, CORE, shape).unwrap().0
    }

    fn heap(&mut self) -> &mut Heap {
        self
    }
}

impl Space for GenHeap {
    fn alloc(&mut self, k: &mut Kernel, shape: ObjShape) -> ObjRef {
        self.alloc_young(k, CORE, shape).unwrap().0
    }

    fn heap(&mut self) -> &mut Heap {
        &mut self.old
    }
}

/// A heap with its machine and roots, churned by a seeded mutator.
struct World<H> {
    k: Kernel,
    h: H,
    roots: RootSet,
    ids: Vec<RootId>,
    rng: SimRng,
}

impl<H: Space> World<H> {
    fn new(k: Kernel, h: H, seed: u64) -> World<H> {
        World {
            k,
            h,
            roots: RootSet::new(),
            ids: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Drop about a third of the roots, then allocate small objects with
    /// refs into the rooted set and a few swap-sized ones, rooting some.
    fn churn(&mut self, large: bool) {
        for &id in &self.ids {
            if self.rng.gen_bool(0.35) {
                self.roots.set(id, ObjRef::NULL);
            }
        }
        // Targets: the rooted objects and everything allocated so far
        // this round (young-to-young edges for a scavenge to trace).
        let mut targets: Vec<ObjRef> = self.roots.iter_live().collect();
        for i in 0..24u64 {
            let big = large && i % 6 == 0;
            let shape = if big {
                ObjShape::data_bytes(12 * PAGE_SIZE)
            } else {
                ObjShape::with_refs(2, self.rng.gen_range(2..96u64) as u32)
            };
            let obj = self.h.alloc(&mut self.k, shape);
            let heap = self.h.heap();
            let stamp = self.rng.next_u64();
            heap.write_data(&mut self.k, CORE, obj, shape.num_refs as u64, 0, stamp)
                .unwrap();
            for f in 0..shape.num_refs as u64 {
                if !targets.is_empty() && self.rng.gen_bool(0.7) {
                    let tgt = targets[self.rng.gen_range(0..targets.len())];
                    heap.write_ref(&mut self.k, CORE, obj, f, tgt).unwrap();
                }
            }
            targets.push(obj);
            if self.rng.gen_bool(0.3) {
                self.ids.push(self.roots.push(obj));
            }
        }
    }

    fn hash(&mut self) -> u64 {
        HeapVerifier::new().content_hash(&self.k, self.h.heap())
    }
}

/// A heap of `bytes` at `shift` pages above the space's first address.
fn shifted_heap(bytes: u64, shift: u64) -> (Kernel, Heap) {
    let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), bytes + (8 << 20));
    let mut space = AddressSpace::new(Asid(1));
    space.reserve_pages(shift);
    let pages = bytes / PAGE_SIZE;
    let base = k.vmem.alloc_region(&mut space, pages).unwrap();
    let h = Heap::rebuild(
        space,
        base,
        base.add_pages(pages),
        base,
        HeapConfig::new(bytes),
        Vec::new(),
        HeapStats::default(),
    );
    (k, h)
}

/// The two heaps: different base and extent.
const FULL_HEAPS: [(u64, u64); 2] = [(6 << 20, 0), (4 << 20, 300)];

fn full_world(i: usize) -> World<Heap> {
    let (bytes, shift) = FULL_HEAPS[i];
    let (k, h) = shifted_heap(bytes, shift);
    World::new(k, h, 0x5C4A_7C00 + i as u64)
}

fn check_cycle(what: &str, round: usize, i: usize, s: &GcCycleStats, fresh: &GcCycleStats) {
    let at = format!("{what}: round {round}, heap {i}");
    assert_eq!(s.verify_violations, 0, "{at}: phase verification failed");
    assert_eq!(s.aborts, 0, "{at}: the cycle aborted");
    assert_eq!(
        s.live_objects, fresh.live_objects,
        "{at}: live set differs from a fresh collector"
    );
    assert_eq!(s.dead_objects, fresh.dead_objects, "{at}");
}

/// One full collector over both heaps in turn, against fresh collectors.
fn full_collector_is_invisible(what: &str, make: impl Fn() -> Box<dyn Collector>) {
    let mut shared = make();
    let mut worlds = [full_world(0), full_world(1)];
    let mut twins = [full_world(0), full_world(1)];
    for round in 0..ROUNDS {
        for i in 0..2 {
            let (w, t) = (&mut worlds[i], &mut twins[i]);
            w.churn(true);
            t.churn(true);
            let s = shared.collect(&mut w.k, &mut w.h, &mut w.roots).unwrap();
            let fresh = make().collect(&mut t.k, &mut t.h, &mut t.roots).unwrap();
            check_cycle(what, round, i, &s, &fresh);
            assert!(s.live_objects > 0);
            assert_eq!(
                w.hash(),
                t.hash(),
                "{what}: round {round}, heap {i}: heap content differs"
            );
        }
    }
}

#[test]
fn lisp2_scratch_is_invisible_across_heaps() {
    full_collector_is_invisible("LISP2", || {
        Box::new(Lisp2Collector::new(
            GcConfig::svagc(4).with_verify_phases(true),
        ))
    });
}

#[test]
fn concurrent_scratch_is_invisible_across_heaps() {
    full_collector_is_invisible("concurrent", || {
        let inner = Lisp2Collector::new(GcConfig::svagc(4).with_verify_phases(true));
        Box::new(ConcurrentCollector::new(inner))
    });
}

/// The two generational heaps: eden at a different base and extent.
const GEN_HEAPS: [(u64, u64); 2] = [(8 << 20, 2 << 20), (5 << 20, 1 << 20)];

fn gen_world(i: usize) -> World<GenHeap> {
    let (old, eden) = GEN_HEAPS[i];
    let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), old + eden + (8 << 20));
    let gh = GenHeap::new(&mut k, Asid(1), old, eden, 10).unwrap();
    World::new(k, gh, 0x6E7_0000 + i as u64)
}

#[test]
fn minor_scratch_is_invisible_across_heaps() {
    let mut shared = MinorGc::new(GcConfig::svagc(2));
    let mut worlds = [gen_world(0), gen_world(1)];
    let mut twins = [gen_world(0), gen_world(1)];
    assert_ne!(worlds[0].h.eden_range(), worlds[1].h.eden_range());
    for round in 0..ROUNDS {
        for i in 0..2 {
            let (w, t) = (&mut worlds[i], &mut twins[i]);
            w.churn(false);
            t.churn(false);
            let s = shared.collect(&mut w.k, &mut w.h, &mut w.roots).unwrap();
            let fresh = MinorGc::new(GcConfig::svagc(2))
                .collect(&mut t.k, &mut t.h, &mut t.roots)
                .unwrap();
            let at = format!("minor: round {round}, heap {i}");
            assert!(s.promoted_objects > 0, "{at}");
            assert_eq!(
                s.promoted_objects, fresh.promoted_objects,
                "{at}: survivors differ"
            );
            assert_eq!(s.dead_young, fresh.dead_young, "{at}");
            assert_eq!(w.hash(), t.hash(), "{at}: old generation differs");
        }
    }
}
