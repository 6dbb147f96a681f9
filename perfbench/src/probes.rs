//! Layer probes: public calls timed on a standalone kernel, address space
//! and heap of their own, so no workload counter or state is touched.

use std::hint::black_box;

use svagc_heap::{Heap, HeapConfig, HeapVerifier, ObjRef, ObjShape};
use svagc_kernel::{CoreId, Kernel, SwapRequest, SwapVaOptions};
use svagc_metrics::{AccessKind, CacheHierarchy, MachineConfig, SimRng};
use svagc_vmem::{AddressSpace, Asid, Tlb, TlbConfig, TlbHit, VirtAddr, PAGE_SIZE};

use crate::clock::thread_cpu_ns;
use crate::median;

/// Host nanoseconds per operation of each probed call.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub walk_ns: f64,
    pub tlb_lookup_ns: f64,
    pub translate_ns: f64,
    pub cache_access_ns: f64,
    pub swap_va_batch_ns_per_page: f64,
    pub memmove_ns_per_kib: f64,
    pub content_hash_ns_per_object: f64,
}

impl Probes {
    /// Every reading multiplied by `k` (the host-speed scale).
    pub fn scaled(self, k: f64) -> Probes {
        Probes {
            walk_ns: self.walk_ns * k,
            tlb_lookup_ns: self.tlb_lookup_ns * k,
            translate_ns: self.translate_ns * k,
            cache_access_ns: self.cache_access_ns * k,
            swap_va_batch_ns_per_page: self.swap_va_batch_ns_per_page * k,
            memmove_ns_per_kib: self.memmove_ns_per_kib * k,
            content_hash_ns_per_object: self.content_hash_ns_per_object * k,
        }
    }
}

const BATCHES: usize = 7;
const WALK_PAGES: u64 = 4096;

/// Median over [`BATCHES`] of CPU ns per unit; `batch` returns the units
/// of work it did.
fn ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm-up
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = thread_cpu_ns();
            let units = batch();
            (thread_cpu_ns() - t0) as f64 / units as f64
        })
        .collect();
    median(&samples)
}

/// A shuffled visiting order over `n` items (defeats prefetch-friendly
/// sequential access while staying deterministic).
fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    let mut rng = SimRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

pub fn run(machine: &MachineConfig) -> Probes {
    // Translation-path probes over one mapped region.
    let mut k = Kernel::new(machine.clone(), (WALK_PAGES + 64) as u32);
    let mut space = AddressSpace::new(Asid(1));
    let base = k
        .vmem
        .alloc_region(&mut space, WALK_PAGES)
        .expect("probe frames");
    let vas: Vec<VirtAddr> = shuffled(WALK_PAGES, 1)
        .into_iter()
        .map(|i| base.add_pages(i))
        .collect();

    let walk_ns = ns_per_unit(|| {
        for _ in 0..16 {
            for &va in &vas {
                black_box(space.page_table().translate(black_box(va)).expect("mapped"));
            }
        }
        16 * WALK_PAGES
    });

    let mut tlb = Tlb::new(TlbConfig::skylake());
    let tlb_lookup_ns = ns_per_unit(|| {
        for _ in 0..16 {
            for &va in &vas[..2048] {
                let (hit, _) = tlb.lookup(Asid(1), black_box(va.vpn()));
                if hit == TlbHit::Miss {
                    tlb.insert(
                        Asid(1),
                        va.vpn(),
                        space.translate(va).expect("mapped").frame(),
                    );
                }
            }
        }
        16 * 2048
    });

    let translate_ns = ns_per_unit(|| {
        for _ in 0..16 {
            for &va in &vas[..2048] {
                black_box(
                    k.translate(&space, CoreId(0), black_box(va))
                        .expect("mapped"),
                );
            }
        }
        16 * 2048
    });

    let mut cache = CacheHierarchy::new(&machine.cache);
    // Sequential lines over 2 MiB: the streaming pattern of the mutator's
    // `compute_over`, which issues nearly all cache accesses.
    let lines: Vec<u64> = (0..1u64 << 15).map(|l| l * 64).collect();
    let cache_access_ns = ns_per_unit(|| {
        for &a in &lines {
            black_box(cache.access(black_box(a), AccessKind::Read));
        }
        lines.len() as u64
    });

    let memmove_ns_per_kib = {
        const PAGES: u64 = 16;
        let a = k
            .vmem
            .alloc_region(&mut space, PAGES)
            .expect("probe frames");
        let b = k
            .vmem
            .alloc_region(&mut space, PAGES)
            .expect("probe frames");
        ns_per_unit(|| {
            for _ in 0..32 {
                k.memmove(&space, CoreId(0), a, b, PAGES * PAGE_SIZE)
                    .expect("mapped");
                k.memmove(&space, CoreId(0), b, a, PAGES * PAGE_SIZE)
                    .expect("mapped");
            }
            64 * PAGES * PAGE_SIZE / 1024
        })
    };

    let (swap_va_batch_ns_per_page, content_hash_ns_per_object) = heap_probes(machine);
    Probes {
        walk_ns,
        tlb_lookup_ns,
        translate_ns,
        cache_access_ns,
        swap_va_batch_ns_per_page,
        memmove_ns_per_kib,
        content_hash_ns_per_object,
    }
}

/// SwapVA batches and the content hash on a probe heap. Every batch is
/// followed by the inverse batch, and the heap's content hash must come
/// out unchanged.
fn heap_probes(machine: &MachineConfig) -> (f64, f64) {
    const LARGE: usize = 64;
    const LARGE_PAGES: u64 = 16;
    const SMALL: usize = 2000;
    let mut k = Kernel::with_bytes(machine.clone(), 40 << 20);
    let mut heap = Heap::new(
        &mut k,
        Asid(2),
        HeapConfig::new(32 << 20).with_alignment(true),
    )
    .expect("probe heap");
    let large = ObjShape::data_bytes(LARGE_PAGES * PAGE_SIZE);
    let small = ObjShape::with_refs(1, 64);
    let stamp = |k: &mut Kernel, heap: &mut Heap, shape: ObjShape, seed: u64| -> ObjRef {
        let (obj, _) = heap
            .alloc(k, CoreId(0), shape)
            .expect("probe heap has room");
        let words = u64::from(shape.data_words);
        let refs = u64::from(shape.num_refs);
        heap.write_data(k, CoreId(0), obj, refs, 0, seed)
            .expect("mapped");
        heap.write_data(k, CoreId(0), obj, refs, words - 1, !seed)
            .expect("mapped");
        obj
    };
    let larges: Vec<ObjRef> = (0..LARGE)
        .map(|i| stamp(&mut k, &mut heap, large, i as u64 + 1))
        .collect();
    for i in 0..SMALL {
        stamp(&mut k, &mut heap, small, 1_000_000 + i as u64);
    }
    let verifier = HeapVerifier::new();
    let before = verifier.content_hash(&k, &mut heap);

    let reqs: Vec<SwapRequest> = larges
        .chunks_exact(2)
        .map(|p| SwapRequest {
            a: p[0].0,
            b: p[1].0,
            pages: LARGE_PAGES,
        })
        .collect();
    let pages_per_batch = reqs.len() as u64 * LARGE_PAGES;
    let swap = |k: &mut Kernel, heap: &mut Heap| {
        k.swap_va_batch(heap.space_mut(), CoreId(0), &reqs, SwapVaOptions::pinned())
            .expect("probe swap");
    };
    swap(&mut k, &mut heap);
    assert_ne!(
        before,
        verifier.content_hash(&k, &mut heap),
        "the swap probe swaps contents"
    );
    swap(&mut k, &mut heap);
    let swap_ns = ns_per_unit(|| {
        // Each batch is its own inverse: every swap is swapped back.
        for _ in 0..16 {
            swap(&mut k, &mut heap);
        }
        16 * pages_per_batch
    });
    let after = verifier.content_hash(&k, &mut heap);
    assert_eq!(
        before, after,
        "the swap probe must leave the probe heap unchanged"
    );

    let objects = heap.object_count() as u64;
    let hash_ns = ns_per_unit(|| {
        for _ in 0..4 {
            black_box(verifier.content_hash(&k, &mut heap));
        }
        4 * objects
    });
    (swap_ns, hash_ns)
}
