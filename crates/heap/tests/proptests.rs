//! Property tests of the allocator: objects never overlap, Algorithm 3's
//! alignment invariants hold for arbitrary allocation sequences, and the
//! bidirectional TLAB keeps species separated. Plus the content hash:
//! its page-slice fold equals a per-word reference on any heap.
//!
//! Offline std-only: each property runs over many cases drawn from the
//! deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated inputs, so it
//! reproduces from the message alone.

use svagc_heap::{
    Heap, HeapConfig, HeapError, HeapVerifier, ObjHeader, ObjShape, TlabAllocator, HEADER_WORDS,
};
use svagc_kernel::{CoreId, FarDevice, FarTier, Kernel, RetryPolicy};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{Asid, PAGE_SIZE, WORD_BYTES};

const CORE: CoreId = CoreId(0);

/// Run `property` on `cases` generated cases. Case `i` draws its inputs
/// from `SimRng::seed_from_u64(base_seed + i)`; a failure reports that
/// seed and the property's description of the case.
fn check(
    name: &str,
    base_seed: u64,
    cases: u64,
    property: impl Fn(&mut SimRng) -> Result<(), String>,
) {
    for i in 0..cases {
        let seed = base_seed + i;
        if let Err(case) = property(&mut SimRng::seed_from_u64(seed)) {
            panic!("property `{name}` failed on case {i} (seed {seed:#x}): {case}");
        }
    }
}

fn setup(bytes: u64) -> (Kernel, Heap) {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), bytes + (1 << 20));
    let h = Heap::new(&mut k, Asid(1), HeapConfig::new(bytes)).unwrap();
    (k, h)
}

/// Up to `max` shapes, each small or large (at/above the 10-page
/// threshold) with equal odds.
fn arb_shapes(rng: &mut SimRng, max: usize) -> Vec<ObjShape> {
    (0..rng.gen_range(1..max))
        .map(|_| {
            if rng.gen_bool(0.5) {
                ObjShape::with_refs(rng.gen_range(0..4u32), rng.gen_range(1..200u32))
            } else {
                ObjShape::data_bytes(rng.gen_range(10 * PAGE_SIZE..20 * PAGE_SIZE))
            }
        })
        .collect()
}

/// Shared-space allocation: objects are disjoint, in order, and every
/// large object is page-aligned on both sides.
#[test]
fn shared_alloc_invariants() {
    check("shared_alloc_invariants", 0x7_0000, 48, |rng| {
        let shapes = arb_shapes(rng, 60);
        let (mut k, mut h) = setup(64 << 20);
        let mut placed: Vec<(u64, u64, bool)> = Vec::new();
        for &shape in &shapes {
            match h.alloc(&mut k, CORE, shape) {
                Ok((obj, _)) => {
                    let start = obj.0.get();
                    let large = h.is_large(shape);
                    if large && start % PAGE_SIZE != 0 {
                        return Err(format!("large object at {start:#x} is unaligned"));
                    }
                    placed.push((start, shape.size_bytes(), large));
                }
                Err(HeapError::NeedGc { .. }) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        // Disjoint and monotonically increasing; the object after a large
        // one starts at or after its aligned end.
        for w in placed.windows(2) {
            let ((s0, len0, large0), (s1, _, _)) = (w[0], w[1]);
            let aligned_end = (s0 + len0).next_multiple_of(PAGE_SIZE);
            if s0 + len0 > s1 || (large0 && s1 % PAGE_SIZE != 0 && s1 < aligned_end) {
                return Err(format!("{w:?} overlap or share a page; shapes {shapes:?}"));
            }
        }
        if h.used_bytes() > h.capacity() || h.object_count() != placed.len() {
            return Err(format!("heap accounting diverged; shapes {shapes:?}"));
        }
        Ok(())
    });
}

/// TLAB allocation: large objects stay page-aligned and objects never
/// overlap, however the two species interleave.
#[test]
fn tlab_alloc_invariants() {
    check("tlab_alloc_invariants", 0x7_1000, 48, |rng| {
        let shapes = arb_shapes(rng, 80);
        let (mut k, mut h) = setup(64 << 20);
        let mut alloc = TlabAllocator::new(1 << 20);
        let mut placed: Vec<(u64, u64)> = Vec::new();
        for &shape in &shapes {
            match alloc.alloc(&mut h, &mut k, CORE, shape) {
                Ok((obj, _)) => {
                    if h.is_large(shape) && obj.0.get() % PAGE_SIZE != 0 {
                        return Err(format!("large object at {:#x} is unaligned", obj.0.get()));
                    }
                    placed.push((obj.0.get(), shape.size_bytes()));
                }
                Err(HeapError::NeedGc { .. }) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        placed.sort_unstable();
        match placed.windows(2).find(|w| w[0].0 + w[0].1 > w[1].0) {
            None => Ok(()),
            Some(w) => Err(format!("{w:?} overlap; shapes {shapes:?}")),
        }
    });
}

/// Writing any in-bounds data word never clobbers the object's header or
/// its neighbour.
#[test]
fn data_writes_stay_in_bounds() {
    check("data_writes_stay_in_bounds", 0x7_2000, 96, |rng| {
        let num_refs = rng.gen_range(0..5u32);
        let data_words = rng.gen_range(1..300u32);
        let probe = rng.gen_range(0..data_words) as u64;
        let (mut k, mut h) = setup(4 << 20);
        let shape = ObjShape::with_refs(num_refs, data_words);
        let (a, _) = h.alloc(&mut k, CORE, shape).unwrap();
        let (b, _) = h.alloc(&mut k, CORE, ObjShape::data(4)).unwrap();
        h.write_data(&mut k, CORE, b, 0, 0, 0xB00).unwrap();
        h.write_data(&mut k, CORE, a, num_refs as u64, probe, 0xDADA).unwrap();
        let (hdr, _) = h.read_header(&mut k, CORE, a).unwrap();
        // The last word of `a` is adjacent to `b`'s header.
        let (hdr_b, _) = h.read_header(&mut k, CORE, b).unwrap();
        let b_word = h.read_data(&mut k, CORE, b, 0, 0).unwrap().0;
        let intact = hdr.size_words == shape.size_words()
            && hdr.num_refs == num_refs
            && hdr_b.size_words == ObjShape::data(4).size_words()
            && b_word == 0xB00;
        if intact {
            Ok(())
        } else {
            Err(format!("refs={num_refs} data={data_words} probe={probe}: neighbour clobbered"))
        }
    });
}

/// The per-word reference for [`HeapVerifier::content_hash`]: each word
/// read on its own through `Kernel::read_u64_tiered` and folded with a
/// spelled-out FNV-1a word step, in the same order (address, header,
/// payload past the forwarding word; `u64::MAX` for an unreadable word).
fn reference_hash(k: &Kernel, h: &mut Heap) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |w: u64| acc = (acc ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    let objects = h.objects_sorted().to_vec();
    for obj in objects {
        fold(obj.0.get());
        let Ok(raw) = k.read_u64_tiered(h.space(), obj.header_va()) else {
            fold(u64::MAX);
            continue;
        };
        fold(raw);
        for w in HEADER_WORDS..ObjHeader::decode(raw).size_words as u64 {
            let word = k.read_u64_tiered(h.space(), obj.0 + w * WORD_BYTES);
            fold(word.unwrap_or(u64::MAX));
        }
    }
    acc
}

/// How [`random_heap`] fills each object's words past the header.
#[derive(Clone, Copy)]
enum Payload {
    /// Every word random.
    Dense,
    /// Zero (as allocated) except 0–3 random words at random positions:
    /// the mostly-zero shape of real heap payloads.
    Sparse,
}

/// One random heap for the content-hash properties: small objects (some
/// straddling page boundaries), page-aligned large objects (some exactly
/// whole pages), payloads filled per `payload`.
fn random_heap(rng: &mut SimRng, payload: Payload) -> (Kernel, Heap, Vec<ObjShape>) {
    let (mut k, mut h) = setup(2 << 20);
    let tier = FarTier::new(FarDevice::new(512), RetryPolicy::default());
    k.set_far_tier(Some(tier));
    let mut shapes = Vec::new();
    for _ in 0..rng.gen_range(8..40usize) {
        let shape = match rng.gen_range(0..3u32) {
            0 => ObjShape::with_refs(rng.gen_range(0..4u32), rng.gen_range(1..700u32)),
            1 => ObjShape::data_bytes(rng.gen_range(10 * PAGE_SIZE..14 * PAGE_SIZE)),
            _ => ObjShape::data_bytes(rng.gen_range(10..14u64) * PAGE_SIZE - 16),
        };
        let Ok((obj, _)) = h.alloc(&mut k, CORE, shape) else {
            break;
        };
        shapes.push(shape);
        // The forwarding word too: the hash must skip it.
        let words = shape.size_words() as u64;
        let written: Vec<u64> = match payload {
            Payload::Dense => (1..words).collect(),
            Payload::Sparse => {
                let n = rng.gen_range(0..4u32);
                (0..n).map(|_| rng.gen_range(1..words)).collect()
            }
        };
        for w in written {
            let va = obj.0 + w * WORD_BYTES;
            k.vmem.write_u64(h.space(), va, rng.next_u64()).unwrap();
        }
    }
    (k, h, shapes)
}

/// The page-slice content hash equals the per-word reference on a heap
/// from [`random_heap`]: fully resident, with about 30 % of its pages
/// demoted (which must hash as their real bytes, so demotion leaves the
/// hash unchanged), and with an unmapped hole (the `u64::MAX` path).
fn hash_matches_reference_through_demotion(
    rng: &mut SimRng,
    (mut k, mut h, shapes): (Kernel, Heap, Vec<ObjShape>),
) -> Result<(), String> {
    let agree = |k: &Kernel, h: &mut Heap, stage: &str| {
        let fast = HeapVerifier::new().content_hash(k, h);
        let slow = reference_hash(k, h);
        if fast != slow {
            return Err(format!("{stage}: {fast:#x} != {slow:#x}; {shapes:?}"));
        }
        Ok(fast)
    };
    let resident = agree(&k, &mut h, "resident")?;

    let base = h.base();
    let pages = (h.top() - base).div_ceil(PAGE_SIZE);
    for i in (0..pages).filter(|_| rng.gen_bool(0.3)) {
        let demoted = k.tier_demote_page(h.space(), base.add_pages(i));
        demoted.map_err(|e| e.to_string())?;
    }
    if agree(&k, &mut h, "demoted")? != resident {
        return Err(format!("demotion changed the hash; shapes {shapes:?}"));
    }

    let hole = base.add_pages(rng.gen_range(0..pages));
    let table = h.space_mut().page_table_mut();
    table.unmap(hole).map_err(|e| e.to_string())?;
    if agree(&k, &mut h, "hole")? == resident {
        return Err(format!("unmapped {hole} left the hash; shapes {shapes:?}"));
    }
    Ok(())
}

/// On random heaps with every payload word random.
#[test]
fn content_hash_matches_reference() {
    check("content_hash_matches_reference", 0x7_3000, 32, |rng| {
        let heap = random_heap(rng, Payload::Dense);
        hash_matches_reference_through_demotion(rng, heap)
    });
}

/// On random heaps whose payloads are almost all zero, so the hash folds
/// mostly whole zero chunks and the few non-zero words land anywhere in a
/// chunk, in a page-boundary tail, or in a demoted page.
#[test]
fn content_hash_matches_reference_on_sparse_heaps() {
    check("content_hash_matches_reference_on_sparse_heaps", 0x7_4000, 32, |rng| {
        let heap = random_heap(rng, Payload::Sparse);
        hash_matches_reference_through_demotion(rng, heap)
    });
}
