//! Property tests of the allocator: objects never overlap, Algorithm 3's
//! alignment invariants hold for arbitrary allocation sequences, and the
//! bidirectional TLAB keeps species separated.
//!
//! Offline std-only: each property runs over many cases drawn from the
//! deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated inputs, so it
//! reproduces from the message alone.

use svagc_heap::{Heap, HeapConfig, HeapError, ObjShape, TlabAllocator};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{Asid, PAGE_SIZE};

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
