//! Property tests of SwapVA: content exchange for arbitrary disjoint
//! ranges, aggregation equivalence, and memmove correctness under
//! arbitrary overlap, plus deterministic edge cases random sampling is
//! unlikely to hit. (Overlap rotation has its own suite in
//! `overlap_rotation_props.rs`; the disjoint-swap involution is
//! `swapva::tests::swap_is_involutive`.)
//!
//! Offline std-only: each property runs over many cases drawn from the
//! deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated inputs, so it
//! reproduces from the message alone.

use svagc_kernel::{CoreId, Kernel, SwapRequest, SwapVaOptions};
use svagc_metrics::{Cycles, MachineConfig, SimRng};
use svagc_vmem::{AddressSpace, Asid, FrameId, Pte, PteFlags, VirtAddr};

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

fn setup(frames: u32) -> (Kernel, AddressSpace) {
    (
        Kernel::new(MachineConfig::i5_7600(), frames),
        AddressSpace::new(Asid(1)),
    )
}

fn stamp_pages(k: &mut Kernel, s: &AddressSpace, base: VirtAddr, pages: u64, tag: u64) {
    for i in 0..pages {
        k.vmem.write_u64(s, base.add_pages(i), tag + i).unwrap();
    }
}

/// A disjoint swap exchanges page contents exactly, for any size, and
/// copies no byte.
#[test]
fn disjoint_swap_exchanges() {
    check("disjoint_swap_exchanges", 0x5_0000, 64, |rng| {
        let pages = rng.gen_range(1..50u64);
        let (mut k, mut s) = setup(2 * 50 + 8);
        let a = k.vmem.alloc_region(&mut s, pages).unwrap();
        let b = k.vmem.alloc_region(&mut s, pages).unwrap();
        stamp_pages(&mut k, &s, a, pages, 1_000);
        stamp_pages(&mut k, &s, b, pages, 9_000);
        let req = SwapRequest { a, b, pages };
        k.swap_va(&mut s, CORE, req, SwapVaOptions::naive())
            .unwrap();
        for i in 0..pages {
            let (va, vb) = (
                k.vmem.read_u64(&s, a.add_pages(i)).unwrap(),
                k.vmem.read_u64(&s, b.add_pages(i)).unwrap(),
            );
            if (va, vb) != (9_000 + i, 1_000 + i) {
                return Err(format!("pages={pages}: page {i} holds ({va}, {vb})"));
            }
        }
        match k.perf.bytes_copied {
            0 => Ok(()),
            n => Err(format!("pages={pages}: {n} bytes copied")),
        }
    });
}

/// A batch call is functionally identical to issuing its requests one by
/// one, and cheaper by exactly the saved syscall entries and flushes.
#[test]
fn aggregation_equivalence() {
    check("aggregation_equivalence", 0x6_0000, 64, |rng| {
        let sizes: Vec<u64> = (0..rng.gen_range(1..12usize))
            .map(|_| rng.gen_range(1..6u64))
            .collect();
        let total: u64 = sizes.iter().sum();
        let (mut k1, mut s1) = setup((2 * total + 8) as u32);
        let (mut k2, mut s2) = setup((2 * total + 8) as u32);
        let mut reqs1 = Vec::new();
        let mut reqs2 = Vec::new();
        for (idx, &pages) in sizes.iter().enumerate() {
            let a1 = k1.vmem.alloc_region(&mut s1, pages).unwrap();
            let b1 = k1.vmem.alloc_region(&mut s1, pages).unwrap();
            let a2 = k2.vmem.alloc_region(&mut s2, pages).unwrap();
            let b2 = k2.vmem.alloc_region(&mut s2, pages).unwrap();
            stamp_pages(&mut k1, &s1, a1, pages, idx as u64 * 100);
            stamp_pages(&mut k2, &s2, a2, pages, idx as u64 * 100);
            reqs1.push(SwapRequest {
                a: a1,
                b: b1,
                pages,
            });
            reqs2.push(SwapRequest {
                a: a2,
                b: b2,
                pages,
            });
        }
        let opts = SwapVaOptions::pinned();
        let mut separated = Cycles::ZERO;
        for r in &reqs1 {
            separated += k1.swap_va(&mut s1, CORE, *r, opts).unwrap().0;
        }
        let (aggregated, _) = k2.swap_va_batch(&mut s2, CORE, &reqs2, opts).unwrap();
        for (r1, r2) in reqs1.iter().zip(&reqs2) {
            for i in 0..r1.pages {
                let v1 = k1.vmem.read_u64(&s1, r1.b.add_pages(i)).unwrap();
                let v2 = k2.vmem.read_u64(&s2, r2.b.add_pages(i)).unwrap();
                if v1 != v2 {
                    return Err(format!("sizes={sizes:?}: contents differ ({v1} vs {v2})"));
                }
            }
        }
        // Aggregation saves (n-1) syscall entries and local flushes.
        let saved = separated.get() as i64 - aggregated.get() as i64;
        let expected = (reqs1.len() as i64 - 1)
            * (k1.machine.costs.syscall_entry_exit + k1.machine.costs.tlb_flush_local) as i64;
        if saved == expected {
            Ok(())
        } else {
            Err(format!(
                "sizes={sizes:?}: saved {saved} cycles, expected {expected}"
            ))
        }
    });
}

/// memmove is byte-exact for any length and any (possibly overlapping)
/// src/dst offsets.
#[test]
fn memmove_byte_exact() {
    check("memmove_byte_exact", 0x7_0000, 64, |rng| {
        let src_off = rng.gen_range(0..8_000u64);
        let dst_off = rng.gen_range(0..8_000u64);
        let len = rng
            .gen_range(1..20_000u64)
            .min(8 * 4096 - src_off.max(dst_off));
        let (mut k, mut s) = setup(64);
        let region = k.vmem.alloc_region(&mut s, 8).unwrap();
        let data: Vec<u8> = (0..len).map(|x| (x * 31 % 251) as u8).collect();
        k.vmem.write_bytes(&s, region + src_off, &data).unwrap();
        k.memmove(&s, CORE, region + src_off, region + dst_off, len)
            .unwrap();
        let mut out = vec![0u8; len as usize];
        k.vmem.read_bytes(&s, region + dst_off, &mut out).unwrap();
        match out.iter().zip(&data).position(|(o, d)| o != d) {
            None => Ok(()),
            Some(at) => Err(format!(
                "len={len} src_off={src_off} dst_off={dst_off}: first wrong byte at {at}"
            )),
        }
    });
}

/// Ranges in different PGD subtrees (512 GiB apart): the walk crosses
/// every table level and the PMD caches never help across operands.
#[test]
fn swap_across_pgd_subtrees() {
    let (mut k, mut s) = setup(64);
    // Map 4 pages at two far-apart canonical addresses by hand.
    let a = VirtAddr(1u64 << 39);
    let b = VirtAddr(3u64 << 39);
    for i in 0..4u64 {
        let fa = k.vmem.frames.alloc().unwrap();
        let fb = k.vmem.frames.alloc().unwrap();
        s.page_table_mut()
            .map(a.add_pages(i), Pte::map(fa, PteFlags::WRITABLE))
            .unwrap();
        s.page_table_mut()
            .map(b.add_pages(i), Pte::map(fb, PteFlags::WRITABLE))
            .unwrap();
        k.vmem.write_u64(&s, a.add_pages(i), 100 + i).unwrap();
        k.vmem.write_u64(&s, b.add_pages(i), 200 + i).unwrap();
    }
    let req = SwapRequest { a, b, pages: 4 };
    assert!(!req.overlaps());
    k.swap_va(&mut s, CORE, req, SwapVaOptions::naive())
        .unwrap();
    for i in 0..4u64 {
        assert_eq!(k.vmem.read_u64(&s, a.add_pages(i)).unwrap(), 200 + i);
        assert_eq!(k.vmem.read_u64(&s, b.add_pages(i)).unwrap(), 100 + i);
    }
    // Each operand materialized its own PUD, PMD and PTE table.
    assert!(s.page_table().tables_allocated() >= 6);
}

/// The fully unoptimized configuration (no PMD cache, no overlap
/// support, global flushes) still swaps disjoint ranges correctly and
/// costs strictly more than the optimized one.
#[test]
fn unoptimized_is_correct_and_slower() {
    let (mut k1, mut s1) = setup(2 * 64 + 8);
    let a1 = k1.vmem.alloc_region(&mut s1, 64).unwrap();
    let b1 = k1.vmem.alloc_region(&mut s1, 64).unwrap();
    stamp_pages(&mut k1, &s1, a1, 64, 10);
    let req1 = SwapRequest {
        a: a1,
        b: b1,
        pages: 64,
    };
    let (slow, _) = k1
        .swap_va(&mut s1, CORE, req1, SwapVaOptions::unoptimized())
        .unwrap();
    for i in 0..64 {
        assert_eq!(k1.vmem.read_u64(&s1, b1.add_pages(i)).unwrap(), 10 + i);
    }

    let (mut k2, mut s2) = setup(2 * 64 + 8);
    let a2 = k2.vmem.alloc_region(&mut s2, 64).unwrap();
    let b2 = k2.vmem.alloc_region(&mut s2, 64).unwrap();
    let req2 = SwapRequest {
        a: a2,
        b: b2,
        pages: 64,
    };
    let (fast, _) = k2
        .swap_va(&mut s2, CORE, req2, SwapVaOptions::pinned())
        .unwrap();
    assert!(slow.get() > fast.get(), "unopt {slow} vs opt {fast}");
}

/// A swap over a range that straddles a PMD boundary (the 512-page
/// line): the per-operand PMD cache misses only once per PTE table.
#[test]
fn swap_straddling_pmd_boundary() {
    let (mut k, mut s) = setup(3000);
    // 600 pages per operand, so each range crosses a 2 MiB boundary.
    let a = k.vmem.alloc_region(&mut s, 600).unwrap();
    let b = k.vmem.alloc_region(&mut s, 600).unwrap();
    stamp_pages(&mut k, &s, a, 600, 5_000);
    stamp_pages(&mut k, &s, b, 600, 9_000);
    let req = SwapRequest { a, b, pages: 600 };
    k.swap_va(&mut s, CORE, req, SwapVaOptions::pinned())
        .unwrap();
    for i in (0..600).step_by(97) {
        assert_eq!(k.vmem.read_u64(&s, a.add_pages(i)).unwrap(), 9_000 + i);
        assert_eq!(k.vmem.read_u64(&s, b.add_pages(i)).unwrap(), 5_000 + i);
    }
    // Each operand: 600 walks, of which at most a handful are full (one
    // per PTE table crossed), the rest PMD-cache hits.
    assert!(k.perf.pmd_cache_hits >= 2 * (600 - 4));
}

/// Frame 0 is a valid frame, not a sentinel: it swaps like any other.
#[test]
fn frame_zero_is_swappable() {
    let (mut k, mut s) = setup(8);
    // The first region gets frame 0.
    let a = k.vmem.alloc_region(&mut s, 1).unwrap();
    let b = k.vmem.alloc_region(&mut s, 1).unwrap();
    assert_eq!(s.page_table().pte(a).unwrap().frame(), FrameId(0));
    k.vmem.write_u64(&s, a, 0xF0).unwrap();
    k.vmem.write_u64(&s, b, 0xF1).unwrap();
    let req = SwapRequest { a, b, pages: 1 };
    k.swap_va(&mut s, CORE, req, SwapVaOptions::naive())
        .unwrap();
    assert_eq!(s.page_table().pte(b).unwrap().frame(), FrameId(0));
    assert_eq!(k.vmem.read_u64(&s, a).unwrap(), 0xF1);
    assert_eq!(k.vmem.read_u64(&s, b).unwrap(), 0xF0);
}
