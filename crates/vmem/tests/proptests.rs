//! Property tests: the page table against a model, and PTE swapping as a
//! permutation of the mapping.
//!
//! Offline std-only: each property runs over many cases drawn from the
//! deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated inputs, so it
//! reproduces from the message alone.

use std::collections::HashMap;
use svagc_metrics::SimRng;
use svagc_vmem::{FrameId, PageTable, Pte, PteFlags, VirtAddr, VmError};

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

/// A random-but-valid virtual page address across several table
/// subtrees: a few PGD/PUD/PMD indices and any PTE index.
fn arb_va(rng: &mut SimRng) -> VirtAddr {
    let (pgd, pud) = (rng.gen_range(0..4u64), rng.gen_range(0..4u64));
    let (pmd, pte) = (rng.gen_range(0..8u64), rng.gen_range(0..512u64));
    VirtAddr((pgd << 39) | (pud << 30) | (pmd << 21) | (pte << 12))
}

/// The page table behaves exactly like a `HashMap<vpn, frame>` under any
/// sequence of maps, unmaps and translations.
#[test]
fn page_table_matches_model() {
    check("page_table_matches_model", 0x6_0000, 128, |rng| {
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        let ops = rng.gen_range(1..200usize);
        for op in 0..ops {
            let va = arb_va(rng);
            let ok = match rng.gen_range(0..3u32) {
                0 => {
                    let frame = rng.gen_range(1..10_000u32);
                    let r = pt.map(va, Pte::map(FrameId(frame), PteFlags::WRITABLE));
                    match model.entry(va.vpn()) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(frame);
                            r.is_ok()
                        }
                        _ => r == Err(VmError::AlreadyMapped(va)),
                    }
                }
                1 => {
                    let r = pt.unmap(va);
                    match model.remove(&va.vpn()) {
                        Some(f) => r.is_ok_and(|pte| pte.frame() == FrameId(f)),
                        None => r.is_err(),
                    }
                }
                _ => {
                    let r = pt.translate(va);
                    match model.get(&va.vpn()) {
                        Some(&f) => r.is_ok_and(|pa| {
                            pa.frame() == FrameId(f) && pa.frame_offset() == va.page_offset()
                        }),
                        None => r.is_err(),
                    }
                }
            };
            if !ok || pt.mapped_pages() != model.len() as u64 {
                return Err(format!("op {op} at {va:?} diverged from the model"));
            }
        }
        Ok(())
    });
}

/// Any sequence of PTE swaps permutes the frame assignment: the same
/// multiset of frames stays mapped, just under different pages.
#[test]
fn swaps_are_permutations() {
    check("swaps_are_permutations", 0x6_1000, 128, |rng| {
        let pages = rng.gen_range(2..40u64);
        let base = VirtAddr(0x4000_0000);
        let mut pt = PageTable::new();
        for i in 0..pages {
            pt.map(base.add_pages(i), Pte::map(FrameId(i as u32 + 100), PteFlags::WRITABLE))
                .unwrap();
        }
        let mut model: Vec<u32> = (0..pages as u32).map(|i| i + 100).collect();
        let swaps: Vec<(u64, u64)> = (0..rng.gen_range(1..60usize))
            .map(|_| (rng.gen_range(0..pages), rng.gen_range(0..pages)))
            .collect();
        for &(i, j) in &swaps {
            pt.swap_ptes(base.add_pages(i), base.add_pages(j)).unwrap();
            model.swap(i as usize, j as usize);
        }
        for i in 0..pages {
            let frame = pt.pte(base.add_pages(i)).unwrap().frame();
            if frame != FrameId(model[i as usize]) {
                return Err(format!("pages={pages} swaps={swaps:?}: page {i} maps {frame:?}"));
            }
        }
        match pt.mapped_pages() {
            n if n == pages => Ok(()),
            n => Err(format!("pages={pages} swaps={swaps:?}: {n} pages mapped")),
        }
    });
}

/// Alignment helpers round-trip: align_down(va) <= va <= align_up(va),
/// both page-aligned, within one page of the original.
#[test]
fn alignment_laws() {
    check("alignment_laws", 0x6_2000, 512, |rng| {
        let va = VirtAddr(rng.gen_range(0..(1u64 << 47)));
        let (down, up) = (va.align_down(), va.align_up());
        let holds = down.is_page_aligned()
            && up.is_page_aligned()
            && down <= va
            && va <= up
            && va - down < 4096
            && up - va < 4096
            && va.is_page_aligned() == (down == up);
        if holds {
            Ok(())
        } else {
            Err(format!("{va:?}: down {down:?}, up {up:?}"))
        }
    });
}
