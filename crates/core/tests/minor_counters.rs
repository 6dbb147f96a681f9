//! Regression tests pinning two minor-GC accounting fixes:
//!
//! 1. **Card-scan dedupe** — an old object overlapping several dirty cards
//!    used to be scanned once per card, double-pushing its young-pointing
//!    slots into the adjust list and double-charging scan cycles.
//! 2. **Promotion rebooking** — the two `swapped_objects` rebooking sites
//!    (mid-loop batch flush and the final partial batch) operate on
//!    disjoint batches, so `swapped + fallbacks` must always equal the
//!    number of swap-attempted survivors, even when both sites see
//!    fallbacks within one scavenge.

use svagc_core::{GcConfig, MinorGc};
use svagc_heap::{GenHeap, ObjShape, RootSet, CARD_BYTES};
use svagc_kernel::{CoreId, FaultConfig, FaultPlan, Kernel};
use svagc_metrics::MachineConfig;
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);

fn setup(old_mb: u64, eden_mb: u64) -> (Kernel, GenHeap, RootSet) {
    let mut k = Kernel::with_bytes(
        MachineConfig::xeon_gold_6130(),
        (old_mb + eden_mb + 8) << 20,
    );
    let gh = GenHeap::new(&mut k, Asid(1), old_mb << 20, eden_mb << 20, 10).unwrap();
    (k, gh, RootSet::new())
}

#[test]
fn object_spanning_two_dirty_cards_is_scanned_once() {
    let (mut k, mut gh, mut roots) = setup(32, 8);
    // One old holder whose reference fields span well over two cards
    // (160 refs x 8 B = 1280 B > 2 x 512 B cards).
    let (holder, _) = gh
        .old
        .alloc(&mut k, CORE, ObjShape::with_refs(160, 2))
        .unwrap();
    let (young_a, _) = gh.alloc_young(&mut k, CORE, ObjShape::data(4)).unwrap();
    let (young_b, _) = gh.alloc_young(&mut k, CORE, ObjShape::data(4)).unwrap();
    // Dirty the first and the last field's cards: both overlap `holder`.
    gh.write_ref_barrier(&mut k, CORE, holder, 0, young_a).unwrap();
    gh.write_ref_barrier(&mut k, CORE, holder, 159, young_b).unwrap();
    assert!(
        holder.ref_field_va(159) - holder.ref_field_va(0) >= 2 * CARD_BYTES,
        "the two dirtied fields must land on distinct cards"
    );
    assert_eq!(gh.cards.dirty_count(), 2);

    let mut gc = MinorGc::new(GcConfig::svagc(2));
    let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.scanned_cards, 2);
    assert_eq!(
        stats.scanned_objects, 1,
        "a holder overlapping both dirty cards must be scanned exactly once"
    );
    // Both young targets survived via the remembered set and the holder's
    // fields were forwarded into the old generation (adjusted once each).
    assert_eq!(stats.promoted_objects, 2);
    let (a, _) = gh.old.read_ref(&mut k, CORE, holder, 0).unwrap();
    let (b, _) = gh.old.read_ref(&mut k, CORE, holder, 159).unwrap();
    assert!(gh.in_old(a.0) && gh.in_old(b.0));
    assert_ne!(a, b);
    assert_ne!(a, young_a, "field 0 must point at the promoted copy");
}

#[test]
fn dedup_only_skips_already_scanned_prefixes() {
    // Two separate holders on two separate dirty cards must both still be
    // scanned — the dedupe only suppresses re-visits, not later objects.
    let (mut k, mut gh, mut roots) = setup(32, 8);
    let mut holders = Vec::new();
    for _ in 0..2 {
        // Pad between holders so each sits on its own card.
        gh.old.alloc(&mut k, CORE, ObjShape::data(128)).unwrap();
        let (h, _) = gh.old.alloc(&mut k, CORE, ObjShape::with_refs(2, 2)).unwrap();
        holders.push(h);
    }
    for &h in &holders {
        let (y, _) = gh.alloc_young(&mut k, CORE, ObjShape::data(4)).unwrap();
        gh.write_ref_barrier(&mut k, CORE, h, 0, y).unwrap();
    }
    assert_eq!(gh.cards.dirty_count(), 2);
    let mut gc = MinorGc::new(GcConfig::svagc(2));
    let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.promoted_objects, 2);
    // Each dirty card's scan starts from the object at or before the card,
    // so the data padding ahead of a holder may be inspected too — but
    // every holder is inspected and none twice.
    assert!(stats.scanned_objects >= 2);
    assert!(stats.scanned_objects <= 4);
}

#[test]
fn promotion_rebooking_pins_swapped_plus_fallbacks() {
    // 16-page survivors with aggregation cap 4: several mid-loop batch
    // flushes plus a final partial batch in the same scavenge. Permanent
    // faults (EINVAL/ENOMEM) demote a deterministic subset to memmove at
    // both rebooking sites; the counter must rebook each attempt exactly
    // once: swapped + fallbacks == attempted.
    let mut k = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 512 << 20);
    k.set_fault_plan(Some(FaultPlan::new(FaultConfig::permanent_only(0.4, 77))));
    let mut gh = GenHeap::new(&mut k, Asid(1), 256 << 20, 96 << 20, 10).unwrap();
    let mut roots = RootSet::new();
    let shape = ObjShape::data_bytes(16 * PAGE_SIZE - 16);
    let mut live = 0u64;
    for i in 0..42u64 {
        let (obj, _) = gh.alloc_young(&mut k, CORE, shape).unwrap();
        if i % 2 == 0 {
            roots.push(obj);
            live += 1;
        }
    }
    let mut cfg = GcConfig::svagc(4);
    cfg.aggregation = Some(4); // live = 21 -> 5 full flushes + a final batch of 1
    let mut gc = MinorGc::new(cfg);
    let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.promoted_objects, live);
    assert!(
        stats.swap_fallback_objects > 0,
        "0.4 permanent-fault rate over {live} swaps must demote some promotions"
    );
    assert!(
        stats.swapped_objects < live,
        "a fallback must rebook away from swapped_objects"
    );
    assert_eq!(
        stats.swapped_objects + stats.swap_fallback_objects,
        live,
        "every large survivor is swap-attempted exactly once; the two \
         rebooking sites must not double-subtract"
    );
}

#[test]
fn fault_free_scavenge_books_every_large_survivor_as_swapped() {
    let (mut k, mut gh, mut roots) = setup(256, 96);
    let shape = ObjShape::data_bytes(16 * PAGE_SIZE - 16);
    for i in 0..20u64 {
        let (obj, _) = gh.alloc_young(&mut k, CORE, shape).unwrap();
        if i % 2 == 0 {
            roots.push(obj);
        }
    }
    let mut cfg = GcConfig::svagc(4);
    cfg.aggregation = Some(4);
    let mut gc = MinorGc::new(cfg);
    let stats = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    assert_eq!(stats.promoted_objects, 10);
    assert_eq!(stats.swapped_objects, 10);
    assert_eq!(stats.swap_fallback_objects, 0);
}
