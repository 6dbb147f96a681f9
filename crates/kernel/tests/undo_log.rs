//! The undo pass on a live epoch: each kernel mutation records one
//! absolute pre-image before it applies, and `Kernel::wal_rollback`
//! installs them newest-first — restoring content *and* mapping exactly,
//! for every mutation kind and any interleaving of them. The last case
//! checks that a durable epoch frames the very same records, and that
//! the recovery pass (`Kernel::undo` over a log scan) restores what the
//! live rollback would.

use svagc_kernel::{
    CoreId, CrashPlan, CrashPoint, FaultConfig, FaultPlan, Kernel, RollbackError, SwapRequest,
    SwapVaOptions, WalOp, WalPayload,
};
use svagc_metrics::{Cycles, MachineConfig};
use svagc_vmem::{AddressSpace, Asid, VirtAddr, PAGE_SIZE};

fn setup(frames: u32) -> (Kernel, AddressSpace) {
    (
        Kernel::new(MachineConfig::i5_7600(), frames),
        AddressSpace::new(Asid(1)),
    )
}

fn fill(k: &mut Kernel, s: &AddressSpace, base: VirtAddr, pages: u64, tag: u64) {
    for i in 0..pages * 512 {
        k.vmem
            .write_u64(s, base + i * 8, tag * 1_000_000 + i)
            .unwrap();
    }
}

fn snapshot(k: &Kernel, s: &AddressSpace, base: VirtAddr, bytes: u64) -> Vec<u8> {
    let mut buf = vec![0u8; bytes as usize];
    k.vmem.read_bytes(s, base, &mut buf).unwrap();
    buf
}

/// Raw PTEs of `pages` pages at `base`.
fn mapping(s: &AddressSpace, base: VirtAddr, pages: u64) -> Vec<u64> {
    (0..pages)
        .map(|i| s.page_table().read_pte_raw(base.add_pages(i)).unwrap())
        .collect()
}

#[test]
fn rollback_undoes_disjoint_swaps() {
    let (mut k, mut s) = setup(128);
    let a = k.vmem.alloc_region(&mut s, 4).unwrap();
    let b = k.vmem.alloc_region(&mut s, 4).unwrap();
    fill(&mut k, &s, a, 4, 1);
    fill(&mut k, &s, b, 4, 2);
    let before_a = snapshot(&k, &s, a, 4 * PAGE_SIZE);
    let before_b = snapshot(&k, &s, b, 4 * PAGE_SIZE);
    assert_eq!(k.wal_cycle_begin(vec![]), None, "unarmed: a volatile epoch");
    k.swap_va(
        &mut s,
        CoreId(0),
        SwapRequest { a, b, pages: 4 },
        SwapVaOptions::naive(),
    )
    .unwrap();
    assert_ne!(snapshot(&k, &s, a, 4 * PAGE_SIZE), before_a);
    let (_, ops, pages) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!((ops, pages), (1, 8));
    assert_eq!(snapshot(&k, &s, a, 4 * PAGE_SIZE), before_a);
    assert_eq!(snapshot(&k, &s, b, 4 * PAGE_SIZE), before_b);
    assert_eq!(k.perf.rollback_pages, 8);
    // A volatile epoch costs the log nothing.
    assert_eq!(k.wal_stats().appends, 0);
}

#[test]
fn rollback_undoes_overlap_rotation_exactly() {
    // The rotation is NOT involutive: its record is the window's raw
    // PTEs, so the undo restores the exact mapping, not only content.
    let (mut k, mut s) = setup(128);
    let base = k.vmem.alloc_region(&mut s, 10).unwrap();
    fill(&mut k, &s, base, 10, 3);
    let before = snapshot(&k, &s, base, 10 * PAGE_SIZE);
    let map_before = mapping(&s, base, 10);
    // Slide 7 pages down by 3: ranges [3..10) -> [0..7) overlap.
    let req = SwapRequest {
        a: base,
        b: base.add_pages(3),
        pages: 7,
    };
    assert!(req.overlaps());
    k.wal_cycle_begin(vec![]);
    k.swap_va(&mut s, CoreId(0), req, SwapVaOptions::naive())
        .unwrap();
    assert_ne!(snapshot(&k, &s, base, 10 * PAGE_SIZE), before);
    let (_, ops, pages) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!((ops, pages), (1, 10));
    assert_eq!(snapshot(&k, &s, base, 10 * PAGE_SIZE), before);
    assert_eq!(mapping(&s, base, 10), map_before);
}

#[test]
fn rollback_undoes_memmove() {
    let (mut k, mut s) = setup(64);
    let a = k.vmem.alloc_region(&mut s, 2).unwrap();
    let b = k.vmem.alloc_region(&mut s, 2).unwrap();
    fill(&mut k, &s, a, 2, 5);
    fill(&mut k, &s, b, 2, 6);
    let before_b = snapshot(&k, &s, b, 2 * PAGE_SIZE);
    k.wal_cycle_begin(vec![]);
    k.memmove(&s, CoreId(0), a, b, 2 * PAGE_SIZE).unwrap();
    assert_ne!(snapshot(&k, &s, b, 2 * PAGE_SIZE), before_b);
    let (_, _, pages) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!(pages, 2);
    assert_eq!(snapshot(&k, &s, b, 2 * PAGE_SIZE), before_b);
}

#[test]
fn rollback_undoes_word_writes() {
    let (mut k, mut s) = setup(16);
    let a = k.vmem.alloc_region(&mut s, 1).unwrap();
    k.vmem.write_u64(&s, a, 111).unwrap();
    k.wal_cycle_begin(vec![]);
    k.write_word(&s, CoreId(0), a, 222).unwrap();
    k.write_word(&s, CoreId(0), a, 333).unwrap();
    let (_, ops, _) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!(ops, 2);
    assert_eq!(k.vmem.read_u64(&s, a).unwrap(), 111, "oldest value wins");
}

#[test]
fn rollback_composes_interleaved_ops_in_reverse() {
    // memmove into b, then swap a<->b, then rotate a window over a,
    // then scribble a word: the undo order (word, rotation, swap,
    // bytes) must restore the exact initial content and mapping.
    let (mut k, mut s) = setup(128);
    let a = k.vmem.alloc_region(&mut s, 4).unwrap();
    let b = k.vmem.alloc_region(&mut s, 4).unwrap();
    fill(&mut k, &s, a, 4, 7);
    fill(&mut k, &s, b, 4, 8);
    let before_a = snapshot(&k, &s, a, 4 * PAGE_SIZE);
    let before_b = snapshot(&k, &s, b, 4 * PAGE_SIZE);
    let (map_a, map_b) = (mapping(&s, a, 4), mapping(&s, b, 4));
    k.wal_cycle_begin(vec![]);
    k.memmove(&s, CoreId(0), a, b, PAGE_SIZE).unwrap();
    k.swap_va(
        &mut s,
        CoreId(0),
        SwapRequest { a, b, pages: 2 },
        SwapVaOptions::naive(),
    )
    .unwrap();
    let slide = SwapRequest {
        a,
        b: a.add_pages(1),
        pages: 3,
    };
    k.swap_va(&mut s, CoreId(0), slide, SwapVaOptions::naive())
        .unwrap();
    k.write_word(&s, CoreId(0), a + 64, 0xDEAD).unwrap();
    let (_, ops, _) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!(ops, 4);
    assert_eq!(snapshot(&k, &s, a, 4 * PAGE_SIZE), before_a);
    assert_eq!(snapshot(&k, &s, b, 4 * PAGE_SIZE), before_b);
    assert_eq!((mapping(&s, a, 4), mapping(&s, b, 4)), (map_a, map_b));
}

#[test]
fn faulted_swap_records_nothing() {
    let (mut k, mut s) = setup(64);
    let a = k.vmem.alloc_region(&mut s, 2).unwrap();
    let b = k.vmem.alloc_region(&mut s, 2).unwrap();
    k.set_fault_plan(Some(FaultPlan::new(FaultConfig::transient_only(1.0, 1))));
    k.wal_cycle_begin(vec![]);
    assert!(k
        .swap_va(
            &mut s,
            CoreId(0),
            SwapRequest { a, b, pages: 2 },
            SwapVaOptions::naive()
        )
        .is_err());
    let (_, ops, _) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!(ops, 0, "a faulted request mutates nothing, records nothing");
}

#[test]
fn empty_undo_is_free() {
    let (mut k, mut s) = setup(16);
    k.wal_cycle_begin(vec![]);
    let (t, ops, pages) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!(t, Cycles::ZERO);
    assert_eq!((ops, pages), (0, 0));
}

#[test]
fn only_an_open_cycle_records() {
    let (mut k, mut s) = setup(16);
    let a = k.vmem.alloc_region(&mut s, 1).unwrap();
    k.write_word(&s, CoreId(0), a, 1).unwrap();
    k.wal_cycle_begin(vec![]);
    k.write_word(&s, CoreId(0), a, 2).unwrap();
    k.wal_commit(vec![]);
    k.write_word(&s, CoreId(0), a, 3).unwrap();
    let (_, ops, _) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
    assert_eq!(ops, 0, "commit dropped the epoch's records");
    assert_eq!(k.vmem.read_u64(&s, a).unwrap(), 3);
}

#[test]
fn mid_rollback_crash_aborts_the_restore() {
    let (mut k, mut s) = setup(64);
    let a = k.vmem.alloc_region(&mut s, 1).unwrap();
    k.vmem.write_u64(&s, a, 1).unwrap();
    k.wal_cycle_begin(vec![]);
    k.write_word(&s, CoreId(0), a, 2).unwrap();
    k.write_word(&s, CoreId(0), a + 8, 3).unwrap();
    k.set_crash_plans(vec![CrashPlan::nth(CrashPoint::MidRollback, 2)]);
    assert_eq!(
        k.wal_rollback(&mut s, CoreId(0)),
        Err(RollbackError::Crashed)
    );
    assert_eq!(k.crashed(), Some(CrashPoint::MidRollback));
}

#[test]
fn durable_epochs_log_the_same_records_the_live_epoch_undoes() {
    // Armed, each mutation records once and is framed once: the scan's
    // intents, undone through the recovery pass, restore exactly what
    // the live rollback would.
    let (mut k, mut s) = setup(128);
    let base = k.vmem.alloc_region(&mut s, 8).unwrap();
    fill(&mut k, &s, base, 8, 4);
    let before = snapshot(&k, &s, base, 8 * PAGE_SIZE);
    let map_before = mapping(&s, base, 8);
    k.set_wal_enabled(true);
    k.wal_cycle_begin(vec![]).unwrap();
    let slide = SwapRequest {
        a: base,
        b: base.add_pages(2),
        pages: 4,
    };
    k.swap_va(&mut s, CoreId(0), slide, SwapVaOptions::naive())
        .unwrap();
    let far = SwapRequest {
        a: base.add_pages(6),
        b: base,
        pages: 2,
    };
    k.swap_va(&mut s, CoreId(0), far, SwapVaOptions::naive())
        .unwrap();
    k.memmove(&s, CoreId(0), base, base.add_pages(3), 100)
        .unwrap();
    k.write_word(&s, CoreId(0), base + 8, 7).unwrap();
    let scan = k.wal_scan();
    let intents: Vec<WalOp> = scan
        .records
        .iter()
        .filter_map(|r| match r.payload {
            WalPayload::Intent(op) => Some(op),
            _ => None,
        })
        .collect();
    assert_eq!(intents.len(), 4, "one durable record per mutation");
    assert!(matches!(intents[0], WalOp::PteWindow { pages: 6, .. }));
    k.undo(
        &mut s,
        &intents,
        &scan.preimages,
        CrashPoint::InsideRecovery,
    )
    .unwrap();
    assert_eq!(snapshot(&k, &s, base, 8 * PAGE_SIZE), before);
    assert_eq!(mapping(&s, base, 8), map_before, "no frame mapped twice");
}
