//! Differential test for [`Kernel::stream_lines`]: it must leave exactly
//! the state a per-line loop of `translate` + `touch_data_line` leaves.
//!
//! Each case builds twin kernels with identical histories, streams the
//! same spans through one with `stream_lines` and through the other with
//! the per-line reference below, and compares returned cycles, errors,
//! `PerfCounters`, per-core TLB stats, oracle stats, and far-tier stats.
//! A follow-up lookup sequence over every page (on both cores) then
//! compares each translation's frame and cycles, which exposes any
//! divergence in the TLBs' LRU stamps, and a final word read per page
//! compares contents and cache counters.

use svagc_kernel::{
    CoreId, DeviceFaultConfig, DeviceFaultPlan, FarDevice, FarTier, Kernel, RetryPolicy,
};
use svagc_metrics::{AccessKind, Cycles, MachineConfig};
use svagc_vmem::{AddressSpace, Asid, VirtAddr, VmError, PAGE_SIZE};

const PAGES: u64 = 96;

/// The per-line loop `stream_lines` replaces.
fn reference_stream(
    k: &mut Kernel,
    s: &AddressSpace,
    core: CoreId,
    va: VirtAddr,
    bytes: u64,
    kind: AccessKind,
) -> Result<Cycles, VmError> {
    let mut t = Cycles::ZERO;
    for off in (0..bytes).step_by(64) {
        let (pa, c) = k.translate(s, core, va + off)?;
        t += c;
        k.touch_data_line(pa, kind);
    }
    Ok(t)
}

struct Twin {
    k: Kernel,
    s: AddressSpace,
    base: VirtAddr,
}

impl Twin {
    /// An instrumented two-core kernel with `PAGES` mapped, page-stamped
    /// pages; optionally a far tier (with transient device faults, so
    /// fetches retry) and the TLB oracle.
    fn new(tier: bool, oracle: bool) -> Twin {
        let mut k = Kernel::new(MachineConfig::i5_7600(), 4 * PAGES as u32);
        let mut s = AddressSpace::new(Asid(3));
        let base = k.vmem.alloc_region(&mut s, PAGES).unwrap();
        for p in 0..PAGES {
            k.vmem
                .write_u64(&s, base.add_pages(p) + 8 * p, 0xA000 + p)
                .unwrap();
        }
        k.set_instrumented(true);
        k.set_tlb_oracle(oracle);
        if tier {
            let mut dev = FarDevice::new(PAGES as u32);
            dev.set_fault_plan(Some(DeviceFaultPlan::new(
                DeviceFaultConfig::transient_only(0.3, 77),
            )));
            k.set_far_tier(Some(FarTier::new(dev, RetryPolicy::with_max_retries(8))));
        }
        Twin { k, s, base }
    }

    fn va(&self, off: u64) -> VirtAddr {
        self.base + off
    }
}

/// Identical twins: `a` is driven by `stream_lines`, `b` by the reference.
fn twins(tier: bool, oracle: bool) -> (Twin, Twin) {
    (Twin::new(tier, oracle), Twin::new(tier, oracle))
}

/// Apply the same setup to both twins.
fn both(a: &mut Twin, b: &mut Twin, f: impl Fn(&mut Twin)) {
    f(a);
    f(b);
}

/// Stream `[off, off + bytes)` through both twins, compare, and return
/// the (shared) result.
fn stream(
    a: &mut Twin,
    b: &mut Twin,
    core: CoreId,
    off: u64,
    bytes: u64,
    kind: AccessKind,
) -> Result<Cycles, VmError> {
    let (va_a, va_b) = (a.va(off), b.va(off));
    let got = a.k.stream_lines(&a.s, core, va_a, bytes, kind);
    let want = reference_stream(&mut b.k, &b.s, core, va_b, bytes, kind);
    let ctx = format!("span off={off} bytes={bytes} core={} {kind:?}", core.0);
    assert_eq!(got, want, "{ctx}: cycles/error");
    assert_same(a, b, &ctx);
    got
}

fn assert_same(a: &Twin, b: &Twin, ctx: &str) {
    assert_eq!(a.k.perf, b.k.perf, "{ctx}: perf counters");
    for core in [CoreId(0), CoreId(1)] {
        assert_eq!(
            a.k.tlb_stats(core),
            b.k.tlb_stats(core),
            "{ctx}: core {} TLB",
            core.0
        );
    }
    assert_eq!(
        a.k.tlb_oracle_stats(),
        b.k.tlb_oracle_stats(),
        "{ctx}: oracle"
    );
    let tier = |t: &Twin| {
        t.k.far_tier()
            .map(|f| (f.stats(), f.device_stats(), f.far_frames()))
    };
    assert_eq!(tier(a), tier(b), "{ctx}: far tier");
}

/// Translate every page on both cores in an order that evicts (reverse,
/// then strided forward), then read each page's stamp word: every result
/// must agree, so any difference in TLB recency or cache state shows.
fn follow_up(a: &mut Twin, b: &mut Twin) {
    let order: Vec<u64> = (0..PAGES)
        .rev()
        .chain((0..PAGES).map(|i| (i * 37) % PAGES))
        .collect();
    for (step, &p) in order.iter().enumerate() {
        let core = CoreId(step % 2);
        let ra = a.k.translate(&a.s, core, a.base.add_pages(p) + 8 * p);
        let rb = b.k.translate(&b.s, core, b.base.add_pages(p) + 8 * p);
        assert_eq!(ra, rb, "follow-up step {step}: page {p} on core {}", core.0);
    }
    for p in 0..PAGES {
        let ra = a.k.read_word(&a.s, CoreId(0), a.base.add_pages(p) + 8 * p);
        let rb = b.k.read_word(&b.s, CoreId(0), b.base.add_pages(p) + 8 * p);
        assert_eq!(ra, rb, "follow-up read of page {p}");
    }
    assert_same(a, b, "after follow-up");
}

/// Spans covering: zero bytes, a sub-line unaligned span, an unaligned
/// span crossing one page boundary, one crossing two, page-aligned whole
/// pages, and an unaligned span crossing many pages.
const SPANS: &[(u64, u64)] = &[
    (0, 0),
    (8, 0),
    (5, 1),
    (13, 64),
    (4000, 200),
    (4090, 2 * PAGE_SIZE + 10),
    (3 * PAGE_SIZE, PAGE_SIZE),
    (37, 40 * PAGE_SIZE + 1234),
    (PAGE_SIZE - 64, 64),
    (PAGE_SIZE - 63, 64),
];

fn all_spans(a: &mut Twin, b: &mut Twin) {
    for (i, &(off, bytes)) in SPANS.iter().enumerate() {
        let kind = if i % 2 == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        stream(a, b, CoreId(i % 2), off, bytes, kind).unwrap();
    }
}

#[test]
fn cold_tlb_spans_match_per_line_reference() {
    let (mut a, mut b) = twins(false, false);
    all_spans(&mut a, &mut b);
    // Again, now that the same pages are warm in both TLB levels.
    all_spans(&mut a, &mut b);
    follow_up(&mut a, &mut b);
}

#[test]
fn stlb_resident_pages_match_per_line_reference() {
    let (mut a, mut b) = twins(false, false);
    // Touch 80 pages on core 0: the first ones fall out of the 64-entry
    // L1 DTLB but stay in the STLB.
    both(&mut a, &mut b, |t| {
        for p in 0..80 {
            t.k.translate(&t.s, CoreId(0), t.base.add_pages(p)).unwrap();
        }
    });
    stream(
        &mut a,
        &mut b,
        CoreId(0),
        100,
        6 * PAGE_SIZE,
        AccessKind::Read,
    )
    .unwrap();
    stream(
        &mut a,
        &mut b,
        CoreId(0),
        8 * PAGE_SIZE + 1,
        3 * PAGE_SIZE,
        AccessKind::Write,
    )
    .unwrap();
    follow_up(&mut a, &mut b);
}

#[test]
fn far_tier_with_demoted_pages_matches_per_line_reference() {
    let (mut a, mut b) = twins(true, false);
    // Demote every third page; fetches retry under transient faults.
    both(&mut a, &mut b, |t| {
        for p in (0..PAGES).step_by(3) {
            t.k.tier_demote_page(&t.s, t.base.add_pages(p)).unwrap();
        }
    });
    assert!(a.k.far_tier().unwrap().far_count() > 0);
    all_spans(&mut a, &mut b);
    assert!(a.k.far_tier().unwrap().stats().fetch_on_access > 0);
    follow_up(&mut a, &mut b);
}

#[test]
fn tlb_oracle_counts_every_stale_hit_like_the_reference() {
    let (mut a, mut b) = twins(false, true);
    // Warm core 1 on pages 2 and 5, then swap their PTEs with no flush:
    // core 1's cached translations for both pages are now stale.
    both(&mut a, &mut b, |t| {
        let (p2, p5) = (t.base.add_pages(2), t.base.add_pages(5));
        t.k.translate(&t.s, CoreId(1), p2).unwrap();
        t.k.translate(&t.s, CoreId(1), p5).unwrap();
        t.s.page_table_mut().swap_ptes(p2, p5).unwrap();
    });
    stream(
        &mut a,
        &mut b,
        CoreId(1),
        2 * PAGE_SIZE + 40,
        PAGE_SIZE,
        AccessKind::Read,
    )
    .unwrap();
    let st = a.k.tlb_oracle_stats();
    // Every line on page 2 was a checked, stale hit; the one line on
    // page 3 missed the TLB, so nothing checked it.
    assert_eq!(st.stale_hits, (PAGE_SIZE - 40).div_ceil(64));
    assert_eq!(st.checks, st.stale_hits);
    stream(
        &mut a,
        &mut b,
        CoreId(1),
        5 * PAGE_SIZE,
        2 * PAGE_SIZE,
        AccessKind::Write,
    )
    .unwrap();
    all_spans(&mut a, &mut b);
    follow_up(&mut a, &mut b);
}

#[test]
fn untranslatable_line_fails_like_the_reference() {
    let (mut a, mut b) = twins(false, false);
    // Both spans run off the end of the mapped region mid-stream.
    for off in [(PAGES - 2) * PAGE_SIZE + 100, (PAGES - 1) * PAGE_SIZE] {
        let r = stream(
            &mut a,
            &mut b,
            CoreId(0),
            off,
            3 * PAGE_SIZE,
            AccessKind::Read,
        );
        assert!(r.is_err(), "span at {off} must fail");
    }
    follow_up(&mut a, &mut b);
}
