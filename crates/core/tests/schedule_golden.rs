//! Exact schedule goldens for both scheduling policies of both collectors.
//!
//! Every case runs a fixed heap through two collections and pins four
//! digests: the FNV-1a of the `{:?}` rendering of every cycle's stats
//! (`GcCycleStats` / `MinorStats`: phase times, shootdowns, interference,
//! steals, retries, splits, fallbacks), of the kernel's `PerfCounters`,
//! the heap content hash, and the FNV-1a of the Chrome trace export. The
//! constants pin the simulated schedule exactly — worker choice, start
//! times, batch boundaries, trace positions — so any change to how a
//! collector places work shows up here, not only in aggregate pauses.

use svagc_core::{
    Collector, ConcurrentCollector, GcConfig, GcCycleStats, Lisp2Collector, MinorGc, MinorStats,
    SchedulerKind,
};
use svagc_heap::{GenHeap, Heap, HeapConfig, HeapVerifier, ObjRef, ObjShape, RootSet};
use svagc_kernel::{CoreId, FaultConfig, FaultPlan, Kernel};
use svagc_metrics::{chrome_trace_json, MachineConfig};
use svagc_vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);
const FAULT_SEED: u64 = 1024023;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The four pinned digests of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    stats: u64,
    perf: u64,
    heap: u64,
    trace: u64,
}

fn digest(k: &mut Kernel, stats: &str, heap_hash: u64) -> Digest {
    let events = k.take_trace();
    Digest {
        stats: fnv(stats.as_bytes()),
        perf: fnv(format!("{:?}", k.perf).as_bytes()),
        heap: heap_hash,
        trace: fnv(chrome_trace_json(&events).as_bytes()),
    }
}

fn kernel(bytes: u64, fault_seed: Option<u64>) -> Kernel {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), bytes);
    k.set_tracing(true);
    if let Some(seed) = fault_seed {
        k.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.3, seed))));
    }
    k
}

fn stamp(k: &mut Kernel, h: &mut Heap, obj: ObjRef, shape: ObjShape, seed: u64) {
    for i in 0..shape.data_words as u64 {
        h.write_data(k, CORE, obj, shape.num_refs as u64, i, seed + i)
            .unwrap();
    }
}

fn alloc(k: &mut Kernel, h: &mut Heap, shape: ObjShape, seed: u64) -> ObjRef {
    let (obj, _) = h.alloc(k, CORE, shape).unwrap();
    stamp(k, h, obj, shape, seed);
    obj
}

/// Ref-dense smalls, zero-ref data, rooted large objects (swap
/// candidates, some overlapping their destination) and interleaved
/// garbage, so every LISP2 phase has skewed per-item costs.
fn build_full(k: &mut Kernel, h: &mut Heap, roots: &mut RootSet, round: u64) {
    let ref_shape = ObjShape::with_refs(6, 10);
    let mut smalls = Vec::new();
    for i in 0..48u64 {
        let obj = alloc(k, h, ref_shape, round * 10_000_000 + i * 100);
        smalls.push(obj);
        if i % 5 == 0 {
            roots.push(obj);
        }
        alloc(k, h, ObjShape::data(24 + (i % 7) as u32), 900_000 + i);
        if i % 3 == 0 {
            let plain = alloc(k, h, ObjShape::data(40), 500_000 + i);
            roots.push(plain);
        }
    }
    for (i, &obj) in smalls.iter().enumerate() {
        for r in 0..6usize {
            h.write_ref(
                k,
                CORE,
                obj,
                r as u64,
                smalls[(i * 7 + r + 1) % smalls.len()],
            )
            .unwrap();
        }
    }
    for i in 0..10u64 {
        let pages = if i % 3 == 0 { 11 } else { 13 + i % 4 };
        let big = alloc(k, h, ObjShape::data_bytes(pages * PAGE_SIZE), i * 1_000_000);
        if i % 4 != 1 {
            roots.push(big);
        }
        alloc(
            k,
            h,
            ObjShape::data_bytes((1 + i % 3) * PAGE_SIZE),
            700_000 + i,
        );
    }
}

enum Full {
    Stw(GcConfig),
    Premark(GcConfig),
}

/// Two full collections (the second after dropping some roots and
/// allocating a second round), so the cumulative GC timeline and the
/// second cycle's trace positions are pinned too.
fn run_full(which: Full, faulty: bool) -> Digest {
    let mut k = kernel(40 << 20, faulty.then_some(FAULT_SEED));
    let mut h = Heap::new(&mut k, Asid(1), HeapConfig::new(32 << 20)).unwrap();
    let mut roots = RootSet::new();
    let mut gc: Box<dyn Collector> = match which {
        Full::Stw(cfg) => Box::new(Lisp2Collector::new(cfg)),
        Full::Premark(cfg) => Box::new(ConcurrentCollector::new(Lisp2Collector::new(cfg))),
    };
    build_full(&mut k, &mut h, &mut roots, 0);
    let first = gc.collect(&mut k, &mut h, &mut roots).unwrap();
    for (n, slot) in roots.slots_mut().iter_mut().enumerate() {
        if n % 3 == 1 {
            *slot = ObjRef::NULL;
        }
    }
    build_full(&mut k, &mut h, &mut roots, 1);
    let second = gc.collect(&mut k, &mut h, &mut roots).unwrap();
    if faulty {
        let absorbed = |s: &GcCycleStats| (s.swap_retries, s.batch_splits, s.swap_fallback_objects);
        let (a, b) = (absorbed(&first), absorbed(&second));
        assert!(
            a.0 + b.0 > 0 && a.1 + b.1 > 0 && a.2 + b.2 > 0,
            "faults not absorbed: {a:?} {b:?}"
        );
    }
    let heap_hash = HeapVerifier::new().content_hash(&k, &mut h);
    digest(&mut k, &format!("{first:?}{second:?}"), heap_hash)
}

fn young(k: &mut Kernel, gh: &mut GenHeap, shape: ObjShape, seed: u64) -> ObjRef {
    let (obj, _) = gh.alloc_young(k, CORE, shape).unwrap();
    for i in 0..shape.data_words as u64 {
        gh.old
            .write_data(k, CORE, obj, shape.num_refs as u64, i, seed + i)
            .unwrap();
    }
    obj
}

/// Young graph with internal refs, large survivors (swap promotions),
/// dead young objects, and old holders reached through dirty cards.
fn build_young(
    k: &mut Kernel,
    gh: &mut GenHeap,
    roots: &mut RootSet,
    holders: &[ObjRef],
    round: u64,
) {
    let ref_shape = ObjShape::with_refs(3, 6);
    let mut ys = Vec::new();
    for i in 0..40u64 {
        let shape = if i % 3 == 0 {
            ObjShape::data_bytes((11 + i % 3) * PAGE_SIZE)
        } else if i % 2 == 0 {
            ref_shape
        } else {
            ObjShape::data(20 + (i % 5) as u32)
        };
        let obj = young(k, gh, shape, round * 1_000_000 + i * 10);
        ys.push((obj, shape));
        if i % 7 == 0 {
            roots.push(obj);
        }
    }
    for (i, &(obj, shape)) in ys.iter().enumerate() {
        for r in 0..shape.num_refs as usize {
            let tgt = ys[(i * 5 + r + 3) % ys.len()].0;
            gh.write_ref_barrier(k, CORE, obj, r as u64, tgt).unwrap();
        }
    }
    for (j, &holder) in holders.iter().enumerate() {
        for f in 0..2u64 {
            let tgt = ys[(j * 11 + f as usize * 4 + 1) % ys.len()].0;
            gh.write_ref_barrier(k, CORE, holder, f, tgt).unwrap();
        }
    }
}

/// Two scavenges over old holders spread across several cards.
fn run_minor(cfg: GcConfig, faulty: bool) -> Digest {
    let mut k = kernel(64 << 20, faulty.then_some(FAULT_SEED));
    let mut gh = GenHeap::new(&mut k, Asid(1), 32 << 20, 8 << 20, 10).unwrap();
    let mut roots = RootSet::new();
    let mut holders = Vec::new();
    for i in 0..12u64 {
        let (holder, _) = gh
            .old
            .alloc(&mut k, CORE, ObjShape::with_refs(2, 4 + (i * 40) as u32))
            .unwrap();
        roots.push(holder);
        holders.push(holder);
    }
    let mut gc = MinorGc::new(cfg);
    build_young(&mut k, &mut gh, &mut roots, &holders, 0);
    let first = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    build_young(&mut k, &mut gh, &mut roots, &holders[..6], 1);
    let second = gc.collect(&mut k, &mut gh, &mut roots).unwrap();
    if faulty {
        // Fewer, larger promotion batches: retries and fallbacks fire on
        // this seed, splits only in the full-collector case.
        let absorbed = |s: &MinorStats| (s.swap_retries, s.swap_fallback_objects);
        let (a, b) = (absorbed(&first), absorbed(&second));
        assert!(
            a.0 + b.0 > 0 && a.1 + b.1 > 0,
            "faults not absorbed: {a:?} {b:?}"
        );
    }
    let heap_hash = HeapVerifier::new().content_hash(&k, &mut gh.old);
    digest(&mut k, &format!("{first:?}{second:?}"), heap_hash)
}

fn cases() -> Vec<(String, Digest)> {
    let full: [(&str, GcConfig); 7] = [
        ("svagc4", GcConfig::svagc(4)),
        ("memmove4", GcConfig::lisp2_memmove(4)),
        ("svagc1", GcConfig::svagc(1)),
        ("static4", GcConfig::svagc(4).with_stealing(false)),
        ("compact1", GcConfig::svagc(4).with_compact_threads(Some(1))),
        ("naive4", GcConfig::svagc_naive_flush(4)),
        ("unaggregated4", GcConfig::svagc(4).with_aggregation(None)),
    ];
    let mut out = Vec::new();
    for sched in [SchedulerKind::Barrier, SchedulerKind::Packets] {
        let s = sched.name();
        for (name, cfg) in full {
            out.push((
                format!("{s}/{name}"),
                run_full(Full::Stw(cfg.with_scheduler(sched)), false),
            ));
        }
        let cfg = GcConfig::svagc(4).with_scheduler(sched);
        out.push((format!("{s}/premark4"), run_full(Full::Premark(cfg), false)));
        out.push((format!("{s}/faulty4"), run_full(Full::Stw(cfg), true)));
        let minor: [(&str, GcConfig); 2] = [
            ("minor_svagc4", GcConfig::svagc(4)),
            ("minor_memmove4", GcConfig::lisp2_memmove(4)),
        ];
        for (name, cfg) in minor {
            out.push((
                format!("{s}/{name}"),
                run_minor(cfg.with_scheduler(sched), false),
            ));
        }
        out.push((
            format!("{s}/minor_faulty4"),
            run_minor(GcConfig::svagc(4).with_scheduler(sched), true),
        ));
    }
    out
}

/// `(case, stats, perf, heap, trace)`.
const GOLDEN: &[(&str, u64, u64, u64, u64)] = &[
    (
        "barrier/svagc4",
        0xc47773d502bf32ec,
        0x534adcadb5b74861,
        0x9cdfb5460c30560d,
        0x4421c9562ff196d1,
    ),
    (
        "barrier/memmove4",
        0xf479cd5e2c969b4d,
        0x283ea42251b1ab90,
        0x9cdfb5460c30560d,
        0xd0eef5e598da1f5c,
    ),
    (
        "barrier/svagc1",
        0xdc9dd8861bb107a2,
        0xdd175a38e4664ca5,
        0x9cdfb5460c30560d,
        0xf2e6fb3186577c42,
    ),
    (
        "barrier/static4",
        0xbf361a8df5d09750,
        0x3c527e45bdb856d1,
        0x9cdfb5460c30560d,
        0x74d956ef79f31e51,
    ),
    (
        "barrier/compact1",
        0x54de58d6cc7dbbd3,
        0x18f1eaa134343beb,
        0x9cdfb5460c30560d,
        0x07aabb8930a49659,
    ),
    (
        "barrier/naive4",
        0x39c17e9c04e830fd,
        0x6ce72c3f436cb4bf,
        0x9cdfb5460c30560d,
        0xf8f6b866402e4c8f,
    ),
    (
        "barrier/unaggregated4",
        0x6549830b72231835,
        0xe4490d27e022113a,
        0x9cdfb5460c30560d,
        0x373e05a51021548a,
    ),
    (
        "barrier/premark4",
        0x2af8b5b0da42fd36,
        0x4791ad00c17ac532,
        0x9cdfb5460c30560d,
        0x1356b5ec4239dbfb,
    ),
    (
        "barrier/faulty4",
        0x4d61fee566cece98,
        0xcb36601c7605ffbd,
        0x9cdfb5460c30560d,
        0xb63d3533d68a5b25,
    ),
    (
        "barrier/minor_svagc4",
        0xa1867d300fa8c757,
        0x3d165af440e92a2b,
        0x7af9acb2362c0198,
        0x96f16d9dd23a2027,
    ),
    (
        "barrier/minor_memmove4",
        0x0a4be6229e32ddb2,
        0xc846c1d4feeb405f,
        0x7af9acb2362c0198,
        0xf525bcac1a82da1e,
    ),
    (
        "barrier/minor_faulty4",
        0x51f390dc741f562e,
        0xf66d5ea3229f1a54,
        0x7af9acb2362c0198,
        0xac95280cf567df04,
    ),
    (
        "packets/svagc4",
        0x57bfd8af69eeb1fc,
        0xe96ff8f8c127bf4d,
        0x9cdfb5460c30560d,
        0x789df98844334508,
    ),
    (
        "packets/memmove4",
        0xdf8849ef7a54a02c,
        0x1f906edf98f72062,
        0x9cdfb5460c30560d,
        0xee77a4d6503920b6,
    ),
    (
        "packets/svagc1",
        0x23b817a9be65d88c,
        0x16f2d21ef8e8ec49,
        0x9cdfb5460c30560d,
        0xf240fdc2a04e559b,
    ),
    (
        "packets/static4",
        0x57bfd8af69eeb1fc,
        0xe96ff8f8c127bf4d,
        0x9cdfb5460c30560d,
        0x789df98844334508,
    ),
    (
        "packets/compact1",
        0x57bfd8af69eeb1fc,
        0xe96ff8f8c127bf4d,
        0x9cdfb5460c30560d,
        0x789df98844334508,
    ),
    (
        "packets/naive4",
        0xc17ce9eff9a3687e,
        0x6509a182dfddc86f,
        0x9cdfb5460c30560d,
        0x60321071b5b6a37e,
    ),
    (
        "packets/unaggregated4",
        0x48dbd234b7198d99,
        0xd32faa2d2c2756c4,
        0x9cdfb5460c30560d,
        0x46508d7e64f68afa,
    ),
    (
        "packets/premark4",
        0xe6f39f93212ef260,
        0x55c86ab6f5571496,
        0x9cdfb5460c30560d,
        0x0b2d7e44012df617,
    ),
    (
        "packets/faulty4",
        0x56978027ee059308,
        0x119292e7ae2672a3,
        0x9cdfb5460c30560d,
        0x6780b9a4ff2d664f,
    ),
    (
        "packets/minor_svagc4",
        0x03fe3d4c228d7b7c,
        0xc80d85c956f83bf5,
        0x7af9acb2362c0198,
        0x7e3f744612a01613,
    ),
    (
        "packets/minor_memmove4",
        0xedb3507ba26408bb,
        0xf3e4db99a06580fc,
        0x7af9acb2362c0198,
        0x13089490a3fa4f3a,
    ),
    (
        "packets/minor_faulty4",
        0xea4786cee9573998,
        0x8914f1f70a3f2924,
        0x7af9acb2362c0198,
        0x79fbf1dce675a80a,
    ),
];

#[test]
fn schedules_match_golden() {
    let actual = cases();
    let mut mismatches = Vec::new();
    for (name, d) in &actual {
        let want = GOLDEN.iter().find(|g| g.0 == name.as_str());
        let ok = want.is_some_and(|&(_, stats, perf, heap, trace)| {
            stats == d.stats && perf == d.perf && heap == d.heap && trace == d.trace
        });
        if !ok {
            mismatches.push(name.clone());
        }
    }
    if !mismatches.is_empty() {
        let table: String = actual
            .iter()
            .map(|(n, d)| {
                format!(
                    "    (\"{n}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}),\n",
                    d.stats, d.perf, d.heap, d.trace
                )
            })
            .collect();
        panic!("schedule digests differ for {mismatches:?}; actual:\n{table}");
    }
    assert_eq!(actual.len(), GOLDEN.len());
    // Both policies leave the same heap behind: the schedule decides time
    // and core choice, never content.
    for (name, d) in &actual {
        if let Some(rest) = name.strip_prefix("barrier/") {
            let (_, p) = actual
                .iter()
                .find(|(n, _)| *n == format!("packets/{rest}"))
                .unwrap();
            assert_eq!(
                d.heap, p.heap,
                "{rest}: heap content differs between policies"
            );
        }
    }
}
