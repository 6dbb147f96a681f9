//! Property tests of the collector: for arbitrary object graphs and
//! liveness patterns, collection preserves exactly the reachable data —
//! under every collector configuration — and SVAGC compacts to the same
//! layout as the memmove variant (SwapVA is a pure mechanism change).
//!
//! Offline std-only: each property runs over many cases drawn from the
//! deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated population, so it
//! reproduces from the message alone.

use std::collections::HashSet;
use svagc_core::{GcConfig, Lisp2Collector};
use svagc_heap::{Heap, HeapConfig, ObjRef, ObjShape, RootSet};
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

/// A heap population: object shapes, ref wiring, and which objects are
/// rooted.
#[derive(Debug, Clone)]
struct Population {
    /// `(refs, data_words)` per object.
    shapes: Vec<(u32, u32)>,
    /// For each object, targets of its ref fields (indices into `shapes`,
    /// possibly younger or older).
    targets: Vec<Vec<usize>>,
    rooted: Vec<bool>,
}

/// 2..60 objects, a fifth of them large (10-14 pages, swap candidates),
/// each rooted with probability 0.4; object 0 is always rooted so the
/// heap is never trivially empty.
fn population(rng: &mut SimRng) -> Population {
    let n = rng.gen_range(2..60usize);
    let mut pop = Population {
        shapes: Vec::with_capacity(n),
        targets: Vec::with_capacity(n),
        rooted: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let refs = rng.gen_range(0..4u32);
        let data = if rng.gen_bool(0.2) {
            rng.gen_range((10 * PAGE_SIZE / 8) as u32..(14 * PAGE_SIZE / 8) as u32)
        } else {
            rng.gen_range(1..300u32)
        };
        pop.shapes.push((refs, data));
        pop.targets
            .push((0..refs).map(|_| rng.gen_range(0..n)).collect());
        pop.rooted.push(rng.gen_bool(0.4));
    }
    pop.rooted[0] = true;
    pop
}

/// Build the population in a fresh heap. Each object's first and last
/// data words are stamped with its index (a single-word object only gets
/// the head stamp).
fn build(pop: &Population, cfg: GcConfig) -> (Kernel, Heap, RootSet, Lisp2Collector) {
    let mut k = Kernel::with_bytes(MachineConfig::i5_7600(), 48 << 20);
    let mut h = Heap::new(&mut k, Asid(1), HeapConfig::new(32 << 20)).unwrap();
    let mut roots = RootSet::new();
    let mut objs = Vec::new();
    for (i, &(refs, data)) in pop.shapes.iter().enumerate() {
        let (obj, _) = h
            .alloc(&mut k, CORE, ObjShape::with_refs(refs, data))
            .unwrap();
        h.write_data(&mut k, CORE, obj, refs as u64, 0, 0xA000 + i as u64)
            .unwrap();
        if data > 1 {
            h.write_data(
                &mut k,
                CORE,
                obj,
                refs as u64,
                data as u64 - 1,
                0xB000 + i as u64,
            )
            .unwrap();
        }
        objs.push(obj);
    }
    for (i, tgts) in pop.targets.iter().enumerate() {
        for (slot, &t) in tgts.iter().enumerate() {
            h.write_ref(&mut k, CORE, objs[i], slot as u64, objs[t])
                .unwrap();
        }
    }
    for (i, &r) in pop.rooted.iter().enumerate() {
        if r {
            roots.push(objs[i]);
        }
    }
    (k, h, roots, Lisp2Collector::new(cfg))
}

/// Host-side count of the objects reachable from the roots.
fn reachable(pop: &Population) -> u64 {
    let mut seen = pop.rooted.clone();
    let mut stack: Vec<usize> = (0..seen.len()).filter(|&i| seen[i]).collect();
    while let Some(i) = stack.pop() {
        for &t in &pop.targets[i] {
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    seen.iter().filter(|&&s| s).count() as u64
}

/// Walk the post-GC graph from the roots, check every stamp, and return
/// the number of objects reached.
fn verify_graph(
    k: &mut Kernel,
    h: &Heap,
    roots: &RootSet,
    pop: &Population,
) -> Result<u64, String> {
    let mut visited = HashSet::new();
    let mut stack: Vec<ObjRef> = roots.iter_live().collect();
    while let Some(obj) = stack.pop() {
        if !visited.insert(obj) {
            continue;
        }
        let (hdr, _) = h.read_header(k, CORE, obj).map_err(|e| e.to_string())?;
        let refs = hdr.num_refs as u64;
        let data = hdr.size_words as u64 - 2 - refs;
        let (first, _) = h
            .read_data(k, CORE, obj, refs, 0)
            .map_err(|e| e.to_string())?;
        let idx = first.wrapping_sub(0xA000) as usize;
        if idx >= pop.shapes.len() {
            return Err(format!("head stamp corrupted: {first:#x}"));
        }
        if data > 1 {
            let (last, _) = h
                .read_data(k, CORE, obj, refs, data - 1)
                .map_err(|e| e.to_string())?;
            if last != 0xB000 + idx as u64 {
                return Err(format!("tail stamp of object {idx} is {last:#x}"));
            }
        }
        if hdr.num_refs != pop.shapes[idx].0 {
            return Err(format!("object {idx} has {} refs", hdr.num_refs));
        }
        for r in 0..refs {
            let (tgt, _) = h.read_ref(k, CORE, obj, r).map_err(|e| e.to_string())?;
            if !tgt.is_null() {
                stack.push(tgt);
            }
        }
    }
    Ok(visited.len() as u64)
}

/// Collection keeps exactly the reachable objects, with intact data and
/// references, under all four collector configurations; a second
/// collection finds the same live set and moves nothing.
fn preserves_reachable_graph(pop: &Population) -> Result<(), String> {
    let expected = reachable(pop);
    for cfg in [
        GcConfig::svagc(4),
        GcConfig::lisp2_memmove(4),
        GcConfig::svagc(1).with_aggregation(None),
        GcConfig::svagc(4).with_overlap(false),
    ] {
        let (mut k, mut h, mut roots, mut gc) = build(pop, cfg);
        let stats = gc
            .collect(&mut k, &mut h, &mut roots)
            .map_err(|e| e.to_string())?;
        let walked = verify_graph(&mut k, &h, &roots, pop)?;
        let stats2 = gc
            .collect(&mut k, &mut h, &mut roots)
            .map_err(|e| e.to_string())?;
        let got = (
            stats.live_objects,
            walked,
            stats2.live_objects,
            stats2.moved_objects,
        );
        if got != (expected, expected, expected, 0) {
            return Err(format!(
                "{cfg:?}: (live, walked, live again, moved again) = {got:?}, \
                 expected {expected} live; population {pop:?}"
            ));
        }
    }
    Ok(())
}

#[test]
fn collection_preserves_reachable_graph() {
    check(
        "collection_preserves_reachable_graph",
        0x8_0000,
        32,
        |rng| preserves_reachable_graph(&population(rng)),
    );
}

/// A population a past generator shrank a failure to: large objects
/// interleaved with small ones and cross-wired refs.
#[test]
fn collection_preserves_reachable_graph_regression() {
    const SHAPES: &[(u32, u32)] = &[
        (0, 288),
        (3, 110),
        (3, 46),
        (2, 190),
        (0, 35),
        (0, 248),
        (3, 78),
        (0, 261),
        (1, 244),
        (1, 149),
        (3, 187),
        (0, 165),
        (0, 91),
        (1, 132),
        (2, 5188),
        (0, 138),
        (2, 5477),
        (3, 10),
        (1, 49),
        (0, 67),
        (0, 1),
        (2, 7131),
        (2, 111),
        (1, 71),
        (0, 22),
        (1, 5149),
        (3, 191),
        (1, 116),
        (3, 112),
        (2, 140),
        (2, 154),
        (1, 200),
        (0, 33),
        (0, 88),
        (1, 257),
    ];
    const TARGETS: &[&[usize]] = &[
        &[],
        &[22, 25, 14],
        &[29, 7, 19],
        &[27, 30],
        &[],
        &[],
        &[26, 18, 25],
        &[],
        &[29],
        &[28],
        &[17, 20, 31],
        &[],
        &[],
        &[13],
        &[17, 11],
        &[],
        &[21, 24],
        &[5, 4, 30],
        &[25],
        &[],
        &[],
        &[33, 32],
        &[33, 16],
        &[20],
        &[],
        &[12],
        &[21, 30, 34],
        &[8],
        &[31, 32, 5],
        &[20, 17],
        &[13, 27],
        &[6],
        &[],
        &[],
        &[9],
    ];
    const ROOTED: &str = "11100010110110011000011000001000110";
    let pop = Population {
        shapes: SHAPES.to_vec(),
        targets: TARGETS.iter().map(|t| t.to_vec()).collect(),
        rooted: ROOTED.bytes().map(|b| b == b'1').collect(),
    };
    preserves_reachable_graph(&pop).unwrap();
}

/// SVAGC and the memmove variant compact any population to identical
/// layouts.
#[test]
fn layouts_identical_across_mechanisms() {
    check("layouts_identical_across_mechanisms", 0x9_0000, 32, |rng| {
        let pop = population(rng);
        let run = |cfg: GcConfig| {
            let (mut k, mut h, mut roots, mut gc) = build(&pop, cfg);
            gc.collect(&mut k, &mut h, &mut roots).unwrap();
            let layout: Vec<u64> = roots.iter_live().map(|r| r.0.get()).collect();
            (layout, h.top().get())
        };
        let svagc = run(GcConfig::svagc(4));
        let memmove = run(GcConfig::lisp2_memmove(4));
        if svagc == memmove {
            Ok(())
        } else {
            Err(format!(
                "svagc {svagc:?} vs memmove {memmove:?}; population {pop:?}"
            ))
        }
    });
}
