//! A request-serving workload on the generational heap: session buffers
//! die young in eden, cache entries survive and get promoted — minor GCs
//! stay tiny while the occasional full GC compacts the old generation.
//! Large survivors are promoted by PTE swap (Table I, row 2).
//!
//! ```text
//! cargo run --release --example generational_service
//! ```

use svagc::gc::{full_collect_generational, GcConfig, GcError, Lisp2Collector, MinorGc};
use svagc::heap::{GenHeap, HeapError, ObjRef, ObjShape, RootSet};
use svagc::kernel::{CoreId, Kernel};
use svagc::metrics::MachineConfig;
use svagc::vmem::{Asid, PAGE_SIZE};

const CORE: CoreId = CoreId(0);

fn main() {
    let mut kernel = Kernel::with_bytes(MachineConfig::xeon_gold_6130(), 160 << 20);
    let mut gh = GenHeap::new(&mut kernel, Asid(1), 24 << 20, 8 << 20, 10).unwrap();
    let mut roots = RootSet::new();
    let mut minor = MinorGc::new(GcConfig::svagc(8));
    let mut full = Lisp2Collector::new(GcConfig::svagc(8));

    // Long-lived "cache": slots that hold promoted response buffers.
    let mut cache: Vec<Option<(svagc::heap::RootId, u64)>> = vec![None; 256];
    let mut seq = 0u64;
    let mut fulls = 0usize;

    for request in 0..12_000u64 {
        // Each request allocates short-lived session state in eden...
        let scratch = alloc_young(&mut kernel, &mut gh, &mut minor, &mut full, &mut roots,
            ObjShape::data(96), seq);
        let _ = scratch;
        seq += 1;
        // ...and every 8th builds a large response buffer that gets cached
        // (it will survive the next scavenge and be promoted by SwapVA).
        if request % 8 == 0 {
            let big = ObjShape::data_bytes(12 * PAGE_SIZE);
            let obj = alloc_young(&mut kernel, &mut gh, &mut minor, &mut full, &mut roots,
                big, seq);
            seq += 1;
            let slot = (request / 8) as usize % cache.len();
            if let Some((old, _)) = cache[slot].replace((roots.push(obj), seq - 1)) {
                roots.set(old, ObjRef::NULL); // evict
            }
        }
        // Count full GCs triggered by old-gen pressure.
        fulls = full.log.count();
    }

    let f = kernel.machine.freq_ghz;
    let minor_avg: f64 = minor
        .log
        .iter()
        .map(|s| s.pause.at_ghz(f).as_micros())
        .sum::<f64>()
        / minor.log.len().max(1) as f64;
    println!("requests served  : 12000");
    println!(
        "minor GCs        : {} (avg pause {:.1} us)",
        minor.log.len(),
        minor_avg
    );
    println!(
        "promoted         : {} objects, {} by PTE swap",
        minor.log.iter().map(|s| s.promoted_objects).sum::<u64>(),
        minor.log.iter().map(|s| s.swapped_objects).sum::<u64>(),
    );
    println!(
        "dead in eden     : {} objects (never copied at all)",
        minor.log.iter().map(|s| s.dead_young).sum::<u64>(),
    );
    println!(
        "full GCs         : {fulls} (avg pause {:.1} us)",
        full.log.avg_pause().at_ghz(f).as_micros()
    );

    // Verify the cache contents survived all of it (entries cached since
    // the last scavenge are still young; everything older was promoted).
    let (mut old_gen, mut young) = (0, 0);
    for entry in cache.iter().flatten() {
        let (rid, _) = entry;
        let obj = roots.get(*rid);
        assert!(gh.in_old(obj.0) || gh.in_young(obj.0));
        if gh.in_old(obj.0) {
            old_gen += 1;
        } else {
            young += 1;
        }
    }
    println!("cache entries    : {old_gen} promoted + {young} still young, all intact");
}

/// Allocate young; on eden exhaustion scavenge, on promotion failure run a
/// full collection of the old generation and retry.
fn alloc_young(
    kernel: &mut Kernel,
    gh: &mut GenHeap,
    minor: &mut MinorGc,
    full: &mut Lisp2Collector,
    roots: &mut RootSet,
    shape: ObjShape,
    seed: u64,
) -> ObjRef {
    loop {
        match gh.alloc_young(kernel, CORE, shape) {
            Ok((obj, _)) => {
                gh.old
                    .write_data(kernel, CORE, obj, shape.num_refs as u64, 0, seed)
                    .unwrap();
                return obj;
            }
            Err(HeapError::NeedGc { .. }) => match minor.collect(kernel, gh, roots) {
                Ok(_) => {}
                Err(GcError::Heap(HeapError::NeedGc { .. })) => {
                    full_collect_generational(kernel, gh, roots, full).expect("full GC");
                }
                Err(e) => panic!("{e}"),
            },
            Err(e) => panic!("{e}"),
        }
    }
}
