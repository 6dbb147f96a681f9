//! Multi-JVM scalability demo (the Fig. 2 vs Fig. 14 contrast).
//!
//! Runs N concurrent LRU-cache JVMs on one modeled 32-core machine under
//! ParallelGC and under SVAGC, and prints how per-JVM GC time and
//! application time degrade as instances multiply. `memmove`-based GC
//! collapses with contended bandwidth; SVAGC's page-table-only compaction
//! barely notices.
//!
//! ```text
//! cargo run --release --example multi_jvm_lru
//! ```

use svagc::workloads::driver::{CollectorKind, RunConfig};
use svagc::workloads::lrucache::LruCache;
use svagc::workloads::multijvm::run_multi;
use svagc::metrics::MachineConfig;

fn sweep(kind: CollectorKind) {
    println!("\n== {} ==", kind.label());
    println!(
        "{:>5} {:>16} {:>14} {:>14}",
        "JVMs", "GC total (ms)", "GC max (ms)", "app (ms)"
    );
    let mut first: Option<(f64, f64)> = None;
    for n in [1usize, 4, 16, 32] {
        let mut base = RunConfig::new(kind);
        base.machine = MachineConfig::xeon_gold_6130();
        base.gc.gc_threads = 4;
        let res = run_multi(
            n,
            |i| Box::new(LruCache::new(192, 2 << 20, 8, 500 + i as u64)),
            &base,
        )
        .expect("multi-JVM run");
        println!(
            "{n:>5} {:>16.3} {:>14.3} {:>14.2}",
            res.avg_gc_total_ms(),
            res.avg_gc_max_ms(),
            res.avg_app_ms()
        );
        match first {
            None => first = Some((res.avg_gc_total_ms(), res.avg_app_ms())),
            Some((gc1, app1)) if n == 32 => println!(
                "    -> 1 to 32 JVMs: GC time x{:.2}, app time x{:.2}",
                res.avg_gc_total_ms() / gc1,
                res.avg_app_ms() / app1
            ),
            _ => {}
        }
    }
}

fn main() {
    println!("LRU cache x N JVMs on a 32-core dual Xeon Gold 6130, 4 GC threads each");
    sweep(CollectorKind::ParallelGc);
    sweep(CollectorKind::Svagc);
    println!("\n(paper: ParallelGC degrades steeply — Fig. 2; SVAGC's GC time grows ~52%\n while app time grows ~327% at 32 JVMs — Fig. 14)");
}
