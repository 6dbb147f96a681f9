//! End-to-end driver runs: each collector executes real workloads, GC
//! actually triggers, data survives, and the paper's headline orderings
//! hold on the simulated machine.

use svagc_workloads::driver::{run, run_classified, CollectorKind, FailureKind, RunConfig};
use svagc_workloads::suite;

fn cfg(kind: CollectorKind) -> RunConfig {
    let mut c = RunConfig::new(kind);
    c.gc_threads = 8;
    c
}

#[test]
fn sigverify_svagc_vs_memmove_headline() {
    // Paper: Sigverify's GC pause drops ~97% with SwapVA.
    let mut w1 = suite::by_name("Sigverify").unwrap();
    let r_swap = run(w1.as_mut(), &cfg(CollectorKind::Svagc)).unwrap();
    let mut w2 = suite::by_name("Sigverify").unwrap();
    let r_move = run(w2.as_mut(), &cfg(CollectorKind::SvagcMemmove)).unwrap();

    assert!(r_swap.verify_ok && r_move.verify_ok);
    assert!(r_swap.gc.count() >= 2, "GC must trigger ({})", r_swap.gc.count());
    assert!(r_move.gc.count() >= 2);
    assert!(
        r_swap.gc_total_ms() < r_move.gc_total_ms() * 0.25,
        "SwapVA should cut Sigverify GC time by >75% (swap {:.2} ms vs move {:.2} ms)",
        r_swap.gc_total_ms(),
        r_move.gc_total_ms()
    );
    // Zero-copy: SVAGC's compaction hardly copies bytes.
    assert!(r_swap.perf.bytes_copied < r_move.perf.bytes_copied / 10);
}

#[test]
fn small_object_workload_gains_little() {
    // Bisort is all small objects: SwapVA should barely matter.
    let mut w1 = suite::by_name("Bisort").unwrap();
    let r_swap = run(w1.as_mut(), &cfg(CollectorKind::Svagc)).unwrap();
    let mut w2 = suite::by_name("Bisort").unwrap();
    let r_move = run(w2.as_mut(), &cfg(CollectorKind::SvagcMemmove)).unwrap();
    assert!(r_swap.verify_ok && r_move.verify_ok);
    let ratio = r_swap.gc_total_ms() / r_move.gc_total_ms().max(1e-9);
    assert!(
        ratio > 0.7,
        "Bisort should see <30% GC-time change, got ratio {ratio:.3}"
    );
}

#[test]
fn baselines_run_and_rank_correctly() {
    // Fig. 12 ordering on a large-object workload:
    // SVAGC < ParallelGC < Shenandoah in average Full-GC latency.
    let mut results = Vec::new();
    for kind in [
        CollectorKind::Svagc,
        CollectorKind::ParallelGc,
        CollectorKind::Shenandoah,
    ] {
        let mut w = suite::by_name("SOR.large").unwrap();
        let r = run(w.as_mut(), &cfg(kind)).unwrap();
        assert!(r.verify_ok, "{} verify", r.collector);
        assert!(r.gc.count() >= 1, "{} must GC", r.collector);
        results.push(r);
    }
    let (svagc, pgc, shen) = (&results[0], &results[1], &results[2]);
    assert!(
        svagc.gc_avg_ms() < pgc.gc_avg_ms(),
        "SVAGC {:.2} ms should beat ParallelGC {:.2} ms",
        svagc.gc_avg_ms(),
        pgc.gc_avg_ms()
    );
    assert!(
        pgc.gc_avg_ms() < shen.gc_avg_ms(),
        "ParallelGC {:.2} ms should beat Shenandoah {:.2} ms",
        pgc.gc_avg_ms(),
        shen.gc_avg_ms()
    );
}

#[test]
fn bigger_heap_means_fewer_gcs() {
    let mut w1 = suite::by_name("Compress").unwrap();
    let mut c1 = cfg(CollectorKind::Svagc);
    c1.heap_factor = 1.2;
    let tight = run(w1.as_mut(), &c1).unwrap();
    let mut w2 = suite::by_name("Compress").unwrap();
    let mut c2 = cfg(CollectorKind::Svagc);
    c2.heap_factor = 2.0;
    let roomy = run(w2.as_mut(), &c2).unwrap();
    assert!(tight.gc.count() > roomy.gc.count());
    assert!(roomy.gc.count() >= 1, "2x heap must still GC at least once");
}

#[test]
fn structural_workloads_survive_gc() {
    for name in ["PR", "ParallelSort", "LRUCache"] {
        let mut w = suite::by_name(name).unwrap();
        let r = run(w.as_mut(), &cfg(CollectorKind::Svagc)).unwrap();
        assert!(r.verify_ok, "{name} verify failed");
        assert!(r.gc.count() >= 1, "{name} never triggered GC");
    }
}

#[test]
fn runs_are_deterministic() {
    let go = || {
        let mut w = suite::by_name("Sparse.large/4").unwrap();
        run(w.as_mut(), &cfg(CollectorKind::Svagc)).unwrap()
    };
    let a = go();
    let b = go();
    assert_eq!(a.gc.total_pause(), b.gc.total_pause());
    assert_eq!(a.app_cycles, b.app_cycles);
    assert_eq!(a.perf, b.perf);
}

#[test]
fn baselines_honour_the_run_level_deadline() {
    // The baselines are LISP2 configurations built through the same path
    // as SVAGC, so a one-cycle watchdog deadline must abort their first
    // GC too.
    for kind in [CollectorKind::ParallelGc, CollectorKind::Shenandoah] {
        let mut w = suite::by_name("Compress").unwrap();
        let c = cfg(kind).with_deadline(Some(1));
        let err = run_classified(w.as_mut(), &c).expect_err("deadline must expire");
        assert_eq!(err.kind, FailureKind::Watchdog, "{}: {}", kind.label(), err.message);
    }
}
