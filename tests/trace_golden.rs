//! Trace-layer integration: determinism of the Chrome exporter over a
//! full benchmark run, structural validity of the JSON, agreement between
//! the unified counter registry and the kernel's perf counters, and the
//! zero-divergence guarantee of the disabled tracer.

use svagc::metrics::{chrome_trace_json, trace_summary, TraceKind};
use svagc::workloads::driver::{run, CollectorKind, RunConfig, RunResult};
use svagc::workloads::suite;

fn traced_run(fault_rate: f64) -> RunResult {
    let mut w = suite::by_name("Sigverify").unwrap();
    let mut cfg = RunConfig::new(CollectorKind::Svagc).with_trace(true);
    if fault_rate > 0.0 {
        cfg = cfg.with_faults(fault_rate, 0xFA017);
    }
    run(w.as_mut(), &cfg).unwrap()
}

#[test]
fn chrome_export_is_byte_identical_across_runs() {
    let a = chrome_trace_json(&traced_run(0.0).trace);
    let b = chrome_trace_json(&traced_run(0.0).trace);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce byte-identical traces");
}

#[test]
fn chrome_export_is_structurally_valid() {
    let r = traced_run(0.0);
    assert!(!r.trace.is_empty(), "a traced SVAGC run must record events");
    let json = chrome_trace_json(&r.trace);
    // The trace_event envelope chrome://tracing and Perfetto expect.
    assert!(json.starts_with("{\"displayTimeUnit\":"));
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.ends_with("]}\n"));
    // One JSON object per recorded event, each in the shared process.
    assert_eq!(json.matches("\"pid\":1").count(), r.trace.len());
    assert_eq!(
        json.matches("\"ph\":\"X\"").count() + json.matches("\"ph\":\"i\"").count(),
        r.trace.len()
    );
    // Every GC phase kind shows up in a full SVAGC collection.
    for kind in [
        TraceKind::GcCycle,
        TraceKind::MarkPhase,
        TraceKind::ForwardPhase,
        TraceKind::AdjustPhase,
        TraceKind::CompactPhase,
        TraceKind::SwapVa,
        TraceKind::Shootdown,
        TraceKind::BatchFlush,
    ] {
        assert!(
            r.trace.iter().any(|e| e.kind == kind),
            "no {} events in the trace",
            kind.name()
        );
    }
}

#[test]
fn registry_agrees_with_perf_counters() {
    // The trace is not a second bookkeeping system: its per-event args are
    // perf-counter deltas, so registry totals must equal the counters.
    let r = traced_run(0.0);
    let reg = r.registry();
    let get = |k: &str| reg.get(k);
    assert_eq!(get("trace.swapva.pte_swaps"), r.perf.pte_swaps);
    assert_eq!(get("trace.shootdown.ipis"), r.perf.ipis_sent);
    assert_eq!(get("trace.memmove.bytes"), r.perf.bytes_copied);
    assert_eq!(get("gc.cycles"), r.gc.count() as u64);
    assert_eq!(get("gc.pause.total"), r.gc.total_pause().get());
    assert_eq!(get("perf.pte_swaps"), r.perf.pte_swaps);
    // Span time per phase kind equals the GC log's phase totals.
    let phase_cycles = |k: TraceKind| {
        r.trace
            .iter()
            .filter(|e| e.kind == k)
            .map(|e| e.dur.unwrap().get())
            .sum::<u64>()
    };
    let phases = r.gc.phase_totals();
    assert_eq!(phase_cycles(TraceKind::MarkPhase), phases.mark.get());
    assert_eq!(phase_cycles(TraceKind::ForwardPhase), phases.forward.get());
    assert_eq!(phase_cycles(TraceKind::AdjustPhase), phases.adjust.get());
    assert_eq!(phase_cycles(TraceKind::CompactPhase), phases.compact.get());
    assert_eq!(
        phase_cycles(TraceKind::GcCycle),
        r.gc.total_pause().get(),
        "GcCycle spans cover exactly the STW pauses"
    );
}

#[test]
fn faulty_run_traces_every_resilience_event() {
    let r = traced_run(0.35);
    let count = |k: TraceKind| r.trace.iter().filter(|e| e.kind == k).count() as u64;
    assert_eq!(count(TraceKind::FaultInjected), r.gc.total_faults_injected());
    assert_eq!(count(TraceKind::SwapRetry), r.gc.total_swap_retries());
    assert_eq!(count(TraceKind::SwapFallback), r.gc.total_swap_fallbacks());
    assert_eq!(count(TraceKind::BatchSplit), r.gc.total_batch_splits());
    assert!(
        count(TraceKind::FaultInjected) > 0,
        "a 35% fault rate must inject faults"
    );
    // Successful swaps account their PTE flips; swaps applied before a
    // mid-batch fault are charged to the kernel counter only, so the
    // trace total is a lower bound under fault injection.
    let reg = r.registry();
    assert!(reg.get("trace.swapva.pte_swaps") <= r.perf.pte_swaps);
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    // The acceptance bar for "zero-cost when disabled": enabling the
    // tracer changes what is *recorded*, never what is *simulated*.
    let traced = traced_run(0.0);
    let mut w = suite::by_name("Sigverify").unwrap();
    let untraced = run(w.as_mut(), &RunConfig::new(CollectorKind::Svagc)).unwrap();
    assert!(untraced.trace.is_empty());
    assert_eq!(untraced.perf, traced.perf);
    assert_eq!(untraced.heap_hash, traced.heap_hash);
    assert_eq!(untraced.total_wall, traced.total_wall);
    assert_eq!(untraced.gc.total_pause(), traced.gc.total_pause());
}

#[test]
fn summary_renders_all_sections() {
    let r = traced_run(0.0);
    let s = trace_summary(&r.trace, 5, 32);
    assert!(s.contains("== trace summary:"));
    assert!(s.contains("-- gc phases --"));
    assert!(s.contains("-- top 5 swapva calls --"));
    assert!(s.contains("-- shootdowns:"));
    assert!(s.contains("victim core"));
}
