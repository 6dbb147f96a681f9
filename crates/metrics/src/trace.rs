//! Deterministic virtual-time event tracing.
//!
//! The simulation's figures are *where-did-the-cycles-go* arguments —
//! syscall entry vs. PTE walk vs. TLB shootdown — so aggregate end-of-run
//! counters are not enough to debug the cost model. This module records a
//! per-event timeline in **virtual time**: every event is stamped with a
//! [`Cycles`] timestamp taken from the simulated clocks (worker loads,
//! phase makespans), never from the host clock. Same inputs ⇒ bit-identical
//! trace, which is what makes the golden-file CI job possible.
//!
//! # Event model
//!
//! * **Spans** (`dur = Some(_)`) cover an interval: GC phases, individual
//!   SwapVA calls, memmove copies.
//! * **Instants** (`dur = None`) mark a point: batch flushes, retries,
//!   fallbacks, batch splits, TLB shootdowns, injected faults.
//!
//! Each event carries the worker/core id that caused it (`tid`) and a small
//! set of `(name, value)` argument pairs (pages swapped, IPIs sent, victim
//! core mask, …).
//!
//! # Cheap when disabled
//!
//! A default [`Tracer`] holds no state; every emit method is an
//! `#[inline]` no-op guarded by one `Option` check. Emit sites therefore
//! never need `if enabled` checks — they call the sink unconditionally.
//!
//! # Exporters
//!
//! [`chrome_trace_json`] writes the Chrome `trace_event` JSON format
//! (load in `chrome://tracing` or Perfetto; timestamps are raw cycles in
//! the "microsecond" field, so on-screen "us" reads as cycles).
//! [`trace_summary`] renders a per-phase text profile: top-N costliest
//! SwapVA calls and shootdown interference per victim core.

use crate::cycles::Cycles;
use crate::json::write_json_str;
use std::fmt::Write as _;

/// What happened. Kinds are closed-world so exporters and the counter
/// registry can enumerate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// One full (major) GC cycle, mark through compact. Span.
    GcCycle,
    /// One minor (scavenge) cycle. Span.
    MinorCycle,
    /// LISP2 phase I: mark. Span.
    MarkPhase,
    /// SATB marking (`--concurrent` mode): the off-pause portion of the
    /// trace, between the initial-mark and final-mark pauses. Span.
    ConcurrentMarkPhase,
    /// LISP2 phase II: compute forwarding addresses. Span.
    ForwardPhase,
    /// LISP2 phase III: adjust references. Span.
    AdjustPhase,
    /// LISP2 phase IV: compact (move objects). Span.
    CompactPhase,
    /// One SwapVA syscall (single request or aggregated batch). Span.
    SwapVa,
    /// One byte-copy move through the kernel. Span.
    Memmove,
    /// An aggregation batch handed to the resilient executor. Instant.
    BatchFlush,
    /// A TLB shootdown (IPI fan-out to victim cores). Instant.
    Shootdown,
    /// A transient SwapVA fault retried with backoff. Instant.
    SwapRetry,
    /// A SwapVA request abandoned to the memmove fallback. Instant.
    SwapFallback,
    /// A faulted batch split and resumed past the failing request. Instant.
    BatchSplit,
    /// A fault injected by the kernel fault plan. Instant.
    FaultInjected,
    /// A GC cycle aborted (unrecoverable fault or blown deadline). Instant.
    CycleAbort,
    /// An undo-journal rollback replayed after an abort. Instant.
    Rollback,
    /// A degraded-mode transition (escalation or probation recovery).
    /// Instant.
    ModeChange,
    /// The stale-translation oracle caught a violation: a TLB hit whose
    /// cached frame disagrees with the live page table, or a flush that
    /// broke the shootdown-protocol preconditions. Instant.
    TlbOracle,
    /// A seeded crash point fired: the simulated machine died here and
    /// only durable state survives. Instant.
    CrashFired,
    /// A write-ahead-log protocol record (cycle begin/commit/abort/
    /// recovered) became durable. Instant.
    WalRecord,
    /// One recovery action (epoch classified, undo replayed, heap
    /// re-derived) during post-crash restart. Instant.
    Recovery,
    /// One GC work packet executed by the packet scheduler
    /// (`--scheduler packets`): args carry the packet kind, the executing
    /// worker, and whether it was stolen. Span.
    Packet,
}

impl TraceKind {
    /// Every kind, in a fixed order (for summaries and registries).
    pub const ALL: [TraceKind; 23] = [
        TraceKind::GcCycle,
        TraceKind::MinorCycle,
        TraceKind::MarkPhase,
        TraceKind::ConcurrentMarkPhase,
        TraceKind::ForwardPhase,
        TraceKind::AdjustPhase,
        TraceKind::CompactPhase,
        TraceKind::SwapVa,
        TraceKind::Memmove,
        TraceKind::BatchFlush,
        TraceKind::Shootdown,
        TraceKind::SwapRetry,
        TraceKind::SwapFallback,
        TraceKind::BatchSplit,
        TraceKind::FaultInjected,
        TraceKind::CycleAbort,
        TraceKind::Rollback,
        TraceKind::ModeChange,
        TraceKind::TlbOracle,
        TraceKind::CrashFired,
        TraceKind::WalRecord,
        TraceKind::Recovery,
        TraceKind::Packet,
    ];

    /// Stable event name (Chrome trace `name`, registry key segment).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::GcCycle => "gc_cycle",
            TraceKind::MinorCycle => "minor_cycle",
            TraceKind::MarkPhase => "mark",
            TraceKind::ConcurrentMarkPhase => "concurrent_mark",
            TraceKind::ForwardPhase => "forward",
            TraceKind::AdjustPhase => "adjust",
            TraceKind::CompactPhase => "compact",
            TraceKind::SwapVa => "swapva",
            TraceKind::Memmove => "memmove",
            TraceKind::BatchFlush => "batch_flush",
            TraceKind::Shootdown => "shootdown",
            TraceKind::SwapRetry => "swap_retry",
            TraceKind::SwapFallback => "swap_fallback",
            TraceKind::BatchSplit => "batch_split",
            TraceKind::FaultInjected => "fault_injected",
            TraceKind::CycleAbort => "cycle_abort",
            TraceKind::Rollback => "rollback",
            TraceKind::ModeChange => "mode_change",
            TraceKind::TlbOracle => "tlb_oracle",
            TraceKind::CrashFired => "crash_fired",
            TraceKind::WalRecord => "wal_record",
            TraceKind::Recovery => "recovery",
            TraceKind::Packet => "packet",
        }
    }

    /// Chrome trace category.
    pub fn category(self) -> &'static str {
        match self {
            TraceKind::GcCycle
            | TraceKind::MinorCycle
            | TraceKind::MarkPhase
            | TraceKind::ConcurrentMarkPhase
            | TraceKind::ForwardPhase
            | TraceKind::AdjustPhase
            | TraceKind::CompactPhase
            | TraceKind::Packet => "gc",
            TraceKind::SwapVa | TraceKind::Memmove | TraceKind::Shootdown => "kernel",
            TraceKind::BatchFlush
            | TraceKind::SwapRetry
            | TraceKind::SwapFallback
            | TraceKind::BatchSplit
            | TraceKind::FaultInjected
            | TraceKind::CycleAbort
            | TraceKind::Rollback
            | TraceKind::ModeChange
            | TraceKind::TlbOracle
            | TraceKind::CrashFired
            | TraceKind::WalRecord
            | TraceKind::Recovery => "resilience",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// Virtual-time start of the event.
    pub ts: Cycles,
    /// `Some(duration)` for spans, `None` for instants.
    pub dur: Option<Cycles>,
    /// Worker/core id the event is attributed to.
    pub tid: u32,
    /// Small argument list; names are static so the trace stays allocation-
    /// light and the exporter deterministic.
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// The value of argument `name`, if present.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

/// Per-run mutable sink state (only exists while the sink is enabled).
#[derive(Debug, Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    /// Virtual-time origin added to every relative timestamp. Callers that
    /// know "where on the timeline" a sub-computation runs (a worker's
    /// current load within a phase) position the base before handing
    /// control to lower layers.
    base: Cycles,
}

/// The event sink. Cheap to embed (one pointer-sized option) and disabled
/// by default.
#[derive(Debug, Default)]
pub struct Tracer {
    state: Option<Box<TraceState>>,
}

impl Tracer {
    /// A disabled sink (every emit is a no-op).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled, empty sink.
    pub fn enabled() -> Tracer {
        Tracer {
            state: Some(Box::default()),
        }
    }

    /// Is the sink recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Set the virtual-time origin for subsequent relative emissions.
    #[inline]
    pub fn set_base(&mut self, base: Cycles) {
        if let Some(s) = &mut self.state {
            s.base = base;
        }
    }

    /// The current virtual-time origin ([`Cycles::ZERO`] when disabled).
    #[inline]
    pub fn base(&self) -> Cycles {
        self.state.as_ref().map_or(Cycles::ZERO, |s| s.base)
    }

    /// Advance the virtual-time origin by `d` (cycles just consumed).
    #[inline]
    pub fn advance(&mut self, d: Cycles) {
        if let Some(s) = &mut self.state {
            s.base += d;
        }
    }

    /// Record a point event at `base + dt`, attributed to `tid`.
    #[inline]
    pub fn instant(&mut self, kind: TraceKind, dt: Cycles, tid: u32, args: &[(&'static str, u64)]) {
        if let Some(s) = &mut self.state {
            let ts = s.base + dt;
            s.events.push(TraceEvent {
                kind,
                ts,
                dur: None,
                tid,
                args: args.to_vec(),
            });
        }
    }

    /// Record a span starting at `base + start_dt` lasting `dur`.
    #[inline]
    pub fn span(
        &mut self,
        kind: TraceKind,
        start_dt: Cycles,
        dur: Cycles,
        tid: u32,
        args: &[(&'static str, u64)],
    ) {
        if let Some(s) = &mut self.state {
            let ts = s.base + start_dt;
            s.events.push(TraceEvent {
                kind,
                ts,
                dur: Some(dur),
                tid,
                args: args.to_vec(),
            });
        }
    }

    /// Record a span at an absolute virtual timestamp (ignores the base).
    #[inline]
    pub fn span_abs(
        &mut self,
        kind: TraceKind,
        ts: Cycles,
        dur: Cycles,
        tid: u32,
        args: &[(&'static str, u64)],
    ) {
        if let Some(s) = &mut self.state {
            s.events.push(TraceEvent {
                kind,
                ts,
                dur: Some(dur),
                tid,
                args: args.to_vec(),
            });
        }
    }

    /// The events recorded so far (empty when disabled).
    pub fn events(&self) -> &[TraceEvent] {
        self.state.as_ref().map_or(&[], |s| &s.events)
    }

    /// Drain the recorded events, leaving the sink enabled-state unchanged.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.state
            .as_mut()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.events))
    }
}

/// Render events in Chrome `trace_event` JSON ("JSON object format").
///
/// Timestamps and durations are raw virtual **cycles** placed in the
/// microsecond-denominated `ts`/`dur` fields — integers, so the output is
/// byte-identical across runs and platforms. `otherData.clock` records the
/// convention.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-cycles\"},\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_str(&mut out, e.kind.name());
        out.push_str(",\"cat\":");
        write_json_str(&mut out, e.kind.category());
        match e.dur {
            Some(d) => {
                let _ = write!(out, ",\"ph\":\"X\",\"ts\":{},\"dur\":{}", e.ts.get(), d.get());
            }
            None => {
                let _ = write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}", e.ts.get());
            }
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", e.tid);
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, k);
                let _ = write!(out, ":{v}");
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Fold `events` into `reg` under `trace.`-prefixed keys:
/// `trace.<kind>.count`, `trace.<kind>.cycles` (span durations), and
/// `trace.<kind>.<arg>` for every argument.
pub fn register_events(events: &[TraceEvent], reg: &mut crate::registry::Registry) {
    let mut key = String::new();
    for e in events {
        let name = e.kind.name();
        key.clear();
        let _ = write!(key, "trace.{name}.count");
        reg.add(&key, 1);
        if let Some(d) = e.dur {
            key.clear();
            let _ = write!(key, "trace.{name}.cycles");
            reg.add(&key, d.get());
        }
        for (k, v) in &e.args {
            key.clear();
            let _ = write!(key, "trace.{name}.{k}");
            reg.add(&key, *v);
        }
    }
}

/// A human-readable per-phase profile of a trace.
///
/// Sections: event counts per kind, GC phase totals, the `top_n` costliest
/// SwapVA calls, and TLB-shootdown interference attributed to each victim
/// core (from the `victims` bitmask + `interference` arguments the kernel
/// attaches to shootdown events).
pub fn trace_summary(events: &[TraceEvent], top_n: usize, cores: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== trace summary: {} events ==", events.len());

    // Per-kind counts and total span cycles.
    let _ = writeln!(out, "-- events --");
    for kind in TraceKind::ALL {
        let mut n = 0u64;
        let mut cyc = 0u64;
        for e in events.iter().filter(|e| e.kind == kind) {
            n += 1;
            cyc += e.dur.map_or(0, Cycles::get);
        }
        if n > 0 {
            let _ = writeln!(out, "{:<16} {:>8} events {:>14} cyc", kind.name(), n, cyc);
        }
    }

    // GC phase totals (span sums across cycles).
    let phases = [
        TraceKind::MarkPhase,
        TraceKind::ConcurrentMarkPhase,
        TraceKind::ForwardPhase,
        TraceKind::AdjustPhase,
        TraceKind::CompactPhase,
    ];
    if events.iter().any(|e| phases.contains(&e.kind)) {
        let _ = writeln!(out, "-- gc phases --");
        let total: u64 = events
            .iter()
            .filter(|e| phases.contains(&e.kind))
            .map(|e| e.dur.map_or(0, Cycles::get))
            .sum();
        for kind in phases {
            let cyc: u64 = events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.dur.map_or(0, Cycles::get))
                .sum();
            let pct = if total == 0 { 0.0 } else { 100.0 * cyc as f64 / total as f64 };
            let _ = writeln!(out, "{:<16} {:>14} cyc {:>6.1}%", kind.name(), cyc, pct);
        }
    }

    // Top-N costliest SwapVA calls.
    let mut swaps: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == TraceKind::SwapVa).collect();
    if !swaps.is_empty() {
        swaps.sort_by_key(|e| (std::cmp::Reverse(e.dur.unwrap_or(Cycles::ZERO)), e.ts));
        let _ = writeln!(out, "-- top {} swapva calls --", top_n.min(swaps.len()));
        for e in swaps.iter().take(top_n) {
            let _ = writeln!(
                out,
                "ts {:>12}  core {:>3}  {:>10} cyc  pages {:>5}  requests {:>4}",
                e.ts.get(),
                e.tid,
                e.dur.unwrap_or(Cycles::ZERO).get(),
                e.arg("pages").unwrap_or(0),
                e.arg("requests").unwrap_or(1),
            );
        }
    }

    // Shootdown interference per victim core.
    let shootdowns: Vec<&TraceEvent> =
        events.iter().filter(|e| e.kind == TraceKind::Shootdown).collect();
    if !shootdowns.is_empty() {
        let mut per_core = vec![0u64; cores.max(1)];
        let mut total_ipis = 0u64;
        for e in &shootdowns {
            total_ipis += e.arg("ipis").unwrap_or(0);
            let intf = e.arg("interference").unwrap_or(0);
            let mask = e.arg("victims").unwrap_or(0);
            let victims = mask.count_ones() as u64;
            if victims == 0 {
                continue;
            }
            let share = intf / victims;
            for (c, slot) in per_core.iter_mut().enumerate() {
                if c < 64 && (mask >> c) & 1 == 1 {
                    *slot += share;
                }
            }
        }
        let _ = writeln!(
            out,
            "-- shootdowns: {} broadcasts, {} IPIs --",
            shootdowns.len(),
            total_ipis
        );
        for (c, cyc) in per_core.iter().enumerate() {
            if *cyc > 0 {
                let _ = writeln!(out, "victim core {c:<3} {cyc:>14} cyc stolen");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_events() -> Vec<TraceEvent> {
        let mut t = Tracer::enabled();
        t.span(TraceKind::MarkPhase, Cycles::ZERO, Cycles(100), 0, &[("objects", 7)]);
        t.set_base(Cycles(100));
        t.span(TraceKind::SwapVa, Cycles(5), Cycles(40), 2, &[("requests", 1), ("pages", 3)]);
        t.instant(
            TraceKind::Shootdown,
            Cycles(50),
            1,
            &[("ipis", 3), ("interference", 90), ("victims", 0b1101)],
        );
        t.take()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.span(TraceKind::GcCycle, Cycles::ZERO, Cycles(10), 0, &[]);
        t.instant(TraceKind::BatchFlush, Cycles::ZERO, 0, &[]);
        assert!(t.events().is_empty());
        assert!(t.take().is_empty());
    }

    #[test]
    fn base_positions_relative_events() {
        let evs = sample_events();
        assert_eq!(evs[0].ts, Cycles(0));
        assert_eq!(evs[1].ts, Cycles(105));
        assert_eq!(evs[1].dur, Some(Cycles(40)));
        assert_eq!(evs[2].ts, Cycles(150));
        assert_eq!(evs[2].dur, None);
    }

    #[test]
    fn chrome_export_is_exact() {
        let evs = sample_events();
        let json = chrome_trace_json(&evs);
        let expected = concat!(
            "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-cycles\"},\"traceEvents\":[",
            "{\"name\":\"mark\",\"cat\":\"gc\",\"ph\":\"X\",\"ts\":0,\"dur\":100,\"pid\":1,\"tid\":0,\"args\":{\"objects\":7}},",
            "{\"name\":\"swapva\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":105,\"dur\":40,\"pid\":1,\"tid\":2,\"args\":{\"requests\":1,\"pages\":3}},",
            "{\"name\":\"shootdown\",\"cat\":\"kernel\",\"ph\":\"i\",\"s\":\"t\",\"ts\":150,\"pid\":1,\"tid\":1,\"args\":{\"ipis\":3,\"interference\":90,\"victims\":13}}",
            "]}\n",
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn registry_totals_match_events() {
        let evs = sample_events();
        let mut reg = Registry::new();
        register_events(&evs, &mut reg);
        assert_eq!(reg.get("trace.mark.count"), 1);
        assert_eq!(reg.get("trace.mark.cycles"), 100);
        assert_eq!(reg.get("trace.swapva.pages"), 3);
        assert_eq!(reg.get("trace.shootdown.ipis"), 3);
        assert_eq!(reg.get("trace.shootdown.count"), 1);
    }

    #[test]
    fn summary_attributes_interference_to_victims() {
        let evs = sample_events();
        let s = trace_summary(&evs, 5, 4);
        assert!(s.contains("top 1 swapva calls"));
        // 90 cycles over victims {0, 2, 3} = 30 each.
        assert!(s.contains("victim core 0"), "{s}");
        assert!(s.contains("30 cyc stolen"), "{s}");
        assert!(!s.contains("victim core 1 "), "{s}");
    }
}
