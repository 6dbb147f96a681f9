//! Machine model, cycle accounting, cache/DTLB simulation, and performance
//! counters for the SVAGC reproduction.
//!
//! The paper evaluates a patched Linux kernel + OpenJDK on real Intel
//! hardware. This crate supplies the *measurement substrate* of the
//! reproduction: every primitive event the paper's results depend on
//! (syscall entries, page-walk memory touches, TLB flushes, IPIs, copied
//! words, cache line transfers) is charged a deterministic cycle cost from a
//! [`machine::MachineConfig`] calibrated to the paper's three testbeds.
//! Simulated wall time is `cycles / frequency`.
//!
//! Layering: this crate knows nothing about page tables, heaps, or GCs — it
//! only knows costs, clocks, caches, and counters. Higher crates
//! (`svagc-vmem`, `svagc-kernel`, …) generate the event streams.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod cache;
pub mod cycles;
pub mod host;
pub mod json;
pub mod machine;
pub mod perf;
pub mod registry;
pub mod rng;
pub mod trace;

pub use bandwidth::BandwidthModel;
pub use cache::{AccessKind, CacheGeometry, CacheHierarchy, CacheLevel, SetAssocCache};
pub use cycles::{Cycles, SimTime};
pub use host::{host_threads, par_map};
pub use json::{parse_json, JsonError, JsonValue, ToJson};
pub use machine::{CostParams, MachineConfig};
pub use perf::PerfCounters;
pub use registry::Registry;
pub use rng::SimRng;
pub use trace::{chrome_trace_json, trace_summary, TraceEvent, TraceKind, Tracer};

