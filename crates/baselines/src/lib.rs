//! Baselines the paper compares SVAGC against.
//!
//! * [`parallelgc`] — HotSpot's throughput collector: parallel
//!   work-stealing mark-compact with byte-copy relocation.
//! * [`shenandoah`] — the pause-oriented region collector: concurrent
//!   marking, and a copy phase that lacks work stealing/parallelism (the
//!   paper's §V-A explanation for its poor Full-GC latency).
//! * [`los`] — the Large-Object-Space organization the paper's intro
//!   argues against: non-moving free-list LOS with fragmentation and
//!   "eventual compactions", measurable against SVAGC.
//!
//! The first two are the LISP2 machinery with a few switches turned off,
//! so each is a `GcConfig` preset that the workload driver builds through
//! the same path as SVAGC. Both pair with heaps built via
//! `HeapConfig::with_alignment(false)` — baseline JVMs do not page-align
//! large objects.

#![warn(missing_docs)]

pub mod los;
pub mod parallelgc;
pub mod shenandoah;

pub use los::{LosCollector, LosHeap, LosStats};
