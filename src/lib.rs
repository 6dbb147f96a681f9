//! SVAGC — a userspace Rust reproduction of *"SVAGC: Garbage Collection with
//! a Scalable Virtual Address Swapping Technique"* (Ataie & Yu, IEEE CLUSTER
//! 2022).
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`metrics`] — machine model, cycle accounting, cache/TLB simulation.
//! * [`vmem`] — simulated physical memory and x86-64-style 4-level page
//!   tables with per-core TLBs.
//! * [`kernel`] — the OS model: the SwapVA system call (Algorithm 1), its
//!   aggregation / PMD-caching / overlap (Algorithm 2) optimizations, TLB
//!   shootdown and IPI accounting, and a cost-modeled `memmove`.
//! * [`heap`] — the managed heap: object model, bidirectional TLABs, and the
//!   page-aligned large-object allocator of Algorithm 3.
//! * [`gc`] — SVAGC itself: a parallel LISP2 mark-compact collector whose
//!   `MoveObject` dispatches large objects to SwapVA (Algorithms 3–4).
//! * [`workloads`] — the paper's eleven benchmarks and run drivers.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and per-experiment index.

pub use svagc_core as gc;
pub use svagc_heap as heap;
pub use svagc_kernel as kernel;
pub use svagc_metrics as metrics;
pub use svagc_vmem as vmem;
pub use svagc_workloads as workloads;
