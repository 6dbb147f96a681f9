//! A fixed host-speed reference that shares no code with the simulator.
//!
//! Shared cloud hosts change speed by tens of percent over minutes
//! (neighbours on the same physical cores, frequency changes). The
//! benchmark runs this loop right before and right after every rep and
//! reports host times scaled to the speed the loop implies:
//! `time × NOMINAL_S / reference`, with the mean of the two readings.
//! Any change to the simulator moves the scaled time in full; a slower or
//! faster host moves both readings together and cancels out.

use std::collections::HashMap;
use std::hint::black_box;

use crate::clock::thread_cpu_ns;

/// CPU seconds the reference loop takes on a quiet 2-vCPU Xeon VM: scaled
/// times read as CPU seconds on that host.
pub const NOMINAL_S: f64 = 0.015;

const ITERATIONS: u64 = 1_000_000;

/// CPU seconds of a fixed amount of hashing and integer arithmetic on a
/// small, cache-resident map (the bottleneck the simulator shares with
/// it is the core, not memory).
pub fn reference_s() -> f64 {
    let t0 = thread_cpu_ns();
    let mut x = 0x1234_5678u64;
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(4096);
    for i in 0..ITERATIONS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *counts.entry(x >> 52).or_insert(0) += i;
    }
    black_box(&counts);
    (thread_cpu_ns() - t0) as f64 * 1e-9
}
