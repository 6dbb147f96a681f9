//! Host readings: thread CPU time and peak resident set size.

use std::fs;
use std::os::raw::{c_int, c_long};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU time of the calling thread in nanoseconds (user + system).
///
/// `/proc/thread-self/schedstat` carries the same counter but is only
/// brought up to date at scheduler ticks, which is too coarse for a
/// set-up phase of a few milliseconds; `clock_gettime` reads it exactly.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let s = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: u64 = s
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status carries VmHWM in kB");
    kib as f64 / 1024.0
}
