//! Host CPU time, minor page faults and peak resident set size of this
//! process, read with `getrusage(RUSAGE_SELF)`.
//!
//! These figures are reported beside each BENCH record's wall time and,
//! like it, stay outside the simulated digest: no gate or bound reads
//! them. They are process-wide, so they are the experiment's own only
//! while nothing else runs in the process; the runner drops them from
//! host-parallel runs.

/// CPU time and minor page faults over an interval (or since process
/// start, as [`Rusage::now`] returns), and the process's peak resident
/// set size at its end.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rusage {
    /// User-mode CPU time, milliseconds.
    pub user_ms: f64,
    /// Kernel-mode CPU time, milliseconds.
    pub sys_ms: f64,
    /// Page faults served without I/O.
    pub minor_faults: u64,
    /// The process's peak resident set size so far, MiB (`ru_maxrss`).
    /// A high-water mark, not a delta: an interval reports the peak at
    /// its end, which covers everything that ran before it.
    pub max_rss_mib: f64,
}

impl Rusage {
    /// This process's totals so far, or `None` where `getrusage` is not
    /// available.
    pub fn now() -> Option<Rusage> {
        sys::self_usage()
    }

    /// The usage from `start` (an earlier [`Rusage::now`]) to now.
    pub fn since(start: Option<Rusage>) -> Option<Rusage> {
        let (start, end) = (start?, Rusage::now()?);
        Some(Rusage {
            user_ms: end.user_ms - start.user_ms,
            sys_ms: end.sys_ms - start.sys_ms,
            minor_faults: end.minor_faults.saturating_sub(start.minor_faults),
            max_rss_mib: end.max_rss_mib,
        })
    }

    /// Append `,"user_ms":..,"sys_ms":..,"minor_faults":..,"max_rss_mib":..`
    /// to a JSON object under construction.
    pub fn write_json_fields(&self, out: &mut String) {
        out.push_str(&format!(
            ",\"user_ms\":{},\"sys_ms\":{},\"minor_faults\":{},\"max_rss_mib\":{}",
            self.user_ms, self.sys_ms, self.minor_faults, self.max_rss_mib
        ));
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::Rusage;
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }

    /// `struct rusage` as Linux lays it out: two timevals, then fourteen
    /// longs, of which `ru_maxrss` (KiB) is the first and `ru_minflt` the
    /// fifth.
    #[repr(C)]
    struct RawRusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        longs: [c_long; 14],
    }

    const RUSAGE_SELF: c_int = 0;
    const RU_MAXRSS: usize = 0;
    const RU_MINFLT: usize = 4;

    extern "C" {
        fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    }

    fn ms(t: &Timeval) -> f64 {
        t.tv_sec as f64 * 1e3 + t.tv_usec as f64 / 1e3
    }

    pub(super) fn self_usage() -> Option<Rusage> {
        let mut raw = RawRusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            longs: [0; 14],
        };
        // SAFETY: `raw` is a writable `struct rusage` of the C layout, and
        // getrusage writes nothing beyond it.
        if unsafe { getrusage(RUSAGE_SELF, &mut raw) } != 0 {
            return None;
        }
        Some(Rusage {
            user_ms: ms(&raw.ru_utime),
            sys_ms: ms(&raw.ru_stime),
            minor_faults: raw.longs[RU_MINFLT] as u64,
            max_rss_mib: raw.longs[RU_MAXRSS] as f64 / 1024.0,
        })
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn self_usage() -> Option<super::Rusage> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn deltas_see_cpu_time_and_fresh_page_faults() {
        let start = Rusage::now();
        assert!(start.is_some());
        // Touch 64 MiB and spin a little. An allocation that large is
        // above glibc's largest mmap threshold, so its pages are fresh
        // rather than recycled from the heap.
        let mut v = vec![0u8; 64 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = i as u8;
        }
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box((&v, x));
        let d = Rusage::since(start).unwrap();
        assert!(d.minor_faults > 0, "{d:?}");
        // The 64 MiB were resident at once, so the peak covers them.
        assert!(d.max_rss_mib >= 64.0, "{d:?}");
        assert!(d.max_rss_mib >= start.unwrap().max_rss_mib, "{d:?}");
        assert!(d.user_ms + d.sys_ms > 0.0, "{d:?}");
        assert!(d.user_ms >= 0.0 && d.sys_ms >= 0.0, "{d:?}");
    }

    #[test]
    fn fields_extend_a_json_object() {
        let r = Rusage {
            user_ms: 1.5,
            sys_ms: 0.25,
            minor_faults: 7,
            max_rss_mib: 12.5,
        };
        let mut s = String::from("{\"wall_ms\":2");
        r.write_json_fields(&mut s);
        s.push('}');
        let doc = svagc_metrics::parse_json(&s).unwrap();
        assert_eq!(
            doc.get("user_ms")
                .and_then(svagc_metrics::JsonValue::as_f64),
            Some(1.5)
        );
        assert_eq!(
            doc.get("minor_faults")
                .and_then(svagc_metrics::JsonValue::as_u64),
            Some(7)
        );
        assert_eq!(
            doc.get("max_rss_mib")
                .and_then(svagc_metrics::JsonValue::as_f64),
            Some(12.5)
        );
    }
}
