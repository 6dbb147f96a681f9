//! Cycle counts and simulated-time conversion.
//!
//! Everything the simulation "measures" is a deterministic count of CPU
//! cycles. Converting to wall time only requires the modeled core frequency,
//! so [`Cycles`] is the universal currency of the whole workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A deterministic count of simulated CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Convert to simulated time at `freq_ghz` GHz.
    #[inline]
    pub fn at_ghz(self, freq_ghz: f64) -> SimTime {
        SimTime::from_nanos(self.0 as f64 / freq_ghz)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two counts (used to combine parallel workers: the phase
    /// ends when the slowest worker ends).
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// Simulated wall-clock time, stored in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime {
    nanos: f64,
}

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime { nanos: 0.0 };

    /// Build from nanoseconds.
    #[inline]
    pub fn from_nanos(nanos: f64) -> SimTime {
        SimTime { nanos }
    }

    /// Build from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> SimTime {
        SimTime { nanos: ms * 1e6 }
    }

    /// Nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.nanos
    }

    /// Microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.nanos / 1e3
    }

    /// Milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.nanos / 1e6
    }

    /// Seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.nanos / 1e9
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime {
            nanos: self.nanos.max(rhs.nanos),
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.nanos += rhs.nanos;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime {
            nanos: iter.map(|t| t.nanos).sum(),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1e9 {
            write!(f, "{:.3} s", self.as_secs())
        } else if self.nanos >= 1e6 {
            write!(f, "{:.3} ms", self.as_millis())
        } else if self.nanos >= 1e3 {
            write!(f, "{:.3} us", self.as_micros())
        } else {
            write!(f, "{:.0} ns", self.nanos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles(100);
        let b = Cycles(50);
        assert_eq!(a + b, Cycles(150));
        assert_eq!(a - b, Cycles(50));
        assert_eq!(a * 3, Cycles(300));
        assert_eq!(a / 4, Cycles(25));
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn time_conversion_at_frequency() {
        // 3.5 GHz: 3500 cycles == 1000 ns.
        let t = Cycles(3500).at_ghz(3.5);
        assert!((t.as_nanos() - 1000.0).abs() < 1e-9);
        assert!((t.as_micros() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(512.0)), "512 ns");
        assert_eq!(format!("{}", SimTime::from_nanos(2_500.0)), "2.500 us");
        assert_eq!(format!("{}", SimTime::from_millis(12.0)), "12.000 ms");
        assert_eq!(format!("{}", SimTime::from_millis(2000.0)), "2.000 s");
    }
}
