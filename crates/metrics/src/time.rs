//! Simulated time base.
//!
//! All simulator components charge work in [`Cycles`] against a shared
//! [`SimClock`]. The nominal frequency is the paper testbed's 2.3 GHz, so
//! reported "seconds" are directly comparable with the paper's wall-clock
//! numbers in *shape* (the simulator never sleeps for real time).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nominal simulated CPU frequency in Hz (Intel E5-2690 v3: 2.3 GHz).
pub const CPU_HZ: u64 = 2_300_000_000;

/// A duration or instant measured in simulated CPU cycles.
///
/// `Cycles` is the single time unit used throughout the simulator; the
/// MMU-overhead methodology of the paper's Table 4
/// (`(walk_cycles * 100) / unhalted_cycles`) falls out of it directly.
///
/// # Examples
///
/// ```
/// use hawkeye_metrics::Cycles;
///
/// let fault = Cycles::from_micros(3) + Cycles::from_nanos(500);
/// assert_eq!(fault.as_micros(), 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a duration of `n` cycles.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts simulated seconds to cycles.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        Cycles((secs * CPU_HZ as f64) as u64)
    }

    /// Converts simulated milliseconds to cycles.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Cycles(ms * (CPU_HZ / 1_000))
    }

    /// Converts simulated microseconds to cycles.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Cycles(us * (CPU_HZ / 1_000_000))
    }

    /// Converts simulated nanoseconds to cycles (rounding down).
    #[inline]
    pub fn from_nanos(ns: u64) -> Self {
        Cycles(ns * CPU_HZ / 1_000_000_000)
    }

    /// This duration in simulated seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / CPU_HZ as f64
    }

    /// This duration in simulated milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.as_secs() * 1e3
    }

    /// This duration in simulated microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.as_secs() * 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
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
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs();
        if s >= 1.0 {
            write!(f, "{s:.2}s")
        } else if s >= 1e-3 {
            write!(f, "{:.2}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.2}us", s * 1e6)
        } else {
            write!(f, "{}cyc", self.0)
        }
    }
}

/// A monotonically advancing simulated clock.
///
/// The kernel owns one `SimClock`; every simulated action (memory access,
/// page fault, daemon work) advances it. Daemons running on other cores do
/// *not* advance the clock but are budgeted against it (see the kernel
/// crate's daemon scheduler).
///
/// # Examples
///
/// ```
/// use hawkeye_metrics::{Cycles, SimClock};
///
/// let mut clock = SimClock::new();
/// let t0 = clock.now();
/// clock.advance(Cycles::from_millis(5));
/// assert_eq!((clock.now() - t0).as_millis(), 5.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Cycles,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated instant.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Advances the clock by `d`.
    #[inline]
    pub fn advance(&mut self, d: Cycles) {
        self.now += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversions_round_trip() {
        assert_eq!(Cycles::from_secs(1.0).get(), CPU_HZ);
        assert_eq!(Cycles::from_millis(1).get(), CPU_HZ / 1_000);
        assert_eq!(Cycles::from_micros(1).get(), CPU_HZ / 1_000_000);
        let c = Cycles::from_micros(465);
        assert!((c.as_micros() - 465.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Cycles::new(100);
        let b = Cycles::new(40);
        assert_eq!((a + b).get(), 140);
        assert_eq!((a - b).get(), 60);
        assert_eq!((a * 3).get(), 300);
        assert_eq!((a / 4).get(), 25);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycles = (1..=4).map(Cycles::new).sum();
        assert_eq!(total.get(), 10);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), Cycles::ZERO);
        clock.advance(Cycles::new(7));
        clock.advance(Cycles::new(3));
        assert_eq!(clock.now().get(), 10);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Cycles::from_secs(2.0)), "2.00s");
        assert_eq!(format!("{}", Cycles::from_millis(3)), "3.00ms");
        assert_eq!(format!("{}", Cycles::from_micros(9)), "9.00us");
        assert_eq!(format!("{}", Cycles::new(10)), "10cyc");
    }
}
