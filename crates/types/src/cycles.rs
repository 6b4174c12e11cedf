//! Simulated cycle counts.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

use serde::Serialize;

/// A count of simulated processor cycles.
///
/// The whole reproduction runs on a simulated clock: every modelled memory
/// access advances the clock by its modelled latency, and all of the paper's
/// timing results (cycles per hammering iteration, time to first bit flip) are
/// expressed in these simulated cycles, converted to seconds with the nominal
/// clock frequency of the modelled machine.
///
/// # Examples
///
/// ```
/// use pthammer_types::Cycles;
/// let a = Cycles::new(600);
/// let b = Cycles::new(300);
/// assert_eq!((a + b).as_u64(), 900);
/// assert_eq!((a - b).as_u64(), 300);
/// assert!((Cycles::new(2_600_000).as_seconds(2.6e9) - 0.001).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts the cycle count to seconds at the given clock frequency (Hz).
    pub fn as_seconds(self, clock_hz: f64) -> f64 {
        self.0 as f64 / clock_hz
    }

    /// Converts the cycle count to milliseconds at the given clock frequency (Hz).
    pub fn as_millis(self, clock_hz: f64) -> f64 {
        self.as_seconds(clock_hz) * 1e3
    }

    /// Converts the cycle count to minutes at the given clock frequency (Hz).
    pub fn as_minutes(self, clock_hz: f64) -> f64 {
        self.as_seconds(clock_hz) / 60.0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> Self {
        c.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |acc, c| acc + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut c = Cycles::new(10);
        c += Cycles::new(5);
        assert_eq!(c, Cycles::new(15));
        c -= Cycles::new(3);
        assert_eq!(c, Cycles::new(12));
        assert_eq!(Cycles::new(5).saturating_sub(Cycles::new(7)), Cycles::ZERO);
        assert_eq!(
            vec![Cycles::new(1), Cycles::new(2), Cycles::new(3)]
                .into_iter()
                .sum::<Cycles>(),
            Cycles::new(6)
        );
    }

    #[test]
    fn conversions() {
        let c = Cycles::new(2_600_000_000);
        assert!((c.as_seconds(2.6e9) - 1.0).abs() < 1e-9);
        assert!((c.as_millis(2.6e9) - 1000.0).abs() < 1e-6);
        assert!((c.as_minutes(2.6e9) - 1.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_cycles() {
        assert_eq!(format!("{}", Cycles::new(42)), "42 cycles");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(Cycles::new(u64::MAX).checked_add(Cycles::new(1)).is_none());
        assert_eq!(
            Cycles::new(1).checked_add(Cycles::new(2)),
            Some(Cycles::new(3))
        );
    }
}
