//! Virtual time.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since the start of the simulation.
///
/// `SimTime` wraps an `f64` but provides a total order (the simulator never
/// produces NaN; constructing a NaN time panics), so it can key the event
/// queue directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point.
    ///
    /// # Panics
    /// Panics if `seconds` is NaN or negative.
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// The time value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: construction forbids NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    fn add(self, seconds: f64) -> SimTime {
        SimTime::from_secs(self.0 + seconds)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, seconds: f64) {
        *self = *self + seconds;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;

    fn sub(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_secs(1.5);
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn ordering_is_total_and_correct() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let mut t = SimTime::from_secs(1.0);
        t += 0.5;
        assert_eq!(t.as_secs(), 1.5);
        let u = t + 0.5;
        assert_eq!(u.as_secs(), 2.0);
        assert_eq!(u - t, 0.5);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_secs(0.25).to_string(), "0.250000s");
    }
}
