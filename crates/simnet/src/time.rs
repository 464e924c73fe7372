use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// # Example
///
/// ```rust
/// use shmcaffe_simnet::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(250);
/// assert_eq!(t.as_secs_f64(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// Constructs from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from whole seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier time (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be finite and non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Constructs from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

// Additions saturate at `u64::MAX` ns (≈ 584 years), so "forever" — a
// `u64::MAX` timeout, say — stays forever instead of wrapping to the past.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(3);
        assert_eq!(t.as_nanos(), 3_000_000);
        let t2 = t + SimDuration::from_micros(500);
        assert_eq!((t2 - t).as_nanos(), 500_000);
        assert_eq!(t2.since(t).as_nanos(), 500_000);
        // Saturating subtraction.
        assert_eq!((t - t2).as_nanos(), 0);
    }

    #[test]
    fn additions_saturate_instead_of_wrapping() {
        let max = SimDuration::from_nanos(u64::MAX);
        let mut t = SimTime::from_millis(1) + max;
        assert_eq!(t.as_nanos(), u64::MAX);
        t += SimDuration::from_nanos(1);
        assert_eq!(t.as_nanos(), u64::MAX);
        let mut d = max + SimDuration::from_nanos(1);
        assert_eq!(d, max);
        d += max;
        assert_eq!(d, max);
        let total: SimDuration = [max, max].into_iter().sum();
        assert_eq!(total, max);
    }

    #[test]
    fn conversions_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert_eq!(d.as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_millis_f64(2.5).as_nanos(), 2_500_000);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(100).mul_f64(2.5);
        assert_eq!(d.as_millis_f64(), 250.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total.as_millis_f64(), 10.0);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        SimDuration::from_secs_f64(-1.0);
    }
}
