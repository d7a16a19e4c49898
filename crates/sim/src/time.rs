//! Virtual time for the discrete-event simulator.
//!
//! All of EnviroTrack's simulated protocols operate on a virtual clock with
//! microsecond resolution. Two newtypes keep instants and spans apart at the
//! type level ([C-NEWTYPE]):
//!
//! * [`Timestamp`] — an absolute instant, measured from the start of the
//!   simulation.
//! * [`SimDuration`] — a non-negative span between two instants.
//!
//! Microsecond ticks stored in a `u64` give ~584,000 years of simulated time,
//! far beyond any experiment in this repository, while keeping ordering exact
//! (no floating-point drift in the event queue).
//!
//! ```
//! use envirotrack_sim::time::{SimDuration, Timestamp};
//!
//! let start = Timestamp::ZERO;
//! let later = start + SimDuration::from_secs_f64(1.5);
//! assert_eq!(later.as_micros(), 1_500_000);
//! assert_eq!(later - start, SimDuration::from_millis(1500));
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, counted in microseconds from the
/// beginning of the simulation.
///
/// `Timestamp` is `Copy` and totally ordered; the event queue relies on this
/// ordering being exact, which is why the representation is integral.
///
/// ```
/// use envirotrack_sim::time::Timestamp;
/// assert!(Timestamp::from_secs(2) > Timestamp::from_millis(1999));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// A non-negative span of virtual time, counted in microseconds.
///
/// ```
/// use envirotrack_sim::time::SimDuration;
/// let hb = SimDuration::from_millis(250);
/// assert_eq!(hb * 2, SimDuration::from_millis(500));
/// assert_eq!(hb.as_secs_f64(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl Timestamp {
    /// The origin of virtual time.
    pub const ZERO: Timestamp = Timestamp(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from raw microsecond ticks.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Creates a timestamp from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Raw microsecond ticks since the simulation origin.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] when
    /// `earlier` is in the future (saturating, never panics).
    #[must_use]
    pub fn saturating_since(self, earlier: Timestamp) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.min(other.0))
    }

    /// Adds a duration, saturating at [`Timestamp::MAX`] instead of wrapping.
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span; used as an "infinite" timeout sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microsecond ticks.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let micros = secs * 1e6;
        assert!(micros <= u64::MAX as f64, "duration out of range: {secs}s");
        SimDuration(micros.round() as u64)
    }

    /// Raw microsecond ticks.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the span is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a fractional factor, rounding to the nearest microsecond.
    ///
    /// Useful for deriving protocol timers such as the paper's receive timer
    /// (2.1 × heartbeat period).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Subtracts, saturating at zero instead of panicking.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(
            self.0
                .checked_add(rhs.0)
                .expect("timestamp overflow: instant + duration exceeds u64 microseconds"),
        )
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: SimDuration) -> Timestamp {
        Timestamp(
            self.0
                .checked_sub(rhs.0)
                .expect("timestamp underflow: duration reaches before the simulation origin"),
        )
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = SimDuration;
    fn sub(self, rhs: Timestamp) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("timestamp subtraction: left operand must not precede right operand"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
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
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration underflow: result would be negative"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    /// Dividing two durations yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "inf");
        }
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl From<SimDuration> for f64 {
    fn from(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Timestamp::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(Timestamp::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn arithmetic_relates_instants_and_spans() {
        let a = Timestamp::from_secs(1);
        let b = a + SimDuration::from_millis(500);
        assert_eq!(b - a, SimDuration::from_millis(500));
        assert_eq!(b - SimDuration::from_millis(500), a);
    }

    #[test]
    fn saturating_since_clamps_future_origins() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_derives_protocol_timers() {
        let hb = SimDuration::from_millis(1000);
        assert_eq!(hb.mul_f64(2.1), SimDuration::from_millis(2100));
        assert_eq!(hb.mul_f64(4.2), SimDuration::from_millis(4200));
    }

    #[test]
    fn duration_ratio_is_dimensionless() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(2);
        assert!((a / b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_a_readable_unit() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
        assert_eq!(SimDuration::from_micros(17).to_string(), "17us");
        assert_eq!(SimDuration::MAX.to_string(), "inf");
        assert_eq!(Timestamp::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    #[should_panic(expected = "must not precede")]
    fn instant_subtraction_checks_order() {
        let _ = Timestamp::from_secs(1) - Timestamp::from_secs(2);
    }

    #[test]
    fn saturating_helpers_never_panic() {
        assert_eq!(
            Timestamp::MAX.saturating_add(SimDuration::from_secs(1)),
            Timestamp::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }
}
