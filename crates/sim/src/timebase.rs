//! Frame-free time foundations: [`Span`] and the [`SimTime`] newtype.
//!
//! The workspace distinguishes three clock domains (see
//! `hcs-clock::domain` for the other two, `LocalTime`/`GlobalTime`):
//!
//! - [`SimTime`] — *true* simulated time, the engine's oracle timeline.
//!   Only the simulator advances it; algorithms under test never see it.
//! - [`Span`] — a signed duration in seconds, attached to no frame.
//!   Durations are the only time-like quantity that may be freely
//!   extracted to `f64` (via [`Span::seconds`]) and rebuilt (via
//!   [`Span::from_secs`] / [`secs`]): a duration means the same thing in
//!   every frame.
//!
//! All newtypes are `#[repr(transparent)]` wrappers over `f64` with
//! `#[inline]` operators, so the compiled float math is identical to the
//! bare-`f64` code they replaced — the determinism suite's bit-identical
//! replay pins this down.
//!
//! Only the physically meaningful operations exist: `SimTime − SimTime →
//! Span`, `SimTime + Span → SimTime`, `Span ± Span → Span`, scaling of
//! `Span` by dimensionless factors. There is deliberately no
//! `SimTime + SimTime` and no cross-domain arithmetic; the `clockdomain`
//! xtask pass keeps public signatures from eroding back to bare `f64`.
//!
//! This module (together with `hcs-clock::domain`) is the one home of
//! raw-value access: the fields are private, and the `clockdomain` lint
//! exempts it.

#![forbid(unsafe_code)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A signed duration in seconds, attached to no clock frame.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Span(f64);

/// Shorthand constructor for [`Span`]: `secs(3e-6)` reads better than
/// `Span::from_secs(3e-6)` in machine profiles and tests.
#[inline]
pub const fn secs(s: f64) -> Span {
    Span(s)
}

impl Span {
    /// The zero duration.
    pub const ZERO: Span = Span(0.0);

    /// Builds a duration from seconds.
    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        Span(s)
    }

    /// This duration in seconds. Durations are frame-free, so unlike the
    /// clock-domain newtypes this extraction is always safe.
    #[inline]
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Span(self.0.abs())
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Span(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Span(self.0.min(other.0))
    }

    /// Whether the duration is a finite number.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Span {
    type Output = Span;
    #[inline]
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl Sub for Span {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: Span) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl Neg for Span {
    type Output = Span;
    #[inline]
    fn neg(self) -> Span {
        Span(-self.0)
    }
}

impl AddAssign for Span {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Span {
    #[inline]
    fn sub_assign(&mut self, rhs: Span) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Span {
    type Output = Span;
    #[inline]
    fn mul(self, rhs: f64) -> Span {
        Span(self.0 * rhs)
    }
}

impl Mul<Span> for f64 {
    type Output = Span;
    #[inline]
    fn mul(self, rhs: Span) -> Span {
        Span(self * rhs.0)
    }
}

impl Div<f64> for Span {
    type Output = Span;
    #[inline]
    fn div(self, rhs: f64) -> Span {
        Span(self.0 / rhs)
    }
}

/// Ratio of two durations (dimensionless).
impl Div<Span> for Span {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Span) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Span {
    fn sum<I: Iterator<Item = Span>>(iter: I) -> Span {
        Span(iter.map(|s| s.0).sum())
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::LowerExp for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerExp::fmt(&self.0, f)
    }
}

/// True simulated time: seconds since simulation start on the engine's
/// oracle timeline. Only the engine advances it; synchronization
/// algorithms must go through (drifting) clocks instead.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[repr(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Sentinel earlier than every real instant (FIFO clamp tables).
    pub const NEG_INFINITY: SimTime = SimTime(f64::NEG_INFINITY);

    /// The instant `s` seconds after simulation start.
    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Seconds since simulation start. `SimTime` is the oracle frame, so
    /// this extraction carries no frame-confusion risk; prefer
    /// `a - b` (a [`Span`]) where a duration is what you actually want.
    #[inline]
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// Elapsed time since `earlier` (negative if `earlier` is later).
    #[inline]
    pub fn since(self, earlier: SimTime) -> Span {
        Span(self.0 - earlier.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        SimTime(self.0.max(other.0))
    }
}

impl Add<Span> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Span) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub<Span> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Span) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: SimTime) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl AddAssign<Span> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::LowerExp for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerExp::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_arithmetic() {
        let a = secs(2.0);
        let b = secs(0.5);
        assert_eq!((a + b).seconds(), 2.5);
        assert_eq!((a - b).seconds(), 1.5);
        assert_eq!((-b).seconds(), -0.5);
        assert_eq!((a * 3.0).seconds(), 6.0);
        assert_eq!((3.0 * a).seconds(), 6.0);
        assert_eq!((a / 4.0).seconds(), 0.5);
        assert_eq!(a / b, 4.0);
        assert!(b < a);
        assert_eq!(secs(-1.5).abs(), secs(1.5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Span = [a, b, b].into_iter().sum();
        assert_eq!(total.seconds(), 3.0);
    }

    #[test]
    fn simtime_arithmetic() {
        let t0 = SimTime::from_secs(10.0);
        let t1 = t0 + secs(2.5);
        assert_eq!(t1.seconds(), 12.5);
        assert_eq!((t1 - t0).seconds(), 2.5);
        assert_eq!(t1.since(t0), secs(2.5));
        assert_eq!((t1 - secs(0.5)).seconds(), 12.0);
        assert!(t0 < t1);
        assert_eq!(t0.max(t1), t1);
        let mut t = SimTime::ZERO;
        t += secs(1.0);
        assert_eq!(t.seconds(), 1.0);
        assert!(SimTime::NEG_INFINITY < SimTime::ZERO);
    }

    #[test]
    fn transparent_layout() {
        assert_eq!(std::mem::size_of::<Span>(), std::mem::size_of::<f64>());
        assert_eq!(std::mem::size_of::<SimTime>(), std::mem::size_of::<f64>());
    }
}
