//! Clock-domain newtypes: [`LocalTime`], [`GlobalTime`] and the shared
//! duration type [`Span`].
//!
//! Clock synchronization juggles readings from *different time frames*:
//! a rank's raw local clock, the reference frame a linear model asserts,
//! and the simulator's oracle true time ([`hcs_sim::SimTime`]). All of
//! them are "seconds as `f64`" at the machine level, which historically
//! made it a one-character typo to, say, subtract a local reading from a
//! global one and feed the result into a regression. These newtypes make
//! each frame a distinct type and only implement the physically
//! meaningful operations:
//!
//! - `LocalTime − LocalTime → Span`, `LocalTime ± Span → LocalTime`,
//! - `GlobalTime − GlobalTime → Span`, `GlobalTime ± Span → GlobalTime`,
//! - no cross-domain `Add`/`Sub`/`PartialOrd` — mixing frames is a
//!   compile error.
//!
//! Two deliberate escape hatches exist, both named and grep-able:
//!
//! - [`GlobalTime::rebase_local`] re-interprets a clock's asserted
//!   reading as the *local* input of the next decorator level. This is
//!   the blessed conversion at `GlobalClockLM` boundaries and at sync
//!   estimator inputs ("one clock's global frame is the next model's
//!   client frame").
//! - `raw_seconds` / `from_raw_seconds` expose the underlying `f64` for
//!   wire encoding and oracle math. The `clockdomain` xtask lint bans
//!   anonymous extraction (`.0`, `as f64`, `f64::from`) outside this
//!   module, so every frame-erasing site in the workspace is one of
//!   these named calls.
//!
//! All types are `#[repr(transparent)]` over `f64` with `#[inline]`
//! operators: the generated code is bit-identical to the raw-`f64`
//! version, so simulated timelines do not change (the determinism
//! suite's bit-identical replay pins this down).

use hcs_sim::wire::Wire;

pub use hcs_sim::timebase::{secs, Span};

/// A reading of a rank's *local* clock (or any value in a client clock's
/// own frame): the `x` of `offset(x) = slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct LocalTime(f64);

impl LocalTime {
    /// The local-frame epoch.
    pub const ZERO: LocalTime = LocalTime(0.0);

    /// Wraps a raw seconds value read off a local clock. Frame-erasing;
    /// use only at clock-read and wire-decode boundaries.
    #[inline]
    pub const fn from_raw_seconds(s: f64) -> Self {
        Self(s)
    }

    /// The underlying seconds value. Frame-erasing; use only for wire
    /// encoding and model arithmetic on the raw axis.
    #[inline]
    pub const fn raw_seconds(self) -> f64 {
        self.0
    }

    /// Elapsed span since `earlier` (negative if `earlier` is later).
    #[inline]
    pub fn since(self, earlier: LocalTime) -> Span {
        Span::from_secs(self.0 - earlier.0)
    }

    /// The later of two local readings.
    #[inline]
    pub fn max(self, other: LocalTime) -> LocalTime {
        LocalTime(self.0.max(other.0))
    }
}

impl std::ops::Sub for LocalTime {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: LocalTime) -> Span {
        Span::from_secs(self.0 - rhs.0)
    }
}

impl std::ops::Add<Span> for LocalTime {
    type Output = LocalTime;
    #[inline]
    fn add(self, rhs: Span) -> LocalTime {
        LocalTime(self.0 + rhs.seconds())
    }
}

impl std::ops::Sub<Span> for LocalTime {
    type Output = LocalTime;
    #[inline]
    fn sub(self, rhs: Span) -> LocalTime {
        LocalTime(self.0 - rhs.seconds())
    }
}

impl std::ops::AddAssign<Span> for LocalTime {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.seconds();
    }
}

/// Wire form of a local reading: the raw seconds as little-endian
/// `f64`. The typed `send_t`/`recv_t` path keeps the frame on both ends
/// of the wire — decode yields a [`LocalTime`], not a bare float.
impl Wire for LocalTime {
    type Bytes = [u8; 8];

    #[inline]
    fn to_wire(self) -> [u8; 8] {
        self.raw_seconds().to_le_bytes()
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Self {
        LocalTime::from_raw_seconds(f64::from_wire(bytes))
    }
}

impl std::fmt::Display for LocalTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::fmt::LowerExp for LocalTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A reading in the *global* (reference) frame a clock asserts: the
/// output of `LinearModel::apply` and of `Clock::get_time`.
///
/// Two `GlobalTime`s from *different* clocks may legitimately be
/// subtracted — that difference (how far two clocks disagree) is exactly
/// what offset estimators measure and accuracy reports quote. The type
/// system cannot distinguish per-clock frames; it only guarantees that a
/// global reading is never silently used as a local one.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct GlobalTime(f64);

impl GlobalTime {
    /// The global-frame epoch.
    pub const ZERO: GlobalTime = GlobalTime(0.0);

    /// Wraps a raw seconds value. Frame-erasing; use only at clock-read
    /// and wire-decode boundaries.
    #[inline]
    pub const fn from_raw_seconds(s: f64) -> Self {
        Self(s)
    }

    /// The underlying seconds value. Frame-erasing; use only for wire
    /// encoding and oracle/report math.
    #[inline]
    pub const fn raw_seconds(self) -> f64 {
        self.0
    }

    /// Re-interprets this reading as the *local* input of the next
    /// decorator or model level. The blessed frame shift: what one clock
    /// asserts as global is the client value the model stacked on top of
    /// it consumes.
    #[inline]
    pub const fn rebase_local(self) -> LocalTime {
        LocalTime(self.0)
    }

    /// Elapsed span since `earlier` (negative if `earlier` is later).
    #[inline]
    pub fn since(self, earlier: GlobalTime) -> Span {
        Span::from_secs(self.0 - earlier.0)
    }

    /// The later of two global readings.
    #[inline]
    pub fn max(self, other: GlobalTime) -> GlobalTime {
        GlobalTime(self.0.max(other.0))
    }
}

impl std::ops::Sub for GlobalTime {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: GlobalTime) -> Span {
        Span::from_secs(self.0 - rhs.0)
    }
}

impl std::ops::Add<Span> for GlobalTime {
    type Output = GlobalTime;
    #[inline]
    fn add(self, rhs: Span) -> GlobalTime {
        GlobalTime(self.0 + rhs.seconds())
    }
}

impl std::ops::Sub<Span> for GlobalTime {
    type Output = GlobalTime;
    #[inline]
    fn sub(self, rhs: Span) -> GlobalTime {
        GlobalTime(self.0 - rhs.seconds())
    }
}

impl std::ops::AddAssign<Span> for GlobalTime {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.seconds();
    }
}

/// Wire form of a global reading (see the [`LocalTime`] impl).
impl Wire for GlobalTime {
    type Bytes = [u8; 8];

    #[inline]
    fn to_wire(self) -> [u8; 8] {
        self.raw_seconds().to_le_bytes()
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Self {
        GlobalTime::from_raw_seconds(f64::from_wire(bytes))
    }
}

impl std::fmt::Display for GlobalTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::fmt::LowerExp for GlobalTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_arithmetic() {
        let a = LocalTime::from_raw_seconds(10.0);
        let b = LocalTime::from_raw_seconds(12.5);
        assert_eq!(b - a, secs(2.5));
        assert_eq!(a + secs(2.5), b);
        assert_eq!(b - secs(2.5), a);
        assert_eq!(b.since(a), secs(2.5));
        assert_eq!(a.max(b), b);
        assert!(a < b);
        let mut c = a;
        c += secs(1.0);
        assert_eq!(c, LocalTime::from_raw_seconds(11.0));
    }

    #[test]
    fn global_arithmetic() {
        let a = GlobalTime::from_raw_seconds(-3.0);
        let b = GlobalTime::from_raw_seconds(4.0);
        assert_eq!(b - a, secs(7.0));
        assert_eq!(a + secs(7.0), b);
        assert_eq!(b.since(a), secs(7.0));
        assert_eq!(a.max(b), b);
        let mut c = a;
        c += secs(3.0);
        assert_eq!(c, GlobalTime::ZERO);
    }

    #[test]
    fn rebase_preserves_value() {
        let g = GlobalTime::from_raw_seconds(123.456);
        assert_eq!(g.rebase_local().raw_seconds(), 123.456);
    }

    #[test]
    fn wire_roundtrip_preserves_frame_value() {
        let l = LocalTime::from_raw_seconds(17.125);
        assert_eq!(LocalTime::from_wire(l.to_wire().as_ref()), l);
        let g = GlobalTime::from_raw_seconds(-0.5);
        assert_eq!(GlobalTime::from_wire(g.to_wire().as_ref()), g);
        // Same byte layout as the raw float: the wire schema is unchanged.
        assert_eq!(g.to_wire(), (-0.5f64).to_le_bytes());
    }

    #[test]
    fn transparent_layout() {
        assert_eq!(std::mem::size_of::<LocalTime>(), std::mem::size_of::<f64>());
        assert_eq!(
            std::mem::size_of::<GlobalTime>(),
            std::mem::size_of::<f64>()
        );
    }
}
