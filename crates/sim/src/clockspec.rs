//! Numeric parameters of the simulated per-node oscillators.
//!
//! The parameters live here (in the substrate crate) because they are
//! part of a machine profile; the `hcs-clock` crate interprets them to
//! build actual clock objects. The defaults are calibrated against the
//! paper's Figure 2: a few hundred µs of relative drift over 500 s
//! (⇒ sub-ppm relative skew between nodes) with visible curvature at the
//! 100 s scale (⇒ slow sinusoidal wander), while any 10 s window still
//! fits a line with R² > 0.9.
//!
//! Duration-valued parameters are typed as [`Span`]; ppm-valued ones
//! stay dimensionless `f64`.

#![forbid(unsafe_code)]

use crate::timebase::{secs, Span};

/// Oscillator and time-source parameters for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSpec {
    /// Standard deviation of the per-node base frequency error, in parts
    /// per million. Each node draws its skew from `N(0, skew_sd_ppm)`.
    pub skew_sd_ppm: f64,
    /// Amplitude of the slow sinusoidal frequency wander, ppm.
    pub wander_amp_ppm: f64,
    /// Mean period of the frequency wander. Each node draws its own
    /// period uniformly in `[0.5, 1.5] × wander_period_s` and a random
    /// phase, so nodes curve differently (as in the paper's Fig. 2a).
    pub wander_period_s: Span,
    /// Amplitude of a secondary, faster wander component, ppm (adds
    /// small-scale waviness without breaking 10 s linearity).
    pub wander2_amp_ppm: f64,
    /// Period of the secondary wander component.
    pub wander2_period_s: Span,
    /// Standard deviation of the read-out noise per clock read.
    pub read_noise_s: Span,
    /// CPU cost of one clock read (charged to virtual time).
    pub read_cost_s: Span,
    /// Std. dev. of the boot-time offset of each node's monotonic
    /// (`clock_gettime`-like) time base. These are *huge* in practice
    /// (nodes boot at different times), which is exactly the effect the
    /// paper's Fig. 10b shows.
    pub raw_node_offset_sd_s: Span,
    /// Std. dev. of additional per-core offsets of the monotonic time
    /// base (TSC sync error between cores/sockets).
    pub raw_core_offset_sd_s: Span,
    /// Std. dev. of the per-node offset of the wall-clock
    /// (`gettimeofday`-like) time base — NTP keeps these at ms scale.
    pub wall_node_offset_sd_s: Span,
    /// Reporting resolution of the wall-clock time base
    /// (`gettimeofday` reports µs).
    pub wall_resolution_s: Span,
}

impl ClockSpec {
    /// A realistic commodity-cluster default (used by the machine
    /// profiles, which then tweak individual fields).
    pub fn commodity() -> Self {
        Self {
            skew_sd_ppm: 0.5,
            wander_amp_ppm: 0.08,
            wander_period_s: secs(250.0),
            wander2_amp_ppm: 0.015,
            wander2_period_s: secs(31.0),
            read_noise_s: secs(15e-9),
            read_cost_s: secs(25e-9),
            raw_node_offset_sd_s: secs(20_000.0),
            raw_core_offset_sd_s: secs(50e-6),
            wall_node_offset_sd_s: secs(2e-3),
            wall_resolution_s: secs(1e-6),
        }
    }

    /// An idealized spec with zero noise/wander — handy in unit tests
    /// where exact analytic behavior is asserted.
    pub fn ideal() -> Self {
        Self {
            skew_sd_ppm: 0.0,
            wander_amp_ppm: 0.0,
            wander_period_s: secs(100.0),
            wander2_amp_ppm: 0.0,
            wander2_period_s: secs(10.0),
            read_noise_s: Span::ZERO,
            read_cost_s: Span::ZERO,
            raw_node_offset_sd_s: Span::ZERO,
            raw_core_offset_sd_s: Span::ZERO,
            wall_node_offset_sd_s: Span::ZERO,
            wall_resolution_s: Span::ZERO,
        }
    }

    /// Like [`ClockSpec::ideal`] but with per-node skew, so clocks drift
    /// linearly and deterministically — useful for regression tests.
    pub fn linear(skew_sd_ppm: f64) -> Self {
        Self {
            skew_sd_ppm,
            ..Self::ideal()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_noiseless() {
        let s = ClockSpec::ideal();
        assert_eq!(s.skew_sd_ppm, 0.0);
        assert_eq!(s.read_noise_s, Span::ZERO);
        assert_eq!(s.read_cost_s, Span::ZERO);
    }

    #[test]
    fn linear_only_sets_skew() {
        let s = ClockSpec::linear(2.0);
        assert_eq!(s.skew_sd_ppm, 2.0);
        assert_eq!(s.wander_amp_ppm, 0.0);
    }

    #[test]
    fn commodity_is_sub_ppm() {
        let s = ClockSpec::commodity();
        assert!(s.skew_sd_ppm < 2.0);
        assert!(s.wander_amp_ppm < s.skew_sd_ppm);
    }
}
