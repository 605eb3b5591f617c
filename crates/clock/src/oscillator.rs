//! Physical oscillator model of a compute node's time source.
//!
//! A node's clock frequency error is modeled as
//!
//! ```text
//! d(t) = skew + a1·sin(2π t / p1 + φ1) + a2·sin(2π t / p2 + φ2)
//! ```
//!
//! (all terms dimensionless frequency fractions, e.g. `1e-6` = 1 ppm).
//! The *displacement* of the clock relative to true time is the integral
//! of `d(t)`, which is analytic, so clock readings are O(1) to compute.
//!
//! This matches the paper's empirical findings (Fig. 2 and §III-C2 /
//! Doleschal et al.): over a 10 s window drift is almost perfectly linear
//! (R² > 0.9), while over 500 s the wander terms curve it visibly.
//!
//! The wander terms take their `sin` and `cos` from
//! [`hcs_sim::detmath`], so a clock reading is the same bits on every
//! host; both terms are inlined into a read, which evaluates them side
//! by side.

use hcs_sim::detmath;
use hcs_sim::rngx::{self, label};
use hcs_sim::{ClockSpec, SimTime};

use std::f64::consts::TAU;

/// Deterministic per-node frequency-error model.
#[derive(Debug, Clone, PartialEq)]
pub struct Oscillator {
    /// Constant frequency error (fraction, 1e-6 = 1 ppm).
    skew: f64,
    /// Primary wander term.
    w1: Wander,
    /// Secondary wander term.
    w2: Wander,
}

/// One wander term `a·sin(2π t / p + φ)` of the frequency error, with
/// the two constants of its integral, `cos φ` and `a·p/2π`, computed
/// once instead of on every clock read.
#[derive(Debug, Clone, PartialEq)]
struct Wander {
    /// Amplitude `a` (fraction).
    amp: f64,
    /// Period `p`, s.
    period: f64,
    /// Phase `φ`, rad.
    phase: f64,
    /// `cos φ`.
    cos_phase: f64,
    /// `a·p/2π`.
    scale: f64,
}

impl Wander {
    fn new(amp: f64, period: f64, phase: f64) -> Self {
        Self {
            amp,
            period,
            phase,
            cos_phase: detmath::cos(phase),
            scale: amp * period / TAU,
        }
    }

    /// The term's frequency error at true time `t`.
    fn rate(&self, t: SimTime) -> f64 {
        let t = t.seconds();
        self.amp * detmath::sin(TAU * t / self.period + self.phase)
    }

    /// The term's integral over `[0, t]`. Inlined, so a clock read
    /// evaluates its two wander terms side by side.
    #[inline(always)]
    fn displacement(&self, t: SimTime) -> f64 {
        let t = t.seconds();
        if self.amp != 0.0 {
            self.scale * (self.cos_phase - detmath::cos(TAU * t / self.period + self.phase))
        } else {
            0.0
        }
    }
}

impl Oscillator {
    /// An oscillator with constant frequency error `skew` plus the
    /// wander terms `a1·sin(2π t / p1 + φ1)` and `a2·sin(2π t / p2 +
    /// φ2)` (amplitudes as fractions, periods in s, phases in rad).
    pub fn new(skew: f64, a1: f64, p1: f64, phi1: f64, a2: f64, p2: f64, phi2: f64) -> Self {
        Self {
            skew,
            w1: Wander::new(a1, p1, phi1),
            w2: Wander::new(a2, p2, phi2),
        }
    }

    /// A perfect oscillator (zero error).
    pub fn perfect() -> Self {
        Self::with_skew(0.0)
    }

    /// An oscillator with constant skew only (fraction, not ppm).
    pub fn with_skew(skew: f64) -> Self {
        Self::new(skew, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
    }

    /// Derives the oscillator of `node` from the machine's [`ClockSpec`]
    /// and the run's master seed. All ranks of a node share this
    /// oscillator — that is precisely the property `ClockPropSync`
    /// exploits.
    pub fn for_node(spec: &ClockSpec, master_seed: u64, node: usize) -> Self {
        let mut rng = rngx::stream_rng(master_seed, label::node_oscillator(node));
        let ppm = 1e-6;
        let skew = rngx::normal_with(&mut rng, 0.0, spec.skew_sd_ppm * ppm);
        let a1 = spec.wander_amp_ppm * ppm * rng.range(0.6, 1.4);
        let p1 = spec.wander_period_s.seconds() * rng.range(0.5, 1.5);
        let phi1 = rng.range(0.0, TAU);
        let a2 = spec.wander2_amp_ppm * ppm * rng.range(0.6, 1.4);
        let p2 = spec.wander2_period_s.seconds() * rng.range(0.5, 1.5);
        let phi2 = rng.range(0.0, TAU);
        Self::new(skew, a1, p1, phi1, a2, p2, phi2)
    }

    /// Instantaneous frequency error at true time `t`.
    pub fn drift_rate(&self, t: SimTime) -> f64 {
        self.skew + self.w1.rate(t) + self.w2.rate(t)
    }

    /// Accumulated clock displacement at true time `t`:
    /// `∫₀ᵗ d(τ) dτ` (seconds of clock error relative to true time).
    pub fn displacement(&self, t: SimTime) -> f64 {
        self.skew * t.seconds() + self.w1.displacement(t) + self.w2.displacement(t)
    }

    /// The clock's elapsed reading after `t` seconds of true time
    /// (without any constant offset): `t + displacement(t)`.
    pub fn elapsed(&self, t: SimTime) -> f64 {
        t.seconds() + self.displacement(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_tracks_true_time() {
        let o = Oscillator::perfect();
        for t in [0.0, 1.0, 100.0, 12345.6] {
            assert_eq!(o.elapsed(SimTime::from_secs(t)), t);
        }
    }

    #[test]
    fn constant_skew_is_linear() {
        let o = Oscillator::with_skew(1e-6);
        assert!((o.elapsed(SimTime::from_secs(10.0)) - (10.0 + 10.0e-6)).abs() < 1e-15);
        assert!((o.elapsed(SimTime::from_secs(500.0)) - (500.0 + 500.0e-6)).abs() < 1e-12);
    }

    #[test]
    fn displacement_is_integral_of_drift_rate() {
        let o = Oscillator::new(0.4e-6, 0.1e-6, 250.0, 1.2, 0.02e-6, 31.0, 0.3);
        // Numerically integrate drift_rate and compare to displacement.
        let t_end = 200.0;
        let n = 200_000;
        let dt = t_end / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let t = (i as f64 + 0.5) * dt;
            acc += o.drift_rate(SimTime::from_secs(t)) * dt;
        }
        let err = (acc - o.displacement(SimTime::from_secs(t_end))).abs();
        assert!(err < 1e-12, "integration mismatch: {err:.3e}");
    }

    /// The displacement as it was computed before the wander constants
    /// were hoisted: every constant recomputed in place, in the
    /// original order. The oracle of the test below.
    fn unhoisted_displacement(o: &Oscillator, t: SimTime) -> f64 {
        let t = t.seconds();
        let term = |w: &Wander| {
            if w.amp != 0.0 {
                w.amp * w.period / TAU
                    * (detmath::cos(w.phase) - detmath::cos(TAU * t / w.period + w.phase))
            } else {
                0.0
            }
        };
        o.skew * t + term(&o.w1) + term(&o.w2)
    }

    #[test]
    fn hoisted_clock_reads_are_bit_identical_to_the_unhoisted_formula() {
        use crate::global::Clock;
        use crate::source::LocalClock;
        // Times from 0 to 10^4 s: zero, an irrational-step grid and the
        // end point, ascending (virtual time only moves forward).
        let mut times: Vec<f64> = (0..400).map(|i| i as f64 * 24.999_137).collect();
        times.extend([1e-9, 1e-3, 0.5, 1.0, 1e4]);
        times.sort_by(f64::total_cmp);
        let spec = ClockSpec::commodity();
        let mut oscs = vec![Oscillator::perfect(), Oscillator::with_skew(-3.7e-6)];
        for seed in [0, 1, 7, 42, 0xC0FFEE] {
            oscs.extend((0..12).map(|node| Oscillator::for_node(&spec, seed, node)));
        }
        let cluster = hcs_sim::machines::testbed(1, 1).cluster(3);
        cluster.run(|ctx| {
            let mut clocks: Vec<LocalClock> = oscs
                .iter()
                .map(|o| LocalClock::from_oscillator(o.clone(), 0))
                .collect();
            for &t in &times {
                ctx.jump_to(SimTime::from_secs(t));
                let now = ctx.now();
                for (o, clk) in oscs.iter().zip(&mut clocks) {
                    // The displacement alone too: adding it to `t` can
                    // round a last-bit difference away.
                    let disp = unhoisted_displacement(o, now);
                    assert_eq!(
                        o.displacement(now).to_bits(),
                        disp.to_bits(),
                        "{o:?} at t = {t}"
                    );
                    let want = (now.seconds() + disp).to_bits();
                    let read = clk.get_time(ctx).raw_seconds().to_bits();
                    let eval = clk.true_eval(now).raw_seconds().to_bits();
                    assert_eq!((read, eval), (want, want), "{o:?} at t = {t}");
                }
            }
        });
    }

    #[test]
    fn displacement_starts_at_zero() {
        let o = Oscillator::for_node(&ClockSpec::commodity(), 1, 0);
        assert_eq!(o.displacement(SimTime::ZERO), 0.0);
    }

    #[test]
    fn per_node_derivation_is_deterministic_and_distinct() {
        let spec = ClockSpec::commodity();
        let a = Oscillator::for_node(&spec, 99, 3);
        let b = Oscillator::for_node(&spec, 99, 3);
        let c = Oscillator::for_node(&spec, 99, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn commodity_magnitudes_match_fig2() {
        // Relative drift between two nodes over 500 s should be in the
        // hundreds-of-microseconds range (paper Fig. 2a: ~100-400 us).
        let spec = ClockSpec::commodity();
        let mut max_rel: f64 = 0.0;
        for node in 1..10 {
            let a = Oscillator::for_node(&spec, 7, 0);
            let b = Oscillator::for_node(&spec, 7, node);
            let t = SimTime::from_secs(500.0);
            let rel = (a.displacement(t) - b.displacement(t)).abs();
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel > 50e-6, "max relative drift {max_rel:.3e}");
        assert!(max_rel < 3e-3, "max relative drift {max_rel:.3e}");
    }

    #[test]
    fn short_windows_are_nearly_linear() {
        // R^2 of a linear fit over 10 s must exceed 0.9 (paper §III-C2).
        let spec = ClockSpec::commodity();
        let a = Oscillator::for_node(&spec, 11, 0);
        let b = Oscillator::for_node(&spec, 11, 1);
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&t| {
                let t = SimTime::from_secs(t);
                a.displacement(t) - b.displacement(t)
            })
            .collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let r2 = sxy * sxy / (sxx * syy);
        assert!(r2 > 0.9, "r2 {r2}");
    }
}
