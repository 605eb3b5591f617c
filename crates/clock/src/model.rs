//! Linear clock-drift models and their algebra.
//!
//! A [`LinearModel`] `(slope, intercept)` predicts the *offset* of a
//! reference clock relative to a client clock as a function of the
//! client clock's own reading `x`:
//!
//! ```text
//! offset(x) ≈ slope · x + intercept
//! global(x) = x + offset(x) = (1 + slope) · x + intercept
//! ```
//!
//! This is exactly the model HCA/HCA2/HCA3/JK learn by least-squares
//! regression over `(timestamp, offset)` fit points ([`fit_linear_model`]),
//! and the decorator `GlobalClockLM` applies.
//!
//! The clock-domain types make the frame of every quantity explicit:
//! `x` is a [`LocalTime`] (the client's own reading), the predicted
//! offset is a [`Span`], and the mapped value is a [`GlobalTime`] in the
//! reference frame. `slope` and `intercept` stay raw `f64` — they *are*
//! the mapping between frames, not values within one.
//!
//! HCA2 additionally *merges* models along tree edges
//! (`cm(0,3) = MERGE(cm(0,2), cm(2,3))` in the paper's Fig. 1a); that is
//! affine composition, provided by [`LinearModel::compose`].

use crate::domain::{GlobalTime, LocalTime, Span};

/// A linear drift model (slope, intercept), mapping a client clock
/// reading to the estimated offset of the reference clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Relative frequency error of the reference w.r.t. the client.
    pub slope: f64,
    /// Offset at client reading 0, seconds.
    pub intercept: f64,
}

impl LinearModel {
    /// The identity model: client *is* the reference.
    pub const IDENTITY: LinearModel = LinearModel {
        slope: 0.0,
        intercept: 0.0,
    };

    /// Slopes with `|1 + slope|` below this are treated as degenerate:
    /// the client clock would be (numerically) frozen in the reference
    /// frame, and inversion would explode.
    pub const DEGENERACY_EPS: f64 = 1e-12;

    /// Creates a model from slope and intercept.
    pub fn new(slope: f64, intercept: f64) -> Self {
        Self { slope, intercept }
    }

    /// Predicted reference−client offset at client reading `x`.
    pub fn offset_at(&self, x: LocalTime) -> Span {
        Span::from_secs(self.slope * x.raw_seconds() + self.intercept)
    }

    /// Maps a client clock reading into the reference frame.
    pub fn apply(&self, x: LocalTime) -> GlobalTime {
        GlobalTime::from_raw_seconds(x.raw_seconds()) + self.offset_at(x)
    }

    /// Inverse mapping: the client reading whose image is `g`.
    ///
    /// # Panics
    /// Panics if the model is degenerate, i.e. `|1 + slope|` is below
    /// [`LinearModel::DEGENERACY_EPS`] — near `slope == -1` the inverse
    /// is numerically meaningless.
    pub fn invert(&self, g: GlobalTime) -> LocalTime {
        let a = 1.0 + self.slope;
        assert!(
            a.abs() >= Self::DEGENERACY_EPS,
            "degenerate clock model: slope {} gives |1 + slope| = {:e} < {:e}",
            self.slope,
            a.abs(),
            Self::DEGENERACY_EPS
        );
        LocalTime::from_raw_seconds((g.raw_seconds() - self.intercept) / a)
    }

    /// Composition for model merging (HCA2, paper Fig. 1a):
    ///
    /// If `outer` maps clock B → reference and `inner` maps clock C → B,
    /// the result maps C → reference:
    /// `result.apply(x) == outer.apply(inner.apply(x).rebase_local())`
    /// for all `x`.
    pub fn compose(outer: &LinearModel, inner: &LinearModel) -> LinearModel {
        let ao = 1.0 + outer.slope;
        let ai = 1.0 + inner.slope;
        LinearModel {
            slope: ao * ai - 1.0,
            intercept: ao * inner.intercept + outer.intercept,
        }
    }

    /// Re-anchors the intercept so that the model passes exactly through
    /// the fit point `(timestamp, offset)` while keeping the slope
    /// (the paper's `COMPUTE_AND_SET_INTERCEPT`, Algorithm 2 line 21).
    pub fn reanchor(&mut self, timestamp: LocalTime, offset: Span) {
        self.intercept = self.slope * (-timestamp.raw_seconds()) + offset.seconds();
    }
}

impl Default for LinearModel {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// Result of a least-squares fit: the model plus goodness-of-fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// The fitted model.
    pub model: LinearModel,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Ordinary least-squares fit of `offset ≈ slope · timestamp + intercept`
/// (the paper's `FIT_LINEAR_MODEL`) over client-frame timestamps and
/// measured offsets.
///
/// With a single point the slope is zero and the intercept is that
/// point's offset; with zero points the identity model is returned.
///
/// Numerical note: timestamps can be huge (boot-time based raw clocks),
/// so the fit is centered on the mean before computing moments.
pub fn fit_linear_model(xs: &[LocalTime], ys: &[Span]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "fit needs equally many x and y");
    let n = xs.len();
    if n == 0 {
        return LinearFit {
            model: LinearModel::IDENTITY,
            r_squared: 1.0,
        };
    }
    let nf = n as f64;
    let mx = xs.iter().map(|x| x.raw_seconds()).sum::<f64>() / nf;
    let my = ys.iter().map(|y| y.seconds()).sum::<f64>() / nf;
    if n == 1 {
        return LinearFit {
            model: LinearModel::new(0.0, my),
            r_squared: 1.0,
        };
    }
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x.raw_seconds() - mx;
        let dy = y.seconds() - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        // All timestamps identical: fall back to a constant offset.
        return LinearFit {
            model: LinearModel::new(0.0, my),
            r_squared: 1.0,
        };
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        model: LinearModel::new(slope, intercept),
        r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::secs;
    use hcs_sim::detmath;

    fn lt(x: f64) -> LocalTime {
        LocalTime::from_raw_seconds(x)
    }

    #[test]
    fn identity_is_identity() {
        let m = LinearModel::IDENTITY;
        for x in [0.0, 1.0, -5.5, 1e9] {
            assert_eq!(m.apply(lt(x)).raw_seconds(), x);
        }
    }

    #[test]
    fn apply_and_invert_roundtrip() {
        let m = LinearModel::new(2.5e-6, -3.2e-4);
        for x in [0.0, 17.25, 1e5] {
            let g = m.apply(lt(x));
            assert!((m.invert(g) - lt(x)).abs() < secs(1e-9 * (1.0 + x.abs())));
        }
    }

    #[test]
    fn compose_matches_sequential_application() {
        let outer = LinearModel::new(1.5e-6, 2e-3);
        let inner = LinearModel::new(-0.7e-6, -1e-3);
        let merged = LinearModel::compose(&outer, &inner);
        for x in [0.0, 12.0, 9999.5] {
            let direct = outer.apply(inner.apply(lt(x)).rebase_local());
            let via = merged.apply(lt(x));
            assert!(
                (direct - via).abs() < secs(1e-12 * (1.0 + direct.raw_seconds().abs())),
                "{direct} vs {via}"
            );
        }
    }

    #[test]
    fn compose_with_identity_is_noop() {
        let m = LinearModel::new(3e-6, 0.5);
        let right = LinearModel::compose(&m, &LinearModel::IDENTITY);
        assert!((right.slope - m.slope).abs() < 1e-15);
        assert!((right.intercept - m.intercept).abs() < 1e-15);
        let composed = LinearModel::compose(&LinearModel::IDENTITY, &m);
        assert!((composed.slope - m.slope).abs() < 1e-15);
        assert!((composed.intercept - m.intercept).abs() < 1e-15);
    }

    #[test]
    fn reanchor_passes_through_point() {
        let mut m = LinearModel::new(4e-6, 123.0);
        m.reanchor(lt(1000.0), secs(0.25));
        assert!((m.offset_at(lt(1000.0)) - secs(0.25)).abs() < secs(1e-12));
        assert_eq!(m.slope, 4e-6);
    }

    #[test]
    fn fit_recovers_exact_line() {
        let xs: Vec<LocalTime> = (0..50).map(|i| lt(100.0 + i as f64)).collect();
        let ys: Vec<Span> = xs
            .iter()
            .map(|x| secs(3e-6 * x.raw_seconds() - 0.125))
            .collect();
        let fit = fit_linear_model(&xs, &ys);
        assert!((fit.model.slope - 3e-6).abs() < 1e-15);
        assert!((fit.model.intercept + 0.125).abs() < 1e-9);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn fit_handles_huge_offsets() {
        // Boot-time based raw clocks: x ~ 1e4 s, y intercept large.
        let xs: Vec<LocalTime> = (0..100).map(|i| lt(5.0e4 + i as f64 * 0.01)).collect();
        let ys: Vec<Span> = xs
            .iter()
            .map(|x| secs(-2e-7 * x.raw_seconds() + 40.0))
            .collect();
        let fit = fit_linear_model(&xs, &ys);
        assert!(
            (fit.model.slope + 2e-7).abs() < 1e-12,
            "slope {}",
            fit.model.slope
        );
        let mid = 5.0e4 + 0.5;
        assert!((fit.model.offset_at(lt(mid)) - secs(-2e-7 * mid + 40.0)).abs() < secs(1e-9));
    }

    #[test]
    fn fit_degenerate_inputs() {
        assert_eq!(fit_linear_model(&[], &[]).model, LinearModel::IDENTITY);
        let one = fit_linear_model(&[lt(5.0)], &[secs(0.75)]);
        assert_eq!(one.model.slope, 0.0);
        assert_eq!(one.model.intercept, 0.75);
        let same_x = fit_linear_model(
            &[lt(2.0), lt(2.0), lt(2.0)],
            &[secs(1.0), secs(2.0), secs(3.0)],
        );
        assert_eq!(same_x.model.slope, 0.0);
        assert!((same_x.model.intercept - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fit_r2_reflects_noise() {
        let xs: Vec<LocalTime> = (0..200).map(|i| lt(i as f64)).collect();
        // Deterministic pseudo-noise strong enough to hurt R^2.
        let ys: Vec<Span> = xs
            .iter()
            .map(|x| {
                let x = x.raw_seconds();
                secs(1e-6 * x + 1e-4 * (detmath::sin(x * 12.9898) * 43758.5453).fract())
            })
            .collect();
        let fit = fit_linear_model(&xs, &ys);
        assert!(fit.r_squared < 0.9, "r2 {}", fit.r_squared);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn invert_degenerate_panics() {
        let _ = LinearModel::new(-1.0, 0.0).invert(GlobalTime::from_raw_seconds(5.0));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn invert_near_degenerate_panics() {
        // Not exactly -1, but within the degeneracy band.
        let _ = LinearModel::new(-1.0 + 1e-13, 0.0).invert(GlobalTime::from_raw_seconds(5.0));
    }
}
