//! `LEARN_CLOCK_MODEL` (paper Algorithm 2): learn a linear drift model
//! between a reference and a client process.

use hcs_clock::{fit_linear_model, Clock, LinearModel};
use hcs_mpi::Comm;
use hcs_sim::{secs, RankCtx, Span};

use crate::offset::OffsetAlgorithm;

/// Parameters of the model-learning step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnParams {
    /// Number of fit points for the regression (the paper's
    /// `nfitpoints`, e.g. 1000).
    pub nfitpoints: usize,
    /// Whether to re-measure and re-anchor the intercept after the
    /// regression (the paper's `recompute_intercept` flag).
    pub recompute_intercept: bool,
    /// Idle time inserted by the client before each fit point.
    ///
    /// The slope accuracy of the regression is governed by the *time
    /// span* the fit points cover (the paper's `1000 × 100` ping-pong
    /// configurations span ~0.5 s). Spanning that window with raw
    /// ping-pongs would cost millions of simulated messages; spacing
    /// fit points out reproduces the span — and thus the slope accuracy
    /// and the synchronization duration — at a fraction of the cost.
    pub spacing_s: Span,
}

impl Default for LearnParams {
    fn default() -> Self {
        Self {
            nfitpoints: 100,
            recompute_intercept: true,
            spacing_s: secs(3e-3),
        }
    }
}

impl LearnParams {
    /// `nfitpoints` with intercept recomputation on.
    pub fn with_fitpoints(nfitpoints: usize) -> Self {
        Self {
            nfitpoints,
            ..Self::default()
        }
    }
}

/// Learns the linear model of the drift of `p_ref`'s clock relative to
/// `client`'s clock (communicator ranks). Returns `Some(model)` on the
/// client and `None` on the reference; both sides must call this with
/// their own current clock (`clk`) — in HCA3 the reference passes its
/// *global* clock, which is precisely how reference time is pushed down
/// the tree.
pub fn learn_clock_model(
    ctx: &mut RankCtx,
    comm: &Comm,
    offset_alg: &mut dyn OffsetAlgorithm,
    params: LearnParams,
    p_ref: usize,
    client: usize,
    clk: &mut dyn Clock,
) -> Option<LinearModel> {
    let me = comm.rank();
    if me == p_ref {
        for _ in 0..params.nfitpoints {
            let _ = offset_alg.measure_offset(ctx, comm, clk, p_ref, client);
        }
        if params.recompute_intercept {
            // Participate in the client's intercept re-measurement.
            let _ = offset_alg.measure_offset(ctx, comm, clk, p_ref, client);
        }
        None
    } else if me == client {
        let mut xfit = Vec::with_capacity(params.nfitpoints);
        let mut yfit = Vec::with_capacity(params.nfitpoints);
        for _ in 0..params.nfitpoints {
            if params.spacing_s > Span::ZERO {
                // Spread the fit points over the configured window; the
                // reference idles in its matching receive meanwhile.
                ctx.compute(params.spacing_s);
            }
            let o = offset_alg
                .measure_offset(ctx, comm, clk, p_ref, client)
                .expect("client side receives an offset");
            xfit.push(o.timestamp);
            yfit.push(o.offset);
        }
        let mut lm = fit_linear_model(&xfit, &yfit).model;
        if params.recompute_intercept {
            let o = offset_alg
                .measure_offset(ctx, comm, clk, p_ref, client)
                .expect("client side receives an offset");
            lm.reanchor(o.timestamp, o.offset);
        }
        Some(lm)
    } else {
        panic!("learn_clock_model called by rank {me}, neither ref {p_ref} nor client {client}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offset::SkampiOffset;
    use hcs_clock::{GlobalClockLM, LocalClock, Oscillator};
    use hcs_mpi::Comm;
    use hcs_sim::machines::testbed;

    /// Plants a known skew+offset between ref and client; the learned
    /// model must map client readings to ref readings accurately.
    fn learn_planted(recompute: bool) -> (LinearModel, f64) {
        let skew = 0.8e-6; // client clock runs 0.8 ppm slow vs ref
        let offset0 = 250e-6;
        // Jitter-free machine: the measured fit points are exact, so the
        // regression must recover the planted parameters tightly even
        // over the short (~ms) measurement window of this test.
        let cluster = hcs_sim::machines::quiet_testbed(2, 1).cluster(17);
        let res = cluster.run(move |ctx| {
            let comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(10);
            let params = LearnParams {
                nfitpoints: 60,
                recompute_intercept: recompute,
                spacing_s: Span::ZERO,
            };
            if comm.rank() == 0 {
                let mut clk = GlobalClockLM::new(
                    Box::new(LocalClock::from_oscillator(Oscillator::with_skew(skew), 0)),
                    LinearModel::new(0.0, offset0),
                );
                learn_clock_model(ctx, &comm, &mut alg, params, 0, 1, &mut clk);
                None
            } else {
                let mut clk = LocalClock::from_oscillator(Oscillator::perfect(), 0);
                // Spread fit points over some time to expose the slope.
                learn_clock_model(ctx, &comm, &mut alg, params, 0, 1, &mut clk)
            }
        });
        (res[1].unwrap(), skew)
    }

    #[test]
    fn learn_recovers_slope_and_offset() {
        let (lm, skew) = learn_planted(false);
        // Slope: ref gains `skew` per client second.
        assert!((lm.slope - skew).abs() < 0.5e-6, "slope {:.3e}", lm.slope);
        // Offset near the measurement window (~a few ms of client time).
        let x = hcs_clock::LocalTime::from_raw_seconds(0.005);
        let want = 250e-6 + skew * 0.005;
        assert!(
            (lm.offset_at(x).seconds() - want).abs() < 2e-6,
            "offset {:.3e}",
            lm.offset_at(x)
        );
    }

    #[test]
    fn recompute_intercept_reanchors() {
        let (lm, _) = learn_planted(true);
        let x = hcs_clock::LocalTime::from_raw_seconds(0.005);
        assert!(
            (lm.offset_at(x).seconds() - 250e-6).abs() < 3e-6,
            "offset {:.3e}",
            lm.offset_at(x)
        );
    }

    #[test]
    fn ref_side_returns_none_client_some() {
        let cluster = testbed(2, 1).cluster(18);
        let res = cluster.run(|ctx| {
            let comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(3);
            let mut clk = LocalClock::from_oscillator(Oscillator::perfect(), 0);
            learn_clock_model(
                ctx,
                &comm,
                &mut alg,
                LearnParams::with_fitpoints(5),
                0,
                1,
                &mut clk,
            )
        });
        assert!(res[0].is_none());
        assert!(res[1].is_some());
    }

    #[test]
    fn default_params_are_sane() {
        let p = LearnParams::default();
        assert!(p.nfitpoints > 0);
        assert!(p.recompute_intercept);
    }
}
