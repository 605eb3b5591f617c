//! The `Clock` abstraction, the nestable `GlobalClockLM` decorator, the
//! flatten/unflatten wire format used by `ClockPropSync`, and efficient
//! busy-waiting on a clock reading.

use hcs_sim::{RankCtx, SimTime, Span};

use crate::domain::GlobalTime;
use crate::model::LinearModel;
use crate::BoxClock;

/// A clock as the synchronization algorithms see it.
///
/// `get_time` is the only operation the paper's algorithms use at run
/// time. `true_eval`/`drift_rate` are *oracle* views (noise-free mapping
/// of true simulated time to this clock's reading), available only
/// because the hardware is simulated; they power tests and accuracy
/// reporting but are never consulted by the algorithms themselves.
pub trait Clock: Send {
    /// Reads the clock: charges the read cost to virtual time and
    /// returns the (noisy, quantized) reading, in the frame this clock
    /// asserts as global.
    fn get_time(&mut self, ctx: &mut RankCtx) -> GlobalTime;

    /// Oracle: the noise-free reading this clock would show at true
    /// simulated time `t`.
    fn true_eval(&self, t: SimTime) -> GlobalTime;

    /// Oracle: instantaneous rate `d reading / d true-time` at `t`
    /// (≈ 1 for real clocks).
    fn drift_rate(&self, t: SimTime) -> f64;

    /// Appends the linear models decorating this clock, innermost first.
    /// A bare local clock appends nothing.
    fn collect_models(&self, out: &mut Vec<LinearModel>);
}

impl Clock for BoxClock {
    fn get_time(&mut self, ctx: &mut RankCtx) -> GlobalTime {
        (**self).get_time(ctx)
    }
    fn true_eval(&self, t: SimTime) -> GlobalTime {
        (**self).true_eval(t)
    }
    fn drift_rate(&self, t: SimTime) -> f64 {
        (**self).drift_rate(t)
    }
    fn collect_models(&self, out: &mut Vec<LinearModel>) {
        (**self).collect_models(out)
    }
}

/// The paper's `GlobalClockLM(clk, lm)`: a clock decorated with a linear
/// drift model that maps its readings into a reference frame. Decorators
/// nest (hierarchical synchronization produces chains like
/// `cm(cm(0,2),4)`).
pub struct GlobalClockLM {
    inner: BoxClock,
    lm: LinearModel,
}

impl GlobalClockLM {
    /// Wraps `inner` with the model `lm`.
    pub fn new(inner: BoxClock, lm: LinearModel) -> Self {
        Self { inner, lm }
    }

    /// The paper's `GlobalClockLM(clk, 0, 0)` dummy: identity model,
    /// returned by processes that did not take part in a round.
    pub fn dummy(inner: BoxClock) -> Self {
        Self::new(inner, LinearModel::IDENTITY)
    }

    /// The model applied by this (outermost) decorator level.
    pub fn model(&self) -> LinearModel {
        self.lm
    }

    /// Consumes the decorator and returns the wrapped clock.
    pub fn into_inner(self) -> BoxClock {
        self.inner
    }

    /// Boxes `self` (ergonomics for building chains).
    pub fn boxed(self) -> BoxClock {
        Box::new(self)
    }

    /// The net affine model of the whole chain (all levels composed),
    /// mapping the *base* clock's readings to the reference frame.
    pub fn effective_model(&self) -> LinearModel {
        let mut models = Vec::new();
        self.collect_models(&mut models);
        models.into_iter().fold(LinearModel::IDENTITY, |acc, m| {
            LinearModel::compose(&m, &acc)
        })
    }
}

impl Clock for GlobalClockLM {
    fn get_time(&mut self, ctx: &mut RankCtx) -> GlobalTime {
        // The inner clock's asserted frame is this model's client frame.
        self.lm.apply(self.inner.get_time(ctx).rebase_local())
    }

    fn true_eval(&self, t: SimTime) -> GlobalTime {
        self.lm.apply(self.inner.true_eval(t).rebase_local())
    }

    fn drift_rate(&self, t: SimTime) -> f64 {
        (1.0 + self.lm.slope) * self.inner.drift_rate(t)
    }

    fn collect_models(&self, out: &mut Vec<LinearModel>) {
        self.inner.collect_models(out);
        out.push(self.lm);
    }
}

/// Serializes the decorator chain of `clock` into the wire format that
/// `ClockPropSync` broadcasts (the paper's `flatten_clock`):
/// `u32` model count, then `(slope, intercept)` as little-endian `f64`
/// pairs, innermost model first.
///
/// The *base* clock is deliberately not serialized — the receiving rank
/// substitutes its own local clock, which is valid exactly when both
/// ranks share a time source (the precondition of `ClockPropSync`).
pub fn flatten_clock(clock: &dyn Clock) -> Vec<u8> {
    let mut models = Vec::new();
    clock.collect_models(&mut models);
    let mut out = Vec::with_capacity(4 + 16 * models.len());
    out.extend_from_slice(&(models.len() as u32).to_le_bytes());
    for m in &models {
        out.extend_from_slice(&m.slope.to_le_bytes());
        out.extend_from_slice(&m.intercept.to_le_bytes());
    }
    out
}

/// Rebuilds a decorated clock from `flatten_clock` output on top of the
/// receiver's own `base` clock (the paper's `unflatten_clock`).
///
/// # Panics
/// Panics if `bytes` is malformed.
pub fn unflatten_clock(base: BoxClock, bytes: &[u8]) -> BoxClock {
    assert!(bytes.len() >= 4, "flattened clock too short");
    let n = u32::from_le_bytes(bytes[0..4].try_into().expect("4-byte count header")) as usize;
    assert_eq!(
        bytes.len(),
        4 + 16 * n,
        "flattened clock has wrong length for {n} models"
    );
    let mut clock = base;
    for i in 0..n {
        let off = 4 + 16 * i;
        let slope = f64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte model slope"));
        let intercept = f64::from_le_bytes(
            bytes[off + 8..off + 16]
                .try_into()
                .expect("8-byte model intercept"),
        );
        clock = GlobalClockLM::new(clock, LinearModel::new(slope, intercept)).boxed();
    }
    clock
}

/// Busy-waits until `clock` reads at least `deadline`, returning the
/// first reading ≥ `deadline`.
///
/// Semantically identical to the polling loop of the paper's window and
/// Round-Time schemes, but implemented with geometric fast-forwarding in
/// virtual time so a 10 s wait costs a handful of iterations instead of
/// 10^8 polls. The final approach is genuine fine-grained polling, so
/// the achieved start time has the same quantization error a real
/// benchmark would see.
pub fn busy_wait_until(
    clock: &mut dyn Clock,
    ctx: &mut RankCtx,
    deadline: GlobalTime,
) -> GlobalTime {
    /// Below this remaining distance we poll in fine steps.
    const POLL_BAND: Span = Span::from_secs(2e-6);
    /// Virtual cost of one poll iteration (loop + compare).
    const POLL_STEP: Span = Span::from_secs(2.0e-8);
    loop {
        let r = clock.get_time(ctx);
        if r >= deadline {
            return r;
        }
        let remaining = deadline - r;
        if remaining > POLL_BAND {
            // Clock rates are 1 ± O(100 ppm); jumping 99.9 % of the
            // remaining distance can never overshoot the deadline.
            ctx.jump_to(ctx.now() + remaining * 0.999);
        } else {
            ctx.compute(POLL_STEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::LocalTime;
    use crate::oscillator::Oscillator;
    use crate::source::LocalClock;
    use hcs_sim::machines::testbed;
    use hcs_sim::secs;

    fn skewed(skew: f64) -> BoxClock {
        Box::new(LocalClock::from_oscillator(Oscillator::with_skew(skew), 0))
    }

    #[test]
    fn dummy_is_identity() {
        let clk = GlobalClockLM::dummy(skewed(0.0));
        assert_eq!(
            clk.true_eval(SimTime::from_secs(5.0)),
            GlobalTime::from_raw_seconds(5.0)
        );
        assert_eq!(clk.model(), LinearModel::IDENTITY);
    }

    #[test]
    fn nesting_composes() {
        let lm1 = LinearModel::new(2e-6, 0.5);
        let lm2 = LinearModel::new(-1e-6, -0.2);
        let inner = GlobalClockLM::new(skewed(0.0), lm1).boxed();
        let outer = GlobalClockLM::new(inner, lm2);
        let eff = outer.effective_model();
        for t in [0.0, 100.0, 5e4] {
            let direct = lm2.apply(lm1.apply(LocalTime::from_raw_seconds(t)).rebase_local());
            assert!((outer.true_eval(SimTime::from_secs(t)) - direct).abs() < secs(1e-9));
            assert!((eff.apply(LocalTime::from_raw_seconds(t)) - direct).abs() < secs(1e-9));
        }
    }

    #[test]
    fn collect_models_orders_innermost_first() {
        let lm1 = LinearModel::new(1e-6, 1.0);
        let lm2 = LinearModel::new(2e-6, 2.0);
        let c = GlobalClockLM::new(GlobalClockLM::new(skewed(0.0), lm1).boxed(), lm2);
        let mut models = Vec::new();
        c.collect_models(&mut models);
        assert_eq!(models, vec![lm1, lm2]);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let lm1 = LinearModel::new(3.5e-7, -0.03);
        let lm2 = LinearModel::new(-2.25e-6, 17.0);
        let chain = GlobalClockLM::new(GlobalClockLM::new(skewed(1e-6), lm1).boxed(), lm2);
        let bytes = flatten_clock(&chain);
        assert_eq!(bytes.len(), 4 + 32);
        // Receiver has the same time source (same oscillator) here.
        let rebuilt = unflatten_clock(skewed(1e-6), &bytes);
        for t in [0.0, 9.75, 1234.5] {
            let t = SimTime::from_secs(t);
            assert!((rebuilt.true_eval(t) - chain.true_eval(t)).abs() < secs(1e-9));
        }
    }

    #[test]
    fn flatten_roundtrips_depth_0_to_4_with_exact_models() {
        // Pins the wire format ClockPropSync broadcasts: every nesting
        // depth roundtrips with bit-exact models, so the receiver's
        // effective mapping equals the sender's.
        let effective = |clock: &dyn Clock| {
            let mut models = Vec::new();
            clock.collect_models(&mut models);
            models.into_iter().fold(LinearModel::IDENTITY, |acc, m| {
                LinearModel::compose(&m, &acc)
            })
        };
        for depth in 0usize..=4 {
            let mut chain: BoxClock = skewed(1e-6);
            for d in 0..depth {
                let lm = LinearModel::new(1e-7 * (d as f64 + 1.0), 0.25 * d as f64 - 0.1);
                chain = GlobalClockLM::new(chain, lm).boxed();
            }
            let bytes = flatten_clock(chain.as_ref());
            assert_eq!(bytes.len(), 4 + 16 * depth, "depth {depth}");
            let rebuilt = unflatten_clock(skewed(1e-6), &bytes);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            rebuilt.collect_models(&mut got);
            chain.collect_models(&mut want);
            assert_eq!(got, want, "depth {depth}: models changed on the wire");
            assert_eq!(
                effective(rebuilt.as_ref()),
                effective(chain.as_ref()),
                "depth {depth}: effective model changed on the wire"
            );
        }
    }

    #[test]
    fn flatten_empty_chain() {
        let base = skewed(0.0);
        let bytes = flatten_clock(base.as_ref());
        assert_eq!(bytes, 0u32.to_le_bytes().to_vec());
        let rebuilt = unflatten_clock(skewed(0.0), &bytes);
        assert_eq!(
            rebuilt.true_eval(SimTime::from_secs(7.0)),
            GlobalTime::from_raw_seconds(7.0)
        );
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn unflatten_malformed_panics() {
        let _ = unflatten_clock(skewed(0.0), &[2, 0, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn drift_rate_stacks() {
        let c = GlobalClockLM::new(skewed(10e-6), LinearModel::new(5e-6, 0.0));
        let r = c.drift_rate(SimTime::ZERO);
        assert!((r - (1.0 + 10e-6) * (1.0 + 5e-6)).abs() < 1e-12);
    }

    #[test]
    fn busy_wait_reaches_target_without_overshoot_blowup() {
        let cluster = testbed(1, 1).cluster(8);
        cluster.run(|ctx| {
            let mut clk: BoxClock = Box::new(LocalClock::new(ctx, crate::TimeSource::RawMonotonic));
            let start = clk.get_time(ctx);
            let deadline = start + secs(2.0); // two virtual seconds ahead
            let reached = busy_wait_until(clk.as_mut(), ctx, deadline);
            assert!(reached >= deadline);
            assert!(
                reached - deadline < secs(1e-5),
                "overshoot {}",
                reached - deadline
            );
            // Virtual time advanced by about 2 s.
            assert!((ctx.now().seconds() - 2.0).abs() < 0.01);
        });
    }

    #[test]
    fn busy_wait_on_past_target_returns_immediately() {
        let cluster = testbed(1, 1).cluster(9);
        cluster.run(|ctx| {
            let mut clk: BoxClock = Box::new(LocalClock::new(ctx, crate::TimeSource::RawMonotonic));
            ctx.compute(secs(1.0));
            let r0 = clk.get_time(ctx);
            let before = ctx.now();
            let r = busy_wait_until(clk.as_mut(), ctx, r0 - secs(5.0));
            assert!(r >= r0 - secs(5.0));
            assert!(ctx.now() - before < secs(1e-6));
        });
    }

    #[test]
    fn busy_wait_with_fast_and_slow_clocks() {
        // Strong skews in both directions must still terminate precisely.
        let cluster = testbed(1, 1).cluster(10);
        cluster.run(|ctx| {
            for skew in [200e-6, -200e-6] {
                let mut clk = skewed(skew);
                let start = clk.get_time(ctx);
                let deadline = start + secs(0.5);
                let reached = busy_wait_until(clk.as_mut(), ctx, deadline);
                assert!(
                    reached >= deadline && reached - deadline < secs(1e-5),
                    "skew {skew}"
                );
            }
        });
    }
}
