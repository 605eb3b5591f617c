//! Concrete local time sources, as a rank sees them.
//!
//! The paper's Fig. 10 contrasts Open MPI configured with
//! `clock_gettime` (here [`TimeSource::RawMonotonic`]: nanosecond
//! resolution, but *huge* per-node offsets from boot times plus small
//! per-core offsets) and `gettimeofday` (here [`TimeSource::WallCoarse`]:
//! microsecond resolution, millisecond-scale NTP-disciplined offsets,
//! shared by all cores of a node).

use hcs_sim::detmath;
use hcs_sim::rngx::{self, label, Pcg64};
use hcs_sim::{RankCtx, SimTime, Span};

use crate::domain::GlobalTime;
use crate::global::Clock;
use crate::model::LinearModel;
use crate::oscillator::Oscillator;

/// The flavor of the local time base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeSource {
    /// `MPI_Wtime`-like: ns resolution, boot-time node offsets, *shared
    /// by all cores of a node* (the precondition `ClockPropSync`
    /// verifies via `clock_getcpuclockid`). The default base clock for
    /// clock synchronization.
    MpiWtime,
    /// `clock_gettime(CLOCK_MONOTONIC_RAW)`-like: ns resolution,
    /// boot-time node offsets (minutes–hours), plus small per-core
    /// offsets (TSC sync error) — the paper's Fig. 10 left column.
    RawMonotonic,
    /// `gettimeofday`-like: µs resolution, NTP-scale (ms) node offsets,
    /// identical on all cores of a node.
    WallCoarse,
}

/// A rank-local clock: the node's oscillator + source-specific offsets,
/// read-out resolution, per-read noise and per-read CPU cost.
#[derive(Debug)]
pub struct LocalClock {
    oscillator: Oscillator,
    /// Constant offset of this clock's zero relative to true time zero.
    offset: f64,
    /// Reporting resolution (readings are floored to a multiple).
    resolution: f64,
    read_noise_sd: f64,
    read_cost: Span,
    noise_rng: Pcg64,
    /// The read-out noise of the next reading. Drawn one read ahead, so
    /// the draw's latency stays off the reading's own dependency chain;
    /// the stream and its order are the same (one draw per read).
    next_noise: f64,
    /// Monotonicity guard: readings never decrease.
    last_reading: f64,
}

impl LocalClock {
    /// Builds the clock a rank would see for the given time source.
    /// Parameters derive deterministically from the run's master seed,
    /// the rank's node (oscillator, node offset) and the rank itself
    /// (per-core offset for [`TimeSource::RawMonotonic`]).
    pub fn new(ctx: &mut RankCtx, source: TimeSource) -> Self {
        let spec = ctx.clock_spec().clone();
        let seed = ctx.master_seed();
        let rank = ctx.rank();
        let node = ctx.topology().node_of(rank);
        let oscillator = Oscillator::for_node(&spec, seed, node);

        // Node-level offset stream (same for every rank of the node).
        let mut node_rng = rngx::stream_rng(seed, label::node_oscillator(node) ^ 0xFFFF);
        let raw_node_off =
            rngx::normal_with(&mut node_rng, 0.0, spec.raw_node_offset_sd_s.seconds());
        let wall_node_off =
            rngx::normal_with(&mut node_rng, 0.0, spec.wall_node_offset_sd_s.seconds());

        // Per-core offset stream.
        let mut core_rng = rngx::stream_rng(seed, label::rank_timesource(rank));
        let raw_core_off =
            rngx::normal_with(&mut core_rng, 0.0, spec.raw_core_offset_sd_s.seconds());

        let (offset, resolution) = match source {
            TimeSource::MpiWtime => (raw_node_off, 1e-9),
            TimeSource::RawMonotonic => (raw_node_off + raw_core_off, 1e-9),
            TimeSource::WallCoarse => (wall_node_off, spec.wall_resolution_s.seconds().max(0.0)),
        };
        let instance = ctx.fresh_label();
        let read_noise_sd = spec.read_noise_s.seconds();
        let mut noise_rng = rngx::stream_rng(seed, label::rank_clock_noise(rank) ^ instance);
        let next_noise = draw_noise(&mut noise_rng, read_noise_sd);
        Self {
            oscillator,
            offset,
            resolution,
            read_noise_sd,
            read_cost: spec.read_cost_s,
            noise_rng,
            next_noise,
            last_reading: f64::NEG_INFINITY,
        }
    }

    /// A noiseless, offset-free clock driven by an explicit oscillator —
    /// for tests and analytic experiments.
    pub fn from_oscillator(oscillator: Oscillator, seed: u64) -> Self {
        Self {
            oscillator,
            offset: 0.0,
            resolution: 0.0,
            read_noise_sd: 0.0,
            read_cost: Span::ZERO,
            noise_rng: rngx::stream_rng(seed, 0),
            next_noise: 0.0,
            last_reading: f64::NEG_INFINITY,
        }
    }

    /// The oscillator backing this clock.
    pub fn oscillator(&self) -> &Oscillator {
        &self.oscillator
    }

    fn quantize(&self, x: f64) -> f64 {
        if self.resolution > 0.0 {
            detmath::floor(x / self.resolution) * self.resolution
        } else {
            x
        }
    }
}

/// One read-out noise draw, or zero for a noiseless clock (which never
/// draws).
fn draw_noise(rng: &mut Pcg64, sd: f64) -> f64 {
    if sd > 0.0 {
        rngx::normal_with(rng, 0.0, sd)
    } else {
        0.0
    }
}

impl Clock for LocalClock {
    fn get_time(&mut self, ctx: &mut RankCtx) -> GlobalTime {
        ctx.compute(self.read_cost);
        let t = ctx.now();
        let mut reading = self.offset + self.oscillator.elapsed(t);
        if self.read_noise_sd > 0.0 {
            reading += self.next_noise;
            self.next_noise = draw_noise(&mut self.noise_rng, self.read_noise_sd);
        }
        reading = self.quantize(reading);
        if reading < self.last_reading {
            reading = self.last_reading;
        }
        self.last_reading = reading;
        GlobalTime::from_raw_seconds(reading)
    }

    fn true_eval(&self, t: SimTime) -> GlobalTime {
        GlobalTime::from_raw_seconds(self.offset + self.oscillator.elapsed(t))
    }

    fn drift_rate(&self, t: SimTime) -> f64 {
        1.0 + self.oscillator.drift_rate(t)
    }

    fn collect_models(&self, _out: &mut Vec<LinearModel>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;
    use hcs_sim::secs;

    #[test]
    fn readings_advance_with_virtual_time() {
        let c = testbed(2, 2).cluster(1);
        c.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::RawMonotonic);
            let a = clk.get_time(ctx);
            ctx.compute(secs(1.0));
            let b = clk.get_time(ctx);
            let d = (b - a).seconds();
            assert!((d - 1.0).abs() < 1e-3, "elapsed {d}");
        });
    }

    #[test]
    fn same_node_shares_oscillator_different_nodes_do_not() {
        let c = testbed(2, 2).cluster(2);
        let oscs = c.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::WallCoarse);
            clk.oscillator().clone()
        });
        assert_eq!(oscs[0], oscs[1], "ranks 0,1 share node 0");
        assert_eq!(oscs[2], oscs[3], "ranks 2,3 share node 1");
        assert_ne!(oscs[0], oscs[2]);
    }

    #[test]
    fn raw_offsets_differ_per_core_wall_offsets_do_not() {
        let c = testbed(1, 2).cluster(3);
        let vals = c.run(|ctx| {
            let raw = LocalClock::new(ctx, TimeSource::RawMonotonic).true_eval(SimTime::ZERO);
            let wall = LocalClock::new(ctx, TimeSource::WallCoarse).true_eval(SimTime::ZERO);
            (raw, wall)
        });
        assert_ne!(vals[0].0, vals[1].0, "raw per-core offsets differ");
        assert_eq!(vals[0].1, vals[1].1, "wall offsets shared per node");
    }

    #[test]
    fn readings_are_monotonic_despite_noise() {
        let c = testbed(1, 1).cluster(4);
        c.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::RawMonotonic);
            let mut last = f64::NEG_INFINITY;
            for _ in 0..10_000 {
                let r = clk.get_time(ctx).raw_seconds();
                assert!(r >= last);
                last = r;
            }
        });
    }

    #[test]
    fn wall_clock_quantizes_to_resolution() {
        let c = testbed(1, 1).cluster(5);
        c.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::WallCoarse);
            let res = ctx.clock_spec().wall_resolution_s.seconds();
            for _ in 0..100 {
                let r = clk.get_time(ctx).raw_seconds();
                let rem = (r / res).fract().abs();
                assert!(
                    !(1e-6..=1.0 - 1e-6).contains(&rem),
                    "reading {r} not on {res} grid"
                );
                ctx.compute(secs(1.37e-6));
            }
        });
    }

    #[test]
    fn read_cost_advances_virtual_time() {
        let c = testbed(1, 1).cluster(6);
        c.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::RawMonotonic);
            let before = ctx.now();
            let _ = clk.get_time(ctx);
            assert!(ctx.now() > before);
        });
    }

    #[test]
    fn from_oscillator_is_noise_free() {
        let c = testbed(1, 1).cluster(7);
        c.run(|ctx| {
            let mut clk = LocalClock::from_oscillator(Oscillator::with_skew(1e-6), 0);
            ctx.compute(secs(10.0));
            let r = clk.get_time(ctx).raw_seconds();
            assert!((r - (10.0 + 10.0e-6)).abs() < 1e-12);
        });
    }
}
