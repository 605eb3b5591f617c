//! Post-mortem timestamp correction — what trace analysis tools do.
//!
//! The paper (§II): "Trace analysis tools like Scalasca use linear
//! interpolation to adjust timestamps. This is usually done by
//! considering the clock drift measured between the initialization and
//! the finalization phase of an MPI application. Here, the assumption is
//! made that the clock drift is linear over time, which is not always
//! true."
//!
//! This module implements exactly that pipeline: measure a
//! [`SyncEpoch`] (local reading + offset to the reference) at trace
//! begin and end, then linearly interpolate every recorded timestamp —
//! and lets experiments quantify where the linearity assumption breaks
//! (see `hcs interp_study`).

use hcs_clock::{Clock, GlobalTime, LocalTime, Span};
use hcs_core::{ClockOffset, OffsetAlgorithm};
use hcs_mpi::Comm;
use hcs_sim::RankCtx;

/// One synchronization point: at local clock reading `local`, this
/// rank's offset to the reference clock was `offset` (reference −
/// local).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncEpoch {
    /// Local clock reading at the measurement.
    pub local: LocalTime,
    /// Estimated reference − local offset at that reading.
    pub offset: Span,
}

impl SyncEpoch {
    /// The epoch of the reference rank itself (zero offset by
    /// definition).
    pub fn reference(local: LocalTime) -> Self {
        Self {
            local,
            offset: Span::ZERO,
        }
    }
}

/// Measures a sync epoch between the root and every other rank
/// (collective; ranks are served in order, like Algorithm 6's phases).
/// Every rank returns its own epoch.
pub fn measure_epoch(
    ctx: &mut RankCtx,
    comm: &Comm,
    clk: &mut dyn Clock,
    offset_alg: &mut dyn OffsetAlgorithm,
) -> SyncEpoch {
    let me = comm.rank();
    if me == 0 {
        for client in 1..comm.size() {
            offset_alg.measure_offset(ctx, comm, clk, 0, client);
        }
        SyncEpoch::reference(clk.get_time(ctx).rebase_local())
    } else {
        let ClockOffset { timestamp, offset } = offset_alg
            .measure_offset(ctx, comm, clk, 0, me)
            .expect("client obtains an offset");
        SyncEpoch {
            local: timestamp,
            offset,
        }
    }
}

/// Scalasca-style linear interpolation: maps a local timestamp into the
/// reference frame using the drift observed between `begin` and `end`.
///
/// # Panics
/// Panics if the epochs coincide (no time base to interpolate over).
pub fn interpolate(begin: SyncEpoch, end: SyncEpoch, t_local: LocalTime) -> GlobalTime {
    let span = end.local - begin.local;
    assert!(
        span.abs() > Span::from_secs(f64::EPSILON),
        "sync epochs must be distinct"
    );
    let drift = (end.offset - begin.offset) / span;
    let corrected = t_local + begin.offset + (t_local - begin.local) * drift;
    // The drift-corrected reading now lives in the reference frame.
    GlobalTime::from_raw_seconds(corrected.raw_seconds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_clock::{LocalClock, Oscillator};
    use hcs_core::SkampiOffset;
    use hcs_sim::machines::testbed;
    use hcs_sim::secs;

    fn epoch(local: f64, offset: f64) -> SyncEpoch {
        SyncEpoch {
            local: LocalTime::from_raw_seconds(local),
            offset: secs(offset),
        }
    }

    #[test]
    fn interpolation_is_exact_for_constant_drift() {
        // Client clock runs 10 ppm fast with 1 ms initial offset; two
        // epochs bracket the trace; interpolation must recover the
        // reference frame exactly at any point in between.
        let skew = 10e-6;
        let offset0 = -1e-3; // ref - local at local=0
        let begin = epoch(100.0, offset0 - skew * 100.0);
        let end = epoch(200.0, offset0 - skew * 200.0);
        for t in [100.0, 137.5, 200.0, 150.0] {
            let corrected = interpolate(begin, end, LocalTime::from_raw_seconds(t)).raw_seconds();
            let want = t + offset0 - skew * t;
            assert!(
                (corrected - want).abs() < 1e-9,
                "t={t}: {corrected} vs {want}"
            );
        }
    }

    #[test]
    fn interpolation_extrapolates_linearly_outside_the_window() {
        let begin = epoch(0.0, 0.0);
        let end = epoch(10.0, 1e-3);
        // 1e-4 s/s drift, extrapolated to t=20.
        let corrected = interpolate(begin, end, LocalTime::from_raw_seconds(20.0));
        assert!((corrected.raw_seconds() - 20.002).abs() < 1e-9);
    }

    #[test]
    fn measured_epochs_track_planted_offsets() {
        let cluster = testbed(2, 1).cluster(3);
        let epochs = cluster.run(|ctx| {
            let skew = if ctx.rank() == 1 { 5e-6 } else { 0.0 };
            let mut clk = LocalClock::from_oscillator(Oscillator::with_skew(skew), 0);
            let comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(10);
            // Let the clocks drift apart before measuring.
            ctx.compute(secs(2.0));
            measure_epoch(ctx, &comm, &mut clk, &mut alg)
        });
        assert_eq!(epochs[0].offset, Span::ZERO);
        // Client gained 5 us/s for 2 s => ref - client ~ -10 us.
        assert!(
            (epochs[1].offset + secs(10e-6)).abs() < secs(2e-6),
            "offset {:.3e}",
            epochs[1].offset
        );
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn coinciding_epochs_panic() {
        let e = epoch(1.0, 0.0);
        let _ = interpolate(e, e, LocalTime::from_raw_seconds(1.0));
    }
}
