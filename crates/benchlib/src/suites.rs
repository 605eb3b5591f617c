//! Emulations of how the common benchmark suites turn raw samples into
//! a reported `MPI_Allreduce` latency (the comparison of Figs. 7 & 9).
//!
//! | Suite            | Coordination | Aggregation                          |
//! |------------------|--------------|--------------------------------------|
//! | OSU              | barrier      | mean over reps, then mean over ranks |
//! | Intel MPI (IMB)  | barrier      | mean over reps, then max over ranks  |
//! | ReproMPI         | Round-Time   | median of per-rep *global* latencies |
//!
//! The two barrier-based suites measure with each rank's local clock;
//! ReproMPI uses the logical global clock, so a repetition's latency is
//! `max(end over ranks) − common start` — immune to barrier-exit
//! imbalance by construction.

use hcs_clock::{Clock, Span};
use hcs_mpi::{BarrierAlgorithm, Comm, ReduceOp};
use hcs_sim::{secs, RankCtx};

use crate::schemes::{
    estimate_bcast_latency, global_latency, run_barrier_scheme, run_round_time, RepSample,
    RoundTimeConfig,
};
use crate::stats::Summary;

/// Which benchmark suite's methodology to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// OSU Micro-Benchmarks style.
    Osu,
    /// Intel MPI Benchmarks style.
    Imb,
    /// ReproMPI with the Round-Time scheme.
    ReproMpi,
}

impl Suite {
    /// Display label (Fig. 7 x-axis).
    pub fn label(&self) -> &'static str {
        match self {
            Suite::Osu => "OSU",
            Suite::Imb => "IMB",
            Suite::ReproMpi => "ReproMPI",
        }
    }
}

/// Common measurement configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Repetitions (barrier-based) or `max_nrep` (Round-Time).
    pub nreps: usize,
    /// `MPI_Barrier` algorithm used by the barrier-based suites.
    pub barrier: BarrierAlgorithm,
    /// Round-Time time slice.
    pub time_slice_s: Span,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            nreps: 200,
            barrier: BarrierAlgorithm::Bruck,
            time_slice_s: secs(0.5),
        }
    }
}

/// The reported latency, available on the root (comm rank 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteResult {
    /// The latency the suite would print, seconds.
    pub latency_s: f64,
    /// Valid repetitions that entered the aggregation.
    pub nreps: usize,
}

/// Measures an `msize`-byte `MPI_Allreduce` the way `suite` would, and
/// returns the reported latency on the root (`None` elsewhere).
///
/// `g_clk` is the rank's clock: for the barrier suites any local clock
/// works; ReproMPI requires a synchronized logical global clock.
pub fn measure_allreduce(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    g_clk: &mut dyn Clock,
    suite: Suite,
    msize: usize,
    cfg: SuiteConfig,
) -> Option<SuiteResult> {
    let payload = vec![0u8; msize];
    let mut op = |ctx: &mut RankCtx, comm: &mut Comm| {
        let _ = comm.allreduce(ctx, &payload, ReduceOp::ByteMax);
    };
    match suite {
        Suite::Osu | Suite::Imb => {
            let samples = run_barrier_scheme(ctx, comm, g_clk, cfg.barrier, cfg.nreps, &mut op);
            let agg = match suite {
                Suite::Osu => osu_mean_of_means(ctx, comm, &samples),
                _ => comm.allreduce_f64(ctx, local_mean(&samples), ReduceOp::F64Max),
            };
            (comm.rank() == 0).then_some(SuiteResult {
                latency_s: agg,
                nreps: samples.len(),
            })
        }
        Suite::ReproMpi => {
            let bcast_lat = estimate_bcast_latency(ctx, comm, g_clk, 10);
            let rt = RoundTimeConfig {
                max_time_slice_s: cfg.time_slice_s,
                max_nrep: cfg.nreps,
                slack_b: 3.0,
                bcast_latency_s: bcast_lat,
            };
            let samples = run_round_time(ctx, comm, g_clk, rt, &mut op);
            let globals: Vec<f64> = samples
                .iter()
                .map(|s| global_latency(ctx, comm, s).seconds())
                .collect();
            (comm.rank() == 0).then(|| SuiteResult {
                latency_s: if globals.is_empty() {
                    f64::NAN
                } else {
                    Summary::of(&globals).median
                },
                nreps: globals.len(),
            })
        }
    }
}

/// OSU's aggregation of barrier-scheme samples: each rank's mean
/// latency over its repetitions, averaged over ranks. Collective; every
/// rank gets the result.
pub fn osu_mean_of_means(ctx: &mut RankCtx, comm: &mut Comm, samples: &[RepSample]) -> f64 {
    comm.allreduce_f64(ctx, local_mean(samples), ReduceOp::F64Sum) / comm.size() as f64
}

/// This rank's mean latency over its repetitions, seconds.
fn local_mean(samples: &[RepSample]) -> f64 {
    (samples.iter().map(|s| s.latency()).sum::<Span>() / samples.len() as f64).seconds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_clock::{LocalClock, TimeSource};
    use hcs_core::{ClockSync, Hca3};
    use hcs_sim::machines::testbed;

    fn run_suite(suite: Suite, barrier: BarrierAlgorithm, seed: u64) -> SuiteResult {
        let cluster = testbed(4, 2).cluster(seed);
        let results = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(20, 5);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            let cfg = SuiteConfig {
                nreps: 50,
                barrier,
                time_slice_s: secs(0.05),
            };
            measure_allreduce(ctx, &mut comm, g.as_mut(), suite, 8, cfg)
        });
        results[0].expect("root reports")
    }

    #[test]
    fn all_suites_report_plausible_latencies() {
        for suite in [Suite::Osu, Suite::Imb, Suite::ReproMpi] {
            let r = run_suite(suite, BarrierAlgorithm::Tree, 1);
            assert!(
                r.latency_s > 3e-6 && r.latency_s < 300e-6,
                "{suite:?}: {:.3e}",
                r.latency_s
            );
            assert!(r.nreps > 10);
        }
    }

    #[test]
    fn barrier_choice_shifts_barrier_based_suites() {
        // The paper's Fig. 7 finding: the measured latency of the same
        // operation depends on the barrier algorithm for OSU/IMB.
        let tree = run_suite(Suite::Osu, BarrierAlgorithm::Tree, 2).latency_s;
        let ring = run_suite(Suite::Osu, BarrierAlgorithm::DoubleRing, 2).latency_s;
        assert!(
            (ring - tree).abs() / tree > 0.1,
            "expected >10% shift: tree {tree:.3e} vs double-ring {ring:.3e}"
        );
    }

    #[test]
    fn non_root_ranks_get_none() {
        let cluster = testbed(2, 1).cluster(3);
        let results = cluster.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let cfg = SuiteConfig {
                nreps: 5,
                ..Default::default()
            };
            measure_allreduce(ctx, &mut comm, &mut clk, Suite::Osu, 8, cfg)
        });
        assert!(results[0].is_some());
        assert!(results[1].is_none());
    }

    #[test]
    fn suite_labels() {
        assert_eq!(Suite::Osu.label(), "OSU");
        assert_eq!(Suite::Imb.label(), "IMB");
        assert_eq!(Suite::ReproMpi.label(), "ReproMPI");
    }
}
