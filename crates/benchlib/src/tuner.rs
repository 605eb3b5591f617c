//! A PGMPITuneLib-style collective autotuner — the paper's motivating
//! use case (§I): pick the fastest algorithm for an MPI collective at a
//! given message size by benchmarking the candidates.
//!
//! The paper's warning is that the *measurement scheme* leaks into the
//! tuning decision: "depending on how the performance is measured,
//! system operators may end up with a completely different MPI library
//! setup". This module lets you run the same tuning sweep under a
//! barrier-based scheme (with a chosen `MPI_Barrier` algorithm) and
//! under Round-Time, and compare the selections.

use hcs_clock::{Clock, Span};
use hcs_mpi::{AllreduceAlgorithm, BarrierAlgorithm, Comm, ReduceOp};
use hcs_sim::RankCtx;

use crate::schemes::{
    global_latency, run_barrier_scheme, run_round_time, OpUnderTest, RoundTimeConfig,
};
use crate::stats::Summary;
use crate::suites::osu_mean_of_means;

/// How the tuner measures a candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TuneScheme {
    /// Barrier-based (OSU/IMB style): `reps` repetitions, mean over
    /// repetitions and ranks.
    Barrier {
        /// Barrier algorithm used for re-synchronization.
        barrier: BarrierAlgorithm,
        /// Repetitions per candidate.
        reps: usize,
    },
    /// Round-Time (ReproMPI style): median of per-repetition global
    /// latencies within a time slice.
    RoundTime {
        /// Time slice per candidate.
        slice_s: Span,
        /// Maximum valid repetitions per candidate.
        max_reps: usize,
    },
}

impl TuneScheme {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            TuneScheme::Barrier { barrier, .. } => format!("barrier/{}", barrier.label()),
            TuneScheme::RoundTime { .. } => "round-time".to_string(),
        }
    }
}

/// One candidate's measured latency.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateResult {
    /// Candidate label (e.g. `"rec. doubling"`).
    pub name: String,
    /// Reported latency, seconds.
    pub latency_s: f64,
}

/// The tuner's verdict for one message size.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    /// Message size, bytes.
    pub msize: usize,
    /// All candidates with their latencies, in measurement order.
    pub candidates: Vec<CandidateResult>,
}

impl TuningResult {
    /// The winning candidate (smallest latency).
    pub fn winner(&self) -> &CandidateResult {
        self.candidates
            .iter()
            .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
            .expect("at least one candidate")
    }
}

/// Measures one operation under the scheme; returns the reported
/// latency at the root (`None` elsewhere). Collective.
pub fn measure_candidate(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    g_clk: &mut dyn Clock,
    scheme: TuneScheme,
    op: OpUnderTest,
) -> Option<f64> {
    match scheme {
        TuneScheme::Barrier { barrier, reps } => {
            let samples = run_barrier_scheme(ctx, comm, g_clk, barrier, reps, op);
            let avg = osu_mean_of_means(ctx, comm, &samples);
            (comm.rank() == 0).then_some(avg)
        }
        TuneScheme::RoundTime { slice_s, max_reps } => {
            let cfg = RoundTimeConfig {
                max_time_slice_s: slice_s,
                max_nrep: max_reps,
                ..Default::default()
            };
            let samples = run_round_time(ctx, comm, g_clk, cfg, op);
            let globals: Vec<f64> = samples
                .iter()
                .map(|s| global_latency(ctx, comm, s).seconds())
                .collect();
            (comm.rank() == 0).then(|| {
                if globals.is_empty() {
                    f64::INFINITY
                } else {
                    Summary::of(&globals).median
                }
            })
        }
    }
}

/// Tunes `MPI_Allreduce` over its algorithm candidates for every
/// message size. Returns results at the root. Collective.
pub fn tune_allreduce(
    ctx: &mut RankCtx,
    comm: &mut Comm,
    g_clk: &mut dyn Clock,
    scheme: TuneScheme,
    msizes: &[usize],
) -> Option<Vec<TuningResult>> {
    let candidates = [
        ("rec. doubling", AllreduceAlgorithm::RecursiveDoubling),
        ("reduce+bcast", AllreduceAlgorithm::ReduceBcast),
        ("ring", AllreduceAlgorithm::Ring),
    ];
    let mut out = Vec::with_capacity(msizes.len());
    for &msize in msizes {
        let mut results = Vec::new();
        for (name, alg) in candidates {
            let payload = vec![0u8; msize];
            let mut op = |ctx: &mut RankCtx, comm: &mut Comm| {
                let _ = comm.allreduce_alg(ctx, &payload, ReduceOp::ByteMax, alg);
            };
            if let Some(lat) = measure_candidate(ctx, comm, g_clk, scheme, &mut op) {
                results.push(CandidateResult {
                    name: name.to_string(),
                    latency_s: lat,
                });
            }
        }
        if comm.rank() == 0 {
            out.push(TuningResult {
                msize,
                candidates: results,
            });
        }
    }
    (comm.rank() == 0).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_clock::{LocalClock, TimeSource};
    use hcs_core::{ClockSync, Hca3};
    use hcs_sim::machines::testbed;

    fn tuned(scheme: TuneScheme, msizes: &'static [usize]) -> Vec<TuningResult> {
        let cluster = testbed(4, 2).cluster(3);
        let res = cluster.run(move |ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(25, 6);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            tune_allreduce(ctx, &mut comm, g.as_mut(), scheme, msizes)
        });
        res[0].clone().expect("root reports")
    }

    #[test]
    fn tuner_reports_all_candidates() {
        let results = tuned(
            TuneScheme::Barrier {
                barrier: BarrierAlgorithm::Tree,
                reps: 30,
            },
            &[8, 4096],
        );
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.candidates.len(), 3);
            assert!(r
                .candidates
                .iter()
                .all(|c| c.latency_s.is_finite() && c.latency_s > 0.0));
        }
    }

    #[test]
    fn round_time_tuner_works_too() {
        let results = tuned(
            TuneScheme::RoundTime {
                slice_s: hcs_sim::secs(0.05),
                max_reps: 40,
            },
            &[8],
        );
        assert_eq!(results.len(), 1);
        let w = results[0].winner();
        assert!(w.latency_s > 1e-6 && w.latency_s < 1e-3);
    }

    #[test]
    fn small_messages_prefer_log_round_algorithms() {
        // At 8 B, recursive doubling (log rounds) must beat the ring
        // (2(p-1) rounds) under any reasonable scheme.
        let results = tuned(
            TuneScheme::RoundTime {
                slice_s: hcs_sim::secs(0.05),
                max_reps: 60,
            },
            &[8],
        );
        let table = &results[0].candidates;
        let rd = table
            .iter()
            .find(|c| c.name == "rec. doubling")
            .unwrap()
            .latency_s;
        let ring = table.iter().find(|c| c.name == "ring").unwrap().latency_s;
        assert!(rd < ring, "rec. doubling {rd:.3e} vs ring {ring:.3e}");
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(
            TuneScheme::Barrier {
                barrier: BarrierAlgorithm::Bruck,
                reps: 1
            }
            .label(),
            "barrier/bruck"
        );
        assert_eq!(
            TuneScheme::RoundTime {
                slice_s: hcs_sim::secs(1.0),
                max_reps: 1
            }
            .label(),
            "round-time"
        );
    }
}
