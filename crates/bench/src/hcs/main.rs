//! `hcs <experiment> [--flag value ...]` — the experiment driver: one
//! subcommand per paper figure/table and case study, each in its own
//! module here. `hcs` alone lists them.
//!
//! ```text
//! cargo run --release -p hcs-experiments -- fig5 --runs 2 --csv out/fig5.csv
//! ```

mod amg_profile;
mod chaos;
mod fig10;
mod fig2;
mod fig3;
mod fig7;
mod fig8;
mod fig9;
mod guidelines;
mod hier;
mod interp_study;
mod reprompi;
mod table1;
mod trace_smoke;
mod tuner;
mod window_study;

use std::process::ExitCode;

use hcs_bench::schemes::RepSample;
use hcs_clock::{BoxClock, GlobalTime, LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::RankCtx;

/// Every experiment: subcommand, entry point (given the arguments after
/// the subcommand), one-line description.
type Experiment = (&'static str, fn(Vec<String>), &'static str);

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1::run, "the modeled machines (Table I)"),
    ("fig2", fig2::run, "clock drift over 500 s / 10 s"),
    ("fig3", fig3::run, "HCA/HCA2/HCA3/JK duration vs accuracy"),
    ("fig4", hier::fig4, "HCA3 vs H2HCA (Jupiter)"),
    ("fig5", hier::fig5, "HCA3 vs H2HCA (Hydra)"),
    ("fig6", hier::fig6, "HCA3 vs H2HCA at scale (Titan)"),
    ("fig7", fig7::run, "Allreduce latency per suite x barrier"),
    ("fig8", fig8::run, "barrier exit imbalance"),
    ("fig9", fig9::run, "OSU vs Round-Time over message sizes"),
    ("fig10", fig10::run, "global vs local clock traces (AMG proxy)"),
    ("reprompi", reprompi::run, "general ReproMPI-style benchmark CLI"),
    ("tuner", tuner::run, "scheme-dependent collective tuning (§I)"),
    ("guidelines", guidelines::run, "PGMPI performance-guideline checks"),
    ("interp_study", interp_study::run, "Scalasca-style interpolation vs resync"),
    ("amg_profile", amg_profile::run, "IPM-style profile of the AMG proxy"),
    ("window_study", window_study::run, "window-size sensitivity vs Round-Time"),
    ("chaos", chaos::run, "JK vs HCA2 vs HCA3 under injected faults"),
    ("trace_smoke", trace_smoke::run, "observability smoke: Chrome trace + summary"),
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    match EXPERIMENTS.iter().find(|(n, ..)| *n == name) {
        Some((_, run, _)) => {
            run(argv.collect());
            ExitCode::SUCCESS
        }
        None => {
            if !name.is_empty() {
                eprintln!("unknown experiment `{name}`\n");
            }
            eprintln!("usage: hcs <experiment> [--flag value ...]\n\nexperiments:");
            for (name, _, about) in EXPERIMENTS {
                eprintln!("  {name:<14} {about}");
            }
            ExitCode::from(2)
        }
    }
}

/// The world communicator and the global clock of an HCA3 (SKaMPI
/// offsets, `nfit` fit points × `pingpongs`) synchronization over it,
/// from `MPI_Wtime`: what most experiments measure with.
fn hca3_world(ctx: &mut RankCtx, nfit: usize, pingpongs: usize) -> (Comm, BoxClock) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let g = Hca3::skampi(nfit, pingpongs).sync_clocks(ctx, &mut comm, Box::new(clk));
    (comm, g)
}

/// A repetition's global latency in seconds: the `F64Max` allreduce of
/// its end time minus this rank's start (sample endpoints share the
/// global frame). Collective: every rank calls it for every sample.
fn global_latency(ctx: &mut RankCtx, comm: &mut Comm, s: &RepSample) -> f64 {
    let end = comm.allreduce_f64(ctx, s.end.raw_seconds(), ReduceOp::F64Max);
    (GlobalTime::from_raw_seconds(end) - s.start).seconds()
}
