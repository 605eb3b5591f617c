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
mod hier;
mod interp_study;
mod table1;
mod trace_smoke;
mod tuner;
mod window_study;

use std::process::ExitCode;

use hcs_clock::{BoxClock, LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_mpi::Comm;
use hcs_sim::RankCtx;

/// Every experiment: subcommand, entry point (given the arguments after
/// the subcommand), one-line description.
type Experiment = (&'static str, fn(Vec<String>), &'static str);

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1::run, "the modeled machines (Table I)"),
    ("fig2", fig2::run, "clock drift over 500 s / 10 s (Fig. 2)"),
    ("fig3", fig3::run, "HCA/HCA2/HCA3/JK duration vs accuracy (Fig. 3)"),
    ("fig4", hier::fig4, "HCA3 vs H2HCA on Jupiter (Fig. 4)"),
    ("fig5", hier::fig5, "HCA3 vs H2HCA on Hydra (Fig. 5)"),
    ("fig6", hier::fig6, "HCA3 vs H2HCA at scale on Titan (Fig. 6)"),
    ("fig7", fig7::run, "Allreduce latency per suite x barrier (Fig. 7)"),
    ("fig8", fig8::run, "barrier exit imbalance (Fig. 8)"),
    ("fig9", fig9::run, "OSU vs Round-Time over message sizes (Fig. 9)"),
    ("fig10", fig10::run, "global vs local clock traces of the AMG proxy (Fig. 10)"),
    ("tuner", tuner::run, "scheme-dependent collective tuning (§I)"),
    ("interp_study", interp_study::run, "Scalasca-style interpolation vs resync (§II)"),
    ("amg_profile", amg_profile::run, "span profile of the AMG proxy: its 8 B Allreduce share (§V-C)"),
    ("window_study", window_study::run, "window-size sensitivity vs Round-Time (§II)"),
    ("chaos", chaos::run, "JK vs HCA2 vs HCA3 under injected faults (CI chaos smoke)"),
    ("trace_smoke", trace_smoke::run, "Chrome trace + summary of one observed run (CI trace smoke)"),
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
