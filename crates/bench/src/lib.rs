#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hcs-experiments — the paper's experiments as a library
//!
//! One module per paper figure/table and case study (see `DESIGN.md`).
//! Each exports its `FLAGS` and a `compute(&Args) -> Report` that
//! neither prints nor writes files; [`Report::emit`] is the one renderer
//! of stdout tables, CSV and JSON. The `hcs` binary is a dispatch table
//! over these modules, tests call `compute` in-process, and
//! `benchmark/` reuses the Figs. 4–6 driver in [`hier_experiment`].

pub mod amg_profile;
pub mod chaos;
pub mod cli;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hier;
pub mod hier_experiment;
pub mod interp_study;
pub mod report;
pub mod table1;
pub mod trace_smoke;
pub mod tuner;
pub mod window_study;

pub use cli::Args;
pub use report::{Body, Cell, Col, Fmt, Report, Table};

use hcs_clock::{BoxClock, LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_mpi::Comm;
use hcs_sim::RankCtx;

/// The world communicator and the global clock of an HCA3 (SKaMPI
/// offsets, `nfit` fit points × `pingpongs`) synchronization over it,
/// from `MPI_Wtime`: what most experiments measure with.
fn hca3_world(ctx: &mut RankCtx, nfit: usize, pingpongs: usize) -> (Comm, BoxClock) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let g = Hca3::skampi(nfit, pingpongs).sync_clocks(ctx, &mut comm, Box::new(clk));
    (comm, g)
}
