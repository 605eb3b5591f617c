#![warn(missing_docs)]

//! # hcs-experiments — shared experiment plumbing
//!
//! The experiments themselves are the `hcs` binary (`src/hcs/`, one
//! module per paper figure/table, see `DESIGN.md`); their host cost is
//! measured by the separate `benchmark/` package. This library hosts
//! what `benchmark/` and the tests reuse: CLI flag parsing, CSV
//! emission and the Figs. 4–6 driver.

pub mod cli;
pub mod csv;
pub mod hier_experiment;

pub use cli::Args;
pub use csv::CsvWriter;
