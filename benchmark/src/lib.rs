#![warn(missing_docs)]

//! # hcs-benchmark — the repository benchmark
//!
//! Four experiment-level workloads measured end to end, plus a traced
//! run that attributes host time to phases and to each layer of the
//! workspace (`sim`, `clock`, `mpi`, `core`, `benchlib`, `obs`). See
//! `benchmark/README.md` for the metric definitions and `BENCHMARK.json`
//! for the machine-readable contract.
//!
//! Everything here measures the library from outside, through its
//! public API; nothing in the workspace depends on this package.

pub mod host;
pub mod json;
pub mod layers;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
