#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hcs-bench — MPI benchmarking schemes, suite emulations and tracing
//!
//! The measurement side of the CLUSTER'18 reproduction:
//!
//! - [`schemes`] — the three process-coordination schemes the paper
//!   compares: **barrier-based** (what OSU/IMB do), **window-based**
//!   (SKaMPI/NBCBench) and the paper's novel **Round-Time**
//!   (Algorithm 5), plus [`schemes::global_latency`], the one
//!   max-end-minus-start reduction,
//! - [`suites`] — emulations of how OSU Micro-Benchmarks, Intel MPI
//!   Benchmarks and ReproMPI aggregate samples into a reported latency
//!   (Figs. 7 and 9),
//! - [`imbalance`] — barrier exit-imbalance measurement (Fig. 8),
//! - [`trace`] + [`workloads`] — typed trace extraction from the
//!   observability layer and the AMG2013-proxy workload behind the
//!   Gantt charts of Fig. 10 and the span profile of §V-C,
//! - [`tuner`] — the scheme-dependent collective tuner of §I,
//! - [`postmortem`] — Scalasca-style linear interpolation of trace
//!   timestamps (§II),
//! - [`stats`] — summary statistics used throughout,
//! - [`sweep`] — the deterministic parallel sweep executor that runs
//!   independent experiment repetitions concurrently while keeping
//!   every artifact byte-identical to the sequential path.

pub mod imbalance;
pub mod postmortem;
pub mod schemes;
pub mod stats;
pub mod suites;
pub mod sweep;
pub mod trace;
pub mod tuner;
pub mod workloads;

/// One-stop imports.
pub mod prelude {
    pub use crate::imbalance::measure_barrier_imbalance;
    pub use crate::postmortem::{interpolate, measure_epoch, SyncEpoch};
    pub use crate::schemes::{
        estimate_allreduce_latency, estimate_bcast_latency, global_latency, run_barrier_scheme,
        run_round_time, run_window_scheme, RepSample, RoundTimeConfig, WindowConfig, WindowOutcome,
    };
    pub use crate::stats::{Histogram, Summary};
    pub use crate::suites::{
        measure_allreduce, osu_mean_of_means, Suite, SuiteConfig, SuiteResult,
    };
    pub use crate::sweep::{run_cluster_sweep, run_seed, SweepExecutor};
    pub use crate::trace::{gantt_rows, per_rank_events, TraceEvent};
    pub use crate::tuner::{
        measure_candidate, tune_allreduce, CandidateResult, TuneScheme, TuningResult,
    };
    pub use crate::workloads::{
        amg_proxy, halo_proxy, AmgProxyConfig, HaloProxyConfig, AMG_SPAN, HALO_SPAN,
    };
}
