#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hcs-core — the clock synchronization algorithms of CLUSTER'18
//!
//! This crate is the paper's primary contribution, implemented from its
//! pseudo-code:
//!
//! - [`offset`] — the two clock-offset building blocks: **SKaMPI-Offset**
//!   (Algorithm 7: min-filtered ping-pong bounds) and **Mean-RTT-Offset**
//!   (Algorithm 8, Jones/Koenig: mean RTT + median offset),
//! - [`learn`] — `LEARN_CLOCK_MODEL` (Algorithm 2): gather fit points
//!   with an offset algorithm, least-squares fit, optional intercept
//!   recomputation,
//! - [`hca3`] — **HCA3** (Algorithm 1): top-down binomial tree, clients
//!   emulate the reference clock in later rounds,
//! - [`hca2`] — **HCA2** and **HCA** baselines: bottom-up inverted
//!   binomial tree with model merging + `MPI_Scatter` (HCA adds a final
//!   `O(p)` intercept round),
//! - [`jk`] — the **JK** baseline (Jones & Koenig): `O(p)` sequential
//!   pairwise synchronization,
//! - [`clockprop`] — **ClockPropSync** (Algorithm 3): broadcast of the
//!   flattened clock model within a shared-time-source domain,
//! - [`hierarchical`] — **HlHCA** (Algorithm 4 and §IV-D): per-level
//!   algorithm composition, with ready-made **H2HCA** and **H3HCA**,
//! - [`check`] — `Check-Global-Clock` (Algorithm 6): the accuracy
//!   evaluation used by every experiment, plus a true-clock oracle.

pub mod check;
pub mod clockprop;
pub mod hca2;
pub mod hca3;
pub mod hierarchical;
pub mod jk;
pub mod learn;
pub mod offset;
pub mod offset_only;
pub mod resync;
pub mod sync;

pub use check::{check_clock_accuracy, oracle_offset, AccuracyReport};
pub use clockprop::ClockPropSync;
pub use hca2::{Hca, Hca2};
pub use hca3::Hca3;
pub use hierarchical::{Hierarchical, LevelPlan};
pub use jk::Jk;
pub use learn::{learn_clock_model, LearnParams};
pub use offset::{
    ClockOffset, MeanRttOffset, OffsetAlgorithm, OffsetParams, OffsetSpec, SkampiOffset,
};
pub use offset_only::OffsetOnlySync;
pub use resync::ResyncSession;
pub use sync::{run_sync, run_sync_with_timeout, ClockSync, SyncFactory, SyncOutcome};

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::check::{check_clock_accuracy, oracle_offset, AccuracyReport};
    pub use crate::clockprop::ClockPropSync;
    pub use crate::hca2::{Hca, Hca2};
    pub use crate::hca3::Hca3;
    pub use crate::hierarchical::{Hierarchical, LevelPlan};
    pub use crate::jk::Jk;
    pub use crate::learn::{learn_clock_model, LearnParams};
    pub use crate::offset::{
        ClockOffset, MeanRttOffset, OffsetAlgorithm, OffsetParams, OffsetSpec, SkampiOffset,
    };
    pub use crate::offset_only::OffsetOnlySync;
    pub use crate::resync::ResyncSession;
    pub use crate::sync::{run_sync, run_sync_with_timeout, ClockSync, SyncFactory, SyncOutcome};
}
