#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hcs-clock — oscillators, time sources and clock models
//!
//! The clock layer of the CLUSTER'18 reproduction. It provides:
//!
//! - [`Oscillator`] — the physical model of a node's frequency source:
//!   a constant skew plus slow sinusoidal wander (so drift is linear over
//!   ~10 s but visibly curved over hundreds of seconds, as in the
//!   paper's Fig. 2),
//! - [`LocalClock`] — what `MPI_Wtime`/`clock_gettime`/`gettimeofday`
//!   look like on a rank: the oscillator plus boot-time and per-core
//!   offsets, read-out resolution, read-out noise and read cost,
//! - [`LinearModel`] — the `(slope, intercept)` drift model the
//!   synchronization algorithms learn by linear regression
//!   ([`fit_linear_model`]),
//! - [`GlobalClockLM`] — the decorator that applies a linear model on
//!   top of any clock, nestable exactly like the paper's
//!   `GlobalClockLM(clk, lm)`,
//! - flattening/unflattening of nested models into a wire format (what
//!   `ClockPropSync` broadcasts), and
//! - [`busy_wait_until`] — virtual-time-efficient busy-waiting on a
//!   clock reading (used by the window and Round-Time schemes).

pub mod domain;
pub mod global;
pub mod model;
pub mod oscillator;
pub mod source;

pub use domain::{secs, GlobalTime, LocalTime, Span};
pub use global::{busy_wait_until, flatten_clock, unflatten_clock, Clock, GlobalClockLM};
pub use model::{fit_linear_model, LinearFit, LinearModel};
pub use oscillator::Oscillator;
pub use source::{LocalClock, TimeSource};

/// A boxed clock, the common currency of the sync algorithms.
pub type BoxClock = Box<dyn Clock>;
