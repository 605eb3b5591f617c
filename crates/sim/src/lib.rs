#![warn(missing_docs)]

//! # hcs-sim — deterministic virtual-time cluster simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *Hierarchical Clock Synchronization in MPI* (Hunold & Carpen-Amarie,
//! IEEE CLUSTER 2018). The paper's evaluation ran on three physical
//! clusters (Jupiter/InfiniBand, Hydra/OmniPath, Titan/Cray Gemini); here
//! those machines are replaced by a *virtual-time message-passing
//! simulation* that preserves the properties the algorithms under study
//! actually observe: message latencies (with jitter and heavy tails),
//! hierarchical topology (socket / node / network levels) and drifting
//! per-node oscillators.
//!
//! ## Execution model
//!
//! Every simulated MPI rank is an independent execution — a
//! continuation under one run loop (a stackful fiber on x86_64), taken
//! in virtual-time order ([`engine::EngineMode::Events`], the default)
//! or in a seeded scrambled order (the reference order,
//! [`engine::EngineMode::Threads`]) — and
//! carries its own *virtual true time* (`RankCtx::now`). Local computation advances that
//! time explicitly ([`RankCtx::compute`]). A send stamps the message with
//! an arrival time computed from the sender's current time plus a modeled
//! latency sample; a receive blocks (parks the rank) until a matching
//! message exists and then fast-forwards the receiver to
//! `max(local_now, arrival)`.
//!
//! Because every blocking operation is *directed* (the receiver names the
//! sender) and all randomness is drawn from per-rank deterministic
//! streams, the simulated timeline is **bit-identical across runs and
//! across the order the run loop takes ranks in** — sweeps parallelize
//! over host cores for free while staying reproducible.
//!
//! ## What lives where
//!
//! - [`topology`] — cluster shape (nodes × sockets × cores) and the
//!   communication level between two ranks,
//! - [`net`] — per-level latency models with log-normal jitter and rare
//!   congestion spikes,
//! - [`clockspec`] — numeric parameters of the per-node oscillators
//!   (interpreted by the `hcs-clock` crate),
//! - [`machines`] — the three machine profiles of the paper's Table I,
//! - [`engine`] — the run driver, per-rank inboxes and the [`engine::Cluster`]
//!   entry point (built via [`engine::ClusterBuilder`]), and
//!   [`RankCtx::collective`], which walks a collective's per-member
//!   [`Schedule`]s on messages or evaluates them in one rendezvous,
//!   with the same timing law either way,
//! - [`fault`] — seeded fault injection: a pure-data [`FaultPlan`]
//!   (drops, duplication, reordering, latency scaling, partitions, rank
//!   crashes) interpreted deterministically at the delivery boundary;
//!   grouped with network and noise into [`engine::EnvSpec`],
//! - [`wire`] — typed little-endian encoding for small fixed payloads,
//! - [`rngx`] — seed derivation and distribution sampling helpers,
//! - [`detmath`] — the timing law's own `ln`, `exp`, `sin`, `cos` and
//!   `floor`, the same bits on every host.
//!
//! ## Observability
//!
//! Each rank can record spans, message edges, compute slices and
//! counters into a per-rank buffer (the `hcs-obs` crate, re-exported as
//! [`obs`]). Enable it with [`engine::ClusterBuilder::observability`]
//! and harvest the merged [`TraceLog`] from
//! [`engine::Cluster::run_observed`]. Recording is host-side only: the
//! simulated timeline is bit-identical with observability on or off,
//! and with it off the per-event cost is a single enum-discriminant
//! check (no allocation).

pub mod clockspec;
mod cont;
pub mod detmath;
pub mod engine;
mod events;
pub mod fault;
pub mod lockutil;
pub mod machines;
pub mod msg;
pub mod net;
pub mod noise;
pub mod rngx;
pub mod timebase;
pub mod topology;
mod waitgraph;
pub mod wire;

pub use clockspec::ClockSpec;
pub use engine::{
    Cluster, ClusterBuilder, EngineMode, EnvSpec, Fold, Group, RankCtx, RankOutcome, RecvTimeout,
    RunOutcome, Schedule, TimeoutReason,
};
pub use fault::{FaultPlan, LinkSel, RankSel, Window};
pub use machines::MachineSpec;
pub use net::{Jitter, LevelLatency, NetworkModel};
pub use noise::NoiseSpec;
pub use timebase::{secs, SimTime, Span};
pub use topology::{Level, Topology};
pub use wire::Wire;

pub use hcs_obs as obs;
pub use hcs_obs::{ObsSpec, TraceLog};

/// Records a named span around an expression — the observability
/// equivalent of a scoped timer.
///
/// The name expression is evaluated **only when recording is on**, so a
/// `format!(..)` name costs nothing on the disabled path:
///
/// ```
/// # use hcs_sim::{machines, obs_span};
/// # let cluster = machines::testbed(1, 2).cluster(0);
/// # cluster.run(|ctx| {
/// let sum = obs_span!(ctx, format!("round/{}", 3), {
///     ctx.compute(hcs_sim::secs(1e-6));
///     40 + 2
/// });
/// # assert_eq!(sum, 42);
/// # });
/// ```
#[macro_export]
macro_rules! obs_span {
    ($ctx:expr, $name:expr, $body:expr) => {{
        if $ctx.obs_on() {
            $ctx.obs_enter(::std::convert::AsRef::<str>::as_ref(&$name));
            let out = $body;
            $ctx.obs_exit();
            out
        } else {
            $body
        }
    }};
}

/// The engine's raw message tag. Programs above `hcs-mpi` use its typed
/// user tags (`hcs_mpi::Tag<T>`), which it maps onto this.
pub type Tag = u32;

/// Rank index within a simulated cluster.
pub type Rank = usize;
