#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hcs-obs — deterministic per-rank observability
//!
//! The observability layer of the simulator: each simulated rank owns a
//! [`RankRecorder`] that appends structured [`Event`]s (spans, message
//! edges, counters, compute slices) to a bounded in-memory buffer. At
//! the end of a run the engine merges the per-rank recorders, in rank
//! order, into a [`TraceLog`], which the post-run sinks turn into
//!
//! - a Chrome `trace_event` JSON ([`chrome_trace`], or streamed to any
//!   `io::Write` by [`write_chrome_trace`]) loadable in
//!   chrome://tracing and Perfetto,
//! - a machine-readable summary ([`summary_json`]), and
//! - a plain-text flamegraph-style report ([`flame_report`]).
//!
//! Design constraints (shared with the engine):
//!
//! - **Determinism.** Event timestamps are virtual-time seconds (the
//!   simulator oracle), never host clocks; buffers are appended in rank
//!   program order and merged in rank order, so the same master seed
//!   yields byte-identical sink output under either engine.
//! - **Non-perturbing.** Recording must never advance the simulated
//!   timeline: timestamps reuse readings the instrumented code already
//!   takes. Clock readings (which *do* charge virtual read cost) are
//!   only attached when the algorithm took them anyway
//!   ([`ClockReadings`]).
//! - **Near-zero overhead when disabled.** The engine holds a
//!   [`Recorder`] enum whose `Off` arm is a no-op: no allocation, no
//!   branch beyond the discriminant check.
//!
//! This crate is a std-only leaf: it cannot name the clock-domain
//! newtypes (`hcs-clock` sits above the engine), so clock readings
//! cross into the recorder as raw seconds through the *named* domain
//! accessors at the instrumentation site, and the frame is carried
//! structurally by the [`ClockReadings`] slot they occupy.

mod float;
pub mod record;
pub mod sink;

pub use record::{ClockReadings, Event, NameId, RankRecorder, Recorder, TraceLog};
pub use sink::{chrome_trace, flame_report, summary_json, write_chrome_trace};

/// What to record: nothing (the default), spans, notes and counters,
/// or everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsSpec {
    /// Whether the engine installs a recorder at all.
    record: bool,
    /// Whether message send/recv edges and compute slices are recorded
    /// too.
    edges: bool,
}

/// Per-rank event-buffer capacity; events past it are counted as
/// dropped instead of recorded (bounded memory on long runs).
const CAPACITY_PER_RANK: usize = 1 << 20;

impl ObsSpec {
    /// Everything off (the default): the engine records nothing.
    pub const fn off() -> Self {
        Self {
            record: false,
            edges: false,
        }
    }

    /// Everything on.
    pub const fn full() -> Self {
        Self {
            record: true,
            edges: true,
        }
    }

    /// Spans/notes/counters only — the cheap configuration for long
    /// runs where per-message edges would dominate the buffer.
    pub const fn spans_only() -> Self {
        Self {
            record: true,
            edges: false,
        }
    }

    /// Whether anything is recorded.
    pub const fn records(self) -> bool {
        self.record
    }

    /// Whether message edges and compute slices are recorded.
    pub const fn records_edges(self) -> bool {
        self.edges
    }

    /// Rank `rank`'s recorder: [`Recorder::Off`] unless [`Self::records`].
    pub fn recorder(self, rank: u32) -> Recorder {
        if self.record {
            Recorder::on(rank, CAPACITY_PER_RANK)
        } else {
            Recorder::Off
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_off() {
        let spec = ObsSpec::default();
        assert!(!spec.records() && !spec.recorder(0).is_on());
        assert_eq!(spec, ObsSpec::off());
    }

    #[test]
    fn full_spec_enables_everything() {
        let spec = ObsSpec::full();
        assert!(spec.records() && spec.records_edges() && spec.recorder(0).is_on());
        assert!(ObsSpec::spans_only().records() && !ObsSpec::spans_only().records_edges());
    }
}
