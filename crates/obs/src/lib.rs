#![warn(missing_docs)]

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

/// What to record, and how much. The default is fully off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsSpec {
    /// Master switch; when `false` the engine installs no recorder.
    pub enabled: bool,
    /// Record message send/recv edges (src/dst/tag/bytes).
    pub messages: bool,
    /// Record compute slices.
    pub compute: bool,
    /// Record named spans and notes.
    pub spans: bool,
    /// Record named counter samples.
    pub counters: bool,
    /// Per-rank event-buffer capacity; events past it are counted as
    /// dropped instead of recorded (bounded memory on long runs).
    pub capacity_per_rank: usize,
}

impl ObsSpec {
    /// Everything off (the default): the engine records nothing.
    pub const fn off() -> Self {
        Self {
            enabled: false,
            messages: false,
            compute: false,
            spans: false,
            counters: false,
            capacity_per_rank: 0,
        }
    }

    /// Everything on, with a generous per-rank buffer.
    pub const fn full() -> Self {
        Self {
            enabled: true,
            messages: true,
            compute: true,
            spans: true,
            counters: true,
            capacity_per_rank: 1 << 20,
        }
    }

    /// Spans/notes/counters only — the cheap configuration for long
    /// runs where per-message edges would dominate the buffer.
    pub const fn spans_only() -> Self {
        Self {
            enabled: true,
            messages: false,
            compute: false,
            spans: true,
            counters: true,
            capacity_per_rank: 1 << 20,
        }
    }
}

impl Default for ObsSpec {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_off() {
        let spec = ObsSpec::default();
        assert!(!spec.enabled);
        assert_eq!(spec, ObsSpec::off());
    }

    #[test]
    fn full_spec_enables_everything() {
        let spec = ObsSpec::full();
        assert!(spec.enabled && spec.messages && spec.compute && spec.spans && spec.counters);
        assert!(spec.capacity_per_rank > 0);
    }
}
