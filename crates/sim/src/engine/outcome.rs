//! What a fault-tolerant run returns: per-rank outcomes and the typed
//! receive-timeout record.

#![forbid(unsafe_code)]

#[cfg(doc)]
use super::{ctx::RankCtx, run::Cluster};
use crate::{Rank, SimTime, Tag};

/// Why a receive timed out (see [`RecvTimeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutReason {
    /// A matching message exists but arrives after the deadline.
    DeadlinePassed,
    /// The matching message was dropped by the fault plan (the receiver
    /// consumed its tombstone).
    MessageLost,
    /// The awaited sender's closure finished (or it crashed) without a
    /// matching send ever being posted.
    SenderFinished,
    /// This wait was on a wait-for cycle containing deadline receives,
    /// found when the run drained — message loss showing up as mutual
    /// waits.
    WaitCycle,
}

impl std::fmt::Display for TimeoutReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TimeoutReason::DeadlinePassed => "deadline passed",
            TimeoutReason::MessageLost => "message lost",
            TimeoutReason::SenderFinished => "sender finished",
            TimeoutReason::WaitCycle => "wait cycle",
        })
    }
}

/// A deadline receive that could not complete. Returned by
/// [`RankCtx::recv_deadline`]; also the unwind payload of a plain
/// [`RankCtx::recv`] under [`RankCtx::set_recv_timeout`], which
/// [`Cluster::run_outcome`] catches into [`RankOutcome::TimedOut`].
///
/// `at` is the virtual time at which the timeout resolved (the deadline
/// for late/lost messages; the current time when the sender was already
/// gone). All fields are simulation state, so a timed-out run is exactly
/// as reproducible as a completed one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvTimeout {
    /// The receiving rank.
    pub rank: Rank,
    /// The awaited source rank.
    pub src: Rank,
    /// The awaited tag.
    pub tag: Tag,
    /// Virtual time at which the timeout resolved.
    pub at: SimTime,
    /// Why the receive could not complete.
    pub reason: TimeoutReason,
}

impl std::fmt::Display for RecvTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} receive (src {}, tag {}) timed out at t={:.9}s: {}",
            self.rank,
            self.src,
            self.tag,
            self.at.seconds(),
            self.reason
        )
    }
}

/// A timed-out receive unwinds with [`RecvTimeout`] as its panic
/// payload and is always caught by `Cluster::run_outcome_observed`, so
/// the default panic hook's "thread panicked" message plus backtrace is
/// pure noise for it. Wrap the hook (once per process) to swallow exactly that
/// payload type; every other panic still reports normally.
pub(super) fn silence_recv_timeout_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<RecvTimeout>() {
                prev(info);
            }
        }));
    });
}

/// Per-rank result of a fault-tolerant run (see
/// [`Cluster::run_outcome`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RankOutcome<R> {
    /// The rank's closure ran to completion.
    Completed(R),
    /// The rank abandoned its body at a timed-out receive.
    TimedOut(RecvTimeout),
}

impl<R> RankOutcome<R> {
    /// Whether this rank completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, RankOutcome::Completed(_))
    }

    /// The completion value, if any.
    pub fn completed(&self) -> Option<&R> {
        match self {
            RankOutcome::Completed(r) => Some(r),
            RankOutcome::TimedOut(_) => None,
        }
    }

    /// The timeout record, if any.
    pub fn timed_out(&self) -> Option<&RecvTimeout> {
        match self {
            RankOutcome::Completed(_) => None,
            RankOutcome::TimedOut(t) => Some(t),
        }
    }
}

/// Result of [`Cluster::run_outcome`]: one [`RankOutcome`] per rank, in
/// rank order. Unlike [`Cluster::run`], injected faults degrade into
/// per-rank timeouts here instead of a run-level panic.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome<R> {
    /// Per-rank outcomes, indexed by rank.
    pub ranks: Vec<RankOutcome<R>>,
}

impl<R> RunOutcome<R> {
    /// Number of ranks that completed.
    pub fn completed_count(&self) -> usize {
        self.ranks.iter().filter(|r| r.is_completed()).count()
    }

    /// Number of ranks that timed out.
    pub fn timed_out_count(&self) -> usize {
        self.ranks.len() - self.completed_count()
    }

    /// Whether every rank completed.
    pub fn all_completed(&self) -> bool {
        self.timed_out_count() == 0
    }
}
