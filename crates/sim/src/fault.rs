//! Seeded fault injection: the [`FaultPlan`] data model and its
//! deterministic runtime interpreter.
//!
//! A `FaultPlan` is *pure data*: a composition of per-link and per-rank
//! fault clauses (message drop, duplication, reordering beyond FIFO,
//! time-varying/asymmetric latency scaling, network partitions over a
//! time window, rank crash with optional restart). Plans are built with
//! chainable constructors and serialize to a canonical debug string
//! ([`FaultPlan::canonical_string`]) so a failing run is fully described
//! by `(seed, FaultPlan)` and replays byte-identically from that pair.
//!
//! ## Replay contract
//!
//! Faults are applied at the **delivery boundary** — inside
//! `RankCtx::post`/`post_ack`, after the unchanged latency/contention
//! sampling — and all fault randomness comes from dedicated per-rank,
//! per-fault-kind `Pcg64` streams (`rngx::label::rank_fault`, the
//! `0x6000_…` label namespace). The engine's existing streams (jitter,
//! clock noise, oscillators, workload) are never touched, so:
//!
//! - an **empty plan** leaves every existing timeline bit-unchanged
//!   (no fault stream is even created),
//! - a plan whose clauses never fire (e.g. probability 0) also leaves
//!   the timeline bit-unchanged — fault draws are consumed from the
//!   dedicated streams only,
//! - the same `(seed, plan)` replays the same faulted timeline on any
//!   host, run or re-run,
//! - the interpreter is order-agnostic: it runs at the delivery
//!   boundary, below the rank-scheduling layer, so both pick orders
//!   (`EngineMode::Threads` and `EngineMode::Events`), on either
//!   continuation backend, produce byte-identical faulted timelines
//!   (pinned by `tests/engine_equivalence.rs`).
//!
//! ## Decision order
//!
//! For each posted message the interpreter evaluates, in this fixed
//! order: (1) latency scaling (pure function of send time, no RNG),
//! (2) sender crash window, (3) partition crossing, (4) receiver crash
//! window (on the computed arrival), (5) probabilistic drop, (6)
//! reordering, (7) duplication. A message suppressed by an earlier step
//! consumes no RNG draws from later probabilistic steps. Suppressed
//! messages are not silently discarded: they turn into *tombstone*
//! envelopes (`Envelope::dropped`) that carry the same arrival time and
//! give the receiver deterministic proof of loss (see DESIGN.md §14).

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::Arc;

use crate::detmath;
use crate::rngx::{label, stream_rng, Pcg64};
use crate::timebase::{SimTime, Span};
use crate::Rank;

/// Selects the ranks a clause side applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankSel {
    /// Matches every rank.
    Any,
    /// Matches exactly one rank.
    Only(Rank),
}

impl RankSel {
    /// Whether `r` is selected.
    #[inline]
    pub fn matches(&self, r: Rank) -> bool {
        match self {
            RankSel::Any => true,
            RankSel::Only(x) => *x == r,
        }
    }
}

impl fmt::Display for RankSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankSel::Any => write!(f, "*"),
            RankSel::Only(r) => write!(f, "{r}"),
        }
    }
}

/// A *directed* link selector: faults configured for `src -> dst` do not
/// apply to `dst -> src`, which is what makes latency scaling (and every
/// other clause) asymmetric by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSel {
    /// Sending side.
    pub src: RankSel,
    /// Receiving side.
    pub dst: RankSel,
}

impl LinkSel {
    /// Every directed link.
    pub fn any() -> Self {
        Self {
            src: RankSel::Any,
            dst: RankSel::Any,
        }
    }

    /// All links into `dst`.
    pub fn into_rank(dst: Rank) -> Self {
        Self {
            src: RankSel::Any,
            dst: RankSel::Only(dst),
        }
    }

    /// All links out of `src`.
    pub fn from_rank(src: Rank) -> Self {
        Self {
            src: RankSel::Only(src),
            dst: RankSel::Any,
        }
    }

    /// The single directed link `src -> dst`.
    pub fn directed(src: Rank, dst: Rank) -> Self {
        Self {
            src: RankSel::Only(src),
            dst: RankSel::Only(dst),
        }
    }

    /// Whether the directed link `src -> dst` is selected.
    #[inline]
    pub fn matches(&self, src: Rank, dst: Rank) -> bool {
        self.src.matches(src) && self.dst.matches(dst)
    }
}

impl fmt::Display for LinkSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.src, self.dst)
    }
}

/// A half-open virtual-time window `[from, until)`. Clause windows are
/// evaluated against the *send time* of a message (crash windows against
/// send or arrival, see [`CrashClause`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Inclusive start.
    pub from: SimTime,
    /// Exclusive end.
    pub until: SimTime,
}

impl Window {
    /// The whole run.
    pub fn all() -> Self {
        Self {
            from: SimTime::ZERO,
            until: SimTime::from_secs(f64::INFINITY),
        }
    }

    /// `[from, ∞)`.
    pub fn starting(from: SimTime) -> Self {
        Self {
            from,
            until: SimTime::from_secs(f64::INFINITY),
        }
    }

    /// `[from, until)`.
    pub fn between(from: SimTime, until: SimTime) -> Self {
        Self { from, until }
    }

    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?},{:?})", self.from.seconds(), self.until.seconds())
    }
}

/// Drop each matching message with probability `prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropClause {
    /// Links the clause applies to.
    pub link: LinkSel,
    /// Per-message drop probability in `[0, 1]`.
    pub prob: f64,
    /// Send-time window the clause is active in.
    pub window: Window,
}

/// Duplicate each matching message with probability `prob`; the copy is
/// delivered later, after an extra uniform delay in `(0, extra_delay]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicateClause {
    /// Links the clause applies to.
    pub link: LinkSel,
    /// Per-message duplication probability in `[0, 1]`.
    pub prob: f64,
    /// Upper bound on the duplicate's extra delivery delay.
    pub extra_delay: Span,
    /// Send-time window the clause is active in.
    pub window: Window,
}

/// Reorder each matching message with probability `prob`: the message is
/// held back past the sender's *next* message to the same destination
/// (true overtaking, beyond per-link FIFO) and additionally delayed by a
/// uniform draw in `(0, max_delay]`. Reordered messages bypass the FIFO
/// arrival clamp entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderClause {
    /// Links the clause applies to.
    pub link: LinkSel,
    /// Per-message reorder probability in `[0, 1]`.
    pub prob: f64,
    /// Upper bound on the reordered message's extra delay.
    pub max_delay: Span,
    /// Send-time window the clause is active in.
    pub window: Window,
}

/// Scale the sampled one-way latency of matching messages by a
/// (possibly time-varying) factor: `factor * (1 + amp * sin(2π (t -
/// window.from) / period))`, floored at zero. With `amp = 0` this is a
/// constant asymmetric scaling of the selected directed links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyClause {
    /// Links the clause applies to.
    pub link: LinkSel,
    /// Base multiplicative factor (e.g. `10.0` = 10× slower).
    pub factor: f64,
    /// Relative modulation amplitude (0 = constant).
    pub amp: f64,
    /// Modulation period (ignored when `amp` is 0).
    pub period: Span,
    /// Send-time window the clause is active in.
    pub window: Window,
}

/// Partition the cluster over a time window: messages crossing the
/// boundary between `group` and its complement (either direction) are
/// dropped while the window is active. Traffic within the group and
/// within the complement is unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionClause {
    /// One side of the partition; the other side is the complement.
    pub group: Vec<Rank>,
    /// Send-time window the partition is active in.
    pub window: Window,
}

/// Rank crash (silent stop) with optional restart: during `[at,
/// restart)` (or `[at, ∞)` without a restart) the rank neither sends nor
/// receives — messages it posts and messages arriving at it inside the
/// blackout are dropped. The rank's closure keeps executing in virtual
/// time, which guarantees every expected message still yields an
/// envelope or tombstone, so peers resolve via timeout instead of
/// hanging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashClause {
    /// The crashing rank.
    pub rank: Rank,
    /// Crash instant.
    pub at: SimTime,
    /// Optional restart instant (exclusive end of the blackout).
    pub restart: Option<SimTime>,
}

impl CrashClause {
    #[inline]
    fn blackout(&self, t: SimTime) -> bool {
        t >= self.at && self.restart.is_none_or(|r| t < r)
    }
}

/// A composition of fault clauses — pure data, applied deterministically
/// at the engine's delivery boundary. See the module docs for the replay
/// contract and [`FaultPlan::canonical_string`] for the serialized form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probabilistic message-drop clauses.
    pub drops: Vec<DropClause>,
    /// Probabilistic message-duplication clauses.
    pub duplicates: Vec<DuplicateClause>,
    /// Probabilistic reordering clauses.
    pub reorders: Vec<ReorderClause>,
    /// Link latency scaling clauses.
    pub latencies: Vec<LatencyClause>,
    /// Network partition clauses.
    pub partitions: Vec<PartitionClause>,
    /// Rank crash clauses.
    pub crashes: Vec<CrashClause>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; timelines stay bit-identical to
    /// a run without fault injection).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan contains no clauses at all.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
            && self.duplicates.is_empty()
            && self.reorders.is_empty()
            && self.latencies.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }

    /// Adds a probabilistic drop clause.
    #[must_use]
    pub fn drop_messages(mut self, link: LinkSel, prob: f64, window: Window) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop prob must be in [0,1]");
        self.drops.push(DropClause { link, prob, window });
        self
    }

    /// Adds a probabilistic duplication clause.
    #[must_use]
    pub fn duplicate_messages(
        mut self,
        link: LinkSel,
        prob: f64,
        extra_delay: Span,
        window: Window,
    ) -> Self {
        assert!((0.0..=1.0).contains(&prob), "dup prob must be in [0,1]");
        self.duplicates.push(DuplicateClause {
            link,
            prob,
            extra_delay,
            window,
        });
        self
    }

    /// Adds a probabilistic reordering clause.
    #[must_use]
    pub fn reorder_messages(
        mut self,
        link: LinkSel,
        prob: f64,
        max_delay: Span,
        window: Window,
    ) -> Self {
        assert!((0.0..=1.0).contains(&prob), "reorder prob must be in [0,1]");
        self.reorders.push(ReorderClause {
            link,
            prob,
            max_delay,
            window,
        });
        self
    }

    /// Adds a constant latency scaling clause for the selected links.
    #[must_use]
    pub fn scale_latency(self, link: LinkSel, factor: f64, window: Window) -> Self {
        self.scale_latency_varying(link, factor, 0.0, Span::from_secs(1.0), window)
    }

    /// Adds a time-varying (sinusoidal) latency scaling clause.
    #[must_use]
    pub fn scale_latency_varying(
        mut self,
        link: LinkSel,
        factor: f64,
        amp: f64,
        period: Span,
        window: Window,
    ) -> Self {
        assert!(factor >= 0.0, "latency factor must be non-negative");
        assert!(period.seconds() > 0.0, "latency period must be positive");
        self.latencies.push(LatencyClause {
            link,
            factor,
            amp,
            period,
            window,
        });
        self
    }

    /// Adds a network partition clause.
    #[must_use]
    pub fn partition(mut self, group: Vec<Rank>, window: Window) -> Self {
        self.partitions.push(PartitionClause { group, window });
        self
    }

    /// Adds a rank crash (optionally with restart).
    #[must_use]
    pub fn crash(mut self, rank: Rank, at: SimTime, restart: Option<SimTime>) -> Self {
        self.crashes.push(CrashClause { rank, at, restart });
        self
    }

    /// Canonical, replay-grade serialization: two plans render the same
    /// string iff they inject the same faults in the same clause order.
    /// `(seed, canonical_string)` fully identifies a chaos run.
    pub fn canonical_string(&self) -> String {
        format!("{self}")
    }

    /// Whether `rank` is inside a crash blackout at time `t`.
    #[inline]
    pub fn crashed_at(&self, rank: Rank, t: SimTime) -> bool {
        self.crashes.iter().any(|c| c.rank == rank && c.blackout(t))
    }

    /// Whether the directed message `src -> dst` sent at `t` crosses an
    /// active partition boundary.
    #[inline]
    pub fn partitioned(&self, src: Rank, dst: Rank, t: SimTime) -> bool {
        self.partitions
            .iter()
            .any(|p| p.window.contains(t) && (p.group.contains(&src) != p.group.contains(&dst)))
    }

    /// Combined latency scale factor for a message on `src -> dst` sent
    /// at `t` (product over matching clauses; 1.0 when none match).
    pub fn latency_scale(&self, src: Rank, dst: Rank, t: SimTime) -> f64 {
        let mut scale = 1.0;
        for c in &self.latencies {
            if c.link.matches(src, dst) && c.window.contains(t) {
                let f = if c.amp == 0.0 {
                    c.factor
                } else {
                    let phase = (t - c.phase_anchor()).seconds() / c.period.seconds();
                    c.factor * (1.0 + c.amp * detmath::sin(std::f64::consts::TAU * phase))
                };
                scale *= f.max(0.0);
            }
        }
        scale
    }
}

impl LatencyClause {
    // Phase anchor: modulate relative to the clause window's start so a
    // clause is reproducible regardless of absolute run length.
    #[inline]
    fn phase_anchor(&self) -> SimTime {
        if self.window.from.seconds().is_finite() {
            self.window.from
        } else {
            SimTime::ZERO
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "FaultPlan{{}}");
        }
        write!(f, "FaultPlan{{")?;
        let mut sep = "";
        for c in &self.drops {
            write!(f, "{sep}drop[{},p={:?},w={}]", c.link, c.prob, c.window)?;
            sep = ";";
        }
        for c in &self.duplicates {
            write!(
                f,
                "{sep}dup[{},p={:?},d={:?},w={}]",
                c.link,
                c.prob,
                c.extra_delay.seconds(),
                c.window
            )?;
            sep = ";";
        }
        for c in &self.reorders {
            write!(
                f,
                "{sep}reorder[{},p={:?},d={:?},w={}]",
                c.link,
                c.prob,
                c.max_delay.seconds(),
                c.window
            )?;
            sep = ";";
        }
        for c in &self.latencies {
            write!(
                f,
                "{sep}lat[{},f={:?},amp={:?},per={:?},w={}]",
                c.link,
                c.factor,
                c.amp,
                c.period.seconds(),
                c.window
            )?;
            sep = ";";
        }
        for c in &self.partitions {
            write!(f, "{sep}part[{:?},w={}]", c.group, c.window)?;
            sep = ";";
        }
        for c in &self.crashes {
            write!(f, "{sep}crash[rank {},at={:?}", c.rank, c.at.seconds())?;
            match c.restart {
                Some(r) => write!(f, ",restart={:?}]", r.seconds())?,
                None => write!(f, "]")?,
            }
            sep = ";";
        }
        write!(f, "}}")
    }
}

/// Fault kinds with their own per-rank RNG streams (the `0x6000_…`
/// label namespace; see [`label::rank_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Probabilistic message drop.
    Drop = 1,
    /// Probabilistic message duplication.
    Duplicate = 2,
    /// Probabilistic reordering.
    Reorder = 3,
}

/// What the interpreter decided for one posted message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultVerdict {
    /// Deliver normally.
    Deliver,
    /// Suppress (tombstone); the payload carries the obs-note name.
    Drop(&'static str),
    /// Deliver with true overtaking: extra delay + FIFO-clamp bypass.
    Reorder(Span),
}

/// Full decision for one posted message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultDecision {
    pub verdict: FaultVerdict,
    /// `Some(extra)` when a delayed duplicate must also be delivered.
    pub duplicate: Option<Span>,
    /// Latency multiplier (1.0 = untouched).
    pub scale: f64,
}

impl FaultDecision {
    pub(crate) const CLEAN: FaultDecision = FaultDecision {
        verdict: FaultVerdict::Deliver,
        duplicate: None,
        scale: 1.0,
    };
}

/// Per-rank runtime interpreter of a [`FaultPlan`]: owns the sender-side
/// per-fault-kind RNG streams. Created only when the plan is non-empty,
/// so empty-plan runs never construct (or draw from) a fault stream.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: Arc<FaultPlan>,
    drop_rng: Pcg64,
    dup_rng: Pcg64,
    reorder_rng: Pcg64,
}

impl FaultState {
    /// Interpreter for `rank` under `plan`, seeded from the cluster's
    /// master seed. Returns `None` for empty plans (the engine's fast
    /// path stays untouched).
    pub(crate) fn new(plan: &Arc<FaultPlan>, master_seed: u64, rank: Rank) -> Option<Self> {
        if plan.is_empty() {
            return None;
        }
        Some(Self {
            plan: Arc::clone(plan),
            drop_rng: stream_rng(master_seed, label::rank_fault(rank, FaultKind::Drop as u64)),
            dup_rng: stream_rng(
                master_seed,
                label::rank_fault(rank, FaultKind::Duplicate as u64),
            ),
            reorder_rng: stream_rng(
                master_seed,
                label::rank_fault(rank, FaultKind::Reorder as u64),
            ),
        })
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of a message `src -> dst` posted at `send_time`
    /// whose delivery would happen at `arrival` (pre-fault latency
    /// already applied by the caller for the crash check; see
    /// `RankCtx::post`). RNG draws are consumed **only** when a
    /// probabilistic clause matches the link and window, so non-matching
    /// traffic leaves the fault streams untouched.
    pub(crate) fn decide(&mut self, src: Rank, dst: Rank, send_time: SimTime) -> FaultDecision {
        let plan = Arc::clone(&self.plan);
        let mut d = FaultDecision::CLEAN;
        d.scale = plan.latency_scale(src, dst, send_time);
        if plan.crashed_at(src, send_time) {
            d.verdict = FaultVerdict::Drop("fault/crash");
            return d;
        }
        if plan.partitioned(src, dst, send_time) {
            d.verdict = FaultVerdict::Drop("fault/partition");
            return d;
        }
        for c in &plan.drops {
            if c.link.matches(src, dst) && c.window.contains(send_time) {
                let u = self.drop_rng.next_open01();
                if u < c.prob {
                    d.verdict = FaultVerdict::Drop("fault/drop");
                    return d;
                }
            }
        }
        for c in &plan.reorders {
            if c.link.matches(src, dst) && c.window.contains(send_time) {
                let u = self.reorder_rng.next_open01();
                if u < c.prob {
                    let extra = c.max_delay * self.reorder_rng.next_open01();
                    d.verdict = FaultVerdict::Reorder(extra);
                    break;
                }
            }
        }
        for c in &plan.duplicates {
            if c.link.matches(src, dst) && c.window.contains(send_time) {
                let u = self.dup_rng.next_open01();
                if u < c.prob {
                    d.duplicate = Some(c.extra_delay * self.dup_rng.next_open01());
                    break;
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secs;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_is_empty_and_canonical() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.canonical_string(), "FaultPlan{}");
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn canonical_string_is_deterministic_and_distinguishes_plans() {
        let a = FaultPlan::new()
            .drop_messages(LinkSel::any(), 0.25, Window::all())
            .crash(3, t(0.5), Some(t(1.0)));
        let b = FaultPlan::new()
            .drop_messages(LinkSel::any(), 0.25, Window::all())
            .crash(3, t(0.5), Some(t(1.0)));
        let c = FaultPlan::new().drop_messages(LinkSel::any(), 0.26, Window::all());
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert_ne!(a.canonical_string(), c.canonical_string());
        assert!(a.canonical_string().contains("drop[*->*,p=0.25"));
        assert!(a
            .canonical_string()
            .contains("crash[rank 3,at=0.5,restart=1.0]"));
    }

    #[test]
    fn link_and_window_selectors_match_as_documented() {
        let l = LinkSel::directed(1, 2);
        assert!(l.matches(1, 2));
        assert!(!l.matches(2, 1), "links are directed");
        assert!(LinkSel::into_rank(2).matches(0, 2));
        assert!(!LinkSel::into_rank(2).matches(2, 0));
        assert!(LinkSel::from_rank(1).matches(1, 9));
        let w = Window::between(t(1.0), t(2.0));
        assert!(w.contains(t(1.0)), "window start is inclusive");
        assert!(!w.contains(t(2.0)), "window end is exclusive");
        assert!(Window::all().contains(t(1e9)));
    }

    #[test]
    fn partition_drops_only_cross_group_traffic_in_window() {
        let p = FaultPlan::new().partition(vec![0, 1], Window::between(t(1.0), t(2.0)));
        assert!(p.partitioned(0, 2, t(1.5)));
        assert!(p.partitioned(2, 1, t(1.5)), "both directions cut");
        assert!(!p.partitioned(0, 1, t(1.5)), "intra-group traffic flows");
        assert!(
            !p.partitioned(2, 3, t(1.5)),
            "complement-side traffic flows"
        );
        assert!(!p.partitioned(0, 2, t(0.5)), "window not yet active");
        assert!(!p.partitioned(0, 2, t(2.0)), "window over");
    }

    #[test]
    fn crash_blackout_honours_restart() {
        let p = FaultPlan::new().crash(1, t(1.0), Some(t(2.0)));
        assert!(!p.crashed_at(1, t(0.9)));
        assert!(p.crashed_at(1, t(1.0)));
        assert!(p.crashed_at(1, t(1.9)));
        assert!(!p.crashed_at(1, t(2.0)), "restarted");
        assert!(!p.crashed_at(0, t(1.5)), "other ranks unaffected");
        let forever = FaultPlan::new().crash(1, t(1.0), None);
        assert!(forever.crashed_at(1, t(1e6)));
    }

    #[test]
    fn latency_scale_is_asymmetric_and_composes() {
        let p = FaultPlan::new()
            .scale_latency(LinkSel::directed(0, 1), 10.0, Window::all())
            .scale_latency(LinkSel::any(), 2.0, Window::all());
        assert_eq!(p.latency_scale(0, 1, t(0.0)), 20.0);
        assert_eq!(p.latency_scale(1, 0, t(0.0)), 2.0, "asymmetric");
        assert_eq!(FaultPlan::new().latency_scale(0, 1, t(0.0)), 1.0);
    }

    #[test]
    fn time_varying_latency_oscillates_around_factor() {
        let p = FaultPlan::new().scale_latency_varying(
            LinkSel::any(),
            4.0,
            0.5,
            secs(1.0),
            Window::all(),
        );
        // Quarter period: sin = 1 -> factor * 1.5; three quarters: 0.5.
        let hi = p.latency_scale(0, 1, t(0.25));
        let lo = p.latency_scale(0, 1, t(0.75));
        assert!((hi - 6.0).abs() < 1e-9, "{hi}");
        assert!((lo - 2.0).abs() < 1e-9, "{lo}");
    }

    #[test]
    fn decisions_replay_identically_and_empty_plan_builds_no_state() {
        let plan = Arc::new(
            FaultPlan::new()
                .drop_messages(LinkSel::any(), 0.3, Window::all())
                .reorder_messages(LinkSel::any(), 0.3, secs(1e-4), Window::all())
                .duplicate_messages(LinkSel::any(), 0.3, secs(1e-4), Window::all()),
        );
        let run = |seed: u64| {
            let mut st = FaultState::new(&plan, seed, 0).expect("non-empty plan");
            (0..64)
                .map(|i| st.decide(0, 1, t(i as f64 * 1e-3)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same decisions");
        assert_ne!(run(7), run(8), "fault streams are seeded");
        assert!(FaultState::new(&Arc::new(FaultPlan::new()), 7, 0).is_none());
    }

    #[test]
    fn non_matching_links_consume_no_draws() {
        // A clause scoped to link 5->6 must leave the stream untouched
        // for traffic on 0->1, so adding unrelated clauses cannot
        // perturb the faulted links' replay.
        let scoped =
            Arc::new(FaultPlan::new().drop_messages(LinkSel::directed(5, 6), 0.9, Window::all()));
        let mut st = FaultState::new(&scoped, 42, 0).expect("non-empty");
        for i in 0..32 {
            let d = st.decide(0, 1, t(i as f64));
            assert_eq!(d.verdict, FaultVerdict::Deliver);
        }
        // The stream is still at its origin: the first matching decide
        // equals a fresh interpreter's first decide.
        let d_live = st.decide(5, 6, t(0.0));
        let mut fresh = FaultState::new(&scoped, 42, 0).expect("non-empty");
        assert_eq!(d_live, fresh.decide(5, 6, t(0.0)));
    }
}
