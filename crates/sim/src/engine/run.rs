//! [`Cluster`] and its builder, engine selection, and the run driver
//! that executes one body per rank and collects results, traces and
//! panics.

use std::sync::{Arc, Mutex};

use hcs_obs::{ObsSpec, RankRecorder, TraceLog};

use super::ctx::RankCtx;
use super::net::RunNet;
use super::outcome::{silence_recv_timeout_panic_hook, RankOutcome, RecvTimeout, RunOutcome};
use crate::cont::Backend;
use crate::events::{self, EventSched, Order, RunStats};
use crate::fault::FaultPlan;
use crate::lockutil::lock_ignore_poison;
use crate::net::NetworkModel;
use crate::rngx::{self, label};
use crate::topology::Topology;
use crate::{ClockSpec, Rank};

/// The complete simulated environment of a cluster: latency model, OS
/// noise and fault plan, grouped so experiment drivers can pass "the
/// world" as one value. [`ClusterBuilder::env`] consumes it;
/// [`ClusterBuilder::network`], [`ClusterBuilder::noise`] and
/// [`ClusterBuilder::faults`] remain as per-field sugar.
#[derive(Debug, Clone)]
pub struct EnvSpec {
    /// The network latency model (required).
    pub network: NetworkModel,
    /// OS-noise injection; `None` for a quiet machine.
    pub noise: Option<crate::noise::NoiseSpec>,
    /// Seeded fault plan; empty for a benign run.
    pub faults: FaultPlan,
}

impl EnvSpec {
    /// A benign environment: the given network, no noise, no faults.
    pub fn new(network: NetworkModel) -> Self {
        Self {
            network,
            noise: None,
            faults: FaultPlan::new(),
        }
    }

    /// Adds OS-noise injection.
    #[must_use]
    pub fn noise(mut self, noise: crate::noise::NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Adds a fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The order in which one run loop, on the thread that called
/// `Cluster::run*`, takes turns among a run's rank bodies. Host-side
/// only: both modes produce bit-identical virtual timelines, CSV rows
/// and traces for the same cluster and seed (enforced by the
/// differential oracle in `tests/engine_equivalence.rs`). In either, a
/// run in which every unfinished rank is parked panics on the caller,
/// naming the parked ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// The reference order: every rank body runs on an OS thread of its
    /// own (thread-backed continuations, one slice at a time), and the
    /// next rank is drawn uniformly from the ready ones by a stream of
    /// the master seed, with no handoff between conversation partners.
    /// Kept as the differential oracle for [`EngineMode::Events`];
    /// practical up to a few thousand ranks.
    Threads,
    /// The engine (default): ranks are stackful continuations driven
    /// in virtual-time order, with the matched-wake handoff; a blocked
    /// `recv` parks the continuation instead of an OS thread. Scales to
    /// p≥131072.
    Events,
}

impl EngineMode {
    /// Resolves the `HCS_ENGINE` setting: unset or empty selects the
    /// default ([`EngineMode::Events`]); otherwise exactly `events` or
    /// `threads`, ASCII case-insensitive.
    ///
    /// # Panics
    /// Panics on any other value, so a typo never selects an engine
    /// silently.
    pub(super) fn from_env_value(value: Option<&str>) -> EngineMode {
        match value {
            None | Some("") => EngineMode::Events,
            Some(v) if v.eq_ignore_ascii_case("events") => EngineMode::Events,
            Some(v) if v.eq_ignore_ascii_case("threads") => EngineMode::Threads,
            Some(v) => panic!("HCS_ENGINE={v:?} is not an engine: expected `events` or `threads`"),
        }
    }
}

/// A simulated cluster: topology, network model, clock parameters and a
/// master seed. Cheap to clone. Built via [`Cluster::builder`].
#[derive(Debug, Clone)]
pub struct Cluster {
    topology: Arc<Topology>,
    network: Arc<NetworkModel>,
    clock: Arc<ClockSpec>,
    noise: Option<crate::noise::NoiseSpec>,
    faults: Arc<FaultPlan>,
    seed: u64,
    obs: ObsSpec,
    engine: Option<EngineMode>,
}

/// Builder for [`Cluster`] — the single construction surface.
///
/// Topology, network model and clock spec are required; everything else
/// has a default (seed 0, no OS noise, observability off):
///
/// ```
/// # use hcs_sim::{machines, Cluster};
/// # let parts = machines::testbed(2, 2);
/// let cluster = Cluster::builder()
///     .topology(parts.topology.clone())
///     .network(parts.network.clone())
///     .clock(parts.clock.clone())
///     .seed(42)
///     .build();
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    topology: Option<Arc<Topology>>,
    network: Option<Arc<NetworkModel>>,
    clock: Option<Arc<ClockSpec>>,
    noise: Option<crate::noise::NoiseSpec>,
    faults: Arc<FaultPlan>,
    seed: u64,
    obs: ObsSpec,
    engine: Option<EngineMode>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self {
            topology: None,
            network: None,
            clock: None,
            noise: None,
            faults: Arc::new(FaultPlan::new()),
            seed: 0,
            obs: ObsSpec::off(),
            engine: None,
        }
    }
}

impl ClusterBuilder {
    /// An empty builder (same as [`Cluster::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cluster shape (required).
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(Arc::new(topology));
        self
    }

    /// Sets the network latency model (required). Sugar for the
    /// `network` field of [`ClusterBuilder::env`].
    #[must_use]
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = Some(Arc::new(network));
        self
    }

    /// Sets the oscillator parameters (required).
    #[must_use]
    pub fn clock(mut self, clock: ClockSpec) -> Self {
        self.clock = Some(Arc::new(clock));
        self
    }

    /// Enables OS-noise injection (see [`crate::noise::NoiseSpec`]).
    /// Sugar for the `noise` field of [`ClusterBuilder::env`].
    #[must_use]
    pub fn noise(mut self, noise: crate::noise::NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Installs a seeded fault plan (see [`crate::fault::FaultPlan`]).
    /// Sugar for the `faults` field of [`ClusterBuilder::env`]. An empty
    /// plan (the default) leaves every timeline bit-identical to a
    /// cluster built without one.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Sets the whole simulated environment — network, noise and fault
    /// plan — from one [`EnvSpec`]. This is the consolidated surface;
    /// [`ClusterBuilder::network`] / [`ClusterBuilder::noise`] /
    /// [`ClusterBuilder::faults`] set the same fields individually.
    #[must_use]
    pub fn env(mut self, env: EnvSpec) -> Self {
        self.network = Some(Arc::new(env.network));
        self.noise = env.noise;
        self.faults = Arc::new(env.faults);
        self
    }

    /// Sets the master seed (default 0). Every random quantity in a run
    /// — latency jitter, clock parameters, OS noise, fault draws —
    /// derives from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Configures observability recording (default: off). When enabled,
    /// each rank records events per [`ObsSpec`] into its own buffer;
    /// [`Cluster::run_observed`] returns them merged in rank order.
    /// Recording is purely host-side: the simulated timeline is
    /// bit-identical with observability on or off.
    #[must_use]
    pub fn observability(mut self, spec: ObsSpec) -> Self {
        self.obs = spec;
        self
    }

    /// Pins the execution engine (see [`EngineMode`]). When not set,
    /// runs consult the `HCS_ENGINE` environment variable at run time
    /// (`events` / `threads`, default events), so whole test suites
    /// can be re-executed in the reference order without code changes.
    /// Engine choice is host-side only — the virtual timeline is
    /// bit-identical either way.
    #[must_use]
    pub fn engine(mut self, mode: EngineMode) -> Self {
        self.engine = Some(mode);
        self
    }

    /// Builds the [`Cluster`].
    ///
    /// # Panics
    /// Panics if topology, network or clock was not set.
    pub fn build(self) -> Cluster {
        Cluster {
            topology: self
                .topology
                .expect("ClusterBuilder: missing .topology(..) — the cluster shape is required"),
            network: self
                .network
                .expect("ClusterBuilder: missing .network(..) — the latency model is required"),
            clock: self
                .clock
                .expect("ClusterBuilder: missing .clock(..) — the oscillator spec is required"),
            noise: self.noise,
            faults: self.faults,
            seed: self.seed,
            obs: self.obs,
            engine: self.engine,
        }
    }
}

impl Cluster {
    /// Starts building a cluster (see [`ClusterBuilder`]).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// A builder pre-populated with this cluster's configuration — the
    /// way to derive variants (different seed, observability on, ...)
    /// without re-assembling the parts. Used by the experiment drivers
    /// for repeated "mpiruns" seed sweeps.
    #[must_use]
    pub fn to_builder(&self) -> ClusterBuilder {
        ClusterBuilder {
            topology: Some(Arc::clone(&self.topology)),
            network: Some(Arc::clone(&self.network)),
            clock: Some(Arc::clone(&self.clock)),
            noise: self.noise,
            faults: Arc::clone(&self.faults),
            seed: self.seed,
            obs: self.obs,
            engine: self.engine,
        }
    }

    /// The execution engine this run will use: the builder's explicit
    /// choice if one was made, otherwise the `HCS_ENGINE` environment
    /// variable (`events` or `threads`, ASCII case-insensitive; unset
    /// selects events). Read fresh on every call so a test harness can
    /// flip the variable between runs.
    ///
    /// # Panics
    /// Panics if `HCS_ENGINE` is set to anything else.
    pub fn engine_mode(&self) -> EngineMode {
        self.engine.unwrap_or_else(|| {
            EngineMode::from_env_value(std::env::var("HCS_ENGINE").ok().as_deref())
        })
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The fault plan (empty for a benign cluster).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The oscillator parameters.
    pub fn clock_spec(&self) -> &ClockSpec {
        &self.clock
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs `f` on every rank and returns the per-rank results in rank
    /// order.
    ///
    /// `f` is called as `f(&mut ctx)`; it may freely block in
    /// [`RankCtx::recv`], which is serviced by the matching sends of the
    /// other ranks. How rank bodies are scheduled on the host is decided
    /// by [`Cluster::engine_mode`]; the simulated timeline is identical
    /// bit for bit either way.
    ///
    /// # Panics
    /// Panics if any rank closure panics (the payload is propagated).
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let (out, _log) = self.run_observed(f);
        out
    }

    /// Like [`Cluster::run`], but also returns the merged observability
    /// [`TraceLog`] (empty unless [`ClusterBuilder::observability`] was
    /// enabled). Per-rank recorders are merged deterministically in rank
    /// order, so the log — like the results — is bit-reproducible.
    pub fn run_observed<R, F>(&self, f: F) -> (Vec<R>, TraceLog)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let (out, log, _stats) = self.run_counted(Backend::from_env(), &f);
        (out, log)
    }

    /// Fault-tolerant variant of [`Cluster::run`]: a rank whose receive
    /// times out (deadline receives via [`RankCtx::recv_deadline`], or
    /// plain receives under [`RankCtx::set_recv_timeout`]) yields
    /// [`RankOutcome::TimedOut`] instead of panicking the whole run.
    /// Genuine panics still propagate. The timeline — including every
    /// surviving rank's result — is exactly as deterministic as
    /// [`Cluster::run`].
    pub fn run_outcome<R, F>(&self, f: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let (outcome, _log) = self.run_outcome_observed(f);
        outcome
    }

    /// Like [`Cluster::run_outcome`], additionally returning the merged
    /// observability [`TraceLog`].
    pub fn run_outcome_observed<R, F>(&self, f: F) -> (RunOutcome<R>, TraceLog)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        silence_recv_timeout_panic_hook();
        // Catch the RecvTimeout unwind *inside* the rank body, so
        // `run_settled` sees a completed rank (no poison broadcast, no
        // rank-level panic bookkeeping): message loss stays a per-rank
        // outcome, not a run-level failure.
        let g = |ctx: &mut RankCtx| {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
            match res {
                Ok(r) => RankOutcome::Completed(r),
                Err(payload) => match payload.downcast::<RecvTimeout>() {
                    Ok(t) => RankOutcome::TimedOut(*t),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            }
        };
        let (ranks, log) = self.run_observed(g);
        (RunOutcome { ranks }, log)
    }

    /// The run driver behind every `run*` entry point, on an explicit
    /// continuation `backend` (an [`EngineMode::Threads`] run is always
    /// thread-backed), additionally returning the scheduler's counters.
    /// Crate-private until ROADMAP item 4 gives the counters a public
    /// home.
    pub(crate) fn run_counted<R, F>(&self, backend: Backend, f: &F) -> (Vec<R>, TraceLog, RunStats)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let (run, stats) = self.run_settled(self.pick_order(backend), f);
        match run {
            Ok((out, log)) => (out, log, stats),
            Err(chosen) => {
                if let Some(t) = chosen.downcast_ref::<RecvTimeout>() {
                    panic!("{t} (timeouts are per-rank outcomes under Cluster::run_outcome)");
                }
                std::panic::resume_unwind(chosen);
            }
        }
    }

    /// The continuation backend and pick order of a run on `backend`
    /// under [`Cluster::engine_mode`]: heap order on `backend`, or the
    /// reference order, drawn from the master seed, on threads.
    pub(crate) fn pick_order(&self, backend: Backend) -> (Backend, Order) {
        match self.engine_mode() {
            EngineMode::Events => (backend, Order::Heap),
            EngineMode::Threads => (
                Backend::Thread,
                Order::Scrambled(rngx::stream_rng(self.seed, label::sched_scramble())),
            ),
        }
    }

    /// [`Cluster::run_counted`] in the caller's `(backend, order)`, that
    /// hands back the root-cause panic of a failed run instead of
    /// re-throwing it, so the counters of a failed run can be read too.
    pub(crate) fn run_settled<R, F>(
        &self,
        (backend, order): (Backend, Order),
        f: &F,
    ) -> (std::thread::Result<(Vec<R>, TraceLog)>, RunStats)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let size = self.topology.total_cores();
        let sched = EventSched::new(size, backend, order);
        // SAFETY: the only thing that ever executes a rank body (and
        // with it every use of `net`) is `events::drive` on this
        // scheduler below, one slice at a time.
        let net = Arc::new(unsafe { RunNet::new(size, !self.faults.is_empty(), sched) });
        // Single-writer slots (no lock): rank r's body writes slot r
        // exactly once, and this frame reads them only after the
        // engine's completion barrier. The recorder vector is empty
        // when observability is off — no body ever indexes it then.
        let results: Vec<OutSlot<R>> = (0..size).map(|_| OutSlot::new()).collect();
        let recorders: Vec<OutSlot<RankRecorder>> = if self.obs.records() {
            (0..size).map(|_| OutSlot::new()).collect()
        } else {
            Vec::new()
        };
        let panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = // lock-order: engine.panics level=32
            Mutex::new(Vec::new());

        // The per-rank body, one closure for the whole run, so seeding
        // allocates nothing per rank. It must never unwind: panics from
        // `f` are recorded and re-thrown on the caller's thread below.
        let body = |rank: Rank| {
            let mut ctx = RankCtx::new(
                rank,
                Arc::clone(&self.topology),
                Arc::clone(&self.network),
                Arc::clone(&self.clock),
                self.noise,
                &self.faults,
                self.seed,
                self.obs,
                Arc::clone(&net),
            );
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
            // Deliver anything still sitting in the reorder hold — a
            // body may end (or unwind) right after a send, and peers are
            // entitled to receive every message posted before the body
            // returned. It must land before `rank_done` below, or the
            // "done + no match queued = no match coming" proof of
            // deadline receives would be unsound.
            ctx.flush_reorder_holds();
            match result {
                Ok(out) => {
                    // SAFETY: this body is rank `rank`'s unique
                    // execution; nothing else writes these slots, and
                    // the caller reads them only after the completion
                    // barrier (`events::drive`).
                    unsafe { results[rank].put(out) };
                    if let Some(rec) = ctx.take_recorder() {
                        // SAFETY: as above (single writer, read after
                        // the barrier); non-empty because
                        // `take_recorder()` only yields a recorder when
                        // obs is enabled.
                        unsafe { recorders[rank].put(rec) };
                    }
                }
                Err(payload) => {
                    net.poison_from(rank);
                    lock_ignore_poison(&panics).push(payload);
                }
            }
            net.rank_done(rank);
        };

        // `events::drive` is the completion barrier: it returns only
        // after every rank body has run to completion. Its one other
        // exit is the deadlock or stall panic of its drain pass, after
        // which no body runs again.
        let stats = events::drive(&net.events, &body, &|parked| net.drained(parked));

        let mut panics = std::mem::take(&mut *lock_ignore_poison(&panics));
        if !panics.is_empty() {
            // Prefer the root-cause panic over the "peer panicked"
            // consequence panics triggered by the poison broadcast, and
            // over timeout unwinds (a genuine bug on one rank routinely
            // times out its peers' deadline receives).
            let is_consequence = |p: &Box<dyn std::any::Any + Send>| {
                if p.is::<RecvTimeout>() {
                    return true;
                }
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                msg.contains("panicked while this rank was receiving")
                    || msg.contains("panicked while this rank was waiting in the collective")
            };
            let idx = panics.iter().position(|p| !is_consequence(p)).unwrap_or(0);
            return (Err(panics.swap_remove(idx)), stats);
        }

        let out: Vec<R> = results
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|| panic!("rank {rank} produced no result"))
            })
            .collect();

        // Merge in rank order (the iteration order of the slot vector),
        // so the log is deterministic regardless of host scheduling.
        let log = TraceLog::new(
            recorders
                .into_iter()
                .filter_map(OutSlot::into_inner)
                .collect(),
        );
        (Ok((out, log)), stats)
    }
}

/// One rank's output slot: interior-mutable without a lock. Sound
/// because every slot has exactly one writer (rank r's body, which runs
/// exactly once) and the run's caller reads only after the engine's
/// completion barrier — there is never a concurrent reader or a second
/// writer to exclude, so a mutex would buy nothing but p lock rounds
/// per run.
struct OutSlot<T>(std::cell::UnsafeCell<Option<T>>);

// SAFETY: see the type docs — disjoint single-writer slots, with every
// read ordered strictly after the writers by the engine's completion
// barrier (`events::drive`).
unsafe impl<T: Send> Sync for OutSlot<T> {}

impl<T> OutSlot<T> {
    fn new() -> Self {
        OutSlot(std::cell::UnsafeCell::new(None))
    }

    /// Stores the value.
    ///
    /// # Safety
    /// The caller must be the slot's unique writer, and all reads must
    /// be ordered after this call by a synchronization barrier.
    unsafe fn put(&self, v: T) {
        // SAFETY: uniqueness and ordering are the caller's contract.
        unsafe { *self.0.get() = Some(v) };
    }

    fn into_inner(self) -> Option<T> {
        self.0.into_inner()
    }
}
