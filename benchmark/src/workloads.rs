//! The four experiment-level workloads. One *unit* is what a user of
//! the repository runs once: a whole cluster run, sweep or fault grid,
//! through the library's public API only.
//!
//! Every unit is a pure function of its seed; the program under test
//! only ever sees the generated `(machine, seed, plan)` inputs.

use std::time::Instant;

use hcs_bench::schemes::{run_round_time, RoundTimeConfig};
use hcs_bench::sweep::SweepExecutor;
use hcs_clock::{Clock, LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_core::SyncFactory;
use hcs_experiments::hier_experiment::{fig4_configs, run_hier_experiment, write_hier_csv};
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::obs::{chrome_trace, summary_json, Event};
use hcs_sim::{
    machines, secs, EngineMode, FaultPlan, LinkSel, MachineSpec, ObsSpec, RankCtx, RankOutcome,
    SimTime, TraceLog, Window,
};

use crate::spans::Tracer;

/// `(name, why)` of every workload, in the order they run.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "hca3_scale",
        "HCA3 + accuracy check at 4096 ranks on the events engine: the ping-pong message path and park/wake at scale",
    ),
    (
        "fig5_sweep",
        "the fig5 experiment on the library-default engine through SweepExecutor, ClusterPool, H2HCA and comm splits",
    ),
    (
        "roundtime_coll",
        "Round-Time over allreduce at 256 ranks: tree collectives, all ranks runnable at once, nested global-clock reads",
    ),
    (
        "chaos_traced",
        "the 15-cell fault grid at 64 ranks with full observability and both sinks: fault, deadline, obs and sink paths",
    ),
];

/// Oracle instant at which global clocks are compared (virtual s).
const ORACLE_AT_S: f64 = 20.0;

/// Per-receive timeout of the chaos grid (virtual s): JK serves its 63
/// clients one after the other, so the last one legitimately waits
/// several virtual seconds for its first message.
const CHAOS_RECV_TIMEOUT_S: f64 = 10.0;

/// Accuracy every benign synchronization must reach right after sync.
const MAX_ERR_AT_SYNC_S: f64 = 20e-6;

/// Problem sizes: the full benchmark, or the `--quick` smoke shapes
/// (same code paths at p ≤ 64).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Smoke mode.
    pub quick: bool,
}

impl Sizes {
    fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Titan shape of `hca3_scale` (16 ranks per node).
    pub fn hca3_machine(&self) -> MachineSpec {
        machines::titan().with_shape(self.pick(256, 4), 1, 16)
    }

    /// Hydra shape of `fig5_sweep`.
    pub fn fig5_machine(&self) -> MachineSpec {
        machines::hydra().with_shape(self.pick(18, 4), 2, 8)
    }

    /// Jupiter shape of `roundtime_coll` and of the 256-rank layer rows.
    pub fn p256_machine(&self) -> MachineSpec {
        machines::jupiter().with_shape(self.pick(16, 2), 2, 8)
    }

    /// Valid repetitions `roundtime_coll` collects.
    pub fn roundtime_nrep(&self) -> usize {
        self.pick(250, 25)
    }

    /// Testbed shape of `chaos_traced`.
    pub fn chaos_machine(&self) -> MachineSpec {
        machines::testbed(self.pick(16, 4), 4)
    }

    /// Divides a micro-benchmark's iteration count in smoke mode.
    pub fn iters(&self, full: usize) -> usize {
        self.pick(full, (full / 50).max(2))
    }
}

/// 64-bit FNV-1a over a unit's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Feeds the bit pattern of an `f64`.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// What one unit produced.
#[derive(Debug, Clone, Default)]
pub struct UnitOut {
    /// FNV-1a over the unit's per-rank outputs.
    pub digest: u64,
    /// Simulated messages posted; 0 for `fig5_sweep`, because
    /// `run_hier_experiment` returns no traffic counters.
    pub msgs: u64,
    /// Simulated sync duration, max over ranks (mean over the unit's
    /// cluster runs where all ranks completed), virtual s.
    pub virt_sync_s: f64,
    /// Max over ranks of |global clock − rank 0's| (mean over the
    /// unit's cluster runs with ≥ 2 survivors), virtual µs.
    pub sync_err_us: f64,
    /// The first violated output check, if any.
    pub error: Option<String>,
}

impl UnitOut {
    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }
}

/// What every rank of a synchronizing run reports.
struct RankOut {
    msgs: u64,
    sync_s: f64,
    /// Oracle reading of this rank's global clock at [`ORACLE_AT_S`].
    eval: f64,
    /// Workload-specific scalars folded into the digest.
    extra: [f64; 2],
}

/// Folds per-rank outputs into a [`UnitOut`] (digest, message count,
/// sync duration and oracle error against rank 0).
fn fold_ranks(ranks: &[RankOut]) -> UnitOut {
    let mut h = Fnv::default();
    let mut out = UnitOut::default();
    for r in ranks {
        h.u64(r.msgs);
        h.f64(r.sync_s);
        h.f64(r.eval);
        h.f64(r.extra[0]);
        h.f64(r.extra[1]);
        out.msgs += r.msgs;
        out.virt_sync_s = out.virt_sync_s.max(r.sync_s);
        out.sync_err_us = out.sync_err_us.max((r.eval - ranks[0].eval).abs() * 1e6);
    }
    out.digest = h.0;
    out
}

/// The body shared by `hca3_scale` and the `events.*` scaling rows:
/// HCA3, then the accuracy check on a client sample.
pub fn hca3_unit(machine: &MachineSpec, seed: u64, tr: &mut Tracer) -> UnitOut {
    let cluster = tr.scope("build", |_| {
        machine
            .cluster(seed)
            .to_builder()
            .engine(EngineMode::Events)
            .build()
    });
    let ranks = tr.run(&["sync", "check"], |m| {
        cluster.run(|ctx| {
            m.stamp(ctx.rank(), 0);
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let sync = run_sync(&mut Hca3::skampi(20, 5), ctx, &mut comm, Box::new(clk));
            m.stamp(ctx.rank(), 1);
            let mut g = sync.clock;
            let report = check_clock_accuracy(
                ctx,
                &mut comm,
                g.as_mut(),
                &mut SkampiOffset::new(10),
                secs(10.0),
                0.25,
            );
            m.stamp(ctx.rank(), 2);
            RankOut {
                msgs: ctx.counters().sent_msgs,
                sync_s: sync.duration.seconds(),
                eval: g.true_eval(SimTime::from_secs(ORACLE_AT_S)).raw_seconds(),
                extra: [
                    report
                        .as_ref()
                        .map_or(-1.0, |r| r.max_abs_at_sync().seconds()),
                    report.map_or(-1.0, |r| r.max_abs_after_wait().seconds()),
                ],
            }
        })
    });
    let mut out = fold_ranks(&ranks);
    let at_sync = ranks[0].extra[0];
    if !(0.0..MAX_ERR_AT_SYNC_S).contains(&at_sync) {
        out.fail(format!(
            "root accuracy report missing or max_abs_at_sync = {at_sync:e} s (limit {MAX_ERR_AT_SYNC_S:e})"
        ));
    }
    out
}

/// H2HCA sync, then `max_nrep` Round-Time repetitions of an 8-byte
/// allreduce, with observability per `obs` (the `obs.*` rows reuse this
/// body with recording on). Returns the unit output and the trace log.
pub fn roundtime_unit(
    machine: &MachineSpec,
    seed: u64,
    max_nrep: usize,
    obs: ObsSpec,
    tr: &mut Tracer,
) -> (UnitOut, TraceLog) {
    let cluster = tr.scope("build", |_| {
        machine
            .cluster(seed)
            .to_builder()
            .engine(EngineMode::Events)
            .observability(obs)
            .build()
    });
    let (ranks, log) = tr.run(&["sync", "scheme"], |m| {
        cluster.run_observed(|ctx| {
            m.stamp(ctx.rank(), 0);
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = Hierarchical::h2(
                Box::new(Hca3::skampi(20, 5)),
                Box::new(ClockPropSync::verified()),
            );
            let sync = run_sync(&mut alg, ctx, &mut comm, Box::new(clk));
            m.stamp(ctx.rank(), 1);
            let mut g = sync.clock;
            let cfg = RoundTimeConfig {
                max_time_slice_s: secs(100.0),
                max_nrep,
                ..Default::default()
            };
            let mut op = |ctx: &mut RankCtx, comm: &mut Comm| {
                let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
            };
            let reps = run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op);
            m.stamp(ctx.rank(), 2);
            RankOut {
                msgs: ctx.counters().sent_msgs,
                sync_s: sync.duration.seconds(),
                eval: g.true_eval(SimTime::from_secs(ORACLE_AT_S)).raw_seconds(),
                extra: [
                    reps.len() as f64,
                    reps.iter().map(|r| r.latency().seconds()).sum(),
                ],
            }
        })
    });
    let mut out = fold_ranks(&ranks);
    if let Some(r) = ranks.iter().find(|r| r.extra[0] != max_nrep as f64) {
        out.fail(format!(
            "a rank collected {} valid repetitions, expected exactly {max_nrep}",
            r.extra[0]
        ));
    }
    (out, log)
}

/// The `chaos` fault grid: scenario label plus plan, sized to `size`
/// ranks.
fn chaos_scenarios(size: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::new()),
        (
            "drop5",
            FaultPlan::new().drop_messages(LinkSel::any(), 0.05, Window::all()),
        ),
        (
            "scramble",
            FaultPlan::new()
                .duplicate_messages(LinkSel::any(), 0.10, secs(2e-5), Window::all())
                .reorder_messages(LinkSel::any(), 0.10, secs(5e-5), Window::all()),
        ),
        (
            "partition",
            FaultPlan::new().partition(
                (0..size / 2).collect(),
                Window::between(SimTime::from_secs(0.02), SimTime::from_secs(0.30)),
            ),
        ),
        (
            "crash",
            FaultPlan::new().crash(size - 1, SimTime::from_secs(0.03), None),
        ),
    ]
}

const CHAOS_ALGS: [&str; 3] = ["jk", "hca2", "hca3"];

fn chaos_alg(alg: &str) -> Box<dyn ClockSync> {
    match alg {
        "jk" => Box::new(Jk::mean_rtt(16, 4)),
        "hca2" => Box::new(Hca2::skampi(20, 6)),
        _ => Box::new(Hca3::skampi(20, 6)),
    }
}

fn note_count(log: &TraceLog, prefix: &str) -> u64 {
    let mut count = 0;
    for rec in log.ranks() {
        for ev in rec.events() {
            if let Event::Note { name, .. } = ev {
                count += u64::from(rec.name(*name).starts_with(prefix));
            }
        }
    }
    count
}

/// Number of events of the log that are message sends.
fn send_count(log: &TraceLog) -> u64 {
    log.ranks()
        .iter()
        .flat_map(|rec| rec.events())
        .filter(|ev| matches!(ev, Event::Send { .. }))
        .count() as u64
}

fn chaos_unit(machine: &MachineSpec, seed: u64, tr: &mut Tracer) -> UnitOut {
    let size = machine.topology.total_cores();
    let mut h = Fnv::default();
    let mut out = UnitOut::default();
    let (mut n_complete, mut n_survived) = (0u32, 0u32);
    for (scenario, plan) in chaos_scenarios(size) {
        let mut fault_notes = 0;
        for alg in CHAOS_ALGS {
            let cluster = tr.scope("build", |_| {
                machine
                    .cluster(seed)
                    .to_builder()
                    .env(machine.env_spec().faults(plan.clone()))
                    .observability(ObsSpec::full())
                    .engine(EngineMode::Events)
                    .build()
            });
            let (outcome, log) = tr.run(&["sync"], |m| {
                cluster.run_outcome_observed(|ctx| {
                    m.stamp(ctx.rank(), 0);
                    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
                    let mut comm = Comm::world(ctx);
                    let sync = run_sync_with_timeout(
                        chaos_alg(alg).as_mut(),
                        ctx,
                        &mut comm,
                        Box::new(clk),
                        secs(CHAOS_RECV_TIMEOUT_S),
                    );
                    m.stamp(ctx.rank(), 1);
                    let eval = sync.clock.true_eval(SimTime::from_secs(ORACLE_AT_S));
                    (sync.duration.seconds(), eval.raw_seconds())
                })
            });
            let (trace, summary) = tr.scope("sink", |_| (chrome_trace(&log), summary_json(&log)));

            let survivors: Vec<(f64, f64)> = outcome
                .ranks
                .iter()
                .filter_map(|r| r.completed().copied())
                .collect();
            for r in &outcome.ranks {
                match r {
                    RankOutcome::Completed((dur, eval)) => {
                        h.f64(*dur);
                        h.f64(*eval);
                    }
                    RankOutcome::TimedOut(t) => {
                        h.u64(t.src as u64);
                        h.u64(u64::from(t.tag));
                        h.f64(t.at.seconds());
                    }
                }
            }
            h.u64(log.total_events() as u64);
            h.u64(trace.len() as u64);
            h.u64(summary.len() as u64);
            out.msgs += send_count(&log);
            if outcome.all_completed() {
                n_complete += 1;
                out.virt_sync_s += survivors.iter().map(|s| s.0).fold(0.0, f64::max);
            }
            if survivors.len() >= 2 {
                n_survived += 1;
                out.sync_err_us += survivors
                    .iter()
                    .map(|s| (s.1 - survivors[0].1).abs() * 1e6)
                    .fold(0.0, f64::max);
            }

            fault_notes += note_count(&log, "fault/");
            let cell = format!("chaos cell {scenario}/{alg}");
            if scenario == "baseline" && !outcome.all_completed() {
                out.fail(format!(
                    "{cell}: only {} of {size} ranks completed",
                    outcome.completed_count()
                ));
            }
            if scenario == "drop5" && outcome.timed_out_count() == 0 {
                out.fail(format!("{cell}: no rank timed out under 5 % message loss"));
            }
            if log.total_dropped() > 0 {
                out.fail(format!(
                    "{cell}: {} obs events dropped",
                    log.total_dropped()
                ));
            }
            for (sink, text) in [("chrome_trace", &trace), ("summary_json", &summary)] {
                if !text.starts_with(['{', '[']) {
                    out.fail(format!("{cell}: {sink} output is empty or not JSON"));
                }
            }
        }
        if scenario != "baseline" && fault_notes == 0 {
            out.fail(format!(
                "chaos scenario {scenario}: no fault/* note recorded"
            ));
        }
    }
    out.virt_sync_s /= f64::from(n_complete.max(1));
    out.sync_err_us /= f64::from(n_survived.max(1));
    out.digest = h.0;
    out
}

/// The fig5 configurations at this size (paper fit points 1000/500
/// scaled to the run budget, as the `fig5` binary's defaults do).
fn fig5_configs(sz: Sizes) -> Vec<(String, SyncFactory)> {
    let (hi, lo) = sz.pick((100, 50), (20, 10));
    fig4_configs(hi, lo, 10)
}

fn fig5_unit(sz: Sizes, seed: u64, tr: &mut Tracer) -> UnitOut {
    let (machine, configs, exec) = tr.scope("build", |_| {
        let machine = sz.fig5_machine();
        // No `--jobs` flag and no engine call: the library's defaults.
        let exec = SweepExecutor::from_env(None, machine.topology.total_cores());
        (machine, fig5_configs(sz), exec)
    });
    let rows = tr.scope("experiment", |_| {
        run_hier_experiment(&machine, &configs, 1, secs(10.0), 1.0, seed, &exec)
    });
    let csv_path = out_dir().join(format!("fig5-{}.csv", std::process::id()));
    let csv = tr.scope("csv", |_| {
        write_hier_csv(&rows, &csv_path.to_string_lossy());
        std::fs::read(&csv_path).unwrap_or_default()
    });
    let _ = std::fs::remove_file(&csv_path);

    let mut h = Fnv::default();
    let mut out = UnitOut::default();
    for r in &rows {
        h.f64(r.duration.seconds());
        h.f64(r.max_at0.seconds());
        h.f64(r.max_at_wait.seconds());
        out.virt_sync_s += r.duration.seconds() / rows.len() as f64;
        // `run_hier_experiment` exposes the paper's estimator, not the
        // oracle: the error here is Check-Global-Clock's max |offset|.
        out.sync_err_us += r.max_at0.seconds() * 1e6 / rows.len() as f64;
        if r.max_at0.seconds() >= MAX_ERR_AT_SYNC_S {
            out.fail(format!(
                "{}: max_abs_at_sync = {:e} s (limit {MAX_ERR_AT_SYNC_S:e})",
                r.label,
                r.max_at0.seconds()
            ));
        }
    }
    h.bytes(&csv);
    if rows.len() != configs.len() || csv.is_empty() {
        out.fail(format!(
            "fig5 produced {} rows and {} CSV bytes",
            rows.len(),
            csv.len()
        ));
    }
    out.digest = h.0;
    out
}

/// Where the benchmark writes (`benchmark/out/`, inside the checkout it
/// was built in).
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The workloads, in the order of [`WORKLOADS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hca3Scale,
    Fig5Sweep,
    RoundtimeColl,
    ChaosTraced,
}

const KINDS: [Kind; 4] = [
    Kind::Hca3Scale,
    Kind::Fig5Sweep,
    Kind::RoundtimeColl,
    Kind::ChaosTraced,
];

/// One of the four workloads at a given size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    kind: Kind,
    /// Problem sizes.
    pub sizes: Sizes,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str, sizes: Sizes) -> Option<Self> {
        let kind = KINDS[WORKLOADS.iter().position(|w| w.0 == name)?];
        Some(Self { kind, sizes })
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        WORKLOADS[self.kind as usize].0
    }

    fn machine(&self) -> MachineSpec {
        match self.kind {
            Kind::Hca3Scale => self.sizes.hca3_machine(),
            Kind::Fig5Sweep => self.sizes.fig5_machine(),
            Kind::RoundtimeColl => self.sizes.p256_machine(),
            Kind::ChaosTraced => self.sizes.chaos_machine(),
        }
    }

    /// Ranks of one cluster run of this workload.
    pub fn ranks(&self) -> usize {
        self.machine().topology.total_cores()
    }

    /// The engine this workload's runs resolve to, as the library
    /// reports it, and the sweep executor's job budget.
    pub fn engine_and_jobs(&self) -> (String, usize) {
        if self.kind == Kind::Fig5Sweep {
            let jobs = SweepExecutor::from_env(None, self.ranks()).jobs();
            (
                format!("{:?}", self.machine().cluster(0).engine_mode()),
                jobs,
            )
        } else {
            (format!("{:?}", EngineMode::Events), 1)
        }
    }

    /// Runs one unit on the inputs generated from `seed`.
    pub fn unit(&self, seed: u64, tr: &mut Tracer) -> UnitOut {
        let (sz, machine) = (self.sizes, self.machine());
        tr.scope("unit", |tr| match self.kind {
            Kind::Hca3Scale => hca3_unit(&machine, seed, tr),
            Kind::Fig5Sweep => fig5_unit(sz, seed, tr),
            Kind::RoundtimeColl => {
                roundtime_unit(&machine, seed, sz.roundtime_nrep(), ObsSpec::off(), tr).0
            }
            Kind::ChaosTraced => chaos_unit(&machine, seed, tr),
        })
    }
}

/// Times `f` in host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
