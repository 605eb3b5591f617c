//! The per-layer cost table: every layer of the workspace measured
//! from outside, by timing calls into its public functions.
//!
//! Rows are named `<module>.<metric>` and carry the number of
//! operations they were measured over. Counts marked *exact* repeat
//! bit for bit for the same seed; any change in them is a change of
//! simulated behaviour, not of host speed.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use hcs_bench::sweep::SweepExecutor;
use hcs_clock::{
    flatten_clock, unflatten_clock, BoxClock, Clock, GlobalClockLM, LinearModel, LocalClock,
    Oscillator, TimeSource,
};
use hcs_core::prelude::*;
use hcs_mpi::{BarrierAlgorithm, Comm, ReduceOp};
use hcs_sim::obs::{chrome_trace, summary_json, Event};
use hcs_sim::rngx::{self, Pcg64};
use hcs_sim::{
    machines, secs, EngineMode, FaultPlan, Level, LinkSel, MachineSpec, ObsSpec, RankCtx, Window,
};

use crate::host::{scrubbed_command, unpinned_command};
use crate::report::Metric;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{roundtime_unit, timed, Sizes};

/// The rows of the table, in measurement order.
type Rows = Vec<Metric>;

/// Messages per peer in the fan bursts: the engine's staging-segment
/// capacity, so each burst is one batched mailbox mutation.
const FAN_ROUNDS: usize = 32;

fn events(machine: &MachineSpec, seed: u64) -> hcs_sim::Cluster {
    machine
        .cluster(seed)
        .to_builder()
        .engine(EngineMode::Events)
        .build()
}

/// Median over `reps` runs of the host seconds rank 0 reports.
fn rank0_median(reps: usize, mut run: impl FnMut() -> Vec<f64>) -> f64 {
    median(&(0..reps).map(|_| run()[0]).collect::<Vec<_>>())
}

fn sim_rows(rows: &mut Rows, sz: Sizes, seed: u64) {
    let mut rng = Pcg64::seed_from_u64(seed);
    let n = sz.iters(20_000_000);
    let (acc, t) = timed(|| (0..n).fold(0u64, |a, _| a ^ rng.next_u64()));
    black_box(acc);
    rows.push(Metric::new(
        "rngx.next_u64_ns",
        t * 1e9 / n as f64,
        "ns",
        n as u64,
    ));

    let n = sz.iters(5_000_000);
    let (acc, t) = timed(|| {
        (0..n).fold(0.0, |a, _| {
            a + rngx::lognormal(&mut rng, black_box(1e-6), black_box(0.5))
        })
    });
    black_box(acc);
    rows.push(Metric::new(
        "rngx.lognormal_ns",
        t * 1e9 / n as f64,
        "ns",
        n as u64,
    ));

    let net = machines::jupiter().network;
    let (acc, t) = timed(|| {
        (0..n).fold(0.0, |a, _| {
            let lat = net.sample_latency(&mut rng, Level::InterNode, 0, black_box(64), 8);
            a + lat.seconds()
        })
    });
    black_box(acc);
    rows.push(Metric::new(
        "net.sample_latency_ns",
        t * 1e9 / n as f64,
        "ns",
        n as u64,
    ));
}

fn engine_rows(rows: &mut Rows, sz: Sizes, seed: u64) {
    let machine = sz.p256_machine();
    let p = machine.topology.total_cores();
    let reps = sz.iters(20).min(20);
    let burst = ((p - 1) * FAN_ROUNDS) as f64;

    // Fan-out: rank 0 streams FAN_ROUNDS messages at every other rank,
    // destination-major; its send loop is the staging + flush path.
    let cluster = events(&machine, seed);
    let t = rank0_median(reps, || {
        cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let t0 = Instant::now();
                for dst in 1..ctx.size() {
                    for _ in 0..FAN_ROUNDS {
                        ctx.send(dst, 0, &[0u8; 8]);
                    }
                }
                t0.elapsed().as_secs_f64()
            } else {
                for _ in 0..FAN_ROUNDS {
                    let _ = ctx.recv(0, 0);
                }
                0.0
            }
        })
    });
    rows.push(Metric::new(
        "engine.post_ns",
        t * 1e9 / burst,
        "ns",
        reps as u64 * burst as u64,
    ));

    // Fan-in, source-major at rank 0: out-of-order messages go through
    // the pending buffer.
    let t = rank0_median(reps, || {
        cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let t0 = Instant::now();
                for src in 1..ctx.size() {
                    for _ in 0..FAN_ROUNDS {
                        let _ = ctx.recv(src, 0);
                    }
                }
                t0.elapsed().as_secs_f64()
            } else {
                for _ in 0..FAN_ROUNDS {
                    ctx.send(0, 0, &[0u8; 8]);
                }
                0.0
            }
        })
    });
    rows.push(Metric::new(
        "engine.recv_pending_ns",
        t * 1e9 / burst,
        "ns",
        reps as u64 * burst as u64,
    ));

    // One sender streaming at one receiver that drains in order.
    let pair = machines::testbed(1, 2);
    let stream = sz.iters(20_000);
    let cluster = events(&pair, seed);
    let t = rank0_median(reps, || {
        cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let t0 = Instant::now();
                for _ in 0..stream {
                    let _ = ctx.recv(1, 0);
                }
                t0.elapsed().as_secs_f64()
            } else {
                for _ in 0..stream {
                    ctx.send(0, 0, &[0u8; 8]);
                }
                0.0
            }
        })
    });
    rows.push(Metric::new(
        "engine.recv_matched_ns",
        t * 1e9 / stream as f64,
        "ns",
        (reps * stream) as u64,
    ));

    // Strict ping-pong: every message is one park/wake round trip.
    let trips = sz.iters(10_000) as u32;
    for (mode, label) in [
        (EngineMode::Events, "events"),
        (EngineMode::Threads, "threads"),
    ] {
        let cluster = pair.cluster(seed).to_builder().engine(mode).build();
        let times: Vec<f64> = (0..5)
            .map(|_| timed(|| cluster.run(|ctx| pingpong(ctx, trips))).1)
            .collect();
        rows.push(Metric::new(
            &format!("engine.pingpong_ns.{label}"),
            median(&times) * 1e9 / (2.0 * f64::from(trips)),
            "ns",
            10 * u64::from(trips),
        ));
    }

    // Empty bodies: dispatch + teardown per run.
    let big = sz.hca3_machine();
    for (machine, mode, name, reps) in [
        (
            &machine,
            EngineMode::Events,
            "engine.run_empty_us.p256.events",
            50,
        ),
        (
            &big,
            EngineMode::Events,
            "engine.run_empty_us.p4096.events",
            10,
        ),
        (
            &machine,
            EngineMode::Threads,
            "engine.run_empty_us.p256.threads",
            50,
        ),
    ] {
        let cluster = machine.cluster(seed).to_builder().engine(mode).build();
        let times: Vec<f64> = (0..reps + 2)
            .map(|_| timed(|| black_box(cluster.run(|ctx| ctx.rank()))).1)
            .collect();
        rows.push(Metric::new(
            name,
            median(&times[2..]) * 1e6,
            "us",
            reps as u64,
        ));
    }

    // The fault layer: the same ping-pong under deadline receives, with
    // no plan installed and with 5 % message loss.
    let drop5 = FaultPlan::new().drop_messages(LinkSel::any(), 0.05, Window::all());
    for (plan, label) in [(FaultPlan::new(), "noplan"), (drop5, "drop5")] {
        let cluster = pair
            .cluster(seed)
            .to_builder()
            .env(pair.env_spec().faults(plan))
            .engine(EngineMode::Events)
            .build();
        let times: Vec<f64> = (0..5)
            .map(|_| timed(|| cluster.run(|ctx| lossy_pingpong(ctx, trips))).1)
            .collect();
        rows.push(Metric::new(
            &format!("fault.pingpong_ns.{label}"),
            median(&times) * 1e9 / (2.0 * f64::from(trips)),
            "ns",
            10 * u64::from(trips),
        ));
    }
}

fn pingpong(ctx: &mut RankCtx, trips: u32) {
    for i in 0..trips {
        if ctx.rank() == 0 {
            ctx.send_t(1, i & 0xFF, 1.0f64);
            let _: f64 = ctx.recv_t(1, i & 0xFF);
        } else {
            let v: f64 = ctx.recv_t(0, i & 0xFF);
            ctx.send_t(0, i & 0xFF, v);
        }
    }
}

/// Ping-pong that survives message loss: every receive carries a
/// deadline, and a trip whose ping or pong is lost is abandoned.
fn lossy_pingpong(ctx: &mut RankCtx, trips: u32) -> u32 {
    let within = secs(1e-3);
    let mut completed = 0;
    for i in 0..trips {
        if ctx.rank() == 0 {
            ctx.send(1, i, &[0u8; 8]);
            completed += u32::from(ctx.recv_within(1, i, within).is_ok());
        } else if ctx.recv_within(0, i, within).is_ok() {
            ctx.send(0, i, &[0u8; 8]);
            completed += 1;
        }
    }
    completed
}

/// What a `probe` child printed.
pub struct ProbeOut {
    /// `HCS_EVENT_WORKERS` as the library in the child saw it, or
    /// `default` when it was unset.
    pub workers: Option<String>,
    /// `(unit seconds, messages)` per `unit <s> <msgs>` line.
    pub units: Vec<(f64, u64)>,
}

/// Runs a `probe` child to its end and parses what it printed.
pub fn run_probe(cmd: &mut Command) -> ProbeOut {
    let out = cmd.output().expect("spawn a probe child");
    assert!(out.status.success(), "probe child failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    ProbeOut {
        workers: stdout
            .lines()
            .find_map(|l| Some(l.strip_prefix("workers ")?.trim().to_string())),
        units: stdout
            .lines()
            .filter_map(|l| {
                let mut f = l.strip_prefix("unit ")?.split_whitespace();
                Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
            })
            .collect(),
    }
}

/// Runs `probe hca3 <nodes> <units> <seed>` in a fresh child process:
/// pinned like this process, or — for the rows about the multi-CPU
/// default — on all of the host's CPUs; with the library's default
/// event workers or with `workers` of them. The child reports the
/// worker setting its library saw; a child that saw another one than
/// asked for measured the wrong thing, which is an error.
fn hca3_child(
    nodes: usize,
    units: usize,
    seed: u64,
    all_cpus: bool,
    workers: Option<usize>,
    errors: &mut Vec<String>,
) -> Vec<(f64, u64)> {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut cmd = if all_cpus {
        unpinned_command(&exe)
    } else {
        scrubbed_command(&exe)
    };
    cmd.args(["probe", "hca3"])
        .args([nodes, units].map(|x| x.to_string()))
        .arg(seed.to_string());
    let wanted = workers.map_or("default".to_string(), |n| n.to_string());
    if workers.is_some() {
        cmd.args(["--workers", &wanted]);
    }
    let out = run_probe(&mut cmd);
    if out.workers.as_deref() != Some(&wanted) {
        errors.push(format!(
            "HCA3 probe child ran with event workers {:?}, not `{wanted}`",
            out.workers
        ));
    }
    out.units
}

fn scaling_rows(rows: &mut Rows, sz: Sizes, seed: u64, errors: &mut Vec<String>) {
    // Fresh-process HCA3 runs at three sizes: ns per simulated message
    // stays flat if the engine scales.
    let nodes = if sz.quick { [1, 2, 4] } else { [64, 256, 1024] };
    let first = nodes.map(|n| hca3_child(n, 1, seed, false, None, errors)[0]);
    for (label, (t, msgs)) in ["p1024", "p4096", "p16384"].iter().zip(first) {
        rows.push(Metric::new(
            &format!("events.ns_per_msg.{label}"),
            t * 1e9 / msgs as f64,
            "ns",
            msgs,
        ));
    }
    // One event worker against the default pool, both on all host CPUs.
    let default = hca3_child(nodes[0], 5, seed, true, None, errors);
    let one_worker = hca3_child(nodes[0], 5, seed, true, Some(1), errors);
    let unit_s = |runs: &[(f64, u64)]| median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
    rows.push(Metric::new(
        "events.workers1_ratio",
        unit_s(&one_worker) / unit_s(&default),
        "ratio",
        (one_worker.len() + default.len()) as u64,
    ));
}

fn clock_rows(rows: &mut Rows, sz: Sizes, seed: u64) {
    let model = LinearModel::new(1e-6, 1e-5);
    let reads = sz.iters(2_000_000);
    let cluster = events(&machines::testbed(1, 1), seed);
    for depth in 0..4 {
        let t = cluster.run(|ctx| {
            let mut clk: BoxClock = Box::new(LocalClock::new(ctx, TimeSource::MpiWtime));
            for _ in 0..depth {
                clk = GlobalClockLM::new(clk, model).boxed();
            }
            let t0 = Instant::now();
            let mut acc = 0.0;
            for _ in 0..reads {
                acc += clk.get_time(ctx).raw_seconds();
            }
            black_box(acc);
            t0.elapsed().as_secs_f64()
        })[0];
        rows.push(Metric::new(
            &format!("clock.read_ns.d{depth}"),
            t * 1e9 / reads as f64,
            "ns",
            reads as u64,
        ));
    }

    let base = || -> BoxClock { Box::new(LocalClock::from_oscillator(Oscillator::perfect(), 0)) };
    let mut clk = base();
    for _ in 0..3 {
        clk = GlobalClockLM::new(clk, model).boxed();
    }
    let trips = sz.iters(500_000);
    let ((), t) = timed(|| {
        for _ in 0..trips {
            let bytes = flatten_clock(black_box(&clk));
            black_box(unflatten_clock(base(), &bytes));
        }
    });
    rows.push(Metric::new(
        "clock.flatten_roundtrip_ns",
        t * 1e9 / trips as f64,
        "ns",
        trips as u64,
    ));
}

/// One collective call on one rank.
type CollectiveOp<'a> = &'a (dyn Fn(&mut RankCtx, &mut Comm) + Sync);

/// Builds one rank's instance of a synchronization algorithm.
type MakeSync<'a> = &'a (dyn Fn() -> Box<dyn ClockSync> + Sync);

/// Runs `calls` collective calls on every rank of `cluster`; returns
/// the host µs per call until the slowest rank is through (the root of
/// a broadcast only posts and is done long before the leaves) and the
/// messages per call.
fn collective(cluster: &hcs_sim::Cluster, calls: usize, op: CollectiveOp) -> (f64, f64) {
    let out = cluster.run(|ctx| {
        let mut comm = Comm::world(ctx);
        let t0 = Instant::now();
        for _ in 0..calls {
            op(ctx, &mut comm);
        }
        (t0.elapsed().as_secs_f64(), ctx.counters().sent_msgs)
    });
    let slowest = out.iter().map(|o| o.0).fold(0.0, f64::max);
    let msgs: u64 = out.iter().map(|o| o.1).sum();
    (slowest * 1e6 / calls as f64, msgs as f64 / calls as f64)
}

fn mpi_rows(rows: &mut Rows, sz: Sizes, seed: u64) {
    let cluster = events(&sz.p256_machine(), seed);
    let calls = sz.iters(200);
    let ops: [(&str, CollectiveOp); 4] = [
        ("bcast", &|ctx, comm| {
            black_box(comm.bcast(ctx, 0, &[0u8; 8]));
        }),
        ("allreduce", &|ctx, comm| {
            black_box(comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax));
        }),
        ("barrier_tree", &|ctx, comm| {
            comm.barrier(ctx, BarrierAlgorithm::Tree)
        }),
        // A communicator can be split 7 times (its context-id fan-out),
        // so every call splits a fresh world communicator.
        ("split", &|ctx, _| {
            let mut world = Comm::world(ctx);
            let (color, key) = ((world.rank() % 4) as u64, world.rank() as u64);
            black_box(world.split(ctx, Some(color), key));
        }),
    ];
    for (name, op) in ops {
        let (us, msgs) = collective(&cluster, calls, op);
        rows.push(Metric::new(
            &format!("mpi.{name}_us"),
            us,
            "us",
            calls as u64,
        ));
        rows.push(Metric::new(
            &format!("mpi.{name}_msgs"),
            msgs,
            "count",
            calls as u64,
        ));
    }
}

fn core_rows(rows: &mut Rows, sz: Sizes, seed: u64) {
    let cluster = events(&sz.p256_machine(), seed);
    let hca3 = || -> Box<dyn ClockSync> { Box::new(Hca3::skampi(20, 5)) };
    let prop = || -> Box<dyn ClockSync> { Box::new(ClockPropSync::verified()) };
    let algs: [(&str, MakeSync); 5] = [
        ("jk", &|| Box::new(Jk::skampi(20, 5))),
        ("hca2", &|| Box::new(Hca2::skampi(20, 5))),
        ("hca3", &hca3),
        ("h2hca", &|| Box::new(Hierarchical::h2(hca3(), prop()))),
        ("h3hca", &|| {
            Box::new(Hierarchical::h3(hca3(), prop(), prop()))
        }),
    ];
    for (name, make) in algs {
        let runs: Vec<(u64, f64)> = (0..3)
            .map(|_| {
                let (sent, t) = timed(|| {
                    cluster.run(|ctx| {
                        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
                        let mut comm = Comm::world(ctx);
                        black_box(
                            run_sync(make().as_mut(), ctx, &mut comm, Box::new(clk)).duration,
                        );
                        ctx.counters().sent_msgs
                    })
                });
                (sent.iter().sum(), t)
            })
            .collect();
        let times: Vec<f64> = runs.iter().map(|r| r.1).collect();
        rows.push(Metric::new(
            &format!("core.{name}_ms"),
            median(&times) * 1e3,
            "ms",
            3,
        ));
        rows.push(Metric::new(
            &format!("core.{name}_msgs"),
            runs[0].0 as f64,
            "count",
            1,
        ));
    }

    // The two building blocks, between two ranks on different nodes.
    let pair = events(&machines::testbed(2, 1), seed);
    let calls = sz.iters(2_000);
    let ((), t) = timed(|| {
        pair.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(10);
            for _ in 0..calls {
                black_box(alg.measure_offset(ctx, &comm, &mut clk, 0, 1));
            }
        });
    });
    rows.push(Metric::new(
        "core.skampi_offset_us",
        t * 1e6 / calls as f64,
        "us",
        calls as u64,
    ));

    let calls = sz.iters(100);
    let ((), t) = timed(|| {
        pair.run(|ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let comm = Comm::world(ctx);
            let mut alg = SkampiOffset::new(5);
            let params = LearnParams::with_fitpoints(20);
            for _ in 0..calls {
                black_box(learn_clock_model(
                    ctx, &comm, &mut alg, params, 0, 1, &mut clk,
                ));
            }
        });
    });
    rows.push(Metric::new(
        "core.learn_model_us",
        t * 1e6 / calls as f64,
        "us",
        calls as u64,
    ));
}

/// `benchlib` and `obs` rows share one pair of Round-Time units (50
/// repetitions), run with observability off and fully on.
fn scheme_and_obs_rows(rows: &mut Rows, sz: Sizes, seed: u64) {
    let machine = sz.p256_machine();
    let nrep = sz.roundtime_nrep() / 5;
    let mut tr = Tracer::new(true);
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut log = None;
    for _ in 0..sz.iters(5).min(5) {
        off_s.push(timed(|| roundtime_unit(&machine, seed, nrep, ObsSpec::off(), &mut tr)).1);
        let mut quiet = Tracer::new(false);
        let ((_, l), t) =
            timed(|| roundtime_unit(&machine, seed, nrep, ObsSpec::full(), &mut quiet));
        on_s.push(t);
        log = Some(l);
    }
    let log = log.expect("at least one observed run");
    let runs = off_s.len() as u64;

    // Rounds and invalid rounds as rank 0 recorded them (exact).
    let rank0 = &log.ranks()[0];
    let (mut rounds, mut invalid) = (0u64, 0u64);
    for ev in rank0.events() {
        match ev {
            Event::Enter { name, .. } => {
                rounds += u64::from(rank0.name(*name) == "scheme/roundtime/rep")
            }
            Event::Note { name, .. } => {
                invalid += u64::from(rank0.name(*name) == "roundtime/invalid")
            }
            _ => {}
        }
    }
    let scheme_ns = tr.self_times().get("scheme").map_or(0, |s| s.0) as f64;
    rows.push(Metric::new(
        "schemes.roundtime_rep_us",
        scheme_ns / 1e3 / (runs * rounds.max(1)) as f64,
        "us",
        runs * rounds,
    ));
    rows.push(Metric::new(
        "schemes.invalid_frac",
        invalid as f64 / rounds.max(1) as f64,
        "ratio",
        rounds,
    ));

    let exec = SweepExecutor::from_env(None, 1);
    let times: Vec<f64> = (0..20)
        .map(|_| timed(|| black_box(exec.run(64, 1, black_box))).1)
        .collect();
    rows.push(Metric::new(
        "sweep.overhead_us",
        median(&times) * 1e6 / 64.0,
        "us",
        20 * 64,
    ));

    let events = log.total_events() as f64;
    let (off, on) = (median(&off_s), median(&on_s));
    rows.push(Metric::new(
        "obs.overhead_ratio",
        on / off,
        "ratio",
        2 * runs,
    ));
    rows.push(Metric::new(
        "obs.ns_per_event",
        (on - off) * 1e9 / events,
        "ns",
        events as u64,
    ));
    let (trace, t) = timed(|| chrome_trace(&log));
    let mb = trace.len() as f64 / 1e6;
    rows.push(Metric::new(
        "obs.chrome_trace_mb_per_s",
        mb / t,
        "MB/s",
        trace.len() as u64,
    ));
    rows.push(Metric::new(
        "obs.bytes_per_event",
        trace.len() as f64 / events,
        "B",
        events as u64,
    ));
    let (summary, t) = timed(|| summary_json(&log));
    rows.push(Metric::new(
        "obs.summary_json_mb_per_s",
        summary.len() as f64 / 1e6 / t,
        "MB/s",
        summary.len() as u64,
    ));
    rows.push(Metric::new(
        "obs.events_dropped",
        log.total_dropped() as f64,
        "count",
        events as u64,
    ));
}

/// Measures every layer row; what went wrong on the way goes to `errors`.
pub fn layer_suite(sz: Sizes, seed: u64, errors: &mut Vec<String>) -> Vec<Metric> {
    let mut rows = Rows::new();
    sim_rows(&mut rows, sz, seed);
    clock_rows(&mut rows, sz, seed);
    engine_rows(&mut rows, sz, seed);
    mpi_rows(&mut rows, sz, seed);
    core_rows(&mut rows, sz, seed);
    scheme_and_obs_rows(&mut rows, sz, seed);
    scaling_rows(&mut rows, sz, seed, errors);
    rows
}
