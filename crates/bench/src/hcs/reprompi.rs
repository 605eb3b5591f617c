//! `reprompi` — a ReproMPI-style benchmark CLI over the simulated
//! cluster: pick a machine, a shape, collectives, message sizes, a
//! clock synchronization algorithm and a measurement scheme, get a
//! reproducible latency table.
//!
//! This is the "downstream user" entry point: the figure experiments
//! are fixed, this tool is the general instrument.
//!
//! ```text
//! hcs reprompi --machine jupiter --nodes 8 --ppn 4 \
//!     --ops allreduce,bcast,barrier --msizes 8,64,512 \
//!     --sync hca3 --scheme roundtime --reps 200 --seed 1 [--jobs N]
//! ```

use hcs_bench::schemes::{
    estimate_bcast_latency, run_barrier_scheme, run_round_time, RoundTimeConfig,
};
use hcs_bench::stats::Summary;
use hcs_bench::sweep::{run_cluster_sweep, SweepExecutor};
use hcs_clock::{BoxClock, LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_experiments::Args;
use hcs_mpi::{BarrierAlgorithm, Comm, ReduceOp};
use hcs_sim::{machines, secs, MachineSpec, RankCtx};

fn machine_by_name(name: &str) -> MachineSpec {
    match name {
        "jupiter" => machines::jupiter(),
        "hydra" => machines::hydra(),
        "titan" => machines::titan(),
        "ethernet" => machines::ethernet(),
        other => panic!("unknown machine {other:?} (jupiter|hydra|titan|ethernet)"),
    }
}

fn sync_by_name(name: &str) -> Box<dyn ClockSync> {
    match name {
        "hca" => Box::new(Hca::skampi(100, 10)),
        "hca2" => Box::new(Hca2::skampi(100, 10)),
        "hca3" => Box::new(Hca3::skampi(100, 10)),
        "jk" => Box::new(Jk::skampi(100, 10)),
        "h2hca" => Box::new(Hierarchical::h2(
            Box::new(Hca3::skampi(100, 10)),
            Box::new(ClockPropSync::verified()),
        )),
        other => panic!("unknown sync {other:?} (hca|hca2|hca3|jk|h2hca)"),
    }
}

/// A boxed operation under test.
type BoxedOp<'a> = Box<dyn FnMut(&mut RankCtx, &mut Comm) + 'a>;

fn op_by_name(name: &str, msize: usize) -> BoxedOp<'_> {
    match name {
        "allreduce" => Box::new(move |ctx: &mut RankCtx, comm: &mut Comm| {
            let _ = comm.allreduce(ctx, &vec![0u8; msize], ReduceOp::ByteMax);
        }),
        "bcast" => Box::new(move |ctx: &mut RankCtx, comm: &mut Comm| {
            let _ = comm.bcast(ctx, 0, &vec![0u8; msize]);
        }),
        "barrier" => Box::new(|ctx: &mut RankCtx, comm: &mut Comm| {
            comm.barrier(ctx, BarrierAlgorithm::Bruck);
        }),
        "gather" => Box::new(move |ctx: &mut RankCtx, comm: &mut Comm| {
            let _ = comm.gather(ctx, 0, &vec![0u8; msize]);
        }),
        other => panic!("unknown op {other:?} (allreduce|bcast|barrier|gather)"),
    }
}

pub fn run(argv: Vec<String>) {
    let args = Args::parse(
        argv,
        "machine nodes ppn ops msizes sync scheme reps slice seed jobs",
    );
    let machine_name = args.get_str("machine", "jupiter");
    let nodes = args.get("nodes", 8);
    let ppn = args.get("ppn", 4);
    let ops: Vec<String> = args.get_list("ops", "allreduce");
    let msizes: Vec<usize> = args.get_list("msizes", "8,64,512");
    let sync_name = args.get_str("sync", "hca3");
    let scheme = args.get_str("scheme", "roundtime");
    let reps = args.get("reps", 200);
    let slice: f64 = args.get("slice", 0.5);
    let seed: u64 = args.get("seed", 1);

    let mut machine = machine_by_name(&machine_name);
    let sockets = if machine.topology.sockets_per_node() > 1 && ppn >= 2 {
        2
    } else {
        1
    };
    machine = machine.with_shape(nodes, sockets, ppn / sockets);

    println!(
        "# reprompi (simulated) — machine {}, {} x {} = {} ranks",
        machine.name,
        nodes,
        ppn,
        machine.topology.total_cores()
    );
    println!(
        "# sync {} | scheme {} | reps {} | slice {} s | seed {}",
        sync_name, scheme, reps, slice, seed
    );
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "op", "msize", "nrep", "median[us]", "mean[us]", "min[us]", "max[us]"
    );

    // One sweep point per (op, msize). Every point uses the master seed
    // directly — `Cluster::run` is stateless per call, so this matches
    // the former shared-cluster loop bit for bit.
    let mut points = Vec::new();
    for op_name in &ops {
        for &msize in &msizes {
            points.push((op_name.clone(), msize));
        }
    }
    let exec = SweepExecutor::from_env(args.get_jobs(), machine.topology.total_cores());
    let all = run_cluster_sweep(
        &exec,
        &machine,
        &points,
        |_, _| seed,
        |(op_name, msize), ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = sync_by_name(&sync_name);
            let mut g: BoxClock = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
            let mut op = op_by_name(op_name, *msize);

            let samples: Vec<f64> = match scheme.as_str() {
                "roundtime" => {
                    let bl = estimate_bcast_latency(ctx, &mut comm, g.as_mut(), 10);
                    let cfg = RoundTimeConfig {
                        max_time_slice_s: secs(slice),
                        max_nrep: reps,
                        slack_b: 3.0,
                        bcast_latency_s: bl,
                    };
                    let reps = run_round_time(ctx, &mut comm, g.as_mut(), cfg, op.as_mut());
                    reps.iter()
                        .map(|s| crate::global_latency(ctx, &mut comm, s))
                        .collect()
                }
                "barrier" => run_barrier_scheme(
                    ctx,
                    &mut comm,
                    g.as_mut(),
                    BarrierAlgorithm::Bruck,
                    reps,
                    op.as_mut(),
                )
                .iter()
                .map(|s| s.latency().seconds())
                .collect(),
                other => panic!("unknown scheme {other:?} (roundtime|barrier)"),
            };
            (comm.rank() == 0).then_some(samples)
        },
    );

    for (results, (op_name, msize)) in all.iter().zip(&points) {
        let samples = results[0].clone().expect("root collects");
        if samples.is_empty() {
            println!(
                "{:<12} {:>8} {:>10} (no valid repetitions)",
                op_name, msize, 0
            );
            continue;
        }
        let s = Summary::of(&samples);
        println!(
            "{:<12} {:>8} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            op_name,
            msize,
            s.n,
            s.median * 1e6,
            s.mean * 1e6,
            s.min * 1e6,
            s.max * 1e6
        );
    }
}
