//! Window-size sensitivity study — the paper's §II criticism of
//! window-based measurement made quantitative: "first, one needs a
//! relatively good estimate of the latency of an MPI operation, in
//! order to determine the window size. Second, one outlier ... can cause
//! a large number of subsequent measurements to be invalidated."
//!
//! Sweeps the window size as a multiple of the true operation latency
//! and reports, per multiple: the fraction of valid windows, the
//! reported latency, and the wasted time — next to the Round-Time
//! scheme, which needs no such estimate.
//!
//! ```text
//! hcs window_study [--nodes 8] [--ppn 4] [--reps 100] [--seed 1]
//! ```

use crate::hca3_world;
use hcs_bench::schemes::{
    estimate_allreduce_latency, global_latency, run_round_time, run_window_scheme, RoundTimeConfig,
    WindowConfig,
};
use hcs_experiments::Args;
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::{machines, secs};

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn reps seed");
    let nodes = args.get("nodes", 8);
    let ppn = args.get("ppn", 4);
    let reps = args.get("reps", 100);
    let seed = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    println!(
        "Window-size sensitivity; {}, {} ranks, MPI_Allreduce(8B), {} windows per point\n",
        machine.name,
        machine.topology.total_cores(),
        reps
    );

    let multiples = [0.5f64, 0.8, 1.0, 1.2, 1.5, 2.0, 4.0, 8.0, 16.0];
    println!(
        "{:>14} {:>12} {:>14} {:>16} {:>16}",
        "window/lat", "valid", "reported[us]", "time spent [ms]", "us per sample"
    );
    for &mult in &multiples {
        let res = machine.cluster(seed).run(|ctx| {
            let (mut comm, mut g) = hca3_world(ctx, 40, 8);
            let lat = estimate_allreduce_latency(ctx, &mut comm, g.as_mut(), 8, 10);
            let mut op = |ctx: &mut hcs_sim::RankCtx, comm: &mut Comm| {
                let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
            };
            let t0 = ctx.now();
            let cfg = WindowConfig {
                window_s: lat * mult,
                nreps: reps,
                first_window_slack_s: secs(1e-3),
            };
            let outcome = run_window_scheme(ctx, &mut comm, g.as_mut(), cfg, &mut op);
            let spent = ctx.now() - t0;
            let mut globals = Vec::new();
            for (s, &valid) in outcome.samples.iter().zip(&outcome.valid) {
                let latency = global_latency(ctx, &mut comm, s).seconds();
                if valid {
                    globals.push(latency);
                }
            }
            (comm.rank() == 0).then_some((globals, spent))
        });
        let (globals, spent) = res[0].clone().expect("root");
        let valid = globals.len();
        let reported = if valid > 0 {
            globals.iter().sum::<f64>() / valid as f64 * 1e6
        } else {
            f64::NAN
        };
        let per_sample = if valid > 0 {
            spent.seconds() * 1e6 / valid as f64
        } else {
            f64::INFINITY
        };
        println!(
            "{:>13.1}x {:>9}/{:<3} {:>13.2} {:>16.2} {:>16.2}",
            mult,
            valid,
            reps,
            reported,
            spent.seconds() * 1e3,
            per_sample
        );
    }

    // The Round-Time reference point.
    let res = machine.cluster(seed).run(|ctx| {
        let (mut comm, mut g) = hca3_world(ctx, 40, 8);
        let mut op = |ctx: &mut hcs_sim::RankCtx, comm: &mut Comm| {
            let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
        };
        let t0 = ctx.now();
        let cfg = RoundTimeConfig {
            max_time_slice_s: secs(1.0),
            max_nrep: reps,
            ..Default::default()
        };
        let samples = run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op);
        let spent = ctx.now() - t0;
        let globals: Vec<f64> = samples
            .iter()
            .map(|s| global_latency(ctx, &mut comm, s).seconds())
            .collect();
        (comm.rank() == 0).then_some((globals, spent))
    });
    let (globals, spent) = res[0].clone().expect("root");
    println!(
        "{:>14} {:>9}/{:<3} {:>13.2} {:>16.2} {:>16.2}",
        "round-time",
        globals.len(),
        reps,
        globals.iter().sum::<f64>() / globals.len().max(1) as f64 * 1e6,
        spent.seconds() * 1e3,
        spent.seconds() * 1e6 / globals.len().max(1) as f64
    );
    println!("\nExpected: windows below ~1.2x the true latency invalidate most");
    println!("measurements (under-estimation); oversized windows keep validity but");
    println!("burn time per sample (over-estimation). Round-Time needs no estimate");
    println!("and sits at full validity with tight per-sample cost.");
}
