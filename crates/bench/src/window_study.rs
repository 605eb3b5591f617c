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

use hcs_bench::schemes::{
    estimate_allreduce_latency, global_latency, run_round_time, run_window_scheme, RoundTimeConfig,
    WindowConfig,
};
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::{machines, secs};

use crate::{cells, hca3_world, Args, Col, Fmt, Report, Table};

/// The flags of `window_study`.
pub const FLAGS: &str = "nodes ppn reps seed";

/// Validity, reported latency and cost of the window scheme per window
/// size, and of Round-Time.
pub fn compute(args: &Args) -> Report {
    let nodes = args.get("nodes", 8);
    let ppn = args.get("ppn", 4);
    let reps = args.get("reps", 100);
    let seed = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    let mut r = Report::default();
    r.line(format!(
        "Window-size sensitivity; {}, {} ranks, MPI_Allreduce(8B), {} windows per point\n",
        machine.name,
        machine.topology.total_cores(),
        reps
    ));

    // The `valid/reps` cells are one wider than their heading, and the
    // next heading one wider than its cells, so the columns after them
    // line up.
    let mut t = Table::new(vec![
        Col::new("window", "window/lat", 14, Fmt::Right),
        Col::new("valid", "valid", 12, Fmt::Right),
        Col::new("reported_us", "  reported[us]", 13, Fmt::Num(2)),
        Col::new("spent_ms", "time spent [ms]", 16, Fmt::Num(2)),
        Col::new("us_per_sample", "us per sample", 16, Fmt::Num(2)),
    ]);
    // Rank 0's valid global latencies and the time the scheme took:
    // windows of `mult` x the estimated latency, or Round-Time (`None`).
    let measure = |mult: Option<f64>| {
        let res = machine.cluster(seed).run(|ctx| {
            let (mut comm, mut g) = hca3_world(ctx, 40, 8);
            let window =
                mult.map(|m| estimate_allreduce_latency(ctx, &mut comm, g.as_mut(), 8, 10) * m);
            let mut op = |ctx: &mut hcs_sim::RankCtx, comm: &mut Comm| {
                let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
            };
            let t0 = ctx.now();
            let samples: Vec<_> = match window {
                Some(window_s) => {
                    let cfg = WindowConfig {
                        window_s,
                        nreps: reps,
                        first_window_slack_s: secs(1e-3),
                    };
                    let outcome = run_window_scheme(ctx, &mut comm, g.as_mut(), cfg, &mut op);
                    outcome.samples.into_iter().zip(outcome.valid).collect()
                }
                None => {
                    let cfg = RoundTimeConfig {
                        max_time_slice_s: secs(1.0),
                        max_nrep: reps,
                        ..Default::default()
                    };
                    let samples = run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op);
                    samples.into_iter().map(|s| (s, true)).collect()
                }
            };
            let spent = ctx.now() - t0;
            let mut globals = Vec::new();
            for (s, valid) in &samples {
                let latency = global_latency(ctx, &mut comm, s).seconds();
                if *valid {
                    globals.push(latency);
                }
            }
            (comm.rank() == 0).then_some((globals, spent))
        });
        res[0].clone().expect("root")
    };
    for mult in [0.5f64, 0.8, 1.0, 1.2, 1.5, 2.0, 4.0, 8.0, 16.0] {
        let (globals, spent) = measure(Some(mult));
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
        t.row(cells![
            format!("{mult:.1}x"),
            format!("{valid:>9}/{reps:<3}"),
            reported,
            spent.seconds() * 1e3,
            per_sample,
        ]);
    }
    let (globals, spent) = measure(None);
    let n = globals.len().max(1) as f64;
    t.row(cells![
        "round-time",
        format!("{:>9}/{reps:<3}", globals.len()),
        globals.iter().sum::<f64>() / n * 1e6,
        spent.seconds() * 1e3,
        spent.seconds() * 1e6 / n,
    ]);
    r.table(t);
    r.line("\nExpected: windows below ~1.2x the true latency invalidate most");
    r.line("measurements (under-estimation); oversized windows keep validity but");
    r.line("burn time per sample (over-estimation). Round-Time needs no estimate");
    r.line("and sits at full validity with tight per-sample cost.");
    r
}
