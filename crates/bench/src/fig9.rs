//! Figure 9: latency of `MPI_Allreduce` over message sizes 4 B–1 KiB,
//! measured with OSU Micro-Benchmarks (barrier-based) and with ReproMPI
//! using the Round-Time scheme; Titan, 64 × 16 processes, nmpiruns = 3
//! (error bars: min/max of the per-run average).
//!
//! ```text
//! hcs fig9 [--nodes 32] [--runs 3] [--reps 200] [--slice 1.0] [--seed 1] \
//!     [--jobs N] [--csv out/fig9.csv]
//! ```

use hcs_bench::stats::Summary;
use hcs_bench::suites::{measure_allreduce, Suite, SuiteConfig};
use hcs_bench::sweep::{run_cluster_sweep, run_seed, SweepExecutor};
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::machines;

use crate::{cells, Args, Col, Fmt, Report, Table};

/// The flags of `fig9`.
pub const FLAGS: &str = "nodes runs reps slice seed jobs csv";

/// Fig. 9's OSU and Round-Time latency per message size.
pub fn compute(args: &Args) -> Report {
    let nodes = args.get("nodes", 32);
    let runs: usize = args.get("runs", 3);
    let reps = args.get("reps", 200);
    let slice: f64 = args.get("slice", 1.0);
    let seed: u64 = args.get("seed", 1);

    let machine = machines::titan().with_shape(nodes, 1, 16);
    let msizes = [4usize, 8, 16, 32, 64, 128, 256, 512, 1024];
    let suites = [Suite::Osu, Suite::ReproMpi];
    // One sweep point per (msize, run, suite). The per-repetition seed
    // comes from the (seed + msize, run) stream — shared by both suites
    // of the same repetition, so OSU and ReproMPI are still compared on
    // the same machine realization.
    let mut points = Vec::new();
    for &msize in &msizes {
        for run in 0..runs {
            for suite in suites {
                points.push((msize, run, suite));
            }
        }
    }
    let exec = SweepExecutor::from_env(args.get_jobs(), machine.topology.total_cores());
    let all = run_cluster_sweep(
        &exec,
        &machine,
        &points,
        |&(msize, run, _), _| run_seed(seed.wrapping_add(msize as u64), run as u64),
        |&(msize, _, suite), ctx| {
            let (mut comm, mut g) = crate::hca3_world(ctx, 60, 10);
            let cfg = SuiteConfig {
                nreps: reps,
                barrier: BarrierAlgorithm::Bruck,
                time_slice_s: hcs_sim::secs(slice),
            };
            measure_allreduce(ctx, &mut comm, g.as_mut(), suite, msize, cfg)
        },
    );

    let mut r = Report::default();
    r.line(format!(
        "Fig. 9: MPI_Allreduce latency vs message size; OSU vs ReproMPI (Round-Time);\nTitan, {} x 16 = {} procs, nmpiruns = {}, time slice {slice} s\n",
        nodes,
        machine.topology.total_cores(),
        runs
    ));
    let mut t = Table::new(vec![
        Col::new("msize_b", "msize", 8, Fmt::Right),
        Col::new("osu_us", "OSU avg [us]", 14, Fmt::Num(2)),
        Col::new("osu_range_us", "OSU [min..max]", 22, Fmt::Right),
        Col::new("rt_us", "RT avg [us]", 14, Fmt::Num(2)),
        Col::new("rt_range_us", "RT [min..max]", 22, Fmt::Right),
    ]);
    let mut raw = Table::raw(&["msize_b", "suite", "run", "latency_us"]);
    let mut latencies = all
        .iter()
        .map(|res| res[0].expect("root reports").latency_s);
    for &msize in &msizes {
        let mut per_suite: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
        for run in 0..runs {
            for (si, suite) in suites.into_iter().enumerate() {
                let lat = latencies.next().expect("one result per point");
                per_suite[si].push(lat);
                raw.row(cells![msize, suite.label(), run, lat * 1e6]);
            }
        }
        let mut row = cells![msize];
        for s in per_suite.iter().map(|xs| Summary::of(xs)) {
            let range = format!("{:>10.2}..{:<10.2}", s.min * 1e6, s.max * 1e6);
            row.extend(cells![s.mean * 1e6, range]);
        }
        t.row(row);
    }
    r.table(t);
    r.line("\nExpected shape (paper): OSU reports visibly higher latencies across the");
    r.line("whole small-message range (its barrier contaminates the measurement);");
    r.line("the gap closes as the message size grows and the operation dominates.");
    r.csv(&args.get_str("csv", ""), raw);
    r
}
