//! Figure 8: exit imbalance introduced by the `MPI_Barrier` algorithms
//! (bruck, double ring, recursive doubling, tree); Jupiter, 32 × 16
//! processes, 500 barrier calls over 5 mpiruns (2500 points each).
//!
//! Imbalance = skew between the first and the last process leaving the
//! barrier, with every barrier entered at a Round-Time-style common
//! start on the HCA3 global clock.
//!
//! ```text
//! hcs fig8 [--nodes 16] [--ppn 8] [--calls 500] [--runs 5] [--seed 1] \
//!     [--jobs N] [--csv out/fig8.csv]
//! ```

use hcs_bench::imbalance::measure_barrier_imbalance;
use hcs_bench::stats::{Histogram, Summary};
use hcs_bench::sweep::{run_cluster_sweep, SweepExecutor};
use hcs_clock::Span;
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::{machines, secs};

use crate::{cells, Args, Col, Fmt, Report, Table};

/// The flags of `fig8`.
pub const FLAGS: &str = "nodes ppn calls runs seed jobs csv";

/// Fig. 8's imbalance summary and distribution per barrier algorithm.
pub fn compute(args: &Args) -> Report {
    let nodes = args.get("nodes", 16);
    let ppn = args.get("ppn", 8);
    let calls = args.get("calls", 500);
    let runs = args.get("runs", 5);
    let seed: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    let algorithms = [
        BarrierAlgorithm::Bruck,
        BarrierAlgorithm::DoubleRing,
        BarrierAlgorithm::RecursiveDoubling,
        BarrierAlgorithm::Tree,
    ];

    // One sweep point per (algorithm, mpirun); run `r` of every
    // algorithm shares a cluster seed.
    let points: Vec<(BarrierAlgorithm, usize)> = algorithms
        .iter()
        .flat_map(|&alg| (0..runs).map(move |run| (alg, run)))
        .collect();
    let exec = SweepExecutor::from_env(args.get_jobs(), machine.topology.total_cores());
    let results = run_cluster_sweep(
        &exec,
        &machine,
        &points,
        |&(_, run), _| seed + run as u64 * 31,
        |&(alg, _), ctx| {
            let (mut comm, mut g) = crate::hca3_world(ctx, 60, 10);
            measure_barrier_imbalance(ctx, &mut comm, g.as_mut(), alg, calls, secs(300e-6))
        },
    );

    let mut r = Report::default();
    r.line(format!(
        "Fig. 8: imbalance after barrier exit; Jupiter, {} x {} = {} procs,\n{} calls x {} mpiruns per algorithm\n",
        nodes,
        ppn,
        machine.topology.total_cores(),
        calls,
        runs
    ));
    let mut summary = Table::new(vec![
        Col::new("barrier", "algorithm", 16, Fmt::Left),
        Col::new("n", "n", 8, Fmt::Right),
        Col::new("mean_us", "mean[us]", 10, Fmt::Num(2)),
        Col::new("median_us", "med[us]", 10, Fmt::Num(2)),
        Col::new("p90_us", "p90[us]", 10, Fmt::Num(2)),
        Col::new("min_us", "min[us]", 10, Fmt::Num(2)),
        Col::new("max_us", "max[us]", 10, Fmt::Num(2)),
    ]);
    let mut raw = Table::raw(&["barrier", "run", "imbalance_us"]);
    let mut histograms: Vec<(&str, Vec<f64>)> = Vec::new();
    for (alg, of_alg) in algorithms.iter().zip(results.chunks(runs)) {
        let mut all = Vec::with_capacity(calls * runs);
        for (run, res) in of_alg.iter().enumerate() {
            let xs = res[0].clone().expect("root reports");
            for &x in &xs {
                raw.row(cells![alg.label(), run, x.seconds() * 1e6]);
            }
            all.extend(xs.into_iter().map(Span::seconds));
        }
        let s = Summary::of(&all);
        summary.row(cells![
            alg.label(),
            s.n,
            s.mean * 1e6,
            s.median * 1e6,
            Summary::percentile(&all, 90.0) * 1e6,
            s.min * 1e6,
            s.max * 1e6,
        ]);
        histograms.push((alg.label(), all));
    }
    r.table(summary);
    r.line("\ndistributions (0-150 us, the paper's Fig. 8 y-range):");
    for (label, xs) in &histograms {
        let mut h = Histogram::new(0.0, 150e-6, 10);
        h.add_all(xs);
        r.line(format!("\n{label}:"));
        r.line(h.render(40, 1e6, "us").trim_end_matches('\n'));
    }
    r.line("\nExpected shape (paper): \"tree\" has by far the smallest average");
    r.line("imbalance; \"double ring\" the largest; bruck/recursive-doubling sit in");
    r.line("between with tails towards ~100 us.");
    r.csv(&args.get_str("csv", ""), raw);
    r
}
