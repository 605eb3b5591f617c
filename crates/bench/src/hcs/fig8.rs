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
use hcs_experiments::Args;
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::{machines, secs};

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn calls runs seed jobs csv");
    let nodes = args.get("nodes", 16);
    let ppn = args.get("ppn", 8);
    let calls = args.get("calls", 500);
    let runs = args.get("runs", 5);
    let seed: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    println!(
        "Fig. 8: imbalance after barrier exit; Jupiter, {} x {} = {} procs,\n{} calls x {} mpiruns per algorithm\n",
        nodes,
        ppn,
        machine.topology.total_cores(),
        calls,
        runs
    );

    let algorithms = [
        BarrierAlgorithm::Bruck,
        BarrierAlgorithm::DoubleRing,
        BarrierAlgorithm::RecursiveDoubling,
        BarrierAlgorithm::Tree,
    ];

    let mut csv = args.csv(&["barrier", "run", "imbalance_us"]);

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

    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "algorithm", "n", "mean[us]", "med[us]", "p90[us]", "min[us]", "max[us]"
    );
    let mut histograms: Vec<(&str, Vec<f64>)> = Vec::new();
    for (alg, of_alg) in algorithms.iter().zip(results.chunks(runs)) {
        let mut all = Vec::with_capacity(calls * runs);
        for (run, res) in of_alg.iter().enumerate() {
            let xs = res[0].clone().expect("root reports");
            if let Some(w) = csv.as_mut() {
                for &x in &xs {
                    w.row(&[
                        alg.label().to_string(),
                        run.to_string(),
                        format!("{}", x.seconds() * 1e6),
                    ])
                    .unwrap();
                }
            }
            all.extend(xs.into_iter().map(Span::seconds));
        }
        let s = Summary::of(&all);
        println!(
            "{:<16} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            alg.label(),
            s.n,
            s.mean * 1e6,
            s.median * 1e6,
            Summary::percentile(&all, 90.0) * 1e6,
            s.min * 1e6,
            s.max * 1e6
        );
        histograms.push((alg.label(), all));
    }
    println!("\ndistributions (0-150 us, the paper's Fig. 8 y-range):");
    for (label, xs) in &histograms {
        let mut h = Histogram::new(0.0, 150e-6, 10);
        h.add_all(xs);
        println!("\n{label}:");
        print!("{}", h.render(40, 1e6, "us"));
    }
    println!("\nExpected shape (paper): \"tree\" has by far the smallest average");
    println!("imbalance; \"double ring\" the largest; bruck/recursive-doubling sit in");
    println!("between with tails towards ~100 us.");
    if let Some(w) = csv {
        println!("raw rows written to {}", w.finish().unwrap().display());
    }
}
