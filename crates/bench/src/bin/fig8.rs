//! Figure 8: exit imbalance introduced by the `MPI_Barrier` algorithms
//! (bruck, double ring, recursive doubling, tree); Jupiter, 32 × 16
//! processes, 500 barrier calls over 5 mpiruns (2500 points each).
//!
//! Imbalance = skew between the first and the last process leaving the
//! barrier, with every barrier entered at a Round-Time-style common
//! start on the HCA3 global clock.
//!
//! ```text
//! cargo run --release -p hcs-experiments --bin fig8 \
//!     [--nodes 16] [--ppn 8] [--calls 500] [--runs 5] [--seed 1] \
//!     [--jobs N] [--csv out/fig8.csv]
//! ```

use hcs_bench::prelude::*;
use hcs_clock::{LocalClock, Span, TimeSource};
use hcs_core::prelude::*;
use hcs_experiments::{Args, CsvWriter};
use hcs_mpi::{BarrierAlgorithm, Comm};
use hcs_sim::{machines, secs};

fn main() {
    let args = Args::parse(&["nodes", "ppn", "calls", "runs", "seed", "jobs", "csv"]);
    let nodes = args.get_usize("nodes", 16);
    let ppn = args.get_usize("ppn", 8);
    let calls = args.get_usize("calls", 500);
    let runs = args.get_usize("runs", 5);
    let seed = args.get_u64("seed", 1);

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

    let csv_path = args.get_str("csv", "");
    let mut csv = if csv_path.is_empty() {
        None
    } else {
        Some(
            CsvWriter::create(
                &std::path::PathBuf::from(&csv_path),
                &["barrier", "run", "imbalance_us"],
            )
            .unwrap(),
        )
    };

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
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut sync = Hca3::skampi(60, 10);
            let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
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
        let mut h = hcs_bench::Histogram::new(0.0, 150e-6, 10);
        h.add_all(xs);
        println!("\n{label}:");
        print!("{}", h.render(40, 1e6, "us"));
    }
    println!("\nExpected shape (paper): \"tree\" has by far the smallest average");
    println!("imbalance; \"double ring\" the largest; bruck/recursive-doubling sit in");
    println!("between with tails towards ~100 us.");
    if let Some(w) = csv {
        w.finish().unwrap();
        println!("raw rows written to {csv_path}");
    }
}
