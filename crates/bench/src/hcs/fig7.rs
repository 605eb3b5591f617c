//! Figure 7: average latency of `MPI_Allreduce` for small messages
//! (4/8/16 B) as reported by the three benchmark suites (IMB, OSU,
//! ReproMPI) under three `MPI_Barrier` algorithms (bruck, recursive
//! doubling, tree); Jupiter, 32 × 16 processes. ("double ring" is
//! omitted in the paper's figure because its influence is even larger —
//! pass `--with-double-ring` to include it.)
//!
//! ```text
//! hcs fig7 [--nodes 16] [--ppn 8] [--reps 200] [--seed 1] [--with-double-ring] \
//!     [--jobs N] [--csv out/fig7.csv]
//! ```

use hcs_bench::suites::{measure_allreduce, Suite, SuiteConfig};
use hcs_bench::sweep::{run_cluster_sweep, SweepExecutor};
use hcs_experiments::Args;
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::machines;

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn reps seed with-double-ring jobs csv");
    let nodes = args.get("nodes", 16);
    let ppn = args.get("ppn", 8);
    let reps = args.get("reps", 200);
    let seed: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    let msizes = [4usize, 8, 16];
    let mut barriers = vec![
        BarrierAlgorithm::Bruck,
        BarrierAlgorithm::RecursiveDoubling,
        BarrierAlgorithm::Tree,
    ];
    if args.has_flag("with-double-ring") {
        barriers.push(BarrierAlgorithm::DoubleRing);
    }
    let suites = [Suite::Imb, Suite::Osu, Suite::ReproMpi];

    println!(
        "Fig. 7: MPI_Allreduce latency by benchmark suite and MPI_Barrier algorithm;\nJupiter, {} x {} = {} procs, {} reps\n",
        nodes,
        ppn,
        machine.topology.total_cores(),
        reps
    );

    let mut csv = args.csv(&["msize_b", "barrier", "suite", "latency_us", "nreps"]);

    // One sweep point per (msize, barrier, suite); points at the same
    // msize share a cluster seed so the suites are compared on the same
    // machine realization, exactly as the sequential loops did.
    let mut points = Vec::new();
    for &msize in &msizes {
        for &barrier in &barriers {
            for &suite in &suites {
                points.push((msize, barrier, suite));
            }
        }
    }
    let exec = SweepExecutor::from_env(args.get_jobs(), machine.topology.total_cores());
    let results = run_cluster_sweep(
        &exec,
        &machine,
        &points,
        |&(msize, _, _), _| seed + msize as u64 * 17,
        |&(msize, barrier, suite), ctx| {
            let (mut comm, mut g) = crate::hca3_world(ctx, 60, 10);
            let cfg = SuiteConfig {
                nreps: reps,
                barrier,
                time_slice_s: hcs_sim::secs(0.2),
            };
            measure_allreduce(ctx, &mut comm, g.as_mut(), suite, msize, cfg)
        },
    );

    let mut idx = 0;
    for &msize in &msizes {
        println!("msize = {msize} Bytes");
        println!(
            "{:<16} {:>12} {:>12} {:>14}",
            "barrier", "IMB [us]", "OSU [us]", "ReproMPI [us]"
        );
        for &barrier in &barriers {
            let mut cells = Vec::new();
            for &suite in &suites {
                let r = results[idx][0].expect("root reports");
                idx += 1;
                cells.push(r);
                if let Some(w) = csv.as_mut() {
                    w.row(&[
                        msize.to_string(),
                        barrier.label().to_string(),
                        suite.label().to_string(),
                        format!("{}", r.latency_s * 1e6),
                        r.nreps.to_string(),
                    ])
                    .unwrap();
                }
            }
            println!(
                "{:<16} {:>12.2} {:>12.2} {:>14.2}",
                barrier.label(),
                cells[0].latency_s * 1e6,
                cells[1].latency_s * 1e6,
                cells[2].latency_s * 1e6
            );
        }
        println!();
    }
    println!("Expected shape (paper): IMB/OSU cells move with the barrier algorithm");
    println!("(\"tree\" gives the smallest latencies); the ReproMPI column is stable.");
    if let Some(w) = csv {
        println!("raw rows written to {}", w.finish().unwrap().display());
    }
}
