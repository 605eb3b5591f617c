//! The tuning dilemma (paper §I and §V-B): tune `MPI_Allreduce` with
//! different measurement schemes and watch the selected algorithm — and
//! the latencies backing the decision — change with the scheme.
//!
//! ```text
//! hcs tuner [--nodes 16] [--ppn 8] [--msizes 8,64,512,4096] [--reps 100] [--seed 1] [--jobs N]
//! ```

use hcs_bench::sweep::{run_cluster_sweep, SweepExecutor};
use hcs_bench::tuner::{tune_allreduce, TuneScheme, TuningResult};
use hcs_experiments::Args;
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::machines;

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn msizes reps seed jobs");
    let nodes = args.get("nodes", 16);
    let ppn = args.get("ppn", 8);
    let msizes: Vec<usize> = args.get_list("msizes", "8,64,512,4096");
    let reps = args.get("reps", 100);
    let seed: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    println!(
        "Tuning MPI_Allreduce on {}, {} x {} = {} ranks — does the measurement scheme\nchange the tuning decision?\n",
        machine.name,
        nodes,
        ppn,
        machine.topology.total_cores()
    );

    let schemes = [
        TuneScheme::Barrier {
            barrier: BarrierAlgorithm::Bruck,
            reps,
        },
        TuneScheme::Barrier {
            barrier: BarrierAlgorithm::DoubleRing,
            reps,
        },
        TuneScheme::Barrier {
            barrier: BarrierAlgorithm::Tree,
            reps,
        },
        TuneScheme::RoundTime {
            slice_s: hcs_sim::secs(0.2),
            max_reps: reps,
        },
    ];

    // header
    print!("{:<10}", "msize");
    for s in &schemes {
        print!(" {:>26}", s.label());
    }
    println!();

    // One sweep point per scheme; all schemes reuse the master seed so
    // they tune on the same machine realization (as before).
    let exec = SweepExecutor::from_env(args.get_jobs(), machine.topology.total_cores());
    let results = run_cluster_sweep(
        &exec,
        &machine,
        &schemes,
        |_, _| seed,
        |&scheme, ctx| {
            let (mut comm, mut g) = crate::hca3_world(ctx, 60, 10);
            tune_allreduce(ctx, &mut comm, g.as_mut(), scheme, &msizes)
        },
    );
    let all: Vec<Vec<TuningResult>> = results
        .iter()
        .map(|per_rank| per_rank[0].clone().expect("root reports"))
        .collect();

    for (i, &msize) in msizes.iter().enumerate() {
        print!("{:<10}", msize);
        for per_scheme in &all {
            let r = &per_scheme[i];
            let w = r.winner();
            print!(" {:>15} {:>9.2}us", w.name, w.latency_s * 1e6);
        }
        println!();
    }

    println!("\nfull candidate tables (latency in us):");
    for (s, per_scheme) in schemes.iter().zip(&all) {
        println!("\nscheme: {}", s.label());
        for r in per_scheme {
            let cells: Vec<String> = r
                .candidates
                .iter()
                .map(|c| format!("{} {:.2}", c.name, c.latency_s * 1e6))
                .collect();
            println!("  {:>6} B: {}", r.msize, cells.join(" | "));
        }
    }
    println!("\nThe paper's point: if the winners (or the margins) differ between the");
    println!("barrier-based columns and the round-time column, a tuner driven by the");
    println!("wrong scheme ships the wrong algorithm selection.");
}
