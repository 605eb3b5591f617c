//! Performance-guideline verification (PGMPI — the paper's refs \[4\]-\[6\]
//! and the context that motivated its precise clocks): check the
//! self-consistent guidelines under different measurement schemes and
//! message sizes.
//!
//! ```text
//! hcs guidelines [--nodes 8] [--ppn 4] [--msizes 8,512,8192] [--reps 60] [--seed 1] [--jobs N]
//! ```

use hcs_bench::guidelines::{check_guideline, Guideline};
use hcs_bench::sweep::{run_cluster_sweep, SweepExecutor};
use hcs_bench::tuner::TuneScheme;
use hcs_experiments::Args;
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::machines;

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn msizes reps seed jobs");
    let nodes = args.get("nodes", 8);
    let ppn = args.get("ppn", 4);
    let msizes: Vec<usize> = args.get_list("msizes", "8,512,8192");
    let reps = args.get("reps", 60);
    let seed: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    println!(
        "PGMPI-style guideline check on {}, {} ranks\n",
        machine.name,
        machine.topology.total_cores()
    );

    let schemes = [
        (
            "barrier/bruck",
            TuneScheme::Barrier {
                barrier: BarrierAlgorithm::Bruck,
                reps,
            },
        ),
        (
            "round-time",
            TuneScheme::RoundTime {
                slice_s: hcs_sim::secs(0.1),
                max_reps: reps,
            },
        ),
    ];

    let exec = SweepExecutor::from_env(args.get_jobs(), machine.topology.total_cores());
    for (scheme_name, scheme) in schemes {
        println!("scheme: {scheme_name}");
        println!(
            "{:<46} {:>8} {:>14} {:>14} {:>9} {:>8}",
            "guideline", "msize", "special [us]", "emulated [us]", "speedup", "holds?"
        );
        // One sweep point per (msize, guideline); points at the same
        // msize share a cluster seed, as the sequential loops did.
        let mut points = Vec::new();
        for &msize in &msizes {
            for gl in Guideline::ALL {
                points.push((msize, gl));
            }
        }
        let results = run_cluster_sweep(
            &exec,
            &machine,
            &points,
            |&(msize, _), _| seed + msize as u64,
            |&(msize, gl), ctx| {
                let (mut comm, mut g) = crate::hca3_world(ctx, 40, 8);
                check_guideline(ctx, &mut comm, g.as_mut(), scheme, gl, msize)
            },
        );
        for res in &results {
            if let Some(v) = res[0] {
                println!(
                    "{:<46} {:>8} {:>14.2} {:>14.2} {:>9.2} {:>8}",
                    v.guideline.statement(),
                    v.msize,
                    v.specialized_s * 1e6,
                    v.emulation_s * 1e6,
                    v.speedup(),
                    if v.holds(0.1) { "yes" } else { "VIOLATED" }
                );
            }
        }
        println!();
    }
    println!("A 'VIOLATED' row is a tuning opportunity: the emulation is faster than");
    println!("the specialized collective, so the library's algorithm choice is wrong");
    println!("for that size — but note how the latencies backing the verdict depend");
    println!("on the measurement scheme (the paper's warning).");
}
