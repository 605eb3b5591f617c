//! IPM-style profile of the AMG2013 proxy — reproduces the paper's
//! §V-C premise: "the application spends about 80% of the time in
//! MPI_Allreduce with a buffer size of 8 B", which is why tuning that
//! one collective (and timestamping it precisely) matters.
//!
//! ```text
//! hcs amg_profile [--nodes 27] [--ppn 8] [--iters 40] [--compute-us 20] [--seed 1]
//! ```

use hcs_bench::profile::Profiler;
use hcs_clock::{LocalClock, TimeSource};
use hcs_experiments::Args;
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::machines;
use hcs_sim::rngx::{self, label};

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn iters compute-us seed");
    let nodes = args.get("nodes", 27);
    let ppn = args.get("ppn", 8);
    let iters = args.get::<usize>("iters", 40) as u32;
    let compute_us: f64 = args.get("compute-us", 20.0);
    let seed = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    println!(
        "AMG2013-proxy IPM-style profile; {} x {} = {} ranks, {} iterations,\n~{:.0} us local compute per iteration (AMG's coarse-grid phases are\ncommunication-bound, hence the small compute share)\n",
        nodes,
        ppn,
        machine.topology.total_cores(),
        iters,
        compute_us
    );

    let reports = machine.cluster(seed).run(|ctx| {
        let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut prof = Profiler::new();
        let mut rng = rngx::stream_rng(ctx.master_seed(), label::rank_workload(ctx.rank()));
        let payload = [0u8; 8];
        for _ in 0..iters {
            prof.enter("compute", &mut clk, ctx);
            let noise = 1.0 + 0.3 * (rng.next_f64() * 2.0 - 1.0);
            ctx.compute(hcs_sim::secs(compute_us * 1e-6 * noise));
            prof.leave("compute", &mut clk, ctx);

            prof.enter("MPI_Allreduce(8B)", &mut clk, ctx);
            let _ = comm.allreduce(ctx, &payload, ReduceOp::ByteMax);
            prof.leave("MPI_Allreduce(8B)", &mut clk, ctx);
        }
        prof.gather(ctx, &mut comm)
    });

    let report = reports[0].as_ref().expect("root gathers");
    println!(
        "{:<22} {:>10} {:>14} {:>10}",
        "region", "calls", "total [ms]", "% of run"
    );
    for (name, calls, total, frac) in report.rows() {
        println!(
            "{name:<22} {calls:>10} {:>14.3} {:>9.1}%",
            total * 1e3,
            frac * 100.0
        );
    }
    let frac = report.fraction("MPI_Allreduce(8B)");
    println!(
        "\n=> {:.0}% of the run is inside the 8-byte MPI_Allreduce (paper's AMG2013\nIPM profile: ~80%). Tuning this collective requires exactly the accurate\nsmall-message latencies the paper's clock work enables.",
        frac * 100.0
    );
}
