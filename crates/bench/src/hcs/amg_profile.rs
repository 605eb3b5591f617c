//! Span profile of the AMG2013 proxy — reproduces the paper's §V-C
//! premise: "the application spends about 80% of the time in
//! MPI_Allreduce with a buffer size of 8 B", which is why tuning that
//! one collective (and timestamping it precisely) matters.
//!
//! Each region call is an observability span carrying the rank's local
//! clock readings; the IPM-style table (inclusive time per region over
//! all ranks, against each rank's first enter → last exit) is built
//! from the merged trace after the run. A run that dropped events to
//! the recorder capacity exits non-zero.
//!
//! ```text
//! hcs amg_profile [--nodes 27] [--ppn 8] [--iters 40] [--compute-us 20] [--seed 1]
//! ```

use hcs_bench::trace::{per_rank_events, TraceEvent};
use hcs_clock::{Clock, GlobalTime, LocalClock, Span, TimeSource};
use hcs_experiments::Args;
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::obs::ClockReadings;
use hcs_sim::rngx::{self, label};
use hcs_sim::{machines, ObsSpec, RankCtx};

/// The profiled regions, in the order every iteration enters them.
const REGIONS: [&str; 2] = ["compute", "MPI_Allreduce(8B)"];

/// Opens the `name` span of iteration `iter` at `clk`'s reading.
fn enter(ctx: &mut RankCtx, clk: &mut dyn Clock, name: &str, iter: u32) {
    let now = clk.get_time(ctx);
    ctx.obs_enter_read(name, iter, ClockReadings::global(now.raw_seconds()));
}

/// Closes the innermost span at `clk`'s reading.
fn leave(ctx: &mut RankCtx, clk: &mut dyn Clock) {
    let now = clk.get_time(ctx);
    ctx.obs_exit_read(ClockReadings::global(now.raw_seconds()));
}

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

    let cluster = machine
        .cluster(seed)
        .to_builder()
        .observability(ObsSpec::spans_only())
        .build();
    let (_, log) = cluster.run_observed(|ctx| {
        let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut rng = rngx::stream_rng(ctx.master_seed(), label::rank_workload(ctx.rank()));
        let payload = [0u8; 8];
        for iter in 0..iters {
            enter(ctx, &mut clk, REGIONS[0], iter);
            let noise = 1.0 + 0.3 * (rng.next_f64() * 2.0 - 1.0);
            ctx.compute(hcs_sim::secs(compute_us * 1e-6 * noise));
            leave(ctx, &mut clk);

            enter(ctx, &mut clk, REGIONS[1], iter);
            let _ = comm.allreduce(ctx, &payload, ReduceOp::ByteMax);
            leave(ctx, &mut clk);
        }
    });
    if log.total_dropped() > 0 {
        eprintln!(
            "error: {} events dropped at the recorder capacity; the profile is incomplete",
            log.total_dropped()
        );
        std::process::exit(1);
    }

    let per_region: Vec<_> = REGIONS.iter().map(|r| per_rank_events(&log, r)).collect();
    // Per rank: first enter → last exit over every region, summed over
    // ranks (the denominator of the percentages).
    let run_s: Span = (0..log.ranks().len())
        .filter_map(|rank| {
            let evs = || per_region.iter().flat_map(|p| &p[rank]);
            let begin = evs()
                .map(|e| e.enter)
                .reduce(|a, b| if b < a { b } else { a })?;
            let end = evs().map(|e| e.exit).reduce(GlobalTime::max)?;
            Some(end - begin)
        })
        .sum();
    let fraction = |total: Span| {
        if run_s > Span::ZERO {
            total / run_s
        } else {
            0.0
        }
    };
    let total = |per_rank: &[Vec<TraceEvent>]| {
        per_rank
            .iter()
            .map(|evs| evs.iter().map(TraceEvent::duration).sum::<Span>())
            .sum::<Span>()
    };
    let mut rows: Vec<(&str, usize, Span)> = REGIONS
        .iter()
        .zip(&per_region)
        .map(|(&name, per_rank)| (name, per_rank.iter().map(Vec::len).sum(), total(per_rank)))
        .filter(|&(_, calls, _)| calls > 0)
        .collect();
    rows.sort_by(|a, b| b.2.seconds().total_cmp(&a.2.seconds()));

    println!(
        "{:<22} {:>10} {:>14} {:>10}",
        "region", "calls", "total [ms]", "% of run"
    );
    for &(name, calls, total) in &rows {
        println!(
            "{name:<22} {calls:>10} {:>14.3} {:>9.1}%",
            total * 1e3,
            fraction(total) * 100.0
        );
    }
    println!(
        "\n=> {:.0}% of the run is inside the 8-byte MPI_Allreduce (paper's AMG2013\nIPM profile: ~80%). Tuning this collective requires exactly the accurate\nsmall-message latencies the paper's clock work enables.",
        fraction(total(&per_region[1])) * 100.0
    );
}
