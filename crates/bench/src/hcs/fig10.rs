//! Figure 10: Gantt charts of the 10th `MPI_Allreduce` iteration of the
//! AMG2013 proxy, traced with a global clock (left column of the paper)
//! or the raw local clock (right column), for two time sources:
//! `clock_gettime` (huge per-core offsets) and `gettimeofday` (µs
//! resolution, ms-scale offsets); Jupiter, 27 × 8 processes.
//!
//! ```text
//! hcs fig10 [--nodes 27] [--ppn 8] [--iter 10] [--seed 1] [--csv out/fig10.csv]
//! ```

use hcs_bench::trace::{gantt_rows, per_rank_events};
use hcs_bench::workloads::{amg_proxy, AmgProxyConfig, AMG_SPAN};
use hcs_clock::{BoxClock, LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_experiments::Args;
use hcs_mpi::Comm;
use hcs_sim::{machines, ObsSpec};

fn run_case(
    machine: &hcs_sim::MachineSpec,
    seed: u64,
    source: TimeSource,
    use_global: bool,
    iter: u32,
) -> Vec<(usize, f64, f64)> {
    let cluster = machine
        .cluster(seed)
        .to_builder()
        .observability(ObsSpec::spans_only())
        .build();
    let (_, log) = cluster.run_observed(|ctx| {
        let mut comm = Comm::world(ctx);
        let base = LocalClock::new(ctx, source);
        let mut trace_clk: BoxClock = if use_global {
            // The paper's tailor-made tracing library runs H2HCA first.
            let mut sync = Hierarchical::h2(
                Box::new(Hca3::skampi(60, 10)),
                Box::new(ClockPropSync::verified()),
            );
            sync.sync_clocks(ctx, &mut comm, Box::new(base))
        } else {
            Box::new(base)
        };
        let cfg = AmgProxyConfig {
            iterations: 12,
            ..Default::default()
        };
        amg_proxy(ctx, &mut comm, trace_clk.as_mut(), cfg);
    });
    let per_rank = per_rank_events(&log, AMG_SPAN);
    gantt_rows(&per_rank, iter)
        .into_iter()
        .map(|(rank, start, dur)| (rank, start.seconds(), dur.seconds()))
        .collect()
}

fn describe(rows: &[(usize, f64, f64)]) -> (f64, f64, f64) {
    let max_start = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let mean_dur = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
    let max_dur = rows.iter().map(|r| r.2).fold(0.0f64, f64::max);
    (max_start, mean_dur, max_dur)
}

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn iter seed csv");
    let nodes = args.get("nodes", 27);
    let ppn = args.get("ppn", 8);
    let iter = args.get::<usize>("iter", 10) as u32;
    let seed = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    println!(
        "Fig. 10: start-time spread and duration of the {iter}th MPI_Allreduce in the\nAMG proxy; Jupiter, {} x {} = {} procs\n",
        nodes,
        ppn,
        machine.topology.total_cores()
    );

    let cases = [
        (
            "clock_gettime",
            TimeSource::RawMonotonic,
            true,
            "global clock",
        ),
        (
            "clock_gettime",
            TimeSource::RawMonotonic,
            false,
            "local clock",
        ),
        ("gettimeofday", TimeSource::WallCoarse, true, "global clock"),
        ("gettimeofday", TimeSource::WallCoarse, false, "local clock"),
    ];

    let mut csv = args.csv(&["source", "clock", "rank", "norm_start_us", "duration_us"]);

    println!(
        "{:<16} {:<14} {:>20} {:>14} {:>14}",
        "time source", "clock", "start spread [us]", "mean dur [us]", "max dur [us]"
    );
    for (source_name, source, use_global, clock_name) in cases {
        let rows = run_case(&machine, seed, source, use_global, iter);
        let (spread, mean_dur, max_dur) = describe(&rows);
        println!(
            "{:<16} {:<14} {:>20.3} {:>14.3} {:>14.3}",
            source_name,
            clock_name,
            spread * 1e6,
            mean_dur * 1e6,
            max_dur * 1e6
        );
        if let Some(w) = csv.as_mut() {
            for (rank, start, dur) in rows {
                w.row(&[
                    source_name.to_string(),
                    clock_name.to_string(),
                    rank.to_string(),
                    format!("{}", start * 1e6),
                    format!("{}", dur * 1e6),
                ])
                .unwrap();
            }
        }
    }
    println!("\nExpected shape (paper): with the local clock_gettime the normalized");
    println!("start times span the huge per-core timer offsets (the trace is useless);");
    println!("gettimeofday shrinks the spread to NTP scale; with the global clock both");
    println!("sources show the true ~tens-of-us event structure (~30 us in the paper).");
    if let Some(w) = csv {
        println!("raw rows written to {}", w.finish().unwrap().display());
    }
}
