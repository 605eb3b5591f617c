//! Autotuning `MPI_Allreduce` with a global clock — the paper's
//! motivating workflow, end to end:
//!
//! 1. synchronize clocks with H2HCA,
//! 2. benchmark every algorithm candidate for `MPI_Allreduce` under
//!    the Round-Time scheme,
//! 3. print the per-message-size selection table.
//!
//! ```text
//! cargo run --release --example autotune
//! ```

use hierarchical_clock_sync::bench::tuner::{tune_allreduce, TuneScheme};
use hierarchical_clock_sync::prelude::*;

fn main() {
    let machine = machines::jupiter().with_shape(8, 2, 2);
    let cluster = machine.cluster(123);
    println!(
        "Autotuning on {} ({} ranks), Round-Time scheme, HCA3+ClockPropSync global clock\n",
        machine.name,
        machine.topology.total_cores()
    );

    let msizes = [8usize, 128, 2048, 16384];
    let res = cluster.run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hierarchical::h2(
            Box::new(Hca3::skampi(60, 10)),
            Box::new(ClockPropSync::verified()),
        );
        let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
        let scheme = TuneScheme::RoundTime {
            slice_s: secs(0.2),
            max_reps: 100,
        };
        tune_allreduce(ctx, &mut comm, g.as_mut(), scheme, &msizes)
    });

    println!("MPI_Allreduce:");
    println!(
        "{:>8} {:>16} {:>12}   all candidates",
        "msize", "winner", "lat [us]"
    );
    for r in res[0].as_ref().unwrap() {
        let w = r.winner();
        let all: Vec<String> = r
            .candidates
            .iter()
            .map(|c| format!("{}={:.1}", c.name, c.latency_s * 1e6))
            .collect();
        println!(
            "{:>8} {:>16} {:>12.2}   {}",
            r.msize,
            w.name,
            w.latency_s * 1e6,
            all.join("  ")
        );
    }
    println!("\nExpected: recursive doubling's log rounds win every size here; the ring's");
    println!("2(p - 1) latency-bound rounds only narrow the gap as payloads grow.");
}
