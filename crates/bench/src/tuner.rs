//! The tuning dilemma (paper §I and §V-B): tune `MPI_Allreduce` with
//! different measurement schemes and watch the selected algorithm — and
//! the latencies backing the decision — change with the scheme.
//!
//! ```text
//! hcs tuner [--nodes 16] [--ppn 8] [--msizes 8,64,512,4096] [--reps 100] [--seed 1] [--jobs N]
//! ```

use hcs_bench::sweep::{run_cluster_sweep, SweepExecutor};
use hcs_bench::tuner::{tune_allreduce, TuneScheme, TuningResult};
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::machines;

use crate::{cells, Args, Col, Fmt, Report, Table};

/// The flags of `tuner`.
pub const FLAGS: &str = "nodes ppn msizes reps seed jobs";

/// The winning allreduce algorithm per message size and scheme, and
/// every candidate's latency.
pub fn compute(args: &Args) -> Report {
    let nodes = args.get("nodes", 16);
    let ppn = args.get("ppn", 8);
    let msizes: Vec<usize> = args.get_list("msizes", "8,64,512,4096");
    let reps = args.get("reps", 100);
    let seed: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
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

    let mut r = Report::default();
    r.line(format!(
        "Tuning MPI_Allreduce on {}, {} x {} = {} ranks — does the measurement scheme\nchange the tuning decision?\n",
        machine.name,
        nodes,
        ppn,
        machine.topology.total_cores()
    ));
    // One winner cell per scheme, `<algorithm> <latency>us`.
    let mut cols = vec![Col::new("msize_b", "msize", 10, Fmt::Left)];
    let keys = ["bruck", "double_ring", "tree", "round_time"];
    cols.extend(
        keys.iter()
            .zip(&schemes)
            .map(|(k, s)| Col::new(k, s.label(), 26, Fmt::Right)),
    );
    let mut t = Table::new(cols);
    for (i, &msize) in msizes.iter().enumerate() {
        let mut row = cells![msize];
        for per_scheme in &all {
            let w = per_scheme[i].winner();
            row.push(format!("{:>15} {:>9.2}us", w.name, w.latency_s * 1e6).into());
        }
        t.row(row);
    }
    r.table(t);

    r.line("\nfull candidate tables (latency in us):");
    for (s, per_scheme) in schemes.iter().zip(&all) {
        r.line(format!("\nscheme: {}", s.label()));
        for res in per_scheme {
            let cells: Vec<String> = res
                .candidates
                .iter()
                .map(|c| format!("{} {:.2}", c.name, c.latency_s * 1e6))
                .collect();
            r.line(format!("  {:>6} B: {}", res.msize, cells.join(" | ")));
        }
    }
    r.line("\nThe paper's point: if the winners (or the margins) differ between the");
    r.line("barrier-based columns and the round-time column, a tuner driven by the");
    r.line("wrong scheme ships the wrong algorithm selection.");
    r
}
