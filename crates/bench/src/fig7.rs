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
use hcs_mpi::BarrierAlgorithm;
use hcs_sim::machines;

use crate::{cells, Args, Col, Fmt, Report, Table};

/// The flags of `fig7`.
pub const FLAGS: &str = "nodes ppn reps seed with-double-ring jobs csv";

/// Fig. 7's latency per (message size, barrier, suite).
pub fn compute(args: &Args) -> Report {
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

    let mut r = Report::default();
    r.line(format!(
        "Fig. 7: MPI_Allreduce latency by benchmark suite and MPI_Barrier algorithm;\nJupiter, {} x {} = {} procs, {} reps\n",
        nodes,
        ppn,
        machine.topology.total_cores(),
        reps
    ));
    let mut raw = Table::raw(&["msize_b", "barrier", "suite", "latency_us", "nreps"]);
    let mut measured = results.iter().map(|res| res[0].expect("root reports"));
    for &msize in &msizes {
        r.line(format!("msize = {msize} Bytes"));
        let mut t = Table::new(vec![
            Col::new("barrier", "barrier", 16, Fmt::Left),
            Col::new("imb_us", "IMB [us]", 12, Fmt::Num(2)),
            Col::new("osu_us", "OSU [us]", 12, Fmt::Num(2)),
            Col::new("repro_us", "ReproMPI [us]", 14, Fmt::Num(2)),
        ]);
        for &barrier in &barriers {
            let mut row = cells![barrier.label()];
            for (suite, m) in suites.iter().zip(measured.by_ref()) {
                raw.row(cells![
                    msize,
                    barrier.label(),
                    suite.label(),
                    m.latency_s * 1e6,
                    m.nreps
                ]);
                row.push((m.latency_s * 1e6).into());
            }
            t.row(row);
        }
        r.table(t);
        r.line("");
    }
    r.line("Expected shape (paper): IMB/OSU cells move with the barrier algorithm");
    r.line("(\"tree\" gives the smallest latencies); the ReproMPI column is stable.");
    r.csv(&args.get_str("csv", ""), raw);
    r
}
