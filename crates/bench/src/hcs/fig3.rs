//! Figure 3: synchronization duration vs. maximum clock offset to the
//! reference rank, measured right after synchronization (a) and 10 s
//! later (b); HCA, HCA2, HCA3 and JK on Jupiter with 32 × 16 processes.
//!
//! Also reproduces the §III-C3 headline numbers: JK needs ~O(p/log p)
//! more time than HCA3 for comparable accuracy.
//!
//! Default scale is 16 × 8 = 128 ranks so the full sweep runs in
//! seconds; pass `--nodes 32 --ppn 16` for the paper's 512 ranks.
//!
//! ```text
//! hcs fig3 [--nodes 16] [--ppn 8] [--runs 10] [--fitpoints 100] \
//!     [--pingpongs 10] [--wait 10] [--seed 1] [--jobs N] \
//!     [--csv out/fig3.csv]
//! ```

use hcs_bench::sweep::{run_cluster_sweep, SweepExecutor};
use hcs_clock::{LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_core::SyncFactory;
use hcs_experiments::hier_experiment::HierRow;
use hcs_experiments::Args;
use hcs_mpi::Comm;
use hcs_sim::machines;

pub fn run(argv: Vec<String>) {
    let args = Args::parse(
        argv,
        "nodes ppn runs fitpoints pingpongs wait seed jobs csv",
    );
    let nodes = args.get("nodes", 16);
    let ppn = args.get("ppn", 8);
    let runs = args.get("runs", 10);
    let nfit = args.get("fitpoints", 100);
    let pp = args.get("pingpongs", 10);
    let wait = hcs_sim::secs(args.get("wait", 10.0));
    let seed0: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    let p = machine.topology.total_cores();
    println!(
        "Fig. 3: max clock offset vs sync duration; Jupiter, {nodes} x {ppn} = {p} procs, nmpiruns = {runs}\n"
    );

    // The paper's four algorithms with their best-found configurations.
    let makers: Vec<(String, SyncFactory)> = vec![
        (format!("hca/{nfit}/skampi_offset/{pp}"), {
            Box::new(move || Box::new(Hca::skampi(nfit, pp)) as Box<dyn ClockSync>) as SyncFactory
        }),
        (
            format!("hca2/recompute_intercept/{nfit}/skampi_offset/{pp}"),
            { Box::new(move || Box::new(Hca2::skampi(nfit, pp)) as Box<dyn ClockSync>) },
        ),
        (
            format!("hca3/recompute_intercept/{nfit}/skampi_offset/{pp}"),
            { Box::new(move || Box::new(Hca3::skampi(nfit, pp)) as Box<dyn ClockSync>) },
        ),
        // JK: the paper found 20 ping-pongs sufficient (and SKaMPI-Offset
        // inside JK superior to Mean-RTT-Offset). JK needs denser fits:
        // its slope error is multiplied by the full O(p) run time before
        // the clock is ever used, so we give it the paper's relative
        // budget (same fit points as the HCA family at 1/5 the per-point
        // cost, packed into a tighter window).
        (format!("jk/{}/skampi_offset/20", nfit * 4), {
            Box::new(move || {
                Box::new(Jk::skampi(nfit * 4, 20).with_spacing(hcs_sim::secs(0.1e-3)))
                    as Box<dyn ClockSync>
            })
        }),
    ];

    // One sweep point per (algorithm, mpirun); run `r` of every
    // algorithm shares a cluster seed, so the algorithms are compared
    // on the same machine realizations.
    let points: Vec<(usize, usize)> = (0..makers.len())
        .flat_map(|alg| (0..runs).map(move |run| (alg, run)))
        .collect();
    let exec = SweepExecutor::from_env(args.get_jobs(), p);
    let results = run_cluster_sweep(
        &exec,
        &machine,
        &points,
        |&(_, run), _| seed0 + 1000 * run as u64,
        |&(alg, _), ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = makers[alg].1();
            let outcome = run_sync(alg.as_mut(), ctx, &mut comm, Box::new(clk));
            let mut g = outcome.clock;
            let mut probe = SkampiOffset::new(10);
            let report = check_clock_accuracy(ctx, &mut comm, g.as_mut(), &mut probe, wait, 1.0);
            (outcome.duration, report)
        },
    );
    let rows: Vec<HierRow> = points
        .iter()
        .zip(&results)
        .map(|(&(alg, _), out)| {
            let report = out[0].1.as_ref().expect("root reports");
            HierRow {
                label: makers[alg].0.clone(),
                duration: out
                    .iter()
                    .map(|o| o.0)
                    .fold(hcs_clock::Span::ZERO, hcs_clock::Span::max),
                max_at0: report.max_abs_at_sync(),
                max_at_wait: report.max_abs_after_wait(),
            }
        })
        .collect();

    println!(
        "{:<55} {:>10} {:>14} {:>14}",
        "algorithm (one row per mpirun)", "dur [s]", "max@0s [us]", "max@10s [us]"
    );
    for r in &rows {
        println!(
            "{:<55} {:>10.3} {:>14.3} {:>14.3}",
            r.label,
            r.duration,
            r.max_at0.seconds() * 1e6,
            r.max_at_wait.seconds() * 1e6
        );
    }

    println!("\nper-algorithm means (the horizontal bars of Fig. 3):");
    println!(
        "{:<55} {:>10} {:>14} {:>14}",
        "algorithm", "dur [s]", "max@0s [us]", "max@10s [us]"
    );
    for (label, _) in &makers {
        let sel: Vec<&HierRow> = rows.iter().filter(|r| &r.label == label).collect();
        let n = sel.len() as f64;
        let d = (sel.iter().map(|r| r.duration).sum::<hcs_clock::Span>() / n).seconds();
        let a0 = (sel.iter().map(|r| r.max_at0).sum::<hcs_clock::Span>() / n).seconds();
        let a1 = (sel.iter().map(|r| r.max_at_wait).sum::<hcs_clock::Span>() / n).seconds();
        println!(
            "{:<55} {:>10.3} {:>14.3} {:>14.3}",
            label,
            d,
            a0 * 1e6,
            a1 * 1e6
        );
    }
    let jk_d = mean_dur(&rows, "jk/");
    let hca3_d = mean_dur(&rows, "hca3/");
    println!(
        "\nspeedup of HCA3 over JK in sync duration: {:.1}x (paper: ~15x at p = 512)",
        jk_d / hca3_d
    );

    if let Some(mut w) = args.csv(&["algorithm", "duration_s", "max_at0_us", "max_at10_us"]) {
        for r in &rows {
            w.row(&[
                r.label.clone(),
                format!("{}", r.duration),
                format!("{}", r.max_at0.seconds() * 1e6),
                format!("{}", r.max_at_wait.seconds() * 1e6),
            ])
            .unwrap();
        }
        println!("raw rows written to {}", w.finish().unwrap().display());
    }
}

fn mean_dur(rows: &[HierRow], prefix: &str) -> f64 {
    let sel: Vec<&HierRow> = rows
        .iter()
        .filter(|r| r.label.starts_with(prefix))
        .collect();
    (sel.iter().map(|r| r.duration).sum::<hcs_clock::Span>() / sel.len() as f64).seconds()
}
