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

use hcs_bench::sweep::SweepExecutor;
use hcs_clock::Span;
use hcs_core::prelude::*;
use hcs_core::SyncFactory;
use hcs_sim::machines;

use crate::hier_experiment::{factory, hier_tables, sync_and_check, HierRow};
use crate::{Args, Report};

/// The flags of `fig3`.
pub const FLAGS: &str = "nodes ppn runs fitpoints pingpongs wait seed jobs csv";

/// Fig. 3's rows, per-algorithm means and the HCA3-over-JK speedup.
pub fn compute(args: &Args) -> Report {
    let nodes = args.get("nodes", 16);
    let ppn = args.get("ppn", 8);
    let runs = args.get("runs", 10);
    let nfit = args.get("fitpoints", 100);
    let pp = args.get("pingpongs", 10);
    let wait = hcs_sim::secs(args.get("wait", 10.0));
    let seed0: u64 = args.get("seed", 1);

    let machine = machines::jupiter().with_shape(nodes, 2, ppn / 2);
    let p = machine.topology.total_cores();

    // The paper's four algorithms with their best-found configurations.
    let makers: Vec<(String, SyncFactory)> = vec![
        (
            format!("hca/{nfit}/skampi_offset/{pp}"),
            factory(move || Hca::skampi(nfit, pp)),
        ),
        (
            format!("hca2/recompute_intercept/{nfit}/skampi_offset/{pp}"),
            factory(move || Hca2::skampi(nfit, pp)),
        ),
        (
            format!("hca3/recompute_intercept/{nfit}/skampi_offset/{pp}"),
            factory(move || Hca3::skampi(nfit, pp)),
        ),
        // JK: the paper found 20 ping-pongs sufficient (and SKaMPI-Offset
        // inside JK superior to Mean-RTT-Offset). JK needs denser fits:
        // its slope error is multiplied by the full O(p) run time before
        // the clock is ever used, so we give it the paper's relative
        // budget (same fit points as the HCA family at 1/5 the per-point
        // cost, packed into a tighter window).
        (
            format!("jk/{}/skampi_offset/20", nfit * 4),
            factory(move || Jk::skampi(nfit * 4, 20).with_spacing(hcs_sim::secs(0.1e-3))),
        ),
    ];

    // Run `r` of every algorithm shares a cluster seed, so the
    // algorithms are compared on the same machine realizations.
    let exec = SweepExecutor::from_env(args.get_jobs(), p);
    let seed_of = |run: usize| seed0 + 1000 * run as u64;
    let rows = sync_and_check(&machine, &makers, runs, wait, 1.0, &exec, seed_of);

    let mut r = Report::default();
    r.line(format!(
        "Fig. 3: max clock offset vs sync duration; Jupiter, {nodes} x {ppn} = {p} procs, nmpiruns = {runs}\n"
    ));
    let (all, means) = hier_tables(&rows, &makers, "algorithm", [55, 10, 14, 14]);
    r.table(all.clone());
    r.line("\nper-algorithm means (the horizontal bars of Fig. 3):");
    r.table(means);
    r.line(format!(
        "\nspeedup of HCA3 over JK in sync duration: {:.1}x (paper: ~15x at p = 512)",
        mean_dur(&rows, "jk/") / mean_dur(&rows, "hca3/")
    ));
    r.csv(&args.get_str("csv", ""), all);
    r
}

fn mean_dur(rows: &[HierRow], prefix: &str) -> f64 {
    let sel: Vec<&HierRow> = rows
        .iter()
        .filter(|r| r.label.starts_with(prefix))
        .collect();
    (sel.iter().map(|r| r.duration).sum::<Span>() / sel.len() as f64).seconds()
}
