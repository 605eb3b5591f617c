//! Figures 4–6: HCA3 vs the hierarchical H2HCA (HCA3 between nodes +
//! ClockPropSync within nodes); max clock offset 0 s and 10 s after
//! synchronization. One experiment on three machines:
//!
//! - Fig. 4: Jupiter, 32 × 16 processes in the paper, nmpiruns = 10;
//!   scaled to 16 × 8 and 5 runs by default (`--nodes 32 --ppn 16
//!   --runs 10` for the paper's scale).
//! - Fig. 5: Hydra (OmniPath; 36 × 32 in the paper), nmpiruns = 10. The
//!   lower-latency network gives sub-microsecond accuracy right after
//!   synchronization (paper: < 0.2 µs on average).
//! - Fig. 6: Titan at scale (Cray Gemini; the paper ran 1024 × 16 =
//!   16 384 processes, nmpiruns = 5, checking a random 10 % sample of the
//!   clients). The default shape is 128 × 16 = 2048 ranks so the sweep
//!   completes in minutes; `--full` selects the paper's 1024 × 16
//!   (expect a long run). Every in-flight run executes on one host
//!   thread and holds ≈ 0.02–0.08 MB per simulated rank (peak RSS at
//!   `--jobs 1 --runs 1`: 39 MB at 2048 ranks, 127 MB at 4096, 1.34 GB
//!   at the full 16 384 on a 2-vCPU x86_64 host), and the default
//!   budget is one run per host core — so on a many-core host pick
//!   `--jobs` for `--full` by memory, not by cores.
//!
//! ```text
//! hcs fig4 [--nodes 16] [--ppn 8] [--runs 5] [--fithi 100] [--fitlo 50] \
//!     [--pingpongs 10] [--wait 10] [--seed 1] [--jobs N] [--csv out/fig4.csv]
//! hcs fig5 [--nodes 18] [--ppn 16] [--runs 5] ...same flags as fig4
//! hcs fig6 [--nodes 128 | --full] [--runs 3] [--fithi 100] [--fitlo 50] \
//!     [--pingpongs 10] [--wait 10] [--sample 0.1] [--seed 1] [--jobs N] \
//!     [--csv out/fig6.csv]
//! ```

use hcs_bench::sweep::SweepExecutor;
use hcs_sim::machines;

use crate::hier_experiment::{fig4_configs, hier_tables, run_hier_experiment, HIER_WIDTHS};
use crate::{Args, Report};

/// The flags of `fig4` and `fig5`.
pub const FLAGS: &str = "nodes ppn runs fithi fitlo pingpongs wait seed jobs csv";

/// `fig6` has no `--ppn` (a Titan node is 16 cores) and adds the client
/// sample and the paper's full scale.
pub const TITAN_FLAGS: &str = "nodes runs fithi fitlo pingpongs wait sample seed jobs full csv";

/// What the paper's Figs. 4, 5 and 6 show.
const EXPECTED: [&str; 3] = [
    "the Top/.../ClockPropagation rows are faster\n\
     (fewer tree levels) at equal or better accuracy.",
    "all configurations sub-us right after sync on\n\
     this faster network; precision degrades with the waiting time as the\n\
     changing clock drift (Fig. 2) kicks in.",
    "errors grow to a few us right after sync and\n\
     10-30 us after 10 s; run-to-run variance is visibly larger than on the\n\
     smaller machines (Gemini's congestion tail + fast-changing drift).",
];

/// Fig. `fig` (4, 5 or 6): the rows, their per-configuration means and
/// the paper's expected shape.
///
/// # Panics
/// Panics if Fig. 6 gets both `--full` and `--nodes`.
pub fn compute(fig: usize, args: &Args) -> Report {
    let titan = fig == 6;
    // Default shape and repetitions; Titan's 16 cores sit on one socket.
    let (machine, nodes, ppn, runs) = match fig {
        4 => (machines::jupiter(), 16, 8, 5),
        5 => (machines::hydra(), 18, 16, 5),
        _ => (machines::titan(), 128, 16, 3),
    };
    let nodes = match (titan && args.has_flag("full"), args.get_opt("nodes")) {
        (true, Some(_)) => {
            panic!("--full runs the paper's 1024 nodes; pass --full or --nodes, not both")
        }
        (true, None) => 1024,
        (false, n) => n.unwrap_or(nodes),
    };
    let (ppn, sockets) = if titan {
        (ppn, 1)
    } else {
        (args.get("ppn", ppn), 2)
    };
    let runs = args.get("runs", runs);
    let fit_hi = args.get("fithi", 100);
    let fit_lo = args.get("fitlo", 50);
    let pp = args.get("pingpongs", 10);
    let wait = hcs_sim::secs(args.get("wait", 10.0));
    let sample = if titan { args.get("sample", 0.1) } else { 1.0 };
    let seed = args.get("seed", 1);

    let machine = machine.with_shape(nodes, sockets, ppn / sockets);
    let procs = machine.topology.total_cores();
    let scale = if titan { " at scale" } else { "" };
    let sampled = if titan {
        format!(", {}% client sample", sample * 100.0)
    } else {
        String::new()
    };
    let exec = SweepExecutor::from_env(args.get_jobs(), procs);
    let configs = fig4_configs(fit_hi, fit_lo, pp);
    let rows = run_hier_experiment(&machine, &configs, runs, wait, sample, seed, &exec);

    let mut r = Report::default();
    r.line(format!(
        "Fig. {fig}: HCA3 vs H2HCA{scale}; {}, {nodes} x {ppn} = {procs} procs, nmpiruns = {runs}{sampled}\n",
        machine.name
    ));
    let (all, means) = hier_tables(&rows, &configs, "configuration", HIER_WIDTHS);
    r.table(all.clone());
    r.line(format!(
        "\nper-configuration means (wait = {:.0} s):",
        wait.seconds()
    ));
    r.table(means.headless());
    r.line(format!("\nExpected shape (paper): {}", EXPECTED[fig - 4]));
    r.csv(&args.get_str("csv", ""), all);
    r
}
