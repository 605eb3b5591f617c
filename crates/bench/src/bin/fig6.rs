//! Figure 6: HCA3 vs H2HCA at scale on Titan (Cray Gemini; the paper
//! ran 1024 × 16 = 16 384 processes, nmpiruns = 5, checking a random
//! 10 % sample of the clients).
//!
//! The default shape is 128 × 16 = 2048 ranks so the sweep completes in
//! minutes; `--full` selects the paper's 1024 × 16 (expect a long
//! run). Every in-flight run executes on one host thread and holds
//! ≈ 0.12–0.3 MB per simulated rank (peak RSS at `--jobs 1`: 256 MB at
//! 2048 ranks, 848 MB at 4096; flat HCA3 is the largest configuration),
//! and the default budget is one run per host core — so on a many-core
//! host pick `--jobs` for `--full` by memory, not by cores.
//!
//! ```text
//! cargo run --release -p hcs-experiments --bin fig6 \
//!     [--nodes 128] [--runs 3] [--fithi 100] [--fitlo 50] \
//!     [--pingpongs 10] [--wait 10] [--sample 0.1] [--seed 1] [--jobs N] [--full] \
//!     [--csv out/fig6.csv]
//! ```

use hcs_bench::sweep::SweepExecutor;
use hcs_experiments::hier_experiment::{
    fig4_configs, print_hier_rows, run_hier_experiment, write_hier_csv,
};
use hcs_experiments::Args;
use hcs_sim::machines;

fn main() {
    let args = Args::parse(&[
        "nodes",
        "runs",
        "fithi",
        "fitlo",
        "pingpongs",
        "wait",
        "sample",
        "seed",
        "jobs",
        "full",
        "csv",
    ]);
    let full = args.has_flag("full");
    let nodes = if full {
        1024
    } else {
        args.get_usize("nodes", 128)
    };
    let runs = args.get_usize("runs", 3);
    let fit_hi = args.get_usize("fithi", 100);
    let fit_lo = args.get_usize("fitlo", 50);
    let pp = args.get_usize("pingpongs", 10);
    let wait = hcs_sim::secs(args.get_f64("wait", 10.0));
    let sample = args.get_f64("sample", 0.1);
    let seed = args.get_u64("seed", 1);

    let machine = machines::titan().with_shape(nodes, 1, 16);
    println!(
        "Fig. 6: HCA3 vs H2HCA at scale; Titan, {} x 16 = {} procs, nmpiruns = {}, {}% client sample\n",
        nodes,
        machine.topology.total_cores(),
        runs,
        sample * 100.0
    );
    let exec = SweepExecutor::from_env(args.get_jobs(), machine.topology.total_cores());
    let configs = fig4_configs(fit_hi, fit_lo, pp);
    let rows = run_hier_experiment(&machine, &configs, runs, wait, sample, seed, &exec);
    print_hier_rows(&rows, &configs, wait);
    println!("\nExpected shape (paper): errors grow to a few us right after sync and");
    println!("10-30 us after 10 s; run-to-run variance is visibly larger than on the");
    println!("smaller machines (Gemini's congestion tail + fast-changing drift).");
    write_hier_csv(&rows, &args.get_str("csv", ""));
}
