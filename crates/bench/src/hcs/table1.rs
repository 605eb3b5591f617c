//! Table I: the parallel machines used in the experiments, as modeled.
//!
//! ```text
//! hcs table1
//! ```

use hcs_experiments::Args;
use hcs_sim::machines;
use hcs_sim::topology::Level;

pub fn run(argv: Vec<String>) {
    Args::parse(argv, "");
    println!("TABLE I: Parallel machines used in our experiments (as modeled)\n");
    println!(
        "{:<8} {:<55} {:<18} {:<10}",
        "Name", "Hardware", "MPI Libraries", "Compiler"
    );
    for m in machines::all() {
        println!(
            "{:<8} {:<55} {:<18} {:<10}",
            m.name, m.hardware, m.mpi_library, m.compiler
        );
    }
    println!("\nModel parameters derived for each machine:");
    println!(
        "{:<8} {:>7} {:>17} {:>17} {:>14} {:>12}",
        "Name", "cores", "inter-node [us]", "intra-node [us]", "jitter [ns]", "skew sd[ppm]"
    );
    for m in machines::all() {
        println!(
            "{:<8} {:>7} {:>17.2} {:>17.2} {:>14.0} {:>12.2}",
            m.name,
            m.topology.total_cores(),
            m.network.level(Level::InterNode).base_s * 1e6,
            m.network.level(Level::SameNode).base_s * 1e6,
            m.network.level(Level::InterNode).jitter.median_s * 1e9,
            m.clock.skew_sd_ppm,
        );
    }
}
