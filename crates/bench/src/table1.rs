//! Table I: the parallel machines used in the experiments, as modeled.
//!
//! ```text
//! hcs table1
//! ```

use hcs_sim::machines;
use hcs_sim::topology::Level;

use crate::{cells, Args, Col, Fmt, Report, Table};

/// `table1` takes no flags.
pub const FLAGS: &str = "";

/// Table I and the model parameters behind each machine.
pub fn compute(_: &Args) -> Report {
    let mut r = Report::default();
    r.line("TABLE I: Parallel machines used in our experiments (as modeled)\n");
    let mut t = Table::new(vec![
        Col::new("name", "Name", 8, Fmt::Left),
        Col::new("hardware", "Hardware", 55, Fmt::Left),
        Col::new("mpi", "MPI Libraries", 18, Fmt::Left),
        Col::new("compiler", "Compiler", 10, Fmt::Left),
    ]);
    for m in machines::all() {
        t.row(cells![m.name, m.hardware, m.mpi_library, m.compiler]);
    }
    r.table(t);
    r.line("\nModel parameters derived for each machine:");
    let mut t = Table::new(vec![
        Col::new("name", "Name", 8, Fmt::Left),
        Col::new("cores", "cores", 7, Fmt::Right),
        Col::new("inter_node_us", "inter-node [us]", 17, Fmt::Num(2)),
        Col::new("intra_node_us", "intra-node [us]", 17, Fmt::Num(2)),
        Col::new("jitter_ns", "jitter [ns]", 14, Fmt::Num(0)),
        Col::new("skew_sd_ppm", "skew sd[ppm]", 12, Fmt::Num(2)),
    ]);
    for m in machines::all() {
        let net = |l: Level| m.network.level(l);
        t.row(cells![
            m.name,
            m.topology.total_cores(),
            net(Level::InterNode).base_s * 1e6,
            net(Level::SameNode).base_s * 1e6,
            net(Level::InterNode).jitter.median_s * 1e9,
            m.clock.skew_sd_ppm,
        ]);
    }
    r.table(t);
    r
}
