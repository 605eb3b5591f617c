//! Observability smoke run: one HCA3 synchronization followed by a
//! Round-Time allreduce measurement with `ObsSpec::full()`, exported as
//! a Chrome `trace_event` JSON (load it in chrome://tracing or
//! Perfetto), plus the summary-stats JSON and the flame report. CI
//! uploads the trace as an artifact of every run. The trace is streamed
//! to its file (`write_chrome_trace`), never held as one string, and a
//! run that dropped events to the recorder capacity exits non-zero.
//!
//! ```text
//! hcs trace_smoke [--nodes 4] [--ppn 2] [--seed 1] [--out trace_smoke.json]
//! ```

use hcs_bench::schemes::{run_round_time, RoundTimeConfig};
use hcs_clock::{LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::obs::{flame_report, summary_json, write_chrome_trace};
use hcs_sim::{machines, secs, ObsSpec};

use crate::{Args, Body, Report};

/// The flags of `trace_smoke`.
pub const FLAGS: &str = "nodes ppn seed out";

/// The observed run's counts, its trace and summary files, and its
/// flame report.
pub fn compute(args: &Args) -> Report {
    let nodes = args.get("nodes", 4);
    let ppn = args.get("ppn", 2);
    let seed = args.get("seed", 1);
    let out_path = args.get_str("out", "trace_smoke.json");

    let cluster = machines::testbed(nodes, ppn)
        .cluster(seed)
        .to_builder()
        .observability(ObsSpec::full())
        .build();
    let (nreps, log) = cluster.run_observed(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hca3::skampi(30, 8);
        let out = run_sync(&mut sync, ctx, &mut comm, Box::new(clk));
        let mut g = out.clock;
        let cfg = RoundTimeConfig {
            max_time_slice_s: secs(0.02),
            max_nrep: 50,
            ..Default::default()
        };
        let mut op = |ctx: &mut hcs_sim::RankCtx, comm: &mut Comm| {
            let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
        };
        run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op).len()
    });

    let mut r = Report::default();
    r.line(format!(
        "{} ranks, {} valid Round-Time repetitions, {} events recorded ({} dropped)",
        log.ranks().len(),
        nreps[0],
        log.total_events(),
        log.total_dropped()
    ));
    if log.total_dropped() > 0 {
        r.fail(format!(
            "{} events dropped at the recorder capacity; the trace is incomplete",
            log.total_dropped()
        ));
    }
    let summary_path = summary_path(&out_path);
    let summary = summary_json(&log);
    let flame = flame_report(&log);
    r.file(
        &out_path,
        Body::Stream(Box::new(move |mut w| write_chrome_trace(&log, &mut w))),
    );
    r.line(format!(
        "chrome trace written to {out_path} (open in chrome://tracing)"
    ));
    r.file(&summary_path, Body::Text(summary));
    r.line(format!("span summary written to {summary_path}"));
    r.line(format!("\n{flame}"));
    r
}

/// The summary's path: `out` with one trailing `.json` (if any) swapped
/// for `.summary.json`.
fn summary_path(out: &str) -> String {
    let stem = out.strip_suffix(".json").unwrap_or(out);
    format!("{stem}.summary.json")
}

#[cfg(test)]
mod tests {
    use super::summary_path;

    #[test]
    fn the_summary_sits_beside_the_trace_with_one_suffix_swapped() {
        assert_eq!(summary_path("trace_smoke.json"), "trace_smoke.summary.json");
        assert_eq!(summary_path("t.json.json"), "t.json.summary.json");
        assert_eq!(summary_path("out/t"), "out/t.summary.json");
    }
}
