//! Chaos band: races the synchronization algorithms (JK, HCA2, HCA3)
//! across a grid of injected fault scenarios — message loss, delivery
//! scrambling, a network partition and a rank crash — and records how
//! each algorithm degrades: how many ranks complete, how many time out,
//! and the accuracy of the survivors' global clocks.
//!
//! Every run uses [`run_sync_with_timeout`], so lost messages resolve
//! into per-rank timeout outcomes (`Cluster::run_outcome`) instead of
//! wait-graph hangs; the whole grid is a pure function of `--seed` and
//! the table is byte-stable run over run (CI replays it and `cmp`s the
//! CSV).
//!
//! ```text
//! hcs chaos [--nodes 4] [--ppn 2] [--seed 1] [--csv chaos.csv] [--out BENCH_chaos.json]
//! ```

use hcs_clock::{Clock, LocalClock, TimeSource};
use hcs_core::prelude::*;
use hcs_mpi::Comm;
use hcs_sim::obs::Event;
use hcs_sim::{machines, secs, FaultPlan, LinkSel, ObsSpec, SimTime, Window};

use crate::{cells, Args, Body, Col, Fmt, Report, Table};

/// The flags of `chaos`.
pub const FLAGS: &str = "nodes ppn seed csv out";

/// Per-receive deadline (virtual seconds). Generous against the ~0.2 s
/// benign sync duration, so only genuinely undeliverable messages time
/// out.
const PER_RECV_TIMEOUT_S: f64 = 0.5;

/// The fault grid: scenario label plus the plan, parameterized by the
/// cluster size so the partition and the crash stay meaningful at any
/// `--nodes`/`--ppn`.
fn scenarios(size: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::new()),
        (
            "drop5",
            FaultPlan::new().drop_messages(LinkSel::any(), 0.05, Window::all()),
        ),
        (
            "scramble",
            FaultPlan::new()
                .duplicate_messages(LinkSel::any(), 0.10, secs(2e-5), Window::all())
                .reorder_messages(LinkSel::any(), 0.10, secs(5e-5), Window::all()),
        ),
        (
            "partition",
            FaultPlan::new().partition(
                (0..size / 2).collect(),
                Window::between(SimTime::from_secs(0.02), SimTime::from_secs(0.30)),
            ),
        ),
        (
            "crash",
            FaultPlan::new().crash(size - 1, SimTime::from_secs(0.03), None),
        ),
    ]
}

fn make_sync(alg: &str) -> Box<dyn ClockSync> {
    match alg {
        "jk" => Box::new(Jk::mean_rtt(16, 4)),
        "hca2" => Box::new(Hca2::skampi(20, 6)),
        "hca3" => Box::new(Hca3::skampi(20, 6)),
        other => panic!("unknown algorithm {other}"),
    }
}

/// One row per (scenario, algorithm) cell of the fault grid.
///
/// # Panics
/// Panics on fewer than 4 ranks.
pub fn compute(args: &Args) -> Report {
    let nodes = args.get("nodes", 4);
    let ppn = args.get("ppn", 2);
    let seed: u64 = args.get("seed", 1);
    let csv_path = args.get_str("csv", "chaos.csv");
    let out_path = args.get_str("out", "BENCH_chaos.json");

    let machine = machines::testbed(nodes, ppn);
    let size = nodes * ppn;
    assert!(size >= 4, "the fault grid needs at least 4 ranks");

    let mut t = Table::new(vec![
        Col::new("scenario", "scenario", 10, Fmt::Left),
        Col::new("alg", "alg", 6, Fmt::Left),
        Col::new("ranks", "", 0, Fmt::Const),
        Col::new("seed", "", 0, Fmt::Const),
        Col::new("completed", "completed", 9, Fmt::Right),
        Col::new("timed_out", "timed_out", 9, Fmt::Right),
        // Max |global clock − rank 0's| over completed ranks, µs at
        // t = 1 s; missing when fewer than two ranks survived.
        Col::new("max_abs_err_us", "max_abs_err_us", 16, Fmt::Fixed(3)),
        Col::new("fault_notes", "fault_notes", 12, Fmt::Right),
        Col::new("timeout_notes", "timeouts", 9, Fmt::Right),
    ]);
    for (scenario, plan) in scenarios(size) {
        for alg in ["jk", "hca2", "hca3"] {
            let cluster = machines::testbed(nodes, ppn)
                .cluster(seed)
                .to_builder()
                .env(machine.env_spec().faults(plan.clone()))
                .observability(ObsSpec::spans_only())
                .build();
            let (outcome, log) = cluster.run_outcome_observed(move |ctx| {
                let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
                let mut comm = Comm::world(ctx);
                let mut sync = make_sync(alg);
                let out = run_sync_with_timeout(
                    sync.as_mut(),
                    ctx,
                    &mut comm,
                    Box::new(clk),
                    secs(PER_RECV_TIMEOUT_S),
                );
                out.clock.true_eval(SimTime::from_secs(1.0)).raw_seconds()
            });

            let evals: Vec<Option<f64>> = outcome
                .ranks
                .iter()
                .map(|r| r.completed().copied())
                .collect();
            let max_abs_err_us = max_err_vs_reference(&evals).map(|e| e * 1e6);

            let (mut fault_notes, mut timeout_notes) = (0u64, 0u64);
            for rec in log.ranks() {
                for ev in rec.events() {
                    if let Event::Note { name, .. } = ev {
                        let n = rec.name(*name);
                        if n.starts_with("fault/") {
                            fault_notes += 1;
                        } else if n == "recv/timeout" {
                            timeout_notes += 1;
                        }
                    }
                }
            }

            t.row(cells![
                scenario,
                alg,
                size,
                seed,
                outcome.completed_count(),
                outcome.timed_out_count(),
                max_abs_err_us,
                fault_notes,
                timeout_notes,
            ]);
        }
    }

    let mut r = Report::default();
    r.line(format!("Chaos grid: {size} ranks (testbed), seed {seed}, per-receive timeout {PER_RECV_TIMEOUT_S} s\n"));
    r.table(t.clone());
    r.file(&csv_path, Body::Csv(t.clone()));
    r.file(&out_path, Body::Json("chaos", t));
    r.line(format!("\ncsv written to {csv_path}"));
    r.line(format!("results written to {out_path}"));
    r
}

/// Max |eval − reference| over completed ranks; the reference is rank
/// 0's global clock when it survived, else the lowest surviving rank's.
fn max_err_vs_reference(evals: &[Option<f64>]) -> Option<f64> {
    let alive: Vec<f64> = evals.iter().filter_map(|e| *e).collect();
    if alive.len() < 2 {
        return None;
    }
    let reference = alive[0];
    alive
        .iter()
        .map(|e| (e - reference).abs())
        .fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.max(x))))
}
