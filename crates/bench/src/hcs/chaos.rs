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
use hcs_experiments::{Args, CsvWriter};
use hcs_mpi::Comm;
use hcs_sim::obs::Event;
use hcs_sim::{machines, secs, FaultPlan, LinkSel, ObsSpec, SimTime, Window};
use std::path::Path;

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

struct CaseRow {
    scenario: &'static str,
    alg: &'static str,
    completed: usize,
    timed_out: usize,
    /// Max |global clock − rank 0's| over completed ranks, µs at t=1 s;
    /// `None` when fewer than two ranks survived.
    max_abs_err_us: Option<f64>,
    fault_notes: u64,
    timeout_notes: u64,
}

pub fn run(argv: Vec<String>) {
    let args = Args::parse(argv, "nodes ppn seed csv out");
    let nodes = args.get("nodes", 4);
    let ppn = args.get("ppn", 2);
    let seed = args.get("seed", 1);
    let csv_path = args.get_str("csv", "chaos.csv");
    let out_path = args.get_str("out", "BENCH_chaos.json");

    let machine = machines::testbed(nodes, ppn);
    let size = nodes * ppn;
    assert!(size >= 4, "the fault grid needs at least 4 ranks");

    let mut rows: Vec<CaseRow> = Vec::new();
    for (scenario, plan) in scenarios(size) {
        for alg in ["jk", "hca2", "hca3"] {
            let cluster = machines::testbed(nodes, ppn)
                .cluster(seed)
                .to_builder()
                .env(machine.env_spec().faults(plan.clone()))
                .observability(ObsSpec::full())
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

            rows.push(CaseRow {
                scenario,
                alg,
                completed: outcome.completed_count(),
                timed_out: outcome.timed_out_count(),
                max_abs_err_us,
                fault_notes,
                timeout_notes,
            });
        }
    }

    print_table(&rows, size, seed);
    write_csv(&rows, size, seed, csv_path.as_ref()).expect("write chaos csv");
    std::fs::write(&out_path, json(&rows, size, seed)).expect("write BENCH_chaos.json");
    println!("\ncsv written to {csv_path}");
    println!("results written to {out_path}");
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

fn err_field(e: Option<f64>) -> String {
    e.map_or_else(|| "-".to_string(), |e| format!("{e:.3}"))
}

fn print_table(rows: &[CaseRow], size: usize, seed: u64) {
    println!("Chaos grid: {size} ranks (testbed), seed {seed}, per-receive timeout {PER_RECV_TIMEOUT_S} s\n");
    println!(
        "{:<10} {:<6} {:>9} {:>9} {:>16} {:>12} {:>9}",
        "scenario", "alg", "completed", "timed_out", "max_abs_err_us", "fault_notes", "timeouts"
    );
    for r in rows {
        println!(
            "{:<10} {:<6} {:>9} {:>9} {:>16} {:>12} {:>9}",
            r.scenario,
            r.alg,
            r.completed,
            r.timed_out,
            err_field(r.max_abs_err_us),
            r.fault_notes,
            r.timeout_notes
        );
    }
}

fn write_csv(rows: &[CaseRow], size: usize, seed: u64, path: &Path) -> std::io::Result<()> {
    let mut w = CsvWriter::create(
        path,
        &[
            "scenario",
            "alg",
            "ranks",
            "seed",
            "completed",
            "timed_out",
            "max_abs_err_us",
            "fault_notes",
            "timeout_notes",
        ],
    )?;
    for r in rows {
        w.row(&[
            r.scenario.to_string(),
            r.alg.to_string(),
            size.to_string(),
            seed.to_string(),
            r.completed.to_string(),
            r.timed_out.to_string(),
            err_field(r.max_abs_err_us),
            r.fault_notes.to_string(),
            r.timeout_notes.to_string(),
        ])?;
    }
    w.finish().map(drop)
}

/// Hand-rolled JSON (the workspace is std-only): one object per grid
/// cell, mirroring the CSV.
fn json(rows: &[CaseRow], size: usize, seed: u64) -> String {
    let mut s = String::from("{\n  \"bench\": \"chaos\",\n");
    s.push_str(&format!("  \"ranks\": {size},\n  \"seed\": {seed},\n"));
    s.push_str("  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let err = r
            .max_abs_err_us
            .map_or_else(|| "null".to_string(), |e| format!("{e:.3}"));
        s.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"alg\": \"{}\", \"completed\": {}, \"timed_out\": {}, \"max_abs_err_us\": {}, \"fault_notes\": {}, \"timeout_notes\": {}}}{}\n",
            r.scenario,
            r.alg,
            r.completed,
            r.timed_out,
            err,
            r.fault_notes,
            r.timeout_notes,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
