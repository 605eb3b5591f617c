//! Shared driver for the hierarchical-synchronization experiments
//! (Figs. 4, 5 and 6 differ only in machine, shape and sampling).

use hcs_bench::sweep::{run_seed, SweepExecutor};
use hcs_clock::{LocalClock, Span, TimeSource};
use hcs_core::prelude::*;
use hcs_core::SyncFactory;
use hcs_mpi::Comm;
use hcs_sim::MachineSpec;

/// One experiment point: one algorithm configuration on one mpirun.
#[derive(Debug, Clone)]
pub struct HierRow {
    /// Algorithm label.
    pub label: String,
    /// Synchronization duration (max over ranks).
    pub duration: Span,
    /// Max |offset| right after sync.
    pub max_at0: Span,
    /// Max |offset| after the waiting period.
    pub max_at_wait: Span,
}

/// The four configurations of Figs. 4-6: flat HCA3 with 1000 and 500
/// fit points, and H2HCA (HCA3 top + ClockPropSync bottom) with the
/// same two configurations. `fit_hi`/`fit_lo` scale the paper's
/// 1000/500 to the run budget.
pub fn fig4_configs(fit_hi: usize, fit_lo: usize, pingpongs: usize) -> Vec<(String, SyncFactory)> {
    let mk_flat = |nfit: usize, pp: usize| -> SyncFactory {
        Box::new(move || Box::new(Hca3::skampi(nfit, pp)) as Box<dyn ClockSync>)
    };
    let mk_h2 = |nfit: usize, pp: usize| -> SyncFactory {
        Box::new(move || {
            Box::new(Hierarchical::h2(
                Box::new(Hca3::skampi(nfit, pp)),
                Box::new(ClockPropSync::verified()),
            )) as Box<dyn ClockSync>
        })
    };
    vec![
        (
            format!("hca3/recompute_intercept/{fit_hi}/SKaMPI-Offset/{pingpongs}"),
            mk_flat(fit_hi, pingpongs),
        ),
        (
            format!("hca3/recompute_intercept/{fit_lo}/SKaMPI-Offset/{pingpongs}"),
            mk_flat(fit_lo, pingpongs),
        ),
        (
            format!("Top/hca3/{fit_hi}/SKaMPI-Offset/{pingpongs}/Bottom/ClockPropagation"),
            mk_h2(fit_hi, pingpongs),
        ),
        (
            format!("Top/hca3/{fit_lo}/SKaMPI-Offset/{pingpongs}/Bottom/ClockPropagation"),
            mk_h2(fit_lo, pingpongs),
        ),
    ]
}

/// Runs the configurations `runs` times each and collects the rows.
/// `sample_frac` limits the accuracy check to a client sample (Fig. 6
/// uses 10 %).
///
/// Independent (config, repetition) points execute through `exec`,
/// possibly concurrently; rows come back in the sequential nesting
/// order (configs outer, repetitions inner). Repetition `run` draws its
/// master seed from the `(seed0, run)` stream — shared across configs,
/// so all configurations of one repetition still see the same machine
/// realization, and independent of how runs interleave on the host.
pub fn run_hier_experiment(
    machine: &MachineSpec,
    configs: &[(String, SyncFactory)],
    runs: usize,
    wait: Span,
    sample_frac: f64,
    seed0: u64,
    exec: &SweepExecutor,
) -> Vec<HierRow> {
    let p = machine.topology.total_cores();
    exec.run(configs.len() * runs, p, |i| {
        let (label, make) = &configs[i / runs];
        let run = i % runs;
        let cluster = machine.cluster(run_seed(seed0, run as u64));
        let out = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = make();
            let outcome = run_sync(alg.as_mut(), ctx, &mut comm, Box::new(clk));
            let mut g = outcome.clock;
            let mut probe = SkampiOffset::new(10);
            let report =
                check_clock_accuracy(ctx, &mut comm, g.as_mut(), &mut probe, wait, sample_frac);
            (outcome.duration, report)
        });
        let duration = out.iter().map(|o| o.0).fold(Span::ZERO, Span::max);
        let report = out[0].1.as_ref().expect("root reports");
        HierRow {
            label: label.clone(),
            duration,
            max_at0: report.max_abs_at_sync(),
            max_at_wait: report.max_abs_after_wait(),
        }
    })
}

/// Prints the rows plus per-configuration means in the paper's format.
pub fn print_hier_rows(rows: &[HierRow], configs: &[(String, SyncFactory)], wait: Span) {
    println!(
        "{:<62} {:>10} {:>13} {:>14}",
        "configuration (one row per mpirun)", "dur [s]", "max@0s [us]", "max@wait [us]"
    );
    for r in rows {
        println!(
            "{:<62} {:>10.3} {:>13.3} {:>14.3}",
            r.label,
            r.duration,
            r.max_at0.seconds() * 1e6,
            r.max_at_wait.seconds() * 1e6
        );
    }
    println!(
        "\nper-configuration means (wait = {:.0} s):",
        wait.seconds()
    );
    for (label, _) in configs {
        let sel: Vec<&HierRow> = rows.iter().filter(|r| &r.label == label).collect();
        if sel.is_empty() {
            continue;
        }
        let n = sel.len() as f64;
        println!(
            "{:<62} {:>10.3} {:>13.3} {:>14.3}",
            label,
            sel.iter().map(|r| r.duration).sum::<Span>() / n,
            sel.iter().map(|r| r.max_at0).sum::<Span>().seconds() / n * 1e6,
            sel.iter().map(|r| r.max_at_wait).sum::<Span>().seconds() / n * 1e6
        );
    }
}

/// Writes the rows as CSV if `path` is non-empty.
pub fn write_hier_csv(rows: &[HierRow], path: &str) {
    let header = [
        "configuration",
        "duration_s",
        "max_at0_us",
        "max_at_wait_us",
    ];
    let Some(mut w) = crate::CsvWriter::open(path, &header) else {
        return;
    };
    for r in rows {
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
