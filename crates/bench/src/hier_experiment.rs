//! Shared driver for the hierarchical-synchronization experiments
//! (Figs. 4, 5 and 6 differ only in machine, shape and sampling).

use hcs_bench::sweep::{run_seed, SweepExecutor};
use hcs_clock::{LocalClock, Span, TimeSource};
use hcs_core::prelude::*;
use hcs_core::SyncFactory;
use hcs_mpi::Comm;
use hcs_sim::MachineSpec;

use crate::cells;
use crate::report::{Col, Fmt, Report, Table};

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
    let flat = |nfit| factory(move || Hca3::skampi(nfit, pingpongs));
    let h2 = |nfit| {
        factory(move || {
            let top = Box::new(Hca3::skampi(nfit, pingpongs));
            Hierarchical::h2(top, Box::new(ClockPropSync::verified()))
        })
    };
    let h2_label =
        |nfit| format!("Top/hca3/{nfit}/SKaMPI-Offset/{pingpongs}/Bottom/ClockPropagation");
    let flat_label = |nfit| format!("hca3/recompute_intercept/{nfit}/SKaMPI-Offset/{pingpongs}");
    vec![
        (flat_label(fit_hi), flat(fit_hi)),
        (flat_label(fit_lo), flat(fit_lo)),
        (h2_label(fit_hi), h2(fit_hi)),
        (h2_label(fit_lo), h2(fit_lo)),
    ]
}

/// A [`SyncFactory`] from a constructor of one algorithm.
pub(crate) fn factory<S: ClockSync + 'static>(
    make: impl Fn() -> S + Sync + 'static,
) -> SyncFactory {
    Box::new(move || Box::new(make()))
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
    let seed_of = |run: usize| run_seed(seed0, run as u64);
    sync_and_check(machine, configs, runs, wait, sample_frac, exec, seed_of)
}

/// [`run_hier_experiment`] with repetition `run`'s cluster seed given
/// by `seed_of(run)`.
pub(crate) fn sync_and_check(
    machine: &MachineSpec,
    configs: &[(String, SyncFactory)],
    runs: usize,
    wait: Span,
    sample_frac: f64,
    exec: &SweepExecutor,
    seed_of: impl Fn(usize) -> u64 + Sync,
) -> Vec<HierRow> {
    let p = machine.topology.total_cores();
    exec.run(configs.len() * runs, p, |i| {
        let (label, make) = &configs[i / runs];
        let cluster = machine.cluster(seed_of(i % runs));
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

/// The stdout widths of the label and the three measurement columns.
pub(crate) type Widths = [usize; 4];

/// Figs. 4–6's column widths.
pub(crate) const HIER_WIDTHS: Widths = [62, 10, 13, 14];

/// The rows, one per mpirun, and their per-configuration means in
/// `configs` order. `what` keys the label column ("configuration",
/// "algorithm").
pub(crate) fn hier_tables(
    rows: &[HierRow],
    configs: &[(String, SyncFactory)],
    what: &'static str,
    widths: Widths,
) -> (Table, Table) {
    let columns = |head: String| {
        Table::new(vec![
            Col::new(what, head, widths[0], Fmt::Left),
            Col::new("duration_s", "dur [s]", widths[1], Fmt::Num(3)),
            Col::new("max_at0_us", "max@0s [us]", widths[2], Fmt::Num(3)),
            Col::new("max_at_wait_us", "max@wait [us]", widths[3], Fmt::Num(3)),
        ])
    };
    let mut all = columns(format!("{what} (one row per mpirun)"));
    for r in rows {
        let us = |s: Span| s.seconds() * 1e6;
        all.row(cells![
            r.label.as_str(),
            r.duration,
            us(r.max_at0),
            us(r.max_at_wait)
        ]);
    }
    let mut means = columns(what.to_string());
    for (label, _) in configs {
        let sel: Vec<&HierRow> = rows.iter().filter(|r| &r.label == label).collect();
        if sel.is_empty() {
            continue;
        }
        let n = sel.len() as f64;
        let mean_us =
            |f: fn(&HierRow) -> Span| sel.iter().map(|r| f(r)).sum::<Span>().seconds() / n * 1e6;
        means.row(cells![
            label.as_str(),
            sel.iter().map(|r| r.duration).sum::<Span>() / n,
            mean_us(|r| r.max_at0),
            mean_us(|r| r.max_at_wait),
        ]);
    }
    (all, means)
}

/// Writes the rows as CSV if `path` is non-empty, and says so on
/// stdout.
pub fn write_hier_csv(rows: &[HierRow], path: &str) {
    let (all, _) = hier_tables(rows, &[], "configuration", HIER_WIDTHS);
    let mut report = Report::default();
    report.csv(path, all);
    report.emit();
}
