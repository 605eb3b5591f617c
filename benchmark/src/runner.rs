//! Runs one workload in this process: warm-up, the measured closed
//! loop, the replay check, the set-up probes and — for the traced run —
//! the phase spans and the per-layer table.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::Instant;

use hcs_bench::sweep::run_seed;

use crate::host::{allowed_cpus, host_cpus, scrubbed_command, unpinned_command, ProcSnapshot};
use crate::layers::{layer_suite, run_probe};
use crate::report::{Metric, Record};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::workloads::{out_dir, timed, UnitOut, Workload};

/// Seconds the closed loop measures for when `--seconds` is not given
/// (`run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Units the traced run repeats on all host CPUs (`host.unpinned_ratio`).
const UNPINNED_UNITS: usize = 5;

/// Fresh child processes timed for `setup_s`, besides this one.
const SETUP_PROBES: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload and its size.
    pub workload: Workload,
    /// Seed all unit inputs derive from.
    pub seed: u64,
    /// Host seconds the closed loop measures for.
    pub seconds: f64,
    /// Traced run: phase spans, host accounting and the layer table.
    pub trace: bool,
    /// Whether the traced run measures the workload-independent layer
    /// table too. `trace` measures it once, in a process of its own.
    pub layers: bool,
}

/// One unit, with a panic turned into a failed output check.
fn guarded_unit(w: Workload, seed: u64, tr: &mut Tracer) -> UnitOut {
    catch_unwind(AssertUnwindSafe(|| w.unit(seed, tr))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        UnitOut {
            error: Some(format!("panicked: {msg}")),
            ..UnitOut::default()
        }
    })
}

/// Set-up as a user's fresh process pays it: process start to the end
/// of one warm-up unit (lazy statics, thread pool and stack pool fill).
/// Returns the warm-up unit's output and the seconds since `t_main`.
pub fn setup(w: Workload, seed: u64, t_main: Instant) -> (UnitOut, f64) {
    let out = guarded_unit(w, run_seed(seed, 0), &mut Tracer::new(false));
    (out, t_main.elapsed().as_secs_f64())
}

/// The arguments of a `probe workload` child running `units` units.
fn probe_args(cmd: &mut Command, o: &Opts, units: usize) {
    cmd.args(["probe", "workload", o.workload.name()])
        .args([o.seed.to_string(), units.to_string()]);
    if o.workload.sizes.quick {
        cmd.arg("--quick");
    }
}

/// Times set-up in a fresh child process, pinned like this one.
fn setup_probe(o: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = scrubbed_command(&exe);
    probe_args(&mut cmd, o, 0);
    let out = cmd.output().map_err(|e| e.to_string())?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse().ok())
        .ok_or_else(|| format!("set-up probe printed no time (exit {})", out.status))
}

/// Phase self times, mean ms per traced unit. `unit` and `run` are the
/// enclosing spans; what they do not hand to a named child is `other`.
/// The phases must add up to the traced unit wall (`phase.unit_ms`).
fn phase_metrics(tr: &Tracer, n_traced: usize, errors: &mut Vec<String>) -> Vec<Metric> {
    const PHASES: [&str; 10] = [
        "build",
        "dispatch",
        "sync",
        "check",
        "scheme",
        "experiment",
        "csv",
        "sink",
        "join",
        "other",
    ];
    let mut selfs = tr.self_times();
    let other = ["unit", "run"]
        .iter()
        .filter_map(|k| selfs.remove(k))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    selfs.insert("other", other);
    let per_unit_ms = |ns: u64| ns as f64 / 1e6 / n_traced as f64;
    let mut out = Vec::new();
    let mut sum_ms = 0.0;
    for phase in PHASES {
        let (ns, count) = selfs.get(phase).copied().unwrap_or((0, 0));
        sum_ms += per_unit_ms(ns);
        let name = format!("phase.{phase}_ms");
        out.push(Metric::new(&name, per_unit_ms(ns), "ms", count));
    }
    let roots = tr.spans().iter().filter(|s| s.parent.is_none());
    let unit_ms = per_unit_ms(roots.map(|s| s.end_ns - s.start_ns).sum());
    out.push(Metric::new("phase.unit_ms", unit_ms, "ms", n_traced as u64));
    if (sum_ms - unit_ms).abs() > 0.05 * unit_ms {
        errors.push(format!(
            "phase self times sum to {sum_ms} ms, the traced unit wall is {unit_ms} ms"
        ));
    }
    out
}

/// Process accounting over the measured loop.
fn host_metrics(before: &ProcSnapshot, after: &ProcSnapshot, n_units: u64) -> [Metric; 5] {
    let (user, sys) = (after.user_s - before.user_s, after.sys_s - before.sys_s);
    let ctxsw = (after.vol_ctxsw - before.vol_ctxsw) / n_units as f64;
    let faults = after.minor_faults - before.minor_faults;
    [
        Metric::new("host.cpu_user_s", user, "s", n_units),
        Metric::new(
            "host.cpu_sys_frac",
            sys / (user + sys).max(1e-9),
            "ratio",
            n_units,
        ),
        Metric::new("host.peak_rss_mb", after.peak_rss_mb, "MB", n_units),
        Metric::new("host.vol_ctxsw_per_unit", ctxsw, "count", n_units),
        Metric::new("host.minor_faults", faults, "count", n_units),
    ]
}

/// Runs the workload and returns its record. `t_main` is the process
/// start, so this process's own warm-up is one of the set-up samples.
pub fn run_workload(o: &Opts, t_main: Instant) -> Record {
    let w = o.workload;
    let (engine, jobs) = w.engine_and_jobs();
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |label: String, out: &UnitOut| {
        attempted += 1;
        if let Some(e) = &out.error {
            failed += 1;
            errors.push(format!("{label}: {e}"));
        }
    };

    let (unit0, own_setup_s) = setup(w, o.seed, t_main);
    check("warm-up unit 0".to_string(), &unit0);

    // Closed loop, one unit after the previous completes, for
    // `--seconds`. The traced run alternates untraced and traced units,
    // so their difference is the tracing overhead.
    let pair = if o.trace { 2 } else { 1 };
    let min_units = pair * if w.sizes.quick { 1 } else { 2 };
    let mut tr = Tracer::new(false);
    let mut units: Vec<(f64, bool)> = Vec::new();
    let before = ProcSnapshot::now();
    let t_loop = Instant::now();
    while units.len() < min_units
        || !units.len().is_multiple_of(pair)
        || t_loop.elapsed().as_secs_f64() < o.seconds
    {
        let i = units.len() as u64 + 1;
        tr.set_on(o.trace && i.is_multiple_of(2));
        tr.set_unit(i as u32);
        let (out, wall_s) = timed(|| guarded_unit(w, run_seed(o.seed, i), &mut tr));
        check(format!("unit {i}"), &out);
        units.push((wall_s, tr.on()));
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    tr.set_on(false);
    let after = ProcSnapshot::now();

    // Replay determinism: unit 0 again, after everything else.
    let replay = guarded_unit(w, run_seed(o.seed, 0), &mut tr);
    check("replay of unit 0".to_string(), &replay);
    if replay.digest != unit0.digest {
        failed += 1;
        errors.push(format!(
            "replay of unit 0: digest {:016x} differs from the first run's {:016x}",
            replay.digest, unit0.digest
        ));
    }

    let untraced: Vec<f64> = units.iter().filter(|u| !u.1).map(|u| u.0).collect();
    let mut metrics = Vec::new();
    if !o.trace {
        let mut setups = vec![own_setup_s];
        for _ in 0..SETUP_PROBES {
            match setup_probe(o) {
                Ok(secs) => setups.push(secs),
                Err(e) => errors.push(format!("set-up probe: {e}")),
            }
        }
        let n = untraced.len() as u64;
        metrics.push(Metric::new("unit_ms_p50", median(&untraced) * 1e3, "ms", n));
        // Total ÷ total: unlike the median it moves with drift and tails.
        metrics.push(Metric::new("units_per_s", n as f64 / loop_s, "1/s", n));
        let n = setups.len() as u64;
        metrics.push(Metric::new("setup_s", median(&setups), "s", n));
    } else {
        let traced: Vec<f64> = units.iter().filter(|u| u.1).map(|u| u.0).collect();
        let walls: Vec<f64> = units.iter().map(|u| u.0).collect();
        let n_units = units.len() as u64;
        metrics.extend(phase_metrics(&tr, traced.len(), &mut errors));
        let overhead = median(&traced) / median(&untraced) - 1.0;
        metrics.push(Metric::new(
            "trace.overhead_frac",
            overhead,
            "ratio",
            n_units,
        ));
        // In-process slowdown: the last three units against the first three.
        let k = (walls.len() / 2).clamp(1, 3);
        let drift = mean(&walls[walls.len() - k..]) / mean(&walls[..k]);
        metrics.push(Metric::new("unit.drift_ratio", drift, "ratio", n_units));
        // `fig5_sweep` cannot count its messages: no value, no sample.
        let counted = u64::from(unit0.msgs > 0);
        metrics.push(Metric::new(
            "sim.msgs_per_unit",
            unit0.msgs as f64,
            "count",
            counted,
        ));
        metrics.push(Metric::new("sim.virt_sync_s", unit0.virt_sync_s, "s", 1));
        metrics.push(Metric::new("sim.sync_err_us", unit0.sync_err_us, "us", 1));
        metrics.extend(host_metrics(&before, &after, n_units));
        // What pinning hides: the same units on all of the host's CPUs.
        let exe = std::env::current_exe().expect("path of the running benchmark binary");
        let mut cmd = unpinned_command(&exe);
        probe_args(&mut cmd, o, UNPINNED_UNITS);
        let unpinned: Vec<f64> = run_probe(&mut cmd).units.iter().map(|u| u.0).collect();
        let ratio = median(&unpinned) / median(&untraced);
        let n = unpinned.len() as u64;
        metrics.push(Metric::new("host.unpinned_ratio", ratio, "ratio", n));
        if o.layers {
            metrics.extend(layer_suite(w.sizes, o.seed, &mut errors));
        }

        let path = out_dir().join(format!("trace.{}.json", w.name()));
        match std::fs::write(&path, tr.trace_event_json(w.name())) {
            Ok(()) => println!("phase spans written to {}", path.display()),
            Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
        }
    }

    Record {
        workload: w.name(),
        seed: o.seed,
        trace: o.trace,
        ranks: w.ranks(),
        engine,
        jobs,
        cpus: format!(
            "{} of {}",
            allowed_cpus().unwrap_or_else(|| "?".to_string()),
            host_cpus().unwrap_or_else(|| "?".to_string())
        ),
        unit_ms: untraced.iter().map(|s| s * 1e3).collect(),
        attempted,
        failed,
        errors,
        digest: unit0.digest,
        sim: (unit0.msgs, unit0.virt_sync_s, unit0.sync_err_us),
        metrics,
    }
}
