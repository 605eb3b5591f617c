//! Command-line entry of the repository benchmark.
//!
//! ```text
//! hcs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! hcs-benchmark run     [--seed N] [--seconds S] [--out FILE] [--quick]
//! hcs-benchmark trace   [--seed N] [--seconds S] [--out FILE] [--quick]
//! hcs-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and ends with the
//! one-line JSON result of the benchmark contract. `run` / `trace`
//! re-execute this binary once per workload, so each workload starts in
//! a fresh process like a user's binary, and collect the records into a
//! result file; `trace` measures the workload-independent layer table
//! once, in a `layers` child. `probe ...` is the internal child mode
//! behind `setup_s` and the `events.*` scaling rows.

use std::process::{Command, ExitCode};
use std::time::Instant;

use hcs_bench::sweep::run_seed;
use hcs_benchmark::host::{factors, pin_to_first_cpu, scrub_env, scrubbed_command};
use hcs_benchmark::json::{self, Value};
use hcs_benchmark::layers::layer_suite;
use hcs_benchmark::report::{compare, metrics_json, print_metrics, result_file};
use hcs_benchmark::runner::{run_workload, setup, Opts, DEFAULT_SECONDS};
use hcs_benchmark::spans::Tracer;
use hcs_benchmark::workloads::{hca3_unit, out_dir, timed, Sizes, Workload, WORKLOADS};
use hcs_sim::machines;

const USAGE: &str =
    "usage: hcs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       hcs-benchmark run|trace [--seed N] [--seconds S] [--out FILE] [--quick]
       hcs-benchmark compare A.json B.json";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
    quick: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Args {
            flags: Vec::new(),
            words: Vec::new(),
            quick: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--quick" {
                out.quick = true;
            } else if let Some(flag) = a.strip_prefix("--") {
                let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                out.flags.push((flag.to_string(), value.clone()));
            } else {
                out.words.push(a.clone());
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|f| f.0 == flag) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("bad value for --{flag}: {v}")),
        }
    }

    fn sizes(&self) -> Sizes {
        Sizes { quick: self.quick }
    }

    fn workload(&self, name: &str) -> Result<Workload, String> {
        Workload::by_name(name, self.sizes()).ok_or(format!("unknown workload `{name}`"))
    }
}

/// Contract mode: one workload in this process, pinned to one CPU,
/// ending with the result line.
fn one_workload(args: &Args, t_main: Instant) -> Result<ExitCode, String> {
    pin_to_first_cpu();
    let name: String = args.get("workload", String::new())?;
    let opts = Opts {
        workload: args.workload(&name)?,
        seed: args.get("seed", 1)?,
        seconds: args.get("seconds", DEFAULT_SECONDS)?,
        trace: args.get("trace", 0u8)? != 0,
        layers: args.get("layers", 1u8)? != 0,
    };
    let record = run_workload(&opts, t_main);
    record.print();
    println!("detail {}", record.detail().render());
    println!("{}", record.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// `run` / `trace`: every workload, each in a fresh child process.
fn all_workloads(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", if args.quick { 0.0 } else { DEFAULT_SECONDS })?;
    let default_out = out_dir().join(if trace { "trace.json" } else { "run.json" });
    let out_path: String = args.get("out", default_out.to_string_lossy().into_owned())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut records = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let mut cmd = scrubbed_command(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--layers", "0"]);
        let detail = child_record(&mut cmd, args.quick, "detail ")?;
        let failed = detail.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
        all_correct &= failed == 0.0 && detail.get("errors").is_some_and(|e| e.items().is_empty());
        records.push(detail);
    }
    let layers = if trace {
        let mut cmd = scrubbed_command(&exe);
        cmd.args(["layers", "--seed", &seed.to_string()]);
        let table = child_record(&mut cmd, args.quick, "layers ")?;
        all_correct &= table.get("errors").is_some_and(|e| e.items().is_empty());
        table.get("metrics").cloned()
    } else {
        None
    };
    let doc = result_file(factors(seed, seconds, args.quick), records, layers);
    std::fs::write(&out_path, doc.render() + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    println!("result file written to {out_path}");
    if !all_correct {
        println!("at least one output check FAILED");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs a child of `run` / `trace` to its end, passes its rows on to
/// stdout and returns the JSON record it printed after `prefix`.
fn child_record(cmd: &mut Command, quick: bool, prefix: &str) -> Result<Value, String> {
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let mut record = None;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        match line.strip_prefix(prefix) {
            Some(r) => record = Some(json::parse(r)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    record.ok_or_else(|| {
        format!(
            "{cmd:?} produced no record ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// Child mode of `trace`: the workload-independent layer table, pinned
/// like a workload process.
fn layers_only(args: &Args) -> Result<ExitCode, String> {
    pin_to_first_cpu();
    let mut errors = Vec::new();
    let rows = layer_suite(args.sizes(), args.get("seed", 1)?, &mut errors);
    println!("layer table, workload-independent");
    print_metrics(&rows);
    for e in &errors {
        println!("  FAILED {e}");
    }
    let errors = Value::Arr(errors.into_iter().map(json::s).collect());
    let table = json::obj([("errors", errors), ("metrics", metrics_json(&rows, true))]);
    println!("layers {}", table.render());
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (table, breaches) = compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Internal child modes:
/// `probe workload <name> <seed> <units>` prints the set-up time of
/// this fresh process and the wall time of `units` units after it;
/// `probe hca3 <nodes> <units> <seed> [--workers N]` prints wall time
/// and messages of back-to-back HCA3 units on `nodes` Titan nodes, run
/// by `N` event workers. Both print the event worker setting the
/// library finds in its environment.
fn probe(args: &Args, t_main: Instant) -> Result<ExitCode, String> {
    // `main` scrubbed the variable and no thread exists yet, so the
    // library's first (and only) look at it sees exactly this.
    const WORKERS_ENV: &str = "HCS_EVENT_WORKERS";
    let asked: usize = args.get("workers", 0)?;
    if asked > 0 {
        std::env::set_var(WORKERS_ENV, asked.to_string());
    }
    let workers = std::env::var(WORKERS_ENV).unwrap_or_else(|_| "default".to_string());
    println!("workers {workers}");
    let num = |i: usize| -> Result<u64, String> {
        let word = args.words.get(i).ok_or(USAGE)?;
        word.parse().map_err(|_| format!("bad number `{word}`"))
    };
    match args.words.get(1).map(String::as_str) {
        Some("workload") => {
            let w = args.workload(args.words.get(2).ok_or(USAGE)?)?;
            let (seed, units) = (num(3)?, num(4)?);
            let (out, secs) = setup(w, seed, t_main);
            if let Some(e) = out.error {
                return Err(format!("warm-up unit failed: {e}"));
            }
            println!("setup_s {secs}");
            let mut tr = Tracer::new(false);
            for i in 1..=units {
                let (out, secs) = timed(|| w.unit(run_seed(seed, i), &mut tr));
                println!("unit {secs} {}", out.msgs);
            }
        }
        Some("hca3") => {
            let machine = machines::titan().with_shape(num(2)? as usize, 1, 16);
            let (units, seed) = (num(3)?, num(4)?);
            let mut tr = Tracer::new(false);
            for i in 0..units {
                let (out, secs) = timed(|| hca3_unit(&machine, run_seed(seed, i), &mut tr));
                println!("unit {secs} {}", out.msgs);
            }
        }
        _ => return Err(USAGE.to_string()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let t_main = Instant::now();
    // Before any thread exists: every number is the library's default
    // host policy, whatever the caller's environment says.
    scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| match args.words.first().map(String::as_str) {
        None if !args.flags.is_empty() => one_workload(&args, t_main),
        Some("run") => all_workloads(&args, false),
        Some("trace") => all_workloads(&args, true),
        Some("compare") => compare_files(&args),
        Some("layers") => layers_only(&args),
        Some("probe") => probe(&args, t_main),
        _ => Err(USAGE.to_string()),
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
