//! Drives the real binary in `--quick` mode (same code paths at p ≤ 64,
//! one unit per workload) and checks its output against
//! `BENCHMARK.json`: every metric the contract names is reported for
//! every workload, every layer row was measured over a non-zero
//! number of operations, and a probe child runs with the event workers
//! it was asked to run with.

use std::path::{Path, PathBuf};
use std::process::Command;

use hcs_benchmark::json::{parse, Value};
use hcs_benchmark::report::{Better, END_TO_END};
use hcs_benchmark::runner::DEFAULT_SECONDS;
use hcs_benchmark::workloads::WORKLOADS;

fn contract() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(contract: &Value, list: &str) -> Vec<String> {
    let items = contract.get(list).expect("list present").items();
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs `hcs-benchmark <mode> --quick` and returns its result file.
fn quick(mode: &str) -> Value {
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{mode}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_hcs-benchmark"))
        .args([mode, "--quick", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("spawn the benchmark binary");
    assert!(status.success(), "`{mode} --quick` failed an output check");
    let doc = parse(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    for factor in ["seed", "host_cores", "git_rev", "rustc", "scrubbed_env"] {
        assert!(
            doc.get("factors").and_then(|f| f.get(factor)).is_some(),
            "factor {factor} missing"
        );
    }
    let records = doc.get("records").expect("records").items();
    assert_eq!(records.len(), WORKLOADS.len());
    doc
}

/// The names of a `metrics` object, in order.
fn metric_names(metrics: &Value) -> Vec<&str> {
    metrics.members().iter().map(|m| m.0.as_str()).collect()
}

#[test]
fn contract_tables_match_the_code() {
    let contract = contract();
    let listed: Vec<(String, String)> = contract
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            let field = |k| w.get(k).and_then(Value::as_str).expect("field").to_string();
            (field("name"), field("why"))
        })
        .collect();
    let coded: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.0.to_string(), w.1.to_string()))
        .collect();
    assert_eq!(listed, coded);

    let run_seconds = contract.get("run_seconds").and_then(Value::as_f64);
    assert_eq!(run_seconds, Some(DEFAULT_SECONDS));

    let e2e = contract.get("end_to_end").expect("end_to_end").items();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, def) in e2e.iter().zip(END_TO_END) {
        let text = |k| listed.get(k).and_then(Value::as_str).expect("field");
        assert_eq!(text("name"), def.name);
        assert_eq!(text("unit"), def.unit);
        let better = if def.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(text("better"), better);
        assert_eq!(listed.get("bound").and_then(Value::as_f64), Some(def.bound));
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric() {
    let wanted = names(&contract(), "end_to_end");
    for rec in quick("run").get("records").unwrap().items() {
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .expect("workload");
        assert_eq!(rec.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = rec.get("metrics").expect("metrics");
        assert_eq!(
            metric_names(metrics),
            wanted,
            "{workload}: end-to-end metrics"
        );
        for (name, m) in metrics.members() {
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn quick_trace_reports_every_layer_metric_with_its_op_count() {
    let contract = contract();
    let listed = contract.get("per_layer").unwrap().items();
    let wanted = names(&contract, "per_layer");
    let doc = quick("trace");
    // `trace` measures the workload-independent rows once.
    let layers = doc.get("layers").expect("layer table");
    let mut phase_seen = std::collections::BTreeSet::new();
    for rec in doc.get("records").unwrap().items() {
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .expect("workload");
        let metrics = rec.get("metrics").expect("metrics");
        let got = [metric_names(metrics), metric_names(layers)].concat();
        assert_eq!(got, wanted, "{workload}: per-layer metrics");
        let rows = metrics.members().iter().chain(layers.members());
        for (listed, (name, m)) in listed.iter().zip(rows) {
            assert_eq!(listed.get("unit"), m.get("unit"), "{name}: unit");
            let ops = m.get("n").and_then(Value::as_f64).expect("op count");
            if name.starts_with("phase.") {
                // A phase a workload does not have has no spans there.
                if ops > 0.0 {
                    phase_seen.insert(name.clone());
                }
            } else if (workload, name.as_str()) != ("fig5_sweep", "sim.msgs_per_unit") {
                // (`run_hier_experiment` returns no traffic counters.)
                assert!(ops > 0.0, "{workload}: {name} has no op count");
            }
        }
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace.{workload}.json"));
        let spans =
            parse(&std::fs::read_to_string(trace).expect("span file")).expect("span file parses");
        assert!(spans.get("traceEvents").expect("traceEvents").items().len() > 1);
    }
    for name in wanted.iter().filter(|n| n.starts_with("phase.")) {
        assert!(phase_seen.contains(name), "{name} has spans on no workload");
    }
}

/// `events.workers1_ratio` rests on this: the caller's environment
/// never reaches the library, and `--workers` does.
#[test]
fn probe_child_runs_with_the_event_workers_it_was_asked_for() {
    let workers_of = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_hcs-benchmark"))
            .args(["probe", "hca3", "1", "1", "3"])
            .args(extra)
            .env("HCS_EVENT_WORKERS", "7")
            .output()
            .expect("spawn the benchmark binary");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.lines().any(|l| l.starts_with("unit ")), "{stdout}");
        stdout
            .lines()
            .find_map(|l| Some(l.strip_prefix("workers ")?.to_string()))
    };
    assert_eq!(workers_of(&[]).as_deref(), Some("default"));
    assert_eq!(workers_of(&["--workers", "1"]).as_deref(), Some("1"));
}
