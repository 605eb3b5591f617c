//! Result records, the metric definitions they are judged by, and the
//! `compare` rule applied to two result files.

use crate::json::{n, obj, s, Value};
use crate::stats::quantile;

/// Which direction of an end-to-end metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Definition of one end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base value by which the metric may get worse
    /// before `compare` reports a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload (host time,
/// measured with spans off). `BENCHMARK.json` repeats this table; the
/// smoke test keeps the two in step.
pub const END_TO_END: [MetricDef; 3] = [
    MetricDef {
        name: "unit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Whether a metric is a simulated statistic or an exact count: it
/// must be bit-identical between two runs of the same code and seed.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("sim.")
        || name.ends_with("_msgs")
        || name == "schemes.invalid_frac"
        || name == "obs.events_dropped"
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples or operations behind the value.
    pub ops: u64,
}

impl Metric {
    /// A metric measured over `ops` samples or operations.
    pub fn new(name: &str, value: f64, unit: &'static str, ops: u64) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            ops,
        }
    }
}

/// Metrics as a JSON object keyed by name: value and unit, and the op
/// count `n` where asked for.
pub fn metrics_json(metrics: &[Metric], with_ops: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut v = vec![("value", n(m.value)), ("unit", s(m.unit))];
                if with_ops {
                    v.push(("n", n(m.ops as f64)));
                }
                let members = v.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
                (m.name.clone(), Value::Obj(members))
            })
            .collect(),
    )
}

/// Prints metrics as rows: name, value, unit and op count.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<36} {:>16.6} {:<7} n={}",
            m.name, m.value, m.unit, m.ops
        );
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Ranks of one cluster run.
    pub ranks: usize,
    /// Engine the runs resolved to (`Cluster::engine_mode`).
    pub engine: String,
    /// Sweep executor job budget.
    pub jobs: usize,
    /// CPUs the workload process was pinned to, of those the host allows.
    pub cpus: String,
    /// Host wall time of every measured unit, ms, in run order.
    pub unit_ms: Vec<f64>,
    /// Units attempted (warm-up, measured and replay).
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
    /// FNV-1a digest of unit 0's per-rank outputs.
    pub digest: u64,
    /// Simulated statistics of unit 0 (exact): messages, sync duration
    /// (virtual s), sync error (virtual µs).
    pub sim: (u64, f64, f64),
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Record {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", n(self.attempted as f64)),
            ("failed", n(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, false)),
        ])
        .render()
    }

    /// The full record, as stored in result files.
    pub fn detail(&self) -> Value {
        let q = |p| n(quantile(&self.unit_ms, p));
        obj([
            ("workload", s(self.workload)),
            ("seed", n(self.seed as f64)),
            ("trace", Value::Bool(self.trace)),
            ("ranks", n(self.ranks as f64)),
            ("engine", s(self.engine.clone())),
            ("jobs", n(self.jobs as f64)),
            ("cpus", s(self.cpus.clone())),
            ("attempted", n(self.attempted as f64)),
            ("failed", n(self.failed as f64)),
            (
                "fail_frac",
                n(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "errors",
                Value::Arr(self.errors.iter().map(|e| s(e.clone())).collect()),
            ),
            ("digest", s(format!("{:016x}", self.digest))),
            (
                "sim",
                obj([
                    ("msgs_per_unit", n(self.sim.0 as f64)),
                    ("virt_sync_s", n(self.sim.1)),
                    ("sync_err_us", n(self.sim.2)),
                ]),
            ),
            (
                "unit_ms",
                obj([
                    ("n", n(self.unit_ms.len() as f64)),
                    ("min", q(0.0)),
                    ("p25", q(0.25)),
                    ("p50", q(0.5)),
                    ("p75", q(0.75)),
                    ("max", q(1.0)),
                    (
                        "samples",
                        Value::Arr(self.unit_ms.iter().map(|&ms| n(ms)).collect()),
                    ),
                ]),
            ),
            ("metrics", metrics_json(&self.metrics, true)),
        ])
    }

    /// Human-readable rows: every metric by name, with unit and count.
    pub fn print(&self) {
        println!(
            "workload {} seed {} trace {} ranks {} engine {} jobs {} cpus {}",
            self.workload,
            self.seed,
            self.trace as u8,
            self.ranks,
            self.engine,
            self.jobs,
            self.cpus
        );
        let q = |p| quantile(&self.unit_ms, p);
        println!(
            "  units n={} min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} max {:.1} ms",
            self.unit_ms.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
        println!(
            "  digest {:016x} msgs/unit {} virt_sync_s {} sync_err_us {}",
            self.digest, self.sim.0, self.sim.1, self.sim.2
        );
        println!(
            "  fail_frac {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            println!("  FAILED {e}");
        }
        print_metrics(&self.metrics);
    }
}

/// Wraps factors, the workload records and — for a traced run — the
/// workload-independent layer table into a result file document.
pub fn result_file(factors: Value, records: Vec<Value>, layers: Option<Value>) -> Value {
    let mut doc = vec![("factors", factors), ("records", Value::Arr(records))];
    doc.extend(layers.map(|l| ("layers", l)));
    Value::Obj(doc.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One `compare` row per metric of `ma` (a `metrics` object of file A)
/// against the same metric in `mb`; returns the number of breaches.
fn compare_metrics(
    label: &str,
    ma: &Value,
    mb: Option<&Value>,
    same_seed: bool,
    out: &mut String,
) -> usize {
    let mut breaches = 0;
    for (metric, a) in ma.members() {
        let va = a.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let vb = mb
            .and_then(|m| m.get(metric)?.get("value")?.as_f64())
            .unwrap_or(f64::NAN);
        let verdict = if let Some(def) = END_TO_END.iter().find(|d| d.name == metric) {
            let worse_by = match def.better {
                Better::Lower => vb / va - 1.0,
                Better::Higher => 1.0 - vb / va,
            };
            // NaN (a metric missing from B) must not pass.
            if worse_by <= def.bound {
                format!("ok (bound {:.0} %)", def.bound * 100.0)
            } else {
                breaches += 1;
                format!(
                    "BREACH (worse by {:.1} %, bound {:.0} %)",
                    worse_by * 100.0,
                    def.bound * 100.0
                )
            }
        } else if is_exact(metric) && same_seed {
            if va.to_bits() == vb.to_bits() {
                "exact".to_string()
            } else {
                breaches += 1;
                "BREACH (exact)".to_string()
            }
        } else {
            "-".to_string()
        };
        out.push_str(&compare_row(label, metric, va, vb, &verdict));
    }
    breaches
}

fn compare_row(label: &str, metric: &str, va: f64, vb: f64, verdict: &str) -> String {
    // 0 ÷ 0 (a row with no value on either side) has no ratio.
    let ratio = if va == vb { 1.0 } else { vb / va };
    format!("{label:<16} {metric:<36} {va:>16.6} {vb:>16.6} {ratio:>9.4}  {verdict}\n")
}

/// Applies the bounds to two result files: one row per (metric,
/// workload) with both values, the ratio B ÷ A and its base, exact
/// metrics marked when they differ at all. Returns the rendered table
/// and the number of breaches.
pub fn compare(a: &Value, b: &Value) -> (String, usize) {
    let mut out = String::new();
    let mut breaches = 0;
    let seed = |doc: &Value| doc.get("factors").and_then(|f| f.get("seed")?.as_f64());
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    out.push_str(&format!(
        "{:<16} {:<36} {:>16} {:>16} {:>9}  {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "verdict"
    ));
    let records = |doc: &Value| {
        doc.get("records")
            .map(Value::items)
            .unwrap_or_default()
            .to_vec()
    };
    for ra in records(a) {
        let name = ra.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(rb) = records(b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            out.push_str(&format!("{name:<16} missing from B\n"));
            breaches += 1;
            continue;
        };
        for r in [&ra, &rb] {
            let failed = r.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            if failed != 0.0 {
                breaches += 1;
                let of = r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
                out.push_str(&format!(
                    "{name:<16} fail_frac: {failed} of {of} units failed  BREACH\n"
                ));
            }
        }
        if same_seed {
            let (da, db) = (ra.get("digest"), rb.get("digest"));
            if da != db {
                breaches += 1;
                out.push_str(&format!(
                    "{name:<16} digest {da:?} != {db:?}  BREACH (exact)\n"
                ));
            }
            for (key, va) in ra.get("sim").map(Value::members).unwrap_or_default() {
                let va = va.as_f64().unwrap_or(f64::NAN);
                let vb = rb
                    .get("sim")
                    .and_then(|m| m.get(key)?.as_f64())
                    .unwrap_or(f64::NAN);
                let differs = va.to_bits() != vb.to_bits();
                breaches += usize::from(differs);
                let verdict = if differs { "BREACH (exact)" } else { "exact" };
                out.push_str(&compare_row(name, &format!("sim.{key}"), va, vb, verdict));
            }
        }
        if let Some(ma) = ra.get("metrics") {
            breaches += compare_metrics(name, ma, rb.get("metrics"), same_seed, &mut out);
        }
    }
    if let Some(la) = a.get("layers") {
        breaches += compare_metrics("(layers)", la, b.get("layers"), same_seed, &mut out);
    }
    out.push_str(&format!(
        "{breaches} breach(es); ratios are B ÷ A with A as the base{}\n",
        if same_seed {
            ""
        } else {
            "; seeds differ, exact metrics not compared"
        }
    ));
    (out, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(unit_ms: f64, digest: u64) -> Value {
        let rec = Record {
            workload: "hca3_scale",
            seed: 1,
            trace: false,
            ranks: 64,
            engine: "Events".to_string(),
            jobs: 1,
            cpus: "0 of 0-1".to_string(),
            unit_ms: vec![unit_ms],
            attempted: 3,
            failed: 0,
            errors: Vec::new(),
            digest,
            sim: (10, 0.5, 1.5),
            metrics: vec![Metric::new("unit_ms_p50", unit_ms, "ms", 1)],
        };
        result_file(obj([("seed", n(1))]), vec![rec.detail()], None)
    }

    #[test]
    fn compare_applies_bounds_and_exactness() {
        assert_eq!(compare(&doc(100.0, 7), &doc(120.0, 7)).1, 0);
        assert_eq!(compare(&doc(100.0, 7), &doc(130.0, 7)).1, 1);
        assert_eq!(compare(&doc(100.0, 7), &doc(100.0, 8)).1, 1);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let d = doc(1.0, 1);
        let rec = &d.get("records").unwrap().items()[0];
        assert!(rec.get("metrics").unwrap().get("unit_ms_p50").is_some());
        let line = Record {
            workload: "x",
            seed: 0,
            trace: false,
            ranks: 1,
            engine: String::new(),
            jobs: 1,
            cpus: String::new(),
            unit_ms: vec![1.0],
            attempted: 1,
            failed: 0,
            errors: Vec::new(),
            digest: 0,
            sim: (0, 0.0, 0.0),
            metrics: Vec::new(),
        }
        .contract_line();
        let keys: Vec<_> = crate::json::parse(&line)
            .unwrap()
            .members()
            .iter()
            .map(|m| m.0.clone())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
