//! Host-time phase spans, recorded by the benchmark's own code around
//! the public calls into each layer.
//!
//! Spans live in memory (name, start, end, parent span, unit id) and are
//! written out once, when the traced run ends, in Chrome `trace_event`
//! format. A disabled [`Tracer`] reads no clock at all, so end-to-end
//! timings are taken with spans off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::{n, obj, s, Value};

/// One recorded span. Times are nanoseconds since the tracer's base.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (`build`, `dispatch`, `sync`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer base.
    pub start_ns: u64,
    /// End, ns since the tracer base.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a unit root.
    pub parent: Option<usize>,
    /// The unit this span belongs to (shared by all spans of one unit).
    pub unit: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u32,
}

impl Tracer {
    /// A tracer that records when `on`, and is a no-op otherwise.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording (a traced run alternates traced and untraced
    /// units to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the unit id stamped on subsequently recorded spans.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the current one.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Runs one cluster run inside a `run` span and tiles it with the
    /// phases its rank 0 stamped: `dispatch` (run entered → rank 0's
    /// first body line), one span per name in `phases` (between
    /// consecutive stamps), and `join` (rank 0's last stamp → run
    /// returned). A stamp that is missing because rank 0 unwound (a
    /// timed-out receive) ends its phase at the run's return.
    pub fn run<T>(&mut self, phases: &[&'static str], f: impl FnOnce(&Marks) -> T) -> T {
        let marks = Marks::new(self.on, self.base);
        if !self.on {
            return f(&marks);
        }
        self.scope("run", |tr| {
            let run = tr.spans.len() - 1;
            let out = f(&marks);
            let end_ns = tr.ns(Instant::now());
            let stamps: Vec<u64> = (0..=phases.len()).map_while(|i| marks.get(i)).collect();
            let names = ["dispatch"].iter().chain(phases).chain(&["join"]).copied();
            let mut from = tr.spans[run].start_ns;
            for (i, name) in names.enumerate() {
                let to = stamps.get(i).copied().unwrap_or(end_ns);
                tr.spans.push(Span {
                    name,
                    start_ns: from,
                    end_ns: to.max(from),
                    parent: Some(run),
                    unit: tr.unit,
                });
                from = to.max(from);
                if i >= stamps.len() {
                    break;
                }
            }
            out
        })
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in ns: each span's duration minus the
    /// part its child spans cover; plus the number of spans per name.
    /// Self times of one unit sum to the unit root's duration.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += sp.end_ns - sp.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (sp, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(sp.name).or_insert((0u64, 0u64));
            e.0 += (sp.end_ns - sp.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (complete events,
    /// one track per unit; open in chrome://tracing or Perfetto).
    pub fn trace_event_json(&self, process_name: &str) -> String {
        let mut events = vec![obj([
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", n(1)),
            ("args", obj([("name", s(process_name))])),
        ])];
        for (i, sp) in self.spans.iter().enumerate() {
            events.push(obj([
                ("name", s(sp.name)),
                ("cat", s("phase")),
                ("ph", s("X")),
                ("pid", n(1)),
                ("tid", n(sp.unit)),
                ("ts", n(sp.start_ns as f64 / 1e3)),
                ("dur", n((sp.end_ns - sp.start_ns) as f64 / 1e3)),
                (
                    "args",
                    obj([
                        ("span", n(i as u32)),
                        ("parent", sp.parent.map_or(Value::Null, |p| n(p as u32))),
                        ("unit", n(sp.unit)),
                    ]),
                ),
            ]));
        }
        obj([
            ("displayTimeUnit", s("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
        .render()
    }
}

/// Host timestamps taken by rank 0 inside a rank body. Atomics (not a
/// return value) because a rank whose receive times out unwinds and
/// returns nothing; the run's join orders the stores before the reads.
pub struct Marks {
    on: bool,
    base: Instant,
    t: [AtomicU64; 4],
}

impl Marks {
    fn new(on: bool, base: Instant) -> Self {
        Self {
            on,
            base,
            t: Default::default(),
        }
    }

    /// Stamps boundary `i` with the current host time (rank 0 of a
    /// traced unit only; a no-op otherwise).
    pub fn stamp(&self, rank: usize, i: usize) {
        if self.on && rank == 0 {
            let ns = self.base.elapsed().as_nanos() as u64;
            self.t[i].store(ns.max(1), Ordering::SeqCst);
        }
    }

    fn get(&self, i: usize) -> Option<u64> {
        let ns = self.t.get(i)?.load(Ordering::SeqCst);
        (ns != 0).then_some(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_unit() {
        let mut tr = Tracer::new(true);
        tr.scope("unit", |tr| {
            tr.scope("build", |_| std::hint::black_box(0));
            tr.run(&["sync", "check"], |m| {
                m.stamp(0, 0);
                m.stamp(0, 1);
                m.stamp(1, 2); // not rank 0: ignored, so `check` runs to the end
            });
        });
        let unit = &tr.spans()[0];
        let total: u64 = tr.self_times().values().map(|v| v.0).sum();
        assert_eq!(total, unit.end_ns - unit.start_ns);
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["unit", "build", "run", "dispatch", "sync", "check"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.scope("unit", |tr| tr.run(&["sync"], |m| m.stamp(0, 0)));
        assert!(tr.spans().is_empty());
    }
}
