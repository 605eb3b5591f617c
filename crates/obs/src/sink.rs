//! Post-run sinks over a merged [`TraceLog`].
//!
//! All three sinks are pure functions of the log, and the log is a pure
//! function of the master seed, so their output is byte-identical
//! across runs (and across execution engines). Floating-point
//! values are printed with Rust's shortest-round-trip `Display`, which
//! is deterministic.

use std::collections::BTreeMap;

use crate::record::{Event, TraceLog};

/// Renders the log as Chrome `trace_event` JSON (the "JSON object
/// format"), loadable in chrome://tracing and Perfetto.
///
/// Mapping: one thread (`tid` = rank) per rank under `pid` 0; spans
/// become `B`/`E` pairs, compute slices become complete (`X`) events,
/// notes become instants, counters become `C` events, and matched
/// send/recv pairs become zero-duration `X` markers joined by a flow
/// arrow (`s`/`f` with a shared id). Timestamps are virtual-time
/// microseconds.
pub fn chrome_trace(log: &TraceLog) -> String {
    let ids = flow_ids(log);
    let mut rows: Vec<String> = Vec::new();
    for rec in log.ranks() {
        let tid = rec.rank();
        rows.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"rank {tid}\"}}}}"
        ));
    }
    for (ri, rec) in log.ranks().iter().enumerate() {
        let tid = rec.rank();
        for (ei, ev) in rec.events().iter().enumerate() {
            match *ev {
                Event::Enter {
                    secs,
                    name,
                    seq,
                    reads,
                } => {
                    let ts = micros(secs);
                    let name = escape_json(rec.name(name));
                    let mut args = format!("\"seq\":{seq}");
                    push_reads(&mut args, reads.local, reads.global);
                    rows.push(format!(
                        "{{\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\"args\":{{{args}}}}}"
                    ));
                }
                Event::Exit { secs, name, reads } => {
                    let ts = micros(secs);
                    let name = escape_json(rec.name(name));
                    let mut args = String::new();
                    push_reads(&mut args, reads.local, reads.global);
                    rows.push(format!(
                        "{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\"args\":{{{args}}}}}"
                    ));
                }
                Event::Note { secs, name } => {
                    let ts = micros(secs);
                    let name = escape_json(rec.name(name));
                    rows.push(format!(
                        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\"s\":\"t\"}}"
                    ));
                }
                Event::Counter { secs, name, value } => {
                    let ts = micros(secs);
                    let name = escape_json(rec.name(name));
                    rows.push(format!(
                        "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\"args\":{{\"value\":{value}}}}}"
                    ));
                }
                Event::Compute { secs, dur } => {
                    let ts = micros(secs);
                    let micros_dur = micros(dur);
                    rows.push(format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{micros_dur},\"name\":\"compute\"}}"
                    ));
                }
                Event::Send {
                    secs,
                    peer,
                    tag,
                    bytes,
                } => {
                    let ts = micros(secs);
                    rows.push(format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":0,\"name\":\"send {tag:#x} -> {peer}\",\"args\":{{\"bytes\":{bytes}}}}}"
                    ));
                    if let Some(id) = ids.send[ri].get(&ei) {
                        rows.push(format!(
                            "{{\"ph\":\"s\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"id\":{id},\"name\":\"msg\",\"cat\":\"msg\"}}"
                        ));
                    }
                }
                Event::Recv {
                    secs,
                    peer,
                    tag,
                    bytes,
                } => {
                    let ts = micros(secs);
                    rows.push(format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":0,\"name\":\"recv {tag:#x} <- {peer}\",\"args\":{{\"bytes\":{bytes}}}}}"
                    ));
                    if let Some(id) = ids.recv[ri].get(&ei) {
                        rows.push(format!(
                            "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"id\":{id},\"name\":\"msg\",\"cat\":\"msg\"}}"
                        ));
                    }
                }
            }
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        rows.join(",\n")
    )
}

/// Machine-readable per-rank summary: event/drop counts, message
/// traffic, total compute, and per-span-name call counts and inclusive
/// totals (virtual-time seconds).
pub fn summary_json(log: &TraceLog) -> String {
    struct Agg {
        count: u64,
        total: f64,
    }
    let mut rank_rows: Vec<String> = Vec::new();
    for rec in log.ranks() {
        let mut sent_msgs: u64 = 0;
        let mut sent_bytes: u64 = 0;
        let mut recv_msgs: u64 = 0;
        let mut recv_bytes: u64 = 0;
        let mut compute_total = 0.0f64;
        let mut open: Vec<f64> = Vec::new();
        let mut spans: BTreeMap<u32, Agg> = BTreeMap::new();
        for ev in rec.events() {
            match *ev {
                Event::Enter { secs, .. } => open.push(secs),
                Event::Exit { secs, name, .. } => {
                    if let Some(begin) = open.pop() {
                        let agg = spans.entry(name).or_insert(Agg {
                            count: 0,
                            total: 0.0,
                        });
                        agg.count += 1;
                        agg.total += secs - begin;
                    }
                }
                Event::Send { bytes, .. } => {
                    sent_msgs += 1;
                    sent_bytes += bytes as u64;
                }
                Event::Recv { bytes, .. } => {
                    recv_msgs += 1;
                    recv_bytes += bytes as u64;
                }
                Event::Compute { dur, .. } => compute_total += dur,
                Event::Note { .. } | Event::Counter { .. } => {}
            }
        }
        let span_rows: Vec<String> = spans
            .iter()
            .map(|(name, agg)| {
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"total_secs\":{}}}",
                    escape_json(rec.name(*name)),
                    agg.count,
                    agg.total
                )
            })
            .collect();
        rank_rows.push(format!(
            "{{\"rank\":{},\"events\":{},\"dropped\":{},\"sent_msgs\":{sent_msgs},\"sent_bytes\":{sent_bytes},\"recv_msgs\":{recv_msgs},\"recv_bytes\":{recv_bytes},\"compute_secs\":{compute_total},\"spans\":[{}]}}",
            rec.rank(),
            rec.events().len(),
            rec.dropped(),
            span_rows.join(",")
        ));
    }
    format!(
        "{{\"ranks\":[\n{}\n],\"total_events\":{},\"total_dropped\":{}}}\n",
        rank_rows.join(",\n"),
        log.total_events(),
        log.total_dropped()
    )
}

/// Plain-text flamegraph-style report: one line per distinct span
/// *stack* (`outer;inner` folded notation) with call count and
/// inclusive virtual-time seconds, grouped per rank.
pub fn flame_report(log: &TraceLog) -> String {
    struct Agg {
        count: u64,
        total: f64,
    }
    let mut out = String::new();
    for rec in log.ranks() {
        out.push_str(&format!("rank {}\n", rec.rank()));
        let mut path: Vec<u32> = Vec::new();
        let mut open: Vec<f64> = Vec::new();
        let mut folded: BTreeMap<String, Agg> = BTreeMap::new();
        for ev in rec.events() {
            match *ev {
                Event::Enter { secs, name, .. } => {
                    path.push(name);
                    open.push(secs);
                }
                Event::Exit { secs, .. } => {
                    if let Some(begin) = open.pop() {
                        let key = path
                            .iter()
                            .map(|&id| rec.name(id))
                            .collect::<Vec<_>>()
                            .join(";");
                        let agg = folded.entry(key).or_insert(Agg {
                            count: 0,
                            total: 0.0,
                        });
                        agg.count += 1;
                        agg.total += secs - begin;
                        path.pop();
                    }
                }
                _ => {}
            }
        }
        for (key, agg) in &folded {
            out.push_str(&format!(
                "  {key} calls={} total={:.9}s\n",
                agg.count, agg.total
            ));
        }
        if rec.dropped() > 0 {
            out.push_str(&format!("  ({} events dropped)\n", rec.dropped()));
        }
    }
    out
}

/// Per-rank event-index → flow-id maps for matched send/recv pairs.
struct FlowIds {
    send: Vec<BTreeMap<usize, u64>>,
    recv: Vec<BTreeMap<usize, u64>>,
}

/// Reconstructs message flows without envelope ids: for each
/// `(src, dst, tag)` channel, the sender's `Send` events and the
/// receiver's `Recv` events are matched FIFO (the engine guarantees
/// non-overtaking per channel), and each matched pair gets a fresh id.
/// Unmatched tails (messages still in flight at run end, or edges lost
/// to buffer capacity) simply carry no arrow.
fn flow_ids(log: &TraceLog) -> FlowIds {
    let n = log.ranks().len();
    let mut sends: BTreeMap<(u32, u32, u32), Vec<(usize, usize)>> = BTreeMap::new();
    let mut recvs: BTreeMap<(u32, u32, u32), Vec<(usize, usize)>> = BTreeMap::new();
    for (ri, rec) in log.ranks().iter().enumerate() {
        for (ei, ev) in rec.events().iter().enumerate() {
            match *ev {
                Event::Send { peer, tag, .. } => {
                    sends
                        .entry((rec.rank(), peer, tag))
                        .or_default()
                        .push((ri, ei));
                }
                Event::Recv { peer, tag, .. } => {
                    recvs
                        .entry((peer, rec.rank(), tag))
                        .or_default()
                        .push((ri, ei));
                }
                _ => {}
            }
        }
    }
    let mut ids = FlowIds {
        send: vec![BTreeMap::new(); n],
        recv: vec![BTreeMap::new(); n],
    };
    let mut next_id: u64 = 1;
    for (key, send_sites) in &sends {
        let Some(recv_sites) = recvs.get(key) else {
            continue;
        };
        for (&(sri, sei), &(rri, rei)) in send_sites.iter().zip(recv_sites.iter()) {
            ids.send[sri].insert(sei, next_id);
            ids.recv[rri].insert(rei, next_id);
            next_id += 1;
        }
    }
    ids
}

/// Virtual-time seconds → microseconds, rendered with `Display` (which
/// is shortest-round-trip and therefore deterministic).
fn micros(secs: f64) -> String {
    format!("{}", secs * 1e6)
}

fn push_reads(args: &mut String, local: Option<f64>, global: Option<f64>) {
    if let Some(v) = local {
        if !args.is_empty() {
            args.push(',');
        }
        args.push_str(&format!("\"local\":{v}"));
    }
    if let Some(v) = global {
        if !args.is_empty() {
            args.push(',');
        }
        args.push_str(&format!("\"global\":{v}"));
    }
}

/// Minimal JSON string escaping for event names (quote, backslash,
/// control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ClockReadings, RankRecorder};

    fn two_rank_log() -> TraceLog {
        let mut a = RankRecorder::new(0, 64);
        a.enter(1.0, "sync/test", 0, ClockReadings::global(1.001));
        a.send(1.5, 1, 0x42, 8);
        a.compute(2.0, 0.25);
        a.exit(3.0, ClockReadings::NONE);
        a.counter(3.5, "drift", 1e-6);
        let mut b = RankRecorder::new(1, 64);
        b.recv(2.5, 0, 0x42, 8);
        b.note(2.6, "rep/invalid");
        TraceLog::new(vec![a, b])
    }

    #[test]
    fn chrome_trace_has_all_phases_and_balanced_braces() {
        let json = chrome_trace(&two_rank_log());
        for phase in [
            "\"ph\":\"M\"",
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"s\"",
            "\"ph\":\"f\"",
        ] {
            assert!(json.contains(phase), "missing {phase} in:\n{json}");
        }
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn send_recv_pairs_share_a_flow_id() {
        let json = chrome_trace(&two_rank_log());
        let start = json
            .lines()
            .find(|l| l.contains("\"ph\":\"s\""))
            .expect("flow start present");
        let finish = json
            .lines()
            .find(|l| l.contains("\"ph\":\"f\""))
            .expect("flow finish present");
        assert!(start.contains("\"id\":1"), "{start}");
        assert!(finish.contains("\"id\":1"), "{finish}");
    }

    #[test]
    fn unmatched_send_gets_no_flow() {
        let mut a = RankRecorder::new(0, 8);
        a.send(1.0, 1, 7, 4);
        let log = TraceLog::new(vec![a, RankRecorder::new(1, 8)]);
        let json = chrome_trace(&log);
        assert!(!json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("send 0x7 -> 1"));
    }

    #[test]
    fn summary_aggregates_spans_and_traffic() {
        let log = two_rank_log();
        let json = summary_json(&log);
        assert!(
            json.contains("\"name\":\"sync/test\",\"count\":1,\"total_secs\":2}"),
            "{json}"
        );
        assert!(json.contains("\"sent_msgs\":1"));
        assert!(json.contains("\"recv_msgs\":1"));
        assert!(json.contains("\"compute_secs\":0.25"));
        assert!(json.contains("\"total_events\":7"));
    }

    #[test]
    fn flame_report_folds_nested_stacks() {
        let mut a = RankRecorder::new(0, 64);
        a.enter(0.0, "outer", 0, ClockReadings::NONE);
        a.enter(1.0, "inner", 0, ClockReadings::NONE);
        a.exit(2.0, ClockReadings::NONE);
        a.exit(4.0, ClockReadings::NONE);
        let report = flame_report(&TraceLog::new(vec![a]));
        assert!(report.contains("outer;inner calls=1"), "{report}");
        assert!(report.contains("outer calls=1 total=4.0"), "{report}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("tab\tx"), "tab\\u0009x");
    }
}
