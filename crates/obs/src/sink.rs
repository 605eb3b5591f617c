//! Post-run sinks over a merged [`TraceLog`].
//!
//! All three sinks are pure functions of the log, and the log is a pure
//! function of the master seed, so their output is byte-identical
//! across runs (and across execution engines). Finite floating-point
//! values are printed in the bytes of Rust's shortest-round-trip
//! `Display`, written by the in-crate `float` module, whose tests pin it
//! against `Display` itself; non-finite ones, which JSON cannot spell,
//! become `null`.
//!
//! The sinks write straight into their output: no row, name or number
//! is materialized as a `String` of its own on a per-event path.
//! [`chrome_trace`] and [`write_chrome_trace`] are two entry points
//! over one emitter; the second holds one fixed-size chunk of text and
//! 8 bytes of flow id per event instead of the whole trace, so a trace
//! file can be larger than memory left beside its log. The emitter
//! matches message flows rank by rank, with no log-wide sort, and
//! formats a timestamp or a compute duration only when it differs from
//! the one written before it; otherwise it copies that one's text.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::io;

use crate::float;
use crate::record::{ClockReadings, Event, TraceLog};

/// Text [`write_chrome_trace`] accumulates before it calls the writer.
const CHUNK_BYTES: usize = 64 << 10;

/// Capacity [`chrome_trace`] reserves per event and per rank. A matched
/// message (an `X` row plus its flow row) is ≈ 190 bytes and every
/// other row, a rank's metadata row included, is shorter, so the buffer
/// of a typical log never regrows, and the tail it does not fill is
/// never touched.
const BYTES_PER_EVENT_HINT: usize = 192;

/// Renders the log as Chrome `trace_event` JSON (the "JSON object
/// format"), loadable in chrome://tracing and Perfetto.
///
/// Mapping: one thread (`tid` = rank) per rank under `pid` 0; spans
/// become `B`/`E` pairs, compute slices become complete (`X`) events,
/// notes become instants, counters become `C` events, and matched
/// send/recv pairs become zero-duration `X` markers joined by a flow
/// arrow (`s`/`f` with a shared id). A rank that dropped events to its
/// buffer capacity ends with one `obs/dropped` instant carrying the
/// count. Timestamps are virtual-time microseconds.
pub fn chrome_trace(log: &TraceLog) -> String {
    let rows = log.total_events() + log.ranks().len();
    let mut out = String::with_capacity(rows * BYTES_PER_EVENT_HINT);
    match emit_trace(log, &mut out, |_| Ok::<(), Infallible>(())) {
        Ok(()) => out,
        Err(never) => match never {},
    }
}

/// Writes exactly the bytes of [`chrome_trace`] to `w`, one
/// `write_all` per [`CHUNK_BYTES`] of text, without ever holding the
/// whole trace: live memory is the log, 8 bytes per event of flow ids
/// (plus 16 per message end while they are being matched) and the
/// chunk. The first error of the writer is returned as is; `w` is not
/// flushed.
pub fn write_chrome_trace(log: &TraceLog, w: &mut impl io::Write) -> io::Result<()> {
    // Twice the mark, so the event that crosses it does not regrow it.
    let mut chunk = String::with_capacity(2 * CHUNK_BYTES);
    emit_trace(log, &mut chunk, |chunk| -> io::Result<()> {
        if chunk.len() >= CHUNK_BYTES {
            w.write_all(chunk.as_bytes())?;
            chunk.clear();
        }
        Ok(())
    })?;
    w.write_all(chunk.as_bytes())
}

/// The one chrome-trace emitter: appends the trace to `out` and calls
/// `flush_point(out)` between events, never inside one; the callee may
/// drain `out` (the streaming entry point) or leave it alone (the
/// `String` one).
fn emit_trace<E>(
    log: &TraceLog,
    out: &mut String,
    mut flush_point: impl FnMut(&mut String) -> Result<(), E>,
) -> Result<(), E> {
    let flows = flow_ids(log);
    out.push_str("{\"traceEvents\":[\n");
    for (ri, rec) in log.ranks().iter().enumerate() {
        // The first metadata row is the first row of the array; every
        // later row, of any kind, carries its own leading separator.
        out.push_str(if ri == 0 { "{" } else { ",\n{" });
        out.push_str("\"ph\":\"M\",\"pid\":0,\"tid\":");
        push_int::<10>(out, rec.rank().into());
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"rank ");
        push_int::<10>(out, rec.rank().into());
        out.push_str("\"}}");
        flush_point(out)?;
    }
    // Every timestamp goes through `ts` and every compute duration
    // through `dur`, so a value equal to the previous one is copied.
    let (mut ts, mut dur) = (Memo::new(), Memo::new());
    // `"pid":0,"tid":<rank>,"ts":`, rendered once per rank.
    let mut head = String::new();
    for (rec, flow) in log.ranks().iter().zip(&flows) {
        head.clear();
        head.push_str("\"pid\":0,\"tid\":");
        push_int::<10>(&mut head, rec.rank().into());
        head.push_str(",\"ts\":");
        // Escaped once per recorder, copied once per event.
        let names: Vec<String> = rec.names().iter().map(|n| escape_json(n)).collect();
        let name = |id: u32| names.get(id as usize).map_or("<unknown>", String::as_str);
        for (ev, &flow_id) in rec.events().iter().zip(flow) {
            match *ev {
                Event::Enter {
                    secs,
                    name: id,
                    seq,
                    reads,
                } => {
                    push_named(out, ",\n{\"ph\":\"B\",", &head, &mut ts, secs, name(id));
                    out.push_str(",\"args\":{\"seq\":");
                    push_int::<10>(out, seq.into());
                    push_readings(out, reads, true);
                    out.push_str("}}");
                }
                Event::Exit {
                    secs,
                    name: id,
                    reads,
                } => {
                    push_named(out, ",\n{\"ph\":\"E\",", &head, &mut ts, secs, name(id));
                    out.push_str(",\"args\":{");
                    push_readings(out, reads, false);
                    out.push_str("}}");
                }
                Event::Note { secs, name: id } => {
                    push_named(out, ",\n{\"ph\":\"i\",", &head, &mut ts, secs, name(id));
                    out.push_str(",\"s\":\"t\"}");
                }
                Event::Counter {
                    secs,
                    name: id,
                    value,
                } => {
                    push_named(out, ",\n{\"ph\":\"C\",", &head, &mut ts, secs, name(id));
                    out.push_str(",\"args\":{\"value\":");
                    push_f64(out, value);
                    out.push_str("}}");
                }
                Event::Compute { secs, dur: d } => {
                    out.push_str(",\n{\"ph\":\"X\",");
                    out.push_str(&head);
                    ts.push(out, secs * 1e6);
                    out.push_str(",\"dur\":");
                    dur.push(out, d * 1e6);
                    out.push_str(",\"name\":\"compute\"}");
                }
                Event::Send {
                    secs,
                    peer,
                    tag,
                    bytes,
                }
                | Event::Recv {
                    secs,
                    peer,
                    tag,
                    bytes,
                } => {
                    let (verb, arrow, flow_row) = match ev {
                        Event::Send { .. } => ("send 0x", " -> ", ",\n{\"ph\":\"s\","),
                        _ => ("recv 0x", " <- ", ",\n{\"ph\":\"f\",\"bp\":\"e\","),
                    };
                    out.push_str(",\n{\"ph\":\"X\",");
                    out.push_str(&head);
                    ts.push(out, secs * 1e6);
                    out.push_str(",\"dur\":0,\"name\":\"");
                    out.push_str(verb);
                    push_int::<16>(out, tag.into());
                    out.push_str(arrow);
                    push_int::<10>(out, peer.into());
                    out.push_str("\",\"args\":{\"bytes\":");
                    push_int::<10>(out, bytes.into());
                    out.push_str("}}");
                    if flow_id != 0 {
                        out.push_str(flow_row);
                        out.push_str(&head);
                        ts.push(out, secs * 1e6);
                        out.push_str(",\"id\":");
                        push_int::<10>(out, flow_id);
                        out.push_str(",\"name\":\"msg\",\"cat\":\"msg\"}");
                    }
                }
            }
            flush_point(out)?;
        }
        if rec.dropped() > 0 {
            let last_secs = rec.events().last().map_or(0.0, Event::secs);
            push_named(
                out,
                ",\n{\"ph\":\"i\",",
                &head,
                &mut ts,
                last_secs,
                "obs/dropped",
            );
            out.push_str(",\"s\":\"t\",\"args\":{\"count\":");
            push_int::<10>(out, rec.dropped());
            out.push_str("}}");
            flush_point(out)?;
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    Ok(())
}

/// Starts a row that carries a name: separator and phase (`open`), the
/// rank's `head`, the timestamp and the (already escaped) name.
fn push_named(out: &mut String, open: &str, head: &str, ts: &mut Memo, secs: f64, name: &str) {
    out.push_str(open);
    out.push_str(head);
    ts.push(out, secs * 1e6);
    out.push_str(",\"name\":\"");
    out.push_str(name);
    out.push('"');
}

/// The text of the last float one field of the trace wrote. Timestamps
/// repeat (a receive and the clock read after it share an instant, a
/// message row and its flow row always do) and compute durations take
/// a handful of values, so most writes are a copy, not a formatting.
struct Memo {
    bits: u64,
    text: String,
}

impl Memo {
    fn new() -> Self {
        let mut text = String::new();
        push_f64(&mut text, 0.0);
        Self {
            bits: 0.0f64.to_bits(),
            text,
        }
    }

    /// Appends `v` as [`push_f64`] would.
    fn push(&mut self, out: &mut String, v: f64) {
        if v.to_bits() != self.bits {
            self.bits = v.to_bits();
            self.text.clear();
            push_f64(&mut self.text, v);
        }
        out.push_str(&self.text);
    }
}

/// Call count and inclusive virtual-time total of one span name or one
/// span stack.
#[derive(Clone, Copy, Default)]
struct Agg {
    count: u64,
    total: f64,
}

impl Agg {
    fn add(&mut self, dur: f64) {
        self.count += 1;
        self.total += dur;
    }
}

/// Machine-readable per-rank summary: event/drop counts, message
/// traffic, total compute, and per-span-name call counts and inclusive
/// totals (virtual-time seconds).
pub fn summary_json(log: &TraceLog) -> String {
    let mut out = String::from("{\"ranks\":[\n");
    let mut open: Vec<f64> = Vec::new();
    // Indexed by `NameId`, which is also the order the rows come out in.
    let mut spans: Vec<Agg> = Vec::new();
    for (ri, rec) in log.ranks().iter().enumerate() {
        let mut sent_msgs: u64 = 0;
        let mut sent_bytes: u64 = 0;
        let mut recv_msgs: u64 = 0;
        let mut recv_bytes: u64 = 0;
        let mut compute_total = 0.0f64;
        open.clear();
        spans.clear();
        spans.resize(rec.names().len(), Agg::default());
        for ev in rec.events() {
            match *ev {
                Event::Enter { secs, .. } => open.push(secs),
                Event::Exit { secs, name, .. } => {
                    if let Some(begin) = open.pop() {
                        spans[name as usize].add(secs - begin);
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
        out.push_str(if ri == 0 {
            "{\"rank\":"
        } else {
            ",\n{\"rank\":"
        });
        push_int::<10>(&mut out, rec.rank().into());
        for (key, v) in [
            ("events", rec.events().len() as u64),
            ("dropped", rec.dropped()),
            ("sent_msgs", sent_msgs),
            ("sent_bytes", sent_bytes),
            ("recv_msgs", recv_msgs),
            ("recv_bytes", recv_bytes),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            push_int::<10>(&mut out, v);
        }
        out.push_str(",\"compute_secs\":");
        push_f64(&mut out, compute_total);
        out.push_str(",\"spans\":[");
        let mut any = false;
        for (name, agg) in rec.names().iter().zip(&spans) {
            if agg.count == 0 {
                continue;
            }
            out.push_str(if any { ",{\"name\":\"" } else { "{\"name\":\"" });
            any = true;
            out.push_str(&escape_json(name));
            out.push_str("\",\"count\":");
            push_int::<10>(&mut out, agg.count);
            out.push_str(",\"total_secs\":");
            push_f64(&mut out, agg.total);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("\n],\"total_events\":");
    push_int::<10>(&mut out, log.total_events() as u64);
    out.push_str(",\"total_dropped\":");
    push_int::<10>(&mut out, log.total_dropped());
    out.push_str("}\n");
    out
}

/// Plain-text flamegraph-style report: one line per distinct span
/// *stack* (`outer;inner` folded notation) with call count and
/// inclusive virtual-time seconds, grouped per rank.
pub fn flame_report(log: &TraceLog) -> String {
    let mut out = String::new();
    // The stack being closed, folded; owned by the map only the first
    // time that stack is seen.
    let mut key = String::new();
    for rec in log.ranks() {
        out.push_str("rank ");
        push_int::<10>(&mut out, rec.rank().into());
        out.push('\n');
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
                        key.clear();
                        for (depth, &id) in path.iter().enumerate() {
                            if depth > 0 {
                                key.push(';');
                            }
                            key.push_str(rec.name(id));
                        }
                        match folded.get_mut(key.as_str()) {
                            Some(agg) => agg.add(secs - begin),
                            None => {
                                let mut agg = Agg::default();
                                agg.add(secs - begin);
                                folded.insert(key.clone(), agg);
                            }
                        }
                        path.pop();
                    }
                }
                _ => {}
            }
        }
        // Writing to a `String` cannot fail.
        for (key, agg) in &folded {
            let _ = writeln!(out, "  {key} calls={} total={:.9}s", agg.count, agg.total);
        }
        if rec.dropped() > 0 {
            let _ = writeln!(out, "  ({} events dropped)", rec.dropped());
        }
    }
    out
}

/// One end of a message as its own rank sees it: the peer and the tag,
/// packed as `peer << 32 | tag` (the sort key), then where the event
/// sits (recorder index, event index).
#[derive(Clone, Copy)]
struct End {
    key: u64,
    ri: u32,
    ei: u32,
}

impl End {
    fn peer(self) -> u32 {
        (self.key >> 32) as u32
    }

    fn tag(self) -> u32 {
        self.key as u32
    }
}

/// Reconstructs message flows without envelope ids: for each
/// `(src, dst, tag)` channel, the sender's `Send` events and the
/// receiver's `Recv` events are matched FIFO (the engine guarantees
/// non-overtaking per channel), and each matched pair gets a fresh id,
/// counted from 1 in channel order. Unmatched tails (messages still in
/// flight at run end, or edges lost to buffer capacity) simply carry no
/// arrow. Returns, per recorder, the flow id of each event (0 = none).
///
/// There is no log-wide sort. Each rank (its recorders in index order)
/// lists its own sends by `(dst, tag)` and its receives by `(src, tag)`,
/// in event order, so sorting a list is local and keeps FIFO order.
/// Sender ranks are then walked in ascending order, and each of a
/// sender's `(src, dst)` runs is merged by tag with the receiver's `src`
/// run, which a per-receiver cursor reaches by only moving forward.
fn flow_ids(log: &TraceLog) -> Vec<Vec<u64>> {
    let recs = log.ranks();
    let mut ids: Vec<Vec<u64>> = recs.iter().map(|rec| vec![0; rec.events().len()]).collect();
    let n = u32::try_from(recs.len()).expect("a log holds fewer than 2^32 recorders");
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_unstable_by_key(|&ri| (recs[ri as usize].rank(), ri));
    let ranks: Vec<&[u32]> = order
        .chunk_by(|&a, &b| recs[a as usize].rank() == recs[b as usize].rank())
        .collect();
    let rank_of = |group: &[u32]| recs[group[0] as usize].rank();

    // Counted first so neither list ever regrows: their exact size is
    // the memory bound `write_chrome_trace` documents.
    let (mut n_sends, mut n_recvs) = (0, 0);
    for ev in recs.iter().flat_map(|rec| rec.events()) {
        match ev {
            Event::Send { .. } => n_sends += 1,
            Event::Recv { .. } => n_recvs += 1,
            _ => {}
        }
    }
    let mut sends: Vec<End> = Vec::with_capacity(n_sends);
    let mut recvs: Vec<End> = Vec::with_capacity(n_recvs);
    // Rank `g`'s ends are `sends[send_at[g]..send_at[g + 1]]` and
    // `recvs[recv_at[g]..recv_at[g + 1]]`.
    let mut send_at: Vec<usize> = Vec::with_capacity(ranks.len() + 1);
    let mut recv_at: Vec<usize> = Vec::with_capacity(ranks.len() + 1);
    for group in &ranks {
        let (s0, r0) = (sends.len(), recvs.len());
        send_at.push(s0);
        recv_at.push(r0);
        for &ri in *group {
            for (ei, ev) in recs[ri as usize].events().iter().enumerate() {
                let ei = u32::try_from(ei).expect("a recorder holds fewer than 2^32 events");
                let end = |peer: u32, tag: u32| End {
                    key: u64::from(peer) << 32 | u64::from(tag),
                    ri,
                    ei,
                };
                match *ev {
                    Event::Send { peer, tag, .. } => sends.push(end(peer, tag)),
                    Event::Recv { peer, tag, .. } => recvs.push(end(peer, tag)),
                    _ => {}
                }
            }
        }
        sort_if_unsorted(&mut sends[s0..]);
        sort_if_unsorted(&mut recvs[r0..]);
    }
    send_at.push(sends.len());
    recv_at.push(recvs.len());

    // Per receiving rank, the first receive not yet passed by a sender.
    let mut cursor = recv_at.clone();
    let mut next_id: u64 = 1;
    for (g, group) in ranks.iter().enumerate() {
        let src = rank_of(group);
        for run in sends[send_at[g]..send_at[g + 1]].chunk_by(|a, b| a.peer() == b.peer()) {
            let Ok(d) = ranks.binary_search_by_key(&run[0].peer(), |group| rank_of(group)) else {
                continue;
            };
            let (mut r, end) = (cursor[d], recv_at[d + 1]);
            r += recvs[r..end].partition_point(|e| e.peer() < src);
            let mut s = 0;
            while let (Some(&send), Some(&recv)) = (run.get(s), recvs[..end].get(r)) {
                if recv.peer() != src {
                    break;
                }
                // Equal tags pair up and advance together; the side whose
                // tag sorts first has run out of partners there.
                match send.tag().cmp(&recv.tag()) {
                    Ordering::Less => s += 1,
                    Ordering::Greater => r += 1,
                    Ordering::Equal => {
                        ids[send.ri as usize][send.ei as usize] = next_id;
                        ids[recv.ri as usize][recv.ei as usize] = next_id;
                        next_id += 1;
                        s += 1;
                        r += 1;
                    }
                }
            }
            cursor[d] = r;
        }
    }
    ids
}

/// Sorts one rank's ends, pushed in (recorder, event) order, by
/// `(peer, tag)`. The sort is stable, so FIFO order within a channel
/// survives, and it merges the sorted runs a rank's list already holds
/// instead of starting over; a list that is one run is left alone.
fn sort_if_unsorted(ends: &mut [End]) {
    if !ends.is_sorted_by_key(|e| e.key) {
        ends.sort_by_key(|e| e.key);
    }
}

/// Appends a float the way JSON can carry it: the bytes of `Display`
/// (shortest round trip, deterministic) when finite, `null` otherwise.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        float::push_shortest(out, v);
    } else {
        out.push_str("null");
    }
}

/// Appends `v` in base `RADIX` (10, or 16 in lowercase), the bytes of
/// integer `Display` / `LowerHex` without the formatter.
fn push_int<const RADIX: u64>(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b"0123456789abcdef"[(v % RADIX) as usize];
        v /= RADIX;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends the clock readings of a span edge as `"local":v` /
/// `"global":v` members; `after_member` says whether the object body
/// already holds one.
fn push_readings(out: &mut String, reads: ClockReadings, mut after_member: bool) {
    for (key, v) in [("\"local\":", reads.local), ("\"global\":", reads.global)] {
        if let Some(v) = v {
            if after_member {
                out.push(',');
            }
            after_member = true;
            out.push_str(key);
            push_f64(out, v);
        }
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

    #[test]
    fn an_empty_log_is_still_a_document() {
        let log = TraceLog::default();
        assert_eq!(
            chrome_trace(&log),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\"}\n"
        );
        assert_eq!(
            summary_json(&log),
            "{\"ranks\":[\n\n],\"total_events\":0,\"total_dropped\":0}\n"
        );
        assert_eq!(flame_report(&log), "");
    }

    #[test]
    fn flows_pair_fifo_within_a_channel_and_count_in_channel_order() {
        // Recorder 0 is rank 1 and recorder 1 is rank 0: channels are
        // keyed by rank, sites by recorder index.
        let mut a = RankRecorder::new(1, 64);
        a.send(1.0, 0, 9, 4); // (1, 0, 9) #1
        a.send(2.0, 0, 3, 4); // (1, 0, 3) #1
        a.send(3.0, 0, 9, 4); // (1, 0, 9) #2
        a.recv(4.0, 0, 3, 4); // (0, 1, 3) #1
        a.send(5.0, 7, 3, 4); // to a rank that records nothing
        let mut b = RankRecorder::new(0, 64);
        b.recv(1.5, 1, 9, 4); // (1, 0, 9) #1
        b.recv(2.5, 1, 3, 4); // (1, 0, 3) #1
        b.recv(2.6, 1, 3, 4); // (1, 0, 3): more receives than sends
        b.send(3.5, 1, 3, 4); // (0, 1, 3) #1
        b.note(3.6, "x");
        let ids = flow_ids(&TraceLog::new(vec![a, b]));
        // Channel order: (0, 1, 3), (1, 0, 3), (1, 0, 9) twice.
        assert_eq!(ids, vec![vec![3, 2, 0, 1, 0], vec![3, 2, 0, 1, 0]]);
    }

    /// One end of a message: its `(src, dst, tag)` channel, then where
    /// the event sits (recorder index, event index). Field order is
    /// sort order.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Site {
        channel: (u32, u32, u32),
        ri: u32,
        ei: u32,
    }

    /// The reference matcher: every message end of the log in one sort
    /// by channel, then one merge walk over sends and receives.
    fn flow_ids_by_global_sort(log: &TraceLog) -> Vec<Vec<u64>> {
        let mut sends: Vec<Site> = Vec::new();
        let mut recvs: Vec<Site> = Vec::new();
        for (ri, rec) in log.ranks().iter().enumerate() {
            let ri = u32::try_from(ri).unwrap();
            for (ei, ev) in rec.events().iter().enumerate() {
                let ei = u32::try_from(ei).unwrap();
                let site = |channel| Site { channel, ri, ei };
                match *ev {
                    Event::Send { peer, tag, .. } => sends.push(site((rec.rank(), peer, tag))),
                    Event::Recv { peer, tag, .. } => recvs.push(site((peer, rec.rank(), tag))),
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        let mut ids: Vec<Vec<u64>> = log
            .ranks()
            .iter()
            .map(|rec| vec![0; rec.events().len()])
            .collect();
        let mut next_id: u64 = 1;
        let (mut s, mut r) = (0, 0);
        while let (Some(&send), Some(&recv)) = (sends.get(s), recvs.get(r)) {
            match send.channel.cmp(&recv.channel) {
                Ordering::Less => s += 1,
                Ordering::Greater => r += 1,
                Ordering::Equal => {
                    ids[send.ri as usize][send.ei as usize] = next_id;
                    ids[recv.ri as usize][recv.ei as usize] = next_id;
                    next_id += 1;
                    s += 1;
                    r += 1;
                }
            }
        }
        ids
    }

    /// SplitMix64: a fixed-seed stream of numbers below `n`.
    fn below(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// A random log of up to `max_recorders` recorders, built to reach
    /// every corner of the matcher: recorders out of rank order, a rank
    /// split over several recorders, empty recorders, peers without a
    /// recorder, tags 0, 0x42 and `u32::MAX`, and channels with more
    /// sends than receives and the other way round.
    fn random_log(seed: u64, max_recorders: u64) -> TraceLog {
        let mut st = seed;
        let n_ranks = 1 + below(&mut st, max_recorders) as u32;
        // Ranks are drawn from a range wider than the recorder count, so
        // some peers record nothing, and may repeat, so some ranks are
        // split over two or more recorders.
        let span = n_ranks + 1 + below(&mut st, 4) as u32;
        let tags = [0, 0x42, u32::MAX, 7];
        let mut recs: Vec<RankRecorder> = (0..n_ranks)
            .map(|_| RankRecorder::new(below(&mut st, u64::from(span)) as u32, 1 << 12))
            .collect();
        for rec in &mut recs {
            if below(&mut st, 8) == 0 {
                continue;
            }
            let n_events = below(&mut st, 48);
            for k in 0..n_events {
                let secs = k as f64;
                // Mostly the ranks one or two away, so channels hold
                // several messages; now and then any rank.
                let hop = 1 + below(&mut st, 2) as u32;
                let any = (below(&mut st, 8) == 0).then(|| below(&mut st, u64::from(span)) as u32);
                let peer = |to: u32| any.unwrap_or(to % span);
                let (up, down) = (rec.rank() + hop, rec.rank() + span - hop);
                let tag = tags[below(&mut st, tags.len() as u64) as usize];
                match below(&mut st, 5) {
                    0 | 1 => rec.send(secs, peer(up), tag, 8),
                    2 | 3 => rec.recv(secs, peer(down), tag, 8),
                    _ => rec.note(secs, "x"),
                }
            }
        }
        TraceLog::new(recs)
    }

    fn check_flows_against_the_global_sort(seeds: std::ops::Range<u64>, max_recorders: u64) {
        for seed in seeds {
            let log = random_log(seed, max_recorders);
            assert!(
                flow_ids(&log) == flow_ids_by_global_sort(&log),
                "flow ids differ from the reference on seed {seed}"
            );
        }
    }

    #[test]
    fn flows_equal_the_global_sort_on_random_logs() {
        check_flows_against_the_global_sort(0..600, 12);
    }

    /// The same comparison on 10^4 logs of up to 256 recorders; `cargo
    /// test --release -p hcs-obs -- --ignored` runs it (the scheduled CI
    /// job does).
    #[test]
    #[ignore = "10^4 logs: run in release with --ignored"]
    fn flows_equal_the_global_sort_on_random_logs_sweep() {
        check_flows_against_the_global_sort(1 << 32..(1 << 32) + 10_000, 256);
    }

    #[test]
    fn digit_writer_matches_the_formatter() {
        for n in [0, 1, 9, 10, 99, 100, 4096, u64::from(u32::MAX), u64::MAX] {
            let mut dec = String::new();
            push_int::<10>(&mut dec, n);
            assert_eq!(dec, format!("{n}"));
            let mut hex = String::from("0x");
            push_int::<16>(&mut hex, n);
            assert_eq!(hex, format!("{n:#x}"));
        }
    }

    /// One non-finite value per float field of the trace; each must
    /// come out as `null`, and the finite neighbours as themselves.
    #[test]
    fn chrome_trace_spells_non_finite_floats_as_null() {
        let row = |build: fn(&mut RankRecorder)| {
            let mut rec = RankRecorder::new(0, 8);
            build(&mut rec);
            let json = chrome_trace(&TraceLog::new(vec![rec]));
            json.lines().nth(2).expect("one event row").to_string()
        };
        let ts = row(|r| r.note(f64::INFINITY, "n"));
        assert!(ts.contains("\"ts\":null,"), "ts: {ts}");
        let value = row(|r| r.counter(1.0, "x", f64::NAN));
        assert!(value.contains("\"ts\":1000000,"), "ts: {value}");
        assert!(value.contains("{\"value\":null}"), "value: {value}");
        let dur = row(|r| r.compute(1.0, f64::NEG_INFINITY));
        assert!(dur.contains("\"dur\":null,"), "dur: {dur}");
        let local = row(|r| r.enter(1.0, "s", 0, ClockReadings::local(f64::INFINITY)));
        assert!(
            local.contains("{\"seq\":0,\"local\":null}"),
            "local: {local}"
        );
        let global = row(|r| r.enter(1.0, "s", 0, ClockReadings::global(f64::NAN)));
        assert!(
            global.contains("{\"seq\":0,\"global\":null}"),
            "global: {global}"
        );
        for json in [ts, value, dur, local, global] {
            assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        }
    }

    #[test]
    fn summary_json_spells_non_finite_floats_as_null() {
        let mut a = RankRecorder::new(0, 8);
        a.compute(1.0, f64::NAN);
        a.enter(1.0, "open-ended", 0, ClockReadings::NONE);
        a.exit(f64::INFINITY, ClockReadings::NONE);
        let json = summary_json(&TraceLog::new(vec![a]));
        assert!(json.contains("\"compute_secs\":null,"), "{json}");
        assert!(json.contains("\"count\":1,\"total_secs\":null}"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn a_rank_that_dropped_events_says_so_in_its_last_row() {
        let mut a = RankRecorder::new(3, 2);
        a.note(1.0, "kept");
        a.note(2.0, "kept");
        a.note(3.0, "lost");
        a.send(4.0, 1, 7, 4);
        let whole = RankRecorder::new(1, 2);
        let json = chrome_trace(&TraceLog::new(vec![a, whole]));
        let rows: Vec<&str> = json.lines().collect();
        assert_eq!(
            rows[5],
            "{\"ph\":\"i\",\"pid\":0,\"tid\":3,\"ts\":2000000,\"name\":\"obs/dropped\",\
             \"s\":\"t\",\"args\":{\"count\":2}}"
        );
        assert_eq!(json.matches("obs/dropped").count(), 1, "{json}");
        assert!(!chrome_trace(&two_rank_log()).contains("obs/dropped"));
    }
}
