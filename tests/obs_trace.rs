//! End-to-end observability: a fully-instrumented HCA3 + Round-Time run
//! must produce the same Chrome trace bytes run, re-run, and in the
//! reference order of `EngineMode::Threads` (the recorder is part of the
//! deterministic surface), and the `trace_event` JSON schema is pinned by a golden file.

use hierarchical_clock_sync::bench::prelude::*;
use hierarchical_clock_sync::mpi::{tags, ReduceOp};
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::obs::{
    chrome_trace, flame_report, summary_json, write_chrome_trace, ClockReadings, Event,
    RankRecorder,
};
use hierarchical_clock_sync::sim::rngx::Pcg64;
use hierarchical_clock_sync::sim::EngineMode;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::OnceLock;

fn observed_cluster() -> Cluster {
    machines::testbed(2, 2)
        .cluster(7)
        .to_builder()
        .observability(ObsSpec::full())
        .build()
}

fn workload(ctx: &mut RankCtx) {
    sync_then_round_time(ctx, Hca3::skampi(20, 5), 0.01, 10);
}

/// Syncs with `alg` on the world communicator.
fn synced(ctx: &mut RankCtx, alg: &mut dyn ClockSync) -> (Comm, BoxClock) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let out = run_sync(alg, ctx, &mut comm, Box::new(clk));
    (comm, out.clock)
}

/// HCA3 followed by a Round-Time allreduce measurement: the shape of
/// `trace_smoke`, which runs it with `(30, 8)`, 0.02 s slices, 50 reps.
fn sync_then_round_time(ctx: &mut RankCtx, mut sync: Hca3, slice_s: f64, max_nrep: usize) {
    let (mut comm, mut g) = synced(ctx, &mut sync);
    let cfg = RoundTimeConfig {
        max_time_slice_s: secs(slice_s),
        max_nrep,
        ..Default::default()
    };
    let mut op = |ctx: &mut RankCtx, comm: &mut Comm| {
        let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
    };
    let _ = run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op);
}

#[test]
fn chrome_trace_is_byte_identical_pooled_rerun_and_fresh() {
    let cluster = observed_cluster();
    let reference_engine = cluster.to_builder().engine(EngineMode::Threads).build();
    let (_, first) = cluster.run_observed(workload);
    let (_, again) = cluster.run_observed(workload);
    let (_, fresh) = reference_engine.run_observed(workload);

    let bytes = chrome_trace(&first);
    assert!(!first.is_empty(), "observed run recorded nothing");
    assert_eq!(
        bytes,
        chrome_trace(&again),
        "re-run produced different trace bytes"
    );
    assert_eq!(
        bytes,
        chrome_trace(&fresh),
        "reference-engine run produced different trace bytes"
    );
    assert_eq!(summary_json(&first), summary_json(&fresh));
}

#[test]
fn observed_run_contains_sync_and_repetition_spans() {
    let (_, log) = observed_cluster().run_observed(workload);
    for rec in log.ranks() {
        let names = rec.names();
        assert!(
            names.iter().any(|n| n.starts_with("sync/hca3")),
            "rank {} lacks a sync span: {names:?}",
            rec.rank()
        );
        assert!(
            names.iter().any(|n| n == "scheme/roundtime/rep"),
            "rank {} lacks repetition spans: {names:?}",
            rec.rank()
        );
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.unbalanced_exits(), 0);
    }
}

/// HCA3, then the accuracy check with `offset` as its probe.
fn checked(ctx: &mut RankCtx, offset: &mut dyn OffsetAlgorithm) {
    let (mut comm, mut g) = synced(ctx, &mut Hca3::skampi(8, 3));
    let _ = check_clock_accuracy(ctx, &mut comm, g.as_mut(), offset, secs(0.01), 1.0);
}

/// Fault-free runs of every protocol that moves a registry tag. Each
/// send is received — the `(src, dst, tag)` multisets of sends and
/// receives agree — and every `tags::*` value is both sent and received.
/// rustc checks each tag's payload type; this checks that its sends and
/// receives pair up, on the paths these runs execute.
#[test]
fn every_send_is_received_on_fault_free_runs() {
    type Body = fn(&mut RankCtx);
    let runs: [(&str, Body); 7] = [
        ("jk/mean-rtt", |ctx| {
            drop(synced(ctx, &mut Jk::mean_rtt(8, 3)))
        }),
        ("hca2", |ctx| drop(synced(ctx, &mut Hca2::skampi(8, 3)))),
        ("hca3", |ctx| drop(synced(ctx, &mut Hca3::skampi(8, 3)))),
        ("h2hca/hca2", |ctx| {
            let top = Box::new(Hca2::skampi(8, 3));
            drop(synced(
                ctx,
                &mut Hierarchical::h2(top, Box::new(Hca2::skampi(8, 3))),
            ))
        }),
        ("check/skampi", |ctx| {
            checked(ctx, &mut SkampiOffset::new(3))
        }),
        ("check/mean-rtt", |ctx| {
            checked(ctx, &mut MeanRttOffset::new(3))
        }),
        ("halo", |ctx| {
            let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let cfg = HaloProxyConfig {
                iterations: 4,
                ..Default::default()
            };
            halo_proxy(ctx, &mut Comm::world(ctx), &mut clk, cfg);
        }),
    ];
    // A wire tag's user part: `hcs-mpi` puts the context id from bit 17
    // up and marks collective tags with bit 16.
    let user_part = |tag: u32| tag & 0x1_FFFF;
    let (mut sent, mut received) = (BTreeSet::new(), BTreeSet::new());
    for (name, body) in runs {
        let cluster = machines::testbed(3, 2)
            .cluster(5)
            .to_builder()
            .observability(ObsSpec::full())
            .build();
        let (_, log) = cluster.run_observed(body);
        // +1 per send, -1 per receive of each (src, dst, tag).
        let mut balance = BTreeMap::<(u32, u32, u32), i64>::new();
        for rec in log.ranks() {
            assert_eq!(rec.dropped(), 0, "{name}");
            let me = rec.rank();
            for e in rec.events() {
                match *e {
                    Event::Send { peer, tag, .. } => {
                        *balance.entry((me, peer, tag)).or_default() += 1;
                        sent.insert(user_part(tag));
                    }
                    Event::Recv { peer, tag, .. } => {
                        *balance.entry((peer, me, tag)).or_default() -= 1;
                        received.insert(user_part(tag));
                    }
                    _ => {}
                }
            }
        }
        let unpaired: Vec<String> = balance
            .iter()
            .filter(|(_, &n)| n != 0)
            .map(|((src, dst, tag), n)| format!("{src} -> {dst} tag {tag:#x}: {n:+}"))
            .collect();
        assert!(
            unpaired.is_empty(),
            "{name}: sends minus receives per channel: {unpaired:?}"
        );
    }
    for raw in tags::ALL {
        assert!(
            sent.contains(&raw) && received.contains(&raw),
            "tag {raw:#x}: sent {}, received {}",
            sent.contains(&raw),
            received.contains(&raw)
        );
    }
}

/// A hand-built log covering every event kind; pins the exact
/// `trace_event` JSON the sink emits. Regenerate with
/// `OBS_GOLDEN_REGEN=1 cargo test --test obs_trace`.
#[test]
fn chrome_trace_matches_golden_file() {
    let got = chrome_trace(&golden_log());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/obs_chrome_trace.json"
    );
    if std::env::var_os("OBS_GOLDEN_REGEN").is_some() {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        got, want,
        "chrome_trace schema drifted from the golden file; \
         regenerate with OBS_GOLDEN_REGEN=1 if intentional"
    );
}

fn golden_log() -> TraceLog {
    let mut r0 = RankRecorder::new(0, 64);
    r0.enter(1.0, "sync/demo", 0, ClockReadings::NONE);
    r0.enter(1.25, "round \"zero\"", 0, ClockReadings::global(0.125));
    r0.send(1.5, 1, 7, 8);
    r0.exit(2.0, ClockReadings::global(0.875));
    r0.note(2.125, "demo/invalid");
    r0.counter(2.25, "drift_ppm", 3.5);
    r0.compute(2.5, 0.25);
    r0.exit(3.0, ClockReadings::NONE);
    let mut r1 = RankRecorder::new(1, 64);
    r1.recv(1.75, 0, 7, 8);
    TraceLog::new(vec![r0, r1])
}

/// The `chaos` binary's fault grid (scenario × algorithm), sized to
/// `size` ranks.
fn chaos_plans(size: usize) -> Vec<(&'static str, FaultPlan)> {
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

/// The 15 cells of the fault grid at `testbed(4, 4)`, seed 7, events
/// engine, through `run_outcome_observed`: timed-out ranks leave spans
/// unclosed and sends unmatched, which is what the sinks must survive.
fn chaos_logs() -> Vec<(String, TraceLog)> {
    let machine = machines::testbed(4, 4);
    let mut logs = Vec::new();
    for (scenario, plan) in chaos_plans(16) {
        for alg in ["jk", "hca2", "hca3"] {
            let cluster = machine
                .cluster(7)
                .to_builder()
                .env(machine.env_spec().faults(plan.clone()))
                .observability(ObsSpec::full())
                .engine(EngineMode::Events)
                .build();
            let (_, log) = cluster.run_outcome_observed(|ctx| {
                let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
                let mut comm = Comm::world(ctx);
                let mut sync: Box<dyn ClockSync> = match alg {
                    "jk" => Box::new(Jk::mean_rtt(16, 4)),
                    "hca2" => Box::new(Hca2::skampi(20, 6)),
                    _ => Box::new(Hca3::skampi(20, 6)),
                };
                let _ =
                    run_sync_with_timeout(sync.as_mut(), ctx, &mut comm, Box::new(clk), secs(0.5));
            });
            logs.push((format!("chaos/{scenario}/{alg}"), log));
        }
    }
    logs
}

/// The log `trace_smoke` writes at its defaults.
fn trace_smoke_log() -> TraceLog {
    let cluster = machines::testbed(4, 2)
        .cluster(1)
        .to_builder()
        .observability(ObsSpec::full())
        .build();
    cluster
        .run_observed(|ctx| sync_then_round_time(ctx, Hca3::skampi(30, 8), 0.02, 50))
        .1
}

/// A seeded random log that holds what no engine run produces: all
/// seven event kinds on every recorder, names that need the `\"`, `\\`
/// and `\u00XX` escapes, both / one / no clock readings on span edges,
/// sends to a rank that records nothing, channels with more receives
/// than sends (and the reverse), three tags per `(src, dst)` pair,
/// integers at the `u32` limits, floats over forty decades, and
/// recorders whose `rank()` is not their index (one of them empty).
fn synthetic_log() -> TraceLog {
    const RANKS: [u32; 5] = [5, 2, 9, 0, 4];
    const PEERS: [u32; 5] = [5, 2, 9, 0, 11];
    const TAGS: [u32; 3] = [0, 0x42, u32::MAX];
    const NAMES: [&str; 8] = [
        "sync/plain",
        "round \"quoted\"",
        "back\\slash",
        "tab\there",
        "bell\u{7}nul\u{0}",
        "unit/µs ü",
        "",
        "esc\u{1b}[0m\"\\",
    ];
    let mut rng = Pcg64::seed_from_u64(19);
    let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut frng = Pcg64::seed_from_u64(1919);
    let mut float =
        move || (frng.next_f64() - 0.5) * 10f64.powi((frng.next_u64() % 40) as i32 - 20);
    let reads = |k: usize, a: f64, b: f64| match k {
        0 => ClockReadings::NONE,
        1 => ClockReadings::local(a),
        2 => ClockReadings::global(b),
        _ => ClockReadings {
            local: Some(a),
            global: Some(b),
        },
    };
    let recorders = RANKS
        .iter()
        .map(|&rank| {
            let mut rec = RankRecorder::new(rank, 1 << 12);
            let mut now = 0.0f64;
            let n_events = if rank == 4 { 0 } else { 600 };
            for i in 0..n_events {
                now += float().abs().min(3.0);
                let small = [0, 1, 9, 10, 4096, u32::MAX][pick(6)];
                match pick(8) {
                    0 | 1 => {
                        rec.enter(now, NAMES[pick(8)], small, reads(pick(4), float(), float()))
                    }
                    2 => rec.exit(now, reads(pick(4), float(), float())),
                    3 => rec.note(now, NAMES[pick(8)]),
                    4 => rec.counter(now, NAMES[pick(8)], if i % 50 == 0 { 0.0 } else { float() }),
                    5 => rec.compute(now, float().abs()),
                    6 => rec.send(now, PEERS[pick(5)], TAGS[pick(3)], small),
                    _ => rec.recv(now, PEERS[pick(4)], TAGS[pick(3)], small),
                }
            }
            rec
        })
        .collect();
    TraceLog::new(recorders)
}

/// Every log whose sink bytes are pinned, in pin-table order; built
/// once for all the tests that walk them.
fn pinned_logs() -> &'static [(String, TraceLog)] {
    static LOGS: OnceLock<Vec<(String, TraceLog)>> = OnceLock::new();
    LOGS.get_or_init(|| {
        let mut logs = vec![("golden".to_string(), golden_log())];
        logs.extend(chaos_logs());
        logs.push(("trace_smoke".to_string(), trace_smoke_log()));
        logs.push(("synthetic".to_string(), synthetic_log()));
        logs
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Length and FNV-1a-64 of `chrome_trace`, `summary_json` and
/// `flame_report` per pinned log, recorded from the commit before the
/// sinks were rewritten (e31b776). The benchmark's digest folds only
/// lengths, so this table is the proof that the rewrite kept every byte.
#[rustfmt::skip]
const SINK_PINS: [(&str, [(usize, u64); 3]); 18] = [
    ("golden", [(1083, 0x0d1551bb09fe59d9), (392, 0x94f744ea5b6d8c6e), (105, 0xb189f769ce1fa7fb)]),
    ("chaos/baseline/jk", [(822134, 0x004f50fd76030c47), (4091, 0x0a5b87bcd49ae8f9), (1643, 0x79b710504ec30571)]),
    ("chaos/baseline/hca2", [(2094521, 0xdd7aef4dce2d7ba0), (6840, 0x7e35a96200150244), (5006, 0x7a4182bd220269fb)]),
    ("chaos/baseline/hca3", [(2087971, 0xf4d342aa97220963), (5748, 0xb0647a710c2c02f0), (3550, 0xeaec9664d9069b8d)]),
    ("chaos/drop5/jk", [(12438, 0x7daf361c1a0a7809), (2157, 0xd5f2ccbfa19e2791), (118, 0xcee1fb3b266cd959)]),
    ("chaos/drop5/hca2", [(89353, 0xc5603eefa214a439), (2360, 0x25fad8e24024e6b9), (118, 0xcee1fb3b266cd959)]),
    ("chaos/drop5/hca3", [(9359, 0xa5b32ca9dbf4968f), (2141, 0xe61ad14f26ef6731), (118, 0xcee1fb3b266cd959)]),
    ("chaos/scramble/jk", [(19284, 0x4b8a0c55e1a5f760), (2161, 0x05dd538b0a31620c), (118, 0xcee1fb3b266cd959)]),
    ("chaos/scramble/hca2", [(2157693, 0x1d007d027295c13a), (6841, 0x24b0de7244c9b650), (5006, 0xfc5ac5de1abb0539)]),
    ("chaos/scramble/hca3", [(2150514, 0x9659c2f7f5fe56d6), (5744, 0x34b3022cea0ff09b), (3550, 0x463dfde81b95cbe2)]),
    ("chaos/partition/jk", [(822134, 0x004f50fd76030c47), (4091, 0x0a5b87bcd49ae8f9), (1643, 0x79b710504ec30571)]),
    ("chaos/partition/hca2", [(1947942, 0xe0990366638c4710), (4049, 0x45826d76ef62381d), (2206, 0xb28a822c865d9c51)]),
    ("chaos/partition/hca3", [(48283, 0x482e3432609d36e0), (2189, 0x231670b6d0d2f05f), (118, 0xcee1fb3b266cd959)]),
    ("chaos/crash/jk", [(822134, 0x004f50fd76030c47), (4091, 0x0a5b87bcd49ae8f9), (1643, 0x79b710504ec30571)]),
    ("chaos/crash/hca2", [(1587746, 0x1c5a319f26b6fe8f), (3764, 0xebd0bed059251660), (1825, 0x3f6c72f56501755f)]),
    ("chaos/crash/hca3", [(1948462, 0x1c45a5c1f46de0ff), (5381, 0x56b9882d9b410dc5), (3205, 0xa6da8bcf00f037ab)]),
    ("trace_smoke", [(3545443, 0x580c5700b9ab6248), (3488, 0x5a73d883d542347a), (2132, 0x5db567d69b689219)]),
    ("synthetic", [(296748, 0xa1858ec9c4c24601), (2928, 0x5d777b22429f391f), (111665, 0xd47b08a89dee234f)]),
];

#[test]
fn sink_bytes_match_the_pins_recorded_before_the_rewrite() {
    let logs = pinned_logs();
    assert_eq!(logs.len(), SINK_PINS.len());
    for ((name, log), (pinned_name, pins)) in logs.iter().zip(SINK_PINS) {
        assert_eq!(name, pinned_name);
        let texts = [chrome_trace(log), summary_json(log), flame_report(log)];
        for ((sink, text), pin) in ["chrome_trace", "summary_json", "flame_report"]
            .iter()
            .zip(&texts)
            .zip(pins)
        {
            assert_eq!(
                (text.len(), fnv1a(text.as_bytes())),
                pin,
                "{name}: {sink} drifted from its pinned (length, FNV-1a-64)"
            );
        }
    }
}

#[test]
fn streamed_trace_equals_the_string_on_every_pinned_log() {
    for (name, log) in pinned_logs() {
        let mut streamed = Vec::new();
        write_chrome_trace(log, &mut streamed).expect("a Vec accepts every write");
        assert!(
            streamed == chrome_trace(log).as_bytes(),
            "{name}: streamed trace differs from chrome_trace"
        );
    }
}

/// Accepts one byte per `write` call, the shortest write `io::Write`
/// allows.
struct OneByte(Vec<u8>);

impl io::Write for OneByte {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.extend(buf.first());
        Ok(buf.len().min(1))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_writer_that_takes_one_byte_per_call_gets_the_same_bytes() {
    for (name, log) in pinned_logs() {
        let mut w = OneByte(Vec::new());
        write_chrome_trace(log, &mut w).expect("short writes are not errors");
        assert!(
            w.0 == chrome_trace(log).as_bytes(),
            "{name}: short writes changed the trace"
        );
    }
}

/// Accepts whole buffers until its `fail_at`-th call, which fails;
/// counts every call it sees.
struct FailsAt {
    fail_at: usize,
    calls: usize,
}

impl io::Write for FailsAt {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls == self.fail_at {
            return Err(io::Error::other(format!(
                "disk full at call {}",
                self.calls
            )));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_writer_gets_its_own_error_back_and_is_not_called_again() {
    let (_, log) = pinned_logs()
        .iter()
        .find(|(name, _)| name == "trace_smoke")
        .expect("trace_smoke log is pinned");
    let mut healthy = FailsAt {
        fail_at: usize::MAX,
        calls: 0,
    };
    write_chrome_trace(log, &mut healthy).expect("no call fails");
    let total = healthy.calls;
    assert!(
        total > 10,
        "a 3.5 MB trace is written in chunks, not at once"
    );
    // The first chunk, one in the middle, and the tail after the loop.
    for fail_at in [1, total / 2, total] {
        let mut w = FailsAt { fail_at, calls: 0 };
        let err = write_chrome_trace(log, &mut w).expect_err("the writer failed");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(err.to_string(), format!("disk full at call {fail_at}"));
        assert_eq!(w.calls, fail_at, "written to again after its error");
    }
}
