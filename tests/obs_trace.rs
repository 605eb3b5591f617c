//! End-to-end observability: a fully-instrumented HCA3 + Round-Time run
//! must produce the same Chrome trace bytes run, re-run, and on the
//! fresh-spawn reference engine (the recorder is part of the
//! deterministic surface), and the `trace_event` JSON schema is pinned by a golden file.

use hierarchical_clock_sync::bench::prelude::*;
use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::obs::{chrome_trace, summary_json, ClockReadings, RankRecorder};
use hierarchical_clock_sync::sim::EngineMode;

fn observed_cluster() -> Cluster {
    machines::testbed(2, 2)
        .cluster(7)
        .to_builder()
        .observability(ObsSpec::full())
        .build()
}

fn workload(ctx: &mut RankCtx) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let mut sync = Hca3::skampi(20, 5);
    let out = run_sync(&mut sync, ctx, &mut comm, Box::new(clk));
    let mut g = out.clock;
    let cfg = RoundTimeConfig {
        max_time_slice_s: secs(0.01),
        max_nrep: 10,
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

/// A hand-built log covering every event kind; pins the exact
/// `trace_event` JSON the sink emits. Regenerate with
/// `OBS_GOLDEN_REGEN=1 cargo test --test obs_trace`.
#[test]
fn chrome_trace_matches_golden_file() {
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
    let log = hierarchical_clock_sync::sim::TraceLog::new(vec![r0, r1]);

    let got = chrome_trace(&log);
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
