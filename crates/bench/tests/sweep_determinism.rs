//! The sweep executor must be invisible in the artifacts: the rows (and
//! the CSV bytes derived from them) of a hierarchical-sync experiment
//! are identical whatever `jobs` setting executed it, and identical to
//! a direct run on the reference engine.

use hcs_bench::sweep::SweepExecutor;
use hcs_clock::Span;
use hcs_experiments::hier_experiment::{
    fig4_configs, run_hier_experiment, write_hier_csv, HierRow,
};
use hcs_sim::{machines, secs, EngineMode, RankCtx};
use std::sync::{Mutex, MutexGuard};

const SEED: u64 = 20_260_806;

/// Serializes this file's tests. The timing test compares a jobs=4
/// sweep against jobs=1 and needs the host's cores to itself; the
/// harness would otherwise run its siblings beside it, and on a
/// 2-core host those take the cores the jobs=4 sweep is measured on.
static SERIAL: Mutex<()> = Mutex::new(());

/// Holds [`SERIAL`] for one test; a sibling's panic leaves the lock
/// poisoned, which says nothing about this test, so it is ignored.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn rows_with_jobs(jobs: usize) -> Vec<HierRow> {
    let machine = machines::testbed(2, 2);
    let configs = fig4_configs(12, 6, 4);
    let exec = SweepExecutor::new(jobs);
    run_hier_experiment(&machine, &configs, 2, secs(0.5), 1.0, SEED, &exec)
}

/// One run of `msgs` ping-pong round trips between ranks 0 and 1 on a
/// `p`-rank testbed cluster on the events engine, every other rank
/// idle.
fn pingpong_run(p: usize, msgs: u32, seed: u64) {
    machines::testbed(p.div_ceil(4).max(1), p.min(4))
        .cluster(seed)
        .to_builder()
        .engine(EngineMode::Events)
        .build()
        .run(move |ctx: &mut RankCtx| match ctx.rank() {
            0 => {
                for i in 0..msgs {
                    ctx.send_t(1, i & 0xFF, 1.0f64);
                    let _: f64 = ctx.recv_t(1, i & 0xFF);
                }
            }
            1 => {
                for i in 0..msgs {
                    let v: f64 = ctx.recv_t(0, i & 0xFF);
                    ctx.send_t(0, i & 0xFF, v);
                }
            }
            _ => {}
        });
}

fn assert_rows_eq(a: &[HierRow], b: &[HierRow], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count differs");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.label, rb.label, "{what}: labels diverge");
        assert_eq!(ra.duration, rb.duration, "{what}: durations diverge");
        assert_eq!(ra.max_at0, rb.max_at0, "{what}: max@0 diverges");
        assert_eq!(ra.max_at_wait, rb.max_at_wait, "{what}: max@wait diverges");
    }
}

#[test]
fn rows_and_csv_are_byte_identical_across_jobs_settings() {
    let _serial = serial();
    let sequential = rows_with_jobs(1);
    let concurrent = rows_with_jobs(4);
    assert_rows_eq(&sequential, &concurrent, "jobs=1 vs jobs=4");

    // And the CSV artifact derived from the rows is byte-identical.
    let dir = std::env::temp_dir();
    let p1 = dir.join("hcs_sweep_det_jobs1.csv");
    let p4 = dir.join("hcs_sweep_det_jobs4.csv");
    write_hier_csv(&sequential, p1.to_str().unwrap());
    write_hier_csv(&concurrent, p4.to_str().unwrap());
    let b1 = std::fs::read(&p1).unwrap();
    let b4 = std::fs::read(&p4).unwrap();
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p4);
    assert!(!b1.is_empty(), "CSV artifact is empty");
    assert_eq!(b1, b4, "CSV bytes differ between jobs=1 and jobs=4");
}

#[test]
fn concurrent_rows_match_reference_engine_rows() {
    let _serial = serial();
    // A direct reference-engine cluster run of the same (config,
    // repetition) point must produce the same row as the concurrent
    // sweep. This pins that neither the engine nor run-level
    // concurrency leaks into virtual time.
    use hcs_clock::{LocalClock, TimeSource};
    use hcs_core::prelude::*;
    use hcs_mpi::Comm;

    let machine = machines::testbed(2, 2);
    let configs = fig4_configs(12, 6, 4);
    let concurrent = rows_with_jobs(2);

    // Recompute row (config 1, run 1) on the reference engine, straight
    // from the cluster, using the same per-run seed stream.
    let (label, make) = &configs[1];
    let cluster = machine
        .cluster(hcs_bench::sweep::run_seed(SEED, 1))
        .to_builder()
        .engine(EngineMode::Threads)
        .build();
    let out = cluster.run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut alg = make();
        let outcome = run_sync(alg.as_mut(), ctx, &mut comm, Box::new(clk));
        let mut g = outcome.clock;
        let mut probe = SkampiOffset::new(10);
        let report = check_clock_accuracy(ctx, &mut comm, g.as_mut(), &mut probe, secs(0.5), 1.0);
        (outcome.duration, report)
    });
    let duration = out.iter().map(|o| o.0).fold(Span::ZERO, Span::max);
    let report = out[0].1.as_ref().expect("root reports");

    // configs.len() == 4, runs == 2: row index = config * runs + run,
    // so (config 1, run 1) lands at index 3.
    let row = &concurrent[3];
    assert_eq!(&row.label, label);
    assert_eq!(row.duration, duration, "sweep vs reference engine");
    assert_eq!(row.max_at0, report.max_abs_at_sync());
    assert_eq!(row.max_at_wait, report.max_abs_after_wait());
}

#[test]
fn concurrent_jobs_are_not_slower_than_sequential() {
    // An early sweep executor made jobs=4 *slower* than jobs=1 at
    // p=256 (oversubscription: more in-flight runs than host cores).
    // This pins the fix: with the host-core clamp, a concurrent sweep
    // must never lose to the sequential loop by more than measurement
    // noise. The tolerance is deliberately generous (1.5×,
    // best-of-interleaved trials) so a loaded CI host cannot flake it;
    // a real regression of the old kind was a 2×+ slowdown.
    use hcs_bench::sweep::run_seed;
    use std::time::Instant;

    let _serial = serial();
    for p in [32usize, 256] {
        let e1 = SweepExecutor::new(1);
        let e4 = SweepExecutor::new(4);
        // Pinned to the events engine: this is a host-time bound, and
        // the thread-backed reference order has no performance contract
        // (concurrent runs there contend on spawning p threads each).
        let sweep = |exec: &SweepExecutor| {
            exec.run(8, p, |i| pingpong_run(p, 50, run_seed(7, i as u64)));
        };
        // Warm both paths (stack pool fill, page faults).
        sweep(&e1);
        sweep(&e4);
        let mut best1 = f64::INFINITY;
        let mut best4 = f64::INFINITY;
        // Interleave the settings so host-load drift hits both equally.
        for _ in 0..4 {
            let t = Instant::now();
            sweep(&e1);
            best1 = best1.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            sweep(&e4);
            best4 = best4.min(t.elapsed().as_secs_f64());
        }
        assert!(
            best4 <= best1 * 1.5,
            "p={p}: jobs=4 sweep ({:.2} ms) is more than 1.5x slower than jobs=1 ({:.2} ms)",
            best4 * 1e3,
            best1 * 1e3,
        );
    }
}
