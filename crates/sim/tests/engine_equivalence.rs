//! Differential oracle: the engine (`EngineMode::Events`: heap order,
//! matched-wake handoff) and the reference order (`EngineMode::Threads`:
//! a seeded scrambled pick, no handoff), both on the run's continuation
//! backend, must be indistinguishable in every artifact — results,
//! `RunOutcome`s, chrome traces, summary JSON — for the same cluster and
//! seed. Any divergence here means the order ranks took turns in leaked
//! into virtual time. Both are deterministic, so a divergence replays
//! from the seed.
//!
//! Matrix: p ∈ {2, 8, 32, 256} × seeds (direct and from inside
//! concurrent sweep jobs), with observability on and off, plus a
//! collective-heavy run, a ping-pong-dominated run (HCA3 + accuracy
//! check, the event scheduler's handoff path), a chaotic fault-plan
//! run, a lossy sync under a receive-timeout policy and a timeout run
//! (the paths where the wait-graph/deadline machinery interacts with
//! parking), panic propagation under both engines, and the
//! engine-selection rules themselves.

use hcs_bench::sweep::SweepExecutor;
use hcs_clock::{Clock, LocalClock, TimeSource};
use hcs_core::{check_clock_accuracy, run_sync, run_sync_with_timeout, Hca3, SkampiOffset};
use hcs_mpi::{BarrierAlgorithm, Comm, ReduceOp};
use hcs_obs::{chrome_trace, summary_json, ObsSpec};
use hcs_sim::{
    machines, secs, Cluster, EngineMode, FaultPlan, LinkSel, RankCtx, RankOutcome, Window,
};

/// (nodes, cores_per_node) shapes giving p ∈ {2, 8, 32, 256}.
const SHAPES: [(usize, usize); 4] = [(1, 2), (2, 4), (4, 8), (16, 16)];
const SEEDS: [u64; 2] = [7, 20_260_807];

fn pair(nodes: usize, cores: usize, seed: u64) -> (Cluster, Cluster) {
    let base = machines::testbed(nodes, cores).cluster(seed);
    let threads = base.to_builder().engine(EngineMode::Threads).build();
    let events = base.to_builder().engine(EngineMode::Events).build();
    (threads, events)
}

/// A ring exchange with rank-dependent compute: every rank both sends
/// and blocks, so the event executor's park/wake path is exercised on
/// every round at every p.
fn ring(ctx: &mut RankCtx) -> (u64, u64) {
    let p = ctx.size();
    let (me, next, prev) = (ctx.rank(), (ctx.rank() + 1) % p, (ctx.rank() + p - 1) % p);
    let mut acc = me as u64;
    for round in 0..3u32 {
        ctx.compute(secs(1e-6 * ((me % 7) as f64 + 1.0)));
        ctx.send_t::<u64>(next, round, acc);
        let got = ctx.recv_t::<u64>(prev, round);
        acc = acc.wrapping_mul(31).wrapping_add(got);
    }
    (acc, ctx.now().seconds().to_bits())
}

#[test]
fn results_are_identical_across_engines() {
    for (nodes, cores) in SHAPES {
        for seed in SEEDS {
            let (threads, events) = pair(nodes, cores, seed);
            let want = threads.run(ring);
            let got = events.run(ring);
            assert_eq!(want, got, "p={} seed={seed}", nodes * cores);
            // Runs on sweep threads never share scheduler state: the
            // same run from inside concurrent sweep jobs is identical.
            let swept = SweepExecutor::new(4).run(4, nodes * cores, |_| events.run(ring));
            for got in swept {
                assert_eq!(want, got, "swept p={} seed={seed}", nodes * cores);
            }
        }
    }
}

#[test]
fn traces_and_results_are_identical_with_obs_on_and_off() {
    for (nodes, cores) in SHAPES {
        let seed = SEEDS[0];
        let base = machines::testbed(nodes, cores).cluster(seed);
        let threads = base
            .to_builder()
            .engine(EngineMode::Threads)
            .observability(ObsSpec::full())
            .build();
        let events = threads.to_builder().engine(EngineMode::Events).build();
        let (r_t, log_t) = threads.run_observed(ring);
        let (r_e, log_e) = events.run_observed(ring);
        assert_eq!(r_t, r_e, "observed results, p={}", nodes * cores);
        assert_eq!(
            chrome_trace(&log_t),
            chrome_trace(&log_e),
            "chrome trace bytes, p={}",
            nodes * cores
        );
        assert_eq!(
            summary_json(&log_t),
            summary_json(&log_e),
            "summary json, p={}",
            nodes * cores
        );
        // Observability itself must not perturb either engine's
        // timeline: the plain (obs-off) run returns the same results.
        let (plain_t, plain_e) = pair(nodes, cores, seed);
        assert_eq!(plain_t.run(ring), r_t, "threads: obs on vs off");
        assert_eq!(plain_e.run(ring), r_e, "events: obs on vs off");
    }
}

/// A communication-heavy workload touching collectives, point-to-point
/// traffic, jittered latencies and drifting clocks.
fn collectives(ctx: &mut RankCtx) -> (u64, u64) {
    let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let mut acc = 0.0f64;
    for i in 0..10u32 {
        acc += comm.allreduce_f64(ctx, ctx.rank() as f64 + i as f64, ReduceOp::F64Sum);
        comm.barrier(ctx, BarrierAlgorithm::Tree);
    }
    let reading = clk.get_time(ctx);
    let mix = ctx.now().seconds() + reading.raw_seconds();
    (acc.to_bits(), mix.to_bits())
}

#[test]
fn collective_workload_matches_reference_and_rerun() {
    let (threads, events) = pair(4, 2, 20_240_806);
    let want = threads.run(collectives);
    let first = events.run(collectives);
    let again = events.run(collectives);
    assert_eq!(want, first, "events run differs from the reference");
    assert_eq!(first, again, "re-run is not reproducible");
}

/// HCA3, then the accuracy check on every client: almost every message
/// is one leg of a strict ping-pong (SKaMPI-Offset), which the event
/// scheduler runs as handoffs rather than in heap order.
fn hca3_and_check(ctx: &mut RankCtx) -> (u64, u64, u64, u64) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let sync = run_sync(&mut Hca3::skampi(10, 4), ctx, &mut comm, Box::new(clk));
    let mut g = sync.clock;
    let report = check_clock_accuracy(
        ctx,
        &mut comm,
        g.as_mut(),
        &mut SkampiOffset::new(5),
        secs(1.0),
        1.0,
    );
    (
        sync.duration.seconds().to_bits(),
        report.map_or(0, |r| r.max_abs_after_wait().seconds().to_bits()),
        ctx.now().seconds().to_bits(),
        ctx.counters().sent_msgs,
    )
}

#[test]
fn ping_pong_dominated_sync_is_identical() {
    let base = machines::testbed(8, 8).cluster(SEEDS[1]);
    let threads = base
        .to_builder()
        .engine(EngineMode::Threads)
        .observability(ObsSpec::full())
        .build();
    let events = threads.to_builder().engine(EngineMode::Events).build();
    let (r_t, log_t) = threads.run_observed(hca3_and_check);
    let (r_e, log_e) = events.run_observed(hca3_and_check);
    assert_eq!(r_t, r_e, "timelines");
    assert_eq!(chrome_trace(&log_t), chrome_trace(&log_e), "chrome trace");
    assert_eq!(summary_json(&log_t), summary_json(&log_e), "summary json");
}

#[test]
fn lossy_sync_under_a_recv_timeout_is_identical() {
    // 5 % message loss under HCA3 with every receive on a deadline: the
    // timed-out ranks, their `RecvTimeout` records and the survivors'
    // timelines and traces must not depend on the engine, although
    // deadline waits resolve through completion wakes and fired wait
    // cycles, never through the handoff.
    let lossy_sync = |ctx: &mut RankCtx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let sync = run_sync_with_timeout(
            &mut Hca3::skampi(10, 4),
            ctx,
            &mut comm,
            Box::new(clk),
            secs(5e-3),
        );
        (
            sync.duration.seconds().to_bits(),
            ctx.now().seconds().to_bits(),
        )
    };
    let drop5 = FaultPlan::new().drop_messages(LinkSel::any(), 0.05, Window::all());
    for seed in SEEDS {
        let threads = machines::testbed(8, 8)
            .cluster(seed)
            .to_builder()
            .faults(drop5.clone())
            .observability(ObsSpec::full())
            .engine(EngineMode::Threads)
            .build();
        let events = threads.to_builder().engine(EngineMode::Events).build();
        let (o_t, log_t) = threads.run_outcome_observed(lossy_sync);
        let (o_e, log_e) = events.run_outcome_observed(lossy_sync);
        assert!(o_t.timed_out_count() > 0, "seed {seed}: nothing was lost");
        assert_eq!(o_t, o_e, "outcomes, seed {seed}");
        assert_eq!(chrome_trace(&log_t), chrome_trace(&log_e), "seed {seed}");
        assert_eq!(summary_json(&log_t), summary_json(&log_e), "seed {seed}");
    }
}

#[test]
fn panicking_rank_poisons_peers_and_cluster_stays_usable() {
    let (threads, events) = pair(2, 2, 6);
    for cluster in [threads, events] {
        let mode = cluster.engine_mode();
        let caught = std::panic::catch_unwind(|| {
            cluster.run(|ctx| {
                if ctx.rank() == 1 {
                    ctx.compute(secs(1e-6));
                    panic!("deliberate failure at rank 1");
                }
                // Everyone else blocks on a message rank 1 will never
                // send; the poison broadcast must wake them instead of
                // deadlocking.
                let _ = ctx.recv(1, 99);
            })
        });
        let payload = caught.expect_err("run must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(
            msg.contains("deliberate failure at rank 1"),
            "{mode:?}: expected the root-cause panic, got {msg:?}"
        );
        // The same cluster serves a clean run afterwards.
        assert_eq!(cluster.run(|ctx| ctx.rank()), vec![0, 1, 2, 3], "{mode:?}");
    }
}

#[test]
fn default_engine_is_events_and_env_selects_reference() {
    // The only test in this binary that reads or writes `HCS_ENGINE`:
    // every other cluster here pins its engine, so flipping the
    // variable cannot leak into a sibling test.
    let ambient = std::env::var_os("HCS_ENGINE");
    let cluster = machines::testbed(1, 2).cluster(1);

    std::env::remove_var("HCS_ENGINE");
    assert_eq!(cluster.engine_mode(), EngineMode::Events, "unset");
    std::env::set_var("HCS_ENGINE", "threads");
    assert_eq!(cluster.engine_mode(), EngineMode::Threads);
    let pinned = cluster.to_builder().engine(EngineMode::Events).build();
    assert_eq!(pinned.engine_mode(), EngineMode::Events, "builder wins");
    std::env::set_var("HCS_ENGINE", "EVENTS");
    assert_eq!(cluster.engine_mode(), EngineMode::Events);
    std::env::set_var("HCS_ENGINE", "bogus");
    let err = std::panic::catch_unwind(|| cluster.engine_mode())
        .expect_err("an unknown engine name must not select an engine");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("HCS_ENGINE")
            && msg.contains("bogus")
            && msg.contains("`events` or `threads`"),
        "{msg}"
    );

    match ambient {
        Some(v) => std::env::set_var("HCS_ENGINE", v),
        None => std::env::remove_var("HCS_ENGINE"),
    }
}

/// Lossy-link workload: deadline receives degrade losses into per-rank
/// ring breaks instead of hangs. Chaotic enough that drops, duplicates,
/// reordering and latency scaling all trigger at these seeds.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .drop_messages(LinkSel::any(), 0.25, Window::all())
        .duplicate_messages(LinkSel::any(), 0.2, secs(2e-5), Window::all())
        .reorder_messages(LinkSel::any(), 0.3, secs(1.5e-5), Window::all())
        .scale_latency(LinkSel::any(), 2.5, Window::all())
}

fn lossy_ring(ctx: &mut RankCtx) -> (u64, u32) {
    let p = ctx.size();
    let (next, prev) = ((ctx.rank() + 1) % p, (ctx.rank() + p - 1) % p);
    let mut acc = ctx.rank() as u64;
    let mut completed_rounds = 0u32;
    for round in 0..4u32 {
        ctx.send_t::<u64>(next, round, acc);
        match ctx.recv_within(prev, round, secs(5e-3)) {
            Ok(payload) => {
                acc = acc
                    .wrapping_mul(33)
                    .wrapping_add(payload.as_slice().len() as u64);
                completed_rounds += 1;
            }
            Err(_) => break,
        }
    }
    (acc, completed_rounds)
}

#[test]
fn chaotic_fault_plan_outcomes_are_identical() {
    for (nodes, cores) in [(2, 4), (4, 8)] {
        for seed in SEEDS {
            let base = machines::testbed(nodes, cores).cluster(seed);
            let threads = base
                .to_builder()
                .faults(chaos_plan())
                .engine(EngineMode::Threads)
                .build();
            let events = threads.to_builder().engine(EngineMode::Events).build();
            let want = threads.run_outcome(lossy_ring);
            let got = events.run_outcome(lossy_ring);
            assert_eq!(want, got, "chaos p={} seed={seed}", nodes * cores);
        }
    }
}

#[test]
fn timeout_runs_are_identical() {
    // Rank 0 waits for a message rank 1 never sends: the deadline
    // resolution (SenderDone vs DeadlinePassed, the timeout's virtual
    // time) must be byte-identical across engines.
    let workload = |ctx: &mut RankCtx| -> Result<u64, String> {
        if ctx.rank() == 0 {
            match ctx.recv_within(1, 999, secs(1e-3)) {
                Ok(_) => Err("unexpected message".into()),
                Err(t) => Ok(t.at.seconds().to_bits()),
            }
        } else {
            ctx.compute(secs(5e-6));
            Ok(0)
        }
    };
    for (nodes, cores) in [(1, 2), (2, 4)] {
        let (threads, events) = pair(nodes, cores, SEEDS[0]);
        let want = threads.run_outcome(workload);
        let got = events.run_outcome(workload);
        assert_eq!(want, got, "timeout p={}", nodes * cores);
        assert!(
            want.ranks
                .iter()
                .all(|r| matches!(r, RankOutcome::Completed(Ok(_)))),
            "workload completes via Result, not unwind"
        );
    }
}
