//! Deadlock detection: a genuine receive cycle must fail the run with
//! the full cycle named in the panic, byte-identical on both engine
//! modes, and the detector must never fire on deadlock-free workloads
//! (it is always on, so all other integration tests double as
//! no-false-positive checks — the pipeline test here is the densest
//! communication pattern exercised explicitly).

use std::panic::{catch_unwind, AssertUnwindSafe};

use hcs_mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::EngineMode;

/// Extracts the payload of a propagated rank panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("rank panics carry a string payload")
}

/// Runs `body` on each engine mode, expects every run to fail on the
/// caller with byte-identical messages, checks that the same cluster
/// still serves a clean run, and returns the failure message.
fn failure_message(cluster: &Cluster, body: impl Fn(&mut RankCtx) + Sync) -> String {
    let msgs: Vec<String> = [EngineMode::Events, EngineMode::Threads]
        .into_iter()
        .map(|mode| {
            let cluster = cluster.to_builder().engine(mode).build();
            let payload = catch_unwind(AssertUnwindSafe(|| cluster.run(&body)))
                .expect_err("a deadlocked or stalled run must panic on the caller, not hang");
            let ranks: Vec<usize> = (0..cluster.topology().total_cores()).collect();
            assert_eq!(cluster.run(|ctx| ctx.rank()), ranks, "clean run afterwards");
            panic_message(payload)
        })
        .collect();
    assert_eq!(msgs[0], msgs[1], "both modes fail with the same message");
    msgs[0].clone()
}

#[test]
fn three_rank_receive_cycle_is_diagnosed() {
    let msg = failure_message(&machines::testbed(3, 1).cluster(11), |ctx| {
        // 0 waits on 1, 1 waits on 2, 2 waits on 0: a genuine cycle
        // that would hang forever without the detector.
        let _ = match ctx.rank() {
            0 => ctx.recv(1, 11),
            1 => ctx.recv(2, 12),
            _ => ctx.recv(0, 13),
        };
    });
    // The diagnosis names every edge of the cycle with rank, source and
    // tag, from the cycle's lowest rank.
    assert_eq!(
        msg,
        "deadlock detected: rank 0 waiting on (src 1, tag 11) -> rank 1 waiting on (src 2, tag \
         12) -> rank 2 waiting on (src 0, tag 13) -> rank 0"
    );
}

#[test]
fn two_rank_mutual_receive_is_diagnosed() {
    let msg = failure_message(&machines::testbed(2, 1).cluster(12), |ctx| {
        let peer = 1 - ctx.rank();
        // Both ranks receive first: the classic head-to-head deadlock.
        let _ = ctx.recv(peer, 42);
    });
    assert_eq!(
        msg,
        "deadlock detected: rank 0 waiting on (src 1, tag 42) -> rank 1 waiting on (src 0, tag \
         42) -> rank 0"
    );
}

#[test]
fn cycle_after_hot_spin_budget_is_still_diagnosed() {
    // Warm both ranks with a burst of successful receives (wait edges
    // registered and cleared 64 times over), then enter a genuine
    // cycle: both must park and the cycle must still be named — not
    // missed because of stale edge state.
    let msg = failure_message(&machines::testbed(2, 1).cluster(13), |ctx| {
        let peer = 1 - ctx.rank();
        // A ping-pong phase in which every receive succeeds.
        for i in 0..64u32 {
            if ctx.rank() == 0 {
                ctx.send_t(peer, 7, i);
                let _: u32 = ctx.recv_t(peer, 7);
            } else {
                let _: u32 = ctx.recv_t(peer, 7);
                ctx.send_t(peer, 7, i);
            }
        }
        // Now both ranks receive head-to-head: a real deadlock.
        let _ = ctx.recv(peer, 77);
    });
    assert_eq!(
        msg,
        "deadlock detected: rank 0 waiting on (src 1, tag 77) -> rank 1 waiting on (src 0, tag \
         77) -> rank 0"
    );
}

#[test]
fn full_sync_and_round_time_pipeline_has_no_false_positives() {
    // The densest communication pattern in the repo: HCA3 tree
    // synchronization (ping-pong offset measurements over shared tags)
    // followed by Round-Time collective measurement (bcast + allreduce
    // per round). Any spurious cycle confirmation would panic the run.
    // A benign events run evaluates the bcasts and allreduces in one
    // rendezvous each, without a message; the leg under a plan that
    // drops nothing runs them on messages, so the detector still sees
    // the collective traffic.
    let cluster = machines::testbed(3, 2).cluster(21);
    let on_messages = cluster
        .to_builder()
        .faults(FaultPlan::new().drop_messages(LinkSel::any(), 0.0, Window::all()))
        .build();
    let body = |ctx: &mut RankCtx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hca3::skampi(20, 5);
        let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
        let cfg = RoundTimeConfig {
            max_time_slice_s: secs(0.02),
            max_nrep: 50,
            ..Default::default()
        };
        let mut op = |ctx: &mut RankCtx, comm: &mut Comm| {
            comm.allreduce_f64(ctx, 1.0, ReduceOp::F64Sum);
        };
        run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op).len()
    };
    let res = cluster.run(body);
    assert!(
        res.iter().all(|&n| n == res[0] && n > 0),
        "pipeline completed with agreed sample counts: {res:?}"
    );
    assert_eq!(on_messages.run(body), res, "message path agrees");
}

#[test]
fn cycle_is_diagnosed_while_a_non_matching_message_is_buffered() {
    // Rank 0 sends rank 1 a message that does NOT match what rank 1 is
    // receiving on, then both ranks block head-to-head. The message
    // waits in rank 1's inbox without waking it, and rank 1 must still
    // be parked with its wait edge registered — otherwise the drain
    // would miss the cycle and report a stall.
    let msg = failure_message(&machines::testbed(2, 1).cluster(14), |ctx| {
        let peer = 1 - ctx.rank();
        if ctx.rank() == 0 {
            ctx.send_t(peer, 5, 1.0f64);
        }
        let _ = ctx.recv(peer, 99);
    });
    assert_eq!(
        msg,
        "deadlock detected: rank 0 waiting on (src 1, tag 99) -> rank 1 waiting on (src 0, tag \
         99) -> rank 0"
    );
}

#[test]
fn non_cycle_stall_on_a_finished_sender_is_diagnosed() {
    // Rank 0 returns at once, rank 1 waits for it and rank 2 waits for
    // rank 1: no cycle for the wait graph. Only the scheduler sees it.
    let msg = failure_message(&machines::testbed(3, 1).cluster(15), |ctx| {
        match ctx.rank() {
            0 => {}
            r => {
                let _: f64 = ctx.recv_t(r - 1, 7);
            }
        }
    });
    assert!(msg.contains("run stalled"), "{msg}");
    for needle in [
        "rank 1 waiting on (src 0, tag 7), and rank 0 already finished",
        "rank 2 waiting on (src 1, tag 7), and rank 1 has not finished",
    ] {
        assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
    }
}

#[test]
fn plain_receive_from_a_finished_rank_is_a_stall() {
    // Rank 0 returns at once and rank 1, the only rank left, waits for
    // it with a plain receive: the drain pass reports the stall, on
    // both pick orders.
    let msg = failure_message(&machines::testbed(2, 1).cluster(16), |ctx| {
        if ctx.rank() == 1 {
            let _: f64 = ctx.recv_t(0, 7);
        }
    });
    assert_eq!(
        msg,
        "run stalled: no rank is ready, 1 of 2 finished and nothing can wake the 1 parked: rank \
         1 waiting on (src 0, tag 7), and rank 0 already finished"
    );
}
