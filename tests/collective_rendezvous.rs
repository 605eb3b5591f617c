//! Collectives in one rendezvous change nothing but host cost.
//!
//! A benign events run evaluates each collective in one rendezvous; a
//! run with a fault plan takes every step on messages. A plan that drops
//! nothing is non-empty, so it forces the message path while reproducing
//! the empty plan's timeline: it is the oracle. Every converted
//! algorithm must give identical virtual times, counters, outputs and
//! sink bytes on both paths, whatever the group size, root, operator or
//! entry skew, and with point-to-point traffic on the same channels
//! before and after. The rendezvous' failure paths must fail as the
//! message path does.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hcs_mpi::{AllreduceAlgorithm, ReduceOp};
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::engine::TrafficCounters;
use hierarchical_clock_sync::sim::obs::{chrome_trace, summary_json};
use hierarchical_clock_sync::sim::EngineMode;

const SIZES: [usize; 11] = [1, 2, 3, 5, 7, 8, 13, 16, 17, 64, 256];

const OPS: [ReduceOp; 5] = [
    ReduceOp::ByteMax,
    ReduceOp::F64Sum,
    ReduceOp::F64Min,
    ReduceOp::F64Max,
    ReduceOp::F64LOr,
];

const ALGS: [AllreduceAlgorithm; 3] = [
    AllreduceAlgorithm::RecursiveDoubling,
    AllreduceAlgorithm::ReduceBcast,
    AllreduceAlgorithm::Ring,
];

/// Point-to-point traffic tag, below the collective tag range.
const P2P: u32 = 0x55;

/// A `p`-rank testbed: several ranks per node where `p` allows, so
/// intra- and inter-node levels both carry collective traffic.
fn cluster(p: usize, seed: u64) -> Cluster {
    let (nodes, ppn) = match p {
        2 => (1, 2),
        8 => (2, 4),
        16 => (4, 4),
        64 => (8, 8),
        256 => (16, 16),
        _ => (p, 1),
    };
    machines::testbed(nodes, ppn).cluster(seed)
}

/// The same cluster on the message path: a plan that drops nothing.
fn on_messages(cluster: &Cluster) -> Cluster {
    cluster
        .to_builder()
        .faults(FaultPlan::new().drop_messages(LinkSel::any(), 0.0, Window::all()))
        .build()
}

/// What one rank saw.
#[derive(Debug, PartialEq)]
struct Seen {
    now: SimTime,
    counters: TrafficCounters,
    outputs: Vec<Vec<u8>>,
}

/// Three `f64` lanes, rank-dependent, valid for every operator.
fn contribution(r: usize) -> Vec<u8> {
    [r as f64, 1.0, -(r as f64) * 0.5]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// Every converted collective, each entered with a rank-dependent skew
/// and wrapped in point-to-point traffic on the ring channels: a send
/// to the right neighbor before it, the matching receive after it.
fn workload(ctx: &mut RankCtx) -> Seen {
    let mut comm = Comm::world(ctx);
    let (r, p) = (comm.rank(), comm.size());
    let mut outputs = Vec::new();
    let mut step = 0u64;
    let mut around = |ctx: &mut RankCtx,
                      comm: &mut Comm,
                      op: &mut dyn FnMut(&mut RankCtx, &mut Comm) -> Vec<u8>| {
        step += 1;
        ctx.compute(secs(1e-6 * ((r as u64 * 7 + step) % 5) as f64));
        if p > 1 {
            ctx.send(comm.global_rank((r + 1) % p), P2P, &step.to_le_bytes());
        }
        let out = op(ctx, comm);
        if p > 1 {
            let got = ctx.recv(comm.global_rank((r + p - 1) % p), P2P);
            assert_eq!(got.as_ref(), step.to_le_bytes());
        }
        out
    };
    for alg in ALGS {
        for op in OPS {
            outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
                comm.allreduce_alg(ctx, &contribution(r), op, alg)
            }));
        }
        // A payload no f64 operator accepts, smaller than the group.
        outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
            comm.allreduce_alg(ctx, &[r as u8; 5], ReduceOp::ByteMax, alg)
        }));
    }
    for alg in BarrierAlgorithm::ALL {
        outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
            comm.barrier(ctx, alg);
            Vec::new()
        }));
    }
    for root in [0, p / 2, p - 1] {
        outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
            let data = if comm.rank() == root {
                contribution(root + 1)
            } else {
                Vec::new()
            };
            comm.bcast(ctx, root, &data)
        }));
        for op in OPS {
            outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
                comm.reduce(ctx, root, &contribution(r), op)
                    .unwrap_or_default()
            }));
        }
        outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
            comm.gather(ctx, root, &[r as u8; 3])
                .map(|v| v.concat())
                .unwrap_or_default()
        }));
        outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
            let chunks: Vec<Vec<u8>> = (0..p).map(|i| vec![i as u8; i % 4]).collect();
            let mine = (comm.rank() == root).then_some(&chunks[..]);
            comm.scatter(ctx, root, mine)
        }));
    }
    outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
        comm.allgather(ctx, &[r as u8; 2]).concat()
    }));
    // Node and leader splits: sibling communicators share their tags.
    outputs.push(around(ctx, &mut comm, &mut |ctx, comm| {
        let mut node = comm.split_shared_node(ctx);
        let leaders = comm.split_node_leaders(ctx);
        let mut out = node.allreduce(ctx, &contribution(r), ReduceOp::F64Sum);
        node.barrier(ctx, BarrierAlgorithm::Tree);
        if let Some(mut leaders) = leaders {
            out.extend(leaders.bcast(ctx, 0, &[7, leaders.rank() as u8]));
        }
        out
    }));
    Seen {
        now: ctx.now(),
        counters: ctx.counters(),
        outputs,
    }
}

/// Runs `workload` on `cluster` batched and on messages and asserts both
/// give the same per-rank results and, with `obs`, the same sink bytes.
fn assert_paths_agree(cluster: &Cluster, obs: bool) {
    let cluster = if obs {
        cluster.to_builder().observability(ObsSpec::full()).build()
    } else {
        cluster.clone()
    };
    let (batched, batched_log) = cluster.run_observed(workload);
    let (messages, messages_log) = on_messages(&cluster).run_observed(workload);
    let p = cluster.topology().total_cores();
    assert_eq!(batched.len(), p);
    for (r, (b, m)) in batched.iter().zip(&messages).enumerate() {
        assert_eq!(b, m, "p = {p}, obs = {obs}: rank {r} differs");
    }
    if obs {
        assert!(!batched_log.is_empty());
        assert_eq!(
            chrome_trace(&batched_log),
            chrome_trace(&messages_log),
            "p = {p}: chrome traces differ"
        );
        assert_eq!(
            summary_json(&batched_log),
            summary_json(&messages_log),
            "p = {p}: summaries differ"
        );
    }
}

#[test]
fn batched_collectives_match_the_message_path_at_every_size() {
    for p in SIZES {
        assert_paths_agree(&cluster(p, 4400 + p as u64), false);
    }
}

#[test]
fn batched_collectives_match_the_message_path_with_full_observability() {
    for p in SIZES {
        assert_paths_agree(&cluster(p, 4500 + p as u64), true);
    }
}

/// Extracts the payload of a propagated rank panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("rank panics carry a string payload")
}

#[test]
fn a_member_that_never_enters_fails_the_run_naming_the_collective() {
    for mode in [EngineMode::Events, EngineMode::Threads] {
        let cluster = cluster(8, 45).to_builder().engine(mode).build();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                let mut comm = Comm::world(ctx);
                if ctx.rank() != 3 {
                    comm.allreduce_f64(ctx, 1.0, ReduceOp::F64Sum);
                }
            })
        }))
        .expect_err("a collective a member never enters must fail the run");
        let msg = panic_message(payload);
        assert!(msg.contains("run stalled"), "{mode:?}: {msg}");
        assert!(
            msg.contains(
                "waiting in the collective on tag 0x10000 among 8 ranks (lowest 0): 7 entered, \
                 and rank 3, which has not, already finished"
            ),
            "{mode:?}: {msg}"
        );
    }
}

#[test]
fn a_mismatched_allreduce_payload_still_names_the_mismatch() {
    let payload = catch_unwind(AssertUnwindSafe(|| {
        cluster(8, 46).run(|ctx| {
            let mut comm = Comm::world(ctx);
            let len = if ctx.rank() == 5 { 16 } else { 8 };
            comm.allreduce(ctx, &vec![1u8; len], ReduceOp::ByteMax)
        })
    }))
    .expect_err("a payload length mismatch must fail the run");
    let msg = panic_message(payload);
    assert!(msg.contains("allreduce payload length mismatch"), "{msg}");
}

#[test]
fn mixed_receive_timeouts_run_on_messages_and_time_out_as_before() {
    // The ranks of one parity have a receive-timeout policy, the others
    // do not, and rank 3 enters late. Even: 0 enters first and marks
    // the slot before anyone parks; recursive doubling then has 2 time
    // out waiting on 3, and 0 on 2, while 1 and 3 complete. Odd: 0
    // enters first and parks, and the first timed member to enter
    // releases it to messages.
    for (parity, want) in [(0, vec![0, 2]), (1, vec![1])] {
        let body = |ctx: &mut RankCtx| {
            if ctx.rank() % 2 == parity {
                ctx.set_recv_timeout(Some(secs(20e-6)));
            }
            if ctx.rank() == 3 {
                ctx.compute(secs(1e-3));
            }
            let mut comm = Comm::world(ctx);
            let x = comm.allreduce_f64(ctx, ctx.rank() as f64, ReduceOp::F64Sum);
            (x, ctx.now(), ctx.counters())
        };
        let plain = cluster(4, 47);
        let batched = plain.run_outcome(body);
        let messages = on_messages(&plain).run_outcome(body);
        assert_eq!(batched, messages, "timed parity {parity}");
        let timed_out: Vec<usize> = (0..4)
            .filter(|&r| batched.ranks[r].timed_out().is_some())
            .collect();
        assert_eq!(timed_out, want, "timed parity {parity}: {batched:?}");
    }
}

/// Rank `w` waits, with a deadline, for a message rank `s` sends only
/// after a barrier all enter; `s` reaches the barrier before `w`. The
/// wait cycle runs through the collective, and `w`'s deadline resolves
/// it.
fn deadline_receive_before_a_barrier(
    ctx: &mut RankCtx,
    alg: BarrierAlgorithm,
    w: usize,
    s: usize,
) -> (Option<RecvTimeout>, SimTime, TrafficCounters) {
    let mut comm = Comm::world(ctx);
    let mut timeout = None;
    if ctx.rank() == w {
        timeout = ctx.recv_within(s, P2P, secs(50e-6)).err();
    }
    comm.barrier(ctx, alg);
    if ctx.rank() == s {
        ctx.send(w, P2P, &[1]);
    }
    (timeout, ctx.now(), ctx.counters())
}

#[test]
fn a_wait_cycle_through_a_parked_member_fires_the_deadline_as_on_messages() {
    for (p, w, s) in [(2, 0, 1), (5, 2, 4), (8, 0, 7), (8, 6, 1)] {
        for alg in BarrierAlgorithm::ALL {
            let plain = cluster(p, 48);
            let on_engine = |mode| plain.to_builder().engine(mode).build();
            let body = |ctx: &mut RankCtx| deadline_receive_before_a_barrier(ctx, alg, w, s);
            let batched = on_engine(EngineMode::Events).run_outcome(body);
            let messages = on_messages(&on_engine(EngineMode::Events)).run_outcome(body);
            let threads = on_engine(EngineMode::Threads).run_outcome(body);
            assert_eq!(batched, messages, "p = {p}, {alg:?}");
            assert_eq!(batched, threads, "p = {p}, {alg:?}");
            assert_eq!(
                batched.completed_count(),
                p,
                "p = {p}, {alg:?}: {batched:?}"
            );
            let (timeout, _, _) = batched.ranks[w].completed().expect("the waiter completes");
            let timeout = timeout.expect("the waiter's receive times out");
            assert_eq!(timeout.reason, TimeoutReason::WaitCycle, "{timeout:?}");
        }
    }
}

#[test]
fn a_receive_cycle_through_a_collective_is_diagnosed() {
    let on_engine = |mode| cluster(2, 49).to_builder().engine(mode).build();
    let events = on_engine(EngineMode::Events);
    for cluster in [on_messages(&events), events, on_engine(EngineMode::Threads)] {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                let mut comm = Comm::world(ctx);
                if ctx.rank() == 0 {
                    ctx.recv(1, P2P);
                    comm.barrier(ctx, BarrierAlgorithm::Tree);
                } else {
                    comm.barrier(ctx, BarrierAlgorithm::Tree);
                    ctx.send(0, P2P, &[1]);
                }
            })
        }))
        .expect_err("a receive cycle must fail the run");
        // Rank 1 waits on rank 0 on the barrier's tag, whether it is
        // parked in the rendezvous or in a receive on messages.
        assert_eq!(
            panic_message(payload),
            "deadlock detected: rank 0 waiting on (src 1, tag 85) -> rank 1 waiting on (src 0, \
             tag 65536) -> rank 0"
        );
    }
}
