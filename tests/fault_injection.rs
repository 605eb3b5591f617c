//! Fault injection and failure replay.
//!
//! Three families of guarantees:
//!
//! 1. **Benign-run stability** — an empty (or zero-probability)
//!    `FaultPlan` leaves timelines *bit-unchanged*: the hardcoded
//!    goldens below were recorded before the fault layer existed, and
//!    every run here must still reproduce them exactly.
//! 2. **Failure replay** — the same `(seed, FaultPlan)` yields
//!    byte-identical outcomes, timelines and chrome traces across
//!    repeated runs and on the reference engine.
//! 3. **Degradation semantics** — each fault kind resolves receives
//!    the way the `TimeoutReason` contract says it does, with no hangs.

use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::obs::chrome_trace;
use hierarchical_clock_sync::sim::{EngineMode, Wire};

/// The pre-fault-layer golden workload: one HCA3 synchronization on a
/// Jupiter-like 2x2x2 machine, returning (oracle eval at t=1s, final
/// virtual time) per rank.
fn hca3_workload(ctx: &mut RankCtx) -> (f64, f64) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let mut sync = Hca3::skampi(20, 6);
    let g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
    (
        g.true_eval(SimTime::from_secs(1.0)).raw_seconds(),
        ctx.now().seconds(),
    )
}

/// Same shape for JK on a noisy ethernet machine (exercises the
/// noise-injection path under the new env plumbing).
fn jk_workload(ctx: &mut RankCtx) -> (f64, f64) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let mut sync = Jk::mean_rtt(16, 4);
    let g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
    (
        g.true_eval(SimTime::from_secs(1.0)).raw_seconds(),
        ctx.now().seconds(),
    )
}

fn assert_bits(got: &[(f64, f64)], evals: &[f64], nows: &[f64], what: &str) {
    assert_eq!(got.len(), evals.len(), "{what}: rank count");
    for (r, ((e, n), (ge, gn))) in got.iter().zip(evals.iter().zip(nows.iter())).enumerate() {
        assert_eq!(
            e.to_bits(),
            ge.to_bits(),
            "{what}: rank {r} eval {e:?} != golden {ge:?}"
        );
        assert_eq!(
            n.to_bits(),
            gn.to_bits(),
            "{what}: rank {r} now {n:?} != golden {gn:?}"
        );
    }
}

/// Goldens recorded before the fault layer existed: an empty plan must
/// keep these timelines bit-for-bit.
#[test]
fn empty_plan_timelines_match_pre_fault_goldens() {
    let evals_123 = [
        -40513.856555110855,
        -40513.8565551357,
        -40513.85655494236,
        -40513.85655502619,
        -40513.8565554717,
        -40513.85655562289,
        -40513.85655560739,
        -40513.85655560586,
    ];
    let nows_123 = [
        0.17536789028938993,
        0.17536841892331226,
        0.17536880765172796,
        0.1753693376201357,
        0.17537230626069286,
        0.17537281888960057,
        0.17537340271261276,
        0.175373919521482,
    ];
    let got = machines::jupiter()
        .with_shape(2, 2, 2)
        .cluster(123)
        .run(hca3_workload);
    assert_bits(&got, &evals_123, &nows_123, "hca3/seed123");

    let evals_77 = [
        -39880.43452532577,
        -39880.43452543942,
        -39880.43452525557,
        -39880.43452533457,
        -39880.43452472966,
        -39880.43452470175,
        -39880.43452486812,
        -39880.434524894634,
    ];
    let nows_77 = [
        0.17536935620837552,
        0.17536989070073028,
        0.17537023914100106,
        0.1753707663574001,
        0.1753726279480635,
        0.17537315764310513,
        0.17537375109309236,
        0.175374263609407,
    ];
    let got = machines::jupiter()
        .with_shape(2, 2, 2)
        .cluster(77)
        .run(hca3_workload);
    assert_bits(&got, &evals_77, &nows_77, "hca3/seed77");

    let evals_b = [
        -13897.629286240994,
        -13897.629286420532,
        -13897.629286677164,
        -13897.62926853792,
        -13897.62922728022,
        -13897.629310499618,
    ];
    let nows_b = [
        0.25016737123364485,
        0.04876407140120661,
        0.09453126033885839,
        0.14652342292281068,
        0.19828421001543017,
        0.2501329246240674,
    ];
    let got = machines::ethernet()
        .with_shape(2, 1, 3)
        .cluster(42)
        .run(jk_workload);
    assert_bits(&got, &evals_b, &nows_b, "jk/noisy/seed42");
}

/// A plan whose clauses can never fire (zero probabilities, unit
/// latency scale) still arms the fault machinery — separate RNG
/// streams, done-wakeups — but must not perturb the timeline.
#[test]
fn zero_probability_plan_is_bit_identical_to_empty_plan() {
    let plan = FaultPlan::new()
        .drop_messages(LinkSel::any(), 0.0, Window::all())
        .duplicate_messages(LinkSel::any(), 0.0, secs(1e-5), Window::all())
        .reorder_messages(LinkSel::any(), 0.0, secs(1e-5), Window::all())
        .scale_latency(LinkSel::any(), 1.0, Window::all());
    assert!(!plan.is_empty());
    let machine = machines::jupiter().with_shape(2, 2, 2);
    let benign = machine.cluster(123).run(hca3_workload);
    let faulty = machine
        .cluster(123)
        .to_builder()
        .faults(plan)
        .build()
        .run(hca3_workload);
    for (r, (a, b)) in benign.iter().zip(faulty.iter()).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "rank {r} eval");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "rank {r} now");
    }
}

/// `.env(EnvSpec)` and the per-field sugar must configure the same
/// simulation — identical timelines, not just identical specs.
#[test]
fn env_spec_and_sugar_produce_the_same_timeline() {
    let machine = machines::ethernet().with_shape(2, 1, 3);
    let base = machine.cluster(42);
    let via_env = base.run(jk_workload);
    // Rebuild the same environment through the sugar methods.
    let env = machine.env_spec();
    let mut b = Cluster::builder()
        .topology(base.topology().clone())
        .network(env.network)
        .clock(base.clock_spec().clone())
        .seed(42);
    if let Some(n) = env.noise {
        b = b.noise(n);
    }
    let via_sugar = b.build().run(jk_workload);
    for (r, (a, b)) in via_env.iter().zip(via_sugar.iter()).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "rank {r} eval");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "rank {r} now");
    }
}

/// A chaotic plan exercising every fault kind at once.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .drop_messages(LinkSel::any(), 0.02, Window::all())
        .duplicate_messages(LinkSel::any(), 0.05, secs(2e-5), Window::all())
        .reorder_messages(LinkSel::any(), 0.05, secs(5e-5), Window::all())
        .scale_latency_varying(
            LinkSel::any(),
            1.5,
            0.5,
            secs(0.01),
            Window::starting(SimTime::from_secs(0.02)),
        )
        .partition(
            vec![0, 1],
            Window::between(SimTime::from_secs(0.05), SimTime::from_secs(0.08)),
        )
        .crash(3, SimTime::from_secs(0.1), Some(SimTime::from_secs(0.13)))
}

fn chaos_body(ctx: &mut RankCtx) -> u64 {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let mut sync = Hca3::skampi(12, 4);
    let out = run_sync_with_timeout(&mut sync, ctx, &mut comm, Box::new(clk), secs(0.3));
    out.clock
        .true_eval(SimTime::from_secs(1.0))
        .raw_seconds()
        .to_bits()
}

fn chaos_cluster() -> Cluster {
    machines::testbed(2, 2)
        .cluster(7)
        .to_builder()
        .env(machines::testbed(2, 2).env_spec().faults(chaos_plan()))
        .build()
}

/// Same (seed, FaultPlan) => byte-identical outcomes across repeated
/// runs and the reference engine, and byte-identical chrome traces.
#[test]
fn chaotic_replay_is_byte_identical() {
    let cluster = chaos_cluster();
    let reference_engine = cluster.to_builder().engine(EngineMode::Threads).build();
    let first = cluster.run_outcome(chaos_body);
    let again = cluster.run_outcome(chaos_body);
    let reference = reference_engine.run_outcome(chaos_body);
    assert_eq!(first, again, "rerun diverged under faults");
    assert_eq!(first, reference, "reference engine diverged under faults");

    let observed = chaos_cluster()
        .to_builder()
        .observability(ObsSpec::full())
        .build();
    let (o1, log1) = observed.run_outcome_observed(chaos_body);
    let (o2, log2) = observed.run_outcome_observed(chaos_body);
    assert_eq!(o1, o2);
    assert_eq!(first, o1, "observability changed fault outcomes");
    assert_eq!(
        chrome_trace(&log1),
        chrome_trace(&log2),
        "chrome trace replay is not byte-identical"
    );
}

/// Two ranks on one node — the minimal deterministic fixture for the
/// per-fault-kind semantics tests below.
fn pair(plan: FaultPlan) -> Cluster {
    machines::testbed(1, 2)
        .cluster(11)
        .to_builder()
        .faults(plan)
        .build()
}

/// A dropped message leaves a tombstone: the receive times out with
/// `MessageLost` and the run reports it as a per-rank outcome.
#[test]
fn dropped_message_resolves_as_message_lost() {
    let plan = FaultPlan::new().drop_messages(LinkSel::directed(0, 1), 1.0, Window::all());
    let outcome = pair(plan).run_outcome(|ctx| {
        ctx.set_recv_timeout(Some(secs(0.25)));
        match ctx.rank() {
            0 => ctx.send_t(1, 9, 42.0f64),
            _ => {
                let _: f64 = ctx.recv_t(0, 9);
            }
        }
        ctx.now().seconds()
    });
    assert!(outcome.ranks[0].is_completed(), "sender must complete");
    let t = outcome.ranks[1]
        .timed_out()
        .expect("receiver must time out");
    assert_eq!(t.reason, TimeoutReason::MessageLost);
    assert_eq!((t.rank, t.src, t.tag), (1, 0, 9));
    assert_eq!(outcome.completed_count(), 1);
    assert_eq!(outcome.timed_out_count(), 1);
    assert!(!outcome.all_completed());
}

/// Without a timeout policy, consuming a tombstone under plain
/// `Cluster::run` is a run-level panic pointing at `run_outcome`.
#[test]
fn tombstone_under_plain_run_panics_with_guidance() {
    let plan = FaultPlan::new().drop_messages(LinkSel::directed(0, 1), 1.0, Window::all());
    let cluster = pair(plan);
    let err = std::panic::catch_unwind(move || {
        cluster.run(|ctx| match ctx.rank() {
            0 => ctx.send_t(1, 9, 1.0f64),
            _ => {
                let _: f64 = ctx.recv_t(0, 9);
            }
        });
    })
    .expect_err("lost message must panic under Cluster::run");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("timed out"), "unexpected panic: {msg}");
    assert!(
        msg.contains("run_outcome"),
        "panic should point at Cluster::run_outcome: {msg}"
    );
}

/// Cross-partition messages are dropped for exactly the window; traffic
/// inside one side is unaffected.
#[test]
fn partition_drops_only_cross_group_messages_in_window() {
    let plan = FaultPlan::new().partition(
        vec![0, 1],
        Window::between(SimTime::from_secs(0.01), SimTime::from_secs(0.02)),
    );
    let outcome = machines::testbed(1, 4)
        .cluster(3)
        .to_builder()
        .faults(plan)
        .build()
        .run_outcome(|ctx| {
            // Before the window: everything flows.
            match ctx.rank() {
                0 => ctx.send_t(2, 1, 1.0f64),
                2 => {
                    let _: f64 = ctx.recv_t(0, 1);
                }
                _ => {}
            }
            ctx.jump_to(SimTime::from_secs(0.012));
            // Inside the window: 0->2 crosses the cut, 0->1 does not.
            match ctx.rank() {
                0 => {
                    ctx.send_t(2, 2, 2.0f64);
                    ctx.send_t(1, 3, 3.0f64);
                }
                1 => {
                    let v: f64 = ctx.recv_t(0, 3);
                    assert_eq!(v, 3.0);
                }
                2 => {
                    let e = ctx
                        .recv_within(0, 2, secs(0.1))
                        .expect_err("cross-partition message must be lost");
                    assert_eq!(e.reason, TimeoutReason::MessageLost);
                }
                _ => {}
            }
            ctx.rank()
        });
    assert!(outcome.all_completed(), "no rank should abandon its body");
}

/// Messages that would arrive during a crash blackout are lost; after
/// the restart the link works again.
#[test]
fn crash_blackout_and_restart() {
    let plan = FaultPlan::new().crash(1, SimTime::from_secs(0.01), Some(SimTime::from_secs(0.02)));
    let outcome = pair(plan).run_outcome(|ctx| match ctx.rank() {
        0 => {
            ctx.send_t(1, 1, 1.0f64); // arrives well before the crash
            ctx.jump_to(SimTime::from_secs(0.012));
            ctx.send_t(1, 2, 2.0f64); // arrives inside the blackout
            ctx.jump_to(SimTime::from_secs(0.03));
            ctx.send_t(1, 3, 3.0f64); // after restart
            0.0
        }
        _ => {
            let a: f64 = ctx.recv_t(0, 1);
            let e = ctx
                .recv_within(0, 2, secs(0.1))
                .expect_err("blackout message must be lost");
            assert_eq!(e.reason, TimeoutReason::MessageLost);
            let b: f64 = ctx.recv_t(0, 3);
            a + b
        }
    });
    assert!(outcome.all_completed());
    assert_eq!(outcome.ranks[1].completed(), Some(&4.0));
}

/// Duplication delivers a second, later copy of the same payload.
#[test]
fn duplicate_delivers_a_second_copy() {
    let plan = FaultPlan::new().duplicate_messages(
        LinkSel::directed(0, 1),
        1.0,
        secs(1e-4),
        Window::all(),
    );
    let outcome = pair(plan).run_outcome(|ctx| match ctx.rank() {
        0 => {
            ctx.send_t(1, 7, 42.0f64);
            (0.0, 0.0, 0.0)
        }
        _ => {
            let a: f64 = ctx.recv_t(0, 7);
            let t1 = ctx.now().seconds();
            let b: f64 = ctx.recv_t(0, 7);
            let t2 = ctx.now().seconds();
            assert!(t2 > t1, "duplicate must arrive strictly later");
            (a, b, t2 - t1)
        }
    });
    assert!(outcome.all_completed());
    let (a, b, gap) = outcome.ranks[1].completed().copied().expect("receiver");
    assert_eq!(a, 42.0);
    assert_eq!(b, 42.0, "duplicate copy must carry the same payload");
    assert!(gap > 0.0);
}

/// Reordering truly inverts delivery order: a held-back earlier send
/// arrives *after* a later send to the same destination.
#[test]
fn reorder_overtakes_fifo_order() {
    // Only the first send falls inside the reorder window.
    let plan = FaultPlan::new().reorder_messages(
        LinkSel::directed(0, 1),
        1.0,
        secs(1e-3),
        Window::between(SimTime::ZERO, SimTime::from_secs(1e-7)),
    );
    let outcome = pair(plan).run_outcome(|ctx| match ctx.rank() {
        0 => {
            ctx.send_t(1, 1, 1.0f64); // reordered (held back)
            ctx.send_t(1, 2, 2.0f64); // normal FIFO delivery
            (0.0, 0.0)
        }
        _ => {
            // Receive in arrival order: tag 2 first, then tag 1.
            let b: f64 = ctx.recv_t(0, 2);
            let t2 = ctx.now().seconds();
            let a: f64 = ctx.recv_t(0, 1);
            let t1 = ctx.now().seconds();
            assert_eq!((a, b), (1.0, 2.0));
            (t1, t2)
        }
    });
    assert!(outcome.all_completed());
    let (t1, t2) = outcome.ranks[1].completed().copied().expect("receiver");
    assert!(
        t1 > t2,
        "first send must arrive after the second (got t1={t1}, t2={t2})"
    );
}

/// A merely *late* message (here: latency scaled 2000x) is not lost —
/// the deadline receive fails with `DeadlinePassed` at the deadline,
/// and a later plain receive still gets the payload.
#[test]
fn late_message_stays_buffered_past_a_missed_deadline() {
    let plan = FaultPlan::new().scale_latency(LinkSel::directed(0, 1), 2000.0, Window::all());
    let outcome = pair(plan).run_outcome(|ctx| match ctx.rank() {
        0 => {
            ctx.send_t(1, 4, 8.0f64);
            0.0
        }
        _ => {
            let e = ctx
                .recv_within(0, 4, secs(1e-5))
                .expect_err("scaled-up latency must miss the deadline");
            assert_eq!(e.reason, TimeoutReason::DeadlinePassed);
            let at_deadline = ctx.now();
            assert_eq!(e.at, at_deadline, "clock must sit at the deadline");
            let v: f64 = ctx.recv_t(0, 4); // still deliverable
            assert!(ctx.now() > at_deadline);
            v
        }
    });
    assert!(outcome.all_completed());
    assert_eq!(outcome.ranks[1].completed(), Some(&8.0));
}

/// Waiting on a rank whose closure already finished resolves as
/// `SenderFinished` instead of hanging (or panicking).
#[test]
fn finished_sender_resolves_deadline_receive() {
    let outcome = pair(FaultPlan::new()).run_outcome(|ctx| match ctx.rank() {
        0 => 0u32, // returns immediately, never sends
        _ => {
            let e = ctx
                .recv_deadline(0, 5, SimTime::from_secs(2.0))
                .expect_err("no send can ever match");
            assert_eq!(e.reason, TimeoutReason::SenderFinished);
            1u32
        }
    });
    assert!(outcome.all_completed());
}

/// A mutual wait between deadline receives is a fault-induced cycle:
/// the exact detector fires the deadline members instead of panicking,
/// and both resolve as `WaitCycle`.
#[test]
fn deadline_wait_cycle_resolves_both_sides() {
    let outcome = pair(FaultPlan::new()).run_outcome(|ctx| {
        let peer = 1 - ctx.rank();
        let e = ctx
            .recv_deadline(peer, 6, SimTime::from_secs(1.5))
            .expect_err("mutual wait can never complete");
        e.reason
    });
    assert!(outcome.all_completed());
    for r in 0..2 {
        assert_eq!(
            outcome.ranks[r].completed(),
            Some(&TimeoutReason::WaitCycle),
            "rank {r}"
        );
    }
}

/// Under the events engine a parked rank is woken only by the delivery
/// it waits for, so its mailbox may hold envelopes it does not wait for
/// while it is parked. Here each rank queues a stale message and then
/// `ssend`s, so both wait for an ack that never comes while the other's
/// stale message and `ssend` data sit unreceived in their mailboxes: a
/// deadline 2-cycle that must resolve as `WaitCycle` on both sides, on
/// both engines, never as a stall. Deadlock confirmation that asked
/// for an empty mailbox instead of a matching envelope would refute
/// this cycle and stall the events engine.
#[test]
fn mutual_ssends_behind_stale_envelopes_resolve_as_wait_cycles() {
    for mode in [EngineMode::Events, EngineMode::Threads] {
        let cluster = pair(FaultPlan::new()).to_builder().engine(mode).build();
        let outcome = cluster.run_outcome(|ctx| {
            ctx.set_recv_timeout(Some(secs(0.5)));
            let peer = 1 - ctx.rank();
            ctx.send_t(peer, 3, 0.5f64);
            ctx.ssend_t(peer, 4, 1.5f64);
        });
        for r in 0..2 {
            let t = outcome.ranks[r]
                .timed_out()
                .unwrap_or_else(|| panic!("{mode:?}: rank {r} must time out"));
            assert_eq!(t.reason, TimeoutReason::WaitCycle, "{mode:?}: rank {r}");
            assert_eq!(t.src, 1 - r, "{mode:?}: rank {r}");
        }
    }
}

/// The timeout policy composes with the wire helpers: a plain typed
/// receive under `set_recv_timeout` unwinds and is caught per rank.
#[test]
fn recv_timeout_policy_applies_to_typed_receives() {
    let outcome = pair(FaultPlan::new()).run_outcome(|ctx| {
        ctx.set_recv_timeout(Some(secs(0.5)));
        assert_eq!(ctx.recv_timeout(), Some(secs(0.5)));
        if ctx.rank() == 1 {
            let _ = <f64 as Wire>::from_wire(ctx.recv(0, 8).as_ref());
        }
        ctx.now().seconds()
    });
    assert!(outcome.ranks[0].is_completed());
    let t = outcome.ranks[1].timed_out().expect("no sender ever posts");
    // Rank 0 finished at t=0, so the receive resolves at its deadline.
    assert_eq!(t.reason, TimeoutReason::SenderFinished);
    assert!((t.at.seconds() - 0.5).abs() < 1e-12, "at={:?}", t.at);
}
