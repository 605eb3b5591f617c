//! Scale smoke tests. The default-run sizes are kept moderate; the
//! `#[ignore]`d test syncs 8 192 ranks of the Titan model (H2HCA over
//! HCA3) on the default engine's fibers and is run explicitly:
//!
//! ```text
//! cargo test --release --test scale_smoke -- --ignored
//! ```
//!
//! In release it takes about 0.7 s in the heap order and 0.8 s in the
//! reference order (`HCS_ENGINE=threads`) and peaks at about 150 MB RSS
//! in either, ≈ 0.018 MB per simulated rank, measured with `getrusage`
//! on a 2-vCPU x86_64 host. Before a split's allgather was read in
//! place it took about 20 s and peaked at about 1.47 GB: every member
//! kept its own copy of the 8 192 × 21-byte record buffer in the
//! rendezvous slot and unpacked it into 8 192 `Vec`s. It stays ignored
//! because a debug build takes about 24 s; CI runs it nightly in
//! release, in both pick orders.

use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::EngineMode;

#[test]
fn two_thousand_ranks_sync_and_reduce() {
    // 128 nodes x 16 cores = 2048 ranks, H2HCA + one allreduce.
    let machine = machines::titan().with_shape(128, 1, 16);
    let evals = machine.cluster(1).run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hierarchical::h2(
            Box::new(Hca3::skampi(15, 4)),
            Box::new(ClockPropSync::verified()),
        );
        let g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
        let s = comm.allreduce_f64(ctx, 1.0, ReduceOp::F64Sum);
        assert_eq!(s, 2048.0);
        g.true_eval(SimTime::from_secs(2.0)).raw_seconds()
    });
    assert_eq!(evals.len(), 2048);
    let max_err = evals
        .iter()
        .map(|v| (v - evals[0]).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 60e-6, "max err {max_err:.3e}");
}

#[test]
fn events_engine_runs_131072_ranks() {
    // The `EngineMode::Events` claim "scales to p >= 131072": one
    // 100-trip ping-pong between ranks 0 and 1, every other rank idle.
    // Pinned to the events engine, whose claim this is.
    const P: usize = 131_072;
    let cluster = machines::testbed(P / 4, 4)
        .cluster(2)
        .to_builder()
        .engine(EngineMode::Events)
        .build();
    let ranks = cluster.run(|ctx| {
        match ctx.rank() {
            0 => {
                for trip in 0..100u32 {
                    ctx.send_t(1, trip, trip);
                    assert_eq!(ctx.recv_t::<u32>(1, trip), trip);
                }
            }
            1 => {
                for trip in 0..100u32 {
                    let v: u32 = ctx.recv_t(0, trip);
                    ctx.send_t(0, trip, v);
                }
            }
            _ => {}
        }
        ctx.rank()
    });
    assert!(ranks.into_iter().eq(0..P), "results in rank order");
}

#[test]
#[ignore = "~0.7 s and ~150 MB in release, ~24 s in debug"]
fn titan_large_scale_8192_ranks() {
    let machine = machines::titan().with_shape(512, 1, 16);
    let evals = machine.cluster(1).run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hierarchical::h2(
            Box::new(Hca3::skampi(10, 4)),
            Box::new(ClockPropSync::verified()),
        );
        let g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
        g.true_eval(SimTime::from_secs(2.0)).raw_seconds()
    });
    assert_eq!(evals.len(), 8192);
    let max_err = evals
        .iter()
        .map(|v| (v - evals[0]).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 150e-6, "max err {max_err:.3e}");
}
